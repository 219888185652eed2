"""Entry point for ``python -m rankshift``."""
if __name__ == "__main__":
    from .cli import console_main
    console_main()
