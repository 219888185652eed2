"""Measure this machine's timing noise, for the notes in bench/README.md.

    python3 bench/noise.py

Times 30 back-to-back runs of a fixed pure-Python loop and of
``separating_family(fs2, (2, 2))``, in wall-clock and CPU time, and prints
each series with its median, quartiles and range.  CPU time that tracks wall
time means the noise is in how fast the host runs this process, not in the
scheduler taking the CPU away.
"""

import os
import statistics
import sys
from time import perf_counter, process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 30


def fixed_loop():
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return total


def series(label, fn):
    wall, cpu = [], []
    for _ in range(RUNS):
        w0, c0 = perf_counter(), process_time()
        fn()
        wall.append(perf_counter() - w0)
        cpu.append(process_time() - c0)
    for kind, xs in (("wall", wall), ("cpu", cpu)):
        q = statistics.quantiles(xs, n=4)
        print(f"{label} {kind}: median {statistics.median(xs) * 1e3:.0f} ms, "
              f"q1 {q[0] * 1e3:.0f}, q3 {q[2] * 1e3:.0f}, "
              f"min {min(xs) * 1e3:.0f}, max {max(xs) * 1e3:.0f}")
        print("  " + " ".join(f"{x * 1e3:.0f}" for x in xs))
    gap = max(abs(w - c) / w for w, c in zip(wall, cpu))
    print(f"{label}: largest |wall - cpu| / wall = {gap:.3f}")


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from rankshift import full_shift, separating_family, tensor

    fs2 = tensor([full_shift(2), full_shift(2)])
    print(f"{os.cpu_count()} CPUs, Python {sys.version.split()[0]}")
    series("fixed loop", fixed_loop)
    series("separating_family(fs2, (2,2))", lambda: separating_family(fs2, (2, 2)))


if __name__ == "__main__":
    main()
