"""Time, in a fresh interpreter, importing rankshift and loading input files.

    python3 -I bench/setup_probe.py <src dir> <system file>...

Prints the elapsed seconds from just before the import to just after the
last load, then the median time of five runs of the reference workload
(``reference.py``) in this same interpreter, right after.
"""

import os
import statistics
import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
from rankshift.cli import load_system  # noqa: E402

for path in sys.argv[2:]:
    load_system(path)
elapsed = perf_counter() - t0

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference  # noqa: E402

print(repr(elapsed), repr(statistics.median(reference.timed() for _ in range(5))))
