"""A fixed pure-Python reference workload, timed next to every command.

The host runs this machine's CPUs faster or slower in phases of a fraction
of a second to minutes (see "Noise" in README.md), and those phases move a
raw command time by 10-50% over a few minutes.  ``Gauge`` times the
reference just before a command, every ``INTERVAL`` seconds while it runs
(from a timer signal, in this same thread) and just after it; dividing the
command's time by the reference's gives its time in multiples of the
reference, which the host's phases move far less.

The reference does what the program's hot loops do -- tuple keys in a dict,
formatted lines hashed with SHA-256, big-integer additions -- and nothing of
the program itself, so no change to the program can change it.
"""

import hashlib
import signal
import statistics
from time import perf_counter

ROUNDS = 3  # runs of the reference just before and just after a command
INTERVAL = 0.05  # seconds between the reference's runs inside a command
# setup_s is given in seconds of a host on which one run of the reference
# takes this long, about the machine the benchmark was written on
NOMINAL_S = 0.001


def reference():
    counts: dict[tuple[int, int, int], int] = {}
    digest = hashlib.sha256()
    x, y = 1, 1
    for i in range(500):
        key = (i % 97, i >> 4, i & 7)
        counts[key] = counts.get(key, 0) + 1
        digest.update(f"shape={i},{i >> 2} cells={key}\n".encode())
        x, y = y, x + y
    return len(counts), digest.hexdigest(), x


def timed() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


class Gauge:
    """Times the reference around and inside the block it guards.

    ``with Gauge() as gauge:`` runs the reference ``ROUNDS`` times before
    the block and after it, and once every ``INTERVAL`` seconds inside it.
    ``gauge.spent`` is the time the runs inside took, to be taken off the
    block's time; ``gauge.seconds()`` is the mean of the middle three
    fifths of all the runs, which leaves out a run that a garbage
    collection or an interrupt happened to land in.
    """

    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        elapsed = timed()
        self.times.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self.times += [timed() for _ in range(ROUNDS)]
        self.handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.handler)
        self.times += [timed() for _ in range(ROUNDS)]
        return False

    def seconds(self) -> float:
        times = sorted(self.times)
        cut = len(times) // 5
        return statistics.fmean(times[cut:len(times) - cut])
