"""One timed pass over a workload, in a fresh process.

    python3 -I bench/pass_probe.py <workload> <JSON of input name -> path> <label>...

Runs the workload's commands with the given labels once, each timed with
the reference around and inside it (``reference.Gauge``), hashing stdout as
it streams and keeping none of it, and checks each exit code and digest
against ``digests.json``.  Prints one JSON line with ``times`` and ``refs``
(seconds per command), ``peak_rss_mb`` (this process's peak RSS),
``attempted``, ``failed`` and ``problems``.

Every timed pass runs in a process of its own: a command's time relative
to the reference stays within about 3% in one process but differs by
5-13% between processes, which the medians over many fresh processes
average out (see "Noise" in README.md).
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from run import ROOT, workloads  # noqa: E402


def peak_rss_mb() -> float:
    """This process's peak RSS, from ``VmHWM`` in /proc/self/status.

    Not ``ru_maxrss``: Linux carries that across exec, so a child would
    report its parent's RSS when that is higher.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    name, paths, labels = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3:]
    _, cli = run.import_package()
    workload = workloads.build(ROOT, paths)[name]
    workload.commands = [c for c in workload.commands if c.label in labels]
    one = run.Run(cli, workload, run.load_digests())
    times, refs = one.gauged_pass()
    print(json.dumps({"times": times, "refs": refs, "peak_rss_mb": peak_rss_mb(),
                      "attempted": one.attempted, "failed": one.failed,
                      "problems": one.problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
