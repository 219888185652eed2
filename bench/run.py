"""Benchmark of the rankshift CLI, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

``--workload`` is ``verify``, ``witness``, ``enumerate`` or ``all``.  The
seed selects the generated inputs (see ``inputs.py``).  Each workload is a
fixed list of CLI commands run one after another in a single-threaded
process through ``rankshift.cli.main(argv)``.  One untimed warm-up pass
runs first, in this process, and its output is checked in full; timed
passes then repeat as long as another one fits in ``--seconds`` (at least
one runs).  Every command's exit code and stdout digest are checked on
every pass against ``digests.json``, recorded on the commit that added the
benchmark.

With ``--trace 0`` each timed pass runs in a fresh process of its own
(``pass_probe.py``), one after another, and the end-to-end metrics are
reported: ``setup_s`` (median over fresh interpreters, spread evenly over
the run, of importing rankshift and loading every input file),
``batch_ref`` (median pass time) and ``slowest_cmd_ref`` (median over
passes of the slowest command), both in multiples of the reference
workload timed around and inside each command (see ``reference.py``), and
``peak_rss_mb`` (median over the passes' processes of their peak RSS).  The
same times in seconds are printed for people.  The metric names and units
are read from ``BENCHMARK.json``.  With ``--trace 1`` untraced and traced
passes alternate in this process and the per-layer metrics come from the
traced ones; the spans are written to
``.bench_out/spans-<workload>-seed<seed>.csv.gz``.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 24  # fresh interpreters per run, spread evenly over the run

# workload -> (layer times that should dominate its traced pass, least share)
SPLITS = {
    "verify": (["verify.check_h1_oracle.s"], 0.90),
    "witness": (["completion.extend_unit.s", "core.translates_agree.s"], 0.80),
    "enumerate": (["af_core.bratteli.s", "completion.grid.s"], 0.80),
}

sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class HashSink(io.TextIOBase):
    """A text stream that hashes what is written; optionally keeps it."""

    def __init__(self, keep: bool = False):
        self.hash = hashlib.sha256()
        self.parts: list[str] | None = [] if keep else None

    def writable(self):
        return True

    def write(self, s):
        self.hash.update(s.encode())
        if self.parts is not None:
            self.parts.append(s)
        return len(s)

    def lines(self) -> list[str]:
        return "".join(self.parts).splitlines()


def run_command(cli, cmd, keep: bool = False):
    """Run one command; returns (seconds, exit code, stdout digest, sink)."""
    out, err = HashSink(keep), HashSink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = perf_counter()
    try:
        code = cli.main(cmd.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed command, not a dead benchmark
        code = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = perf_counter() - t0
        sys.stdout, sys.stderr = saved
    return elapsed, code, out.hash.hexdigest(), out


def load_digests() -> dict:
    with open(os.path.join(BENCH, "digests.json")) as fh:
        return json.load(fh)


class Run:
    """Passes over one workload, with failure accounting."""

    def __init__(self, cli, workload, digests):
        self.cli = cli
        self.workload = workload
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _expect(self, cmd, code, digest) -> list[str]:
        want = self.digests.get(cmd.key)
        if want is None:
            return [f"no recorded digest for {cmd.key!r}"]
        if [code, digest] != [want["exit"], want["sha256"]]:
            return [f"exit {code} / stdout {digest[:12]}, recorded "
                    f"exit {want['exit']} / stdout {want['sha256'][:12]}"]
        return []

    def _account(self, cmd, errs):
        self.attempted += 1
        if errs:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems += [f"{cmd.label}: {e}" for e in errs]

    def warm_up(self):
        """Untimed pass whose output is checked in full."""
        for cmd in self.workload.commands:
            _, code, digest, sink = run_command(self.cli, cmd, keep=True)
            errs = self._expect(cmd, code, digest)
            try:
                errs += cmd.check(sink.lines(), code)
            except (ValueError, IndexError, KeyError) as exc:
                errs.append(f"output did not parse: {exc!r}")
            self._account(cmd, errs)

    def timed_pass(self, tracer=None) -> list[float]:
        """Times of each command."""
        times = []
        for i, cmd in enumerate(self.workload.commands):
            if tracer is not None:
                tracer.set_command(i)
            elapsed, code, digest, _ = run_command(self.cli, cmd)
            self._account(cmd, self._expect(cmd, code, digest))
            times.append(elapsed)
        return times

    def gauged_pass(self) -> tuple[list[float], list[float]]:
        """Times of each command and of the reference over it (``Gauge``)."""
        times, refs = [], []
        for cmd in self.workload.commands:
            with reference.Gauge() as gauge:
                elapsed, code, digest, _ = run_command(self.cli, cmd)
            self._account(cmd, self._expect(cmd, code, digest))
            times.append(elapsed - gauge.spent)
            refs.append(gauge.seconds())
        return times, refs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _tail(values):
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n <= 10:
        return f"no percentile has ten samples beyond it (n={n})"
    pct = 100.0 * (n - 10) / n
    return f"p{pct:.1f} {sorted(values)[n - 11]:.4f} s"


def setup_probe(files: list[str]) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import rankshift and load files.

    Returns (seconds, the reference's time in the same interpreter).
    """
    probe = [sys.executable, "-I", os.path.join(BENCH, "setup_probe.py"), SRC]
    done = subprocess.run(probe + files, capture_output=True, text=True,
                          timeout=60, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
    seconds, ref = done.stdout.split()[-2:]
    return float(seconds), float(ref)


class SetupProbes:
    """``SETUP_PROBES`` set-up probes spread evenly over ``seconds``.

    They run between timed passes, never beside one.

    The host runs this machine's CPUs faster or slower in phases of seconds
    to minutes, so probes taken back to back would all land in one phase.
    """

    def __init__(self, files: list[str], seconds: float):
        self.files = files
        self.seconds = seconds
        self.start = perf_counter()
        self.times: list[tuple[float, float]] = []

    def run_due(self):
        """Run the probes whose even share of the run has elapsed."""
        if self.seconds <= 0:
            return
        share = (perf_counter() - self.start) / self.seconds
        while len(self.times) < min(SETUP_PROBES, SETUP_PROBES * share):
            self.times.append(setup_probe(self.files))

    def finish(self) -> list[tuple[float, float]]:
        while len(self.times) < SETUP_PROBES:
            self.times.append(setup_probe(self.files))
        return self.times


def pass_probe(workload, paths: dict[str, str], run):
    """One gauged pass in a fresh process (``pass_probe.py``).

    Returns (command seconds, reference seconds, peak RSS in MB); the
    commands count as attempted (and failed) in ``run``.
    """
    probe = [sys.executable, "-I", os.path.join(BENCH, "pass_probe.py"),
             workload.name, json.dumps(paths)]
    probe += [c.label for c in workload.commands]
    done = subprocess.run(probe, capture_output=True, text=True, timeout=150,
                          cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"pass probe failed: {done.stderr.strip()}")
    report = json.loads(done.stdout.splitlines()[-1])
    run.attempted += report["attempted"]
    run.failed += report["failed"]
    run.problems += report["problems"]
    return report["times"], report["refs"], report["peak_rss_mb"]


def measure(cli, workload, digests, seconds: float, traced: bool, say,
            span_path: str, package, spec: dict, paths: dict[str, str]):
    """Warm up, then time passes for ``seconds``; returns (run, metrics)."""
    run = Run(cli, workload, digests)
    labels = [c.label for c in workload.commands]
    out: dict[str, float] = {}
    files = workload.files()
    if not traced:
        setup_probe(files)  # untimed: fills the bytecode and file caches
    run.warm_up()

    plain: list[list[float]] = []
    refs: list[list[float]] = []
    rss: list[float] = []
    traced_passes: list[list[float]] = []
    tracers: list[spans.Tracer] = []
    setup = SetupProbes(files, 0 if traced else seconds)
    start = perf_counter()
    while True:
        t0 = perf_counter()
        if traced:
            plain.append(run.timed_pass())
            tracer = spans.Tracer()
            with tracer.installed(package):
                traced_passes.append(run.timed_pass(tracer))
            tracers.append(tracer)
        else:
            times, around, peak = pass_probe(workload, paths, run)
            plain.append(times)
            refs.append(around)
            rss.append(peak)
            setup.run_due()
        # stop before a pass that would end past the deadline
        now = perf_counter()
        if now + (now - t0) > start + seconds:
            break

    batches = [sum(p) for p in plain]
    batch = statistics.median(batches)
    q1, q3 = _quartiles(batches)
    say(f"  batch_s        {batch:.4f} s  (q1 {q1:.4f}, q3 {q3:.4f}, "
        f"{len(batches)} passes; {_tail(batches)})")
    say("  pass times     " + " ".join(f"{b:.3f}" for b in batches))
    if not traced:
        setup_times = setup.finish()
        scaled = [[t / r for t, r in zip(p, rs)] for p, rs in zip(plain, refs)]
        slow = [max(p) for p in scaled]
        worst = statistics.mode(labels[p.index(max(p))] for p in scaled)
        out["setup_s"] = statistics.median(
            t * reference.NOMINAL_S / r for t, r in setup_times)
        out["batch_ref"] = statistics.median(sum(p) for p in scaled)
        out["slowest_cmd_ref"] = statistics.median(slow)
        out["peak_rss_mb"] = statistics.median(rss)
        ref_ms = statistics.median(r for rs in refs for r in rs) * 1e3
        say(f"  slowest_cmd_s  {statistics.median(max(p) for p in plain):.4f} s")
        say(f"  reference      {ref_ms:.4f} ms  (median over commands)")
        for key in ("batch_ref", "slowest_cmd_ref"):
            values = [sum(p) for p in scaled] if key == "batch_ref" else slow
            q1, q3 = _quartiles(values)
            say(f"  {key:14s} {out[key]:.2f} ref  (q1 {q1:.2f}, q3 {q3:.2f})")
        say(f"  slowest        mostly {worst}")
        raw = statistics.median(t for t, _ in setup_times)
        say(f"  setup_s        {out['setup_s']:.4f} s  (median of "
            f"{len(setup_times)} fresh interpreters, at a reference time of "
            f"{reference.NOMINAL_S * 1e3:g} ms; {raw:.4f} s as measured)")
        say(f"  peak_rss_mb    {out['peak_rss_mb']:.1f} MB  (median over the "
            f"passes' processes, {min(rss):.1f}-{max(rss):.1f})")
    else:
        counts = [t.counts for t in tracers]
        if any(c != counts[0] for c in counts):
            run.problems.append("work counts differ between traced passes")
        out.update(layer_metrics(spec["per_layer"],
                                 [t.layer_times() for t in tracers], counts[0]))
        with spans.open_span_file(span_path) as fh:
            for i, t in enumerate(tracers):
                t.write(fh, i, workload.name, labels)
        traced_batch = statistics.median(sum(p) for p in traced_passes)
        out["trace.overhead_s"] = traced_batch - batch
        say(f"  traced batch_s {traced_batch:.4f} s  "
            f"({len(traced_passes)} traced passes)")
        for m in spec["per_layer"]:
            say(f"  {m['name']:40s} {out[m['name']]:.6g} {m['unit']}")
        keys, least = SPLITS[workload.name]
        share = sum(out[k] for k in keys) / traced_batch
        say(f"  layer split    {' + '.join(keys)} = {share:.1%} of the traced "
            f"pass (expected at least {least:.0%})")
        say(f"  spans written to {os.path.relpath(span_path, ROOT)}")
    ratio = run.failed / run.attempted
    say(f"  failed_ratio   {ratio:g}  ({run.failed} of {run.attempted} commands)")
    for p in run.problems:
        say(f"  problem: {p}")
    return run, out


def layer_metrics(per_layer: list[dict], layers: list[dict[str, float]],
                  counts: dict[str, int]):
    """Per-layer metrics: median times over traced passes, exact counts."""
    out: dict[str, float] = {}
    for m in per_layer:
        name, unit = m["name"], m["unit"]
        if unit == "s" and name != "trace.overhead_s":
            out[name] = statistics.median(l.get(name, 0.0) for l in layers)
        elif unit == "count":
            out[name] = counts.get(name, 0)

    def per(time_key, count_key):
        n = out[count_key]
        return out[time_key] / n * 1e9 if n else 0.0

    out["completion.grid.ns_per_word"] = per("completion.grid.s",
                                             "completion.grid.words")
    out["completion.extend_unit.ns_per_cell"] = per(
        "completion.extend_unit.s", "completion.extend_unit.cells")
    out["core.translates_agree.ns_per_cell"] = per(
        "core.translates_agree.s", "core.translates_agree.overlap_cells")
    return out


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_line(spec, measured) -> dict:
    """The final JSON object from (metric prefix, Run, values) triples."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for prefix, run, values in measured:
        result["attempted"] += run.attempted
        result["failed"] += run.failed
        result["correct"] = result["correct"] and not run.problems
        for key, value in values.items():
            result["metrics"][prefix + key] = {"value": value, "unit": units[key]}
    return result


def import_package():
    """Import rankshift from this checkout's src/, or exit 2."""
    needed = [os.path.join(SRC, "rankshift", "__init__.py"),
              os.path.join(ROOT, "samples", "gm2.json")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        sys.exit(f"error: not a rankshift checkout, missing {missing}")
    sys.path.insert(0, SRC)
    import rankshift
    from rankshift import cli
    if os.path.dirname(os.path.abspath(rankshift.__file__)) != \
            os.path.join(SRC, "rankshift"):
        sys.exit(f"error: imported rankshift from {rankshift.__file__}")
    return rankshift, cli


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]] + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package, cli = import_package()
    picks = inputs.picks_for_seed(args.seed)
    paths = inputs.write_inputs(picks, os.path.join(OUT, f"inputs-seed{args.seed}"))
    defined = workloads.build(ROOT, paths)
    names = list(defined) if args.workload == "all" else [args.workload]
    digests = load_digests()

    measured = []
    for name in names:
        print(f"workload {name}, seed {args.seed} (pool picks {picks}), "
              f"trace {args.trace}:", flush=True)
        span_path = os.path.join(OUT, f"spans-{name}-seed{args.seed}.csv.gz")
        run, values = measure(cli, defined[name], digests, args.seconds,
                              bool(args.trace), lambda s: print(s, flush=True),
                              span_path, package, spec, paths)
        prefix = f"{name}." if args.workload == "all" else ""
        measured.append((prefix, run, values))
    result = result_line(spec, measured)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
