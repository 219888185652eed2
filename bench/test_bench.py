"""Smoke test of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench/test_bench.py

Runs one tiny command per workload, untraced and traced, and checks that
every metric BENCHMARK.json names is emitted with its unit.
"""

import gzip
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {"verify": "verify gm2", "witness": "q-support gm2 1,1",
        "enumerate": "count fs3 30,30,30"}


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
def test_every_metric_is_emitted_with_its_unit(tmp_path, traced):
    package, cli = run.import_package()
    paths = inputs.write_inputs(inputs.picks_for_seed(0), str(tmp_path))
    defined = workloads.build(run.ROOT, paths)
    spec = run.load_spec()
    named = spec["per_layer" if traced else "end_to_end"]
    for name, label in TINY.items():
        workload = defined[name]
        workload.commands = [c for c in workload.commands if c.label == label]
        span_path = str(tmp_path / f"spans-{name}.csv.gz")
        measured = run.measure(cli, workload, run.load_digests(), 0, traced,
                               lambda s: None, span_path, package, spec, paths)
        result = run.result_line(spec, [("", *measured)])
        assert result["correct"] and result["failed"] == 0
        # warm-up, a timed pass and, when traced, a traced pass
        assert result["attempted"] == (3 if traced else 2) * len(workload.commands)
        assert {m: v["unit"] for m, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in named}
        if traced:
            bound = [m for n, m in sys.modules.items() if n.startswith("rankshift")]
            for fnames in spans.TRACED.values():
                for mod in bound:
                    for fname in fnames:
                        fn = getattr(mod, fname, None)
                        assert not hasattr(fn, "__wrapped__"), (mod, fname)
            with gzip.open(span_path, "rt") as fh:
                header = fh.readline().strip().split(",")
            assert header[2:] == ["name", "start", "end", "parent",
                                  "workload", "command"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_circulant_pools_hold_valid_generator_pairs():
    pools = inputs.family_pools()
    assert all(len(members) == inputs.POOL_SIZE for _, members in pools.values())
    assert inputs.CIRC24_GENERATORS in inputs.passing_pairs(24)
