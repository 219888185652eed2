"""Record the exit code and stdout digest of every benchmark command.

    python3 bench/record_digests.py

Runs every command of every workload once for every pool member of the
seeded input families and writes ``bench/digests.json``.  Run it only on a
commit whose output is the reference: the benchmark fails any command whose
output differs from what is recorded here.
"""

import json
import os
import sys

import run
from run import BENCH, OUT, ROOT, inputs, workloads


def main() -> int:
    _, cli = run.import_package()
    table = {}
    for i in range(inputs.POOL_SIZE):
        picks = {name: i for name in inputs.FAMILIES}
        paths = inputs.write_inputs(picks, os.path.join(OUT, f"inputs-pool{i}"))
        for workload in workloads.build(ROOT, paths).values():
            for cmd in workload.commands:
                if cmd.key in table:
                    continue
                _, code, digest, _ = run.run_command(cli, cmd)
                table[cmd.key] = {"label": cmd.label, "exit": code, "sha256": digest}
                print(f"{code} {digest[:12]} {cmd.key}", flush=True)
    with open(os.path.join(BENCH, "digests.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
