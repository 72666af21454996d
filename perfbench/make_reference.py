"""
Regenerate perfbench/reference.json, the output digests every benchmark
op is checked against.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known good: the stored digests
define correctness for every later run.  Each workload's ops run once, in
canonical order, in a fresh worker process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import ROOT, WORKER, child_env  # noqa: E402
from worker import REFERENCE, WORKLOADS  # noqa: E402


def main() -> int:
    reference = {}
    for name in sorted(WORKLOADS):
        out = subprocess.run(
            [sys.executable, "-I", WORKER, "--workload", name, "--seed", "0", "--reference"],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        ).stdout
        reference[name] = json.loads(out.strip().splitlines()[-1])
        print(f"{name}: {len(reference[name])} ops", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
