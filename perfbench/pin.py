"""Write pins.json: verify check counts and stdout digests for the default seed.

Usage: python3 perfbench/pin.py

Run it only on a tree whose outputs are known to be right; the benchmark's
correctness gate compares every later run against these pins.
"""

from __future__ import annotations

import json

from gate import sha256, verify_rows
from run import BENCH_DIR, polygram_cmd, spawn
from workloads import DEFAULT_SEED, SETUP_JOB, WORKLOADS, groups_for


def main() -> int:
    pins: dict[str, dict] = {"checks": {}, "sha256": {}}
    jobs = [SETUP_JOB] + [j for w in WORKLOADS for g in groups_for(w, DEFAULT_SEED) for j in g]
    for job in jobs:
        out = spawn(polygram_cmd(job.argv))
        if out.returncode != 0:
            raise SystemExit(f"{job.id}: exit {out.returncode}\n{out.stderr.decode()}")
        if job.kind == "verify":
            pins["checks"][job.id] = len(verify_rows(out.stdout.decode()))
        else:
            pins["sha256"][job.id] = sha256(out.stdout)
    (BENCH_DIR / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    print(f"pinned {len(pins['checks'])} check counts and {len(pins['sha256'])} digests")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
