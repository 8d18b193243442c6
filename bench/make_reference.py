"""Rewrite bench/reference.json: report digests of every command at the default seed.

    python3 bench/make_reference.py

Run it only when a change to the CLI's report bytes is intended; the
benchmark counts any report that differs from these digests as failed.
"""

from __future__ import annotations

import json

from run import REFERENCE, Runner
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> None:
    digests = {}
    for workload in WORKLOADS:
        with Runner(workload, DEFAULT_SEED) as runner:
            _, outcomes = runner.run_pass(False)
        failed = [o.label for o in outcomes if not o.ok]
        if failed:
            raise SystemExit(f"{workload}: failed commands {failed}")
        digests[workload] = {o.label: o.digest for o in outcomes}
        for o in outcomes:
            print(f"{workload:10} {o.label:22} {o.wall:7.3f} s  setup {o.setup:6.3f} s  {o.digest[:12]}")
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=2) + "\n")


if __name__ == "__main__":
    main()
