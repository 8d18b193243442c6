"""Self-checks of the benchmark itself.

    python3 -m pytest bench -q      # from the repository root

They run the ``quick`` workload traced twice (about half a minute).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from run import BENCH, END_TO_END, PER_LAYER, ROOT, Checker, Outcome, Runner, closure_problems, counts_of
from workloads import WORKLOADS, Command, commands


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_the_seed_alone_fixes_the_configs(workload):
    assert commands(workload, 5) == commands(workload, 5)
    assert commands(workload, 5) != commands(workload, 6)
    labels = [c.label for c in commands(workload, 5)]
    assert len(set(labels)) == len(labels)


@pytest.fixture(scope="module")
def traced_passes():
    with Runner("quick", 0) as runner:
        yield [runner.run_pass(True)[1] for _ in range(2)]


def test_traced_reports_match_the_reference(traced_passes):
    checker = Checker("quick", 0)
    for outcomes in traced_passes:
        checker.check(outcomes)
    assert checker.failed == 0


def test_trace_counts_repeat_exactly(traced_passes):
    first, second = (counts_of(outcomes) for outcomes in traced_passes)
    assert first == second
    assert first["predict-b16"]["spans"]["toyvm.run<toyvm.output_template"] > 0


def test_trace_self_times_close_on_the_wall_time(traced_passes):
    for outcomes in traced_passes:
        for o in outcomes:
            assert closure_problems(o) == [], o.label


def test_a_command_without_a_stored_digest_fails_at_the_default_seed():
    checker = Checker("quick", 0)
    checker.check([Outcome("not-in-reference", True, "0" * 64, 1.0, 1.0, 1, {"start": 0.0}, 0.0)])
    assert checker.failed == 1


def test_a_command_that_exits_nonzero_is_a_failure():
    with Runner("quick", 0) as runner:
        outcome = runner.spawn(Command("bad", "gadgets", "no-such-command"), False)
    assert not outcome.ok


# Known defects of the CLI, kept visible here until a change to src/ fixes
# them; strict, so the fix turns them into failures that ask for removal.


def _cli(argv, hash_seed="0"):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed}
    return subprocess.run(argv, env=env, capture_output=True, timeout=120)


@pytest.mark.xfail(strict=True, reason="cli.py has no __main__ guard: exits 0 and prints nothing")
def test_python_dash_m_runs_the_cli():
    done = _cli([sys.executable, "-m", "knightian.cli", "gadgets", "chsh-classical"])
    assert done.returncode == 0 and done.stdout


@pytest.mark.xfail(strict=True, reason="gadgets.causal_validate lists R2 violations in set order")
def test_causal_report_does_not_depend_on_the_hash_seed(tmp_path):
    two_r2 = {
        "nodes": [
            {"id": "a", "kind": "micro", "time": 1},
            {"id": "b", "kind": "micro", "time": 1},
            {"id": "c", "kind": "macro", "time": 0},
        ],
        "edges": [["a", "b"], ["b", "a"], ["c", "a"], ["c", "b"]],
    }
    config = tmp_path / "graph.json"
    config.write_text(json.dumps(two_r2))
    argv = [sys.executable, str(BENCH / "launch.py"), os.devnull, "0", "gadgets", "causal"]
    reports = {_cli(argv + ["--config", str(config)], seed).stdout for seed in ("0", "2")}
    assert len(reports) == 1
