import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from knightian import cli


def invoke(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


KNIGHT_CLASSICAL = {
    "classical": {
        "n": 2,
        "generators": [
            ["0.9", "0.1"],
            ["0.8", "0.2"],
            ["0.7", "0.3"],
            ["0.6", "0.4"],
            ["0.5", "0.5"],
        ],
    },
    "event": [1],
}


def test_knight_interval_over_the_cli(tmp_path, capsys):
    config = write_config(tmp_path, KNIGHT_CLASSICAL)
    report = invoke_json(capsys, "freestate", "interval", "--config", config)
    assert report["result"] == {
        "lo": 0.1,
        "hi": 0.5,
        "lo_exact": "1/10",
        "hi_exact": "1/2",
    }
    assert report["machine_version"] == "toyvm-1"
    assert report["artifact_version"]
    assert report["config"] == KNIGHT_CLASSICAL


def test_chsh_classical_report_and_csv(tmp_path, capsys):
    report = invoke_json(capsys, "gadgets", "chsh-classical")
    assert report["result"]["value"] == {"exact": "3/4", "float": 0.75}
    code, out, err = invoke(capsys, "gadgets", "chsh-classical", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a0,a1,b0,b1,value"
    assert len(lines) == 17
    assert lines[1] == "0,0,0,0,3/4"


def test_unknown_config_key_is_named(tmp_path, capsys):
    config = write_config(tmp_path, {"policy": "one-box", "accuracy": 1, "oops": 3})
    code, out, err = invoke(capsys, "gadgets", "newcomb", "--config", config)
    assert code == 1
    assert "oops" in err


def test_missing_required_key(tmp_path, capsys):
    config = write_config(tmp_path, {"policy": "one-box"})
    code, out, err = invoke(capsys, "gadgets", "newcomb", "--config", config)
    assert code == 1
    assert "accuracy" in err


def test_usage_error_exits_one(capsys):
    code, out, err = invoke(capsys, "gadgets", "no-such-command")
    assert code == 1
    assert "no-such-command" in err
    code, out, err = invoke(capsys, "nonsense")
    assert code == 1


def test_csv_rejected_where_not_tabular(tmp_path, capsys):
    config = write_config(tmp_path, {"variant": 1})
    code, out, err = invoke(capsys, "gadgets", "bostrom", "--config", config, "--format", "csv")
    assert code == 1
    assert "csv" in err


def test_reports_are_byte_identical(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "subject": "parrot",
            "predictor": {"kind": "table"},
            "game": {
                "t": 6,
                "u": 9,
                "epsilon": "0.05",
                "delta": "0.05",
                "trials": 12,
                "input_model": {"kind": "fixed", "bits": "0011"},
            },
        },
    )
    first = invoke(capsys, "arena", "run", "--config", config, "--seed", "42")
    second = invoke(capsys, "arena", "run", "--config", config, "--seed", "42")
    assert first == second
    assert first[0] == 0
    report = json.loads(first[1])
    assert report["seed"] == 42
    assert report["result"]["verdict"]["passed"] is True


def test_arena_requires_seed(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "subject": "parrot",
            "predictor": {"kind": "table"},
            "game": {"t": 4, "u": 6, "epsilon": "0.1", "delta": "0.1", "trials": 4},
        },
    )
    code, out, err = invoke(capsys, "arena", "run", "--config", config)
    assert code == 1
    assert "--seed" in err


def test_out_flag_writes_the_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    config = write_config(tmp_path, {"bound": 12})
    code, _, _ = invoke(
        capsys, "solomonoff", "omega", "--config", config, "--out", str(out_path)
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["result"]["omega"]["exact"] == "7/8"


def test_solomonoff_predict_fresh(tmp_path, capsys):
    config = write_config(tmp_path, {"bound": 16, "history": ""})
    report = invoke_json(capsys, "solomonoff", "predict", "--config", config)
    assert report["result"]["p_next_one"]["exact"] == "1/2"


def test_solomonoff_predict_snapshot(tmp_path, capsys):
    config = write_config(tmp_path, {"bound": 12, "history": "0", "snapshot": True})
    report = invoke_json(capsys, "solomonoff", "predict", "--config", config)
    snapshot = report["result"]["mixture"]
    assert len(snapshot) == 127
    assert {"program", "prior", "posterior"} <= set(snapshot[0])


def test_classical_or_over_the_cli(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "classicals": [
                {"n": 2, "generators": [["0.9", "0.1"]]},
                {"n": 2, "generators": [["0.8", "0.2"], ["0.7", "0.3"]]},
                {"n": 2, "generators": [["0.6", "0.4"], ["0.5", "0.5"]]},
            ]
        },
    )
    report = invoke_json(capsys, "freestate", "or", "--config", config)
    merged = report["result"]["classical"]
    assert merged["n"] == 2
    assert len(merged["generators"]) == 5
    assert merged["generators"][0] == ["9/10", "1/10"]


def test_solomonoff_regret_csv(tmp_path, capsys):
    from knightian import toyvm as tv

    q = tv.from_body(tv.QUOTE + "00").code
    config = write_config(
        tmp_path, {"bound": 12, "q": q, "sequence": "00", "eps": ["0.5"]}
    )
    code, out, err = invoke(
        capsys, "solomonoff", "regret", "--config", config, "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "step,bit,p_U,p_Q,ratio,cum_ratio"
    assert len(lines) == 3
    assert lines[2].endswith("1/896")


def test_solomonoff_diagonal(tmp_path, capsys):
    config = write_config(tmp_path, {"bound": 16, "n": 8})
    report = invoke_json(capsys, "solomonoff", "diagonal", "--config", config)
    assert report["result"]["bits"] == "10000111"


EMIT_ZERO_Q = "00111001100"  # QUOTE "00", the hypothesis of the regret test above
PROJECTOR_0 = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
QUBIT_0 = {"dim": 2, "generators": [PROJECTOR_0]}
QUBIT_MIXED = {"dim": 2, "generators": [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}
WITNESS = {"freestate_a": QUBIT_0, "freestate_b": QUBIT_MIXED}
REGRET = {"bound": 12, "q": EMIT_ZERO_Q, "sequence": "00"}
GAME = {"t": 4, "u": 6, "epsilon": "0.1", "delta": "0.1", "trials": 2}
RUN = {"subject": "parrot", "predictor": {"kind": "table"}, "game": GAME}
CLASSIFY = {
    "class": ["parrot"],
    "predictors": [{"kind": "table"}],
    "schedule": [[2, "0.1", "0.1"]],
    "trials": 2,
    "horizon": 6,
}
NEWCOMB = {"policy": "one-box", "accuracy": "0.9"}
CAUSAL_GRAPH = {
    "nodes": [{"id": "f", "kind": "micro", "time": 0}, {"id": "F", "kind": "macro", "time": 1}],
    "edges": [["F", "f"]],
}


# The name predates the other four groups; it is kept so the solomonoff ids stay stable.
@pytest.mark.parametrize(
    "command, config, key",
    [
        (("solomonoff", "predict"), {"bound": 12, "history": 5}, "history"),
        (("solomonoff", "predict"), {"bound": 12, "history": "01x"}, "history"),
        (("solomonoff", "predict"), {"bound": "12", "history": ""}, "bound"),
        (("solomonoff", "predict"), {"bound": True, "history": ""}, "bound"),
        (("solomonoff", "predict"), {"bound": 12.0, "history": ""}, "bound"),
        (("solomonoff", "predict"), {"bound": 12, "history": "", "snapshot": "yes"}, "snapshot"),
        (("solomonoff", "predict"), {"bound": 12, "history": "", "step_budget": "64"}, "step_budget"),
        (("solomonoff", "regret"), {"bound": 12, "q": 5, "sequence": "00", "eps": []}, "q"),
        (("solomonoff", "regret"), {**REGRET, "sequence": 0, "eps": []}, "sequence"),
        (("solomonoff", "regret"), {**REGRET, "eps": "1/2"}, "eps"),
        (("solomonoff", "regret"), {**REGRET, "eps": ["half"]}, "eps"),
        (("solomonoff", "regret"), {**REGRET, "eps": [False]}, "eps"),
        (("solomonoff", "diagonal"), {"bound": 12, "n": 8.5}, "n"),
        (("solomonoff", "omega"), {"bound": "20"}, "bound"),
        (("soph", "k"), {"x": 7, "bound": 12}, "x"),
        (("soph", "k"), {"x": "0", "bound": 12.9}, "bound"),
        (("soph", "table"), {"lengths": ["2"], "cs": [6], "bound": 12}, "lengths"),
        (("soph", "kset"), {"elements": "01", "bound": 12}, "elements"),
        (("arena", "run"), {**RUN, "game": {**GAME, "trials": 2.7}}, "trials"),
        (("arena", "run"), {**RUN, "predictor": {"kind": "table", "oops": 1}}, "predictor"),
        (("arena", "classify"), {**CLASSIFY, "schedule": [[2.5, "0.1", "0.1"]]}, "schedule"),
        (("gadgets", "bostrom"), {"variant": "1"}, "variant"),
        (("gadgets", "bostrom"), {"variant": True}, "variant"),
        (("gadgets", "newcomb"), {**NEWCOMB, "box_one": 1.5}, "box_one"),
        (("gadgets", "causal"), {**CAUSAL_GRAPH, "check_disjoint_macro": "no"}, "check_disjoint_macro"),
        (("freestate", "interval"), {**KNIGHT_CLASSICAL, "event": ["1"]}, "event"),
        (("freestate", "witness"), {**WITNESS, "restarts": 2.5}, "restarts"),
    ],
    ids=lambda value: value[1] if isinstance(value, tuple) else None,
)
def test_solomonoff_config_types_are_strict(tmp_path, capsys, command, config, key):
    path = write_config(tmp_path, config)
    code, out, err = invoke(capsys, *command, "--config", path, "--seed", "1")
    assert code == 1, err
    assert repr(key) in err


ROOM_PUZZLE = {
    "prior_heads": "1/2",
    "copies_if_heads": 2,
    "copies_if_tails": 1,
    "heads_colors": ["blue", "white"],
    "tails_colors": ["white"],
    "observed_color": "white",
    "counting_rule": "branch-weighted",
}
CLASSICAL = KNIGHT_CLASSICAL["classical"]
MACHINE = {"step_budget": 64, "rand_budget": 4, "output_budget": 8}
BAYES = {"kind": "bayes", "name": "b", "family": ["parrot", "fair-coin"]}
GAME_OPTIONS = {"input_model": {"kind": "uniform"}, "adversary": "oblivious"}
# one cheap config per command (both sides of each either/or), every optional key set
GOOD_CONFIGS = [
    ("freestate", "interval", KNIGHT_CLASSICAL),
    ("freestate", "interval", {"freestate": QUBIT_0, "effect": {"dim": 2, "entries": PROJECTOR_0}}),
    ("freestate", "witness", {**WITNESS, "tol": 1e-6, "restarts": 4}),
    ("freestate", "or", {"classicals": [CLASSICAL, CLASSICAL]}),
    ("freestate", "or", {"freestates": [QUBIT_0, QUBIT_MIXED]}),
    ("freestate", "mix", {"components": [{"weight": "1", "classical": CLASSICAL}]}),
    ("freestate", "mix", {"components": [{"weight": 1, "freestate": QUBIT_0}]}),
    ("freestate", "clone-check", {"psi": [[1, 0], [0, 0]], "phi": [[0, 0], [1, 0]]}),
    ("solomonoff", "predict", {"bound": 12, "history": "0", "snapshot": True, **MACHINE}),
    ("solomonoff", "regret", {**REGRET, "eps": ["1/2"]}),
    ("solomonoff", "diagonal", {"bound": 12, "n": 2}),
    ("solomonoff", "omega", {"bound": 12}),
    ("soph", "k", {"x": "0", "bound": 12}),
    ("soph", "kset", {"elements": ["0", "1"], "bound": 12}),
    ("soph", "soph", {"x": "0", "c": 1, "bound": 12}),
    ("soph", "table", {"lengths": [1], "cs": [1], "bound": 12}),
    ("arena", "run", {**RUN, "predictor": BAYES, "game": {**GAME, **GAME_OPTIONS}}),
    ("arena", "classify", {**CLASSIFY, "input_model": {"kind": "fixed", "bits": "01"}}),
    ("gadgets", "chsh-classical", {}),
    ("gadgets", "chsh-quantum", {"alice": [0.2, 0.2], "bob": [0.2, 0.2]}),
    ("gadgets", "bostrom", {"variant": 1}),
    ("gadgets", "bostrom", ROOM_PUZZLE),
    ("gadgets", "newcomb", {**NEWCOMB, "box_one": 10, "box_two": 1}),
    ("gadgets", "causal", {**CAUSAL_GRAPH, "check_disjoint_macro": False}),
]


def test_good_configs_cover_every_command():
    assert {(group, command) for group, command, _ in GOOD_CONFIGS} == set(cli.COMMANDS)


@pytest.mark.parametrize("group, command, config", GOOD_CONFIGS)
def test_every_config_key_is_typed(tmp_path, capsys, group, command, config):
    argv = [group, command, "--seed", "1", "--config"]
    code, out, err = invoke(capsys, *argv, write_config(tmp_path, config))
    assert code == 0, err
    for key in config:
        code, out, err = invoke(capsys, *argv, write_config(tmp_path, {**config, key: None}))
        assert (code, repr(key) in err) == (1, True), (key, err)


def test_missing_nested_key_is_named(tmp_path, capsys):
    game = {k: v for k, v in GAME.items() if k != "trials"}
    path = write_config(tmp_path, {**RUN, "game": game})
    code, out, err = invoke(capsys, "arena", "run", "--config", path, "--seed", "1")
    assert code == 1, err
    assert "missing key(s) in config['game']: 'trials'" in err


def test_unknown_stock_subject_is_named(tmp_path, capsys):
    for config in (
        {**RUN, "subject": "nope"},
        {**RUN, "predictor": {"kind": "bayes", "family": ["nope"]}},
    ):
        path = write_config(tmp_path, config)
        code, out, err = invoke(capsys, "arena", "run", "--config", path, "--seed", "1")
        assert code == 1, err
        assert "unknown stock subject 'nope'; have ['fair-coin', 'gerbil', 'parrot']" in err


def test_arena_trials_guard_over_the_cli(tmp_path, capsys):
    for command, config in (
        ("run", {**RUN, "game": {**GAME, "trials": 1030}}),
        ("classify", {**CLASSIFY, "trials": 1030}),
    ):
        path = write_config(tmp_path, config)
        code, out, err = invoke(capsys, "arena", command, "--config", path, "--seed", "1")
        assert code == 1, err
        assert "trials" in err


def test_importing_the_cli_leaves_scipy_unloaded():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, knightian.cli; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_soph_subcommands(tmp_path, capsys):
    report = invoke_json(
        capsys, "soph", "k", "--config", write_config(tmp_path, {"x": "010101", "bound": 20})
    )
    assert report["result"]["value"] == 16
    report = invoke_json(
        capsys,
        "soph",
        "kset",
        "--config",
        write_config(
            tmp_path,
            {"elements": ["000", "001", "010", "011", "100", "101", "110", "111"], "bound": 20},
            "kset.json",
        ),
    )
    assert report["result"]["value"] == 14
    report = invoke_json(
        capsys,
        "soph",
        "soph",
        "--config",
        write_config(tmp_path, {"x": "011010", "c": 3, "bound": 20}, "soph.json"),
    )
    assert report["result"]["value"] == 14
    assert report["result"]["k_of_x"] == 17


def test_soph_table_csv(tmp_path, capsys):
    config = write_config(tmp_path, {"lengths": [2], "cs": [6], "bound": 20})
    code, out, err = invoke(capsys, "soph", "table", "--config", config, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,k,soph_6"
    assert len(lines) == 5


def test_freestate_witness_cli(tmp_path, capsys):
    import numpy as np

    from knightian import freestate as fs

    payload_a = fs.freestate_to_payload(fs.Freestate(2, (fs.ket("0").projector(),)))
    payload_b = fs.freestate_to_payload(fs.Freestate(2, (fs.maximally_mixed(2),)))
    config = write_config(tmp_path, {"freestate_a": payload_a, "freestate_b": payload_b})
    report = invoke_json(capsys, "freestate", "witness", "--config", config, "--seed", "1")
    assert report["result"]["kind"] == "pure"
    assert report["result"]["gap"] == pytest.approx(0.5, abs=1e-6)


def test_freestate_clone_check_cli(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {"psi": [[1, 0], [0, 0]], "phi": [[0.7071067811865476, 0], [0.7071067811865476, 0]]},
    )
    report = invoke_json(capsys, "freestate", "clone-check", "--config", config)
    assert report["result"]["feasible"] is False


def test_freestate_mix_cli_matches_expansion(tmp_path, capsys):
    from knightian import freestate as fs

    a = fs.freestate_to_payload(
        fs.Freestate(2, (fs.ket("0").projector(), fs.ket("1").projector()))
    )
    b = fs.freestate_to_payload(
        fs.Freestate(2, (fs.ket("+").projector(), fs.ket("-").projector()))
    )
    config = write_config(
        tmp_path,
        {"components": [{"weight": "1/2", "freestate": a}, {"weight": "1/2", "freestate": b}]},
    )
    report = invoke_json(capsys, "freestate", "mix", "--config", config)
    assert len(report["result"]["freestate"]["generators"]) == 4


def test_quantum_interval_over_the_cli(tmp_path, capsys):
    from knightian import freestate as fs

    state = fs.Freestate(2, (fs.ket("0").projector(), fs.ket("1").projector()))
    effect = fs.Effect(2, fs.ket("0").projector().entries)
    config = write_config(
        tmp_path,
        {
            "freestate": fs.freestate_to_payload(state),
            "effect": fs.effect_to_payload(effect),
        },
    )
    report = invoke_json(capsys, "freestate", "interval", "--config", config)
    assert report["result"] == {"lo": 0.0, "hi": 1.0}


def test_quantum_or_over_the_cli(tmp_path, capsys):
    from knightian import freestate as fs

    a = fs.freestate_to_payload(fs.Freestate(2, (fs.ket("0").projector(),)))
    b = fs.freestate_to_payload(fs.Freestate(2, (fs.ket("1").projector(),)))
    config = write_config(tmp_path, {"freestates": [a, b]})
    report = invoke_json(capsys, "freestate", "or", "--config", config)
    assert len(report["result"]["freestate"]["generators"]) == 2


def test_chsh_quantum_over_the_cli(tmp_path, capsys):
    import math

    report = invoke_json(capsys, "gadgets", "chsh-quantum")
    assert report["result"]["value"] == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-9)
    config = write_config(tmp_path, {"alice": [0.2, 0.2], "bob": [0.2, 0.2]})
    report = invoke_json(capsys, "gadgets", "chsh-quantum", "--config", config)
    assert report["result"]["value"] == pytest.approx(0.75, abs=1e-9)


def test_arena_classify_over_the_cli(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "class": ["parrot"],
            "predictors": [{"kind": "table"}],
            "schedule": [[8, "0.05", "0.05"]],
            "trials": 12,
            "horizon": 12,
            "input_model": {"kind": "fixed", "bits": "0011"},
        },
    )
    report = invoke_json(capsys, "arena", "classify", "--config", config, "--seed", "3")
    assert report["result"]["label"] == "mechanistic-at-scale"


def test_internal_errors_exit_two(tmp_path, capsys, monkeypatch):
    def boom(config, seed):
        raise RuntimeError("wires crossed")

    key = ("gadgets", "chsh-classical")
    _, schema, csv_rows = cli.COMMANDS[key]
    monkeypatch.setitem(cli.COMMANDS, key, (boom, schema, csv_rows))
    code, out, err = invoke(capsys, "gadgets", "chsh-classical")
    assert code == 2
    assert "internal error" in err


def test_gadgets_causal_cli(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {
            "nodes": [
                {"id": "f", "kind": "micro", "time": 0},
                {"id": "F", "kind": "macro", "time": 1},
            ],
            "edges": [["F", "f"]],
        },
    )
    report = invoke_json(capsys, "gadgets", "causal", "--config", config)
    assert report["result"]["ok"] is True
    assert report["result"]["acyclic"] is True
