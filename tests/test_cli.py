import atexit
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import STOCK_PAYLOADS, pushed_out_pair
from knightian import arena, cli, complexity as cx, toyvm
from knightian.errors import KnightianError
from knightian import classical as cl, cli_freestate, freestate as fs
import oracles


# every (group, command) pair, read off the group tables
ALL_COMMANDS = {(group, command) for group in cli.GROUPS for command in cli._commands(group)}


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
GERBIL = STOCK_PAYLOADS["gerbil"]  # every subject key set
COIN = STOCK_PAYLOADS["fair-coin"]


def timed_nodes(micro_time, macro_time):
    return [
        {"id": "f", "kind": "micro", "time": micro_time},
        {"id": "F", "kind": "macro", "time": macro_time},
    ]


CAUSAL_GRAPH = {"nodes": timed_nodes(0, 1), "edges": [["F", "f"]]}
NAN, INF = float("nan"), float("inf")
HUGE_CLASSICAL = {"n": 2, "generators": [["1e400", "0.1"]]}
BIG_INT_CLASSICAL = {"n": 2, "generators": [[10**400, 0]]}
CLASSICAL_ONE = {"n": 2, "generators": [["1", "0"]]}
NEGATIVE_CLASSICAL = {"n": 2, "generators": [["1", "0"], ["-1", "2"]]}
SKEW = [[[0, 0], [5, 0]], [[0, 0], [0, 0]]]  # off by 5 from its transpose
TRACE_TWO = [[[2, 0], [0, 0]], [[0, 0], [0, 0]]]
QUTRIT_0 = {"dim": 3, "generators": [[[[1, 0], [0, 0], [0, 0]], [[0, 0]] * 3, [[0, 0]] * 3]]}
QUANTUM_INTERVAL = {"freestate": QUBIT_0, "effect": {"dim": 2, "entries": PROJECTOR_0}}
ROOM_PUZZLE = {
    "prior_heads": "1/2",
    "copies_if_heads": 2,
    "copies_if_tails": 1,
    "heads_colors": ["blue", "white"],
    "tails_colors": ["white"],
    "observed_color": "white",
    "counting_rule": "branch-weighted",
}


def with_edge(payload, **changes):
    return {**payload, "edges": [{**payload["edges"][0], **changes}, *payload["edges"][1:]]}


def with_extra_edge(payload, **changes):
    return {**payload, "edges": [*payload["edges"], {**payload["edges"][0], **changes}]}


def table_run(context):
    return {**RUN, "predictor": {"kind": "table", "context": context}}


def game_ending_at(u):
    return {**RUN, "game": {**GAME, "t": u - 2, "u": u, "trials": 1}}


def classify_until(horizon):
    return {**CLASSIFY, "horizon": horizon, "schedule": [[horizon - 2, "0.1", "0.1"]]}


def fixed_table_game(**game):
    """A table game against the parrot on inputs 0011...

    Training sees every context, so the forecast is deterministic.
    """
    fixed = {"t": 8, "u": 10, "input_model": {"kind": "fixed", "bits": "0011"}}
    return {**RUN, "game": {**GAME, **fixed, **game}}


def mix_of_one_set_of(generators):
    # the guard bounds the product of the components' generator counts
    return {"components": [{"weight": "1", "classical": {"n": 2, "generators": [["1", "0"]] * generators}}]}


def table_of_cells(cells):
    # rows x (len(cs) + 1) cells, repeats counted: 16 or 17 columns, the rows in binary
    width = 16 if cells % 16 == 0 else 17
    rows, cs = cells // width, [0] * (width - 1)
    assert cells % width == 0 and rows < 2**17
    return {"lengths": [n for n in range(17) if rows >> n & 1], "cs": cs, "bound": 8}


def oblivious_gerbil_game(freebit_budget):
    # t = 2 leaves the gerbil's freebit, at step 2, out of training
    subject = {**GERBIL, "freebit_budget": freebit_budget}
    return {**RUN, "subject": subject, "game": {**GAME, "t": 2, "adversary": "oblivious"}}


REFUSED_CONFIGS = [
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
    # well typed, but each would divide by zero
    (("arena", "run"), {**RUN, "predictor": {"kind": "bayes", "family": []}}, "family"),
    (("arena", "run"), {**RUN, "game": {**GAME, "input_model": {"kind": "fixed", "bits": ""}}}, "bits"),
    (("gadgets", "newcomb"), {**NEWCOMB, "box_one": 0}, "box_one"),
    # json.load reads NaN and Infinity; a real must be finite, and fit a float
    (("freestate", "clone-check"), {"psi": [[NAN, 0], [0, 0]], "phi": [[0, 0], [1, 0]]}, "psi"),
    (("freestate", "witness"), {**WITNESS, "tol": NAN}, "tol"),
    (("freestate", "witness"), {**WITNESS, "tol": INF}, "tol"),
    (("gadgets", "chsh-quantum"), {"alice": [NAN, 0]}, "alice"),
    (("gadgets", "chsh-quantum"), {"bob": [10**400, 0]}, "bob"),
    # causal nodes and edges are typed, not cast: time 0.2 and 0.9 both truncated to 0
    (("gadgets", "causal"), {"nodes": timed_nodes(0.2, 0.9), "edges": [["f", "F"]]}, "time"),
    (("gadgets", "causal"), {**CAUSAL_GRAPH, "nodes": timed_nodes(0, INF)}, "time"),
    (("gadgets", "causal"), {**CAUSAL_GRAPH, "edges": [["F", "f", "x"]]}, "edges"),
    (("soph", "table"), {"lengths": [1000000], "cs": [1], "bound": 12}, "lengths"),
    # well typed, but each overflowed a float (exit 2): a generator, weight or box past float range
    (("freestate", "interval"), {**KNIGHT_CLASSICAL, "classical": HUGE_CLASSICAL}, "generators"),
    (("freestate", "interval"), {**KNIGHT_CLASSICAL, "classical": BIG_INT_CLASSICAL}, "generators"),
    (("freestate", "or"), {"classicals": [HUGE_CLASSICAL, HUGE_CLASSICAL]}, "generators"),
    (("freestate", "mix"), {"components": [{"weight": "1", "classical": BIG_INT_CLASSICAL}]}, "generators"),
    (("freestate", "mix"), {"components": [{"weight": "1e400", "classical": HUGE_CLASSICAL}]}, "generators"),
    (("freestate", "mix"), {"components": [{"weight": "1e400", "classical": KNIGHT_CLASSICAL["classical"]}]}, "weight"),
    (("freestate", "mix"), {"components": [{"weight": "1e400", "freestate": QUBIT_0}]}, "weight"),
    (("gadgets", "newcomb"), {**NEWCOMB, "box_one": 10**400}, "box_one"),
    (("gadgets", "newcomb"), {**NEWCOMB, "box_two": 10**400}, "box_two"),
    # well typed, but each ran out of memory (exit 2) or keyed on a truncated window (exit 0)
    (("solomonoff", "predict"), {"bound": 12, "history": "", "rand_budget": 10**18}, "rand_budget"),
    (("arena", "run"), table_run(10**18), "context"),
    (("arena", "run"), table_run(-3), "context"),
    # well typed, but out of range: the message names the key (a tuple: every one of them)
    (("arena", "run"), {**RUN, "game": {**GAME, "t": 6, "u": 4}}, ("t", "u")),
    (("arena", "run"), {**RUN, "game": {**GAME, "epsilon": "0"}}, "epsilon"),
    (("arena", "run"), {**RUN, "game": {**GAME, "delta": "1"}}, "delta"),
    (("arena", "run"), {**RUN, "game": {**GAME, "trials": 0}}, "trials"),
    (("arena", "run"), {**RUN, "subject": with_edge(COIN, emit={"prob": "3/2"})}, "prob"),
    (("solomonoff", "diagonal"), {"bound": 12, "n": 0}, "n"),
    (("solomonoff", "omega"), {"bound": -1}, "bound"),
    (("gadgets", "newcomb"), {**NEWCOMB, "accuracy": "2"}, "accuracy"),
    (("freestate", "interval"), {**KNIGHT_CLASSICAL, "event": [2]}, "event"),
    # an empty class still has its schedule checked
    (("arena", "classify"), {**CLASSIFY, "class": [], "horizon": 5, "schedule": [[9, "0.1", "0.1"]]}, "t"),
    # well typed, but too short: a label needs a game, a union two sets, a mixture a component
    (("arena", "classify"), {**CLASSIFY, "class": []}, "class"),
    (("arena", "classify"), {**CLASSIFY, "schedule": []}, "schedule"),
    (("freestate", "or"), {"classicals": [KNIGHT_CLASSICAL["classical"]]}, "classicals"),
    (("freestate", "or"), {"freestates": [QUBIT_0]}, "freestates"),
    (("freestate", "mix"), {"components": []}, "components"),
    # well typed, but out of range
    (("arena", "run"), {**RUN, "game": {**GAME, "adversary": "lazy"}}, "adversary"),
    # a rational whose exponent alone would take seconds to expand
    (("freestate", "mix"), {"components": [{"weight": "1e-10000000", "classical": KNIGHT_CLASSICAL["classical"]}]}, "weight"),
    # well typed, but the mixture or the designated program has no mass there
    (("solomonoff", "predict"), {"bound": 4, "history": "01"}, ("history", "bound")),
    (("solomonoff", "diagonal"), {"bound": 13, "n": 5}, ("n", "bound")),
    (("solomonoff", "regret"), {**REGRET, "q": "0001101001100000000", "eps": []}, ("q", "bound")),
    (("solomonoff", "regret"), {**REGRET, "sequence": "01", "eps": []}, ("sequence", "q")),
    # well typed, but not one program
    (("solomonoff", "regret"), {**REGRET, "q": "0001", "eps": []}, "q"),
    (("solomonoff", "regret"), {**REGRET, "q": EMIT_ZERO_Q[:10], "eps": []}, "q"),
    # well typed, but a set fails the library's check: a key that is a path is quoted whole
    (("freestate", "interval"), {**QUANTUM_INTERVAL, "freestate": {"dim": 2, "generators": [PROJECTOR_0, SKEW]}}, "config['freestate']['generators'][1]"),
    (("freestate", "interval"), {**QUANTUM_INTERVAL, "effect": {"dim": 2, "entries": SKEW}}, "config['effect']['entries']"),
    (("freestate", "interval"), {**KNIGHT_CLASSICAL, "classical": NEGATIVE_CLASSICAL}, "config['classical']['generators'][1]"),
    (("freestate", "or"), {"classicals": [CLASSICAL_ONE, NEGATIVE_CLASSICAL]}, "config['classicals'][1]['generators'][1]"),
    (("freestate", "witness"), {**WITNESS, "freestate_b": {"dim": 2, "generators": [TRACE_TWO]}}, "config['freestate_b']['generators'][0]"),
    (("freestate", "clone-check"), {"psi": [[0, 0], [0, 0]], "phi": [[1, 0], [0, 0]]}, "config['psi']"),
    (("freestate", "interval"), {"freestate": QUTRIT_0, "effect": {"dim": 3, "entries": PROJECTOR_0}}, "config['effect']['entries']"),
    (("freestate", "interval"), {"freestate": QUTRIT_0, "effect": {"dim": 2, "entries": PROJECTOR_0}}, "config['effect']['dim']"),
    (("freestate", "interval"), {**QUANTUM_INTERVAL, "freestate": {"dim": 3, "generators": [PROJECTOR_0]}}, "config['freestate']['generators'][0]"),
    (("freestate", "witness"), {**WITNESS, "freestate_b": QUTRIT_0}, "config['freestate_b']['dim']"),
    (("freestate", "clone-check"), {"psi": [[1, 0], [0, 0]], "phi": [[1, 0], [0, 0], [0, 0]]}, "config['phi']"),
    (("freestate", "mix"), {"components": [{"weight": "-1", "classical": CLASSICAL_ONE}, {"weight": "2", "classical": CLASSICAL_ONE}]}, "weight"),
    # well typed, but a gadget's own check fails
    (("gadgets", "bostrom"), {**ROOM_PUZZLE, "prior_heads": "3/2"}, "prior_heads"),
    (("gadgets", "bostrom"), {**ROOM_PUZZLE, "copies_if_heads": 3}, ("copies_if_heads", "heads_colors")),
    (("gadgets", "bostrom"), {**ROOM_PUZZLE, "counting_rule": "zzz"}, "counting_rule"),
    (("gadgets", "bostrom"), {**ROOM_PUZZLE, "prior_heads": "0", "observed_color": "blue"}, ("observed_color", "prior_heads")),
    (("gadgets", "causal"), {**CAUSAL_GRAPH, "nodes": [CAUSAL_GRAPH["nodes"][0], {"id": "F", "kind": "zz", "time": 1}]}, "config['nodes'][1]['kind']"),
    (("gadgets", "causal"), {**CAUSAL_GRAPH, "edges": [["F", "f"], ["a", "b"]]}, "config['edges'][1]"),
    (("gadgets", "newcomb"), {**NEWCOMB, "policy": ""}, "policy"),
    # well typed, but not a set listing
    (("soph", "kset"), {"elements": ["01", "1"], "bound": 12}, "elements"),
    (("soph", "kset"), {"elements": [], "bound": 12}, "elements"),
    # a table with no lengths still reads its bound: both exited 0 with no rows
    (("soph", "table"), {"lengths": [], "cs": [1], "bound": 99}, "bound"),
    (("soph", "table"), {"lengths": [], "cs": [1], "bound": -1}, "bound"),
    # an edge to a renamed or missing node names the nodes' key as well as the edge
    (("gadgets", "causal"), {**CAUSAL_GRAPH, "nodes": timed_nodes(0, 1)[:1]}, ("config['edges'][0]", "id", "nodes")),
    # exact rationals that sum to 1 + 1e-13: both passed as within 1e-12 of 1 (exit 0)
    (("freestate", "interval"), {"classical": {"n": 2, "generators": [["0.5", "0.5000000000001"]]}, "event": [0, 1]}, "generators"),
    (("freestate", "mix"), {"components": [{"weight": "0.5", "classical": CLASSICAL_ONE}, {"weight": "0.5000000000001", "classical": CLASSICAL_ONE}]}, "weight"),
    # a rational with a denominator of 4,301 digits, more than Python prints: each exited 1
    # quoting Python's limit and naming no key
    (("gadgets", "bostrom"), {**ROOM_PUZZLE, "prior_heads": "1e-4300"}, "prior_heads"),
    (("solomonoff", "regret"), {**REGRET, "eps": ["1e-4300"]}, "eps"),
    (("arena", "run"), {**RUN, "game": {**GAME, "epsilon": "1e-4300"}}, "epsilon"),
    (("arena", "run"), {**RUN, "game": {**GAME, "delta": "1e-4300"}}, "delta"),
    (("arena", "run"), {**RUN, "subject": with_edge(COIN, emit={"prob": "1e-4300"})}, "prob"),
    (("arena", "classify"), {**CLASSIFY, "schedule": [[2, "1e-4300", "0.1"]]}, "schedule"),
    # well typed, but a gap <= 0 passed for a witness (exit 0)
    (("freestate", "witness"), {**WITNESS, "tol": -0.5}, "tol"),
    # well typed, but no room in a branch: the library's own guard, reached by no other test
    (("gadgets", "bostrom"), {**ROOM_PUZZLE, "copies_if_heads": 0, "heads_colors": []}, "copies_if_heads"),
]


def refused_id(row):
    """The command and a digest of the config and its keys: an id that no other row's place changes."""
    (group, command), config, key = row
    digest = hashlib.sha256(json.dumps([config, key], sort_keys=True).encode()).hexdigest()[:8]
    return f"{group}-{command}-{digest}"


# The ids the first 108 rows were recorded under, when an id still held the row's place; each row
# keeps its recorded id wherever it moves, and a row added later is named by refused_id alone.
RECORDED_IDS = {
    "solomonoff-predict-02117aa6": "predict-config0-history",
    "solomonoff-predict-1e02e2ac": "predict-config1-history",
    "solomonoff-predict-f6c08e85": "predict-config2-bound",
    "solomonoff-predict-01384cc5": "predict-config3-bound",
    "solomonoff-predict-d3f446be": "predict-config4-bound",
    "solomonoff-predict-b7dec659": "predict-config5-snapshot",
    "solomonoff-predict-e1a9d0db": "predict-config6-step_budget",
    "solomonoff-regret-73b1b34a": "regret-config7-q",
    "solomonoff-regret-1ff0cdf2": "regret-config8-sequence",
    "solomonoff-regret-150f31f5": "regret-config9-eps",
    "solomonoff-regret-4456b42d": "regret-config10-eps",
    "solomonoff-regret-b5ae1a5f": "regret-config11-eps",
    "solomonoff-diagonal-7e1e50cd": "diagonal-config12-n",
    "solomonoff-omega-d38b5393": "omega-config13-bound",
    "soph-k-02c902f9": "k-config14-x",
    "soph-k-dc4af646": "k-config15-bound",
    "soph-table-f86cba80": "table-config16-lengths",
    "soph-kset-85ff96be": "kset-config17-elements",
    "arena-run-5e12e9dd": "run-config18-trials",
    "arena-run-f6832685": "run-config19-predictor",
    "arena-classify-2455ee7a": "classify-config20-schedule",
    "gadgets-bostrom-2215e9c3": "bostrom-config21-variant",
    "gadgets-bostrom-91f1fc6d": "bostrom-config22-variant",
    "gadgets-newcomb-b75de7a2": "newcomb-config23-box_one",
    "gadgets-causal-662239b7": "causal-config24-check_disjoint_macro",
    "freestate-interval-b832764c": "interval-config25-event",
    "freestate-witness-8c568058": "witness-config26-restarts",
    "arena-run-a47b5a89": "run-config27-family",
    "arena-run-a192661c": "run-config28-bits",
    "gadgets-newcomb-cf89f666": "newcomb-config29-box_one",
    "freestate-clone-check-c8c406ee": "clone-check-config30-psi",
    "freestate-witness-f26a68be": "witness-config31-tol",
    "freestate-witness-329b4abb": "witness-config32-tol",
    "gadgets-chsh-quantum-dad8ce77": "chsh-quantum-config33-alice",
    "gadgets-chsh-quantum-d202267a": "chsh-quantum-config34-bob",
    "gadgets-causal-a759f2d3": "causal-config35-time",
    "gadgets-causal-18206b6c": "causal-config36-time",
    "gadgets-causal-4fd95673": "causal-config37-edges",
    "soph-table-4764fd9a": "table-config38-lengths",
    "freestate-interval-822703d1": "interval-config39-generators",
    "freestate-interval-6910a43a": "interval-config40-generators",
    "freestate-or-591924cb": "or-config41-generators",
    "freestate-mix-f4ae37b4": "mix-config42-generators",
    "freestate-mix-77e3070c": "mix-config43-generators",
    "freestate-mix-22ba38ba": "mix-config44-weight",
    "freestate-mix-fd4380ad": "mix-config45-weight",
    "gadgets-newcomb-f82f2a52": "newcomb-config46-box_one",
    "gadgets-newcomb-2e79c568": "newcomb-config47-box_two",
    "solomonoff-predict-3e6d3e53": "predict-config48-rand_budget",
    "arena-run-67e94f54": "run-config49-context",
    "arena-run-4b31f468": "run-config50-context",
    "arena-run-5abc2088": "run-config51-u",
    "arena-run-9cb96d1d": "run-config52-epsilon",
    "arena-run-b939901d": "run-config53-delta",
    "arena-run-1fe5f0d6": "run-config54-trials",
    "arena-run-17fc95c5": "run-config55-prob",
    "solomonoff-diagonal-bd7a9fd8": "diagonal-config56-n",
    "solomonoff-omega-76f24261": "omega-config57-bound",
    "gadgets-newcomb-148a1982": "newcomb-config58-accuracy",
    "freestate-interval-dd51679c": "interval-config59-event",
    "arena-classify-1c5f1d7b": "classify-config60-t",
    "arena-classify-0c8cd28b": "classify-config61-class",
    "arena-classify-c17f4b67": "classify-config62-schedule",
    "freestate-or-334269f7": "or-config63-classicals",
    "freestate-or-d56996c7": "or-config64-freestates",
    "freestate-mix-eb87073d": "mix-config65-components",
    "arena-run-3c857527": "run-config66-adversary",
    "freestate-mix-4e51b5a0": "mix-config67-weight",
    "solomonoff-predict-9865b377": "predict-config68-bound",
    "solomonoff-diagonal-bb01c1a2": "diagonal-config69-bound",
    "solomonoff-regret-5e381495": "regret-config70-bound",
    "solomonoff-regret-1a04dd35": "regret-config71-q",
    "solomonoff-regret-deafcdb9": "regret-config72-q",
    "solomonoff-regret-0dee4f72": "regret-config73-q",
    "freestate-interval-0eb13938": "interval-config74-config['freestate']['generators'][1]",
    "freestate-interval-9e25aaf9": "interval-config75-config['effect']['entries']",
    "freestate-interval-28b3de9b": "interval-config76-config['classical']['generators'][1]",
    "freestate-or-410d1801": "or-config77-config['classicals'][1]['generators'][1]",
    "freestate-witness-c8978e8f": "witness-config78-config['freestate_b']['generators'][0]",
    "freestate-clone-check-d92d72d7": "clone-check-config79-config['psi']",
    "freestate-interval-449d5083": "interval-config80-config['effect']['entries']",
    "freestate-interval-bf623632": "interval-config81-config['effect']['dim']",
    "freestate-interval-cb14557f": "interval-config82-config['freestate']['generators'][0]",
    "freestate-witness-6ac1d701": "witness-config83-config['freestate_b']['dim']",
    "freestate-clone-check-65b0cbb7": "clone-check-config84-config['phi']",
    "freestate-mix-1d4fa11f": "mix-config85-weight",
    "gadgets-bostrom-3818e049": "bostrom-config86-prior_heads",
    "gadgets-bostrom-33655983": "bostrom-config87-heads_colors",
    "gadgets-bostrom-eb0d9246": "bostrom-config88-counting_rule",
    "gadgets-bostrom-4b9b3547": "bostrom-config89-prior_heads",
    "gadgets-causal-4ff1e1cc": "causal-config90-config['nodes'][1]['kind']",
    "gadgets-causal-e809f294": "causal-config91-config['edges'][1]",
    "gadgets-newcomb-b61689b6": "newcomb-config92-policy",
    "soph-kset-b4919892": "kset-config93-elements",
    "soph-kset-14062a5b": "kset-config94-elements",
    "soph-table-d7c5c87d": "table-config95-bound",
    "soph-table-3e78e177": "table-config96-bound",
    "gadgets-causal-29c7a987": "causal-config97-id",
    "freestate-interval-55721ab1": "interval-config98-generators",
    "freestate-mix-38ebfa86": "mix-config99-weight",
    "gadgets-bostrom-a68cd675": "bostrom-config100-prior_heads",
    "solomonoff-regret-d868abab": "regret-config101-eps",
    "arena-run-6527b0b9": "run-config102-epsilon",
    "arena-run-4bb2a7e4": "run-config103-delta",
    "arena-run-23e30ed5": "run-config104-prob",
    "arena-classify-78e312c6": "classify-config105-schedule",
    "freestate-witness-9c735acb": "witness-config106-tol",
    "gadgets-bostrom-3dd91e46": "bostrom-config107-copies_if_heads",
}


REFUSED_IDS = [RECORDED_IDS.get(refused_id(row), refused_id(row)) for row in REFUSED_CONFIGS]
assert len(set(REFUSED_IDS)) == len(REFUSED_IDS), "two refused configs share an id"
assert set(RECORDED_IDS) <= {refused_id(row) for row in REFUSED_CONFIGS}, "a recorded row was edited or removed"


# The name predates the other four groups; it is kept so the recorded ids stay stable.
@pytest.mark.parametrize("command, config, key", REFUSED_CONFIGS, ids=REFUSED_IDS)
def test_solomonoff_config_types_are_strict(tmp_path, capsys, command, config, key):
    path = write_config(tmp_path, config)
    code, out, err = invoke(capsys, *command, "--config", path, "--seed", "1")
    assert code == 1, err
    for name in (key,) if isinstance(key, str) else key:
        assert (name if name.startswith("config[") else repr(name)) in err, err
    assert "set_int_max_str_digits" not in err, err


def classical(*generators):
    return {"n": len(generators[0]), "generators": [list(g) for g in generators]}


def nines(digits):
    return "0." + "9" * digits  # 1 - 10**-digits


TINY = Fraction(1, 3**2800)  # its denominator has 1,336 digits
# a coin that shows 1 once in 10**300 throws: over 18 steps a distance has 5,401 digits below its bar
RARE_COIN = {**COIN, "edges": [{**edge, "emit": {"prob": "1e-300"}} for edge in COIN["edges"]]}
RARE_GAME = {"t": 2, "u": 20, "epsilon": "1/2", "delta": "1/2", "trials": 1}


@pytest.mark.parametrize(
    "command, config, key",
    [
        # 1e-4300 passes EXPONENT_GUARD, but its denominator has 4,301 digits
        (("freestate", "or"), {"classicals": [classical(["1/2", "1/2"]), classical(["1e-4300", nines(4300)])]}, "config['classicals'][1]['generators'][0]"),
        # every input prints, but a product has a denominator of 6,001 digits
        (
            ("freestate", "mix"),
            {
                "components": [
                    {"weight": "1e-3000", "classical": classical(["1e-3000", nines(3000)])},
                    {"weight": nines(3000), "classical": classical(["1/2", "1/2"])},
                ]
            },
            "result['classical']['generators'][0][0]",
        ),
        # every input prints, but 1e-3000 + 3**-2800 has a denominator of 4,337 digits
        (
            ("freestate", "interval"),
            {"classical": classical(["1e-3000", str(TINY), str(Fraction(1, 2) - Fraction(1, 10**3000)), str(Fraction(1, 2) - TINY)]), "event": [0, 1]},
            "result['lo_exact']",
        ),
        # weights whose sum, 1e-3000 + 3**-2800, is not 1 and too long to quote
        (("freestate", "mix"), {"components": [{"weight": "1e-3000", "classical": CLASSICAL_ONE}, {"weight": str(TINY), "classical": CLASSICAL_ONE}]}, "'weight'"),
        # one white room among 1000 heads rooms: the copy-weighted posterior has 4,302 digits below its bar
        (
            ("gadgets", "bostrom"),
            {**ROOM_PUZZLE, "prior_heads": "1e-4299", "copies_if_heads": 1000, "heads_colors": ["blue"] * 999 + ["white"]},
            "result['posterior_heads']['copy_weighted']['exact']",
        ),
        (("arena", "run"), {"subject": RARE_COIN, "predictor": {"kind": "table"}, "game": RARE_GAME}, "result['verdict']['distances'][0]"),
        (
            ("arena", "classify"),
            {"class": [RARE_COIN], "predictors": [{"kind": "table"}], "schedule": [[2, "1/2", "1/2"]], "trials": 1, "horizon": 20},
            "result['runs'][0]['verdict']['distances'][0]",
        ),
    ],
    ids=("or", "mix", "interval", "mix-weights", "bostrom", "arena-run", "arena-classify"),
)
def test_an_exact_value_too_long_to_print_names_its_key(tmp_path, capsys, command, config, key):
    # Python prints no int of more than 4300 digits: the report could not hold the value
    code, out, err = invoke(capsys, *command, "--config", write_config(tmp_path, config), "--seed", "1")
    assert code == 1, err
    assert key in err, err
    assert "set_int_max_str_digits" not in err, err


def test_an_exponent_past_the_guard_is_refused_before_it_is_expanded():
    started = time.monotonic()
    for text in ("1e-10000000", f"1E+{cli.EXPONENT_GUARD + 1}"):
        with pytest.raises(KnightianError, match="must be a rational"):
            cli._check(text, cli.RATIONAL)
    assert time.monotonic() - started < 0.1
    assert cli._fraction(f"1e-{cli.EXPONENT_GUARD}") == Fraction(1, 10**cli.EXPONENT_GUARD)
    assert cli._fraction(1e308) == 10**308


CLASSICAL = KNIGHT_CLASSICAL["classical"]
MACHINE = {"step_budget": 64, "rand_budget": 4, "output_budget": 8}
BAYES = {"kind": "bayes", "name": "b", "family": ["parrot", "fair-coin"]}
COIN_BAYES = {"kind": "bayes", "family": [COIN]}
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
    # object subject and family; t = 1 puts the gerbil's freebit, at step 2, in the window
    ("arena", "run", {"subject": GERBIL, "predictor": COIN_BAYES, "game": {**GAME, "t": 1}}),
    ("arena", "classify", {**CLASSIFY, "predictors": [{"kind": "table", "name": "t", "context": 1}]}),
]


@pytest.mark.parametrize(
    "command, config, path",
    [
        (
            "or",
            {"classicals": [CLASSICAL, {"n": 3, "generators": [["1", "0", "0"]]}]},
            "config['classicals'][1]['n']",
        ),
        (
            "mix",
            {"components": [{"weight": "1/2", "classical": CLASSICAL}, {"weight": "1/2", "freestate": QUBIT_0}]},
            "config['components'][1]",
        ),
    ],
    ids=("or-sizes", "mix-kinds"),
)
def test_mismatched_sets_name_the_entry(tmp_path, capsys, command, config, path):
    code, out, err = invoke(capsys, "freestate", command, "--config", write_config(tmp_path, config))
    assert code == 1, err
    assert path in err, err


def test_good_configs_cover_every_command():
    assert {(group, command) for group, command, _ in GOOD_CONFIGS} == ALL_COMMANDS


@pytest.mark.parametrize("group, command, config", GOOD_CONFIGS)
def test_every_config_key_is_typed(tmp_path, capsys, group, command, config):
    argv = [group, command, "--seed", "1", "--config"]
    code, out, err = invoke(capsys, *argv, write_config(tmp_path, config))
    assert code == 0, err
    for key in config:
        code, out, err = invoke(capsys, *argv, write_config(tmp_path, {**config, key: None}))
        assert (code, repr(key) in err) == (1, True), (key, err)


# SHA-256 of each GOOD_CONFIGS report at --seed 1, in order
GOOD_REPORT_DIGESTS = [
    "0563ebac6976b1cfb4ebe8e98f9620334bad02cb28744f328b2a46121686aee4",  # freestate interval
    "6758a0e4cba686ade21c0f3b0a7526499c441ed664ee98880d3c131c605445d5",  # freestate interval
    "a7defcae5efb5bf0511862b8b365bd736fc8700e6fad750b9a960a32408b1c20",  # freestate witness
    "e942674d16a7589b92c9a19f3597000480dffe2ac1abfc355662a64e9a7628d3",  # freestate or
    "ac68b6a2a65f4c0a3c2de5eaffccc5a059905583d44d6cac030a35c59dbd6bc9",  # freestate or
    "0a0260745a73d74be78cad6c8738a80157ad1789d3dc4c4c7296a5cde7684a71",  # freestate mix
    "ee73fc87a3794be342cd25acb62b898113c623ca9a4c4ba242ba2e7438ff92f8",  # freestate mix
    "3e68ef308454498e67af39389ded5f7dd1f77fab394471a71c5a027c5c191095",  # freestate clone-check
    "02ac9c6afc0fcb50f72b25ceff14bbe5733f2e31e91d13ab3f898e24daf179d8",  # solomonoff predict
    "d4a065b5a5848749225118762d186b53482a833eaf3cc5fe7d5d35e304c5255d",  # solomonoff regret
    "0ecb2d78603ee39dc640e03757b1ae300c58a6afa9f5007ca366c86466468f6f",  # solomonoff diagonal
    "b90438ebd5a6a4ada5c97f4af6e01a8eea95d1798ea3ed83d5819f34ccdcd3f7",  # solomonoff omega
    "38ea54fd32c9f3c3c255331c16e3395b3807b940b22868e4df5cf4f37d31e172",  # soph k
    "8e42419f018001805affd229e008d56d0a42f4b4ed7426bfe3be06a22d92e943",  # soph kset
    "fe15520781bf89735bc9fe945d97d60c2d3a65d707705cd01c20c9fce9ec475e",  # soph soph
    "404edf285e02bc391027aaa96cc92b35725358245b10a48761e86a34988ffae9",  # soph table
    "2b88697604669603a5fac09a5995b8ba7cebf3f044a85ed3ff6557d6efbcc80c",  # arena run
    "8b9980c416e6e41ce250c2f14defd0e5fd71b36bfe08b3672faf4e827faab529",  # arena classify
    "14760a84c89c2dd55a1629956cd4d959ecf714665baa0e0b65136ef30cf277f4",  # gadgets chsh-classical
    "41c419eab78077648ca833f1075aa14303be37b277e9f008c4aae689d4a77cad",  # gadgets chsh-quantum
    "d706373b90fb6d19d5bd3e40c4a72be9692c0b8a0aa2a2d86ef8e63f8440796a",  # gadgets bostrom
    "702fcfd4386bd9ff5ad8217bc8f969daeaed3dc8c67eff82d19c7f1a92f4c917",  # gadgets bostrom
    "f50998268648ffff30e4cbb83e583be13d118746209b5aae862b27e52b779b33",  # gadgets newcomb
    "beb64e9568c27fd620b6e530ef356bf32bc2168d6629efee2b39c70e2895857f",  # gadgets causal
    "06adc8a9f65c73209a85a3e4c9d6523d87962de079f0e032afe794d7619b64c9",  # arena run
    "9c1e1c6558245c6e8a870bd4758b6150c7f5c07bcaa8a1ceab3fdc7051e00253",  # arena classify
]


@pytest.mark.parametrize(
    "group, command, config, digest",
    [(*good, digest) for good, digest in zip(GOOD_CONFIGS, GOOD_REPORT_DIGESTS, strict=True)],
)
def test_every_command_report_bytes_are_pinned(tmp_path, capsys, group, command, config, digest):
    code, out, err = invoke(capsys, group, command, "--seed", "1", "--config", write_config(tmp_path, config))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


# the census at the bounds the benchmark reads, where data tails run to 11 bits:
# (group, command, config, SHA-256 of the report at --seed 1)
GUARD_SCALE_REPORTS = [
    ("soph", "table", {"lengths": list(range(1, 8)), "cs": list(range(10)), "bound": 24}, "041bfada79d9fe1f844bd26c5afa79410ed1cd483aa6e85fc735383436bab281"),
    ("soph", "k", {"x": "0110100", "bound": 22}, "7af86e6084ba9ee1ea4c61f990739b0e67b6ea524d3dded3d02836157deea724"),
    ("soph", "k", {"x": "00000000000", "bound": 22}, "9a60623c8d584afa8529283cc77c1a6cfdb1e39467cd03b1babc864d0acfdb8a"),
    ("soph", "kset", {"elements": ["001", "100", "111"], "bound": 22}, "bb1d404ffd94ffa48ba312b08712b3490aedecbb8243959a36fa82b60c9d3ca8"),
    ("soph", "kset", {"elements": ["001", "100"], "bound": 22}, "6261910c68f9ecd8f0126658eb6656f61e286743c7afd7258a7534c8d0d9b80f"),
    ("soph", "soph", {"x": "011010", "c": 3, "bound": 22}, "10e5cf174f1c7a14c248adcf80de143d81b471d3640a7d7419b9f1f9c7396bde"),
    ("solomonoff", "predict", {"bound": 20, "history": "0110"}, "634bc0ac3cb2f44d43f159f735196fc0f2f0e17404e10f1204b5fa326c8fa588"),
    ("solomonoff", "omega", {"bound": 20}, "641b9941b05d87f90dd6f5e27a99ef9f44c3a53f2c17561ddcac4f7c8b7218b5"),
    ("solomonoff", "diagonal", {"bound": 18, "n": 16}, "074cce5ccb18a22b43ce36dbc2b9fd2f0820217d244c9838b8e5d72fc01b6b96"),
    ("solomonoff", "regret", {"bound": 18, "q": "000100100100100", "sequence": "011010011101", "eps": ["1/10", "1/2"]}, "123f4cf3efb00d8d3b5673327291fa7331e9d4b8dd1a4c58357aca3ad304bc7c"),
    ("solomonoff", "predict", {"bound": 24, "history": "1011"}, "dfa8fe7c7b6c5154b462e0b298a25675489bd96d66b5bd7b217088e7d83f45be"),
    ("solomonoff", "predict", {"bound": 16, "history": "0110", "snapshot": True}, "e51d3d6acbd0c6d70ee0b062ea42c0a4b7ec4e1ffbec38a2e525e580fcb9346d"),
    # loops that small budgets cut short, REPEAT rooms shorter than a pattern,
    # and the largest budgets
    ("soph", "kset", {"elements": ["001", "100"], "bound": 22, "step_budget": 40, "rand_budget": 3, "output_budget": 16}, "fed6ac03c040299c21ded7f47628aafe1322cbee518a7fd0a5a44b543d9ebf4f"),
    ("solomonoff", "omega", {"bound": 22, "step_budget": 512, "rand_budget": 512, "output_budget": 512}, "f8a1d5dd468396ff8ec9c24a5ccdf5cdeab599048027a4edd4447d7929b7ac69"),
    ("soph", "k", {"x": "0000000000", "bound": 20, "step_budget": 12}, "3f1423f8e60374d4a0a8236a1827feaffdf3d03c693649c1722607a24a3430dd"),
]


@pytest.mark.parametrize("group, command, config, digest", GUARD_SCALE_REPORTS)
def test_guard_scale_report_bytes_are_pinned(tmp_path, capsys, group, command, config, digest):
    code, out, err = invoke(capsys, group, command, "--seed", "1", "--config", write_config(tmp_path, config))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def leaf_paths(value, path=()):
    """Subscript paths to every scalar, empty list and empty object in a config."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    if not items:
        yield path
    for key, item in items:
        yield from leaf_paths(item, (*path, key))


def replace_leaf(value, path, new):
    if not path:
        return new
    key, rest = path[0], path[1:]
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[key] = replace_leaf(value[key], rest, new)
    return copy


def rational_leaves(config, schema) -> int:
    """How many leaves of config the schema reads as rationals: each of them, and no
    other leaf, is refused as not a rational when it alone is replaced by "x"."""
    count = 0
    for leaf in leaf_paths(config):
        try:
            cli._check(replace_leaf(config, leaf, "x"), schema)
        except KnightianError as exc:
            count += "must be a rational" in str(exc)
    return count


@pytest.mark.parametrize("group, command, config", GOOD_CONFIGS)
def test_each_rational_is_read_once(tmp_path, capsys, group, command, config):
    leaves = rational_leaves(config, cli._commands(group)[command][1])
    path = write_config(tmp_path, config)
    reads = 0

    def count(frame, event, arg):
        nonlocal reads
        reads += event == "call" and frame.f_code is cli._fraction.__code__

    sys.setprofile(count)
    try:
        code = cli.dispatch([group, command, "--seed", "1", "--config", path])
    finally:
        sys.setprofile(None)
    assert code == 0, capsys.readouterr().err
    assert reads == leaves


# a fixed pool of awkward leaves: edge integers, each size guard and one past it,
# the horizons around HORIZON_GUARD, float edges, strings a rational may or may
# not parse, and every other JSON kind
POOL = [
    0, -1, 2**63, 10**400, *range(16, 26),
    toyvm.BUDGET_GUARD, toyvm.BUDGET_GUARD + 1, arena.TIME_GUARD, arena.TIME_GUARD + 1,
    fs.RESTARTS_GUARD, fs.RESTARTS_GUARD + 1,
    0.5, 1e308, "", "1e400", "abc", [], {}, None, True,
]


def no_constant(name):
    raise ValueError(f"{name} in a report")


@pytest.mark.parametrize("group, command, config", GOOD_CONFIGS)
def test_any_one_bad_leaf_exits_zero_or_one(tmp_path_factory, group, command, config):
    path = str(tmp_path_factory.mktemp("leaf") / "config.json")

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(list(leaf_paths(config))), st.sampled_from(POOL))
    def one_bad_leaf(leaf, value):
        with open(path, "w") as fh:
            json.dump(replace_leaf(config, leaf, value), fh)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # a numpy warning on stderr would precede the error line
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.dispatch([group, command, "--seed", "1", "--config", path])
        assert code in (0, 1), err.getvalue()
        if code == 0:
            json.loads(out.getvalue(), parse_constant=no_constant)
        else:
            # the message names a key on the leaf's path; the whole config has none
            names = [repr(key) for key in leaf if isinstance(key, str)] or ["config"]
            assert any(name in err.getvalue() for name in names), (leaf, value, err.getvalue())

    one_bad_leaf()


@pytest.mark.parametrize(
    "command, key, guard, config_at",
    [
        (("solomonoff", "omega"), "step_budget", toyvm.BUDGET_GUARD, lambda v: {"bound": 12, "step_budget": v}),
        (("solomonoff", "omega"), "rand_budget", toyvm.BUDGET_GUARD, lambda v: {"bound": 12, "rand_budget": v}),
        (("solomonoff", "omega"), "output_budget", toyvm.BUDGET_GUARD, lambda v: {"bound": 12, "output_budget": v}),
        (("arena", "run"), "context", arena.TIME_GUARD, table_run),
        (("arena", "run"), "u", arena.TIME_GUARD, game_ending_at),
        (("arena", "classify"), "horizon", arena.TIME_GUARD, classify_until),
        (("freestate", "witness"), "restarts", fs.RESTARTS_GUARD, lambda v: {**WITNESS, "restarts": v}),
        (("soph", "k"), "bound", toyvm.ENUMERATION_GUARD, lambda v: {"x": "0", "bound": v}),
        (("arena", "run"), "trials", arena.TRIALS_GUARD, lambda v: fixed_table_game(trials=v)),
        (("arena", "run"), ("u", "t"), 8 + arena.HORIZON_GUARD, lambda v: fixed_table_game(u=v)),
        (("arena", "run"), "freebit_budget", arena.FREEBIT_GUARD, oblivious_gerbil_game),
        (("freestate", "mix"), "components", cl.MIX_GUARD, mix_of_one_set_of),
        (("soph", "soph"), "bound", toyvm.ENUMERATION_GUARD, lambda v: {"x": "0", "c": 1, "bound": v}),
        (("soph", "table"), ("lengths", "cs"), cx.CELLS_GUARD, table_of_cells),
    ],
)
def test_size_guards_admit_their_bound_and_name_the_key_past_it(
    tmp_path, capsys, command, key, guard, config_at
):
    def run(value):
        path = write_config(tmp_path, config_at(value))
        return invoke(capsys, *command, "--seed", "1", "--config", path)

    assert run(guard)[0] == 0
    code, out, err = run(guard + 1)
    assert code == 1, err
    for name in (key,) if isinstance(key, str) else key:
        assert repr(name) in err, err


def test_missing_nested_key_is_named(tmp_path, capsys):
    game = {k: v for k, v in GAME.items() if k != "trials"}
    path = write_config(tmp_path, {**RUN, "game": game})
    code, out, err = invoke(capsys, "arena", "run", "--config", path, "--seed", "1")
    assert code == 1, err
    assert "missing key(s) in config['game']: 'trials'" in err


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("run", {**RUN, "subject": {**GERBIL, "edges": None}}, "config['subject']['edges'] must be a list"),
        (
            "run",
            {**RUN, "predictor": {"kind": "bayes", "family": [with_edge(COIN, emit=5)]}},
            "config['predictor']['family'][0]['edges'][0]['emit'] must be",
        ),
        (
            "run",
            {**RUN, "subject": with_edge(COIN, emit={"prob": "1/2", "freebit": 0})},
            "unknown key(s) in config['subject']['edges'][0]['emit']: 'freebit'",
        ),
        (
            "run",
            {**RUN, "subject": with_edge(GERBIL, emit={"freebit": "0"})},
            "config['subject']['edges'][0]['emit']['freebit'] must be an integer",
        ),
        ("run", {**RUN, "subject": {"initial": "a"}}, "config['subject'] must be a stock subject name"),
        (
            "classify",
            {**CLASSIFY, "class": [{**GERBIL, "freebit_budget": "1"}]},
            "config['class'][0]['freebit_budget'] must be an integer",
        ),
        # each exited 0: an edge on input "2" was never read, a second edge replaced the first
        (
            "run",
            {**RUN, "subject": with_extra_edge(COIN, on_input="2")},
            "config['subject']['edges'][2]['on_input'] must be \"0\" or \"1\"",
        ),
        ("run", {**RUN, "subject": with_extra_edge(COIN, emit="1")}, "'edges'[2] is a second edge"),
        # well typed, but not a total machine: the message names the key
        ("run", {**RUN, "subject": {**COIN, "initial": "x"}}, "'initial' state 'x' is not in 'states'"),
        ("run", {**RUN, "subject": {**COIN, "edges": COIN["edges"][:1]}}, "'edges' has no edge"),
        ("run", {**RUN, "subject": with_extra_edge(COIN, **{"from": "x"})}, "'from' state 'x'"),
        ("run", {**RUN, "subject": with_edge(COIN, to="x")}, "'to' state 'x'"),
        (
            "run",
            {**RUN, "subject": {**GERBIL, "freebit_budget": 0}},
            "'freebit' = 0 must lie in [0, 'freebit_budget' = 0)",
        ),
        # predictor and input-model objects are typed by 'kind': each exited 0 ignoring
        # the key, or exited 1 without naming the path
        ("run", {**RUN, "predictor": {"kind": "table", "family": ["parrot"]}}, "unknown key(s) in config['predictor']: 'family'"),
        ("run", {**RUN, "predictor": {**BAYES, "context": 3}}, "unknown key(s) in config['predictor']: 'context'"),
        ("run", {**RUN, "predictor": {"kind": "bayes"}}, "missing key(s) in config['predictor']: 'family'"),
        (
            "classify",
            {**CLASSIFY, "predictors": [{"kind": "table"}, {"kind": "bayes"}]},
            "missing key(s) in config['predictors'][1]: 'family'",
        ),
        ("run", {**RUN, "predictor": {"kind": "x"}}, "config['predictor'] must be an object whose 'kind' is \"table\" or \"bayes\""),
        (
            "run",
            {**RUN, "game": {**GAME, "input_model": {"kind": "uniform", "bits": "01"}}},
            "unknown key(s) in config['game']['input_model']: 'bits'",
        ),
        ("classify", {**CLASSIFY, "input_model": {"kind": "fixed"}}, "missing key(s) in config['input_model']: 'bits'"),
        # a classify row runs to the horizon: the message names it, not the game's 'u'
        (
            "classify",
            {**CLASSIFY, "horizon": 4, "schedule": [[8, "0.1", "0.1"]]},
            "config['schedule'][0]: need 0 <= 't' < 'horizon', got 't' = 8, 'horizon' = 4",
        ),
        (
            "classify",
            {**CLASSIFY, "horizon": 40, "schedule": [[2, "0.1", "0.1"]]},
            f"config['schedule'][0]: 'horizon' - 't' = 38 exceeds {arena.HORIZON_GUARD}",
        ),
        # epsilon and delta lie in (0, 1): the schema names the row and the game
        (
            "classify",
            {**CLASSIFY, "schedule": [[2, "0.1", "0.1"], [3, "0", "0.1"]]},
            "config['schedule'][1][1] must be a rational in (0, 1), got '0'",
        ),
        ("run", {**RUN, "game": {**GAME, "delta": "1"}}, "config['game']['delta'] must be a rational in (0, 1), got '1'"),
        # a label rests on games played, so a class needs a predictor to play them
        ("classify", {**CLASSIFY, "predictors": []}, "'predictors' is empty: a class is labelled only by games played"),
        # an unknown stock name: the message names its entry
        ("run", {**RUN, "subject": ""}, "config['subject']: unknown stock subject ''; have"),
        (
            "run",
            {**RUN, "predictor": {"kind": "bayes", "family": ["parrot", "nope"]}},
            "config['predictor']['family'][1]: unknown stock subject 'nope'",
        ),
        ("classify", {**CLASSIFY, "class": ["parrot", "gerbilx"]}, "config['class'][1]: unknown stock subject 'gerbilx'"),
        (
            "classify",
            {**CLASSIFY, "predictors": [{"kind": "table"}, {"kind": "bayes", "family": ["nope"]}]},
            "config['predictors'][1]['family'][0]: unknown stock subject 'nope'",
        ),
        # a subject object's own check names the entry
        (
            "run",
            {**RUN, "subject": {**GERBIL, "states": ["a", "", "c", "d"]}},
            "config['subject']: 'edges' has no edge from '' on input '0'",
        ),
    ],
)
def test_subject_payloads_are_typed(tmp_path, capsys, command, config, message):
    path = write_config(tmp_path, config)
    code, out, err = invoke(capsys, "arena", command, "--config", path, "--seed", "1")
    assert code == 1, err
    assert message in err


def test_unknown_stock_subject_is_named(tmp_path, capsys):
    for config in (
        {**RUN, "subject": "nope"},
        {**RUN, "predictor": {"kind": "bayes", "family": ["nope"]}},
    ):
        path = write_config(tmp_path, config)
        code, out, err = invoke(capsys, "arena", "run", "--config", path, "--seed", "1")
        assert code == 1, err
        assert "unknown stock subject 'nope'; have ['fair-coin', 'gerbil', 'parrot']" in err


# Reports of arena paths the benchmark's reference does not reach, pinned by
# SHA-256: an object subject against an object Bayes family, the oblivious
# adversary, and a Bayes predictor in classify over a family mixing a stock
# name and an object.
PINNED_ARENA_REPORTS = {
    "object-subject-and-family": (
        "run",
        3,
        {
            "subject": GERBIL,
            "predictor": {"kind": "bayes", "family": [COIN, GERBIL]},
            "game": {"t": 1, "u": 5, "epsilon": "1/4", "delta": "1/4", "trials": 8},
        },
        "b63b68ee61f1b7e36b41c4ed97cd26f750adbdc3fa1737dbff5dab4559d26e96",
    ),
    "oblivious-adversary": (
        "run",
        5,
        {
            "subject": "gerbil",
            "predictor": {"kind": "table", "context": 0},
            "game": {
                "t": 1, "u": 5, "epsilon": "1/2", "delta": "1/4", "trials": 12,
                "adversary": "oblivious",
            },
        },
        "76f26d824017b6fb322b6263fc4ab1bf72453417bde1d17c2e091cbf9868e105",
    ),
    "bayes-in-classify": (
        "classify",
        7,
        {
            "class": ["gerbil", COIN],
            "predictors": [
                {"kind": "bayes", "name": "b", "family": ["parrot", GERBIL]},
                {"kind": "table"},
            ],
            "schedule": [[1, "1/4", "1/4"], [2, "1/2", "1/2"]],
            "trials": 6,
            "horizon": 5,
        },
        "b95ee15f70fb308eb3891b7b3f96bfa100a03b0318e31cc3cb2c7b319ad1fac6",
    ),
}


@pytest.mark.parametrize("name", PINNED_ARENA_REPORTS)
def test_arena_report_bytes_are_pinned(tmp_path, capsys, name):
    command, seed, config, digest = PINNED_ARENA_REPORTS[name]
    path = write_config(tmp_path, config)
    code, out, err = invoke(capsys, "arena", command, "--config", path, "--seed", str(seed))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def projector(*amplitudes):
    return [[[(a * b.conjugate()).real, (a * b.conjugate()).imag] for b in amplitudes] for a in amplitudes]


R = 0.5**0.5
PROJECTOR_1, PROJECTOR_PLUS, PROJECTOR_I = projector(0, 1), projector(R, R), projector(R, R * 1j)
HALF_IDENTITY = QUBIT_MIXED["generators"][0]


def hermitian_witness_config():
    # the draw of test_freestate_witness_cli_reports_hermitian_and_none
    single, hull = pushed_out_pair(np.random.default_rng(7))
    return {
        "freestate_a": cli_freestate.freestate_to_payload(single),
        "freestate_b": cli_freestate.freestate_to_payload(hull),
        "restarts": 8,
    }


# Reports of freestate paths the benchmark's reference does not reach, which
# runs only classical `or` and `mix` on two outcomes, pinned by SHA-256.
PINNED_FREESTATE_REPORTS = {
    "quantum-or-of-three": (
        "or",
        None,
        {
            "freestates": [
                QUBIT_0,
                {"dim": 2, "generators": [PROJECTOR_1, PROJECTOR_PLUS]},
                {"dim": 2, "generators": [PROJECTOR_I]},
            ]
        },
        "a30f1d6978de5c2cdb475311b1448b1cdb2d16c0062b86c65785720b006fa573",
    ),
    "quantum-mix": (
        "mix",
        None,
        {
            "components": [
                {"weight": "0.3", "freestate": {"dim": 2, "generators": [PROJECTOR_0, PROJECTOR_PLUS]}},
                {"weight": "7/10", "freestate": {"dim": 2, "generators": [PROJECTOR_I, HALF_IDENTITY]}},
            ]
        },
        "74ee6495defc0a55e23ac1264c909c3eb1ba4ef1db0b0bf5cb1f725e4aaf7a87",
    ),
    "classical-or-of-three": (
        "or",
        None,
        {
            "classicals": [
                {"n": 3, "generators": [["1/2", "1/4", "1/4"]]},
                {"n": 3, "generators": [["0.1", "0.2", "0.7"], [0.6, 0.3, 0.1]]},
                {"n": 3, "generators": [[1, 0, 0]]},
            ]
        },
        "9cfb3a63738d62d87b2d6ce21207393a27872c68e2474e08b9ab94a0be7af9fd",
    ),
    "classical-mix-of-three": (
        "mix",
        None,
        {
            "components": [
                {"weight": "1/2", "classical": {"n": 3, "generators": [["1/3", "1/3", "1/3"], [1, 0, 0]]}},
                {"weight": 0.3, "classical": {"n": 3, "generators": [["0.1", "0.2", "0.7"], [0, 0.5, 0.5]]}},
                {"weight": "0.2", "classical": {"n": 3, "generators": [[0, 0, 1]]}},
            ]
        },
        "6ca39a9d2f07ef7c3583f94d1b118df4e4b375991025b216edc3a69cb9d484f0",
    ),
    "hermitian-witness": (
        "witness",
        7,
        hermitian_witness_config(),
        "232d3b02a709186b2bd39019da2491c82ecc4a470360c1b6b1f51b25e0575b3e",
    ),
}


@pytest.mark.parametrize("name", PINNED_FREESTATE_REPORTS)
def test_freestate_report_bytes_are_pinned(tmp_path, capsys, name):
    command, seed, config, digest = PINNED_FREESTATE_REPORTS[name]
    path = write_config(tmp_path, config)
    seed_args = () if seed is None else ("--seed", str(seed))
    code, out, err = invoke(capsys, "freestate", command, "--config", path, *seed_args)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_arena_trials_guard_over_the_cli(tmp_path, capsys):
    for command, config in (
        ("run", {**RUN, "game": {**GAME, "trials": 1030}}),
        ("classify", {**CLASSIFY, "trials": 1030}),
    ):
        path = write_config(tmp_path, config)
        code, out, err = invoke(capsys, "arena", command, "--config", path, "--seed", "1")
        assert code == 1, err
        assert "trials" in err


# Runs one command in a fresh interpreter, then prints the knightian modules
# it loaded, whether numpy and scipy were loaded, and whether knightian loaded
# dataclasses, which its records do without.
FOOTPRINT_PROBE = """
import json, sys
preloaded = "dataclasses" in sys.modules
from knightian import cli
argv = sys.argv[1:]
if argv:
    assert cli.dispatch(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.startswith("knightian."))
dataclasses = not preloaded and "dataclasses" in sys.modules
print(json.dumps([loaded, "numpy" in sys.modules, "scipy" in sys.modules, dataclasses]))
"""
CLI_CORE = ["knightian.cli", "knightian.errors"]
QUANTUM_FAMILY = ["classical", "freestate", "record"]  # freestate reads classical's DimMismatch


# id -> (command, config, the knightian modules it adds to the CLI's, numpy loaded, scipy loaded);
# no command loads dataclasses
FOOTPRINTS = {
    "import": ((), None, [], False, False),
    "freestate-interval": (("freestate", "interval"), KNIGHT_CLASSICAL, ["cli_freestate", "classical", "record"], False, False),
    "freestate-interval-quantum": (("freestate", "interval"), QUANTUM_INTERVAL, ["cli_freestate", *QUANTUM_FAMILY], True, False),
    "freestate-witness": (("freestate", "witness"), WITNESS, ["cli_freestate", *QUANTUM_FAMILY], True, False),
    "freestate-or": (("freestate", "or"), {"classicals": [CLASSICAL, CLASSICAL]}, ["cli_freestate", "classical", "record"], False, False),
    "freestate-or-quantum": (("freestate", "or"), {"freestates": [QUBIT_0, QUBIT_MIXED]}, ["cli_freestate", *QUANTUM_FAMILY], True, False),
    "freestate-mix": (("freestate", "mix"), {"components": [{"weight": "1", "classical": CLASSICAL}]}, ["cli_freestate", "classical", "record"], False, False),
    "freestate-mix-quantum": (("freestate", "mix"), {"components": [{"weight": 1, "freestate": QUBIT_0}]}, ["cli_freestate", *QUANTUM_FAMILY], True, False),
    "freestate-clone-check": (("freestate", "clone-check"), {"psi": [[1, 0], [0, 0]], "phi": [[0, 0], [1, 0]]}, ["cli_freestate", *QUANTUM_FAMILY], True, False),
    "solomonoff-predict": (("solomonoff", "predict"), {"bound": 12, "history": ""}, ["cli_solomonoff", "prior", "toyvm", "record"], False, False),
    "solomonoff-regret": (("solomonoff", "regret"), {**REGRET, "eps": ["1/2"]}, ["cli_solomonoff", "prior", "toyvm", "record"], False, False),
    "solomonoff-diagonal": (("solomonoff", "diagonal"), {"bound": 12, "n": 2}, ["cli_solomonoff", "prior", "toyvm", "record"], False, False),
    "solomonoff-omega": (("solomonoff", "omega"), {"bound": 4}, ["cli_solomonoff", "prior", "toyvm", "record"], False, False),
    "soph-k": (("soph", "k"), {"x": "0", "bound": 8}, ["cli_soph", "complexity", "toyvm", "record"], False, False),
    "soph-kset": (("soph", "kset"), {"elements": ["0", "1"], "bound": 8}, ["cli_soph", "complexity", "toyvm", "record"], False, False),
    "soph-soph": (("soph", "soph"), {"x": "0", "c": 1, "bound": 8}, ["cli_soph", "complexity", "toyvm", "record"], False, False),
    "soph-table": (("soph", "table"), {"lengths": [1], "cs": [1], "bound": 8}, ["cli_soph", "complexity", "toyvm", "record"], False, False),
    "arena-run": (("arena", "run"), RUN, ["cli_arena", "arena", "record"], False, False),
    "arena-classify": (("arena", "classify"), CLASSIFY, ["cli_arena", "arena", "record"], False, False),
    "gadgets-chsh-classical": (("gadgets", "chsh-classical"), {}, ["cli_gadgets", "gadgets", "record"], False, False),
    "gadgets-chsh-quantum": (("gadgets", "chsh-quantum"), {}, ["cli_gadgets", "gadgets", "record"], False, False),
    "gadgets-bostrom": (("gadgets", "bostrom"), {"variant": 1}, ["cli_gadgets", "gadgets", "record"], False, False),
    "gadgets-newcomb": (("gadgets", "newcomb"), NEWCOMB, ["cli_gadgets", "gadgets", "record"], False, False),
    "gadgets-causal": (("gadgets", "causal"), CAUSAL_GRAPH, ["cli_gadgets", "gadgets", "record"], False, False),
}


def test_every_command_declares_its_footprint():
    # a new command must say which modules it loads
    declared = {command for command, *_ in FOOTPRINTS.values()}
    assert sorted(ALL_COMMANDS - declared) == []


@pytest.mark.parametrize("command, config, added, numpy, scipy", FOOTPRINTS.values(), ids=list(FOOTPRINTS))
def test_each_command_imports_only_its_family(tmp_path, command, config, added, numpy, scipy):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = []
    if command:
        report = tmp_path / "report.json"
        argv = [*command, "--config", write_config(tmp_path, config), "--seed", "1", "--out", str(report)]
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = sorted(CLI_CORE + [f"knightian.{module}" for module in added])
    assert json.loads(done.stdout) == [loaded, numpy, scipy, False]


def test_a_csv_refusal_loads_no_numpy(tmp_path):
    # the refusal names every tabular command, so it loads every group and its
    # family's modules, but no quantum path runs
    probe = (
        "import json, sys; from knightian import cli; code = cli.dispatch(sys.argv[1:]); "
        "print(json.dumps([code, 'numpy' in sys.modules, 'scipy' in sys.modules]))"
    )
    argv = ["freestate", "interval", "--config", write_config(tmp_path, QUANTUM_INTERVAL), "--format", "csv"]
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", probe, *argv], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert json.loads(done.stdout) == [1, False, False]
    assert done.stderr == (
        "error: csv output is only available for: gadgets chsh-classical, solomonoff regret, soph table\n"
    )


def test_importing_the_cli_loads_no_argparse_and_no_group():
    # every command paid about 3 ms for argparse and its parser, and compiled
    # the handlers of the four groups it does not run
    probe = (
        "import json, sys; import knightian.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m == 'argparse' or m.startswith('knightian.cli_'))))"
    )
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


# argv spellings of `gadgets newcomb --config PATH --seed 3` (CONFIG stands for the
# path), each printing the canonical spelling's bytes
CANONICAL_ARGV = ["gadgets", "newcomb", "--config", "CONFIG", "--seed", "3"]
ACCEPTED_ARGV = {
    "options-first": ["--seed", "3", "--config", "CONFIG", "gadgets", "newcomb"],
    "options-between": ["gadgets", "--config", "CONFIG", "newcomb", "--seed", "3"],
    "equals-form": ["gadgets", "newcomb", "--config=CONFIG", "--seed=3"],
    "repeated-seed": ["gadgets", "newcomb", "--seed", "9", "--config", "CONFIG", "--seed", "3"],
    "explicit-json": ["gadgets", "newcomb", "--format", "json", "--config", "CONFIG", "--seed", "3"],
}


def with_config(argv, path):
    return [token.replace("CONFIG", path) for token in argv]


@pytest.mark.parametrize("argv", ACCEPTED_ARGV.values(), ids=list(ACCEPTED_ARGV))
def test_options_may_come_anywhere_in_either_form(tmp_path, capsys, argv):
    path = write_config(tmp_path, NEWCOMB)
    canonical = invoke(capsys, *with_config(CANONICAL_ARGV, path))
    assert canonical[0] == 0, canonical[2]
    assert invoke(capsys, *with_config(argv, path)) == canonical


# malformed argv -> the token its error must name
MALFORMED_ARGV = {
    "unknown-group": (["nonsense", "newcomb"], "'nonsense'"),
    "unknown-command": (["gadgets", "no-such-command"], "'no-such-command'"),
    "unknown-option": (["gadgets", "newcomb", "--config", "CONFIG", "--verbose"], "'--verbose'"),
    "abbreviated-option": (["gadgets", "newcomb", "--conf", "CONFIG"], "'--conf'"),
    "single-dash-option": (["gadgets", "newcomb", "-c", "CONFIG"], "'-c'"),
    "missing-value-at-end": (["gadgets", "newcomb", "--config"], "--config"),
    "missing-value-before-option": (["gadgets", "newcomb", "--config", "--seed", "3"], "--config"),
    "bad-format": (["gadgets", "chsh-classical", "--format", "xml"], "'xml'"),
    "bad-seed": (["gadgets", "newcomb", "--config", "CONFIG", "--seed", "seven"], "--seed"),
    "no-positional": (["--config", "CONFIG"], "GROUP"),
    "missing-command": (["gadgets", "--config", "CONFIG"], "COMMAND"),
    "extra-positional": (["gadgets", "newcomb", "again", "--config", "CONFIG"], "'again'"),
    "empty-value-equals-form": (["gadgets", "chsh-classical", "--out="], "--out"),
    "empty-value": (["gadgets", "chsh-classical", "--config", ""], "--config"),
}


@pytest.mark.parametrize("argv, token", MALFORMED_ARGV.values(), ids=list(MALFORMED_ARGV))
def test_malformed_argv_exits_one_naming_its_token(tmp_path, capsys, argv, token):
    code, out, err = invoke(capsys, *with_config(argv, write_config(tmp_path, NEWCOMB)))
    assert (code, out) == (1, ""), err
    assert token in err.splitlines()[0], err
    assert cli.USAGE in err


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["gadgets", "newcomb", "--help"]])
def test_help_prints_the_usage_line_and_exits_zero(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith(cli.USAGE + "\n")
    assert cli.__doc__ in out


def test_help_lists_every_group_and_command():
    # the help text is the docstring, so a command added to a group's table must be added there too
    doc = cli.__doc__.split("Groups and their commands:\n", 1)[1].split("\n\n", 1)[0]
    listed = {group: rest.split(", ") for group, rest in (line.split(None, 1) for line in doc.splitlines())}
    assert listed == {group: list(cli._commands(group)) for group in cli.GROUPS}


def run_module(*argv, module="knightian", env=()):
    """python -m module in a fresh interpreter, on this checkout's src/, with env's variables set."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        env={**os.environ, "PYTHONPATH": str(src), **dict(env)},
        capture_output=True, text=True, timeout=120,
    )


def test_python_dash_m_knightian_runs_the_cli():
    done = run_module("gadgets", "chsh-classical")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"]["value"]["exact"] == "3/4"
    done = run_module("gadgets", "no-such-command")
    assert done.returncode == 1
    assert "no-such-command" in done.stderr


@pytest.mark.parametrize("command, config", [("chsh-classical", None), ("newcomb", NEWCOMB)])
def test_python_dash_m_knightian_cli_prints_what_python_dash_m_knightian_prints(tmp_path, command, config):
    # cli.py run as __main__ is a second copy of the module, whose Kind and Opt
    # are not the group tables' own: the package's copy has to run the command
    argv = ["gadgets", command] + (["--config", write_config(tmp_path, config)] if config else [])
    done = run_module(*argv, module="knightian.cli")
    assert done.returncode == 0, done.stderr
    assert done.stdout == run_module(*argv).stdout


# two micro nodes, each caused from its future and touching other edges: two R2 violations
TWO_R2_GRAPH = {
    "nodes": [
        {"id": "a", "kind": "micro", "time": 1},
        {"id": "b", "kind": "micro", "time": 1},
        {"id": "c", "kind": "macro", "time": 0},
    ],
    "edges": [["a", "b"], ["b", "a"], ["c", "a"], ["c", "b"]],
}


def test_a_causal_report_does_not_depend_on_the_hash_seed(tmp_path):
    # listed in set order, the two R2 violations swapped places between hash seeds 0 and 2
    config = write_config(tmp_path, TWO_R2_GRAPH)
    runs = [
        run_module("gadgets", "causal", "--config", config, env={"PYTHONHASHSEED": seed})
        for seed in ("0", "2")
    ]
    assert [done.returncode for done in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    violations = json.loads(runs[0].stdout)["result"]["violations"]
    assert [(v["rule"], v["subject"]) for v in violations] == [("R2", ["a"]), ("R2", ["b"])]


# the SHA-256 of each report, from one interpreter; argv[1] is a JSON list of command lines
DIGEST_PROBE = """
import contextlib, hashlib, io, json, sys
from knightian import cli
digests = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.dispatch(argv)
    digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest() if code == 0 else code)
print(json.dumps(digests))
"""


def test_every_pinned_report_is_the_same_under_two_hash_seeds(tmp_path):
    commands = [
        [group, command, "--seed", "1", "--config", write_config(tmp_path, config, f"config{i}.json")]
        for i, (group, command, config) in enumerate(GOOD_CONFIGS)
    ]
    src = Path(cli.__file__).resolve().parents[1]
    for seed in ("0", "2"):
        done = subprocess.run(
            [sys.executable, "-c", DIGEST_PROBE, json.dumps(commands)],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == GOOD_REPORT_DIGESTS, seed


def test_main_runs_blas_on_one_thread_unless_the_caller_set_a_count(monkeypatch):
    # OpenBLAS reads its thread count when numpy loads, so main sets it before dispatch
    counts, hooks = [], []
    monkeypatch.setattr(cli, "dispatch", lambda argv: counts.append(os.environ.get("OPENBLAS_NUM_THREADS")) or 0)
    monkeypatch.setattr(atexit, "register", hooks.append)  # none for this process's own exit
    monkeypatch.setattr(sys, "argv", ["knightian", "gadgets", "chsh-classical"])
    for preset in ({}, {"OPENBLAS_NUM_THREADS": "4"}, {"OMP_NUM_THREADS": "2"}):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.setenv(name, "")  # so that undo restores the caller's value
            monkeypatch.delenv(name)
        for name, value in preset.items():
            monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as done:
            cli.main()
        assert done.value.code == 0
    assert counts == ["1", "4", None]
    assert hooks == [gc.freeze] * 3


# runs cli.main on argv[1:] in a fresh interpreter; the checker, registered
# first, runs after main's own exit hook
EXIT_HOOK_PROBE = """
import atexit, gc, sys
from knightian import cli
atexit.register(lambda: print("at exit", gc.get_freeze_count()))
sys.argv = ["knightian", *sys.argv[1:]]
try:
    cli.main()
except SystemExit as done:
    print("caught", done.code, gc.get_freeze_count())
"""


def test_main_freezes_the_heap_only_at_interpreter_exit(tmp_path):
    argv = ["gadgets", "newcomb", "--config", write_config(tmp_path, NEWCOMB), "--out", str(tmp_path / "out")]
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", EXIT_HOOK_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    caught, at_exit = done.stdout.splitlines()
    assert caught == "caught 0 0"
    assert at_exit.startswith("at exit ") and int(at_exit.split()[-1]) > 0, at_exit


# one GOOD_CONFIGS command a group, witness loading numpy, and a config refused after it has
WHOLE_OUTPUT = [
    *(
        next(row for row in GOOD_CONFIGS if row[:2] == pair)
        for pair in [
            ("arena", "classify"),
            ("freestate", "witness"),
            ("gadgets", "newcomb"),
            ("solomonoff", "predict"),
            ("soph", "table"),
        ]
    ),
    ("freestate", "witness", {**WITNESS, "tol": -0.5}),
]


@pytest.mark.parametrize(
    "group, command, config", WHOLE_OUTPUT, ids=[*(f"{g}-{c}" for g, c, _ in WHOLE_OUTPUT[:-1]), "refused"]
)
def test_output_is_whole_after_the_heap_is_frozen_at_exit(tmp_path, capsys, group, command, config):
    # a frozen exit runs no collection, so nothing may rely on one to flush a file
    argv = [group, command, "--seed", "1", "--config", write_config(tmp_path, config)]
    expected = invoke(capsys, *argv)
    printed = run_module(*argv)
    assert (printed.returncode, printed.stdout, printed.stderr) == expected
    out = tmp_path / "report"
    written = run_module(*argv, "--out", str(out))
    assert (written.returncode, written.stdout, written.stderr) == (expected[0], "", expected[2])
    if expected[0] == 0:
        assert out.read_bytes() == expected[1].encode()
    else:
        assert expected[2].startswith("error: ") and expected[2].count("\n") == 1, expected[2]
        assert not out.exists()


def test_a_single_thread_witness_keeps_its_pinned_report(tmp_path):
    # python -m knightian goes through main, which runs OpenBLAS on one thread
    command, seed, config, digest = PINNED_FREESTATE_REPORTS["hermitian-witness"]
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    argv = ["freestate", command, "--config", write_config(tmp_path, config), "--seed", str(seed)]
    done = subprocess.run(
        [sys.executable, "-m", "knightian", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest


def test_a_deviation_past_the_float_range_is_one_error_line(tmp_path):
    # 1e308 - (-1e308) overflows to inf: the report is the error alone, with no numpy warning
    huge = [[[0, 0], [1e308, 0]], [[-1e308, 0], [0, 0]]]
    config = write_config(tmp_path, {**WITNESS, "freestate_b": {"dim": 2, "generators": [huge]}})
    done = run_module("freestate", "witness", "--config", config)
    assert done.returncode == 1
    assert done.stderr == (
        "error: config['freestate_b']['generators'][0]: matrix is not Hermitian (max deviation inf)\n"
    )


def test_a_norm_past_the_float_range_is_one_error_line(tmp_path):
    # the norm of amplitudes near 1e308 overflows to inf, with no numpy warning on stderr
    config = write_config(tmp_path, {"psi": [[1e308, 0], [1e308, 0]], "phi": [[1, 0], [0, 0]]})
    done = run_module("freestate", "clone-check", "--config", config)
    assert done.returncode == 1
    assert done.stderr == "error: config['psi']: state norm inf is not 1 within 1e-09\n"


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


def test_soph_table_csv_has_one_column_per_distinct_c(tmp_path, capsys):
    # a repeated c wrote its header twice (x,k,soph_1,soph_1), while the JSON row keys it once
    cs = [1, 0, 1]
    config = write_config(tmp_path, {"lengths": [2], "cs": cs, "bound": 12})
    report = invoke_json(capsys, "soph", "table", "--config", config)
    code, out, err = invoke(capsys, "soph", "table", "--config", config, "--format", "csv")
    assert code == 0, err
    header, *lines = out.strip().splitlines()
    assert header == "x,k,soph_1,soph_0"
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert rows == [
        {key: "" if value is None else str(value) for key, value in row.items()}
        for row in report["result"]["rows"]
    ]


def test_freestate_witness_cli(tmp_path, capsys):
    payload_a = cli_freestate.freestate_to_payload(fs.Freestate(2, (fs.ket("0").projector(),)))
    payload_b = cli_freestate.freestate_to_payload(fs.Freestate(2, (oracles.maximally_mixed(2),)))
    config = write_config(tmp_path, {"freestate_a": payload_a, "freestate_b": payload_b})
    report = invoke_json(capsys, "freestate", "witness", "--config", config, "--seed", "1")
    assert report["result"]["kind"] == "pure"
    assert report["result"]["gap"] == pytest.approx(0.5, abs=1e-6)


def test_freestate_witness_cli_reports_hermitian_and_none(tmp_path, capsys):
    # a pinned draw where no pure state separates (see test_freestate.py)
    single, hull = pushed_out_pair(np.random.default_rng(7))
    payload = {
        "freestate_a": cli_freestate.freestate_to_payload(single),
        "freestate_b": cli_freestate.freestate_to_payload(hull),
        "restarts": 8,
    }
    config = write_config(tmp_path, payload)
    result = invoke_json(capsys, "freestate", "witness", "--config", config, "--seed", "7")["result"]
    assert set(result) == {"kind", "operator", "value_on_state", "interval_on_other", "gap"}
    assert result["kind"] == "hermitian"
    w = cli_freestate._matrix_from_payload(result["operator"])
    value = float(np.real(np.trace(w @ single.generators[0].entries)))
    vals = [float(np.real(np.trace(w @ g.entries))) for g in hull.generators]
    assert result["gap"] == pytest.approx(max(value - max(vals), min(vals) - value), abs=1e-12)
    assert result["gap"] > 1e-6
    config = write_config(tmp_path, {**WITNESS, "tol": 1.0, "restarts": 2})
    result = invoke_json(capsys, "freestate", "witness", "--config", config, "--seed", "1")["result"]
    assert result == {"kind": "none"}


@pytest.mark.parametrize("seed, code", [(-1, 1), (0, 0), (2**64 - 1, 0), (2**64, 1)])
def test_seed_is_checked_before_anything_runs(tmp_path, capsys, seed, code):
    # restarts run on this draw, so numpy refused -1 there, naming no key, while
    # a draw whose spectral start cleared tol took it, as did the arena
    single, hull = pushed_out_pair(np.random.default_rng(2))
    witness = {"freestate_a": cli_freestate.freestate_to_payload(single), "freestate_b": cli_freestate.freestate_to_payload(hull)}
    for command, config in ((("freestate", "witness"), {**witness, "restarts": 2}), (("arena", "run"), RUN)):
        path = write_config(tmp_path, config)
        got, out, err = invoke(capsys, *command, "--config", path, "--seed", str(seed))
        assert got == code, err
        assert code == 0 or "--seed" in err, err


def test_freestate_clone_check_cli(tmp_path, capsys):
    config = write_config(
        tmp_path,
        {"psi": [[1, 0], [0, 0]], "phi": [[0.7071067811865476, 0], [0.7071067811865476, 0]]},
    )
    report = invoke_json(capsys, "freestate", "clone-check", "--config", config)
    assert report["result"]["feasible"] is False


def test_freestate_clone_check_refuses_an_empty_state(tmp_path, capsys):
    # it exited 1 with "amplitudes must be a length-0 vector", a shape the empty list has
    config = write_config(tmp_path, {"psi": [], "phi": []})
    code, out, err = invoke(capsys, "freestate", "clone-check", "--config", config)
    assert code == 1 and out == ""
    assert "config['psi']: a pure state needs at least one amplitude" in err, err


def test_freestate_mix_cli_matches_expansion(tmp_path, capsys):
    a = cli_freestate.freestate_to_payload(
        fs.Freestate(2, (fs.ket("0").projector(), fs.ket("1").projector()))
    )
    b = cli_freestate.freestate_to_payload(
        fs.Freestate(2, (fs.ket("+").projector(), fs.ket("-").projector()))
    )
    config = write_config(
        tmp_path,
        {"components": [{"weight": "1/2", "freestate": a}, {"weight": "1/2", "freestate": b}]},
    )
    report = invoke_json(capsys, "freestate", "mix", "--config", config)
    assert len(report["result"]["freestate"]["generators"]) == 4


def test_quantum_interval_over_the_cli(tmp_path, capsys):
    state = fs.Freestate(2, (fs.ket("0").projector(), fs.ket("1").projector()))
    effect = fs.Effect(2, fs.ket("0").projector().entries)
    config = write_config(
        tmp_path,
        {
            "freestate": cli_freestate.freestate_to_payload(state),
            "effect": oracles.effect_to_payload(effect),
        },
    )
    report = invoke_json(capsys, "freestate", "interval", "--config", config)
    assert report["result"] == {"lo": 0.0, "hi": 1.0}


def test_quantum_or_over_the_cli(tmp_path, capsys):
    a = cli_freestate.freestate_to_payload(fs.Freestate(2, (fs.ket("0").projector(),)))
    b = cli_freestate.freestate_to_payload(fs.Freestate(2, (fs.ket("1").projector(),)))
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

    table = cli._commands("gadgets")
    _, schema, csv_rows = table["chsh-classical"]
    monkeypatch.setitem(table, "chsh-classical", (boom, schema, csv_rows))
    code, out, err = invoke(capsys, "gadgets", "chsh-classical")
    assert code == 2
    assert "internal error" in err


def test_an_internal_key_error_exits_two(capsys, monkeypatch):
    # bad input raises KnightianError or ValueError, so a KeyError is the program's fault
    def boom(config, seed):
        raise KeyError("wires crossed")

    table = cli._commands("gadgets")
    monkeypatch.setitem(table, "chsh-classical", (boom, *table["chsh-classical"][1:]))
    code, out, err = invoke(capsys, "gadgets", "chsh-classical")
    assert code == 2
    assert "internal error: KeyError" in err


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

    # a micro self-loop reported "ok": true beside "acyclic": false
    config = write_config(tmp_path, {"nodes": [{"id": "f", "kind": "micro", "time": 0}], "edges": [["f", "f"]]})
    result = invoke_json(capsys, "gadgets", "causal", "--config", config)["result"]
    assert (result["ok"], result["acyclic"]) == (False, False)
    assert [(v["rule"], v["subject"]) for v in result["violations"]] == [("R2", ["f"])]
