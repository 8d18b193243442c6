"""Seeded command lists for the benchmark workloads.

Each workload is a list of CLI commands, built from ``--seed`` alone: the
same seed gives the same configs, and the program under test only ever sees
the generated configs.  Sizes are fixed per workload so that a seed changes
what is computed but not how much, which keeps run-to-run spread low.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
# Kept out of every tuning run: a claimed gain is re-checked on this seed.
HELD_OUT_SEED = 90210


@dataclass(frozen=True)
class Command:
    label: str  # unique within a workload; keys the reference digests
    group: str
    name: str
    config: dict | None = None  # None: run without --config
    seed: int | None = None  # the CLI's own --seed, where the command takes one


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _solomonoff(rng: random.Random) -> list[Command]:
    # q = RAND; JMP emits fair bits forever, so it supports any sequence
    q = "000100100100100"
    return [
        Command("predict-b18-h6", "solomonoff", "predict", {"bound": 18, "history": _bits(rng, 6)}),
        Command("predict-b20", "solomonoff", "predict", {"bound": 20, "history": ""}),
        Command("diagonal-b18-n16", "solomonoff", "diagonal", {"bound": 18, "n": 16}),
        Command(
            "regret-b18-12bits",
            "solomonoff",
            "regret",
            {"bound": 18, "q": q, "sequence": _bits(rng, 12), "eps": ["1/10", "1/2"]},
        ),
        Command("omega-b20", "solomonoff", "omega", {"bound": 20}),
    ]


def _soph(rng: random.Random) -> list[Command]:
    elements = sorted(rng.sample([format(i, "03b") for i in range(8)], 3))
    return [
        Command(
            "table-l1-7-c0-9-b24",
            "soph",
            "table",
            {"lengths": list(range(1, 8)), "cs": list(range(10)), "bound": 24},
        ),
        Command("k-b22", "soph", "k", {"x": _bits(rng, 7), "bound": 22}),
        Command("kset-b22", "soph", "kset", {"elements": elements, "bound": 22}),
        Command("soph-b22", "soph", "soph", {"x": _bits(rng, 6), "c": 3, "bound": 22}),
    ]


def _freebit_subject(rng: random.Random, train: int, freebits: int) -> dict:
    """A chain that echoes its input while training, then mixes freebits and coins.

    Echoing makes every training context deterministic, so a table predictor
    forecasts with certainty and the cost of a trial does not depend on the
    seed.  The test phase puts ``freebits`` freebits and as many fair coins in
    a seeded order.
    """
    kinds = ["freebit"] * freebits + ["coin"] * freebits
    rng.shuffle(kinds)
    n = train + len(kinds)
    edges = []
    used = 0
    for v in range(n):
        kind = "echo" if v < train else kinds[v - train]
        for i in "01":
            emit = {"echo": i, "coin": {"prob": "1/2"}, "freebit": {"freebit": used}}[kind]
            edges.append({"from": f"c{v}", "on_input": i, "to": f"c{v + 1}", "emit": emit})
        used += kind == "freebit"
    edges += [{"from": f"c{n}", "on_input": i, "to": f"c{n}", "emit": "0"} for i in "01"]
    return {
        "kind": "hybrid",
        "states": [f"c{v}" for v in range(n + 1)],
        "initial": "c0",
        "freebit_budget": freebits,
        "edges": edges,
    }


def _arena(rng: random.Random) -> list[Command]:
    train = 6
    # every rotation of 0011 shows all four two-bit input windows within 5 steps
    pattern = rng.choice(["0011", "0110", "1100", "1001"])
    adversary_game = {
        "subject": _freebit_subject(rng, train, 8),
        "predictor": {"kind": "table"},
        "game": {
            "t": train, "u": train + 16, "epsilon": "0.05", "delta": "0.05", "trials": 2,
            "input_model": {"kind": "fixed", "bits": pattern},
        },
    }
    bayes_game = {
        "subject": "parrot",
        "predictor": {"kind": "bayes", "family": ["parrot", "fair-coin", "gerbil"]},
        "game": {"t": 8, "u": 20, "epsilon": "0.05", "delta": "0.05", "trials": 2},
    }
    classify = {
        "class": ["parrot", "fair-coin", "gerbil"],
        "predictors": [{"kind": "table"}],
        # the gerbil spends its freebit at step 2, so training must stop before it
        "schedule": [[2, "0.1", "0.1"]],
        "trials": 40,
        "horizon": 10,
    }
    return [
        Command("run-table-8freebits", "arena", "run", adversary_game, rng.randrange(2**32)),
        Command("run-bayes-h12", "arena", "run", bayes_game, rng.randrange(2**32)),
        Command("classify-stock", "arena", "classify", classify, rng.randrange(2**32)),
    ]


def _classical(rng: random.Random, k: int) -> dict:
    gens = []
    for _ in range(k):
        p = rng.randrange(1, 100)
        gens.append([f"0.{100 - p:02d}", f"0.{p:02d}"])
    return {"n": 2, "generators": gens}


def _unit(rng: random.Random, dim: int) -> list[complex]:
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(dim)]
    norm = math.sqrt(sum(abs(z) ** 2 for z in v))
    return [z / norm for z in v]


def _projector_payload(psi: list[complex]) -> list:
    # psi_i * conj(psi_j) is exactly the conjugate of its transpose, so the
    # payload is Hermitian to the last bit
    return [[[z.real, z.imag] for z in (a * b.conjugate() for b in psi)] for a in psi]


def _angles(rng: random.Random) -> list[float]:
    return [round(rng.uniform(-math.pi / 2, math.pi / 2), 6) for _ in range(2)]


# the two-node graph of the CLI tests
CAUSAL_GRAPH = {
    "nodes": [{"id": "f", "kind": "micro", "time": 0}, {"id": "F", "kind": "macro", "time": 1}],
    "edges": [["F", "f"]],
}


def _quick(rng: random.Random) -> list[Command]:
    dim = 4
    pure = {"dim": dim, "generators": [_projector_payload(_unit(rng, dim)) for _ in range(2)]}
    mixed = {
        "dim": dim,
        "generators": [[[[1 / dim if i == j else 0.0, 0.0] for j in range(dim)] for i in range(dim)]],
    }
    theta = rng.uniform(0, math.pi / 2)
    psi = [[math.cos(theta), 0.0], [math.sin(theta), 0.0]]
    phase = cmath.exp(1j * rng.uniform(0, math.pi))
    phi = [[1 / math.sqrt(2), 0.0], [(phase / math.sqrt(2)).real, (phase / math.sqrt(2)).imag]]
    return [
        Command("chsh-classical", "gadgets", "chsh-classical"),
        Command("chsh-quantum", "gadgets", "chsh-quantum", {"alice": _angles(rng), "bob": _angles(rng)}),
        Command("bostrom", "gadgets", "bostrom", {"variant": rng.choice([1, 2])}),
        Command(
            "newcomb",
            "gadgets",
            "newcomb",
            {"policy": rng.choice(["one-box", "two-box"]), "accuracy": f"{rng.randrange(50, 100)}/100"},
        ),
        # fixed, not seeded: with two or more R2 violations the report order
        # follows PYTHONHASHSEED (see README.md, known defects)
        Command("causal", "gadgets", "causal", CAUSAL_GRAPH),
        Command("interval", "freestate", "interval", {"classical": _classical(rng, 5), "event": [1]}),
        Command("or", "freestate", "or", {"classicals": [_classical(rng, 2) for _ in range(3)]}),
        Command(
            "mix",
            "freestate",
            "mix",
            {"components": [{"weight": "1/2", "classical": _classical(rng, 2)} for _ in range(2)]},
        ),
        Command("clone-check", "freestate", "clone-check", {"psi": psi, "phi": phi}),
        Command(
            "witness-d4",
            "freestate",
            "witness",
            {"freestate_a": pure, "freestate_b": mixed},
            rng.randrange(2**32),
        ),
        Command("k-b16", "soph", "k", {"x": _bits(rng, 4), "bound": 16}),
        Command("predict-b16", "solomonoff", "predict", {"bound": 16, "history": _bits(rng, 4)}),
    ]


WORKLOADS = {
    "solomonoff": _solomonoff,
    "soph": _soph,
    "arena": _arena,
    "quick": _quick,
}


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's command list for this seed (one pass)."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
