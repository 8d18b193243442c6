"""The `arena` commands: run and classify, both seeded, and the reader of their subjects."""

from __future__ import annotations

from fractions import Fraction

from . import arena
from .cli import BITS, INT, RATIONAL, STRING, ByKind, Either, Kind, Opt, _fraction, _given, at
from .errors import KnightianError


def _open_unit(value) -> Fraction:
    p = _fraction(value)
    if not 0 < p < 1:
        raise ValueError(f"{p} lies outside (0, 1)")
    return p


OPEN_UNIT = Kind("a rational in (0, 1)", read=_open_unit)

LITERAL_BIT = Kind('"0", "1", {"prob": rational} or {"freebit": int}', lambda v: v in ("0", "1"))
EMIT = Either("prob", {"prob": RATIONAL}, Either("freebit", {"freebit": INT}, LITERAL_BIT))
INPUT_BIT = Kind('"0" or "1"', lambda v: v in ("0", "1"))
EDGE = {"from": STRING, "on_input": INPUT_BIT, "to": STRING, "emit": EMIT}
SUBJECT_OBJECT = {
    "states": [STRING], "initial": STRING, "edges": [EDGE],
    "kind": Opt(STRING), "freebit_budget": Opt(INT),
}
STOCK_NAME = Kind("a stock subject name or an object with 'states'", lambda v: isinstance(v, str))
SUBJECT = Either("states", SUBJECT_OBJECT, STOCK_NAME)
PREDICTOR = ByKind(
    table={"name": Opt(STRING), "context": Opt(INT)},
    bayes={"name": Opt(STRING), "family": [SUBJECT]},
)
INPUT_MODEL = ByKind(uniform={}, fixed={"bits": BITS})
GAME = {
    "t": INT, "u": INT, "epsilon": OPEN_UNIT, "delta": OPEN_UNIT, "trials": INT,
    "input_model": Opt(INPUT_MODEL), "adversary": Opt(STRING),
}


def subject_from_payload(payload: dict) -> arena.Subject:
    edges = {}
    for k, e in enumerate(payload["edges"]):
        emit = e["emit"]
        if isinstance(emit, str):
            emission: arena.Emission = ("bit", emit)
        elif "prob" in emit:
            emission = ("prob", emit["prob"])
        else:
            emission = ("freebit", emit["freebit"])
        key = (e["from"], e["on_input"])
        if key in edges:
            raise arena.SubjectSpecError(
                f"'edges'[{k}] is a second edge from {key[0]!r} on input {key[1]!r}"
            )
        edges[key] = arena.Edge(e["to"], emission)
    return arena.Subject(
        states=tuple(payload["states"]),
        initial=payload["initial"],
        edges=edges,
        freebit_budget=payload.get("freebit_budget", 0),
    )


def _subject(spec, path: str) -> arena.Subject:
    """A stock subject by name, or a subject object parsed once; path names the entry."""
    if not isinstance(spec, str):
        with at(path):
            return subject_from_payload(spec)
    if spec not in arena.STOCK_SUBJECTS:
        raise KnightianError(
            f"{path}: unknown stock subject {spec!r}; have {sorted(arena.STOCK_SUBJECTS)}"
        )
    return arena.STOCK_SUBJECTS[spec]()


def _predictor(spec: dict, path: str):
    if spec["kind"] == "table":
        return arena.TablePredictor(**_given(spec, ("context",)))
    members = enumerate(spec["family"])
    return arena.BayesPredictor([_subject(m, f"{path}['family'][{i}]") for i, m in members])


def _cmd_run(config: dict, seed) -> dict:
    if seed is None:
        raise KnightianError("arena run is stochastic: --seed is required")
    cfg = arena.GameConfig(**config["game"], seed=seed)
    verdict = arena.run_game(
        _subject(config["subject"], "config['subject']"),
        _predictor(config["predictor"], "config['predictor']"),
        cfg,
    )
    return {"verdict": verdict.to_payload()}


def _cmd_classify(config: dict, seed) -> dict:
    if seed is None:
        raise KnightianError("arena classify is stochastic: --seed is required")
    subjects = [_subject(s, f"config['class'][{i}]") for i, s in enumerate(config["class"])]
    predictors = [
        (spec.get("name", spec["kind"]), _predictor(spec, f"config['predictors'][{i}]"))
        for i, spec in enumerate(config["predictors"])
    ]
    horizon, schedule = config["horizon"], config["schedule"]
    for i, (t, _, _) in enumerate(schedule):
        arena.check_window(t, horizon, "'horizon'", f"config['schedule'][{i}]: ")
    game = _given(config, ("trials", "input_model"))
    games = [
        arena.GameConfig(t, horizon, eps, delta, seed=seed, **game) for t, eps, delta in schedule
    ]
    return arena.classify(subjects, predictors, games)


CLASSIFY = {
    "class": [SUBJECT], "predictors": [PREDICTOR], "trials": INT, "horizon": INT,
    "schedule": [(INT, OPEN_UNIT, OPEN_UNIT)],  # [t, epsilon, delta] rows
    "input_model": Opt(INPUT_MODEL),
}

# command -> (handler(config, seed), config schema, CSV rows or None)
COMMANDS = {
    "run": (_cmd_run, {"subject": SUBJECT, "predictor": PREDICTOR, "game": GAME}, None),
    "classify": (_cmd_classify, CLASSIFY, None),
}
