"""Batch front-end: one subcommand per experiment family.

JSON config in, JSON (or CSV, where a table is the natural shape) out.
Every command has one entry in ``COMMANDS``: its handler, its config schema
and, for the tabular commands, its CSV rows.  ``dispatch`` checks the config
against the schema before the handler runs: unknown and missing keys, and
values of the wrong type (a float where an integer belongs, a number where a
bitstring belongs), are rejected by name.  The check returns the typed
config, which the handler reads: each rational is parsed into a Fraction
there, once, and one that no report could print is refused by its key.  A
handler passes on only the optional keys a config sets, so each default is
stated once, in the library's signature.  Every report embeds the artifact
version, the machine spec version, the seed, and an echo of the config as
given; identical (config, seed, version) triples produce byte-identical
reports.

A command loads only the modules it reads: each handler imports its family's
module on its first line, so a `solomonoff` command never loads `numpy`, and
a classical freestate command reads `classical` alone, which loads no `numpy`
either.  The envelope's machine version is the package's `MACHINE_VERSION`,
so only the commands that build a machine config, or decode a program, load
`toyvm`.

Exit codes: 0 success, 1 validation/usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Callable

from . import MACHINE_VERSION, __version__
from .errors import KnightianError, at, exact, too_long


class UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract wants 1
    def error(self, message):
        raise UsageExit(f"{message}\n\n{self.format_usage()}")


#: the largest decimal exponent a rational may carry, as many as the digits
#: Python parses an int from by default: Fraction builds 10**exponent at once,
#: so "1e-10000000" alone would hold a command for about 11 s
EXPONENT_GUARD = 4300


def _fraction(value) -> Fraction:
    """value read exactly, a float as the decimal it prints as; ValueError if it is
    no rational (a bool prints as "True" or "False", which is none)."""
    text = str(value)
    _mantissa, mark, exponent = text.lower().partition("e")
    if mark and abs(int(exponent)) > EXPONENT_GUARD:
        raise ValueError(f"the exponent of {text!r} lies beyond {EXPONENT_GUARD}")
    return Fraction(text)


def _open_unit(value) -> Fraction:
    p = _fraction(value)
    if not 0 < p < 1:
        raise ValueError(f"{p} lies outside (0, 1)")
    return p


def _rat(f: Fraction) -> dict:
    return {"exact": str(f), "float": float(f)}


# -- config schemas -----------------------------------------------------------------
#
# A value kind is one of: a Kind, a leaf test or reader; a one-item list [k], a
# list of any length whose every item is a k; a tuple (k1, k2, ...), a list of
# exactly those kinds in order; a dict, an object with exactly these keys, each
# required unless its kind is wrapped in Opt; an Either of an object schema and
# any kind, itself possibly an Either; or a ByKind, an object schema picked by
# the object's 'kind'.  _check returns the value with each read leaf replaced
# by what its reader made of it; a schema states no defaults, as an optional
# key left out stays out.  Kind, Opt, Either and ByKind are plain classes: a
# dataclass adds about 1 ms to every CLI start.


class Kind:
    def __init__(self, name: str, test: Callable | None = None, read: Callable | None = None):
        self.name = name  # what the value must be, for the error message
        self.test = test  # value -> bool
        self.read = read  # in place of test: value -> its typed form, or ValueError


class Opt:
    def __init__(self, kind):
        self.kind = kind


class Either:
    """`present` when the value is an object holding the key `lead`, `absent` otherwise."""

    def __init__(self, lead: str, present: dict, absent):
        self.lead, self.present, self.absent = lead, present, absent


class ByKind:
    """The object schema named by the value's 'kind', a key of every schema."""

    def __init__(self, **schemas: dict):
        self.schemas = {tag: {"kind": STRING, **schema} for tag, schema in schemas.items()}
        tags = " or ".join(f'"{tag}"' for tag in schemas)
        self.unknown = Kind(f"an object whose 'kind' is {tags}", lambda v: False)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # json.load accepts NaN and +-Infinity, and an int may lie beyond float range
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


INT = Kind("an integer", _is_int)
REAL = Kind("a finite real number", _is_real)
BITS = Kind("a bitstring", lambda v: isinstance(v, str) and set(v) <= {"0", "1"})
RATIONAL = Kind("a rational", read=_fraction)
OPEN_UNIT = Kind("a rational in (0, 1)", read=_open_unit)
BOOL = Kind("a boolean", lambda v: isinstance(v, bool))
STRING = Kind("a string", lambda v: isinstance(v, str))

MACHINE = {"step_budget": Opt(INT), "rand_budget": Opt(INT), "output_budget": Opt(INT)}
MATRIX = [[(REAL, REAL)]]  # rows of [re, im] entries
CLASSICAL = {"n": INT, "generators": [[RATIONAL]]}
FREESTATE = {"dim": INT, "generators": [MATRIX]}
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


def _bad(path: str, what: str, value) -> KnightianError:
    return KnightianError(f"{path} must be {what}, got {value!r}")


def _check(value, kind, path: str = "config"):
    """value typed by kind; raise KnightianError naming the offending key unless it is of kind.

    path is the subscript chain from the config root, e.g. config['game']['t'].
    """
    if isinstance(kind, Opt):
        kind = kind.kind
    while isinstance(kind, Either):
        kind = kind.present if isinstance(value, dict) and kind.lead in value else kind.absent
    if isinstance(kind, ByKind):
        tag = value.get("kind") if isinstance(value, dict) else None
        kind = kind.schemas.get(tag, kind.unknown) if isinstance(tag, str) else kind.unknown
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise _bad(path, "an object", value)
        required = {key for key, k in kind.items() if not isinstance(k, Opt)}
        for problem, keys in (
            ("unknown", value.keys() - kind.keys()),
            ("missing", required - value.keys()),
        ):
            if keys:
                raise KnightianError(
                    f"{problem} key(s) in {path}: {', '.join(map(repr, sorted(keys)))}"
                )
        return {key: _check(value[key], kind[key], f"{path}[{key!r}]") for key in sorted(value)}
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise _bad(path, "a list", value)
        return [_check(item, kind[0], f"{path}[{i}]") for i, item in enumerate(value)]
    if isinstance(kind, tuple):
        if not (isinstance(value, list) and len(value) == len(kind)):
            raise _bad(path, f"a list of {len(kind)} values", value)
        return [_check(item, k, f"{path}[{i}]") for i, (item, k) in enumerate(zip(value, kind))]
    if kind.read is None:
        if not kind.test(value):
            raise _bad(path, kind.name, value)
        return value
    try:
        typed = kind.read(value)
    except (ValueError, ZeroDivisionError):
        raise _bad(path, kind.name, value) from None
    if exact(typed) is None:
        raise KnightianError(too_long(path))
    return typed


def _given(config: dict, keys) -> dict:
    """The items of config under keys: a key left out takes the library's default."""
    return {key: config[key] for key in keys if key in config}


def _machine_config(config: dict) -> toyvm.MachineConfig:
    from . import toyvm

    return toyvm.MachineConfig(**_given(config, MACHINE))


# -- freestate family ---------------------------------------------------------------


def _same_dim(path: str, dim: int, first: str, first_dim: int) -> None:
    if dim != first_dim:
        raise KnightianError(f"{path} = {dim} must equal {first} = {first_dim}")


def _cmd_freestate_interval(config: dict, seed) -> dict:
    if "classical" in config:
        from . import classical

        s = classical.classical_from_payload(config["classical"], "config['classical']")
        lo, hi = classical.event_interval(s, config["event"])
        return {"lo": float(lo), "hi": float(hi), "lo_exact": str(lo), "hi_exact": str(hi)}
    from . import freestate

    s = freestate.freestate_from_payload(config["freestate"], "config['freestate']")
    e = freestate.effect_from_payload(config["effect"], "config['effect']")
    _same_dim("config['effect']['dim']", e.dim, "config['freestate']['dim']", s.dim)
    lo, hi = freestate.effect_interval(s, e)
    return {"lo": lo, "hi": hi}


def _alike(entries: list[tuple[str, str, dict]]) -> tuple[str, Callable, list]:
    """The kind of (path, kind, payload) entries, its payload writer, and their sets, parsed.

    Every entry must have the first one's kind and size; the first that does
    not is named by its path.  Only a quantum set loads `freestate`.
    """
    first_path, kind, first = entries[0]
    if kind == "classical":
        from . import classical

        parse, write, size = classical.classical_from_payload, classical.classical_to_payload, "n"
    else:
        from . import freestate

        parse, write, size = freestate.freestate_from_payload, freestate.freestate_to_payload, "dim"
    for path, other, payload in entries[1:]:
        if other != kind:
            raise KnightianError(f"{path} must be a {kind!r} set like the first one, got {other!r}")
        _same_dim(f"{path}[{size!r}]", payload[size], f"{first_path}[{size!r}]", first[size])
    return kind, write, [parse(payload, path) for path, _, payload in entries]


def _cmd_freestate_or(config: dict, seed) -> dict:
    from . import classical

    key = "classicals" if "classicals" in config else "freestates"
    if len(config[key]) < 2:
        raise KnightianError(f"{key!r} must hold at least two freestates")
    kind, write, states = _alike(
        [(f"config[{key!r}][{i}]", key[:-1], payload) for i, payload in enumerate(config[key])]
    )
    return {kind: write(classical.knightian_or(*states))}


def _cmd_freestate_mix(config: dict, seed) -> dict:
    from . import classical

    comps = config["components"]
    if not comps:
        raise KnightianError("'components' must hold at least one component")
    entries = []
    for i, c in enumerate(comps):
        kind = "classical" if "classical" in c else "freestate"
        entries.append((f"config['components'][{i}][{kind!r}]", kind, c[kind]))
    kind, write, states = _alike(entries)
    weights = [c["weight"] for c in comps]
    return {kind: write(classical.prob_mix(list(zip(weights, states))))}


def _cmd_freestate_witness(config: dict, seed) -> dict:
    from . import freestate

    a = freestate.freestate_from_payload(config["freestate_a"], "config['freestate_a']")
    b = freestate.freestate_from_payload(config["freestate_b"], "config['freestate_b']")
    _same_dim("config['freestate_b']['dim']", b.dim, "config['freestate_a']['dim']", a.dim)
    w = freestate.separating_witness(a, b, seed=seed or 0, **_given(config, ("tol", "restarts")))
    if w is None:
        return {"kind": "none"}
    found = {
        "value_on_state": w.value_on_state,
        "interval_on_other": list(w.interval_on_other),
        "gap": w.gap,
    }
    if isinstance(w, freestate.PureWitness):
        psi = [[float(v.real), float(v.imag)] for v in w.psi.amplitudes]
        return {"kind": "pure", "psi": psi, **found}
    return {"kind": "hermitian", "operator": freestate._matrix_payload(w.operator), **found}


def _cmd_freestate_clone_check(config: dict, seed) -> dict:
    from . import freestate

    psi = freestate.pure_from_payload(config["psi"], "config['psi']")
    phi = freestate.pure_from_payload(config["phi"], "config['phi']")
    if phi.dim != psi.dim:
        raise KnightianError(
            f"config['phi'] has {phi.dim} amplitudes, but config['psi'] has {psi.dim}"
        )
    return {
        "feasible": freestate.clone_feasible(psi, phi),
        "overlap_modulus": abs(psi.overlap(phi)),
    }


# -- solomonoff family ----------------------------------------------------------------


def _cmd_solomonoff_predict(config: dict, seed) -> dict:
    from . import prior

    mixture = prior.build_mixture(config["bound"], _machine_config(config))
    for bit in config["history"]:
        mixture = prior.update(mixture, bit)
    p = prior.predict_next(mixture)
    result = {"p_next_one": _rat(p), "history": config["history"], "bound": mixture.bound}
    if config.get("snapshot"):
        result["mixture"] = prior.mixture_snapshot(mixture)
    return result


def _cmd_solomonoff_regret(config: dict, seed) -> dict:
    from . import prior, toyvm

    mixture = prior.build_mixture(config["bound"], _machine_config(config))
    try:
        q = toyvm.decode(config["q"])
    except KnightianError as exc:
        raise KnightianError(f"'q' is not one program: {exc}") from exc
    report = prior.regret_report(q, config["sequence"], mixture, config["eps"])
    curve = []
    for step, ratio in enumerate(report.per_step_ratios, start=1):
        curve.append(
            {
                "step": step,
                "bit": report.sequence[step - 1],
                "p_U": _rat(report.per_step_mixture[step - 1]),
                "p_Q": _rat(report.per_step_hypothesis[step - 1]),
                "ratio": _rat(ratio),
                "cum_ratio": _rat(report.cumulative[step]),
            }
        )
    return {
        "q": q.code,
        "q_length": len(q),
        "floor_2_pow_minus_q": _rat(Fraction(1, 2 ** len(q))),
        "ratio_product": _rat(report.ratio_product),
        "dominance_holds": report.ratio_product >= Fraction(1, 2 ** len(q)),
        "mistakes": {str(eps): n for eps, n in report.mistakes.items()},
        "curve": curve,
    }


def _regret_csv(result: dict):
    yield "step,bit,p_U,p_Q,ratio,cum_ratio"
    for row in result["curve"]:
        yield (
            f"{row['step']},{row['bit']},{row['p_U']['exact']},{row['p_Q']['exact']},"
            f"{row['ratio']['exact']},{row['cum_ratio']['exact']}"
        )


def _cmd_solomonoff_diagonal(config: dict, seed) -> dict:
    from . import prior

    mixture = prior.build_mixture(config["bound"], _machine_config(config))
    bits, steps = prior.diagonal_sequence(mixture, config["n"])
    return {
        "bits": bits,
        "per_step": [
            {"bit": s.bit, "conditional": _rat(s.conditional), "cumulative": _rat(s.cumulative)}
            for s in steps
        ],
    }


def _cmd_solomonoff_omega(config: dict, seed) -> dict:
    from . import prior

    cfg = _machine_config(config)
    value = prior.omega_truncated(config["bound"], cfg)
    return {"omega": _rat(value), "bound": config["bound"], "step_budget": cfg.step_budget}


# -- soph family ----------------------------------------------------------------------


def _complexity_payload(result) -> dict:
    from . import complexity

    if isinstance(result, complexity.NotFound):
        return {
            "found": False,
            "search_bound": result.search_bound,
            "step_budget": result.step_budget,
        }
    out = {
        "found": True,
        "value": result.value,
        "witness_program": result.witness_program.code,
        "search_bound": result.search_bound,
        "step_budget": result.step_budget,
    }
    if isinstance(result, complexity.SophisticationResult):
        out["witness_set"] = list(result.witness_set.elements)
        out["k_of_x"] = result.k_of_x
    return out


def _cmd_soph_k(config: dict, seed) -> dict:
    from . import complexity

    return _complexity_payload(
        complexity.kolmogorov(config["x"], config["bound"], _machine_config(config))
    )


def _cmd_soph_kset(config: dict, seed) -> dict:
    from . import complexity

    listing = complexity.SetListing(tuple(config["elements"]))
    return _complexity_payload(
        complexity.set_complexity(listing, config["bound"], _machine_config(config))
    )


def _cmd_soph_soph(config: dict, seed) -> dict:
    from . import complexity

    return _complexity_payload(
        complexity.sophistication(
            config["x"], config["c"], config["bound"], _machine_config(config)
        )
    )


def _cmd_soph_table(config: dict, seed) -> dict:
    from . import complexity

    rows = complexity.tabulate(
        config["lengths"], config["cs"], config["bound"], _machine_config(config)
    )
    return {"rows": rows, "cs": config["cs"]}


def _table_csv(result: dict):
    cs = result["cs"]
    yield "x,k," + ",".join(f"soph_{c}" for c in cs)
    for row in result["rows"]:
        cells = [row["x"], "" if row["k"] is None else str(row["k"])]
        for c in cs:
            v = row[f"soph_{c}"]
            cells.append("" if v is None else str(v))
        yield ",".join(cells)


# -- arena family ----------------------------------------------------------------------


def _subject(spec, path: str) -> arena.Subject:
    """A stock subject by name, or a subject object parsed once; path names the entry."""
    from . import arena

    if not isinstance(spec, str):
        with at(path):
            return arena.subject_from_payload(spec)
    if spec not in arena.STOCK_SUBJECTS:
        raise KnightianError(
            f"{path}: unknown stock subject {spec!r}; have {sorted(arena.STOCK_SUBJECTS)}"
        )
    return arena.STOCK_SUBJECTS[spec]()


def _predictor(spec: dict, path: str):
    from . import arena

    if spec["kind"] == "table":
        return arena.TablePredictor(spec.get("context", 1))
    members = enumerate(spec["family"])
    return arena.BayesPredictor([_subject(m, f"{path}['family'][{i}]") for i, m in members])


def _cmd_arena_run(config: dict, seed) -> dict:
    from . import arena

    if seed is None:
        raise KnightianError("arena run is stochastic: --seed is required")
    cfg = arena.GameConfig(**config["game"], seed=seed)
    verdict = arena.run_game(
        _subject(config["subject"], "config['subject']"),
        _predictor(config["predictor"], "config['predictor']"),
        cfg,
    )
    return {"verdict": verdict.to_payload()}


def _cmd_arena_classify(config: dict, seed) -> dict:
    from . import arena

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


# -- gadgets family ----------------------------------------------------------------------


def _cmd_gadgets_chsh_classical(config: dict, seed) -> dict:
    from . import gadgets

    result = gadgets.chsh_classical_optimum()
    return {
        "value": _rat(result.value),
        "witness": {"alice": list(result.witness[0]), "bob": list(result.witness[1])},
        "table": [
            {
                "alice": list(row["alice"]),
                "bob": list(row["bob"]),
                "value": _rat(row["value"]),
            }
            for row in result.table
        ],
    }


def _chsh_csv(result: dict):
    yield "a0,a1,b0,b1,value"
    for row in result["table"]:
        alice, bob = row["alice"], row["bob"]
        yield f"{alice[0]},{alice[1]},{bob[0]},{bob[1]},{row['value']['exact']}"


def _cmd_gadgets_chsh_quantum(config: dict, seed) -> dict:
    from . import gadgets

    alice = tuple(float(a) for a in config.get("alice", gadgets.CHSH_OPTIMAL_ALICE))
    bob = tuple(float(b) for b in config.get("bob", gadgets.CHSH_OPTIMAL_BOB))
    return {
        "alice": list(alice),
        "bob": list(bob),
        "value": gadgets.chsh_quantum_value(alice, bob),
    }


def _cmd_gadgets_bostrom(config: dict, seed) -> dict:
    from . import gadgets

    if "variant" in config:
        variants = {1: gadgets.bostrom_variant_one, 2: gadgets.bostrom_variant_two}
        puzzle = variants[config["variant"]]()
    else:
        puzzle = gadgets.RoomPuzzle(
            **{
                **config,
                "heads_colors": tuple(config["heads_colors"]),
                "tails_colors": tuple(config["tails_colors"]),
            }
        )
    post = gadgets.bostrom_posterior(puzzle)
    return {
        "posterior_heads": {
            "copy_weighted": _rat(post.copy_weighted),
            "branch_weighted": _rat(post.branch_weighted),
            "primary": _rat(post.primary),
        },
        "counting_rule": puzzle.counting_rule,
    }


# boxes within it keep every float a newcomb report quotes finite: each is at
# most |box_one| + |box_two|
BOX_GUARD = 10**300


def _cmd_gadgets_newcomb(config: dict, seed) -> dict:
    from . import gadgets

    boxes = _given(config, ("box_one", "box_two"))
    for key, box in boxes.items():
        if abs(box) > BOX_GUARD:
            raise KnightianError(f"{key!r} must be at most {BOX_GUARD:.0e} in size, got {box}")
    value = gadgets.newcomb_expected(config["policy"], config["accuracy"], **boxes)
    return {
        "policy": config["policy"],
        "expected": _rat(value),
        "crossover_accuracy": _rat(gadgets.newcomb_crossover(**boxes)),
    }


def _cmd_gadgets_causal(config: dict, seed) -> dict:
    from . import gadgets

    graph = gadgets.graph_from_payload(config, "config")
    violations = gadgets.causal_validate(graph, **_given(config, ("check_disjoint_macro",)))
    return {
        "ok": not violations,
        "violations": [
            {"rule": v.rule, "subject": list(v.subject), "message": v.message}
            for v in violations
        ],
        "acyclic": gadgets.acyclicity_check(graph),
    }


# -- the command table ---------------------------------------------------------------

INTERVAL = Either(
    "classical",
    {"classical": CLASSICAL, "event": [INT]},
    {"freestate": FREESTATE, "effect": {"dim": INT, "entries": MATRIX}},
)
WITNESS = {
    "freestate_a": FREESTATE, "freestate_b": FREESTATE, "tol": Opt(REAL), "restarts": Opt(INT)
}
OR = Either("classicals", {"classicals": [CLASSICAL]}, {"freestates": [FREESTATE]})
COMPONENT = Either(
    "classical",
    {"weight": RATIONAL, "classical": CLASSICAL},
    {"weight": RATIONAL, "freestate": FREESTATE},
)
CLONE_CHECK = {"psi": [(REAL, REAL)], "phi": [(REAL, REAL)]}
PREDICT = {"bound": INT, "history": BITS, "snapshot": Opt(BOOL), **MACHINE}
REGRET = {"bound": INT, "q": BITS, "sequence": BITS, "eps": [RATIONAL], **MACHINE}
DIAGONAL = {"bound": INT, "n": INT, **MACHINE}
SOPH_TABLE = {"lengths": [INT], "cs": [INT], "bound": INT, **MACHINE}
ARENA_RUN = {"subject": SUBJECT, "predictor": PREDICTOR, "game": GAME}
CLASSIFY = {
    "class": [SUBJECT], "predictors": [PREDICTOR], "trials": INT, "horizon": INT,
    "schedule": [(INT, OPEN_UNIT, OPEN_UNIT)],  # [t, epsilon, delta] rows
    "input_model": Opt(INPUT_MODEL),
}
CHSH_QUANTUM = {"alice": Opt((REAL, REAL)), "bob": Opt((REAL, REAL))}
BOSTROM = Either(
    "variant",
    {"variant": Kind("1 or 2", lambda v: _is_int(v) and v in (1, 2))},
    {
        "prior_heads": RATIONAL, "copies_if_heads": INT, "copies_if_tails": INT,
        "heads_colors": [STRING], "tails_colors": [STRING], "observed_color": STRING,
        "counting_rule": Opt(STRING),
    },
)
NEWCOMB = {"policy": STRING, "accuracy": RATIONAL, "box_one": Opt(INT), "box_two": Opt(INT)}
CAUSAL = {
    "nodes": [{"id": STRING, "kind": STRING, "time": INT}],
    "edges": [(STRING, STRING)],  # [cause id, effect id] pairs
    "check_disjoint_macro": Opt(BOOL),
}

# (group, command) -> (handler(config, seed), config schema, CSV rows or None)
COMMANDS = {
    ("freestate", "interval"): (_cmd_freestate_interval, INTERVAL, None),
    ("freestate", "witness"): (_cmd_freestate_witness, WITNESS, None),
    ("freestate", "or"): (_cmd_freestate_or, OR, None),
    ("freestate", "mix"): (_cmd_freestate_mix, {"components": [COMPONENT]}, None),
    ("freestate", "clone-check"): (_cmd_freestate_clone_check, CLONE_CHECK, None),
    ("solomonoff", "predict"): (_cmd_solomonoff_predict, PREDICT, None),
    ("solomonoff", "regret"): (_cmd_solomonoff_regret, REGRET, _regret_csv),
    ("solomonoff", "diagonal"): (_cmd_solomonoff_diagonal, DIAGONAL, None),
    ("solomonoff", "omega"): (_cmd_solomonoff_omega, {"bound": INT, **MACHINE}, None),
    ("soph", "k"): (_cmd_soph_k, {"x": BITS, "bound": INT, **MACHINE}, None),
    ("soph", "kset"): (_cmd_soph_kset, {"elements": [BITS], "bound": INT, **MACHINE}, None),
    ("soph", "soph"): (_cmd_soph_soph, {"x": BITS, "c": INT, "bound": INT, **MACHINE}, None),
    ("soph", "table"): (_cmd_soph_table, SOPH_TABLE, _table_csv),
    ("arena", "run"): (_cmd_arena_run, ARENA_RUN, None),
    ("arena", "classify"): (_cmd_arena_classify, CLASSIFY, None),
    ("gadgets", "chsh-classical"): (_cmd_gadgets_chsh_classical, {}, _chsh_csv),
    ("gadgets", "chsh-quantum"): (_cmd_gadgets_chsh_quantum, CHSH_QUANTUM, None),
    ("gadgets", "bostrom"): (_cmd_gadgets_bostrom, BOSTROM, None),
    ("gadgets", "newcomb"): (_cmd_gadgets_newcomb, NEWCOMB, None),
    ("gadgets", "causal"): (_cmd_gadgets_causal, CAUSAL, None),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="knightian", description=__doc__)
    parser.add_argument("group", choices=sorted({g for g, _ in COMMANDS}))
    parser.add_argument("command")
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="64-bit experiment seed")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        key = (args.group, args.command)
        if key not in COMMANDS:
            known = sorted(c for g, c in COMMANDS if g == args.group)
            raise UsageExit(
                f"unknown subcommand {args.command!r} for {args.group!r}; have {known}"
            )
        handler, schema, csv_rows = COMMANDS[key]
        config = {}
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
        typed = _check(config, schema)
        if args.format == "csv" and csv_rows is None:
            tabular = sorted(" ".join(k) for k, entry in COMMANDS.items() if entry[2])
            raise KnightianError(f"csv output is only available for: {', '.join(tabular)}")
        result = handler(typed, args.seed)
        if args.format == "csv":
            text = "".join(f"{line}\n" for line in csv_rows(result))
        else:
            envelope = {
                "artifact_version": __version__,
                "machine_version": MACHINE_VERSION,
                "command": f"{args.group} {args.command}",
                "seed": args.seed,
                "config": config,
                "result": result,
            }
            text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except UsageExit as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except (KnightianError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
