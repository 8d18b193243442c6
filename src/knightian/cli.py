"""Batch front-end: one subcommand per experiment family.

JSON config in, JSON (or CSV, where a table is the natural shape) out.
Every command has one entry in ``COMMANDS``: its handler, its config schema
and, for the tabular commands, its CSV rows.  ``dispatch`` checks the config
against the schema before the handler runs: unknown and missing keys, and
values of the wrong type (a float where an integer belongs, a number where a
bitstring belongs), are rejected by name, so handlers read typed values and
golden outputs stay stable.  Every report embeds the artifact version, the
machine spec version, the seed, and an echo of the config; identical
(config, seed, version) triples produce byte-identical reports.

Exit codes: 0 success, 1 validation/usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable

from . import __version__, arena, complexity, freestate, gadgets, prior, toyvm
from .errors import KnightianError


class UsageExit(Exception):
    def __init__(self, message: str):
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract wants 1
    def error(self, message):
        raise UsageExit(f"{message}\n\n{self.format_usage()}")


def _fraction(value) -> Fraction:
    return Fraction(str(value))


def _rat(f: Fraction) -> dict:
    return {"exact": str(f), "float": float(f)}


# -- config schemas -----------------------------------------------------------------
#
# A value kind is one of: a Kind, a leaf test; a one-item list [k], a list of any
# length whose every item is a k; a tuple (k1, k2, ...), a list of exactly those
# kinds in order; a dict, an object with exactly these keys, each required
# unless its kind is wrapped in Opt; or an Either of two object schemas.  Kind,
# Opt and Either are plain classes: a dataclass adds about 1 ms to every CLI start.


class Kind:
    def __init__(self, name: str, test: Callable[[object], bool]):
        self.name = name  # what the value must be, for the error message
        self.test = test


class Opt:
    def __init__(self, kind):
        self.kind = kind


class Either:
    """`present` when the object holds the key `lead`, `absent` otherwise."""

    def __init__(self, lead: str, present: dict, absent: dict):
        self.lead, self.present, self.absent = lead, present, absent


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_rational(value) -> bool:
    if isinstance(value, bool):
        return False
    try:
        _fraction(value)
    except (ValueError, ZeroDivisionError):
        return False
    return True


INT = Kind("an integer", _is_int)
REAL = Kind("a real number", lambda v: _is_int(v) or isinstance(v, float))
BITS = Kind("a bitstring", lambda v: isinstance(v, str) and set(v) <= {"0", "1"})
RATIONAL = Kind("a rational", _is_rational)
BOOL = Kind("a boolean", lambda v: isinstance(v, bool))
STRING = Kind("a string", lambda v: isinstance(v, str))
LIST = Kind("a list", lambda v: isinstance(v, list))
SUBJECT = Kind("a stock subject name or a subject object", lambda v: isinstance(v, (str, dict)))

MACHINE = {"step_budget": Opt(INT), "rand_budget": Opt(INT), "output_budget": Opt(INT)}
MATRIX = [[(REAL, REAL)]]  # rows of [re, im] entries
CLASSICAL = {"n": INT, "generators": [[RATIONAL]]}
FREESTATE = {"dim": INT, "generators": [MATRIX]}
PREDICTOR = {"kind": STRING, "name": Opt(STRING), "context": Opt(INT), "family": Opt([SUBJECT])}
INPUT_MODEL = {"kind": STRING, "bits": Opt(BITS)}
GAME = {
    "t": INT, "u": INT, "epsilon": RATIONAL, "delta": RATIONAL, "trials": INT,
    "input_model": Opt(INPUT_MODEL), "adversary": Opt(STRING),
}


def _bad(path: str, what: str, value) -> KnightianError:
    return KnightianError(f"{path} must be {what}, got {value!r}")


def _check(value, kind, path: str = "config") -> None:
    """Raise KnightianError naming the offending key unless value is of kind.

    path is the subscript chain from the config root, e.g. config['game']['t'].
    """
    if isinstance(kind, Opt):
        kind = kind.kind
    if isinstance(kind, Either):
        kind = kind.present if isinstance(value, dict) and kind.lead in value else kind.absent
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
        for key in sorted(value):
            _check(value[key], kind[key], f"{path}[{key!r}]")
    elif isinstance(kind, list):
        if not isinstance(value, list):
            raise _bad(path, "a list", value)
        for i, item in enumerate(value):
            _check(item, kind[0], f"{path}[{i}]")
    elif isinstance(kind, tuple):
        if not (isinstance(value, list) and len(value) == len(kind)):
            raise _bad(path, f"a list of {len(kind)} values", value)
        for i, (item, item_kind) in enumerate(zip(value, kind)):
            _check(item, item_kind, f"{path}[{i}]")
    elif not kind.test(value):
        raise _bad(path, kind.name, value)


def _machine_config(config: dict) -> toyvm.MachineConfig:
    return toyvm.MachineConfig(**{k: v for k, v in config.items() if k in MACHINE})


# -- freestate family ---------------------------------------------------------------


def _cmd_freestate_interval(config: dict, seed) -> dict:
    if "classical" in config:
        s = freestate.classical_from_payload(config["classical"])
        lo, hi = freestate.event_interval(s, config["event"])
        return {"lo": float(lo), "hi": float(hi), "lo_exact": str(lo), "hi_exact": str(hi)}
    s = freestate.freestate_from_payload(config["freestate"])
    e = freestate.effect_from_payload(config["effect"])
    lo, hi = freestate.effect_interval(s, e)
    return {"lo": lo, "hi": hi}


def _cmd_freestate_or(config: dict, seed) -> dict:
    if "classicals" in config:
        states = [freestate.classical_from_payload(p) for p in config["classicals"]]
        if len(states) < 2:
            raise KnightianError("need at least two freestates")
        out = states[0]
        for s in states[1:]:
            out = freestate.classical_or(out, s)
        return {"classical": freestate.classical_to_payload(out)}
    states = [freestate.freestate_from_payload(p) for p in config["freestates"]]
    if len(states) < 2:
        raise KnightianError("need at least two freestates")
    out = states[0]
    for s in states[1:]:
        out = freestate.knightian_or(out, s)
    return {"freestate": freestate.freestate_to_payload(out)}


def _cmd_freestate_mix(config: dict, seed) -> dict:
    comps = config["components"]
    if not comps:
        raise KnightianError("need at least one component")
    if "classical" in comps[0]:
        pairs = [
            (_fraction(c["weight"]), freestate.classical_from_payload(c["classical"]))
            for c in comps
        ]
        out = freestate.classical_mix(pairs)
        return {"classical": freestate.classical_to_payload(out)}
    pairs = [
        (float(_fraction(c["weight"])), freestate.freestate_from_payload(c["freestate"]))
        for c in comps
    ]
    return {"freestate": freestate.freestate_to_payload(freestate.prob_mix(pairs))}


def _cmd_freestate_witness(config: dict, seed) -> dict:
    a = freestate.freestate_from_payload(config["freestate_a"])
    b = freestate.freestate_from_payload(config["freestate_b"])
    w = freestate.separating_witness(
        a,
        b,
        tol=config.get("tol", 1e-6),
        restarts=config.get("restarts", 64),
        seed=seed or 0,
    )
    if w is None:
        return {"kind": "none"}
    if isinstance(w, freestate.PureWitness):
        return {
            "kind": "pure",
            "psi": [[float(v.real), float(v.imag)] for v in w.psi.amplitudes],
            "value_on_state": w.value_on_state,
            "interval_on_other": list(w.interval_on_other),
            "gap": w.gap,
        }
    return {
        "kind": "hermitian",
        "operator": freestate._matrix_payload(w.operator),
        "value_on_state": w.value_on_state,
        "interval_on_other": list(w.interval_on_other),
        "gap": w.gap,
    }


def _cmd_freestate_clone_check(config: dict, seed) -> dict:
    def state(rows):
        amps = [complex(re, im) for re, im in rows]
        return freestate.PureState(len(amps), amps)

    psi, phi = state(config["psi"]), state(config["phi"])
    return {
        "feasible": freestate.clone_feasible(psi, phi),
        "overlap_modulus": abs(psi.overlap(phi)),
    }


# -- solomonoff family ----------------------------------------------------------------


def _cmd_solomonoff_predict(config: dict, seed) -> dict:
    mixture = prior.build_mixture(config["bound"], _machine_config(config))
    for bit in config["history"]:
        mixture = prior.update(mixture, bit)
    p = prior.predict_next(mixture)
    result = {"p_next_one": _rat(p), "history": config["history"], "bound": mixture.bound}
    if config.get("snapshot"):
        result["mixture"] = prior.mixture_snapshot(mixture)
    return result


def _cmd_solomonoff_regret(config: dict, seed) -> dict:
    mixture = prior.build_mixture(config["bound"], _machine_config(config))
    q = toyvm.decode(config["q"])
    report = prior.regret_report(
        q, config["sequence"], mixture, [_fraction(e) for e in config["eps"]]
    )
    curve = []
    cum = Fraction(1)
    for step, ratio in enumerate(report.per_step_ratios, start=1):
        cum *= ratio
        curve.append(
            {
                "step": step,
                "bit": report.sequence[step - 1],
                "p_U": _rat(report.per_step_mixture[step - 1]),
                "p_Q": _rat(report.per_step_hypothesis[step - 1]),
                "ratio": _rat(ratio),
                "cum_ratio": _rat(cum),
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
    cfg = _machine_config(config)
    value = prior.omega_truncated(config["bound"], cfg)
    return {"omega": _rat(value), "bound": config["bound"], "step_budget": cfg.step_budget}


# -- soph family ----------------------------------------------------------------------


def _complexity_payload(result) -> dict:
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
    return _complexity_payload(
        complexity.kolmogorov(config["x"], config["bound"], _machine_config(config))
    )


def _cmd_soph_kset(config: dict, seed) -> dict:
    listing = complexity.SetListing(tuple(config["elements"]))
    return _complexity_payload(
        complexity.set_complexity(listing, config["bound"], _machine_config(config))
    )


def _cmd_soph_soph(config: dict, seed) -> dict:
    return _complexity_payload(
        complexity.sophistication(
            config["x"], config["c"], config["bound"], _machine_config(config)
        )
    )


def _cmd_soph_table(config: dict, seed) -> dict:
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


def _stock_subject(name: str):
    if name not in arena.STOCK_SUBJECTS:
        raise KnightianError(
            f"unknown stock subject {name!r}; have {sorted(arena.STOCK_SUBJECTS)}"
        )
    return arena.STOCK_SUBJECTS[name]


def _subject_factory(spec):
    if isinstance(spec, str):
        return _stock_subject(spec)
    subject = arena.subject_from_payload(spec)
    return lambda: subject


def _predictor_factory(spec: dict):
    kind = spec["kind"]
    if kind == "table":
        context = spec.get("context", 1)
        return lambda: arena.TablePredictor(context)
    if kind == "bayes":
        family = [
            arena.subject_to_payload(_stock_subject(m)()) if isinstance(m, str) else m
            for m in spec["family"]
        ]
        return lambda: arena.BayesPredictor(family)
    raise KnightianError(f"unknown predictor kind {kind!r}")


def _cmd_arena_run(config: dict, seed) -> dict:
    if seed is None:
        raise KnightianError("arena run is stochastic: --seed is required")
    game = config["game"]
    rationals = {k: _fraction(game[k]) for k in ("epsilon", "delta")}
    cfg = arena.GameConfig(**{**game, **rationals}, seed=seed)
    verdict = arena.run_game(
        _subject_factory(config["subject"]), _predictor_factory(config["predictor"]), cfg
    )
    return {"verdict": verdict.to_payload()}


def _cmd_arena_classify(config: dict, seed) -> dict:
    if seed is None:
        raise KnightianError("arena classify is stochastic: --seed is required")
    subjects = [_subject_factory(s) for s in config["class"]]
    predictors = [
        (spec.get("name", spec["kind"]), _predictor_factory(spec))
        for spec in config["predictors"]
    ]
    schedule = [(t, _fraction(eps), _fraction(delta)) for t, eps, delta in config["schedule"]]
    return arena.classify(
        subjects,
        predictors,
        schedule,
        trials=config["trials"],
        seed=seed,
        input_model=config.get("input_model"),
        horizon=config["horizon"],
    )


# -- gadgets family ----------------------------------------------------------------------


def _cmd_gadgets_chsh_classical(config: dict, seed) -> dict:
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
    alice = tuple(float(a) for a in config.get("alice", gadgets.CHSH_OPTIMAL_ALICE))
    bob = tuple(float(b) for b in config.get("bob", gadgets.CHSH_OPTIMAL_BOB))
    return {
        "alice": list(alice),
        "bob": list(bob),
        "value": gadgets.chsh_quantum_value(alice, bob),
    }


def _cmd_gadgets_bostrom(config: dict, seed) -> dict:
    if "variant" in config:
        variants = {1: gadgets.bostrom_variant_one, 2: gadgets.bostrom_variant_two}
        puzzle = variants[config["variant"]]()
    else:
        puzzle = gadgets.RoomPuzzle(
            **{
                **config,
                "prior_heads": _fraction(config["prior_heads"]),
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


def _cmd_gadgets_newcomb(config: dict, seed) -> dict:
    box_one = config.get("box_one", 1_000_000)
    box_two = config.get("box_two", 1_000)
    value = gadgets.newcomb_expected(
        config["policy"], _fraction(config["accuracy"]), box_one, box_two
    )
    return {
        "policy": config["policy"],
        "expected": _rat(value),
        "crossover_accuracy": _rat(gadgets.newcomb_crossover(box_one, box_two)),
    }


def _cmd_gadgets_causal(config: dict, seed) -> dict:
    graph = gadgets.graph_from_payload(config)
    violations = gadgets.causal_validate(
        graph, check_disjoint_macro=config.get("check_disjoint_macro", True)
    )
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
    "schedule": [(INT, RATIONAL, RATIONAL)],  # [t, epsilon, delta] rows
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
CAUSAL = {"nodes": LIST, "edges": LIST, "check_disjoint_macro": Opt(BOOL)}

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
        _check(config, schema)
        if args.format == "csv" and csv_rows is None:
            tabular = sorted(" ".join(k) for k, entry in COMMANDS.items() if entry[2])
            raise KnightianError(f"csv output is only available for: {', '.join(tabular)}")
        result = handler(config, args.seed)
        if args.format == "csv":
            text = "".join(f"{line}\n" for line in csv_rows(result))
        else:
            envelope = {
                "artifact_version": __version__,
                "machine_version": toyvm.MACHINE_VERSION,
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
