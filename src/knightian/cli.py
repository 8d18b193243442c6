"""Batch front-end: one subcommand per experiment family.

JSON config in, JSON (or CSV, where a table is the natural shape) out.
Configs are validated against a strict per-subcommand schema: unknown keys
are rejected by name, so golden outputs stay stable.  Every report embeds
the artifact version, the machine spec version, the seed, and an echo of
the config; identical (config, seed, version) triples produce byte-identical
reports.

Exit codes: 0 success, 1 validation/usage error, 2 internal error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from . import __version__, arena, complexity, freestate, gadgets, prior, toyvm
from .errors import KnightianError


class UsageExit(Exception):
    def __init__(self, message: str):
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract wants 1
    def error(self, message):
        raise UsageExit(f"{message}\n\n{self.format_usage()}")


def _schema_check(config: dict, required: set[str], optional: set[str], where: str) -> None:
    unknown = set(config) - required - optional
    if unknown:
        raise KnightianError(
            f"unknown config key(s) for {where}: {', '.join(sorted(unknown))}"
        )
    missing = required - set(config)
    if missing:
        raise KnightianError(
            f"missing config key(s) for {where}: {', '.join(sorted(missing))}"
        )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_bitstring(value) -> bool:
    return isinstance(value, str) and set(value) <= {"0", "1"}


def _is_rational(value) -> bool:
    if isinstance(value, bool):
        return False
    try:
        _fraction(value)
    except (ValueError, ZeroDivisionError):
        return False
    return True


# what each solomonoff config key must hold: (description, test)
SOLOMONOFF_TYPES = {
    "bound": ("an integer", _is_int),
    "n": ("an integer", _is_int),
    "history": ("a bitstring", _is_bitstring),
    "sequence": ("a bitstring", _is_bitstring),
    "q": ("a bitstring", _is_bitstring),
    "eps": (
        "a list of rationals",
        lambda value: isinstance(value, list) and all(map(_is_rational, value)),
    ),
    "snapshot": ("a boolean", lambda value: isinstance(value, bool)),
    "step_budget": ("an integer", _is_int),
    "rand_budget": ("an integer", _is_int),
    "output_budget": ("an integer", _is_int),
}


def _solomonoff_check(config: dict, required: set[str], optional: set[str], where: str) -> None:
    _schema_check(config, required, optional, where)
    for key in sorted(config):
        kind, ok = SOLOMONOFF_TYPES[key]
        if not ok(config[key]):
            raise KnightianError(
                f"config key {key!r} for {where} must be {kind}, got {config[key]!r}"
            )


def _fraction(value) -> Fraction:
    return Fraction(str(value))


def _rat(f: Fraction) -> dict:
    return {"exact": str(f), "float": float(f)}


def _machine_config(config: dict) -> toyvm.MachineConfig:
    kwargs = {}
    for key in ("step_budget", "rand_budget", "output_budget"):
        if key in config:
            kwargs[key] = int(config[key])
    return toyvm.MachineConfig(**kwargs)


MACHINE_KEYS = {"step_budget", "rand_budget", "output_budget"}


# -- freestate family ---------------------------------------------------------------


def _cmd_freestate_interval(config: dict, seed, rng_unused) -> dict:
    if "classical" in config:
        _schema_check(config, {"classical", "event"}, set(), "freestate interval")
        s = freestate.classical_from_payload(config["classical"])
        lo, hi = freestate.event_interval(s, [int(i) for i in config["event"]])
        return {"lo": float(lo), "hi": float(hi), "lo_exact": str(lo), "hi_exact": str(hi)}
    _schema_check(config, {"freestate", "effect"}, set(), "freestate interval")
    s = freestate.freestate_from_payload(config["freestate"])
    e = freestate.effect_from_payload(config["effect"])
    lo, hi = freestate.effect_interval(s, e)
    return {"lo": lo, "hi": hi}


def _cmd_freestate_or(config: dict, seed, rng_unused) -> dict:
    if "classicals" in config:
        _schema_check(config, {"classicals"}, set(), "freestate or")
        states = [freestate.classical_from_payload(p) for p in config["classicals"]]
        if len(states) < 2:
            raise KnightianError("need at least two freestates")
        out = states[0]
        for s in states[1:]:
            out = freestate.classical_or(out, s)
        return {"classical": freestate.classical_to_payload(out)}
    _schema_check(config, {"freestates"}, set(), "freestate or")
    states = [freestate.freestate_from_payload(p) for p in config["freestates"]]
    if len(states) < 2:
        raise KnightianError("need at least two freestates")
    out = states[0]
    for s in states[1:]:
        out = freestate.knightian_or(out, s)
    return {"freestate": freestate.freestate_to_payload(out)}


def _cmd_freestate_mix(config: dict, seed, rng_unused) -> dict:
    _schema_check(config, {"components"}, set(), "freestate mix")
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


def _cmd_freestate_witness(config: dict, seed, rng_unused) -> dict:
    _schema_check(
        config, {"freestate_a", "freestate_b"}, {"tol", "restarts"}, "freestate witness"
    )
    a = freestate.freestate_from_payload(config["freestate_a"])
    b = freestate.freestate_from_payload(config["freestate_b"])
    w = freestate.separating_witness(
        a,
        b,
        tol=float(config.get("tol", 1e-6)),
        restarts=int(config.get("restarts", 64)),
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


def _cmd_freestate_clone_check(config: dict, seed, rng_unused) -> dict:
    _schema_check(config, {"psi", "phi"}, set(), "freestate clone-check")

    def state(rows):
        amps = [complex(re, im) for re, im in rows]
        return freestate.PureState(len(amps), amps)

    psi, phi = state(config["psi"]), state(config["phi"])
    return {
        "feasible": freestate.clone_feasible(psi, phi),
        "overlap_modulus": abs(psi.overlap(phi)),
    }


# -- solomonoff family ----------------------------------------------------------------


def _cmd_solomonoff_predict(config: dict, seed, rng_unused) -> dict:
    _solomonoff_check(
        config, {"bound", "history"}, MACHINE_KEYS | {"snapshot"}, "solomonoff predict"
    )
    cfg = _machine_config(config)
    mixture = prior.build_mixture(config["bound"], cfg)
    for bit in config["history"]:
        mixture = prior.update(mixture, bit)
    p = prior.predict_next(mixture)
    result = {"p_next_one": _rat(p), "history": config["history"], "bound": mixture.bound}
    if config.get("snapshot"):
        result["mixture"] = prior.mixture_snapshot(mixture)
    return result


def _cmd_solomonoff_regret(config: dict, seed, rng_unused) -> dict:
    _solomonoff_check(config, {"bound", "q", "sequence", "eps"}, MACHINE_KEYS, "solomonoff regret")
    cfg = _machine_config(config)
    mixture = prior.build_mixture(config["bound"], cfg)
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


def _cmd_solomonoff_diagonal(config: dict, seed, rng_unused) -> dict:
    _solomonoff_check(config, {"bound", "n"}, MACHINE_KEYS, "solomonoff diagonal")
    cfg = _machine_config(config)
    mixture = prior.build_mixture(config["bound"], cfg)
    bits, steps = prior.diagonal_sequence(mixture, config["n"])
    return {
        "bits": bits,
        "per_step": [
            {"bit": s.bit, "conditional": _rat(s.conditional), "cumulative": _rat(s.cumulative)}
            for s in steps
        ],
    }


def _cmd_solomonoff_omega(config: dict, seed, rng_unused) -> dict:
    _solomonoff_check(config, {"bound"}, MACHINE_KEYS, "solomonoff omega")
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


def _cmd_soph_k(config: dict, seed, rng_unused) -> dict:
    _schema_check(config, {"x", "bound"}, MACHINE_KEYS, "soph k")
    return _complexity_payload(
        complexity.kolmogorov(config["x"], int(config["bound"]), _machine_config(config))
    )


def _cmd_soph_kset(config: dict, seed, rng_unused) -> dict:
    _schema_check(config, {"elements", "bound"}, MACHINE_KEYS, "soph kset")
    listing = complexity.SetListing(tuple(config["elements"]))
    return _complexity_payload(
        complexity.set_complexity(listing, int(config["bound"]), _machine_config(config))
    )


def _cmd_soph_soph(config: dict, seed, rng_unused) -> dict:
    _schema_check(config, {"x", "c", "bound"}, MACHINE_KEYS, "soph soph")
    return _complexity_payload(
        complexity.sophistication(
            config["x"], int(config["c"]), int(config["bound"]), _machine_config(config)
        )
    )


def _cmd_soph_table(config: dict, seed, rng_unused) -> dict:
    _schema_check(config, {"lengths", "cs", "bound"}, MACHINE_KEYS, "soph table")
    rows = complexity.tabulate(
        [int(n) for n in config["lengths"]],
        [int(c) for c in config["cs"]],
        int(config["bound"]),
        _machine_config(config),
    )
    return {"rows": rows, "cs": [int(c) for c in config["cs"]]}


# -- arena family ----------------------------------------------------------------------


def _subject_factory(spec):
    if isinstance(spec, str):
        if spec not in arena.STOCK_SUBJECTS:
            raise KnightianError(
                f"unknown stock subject {spec!r}; have {sorted(arena.STOCK_SUBJECTS)}"
            )
        return arena.STOCK_SUBJECTS[spec]
    subject = arena.subject_from_payload(spec)
    return lambda: subject


def _predictor_factory(spec: dict):
    kind = spec.get("kind")
    if kind == "table":
        context = int(spec.get("context", 1))
        return lambda: arena.TablePredictor(context)
    if kind == "bayes":
        family = []
        for member in spec["family"]:
            if isinstance(member, str):
                family.append(arena.subject_to_payload(arena.STOCK_SUBJECTS[member]()))
            else:
                family.append(member)
        return lambda: arena.BayesPredictor(family)
    raise KnightianError(f"unknown predictor kind {kind!r}")


def _game_config(game: dict, seed: int) -> arena.GameConfig:
    _schema_check(
        game,
        {"t", "u", "epsilon", "delta", "trials"},
        {"input_model", "adversary"},
        "arena game",
    )
    return arena.GameConfig(
        t=int(game["t"]),
        u=int(game["u"]),
        epsilon=_fraction(game["epsilon"]),
        delta=_fraction(game["delta"]),
        trials=int(game["trials"]),
        seed=seed,
        input_model=game.get("input_model", {"kind": "uniform"}),
        adversary=game.get("adversary", "adaptive"),
    )


def _cmd_arena_run(config: dict, seed, rng_unused) -> dict:
    _schema_check(config, {"subject", "predictor", "game"}, set(), "arena run")
    if seed is None:
        raise KnightianError("arena run is stochastic: --seed is required")
    cfg = _game_config(config["game"], seed)
    verdict = arena.run_game(
        _subject_factory(config["subject"]), _predictor_factory(config["predictor"]), cfg
    )
    return {"verdict": verdict.to_payload()}


def _cmd_arena_classify(config: dict, seed, rng_unused) -> dict:
    _schema_check(
        config,
        {"class", "predictors", "schedule", "trials", "horizon"},
        {"input_model"},
        "arena classify",
    )
    if seed is None:
        raise KnightianError("arena classify is stochastic: --seed is required")
    subjects = [_subject_factory(s) for s in config["class"]]
    predictors = [
        (spec.get("name", spec["kind"]), _predictor_factory(spec))
        for spec in config["predictors"]
    ]
    schedule = [
        (int(t), _fraction(eps), _fraction(delta)) for t, eps, delta in config["schedule"]
    ]
    report = arena.classify(
        subjects,
        predictors,
        schedule,
        trials=int(config["trials"]),
        seed=seed,
        input_model=config.get("input_model"),
        horizon=int(config["horizon"]),
    )
    return report


# -- gadgets family ----------------------------------------------------------------------


def _cmd_gadgets_chsh_classical(config: dict, seed, rng_unused) -> dict:
    _schema_check(config, set(), set(), "gadgets chsh-classical")
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


def _cmd_gadgets_chsh_quantum(config: dict, seed, rng_unused) -> dict:
    _schema_check(config, set(), {"alice", "bob"}, "gadgets chsh-quantum")
    alice = tuple(float(a) for a in config.get("alice", gadgets.CHSH_OPTIMAL_ALICE))
    bob = tuple(float(b) for b in config.get("bob", gadgets.CHSH_OPTIMAL_BOB))
    if len(alice) != 2 or len(bob) != 2:
        raise KnightianError("each player needs exactly two measurement angles")
    return {
        "alice": list(alice),
        "bob": list(bob),
        "value": gadgets.chsh_quantum_value(alice, bob),
    }


def _cmd_gadgets_bostrom(config: dict, seed, rng_unused) -> dict:
    if "variant" in config:
        _schema_check(config, {"variant"}, set(), "gadgets bostrom")
        variant = int(config["variant"])
        if variant == 1:
            puzzle = gadgets.bostrom_variant_one()
        elif variant == 2:
            puzzle = gadgets.bostrom_variant_two()
        else:
            raise KnightianError("variant must be 1 or 2")
    else:
        _schema_check(
            config,
            {
                "prior_heads",
                "copies_if_heads",
                "copies_if_tails",
                "heads_colors",
                "tails_colors",
                "observed_color",
            },
            {"counting_rule"},
            "gadgets bostrom",
        )
        puzzle = gadgets.RoomPuzzle(
            prior_heads=_fraction(config["prior_heads"]),
            copies_if_heads=int(config["copies_if_heads"]),
            copies_if_tails=int(config["copies_if_tails"]),
            heads_colors=tuple(config["heads_colors"]),
            tails_colors=tuple(config["tails_colors"]),
            observed_color=config["observed_color"],
            counting_rule=config.get("counting_rule", "copy-weighted"),
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


def _cmd_gadgets_newcomb(config: dict, seed, rng_unused) -> dict:
    _schema_check(
        config, {"policy", "accuracy"}, {"box_one", "box_two"}, "gadgets newcomb"
    )
    box_one = int(config.get("box_one", 1_000_000))
    box_two = int(config.get("box_two", 1_000))
    value = gadgets.newcomb_expected(
        config["policy"], _fraction(config["accuracy"]), box_one, box_two
    )
    return {
        "policy": config["policy"],
        "expected": _rat(value),
        "crossover_accuracy": _rat(gadgets.newcomb_crossover(box_one, box_two)),
    }


def _cmd_gadgets_causal(config: dict, seed, rng_unused) -> dict:
    _schema_check(config, {"nodes", "edges"}, {"check_disjoint_macro"}, "gadgets causal")
    graph = gadgets.graph_from_payload(config)
    violations = gadgets.causal_validate(
        graph, check_disjoint_macro=bool(config.get("check_disjoint_macro", True))
    )
    return {
        "ok": not violations,
        "violations": [
            {"rule": v.rule, "subject": list(v.subject), "message": v.message}
            for v in violations
        ],
        "acyclic": gadgets.acyclicity_check(graph),
    }


HANDLERS = {
    ("freestate", "interval"): _cmd_freestate_interval,
    ("freestate", "witness"): _cmd_freestate_witness,
    ("freestate", "or"): _cmd_freestate_or,
    ("freestate", "mix"): _cmd_freestate_mix,
    ("freestate", "clone-check"): _cmd_freestate_clone_check,
    ("solomonoff", "predict"): _cmd_solomonoff_predict,
    ("solomonoff", "regret"): _cmd_solomonoff_regret,
    ("solomonoff", "diagonal"): _cmd_solomonoff_diagonal,
    ("solomonoff", "omega"): _cmd_solomonoff_omega,
    ("soph", "k"): _cmd_soph_k,
    ("soph", "kset"): _cmd_soph_kset,
    ("soph", "soph"): _cmd_soph_soph,
    ("soph", "table"): _cmd_soph_table,
    ("arena", "run"): _cmd_arena_run,
    ("arena", "classify"): _cmd_arena_classify,
    ("gadgets", "chsh-classical"): _cmd_gadgets_chsh_classical,
    ("gadgets", "chsh-quantum"): _cmd_gadgets_chsh_quantum,
    ("gadgets", "bostrom"): _cmd_gadgets_bostrom,
    ("gadgets", "newcomb"): _cmd_gadgets_newcomb,
    ("gadgets", "causal"): _cmd_gadgets_causal,
}

CSV_SUBCOMMANDS = {
    ("gadgets", "chsh-classical"),
    ("solomonoff", "regret"),
    ("soph", "table"),
}


def _to_csv(group: str, cmd: str, result: dict) -> str:
    out = io.StringIO()
    if (group, cmd) == ("gadgets", "chsh-classical"):
        out.write("a0,a1,b0,b1,value\n")
        for row in result["table"]:
            out.write(
                f"{row['alice'][0]},{row['alice'][1]},{row['bob'][0]},{row['bob'][1]},{row['value']['exact']}\n"
            )
    elif (group, cmd) == ("solomonoff", "regret"):
        out.write("step,bit,p_U,p_Q,ratio,cum_ratio\n")
        for row in result["curve"]:
            out.write(
                f"{row['step']},{row['bit']},{row['p_U']['exact']},{row['p_Q']['exact']},"
                f"{row['ratio']['exact']},{row['cum_ratio']['exact']}\n"
            )
    else:  # soph table
        cs = result["cs"]
        out.write("x,k," + ",".join(f"soph_{c}" for c in cs) + "\n")
        for row in result["rows"]:
            cells = [row["x"], "" if row["k"] is None else str(row["k"])]
            for c in cs:
                v = row[f"soph_{c}"]
                cells.append("" if v is None else str(v))
            out.write(",".join(cells) + "\n")
    return out.getvalue()


def build_parser() -> _Parser:
    parser = _Parser(prog="knightian", description=__doc__)
    parser.add_argument("group", choices=sorted({g for g, _ in HANDLERS}))
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
        if key not in HANDLERS:
            known = sorted(c for g, c in HANDLERS if g == args.group)
            raise UsageExit(
                f"unknown subcommand {args.command!r} for {args.group!r}; have {known}"
            )
        config = {}
        if args.config:
            with open(args.config) as fh:
                config = json.load(fh)
        if not isinstance(config, dict):
            raise KnightianError("config must be a JSON object")
        if args.format == "csv" and key not in CSV_SUBCOMMANDS:
            raise KnightianError(
                f"csv output is only available for: "
                f"{', '.join(sorted(' '.join(k) for k in CSV_SUBCOMMANDS))}"
            )
        result = HANDLERS[key](config, args.seed, None)
        if args.format == "csv":
            text = _to_csv(args.group, args.command, result)
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
