"""The `solomonoff` commands: predict, regret, diagonal and omega."""

from __future__ import annotations

from fractions import Fraction

from . import prior, toyvm
from .cli import BITS, BOOL, INT, MACHINE, RATIONAL, Opt, _machine_config, _rat
from .errors import KnightianError


def _cmd_predict(config: dict, seed) -> dict:
    mixture = prior.build_mixture(config["bound"], _machine_config(config))
    for bit in config["history"]:
        mixture = prior.update(mixture, bit)
    p = prior.predict_next(mixture)
    result = {"p_next_one": _rat(p), "history": config["history"], "bound": mixture.bound}
    if config.get("snapshot"):
        result["mixture"] = prior.mixture_snapshot(mixture)
    return result


def _cmd_regret(config: dict, seed) -> dict:
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


def _cmd_diagonal(config: dict, seed) -> dict:
    mixture = prior.build_mixture(config["bound"], _machine_config(config))
    bits, steps = prior.diagonal_sequence(mixture, config["n"])
    return {
        "bits": bits,
        "per_step": [
            {"bit": s.bit, "conditional": _rat(s.conditional), "cumulative": _rat(s.cumulative)}
            for s in steps
        ],
    }


def _cmd_omega(config: dict, seed) -> dict:
    cfg = _machine_config(config)
    value = prior.omega_truncated(config["bound"], cfg)
    return {"omega": _rat(value), "bound": config["bound"], "step_budget": cfg.step_budget}


PREDICT = {"bound": INT, "history": BITS, "snapshot": Opt(BOOL), **MACHINE}
REGRET = {"bound": INT, "q": BITS, "sequence": BITS, "eps": [RATIONAL], **MACHINE}
DIAGONAL = {"bound": INT, "n": INT, **MACHINE}

# command -> (handler(config, seed), config schema, CSV rows or None)
COMMANDS = {
    "predict": (_cmd_predict, PREDICT, None),
    "regret": (_cmd_regret, REGRET, _regret_csv),
    "diagonal": (_cmd_diagonal, DIAGONAL, None),
    "omega": (_cmd_omega, {"bound": INT, **MACHINE}, None),
}
