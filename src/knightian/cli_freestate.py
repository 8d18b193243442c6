"""The `freestate` commands: interval, witness, or, mix and clone-check.

Here too are the readers of their configs' freestates, effects and pure
states, and the writers of the freestates their reports hold.  Each reader
takes the path of its payload, e.g. config['classical'], and names it, down
to the generator index, in any validation error it raises.  Only a quantum
payload loads `freestate`, and with it `numpy`; a classical one reads
`classical` alone.
"""

from __future__ import annotations

from typing import Callable

from . import classical
from .cli import INT, RATIONAL, REAL, Either, Opt, _given, at
from .errors import KnightianError

MATRIX = [[(REAL, REAL)]]  # rows of [re, im] entries
CLASSICAL = {"n": INT, "generators": [[RATIONAL]]}
FREESTATE = {"dim": INT, "generators": [MATRIX]}


def classical_to_payload(s: classical.ClassicalFreestate) -> dict:
    """The payload the reader takes, its generators' Fractions for the CLI to print."""
    return {"n": s.dim, "generators": [list(g) for g in s.generators]}


def classical_from_payload(payload: dict, path: str) -> classical.ClassicalFreestate:
    n, gens = payload["n"], []
    for i, g in enumerate(payload["generators"]):
        with at(f"{path}['generators'][{i}]"):
            gens.append(classical.ClassicalFreestate(n, (g,)).generators[0])
    with at(f"{path}['generators']"):
        return classical.ClassicalFreestate(n, tuple(gens))


def _matrix_payload(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _matrix_from_payload(rows: list) -> list:
    """The complex entries, row by row, which freestate's records read as a matrix."""
    return [[complex(re, im) for re, im in row] for row in rows]


def freestate_to_payload(s: freestate.Freestate) -> dict:
    return {"dim": s.dim, "generators": [_matrix_payload(g.entries) for g in s.generators]}


def freestate_from_payload(payload: dict, path: str) -> freestate.Freestate:
    from . import freestate

    dim, gens = payload["dim"], []
    for i, g in enumerate(payload["generators"]):
        with at(f"{path}['generators'][{i}]"):
            gens.append(freestate.DensityMatrix(dim, _matrix_from_payload(g)))
    with at(f"{path}['generators']"):
        return freestate.Freestate(dim, tuple(gens))


def effect_from_payload(payload: dict, path: str) -> freestate.Effect:
    from . import freestate

    with at(f"{path}['entries']"):
        return freestate.Effect(payload["dim"], _matrix_from_payload(payload["entries"]))


def pure_from_payload(rows: list, path: str) -> freestate.PureState:
    """A pure state from its [re, im] amplitude rows."""
    from . import freestate

    with at(path):
        return freestate.PureState(len(rows), [complex(re, im) for re, im in rows])


def _same_dim(path: str, dim: int, first: str, first_dim: int) -> None:
    if dim != first_dim:
        raise KnightianError(f"{path} = {dim} must equal {first} = {first_dim}")


def _cmd_interval(config: dict, seed) -> dict:
    if "classical" in config:
        s = classical_from_payload(config["classical"], "config['classical']")
        lo, hi = classical.event_interval(s, config["event"])
        return {"lo": float(lo), "hi": float(hi), "lo_exact": lo, "hi_exact": hi}
    from . import freestate

    s = freestate_from_payload(config["freestate"], "config['freestate']")
    e = effect_from_payload(config["effect"], "config['effect']")
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
        parse, write, size = classical_from_payload, classical_to_payload, "n"
    else:
        parse, write, size = freestate_from_payload, freestate_to_payload, "dim"
    for path, other, payload in entries[1:]:
        if other != kind:
            raise KnightianError(f"{path} must be a {kind!r} set like the first one, got {other!r}")
        _same_dim(f"{path}[{size!r}]", payload[size], f"{first_path}[{size!r}]", first[size])
    return kind, write, [parse(payload, path) for path, _, payload in entries]


def _cmd_or(config: dict, seed) -> dict:
    key = "classicals" if "classicals" in config else "freestates"
    if len(config[key]) < 2:
        raise KnightianError(f"{key!r} must hold at least two freestates")
    kind, write, states = _alike(
        [(f"config[{key!r}][{i}]", key[:-1], payload) for i, payload in enumerate(config[key])]
    )
    return {kind: write(classical.knightian_or(*states))}


def _cmd_mix(config: dict, seed) -> dict:
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


def _cmd_witness(config: dict, seed) -> dict:
    from . import freestate

    a = freestate_from_payload(config["freestate_a"], "config['freestate_a']")
    b = freestate_from_payload(config["freestate_b"], "config['freestate_b']")
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
    return {"kind": "hermitian", "operator": _matrix_payload(w.operator), **found}


def _cmd_clone_check(config: dict, seed) -> dict:
    from . import freestate

    psi = pure_from_payload(config["psi"], "config['psi']")
    phi = pure_from_payload(config["phi"], "config['phi']")
    if phi.dim != psi.dim:
        raise KnightianError(
            f"config['phi'] has {phi.dim} amplitudes, but config['psi'] has {psi.dim}"
        )
    return {
        "feasible": freestate.clone_feasible(psi, phi),
        "overlap_modulus": abs(psi.overlap(phi)),
    }


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

# command -> (handler(config, seed), config schema, CSV rows or None)
COMMANDS = {
    "interval": (_cmd_interval, INTERVAL, None),
    "witness": (_cmd_witness, WITNESS, None),
    "or": (_cmd_or, OR, None),
    "mix": (_cmd_mix, {"components": [COMPONENT]}, None),
    "clone-check": (_cmd_clone_check, CLONE_CHECK, None),
}
