import importlib.util
from pathlib import Path

import numpy as np

from knightian import freestate, toyvm

LAUNCH = Path(__file__).resolve().parents[1] / "bench" / "launch.py"

# (step, rand, output) budgets: the default, tight ones, no RAND, one output bit, all at the guard
ORACLE_CONFIGS = [
    toyvm.MachineConfig(*budgets)
    for budgets in [(512, 24, 64), (20, 2, 6), (7, 0, 3), (1, 0, 1), (512, 512, 512), (40, 3, 1), (3, 5, 64)]
]


def load_launch():
    """bench/launch.py as a module; its TRACED lists the functions a traced run wraps."""
    spec = importlib.util.spec_from_file_location("bench_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    return launch


def random_density(rng: np.random.Generator, dim: int) -> freestate.DensityMatrix:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return freestate.DensityMatrix(dim, m / np.trace(m))


def random_effect(rng: np.random.Generator, dim: int) -> freestate.Effect:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    herm = (a + a.conj().T) / 2
    eigs, vecs = np.linalg.eigh(herm)
    squashed = (eigs - eigs.min()) / (eigs.max() - eigs.min() + 1e-12)
    return freestate.Effect(dim, vecs @ np.diag(squashed) @ vecs.conj().T)


def random_freestate(
    rng: np.random.Generator, dim: int, n_generators: int
) -> freestate.Freestate:
    gens = tuple(random_density(rng, dim) for _ in range(n_generators))
    return freestate.Freestate(dim, gens)


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def pushed_out_pair(rng: np.random.Generator):
    """({rho}, hull) in d = 3, rho pushed from I/3 past a mixture of the hull's generators.

    The hull has 3 to 8 random pure states.  rho = I/3 + lam (sum_i w_i psi_i psi_i* - I/3)
    with lam in [1, 1.3] sits just outside the hull, where the spectral witness
    often fails; None when rho is not a state.
    """
    d = 3
    psis = [random_pure(rng, d) for _ in range(int(rng.integers(3, 9)))]
    hull = freestate.Freestate(d, tuple(freestate.PureState(d, p).projector() for p in psis))
    mean = sum(w * np.outer(p, p.conj()) for w, p in zip(rng.dirichlet(np.ones(len(psis))), psis))
    m = np.eye(d) / d + rng.uniform(1.0, 1.3) * (mean - np.eye(d) / d)
    try:
        rho = freestate.DensityMatrix(d, (m + m.conj().T) / 2)
    except freestate.KnightianError:
        return None
    return freestate.Freestate(d, (rho,)), hull


def c10_draws():
    """Acceptance criterion C10's seeded draws, in the order one rng makes them.

    100 (freestate, effect, 200 hull weights) samples in d = 2..4, then 30
    (s1, s2) witness pairs with 1 to 3 generators each."""
    rng = np.random.default_rng(777)
    samples = []
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        s = random_freestate(rng, dim, int(rng.integers(2, 5)))
        e = random_effect(rng, dim)
        samples.append((s, e, [rng.dirichlet(np.full(len(s.generators), 0.4)) for _ in range(200)]))
    pairs = []
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        pairs.append(tuple(random_freestate(rng, dim, int(rng.integers(1, 4))) for _ in range(2)))
    return samples, pairs


def _edge(source, on_input, to, emit):
    return {"from": source, "on_input": on_input, "to": to, "emit": emit}


# The CLI payloads of the stock arena subjects, written out as a config would hold them.
STOCK_PAYLOADS = {
    "parrot": {
        "kind": "deterministic",
        "states": ["s0", "s1"],
        "initial": "s0",
        "freebit_budget": 0,
        "edges": [
            _edge("s0", "0", "s0", "0"),
            _edge("s0", "1", "s1", "0"),
            _edge("s1", "0", "s0", "1"),
            _edge("s1", "1", "s1", "1"),
        ],
    },
    "fair-coin": {
        "kind": "noisy",
        "states": ["s"],
        "initial": "s",
        "freebit_budget": 0,
        "edges": [_edge("s", "0", "s", {"prob": "1/2"}), _edge("s", "1", "s", {"prob": "1/2"})],
    },
    "gerbil": {
        "kind": "hybrid",
        "states": ["a", "b", "c", "d"],
        "initial": "a",
        "freebit_budget": 1,
        "edges": [
            _edge("a", "0", "b", "0"),
            _edge("a", "1", "b", "1"),
            _edge("b", "0", "c", "1"),
            _edge("b", "1", "c", "0"),
            _edge("c", "0", "d", {"freebit": 0}),
            _edge("c", "1", "d", {"freebit": 0}),
            _edge("d", "0", "d", "0"),
            _edge("d", "1", "d", "0"),
        ],
    },
}
