"""Convex sets of states: probabilistic plus Knightian uncertainty.

A quantum freestate is a nonempty convex set of density matrices, held here
by a finite generator list (the set is the convex hull; generators need not
be hull-minimal, redundancy is harmless).  A classical freestate is the same
thing over probability vectors.  Because every probability functional in
scope is linear, its extreme values over the hull are attained at
generators, which makes event intervals exact.

Classical freestates carry exact rationals so interval endpoints like
[1/10, 1/2] come out exactly.  Quantum states are complex float matrices
with explicit validation tolerances.

Hull membership and witness separation are linear feasibility problems over
the real vectorization of Hermitian matrices; they are delegated to
scipy's LP solver, with the returned witnesses re-checked independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import KnightianError

TOL_NORM = 1e-9
TOL_HERMITIAN = 1e-9
TOL_PSD = 1e-9
TOL_TRACE = 1e-9
TOL_WEIGHTS = 1e-12
TOL_HULL = 1e-7  # boundary ties count as "member"


class DimMismatch(KnightianError):
    pass


class NotHermitian(KnightianError):
    def __init__(self, deviation: float):
        super().__init__(f"matrix is not Hermitian (max deviation {deviation:.3e})")
        self.deviation = deviation


class NotPSD(KnightianError):
    def __init__(self, min_eigenvalue: float):
        super().__init__(f"matrix has negative eigenvalue {min_eigenvalue:.6g}")
        self.min_eigenvalue = min_eigenvalue


class TraceNotOne(KnightianError):
    def __init__(self, trace: float):
        super().__init__(f"trace is {trace:.6g}, not 1")
        self.trace = trace


class BadWeights(KnightianError):
    pass


class BadEvent(KnightianError):
    pass


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PureState:
    """A unit vector of complex amplitudes; compared up to global phase."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _freeze(np.asarray(self.amplitudes).reshape(-1))
        object.__setattr__(self, "amplitudes", amps)
        if self.dim < 1 or amps.shape != (self.dim,):
            raise ValueError(f"amplitudes must be a length-{self.dim} vector")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > TOL_NORM:
            raise ValueError(f"state norm {norm} is not 1 within {TOL_NORM}")

    def projector(self) -> "DensityMatrix":
        return DensityMatrix(self.dim, np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: "PureState") -> complex:
        if self.dim != other.dim:
            raise DimMismatch(f"dims {self.dim} != {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def _check_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        m = _check_square(self.entries)
        object.__setattr__(self, "entries", _freeze(m))
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim}, got {m.shape}")
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > TOL_HERMITIAN:
            raise NotHermitian(herm_dev)
        eigs = np.linalg.eigvalsh(m)
        if float(eigs[0]) < -TOL_PSD:
            raise NotPSD(float(eigs[0]))
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TOL_TRACE:
            raise TraceNotOne(float(tr.real))


@dataclass(frozen=True)
class Effect:
    """A measurement operator E with 0 <= E <= I; Tr(E rho) is a probability."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        m = _check_square(self.entries)
        object.__setattr__(self, "entries", _freeze(m))
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim}x{self.dim}, got {m.shape}")
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
        if herm_dev > TOL_HERMITIAN:
            raise NotHermitian(herm_dev)
        eigs = np.linalg.eigvalsh(m)
        if float(eigs[0]) < -TOL_PSD or float(eigs[-1]) > 1.0 + TOL_PSD:
            raise ValueError(
                f"effect eigenvalues [{eigs[0]:.6g}, {eigs[-1]:.6g}] leave [0, 1]"
            )


def validate_density(m) -> DensityMatrix:
    """Validate a square complex matrix as a density matrix.

    Raises NotHermitian, NotPSD (with the offending eigenvalue), or
    TraceNotOne (with the offending trace), in that order of checks.
    """
    m = _check_square(m)
    return DensityMatrix(m.shape[0], m)


@dataclass(frozen=True)
class Freestate:
    dim: int
    generators: tuple[DensityMatrix, ...]

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("a freestate needs at least one generator")
        if any(g.dim != self.dim for g in gens):
            raise DimMismatch("generator dimension differs from the freestate's")


@dataclass(frozen=True)
class ClassicalFreestate:
    n_outcomes: int
    generators: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        gens = []
        for g in self.generators:
            vec = tuple(Fraction(v) if not isinstance(v, float) else _decimal_fraction(v) for v in g)
            if len(vec) != self.n_outcomes:
                raise ValueError(f"expected {self.n_outcomes} outcomes, got {len(vec)}")
            if any(v < 0 for v in vec):
                raise ValueError("probabilities must be nonnegative")
            if abs(sum(vec) - 1) > TOL_WEIGHTS:
                raise ValueError(f"probabilities sum to {float(sum(vec))}, not 1")
            gens.append(vec)
        if not gens:
            raise ValueError("a freestate needs at least one generator")
        object.__setattr__(self, "generators", tuple(gens))


def _decimal_fraction(x: float) -> Fraction:
    # decimal literals like 0.1 become exactly 1/10, not the binary float
    return Fraction(str(x))


# -- algebra --------------------------------------------------------------------


def knightian_or(s1: Freestate, s2: Freestate) -> Freestate:
    """Hull of the union: "either set could be the truth"."""
    if s1.dim != s2.dim:
        raise DimMismatch(f"dims {s1.dim} != {s2.dim}")
    return Freestate(s1.dim, s1.generators + s2.generators)


def classical_or(s1: ClassicalFreestate, s2: ClassicalFreestate) -> ClassicalFreestate:
    if s1.n_outcomes != s2.n_outcomes:
        raise DimMismatch(f"outcome counts {s1.n_outcomes} != {s2.n_outcomes}")
    return ClassicalFreestate(s1.n_outcomes, s1.generators + s2.generators)


def _check_weights(weights) -> list:
    if not weights:
        raise BadWeights("no components")
    if any(w < 0 for w in weights):
        raise BadWeights("weights must be nonnegative")
    if abs(sum(weights) - 1) > TOL_WEIGHTS:
        raise BadWeights(f"weights sum to {float(sum(weights))}, not 1")
    return list(weights)


def prob_mix(components: list[tuple[float | Fraction, Freestate]]) -> Freestate:
    """Probabilistic mixture of freestates, expanded over Knightian choices.

    The generators of the result are every weighted sum obtainable by picking
    one generator from each component: probabilistic uncertainty *over*
    Knightian uncertainty flattens into Knightian uncertainty over mixtures.
    """
    weights = _check_weights([w for w, _ in components])
    states = [s for _, s in components]
    dim = states[0].dim
    if any(s.dim != dim for s in states):
        raise DimMismatch("component dimensions differ")
    gens = []
    for choice in itertools.product(*[s.generators for s in states]):
        total = np.zeros((dim, dim), dtype=complex)
        for w, g in zip(weights, choice):
            total += float(w) * g.entries
        gens.append(DensityMatrix(dim, total))
    return Freestate(dim, tuple(gens))


def classical_mix(
    components: list[tuple[float | Fraction, ClassicalFreestate]]
) -> ClassicalFreestate:
    weights = _check_weights(
        [w if isinstance(w, Fraction) else _decimal_fraction(w) for w, _ in components]
    )
    states = [s for _, s in components]
    n = states[0].n_outcomes
    if any(s.n_outcomes != n for s in states):
        raise DimMismatch("component outcome counts differ")
    gens = []
    for choice in itertools.product(*[s.generators for s in states]):
        total = [Fraction(0)] * n
        for w, g in zip(weights, choice):
            total = [t + w * v for t, v in zip(total, g)]
        gens.append(tuple(total))
    return ClassicalFreestate(n, tuple(gens))


def expectation(rho: DensityMatrix, effect: Effect) -> float:
    if rho.dim != effect.dim:
        raise DimMismatch(f"dims {rho.dim} != {effect.dim}")
    return float(np.real(np.trace(effect.entries @ rho.entries)))


def effect_interval(s: Freestate, effect: Effect) -> tuple[float, float]:
    """Exact extremal probabilities of the effect over the freestate.

    Linear functional over a polytope: the extremes sit at generators.
    Endpoints are clipped into [0, 1] by at most numerical slack.
    """
    if s.dim != effect.dim:
        raise DimMismatch(f"dims {s.dim} != {effect.dim}")
    values = [expectation(g, effect) for g in s.generators]
    lo, hi = min(values), max(values)
    # validation slack on states/effects can compound to a few dim * 1e-9
    assert lo > -1e-7 and hi < 1 + 1e-7, "effect expectation left [0, 1]"
    return max(lo, 0.0), min(hi, 1.0)


def event_interval(
    s: ClassicalFreestate, event: list[int] | set[int]
) -> tuple[Fraction, Fraction]:
    """Exact lower/upper probability of a set of outcomes."""
    idx = sorted(set(event))
    if any(i < 0 or i >= s.n_outcomes for i in idx):
        raise BadEvent(f"event indices must lie in [0, {s.n_outcomes})")
    values = [sum((g[i] for i in idx), Fraction(0)) for g in s.generators]
    return min(values), max(values)


def clone_feasible(psi: PureState, phi: PureState) -> bool:
    """Can one unitary clone both states?

    A unitary with psi|0> -> psi psi and phi|0> -> phi phi must preserve the
    inner product, forcing |<psi|phi>| = |<psi|phi>|**2, i.e. the overlap
    modulus is 0 or 1 (orthogonal, or the same state up to global phase).
    """
    s = abs(psi.overlap(phi))
    return abs(s - s * s) <= 1e-9


# -- hull membership and separating witnesses ------------------------------------


def _herm_vec(m: np.ndarray) -> np.ndarray:
    """Isometric real coordinates: <vec(A), vec(B)> = Tr(A B) for Hermitian A, B."""
    d = m.shape[0]
    parts = [np.real(np.diag(m))]
    iu = np.triu_indices(d, k=1)
    parts.append(np.sqrt(2.0) * np.real(m[iu]))
    parts.append(np.sqrt(2.0) * np.imag(m[iu]))
    return np.concatenate(parts)


def _vec_herm(v: np.ndarray, d: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[np.diag_indices(d)] = v[:d]
    iu = np.triu_indices(d, k=1)
    k = len(iu[0])
    re = v[d : d + k] / np.sqrt(2.0)
    im = v[d + k : d + 2 * k] / np.sqrt(2.0)
    m[iu] += re + 1j * im
    m[(iu[1], iu[0])] += re - 1j * im
    return m


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first use.

    Importing scipy costs more than most CLI commands; only the LPs below
    need it.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def hull_contains(s: Freestate, rho: DensityMatrix, tol: float = TOL_HULL) -> bool:
    """Linear feasibility: is rho a convex combination of the generators?"""
    if s.dim != rho.dim:
        raise DimMismatch(f"dims {s.dim} != {rho.dim}")
    target = _herm_vec(np.asarray(rho.entries))
    cols = np.stack([_herm_vec(np.asarray(g.entries)) for g in s.generators], axis=1)
    n = cols.shape[1]
    m = cols.shape[0]
    # min sum(s+ + s-)  s.t.  cols @ lam + s+ - s- = target, sum(lam) = 1, all >= 0
    c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    a_eq = np.block([[cols, np.eye(m), -np.eye(m)], [np.ones((1, n)), np.zeros((1, 2 * m))]])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * (n + 2 * m), method="highs")
    return bool(res.success and res.fun <= tol)


@dataclass(frozen=True)
class PureWitness:
    psi: PureState
    value_on_state: float
    interval_on_other: tuple[float, float]
    gap: float


@dataclass(frozen=True)
class HermitianWitness:
    operator: np.ndarray
    value_on_state: float
    interval_on_other: tuple[float, float]
    gap: float


def _separating_functional(
    rho: DensityMatrix, s: Freestate
) -> tuple[np.ndarray, float]:
    """Hermitian W (entries bounded by 1) maximizing Tr(W rho) - max_g Tr(W g)."""
    target = _herm_vec(np.asarray(rho.entries))
    gen_vecs = [_herm_vec(np.asarray(g.entries)) for g in s.generators]
    k = len(target)
    # variables: w (k reals, |w_i| <= 1), margin m; maximize m
    c = np.zeros(k + 1)
    c[-1] = -1.0
    a_ub = np.stack([np.append(g - target, 1.0) for g in gen_vecs])
    b_ub = np.zeros(len(gen_vecs))
    bounds = [(-1.0, 1.0)] * k + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise KnightianError("separating-functional LP failed")
    w = _vec_herm(res.x[:k], rho.dim)
    return w, float(res.x[-1])


def _quadratic_interval(psi: np.ndarray, s: Freestate) -> tuple[float, float]:
    vals = [float(np.real(psi.conj() @ np.asarray(g.entries) @ psi)) for g in s.generators]
    return min(vals), max(vals)


def _pure_gap(psi: np.ndarray, rho: DensityMatrix, s: Freestate) -> float:
    value = float(np.real(psi.conj() @ np.asarray(rho.entries) @ psi))
    lo, hi = _quadratic_interval(psi, s)
    return max(value - hi, lo - value)


def separating_witness(
    s1: Freestate,
    s2: Freestate,
    tol: float = 1e-6,
    restarts: int = 64,
    seed: int = 0,
) -> PureWitness | HermitianWitness | None:
    """Exhibit the difference between two freestates, or None if hull-equal.

    Set equality is decided by mutual hull membership of all generators.
    When unequal, some generator rho of one set lies outside the other's
    hull; a separating Hermitian functional is found by LP, and a pure state
    is searched (spectral vectors of the functional, then random-restart
    ascent) whose expectation interval on the other set excludes rho's value
    by more than tol.  If the pure search fails, the Hermitian functional is
    returned instead; if even its margin is within tol, the sets are
    indistinguishable at this tolerance and the result is None.
    """
    if s1.dim != s2.dim:
        raise DimMismatch(f"dims {s1.dim} != {s2.dim}")
    outlier: tuple[DensityMatrix, Freestate] | None = None
    for rho in s1.generators:
        if not hull_contains(s2, rho):
            outlier = (rho, s2)
            break
    if outlier is None:
        for rho in s2.generators:
            if not hull_contains(s1, rho):
                outlier = (rho, s1)
                break
    if outlier is None:
        return None
    rho, other = outlier

    w, margin = _separating_functional(rho, other)
    d = rho.dim
    rng = np.random.default_rng(seed)

    best_psi, best_gap = None, tol
    # spectral vectors of the separating functional usually already work
    for start in np.linalg.eigh(w)[1].T:
        psi = np.asarray(start, dtype=complex)
        gap = _pure_gap(psi, rho, other)
        if gap > best_gap:
            best_psi, best_gap = psi, gap
    if best_psi is not None:
        polished = _ascend_pure(best_psi, rho, other)
        if _pure_gap(polished, rho, other) > best_gap:
            best_psi, best_gap = polished, _pure_gap(polished, rho, other)
    else:
        for _ in range(restarts):
            raw = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi = _ascend_pure(raw / np.linalg.norm(raw), rho, other)
            gap = _pure_gap(psi, rho, other)
            if gap > best_gap:
                best_psi, best_gap = psi, gap
    if best_psi is not None:
        value = float(np.real(best_psi.conj() @ np.asarray(rho.entries) @ best_psi))
        return PureWitness(
            PureState(d, best_psi),
            value,
            _quadratic_interval(best_psi, other),
            best_gap,
        )

    herm_vals = [
        float(np.real(np.trace(w @ np.asarray(g.entries)))) for g in other.generators
    ]
    value = float(np.real(np.trace(w @ np.asarray(rho.entries))))
    lo, hi = min(herm_vals), max(herm_vals)
    gap = max(value - hi, lo - value)
    if gap <= tol:
        return None
    return HermitianWitness(w, value, (lo, hi), gap)


def _ascend_pure(start: np.ndarray, rho: DensityMatrix, s: Freestate) -> np.ndarray:
    """Projected local ascent of the exclusion gap on the unit sphere."""
    psi = start / np.linalg.norm(start)
    step = 0.25
    current = _pure_gap(psi, rho, s)
    for _ in range(120):
        grad = _gap_gradient(psi, rho, s)
        trial = psi + step * grad
        trial = trial / np.linalg.norm(trial)
        value = _pure_gap(trial, rho, s)
        if value > current + 1e-14:
            psi, current = trial, value
        else:
            step *= 0.5
            if step < 1e-6:
                break
    return psi


def _gap_gradient(psi: np.ndarray, rho: DensityMatrix, s: Freestate) -> np.ndarray:
    # gradient of <psi|rho|psi> minus the active extreme of the other set
    lo, hi = _quadratic_interval(psi, s)
    value = float(np.real(psi.conj() @ np.asarray(rho.entries) @ psi))
    if value - hi >= lo - value:
        active = max(s.generators, key=lambda g: float(np.real(psi.conj() @ np.asarray(g.entries) @ psi)))
        direction = np.asarray(rho.entries) - np.asarray(active.entries)
    else:
        active = min(s.generators, key=lambda g: float(np.real(psi.conj() @ np.asarray(g.entries) @ psi)))
        direction = np.asarray(active.entries) - np.asarray(rho.entries)
    grad = 2.0 * direction @ psi
    # project out the radial component
    return grad - np.real(np.vdot(psi, grad)) * psi


# -- common states ----------------------------------------------------------------


def ket(label: str) -> PureState:
    """Named qubit states: 0, 1, +, -, i, -i."""
    table = {
        "0": [1, 0],
        "1": [0, 1],
        "+": [1 / np.sqrt(2), 1 / np.sqrt(2)],
        "-": [1 / np.sqrt(2), -1 / np.sqrt(2)],
        "i": [1 / np.sqrt(2), 1j / np.sqrt(2)],
        "-i": [1 / np.sqrt(2), -1j / np.sqrt(2)],
    }
    if label not in table:
        raise ValueError(f"unknown state label {label!r}")
    return PureState(2, np.array(table[label], dtype=complex))


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(dim, np.eye(dim) / dim)


def full_freebit() -> Freestate:
    """The whole Bloch-ball qubit hull spanned by the six axis states."""
    gens = tuple(ket(s).projector() for s in ("0", "1", "+", "-", "i", "-i"))
    return Freestate(2, gens)


# -- JSON -------------------------------------------------------------------------


def _matrix_payload(m: np.ndarray) -> list:
    return [[[float(np.real(v)), float(np.imag(v))] for v in row] for row in np.asarray(m)]


def _matrix_from_payload(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def freestate_to_payload(s: Freestate) -> dict:
    return {"dim": s.dim, "generators": [_matrix_payload(g.entries) for g in s.generators]}


def freestate_from_payload(payload: dict) -> Freestate:
    dim = int(payload["dim"])
    gens = tuple(DensityMatrix(dim, _matrix_from_payload(g)) for g in payload["generators"])
    return Freestate(dim, gens)


def classical_to_payload(s: ClassicalFreestate) -> dict:
    return {"n": s.n_outcomes, "generators": [[str(v) for v in g] for g in s.generators]}


def classical_from_payload(payload: dict) -> ClassicalFreestate:
    n = int(payload["n"])
    gens = tuple(
        tuple(Fraction(str(v)) for v in g) for g in payload["generators"]
    )
    return ClassicalFreestate(n, gens)


def effect_from_payload(payload: dict) -> Effect:
    dim = int(payload["dim"])
    return Effect(dim, _matrix_from_payload(payload["entries"]))


def effect_to_payload(e: Effect) -> dict:
    return {"dim": e.dim, "entries": _matrix_payload(e.entries)}
