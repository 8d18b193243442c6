"""Quantum freestates: convex sets of density matrices.

A quantum freestate is a nonempty convex set of density matrices, held here
by a finite generator list (the set is the convex hull; generators need not
be hull-minimal, redundancy is harmless).  Because every probability
functional in scope is linear, its extreme values over the hull are attained
at generators, which makes effect intervals exact up to float rounding.
Quantum states are complex float matrices with explicit validation
tolerances.  The classical kind, exact probability vectors, and the algebra
on either kind (knightian_or, prob_mix) live in ``classical``.

Hull membership and witness separation are one LP over the real
vectorization of Hermitian matrices, delegated to scipy: the best margin of a
separating functional, which by LP duality is the least L1 distance to the
hull.  The witnesses built on it are re-checked independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classical import DimMismatch
from .classical import event_interval  # noqa: F401  bench/launch.py's TRACED wraps freestate.event_interval
from .errors import KnightianError, at

TOL_NORM = 1e-9
TOL_HERMITIAN = 1e-9
TOL_PSD = 1e-9
TOL_TRACE = 1e-9
TOL_HULL = 1e-7  # boundary ties count as "member"
# each witness restart is an ascent of up to 120 steps: about 6 ms in d = 3 on a
# 2-core Xeon VM, so the guard costs at most about 1.5 s there
RESTARTS_GUARD = 256


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
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        with np.errstate(over="ignore"):  # amplitudes near the float limit have norm inf
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
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _hermitian_eigenvalues(obj) -> np.ndarray:
    """Freeze obj.entries, a finite Hermitian dim x dim matrix; its eigenvalues, ascending."""
    m = _check_square(obj.entries)
    object.__setattr__(obj, "entries", _freeze(m))
    if m.shape != (obj.dim, obj.dim):
        raise ValueError(f"expected {obj.dim}x{obj.dim}, got {m.shape}")
    with np.errstate(over="ignore"):  # entries near the float limit deviate by inf
        herm_dev = float(np.max(np.abs(m - m.conj().T)))
    if herm_dev > TOL_HERMITIAN:
        raise NotHermitian(herm_dev)
    return np.linalg.eigvalsh(m)


@dataclass(frozen=True)
class DensityMatrix:
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        eigs = _hermitian_eigenvalues(self)
        if float(eigs[0]) < -TOL_PSD:
            raise NotPSD(float(eigs[0]))
        tr = complex(np.trace(self.entries))
        if abs(tr - 1.0) > TOL_TRACE:
            raise TraceNotOne(float(tr.real))


@dataclass(frozen=True)
class Effect:
    """A measurement operator E with 0 <= E <= I; Tr(E rho) is a probability."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        eigs = _hermitian_eigenvalues(self)
        if float(eigs[0]) < -TOL_PSD or float(eigs[-1]) > 1.0 + TOL_PSD:
            raise ValueError(
                f"effect eigenvalues [{eigs[0]:.6g}, {eigs[-1]:.6g}] leave [0, 1]"
            )


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

    def weighted_sum(self, weights: list[Fraction], choice) -> DensityMatrix:
        """sum_i weights[i] * choice[i], one generator of a mixture."""
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for w, g in zip(weights, choice):
            total += float(w) * g.entries
        return DensityMatrix(self.dim, total)


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
    if not (lo > -1e-7 and hi < 1 + 1e-7):
        raise KnightianError(f"effect expectation left [0, 1]: [{lo}, {hi}]")
    return min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0)


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


def hull_contains(s: Freestate, rho: DensityMatrix) -> bool:
    """Is rho a convex combination of the generators?  Its least L1 distance to
    the hull, by duality the best separating margin, is within TOL_HULL."""
    if s.dim != rho.dim:
        raise DimMismatch(f"dims {s.dim} != {rho.dim}")
    return _separating_functional(rho, s)[1] <= TOL_HULL


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
    """Hermitian W (entries bounded by 1) maximizing Tr(W rho) - max_g Tr(W g).

    Feasible (W = 0) and bounded, so only numerics can fail it."""
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


def _quadratic(psi: np.ndarray, m: DensityMatrix) -> float:
    return float(np.real(psi.conj() @ np.asarray(m.entries) @ psi))


def _quadratic_interval(psi: np.ndarray, s: Freestate) -> tuple[float, float]:
    vals = [_quadratic(psi, g) for g in s.generators]
    return min(vals), max(vals)


def _pure_gap(psi: np.ndarray, rho: DensityMatrix, s: Freestate) -> float:
    value = _quadratic(psi, rho)
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

    Set equality is decided by mutual hull membership of all generators, each
    of s1 against s2, then each of s2 against s1, with hull_contains's LP.
    The first generator rho outside the other's hull keeps its LP's
    separating functional, and a pure state is searched (spectral vectors of
    the functional, then random-restart ascent) whose expectation interval on
    the other set excludes rho's value by more than tol.  If the pure search
    fails, the Hermitian functional is returned instead; if even its margin
    is within tol, the sets are indistinguishable at this tolerance and the
    result is None.
    """
    if s1.dim != s2.dim:
        raise DimMismatch(f"dims {s1.dim} != {s2.dim}")
    if not 0 <= restarts <= RESTARTS_GUARD:
        raise ValueError(f"'restarts' must lie in [0, {RESTARTS_GUARD}], got {restarts}")
    for rho, other in [(g, s2) for g in s1.generators] + [(g, s1) for g in s2.generators]:
        w, margin = _separating_functional(rho, other)
        if margin > TOL_HULL:
            break
    else:
        return None

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
        polished, gap = _ascend_pure(best_psi, rho, other)
        if gap > best_gap:
            best_psi, best_gap = polished, gap
    else:
        for _ in range(restarts):
            raw = rng.normal(size=d) + 1j * rng.normal(size=d)
            psi, gap = _ascend_pure(raw / np.linalg.norm(raw), rho, other)
            if gap > best_gap:
                best_psi, best_gap = psi, gap
    if best_psi is not None:
        return PureWitness(
            PureState(d, best_psi),
            _quadratic(best_psi, rho),
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


def _ascend_pure(start: np.ndarray, rho: DensityMatrix, s: Freestate) -> tuple[np.ndarray, float]:
    """Projected local ascent of the exclusion gap on the unit sphere: (psi, its gap)."""
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
    return psi, current


def _gap_gradient(psi: np.ndarray, rho: DensityMatrix, s: Freestate) -> np.ndarray:
    # gradient of <psi|rho|psi> minus the (first) active extreme of the other set
    vals = [_quadratic(psi, g) for g in s.generators]
    lo, hi = min(vals), max(vals)
    value = _quadratic(psi, rho)
    if value - hi >= lo - value:
        active = s.generators[vals.index(hi)]
        direction = np.asarray(rho.entries) - np.asarray(active.entries)
    else:
        active = s.generators[vals.index(lo)]
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


def full_freebit() -> Freestate:
    """The whole Bloch-ball qubit hull spanned by the six axis states."""
    gens = tuple(ket(s).projector() for s in ("0", "1", "+", "-", "i", "-i"))
    return Freestate(2, gens)


# -- JSON -------------------------------------------------------------------------
#
# Each reader takes the path of its payload, e.g. config['freestate'], and names
# it, down to the generator index, in any validation error it raises.


def _matrix_payload(m: np.ndarray) -> list:
    return [[[float(np.real(v)), float(np.imag(v))] for v in row] for row in np.asarray(m)]


def _matrix_from_payload(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def freestate_to_payload(s: Freestate) -> dict:
    return {"dim": s.dim, "generators": [_matrix_payload(g.entries) for g in s.generators]}


def freestate_from_payload(payload: dict, path: str = "payload") -> Freestate:
    dim = payload["dim"]
    gens = []
    for i, g in enumerate(payload["generators"]):
        with at(f"{path}['generators'][{i}]"):
            gens.append(DensityMatrix(dim, _matrix_from_payload(g)))
    with at(f"{path}['generators']"):
        return Freestate(dim, tuple(gens))


def effect_from_payload(payload: dict, path: str = "payload") -> Effect:
    with at(f"{path}['entries']"):
        return Effect(payload["dim"], _matrix_from_payload(payload["entries"]))


def pure_from_payload(rows: list, path: str = "payload") -> PureState:
    """A pure state from its [re, im] amplitude rows."""
    with at(path):
        return PureState(len(rows), [complex(re, im) for re, im in rows])
