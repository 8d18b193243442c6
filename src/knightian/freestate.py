"""Quantum freestates: convex sets of density matrices.

A quantum freestate is a nonempty convex set of density matrices, held here
by a finite generator list (the set is the convex hull; generators need not
be hull-minimal, redundancy is harmless).  Because every probability
functional in scope is linear, its extreme values over the hull are attained
at generators, which makes effect intervals exact up to float rounding.
Quantum states are complex float matrices with explicit validation
tolerances.  The classical kind, exact probability vectors, and the algebra
on either kind (knightian_or, prob_mix) live in ``classical``; the JSON form
of states, effects and freestates, in ``cli_freestate``.

Hull membership and witness separation are one LP over the real
vectorization of Hermitian matrices: the best margin of a separating
functional, which by LP duality is the least L1 distance to the hull.  A
bounded-variable simplex solves it in floats; the float answer brackets the
distance exactly, and when TOL_HULL falls inside the bracket the same simplex
reruns in Fractions, so membership is decided exactly for the float data.
The witnesses built on it are re-checked independently.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .classical import DimMismatch
from .classical import event_interval  # noqa: F401  bench/launch.py's TRACED wraps freestate.event_interval
from .errors import KnightianError
from .record import Record

TOL_NORM = 1e-9
TOL_HERMITIAN = 1e-9
TOL_PSD = 1e-9
TOL_TRACE = 1e-9
TOL_HULL = 1e-7  # boundary ties count as "member"
# each witness restart is an ascent of up to 120 steps: about 3 ms in d = 3 with 8
# generators on a 2-core Xeon VM, so the guard costs at most about 0.8 s there
RESTARTS_GUARD = 256


class NotHermitian(KnightianError):
    def __init__(self, deviation: float):
        super().__init__(f"matrix is not Hermitian (max deviation {deviation:.3e})")


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


class PureState(Record):
    """A unit vector of complex amplitudes; compared up to global phase."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _freeze(np.asarray(self.amplitudes).reshape(-1))
        object.__setattr__(self, "amplitudes", amps)
        if self.dim < 1:
            raise ValueError("a pure state needs at least one amplitude")
        if amps.shape != (self.dim,):
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


class DensityMatrix(Record):
    dim: int
    entries: np.ndarray

    def __post_init__(self):
        eigs = _hermitian_eigenvalues(self)
        if float(eigs[0]) < -TOL_PSD:
            raise NotPSD(float(eigs[0]))
        tr = complex(np.trace(self.entries))
        if abs(tr - 1.0) > TOL_TRACE:
            raise TraceNotOne(float(tr.real))


class Effect(Record):
    """A measurement operator E with 0 <= E <= I; Tr(E rho) is a probability."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        eigs = _hermitian_eigenvalues(self)
        if float(eigs[0]) < -TOL_PSD or float(eigs[-1]) > 1.0 + TOL_PSD:
            raise ValueError(
                f"effect eigenvalues [{eigs[0]:.6g}, {eigs[-1]:.6g}] leave [0, 1]"
            )


class Freestate(Record):
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


def hull_contains(s: Freestate, rho: DensityMatrix) -> bool:
    """Is rho a convex combination of the generators?  Its least L1 distance to
    the hull, by duality the best separating margin, is within TOL_HULL,
    decided exactly for the float data."""
    if s.dim != rho.dim:
        raise DimMismatch(f"dims {s.dim} != {rho.dim}")
    return not _separating_functional(rho, s)[2]


class PureWitness(Record):
    psi: PureState
    value_on_state: float
    interval_on_other: tuple[float, float]
    gap: float


class HermitianWitness(Record):
    operator: np.ndarray
    value_on_state: float
    interval_on_other: tuple[float, float]
    gap: float


def _separating_functional(
    rho: DensityMatrix, s: Freestate
) -> tuple[np.ndarray, float, bool]:
    """Hermitian W (entries bounded by 1) maximizing Tr(W rho) - max_g Tr(W g).

    Returns W, that margin (the L1 distance from rho to the hull), and whether
    the margin exceeds TOL_HULL, decided exactly."""
    target = _herm_vec(np.asarray(rho.entries))
    gens = np.stack([_herm_vec(np.asarray(g.entries)) for g in s.generators])
    w, distance, outside = linprog(target, gens)
    return _vec_herm(w, rho.dim), distance, outside


# -- the hull LP --------------------------------------------------------------------
#
# In the real coordinates of _herm_vec (target t, generator rows g_i), the
# separating functional solves
#
#   maximize m  subject to  <g_i - t, w> + m + s_i = 0,  s_i >= 0,  |w_j| <= 1,
#
# so m is the margin min_i <t - g_i, w>.  The row duals lam weigh the
# generators, and by LP duality the best margin is the L1 distance
# min ||t - sum_i lam_i g_i||_1 over the simplex.
#
# The simplex keeps the tableau B^-1 [A; c] of the n rows, with columns w (k),
# m, then s (n), and the reduced costs of minimizing -m in its last row; the
# reduced costs of s are lam.  A nonbasic variable sits at one of its bounds,
# w_j at -1 or 1 and s_i at 0; m has none, so it stays basic.

_FLOAT_EPS = 1e-11  # float reduced costs and pivot entries within this of 0 count as 0
_STALL = 8  # degenerate steps in a row before Bland's rule takes over


def _tableau(target: np.ndarray, gens: np.ndarray) -> np.ndarray:
    n, k = gens.shape
    costs = np.concatenate([np.zeros(k), [-1.0], np.zeros(n)])
    return np.vstack([np.hstack([gens - target, np.ones((n, 1)), np.eye(n)]), costs])


def _cold_start(target: np.ndarray, gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(basis, x): w_j = 1 where t_j exceeds g_0j, else -1; m basic in the row of the
    least margin, s_i basic in the others."""
    n, k = gens.shape
    w = np.where(target > gens[0], 1.0, -1.0)
    basis = np.arange(k + 1, k + 1 + n)
    basis[np.argmin((target - gens) @ w)] = k
    return basis, np.concatenate([w, np.zeros(1 + n)])


def _pivot(t: np.ndarray, row: int, col: int) -> None:
    t[row] = t[row] / t[row, col]
    others = np.flatnonzero(t[:, col])
    others = others[others != row]
    t[others] -= np.outer(t[others, col], t[row])
    t[others, col] = 0  # already exact in Fractions; in floats, rounding leftovers


def _simplex(data: np.ndarray, basis, x: np.ndarray, eps, limit=math.inf):
    """Pivot the basis in, then step to an optimal vertex: (tableau, basis, x).

    data is the float or Fraction tableau; basis[r] is row r's basic column
    and x gives every variable's value, a nonbasic one at one of its bounds.
    Steps follow Dantzig's rule, and Bland's while the objective stalls, so no
    basis repeats.  None when the basis is singular or its vertex infeasible;
    a float solve stops after limit steps, optimal or not."""
    n = len(data) - 1
    k = data.shape[1] - 1 - n
    lower = np.array([-1] * k + [-math.inf] + [0] * n, dtype=data.dtype)
    upper = np.array([1] * k + [math.inf] * (1 + n), dtype=data.dtype)
    t, x, placed = data.copy(), x.copy(), np.full(n, -1)
    for col in sorted(basis, reverse=True):  # s first: each of their pivots touches one row
        rows = np.flatnonzero((t[:-1, col] != 0) & (placed < 0))
        if not rows.size:
            return None
        row = rows[np.argmax(np.abs(t[rows, col]))]
        _pivot(t, row, col)
        placed[row] = col
    basis = placed
    x[basis] = 0
    x[basis] = -(t[:-1] @ x)
    if (x < lower - eps).any() or (x > upper + eps).any():
        return None
    steps = stalled = 0
    while steps < limit:
        costs = t[-1]
        movable = ((costs < -eps) & (x < upper)) | ((costs > eps) & (x > lower))
        movable[basis] = False
        entering = np.flatnonzero(movable)
        if not entering.size:
            break
        col = entering[0] if stalled > _STALL else entering[np.argmax(np.abs(costs[entering]))]
        rising = costs[col] < 0
        step = upper[col] - x[col] if rising else x[col] - lower[col]  # to col's other bound
        alpha = t[:-1, col] if rising else -t[:-1, col]  # basic values move by -step * alpha
        bound = np.where(alpha > 0, lower[basis], upper[basis])
        rows = np.flatnonzero((np.abs(alpha) > eps) & (np.abs(bound) < math.inf))
        limits = (x[basis[rows]] - bound[rows]) / alpha[rows]
        row = None
        if rows.size and limits.min() < step:
            step = limits.min()
            tied = rows[limits == step]
            row = tied[np.argmin(basis[tied])]
        if step == math.inf:
            break
        x[basis] -= step * alpha
        x[col] += step if rising else -step
        if row is not None:
            x[basis[row]] = bound[row]
            _pivot(t, row, col)
            basis[row] = col
        steps += 1
        stalled = stalled + 1 if step <= eps else 0
    return t, basis, x


def _float_solve(data: np.ndarray, basis: np.ndarray, x: np.ndarray):
    """The float simplex from the given start: its last basis, x and lam, none of them verified."""
    t, basis, x = _simplex(data, basis, x, _FLOAT_EPS, limit=4 * data.shape[1])
    return basis, x, t[-1, 1 - len(data) :]  # lam: the reduced costs of s


_fractions = np.vectorize(Fraction, otypes=[object])


def _integers(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Python integers n and a power of two q with a == n / q exactly."""
    ratios = [v.as_integer_ratio() for v in a.ravel().tolist()]
    q = max(d for _, d in ratios)
    return np.array([p * (q // d) for p, d in ratios], dtype=object).reshape(a.shape), q


def _bracket(target: np.ndarray, gens: np.ndarray, w: np.ndarray, lam: np.ndarray):
    """Exact lo <= distance <= hi at the float data, for any float w and lam.

    Weak duality: the margin of w, clipped into the box, is at most the
    distance, and the L1 residual of lam, clipped to lam >= 0 and
    renormalized, is at least it.  The sums run in integers."""
    data, q = _integers(np.vstack([target, gens]))
    t, g = data[0], data[1:]
    w, q_w = _integers(np.clip(np.nan_to_num(w), -1.0, 1.0))
    lo = Fraction(((t - g) @ w).min(), q * q_w)
    lam, _ = _integers(np.maximum(np.nan_to_num(lam), 0.0))
    total = lam.sum()
    hi = Fraction(np.abs(total * t - lam @ g).sum(), total * q) if total else math.inf
    return lo, hi


def linprog(target: np.ndarray, gens: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """The hull LP at the float data: (w, the distance, whether it exceeds TOL_HULL).

    The float solve's w and lam bracket the distance exactly (Neumaier &
    Shcherbina, Math. Programming 99, 2004).  When TOL_HULL falls inside the
    bracket, the same simplex reruns on Fractions of the data, warm-started at
    the float basis, and decides exactly (Applegate, Cook, Dash & Espinoza,
    Oper. Res. Letters 35, 2007)."""
    k = len(target)
    data, cold = _tableau(target, gens), _cold_start(target, gens)
    basis, x, lam = _float_solve(data, *cold)
    w = np.clip(x[:k], -1.0, 1.0)
    lo, hi = _bracket(target, gens, w, lam)
    if lo > TOL_HULL or hi <= TOL_HULL:
        return w, float(x[k]), lo > TOL_HULL
    exact = _fractions(data)
    warm = _fractions(np.nan_to_num(x))  # its nonbasic values sit exactly on their bounds
    _, _, x = _simplex(exact, basis, warm, 0) or _simplex(exact, cold[0], _fractions(cold[1]), 0)
    return x[:k].astype(float), float(x[k]), x[k] > TOL_HULL


def _quadratic(psi: np.ndarray, m: DensityMatrix) -> float:
    return float(np.real(psi.conj() @ np.asarray(m.entries) @ psi))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _pure_gap(psi: np.ndarray, rho: DensityMatrix, s: Freestate):
    """One evaluation of a candidate: (value on rho, (lo, hi) on s, the exclusion
    gap, the gap's gradient toward the first active extreme, tangent to the sphere)."""
    value = _quadratic(psi, rho)
    vals = [_quadratic(psi, g) for g in s.generators]
    lo, hi = min(vals), max(vals)
    if value - hi >= lo - value:
        direction = np.asarray(rho.entries) - np.asarray(s.generators[vals.index(hi)].entries)
    else:
        direction = np.asarray(s.generators[vals.index(lo)].entries) - np.asarray(rho.entries)
    grad = 2.0 * direction @ psi
    return value, (lo, hi), max(value - hi, lo - value), grad - np.real(np.vdot(psi, grad)) * psi


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
    separating functional, and a pure state is searched whose expectation
    interval on the other set excludes rho's value by more than tol.  The
    spectral vectors of the functional are tried first; one ascent loop then
    polishes the best of them if it clears tol, or else runs from `restarts`
    random unit vectors drawn from `seed`, and the first strict improvement
    wins.  If the pure search fails, the Hermitian functional is returned
    instead; if even its margin is within tol, the sets are indistinguishable
    at this tolerance and the result is None.
    """
    if s1.dim != s2.dim:
        raise DimMismatch(f"dims {s1.dim} != {s2.dim}")
    if not 0 <= restarts <= RESTARTS_GUARD:
        raise ValueError(f"'restarts' must lie in [0, {RESTARTS_GUARD}], got {restarts}")
    if not tol >= 0:  # a negative tol would pass off a gap <= 0, an overlap, as a witness
        raise ValueError(f"'tol' must be >= 0, got {tol}")
    for rho, other in [(g, s2) for g in s1.generators] + [(g, s1) for g in s2.generators]:
        w, _, outside = _separating_functional(rho, other)
        if outside:
            break
    else:
        return None

    d = rho.dim
    best_psi, best = None, (None, None, tol)  # best[2], the gap a candidate must beat
    # spectral vectors of the separating functional usually already work
    for start in np.linalg.eigh(w)[1].T:
        psi = np.asarray(start, dtype=complex)
        evaluation = _pure_gap(psi, rho, other)
        if evaluation[2] > best[2]:
            best_psi, best = psi, evaluation
    if best_psi is not None:
        starts = [best_psi]
    else:
        rng = np.random.default_rng(seed)  # numpy.random loads only when a restart runs
        starts = (_unit(rng.normal(size=d) + 1j * rng.normal(size=d)) for _ in range(restarts))
    for start in starts:
        psi, evaluation = _ascend_pure(start, rho, other, (best_psi, best))
        if evaluation[2] > best[2]:
            best_psi, best = psi, evaluation
    if best_psi is not None:
        return PureWitness(PureState(d, best_psi), *best[:3])

    value = float(np.real(np.trace(w @ np.asarray(rho.entries))))
    vals = [float(np.real(np.trace(w @ np.asarray(g.entries)))) for g in other.generators]
    lo, hi = min(vals), max(vals)
    gap = max(value - hi, lo - value)
    return None if gap <= tol else HermitianWitness(w, value, (lo, hi), gap)


def _ascend_pure(start: np.ndarray, rho: DensityMatrix, s: Freestate, known: tuple):
    """Projected local ascent of the exclusion gap on the unit sphere: (psi, its _pure_gap).

    Each point is evaluated once: known, a point and its _pure_gap, stands for
    the start when the start normalizes to it bit for bit, and an accepted
    trial's gradient is the next step's."""
    psi = _unit(start)
    current = known[1] if np.array_equal(psi, known[0]) else _pure_gap(psi, rho, s)
    step = 0.25
    for _ in range(120):
        trial = _unit(psi + step * current[3])
        evaluation = _pure_gap(trial, rho, s)
        if evaluation[2] > current[2] + 1e-14:
            psi, current = trial, evaluation
        else:
            step *= 0.5
            if step < 1e-6:
                break
    return psi, current


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
