import collections
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import c10_draws, pushed_out_pair, random_density, random_effect, random_freestate
from knightian import classical as cl, cli_freestate, freestate as fs
from knightian.errors import KnightianError
import oracles


def qstate(label):
    return fs.Freestate(2, (fs.ket(label).projector(),))


# -- validation -----------------------------------------------------------------


def test_maximally_mixed_is_valid():
    rho = oracles.validate_density(np.eye(2) / 2)
    assert rho.dim == 2


def test_not_psd_reports_eigenvalue():
    with pytest.raises(fs.NotPSD) as err:
        oracles.validate_density(np.diag([1.5, -0.5]))
    assert err.value.min_eigenvalue == pytest.approx(-0.5)


def test_trace_not_one_reports_trace():
    with pytest.raises(fs.TraceNotOne) as err:
        oracles.validate_density(np.diag([0.6, 0.6]))
    assert err.value.trace == pytest.approx(1.2)


def test_not_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(fs.NotHermitian):
        oracles.validate_density(m)


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValueError):
        fs.PureState(2, np.array([1.0, 1.0]))


def test_effect_requires_bounded_spectrum():
    with pytest.raises(ValueError):
        fs.Effect(2, np.diag([1.5, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_rejected(bad):
    # NaN passes every comparison-based check, so finiteness is checked first
    with pytest.raises(ValueError, match="finite"):
        fs.PureState(2, np.array([bad, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        oracles.validate_density(np.array([[bad, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        fs.Effect(2, np.array([[0.5, 0.0], [0.0, bad]]))


def test_classical_generators_must_be_distributions():
    with pytest.raises(ValueError):
        cl.ClassicalFreestate(2, ((Fraction(1, 2), Fraction(1, 3)),))


def test_each_classical_generator_is_read_once(monkeypatch):
    # the payload reader reads each generator, and the freestate keeps it; or
    # and mix build theirs from generators already read
    calls = []
    read = cl._probabilities
    monkeypatch.setattr(cl, "_probabilities", lambda g, dim: calls.append(g) or read(g, dim))
    a = cli_freestate.classical_from_payload({"n": 2, "generators": [["0.9", "0.1"], ["1/2", "1/2"]]}, "a")
    b = cli_freestate.classical_from_payload({"n": 2, "generators": [[1, 0]]}, "b")
    assert len(calls) == 3
    either = cl.knightian_or(a, b, cl.prob_mix([("1/3", a), ("2/3", b)]))
    assert len(calls) == 3 and len(either.generators) == 5
    with pytest.raises(ValueError, match="expected 3 outcomes"):
        cl.ClassicalFreestate(3, a.generators)


# -- algebra ---------------------------------------------------------------------


def test_or_of_basis_states_spans_the_interval():
    both = cl.knightian_or(qstate("0"), qstate("1"))
    e0 = fs.Effect(2, fs.ket("0").projector().entries)
    assert fs.effect_interval(both, e0) == (0.0, 1.0)


def test_or_requires_matching_dims():
    with pytest.raises(cl.DimMismatch):
        cl.knightian_or(qstate("0"), fs.Freestate(3, (oracles.validate_density(np.eye(3) / 3),)))


def test_or_with_itself_is_interval_equal():
    rng = np.random.default_rng(5)
    s = random_freestate(rng, 3, 3)
    doubled = cl.knightian_or(s, s)
    for _ in range(25):
        e = random_effect(rng, 3)
        assert fs.effect_interval(doubled, e) == fs.effect_interval(s, e)


def test_classical_knight_interval():
    a = cl.ClassicalFreestate(2, ((Fraction(9, 10), Fraction(1, 10)),))
    b = cl.ClassicalFreestate(
        2, ((Fraction(8, 10), Fraction(2, 10)), (Fraction(7, 10), Fraction(3, 10)))
    )
    c = cl.ClassicalFreestate(
        2, ((Fraction(6, 10), Fraction(4, 10)), (Fraction(5, 10), Fraction(5, 10)))
    )
    knight = cl.knightian_or(a, b, c)
    assert cl.event_interval(knight, [1]) == (Fraction(1, 10), Fraction(1, 2))


def test_or_and_mix_reject_mixed_kinds_and_sizes():
    quantum = qstate("0")
    classical = cl.ClassicalFreestate(2, ((Fraction(1, 2), Fraction(1, 2)),))
    three = cl.ClassicalFreestate(3, ((1, 0, 0),))
    for states in ((quantum, classical), (classical, quantum), (classical, classical, three)):
        with pytest.raises(cl.DimMismatch):
            cl.knightian_or(*states)
        with pytest.raises(cl.DimMismatch):
            cl.prob_mix([(Fraction(1, len(states)), s) for s in states])
    with pytest.raises(KnightianError, match="at least one state"):
        cl.knightian_or()


def test_classical_mix_is_exact_and_expands_over_choices():
    a = cl.ClassicalFreestate(2, ((1, 0), (0, 1)))
    b = cl.ClassicalFreestate(2, (("1/2", "1/2"),))
    mixed = cl.prob_mix([(0.1, a), ("9/10", b)])
    assert mixed.generators == (
        (Fraction(11, 20), Fraction(9, 20)),
        (Fraction(9, 20), Fraction(11, 20)),
    )
    assert cl.knightian_or(a) == a


def test_event_interval_trivia():
    uniform = cl.ClassicalFreestate(2, ((Fraction(1, 2), Fraction(1, 2)),))
    assert cl.event_interval(uniform, [1]) == (Fraction(1, 2), Fraction(1, 2))
    pair = cl.ClassicalFreestate(
        2, ((Fraction(9, 10), Fraction(1, 10)), (Fraction(1, 2), Fraction(1, 2)))
    )
    assert cl.event_interval(pair, [1]) == (Fraction(1, 10), Fraction(1, 2))
    assert cl.event_interval(pair, [0, 1]) == (Fraction(1), Fraction(1))
    with pytest.raises(cl.BadEvent):
        cl.event_interval(pair, [2])


def test_prob_mix_expansion_identity():
    a, b = fs.ket("0").projector(), fs.ket("1").projector()
    c, d = fs.ket("+").projector(), fs.ket("-").projector()
    mix = cl.prob_mix(
        [(0.5, fs.Freestate(2, (a, b))), (0.5, fs.Freestate(2, (c, d)))]
    )
    expected = [
        (a.entries + c.entries) / 2,
        (a.entries + d.entries) / 2,
        (b.entries + c.entries) / 2,
        (b.entries + d.entries) / 2,
    ]
    assert len(mix.generators) == 4
    for got, want in zip(mix.generators, expected):
        assert np.allclose(got.entries, want, atol=1e-12)


def test_prob_mix_identity_and_point_cases():
    s = qstate("+")
    assert np.allclose(
        cl.prob_mix([(1.0, s)]).generators[0].entries, s.generators[0].entries
    )
    mixed = cl.prob_mix([(0.5, qstate("0")), (0.5, qstate("1"))])
    assert len(mixed.generators) == 1
    assert np.allclose(mixed.generators[0].entries, np.eye(2) / 2, atol=1e-12)


def test_prob_mix_rejects_bad_weights():
    with pytest.raises(cl.BadWeights):
        cl.prob_mix([(0.7, qstate("0")), (0.7, qstate("1"))])
    with pytest.raises(cl.BadWeights):
        cl.prob_mix([(-0.5, qstate("0")), (1.5, qstate("1"))])


def test_mixture_interval_linearity():
    rng = np.random.default_rng(11)
    s1 = random_freestate(rng, 2, 3)
    s2 = random_freestate(rng, 2, 2)
    w = 0.3
    mixed = cl.prob_mix([(w, s1), (1 - w, s2)])
    for _ in range(100):
        e = random_effect(rng, 2)
        lo1, hi1 = fs.effect_interval(s1, e)
        lo2, hi2 = fs.effect_interval(s2, e)
        lo, hi = fs.effect_interval(mixed, e)
        assert lo == pytest.approx(w * lo1 + (1 - w) * lo2, abs=1e-9)
        assert hi == pytest.approx(w * hi1 + (1 - w) * hi2, abs=1e-9)


def test_or_interval_law():
    rng = np.random.default_rng(13)
    s1 = random_freestate(rng, 3, 2)
    s2 = random_freestate(rng, 3, 3)
    union = cl.knightian_or(s1, s2)
    for _ in range(100):
        e = random_effect(rng, 3)
        lo1, hi1 = fs.effect_interval(s1, e)
        lo2, hi2 = fs.effect_interval(s2, e)
        assert fs.effect_interval(union, e) == (min(lo1, lo2), max(hi1, hi2))


def test_point_set_interval():
    point = fs.Freestate(2, (oracles.maximally_mixed(2),))
    e0 = fs.Effect(2, fs.ket("0").projector().entries)
    lo, hi = fs.effect_interval(point, e0)
    assert lo == pytest.approx(0.5) and hi == pytest.approx(0.5)


@pytest.mark.parametrize("value", [-1e-6, 1 + 1e-6])
def test_interval_outside_the_unit_range_is_an_error(monkeypatch, value):
    # a typed error, not an assert, so it survives python -O
    e0 = fs.Effect(2, fs.ket("0").projector().entries)
    monkeypatch.setattr(fs, "expectation", lambda g, effect: value)
    with pytest.raises(fs.KnightianError, match="left"):
        fs.effect_interval(qstate("0"), e0)


@pytest.mark.parametrize("value, clipped", [(1 + 1e-9, 1.0), (-1e-9, 0.0)])
def test_interval_within_the_slack_clips_both_ends(monkeypatch, value, clipped):
    # every generator just past an edge: both endpoints land on that edge, lo <= hi
    e0 = fs.Effect(2, fs.ket("0").projector().entries)
    monkeypatch.setattr(fs, "expectation", lambda g, effect: value)
    assert fs.effect_interval(qstate("0"), e0) == (clipped, clipped)


def test_full_freebit_interval_is_everything():
    e0 = fs.Effect(2, fs.ket("0").projector().entries)
    assert fs.effect_interval(fs.full_freebit(), e0) == (0.0, 1.0)


def test_interval_nesting():
    rng = np.random.default_rng(23)
    outer = random_freestate(rng, 3, 4)
    # inner generators are convex combinations of outer's, hence hull members
    inner_gens = []
    for _ in range(3):
        lam = rng.dirichlet(np.ones(len(outer.generators)))
        m = sum(w * g.entries for w, g in zip(lam, outer.generators))
        inner_gens.append(fs.DensityMatrix(3, m))
    inner = fs.Freestate(3, tuple(inner_gens))
    for g in inner.generators:
        assert fs.hull_contains(outer, g)
    for _ in range(100):
        e = random_effect(rng, 3)
        lo_i, hi_i = fs.effect_interval(inner, e)
        lo_o, hi_o = fs.effect_interval(outer, e)
        assert lo_o <= lo_i + 1e-9 and hi_i <= hi_o + 1e-9


def test_monte_carlo_hull_consistency():
    rng = np.random.default_rng(37)
    for dim in (2, 3, 4):
        s = random_freestate(rng, dim, 3)
        e = random_effect(rng, dim)
        lo, hi = fs.effect_interval(s, e)
        # vertex-heavy Dirichlet so the sample actually visits the corners
        lams = rng.dirichlet(np.full(len(s.generators), 0.3), size=10_000)
        values = []
        for lam in lams:
            rho = sum(w * g.entries for w, g in zip(lam, s.generators))
            values.append(float(np.real(np.trace(e.entries @ rho))))
        assert min(values) >= lo - 1e-9 and max(values) <= hi + 1e-9
        assert min(values) - lo <= 0.02 and hi - max(values) <= 0.02


# -- cloning ---------------------------------------------------------------------


def test_clone_feasibility_table():
    assert fs.clone_feasible(fs.ket("0"), fs.ket("1"))
    assert fs.clone_feasible(fs.ket("0"), fs.ket("0"))
    assert not fs.clone_feasible(fs.ket("0"), fs.ket("+"))


@settings(max_examples=60)
@given(
    st.floats(0, 2 * np.pi),
    st.floats(0, np.pi),
    st.floats(0, 2 * np.pi),
)
def test_clone_is_symmetric_and_phase_blind(theta, eta, phase):
    psi = fs.PureState(2, np.array([np.cos(theta), np.sin(theta)], dtype=complex))
    phi = fs.PureState(
        2, np.array([np.cos(eta), np.sin(eta) * np.exp(1j * phase)], dtype=complex)
    )
    assert fs.clone_feasible(psi, phi) == fs.clone_feasible(phi, psi)
    rotated = fs.PureState(2, np.exp(1j * phase) * psi.amplitudes)
    assert fs.clone_feasible(psi, rotated)


# -- witnesses -------------------------------------------------------------------


def test_witness_for_pure_vs_mixed():
    w = fs.separating_witness(qstate("0"), fs.Freestate(2, (oracles.maximally_mixed(2),)))
    assert isinstance(w, fs.PureWitness)
    assert w.gap == pytest.approx(0.5, abs=1e-6)
    lo, hi = w.interval_on_other
    assert lo == pytest.approx(0.5) and hi == pytest.approx(0.5)


def test_witness_none_for_permuted_generators():
    s1 = fs.Freestate(2, (fs.ket("+").projector(), fs.ket("-").projector()))
    s2 = fs.Freestate(2, (fs.ket("-").projector(), fs.ket("+").projector()))
    assert fs.separating_witness(s1, s2) is None


def test_witness_asymmetric_membership_case():
    mixed = fs.Freestate(2, (oracles.maximally_mixed(2),))
    spread = fs.Freestate(2, (fs.ket("+").projector(), fs.ket("-").projector()))
    # membership holds one way around only
    assert fs.hull_contains(spread, oracles.maximally_mixed(2))
    assert not fs.hull_contains(mixed, fs.ket("+").projector())
    w = fs.separating_witness(mixed, spread)
    assert isinstance(w, fs.PureWitness)
    assert w.gap == pytest.approx(0.5, abs=1e-6)


def test_witness_redundant_generators_still_equal():
    s1 = fs.full_freebit()
    extra = fs.DensityMatrix(2, (fs.ket("0").projector().entries + np.eye(2) / 2) / 2)
    s2 = fs.Freestate(2, s1.generators + (extra,))
    assert fs.separating_witness(s1, s2) is None


def test_witness_soundness_on_random_pairs():
    rng = np.random.default_rng(41)
    seen = 0
    for trial in range(12):
        dim = int(rng.integers(2, 5))
        s1 = random_freestate(rng, dim, int(rng.integers(1, 4)))
        s2 = random_freestate(rng, dim, int(rng.integers(1, 4)))
        w = fs.separating_witness(s1, s2, tol=1e-6, seed=trial)
        if w is None:
            continue
        seen += 1
        assert w.gap > 1e-6
        if isinstance(w, fs.PureWitness):
            # re-derive the exclusion independently of the search
            psi = w.psi.amplitudes
            value = w.value_on_state
            others = [
                [float(np.real(psi.conj() @ g.entries @ psi)) for g in s.generators]
                for s in (s1, s2)
            ]
            excluded = [
                value > max(vals) + 1e-6 or value < min(vals) - 1e-6 for vals in others
            ]
            assert any(excluded)
    assert seen >= 8  # random freestates are almost never hull-equal


SIMPLEX = fs._simplex  # unpatched: the oracle below and the counting wrapper call it


def exact_distance(s, rho) -> Fraction:
    """The exact fallback alone: the simplex in Fractions of the float data, from its cold start."""
    target = fs._herm_vec(np.asarray(rho.entries))
    gens = np.stack([fs._herm_vec(np.asarray(g.entries)) for g in s.generators])
    basis, x = fs._cold_start(target, gens)
    _, _, x = SIMPLEX(fs._fractions(fs._tableau(target, gens)), basis, fs._fractions(x), 0)
    return x[len(target)]


def count_exact_solves(monkeypatch) -> list:
    """Patch fs._simplex to note, per library call, whether it ran in Fractions."""
    solves = []

    def counted(data, basis, x, eps, **kwargs):
        solves.append(eps == 0)
        return SIMPLEX(data, basis, x, eps, **kwargs)

    monkeypatch.setattr(fs, "_simplex", counted)
    return solves


def test_hull_membership_matches_the_primal_oracle():
    # by LP duality the best separating margin is the least L1 residual, here
    # checked against a second solver, scipy's HiGHS
    rng = np.random.default_rng(2024)
    inside = 0
    for trial in range(240):
        dim = int(rng.integers(2, 5))
        s = random_freestate(rng, dim, int(rng.integers(1, 5)))
        if trial % 2:
            lam = rng.dirichlet(np.ones(len(s.generators)))
            rho = fs.DensityMatrix(dim, sum(w * g.entries for w, g in zip(lam, s.generators)))
        else:
            rho = random_density(rng, dim)
        residual = oracles.primal_l1_residual(s, rho)
        _, margin, outside = fs._separating_functional(rho, s)
        assert abs(margin - residual) <= 1e-9
        assert fs.hull_contains(s, rho) == (not outside) == (residual <= fs.TOL_HULL)
        inside += residual <= fs.TOL_HULL
    assert 100 <= inside < 240


def segment_leaving_a_hull(rng):
    """A 3-generator hull in d = 3, and the states on a segment from its centre to a random state."""
    s = random_freestate(rng, 3, 3)
    inner = sum(g.entries for g in s.generators) / 3
    outer = random_density(rng, 3).entries
    return s, lambda mix: fs.DensityMatrix(3, (1 - mix) * inner + mix * outer)


def crossing(s, at, level, steps):
    """Bisect the segment for the last point found whose exact distance is at most level."""
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if exact_distance(s, at(mid)) <= level else (lo, mid)
    return lo


def test_hull_membership_is_decided_at_tol_hull():
    # a state 5 TOL_HULL from the hull, found by bisecting the exact distance
    # along a segment leaving it, is outside; the centre is inside
    rng = np.random.default_rng(99)
    target = 5 * fs.TOL_HULL
    for _ in range(3):
        s, at = segment_leaving_a_hull(rng)
        rho = at(crossing(s, at, target, 40))
        assert float(exact_distance(s, rho)) == pytest.approx(target, rel=1e-2)
        assert not fs.hull_contains(s, rho)
        assert fs.hull_contains(s, at(0.0))


def test_a_boundary_sweep_agrees_with_the_exact_fallback(monkeypatch):
    # across each segment, and then float by float across the point where its
    # exact distance crosses TOL_HULL, hull_contains gives the exact verdict;
    # that close, the float bracket cannot decide and the exact simplex runs
    rng = np.random.default_rng(99)
    solves = count_exact_solves(monkeypatch)
    verdicts = []
    for _ in range(3):
        s, at = segment_leaving_a_hull(rng)
        edge = crossing(s, at, fs.TOL_HULL, 60)
        mixes = list(np.linspace(0.0, 1.0, 21))
        mixes += [edge + j * np.spacing(edge) for j in range(-12, 13)]
        for mix in mixes:
            inside = exact_distance(s, at(mix)) <= fs.TOL_HULL
            assert fs.hull_contains(s, at(mix)) == inside, mix
            verdicts.append(inside)
    assert True in verdicts and False in verdicts
    assert any(solves)


WRONG_BASES = {
    # the row of m chosen for the float solve's w: with w negated, some s_i
    # goes negative, so the warm start is infeasible and the exact simplex
    # starts cold (with one generator it is feasible, and pivots on from there)
    "infeasible": lambda basis, k: basis,
    # m basic in every row: the warm start is singular
    "singular": lambda basis, k: np.full_like(basis, k),
}


@pytest.mark.parametrize("wrong", WRONG_BASES)
def test_a_wrong_float_vertex_still_gets_the_exact_decision(monkeypatch, wrong):
    # the float solve returns its w negated and lam = 0, so the bracket cannot
    # decide; the exact simplex does, and its w attains the distance
    def wrong_vertex(data, basis, x):
        k = data.shape[1] - len(data)
        x = np.concatenate([-x[:k], x[k:]])
        return WRONG_BASES[wrong](basis, k), x, np.zeros(len(data) - 1)

    rng = np.random.default_rng(17)
    pairs = [
        (fs.Freestate(2, (fs.ket("+").projector(), fs.ket("-").projector())), oracles.maximally_mixed(2)),
        (fs.Freestate(2, (oracles.maximally_mixed(2),)), fs.ket("+").projector()),
    ] + [(random_freestate(rng, 3, 3), random_density(rng, 3)) for _ in range(4)]
    expected = [exact_distance(s, rho) for s, rho in pairs]
    monkeypatch.setattr(fs, "_float_solve", wrong_vertex)
    solves = count_exact_solves(monkeypatch)
    for (s, rho), distance in zip(pairs, expected):
        w, margin, outside = fs._separating_functional(rho, s)
        assert outside == (distance > fs.TOL_HULL) == (not fs.hull_contains(s, rho))
        assert margin == float(distance)
        values = [float(np.real(np.trace(w @ (rho.entries - g.entries)))) for g in s.generators]
        assert min(values) == pytest.approx(margin, abs=1e-12)
    assert solves and all(solves)
    assert [True, False] == [expected[0] <= fs.TOL_HULL, expected[1] <= fs.TOL_HULL]


def assert_witness_reverifies(w, rho, other, tol):
    # the gap, re-derived from the generators, independently of the search
    if isinstance(w, fs.PureWitness):
        psi = w.psi.amplitudes
        value = float(np.real(psi.conj() @ rho.entries @ psi))
        vals = [float(np.real(psi.conj() @ g.entries @ psi)) for g in other.generators]
    else:
        value = float(np.real(np.trace(w.operator @ rho.entries)))
        vals = [float(np.real(np.trace(w.operator @ g.entries))) for g in other.generators]
    assert value == pytest.approx(w.value_on_state, abs=1e-12)
    assert w.interval_on_other == pytest.approx((min(vals), max(vals)), abs=1e-12)
    assert w.gap == pytest.approx(max(value - max(vals), min(vals) - value), abs=1e-12)
    assert w.gap > tol


@pytest.mark.parametrize("seed, kind", [(5, fs.PureWitness), (7, fs.HermitianWitness)])
def test_witness_after_the_spectral_vectors_fail(monkeypatch, seed, kind):
    # pinned draws where no spectral vector of the functional separates: the
    # random-restart ascent finds a pure witness (seed 5), or falls back to the
    # Hermitian functional (seed 7)
    single, hull = pushed_out_pair(np.random.default_rng(seed))
    ascents = []
    ascend = fs._ascend_pure
    monkeypatch.setattr(fs, "_ascend_pure", lambda *args: ascents.append(1) or ascend(*args))
    w = fs.separating_witness(single, hull, restarts=8, seed=seed)
    assert isinstance(w, kind)
    assert len(ascents) == 8  # one ascent per restart, none polishing a spectral vector
    assert_witness_reverifies(w, single.generators[0], hull, 1e-6)


def test_witness_none_when_no_gap_clears_the_tolerance():
    # the sets differ, but by 1/2 at most: every path runs, and none clears tol = 1
    mixed = fs.Freestate(2, (oracles.maximally_mixed(2),))
    assert fs.separating_witness(qstate("0"), mixed, tol=1.0, restarts=2) is None
    w = fs.separating_witness(qstate("0"), mixed)
    assert_witness_reverifies(w, qstate("0").generators[0], mixed, 1e-6)


def test_a_negative_tol_is_refused():
    # at tol -0.5 this draw once gave a "pure witness" of gap -0.119: rho's value,
    # 0.257, lies inside the other set's interval [0.078, 0.376]
    single, hull = pushed_out_pair(np.random.default_rng(32))
    with pytest.raises(ValueError, match="'tol'"):
        fs.separating_witness(single, hull, tol=-0.5, restarts=0)
    assert fs.separating_witness(single, hull, tol=0, restarts=0).gap > 0


def witness_digest(witnesses) -> str:
    """SHA-256 over each witness's kind, value, interval, gap and vector or operator bytes."""
    h = hashlib.sha256()
    for w in witnesses:
        h.update(type(w).__name__.encode())
        if w is not None:
            h.update(np.array([w.value_on_state, *w.interval_on_other, w.gap]).tobytes())
            h.update((w.psi.amplitudes if isinstance(w, fs.PureWitness) else w.operator).tobytes())
    return h.hexdigest()


def test_witnesses_of_seeded_draws_are_pinned():
    # C10's 30 pairs at their seeds, then pushed_out_pair at seeds 0-39 with 8
    # restarts, at the default tol and at 0.05, which 17 of those 31 draws no
    # longer clear: the draws reach the spectral, restart, Hermitian and None paths
    witnesses = [fs.separating_witness(s1, s2, seed=trial) for trial, (s1, s2) in enumerate(c10_draws()[1])]
    for seed in range(40):
        pair = pushed_out_pair(np.random.default_rng(seed))
        if pair is not None:
            witnesses += [fs.separating_witness(*pair, tol, restarts=8, seed=seed) for tol in (1e-6, 0.05)]
    kinds = collections.Counter(type(w).__name__ for w in witnesses)
    assert kinds == {"PureWitness": 44, "HermitianWitness": 31, "NoneType": 17}
    assert witness_digest(witnesses) == "df25e06602022711550f352e27f6ea7dd930ba40e4a3f71ded6f83407de394ca"


def test_the_witness_search_evaluates_each_point_once(monkeypatch):
    # every _quadratic call of one search, by the bytes of its psi: each point,
    # a spectral vector, an ascent's start or a trial, is read once on rho and
    # on each generator of the other set; an accepted trial's gradient, and
    # the winner's value and interval, are kept, not recomputed.  C10's pairs
    # take the spectral path, and the pushed-out draws at seeds 5 and 7 the
    # restart path to a pure and to a Hermitian witness.
    draws = [(s1, s2, trial) for trial, (s1, s2) in enumerate(c10_draws()[1])]
    draws += [(*pushed_out_pair(np.random.default_rng(seed)), seed) for seed in (5, 7)]
    calls = collections.Counter()
    quadratic = fs._quadratic
    monkeypatch.setattr(fs, "_quadratic", lambda psi, m: calls.update([psi.tobytes()]) or quadratic(psi, m))
    for s1, s2, seed in draws:
        calls.clear()
        fs.separating_witness(s1, s2, restarts=8, seed=seed)
        reads = {1 + len(s1.generators), 1 + len(s2.generators)}
        assert len(set(calls.values())) == 1 and set(calls.values()) <= reads, seed


# -- serialization -----------------------------------------------------------------


def test_quantum_payload_round_trip():
    rng = np.random.default_rng(3)
    s = random_freestate(rng, 3, 2)
    payload = cli_freestate.freestate_to_payload(s)
    json.dumps(payload)  # must be serializable
    back = cli_freestate.freestate_from_payload(payload, "payload")
    assert back.dim == s.dim
    for a, b in zip(back.generators, s.generators):
        assert np.allclose(a.entries, b.entries, atol=1e-12)


def test_classical_payload_round_trip_is_exact():
    s = cl.ClassicalFreestate(
        3, ((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),)
    )
    back = cli_freestate.classical_from_payload(cli_freestate.classical_to_payload(s), "payload")
    assert back == s


def test_decimal_strings_parse_exactly():
    s = cli_freestate.classical_from_payload({"n": 2, "generators": [["0.9", "0.1"]]}, "payload")
    assert s.generators[0] == (Fraction(9, 10), Fraction(1, 10))
