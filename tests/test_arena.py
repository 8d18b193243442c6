import math
import random
from fractions import Fraction

import pytest

from knightian import arena

F = Fraction


def dist(pairs):
    return {k: F(v) for k, v in pairs.items()}


# -- variation distance --------------------------------------------------------


def test_variation_distance_examples():
    d = dist({"0": "1/2", "1": "1/2"})
    assert arena.variation_distance(d, d) == 0
    assert arena.variation_distance(dist({"0": 1}), dist({"1": 1})) == 1
    assert arena.variation_distance(d, dist({"0": "3/4", "1": "1/4"})) == F(1, 4)


def test_variation_distance_metric_axioms():
    rng = random.Random(9)
    keys = ("x", "y", "z")

    def sample():
        raw = [rng.randint(0, 20) for _ in keys]
        while sum(raw) == 0:
            raw = [rng.randint(0, 20) for _ in keys]
        total = sum(raw)
        return {k: F(n, total) for k, n in zip(keys, raw)}

    for _ in range(1000):
        da, db, dc = sample(), sample(), sample()
        assert arena.variation_distance(da, db) == arena.variation_distance(db, da)
        assert (arena.variation_distance(da, db) == 0) == (da == db)
        assert arena.variation_distance(da, dc) <= arena.variation_distance(
            da, db
        ) + arena.variation_distance(db, dc)
        assert 0 <= arena.variation_distance(da, db) <= 1


# -- subjects and true distributions ----------------------------------------------


def test_parrot_suffix_is_shifted_inputs():
    td = arena.true_distribution(arena.parrot(), "10110", 1, 5, ())
    assert td == {"1011": F(1)}


def test_fair_coin_suffix_is_uniform():
    td = arena.true_distribution(arena.fair_coin(), "000", 0, 3, ())
    assert len(td) == 8 and all(p == F(1, 8) for p in td.values())


def test_gerbil_hand_trace():
    # states: echo the input, negate the input, freebit, zeros
    g = arena.gerbil_hybrid()
    assert arena.true_distribution(g, "1010", 0, 4, (1,)) == {"1110": F(1)}
    assert arena.true_distribution(g, "1010", 0, 4, (0,)) == {"1100": F(1)}


def test_horizon_guard():
    with pytest.raises(arena.HorizonTooLong):
        arena.true_distribution(arena.fair_coin(), "0" * 30, 0, 25, ())


def test_freebit_double_duty_is_rejected():
    edges = {}
    for i in "01":
        edges[("s", i)] = arena.Edge("s", ("freebit", 0))
    s = arena.Subject("freebit", ("s",), "s", edges, 1)
    with pytest.raises(arena.SubjectSpecError, match="double duty"):
        arena.true_distribution(s, "00", 0, 2, (1,))


def test_subject_validation():
    with pytest.raises(arena.SubjectSpecError, match="missing edge"):
        arena.Subject("deterministic", ("a",), "a", {("a", "0"): arena.Edge("a", ("bit", "0"))}, 0)
    with pytest.raises(arena.SubjectSpecError, match="zero freebit budget"):
        edges = {("a", i): arena.Edge("a", ("freebit", 0)) for i in "01"}
        arena.Subject("freebit", ("a",), "a", edges, 0)


def test_subject_payload_round_trip():
    for make in (arena.parrot, arena.fair_coin, arena.gerbil_hybrid):
        s = make()
        assert arena.subject_from_payload(arena.subject_to_payload(s)) == s


# -- adversary ----------------------------------------------------------------------


def constant_forecast(t, u, p):
    return arena.Forecast(t, u, lambda v, inputs, past: p)


def test_adversary_with_no_freebits_is_determined():
    f = constant_forecast(0, 2, F(1, 2))
    assignment, d = arena.adversary_resolution(arena.fair_coin(), f, "00", 0, 2)
    assert assignment == () and d == 0


def test_adversary_tie_breaks_low():
    # forecasting 1/2 on the one freebit-controlled bit: either resolution
    # gives distance 1/2, and the tie goes to the lexicographically first
    subject = arena.one_freebit(1, 2)
    f = constant_forecast(1, 2, F(1, 2))
    assignment, d = arena.adversary_resolution(subject, f, "00", 1, 2)
    assert assignment == (0,)
    assert d == F(1, 2)


def test_adversary_two_freebits_dodges_confident_forecast():
    # two freebit-controlled bits forecast with 0.9 each: flipping both to 0
    # maximizes the distance
    states = ("a", "b", "c")
    edges = {}
    for i in "01":
        edges[("a", i)] = arena.Edge("b", ("freebit", 0))
        edges[("b", i)] = arena.Edge("c", ("freebit", 1))
        edges[("c", i)] = arena.Edge("c", ("bit", "0"))
    subject = arena.Subject("freebit", states, "a", edges, 2)

    def conditional(v, inputs, past):
        return F(9, 10)

    assignment, d = arena.adversary_resolution(
        subject, arena.Forecast(0, 2, conditional), "00", 0, 2
    )
    assert assignment == (0, 0)
    assert d == 1 - F(1, 100)


def test_adversary_budget_guard():
    states = ("a",)
    edges = {("a", i): arena.Edge("a", ("freebit", 0)) for i in "01"}
    subject = arena.Subject("freebit", states, "a", edges, 17)
    with pytest.raises(arena.BudgetTooLarge):
        arena.adversary_resolution(subject, constant_forecast(0, 1, F(1, 2)), "0", 0, 1)


def test_single_freebit_forces_half_against_any_forecast():
    rng = random.Random(2)
    subject = arena.one_freebit(0, 2)
    for _ in range(100):
        p = F(rng.randint(0, 64), 64)
        f = constant_forecast(0, 2, p)
        _, d = arena.adversary_resolution(subject, f, "00", 0, 2)
        assert d >= F(1, 2)


# -- forecasts and causality ----------------------------------------------------------


def test_forecast_distribution_is_a_distribution():
    f = constant_forecast(0, 3, F(1, 3))
    fd = arena.forecast_distribution(f, "000", 0, 3)
    assert sum(fd.values()) == 1
    assert fd["111"] == F(1, 27)


def test_causality_probe_catches_peeking():
    def peeking(v, inputs, past):
        return F(1) if inputs[-1] == "1" else F(0)

    f = arena.Forecast(0, 4, peeking)
    with pytest.raises(arena.ForecastViolatesCausality):
        arena.probe_causality(f, "0000", 0, 4, random.Random(0))


def test_causality_probe_passes_causal_forecasts():
    def causal(v, inputs, past):
        return F(1, 2) if inputs[v] == "0" else F(1, 3)

    arena.probe_causality(arena.Forecast(0, 4, causal), "0101", 0, 4, random.Random(0))


# -- games -------------------------------------------------------------------------


def cfg(**kw):
    base = dict(
        t=8,
        u=12,
        epsilon=F(1, 20),
        delta=F(1, 20),
        trials=40,
        seed=99,
        input_model={"kind": "fixed", "bits": "0011"},
    )
    base.update(kw)
    return arena.GameConfig(**base)


def test_deterministic_class_passes_with_table_learner():
    verdict = arena.run_game(arena.parrot, lambda: arena.TablePredictor(1), cfg())
    assert verdict.passed
    assert all(d == 0 for d in verdict.distances)


def test_known_noisy_class_passes_with_bayes_exactly():
    family = [arena.subject_to_payload(arena.fair_coin())]
    verdict = arena.run_game(
        arena.fair_coin,
        lambda: arena.BayesPredictor(family),
        cfg(t=4, u=8, input_model={"kind": "uniform"}),
    )
    assert verdict.passed
    assert all(d == 0 for d in verdict.distances)


def test_freebit_class_defeats_both_shipped_predictors():
    subject = lambda: arena.one_freebit(5, 8)
    family = [arena.subject_to_payload(arena.one_freebit(5, 8))]
    for predictor in (
        lambda: arena.TablePredictor(1),
        lambda: arena.BayesPredictor(family),
    ):
        verdict = arena.run_game(
            subject, predictor, cfg(t=4, u=8, epsilon=F(1, 2), input_model={"kind": "uniform"})
        )
        assert not verdict.passed
        assert min(verdict.distances) >= F(1, 2)


def test_oblivious_adversary_is_gentler_on_average():
    subject = lambda: arena.one_freebit(5, 8)
    game = cfg(t=4, u=8, epsilon=F(1, 2), input_model={"kind": "uniform"}, trials=60)
    adaptive = arena.run_game(subject, lambda: arena.TablePredictor(1), game)
    oblivious = arena.run_game(
        subject,
        lambda: arena.TablePredictor(1),
        arena.GameConfig(
            t=4, u=8, epsilon=F(1, 2), delta=F(1, 20), trials=60, seed=99,
            input_model={"kind": "uniform"}, adversary="oblivious",
        ),
    )
    assert sum(oblivious.distances) <= sum(adaptive.distances)


def test_training_phase_freebit_is_an_error():
    subject = lambda: arena.one_freebit(1, 8)
    with pytest.raises(arena.SubjectSpecError, match="training"):
        arena.run_game(subject, lambda: arena.TablePredictor(1), cfg(t=4, u=8))


def test_replay_is_byte_identical():
    subject = lambda: arena.one_freebit(5, 8)
    game = cfg(t=4, u=8, epsilon=F(1, 2), input_model={"kind": "uniform"})
    a = arena.run_game(subject, lambda: arena.TablePredictor(1), game)
    b = arena.run_game(subject, lambda: arena.TablePredictor(1), game)
    import json

    assert json.dumps(a.to_payload(), sort_keys=True) == json.dumps(
        b.to_payload(), sort_keys=True
    )


def test_clopper_pearson_brackets_the_estimate():
    lo, hi = arena.clopper_pearson(190, 200)
    assert lo < 0.95 < hi
    assert arena.clopper_pearson(0, 50)[0] == 0.0
    assert arena.clopper_pearson(50, 50)[1] == 1.0
    # golden spot value against the textbook Beta quantile identity
    lo, hi = arena.clopper_pearson(5, 10)
    assert lo == pytest.approx(0.187086, abs=1e-4)
    assert hi == pytest.approx(0.812914, abs=1e-4)


def test_trials_guard():
    guard = arena.TRIALS_GUARD
    # clopper_pearson multiplies comb(trials, i) by floats: each must convert
    assert all(float(math.comb(guard, i)) for i in range(guard + 1))
    with pytest.raises(OverflowError):
        float(math.comb(guard + 1, (guard + 1) // 2))
    assert arena.clopper_pearson(0, guard)[0] == 0.0
    assert arena.clopper_pearson(guard, guard)[1] == 1.0
    game = dict(t=1, u=2, epsilon=F(1, 10), delta=F(1, 10), seed=0)
    assert arena.GameConfig(trials=guard, **game).trials == guard
    with pytest.raises(arena.BudgetTooLarge, match="trials"):
        arena.GameConfig(trials=guard + 1, **game)


def test_classify_labels():
    schedule = [(8, F(1, 20), F(1, 20))]
    det = arena.classify(
        [arena.parrot],
        [("table", lambda: arena.TablePredictor(1))],
        schedule,
        trials=20,
        seed=5,
        input_model={"kind": "fixed", "bits": "0011"},
        horizon=12,
    )
    assert det["label"] == "mechanistic-at-scale"
    assert det["note"] == ""

    free = arena.classify(
        [lambda: arena.one_freebit(9, 12)],
        [("table", lambda: arena.TablePredictor(1))],
        schedule,
        trials=20,
        seed=5,
        horizon=12,
    )
    assert free["label"] == "unpredicted-at-scale"
    assert "not a proof" in free["note"]
