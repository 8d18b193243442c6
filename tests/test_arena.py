import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import STOCK_PAYLOADS
from knightian import arena, cli
from knightian.errors import KnightianError

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
    s = arena.Subject(("s",), "s", edges, 1)
    with pytest.raises(arena.SubjectSpecError, match="double duty"):
        arena.true_distribution(s, "00", 0, 2, (1,))


def test_subject_validation():
    with pytest.raises(arena.SubjectSpecError, match="'edges' has no edge"):
        arena.Subject(("a",), "a", {("a", "0"): arena.Edge("a", ("bit", "0"))}, 0)
    with pytest.raises(arena.SubjectSpecError, match="'freebit_budget' = 0"):
        edges = {("a", i): arena.Edge("a", ("freebit", 0)) for i in "01"}
        arena.Subject(("a",), "a", edges, 0)
    with pytest.raises(arena.SubjectSpecError, match="literal 'emit' '2'"):
        arena.Subject(("a",), "a", {("a", i): arena.Edge("a", ("bit", "2")) for i in "01"}, 0)


def test_stock_payloads_parse_to_the_stock_subjects():
    for name, make in arena.STOCK_SUBJECTS.items():
        payload = cli._check(STOCK_PAYLOADS[name], cli.SUBJECT)  # the CLI reads each "prob" once
        assert arena.subject_from_payload(payload) == make()


# -- adversary ----------------------------------------------------------------------


def black_box(conditional):
    """A forecast whose memory is the past itself, so the walk merges nothing."""
    return arena.Forecast("", lambda past, v, inputs, b: past + b, conditional)


def constant_forecast(p):
    return black_box(lambda past, v, inputs: p)


def test_adversary_with_no_freebits_is_determined():
    f = constant_forecast(F(1, 2))
    assignment, d = arena.adversary_resolution(arena.fair_coin(), f, "00", 0, 2)
    assert assignment == () and d == 0


def test_adversary_tie_breaks_low():
    # forecasting 1/2 on the one freebit-controlled bit: either resolution
    # gives distance 1/2, and the tie goes to the lexicographically first
    subject = arena.one_freebit(1, 2)
    f = constant_forecast(F(1, 2))
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
    subject = arena.Subject(states, "a", edges, 2)

    assignment, d = arena.adversary_resolution(subject, constant_forecast(F(9, 10)), "00", 0, 2)
    assert assignment == (0, 0)
    assert d == 1 - F(1, 100)


def test_adversary_budget_guard():
    states = ("a",)
    edges = {("a", i): arena.Edge("a", ("freebit", 0)) for i in "01"}
    with pytest.raises(arena.BudgetTooLarge):
        subject = arena.Subject(states, "a", edges, 17)
        arena.adversary_resolution(subject, constant_forecast(F(1, 2)), "0", 0, 1)


def test_single_freebit_forces_half_against_any_forecast():
    rng = random.Random(2)
    subject = arena.one_freebit(0, 2)
    for _ in range(100):
        p = F(rng.randint(0, 64), 64)
        f = constant_forecast(p)
        _, d = arena.adversary_resolution(subject, f, "00", 0, 2)
        assert d >= F(1, 2)


def test_adversary_checks_guards_before_forecasting():
    # the forecast is consulted only after every guard has passed
    @black_box
    def untouchable(past, v, inputs):
        raise AssertionError("forecast consulted before the guards")

    with pytest.raises(arena.HorizonTooLong):
        arena.adversary_resolution(
            arena.fair_coin(), untouchable, "0" * 21, 0, 21
        )
    with pytest.raises(ValueError, match="shorter"):
        arena.adversary_resolution(
            arena.fair_coin(), untouchable, "000", 0, 4
        )
    edges = {("s", i): arena.Edge("s", ("freebit", 0)) for i in "01"}
    twice = arena.Subject(("s",), "s", edges, 1)
    with pytest.raises(arena.SubjectSpecError, match="double duty"):
        arena.adversary_resolution(twice, untouchable, "00", 0, 2)


def test_adversary_at_the_full_freebit_guard_is_affordable():
    k = arena.FREEBIT_GUARD
    states = tuple(f"c{v}" for v in range(k + 1))
    edges = {(f"c{v}", i): arena.Edge(f"c{v + 1}", ("freebit", v)) for v in range(k) for i in "01"}
    edges.update({(f"c{k}", i): arena.Edge(f"c{k}", ("bit", "0")) for i in "01"})
    subject = arena.Subject(states, "c0", edges, k)
    started = time.perf_counter()
    assignment, d = arena.adversary_resolution(
        subject, constant_forecast(F(1, 2)), "0" * k, 0, k
    )
    elapsed = time.perf_counter() - started
    # every suffix has forecast mass 2^-k and is the whole law of one assignment
    assert assignment == (0,) * k
    assert d == 1 - F(1, 2**k)
    assert elapsed < 10.0, f"{k} freebits took {elapsed:.1f}s"


# -- differential oracles: the adversary, the lumped walk and the Bayes forecast machine --

EMISSIONS = [("bit", "0"), ("bit", "1")] + [
    ("prob", F(p)) for p in ("0", "1", "1/2", "1/3", "3/4")
]
FORECAST_VALUES = [F(p) for p in ("0", "1", "1/2", "1/3", "2/3", "1/10", "9/10")]


def random_subject(rng):
    """A small total machine; freebit indices come from a budget with spare room."""
    states = tuple(f"q{k}" for k in range(rng.randint(1, 5)))
    budget = rng.randint(0, 4)
    emissions = EMISSIONS + [("freebit", idx) for idx in range(budget)] * 3
    edges = {
        (s, i): arena.Edge(rng.choice(states), rng.choice(emissions))
        for s in states
        for i in "01"
    }
    return arena.Subject(states, states[0], edges, budget)


def random_forecast(seed):
    if seed % 5 == 0:
        return constant_forecast(FORECAST_VALUES[seed % len(FORECAST_VALUES)])

    def conditional(past, v, inputs):
        return random.Random(f"{seed}:{v}:{inputs[: v + 1]}:{past}").choice(FORECAST_VALUES)

    return black_box(conditional)


def exhaustive_adversary(subject, forecast, inputs, t, u):
    """Every assignment scored against its rebuilt true law; ties to the first."""
    fdist = arena.forecast_distribution(forecast, inputs, t, u)
    scored = (
        (a, arena.variation_distance(fdist, arena.true_distribution(subject, inputs, t, u, a)))
        for a in itertools.product((0, 1), repeat=subject.freebit_budget)
    )
    return max(scored, key=lambda pair: pair[1])


def test_one_pass_adversary_matches_the_exhaustive_one():
    rng = random.Random(5)
    outcomes = {"scored": 0, "double duty": 0, "unused index": 0, "distance 1": 0}
    for seed in range(400):
        subject = random_subject(rng)
        t = rng.randint(0, 2)
        u = t + rng.randint(1, 5)
        inputs = "".join(rng.choice("01") for _ in range(u))
        forecast = random_forecast(seed)
        try:
            expected = exhaustive_adversary(subject, forecast, inputs, t, u)
        except arena.SubjectSpecError as err:
            with pytest.raises(arena.SubjectSpecError, match="double duty") as caught:
                arena.adversary_resolution(subject, forecast, inputs, t, u)
            assert str(caught.value) == str(err)
            outcomes["double duty"] += 1
            continue
        assert arena.adversary_resolution(subject, forecast, inputs, t, u) == expected
        outcomes["scored"] += 1
        outcomes["distance 1"] += expected[1] == 1
        consumed, overlaps = arena._pattern_overlaps(subject, forecast, inputs, t, u)
        outcomes["unused index"] += len(consumed) < subject.freebit_budget
        # the oblivious branch scores a drawn assignment by its pattern's overlap
        fdist = arena.forecast_distribution(forecast, inputs, t, u)
        for a in itertools.product((0, 1), repeat=subject.freebit_budget):
            pattern = "".join(str(a[idx]) for idx in consumed)
            truth = arena.true_distribution(subject, inputs, t, u, a)
            assert 1 - overlaps.get(pattern, F(0)) == arena.variation_distance(fdist, truth)
    assert all(outcomes.values()), outcomes


def refiltering_forecast(family, training):
    """The Bayes conditional that re-filters the training record and the past on every call, its memory the past."""
    record_inputs, record_behavior = training
    t = len(record_behavior)
    likelihood = arena.BayesPredictor._likelihood

    def conditional(past, v, inputs):
        weights = [F(1, len(family))] * len(family)
        states = [cand.initial for cand in family]
        steps = [*zip(record_inputs, record_behavior), *zip(inputs[t:v], past)]
        for input_bit, b in steps:
            for k, cand in enumerate(family):
                weights[k] *= likelihood(cand, states[k], input_bit, b)
                states[k] = cand.edges[(states[k], input_bit)].to
            total = sum(weights, F(0))
            if total > 0:
                weights = [w / total for w in weights]
        p = F(0)
        total = sum(weights, F(0))
        if total == 0:
            return F(1, 2)
        for k, cand in enumerate(family):
            p += weights[k] * likelihood(cand, states[k], inputs[v], "1")
        return p / total

    return black_box(conditional)


def test_bayes_forecast_machine_matches_refiltering():
    rng = random.Random(11)
    t, u = 2, 5
    # every input path, so the inputs after v take every value too
    queries = [
        (v, "".join(inputs), "".join(past))
        for v in range(t, u)
        for inputs in itertools.product("01", repeat=u)
        for past in itertools.product("01", repeat=v - t)
    ]
    cases = []
    for _ in range(20):
        family = [random_subject(rng) for _ in range(rng.randint(1, 3))]
        cases.append((family, record(rng, t)))
    # the parrot emits 0 on its first input 0, so behavior 1 there leaves no weight
    cases.append(([arena.parrot()], ("0" * t, "1" * t)))
    dead = 0
    for family, training in cases:
        machine = arena.BayesPredictor(family).emit_forecast(*training)
        weights, _ = machine.memory
        dead += sum(weights) == 0
        reference = refiltering_forecast(family, training)
        for v, inputs, past in queries:
            memory = machine.fold(t, inputs, past)
            assert machine.prob_one(memory, v, inputs) == reference.prob_one(past, v, inputs)
    assert dead, "no family lost all its weight in training"


def reference_pattern_overlaps(subject, forecast, inputs, t, u):
    """Per-pattern overlaps summed over every suffix of the forecast's support."""
    emissions = arena._window_emissions(subject, inputs, t, u)
    freebits = sorted(
        (value, pos) for pos, (kind, value) in enumerate(emissions) if kind == "freebit"
    )
    factors = [(pos, law) for pos, law in enumerate(map(arena._law, emissions)) if law is not None]
    overlaps = {}
    for suffix, f in arena.forecast_distribution(forecast, inputs, t, u).items():
        c = 1
        for pos, law in factors:
            c *= law[suffix[pos]]
        if c:
            pattern = "".join(suffix[pos] for _, pos in freebits)
            overlaps[pattern] = overlaps.get(pattern, F(0)) + min(f, c)
    return [idx for idx, _ in freebits], overlaps


def chain_subject(rng, t, u):
    """A chain that ignores its inputs and spends distinct freebits after t, in shuffled order."""
    budget = rng.randint(1, 4)
    emits = [rng.choice(EMISSIONS) for _ in range(u)]
    positions = rng.sample(range(t, u), min(budget, u - t))
    for pos, idx in zip(positions, rng.sample(range(budget), budget)):
        emits[pos] = ("freebit", idx)
    states = tuple(f"c{v}" for v in range(u + 1))
    edges = {(f"c{v}", i): arena.Edge(f"c{min(v + 1, u)}", emits[v] if v < u else ("bit", "0"))
             for v in range(u + 1) for i in "01"}
    return arena.Subject(states, "c0", edges, budget)


def record(rng, t):
    """A random training record of t steps: its input bits and its behavior bits."""
    inputs = behavior = ""
    for _ in range(t):
        inputs += rng.choice("01")
        behavior += rng.choice("01")
    return inputs, behavior


def counting(forecast, asked):
    """The forecast, with the same machine, recording every memory it is asked about."""

    def conditional(memory, v, inputs):
        asked.append(memory)
        return forecast.conditional(memory, v, inputs)

    return arena.Forecast(forecast.memory, forecast.step, conditional)


def test_lumped_walk_matches_the_full_enumeration():
    rng = random.Random(17)
    outcomes = {"bayes": 0, "dead family": 0, "table": 0, "black box": 0, "freebits": 0,
                "freebits out of order": 0, "double duty": 0, "fewer asks": 0}
    for seed in range(300):
        t = rng.randint(0, 3)
        u = t + rng.randint(1, 10)
        subject = random_subject(rng) if seed % 2 else chain_subject(rng, t, u)
        inputs = "".join(rng.choice("01") for _ in range(u))
        kind = ("bayes", "table", "black box")[seed % 3]
        if kind == "bayes":
            family = [random_subject(rng) for _ in range(rng.randint(1, 4))]
            forecast = arena.BayesPredictor(family).emit_forecast(*record(rng, t))
            weights, _ = forecast.memory
            outcomes["dead family"] += not any(weights)
        elif kind == "table":
            forecast = arena.TablePredictor(rng.randint(0, 2)).emit_forecast(*record(rng, t))
        else:
            forecast = random_forecast(seed)
        enumerated, walked = [], []
        try:
            expected = reference_pattern_overlaps(subject, counting(forecast, enumerated), inputs, t, u)
        except arena.SubjectSpecError:
            with pytest.raises(arena.SubjectSpecError, match="double duty"):
                arena._pattern_overlaps(subject, forecast, inputs, t, u)
            outcomes["double duty"] += 1
            continue
        assert arena._pattern_overlaps(subject, counting(forecast, walked), inputs, t, u) == expected
        outcomes[kind] += 1
        outcomes["freebits"] += bool(expected[0])
        spent = [idx for what, idx in arena._window_emissions(subject, inputs, t, u) if what == "freebit"]
        outcomes["freebits out of order"] += spent != sorted(spent)
        outcomes["fewer asks"] += len(walked) < len(enumerated)
    assert all(outcomes.values()), outcomes


def test_only_reachable_prefixes_are_asked():
    # the parrot emits the previous input, 0 on these inputs: every branch with a
    # 1 has c = 0, so only the all-zero past is asked at each step
    def rejecting(bad_past):
        return black_box(lambda past, v, inputs: F(2) if past == bad_past else F(1, 2))

    asked = []
    forecast = counting(rejecting("1"), asked)
    assert arena.adversary_resolution(arena.parrot(), forecast, "0000", 1, 4) == ((), 1 - F(1, 8))
    assert asked == ["", "0", "00"]
    with pytest.raises(ValueError, match="not a probability"):
        arena.forecast_distribution(rejecting("1"), "0000", 1, 4)
    with pytest.raises(ValueError, match="not a probability"):
        arena.adversary_resolution(arena.parrot(), rejecting("0"), "0000", 1, 4)


# -- forecasts and causality ----------------------------------------------------------


def test_forecast_distribution_is_a_distribution():
    f = constant_forecast(F(1, 3))
    fd = arena.forecast_distribution(f, "000", 0, 3)
    assert sum(fd.values()) == 1
    assert fd["111"] == F(1, 27)


def test_causality_probe_catches_peeking():
    peeking_conditional = black_box(lambda past, v, inputs: F(int(inputs[-1])))
    # the conditional reads only the memory, which each step sets to the last input
    peeking_step = arena.Forecast(
        F(1, 2), lambda memory, v, inputs, b: F(int(inputs[-1])), lambda memory, v, inputs: memory
    )
    for f in (peeking_conditional, peeking_step):
        with pytest.raises(arena.ForecastViolatesCausality):
            arena.probe_causality(f, "0000", 0, 4, random.Random(0))


def test_causality_probe_passes_causal_forecasts():
    causal = black_box(lambda past, v, inputs: F(1, 2) if inputs[v] == "0" else F(1, 3))
    arena.probe_causality(causal, "0101", 0, 4, random.Random(0))


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
    verdict = arena.run_game(arena.parrot(), arena.TablePredictor(1), cfg())
    assert verdict.passed
    assert all(d == 0 for d in verdict.distances)


def test_known_noisy_class_passes_with_bayes_exactly():
    family = [arena.fair_coin()]
    verdict = arena.run_game(
        arena.fair_coin(),
        arena.BayesPredictor(family),
        cfg(t=4, u=8, input_model={"kind": "uniform"}),
    )
    assert verdict.passed
    assert all(d == 0 for d in verdict.distances)


def test_freebit_class_defeats_both_shipped_predictors():
    subject = arena.one_freebit(5, 8)
    family = [subject]
    for predictor in (
        arena.TablePredictor(1),
        arena.BayesPredictor(family),
    ):
        verdict = arena.run_game(
            subject, predictor, cfg(t=4, u=8, epsilon=F(1, 2), input_model={"kind": "uniform"})
        )
        assert not verdict.passed
        assert min(verdict.distances) >= F(1, 2)


def test_oblivious_adversary_is_gentler_on_average():
    subject = arena.one_freebit(5, 8)
    game = cfg(t=4, u=8, epsilon=F(1, 2), input_model={"kind": "uniform"}, trials=60)
    adaptive = arena.run_game(subject, arena.TablePredictor(1), game)
    oblivious = arena.run_game(
        subject,
        arena.TablePredictor(1),
        arena.GameConfig(
            t=4, u=8, epsilon=F(1, 2), delta=F(1, 20), trials=60, seed=99,
            input_model={"kind": "uniform"}, adversary="oblivious",
        ),
    )
    assert sum(oblivious.distances) <= sum(adaptive.distances)


def test_training_phase_freebit_is_an_error():
    subject = arena.one_freebit(1, 8)
    with pytest.raises(arena.SubjectSpecError, match="training"):
        arena.run_game(subject, arena.TablePredictor(1), cfg(t=4, u=8))


def test_replay_is_byte_identical():
    subject = arena.one_freebit(5, 8)
    game = cfg(t=4, u=8, epsilon=F(1, 2), input_model={"kind": "uniform"})
    a = arena.run_game(subject, arena.TablePredictor(1), game)
    b = arena.run_game(subject, arena.TablePredictor(1), game)
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


def reference_clopper_pearson(k, n):
    """The interval by bisection on two separate tail sums, P(X >= k) and P(X <= k)."""
    alpha = 1 - arena.CONFIDENCE

    def sf(p):
        return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))

    def cdf(p):
        return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(0, k + 1))

    def bisect(f, target, lo, hi):
        for _ in range(80):
            mid = (lo + hi) / 2
            if f(mid) < target:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2

    lower = 0.0 if k == 0 else bisect(sf, alpha / 2, 1.0, 0.0)
    upper = 1.0 if k == n else bisect(cdf, alpha / 2, 0.0, 1.0)
    return lower, upper


@pytest.mark.parametrize(
    "n, ks",
    [(n, range(n + 1)) for n in (1, 2, 3, 10, 40)] + [(200, (0, 1, 100, 199, 200))],
)
def test_clopper_pearson_matches_the_two_sum_bisection(n, ks):
    for k in ks:
        # == on floats: the one tail sum adds the same terms in the same order
        assert arena.clopper_pearson(k, n) == reference_clopper_pearson(k, n), k


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
    table = [("table", arena.TablePredictor(1))]
    fixed = arena.GameConfig(8, 12, F(1, 20), F(1, 20), 20, 5, {"kind": "fixed", "bits": "0011"})
    det = arena.classify([arena.parrot()], table, [fixed])
    assert det["label"] == "mechanistic-at-scale"
    assert det["note"] == ""

    uniform = arena.GameConfig(8, 12, F(1, 20), F(1, 20), 20, 5)
    free = arena.classify([arena.one_freebit(9, 12)], table, [uniform])
    assert free["label"] == "unpredicted-at-scale"
    assert "not a proof" in free["note"]
    # a game out of window is refused before it can be played
    with pytest.raises(ValueError, match=r"need 0 <= 't' < 'u', got 't' = 12, 'u' = 12"):
        arena.GameConfig(12, 12, F(1, 10), F(1, 10), 1, 0)
    # a label rests on games played: no predictor plays none
    with pytest.raises(KnightianError, match="'predictors' is empty"):
        arena.classify([arena.parrot()], [], [uniform])


def test_one_predictor_value_serves_every_trial_and_game():
    # a predictor is a value: classify plays every game with the same one, so its
    # runs equal separate run_game calls with it, and a rerun replays them exactly
    predictors = [
        ("bayes", arena.BayesPredictor([arena.parrot(), arena.fair_coin()])),
        ("table", arena.TablePredictor(1)),
    ]
    subjects = [arena.parrot(), arena.fair_coin()]
    games = [arena.GameConfig(t, 7, F(1, 10), F(1, 10), trials=6, seed=3) for t in (2, 4)]
    report = arena.classify(subjects, predictors, games)
    separate = [
        arena.run_game(subject, predictor, game).to_payload()
        for _, predictor in predictors
        for game in games
        for subject in subjects
    ]
    assert [run["verdict"] for run in report["runs"]] == separate
    assert arena.classify(subjects, predictors, games) == report
