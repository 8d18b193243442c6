"""Laws of the theory that tie one family to another, checked without a reference oracle.

A differential test compares a fast path with a second copy of the same
algorithm, so a defect both copies share, or a wrong definition, passes it.
A law links two families that share no code path, e.g. `prior`'s mixture and
`complexity`'s K(x) (Li & Vitanyi, An Introduction to Kolmogorov Complexity,
chs. 3-4), or `classical`'s Knightian or and `freestate`'s hull LP, or holds
of every member of a family, as the freebit law of every `arena` predictor.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_freestate
from knightian import arena, classical, complexity, freestate, gadgets, prior, toyvm
import oracles

SHORT_STRINGS = ["".join(bits) for n in range(9) for bits in itertools.product("01", repeat=n)]


@pytest.mark.parametrize("bound, with_k", [(16, 89), (20, 511)])
def test_coding_theorem_bound(bound, with_k):
    # M(x) >= 2**-K(x) / C: K(x)'s witness emits x with certainty, and the
    # mixture weighs it 2**-K(x) / C.  The least M(x) * C * 2**K(x) is 33/32
    # at bound 16, so a K(x) one bit short fails.
    cfg = toyvm.MachineConfig()
    mixture = prior.build_mixture(bound, cfg)
    checked = 0
    for x in SHORT_STRINGS:
        k = complexity.kolmogorov(x, bound, cfg)
        if isinstance(k, complexity.NotFound):
            continue
        checked += 1
        floor = Fraction(1, 2**k.value) / oracles.normalizer(mixture)
        mass = prior.joint_probability(mixture, x)
        assert mass >= floor, (x, k.value)
    assert checked == with_k


@pytest.mark.parametrize("bound, fitting", [(16, 63), (20, 511)])
def test_print_program_bound(bound, fitting):
    # K(x) <= |P_x|: the QUOTE program P_x = from_body("0011" + x) halts with
    # output exactly x, without RAND, under the default budgets.  K is read
    # from tabulate, whose one census is the one at the bound: kolmogorov
    # stops its own search at |P_x|, so a K read from it would check that cap
    # rather than the census.
    cfg = toyvm.MachineConfig()
    rows = complexity.tabulate(list(range(9)), [], bound, cfg)
    checked = 0
    for row in rows:
        printer = toyvm.from_body(toyvm.QUOTE + row["x"])
        if len(printer) > bound:
            continue
        checked += 1
        assert row["k"] is not None and row["k"] <= len(printer), (row["x"], row["k"])
    assert checked == fitting


def random_quantum_pairs(seed: int, count: int):
    """(A, B): random freestates of one dimension d <= 4, with 2 or 3 generators each."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 5))
        yield tuple(random_freestate(rng, d, int(rng.integers(2, 4))) for _ in range(2))


def test_or_contains_each_of_its_states():
    # A lies inside or(A, B): each generator of A is in the hull, at exact
    # distance 0 from it
    for a, b in random_quantum_pairs(61, 24):
        union = classical.knightian_or(a, b)
        assert all(freestate.hull_contains(union, g) for g in a.generators)


def test_or_of_a_state_with_itself_is_that_state():
    # or(A, A) is hull-equal to A, so no witness tells them apart
    for a, _ in random_quantum_pairs(67, 24):
        assert freestate.separating_witness(a, classical.knightian_or(a, a)) is None


def random_classical(rng: random.Random, n: int) -> classical.ClassicalFreestate:
    """1 to 3 exact distributions over n outcomes: integer weights 0..9, the last at least 1, normalized."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        weights = [rng.randint(0, 9) for _ in range(n - 1)]
        weights.append(rng.randint(1, 9))
        gens.append(tuple(Fraction(w, sum(weights)) for w in weights))
    return classical.ClassicalFreestate(n, tuple(gens))


def test_or_event_interval_spans_both_intervals():
    # an event's interval over or(A, B) is exactly [min lo, max hi] of its
    # intervals over A and over B: a linear functional's extremes over the
    # hull of the union sit at generators of A or of B
    rng = random.Random(79)
    for _ in range(300):
        n = rng.randint(1, 5)
        a, b = random_classical(rng, n), random_classical(rng, n)
        event = [i for i in range(n) if rng.random() < 0.5]
        (lo_a, hi_a), (lo_b, hi_b) = classical.event_interval(a, event), classical.event_interval(b, event)
        union = classical.event_interval(classical.knightian_or(a, b), event)
        assert union == (min(lo_a, lo_b), max(hi_a, hi_b)), (a, b, event)
        assert all(type(end) is Fraction for end in union)


# (2 + sqrt 2) / 4, the most any quantum strategy wins the CHSH game with
# (Cirel'son, Lett. Math. Phys. 4, 1980)
TSIRELSON = (2 + math.sqrt(2)) / 4


def test_tsirelson_bound():
    # no measurement angles on the Bell pair beat it, and the optimal ones reach it
    rng = random.Random(73)
    for _ in range(200):
        alice = (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        bob = (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
        assert gadgets.chsh_quantum_value(alice, bob) <= TSIRELSON + 1e-12, (alice, bob)
    best = gadgets.chsh_quantum_value(gadgets.CHSH_OPTIMAL_ALICE, gadgets.CHSH_OPTIMAL_BOB)
    assert abs(best - TSIRELSON) <= 1e-12


def exact_chsh_value(alice, bob) -> Fraction:
    """The CHSH win probability computed exactly from the float unit vectors and the
    float entries of the Bell pair's density matrix: the sum of Tr(kron(u u^T, v v^T) rho)
    over the winning outcomes, a quarter for each input pair."""
    amplitude = 1 / math.sqrt(2)
    corner = Fraction(amplitude * amplitude)
    rho = [[corner if i in (0, 3) and j in (0, 3) else 0 for j in range(4)] for i in range(4)]

    def unit(theta, outcome):
        c, s = Fraction(math.cos(theta)), Fraction(math.sin(theta))
        return (-s, c) if outcome else (c, s)

    total = Fraction(0)
    for x, y, a, b in itertools.product((0, 1), repeat=4):
        if (a + b) % 2 == (x & y):
            u, v = unit(alice[x], a), unit(bob[y], b)
            proj = [[u[i // 2] * u[j // 2] * v[i % 2] * v[j % 2] for j in range(4)] for i in range(4)]
            total += sum(proj[i][k] * rho[k][i] for i in range(4) for k in range(4))
    return total / 4


def test_chsh_value_is_the_exact_trace_to_within_rounding():
    # the float value lies within 2**-50 of the same trace taken in Fractions;
    # its worst error over these draws is 1.52 * 2**-53
    rng = random.Random(50)
    for scale in (1.0, 10.0, 1e8):
        for _ in range(200):
            alice = (rng.uniform(-scale, scale), rng.uniform(-scale, scale))
            bob = (rng.uniform(-scale, scale), rng.uniform(-scale, scale))
            error = Fraction(gadgets.chsh_quantum_value(alice, bob)) - exact_chsh_value(alice, bob)
            assert abs(error) <= Fraction(1, 2**50), (alice, bob, float(error))


@pytest.mark.parametrize("bound, equal", [(16, 54), (20, 0)])
def test_semimeasure_law(bound, equal):
    # M(h0) + M(h1) <= M(h) for the 127 strings h of length <= 6, with
    # equality exactly when no class that emits h stops there: a class whose
    # template is |h| long gives its mass to h and none to either extension.
    # At bound 20 some class stops at every such h.
    queue = [prior.build_mixture(bound, toyvm.MachineConfig())]
    classes = queue[0].census.classes
    equalities = 0
    for mixture in queue:
        zero, one = prior.update(mixture, "0"), prior.update(mixture, "1")
        whole = prior.joint_probability(mixture)
        split = prior.joint_probability(zero) + prior.joint_probability(one)
        stops = any(len(classes[k][0]) == len(mixture.history) for k, _ in mixture.survivors)
        assert split <= whole, mixture.history
        assert (split == whole) == (not stops), mixture.history
        equalities += not stops
        if len(mixture.history) < 6:
            queue += [zero, one]
    assert len(queue) == 127 and equalities == equal


CHAIN_EMISSIONS = [("bit", "0"), ("bit", "1")] + [("prob", Fraction(p)) for p in ("1/2", "1/3", "3/4")]


def chain(rng: random.Random, t: int, u: int, k: int) -> arena.Subject:
    """Inputs ignored, step v emits a literal or a coin, except k distinct freebits in [t, u)."""
    emits = [rng.choice(CHAIN_EMISSIONS) for _ in range(u)] + [("bit", "0")]
    for idx, pos in enumerate(rng.sample(range(t, u), k)):
        emits[pos] = ("freebit", idx)
    edges = {(f"c{v}", i): arena.Edge(f"c{min(v + 1, u)}", emits[v]) for v in range(u + 1) for i in "01"}
    return arena.Subject(tuple(f"c{v}" for v in range(u + 1)), "c0", edges, k)


def test_freebit_law():
    # k freebits in the window: each forecast suffix fixes one freebit pattern,
    # so the per-pattern overlaps sum to at most 1 and the least is at most
    # 2**-k.  The adversary's distance, 1 - the least, is then at least
    # 1 - 2**-k for every predictor, with no slack when the forecast is fair
    # on the freebits and matches the rest of the window.
    rng = random.Random(83)
    tight = {"table": 0, "bayes": 0}
    for trial in range(300):
        k = rng.randint(1, 6)
        t = rng.randint(0, 4)
        u = t + k + rng.randint(0, 4)
        subject = chain(rng, t, u, k)
        inputs = "".join(rng.choice("01") for _ in range(u))
        behavior = "".join(rng.choice("01") for _ in range(t))
        if trial % 2:
            kind, predictor = "table", arena.TablePredictor(rng.randint(0, 2))
        else:
            family = [subject] + [chain(rng, t, u, 0) for _ in range(rng.randint(0, 3))]
            kind, predictor = "bayes", arena.BayesPredictor(family)
        forecast = predictor.emit_forecast(inputs[:t], behavior)
        _, distance = arena.adversary_resolution(subject, forecast, inputs, t, u)
        floor = 1 - Fraction(1, 2**k)
        assert distance >= floor, (trial, kind, k, distance)
        tight[kind] += distance == floor
    assert all(tight.values()), tight


def test_bayes_law():
    # A Bayes filter over a finite family F that holds the true subject, with
    # no freebits: the mixture's KL divergence from the truth over [0, u) is
    # at most ln|F|, so by the chain rule the expected KL of the window's
    # forecast from the window's true law is too.  Pinsker and Jensen bound
    # the expected distance by sqrt(ln|F| / 2), and Hoeffding puts the mean
    # of n independent trials above that by more than sqrt(ln(1/delta) / (2n))
    # with chance at most delta.  |F| <= 3 keeps the bound below 1.
    rng = random.Random(89)
    trials, delta = 60, 1e-3
    for case in range(40):
        size = rng.randint(2, 3)
        t = rng.randint(0, 6)
        u = t + rng.randint(1, 3)
        family = [chain(rng, t, u, 0) for _ in range(size)]
        game = arena.GameConfig(t, u, Fraction(1, 2), Fraction(1, 2), trials, case)
        verdict = arena.run_game(rng.choice(family), arena.BayesPredictor(family), game)
        mean = sum(verdict.distances) / trials
        bound = math.sqrt(math.log(size) / 2) + math.sqrt(math.log(1 / delta) / (2 * trials))
        assert bound < 1 and mean <= bound, (case, size, t, u, float(mean))


def test_freebit_law_is_tight_for_the_subjects_own_filter():
    # A Bayes filter over the subject alone, trained on behavior the subject
    # can show, forecasts each literal and coin of the window at its true law
    # and each freebit as a fair coin, so every pattern's overlap is 2**-k and
    # the adversary's distance is 1 - 2**-k exactly.
    rng = random.Random(97)
    for trial in range(40):
        k = rng.randint(1, 6)
        t = rng.randint(0, 4)
        u = t + k + rng.randint(0, 4)
        subject = chain(rng, t, u, k)
        inputs = "".join(rng.choice("01") for _ in range(u))
        emits = [subject.edges[(f"c{v}", inputs[v])].emit for v in range(t)]
        behavior = "".join(value if kind == "bit" else rng.choice("01") for kind, value in emits)
        forecast = arena.BayesPredictor([subject]).emit_forecast(inputs[:t], behavior)
        _, distance = arena.adversary_resolution(subject, forecast, inputs, t, u)
        assert distance == 1 - Fraction(1, 2**k), (trial, k, t, u, distance)
