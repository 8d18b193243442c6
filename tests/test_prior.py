import itertools
from fractions import Fraction

import pytest

from knightian import prior, toyvm as tv

CFG = tv.MachineConfig()
# budgets small enough that runs stop on every budget within bound 16
TIGHT = tv.MachineConfig(step_budget=8, rand_budget=2, output_budget=5)


def mixture_oracle_probability(mixture, prefix):
    """Independent route: per-hypothesis stream enumeration, small budgets."""
    cfg = tv.MachineConfig(rand_budget=6)
    total = Fraction(0)
    weight_stream = Fraction(1, 2**cfg.rand_budget)
    for h in mixture.hypotheses:
        for bits in itertools.product("01", repeat=cfg.rand_budget):
            r = tv.run(h.program, cfg, "".join(bits))
            if len(r.output) >= len(prefix) and r.output[: len(prefix)] == prefix:
                total += h.prior * weight_stream
    return total


def reference_priors(bound, cfg):
    """The per-program mixture: every program with weight 2**-len(P) / C."""
    programs = tv.enumerate_programs(bound)
    normalizer = tv.kraft_sum(programs)
    return [(p, Fraction(1, 2 ** len(p)) / normalizer) for p in programs]


def reference_joint(priors, prefix, cfg):
    return sum((w * tv.prefix_probability(p, prefix, cfg) for p, w in priors), Fraction(0))


def reference_posteriors(priors, history, cfg):
    """The per-program update chain: reweigh every prior, then normalize, bit by bit."""
    posts = [w for _, w in priors]
    for i in range(1, len(history) + 1):
        raw = [w * tv.prefix_probability(p, history[:i], cfg) for p, w in priors]
        total = sum(raw, Fraction(0))
        posts = [r / total for r in raw] if total > 0 else raw
    return posts


@pytest.mark.parametrize("cfg", [CFG, TIGHT])
def test_census_matches_per_program_sums(cfg):
    priors = reference_priors(16, cfg)
    m = prior.build_mixture(16, cfg)
    for n in range(7):
        for prefix in map("".join, itertools.product("01", repeat=n)):
            assert prior.joint_probability(m, prefix) == reference_joint(priors, prefix, cfg)
    halting = [Fraction(1, 2 ** len(p)) for p, _ in priors if tv.sure_halts(p, cfg)]
    assert prior.omega_truncated(16, cfg) == sum(halting, Fraction(0))


@pytest.mark.parametrize(
    "cfg,history",
    [(CFG, ""), (CFG, "1"), (CFG, "0110"), (CFG, "101101"), (TIGHT, "0101"), (TIGHT, "000000")],
)
def test_snapshot_posteriors_match_the_update_chain(cfg, history):
    priors = reference_priors(16, cfg)
    m = prior.build_mixture(16, cfg)
    for b in history:
        m = prior.update(m, b)
    expected = [
        {"program": p.code, "prior": str(w), "posterior": str(post)}
        for (p, w), post in zip(priors, reference_posteriors(priors, history, cfg))
    ]
    assert prior.mixture_snapshot(m) == expected


def test_negative_bound_is_rejected():
    with pytest.raises(ValueError):
        prior.build_mixture(-1, CFG)
    with pytest.raises(ValueError):
        prior.omega_truncated(-1, CFG)


def test_single_hypothesis_mixture():
    m = prior.build_mixture(1, CFG)
    assert len(m.hypotheses) == 1
    assert m.hypotheses[0].program.body == ""
    assert m.hypotheses[0].prior == 1


def test_normalizer_matches_direct_summation():
    m = prior.build_mixture(12, CFG)
    direct = sum(
        (Fraction(1, 2 ** len(p)) for p in tv.enumerate_programs(12)), Fraction(0)
    )
    assert m.normalizer == direct == Fraction(7, 8)
    assert sum(h.prior for h in m.hypotheses) == 1


def test_prior_weights_halve_per_extra_bit():
    m = prior.build_mixture(12, CFG)
    by_len = {}
    for h in m.hypotheses:
        by_len.setdefault(len(h.program), h.prior)
    lengths = sorted(by_len)
    for a, b in zip(lengths, lengths[1:]):
        assert by_len[b] / by_len[a] == Fraction(1, 2 ** (b - a))


def test_joint_probability_against_stream_oracle():
    m = prior.build_mixture(12, tv.MachineConfig(rand_budget=6))
    for prefix in ("", "0", "1", "00", "01", "10"):
        assert prior.joint_probability(m, prefix) == mixture_oracle_probability(m, prefix)


def test_fresh_prediction_is_exactly_half():
    m = prior.build_mixture(16, CFG)
    assert prior.predict_next(m) == Fraction(1, 2)
    # the symmetry that forces it: the mirror bijection preserves length
    p1 = prior.joint_probability(m, "1")
    p0 = prior.joint_probability(m, "0")
    assert p0 == p1


def test_all_zero_history_pulls_prediction_below_half():
    m = prior.build_mixture(16, CFG)
    for _ in range(10):
        m = prior.update(m, "0")
    p = prior.predict_next(m)
    assert p < Fraction(1, 2)
    assert p > 0


def test_predict_update_bayes_coherence():
    m = prior.build_mixture(16, CFG)
    for bits in ("0", "1", "01", "10", "000"):
        cur = m
        for b in bits:
            cur = prior.update(cur, b)
        direct_num = prior.joint_probability(m, bits + "1")
        direct_den = direct_num + prior.joint_probability(m, bits + "0")
        assert prior.predict_next(cur) == direct_num / direct_den


def test_posterior_of_contradicted_program_is_zero():
    m = prior.build_mixture(12, CFG)
    m = prior.update(m, "1")
    emit0 = tv.from_body(tv.EMIT0).code
    post = {h.program.code: h.posterior for h in m.hypotheses}
    assert post[emit0] == 0
    assert sum(post.values()) == 1


def test_update_keeps_posteriors_normalized():
    # bound 16 admits two-instruction loopers, so any history has support
    m = prior.build_mixture(16, CFG)
    for b in "0110":
        m = prior.update(m, b)
        assert sum(h.posterior for h in m.hypotheses) == 1


def test_zero_mass_history_raises():
    m = prior.build_mixture(4, CFG)  # only the empty program: no emissions
    with pytest.raises(prior.ZeroMassHistory):
        prior.predict_next(m)


def test_dominance_on_short_sequences():
    m = prior.build_mixture(12, CFG)
    for h in m.hypotheses:
        floor = Fraction(1, 2 ** len(h.program))
        for n in (1, 2, 3):
            for seq in map("".join, itertools.product("01", repeat=n)):
                p_q = tv.prefix_probability(h.program, seq, CFG)
                if p_q > 0:
                    assert prior.joint_probability(m, seq) / p_q >= floor


def test_regret_report_telescopes_exactly():
    m = prior.build_mixture(12, CFG)
    q = tv.from_body(tv.QUOTE + "00")
    report = prior.regret_report(q, "00", m, [Fraction(1, 2), Fraction(9, 10)])
    product = Fraction(1)
    for r in report.per_step_ratios:
        product *= r
    assert product == report.ratio_product
    assert report.ratio_product == prior.joint_probability(m, "00") / tv.prefix_probability(
        q, "00", CFG
    )
    assert report.ratio_product >= Fraction(1, 2 ** len(q))
    # golden: the emit-zero hypothesis at this bound; per-step conditionals
    # are heavily damped by abstaining hypotheses, so both steps undercut
    # even the generous 1 - eps = 1/10 threshold
    assert report.ratio_product == Fraction(1, 896)
    assert report.mistakes[Fraction(1, 2)] == 2
    assert report.mistakes[Fraction(9, 10)] == 2


def test_regret_mistake_count_obeys_product_bound():
    # arithmetic consequence of the product inequality, on realized ratios
    import math

    m = prior.build_mixture(15, CFG)
    q = tv.from_body(tv.RAND + tv.RAND)
    for seq in ("00", "01", "11"):
        report = prior.regret_report(q, seq, m, [Fraction(1, 4)])
        eps = Fraction(1, 4)
        mistakes = report.mistakes[eps]
        slack = report.nonmistake_log2_excess[eps]
        bound = (len(q) + slack) / math.log2(1 / (1 - eps))
        assert mistakes <= bound


def test_regret_on_random_supported_sequences():
    import random

    rng = random.Random(17)
    m = prior.build_mixture(15, CFG)
    q = tv.from_body(tv.RAND + tv.JMP)  # uniform over all sequences
    assert any(h.program.code == q.code for h in m.hypotheses)
    floor = Fraction(1, 2 ** len(q))
    for _ in range(100):
        seq = "".join(rng.choice("01") for _ in range(6))
        report = prior.regret_report(q, seq, m, [])
        assert report.ratio_product >= floor


def test_regret_requires_supported_sequence():
    m = prior.build_mixture(12, CFG)
    q = tv.from_body(tv.QUOTE + "00")
    with pytest.raises(prior.UnsupportedSequence):
        prior.regret_report(q, "11", m, [])


def test_regret_requires_member_hypothesis():
    m = prior.build_mixture(12, CFG)
    q = tv.from_body(tv.QUOTE + "00000000")  # longer than the bound admits
    with pytest.raises(ValueError):
        prior.regret_report(q, "00000000", m, [])


def test_diagonal_realized_bits_are_never_likely():
    m = prior.build_mixture(16, CFG)
    bits, steps = prior.diagonal_sequence(m, 16)
    for i, s in enumerate(steps, start=1):
        assert s.conditional <= Fraction(1, 2)
        assert s.cumulative <= Fraction(1, 2**i)


def test_diagonal_golden_prefix():
    m = prior.build_mixture(16, CFG)
    bits, _ = prior.diagonal_sequence(m, 8)
    assert bits == "10000111"


def test_diagonal_walks_out_of_tiny_support():
    m = prior.build_mixture(4, CFG)
    with pytest.raises(prior.ZeroMassHistory) as err:
        prior.diagonal_sequence(m, 4)
    assert err.value.step == 1


def test_omega_conventions_and_monotonicity():
    assert prior.omega_truncated(1, CFG) == Fraction(1, 2)
    values = [prior.omega_truncated(b, CFG) for b in range(1, 17)]
    for a, b in zip(values, values[1:]):
        assert a <= b
    # more steps can only help a program halt
    tight = tv.MachineConfig(step_budget=4)
    loose = tv.MachineConfig(step_budget=256)
    assert prior.omega_truncated(14, tight) <= prior.omega_truncated(14, loose)


def test_omega_golden_at_bound_12():
    # every body at this bound is a single instruction: all of them halt,
    # so the halting mass equals the whole Kraft sum
    assert prior.omega_truncated(12, tv.MachineConfig(step_budget=256)) == Fraction(7, 8)
    # loopers exist from bound 15 on, so omega lags the Kraft sum there
    cfg = tv.MachineConfig(step_budget=256)
    assert prior.omega_truncated(15, cfg) < tv.kraft_sum(tv.enumerate_programs(15))
