import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from knightian import toyvm as tv

CFG = tv.MachineConfig()
STREAM0 = "0" * CFG.rand_budget


# -- encoding ------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=100_000))
def test_gamma_round_trip(n):
    code = tv.gamma_encode(n)
    value, consumed = tv.gamma_decode(code)
    assert value == n and consumed == len(code)


def test_decode_empty_program():
    p = tv.decode("1")
    assert p.body == "" and len(p) == 1
    assert tv.run(p, CFG, STREAM0) == tv.RunResult("", True, 0, 0)


def test_decode_header_body_split():
    # gamma("010") encodes 2, so the body is exactly one bit
    p = tv.decode("0100")
    assert p.body == "0" and len(p) == 4
    with pytest.raises(tv.LengthMismatch):
        tv.decode("010")  # body missing


def test_appending_a_bit_breaks_any_valid_program():
    for p in tv.enumerate_programs(10):
        with pytest.raises(tv.LengthMismatch):
            tv.decode(p.code + "0")


def test_bad_headers():
    with pytest.raises(tv.BadHeader):
        tv.decode("0000")  # no stop bit
    with pytest.raises(tv.BadHeader):
        tv.decode("001")  # stop bit but truncated value field
    with pytest.raises(ValueError):
        tv.decode("10x")


def test_enumerate_matches_parse_all_bitstrings_oracle():
    # independent oracle: try to decode every bitstring up to the bound
    bound = 14
    expected = []
    for n in range(1, bound + 1):
        for bits in itertools.product("01", repeat=n):
            s = "".join(bits)
            try:
                expected.append(tv.decode(s).code)
            except (tv.BadHeader, tv.LengthMismatch):
                pass
    got = [p.code for p in tv.enumerate_programs(bound)]
    assert sorted(got) == sorted(expected)
    assert got == sorted(got, key=lambda c: (len(c), c))


def test_enumerate_is_prefix_free():
    codes = [p.code for p in tv.enumerate_programs(12)]
    for a in codes:
        for b in codes:
            if a != b:
                assert not b.startswith(a)


def test_enumerate_guard():
    with pytest.raises(tv.LimitExceeded):
        tv.enumerate_programs(25)


def test_kraft_sum_below_one_and_nondecreasing():
    previous = Fraction(0)
    for bound in range(1, 21):
        total = tv.kraft_sum(tv.enumerate_programs(bound))
        assert total <= 1
        assert total >= previous
        previous = total
    assert tv.kraft_sum(tv.enumerate_programs(12)) == Fraction(7, 8)
    # strictly increasing across bounds that admit new program lengths
    assert tv.kraft_sum(tv.enumerate_programs(14)) > Fraction(7, 8)


# -- execution -----------------------------------------------------------------


def test_straight_line_emission_and_halt():
    p = tv.from_body(tv.EMIT1 + tv.EMIT1 + tv.HALT)
    assert tv.run(p, CFG, STREAM0).output == "11"
    assert tv.run(p, CFG, STREAM0).halted


def test_rand_copies_the_stream():
    p = tv.from_body(tv.RAND + tv.HALT)
    assert tv.run(p, CFG, "0" + "0" * 23).output == "0"
    assert tv.run(p, CFG, "1" + "0" * 23).output == "1"


def test_run_is_deterministic():
    p = tv.from_body(tv.RAND + tv.EMIT0 + tv.JMP)
    first = tv.run(p, CFG, "10" * 12)
    second = tv.run(p, CFG, "10" * 12)
    assert first == second


def test_rand_stream_must_cover_budget():
    with pytest.raises(ValueError):
        tv.run(tv.from_body(tv.RAND), CFG, "0")


def test_quote_emits_tail_verbatim():
    p = tv.from_body(tv.QUOTE + "0110")
    r = tv.run(p, CFG, STREAM0)
    assert r.output == "0110" and r.halted


def test_repeat_expands_pattern():
    # gamma(3) = "011" means r = 4 repeats of "10"
    p = tv.from_body(tv.REPEAT + "011" + "10")
    r = tv.run(p, CFG, STREAM0)
    assert r.output == "10101010" and r.halted


def test_repeat_malformed_tail_halts_quietly():
    assert tv.run(tv.from_body(tv.REPEAT + "000"), CFG, STREAM0) == tv.RunResult(
        "", True, 1, 0
    )
    assert tv.run(tv.from_body(tv.REPEAT + "1"), CFG, STREAM0).output == ""


def test_jump_out_of_range_halts():
    assert tv.run(tv.from_body(tv.JMP), CFG, STREAM0).halted
    assert tv.run(tv.from_body(tv.JMPZ), CFG, STREAM0).halted


def test_infinite_loop_hits_output_budget_without_halting():
    r = tv.run(tv.from_body(tv.EMIT0 + tv.JMP), CFG, STREAM0)
    assert not r.halted
    assert r.output == "0" * CFG.output_budget
    assert r.steps_used <= CFG.step_budget


def test_step_budget_stops_emissionless_loops():
    cfg = tv.MachineConfig(step_budget=32)
    r = tv.run(tv.from_body(tv.INC + tv.DEC + tv.JMP), cfg, "0" * cfg.rand_budget)
    assert not r.halted and r.steps_used == 32


def test_counter_clamps():
    body = tv.DEC + tv.INC + tv.INC + tv.DEC + tv.DEC + tv.EMIT1 + tv.JMPZ
    # counter: 0,1,2,1,0 -> JMPZ loops back to EMIT1 forever
    r = tv.run(tv.from_body(body), CFG, STREAM0)
    assert not r.halted and set(r.output) == {"1"}


def test_rand_budget_stops_run():
    cfg = tv.MachineConfig(rand_budget=3)
    r = tv.run(tv.from_body(tv.RAND + tv.JMP), cfg, "101")
    assert not r.halted and r.output == "101" and r.rands_used == 3


def test_opcode_table_is_frozen():
    assert tv.OPCODE_NAMES == {
        "0000": "EMIT0",
        "0001": "EMIT1",
        "0010": "RAND",
        "0011": "QUOTE",
        "0100": "JMP",
        "0101": "JMPZ",
        "0110": "INC",
        "0111": "DEC",
        "1000": "REPEAT",
        "1001": "HALT",
    }
    assert tv.MACHINE_VERSION == "toyvm-1"
    # reserved opcodes halt
    for op in ("1010", "1111"):
        assert tv.run(tv.from_body(op + tv.EMIT1), CFG, STREAM0).output == ""


# -- distributions ---------------------------------------------------------------


def brute_force_distribution(program, n, cfg):
    """Oracle: run on every possible random stream and average."""
    dist = {}
    weight = Fraction(1, 2**cfg.rand_budget)
    for bits in itertools.product("01", repeat=cfg.rand_budget):
        r = tv.run(program, cfg, "".join(bits))
        key = r.output[:n] if len(r.output) >= n else tv.ABSTAIN
        dist[key] = dist.get(key, Fraction(0)) + weight
    return dist


@pytest.mark.parametrize(
    "body,n",
    [
        (tv.EMIT0 + tv.HALT, 1),
        (tv.RAND + tv.HALT, 1),
        (tv.RAND + tv.EMIT1 + tv.RAND, 3),
        (tv.RAND + tv.RAND + tv.HALT, 1),
        (tv.QUOTE + "01", 2),
        (tv.EMIT1, 2),  # abstains at n=2
    ],
)
def test_output_distribution_matches_stream_enumeration_oracle(body, n):
    cfg = tv.MachineConfig(rand_budget=4)
    p = tv.from_body(body)
    assert tv.output_distribution(p, n, cfg) == brute_force_distribution(p, n, cfg)


def test_distribution_normalization_and_consistency():
    cfg = tv.MachineConfig(rand_budget=6)
    for p in tv.enumerate_programs(14):
        d2 = tv.output_distribution(p, 2, cfg)
        assert sum(d2.values()) == 1
        d1 = tv.output_distribution(p, 1, cfg)
        if tv.ABSTAIN not in d2:
            marginal = {}
            for word, mass in d2.items():
                marginal[word[:1]] = marginal.get(word[:1], Fraction(0)) + mass
            assert marginal == d1


def test_prefix_probability_agrees_with_distribution():
    cfg = tv.MachineConfig(rand_budget=4)
    p = tv.from_body(tv.RAND + tv.EMIT1 + tv.RAND)
    dist = tv.output_distribution(p, 2, cfg)
    for word, mass in dist.items():
        if word != tv.ABSTAIN:
            assert tv.prefix_probability(p, word, cfg) == mass
    assert tv.prefix_probability(p, "00", cfg) == 0  # second bit is a literal 1


def two_stream_template(program, cfg):
    """Oracle: a RAND slot is exactly where runs on complementary streams differ."""
    zeros = tv.run(program, cfg, "0" * cfg.rand_budget)
    ones = tv.run(program, cfg, "1" * cfg.rand_budget)
    assert zeros.halted == ones.halted
    slots = tuple(
        ("rand", None) if a != b else ("lit", a) for a, b in zip(zeros.output, ones.output)
    )
    return slots, zeros.halted


@pytest.mark.parametrize(
    "cfg", [CFG, tv.MachineConfig(step_budget=8, rand_budget=2, output_budget=5)]
)
def test_output_template_matches_two_stream_oracle(cfg):
    for p in tv.enumerate_programs(16):
        assert tv.output_template(p, cfg) == two_stream_template(p, cfg), p.code


def test_mirror_is_a_length_preserving_involution():
    for p in tv.enumerate_programs(16):
        m = tv.mirror(p)
        assert len(m) == len(p)
        assert tv.mirror(m).code == p.code
