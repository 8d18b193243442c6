import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import ORACLE_CONFIGS
import knightian
from knightian import toyvm as tv
import oracles
from oracles import reference_census, reference_enumerate, reference_execute, reference_gamma_decode

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
    for code in tv.enumerate_programs(10):
        with pytest.raises(tv.LengthMismatch):
            tv.decode(code + "0")


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
    got = tv.enumerate_programs(bound)
    assert sorted(got) == sorted(expected)
    assert got == sorted(got, key=lambda c: (len(c), c))


def test_enumerate_is_prefix_free():
    codes = tv.enumerate_programs(12)
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
        total = oracles.kraft_sum(tv.enumerate_programs(bound))
        assert total <= 1
        assert total >= previous
        previous = total
    assert oracles.kraft_sum(tv.enumerate_programs(12)) == Fraction(7, 8)
    # strictly increasing across bounds that admit new program lengths
    assert oracles.kraft_sum(tv.enumerate_programs(14)) > Fraction(7, 8)


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


def test_repeat_with_a_huge_count_stops_on_the_step_budget():
    # gamma(2**80) is 161 bits: r = 2**80 + 1 copies of "1", far past any budget
    cfg = tv.MachineConfig(step_budget=20, output_budget=64)
    p = tv.from_body(tv.REPEAT + tv.gamma_encode(2**80) + "1")
    assert tv.run(p, cfg, "0" * cfg.rand_budget) == tv.RunResult("1" * 19, False, 20, 0)


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
    opcodes = ("EMIT0", "EMIT1", "RAND", "QUOTE", "JMP", "JMPZ", "INC", "DEC", "REPEAT", "HALT")
    assert [getattr(tv, name) for name in opcodes] == [format(op, "04b") for op in range(10)]
    assert knightian.MACHINE_VERSION == "toyvm-1"
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
        key = r.output[:n] if len(r.output) >= n else oracles.ABSTAIN
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
    assert oracles.output_distribution(p, n, cfg) == brute_force_distribution(p, n, cfg)


def test_distribution_normalization_and_consistency():
    cfg = tv.MachineConfig(rand_budget=6)
    for p in oracles.programs(14):
        d2 = oracles.output_distribution(p, 2, cfg)
        assert sum(d2.values()) == 1
        d1 = oracles.output_distribution(p, 1, cfg)
        if oracles.ABSTAIN not in d2:
            marginal = {}
            for word, mass in d2.items():
                marginal[word[:1]] = marginal.get(word[:1], Fraction(0)) + mass
            assert marginal == d1


def test_prefix_probability_agrees_with_distribution():
    cfg = tv.MachineConfig(rand_budget=4)
    p = tv.from_body(tv.RAND + tv.EMIT1 + tv.RAND)
    dist = oracles.output_distribution(p, 2, cfg)
    for word, mass in dist.items():
        if word != oracles.ABSTAIN:
            assert tv.prefix_probability(p, word, cfg) == mass
    assert tv.prefix_probability(p, "00", cfg) == 0  # second bit is a literal 1


def two_stream_template(program, cfg):
    """Oracle: a RAND slot, marked "?", is exactly where runs on complementary streams differ."""
    zeros = tv.run(program, cfg, "0" * cfg.rand_budget)
    ones = tv.run(program, cfg, "1" * cfg.rand_budget)
    assert zeros.halted == ones.halted
    template = "".join("?" if a != b else a for a, b in zip(zeros.output, ones.output))
    return template, zeros.halted


@pytest.mark.parametrize(
    "cfg", [CFG, tv.MachineConfig(step_budget=8, rand_budget=2, output_budget=5)]
)
def test_output_template_matches_two_stream_oracle(cfg):
    for p in oracles.programs(16):
        assert tv.output_template(p, cfg) == two_stream_template(p, cfg), p.code


@pytest.mark.parametrize(
    "cfg", [CFG, tv.MachineConfig(step_budget=8, rand_budget=2, output_budget=5)]
)
def test_census_members_are_the_classes_of_their_templates(cfg):
    census = tv.census(16, cfg)
    programs = oracles.programs(16)
    assert len(census.members) == len(programs)
    weights = [0] * len(census.classes)
    for p, k in zip(programs, census.members):
        assert census.classes[k][0] == tv.output_template(p, cfg)[0], p.code
        weights[k] += 2 ** (16 - len(p))
    assert weights == [weight for _template, weight in census.classes]


def test_mirror_is_a_length_preserving_involution():
    for p in oracles.programs(16):
        m = oracles.mirror(p)
        assert len(m) == len(p)
        assert oracles.mirror(m).code == p.code


# -- the interpreter, enumeration and census against their reference paths -----


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_interpreter_matches_the_reference_on_every_program(cfg):
    rng = random.Random(f"streams:{cfg}")
    markers = "?" * cfg.rand_budget
    for p in oracles.programs(16):
        bits = "".join(rng.choice("01") for _ in range(cfg.rand_budget))
        assert tv.run(p, cfg, bits) == reference_execute(p.body, cfg, bits), p.code
        assert tv._execute(p.body, cfg, markers) == reference_execute(p.body, cfg, markers), p.code


def test_interpreter_matches_the_reference_on_random_long_bodies():
    rng = random.Random(8)
    for _ in range(10_000):
        cfg = rng.choice(ORACLE_CONFIGS)
        body = "".join(rng.choice("01") for _ in range(rng.randint(0, 200)))
        stream = "".join(rng.choice("01") for _ in range(cfg.rand_budget))
        assert tv.run(tv.from_body(body), cfg, stream) == reference_execute(body, cfg, stream), body


def test_resume_matches_the_reference_from_mid_run_states():
    # bodies rich in two-op loops, entered at any pc with counters at and near
    # both clamps and step counts at and near the budget
    rng = random.Random(31)
    loop_ops = [tv.JMP, tv.JMPZ, tv.INC, tv.DEC]
    for _ in range(20_000):
        cfg = rng.choice(ORACLE_CONFIGS)
        ops = [
            rng.choice(loop_ops) if rng.random() < 0.6 else format(rng.randrange(16), "04b")
            for _ in range(rng.randint(1, 10))
        ]
        body = "".join(ops) + "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        pc = rng.randint(0, len(ops))
        counter = rng.choice([0, 1, 254, 255, rng.randint(0, tv.COUNTER_MAX)])
        near_budget = max(cfg.step_budget - rng.randint(0, 3), 0)
        steps = rng.choice([near_budget, rng.randint(0, cfg.step_budget)])
        rands = rng.randint(0, cfg.rand_budget)
        out = "".join(rng.choice("01?") for _ in range(rng.randint(0, cfg.output_budget)))
        stream = "".join(rng.choice("01") for _ in range(cfg.rand_budget))
        state = (pc, counter, steps, rands)
        emitted = list(out)
        halted, _counter, *used = tv._resume(body, cfg, stream, emitted, *state)
        got = tv.RunResult("".join(emitted), halted is not False, *used)
        assert got == reference_execute(body, cfg, stream, *state, out), (body, cfg, state, out)


@pytest.mark.parametrize("m", range(15))
def test_repeat_blocks_match_the_data_rule_on_every_tail(m):
    tails = tv._tails(m)
    assert list(tails) == ["".join(bits) for bits in itertools.product("01", repeat=m)]
    for room in range(71):
        assert tv._repeat_tails(m, room) == [tv._data(tv.REPEAT, tail, room) for tail in tails], room


def outcome(decode, bits):
    try:
        return decode(bits)
    except (tv.BadHeader, ValueError) as e:
        return type(e), str(e)


def test_gamma_decode_matches_the_character_scan():
    for n in range(9):
        for chars in itertools.product("01?", repeat=n):
            bits = "".join(chars)
            assert outcome(tv.gamma_decode, bits) == outcome(reference_gamma_decode, bits), bits


def test_enumeration_matches_the_reference_at_every_bound():
    for bound in range(tv.ENUMERATION_GUARD + 1):
        assert tv.enumerate_programs(bound) == [
            p.code for p in reference_enumerate(bound)
        ], bound


def census_fields(census):
    """What a census means, apart from the order of its classes: each program's class is read through members."""
    return (
        sorted(census.classes),
        census.total,
        census.halted,
        list(census.witnesses.items()),
        [census.classes[k][0] for k in census.members],
    )


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_census_matches_the_reference_at_every_bound(cfg):
    for bound in range(21):
        assert census_fields(tv.census(bound, cfg)) == census_fields(reference_census(bound, cfg)), bound


@pytest.mark.parametrize("bound", [22, tv.ENUMERATION_GUARD])
def test_census_matches_the_reference_up_to_the_guard(bound):
    assert census_fields(tv.census(bound, CFG)) == census_fields(reference_census(bound, CFG))


def test_census_guard_is_checked_before_any_program_runs(monkeypatch):
    def no_runs(*args):
        raise AssertionError("the census ran a program")

    monkeypatch.setattr(tv, "_execute", no_runs)
    monkeypatch.setattr(tv, "_resume", no_runs)
    with pytest.raises(tv.LimitExceeded, match="'bound'"):
        tv.census(tv.ENUMERATION_GUARD + 1, CFG)
