import itertools
import math
import time
from fractions import Fraction

import pytest

from conftest import ORACLE_CONFIGS
from knightian import complexity as cx, toyvm as tv
import oracles
from oracles import reference_row, reference_sophistication

CFG = tv.MachineConfig()
BOUND = 20


# hand-derived with the frozen opcode table: shortest emitters are QUOTE
# (4 + n body bits) except where REPEAT compresses a periodic string
KNOWN_K = {
    "": 1,
    "0": 9,
    "1": 9,
    "01": 11,
    "0000": 14,
    "0011": 15,
    "000000": 15,  # REPEAT r=2 of "000"
    "011011": 15,  # REPEAT r=2 of "011"
    "010101": 16,  # REPEAT r=3 of "01"
    "011010": 17,  # aperiodic: QUOTE
    "00000000": 16,  # REPEAT r=4 of "00"
}


@pytest.mark.parametrize("x,expected", sorted(KNOWN_K.items()))
def test_kolmogorov_goldens(x, expected):
    result = cx.kolmogorov(x, BOUND, CFG)
    assert isinstance(result, cx.ComplexityResult)
    assert result.value == expected


def test_witnesses_reproduce_their_targets():
    for x in KNOWN_K:
        result = cx.kolmogorov(x, BOUND, CFG)
        replay = tv.run(result.witness_program, CFG, "0" * CFG.rand_budget)
        assert replay.halted and replay.output == x
        assert not tv.contains_rand(result.witness_program)


def static_scan_outputs(bound, cfg):
    """Oracle: the former separate pass, which skipped every program with a
    RAND in its static instruction stream and ran the rest on a zero stream."""
    table = {}
    stream = "0" * cfg.rand_budget
    for p in oracles.programs(bound):
        if tv.contains_rand(p):
            continue
        r = tv.run(p, cfg, stream)
        if r.halted and r.output not in table:
            table[r.output] = p.code
    return table


@pytest.mark.parametrize(
    "cfg",
    [
        CFG,
        tv.MachineConfig(step_budget=8, rand_budget=2, output_budget=5),
        tv.MachineConfig(rand_budget=0),
    ],
)
def test_census_witnesses_match_the_static_scan(cfg):
    oracle = static_scan_outputs(BOUND, cfg)
    assert list(tv.census(BOUND, cfg).witnesses.items()) == list(oracle.items())
    listable = {}
    for output, code in oracle.items():
        try:
            listable.setdefault(cx.parse_listing(output).elements, code)
        except cx.UnparseableConvention:
            pass
    by_k_then_set = sorted(listable.items(), key=lambda item: (len(item[1]), item[0]))
    assert list(cx._listable_sets(BOUND, cfg).items()) == by_k_then_set


def test_negative_bound_is_rejected():
    # K reads the census, which rejects a bound below 0
    with pytest.raises(ValueError):
        cx.kolmogorov("0", -1, CFG)


def test_a_non_bitstring_x_is_rejected():
    # K and sophistication build x's print program first, which refuses it
    with pytest.raises(ValueError, match="not a bitstring"):
        cx.kolmogorov("012", 16, CFG)
    with pytest.raises(ValueError, match="not a bitstring"):
        cx.sophistication("012", 1, 16, CFG)


def test_patterned_strings_are_strictly_cheaper_than_some_plain_string():
    # exhaustive fact at this bound: every 8-bit string costs at most 19,
    # and the all-zero string costs strictly less
    values = {}
    for bits in itertools.product("01", repeat=8):
        x = "".join(bits)
        r = cx.kolmogorov(x, BOUND, CFG)
        assert isinstance(r, cx.ComplexityResult)
        values[x] = r.value
    assert max(values.values()) == 19
    assert values["00000000"] == 16
    assert values["00000000"] < max(values.values())


def test_not_found_carries_the_regime():
    r = cx.kolmogorov("0110100110", 16, CFG)  # aperiodic 10-bit string
    assert isinstance(r, cx.NotFound)
    assert r.search_bound == 16 and r.step_budget == CFG.step_budget


def test_more_steps_never_increase_k():
    tight = tv.MachineConfig(step_budget=24)
    loose = tv.MachineConfig(step_budget=512)
    for x in ("0000", "010101", "0110"):
        r_tight = cx.kolmogorov(x, BOUND, tight)
        r_loose = cx.kolmogorov(x, BOUND, loose)
        if isinstance(r_tight, cx.ComplexityResult):
            assert isinstance(r_loose, cx.ComplexityResult)
            assert r_loose.value <= r_tight.value


def test_counting_bound():
    # at most 2**(k+1) strings can have K <= k (there are not enough programs)
    values = {}
    for n in range(0, 7):
        for bits in itertools.product("01", repeat=n):
            x = "".join(bits)
            r = cx.kolmogorov(x, BOUND, CFG)
            if isinstance(r, cx.ComplexityResult):
                values[x] = r.value
    for k in range(1, BOUND + 1):
        assert sum(1 for v in values.values() if v <= k) <= 2 ** (k + 1)


def test_full_tabulation_at_desk_scale():
    for n in range(1, 7):
        for bits in itertools.product("01", repeat=n):
            assert isinstance(cx.kolmogorov("".join(bits), BOUND, CFG), cx.ComplexityResult)


# -- set listings -------------------------------------------------------------


def test_parse_listing_explicit_and_cube_forms():
    assert cx.parse_listing("001" + "0110").elements == ("01", "10")
    cube = cx.parse_listing("010")
    assert cube.elements == tuple("".join(b) for b in itertools.product("01", repeat=3))
    assert cx.parse_listing("000").elements == ("0", "1")


def test_the_width_field_holds_every_width_up_to_the_max():
    # the field holds w - 1, so no width it holds is past the max
    assert cx.LISTING_MAX_WIDTH == 2**cx.LISTING_WIDTH_FIELD
    fields = [format(v, f"0{cx.LISTING_WIDTH_FIELD}b") for v in range(2**cx.LISTING_WIDTH_FIELD)]
    assert [oracles.listing_width(cx.parse_listing(f)) for f in fields] == list(range(1, cx.LISTING_MAX_WIDTH + 1))


def test_parse_listing_rejections():
    with pytest.raises(cx.UnparseableConvention, match="shorter than the width field"):
        cx.parse_listing("00")
    with pytest.raises(cx.UnparseableConvention, match="not a multiple of the width"):
        cx.parse_listing("001" + "010")
    with pytest.raises(cx.UnparseableConvention, match="duplicate elements"):
        cx.parse_listing("001" + "0101")


def test_render_parse_round_trip():
    listing = cx.SetListing(("110", "001", "010"))
    assert cx.parse_listing(oracles.render_listing(listing)).elements == listing.elements


def test_listing_is_order_insensitive():
    a = cx.SetListing(("01", "10"))
    b = cx.SetListing(("10", "01"))
    assert a == b
    ka = cx.set_complexity(a, BOUND, CFG)
    kb = cx.set_complexity(b, BOUND, CFG)
    assert ka == kb


def test_set_complexity_goldens():
    cube3 = cx.SetListing(tuple("".join(b) for b in itertools.product("01", repeat=3)))
    r = cx.set_complexity(cube3, BOUND, CFG)
    assert isinstance(r, cx.ComplexityResult) and r.value == 14
    # the witness is the program that just quotes the three-bit width field
    replay = tv.run(r.witness_program, CFG, "0" * CFG.rand_budget)
    assert cx.parse_listing(replay.output).elements == cube3.elements
    # all cubes up to width 6 cost the same 14 bits
    for w in range(1, 7):
        cube = cx.SetListing(tuple("".join(b) for b in itertools.product("01", repeat=w)))
        assert cx.set_complexity(cube, BOUND, CFG).value == 14


def test_singleton_overhead_measurement_and_pin():
    diffs = cx.measure_listing_overhead(BOUND, CFG)
    assert diffs == {"1": 6, "0": 5, "01": 5, "000000": 5, "011010": 3}
    assert max(diffs.values()) == cx.LISTING_OVERHEAD == 6


def test_singleton_bound_for_every_tabulated_string():
    # soph_c(x) <= K(x) + overhead once c lets the singleton qualify
    for n in range(1, 7):
        for bits in itertools.product("01", repeat=n):
            x = "".join(bits)
            kx = cx.kolmogorov(x, BOUND, CFG)
            s = cx.sophistication(x, cx.LISTING_OVERHEAD, BOUND, CFG)
            assert isinstance(s, cx.SophisticationResult)
            assert s.value <= kx.value + cx.LISTING_OVERHEAD


def test_sophistication_goldens():
    # aperiodic six-bit string: the full cube qualifies once c >= 3
    r = cx.sophistication("011010", 3, BOUND, CFG)
    assert isinstance(r, cx.SophisticationResult)
    assert r.value == 14 and len(r.witness_set) == 64
    assert isinstance(cx.sophistication("011010", 2, BOUND, CFG), cx.NotFound)
    # compressible strings need more slack before any set qualifies
    r = cx.sophistication("000000", 5, BOUND, CFG)
    assert isinstance(r, cx.SophisticationResult) and r.value == 14
    assert isinstance(cx.sophistication("000000", 4, BOUND, CFG), cx.NotFound)


def test_sophistication_monotone_in_c():
    def level(x, c):
        r = cx.sophistication(x, c, BOUND, CFG)
        return math.inf if isinstance(r, cx.NotFound) else r.value

    for x in ("011010", "000000", "0101", "1"):
        levels = [level(x, c) for c in range(0, 10)]
        for a, b in zip(levels, levels[1:]):
            assert b <= a


def test_sophistication_witness_is_valid():
    r = cx.sophistication("0101", cx.LISTING_OVERHEAD, BOUND, CFG)
    assert isinstance(r, cx.SophisticationResult)
    assert "0101" in r.witness_set
    replay = tv.run(r.witness_program, CFG, "0" * CFG.rand_budget)
    assert cx.parse_listing(replay.output).elements == r.witness_set.elements
    # the defining inequality, in exact arithmetic
    assert (2**r.value) * len(r.witness_set) <= 2 ** (r.k_of_x + cx.LISTING_OVERHEAD)


def test_sophistication_compares_exponents_exactly():
    sets = cx._listable_sets(BOUND, CFG)
    for x in ("1", "0101", "000000", "011010"):
        kx = cx.kolmogorov(x, BOUND, CFG).value
        for c in range(-2, 12):
            costs = [
                len(p)
                for elements, p in sets.items()
                if x in elements and 2 ** len(p) * len(elements) <= 2 ** (kx + c)
            ]
            r = cx.sophistication(x, c, BOUND, CFG)
            got = r.value if isinstance(r, cx.SophisticationResult) else None
            assert got == (min(costs) if costs else None), (x, c)


# every string the listing convention can hold: widths 1..8, and the empty string
LISTABLE_LENGTHS = list(range(cx.LISTING_MAX_WIDTH + 1))
WIDE_CS = list(range(-1, 13))


def strings(lengths):
    return [x for n in lengths for x in map("".join, itertools.product("01", repeat=n))]


def test_sophistication_matches_the_min_over_every_qualifying_set():
    # every (x, c, bound) triple, grouped by the bound whose listers
    # sophistication reads, K(x) + c capped by the bound: taken x by x, the
    # capped reads would rebuild the size-8 census and lister caches
    queries = []
    for bound in (12, 16, 20, 24):
        for x in strings(LISTABLE_LENGTHS):
            kx = cx.kolmogorov(x, bound, CFG)
            k = -1 if isinstance(kx, cx.NotFound) else kx.value
            queries += [(bound, min(bound, max(k + c, 0)), x, c) for c in WIDE_CS]
    for bound, _, x, c in sorted(queries):
        assert cx.sophistication(x, c, bound, CFG) == reference_sophistication(
            x, c, bound, CFG
        ), (x, c, bound)


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_sophistication_matches_the_reference_under_every_oracle_config(cfg):
    for x in strings(LISTABLE_LENGTHS):
        for c in WIDE_CS:
            assert cx.sophistication(x, c, 16, cfg) == reference_sophistication(x, c, 16, cfg), (x, c)


def read_at_the_bound(x, c, bound, cfg):
    """K(x) and soph_c(x) read from the census at the bound itself, with no cap."""
    missing = cx.NotFound(bound, cfg.step_budget)
    witness = tv.census(bound, cfg).witnesses.get(x)
    if witness is None:
        return missing, missing
    k = len(witness)
    hit = cx._first_qualifying(cx._listers(bound, cfg).get(x, ()), k + c)
    kx = cx.ComplexityResult(k, tv.decode(witness), bound, cfg.step_budget)
    if hit is None:
        return kx, missing
    k_s, _, elements, code = hit
    return kx, cx.SophisticationResult(
        k_s, cx.SetListing(elements), tv.decode(code), k, bound, cfg.step_budget
    )


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS)
def test_capped_searches_match_the_census_at_the_bound(cfg):
    # K(x) reads the census at |P_x| when its print program P_x prints x, and
    # sophistication reads the listers at K(x) + c; each answer must be the
    # one the census at the requested bound gives
    unprinted = 0
    for bound in range(23):
        for x in strings(range(8)):
            printer = tv.from_body(tv.QUOTE + x)
            if len(printer) < bound:
                unprinted += tv.run(printer, cfg, "0" * cfg.rand_budget).output != x
            for c in (0, 2, 5, 9):
                kx, soph = read_at_the_bound(x, c, bound, cfg)
                assert cx.kolmogorov(x, bound, cfg) == kx, (x, bound)
                assert cx.sophistication(x, c, bound, cfg) == soph, (x, c, bound)
    # P_x emits |x| bits after one step, so short budgets leave the search uncapped
    assert (unprinted > 0) == (min(cfg.step_budget - 1, cfg.output_budget) < 7)


def test_a_table_reads_the_one_census_at_its_bound():
    # a per-row cap would build the census at each print program's length too
    for cache in (tv.census, cx._listable_sets, cx._listers):
        cache.cache_clear()
    cx.tabulate([0, 1, 2, 3], [0, 5], 20, CFG)
    assert tv.census.cache_info().currsize == 1


@pytest.mark.parametrize("bound", [16, 24])
def test_tabulate_rows_match_the_reference_rows(bound):
    rows = cx.tabulate(LISTABLE_LENGTHS, WIDE_CS, bound, CFG)
    assert rows == [reference_row(x, WIDE_CS, bound, CFG) for x in strings(LISTABLE_LENGTHS)]


def test_each_string_lists_the_sets_holding_it_in_the_listable_order():
    sets = cx._listable_sets(24, CFG)
    index = cx._listers(24, CFG)
    assert sum(map(len, index.values())) == sum(map(len, sets))
    for x, entries in index.items():
        holding = [(len(p), (len(e) - 1).bit_length(), e, p) for e, p in sets.items() if x in e]
        assert entries == holding


def test_the_lister_scan_stops_at_the_first_set_past_the_budget():
    def entries():
        yield (5, 3, None, None)  # 5 + 3 > 7
        yield (8, 0, None, None)  # K(S) = 8 > 7: the scan stops here
        raise AssertionError("read past the budget")

    assert cx._first_qualifying(entries(), 7) is None
    assert cx._first_qualifying(entries(), 8) == (5, 3, None, None)


def test_sophistication_takes_any_c():
    # 2**(K(x) + 10**12) alone would be a 125 GB integer
    expected = cx.sophistication("0101", 64, BOUND, CFG)
    start = time.perf_counter()
    assert cx.sophistication("0101", 10**12, BOUND, CFG) == expected
    assert time.perf_counter() - start < 1.0


def test_random_strings_are_unsophisticated():
    # the whole cube is the witness for incompressible strings
    for x in ("011010", "110100", "100101"):
        assert cx.kolmogorov(x, BOUND, CFG).value == 17
        r = cx.sophistication(x, 3, BOUND, CFG)
        assert isinstance(r, cx.SophisticationResult)
        assert r.value == 14 and len(r.witness_set) == 64


def test_tabulate_rows():
    rows = cx.tabulate([2], [5, 6], BOUND, CFG)
    assert [r["x"] for r in rows] == ["00", "01", "10", "11"]
    for row in rows:
        assert row["k"] is not None
        assert row["soph_6"] is not None
        assert row["soph_6"] <= row["soph_5"] if row["soph_5"] is not None else True
