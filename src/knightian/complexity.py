"""Desk-scale description complexity over the toy machine.

K(x) is the length of the shortest deterministic program that halts with
output exactly x, searched exhaustively over all programs up to a stated
length bound.  The bound and step budget are part of every result: these are
time-bounded, machine-relative numbers, never quotable without their regime.

The witnesses come from toyvm.census, the one run of the enumerated class
that the mixture and Omega read too.  A witness there is a code, so K(x) is
its length, and a Program is decoded only for a result that is returned.
Deterministic means the run halts without executing RAND.  That picks the
same shortest, lex-first witnesses as a static scan for RAND: jumps go back
at most one instruction, so the instructions a run never executes form a
suffix of the body, and cutting it off gives a strictly shorter program with
the same run.

A census at a smaller bound holds the same witness for every output whose
shortest program fits it, so a search reads the smallest census that can
answer it.  The print program P_x = QUOTE x bounds K(x) by |P_x| whenever it
prints x under the budgets (Li and Vitanyi, An Introduction to Kolmogorov
Complexity, ch. 3), so kolmogorov stops there; sophistication reads the
listers at K(x) + c, past which no set qualifies; tabulate reads the one
census at its bound for every row.  Every result still carries the bound
that was asked for.

Set-listing convention ("fixed in docs"): a program *lists* a set of
equal-length strings by emitting

    [3-bit width field, w-1] [k * w element bits, all k pieces distinct]

with w in 1..8.  An empty element block denotes the complete set {0,1}^w —
the canonical maximal-entropy set, kept cheap on purpose so that the cost of
naming "all w-bit strings" scales with w and not with 2**w.

Sophistication: soph_c(x) is the least K(S) over listable sets S containing
x with K(S) + log2|S| <= K(x) + c (Koppel's, in the form of Antunes and
Fortnow).  The inequality is evaluated exactly, on exponents:
(|S| - 1).bit_length() <= K(x) + c - K(S) holds exactly when
2**K(S) * |S| <= 2**(K(x) + c), and builds neither power, so any c is cheap.
It is read from an inverted index, built once per (bound, cfg), that maps
each string to the listable sets holding it in (K(S), set) order: those sets
are a subsequence of the full order, so the first of them that qualifies is
the least K(S) with the same witness, and a row of the table reads K(x) and
x's listers once for all its values of c.  The index holds each set as its
sorted elements, read off each witness output by the one listing rule that
parse_listing applies too; sophistication builds the SetListing of the one
set it reports.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import toyvm
from .errors import KnightianError
from .record import Record
from .toyvm import LimitExceeded, MachineConfig, Program

LISTING_WIDTH_FIELD = 3
LISTING_MAX_WIDTH = 8

#: Largest observed K({x}) - K(x) over the frozen measurement singletons;
#: see measure_listing_overhead.  Whenever c >= this constant the singleton
#: {x} qualifies for the sophistication search, so soph_c(x) <= K(x) + it.
LISTING_OVERHEAD = 6

#: The singletons the overhead constant was measured on.
OVERHEAD_MEASUREMENT_SET = ("1", "0", "01", "000000", "011010")

#: Longest string length tabulate accepts: it lists all 2**n strings of each
#: length n.  One length of 16 at bound 24 with 10 values of c takes 0.14-0.17 s
#: on a 2-core Xeon VM from cold caches, the census 0.014-0.018 s of it; the rest
#: is one K(x) lookup and one row a string, as no listable set (width at most
#: 8) holds a string of length 16.
TABLE_GUARD = 16

#: Most cells a whole table may hold: rows times (len(cs) + 1), a K column and
#: one per value of c, with repeated lengths and values counted, as the CSV
#: writes them.  One length of 16 with 15 values of c at bound 24 is 2**20
#: cells; through the CLI on a 2-core Xeon VM it takes 1.3-1.7 s at 204 MiB
#: peak RSS for the JSON report (27 MiB), and 0.5 s at 64 MiB for the CSV.
CELLS_GUARD = 2**20


class UnparseableConvention(KnightianError):
    """Bits do not follow the set-listing output convention."""


class ComplexityResult(Record):
    value: int
    witness_program: Program
    search_bound: int
    step_budget: int


class NotFound(Record):
    search_bound: int
    step_budget: int


class SetListing(Record):
    """A nonempty set of equal-length bitstrings, canonically sorted."""

    elements: tuple[str, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("'elements' must be nonempty")
        canon = tuple(sorted(set(self.elements)))
        if canon != self.elements:
            object.__setattr__(self, "elements", canon)
        width = len(self.elements[0])
        if any(len(e) != width for e in self.elements):
            raise ValueError("'elements' must share one length")
        for e in self.elements:
            if not all(c in "01" for c in e):
                raise ValueError(f"not a bitstring: {e!r}")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: str) -> bool:
        return x in self.elements


def parse_listing(bits: str) -> SetListing:
    """Decode an output under the set-listing convention."""
    elements = _listed(bits)
    if isinstance(elements, str):
        raise UnparseableConvention(elements)
    return SetListing(elements)


def _listed(bits: str) -> tuple[str, ...] | str:
    """The sorted elements bits list under the convention, or why they list none.

    The width field holds w - 1, so w is at most LISTING_MAX_WIDTH.
    """
    if len(bits) < LISTING_WIDTH_FIELD:
        return "shorter than the width field"
    width = int(bits[:LISTING_WIDTH_FIELD], 2) + 1
    rest = bits[LISTING_WIDTH_FIELD:]
    if not rest:
        return tuple(map("".join, itertools.product("01", repeat=width)))
    if len(rest) % width != 0:
        return "element block not a multiple of the width"
    pieces = {rest[i : i + width] for i in range(0, len(rest), width)}
    if len(pieces) != len(rest) // width:
        return "duplicate elements in listing"
    return tuple(sorted(pieces))


def kolmogorov(
    x: str, bound: int, cfg: MachineConfig = MachineConfig()
) -> ComplexityResult | NotFound:
    """Shortest deterministic program halting with output exactly x.

    When the print program P_x = QUOTE x prints x under cfg, K(x) <= |P_x|,
    so the census at |P_x| holds the same witness as the one at the bound.
    An out-of-range bound is never capped: its census rejects it.
    """
    printer = toyvm.from_body(toyvm.QUOTE + x)
    search = bound
    if (
        len(printer) < bound <= toyvm.ENUMERATION_GUARD
        and toyvm.run(printer, cfg, "0" * cfg.rand_budget).output == x
    ):
        search = len(printer)
    return _result(toyvm.census(search, cfg).witnesses.get(x), bound, cfg)


def _result(witness: str | None, bound: int, cfg: MachineConfig) -> ComplexityResult | NotFound:
    if witness is None:
        return NotFound(bound, cfg.step_budget)
    return ComplexityResult(len(witness), toyvm.decode(witness), bound, cfg.step_budget)


@lru_cache(maxsize=8)
def _listable_sets(bound: int, cfg: MachineConfig) -> dict[tuple[str, ...], str]:
    """Every parseable set reachable at the bound with its shortest lister's code.

    A set is its sorted elements.  Sorted by (K(S), set), the order the lister
    index keeps.
    """
    table: dict[tuple[str, ...], str] = {}
    for output, code in toyvm.census(bound, cfg).witnesses.items():
        elements = _listed(output)
        if not isinstance(elements, str):
            table.setdefault(elements, code)
    return dict(sorted(table.items(), key=lambda item: (len(item[1]), item[0])))


#: An index entry: (K(S), (|S| - 1).bit_length(), S's elements, its shortest lister's code).
Lister = tuple[int, int, tuple[str, ...], str]


@lru_cache(maxsize=8)
def _listers(bound: int, cfg: MachineConfig) -> dict[str, list[Lister]]:
    """Each string to the listable sets that hold it, in (K(S), set) order."""
    index: dict[str, list[Lister]] = {}
    for elements, code in _listable_sets(bound, cfg).items():
        entry = (len(code), (len(elements) - 1).bit_length(), elements, code)
        for x in elements:
            index.setdefault(x, []).append(entry)
    return index


def _first_qualifying(entries, budget: int) -> Lister | None:
    """The first entry with K(S) + exponent <= budget, or None.

    Stops at the first entry with K(S) > budget: no later one, with K(S) as
    large or larger, can qualify.
    """
    for entry in entries:
        k_s, exponent, _, _ = entry
        if k_s > budget:
            return None
        if exponent <= budget - k_s:
            return entry
    return None


def set_complexity(
    s: SetListing, bound: int, cfg: MachineConfig = MachineConfig()
) -> ComplexityResult | NotFound:
    """Shortest deterministic program whose parsed output equals s as a set."""
    return _result(_listable_sets(bound, cfg).get(s.elements), bound, cfg)


class SophisticationResult(Record):
    value: int
    witness_set: SetListing
    witness_program: Program
    k_of_x: int
    search_bound: int
    step_budget: int


def sophistication(
    x: str, c: int, bound: int, cfg: MachineConfig = MachineConfig()
) -> SophisticationResult | NotFound:
    """Least K(S) over listable S containing x with K(S) + log2|S| <= K(x) + c.

    The witness is the first of x's listers, in (K(S), set) order, that
    qualifies.  No set with K(S) > K(x) + c qualifies, so the listers are
    read at that bound when it is the smaller.
    """
    kx = kolmogorov(x, bound, cfg)
    if isinstance(kx, NotFound):
        return kx
    budget = kx.value + c
    listers = _listers(min(bound, max(budget, 0)), cfg)
    hit = _first_qualifying(listers.get(x, ()), budget)
    if hit is None:
        return NotFound(bound, cfg.step_budget)
    k_s, _, elements, code = hit
    return SophisticationResult(
        k_s, SetListing(elements), toyvm.decode(code), kx.value, bound, cfg.step_budget
    )


def measure_listing_overhead(
    bound: int = 20, cfg: MachineConfig = MachineConfig()
) -> dict[str, int]:
    """K({x}) - K(x) on the frozen measurement singletons.

    The pinned LISTING_OVERHEAD constant is the maximum of these.
    """
    diffs = {}
    for x in OVERHEAD_MEASUREMENT_SET:
        kx = kolmogorov(x, bound, cfg)
        ks = set_complexity(SetListing((x,)), bound, cfg)
        if isinstance(kx, NotFound) or isinstance(ks, NotFound):
            raise KnightianError(f"measurement singleton {x!r} out of range")
        diffs[x] = ks.value - kx.value
    return diffs


def tabulate(
    lengths: list[int],
    cs: list[int],
    bound: int,
    cfg: MachineConfig = MachineConfig(),
) -> list[dict]:
    """Rows of x, K(x), and soph_c(x) for each requested c, for all x.

    Each row reads K(x) and x's listers once from the one census at the
    bound, then takes the first qualifying lister for each c, as
    sophistication does.
    """
    for n in lengths:
        if not 0 <= n <= TABLE_GUARD:
            raise LimitExceeded(f"'lengths' holds {n}; each must lie in [0, {TABLE_GUARD}]")
    cells = sum(2**n for n in lengths) * (len(cs) + 1)
    if cells > CELLS_GUARD:
        raise LimitExceeded(
            f"'lengths' and 'cs' ask for {cells} cells, rows x (len(cs) + 1), more than {CELLS_GUARD}"
        )
    index = _listers(bound, cfg)
    witnesses = toyvm.census(bound, cfg).witnesses
    columns = {c: f"soph_{c}" for c in cs}
    rows = []
    for n in lengths:
        for tup in itertools.product("01", repeat=n):
            x = "".join(tup)
            witness = witnesses.get(x)
            if witness is None:
                rows.append({"x": x, "k": None, **dict.fromkeys(columns.values())})
                continue
            kx = len(witness)
            entries = index.get(x, ())
            row: dict = {"x": x, "k": kx}
            for c, column in columns.items():
                hit = _first_qualifying(entries, kx + c)
                row[column] = None if hit is None else hit[0]
            rows.append(row)
    return rows
