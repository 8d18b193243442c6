"""Small quantitative set pieces: nonlocal games, anthropic rooms, a
predictor's two boxes, and the micro/macro causal-arrow discipline.

Everything classical here is exact rational arithmetic; only the quantum
measurement angles use floats.  The quantum CHSH value is float arithmetic
on the four nonzero entries of the Bell pair's density matrix, so no gadget
loads `numpy`.
"""

from __future__ import annotations

import collections
import graphlib
import itertools
import math
from fractions import Fraction

from .errors import KnightianError
from .record import Record


# -- CHSH --------------------------------------------------------------------------


class ClassicalChshResult(Record):
    value: Fraction
    witness: tuple[tuple[int, int], tuple[int, int]]  # Alice's and Bob's tables
    table: tuple[dict, ...]  # all 16 deterministic strategies with values


def chsh_classical_optimum() -> ClassicalChshResult:
    """Exhaustive search over deterministic strategy pairs.

    Randomized strategies are convex mixtures of these sixteen, so the
    deterministic optimum is the optimum outright.  Winning means
    a XOR b = x AND y for uniformly random input bits x, y.
    """
    rows = []
    for a0, a1, b0, b1 in itertools.product((0, 1), repeat=4):
        wins = 0
        for x, y in itertools.product((0, 1), repeat=2):
            a = a0 if x == 0 else a1
            b = b0 if y == 0 else b1
            if (a + b) % 2 == (x & y):
                wins += 1
        rows.append({"alice": (a0, a1), "bob": (b0, b1), "value": Fraction(wins, 4)})
    best = max(rows, key=lambda row: row["value"])  # the first maximum
    return ClassicalChshResult(best["value"], (best["alice"], best["bob"]), tuple(rows))


# R, each of the four nonzero entries (the corners) of the Bell pair's density matrix
_BELL_CORNER = (1 / math.sqrt(2)) ** 2


def _about_axis(theta: float, outcome: int) -> tuple[float, float]:
    """Unit vector u of the rank-1 projector u u^T for measuring along angle theta in the X-Z plane."""
    if outcome == 1:
        return -math.sin(theta), math.cos(theta)
    return math.cos(theta), math.sin(theta)


def _fused(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as a fused multiply-add rounds it."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def chsh_quantum_value(
    alice_angles: tuple[float, float], bob_angles: tuple[float, float]
) -> float:
    """Win probability for measurement-angle strategies on the Bell pair.

    Angles live in the X-Z plane, which suffices for the optimum.  The
    probability for each (x, y) sums Tr(P rho) over the product projectors
    P = kron(u u^T, v v^T) of the winning outcomes, with rho the Bell pair's
    density matrix.  Only rho's four corners are nonzero, each R, so
    Tr(P rho) = (P00 R + P03 R) + (P30 R + P33 R), and each corner of P is a
    product of products, e.g. P03 = (u0 u1)(v0 v1), which equals P30.

    The second term of each pair is added with one rounding, by a fused
    multiply-add, because the BLAS matrix product that this value was first
    computed with adds it so.  Summed the same way, every value, and so every
    report, keeps the same bits; rounded twice, about one value in seven
    would move by one to three ulps.
    """
    r = _BELL_CORNER
    total = 0.0
    for x, y in itertools.product((0, 1), repeat=2):
        win = 0.0
        for a, b in itertools.product((0, 1), repeat=2):
            if (a + b) % 2 != (x & y):
                continue
            (u0, u1), (v0, v1) = _about_axis(alice_angles[x], a), _about_axis(bob_angles[y], b)
            p00, p03, p33 = (u0 * u0) * (v0 * v0), (u0 * u1) * (v0 * v1), (u1 * u1) * (v1 * v1)
            win += _fused(p03, r, p00 * r) + _fused(p33, r, p03 * r)
        total += win
    return total / 4


CHSH_OPTIMAL_ALICE = (0.0, math.pi / 4)
CHSH_OPTIMAL_BOB = (math.pi / 8, -math.pi / 8)


# -- anthropic rooms ----------------------------------------------------------------


class NoMatchingRoom(KnightianError):
    pass


class RoomPuzzle(Record):
    prior_heads: Fraction
    copies_if_heads: int
    copies_if_tails: int
    heads_colors: tuple[str, ...]
    tails_colors: tuple[str, ...]
    observed_color: str
    counting_rule: str = "copy-weighted"

    def __post_init__(self):
        # each message names the fields at fault, which are also the CLI's keys
        for branch, copies, colors in (
            ("heads", self.copies_if_heads, self.heads_colors),
            ("tails", self.copies_if_tails, self.tails_colors),
        ):
            if len(colors) != copies:
                raise ValueError(
                    f"'{branch}_colors' lists {len(colors)} rooms, "
                    f"but 'copies_if_{branch}' is {copies}"
                )
            if copies < 1:
                raise ValueError(f"'copies_if_{branch}' must be at least 1, got {copies}")
        if not (0 <= self.prior_heads <= 1):
            raise ValueError(f"'prior_heads' = {self.prior_heads} must be a probability")
        if self.counting_rule not in ("copy-weighted", "branch-weighted"):
            raise ValueError(
                "'counting_rule' must be 'copy-weighted' or 'branch-weighted', "
                f"got {self.counting_rule!r}"
            )
        if (
            self.observed_color not in self.heads_colors
            and self.observed_color not in self.tails_colors
        ):
            raise NoMatchingRoom(
                f"'observed_color' {self.observed_color!r} appears in neither branch"
            )


class RoomPosterior(Record):
    copy_weighted: Fraction
    branch_weighted: Fraction
    primary: Fraction  # per the puzzle's counting_rule


def bostrom_posterior(puzzle: RoomPuzzle) -> RoomPosterior:
    """Posterior of heads given the observed room color, both counting rules.

    copy-weighted: you are a uniformly random copy within the branch, so the
    branch likelihood is the fraction of its rooms in the observed color.
    branch-weighted: waking in *some* matching room is all that counts, so
    the likelihood is the bare indicator that the color occurs.  The two
    rules answer the puzzles differently; both are reported.
    """

    def posterior(lik_heads: Fraction, lik_tails: Fraction) -> Fraction:
        num = puzzle.prior_heads * lik_heads
        den = num + (1 - puzzle.prior_heads) * lik_tails
        if den == 0:
            raise NoMatchingRoom(
                f"'observed_color' {puzzle.observed_color!r} has probability 0 "
                f"under 'prior_heads' = {puzzle.prior_heads}"
            )
        return num / den

    copy = posterior(
        Fraction(puzzle.heads_colors.count(puzzle.observed_color), puzzle.copies_if_heads),
        Fraction(puzzle.tails_colors.count(puzzle.observed_color), puzzle.copies_if_tails),
    )
    branch = posterior(
        Fraction(1 if puzzle.observed_color in puzzle.heads_colors else 0),
        Fraction(1 if puzzle.observed_color in puzzle.tails_colors else 0),
    )
    primary = copy if puzzle.counting_rule == "copy-weighted" else branch
    return RoomPosterior(copy, branch, primary)


def bostrom_variant_one() -> RoomPuzzle:
    """Fair coin; heads: a thousand white rooms, tails: one white room."""
    return RoomPuzzle(
        Fraction(1, 2), 1000, 1, ("white",) * 1000, ("white",), "white"
    )


def bostrom_variant_two() -> RoomPuzzle:
    """Fair coin; heads: 999 blue rooms and one white, tails: one white room."""
    return RoomPuzzle(
        Fraction(1, 2), 1000, 1, ("blue",) * 999 + ("white",), ("white",), "white"
    )


# -- the predictor's boxes -----------------------------------------------------------


# the opaque and the transparent box as Nozick (1969) states the problem
BOX_ONE, BOX_TWO = 1_000_000, 1_000


def newcomb_expected(
    policy: str,
    accuracy: Fraction,
    box_one: int = BOX_ONE,
    box_two: int = BOX_TWO,
) -> Fraction:
    """Expected takings against a predictor of the given accuracy.

    The opaque box is filled exactly when the predictor foresaw one-boxing.
    """
    if not (0 <= accuracy <= 1):
        raise ValueError(f"'accuracy' = {accuracy} must be a probability")
    if policy == "one-box":
        return accuracy * box_one
    if policy == "two-box":
        return (1 - accuracy) * box_one + box_two
    raise ValueError(f"'policy' must be 'one-box' or 'two-box', got {policy!r}")


def newcomb_crossover(box_one: int = BOX_ONE, box_two: int = BOX_TWO) -> Fraction:
    """Predictor accuracy at which one-boxing starts to pay."""
    if box_one <= 0:
        raise ValueError(f"'box_one' must be positive, got {box_one}")
    return Fraction(box_one + box_two, 2 * box_one)


# -- causal-arrow discipline ----------------------------------------------------------


class MalformedGraph(KnightianError):
    pass


class CausalNode(Record):
    id: str
    kind: str  # "micro" | "macro"
    time: int

    def __post_init__(self):
        if self.kind not in ("micro", "macro"):
            raise MalformedGraph(f"node kind must be micro or macro, got {self.kind!r}")


class CausalGraph(Record):
    nodes: tuple[CausalNode, ...]
    edges: tuple[tuple[str, str], ...]  # (cause id, effect id)

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise MalformedGraph("duplicate node ids")
        known = set(ids)
        for c, e in self.edges:
            check_edge(c, e, known)


def check_edge(cause: str, effect: str, known: set[str]) -> None:
    for node in (cause, effect):
        if node not in known:
            raise MalformedGraph(f"edge ({cause!r}, {effect!r}): {node!r} is not an 'id' in 'nodes'")


class Violation(Record):
    rule: str  # "R1" | "R2" | "R3"
    subject: tuple
    message: str


def causal_validate(
    graph: CausalGraph, check_disjoint_macro: bool = True
) -> list[Violation]:
    """All rule violations; an empty list means the graph is admissible.

    R1: a non-forward arrow (cause not strictly earlier than effect) may
        point only at a micro node.  Simultaneous arrows count as
        non-forward: causation "forward in time" means strictly forward,
        and without that reading two same-instant nodes could validate a
        cycle.
    R2: a micro node receiving a non-forward arrow is a dead end — it may
        have no other incident edge of any kind (no double duty).  A
        self-loop is non-forward and also an edge leaving its node, so a
        micro node with one breaks R2.
    R3 (conservative reading, can be switched off): a micro node may have at
        most one outgoing edge to the macro layer, since two macro effects
        would amount to two independent amplifications of one unmeasured
        fact.

    One pass over the edges gathers what the rules read, so the check is
    linear in nodes plus edges.  R1 comes in edge order, then R2 and R3 in
    node order, so no report hangs on set order.
    """
    violations = []
    nodes = {n.id: n for n in graph.nodes}
    # touched: the nodes met by some edge other than a non-forward arrow into them
    backward_into, touched, macro_out = set(), set(), collections.Counter()
    for c, e in graph.edges:
        head = nodes[e]
        touched.add(c)  # every edge leaves its tail, a self-loop's included
        if nodes[c].time < head.time:
            touched.add(e)
        else:
            backward_into.add(e)
            if head.kind != "micro":
                violations.append(Violation("R1", (c, e), "non-forward arrow points at a macro node"))
        if head.kind == "macro":
            macro_out[c] += 1
    for n in graph.nodes:  # a macro node caused from its future is already an R1 violation
        if n.kind == "micro" and n.id in backward_into and n.id in touched:
            violations.append(
                Violation("R2", (n.id,), "micro node caused from its future also touches other edges")
            )
    if check_disjoint_macro:
        for n in graph.nodes:
            if n.kind == "micro" and macro_out[n.id] > 1:
                violations.append(
                    Violation("R3", (n.id,), "micro node feeds two macro nodes over disjoint pathways")
                )
    return violations


def acyclicity_check(graph: CausalGraph) -> bool:
    """True iff the graph has no directed cycle, self-loops included (graphlib's topological sort)."""
    sorter = graphlib.TopologicalSorter()
    for c, e in graph.edges:
        sorter.add(e, c)
    try:
        sorter.prepare()
    except graphlib.CycleError:
        return False
    return True
