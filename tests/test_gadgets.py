import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from knightian import gadgets as gd
from oracles import reference_causal_validate, reference_chsh_quantum_value

F = Fraction


# -- CHSH ---------------------------------------------------------------------


def test_classical_optimum_is_three_quarters():
    result = gd.chsh_classical_optimum()
    assert result.value == F(3, 4)
    assert result.witness == ((0, 0), (0, 0))


def test_classical_table_is_complete_and_bounded():
    result = gd.chsh_classical_optimum()
    assert len(result.table) == 16
    values = [row["value"] for row in result.table]
    assert min(values) == F(1, 4)
    assert max(values) == F(3, 4)
    # constant all-zero row wins
    first = result.table[0]
    assert first["alice"] == (0, 0) and first["bob"] == (0, 0)
    assert first["value"] == F(3, 4)


def test_classical_table_golden():
    # the full exhaustive table, frozen
    rows = [
        (row["alice"], row["bob"], row["value"])
        for row in gd.chsh_classical_optimum().table
    ]
    assert rows == [
        ((0, 0), (0, 0), F(3, 4)),
        ((0, 0), (0, 1), F(3, 4)),
        ((0, 0), (1, 0), F(1, 4)),
        ((0, 0), (1, 1), F(1, 4)),
        ((0, 1), (0, 0), F(3, 4)),
        ((0, 1), (0, 1), F(1, 4)),
        ((0, 1), (1, 0), F(3, 4)),
        ((0, 1), (1, 1), F(1, 4)),
        ((1, 0), (0, 0), F(1, 4)),
        ((1, 0), (0, 1), F(3, 4)),
        ((1, 0), (1, 0), F(1, 4)),
        ((1, 0), (1, 1), F(3, 4)),
        ((1, 1), (0, 0), F(1, 4)),
        ((1, 1), (0, 1), F(1, 4)),
        ((1, 1), (1, 0), F(3, 4)),
        ((1, 1), (1, 1), F(3, 4)),
    ]


def test_quantum_value_at_optimal_angles():
    value = gd.chsh_quantum_value(gd.CHSH_OPTIMAL_ALICE, gd.CHSH_OPTIMAL_BOB)
    assert value == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-9)
    assert value > 0.75 + 0.10  # a genuine Bell violation


def test_quantum_equal_angles_match_classical_bound():
    for theta in (0.0, 0.3, 1.1):
        value = gd.chsh_quantum_value((theta, theta), (theta, theta))
        assert value == pytest.approx(0.75, abs=1e-9)


@settings(max_examples=40)
@given(st.floats(-math.pi, math.pi))
def test_quantum_value_is_shift_invariant(shift):
    base = gd.chsh_quantum_value(gd.CHSH_OPTIMAL_ALICE, gd.CHSH_OPTIMAL_BOB)
    shifted = gd.chsh_quantum_value(
        tuple(a + shift for a in gd.CHSH_OPTIMAL_ALICE),
        tuple(b + shift for b in gd.CHSH_OPTIMAL_BOB),
    )
    assert shifted == pytest.approx(base, abs=1e-9)


def test_quantum_value_is_the_matrix_products_value_bit_for_bit():
    # == on floats: the value in plain floats adds the same terms, each pair
    # with the one rounding of the matrix product's fused multiply-add
    rng = random.Random(34)
    draws = [
        tuple(tuple(rng.uniform(-scale, scale) for _ in range(2)) for _ in range(2))
        for scale in (1.0, math.pi, 10.0, 1e3, 1e8)
        for _ in range(500)
    ]
    draws += [(gd.CHSH_OPTIMAL_ALICE, gd.CHSH_OPTIMAL_BOB), ((0.2, 0.2), (0.2, 0.2)), ((0.0, -0.0), (0.0, math.pi))]
    for alice, bob in draws:
        assert gd.chsh_quantum_value(alice, bob) == reference_chsh_quantum_value(alice, bob), (alice, bob)


# -- rooms ----------------------------------------------------------------------


def test_variant_one_copy_weighted_is_even():
    post = gd.bostrom_posterior(gd.bostrom_variant_one())
    assert post.copy_weighted == F(1, 2)
    assert post.branch_weighted == F(1, 2)


def test_variant_two_copy_weighted_is_heavily_tails():
    post = gd.bostrom_posterior(gd.bostrom_variant_two())
    assert post.copy_weighted == F(1, 1001)
    assert post.branch_weighted == F(1, 2)


def test_posteriors_are_coherent():
    for puzzle in (gd.bostrom_variant_one(), gd.bostrom_variant_two()):
        post = gd.bostrom_posterior(puzzle)
        flipped = gd.RoomPuzzle(
            1 - puzzle.prior_heads,
            puzzle.copies_if_tails,
            puzzle.copies_if_heads,
            puzzle.tails_colors,
            puzzle.heads_colors,
            puzzle.observed_color,
            puzzle.counting_rule,
        )
        other = gd.bostrom_posterior(flipped)
        assert post.copy_weighted + other.copy_weighted == 1


def test_certain_prior_stays_certain():
    puzzle = gd.RoomPuzzle(
        F(1), 1000, 1, ("blue",) * 999 + ("white",), ("white",), "white"
    )
    post = gd.bostrom_posterior(puzzle)
    assert post.copy_weighted == 1 and post.branch_weighted == 1


def test_unseen_color_is_rejected():
    with pytest.raises(gd.NoMatchingRoom):
        gd.RoomPuzzle(F(1, 2), 1, 1, ("blue",), ("blue",), "green")


def test_blue_observation_flips_variant_two():
    puzzle = gd.RoomPuzzle(
        F(1, 2), 1000, 1, ("blue",) * 999 + ("white",), ("white",), "blue"
    )
    post = gd.bostrom_posterior(puzzle)
    assert post.copy_weighted == 1  # tails has no blue rooms at all
    assert post.branch_weighted == 1


# -- boxes ----------------------------------------------------------------------


def test_perfect_predictor_payoffs():
    assert gd.newcomb_expected("one-box", F(1)) == 1_000_000
    assert gd.newcomb_expected("two-box", F(1)) == 1_000


def test_coin_flip_predictor_payoffs():
    assert gd.newcomb_expected("one-box", F(1, 2)) == 500_000
    assert gd.newcomb_expected("two-box", F(1, 2)) == 501_000


def test_crossover_accuracy():
    crossover = gd.newcomb_crossover()
    assert crossover == F(1001, 2000)
    assert float(crossover) == 0.5005
    assert gd.newcomb_expected("one-box", crossover) == gd.newcomb_expected(
        "two-box", crossover
    )
    assert gd.newcomb_expected("one-box", crossover) == F(500_500)


def test_newcomb_validation():
    with pytest.raises(ValueError):
        gd.newcomb_expected("three-box", F(1, 2))
    with pytest.raises(ValueError):
        gd.newcomb_expected("one-box", F(3, 2))


# -- causal rules -----------------------------------------------------------------


def node(nid, kind, time):
    return gd.CausalNode(nid, kind, time)


def test_forward_macro_chain_is_admissible():
    g = gd.CausalGraph(
        (node("a", "macro", 0), node("b", "macro", 1), node("c", "macro", 2)),
        (("a", "b"), ("b", "c")),
    )
    assert gd.causal_validate(g) == []
    assert gd.acyclicity_check(g)


def test_backward_arrow_into_macro_violates_r1():
    g = gd.CausalGraph(
        (node("a", "macro", 0), node("b", "macro", 1)), (("b", "a"),)
    )
    assert [v.rule for v in gd.causal_validate(g)] == ["R1"]


def test_dangling_backward_arrow_into_micro_is_fine():
    g = gd.CausalGraph(
        (node("f", "micro", 0), node("F", "macro", 1)), (("F", "f"),)
    )
    assert gd.causal_validate(g) == []


def test_double_duty_micro_violates_r2():
    g = gd.CausalGraph(
        (node("f", "micro", 0), node("F", "macro", 1), node("G", "macro", 2)),
        (("F", "f"), ("f", "G")),
    )
    assert "R2" in [v.rule for v in gd.causal_validate(g)]
    # a self-loop is non-forward and also an edge leaving its node
    loop = gd.CausalGraph((node("f", "micro", 0),), (("f", "f"),))
    assert gd.causal_validate(loop) == [
        gd.Violation("R2", ("f",), "micro node caused from its future also touches other edges")
    ]


def test_r2_violations_come_in_node_order():
    # each of a and b is caused from its future and touches other edges
    a, b, c = node("a", "micro", 1), node("b", "micro", 1), node("c", "macro", 0)
    edges = (("a", "b"), ("b", "a"), ("c", "a"), ("c", "b"))
    for nodes in ((a, b, c), (b, c, a), (c, b, a)):
        found = gd.causal_validate(gd.CausalGraph(nodes, edges))
        assert [v.subject for v in found] == [(n.id,) for n in nodes if n.kind == "micro"]


def test_two_macro_amplifications_violate_r3():
    g = gd.CausalGraph(
        (node("f", "micro", 0), node("F", "macro", 1), node("G", "macro", 2)),
        (("f", "F"), ("f", "G")),
    )
    assert [v.rule for v in gd.causal_validate(g)] == ["R3"]
    assert gd.causal_validate(g, check_disjoint_macro=False) == []


def test_acyclicity_basics():
    empty = gd.CausalGraph((), ())
    assert gd.acyclicity_check(empty)
    two = gd.CausalGraph(
        (node("a", "macro", 0), node("b", "macro", 0)), (("a", "b"), ("b", "a"))
    )
    assert not gd.acyclicity_check(two)


def test_simultaneous_macro_cycle_is_caught_by_validation():
    # same-instant arrows are non-forward: without that reading this cycle
    # would validate
    two = gd.CausalGraph(
        (node("a", "macro", 0), node("b", "macro", 0)), (("a", "b"), ("b", "a"))
    )
    assert [v.rule for v in gd.causal_validate(two)] == ["R1", "R1"]


def test_malformed_graphs():
    with pytest.raises(gd.MalformedGraph):
        gd.CausalGraph((node("a", "macro", 0), node("a", "macro", 1)), ())
    with pytest.raises(gd.MalformedGraph):
        gd.CausalGraph((node("a", "macro", 0),), (("a", "missing"),))
    with pytest.raises(gd.MalformedGraph):
        node("a", "meso", 0)


def random_multigraph(rng: random.Random, self_loops: bool) -> gd.CausalGraph:
    """1 to 9 nodes over few times, so equal times are common; edges drawn with
    replacement, so repeated edges are too, and self-loops only when asked."""
    n = rng.randint(1, 9)
    nodes = tuple(
        gd.CausalNode(f"n{i}", rng.choice(("micro", "macro")), rng.randint(0, 3)) for i in range(n)
    )
    pairs = [(c, e) for c in range(n) for e in range(n) if self_loops or c != e]
    edges = tuple((f"n{c}", f"n{e}") for c, e in rng.choices(pairs, k=rng.randint(0, 14) if pairs else 0))
    return gd.CausalGraph(nodes, edges)


def test_validated_graphs_are_acyclic():
    rng = random.Random(11)
    validated = missed_by_the_reference = 0
    for _ in range(10_000):
        g = random_multigraph(rng, self_loops=True)
        acyclic = gd.acyclicity_check(g)
        if not gd.causal_validate(g, check_disjoint_macro=rng.random() < 0.5):
            validated += 1
            assert acyclic, g
        missed_by_the_reference += not acyclic and not reference_causal_validate(g)
    # the sample holds cycles that counting a self-loop as an edge leaving its node catches
    assert validated > 500 and missed_by_the_reference > 100


def dfs_acyclic(graph: gd.CausalGraph) -> bool:
    """The iterative three-colour DFS that acyclicity_check used before graphlib."""
    adjacency: dict[str, list[str]] = {n.id: [] for n in graph.nodes}
    for c, e in graph.edges:
        adjacency[c].append(e)
    color = {n.id: 0 for n in graph.nodes}  # 0 fresh, 1 active, 2 done
    for start in adjacency:
        if color[start] != 0:
            continue
        stack = [(start, iter(adjacency[start]))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    return False
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return True


def test_acyclicity_matches_the_dfs_oracle():
    # edges drawn with replacement: self-loops and repeated edges included
    rng = random.Random(4321)
    verdicts = set()
    for _ in range(5_000):
        n = rng.randint(1, 7)
        nodes = tuple(gd.CausalNode(f"n{i}", "macro", 0) for i in range(n))
        edges = tuple(
            (f"n{rng.randrange(n)}", f"n{rng.randrange(n)}") for _ in range(rng.randint(0, 10))
        )
        g = gd.CausalGraph(nodes, edges)
        verdict = gd.acyclicity_check(g)
        assert verdict == dfs_acyclic(g), edges
        verdicts.add(verdict)
    assert verdicts == {True, False}
    loop = gd.CausalGraph((node("a", "macro", 0),), (("a", "a"),))
    assert not gd.acyclicity_check(loop)


def test_causal_validate_matches_the_edge_scanning_reference():
    # without self-loops the one pass and the per-node scans agree on every violation
    rng = random.Random(2024)
    rules, one_node = set(), 0
    for _ in range(20_000):
        g = random_multigraph(rng, self_loops=False)
        one_node += len(g.nodes) == 1
        for flag in (True, False):
            found = gd.causal_validate(g, check_disjoint_macro=flag)
            assert found == reference_causal_validate(g, check_disjoint_macro=flag), g
            rules.update(v.rule for v in found)
    assert rules == {"R1", "R2", "R3"} and one_node > 100  # the sample reaches every rule


def timed_validate(graph: gd.CausalGraph) -> tuple[list[gd.Violation], float]:
    start = time.perf_counter()
    found = gd.causal_validate(graph)
    return found, time.perf_counter() - start


def test_causal_validate_is_linear_on_a_long_chain_and_a_wide_fan():
    # per-node edge scans took about 15 s on the chain and 4 s on the fan
    rng = random.Random(5)
    # M0 -> m0 -> M1 -> m1 -> ...: each micro node is caused from its future by the macro
    # node before it, and each but the last feeds the next macro node: 9,999 R2
    chain = [
        node(f"{name}{k}", kind, k) for k in range(10_000) for name, kind in (("M", "macro"), ("m", "micro"))
    ]
    rng.shuffle(chain)
    edges = [(f"M{k}", f"m{k}") for k in range(10_000)] + [(f"m{k}", f"M{k + 1}") for k in range(9_999)]
    found, seconds = timed_validate(gd.CausalGraph(tuple(chain), tuple(edges)))
    assert seconds < 1.0
    expected = [(n.id,) for n in chain if n.kind == "micro" and n.id != "m9999"]
    assert len(expected) == 9_999
    assert [(v.rule, v.subject) for v in found] == [("R2", subject) for subject in expected]
    # 10,000 micro sources, each feeding both of two macro sinks: 10,000 R3
    fan = [node(f"s{k}", "micro", 0) for k in range(10_000)] + [node("X", "macro", 1), node("Y", "macro", 1)]
    rng.shuffle(fan)
    edges = [(f"s{k}", sink) for k in range(10_000) for sink in ("X", "Y")]
    found, seconds = timed_validate(gd.CausalGraph(tuple(fan), tuple(edges)))
    assert seconds < 1.0
    assert [(v.rule, v.subject) for v in found] == [("R3", (n.id,)) for n in fan if n.kind == "micro"]
