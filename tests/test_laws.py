"""Laws of the theory that tie one family to another, checked without a reference oracle.

A differential test compares a fast path with a second copy of the same
algorithm, so a defect both copies share, or a wrong definition, passes it.
A law links two families that share no code path, e.g. `prior`'s mixture and
`complexity`'s K(x) (Li & Vitanyi, An Introduction to Kolmogorov Complexity,
chs. 3-4), or `classical`'s Knightian or and `freestate`'s hull LP.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_freestate
from knightian import classical, complexity, freestate, prior, toyvm

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
        floor = Fraction(1, 2**k.value) / mixture.normalizer
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
