"""Laws of the theory that tie one family to another, checked without a reference oracle.

A differential test compares a fast path with a second copy of the same
algorithm, so a defect both copies share, or a wrong definition, passes it.
A law links two families that share no code path, e.g. `prior`'s mixture and
`complexity`'s K(x) (Li & Vitanyi, An Introduction to Kolmogorov Complexity,
chs. 3-4).
"""

import itertools
from fractions import Fraction

import pytest

from knightian import complexity, prior, toyvm

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
