"""Classical freestates, and the algebra on either kind of freestate.

A classical freestate is a nonempty convex set of probability vectors, held
by a finite generator list of exact rationals, so interval endpoints like
[1/10, 1/2] come out exactly.  Every probability functional in scope is
linear, so its extreme values over the hull sit at generators.

knightian_or and prob_mix take quantum freestates (``freestate.Freestate``)
as well: the result is the first state's kind with new generators.  This
module imports no numpy, so a classical command never loads it.  The JSON
form of either kind is read and written in ``cli_freestate``, beside its
schema.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import KnightianError, exact
from .record import Record, replace

if TYPE_CHECKING:
    from .freestate import Freestate

# prob_mix writes one generator per choice of a generator from each component:
# 12 components of 2 generators each (4096 choices) take about 1 s through
# `python -m knightian freestate mix` on a 2-core Xeon VM, classical or quantum
MIX_GUARD = 2**12


class DimMismatch(KnightianError):
    pass


class BadWeights(KnightianError):
    pass


class BadEvent(KnightianError):
    pass


class ClassicalFreestate(Record):
    dim: int  # the number of outcomes
    generators: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        gens = tuple(
            g if isinstance(g, _Distribution) and len(g) == self.dim else _probabilities(g, self.dim)
            for g in self.generators
        )
        if not gens:
            raise ValueError("a freestate needs at least one generator")
        object.__setattr__(self, "generators", gens)

    def weighted_sum(self, weights: list[Fraction], choice) -> tuple[Fraction, ...]:
        """sum_i weights[i] * choice[i], one generator of a mixture.

        prob_mix's weights sum to exactly 1, so the sum is a distribution
        without being read again."""
        return _Distribution(sum(w * g[i] for w, g in zip(weights, choice)) for i in range(self.dim))


class _Distribution(tuple):
    """A generator already read: nonnegative Fractions summing to exactly 1."""


def _not_one(what: str, total: Fraction) -> str:
    shown = exact(total) or "a fraction too long to print"
    return f'{what} sum to {shown}, not exactly 1; write them as "a/b" strings'


def _probabilities(g, dim: int) -> tuple[Fraction, ...]:
    """One classical generator, read exactly: dim nonnegative rationals summing to 1."""
    vec = tuple(map(_decimal_fraction, g))
    if len(vec) != dim:
        raise ValueError(f"expected {dim} outcomes, got {len(vec)}")
    if any(v < 0 for v in vec):
        raise ValueError("probabilities must be nonnegative")
    if sum(vec) != 1:
        raise ValueError(_not_one("probabilities", sum(vec)))
    return _Distribution(vec)


def _decimal_fraction(x) -> Fraction:
    # a float is read as the decimal it prints as, so 0.1 becomes exactly 1/10
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)


def event_interval(
    s: ClassicalFreestate, event: list[int] | set[int]
) -> tuple[Fraction, Fraction]:
    """Exact lower/upper probability of a set of outcomes."""
    idx = sorted(set(event))
    if any(i < 0 or i >= s.dim for i in idx):
        raise BadEvent(f"'event' indices must lie in [0, {s.dim})")
    values = [sum((g[i] for i in idx), Fraction(0)) for g in s.generators]
    return min(values), max(values)


# -- algebra --------------------------------------------------------------------
#
# Both operations take either kind of freestate, quantum or classical, but not
# the two mixed: the result is the first state's kind with new generators.


def _check_alike(states) -> None:
    first = states[0]
    for s in states[1:]:
        if type(s) is not type(first):
            raise DimMismatch(f"cannot combine a {type(first).__name__} with a {type(s).__name__}")
        if s.dim != first.dim:
            raise DimMismatch(f"dims {first.dim} != {s.dim}")


def knightian_or(*states: Freestate | ClassicalFreestate) -> Freestate | ClassicalFreestate:
    """Hull of the union: "either set could be the truth"."""
    if not states:
        raise KnightianError("knightian_or needs at least one state")
    _check_alike(states)
    return replace(states[0], generators=tuple(g for s in states for g in s.generators))


def prob_mix(
    components: list[tuple[float | Fraction, Freestate | ClassicalFreestate]]
) -> Freestate | ClassicalFreestate:
    """Probabilistic mixture of freestates, expanded over Knightian choices.

    The generators of the result are every weighted sum obtainable by picking
    one generator from each component: probabilistic uncertainty *over*
    Knightian uncertainty flattens into Knightian uncertainty over mixtures.
    Weights are read exactly, a float as the decimal it prints as, and must
    sum to exactly 1.
    """
    weights = [_decimal_fraction(w) for w, _ in components]
    if not weights:
        raise BadWeights("no components")
    if any(w < 0 for w in weights):
        raise BadWeights("'weight' values must be nonnegative")
    if sum(weights) != 1:
        raise BadWeights(_not_one("'weight' values", sum(weights)))
    states = [s for _, s in components]
    _check_alike(states)
    count = math.prod(len(s.generators) for s in states)
    if count > MIX_GUARD:
        raise KnightianError(f"'components' expand to {count} generators, more than {MIX_GUARD}")
    first = states[0]
    choices = itertools.product(*[s.generators for s in states])
    return replace(first, generators=tuple(first.weighted_sum(weights, c) for c in choices))
