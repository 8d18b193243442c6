"""Input guards that no other test reaches: each raises its exception, with its message.

The CLI-only ones are rows of `test_cli.py`'s table of refused configs."""

import random
from fractions import Fraction

import numpy as np
import pytest

from knightian import arena, classical as cl, complexity as cx, freestate as fs, prior, toyvm
from oracles import maximally_mixed

COIN_EDGE = arena.Edge("s", ("prob", Fraction(1, 2)))
QUBIT, QUTRIT = fs.Freestate(2, (maximally_mixed(2),)), fs.Freestate(3, (maximally_mixed(3),))


def subject(emit_on_one: tuple) -> arena.Subject:
    """One state, a fair coin on input 0 and the given emission on input 1, no freebits."""
    edges = {("s", "0"): COIN_EDGE, ("s", "1"): arena.Edge("s", emit_on_one)}
    return arena.Subject(("s",), "s", edges, 0)


GUARDS = {
    "arena-unknown-emit-kind": (
        lambda: subject(("coin", 0)),
        arena.SubjectSpecError,
        "unknown 'emit' kind 'coin'",
    ),
    "arena-assignment-length": (
        lambda: arena.true_distribution(subject(("bit", "0")), "01", 0, 2, (1,)),
        arena.SubjectSpecError,
        "assignment names 1 freebits, budget is 0",
    ),
    "arena-epsilon-range": (
        lambda: arena.GameConfig(0, 4, Fraction(0), Fraction(1, 2), 1, 0),
        ValueError,
        "'epsilon' = 0 must lie in (0, 1)",
    ),
    "arena-unknown-input-model": (
        lambda: arena.draw_inputs({"kind": "zigzag"}, 3, random.Random(0)),
        ValueError,
        "unknown input model 'zigzag'",
    ),
    "classical-no-generators": (
        lambda: cl.ClassicalFreestate(2, ()),
        ValueError,
        "a freestate needs at least one generator",
    ),
    "classical-mix-of-nothing": (lambda: cl.prob_mix([]), cl.BadWeights, "no components"),
    "freestate-amplitude-count": (
        lambda: fs.PureState(2, [1, 0, 0]),
        ValueError,
        "amplitudes must be a length-2 vector",
    ),
    "freestate-overlap-dims": (
        lambda: fs.ket("0").overlap(fs.PureState(3, [1, 0, 0])),
        cl.DimMismatch,
        "dims 2 != 3",
    ),
    "freestate-not-square": (
        lambda: fs.DensityMatrix(2, np.ones(2)),
        ValueError,
        "expected a square matrix, got shape (2,)",
    ),
    "freestate-no-generators": (
        lambda: fs.Freestate(2, ()),
        ValueError,
        "a freestate needs at least one generator",
    ),
    "freestate-generator-dim": (
        lambda: fs.Freestate(2, (maximally_mixed(3),)),
        cl.DimMismatch,
        "generator dimension differs from the freestate's",
    ),
    "freestate-expectation-dims": (
        lambda: fs.expectation(maximally_mixed(2), fs.Effect(3, np.eye(3))),
        cl.DimMismatch,
        "dims 2 != 3",
    ),
    "freestate-effect-interval-dims": (
        lambda: fs.effect_interval(QUBIT, fs.Effect(3, np.eye(3))),
        cl.DimMismatch,
        "dims 2 != 3",
    ),
    "freestate-hull-dims": (
        lambda: fs.hull_contains(QUBIT, maximally_mixed(3)),
        cl.DimMismatch,
        "dims 2 != 3",
    ),
    "freestate-witness-dims": (
        lambda: fs.separating_witness(QUBIT, QUTRIT),
        cl.DimMismatch,
        "dims 2 != 3",
    ),
    "freestate-unknown-ket": (lambda: fs.ket("2"), ValueError, "unknown state label '2'"),
    "complexity-not-bits": (
        lambda: cx.SetListing(("01", "0a")),
        ValueError,
        "not a bitstring: '0a'",
    ),
    "prior-update-bit": (
        lambda: prior.update(prior.build_mixture(4), "2"),
        ValueError,
        "bit must be '0' or '1', got '2'",
    ),
    "toyvm-gamma-of-zero": (lambda: toyvm.gamma_encode(0), ValueError, "gamma code is defined for n >= 1"),
}


@pytest.mark.parametrize("build, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_exception(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert message in str(raised.value)
