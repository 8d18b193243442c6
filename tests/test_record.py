"""The Record contract: what the family modules rely on of their frozen records."""

from fractions import Fraction

import pytest

from knightian import arena, classical, complexity, toyvm
from knightian.record import Record, replace


class Pair(Record):
    left: int
    right: str = "r"


class Twin(Record):
    # Pair's fields, values and defaults, in another class
    left: int
    right: str = "r"


def game(**changes) -> arena.GameConfig:
    return arena.GameConfig(t=0, u=2, epsilon=Fraction(1, 2), delta=Fraction(1, 2), trials=1, seed=0, **changes)


def test_fields_are_the_class_annotations_in_order():
    assert repr(Pair(1, "x")) == "Pair(left=1, right='x')"
    cfg = toyvm.MachineConfig()
    assert repr(cfg) == "MachineConfig(step_budget=512, rand_budget=24, output_budget=64)"
    assert repr(complexity.NotFound(20, 512)) == "NotFound(search_bound=20, step_budget=512)"


def test_construction_by_position_or_keyword_with_defaults():
    assert Pair(1) == Pair(1, "r") == Pair(left=1) == Pair(right="r", left=1)
    assert toyvm.MachineConfig(7).step_budget == 7
    assert toyvm.MachineConfig(rand_budget=3) == toyvm.MachineConfig(512, 3, 64)
    assert game().adversary == "adaptive"


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((1, "x", 2), {}), ((1,), {"left": 2}), ((1,), {"middle": 2})],
    ids=["missing", "too-many", "repeated", "unknown"],
)
def test_a_bad_call_is_a_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_post_init_runs_on_the_set_fields():
    # it checks them ...
    with pytest.raises(ValueError, match="'rand_budget'"):
        toyvm.MachineConfig(rand_budget=-1)
    # ... and may normalise them with object.__setattr__
    assert complexity.SetListing(("1", "0", "1")).elements == ("0", "1")
    state = classical.ClassicalFreestate(2, [["1/2", "1/2"]])
    assert state.generators == ((Fraction(1, 2), Fraction(1, 2)),)


def test_a_field_cannot_be_assigned_or_deleted():
    cfg = toyvm.MachineConfig()
    with pytest.raises(AttributeError):
        cfg.step_budget = 1
    with pytest.raises(AttributeError):
        cfg.extra = 1
    with pytest.raises(AttributeError):
        del cfg.step_budget
    assert cfg == toyvm.MachineConfig()


def test_equality_needs_one_class_and_equal_fields():
    assert toyvm.MachineConfig() == toyvm.MachineConfig(512, 24, 64)
    assert toyvm.MachineConfig(1) != toyvm.MachineConfig(2)
    # a record never equals a tuple, or a record of another class with the same values
    assert Pair(1, "x") != (1, "x")
    assert (1, "x") != Pair(1, "x")
    assert Pair(1, "x") != Twin(1, "x")
    assert complexity.NotFound(20, 512) != (20, 512)
    program = toyvm.from_body("0011")
    assert program != (program.code, program.body)


def test_hash_follows_the_fields():
    assert hash(toyvm.MachineConfig()) == hash(toyvm.MachineConfig(512, 24, 64))
    assert hash(Pair(1, "x")) == hash(Pair(1, "x"))
    assert {toyvm.MachineConfig(): "cached"}[toyvm.MachineConfig()] == "cached"
    assert len({toyvm.from_body("0011"), toyvm.decode(toyvm.from_body("0011").code)}) == 1


def test_replace_runs_the_checks_again():
    cfg = toyvm.MachineConfig()
    with pytest.raises(ValueError, match="'step_budget'"):
        replace(cfg, step_budget=0)
    assert replace(cfg, rand_budget=3) == toyvm.MachineConfig(rand_budget=3)
    assert cfg == toyvm.MachineConfig()  # the original is untouched
    assert replace(complexity.SetListing(("0",)), elements=("1", "0", "1")).elements == ("0", "1")
    with pytest.raises(TypeError):
        replace(cfg, no_such_field=1)


def test_a_mutable_default_is_not_shared():
    a, b = game(), game()
    assert a.input_model == b.input_model == {"kind": "uniform"}
    assert a.input_model is not b.input_model
    a.input_model["kind"] = "fixed"
    assert b.input_model == game().input_model == {"kind": "uniform"}


class Code(Record):
    # a class that sets its fields in its own __init__, as a dataclass's would
    code: str
    body: str

    def __init__(self, code: str, body: str):
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "body", body)


def test_a_class_body_init_is_left_alone():
    # a class with its own __init__ keeps it, and is a record still
    assert Code.__init__ is not Record.__init__
    code = Code(code="1", body="")
    assert code == Code("1", "") and code != Code("0100", "0")
    assert repr(code) == "Code(code='1', body='')"
    with pytest.raises(AttributeError):
        code.code = "0"
    # Program, a plain record, is built by position or keyword alike
    program = toyvm.Program(code="1", body="")
    assert program == toyvm.Program("1", "") == toyvm.decode("1")
    assert repr(program) == "Program(code='1', body='')"
    with pytest.raises(AttributeError):
        program.code = "0"
