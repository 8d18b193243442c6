"""Every function, class, constant, method or property in src/ is read there, or,
if public, traced or kept with a reason.

Code that only the tests read lives in tests/oracles.py.  A public name no
src/ code reads stays in src/ only when bench/launch.py's TRACED wraps it (a
traced run fails without it) or when KEPT gives the reason; a private one
never stays.
"""

import ast
from pathlib import Path

from conftest import load_launch

SRC = Path(__file__).resolve().parents[1] / "src" / "knightian"

# "module.name" -> why a public name that no src/ code reads stays there
KEPT = {
    "arena.one_freebit": "C07's subject",
    "freestate.full_freebit": "the Bloch-ball freestate",
    "complexity.measure_listing_overhead": "LISTING_OVERHEAD rests on it",
    "complexity.LISTING_OVERHEAD": "the pinned constant the sophistication bound rests on",
    "complexity.LISTING_MAX_WIDTH": "the convention's widest set, which the width field's size fixes",
    "toyvm.HALT": "named by the toyvm-1 spec; the interpreter's else branch runs it",
}


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level def, class or constant assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    return []


def methods(node: ast.stmt) -> list[str]:
    """The methods and properties a module-level class defines; a record's
    fields are data, not methods, and stay out."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [item.name for item in node.body if isinstance(item, ast.FunctionDef)]


def is_dunder(qualified: str) -> bool:
    name = qualified.rsplit(".", 1)[-1]
    return name.startswith("__") and name.endswith("__")


def unread_names() -> set[str]:
    """The module-level defs, classes and constants of src/ whose name no src/ code
    reads, and the methods and properties that no src/ code reads as an attribute.

    Dunder names, such as __all__ or __len__, are read by Python itself.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    read, unread = names | attributes, set()
    for module, tree in trees.items():
        for node in tree.body:
            unread.update(f"{module}.{name}" for name in defined_names(node) if name not in read)
            unread.update(f"{module}.{node.name}.{name}" for name in methods(node) if name not in attributes)
    return {name for name in unread if not is_dunder(name)}


def is_private(qualified: str) -> bool:
    return qualified.rsplit(".", 1)[-1].startswith("_")


def test_every_unread_public_name_is_traced_or_kept():
    traced = {f"{module}.{path}" for module, paths in load_launch().TRACED.items() for path in paths}
    loose = sorted(name for name in unread_names() - traced - KEPT.keys() if not is_private(name))
    assert not loose, f"read only by tests; move to tests/oracles.py or give a reason in KEPT: {loose}"


def test_every_private_name_is_read():
    # a private helper is no one's interface: if src/ does not read it, it goes
    loose = sorted(filter(is_private, unread_names()))
    assert not loose, f"no src/ code reads them; delete them or move them to tests/oracles.py: {loose}"


def test_every_kept_name_is_unread():
    # a name src/ reads needs no reason, so the table cannot go stale
    assert sorted(KEPT.keys() - unread_names()) == []


def undeclared_record_state() -> list[str]:
    """Each object.__setattr__(self, "name", ...) in src/ whose name the enclosing
    class does not declare as a field, as "module.Class.name"."""
    found = []
    for path in SRC.glob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            fields = {
                node.target.id
                for node in cls.body
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            }
            for call in ast.walk(cls):
                if (
                    isinstance(call, ast.Call)
                    and ast.unparse(call.func) == "object.__setattr__"
                    and len(call.args) >= 2
                    and ast.unparse(call.args[0]) == "self"
                    and isinstance(call.args[1], ast.Constant)
                    and call.args[1].value not in fields
                ):
                    found.append(f"{path.stem}.{cls.name}.{call.args[1].value}")
    return found


def test_a_record_keeps_no_state_outside_its_fields():
    # ==, hash, repr and replace see only the fields, so a name set beside them
    # silently drops out of all four
    assert undeclared_record_state() == []
