import functools
import importlib

from conftest import load_launch


def test_every_traced_name_is_a_knightian_callable():
    # a traced run wraps each name with getattr, so one missing name fails every command
    launch = load_launch()
    assert launch.TRACED
    for module_name, paths in launch.TRACED.items():
        module = importlib.import_module(f"knightian.{module_name}")
        for path in paths:
            target = functools.reduce(getattr, path.split("."), module)
            assert callable(target), f"{module_name}.{path}"
