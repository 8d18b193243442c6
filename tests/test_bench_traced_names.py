import functools
import importlib
import importlib.util
from pathlib import Path

LAUNCH = Path(__file__).resolve().parents[1] / "bench" / "launch.py"


def test_every_traced_name_is_a_knightian_callable():
    # a traced run wraps each name with getattr, so one missing name fails every command
    spec = importlib.util.spec_from_file_location("bench_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    assert launch.TRACED
    for module_name, paths in launch.TRACED.items():
        module = importlib.import_module(f"knightian.{module_name}")
        for path in paths:
            target = functools.reduce(getattr, path.split("."), module)
            assert callable(target), f"{module_name}.{path}"
