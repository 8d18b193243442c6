"""Shared exception base, and the rule for what a report can print.

Every domain error in the package derives from KnightianError so the CLI can
map "your inputs are bad" to exit code 1 and anything else to exit code 2.
The library returns exact values as Fractions, and the CLI prints them.
"""

import sys
from contextlib import contextmanager


class KnightianError(Exception):
    pass


@contextmanager
def at(path: str):
    """Re-raise a validation error of the block as a KnightianError naming path.

    path is where the checked value sits in its payload, e.g.
    config['freestate']['generators'][0].
    """
    try:
        yield
    except (KnightianError, ValueError) as exc:
        raise KnightianError(f"{path}: {exc}") from exc


def exact(v) -> str | None:
    """v as "a/b", or None when a report could not hold it: Python prints no
    int of more than sys.get_int_max_str_digits() digits."""
    try:
        return str(v)
    except ValueError:
        return None


def refuse_unprintable(value, path: str) -> None:
    """Raise a KnightianError naming the path of a value within value, a config's
    or a report's, that exact cannot print; path names value itself."""
    if isinstance(value, (dict, list, tuple)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            refuse_unprintable(item, f"{path}[{key!r}]")
    elif exact(value) is None:
        digits = sys.get_int_max_str_digits()
        raise KnightianError(f"{path} has more than {digits} digits above or below its fraction bar")
