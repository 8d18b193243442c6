"""Shared exception base, and the test of whether a report can print a value.

Every domain error in the package derives from KnightianError so the CLI can
map "your inputs are bad" to exit code 1 and anything else to exit code 2.
The library returns exact values as Fractions, and the CLI prints them.
"""


class KnightianError(Exception):
    pass


def exact(v) -> str | None:
    """v as "a/b", or None when a report could not hold it: Python prints no
    int of more than sys.get_int_max_str_digits() digits."""
    try:
        return str(v)
    except ValueError:
        return None
