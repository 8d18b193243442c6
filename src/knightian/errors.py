"""Shared exception base.

Every domain error in the package derives from KnightianError so the CLI can
map "your inputs are bad" to exit code 1 and anything else to exit code 2.
"""

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
