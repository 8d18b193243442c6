"""Batch front-end: one command per experiment, in five groups.

JSON config in, JSON (or CSV, where a table is the natural shape) out.  The
options may come before, between or after GROUP and COMMAND, as `--opt value`
or `--opt=value`; a repeated option keeps its last value, an option is
spelled in full, and no value may be empty.  --config names a JSON file (no
file: an empty config), --seed is an integer in [0, 2**64), which the arena
commands require, --out a file to write the report to in place of stdout,
and --format json (the default) or csv, which solomonoff regret, soph table
and gadgets chsh-classical write.

Groups and their commands:
  arena       run, classify
  freestate   interval, witness, or, mix, clone-check
  gadgets     chsh-classical, chsh-quantum, bostrom, newcomb, causal
  solomonoff  predict, regret, diagonal, omega
  soph        k, kset, soph, table

Each group's commands live in `knightian.cli_<group>`, whose one table,
``COMMANDS``, gives each command its handler, its config schema and, for the
tabular commands, its CSV rows; the group module also reads its configs'
payloads into the library's objects, and writes them back.  A command loads
its own group alone, and a group module imports its family's modules at its
top, so a `solomonoff` command never loads `numpy`.  In the group modules,
the one import inside a function is `freestate`'s, on `cli_freestate`'s
quantum paths, as only it loads `numpy`: a classical freestate command reads
`classical` alone.  The envelope's machine version is the package's
`MACHINE_VERSION`, so only the commands that build a machine config, or
decode a program, load `toyvm`.

``dispatch`` checks the config against the schema before the handler runs:
unknown and missing keys, and values of the wrong type (a float where an
integer belongs, a number where a bitstring belongs), are rejected by name.
The check returns the typed config, which the handler reads: each rational
is parsed into a Fraction there, once, and one that no report could print is
refused by its key.  A handler passes on only the optional keys a config
sets, so each default is stated once, in the library's signature.  A result
keeps its Fractions, which ``dispatch`` alone prints, refusing one too long
to print by its path, e.g. result['verdict']['distances'][0].  Every report
embeds the artifact version, the machine spec version, the seed, and an echo
of the config as given; identical (config, seed, version) triples produce
byte-identical reports.

Exit codes: 0 success, 1 validation/usage error, 2 internal error.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable

from . import MACHINE_VERSION, __version__
from .errors import KnightianError, exact


class UsageExit(Exception):
    pass


#: the largest decimal exponent a rational may carry, as many as the digits
#: Python parses an int from by default: Fraction builds 10**exponent at once,
#: so "1e-10000000" alone would hold a command for about 11 s
EXPONENT_GUARD = 4300


def _fraction(value) -> Fraction:
    """value read exactly, a float as the decimal it prints as; ValueError if it is
    no rational (a bool prints as "True" or "False", which is none)."""
    text = str(value)
    _mantissa, mark, exponent = text.lower().partition("e")
    if mark and abs(int(exponent)) > EXPONENT_GUARD:
        raise ValueError(f"the exponent of {text!r} lies beyond {EXPONENT_GUARD}")
    return Fraction(text)


def _seed(text: str) -> int:
    """--seed read as a 64-bit seed, checked before any command runs."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or not 0 <= seed < 2**64:
        raise UsageExit(f"--seed must be an integer in [0, 2**64), got {text!r}")
    return seed


def _rat(f: Fraction) -> dict:
    return {"exact": f, "float": float(f)}


def refuse_unprintable(value, path: str) -> None:
    """Raise a KnightianError naming the path of a value within value, a config's
    or a report's, that exact cannot print; path names value itself."""
    if isinstance(value, (dict, list, tuple)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            refuse_unprintable(item, f"{path}[{key!r}]")
    elif exact(value) is None:
        digits = sys.get_int_max_str_digits()
        raise KnightianError(f"{path} has more than {digits} digits above or below its fraction bar")


@contextmanager
def at(path: str):
    """Re-raise a validation error of the block as a KnightianError naming path.

    path is where the checked value sits in the config, e.g.
    config['freestate']['generators'][0].
    """
    try:
        yield
    except (KnightianError, ValueError) as exc:
        raise KnightianError(f"{path}: {exc}") from exc


# -- config schemas -----------------------------------------------------------------
#
# A value kind is one of: a Kind, a leaf test or reader; a one-item list [k], a
# list of any length whose every item is a k; a tuple (k1, k2, ...), a list of
# exactly those kinds in order; a dict, an object with exactly these keys, each
# required unless its kind is wrapped in Opt; an Either of an object schema and
# any kind, itself possibly an Either; or a ByKind, an object schema picked by
# the object's 'kind'.  _check returns the value with each read leaf replaced
# by what its reader made of it; a schema states no defaults, as an optional
# key left out stays out.  Kind, Opt, Either and ByKind are plain classes, not
# records (knightian.record): only the family modules load record, so a
# command's start, before its handler runs, does not pay for it.


class Kind:
    def __init__(self, name: str, test: Callable | None = None, read: Callable | None = None):
        self.name = name  # what the value must be, for the error message
        self.test = test  # value -> bool
        self.read = read  # in place of test: value -> its typed form, or ValueError


class Opt:
    def __init__(self, kind):
        self.kind = kind


class Either:
    """`present` when the value is an object holding the key `lead`, `absent` otherwise."""

    def __init__(self, lead: str, present: dict, absent):
        self.lead, self.present, self.absent = lead, present, absent


class ByKind:
    """The object schema named by the value's 'kind', a key of every schema."""

    def __init__(self, **schemas: dict):
        self.schemas = {tag: {"kind": STRING, **schema} for tag, schema in schemas.items()}
        tags = " or ".join(f'"{tag}"' for tag in schemas)
        self.unknown = Kind(f"an object whose 'kind' is {tags}", lambda v: False)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # json.load accepts NaN and +-Infinity, and an int may lie beyond float range
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


INT = Kind("an integer", _is_int)
REAL = Kind("a finite real number", _is_real)
BITS = Kind("a bitstring", lambda v: isinstance(v, str) and set(v) <= {"0", "1"})
RATIONAL = Kind("a rational", read=_fraction)
BOOL = Kind("a boolean", lambda v: isinstance(v, bool))
STRING = Kind("a string", lambda v: isinstance(v, str))

MACHINE = {"step_budget": Opt(INT), "rand_budget": Opt(INT), "output_budget": Opt(INT)}


def _bad(path: str, what: str, value) -> KnightianError:
    return KnightianError(f"{path} must be {what}, got {value!r}")


def _check(value, kind, path: str = "config"):
    """value typed by kind; raise KnightianError naming the offending key unless it is of kind.

    path is the subscript chain from the config root, e.g. config['game']['t'].
    """
    if isinstance(kind, Opt):
        kind = kind.kind
    while isinstance(kind, Either):
        kind = kind.present if isinstance(value, dict) and kind.lead in value else kind.absent
    if isinstance(kind, ByKind):
        tag = value.get("kind") if isinstance(value, dict) else None
        kind = kind.schemas.get(tag, kind.unknown) if isinstance(tag, str) else kind.unknown
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise _bad(path, "an object", value)
        required = {key for key, k in kind.items() if not isinstance(k, Opt)}
        for problem, keys in (
            ("unknown", value.keys() - kind.keys()),
            ("missing", required - value.keys()),
        ):
            if keys:
                raise KnightianError(
                    f"{problem} key(s) in {path}: {', '.join(map(repr, sorted(keys)))}"
                )
        return {key: _check(value[key], kind[key], f"{path}[{key!r}]") for key in sorted(value)}
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise _bad(path, "a list", value)
        return [_check(item, kind[0], f"{path}[{i}]") for i, item in enumerate(value)]
    if isinstance(kind, tuple):
        if not (isinstance(value, list) and len(value) == len(kind)):
            raise _bad(path, f"a list of {len(kind)} values", value)
        return [_check(item, k, f"{path}[{i}]") for i, (item, k) in enumerate(zip(value, kind))]
    if kind.read is None:
        if not kind.test(value):
            raise _bad(path, kind.name, value)
        return value
    try:
        typed = kind.read(value)
    except (ValueError, ZeroDivisionError):
        raise _bad(path, kind.name, value) from None
    refuse_unprintable(typed, path)
    return typed


def _given(config: dict, keys) -> dict:
    """The items of config under keys: a key left out takes the library's default."""
    return {key: config[key] for key in keys if key in config}


def _machine_config(config: dict) -> toyvm.MachineConfig:
    from . import toyvm

    return toyvm.MachineConfig(**_given(config, MACHINE))


# -- the command line ----------------------------------------------------------------

GROUPS = ("arena", "freestate", "gadgets", "solomonoff", "soph")
USAGE = "usage: knightian GROUP COMMAND [--config PATH] [--seed N] [--out PATH] [--format json|csv]"


def _commands(group: str) -> dict:
    """The group's table: command -> (handler(config, seed), config schema, CSV rows or None)."""
    return importlib.import_module(f"{__package__}.cli_{group}").COMMANDS


def _read_argv(argv: list[str]) -> tuple | None:
    """(group, command, config path, seed, out path, format) read from argv, or None for help.

    Raise UsageExit naming the token at fault.
    """
    options = {"--config": None, "--seed": None, "--out": None, "--format": "json"}
    positionals = []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if not token.startswith("-"):
            positionals.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in options:
            raise UsageExit(f"unknown option {token!r}")
        if not eq:
            value = next(tokens, "")
        if not value or (not eq and value.startswith("--")):
            raise UsageExit(f"{name} needs a value")
        options[name] = value
    if len(positionals) < 2:
        raise UsageExit(f"missing {' and '.join(['GROUP', 'COMMAND'][len(positionals):])}")
    if len(positionals) > 2:
        raise UsageExit(f"unexpected argument {positionals[2]!r}")
    group, command = positionals
    if group not in GROUPS:
        raise UsageExit(f"unknown group {group!r}; have {list(GROUPS)}")
    if options["--format"] not in ("json", "csv"):
        raise UsageExit(f"--format must be json or csv, got {options['--format']!r}")
    seed = None if options["--seed"] is None else _seed(options["--seed"])
    return group, command, options["--config"], seed, options["--out"], options["--format"]


def _write_fraction(value: Fraction) -> str:
    """json.dumps's writer for a Fraction, the one report value it cannot write itself."""
    if not isinstance(value, Fraction):
        raise TypeError(f"a report cannot hold a {type(value).__name__}")
    return str(value)


def dispatch(argv: list[str]) -> int:
    try:
        args = _read_argv(argv)
        if args is None:
            sys.stdout.write(f"{USAGE}\n\n{__doc__}")
            return 0
        group, command, config_path, seed, out, fmt = args
        commands = _commands(group)
        if command not in commands:
            raise UsageExit(
                f"unknown subcommand {command!r} for {group!r}; have {sorted(commands)}"
            )
        handler, schema, csv_rows = commands[command]
        config = {}
        if config_path:
            with open(config_path) as fh:
                config = json.load(fh)
        typed = _check(config, schema)
        if fmt == "csv" and csv_rows is None:
            tabular = sorted(
                f"{g} {c}" for g in GROUPS for c, entry in _commands(g).items() if entry[2]
            )
            raise KnightianError(f"csv output is only available for: {', '.join(tabular)}")
        result = handler(typed, seed)
        try:
            if fmt == "csv":
                text = "".join(f"{line}\n" for line in csv_rows(result))
            else:
                envelope = {
                    "artifact_version": __version__,
                    "machine_version": MACHINE_VERSION,
                    "command": f"{group} {command}",
                    "seed": seed,
                    "config": config,
                    "result": result,
                }
                text = json.dumps(envelope, sort_keys=True, indent=2, default=_write_fraction) + "\n"
        except ValueError:  # a value too long to print: searched for only now
            refuse_unprintable(result, "result")
            raise
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except UsageExit as exc:
        sys.stderr.write(f"{exc}\n\n{USAGE}\n")
        return 1
    except (KnightianError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # pragma: no cover - internal failure path
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 2


def main() -> None:
    # OpenBLAS starts a thread pool when numpy loads, 0.08-0.17 s of CPU a
    # command on a 2-core Xeon VM, though no command's matrices are large
    # enough to use it; a thread count the caller set is kept
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # CPython's shutdown collections walk every tracked object, gc.disable()
    # or not, only to free what the OS takes back anyway: 8 of a command's
    # 11 ms of exit, 20 of 26 ms once numpy has loaded, on a 2-core Xeon VM.
    # No collection walks a frozen object.  Nothing is left for one to flush:
    # dispatch has closed --out, and the interpreter flushes stdout and stderr
    # itself.  Registered, not called, so that a caller that catches
    # SystemExit keeps a collecting heap until its own exit.  Imported here,
    # as only a command's process needs them.
    import atexit
    import gc

    atexit.register(gc.freeze)
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    # `python -m knightian.cli` runs this file as __main__, a second copy of
    # the module: its Kind and Opt objects are not those the group tables
    # import from knightian.cli, so the package's copy must run the command
    import knightian.cli

    knightian.cli.main()
