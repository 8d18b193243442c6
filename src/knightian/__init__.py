"""Knightian uncertainty lab.

Subpackages:

- ``classical``: convex sets of exact probability vectors, their extremal
  event intervals, and the algebra (union hull, probabilistic mixture) on
  either kind of freestate; it loads no numpy.
- ``freestate``: convex sets of quantum density matrices, extremal effect
  intervals, separating witnesses, and a cloning feasibility check.
- ``toyvm``: a total, prefix-free bit-emitting toy machine, version
  ``MACHINE_VERSION``.
- ``prior``: the length-weighted program mixture as a sequential predictor,
  with regret accounting, diagonalization, and a truncated halting sum.
- ``complexity``: shortest-program description complexity, set-listing
  complexity and sophistication, by exhaustive search over the toy machine.
- ``arena``: sequential prediction games against finite-state subjects with
  probabilistic and Knightian (freebit) branches.
- ``gadgets``: CHSH game values, anthropic room puzzles, predictor-payoff
  expectations, and the micro/macro causal-graph validator.
- ``cli``: the command-line front end's core, which every command runs: the
  argv reader, the config schema check, dispatch and the report writer, which
  refuses a value too long to print.
- ``cli_freestate``, ``cli_solomonoff``, ``cli_soph``, ``cli_arena`` and
  ``cli_gadgets``: each group's command handlers, config schemas and CSV
  writers, in one ``COMMANDS`` table, and the readers of the configs' states,
  subjects and graphs; a command loads its own group alone, and a group
  imports its family's modules at its top.
"""

from .errors import KnightianError

__version__ = "0.1.0"
# the toyvm spec every report quotes; here, so a report that runs no machine
# does not load toyvm
MACHINE_VERSION = "toyvm-1"

__all__ = ["KnightianError", "MACHINE_VERSION", "__version__"]
