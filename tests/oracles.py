"""Reference helpers that only the tests read.

No library path calls these: the census serves every per-program question, and
the CLI reads and writes its own payloads.  The tests keep them as oracles and
as builders of inputs.
"""

import itertools
from fractions import Fraction

import numpy as np

from knightian import cli_freestate, complexity, freestate, prior, toyvm

#: Distinguished outcome for "did not emit enough bits within budget".
ABSTAIN = "⊥"


def kraft_sum(codes: list[str]) -> Fraction:
    return sum((Fraction(1, 2 ** len(code)) for code in codes), Fraction(0))


def normalizer(mixture: prior.Mixture) -> Fraction:
    """C = sum of 2**-len(P) over the mixture's class."""
    return Fraction(mixture.census.total, 2**mixture.bound)


def programs(bound: int) -> list[toyvm.Program]:
    """The enumerated programs, decoded from their codes, in enumerate_programs order."""
    return [toyvm.decode(code) for code in toyvm.enumerate_programs(bound)]


def output_distribution(
    program: toyvm.Program, n: int, cfg: toyvm.MachineConfig
) -> dict[str, Fraction]:
    """Exact distribution of the first n output bits.

    Runs that emit fewer than n bits within budget put their whole mass on
    the abstention outcome ABSTAIN.  Masses always sum to exactly 1.
    """
    if n > cfg.output_budget:
        raise ValueError(f"n={n} exceeds output_budget={cfg.output_budget}")
    template, _halted = toyvm.output_template(program, cfg)
    if len(template) < n:
        return {ABSTAIN: Fraction(1)}
    head = template[:n]
    n_rand = head.count(toyvm._RAND_MARK)
    word, weight = head.replace(toyvm._RAND_MARK, "{}"), Fraction(1, 2**n_rand)
    return {word.format(*fill): weight for fill in itertools.product("01", repeat=n_rand)}


def _flip(bits: str) -> str:
    return bits.translate(str.maketrans("01", "10"))


def mirror(program: toyvm.Program) -> toyvm.Program:
    """The bit-flip twin: same length, outputs are the complement in law.

    Swaps EMIT0/EMIT1, complements QUOTE payloads and REPEAT patterns, and
    leaves everything else (including REPEAT's count code) alone.
    """
    body, width = program.body, toyvm.OPCODE_WIDTH
    swap = {toyvm.EMIT0: toyvm.EMIT1, toyvm.EMIT1: toyvm.EMIT0}
    out = []
    for k in range(len(body) // width):
        op, tail = body[k * width : (k + 1) * width], body[(k + 1) * width :]
        if op == toyvm.QUOTE:
            return toyvm.from_body("".join(out) + op + _flip(tail))
        if op == toyvm.REPEAT:
            try:
                _, pos = toyvm.gamma_decode(tail)
            except toyvm.BadHeader:
                return toyvm.from_body("".join(out) + op + tail)
            return toyvm.from_body("".join(out) + op + tail[:pos] + _flip(tail[pos:]))
        out.append(swap.get(op, op))
    out.append(body[len(body) // width * width :])  # padding unchanged
    return toyvm.from_body("".join(out))


def listing_width(listing: complexity.SetListing) -> int:
    """The common length of the set's elements."""
    return len(listing.elements[0])


def render_listing(listing: complexity.SetListing) -> str:
    """Canonical explicit output for a set (sorted elements; no cube form)."""
    width = listing_width(listing)
    if width > complexity.LISTING_MAX_WIDTH:
        raise ValueError(f"width {width} beyond {complexity.LISTING_MAX_WIDTH}")
    return format(width - 1, f"0{complexity.LISTING_WIDTH_FIELD}b") + "".join(listing.elements)


def validate_density(m) -> freestate.DensityMatrix:
    """Validate a square complex matrix as a density matrix.

    Raises NotHermitian, NotPSD (with the offending eigenvalue), or
    TraceNotOne (with the offending trace), in that order of checks.
    """
    m = freestate._check_square(m)
    return freestate.DensityMatrix(m.shape[0], m)


def maximally_mixed(dim: int) -> freestate.DensityMatrix:
    return freestate.DensityMatrix(dim, np.eye(dim) / dim)


def effect_to_payload(e: freestate.Effect) -> dict:
    return {"dim": e.dim, "entries": cli_freestate._matrix_payload(e.entries)}


def primal_l1_residual(s: freestate.Freestate, rho: freestate.DensityMatrix) -> float:
    """The least L1 residual of rho against the hull, by scipy's HiGHS: a second solver for
    the LP hull_contains decides."""
    from scipy.optimize import linprog

    target = freestate._herm_vec(np.asarray(rho.entries))
    cols = np.stack([freestate._herm_vec(np.asarray(g.entries)) for g in s.generators], axis=1)
    m, n = cols.shape
    # min sum(s+ + s-)  s.t.  cols @ lam + s+ - s- = target, sum(lam) = 1, all >= 0
    c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    a_eq = np.block([[cols, np.eye(m), -np.eye(m)], [np.ones((1, n)), np.zeros((1, 2 * m))]])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * (n + 2 * m), method="highs")
    assert res.success
    return float(res.fun)
