"""Sequential prediction with the length-weighted program mixture.

The predictor enumerates every toy-machine program up to a length bound L
and mixes their output distributions with weights 2**-len(P) / C, where C is
the Kraft normalizer over the enumerated class.  Prediction is Bayesian
conditioning: the estimate for the next bit is the joint-probability ratio
Pr[history + "1"] / Pr[history] under the mixture.

Control flow never reads the random stream, so a program's whole
contribution is its output template, its halting flag and its length.  The
mixture is therefore kept as a census of template classes: each distinct
template carries the integer weight sum of 2**(L - len(P)) over the
programs that produce it.  Queries sum over classes, not programs, and give
the same Fractions as the per-program sum.

Everything here is exact dyadic-rational arithmetic (fractions.Fraction):
the toy machine only ever produces probabilities 2**-k, so log-domain floats
would buy nothing and cost exactness.  All reported quantities are relative
to the enumerated class ("toyvm-1, L=...") and claims should be quoted with
that regime attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from . import toyvm
from .errors import KnightianError
from .toyvm import MachineConfig, Program


class ZeroMassHistory(KnightianError):
    """The history left the (bounded) support of the truncated mixture."""

    def __init__(self, history: str, step: int | None = None):
        at = "" if step is None else f" at step {step}"
        super().__init__(f"history {history!r} has zero mixture mass{at}")
        self.history = history
        self.step = step


class UnsupportedSequence(KnightianError):
    """The designated hypothesis assigns the sequence zero probability."""


@dataclass(frozen=True)
class Census:
    """All programs of length <= bound, grouped by output template.

    Weights are integers on the scale 2**bound: a program P weighs
    2**(bound - len(P)).  Each class is (template length, literal-slot mask,
    literal bits, weight), with slot i of the template at bit length - 1 - i
    of the mask and the bits.
    """

    classes: tuple[tuple[int, int, int, int], ...]
    total: int  # Kraft normalizer C times 2**bound
    halted: int  # weight of the programs that surely halt


@lru_cache(maxsize=8)
def census(bound: int, cfg: MachineConfig) -> Census:
    """Run every program of length <= bound once and group them by template."""
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    weights: dict[tuple, int] = {}
    halted = 0
    for p in toyvm.enumerate_programs(bound):  # enforces ENUMERATION_GUARD
        slots, halts = toyvm.output_template(p, cfg)
        w = 1 << (bound - len(p))
        weights[slots] = weights.get(slots, 0) + w
        if halts:
            halted += w
    classes = []
    for slots, w in weights.items():
        mask = bits = 0
        for kind, bit in slots:
            mask = mask << 1 | (kind == "lit")
            bits = bits << 1 | (bit == "1")
        classes.append((len(slots), mask, bits, w))
    return Census(tuple(classes), sum(weights.values()), halted)


@dataclass(frozen=True)
class Hypothesis:
    program: Program
    prior: Fraction
    posterior: Fraction


@dataclass(frozen=True)
class Mixture:
    census: Census
    history: str
    cfg: MachineConfig
    bound: int  # enumeration bound L, quoted in all reports

    @property
    def normalizer(self) -> Fraction:
        """C = sum of 2**-len(P) over the class."""
        return Fraction(self.census.total, 2**self.bound)

    @property
    def hypotheses(self) -> tuple[Hypothesis, ...]:
        """Every enumerated program with its prior and its posterior given the history.

        Derived program by program on each access; queries never need it.
        """
        evidence = joint_probability(self, self.history)
        hyps = []
        for p in toyvm.enumerate_programs(self.bound):
            weight = Fraction(1 << (self.bound - len(p)), self.census.total)
            likelihood = toyvm.prefix_probability(p, self.history, self.cfg)
            posterior = weight * likelihood / evidence if evidence else Fraction(0)
            hyps.append(Hypothesis(p, weight, posterior))
        return tuple(hyps)


def build_mixture(bound: int, cfg: MachineConfig | None = None) -> Mixture:
    """Mixture over all programs of length <= bound, fresh (empty history)."""
    cfg = cfg or MachineConfig()
    return Mixture(census(bound, cfg), "", cfg, bound)


def mixture_snapshot(mixture: Mixture) -> list[dict]:
    """Reproducibility record: every hypothesis with its prior and posterior."""
    return [
        {
            "program": h.program.code,
            "prior": str(h.prior),
            "posterior": str(h.posterior),
        }
        for h in mixture.hypotheses
    ]


def joint_probability(mixture: Mixture, prefix: str) -> Fraction:
    """Pr under the mixture that the output starts with the given bits.

    Hypotheses that cannot emit len(prefix) bits within budget abstain and
    contribute nothing, to either this prefix or any extension of it.
    """
    toyvm.check_bits(prefix)
    n = len(prefix)
    target = int(prefix, 2) if prefix else 0
    mass = 0
    for length, mask, bits, weight in mixture.census.classes:
        if length >= n:
            shift = length - n
            literals = mask >> shift
            if ((bits >> shift) ^ target) & literals == 0:
                # the class matches with probability 2**-k, k = RAND slots
                # among the first n; on the scale 2**n that is 2**(n - k)
                mass += weight << literals.bit_count()
    if mass == 0:
        return Fraction(0)
    return Fraction(mass, mixture.census.total << n)


def predict_next(mixture: Mixture) -> Fraction:
    """Probability the next bit is 1: Pr[history + "1"] / Pr[history].

    Both sides of the ratio run over hypotheses that describe the next bit;
    a hypothesis that cannot emit len(history) + 1 bits within budget
    abstains and is excluded from numerator and denominator alike.  (The
    exclusion is what keeps Pr[next=0] + Pr[next=1] = 1 in the truncated
    mixture, whose hypotheses, unlike ideal ones, may fall silent.)
    """
    p1 = joint_probability(mixture, mixture.history + "1")
    p0 = joint_probability(mixture, mixture.history + "0")
    if p0 + p1 == 0:
        raise ZeroMassHistory(mixture.history)
    return p1 / (p0 + p1)


def update(mixture: Mixture, bit: str) -> Mixture:
    """Condition on one observed bit.

    Queries weigh classes by the history itself, so conditioning only
    records the bit; zero-mass hypotheses get posterior 0.
    """
    if bit not in ("0", "1"):
        raise ValueError(f"bit must be '0' or '1', got {bit!r}")
    return replace(mixture, history=mixture.history + bit)


@dataclass(frozen=True)
class RegretReport:
    """Per-step comparison of the mixture against one designated hypothesis.

    ratio_product telescopes to Pr_mixture[seq] / Pr_hypothesis[seq], which
    is always at least the hypothesis's raw weight 2**-len(Q).  mistakes[e]
    counts steps where the mixture's conditional undercuts the hypothesis's
    by more than the factor (1 - e).
    """

    q: Program
    sequence: str
    per_step_mixture: tuple[Fraction, ...]  # mixture conditional per bit
    per_step_hypothesis: tuple[Fraction, ...]  # hypothesis conditional per bit
    per_step_ratios: tuple[Fraction, ...]
    ratio_product: Fraction
    mistakes: dict[Fraction, int]
    max_step_ratio: Fraction
    nonmistake_log2_excess: dict[Fraction, float]


def regret_report(
    q: Program,
    sequence: str,
    mixture: Mixture,
    eps_list: list[Fraction],
) -> RegretReport:
    if len(q) > mixture.bound:
        raise ValueError("designated hypothesis is not in the mixture")
    if toyvm.prefix_probability(q, sequence, mixture.cfg) == 0:
        raise UnsupportedSequence(
            f"hypothesis assigns zero probability to {sequence!r}"
        )
    ratios: list[Fraction] = []
    p_us: list[Fraction] = []
    p_qs: list[Fraction] = []
    for n in range(1, len(sequence) + 1):
        head, full = sequence[: n - 1], sequence[:n]
        p_u = joint_probability(mixture, full) / joint_probability(mixture, head)
        p_q = toyvm.prefix_probability(q, full, mixture.cfg) / toyvm.prefix_probability(
            q, head, mixture.cfg
        )
        p_us.append(p_u)
        p_qs.append(p_q)
        ratios.append(p_u / p_q)
    product = Fraction(1)
    for r in ratios:
        product *= r
    mistakes = {}
    excess = {}
    for eps in eps_list:
        eps = Fraction(eps)
        mistakes[eps] = sum(1 for r in ratios if r < 1 - eps)
        # realized slack from steps where the mixture beat the hypothesis;
        # it bounds how many mistakes the product inequality permits
        excess[eps] = sum(
            math.log2(float(r)) for r in ratios if r >= 1 - eps and r > 1
        )
    return RegretReport(
        q=q,
        sequence=sequence,
        per_step_mixture=tuple(p_us),
        per_step_hypothesis=tuple(p_qs),
        per_step_ratios=tuple(ratios),
        ratio_product=product,
        mistakes=mistakes,
        max_step_ratio=max(ratios) if ratios else Fraction(1),
        nonmistake_log2_excess=excess,
    )


@dataclass(frozen=True)
class DiagonalStep:
    bit: str
    conditional: Fraction  # mixture probability of the realized bit
    cumulative: Fraction  # mixture probability of the whole realized prefix


def diagonal_sequence(mixture: Mixture, n: int) -> tuple[str, list[DiagonalStep]]:
    """Adversarial bits: pick whichever next bit the mixture finds less likely.

    Each realized bit gets conditional probability <= 1/2, so the mixture's
    probability on the prefix decays at least as fast as 2**-n.  Raises
    ZeroMassHistory (with the failing step) if the walk exhausts the bounded
    support of the truncated mixture.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    history = ""
    steps: list[DiagonalStep] = []
    for i in range(1, n + 1):
        denom = joint_probability(mixture, history)
        if denom == 0:
            raise ZeroMassHistory(history, step=i)
        p1 = joint_probability(mixture, history + "1")
        p0 = joint_probability(mixture, history + "0")
        if p0 == 0 and p1 == 0:
            raise ZeroMassHistory(history, step=i)
        bit = "0" if p1 > p0 else "1"
        chosen = p0 if bit == "0" else p1
        history += bit
        steps.append(DiagonalStep(bit, chosen / denom, chosen))
    return history, steps


def omega_truncated(bound: int, cfg: MachineConfig | None = None) -> Fraction:
    """Sum of 2**-len(P) over enumerated programs that surely halt in budget.

    "Surely" is per-branch, but control flow never depends on random bits,
    so one run decides it.  Monotone nondecreasing in both the bound and the
    step budget.  The empty program halts immediately by convention, so the
    value at bound 1 is exactly 1/2.
    """
    cfg = cfg or MachineConfig()
    return Fraction(census(bound, cfg).halted, 2**bound)
