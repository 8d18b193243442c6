"""Sequential prediction with the length-weighted program mixture.

The predictor enumerates every toy-machine program up to a length bound L
and mixes their output distributions with weights 2**-len(P) / C, where C is
the Kraft normalizer over the enumerated class.  Prediction is Bayesian
conditioning: the estimate for the next bit is M(h1) / (M(h0) + M(h1)),
M(x) the mixture's probability that the output starts with x and h the
history.  It differs from M(h1) / M(h), the conditional that regret and the
diagonal walk report, when some hypothesis abstains after h.

Control flow never reads the random stream, so a program's whole
contribution is its output template, its halting flag and its length.  The
mixture reads toyvm.census, the one cached run of the enumerated class that
also feeds omega_truncated and complexity's K: each distinct template
carries the integer weight sum of 2**(L - len(P)) over the programs that
produce it.  A mixture's memory is its survivors, the classes that can still
emit the history: conditioning narrows them, and queries sum over them, not
programs, with the same Fractions as the per-program sum.  The snapshot and
regret read the programs' classes from the census, so neither runs a program.

Everything here is exact dyadic-rational arithmetic (fractions.Fraction):
the toy machine only ever produces probabilities 2**-k, so log-domain floats
would buy nothing and cost exactness.  All reported quantities are relative
to the enumerated class ("toyvm-1, L=...") and claims should be quoted with
that regime attached.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import toyvm
from .errors import KnightianError
from .toyvm import MachineConfig, Program


class ZeroMassHistory(KnightianError):
    """No next bit after the history has mass in the (bounded) truncated mixture."""

    def __init__(self, history: str, bound: int, step: int | None = None):
        at = f"after 'history' = {history!r}"
        if step is not None:
            at = f"at step {step} of 'n', after {history!r},"
        super().__init__(f"no bit {at} has mixture mass at 'bound' = {bound}")
        self.history = history
        self.step = step


class UnsupportedSequence(KnightianError):
    """The designated hypothesis assigns the sequence zero probability."""


@dataclass(frozen=True)
class Hypothesis:
    program: Program
    prior: Fraction
    posterior: Fraction


@dataclass(frozen=True)
class Mixture:
    census: toyvm.Census
    bound: int  # enumeration bound L, quoted in all reports
    history: str
    survivors: tuple[tuple[int, int], ...]  # (class index, literal count), as update says

    @property
    def normalizer(self) -> Fraction:
        """C = sum of 2**-len(P) over the class."""
        return Fraction(self.census.total, 2**self.bound)

    @property
    def hypotheses(self) -> tuple[Hypothesis, ...]:
        """Every enumerated program with its prior and its posterior given the history.

        Derived on each access: each program reads its class's likelihood, on
        the scale 2**len(history), from the survivors.
        """
        classes, total = self.census.classes, self.census.total
        lits = dict(self.survivors)
        mass = sum(classes[k][3] << lits[k] for k in lits)
        hyps = []
        for p, k in zip(toyvm.enumerate_programs(self.bound), self.census.members):
            weight = 1 << (self.bound - len(p))
            posterior = Fraction(weight << lits[k], mass) if k in lits else Fraction(0)
            hyps.append(Hypothesis(p, Fraction(weight, total), posterior))
        return tuple(hyps)


def build_mixture(bound: int, cfg: MachineConfig = MachineConfig()) -> Mixture:
    """Mixture over all programs of length <= bound, fresh (empty history)."""
    census = toyvm.census(bound, cfg)
    return Mixture(census, bound, "", tuple((k, 0) for k in range(len(census.classes))))


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


def joint_probability(mixture: Mixture, bits: str = "") -> Fraction:
    """Pr under the mixture that the output starts with history + bits.

    Hypotheses that cannot emit that many bits within budget abstain and
    contribute nothing, to either this prefix or any extension of it.
    """
    for bit in bits:
        mixture = update(mixture, bit)
    classes = mixture.census.classes
    mass = sum(classes[k][3] << lits for k, lits in mixture.survivors)
    if mass == 0:  # the census is empty at bound 0, so its total is 0 too
        return Fraction(0)
    return Fraction(mass, mixture.census.total << len(mixture.history))


def predict_next(mixture: Mixture) -> Fraction:
    """Probability the next bit is 1: M(h1) / (M(h0) + M(h1)), h the history.

    The denominator runs over hypotheses that describe the next bit, so it
    is not M(h): a hypothesis that cannot emit len(history) + 1 bits within
    budget abstains and is excluded from numerator and denominator alike.
    (The exclusion is what keeps Pr[next=0] + Pr[next=1] = 1 in the
    truncated mixture, whose hypotheses, unlike ideal ones, may fall silent.)
    """
    p1 = joint_probability(mixture, "1")
    p0 = joint_probability(mixture, "0")
    if p0 + p1 == 0:
        raise ZeroMassHistory(mixture.history, mixture.bound)
    return p1 / (p0 + p1)


def update(mixture: Mixture, bit: str) -> Mixture:
    """Condition on one observed bit by narrowing the survivors.

    A class emits the history h with probability 2**(count - len(h)), count
    its literal slots among the first len(h).  It stays if it is longer than h
    and its slot len(h) is the bit or a RAND slot; no extension brings a
    dropped class back, and its programs get posterior 0.
    """
    if bit not in ("0", "1"):
        raise ValueError(f"bit must be '0' or '1', got {bit!r}")
    n, want = len(mixture.history), int(bit)
    survivors = []
    for k, lits in mixture.survivors:
        length, mask, bits, _weight = mixture.census.classes[k]
        shift = length - 1 - n  # slot n's bit in the mask and the bits
        if shift >= 0 and ((bits >> shift) ^ want) & (mask >> shift) & 1 == 0:
            survivors.append((k, lits + ((mask >> shift) & 1)))
    return replace(mixture, history=mixture.history + bit, survivors=tuple(survivors))


@dataclass(frozen=True)
class RegretReport:
    """Per-step comparison of the mixture against one designated hypothesis.

    cumulative[n] is Pr_mixture[seq[:n]] / Pr_hypothesis[seq[:n]], so each
    step's ratio is cumulative[n] / cumulative[n - 1], and ratio_product, the
    last entry, is always at least the hypothesis's raw weight 2**-len(Q).
    mistakes[e] counts steps where the mixture's conditional undercuts the
    hypothesis's by more than the factor (1 - e).
    """

    q: Program
    sequence: str
    per_step_mixture: tuple[Fraction, ...]  # M(hb) / M(h) per bit b, h the bits before it
    per_step_hypothesis: tuple[Fraction, ...]  # the same ratio under the hypothesis alone
    per_step_ratios: tuple[Fraction, ...]
    cumulative: tuple[Fraction, ...]  # one entry per prefix, the empty one first
    mistakes: dict[Fraction, int]

    @property
    def ratio_product(self) -> Fraction:
        return self.cumulative[-1]


def regret_report(
    q: Program,
    sequence: str,
    mixture: Mixture,
    eps_list: list[Fraction],
) -> RegretReport:
    if mixture.history:
        raise ValueError(f"regret needs a fresh mixture, got history {mixture.history!r}")
    if len(q) > mixture.bound:
        raise ValueError(
            f"'q' has {len(q)} bits, more than 'bound' = {mixture.bound}, "
            "so the designated hypothesis is not in the mixture"
        )
    # the bodies of length L sit at 2**L - 1 onward, in lex order
    q_class = mixture.census.members[2 ** len(q.body) - 1 + int("0" + q.body, 2)]
    alone = replace(mixture, survivors=((q_class, 0),))
    q_prior = joint_probability(alone)
    p_u, p_q = [joint_probability(mixture)], [Fraction(1)]
    for bit in sequence:
        mixture, alone = update(mixture, bit), update(alone, bit)
        p_u.append(joint_probability(mixture))
        p_q.append(joint_probability(alone) / q_prior)
    if p_q[-1] == 0:
        raise UnsupportedSequence(
            f"hypothesis 'q' assigns zero probability to 'sequence' = {sequence!r}"
        )
    # the mixture holds q, so it gives every prefix q supports a positive mass
    cumulative = [u / h for u, h in zip(p_u, p_q)]
    steps = range(1, len(p_u))
    ratios = [cumulative[n] / cumulative[n - 1] for n in steps]
    mistakes = {eps: sum(1 for r in ratios if r < 1 - eps) for eps in eps_list}
    return RegretReport(
        q=q,
        sequence=sequence,
        per_step_mixture=tuple(p_u[n] / p_u[n - 1] for n in steps),
        per_step_hypothesis=tuple(p_q[n] / p_q[n - 1] for n in steps),
        per_step_ratios=tuple(ratios),
        cumulative=tuple(cumulative),
        mistakes=mistakes,
    )


@dataclass(frozen=True)
class DiagonalStep:
    bit: str
    conditional: Fraction  # M(hb) / M(h), b the realized bit and h the bits before it
    cumulative: Fraction  # M(hb), the mixture probability of the whole realized prefix


def diagonal_sequence(mixture: Mixture, n: int) -> tuple[str, list[DiagonalStep]]:
    """Adversarial bits: pick whichever next bit the mixture finds less likely.

    The walk extends the mixture's history and returns the n bits it adds.
    Each realized bit gets conditional probability <= 1/2, so the mixture's
    probability on the prefix decays at least as fast as 2**-n.  Raises
    ZeroMassHistory (with the failing step) if the walk exhausts the bounded
    support of the truncated mixture.
    """
    if n < 1:
        raise ValueError(f"'n' = {n} must be >= 1")
    steps: list[DiagonalStep] = []
    denom = joint_probability(mixture)
    for i in range(1, n + 1):
        one, zero = update(mixture, "1"), update(mixture, "0")
        p1, p0 = joint_probability(one), joint_probability(zero)
        if p0 == p1 == 0:
            raise ZeroMassHistory(mixture.history, mixture.bound, step=i)
        mixture, chosen = (zero, p0) if p1 > p0 else (one, p1)
        steps.append(DiagonalStep(mixture.history[-1], chosen / denom, chosen))
        denom = chosen
    return "".join(step.bit for step in steps), steps


def omega_truncated(bound: int, cfg: MachineConfig = MachineConfig()) -> Fraction:
    """Sum of 2**-len(P) over enumerated programs that surely halt in budget.

    "Surely" is per-branch, but control flow never depends on random bits,
    so one run decides it.  Monotone nondecreasing in both the bound and the
    step budget.  The empty program halts immediately by convention, so the
    value at bound 1 is exactly 1/2.
    """
    return Fraction(toyvm.census(bound, cfg).halted, 2**bound)
