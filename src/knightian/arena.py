"""Sequential prediction games against finite-state subjects.

A subject is a total finite-state machine: for every (state, input bit) it
names a successor state and an emission, which is a literal bit, a coin flip
with a fixed bias, or a *freebit* — a one-shot Knightian bit whose value is
not drawn from any distribution.  Transitions depend on the input only, so
the state path is determined by the input trace and emissions never feed
back; the "godlike" suffix distribution conditional on realized inputs is an
exact product over steps.

The game: a predictor reads the recorded inputs and behaviors of the first t
steps, then must publish a forecast — a conditional distribution over the
remaining behavior, as a function of the future inputs, satisfying the
causal property (its opinion about bit v may not depend on inputs after v;
run_game probes this with paired input paths and rejects violators).  The
forecast is scored by variation distance against the true conditional
distribution on the realized input path.  Freebits are resolved adversarially
after the forecast is shown (or obliviously, under a config flag), each index
consumable exactly once; a verdict aggregates trials into a pass fraction
with an exact Clopper-Pearson interval.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import KnightianError

HORIZON_GUARD = 20
FREEBIT_GUARD = 16
# clopper_pearson multiplies math.comb(trials, i) by floats; 1029 is the largest
# trials for which every comb(trials, i) converts to a float
TRIALS_GUARD = 1029
# the largest game end u (a classify horizon) and table context, as a context
# past the input trace keys nothing new: with u - t = 2, TRIALS_GUARD trials
# of a table game at the guard take about 4 s on a 2-core Xeon VM (27 s at 4096)
TIME_GUARD = 1024
# of the verdict's Clopper-Pearson interval, reported as confidence_interval_95
CONFIDENCE = 0.95


class SubjectSpecError(KnightianError):
    pass


class HorizonTooLong(KnightianError):
    pass


class BudgetTooLarge(KnightianError):
    pass


class ForecastViolatesCausality(KnightianError):
    pass


# -- subjects --------------------------------------------------------------------

Emission = tuple  # ("bit", "0"|"1") | ("prob", Fraction) | ("freebit", int)


@dataclass(frozen=True)
class Edge:
    to: str
    emit: Emission


@dataclass(frozen=True)
class Subject:
    states: tuple[str, ...]
    initial: str
    edges: dict[tuple[str, str], Edge]
    freebit_budget: int

    def __post_init__(self):
        if not 0 <= self.freebit_budget <= FREEBIT_GUARD:
            raise BudgetTooLarge(
                f"'freebit_budget' = {self.freebit_budget} must lie in [0, {FREEBIT_GUARD}]"
            )
        if self.initial not in self.states:
            raise SubjectSpecError(f"'initial' state {self.initial!r} is not in 'states'")
        for s in self.states:
            for i in "01":
                if (s, i) not in self.edges:
                    raise SubjectSpecError(f"'edges' has no edge from {s!r} on input {i!r}")
        for (s, i), edge in self.edges.items():
            if s not in self.states:
                raise SubjectSpecError(f"an edge has 'from' state {s!r}, not in 'states'")
            if edge.to not in self.states:
                raise SubjectSpecError(
                    f"the edge from {s!r} on input {i!r} has 'to' state {edge.to!r}, not in 'states'"
                )
            kind = edge.emit[0]
            if kind == "bit":
                if edge.emit[1] not in ("0", "1"):
                    raise SubjectSpecError(f"literal 'emit' {edge.emit[1]!r} must be '0' or '1'")
            elif kind == "prob":
                p = edge.emit[1]
                if not (0 <= p <= 1):
                    raise SubjectSpecError(f"'prob' = {p} must lie in [0, 1]")
            elif kind == "freebit":
                if not (0 <= edge.emit[1] < self.freebit_budget):
                    raise SubjectSpecError(
                        f"'freebit' = {edge.emit[1]} must lie in [0, 'freebit_budget' = "
                        f"{self.freebit_budget})"
                    )
            else:
                raise SubjectSpecError(f"unknown 'emit' kind {kind!r}")


def subject_from_payload(payload: dict) -> Subject:
    edges = {}
    for k, e in enumerate(payload["edges"]):
        emit = e["emit"]
        if isinstance(emit, str):
            emission: Emission = ("bit", emit)
        elif "prob" in emit:
            emission = ("prob", emit["prob"])
        else:
            emission = ("freebit", emit["freebit"])
        key = (e["from"], e["on_input"])
        if key in edges:
            raise SubjectSpecError(
                f"'edges'[{k}] is a second edge from {key[0]!r} on input {key[1]!r}"
            )
        edges[key] = Edge(e["to"], emission)
    return Subject(
        states=tuple(payload["states"]),
        initial=payload["initial"],
        edges=edges,
        freebit_budget=payload.get("freebit_budget", 0),
    )


def _window_emissions(subject: Subject, inputs: str, t: int, u: int) -> list[Emission]:
    """The emissions over [t, u) on the realized inputs, guards checked first.

    Each freebit index may be consumed at most once along the walk; reuse is a
    spec error (a one-shot resource cannot influence two behavior bits).
    """
    check_window(t, u)
    if len(inputs) < u:
        raise ValueError("input trace shorter than the horizon")
    state = subject.initial
    for v in range(t):
        state = subject.edges[(state, inputs[v])].to
    consumed: set[int] = set()
    emissions = []
    for v in range(t, u):
        edge = subject.edges[(state, inputs[v])]
        if edge.emit[0] == "freebit":
            if edge.emit[1] in consumed:
                raise SubjectSpecError(
                    f"freebit {edge.emit[1]} consumed twice (double duty is forbidden)"
                )
            consumed.add(edge.emit[1])
        emissions.append(edge.emit)
        state = edge.to
    return emissions


def _law(emit: Emission) -> dict | None:
    """Weights of behavior bits "0" and "1" under a literal or coin emission, else None.

    A literal weighs int 0 and 1: products with Fractions stay cheap.
    """
    kind, value = emit
    if kind == "bit":
        return {"0": int(value == "0"), "1": int(value == "1")}
    if kind == "prob":
        return {"0": 1 - value, "1": value}
    return None


def true_distribution(
    subject: Subject,
    inputs: str,
    t: int,
    u: int,
    assignment: tuple[int, ...] = (),
) -> dict[str, Fraction]:
    """Exact distribution of behavior bits over [t, u) on the realized inputs.

    The godlike view: freebit values are pinned by the assignment, and each
    freebit index may be consumed at most once along the walk.
    """
    if len(assignment) != subject.freebit_budget:
        raise SubjectSpecError(
            f"assignment names {len(assignment)} freebits, budget is {subject.freebit_budget}"
        )
    dist = {"": Fraction(1)}
    for emit in _window_emissions(subject, inputs, t, u):
        law = _law(emit)
        if law is None:  # a freebit, pinned by the assignment
            law = {str(assignment[emit[1]]): 1}
        dist = {
            suffix + b: p * q
            for suffix, p in dist.items()
            for b, q in law.items()
            if q > 0
        }
    return dist


def variation_distance(d1: dict[str, Fraction], d2: dict[str, Fraction]) -> Fraction:
    """Half the L1 distance, over the union of supports."""
    keys = set(d1) | set(d2)
    total = sum((abs(d1.get(k, Fraction(0)) - d2.get(k, Fraction(0))) for k in keys), Fraction(0))
    return total / 2


# -- forecasts ---------------------------------------------------------------------


@dataclass(frozen=True)
class Forecast:
    """A conditional law for the behavior suffix: a machine over behavior bits.

    memory is what the forecast holds at time t; step(memory, v, inputs, b) is
    its memory after the behavior bit b at time v; conditional(memory, v,
    inputs) is the probability that the behavior bit at time v is 1.  Of the
    full input path, only the bits up to v may matter, to step and to
    conditional alike (the causal property).  Memory is hashable: it is all
    the forecast keeps of the past, so pasts that reach equal memories get
    equal conditionals at every later step, for every continuation.

    The scoring walk (_pattern_overlaps) merges the pasts that reach one
    memory, so prob_one checks the range only of the memories the walk
    reaches, once per merged node, and never on a branch the forecast or the
    subject gives weight 0.
    """

    memory: object  # hashable
    step: object  # callable (memory, v, inputs, b) -> memory
    conditional: object  # callable (memory, v, inputs) -> Fraction

    def prob_one(self, memory, v: int, inputs: str) -> Fraction:
        p = Fraction(self.conditional(memory, v, inputs))
        if not (0 <= p <= 1):
            raise ValueError(f"forecast produced {p}, not a probability")
        return p

    def fold(self, start: int, inputs: str, behavior: str):
        """The memory after the behavior bits, the first at time start."""
        memory = self.memory
        for v, b in enumerate(behavior, start=start):
            memory = self.step(memory, v, inputs, b)
        return memory


def forecast_distribution(
    forecast: Forecast, inputs: str, t: int, u: int
) -> dict[str, Fraction]:
    """The forecast's whole law over [t, u), one entry per suffix it gives mass.

    Up to 2^(u - t) entries; the scoring walk never builds it, and the tests
    compare the walk with sums over it.
    """
    dist = {"": (Fraction(1), forecast.memory)}  # suffix -> (mass, memory after it)
    for v in range(t, u):
        new = {}
        for suffix, (p, memory) in dist.items():
            p1 = forecast.prob_one(memory, v, inputs)
            for b, q in (("0", 1 - p1), ("1", p1)):
                if q:
                    new[suffix + b] = (p * q, forecast.step(memory, v, inputs, b))
        dist = new
    return {suffix: p for suffix, (p, _) in dist.items()}


def probe_causality(forecast: Forecast, inputs: str, t: int, u: int, rng) -> None:
    """Reject forecasts whose opinion at v, through step or conditional, reads inputs after v."""
    if u - t < 2:
        return
    v = t + (u - t) // 2
    flipped = inputs[: v + 1] + "".join(
        "1" if b == "0" else "0" for b in inputs[v + 1 :]
    )
    past = "".join(rng.choice("01") for _ in range(v - t))

    def opinion(path: str) -> Fraction:
        return forecast.prob_one(forecast.fold(t, path, past), v, path)

    if opinion(inputs) != opinion(flipped):
        raise ForecastViolatesCausality(
            f"forecast at time {v} reacted to inputs after {v}"
        )


def _pattern_overlaps(
    subject: Subject, forecast: Forecast, inputs: str, t: int, u: int
) -> tuple[list[int], dict[str, Fraction]]:
    """Overlap of the forecast with the true law, per pattern of consumed freebits.

    An assignment a pins only the bits at the steps that consume a freebit, and
    no index is consumed twice, so each suffix s fixes the values of the
    freebits it consumes (its pattern), and the true law g_a(s) is either the
    product c(s) of its literal and coin weights or 0.  Returns the consumed
    indices in ascending order and, keyed by pattern (their bits in that
    order), the sum of min(f(s), c(s)) over the suffixes with f(s) c(s) > 0.
    Both laws sum to exactly 1, so TV(f, g_a) = 1 - the overlap of a's pattern.

    The suffixes are walked level by level, and prefixes that agree on the
    forecast's memory, f, c and the pattern so far are lumped into one node
    with a multiplicity, as every continuation adds the same to each of them
    (lumpability: Kemeny and Snell, Finite Markov Chains, 1960).
    Children with f = 0 or c = 0 are dropped.  So the forecast is asked once
    per node.
    """
    emissions = _window_emissions(subject, inputs, t, u)
    # node (memory, f, c, pattern in position order) -> multiplicity
    level = {(forecast.memory, Fraction(1), 1, ""): 1}
    for v, emit in enumerate(emissions, start=t):
        law = _law(emit)
        children: dict[tuple, int] = {}
        for (memory, f, c, pattern), mult in level.items():
            p1 = forecast.prob_one(memory, v, inputs)
            for b, q in (("0", 1 - p1), ("1", p1)):
                weight = 1 if law is None else law[b]
                if q and weight:
                    child = (forecast.step(memory, v, inputs, b), f * q, c * weight,
                             pattern + b if law is None else pattern)
                    children[child] = children.get(child, 0) + mult
        level = children
    # a pattern's bits go in ascending freebit index, not in position order
    consumed = [value for kind, value in emissions if kind == "freebit"]
    order = sorted(range(len(consumed)), key=consumed.__getitem__)
    overlaps: dict[str, Fraction] = {}
    for (_, f, c, pattern), mult in level.items():
        pattern = "".join(map(pattern.__getitem__, order))
        overlaps[pattern] = overlaps.get(pattern, Fraction(0)) + mult * min(f, c)
    return sorted(consumed), overlaps


def adversary_resolution(
    subject: Subject,
    forecast: Forecast,
    inputs: str,
    t: int,
    u: int,
) -> tuple[tuple[int, ...], Fraction]:
    """Worst-case freebit assignment for the forecast, ties to the smallest.

    One walk over the forecast's distinct futures scores every assignment at
    once (see _pattern_overlaps).  The worst case is the first pattern of
    least overlap in lexicographic order, with every freebit the window does
    not consume set to 0: the first of the worst assignments in
    itertools.product order.
    """
    consumed, overlaps = _pattern_overlaps(subject, forecast, inputs, t, u)
    worst, least = "", None
    for bits in itertools.product("01", repeat=len(consumed)):
        pattern = "".join(bits)
        overlap = overlaps.get(pattern, Fraction(0))
        if least is None or overlap < least:
            worst, least = pattern, overlap
            if overlap == 0:
                break  # nothing scores lower
    assignment = [0] * subject.freebit_budget
    for idx, bit in zip(consumed, worst):
        assignment[idx] = int(bit)
    return tuple(assignment), 1 - least


# -- predictors --------------------------------------------------------------------
#
# A predictor is a value: emit_forecast(inputs, behavior) reads the record of the
# first t steps and returns the forecast, so one predictor serves every trial.


class TablePredictor:
    """Model-free frequency table over short input contexts.

    Keys the behavior bit at v by the input window (i_{v-k} ... i_v); unseen
    contexts get the noncommittal 1/2.  Enough to pin down any subject whose
    emission is a function of the last k+1 inputs, once training covered the
    contexts.
    """

    def __init__(self, context: int):
        if not 0 <= context <= TIME_GUARD:
            raise ValueError(f"'context' must lie in [0, {TIME_GUARD}], got {context}")
        self.context = context

    def _key(self, inputs_through_v: str) -> str:
        w = self.context + 1
        window = inputs_through_v[-w:]
        return "^" * (w - len(window)) + window

    def emit_forecast(self, inputs: str, behavior: str) -> Forecast:
        counts: dict[str, list[int]] = {}
        for v, b in enumerate(behavior):
            counts.setdefault(self._key(inputs[: v + 1]), [0, 0])[int(b)] += 1

        def conditional(memory: None, v: int, inputs: str) -> Fraction:
            zeros, ones = counts.get(self._key(inputs[: v + 1]), (1, 1))  # unseen: 1/2
            return Fraction(ones, zeros + ones)

        # the conditional reads no behavior bit, so nothing need be remembered
        return Forecast(None, lambda memory, v, inputs, b: None, conditional)


class BayesPredictor:
    """Exact Bayesian filter over a finite family of candidate subjects.

    The reference class is handed to the constructor as a list of subjects.
    Freebit emissions carry no distribution, so the filter scores them as
    fair coin flips — the noncommittal likelihood — both in training and in
    the posterior-predictive forecast.
    """

    def __init__(self, family: list[Subject]):
        if not family:
            raise SubjectSpecError("a Bayes predictor needs a nonempty 'family'")
        self.family = tuple(family)

    @staticmethod
    def _likelihood(subject: Subject, state: str, input_bit: str, behavior_bit: str) -> Fraction:
        law = _law(subject.edges[(state, input_bit)].emit)
        return Fraction(1, 2) if law is None else law[behavior_bit]

    def _step(self, memory: tuple, v: int, inputs: str, b: str) -> tuple[tuple, tuple]:
        """The filter after behavior bit b at time v: reweigh, normalize, move on."""
        weights, states = memory
        new_w = [
            w * self._likelihood(cand, s, inputs[v], b)
            for w, cand, s in zip(weights, self.family, states)
        ]
        total = sum(new_w, Fraction(0))
        weights = tuple(w / total for w in new_w) if total > 0 else tuple(new_w)
        states = tuple(cand.edges[(s, inputs[v])].to for cand, s in zip(self.family, states))
        return weights, states

    def _conditional(self, memory: tuple, v: int, inputs: str) -> Fraction:
        weights, states = memory
        if not any(weights):  # _step normalized them: they sum to 1 or are all 0
            return Fraction(1, 2)
        p = Fraction(0)
        for w, cand, s in zip(weights, self.family, states):
            p += w * self._likelihood(cand, s, inputs[v], "1")
        return p

    def emit_forecast(self, inputs: str, behavior: str) -> Forecast:
        n = len(self.family)
        prior = ((Fraction(1, n),) * n, tuple(c.initial for c in self.family))
        forecast = Forecast(prior, self._step, self._conditional)
        return replace(forecast, memory=forecast.fold(0, inputs, behavior))


# -- the game ----------------------------------------------------------------------


def check_window(t: int, u: int, end: str = "'u'", where: str = "") -> None:
    """Raise unless the game window [t, u) is nonempty and within the guards; end names u."""
    if not 0 <= t < u:
        raise ValueError(f"{where}need 0 <= 't' < {end}, got 't' = {t}, {end} = {u}")
    if u - t > HORIZON_GUARD:
        raise HorizonTooLong(f"{where}{end} - 't' = {u - t} exceeds {HORIZON_GUARD}")
    if u > TIME_GUARD:
        raise BudgetTooLarge(f"{where}{end} = {u} exceeds {TIME_GUARD}")


@dataclass(frozen=True)
class GameConfig:
    t: int
    u: int
    epsilon: Fraction
    delta: Fraction
    trials: int
    seed: int
    input_model: dict = field(default_factory=lambda: {"kind": "uniform"})
    adversary: str = "adaptive"  # or "oblivious"

    def __post_init__(self):
        check_window(self.t, self.u)
        for name, value in (("epsilon", self.epsilon), ("delta", self.delta)):
            if not 0 < value < 1:
                raise ValueError(f"{name!r} = {value} must lie in (0, 1)")
        if self.trials < 1:
            raise ValueError(f"'trials' = {self.trials} must be >= 1")
        if self.trials > TRIALS_GUARD:
            raise BudgetTooLarge(f"'trials' = {self.trials} exceeds {TRIALS_GUARD}")
        if self.adversary not in ("adaptive", "oblivious"):
            raise ValueError(f"'adversary' = {self.adversary!r} must be 'adaptive' or 'oblivious'")


def draw_inputs(model: dict, length: int, rng: random.Random) -> str:
    kind = model["kind"]
    if kind == "uniform":
        return "".join(rng.choice("01") for _ in range(length))
    if kind == "fixed":
        pattern = model["bits"]
        if not pattern:
            raise ValueError("a fixed input model needs a nonempty 'bits' pattern")
        reps = -(-length // len(pattern))
        return (pattern * reps)[:length]
    raise ValueError(f"unknown input model {kind!r}")


def clopper_pearson(k: int, n: int) -> tuple[float, float]:
    """Exact binomial interval at level CONFIDENCE, by bisection on the tail sums."""
    alpha = 1 - CONFIDENCE

    def bisect(tail: range, lo: float, hi: float) -> float:
        """The p between lo and hi where P(X in tail) falls below alpha / 2 going toward hi."""
        for _ in range(80):
            mid = (lo + hi) / 2
            if sum(math.comb(n, i) * mid**i * (1 - mid) ** (n - i) for i in tail) < alpha / 2:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2

    lower = 0.0 if k == 0 else bisect(range(k, n + 1), 1.0, 0.0)  # P(X >= k)
    upper = 1.0 if k == n else bisect(range(0, k + 1), 0.0, 1.0)  # P(X <= k)
    return lower, upper


@dataclass(frozen=True)
class Verdict:
    """A game and the variation distance of each of its trials."""

    game: GameConfig
    distances: tuple[Fraction, ...]

    @property
    def pass_fraction(self) -> Fraction:
        """The share of trials whose distance is below epsilon."""
        return Fraction(sum(d < self.game.epsilon for d in self.distances), self.game.trials)

    @property
    def passed(self) -> bool:
        return self.pass_fraction >= 1 - self.game.delta

    def to_payload(self) -> dict:
        game, fraction = self.game, self.pass_fraction
        return {
            "trials": game.trials,
            "seed": game.seed,
            "epsilon": str(game.epsilon),
            "delta": str(game.delta),
            "distances": [str(d) for d in self.distances],
            "distances_float": [float(d) for d in self.distances],
            "pass_fraction": str(fraction),
            "pass_fraction_float": float(fraction),
            "passed": self.passed,
            "confidence_interval_95": list(
                clopper_pearson(int(fraction * game.trials), game.trials)
            ),
        }


def run_game(subject: Subject, predictor, cfg: GameConfig) -> Verdict:
    """Play cfg.trials independent games; the verdict is cfg and their distances.

    The subject and the predictor are values, shared by every trial.  Per
    trial: fresh exogenous inputs; the subject's behavior over [0, t) is
    recorded, the predictor reads the record and publishes a forecast, and
    the forecast is scored by variation distance on the realized input path,
    with freebits resolved worst-case after the forecast (or rng-resolved
    when cfg.adversary is "oblivious").  Identical configs and seeds replay
    bit-for-bit.
    """
    distances: list[Fraction] = []
    for trial in range(cfg.trials):
        rng = random.Random(f"{cfg.seed}:{trial}")
        inputs = draw_inputs(cfg.input_model, cfg.u, rng)
        state = subject.initial
        behavior = ""
        for v in range(cfg.t):
            edge = subject.edges[(state, inputs[v])]
            kind = edge.emit[0]
            if kind == "bit":
                b = edge.emit[1]
            elif kind == "prob":
                b = "1" if rng.random() < float(edge.emit[1]) else "0"
            else:
                raise SubjectSpecError(
                    "freebit consumed during training; adversarial resolution "
                    "after the forecast would contradict streamed observations"
                )
            behavior += b
            state = edge.to
        forecast = predictor.emit_forecast(inputs[: cfg.t], behavior)
        probe_causality(forecast, inputs, cfg.t, cfg.u, rng)
        if cfg.adversary == "adaptive":
            _, distance = adversary_resolution(subject, forecast, inputs, cfg.t, cfg.u)
        else:
            assignment = tuple(
                rng.choice((0, 1)) for _ in range(subject.freebit_budget)
            )
            consumed, overlaps = _pattern_overlaps(subject, forecast, inputs, cfg.t, cfg.u)
            pattern = "".join(str(assignment[idx]) for idx in consumed)
            distance = 1 - overlaps.get(pattern, Fraction(0))
        distances.append(distance)
    return Verdict(cfg, tuple(distances))


UNPREDICTED_DISCLAIMER = (
    "certifies failure of the supplied predictor family only; it is not a "
    "proof that no predictor exists"
)


def classify(
    reference_class: list[Subject],
    predictors: list[tuple[str, object]],
    games: list[GameConfig],
) -> dict:
    """Label a reference class by playing every game with every named predictor.

    "mechanistic-at-scale" when some supplied predictor passes every game for
    every subject in the class; "unpredicted-at-scale" otherwise (see the
    disclaimer in the report).  An empty class, predictor list or game list
    is named by its CLI key: 'class', 'predictors' or 'schedule'.
    """
    # a label rests on games played: at least one per subject and predictor
    for key, items in (("class", reference_class), ("predictors", predictors), ("schedule", games)):
        if not items:
            raise KnightianError(f"{key!r} is empty: a class is labelled only by games played")
    results = []
    label = "unpredicted-at-scale"
    for name, predictor in predictors:
        all_pass = True
        for cfg in games:
            for s_idx, subject in enumerate(reference_class):
                verdict = run_game(subject, predictor, cfg)
                results.append(
                    {
                        "predictor": name,
                        "subject_index": s_idx,
                        "t": cfg.t,
                        "epsilon": str(cfg.epsilon),
                        "delta": str(cfg.delta),
                        "verdict": verdict.to_payload(),
                    }
                )
                all_pass = all_pass and verdict.passed
        if all_pass:
            label = "mechanistic-at-scale"
    return {
        "label": label,
        "runs": results,
        "note": UNPREDICTED_DISCLAIMER if label == "unpredicted-at-scale" else "",
    }


# -- stock subjects ----------------------------------------------------------------


def parrot() -> Subject:
    """Emits the previous input bit (0 before any input); deterministic."""
    edges = {}
    for prev in "01":
        for i in "01":
            edges[(f"s{prev}", i)] = Edge(f"s{i}", ("bit", prev))
    return Subject(("s0", "s1"), "s0", edges, 0)


def fair_coin() -> Subject:
    """Emits a fair bit every step, inputs ignored; noisy but fully known."""
    edges = {("s", i): Edge("s", ("prob", Fraction(1, 2))) for i in "01"}
    return Subject(("s",), "s", edges, 0)


def one_freebit(flip_at: int, horizon: int) -> Subject:
    """Emits zeros except at one step, where the bit is a fresh freebit."""
    states = tuple(f"c{v}" for v in range(horizon + 1))
    edges = {}
    for v in range(horizon):
        emit: Emission = ("freebit", 0) if v == flip_at else ("bit", "0")
        for i in "01":
            edges[(f"c{v}", i)] = Edge(f"c{v + 1}", emit)
    for i in "01":
        edges[(f"c{horizon}", i)] = Edge(f"c{horizon}", ("bit", "0"))
    return Subject(states, "c0", edges, 1)


def gerbil_hybrid() -> Subject:
    """Four states: echo the input, then its negation, one freebit, then zeros."""
    edges = {}
    for i in "01":
        edges[("a", i)] = Edge("b", ("bit", i))
        edges[("b", i)] = Edge("c", ("bit", "1" if i == "0" else "0"))
        edges[("c", i)] = Edge("d", ("freebit", 0))
        edges[("d", i)] = Edge("d", ("bit", "0"))
    return Subject(("a", "b", "c", "d"), "a", edges, 1)


STOCK_SUBJECTS = {
    "parrot": parrot,
    "fair-coin": fair_coin,
    "gerbil": gerbil_hybrid,
}
