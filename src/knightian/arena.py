"""Sequential prediction games against finite-state subjects.

A subject is a total finite-state machine: for every (state, input bit) it
names a successor state and an emission, which is a literal bit, a coin flip
with a fixed bias, or a *freebit* — a one-shot Knightian bit whose value is
not drawn from any distribution.  Transitions depend on the input only, so
the state path is determined by the input trace and emissions never feed
back; the "godlike" suffix distribution conditional on realized inputs is an
exact product over steps.

The game: a predictor watches carbon-copied inputs and behaviors for t
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
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import KnightianError

HORIZON_GUARD = 20
FREEBIT_GUARD = 16
# clopper_pearson multiplies math.comb(trials, i) by floats; 1029 is the largest
# trials for which every comb(trials, i) converts to a float
TRIALS_GUARD = 1029


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
    kind: str  # deterministic | noisy | freebit | hybrid
    states: tuple[str, ...]
    initial: str
    edges: dict[tuple[str, str], Edge]
    freebit_budget: int

    def __post_init__(self):
        if self.initial not in self.states:
            raise SubjectSpecError(f"initial state {self.initial!r} unknown")
        for s in self.states:
            for i in "01":
                if (s, i) not in self.edges:
                    raise SubjectSpecError(f"missing edge for ({s!r}, {i!r})")
        for (s, i), edge in self.edges.items():
            if s not in self.states or edge.to not in self.states:
                raise SubjectSpecError(f"edge ({s!r}, {i!r}) touches unknown state")
            kind = edge.emit[0]
            if kind == "bit":
                if edge.emit[1] not in ("0", "1"):
                    raise SubjectSpecError("literal emission must be '0' or '1'")
            elif kind == "prob":
                p = edge.emit[1]
                if not (0 <= p <= 1):
                    raise SubjectSpecError("emission bias must lie in [0, 1]")
            elif kind == "freebit":
                if self.freebit_budget == 0:
                    raise SubjectSpecError("freebit edge with zero freebit budget")
                if not (0 <= edge.emit[1] < self.freebit_budget):
                    raise SubjectSpecError("freebit index out of budget range")
            else:
                raise SubjectSpecError(f"unknown emission kind {kind!r}")


def subject_from_payload(payload: dict) -> Subject:
    edges = {}
    for e in payload["edges"]:
        emit = e["emit"]
        if isinstance(emit, str):
            emission: Emission = ("bit", emit)
        elif "prob" in emit:
            emission = ("prob", Fraction(str(emit["prob"])))
        elif "freebit" in emit:
            emission = ("freebit", int(emit["freebit"]))
        else:
            raise SubjectSpecError(f"unknown emission payload {emit!r}")
        edges[(e["from"], e["on_input"])] = Edge(e["to"], emission)
    return Subject(
        kind=payload.get("kind", "deterministic"),
        states=tuple(payload["states"]),
        initial=payload["initial"],
        edges=edges,
        freebit_budget=int(payload.get("freebit_budget", 0)),
    )


def subject_to_payload(subject: Subject) -> dict:
    edges = []
    for (s, i), edge in sorted(subject.edges.items()):
        emit: str | dict
        if edge.emit[0] == "bit":
            emit = edge.emit[1]
        elif edge.emit[0] == "prob":
            emit = {"prob": str(edge.emit[1])}
        else:
            emit = {"freebit": edge.emit[1]}
        edges.append({"from": s, "on_input": i, "to": edge.to, "emit": emit})
    return {
        "kind": subject.kind,
        "states": list(subject.states),
        "initial": subject.initial,
        "freebit_budget": subject.freebit_budget,
        "edges": edges,
    }


def _walk_states(subject: Subject, inputs: str, upto: int) -> str:
    state = subject.initial
    for v in range(upto):
        state = subject.edges[(state, inputs[v])].to
    return state


def true_distribution(
    subject: Subject,
    inputs: str,
    t: int,
    u: int,
    assignment: tuple[int, ...] = (),
) -> dict[str, Fraction]:
    """Exact distribution of behavior bits over [t, u) on the realized inputs.

    The godlike view: freebit values are pinned by the assignment.  Each
    freebit index may be consumed at most once along the walk; reuse is a
    spec error (a one-shot resource cannot influence two behavior bits).
    """
    if u - t > HORIZON_GUARD:
        raise HorizonTooLong(f"u - t = {u - t} exceeds {HORIZON_GUARD}")
    if len(inputs) < u:
        raise ValueError("input trace shorter than the horizon")
    if len(assignment) != subject.freebit_budget:
        raise SubjectSpecError(
            f"assignment names {len(assignment)} freebits, budget is {subject.freebit_budget}"
        )
    state = _walk_states(subject, inputs, t)
    consumed: set[int] = set()
    dist = {"": Fraction(1)}
    for v in range(t, u):
        edge = subject.edges[(state, inputs[v])]
        kind = edge.emit[0]
        if kind == "bit":
            step = {edge.emit[1]: Fraction(1)}
        elif kind == "prob":
            p = Fraction(edge.emit[1])
            step = {"1": p, "0": 1 - p}
        else:
            idx = edge.emit[1]
            if idx in consumed:
                raise SubjectSpecError(
                    f"freebit {idx} consumed twice (double duty is forbidden)"
                )
            consumed.add(idx)
            step = {str(assignment[idx]): Fraction(1)}
        dist = {
            suffix + b: p * q
            for suffix, p in dist.items()
            for b, q in step.items()
            if q > 0
        }
        state = edge.to
    return dist


def variation_distance(d1: dict[str, Fraction], d2: dict[str, Fraction]) -> Fraction:
    """Half the L1 distance, over the union of supports."""
    keys = set(d1) | set(d2)
    total = sum((abs(d1.get(k, Fraction(0)) - d2.get(k, Fraction(0))) for k in keys), Fraction(0))
    return total / 2


# -- forecasts ---------------------------------------------------------------------


@dataclass(frozen=True)
class Forecast:
    """A conditional law for the behavior suffix as a function of future inputs.

    conditional(v, inputs, past) is the probability that the behavior bit at
    time v is 1, given the full input path (of which only bits up to v may
    matter — the causal property) and the realized behavior bits past =
    b_t ... b_{v-1}.
    """

    t: int
    u: int
    conditional: object  # callable (v, inputs, past) -> Fraction

    def prob_one(self, v: int, inputs: str, past: str) -> Fraction:
        p = Fraction(self.conditional(v, inputs, past))
        if not (0 <= p <= 1):
            raise ValueError(f"forecast produced {p}, not a probability")
        return p


def forecast_distribution(
    forecast: Forecast, inputs: str, t: int, u: int
) -> dict[str, Fraction]:
    dist = {"": Fraction(1)}
    for v in range(t, u):
        new = {}
        for suffix, p in dist.items():
            p1 = forecast.prob_one(v, inputs, suffix)
            if p1 < 1:
                new[suffix + "0"] = p * (1 - p1)
            if p1 > 0:
                new[suffix + "1"] = p * p1
        dist = new
    return dist


def probe_causality(forecast: Forecast, inputs: str, t: int, u: int, rng) -> None:
    """Reject forecasts whose opinion at v depends on inputs after v."""
    if u - t < 2:
        return
    v = t + (u - t) // 2
    flipped = inputs[: v + 1] + "".join(
        "1" if b == "0" else "0" for b in inputs[v + 1 :]
    )
    past = "".join(rng.choice("01") for _ in range(v - t))
    if forecast.prob_one(v, inputs, past) != forecast.prob_one(v, flipped, past):
        raise ForecastViolatesCausality(
            f"forecast at time {v} reacted to inputs after {v}"
        )


def adversary_resolution(
    subject: Subject,
    forecast: Forecast,
    inputs: str,
    t: int,
    u: int,
) -> tuple[tuple[int, ...], Fraction]:
    """Worst-case freebit assignment for the forecast, ties to the smallest.

    Exhaustive over {0,1}**budget; the guard keeps that desk-scale.
    """
    if subject.freebit_budget > FREEBIT_GUARD:
        raise BudgetTooLarge(
            f"budget {subject.freebit_budget} exceeds {FREEBIT_GUARD}"
        )
    fdist = forecast_distribution(forecast, inputs, t, u)
    best: tuple[tuple[int, ...], Fraction] | None = None
    for assignment in itertools.product((0, 1), repeat=subject.freebit_budget):
        d = variation_distance(fdist, true_distribution(subject, inputs, t, u, assignment))
        if best is None or d > best[1]:
            best = (assignment, d)
    assert best is not None
    return best


# -- predictors --------------------------------------------------------------------


class TablePredictor:
    """Model-free frequency table over short input contexts.

    Keys the behavior bit at v by the input window (i_{v-k} ... i_v); unseen
    contexts get the noncommittal 1/2.  Enough to pin down any subject whose
    emission is a function of the last k+1 inputs, once training covered the
    contexts.
    """

    def __init__(self, context: int = 1):
        self.context = context
        self.counts: dict[str, list[int]] = {}
        self.inputs = ""

    def observe(self, input_bit: str, behavior_bit: str) -> None:
        self.inputs += input_bit
        key = self._key(self.inputs)
        c = self.counts.setdefault(key, [0, 0])
        c[int(behavior_bit)] += 1

    def _key(self, inputs_through_v: str) -> str:
        w = self.context + 1
        window = inputs_through_v[-w:]
        return "^" * (w - len(window)) + window

    def emit_forecast(self, t: int, u: int) -> Forecast:
        counts = {k: tuple(v) for k, v in self.counts.items()}

        def conditional(v: int, inputs: str, past: str) -> Fraction:
            key = self._key(inputs[: v + 1])
            c = counts.get(key)
            if c is None or c[0] + c[1] == 0:
                return Fraction(1, 2)
            return Fraction(c[1], c[0] + c[1])

        return Forecast(t, u, conditional)


class BayesPredictor:
    """Exact Bayesian filter over a finite family of candidate subjects.

    The reference class is handed to the constructor as subject payloads.
    Freebit emissions carry no distribution, so the filter scores them as
    fair coin flips — the noncommittal likelihood — both in training and in
    the posterior-predictive forecast.
    """

    def __init__(self, family: list[dict]):
        self.candidates = [subject_from_payload(p) for p in family]
        self.weights = [Fraction(1, len(self.candidates))] * len(self.candidates)
        self.states = [c.initial for c in self.candidates]

    @staticmethod
    def _likelihood(subject: Subject, state: str, input_bit: str, behavior_bit: str) -> Fraction:
        emit = subject.edges[(state, input_bit)].emit
        if emit[0] == "bit":
            return Fraction(1) if emit[1] == behavior_bit else Fraction(0)
        if emit[0] == "prob":
            p = Fraction(emit[1])
            return p if behavior_bit == "1" else 1 - p
        return Fraction(1, 2)

    def observe(self, input_bit: str, behavior_bit: str) -> None:
        new_w = []
        for k, cand in enumerate(self.candidates):
            lik = self._likelihood(cand, self.states[k], input_bit, behavior_bit)
            new_w.append(self.weights[k] * lik)
            self.states[k] = cand.edges[(self.states[k], input_bit)].to
        total = sum(new_w, Fraction(0))
        self.weights = [w / total for w in new_w] if total > 0 else new_w

    def emit_forecast(self, t: int, u: int) -> Forecast:
        base_weights = tuple(self.weights)
        base_states = tuple(self.states)
        candidates = self.candidates

        def conditional(v: int, inputs: str, past: str) -> Fraction:
            weights = list(base_weights)
            states = list(base_states)
            for step, b in zip(range(t, v), past):
                for k, cand in enumerate(candidates):
                    weights[k] *= self._likelihood(cand, states[k], inputs[step], b)
                    states[k] = cand.edges[(states[k], inputs[step])].to
                total = sum(weights, Fraction(0))
                if total > 0:
                    weights = [w / total for w in weights]
            p = Fraction(0)
            total = sum(weights, Fraction(0))
            if total == 0:
                return Fraction(1, 2)
            for k, cand in enumerate(candidates):
                p += weights[k] * self._likelihood(cand, states[k], inputs[v], "1")
            return p / total

        return Forecast(t, u, conditional)


# -- the game ----------------------------------------------------------------------


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
        if not (0 <= self.t < self.u):
            raise ValueError("need 0 <= t < u")
        if self.u - self.t > HORIZON_GUARD:
            raise HorizonTooLong(f"u - t = {self.u - self.t} exceeds {HORIZON_GUARD}")
        eps, delta = Fraction(self.epsilon), Fraction(self.delta)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "delta", delta)
        if not (0 < eps < 1 and 0 < delta < 1):
            raise ValueError("epsilon and delta must lie in (0, 1)")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.trials > TRIALS_GUARD:
            raise BudgetTooLarge(f"trials = {self.trials} exceeds {TRIALS_GUARD}")
        if self.adversary not in ("adaptive", "oblivious"):
            raise ValueError("adversary must be 'adaptive' or 'oblivious'")


def draw_inputs(model: dict, length: int, rng: random.Random) -> str:
    kind = model.get("kind", "uniform")
    if kind == "uniform":
        return "".join(rng.choice("01") for _ in range(length))
    if kind == "fixed":
        pattern = model["bits"]
        reps = -(-length // len(pattern))
        return (pattern * reps)[:length]
    raise ValueError(f"unknown input model {kind!r}")


def clopper_pearson(k: int, n: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact binomial confidence interval by bisection on the tail sums."""
    alpha = 1 - confidence

    def sf(p: float) -> float:  # P(X >= k)
        return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))

    def cdf(p: float) -> float:  # P(X <= k)
        return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(0, k + 1))

    def bisect(f, target, lo, hi):
        for _ in range(80):
            mid = (lo + hi) / 2
            if f(mid) < target:
                hi = mid
            else:
                lo = mid
        return (lo + hi) / 2

    lower = 0.0 if k == 0 else bisect(lambda p: sf(p), alpha / 2, 1.0, 0.0)
    upper = 1.0 if k == n else bisect(lambda p: cdf(p), alpha / 2, 0.0, 1.0)
    return lower, upper


@dataclass(frozen=True)
class Verdict:
    distances: tuple[Fraction, ...]
    epsilon: Fraction
    delta: Fraction
    pass_fraction: Fraction
    passed: bool
    confidence_interval: tuple[float, float]
    seed: int
    trials: int

    def to_payload(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "epsilon": str(self.epsilon),
            "delta": str(self.delta),
            "distances": [str(d) for d in self.distances],
            "distances_float": [float(d) for d in self.distances],
            "pass_fraction": str(self.pass_fraction),
            "pass_fraction_float": float(self.pass_fraction),
            "passed": self.passed,
            "confidence_interval_95": list(self.confidence_interval),
        }


def run_game(subject_factory, predictor_factory, cfg: GameConfig) -> Verdict:
    """Play cfg.trials independent games and aggregate a (t, eps, delta) verdict.

    Per trial: fresh subject and predictor, fresh exogenous inputs; the
    predictor watches [0, t), publishes a forecast, and is scored by
    variation distance on the realized input path, with freebits resolved
    worst-case after the forecast (or rng-resolved when cfg.adversary is
    "oblivious").  Identical configs and seeds replay bit-for-bit.
    """
    distances: list[Fraction] = []
    for trial in range(cfg.trials):
        rng = random.Random(f"{cfg.seed}:{trial}")
        subject = subject_factory()
        predictor = predictor_factory()
        inputs = draw_inputs(cfg.input_model, cfg.u, rng)
        state = subject.initial
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
            predictor.observe(inputs[v], b)
            state = edge.to
        forecast = predictor.emit_forecast(cfg.t, cfg.u)
        probe_causality(forecast, inputs, cfg.t, cfg.u, rng)
        if cfg.adversary == "adaptive":
            _, distance = adversary_resolution(subject, forecast, inputs, cfg.t, cfg.u)
        else:
            assignment = tuple(
                rng.choice((0, 1)) for _ in range(subject.freebit_budget)
            )
            fdist = forecast_distribution(forecast, inputs, cfg.t, cfg.u)
            distance = variation_distance(
                fdist, true_distribution(subject, inputs, cfg.t, cfg.u, assignment)
            )
        distances.append(distance)
    hits = sum(1 for d in distances if d < cfg.epsilon)
    fraction = Fraction(hits, cfg.trials)
    return Verdict(
        distances=tuple(distances),
        epsilon=cfg.epsilon,
        delta=cfg.delta,
        pass_fraction=fraction,
        passed=fraction >= 1 - cfg.delta,
        confidence_interval=clopper_pearson(hits, cfg.trials),
        seed=cfg.seed,
        trials=cfg.trials,
    )


UNPREDICTED_DISCLAIMER = (
    "certifies failure of the supplied predictor family only; it is not a "
    "proof that no predictor exists"
)


def classify(
    reference_class: list,
    predictors: list[tuple[str, object]],
    schedule: list[tuple[int, Fraction, Fraction]],
    trials: int,
    seed: int,
    input_model: dict | None = None,
    horizon: int | None = None,
) -> dict:
    """Label a reference class against a predictor family and a schedule.

    "mechanistic-at-scale" when some supplied predictor passes every
    scheduled (t, epsilon, delta) for every subject in the class;
    "unpredicted-at-scale" otherwise (see the disclaimer in the report).
    """
    results = []
    label = "unpredicted-at-scale"
    for name, factory in predictors:
        all_pass = True
        entries = []
        for t, eps, delta in schedule:
            u = horizon if horizon is not None else t + 4
            for s_idx, subject_factory in enumerate(reference_class):
                cfg = GameConfig(
                    t=t,
                    u=u,
                    epsilon=Fraction(eps),
                    delta=Fraction(delta),
                    trials=trials,
                    seed=seed,
                    input_model=input_model or {"kind": "uniform"},
                )
                verdict = run_game(subject_factory, factory, cfg)
                entries.append(
                    {
                        "predictor": name,
                        "subject_index": s_idx,
                        "t": t,
                        "epsilon": str(Fraction(eps)),
                        "delta": str(Fraction(delta)),
                        "verdict": verdict.to_payload(),
                    }
                )
                all_pass = all_pass and verdict.passed
        results.extend(entries)
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
    return Subject("deterministic", ("s0", "s1"), "s0", edges, 0)


def fair_coin() -> Subject:
    """Emits a fair bit every step, inputs ignored; noisy but fully known."""
    edges = {("s", i): Edge("s", ("prob", Fraction(1, 2))) for i in "01"}
    return Subject("noisy", ("s",), "s", edges, 0)


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
    return Subject("freebit", states, "c0", edges, 1)


def gerbil_hybrid() -> Subject:
    """Four states: echo the input, then its negation, one freebit, then zeros."""
    edges = {}
    for i in "01":
        edges[("a", i)] = Edge("b", ("bit", i))
        edges[("b", i)] = Edge("c", ("bit", "1" if i == "0" else "0"))
        edges[("c", i)] = Edge("d", ("freebit", 0))
        edges[("d", i)] = Edge("d", ("bit", "0"))
    return Subject("hybrid", ("a", "b", "c", "d"), "a", edges, 1)


STOCK_SUBJECTS = {
    "parrot": parrot,
    "fair-coin": fair_coin,
    "gerbil": gerbil_hybrid,
}
