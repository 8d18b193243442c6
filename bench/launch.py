"""Run one knightian CLI command in this process and record where its time went.

    python3 launch.py STATS_FILE TRACE GROUP COMMAND [CLI OPTIONS...]

The command goes through ``knightian.cli.main`` exactly as the console script
would run it (``python -m knightian.cli`` cannot be used: ``cli.py`` has no
``__main__`` guard, so it exits 0 without output).  ``knightian`` must be
importable, e.g. through ``PYTHONPATH=src``.

STATS_FILE receives one JSON object when the command ends: CLOCK_MONOTONIC
stamps for launcher start, end of ``import knightian.cli``, and start and end
of dispatch, and, with TRACE=1, per-(function, parent) aggregates of the
wrapped public functions listed in TRACED.  Wrappers are installed only in
this process, after import and before ``cli.main``; nothing in the package
is edited.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# (module, attribute path) of every wrapped function; metric names are
# "<module>.<attribute path>".  freestate.linprog is scipy's LP entry as
# freestate's module global sees it.
TRACED = {
    "cli": ["dispatch"],
    "toyvm": [
        "run",
        "output_template",
        "prefix_probability",
        "enumerate_programs",
        "contains_rand",
        "sure_halts",
    ],
    "prior": [
        "build_mixture",
        "joint_probability",
        "update",
        "predict_next",
        "diagonal_sequence",
        "regret_report",
        "omega_truncated",
    ],
    "complexity": ["kolmogorov", "set_complexity", "sophistication", "tabulate", "parse_listing"],
    "arena": [
        "run_game",
        "adversary_resolution",
        "true_distribution",
        "variation_distance",
        "forecast_distribution",
        "Forecast.prob_one",
        "probe_causality",
        "clopper_pearson",
        "classify",
    ],
    "freestate": [
        "hull_contains",
        "separating_witness",
        "linprog",
        "effect_interval",
        "event_interval",
    ],
    "gadgets": [
        "chsh_classical_optimum",
        "chsh_quantum_value",
        "bostrom_posterior",
        "newcomb_expected",
        "causal_validate",
    ],
}

# result-derived counters: name -> (wrapped function, amount added per call)
RESULT_COUNTERS = {
    "toyvm.enumerate_programs.programs": ("toyvm.enumerate_programs", len),
    "toyvm.prefix_probability.nonzero": ("toyvm.prefix_probability", lambda p: int(p != 0)),
}


class Tracer:
    """In-memory span aggregates keyed by (function, wrapped parent).

    A span's self time is its duration minus the durations of the wrapped
    spans it directly encloses, so the self times of one call tree add up to
    the duration of its root span.
    """

    def __init__(self):
        self.stack: list[list] = []  # [name, time spent in wrapped children]
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.counters = {name: 0 for name in RESULT_COUNTERS}

    def wrap(self, owner, attr: str, name: str):
        fn = getattr(owner, attr)
        counters = [(c, f) for c, (target, f) in RESULT_COUNTERS.items() if target == name]
        stack, spans, totals = self.stack, self.spans, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                row = spans.get((name, parent))
                if row is None:
                    row = spans[(name, parent)] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
            for counter, amount in counters:
                totals[counter] += amount(result)
            return result

        setattr(owner, attr, traced)

    def install(self) -> None:
        for module_name, paths in TRACED.items():
            module = importlib.import_module(f"knightian.{module_name}")
            for path in paths:
                *outer, attr = path.split(".")
                self.wrap(functools.reduce(getattr, outer, module), attr, f"{module_name}.{path}")

    def payload(self) -> dict:
        return {
            "spans": [[fn, parent, *row] for (fn, parent), row in sorted(self.spans.items())],
            "counters": self.counters,
        }


def main() -> None:
    stats_path, trace = sys.argv[1], sys.argv[2] == "1"
    sys.argv = ["knightian", *sys.argv[3:]]
    import knightian.cli as cli

    imported = time.monotonic()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    dispatch_start = time.monotonic()
    try:
        cli.main()
    finally:
        done = time.monotonic()
        sys.stdout.flush()
        stats = {
            "start": T_START,
            "imported": imported,
            "dispatch_start": dispatch_start,
            "done": done,
        }
        if tracer is not None:
            stats.update(tracer.payload())
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    main()
