"""Benchmark of the knightian CLI: end-to-end runs and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (``src/knightian`` must be there).  One
client runs the workload's seeded command list (bench/workloads.py) in a
closed loop, one command at a time, each command a fresh subprocess started
through bench/launch.py, import included.  A pass is one trip through the
list.  Passes repeat until the next one would end after S seconds, with at
least MIN_PASSES of them.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced passes and prints the per-layer metrics.  Earlier stdout lines
give machine facts and every metric by name with its unit; the last line is
one JSON object with the keys correct, attempted, failed and metrics.
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from statistics import median

from launch import RESULT_COUNTERS, TRACED
from workloads import WORKLOADS, Command, commands

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"

MIN_PASSES = 2
MIN_TRACED_PAIRS = 2
# Self-time accounting of one traced command (see closure_problems).  The
# remainder is mostly interpreter exit, 0.1-0.2 s on a 2-core Xeon.
REMAINDER_BOUND_S = 0.5

# Machine-speed control.  The speed of the 2-core reference VM swings by up to
# 1.8x between runs, and from one process to the next, and every time a child
# reports moves with it, its own interpreter start included.  That start ends
# before any knightian code runs, so no change to the package can move it.
# Each child's times are therefore scaled by PYTHON_START_REF_S / its own
# interpreter start: seconds at the speed of a machine whose Python starts in
# PYTHON_START_REF_S.  The unscaled times are printed as raw_*.
PYTHON_START_REF_S = 0.05

# The end-to-end metrics in the JSON line, which BENCHMARK.json bounds.
END_TO_END = {"wall_s": "s", "wall_tail_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Printed with them but left out of the JSON line.  cmd_max_s rests on the
# run's two or three samples of one command, too few for a bound even at
# reference speed.  failed_frac is 0 whenever the gate passes, and a bounded
# metric may never be 0; attempted and failed carry it.
PRINTED_ONLY = {
    "cmd_max_s": "s",
    "failed_frac": "ratio",
    "python_start_s": "s",
    **{f"raw_{name}": "s" for name in ("wall_s", "cpu_s", "cmd_max_s", "setup_s", "wall_tail_s")},
}

TRACED_NAMES = [f"{module}.{path}" for module, paths in TRACED.items() for path in paths]
PER_LAYER = {
    "cli.python_start_s": "s",
    "cli.import_s": "s",
    **{f"{fn}.calls": "count" for fn in TRACED_NAMES},
    **{f"{fn}.self_s": "s" for fn in TRACED_NAMES},
    "toyvm.output_template.miss_ratio": "ratio",
    "toyvm.prefix_probability.nonzero_ratio": "ratio",
    "toyvm.enumerate_programs.programs": "count",
    "trace_overhead_frac": "ratio",
}


@dataclass
class Outcome:
    """One command execution as the parent process saw it."""

    label: str
    ok: bool
    digest: str
    wall: float  # spawn to reaped, seconds
    cpu: float  # child user + system seconds
    rss_kib: int  # child peak resident set
    stats: dict  # what launch.py wrote; empty if it wrote nothing
    spawned: float  # CLOCK_MONOTONIC at spawn

    @property
    def setup(self) -> float:
        return self.stats["imported"] - self.spawned

    @property
    def python_start(self) -> float:
        return self.stats["start"] - self.spawned

    @property
    def scale(self) -> float:
        """Reference-speed seconds per second of this child (see PYTHON_START_REF_S)."""
        return PYTHON_START_REF_S / self.python_start


class Runner:
    """Runs one workload's commands.

    Their configs and stats live in a temporary directory in the checkout.
    """

    def __init__(self, workload: str, seed: int):
        self.cmds = commands(workload, seed)
        build = ROOT / ".bench_build"
        build.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=build))
        for cmd in self.cmds:
            if cmd.config is not None:
                (self.tmp / f"{cmd.label}.json").write_text(json.dumps(cmd.config))
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else f"{src}{os.pathsep}{old}"

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def spawn(self, cmd: Command, trace: bool) -> Outcome:
        stats_path = self.tmp / "stats.json"
        stats_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "launch.py"), str(stats_path), str(int(trace))]
        argv += [cmd.group, cmd.name]
        if cmd.config is not None:
            argv += ["--config", str(self.tmp / f"{cmd.label}.json")]
        if cmd.seed is not None:
            argv += ["--seed", str(cmd.seed)]
        with open(self.tmp / "stderr.txt", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT)
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                # wait4 rather than wait: it returns this child's own rusage
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        wall = time.monotonic() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            stats = json.loads(stats_path.read_text())
        except (OSError, ValueError):
            stats = {}
        ok = proc.returncode == 0 and bool(out) and bool(stats)
        if not ok:
            tail = (self.tmp / "stderr.txt").read_text(errors="replace")[-2000:]
            print(f"# {cmd.label}: exit {proc.returncode}, {len(out)} report bytes\n{tail}", file=sys.stderr)
        return Outcome(
            cmd.label,
            ok,
            hashlib.sha256(out).hexdigest(),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss,
            stats,
            spawned,
        )

    def run_pass(self, trace: bool) -> tuple[float, list[Outcome]]:
        start = time.monotonic()
        outcomes = [self.spawn(cmd, trace) for cmd in self.cmds]
        return time.monotonic() - start, outcomes


class Checker:
    """Byte-for-byte report check against stored digests or the run's first pass.

    At the seed of reference.json every command must have a stored digest; a
    command without one fails.  Other seeds check each report against the
    same command's report in the run's first pass.
    """

    def __init__(self, workload: str, seed: int):
        stored = json.loads(REFERENCE.read_text())
        self.stored = seed == stored["seed"]
        self.expected: dict[str, str] = dict(stored["digests"][workload]) if self.stored else {}
        self.attempted = 0
        self.failed = 0

    def check(self, outcomes: list[Outcome]) -> None:
        for o in outcomes:
            self.attempted += 1
            if o.ok:
                want = self.expected.get(o.label) if self.stored else self.expected.setdefault(o.label, o.digest)
                o.ok = o.digest == want
                if want is None:
                    print(f"# {o.label}: no reference digest in {REFERENCE.name}", file=sys.stderr)
                elif not o.ok:
                    print(f"# {o.label}: report differs from the reference", file=sys.stderr)
            self.failed += not o.ok


def scaled_wall(outcomes: list[Outcome]) -> float:
    """A pass's wall time at reference speed."""
    return sum(o.wall * o.scale for o in outcomes if o.stats)


def end_to_end(passes: list[tuple[float, list[Outcome]]]) -> dict[str, float]:
    """The end-to-end metrics at reference speed, and the times unscaled as raw_*."""
    timed = [[o for o in outcomes if o.stats] for _, outcomes in passes]
    metrics = {}
    for prefix, scale in (("", lambda o: o.scale), ("raw_", lambda o: 1.0)):
        walls = [sum(o.wall * scale(o) for o in outcomes) for outcomes in timed]
        by_label: dict[str, list[float]] = {}
        for o in (o for outcomes in timed for o in outcomes):
            by_label.setdefault(o.label, []).append(o.wall * scale(o))
        metrics |= {
            f"{prefix}wall_s": median(walls),
            # a run holds too few passes for a percentile with ten samples
            # beyond it, so its tail is its slowest pass
            f"{prefix}wall_tail_s": max(walls),
            f"{prefix}cmd_max_s": max(median(v) for v in by_label.values()),
            f"{prefix}cpu_s": median(sum(o.cpu * scale(o) for o in outcomes) for outcomes in timed),
            f"{prefix}setup_s": median(o.setup * scale(o) for outcomes in timed for o in outcomes),
        }
    metrics["python_start_s"] = median(o.python_start for outcomes in timed for o in outcomes)
    metrics["peak_rss_mb"] = median(max(o.rss_kib for o in outcomes) for _, outcomes in passes) / 1024
    return metrics


def counts_of(outcomes: list[Outcome]) -> dict:
    """Every count a traced pass produced, per command; must repeat exactly."""
    return {
        o.label: {
            "spans": {f"{fn}<{parent}": calls for fn, parent, calls, _, _ in o.stats["spans"]},
            "counters": o.stats["counters"],
        }
        for o in outcomes
    }


def closure_problems(o: Outcome) -> list[str]:
    """Check that start, import, wrapper set-up and self times make up the traced wall.

    The self times telescope to the root span, cli.dispatch, so inside
    dispatch they add up by construction.  What this can catch is time outside
    every wrapped span: the remainder of the traced wall after the launcher's
    dispatch-start stamp and the self times, mostly interpreter exit, must lie
    within [0, REMAINDER_BOUND_S].
    """
    s = o.stats
    self_total = sum(row[4] for row in s["spans"])
    remainder = o.wall - (s["dispatch_start"] - o.spawned) - self_total
    if 0 <= remainder <= REMAINDER_BOUND_S:
        return []
    return [f"{o.label}: {remainder:.3f} s of traced wall unaccounted"]


def layer_totals(outcomes: list[Outcome]) -> dict[str, float]:
    totals = {f"{fn}.{kind}": 0 for fn in TRACED_NAMES for kind in ("calls", "self_s")}
    for name in RESULT_COUNTERS:
        totals[name] = 0
    runs_in_template = 0
    for o in outcomes:
        for fn, parent, calls, _, self_s in o.stats["spans"]:
            totals[f"{fn}.calls"] += calls
            totals[f"{fn}.self_s"] += self_s
            if (fn, parent) == ("toyvm.run", "toyvm.output_template"):
                runs_in_template += calls
        for name, value in o.stats["counters"].items():
            totals[name] += value
    templates = totals["toyvm.output_template.calls"]
    probes = totals["toyvm.prefix_probability.calls"]
    # a template miss runs the program twice (complementary random streams)
    totals["toyvm.output_template.miss_ratio"] = runs_in_template / 2 / templates if templates else 0.0
    nonzero = totals.pop("toyvm.prefix_probability.nonzero")
    totals["toyvm.prefix_probability.nonzero_ratio"] = nonzero / probes if probes else 0.0
    return totals


def per_layer(plain, traced) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics and the list of self-check failures."""
    problems = []
    traced_outcomes = [outcomes for _, outcomes in traced]
    if any(not o.ok for outcomes in traced_outcomes for o in outcomes):
        problems.append("a traced command failed")
        return {}, problems
    first = counts_of(traced_outcomes[0])
    if any(counts_of(outcomes) != first for outcomes in traced_outcomes[1:]):
        problems.append("trace counts differ between traced passes")
    problems += [p for outcomes in traced_outcomes for o in outcomes for p in closure_problems(o)]
    per_pass = [layer_totals(outcomes) for outcomes in traced_outcomes]
    metrics = {
        name: median(p[name] for p in per_pass) if name.endswith("self_s") else per_pass[0][name]
        for name in per_pass[0]
    }
    spawns = [o for _, outcomes in plain + traced for o in outcomes if o.stats]
    metrics["cli.python_start_s"] = median(o.python_start for o in spawns)
    metrics["cli.import_s"] = median(o.stats["imported"] - o.stats["start"] for o in spawns)
    metrics["trace_overhead_frac"] = (
        median(scaled_wall(outcomes) for _, outcomes in traced)
        / median(scaled_wall(outcomes) for _, outcomes in plain)
        - 1
    )
    return metrics, problems


def machine_facts() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads_env": {k: os.environ.get(k) for k in blas},
        "commit": commit,
    }


def measure(runner: Runner, checker: Checker, seconds: float, trace: bool):
    """Closed-loop passes; with trace, untraced and traced passes alternate."""
    # untimed: fills the bytecode and file caches a returning user already has
    runner.spawn(Command("warm-up", "gadgets", "chsh-classical"), False)
    plain, traced = [], []
    start = time.monotonic()
    while True:
        if trace:
            for bucket, flag in ((plain, False), (traced, True)):
                bucket.append(runner.run_pass(flag))
                checker.check(bucket[-1][1])
            enough = len(traced) >= MIN_TRACED_PAIRS
            step = plain[-1][0] + traced[-1][0]
        else:
            plain.append(runner.run_pass(False))
            checker.check(plain[-1][1])
            enough = len(plain) >= MIN_PASSES
            step = plain[-1][0]
        if enough and time.monotonic() - start + step > seconds:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through Runner.spawn and Runner.__exit__, which stop
    # the running child and remove the temporary directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "knightian" / "cli.py").is_file():
        print(f"no knightian sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    facts = machine_facts()
    checker = Checker(args.workload, args.seed)
    with Runner(args.workload, args.seed) as runner:
        plain, traced = measure(runner, checker, args.seconds, bool(args.trace))

    print("# machine " + json.dumps(facts, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} passes {len(plain)} untraced, {len(traced)} traced")
    problems = []
    if args.trace:
        metrics, problems = per_layer(plain, traced)
        units = PER_LAYER
    else:
        metrics, units = end_to_end(plain), END_TO_END
    for p in problems:
        print(f"# self-check failed: {p}", file=sys.stderr)
    metrics["failed_frac"] = checker.failed / checker.attempted
    for name, value in metrics.items():
        print(f"# {name:44} {value:14.6f} {units.get(name) or PRINTED_ONLY[name]}")
    result = {
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
