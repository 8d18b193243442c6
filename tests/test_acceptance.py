"""Acceptance suite: one test per shipped claim, one printed verdict line each.

Run as:  pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from conftest import c10_draws, random_effect
from knightian import arena, classical as cl, cli, complexity as cx, freestate as fs, gadgets as gd, prior, toyvm as tv
import oracles

F = Fraction


@contextmanager
def criterion(name: str, budget_seconds: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[{name}] FAIL ({time.monotonic() - started:.1f}s)")
        raise
    elapsed = time.monotonic() - started
    print(f"[{name}] PASS ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, f"{name} exceeded its {budget_seconds}s budget"


def test_c01_chsh_values():
    with criterion("C01 chsh classical 3/4, quantum cos^2(pi/8)", 1.0):
        classical = gd.chsh_classical_optimum()
        assert classical.value == F(3, 4)
        assert len(classical.table) == 16
        quantum = gd.chsh_quantum_value(gd.CHSH_OPTIMAL_ALICE, gd.CHSH_OPTIMAL_BOB)
        assert abs(quantum - math.cos(math.pi / 8) ** 2) <= 1e-9


def test_c02_knight_interval():
    with criterion("C02 knight interval [0.1, 0.5]", 1.0):
        point = cl.ClassicalFreestate(2, ((F(9, 10), F(1, 10)),))
        low_band = cl.ClassicalFreestate(
            2, ((F(8, 10), F(2, 10)), (F(7, 10), F(3, 10)))
        )
        high_band = cl.ClassicalFreestate(
            2, ((F(6, 10), F(4, 10)), (F(5, 10), F(5, 10)))
        )
        merged = cl.knightian_or(point, low_band, high_band)
        assert cl.event_interval(merged, [1]) == (F(1, 10), F(1, 2))


def test_c03_mix_expansion_and_linearity():
    with criterion("C03 mixture expansion + interval linearity", 30.0):
        a, b = fs.ket("0").projector(), fs.ket("1").projector()
        c, d = fs.ket("+").projector(), fs.ket("-").projector()
        s_ab = fs.Freestate(2, (a, b))
        s_cd = fs.Freestate(2, (c, d))
        mixed = cl.prob_mix([(0.5, s_ab), (0.5, s_cd)])
        expected = [
            (a.entries + c.entries) / 2,
            (a.entries + d.entries) / 2,
            (b.entries + c.entries) / 2,
            (b.entries + d.entries) / 2,
        ]
        assert len(mixed.generators) == 4
        for got, want in zip(mixed.generators, expected):
            assert np.max(np.abs(got.entries - want)) == 0.0
        rng = np.random.default_rng(2024)
        for _ in range(100):
            e = random_effect(rng, 2)
            lo1, hi1 = fs.effect_interval(s_ab, e)
            lo2, hi2 = fs.effect_interval(s_cd, e)
            lo, hi = fs.effect_interval(mixed, e)
            assert abs(lo - (lo1 + lo2) / 2) <= 1e-9
            assert abs(hi - (hi1 + hi2) / 2) <= 1e-9


def test_c04_dominance_exhaustive():
    with criterion("C04 dominance over all |Q| <= 12, sequences <= 6", 30.0):
        cfg = tv.MachineConfig()
        sequences = [
            "".join(bits)
            for n in range(1, 7)
            for bits in itertools.product("01", repeat=n)
        ]

        def verify_all(bound: int) -> int:
            mixture = prior.build_mixture(bound, cfg)
            mass = {s: prior.joint_probability(mixture, s) for s in sequences}
            checked = 0
            for program in oracles.programs(bound):
                floor = F(1, 2 ** len(program))
                for s in sequences:
                    p_q = tv.prefix_probability(program, s, cfg)
                    if p_q > 0:
                        assert mass[s] / p_q >= floor
                        checked += 1
            return checked

        # at the stated bound, programs are single instructions, so the
        # supported (Q, sequence) domain is exactly these 42 pairs
        assert verify_all(12) == 42
        # loopers at bound 16 give every length-6 sequence support; the same
        # inequality, exhaustively, over a much richer domain
        assert verify_all(16) == 1624


def test_c05_diagonal_sequence():
    with criterion("C05 diagonal bits stay unlikely through n=16", 5.0):
        mixture = prior.build_mixture(16, tv.MachineConfig())
        bits, steps = prior.diagonal_sequence(mixture, 16)
        assert len(bits) == 16
        for i, step in enumerate(steps, start=1):
            assert step.conditional <= F(1, 2)
            assert step.cumulative <= F(1, 2**i)


def test_c06_sophistication_suite():
    with criterion("C06 sophistication suite n<=6 at bound 20", 10.0):
        cfg = tv.MachineConfig()
        bound = 20
        overhead = cx.LISTING_OVERHEAD
        assert max(cx.measure_listing_overhead(bound, cfg).values()) == overhead
        k_values = {}
        for n in range(1, 7):
            for bits in itertools.product("01", repeat=n):
                x = "".join(bits)
                kx = cx.kolmogorov(x, bound, cfg)
                assert isinstance(kx, cx.ComplexityResult)
                k_values[x] = kx.value
                previous = math.inf
                for c in range(0, overhead + 4):
                    s = cx.sophistication(x, c, bound, cfg)
                    value = math.inf if isinstance(s, cx.NotFound) else s.value
                    assert value <= previous  # monotone nonincreasing in c
                    previous = value
                    if c >= overhead:
                        assert value <= kx.value + overhead  # singleton bound
        for k in range(1, bound + 1):
            assert sum(1 for v in k_values.values() if v <= k) <= 2 ** (k + 1)


def test_table_at_the_guard_is_affordable():
    with criterion("soph table at TABLE_GUARD, cs 0-9, bound 24, cold caches", 2.0):
        # a row reads K(x) and x's listers once; no set of width <= 8 holds x
        for cache in (tv.census, cx._listable_sets, cx._listers):
            cache.cache_clear()
        rows = cx.tabulate([cx.TABLE_GUARD], list(range(10)), 24, tv.MachineConfig())
        assert len(rows) == 2**cx.TABLE_GUARD
        assert all(row[f"soph_{c}"] is None for row in rows for c in range(10))


def test_c07_arena_reference_classes():
    with criterion("C07 arena: learnable classes pass, freebits defeat", 10.0):
        schedule = dict(epsilon=F(1, 20), delta=F(1, 20), trials=200)
        det_cfg = arena.GameConfig(
            t=8, u=12, seed=2024,
            input_model={"kind": "fixed", "bits": "0011"}, **schedule,
        )
        det = arena.run_game(arena.parrot(), arena.TablePredictor(1), det_cfg)
        assert det.passed and all(d == 0 for d in det.distances)

        noisy_cfg = arena.GameConfig(
            t=6, u=10, seed=2024, input_model={"kind": "uniform"}, **schedule
        )
        family = [arena.fair_coin()]
        noisy = arena.run_game(
            arena.fair_coin(), arena.BayesPredictor(family), noisy_cfg
        )
        assert noisy.passed and all(d == 0 for d in noisy.distances)

        freebit_cfg = arena.GameConfig(
            t=4, u=8, epsilon=F(1, 2), delta=F(1, 20), trials=200, seed=2024,
            input_model={"kind": "uniform"},
        )
        freebit = arena.one_freebit(5, 8)
        for predictor in (
            arena.TablePredictor(1),
            arena.BayesPredictor([freebit]),
        ):
            verdict = arena.run_game(freebit, predictor, freebit_cfg)
            assert min(verdict.distances) >= F(1, 2)
            assert not verdict.passed

        replay = arena.run_game(freebit, arena.TablePredictor(1), freebit_cfg)
        again = arena.run_game(freebit, arena.TablePredictor(1), freebit_cfg)
        assert replay.to_payload() == again.to_payload()


def test_bayes_game_at_the_horizon_guard(tmp_path):
    with criterion("Bayes game at u - t = HORIZON_GUARD, 100 trials", 10.0):
        # the family's fair coin gives every suffix forecast mass, so the
        # scoring is affordable only over the forecast's distinct futures
        h = arena.HORIZON_GUARD
        config = {
            "subject": "parrot",
            "predictor": {"kind": "bayes", "family": ["parrot", "fair-coin"]},
            "game": {"t": 4, "u": 4 + h, "epsilon": "0.05", "delta": "0.05", "trials": 100},
        }
        (tmp_path / "game.json").write_text(json.dumps(config))
        argv = ["arena", "run", "--config", str(tmp_path / "game.json"), "--seed", "7"]
        assert cli.dispatch([*argv, "--out", str(tmp_path / "report.json")]) == 0
        verdict = json.loads((tmp_path / "report.json").read_text())["result"]["verdict"]
        # four parrot-consistent steps leave the fair coin 1/17 of the weight,
        # and the forecast puts f = 16/17 + 2^-h / 17 on the parrot's suffix
        missed = str(1 - F(16, 17) - F(1, 17 * 2**h))
        assert verdict["distances"] == [missed] * 100


def test_census_at_the_guard_with_every_budget_at_its_guard():
    with criterion("census at ENUMERATION_GUARD, budgets at BUDGET_GUARD", 1.0):
        # the walk runs each shared opcode prefix once, so no program pays
        # for the budgets that a per-program census would run to
        tv.census.cache_clear()
        census = tv.census(tv.ENUMERATION_GUARD, tv.MachineConfig(*[tv.BUDGET_GUARD] * 3))
        assert len(census.members) == 2**16 - 1


def test_c08_causal_theorem_fuzz():
    with criterion("C08 validated causal graphs are acyclic (10k)", 30.0):
        rng = random.Random(31337)
        validated = 0
        for _ in range(10_000):
            n = rng.randint(2, 9)
            nodes = tuple(
                gd.CausalNode(f"n{i}", rng.choice(("micro", "macro")), rng.randint(0, 5))
                for i in range(n)
            )
            edges = []
            for _ in range(rng.randint(0, 14)):
                c, e = rng.sample(range(n), 2)
                edges.append((f"n{c}", f"n{e}"))
            graph = gd.CausalGraph(nodes, tuple(edges))
            if not gd.causal_validate(graph):
                validated += 1
                assert gd.acyclicity_check(graph)
        assert validated > 500


def test_c09_bostrom_posteriors():
    with criterion("C09 room posteriors 1/2 and 1/1001", 1.0):
        assert gd.bostrom_posterior(gd.bostrom_variant_one()).copy_weighted == F(1, 2)
        assert gd.bostrom_posterior(gd.bostrom_variant_two()).copy_weighted == F(1, 1001)


def test_c10_freestate_numerics():
    with criterion("C10 hull sampling stays inside; witnesses re-verify", 120.0):
        samples, pairs = c10_draws()
        for s, e, weights in samples:
            lo, hi = fs.effect_interval(s, e)
            for lam in weights:
                rho = sum(w * g.entries for w, g in zip(lam, s.generators))
                value = float(np.real(np.trace(e.entries @ rho)))
                assert lo - 1e-9 <= value <= hi + 1e-9
        tol = 1e-6
        returned = 0
        for trial, (s1, s2) in enumerate(pairs):
            witness = fs.separating_witness(s1, s2, tol=tol, seed=trial)
            if witness is None:
                continue
            returned += 1
            assert witness.gap > tol
            if isinstance(witness, fs.PureWitness):
                psi = witness.psi.amplitudes
                value = witness.value_on_state
                intervals = [
                    [float(np.real(psi.conj() @ g.entries @ psi)) for g in s.generators]
                    for s in (s1, s2)
                ]
                assert any(
                    value > max(vals) + tol or value < min(vals) - tol
                    for vals in intervals
                )
            else:
                w = witness.operator
                values = [
                    [float(np.real(np.trace(w @ g.entries))) for g in s.generators]
                    for s in (s1, s2)
                ]
                assert any(
                    witness.value_on_state > max(vals) + tol
                    or witness.value_on_state < min(vals) - tol
                    for vals in values
                )
        assert returned >= 20
