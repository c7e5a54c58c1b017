"""Acceptance suite.

Each test exercises one release criterion end to end at its stated
tolerance and prints one PASS/FAIL line (run with ``pytest -s`` to see the
lines as they go). The expensive dynamic sweeps are shared across the
criteria that inspect the same runs.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from lbgame import (
    Action,
    ActionProfile,
    DynamicRun,
    Instance,
    ServerLoads,
    best_response,
    builtin_setting,
    empirical_poa,
    export_trace,
    full_support_time,
    instantaneous_cost,
    is_nash,
    normalized_loads,
    player_costs,
    poa_upper_bound,
    potential,
    run_experiment,
    run_sequential,
    run_sequential_pass,
    run_simultaneous,
    state_transition,
    zero_load_time,
    zero_load_time_alt,
)

import exact as ex
from conftest import random_instance, random_profile


def report(number: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{verdict}] {name}: {detail} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def drain_sweeps():
    """Settings 1, 5, 6, 7 under 20 random arrival orders each, plus the
    round-robin run of Setting 5; shared by criteria 5, 6, and 7."""
    start = time.perf_counter()
    runs = {}
    for sid in (1, 5, 6, 7):
        inst = builtin_setting(sid).instance
        runs[sid] = [
            run_sequential(DynamicRun(inst, "sequential", order="random", seed=seed))
            for seed in range(20)
        ]
    inst5 = builtin_setting(5).instance
    round_robin = run_sequential(DynamicRun(inst5, "sequential", order="round-robin"))
    return runs, round_robin, time.perf_counter() - start


def test_criterion_01_exact_potential_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        inst = random_instance(rng, max_players=8, max_servers=8)
        profile = random_profile(rng, inst)
        i = int(rng.integers(inst.num_players))
        moved = profile.matrix.copy()
        moved[i] = rng.dirichlet(np.ones(inst.num_servers))
        other = ActionProfile(moved)
        phi = potential(inst, profile)
        delta_phi = phi - potential(inst, other)
        delta_cost = player_costs(inst, profile)[i] - player_costs(inst, other)[i]
        worst = max(worst, abs(delta_phi - delta_cost) / max(1.0, abs(phi)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, "exact potential identity", ok, f"worst scaled gap {worst:.2e}", elapsed)
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_closed_form_matches_exact_oracle():
    # The closed form's cost, as the library computes it, against the exact
    # minimum of tests/exact.py: within exact.COST = 16 eps, relative.
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = Fraction(0)
    for _ in range(200):
        inst = random_instance(rng, max_players=6, max_servers=6)
        i = int(rng.integers(inst.num_players))
        loads = rng.uniform(0.0, 5.0, inst.num_servers)
        closed = best_response(inst, i, loads).action
        cost = instantaneous_cost(inst, closed, ServerLoads(loads), i)
        length, work = Fraction(inst.job_lengths[i]), ex.exact(loads)
        rates = ex.exact(inst.service_rates)
        least = ex.wait([length * x for x in ex.respond(length, rates, work)], work, rates)
        worst = max(worst, abs(Fraction(cost) - least) / least / ex.EPS)
    elapsed = time.perf_counter() - start
    ok = worst <= ex.COST and elapsed < 30.0
    report(2, "closed form vs exact oracle", ok, f"worst cost gap {float(worst):.2f} eps", elapsed)
    assert worst <= ex.COST
    assert elapsed < 30.0


@pytest.fixture(scope="module")
def one_pass_equilibria():
    """Setting 1 plus 50 random instances, each driven through exactly one
    update pass in a random order; shared by criteria 3 and 9."""
    rng = np.random.default_rng(303)
    outcomes = []
    inst1 = builtin_setting(1).instance
    profile1, _ = run_sequential_pass(inst1, order=rng.permutation(inst1.num_players))
    outcomes.append((inst1, profile1))
    for _ in range(50):
        inst = random_instance(rng, max_players=8, max_servers=8)
        order = rng.permutation(inst.num_players)
        profile, _ = run_sequential_pass(inst, order=order)
        outcomes.append((inst, profile))
    return outcomes


def test_criterion_03_one_pass_reaches_equilibrium(one_pass_equilibria):
    start = time.perf_counter()
    worst = 0.0
    for inst, profile in one_pass_equilibria:
        check = is_nash(inst, profile)
        worst = max(worst, check.max_improvement)
        assert check.is_equilibrium
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(3, "one-pass equilibrium", ok, f"worst improvement {worst:.2e}", elapsed)
    assert elapsed < 10.0


def test_criterion_04_worked_example_golden_values():
    start = time.perf_counter()
    inst = Instance([1.0, 2.0], [1.5, 2.5], [2.0, 4.0])
    action = Action([0.5, 0.5])
    before = ServerLoads([2.0, 4.0])
    cost = instantaneous_cost(inst, action, before, 1)
    after = state_transition(inst, before, inst.job_lengths[1] * action.fractions)
    exact_state = bool(np.array_equal(after.loads, [1.5, 2.5]))
    cost_ok = abs(cost - 3.4667) <= 5e-4
    elapsed = time.perf_counter() - start
    report(
        4,
        "scripted two-server step",
        exact_state and cost_ok,
        f"state {after.loads.tolist()} cost {cost:.6f}",
        elapsed,
    )
    assert exact_state
    assert cost_ok


def test_criterion_05_dynamic_drain_and_bounds(drain_sweeps):
    runs, round_robin, build_time = drain_sweeps
    start = time.perf_counter()
    for sid, sweeps in runs.items():
        inst = builtin_setting(sid).instance
        bound = min(zero_load_time(inst), zero_load_time_alt(inst))
        for done in sweeps:
            assert done.converged_at is not None
            assert done.converged_at <= bound
            tail = done.trace.loads[done.converged_at + 1 :]
            assert len(tail)
            assert np.all(tail == 0.0)
    in_range = 20 <= round_robin.converged_at <= 91
    elapsed = build_time + (time.perf_counter() - start)
    ok = in_range and elapsed < 30.0
    report(
        5,
        "dynamic drain within analytic bounds",
        ok,
        f"80/80 runs drained; setting-5 round-robin at {round_robin.converged_at}",
        elapsed,
    )
    assert in_range
    assert elapsed < 30.0


def test_criterion_06_full_support_and_nesting(drain_sweeps):
    runs, round_robin, _ = drain_sweeps
    start = time.perf_counter()
    checked = 0
    for sid, sweeps in runs.items():
        inst = builtin_setting(sid).instance
        lead = full_support_time(inst)
        for done in list(sweeps) + ([round_robin] if sid == 5 else []):
            supports = done.trace.fractions[:, 0] > 0
            assert not np.any(supports[:-1] & ~supports[1:]), "supports must be nested over time"
            assert supports[lead:].all()
            checked += len(supports)
    elapsed = time.perf_counter() - start
    report(6, "full support after lead time, nested supports", True, f"{checked} steps checked", elapsed)


def test_criterion_07_post_drain_equilibrium_play(drain_sweeps):
    runs, round_robin, _ = drain_sweeps
    start = time.perf_counter()
    worst_action = 0.0
    worst_cost = 0.0
    for sid, sweeps in runs.items():
        inst = builtin_setting(sid).instance
        share = inst.service_rates / inst.total_service_rate
        steady = inst.job_lengths**2 / (2 * inst.total_service_rate)
        for done in list(sweeps) + ([round_robin] if sid == 5 else []):
            trace, after = done.trace, slice(done.converged_at + 1, None)
            action_gaps = np.abs(trace.fractions[after, 0] - share)
            cost_gaps = np.abs(trace.costs[after, 0] - steady[trace.arrivals[after, 0]])
            worst_action = max(worst_action, float(np.max(action_gaps, initial=0.0)))
            worst_cost = max(worst_cost, float(np.max(cost_gaps, initial=0.0)))
    elapsed = time.perf_counter() - start
    ok = worst_action <= 1e-9 and worst_cost <= 1e-9
    report(
        7,
        "post-drain proportional play at steady cost",
        ok,
        f"action gap {worst_action:.2e}, cost gap {worst_cost:.2e}",
        elapsed,
    )
    assert worst_action <= 1e-9
    assert worst_cost <= 1e-9


def test_criterion_08_price_of_anarchy_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    checked = 0
    for k in range(100):
        inst = random_instance(rng, zero_loads=(k % 2 == 0))
        profile, _ = run_sequential_pass(inst, order=rng.permutation(inst.num_players))
        ratio = empirical_poa(inst, profile)
        assert ratio <= poa_upper_bound(inst) + 1e-9
        if not np.any(inst.initial_loads):
            assert ratio <= 3.0 + 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 100 and elapsed < 30.0
    report(8, "price-of-anarchy soundness", ok, f"{checked} instances", elapsed)
    assert elapsed < 30.0


def test_criterion_09_equal_normalized_loads_at_equilibrium(one_pass_equilibria):
    start = time.perf_counter()
    worst = 0.0
    for inst, profile in one_pass_equilibria:
        levels = normalized_loads(inst, profile)
        support = np.any(profile.matrix > 0, axis=0)
        expected = (
            inst.initial_loads[support].sum() + inst.total_job_length
        ) / inst.service_rates[support].sum()
        worst = max(worst, float(np.max(np.abs(levels[support] - expected))))
        assert np.all(np.abs(levels[support] - expected) <= 1e-7)
        assert np.all(levels[~support] >= expected - 1e-7)
    elapsed = time.perf_counter() - start
    report(9, "equal normalized loads on equilibrium support", True, f"worst gap {worst:.2e}", elapsed)


def test_criterion_10_update_mode_comparison():
    start = time.perf_counter()
    pairs = {}
    for sid in (1, 5, 6, 7):
        inst = builtin_setting(sid).instance
        seq = run_sequential(DynamicRun(inst, "sequential", order="random", seed=sid))
        sim = run_simultaneous(DynamicRun(inst, "simultaneous"))
        assert seq.converged_at is not None and sim.converged_at is not None
        assert seq.converged_at <= sim.converged_at
        pairs[sid] = (seq.converged_at, sim.converged_at)
    factor_ok = 176 / 2 <= pairs[5][1] <= 176 * 2
    # Setting 2's sampled job mass exceeds its capacity, so only the
    # one-at-a-time mode is runnable; the ordering holds vacuously there.
    spec2 = builtin_setting(2)
    assert "simultaneous" not in spec2.modes
    report2 = run_experiment(spec2, seed=1)
    assert report2.sequential.converged_at is not None
    elapsed = time.perf_counter() - start
    ok = factor_ok
    detail = ", ".join(f"S{sid} seq={a} simul={b}" for sid, (a, b) in pairs.items())
    report(10, "sequential vs simultaneous ordering", ok, detail, elapsed)
    assert factor_ok


def test_criterion_11_byte_identical_seeded_traces(tmp_path):
    start = time.perf_counter()
    identical = True
    for fmt in ("csv", "jsonl"):
        paths = []
        for tag in ("x", "y"):
            report_obj = run_experiment(builtin_setting(1), seed=2024)
            paths.append(
                export_trace(report_obj, tmp_path / f"{tag}.{fmt}", fmt)
            )
        identical &= paths[0].read_bytes() == paths[1].read_bytes()
    elapsed = time.perf_counter() - start
    report(11, "byte-identical seeded traces", identical, "csv and jsonl", elapsed)
    assert identical
