from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbgame import (
    Action,
    ActionProfile,
    DynamicRun,
    GeneratorSpec,
    InfeasibleError,
    Instance,
    ServerLoads,
    Trace,
    best_response,
    builtin_setting,
    dynamic_step,
    full_support_time,
    generate_instance,
    instantaneous_cost,
    is_nash,
    run_sequential,
    run_simultaneous,
    run_sequential_pass,
    setting_instance,
    state_transition,
    zero_load_time,
    zero_load_time_alt,
)
from lbgame import dynamic, model, static
from lbgame.dynamic import StepRecord

import exact as ex
from conftest import random_instance


def positive_support(action):
    return frozenset(np.nonzero(action.fractions > 0)[0])


def chained_step(inst, loads, i):
    """One sequential step by the validated public chain, independent of the
    engine's raw kernel: best response, its cost against the observed
    queues, then the drain."""
    action = best_response(inst, i, loads).action
    cost = instantaneous_cost(inst, action, loads, i)
    after = state_transition(inst, loads, inst.job_lengths[i] * action.fractions)
    return action, after, cost


class TestDynamicStep:
    def test_empty_queues_are_absorbing(self):
        inst = Instance([1.0, 2.0], [1.5, 2.5])
        action, after, _ = dynamic_step(inst, ServerLoads([0.0, 0.0]), 1)
        assert np.allclose(action.fractions, inst.service_rates / inst.total_service_rate)
        assert np.array_equal(after.loads, [0.0, 0.0])

    def test_worked_continuation(self):
        inst = Instance([1.0, 2.0], [1.5, 2.5], [2.0, 4.0])
        action, after, _ = dynamic_step(inst, ServerLoads([1.5, 2.5]), 0)
        assert np.allclose(action.fractions, [0.375, 0.625])
        assert np.allclose(after.loads, [0.375, 0.625])

    def test_single_server(self):
        inst = Instance([1.0], [2.0], [5.0])
        action, after, _ = dynamic_step(inst, ServerLoads([5.0]), 0)
        assert np.array_equal(action.fractions, [1.0])
        assert after.loads[0] == pytest.approx(4.0, abs=1e-12)


class TestRunConfig:
    def test_sequential_requires_largest_job_to_fit(self):
        bad = Instance([5.0], [2.0, 2.0], [1.0, 1.0])
        with pytest.raises(InfeasibleError):
            DynamicRun(bad, "sequential")

    def test_simultaneous_requires_total_mass_to_fit(self):
        # feasible one at a time, infeasible all at once
        bad = Instance([2.5, 3.0], [3.0, 2.0], [1.0, 1.0])
        DynamicRun(bad, "sequential")
        with pytest.raises(InfeasibleError, match="total arrival rate exceeds"):
            DynamicRun(bad, "simultaneous")

    def test_default_horizon_is_ten_times_the_drain_bound(self):
        inst = builtin_setting(5).instance
        cfg = DynamicRun(inst, "sequential", order="round-robin")
        assert cfg.max_steps == 10 * zero_load_time(inst)

    def test_simultaneous_default_horizon_is_ten_times_the_merged_bound(self):
        # Simultaneous mode drains as one player holding all the work, so its
        # horizon comes from that merged instance: 10 x 10,000 steps here,
        # where the instance's own sequential bound (393) gave too few.
        inst = Instance([0.49, 0.49], [1.0], [100.0])
        merged = Instance([inst.total_job_length], [1.0], [100.0])
        assert zero_load_time(merged) == 10_000
        assert DynamicRun(inst, "simultaneous").max_steps == 100_000

    def test_explicit_order_validated(self):
        inst = Instance([1.0, 1.0], [2.0], [1.0])
        DynamicRun(inst, "sequential", order=(0, 1, 0))
        with pytest.raises(IndexError):
            DynamicRun(inst, "sequential", order=(0, 2))
        with pytest.raises(ValueError):
            DynamicRun(inst, "sequential", order="fifo")

    def test_mode_checked_at_run_time(self):
        inst = Instance([1.0], [2.0])
        with pytest.raises(ValueError):
            run_simultaneous(DynamicRun(inst, "sequential"))
        with pytest.raises(ValueError):
            run_sequential(DynamicRun(inst, "simultaneous"))


class TestSequentialRuns:
    def test_setting_one_drains_and_stays_at_zero(self):
        inst = builtin_setting(1).instance
        done = run_sequential(DynamicRun(inst, "sequential", order="random", seed=7))
        assert done.converged_at is not None
        tail = [r for r in done.trace if r.t >= done.converged_at]
        assert tail
        assert all(r.total_load == 0.0 for r in tail)
        assert all(np.all(r.loads_after.loads == 0.0) for r in tail)

    def test_setting_five_round_robin_beats_drain_bound(self):
        inst = builtin_setting(5).instance
        done = run_sequential(DynamicRun(inst, "sequential", order="round-robin"))
        bound = min(zero_load_time(inst), zero_load_time_alt(inst))
        assert done.converged_at is not None
        assert done.converged_at <= bound == 91

    def test_zero_start_converges_immediately_to_proportional_play(self):
        inst = Instance([1.0, 0.5], [1.5, 2.5])
        done = run_sequential(DynamicRun(inst, "sequential", order="round-robin"))
        assert done.converged_at == 0
        share = inst.service_rates / inst.total_service_rate
        for record in done.trace:
            assert np.allclose(record.actions[0].fractions, share, atol=1e-9)

    def test_drift_is_exactly_capacity_minus_arrival(self):
        # once every response spans all servers, each step with leftover
        # backlog removes exactly total rate minus the arriving job
        inst = builtin_setting(5).instance
        done = run_sequential(DynamicRun(inst, "sequential", order="round-robin"))
        lead = full_support_time(inst)
        for record in done.trace:
            if record.t < lead or record.total_load <= 0.0:
                continue
            drop = record.loads_before.total - record.total_load
            expected = inst.total_service_rate - inst.job_lengths[record.arrivals[0]]
            assert drop == pytest.approx(expected, abs=1e-9)

    def test_full_support_after_lead_time_and_nested_supports(self):
        rng = np.random.default_rng(73)
        for sid in (1, 5, 6, 7):
            inst = builtin_setting(sid).instance
            done = run_sequential(
                DynamicRun(inst, "sequential", order="random", seed=int(rng.integers(2**32)))
            )
            lead = full_support_time(inst)
            previous = frozenset()
            for record in done.trace:
                support = positive_support(record.actions[0])
                assert support >= previous
                previous = support
                if record.t >= lead:
                    assert len(support) == inst.num_servers

    def test_converged_state_is_absorbing_across_orders(self):
        inst = builtin_setting(6).instance
        for seed in range(5):
            done = run_sequential(DynamicRun(inst, "sequential", order="random", seed=seed))
            assert done.converged_at is not None
            assert done.converged_at <= min(zero_load_time(inst), zero_load_time_alt(inst))
            for record in done.trace[done.converged_at:]:
                assert record.total_load == 0.0


def reference_simultaneous(inst, max_steps):
    """The per-round simulation, the reference for the merged engine: each
    round, one in-turn pass from uniform rows on the observed queues, then
    the drain of the players' combined work. Returns the loads column and
    ``converged_at`` under the engine's stopping rule."""
    loads = ServerLoads(inst.initial_loads)
    column, candidate = [loads.loads], None
    for t in range(max_steps):
        profile, _ = run_sequential_pass(Instance(inst.job_lengths, inst.service_rates, loads.loads))
        loads = state_transition(inst, loads, inst.job_lengths @ profile.matrix)
        column.append(loads.loads)
        if loads.loads.any():
            candidate = None
        elif candidate is None:
            candidate = t
        else:
            break
    return np.array(column), candidate


class TestSimultaneousRuns:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("sid", [1, 3, 5, 6, 7])
    def test_run_matches_the_per_round_reference(self, sid, seed):
        inst = setting_instance(builtin_setting(sid), seed)
        done = run_simultaneous(DynamicRun(inst, "simultaneous"))
        loads, converged_at = reference_simultaneous(inst, done.max_steps)
        assert done.converged_at == converged_at
        assert done.trace.loads.shape == loads.shape
        assert np.max(np.abs(done.trace.loads - loads)) <= 1e-13 * loads.max()

    def test_setting_one_converges_slower_than_sequential(self):
        inst = builtin_setting(1).instance
        seq = run_sequential(DynamicRun(inst, "sequential", order="random", seed=3))
        sim = run_simultaneous(DynamicRun(inst, "simultaneous"))
        assert sim.converged_at is not None
        assert seq.converged_at <= sim.converged_at
        assert all(
            r.total_load == 0.0 for r in sim.trace if r.t >= sim.converged_at
        )

    def test_single_player_matches_sequential_round_robin(self):
        inst = Instance([1.0], [1.5, 2.5], [2.0, 4.0])
        seq = run_sequential(DynamicRun(inst, "sequential", order="round-robin"))
        sim = run_simultaneous(DynamicRun(inst, "simultaneous"))
        assert seq.converged_at == sim.converged_at
        for a, b in zip(seq.trace, sim.trace):
            assert a.actions == b.actions
            assert a.loads_after == b.loads_after

    def test_each_step_removes_at_least_the_capacity_surplus(self):
        inst = builtin_setting(7).instance
        sim = run_simultaneous(DynamicRun(inst, "simultaneous"))
        surplus = inst.total_service_rate - inst.total_job_length
        for record in sim.trace:
            if record.total_load > 0.0:
                drop = record.loads_before.total - record.total_load
                assert drop >= surplus - 1e-9

    def test_setting_seven_drains_exactly_on_round_299(self):
        # Exact merged run: the backlog of 60 falls by 4 - 3.8 = 0.2 a round
        # (the float jobs sum to a hair below 3.8), so 300 drains empty it.
        inst = builtin_setting(7).instance
        lengths, rates, loads = ex.of(inst)
        for t in range(301):
            levels = [q / r for q, r in zip(loads, rates)]
            loads = ex.drain(loads, ex.water_fill(sum(lengths), rates, levels), rates)
            if not any(loads):
                break
        assert t == 299
        assert run_simultaneous(DynamicRun(inst, "simultaneous")).converged_at == t


@st.composite
def near_critical_instances(draw):
    """A simultaneous-stable instance with n, m <= 4, backlogs of up to 10
    steps of each server's own work and a surplus 1 - sum(lambda)/sum(mu)
    from 1e-2 to 0.5."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    rates = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)))
    steps = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=m, max_size=m)))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
    surplus = draw(st.floats(1e-2, 0.5))
    lengths = (1.0 - surplus) * rates.sum() * weights / weights.sum()
    return Instance(lengths, rates, steps * rates)


@settings(max_examples=60, deadline=None)
@given(near_critical_instances())
def test_simultaneous_drains_within_the_merged_bounds(inst):
    merged = Instance([inst.total_job_length], inst.service_rates, inst.initial_loads)
    done = run_simultaneous(DynamicRun(inst, "simultaneous"))
    assert done.converged_at is not None
    assert done.converged_at <= min(zero_load_time(merged), zero_load_time_alt(merged))


@st.composite
def stability_edges(draw):
    """lambda, mu and s0 on a grid of 1/8, so every sum is exact, with the
    largest job or the total work often exactly equal to the total rate."""
    rates = draw(st.lists(st.integers(1, 16), min_size=1, max_size=4))
    lengths = draw(st.lists(st.integers(1, 16), min_size=1, max_size=4))
    loads = draw(st.lists(st.integers(0, 16), min_size=len(rates), max_size=len(rates)))
    edge = draw(st.sampled_from(["none", "largest", "total"]))
    if edge == "largest":
        lengths[0] = sum(rates)
    elif edge == "total" and sum(lengths[:-1]) < sum(rates):
        lengths[-1] = sum(rates) - sum(lengths[:-1])
    return Instance(np.array(lengths) / 8, np.array(rates) / 8, np.array(loads) / 8)


# What each mode's refusal names: the work one step brings.
REFUSALS = {
    "sequential": "the largest job length must stay below the total service rate",
    "simultaneous": "the total arrival rate exceeds the total service rate",
}


@settings(deadline=None)
@given(stability_edges(), st.sampled_from(sorted(REFUSALS)))
def test_runs_and_bounds_share_one_stability_rule(inst, mode):
    # A run is refused exactly when the bounds of its drain instance are:
    # when the largest job (sequential) or the total work (simultaneous)
    # reaches the total service rate.
    drain = dynamic._drain_instance(inst, mode)
    work = inst.max_job_length if mode == "sequential" else inst.total_job_length
    checks = [
        (lambda: DynamicRun(inst, mode, max_steps=1), REFUSALS[mode]),
        (lambda: zero_load_time(drain), "zero-load bound"),
        (lambda: zero_load_time_alt(drain), "alternative bound"),
    ]
    for call, match in checks:
        if work >= inst.total_service_rate:
            with pytest.raises(InfeasibleError, match=match):
                call()
        else:
            call()


class TestSharedKernels:
    """Both run modes share one stepping loop; each recorded step must still
    be the public one-step computation of its mode."""

    @pytest.mark.parametrize("sid", [3, 5, 7])
    def test_simultaneous_round_is_the_pass_on_observed_loads(self, sid):
        inst = setting_instance(builtin_setting(sid), 0)
        done = run_simultaneous(DynamicRun(inst, "simultaneous"))
        for record in done.trace:
            before = record.loads_before
            profile, _ = run_sequential_pass(
                Instance(inst.job_lengths, inst.service_rates, before.loads)
            )
            assert len(record.actions) == inst.num_players
            for i, (row, action) in enumerate(zip(profile.matrix, record.actions)):
                assert np.array_equal(action.fractions, row)
                cost = instantaneous_cost(inst, Action(row), before, i)
                assert record.instantaneous_costs[i] == cost
            # The queues drain as one player holding all the work: every
            # equilibrium of the round places that player's water-fill.
            merged = Instance([inst.total_job_length], inst.service_rates, before.loads)
            assert record.loads_after == dynamic_step(merged, before, 0)[1]

    # Generated settings 2, 3 and 4 put wide rows (m = 200, 50, 100) through
    # the batched pricing of a sequential run.
    @pytest.mark.parametrize("sid", [2, 3, 4, 5, 7])
    def test_sequential_record_is_dynamic_step(self, sid):
        inst = setting_instance(builtin_setting(sid), 0)
        done = run_sequential(DynamicRun(inst, "sequential", order="random", seed=sid))
        for record in done.trace:
            (i,) = record.arrivals
            action, after, cost = dynamic_step(inst, record.loads_before, i)
            assert record.actions == (action,)
            assert record.loads_after == after
            assert record.instantaneous_costs == (cost,)

    @pytest.mark.parametrize("sid", [1, 5, 7])
    @pytest.mark.parametrize(
        "order", ["random", "round-robin", (3, 1, 0, 2, 2)], ids=["random", "rr", "explicit"]
    )
    def test_sequential_record_is_the_public_chain(self, sid, order):
        inst = builtin_setting(sid).instance
        done = run_sequential(DynamicRun(inst, "sequential", order=order, seed=sid))
        for record in done.trace:
            (i,) = record.arrivals
            action, after, cost = chained_step(inst, record.loads_before, i)
            assert record.actions == (action,)
            assert record.loads_after == after
            assert record.instantaneous_costs == (cost,)

    def test_dynamic_step_is_the_public_chain_on_random_loads(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            inst = random_instance(rng)
            raw = rng.uniform(0.0, 5.0, inst.num_servers)
            raw[rng.random(inst.num_servers) < 0.3] = 0.0
            loads = ServerLoads(raw)
            i = int(rng.integers(inst.num_players))
            action, after, cost = dynamic_step(inst, loads, i)
            want_action, want_after, want_cost = chained_step(inst, loads, i)
            assert action == want_action
            assert after == want_after
            assert cost == want_cost

    @pytest.mark.parametrize("sid", [1, 3, 5, 7])
    def test_pricing_block_size_changes_no_bit(self, sid, monkeypatch):
        # Tiny blocks split every run's pricing into many blocks, down to one
        # row where a row holds more values than a block.
        inst = setting_instance(builtin_setting(sid), 0)
        configs = (DynamicRun(inst, "sequential", seed=sid), DynamicRun(inst, "simultaneous"))
        plays = (run_sequential, run_simultaneous)
        default = [play(cfg) for play, cfg in zip(plays, configs)]
        monkeypatch.setattr(dynamic, "_BLOCK", 16)
        for play, cfg, want in zip(plays, configs, default):
            done = play(cfg)
            assert done.trace == want.trace
            assert done.converged_at == want.converged_at

    @pytest.mark.parametrize("sid", [5, 7])
    def test_runs_reach_no_public_step_function(self, sid, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the stepping loop called a validated public function")

        for module in (dynamic, model, static):
            for name in ("best_response", "instantaneous_cost", "state_transition", "dynamic_step"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        inst = builtin_setting(sid).instance
        assert run_sequential(DynamicRun(inst, "sequential", seed=sid)).converged_at is not None
        assert run_simultaneous(DynamicRun(inst, "simultaneous")).converged_at is not None


class TestBounds:
    def test_setting_five_values(self):
        inst = builtin_setting(5).instance
        assert full_support_time(inst) == 50
        assert zero_load_time(inst) == 91
        assert zero_load_time_alt(inst) == 15050

    def test_zero_backlog_gives_zero_bounds(self):
        inst = Instance([1.0], [1.5, 2.5])
        assert full_support_time(inst) == 0
        assert zero_load_time(inst) == 0
        assert zero_load_time_alt(inst) == 0

    def test_one_step_drain(self):
        inst = Instance([1.0], [1.5, 2.5], [1.5, 2.5])
        assert full_support_time(inst) == 1

    def test_alternative_bound_homogeneous_example(self):
        inst = Instance([0.5], [1.0, 1.0], [1.0, 1.0])
        # slowest-server terms: min(1.5, 1, 0.5) -> ceil(2 / 0.5) = 4
        assert zero_load_time_alt(inst) == 4

    def test_bounds_require_stability(self):
        bad = Instance([5.0], [2.0, 2.0], [1.0, 0.0])
        with pytest.raises(InfeasibleError):
            zero_load_time(bad)
        with pytest.raises(InfeasibleError):
            zero_load_time_alt(bad)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "inst,bound",
        [
            # a backlog on a near-stalled server overflows every bound
            pytest.param(stalled, bound, id=f"stalled-{bound.__name__}")
            for stalled in [Instance([0.5], [1e-10, 1.0], [1e300, 0.0])]
            for bound in (full_support_time, zero_load_time, zero_load_time_alt)
        ]
        + [
            # a job a hair under the rate overflows the backlog's drain time
            pytest.param(critical, bound, id=f"critical-{bound.__name__}")
            for critical in [Instance([1.0], [1.0000000000000002], [1e300])]
            for bound in (zero_load_time, zero_load_time_alt)
        ],
    )
    def test_overflowing_bounds_are_refused(self, inst, bound):
        with pytest.raises(ValueError, match="bound is not finite"):
            bound(inst)

    def test_setting_one_bound_holds_over_random_orders(self):
        inst = builtin_setting(1).instance
        bound = min(zero_load_time(inst), zero_load_time_alt(inst))
        assert zero_load_time(inst) == 113
        for seed in range(20):
            done = run_sequential(DynamicRun(inst, "sequential", order="random", seed=seed))
            assert done.converged_at is not None
            assert done.converged_at <= bound


class TestRunningAverages:
    def test_post_convergence_arrival_cost_is_steady(self):
        inst = builtin_setting(5).instance
        done = run_sequential(DynamicRun(inst, "sequential", order="round-robin"))
        steady = inst.job_lengths**2 / (2 * inst.total_service_rate)
        for record in done.trace:
            if record.t > done.converged_at:
                i = record.arrivals[0]
                assert record.instantaneous_costs[0] == pytest.approx(
                    steady[i], abs=1e-9
                )

    def test_per_arrival_average_settles_within_five_percent(self):
        # the run halts once drained; every arrival after that costs exactly
        # the steady value (asserted above at 1e-9), so the long-horizon
        # average is the recorded costs padded with steady-value arrivals.
        # The early transient decays like 1/T and needs a horizon of about
        # 200x the drain bound to fall under five percent for every player.
        inst = builtin_setting(5).instance
        horizon = 200 * zero_load_time(inst)
        done = run_sequential(
            DynamicRun(inst, "sequential", order="round-robin", max_steps=horizon)
        )
        steady = inst.job_lengths**2 / (2 * inst.total_service_rate)
        for i in range(inst.num_players):
            costs = done.trace.costs[done.trace.arrivals == i]
            extra = sum(
                1
                for t in range(len(done.trace), horizon)
                if t % inst.num_players == i
            )
            mean = (costs.sum() + extra * steady[i]) / (costs.size + extra)
            assert mean == pytest.approx(steady[i], rel=0.05)


class TestStepRecords:
    def test_transition_consistency(self):
        inst = builtin_setting(6).instance
        done = run_sequential(DynamicRun(inst, "sequential", order="round-robin"))
        for record in done.trace:
            contrib = np.zeros(inst.num_servers)
            for slot, i in enumerate(record.arrivals):
                contrib += inst.job_lengths[i] * record.actions[slot].fractions
            expected = np.maximum(
                record.loads_before.loads + contrib - inst.service_rates, 0.0
            )
            assert np.allclose(record.loads_after.loads, expected, atol=1e-12)
            assert record.total_load == pytest.approx(record.loads_after.total)

    def test_records_are_value_objects(self):
        inst = Instance([1.0], [2.0], [1.0])
        a = run_sequential(DynamicRun(inst, "sequential", order="round-robin"))
        b = run_sequential(DynamicRun(inst, "sequential", order="round-robin"))
        assert a.trace == b.trace
        assert isinstance(a.trace[0], StepRecord)


class TestColumnarTrace:
    """A run's history is one Trace of columns, checked once per run; the
    per-step records are views built only when asked for."""

    @pytest.mark.parametrize("sid", [5, 7])
    def test_runs_build_no_per_step_objects(self, sid, monkeypatch):
        built = Counter()
        for cls in (Action, ActionProfile, ServerLoads, Trace):
            def counting(self, _original=cls.__post_init__, _name=cls.__name__):
                built[_name] += 1
                _original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)

        def record(*args, _original=StepRecord):
            built["StepRecord"] += 1
            return _original(*args)

        monkeypatch.setattr(dynamic, "StepRecord", record)
        inst = builtin_setting(sid).instance
        seq = DynamicRun(inst, "sequential", seed=sid)
        sim = DynamicRun(inst, "simultaneous")
        built.clear()
        runs = [run_sequential(seq), run_simultaneous(sim)]
        assert all(len(run.trace) > 10 for run in runs)
        assert dict(built) == {"Trace": 2}
        runs[1].trace[-1]
        assert built["StepRecord"] == 1
        assert built["Action"] == inst.num_players
        assert built["ServerLoads"] == 2

    def test_unrun_config_holds_the_start_state(self):
        inst = builtin_setting(5).instance
        for mode, k in (("sequential", 1), ("simultaneous", inst.num_players)):
            trace = DynamicRun(inst, mode).trace
            assert len(trace) == 0
            assert list(trace) == []
            assert trace.fractions.shape == (0, k, inst.num_servers)
            assert np.array_equal(trace.loads, [inst.initial_loads])

    def test_views_match_the_columns(self):
        inst = builtin_setting(7).instance
        trace = run_simultaneous(DynamicRun(inst, "simultaneous")).trace
        records = list(trace)
        assert len(records) == len(trace) == trace.costs.shape[0]
        assert trace[-1] == records[-1]
        assert trace[-1].t == len(trace) - 1
        assert trace[2:5] == tuple(records[2:5])
        assert trace[::-1][0] == records[-1]
        with pytest.raises(IndexError):
            trace[len(trace)]
        for t, record in enumerate(records):
            assert record.t == t
            assert record.arrivals == tuple(range(inst.num_players))
            assert np.array_equal([a.fractions for a in record.actions], trace.fractions[t])
            assert np.array_equal(record.loads_before.loads, trace.loads[t])
            assert np.array_equal(record.loads_after.loads, trace.loads[t + 1])
            assert record.instantaneous_costs == tuple(trace.costs[t])
            assert record.total_load == record.loads_after.total

    def test_columns_are_read_only(self):
        trace = run_sequential(DynamicRun(builtin_setting(5).instance, "sequential")).trace
        for column in (trace.arrivals, trace.fractions, trace.loads, trace.costs):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_float64_columns_are_kept_without_a_copy(self):
        columns = dict(
            arrivals=np.array([[0], [1]]),
            fractions=np.array([[[0.5, 0.5]], [[1.0, 0.0]]]),
            loads=np.array([[1.0, 2.0], [0.5, 1.0], [0.0, 0.0]]),
            costs=np.array([[1.0], [0.5]]),
        )
        trace = Trace(**columns)
        for name, given in columns.items():
            assert np.shares_memory(getattr(trace, name), given)
            assert not given.flags.writeable

    @pytest.mark.parametrize("mode,k,m", [("sequential", 1, 3), ("simultaneous", 2, 2)])
    def test_run_refuses_a_trace_that_does_not_fit(self, mode, k, m):
        # one player on two servers: a sequential or simultaneous step holds
        # one arrival on two servers
        inst = Instance([1.0], [2.0, 2.0], [1.0, 1.0])
        fractions = np.full((1, k, m), 1.0 / m)
        trace = Trace(np.zeros((1, k), int), fractions, np.ones((2, m)), np.ones((1, k)))
        with pytest.raises(ValueError, match="trace does not fit the run"):
            DynamicRun(inst, mode, trace=trace)

    def test_trace_checks_the_whole_run(self):
        good = dict(
            arrivals=[[0], [1]],
            fractions=[[[0.5, 0.5]], [[1.0, 0.0]]],
            loads=[[1.0, 2.0], [0.5, 1.0], [0.0, 0.0]],
            costs=[[1.0], [0.5]],
        )
        assert len(Trace(**good)) == 2
        with pytest.raises(ValueError, match="sums to"):
            Trace(**{**good, "fractions": [[[0.5, 0.5]], [[0.9, 0.0]]]})
        with pytest.raises(ValueError, match="nonnegative"):
            Trace(**{**good, "fractions": [[[0.5, 0.5]], [[1.1, -0.1]]]})
        for bad, match in ((-0.1, "nonnegative"), (np.nan, "finite"), (np.inf, "finite")):
            loads = np.array(good["loads"])
            loads[1, 0] = bad
            with pytest.raises(ValueError, match=match):
                Trace(**{**good, "loads": loads})
        with pytest.raises(ValueError, match="not finite"):
            Trace(**{**good, "costs": [[1.0], [np.inf]]})
        with pytest.raises(ValueError, match="disagree"):
            Trace(**{**good, "loads": good["loads"][:2]})
        with pytest.raises(ValueError, match="disagree"):
            Trace(**{**good, "arrivals": [[0, 1], [1, 0]]})


class TestHorizonGuard:
    """A horizon whose trace could exceed 2**26 values is refused up front:
    max_steps * (k*m + m + 2k) values, k arrivals per step on m servers."""

    def test_near_critical_default_horizon_refused(self):
        inst = Instance([0.999999], [1.0], [10.0])
        assert 10 * zero_load_time(inst) * 4 > 2**26
        with pytest.raises(ValueError, match="trace values, over the limit of 67108864"):
            DynamicRun(inst, "sequential")

    @pytest.mark.parametrize(
        "mode, n, m, per_step", [("sequential", 3, 3, 1 * 3 + 3 + 2), ("simultaneous", 2, 4, 2 * 4 + 4 + 4)]
    )
    def test_limit_is_inclusive(self, mode, n, m, per_step):
        # per-step counts that divide 2**26, so the limit itself is reachable
        inst = Instance([0.1] * n, [1.0] * m, [1.0] * m)
        steps = 2**26 // per_step
        assert steps * per_step == 2**26
        assert DynamicRun(inst, mode, max_steps=steps).max_steps == steps
        with pytest.raises(ValueError, match=f"horizon of {steps + 1} steps"):
            DynamicRun(inst, mode, max_steps=steps + 1)

    def test_runs_in_use_fit(self):
        spec = GeneratorSpec(64, 8, (1.0, 2.0), (0.5, 1.5), (1e4, 2e4))
        long_drain = DynamicRun(generate_instance(spec, 7), "sequential")
        assert long_drain.max_steps * (8 + 8 + 2) < 2**26


@st.composite
def scaled_instances(draw):
    """A stable instance with n, m <= 6 and the same instance with lambda,
    mu and s0 scaled by 2**k, k in [-60, 60]. Backlogs are 0 or at least
    1e-3, so no scaled value falls into the subnormal range."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    rates = np.array(draw(st.lists(st.floats(0.2, 3.0), min_size=m, max_size=m)))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    lengths = draw(st.floats(0.05, 0.9)) * rates.sum() * weights / weights.sum()
    backlog = st.one_of(st.just(0.0), st.floats(1e-3, 5.0))
    loads = np.array(draw(st.lists(backlog, min_size=m, max_size=m)))
    scale = 2.0 ** draw(st.integers(-60, 60))
    return Instance(lengths, rates, loads), Instance(lengths * scale, rates * scale, loads * scale), scale


@settings(max_examples=150, deadline=None)
@given(scaled_instances(), st.sampled_from(["sequential", "simultaneous"]), st.integers(0, 2**32 - 1))
def test_power_of_two_scaling_is_exact(case, mode, seed):
    inst, big, scale = case
    runner = run_sequential if mode == "sequential" else run_simultaneous
    base = runner(DynamicRun(inst, mode, seed=seed))
    scaled = runner(DynamicRun(big, mode, seed=seed))
    assert np.array_equal(base.trace.arrivals, scaled.trace.arrivals)
    assert np.array_equal(base.trace.fractions, scaled.trace.fractions)
    assert np.array_equal(base.trace.loads * scale, scaled.trace.loads)
    assert np.array_equal(base.trace.costs * scale, scaled.trace.costs)
    assert base.converged_at == scaled.converged_at
    for bound in (full_support_time, zero_load_time, zero_load_time_alt):
        assert bound(inst) == bound(big)
    # The one-shot game too: the same pass equilibrium, the same verdict
    # and the gap bound in cost units, all exact.
    profile, _ = run_sequential_pass(inst)
    big_profile, _ = run_sequential_pass(big)
    assert profile == big_profile
    check, big_check = is_nash(inst, profile), is_nash(big, big_profile)
    assert check.is_equilibrium == big_check.is_equilibrium
    assert check.max_improvement * scale == big_check.max_improvement
