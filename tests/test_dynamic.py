from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
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


def chained_step(inst, loads, i):
    """One sequential step by the validated public chain, independent of the
    engine's raw kernel: best response, its cost against the observed
    queues, then the drain. Returns ``(action, new_loads, cost)``; the
    reference for every recorded step."""
    action = best_response(inst, i, loads).action
    cost = instantaneous_cost(inst, action, loads, i)
    after = state_transition(inst, loads, inst.job_lengths[i] * action.fractions)
    return action, after, cost


class TestDynamicStep:
    def test_empty_queues_are_absorbing(self):
        inst = Instance([1.0, 2.0], [1.5, 2.5])
        action, after, _ = chained_step(inst, ServerLoads([0.0, 0.0]), 1)
        assert np.allclose(action.fractions, inst.service_rates / inst.total_service_rate)
        assert np.array_equal(after.loads, [0.0, 0.0])

    def test_worked_continuation(self):
        inst = Instance([1.0, 2.0], [1.5, 2.5], [2.0, 4.0])
        action, after, _ = chained_step(inst, ServerLoads([1.5, 2.5]), 0)
        assert np.allclose(action.fractions, [0.375, 0.625])
        assert np.allclose(after.loads, [0.375, 0.625])

    def test_single_server(self):
        inst = Instance([1.0], [2.0], [5.0])
        action, after, _ = chained_step(inst, ServerLoads([5.0]), 0)
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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_steps", True, "max_steps must be a positive integer"),
            ("max_steps", 0, "max_steps must be a positive integer"),
            ("max_steps", 2.0, "max_steps must be a positive integer"),
            ("seed", "x", "seed must be a nonnegative integer"),
            ("seed", -1, "seed must be a nonnegative integer"),
            ("seed", 1.7, "seed must be a nonnegative integer"),
            ("seed", False, "seed must be a nonnegative integer"),
            ("order", (0, 0.5), "explicit order entry must be an integer"),
            ("order", (0, True), "explicit order entry must be an integer"),
            ("order", ("0",), "explicit order entry must be an integer"),
        ],
    )
    def test_integer_settings_refused_when_built(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DynamicRun(Instance([1.0], [2.0]), "sequential", **{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("mode", "batch", "unknown mode: 'batch'"),
            ("order", (), "explicit order sequence must not be empty"),
        ],
    )
    def test_mode_and_order_refused_when_built(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DynamicRun(Instance([1.0], [2.0]), **{"mode": "sequential", field: value})

    def test_integer_settings_accept_numpy_integers(self):
        run = DynamicRun(
            Instance([1.0], [2.0]), "sequential", order=(np.int32(0),),
            max_steps=np.int64(3), seed=np.uint64(4),
        )
        assert (run.order, run.max_steps, run.seed) == ((0,), 3, 4)
        assert (type(run.order[0]), type(run.max_steps), type(run.seed)) == (int, int, int)

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
        tail = done.trace.loads[done.converged_at + 1 :]
        assert len(tail)
        assert np.all(tail == 0.0)

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
        assert np.allclose(done.trace.fractions[:, 0], share, atol=1e-9)

    def test_drift_is_exactly_capacity_minus_arrival(self):
        # once every response spans all servers, each step with leftover
        # backlog removes exactly total rate minus the arriving job. The
        # catalog settings drain the step before full support, so heavy jobs
        # on level queues keep a backlog long past it.
        inst = Instance([1.8, 0.9], [1.0, 1.0], [10.0, 10.0])
        done = run_sequential(DynamicRun(inst, "sequential", order="round-robin"))
        lead = full_support_time(inst)
        totals = done.trace.loads.sum(axis=1)
        drops = totals[:-1] - totals[1:]
        expected = inst.total_service_rate - inst.job_lengths[done.trace.arrivals[:, 0]]
        steps = (np.arange(len(done.trace)) >= lead) & (totals[1:] > 0.0)
        assert steps.any()
        assert drops[steps] == pytest.approx(expected[steps], abs=1e-9)

    def test_full_support_after_lead_time_and_nested_supports(self):
        rng = np.random.default_rng(73)
        for sid in (1, 5, 6, 7):
            inst = builtin_setting(sid).instance
            done = run_sequential(
                DynamicRun(inst, "sequential", order="random", seed=int(rng.integers(2**32)))
            )
            supports = done.trace.fractions[:, 0] > 0
            assert not np.any(supports[:-1] & ~supports[1:]), "supports must be nested"
            assert supports[full_support_time(inst) :].all()

    @settings(deadline=None)
    @given(st.data())
    def test_every_response_spans_all_servers_from_the_lead_time(self, data):
        # Up to 6 players on up to 40 servers, stable in sequential play,
        # with backlogs of up to 30 steps of service, some queues empty,
        # some level with others, and a random order. From
        # ``full_support_time`` on, every best response puts work on every
        # server.
        m, n = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 6))
        rate = st.one_of(st.floats(0.1, 10.0), st.sampled_from([0.5, 1.0, 2.0]))
        rates = np.array(data.draw(st.lists(rate, min_size=m, max_size=m)))
        backlog = st.one_of(st.just(0.0), st.integers(1, 30).map(float), st.floats(0.0, 30.0))
        steps = np.array(data.draw(st.lists(backlog, min_size=m, max_size=m)))
        shares = np.array(data.draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n)))
        inst = Instance(shares * rates.sum(), rates, steps * rates)
        lead = full_support_time(inst)
        seed = data.draw(st.integers(0, 2**32 - 1))
        done = run_sequential(DynamicRun(inst, "sequential", seed=seed, max_steps=lead + 50))
        assert np.all(done.trace.fractions[lead:] > 0.0)

    def test_converged_state_is_absorbing_across_orders(self):
        inst = builtin_setting(6).instance
        for seed in range(5):
            done = run_sequential(DynamicRun(inst, "sequential", order="random", seed=seed))
            assert done.converged_at is not None
            assert done.converged_at <= min(zero_load_time(inst), zero_load_time_alt(inst))
            assert np.all(done.trace.loads[done.converged_at + 1 :] == 0.0)

    @pytest.mark.parametrize(
        "order, n",
        [("random", 1), ("random", 3), ("random", 500), ("round-robin", 1),
         ("round-robin", 3), ((0,), 1), ((2, 0, 2, 1, 0), 3)],
    )
    def test_arrivals_match_per_step_draws(self, order, n):
        # Past one block of arrivals, on a queue that outlasts the horizon.
        steps = dynamic._BLOCK + 7
        inst = Instance(np.linspace(0.2, 0.9, n), [1.0], [1e6])
        done = run_sequential(DynamicRun(inst, "sequential", order=order, seed=5, max_steps=steps))
        rng = np.random.default_rng(5)
        if order == "random":
            want = [int(rng.integers(n)) for _ in range(steps)]
        elif order == "round-robin":
            want = [t % n for t in range(steps)]
        else:
            want = [order[t % len(order)] for t in range(steps)]
        assert done.trace.arrivals[:, 0].tolist() == want


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
        assert np.all(sim.trace.loads[sim.converged_at + 1 :] == 0.0)

    def test_single_player_matches_sequential_round_robin(self):
        inst = Instance([1.0], [1.5, 2.5], [2.0, 4.0])
        seq = run_sequential(DynamicRun(inst, "sequential", order="round-robin"))
        sim = run_simultaneous(DynamicRun(inst, "simultaneous"))
        assert seq.converged_at == sim.converged_at
        assert np.array_equal(seq.trace.fractions, sim.trace.fractions)
        assert np.array_equal(seq.trace.loads, sim.trace.loads)

    def test_each_step_removes_at_least_the_capacity_surplus(self):
        inst = builtin_setting(7).instance
        sim = run_simultaneous(DynamicRun(inst, "simultaneous"))
        surplus = inst.total_service_rate - inst.total_job_length
        totals = sim.trace.loads.sum(axis=1)
        busy = totals[1:] > 0.0
        assert np.all((totals[:-1] - totals[1:])[busy] >= surplus - 1e-9)

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
def sequential_grid_runs(draw):
    """A sequential-stable instance with n, m <= 4 and lambda, mu and s0 on
    a grid of 1/8, plus round-robin or a drawn explicit arrival order."""
    rates = draw(st.lists(st.integers(1, 16), min_size=1, max_size=4))
    assume(sum(rates) > 1)
    top = min(16, sum(rates) - 1)
    lengths = draw(st.lists(st.integers(1, top), min_size=1, max_size=4))
    loads = draw(st.lists(st.integers(0, 16), min_size=len(rates), max_size=len(rates)))
    explicit = st.lists(st.integers(0, len(lengths) - 1), min_size=1, max_size=8)
    order = draw(st.one_of(st.just("round-robin"), explicit))
    return Instance(np.array(lengths) / 8, np.array(rates) / 8, np.array(loads) / 8), order


@settings(deadline=None)
@given(sequential_grid_runs())
def test_exact_sequential_drain_within_the_bounds(case):
    # The exact game drains by the smaller bound. The float run is not held
    # to it here: its drain rounds once per step and can land a step late.
    inst, order = case
    lengths, rates, loads = ex.of(inst)
    cycle = range(inst.num_players) if order == "round-robin" else order
    bound = min(zero_load_time(inst), zero_load_time_alt(inst))
    for t in range(bound + 1):
        i = cycle[t % len(cycle)]
        work = [lengths[i] * f for f in ex.respond(lengths[i], rates, loads)]
        loads = ex.drain(loads, work, rates)
        if not any(loads):
            break
    assert not any(loads), f"queues still hold work after step {bound}"


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
        trace = done.trace
        assert np.array_equal(trace.arrivals, np.tile(range(inst.num_players), (len(trace), 1)))
        for t in range(len(trace)):
            before = ServerLoads(trace.loads[t])
            profile, _ = run_sequential_pass(
                Instance(inst.job_lengths, inst.service_rates, before.loads)
            )
            assert np.array_equal(trace.fractions[t], profile.matrix)
            for i, row in enumerate(profile.matrix):
                assert trace.costs[t, i] == instantaneous_cost(inst, Action(row), before, i)
            # The queues drain as one player holding all the work: every
            # equilibrium of the round places that player's water-fill.
            merged = Instance([inst.total_job_length], inst.service_rates, before.loads)
            assert np.array_equal(trace.loads[t + 1], chained_step(merged, before, 0)[1].loads)

    @staticmethod
    def assert_steps_are(step, inst, trace):
        # Each recorded sequential step is ``step`` on the loads it observed.
        assert trace.arrivals.shape == (len(trace), 1)
        for t, i in enumerate(trace.arrivals[:, 0].tolist()):
            action, after, cost = step(inst, ServerLoads(trace.loads[t]), i)
            assert np.array_equal(trace.fractions[t, 0], action.fractions)
            assert np.array_equal(trace.loads[t + 1], after.loads)
            assert trace.costs[t, 0] == cost

    # Each recorded step is one step of the dynamic game, checked against the
    # public chain. Generated settings 2, 3 and 4 put wide rows (m = 200, 50,
    # 100) through the batched pricing of a sequential run.
    @pytest.mark.parametrize("sid", [2, 3, 4, 5, 7])
    def test_sequential_record_is_dynamic_step(self, sid):
        inst = setting_instance(builtin_setting(sid), 0)
        done = run_sequential(DynamicRun(inst, "sequential", order="random", seed=sid))
        self.assert_steps_are(chained_step, inst, done.trace)

    @pytest.mark.parametrize("sid", [1, 5, 7])
    @pytest.mark.parametrize(
        "order", ["random", "round-robin", (3, 1, 0, 2, 2)], ids=["random", "rr", "explicit"]
    )
    def test_sequential_record_is_the_public_chain(self, sid, order):
        inst = builtin_setting(sid).instance
        done = run_sequential(DynamicRun(inst, "sequential", order=order, seed=sid))
        self.assert_steps_are(chained_step, inst, done.trace)

    @pytest.mark.parametrize("sid", [1, 3, 5, 7])
    def test_pricing_block_size_changes_no_bit(self, sid, monkeypatch):
        # Tiny blocks split every run's pricing into many blocks, down to one
        # row where a row holds more values than a block.
        inst = setting_instance(builtin_setting(sid), 0)
        configs = (DynamicRun(inst, "sequential", seed=sid), DynamicRun(inst, "simultaneous"))
        plays = (run_sequential, run_simultaneous)
        default = [play(cfg) for play, cfg in zip(plays, configs)]
        monkeypatch.setattr(model, "_BLOCK", 16)
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
            for name in ("best_response", "instantaneous_cost", "state_transition"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        inst = builtin_setting(sid).instance
        assert run_sequential(DynamicRun(inst, "sequential", seed=sid)).converged_at is not None
        assert run_simultaneous(DynamicRun(inst, "simultaneous")).converged_at is not None


def oracle_step(length, rates, loads):
    """One drain step on arrays: the water-fill best response of a job of
    ``length`` to ``loads``, then the clamped drain. The reference that the
    stepping loop's float kernel must match bit for bit."""
    return model._drain(loads, length * static._respond(length, rates, loads)[0], rates)


class TestStepPaths:
    """Every drain step runs on Python floats; replayed step by step with
    the array formula, a run's loads and ``converged_at`` keep every bit."""

    @staticmethod
    def assert_agrees(done):
        inst, trace = done.inst, done.trace
        if done.mode == "simultaneous":
            lengths = [inst.total_job_length] * len(trace)  # the merged job
        else:
            lengths = inst.job_lengths[trace.arrivals[:, 0]].tolist()
        rates, loads = inst.service_rates, trace.loads
        for t, length in enumerate(lengths):
            # Array equality takes -0.0 for 0.0; the bytes do not.
            assert loads[t + 1].tobytes() == oracle_step(length, rates, loads[t]).tobytes()
        # The first step of the run's final stretch of empty queues.
        after_busy = 1 + max((t for t in range(len(trace)) if loads[t + 1].any()), default=-1)
        assert done.converged_at == (after_busy if after_busy < len(trace) else None)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("sid", range(1, 8))
    def test_catalog_runs_agree(self, sid, seed):
        setting = builtin_setting(sid)
        inst = setting_instance(setting, seed)
        for mode, play in (("sequential", run_sequential), ("simultaneous", run_simultaneous)):
            if mode in setting.modes:
                self.assert_agrees(play(DynamicRun(inst, mode, seed=seed)))

    def test_long_drain_shaped_run_agrees(self):
        spec = GeneratorSpec(64, 8, (1.0, 2.0), (0.5, 1.5), (1e4, 2e4))
        cfg = DynamicRun(generate_instance(spec, 7), "sequential", seed=0, max_steps=2000)
        self.assert_agrees(run_sequential(cfg))

    @pytest.mark.parametrize(
        "mode, play",
        [("sequential", run_sequential), ("simultaneous", run_simultaneous)],
        ids=["sequential", "simultaneous"],
    )
    def test_wide_drain_agrees(self, mode, play):
        # 200 servers that drain over hundreds of steps: the support grows
        # as queues empty, and empty queues tie at level 0.
        spec = GeneratorSpec(16, 200, (1.0, 2.0), (0.5, 1.5), (0.0, 2e3))
        inst = generate_instance(spec, 3, require_simultaneous=mode == "simultaneous")
        done = play(DynamicRun(inst, mode, seed=3, max_steps=3000))
        assert done.converged_at is not None and done.converged_at > 100
        self.assert_agrees(done)


@st.composite
def drain_steps(draw):
    """One drain step's ``(length, rates, loads)``: m from 1 to 8 or wide;
    rates and loads from small grids (tied levels, exact and negative zeros)
    or wide ranges; a job of ordinary size or far below its queues."""
    m = draw(st.integers(1, 8) | st.sampled_from([25, 64, 200, 500]))
    rates = st.sampled_from([0.25, 0.5, 1.0, 3.0]) | st.floats(1e-3, 1e3)
    loads = st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 1e6)
    length = draw(st.sampled_from([1.0, 2.0**-40]) | st.floats(1e-9, 1e3))
    vector = lambda values: np.array(draw(st.lists(values, min_size=m, max_size=m)))
    return length, vector(rates), vector(loads)


@settings(deadline=None)
@given(drain_steps())
def test_float_step_is_the_array_step(step):
    length, rates, loads = step
    got = np.array(dynamic._float_step(length, rates.tolist(), loads.tolist()))
    assert got.tobytes() == oracle_step(length, rates, loads).tobytes()


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

    def test_underflowing_decrease_is_refused(self):
        # At 1e-170, slowest * min_job_length rounds to 0.
        tiny = Instance([1e-170, 0.5e-170], [1e-170, 2e-170], [0.0, 1e-170])
        with pytest.raises(ValueError, match="^the alternative bound's smallest decrease is 0"):
            zero_load_time_alt(tiny)

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
        after = slice(done.converged_at + 1, None)
        costs, arrivals = done.trace.costs[after, 0], done.trace.arrivals[after, 0]
        assert len(costs)
        assert costs == pytest.approx(steady[arrivals], abs=1e-9)

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
        trace = done.trace
        work = inst.job_lengths[trace.arrivals][..., None] * trace.fractions
        expected = np.maximum(trace.loads[:-1] + work.sum(axis=1) - inst.service_rates, 0.0)
        assert np.allclose(trace.loads[1:], expected, atol=1e-12)

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

    def test_negative_numpy_index_is_the_last_step(self):
        trace = run_simultaneous(DynamicRun(builtin_setting(7).instance, "simultaneous")).trace
        assert trace[np.int64(-1)] == trace[-1]
        assert trace[np.int64(-1)].t == len(trace) - 1

    def test_views_match_the_columns(self):
        inst = builtin_setting(7).instance
        trace = run_simultaneous(DynamicRun(inst, "simultaneous")).trace
        records = list(trace)
        assert len(records) == len(trace) == trace.costs.shape[0]
        assert trace[-1] == records[-1]
        assert trace[-1].t == len(trace) - 1
        with pytest.raises(IndexError):
            trace[len(trace)]
        with pytest.raises(TypeError):
            trace[2:5]
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

    @pytest.mark.parametrize("output", ["trace", "converged_at"])
    def test_outputs_are_set_only_by_running(self, output):
        # A run's trace and converged_at come from playing it, never from
        # its caller; un-run, it holds the start state and no drain step.
        inst = builtin_setting(5).instance
        unrun = DynamicRun(inst, "sequential")
        with pytest.raises(TypeError, match=output):
            DynamicRun(inst, "sequential", **{output: getattr(unrun, output)})
        assert unrun.converged_at is None
        for mode, play in (("sequential", run_sequential), ("simultaneous", run_simultaneous)):
            done = play(DynamicRun(inst, mode, order="round-robin"))
            assert len(done.trace) == done.converged_at + 2
            assert np.array_equal(done.trace.loads[0], inst.initial_loads)

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
