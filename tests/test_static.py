from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbgame import (
    Action,
    ActionProfile,
    Instance,
    ServerLoads,
    best_response,
    best_response_oracle,
    builtin_setting,
    empirical_poa,
    instantaneous_cost,
    is_nash,
    normalized_loads,
    opt_lower_bound,
    poa_upper_bound,
    potential,
    project_to_simplex,
    run_sequential_pass,
    setting_instance,
    social_cost,
    water_fill,
)
from lbgame.model import _potential_matrix
from lbgame.static import _pass

from conftest import random_instance, random_profile


def response_cost(inst, i, effective_loads, action):
    return instantaneous_cost(inst, action, ServerLoads(effective_loads), i)


class TestBestResponse:
    def test_zero_loads_split_proportional_to_rates(self):
        inst = Instance([1.7], [2.0, 1.5, 1.0])
        result = best_response(inst, 0, np.zeros(3))
        assert np.allclose(result.action.fractions, [2 / 4.5, 1.5 / 4.5, 1 / 4.5])
        assert result.support_size == 3

    def test_two_servers_interior_fill(self):
        inst = Instance([1.0], [1.5, 2.5])
        result = best_response(inst, 0, [1.5, 2.5])
        assert result.water_level == pytest.approx(1.25, abs=1e-12)
        assert np.allclose(result.action.fractions, [0.375, 0.625])
        assert result.support_size == 2

    def test_heavily_loaded_server_excluded(self):
        inst = Instance([1.0], [1.0, 1.0])
        result = best_response(inst, 0, [0.0, 10.0])
        assert np.array_equal(result.action.fractions, [1.0, 0.0])
        assert result.support_size == 1
        assert result.water_level == pytest.approx(1.0, abs=1e-12)

    def test_grid_search_confirms_interior_fill(self):
        # brute-force sweep over the first fraction at resolution 1e-3,
        # refined locally, for the two-server fill above
        inst = Instance([1.0], [1.5, 2.5])
        loads = np.array([1.5, 2.5])

        def cost_of(first):
            from lbgame import Action

            return response_cost(inst, 0, loads, Action([first, 1.0 - first]))

        coarse = np.linspace(0.0, 1.0, 1001)
        best_coarse = coarse[np.argmin([cost_of(a) for a in coarse])]
        fine = np.linspace(max(0, best_coarse - 1e-3), min(1, best_coarse + 1e-3), 2001)
        best_fine = fine[np.argmin([cost_of(a) for a in fine])]
        assert best_fine == pytest.approx(0.375, abs=1e-5)

    def test_water_level_equalization_within_support(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            inst = random_instance(rng)
            i = int(rng.integers(inst.num_players))
            effective = rng.uniform(0, 5, inst.num_servers)
            result = best_response(inst, i, effective)
            fractions = result.action.fractions
            levels = effective / inst.service_rates
            filled = (
                inst.job_lengths[i] * fractions / inst.service_rates + levels
            )
            on = fractions > 0
            assert np.count_nonzero(on) == result.support_size
            assert np.all(np.abs(filled[on] - result.water_level) <= 1e-9)
            assert np.all(levels[~on] >= result.water_level - 1e-9)
            assert abs(fractions.sum() - 1.0) <= 1e-9

    def test_index_out_of_range(self):
        inst = Instance([1.0], [1.0])
        with pytest.raises(IndexError):
            best_response(inst, 1, [0.0])

    def test_rejects_negative_effective_loads(self):
        inst = Instance([1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            best_response(inst, 0, [-0.1, 0.0])

    def test_tie_break_is_by_server_index(self):
        inst = Instance([1.0], [1.0, 1.0, 1.0])
        result = best_response(inst, 0, [2.0, 2.0, 2.0])
        assert list(result.server_order) == [0, 1, 2]

    def test_exact_boundary_tie_allocates_continuously(self):
        # the second server's level exactly equals the would-be common
        # level, so it is cut from the support; had it been included its
        # share would have been zero anyway, and the action is identical
        inst = Instance([1.0], [1.0, 1.0])
        result = best_response(inst, 0, [0.0, 1.0])
        assert result.support_size == 1
        assert result.water_level == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(result.action.fractions, [1.0, 0.0])


@st.composite
def job_against_backlog(draw):
    """One job of length 1e-8..1e2 against up to 50 servers holding up to
    1e3 steps of work each, so the job can be many orders of magnitude
    below the queues' normalized levels."""
    m = draw(st.integers(1, 50))
    rates = draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m))
    steps = draw(st.lists(st.floats(0.0, 1e3), min_size=m, max_size=m))
    length = draw(st.floats(1e-8, 1e2))
    return Instance([length], rates), np.array(steps) * np.array(rates)


@settings(max_examples=300, deadline=None)
@given(job_against_backlog())
def test_best_response_stays_on_simplex(case):
    inst, loads = case
    fractions = best_response(inst, 0, loads).action.fractions
    assert np.all(fractions >= 0.0)
    assert abs(fractions.sum() - 1.0) <= 1e-12


class TestSimplexProjection:
    def test_already_on_simplex(self):
        x = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_to_simplex(x), x)

    def test_projects_off_simplex_points(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            v = rng.normal(0, 2, int(rng.integers(1, 7)))
            p = project_to_simplex(v)
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            # projection is the closest simplex point: check against a few
            # random simplex points
            for _ in range(10):
                q = rng.dirichlet(np.ones(v.size))
                assert np.sum((p - v) ** 2) <= np.sum((q - v) ** 2) + 1e-12


class TestBestResponseOracle:
    def test_agrees_with_closed_form_on_worked_examples(self):
        cases = [
            (Instance([1.7], [2.0, 1.5, 1.0]), np.zeros(3)),
            (Instance([1.0], [1.5, 2.5]), np.array([1.5, 2.5])),
            (Instance([1.0], [1.0, 1.0]), np.array([0.0, 10.0])),
        ]
        for inst, loads in cases:
            closed = best_response(inst, 0, loads)
            numeric = best_response_oracle(inst, 0, loads)
            gap = response_cost(inst, 0, loads, numeric) - response_cost(
                inst, 0, loads, closed.action
            )
            assert abs(gap) <= 1e-6

    def test_single_server_returns_everything(self):
        inst = Instance([2.0], [1.0], [5.0])
        numeric = best_response_oracle(inst, 0, [5.0])
        assert np.array_equal(numeric.fractions, [1.0])

    def test_randomized_sweep_cost_gap(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            inst = random_instance(rng, max_servers=6)
            i = int(rng.integers(inst.num_players))
            loads = rng.uniform(0, 5, inst.num_servers)
            closed = best_response(inst, i, loads).action
            numeric = best_response_oracle(inst, i, loads)
            assert response_cost(inst, i, loads, closed) <= response_cost(
                inst, i, loads, numeric
            ) + 1e-6


class TestSequentialPass:
    def test_setting_one_reaches_equilibrium_in_one_pass(self):
        inst = builtin_setting(1).instance
        profile, potentials = run_sequential_pass(inst)
        assert len(potentials) == 8
        check = is_nash(inst, profile, epsilon=1e-8)
        assert check.is_equilibrium

    def test_single_player(self):
        inst = Instance([1.0], [1.0, 2.0], [3.0, 0.5])
        profile, potentials = run_sequential_pass(inst)
        assert len(potentials) == 1
        assert is_nash(inst, profile).is_equilibrium

    def test_random_orders_all_reach_equilibrium(self):
        rng = np.random.default_rng(43)
        inst = Instance(rng.uniform(0.3, 1.5, 4), rng.uniform(0.4, 2, 3), rng.uniform(0.1, 3, 3))
        for _ in range(5):
            order = rng.permutation(4)
            profile, _ = run_sequential_pass(inst, order=order)
            assert is_nash(inst, profile, epsilon=1e-8).is_equilibrium

    def test_any_strictly_positive_start_converges_in_one_pass(self):
        # the one-pass guarantee needs every starting entry to be nonzero,
        # not specifically the uniform profile
        rng = np.random.default_rng(97)
        for _ in range(20):
            inst = random_instance(rng)
            start = random_profile(rng, inst)
            assert np.all(start.matrix > 0)
            profile, _ = run_sequential_pass(
                inst, initial=start, order=rng.permutation(inst.num_players)
            )
            assert is_nash(inst, profile, epsilon=1e-8).is_equilibrium

    def test_potential_never_increases(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            inst = random_instance(rng)
            start = random_profile(rng, inst)
            profile, potentials = run_sequential_pass(inst, initial=start)
            series = [potential(inst, start)] + list(potentials)
            for a, b in zip(series, series[1:]):
                assert b <= a + 1e-9 * max(1.0, abs(a))

    def test_rejects_bad_order(self):
        inst = Instance([1.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            run_sequential_pass(inst, order=[0, 0])


def reference_pass(inst, initial, order):
    """The from-scratch pass: rebuilds every other player's work before each
    update and sums the potential afresh after it, O(n²·m) in all. The
    oracle for the incremental pass."""
    matrix = initial.matrix.copy()
    lengths, loads = inst.job_lengths, inst.initial_loads
    potentials = []
    for i in order:
        work = lengths[:, None] * matrix
        work[i] = 0.0
        matrix[i] = best_response(inst, i, loads + work.sum(axis=0)).action.fractions
        potentials.append(_potential_matrix(inst, matrix))
    return matrix, potentials


@st.composite
def pass_case(draw):
    """Up to 12 players with jobs of 1e-8..1e2 over up to 12 servers holding
    up to 1e3 steps of work each, a strictly positive start and a random
    order."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 12))
    rates = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)))
    steps = np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=m, max_size=m)))
    lengths = draw(st.lists(st.floats(1e-8, 1e2), min_size=n, max_size=n))
    weights = np.array(
        draw(
            st.lists(
                st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    )
    start = ActionProfile(weights / weights.sum(axis=1, keepdims=True))
    return Instance(lengths, rates, steps * rates), start, draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None)
@given(pass_case())
def test_incremental_pass_matches_reference(case):
    # A job's split moves by (rounding in the queues it sees) / (its length):
    # a 2e-3 job next to a 6.0 one over a backlog of 10 already differs by
    # 1.2e-12 between two summation orders of the same sums. So the 1e-12
    # bound is on fractions for jobs at least as large as the largest
    # queue, and on work relative to that queue otherwise.
    inst, start, order = case
    profile, potentials = run_sequential_pass(inst, initial=start, order=order)
    matrix, expected = reference_pass(inst, start, order)
    largest_queue = inst.initial_loads.max() + inst.total_job_length
    tolerance = 1e-12 * np.maximum(1.0, largest_queue / inst.job_lengths)
    assert np.all(np.abs(profile.matrix - matrix) <= tolerance[:, None])
    assert np.allclose(potentials, expected, rtol=1e-12, atol=0.0)


class TestRawKernels:
    """The pass and the Nash check run on raw arrays: no per-player value
    objects, and running server totals that match a fresh sum."""

    def test_pass_and_nash_check_build_no_per_player_objects(self, monkeypatch):
        inst = setting_instance(builtin_setting(2), 0)
        assert (inst.num_players, inst.num_servers) == (500, 200)
        built = Counter()
        for cls in (Action, ServerLoads, Instance):
            def counting(self, _original=cls.__post_init__, _name=cls.__name__):
                built[_name] += 1
                _original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        profile, _ = run_sequential_pass(inst)
        assert is_nash(inst, profile).is_equilibrium
        for name in ("Action", "ServerLoads", "Instance"):
            assert built[name] <= 2, (name, built[name])

    def test_running_totals_do_not_drift(self):
        inst = setting_instance(builtin_setting(2), 0)
        matrix = ActionProfile.uniform(inst.num_players, inst.num_servers).matrix.copy()
        for totals in _pass(inst, inst.initial_loads, matrix, range(inst.num_players)):
            pass
        fresh = inst.job_lengths @ matrix
        assert np.max(np.abs(totals - fresh)) <= 1e-12 * fresh.max()

    def test_drift_guard_raises(self):
        inst = Instance([1.0, 2.0], [1.5, 2.5], [2.0, 4.0])
        matrix = ActionProfile.uniform(2, 2).matrix.copy()
        with pytest.raises(RuntimeError, match="drifted"):
            for totals in _pass(inst, inst.initial_loads, matrix, [0, 1]):
                totals[0] += 1e-3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteFailsLoudly:
    """Scaled by 1e160, the 2x2 instance's potential and optimum overflow
    float64; with work scaled but rates not, so do the players' costs. Each
    must raise, not turn into an equilibrium verdict or a ratio of 0."""

    base = Instance([0.5, 0.3], [1.0, 0.7], [10.0, 3.0])
    scaled = Instance([0.5e160, 0.3e160], [1e160, 0.7e160], [10e160, 3e160])
    heavy = Instance([0.5e160, 0.3e160], [1.0, 0.7], [10e160, 3e160])

    @pytest.mark.parametrize("inst", [scaled, heavy], ids=["scaled", "heavy"])
    def test_pass_refuses_overflowing_potential(self, inst):
        with pytest.raises(ValueError, match="potential is not finite"):
            run_sequential_pass(inst)

    def test_nash_check_refuses_overflowing_cost(self):
        profile, _ = run_sequential_pass(self.base)
        with pytest.raises(ValueError, match="cost is not finite"):
            is_nash(self.heavy, profile)

    def test_empirical_poa_refuses_overflowing_optimum(self):
        # The equilibrium is scale-free: the base instance's profile is one
        # for the scaled instance, and the check itself stays finite there.
        profile, _ = run_sequential_pass(self.base)
        assert is_nash(self.scaled, profile).is_equilibrium
        with pytest.raises(ValueError, match="not finite"):
            empirical_poa(self.scaled, profile)


class TestIsNash:
    def test_proportional_profile_on_empty_servers(self):
        inst = Instance([1.0, 2.0], [1.5, 2.5])
        share = inst.service_rates / inst.total_service_rate
        profile = ActionProfile(np.tile(share, (2, 1)))
        check = is_nash(inst, profile)
        assert check.is_equilibrium
        assert check.max_improvement <= 1e-10

    def test_concentrated_row_is_not_equilibrium(self):
        inst = Instance([1.0, 2.0], [1.5, 2.5])
        share = inst.service_rates / inst.total_service_rate
        profile = ActionProfile(np.vstack([[1.0, 0.0], share]))
        check = is_nash(inst, profile)
        assert not check.is_equilibrium
        assert check.max_improvement > 1e-3

    def test_no_players_vacuously_true(self):
        inst = Instance([], [1.0, 1.0])
        check = is_nash(inst, ActionProfile(np.zeros((0, 2))))
        assert check.is_equilibrium
        assert check.max_improvement == 0.0

    def test_equal_normalized_loads_on_support_at_equilibrium(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            inst = random_instance(rng)
            profile, _ = run_sequential_pass(inst)
            assert is_nash(inst, profile).is_equilibrium
            levels = normalized_loads(inst, profile)
            support = np.any(profile.matrix > 0, axis=0)
            expected = (
                inst.initial_loads[support].sum() + inst.total_job_length
            ) / inst.service_rates[support].sum()
            assert np.all(np.abs(levels[support] - expected) <= 1e-7)
            assert np.all(levels[~support] >= expected - 1e-7)


class TestPoaBounds:
    def test_zero_loads_capped_at_three(self):
        inst = Instance([1.0, 2.0], [1.5, 2.5])
        assert poa_upper_bound(inst) == 3.0

    def test_nonzero_loads_formula(self):
        inst = Instance([2.0], [1.0, 1.0], [1.0, 1.0])
        # 1 + 2 * (1 + 2/1) * (2/2) = 7
        assert poa_upper_bound(inst) == pytest.approx(7.0, abs=1e-12)

    def test_bound_at_least_one(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            assert poa_upper_bound(random_instance(rng)) >= 1.0

    def test_needs_players(self):
        with pytest.raises(ValueError):
            poa_upper_bound(Instance([], [1.0]))


class TestOptLowerBound:
    def test_zero_loads_closed_form(self):
        inst = Instance([1.5, 1.5, 1.5], [1.5, 1.5, 1.5])
        # total job mass 4.5 over total rate 4.5
        assert opt_lower_bound(inst) == pytest.approx(4.5**2 / (2 * 4.5), rel=1e-12)
        assert opt_lower_bound(inst) == pytest.approx(2.25, rel=1e-12)

    def test_single_server(self):
        inst = Instance([1.0, 2.0], [1.5], [4.0])
        total = 3.0
        assert opt_lower_bound(inst) == pytest.approx(
            total**2 / (2 * 1.5) + 4.0 * total / 1.5, rel=1e-12
        )

    def test_matches_grid_search(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            m = int(rng.integers(2, 4))
            inst = Instance(
                rng.uniform(0.3, 1.5, int(rng.integers(1, 4))),
                rng.uniform(0.4, 2.0, m),
                rng.uniform(0.0, 3.0, m),
            )
            total = inst.total_job_length

            def relaxed_cost(amounts):
                return np.sum(
                    (np.asarray(amounts) ** 2 / 2 + inst.initial_loads * np.asarray(amounts))
                    / inst.service_rates
                )

            ticks = np.linspace(0.0, total, 1001)
            if m == 2:
                values = [relaxed_cost([x, total - x]) for x in ticks]
                grid_best = min(values)
            else:
                x1, x2 = np.meshgrid(ticks, ticks, indexing="ij")
                x3 = total - x1 - x2
                ok = x3 >= 0
                values = (
                    (x1**2 / 2 + inst.initial_loads[0] * x1) / inst.service_rates[0]
                    + (x2**2 / 2 + inst.initial_loads[1] * x2) / inst.service_rates[1]
                    + (x3**2 / 2 + inst.initial_loads[2] * x3) / inst.service_rates[2]
                )
                grid_best = float(np.min(values[ok]))
            assert opt_lower_bound(inst) <= grid_best + 1e-9
            assert opt_lower_bound(inst) == pytest.approx(grid_best, abs=1e-3)

    def test_water_fill_amounts_respect_budget(self):
        rng = np.random.default_rng(67)
        inst = random_instance(rng)
        amounts, level, support, order = water_fill(
            inst.total_job_length,
            inst.service_rates,
            inst.initial_loads / inst.service_rates,
        )
        assert amounts.sum() == pytest.approx(inst.total_job_length, rel=1e-9)
        assert np.all(amounts >= 0)
        assert 1 <= support <= inst.num_servers


class TestEmpiricalPoa:
    def test_zero_load_equilibrium_below_cap(self):
        inst = Instance([1.0, 2.0, 0.5], [1.5, 2.5, 1.0])
        profile, _ = run_sequential_pass(inst)
        assert empirical_poa(inst, profile) <= 3.0

    def test_single_player_single_server_is_exact(self):
        inst = Instance([2.0], [1.5], [3.0])
        profile = ActionProfile([[1.0]])
        assert empirical_poa(inst, profile) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_non_equilibrium_profile(self):
        inst = Instance([1.0, 2.0], [1.5, 2.5])
        profile = ActionProfile([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="equilibrium"):
            empirical_poa(inst, profile)

    def test_always_below_analytic_bound(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            inst = random_instance(rng)
            profile, _ = run_sequential_pass(inst)
            assert empirical_poa(inst, profile) <= poa_upper_bound(inst) + 1e-9
            assert social_cost(inst, profile) / opt_lower_bound(inst) >= 1.0 - 1e-9
