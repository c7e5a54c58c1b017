from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lbgame import (
    Action,
    ActionProfile,
    Instance,
    ServerLoads,
    best_response,
    builtin_setting,
    empirical_poa,
    instantaneous_cost,
    is_nash,
    normalized_loads,
    opt_lower_bound,
    player_cost,
    player_costs,
    poa_upper_bound,
    potential,
    run_sequential_pass,
    setting_instance,
    social_cost,
    water_fill,
)
from lbgame.model import _potential_matrix
from lbgame.static import _pass, _water_fill, _water_fill_rows

import exact as ex
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


class TestExactOracle:
    """The closed form against the exact water-fill of ``exact.py``, within
    the derived bounds ``exact.SPLIT`` and ``exact.COST``."""

    @staticmethod
    def assert_matches_exact(inst, i, loads):
        fractions = best_response(inst, i, loads).action.fractions
        split, cost = ex.response_errors(
            inst.job_lengths[i], inst.service_rates, loads, fractions
        )
        assert split <= ex.SPLIT, float(split)
        assert cost <= ex.COST, float(cost)

    def test_agrees_with_closed_form_on_worked_examples(self):
        cases = [
            (Instance([1.7], [2.0, 1.5, 1.0]), np.zeros(3)),
            (Instance([1.0], [1.5, 2.5]), np.array([1.5, 2.5])),
            (Instance([1.0], [1.0, 1.0]), np.array([0.0, 10.0])),
        ]
        for inst, loads in cases:
            self.assert_matches_exact(inst, 0, loads)

    def test_single_server_returns_everything(self):
        inst = Instance([2.0], [1.0], [5.0])
        assert ex.respond(Fraction(2), [Fraction(1)], [Fraction(5)]) == [1]
        assert np.array_equal(best_response(inst, 0, [5.0]).action.fractions, [1.0])

    def test_randomized_sweep_cost_gap(self):
        # Jobs of 1e-8..1e2 against up to 12 servers holding up to 1e3 steps
        # of work each, a fifth of them empty: kappa reaches 1e12.
        rng = np.random.default_rng(41)
        for _ in range(300):
            m = int(rng.integers(1, 13))
            rates = rng.uniform(0.1, 10.0, m)
            loads = rng.uniform(0.0, 1e3, m) * rates * (rng.random(m) < 0.8)
            self.assert_matches_exact(Instance([10 ** rng.uniform(-8, 2)], rates), 0, loads)


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


# Row weights that put 5.9 eps of rounding on a potential through the
# running totals, over the 4 eps that the evaluation and rows take.
_TOTALS_WEIGHTS = np.array([[1, 0.4], [0.4, 1], [1, 1], [1, 1], [1, 0.4], [1, 1]])


@settings(max_examples=150, deadline=None)
@given(pass_case())
@example(
    (
        Instance([1, 32, 1, 22, 1, 65], [3.5, 0.109375], [0, 0]),
        ActionProfile(_TOTALS_WEIGHTS / _TOTALS_WEIGHTS.sum(axis=1, keepdims=True)),
        (0, 1, 3, 2, 4, 5),
    )
)
def test_pass_matches_exact_pass(case):
    inst, start, order = case
    profile, potentials = run_sequential_pass(inst, initial=start, order=order)
    lengths, rates, loads = ex.of(inst)
    matrix, queues = ex.run_pass(lengths, rates, loads, start.matrix, order)
    largest_queue = max(loads) + sum(lengths)
    n = inst.num_players
    for row, exact_row, length in zip(profile.matrix, matrix, lengths):
        bound = ex.ROW * n * ex.kappa(largest_queue, length) * ex.EPS
        assert ex.gap(row, exact_row) <= bound
    for value, queue in zip(potentials, queues):
        exact_value = ex.potential(queue, rates)
        slope = sum(q / r for q, r in zip(queue, rates))
        bound = ex.POTENTIAL * exact_value + ex.TOTALS * n * sum(lengths) * slope
        assert abs(Fraction(value) - exact_value) <= bound * ex.EPS


@settings(max_examples=100, deadline=None)
@given(pass_case())
def test_exact_pass_lands_on_the_water_fill(case):
    # Exact facts, no tolerance: the pass's aggregate is the combined job
    # water-filled over the backlogs, every server a player uses sits at the
    # lowest normalized queue, and the last potential is the least one.
    inst, start, order = case
    lengths, rates, loads = ex.of(inst)
    matrix, queues = ex.run_pass(lengths, rates, loads, start.matrix, order)
    filled = ex.combined_fill(lengths, rates, loads)
    queued = ex.queued(lengths, loads, matrix)
    assert queued == filled
    normalized = [q / r for q, r in zip(queued, rates)]
    lowest = min(normalized)
    for row in matrix:
        assert all(level == lowest for x, level in zip(row, normalized) if x > 0)
    assert ex.potential(queues[-1], rates) == ex.potential(filled, rates)


@settings(max_examples=100, deadline=None)
@given(pass_case())
def test_opt_lower_bound_is_the_least_potential_less_a_constant(case):
    inst = case[0]
    lengths, rates, loads = ex.of(inst)
    least = ex.potential(ex.combined_fill(lengths, rates, loads), rates)
    expected = ex.opt_lower_bound(lengths, rates, loads)
    assert expected == least - sum(q * q / (2 * r) for q, r in zip(loads, rates))
    kappa = ex.kappa(max(loads) + sum(lengths), sum(lengths))
    assert abs(Fraction(opt_lower_bound(inst)) - expected) <= ex.OPT * kappa * ex.EPS * expected


@st.composite
def fill_rows(draw):
    """A batch of up to 6 rows of levels over up to 8 channels, one total
    per row from 2^-30 to 2^30. Levels are either drawn freely or whole
    multiples of one step, so rows hold ties; a small step under a large
    total gives every channel work. Power-of-two rates and totals let a
    fill end exactly on the next channel's level."""
    m = draw(st.integers(1, 8))
    b = draw(st.integers(1, 6))
    rate = st.one_of(st.floats(0.1, 10.0), st.sampled_from([0.5, 1.0, 2.0]))
    rates = np.array(draw(st.lists(rate, min_size=m, max_size=m)))
    row = st.lists(
        st.one_of(st.floats(0.0, 10.0), st.integers(0, 3).map(float)), min_size=m, max_size=m
    )
    step = draw(st.sampled_from([1.0, 2.0**-20, 0.1]))
    levels = np.array(draw(st.lists(row, min_size=b, max_size=b))) * step
    exponent = st.one_of(st.floats(-30, 30), st.integers(-30, 30).map(float))
    totals = 2.0 ** np.array(draw(st.lists(exponent, min_size=b, max_size=b)))
    return totals, rates, levels


@settings(deadline=None)
@given(fill_rows())
# Row 0's fill ends exactly on the second level: the fill stops there.
@example((np.array([2.0, 2.0]), np.ones(3), np.array([[0.0, 2.0, 5.0], [0.0, 0.0, 1.0]])))
def test_row_wise_water_fill_is_the_water_fill_on_every_row(case):
    totals, rates, levels = case
    amounts, level, support, order = _water_fill_rows(totals, rates, levels)
    for b, total in enumerate(totals):
        want_amounts, want_level, want_support, want_order = _water_fill(total, rates, levels[b])
        assert amounts[b].tobytes() == want_amounts.tobytes()
        assert level[b].tobytes() == np.float64(want_level).tobytes()
        assert support[b] == want_support
        assert np.array_equal(order[b], want_order)


@st.composite
def batched_games(draw):
    """Up to 5 one-shot games that share up to 8 players and 8 servers but
    not their queues (some empty) or their start profiles."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    b = draw(st.integers(1, 5))
    rates = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)))
    lengths = draw(st.lists(st.floats(1e-8, 1e2), min_size=n, max_size=n))
    backlog = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
    steps = np.array(draw(st.lists(st.lists(backlog, min_size=m, max_size=m), min_size=b, max_size=b)))
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=b * n * m, max_size=b * n * m)))
    weights = weights.reshape(b, n, m)
    start = weights / weights.sum(axis=-1, keepdims=True)
    return Instance(lengths, rates), steps * rates, start, draw(st.permutations(range(n)))


@settings(deadline=None)
@given(batched_games())
def test_batched_pass_is_each_game_passed_alone(case):
    inst, loads, start, order = case
    matrix = start.copy()
    totals = [t.copy() for t in _pass(inst, loads, matrix, order)]
    for b in range(len(loads)):
        alone = start[b].copy()
        alone_totals = [t.copy() for t in _pass(inst, loads[b], alone, order)]
        assert matrix[b].tobytes() == alone.tobytes()
        for batch_step, alone_step in zip(totals, alone_totals):
            assert batch_step[b].tobytes() == alone_step.tobytes()


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

    def test_drift_guard_checks_every_game_of_a_batch(self):
        inst = Instance([1.0, 2.0], [1.5, 2.5])
        loads = np.array([[2.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
        matrix = np.full((3, 2, 2), 0.5)
        with pytest.raises(RuntimeError, match="drifted"):
            for totals in _pass(inst, loads, matrix, [0, 1]):
                totals[2, 0] += 1e-3


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

    def test_nash_check_refuses_overflowing_gap(self):
        # A gap can reach twice its player's cost: here the cost w**2/2 is
        # 9.8e307, but the gap w**2 overflows.
        inst = Instance([1.4e154], [1.0, 1.0])
        profile = ActionProfile([[0.0, 1.0]])
        assert np.isfinite(player_costs(inst, profile)).all()
        with pytest.raises(ValueError, match="equilibrium gap is not finite"):
            is_nash(inst, profile)

    def test_empirical_poa_refuses_overflowing_optimum(self):
        # The equilibrium is scale-free: the base instance's profile is one
        # for the scaled instance, and the check itself stays finite there.
        profile, _ = run_sequential_pass(self.base)
        assert is_nash(self.scaled, profile).is_equilibrium
        with pytest.raises(ValueError, match="not finite"):
            empirical_poa(self.scaled, profile)

    @pytest.mark.parametrize(
        "measure, inst, match",
        [
            (potential, scaled, "potential is not finite"),
            (lambda inst, _: opt_lower_bound(inst), scaled, "bound is not finite"),
            (player_costs, heavy, "cost is not finite"),
            (lambda inst, profile: player_cost(inst, profile, 0), heavy, "cost is not finite"),
            (social_cost, heavy, "cost is not finite"),
        ],
        ids=["potential", "opt_lower_bound", "player_costs", "player_cost", "social_cost"],
    )
    def test_measures_refuse_overflow(self, measure, inst, match):
        profile, _ = run_sequential_pass(self.base)
        with pytest.raises(ValueError, match=match):
            measure(inst, profile)


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

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), 0.0, -1e-8])
    def test_refuses_an_epsilon_that_is_not_finite_and_positive(self, epsilon):
        inst = Instance([1.0, 2.0], [1.5, 2.5])
        profile = ActionProfile.uniform(2, 2)
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            is_nash(inst, profile, epsilon)

    @pytest.mark.parametrize("sid", [2, 3, 4])
    @pytest.mark.parametrize("k", [30, 60])
    def test_pass_equilibria_hold_at_large_scales(self, sid, k):
        # An absolute epsilon judged these non-equilibria: at 2**30 their
        # float gains already exceed 1e-8, while relative to each player's
        # cost they stay at rounding level.
        inst = setting_instance(builtin_setting(sid), 0)
        scale = 2.0**k
        big = Instance(
            inst.job_lengths * scale, inst.service_rates * scale, inst.initial_loads * scale
        )
        profile, _ = run_sequential_pass(big)
        check = is_nash(big, profile)
        assert check.is_equilibrium
        assert check.max_improvement <= 1e-12 * player_costs(big, profile).min()
        # Every cost scales by exactly 2**k, so the ratio is the unscaled one.
        base, _ = run_sequential_pass(inst)
        assert empirical_poa(big, profile) == empirical_poa(inst, base)

    def test_tiny_scale_does_not_hide_an_improvement(self):
        # Scaled by 1e-9, player 0's gain of 2.59e-9 fell below an absolute
        # epsilon. Its gap is 0.56 of its cost: server 0 sits at 10.5 and
        # server 1 at 3.3/0.7.
        scale = 1e-9
        inst = Instance(
            np.array([0.5, 0.3]) * scale,
            np.array([1.0, 0.7]) * scale,
            np.array([10.0, 3.0]) * scale,
        )
        profile = ActionProfile(np.eye(2))
        check = is_nash(inst, profile)
        assert not check.is_equilibrium
        ratio = check.max_improvement / player_costs(inst, profile)[0]
        assert ratio == pytest.approx(0.5 * (10.5 - 3.3 / 0.7) / 5.125, rel=1e-12)


@st.composite
def random_profiles(draw, max_servers=6):
    """n, m <= 6, jobs of 1e-8..1e2 over servers holding up to 1e3 steps of
    work each, and a random profile with zero entries."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, max_servers))
    rates = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m)))
    backlog = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    steps = np.array(draw(st.lists(backlog, min_size=m, max_size=m)))
    lengths = draw(st.lists(st.floats(1e-8, 1e2), min_size=n, max_size=n))
    weight = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    rows = draw(st.lists(st.lists(weight, min_size=m, max_size=m), min_size=n, max_size=n))
    weights = np.array(rows) + (np.sum(rows, axis=1, keepdims=True) == 0) * np.eye(1, m)
    profile = ActionProfile(weights / weights.sum(axis=1, keepdims=True))
    return Instance(lengths, rates, steps * rates), profile


@settings(max_examples=150, deadline=None)
@given(random_profiles())
def test_gap_bounds_every_unilateral_improvement(case):
    # Against the exact queues the others leave, each player's exact best
    # improvement stays below the float max_improvement, up to the derived
    # rounding term exact.GAP.
    inst, profile = case
    check = is_nash(inst, profile)
    lengths, rates, loads = ex.of(inst)
    matrix = [ex.exact(row) for row in profile.matrix]
    queued = ex.queued(lengths, loads, matrix)
    top = max(q / r for q, r in zip(queued, rates))
    n, m = inst.num_players, inst.num_servers
    for length, row in zip(lengths, matrix):
        own = [length * x for x in row]
        ahead = [q - w for q, w in zip(queued, own)]
        best = [length * x for x in ex.respond(length, rates, ahead)]
        improvement = ex.wait(own, ahead, rates) - ex.wait(best, ahead, rates)
        rounding = ex.GAP * (n + m + 3) * ex.EPS * length * top
        assert improvement <= Fraction(check.max_improvement) + rounding


@settings(max_examples=100, deadline=None)
@given(random_profiles(max_servers=1))
def test_one_server_has_no_gap(case):
    inst, profile = case
    check = is_nash(inst, profile)
    assert check == (True, 0.0)


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

    @pytest.mark.parametrize(
        "total, rates, levels, match",
        [
            (float("nan"), [1.0, 2.0], [0.0, 1.0], "total work"),
            (float("inf"), [1.0, 2.0], [0.0, 1.0], "total work"),
            (0.0, [1.0, 2.0], [0.0, 1.0], "total work"),
            (1.0, [], [], "at least one channel"),
            (1.0, [1.0, 2.0], [0.0, float("nan")], "levels finite"),
            (1.0, [1.0, 2.0], [0.0, float("inf")], "levels finite"),
            (1.0, [1.0, -2.0], [0.0, 1.0], "rates must be finite and positive"),
            (1.0, [1.0, 0.0], [0.0, 1.0], "rates must be finite and positive"),
            (1.0, [1.0, float("inf")], [0.0, 1.0], "rates must be finite and positive"),
            (1.0, [1.0, 2.0], [0.0], "1 levels for 2 channels"),
        ],
        ids=["nan-total", "inf-total", "zero-total", "no-channel", "nan-level",
             "inf-level", "negative-rate", "zero-rate", "inf-rate", "short-levels"],
    )
    def test_water_fill_refuses_bad_input(self, total, rates, levels, match):
        with pytest.raises(ValueError, match=match):
            water_fill(total, rates, levels)

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


@st.composite
def adversarial_games(draw):
    """n, m <= 5 at the corners of the PoA bounds: one server, a near-stalled
    server (mu = 1e-2), tiny jobs (1e-8..1e-6), backlogs up to 1e3 steps,
    and lambda, mu and s0 scaled by 2**k, k in [-60, 60]."""
    n = draw(st.integers(1, 5))
    m = draw(st.one_of(st.just(1), st.integers(2, 5)))
    rates = np.array(draw(st.lists(st.floats(0.2, 3.0), min_size=m, max_size=m)))
    if draw(st.booleans()):
        rates[draw(st.integers(0, m - 1))] = 1e-2
    job = st.floats(1e-8, 1e-6) if draw(st.booleans()) else st.floats(0.1, 2.0)
    lengths = np.array(draw(st.lists(job, min_size=n, max_size=n)))
    backlog = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    steps = np.array(draw(st.lists(backlog, min_size=m, max_size=m)))
    scale = 2.0 ** draw(st.integers(-60, 60))
    return Instance(lengths * scale, rates * scale, steps * rates * scale)


@settings(max_examples=150, deadline=None)
@given(adversarial_games())
def test_poa_lies_between_one_and_the_upper_bound(inst):
    # Exactly, a profile's social cost is never below the relaxed optimum
    # for the work it places. A float row sums to 1 only within a few eps,
    # so that work can fall short of the total job: one job of 1 split 1/3,
    # 2/3 over rates (1, 2) places 1 - 2**-54 of it. In floats the ratio may
    # dip further by the rounding of both sides: exact.SOCIAL for the social
    # cost, exact.OPT*kappa for the optimum and one division.
    profile, _ = run_sequential_pass(inst)
    lengths, rates, loads = ex.of(inst)
    matrix = [ex.exact(row) for row in profile.matrix]
    placed = [length * sum(row) for length, row in zip(lengths, matrix)]
    least = ex.opt_lower_bound(placed, rates, loads)
    assert ex.social_cost(lengths, rates, loads, matrix) >= least
    n, m = inst.num_players, inst.num_servers
    kappa = ex.kappa(max(loads) + sum(lengths), sum(lengths))
    slack = (ex.SOCIAL * (n + m + 4) + ex.OPT * kappa + 1) * ex.EPS
    floor = least / ex.opt_lower_bound(lengths, rates, loads)
    ratio = empirical_poa(inst, profile)
    assert Fraction(ratio) >= floor * (1 - slack)
    assert ratio <= poa_upper_bound(inst)
