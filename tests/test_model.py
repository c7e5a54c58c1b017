from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
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
    instantaneous_cost,
    normalized_loads,
    player_costs,
    potential,
    social_cost,
    state_transition,
)
from lbgame.model import _potential_matrix, _wait

import exact as ex
from conftest import cost_by_summation, random_instance, random_profile


class TestInstance:
    def test_valid_construction_and_derived_values(self):
        inst = Instance([1.5, 0.5], [1.4, 0.1], [10, 1])
        assert inst.num_players == 2
        assert inst.num_servers == 2
        assert inst.max_job_length == 1.5
        assert inst.min_job_length == 0.5
        assert inst.min_service_rate == 0.1
        assert inst.total_service_rate == 1.5
        assert inst.total_job_length == 2.0

    def test_feasibility_flags(self):
        # one job at a time: only the largest job must fit
        inst = Instance([2.5, 3.0], [3.0, 2.0])
        DynamicRun(inst, "sequential")
        with pytest.raises(InfeasibleError, match="total arrival rate"):
            DynamicRun(inst, "simultaneous")
        DynamicRun(Instance([1.0], [2.0]), "simultaneous")
        with pytest.raises(InfeasibleError, match="largest job length"):
            DynamicRun(Instance([5.0], [2.0, 2.0]), "sequential")

    def test_default_loads_are_zero(self):
        inst = Instance([1.0], [1.0, 2.0])
        assert np.array_equal(inst.initial_loads, [0.0, 0.0])

    @pytest.mark.parametrize(
        "lengths,rates,loads",
        [
            ([0.0], [1.0], [0.0]),
            ([-1.0], [1.0], [0.0]),
            ([1.0], [0.0], [0.0]),
            ([1.0], [1.0], [-0.1]),
            ([1.0], [1.0, 1.0], [0.0]),
            ([1.0], [], [0.0]),
            ([], [1.0], [0.0]),
            ([0.5], [10**400], None),
            ([[1.0]], [1.0], None),
        ],
    )
    def test_rejects_invalid_parameters(self, lengths, rates, loads):
        with pytest.raises(ValueError):
            Instance(lengths, rates, loads)

    def test_immutability(self):
        inst = Instance([1.0], [1.0])
        with pytest.raises(ValueError):
            inst.job_lengths[0] = 2.0


class TestActionTypes:
    def test_simplex_enforced(self):
        Action([0.25, 0.75])
        with pytest.raises(ValueError):
            Action([0.6, 0.6])
        with pytest.raises(ValueError):
            Action([1.2, -0.2])

    def test_tolerance_on_sum(self):
        Action([0.5, 0.5 + 5e-10])
        with pytest.raises(ValueError):
            Action([0.5, 0.5 + 5e-9])

    def test_profile_rows_checked(self):
        ActionProfile([[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ValueError):
            ActionProfile([[0.5, 0.5], [0.9, 0.0]])
        with pytest.raises(ValueError):
            ActionProfile([[0.5, 0.5], [1.1, -0.1]])

    def test_profile_copies_the_callers_matrix(self):
        mine = np.full((2, 2), 0.5)
        profile = ActionProfile(mine)
        assert mine.flags.writeable and not np.shares_memory(mine, profile.matrix)
        mine[0] = [1.0, 0.0]
        assert profile.matrix.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_taken_matrix_is_kept_and_still_checked(self):
        # The pass hands its own matrix over: no copy, but the same checks.
        matrix = np.full((2, 2), 0.5)
        assert ActionProfile._taking(matrix).matrix is matrix
        assert not matrix.flags.writeable
        for bad, message in (
            ([[0.5, 0.5], [0.5, 0.6]], "^profile row 1 sums to 1.1, expected 1$"),
            ([[0.5, 0.5], [1.1, -0.1]], "^profile must be nonnegative$"),
            ([[0.5, 0.5], [np.nan, 1.0]], "^profile must contain only finite values$"),
        ):
            with pytest.raises(ValueError, match=message):
                ActionProfile._taking(np.array(bad))

    def test_uniform_profile(self):
        profile = ActionProfile.uniform(3, 4)
        assert profile.matrix.shape == (3, 4)
        assert np.allclose(profile.matrix, 0.25)

    def test_server_loads_nonnegative(self):
        ServerLoads([0.0, 1.5])
        with pytest.raises(ValueError):
            ServerLoads([-0.1, 1.0])


# Each array record with the fields of one valid value, and a changed value
# for each field that keeps the record valid.
RECORDS = [
    (
        Instance,
        dict(job_lengths=[1.0, 2.0], service_rates=[1.5, 2.5], initial_loads=[2.0, 4.0]),
        dict(job_lengths=[1.0, 3.0], service_rates=[1.5, 3.0], initial_loads=[2.0, 5.0]),
    ),
    (Action, dict(fractions=[0.25, 0.75]), dict(fractions=[0.5, 0.5])),
    (
        ActionProfile,
        dict(matrix=[[0.25, 0.75], [1.0, 0.0]]),
        dict(matrix=[[0.25, 0.75], [0.5, 0.5]]),
    ),
    (ServerLoads, dict(loads=[0.25, 0.75]), dict(loads=[0.25, 1.75])),
    (
        Trace,
        dict(
            arrivals=[[0], [1]],
            fractions=[[[0.5, 0.5]], [[1.0, 0.0]]],
            loads=[[1.0, 2.0], [0.5, 1.0], [0.0, 0.0]],
            costs=[[1.0], [0.5]],
        ),
        dict(
            arrivals=[[0], [0]],
            fractions=[[[0.5, 0.5]], [[0.0, 1.0]]],
            loads=[[1.0, 2.0], [0.5, 1.5], [0.0, 0.0]],
            costs=[[1.0], [0.75]],
        ),
    ),
]


@pytest.mark.parametrize("cls,fields,changed", RECORDS, ids=[r[0].__name__ for r in RECORDS])
class TestArrayRecords:
    """The array records share one base: read-only array fields and
    field-wise array equality within one type."""

    def test_equal_arrays_compare_equal(self, cls, fields, changed):
        a, b = cls(**fields), cls(**{k: np.array(v) for k, v in fields.items()})
        assert a == b and not a != b

    def test_one_changed_field_compares_unequal(self, cls, fields, changed):
        base = cls(**fields)
        for name, value in changed.items():
            other = cls(**{**fields, name: value})
            assert base != other and not base == other, name

    def test_every_field_is_read_only(self, cls, fields, changed):
        record = cls(**fields)
        for name in fields:
            column = getattr(record, name)
            assert not column.flags.writeable, name
            with pytest.raises(ValueError):
                column.flat[0] = 0


def test_default_initial_loads_are_read_only():
    loads = Instance([1.0], [1.0, 2.0]).initial_loads
    assert not loads.flags.writeable
    with pytest.raises(ValueError):
        loads[0] = 1.0


def test_records_of_different_types_never_compare_equal():
    vector = [0.25, 0.75]
    action, loads = Action(vector), ServerLoads(vector)
    assert action != loads and loads != action
    assert not action == loads and not loads == action


class TestPlayerCost:
    def test_single_player_on_loaded_servers(self):
        # job of length 2 split evenly over rates (1.5, 2.5) with loads (2, 4)
        inst = Instance([2.0], [1.5, 2.5], [2.0, 4.0])
        profile = ActionProfile([[0.5, 0.5]])
        expected = 1 / 3 + 2 / 1.5 + 1 / 5 + 4 / 2.5
        assert player_costs(inst, profile)[0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(3.4667, abs=5e-4)

    def test_single_server_arithmetic(self):
        inst = Instance([2.0], [1.0], [0.0])
        profile = ActionProfile([[1.0]])
        assert player_costs(inst, profile)[0] == pytest.approx(2.0, abs=1e-12)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(7)
        inst = Instance(rng.uniform(0.5, 2, 3), rng.uniform(0.5, 2, 3), rng.uniform(0, 3, 3))
        profile = random_profile(rng, inst)
        for i in range(3):
            assert player_costs(inst, profile)[i] == pytest.approx(
                cost_by_summation(inst, profile.matrix, i), rel=1e-12
            )

    def test_profile_shape_mismatch(self):
        inst = Instance([1.0], [1.0])
        with pytest.raises(ValueError):
            player_costs(inst, ActionProfile([[0.5, 0.5]]))


class TestInstantaneousCost:
    def test_worked_two_server_example(self, example_two_by_two):
        cost = instantaneous_cost(
            example_two_by_two, Action([0.5, 0.5]), ServerLoads([2.0, 4.0]), 1
        )
        assert cost == pytest.approx(3.4667, abs=5e-4)

    def test_zero_state_reduction(self):
        rng = np.random.default_rng(3)
        inst = Instance([1.7], [0.8, 1.1, 2.0])
        fractions = rng.dirichlet(np.ones(3))
        cost = instantaneous_cost(inst, Action(fractions), ServerLoads(np.zeros(3)), 0)
        expected = np.sum((1.7 * fractions) ** 2 / (2 * inst.service_rates))
        assert cost == pytest.approx(expected, rel=1e-12)

    def test_matches_direct_summation(self):
        inst = Instance([1.0], [1.5, 2.5], [1.5, 2.5])
        action = Action([0.375, 0.625])
        expected = sum(
            1.0 * a * (1.0 * a / (2 * mu) + s / mu)
            for a, mu, s in zip([0.375, 0.625], [1.5, 2.5], [1.5, 2.5])
        )
        got = instantaneous_cost(inst, action, ServerLoads([1.5, 2.5]), 0)
        assert got == pytest.approx(expected, rel=1e-12)


# Each integer the library takes from outside, by the input's name.
_PAIR = Instance([0.5, 1.0], [1.0, 2.0])
_DOORS = {
    "setting id": builtin_setting,
    "num_players": lambda v: GeneratorSpec(v, 1, (1, 2), (0.1, 0.5), (0, 1)),
    "num_servers": lambda v: GeneratorSpec(1, v, (1, 2), (0.1, 0.5), (0, 1)),
    "best_response": lambda v: best_response(_PAIR, v, [0.0, 0.0]),
    "instantaneous_cost": lambda v: instantaneous_cost(
        _PAIR, Action([1.0, 0.0]), ServerLoads([0.0, 0.0]), v
    ),
    "step index": lambda v: Trace(
        [[0], [1]], [[[0.5, 0.5]], [[1.0, 0.0]]], [[1.0, 2.0], [0.5, 1.0], [0.0, 0.0]], [[1.0], [0.5]]
    )[v],
}


@pytest.mark.parametrize(
    "door, value, message",
    [
        *(("setting id", v, "setting id must be an integer") for v in (True, 2.9, "3", 1.0)),
        *(
            (size, v, f"{size} must be a positive integer")
            for size in ("num_players", "num_servers")
            for v in (2.5, True, 0)
        ),
        *(
            (door, v, "player index must be an integer")
            for door in ("best_response", "instantaneous_cost")
            for v in (True, 1.0, 1.7)
        ),
        *(("step index", v, "step index must be an integer") for v in (True, False, 1.0)),
    ],
)
def test_integer_doors_refuse_what_is_no_integer(door, value, message):
    # A bool, a float or a string is refused as one line that names the
    # input, where ``int()`` or numpy's indexing once took it or failed on
    # it with its own error; a numpy integer is still an integer.
    with pytest.raises(ValueError, match=f"^{message}$"):
        _DOORS[door](value)
    _DOORS[door](np.int64(1))


class TestPotential:
    def test_hand_arithmetic_example(self, example_two_by_two):
        profile = ActionProfile([[1.0, 0.0], [0.5, 0.5]])
        # 0.75 * ((2 + 1 + 1) / 1.5)^2 + 1.25 * ((4 + 0 + 1) / 2.5)^2 = 31/3
        assert potential(example_two_by_two, profile) == pytest.approx(31 / 3, rel=1e-12)

    def test_unilateral_deviation_identity(self):
        # the potential change under one player's move equals that player's
        # cost change, for random instances, profiles, and deviations
        rng = np.random.default_rng(11)
        for _ in range(200):
            inst = random_instance(rng)
            profile = random_profile(rng, inst)
            i = int(rng.integers(inst.num_players))
            deviated = profile.matrix.copy()
            deviated[i] = rng.dirichlet(np.ones(inst.num_servers))
            other = ActionProfile(deviated)
            phi = potential(inst, profile)
            delta_phi = phi - potential(inst, other)
            delta_cost = player_costs(inst, profile)[i] - player_costs(inst, other)[i]
            assert abs(delta_phi - delta_cost) <= 1e-9 * max(1.0, abs(phi))

    def test_gradient_identity_against_finite_differences(self):
        # analytic partials of both the potential and the player cost equal
        # job_length * (own work + work ahead) / rate; central differences
        # step off the simplex, so the raw-matrix kernels are probed
        rng = np.random.default_rng(13)
        step = 1e-6
        for _ in range(20):
            inst = random_instance(rng, max_players=4, max_servers=4)
            matrix = random_profile(rng, inst).matrix
            i = int(rng.integers(inst.num_players))
            j = int(rng.integers(inst.num_servers))
            length = inst.job_lengths[i]
            others = matrix.copy()
            others[i] = 0.0
            ahead = inst.initial_loads + inst.job_lengths @ others
            analytic = length * (length * matrix[i, j] + ahead[j]) / inst.service_rates[j]
            up, down = matrix.copy(), matrix.copy()
            up[i, j] += step
            down[i, j] -= step
            fd_potential = (_potential_matrix(inst, up) - _potential_matrix(inst, down)) / (2 * step)
            rates, wait = inst.service_rates, ahead / inst.service_rates
            fd_cost = (
                _wait(length * up[i], wait, rates) - _wait(length * down[i], wait, rates)
            ) / (2 * step)
            assert fd_potential == pytest.approx(analytic, rel=1e-5, abs=1e-5)
            assert fd_cost == pytest.approx(analytic, rel=1e-5, abs=1e-5)


@st.composite
def rational_deviations(draw):
    """n, m <= 4 with lambda, mu and s0 on a grid of 1/8, a profile, and one
    player's move, with rows on a grid of 1/16 that sum to exactly 1. The
    library's products and sums of work are then exact, and only its
    divisions by mu and its sums over servers round."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def eighths(low, size):
        return np.array(draw(st.lists(st.integers(low, 64), min_size=size, max_size=size))) / 8

    def row():
        cuts = sorted(draw(st.lists(st.integers(0, 16), min_size=m - 1, max_size=m - 1)))
        return np.diff([0, *cuts, 16]) / 16

    inst = Instance(eighths(1, n), eighths(1, m), eighths(0, m))
    matrix = np.array([row() for _ in range(n)])
    i = draw(st.integers(0, n - 1))
    moved = matrix.copy()
    moved[i] = row()
    return inst, ActionProfile(matrix), ActionProfile(moved), i


@given(rational_deviations())
def test_potential_identity_is_exact(case):
    # In exact arithmetic the potential changes by exactly the mover's cost
    # change; the library's potential and costs stay within the derived
    # bounds of the exact values on both profiles.
    inst, profile, moved, i = case
    lengths, rates, loads = ex.of(inst)
    phis, costs = [], []
    for p in (profile, moved):
        matrix = [ex.exact(row) for row in p.matrix]
        phis.append(ex.potential(ex.queued(lengths, loads, matrix), rates))
        costs.append(ex.player_costs(lengths, rates, loads, matrix))
        assert abs(Fraction(potential(inst, p)) - phis[-1]) <= ex.POTENTIAL * ex.EPS * phis[-1]
        for got, want in zip(player_costs(inst, p), costs[-1]):
            assert abs(Fraction(got) - want) <= ex.COST * ex.EPS * want
    assert phis[0] - phis[1] == costs[0][i] - costs[1][i]


class TestStateTransition:
    def test_worked_example(self, example_two_by_two):
        after = state_transition(example_two_by_two, ServerLoads([2.0, 4.0]), [1.0, 1.0])
        assert np.array_equal(after.loads, [1.5, 2.5])

    def test_zero_state_is_absorbing_without_arrivals(self):
        inst = Instance([1.0], [1.5, 2.5])
        after = state_transition(inst, ServerLoads([0.0, 0.0]), [0.0, 0.0])
        assert np.array_equal(after.loads, [0.0, 0.0])

    def test_clamp_and_linear_drain(self):
        inst = Instance([1.0], [1.0, 2.0])
        after = state_transition(inst, ServerLoads([0.3, 5.0]), [0.1, 0.0])
        assert np.array_equal(after.loads, [0.0, 3.0])

    def test_rejects_negative_contributions(self):
        inst = Instance([1.0], [1.0])
        with pytest.raises(ValueError):
            state_transition(inst, ServerLoads([1.0]), [-0.5])

    def test_rejects_loads_of_another_length(self):
        inst = Instance([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="^loads length does not match the number of servers$"):
            state_transition(inst, [0.0, 0.0, 0.0], [0.0, 0.0])

    def test_nonnegativity_and_monotone_drain(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            inst = random_instance(rng)
            loads = ServerLoads(rng.uniform(0, 4, inst.num_servers))
            contrib = rng.uniform(0, 2, inst.num_servers)
            after = state_transition(inst, loads, contrib)
            assert np.all(after.loads >= 0)
            drained = state_transition(inst, loads, np.zeros(inst.num_servers))
            assert np.all(drained.loads <= loads.loads)


class TestNormalizedLoads:
    def test_proportional_profile_equalizes(self):
        inst = Instance([1.0, 2.0, 0.5], [1.0, 2.0, 3.0])
        share = inst.service_rates / inst.total_service_rate
        profile = ActionProfile(np.tile(share, (3, 1)))
        levels = normalized_loads(inst, profile)
        assert np.allclose(levels, inst.total_job_length / inst.total_service_rate)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(17)
        inst = random_instance(rng)
        profile = random_profile(rng, inst)
        direct = [
            (
                inst.initial_loads[j]
                + sum(
                    inst.job_lengths[i] * profile.matrix[i, j]
                    for i in range(inst.num_players)
                )
            )
            / inst.service_rates[j]
            for j in range(inst.num_servers)
        ]
        assert np.allclose(normalized_loads(inst, profile), direct, rtol=1e-12)


class TestSocialCost:
    def test_single_player_reduces_to_player_cost(self):
        rng = np.random.default_rng(23)
        inst = Instance([1.3], rng.uniform(0.5, 2, 3), rng.uniform(0, 2, 3))
        profile = random_profile(rng, inst)
        assert social_cost(inst, profile) == pytest.approx(
            player_costs(inst, profile)[0], rel=1e-12
        )

    def test_uniform_rows_sum_of_per_player_oracle(self, example_two_by_two):
        profile = ActionProfile([[0.5, 0.5], [0.5, 0.5]])
        expected = sum(
            cost_by_summation(example_two_by_two, profile.matrix, i) for i in range(2)
        )
        assert social_cost(example_two_by_two, profile) == pytest.approx(expected, rel=1e-12)

    def test_symmetric_zero_load_equilibrium_closed_form(self):
        # equal rates and equal jobs at the proportional equilibrium: each
        # player pays length^2 (2n - 1) / (2 * total rate), verified against
        # the summation oracle
        n, m, length, rate = 4, 3, 1.2, 0.9
        inst = Instance([length] * n, [rate] * m)
        profile = ActionProfile.uniform(n, m)
        closed_form = n * length**2 * (2 * n - 1) / (2 * inst.total_service_rate)
        oracle = sum(cost_by_summation(inst, profile.matrix, i) for i in range(n))
        assert closed_form == pytest.approx(oracle, rel=1e-12)
        assert social_cost(inst, profile) == pytest.approx(closed_form, rel=1e-12)

    def test_all_player_costs_vector_matches_loop(self):
        rng = np.random.default_rng(29)
        inst = random_instance(rng)
        profile = random_profile(rng, inst)
        vector = player_costs(inst, profile)
        for i in range(inst.num_players):
            assert vector[i] == pytest.approx(
                cost_by_summation(inst, profile.matrix, i), rel=1e-10
            )
