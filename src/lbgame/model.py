"""Core types and cost formulas shared by the one-shot and stepped games.

An instance has a set of players, each holding one divisible job, and a set
of servers with fixed drain rates and pre-existing queue loads. A player
splits its job across servers by picking a fraction vector on the
probability simplex. The cost of a split is the average wait time of the
job's work under linear first-in drain: quadratic in the player's own
fractions, linear in whatever sits in the queue ahead of it.

Everything here is an immutable value; the functions are pure and safe to
share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute tolerance for "fractions sum to one" checks.
SIMPLEX_ATOL = 1e-9


class InfeasibleError(ValueError):
    """A run mode's stability requirement does not hold for the instance."""


def _vector(values, name: str, *, allow_empty: bool = False) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if arr.size == 0 and not allow_empty:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Instance:
    """Immutable parameters of one load-balancing game.

    job_lengths    work units per player's job, all positive
    service_rates  work units each server drains per step, all positive
    initial_loads  work units already queued per server, nonnegative
                   (defaults to empty queues)

    An empty ``job_lengths`` vector is allowed so that pure-drain and
    spectator computations stay expressible; operations that need at least
    one player raise on it.
    """

    job_lengths: np.ndarray
    service_rates: np.ndarray
    initial_loads: np.ndarray | None = None

    def __post_init__(self):
        lengths = _vector(self.job_lengths, "job_lengths", allow_empty=True)
        rates = _vector(self.service_rates, "service_rates")
        if self.initial_loads is None:
            loads = np.zeros(rates.size)
            loads.flags.writeable = False
        else:
            loads = _vector(self.initial_loads, "initial_loads")
        if np.any(lengths <= 0):
            raise ValueError("job_lengths must all be positive")
        if np.any(rates <= 0):
            raise ValueError("service_rates must all be positive")
        if loads.size != rates.size:
            raise ValueError(
                f"initial_loads has {loads.size} entries for {rates.size} servers"
            )
        if np.any(loads < 0):
            raise ValueError("initial_loads must all be nonnegative")
        object.__setattr__(self, "job_lengths", lengths)
        object.__setattr__(self, "service_rates", rates)
        object.__setattr__(self, "initial_loads", loads)

    @property
    def num_players(self) -> int:
        return self.job_lengths.size

    @property
    def num_servers(self) -> int:
        return self.service_rates.size

    @property
    def max_job_length(self) -> float:
        return float(self.job_lengths.max()) if self.num_players else 0.0

    @property
    def min_job_length(self) -> float:
        return float(self.job_lengths.min()) if self.num_players else 0.0

    @property
    def min_service_rate(self) -> float:
        return float(self.service_rates.min())

    @property
    def max_service_rate(self) -> float:
        return float(self.service_rates.max())

    @property
    def total_service_rate(self) -> float:
        return float(self.service_rates.sum())

    @property
    def total_job_length(self) -> float:
        return float(self.job_lengths.sum())

    @property
    def feasible_sequential(self) -> bool:
        """Stability when one job arrives per step: largest job < total rate."""
        return self.max_job_length < self.total_service_rate

    @property
    def feasible_simultaneous(self) -> bool:
        """Stability when every player sends per step: total work < total rate."""
        return self.total_job_length < self.total_service_rate

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            np.array_equal(self.job_lengths, other.job_lengths)
            and np.array_equal(self.service_rates, other.service_rates)
            and np.array_equal(self.initial_loads, other.initial_loads)
        )


@dataclass(frozen=True, eq=False)
class Action:
    """One player's split of its job: a point on the probability simplex."""

    fractions: np.ndarray

    def __post_init__(self):
        arr = _vector(self.fractions, "fractions")
        if np.any(arr < 0):
            raise ValueError("action fractions must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > SIMPLEX_ATOL:
            raise ValueError(f"action fractions must sum to 1, got {total!r}")
        object.__setattr__(self, "fractions", arr)

    def __eq__(self, other):
        if not isinstance(other, Action):
            return NotImplemented
        return np.array_equal(self.fractions, other.fractions)


@dataclass(frozen=True, eq=False)
class ActionProfile:
    """All players' splits as a row-stochastic matrix, one row per player."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError(f"profile matrix must be 2-D, got shape {mat.shape}")
        if mat.shape[1] == 0:
            raise ValueError("profile matrix needs at least one server column")
        if not np.all(np.isfinite(mat)):
            raise ValueError("profile matrix must contain only finite values")
        if np.any(mat < 0):
            raise ValueError("profile entries must be nonnegative")
        if mat.shape[0]:
            sums = mat.sum(axis=1)
            bad = np.nonzero(np.abs(sums - 1.0) > SIMPLEX_ATOL)[0]
            if bad.size:
                raise ValueError(
                    f"profile row {bad[0]} sums to {sums[bad[0]]!r}, expected 1"
                )
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def uniform(cls, num_players: int, num_servers: int) -> "ActionProfile":
        """The all-1/m starting profile used by the update dynamics."""
        return cls(np.full((num_players, num_servers), 1.0 / num_servers))

    @property
    def num_players(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_servers(self) -> int:
        return self.matrix.shape[1]

    def __eq__(self, other):
        if not isinstance(other, ActionProfile):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)


@dataclass(frozen=True, eq=False)
class ServerLoads:
    """Current queue length per server, in work units."""

    loads: np.ndarray

    def __post_init__(self):
        arr = _vector(self.loads, "loads")
        if np.any(arr < 0):
            raise ValueError("server loads must be nonnegative")
        object.__setattr__(self, "loads", arr)

    @property
    def total(self) -> float:
        return float(self.loads.sum())

    def __eq__(self, other):
        if not isinstance(other, ServerLoads):
            return NotImplemented
        return np.array_equal(self.loads, other.loads)


def _check_profile(inst: Instance, profile: ActionProfile) -> None:
    if profile.matrix.shape != (inst.num_players, inst.num_servers):
        raise ValueError(
            f"profile shape {profile.matrix.shape} does not match instance "
            f"({inst.num_players} players, {inst.num_servers} servers)"
        )


def _check_player(inst: Instance, i: int) -> None:
    if not 0 <= i < inst.num_players:
        raise IndexError(f"player index {i} out of range for {inst.num_players} players")


def _finite(value, what: str):
    # Float64 overflow must fail loudly, never pass as a plausible number.
    if not np.all(np.isfinite(value)):
        raise ValueError(
            f"{what} is not finite: the instance's magnitudes overflow float64"
        )
    return value


def player_costs(inst: Instance, profile: ActionProfile) -> np.ndarray:
    """Every player's average wait time under the full profile.

    For each server, a player's share waits behind the initial load plus all
    other players' work there, and behind half of its own share. A cost
    that overflows float64 raises ``ValueError``.
    """
    _check_profile(inst, profile)
    rates = inst.service_rates
    work = inst.job_lengths[:, None] * profile.matrix
    queued = inst.initial_loads + work.sum(axis=0)
    ahead = queued[None, :] - work
    costs = np.sum(work * (work / (2.0 * rates) + ahead / rates), axis=1)
    return _finite(costs, "player cost")


def player_cost(inst: Instance, profile: ActionProfile, i: int) -> float:
    """Average wait time of player ``i``'s job under the full profile."""
    _check_player(inst, i)
    return float(player_costs(inst, profile)[i])


def instantaneous_cost(inst: Instance, action: Action, loads: ServerLoads, i: int) -> float:
    """Average wait time of player ``i``'s job against fixed queue loads."""
    _check_player(inst, i)
    if action.fractions.size != inst.num_servers:
        raise ValueError("action length does not match the number of servers")
    if loads.loads.size != inst.num_servers:
        raise ValueError("loads length does not match the number of servers")
    return _wait(inst.job_lengths[i] * action.fractions, loads.loads, inst.service_rates)


def _wait(work: np.ndarray, loads: np.ndarray, rates: np.ndarray) -> float:
    # Raw kernel: average wait of ``work`` joining queues that hold ``loads``.
    return float(np.sum(work * (work / (2.0 * rates) + loads / rates)))


def _potential_of(queued: np.ndarray, rates: np.ndarray) -> float:
    # Raw kernel: the potential of per-server queues holding ``queued``.
    return float(np.sum(queued * queued / (2.0 * rates)))


def _potential_matrix(inst: Instance, matrix: np.ndarray) -> float:
    # Raw-matrix kernel; also used by finite-difference checks that step
    # slightly off the simplex.
    return _potential_of(inst.initial_loads + inst.job_lengths @ matrix, inst.service_rates)


def potential(inst: Instance, profile: ActionProfile) -> float:
    """Scalar whose change under any single player's move equals that
    player's cost change. Nonnegative; minimized at fully balanced queues."""
    _check_profile(inst, profile)
    return _finite(_potential_matrix(inst, profile.matrix), "potential")


def state_transition(inst: Instance, loads: ServerLoads, contributions) -> ServerLoads:
    """One drain step: each queue gains its incoming work, loses one step of
    service, and is clamped at empty."""
    contrib = np.asarray(contributions, dtype=float)
    if contrib.shape != (inst.num_servers,):
        raise ValueError("contributions length does not match the number of servers")
    if np.any(contrib < 0):
        raise ValueError("contributions must be nonnegative")
    if loads.loads.size != inst.num_servers:
        raise ValueError("loads length does not match the number of servers")
    return ServerLoads(np.maximum(loads.loads + contrib - inst.service_rates, 0.0))


def normalized_loads(inst: Instance, profile: ActionProfile) -> np.ndarray:
    """Per-server queue length (initial plus scheduled work) divided by its
    drain rate: the time each server needs to clear what it holds."""
    _check_profile(inst, profile)
    queued = inst.initial_loads + inst.job_lengths @ profile.matrix
    return queued / inst.service_rates


def social_cost(inst: Instance, profile: ActionProfile) -> float:
    """Sum of all players' average wait times."""
    return _finite(float(player_costs(inst, profile).sum()), "social cost")
