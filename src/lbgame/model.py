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

import operator
from dataclasses import dataclass

import numpy as np

# Absolute tolerance for "fractions sum to one" checks.
SIMPLEX_ATOL = 1e-9

# About how many values one of ``_blocks`` holds.
_BLOCK = 2**14


class InfeasibleError(ValueError):
    """A run mode's stability requirement does not hold for the instance."""


def _array(values, name: str, ndim: int = 1) -> np.ndarray:
    # A finite, nonnegative float copy of ``values`` with ``ndim`` axes, the
    # last one nonempty. An integer float64 cannot hold is not finite.
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} must contain only finite values") from None
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if arr.shape[-1] == 0:
        raise ValueError(f"{name} must not be empty")
    return _queues(arr, name)


def _queues(arr: np.ndarray, name: str) -> np.ndarray:
    # The one check that values of any shape are finite and nonnegative:
    # queue contents, work, and fractions. Checks in place, copies nothing.
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must contain only finite values")
    if np.any(arr < 0):
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _rows_on_simplex(mat: np.ndarray, name: str) -> np.ndarray:
    # The one check that each row (a 1-D vector is one row) sums to 1 within
    # SIMPLEX_ATOL. Checks in place, copies nothing.
    sums = mat.sum(axis=-1).reshape(-1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > SIMPLEX_ATOL)
    if bad.size:
        row = f" row {bad[0]}" if mat.ndim > 1 else ""
        raise ValueError(f"{name}{row} sums to {float(sums[bad[0]])!r}, expected 1")
    return mat


class _Record:
    # Base of the frozen array records: their fields are read-only arrays,
    # set by ``_set``, and two records of one type are equal when every
    # field is array-equal. Records of different types never are.

    def _set(self, **arrays: np.ndarray) -> None:
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))


@dataclass(frozen=True, eq=False)
class Instance(_Record):
    """Immutable parameters of one load-balancing game.

    job_lengths    work units per player's job, all positive; at least
                   one player
    service_rates  work units each server drains per step, all positive
    initial_loads  work units already queued per server, nonnegative
                   (defaults to empty queues)
    """

    job_lengths: np.ndarray
    service_rates: np.ndarray
    initial_loads: np.ndarray | None = None

    def __post_init__(self):
        lengths = _array(self.job_lengths, "job_lengths")
        rates = _array(self.service_rates, "service_rates")
        if self.initial_loads is None:
            loads = np.zeros(rates.size)
        else:
            loads = _array(self.initial_loads, "initial_loads")
        if np.any(lengths <= 0):
            raise ValueError("job_lengths must all be positive")
        if np.any(rates <= 0):
            raise ValueError("service_rates must all be positive")
        if loads.size != rates.size:
            raise ValueError(
                f"initial_loads has {loads.size} entries for {rates.size} servers"
            )
        self._set(job_lengths=lengths, service_rates=rates, initial_loads=loads)

    @property
    def num_players(self) -> int:
        return self.job_lengths.size

    @property
    def num_servers(self) -> int:
        return self.service_rates.size

    @property
    def max_job_length(self) -> float:
        return float(self.job_lengths.max())

    @property
    def min_job_length(self) -> float:
        return float(self.job_lengths.min())

    @property
    def min_service_rate(self) -> float:
        return float(self.service_rates.min())

    @property
    def total_service_rate(self) -> float:
        return float(self.service_rates.sum())

    @property
    def total_job_length(self) -> float:
        return float(self.job_lengths.sum())


@dataclass(frozen=True, eq=False)
class Action(_Record):
    """One player's split of its job: a point on the probability simplex."""

    fractions: np.ndarray

    def __post_init__(self):
        self._set(fractions=_rows_on_simplex(_array(self.fractions, "action"), "action"))


@dataclass(frozen=True, eq=False)
class ActionProfile(_Record):
    """All players' splits as a row-stochastic matrix, one row per player."""

    matrix: np.ndarray

    def __post_init__(self):
        self._set(matrix=_rows_on_simplex(_array(self.matrix, "profile", 2), "profile"))

    @classmethod
    def _taking(cls, matrix: np.ndarray) -> "ActionProfile":
        # A profile on ``matrix`` itself, a float64 (n, m) array its caller
        # built and hands over: checked finite, nonnegative and on the
        # simplex like any profile, and marked read-only, but not copied.
        profile = object.__new__(cls)
        profile._set(matrix=_rows_on_simplex(_queues(matrix, "profile"), "profile"))
        return profile

    @classmethod
    def uniform(cls, num_players: int, num_servers: int) -> "ActionProfile":
        """The all-1/m starting profile used by the update dynamics."""
        return cls(np.full((num_players, num_servers), 1.0 / num_servers))


@dataclass(frozen=True, eq=False)
class ServerLoads(_Record):
    """Current queue length per server, in work units."""

    loads: np.ndarray

    def __post_init__(self):
        self._set(loads=_array(self.loads, "server loads"))

    @property
    def total(self) -> float:
        return float(self.loads.sum())


def _block_steps(k: int, m: int) -> int:
    # The one block rule: a block of steps of k arrivals on m servers holds
    # about ``_BLOCK`` fraction values, and at least one step. It bounds
    # pricing temporaries and the trace writers' and reader's memory.
    return max(1, _BLOCK // (k * m))


def _blocks(steps: int, k: int, m: int):
    # ``steps`` steps of k arrivals on m servers as ``(start, stop)`` ranges
    # of ``_block_steps`` steps, the last one partial.
    rows = _block_steps(k, m)
    for start in range(0, steps, rows):
        yield start, min(start + rows, steps)


def _check_profile(inst: Instance, profile: ActionProfile) -> None:
    if profile.matrix.shape != (inst.num_players, inst.num_servers):
        raise ValueError(
            f"profile shape {profile.matrix.shape} does not match instance "
            f"({inst.num_players} players, {inst.num_servers} servers)"
        )


# What ``_integer`` asks for, by its least allowed value.
_INTEGER_KINDS = {None: "an", 0: "a nonnegative", 1: "a positive"}


def _integer(value, name: str, least: int | None = None) -> int:
    # The one check of an integer from outside the program, such as a seed,
    # a step cap or a player index: an ``__index__`` value that is not a
    # bool, and at least ``least`` when given. Returns it as a Python int.
    if not isinstance(value, bool) and hasattr(value, "__index__"):
        value = operator.index(value)
        if least is None or value >= least:
            return value
    raise ValueError(f"{name} must be {_INTEGER_KINDS[least]} integer")


def _check_player(inst: Instance, i: int, name: str = "player index") -> int:
    # A player index from outside, called ``name``, returned as a Python int.
    i = _integer(i, name)
    if not 0 <= i < inst.num_players:
        raise IndexError(f"player index {i} out of range for {inst.num_players} players")
    return i


def _per_server(inst: Instance, values, name: str) -> np.ndarray:
    # The one check of a per-server vector at the API boundary: a
    # ``ServerLoads`` or anything array-like, of shape (m,), finite and
    # nonnegative. Copies nothing that already is a float64 array.
    arr = np.asarray(values.loads if isinstance(values, ServerLoads) else values, dtype=float)
    if arr.shape != (inst.num_servers,):
        raise ValueError(f"{name} length does not match the number of servers")
    return _queues(arr, name)


def _drain(loads: np.ndarray, work: np.ndarray, rates: np.ndarray) -> np.ndarray:
    # The one copy of the drain step of :func:`state_transition`.
    return np.maximum(loads + work - rates, 0.0)


def _finite(value, what: str):
    # Float64 overflow must fail loudly, never pass as a plausible number.
    if not np.all(np.isfinite(value)):
        raise ValueError(
            f"{what} is not finite: the instance's magnitudes overflow float64"
        )
    return value


def _nonzero(value: float, what: str) -> float:
    # Float64 underflow must fail loudly too: a divisor that is positive in
    # exact arithmetic must not round to 0 and divide by zero.
    if value == 0:
        raise ValueError(f"{what} is 0: the instance's magnitudes underflow float64")
    return value


def _work(lengths: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    # The one sum of the players' work per server, lambda^T X, over any batch
    # axes: einsum adds the rows in turn without BLAS, whatever its threads.
    return np.einsum("i,...ij->...j", lengths, matrix)


def player_costs(inst: Instance, profile: ActionProfile) -> np.ndarray:
    """Every player's average wait time under the full profile.

    For each server, a player's share waits behind the initial load plus all
    other players' work there, and behind half of its own share. Pricing
    walks ``_blocks`` of players, so it holds one block's work beside the
    profile and never another (n, m) array. A cost that overflows float64
    raises ``ValueError``.
    """
    _check_profile(inst, profile)
    matrix, lengths, rates = profile.matrix, inst.job_lengths, inst.service_rates
    queued = inst.initial_loads + _work(lengths, matrix)
    costs = np.empty(inst.num_players)
    for start, stop in _blocks(inst.num_players, 1, inst.num_servers):
        work = lengths[start:stop, None] * matrix[start:stop]
        ahead = queued - work
        ahead /= rates
        costs[start:stop] = _wait(work, ahead, rates)
    return _finite(costs, "player cost")


def instantaneous_cost(inst: Instance, action: Action, loads: ServerLoads, i: int) -> float:
    """Average wait time of player ``i``'s job against fixed queue loads. A
    cost that overflows float64 raises ``ValueError``."""
    i = _check_player(inst, i)
    work = inst.job_lengths[i] * _per_server(inst, action.fractions, "action")
    rates = inst.service_rates
    cost = _wait(work, _per_server(inst, loads, "loads") / rates, rates)
    return float(_finite(cost, "instantaneous cost"))


def _wait(work: np.ndarray, ahead: np.ndarray, rates: np.ndarray) -> np.ndarray:
    # The one copy of the wait formula: per row of ``work`` (summed over the
    # last axis), the average wait of that work joining queues whose loads
    # take ``ahead`` = loads / rates steps to drain. A 1-D ``work`` gives a
    # 0-d result. ``ahead`` broadcasts to ``work``, and the terms build in
    # place so a batch holds one temporary.
    terms = work / (2.0 * rates)
    terms += ahead
    terms *= work
    return np.sum(terms, axis=-1)


def _potential_of(queued: np.ndarray, rates: np.ndarray) -> np.ndarray:
    # Raw kernel: the potential of per-server queues holding ``queued``, per
    # row of a (B, m) block (summed over the last axis). A 1-D ``queued``
    # gives a 0-d result. numpy sums each contiguous row pairwise, so a row
    # of a block has the bits of that row alone.
    return np.sum(queued * queued / (2.0 * rates), axis=-1)


def _potential_matrix(inst: Instance, matrix: np.ndarray) -> float:
    # Raw-matrix kernel; also used by finite-difference checks that step
    # slightly off the simplex.
    queued = inst.initial_loads + _work(inst.job_lengths, matrix)
    return float(_potential_of(queued, inst.service_rates))


def potential(inst: Instance, profile: ActionProfile) -> float:
    """Scalar whose change under any single player's move equals that
    player's cost change. Nonnegative; minimized at fully balanced queues."""
    _check_profile(inst, profile)
    return _finite(_potential_matrix(inst, profile.matrix), "potential")


def state_transition(inst: Instance, loads: ServerLoads, contributions) -> ServerLoads:
    """One drain step: each queue gains its incoming work, loses one step of
    service, and is clamped at empty."""
    contrib = _per_server(inst, contributions, "contributions")
    return ServerLoads(_drain(_per_server(inst, loads, "loads"), contrib, inst.service_rates))


def normalized_loads(inst: Instance, profile: ActionProfile) -> np.ndarray:
    """Per-server queue length (initial plus scheduled work) divided by its
    drain rate: the time each server needs to clear what it holds."""
    _check_profile(inst, profile)
    queued = inst.initial_loads + _work(inst.job_lengths, profile.matrix)
    return queued / inst.service_rates


def social_cost(inst: Instance, profile: ActionProfile) -> float:
    """Sum of all players' average wait times."""
    return _finite(float(player_costs(inst, profile).sum()), "social cost")
