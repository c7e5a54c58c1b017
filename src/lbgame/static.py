"""One-shot game: closed-form best responses, single-pass dynamics to a pure
equilibrium, and efficiency (price-of-anarchy) machinery.

The best response of a player against fixed queue work is a water-filling
allocation: servers are ranked by how long they would take to clear what
they already hold, and the job is poured over the cheapest prefix until all
filled servers share one normalized level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    Action,
    ActionProfile,
    Instance,
    ServerLoads,
    _check_player,
    _check_profile,
    _potential_of,
    _wait,
    player_costs,
    social_cost,
)


class OracleConvergenceError(RuntimeError):
    """The numeric minimizer failed to settle within its iteration cap."""


def water_fill(total: float, rates, levels):
    """Spread ``total`` work over channels so the filled ones share one level.

    ``levels`` are the channels' current normalized heights and ``rates``
    their widths. Channels are taken in ascending level order (ties broken
    by index). The fill stops right before the first channel whose height
    already meets the common level the prefix would reach; if no channel
    does, everything is filled.

    Returns ``(amounts, level, support_size, order)`` where ``amounts`` is
    per-channel work (zero outside the support), ``level`` the common
    normalized height on the support, and ``order`` the permutation used.
    """
    rates = np.asarray(rates, dtype=float)
    levels = np.asarray(levels, dtype=float)
    if total <= 0:
        raise ValueError("total work to spread must be positive")
    if rates.size == 0:
        raise ValueError("need at least one channel")
    order = np.argsort(levels, kind="stable")
    # Heights above the lowest channel: a total far below the levels would
    # otherwise cancel against them and lose its low digits.
    base = levels[order[0]]
    heights = levels - base
    sorted_rates = rates[order]
    sorted_heights = heights[order]
    cum_rate = np.cumsum(sorted_rates)
    cum_load = np.cumsum(sorted_rates * sorted_heights)
    m = rates.size
    support = m
    if m > 1:
        stop = sorted_heights[1:] * cum_rate[:-1] >= total + cum_load[:-1]
        hits = np.nonzero(stop)[0]
        if hits.size:
            support = int(hits[0]) + 1
    level = (total + cum_load[support - 1]) / cum_rate[support - 1]
    chosen = order[:support]
    amounts = np.zeros(m)
    # Clip float dust: exact arithmetic keeps these strictly positive.
    amounts[chosen] = np.maximum(rates[chosen] * (level - heights[chosen]), 0.0)
    return amounts, float(base + level), support, order


@dataclass(frozen=True, eq=False)
class BestResponseResult:
    """A closed-form best response plus the water-filling facts behind it.

    action        the optimal split
    support_size  how many servers receive positive work
    water_level   the common normalized load reached on the support
    server_order  server permutation by ascending normalized load
    """

    action: Action
    support_size: int
    water_level: float
    server_order: np.ndarray


def _effective_loads(effective_loads, num_servers: int) -> np.ndarray:
    arr = (
        effective_loads.loads
        if isinstance(effective_loads, ServerLoads)
        else np.asarray(effective_loads, dtype=float)
    )
    if arr.shape != (num_servers,):
        raise ValueError("effective loads length does not match the number of servers")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise ValueError("effective loads must be finite and nonnegative")
    return arr


def best_response(inst: Instance, i: int, effective_loads) -> BestResponseResult:
    """Cost-minimizing split for player ``i`` against fixed queue work.

    ``effective_loads`` is the work already committed to each server from
    the player's point of view: initial loads plus all other players' shares
    in the one-shot game, or the observed state in the stepped game. The
    result is the unique minimizer of the player's wait time over the
    simplex.
    """
    _check_player(inst, i)
    eff = _effective_loads(effective_loads, inst.num_servers)
    fractions, level, support, order = _respond(
        float(inst.job_lengths[i]), inst.service_rates, eff
    )
    return BestResponseResult(
        action=Action(fractions),
        support_size=support,
        water_level=level,
        server_order=order,
    )


def _respond(length: float, rates: np.ndarray, loads: np.ndarray):
    # Raw best-response kernel: no validation, no objects. ``loads`` must be
    # finite and nonnegative. Returns ``(fractions, level, support, order)``.
    amounts, level, support, order = water_fill(length, rates, loads / rates)
    return amounts / length, level, support, order


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    positive = u + (1.0 - cumulative) / np.arange(1, v.size + 1) > 0
    rho = int(np.nonzero(positive)[0][-1])
    shift = (1.0 - cumulative[rho]) / (rho + 1)
    return np.maximum(v + shift, 0.0)


def best_response_oracle(
    inst: Instance,
    i: int,
    effective_loads,
    *,
    max_iterations: int = 10_000,
    displacement_tol: float = 1e-13,
) -> Action:
    """Independent numeric check on :func:`best_response`.

    Minimizes the same wait-time objective by projected gradient descent on
    the simplex, with the step size set by the largest curvature. Kept free
    of the closed form on purpose so the two can validate each other.
    """
    _check_player(inst, i)
    eff = _effective_loads(effective_loads, inst.num_servers)
    length = float(inst.job_lengths[i])
    rates = inst.service_rates
    levels = eff / rates
    step = inst.min_service_rate / length**2
    x = np.full(inst.num_servers, 1.0 / inst.num_servers)
    for _ in range(max_iterations):
        gradient = length * levels + (length**2) * x / rates
        moved = project_to_simplex(x - step * gradient)
        shift = float(np.max(np.abs(moved - x)))
        x = moved
        if shift <= displacement_tol:
            return Action(x)
    raise OracleConvergenceError(
        f"projected gradient descent did not settle in {max_iterations} iterations"
    )


def run_sequential_pass(
    inst: Instance,
    initial: ActionProfile | None = None,
    order=None,
):
    """One round of in-turn best-response updates.

    Each player, in the given order, replaces its row with the best response
    to the initial loads plus everyone else's current rows. Starting from
    any strictly positive profile (the default is uniform), one full pass
    lands on a pure equilibrium.

    Returns ``(profile, potentials)`` with the potential value recorded
    after each update; the sequence never increases.

    Costs O(n·m log m): one water-fill per update. The pass keeps running
    per-server totals of the players' work and applies each update to them
    as a delta, so each potential costs O(m). Drift guard: at the end, the
    totals are summed afresh from the final profile, and a gap above 1e-9
    of the largest total raises ``RuntimeError``. A potential that is not
    finite, because the instance's magnitudes overflow float64, raises
    ``ValueError``.
    """
    n, m = inst.num_players, inst.num_servers
    if initial is None:
        initial = ActionProfile.uniform(n, m)
    _check_profile(inst, initial)
    if order is None:
        order = range(n)
    order = [int(i) for i in order]
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all player indices")
    matrix = initial.matrix.copy()
    loads, rates = inst.initial_loads, inst.service_rates
    potentials = [
        _potential_of(loads + totals, rates)
        for totals in _pass(inst, loads, matrix, order)
    ]
    if not np.all(np.isfinite(potentials)):
        raise ValueError(
            "potential is not finite: the instance's magnitudes overflow float64"
        )
    return ActionProfile(matrix), potentials


def _pass(inst: Instance, loads: np.ndarray, matrix: np.ndarray, order):
    # In-turn updates of ``matrix`` in place against the queued ``loads``.
    # Keeps the running per-server totals of the players' work and yields
    # them after each update; checks them for drift at the end. Only lambda
    # and mu are read from ``inst``.
    lengths, rates = inst.job_lengths, inst.service_rates
    totals = lengths @ matrix
    for i in order:
        length, row = lengths[i], matrix[i]
        mine = length * row
        # Cancellation in ``totals - mine`` can leave -1e-16 where the other
        # players hold nothing; the water-fill needs nonnegative loads.
        effective = np.maximum(loads + (totals - mine), 0.0)
        fractions = _respond(length, rates, effective)[0]
        totals += length * fractions - mine
        row[:] = fractions
        yield totals
    fresh = lengths @ matrix
    drift = float(np.max(np.abs(totals - fresh)))
    if not drift <= 1e-9 * float(np.max(fresh)):
        raise RuntimeError(f"running server totals drifted by {drift:.3e} over the pass")


class NashCheck(NamedTuple):
    is_equilibrium: bool
    max_improvement: float


def is_nash(inst: Instance, profile: ActionProfile, epsilon: float = 1e-8) -> NashCheck:
    """Whether no player can cut its cost by more than ``epsilon`` by moving
    alone. Also reports the largest improvement any player could make.

    Costs O(n·m log m): one water-fill per player, against the queues the
    other players leave. A cost that is not finite, because the instance's
    magnitudes overflow float64, raises ``ValueError``.
    """
    _check_profile(inst, profile)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = inst.num_players
    if n == 0:
        return NashCheck(True, 0.0)
    lengths, rates = inst.job_lengths, inst.service_rates
    costs = player_costs(inst, profile)
    work = lengths[:, None] * profile.matrix
    queued = inst.initial_loads + work.sum(axis=0)
    reachable = np.empty(n)
    for i in range(n):
        effective = np.maximum(queued - work[i], 0.0)
        fractions = _respond(lengths[i], rates, effective)[0]
        reachable[i] = _wait(lengths[i] * fractions, effective, rates)
    improvements = costs - reachable
    if not np.all(np.isfinite(improvements)):
        raise ValueError(
            "player cost is not finite: the instance's magnitudes overflow float64"
        )
    worst = max(0.0, float(improvements.max()))
    return NashCheck(worst <= epsilon, worst)


def poa_upper_bound(inst: Instance) -> float:
    """Analytic cap on how much selfish splitting can cost relative to the
    coordinated optimum. Falls back to 3 when all queues start empty."""
    if inst.num_players < 1:
        raise ValueError("needs at least one player")
    backlog = float(np.max(inst.initial_loads / inst.service_rates))
    crowding = backlog + inst.total_job_length / inst.min_service_rate
    bound = 1.0 + 2.0 * crowding * inst.total_service_rate / inst.total_job_length
    if not np.any(inst.initial_loads):
        bound = min(bound, 3.0)
    return float(bound)


def opt_lower_bound(inst: Instance) -> float:
    """Lower bound on the optimal social cost.

    Relaxes per-player splits to aggregate per-server work and minimizes the
    resulting convex cost in closed form, by the same water-filling rule the
    best response uses (here pouring the combined job mass over the initial
    backlog levels).
    """
    if inst.num_players < 1:
        raise ValueError("needs at least one player")
    rates = inst.service_rates
    amounts, _, _, _ = water_fill(
        inst.total_job_length, rates, inst.initial_loads / rates
    )
    return float(np.sum((amounts**2 / 2.0 + inst.initial_loads * amounts) / rates))


def empirical_poa(inst: Instance, ne_profile: ActionProfile, epsilon: float = 1e-8) -> float:
    """Ratio of a given equilibrium's social cost to the optimum lower bound.

    Conservative: never smaller than the true inefficiency ratio of that
    equilibrium, and always below :func:`poa_upper_bound`.
    """
    check = is_nash(inst, ne_profile, epsilon)
    if not check.is_equilibrium:
        raise ValueError(
            "profile fails the equilibrium check: a unilateral move improves "
            f"some cost by {check.max_improvement:.3e}"
        )
    cost, optimum = social_cost(inst, ne_profile), opt_lower_bound(inst)
    if not (np.isfinite(cost) and np.isfinite(optimum)):
        raise ValueError(
            f"social cost {cost!r} or optimum bound {optimum!r} is not finite: "
            "the instance's magnitudes overflow float64"
        )
    return cost / optimum
