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
    _finite,
    _potential_of,
    _queues,
    normalized_loads,
    player_costs,
    social_cost,
)


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
    Input that would make the result NaN or inf raises ``ValueError``.
    """
    rates = np.asarray(rates, dtype=float)
    levels = np.asarray(levels, dtype=float)
    if not 0 < total < np.inf:
        raise ValueError("total work to spread must be finite and positive")
    if rates.size == 0:
        raise ValueError("need at least one channel")
    if rates.ndim != 1 or levels.shape != rates.shape:
        raise ValueError(f"{levels.size} levels for {rates.size} channels")
    if not (np.all((rates > 0) & (rates < np.inf)) and np.all(np.isfinite(levels))):
        raise ValueError("rates must be finite and positive, and levels finite")
    return _water_fill(total, rates, levels)


def _water_fill(total: float, rates: np.ndarray, levels: np.ndarray):
    # ``water_fill`` unchecked, for callers whose inputs are valid by design.
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


def _water_fill_rows(totals, rates: np.ndarray, levels: np.ndarray):
    # ``_water_fill`` on each row of a (B, m) ``levels``, with ``totals`` a
    # scalar or one total per row. The same operations in the same order per
    # row, so every row gives the same bits as the 1-D kernel. Returns
    # ``(amounts, level, support, order)`` with a leading axis of B.
    order = np.argsort(levels, axis=-1, kind="stable")
    base = np.take_along_axis(levels, order[:, :1], axis=-1)
    heights = levels - base
    sorted_rates = rates[order]
    sorted_heights = np.take_along_axis(heights, order, axis=-1)
    cum_rate = np.cumsum(sorted_rates, axis=-1)
    cum_load = np.cumsum(sorted_rates * sorted_heights, axis=-1)
    total = np.reshape(totals, (-1, 1))
    # The last channel always stops the fill, so the first stop is the support.
    stop = np.ones(levels.shape, dtype=bool)
    stop[:, :-1] = sorted_heights[:, 1:] * cum_rate[:, :-1] >= total + cum_load[:, :-1]
    support = stop.argmax(axis=-1) + 1
    last = (support - 1)[:, None]
    level = (total + np.take_along_axis(cum_load, last, axis=-1)) / np.take_along_axis(
        cum_rate, last, axis=-1
    )
    chosen = np.empty(levels.shape, dtype=bool)
    np.put_along_axis(chosen, order, np.arange(rates.size) < support[:, None], axis=-1)
    amounts = np.where(chosen, np.maximum(rates * (level - heights), 0.0), 0.0)
    return amounts, (base + level)[:, 0], support, order


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
    return _queues(arr, "effective loads")


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


def _respond(length, rates: np.ndarray, loads: np.ndarray):
    # Raw best-response kernel: no validation, no objects. ``loads`` must be
    # finite and nonnegative: one row of m, or a (B, m) batch with one
    # ``length`` or a (B, 1) column of them. Returns ``(fractions, level,
    # support, order)`` batched like ``loads``; one row takes the cheaper 1-D kernel.
    fill = _water_fill if loads.ndim == 1 else _water_fill_rows
    amounts, level, support, order = fill(length, rates, loads / rates)
    return amounts / length, level, support, order


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
    return ActionProfile(matrix), _finite(potentials, "potential")


def _pass(inst: Instance, loads: np.ndarray, matrix: np.ndarray, order):
    # In-turn updates of ``matrix`` in place against the queued ``loads``:
    # an (n, m) profile on m loads, or a (B, n, m) batch of independent
    # games, one per row of (B, m) loads. Keeps the running per-server
    # totals of the players' work and yields them after each update; checks
    # each game's totals for drift at the end. Only lambda and mu are read
    # from ``inst``.
    lengths, rates = inst.job_lengths, inst.service_rates
    totals = lengths @ matrix
    for i in order:
        length, row = lengths[i], matrix[..., i, :]
        mine = length * row
        # Cancellation in ``totals - mine`` can leave -1e-16 where the other
        # players hold nothing; the water-fill needs nonnegative loads.
        effective = np.maximum(loads + (totals - mine), 0.0)
        fractions = _respond(length, rates, effective)[0]
        totals += length * fractions - mine
        row[...] = fractions
        yield totals
    fresh = lengths @ matrix
    drift = np.max(np.abs(totals - fresh), axis=-1)
    if not np.all(drift <= 1e-9 * np.max(fresh, axis=-1)):
        raise RuntimeError(f"running server totals drifted by {np.max(drift):.3e} over the pass")


class NashCheck(NamedTuple):
    """:func:`is_nash`'s verdict and largest gap, a bound on any player's gain."""

    is_equilibrium: bool
    max_improvement: float


def is_nash(inst: Instance, profile: ActionProfile, epsilon: float = 1e-8) -> NashCheck:
    """Whether each player's first-order gap is within ``epsilon`` of its
    own cost, a verdict that does not depend on units. Costs O(n·m).

    Cost is convex in a player's own work, with the normalized loads as
    gradient, so the gap (its work times each used server's height above
    the lowest level) bounds its gain from moving alone and is 0 exactly at
    an equilibrium. A bad ``epsilon`` or float64 overflow raises ValueError.
    """
    costs = player_costs(inst, profile)
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be finite and positive")
    levels = normalized_loads(inst, profile)
    work = inst.job_lengths[:, None] * profile.matrix
    gaps = _finite(work @ (levels - levels.min()), "equilibrium gap")
    return NashCheck(bool(np.all(gaps <= epsilon * costs)), float(gaps.max(initial=0.0)))


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
    backlog levels). A bound that overflows float64 raises ``ValueError``.
    """
    if inst.num_players < 1:
        raise ValueError("needs at least one player")
    rates = inst.service_rates
    amounts = _water_fill(inst.total_job_length, rates, inst.initial_loads / rates)[0]
    bound = float(np.sum((amounts**2 / 2.0 + inst.initial_loads * amounts) / rates))
    return _finite(bound, "optimum bound")


def empirical_poa(inst: Instance, ne_profile: ActionProfile, epsilon: float = 1e-8) -> float:
    """Ratio of a given equilibrium's social cost to the optimum lower bound.

    Conservative: never smaller than the true inefficiency ratio of that
    equilibrium, and always below :func:`poa_upper_bound`.
    """
    check = is_nash(inst, ne_profile, epsilon)
    if not check.is_equilibrium:
        raise ValueError(
            "profile fails the equilibrium check: a unilateral move improves "
            f"some cost by up to {check.max_improvement:.3e}"
        )
    return social_cost(inst, ne_profile) / opt_lower_bound(inst)
