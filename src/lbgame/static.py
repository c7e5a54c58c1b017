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
    _block_steps,
    _blocks,
    _check_player,
    _check_profile,
    _finite,
    _integer,
    _nonzero,
    _per_server,
    _potential_of,
    _work,
    normalized_loads,
    player_costs,
)


def _water_fill(total: float, rates: np.ndarray, levels: np.ndarray):
    # Pour ``total`` work over channels of widths ``rates`` in ascending order
    # of their normalized ``levels`` (ties by index), stopping right before
    # the first channel already at the level the filled prefix would share.
    # Returns ``(amounts, level, support, order)``: per-channel work (zero
    # off the support), that level, the support size and the permutation.
    # Unchecked: callers pass positive ``total`` and rates, finite levels.
    order = levels.argsort(kind="stable")
    sorted_levels = levels[order]
    # Heights above the lowest channel: a total far below the levels would
    # otherwise cancel against them and lose its low digits.
    base = sorted_levels[0]
    sorted_heights = sorted_levels - base
    sorted_rates = rates[order]
    cum_rate = sorted_rates.cumsum()
    cum_load = (sorted_rates * sorted_heights).cumsum()
    m = rates.size
    support = m
    if m > 1:
        stop = sorted_heights[1:] * cum_rate[:-1] >= total + cum_load[:-1]
        hits = stop.nonzero()[0]
        if hits.size:
            support = int(hits[0]) + 1
    level = (total + cum_load[support - 1]) / cum_rate[support - 1]
    amounts = np.zeros(m)
    # Clip float dust: exact arithmetic keeps these strictly positive.
    amounts[order[:support]] = np.maximum(
        sorted_rates[:support] * (level - sorted_heights[:support]), 0.0
    )
    return amounts, float(base + level), support, order


def _water_fill_rows(totals, rates: np.ndarray, levels: np.ndarray):
    # ``_water_fill`` on each row of a (B, m) ``levels``, with ``totals`` a
    # scalar or one total per row. The same operations in the same order per
    # row, so every row gives the same bits as the 1-D kernel: one flat
    # gather puts each row in sorted order, and one flat scatter puts the
    # amounts back. Returns ``(amounts, level, support, order)`` with a
    # leading axis of B.
    count, m = levels.shape
    order = np.argsort(levels, axis=-1, kind="stable")
    flat = (order + m * np.arange(count)[:, None]).ravel()
    sorted_levels = levels.ravel()[flat].reshape(count, m)
    base = sorted_levels[:, 0]
    sorted_heights = sorted_levels - base[:, None]
    sorted_rates = rates[order]
    cum_rate = np.cumsum(sorted_rates, axis=-1)
    cum_load = np.cumsum(sorted_rates * sorted_heights, axis=-1)
    total = np.reshape(totals, (-1, 1))
    # The last channel always stops the fill, so the first stop is the support.
    stop = np.ones(levels.shape, dtype=bool)
    stop[:, :-1] = sorted_heights[:, 1:] * cum_rate[:, :-1] >= total + cum_load[:, :-1]
    support = stop.argmax(axis=-1) + 1
    last = np.arange(count), support - 1
    level = (total[:, 0] + cum_load[last]) / cum_rate[last]
    sorted_amounts = np.maximum(sorted_rates * (level[:, None] - sorted_heights), 0.0)
    sorted_amounts[np.arange(m) >= support[:, None]] = 0.0
    amounts = np.empty(count * m)
    amounts[flat] = sorted_amounts.ravel()
    return amounts.reshape(count, m), base + level, support, order


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


def best_response(inst: Instance, i: int, effective_loads) -> BestResponseResult:
    """Cost-minimizing split for player ``i`` against fixed queue work.

    ``effective_loads`` is the work already committed to each server from
    the player's point of view: initial loads plus all other players' shares
    in the one-shot game, or the observed state in the stepped game. The
    result is the unique minimizer of the player's wait time over the
    simplex.
    """
    i = _check_player(inst, i)
    eff = _per_server(inst, effective_loads, "effective loads")
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
    # support, order)`` batched like ``loads``. One row keeps the 1-D kernel,
    # which the static pass calls once per fill (361 times on
    # ``scaled_equilibrium`` at seed 1): a (1, m) row costs 3.1x as much
    # through ``_water_fill_rows`` at m=8 and m=50 (45.6 vs 14.8 and 47.5 vs
    # 15.3 us) and 2.0x at m=500 (62.5 vs 31.5 us); medians of 25
    # interleaved runs, 2-core Xeon, numpy 2.4, shared host.
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
    any strictly positive profile (the default is uniform, built as a raw
    array), one full pass lands on a pure equilibrium.

    Returns ``(profile, potentials)`` with the potential value recorded
    after each update; the sequence never increases.

    From uniform rows (the default, or an ``initial`` whose every entry is
    exactly 1/m) the pass water-fills only on the turns where a server
    joins the filled set, at most min(n, m + 1) times, and gives every
    other update its closed-form row: O(min(n, m)·m log m + n·m). From any
    other start it costs O(n·m log m): one water-fill per update, applied
    to running per-server totals of the players' work as a delta. Either way,
    the queues after each update are priced a block of ``_blocks`` rows at
    a time, every row with the bits of a potential summed alone. Drift
    guard: at the end, the queues are summed afresh from the final
    profile, and a gap above 1e-9 of the largest raises ``RuntimeError``.
    A potential that is not finite, because the instance's magnitudes
    overflow float64, raises ``ValueError``.
    """
    n, m = inst.num_players, inst.num_servers
    if initial is not None:
        _check_profile(inst, initial)
    order = list(range(n)) if order is None else [_integer(i, "order entry") for i in order]
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all player indices")
    loads, rates = inst.initial_loads, inst.service_rates
    potentials = []
    if initial is None or np.all(initial.matrix == 1.0 / m):
        matrix = np.full((n, m), 1.0 / m)
        queued, filled = np.empty((_block_steps(1, m), m)), 0
        for _, base, slope, _, removed in _from_uniform(inst, loads[None], matrix[None], order):
            while removed.size:
                rows = queued[filled : filled + removed.size]
                np.multiply(slope[0], removed[: len(rows), None], out=rows)
                rows += base[0]
                filled, removed = filled + len(rows), removed[len(rows) :]
                if filled == len(queued):
                    potentials += _potential_of(queued, rates).tolist()
                    filled = 0
        potentials += _potential_of(queued[:filled], rates).tolist()
        return ActionProfile._taking(matrix), _finite(potentials, "potential")
    matrix = initial.matrix.copy()
    updates = _pass(inst, loads, matrix, order)
    blocks = list(_blocks(n, 1, m))
    queued = np.empty((blocks[0][1], m))
    for start, stop in blocks:
        block = queued[: stop - start]
        # ``zip`` stops on the block's end before it asks for another update.
        for row, totals in zip(block, updates):
            np.add(loads, totals, out=row)
        potentials += _potential_of(block, rates).tolist()
    for _ in updates:  # runs the drift guard
        pass
    return ActionProfile._taking(matrix), _finite(potentials, "potential")


def _pass(inst: Instance, loads: np.ndarray, matrix: np.ndarray, order):
    # In-turn updates of the (n, m) ``matrix`` in place against the m queued
    # ``loads``, from any start. Keeps the running per-server totals of the
    # players' work and yields them after each update; checks them for
    # drift at the end. Only lambda and mu are read from ``inst``. Every
    # update reuses the same two buffers.
    lengths, rates = inst.job_lengths, inst.service_rates
    totals = _work(lengths, matrix)
    mine, effective = np.empty_like(totals), np.empty_like(totals)
    for i in order:
        length, row = lengths[i], matrix[i]
        np.multiply(length, row, out=mine)
        # ``loads + (totals - mine)``, clamped: cancellation can leave -1e-16
        # where the other players hold nothing, and the water-fill needs
        # nonnegative loads.
        np.subtract(totals, mine, out=effective)
        np.add(loads, effective, out=effective)
        np.maximum(effective, 0.0, out=effective)
        fractions = _respond(length, rates, effective)[0]
        row[...] = fractions
        # ``totals += length * fractions - mine`` on the fresh fractions.
        fractions *= length
        fractions -= mine
        totals += fractions
        yield totals
    _check_drift(totals, _work(lengths, matrix))


def _from_uniform(inst: Instance, loads: np.ndarray, matrix: np.ndarray, order):
    # In-turn updates from uniform rows of a (B, n, m) batch of games in
    # place, one game per row of the (B, m) queued ``loads``. After a
    # water-fill, the servers it fills (the pool) share one level L, and a
    # player whose row is still uniform, 1/m of its job on every server,
    # best-responds with the same row, (1 + alpha*mu_j)/m on the pool with
    # alpha = (m - |pool|)/mu(pool), until a server outside drops to the
    # pool's level. As the uniform work D since the fill leaves, the pool's
    # queues are mu_j*L + mu_j*alpha*D and every other one is q_j - D, so
    # server j joins once D passes theta_j = (q_j - mu_j*L)/(1 + alpha*mu_j):
    # one ``searchsorted`` on the cumulative shares finds that turn, which
    # water-fills afresh. The pool only grows, so a game fills at most
    # m + 1 times. The games go in lockstep, one fill per game each time,
    # and every decision is made on the game's own row, so a game has the
    # bits it has alone. Yields ``(games, base, slope, span, removed)``
    # after each fill of the games still playing: for ``games[k]``, the
    # queues after the fill's turn and each of the ``span[k]`` - 1 turns
    # before its next fill are ``base[k] + slope[k] * D``, with D its next
    # ``span[k]`` values of ``removed``, game after game. Checks each game's
    # final queues for drift at the end.
    lengths, rates = inst.job_lengths, inst.service_rates
    count, n, m = matrix.shape
    players = np.asarray(order)
    shares = lengths[players] / m
    cum = np.concatenate(([0.0], shares.cumsum()))
    games, turn = np.arange(count), np.zeros(count, dtype=int)
    queued, final = loads + cum[-1], np.empty_like(loads)
    while games.size:
        i, first = players[turn], turn + 1
        effective = queued - shares[turn, None]
        np.maximum(effective, 0.0, out=effective)
        if games.size == 1:  # the 1-D kernel costs half as much on one row
            fill = [np.asarray(x)[None] for x in _respond(lengths[i[0]], rates, effective[0])]
        else:
            fill = _respond(lengths[i, None], rates, effective)
        fractions, level, support, ranked = fill
        pool = np.zeros(effective.shape, dtype=bool)
        pool[np.arange(games.size)[:, None], ranked] = np.arange(m) < support[:, None]
        alpha = ((m - support) / np.where(pool, rates, 0.0).sum(-1))[:, None]
        rise, lifted = alpha * rates, rates * level[:, None]
        grow = 1.0 + rise
        theta = (effective - lifted) / grow
        theta[pool] = np.inf
        start = cum[first]
        # Where rounding leaves a join undecided, the next fill decides it.
        stop = np.searchsorted(cum, start + theta.min(-1), "right") - 1
        stop = np.minimum(np.maximum(stop, first), n)
        rows = np.where(pool, grow / m, 0.0)
        base, slope = np.where(pool, lifted, effective), np.where(pool, rise, -1.0)
        # Each game's turns from its fill to the next take its row; one game
        # takes them as one slice, a batch as (owner, turn) pairs.
        span = stop - turn
        if games.size == 1:
            matrix[games[0], players[turn[0] : stop[0]]] = rows[0]
            removed = cum[turn[0] + 1 : stop[0] + 1] - start[0]
        else:
            owner = np.repeat(np.arange(games.size), span)
            at = np.arange(owner.size) + np.repeat(turn - (span.cumsum() - span), span)
            for a, b in _blocks(owner.size, 1, m):
                matrix[games[owner[a:b]], players[at[a:b]]] = rows[owner[a:b]]
            removed = cum[at + 1] - start[owner]
        matrix[games, i] = fractions
        yield games, base, slope, span, removed
        queued = base + slope * (cum[stop] - start)[:, None]
        done = stop == n
        if done.any():
            final[games[done]] = queued[done]
            games, stop, queued = games[~done], stop[~done], queued[~done]
        turn = stop
    _check_drift(final, loads + _work(lengths, matrix))


def _check_drift(kept: np.ndarray, fresh: np.ndarray) -> None:
    # The drift guard: each game's (row's) kept per-server sums within 1e-9
    # of its largest sum afresh.
    drift = np.max(np.abs(kept - fresh), axis=-1)
    if not np.all(drift <= 1e-9 * np.max(fresh, axis=-1)):
        raise RuntimeError(f"running server totals drifted by {np.max(drift):.3e} over the pass")


# The largest first-order gap :func:`is_nash` accepts, relative to the
# player's own cost.
_NASH_TOLERANCE = 1e-8


class NashCheck(NamedTuple):
    """:func:`is_nash`'s verdict and largest gap, a bound on any player's gain."""

    is_equilibrium: bool
    max_improvement: float


def is_nash(inst: Instance, profile: ActionProfile) -> NashCheck:
    """Whether each player's first-order gap is within 1e-8 of its own
    cost, a verdict that does not depend on units. Costs O(n·m).

    Cost is convex in a player's own work, with the normalized loads as
    gradient, so the gap (its work times each used server's height above
    the lowest level) bounds its gain from moving alone and is 0 exactly at
    an equilibrium. Pricing holds one block of players beside the
    profile (:func:`player_costs`), and each gap is the player's job
    length times its row's product with the heights, so the check forms
    no (n, m) array. Float64 overflow raises ValueError.
    """
    return _nash(inst, profile)[0]


def _nash(inst: Instance, profile: ActionProfile):
    # ``is_nash``'s check and the player costs it was judged against.
    costs = player_costs(inst, profile)
    levels = normalized_loads(inst, profile)
    row_heights = np.einsum("ij,j->i", profile.matrix, levels - levels.min())
    gaps = _finite(inst.job_lengths * row_heights, "equilibrium gap")
    return NashCheck(bool(np.all(gaps <= _NASH_TOLERANCE * costs)), float(gaps.max())), costs


def poa_upper_bound(inst: Instance) -> float:
    """Analytic cap on how much selfish splitting can cost relative to the
    coordinated optimum. Falls back to 3 when all queues start empty."""
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
    rates = inst.service_rates
    amounts = _water_fill(inst.total_job_length, rates, inst.initial_loads / rates)[0]
    bound = float(np.sum((amounts**2 / 2.0 + inst.initial_loads * amounts) / rates))
    return _finite(bound, "optimum bound")


def empirical_poa(inst: Instance, ne_profile: ActionProfile) -> float:
    """Ratio of a given equilibrium's social cost to the optimum lower bound.

    The profile must pass :func:`is_nash`, or ``ValueError`` is raised, as
    it is for a bound that overflows or underflows float64. Conservative:
    never smaller than the true inefficiency ratio of that equilibrium,
    and always below :func:`poa_upper_bound`.
    """
    cost, bound = _poa(inst, ne_profile)
    return cost / bound


def _poa(inst: Instance, ne_profile: ActionProfile) -> tuple[float, float]:
    # ``empirical_poa``'s equilibrium check, then the social cost (with the
    # bits of ``social_cost``, from the costs already priced) and the bound.
    check, costs = _nash(inst, ne_profile)
    if not check.is_equilibrium:
        raise ValueError(
            "profile fails the equilibrium check: a unilateral move improves "
            f"some cost by up to {check.max_improvement:.3e}"
        )
    cost = _finite(float(costs.sum()), "social cost")
    return cost, _nonzero(opt_lower_bound(inst), "optimum bound")
