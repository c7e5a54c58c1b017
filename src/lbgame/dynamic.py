"""Stepped game engine with queue carryover.

Jobs arrive over discrete steps, either one player at a time or all players
at once. The arriving player observes the server queues, plays the
closed-form best response to them, and the queues then drain one step.
Under the stability condition, every queue reaches exactly zero in a
bounded number of steps and stays there; from then on each job is split in
proportion to the service rates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .model import Action, InfeasibleError, Instance, ServerLoads, _Record
from .model import _check_player, _drain, _finite, _per_server, _queues, _rows_on_simplex, _wait
from .static import _pass, _respond

ORDER_ROUND_ROBIN = "round-robin"
ORDER_RANDOM = "random"

MODE_SEQUENTIAL = "sequential"
MODE_SIMULTANEOUS = "simultaneous"

# Largest trace a run may hold, counted in values over all columns.
_MAX_TRACE_VALUES = 2**26

# About how many values ``_settle`` prices at once.
_BLOCK = 2**14


@dataclass(frozen=True)
class StepRecord:
    """One step of a :class:`Trace`, built on demand: who arrived, what they
    played, and the queue loads on both sides of the drain."""

    t: int
    arrivals: tuple[int, ...]
    actions: tuple[Action, ...]
    loads_before: ServerLoads
    loads_after: ServerLoads
    instantaneous_costs: tuple[float, ...]
    total_load: float


@dataclass(frozen=True, eq=False)
class Trace(_Record):
    """A run's history as columns over T steps of k arrivals on m servers:
    ``arrivals`` and ``costs`` (T, k), ``fractions`` (T, k, m), and ``loads``
    (T+1, m), the start state then the state after each drain. The run is
    checked once; indexing builds :class:`StepRecord` views on demand.

    Float64 ndarray columns (and int ``arrivals``) are kept without a copy
    and marked read-only in place; other inputs are converted first."""

    arrivals: np.ndarray
    fractions: np.ndarray
    loads: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        fractions, loads = np.asarray(self.fractions, float), np.asarray(self.loads, float)
        steps, k, m = fractions.shape
        arrivals, costs = np.asarray(self.arrivals, int), np.asarray(self.costs, float)
        _finite(costs, "trace cost")
        if (arrivals.shape, costs.shape, loads.shape) != ((steps, k), (steps, k), (steps + 1, m)):
            raise ValueError("trace columns disagree on the steps, arrivals or servers")
        _rows_on_simplex(_queues(fractions, "trace fractions"), "trace fractions")
        _queues(loads, "trace loads")
        self._set(arrivals=arrivals, fractions=fractions, loads=loads, costs=costs)

    def __len__(self) -> int:
        return len(self.costs)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(self[t] for t in range(len(self))[key])
        t = range(len(self))[key]
        before, after = (ServerLoads(row) for row in self.loads[t : t + 2])
        actions = tuple(Action(row) for row in self.fractions[t])
        arrivals, costs = tuple(self.arrivals[t].tolist()), tuple(self.costs[t].tolist())
        return StepRecord(t, arrivals, actions, before, after, costs, after.total)


@dataclass(frozen=True, eq=False)
class DynamicRun:
    """Configuration plus (once run) the trace of a stepped game.

    mode            "sequential" (one arrival per step) or "simultaneous"
    order           "round-robin", "random" (driven by ``seed``), or an
                    explicit sequence of player indices, cycled if shorter
                    than the horizon
    max_steps       horizon cap; defaults to 10x the analytic zero-load
                    bound of the run's mode so a run always terminates. A
                    horizon whose trace could exceed 2**26 values is refused
    trace           the run's :class:`Trace`, with k arrivals per step on
                    the instance's m servers (k = 1 in sequential and n in
                    simultaneous mode); holds no steps until run
    converged_at    first recorded step after which the total load stayed
                    exactly 0.0, which the drain clamp reaches exactly
    """

    inst: Instance
    mode: str = MODE_SEQUENTIAL
    order: str | tuple[int, ...] = ORDER_RANDOM
    max_steps: int | None = None
    seed: int = 0
    trace: Trace | None = None
    converged_at: int | None = None

    def __post_init__(self):
        inst = self.inst
        if inst.num_players < 1:
            raise ValueError("a run needs at least one player")
        if self.mode not in (MODE_SEQUENTIAL, MODE_SIMULTANEOUS):
            raise ValueError(f"unknown mode: {self.mode!r}")
        drain = _stable(inst, self.mode, f"infeasible under {self.mode} updates")
        if isinstance(self.order, str):
            if self.order not in (ORDER_ROUND_ROBIN, ORDER_RANDOM):
                raise ValueError(f"unknown order policy: {self.order!r}")
        else:
            seq = tuple(int(i) for i in self.order)
            if not seq:
                raise ValueError("explicit order sequence must not be empty")
            for i in seq:
                _check_player(inst, i)
            object.__setattr__(self, "order", seq)
        if self.max_steps is None:
            object.__setattr__(self, "max_steps", max(2, 10 * zero_load_time(drain)))
        else:
            try:
                object.__setattr__(self, "max_steps", operator.index(self.max_steps))
            except TypeError:
                raise ValueError("max_steps must be a positive integer") from None
        if self.max_steps < 1:
            raise ValueError("max_steps must be a positive integer")
        k, m = (1 if self.mode == MODE_SEQUENTIAL else inst.num_players), inst.num_servers
        values = self.max_steps * (k * m + m + 2 * k)
        if values > _MAX_TRACE_VALUES:
            raise ValueError(
                f"horizon of {self.max_steps} steps could hold {values} trace values, "
                f"over the limit of {_MAX_TRACE_VALUES}; pass a smaller max_steps"
            )
        if self.trace is None:
            empty = np.zeros((0, k))
            trace = Trace(empty, np.zeros((0, k, m)), inst.initial_loads[None], empty)
            object.__setattr__(self, "trace", trace)
        elif self.trace.fractions.shape[1:] != (k, m):
            raise ValueError(
                "trace does not fit the run: {} arrivals on {} servers per step, expected {} on {}"
                .format(*self.trace.fractions.shape[1:], k, m)
            )


def dynamic_step(inst: Instance, loads: ServerLoads, i: int):
    """Player ``i`` arrives, best-responds to the observed queues, and the
    queues drain one step. Returns ``(action, new_loads, cost)``."""
    _check_player(inst, i)
    eff = _per_server(inst, loads, "loads")
    length, rates = inst.job_lengths[i], inst.service_rates
    fractions = _respond(float(length), rates, eff)[0]
    work = length * fractions
    return Action(fractions), ServerLoads(_drain(eff, work, rates)), float(_wait(work, eff, rates))


def _settle(inst: Instance, observed: np.ndarray, arrivals: np.ndarray):
    # Every step's splits and waits from the (T, m) queues each step
    # observed and the (T, k) arrivals: one arrival best-responds to its
    # queues, and n arrivals settle by one in-turn pass from uniform rows
    # over all T rounds at once (with one player the two agree). The rest
    # runs in blocks of about ``_BLOCK`` values, bounding the temporaries.
    (steps, k), m, rates = arrivals.shape, inst.num_servers, inst.service_rates
    fractions, costs = np.full((steps, k, m), 1.0 / m), np.empty((steps, k))
    if k > 1:
        for _ in _pass(inst, observed, fractions, range(k)):
            pass
    rows = max(1, _BLOCK // (k * m))
    for start in range(0, steps, rows):
        block = slice(start, start + rows)
        queues, lengths = observed[block], inst.job_lengths[arrivals[block], None]
        if k == 1:
            fractions[block, 0] = _respond(lengths[:, 0], rates, queues)[0]
        costs[block] = _wait(lengths * fractions[block], queues[:, None], rates)
    return fractions, costs


def _arrival_at(run: DynamicRun, rng, t: int) -> int:
    if run.order == ORDER_ROUND_ROBIN:
        return t % run.inst.num_players
    if run.order == ORDER_RANDOM:
        return int(rng.integers(run.inst.num_players))
    return run.order[t % len(run.order)]


def _play(run: DynamicRun, mode: str) -> DynamicRun:
    # The one stepping loop keeps only the arrivals and the loads: each step
    # one arrival best-responds to the queues, which then drain. A
    # simultaneous run steps the merged one-player instance, whose drain is
    # every round's. ``_settle`` then prices all steps from the loads they
    # observed, and one ``Trace`` checks the columns without copying them.
    if run.mode != mode:
        raise ValueError(f"run config mode must be {mode!r}")
    inst = _drain_instance(run.inst, mode)
    lengths, rates = inst.job_lengths, inst.service_rates
    rng = np.random.default_rng(run.seed)
    arrivals, loads, candidate = [], [inst.initial_loads], None
    for t in range(run.max_steps):
        i = _arrival_at(run, rng, t) if mode == MODE_SEQUENTIAL else 0
        work = lengths[i] * _respond(float(lengths[i]), rates, loads[-1])[0]
        loads.append(_drain(loads[-1], work, rates))
        arrivals.append(i)
        if loads[-1].any():
            candidate = None
        elif candidate is None:
            candidate = t
        else:
            break
    loads = np.asarray(loads)
    arrivals = np.asarray(arrivals)[:, None]
    if mode == MODE_SIMULTANEOUS:
        arrivals = np.tile(np.arange(run.inst.num_players), arrivals.shape)
    fractions, costs = _settle(run.inst, loads[:-1], arrivals)
    return replace(run, trace=Trace(arrivals, fractions, loads, costs), converged_at=candidate)


def run_sequential(run: DynamicRun) -> DynamicRun:
    """Play the one-arrival-per-step dynamics until the queues drain.

    Halts at ``max_steps``, or one confirming step after the total load
    first reaches exactly 0.0. Returns a copy of ``run`` with the
    trace and ``converged_at`` filled in.
    """
    return _play(run, MODE_SEQUENTIAL)


def run_simultaneous(run: DynamicRun) -> DynamicRun:
    """Play the everyone-arrives-each-step dynamics until the queues drain.

    Each round, the players settle on mutually consistent splits for the
    queues they observe: the pure equilibrium of the one-shot game whose
    starting loads are the current state, reached by one in-turn update
    pass from uniform rows. All the equilibrium allocations then hit the
    queues in a single drain step. Every such equilibrium places the
    water-fill of the combined job, so the queues are stepped as one player
    holding all the work; the rounds' splits then come from one pass over
    the batch of all rounds, each on its observed queues.

    Naive alternatives that react only to the previous round's co-player
    allocations herd onto the same servers and limit-cycle without ever
    draining; the equilibrium round keeps the total backlog shrinking by at
    least the capacity surplus every step.
    """
    return _play(run, MODE_SIMULTANEOUS)


def _drain_instance(inst: Instance, mode: str) -> Instance:
    # The instance whose drain bounds hold in ``mode``. Every equilibrium of
    # a simultaneous round puts the water-fill of the combined job on the
    # queues, so that mode drains as one player holding all the work.
    if mode == MODE_SIMULTANEOUS:
        return Instance([inst.total_job_length], inst.service_rates, inst.initial_loads)
    return inst


def _stable(inst: Instance, mode: str, what: str) -> Instance:
    # The one stability check: the work one step brings, the largest job of
    # ``mode``'s drain instance (returned), must stay below the total rate.
    drain = _drain_instance(inst, mode)
    if not drain.max_job_length < drain.total_service_rate:
        work = (
            "the total arrival rate exceeds"
            if mode == MODE_SIMULTANEOUS
            else "the largest job length must stay below"
        )
        raise InfeasibleError(
            f"{what}: {work} the total service rate "
            f"({drain.max_job_length!r} >= {drain.total_service_rate!r})"
        )
    return drain


def full_support_time(inst: Instance) -> int:
    """Steps after which every best response must spread over all servers.

    A server that never receives work drains its backlog at full rate, so by
    this step every queue has either emptied (and an empty server always
    gets a share) or already joined the receiving set, which only grows.
    """
    lead = np.max(np.ceil(inst.initial_loads / inst.service_rates), initial=0.0)
    return int(_finite(lead, "the full-support bound"))


def zero_load_time(inst: Instance) -> int:
    """Analytic step bound by which every queue is exactly empty.

    After :func:`full_support_time`, each step removes at least the total
    service rate minus the largest job length from the total backlog.
    """
    _stable(inst, MODE_SEQUENTIAL, "infeasible for the zero-load bound")
    lead = full_support_time(inst)
    backlog = float(inst.initial_loads.sum()) + lead * inst.max_job_length
    drain = inst.total_service_rate - inst.max_job_length
    return math.ceil(_finite(lead + backlog / drain, "the zero-load bound"))


def zero_load_time_alt(inst: Instance) -> int:
    """Alternative drain-time bound; tighter for some parameter ranges.

    Uses the smallest per-step decrease of the total backlog across the
    possible cases: all servers receiving, only loaded servers receiving, or
    the slowest server emptying what little it still holds.
    """
    if inst.num_players < 1:
        raise ValueError("needs at least one player")
    _stable(inst, MODE_SEQUENTIAL, "infeasible for the alternative bound")
    slowest = inst.min_service_rate
    decreases = [inst.total_service_rate - inst.max_job_length, slowest]
    if inst.num_servers > 1:
        decreases.append(
            slowest * inst.min_job_length / (inst.total_service_rate - slowest)
        )
    backlog = float(inst.initial_loads.sum())
    return math.ceil(_finite(backlog / min(decreases), "the alternative bound"))

