"""Stepped game engine with queue carryover.

Jobs arrive over discrete steps, either one player at a time or all players
at once. The arriving player observes the server queues, plays the
closed-form best response to them, and the queues then drain one step.
Under the stability condition, every queue reaches exactly zero in a
bounded number of steps and stays there; from then on each job is split in
proportion to the service rates.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .model import Action, InfeasibleError, Instance, ServerLoads, _Record
from .model import _BLOCK, _blocks, _check_player, _finite, _integer, _nonzero
from .model import _queues, _rows_on_simplex, _wait
from .static import _pass, _respond

ORDER_ROUND_ROBIN = "round-robin"
ORDER_RANDOM = "random"

MODE_SEQUENTIAL = "sequential"
MODE_SIMULTANEOUS = "simultaneous"

# Largest trace a run may hold, counted in values over all columns.
_MAX_TRACE_VALUES = 2**26


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
    checked once; an integer index builds a :class:`StepRecord` view.

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

    def __getitem__(self, t):
        if isinstance(t, slice):
            raise TypeError("a trace is indexed by one step, not a slice")
        t = range(len(self))[_integer(t, "step index")]
        before, after = (ServerLoads(row) for row in self.loads[t : t + 2])
        actions = tuple(Action(row) for row in self.fractions[t])
        arrivals, costs = tuple(self.arrivals[t].tolist()), tuple(self.costs[t].tolist())
        return StepRecord(t, arrivals, actions, before, after, costs, after.total)


@dataclass(frozen=True, eq=False)
class DynamicRun:
    """Configuration plus (once run) the trace of a stepped game. The last
    two fields are outputs, which only running the run sets.

    mode            "sequential" (one arrival per step) or "simultaneous"
    order           "round-robin", "random" (driven by ``seed``), or an
                    explicit sequence of player indices, cycled if shorter
                    than the horizon
    max_steps       horizon cap; defaults to 10x the analytic zero-load
                    bound of the run's mode so a run always terminates. A
                    horizon whose trace could exceed 2**26 values is refused
    seed            seed of the random order, a nonnegative integer
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
    trace: Trace = field(init=False)
    converged_at: int | None = field(init=False, default=None)

    def __post_init__(self):
        inst = self.inst
        if self.mode not in (MODE_SEQUENTIAL, MODE_SIMULTANEOUS):
            raise ValueError(f"unknown mode: {self.mode!r}")
        drain = _stable(inst, self.mode, f"infeasible under {self.mode} updates")
        if isinstance(self.order, str):
            if self.order not in (ORDER_ROUND_ROBIN, ORDER_RANDOM):
                raise ValueError(f"unknown order policy: {self.order!r}")
        else:
            seq = tuple(_check_player(inst, i, "explicit order entry") for i in self.order)
            if not seq:
                raise ValueError("explicit order sequence must not be empty")
            object.__setattr__(self, "order", seq)
        if self.max_steps is None:
            object.__setattr__(self, "max_steps", max(2, 10 * zero_load_time(drain)))
        for name, least in (("max_steps", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        k, m = (1 if self.mode == MODE_SEQUENTIAL else inst.num_players), inst.num_servers
        values = self.max_steps * (k * m + m + 2 * k)
        if values > _MAX_TRACE_VALUES:
            raise ValueError(
                f"horizon of {self.max_steps} steps could hold {values} trace values, "
                f"over the limit of {_MAX_TRACE_VALUES}; pass a smaller max_steps"
            )
        empty = np.zeros((0, k))
        trace = Trace(empty, np.zeros((0, k, m)), inst.initial_loads[None], empty)
        object.__setattr__(self, "trace", trace)


def _settle(inst: Instance, observed: np.ndarray, arrivals: np.ndarray):
    # Every step's splits and waits from the (T, m) queues each step
    # observed and the (T, k) arrivals: one arrival best-responds to its
    # queues, and n arrivals settle by one in-turn pass from uniform rows
    # over all T rounds at once (with one player the two agree). The rest
    # runs in ``_blocks``.
    (steps, k), m, rates = arrivals.shape, inst.num_servers, inst.service_rates
    fractions, costs = np.full((steps, k, m), 1.0 / m), np.empty((steps, k))
    if k > 1:
        for _ in _pass(inst, observed, fractions, range(k)):
            pass
    for start, stop in _blocks(steps, k, m):
        block = slice(start, stop)
        queues, lengths = observed[block], inst.job_lengths[arrivals[block], None]
        if k == 1:
            fractions[block, 0] = _respond(lengths[:, 0], rates, queues)[0]
        costs[block] = _wait(lengths * fractions[block], queues[:, None] / rates, rates)
    return fractions, costs


def _arrivals(run: DynamicRun):
    # Each step's arriving player, worked out ``_BLOCK`` steps at a time: a
    # block of random draws takes the same values from ``rng`` as one draw
    # per step. A simultaneous run steps its merged player 0.
    n, rng = run.inst.num_players, np.random.default_rng(run.seed)
    for start in range(0, run.max_steps, _BLOCK):
        steps = np.arange(start, min(start + _BLOCK, run.max_steps))
        if run.mode == MODE_SIMULTANEOUS:
            block = np.zeros_like(steps)
        elif run.order == ORDER_RANDOM:
            block = rng.integers(n, size=steps.size)
        elif run.order == ORDER_ROUND_ROBIN:
            block = steps % n
        else:
            block = np.asarray(run.order)[steps % len(run.order)]
        yield from block.tolist()


def _play(run: DynamicRun, mode: str) -> DynamicRun:
    # The one stepping loop keeps only the arrivals and the loads: each step
    # one arrival best-responds to the queues, which then drain, on Python
    # floats. A simultaneous run steps the merged one-player instance, whose
    # drain is every round's. ``_settle`` then prices all steps from the
    # loads they observed, and one ``Trace`` checks the columns without
    # copying them. They go on a shallow copy of ``run``, so its
    # configuration is not checked, nor its trace built, again.
    if run.mode != mode:
        raise ValueError(f"run config mode must be {mode!r}")
    inst = _drain_instance(run.inst, mode)
    lengths, rates = inst.job_lengths.tolist(), inst.service_rates.tolist()
    arrivals, loads, candidate = [], [inst.initial_loads.tolist()], None
    for t, i in enumerate(_arrivals(run)):
        loads.append(_float_step(lengths[i], rates, loads[-1]))
        arrivals.append(i)
        if any(loads[-1]):
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
    done = copy.copy(run)
    vars(done).update(trace=Trace(arrivals, fractions, loads, costs), converged_at=candidate)
    return done


def _float_step(length: float, rates: list, loads: list) -> list:
    # One drain step on lists of Python floats: a job of ``length``
    # best-responds to ``loads``, which then drain. The same IEEE operations
    # in the same order as ``_water_fill``, ``_respond`` and ``_drain``, so
    # every bit agrees with ``_drain(loads, length * _respond(...)[0],
    # rates)`` on arrays. The stable sort breaks ties by index, like
    # ``argsort(kind="stable")``; the running sums are the cumulative ones
    # up to the first server that stops the fill; ``x if x >= 0.0 else 0.0``
    # is ``max(x, 0.0)`` without the call.
    levels = list(map(operator.truediv, loads, rates))
    order = sorted(range(len(levels)), key=levels.__getitem__)
    base = levels[order[0]]
    cum_rate = cum_load = 0.0
    for support, j in enumerate(order):
        height = levels[j] - base
        if support and height * cum_rate >= length + cum_load:
            break
        rate = rates[j]
        cum_rate += rate
        cum_load += rate * height
    else:
        support = len(order)
    level = (length + cum_load) / cum_rate
    after = [x if x >= 0.0 else 0.0 for x in map(operator.sub, loads, rates)]
    for j in order[:support]:
        rate = rates[j]
        amount = rate * (level - (levels[j] - base))
        x = loads[j] + length * ((amount if amount >= 0.0 else 0.0) / length) - rate
        after[j] = x if x >= 0.0 else 0.0
    return after


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
    lead = np.max(np.ceil(inst.initial_loads / inst.service_rates))
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
    the slowest server emptying what little it still holds. A decrease that
    underflows float64 to 0 raises ``ValueError``.
    """
    _stable(inst, MODE_SEQUENTIAL, "infeasible for the alternative bound")
    slowest = inst.min_service_rate
    decreases = [inst.total_service_rate - inst.max_job_length, slowest]
    if inst.num_servers > 1:
        decreases.append(
            slowest * inst.min_job_length / (inst.total_service_rate - slowest)
        )
    backlog = float(inst.initial_loads.sum())
    drain = _nonzero(min(decreases), "the alternative bound's smallest decrease")
    return math.ceil(_finite(backlog / drain, "the alternative bound"))

