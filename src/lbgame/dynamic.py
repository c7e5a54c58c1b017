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

from .model import Action, ActionProfile, InfeasibleError, Instance, ServerLoads
from .model import _check_player, _finite, _wait
from .static import _effective_loads, _pass, _respond

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
class Trace:
    """A run's history as columns over T steps of k arrivals on m servers:
    ``arrivals`` and ``costs`` (T, k), ``fractions`` (T, k, m), and ``loads``
    (T+1, m), the start state then the state after each drain. The run is
    checked once; indexing builds :class:`StepRecord` views on demand."""

    arrivals: np.ndarray
    fractions: np.ndarray
    loads: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        fractions, loads = np.asarray(self.fractions, float), np.asarray(self.loads, float)
        steps, k, m = fractions.shape
        arrivals, costs = np.array(self.arrivals, int), np.array(self.costs, float)
        _finite(costs, "trace cost")
        if (arrivals.shape, costs.shape, loads.shape) != ((steps, k), (steps, k), (steps + 1, m)):
            raise ValueError("trace columns disagree on the steps, arrivals or servers")
        arrivals.flags.writeable = costs.flags.writeable = False
        fractions = ActionProfile(fractions.reshape(-1, m)).matrix.reshape(fractions.shape)
        loads = ServerLoads(loads.ravel()).loads.reshape(loads.shape)
        for name, column in zip(vars(self), (arrivals, fractions, loads, costs)):
            object.__setattr__(self, name, column)

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

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))


@dataclass(frozen=True, eq=False)
class DynamicRun:
    """Configuration plus (once run) the trace of a stepped game.

    mode            "sequential" (one arrival per step) or "simultaneous"
    order           "round-robin", "random" (driven by ``seed``), or an
                    explicit sequence of player indices, cycled if shorter
                    than the horizon
    max_steps       horizon cap; defaults to 10x the analytic zero-load
                    bound so a run always terminates. A horizon whose trace
                    could exceed 2**26 values is refused
    zero_tolerance  total load at or below this counts as drained; the
                    drain clamp produces exact zeros, so 0.0 is the default
    trace           the run's :class:`Trace`; holds no steps until run
    converged_at    first recorded step after which the total load stayed
                    at or below ``zero_tolerance``
    """

    inst: Instance
    mode: str = MODE_SEQUENTIAL
    order: str | tuple[int, ...] = ORDER_RANDOM
    max_steps: int | None = None
    seed: int = 0
    zero_tolerance: float = 0.0
    trace: Trace | None = None
    converged_at: int | None = None

    def __post_init__(self):
        inst = self.inst
        if inst.num_players < 1:
            raise ValueError("a run needs at least one player")
        if self.mode not in (MODE_SEQUENTIAL, MODE_SIMULTANEOUS):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.mode == MODE_SEQUENTIAL and not inst.feasible_sequential:
            raise InfeasibleError(
                "infeasible under sequential updates: the largest job length "
                "must stay below the total service rate "
                f"({inst.max_job_length!r} >= {inst.total_service_rate!r})"
            )
        if self.mode == MODE_SIMULTANEOUS and not inst.feasible_simultaneous:
            raise InfeasibleError(
                "infeasible under simultaneous updates: the total arrival rate "
                "exceeds the total service rate "
                f"({inst.total_job_length!r} >= {inst.total_service_rate!r})"
            )
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
        if self.zero_tolerance < 0:
            raise ValueError("zero_tolerance must be nonnegative")
        if self.max_steps is None:
            object.__setattr__(self, "max_steps", max(2, 10 * zero_load_time(inst)))
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


def dynamic_step(inst: Instance, loads: ServerLoads, i: int):
    """Player ``i`` arrives, best-responds to the observed queues, and the
    queues drain one step. Returns ``(action, new_loads, cost)``."""
    _check_player(inst, i)
    eff = _effective_loads(loads.loads, inst.num_servers)
    matrix, after, (cost,) = _round(inst, eff, (i,))
    return Action(matrix[0]), ServerLoads(after), cost


def _round(inst: Instance, loads: np.ndarray, arrivals: tuple[int, ...]):
    # Raw kernel of one step in either mode: the ``arrivals`` settle on
    # best responses to the observed ``loads``, each pays its wait against
    # them, and the queues drain. Returns ``(matrix, after, costs)`` with one
    # row and one cost per arrival. A lone arrival plays its best response
    # directly: a pass over it alone lands on the same row at extra cost.
    # Several arrivals must be every player, settled by one update pass.
    lengths, rates = inst.job_lengths, inst.service_rates
    if len(arrivals) == 1:
        (i,) = arrivals
        matrix = _respond(float(lengths[i]), rates, loads)[0][None, :]
        work = lengths[i] * matrix
        incoming = work[0]
    else:
        matrix = np.full((len(arrivals), inst.num_servers), 1.0 / inst.num_servers)
        for _ in _pass(inst, loads, matrix, arrivals):
            pass
        work = lengths[:, None] * matrix
        incoming = lengths @ matrix
    costs = tuple(_wait(row, loads, rates) for row in work)
    return matrix, np.maximum(loads + incoming - rates, 0.0), costs


def _arrival_at(run: DynamicRun, rng, t: int) -> int:
    if run.order == ORDER_ROUND_ROBIN:
        return t % run.inst.num_players
    if run.order == ORDER_RANDOM:
        return int(rng.integers(run.inst.num_players))
    return run.order[t % len(run.order)]


def _play(run: DynamicRun, mode: str) -> DynamicRun:
    # The stepping loop shared by both modes: picks each step's arrivals,
    # plays the raw ``_round`` and appends its arrays to the columns, which
    # one ``Trace`` checks at the end.
    if run.mode != mode:
        raise ValueError(f"run config mode must be {mode!r}")
    everyone = tuple(range(run.inst.num_players))
    rng = np.random.default_rng(run.seed)
    loads = run.inst.initial_loads
    columns: tuple[list, ...] = ([], [], [loads], [])
    candidate: int | None = None
    for t in range(run.max_steps):
        arrivals = (_arrival_at(run, rng, t),) if mode == MODE_SEQUENTIAL else everyone
        matrix, loads, costs = _round(run.inst, loads, arrivals)
        for column, value in zip(columns, (arrivals, matrix, loads, costs)):
            column.append(value)
        total = float(loads.sum())
        if total <= run.zero_tolerance:
            if candidate is None:
                candidate = t
            else:
                break
        else:
            candidate = None
    columns = tuple(map(np.asarray, columns))  # frees the step lists before the check copies
    return replace(run, trace=Trace(*columns), converged_at=candidate)


def run_sequential(run: DynamicRun) -> DynamicRun:
    """Play the one-arrival-per-step dynamics until the queues drain.

    Halts at ``max_steps``, or one confirming step after the total load
    first reaches ``zero_tolerance``. Returns a copy of ``run`` with the
    trace and ``converged_at`` filled in.
    """
    return _play(run, MODE_SEQUENTIAL)


def run_simultaneous(run: DynamicRun) -> DynamicRun:
    """Play the everyone-arrives-each-step dynamics until the queues drain.

    Each round, the players settle on mutually consistent splits for the
    queues they observe: the pure equilibrium of the one-shot game whose
    starting loads are the current state, reached by one in-turn update
    pass. All the equilibrium allocations then hit the queues in a single
    drain step.

    Naive alternatives that react only to the previous round's co-player
    allocations herd onto the same servers and limit-cycle without ever
    draining; the equilibrium round keeps the total backlog shrinking by at
    least the capacity surplus every step.
    """
    return _play(run, MODE_SIMULTANEOUS)


def full_support_time(inst: Instance) -> int:
    """Steps after which every best response must spread over all servers.

    A server that never receives work drains its backlog at full rate, so by
    this step every queue has either emptied (and an empty server always
    gets a share) or already joined the receiving set, which only grows.
    """
    return int(np.max(np.ceil(inst.initial_loads / inst.service_rates), initial=0.0))


def zero_load_time(inst: Instance) -> int:
    """Analytic step bound by which every queue is exactly empty.

    After :func:`full_support_time`, each step removes at least the total
    service rate minus the largest job length from the total backlog.
    """
    if not inst.feasible_sequential:
        raise InfeasibleError(
            "zero-load bound requires the largest job length to stay below "
            f"the total service rate ({inst.max_job_length!r} >= "
            f"{inst.total_service_rate!r})"
        )
    lead = full_support_time(inst)
    backlog = float(inst.initial_loads.sum()) + lead * inst.max_job_length
    drain = inst.total_service_rate - inst.max_job_length
    return math.ceil(lead + backlog / drain)


def zero_load_time_alt(inst: Instance) -> int:
    """Alternative drain-time bound; tighter for some parameter ranges.

    Uses the smallest per-step decrease of the total backlog across the
    possible cases: all servers receiving, only loaded servers receiving, or
    the slowest server emptying what little it still holds.
    """
    if inst.num_players < 1:
        raise ValueError("needs at least one player")
    if not inst.feasible_sequential:
        raise InfeasibleError(
            "alternative bound requires the largest job length to stay below "
            f"the total service rate ({inst.max_job_length!r} >= "
            f"{inst.total_service_rate!r})"
        )
    slowest = inst.min_service_rate
    decreases = [inst.total_service_rate - inst.max_job_length, slowest]
    if inst.num_servers > 1:
        decreases.append(
            slowest * inst.min_job_length / (inst.total_service_rate - slowest)
        )
    backlog = float(inst.initial_loads.sum())
    return math.ceil(backlog / min(decreases))


def running_average_cost(run: DynamicRun, i: int) -> np.ndarray:
    """Running mean of player ``i``'s per-step cost over the trace.

    Steps where the player did not schedule contribute zero. Over a long
    horizon the mean settles at the zero-queue arrival cost scaled by how
    often the player arrives.
    """
    _check_player(run.inst, i)
    costs = np.where(run.trace.arrivals == i, run.trace.costs, 0.0).sum(axis=1)
    return np.cumsum(costs) / np.arange(1, costs.size + 1)


def per_arrival_costs(run: DynamicRun, i: int) -> np.ndarray:
    """The costs player ``i`` actually paid, one entry per arrival."""
    _check_player(run.inst, i)
    return run.trace.costs[run.trace.arrivals == i]
