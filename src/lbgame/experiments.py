"""Benchmark settings catalog, seeded instance generation, experiment
harness, and machine-readable trace export.

Traces are written as CSV or JSON-lines with full double precision so that
repeated seeded runs produce byte-identical files. A JSON manifest with the
setting parameters, seed, and code version is written alongside each trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .dynamic import (
    MODE_SEQUENTIAL,
    MODE_SIMULTANEOUS,
    DynamicRun,
    Trace,
    _stable,
    run_sequential,
    run_simultaneous,
)
from .model import ActionProfile, Instance, _block_steps, _blocks, _integer
from .static import is_nash, run_sequential_pass

MODE_STATIC = "static"

_ALL_MODES = (MODE_STATIC, MODE_SEQUENTIAL, MODE_SIMULTANEOUS)
# Settings whose sampled total job mass exceeds the total service rate run
# without the simultaneous mode: that mode's stability condition cannot hold.
_NO_SIMULTANEOUS = (MODE_STATIC, MODE_SEQUENTIAL)

# Draws generate_instance makes before it gives up on a recipe.
_ATTEMPTS = 100

# The trace formats ``export_trace`` writes, each by ``write_trace_<format>``.
_TRACE_FORMATS = ("csv", "jsonl")


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for sampling an instance: sizes and uniform ranges."""

    num_players: int
    num_servers: int
    service_rate_range: tuple[float, float]
    job_length_range: tuple[float, float]
    initial_load_range: tuple[float, float]

    def __post_init__(self):
        for name in ("num_players", "num_servers"):
            _integer(getattr(self, name), name, 1)
        for name in ("service_rate_range", "job_length_range", "initial_load_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} must satisfy lo <= hi, got ({lo}, {hi})")


@dataclass(frozen=True, eq=False)
class SettingSpec:
    """One catalog entry: either a fixed instance or a generator recipe,
    plus which run modes it supports."""

    id: int | str
    modes: tuple[str, ...]
    instance: Instance | None = None
    generator: GeneratorSpec | None = None
    description: str = ""

    def __post_init__(self):
        if (self.instance is None) == (self.generator is None):
            raise ValueError("a setting needs exactly one of instance or generator")
        for mode in self.modes:
            if mode not in _ALL_MODES:
                raise ValueError(f"unknown mode: {mode!r}")


def _fixed(setting_id, rates, lengths, loads, description):
    return SettingSpec(
        id=setting_id,
        modes=_ALL_MODES,
        instance=Instance(lengths, rates, loads),
        description=description,
    )


def _generated(setting_id, n, m, rate_range, length_range, load_range, modes, description):
    return SettingSpec(
        id=setting_id,
        modes=modes,
        generator=GeneratorSpec(n, m, rate_range, length_range, load_range),
        description=description,
    )


def _catalog() -> dict[int, SettingSpec]:
    return {
        1: _fixed(
            1,
            [1.4, 1.4, 1.2, 0.5, 0.4, 0.3, 0.2, 0.1],
            [1.5, 0.5, 0.3, 0.7, 0.9, 0.1, 0.6, 0.2],
            [10, 10, 1, 10, 20, 20, 10, 1],
            "8 players, 8 heterogeneous servers, mixed backlogs",
        ),
        2: _generated(
            2, 500, 200, (3, 4), (2, 3), (10, 20), _NO_SIMULTANEOUS,
            "500 players, 200 servers, rates U[3,4], jobs U[2,3], backlogs U[10,20]",
        ),
        3: _generated(
            3, 100, 50, (1, 2), (0, 1), (10, 20), _ALL_MODES,
            "100 players, 50 servers, rates U[1,2], jobs U[0,1], backlogs U[10,20]",
        ),
        4: _generated(
            4, 200, 100, (2, 3), (1, 2), (10, 20), _NO_SIMULTANEOUS,
            "200 players, 100 servers, rates U[2,3], jobs U[1,2], backlogs U[10,20]",
        ),
        5: _fixed(
            5,
            [0.9, 0.8, 0.4, 0.01],
            [0.5, 0.5, 0.3, 0.7],
            [10, 10, 1, 0.5],
            "4 players, 4 servers, one near-stalled server",
        ),
        6: _fixed(
            6,
            [1.4, 1.2, 1, 0.5],
            [0.5, 0.5, 0.3, 0.7, 0.9, 0.1, 0.6, 0.2],
            [10, 10, 1, 10],
            "8 players sharing 4 servers",
        ),
        7: _fixed(
            7,
            [2, 2],
            [0.5, 0.5, 0.3, 0.7, 0.9, 0.1, 0.6, 0.2],
            [10, 50],
            "8 players, 2 equal servers, one heavy backlog",
        ),
    }


def builtin_setting(setting_id: int) -> SettingSpec:
    """The benchmark setting with the given id (1 through 7)."""
    try:
        return _catalog()[_integer(setting_id, "setting id")]
    except KeyError:
        raise ValueError(f"unknown setting: {setting_id!r}") from None


def builtin_settings() -> tuple[SettingSpec, ...]:
    return tuple(spec for _, spec in sorted(_catalog().items()))


def generate_instance(
    spec: GeneratorSpec, seed: int | None = None, *, require_simultaneous: bool = False
) -> Instance:
    """Sample an instance from the recipe, deterministically for a seed.

    Re-draws until the instance passes validation and the stability check
    of sequential runs (and of simultaneous ones when requested), and
    fails after 100 tries.
    """
    modes = (MODE_SEQUENTIAL, MODE_SIMULTANEOUS) if require_simultaneous else (MODE_SEQUENTIAL,)
    rng = np.random.default_rng(_integer(seed, "seed", 0))
    for _ in range(_ATTEMPTS):
        rates = rng.uniform(*spec.service_rate_range, spec.num_servers)
        lengths = rng.uniform(*spec.job_length_range, spec.num_players)
        loads = rng.uniform(*spec.initial_load_range, spec.num_servers)
        try:
            inst = Instance(lengths, rates, loads)
            for mode in modes:
                _stable(inst, mode, "generated instance")
        except ValueError:
            continue
        return inst
    raise ValueError(f"could not generate a feasible instance in {_ATTEMPTS} attempts")


def setting_instance(setting: SettingSpec, seed: int | None = None) -> Instance:
    """The setting's fixed instance, or one generated from its recipe."""
    if setting.instance is not None:
        return setting.instance
    return generate_instance(
        setting.generator,
        seed,
        require_simultaneous=MODE_SIMULTANEOUS in setting.modes,
    )


@dataclass(frozen=True, eq=False)
class StaticPassResult:
    """Outcome of one in-turn update pass on the one-shot game, with the
    relative verdict of ``is_nash`` and its bound on any player's gain."""

    profile: ActionProfile
    potentials: tuple[float, ...]
    is_equilibrium: bool
    max_improvement: float


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Everything one experiment produced, keyed by mode. Each run must be
    of its field's mode and played on the report's instance and seed, the
    ones its manifest names."""

    setting_id: int | str
    seed: int
    instance: Instance
    static: StaticPassResult | None = None
    sequential: DynamicRun | None = None
    simultaneous: DynamicRun | None = None

    def __post_init__(self):
        for mode, run in (self.runs and _filed(self.runs)).items():
            if run.inst != self.instance:
                raise ValueError(
                    f"the {mode} run was played on another instance than the report's"
                )
            if run.seed != self.seed:
                raise ValueError(
                    f"the {mode} run was played at seed {run.seed}, "
                    f"not the report's seed {self.seed}"
                )

    @property
    def runs(self) -> dict[str, DynamicRun]:
        runs = {MODE_SEQUENTIAL: self.sequential, MODE_SIMULTANEOUS: self.simultaneous}
        return {mode: run for mode, run in runs.items() if run is not None}


def _run_static(inst: Instance) -> StaticPassResult:
    profile, potentials = run_sequential_pass(inst)
    return StaticPassResult(profile, tuple(potentials), *is_nash(inst, profile))


def _run_dynamic(run: DynamicRun) -> DynamicRun:
    # The one choice of runner for a run's mode.
    return run_sequential(run) if run.mode == MODE_SEQUENTIAL else run_simultaneous(run)


def run_experiment(
    setting: SettingSpec, seed: int = 0, max_steps: int | None = None
) -> ExperimentReport:
    """Run the setting's modes and collect the results.

    The sequential run draws its arrival order from ``seed``; everything
    else is deterministic given the instance.
    """
    inst = setting_instance(setting, seed)
    static = _run_static(inst) if MODE_STATIC in setting.modes else None
    runs = {
        mode: _run_dynamic(DynamicRun(inst, mode, seed=seed, max_steps=max_steps))
        for mode in setting.modes
        if mode != MODE_STATIC
    }
    return ExperimentReport(setting.id, seed, inst, static, **runs)


def convergence_grid(
    player_counts,
    server_counts,
    *,
    service_rate_range: tuple[float, float],
    job_length_range: tuple[float, float],
    initial_load_range: tuple[float, float],
    seed: int = 0,
    max_steps: int | None = None,
) -> np.ndarray:
    """Sequential drain times over a grid of player and server counts.

    Each cell gets its own child seed split off the root seed, so the grid
    is reproducible as a whole and cell by cell. Cells that did not converge
    within the horizon report -1.
    """
    player_counts = list(player_counts)
    server_counts = list(server_counts)
    children = iter(np.random.SeedSequence(seed).spawn(len(player_counts) * len(server_counts)))
    grid = np.empty((len(player_counts), len(server_counts)), dtype=int)
    for a, n in enumerate(player_counts):
        for b, m in enumerate(server_counts):
            cell_seed = int(next(children).generate_state(1, np.uint64)[0])
            spec = GeneratorSpec(
                n, m, service_rate_range, job_length_range, initial_load_range
            )
            inst = generate_instance(spec, cell_seed)
            cfg = DynamicRun(
                inst, MODE_SEQUENTIAL, order="random", seed=cell_seed, max_steps=max_steps
            )
            done = run_sequential(cfg)
            grid[a, b] = -1 if done.converged_at is None else done.converged_at
    return grid


def _rows(values: np.ndarray, sep: str = ",") -> list[str]:
    # Each row of a 2-D block as its values joined by ``sep``. ``repr`` of a
    # Python float is the shortest string that parses back exactly. One
    # ``map`` formats the whole block and ``zip`` deals the texts out in
    # rows, so no Python code runs per row.
    texts = map(repr, values.ravel().tolist())
    return list(map(sep.join, zip(*[texts] * values.shape[1])))


def _filed(runs: dict[str, DynamicRun]) -> dict[str, DynamicRun]:
    # The runs a writer takes: at least one, a key labels the rows its run's
    # mode shapes, and every run has one server count, the width of every row.
    if not runs:
        raise ValueError("no runs to write")
    for mode, run in runs.items():
        if mode != run.mode:
            raise ValueError(f"a {run.mode} run is filed under {mode!r}")
    widths = sorted({run.inst.num_servers for run in runs.values()})
    if len(widths) > 1:
        raise ValueError(f"runs on {widths[0]} and {widths[1]} servers cannot share one trace")
    return runs


def write_trace_csv(runs: dict[str, DynamicRun], path) -> Path:
    """One CSV row per step: loads after the drain, the step's cost, and a
    converged flag. The arriving player is -1 for simultaneous steps.
    Written a block of steps at a time. Each run is filed under its mode."""
    path, runs = Path(path), _filed(runs)
    num_servers = next(iter(runs.values())).inst.num_servers
    header = (
        ["step", "mode", "arriving_player"]
        + [f"s_{j + 1}" for j in range(num_servers)]
        + ["total_load", "cost", "converged_flag"]
    )
    with path.open("w") as out:
        out.write(",".join(header) + "\n")
        for mode, run in runs.items():
            trace, converged = run.trace, run.converged_at
            for start, stop in _blocks(*trace.fractions.shape):
                # C-ordered rows, so numpy sums each like ``row.sum()``.
                after = trace.loads[start + 1 : stop + 1]
                if mode == MODE_SEQUENTIAL:
                    arriving = trace.arrivals[start:stop, 0].tolist()
                else:
                    arriving = [-1] * (stop - start)
                # Python's ``sum`` of each step's costs, as numpy's may round
                # differently.
                costs = map(sum, trace.costs[start:stop].tolist())
                totals = after.sum(axis=1).tolist()
                cells = zip(range(start, stop), arriving, _rows(after), totals, costs)
                out.writelines(
                    f"{t},{mode},{player},{loads},{total!r},{cost!r},"
                    f"{int(converged is not None and t >= converged)}\n"
                    for t, player, loads, total, cost in cells
                )
    return path


def write_trace_jsonl(runs: dict[str, DynamicRun], path) -> Path:
    """One JSON object per step, mirroring the step records losslessly.
    Written a block of steps at a time. Each run is filed under its mode."""
    path, runs = Path(path), _filed(runs)
    written = False
    with path.open("w") as out:
        for mode, run in runs.items():
            trace, name = run.trace, json.dumps(mode)
            k, m = trace.fractions.shape[1:]
            last = _rows(trace.loads[:1], ", ")[0]
            for start, stop in _blocks(*trace.fractions.shape):
                after = trace.loads[start + 1 : stop + 1]
                # Step t's loads_after is step t+1's loads_before: one text
                # each, the last of a block carried to the next.
                afters = _rows(after, ", ")
                befores = chain((last,), afters)
                last = afters[-1]
                # Each step's k rows of fractions, as ``json.dumps`` spaces them.
                players = iter(_rows(trace.fractions[start:stop].reshape(-1, m), ", "))
                actions = map("], [".join, zip(*[players] * k))
                cells = zip(
                    range(start, stop),
                    _rows(trace.arrivals[start:stop], ", "),
                    actions,
                    befores,
                    afters,
                    _rows(trace.costs[start:stop], ", "),
                    # ``json.dumps``'s text for each total, so an overflowed
                    # one reads Infinity. C-ordered rows, so numpy sums each
                    # like ``row.sum()``.
                    json.dumps(after.sum(axis=1).tolist())[1:-1].split(", "),
                )
                out.writelines(
                    f'{{"mode": {name}, "t": {t}, "arrivals": [{arrivals}], '
                    f'"actions": [[{action}]], "loads_before": [{before}], '
                    f'"loads_after": [{after}], "instantaneous_costs": [{costs}], '
                    f'"total_load": {total}}}\n'
                    for t, arrivals, action, before, after, costs, total in cells
                )
                written = True
        if not written:
            # A trace with no steps has always been written as one empty line.
            out.write("\n")
    return path


# The keys of a JSON-lines step that fill the ``Trace`` columns, in order,
# after the mode's start row of loads, and the type each column holds.
_KEYS = ("arrivals", "actions", "loads_after", "instantaneous_costs")
_KINDS = (int, float, float, float)


def load_trace_jsonl(path) -> dict[str, Trace]:
    """Read back a JSON-lines trace as one :class:`Trace` per mode. Raises
    ``ValueError`` where a line's ``loads_before`` is not the previous
    line's ``loads_after``: the steps of a mode must chain. A line that is
    not JSON, not a step object, or lacks one of its fields, raises
    ``ValueError`` naming the line.

    Reads up to a block of steps of one mode at a time (``_blocks`` sizes)
    and keeps each block's columns as arrays."""
    grouped: dict[str, tuple[list, ...]] = {}
    ends: dict[str, list] = {}  # each mode's last loads_after, as read
    mode, block, size = None, (), 0
    with Path(path).open() as lines:
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                name, before, t = obj["mode"], obj["loads_before"], obj["t"]
                values = [obj[key] for key in _KEYS]
                opens = name not in ends
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {number} is not JSON: {exc.msg}") from None
            except KeyError as missing:
                raise ValueError(f"line {number} has no {missing} field") from None
            except TypeError:
                raise ValueError(f"line {number} is not a trace step object") from None
            if opens:
                # A mode's first line starts its chain and its loads column.
                ends[name] = before
                grouped[name] = ([], [], [np.array([before], float)], [])
            if before != ends[name]:
                raise ValueError(f"{name} step {t} does not start where the last ended")
            ends[name] = obj["loads_after"]
            if not block or name != mode or len(block[0]) == size:
                if block:
                    _file_block(grouped[mode], block)
                mode, block, size = name, tuple([] for _ in _KEYS), _block_size(obj)
            for column, value in zip(block, values):
                column.append(value)
    if block:
        _file_block(grouped[mode], block)
    del block  # its values are in the columns now, and its lists can go
    return {
        mode: Trace(*(np.concatenate(blocks) for blocks in columns))
        for mode, columns in grouped.items()
    }


def _block_size(obj: dict) -> int:
    # The ``_blocks`` size of the block a JSON-lines step opens: steps of its
    # k actions on m servers, neither of them none.
    actions, loads = obj["actions"], obj["loads_before"]
    if not (isinstance(actions, list) and isinstance(loads, list) and actions and loads):
        raise ValueError(f"{obj['mode']} step {obj['t']} has no actions or no loads")
    return _block_steps(len(actions), len(loads))


def _file_block(columns: tuple[list, ...], block: tuple[list, ...]) -> None:
    # Appends a block of steps, read as lists by ``_KEYS``, to a mode's
    # ``Trace`` columns as one array each.
    for column, values, kind in zip(columns, block, _KINDS):
        column.append(np.array(values, kind))


def _manifest_payload(report: ExperimentReport) -> dict:
    inst = report.instance
    payload = {
        "setting": report.setting_id,
        "seed": report.seed,
        "code_version": __version__,
        "instance": {
            "mu": inst.service_rates.tolist(),
            "lambda": inst.job_lengths.tolist(),
            "s0": inst.initial_loads.tolist(),
        },
        "converged_at": {
            mode: run.converged_at for mode, run in report.runs.items()
        },
    }
    if report.static is not None:
        payload["static"] = {
            "updates": len(report.static.potentials),
            "is_equilibrium": report.static.is_equilibrium,
        }
    return payload


def export_trace(report: ExperimentReport, path, fmt: str = "csv") -> Path:
    """Write the report's dynamic traces plus a manifest next to them."""
    if not report.runs:
        raise ValueError("report holds no dynamic runs to export")
    if fmt not in _TRACE_FORMATS:
        raise ValueError(f"unknown trace format: {fmt!r}")
    # Looked up at call time, so a writer rebound on this module is the one used.
    out = (write_trace_csv if fmt == "csv" else write_trace_jsonl)(report.runs, path)
    manifest = Path(str(out) + ".manifest.json")
    manifest.write_text(json.dumps(_manifest_payload(report), sort_keys=True, indent=2) + "\n")
    return out
