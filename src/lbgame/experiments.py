"""Benchmark settings catalog, seeded instance generation, experiment
harness, and machine-readable trace export.

Traces are written as CSV or JSON-lines with full double precision so that
repeated seeded runs produce byte-identical files. A JSON manifest with the
setting parameters, seed, and code version is written alongside each trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
from .model import ActionProfile, Instance
from .static import is_nash, run_sequential_pass

MODE_STATIC = "static"

# Draws generate_instance makes before it gives up on a recipe.
_ATTEMPTS = 100


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for sampling an instance: sizes and uniform ranges."""

    num_players: int
    num_servers: int
    service_rate_range: tuple[float, float]
    job_length_range: tuple[float, float]
    initial_load_range: tuple[float, float]

    def __post_init__(self):
        if self.num_players < 1 or self.num_servers < 1:
            raise ValueError("generator sizes must be positive")
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
            if mode not in (MODE_STATIC, MODE_SEQUENTIAL, MODE_SIMULTANEOUS):
                raise ValueError(f"unknown mode: {mode!r}")


_ALL_MODES = (MODE_STATIC, MODE_SEQUENTIAL, MODE_SIMULTANEOUS)
# Settings whose sampled total job mass exceeds the total service rate run
# without the simultaneous mode: that mode's stability condition cannot hold.
_NO_SIMULTANEOUS = (MODE_STATIC, MODE_SEQUENTIAL)


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
    catalog = _catalog()
    try:
        return catalog[int(setting_id)]
    except (KeyError, TypeError, ValueError):
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
    if seed is None:
        raise ValueError("a seed is required to generate an instance")
    modes = (MODE_SEQUENTIAL, MODE_SIMULTANEOUS) if require_simultaneous else (MODE_SEQUENTIAL,)
    rng = np.random.default_rng(int(seed))
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
    """Everything one experiment produced, keyed by mode."""

    setting_id: int | str
    seed: int
    instance: Instance
    static: StaticPassResult | None = None
    sequential: DynamicRun | None = None
    simultaneous: DynamicRun | None = None

    @property
    def runs(self) -> dict[str, DynamicRun]:
        runs = {MODE_SEQUENTIAL: self.sequential, MODE_SIMULTANEOUS: self.simultaneous}
        return {mode: run for mode, run in runs.items() if run is not None}


def _run_static(inst: Instance) -> StaticPassResult:
    profile, potentials = run_sequential_pass(inst)
    return StaticPassResult(profile, tuple(potentials), *is_nash(inst, profile))


def run_experiment(
    setting: SettingSpec,
    seed: int = 0,
    max_steps: int | None = None,
    modes: tuple[str, ...] | None = None,
) -> ExperimentReport:
    """Run the setting's modes and collect the results.

    The sequential run draws its arrival order from ``seed``; everything
    else is deterministic given the instance.
    """
    if modes is None:
        modes = setting.modes
    for mode in modes:
        if mode not in setting.modes:
            raise ValueError(f"setting {setting.id} does not support mode {mode!r}")
    inst = setting_instance(setting, seed)

    def run_mode(mode: str):
        if mode == MODE_STATIC:
            return _run_static(inst)
        if mode == MODE_SEQUENTIAL:
            cfg = DynamicRun(
                inst, MODE_SEQUENTIAL, order="random", seed=seed, max_steps=max_steps
            )
            return run_sequential(cfg)
        cfg = DynamicRun(inst, MODE_SIMULTANEOUS, max_steps=max_steps)
        return run_simultaneous(cfg)

    results = {mode: run_mode(mode) for mode in modes}
    return ExperimentReport(
        setting_id=setting.id,
        seed=seed,
        instance=inst,
        static=results.get(MODE_STATIC),
        sequential=results.get(MODE_SEQUENTIAL),
        simultaneous=results.get(MODE_SIMULTANEOUS),
    )


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
    children = np.random.SeedSequence(seed).spawn(len(player_counts) * len(server_counts))
    grid = np.empty((len(player_counts), len(server_counts)), dtype=int)
    k = 0
    for a, n in enumerate(player_counts):
        for b, m in enumerate(server_counts):
            cell_seed = int(children[k].generate_state(1, np.uint64)[0])
            k += 1
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


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest string that parses back exactly.
    return repr(float(x))


def _steps(trace: Trace):
    # Per step, the columns' Python values under the JSON-lines keys, one
    # row at a time: a whole column as Python floats takes 4x its bytes.
    for t, after in enumerate(trace.loads[1:]):
        yield dict(
            t=t, arrivals=trace.arrivals[t].tolist(), actions=trace.fractions[t].tolist(),
            loads_before=trace.loads[t].tolist(), loads_after=after.tolist(),
            instantaneous_costs=trace.costs[t].tolist(), total_load=float(after.sum()),
        )


def write_trace_csv(runs: dict[str, DynamicRun], path) -> Path:
    """One CSV row per step: loads after the drain, the step's cost, and a
    converged flag. The arriving player is -1 for simultaneous steps."""
    path = Path(path)
    num_servers = next(iter(runs.values())).inst.num_servers
    header = (
        ["step", "mode", "arriving_player"]
        + [f"s_{j + 1}" for j in range(num_servers)]
        + ["total_load", "cost", "converged_flag"]
    )
    lines = [",".join(header)]
    for mode, run in runs.items():
        for step in _steps(run.trace):
            arriving = step["arrivals"][0] if mode == MODE_SEQUENTIAL else -1
            converged = str(int(run.converged_at is not None and step["t"] >= run.converged_at))
            row = [str(step["t"]), mode, str(arriving)] + [_fmt(s) for s in step["loads_after"]]
            row += [_fmt(step["total_load"]), _fmt(sum(step["instantaneous_costs"])), converged]
            lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_trace_jsonl(runs: dict[str, DynamicRun], path) -> Path:
    """One JSON object per step, mirroring the step records losslessly."""
    path = Path(path)
    lines = []
    for mode, run in runs.items():
        lines += (json.dumps({"mode": mode, **step}) for step in _steps(run.trace))
    path.write_text("\n".join(lines) + "\n")
    return path


def load_trace_jsonl(path) -> dict[str, Trace]:
    """Read back a JSON-lines trace as one :class:`Trace` per mode. Raises
    ``ValueError`` where a line's ``loads_before`` is not the previous
    line's ``loads_after``: the steps of a mode must chain."""
    grouped: dict[str, tuple[list, ...]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        columns = grouped.setdefault(obj["mode"], ([], [], [obj["loads_before"]], []))
        if obj["loads_before"] != columns[2][-1]:
            raise ValueError(f"{obj['mode']} step {obj['t']} does not start where the last ended")
        for col, key in zip(columns, ("arrivals", "actions", "loads_after", "instantaneous_costs")):
            col.append(obj[key])
    return {mode: Trace(*columns) for mode, columns in grouped.items()}


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
    if fmt == "csv":
        out = write_trace_csv(report.runs, path)
    elif fmt == "jsonl":
        out = write_trace_jsonl(report.runs, path)
    else:
        raise ValueError(f"unknown trace format: {fmt!r}")
    manifest = Path(str(out) + ".manifest.json")
    manifest.write_text(json.dumps(_manifest_payload(report), sort_keys=True, indent=2) + "\n")
    return out
