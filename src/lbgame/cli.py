"""Command-line frontend.

Subcommands: ``static`` (one-pass equilibrium), ``dynamic`` (stepped run
with drain-time bounds), ``poa`` (efficiency bounds), and ``settings``
(benchmark catalog). Instances come from a builtin setting or a JSON config
file; command-line flags override config fields. Summaries go to stdout,
traces only to files, and every failure is a single line on stderr.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
from pathlib import Path

import numpy as np

from .dynamic import (
    MODE_SEQUENTIAL,
    MODE_SIMULTANEOUS,
    DynamicRun,
    _drain_instance,
    full_support_time,
    run_sequential,
    run_simultaneous,
    zero_load_time,
    zero_load_time_alt,
)
from .experiments import (
    ExperimentReport,
    _fmt,
    _run_static,
    builtin_setting,
    builtin_settings,
    export_trace,
    run_experiment,
    setting_instance,
)
from .model import InfeasibleError, Instance, social_cost
from .static import empirical_poa, opt_lower_bound, poa_upper_bound, run_sequential_pass


class ConfigError(ValueError):
    """A config file failed validation; the message names the offending key."""


_CONFIG_KEYS = {
    "instance": ("mu", "lambda", "s0"),
    "run": ("mode", "order", "seed", "max_steps"),
    "output": ("path", "format"),
}

_MODE_ALIASES = {
    "seq": MODE_SEQUENTIAL,
    "sequential": MODE_SEQUENTIAL,
    "simul": MODE_SIMULTANEOUS,
    "simultaneous": MODE_SIMULTANEOUS,
}


def load_config(path) -> dict:
    """Parse and validate a JSON config document; unknown keys are errors."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for block, content in raw.items():
        if block not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key: {block}")
        if not isinstance(content, dict):
            raise ConfigError(f"config key {block} must be an object")
        for key in content:
            if key not in _CONFIG_KEYS[block]:
                raise ConfigError(f"unknown config key: {block}.{key}")
    return raw


def _number_list(values, key: str) -> list[float]:
    if not isinstance(values, list) or not values or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        raise ConfigError(f"config key {key} must be a non-empty list of numbers")
    return [float(v) for v in values]


def instance_from_config(config: dict) -> Instance:
    block = config.get("instance")
    if not block:
        raise ConfigError("config is missing the instance block")
    if "mu" not in block or "lambda" not in block:
        raise ConfigError("config instance block needs both mu and lambda")
    rates = _number_list(block["mu"], "instance.mu")
    lengths = _number_list(block["lambda"], "instance.lambda")
    loads = _number_list(block["s0"], "instance.s0") if "s0" in block else None
    try:
        return Instance(lengths, rates, loads)
    except ValueError as exc:
        raise ConfigError(f"config instance block is invalid: {exc}") from None


class _SeedBox:
    """Resolves the effective seed lazily; prints it when freshly drawn."""

    def __init__(self, flag_value, config_value):
        self.value = flag_value if flag_value is not None else config_value
        self._announced = self.value is not None

    def get(self) -> int:
        if self.value is None:
            self.value = secrets.randbits(63)
        if not self._announced:
            print(f"seed={self.value}")
            self._announced = True
        return int(self.value)


def _setup(args) -> tuple[dict, _SeedBox, Instance]:
    # The config, seed and instance that static, dynamic and poa start from.
    config = load_config(args.config) if args.config else {}
    seed = _SeedBox(args.seed, config.get("run", {}).get("seed"))
    if args.setting is not None:
        spec = builtin_setting(args.setting)
        inst = spec.instance if spec.instance is not None else setting_instance(spec, seed.get())
    elif config.get("instance"):
        inst = instance_from_config(config)
    else:
        raise ConfigError("no instance given: pass --setting ID or a config file")
    return config, seed, inst


def _field(args, config: dict, block: str, flag: str, key: str, default=None):
    # A command-line flag overrides the config's ``block.key``.
    value = getattr(args, flag, None)
    if value is not None:
        return value
    return config.get(block, {}).get(key, default)


def _parse_order(value):
    if value is None or value in ("round-robin", "random"):
        return value
    if isinstance(value, list):
        return tuple(int(v) for v in value)
    # Anything else is a file holding an explicit arrival sequence.
    text = Path(value).read_text()
    try:
        seq = json.loads(text)
    except json.JSONDecodeError:
        seq = text.split()
    if not isinstance(seq, list) or not seq:
        raise ConfigError(f"order file {value} must hold a non-empty list of indices")
    return tuple(int(v) for v in seq)


def cmd_static(args) -> int:
    config, _, inst = _setup(args)
    result = _run_static(inst)
    potentials = result.potentials
    print(f"players={inst.num_players} servers={inst.num_servers}")
    for step, value in enumerate(potentials, start=1):
        print(f"update={step} potential={_fmt(value)}")
    print(
        f"updates={len(potentials)} nash={str(result.is_equilibrium).lower()} "
        f"max_improvement={result.max_improvement:.3e}"
    )
    out = _field(args, config, "output", "out", "path")
    if out:
        payload = {
            "profile": result.profile.matrix.tolist(),
            "potential": potentials[-1] if potentials else None,
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"profile_file={out}")
    return 0


def cmd_dynamic(args) -> int:
    config, seed, inst = _setup(args)
    mode_raw = _field(args, config, "run", "mode", "mode", "seq")
    mode = _MODE_ALIASES.get(str(mode_raw))
    if mode is None:
        raise ConfigError(f"unknown mode: {mode_raw!r} (use seq or simul)")
    order = _parse_order(_field(args, config, "run", "order", "order", "random"))
    max_steps = _field(args, config, "run", "max_steps", "max_steps")
    run_seed = seed.get() if (mode == MODE_SEQUENTIAL and order == "random") else (
        seed.value if seed.value is not None else 0
    )
    cfg = DynamicRun(inst, mode, order=order, max_steps=max_steps, seed=int(run_seed))
    done = run_sequential(cfg) if mode == MODE_SEQUENTIAL else run_simultaneous(cfg)
    converged = "none" if done.converged_at is None else str(done.converged_at)
    print(f"mode={mode} steps={len(done.trace)} converged_at={converged}")
    bounds = _drain_instance(inst, mode)
    print(
        f"full_support_bound={full_support_time(bounds)} "
        f"zero_load_bound={zero_load_time(bounds)} "
        f"alternative_bound={zero_load_time_alt(bounds)}"
    )
    out = _field(args, config, "output", "out", "path")
    if out:
        fmt = _field(args, config, "output", "format", "format", "csv")
        report = ExperimentReport(
            setting_id=args.setting if args.setting is not None else "custom",
            seed=int(seed.value if seed.value is not None else 0),
            instance=inst,
            sequential=done if mode == MODE_SEQUENTIAL else None,
            simultaneous=done if mode == MODE_SIMULTANEOUS else None,
        )
        path = export_trace(report, out, fmt)
        print(f"trace_file={path}")
    return 0


def cmd_poa(args) -> int:
    _, _, inst = _setup(args)
    profile, _ = run_sequential_pass(inst)
    ratio = empirical_poa(inst, profile)
    print(f"poa_upper_bound={_fmt(poa_upper_bound(inst))}")
    print(f"opt_lower_bound={_fmt(opt_lower_bound(inst))}")
    print(f"ne_social_cost={_fmt(social_cost(inst, profile))}")
    print(f"empirical_poa={_fmt(ratio)}")
    return 0


def _describe(spec) -> str:
    if spec.instance is not None:
        inst = spec.instance
        params = (
            f"mu={inst.service_rates.tolist()} lambda={inst.job_lengths.tolist()} "
            f"s0={inst.initial_loads.tolist()}"
        )
    else:
        gen = spec.generator
        params = (
            f"n={gen.num_players} m={gen.num_servers} "
            f"mu~U{list(gen.service_rate_range)} "
            f"lambda~U{list(gen.job_length_range)} "
            f"s0~U{list(gen.initial_load_range)}"
        )
    return f"setting {spec.id}: modes={','.join(spec.modes)} {params}"


def cmd_settings(args) -> int:
    if args.settings_command == "list":
        for spec in builtin_settings():
            print(_describe(spec))
        return 0
    spec = builtin_setting(args.id)
    seed = _SeedBox(args.seed, None)
    report = run_experiment(spec, seed=seed.get(), max_steps=args.max_steps)
    if report.static is not None:
        print(
            f"static updates={len(report.static.potentials)} "
            f"nash={str(report.static.is_equilibrium).lower()}"
        )
    for mode, run in report.runs.items():
        converged = "none" if run.converged_at is None else str(run.converged_at)
        print(f"{mode} steps={len(run.trace)} converged_at={converged}")
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = args.format or "csv"
    extension = "csv" if fmt == "csv" else "jsonl"
    if report.runs:
        path = export_trace(report, out_dir / f"setting_{spec.id}_trace.{extension}", fmt)
        print(f"trace_file={path}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"lbgame: error: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lbgame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_out=True):
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        p.add_argument("--setting", type=int, metavar="ID", help="builtin setting id (1-7)")
        p.add_argument("--seed", type=int, metavar="U64", help="seed for all randomness")
        if with_out:
            p.add_argument("--out", metavar="PATH", help="output file")

    p_static = sub.add_parser("static", help="one pass of in-turn updates to a pure equilibrium")
    add_common(p_static)
    p_static.set_defaults(func=cmd_static)

    p_dynamic = sub.add_parser("dynamic", help="stepped run with drain-time bounds")
    add_common(p_dynamic)
    p_dynamic.add_argument("--mode", choices=["seq", "simul"], help="update mode")
    p_dynamic.add_argument(
        "--order",
        metavar="round-robin|random|FILE",
        help="arrival order policy or a file with an explicit sequence",
    )
    p_dynamic.add_argument("--max-steps", dest="max_steps", type=int, metavar="N")
    p_dynamic.add_argument("--format", choices=["csv", "jsonl"], help="trace format")
    p_dynamic.set_defaults(func=cmd_dynamic)

    p_poa = sub.add_parser("poa", help="price-of-anarchy bounds for an instance")
    add_common(p_poa, with_out=False)
    p_poa.set_defaults(func=cmd_poa)

    p_settings = sub.add_parser("settings", help="benchmark settings catalog")
    sub_settings = p_settings.add_subparsers(dest="settings_command", required=True)
    sub_settings.add_parser("list", help="print the catalog")
    p_run = sub_settings.add_parser("run", help="run one setting and export traces")
    p_run.add_argument("id", type=int, help="setting id (1-7)")
    p_run.add_argument("--seed", type=int, metavar="U64")
    p_run.add_argument("--max-steps", dest="max_steps", type=int, metavar="N")
    p_run.add_argument("--out", metavar="DIR", help="output directory")
    p_run.add_argument("--format", choices=["csv", "jsonl"])
    p_settings.set_defaults(func=cmd_settings)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # An overflow fails as one error line, without numpy's warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ConfigError, InfeasibleError, ValueError, IndexError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"lbgame: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
