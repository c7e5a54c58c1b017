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
    zero_load_time,
    zero_load_time_alt,
)
from .experiments import (
    _TRACE_FORMATS,
    ExperimentReport,
    _run_dynamic,
    _run_static,
    builtin_setting,
    builtin_settings,
    export_trace,
    run_experiment,
    setting_instance,
)
from .model import _INTEGER_KINDS, Instance
from .static import _poa, poa_upper_bound, run_sequential_pass


def _fmt(x: float) -> str:
    # repr of a Python float is the shortest string that parses back exactly.
    return repr(float(x))


_MODE_ALIASES = {
    "seq": MODE_SEQUENTIAL,
    "sequential": MODE_SEQUENTIAL,
    "simul": MODE_SIMULTANEOUS,
    "simultaneous": MODE_SIMULTANEOUS,
}

# Each block's keys, with the check of a value's kind (a bool is no number);
# ``Instance`` checks what the numbers must satisfy.
_CONFIG_KEYS = {
    "instance": dict.fromkeys(
        ("mu", "lambda", "s0"),
        (
            lambda v: type(v) is list and v and all(type(x) in (int, float) for x in v),
            "a non-empty list of numbers",
        ),
    ),
    "run": {
        "mode": (lambda v: type(v) is str and v in _MODE_ALIASES, " or ".join(_MODE_ALIASES)),
        "order": (
            lambda v: type(v) is str or (type(v) is list and v and all(type(i) is int for i in v)),
            "round-robin, random, a file path or a non-empty list of player indices",
        ),
        "seed": (lambda v: type(v) is int and v >= 0, "a nonnegative integer"),
        "max_steps": (lambda v: type(v) is int and v >= 1, "a positive integer"),
    },
    "output": {
        "path": (lambda v: type(v) is str, "a file path"),
        "format": (lambda v: v in _TRACE_FORMATS, " or ".join(_TRACE_FORMATS)),
    },
}


def load_config(path) -> dict:
    """Parse and validate a JSON config document; unknown keys are errors."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    for block, content in raw.items():
        if block not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key: {block}")
        if not isinstance(content, dict):
            raise ValueError(f"config key {block} must be an object")
        for key, value in content.items():
            if key not in _CONFIG_KEYS[block]:
                raise ValueError(f"unknown config key: {block}.{key}")
            check, kind = _CONFIG_KEYS[block][key]
            if not check(value):
                raise ValueError(f"config key {block}.{key} must be {kind}")
    return raw


def instance_from_config(config: dict) -> Instance:
    block = config.get("instance")
    if not block:
        raise ValueError("no instance given: pass --setting ID or a config file")
    if "mu" not in block or "lambda" not in block:
        raise ValueError("config instance block needs both mu and lambda")
    try:
        return Instance(block["lambda"], block["mu"], block.get("s0"))
    except ValueError as exc:
        raise ValueError(f"config instance block is invalid: {exc}") from None


def _field(args, config: dict, block: str, flag: str, key: str, default=None):
    # A command-line flag overrides the config's ``block.key``.
    value = getattr(args, flag, None)
    if value is not None:
        return value
    return config.get(block, {}).get(key, default)


def _announced(seed) -> int:
    # The seed given, or a freshly drawn one, printed so the run can be repeated.
    if seed is None:
        seed = secrets.randbits(63)
        print(f"seed={seed}")
    return seed


def _setup(args) -> tuple[dict, int | None, Instance]:
    # The config, seed and instance that static, dynamic and poa start from.
    config = load_config(args.config) if args.config else {}
    seed = _field(args, config, "run", "seed", "seed")
    if args.setting is not None:
        spec = builtin_setting(args.setting)
        if spec.generator is not None:
            seed = _announced(seed)
        inst = setting_instance(spec, seed)
    else:
        inst = instance_from_config(config)
    return config, seed, inst


def _parse_order(value):
    if value in ("round-robin", "random"):
        return value
    if isinstance(value, list):
        return tuple(value)
    # Anything else is a file holding an explicit arrival sequence: indices
    # apart by whitespace, or a JSON list of them.
    text = Path(value).read_text()
    tokens = text.split()
    try:
        seq = [int(v) for v in tokens] if all(map(str.isdecimal, tokens)) else json.loads(text)
    except json.JSONDecodeError:
        seq = None
    if not isinstance(seq, list) or not seq or not all(type(v) is int for v in seq):
        raise ValueError(f"order file {value} must hold a non-empty list of indices")
    return tuple(seq)


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
            "potential": potentials[-1],
        }
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"profile_file={out}")
    return 0


def cmd_dynamic(args) -> int:
    config, seed, inst = _setup(args)
    mode = _MODE_ALIASES[_field(args, config, "run", "mode", "mode", "seq")]
    order = _parse_order(_field(args, config, "run", "order", "order", "random"))
    max_steps = _field(args, config, "run", "max_steps", "max_steps")
    # Only a sequential run in random order uses a seed, so only it draws one.
    needs_seed = mode == MODE_SEQUENTIAL and order == "random"
    run_seed = _announced(seed) if needs_seed else 0 if seed is None else seed
    done = _run_dynamic(DynamicRun(inst, mode, order=order, max_steps=max_steps, seed=run_seed))
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
        setting = args.setting if args.setting is not None else "custom"
        report = ExperimentReport(setting, run_seed, inst, **{mode: done})
        path = export_trace(report, out, fmt)
        print(f"trace_file={path}")
    return 0


def cmd_poa(args) -> int:
    _, _, inst = _setup(args)
    profile, _ = run_sequential_pass(inst)
    cost, bound = _poa(inst, profile)
    print(f"poa_upper_bound={_fmt(poa_upper_bound(inst))}")
    print(f"opt_lower_bound={_fmt(bound)}")
    print(f"ne_social_cost={_fmt(cost)}")
    print(f"empirical_poa={_fmt(cost / bound)}")
    return 0


def _integer_flag(least: int):
    # The type of an integer flag of at least ``least``, 0 or 1: ``--seed``
    # and ``--max-steps``, as the config's run.seed and run.max_steps.
    def parse(text: str) -> int:
        if text.isdecimal() and int(text) >= least:
            return int(text)
        raise argparse.ArgumentTypeError(f"must be {_INTEGER_KINDS[least]} integer, not {text!r}")

    return parse


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
    report = run_experiment(spec, _announced(args.seed), args.max_steps)
    if report.static is not None:
        print(
            f"static updates={len(report.static.potentials)} "
            f"nash={str(report.static.is_equilibrium).lower()}"
        )
    for mode, run in report.runs.items():
        converged = "none" if run.converged_at is None else str(run.converged_at)
        print(f"{mode} steps={len(run.trace)} converged_at={converged}")
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = args.format or "csv"
    if report.runs:
        path = export_trace(report, out_dir / f"setting_{spec.id}_trace.{fmt}", fmt)
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
        p.add_argument(
            "--seed", type=_integer_flag(0), metavar="U64", help="seed for all randomness"
        )
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
    p_dynamic.add_argument("--max-steps", dest="max_steps", type=_integer_flag(1), metavar="N")
    p_dynamic.add_argument("--format", choices=_TRACE_FORMATS, help="trace format")
    p_dynamic.set_defaults(func=cmd_dynamic)

    p_poa = sub.add_parser("poa", help="price-of-anarchy bounds for an instance")
    add_common(p_poa, with_out=False)
    p_poa.set_defaults(func=cmd_poa)

    p_settings = sub.add_parser("settings", help="benchmark settings catalog")
    sub_settings = p_settings.add_subparsers(dest="settings_command", required=True)
    sub_settings.add_parser("list", help="print the catalog")
    p_run = sub_settings.add_parser("run", help="run one setting and export traces")
    p_run.add_argument("id", type=int, help="setting id (1-7)")
    p_run.add_argument("--seed", type=_integer_flag(0), metavar="U64")
    p_run.add_argument("--max-steps", dest="max_steps", type=_integer_flag(1), metavar="N")
    p_run.add_argument("--out", metavar="DIR", help="output directory")
    p_run.add_argument("--format", choices=_TRACE_FORMATS)
    p_settings.set_defaults(func=cmd_settings)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # An overflow fails as one error line, without numpy's warnings:
        # ``_finite`` refuses what it leaves. Ignoring every class, not only
        # overflow and invalid, spares each small ufunc a check of the
        # floating-point status flags.
        with np.errstate(all="ignore"):
            return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, IndexError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"lbgame: error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
