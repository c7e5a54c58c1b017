"""lbgame benchmark: one command, three workloads, outputs checked.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``. Each
workload is driven as a closed loop by one caller in one process with no
threads: a repetition starts when the previous one returns. The workload
repeats for ``--seconds`` seconds and every repetition's outputs are
checked. A slow first repetition (first-call costs, new output files) does
not matter: timings are reported by the fastest repetition.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json:
fastest repetition time, best responses per second, median set-up time over
fresh interpreters, and peak resident memory. ``--trace 1`` spends half the
time untraced and half traced, then prints the per-layer metrics from the
spans. The last line of stdout is one JSON object; the full result and the
spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 9  # fresh interpreters timed per run for setup_s
SLOPE_PLAYERS = (250, 500, 1000)  # pass scaling sweep at m=500
SLOPE_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def probe_setup(workload: str, seed: int) -> int:
    """Child process: time importing lbgame plus building the workload."""
    start = time.perf_counter()
    import lbgame
    import lbgame.cli  # noqa: F401  (the catalog drives the CLI)

    imported = time.perf_counter()
    from workloads import WORKLOADS

    built = time.perf_counter()
    WORKLOADS[workload](lbgame, seed, OUT)
    print(repr(imported - start + time.perf_counter() - built))
    return 0


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120, cwd=ROOT)
    return float(done.stdout.split()[-1])


def environment(seed: int, input_seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for f in sorted((SRC / "lbgame").glob("*.py")):
        source.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "input_seed": input_seed,
        "load": "closed loop: one caller in one process, no threads (--jobs 1)",
        "timer": "time.perf_counter",
    }


class Runner:
    """Runs repetitions of one workload and tallies its checks."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.counts = None
        self.setup: list[float] = []

    def rep(self, tracer=None) -> float:
        wl = self.workload
        start = time.perf_counter()
        if tracer is None:
            out = wl.run()
        else:
            with tracer.span("bench.rep"):
                out = wl.run()
        elapsed = time.perf_counter() - start
        for name, ok in wl.check(out):
            self.attempted += 1
            if not ok:
                self.failures.append(name)
        self.counts = wl.counts(out)
        return elapsed

    def reps(self, seconds: float, tracer=None, probe=None) -> list[float]:
        """Repeat for ``seconds`` of wall time. ``probe``, if given, runs
        SETUP_PROBES times spread evenly over that time, between repetitions,
        so that a burst of load from other processes on the host shifts
        only some of the set-up samples."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.rep(tracer))
            done = min(1.0, (time.perf_counter() - start) / seconds)
            while probe and len(self.setup) < done * SETUP_PROBES:
                self.setup.append(probe())
        return times


def pass_slope(lb, seed: int) -> float:
    """Log-log slope of run_sequential_pass time against n, at m=500."""
    from workloads import SCALED_SERVERS, SETTING2_RANGES

    xs, ys = [], []
    for n in SLOPE_PLAYERS:
        inst = lb.generate_instance(lb.GeneratorSpec(n, SCALED_SERVERS, *SETTING2_RANGES), seed)
        times = []
        for _ in range(SLOPE_REPEATS):
            start = time.perf_counter()
            lb.run_sequential_pass(inst)
            times.append(time.perf_counter() - start)
        xs.append(math.log(n))
        ys.append(math.log(statistics.median(times)))
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(tracer, untraced: list[float], counts: dict) -> dict:
    """Per-layer figures for one workload run: one set-up plus one repetition.

    Spans under the traced set-up count once; spans under the traced
    repetitions count as their mean per repetition.
    """
    spans = tracer.spans
    reps = [s for s in spans if s[0] == "bench.rep"]
    weight = []
    for name, _, _, parent in spans:
        weight.append(weight[parent] if parent >= 0 else (1.0 / len(reps) if name == "bench.rep" else 1.0))
    calls, self_ns, total_ns = defaultdict(float), defaultdict(float), defaultdict(float)
    durations = defaultdict(list)
    for (name, start, end, _), own, w in zip(spans, tracer.self_times(), weight):
        calls[name] += w
        self_ns[name] += own * w
        total_ns[name] += (end - start) * w
        durations[name].append(end - start)
    wall_ns = total_ns["bench.setup"] + total_ns["bench.rep"]

    def seconds(table, *names):
        return sum(table[n] for n in names) / 1e9

    def pct_us(name, q):
        d = sorted(durations[name])
        return d[min(len(d) - 1, int(q * len(d)))] / 1e3 if d else 0.0

    def rate(amount, *names):
        busy = seconds(total_ns, *names)
        return amount / busy if busy else 0.0

    m = {
        "traced_wall_s": wall_ns / 1e9,
        "trace_overhead_ratio": min(s[2] - s[1] for s in reps) / 1e9 / min(untraced),
    }
    for module in ("model", "static", "dynamic", "experiments", "cli"):
        m[f"share.{module}"] = sum(v for k, v in self_ns.items() if k.startswith(module + ".")) / wall_ns
    for cls in ("Instance", "Action", "ActionProfile", "ServerLoads"):
        m[f"model.{cls}.built"] = round(calls[f"model.{cls}.validate"], 3)
    m["model.validate.self_s"] = seconds(self_ns, *[k for k in self_ns if k.startswith("model.") and k.endswith(".validate")])
    for name in ("model.state_transition", "model.instantaneous_cost", "static.best_response",
                 "static.is_nash", "static.empirical_poa", "static.run_sequential_pass",
                 "static.water_fill", "dynamic.dynamic_step", "dynamic.run_sequential",
                 "dynamic.run_simultaneous", "experiments.generate_instance",
                 "experiments.write_trace_csv", "experiments.write_trace_jsonl", "cli.main"):
        m[f"{name}.self_s"] = seconds(self_ns, name)
    for name in ("static.water_fill", "dynamic.dynamic_step", "static.run_sequential_pass"):
        m[f"{name}.calls"] = round(calls[name], 3)  # mean per repetition
    for name in ("static.water_fill", "dynamic.dynamic_step"):
        m[f"{name}.p50_us"] = pct_us(name, 0.50)
        m[f"{name}.p99_us"] = pct_us(name, 0.99)
    m["static.updates_per_s"] = rate(counts["updates"], "static.run_sequential_pass")
    m["dynamic.steps_per_s"] = rate(counts["steps"], "dynamic.run_sequential", "dynamic.run_simultaneous")
    m["dynamic.rounds"] = counts["rounds"]
    m["dynamic.converged_over_bound"] = counts["converged_over_bound"]
    m["experiments.trace_bytes"] = counts["trace_bytes"]
    m["experiments.export_mb_per_s"] = rate(
        counts["trace_bytes"] / 1e6, "experiments.write_trace_csv", "experiments.write_trace_jsonl"
    )
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lbgame" / "__init__.py").is_file():
        print(f"perfbench: no lbgame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import RECORDED_SEEDS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    input_seed = args.seed % RECORDED_SEEDS
    if args.probe_setup:
        return probe_setup(args.workload, input_seed)

    import lbgame
    import lbgame.cli  # noqa: F401

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    make = WORKLOADS[args.workload]
    runner = Runner(make(lbgame, input_seed, out_dir))

    if args.trace == 0:
        times = runner.reps(args.seconds, probe=lambda: setup_seconds(args.workload, args.seed))
        setup = runner.setup
        # Repetition times are reported by the fastest one. The code is
        # deterministic, but load from other machines on a shared host slows
        # repetitions by up to 1.7x, in bursts that can cover a whole run, and
        # never speeds one up. Over ten 30 s catalog runs, the spread between
        # runs (quartile distance over the median) was 0.19 for the median
        # repetition, 0.15 for the lower quartile and 0.025 for the fastest.
        computed = {
            "wall_s": min(times),
            "wall_s_median": statistics.median(times),
            "setup_s": statistics.median(setup),
            "best_responses_per_s": runner.counts["best_responses"] / min(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {"rep_seconds": times, "setup_seconds": setup}
        section = spec["end_to_end"]
    else:
        from tracing import Tracer

        untraced = runner.reps(args.seconds / 2)
        tracer = Tracer()
        tracer.install(lbgame)
        try:
            with tracer.span("bench.setup"):
                make(lbgame, input_seed, out_dir)
            traced = runner.reps(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        computed = layer_metrics(tracer, untraced, runner.counts)
        computed["static.run_sequential_pass.n_slope"] = pass_slope(lbgame, input_seed)
        samples = {"untraced_rep_seconds": untraced, "traced_rep_seconds": traced, "spans": len(tracer.spans)}
        tracer.write_csv(OUT / f"spans-{args.workload}.csv")
        section = spec["per_layer"]
    computed["check_fail_ratio"] = len(runner.failures) / runner.attempted

    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in section}
    env = environment(args.seed, input_seed)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "samples": samples, "all_metrics": computed,
                    "failed_checks": sorted(set(runner.failures)), "environment": env}, indent=1) + "\n"
    )
    for name in sorted(set(runner.failures)):
        print(f"perfbench: check failed: {name}", file=sys.stderr)
    counts = {k: len(v) if isinstance(v, list) else v for k, v in samples.items()}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} samples={json.dumps(counts)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if "check_fail_ratio" not in metrics:
        print(f"  check_fail_ratio = {computed['check_fail_ratio']:.6g} ({len(runner.failures)} of {runner.attempted} checks failed)")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
