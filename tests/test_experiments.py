import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from lbgame import (
    DynamicRun,
    GeneratorSpec,
    Instance,
    SettingSpec,
    Trace,
    builtin_setting,
    builtin_settings,
    convergence_grid,
    export_trace,
    generate_instance,
    load_trace_jsonl,
    run_experiment,
    run_sequential,
    run_simultaneous,
    setting_instance,
    write_trace_csv,
    write_trace_jsonl,
)
from lbgame import experiments
from lbgame.model import _BLOCK
from lbgame.experiments import ExperimentReport


def _reference_steps(trace):
    # One dict of Python values per step, under the JSON-lines keys.
    for t, after in enumerate(trace.loads[1:]):
        yield dict(
            t=t, arrivals=trace.arrivals[t].tolist(), actions=trace.fractions[t].tolist(),
            loads_before=trace.loads[t].tolist(), loads_after=after.tolist(),
            instantaneous_costs=trace.costs[t].tolist(), total_load=float(after.sum()),
        )


def reference_csv(runs):
    """The CSV export written one step at a time: the reference for the
    library's block-wise writer."""
    num_servers = next(iter(runs.values())).inst.num_servers
    header = (
        ["step", "mode", "arriving_player"]
        + [f"s_{j + 1}" for j in range(num_servers)]
        + ["total_load", "cost", "converged_flag"]
    )
    lines = [",".join(header)]
    for mode, run in runs.items():
        for step in _reference_steps(run.trace):
            arriving = step["arrivals"][0] if mode == "sequential" else -1
            converged = str(int(run.converged_at is not None and step["t"] >= run.converged_at))
            row = [str(step["t"]), mode, str(arriving)]
            row += [repr(float(s)) for s in step["loads_after"]]
            row += [repr(float(step["total_load"])), repr(float(sum(step["instantaneous_costs"])))]
            lines.append(",".join(row + [converged]))
    return "\n".join(lines) + "\n"


def reference_records(runs):
    return [{"mode": mode, **step} for mode, run in runs.items() for step in _reference_steps(run.trace)]


def reference_jsonl(runs):
    """The JSON-lines export written one ``json.dumps`` per step."""
    return "\n".join(json.dumps(record) for record in reference_records(runs)) + "\n"


class TestCatalog:
    def test_setting_one_parameters_verbatim(self):
        inst = builtin_setting(1).instance
        assert list(inst.service_rates) == [1.4, 1.4, 1.2, 0.5, 0.4, 0.3, 0.2, 0.1]
        assert list(inst.job_lengths) == [1.5, 0.5, 0.3, 0.7, 0.9, 0.1, 0.6, 0.2]
        assert list(inst.initial_loads) == [10, 10, 1, 10, 20, 20, 10, 1]

    def test_setting_five_parameters_verbatim(self):
        inst = builtin_setting(5).instance
        assert list(inst.service_rates) == [0.9, 0.8, 0.4, 0.01]
        assert list(inst.job_lengths) == [0.5, 0.5, 0.3, 0.7]
        assert list(inst.initial_loads) == [10, 10, 1, 0.5]

    def test_setting_six_keeps_mismatched_sizes(self):
        # four servers facing eight job lengths, stored as printed
        inst = builtin_setting(6).instance
        assert inst.num_servers == 4
        assert inst.num_players == 8
        assert list(inst.service_rates) == [1.4, 1.2, 1, 0.5]
        assert list(inst.initial_loads) == [10, 10, 1, 10]

    def test_setting_seven_parameters_verbatim(self):
        inst = builtin_setting(7).instance
        assert list(inst.service_rates) == [2, 2]
        assert list(inst.job_lengths) == [0.5, 0.5, 0.3, 0.7, 0.9, 0.1, 0.6, 0.2]
        assert list(inst.initial_loads) == [10, 50]

    def test_setting_two_generator_recipe(self):
        spec = builtin_setting(2)
        gen = spec.generator
        assert (gen.num_players, gen.num_servers) == (500, 200)
        assert gen.service_rate_range == (3, 4)
        assert gen.job_length_range == (2, 3)
        assert gen.initial_load_range == (10, 20)
        # total job mass dwarfs total capacity, so the all-at-once mode is out
        assert "simultaneous" not in spec.modes

    def test_catalog_has_seven_entries(self):
        settings = builtin_settings()
        assert [s.id for s in settings] == [1, 2, 3, 4, 5, 6, 7]

    def test_catalog_is_built_once_per_listing(self, monkeypatch):
        build = experiments._catalog
        calls = []

        def counted():
            calls.append(1)
            return build()

        monkeypatch.setattr(experiments, "_catalog", counted)
        assert len(builtin_settings()) == 7
        assert len(calls) == 1

    def test_unknown_setting(self):
        with pytest.raises(ValueError, match="unknown setting"):
            builtin_setting(9)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(), "exactly one of instance or generator"),
            (
                dict(instance=builtin_setting(5).instance, generator=builtin_setting(3).generator),
                "exactly one of instance or generator",
            ),
            (dict(instance=builtin_setting(5).instance, modes=("static", "batch")), "unknown mode"),
        ],
        ids=["neither", "both", "unknown-mode"],
    )
    def test_setting_spec_refuses_a_malformed_entry(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SettingSpec(**{"id": "custom", "modes": ("static",), **fields})


# sha256 of generate_instance's draws over seeds 0-7, per catalog recipe and
# require_simultaneous flag: a change to the draws or to the stability rule
# they must meet changes them. Settings 2 and 4 refuse the simultaneous flag.
DRAW_DIGESTS = {
    (2, False): "b5e7b1e0065bbe8458150811c1a75fc1f5af3c33e6ae02ea0d808cede443ccad",
    (2, True): "1f9aa914471c54b23a7e46cd45a70859f83601b38080eed4491e062bdc1b9060",
    (3, False): "47eeee068852f249188a9e542b468f9733049f01143186ee5a837c12484d9d5e",
    (3, True): "47eeee068852f249188a9e542b468f9733049f01143186ee5a837c12484d9d5e",
    (4, False): "b0c031a115779e1aad4235199a1e8083c62424cddc34ef70be90b758f57e4464",
    (4, True): "1f9aa914471c54b23a7e46cd45a70859f83601b38080eed4491e062bdc1b9060",
}


class TestGeneration:
    def test_same_seed_same_instance(self):
        spec = builtin_setting(3).generator
        a = generate_instance(spec, seed=123)
        b = generate_instance(spec, seed=123)
        assert a == b
        c = generate_instance(spec, seed=124)
        assert not (a == c)

    def test_setting_three_satisfies_stability(self):
        inst = generate_instance(builtin_setting(3).generator, seed=5)
        assert inst.num_players == 100
        assert inst.num_servers == 50
        DynamicRun(inst, "simultaneous")

    def test_degenerate_range_is_constant(self):
        spec = GeneratorSpec(3, 2, (2, 2), (2, 2), (2, 2))
        inst = generate_instance(spec, seed=0)
        assert np.all(inst.service_rates == 2.0)
        assert np.all(inst.job_lengths == 2.0)
        assert np.all(inst.initial_loads == 2.0)

    @pytest.mark.parametrize("sid,require_simultaneous", DRAW_DIGESTS)
    def test_draws_are_pinned(self, sid, require_simultaneous):
        # each drawn instance's arrays, or the refusal message
        digest = hashlib.sha256()
        for seed in range(8):
            try:
                inst = generate_instance(
                    builtin_setting(sid).generator, seed,
                    require_simultaneous=require_simultaneous,
                )
            except ValueError as exc:
                digest.update(str(exc).encode())
                continue
            for arr in (inst.job_lengths, inst.service_rates, inst.initial_loads):
                digest.update(np.asarray(arr, "<f8").tobytes())
        assert digest.hexdigest() == DRAW_DIGESTS[sid, require_simultaneous]

    def test_infeasible_recipe_errors_out(self):
        spec = GeneratorSpec(1, 1, (1, 1), (5, 5), (0, 0))
        with pytest.raises(ValueError, match="feasible"):
            generate_instance(spec, seed=0)

    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            generate_instance(GeneratorSpec(1, 1, (1, 2), (0.1, 0.5), (0, 1)))

    @pytest.mark.parametrize("seed", [1.7, -1, True, "1"])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
            generate_instance(GeneratorSpec(1, 1, (1, 2), (0.1, 0.5), (0, 1)), seed)

    def test_recipe_validation(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            GeneratorSpec(1, 1, (2, 1), (0.1, 0.5), (0, 1))
        with pytest.raises(ValueError, match="positive"):
            GeneratorSpec(0, 1, (1, 2), (0.1, 0.5), (0, 1))

    def test_fixed_setting_ignores_seed(self):
        spec = builtin_setting(5)
        assert setting_instance(spec, 1) == setting_instance(spec, 2)


class TestRunExperiment:
    def test_setting_one_all_modes(self):
        report = run_experiment(builtin_setting(1), seed=11)
        assert report.static is not None
        assert len(report.static.potentials) == 8
        assert report.static.is_equilibrium
        assert report.sequential.converged_at is not None
        assert report.simultaneous.converged_at is not None
        assert not report.sequential.trace.loads[-1].any()
        assert not report.simultaneous.trace.loads[-1].any()

    def test_sequential_beats_simultaneous_on_fixed_settings(self):
        for sid in (5, 6, 7):
            report = run_experiment(builtin_setting(sid), seed=2)
            assert report.sequential.converged_at <= report.simultaneous.converged_at

    @pytest.mark.parametrize("seed", [36, 45, 48])
    def test_tiny_jobs_stay_on_simplex(self, seed):
        # these seeds draw a job near 6e-5 against queue levels near 18;
        # water-filling from the absolute levels lost the job's low digits
        report = run_experiment(builtin_setting(3), seed=seed)
        sums = [report.static.profile.matrix.sum(axis=1)]
        sums += [run.trace.fractions.sum(axis=-1).ravel() for run in report.runs.values()]
        assert np.max(np.abs(np.concatenate(sums) - 1.0)) <= 1e-12

    def test_metric_helpers(self):
        report = run_experiment(builtin_setting(5), seed=1)
        run = report.sequential
        assert not run.trace.loads[-1].any()
        used = np.count_nonzero(run.trace.fractions[-1] > 0, axis=-1)
        assert used.tolist() == [run.inst.num_servers]


class TestTraceExport:
    def test_single_step_csv(self, tmp_path):
        inst = Instance([1.0], [2.0, 2.0], [1.0, 1.0])
        done = run_sequential(
            DynamicRun(inst, "sequential", order="round-robin", max_steps=1)
        )
        path = write_trace_csv({"sequential": done}, tmp_path / "one.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "step,mode,arriving_player,s_1,s_2,total_load,cost,converged_flag"
        assert len(lines) == 2
        assert lines[1].startswith("0,sequential,0,")

    def test_scripted_two_server_step(self, tmp_path):
        # the length-2 job's best response to loads (2, 4) on rates
        # (1.5, 2.5) is the even split: water level 2, one unit per server.
        # The drain leaves (1.5, 2.5) and the arrival pays about 3.4667
        inst = Instance([1.0, 2.0], [1.5, 2.5], [2.0, 4.0])
        scripted = run_sequential(DynamicRun(inst, "sequential", order=(1,), max_steps=1))
        assert scripted.trace.fractions[0, 0] == pytest.approx([0.5, 0.5], abs=1e-15)
        path = write_trace_csv({"sequential": scripted}, tmp_path / "scripted.csv")
        row = path.read_text().splitlines()[1].split(",")
        assert row[:3] == ["0", "sequential", "1"]
        assert float(row[3]) == 1.5
        assert float(row[4]) == 2.5
        assert float(row[6]) == pytest.approx(3.4667, abs=5e-4)

    def test_jsonl_round_trip(self, tmp_path):
        report = run_experiment(builtin_setting(5), seed=9)
        path = write_trace_jsonl(report.runs, tmp_path / "trace.jsonl")
        loaded = load_trace_jsonl(path)
        assert set(loaded) == {"sequential", "simultaneous"}
        for mode, run in report.runs.items():
            assert loaded[mode] == run.trace

    def test_jsonl_loads_one_trace_per_mode(self, tmp_path):
        report = run_experiment(builtin_setting(7), seed=4)
        loaded = load_trace_jsonl(write_trace_jsonl(report.runs, tmp_path / "trace.jsonl"))
        for mode, run in report.runs.items():
            assert isinstance(loaded[mode], Trace)
            assert len(loaded[mode]) == len(run.trace)
            assert np.array_equal(loaded[mode].loads, run.trace.loads)

    def test_jsonl_blank_lines_are_skipped(self, tmp_path):
        report = run_experiment(builtin_setting(5), seed=9)
        lines = write_trace_jsonl(report.runs, tmp_path / "trace.jsonl").read_text().splitlines()
        spaced = tmp_path / "spaced.jsonl"
        spaced.write_text("\n\n".join(lines) + "\n  \n")
        loaded = load_trace_jsonl(spaced)
        assert set(loaded) == set(report.runs)
        for mode, run in report.runs.items():
            assert loaded[mode] == run.trace

    def test_jsonl_steps_must_chain(self, tmp_path):
        report = run_experiment(builtin_setting(5), seed=9)
        lines = write_trace_jsonl(report.runs, tmp_path / "trace.jsonl").read_text().splitlines()
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines[:3] + lines[4:]) + "\n")
        with pytest.raises(ValueError, match="sequential step 4 does not start where the last ended"):
            load_trace_jsonl(broken)

    @pytest.mark.parametrize("t", [1, 2047, 2048, 2049, 4096, 4100])
    @pytest.mark.parametrize("change", ["value", "ragged"])
    def test_jsonl_chain_is_checked_across_blocks(self, t, change, tmp_path):
        # Blocks of 2,048 steps: steps 2,048 and 4,096 start one, and the
        # break is reported at the step it is on, as line by line.
        runs = ODD_TRACES["partial-block"]()
        lines = write_trace_jsonl(runs, tmp_path / "trace.jsonl").read_text().splitlines()
        step = json.loads(lines[t])
        step["loads_before"] = step["loads_before"][:-1] + ([] if change == "ragged" else [1.5])
        lines[t] = json.dumps(step)
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        message = f"^sequential step {t} does not start where the last ended$"
        with pytest.raises(ValueError, match=message):
            load_trace_jsonl(broken)

    @pytest.mark.parametrize("later", ["truncated", "no-mode", "no-t", "actions-not-a-list"])
    def test_jsonl_chain_break_is_reported_before_a_later_malformed_line(self, later, tmp_path):
        # Lines are checked as they are read: a break at step 5 is found
        # before step 6, later in the same block of 2,048, is parsed.
        runs = ODD_TRACES["partial-block"]()
        lines = write_trace_jsonl(runs, tmp_path / "trace.jsonl").read_text().splitlines()
        step = json.loads(lines[5])
        step["loads_before"] = step["loads_before"][:-1] + [1.5]
        lines[5] = json.dumps(step)
        step = json.loads(lines[6])
        if later == "truncated":
            lines[6] = lines[6][: len(lines[6]) // 2]
        else:
            if later == "actions-not-a-list":
                step["actions"] = 1.0
            else:
                del step[later[3:]]
            lines[6] = json.dumps(step)
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="^sequential step 5 does not start where the last ended$"):
            load_trace_jsonl(broken)

    @pytest.mark.parametrize(
        "t, key, value",
        [
            (0, "actions", []),
            (0, "actions", 1.0),
            (0, "loads_before", []),
            (2048, "actions", []),
            (2048, "actions", 1.0),
        ],
    )
    def test_jsonl_step_without_actions_or_loads_is_refused(self, t, key, value, tmp_path):
        # Step 0 starts the chain and gives the widths, and step 2,048 opens
        # one of the writer's blocks: each step is checked where it stands.
        runs = ODD_TRACES["partial-block"]()
        lines = write_trace_jsonl(runs, tmp_path / "trace.jsonl").read_text().splitlines()
        step = json.loads(lines[t])
        step[key] = value
        lines[t] = json.dumps(step)
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^sequential step {t} has no actions or no loads$"):
            load_trace_jsonl(broken)

    @pytest.mark.parametrize("index", [0, 3])
    @pytest.mark.parametrize("change", ["no-loads_after", "no-mode", "a-list", "truncated"])
    def test_jsonl_malformed_line_is_refused_by_number(self, index, change, tmp_path):
        report = run_experiment(builtin_setting(5), seed=9)
        lines = write_trace_jsonl(report.runs, tmp_path / "trace.jsonl").read_text().splitlines()
        if change == "a-list":
            lines[index], message = "[1, 2]", "is not a trace step object"
        elif change == "truncated":
            # The decoder's own message, without its position in the line.
            lines[index] = lines[index][: len(lines[index]) // 2]
            message = r"is not JSON: [A-Z][^:]*"
        else:
            step = json.loads(lines[index])
            del step[change[3:]]
            lines[index], message = json.dumps(step), f"has no '{change[3:]}' field"
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^line {index + 1} {message}$"):
            load_trace_jsonl(broken)

    @pytest.mark.parametrize(
        "change",
        ["float-arrival", "string-cost", "ragged-action-row", "short-last-loads_after",
         "costs-too-long"],
    )
    def test_jsonl_step_of_another_shape_or_type_is_refused_by_step(self, change, tmp_path):
        # A fractional arrival was once truncated, and the others failed with
        # numpy's own message, which names no line. The simultaneous steps,
        # of 4 arrivals on 4 servers, come last.
        report = run_experiment(builtin_setting(5), seed=9)
        lines = write_trace_jsonl(report.runs, tmp_path / "trace.jsonl").read_text().splitlines()
        index = -1 if change == "short-last-loads_after" else -3
        step = json.loads(lines[index])
        assert step["mode"] == "simultaneous"
        message = "is not k=4 arrivals on m=4 servers"
        if change == "float-arrival":
            step["arrivals"][1] = 1.5
            message = "has a value of the wrong type: .*integer"
        elif change == "string-cost":
            step["instantaneous_costs"][2] = "0.5"
            message = "has a value of the wrong type: .*str"
        elif change == "ragged-action-row":
            step["actions"][1] = step["actions"][1][:-1]
        elif change == "short-last-loads_after":
            step["loads_after"] = step["loads_after"][:-1]
        else:
            step["instantaneous_costs"].append(0.5)
        lines[index] = json.dumps(step)
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines) + "\n")
        message = f"^simultaneous step {step['t']} {message}$"
        with pytest.raises(ValueError, match=message) as refused:
            load_trace_jsonl(broken)
        assert "\n" not in str(refused.value)

    def test_csv_values_round_trip_exactly(self, tmp_path):
        report = run_experiment(builtin_setting(5), seed=9)
        path = export_trace(report, tmp_path / "trace.csv")
        lines = path.read_text().splitlines()
        run = report.sequential
        for line, after in zip(lines[1:], run.trace.loads[1:]):
            cells = line.split(",")
            loads = np.array([float(c) for c in cells[3:7]])
            assert np.array_equal(loads, after)
            assert float(cells[7]) == after.sum()

    def test_export_writes_manifest(self, tmp_path):
        report = run_experiment(builtin_setting(5), seed=3)
        path = export_trace(report, tmp_path / "trace.csv")
        manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
        assert manifest["setting"] == 5
        assert manifest["seed"] == 3
        assert manifest["instance"]["mu"] == [0.9, 0.8, 0.4, 0.01]
        assert "code_version" in manifest
        assert path.exists()

    def test_unknown_format_rejected(self, tmp_path):
        report = run_experiment(builtin_setting(5), seed=3)
        with pytest.raises(ValueError, match="format"):
            export_trace(report, tmp_path / "trace.xml", "xml")

    @pytest.mark.parametrize(
        "write",
        [
            write_trace_csv,
            write_trace_jsonl,
            lambda runs, path: export_trace(
                ExperimentReport("custom", 0, builtin_setting(5).instance, **runs), path
            ),
        ],
        ids=["csv", "jsonl", "export_trace"],
    )
    def test_run_filed_under_another_mode_is_refused(self, write, tmp_path):
        # Rows are labelled by the key and shaped by the run's mode: a
        # sequential run under "simultaneous" would be written as a
        # simultaneous trace with one arrival per step.
        report = run_experiment(builtin_setting(5), seed=1)
        path = tmp_path / "misfiled.txt"
        with pytest.raises(ValueError, match="^a sequential run is filed under 'simultaneous'$"):
            write({"simultaneous": report.sequential}, path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("write", [write_trace_csv, write_trace_jsonl], ids=["csv", "jsonl"])
    def test_no_runs_are_refused_before_a_file_is_made(self, write, tmp_path):
        with pytest.raises(ValueError, match="^no runs to write$"):
            write({}, tmp_path / "empty.txt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "case, mode", [("no-steps", "sequential"), ("unrun-and-run", "simultaneous")]
    )
    @pytest.mark.parametrize(
        "write",
        [
            write_trace_csv,
            write_trace_jsonl,
            lambda runs, path: export_trace(
                ExperimentReport("custom", 0, builtin_setting(1).instance, **runs), path
            ),
        ],
        ids=["csv", "jsonl", "export_trace"],
    )
    def test_unplayed_run_is_refused_before_a_file_is_made(self, write, case, mode, tmp_path):
        # A run that was never played holds no steps: JSON-lines once wrote
        # it as a blank line, which read back as no trace at all.
        with pytest.raises(ValueError, match=f"^the {mode} run has no steps: it was never played$"):
            write(UNPLAYED[case](), tmp_path / "unplayed.txt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("write", [write_trace_csv, write_trace_jsonl], ids=["csv", "jsonl"])
    def test_runs_on_different_server_counts_are_refused(self, write, tmp_path):
        # One header, or one reader's Trace per mode, fits one row width.
        runs = {
            "sequential": run_experiment(builtin_setting(7), seed=0).sequential,
            "simultaneous": run_experiment(builtin_setting(5), seed=0).simultaneous,
        }
        with pytest.raises(ValueError, match="^runs on 2 and 4 servers cannot share one trace$"):
            write(runs, tmp_path / "mixed.txt")
        assert list(tmp_path.iterdir()) == []

    def test_report_refuses_a_run_on_another_instance(self):
        other = run_experiment(builtin_setting(7), seed=0).sequential
        with pytest.raises(
            ValueError, match="^the sequential run was played on another instance than the report's$"
        ):
            ExperimentReport(5, 0, builtin_setting(5).instance, sequential=other)

    def test_report_refuses_a_run_at_another_seed(self):
        run = run_experiment(builtin_setting(5), seed=0).simultaneous
        with pytest.raises(
            ValueError, match="^the simultaneous run was played at seed 0, not the report's seed 99$"
        ):
            ExperimentReport(5, 99, builtin_setting(5).instance, simultaneous=run)

    def test_report_without_runs_rejected(self, tmp_path):
        report = ExperimentReport(
            setting_id="custom", seed=0, instance=builtin_setting(5).instance
        )
        with pytest.raises(ValueError, match="no dynamic runs"):
            export_trace(report, tmp_path / "nothing.csv")


def _never_drains(steps):
    # A sequential run on m=8 servers whose queues outlast ``steps`` steps.
    inst = Instance([0.5, 1.0, 0.7], [1.0, 2.0, 1.5, 1.2, 0.8, 1.1, 0.9, 1.3], [1e4] * 8)
    return run_sequential(DynamicRun(inst, "sequential", max_steps=steps))


def _one_step_per_block():
    # k*m values per simultaneous step, more than one block holds.
    rng = np.random.default_rng(3)
    inst = Instance(np.full(200, 0.01), np.ones(100), rng.uniform(1.0, 5.0, 100))
    assert inst.num_players * inst.num_servers > _BLOCK
    return {"simultaneous": run_simultaneous(DynamicRun(inst, "simultaneous", max_steps=3))}


def _with_unrun():
    report = run_experiment(builtin_setting(1), seed=0)
    unrun = DynamicRun(report.instance, "simultaneous")
    return {"simultaneous": unrun, "sequential": report.sequential}


def _overflowed_total():
    # Finite loads whose sum overflows: JSON writes the total as Infinity.
    inst = Instance([1.0], [1.0, 1.0], [1e308, 1e308])
    with np.errstate(over="ignore"):
        return {"sequential": run_sequential(DynamicRun(inst, "sequential", max_steps=2))}


ODD_TRACES = {
    # 4,101 steps: two full blocks of 2,048 and a partial one.
    "partial-block": lambda: {"sequential": _never_drains(2 * (_BLOCK // 8) + 5)},
    "one-step-per-block": _one_step_per_block,
    "overflowed-total": _overflowed_total,
}

# Runs the writers refuse, as they hold a run with no steps.
UNPLAYED = {
    "unrun-and-run": _with_unrun,
    "no-steps": lambda: {"sequential": DynamicRun(builtin_setting(1).instance)},
}


class TestExportOracle:
    """The block-wise writers against the per-step reference writers above:
    the same bytes, and every JSON line the reference step dict."""

    @staticmethod
    def same_text(got, want):
        # Line by line, so a mismatch reports one line instead of a diff of
        # two whole files.
        got, want = got.split("\n"), want.split("\n")
        for number, (line, expected) in enumerate(zip(got, want), 1):
            assert line == expected, f"line {number} differs"
        assert len(got) == len(want)

    def check(self, runs, tmp_path):
        with np.errstate(over="ignore"):
            csv = write_trace_csv(runs, tmp_path / "trace.csv").read_text()
            jsonl = write_trace_jsonl(runs, tmp_path / "trace.jsonl").read_text()
            self.same_text(csv, reference_csv(runs))
            self.same_text(jsonl, reference_jsonl(runs))
            records = reference_records(runs)
        lines = jsonl.splitlines()
        assert len(lines) == len(records)
        for line, record in zip(lines, records):
            assert json.loads(line) == record

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("sid", range(1, 8))
    def test_catalog_exports_match_the_reference(self, sid, seed, tmp_path):
        self.check(run_experiment(builtin_setting(sid), seed=seed).runs, tmp_path)

    @pytest.mark.parametrize("case", list(ODD_TRACES))
    def test_odd_traces_match_the_reference(self, case, tmp_path):
        self.check(ODD_TRACES[case](), tmp_path)


WRITERS = {"csv": write_trace_csv, "jsonl": write_trace_jsonl}


def _long_drain():
    # The benchmark's long drain: 15,616 sequential steps on 8 servers, in
    # eight blocks of the writers.
    spec = GeneratorSpec(64, 8, (1.0, 2.0), (0.5, 1.5), (1e4, 2e4))
    inst = generate_instance(spec, 7)
    return {"sequential": run_sequential(DynamicRun(inst, "sequential", seed=1))}


class TestLongDrainExport:
    def test_either_order_writes_the_single_format_bytes(self, tmp_path):
        # An export of a run leaves nothing that changes its next export.
        single = {
            fmt: WRITERS[fmt](_long_drain(), tmp_path / f"single.{fmt}").read_bytes()
            for fmt in WRITERS
        }
        for order in (("csv", "jsonl"), ("jsonl", "csv")):
            runs = _long_drain()
            assert len(runs["sequential"].trace) > 2 * (_BLOCK // 8)
            for fmt in order:
                path = WRITERS[fmt](runs, tmp_path / f"{order[0]}-first.{fmt}")
                assert path.read_bytes() == single[fmt], (order, fmt)

    def test_reader_holds_a_fraction_of_the_file(self, tmp_path):
        # Reading the whole 8.1 MB file at once, then one dict per line,
        # peaked at 24 MB; a block at a time keeps under 6 MB.
        runs = _long_drain()
        path = write_trace_jsonl(runs, tmp_path / "trace.jsonl")
        assert path.stat().st_size > 8e6
        tracemalloc.start()
        try:
            loaded = load_trace_jsonl(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(loaded) == {"sequential"} and loaded["sequential"] == runs["sequential"].trace
        assert peak < 6e6


class TestDeterminism:
    def test_repeated_seeded_exports_are_byte_identical(self, tmp_path):
        for fmt, name in (("csv", "a"), ("jsonl", "b")):
            first = export_trace(
                run_experiment(builtin_setting(1), seed=77), tmp_path / f"{name}1.{fmt}", fmt
            )
            second = export_trace(
                run_experiment(builtin_setting(1), seed=77), tmp_path / f"{name}2.{fmt}", fmt
            )
            assert first.read_bytes() == second.read_bytes()
            manifest_a = (tmp_path / f"{name}1.{fmt}.manifest.json").read_bytes()
            manifest_b = (tmp_path / f"{name}2.{fmt}.manifest.json").read_bytes()
            assert manifest_a.replace(b"1." + fmt.encode(), b"") == manifest_b.replace(
                b"2." + fmt.encode(), b""
            )

    def test_generated_setting_trace_determinism(self, tmp_path):
        first = export_trace(
            run_experiment(builtin_setting(3), seed=5),
            tmp_path / "g1.csv",
        )
        second = export_trace(
            run_experiment(builtin_setting(3), seed=5),
            tmp_path / "g2.csv",
        )
        assert first.read_bytes() == second.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        first = export_trace(
            run_experiment(builtin_setting(1), seed=1),
            tmp_path / "s1.csv",
        )
        second = export_trace(
            run_experiment(builtin_setting(1), seed=2),
            tmp_path / "s2.csv",
        )
        assert first.read_bytes() != second.read_bytes()


class TestConvergenceGrid:
    def test_small_grid_runs_and_is_deterministic(self):
        kwargs = dict(
            service_rate_range=(1.0, 2.0),
            job_length_range=(0.1, 1.0),
            initial_load_range=(10.0, 20.0),
            seed=13,
        )
        grid = convergence_grid([20, 40], [20, 40], **kwargs)
        again = convergence_grid([20, 40], [20, 40], **kwargs)
        assert grid.shape == (2, 2)
        assert np.all(grid >= 0)
        assert np.array_equal(grid, again)
