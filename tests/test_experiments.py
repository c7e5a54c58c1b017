import hashlib
import json

import numpy as np
import pytest

from lbgame import (
    DynamicRun,
    GeneratorSpec,
    Instance,
    ServerLoads,
    Trace,
    builtin_setting,
    builtin_settings,
    convergence_grid,
    export_trace,
    generate_instance,
    load_trace_jsonl,
    run_experiment,
    run_sequential,
    setting_instance,
    write_trace_csv,
    write_trace_jsonl,
)
from lbgame import experiments
from lbgame.experiments import ExperimentReport
from lbgame.model import Action


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
        assert report.sequential.trace[-1].total_load == 0.0
        assert report.simultaneous.trace[-1].total_load == 0.0

    def test_sequential_beats_simultaneous_on_fixed_settings(self):
        for sid in (5, 6, 7):
            report = run_experiment(builtin_setting(sid), seed=2)
            assert report.sequential.converged_at <= report.simultaneous.converged_at

    def test_unsupported_mode_rejected(self):
        with pytest.raises(ValueError, match="does not support"):
            run_experiment(builtin_setting(2), seed=0, modes=("simultaneous",))

    @pytest.mark.parametrize("seed", [36, 45, 48])
    def test_tiny_jobs_stay_on_simplex(self, seed):
        # these seeds draw a job near 6e-5 against queue levels near 18;
        # water-filling from the absolute levels lost the job's low digits
        report = run_experiment(builtin_setting(3), seed=seed)
        rows = list(report.static.profile.matrix)
        for run in report.runs.values():
            rows += [a.fractions for record in run.trace for a in record.actions]
        assert max(abs(row.sum() - 1.0) for row in rows) <= 1e-12

    def test_metric_helpers(self):
        report = run_experiment(builtin_setting(5), seed=1, modes=("sequential",))
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
        # fixed even split of the length-2 job onto loads (2, 4): the drain
        # leaves (1.5, 2.5) and the arrival pays about 3.4667
        inst = Instance([1.0, 2.0], [1.5, 2.5], [2.0, 4.0])
        action = Action([0.5, 0.5])
        from lbgame import instantaneous_cost, state_transition

        before = ServerLoads([2.0, 4.0])
        cost = instantaneous_cost(inst, action, before, 1)
        after = state_transition(inst, before, 2.0 * action.fractions)
        trace = Trace([[1]], [[action.fractions]], [before.loads, after.loads], [[cost]])
        scripted = DynamicRun(
            inst, "sequential", order=(1,), max_steps=1, trace=trace
        )
        path = write_trace_csv({"sequential": scripted}, tmp_path / "scripted.csv")
        row = path.read_text().splitlines()[1].split(",")
        assert row[:3] == ["0", "sequential", "1"]
        assert float(row[3]) == 1.5
        assert float(row[4]) == 2.5
        assert float(row[6]) == pytest.approx(3.4667, abs=5e-4)

    def test_jsonl_round_trip(self, tmp_path):
        report = run_experiment(builtin_setting(5), seed=9, modes=("sequential", "simultaneous"))
        path = write_trace_jsonl(report.runs, tmp_path / "trace.jsonl")
        loaded = load_trace_jsonl(path)
        assert set(loaded) == {"sequential", "simultaneous"}
        for mode, run in report.runs.items():
            assert loaded[mode] == run.trace

    def test_jsonl_loads_one_trace_per_mode(self, tmp_path):
        report = run_experiment(builtin_setting(7), seed=4, modes=("sequential", "simultaneous"))
        loaded = load_trace_jsonl(write_trace_jsonl(report.runs, tmp_path / "trace.jsonl"))
        for mode, run in report.runs.items():
            assert isinstance(loaded[mode], Trace)
            assert len(loaded[mode]) == len(run.trace)
            assert np.array_equal(loaded[mode].loads, run.trace.loads)

    def test_jsonl_steps_must_chain(self, tmp_path):
        report = run_experiment(builtin_setting(5), seed=9, modes=("sequential",))
        lines = write_trace_jsonl(report.runs, tmp_path / "trace.jsonl").read_text().splitlines()
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join(lines[:3] + lines[4:]) + "\n")
        with pytest.raises(ValueError, match="sequential step 4 does not start where the last ended"):
            load_trace_jsonl(broken)

    def test_csv_values_round_trip_exactly(self, tmp_path):
        report = run_experiment(builtin_setting(5), seed=9, modes=("sequential",))
        path = export_trace(report, tmp_path / "trace.csv")
        lines = path.read_text().splitlines()
        run = report.sequential
        for line, record in zip(lines[1:], run.trace):
            cells = line.split(",")
            loads = np.array([float(c) for c in cells[3:7]])
            assert np.array_equal(loads, record.loads_after.loads)
            assert float(cells[7]) == record.total_load

    def test_export_writes_manifest(self, tmp_path):
        report = run_experiment(builtin_setting(5), seed=3, modes=("sequential",))
        path = export_trace(report, tmp_path / "trace.csv")
        manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
        assert manifest["setting"] == 5
        assert manifest["seed"] == 3
        assert manifest["instance"]["mu"] == [0.9, 0.8, 0.4, 0.01]
        assert "code_version" in manifest
        assert path.exists()

    def test_unknown_format_rejected(self, tmp_path):
        report = run_experiment(builtin_setting(5), seed=3, modes=("sequential",))
        with pytest.raises(ValueError, match="format"):
            export_trace(report, tmp_path / "trace.xml", "xml")

    def test_report_without_runs_rejected(self, tmp_path):
        report = ExperimentReport(
            setting_id="custom", seed=0, instance=builtin_setting(5).instance
        )
        with pytest.raises(ValueError, match="no dynamic runs"):
            export_trace(report, tmp_path / "nothing.csv")


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
            run_experiment(builtin_setting(3), seed=5, modes=("sequential",)),
            tmp_path / "g1.csv",
        )
        second = export_trace(
            run_experiment(builtin_setting(3), seed=5, modes=("sequential",)),
            tmp_path / "g2.csv",
        )
        assert first.read_bytes() == second.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        first = export_trace(
            run_experiment(builtin_setting(1), seed=1, modes=("sequential",)),
            tmp_path / "s1.csv",
        )
        second = export_trace(
            run_experiment(builtin_setting(1), seed=2, modes=("sequential",)),
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
