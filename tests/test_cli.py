import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from lbgame import builtin_setting, generate_instance, model, static
from lbgame.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def config_file(tmp_path):
    def write(payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    return write


class TestStaticCommand:
    def test_setting_one_reports_equilibrium_after_eight_updates(self, capsys):
        code, out, err = run_cli(capsys, "static", "--setting", "1")
        assert code == 0
        assert err == ""
        assert "updates=8 nash=true" in out
        assert out.count("update=") == 8

    def test_single_player_config(self, capsys, config_file):
        path = config_file({"instance": {"mu": [1.0, 2.0], "lambda": [1.5], "s0": [0, 0]}})
        code, out, _ = run_cli(capsys, "static", "--config", path)
        assert code == 0
        assert "updates=1 nash=true" in out

    def test_malformed_config_names_the_key(self, capsys, config_file):
        path = config_file({"instance": {"mu": [1.0], "lambda": [1.0], "rho": [1]}})
        code, out, err = run_cli(capsys, "static", "--config", path)
        assert code != 0
        assert err.count("\n") == 1
        assert "instance.rho" in err

    def test_writes_profile_file(self, capsys, tmp_path):
        out_path = tmp_path / "profile.json"
        code, out, _ = run_cli(capsys, "static", "--setting", "5", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["profile"]) == 4
        assert all(abs(sum(row) - 1.0) <= 1e-9 for row in payload["profile"])


class TestDynamicCommand:
    def test_setting_five_round_robin_prints_bounds(self, capsys):
        code, out, err = run_cli(
            capsys, "dynamic", "--setting", "5", "--order", "round-robin"
        )
        assert code == 0, err
        assert "converged_at=49" in out
        assert "full_support_bound=50" in out
        assert "zero_load_bound=91" in out
        assert "alternative_bound=15050" in out

    def test_setting_seven_simultaneous_runs(self, capsys):
        code, out, _ = run_cli(capsys, "dynamic", "--setting", "7", "--mode", "simul")
        assert code == 0
        assert "mode=simultaneous" in out
        # Backlog 10 + 50 = 60 shrinks by the surplus sum(mu) - sum(lambda)
        # = 4 - 3.8 = 0.2 per round, so it is empty after 300 rounds, on
        # round index 299.
        assert "converged_at=299" in out

    @pytest.mark.parametrize(
        "source, expected",
        [
            (
                {"setting": "7"},
                "mode=simultaneous steps=301 converged_at=299\n"
                "full_support_bound=25 zero_load_bound=800 alternative_bound=300\n",
            ),
            (
                {"instance": {"mu": [1], "lambda": [0.49, 0.49], "s0": [100]}},
                "mode=simultaneous steps=5002 converged_at=5000\n"
                "full_support_bound=100 zero_load_bound=10000 alternative_bound=5000\n",
            ),
        ],
        ids=["setting-7", "near-critical"],
    )
    def test_simultaneous_prints_merged_bounds(self, capsys, config_file, source, expected):
        # The bounds of the one player holding all the work, which is how the
        # simultaneous mode drains; the near-critical run drains only under
        # that instance's default horizon.
        if "setting" in source:
            argv = ["--setting", source["setting"]]
        else:
            argv = ["--config", config_file(source)]
        code, out, err = run_cli(capsys, "dynamic", *argv, "--mode", "simul")
        assert (code, out, err) == (0, expected, "")

    def test_unstable_simultaneous_refused_with_reason(self, capsys, config_file):
        path = config_file(
            {
                "instance": {
                    "mu": [3, 2, 1.5, 1.4, 1, 0.5, 0.2, 0.1],
                    "lambda": [2.5, 3, 4, 6, 5, 5, 5, 5],
                    "s0": [10, 10, 10, 10, 5, 4, 4, 1],
                }
            }
        )
        code, out, err = run_cli(capsys, "dynamic", "--config", path, "--mode", "simul")
        assert code != 0
        assert "total arrival rate exceeds the total service rate" in err
        assert err.count("\n") == 1
        # the same instance is fine one job at a time
        code, out, err = run_cli(capsys, "dynamic", "--config", path, "--mode", "seq", "--seed", "1")
        assert code == 0

    def test_over_budget_horizon_refused_with_reason(self, capsys, config_file):
        path = config_file({"instance": {"mu": [1], "lambda": [0.999999], "s0": [10]}})
        code, out, err = run_cli(capsys, "dynamic", "--config", path, "--seed", "1")
        assert code == 1
        assert out == ""
        assert err.startswith("lbgame: error: horizon of ")
        assert "over the limit of 67108864" in err
        assert err.count("\n") == 1

    def test_writes_trace_and_manifest(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys,
            "dynamic", "--setting", "5", "--order", "round-robin",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.exists()
        assert (tmp_path / "trace.csv.manifest.json").exists()
        assert f"trace_file={out_path}" in out

    def test_explicit_order_file(self, capsys, tmp_path):
        order_path = tmp_path / "order.json"
        order_path.write_text("[0, 1, 2, 3]")
        code, out, _ = run_cli(
            capsys, "dynamic", "--setting", "5", "--order", str(order_path)
        )
        assert code == 0
        assert "converged_at=49" in out

    def test_explicit_order_in_config(self, capsys, config_file):
        path = config_file({"run": {"order": [0, 1, 2, 3]}})
        code, out, _ = run_cli(capsys, "dynamic", "--setting", "5", "--config", path)
        assert code == 0
        assert "converged_at=49" in out

    @pytest.mark.parametrize("text", ["0 1\n2 3\n", "3"], ids=["whitespace", "one-index"])
    def test_whitespace_order_file(self, capsys, tmp_path, text):
        order_path = tmp_path / "order.txt"
        order_path.write_text(text)
        code, out, _ = run_cli(capsys, "dynamic", "--setting", "5", "--order", str(order_path))
        assert code == 0
        assert "converged_at=49" in out

    def test_flags_override_config(self, capsys, config_file, tmp_path):
        path = config_file(
            {
                "instance": {"mu": [0.9, 0.8, 0.4, 0.01], "lambda": [0.5, 0.5, 0.3, 0.7],
                             "s0": [10, 10, 1, 0.5]},
                "run": {"mode": "simul", "order": "round-robin"},
            }
        )
        code, out, _ = run_cli(capsys, "dynamic", "--config", path, "--mode", "seq")
        assert code == 0
        assert "mode=sequential" in out

    def test_fresh_seed_announced_when_omitted(self, capsys):
        code, out, _ = run_cli(capsys, "dynamic", "--setting", "5", "--order", "random")
        assert code == 0
        assert "seed=" in out

    def test_seeded_runs_are_reproducible(self, capsys, tmp_path):
        args = ("dynamic", "--setting", "5", "--seed", "21")
        outs = []
        for name in ("r1.csv", "r2.csv"):
            path = tmp_path / name
            code, out, _ = run_cli(capsys, *args, "--out", str(path))
            assert code == 0
            assert "seed=" not in out
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestSeedContract:
    """A command prints ``seed=N`` once where it draws a seed it was not
    given: for a generated setting, for a sequential run in random order,
    and always for ``settings run``."""

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (("static", "--setting", "1"), 0),
            (("dynamic", "--setting", "5", "--mode", "simul"), 0),
            (("dynamic", "--setting", "5", "--order", "round-robin"), 0),
            (("dynamic", "--config", "{tmp}/seeded.json"), 0),
            (("dynamic", "--setting", "3", "--config", "{tmp}/seeded.json"), 0),
            (("static", "--setting", "2"), 1),
            (("poa", "--setting", "3"), 1),
            (("dynamic", "--setting", "3"), 1),
            (("dynamic", "--setting", "3", "--mode", "simul"), 1),
            (("settings", "run", "5", "--out", "{tmp}"), 1),
        ],
    )
    def test_seed_lines(self, capsys, tmp_path, argv, lines):
        seeded = {"instance": {"mu": [1.0, 2.0], "lambda": [0.5, 1.0]}, "run": {"seed": 7}}
        (tmp_path / "seeded.json").write_text(json.dumps(seeded))
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert (code, err) == (0, "")
        assert [l.startswith("seed=") for l in out.splitlines()].count(True) == lines

    def test_drawn_seed_reruns_the_same_run(self, capsys, tmp_path):
        # The printed seed, passed back, repeats the run: the same summary
        # and trace, and a manifest that records that seed.
        def run(name, *extra):
            path = tmp_path / f"{name}.csv"
            code, out, _ = run_cli(capsys, "dynamic", "--setting", "3", *extra, "--out", str(path))
            assert code == 0
            manifest = json.loads(Path(f"{path}.manifest.json").read_text())
            return out.replace(str(path), "TRACE").splitlines(), path.read_bytes(), manifest

        (announced, *summary), trace, manifest = run("drawn")
        seed = int(announced.removeprefix("seed="))
        assert run("given", "--seed", str(seed)) == (summary, trace, manifest)
        assert manifest["seed"] == seed


class TestPoaCommand:
    def test_empty_queue_instance_shows_cap_of_three(self, capsys, config_file):
        path = config_file({"instance": {"mu": [1.5, 2.5], "lambda": [1, 2], "s0": [0, 0]}})
        code, out, _ = run_cli(capsys, "poa", "--config", path)
        assert code == 0
        assert "poa_upper_bound=3.0" in out

    def test_setting_one_ratio_below_bound(self, capsys):
        code, out, _ = run_cli(capsys, "poa", "--setting", "1")
        assert code == 0
        values = dict(
            line.split("=") for line in out.strip().splitlines() if "=" in line
        )
        assert float(values["empirical_poa"]) <= float(values["poa_upper_bound"])

    def test_trivial_instance_ratio_is_one(self, capsys, config_file):
        path = config_file({"instance": {"mu": [1.5], "lambda": [2.0], "s0": [3.0]}})
        code, out, _ = run_cli(capsys, "poa", "--config", path)
        assert code == 0
        values = dict(
            line.split("=") for line in out.strip().splitlines() if "=" in line
        )
        assert float(values["empirical_poa"]) == pytest.approx(1.0, abs=1e-9)

    def test_prices_the_equilibrium_once(self, capsys, monkeypatch):
        # The social cost, the bound and their ratio come from one pricing.
        calls, priced = [], model.player_costs

        def counted(*args):
            calls.append(args)
            return priced(*args)

        for module in (model, static):
            monkeypatch.setattr(module, "player_costs", counted)
        code, out, _ = run_cli(capsys, "poa", "--setting", "3", "--seed", "1")
        assert code == 0 and "empirical_poa=" in out
        assert len(calls) == 1


class TestSettingsCommand:
    def test_list_prints_all_seven(self, capsys):
        code, out, _ = run_cli(capsys, "settings", "list")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("setting ")]
        assert len(lines) == 7
        assert "mu=[0.9, 0.8, 0.4, 0.01]" in out

    def test_run_exports_deterministic_traces(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            code, out, _ = run_cli(
                capsys, "settings", "run", "1", "--seed", "42", "--out", str(d)
            )
            assert code == 0
            assert (d / "setting_1_trace.csv").exists()
            assert (d / "setting_1_trace.csv.manifest.json").exists()
        assert (d1 / "setting_1_trace.csv").read_bytes() == (
            d2 / "setting_1_trace.csv"
        ).read_bytes()

    def test_run_prints_both_dynamic_modes(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "settings", "run", "5", "--seed", "1", "--out", str(tmp_path)
        )
        assert code == 0
        assert "sequential" in out and "simultaneous" in out

    def test_unknown_setting_fails_cleanly(self, capsys):
        code, out, err = run_cli(capsys, "settings", "run", "9")
        assert code != 0
        assert "unknown setting" in err
        assert err.count("\n") == 1


class TestErrorSurface:
    def test_no_instance_given(self, capsys):
        code, out, err = run_cli(capsys, "static")
        assert code == 1
        assert err.startswith("lbgame: error:")

    def test_bad_usage_is_single_line(self, capsys):
        code, out, err = run_cli(capsys, "dynamic", "--mode", "bogus")
        assert code == 2
        assert err.count("\n") == 1
        assert err.startswith("lbgame: error:")

    @pytest.mark.parametrize(
        "argv, config, code, key",
        [
            (("static",), {"output": {"path": 5}}, 1, "output.path"),
            (("dynamic",), {"output": {"path": 5}}, 1, "output.path"),
            (("dynamic",), {"run": {"order": 5}}, 1, "run.order"),
            (("dynamic",), {"run": {"order": {}}}, 1, "run.order"),
            (("dynamic",), {"run": {"order": [0, "a"]}}, 1, "run.order"),
            (("dynamic",), {"run": {"seed": "x"}}, 1, "run.seed"),
            (("static",), {"run": {"seed": "x"}}, 1, "run.seed"),
            (("poa",), {"run": {"seed": "x"}}, 1, "run.seed"),
            (("dynamic",), {"run": {"seed": 1.7}}, 1, "run.seed"),
            (("dynamic",), {"run": {"seed": True}}, 1, "run.seed"),
            (("dynamic",), {"run": {"seed": -3}}, 1, "run.seed"),
            (("dynamic",), {"output": {"path": "t.csv", "format": "xml"}}, 1, "output.format"),
            (("dynamic",), {"run": {"order": "round-robin", "max_steps": True}}, 1, "max_steps"),
            (("dynamic", "--seed", "-3"), {}, 2, "--seed"),
            (("dynamic", "--seed", "x"), {}, 2, "--seed"),
            (("settings", "run", "1", "--seed", "-3"), None, 2, "--seed"),
            (("static",), {"run": {"mode": "bogus"}}, 1, "run.mode"),
            (("dynamic",), {"run": {"mode": "bogus"}}, 1, "run.mode"),
            (("poa",), {"run": {"mode": "bogus"}}, 1, "run.mode"),
            (("static",), {"run": {"mode": 5}}, 1, "run.mode"),
            (("dynamic",), {"run": {"mode": 5}}, 1, "run.mode"),
            (("poa",), {"run": {"mode": 5}}, 1, "run.mode"),
            (("dynamic",), {"run": {"max_steps": "3"}}, 1, "run.max_steps"),
            (("dynamic",), {"run": {"max_steps": 0}}, 1, "run.max_steps"),
            (("static",), {"instance": {"mu": [True], "lambda": [0.5]}}, 1, "instance.mu"),
            # The whole config is checked, also an instance --setting overrides.
            (
                ("poa", "--setting", "1"),
                {"instance": {"mu": [True], "lambda": [0.5]}},
                1,
                "instance.mu",
            ),
            (("static",), {"instance": {"mu": [10**400], "lambda": [0.5]}}, 1, "service_rates"),
            (("dynamic", "--setting", "5", "--max-steps", "0"), None, 2, "--max-steps"),
            (("dynamic", "--setting", "5", "--max-steps", "-3"), None, 2, "--max-steps"),
            (("settings", "run", "5", "--max-steps", "0"), None, 2, "--max-steps"),
            (("settings", "run", "5", "--max-steps", "x"), None, 2, "--max-steps"),
            (("static",), {"runs": {}}, 1, "unknown config key: runs"),
            (("static",), {"run": 5}, 1, "config key run must be an object"),
            (("static",), {"instance": {"mu": [1.0]}}, 1, "needs both mu and lambda"),
        ],
    )
    def test_bad_value_is_one_line_naming_its_key(self, capsys, config_file, argv, config, code, key):
        # Each bad value fails before the run starts, as one line that names
        # the config key or the flag.
        instance = {"instance": {"mu": [1.0, 2.0], "lambda": [0.5, 1.0]}}
        extra = () if config is None else ("--config", config_file({**instance, **config}))
        got, out, err = run_cli(capsys, *argv, *extra)
        assert (got, out) == (code, "")
        assert err.count("\n") == 1
        assert err.startswith("lbgame: error:")
        assert key in err

    @pytest.mark.parametrize("text", ["0 a", "[0.5, 1, true]", "[]", "", '{"order": [0]}'])
    def test_bad_order_file_is_one_line_naming_it(self, capsys, tmp_path, text):
        path = tmp_path / "order.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "dynamic", "--setting", "5", "--order", str(path))
        assert (code, out) == (1, "")
        assert err == f"lbgame: error: order file {path} must hold a non-empty list of indices\n"

    def test_config_not_an_object(self, capsys, config_file):
        code, out, err = run_cli(capsys, "static", "--config", config_file([{"run": {}}]))
        assert (code, out) == (1, "")
        assert err == "lbgame: error: config must be a JSON object\n"

    def test_config_not_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out, err = run_cli(capsys, "static", "--config", str(path))
        assert code == 1
        assert "not valid JSON" in err

    @pytest.mark.parametrize(
        "instance",
        [
            {"mu": [1e-10, 1.0], "lambda": [0.5], "s0": [1e300, 0]},
            {"mu": [1.0000000000000002], "lambda": [1.0], "s0": [1e300]},
        ],
        ids=["stalled", "critical"],
    )
    def test_overflowing_bound_is_one_line(self, capsys, config_file, instance):
        path = config_file({"instance": instance})
        code, out, err = run_cli(capsys, "dynamic", "--config", path, "--seed", "1")
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert "bound is not finite" in err

    @pytest.mark.parametrize("command", ["static", "poa"])
    def test_overflow_is_one_line(self, capsys, config_file, command):
        # numpy's overflow warnings would print before the error line
        instance = {"mu": [1e160, 0.7e160], "lambda": [0.5e160, 0.3e160], "s0": [10e160, 3e160]}
        code, out, err = run_cli(capsys, command, "--config", config_file({"instance": instance}))
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert "overflow float64" in err

    @pytest.mark.parametrize(
        "command, divisor",
        [("poa", "optimum bound"), ("dynamic", "the alternative bound's smallest decrease")],
    )
    def test_underflow_is_one_line(self, capsys, config_file, command, divisor):
        # Scaled by 1e-170, the optimum bound and the alternative bound's
        # smallest decrease round to 0: each is named, not divided by.
        instance = {"mu": [1e-170, 2e-170], "lambda": [1e-170, 0.5e-170], "s0": [0, 1e-170]}
        path = config_file({"instance": instance})
        code, _, err = run_cli(capsys, command, "--config", path, "--seed", "1")
        assert code == 1
        reason = "the instance's magnitudes underflow float64"
        assert err == f"lbgame: error: {divisor} is 0: {reason}\n"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lbgame", "settings", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("setting ") == 7


def test_static_profile_keeps_its_bytes_across_blas_threads(tmp_path):
    # Every sum of the players' work is numpy's einsum, never BLAS, whose
    # summation order can follow its thread count. So a run keeps its bytes
    # under 1 and 2 OpenBLAS threads: at setting 2's size (500 x 200), and
    # at 1000 x 500 on setting 2's ranges, where a BLAS sum did not.
    spec = replace(builtin_setting(2).generator, num_players=1000, num_servers=500)
    inst = generate_instance(spec, 1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"instance": {
        "mu": inst.service_rates.tolist(),
        "lambda": inst.job_lengths.tolist(),
        "s0": inst.initial_loads.tolist(),
    }}))
    source = str(Path(model.__file__).parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        for name, argv in [
            ("setting-2", ["static", "--setting", "2", "--seed", "1"]),
            ("large", ["static", "--config", config]),
            ("large-poa", ["poa", "--config", config]),
        ]:
            # One path for both counts, as stdout names it.
            path = tmp_path / f"{name}.json"
            out = ["--out", path] if argv[0] == "static" else []
            proc = subprocess.run(
                [sys.executable, "-m", "lbgame", *argv, *out],
                env=env,
                capture_output=True,
                check=True,
            )
            runs[name, threads] = proc.stdout, path.read_bytes() if out else None
    for name in ("setting-2", "large", "large-poa"):
        assert runs[name, "1"] == runs[name, "2"], name
