import json
import subprocess
import sys

import pytest

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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lbgame", "settings", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.count("setting ") == 7
