import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermocap.cli as cli
from thermocap import BoundReport


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "pointmass4": _write(tmp_path, "pointmass4.json", {"probs": [1, 0, 0, 0]}),
        "uniform4": _write(tmp_path, "uniform4.json", {"probs": [0.25, 0.25, 0.25, 0.25]}),
        "identity4": _write(
            tmp_path,
            "identity4.json",
            {"matrix": np.eye(4).tolist(), "dim_in": 4, "dim_out": 4},
        ),
        "bsc01": _write(
            tmp_path, "bsc01.json", {"matrix": [[0.9, 0.1], [0.1, 0.9]], "dim_in": 2, "dim_out": 2}
        ),
        "ham2": _write(tmp_path, "ham2.json", {"levels": [0.0, 0.0], "units": "kT"}),
        "state2": _write(tmp_path, "state2.json", {"probs": [0.9, 0.1]}),
        "phi2": _write(tmp_path, "phi2.json", {"probs": [[0.5, 0.0], [0.0, 0.5]]}),
        "tmp": tmp_path,
    }


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEntropyCommands:
    def test_d0_point_mass_vs_uniform(self, capsys, files):
        code, out, _ = _run(capsys, ["entropy", "d0", "--p", files["pointmass4"],
                                     "--q", files["uniform4"], "--eps", "0.1"])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["bits"] == 2.0
        assert report["result"]["witness"] == [0]
        assert report["version"]
        assert report["seed"] == 0

    def test_dh_and_rel(self, capsys, files):
        code, out, _ = _run(capsys, ["entropy", "dh", "--p", files["pointmass4"],
                                     "--q", files["uniform4"], "--eps", "0.1"])
        assert code == 0
        assert json.loads(out)["result"]["bits"] > 2.0
        code, out, _ = _run(capsys, ["entropy", "rel", "--p", files["pointmass4"],
                                     "--q", files["uniform4"]])
        assert code == 0
        assert json.loads(out)["result"]["bits"] == 2.0

    def test_d0_above_thirty_runs_branch_and_bound(self, capsys, files):
        rng = np.random.default_rng(40)
        p = _write(files["tmp"], "p40.json", {"probs": rng.dirichlet(np.ones(40)).tolist()})
        q = _write(files["tmp"], "q40.json", {"probs": rng.dirichlet(np.ones(40)).tolist()})
        code, out, _ = _run(capsys, ["entropy", "d0", "--p", p, "--q", q, "--eps", "0.2"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["method"] == "branch_and_bound"
        assert result["bracket"] == [result["bits"], result["bits"]]
        code, _, _ = _run(capsys, ["entropy", "d0", "--p", p, "--q", q, "--eps", "0.2",
                                   "--allow-heuristic"])
        assert code == 1  # the flag is gone: a usage error


class TestCapacityCommand:
    def test_identity_perfect(self, capsys, files):
        code, out, _ = _run(capsys, ["capacity", "--channel", files["identity4"], "--eps", "0"])
        assert code == 0
        assert json.loads(out)["result"]["bits"] == 2.0

    def test_theta_variant(self, capsys, files):
        code, out, _ = _run(capsys, ["capacity", "--channel", files["bsc01"],
                                     "--eps", "0.15", "--theta", "0.15"])
        assert code == 0
        assert json.loads(out)["result"]["bits"] == 1.0


    def test_module_entry_point(self, files):
        # python -m thermocap.cli runs the same front end as the script
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "thermocap.cli", "capacity", "--channel", files["identity4"],
             "--eps", "0"],
            capture_output=True, env=env, cwd=files["tmp"], timeout=120,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["command"] == "capacity"
        assert report["result"]["bits"] == 2.0
        assert report["result"]["codebook_inputs"] == [0, 1, 2, 3]


class TestWorkCommands:
    def test_workext(self, capsys, files):
        code, out, _ = _run(capsys, ["workext", "--state", files["state2"],
                                     "--hamiltonian", files["ham2"], "--eps", "0.15"])
        assert code == 0
        result = json.loads(out)["result"]
        assert abs(result["value_kT"] - math.log(2)) < 0.1

    @pytest.mark.parametrize("delta", ["nan", "inf", "-0.1"])
    def test_bad_delta_is_an_error(self, capsys, files, delta):
        for argv in (["workext", "--state", files["state2"], "--hamiltonian", files["ham2"]],
                     ["wcorr", "--joint", files["phi2"]]):
            code, out, err = _run(capsys, argv + ["--eps", "0.15", "--delta", delta])
            assert code == 1
            assert out == ""
            assert err.startswith("error:")

    def test_wcorr_with_temperature(self, capsys, files):
        code, out, _ = _run(capsys, ["--temperature", "2.0", "wcorr", "--joint", files["phi2"],
                                     "--eps", "0.05"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["temperature"] == 2.0
        assert abs(result["value_kBT_units"] - 2.0 * result["value_kT"]) < 1e-12


class TestBoundsCommands:
    def test_thm2_consistent(self, capsys, files):
        code, out, _ = _run(capsys, ["bounds", "thm2", "--channel", files["bsc01"],
                                     "--eps", "0.15", "--omega", "0.075", "--delta", "0.05"])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["verdict"] == "consistent"
        assert report["result"]["capacity"] == 1.0

    def test_thm4_and_prop2(self, capsys, files):
        code, out, _ = _run(capsys, ["bounds", "thm4", "--channel", files["identity4"],
                                     "--eps", "0.2", "--omega", "0.1", "--delta", "0.05"])
        assert code == 0
        assert json.loads(out)["result"]["verdict"] == "consistent"
        code, out, _ = _run(capsys, ["bounds", "prop2", "--channel", files["bsc01"],
                                     "--eps", "0.1", "--theta", "0.1"])
        assert code == 0
        assert json.loads(out)["result"]["verdict"] == "consistent"

    @pytest.mark.parametrize("argv, key, capacity", [
        (["bounds", "thm2", "--eps", "0.15", "--omega", "0.075", "--delta", "0.05"],
         "capacity", math.log2(6)),
        (["bounds", "thm4", "--eps", "0.2", "--omega", "0.1", "--delta", "0.05"],
         "capacity", math.log(2) * math.log2(6)),
        (["bounds", "prop2", "--eps", "0.1", "--theta", "0.1"], "capacity", math.log2(6)),
        (["landauer", "--eps", "0.01", "--trials", "20000"], "bits", math.log2(6)),
    ])
    def test_six_message_codebook(self, capsys, files, argv, key, capacity):
        # the checkers build a 6 x 6 joint: 36 outcomes for the subset solver
        identity6 = _write(files["tmp"], "identity6.json",
                           {"matrix": np.eye(6).tolist(), "dim_in": 6, "dim_out": 6})
        code, out, _ = _run(capsys, argv + ["--channel", identity6])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["verdict"] == "consistent"
        assert result[key] == pytest.approx(capacity, abs=1e-12)

    def test_violation_exit_code(self, capsys, files, monkeypatch):
        fake = BoundReport(
            lower_estimate=5.0, capacity=1.0, upper_witness_value=0.0,
            error_terms={}, witnesses={}, verdict="violation: fabricated for the exit-code test",
        )
        monkeypatch.setattr(cli, "capacity_entropic_bounds", lambda *a, **k: fake)
        code, _, _ = _run(capsys, ["bounds", "thm2", "--channel", files["bsc01"],
                                   "--eps", "0.15", "--omega", "0.075", "--delta", "0.05"])
        assert code == 2


class TestLandauerCommand:
    def test_round_trip_and_determinism(self, capsys, files):
        argv = ["landauer", "--channel", files["identity4"], "--eps", "0.01",
                "--trials", "20000", "--seed", "3"]
        # --seed is a global flag; place it before the subcommand
        argv = ["--seed", "3", "landauer", "--channel", files["identity4"],
                "--eps", "0.01", "--trials", "20000"]
        code, out1, _ = _run(capsys, argv)
        assert code == 0
        code, out2, _ = _run(capsys, argv)
        assert out1 == out2  # byte-identical reruns
        result = json.loads(out1)["result"]
        assert result["bits"] == 2.0


class TestAsymptoticsCommands:
    def test_stein_csv(self, capsys, files):
        code, out, _ = _run(capsys, ["--format", "csv", "asymptotics", "stein",
                                     "--p", files["state2"], "--q", files["uniform4"]])
        assert code == 1  # dimension mismatch is a clean error
        code, out, _ = _run(capsys, ["--format", "csv", "asymptotics", "stein",
                                     "--p", files["state2"],
                                     "--q", _write(files["tmp"], "u2.json", {"probs": [0.5, 0.5]}),
                                     "--eps", "0.05", "--nmax", "50"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,value,target"
        assert len(lines) > 5

    def test_capacity_series(self, capsys, files):
        code, out, _ = _run(capsys, ["asymptotics", "capacity-series", "--channel",
                                     files["bsc01"], "--eps", "0.1", "--kmax", "2"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["points"][0] == [1, 1.0]

    def test_chi_bar(self, capsys, files):
        code, out, _ = _run(capsys, ["asymptotics", "chi-bar", "--channel", files["bsc01"],
                                     "--theta", "0.25"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["bits_lower_estimate"] >= 0.5


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, ["capacity", "--channel", "/nope.json", "--eps", "0.1"])
        assert code == 1
        assert "error" in err

    def test_bad_usage(self, capsys, files):
        code, _, err = _run(capsys, ["entropy", "d0", "--p", files["pointmass4"],
                                     "--q", files["uniform4"]])  # missing --eps
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = _run(capsys, ["frobnicate"])
        assert code == 1

    def test_out_file(self, capsys, files, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = _run(capsys, ["--out", str(out_path), "entropy", "rel",
                                     "--p", files["pointmass4"], "--q", files["uniform4"]])
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["result"]["bits"] == 2.0
