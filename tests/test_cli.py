import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thermocap.cli as cli
from thermocap import BoundReport, asymptotics


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
        "u2": _write(tmp_path, "u2.json", {"probs": [0.5, 0.5]}),
        "tmp": tmp_path,
    }


def _src_env():
    """Environment for a fresh interpreter that imports this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _with_files(argv, files):
    """Replace fixture names in an argv template by their paths."""
    return [files.get(a, a) for a in argv]


#: one case per benchmark CLI variant: argv template, command, echoed params
CLI_CASES = [
    (["entropy", "d0", "--p", "pointmass4", "--q", "uniform4", "--eps", "0.1"],
     "entropy d0", {"p", "q", "eps"}),
    (["entropy", "dh", "--p", "pointmass4", "--q", "uniform4", "--eps", "0.1"],
     "entropy dh", {"p", "q", "eps"}),
    (["entropy", "rel", "--p", "pointmass4", "--q", "uniform4"],
     "entropy rel", {"p", "q", "eps"}),
    (["capacity", "--channel", "bsc01", "--eps", "0.1"],
     "capacity", {"channel", "eps", "theta", "max_m", "randomized"}),
    (["capacity", "--channel", "bsc01", "--eps", "0.15", "--theta", "0.25"],
     "capacity", {"channel", "eps", "theta", "max_m", "randomized"}),
    (["workext", "--state", "state2", "--hamiltonian", "ham2", "--eps", "0.15"],
     "workext", {"state", "hamiltonian", "eps", "delta", "ecut", "ksteps", "schedule"}),
    (["wcorr", "--joint", "phi2", "--eps", "0.05"],
     "wcorr", {"joint", "eps", "delta", "ecut", "ksteps", "schedule"}),
    (["bounds", "thm2", "--channel", "bsc01", "--eps", "0.15", "--omega", "0.075",
      "--delta", "0.05"], "bounds thm2", {"channel", "eps", "omega", "delta", "theta"}),
    (["bounds", "thm4", "--channel", "identity4", "--eps", "0.2", "--omega", "0.1",
      "--delta", "0.05"], "bounds thm4", {"channel", "eps", "omega", "delta", "theta"}),
    (["bounds", "prop2", "--channel", "bsc01", "--eps", "0.1", "--theta", "0.1"],
     "bounds prop2", {"channel", "eps", "omega", "delta", "theta"}),
    (["landauer", "--channel", "identity4", "--eps", "0.01", "--trials", "1000"],
     "landauer", {"channel", "eps", "trials"}),
    (["asymptotics", "stein", "--p", "state2", "--q", "u2", "--eps", "0.05"],
     "asymptotics stein", {"p", "q", "eps", "nmax"}),
    (["asymptotics", "capacity-series", "--channel", "bsc01", "--eps", "0.1", "--kmax", "2"],
     "asymptotics capacity-series", {"channel", "eps", "kmax", "theta"}),
    (["asymptotics", "chi-bar", "--channel", "bsc01", "--theta", "0.25"],
     "asymptotics chi-bar", {"channel", "theta", "max_m"}),
]


def _kT_values(result):
    """(value, its `*_kBT_units` twin or None) for every `*_kT` key at any
    depth of nested dicts."""
    for key, val in result.items():
        if isinstance(val, dict):
            yield from _kT_values(val)
        elif key.endswith("_kT"):
            yield val, result.get(key[: -len("_kT")] + "_kBT_units")


class TestParamsEcho:
    # the params echo is every flag the subcommand declares, with no global
    # flag or selector among them
    @pytest.mark.parametrize("argv, command, params", CLI_CASES)
    def test_command_and_params(self, capsys, files, argv, command, params):
        code, out, _ = _run(capsys, ["--seed", "5", "--temperature", "2.0"]
                            + _with_files(argv, files))
        assert code == 0
        report = json.loads(out)
        assert report["command"] == command
        assert set(report["params"]) == params
        assert report["seed"] == 5
        # input files are echoed as the paths given, not as their contents
        for name in params & {"p", "q", "state", "hamiltonian", "joint", "channel"}:
            assert report["params"][name] == files[argv[argv.index(f"--{name}") + 1]]


class TestTemperature:
    @pytest.mark.parametrize("argv", [case[0] for case in CLI_CASES],
                             ids=[case[1] for case in CLI_CASES])
    def test_every_kT_value_has_a_rescaled_twin(self, capsys, files, argv):
        # at any depth: bounds thm2 and thm4 keep theirs under error_terms
        # and witnesses
        code, out, _ = _run(capsys, ["--temperature", "2"] + _with_files(argv, files))
        assert code == 0
        result = json.loads(out)["result"]
        pairs = list(_kT_values(result))
        for value, twin in pairs:
            if value is None:
                assert twin is None
            else:
                assert np.array_equal(np.asarray(twin, dtype=float),
                                      2.0 * np.asarray(value, dtype=float))
        assert ("temperature" in result) == bool(pairs)
        if pairs:
            assert result["temperature"] == 2.0

    def test_unit_temperature_moves_no_byte(self, capsys, files):
        argv = _with_files(["bounds", "thm4", "--channel", "identity4", "--eps", "0.2",
                            "--omega", "0.1", "--delta", "0.05"], files)
        outs = [_run(capsys, flags + argv) for flags in ([], ["--temperature", "1"])]
        assert outs[0] == outs[1]
        assert "kBT_units" not in outs[0][1] and "temperature" not in json.loads(outs[0][1])["result"]


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

    def test_d0_full_mass_is_positive_zero(self, capsys, files):
        # a witness of reference mass 1 is worth 0 bits: +0.0, never -0.0
        code, out, _ = _run(capsys, ["entropy", "d0", "--p", files["u2"],
                                     "--q", files["u2"], "--eps", "0.1"])
        assert code == 0
        assert "-0.0" not in out
        result = json.loads(out)["result"]
        assert result["witness"] == [0, 1]
        assert result["bracket"] == [0.0, 0.0]
        assert all(math.copysign(1.0, v) == 1.0 for v in [result["bits"], *result["bracket"]])

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

    def test_randomized_is_one_error_line(self, capsys, files):
        # the random codebook sampler is gone; the flag stays declared so
        # recorded params keep "randomized": false
        code, out, err = _run(capsys, ["capacity", "--channel", files["bsc01"], "--eps", "0.1",
                                       "--randomized"])
        assert (code, out) == (1, "")
        assert err.startswith("error: --randomized is gone") and err.count("\n") == 1

    def test_module_entry_point(self, files):
        # python -m thermocap.cli runs the same front end as the script
        proc = subprocess.run(
            [sys.executable, "-m", "thermocap.cli", "capacity", "--channel", files["identity4"],
             "--eps", "0"],
            capture_output=True, env=_src_env(), cwd=files["tmp"], timeout=120,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["command"] == "capacity"
        assert report["result"]["bits"] == 2.0
        assert report["result"]["codebook_inputs"] == [0, 1, 2, 3]

    def test_package_entry_point(self, files):
        # python -m thermocap runs the front end too
        proc = subprocess.run(
            [sys.executable, "-m", "thermocap", "--help"],
            capture_output=True, env=_src_env(), cwd=files["tmp"], timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().startswith("usage: thermocap")


def _four_level_workext(tmp_path, e_cut):
    state = _write(tmp_path, "state4.json", {"probs": [0.55, 0.25, 0.15, 0.05]})
    ham = _write(tmp_path, "ham4.json", {"levels": [0.0, 0.4, 1.1, 2.0], "units": "kT"})
    return ["workext", "--state", state, "--hamiltonian", ham, "--eps", "0.1", "--ecut", e_cut]


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

    @pytest.mark.parametrize("e_cut", ["nan", "inf"])
    @pytest.mark.parametrize("probs, levels, eps", [
        # every level retained: the quench energy went unused and unchecked
        ([0.47871047503679964, 0.5212895249632004], [2.482971073220786, 0.7315946405081437],
         "0.0783"),
        # a level quenched: the error named the levels, not the flag
        ([0.7814962641979943, 0.14621189590411063, 0.07229183989789505],
         [0.16208484972490333, 1.6112170281591625, 1.4465936702454167], "0.1284"),
    ])
    def test_bad_ecut_is_an_error(self, capsys, files, e_cut, probs, levels, eps):
        state = _write(files["tmp"], "state.json", {"probs": probs})
        ham = _write(files["tmp"], "ham.json", {"levels": levels, "units": "kT"})
        code, out, err = _run(capsys, ["workext", "--state", state, "--hamiltonian", ham,
                                       "--eps", eps, "--ecut", e_cut])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "e_cut" in err

    @pytest.mark.parametrize("delta", [[], ["--delta", "0.1"]])
    def test_huge_cut_energy_answers_coarsened(self, capsys, files, delta):
        # 1e16 kT is 1e20 cells of the starting grid, more than an int64 holds
        code, out, err = _run(capsys, _four_level_workext(files["tmp"], "1e16") + delta)
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert result["distribution_mode"] == "coarsened"
        assert 0.0 < result["grid_error_kT"] < math.inf

    def test_coarsened_answer_does_not_depend_on_the_seed(self, capsys, files):
        argv = _four_level_workext(files["tmp"], "2000")
        results = []
        for seed in ("0", "5"):
            code, out, _ = _run(capsys, ["--seed", seed] + argv)
            assert code == 0
            results.append(json.loads(out)["result"])
        assert results[0]["distribution_mode"] == "coarsened"
        assert json.dumps(results[0]) == json.dumps(results[1])

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

    def test_runtime_loads_no_scipy(self, files):
        # numpy is the only runtime dependency: a fresh process answering
        # stein, D_H, work and capacity questions through the CLI never
        # imports scipy (the capacity search's converse needs no LP solver),
        # nor numpy.ma (which np.unique pulls in on first use)
        u2 = _write(files["tmp"], "u2.json", {"probs": [0.5, 0.5]})
        argvs = [
            ["asymptotics", "stein", "--p", files["state2"], "--q", u2, "--eps", "0.05",
             "--nmax", "200"],
            ["entropy", "dh", "--p", files["pointmass4"], "--q", files["uniform4"], "--eps", "0.1"],
            ["workext", "--state", files["state2"], "--hamiltonian", files["ham2"],
             "--eps", "0.15"],
            ["wcorr", "--joint", files["phi2"], "--eps", "0.05"],
            ["capacity", "--channel", files["bsc01"], "--eps", "0.1"],
            ["capacity", "--channel", files["bsc01"], "--eps", "0.15", "--theta", "0.25"],
            ["bounds", "prop2", "--channel", files["bsc01"], "--eps", "0.1", "--theta", "0.1"],
        ]
        script = (
            "import json, sys\n"
            "import thermocap.cli as cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argvs)],
            capture_output=True, env=_src_env(), cwd=files["tmp"], timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()

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

    @pytest.fixture
    def stalled(self, files, monkeypatch):
        """A 4 x 2 channel on which alternating maximisation stalls: its
        bracket is still 6.4e-9 wide after 2 x 10^5 steps.  A budget of 1000
        steps leaves it open just as well, and fast."""
        monkeypatch.setattr(asymptotics, "ITERATION_BUDGET", 1000)
        w0 = [4.22e-9, 0.01034, 0.09280, 4.66e-6]
        return _write(files["tmp"], "stalled.json", {"matrix": [w0, [1.0 - w for w in w0]]})

    def test_chi_bar_labels_an_open_capacity_bracket(self, capsys, stalled):
        code, out, _ = _run(capsys, ["asymptotics", "chi-bar", "--channel", stalled,
                                     "--theta", "0.25"])
        assert code == 0
        result = json.loads(out)["result"]
        lower, upper = result["unconstrained_capacity_bracket"]
        assert lower == result["unconstrained_capacity_bits"]
        assert upper - lower >= asymptotics.CAPACITY_TOL

    def test_capacity_series_labels_an_open_target_bracket(self, capsys, stalled):
        code, out, _ = _run(capsys, ["asymptotics", "capacity-series", "--channel", stalled,
                                     "--eps", "0.1"])
        assert code == 0
        result = json.loads(out)["result"]
        lower, upper = result["target_bracket"]
        assert lower == result["target"]
        assert upper - lower >= asymptotics.CAPACITY_TOL

    def test_capacity_series_csv_keeps_labels_and_an_open_bracket(self, capsys, stalled):
        argv = ["asymptotics", "capacity-series", "--channel", stalled, "--eps", "0.1"]
        code, out, _ = _run(capsys, argv)
        assert code == 0
        result = json.loads(out)["result"]
        code, out, _ = _run(capsys, ["--format", "csv"] + argv)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,value,target,label,target_lower,target_upper"
        lower, upper = result["target_bracket"]
        assert [line.split(",") for line in lines[1:]] == [
            [str(n), str(v), str(result["target"]), label, str(lower), str(upper)]
            for (n, v), label in zip(result["points"], result["labels"])]

    def test_capacity_series_csv_closed_target_has_labels_only(self, capsys, files):
        code, out, _ = _run(capsys, ["--format", "csv", "asymptotics", "capacity-series",
                                     "--channel", files["bsc01"], "--eps", "0.1", "--kmax", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,value,target,label"
        assert [line.split(",")[3] for line in lines[1:]] == ["exact", "exact"]

    @pytest.mark.parametrize("argv, key", [
        (["chi-bar", "--theta", "0.25"], "unconstrained_capacity_bracket"),
        (["capacity-series", "--eps", "0.1", "--kmax", "2"], "target_bracket"),
    ])
    def test_closed_capacity_prints_no_bracket(self, capsys, files, argv, key):
        code, out, _ = _run(capsys, ["asymptotics", argv[0], "--channel", files["bsc01"]]
                            + argv[1:])
        assert code == 0
        assert key not in out


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = _run(capsys, ["capacity", "--channel", "/nope.json", "--eps", "0.1"])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("payload, argv", [
        ([0.5, 0.5], ["entropy", "rel", "--p", "BAD", "--q", "u2"]),
        ({"weights": [0.5, 0.5]}, ["entropy", "rel", "--p", "u2", "--q", "BAD"]),
        ({"probs": ["half", 0.5]}, ["asymptotics", "stein", "--p", "BAD", "--q", "u2",
                                    "--eps", "0.1"]),
        ({"matrix": [[0.9, 0.1], [0.1, 0.9]], "dim_in": "x"},
         ["capacity", "--channel", "BAD", "--eps", "0.1"]),
        ([0.0, 1.0], ["workext", "--state", "state2", "--hamiltonian", "BAD", "--eps", "0.1"]),
        # int() once read both as the one input of this channel
        ({"matrix": [[0.9], [0.1]], "dim_in": 1.5},
         ["capacity", "--channel", "BAD", "--eps", "0.1"]),
        ({"matrix": [[0.9], [0.1]], "dim_in": True},
         ["capacity", "--channel", "BAD", "--eps", "0.1"]),
    ])
    def test_malformed_file(self, capsys, files, payload, argv):
        # a file of the wrong shape is reported like an unreadable one
        bad = _write(files["tmp"], "bad.json", payload)
        code, out, err = _run(capsys, _with_files(argv, dict(files, BAD=bad)))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {bad}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["asymptotics", "stein", "--p", "state2", "--q", "u2", "--eps", "0.05", "--nmax", "0"],
        ["capacity", "--channel", "bsc01", "--eps", "0.1", "--max-m", "0"],
        ["capacity", "--channel", "bsc01", "--eps", "0.1", "--max-m", "0", "--randomized"],
        ["--temperature", "nan", "wcorr", "--joint", "phi2", "--eps", "0.05"],
        ["--temperature", "0", "wcorr", "--joint", "phi2", "--eps", "0.05"],
        ["--temperature", "-2", "landauer", "--channel", "identity4", "--eps", "0.01",
         "--trials", "1000"],
        # each asymptotics leaf declares only the flags it uses
        ["asymptotics", "stein", "--p", "state2", "--q", "u2", "--eps", "0.05",
         "--channel", "bsc01"],
        # chi-bar's message cap is checked as capacity's is
        ["asymptotics", "chi-bar", "--channel", "bsc01", "--theta", "0.25", "--max-m", "0"],
        ["asymptotics", "chi-bar", "--channel", "bsc01", "--theta", "0.25", "--max-m", "-1"],
        # a capacity series runs 1 to 3 copies
        ["asymptotics", "capacity-series", "--channel", "bsc01", "--eps", "0.1", "--kmax", "0"],
        ["asymptotics", "capacity-series", "--channel", "bsc01", "--eps", "0.1", "--kmax", "4"],
        # the search budgets are module constants, and no flag sets them
        ["--budget-atoms", "5", "workext", "--state", "state2", "--hamiltonian", "ham2",
         "--eps", "0.15"],
        ["--budget-codebooks", "5", "capacity", "--channel", "bsc01", "--eps", "0.1"],
        ["--budget-samples", "5", "capacity", "--channel", "bsc01", "--eps", "0.1",
         "--randomized"],
    ])
    def test_bad_argument(self, capsys, files, argv):
        code, out, err = _run(capsys, _with_files(argv, files))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["landauer", "--channel", "identity4", "--eps", "0.01", "--trials", "1000"],
        ["bounds", "thm2", "--channel", "bsc01", "--eps", "0.15", "--omega", "0.075",
         "--delta", "0.05"],
        ["bounds", "thm4", "--channel", "bsc01", "--eps", "0.2", "--omega", "0.1",
         "--delta", "0.05"],
        ["asymptotics", "chi-bar", "--channel", "bsc01", "--theta", "0.25"],
        ["capacity", "--channel", "bsc01", "--eps", "0.1", "--randomized"],
        ["entropy", "rel", "--p", "state2", "--q", "u2"],
    ])
    def test_negative_seed_is_one_error_line(self, capsys, files, argv):
        # the seeded commands used to exit 1 with a numpy traceback, and the
        # others echoed the seed; every subcommand now answers alike
        code, out, err = _run(capsys, ["--seed", "-1"] + _with_files(argv, files))
        assert code == 1
        assert out == ""
        assert err == "error: --seed must be an integer >= 0\n"

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
