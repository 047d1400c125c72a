import json
from pathlib import Path

import numpy as np
import pytest

from qfilter import channels, dilation, states, tolerances, verify
from qfilter.cli import run


def read_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestCounterexampleCommand:
    def test_stdout_values(self, capsys):
        assert run(["counterexample"]) == 0
        out = capsys.readouterr().out
        for token in ("4/3", "1/3", "1/4", "1.3333333333333333", "0.25"):
            assert token in out

    def test_report_file(self, tmp_path):
        assert run(["counterexample", "--output", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["counterexample"]["trace_distance"]["lhs"] == pytest.approx(4 / 3)
        assert (tmp_path / "config.json").exists()


class TestSimulateCommand:
    def test_zero_steps_single_row(self, tmp_path, capsys):
        code = run([
            "simulate", "--random-channel", "3,2", "--steps", "0",
            "--seed", "5", "--output", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "trajectory_0000.csv").read_text().splitlines()
        assert len(lines) == 2  # header + initial row

    def test_multiple_trajectories(self, tmp_path):
        code = run([
            "simulate", "--random-channel", "2,2", "--random-state", "2",
            "--steps", "4", "--trajectories", "3", "--seed", "1",
            "--output", str(tmp_path),
        ])
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert {"trajectory_0000.csv", "trajectory_0001.csv", "trajectory_0002.csv"} <= names

    def test_channel_and_state_files(self, tmp_path):
        rng = np.random.default_rng(2)
        ch = channels.random_channel(2, 2, rng)
        rho = states.random_density(2, 2, rng)
        (tmp_path / "ch.json").write_text(json.dumps(ch.to_dict()))
        (tmp_path / "rho.json").write_text(json.dumps(states.matrix_to_dict(rho)))
        out = tmp_path / "out"
        code = run([
            "simulate", "--channel", str(tmp_path / "ch.json"),
            "--state", str(tmp_path / "rho.json"),
            "--steps", "3", "--seed", "4", "--output", str(out),
        ])
        assert code == 0
        assert (out / "trajectory_0000.csv").exists()

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        code = run(["simulate", "--random-channel", "2,2", "--output", str(tmp_path)])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_dimension_conflict(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        rho = states.random_density(3, 3, rng)
        (tmp_path / "rho.json").write_text(json.dumps(states.matrix_to_dict(rho)))
        code = run([
            "simulate", "--random-channel", "2,2", "--state", str(tmp_path / "rho.json"),
            "--steps", "1", "--seed", "1", "--output", str(tmp_path),
        ])
        assert code == 2
        assert "dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "counterexample"])
    def test_tolerance_flag_is_gone(self, command, tmp_path, capsys):
        argv = [command, "--tolerance", "1e-3", "--seed", "1", "--output", str(tmp_path)]
        assert run(argv + (["--random-channel", "2,2"] if command == "simulate" else [])) == 2

    def test_tolerance_config_field_is_unknown(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 1, "tolerance": 1e-3}))
        code = run([
            "simulate", "--config", str(cfg_file), "--random-channel", "2,2",
            "--output", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "tolerance: unknown field" in capsys.readouterr().err


class TestVerifyCommand:
    def test_fidelity_suite_passes(self, tmp_path):
        code = run([
            "verify", "--measure", "fidelity", "--trials", "40",
            "--seed", "7", "--output", str(tmp_path),
        ])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["violations"] == 0
        assert report["passed"] is True

    def test_gap_csv_header(self, tmp_path):
        run(["verify", "--trials", "5", "--seed", "8", "--output", str(tmp_path)])
        first = (tmp_path / "gap_reports.csv").read_text().splitlines()[0]
        assert first == "measure,lhs,rhs,gap,num_blocks,fallback_blocks,fingerprint"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run([
                "verify", "--measure", "fidelity", "--trials", "25",
                "--seed", "7", "--output", str(out),
            ]) == 0
        ta, tb = read_tree(a), read_tree(b)
        assert set(ta) == set(tb) == {"config.json", "gap_reports.csv", "report.json"}
        # data identical across directories; the echoed config differs only
        # in the output path itself
        assert ta["gap_reports.csv"] == tb["gap_reports.csv"]
        # a rerun with the identical config is byte-identical in full
        snapshot = read_tree(a)
        assert run([
            "verify", "--measure", "fidelity", "--trials", "25",
            "--seed", "7", "--output", str(a),
        ]) == 0
        assert read_tree(a) == snapshot

    def test_trace_distance_violations_reported(self, tmp_path):
        code = run([
            "verify", "--measure", "trace_distance", "--trials", "30",
            "--include-counterexample", "--seed", "9", "--output", str(tmp_path),
        ])
        assert code == 0  # no theorem broken; violations only reported
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["violations"] >= 1

    def test_partition_modes(self, tmp_path):
        for mode in ("singleton", "trivial", "random"):
            out = tmp_path / mode
            assert run([
                "verify", "--trials", "10", "--seed", "3",
                "--partition-mode", mode, "--output", str(out),
            ]) == 0

    def test_tolerance_reaches_the_verdict(self, tmp_path):
        # the counter-example's trace-distance gap is 1/3: wrong-sign at the default slack only
        def violations(*extra):
            out = tmp_path / str(len(extra))
            assert run([
                "verify", "--measure", "trace_distance", "--include-counterexample",
                "--trials", "3", "--seed", "1", "--output", str(out), *extra,
            ]) == 0
            return json.loads((out / "report.json").read_text())["violations"]

        assert violations() == 1
        assert violations("--tolerance", "0.5") == 0

    def test_wrong_sign_rows_match_random_search(self, tmp_path):
        seed = 3
        assert run([
            "verify", "--measure", "trace_distance", "--n", "3", "--m", "2", "--trials", "200",
            "--include-counterexample", "--seed", str(seed), "--output", str(tmp_path),
        ]) == 0
        rows = (tmp_path / "gap_reports.csv").read_text().splitlines()[1:]
        wrong = [r for r in rows if float(r.split(",")[3]) > tolerances.GAP_TOL]
        found = verify.random_search_violation(
            "trace_distance", 3, 2, 200, np.random.default_rng(seed), include_counterexample=True
        )
        assert len(wrong) > 1  # the counter-example and random instances
        assert wrong == [r.csv_row() for r in found]

    @pytest.mark.parametrize("mode", ["singleton", "trivial", "random"])
    @pytest.mark.parametrize("n, m", [(1, 3), (3, 1), (1, 1)])
    def test_one_dimension_or_one_outcome(self, n, m, mode, tmp_path):
        # a 1-dimensional state space or a unitary channel leaves the fidelity unchanged
        assert run([
            "verify", "--n", str(n), "--m", str(m), "--partition-mode", mode,
            "--trials", "5", "--seed", "2", "--output", str(tmp_path),
        ]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["instances"] == 5 and report["passed"] is True
        assert abs(report["min_gap"]) < 1e-12 and abs(report["max_gap"]) < 1e-12


class TestDilateCommand:
    def test_replay_report(self, tmp_path, capsys):
        code = run([
            "dilate", "--random-channel", "3,2", "--random-state", "3,2",
            "--seed", "11", "--output", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "link" in out and "VIOLATED" not in out
        replay = json.loads((tmp_path / "replay.json").read_text())
        assert replay["replay"]["all_links_hold"] is True

    def test_vacuous_margin_is_valid_json(self, tmp_path):
        ch = channels.validate_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        (tmp_path / "ch.json").write_text(json.dumps(ch.to_dict()))
        (tmp_path / "rho.json").write_text(json.dumps(states.matrix_to_dict(np.diag([1.0, 0.0]))))
        (tmp_path / "est.json").write_text(json.dumps(states.matrix_to_dict(np.diag([0.0, 1.0]))))
        code = run([
            "dilate", "--channel", str(tmp_path / "ch.json"), "--state", str(tmp_path / "rho.json"),
            "--estimate", str(tmp_path / "est.json"), "--output", str(tmp_path / "out"),
        ])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        text = (tmp_path / "out" / "replay.json").read_text()
        replay = json.loads(text, parse_constant=reject)["replay"]
        assert replay["link_residuals"]["c_uhlmann_margin"] is None
        assert replay["links_hold"]["c_uhlmann_margin"] is True

    def test_one_dilation_per_output(self, tmp_path, monkeypatch):
        built = []
        real = dilation.stinespring

        def counting(ch):
            built.append(real(ch))
            return built[-1]

        monkeypatch.setattr(dilation, "stinespring", counting)
        assert run([
            "dilate", "--random-channel", "3,3", "--random-state", "3,2",
            "--seed", "3", "--output", str(tmp_path),
        ]) == 0
        assert len(built) == 1
        replay = json.loads((tmp_path / "replay.json").read_text())
        assert replay["dilation"]["unitary"] == states.matrix_to_dict(built[0].unitary)

    def test_tolerance_reaches_the_links(self, tmp_path, capsys):
        # a negative link tolerance demands a margin no residual has; link (e) keeps its own
        argv = [
            "dilate", "--random-channel", "3,3", "--random-state", "3,2", "--seed", "3",
            "--output", str(tmp_path),
        ]
        assert run(argv) == 0
        assert "VIOLATED" not in capsys.readouterr().out
        assert run(argv + ["--tolerance", "-1"]) == 1
        out = capsys.readouterr().out
        assert out.count("VIOLATED") == 4
        assert "e_overlap_vs_fidelity" in out.splitlines()[-1] and out.endswith("ok\n")


class TestSweepCommand:
    def test_grid_csv(self, tmp_path):
        code = run([
            "sweep", "--n-values", "2,3", "--m-values", "2", "--partition-sizes", "1,2",
            "--trials", "5", "--seed", "13", "--output", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "n,m,partition_size,instances,min_gap,mean_gap,wrong_sign"
        assert len(lines) == 5  # 2 dims x 1 m x 2 partition sizes

    @pytest.mark.filterwarnings("error")
    def test_empty_cell_writes_nan_without_warnings(self, tmp_path):
        # every relative entropy in cell (3, 3, 2) is infinite, so it has no gap to reduce
        assert run([
            "sweep", "--measure", "relative_entropy", "--trials", "5",
            "--seed", "1", "--output", str(tmp_path),
        ]) == 0
        assert "3,3,2,0,nan,nan,0" in (tmp_path / "sweep.csv").read_text().splitlines()

    def test_tolerance_reaches_the_verdict(self, tmp_path):
        # a negative slack demands a fidelity gain above 1, which no instance has
        argv = [
            "sweep", "--n-values", "2", "--m-values", "2", "--partition-sizes", "2",
            "--trials", "4", "--seed", "2",
        ]
        assert run(argv + ["--output", str(tmp_path / "a")]) == 0
        assert run(argv + ["--tolerance", "-1", "--output", str(tmp_path / "b")]) == 1
        assert (tmp_path / "a" / "sweep.csv").read_text().splitlines()[1].endswith(",0")
        assert (tmp_path / "b" / "sweep.csv").read_text().splitlines()[1].endswith(",4")

    def test_one_dimension_and_one_outcome(self, tmp_path):
        assert run([
            "sweep", "--n-values", "1,2", "--m-values", "1,2", "--partition-sizes", "1,2",
            "--trials", "4", "--seed", "5", "--output", str(tmp_path),
        ]) == 0
        rows = [r.split(",") for r in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert [tuple(r[:3]) for r in rows] == [
            ("1", "1", "1"), ("1", "2", "1"), ("1", "2", "2"),
            ("2", "1", "1"), ("2", "2", "1"), ("2", "2", "2"),
        ]
        for n, m, _, instances, min_gap, mean_gap, wrong in rows:
            assert instances == "4" and wrong == "0"
            if "1" in (n, m):  # a 1-dimensional state space or a unitary channel: no gain
                assert abs(float(min_gap)) < 1e-12 and abs(float(mean_gap)) < 1e-12


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"trials": 50, "seed": 21, "measure": "fidelity"}))
        out = tmp_path / "out"
        code = run([
            "verify", "--config", str(cfg_file), "--trials", "4", "--output", str(out),
        ])
        assert code == 0
        effective = json.loads((out / "config.json").read_text())
        assert effective["trials"] == 4  # flag wins
        assert effective["seed"] == 21  # file fills the rest

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 1, "bogus": True}))
        assert run(["verify", "--config", str(cfg_file)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("{not json")
        assert run(["verify", "--config", str(cfg_file)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["verify", "--config", "/nonexistent/cfg.json"]) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["verify", "--n", "0"], "n:"),
            (["verify", "--m", "0"], "m:"),
            (["simulate", "--random-channel", "3,2", "--random-state", "3,5"], "random_state:"),
            (["dilate", "--random-channel", "0,2"], "random_channel:"),
            (["sweep", "--partition-sizes", "0"], "partition_sizes:"),
            (["sweep", "--trials", "-1"], "trials:"),
            (["verify", "--tolerance", "nan"], "tolerance:"),
            (["sweep", "--tolerance", "inf"], "tolerance:"),
            (["dilate", "--random-channel", "2,2", "--tolerance", "nan"], "tolerance:"),
        ],
    )
    def test_out_of_range_number_is_config_error(self, argv, field, tmp_path, capsys):
        assert run(argv + ["--seed", "1", "--output", str(tmp_path)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["verify", "--frobnicate"]) == 2

    def test_no_command_exits_2(self, capsys):
        assert run([]) == 2

    def test_help_exits_0(self, capsys):
        assert run(["--help"]) == 0
