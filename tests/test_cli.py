import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qfilter import channels, cli, filtering, measures, states, tolerances, verify
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


def simulate_oracle(out: Path) -> dict:
    """The files the per-trajectory path writes for the run in `out`: one filtering.simulate and
    write_trajectory_csv per trajectory, then report.json, its final fidelities from one stacked call."""
    config = json.loads((out / "report.json").read_text())["config"]
    ch, rho, est, partition = cli._resolve_instance(config)
    cfg = filtering.SimulationConfig(ch, rho, est, config["steps"], partition, seed=config["seed"])
    files, last = {}, []
    for i in range(config["trajectories"]):
        traj = filtering.simulate(cfg, i)
        files[f"trajectory_{i:04d}.csv"] = filtering.trajectory_to_csv_string(traj).encode()
        last.append(traj.steps[-1])
    final = measures.fidelity(np.stack([s.estimate for s in last]), np.stack([s.true_state for s in last]))
    report = {
        "config": config,
        "config_fingerprint": cfg.fingerprint(),
        "trajectories": config["trajectories"],
        "steps": config["steps"],
        "final_fidelity_mean": float(np.mean(final)),
        "final_fidelity_min": float(np.min(final)),
    }
    files["report.json"] = (json.dumps(report, indent=2) + "\n").encode()
    return files


class TestLockstepSimulate:
    """qfilter simulate steps its trajectories in lockstep and writes what one simulate call per trajectory writes."""

    CASES = {
        "fine": ("3,3", "3,2", 8, 12, None),
        "coarse": ("3,4", "3", 8, 12, [[1, 3], [2, 4]]),
        "trivial": ("2,3", "2,1", 5, 9, [[1, 2, 3]]),
        "zero_steps": ("3,2", "3", 0, 5, None),
        "one_dimension": ("1,3", "1", 6, 7, None),
        "one_outcome": ("3,1", "3,2", 6, 7, None),
        # 2 chunks + 3 trajectories cross two group boundaries; 100 steps at n = 3 cap a group at 9
        "chunks": ("2,3", "2", 5, 2 * filtering._LOCKSTEP_CHUNK + 3, [[1], [2, 3]]),
        "long": ("3,2", "3", 100, 20, None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_files_match_per_trajectory_simulate_across_trajectories(self, case, tmp_path, monkeypatch):
        channel, state, steps, n_traj, blocks = self.CASES[case]
        argv = [
            "simulate", "--random-channel", channel, "--random-state", state, "--steps", str(steps),
            "--trajectories", str(n_traj), "--seed", "31", "--output", str(tmp_path),
        ]
        if blocks is not None:
            (tmp_path / "part.json").write_text(json.dumps({"m": int(channel.split(",")[1]), "blocks": blocks}))
            argv += ["--partition", str(tmp_path / "part.json")]
        groups = []
        lockstep = filtering._lockstep
        monkeypatch.setattr(filtering, "_lockstep", lambda cfg, rho0, hat0, keys, **kw: (
            groups.append(len(keys)) or lockstep(cfg, rho0, hat0, keys, **kw)
        ))
        assert run(argv) == 0
        monkeypatch.undo()
        assert sum(groups) == n_traj
        if case == "chunks":
            assert groups == [filtering._LOCKSTEP_CHUNK] * 2 + [3]
        elif case == "long":
            assert len(groups) > 1
        else:
            assert len(groups) == 1
        written = read_tree(tmp_path)
        expected = simulate_oracle(tmp_path)
        assert len(expected) == n_traj + 1
        for name, data in expected.items():
            assert written[name] == data, name


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

    def test_frobenius_violations_reported_not_failed(self, tmp_path):
        # tr(rho sigma) takes the wrong sign under the trivial partition;
        # only the fidelity's one-step gain is a theorem
        assert run([
            "verify", "--measure", "frobenius", "--partition-mode", "trivial", "--trials", "30",
            "--seed", "22", "--output", str(tmp_path),
        ]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["violations"] == 11 and report["passed"] is True

    def test_fidelity_violation_fails(self, tmp_path):
        # a negative slack demands a fidelity gain above 1, which no instance has
        assert run([
            "verify", "--trials", "3", "--seed", "1", "--tolerance", "-1", "--output", str(tmp_path),
        ]) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["violations"] == 3 and report["passed"] is False

    def test_partition_modes(self, tmp_path):
        for mode in ("singleton", "trivial", "random"):
            out = tmp_path / mode
            assert run([
                "verify", "--trials", "10", "--seed", "3",
                "--partition-mode", mode, "--output", str(out),
            ]) == 0

    def test_relative_entropy_cells_count_every_trial(self, tmp_path):
        # sigma and rho are drawn at full rank, so no relative entropy is infinite
        assert run([
            "sweep", "--measure", "relative_entropy", "--n-values", "2,3,4", "--m-values", "2,3",
            "--trials", "20", "--seed", "4", "--output", str(tmp_path),
        ]) == 0
        rows = [r.split(",") for r in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert len(rows) == 12
        assert all(r[3] == "20" and r[4] != "nan" for r in rows)

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

    def test_channel_file_of_the_wrong_dim_is_a_config_error(self, tmp_path, capsys):
        d = channels.validate_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).to_dict()
        d["dim"] = 3
        (tmp_path / "ch.json").write_text(json.dumps(d))
        code = run([
            "dilate", "--channel", str(tmp_path / "ch.json"), "--random-state", "2,2", "--seed", "1",
            "--output", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err == "config error: channel: channel dict declares dim 3 but operator 0 has shape (2, 2)\n"
        assert not (tmp_path / "out").exists()

    def test_channel_record_round_trips(self, tmp_path, monkeypatch):
        # replay.json records the Kraus stack, the isometry V, in the --channel file encoding:
        # replaying from that record gives the same replay, byte for byte
        monkeypatch.chdir(tmp_path)
        argv = ["dilate", "--random-state", "3,2", "--seed", "3"]
        assert run(argv + ["--random-channel", "3,3", "--output", "a"]) == 0
        text = (tmp_path / "a" / "replay.json").read_text()
        record = json.loads(text)
        assert list(record) == ["config", "replay", "channel"]
        ch = channels.random_channel(3, 3, cli._child_rng(3, 1))
        assert np.array_equal(channels.channel_from_dict(record["channel"]).operators, ch.operators)
        (tmp_path / "ch.json").write_text(json.dumps(record["channel"]))
        assert run(argv + ["--channel", "ch.json", "--output", "b"]) == 0
        again = (tmp_path / "b" / "replay.json").read_text()
        replay = text[text.index('"replay"') : text.index('"channel"')]
        assert again[again.index('"replay"') : again.index('"channel"')] == replay
        assert json.loads(again)["channel"] == record["channel"]

    @pytest.mark.parametrize(
        "shape, state", [("1,1", None), ("1,3", None), ("3,1", "3,1")], ids=["n1_m1", "n1_m3", "n3_m1"]
    )
    def test_edge_dimensions(self, tmp_path, shape, state):
        # a 1-dimensional state space or a single Kraus operator: every link holds, the record round-trips
        argv = ["dilate", "--random-channel", shape, "--seed", "3", "--output", str(tmp_path)]
        assert run(argv + (["--random-state", state] if state else [])) == 0
        record = json.loads((tmp_path / "replay.json").read_text())
        assert record["replay"]["all_links_hold"] is True
        assert all(record["replay"]["links_hold"].values())
        n, m = map(int, shape.split(","))
        ch = channels.random_channel(n, m, cli._child_rng(3, 1))
        assert record["channel"] == ch.to_dict()
        recovered = channels.channel_from_dict(record["channel"]).operators
        assert recovered.shape == (m, n, n) and np.array_equal(recovered, ch.operators)

    def test_no_output_flag_writes_no_file(self, tmp_path, monkeypatch, capsys):
        argv = ["dilate", "--random-channel", "3,3", "--random-state", "3,2", "--seed", "3"]
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 0
        assert list(tmp_path.iterdir()) == []
        printed = capsys.readouterr().out
        assert run(argv + ["--output", "out"]) == 0
        assert capsys.readouterr().out == printed
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["config.json", "replay.json"]

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
    def test_empty_cell_writes_nan_without_warnings(self, tmp_path, monkeypatch):
        # drawn at random rank, not at the full rank the sweep draws this measure at, every
        # relative entropy in cell (3, 3, 2) is infinite, so the cell has no gap to reduce
        draw = verify._draw_instances
        monkeypatch.setattr(verify, "_draw_instances", lambda *args: draw(*args[:5]))
        assert run([
            "sweep", "--measure", "relative_entropy", "--trials", "5",
            "--seed", "1", "--output", str(tmp_path),
        ]) == 0
        assert "3,3,2,0,nan,nan,0" in (tmp_path / "sweep.csv").read_text().splitlines()

    def test_relative_entropy_cells_count_every_trial(self, tmp_path):
        # sigma and rho are drawn at full rank, so no relative entropy is infinite
        assert run([
            "sweep", "--measure", "relative_entropy", "--n-values", "2,3,4", "--m-values", "2,3",
            "--trials", "20", "--seed", "4", "--output", str(tmp_path),
        ]) == 0
        rows = [r.split(",") for r in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert len(rows) == 12
        assert all(r[3] == "20" and r[4] != "nan" for r in rows)

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

    def test_frobenius_violations_reported_not_failed(self, tmp_path):
        assert run([
            "sweep", "--measure", "frobenius", "--trials", "6", "--seed", "43", "--output", str(tmp_path),
        ]) == 0
        rows = [r.split(",") for r in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert [",".join(r[:3]) for r in rows if r[6] != "0"] == ["2,3,1", "2,3,2", "3,3,1"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["wrong_sign_total"] == sum(int(r[6]) for r in rows) > 0

    def test_cell_matches_the_instance_stream(self, tmp_path):
        # cell 0 draws from SeedSequence(seed, spawn_key=(0,)) through verify.random_instances
        assert run([
            "sweep", "--n-values", "3", "--m-values", "4", "--partition-sizes", "2",
            "--trials", "6", "--seed", "17", "--output", str(tmp_path),
        ]) == 0
        row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
        rng = np.random.default_rng(np.random.SeedSequence(17, spawn_key=(0,)))
        gaps = [
            verify.measure_gap_report(ch, sigma, rho, "fidelity", part).gap
            for ch, sigma, rho, part in verify.random_instances(3, 4, 6, rng, 2)
        ]
        assert row[:4] == ["3", "4", "2", "6"]
        assert float(row[4]) == min(gaps)

    @pytest.mark.parametrize("measure", sorted(verify.MEASURES))
    def test_rows_match_each_cells_own_stream_across_instances(self, measure, tmp_path):
        # every (n, m) has three partition sizes, and 2 appears twice in the n values: the cells of
        # one shape share one pass, and each row is the one its own instance stream gives alone
        n_values, m_values, sizes, trials, seed = (2, 3, 2), (3, 4), (1, 2, 3), 5, 8
        assert run([
            "sweep", "--measure", measure, "--n-values", ",".join(map(str, n_values)),
            "--m-values", ",".join(map(str, m_values)), "--partition-sizes", ",".join(map(str, sizes)),
            "--trials", str(trials), "--seed", str(seed), "--output", str(tmp_path),
        ]) == 0
        rows, total = [], 0
        cells = [(n, m, p) for n in n_values for m in m_values for p in sizes if p <= m]
        for cell, (n, m, p) in enumerate(cells):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(cell,)))
            instances = verify.random_instances(n, m, trials, rng, p, measure == "relative_entropy")
            reports = [verify.measure_gap_report(ch, sigma, rho, measure, part) for ch, sigma, rho, part in instances]
            finite = [r for r in reports if not (math.isinf(r.lhs) or math.isinf(r.rhs))]
            gaps = [r.gap for r in finite]
            wrong = sum(not r.passed for r in finite)
            total += wrong
            stats = [format(float(f(gaps)), ".17g") if gaps else "nan" for f in (np.min, np.mean)]
            rows.append(f"{n},{m},{p},{len(gaps)},{stats[0]},{stats[1]},{wrong}")
        assert (tmp_path / "sweep.csv").read_text().splitlines()[1:] == rows
        assert json.loads((tmp_path / "report.json").read_text())["wrong_sign_total"] == total

    def test_instance_that_raises_fails_the_run(self, tmp_path):
        # the middle cell of a shape gets an estimate that is not positive semidefinite: the shared
        # pass raises, and the process exits non-zero without writing sweep.csv
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from qfilter import cli, verify

            build = verify._build_instances

            def broken(n, draws):
                # the shape's cells (partition sizes 1, 2, 3) hold 3 instances each: 4 is the middle cell's second
                instances = build(n, draws)
                ch, sigma, rho, part = instances[4]
                instances[4] = (ch, np.diag([1.5] + [0.0] * (n - 2) + [-0.5]).astype(complex), rho, part)
                return instances

            verify._build_instances = broken
            sys.argv[1:] = ["sweep", "--n-values", "3", "--m-values", "3", "--partition-sizes", "1,2,3",
                            "--trials", "3", "--seed", "4", "--output", sys.argv[1]]
            cli.main()
        """)
        src = str(Path(verify.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode != 0
        assert "not positive semidefinite" in proc.stderr
        assert not (tmp_path / "sweep.csv").exists()

    def test_empty_grid_is_a_config_error(self, tmp_path, capsys):
        # no block count is <= an m, so the grid has no cell to check
        argv = ["sweep", "--m-values", "2", "--partition-sizes", "3", "--seed", "1", "--output", str(tmp_path)]
        assert run(argv) == 2
        assert "config error: partition_sizes: " in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

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

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_bytes(b"\xff\xfe{}")
        assert run(["verify", "--config", str(cfg_file)]) == 2
        assert "config error: config: " in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["verify", "--config", "/nonexistent/cfg.json"]) == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", "null", "3"])
    def test_config_that_is_not_an_object(self, text, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        assert run(["verify", "--config", str(cfg_file)]) == 2
        assert "config error: config: " in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["config", "channel", "state", "estimate", "partition"])
    def test_directory_in_place_of_a_file(self, field, tmp_path, capsys):
        argv = ["dilate", "--random-channel", "2,2", "--seed", "1", "--output", str(tmp_path / "out")]
        if field == "channel":
            argv = ["dilate", "--seed", "1", "--output", str(tmp_path / "out")]
        assert run(argv + [f"--{field}", str(tmp_path)]) == 2
        assert f"config error: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "sweep", "simulate"])
    def test_output_that_is_not_a_string(self, command, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 1, "output": [1]}))
        argv = [command, "--config", str(cfg_file)]
        if command == "simulate":
            argv += ["--random-channel", "2,2"]
        assert run(argv) == 2
        assert "config error: output: " in capsys.readouterr().err

    def test_output_that_is_a_file(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        for out in ("taken", "taken/sub"):
            assert run(["verify", "--seed", "1", "--trials", "2", "--output", str(tmp_path / out)]) == 2
            assert "config error: output: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_measure_that_is_not_a_string(self, command, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 1, "measure": ["fidelity"]}))
        assert run([command, "--config", str(cfg_file), "--output", str(tmp_path / "out")]) == 2
        assert "config error: measure: " in capsys.readouterr().err

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

    def test_back_to_back_runs_share_no_state(self, tmp_path, capsys):
        # the parser is built once per process; nothing one run parses may reach the next
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["verify", "--trials", "2", "--n", "2", "--measure", "frobenius", "--seed", "5",
                    "--output", str(first)]) == 0
        assert run(["--help"]) == 0
        assert run(["verify", "--trials", "2", "--seed", "6", "--output", str(second)]) == 0
        assert run(["verify", "--help"]) == 0
        one = json.loads((first / "config.json").read_text())
        two = json.loads((second / "config.json").read_text())
        assert (one["n"], one["measure"], one["seed"]) == (2, "frobenius", 5)
        assert (two["n"], two["measure"], two["seed"]) == (3, "fidelity", 6)
        assert two == {**one, "trials": 2, "n": 3, "measure": "fidelity", "seed": 6, "output": str(second)}
