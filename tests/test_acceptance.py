"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 2-5 share one seeded pool of 1000 random instances with
n, m in {2, 3, 4} and states of random rank.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qfilter import channels, dilation, filtering, states, verify
from qfilter.cli import run

GAP_TOL = 1e-9
POOL_SEED = 20110311
POOL_SIZE = 1000


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def instance_pool():
    """1000 seeded instances plus a partition each; built once, timed."""
    start = time.perf_counter()
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for i, child in enumerate(rng.spawn(POOL_SIZE)):
        n = 2 + i % 3
        m = 2 + (i // 3) % 3
        ch = channels.random_channel(n, m, child)
        sigma = states.random_density(n, int(child.integers(1, n + 1)), child)
        rho = states.random_density(n, int(child.integers(1, n + 1)), child)
        if i % 10 == 0:
            part = channels.singleton_partition(m)  # edge case
        elif i % 10 == 5:
            part = channels.trivial_partition(m)  # edge case
        else:
            part = channels.random_partition(m, child, int(child.integers(2, m + 1)))
        pool.append((ch, sigma, rho, part))
    return pool, time.perf_counter() - start


def test_criterion_1_counterexample_exactness(capsys):
    start = time.perf_counter()
    rep = verify.counterexample_report()
    exit_code = run(["counterexample"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    ok = (
        exit_code == 0
        and abs(rep.d_lhs - 4.0 / 3.0) <= 1e-12
        and abs(rep.d_rhs - 1.0) <= 1e-12
        and abs(rep.f_lhs - 1.0 / 3.0) <= 1e-12
        and abs(rep.f_rhs - 0.25) <= 1e-12
        and "4/3" in out
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, ok, f"counterexample 4/3|1|1/3|1/4 within 1e-12, {elapsed:.2f}s")


def test_criterion_2_theorem_1_suite(instance_pool):
    pool, build_time = instance_pool
    start = time.perf_counter()
    worst = math.inf
    for ch, sigma, rho, _ in pool:
        gap = verify.check_fidelity_submartingale(ch, sigma, rho).gap
        worst = min(worst, gap)
    elapsed = build_time + time.perf_counter() - start
    ok = worst >= -GAP_TOL and elapsed < 30.0
    report(2, ok, f"{len(pool)} singleton instances, min gap {worst:.3e}, {elapsed:.1f}s")


def test_criterion_3_theorem_2_suite(instance_pool):
    pool, _ = instance_pool
    worst = math.inf
    for ch, sigma, rho, part in pool:
        gap = verify.check_fidelity_submartingale(ch, sigma, rho, part).gap
        worst = min(worst, gap)
    ok = worst >= -GAP_TOL
    report(3, ok, f"{len(pool)} partitioned instances (incl. edge cases), min gap {worst:.3e}")


def test_criterion_4_kraus_monotonicity(instance_pool):
    pool, _ = instance_pool
    worst = math.inf
    for ch, sigma, rho, _ in pool:
        worst = min(worst, verify.check_kraus_monotonicity(ch, sigma, rho).gap)
    ok = worst >= -GAP_TOL
    report(4, ok, f"F(K(sigma),K(rho)) - F(sigma,rho) >= {worst:.3e} on {len(pool)} instances")


def test_criterion_5_mean_evolution_identity(instance_pool):
    pool, _ = instance_pool
    worst = 0.0
    for ch, _, rho, part in pool:
        worst = max(worst, verify.check_mean_evolution(ch, rho))
        worst = max(worst, verify.check_mean_evolution(ch, rho, part))
    ok = worst <= 1e-12
    report(5, ok, f"max deviation {worst:.3e} over {2 * len(pool)} checks (both partitions)")


def test_criterion_6_violation_searches():
    td = verify.random_search_violation(
        "trace_distance", 3, 2, 100, np.random.default_rng(61), include_counterexample=True
    )
    fid = verify.random_search_violation("fidelity", 3, 3, 1000, np.random.default_rng(62))
    frob = verify.random_search_violation("frobenius", 3, 3, 1000, np.random.default_rng(63))
    td_ok = bool(td) and max(r.gap for r in td) > 1e-3
    ok = td_ok and not fid and not frob
    report(
        6,
        ok,
        f"trace-distance violations {len(td)} (max gap "
        f"{max((r.gap for r in td), default=float('nan')):.3f}), fidelity {len(fid)}, "
        f"frobenius {len(frob)}",
    )


def test_criterion_7_proof_replay():
    rng = np.random.default_rng(71)
    all_hold = True
    worst_e = 0.0
    count = 500
    for i, child in enumerate(rng.spawn(count)):
        n = 2 + i % 3
        m = 2 + (i // 2) % 3
        ch = channels.random_channel(n, m, child)
        sigma = states.random_density(n, int(child.integers(1, n + 1)), child)
        rho = states.random_density(n, int(child.integers(1, n + 1)), child)
        part = channels.random_partition(m, child) if i % 2 else None
        rep = dilation.replay_proof(ch, sigma, rho, part)
        all_hold = all_hold and rep.all_links_hold
        worst_e = max(worst_e, rep.link_residuals["e_overlap_vs_fidelity"])
    ok = all_hold and worst_e <= 1e-10
    report(7, ok, f"{count} replays, links (a)-(e) hold, worst Uhlmann residual {worst_e:.3e}")


def test_criterion_8_dilation_round_trip():
    # the isometry record `qfilter dilate --output` writes is the Kraus stack V, encoded as a channel
    rng = np.random.default_rng(81)
    worst_record = worst_isometry = 0.0
    count = 200
    for i, child in enumerate(rng.spawn(count)):
        n = 1 + i % 4
        m = 1 + (i // 4) % 4
        ch = channels.random_channel(n, m, child)
        recovered = channels.channel_from_dict(json.loads(json.dumps(ch.to_dict()))).operators
        worst_record = max(worst_record, float(np.abs(recovered - ch.operators).max()))
        V = recovered.reshape(m * n, n)
        worst_isometry = max(worst_isometry, float(np.abs(V.conj().T @ V - np.eye(n)).max()))
    ok = worst_record <= 1e-12 and worst_isometry <= 1e-12
    report(8, ok, f"{count} isometry records, max recovered-operator error {worst_record:.3e},"
                  f" max |V†V - I| {worst_isometry:.3e}")


def test_criterion_9_statistical_submartingale():
    start = time.perf_counter()
    rng = np.random.default_rng(91)
    cfg = filtering.SimulationConfig(
        channel=channels.random_channel(3, 3, rng),
        rho0=states.random_density(3, 3, rng),
        rho_hat0=states.maximally_mixed(3),
        steps=10,
        seed=910,
    )
    stats = filtering.batch_statistics(cfg, 100_000)
    z = stats.step_gain_z_scores()
    elapsed = time.perf_counter() - start
    ok = bool((z > -3.0).all()) and elapsed < 60.0
    report(9, ok, f"1e5 trajectories x 10 steps, min gain z-score {z.min():.2f}, {elapsed:.1f}s")


def test_criterion_10_determinism(tmp_path, capsys):
    commands = {
        "verify": ["verify", "--measure", "fidelity", "--trials", "30", "--seed", "7"],
        "simulate": [
            "simulate", "--random-channel", "3,2", "--random-state", "3",
            "--steps", "6", "--trajectories", "2", "--seed", "17",
        ],
        "sweep": [
            "sweep", "--n-values", "2,3", "--m-values", "2,3",
            "--partition-sizes", "1,2", "--trials", "5", "--seed", "27",
        ],
        "dilate": ["dilate", "--random-channel", "3,3", "--random-state", "3,2", "--seed", "37"],
        "counterexample": ["counterexample"],
    }
    ok = True
    for name, argv in commands.items():
        out_dir = tmp_path / name
        outputs, stdouts = [], []
        for _ in range(2):
            code = run(argv + ["--output", str(out_dir)])
            stdouts.append(capsys.readouterr().out)
            assert code == 0, name
            outputs.append({
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
            })
        ok = ok and outputs[0] == outputs[1] and stdouts[0] == stdouts[1]
    with capsys.disabled():
        report(10, ok, f"{len(commands)} seeded commands byte-identical across reruns")
