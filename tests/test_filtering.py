import re

import numpy as np
import pytest

from qfilter import channels, filtering, linalg, measures, states, tolerances
from qfilter.filtering import SimulationConfig


def projective_qubit_channel():
    return channels.validate_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def fidelities(traj):
    """F(estimate, true state) of each record of a trajectory, from its dense states."""
    return measures.fidelity(
        np.stack([s.estimate for s in traj.steps]), np.stack([s.true_state for s in traj.steps])
    )


def simulate_each(cfg, n_traj):
    """Trajectories 0..n_traj-1 of cfg, one simulate call each."""
    return [filtering.simulate(cfg, i) for i in range(n_traj)]


def random_cfg(seed=0, n=3, m=2, steps=8, **kwargs):
    rng = np.random.default_rng(seed)
    return SimulationConfig(
        channel=channels.random_channel(n, m, rng),
        rho0=states.random_density(n, n, rng),
        rho_hat0=states.maximally_mixed(n),
        steps=steps,
        seed=seed,
        **kwargs,
    )


def near_null_cfg(seed=0):
    """Projective channel on C^3 (a Haar-rotated line and its complement); estimate outcome-0 probability 1e-10.

    The true state sits in the outcome-0 subspace, so the first jump is 0 and
    the estimate's update divides round-off by 1e-10.
    """
    rng = np.random.default_rng(seed)
    basis = channels.haar_unitary(3, rng)
    inside, outside = basis[:, :1], basis[:, 1:]
    p_in, p_out = inside @ inside.conj().T, outside @ outside.conj().T
    eps = 1e-10
    rho_hat0 = (1 - eps) * outside @ states.random_density(2, 2, rng) @ outside.conj().T + eps * p_in
    return SimulationConfig(
        channel=channels.validate_channel([p_in, p_out]),
        rho0=p_in,
        rho_hat0=rho_hat0,
        steps=1,
        seed=seed,
    )


class TestStepJoint:
    """One transition of the coupled chain, through simulate and batch_statistics."""

    def test_equal_inputs_stay_equal(self):
        cfg = random_cfg(seed=1, n=3, m=3, steps=20)
        cfg.rho_hat0 = cfg.rho0
        for step in filtering.simulate(cfg).steps:
            assert np.array_equal(step.true_state, step.estimate)

    def test_unitary_channel_deterministic(self):
        rng = np.random.default_rng(2)
        U = channels.haar_unitary(2, rng)
        rho = states.random_density(2, 2, rng)
        cfg = SimulationConfig(
            channel=channels.validate_channel([U]), rho0=rho, rho_hat0=rho, steps=1, seed=2
        )
        step = filtering.simulate(cfg).steps[1]
        assert step.outcome == 0
        assert np.abs(step.true_state - U @ rho @ U.conj().T).max() < 1e-12

    def test_empirical_frequencies_match_probs(self):
        # binomial oracle: counts over 1e4 draws from a fixed state within 4 sigma
        cfg = random_cfg(seed=3, n=3, m=3, steps=1)
        probs = channels.outcome_probs(cfg.channel, cfg.rho0)
        draws = 10_000
        outcomes = filtering.batch_statistics(cfg, draws).outcomes[:, 0]
        freq = np.bincount(outcomes, minlength=3) / draws
        sigma = np.sqrt(probs * (1 - probs) / draws)
        assert (np.abs(freq - probs) <= 4 * sigma + 1e-12).all()

    def test_estimate_fallback_flagged(self):
        cfg = SimulationConfig(
            channel=projective_qubit_channel(),
            rho0=np.diag([1.0, 0.0]),  # always samples outcome 0
            rho_hat0=np.diag([0.0, 1.0]),  # has no weight there
            steps=1,
            seed=4,
        )
        step = filtering.simulate(cfg).steps[1]
        assert step.outcome == 0
        assert step.fallback_used
        assert np.abs(step.estimate - np.diag([1.0, 0.0])).max() < 1e-14

    def test_both_engines_agree_on_a_near_null_update(self):
        # the rank-one projector sends any state with weight on its line to that
        # line, which is rho_1, so F_1 = 1 exactly
        cfg = near_null_cfg()
        solo = fidelities(filtering.simulate(cfg, 0))
        lockstep = filtering.batch_statistics(cfg, 1).fidelity[0]
        assert abs(solo[1] - 1.0) <= tolerances.GAP_TOL
        assert abs(lockstep[1] - 1.0) <= tolerances.GAP_TOL
        assert np.abs(solo - lockstep).max() <= 1e-12


def dense_step(ch, partition, rho, hat, u, fallback):
    """The dense transition the factor engine replaces: M rho M† / p, with the engine's sampler."""
    probs = channels.outcome_probs(ch, rho, partition)
    idx = (u[:, None] >= probs.cumsum(axis=-1)[:, :-1]).sum(axis=-1)
    degenerate = probs[np.arange(len(idx)), idx] <= tolerances.ZERO_PROB_TOL
    idx[degenerate] = probs[degenerate].argmax(axis=-1)
    new_rho, new_hat = np.empty_like(rho), np.empty_like(hat)
    used = np.empty(len(idx), dtype=bool)
    for v in set(idx.tolist()):
        sel = idx == v
        new_rho[sel] = channels.conditional_update(ch, v, rho[sel], partition, fallback)[0]
        new_hat[sel], used[sel] = channels.conditional_update(ch, v, hat[sel], partition, fallback)
    return idx, new_rho, new_hat, used


# numpy's PCG64.jumped step, (phi - 1) 2^128: the stride between a trajectory's steps
JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


def numpy_uniforms(seed, keys, steps):
    """(steps, len(keys)) uniforms, the stream oracle: draw (k JUMP + key) mod 2^128 of default_rng(seed) at step k.

    Each draw gets a fresh generator, advanced with numpy's own PCG64.advance.
    """
    out = np.empty((steps, len(keys)))
    for k in range(steps):
        for j, key in enumerate(keys):
            rng = np.random.default_rng(seed)
            rng.bit_generator.advance((k * JUMP + int(key)) % 2**128)
            out[k, j] = rng.random()
    return out


def dense_run(cfg, n_traj, keys=None):
    """(outcomes, true states, estimates, fidelities, fallback flags) of dense_step on each trajectory's uniforms.

    Trajectory i draws from the child generator of keys[i] (default i).
    """
    u = numpy_uniforms(cfg.seed, range(n_traj) if keys is None else keys, cfg.steps)
    rho = np.repeat(states.make_density(cfg.rho0)[None], n_traj, axis=0)
    hat = np.repeat(states.make_density(cfg.rho_hat0)[None], n_traj, axis=0)
    outcomes, rhos, hats, used = [], [rho], [hat], []
    for k in range(cfg.steps):
        idx, rho, hat, flags = dense_step(cfg.channel_at(k, None), cfg.partition, rho, hat, u[k], cfg.fallback)
        outcomes.append(idx)
        rhos.append(rho)
        hats.append(hat)
        used.append(flags)
    fid = np.stack([measures.fidelity(h, r) for h, r in zip(hats, rhos)], axis=1)
    return np.array(outcomes).T.reshape(n_traj, -1), np.stack(rhos), np.stack(hats), fid, used


def oracle_cfg(i):
    """Instance i of the dense-oracle set: n in [1, 5], m in [1, 4], rank-deficient states, three partition kinds."""
    rng = np.random.default_rng(1000 + i)
    n, m = 1 + i % 5, 1 + (i // 5) % 4
    if i % 3 == 0:
        partition = channels.singleton_partition(m)
    elif i % 3 == 1:
        partition = channels.trivial_partition(m)
    else:
        partition = channels.random_partition(m, rng)
    return SimulationConfig(
        channel=channels.random_channel(n, m, rng),
        rho0=states.random_density(n, max(1, n - 1 - i % 2), rng),
        rho_hat0=states.random_density(n, max(1, n - 2 + i % 2), rng),
        steps=6,
        partition=partition,
        seed=i,
    )


class TestFactorEngine:
    """The factor engine against a dense copy of the transition it replaced."""

    N_TRAJ = 6

    def assert_matches_dense(self, cfg):
        outcomes, rhos, hats, fid, used = dense_run(cfg, self.N_TRAJ)
        stats = filtering.batch_statistics(cfg, self.N_TRAJ)
        assert np.array_equal(stats.outcomes, outcomes)
        assert np.abs(stats.fidelity - fid).max() <= 1e-12
        assert np.abs(stats.mean_true_state - rhos.mean(axis=1)).max() <= 1e-12
        assert stats.fallback_counts.tolist() == [int(f.sum()) for f in used]
        for i in range(self.N_TRAJ):
            traj = filtering.simulate(cfg, i)
            assert traj.outcomes == outcomes[i].tolist()
            assert np.abs(np.stack([s.true_state for s in traj.steps]) - rhos[:, i]).max() <= 1e-12
            assert np.abs(np.stack([s.estimate for s in traj.steps]) - hats[:, i]).max() <= 1e-12
            assert np.abs(fidelities(traj) - fid[i]).max() <= 1e-12

    @pytest.mark.parametrize("i", range(40))
    def test_agrees_with_dense_step(self, i):
        self.assert_matches_dense(oracle_cfg(i))

    def test_per_step_channel_list(self):
        rng = np.random.default_rng(41)
        cfg = SimulationConfig(
            channel=[channels.random_channel(3, 1 + k % 3, rng) for k in range(5)],
            rho0=states.random_density(3, 1, rng),
            rho_hat0=states.random_density(3, 2, rng),
            steps=5,
            seed=41,
        )
        self.assert_matches_dense(cfg)

    def test_projective_fallback(self):
        cfg = SimulationConfig(
            channel=channels.validate_channel([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])]),
            rho0=np.diag([0.5, 0.5, 0.0]),
            rho_hat0=np.diag([0.0, 0.5, 0.5]),  # no weight on outcome 0
            steps=4,
            fallback=np.diag([0.2, 0.3, 0.5]),
            seed=42,
        )
        stats = filtering.batch_statistics(cfg, self.N_TRAJ)
        assert stats.fallback_counts.sum() > 0
        self.assert_matches_dense(cfg)

    @pytest.mark.parametrize("i", [1, 2, 4, 5, 7, 8])
    def test_coarse_steps_keep_n_columns(self, i):
        cfg = oracle_cfg(i)
        n = cfg.channel.dim
        factors = np.repeat(linalg._psd_factor(np.stack([cfg.rho0, cfg.rho_hat0]))[0][:, None], 3, axis=1)
        inv = np.arange(3)  # one history per trajectory
        u = numpy_uniforms(cfg.seed, range(3), cfg.steps)
        for k in range(cfg.steps):
            _, inv, _ = filtering._step(cfg.channel, cfg.partition, factors, inv, u[k], None)
            assert factors.shape == (2, 3, n, n)
            assert np.array_equal(inv, np.arange(3))
            rho, hat = factors @ factors.conj().swapaxes(-1, -2)
            assert np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1).max() <= 1e-12
            assert np.abs(np.trace(hat, axis1=-2, axis2=-1) - 1).max() <= 1e-12

    def test_reruns_are_bit_identical(self):
        cfg = oracle_cfg(2)
        a, b = filtering.batch_statistics(cfg, 50), filtering.batch_statistics(cfg, 50)
        assert np.array_equal(a.fidelity, b.fidelity)
        assert np.array_equal(a.mean_true_state, b.mean_true_state)
        assert filtering.trajectory_to_csv_string(filtering.simulate(cfg, 3)) == (
            filtering.trajectory_to_csv_string(filtering.simulate(cfg, 3))
        )

    def test_feedback_selector_sees_a_valid_dense_estimate(self):
        base = oracle_cfg(4)
        shown = []

        def selector(k, rho_hat):
            shown.append(rho_hat)
            states.make_density(rho_hat)  # raises unless Hermitian, unit-trace and PSD
            return base.channel

        cfg = SimulationConfig(
            channel=selector, rho0=base.rho0, rho_hat0=base.rho_hat0, steps=6, partition=base.partition, seed=4
        )
        traj = filtering.simulate(cfg)
        assert len(shown) == 6
        for rho_hat, step in zip(shown, traj.steps):
            assert np.array_equal(rho_hat, step.estimate)
        for rho_hat in shown[1:]:  # built by the engine as H H†, made Hermitian
            assert np.array_equal(rho_hat, rho_hat.conj().T)


class TestSimulate:
    def test_zero_steps(self):
        cfg = random_cfg(steps=0)
        traj = filtering.simulate(cfg)
        assert len(traj.steps) == 1
        assert traj.steps[0].outcome is None

    def test_perfect_filter_keeps_fidelity_one(self):
        cfg = random_cfg(seed=5)
        cfg.rho_hat0 = cfg.rho0
        traj = filtering.simulate(cfg)
        assert np.abs(fidelities(traj) - 1.0).max() < 1e-12

    def test_deterministic_given_seed(self):
        cfg = random_cfg(seed=6)
        a = filtering.trajectory_to_csv_string(filtering.simulate(cfg))
        b = filtering.trajectory_to_csv_string(filtering.simulate(cfg))
        assert a == b

    def test_trivial_partition_is_deterministic_kraus_step(self):
        cfg = random_cfg(seed=7, m=3, steps=4)
        cfg.partition = channels.trivial_partition(3)
        traj = filtering.simulate(cfg)
        rho = cfg.rho0
        hat = cfg.rho_hat0
        for step in traj.steps[1:]:
            assert step.outcome == 0
            rho = channels.apply_channel(cfg.channel, rho)
            hat = channels.apply_channel(cfg.channel, hat)
            assert np.abs(step.true_state - rho).max() < 1e-12
            assert np.abs(step.estimate - hat).max() < 1e-12

    def test_monte_carlo_mean_matches_kraus_map(self):
        # E[rho_1] = K(rho_0): batch mean over 1e5 trajectories within 5e-3
        cfg = random_cfg(seed=8, steps=1)
        stats = filtering.batch_statistics(cfg, 100_000)
        want = channels.apply_channel(cfg.channel, cfg.rho0)
        assert np.abs(stats.mean_true_state[1] - want).max() < 5e-3

    def test_per_step_channel_list(self):
        rng = np.random.default_rng(9)
        chs = [channels.random_channel(2, 2, rng) for _ in range(3)]
        cfg = SimulationConfig(
            channel=chs,
            rho0=states.random_density(2, 2, rng),
            rho_hat0=states.maximally_mixed(2),
            steps=3,
            seed=1,
        )
        traj = filtering.simulate(cfg)
        assert len(traj.steps) == 4

    def test_per_step_list_too_short(self):
        rng = np.random.default_rng(10)
        chs = [channels.random_channel(2, 2, rng)]
        cfg = SimulationConfig(
            channel=chs,
            rho0=states.maximally_mixed(2),
            rho_hat0=states.maximally_mixed(2),
            steps=3,
            seed=1,
        )
        with pytest.raises(ValueError, match="per-step channel list"):
            filtering.simulate(cfg)

    @pytest.mark.parametrize("field", ["channel", "channel[1]", "fallback"])
    def test_validate_checks_dimensions_against_rho0(self, field):
        rng = np.random.default_rng(12)
        qubit, qutrit = channels.random_channel(2, 2, rng), channels.random_channel(3, 2, rng)
        inputs = {
            "channel": {"channel": qubit},
            "channel[1]": {"channel": [qutrit, qubit, qutrit]},
            "fallback": {"channel": qutrit, "fallback": np.eye(2) / 2},
        }[field]
        cfg = SimulationConfig(rho0=np.eye(3) / 3, rho_hat0=np.eye(3) / 3, steps=3, seed=1, **inputs)
        with pytest.raises(ValueError, match=f"^{re.escape(field)} has "):
            cfg.validate()

    @pytest.mark.parametrize("bad_step", [0, 2])
    def test_feedback_pick_of_the_wrong_dimension_fails_before_its_step(self, bad_step):
        rng = np.random.default_rng(13)
        qubit, qutrit = channels.random_channel(2, 2, rng), channels.random_channel(3, 2, rng)
        steps = []
        step = filtering._step
        cfg = SimulationConfig(
            channel=lambda k, rho_hat: qubit if k == bad_step else qutrit,
            rho0=np.eye(3) / 3,
            rho_hat0=np.eye(3) / 3,
            steps=4,
            seed=1,
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filtering, "_step", lambda *args: steps.append(1) or step(*args))
            with pytest.raises(filtering.SimulationError) as err:
                filtering.simulate(cfg)
        assert str(err.value) == (
            f"step {bad_step} failed: channel at step {bad_step} has dimension 2, rho0 has dimension 3"
        )
        assert len(steps) == bad_step
        assert len(err.value.trajectory.steps) == bad_step + 1

    def test_feedback_sees_only_estimate(self):
        rng = np.random.default_rng(11)
        fixed = channels.random_channel(2, 2, rng)
        cfg = SimulationConfig(
            channel=fixed,
            rho0=states.random_density(2, 2, rng),
            rho_hat0=states.maximally_mixed(2),
            steps=4,
            seed=2,
        )
        reference = filtering.simulate(cfg)
        seen = []

        def selector(k, rho_hat):
            seen.append((k, rho_hat.copy()))
            return fixed

        cfg_fb = SimulationConfig(
            channel=selector,
            rho0=cfg.rho0,
            rho_hat0=cfg.rho_hat0,
            steps=4,
            seed=2,
        )
        traj = filtering.simulate(cfg_fb)
        assert len(seen) == 4
        for (k, shown), step in zip(seen, reference.steps[:-1]):
            assert k == step.k
            assert np.array_equal(shown, step.estimate)
        for a, b in zip(traj.steps, reference.steps):
            assert np.array_equal(a.true_state, b.true_state)

    def test_seed_required(self):
        cfg = random_cfg(seed=3)
        cfg.seed = None
        with pytest.raises(ValueError, match="seed"):
            filtering.simulate(cfg)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", 2.0])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        cfg = random_cfg(seed=3)
        cfg.seed = seed
        for run in (lambda: filtering.simulate(cfg), lambda: filtering.batch_statistics(cfg, 2)):
            with pytest.raises(ValueError, match="seed must be a non-negative integer, got " + repr(seed)):
                run()

    def test_numpy_integer_seed(self):
        cfg = random_cfg(seed=3)
        want = filtering.trajectory_to_csv_string(filtering.simulate(cfg, 1))
        cfg.seed = np.int64(3)
        assert filtering.trajectory_to_csv_string(filtering.simulate(cfg, 1)) == want

    @pytest.mark.parametrize("traj_index", [-1, 1.0])
    def test_traj_index_must_be_a_non_negative_integer(self, traj_index):
        with pytest.raises(ValueError, match="traj_index must be a non-negative integer"):
            filtering.simulate(random_cfg(seed=3), traj_index)

    def test_step_error_carries_partial_trajectory(self):
        ch = projective_qubit_channel()
        cfg = SimulationConfig(
            channel=ch,
            rho0=np.diag([1.0, 0.0]),
            rho_hat0=np.diag([0.0, 1.0]),
            steps=3,
            fallback=np.diag([0.0, 1.0]),  # fallback also misses outcome 0
            seed=4,
        )
        with pytest.raises(filtering.SimulationError) as err:
            filtering.simulate(cfg)
        assert len(err.value.trajectory.steps) == 1


class TestSimulateBatch:
    """Trajectories of one config, one simulate call per trajectory index."""

    def test_single_trajectory_equals_simulate(self):
        # the default index is 0, the first trajectory of a batch
        cfg = random_cfg(seed=12)
        first = simulate_each(cfg, 1)[0]
        solo = filtering.simulate(cfg)
        assert first.outcomes == solo.outcomes
        assert filtering.trajectory_to_csv_string(first) == filtering.trajectory_to_csv_string(solo)

    def test_batch_reproducible(self):
        cfg = random_cfg(seed=13)
        a = simulate_each(cfg, 4)
        b = simulate_each(cfg, 4)
        for x, y in zip(a, b):
            assert x.outcomes == y.outcomes

    def test_trajectories_differ_across_indices(self):
        cfg = random_cfg(seed=14, steps=20)
        batch = simulate_each(cfg, 4)
        assert len({tuple(t.outcomes) for t in batch}) > 1

    def test_mean_fidelity_non_decreasing(self):
        cfg = random_cfg(seed=15, n=3, m=3, steps=5)
        stats = filtering.batch_statistics(cfg, 3000)
        assert (stats.step_gain_z_scores() > -3.0).all()


class TestBatchStatistics:
    @pytest.mark.parametrize("coarse", [False, True], ids=["fine", "coarse"])
    def test_matches_per_trajectory_simulate(self, coarse):
        cfg = random_cfg(seed=16, n=3, m=3, steps=12)
        if coarse:
            cfg.partition = channels.random_partition(3, np.random.default_rng(16), 2)
        n_traj = 50
        stats = filtering.batch_statistics(cfg, n_traj)
        batch = simulate_each(cfg, n_traj)
        for i, traj in enumerate(batch):
            assert stats.outcomes[i].tolist() == traj.outcomes
            assert np.abs(stats.fidelity[i] - fidelities(traj)).max() < 1e-12

    def test_rows_across_lockstep_chunks_match_simulate(self):
        cfg = random_cfg(seed=23, n=3, m=3, steps=4)
        cfg.partition = channels.random_partition(3, np.random.default_rng(23), 2)
        n_traj = 2 * filtering._LOCKSTEP_CHUNK + 7
        stats = filtering.batch_statistics(cfg, n_traj)
        for i in (0, filtering._LOCKSTEP_CHUNK - 1, filtering._LOCKSTEP_CHUNK, n_traj - 1):
            traj = filtering.simulate(cfg, i)
            assert stats.outcomes[i].tolist() == traj.outcomes
            assert np.abs(stats.fidelity[i] - fidelities(traj)).max() < 1e-12

    def test_fallback_counted(self):
        ch = projective_qubit_channel()
        cfg = SimulationConfig(
            channel=ch,
            rho0=np.diag([1.0, 0.0]),
            rho_hat0=np.diag([0.0, 1.0]),
            steps=1,
            seed=17,
        )
        stats = filtering.batch_statistics(cfg, 8)
        assert stats.fallback_counts[0] == 8

    def test_z_scores_need_two_trajectories(self):
        stats = filtering.batch_statistics(random_cfg(seed=22, steps=2), 1)
        with pytest.raises(ValueError, match="at least 2 trajectories"):
            stats.step_gain_z_scores()

    def test_rejects_feedback_selector(self):
        cfg = random_cfg(seed=18)
        cfg.channel = lambda k, rho_hat: None
        with pytest.raises(ValueError, match="feedback"):
            filtering.batch_statistics(cfg, 2)


class TestTrajectoryCsv:
    def test_header_and_row_count(self):
        cfg = random_cfg(seed=19, steps=3)
        traj = filtering.simulate(cfg)
        lines = filtering.trajectory_to_csv_string(traj).splitlines()
        assert lines[0] == ",".join(filtering.TRAJECTORY_COLUMNS)
        assert len(lines) == 5  # header + initial + 3 steps
        assert lines[1].startswith("0,-1,")

    def test_round_trip_precision(self):
        cfg = random_cfg(seed=20, steps=2)
        traj = filtering.simulate(cfg)
        lines = filtering.trajectory_to_csv_string(traj).splitlines()
        fid = float(lines[1].split(",")[2])
        assert fid == measures.fidelity(traj.steps[0].estimate, traj.steps[0].true_state)

    def test_feedback_selector_runs_one_at_a_time_across_trajectories(self, tmp_path):
        rng = np.random.default_rng(24)
        chs = [channels.random_channel(3, 2, rng), channels.random_channel(3, 3, rng)]
        seen = []

        def select(k, rho_hat):
            seen.append(rho_hat.shape)
            return chs[int(rho_hat[0, 0].real * 1e3) % 2]

        cfg = SimulationConfig(
            channel=select, rho0=states.random_density(3, 2, rng), rho_hat0=states.maximally_mixed(3),
            steps=6, seed=24,
        )
        final = filtering._write_trajectory_csvs(cfg, 4, lambda i: tmp_path / f"{i}.csv")
        assert seen == [(3, 3)] * 24  # one dense estimate per step of each trajectory
        for i in range(4):
            traj = filtering.simulate(cfg, i)
            assert (tmp_path / f"{i}.csv").read_bytes().decode() == filtering.trajectory_to_csv_string(traj)
            assert final[i] == fidelities(traj)[-1]


STREAM_SEEDS = [0, 1, 12345, 2**31 + 7, 2**32 - 1, 2**32, 2**40 + 3, 2**130 + 99, np.int64(7)]


def lockstep_draws(cfg, keys, monkeypatch):
    """The (steps, len(keys)) uniforms _lockstep hands its steps for trajectories `keys`, the engine stubbed out."""
    draws = []

    def record(ch, partition, factors, inv, u, fallback):
        draws.append(u.copy())
        return np.zeros(len(u), dtype=np.int64), inv, np.zeros(len(u), dtype=bool)

    monkeypatch.setattr(filtering, "_step", record)
    for _ in filtering._lockstep(cfg, *cfg.validate(), keys):
        pass
    return np.array(draws).reshape(cfg.steps, len(keys))


POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def xor_popcount_z(u):
    """z of the mean XOR popcount of the 53-bit draws of consecutive steps (rows of u) against Binomial(53, 1/2)."""
    bits = (u * 2.0**53).astype(np.uint64)
    counts = POPCOUNT[(bits[1:] ^ bits[:-1]).view(np.uint8)].reshape(-1, 8).sum(axis=1)
    return (counts.mean() - 26.5) / np.sqrt(53 / 4 / counts.size)


class TestUniforms:
    """The draws _lockstep hands its steps: step k of trajectory i takes draw (k JUMP + i) mod 2^128 of default_rng(seed)."""

    @pytest.mark.parametrize("seed", STREAM_SEEDS, ids=repr)
    def test_matches_the_advanced_stream(self, seed, monkeypatch):
        cfg = random_cfg(seed=0, n=2, m=2)
        cfg.seed = seed
        want = numpy_uniforms(seed, range(1000), 25)
        for n_traj in (1, 3, 6, 257, 1000):
            for steps in (0, 1, 10, 25):
                cfg.steps = steps
                assert np.array_equal(lockstep_draws(cfg, range(n_traj), monkeypatch), want[:steps, :n_traj])

    @pytest.mark.parametrize("keys", [range(2**33 + 5, 2**33 + 6), range(2**32 - 2, 2**32 + 2), range(2**64 - 3, 2**64)])
    def test_keys_up_to_the_bound(self, keys, monkeypatch):
        cfg = random_cfg(seed=0, n=2, m=2, steps=10)
        for seed in (5, 2**130 + 99):
            cfg.seed = seed
            assert np.array_equal(lockstep_draws(cfg, keys, monkeypatch), numpy_uniforms(seed, keys, 10))

    @pytest.mark.parametrize("start, stop", [(0, 1), (5, 6), (3, 40), (255, 513), (0, 600)])
    def test_a_group_is_its_slice_of_a_larger_batch(self, start, stop, monkeypatch):
        cfg = random_cfg(seed=7, n=2, m=2, steps=12)
        batch = lockstep_draws(cfg, range(600), monkeypatch)
        assert np.array_equal(lockstep_draws(cfg, range(start, stop), monkeypatch), batch[:, start:stop])

    def test_one_generator_per_run(self, monkeypatch):
        cfg, built = random_cfg(seed=9, n=2, m=2, steps=6), []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: built.append(a) or default_rng(*a))
        filtering.batch_statistics(cfg, 300)
        assert built == [(9,)]

    def test_index_bound(self):
        cfg = random_cfg(seed=12, n=2, m=2, steps=3)
        assert len(filtering.simulate(cfg, 2**64 - 1).outcomes) == 3
        for bad in (2**64, -1):
            with pytest.raises(ValueError, match="traj_index"):
                filtering.simulate(cfg, bad)

    def test_a_longer_horizon_extends_a_shorter_one(self):
        short, long = (random_cfg(seed=13, n=3, m=4, steps=steps) for steps in (5, 9))
        short.partition = long.partition = channels.make_partition(4, [[0, 1], [2], [3]])
        for i in (0, 4):
            head, tail = filtering.simulate(short, i).steps, filtering.simulate(long, i).steps
            for a, b in zip(head, tail[: len(head)], strict=True):
                assert (a.k, a.outcome, a.fallback_used) == (b.k, b.outcome, b.fallback_used)
                assert np.array_equal(a.true_state, b.true_state) and np.array_equal(a.estimate, b.estimate)
        head, tail = filtering.batch_statistics(short, 300), filtering.batch_statistics(long, 300)
        assert np.array_equal(tail.fidelity[:, :6], head.fidelity)
        assert np.array_equal(tail.outcomes[:, :5], head.outcomes)
        assert np.array_equal(tail.mean_true_state[:6], head.mean_true_state)
        assert np.array_equal(tail.fallback_counts[:5], head.fallback_counts)

    @pytest.mark.parametrize("seed", [1, 987654321, 0])
    def test_steps_are_decorrelated(self, seed, monkeypatch):
        # 2^20 pairs of draws of steps k and k + 1 of one trajectory: 32 of each of 2^15 trajectories
        cfg = random_cfg(seed=seed, n=1, m=1, steps=33)
        assert abs(xor_popcount_z(lockstep_draws(cfg, range(2**15), monkeypatch))) <= 6
        # the negative control: a stride of 2^64 repeats the low 64 bits of the generator's state
        monkeypatch.setattr(filtering, "_STEP_STRIDE", 2**64)
        assert xor_popcount_z(lockstep_draws(cfg, range(2**15), monkeypatch)) < -6

    def test_simulate_with_a_two_word_spawn_key(self):
        cfg = random_cfg(seed=12, n=3, m=3, steps=8)
        key = 2**33 + 5
        outcomes, rhos, hats, fid, _ = dense_run(cfg, 1, keys=[key])
        traj = filtering.simulate(cfg, key)
        assert traj.outcomes == outcomes[0].tolist()
        assert np.abs(fidelities(traj) - fid[0]).max() <= 1e-12
        assert traj.outcomes != filtering.simulate(cfg, 5).outcomes  # the high word counts


def per_trajectory_stats(cfg, n_traj, chunk=256):
    """(fidelity, outcomes, mean_true_state, fallback_counts) with one stack row per trajectory.

    The lockstep run without history sharing: every trajectory is its own
    history, advanced by _step in chunks of `chunk` trajectories, and the
    fidelity and the mean are taken over the trajectory stack.
    """
    rho0, hat0 = cfg.validate()
    n = len(rho0)
    u = numpy_uniforms(cfg.seed, range(n_traj), cfg.steps)
    factors = np.repeat(linalg._psd_factor(np.stack([rho0, hat0]))[0][:, None], n_traj, axis=1)
    fid = [filtering._fidelity(factors[1], factors[0])]
    outcomes = np.empty((n_traj, cfg.steps), dtype=np.int64)
    mean, fallbacks = [rho0], []
    for k in range(cfg.steps):
        count = 0
        for start in range(0, n_traj, chunk):
            s = slice(start, start + chunk)
            own = np.arange(len(u[k, s]))
            outcomes[s, k], inv, used = filtering._step(
                cfg.channel_at(k, None), cfg.partition, factors[:, s], own, u[k, s], cfg.fallback
            )
            assert np.array_equal(inv, own)
            count += used.sum()
        fallbacks.append(count)
        fid.append(filtering._fidelity(factors[1], factors[0]))
        side = factors[0].transpose(1, 0, 2).reshape(n, -1)
        mean.append(filtering._hermitian(side @ side.conj().T) / n_traj)
    return np.stack(fid, axis=1), outcomes, np.stack(mean), np.array(fallbacks, dtype=np.int64)


class TestHistorySharing:
    """batch_statistics, one pair per distinct history, against one row per trajectory: equal bit for bit."""

    def assert_same(self, cfg, n_traj=40):
        stats = filtering.batch_statistics(cfg, n_traj)
        fid, outcomes, mean, fallbacks = per_trajectory_stats(cfg, n_traj)
        assert np.array_equal(stats.fidelity, fid)
        assert np.array_equal(stats.outcomes, outcomes)
        assert np.array_equal(stats.mean_true_state, mean)
        assert np.array_equal(stats.fallback_counts, fallbacks)
        return stats

    @pytest.mark.parametrize("i", range(40))
    def test_oracle_configs(self, i):
        self.assert_same(oracle_cfg(i))

    def test_projective_fallback(self):
        cfg = SimulationConfig(
            channel=channels.validate_channel([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])]),
            rho0=np.diag([0.5, 0.5, 0.0]),
            rho_hat0=np.diag([0.0, 0.5, 0.5]),
            steps=4,
            fallback=np.diag([0.2, 0.3, 0.5]),
            seed=42,
        )
        assert self.assert_same(cfg).fallback_counts.sum() > 0

    def test_per_step_channel_list(self):
        rng = np.random.default_rng(41)
        cfg = SimulationConfig(
            channel=[channels.random_channel(3, 1 + k % 3, rng) for k in range(5)],
            rho0=states.random_density(3, 1, rng),
            rho_hat0=states.random_density(3, 2, rng),
            steps=5,
            seed=41,
        )
        self.assert_same(cfg)

    @pytest.mark.parametrize("blocks", [16, 12], ids=["fine", "coarse"])
    def test_sixteen_outcomes_diverge_at_once(self, blocks):
        cfg = random_cfg(seed=43, n=3, m=16, steps=4)
        if blocks < 16:
            cfg.partition = channels.random_partition(16, np.random.default_rng(43), blocks)
        stats = self.assert_same(cfg, n_traj=300)
        assert len({tuple(row) for row in stats.outcomes[:, :2].tolist()}) > 100

    @pytest.mark.parametrize("seed", range(8))
    def test_trivial_partition_of_eight_outcomes(self, seed):
        # one history throughout: its 8-outcome block sum must not depend on the stack row
        rng = np.random.default_rng(seed)
        cfg = SimulationConfig(
            channel=channels.random_channel(2, 8, rng),
            rho0=states.random_density(2, 1, rng),
            rho_hat0=states.random_density(2, 1, rng),
            steps=3,
            partition=channels.trivial_partition(8),
            seed=seed,
        )
        self.assert_same(cfg, n_traj=7)

    def test_batch_crossing_the_chunk_boundary(self):
        cfg = random_cfg(seed=44, n=3, m=3, steps=10)
        cfg.partition = channels.random_partition(3, np.random.default_rng(44), 2)
        stats = self.assert_same(cfg, n_traj=600)
        assert max(history_counts(stats.outcomes)) > filtering._LOCKSTEP_CHUNK


def hidden_markov_cfg(steps, seed):
    """A classical hidden Markov chain on three states as diagonal Kraus jumps, observed through block y.

    The operator sqrt(O[x, y] T[x, x']) |x'><x| sits in block y.  States 0 and
    1 never reach 2 and never show y = 2, so the estimate, which starts on
    them, has y = 2 probability exactly 0; the true state starts with weight
    on 2, and each of its y = 2 jumps falls the estimate back to xi.
    """
    T = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.1, 0.1, 0.8]])
    O = np.array([[0.7, 0.3, 0.0], [0.3, 0.7, 0.0], [0.3, 0.3, 0.4]])
    ops, blocks = [], [[], [], []]
    for x in range(3):
        for x2 in range(3):
            for y in range(3):
                if T[x, x2] * O[x, y] > 0:
                    blocks[y].append(len(ops))
                    ops.append(np.sqrt(T[x, x2] * O[x, y]) * np.outer(np.eye(3)[x2], np.eye(3)[x]))
    return SimulationConfig(
        channel=channels.validate_channel(ops),
        rho0=np.diag([0.2, 0.2, 0.6]),
        rho_hat0=np.diag([0.5, 0.5, 0.0]),
        steps=steps,
        partition=channels.make_partition(len(ops), blocks),
        seed=seed,
    )


def history_counts(outcomes):
    """The number of distinct outcome histories before each step k = 0 .. steps."""
    return [len({tuple(row[:k]) for row in outcomes.tolist()}) for k in range(outcomes.shape[1] + 1)]


def chunk_sizes(count):
    return [len(range(count)[s]) for s in filtering._chunks(count)]


class TestOneProductPass:
    """_step multiplies only the true factors by every operator, then forms only the chosen blocks' products.

    Each config carries more distinct histories than one kernel chunk holds.
    """

    PARTITIONS = {"fine": None, "two_blocks": [[0, 1], [2, 3]], "singleton_and_coarse": [[0], [1, 2, 3]]}
    N_TRAJ = 1200

    def cfg(self, name):
        blocks = self.PARTITIONS[name]
        cfg = random_cfg(seed=61, n=3, m=4, steps=6 if blocks is None else 12)
        cfg.partition = None if blocks is None else channels.make_partition(4, blocks)
        return cfg

    @pytest.mark.parametrize("name", sorted(PARTITIONS))
    def test_one_true_factor_product_per_chunk_across_trajectories(self, name, monkeypatch):
        calls = []
        probs, update = filtering._factor_probs, filtering._factor_update
        monkeypatch.setattr(filtering, "_factor_probs", lambda ch, L, *a: calls.append(("probs", len(L))) or probs(ch, L, *a))
        monkeypatch.setattr(
            filtering, "_factor_update", lambda ch, i, L, *a: calls.append(("update", len(L))) or update(ch, i, L, *a)
        )
        stats = filtering.batch_statistics(self.cfg(name), self.N_TRAJ)
        histories = history_counts(stats.outcomes)
        assert max(histories) > filtering._LOCKSTEP_CHUNK
        # per step: the H parents' true factors in chunks, then both factors of the H' children, last chunk first
        want = []
        for before, after in zip(histories, histories[1:]):
            want += [("probs", size) for size in chunk_sizes(before)]
            want += [("update", 2 * size) for size in reversed(chunk_sizes(after))]
        assert calls == want

    @pytest.mark.parametrize("name", sorted(PARTITIONS))
    def test_rows_match_simulate_across_trajectories(self, name):
        cfg = self.cfg(name)
        stats = filtering.batch_statistics(cfg, self.N_TRAJ)
        assert max(history_counts(stats.outcomes)) > filtering._LOCKSTEP_CHUNK
        fid, outcomes, mean, fallbacks = per_trajectory_stats(cfg, self.N_TRAJ, chunk=100)
        assert np.array_equal(stats.fidelity, fid)
        assert np.array_equal(stats.outcomes, outcomes)
        assert np.array_equal(stats.mean_true_state, mean)
        assert np.array_equal(stats.fallback_counts, fallbacks)
        for i in (0, 1, filtering._LOCKSTEP_CHUNK, self.N_TRAJ - 1):
            traj = filtering.simulate(cfg, i)
            assert stats.outcomes[i].tolist() == traj.outcomes
            assert np.abs(stats.fidelity[i] - fidelities(traj)).max() < 1e-12

    def test_estimate_fallback_across_trajectories(self, monkeypatch):
        # small chunks, so the fallback rows of a step sit in several of them
        monkeypatch.setattr(filtering, "_LOCKSTEP_CHUNK", 8)
        cfg, n_traj = hidden_markov_cfg(steps=8, seed=62), 150
        stats = filtering.batch_statistics(cfg, n_traj)
        runs = simulate_each(cfg, n_traj)
        flags = np.array([[s.fallback_used for s in traj.steps[1:]] for traj in runs])
        assert np.array_equal(stats.fallback_counts, flags.sum(axis=0))
        histories = history_counts(stats.outcomes)
        assert any(count and h > 8 for count, h in zip(stats.fallback_counts, histories[1:]))
        for i, traj in enumerate(runs):
            assert stats.outcomes[i].tolist() == traj.outcomes
            assert np.abs(stats.fidelity[i] - fidelities(traj)).max() < 1e-12
        fid, outcomes, _, fallbacks = per_trajectory_stats(cfg, n_traj, chunk=32)
        assert np.array_equal(stats.fidelity, fid)
        assert np.array_equal(stats.fallback_counts, fallbacks)
