import numpy as np
import pytest

from qfilter import channels, filtering, measures, states
from qfilter.filtering import SimulationConfig


def projective_qubit_channel():
    return channels.validate_channel([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


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

    def test_both_engines_raise_from_the_same_psd_check(self):
        # a near-null estimate update leaves eigenvalues below -1e-10
        cfg = near_null_cfg()
        with pytest.raises(ValueError, match="not positive semidefinite") as solo:
            filtering.simulate(cfg, 0).fidelities()
        with pytest.raises(ValueError, match="not positive semidefinite") as lockstep:
            filtering.batch_statistics(cfg, 1)
        assert str(solo.value) == str(lockstep.value)


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
        assert np.abs(traj.fidelities() - 1.0).max() < 1e-12

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
    def test_single_trajectory_equals_simulate(self):
        cfg = random_cfg(seed=12)
        batch = filtering.simulate_batch(cfg, 1)
        solo = filtering.simulate(cfg, traj_index=0)
        assert batch[0].outcomes == solo.outcomes
        assert filtering.trajectory_to_csv_string(batch[0]) == filtering.trajectory_to_csv_string(solo)

    def test_batch_reproducible(self):
        cfg = random_cfg(seed=13)
        a = filtering.simulate_batch(cfg, 4)
        b = filtering.simulate_batch(cfg, 4)
        for x, y in zip(a, b):
            assert x.outcomes == y.outcomes

    def test_trajectories_differ_across_indices(self):
        cfg = random_cfg(seed=14, steps=20)
        batch = filtering.simulate_batch(cfg, 4)
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
        batch = filtering.simulate_batch(cfg, n_traj)
        for i, traj in enumerate(batch):
            assert stats.outcomes[i].tolist() == traj.outcomes
            assert np.abs(stats.fidelity[i] - traj.fidelities()).max() < 1e-12

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

    def test_dict_dump_with_states(self):
        cfg = random_cfg(seed=21, steps=2)
        traj = filtering.simulate(cfg)
        d = filtering.trajectory_to_dict(traj, include_states=True)
        assert len(d["steps"]) == 3
        rebuilt = states.matrix_from_dict(d["steps"][1]["true_state"])
        assert np.array_equal(rebuilt, traj.steps[1].true_state)
