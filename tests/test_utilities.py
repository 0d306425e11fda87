"""Tests for exploration schedules, normalizer, metrics, and vector envs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algos import (
    ExponentialSchedule,
    LinearSchedule,
    MARLConfig,
    OrnsteinUhlenbeckNoise,
)
from repro.envs import SyncVectorEnv, make
from repro.nn import RunningNormalizer
from repro.training import (
    MetricsCollector,
    collect_steps,
    run_episode,
)


class TestLinearSchedule:
    def test_endpoints(self):
        sched = LinearSchedule(1.0, 0.1, steps=10)
        assert sched.value == 1.0
        for _ in range(10):
            sched.step()
        assert sched.value == pytest.approx(0.1)

    def test_midpoint(self):
        sched = LinearSchedule(1.0, 0.0, steps=4)
        sched.step()
        sched.step()
        assert sched.value == pytest.approx(0.5)

    def test_clamps_after_end(self):
        sched = LinearSchedule(1.0, 0.5, steps=2)
        for _ in range(10):
            sched.step()
        assert sched.value == 0.5

    def test_reset(self):
        sched = LinearSchedule(1.0, 0.0, steps=5)
        sched.step()
        sched.reset()
        assert sched.value == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearSchedule(1.0, 0.0, steps=0)

    def test_can_increase(self):
        sched = LinearSchedule(0.0, 1.0, steps=2)
        sched.step()
        assert sched.value == pytest.approx(0.5)


class TestExponentialSchedule:
    def test_decay(self):
        sched = ExponentialSchedule(1.0, 0.01, decay=0.5)
        sched.step()
        assert sched.value == pytest.approx(0.5)
        sched.step()
        assert sched.value == pytest.approx(0.25)

    def test_floor(self):
        sched = ExponentialSchedule(1.0, 0.3, decay=0.1)
        for _ in range(10):
            sched.step()
        assert sched.value == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialSchedule(1.0, 0.1, decay=1.0)
        with pytest.raises(ValueError):
            ExponentialSchedule(0.1, 1.0, decay=0.5)


class TestOUNoise:
    def test_mean_reversion(self):
        noise = OrnsteinUhlenbeckNoise(
            2, mu=0.0, theta=0.5, sigma=1e-9, rng=np.random.default_rng(0)
        )
        noise.state = np.array([10.0, -10.0])
        for _ in range(50):
            noise.sample()
        assert np.all(np.abs(noise.state) < 1.0)

    def test_temporal_correlation(self):
        noise = OrnsteinUhlenbeckNoise(1, sigma=0.2, rng=np.random.default_rng(0))
        samples = np.array([noise.sample()[0] for _ in range(2000)])
        lag1 = np.corrcoef(samples[:-1], samples[1:])[0, 1]
        assert lag1 > 0.5  # strongly autocorrelated, unlike white noise

    def test_reset(self):
        noise = OrnsteinUhlenbeckNoise(3, mu=0.7, rng=np.random.default_rng(0))
        noise.sample()
        noise.reset()
        np.testing.assert_allclose(noise.state, 0.7)

    def test_sample_returns_copy(self):
        noise = OrnsteinUhlenbeckNoise(2, rng=np.random.default_rng(0))
        a = noise.sample()
        a[:] = 99.0
        assert not np.any(noise.state == 99.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            OrnsteinUhlenbeckNoise(0)
        with pytest.raises(ValueError):
            OrnsteinUhlenbeckNoise(2, theta=-1.0)


class TestRunningNormalizer:
    def test_tracks_mean_and_std(self, rng):
        norm = RunningNormalizer(3)
        data = rng.normal([1.0, -2.0, 5.0], [2.0, 0.5, 1.0], size=(5000, 3))
        norm.update(data)
        np.testing.assert_allclose(norm.mean, [1.0, -2.0, 5.0], atol=0.1)
        np.testing.assert_allclose(np.sqrt(norm.variance), [2.0, 0.5, 1.0], atol=0.1)

    def test_normalized_output_is_standardized(self, rng):
        norm = RunningNormalizer(2)
        data = rng.normal(3.0, 4.0, size=(2000, 2))
        norm.update(data)
        out = norm.normalize(data)
        assert abs(out.mean()) < 0.05
        assert abs(out.std() - 1.0) < 0.05

    def test_clipping(self):
        norm = RunningNormalizer(1, clip=2.0)
        norm.update(np.zeros((10, 1)))
        out = norm.normalize(np.array([1e9]))
        assert out[0] == 2.0

    def test_denormalize_inverts(self, rng):
        norm = RunningNormalizer(2, clip=1e9)
        norm.update(rng.normal(1.0, 3.0, size=(500, 2)))
        x = rng.standard_normal(2)
        np.testing.assert_allclose(norm.denormalize(norm.normalize(x)), x)

    def test_freeze_stops_updates(self):
        norm = RunningNormalizer(1)
        norm.update(np.ones((5, 1)))
        norm.freeze()
        count = norm.count
        norm.update(np.full((5, 1), 100.0))
        assert norm.count == count
        norm.unfreeze()
        norm.update(np.ones((1, 1)))
        assert norm.count == count + 1

    def test_call_updates_and_normalizes(self):
        norm = RunningNormalizer(1)
        out = norm(np.array([[1.0], [3.0]]))
        assert norm.count == 2
        assert out.shape == (2, 1)

    def test_state_dict_round_trip(self, rng):
        a = RunningNormalizer(3)
        a.update(rng.standard_normal((100, 3)))
        b = RunningNormalizer(3)
        b.load_state_dict(a.state_dict())
        x = rng.standard_normal(3)
        np.testing.assert_allclose(a.normalize(x), b.normalize(x))

    def test_validation(self):
        with pytest.raises(ValueError):
            RunningNormalizer(0)
        norm = RunningNormalizer(2)
        with pytest.raises(ValueError):
            norm.update(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            norm.load_state_dict({"mean": np.zeros(5), "m2": np.zeros(5), "count": [1]})

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_property_welford_matches_numpy(self, values):
        norm = RunningNormalizer(1)
        for v in values:
            norm.update(np.array([[v]]))
        np.testing.assert_allclose(norm.mean[0], np.mean(values), atol=1e-8)
        np.testing.assert_allclose(
            norm.variance[0], np.var(values, ddof=1), atol=1e-8
        )


class TestMetricsCollector:
    def test_collects_collisions(self):
        collector = MetricsCollector()
        collector.start_episode(2)
        collector.record_step({"n": [{"collisions": 2}, {"collisions": 0}]})
        collector.record_step({"n": [{"collisions": 1}, {"collisions": 1}]})
        episode = collector.end_episode()
        assert episode.total_collisions == 4
        assert episode.per_agent_collisions == [3, 1]
        assert episode.steps == 2
        assert episode.collisions_per_step == pytest.approx(2.0)

    def test_coverage_tracked(self):
        collector = MetricsCollector()
        collector.start_episode(1)
        collector.record_step({"n": [{"collisions": 0, "coverage": -5.0}]})
        collector.record_step({"n": [{"collisions": 0, "coverage": -2.0}]})
        episode = collector.end_episode()
        assert episode.final_coverage == -2.0
        assert collector.mean_coverage() == -2.0

    def test_lifecycle_errors(self):
        collector = MetricsCollector()
        with pytest.raises(RuntimeError):
            collector.record_step({})
        with pytest.raises(RuntimeError):
            collector.end_episode()
        with pytest.raises(ValueError):
            collector.mean_collisions()

    def test_run_episode_with_metrics_pp(self):
        env = make("predator_prey", num_agents=3, seed=0)
        cfg = MARLConfig(batch_size=32, buffer_capacity=256, update_every=100)
        trainer = repro.make_trainer(
            "maddpg", "baseline", env.obs_dims, env.act_dims, config=cfg, seed=0
        )
        collector = MetricsCollector()
        totals = run_episode(env, trainer, metrics=collector)
        assert len(totals) == 3
        assert len(collector) == 1
        assert "mean_collisions" in collector.summary()

    def test_run_episode_with_metrics_cn_has_coverage(self):
        env = make("cooperative_navigation", num_agents=2, seed=0)
        cfg = MARLConfig(batch_size=32, buffer_capacity=256, update_every=100)
        trainer = repro.make_trainer(
            "maddpg", "baseline", env.obs_dims, env.act_dims, config=cfg, seed=0
        )
        collector = MetricsCollector()
        run_episode(env, trainer, metrics=collector)
        assert "mean_coverage" in collector.summary()


class TestSyncVectorEnv:
    def make_vec(self, k=3, agents=2):
        factories = [
            (lambda s=s: make("cooperative_navigation", num_agents=agents, seed=s))
            for s in range(k)
        ]
        return SyncVectorEnv(factories)

    def test_reset_shapes(self):
        vec = self.make_vec(k=3, agents=2)
        obs = vec.reset()
        assert len(obs) == 2
        assert all(o.shape == (3, 12) for o in obs)  # CN-2: Box(6N=12)

    def test_copies_have_distinct_states(self):
        vec = self.make_vec(k=3)
        obs = vec.reset()
        assert not np.allclose(obs[0][0], obs[0][1])

    def test_step_shapes(self):
        vec = self.make_vec(k=3, agents=2)
        vec.reset()
        actions = [np.tile(np.eye(5)[1], (3, 1)) for _ in range(2)]
        obs, rewards, dones, infos = vec.step(actions)
        assert rewards.shape == (3, 2)
        assert dones.shape == (3, 2)
        assert len(infos) == 3

    def test_auto_reset_on_horizon(self):
        factories = [
            lambda: make("cooperative_navigation", num_agents=1, seed=0, max_episode_len=2)
        ]
        vec = SyncVectorEnv(factories)
        vec.reset()
        actions = [np.zeros((1, 5))]
        vec.step(actions)
        _, _, dones, _ = vec.step(actions)
        assert dones[0][0]
        # next step runs on the reset episode (no exception, not done)
        _, _, dones, _ = vec.step(actions)
        assert not dones[0][0]

    def test_mismatched_spaces_rejected(self):
        factories = [
            lambda: make("cooperative_navigation", num_agents=2, seed=0),
            lambda: make("cooperative_navigation", num_agents=3, seed=0),
        ]
        with pytest.raises(ValueError, match="share"):
            SyncVectorEnv(factories)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SyncVectorEnv([])

    def test_action_validation(self):
        vec = self.make_vec(k=2, agents=2)
        vec.reset()
        with pytest.raises(ValueError, match="per-agent"):
            vec.step([np.zeros((2, 5))])
        with pytest.raises(ValueError, match="rows"):
            vec.step([np.zeros((3, 5)), np.zeros((3, 5))])


class TestCollectSteps:
    def test_collects_and_updates(self):
        factories = [
            (lambda s=s: make("cooperative_navigation", num_agents=2, seed=s))
            for s in range(4)
        ]
        vec = SyncVectorEnv(factories)
        cfg = MARLConfig(batch_size=32, buffer_capacity=2048, update_every=20)
        trainer = repro.make_trainer(
            "maddpg", "baseline", vec.obs_dims, vec.act_dims, config=cfg, seed=0
        )
        stats = collect_steps(vec, trainer, steps=25)
        assert stats["transitions"] == 100.0  # 25 steps x 4 copies
        assert stats["update_rounds"] >= 1
        assert len(trainer.replay) == 100

    def test_learn_false_stores_nothing(self):
        vec = SyncVectorEnv([lambda: make("cooperative_navigation", num_agents=2, seed=0)])
        cfg = MARLConfig(batch_size=32, buffer_capacity=256, update_every=20)
        trainer = repro.make_trainer(
            "maddpg", "baseline", vec.obs_dims, vec.act_dims, config=cfg, seed=0
        )
        stats = collect_steps(vec, trainer, steps=5, learn=False)
        assert stats["transitions"] == 0.0
        assert len(trainer.replay) == 0

    def test_invalid_steps(self):
        vec = SyncVectorEnv([lambda: make("cooperative_navigation", num_agents=1, seed=0)])
        cfg = MARLConfig(batch_size=16, buffer_capacity=64)
        trainer = repro.make_trainer(
            "maddpg", "baseline", vec.obs_dims, vec.act_dims, config=cfg, seed=0
        )
        with pytest.raises(ValueError):
            collect_steps(vec, trainer, steps=0)
