"""Service-mode training tests (PR 7 tentpole acceptance).

The mandatory anchor: ``train_steps`` on a config with
``replay_shards=1, learners=1`` IS the serial batched loop, bit for bit —
property-tested across MADDPG and MATD3, N ∈ {3, 6}, with and without
prioritized replay.  PER configs asked to shard must degrade
*explicitly* (warning + guard) to that same serial path.  The
multi-process mode is smoke-tested end to end: learners make progress,
parameters merge back, counters reconcile, nothing leaks.
"""

from __future__ import annotations

import copy
import glob

import numpy as np
import pytest

from repro.envs.factory import make_vector_env
from repro.training import collect_steps, train_steps

from tests.test_pipeline import ENV, assert_trainers_equal, build, small_config


def make_pair(algorithm, variant, num_agents, copies=4, **topology):
    """Two identically seeded (vec_env, trainer) pairs: a serial reference
    and one whose config carries ``topology``."""
    pairs = []
    for cfg in ({}, topology):
        vec = make_vector_env(ENV, num_agents, copies, seed=5)
        pairs.append((vec, build(algorithm, variant, vec, small_config(**cfg))))
    return pairs


def service_config(**overrides):
    base = dict(replay_shards=2, learners=2, min_buffer_fill=32, batch_size=16)
    base.update(overrides)
    return small_config(**base)


def shm_leaks():
    return glob.glob("/dev/shm/repro_svc_*") + glob.glob("/dev/shm/repro_param_*")


class TestSerialAnchor:
    """shards=1, learners=1 reproduces the serial batched loop bit for bit."""

    @pytest.mark.parametrize("algorithm", ["maddpg", "matd3"])
    @pytest.mark.parametrize("num_agents", [3, 6])
    def test_uniform_bit_identity(self, algorithm, num_agents):
        (vec_a, ref), (vec_b, svc) = make_pair(
            algorithm, "baseline", num_agents, replay_shards=1, learners=1
        )
        try:
            collect_steps(vec_a, ref, 50)
            result = train_steps(vec_b, svc, 50)
        finally:
            vec_a.close() if hasattr(vec_a, "close") else None
            vec_b.close() if hasattr(vec_b, "close") else None
        assert_trainers_equal(ref, svc)
        assert result.update_rounds == ref.update_rounds

    @pytest.mark.parametrize("algorithm", ["maddpg", "matd3"])
    @pytest.mark.parametrize("num_agents", [3, 6])
    def test_prioritized_bit_identity(self, algorithm, num_agents):
        (vec_a, ref), (vec_b, svc) = make_pair(
            algorithm, "per", num_agents, replay_shards=1, learners=1
        )
        try:
            collect_steps(vec_a, ref, 50)
            train_steps(vec_b, svc, 50)
        finally:
            vec_a.close() if hasattr(vec_a, "close") else None
            vec_b.close() if hasattr(vec_b, "close") else None
        assert_trainers_equal(ref, svc)


class TestPerGuard:
    """PER + sharding degrades explicitly to the serial anchor."""

    def test_warns_and_runs_serial_bit_identically(self):
        (vec_a, ref), (vec_b, svc) = make_pair(
            "maddpg", "per", 3, replay_shards=2, learners=2
        )
        try:
            train_steps(vec_a, ref, 40)
            with pytest.warns(RuntimeWarning, match="single-shard guard"):
                result = train_steps(vec_b, svc, 40)
        finally:
            vec_a.close() if hasattr(vec_a, "close") else None
            vec_b.close() if hasattr(vec_b, "close") else None
        assert_trainers_equal(ref, svc)
        assert "learner_rounds" not in result.extra  # serial path, no service

    def test_guard_emits_telemetry_counter(self):
        from repro.telemetry import memory_recorder

        vec = make_vector_env(ENV, 3, 2, seed=5)
        trainer = build("maddpg", "per", vec, small_config(replay_shards=4))
        recorder = memory_recorder()
        try:
            with pytest.warns(RuntimeWarning):
                train_steps(vec, trainer, 5, telemetry=recorder)
        finally:
            vec.close() if hasattr(vec, "close") else None
        names = [r.name for r in recorder.sink.of_kind("counter")]
        assert "service.per_guard" in names


class TestServiceMode:
    """2 shards × 2 learners end to end: progress, merge, reconciliation."""

    def test_end_to_end_smoke(self):
        leaks_before = set(shm_leaks())
        vec = make_vector_env(ENV, 3, 4, seed=5)
        trainer = build("maddpg", "baseline", vec, service_config())
        initial = [
            [p.value.copy() for p in agent.actor.parameters()]
            for agent in trainer.agents
        ]
        try:
            result = train_steps(vec, trainer, 60, env_name=ENV, seed=7)
        finally:
            vec.close() if hasattr(vec, "close") else None

        assert result.extra["replay_shards"] == 2.0
        assert result.extra["learners"] == 2.0
        assert result.extra["learner_rounds"] > 0
        assert result.extra["sampled_rows"] > 0
        assert result.extra["sampled_rows_per_s"] > 0
        assert 0.0 < result.extra["learner_utilization"] <= 1.0
        assert result.extra["staleness_max"] >= 0
        assert result.update_rounds == int(result.extra["learner_rounds"])
        # every pushed transition landed in exactly one shard
        ingested = result.extra["shard0_ingested"] + result.extra["shard1_ingested"]
        assert ingested == result.extra["transitions"] == 60 * 4
        # the learners' merged parameters actually moved the trainer
        moved = any(
            not np.array_equal(p.value, q)
            for agent, saved in zip(trainer.agents, initial)
            for p, q in zip(agent.actor.parameters(), saved)
        )
        assert moved, "no learner progress merged back into the trainer"
        assert set(shm_leaks()) <= leaks_before

    def test_env_var_topology_resolution(self, monkeypatch):
        """replay_shards=None resolves through REPRO_REPLAY_SHARDS."""
        monkeypatch.setenv("REPRO_REPLAY_SHARDS", "2")
        vec = make_vector_env(ENV, 3, 2, seed=5)
        trainer = build(
            "maddpg", "baseline", vec, service_config(replay_shards=None, learners=1)
        )
        try:
            result = train_steps(vec, trainer, 30, seed=3)
        finally:
            vec.close() if hasattr(vec, "close") else None
        assert result.extra["replay_shards"] == 2.0

    def test_learner_phase_totals_merged(self):
        vec = make_vector_env(ENV, 3, 2, seed=5)
        trainer = build("maddpg", "baseline", vec, service_config())
        try:
            result = train_steps(vec, trainer, 40, seed=1)
        finally:
            vec.close() if hasattr(vec, "close") else None
        totals = result.phase_totals
        assert totals.get("service_push", 0.0) > 0.0
        assert any(k.startswith("learner.") for k in totals), totals

    def test_reports_the_learner_count_that_ran(self):
        """More learners than agents clamp to one learner per agent, and
        the result says so instead of echoing the config."""
        vec = make_vector_env(ENV, 3, 2, seed=5)
        trainer = build(
            "maddpg", "baseline", vec, service_config(replay_shards=1, learners=5)
        )
        try:
            result = train_steps(vec, trainer, 20, seed=2)
        finally:
            vec.close() if hasattr(vec, "close") else None
        assert result.extra["learners"] == 3.0
        assert result.extra["replay_shards"] == 1.0
