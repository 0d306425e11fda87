"""The replay-service learner: sharded replay + multi-learner updates.

:func:`~repro.training.loop.train_steps` runs through a
:class:`ServiceLearner` when the trainer's config asks for more than one
replay shard or learner.  The main process stays a pure rollout producer
on the ordinary vector collector; only its per-step store differs: each
sweep's packed joint-schema rows go to the
:class:`~repro.replay.service.ReplayShardService`, and the producer's
actors refresh from the :class:`~repro.replay.params.SharedParameterStore`
every ``param_staleness`` sweeps.  L learner processes (the
:class:`~repro.replay.coordinator.MultiLearnerCoordinator`'s partition)
pull mini-batches and publish versioned snapshots, free-running with no
lock-step barrier.
"""

from __future__ import annotations

from typing import Optional

from ..profiling.phases import PARAM_REFRESH, SERVICE_PUSH
from ..replay.coordinator import MultiLearnerCoordinator
from ..replay.params import ParameterSubscriber, SharedParameterStore, agent_param_arrays
from ..replay.service import ReplayShardService
from ..telemetry import TelemetryRecorder
from .batched import per_agent_fields
from .results import RunResult

__all__ = ["ServiceLearner"]


class ServiceLearner:
    """S shard servers, a parameter store and L learner processes.

    Construction creates the service, the store and the coordinator;
    :meth:`start` forks the learners; :meth:`store` is the producer's
    per-sweep store for ``collect_steps``; :meth:`close` stops the
    learners, merges their parameters back into the trainer and releases
    every process and shared-memory segment; :meth:`report` writes the
    service stats into the run's result and telemetry.
    """

    def __init__(
        self,
        vec_env,
        trainer,
        shards: int,
        learners: int,
        seed: int = 0,
        telemetry: Optional[TelemetryRecorder] = None,
    ) -> None:
        config = trainer.config
        self.vec_env = vec_env
        self.trainer = trainer
        self.telemetry = telemetry
        self.staleness = config.param_staleness
        self.service = ReplayShardService(
            trainer.obs_dims,
            trainer.act_dims,
            capacity=config.buffer_capacity,
            num_shards=shards,
            num_clients=learners,
            max_push=max(vec_env.num_envs, 1),
            max_batch=max(config.batch_size, 1),
            seed=seed,
        )
        self.params = SharedParameterStore.for_agents(trainer.agents)
        self.coordinator = MultiLearnerCoordinator(
            trainer,
            self.service,
            self.params,
            learners,
            batch_size=config.batch_size,
            warmup=max(config.warmup, config.batch_size),
            seed=seed + 1,
        )
        # the producer's own actor copies refresh from the same store the
        # learners publish into — every agent is a subscribed partition
        self.subscriber = ParameterSubscriber(
            self.params,
            {p: agent_param_arrays(trainer.agents[p]) for p in range(trainer.num_agents)},
        )
        self.sweeps = 0
        self.merge: Optional[dict] = None
        self.shard_stats: list = []
        if telemetry is not None:
            telemetry.counter("service.shards", float(shards), unit="shards")
            telemetry.counter(
                "service.learners", float(self.coordinator.num_learners), unit="learners"
            )

    def start(self) -> None:
        self.coordinator.start()

    def store(self, obs, actions, rewards, next_obs, dones) -> int:
        """Push one sweep's packed rows; refresh actors on the staleness beat."""
        trainer = self.trainer
        if hasattr(self.vec_env, "packed_transitions"):
            rows = self.vec_env.packed_transitions()
        else:
            rows = trainer.replay.schema.pack_batch(
                *per_agent_fields(
                    self.vec_env.num_agents, obs, actions, rewards, next_obs, dones
                )
            )
        with trainer.timer.phase(SERVICE_PUSH):
            pushed = self.service.push(rows)
        trainer.total_env_steps += pushed
        self.sweeps += 1
        if self.sweeps % self.staleness == 0:
            with trainer.timer.phase(PARAM_REFRESH):
                self.subscriber.poll()
            if self.telemetry is not None:
                self.telemetry.series(
                    "param.staleness", self.sweeps - 1, float(self.subscriber.staleness[-1])
                )
        return pushed

    def close(self) -> None:
        try:
            if self.coordinator.started:
                self.merge = self.coordinator.stop()
            # one last refresh so the subscriber's applied-version
            # bookkeeping stays consistent with the final merged nets
            self.subscriber.poll()
            self.shard_stats = self.service.stats()
        finally:
            self.service.close()
            self.params.close()

    def report(self, result: RunResult) -> None:
        merge, extra = self.merge, result.extra
        extra["replay_shards"] = float(self.service.num_shards)
        extra["learners"] = float(self.coordinator.num_learners)
        extra["learner_rounds"] = float(merge["rounds"])
        extra["sampled_rows"] = float(merge["rows_pulled"])
        extra["sampled_rows_per_s"] = float(merge["sampled_rows_per_s"])
        extra["learner_utilization"] = float(merge["utilization"])
        extra["staleness_mean"] = float(merge["staleness_mean"])
        extra["staleness_max"] = float(merge["staleness_max"])
        for stats in self.shard_stats:
            extra[f"shard{stats['shard']}_ingested"] = float(stats["ingested"])
            extra[f"shard{stats['shard']}_sampled"] = float(stats["sampled"])
        telemetry = self.telemetry
        if telemetry is None:
            return
        telemetry.counter(
            "service.sampled_rows_per_s", extra["sampled_rows_per_s"], unit="rows/s"
        )
        telemetry.counter(
            "service.learner_utilization", extra["learner_utilization"], unit="fraction"
        )
        telemetry.counter("service.staleness_max", extra["staleness_max"], unit="versions")
        for stats in self.shard_stats:
            prefix = f"service.shard{stats['shard']}"
            telemetry.counter(f"{prefix}.ingested", float(stats["ingested"]), unit="rows")
            telemetry.counter(f"{prefix}.sampled", float(stats["sampled"]), unit="rows")
            telemetry.counter(
                f"{prefix}.queue_peak", float(stats["queue_peak"]), unit="requests"
            )
