"""The training driver the paper instruments.

Every run is Figure 1's CTDE cycle — action selection → environment
step → experience storage → (every ``update_every`` samples) update all
trainers — composed from a collector and a learner.  :func:`train`
collects whole episodes of one env (:func:`run_episode`);
:func:`train_steps` advances K vector-env copies in lock-step
(:func:`~repro.training.batched.collect_steps`).  The learner is
in-process (ingest, then ``trainer.update()`` at the cadence) unless
:func:`_service_topology` sends the run to the replay service
(:class:`~repro.training.service_loop.ServiceLearner`).  One lifecycle
(:class:`_Run`) emits the telemetry manifest and end-of-run counters and
assembles the :class:`RunResult`, whose phase totals carry the paper's
breakdowns.
"""

from __future__ import annotations

import time
import warnings
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..algos.maddpg import MADDPGTrainer
from ..envs.environment import MultiAgentEnv
from ..profiling.phases import (
    PREFETCH,
    PREFETCH_HIT,
    SAMPLING,
    UPDATE_ALL_TRAINERS,
)
from ..telemetry import TelemetryRecorder
from .batched import collect_steps
from .metrics import MetricsCollector
from .prefetch import PrefetchPipeline
from .results import RunResult
from .service_loop import ServiceLearner

__all__ = ["train", "train_steps", "run_episode"]

Callback = Callable[[int, RunResult], None]


def run_episode(
    env: MultiAgentEnv,
    trainer: MADDPGTrainer,
    explore: bool = True,
    learn: bool = True,
    metrics: Optional[MetricsCollector] = None,
) -> List[float]:
    """Play one episode; returns each agent's summed reward.

    With ``learn=True`` transitions are stored and the update cadence is
    honored inside the episode (the reference implementation updates
    mid-episode whenever the sample counter fires).  ``metrics``, when
    given, consumes every step's ``info`` as one episode.
    """
    obs = env.reset()
    if metrics is not None:
        metrics.start_episode(env.num_agents)
    totals = [0.0] * env.num_agents
    done_flags = [False] * env.num_agents
    while not all(done_flags):
        actions = trainer.act(obs, explore=explore)
        next_obs, rewards, done_flags, info = env.step(actions)
        if metrics is not None:
            metrics.record_step(info)
        if learn:
            trainer.experience(obs, actions, rewards, next_obs, done_flags)
            trainer.update()
        for i, r in enumerate(rewards):
            totals[i] += r
        obs = next_obs
    if metrics is not None:
        metrics.end_episode()
    return totals


class _Run:
    """One driver call's lifecycle: manifest, clock, counters, result."""

    def __init__(
        self,
        driver: str,
        trainer: MADDPGTrainer,
        variant: str,
        env_name: str,
        seed: Optional[int],
        telemetry: Optional[TelemetryRecorder],
    ) -> None:
        self.trainer = trainer
        #: the enabled recorder, or None — every emit below is guarded once
        self.telemetry = telemetry if telemetry is not None and telemetry.enabled else None
        if self.telemetry is not None:
            trainer.attach_telemetry(self.telemetry)
            self.telemetry.manifest(
                seed=seed,
                config=trainer.config,
                label=f"{driver}/{env_name}/{trainer.name}/{variant}",
                backend=trainer.backend.describe(),
            )
            self.telemetry.counter("backend.selected", 1.0, unit=trainer.backend.name)
        self.result = RunResult(
            algorithm=trainer.name,
            variant=variant,
            env_name=env_name,
            num_agents=trainer.num_agents,
            episodes=0,
            total_seconds=0.0,
            phase_totals={},
        )
        self.start = time.perf_counter()

    def counter(self, name: str, value: float, unit: str) -> None:
        if self.telemetry is not None:
            self.telemetry.counter(name, value, unit=unit)

    def finish(self) -> RunResult:
        trainer, result = self.trainer, self.result
        result.total_seconds = time.perf_counter() - self.start
        result.phase_totals = trainer.timer.totals()
        result.update_rounds = trainer.update_rounds
        result.env_steps = trainer.total_env_steps
        if trainer.layout is not None:
            result.extra.update(trainer.layout.cost_summary())
        self.counter("update_rounds", result.update_rounds, unit="rounds")
        self.counter("env_steps", result.env_steps, unit="steps")
        self.counter("total_seconds", result.total_seconds, unit="s")
        return result


def train(
    env: MultiAgentEnv,
    trainer: MADDPGTrainer,
    episodes: int,
    variant: str = "baseline",
    env_name: str = "env",
    progress_every: Optional[int] = None,
    callback: Optional[Callback] = None,
    seed: Optional[int] = None,
    telemetry: Optional[TelemetryRecorder] = None,
) -> RunResult:
    """Train for ``episodes`` episodes and return the instrumented result.

    ``callback(episode_index, partial_result)`` fires after each episode
    (reward logging, early stopping by raising, etc.).

    ``telemetry`` (when given and enabled) streams the run as typed
    records: a :class:`RunManifest` header carrying ``seed``, every
    phase as a span, the per-episode reward curve as ``episode_reward``
    series points, and end-of-run counters.
    """
    if episodes <= 0:
        raise ValueError(f"episodes must be positive, got {episodes}")
    run = _Run("train", trainer, variant, env_name, seed, telemetry)
    result = run.result
    for episode in range(episodes):
        agent_totals = run_episode(env, trainer, explore=True, learn=True)
        result.episode_rewards.append(float(np.sum(agent_totals)))
        result.agent_rewards.append([float(x) for x in agent_totals])
        result.episodes = episode + 1
        if run.telemetry is not None:
            run.telemetry.series("episode_reward", episode, result.episode_rewards[-1])
        if progress_every and (episode + 1) % progress_every == 0:
            elapsed = time.perf_counter() - run.start
            mean_r = float(np.mean(result.episode_rewards[-progress_every:]))
            print(
                f"[{env_name}/{trainer.name}/{variant}] "
                f"episode {episode + 1}/{episodes} "
                f"mean reward {mean_r:.2f} elapsed {elapsed:.1f}s"
            )
        if callback is not None:
            callback(episode, result)
    return run.finish()


def _service_topology(
    trainer: MADDPGTrainer, telemetry: Optional[TelemetryRecorder]
) -> Optional[Tuple[int, int]]:
    """The one routing decision: ``(shards, learners)`` for the replay
    service, ``None`` for the in-process learner.

    Prioritized (PER) configs always stay in process: PER's sum-tree is
    one global structure whose draws and priority write-backs interleave
    with updates, so sharding it would change the sampling distribution.
    The degradation is explicit: a warning plus a ``service.per_guard``
    counter.  Learners beyond the agent count clamp to one per agent.
    """
    config = trainer.config
    if not (config.resolved_replay_shards > 1 or config.learners > 1):
        return None
    if trainer.replay.prioritized:
        warnings.warn(
            "prioritized replay routes through the single-shard guard: "
            "PER's global sum-tree cannot shard without changing the "
            "sampling distribution; running the serial in-process loop",
            RuntimeWarning,
            stacklevel=3,
        )
        if telemetry is not None:
            telemetry.counter("service.per_guard", 1.0, unit="runs")
        return None
    return config.resolved_replay_shards, min(config.learners, trainer.num_agents)


def _report_prefetch(run: _Run, pipeline: PrefetchPipeline) -> None:
    timer, extra = run.trainer.timer, run.result.extra
    hidden = timer.total(PREFETCH_HIT)
    visible = timer.total(f"{UPDATE_ALL_TRAINERS}.{SAMPLING}")
    extra["prefetch_hits"] = float(pipeline.hits)
    extra["prefetch_misses"] = float(pipeline.misses)
    extra["prefetch_stale"] = float(pipeline.stale)
    extra["prefetch_seconds"] = timer.total(PREFETCH)
    extra["hidden_sampling_seconds"] = hidden
    # share of this run's sampling work that ran behind update compute
    extra["overlap_fraction"] = hidden / (hidden + visible) if hidden + visible > 0 else 0.0
    run.counter("prefetch.hits", pipeline.hits, unit="rounds")
    run.counter("prefetch.misses", pipeline.misses, unit="rounds")
    run.counter("prefetch.stales", pipeline.stale, unit="rounds")
    run.counter("overlap_fraction", extra["overlap_fraction"], unit="fraction")


def train_steps(
    vec_env,
    trainer: MADDPGTrainer,
    steps: int,
    variant: str = "pipeline",
    env_name: str = "env",
    prefetch: bool = False,
    seed: Optional[int] = None,
    telemetry: Optional[TelemetryRecorder] = None,
) -> RunResult:
    """Train over a vector env for ``steps`` lock-step vector sweeps.

    Batched collection over K env copies (serial or process-parallel —
    the env decides) feeds the learner the trainer's config selects.
    In process, ``prefetch=True`` assembles the next round's
    mini-batches on a background thread while the current round
    computes (see :class:`~repro.training.prefetch.PrefetchPipeline` for
    the validity and PER epoch-guard semantics).  ``seed`` is the run
    seed: recorded in the manifest, it seeds the prefetch stream and the
    service's routing and learners.

    ``extra`` reports transitions, steps/sec and the mean step reward,
    plus the prefetch counts and measured ``overlap_fraction``, or the
    service's shard/learner counts that ran, learner rounds, pull
    throughput, utilization and parameter staleness.
    """
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    run = _Run("train_steps", trainer, variant, env_name, seed, telemetry)
    topology = _service_topology(trainer, run.telemetry)
    service: Optional[ServiceLearner] = None
    pipeline: Optional[PrefetchPipeline] = None
    if topology is not None:
        service = ServiceLearner(
            vec_env, trainer, *topology, seed=seed or 0, telemetry=run.telemetry
        )
    elif prefetch:
        pipeline = PrefetchPipeline(trainer, seed=seed)
        trainer.attach_prefetcher(pipeline)
    run.start = time.perf_counter()  # learner setup stays off the clock
    try:
        if service is not None:
            service.start()
        stats = collect_steps(
            vec_env, trainer, steps, store=service.store if service is not None else None
        )
    finally:
        if pipeline is not None:
            pipeline.close()
            trainer.attach_prefetcher(None)
        if service is not None:
            service.close()
    result = run.finish()
    result.extra["transitions"] = stats["transitions"]
    result.extra["mean_step_reward"] = stats["mean_step_reward"]
    result.extra["steps_per_second"] = stats["transitions"] / max(result.total_seconds, 1e-12)
    run.counter("transitions", stats["transitions"], unit="steps")
    run.counter("steps_per_second", result.extra["steps_per_second"], unit="steps/s")
    if pipeline is not None:
        _report_prefetch(run, pipeline)
    if service is not None:
        service.report(result)
    return result
