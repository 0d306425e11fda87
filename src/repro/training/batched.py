"""Batched experience collection over vectorized environments.

Pairs a vector env (:class:`~repro.envs.vector.SyncVectorEnv` or the
process-parallel :class:`~repro.envs.parallel.ParallelVectorEnv`) with a
trainer: action selection runs ONE batched actor forward per agent for
all K copies (amortizing the phase the paper offloads to the GPU), and
each step's K transitions are ingested through the trainer's vectorized
:meth:`~repro.algos.maddpg.MADDPGTrainer.experience_batch` entry point.
Ingestion is chunked at update-trigger boundaries, so the replay
contents, the update cadence, and every RNG draw are identical to the
K-sequential-``experience``-calls stream — without K Python-level
buffer round-trips per step.

When the env exposes packed joint-schema transitions (the parallel
engine's shared-memory block) and the replay ring is arena-backed, whole
steps are ingested as packed rows
(:meth:`~repro.algos.maddpg.MADDPGTrainer.experience_packed`): the
workers' shared-memory writes land in replay storage with one
fancy-index row copy and no per-field splitting.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..algos.maddpg import MADDPGTrainer
from ..profiling.phases import ACTION_SELECTION, ENV_STEP

__all__ = ["collect_steps", "per_agent_fields"]

#: A learner's per-step store: ``(obs, actions, rewards, next_obs, dones)``
#: of one vector sweep in, rows stored out.
Store = Callable[..., int]


def _ingest_chunk_bounds(trainer: MADDPGTrainer, total: int, pos: int) -> int:
    """Rows until the next possible update-trigger point.

    An update fires once ``steps_since_update`` reaches ``update_every``
    AND the buffer holds a full warm-up; both gates advance one row at a
    time, so the next trigger is computable in closed form and the rows
    in between can be written in one vectorized batch.
    """
    config = trainer.config
    need = max(config.warmup, config.batch_size)
    until_cadence = config.update_every - trainer.steps_since_update
    until_fill = need - len(trainer.replay)
    return min(total - pos, max(until_cadence, until_fill, 1))


def _ingest_chunked(
    trainer: MADDPGTrainer, total: int, write: Callable[[int, int], None]
) -> int:
    """Store ``total`` rows through ``write(start, end)`` and run updates
    exactly where the sequential store-one/update-once loop would."""
    pos = 0
    while pos < total:
        end = pos + _ingest_chunk_bounds(trainer, total, pos)
        write(pos, end)
        trainer.update()
        pos = end
    return total


def _use_packed_ingest(vec_env, trainer: MADDPGTrainer) -> bool:
    """Whether the env->replay path can skip per-field splitting.

    Requires: the env exposes packed joint-schema rows, the replay ring
    is arena-backed with the *same* schema (so rows drop in verbatim),
    storage is non-prioritized (PER needs the per-row tree bookkeeping of
    the split path), and no layout reorganizer is attached.
    """
    if not hasattr(vec_env, "packed_transitions"):
        return False
    if trainer.layout is not None or trainer.replay.prioritized:
        return False
    arena = trainer.replay.arena
    return arena is not None and arena.schema == trainer.replay.schema == vec_env.schema


def per_agent_fields(
    num_agents: int, obs, actions, rewards: np.ndarray, next_obs, dones: np.ndarray
) -> Tuple[List[np.ndarray], ...]:
    """One vector sweep as per-agent ``(K, .)`` field stacks.

    ``obs`` is the pre-step observation (post-reset on copies that
    terminated last step).  On auto-reset steps the stacked ``next_obs``
    is the post-reset observation; the stored terminal flag cuts the
    bootstrap there anyway.
    """
    agents = range(num_agents)
    return (
        [np.asarray(obs[a]) for a in agents],
        [np.asarray(actions[a]) for a in agents],
        [rewards[:, a] for a in agents],
        [np.asarray(next_obs[a]) for a in agents],
        [dones[:, a].astype(np.float64) for a in agents],
    )


def _ingest_store(vec_env, trainer: MADDPGTrainer) -> Store:
    """The in-process learner's store: ingest, updating at the cadence."""
    if _use_packed_ingest(vec_env, trainer):

        def store_packed(*_sweep) -> int:
            # workers already packed this step's K joint-schema rows into
            # the shared transition block; ingest them verbatim
            rows = vec_env.packed_transitions()
            return _ingest_chunked(
                trainer, rows.shape[0], lambda a, b: trainer.experience_packed(rows[a:b])
            )

        return store_packed
    num_agents = vec_env.num_agents

    def store_fields(obs, actions, rewards, next_obs, dones) -> int:
        fields = per_agent_fields(num_agents, obs, actions, rewards, next_obs, dones)
        return _ingest_chunked(
            trainer,
            rewards.shape[0],
            lambda a, b: trainer.experience_batch(*[[f[a:b] for f in fs] for fs in fields]),
        )

    return store_fields


def collect_steps(
    vec_env,
    trainer: MADDPGTrainer,
    steps: int,
    explore: bool = True,
    learn: bool = True,
    store: Optional[Store] = None,
) -> Dict[str, float]:
    """Advance all K copies ``steps`` times with batched action selection.

    Accepts any vector env with the ``SyncVectorEnv`` API; a
    :class:`~repro.envs.parallel.ParallelVectorEnv` additionally gets its
    worker-wait time attributed (``env_step.worker_wait``) and, with
    timestep-major storage, the packed zero-copy ingest path.

    Each sweep goes to ``store`` (a learner's per-step store, see
    :class:`~repro.training.service_loop.ServiceLearner`); by default it
    is ingested into the trainer's own replay with update rounds at the
    paper's cadence, and ``learn=False`` stores nothing.  Returns
    collection statistics: transitions stored, update rounds run, and the
    mean per-step reward across copies and agents.
    """
    if steps <= 0:
        raise ValueError(f"steps must be positive, got {steps}")
    if hasattr(vec_env, "attach_timer"):
        vec_env.attach_timer(trainer.timer)
    if hasattr(vec_env, "attach_telemetry"):
        vec_env.attach_telemetry(trainer.telemetry)
    if store is None and learn:
        store = _ingest_store(vec_env, trainer)
    obs = vec_env.reset()
    num_agents = vec_env.num_agents
    rewards_sum = 0.0
    updates_before = trainer.update_rounds
    stored = 0
    for _ in range(steps):
        # one batched forward per agent covers all K copies
        with trainer.timer.phase(ACTION_SELECTION):
            actions: List[np.ndarray] = [
                trainer.agents[a].act(obs[a], rng=trainer.rng, explore=explore)
                for a in range(num_agents)
            ]
        with trainer.timer.phase(ENV_STEP):
            next_obs, rewards, dones, _infos = vec_env.step(actions)
        rewards_sum += float(rewards.mean())
        if store is not None:
            stored += store(obs, actions, rewards, next_obs, dones)
        obs = next_obs
    return {
        "transitions": float(stored),
        "update_rounds": float(trainer.update_rounds - updates_before),
        "mean_step_reward": rewards_sum / steps,
    }
