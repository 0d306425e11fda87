"""The two training workloads: an env-bound one and a learner-bound one.

Both drive the program only through its public training drivers, one
episode per call, so the benchmark can time each episode from outside:

* ``cn6-pipeline-fast``: MADDPG, cooperative navigation, N=6, driven by
  ``train_steps`` over K=8 serial env copies, 25 vector steps (one
  episode of every copy) per call, on the fast configuration.
* ``pp6-episode-faithful``: MATD3, predator-prey with scripted prey,
  N=6, driven by the episode driver ``train`` one episode per call, on
  the paper's characterized configuration and the info-prioritized
  sampler.

A pass trains a fresh trainer until its time is used up and ends on a
whole update cycle.  Episodes up to and including the first update
round are warm-up; the metrics come from the steady-state episodes
after it.  A measuring pass samples the host's speed around every
episode (``calibrate.py``) and reports episode times scaled to a
reference host speed.  A traced pass replays the same number of
episodes with spans around every layer call and must reproduce the
untraced pass exactly.
"""

from __future__ import annotations

import hashlib
import math
import time
from typing import Dict, List, NamedTuple, Optional

from calibrate import REFERENCE_S, Calibrator
from stats import median, peak_rss_mb, tail_percentile
from tracer import Tracer, self_time

HORIZON = 25  # MPE episode length; neither scenario ends early
BATCH = 1024
UPDATE_EVERY = 100
N_AGENTS = 6


class TrainingSpec(NamedTuple):
    env_name: str
    algorithm: str
    sampler: str
    fast: bool  # fast_path + batched_update + timestep_major storage
    copies: int  # 0 = the single serial env, driven by `train`
    #: episodes per steady-state window, holding whole update cycles
    #: (MATD3 alternates critic-only and actor rounds, so two rounds)
    cycle: int

    @property
    def transitions_per_episode(self) -> int:
        return HORIZON * max(self.copies, 1)


SPECS = {
    "cn6-pipeline-fast": TrainingSpec(
        "cooperative_navigation", "maddpg", "baseline", fast=True, copies=8, cycle=1,
    ),
    "pp6-episode-faithful": TrainingSpec(
        "predator_prey", "matd3", "info_prioritized", fast=False, copies=0, cycle=8,
    ),
}


def config_for(spec: TrainingSpec):
    """Every knob that an environment variable could otherwise supply."""
    from repro.algos.config import MARLConfig

    return MARLConfig(
        batch_size=BATCH,
        update_every=UPDATE_EVERY,
        max_episode_len=HORIZON,
        fast_path=spec.fast,
        batched_update=spec.fast,
        storage="timestep_major" if spec.fast else "agent_major",
        backend="numpy",
        env_workers=0,
        prefetch=False,
        replay_shards=1,
        learners=1,
    )


class Run:
    """One fresh env + trainer pair and the calls that drive it."""

    def __init__(self, spec: TrainingSpec, seed: int) -> None:
        from repro.algos.variants import build_trainer

        self.spec = spec
        cfg = config_for(spec)
        if spec.copies:
            from repro.envs.factory import make_vector_env
            from repro.training.loop import train_steps

            self.env = make_vector_env(
                spec.env_name, num_agents=N_AGENTS, copies=spec.copies,
                seed=seed, workers=0,
            )
            self._train_steps = train_steps
        else:
            from repro.envs.registry import make
            from repro.training.loop import train

            self.env = make(spec.env_name, num_agents=N_AGENTS, seed=seed)
            self._train = train
        self.trainer = build_trainer(
            spec.algorithm, spec.sampler, self.env.obs_dims, self.env.act_dims,
            config=cfg, seed=seed, storage=cfg.storage, backend=cfg.backend,
        )
        self.rounds = 0
        self.nonfinite_rounds = 0
        self._guard_update()

    def _guard_update(self) -> None:
        """Count update rounds and rounds whose losses are not finite."""
        inner = self.trainer.update

        def update(*args, **kwargs):
            losses = inner(*args, **kwargs)
            if losses is not None:
                self.rounds += 1
                if not all(math.isfinite(v) for v in losses.values()):
                    self.nonfinite_rounds += 1
            return losses

        self.trainer.update = update

    def episode(self) -> float:
        """Train one episode (of every copy); returns its reward."""
        if self.spec.copies:
            result = self._train_steps(self.env, self.trainer, HORIZON, prefetch=False)
            return result.extra["mean_step_reward"]
        return self._train(self.env, self.trainer, 1).episode_rewards[0]

    def actor_checksum(self) -> str:
        h = hashlib.sha256()
        for agent in self.trainer.agents:
            for p in agent.actor.parameters():
                h.update(p.value.tobytes())
        return h.hexdigest()

    def close(self) -> None:
        if hasattr(self.env, "close"):
            self.env.close()


def instrument(run: Run, tracer: Tracer) -> None:
    """Spans around each layer's calls, on this run's instances only."""
    env, trainer = run.env, run.trainer
    copies = env.envs if run.spec.copies else [env]
    tracer.wrap(env, "step", "envs.step")
    tracer.wrap(env, "reset", "envs.reset")
    for copy in copies:
        tracer.wrap(copy.world, "step", "envs.physics")
        tracer.wrap(copy.scenario, "observation", "envs.observe")
        tracer.wrap(copy.scenario, "reward", "envs.reward")
        tracer.wrap(copy.scenario, "benchmark_data", "envs.info")
    if not run.spec.copies:
        # the episode driver selects actions through the trainer
        tracer.wrap(trainer, "act", "algos.select")
    for agent in trainer.agents:
        tracer.wrap(agent, "act", "algos.act")
    tracer.wrap(trainer, "experience", "buffers.ingest",
                counter=("buffers.ingest.rows", lambda r: 1))
    for method in ("experience_batch", "experience_packed"):
        tracer.wrap(trainer, method, "buffers.ingest",
                    counter=("buffers.ingest.rows", lambda r: r))
    tracer.wrap(trainer.sampler, "sample", "core.sample")
    tracer.wrap(trainer.sampler, "update_priorities", "core.priorities")
    tracer.wrap(
        trainer, "update", "algos.update",
        rename=lambda r: "algos.update.round" if r is not None else "algos.update.idle",
    )


def expected_rounds(transitions: int) -> int:
    """Rounds the cadence gives: the first once the warm-up fills, then one
    every ``UPDATE_EVERY`` stored transitions."""
    if transitions < BATCH:
        return 0
    return 1 + (transitions - BATCH) // UPDATE_EVERY


class PassResult:
    def __init__(self) -> None:
        self.first_call = 0.0  # time.monotonic() at the first timed call
        self.start = 0.0  # perf_counter before the first episode
        self.end = 0.0  # and after the last
        self.episode_s: List[float] = []
        #: calibration kernel time before the first episode and after each
        self.calibration_s: List[float] = []
        self.rewards: List[float] = []
        self.rounds_after: List[int] = []  # rounds done after each episode
        self.checksum = ""
        self.rss_mb = 0.0  # peak RSS at a fixed amount of work (see run_pass)
        self.stored = 0
        self.rounds = 0
        self.nonfinite_rounds = 0
        self.checks: Dict[str, bool] = {}

    @property
    def wall(self) -> float:
        return self.end - self.start

    def steady_from(self) -> int:
        """Index of the first episode after the one holding round 1."""
        for k, rounds in enumerate(self.rounds_after):
            if rounds >= 1:
                return k + 1
        return len(self.rounds_after)


def run_pass(
    spec: TrainingSpec,
    seed: int,
    seconds: Optional[float] = None,
    episodes: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    calibrator: Optional[Calibrator] = None,
) -> PassResult:
    """Train until ``seconds`` elapse (on a whole window) or for ``episodes``,
    sampling the host's speed around every episode if given a calibrator."""
    run = Run(spec, seed)
    if tracer is not None:
        instrument(run, tracer)
    out = PassResult()
    out.first_call = time.monotonic()
    out.start = time.perf_counter()
    if calibrator is not None:
        out.calibration_s.append(calibrator.sample())
    try:
        while True:
            if episodes is not None:
                if len(out.episode_s) >= episodes:
                    break
            elif time.perf_counter() - out.start >= seconds:
                steady = len(out.episode_s) - out.steady_from()
                if steady >= 2 * spec.cycle and steady % spec.cycle == 0:
                    break
            t0 = time.perf_counter()
            out.rewards.append(float(run.episode()))
            out.episode_s.append(time.perf_counter() - t0)
            out.rounds_after.append(run.rounds)
            if calibrator is not None:
                out.calibration_s.append(calibrator.sample())
            if len(out.episode_s) == out.steady_from() + 2 * spec.cycle:
                # read after the warm-up and two update cycles, so a faster
                # program that stores more rows in the time does not read worse
                out.rss_mb = peak_rss_mb()
        out.end = time.perf_counter()
        out.checksum = run.actor_checksum()
        out.stored = run.trainer.total_env_steps
        out.rounds = run.trainer.update_rounds
        out.nonfinite_rounds = run.nonfinite_rounds
        n = len(out.episode_s)
        out.checks = {
            "stored_transitions": out.stored == n * spec.transitions_per_episode
            and len(run.trainer.replay) == min(out.stored, run.trainer.config.buffer_capacity),
            "update_rounds": out.rounds == run.rounds == expected_rounds(out.stored),
            "finite_losses": out.nonfinite_rounds == 0,
            "finite_rewards": all(math.isfinite(r) for r in out.rewards),
        }
    finally:
        run.close()
    return out


def rates(spec: TrainingSpec, times: List[float]) -> Dict[str, float]:
    """Median throughput over windows of ``spec.cycle`` episodes (medians
    shrug off a noisy neighbour's burst), and median episode time."""
    if len(times) < spec.cycle:
        raise RuntimeError("no steady-state window: the run ended in warm-up")
    windows = [
        spec.cycle * spec.transitions_per_episode / sum(times[k:k + spec.cycle])
        for k in range(0, len(times) - spec.cycle + 1, spec.cycle)
    ]
    return {"throughput_per_s": median(windows), "latency_p50_ms": median(times) * 1e3}


def steady_metrics(spec: TrainingSpec, res: PassResult) -> Dict[str, float]:
    """``rates`` of the steady-state episodes, each episode's time scaled to
    the reference host speed by the calibration samples on either side of
    it; the unscaled rates are returned as ``raw_*``."""
    start = res.steady_from()
    times = res.episode_s[start:]
    around = zip(res.calibration_s[start:], res.calibration_s[start + 1:])
    factors = [(before + after) / 2 / REFERENCE_S for before, after in around]
    if len(factors) != len(times):
        raise RuntimeError("a measuring pass needs a calibration sample around every episode")
    out = rates(spec, [t / f for t, f in zip(times, factors)])
    out.update({f"raw_{k}": v for k, v in rates(spec, times).items()})
    out["episodes"] = float(len(times))
    out["calibration_ms"] = median(res.calibration_s) * 1e3
    return out


def layer_metrics(res: PassResult, tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of a traced pass."""
    ms, us = 1e3, 1e6
    m: Dict[str, float] = {}
    step = tracer.named("envs.step")
    m["envs.step.busy_s"] = sum(s.duration for s in step)
    m["envs.step.calls"] = float(len(step))
    m["envs.step.p50_ms"] = median([s.duration for s in step]) * ms
    m["envs.step.self_s"] = sum(self_time(s) for s in step)
    for layer in ("physics", "observe", "reward", "info", "reset"):
        m[f"envs.{layer}.busy_s"] = tracer.busy(f"envs.{layer}")
    m["algos.select.busy_s"] = tracer.busy("algos.select")
    act = tracer.durations("algos.act")
    m["algos.act.busy_s"] = sum(act)
    m["algos.act.calls"] = float(len(act))
    m["algos.act.p50_us"] = median(act) * us
    rows = tracer.counts.get("buffers.ingest.rows", 0.0)
    m["buffers.ingest.busy_s"] = tracer.busy("buffers.ingest")
    m["buffers.ingest.rows"] = rows
    m["buffers.ingest.us_per_row"] = m["buffers.ingest.busy_s"] / rows * us
    sample = tracer.durations("core.sample")
    m["core.sample.busy_s"] = sum(sample)
    m["core.sample.calls"] = float(len(sample))
    m["core.sample.p50_ms"] = median(sample) * ms if sample else 0.0
    m["core.priorities.busy_s"] = tracer.busy("core.priorities")
    rounds = tracer.named("algos.update.round")
    round_s = [s.duration for s in rounds]
    m["algos.update.rounds"] = float(len(rounds))
    m["algos.update.round.p50_ms"] = median(round_s) * ms if rounds else 0.0
    tail = tail_percentile(round_s) if rounds else None
    m["algos.update.round.tail_pct"] = tail[0] if tail else 0.0
    m["algos.update.round.tail_ms"] = tail[1] * ms if tail else 0.0
    m["algos.update.learn_s"] = sum(
        s.duration - sum(c.duration for c in s.children if c.name == "core.sample")
        for s in rounds
    )
    self_s = tracer.unattributed(res.start, res.end)
    m["training.self_s"] = self_s
    m["training.unattributed_share"] = self_s / res.wall
    return m
