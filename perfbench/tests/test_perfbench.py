"""Tests of the benchmark's own logic (no workload is run here).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from calibrate import REFERENCE_S
from loadgen import OpenLoop
from run import SERVE, WORKLOADS, declared_metrics, never_called
from stats import merged_length, percentile, tail_percentile, valid_name, valid_unit
from tracer import Span, Tracer, self_time
from training import SPECS, PassResult, steady_metrics

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def span(name, start, end, parent=None):
    s = Span(name, start, parent)
    s.end = end
    if parent is not None:
        parent.children.append(s)
    return s


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_children():
    root = span("envs.step", 0.0, 10.0)
    span("envs.physics", 1.0, 3.0, root)
    span("envs.reward", 4.0, 5.0, root)
    assert self_time(root) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    root = span("serving.flush", 0.0, 10.0)
    span("a", 1.0, 4.0, root)
    span("b", 3.0, 6.0, root)  # overlaps a: 1..6 covered once
    span("c", 9.0, 12.0, root)  # runs past the parent: only 9..10 counts
    assert self_time(root) == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_ignores_grandchildren():
    root = span("algos.update.round", 0.0, 10.0)
    child = span("core.sample", 2.0, 6.0, root)
    span("inner", 3.0, 5.0, child)
    assert self_time(root) == pytest.approx(6.0)
    assert self_time(child) == pytest.approx(2.0)


def test_merged_length():
    assert merged_length([]) == 0.0
    assert merged_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3.0)


def test_tracer_nests_spans_and_computes_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Env:
        def step(self):
            clock.advance(1.0)
            self.world.step()
            clock.advance(1.0)

    class World:
        def step(self):
            clock.advance(3.0)

    env, other = Env(), Env()
    env.world = other.world = World()
    tracer.wrap(env, "step", "envs.step")
    tracer.wrap(env.world, "step", "envs.physics")
    env.step()
    assert len(tracer.named("envs.step")) == 1
    assert tracer.busy("envs.step") == pytest.approx(5.0)
    assert self_time(tracer.named("envs.step")[0]) == pytest.approx(2.0)
    assert tracer.busy("envs.physics") == pytest.approx(3.0)
    # the wrapper sits on one instance only
    assert "step" not in vars(other)


def test_tracer_rename_counter_and_unattributed():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Trainer:
        def update(self, fire):
            clock.advance(2.0 if fire else 0.5)
            return {"q_loss": 1.0} if fire else None

        def experience_batch(self, rows):
            clock.advance(1.0)
            return rows

    trainer = Trainer()
    tracer.wrap(trainer, "update", "algos.update",
                rename=lambda r: "algos.update.round" if r else "algos.update.idle")
    tracer.wrap(trainer, "experience_batch", "buffers.ingest",
                counter=("buffers.ingest.rows", lambda r: r))
    trainer.experience_batch(8)
    trainer.update(False)
    clock.advance(1.5)  # driver time no span covers
    trainer.update(True)
    assert len(tracer.named("algos.update.round")) == 1
    assert len(tracer.named("algos.update.idle")) == 1
    assert tracer.counts["buffers.ingest.rows"] == 8
    assert tracer.unattributed(0.0, clock.now) == pytest.approx(1.5)


def test_busy_does_not_double_count_nested_spans_of_one_name():
    clock = FakeClock()
    tracer = Tracer(clock)

    class Scenario:
        def reward(self, depth):
            clock.advance(1.0)
            if depth:
                self.reward(depth - 1)

    scenario = Scenario()
    tracer.wrap(scenario, "reward", "envs.reward")
    scenario.reward(2)
    assert len(tracer.named("envs.reward")) == 1
    assert tracer.busy("envs.reward") == pytest.approx(3.0)


# -- percentiles -------------------------------------------------------------


def test_percentile_matches_linear_interpolation():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
    assert percentile([5.0], 99.0) == 5.0
    assert percentile([1.0, float("inf"), float("inf")], 99.0) == float("inf")


@pytest.mark.parametrize(
    "n, expected",
    [(20_000, 99.9), (10_000, 99.9), (9_999, 99.0), (1_000, 99.0),
     (999, 90.0), (100, 90.0), (99, 50.0), (20, 50.0)],
)
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    values = [float(i) for i in range(n)]
    q, value, count = tail_percentile(values)
    assert q == expected
    assert count == n
    assert value == pytest.approx(percentile(values, expected))
    assert round(n * (100.0 - q) / 100.0, 6) >= 10


def test_tail_percentile_none_when_too_few_samples():
    assert tail_percentile([1.0] * 19) is None
    assert tail_percentile([]) is None


# -- host-speed scaling -----------------------------------------------------------


def measured_pass(episode_s, calibration_s):
    res = PassResult()
    res.episode_s = list(episode_s)
    res.rounds_after = [1] * len(episode_s)  # the first episode is warm-up
    res.calibration_s = list(calibration_s)
    return res


def test_steady_metrics_scale_episodes_to_the_reference_host():
    spec = SPECS["pp6-episode-faithful"]  # windows of 8 episodes of 25 rows
    n = 1 + 2 * spec.cycle
    # the host runs at half the reference speed: episodes and kernel take 2x
    slow = measured_pass([0.1] * n, [2 * REFERENCE_S] * (n + 1))
    m = steady_metrics(spec, slow)
    assert m["throughput_per_s"] == pytest.approx(25 / 0.05)
    assert m["latency_p50_ms"] == pytest.approx(50.0)
    assert m["raw_throughput_per_s"] == pytest.approx(25 / 0.1)
    assert m["raw_latency_p50_ms"] == pytest.approx(100.0)
    assert m["episodes"] == 2 * spec.cycle
    # the same work on a host whose speed swings between runs reads the same
    swing = [REFERENCE_S if k < n // 2 else 2 * REFERENCE_S for k in range(n + 1)]
    times = [0.05 * f / REFERENCE_S for f in swing[1:]]
    times[n // 2 - 1] = 0.05 * 1.5  # bracketed by one fast and one slow sample
    assert steady_metrics(spec, measured_pass(times, swing))["throughput_per_s"] == (
        pytest.approx(25 / 0.05))


def test_steady_metrics_need_a_sample_around_every_episode():
    spec = SPECS["cn6-pipeline-fast"]
    with pytest.raises(RuntimeError):
        steady_metrics(spec, measured_pass([0.8] * 4, [REFERENCE_S] * 4))


# -- names -------------------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "envs.step.p50_ms", "cn6-pipeline-fast", "9lives"])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".dot", "has space", "slash/no", "x" * 65, "ünï"])
def test_invalid_names(name):
    assert not valid_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "%", "fraction", "MB"):
        assert valid_unit(unit)
    for unit in ("", "per second", "x" * 17):
        assert not valid_unit(unit)


def test_declared_metrics_follow_the_grammar():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    declared = declared_metrics()
    names = [name for group in declared.values() for name in group]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert valid_name(name), name
    for unit in [u for group in declared.values() for u in group.values()]:
        assert valid_unit(unit), unit
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_layer_metric_is_reported_by_some_workload():
    for name in declared_metrics()["per_layer"]:
        assert any(not never_called(w, name) for w in WORKLOADS), name
    assert never_called(SERVE, "envs.step.busy_s")
    assert never_called("cn6-pipeline-fast", "serving.forward.busy_s")
    assert not never_called(SERVE, "trace.overhead_share")


# -- open-loop generator ---------------------------------------------------------


def test_generator_lag_counts_a_stalling_server():
    clock = FakeClock()
    sent = []

    def issue(i, due):
        sent.append((i, due, clock.now))
        if i == 5:
            clock.advance(0.050)  # the server blocks the generator for 50 ms

    loop = OpenLoop(rate=1000.0, count=100, clock=clock, sleep=clock.advance)
    loop.run(issue)
    assert [i for i, _, _ in sent] == list(range(100))
    for i, due, at in sent:
        assert due == pytest.approx(i / 1000.0)
        assert loop.lags[i] == pytest.approx(at - due)
    assert loop.lags[5] == pytest.approx(0.0)
    # request 6 was due at 6 ms but went out after the stall, at 55 ms
    assert loop.lags[6] == pytest.approx(0.049)
    assert max(loop.lags) == pytest.approx(0.049)
    # the backlog is sent at once, then the schedule is on time again
    assert all(at == pytest.approx(0.055) for i, _, at in sent[6:56])
    assert all(loop.lags[i] == pytest.approx(0.0) for i in range(56, 100))


def test_generator_ticks_between_sends():
    clock = FakeClock()
    ticks = []
    loop = OpenLoop(rate=100.0, count=10, clock=clock, sleep=clock.advance)
    loop.run(lambda i, due: None, tick=ticks.append)
    assert len(ticks) >= 10
    assert ticks == sorted(ticks)


def test_generator_rejects_bad_arguments():
    with pytest.raises(ValueError):
        OpenLoop(rate=0.0, count=1)
    with pytest.raises(ValueError):
        OpenLoop(rate=1.0, count=0)


# -- entry point ---------------------------------------------------------------


def test_run_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-cn6-open",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
