"""One workload process: set up, measure, print one JSON line.

Started by ``run.py`` in a fresh interpreter, so its set-up includes
interpreter start and ``import repro``.  Roles:

* ``setup`` only sets the workload up (an extra set-up sample);
* ``measure`` measures the end-to-end metrics, tracing off;
* ``plain`` and ``traced`` are the two passes of a traced run, each in
  its own process so that neither inherits the other's warm state.  A
  traced training pass replays ``--episodes`` episodes, the count of
  the plain pass, and both report their reward curve and actor checksum.

The JSON line carries ``first_call``, the ``time.monotonic()`` instant
of the first timed call, from which the parent computes set-up time.
The ``setup`` and ``measure`` roles add ``host_factor``: the time of the
calibration kernel (``calibrate.py``) just after the first call, over
``REFERENCE_S``, by which the parent scales set-up time to the
reference host speed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Dict, List

from calibrate import REFERENCE_S, Calibrator
from stats import peak_rss_mb

SERVE = "serve-cn6-open"
#: setup: set up only; measure: end-to-end metrics; plain / traced: the
#: untraced and traced passes of a traced run
ROLES = ("setup", "measure", "plain", "traced")
CAPACITY_BURSTS = 4  # closed-loop bursts after the warm-up and each fixed-rate phase


def environment() -> Dict[str, object]:
    import os
    import platform

    import numpy as np

    info: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        info["blas"] = "unknown"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            info[var] = os.environ[var]
    return info


# -- training -----------------------------------------------------------------


def train_main(name: str, seed: int, seconds: float, role: str,
               episodes: int) -> Dict[str, object]:
    import training

    spec = training.SPECS[name]
    tracer = None
    if role == "traced":
        from tracer import Tracer

        tracer = Tracer()
        res = training.run_pass(spec, seed, episodes=episodes, tracer=tracer)
    elif role == "measure":
        res = training.run_pass(spec, seed, seconds=seconds, calibrator=Calibrator())
    else:
        res = training.run_pass(spec, seed, seconds=seconds)
    out: Dict[str, object] = {
        "first_call": res.first_call,
        "checks": res.checks,
        "attempted": res.stored + res.rounds,
        "failed": res.nonfinite_rounds,
        "info": {"episodes": len(res.episode_s), "rounds": res.rounds},
    }
    if role == "measure":
        steady = training.steady_metrics(spec, res)
        out["metrics"] = {
            "throughput_per_s": steady["throughput_per_s"],
            "latency_p50_ms": steady["latency_p50_ms"],
            "peak_rss_mb": res.rss_mb,
            "success_rate": 1.0 - res.nonfinite_rounds / (res.stored + res.rounds),
        }
        out["host_factor"] = res.calibration_s[0] / REFERENCE_S
        out["info"]["steady_episodes"] = steady["episodes"]
        for key in ("raw_throughput_per_s", "raw_latency_p50_ms", "calibration_ms"):
            out["info"][key] = steady[key]
    else:
        out["cost_s"] = res.wall
        out["rewards"] = res.rewards
        out["checksum"] = res.checksum
        out["metrics"] = training.layer_metrics(res, tracer) if tracer else {}
    return out


# -- serving ------------------------------------------------------------------


def serve_main(seed: int, seconds: float, role: str) -> Dict[str, object]:
    import serving
    from stats import median

    srv = serving.Server(seed)
    first_call = time.monotonic()
    calibrator = Calibrator()
    host_factor = calibrator.sample() / REFERENCE_S
    metrics: Dict[str, float] = {}
    info: Dict[str, object] = {}
    fixed = []  # (checks, issued, failed) of each fixed-rate phase
    harness_mb = 0.0
    cost_s = 0.0
    tracer = None
    # measure: low 20%, high 40%, capacity 20% of the run; a traced run's
    # two passes share the run, so each pass is shorter
    low_s, high_s = (0.2, 0.4) if role == "measure" else (0.15, 0.2)
    lags = []  # generator lag p99 and max of each fixed-rate phase
    waits = []
    answered = shed = 0
    # capacity is measured after the warm-up and after each fixed-rate
    # phase, in short bursts with the host's speed sampled between them;
    # each burst's slices are scaled to the reference host speed
    capacity: List[float] = []
    raw_capacity: List[float] = []

    def capacity_bursts() -> None:
        if role == "traced":
            return
        # a fifteenth of the run each time (a fifth in all), and at least
        # three slices a burst
        burst_s = max(seconds / 15 / CAPACITY_BURSTS, 0.25)
        before = calibrator.sample()
        for _ in range(CAPACITY_BURSTS):
            slices = serving.saturation(srv, burst_s)
            after = calibrator.sample()
            factor = (before + after) / 2 / REFERENCE_S
            capacity.extend(rate * factor for rate in slices)
            raw_capacity.extend(slices)
            before = after

    try:
        serving.Phase(srv, serving.LOW_RPS, 0.3).run()  # warm caches and threads
        capacity_bursts()
        if role == "traced":
            from tracer import Tracer, proxy_current

            tracer = Tracer()
            proxy_current(srv.store, tracer)
            tracer.wrap(srv.store, "publish_arrays", "serving.publish")
        for label, rate, share in (("low", serving.LOW_RPS, low_s),
                                   ("high", serving.HIGH_RPS, high_s)):
            phase = serving.Phase(srv, rate, share * seconds, tracer).run()
            fixed.append((phase.checks(), phase.issued, phase.failed))
            harness_mb = max(harness_mb, phase.harness_mb())
            cost_s += phase.cpu_s
            answered += phase.answered
            shed += phase.refused
            lags.append((serving.array_percentile(phase.loop.lags, 99.0), max(phase.loop.lags)))
            if phase.queue_waits is not None:
                waits += phase.queue_waits
            metrics[f"serve.{label}.p50_ms"] = phase.p(50.0) * 1e3
            metrics[f"serve.{label}.p99_ms"] = phase.p(99.0) * 1e3
            del phase  # free its per-request state before the next phase
            capacity_bursts()
        if capacity:
            metrics["serve.capacity_rps"] = median(capacity)
            info["raw_capacity_rps"] = median(raw_capacity)
        if role == "plain":
            best, probes = serving.max_rate(srv, serving.HIGH_RPS, 0.04 * seconds)
            metrics["serve.max_rate_rps"] = best
            info["probes"] = [[round(r), ok] for r, ok in probes]
    finally:
        srv.stop()
    metrics["loadgen.lag.p99_ms"] = max(p99 for p99, _ in lags) * 1e3
    metrics["loadgen.lag.max_ms"] = max(mx for _, mx in lags) * 1e3
    checks: Dict[str, bool] = {}
    for phase_checks, _, _ in fixed:
        for key, ok in phase_checks.items():
            checks[key] = checks.get(key, True) and ok
    attempted = sum(issued for _, issued, _ in fixed)
    failed = sum(f for _, _, f in fixed)
    info["samples"] = [issued for _, issued, _ in fixed]
    if role == "measure":
        info.update(metrics)  # the ungated figures go to the detail line
        info["harness_mb"] = harness_mb
        metrics = {
            "throughput_per_s": info.pop("serve.capacity_rps"),
            "latency_p50_ms": info["serve.high.p50_ms"],
            "peak_rss_mb": peak_rss_mb(),
            "success_rate": 1.0 - failed / attempted,
        }
    else:
        del metrics["serve.high.p50_ms"]  # the gated latency_p50_ms
    if tracer is not None:
        forward = tracer.durations("serving.forward")
        publish = tracer.durations("serving.publish")
        metrics.update({
            "serving.forward.busy_s": sum(forward),
            "serving.forward.p50_us": median(forward) * 1e6,
            "serving.flushes": float(len(forward)),
            "serving.rows_per_flush": answered / len(forward),
            "serving.queue_wait.p50_ms": serving.array_percentile(waits, 50.0) * 1e3,
            "serving.queue_wait.p99_ms": serving.array_percentile(waits, 99.0) * 1e3,
            "serving.publish.p50_ms": median(publish) * 1e3,
            "serving.publishes": float(len(publish)),
            "serving.shed": float(shed),
        })
    out: Dict[str, object] = {
        "first_call": first_call,
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }
    if role == "measure":
        out["host_factor"] = host_factor
    else:
        out["cost_s"] = cost_s
    return out


# -- setup-only probe -----------------------------------------------------------


def setup_only(name: str, seed: int) -> Dict[str, object]:
    if name == SERVE:
        import serving

        srv = serving.Server(seed)
        first_call = time.monotonic()
        srv.stop()
    else:
        import training

        run = training.Run(training.SPECS[name], seed)
        first_call = time.monotonic()
        run.close()
    return {"first_call": first_call, "host_factor": Calibrator().sample() / REFERENCE_S}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=ROLES, required=True)
    parser.add_argument("--episodes", type=int, default=0,
                        help="episodes of a traced training pass")
    args = parser.parse_args(argv)
    if args.role == "setup":
        out = setup_only(args.workload, args.seed)
    elif args.workload == SERVE:
        out = serve_main(args.seed, args.seconds, args.role)
    else:
        out = train_main(args.workload, args.seed, args.seconds, args.role, args.episodes)
    if args.role != "setup":
        out["environment"] = environment()
        for value in out["metrics"].values():
            if not math.isfinite(value):
                raise RuntimeError(f"non-finite metric in {out['metrics']}")
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
