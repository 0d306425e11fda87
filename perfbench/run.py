"""End-to-end MARL benchmark: one workload, one JSON result line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload cn6-pipeline-fast --seed 1 --seconds 15 --trace 0

Workloads: ``cn6-pipeline-fast`` (env-bound training),
``pp6-episode-faithful`` (learner-bound training) and ``serve-cn6-open``
(micro-batched policy serving under an open-loop load).  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` runs the
workload untraced and then traced, and reports the per-layer metrics.

Each measurement runs in a fresh ``worker.py`` process with every
``REPRO_*`` variable removed from its environment, so set-up time
includes interpreter start and ``import repro`` and peak memory is the
workload's own.  With ``--trace 0`` a few extra processes only set the
workload up, and ``setup_s`` is the median over all of them, each scaled
to a reference host speed as the timed figures are (see ``calibrate.py``).

``--workload all`` runs the three in turn and prints each one's result.
For a single workload, the last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Lines before it, prefixed ``#``, give the environment, the checks and
per-run details.  The exit code is 0 when a result was printed, also if
a correctness check failed (then ``correct`` is false).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import median  # noqa: E402

SERVE = "serve-cn6-open"
#: per-layer metrics of the serving workload; every other one but
#: ``trace.overhead_share`` belongs to the training workloads
SERVING_PREFIXES = ("serving.", "serve.", "loadgen.")
WORKLOADS = ("cn6-pipeline-fast", "pp6-episode-faithful", SERVE)
SETUP_PROBES = 6  # set-up-only processes per untraced run, beside the main one
BUDGET_S = 170.0  # every child is killed by then
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerError(RuntimeError):
    pass


def declared_metrics() -> Dict[str, Dict[str, str]]:
    """Name -> unit of the ``end_to_end`` and ``per_layer`` metrics that
    BENCHMARK.json declares: the names every result must carry."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        group: {m["name"]: m["unit"] for m in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def never_called(workload: str, name: str) -> bool:
    """Whether ``name`` is a per-layer metric of layers ``workload`` never calls."""
    if name == "trace.overhead_share":
        return False
    return name.startswith(SERVING_PREFIXES) != (workload == SERVE)


def child_env() -> Dict[str, str]:
    """This environment minus every ``REPRO_*`` knob, with ``src`` importable
    and BLAS on one thread.

    The workloads are single-process by design; a BLAS thread pool beside
    them on a small shared host measures the scheduler, not the program
    (on a 2-core host beside one other busy process, cn6 read 59-70
    steps/s with two OpenBLAS threads and 250-364 with one).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def spawn(args: List[str], deadline: float) -> Dict[str, object]:
    """Run one worker process; returns its JSON line plus ``setup_s``."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(deadline - started, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args} timed out") from None
    if proc.returncode != 0:
        raise WorkerError(
            f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker {args} printed nothing:\n{proc.stderr[-4000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["first_call"] - started
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            declared: Dict[str, Dict[str, str]]) -> Dict[str, object]:
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", workload, "--seed", str(seed)]
    if trace:
        names = declared["per_layer"]
        plain = spawn(base + ["--seconds", str(seconds / 2), "--role", "plain"], deadline)
        replay = ["--episodes", str(plain["info"]["episodes"])] if workload != SERVE else []
        traced = spawn(
            base + ["--seconds", str(seconds / 2), "--role", "traced", *replay], deadline
        )
        checks = dict(plain["checks"])
        checks.update({f"traced.{k}": v for k, v in traced["checks"].items()})
        if "rewards" in plain:
            checks["traced.reward_curve_identical"] = traced["rewards"] == plain["rewards"]
            checks["traced.actor_checksum_identical"] = traced["checksum"] == plain["checksum"]
        # layer spans from the traced pass; end-to-end figures from the plain one
        metrics = {**traced["metrics"], **plain["metrics"]}
        metrics["trace.overhead_share"] = traced["cost_s"] / plain["cost_s"] - 1.0
        for name in names:
            if never_called(workload, name):
                metrics.setdefault(name, 0.0)
        main = plain
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
    else:
        names = declared["end_to_end"]
        main = spawn(base + ["--seconds", str(seconds), "--role", "measure"], deadline)
        probes = [main] + [
            spawn(base + ["--seconds", str(seconds), "--role", "setup"], deadline)
            for _ in range(SETUP_PROBES)
        ]
        metrics = dict(main["metrics"])
        # each process's set-up time at the reference host speed
        metrics["setup_s"] = median([p["setup_s"] / p["host_factor"] for p in probes])
        main["info"]["setup_s_samples"] = [p["setup_s"] for p in probes]
        main["info"]["raw_setup_s"] = median(main["info"]["setup_s_samples"])
        checks = main["checks"]
        attempted, failed = main["attempted"], main["failed"]
    if set(metrics) != set(names):
        raise WorkerError(
            f"metric names differ from the declared set: {sorted(set(metrics) ^ set(names))}"
        )
    return {
        "detail": {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "environment": main["environment"],
            "checks": checks,
            "info": main["info"],
        },
        "result": {
            "correct": bool(checks) and all(checks.values()),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": names[name]}
                for name in names
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end MARL benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            out = measure(workload, args.seed, args.seconds, bool(args.trace), declared)
        except WorkerError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("# " + json.dumps(out["detail"]))
        print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
