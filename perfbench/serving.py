"""The inference-bound workload: micro-batched policy serving, open loop.

``serve-cn6-open`` holds six actors of the cooperative-navigation N=6
shape (obs 36, hidden 64x64, 5 actions) in a ``SnapshotStore`` behind a
``PolicyServer`` with a 2 ms batch window.  One benchmark thread offers
requests on an open-loop schedule (see ``loadgen.py``) and, from the same
loop, publishes a perturbed snapshot every 50 ms, so snapshot writes run
beside the reads.

Phases: a short warm-up, then ``low`` and ``high`` fixed rates, each of
the three followed by a burst of closed-loop saturation that measures
capacity.  The untraced pass of a traced run also climbs a ladder of
rates to the highest one whose p99 latency (timed from each request's
due time, refused requests counting as misses) stays within 10 ms with a
backlog that does not grow.  The server is drained, and garbage
collected, between phases.

Per-request state is kept in flat float32 arrays, 9 bytes a request (the
user and observation of request ``i`` come from a fixed pool), so the
process's peak memory is mostly the server's, not the generator's.
"""

from __future__ import annotations

import functools
import gc
import math
import time
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from loadgen import OpenLoop
from stats import sorted_percentile
from tracer import Tracer

OBS, ACT, N_AGENTS, HIDDEN = 36, 5, 6, (64, 64)
WINDOW_MS = 2.0
PUBLISH_EVERY_S = 0.050
LOW_RPS, HIGH_RPS = 10_000.0, 30_000.0
P99_LIMIT_S = 0.010
RUNG = 1.07  # max-rate ladder step
MAX_RPS = 500_000.0
SATURATION_USERS = 256  # requests in flight in the closed-loop capacity phase
SATURATION_SLICE_S = 0.050  # capacity is the median answered rate of these slices
USERS = 1000
OBS_POOL = 1024
REQUEST_POOL = 1 << 16  # request i is (user, observation) number i mod this
VARIANTS = 4  # distinct parameter sets the publisher cycles through
CHECK_EVERY = 97  # every this-many-th answer is checked against a reference


class Server:
    """A started server plus the inputs and reference parameters."""

    def __init__(self, seed: int) -> None:
        import numpy as np
        from repro.nn.mlp import actor_mlp
        from repro.serving.server import PolicyServer
        from repro.serving.snapshot import SnapshotStore

        rng = np.random.default_rng(seed)
        actors = [actor_mlp(OBS, ACT, hidden=HIDDEN, rng=rng) for _ in range(N_AGENTS)]
        base = [[p.value.copy() for p in a.parameters()] for a in actors]
        self.variants: List[List[List["np.ndarray"]]] = [base] + [
            [[w + 0.01 * rng.standard_normal(w.shape) for w in agent] for agent in base]
            for _ in range(VARIANTS - 1)
        ]
        self.obs = rng.standard_normal((OBS_POOL, OBS))
        self.req_users = array("i", rng.integers(0, USERS, size=REQUEST_POOL).tolist())
        self.req_obs = array("i", rng.integers(0, OBS_POOL, size=REQUEST_POOL).tolist())
        self.rng = rng
        self.store = SnapshotStore(actors, backend="numpy")
        self.version_variant: Dict[int, int] = {}
        self._publishes = 0
        self.publish()
        self.server = PolicyServer(self.store, batch_window_ms=WINDOW_MS)
        self.server.start()

    def publish(self) -> None:
        k = self._publishes % VARIANTS
        version = self.store.publish_arrays(self.variants[k])
        self.version_variant[version] = k
        self._publishes += 1

    def stop(self) -> None:
        self.server.stop()

    def reference(self, version: int, agent: int, obs_idx: int):
        """Softmax policy of ``agent`` in snapshot ``version``, in plain numpy."""
        import numpy as np

        w1, b1, w2, b2, w3, b3 = self.variants[self.version_variant[version]][agent]
        x = self.obs[obs_idx]
        h = np.maximum(x @ w1 + b1, 0.0)
        h = np.maximum(h @ w2 + b2, 0.0)
        logits = h @ w3 + b3
        e = np.exp(logits - logits.max())
        return e / e.sum()


class Phase:
    """One open-loop run at a fixed rate, with its per-request outcomes."""

    def __init__(self, srv: Server, rate: float, seconds: float,
                 tracer: Optional[Tracer] = None) -> None:
        count = max(1, int(rate * seconds))
        self.srv = srv
        self.rate = rate
        self.loop = OpenLoop(rate, count)
        self.offset = int(srv.rng.integers(0, REQUEST_POOL))  # into the request pool
        self.latency = array("f", [math.inf]) * count  # inf = refused or never answered
        # answers arrive on the flusher thread only; refusals also arrive on
        # the generator's, so they go to a list (append is atomic)
        self.answered = 0
        self.last_answer = 0.0
        self.refused_ids: List[int] = []
        self.server_shed = 0  # the server's own shed count over the phase
        self.duplicates = 0
        self.version_violations = 0
        self.last_version = [0] * USERS
        self.samples: List[Tuple[int, int, object, int]] = []
        self.queue_waits: Optional[List[float]] = [] if tracer is not None else None
        self.backlog = 0
        self.cpu_s = 0.0
        self._seen = bytearray(count)

    def request(self, i: int) -> Tuple[int, int]:
        """User and observation index of request ``i``."""
        j = (self.offset + i) % REQUEST_POOL
        return self.srv.req_users[j], self.srv.req_obs[j]

    def harness_mb(self) -> float:
        """Memory this phase's own per-request state takes, in MiB."""
        arrays = (self.latency, self.loop.lags)
        return (sum(a.itemsize * len(a) for a in arrays) + len(self._seen)) / 2**20

    def _on_response(self, i: int, response) -> None:
        now = time.perf_counter()
        if self._seen[i]:
            self.duplicates += 1
            return
        self._seen[i] = 1
        if response is None:
            self.refused_ids.append(i)
            return
        self.answered += 1
        self.last_answer = now
        self.latency[i] = now - self.loop.due(i)
        user, _ = self.request(i)
        if response.version < self.last_version[user]:
            self.version_violations += 1
        self.last_version[user] = response.version
        if self.queue_waits is not None:
            self.queue_waits.append(response.queue_wait)
        if i % CHECK_EVERY == 0:
            self.samples.append((i, response.action, response.probs.copy(), response.version))

    def run(self) -> "Phase":
        srv = self.srv
        submit = srv.server.submit
        on_response = self._on_response
        users, obs_idx, obs, offset = srv.req_users, srv.req_obs, srv.obs, self.offset
        next_publish = [time.perf_counter() + PUBLISH_EVERY_S]

        def issue(i: int, t_due: float) -> None:
            j = (offset + i) % REQUEST_POOL
            user = users[j]
            submit(user, user % N_AGENTS, obs[obs_idx[j]],
                   callback=functools.partial(on_response, i))

        def tick(now: float) -> None:
            if now >= next_publish[0]:
                srv.publish()
                next_publish[0] += PUBLISH_EVERY_S

        gc.collect()  # start every phase from the same heap, not the last one's
        shed0 = srv.server.shed
        cpu0 = time.process_time()
        self.loop.run(issue, tick)
        self.backlog = self.loop.count - self.delivered
        drain_until = time.perf_counter() + 5.0
        while self.delivered < self.loop.count and time.perf_counter() < drain_until:
            time.sleep(0.001)
        self.cpu_s = time.process_time() - cpu0
        self.server_shed = srv.server.shed - shed0
        return self

    # -- results ------------------------------------------------------------

    @property
    def refused(self) -> int:
        return len(self.refused_ids)

    @property
    def delivered(self) -> int:
        return self.answered + self.refused

    @property
    def issued(self) -> int:
        return self.loop.count

    @property
    def failed(self) -> int:
        return self.issued - self.answered

    def goodput(self) -> float:
        """Answered requests per second, from the first due time to the
        last answer: the offered rate when the server keeps up."""
        return self.answered / (self.last_answer - self.loop.start)

    def p(self, q: float) -> float:
        """Latency percentile over the answered requests."""
        import numpy as np

        latency = np.frombuffer(self.latency, dtype=np.float32)
        return array_percentile(latency[np.isfinite(latency)], q)

    def sustainable(self) -> bool:
        """p99 within the limit, counting every miss as over it, and no
        more backlog at the end of issuance than the limit's worth."""
        return (
            array_percentile(self.latency, 99.0) <= P99_LIMIT_S
            and self.backlog <= self.rate * P99_LIMIT_S
        )

    def check_answers(self) -> bool:
        import numpy as np

        for i, action, probs, version in self.samples:
            user, obs_idx = self.request(i)
            ref = self.srv.reference(version, user % N_AGENTS, obs_idx)
            if not np.allclose(probs, ref, rtol=1e-9, atol=1e-12):
                return False
            if action != int(np.argmax(ref)):
                return False
        return bool(self.samples)

    def checks(self) -> Dict[str, bool]:
        return {
            # answered + refused + never answered covers every request once,
            # and the refusals are the ones the server says it shed
            "every_request_accounted": self.duplicates == 0
            and self.delivered <= self.issued
            and self.refused == self.server_shed,
            "versions_monotone_per_user": self.version_violations == 0,
            "answers_match_reference": self.check_answers(),
        }


def array_percentile(values: Sequence[float], q: float) -> float:
    """``stats.percentile`` of a large float array, sorted by numpy."""
    import numpy as np

    if not len(values):
        raise ValueError("percentile of no samples")
    data = np.array(values)  # one copy, sorted in place
    data.sort()
    return sorted_percentile(data, q)


def saturation(srv: Server, seconds: float) -> List[float]:
    """Answered requests per second with the server kept busy.

    A closed loop: ``SATURATION_USERS`` requests stay in flight and each
    answer submits that user's next request from the response callback,
    so no generator thread competes with the flusher.  Returns the
    answered rate of each ``SATURATION_SLICE_S``-long slice; their median
    is what a short burst of outside noise barely moves.
    """
    window = SATURATION_SLICE_S
    counts = [0] * (int(seconds / window) + 1)
    state = {"stop": False, "open": SATURATION_USERS}
    submit, obs = srv.server.submit, srv.obs

    def on_response(user: int, response) -> None:
        now = time.perf_counter()
        slot = int((now - start) / window)
        if response is not None and slot < len(counts):
            counts[slot] += 1
        if state["stop"] or response is None:
            state["open"] -= 1  # only the flusher thread runs this
            return
        submit(user, user % N_AGENTS, obs[user % OBS_POOL],
               callback=functools.partial(on_response, user))

    gc.collect()
    start = time.perf_counter()
    for user in range(SATURATION_USERS):
        submit(user, user % N_AGENTS, obs[user % OBS_POOL],
               callback=functools.partial(on_response, user))
    time.sleep(seconds)
    state["stop"] = True
    drain_until = time.perf_counter() + 5.0
    while state["open"] > 0 and time.perf_counter() < drain_until:
        time.sleep(0.001)
    # the first slices ramp up and the last one is cut short
    return [c / window for c in counts[2:int(seconds / window)]]


def max_rate(srv: Server, start: float, seconds: float) -> Tuple[float, List[Tuple[float, bool]]]:
    """Highest sustainable rate on a ladder climbing ``RUNG`` at a time.

    Climbing from a sustainable rate keeps every probe at most one rung
    past the knee, so no probe leaves a deep backlog behind for the next.
    A rung that fails is tried once more before the climb stops, so one
    burst of outside noise does not end it.  Returns the rate answered
    per second during the best passing probe (0 if none passed) and
    every probe as ``(rate, passed)``.
    """
    probes: List[Tuple[float, bool]] = []
    best = 0.0
    rate = start
    while rate < MAX_RPS:
        for _ in range(2):
            phase = Phase(srv, rate, seconds).run()
            ok = phase.sustainable()
            probes.append((rate, ok))
            if ok:
                break
        if not ok:
            break
        best = phase.goodput()
        rate *= RUNG
    return best, probes
