"""Live threaded serving loop: queue -> coalesce -> engine -> respond.

:class:`ServeServer` is the wall-clock twin of the simulator in
:mod:`repro.serve.sim`: one worker thread pulls degree-key batches
from the admission queue under the same :class:`BatchPolicy`, executes
them on the same engine, and fulfils each caller's
:class:`~repro.serve.request.PendingRequest`.  The CI smoke test
drives this path end-to-end (submit, drain, validate the trace); the
latency *gates* live on the simulator where time is deterministic.

Thread discipline: worker-private state stays on the stack; the few
shared counters are guarded by ``_lock`` (one lock per object, checked
by the ``lock-discipline`` lint rule).
"""

from __future__ import annotations

import threading
import time

from repro.errors import ReproError
from repro.obs.metrics import LATENCY_SECONDS_BUCKETS, get_metrics
from repro.serve.engine import ServeEngine
from repro.serve.request import (
    REJECT_SHUTDOWN,
    BatchPolicy,
    PendingRequest,
    RequestQueue,
    ServeResponse,
)


class ServeServer:
    """Single-worker online serving runtime.

    Args:
        engine: the forward-only engine to execute batches on.
        policy: coalescing/admission knobs (also sizes the queue).

    Usage::

        server = ServeServer(engine, BatchPolicy(max_batch=8))
        server.start()
        pending = server.submit(node_id)
        response = pending.result(timeout=5.0)
        server.stop()
    """

    def __init__(self, engine: ServeEngine, policy: BatchPolicy) -> None:
        self.engine = engine
        self.policy = policy
        self.queue = RequestQueue(
            policy.max_queue_depth, n_nodes=engine.n_nodes
        )
        self._lock = threading.Lock()
        self._worker: threading.Thread | None = None  # guarded-by: _lock
        self._served = 0  # guarded-by: _lock
        self._batches = 0  # guarded-by: _lock
        self._m_latency = get_metrics().histogram(
            "buffalo.serve.request_latency_s",
            buckets=LATENCY_SECONDS_BUCKETS,
            help="arrival-to-completion latency",
        )

    def start(self) -> "ServeServer":
        with self._lock:
            if self._worker is not None:
                raise ReproError("server already started")
            worker = threading.Thread(
                target=self._run, name="serve-worker", daemon=True
            )
            self._worker = worker
        worker.start()
        return self

    def submit(self, node: int) -> PendingRequest:
        """Admission-checked submit; never blocks."""
        return self.queue.submit(node)

    def _run(self) -> None:
        while True:
            batch = self.queue.take_batch(
                self.policy, self.engine.degree_key
            )
            if batch is None:
                if self.queue.closed:
                    return
                continue
            self._execute(batch)

    def _execute(self, batch: list[PendingRequest]) -> None:
        with self._lock:
            batch_id = self._batches
            self._batches += 1
        nodes = [p.request.node for p in batch]
        logits, stats = self.engine.predict_batch(nodes)
        finished = time.perf_counter()
        for i, pending in enumerate(batch):
            latency = max(0.0, finished - pending.request.arrival_s)
            self._m_latency.observe(latency)
            pending._fulfill(
                ServeResponse(
                    request_id=pending.request.request_id,
                    node=pending.request.node,
                    logits=logits[i],
                    latency_s=latency,
                    batch_id=batch_id,
                    batch_size=len(batch),
                    cache_hit=pending.request.node in stats.hit_nodes,
                )
            )
        with self._lock:
            self._served += len(batch)

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Close intake, join the worker, then settle the residue.

        With ``drain=False`` still-queued requests are rejected with
        ``shutdown``; with ``drain=True`` (default) they are served on
        the calling thread once the worker has exited.  The worker is
        joined first because a batch it has in flight runs under the
        process-global ``no_grad`` flag: two threads inside ``no_grad``
        at once can restore it in the wrong order and leave gradient
        tracking off for the whole process.  A worker still running
        after ``timeout`` gets the residue rejected and raises
        :class:`~repro.errors.ReproError`.
        """
        with self._lock:
            worker = self._worker
        residue = self.queue.close()
        stuck = False
        if worker is not None:
            # close() emptied the queue, so the worker finishes its
            # in-flight batch and exits on its own.
            worker.join(timeout)
            stuck = worker.is_alive()
        if drain and not stuck:
            self._execute_residue(residue)
        else:
            for pending in residue:
                pending._reject(REJECT_SHUTDOWN)
        if stuck:
            raise ReproError(
                f"serve worker failed to stop within {timeout}s"
            )
        with self._lock:
            self._worker = None

    def _execute_residue(self, residue: list[PendingRequest]) -> None:
        """Serve close()-drained requests in degree-key batches."""
        by_key: dict[int, list[PendingRequest]] = {}
        for pending in residue:
            key = self.engine.degree_key(pending.request.node)
            by_key.setdefault(key, []).append(pending)
        for key in sorted(by_key):
            group = by_key[key]
            for start in range(0, len(group), self.policy.max_batch):
                self._execute(group[start:start + self.policy.max_batch])

    @property
    def served(self) -> int:
        with self._lock:
            return self._served

    @property
    def batches(self) -> int:
        with self._lock:
            return self._batches

    def __repr__(self) -> str:
        return (
            f"ServeServer(served={self.served}, batches={self.batches}, "
            f"queue={self.queue!r})"
        )
