"""Live threaded server: submit, coalesce, drain — the CI smoke path."""

import threading

import numpy as np
import pytest

from repro.errors import ReproError
from repro.obs import JsonlFileSink, get_tracer
from repro.obs.schema import validate_trace_file
from repro.serve import (
    REJECT_SHUTDOWN,
    BatchPolicy,
    EmbeddingCache,
    LoadSpec,
    ServeServer,
    generate_trace,
)
from repro.tensor.tensor import Tensor

POLICY = BatchPolicy(max_batch=8, max_wait_s=2e-3, max_queue_depth=256)


def drain(server, pendings, timeout=10.0):
    return [p.result(timeout=timeout) for p in pendings]


class TestRoundTrip:
    def test_hundred_requests_served_and_trace_validates(
        self, tmp_path, cora, make_engine
    ):
        trace_path = tmp_path / "serve.jsonl"
        engine = make_engine()
        trace = generate_trace(
            LoadSpec(n_requests=100, seed=0), cora.train_nodes
        )
        tracer = get_tracer()
        sink = tracer.add_sink(JsonlFileSink(str(trace_path)))
        try:
            server = ServeServer(engine, POLICY).start()
            pendings = [server.submit(r.node) for r in trace]
            server.stop(drain=True)
        finally:
            tracer.remove_sink(sink)
            sink.close()
        responses = drain(server, pendings)
        assert len(responses) == 100
        assert server.served == 100
        assert server.queue.depth() == 0
        by_node = {}
        for response in responses:
            assert response.logits.shape == (cora.n_classes,)
            assert response.latency_s >= 0
            previous = by_node.setdefault(response.node, response.logits)
            np.testing.assert_array_equal(previous, response.logits)
        assert validate_trace_file(str(trace_path)) > 0

    def test_responses_match_direct_engine_call(self, make_engine):
        server = ServeServer(make_engine(), POLICY).start()
        pending = server.submit(3)
        response = pending.result(timeout=10.0)
        server.stop()
        solo = make_engine(cache=EmbeddingCache(0))
        np.testing.assert_array_equal(response.logits, solo.predict_one(3))

    def test_batches_coalesce_same_degree_key(self, make_engine):
        engine = make_engine()
        server = ServeServer(engine, POLICY).start()
        key_of = engine.degree_key
        nodes = [n for n in range(60) if key_of(n) == key_of(0)][:8]
        pendings = [server.submit(n) for n in nodes]
        responses = drain(server, pendings)
        server.stop()
        assert any(r.batch_size > 1 for r in responses)


class TestShutdown:
    def test_stop_without_drain_rejects_residue(self, make_engine):
        server = ServeServer(
            make_engine(),
            BatchPolicy(max_batch=64, max_wait_s=60.0, max_queue_depth=256),
        )
        # Never started: everything queued becomes residue at stop().
        pendings = [server.submit(n) for n in range(5)]
        server.stop(drain=False)
        assert all(p.reject_reason == REJECT_SHUTDOWN for p in pendings)

    def test_stop_with_drain_serves_residue(self, make_engine):
        server = ServeServer(
            make_engine(),
            BatchPolicy(max_batch=64, max_wait_s=60.0, max_queue_depth=256),
        )
        pendings = [server.submit(n) for n in range(5)]
        server.stop(drain=True)
        assert len(drain(server, pendings, timeout=0.0)) == 5

    def test_submit_after_stop_rejected(self, make_engine):
        server = ServeServer(make_engine(), POLICY).start()
        server.stop()
        assert server.submit(0).reject_reason == REJECT_SHUTDOWN

    def test_double_start_rejected(self, make_engine):
        server = ServeServer(make_engine(), POLICY).start()
        with pytest.raises(ReproError):
            server.start()
        server.stop()

    def test_drain_with_batch_in_flight_keeps_grad_mode(self, make_engine):
        """Residue is served only after the worker's batch has finished.

        Serving the residue on the caller thread while the worker is
        still inside ``predict_batch`` overlaps two ``no_grad`` blocks on
        the process-global flag; if the worker leaves first, the caller
        restores "off" and gradient tracking stays disabled.  The model
        below forces that interleaving whenever the two overlap.
        """
        engine = make_engine()
        model = engine.model
        in_flight = threading.Event()
        worker_done = threading.Event()

        def gated(*args):
            if threading.current_thread().name == "serve-worker":
                if not in_flight.is_set():
                    in_flight.set()
                    # Hold the batch until the caller's forward starts
                    # (old drain order) or a short timeout (joined).
                    worker_done.wait(0.5)
            else:
                # Let the worker's batch finish inside our no_grad.
                worker_done.set()
                first.result(timeout=10.0)
            return model(*args)

        engine.model = gated
        server = ServeServer(
            engine,
            BatchPolicy(max_batch=1, max_wait_s=1e-3, max_queue_depth=16),
        ).start()
        first = server.submit(0)
        assert in_flight.wait(10.0)
        residue = [server.submit(n) for n in (1, 2)]
        server.stop(drain=True)
        assert len(drain(server, [first, *residue], timeout=0.0)) == 3
        assert Tensor(np.ones(2), requires_grad=True).requires_grad
