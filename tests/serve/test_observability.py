"""Observability over the wire: traced queries and the ``metrics`` op.

A traced query must come back with a span tree covering the full serving
path — admission → queue → dispatch → service → tier → batcher → kernel —
and the ``metrics`` request must return the merged registry snapshot plus
the slow-query log, all over a real localhost socket.
"""

from __future__ import annotations

import pytest

from repro.obs import span_names
from repro.serve import SimilarityClient
from repro.service import QueryRequest, QueryResponse
from repro.service.requests import PROTOCOL_VERSION


class TestTraceWireFormat:
    def test_untraced_request_frame_is_unchanged(self):
        payload = QueryRequest(query=3, k=5).to_wire()
        assert "trace" not in payload  # old servers keep accepting v2 frames

    def test_traced_request_round_trips(self):
        request = QueryRequest(query=3, k=5, trace=True)
        payload = request.to_wire()
        assert payload["trace"] is True
        assert payload["v"] == PROTOCOL_VERSION
        assert QueryRequest.from_wire(payload).trace is True

    def test_trace_flag_must_be_bool(self):
        from repro.service import ServeError

        with pytest.raises(ServeError):
            QueryRequest(query=3, trace=1).validated()

    def test_response_trace_round_trips(self):
        tree = {"name": "request", "trace_id": "t", "span_id": "1"}
        response = QueryResponse(
            query=3, entries=((4, 0.5),), tier="index",
            graph_version=0, trace=tree,
        )
        payload = response.to_wire()
        assert payload["trace"] == tree
        assert QueryResponse.from_wire(payload).trace == tree
        untraced = QueryResponse(
            query=3, entries=((4, 0.5),), tier="index", graph_version=0
        )
        assert "trace" not in untraced.to_wire()


class TestTracedQueryOverSocket:
    def test_compute_tier_span_tree_covers_full_path(
        self, compute_engine, server_factory
    ):
        server = server_factory(compute_engine)
        with SimilarityClient("127.0.0.1", server.port) as client:
            untraced = client.query(5, k=5)
            traced = client.query(5, k=5, trace=True)
        assert untraced.trace is None
        assert traced.entries == untraced.entries  # tracing never perturbs
        tree = traced.trace
        assert tree is not None
        names = span_names(tree)
        # The acceptance path: admission → tier → batcher → kernel.
        for expected in ("request", "admission", "queue", "dispatch",
                         "service.query", "validate", "tier:compute"):
            assert expected in names, f"missing span {expected!r} in {names}"
        assert "batcher" in names
        assert "kernel" in names or _has_coalesced_batch(tree)
        assert tree["trace_id"]
        assert all(
            child["trace_id"] == tree["trace_id"]
            for child in tree.get("children", [])
        )

    def test_index_tier_span_tree(self, engine, server_factory):
        server = server_factory(engine)
        with SimilarityClient("127.0.0.1", server.port) as client:
            traced = client.query(3, k=5, trace=True)
        names = span_names(traced.trace)
        assert f"tier:{traced.tier}" in names
        assert "request" in names and "dispatch" in names

    def test_span_durations_are_sane(self, engine, server_factory):
        server = server_factory(engine)
        with SimilarityClient("127.0.0.1", server.port) as client:
            traced = client.query(3, k=5, trace=True)
        tree = traced.trace
        assert tree["start_ms"] == 0.0
        assert tree["duration_ms"] >= 0.0
        stack = [tree]
        while stack:
            node = stack.pop()
            assert node["duration_ms"] >= 0.0
            stack.extend(node.get("children", []))

    def test_grafted_service_subtree_has_unique_ids_and_one_time_base(
        self, compute_engine, server_factory
    ):
        # The service serialises its tree on its own (root span "1",
        # start_ms 0); grafted, it must neither reuse the request root's id
        # nor keep its own clock.
        server = server_factory(compute_engine)
        with SimilarityClient("127.0.0.1", server.port) as client:
            traced = client.query(9, k=5, trace=True)
        tree = traced.trace
        dispatch = tree["children"][-1]
        assert dispatch["name"] == "dispatch"
        (service,) = dispatch["children"]
        assert service["name"] == "service.query"
        assert service["span_id"] == "1.3.1"
        assert service["parent_id"] == "1.3"
        assert service["start_ms"] >= dispatch["start_ms"] > 0.0
        assert service["start_ms"] + service["duration_ms"] <= (
            dispatch["start_ms"] + dispatch["duration_ms"] + 1e-3
        )
        ids = [node["span_id"] for _, node in _edges(tree)] + [tree["span_id"]]
        assert len(ids) == len(set(ids))
        for parent, node in _edges(tree):
            assert node["parent_id"] == parent["span_id"]
            assert node["trace_id"] == tree["trace_id"]
            assert node["start_ms"] >= parent["start_ms"]


def _edges(tree: dict):
    """Every (parent, child) pair of a serialised span tree."""
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in node.get("children", []):
            yield node, child
            stack.append(child)


def _has_coalesced_batch(tree: dict) -> bool:
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.get("name") == "batcher" and node.get("tags", {}).get("coalesced"):
            return True
        stack.extend(node.get("children", []))
    return False


class TestMetricsOp:
    def test_metrics_payload_over_socket(self, engine, server_factory):
        server = server_factory(engine)
        with SimilarityClient("127.0.0.1", server.port) as client:
            for query in (0, 3, 17):
                client.query(query, k=5)
            payload = client.metrics()
        assert payload["op"] == "metrics"
        assert payload["v"] == PROTOCOL_VERSION
        counters = payload["metrics"]["counters"]
        assert counters["server_requests_answered"] >= 3
        assert counters["service_queries"] >= 3
        tier_hits = sum(
            value for key, value in counters.items()
            if key.startswith("tier_hits{")
        )
        assert tier_hits == counters["service_queries"]
        histograms = payload["metrics"]["histograms"]
        tier_histograms = [
            stats for key, stats in histograms.items()
            if key.startswith("tier_latency_seconds{") and stats["count"]
        ]
        assert tier_histograms
        for stats in tier_histograms:
            assert stats["count"] == sum(count for _, count in stats["buckets"])

    def test_slow_query_log_rides_metrics_payload(self, engine, server_factory):
        server = server_factory(engine)
        with SimilarityClient("127.0.0.1", server.port) as client:
            client.query(3, k=5, trace=True)
            client.query(7, k=5)
            payload = client.metrics()
        slow = payload["slow_queries"]
        assert slow, "answered queries must reach the slow-query log"
        assert all(entry["duration_ms"] >= 0 for entry in slow)
        durations = [entry["duration_ms"] for entry in slow]
        assert durations == sorted(durations, reverse=True)
        traced_entries = [entry for entry in slow if entry.get("trace")]
        assert traced_entries, "the traced query's span tree must be retained"
        assert "plan_digest" in payload

    def test_metrics_before_any_query(self, engine, server_factory):
        server = server_factory(engine)
        with SimilarityClient("127.0.0.1", server.port) as client:
            payload = client.metrics()
        assert payload["metrics"]["counters"]["service_queries"] == 0
        assert payload["slow_queries"] == []
