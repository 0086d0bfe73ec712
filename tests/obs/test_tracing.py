"""Unit tests for span trees and the bounded slow-query log."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import SlowQueryLog, Trace, graft, new_trace_id, span_names


class TestTrace:
    def test_tree_structure_and_ids(self):
        trace = Trace("request", start=10.0, degraded=False)
        child = trace.root.child("admission", start=10.0)
        child.finish(10.001)
        grandchild_parent = trace.root.child("dispatch", start=10.001)
        grandchild_parent.record("kernel", 10.002, 10.004, rows=3)
        grandchild_parent.finish(10.005)
        trace.root.finish(10.005)
        tree = trace.to_tree()
        assert tree["name"] == "request"
        assert tree["span_id"] == "1"
        assert tree["trace_id"] == trace.trace_id
        assert [c["span_id"] for c in tree["children"]] == ["1.1", "1.2"]
        kernel = tree["children"][1]["children"][0]
        assert kernel["span_id"] == "1.2.1"
        assert kernel["parent_id"] == "1.2"
        assert kernel["tags"] == {"rows": 3}

    def test_offsets_relative_to_root(self):
        trace = Trace("request", start=100.0)
        trace.root.record("step", 100.25, 100.5)
        trace.root.finish(101.0)
        tree = trace.to_tree()
        assert tree["start_ms"] == 0.0
        assert tree["duration_ms"] == pytest.approx(1000.0)
        step = tree["children"][0]
        assert step["start_ms"] == pytest.approx(250.0)
        assert step["duration_ms"] == pytest.approx(250.0)

    def test_span_names_preorder(self):
        trace = Trace("request", start=0.0)
        a = trace.root.child("a", start=0.0)
        a.child("a1", start=0.0).finish(0.0)
        a.finish(0.0)
        trace.root.child("b", start=0.0).finish(0.0)
        assert span_names(trace.to_tree()) == ["request", "a", "a1", "b"]

    def test_tree_is_json_serialisable(self):
        trace = Trace("request", start=0.0, query=7, k=10)
        trace.root.record("tier:compute", 0.0, 0.001, coalesced=True)
        payload = json.dumps(trace.to_tree())
        assert "tier:compute" in payload

    def test_trace_ids_unique(self):
        assert len({new_trace_id() for _ in range(100)}) == 100

    def test_finish_is_idempotent(self):
        trace = Trace("request", start=1.0)
        trace.root.finish(2.0)
        trace.root.finish(3.0)  # second finish must not move the end
        assert trace.to_tree()["duration_ms"] == pytest.approx(1000.0)


def _edges(tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in node.get("children", []):
            yield node, child
            stack.append(child)


durations = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)

subtree_shapes = st.lists(
    st.tuples(st.integers(0, 10**6), durations, durations), max_size=12
)
"""A service-side tree: node i hangs under an earlier node (chosen by the
integer), starts a gap after its parent and lasts a while."""


def _service_tree(shape, start: float) -> dict:
    trace = Trace("service.query", start=start)
    spans = [trace.root]
    for choice, gap, length in shape:
        parent = spans[choice % len(spans)]
        spans.append(parent.child("step", start=parent.start + gap))
        spans[-1].finish(spans[-1].start + length)
    trace.root.finish(max(span.end or span.start for span in spans))
    return trace.to_tree()


class TestGraft:
    def test_regrafted_ids_offsets_and_linkage(self):
        request = Trace("request", start=10.0)
        request.root.record("dispatch", 10.001, 10.004)
        tree = request.to_tree()
        service = Trace("service.query", start=50.0)
        service.root.record("validate", 50.0, 50.001)
        service.root.finish(50.002)
        grafted = graft(tree["children"][0], service.to_tree(), 1.5)
        assert grafted["span_id"] == "1.1.1"
        assert grafted["parent_id"] == "1.1"
        assert grafted["trace_id"] == tree["trace_id"]
        assert grafted["start_ms"] == pytest.approx(1.5)
        (validate,) = grafted["children"]
        assert validate["span_id"] == "1.1.1.1"
        assert validate["parent_id"] == "1.1.1"
        assert validate["start_ms"] == pytest.approx(1.5)

    @settings(max_examples=150, deadline=None)
    @given(
        shape=subtree_shapes,
        admission=durations,
        queue=durations,
        dispatch=durations,
        lag=st.floats(min_value=0.0, max_value=1.0),
        service_clock=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_grafted_tree_ids_unique_and_children_start_after_parents(
        self, shape, admission, queue, dispatch, lag, service_clock
    ):
        origin = 100.0
        enqueued = origin + admission
        dispatch_started = enqueued + queue
        request = Trace("request", start=origin)
        request.root.record("admission", origin, enqueued)
        request.root.record("queue", enqueued, dispatch_started)
        request.root.record(
            "dispatch", dispatch_started, dispatch_started + dispatch
        )
        tree = request.to_tree()
        # The service serialised its tree on its own clock; the graft
        # offset is where it started on the request's clock.
        subtree = _service_tree(shape, service_clock)
        service_started = dispatch_started + lag * dispatch
        graft(tree["children"][-1], subtree, (service_started - origin) * 1000.0)

        ids = [tree["span_id"]] + [child["span_id"] for _, child in _edges(tree)]
        assert len(ids) == len(set(ids))
        for parent, child in _edges(tree):
            assert child["parent_id"] == parent["span_id"]
            assert child["trace_id"] == tree["trace_id"]
            assert child["start_ms"] >= parent["start_ms"]


class TestSlowQueryLog:
    def test_keeps_top_n_by_duration(self):
        log = SlowQueryLog(capacity=3)
        for duration, query in [(0.1, "a"), (0.5, "b"), (0.2, "c"),
                                (0.9, "d"), (0.05, "e")]:
            log.offer(duration, query, tier="compute")
        entries = log.snapshot()
        assert [e["query"] for e in entries] == ["d", "b", "c"]
        assert entries[0]["duration_ms"] == pytest.approx(900.0)
        assert len(log) == 3

    def test_entry_payload(self):
        log = SlowQueryLog(capacity=2)
        tree = {"name": "request", "trace_id": "t"}
        log.offer(0.25, 42, tier="index", graph_version=3,
                  plan_digest="abc123", trace=tree)
        log.offer(0.01, 43, tier="cache")
        slow, fast = log.snapshot()
        assert slow["query"] == 42
        assert slow["tier"] == "index"
        assert slow["graph_version"] == 3
        assert slow["plan_digest"] == "abc123"
        assert slow["trace"] == tree
        assert "trace" not in fast

    def test_ties_prefer_most_recent(self):
        log = SlowQueryLog(capacity=2)
        log.offer(0.1, "first", tier="index")
        log.offer(0.1, "second", tier="index")
        log.offer(0.1, "third", tier="index")  # tie: evicts the oldest
        assert [e["query"] for e in log.snapshot()] == ["third", "second"]

    def test_clear(self):
        log = SlowQueryLog(capacity=2)
        log.offer(0.1, "a", tier="index")
        log.clear()
        assert len(log) == 0
        assert log.snapshot() == []

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)
