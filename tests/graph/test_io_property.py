"""Hypothesis properties for the chunked SNAP edge-list reader.

The chunked NumPy reader and the per-line oracle parser must be
*indistinguishable* on any file — duplicate edges, self-loops, arbitrary
(sparse, shuffled) vertex ids, comment lines, blank lines, trailing inline
comments, and block boundaries falling anywhere.  The streamed
``EdgeListGraph`` reader must agree with both after its duplicates are
collapsed by the ``DiGraph`` upgrade.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.io import (
    read_edge_list,
    read_edge_list_streamed,
)
from oracles import read_edge_list_reference

edge_lists = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 60)),
    min_size=1,
    max_size=80,
)
"""Raw id pairs; small id range forces duplicates and self-loops often."""


def _render_snap(edges, rng: np.random.Generator) -> str:
    """Render edges as a messy SNAP file (comments, blanks, inline tails)."""
    lines = ["# generated header", "# FromNodeId\tToNodeId"]
    for position, (source, target) in enumerate(edges):
        # Sparse ids: scale by a stride so remapping has real work to do.
        line = f"{source * 13} {target * 13}"
        roll = rng.random()
        if roll < 0.15:
            line += f"  # inline note {position}"
        lines.append(line)
        if roll > 0.9:
            lines.append("")
        if roll > 0.95:
            lines.append("# interleaved comment")
    return "\n".join(lines) + "\n"


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(edges=edge_lists, seed=st.integers(0, 2**16), block=st.integers(1, 17))
def test_chunked_engine_equals_per_line_parse(tmp_path, edges, seed, block):
    rng = np.random.default_rng(seed)
    path = tmp_path / f"case-{seed}-{block}.txt"
    path.write_text(_render_snap(edges, rng))

    reference = read_edge_list_reference(path)
    chunked = read_edge_list(path, block_lines=block)

    # Identical graphs — same dense id assignment, same (collapsed) edges.
    assert chunked.num_vertices == reference.num_vertices
    assert chunked == reference


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(edges=edge_lists, seed=st.integers(0, 2**16), block=st.integers(1, 17))
def test_streamed_reader_matches_reference_after_collapse(
    tmp_path, edges, seed, block
):
    rng = np.random.default_rng(seed)
    path = tmp_path / f"stream-{seed}-{block}.txt"
    path.write_text(_render_snap(edges, rng))

    reference = read_edge_list_reference(path)
    streamed = read_edge_list_streamed(path, block_lines=block)

    # The edge-list graph keeps duplicates verbatim, in file order.
    raw = [
        (source * 13, target * 13) for source, target in edges
    ]
    first_seen: dict[int, int] = {}
    for source, target in raw:
        first_seen.setdefault(source, len(first_seen))
        first_seen.setdefault(target, len(first_seen))
    expected = [(first_seen[s], first_seen[t]) for s, t in raw]
    assert list(streamed.edges()) == expected

    # Collapsing duplicates (the DiGraph upgrade) reproduces the reference.
    assert streamed.to_digraph() == reference
