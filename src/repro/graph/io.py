"""Reading and writing graphs in the formats the paper's datasets use.

Two formats are supported:

* **SNAP-style edge lists** (``web-BerkStan.txt`` and the NBER patent file are
  distributed this way): whitespace-separated ``source target`` pairs, lines
  starting with ``#`` are comments.  Trailing inline comments after the two
  ids (``12 34  # resolved redirect``) are tolerated too — real SNAP dumps
  contain both styles.
* **Labelled JSON**: a small self-describing format that preserves vertex
  labels (author names for the DBLP-analogue co-authorship graphs) so query
  workloads survive a round trip to disk.

Edge-list reading streams the file in blocks of lines, converts each
block's ids with one vectorised NumPy string-to-``int64`` cast, and
maintains the dense first-seen remapping incrementally — per-edge work is
array work, not Python ``int()`` calls and dict lookups.  (The test suite
keeps the original per-line parser as an oracle and asserts the two parse
identically.)  For large graphs, :func:`read_edge_list_streamed` feeds the
same blocks straight into an :class:`~repro.graph.edgelist.EdgeListGraph`
without ever building Python adjacency — the ingestion path of the
memory-bounded large-graph pipeline.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path
from typing import Union

import numpy as np

from ..exceptions import GraphBuildError
from .digraph import DiGraph
from .edgelist import EdgeListGraph

__all__ = [
    "iter_edge_blocks",
    "read_edge_list",
    "read_edge_list_streamed",
    "write_edge_list",
    "read_labeled_json",
    "write_labeled_json",
]

PathLike = Union[str, Path]

DEFAULT_BLOCK_LINES = 1 << 16
"""Lines parsed per block — bounds parser memory at ``O(block)`` regardless
of file size."""


def _parse_block(
    block: list[str],
    path: Path,
    first_line_number: int,
    comment_prefix: str,
) -> np.ndarray | None:
    """Parse one block of raw lines into an ``(m, 2)`` raw-id array.

    Comment lines, blank lines and trailing inline comments are stripped;
    tokens beyond the first two of a line are ignored.  Returns ``None`` when the block holds no edges.
    """
    tokens: list[str] = []
    for offset, line in enumerate(block):
        body = line
        if comment_prefix in line:
            body = line.split(comment_prefix, 1)[0]
        parts = body.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise GraphBuildError(
                f"{path}:{first_line_number + offset}: expected 'source target', "
                f"got {line.strip()!r}"
            )
        tokens.append(parts[0])
        tokens.append(parts[1])
    if not tokens:
        return None
    try:
        flat = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError) as error:
        raise GraphBuildError(
            f"{path}: non-integer vertex id near line {first_line_number}: {error}"
        ) from error
    return flat.reshape(-1, 2)


def iter_edge_blocks(
    path: PathLike,
    comment_prefix: str = "#",
    block_lines: int = DEFAULT_BLOCK_LINES,
) -> Iterator[np.ndarray]:
    """Stream a SNAP-style edge list as ``(m, 2)`` ``int64`` blocks of raw ids.

    The file is read ``block_lines`` lines at a time and each block is parsed
    with one vectorised string-to-``int64`` conversion, so peak parser memory
    is ``O(block_lines)`` however large the file is.  Ids are *not* remapped;
    concatenating the yielded blocks reproduces the file's edge sequence
    (duplicates and self-loops included) in order.
    """
    path = Path(path)
    if block_lines <= 0:
        raise GraphBuildError(f"block_lines must be positive, got {block_lines}")
    line_number = 1
    with path.open("r", encoding="utf-8") as handle:
        while True:
            block = []
            for line in handle:
                block.append(line)
                if len(block) >= block_lines:
                    break
            if not block:
                return
            pairs = _parse_block(block, path, line_number, comment_prefix)
            line_number += len(block)
            if pairs is not None:
                yield pairs


class _DenseRemapper:
    """Incrementally remap arbitrary integer ids to dense first-seen order.

    Feeding the blocks of :func:`iter_edge_blocks` through :meth:`remap`
    reproduces exactly the id assignment of a per-line parse through
    ``GraphBuilder`` (ids registered in source-then-target, line-by-line
    order): within a block the first-seen order is recovered from
    ``np.unique``'s ``return_index``, and across blocks the mapping is
    carried in a dict keyed by raw id — ``O(vertices)`` Python work total,
    never ``O(edges)``.
    """

    def __init__(self) -> None:
        self._dense: dict[int, int] = {}

    @property
    def num_vertices(self) -> int:
        return len(self._dense)

    def remap(self, pairs: np.ndarray) -> np.ndarray:
        """Return ``pairs`` with raw ids replaced by dense first-seen ids."""
        # Row-major ravel interleaves (source, target, source, ...) — the
        # exact registration order of a per-line parse.
        flat = pairs.ravel()
        unique, first_position, inverse = np.unique(
            flat, return_index=True, return_inverse=True
        )
        dense_of_unique = np.empty(unique.size, dtype=np.int64)
        for position in np.argsort(first_position, kind="stable"):
            raw = int(unique[position])
            dense = self._dense.get(raw)
            if dense is None:
                dense = len(self._dense)
                self._dense[raw] = dense
            dense_of_unique[position] = dense
        return dense_of_unique[inverse].reshape(pairs.shape)

    def labels(self) -> list[int]:
        """Raw ids in dense-id order (the inverse mapping)."""
        ordered = [0] * len(self._dense)
        for raw, dense in self._dense.items():
            ordered[dense] = raw
        return ordered


def _no_edges_error(path: Path) -> GraphBuildError:
    return GraphBuildError(
        f"{path}: edge list contains no edges (only blank lines and comments); "
        "refusing to build an empty graph"
    )


def read_edge_list(
    path: PathLike,
    comment_prefix: str = "#",
    name: str = "",
    block_lines: int = DEFAULT_BLOCK_LINES,
) -> DiGraph:
    """Read a SNAP-style whitespace-separated edge list into a :class:`DiGraph`.

    Vertex ids in the file may be arbitrary integers; they are remapped to a
    dense ``0 .. n-1`` range in first-seen order, matching how the paper's
    datasets are usually preprocessed.  Blank lines, ``#`` comment lines and
    trailing inline comments are ignored; a file with no edges at all raises
    a clear :class:`~repro.exceptions.GraphBuildError` instead of producing
    an empty graph that crashes downstream.

    Parameters
    ----------
    path:
        The edge-list file.
    comment_prefix:
        Comment marker (``"#"`` for SNAP dumps).
    name:
        Graph name (defaults to the file stem).
    block_lines:
        Lines parsed per vectorised block.
    """
    path = Path(path)
    remapper = _DenseRemapper()
    blocks = [
        remapper.remap(block)
        for block in iter_edge_blocks(
            path, comment_prefix=comment_prefix, block_lines=block_lines
        )
    ]
    if not blocks:
        raise _no_edges_error(path)
    # tolist() hands DiGraph plain int pairs — iterating ndarray rows would
    # cost a numpy scalar conversion per edge, dwarfing the parse savings.
    edges = np.concatenate(blocks, axis=0).tolist()
    return DiGraph(remapper.num_vertices, edges, name=name or path.stem)


def read_edge_list_streamed(
    path: PathLike,
    comment_prefix: str = "#",
    name: str = "",
    block_lines: int = DEFAULT_BLOCK_LINES,
) -> EdgeListGraph:
    """Stream a SNAP edge list straight into an :class:`EdgeListGraph`.

    The large-graph ingestion path: blocks of lines are parsed with
    vectorised NumPy conversion, remapped to dense first-seen ids on the
    fly, and collected as raw ``(sources, targets)`` arrays — no Python
    adjacency structures are ever built, so the result feeds directly into
    the CSR builders of :mod:`repro.graph.matrices`.  Duplicate edges and
    self-loops are kept verbatim (the CSR builders collapse duplicates),
    and the dense id assignment is identical to :func:`read_edge_list`.
    """
    path = Path(path)
    remapper = _DenseRemapper()
    source_parts: list[np.ndarray] = []
    target_parts: list[np.ndarray] = []
    for block in iter_edge_blocks(
        path, comment_prefix=comment_prefix, block_lines=block_lines
    ):
        remapped = remapper.remap(block)
        source_parts.append(np.ascontiguousarray(remapped[:, 0]))
        target_parts.append(np.ascontiguousarray(remapped[:, 1]))
    if not source_parts:
        raise _no_edges_error(path)
    return EdgeListGraph.from_arrays(
        remapper.num_vertices,
        np.concatenate(source_parts),
        np.concatenate(target_parts),
        name=name or path.stem,
    )


def write_edge_list(graph, path: PathLike, header: bool = True) -> None:
    """Write ``graph`` as a SNAP-style edge list (vertex ids, not labels).

    Accepts a :class:`DiGraph` or an :class:`EdgeListGraph` (anything with
    ``edges()``/``num_vertices``/``num_edges``).
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        if header:
            handle.write(f"# Directed graph: {graph.name or 'unnamed'}\n")
            handle.write(
                f"# Nodes: {graph.num_vertices} Edges: {graph.num_edges}\n"
            )
            handle.write("# FromNodeId\tToNodeId\n")
        for source, target in graph.edges():
            handle.write(f"{source}\t{target}\n")


def write_labeled_json(graph: DiGraph, path: PathLike) -> None:
    """Write ``graph`` (including labels) to a small JSON document."""
    path = Path(path)
    document = {
        "name": graph.name,
        "num_vertices": graph.num_vertices,
        "labels": [str(label) for label in graph.labels()]
        if graph.has_labels
        else None,
        "edges": [[source, target] for source, target in graph.edges()],
    }
    with path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)


def read_labeled_json(path: PathLike) -> DiGraph:
    """Read a graph previously written by :func:`write_labeled_json`."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        document = json.load(handle)
    try:
        n = int(document["num_vertices"])
        edges = [(int(source), int(target)) for source, target in document["edges"]]
    except (KeyError, TypeError, ValueError) as error:
        raise GraphBuildError(f"{path}: malformed graph document: {error}") from error
    labels = document.get("labels")
    return DiGraph(n, edges, labels=labels, name=document.get("name", path.stem))
