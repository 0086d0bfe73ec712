"""Top-k similarity search helpers (the Fig. 6g / 6h query workload).

The paper's quality experiments issue *top-k queries*: given a query author,
return the ``k`` vertices with the highest SimRank score and compare the
ranking produced by OIP-DSR against the conventional OIP-SR ranking.  These
helpers extract such rankings from a full
:class:`~repro.core.result.SimRankResult`; :func:`repro.simrank_top_k`
answers them without materialising the full matrix.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass

from ..core.result import SimRankResult

__all__ = ["RankedList", "top_k_from_result", "ranking_positions"]


@dataclass(frozen=True)
class RankedList:
    """An ordered list of ``(label, score)`` pairs for one query vertex."""

    query: Hashable
    entries: tuple[tuple[Hashable, float], ...]

    def labels(self) -> list[Hashable]:
        """Return just the ranked labels."""
        return [label for label, _ in self.entries]

    def scores(self) -> list[float]:
        """Return just the ranked scores."""
        return [score for _, score in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def top_k_from_result(
    result: SimRankResult, query: Hashable, k: int = 10, include_self: bool = False
) -> RankedList:
    """Return the top-``k`` ranking for ``query`` from a full result matrix."""
    entries = result.top_k(query, k=k, include_self=include_self)
    return RankedList(query=query, entries=tuple(entries))


def ranking_positions(ranking: RankedList) -> dict[Hashable, int]:
    """Return a ``label -> zero-based position`` map for a ranked list."""
    return {label: position for position, (label, _) in enumerate(ranking.entries)}
