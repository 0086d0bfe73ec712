"""Online similarity serving: precomputed index, cache, micro-batched compute.

The paper frames SimRank as the engine behind online top-k similarity
queries; this package is the layer that actually *serves* such a query
stream.  It follows the precompute-then-serve architecture of production
similarity systems: an offline builder (:func:`build_index`) turns the
batched series evaluation into a truncated all-pairs index, and an
in-process :class:`SimilarityService` answers queries through a tiered
path — index row lookup, LRU result cache, micro-batched on-demand
compute — while supporting incremental edge updates with dirty-row
refresh instead of full rebuilds.

Queries travel through the package as :class:`QueryRequest` /
:class:`QueryResponse` objects (:mod:`repro.service.requests`), the
transport-agnostic request pipeline shared by in-process callers and the
asyncio network front-end (:mod:`repro.serve`); serving-path failures are
typed :class:`ServeError` codes on both paths.
"""

from .batcher import MicroBatcher, PendingResult
from .cache import LRUCache
from .fingerprints import FingerprintIndex
from .index import build_index, load_index, save_index
from .requests import (
    PROTOCOL_VERSION,
    ErrorCode,
    QueryRequest,
    QueryResponse,
    ServeError,
)
from .service import ServiceStats, SimilarityService
from .spill import RowSpillAccumulator, SpillStats

__all__ = [
    "PROTOCOL_VERSION",
    "ErrorCode",
    "FingerprintIndex",
    "LRUCache",
    "MicroBatcher",
    "PendingResult",
    "QueryRequest",
    "QueryResponse",
    "RowSpillAccumulator",
    "ServeError",
    "ServiceStats",
    "SimilarityService",
    "SpillStats",
    "build_index",
    "load_index",
    "save_index",
]
