"""Baseline SimRank algorithms the paper compares against (and test oracles)."""

from .matrix_sr import matrix_simrank
from .monte_carlo import estimate_pair, monte_carlo_simrank, sample_fingerprints
from .mtx_svd_sr import mtx_svd_simrank
from .naive import naive_simrank
from .psum_sr import essential_pair_mask, psum_simrank
from .single_pair import single_pair_simrank
from .topk import RankedList, ranking_positions, top_k_from_result

__all__ = [
    "matrix_simrank",
    "estimate_pair",
    "monte_carlo_simrank",
    "sample_fingerprints",
    "mtx_svd_simrank",
    "naive_simrank",
    "essential_pair_mask",
    "psum_simrank",
    "single_pair_simrank",
    "RankedList",
    "ranking_positions",
    "top_k_from_result",
]
