"""Prior-art analysis on a patent-style citation network.

The PATENT dataset motivates the paper's scalability claims: millions of
patents, each citing a handful of older ones.  This example generates a
patent-like citation DAG, uses SimRank to find patents structurally similar
to a query patent (candidate prior art / related filings), and demonstrates
the single-source and Monte-Carlo estimators that avoid materialising the
full similarity matrix — the regime a patent-scale deployment would use.

Run with::

    python examples/citation_analysis.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    monte_carlo_simrank,
    oip_dsr,
    simrank_top_k,
    single_pair_simrank,
)
from repro.graph.generators import citation_network
from repro.graph.properties import degree_statistics


def main() -> None:
    graph = citation_network(
        num_papers=800,
        average_citations=4.4,
        num_classes=12,
        seed=17,
        name="example-citations",
    )
    print(f"Citation network: {graph}")
    print("Degree statistics:", degree_statistics(graph).as_dict(), "\n")

    # Pick the most-cited patent as the query (a foundational filing).
    query = max(graph.vertices(), key=graph.in_degree)
    print(f"Query patent: {query} (cited by {graph.in_degree(query)} later patents)\n")

    # Full-matrix differential SimRank: the fast all-pairs option.
    full = oip_dsr(graph, damping=0.6, accuracy=1e-3)
    print("Top-8 related patents (all-pairs OIP-DSR):")
    for label, score in full.top_k(query, k=8):
        print(f"  patent {label}: {score:.4f}")

    # Batched single-source SimRank: no n x n matrix — what you would run
    # on the real 3.7M-patent network for a handful of queries.
    (ranking,) = simrank_top_k(graph, [query], k=8, damping=0.6)
    print("\nTop-8 related patents (single-source series, no full matrix):")
    for label, score in ranking.entries:
        print(f"  patent {label}: {score:.4f}")

    # Spot-check a single pair with the pairwise estimator and Monte Carlo.
    candidate = ranking.entries[0][0]
    exact_pair = single_pair_simrank(graph, query, candidate, damping=0.6)
    print(f"\nSingle-pair series estimate  s({query}, {candidate}) = {exact_pair:.4f}")

    monte_carlo = monte_carlo_simrank(
        graph, damping=0.6, num_walks=200, seed=1
    )
    mc_estimate = monte_carlo.similarity(query, candidate)
    print(f"Monte-Carlo estimate         s({query}, {candidate}) = {mc_estimate:.4f}")
    difference = abs(mc_estimate - exact_pair)
    print(f"(absolute difference {difference:.4f} — the estimator is unbiased but noisy)")

    # How concentrated are the similarities? A quick distribution summary.
    row = full.similarity_row(query)
    row[graph.index_of(query)] = 0.0
    positive = row[row > 0]
    print(
        f"\n{positive.size} patents have non-zero similarity to the query; "
        f"mean={positive.mean():.4f}, max={positive.max():.4f}, "
        f"90th percentile={np.percentile(positive, 90):.4f}"
    )


if __name__ == "__main__":
    main()
