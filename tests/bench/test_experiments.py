"""Integration tests: every figure experiment runs and has the paper's shape.

These use tiny scales so the whole module stays fast; the full-scale runs are
what the ``benchmarks/`` suite and EXPERIMENTS.md record.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import (
    ablations,
    backends,
    fig5,
    fig6a,
    fig6b,
    fig6c,
    fig6d,
    fig6e,
    fig6f,
    fig6g,
    fig6h,
    large_graph,
    scaling,
    serving,
)


SCALE = 0.25


class TestFig5:
    def test_rows_cover_every_dataset(self):
        report = fig5.run(scale=SCALE, quick=True)
        assert len(report.rows) == 6
        assert all(row["vertices"] > 0 for row in report.rows)


class TestFig6a:
    @pytest.fixture(scope="class")
    def report(self):
        return fig6a.run(scale=SCALE, quick=True)

    def test_all_algorithms_present_on_dblp_panel(self, report):
        algorithms = {row["algorithm"] for row in report.filter(panel="dblp")}
        assert algorithms == {"oip-dsr", "oip-sr", "psum-sr", "mtx-sr"}

    def test_oip_sr_needs_no_more_additions_than_psum(self, report):
        for row in report.rows:
            if row["algorithm"] != "oip-sr" or row["panel"] == "dblp":
                continue
            partner = [
                other
                for other in report.rows
                if other["algorithm"] == "psum-sr"
                and other["panel"] == row["panel"]
                and other["sweep_K"] == row["sweep_K"]
            ]
            assert partner and row["additions"] <= partner[0]["additions"]

    def test_oip_dsr_uses_fewer_iterations_on_dblp(self, report):
        dsr = report.filter(panel="dblp", algorithm="oip-dsr")
        sr = report.filter(panel="dblp", algorithm="oip-sr")
        assert all(row["iterations"] < sr[0]["iterations"] for row in dsr)


class TestFig6b:
    def test_build_share_is_larger_for_dsr(self):
        report = fig6b.run(scale=SCALE, quick=True)
        for dataset in {row["dataset"] for row in report.rows}:
            sr = report.filter(dataset=dataset, algorithm="oip-sr")[0]
            dsr = report.filter(dataset=dataset, algorithm="oip-dsr")[0]
            assert dsr["build_mst_share"] >= sr["build_mst_share"]


class TestFig6c:
    def test_speedup_grows_with_density(self):
        report = fig6c.run(scale=SCALE, quick=False)
        degrees = sorted({row["avg_degree"] for row in report.rows})
        ratios = []
        for degree in degrees:
            psum = report.filter(avg_degree=degree, algorithm="psum-sr")[0]
            oip = report.filter(avg_degree=degree, algorithm="oip-sr")[0]
            ratios.append(psum["additions"] / oip["additions"])
        assert all(ratio >= 0.99 for ratio in ratios)
        assert ratios[-1] >= ratios[0]


class TestFig6d:
    def test_mtx_sr_needs_far_more_memory(self):
        report = fig6d.run(scale=SCALE, quick=True)
        dblp_rows = report.filter(panel="dblp")
        mtx = [row for row in dblp_rows if row["algorithm"] == "mtx-sr"]
        others = [row for row in dblp_rows if row["algorithm"] != "mtx-sr"]
        assert mtx and others
        assert min(row["peak_intermediate_values"] for row in mtx) > 5 * max(
            row["peak_intermediate_values"] for row in others
        )

    def test_partial_sum_memory_stable_in_k(self):
        report = fig6d.run(scale=SCALE, quick=True)
        sweep = [row for row in report.rows if row["sweep_K"] is not None]
        for algorithm in ("oip-sr", "psum-sr"):
            values = {
                row["peak_intermediate_values"]
                for row in sweep
                if row["algorithm"] == algorithm
            }
            assert len(values) == 1  # independent of K


class TestFig6eAndF:
    def test_differential_needs_fewer_iterations(self):
        report = fig6e.run(scale=0.2, quick=True)
        for row in report.rows:
            assert row["oip_dsr_bound_K"] < row["oip_sr_bound_K"]
            assert row["oip_dsr_measured"] <= row["oip_sr_measured"]

    def test_fig6f_matches_paper_exactly(self):
        report = fig6f.run()
        for row in report.rows:
            assert row["differential_exact"] == row["paper_oip_dsr"]
            assert row["lambert_estimate"] == row["paper_lambert"]
            assert row["log_estimate"] == row["paper_log"]


class TestFig6gAndH:
    def test_ndcg_close_to_one(self):
        report = fig6g.run(scale=0.3, quick=True)
        averages = [row for row in report.rows if row["query"] == "AVERAGE"]
        assert averages
        assert all(row["ndcg"] > 0.8 for row in averages)

    def test_top30_lists_mostly_agree(self):
        report = fig6h.run(scale=0.3, quick=True)
        reference = [row["oip_sr_coauthor"] for row in report.rows]
        evaluated = [row["oip_dsr_coauthor"] for row in report.rows]
        # The two lists may permute near-ties locally, but they should name
        # largely the same co-authors (the paper's Fig. 6h observation).
        overlap = len(set(reference) & set(evaluated)) / len(reference)
        assert overlap >= 0.7


class TestAblations:
    def test_candidate_strategy_report(self):
        report = ablations.run_candidate_strategy(scale=0.2, quick=True)
        strategies = {row["strategy"] for row in report.rows}
        assert strategies == {"exhaustive", "common-neighbor"}

    def test_budget_sweep_plateaus(self):
        report = ablations.run_candidate_budget(scale=0.2, quick=True)
        weights = [row["tree_weight"] for row in report.rows]
        assert weights == sorted(weights, reverse=True)

    def test_sharing_levels_monotone(self):
        report = ablations.run_sharing_levels(scale=0.2, quick=True)
        totals = [row["total_additions"] for row in report.rows]
        assert totals == sorted(totals, reverse=True)


class TestBackendsExperiment:
    @pytest.fixture(scope="class")
    def report(self):
        # quick + scale 0.25 shrinks the r-mat to 128 vertices.
        return backends.run(scale=0.25, quick=True)

    def test_both_backends_measured(self, report):
        measured = {
            row["backend"] for row in report.rows if row["algorithm"] == "matrix-sr"
        }
        assert measured == {"dense", "sparse"}

    def test_backends_agree(self, report):
        agreement_note = next(
            note for note in report.notes if note.startswith("max |dense - sparse|")
        )
        difference = float(agreement_note.split("=")[1].split("(")[0].strip())
        assert difference < 1e-10

    def test_topk_row_present(self, report):
        assert any(row["algorithm"] == "topk-batched" for row in report.rows)

    def test_single_backend_restriction(self):
        report = backends.run(scale=0.25, quick=True, backend="sparse")
        measured = {
            row["backend"] for row in report.rows if row["algorithm"] == "matrix-sr"
        }
        assert measured == {"sparse"}


class TestServingExperiment:
    @pytest.fixture(scope="class")
    def report(self):
        # quick + scale 0.25 shrinks the r-mat to 64 vertices.
        return serving.run(scale=0.25, quick=True)

    def test_all_tiers_reported(self, report):
        tiers = [row["tier"] for row in report.rows]
        assert tiers == ["index-build", "cold", "indexed", "cached"]

    def test_latency_columns_present(self, report):
        for row in report.rows[1:]:
            for column in ("qps", "mean_ms", "p50_ms", "p95_ms", "p99_ms"):
                assert isinstance(row[column], float)

    def test_served_rankings_match_full_matrix(self, report):
        note = next(
            note for note in report.notes if "matching full-matrix" in note
        )
        counts = note.split(":")[-1].strip().split("/")
        assert counts[0] == counts[1]

    def test_incremental_refresh_matches_rebuild(self, report):
        note = next(
            note for note in report.notes if "incremental vs rebuilt" in note
        )
        matched, total = note.split("agree on")[-1].split()[0].split("/")
        assert matched == total


class TestScalingExperiment:
    @pytest.fixture(scope="class")
    def report(self):
        # quick + scale 0.25 shrinks the r-mat to 64 vertices; the worker
        # cap keeps the sweep at 1/2 so the pool cost stays test-sized.
        return scaling.run(scale=0.25, quick=True, workers=2)

    def test_both_paths_swept(self, report):
        paths = {row["path"] for row in report.rows}
        assert paths == {"index-build", "all-pairs"}

    def test_worker_sweep_includes_serial_baseline(self, report):
        for path in ("index-build", "all-pairs"):
            workers = report.column("workers", path=path)
            assert workers[0] == 1
            assert len(workers) >= 2

    def test_parallel_results_are_bit_identical(self, report):
        # The determinism guarantee: every sweep point matched the serial
        # result exactly (sparse backend merges are order-deterministic).
        assert all(row["max_abs_diff"] == 0.0 for row in report.rows)

    def test_speedup_and_efficiency_are_reported(self, report):
        for row in report.rows:
            assert row["speedup"] > 0
            assert row["efficiency"] > 0

    def test_determinism_note_present(self, report):
        assert any("determinism" in note for note in report.notes)

    def test_determinism_violation_fails_the_run(self, monkeypatch):
        # The guard must raise (nonzero CLI exit), not hide in a note.
        monkeypatch.setattr(scaling, "_max_abs_diff", lambda a, b: 1e-6)
        with pytest.raises(RuntimeError, match="diverged"):
            scaling.run(scale=0.25, quick=True, workers=2)


class TestLargeGraphExperiment:
    @pytest.fixture(scope="class")
    def report(self):
        return large_graph.run(quick=True, memory_budget=16 * 1024)

    def test_all_phases_reported(self, report):
        phases = {row["phase"] for row in report.rows}
        assert {
            "ingest-chunked",
            "ingest-streamed",
            "build-in-core",
            "build-out-of-core",
            "fingerprints-build",
            "serve-approx",
            "serve-exact-compute",
        } <= phases

    def test_bit_identical_note_present(self, report):
        assert any("bit-identical" in note for note in report.notes)

    def test_spill_was_forced(self, report):
        import re

        (row,) = report.filter(phase="build-out-of-core")
        match = re.search(r"(\d+) segments", row["detail"])
        assert match is not None
        assert int(match.group(1)) > 0

    def test_overlap_floor_enforced(self, report, monkeypatch):
        assert any("overlap" in note for note in report.notes)
        monkeypatch.setattr(large_graph, "MIN_OVERLAP", 1.01)
        with pytest.raises(RuntimeError, match="overlap"):
            large_graph.run(quick=True, memory_budget=16 * 1024)

    def test_unforced_spill_raises(self):
        # A budget too large to spill must fail the run, not silently skip
        # the out-of-core path the smoke exists to exercise.
        with pytest.raises(RuntimeError, match="spill"):
            large_graph.run(quick=True, memory_budget=1 << 30)
