"""Command-line interface: regenerate any figure/table of the paper.

Examples
--------
Regenerate the dataset table and the density sweep::

    repro-simrank fig5
    repro-simrank fig6c --scale 0.5

Run everything quickly (small graphs, fewer sweep points)::

    repro-simrank all --quick

Reproduce a figure on a specific compute backend, or compare the dense and
sparse backends head to head::

    repro-simrank fig6a --backend sparse
    repro-simrank bench-backends --quick

Build a serving index offline, then benchmark the tiered online query path
(cold vs indexed vs cached) and dump the rows as JSON::

    repro-simrank index-build --out index.npz --rmat-scale 11 --index-k 50
    repro-simrank serve-bench --quick --json serving.json

Run a similarity server in the foreground, or load-test the network tier
over localhost with hundreds of concurrent asyncio clients (latency
percentiles, shed rate, SLO-driven degradation to the approx tier)::

    repro-simrank serve --rmat-scale 11 --port 7411 --slo-p99-ms 20
    repro-simrank serve-bench --remote --quick --json remote.json
    repro-simrank serve-bench --remote --clients 400 --slo-p99-ms 20

Exercise the memory-bounded large-graph pipeline (streamed SNAP ingestion,
out-of-core index build under a byte budget, Monte-Carlo approximate tier)::

    repro-simrank large-graph --memory-budget 256K --json large-graph.json
    repro-simrank index-build --out index.npz --memory-budget 1M
    repro-simrank serving --quick --approx

Ask the engine's cost-based planner what it would run — method, backend,
workers, serving tier and estimated cost per task shape — without running
anything::

    repro-simrank explain --rmat-scale 11 --workers 4
    repro-simrank explain --memory-budget 64K --json plan.json

Calibrate this host — measure the real per-kernel rates the planner's
static weights only guess at — and price plans with the measured profile
(``explain`` then labels every constant measured instead of assumed)::

    repro-simrank calibrate
    repro-simrank calibrate --quick --out profile.json
    repro-simrank explain --cost-profile profile.json

Every subcommand builds one :class:`~repro.engine.config.EngineConfig` from
its flags (``--config config.json`` loads a saved one instead), so a CLI
run, a benchmark report and an ``Engine`` session all share the same
reproducible configuration format.

Evaluate the Section IV worked example (K' vs K at C=0.8, ε=1e-4)::

    repro-simrank bounds-example
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time
from collections.abc import Sequence

from .bench.experiments import (
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
    remote_serving,
    scaling,
    serving,
)
from .bench.results import format_report, write_reports_json
from .core.iteration_bounds import (
    conventional_iterations,
    differential_iterations_exact,
    differential_iterations_lambert,
    differential_iterations_log,
)

__all__ = ["main", "build_parser"]

_FIGURE_RUNNERS = {
    "fig5": fig5.run,
    "fig6a": fig6a.run,
    "fig6b": fig6b.run,
    "fig6c": fig6c.run,
    "fig6d": fig6d.run,
    "fig6e": fig6e.run,
    "fig6f": fig6f.run,
    "fig6g": fig6g.run,
    "fig6h": fig6h.run,
    "ablation-candidates": ablations.run_candidate_strategy,
    "ablation-budget": ablations.run_candidate_budget,
    "ablation-sharing": ablations.run_sharing_levels,
    "bench-backends": backends.run,
    "large-graph": large_graph.run,
    "remote-serving": remote_serving.run,
    "scaling": scaling.run,
    "serving": serving.run,
}

_NETWORK_RUNNERS = frozenset({"remote-serving"})
"""Experiments excluded from ``all``: they bind sockets and drive load
over localhost — run them explicitly (``serve-bench --remote``)."""


def parse_memory_budget(text: str) -> int:
    """Parse a ``--memory-budget`` value: bytes, or with a K/M/G suffix."""
    text = text.strip()
    multipliers = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    multiplier = multipliers.get(text[-1:].upper())
    if multiplier is not None:
        text = text[:-1]
    else:
        multiplier = 1
    try:
        value = int(float(text) * multiplier)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid memory budget {text!r}; use bytes or K/M/G suffix"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError("memory budget must be positive")
    return value


def _serving_flags() -> argparse.ArgumentParser:
    """The shared serving/benchmark flags, as one argparse parent.

    ``serve-bench``, the ``serving`` experiment and the ``serve``
    subcommand all accept the same execution knobs; defining them once
    keeps names, defaults and help text consistent across the surfaces
    (the satellite of the serving-tier redesign).
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "process-parallel worker count for the sharded execution engine "
            "(forwarded to index-build and to experiments that sweep or use "
            "workers, e.g. 'scaling' and 'serving'; 0 means all cores)"
        ),
    )
    parent.add_argument(
        "--memory-budget",
        type=parse_memory_budget,
        default=None,
        metavar="BYTES",
        help=(
            "byte cap on resident truncated rows during index builds "
            "(accepts K/M/G suffixes; spills segments to disk when exceeded; "
            "forwarded to index-build and the large-graph experiment)"
        ),
    )
    parent.add_argument(
        "--approx",
        action="store_true",
        help=(
            "also benchmark the Monte-Carlo approximate serving tier "
            "(forwarded to experiments that take it, e.g. 'serving')"
        ),
    )
    parent.add_argument(
        "--remote",
        action="store_true",
        help=(
            "serve-bench: benchmark the network serving tier over localhost "
            "TCP (concurrent asyncio clients against a SimilarityServer) "
            "instead of the in-process tiers"
        ),
    )
    parent.add_argument(
        "--clients",
        type=int,
        default=None,
        metavar="N",
        help=(
            "concurrent asyncio clients for serve-bench --remote "
            "(default 200, or 24 with --quick)"
        ),
    )
    parent.add_argument(
        "--slo-p99-ms",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "p99 latency SLO in milliseconds for the serving tier; arms "
            "live-latency degradation to the approx tier (serve, "
            "serve-bench --remote, explain)"
        ),
    )
    parent.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help=(
            "admission-control cap on concurrently admitted requests for "
            "the serve subcommand (default 256; overflow is shed with a "
            "retryable typed error)"
        ),
    )
    parent.add_argument(
        "--shed-policy",
        choices=("degrade", "shed"),
        default=None,
        help=(
            "what an armed SLO does on a p99 breach: 'degrade' (default) "
            "reroutes flexible queries to the approx tier, 'shed' only "
            "sheds at admission"
        ),
    )
    parent.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind/connect address for the network serving tier",
    )
    parent.add_argument(
        "--port",
        type=int,
        default=0,
        help="listening port for the serve subcommand (0 picks one)",
    )
    parent.add_argument(
        "--trace",
        action="store_true",
        help=(
            "enable request tracing where supported: serve-bench --remote "
            "sends traced queries and attaches a sample span tree to the "
            "report (tracing stays off for the load-driving fleet, so "
            "latency numbers are untraced)"
        ),
    )
    parent.add_argument(
        "--metrics-interval",
        type=float,
        default=30.0,
        metavar="SEC",
        help=(
            "seconds between metrics-snapshot log lines for the foreground "
            "serve subcommand (0 disables the periodic emitter; default 30)"
        ),
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-simrank",
        description=(
            "Reproduction harness for 'Towards Efficient SimRank Computation "
            "on Large Networks' (ICDE 2013)."
        ),
        parents=[_serving_flags()],
    )
    parser.add_argument(
        "experiment",
        choices=sorted(set(_FIGURE_RUNNERS) - _NETWORK_RUNNERS) + [
            "all",
            "bounds-example",
            "calibrate",
            "compact",
            "explain",
            "index-build",
            "metrics",
            "serve",
            "serve-bench",
        ],
        help=(
            "which figure/table to regenerate ('all' runs every one); "
            "'index-build' precomputes a serving index, 'compact' folds a "
            "durable catalog's delta segments into a new base, "
            "'serve-bench' runs "
            "the serving tier benchmark (--remote for the network tier), "
            "'serve' runs a similarity server in the foreground, 'metrics' "
            "fetches a running server's registry snapshot over the wire, "
            "'explain' "
            "prints the engine planner's execution plan without computing "
            "anything, 'calibrate' measures this host's kernel rates and "
            "persists a cost profile the planner prices plans with"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="size multiplier for the generated dataset analogues (default 1.0)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use smaller graphs and fewer sweep points",
    )
    parser.add_argument(
        "--damping",
        type=float,
        default=None,
        help="override the damping factor C (defaults follow the paper)",
    )
    parser.add_argument(
        "--backend",
        choices=("dense", "sparse"),
        default=None,
        help=(
            "compute backend for matrix-form solvers (forwarded to the "
            "unified simrank() dispatch; algorithms that cannot honour it "
            "keep their default)"
        ),
    )
    parser.add_argument(
        "--method",
        default=None,
        help=(
            "all-pairs method for the engine planner ('auto' lets the cost "
            "model choose; only used by the explain subcommand)"
        ),
    )
    parser.add_argument(
        "--config",
        metavar="PATH",
        default=None,
        help=(
            "load an EngineConfig JSON file (as written by "
            "EngineConfig.to_json or an earlier 'explain --json' run) "
            "instead of building one from the flags above"
        ),
    )
    parser.add_argument(
        "--cost-profile",
        metavar="PATH",
        default=None,
        help=(
            "price plans with this calibrated cost-profile JSON (as written "
            "by the calibrate subcommand), or 'static' to pin the built-in "
            "weights; default resolves REPRO_COST_PROFILE, then the "
            "per-user profile, then static"
        ),
    )
    parser.add_argument(
        "--max-error",
        type=float,
        default=None,
        help=(
            "standard-error bound admitting the approximate serving tier "
            "(engine planner; only used by the explain subcommand)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help=(
            "also write the experiment report(s) to PATH as JSON (experiment "
            "runs only; ignored by index-build and bounds-example, which "
            "produce no report)"
        ),
    )
    serving_options = parser.add_argument_group(
        "serving options", "used by the index-build and explain subcommands"
    )
    serving_options.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help=(
            "output .npz path for the built index (index-build needs --out "
            "and/or --catalog)"
        ),
    )
    serving_options.add_argument(
        "--catalog",
        metavar="DIR",
        default=None,
        help=(
            "durable index catalog directory: index-build commits the "
            "built index there, serve warm-starts from it without a "
            "rebuild, and compact folds its delta segments into a new base"
        ),
    )
    serving_options.add_argument(
        "--rmat-scale",
        type=int,
        default=11,
        help="log2 vertex count of the generated r-mat graph (default 11)",
    )
    serving_options.add_argument(
        "--edge-factor",
        type=int,
        default=3,
        help="edges per vertex of the generated r-mat graph (default 3)",
    )
    serving_options.add_argument(
        "--index-k",
        type=int,
        default=50,
        help="scores kept per vertex in the built index (default 50)",
    )
    serving_options.add_argument(
        "--seed",
        type=int,
        default=7,
        help="graph-generation seed (default 7)",
    )
    return parser


def _run_one(name: str, args: argparse.Namespace):
    runner = _FIGURE_RUNNERS[name]
    kwargs: dict[str, object] = {"scale": args.scale, "quick": args.quick}
    if args.damping is not None:
        kwargs["damping"] = args.damping
    if args.backend is not None:
        kwargs["backend"] = args.backend
    if args.workers is not None:
        kwargs["workers"] = args.workers
    if args.memory_budget is not None:
        kwargs["memory_budget"] = args.memory_budget
    if args.approx:
        kwargs["approx"] = True
    if args.clients is not None:
        kwargs["clients"] = args.clients
    if args.slo_p99_ms is not None:
        kwargs["slo_p99_ms"] = args.slo_p99_ms
    if args.trace:
        kwargs["trace"] = True
    kwargs["host"] = args.host
    # Experiments accept different option subsets (the ablations take no
    # damping override, several figures no backend); forward what each takes.
    accepted = inspect.signature(runner).parameters
    kwargs = {key: value for key, value in kwargs.items() if key in accepted}
    return runner(**kwargs)


def _engine_config_from_args(args: argparse.Namespace):
    """Build (or load, with ``--config``) the run's :class:`EngineConfig`.

    Every subcommand funnels its knobs through this one record, so a CLI
    invocation is reproducible from the config JSON alone.
    """
    from pathlib import Path

    from .engine import EngineConfig

    if args.config is not None:
        return EngineConfig.from_json(Path(args.config).read_text())
    overrides: dict[str, object] = {}
    if args.damping is not None:
        overrides["damping"] = args.damping
    if args.method is not None:
        overrides["method"] = args.method
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.memory_budget is not None:
        overrides["memory_budget"] = args.memory_budget
    if getattr(args, "max_error", None) is not None:
        overrides["max_error"] = args.max_error
    if getattr(args, "slo_p99_ms", None) is not None:
        overrides["slo_p99_ms"] = args.slo_p99_ms
    if getattr(args, "max_inflight", None) is not None:
        overrides["max_inflight"] = args.max_inflight
    if getattr(args, "shed_policy", None) is not None:
        overrides["shed_policy"] = args.shed_policy
    if args.index_k is not None:
        overrides["index_k"] = args.index_k
    if getattr(args, "catalog", None) is not None:
        overrides["catalog_path"] = args.catalog
    if getattr(args, "cost_profile", None) is not None:
        overrides["cost_profile"] = args.cost_profile
    return EngineConfig(**overrides)


def _fixture_graph(args: argparse.Namespace):
    """The r-mat fixture the serving subcommands run against."""
    from .graph.generators.rmat import rmat_edge_list

    return rmat_edge_list(
        args.rmat_scale, args.edge_factor * (1 << args.rmat_scale), seed=args.seed
    )


def _explain(args: argparse.Namespace) -> int:
    """Print (and optionally dump as JSON) the engine's execution plan."""
    import json

    from .engine.engine import Engine

    config = _engine_config_from_args(args)
    graph = _fixture_graph(args)
    plan = Engine(graph, config).explain()
    print(plan.render())
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(plan.to_dict(), handle, indent=2, sort_keys=True)
        print(f"wrote execution plan to {args.json}")
    return 0


def _calibrate(args: argparse.Namespace) -> int:
    """Measure this host's kernel rates and persist a cost profile.

    ``--quick`` shrinks the synthetic operators and repeat counts (the CI
    smoke mode); ``--out`` overrides the destination (default: the
    per-user profile every later run picks up automatically).
    """
    from .calibrate import ENV_VAR, calibrate, default_profile_path

    started = time.perf_counter()
    profile = calibrate(quick=args.quick)
    elapsed = time.perf_counter() - started
    destination = args.out if args.out is not None else default_profile_path()
    path = profile.save(destination)
    unit = profile.seconds_per_op("sparse_matvec")
    print(f"calibrated {len(profile.kernels)} kernels in {elapsed:.2f}s:")
    for name, measurement in sorted(profile.kernels.items()):
        weight = (
            f" ({measurement.seconds_per_op / unit:8.3f}x sparse matvec)"
            if unit
            else ""
        )
        print(
            f"  {name:20s} {measurement.seconds_per_op:.3e} s/op{weight}"
        )
    print(f"profile digest {profile.digest()} -> {path}")
    if args.out is not None:
        print(
            f"activate it with {ENV_VAR}={path} or --cost-profile {path} "
            "(the default path is picked up automatically)"
        )
    return 0


def _index_build(args: argparse.Namespace) -> int:
    """Precompute a serving index for an r-mat graph and write it to disk.

    ``--out`` writes the legacy single-``.npz`` store, ``--catalog``
    commits a durable catalog directory (the engine does so as part of the
    build when ``catalog_path`` is configured); pass either or both.
    """
    from .engine.engine import Engine
    from .service import save_index

    if args.out is None and args.catalog is None:
        print("index-build requires --out PATH and/or --catalog DIR", file=sys.stderr)
        return 2
    config = _engine_config_from_args(args)
    graph = _fixture_graph(args)
    started = time.perf_counter()
    with Engine(graph, config) as engine:
        index = engine.build_index()
    elapsed = time.perf_counter() - started
    destinations = []
    if args.out is not None:
        save_index(index, args.out)
        destinations.append(args.out)
    if args.catalog is not None:
        destinations.append(f"{args.catalog} (catalog)")
    print(
        f"built top-{config.index_k} index for n={graph.num_vertices} "
        f"m={graph.num_edges} in {elapsed:.2f}s "
        f"({index.num_stored_scores} stored scores, "
        f"{index.memory_bytes() / 1e6:.1f} MB) -> {', '.join(destinations)}"
    )
    return 0


def _compact(args: argparse.Namespace) -> int:
    """Fold a catalog's committed delta segments into a new base generation."""
    from .catalog import IndexCatalog

    if args.catalog is None:
        print("compact requires --catalog DIR", file=sys.stderr)
        return 2
    if not IndexCatalog.is_catalog(args.catalog):
        print(f"{args.catalog} is not an index catalog", file=sys.stderr)
        return 2
    catalog = IndexCatalog.open(args.catalog)
    started = time.perf_counter()
    folded = catalog.compact(memory_budget=args.memory_budget)
    elapsed = time.perf_counter() - started
    manifest = catalog.manifest
    print(
        f"compacted {folded} delta segment(s) into {manifest.base_name} in "
        f"{elapsed:.2f}s (graph version {manifest.graph_version}, "
        f"n={manifest.num_vertices}, index_k={manifest.index_k})"
    )
    return 0


def _metrics(args: argparse.Namespace) -> int:
    """Fetch and render a running server's metrics snapshot over the wire."""
    import json

    from .obs import render_snapshot
    from .serve.client import SimilarityClient
    from .service.requests import ServeError

    if not args.port:
        print("metrics requires --port PORT (the server's port)", file=sys.stderr)
        return 2
    try:
        client = SimilarityClient(args.host, args.port)
    except OSError as error:
        print(
            f"cannot connect to {args.host}:{args.port}: {error}",
            file=sys.stderr,
        )
        return 1
    try:
        payload = client.metrics()
    except ServeError as error:
        print(f"metrics request failed: {error}", file=sys.stderr)
        return 1
    finally:
        client.close()
    body = dict(payload.get("metrics", {}))
    body["slow_queries"] = payload.get("slow_queries", [])
    body["plan_digest"] = payload.get("plan_digest")
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote metrics snapshot to {args.json}")
    else:
        print(render_snapshot(body))
    return 0


def _serve(args: argparse.Namespace) -> int:
    """Run a similarity server in the foreground until interrupted."""
    import asyncio
    import logging

    from .engine.engine import Engine
    from .obs import PeriodicEmitter

    config = _engine_config_from_args(args)
    graph = _fixture_graph(args)
    engine = Engine(graph, config)
    # Warm the artifact the serving plan selects, plus fingerprints so
    # SLO-driven degradation has an approx tier to fall back on.  A
    # committed catalog replaces the index build: engine.serve() opens it
    # memory-mapped (and falls back with a warning if it doesn't match).
    plan = engine.plan("serve")
    catalog_ready = False
    if config.catalog_path is not None:
        from .catalog import IndexCatalog

        catalog_ready = IndexCatalog.is_catalog(config.catalog_path)
        if catalog_ready:
            print(f"serving from catalog at {config.catalog_path}", flush=True)
    if plan.tier == "index" and not catalog_ready:
        engine.build_index()
    engine.build_fingerprints()
    server = engine.server(host=args.host, port=args.port)

    emitter = None
    if args.metrics_interval and args.metrics_interval > 0:
        # The emitter funnels through logging (the instrumentation policy:
        # libraries never print); the foreground command wires a handler so
        # the lines actually reach the terminal.
        if not logging.getLogger().handlers:
            logging.basicConfig(
                level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
            )
        emitter = PeriodicEmitter(
            lambda: server.registry.merged_snapshot(server.service.registry),
            interval=args.metrics_interval,
        )

    async def main() -> None:
        await server.start()
        print(
            f"serving n={graph.num_vertices} m={graph.num_edges} on "
            f"{server.host}:{server.port} "
            f"(tier plan: {plan.tier}, slo_p99_ms={config.slo_p99_ms}, "
            f"shed_policy={config.shed_policy}); ctrl-c to stop",
            flush=True,
        )
        if emitter is not None:
            emitter.start()
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        if emitter is not None:
            emitter.stop()
    return 0


def _bounds_example(damping: float = 0.8, accuracy: float = 1e-4) -> str:
    """Reproduce the Section IV worked example as plain text."""
    lines = [
        f"Section IV worked example (C={damping}, epsilon={accuracy}):",
        f"  conventional SimRank:  K  = {conventional_iterations(accuracy, damping)}"
        "  (paper: 41)",
        f"  differential exact:    K' = {differential_iterations_exact(accuracy, damping)}",
        f"  Lambert-W estimate:    K' = {differential_iterations_lambert(accuracy, damping)}"
        "  (paper: 7)",
        f"  Log estimate:          K' = {differential_iterations_log(accuracy, damping)}"
        "  (paper: 7)",
    ]
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "bounds-example":
        damping = args.damping if args.damping is not None else 0.8
        print(_bounds_example(damping=damping))
        return 0
    if args.experiment == "explain":
        return _explain(args)
    if args.experiment == "calibrate":
        return _calibrate(args)
    if args.experiment == "index-build":
        return _index_build(args)
    if args.experiment == "compact":
        return _compact(args)
    if args.experiment == "metrics":
        return _metrics(args)
    if args.experiment == "serve":
        return _serve(args)

    if args.experiment == "all":
        names = sorted(set(_FIGURE_RUNNERS) - _NETWORK_RUNNERS)
    elif args.experiment == "serve-bench":
        names = ["remote-serving" if args.remote else "serving"]
    else:
        names = [args.experiment]
    reports = []
    for name in names:
        report = _run_one(name, args)
        reports.append(report)
        print(format_report(report))
        print()
    if args.json is not None:
        path = write_reports_json(reports, args.json)
        print(f"wrote {len(reports)} report(s) to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
