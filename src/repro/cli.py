"""Command-line interface: ``python -m repro <command>``.

Three commands cover the zero-to-dashboard path:

* ``generate`` — write the synthetic Piedmont collection (clean and/or
  dirty) to CSV, for inspection or for feeding external tools;
* ``suggest`` — print the automatic configuration advice for a collection
  (the paper's future-work advisor);
* ``run`` — execute the full pipeline and write the stakeholder dashboard
  plus the provenance log.

Every command is seeded and offline; see ``python -m repro --help``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import Granularity, Indice, IndiceConfig, Stakeholder
from .core.autoconfig import suggest_config
from .dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    generate_epc_collection,
    write_csv,
)
from .faults import FaultInjector, FaultPlan

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` command line."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="INDICE — EPC exploration through visualization (EDBT/BigVis 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write the synthetic EPC collection to CSV")
    gen.add_argument("output", type=Path, help="output CSV path")
    gen.add_argument("--certificates", type=int, default=25000)
    gen.add_argument("--seed", type=int, default=2322)
    gen.add_argument("--clean", action="store_true",
                     help="skip noise injection (default: dirty, like real data)")

    sug = sub.add_parser("suggest", help="print automatic configuration advice")
    sug.add_argument("--certificates", type=int, default=5000)
    sug.add_argument("--seed", type=int, default=2322)

    run = sub.add_parser("run", help="run the full pipeline and write a dashboard")
    run.add_argument("output", type=Path, help="output dashboard HTML path")
    run.add_argument("--certificates", type=int, default=5000)
    run.add_argument("--seed", type=int, default=2322)
    run.add_argument(
        "--stakeholder",
        choices=[s.value for s in Stakeholder],
        default=Stakeholder.PUBLIC_ADMINISTRATION.value,
    )
    run.add_argument(
        "--granularity",
        choices=[g.name.lower() for g in Granularity],
        default=None,
        help="map zoom level (default: the stakeholder profile's)",
    )
    run.add_argument("--auto-config", action="store_true",
                     help="let the advisor pick the analysis configuration")
    run.add_argument(
        "--audit-effects", action="store_true",
        help="instrument env/clock/RNG access during the cached stages "
             "(raises on an un-fingerprinted read; also honored via the "
             "REPRO_AUDIT_EFFECTS environment variable)",
    )
    _add_perf_arguments(run)

    serve = sub.add_parser("serve", help="analyze once, then serve the dashboards over HTTP")
    serve.add_argument("--certificates", type=int, default=5000)
    serve.add_argument("--seed", type=int, default=2322)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8350)
    serve.add_argument(
        "--workers", type=int, default=8, metavar="N",
        help="handler threads in the serving pool (default: 8)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64, metavar="N",
        help="concurrent requests admitted before load shedding kicks in "
             "(excess arrivals get 503 + Retry-After; default: 64)",
    )
    serve.add_argument(
        "--no-prerender", action="store_true",
        help="render artifacts lazily on first hit (coalesced) instead of "
             "all at startup",
    )
    serve.add_argument(
        "--sanitize-locks", action="store_true",
        help="instrument the serving locks with the lockdep sanitizer "
             "(raises on lock-order inversion; also honored via the "
             "REPRO_SANITIZE_LOCKS environment variable)",
    )
    serve.add_argument(
        "--audit-effects", action="store_true",
        help="instrument env/clock/RNG access during stage and render "
             "execution (raises on an un-fingerprinted read; also honored "
             "via the REPRO_AUDIT_EFFECTS environment variable)",
    )
    _add_perf_arguments(serve)

    check = sub.add_parser(
        "check",
        help="run the repro.checks project analyzer (determinism/cache/fault/lineage contracts)",
    )
    check.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    check.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    check.add_argument("--select", metavar="RULES", default=None)
    check.add_argument("--cache", metavar="PATH", default=None)
    check.add_argument("--changed-only", action="store_true")
    check.add_argument("--baseline", metavar="PATH", default=None)
    check.add_argument("--write-baseline", metavar="PATH", default=None)
    check.add_argument("--all", action="store_true",
                       help="AST sweep plus ruff/mypy (skipped when missing)")
    check.add_argument("--list-rules", action="store_true")
    check.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print a rule's doc, rationale and its fixture good/bad pair",
    )
    return parser


def _add_perf_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared performance knobs of the pipeline-running commands."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the parallel stages "
             "(1 = serial, 0 = all cores; default: 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-hash stage cache (always recompute)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None, metavar="DIR",
        help="persist stage-cache entries under DIR (reused across runs)",
    )
    parser.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="inject deterministic faults for resilience testing: a spec "
             "string like 'geocoder.request:transient@0.3;seed=7' "
             "(site:kind[@rate][*times][+after], ';'-separated) or "
             "'@plan.json' to load a saved plan; reproduces a chaos run "
             "exactly",
    )
    parser.add_argument(
        "--shards", default=None, metavar="SCHEME",
        help="run the pipeline sharded with out-of-core merge: "
             "'by-district', 'by-zip' or a shard count; results are "
             "bit-identical to the monolithic path, peak memory is "
             "bounded by the largest shard (default: monolithic)",
    )
    parser.add_argument(
        "--spill-dir", type=Path, default=None, metavar="DIR",
        help="keep the per-shard columnar spill files under DIR (with "
             "--cache-dir this makes warm runs skip unchanged shards; "
             "default: a temporary directory per run)",
    )
    parser.add_argument(
        "--max-resident-shards", type=int, default=4, metavar="N",
        help="spill maps kept open at once during the sharded merge "
             "(default: 4)",
    )


def _make_injector(args: argparse.Namespace) -> FaultInjector | None:
    """The fault injector requested by ``--fault-plan``, if any."""
    if not getattr(args, "fault_plan", None):
        return None
    return FaultInjector(FaultPlan.load(args.fault_plan))


def _apply_perf_arguments(config: IndiceConfig, args: argparse.Namespace) -> IndiceConfig:
    """Plumb the CLI performance knobs into an :class:`IndiceConfig`."""
    config.n_jobs = args.jobs
    config.stage_cache = not args.no_cache
    config.cache_dir = str(args.cache_dir) if args.cache_dir else None
    config.shards = args.shards
    config.spill_dir = str(args.spill_dir) if args.spill_dir else None
    config.max_resident_shards = args.max_resident_shards
    return config


def _make_collection(n: int, seed: int, dirty: bool):
    collection = generate_epc_collection(
        SyntheticConfig(n_certificates=n, seed=seed)
    )
    if dirty:
        noisy = apply_noise(collection, NoiseConfig(seed=seed + 1))
        collection.table = noisy.table
    return collection


def _cmd_generate(args: argparse.Namespace) -> int:
    collection = _make_collection(args.certificates, args.seed, dirty=not args.clean)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    write_csv(collection.table, args.output)
    state = "clean" if args.clean else "dirty"
    print(f"wrote {collection.n_certificates} {state} certificates "
          f"({collection.table.n_columns} attributes) to {args.output}")
    return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    collection = _make_collection(args.certificates, args.seed, dirty=True)
    advice = suggest_config(collection.table)
    print(advice.describe())
    cfg = advice.config
    print(f"\nsuggested: outlier={cfg.outlier_method.value}, "
          f"k_range={cfg.k_range}, "
          f"min_support={cfg.rule_constraints.min_support:.3f}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    granularity = (
        Granularity[args.granularity.upper()] if args.granularity else None
    )
    if args.audit_effects:
        # the env flag (not a parameter chain) arms the auditor so every
        # audited region — engine stages, store renders — sees it
        os.environ["REPRO_AUDIT_EFFECTS"] = "1"
    if args.shards:
        # sharded tier: shards are generated/cleaned one at a time, so
        # the full collection is never resident (no _make_collection)
        from .perf.shards import ShardPlan

        if args.auto_config:
            print("--auto-config needs the materialized table and cannot "
                  "be combined with --shards")
            return 2
        plan = ShardPlan.from_generator(
            SyntheticConfig(n_certificates=args.certificates, seed=args.seed),
            args.shards,
            noise=NoiseConfig(seed=args.seed + 1),
        )
        engine = Indice(
            plan.collection, _apply_perf_arguments(IndiceConfig(), args),
            injector=_make_injector(args),
        )
        engine.run_sharded(plan)
    else:
        collection = _make_collection(args.certificates, args.seed, dirty=True)
        if args.auto_config:
            config = suggest_config(collection.table).config
        else:
            config = IndiceConfig()
        engine = Indice(
            collection, _apply_perf_arguments(config, args),
            injector=_make_injector(args),
        )
        engine.preprocess()
        engine.analyze()
    dashboard = engine.build_dashboard(Stakeholder(args.stakeholder), granularity)
    path = dashboard.save(args.output)
    print(engine.log.describe())
    degradations = engine.log.degradations()
    if degradations:
        print(f"\n{len(degradations)} degradation(s) under fault injection "
              "— see the provenance steps above")
    if args.audit_effects:
        from .checks import effectaudit as _effectaudit

        print("\neffect audit (observed ambient reads per stage):")
        print(_effectaudit.DEFAULT.describe())
    print(f"\ndashboard written to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serving import ArtifactServer, build_store

    if args.sanitize_locks:
        # the env flag (not a parameter chain) arms the sanitizer so every
        # lock construction site — store, server, stage cache — sees it
        os.environ["REPRO_SANITIZE_LOCKS"] = "1"
    if args.audit_effects:
        os.environ["REPRO_AUDIT_EFFECTS"] = "1"
    collection = _make_collection(args.certificates, args.seed, dirty=True)
    engine = Indice(
        collection, _apply_perf_arguments(IndiceConfig(), args),
        injector=_make_injector(args),
    )
    engine.preprocess()
    engine.analyze()
    store = build_store(engine)
    if not args.no_prerender:
        n_artifacts = store.prerender()
        print(f"pre-rendered {n_artifacts} artifacts "
              f"(analysis version {store.version})")
    server = ArtifactServer(store, max_inflight=args.max_inflight)
    server.serve(args.host, args.port, workers=args.workers)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .checks.cli import main as checks_main

    argv = [str(p) for p in args.paths]
    argv += ["--format", args.format]
    if args.select:
        argv += ["--select", args.select]
    if args.cache:
        argv += ["--cache", str(args.cache)]
    if args.changed_only:
        argv += ["--changed-only"]
    if args.baseline:
        argv += ["--baseline", str(args.baseline)]
    if args.write_baseline:
        argv += ["--write-baseline", str(args.write_baseline)]
    if args.all:
        argv += ["--all"]
    if args.list_rules:
        argv += ["--list-rules"]
    if args.explain:
        argv += ["--explain", args.explain]
    return checks_main(argv)


_COMMANDS = {
    "generate": _cmd_generate,
    "suggest": _cmd_suggest,
    "run": _cmd_run,
    "serve": _cmd_serve,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
