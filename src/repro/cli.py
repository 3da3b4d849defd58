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
import sys
from dataclasses import replace
from pathlib import Path

from . import Granularity, Indice, IndiceConfig, Stakeholder
from .core.autoconfig import suggest_config
from .core.config import CLI_FIELDS
from .dataset import (
    NoiseConfig,
    SyntheticConfig,
    apply_noise,
    generate_epc_collection,
    write_csv,
)
from .dataset.synthetic import shard_scheme
from .faults import FaultInjector, FaultPlan

__all__ = ["main", "build_parser"]


def _int_in(low: int, high: int | None = None):
    """An argparse ``type`` for an integer in ``[low, high]``: a bad value
    is a usage error (exit 2) before any work runs, not a traceback after it."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


_count = _int_in(1)
_seed = _int_in(0)  # numpy's SeedSequence takes non-negative integers only
_port = _int_in(0, 65535)


def _usage(parse):
    """An argparse ``type`` running *parse*, whose :class:`ValueError` or
    :class:`OSError` is a usage error (exit 2) before any work runs."""

    def type_(text: str):
        try:
            return parse(text)
        except (ValueError, OSError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return type_


_fault_plan = _usage(FaultPlan.load)
_shards = _usage(shard_scheme)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` command line."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="INDICE — EPC exploration through visualization (EDBT/BigVis 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write the synthetic EPC collection to CSV")
    gen.add_argument("output", type=Path, help="output CSV path")
    gen.add_argument("--certificates", type=_count, default=25000)
    gen.add_argument("--seed", type=_seed, default=2322)
    gen.add_argument("--clean", action="store_true",
                     help="skip noise injection (default: dirty, like real data)")

    sug = sub.add_parser("suggest", help="print automatic configuration advice")
    sug.add_argument("--certificates", type=_count, default=5000)
    sug.add_argument("--seed", type=_seed, default=2322)

    run = sub.add_parser("run", help="run the full pipeline and write a dashboard")
    run.add_argument("output", type=Path, help="output dashboard HTML path")
    run.add_argument("--certificates", type=_count, default=5000)
    run.add_argument("--seed", type=_seed, default=2322)
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
        "--shards", type=_shards, default=None, metavar="SCHEME",
        help="run the pipeline sharded with out-of-core merge: "
             "'by-district', 'by-zip' or a shard count; results are "
             "bit-identical to the unsharded run, peak memory is "
             "bounded by the largest shard (default: one in-memory shard)",
    )
    _add_perf_arguments(run)

    serve = sub.add_parser("serve", help="analyze once, then serve the dashboards over HTTP")
    serve.add_argument("--certificates", type=_count, default=5000)
    serve.add_argument("--seed", type=_seed, default=2322)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port, default=8350)
    serve.add_argument(
        "--workers", type=_count, default=8, metavar="N",
        help="handler threads in the serving pool (default: 8)",
    )
    serve.add_argument(
        "--max-inflight", type=_count, default=64, metavar="N",
        help="concurrent requests admitted before load shedding kicks in "
             "(excess arrivals get 503 + Retry-After; default: 64)",
    )
    serve.add_argument(
        "--no-prerender", action="store_true",
        help="render artifacts lazily on first hit (coalesced) instead of "
             "all at startup",
    )
    _add_perf_arguments(serve)

    # every argument after `check` is handed to repro.checks verbatim
    sub.add_parser(
        "check", add_help=False,
        help="run the repro.checks project analyzer (determinism, "
             "failure-handling, lineage, import and lock contracts); takes "
             "`python -m repro.checks` arguments",
    )
    return parser


def _add_perf_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared performance knobs of the pipeline-running commands:
    one flag per :data:`~repro.core.config.CLI_FIELDS` entry, plus the
    fault plan (an injector, not a config field)."""
    for spec in CLI_FIELDS:
        flag, kwargs = spec.metadata["cli"]
        parser.add_argument(flag, dest=spec.name, default=spec.default, **kwargs)
    parser.add_argument(
        "--fault-plan", type=_fault_plan, default=None, metavar="SPEC",
        help="inject deterministic faults for resilience testing: a spec "
             "string like 'geocoder.request:transient@0.3;seed=7' "
             "(site:kind[@rate][*times][+after], ';'-separated) or "
             "'@plan.json' to load a saved plan; reproduces a chaos run "
             "exactly",
    )


def _make_injector(args: argparse.Namespace) -> FaultInjector | None:
    """The fault injector requested by ``--fault-plan``, if any."""
    return None if args.fault_plan is None else FaultInjector(args.fault_plan)


def _apply_perf_arguments(config: IndiceConfig, args: argparse.Namespace) -> IndiceConfig:
    """*config* with the CLI-flagged fields taken from the parsed *args*."""
    return replace(
        config, **{spec.name: getattr(args, spec.name) for spec in CLI_FIELDS}
    )


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
    print(f"\ndashboard written to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serving import ArtifactServer, build_store

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
    try:
        server.serve(args.host, args.port, workers=args.workers)
    except OSError as exc:  # the address is busy or not ours to bind
        print(f"error: cannot serve on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "suggest": _cmd_suggest,
    "run": _cmd_run,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "check":
        from .checks.cli import main as checks_main

        return checks_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
