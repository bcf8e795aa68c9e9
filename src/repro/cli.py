"""Command-line entry point: regenerate the paper's tables and figures.

Usage (installed as ``repro-experiments``)::

    repro-experiments table1
    repro-experiments table2 [--seed N]
    repro-experiments table3
    repro-experiments table4
    repro-experiments sweep-nasa | sweep-blue | sweep-montage
    repro-experiments figures          # figures 12-14 (consolidated run)
    repro-experiments tco              # §4.5.5 cost case study
    repro-experiments all              # everything above, in paper order

Extensions beyond the paper (ablations and future-work experiments)::

    repro-experiments ablation-lease-unit | ablation-scan-interval
    repro-experiments ablation-scheduler  | ablation-policy
    repro-experiments ablation-utilization
    repro-experiments ablate --scenario 'table2-*'      # auto component swaps
    repro-experiments sensitivity --scenario 'table2-*' # + ±step param grids
    repro-experiments breakeven           # own-vs-lease decision surface
    repro-experiments zoo                 # Pegasus workflow family
    repro-experiments federation          # one big cloud vs k fragments
    repro-experiments experiments-md      # regenerate EXPERIMENTS.md text
    repro-experiments export --outdir D   # CSV dump of every artifact

Orchestration (the scenario registry; see docs/orchestration.md)::

    repro-experiments list-scenarios      # every registered scenario
    repro-experiments run --scenario 'table*' --parallel 4
    repro-experiments run --scenario 'table*' --billing per-second
    repro-experiments cache-info | cache-clear

Online serving (a long-lived service; see docs/serving.md)::

    repro-experiments serve --service svc.toml --script ops.jsonl
    repro-experiments serve < ops.jsonl   # default demo service, stdin

The spec API (the component registry and declarative experiment specs;
see docs/api.md)::

    repro-experiments list-components [--kind workload] [--json]
    repro-experiments run-spec my-experiment.toml [more.toml ...]

``run-spec`` executes declarative experiment spec files (TOML or JSON)
through the same orchestrator and result cache, so reruns of an
unchanged spec are pure JSON loads.  Spec files dropped into a spec
directory (``--spec-dir``, ``$REPRO_SPEC_DIR``, default ``./specs`` when
present) register as scenarios automatically and appear in
``list-scenarios`` / ``run`` alongside the built-ins.

Every simulation command, ``export`` included, routes through the
scenario registry and the content-addressed result cache
(``--cache-dir``, ``$REPRO_CACHE_DIR``, default ``./.repro-cache``), so
reruns are incremental and ``--parallel N`` fans independent scenarios
over N worker processes.  ``run`` prints one canonical-JSON document,
byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.experiments.cache import NullCache, ResultCache, canonical_json
from repro.experiments.journal import RunJournal
from repro.experiments.orchestrator import Orchestrator
from repro.experiments.supervision import OrchestrationError, RetryPolicy
from repro.provisioning.billing import METER_FACTORIES
from repro.experiments.report import (
    render_consolidated_payload,
    render_percentage_rows,
    render_sweep,
    render_table,
)
from repro.experiments.sweep import points_from_payload
from repro.experiments.tables import table_rows_from_payload


def _cmd_table1(orch: Orchestrator) -> str:
    rows = orch.run_one(_COMMAND_SCENARIOS["table1"][0]).payload
    return render_table(rows, title="Table 1: usage-model comparison")


def _table_cmd(orch: Orchestrator, scenario: str, title: str) -> str:
    rows = table_rows_from_payload(orch.run_one(scenario).payload)
    return render_table(render_percentage_rows(rows), title=title)


def _cmd_table2(orch: Orchestrator) -> str:
    return _table_cmd(orch, _COMMAND_SCENARIOS["table2"][0],
                      "Table 2: service provider, NASA trace")


def _cmd_table3(orch: Orchestrator) -> str:
    return _table_cmd(orch, _COMMAND_SCENARIOS["table3"][0],
                      "Table 3: service provider, BLUE trace")


def _cmd_table4(orch: Orchestrator) -> str:
    return _table_cmd(orch, _COMMAND_SCENARIOS["table4"][0],
                      "Table 4: service provider, Montage")


def _sweep_cmd(orch: Orchestrator, scenario: str, title: str) -> str:
    points = points_from_payload(orch.run_one(scenario).payload)
    return render_sweep(points, title=title)


def _cmd_sweep_nasa(orch: Orchestrator) -> str:
    return _sweep_cmd(orch, _COMMAND_SCENARIOS["sweep-nasa"][0],
                      "Figure 10: NASA trace, (B, R) sweep")


def _cmd_sweep_blue(orch: Orchestrator) -> str:
    return _sweep_cmd(orch, _COMMAND_SCENARIOS["sweep-blue"][0],
                      "Figure 9: BLUE trace, (B, R) sweep")


def _cmd_sweep_montage(orch: Orchestrator) -> str:
    return _sweep_cmd(orch, _COMMAND_SCENARIOS["sweep-montage"][0],
                      "Figure 11: Montage, (B, R) sweep")


def _cmd_figures(orch: Orchestrator) -> str:
    return render_consolidated_payload(
        orch.run_one(_COMMAND_SCENARIOS["figures"][0]).payload
    )


def _cmd_tco(orch: Orchestrator) -> str:
    tco = orch.run_one(_COMMAND_SCENARIOS["tco"][0]).payload
    return (
        "Section 4.5.5: TCO of the service provider (BJUT grid-lab case)\n"
        f"  DCS: ${tco['dcs_tco_per_month']:,.0f} per month\n"
        f"  SSP: ${tco['ssp_tco_per_month']:,.0f} per month\n"
        f"  SSP/DCS = {tco['ssp_over_dcs']:.1%}\n"
    )


def _ablation_cmd(orch: Orchestrator, scenario: str, title: str) -> str:
    return render_table(orch.run_one(scenario).payload, title=title)


def _cmd_ablation_lease_unit(orch: Orchestrator) -> str:
    return _ablation_cmd(orch, "ablation-lease-unit",
                         "Ablation: lease time unit (NASA trace)")


def _cmd_ablation_scan_interval(orch: Orchestrator) -> str:
    return _ablation_cmd(orch, "ablation-scan-interval",
                         "Ablation: server scan interval (NASA trace)")


def _cmd_ablation_scheduler(orch: Orchestrator) -> str:
    return _ablation_cmd(orch, "ablation-scheduler",
                         "Ablation: scheduling policy (NASA trace)")


def _cmd_ablation_policy(orch: Orchestrator) -> str:
    return _ablation_cmd(
        orch, "ablation-policy",
        "Ablation: resource-management policies (NASA trace, B=40)")


def _cmd_ablation_utilization(orch: Orchestrator) -> str:
    return _ablation_cmd(
        orch, "ablation-utilization",
        "Ablation: economies of scale vs offered load (24.4%-86.5%)")


def _cmd_breakeven(orch: Orchestrator) -> str:
    be = orch.run_one("breakeven").payload
    out = [
        render_table(
            be["cost_curve"],
            title="Own vs lease: monthly cost by duty level (BJUT case)",
        ),
        render_table(be["sensitivity"], title="TCO sensitivity (one-at-a-time)"),
        f"Break-even EC2 price: "
        f"${be['breakeven_price']:.4f}/instance-hour",
        f"Break-even duty level: "
        f"{be['breakeven_utilization']} "
        f"(None = lease always wins)",
    ]
    return "\n".join(out)


def _cmd_zoo(orch: Orchestrator) -> str:
    return _ablation_cmd(orch, "workflow-zoo", "Workflow zoo (node-hours)")


def _cmd_federation(orch: Orchestrator) -> str:
    return _ablation_cmd(
        orch, "federation-scale",
        "Federation: one big cloud vs k equal fragments")


def _cmd_experiments_md(orch: Orchestrator) -> str:
    from repro.experiments.expmd import render_experiments_md

    return render_experiments_md(orch.seed, orchestrator=orch)


def _cmd_list_scenarios(orch: Orchestrator) -> str:
    rows = [
        {
            "scenario": spec.name,
            "tags": ",".join(sorted(spec.tags)),
            "params": canonical_json(dict(spec.defaults)),
            "description": spec.description,
        }
        for spec in orch.registry.specs()
    ]
    return render_table(rows, title=f"{len(rows)} registered scenarios")


def _spec_dir(arg: str | None):
    """The effective spec directory, or None.

    Explicit ``--spec-dir`` must exist (a typo should not silently run
    without the user's specs); the ``$REPRO_SPEC_DIR``/``./specs``
    defaults are opportunistic.
    """
    import os
    from pathlib import Path

    if arg is not None:
        path = Path(arg)
        if not path.is_dir():
            raise SystemExit(f"--spec-dir {arg!r} is not a directory")
        return path
    env = os.environ.get("REPRO_SPEC_DIR")
    if env:
        if not Path(env).is_dir():
            raise SystemExit(f"$REPRO_SPEC_DIR {env!r} is not a directory")
        return Path(env)
    default = Path("specs")
    return default if default.is_dir() else None


def _profile_scenarios(selected, overrides: dict, args) -> int:
    """Profile each selected scenario with cProfile; dump .pstats files.

    Every scenario runs twice in-process: a warm-up pass (imports, trace
    parsing) and the profiled pass, so the dump reflects steady-state
    simulation cost.  The cache is deliberately bypassed — a cached
    replay profiles JSON loading, not the simulation.
    """
    import cProfile
    import io
    import pstats
    from pathlib import Path

    if not selected:
        print(f"no scenarios match pattern {args.scenario!r}", file=sys.stderr)
        return 1
    outdir = Path(args.profile_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for spec in selected:
        spec_overrides = overrides.get(spec.name)
        spec.run(args.seed, overrides=spec_overrides)  # warm-up pass
        profiler = cProfile.Profile()
        profiler.enable()
        spec.run(args.seed, overrides=spec_overrides)
        profiler.disable()
        path = outdir / f"{spec.name}.pstats"
        profiler.dump_stats(path)
        buffer = io.StringIO()
        stats = pstats.Stats(profiler, stream=buffer)
        stats.sort_stats("tottime").print_stats(25)
        print(f"# {spec.name}: profile dumped to {path}", file=sys.stderr)
        print(f"=== {spec.name} (top 25 by tottime) ===")
        print(buffer.getvalue())
    return 0


#: The built-in demo service ``serve`` boots when no ``--service`` spec
#: is given: a small owned (DCS) machine, alive for one week.
_DEFAULT_SERVICE_SPEC = {
    "name": "demo",
    "system": "dcs",
    "machine_nodes": 64,
    "horizon_s": 7 * 86400.0,
}


def _cmd_serve(args, retry) -> int:
    """The 'serve' verb: a JSONL op loop over one live service."""
    from repro.api.spec import ServiceSpec, load_service_file
    from repro.serving import ServeSession, build_service

    try:
        spec = (
            load_service_file(args.service)
            if args.service is not None
            else ServiceSpec.from_dict(_DEFAULT_SERVICE_SPEC)
        )
        service = build_service(spec, seed=args.seed)
    except (ValueError, KeyError, FileNotFoundError, RuntimeError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    session = ServeSession(service, retry=retry)
    if args.script is not None:
        try:
            fh = open(args.script)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        with fh:
            results = session.run_script(fh, out=sys.stdout)
    else:
        results = session.run_script(sys.stdin, out=sys.stdout)
    return 0 if all(r["ok"] for r in results) else 1


_COMMANDS: dict[str, Callable[[Orchestrator], str]] = {
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table4": _cmd_table4,
    "sweep-nasa": _cmd_sweep_nasa,
    "sweep-blue": _cmd_sweep_blue,
    "sweep-montage": _cmd_sweep_montage,
    "figures": _cmd_figures,
    "tco": _cmd_tco,
    "ablation-lease-unit": _cmd_ablation_lease_unit,
    "ablation-scan-interval": _cmd_ablation_scan_interval,
    "ablation-scheduler": _cmd_ablation_scheduler,
    "ablation-policy": _cmd_ablation_policy,
    "ablation-utilization": _cmd_ablation_utilization,
    "breakeven": _cmd_breakeven,
    "zoo": _cmd_zoo,
    "federation": _cmd_federation,
    "experiments-md": _cmd_experiments_md,
    "list-scenarios": _cmd_list_scenarios,
}

#: Scenario names for the paper commands (``_ALL_ORDER``): their _cmd_*
#: helpers read from here and ``all`` prefetches from here, so the two
#: cannot drift.  The ablation/extension commands (never part of ``all``)
#: name their scenarios inline.
_COMMAND_SCENARIOS: dict[str, tuple[str, ...]] = {
    "table1": ("table1-models",),
    "table2": ("table2-nasa",),
    "table3": ("table3-blue",),
    "table4": ("table4-montage",),
    "sweep-nasa": ("fig10-sweep-nasa",),
    "sweep-blue": ("fig09-sweep-blue",),
    "sweep-montage": ("fig11-sweep-montage",),
    "figures": ("fig12-14-consolidated",),
    "tco": ("tco-case",),
}

_ALL_ORDER = (
    "table1",
    "sweep-blue",
    "sweep-nasa",
    "sweep-montage",
    "table2",
    "table3",
    "table4",
    "figures",
    "tco",
)


def _report_outcomes(runs) -> int:
    """Per-scenario progress lines plus a failure summary table (stderr).

    Returns the exit code the caller should use: 0 when every scenario
    succeeded, 1 when any failed — completed siblings' results stay
    usable either way.
    """
    for run in runs.values():
        if run.status == "ok":
            state = "cached" if run.cached else f"ran in {run.duration_s:.1f}s"
            if run.resumed:
                state += " (resumed)"
            if not run.cached and run.attempts > 1:
                state += f" (attempt {run.attempts})"
        elif run.status == "skipped":
            state = "skipped (fail-fast)"
        else:
            error = run.error or {}
            state = (f"FAILED after {run.attempts} attempt(s): "
                     f"{error.get('type', 'Error')}")
        print(f"# {run.name}: {state}", file=sys.stderr)
    failures = {n: r for n, r in runs.items() if r.status == "failed"}
    if not failures:
        return 0
    rows = [
        {
            "scenario": name,
            "attempts": run.attempts,
            "error": (run.error or {}).get("type", "?"),
            "message": (run.error or {}).get("message", "")[:72],
        }
        for name, run in sorted(failures.items())
    ]
    print(render_table(rows, title=f"{len(failures)} scenario(s) failed"),
          file=sys.stderr)
    return 1


def _ok_payloads(runs) -> dict:
    """Payloads of successful runs only (failed/skipped carry none)."""
    return {name: run.payload for name, run in runs.items() if run.ok}


_ABLATION_MD_BEGIN = "<!-- repro:ablation:begin -->"
_ABLATION_MD_END = "<!-- repro:ablation:end -->"


def _write_ablation_section(path: str, sections: list[str]) -> None:
    """Write the ranked report block into ``path``, idempotently.

    The block lives between marker comments: an existing block is
    replaced in place (everything outside it is preserved byte-for-
    byte), a missing one is appended, a missing file is created.
    """
    import os

    block = "\n".join([
        _ABLATION_MD_BEGIN,
        "## Ablation & sensitivity (`repro-experiments ablate`)",
        "",
        *sections,
        _ABLATION_MD_END,
    ])
    text = ""
    if os.path.exists(path):
        with open(path) as fh:
            text = fh.read()
    if _ABLATION_MD_BEGIN in text and _ABLATION_MD_END in text:
        head, _, rest = text.partition(_ABLATION_MD_BEGIN)
        _, _, tail = rest.partition(_ABLATION_MD_END)
        text = head + block + tail
    else:
        if text and not text.endswith("\n"):
            text += "\n"
        text += ("\n" if text else "") + block + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _cmd_ablation_engine(args, cache) -> int:
    """The 'ablate' / 'sensitivity' verbs: auto-generated run sets.

    ``ablate`` swaps every registered component one-off against each
    matching scenario's baseline and writes the ranked section into
    ``--md``; ``sensitivity`` additionally (or, with ``--path``, only
    as directed) perturbs dotted spec parameters ±``--step``.  Exit 1
    when the pattern yields no executable plan, with a failure table
    naming each rejected scenario and why.
    """
    from repro.experiments.sensitivity import (
        DEFAULT_SENSITIVITY_GRIDS,
        render_report,
        run_ablation,
        scenario_plans,
    )

    grids = tuple(args.path) or (
        DEFAULT_SENSITIVITY_GRIDS if args.command == "sensitivity" else ()
    )
    plans, rejected = scenario_plans(
        args.scenario, grids=grids, step=args.step
    )
    if rejected:
        rows = [
            {"scenario": name, "reason": reason[:96]}
            for name, reason in sorted(rejected.items())
        ]
        print(
            render_table(
                rows, title=f"{len(rejected)} scenario(s) not ablatable"
            ),
            file=sys.stderr,
        )
    if not plans:
        if not rejected:
            print(f"no scenarios match pattern {args.scenario!r}",
                  file=sys.stderr)
        return 1
    payloads = {}
    sections = []
    for plan in plans:
        report = run_ablation(
            plan, seed=args.seed, cache=cache, workers=args.parallel
        )
        payloads[plan.name] = report.to_payload()
        section = render_report(report)
        sections.append(section)
        print(section)
    print(canonical_json(payloads))
    if args.command == "ablate" and not args.no_md:
        _write_ablation_section(args.md, sections)
        print(f"# wrote ranked section to {args.md}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "command",
        choices=[*_COMMANDS, "run", "all", "export", "cache-info", "cache-clear",
                 "list-components", "run-spec", "serve", "ablate",
                 "sensitivity"],
    )
    parser.add_argument(
        "paths", nargs="*", metavar="SPEC",
        help="experiment spec file(s) for the 'run-spec' command",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="fan independent scenarios over N worker processes",
    )
    parser.add_argument(
        "--scenario", default="*", metavar="PAT",
        help="glob pattern(s) selecting scenarios for 'run' "
             "(comma-separated alternatives allowed)",
    )
    parser.add_argument(
        "--tag", action="append", default=[], metavar="TAG",
        help="restrict 'run' to scenarios carrying TAG (repeatable)",
    )
    parser.add_argument(
        "--billing", choices=sorted(METER_FACTORIES), default=None,
        metavar="METER",
        help="re-bill 'run' scenarios that take a billing parameter under "
             "this meter (per-hour = the paper's per-started-hour rule)",
    )
    parser.add_argument(
        "--mtbf", type=float, default=None, metavar="HOURS",
        help="re-run 'run' scenarios that take an mtbf_hours parameter "
             "(the reliability family) at this per-node MTBF",
    )
    parser.add_argument(
        "--kernel", choices=("off", "numpy"), default=None,
        help="simulation core for this invocation: 'off' forces the exact "
             "engine; 'numpy' enables the hybrid fluid/vectorized core "
             "process-wide (sets REPRO_KERNEL; exact results either way)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="profile each 'run' scenario with cProfile (after a cached/"
             "warm pass) and dump per-scenario .pstats files",
    )
    parser.add_argument(
        "--profile-dir", default="profiles", metavar="DIR",
        help="target directory for --profile .pstats dumps",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
             "./.repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk result cache",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="serve scenarios whose cache key has a journaled success "
             "from the cache and mark them resumed (see docs/robustness.md)",
    )
    stop_group = parser.add_mutually_exclusive_group()
    stop_group.add_argument(
        "--fail-fast", dest="fail_fast", action="store_true",
        help="stop scheduling new scenarios after the first failure "
             "(unstarted siblings report as skipped)",
    )
    stop_group.add_argument(
        "--keep-going", dest="fail_fast", action="store_false",
        help="run every scenario to completion even when some fail "
             "(the default)",
    )
    parser.set_defaults(fail_fast=False)
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-scenario wall-clock budget; a scenario exceeding it is "
             "retried, then reported failed (requires --parallel > 1 to "
             "be enforceable)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts per scenario after a transient failure "
             "(worker death, timeout); default 2",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="cache-info: re-hash every entry's stored recipe against its "
             "filename key and report corruption (exits 1 if any)",
    )
    parser.add_argument(
        "--quarantine", action="store_true",
        help="with cache-info --verify: move corrupt entries to the "
             "quarantine directory instead of leaving them in place",
    )
    parser.add_argument(
        "--outdir", default="artifacts",
        help="target directory for the 'export' command",
    )
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="file format for the 'export' command",
    )
    parser.add_argument(
        "--kind", default=None, metavar="KIND",
        help="restrict 'list-components' to one component kind",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit 'list-components' as canonical JSON instead of a table",
    )
    parser.add_argument(
        "--service", default=None, metavar="SPEC",
        help="service spec file (.toml/.json) for the 'serve' command "
             "(default: a built-in 64-node DCS demo service)",
    )
    parser.add_argument(
        "--script", default=None, metavar="FILE",
        help="JSONL operation script for the 'serve' command "
             "(default: read operations from stdin)",
    )
    parser.add_argument(
        "--step", type=float, default=0.25, metavar="FRAC",
        help="relative perturbation size for 'sensitivity' parameter "
             "grids (each path sweeps (1-FRAC)·v / v / (1+FRAC)·v)",
    )
    parser.add_argument(
        "--path", action="append", default=[], metavar="DOTTED",
        help="dotted system-spec path to perturb for 'sensitivity' "
             "(repeatable; default: the retargetable policy knobs)",
    )
    parser.add_argument(
        "--md", default="EXPERIMENTS.md", metavar="FILE",
        help="markdown file 'ablate' writes its ranked section into "
             "(a marker-delimited block, replaced idempotently)",
    )
    parser.add_argument(
        "--no-md", action="store_true",
        help="'ablate': print the report without touching --md",
    )
    parser.add_argument(
        "--spec-dir", default=None, metavar="DIR",
        help="directory of *.toml/*.json experiment specs to register as "
             "scenarios (default: $REPRO_SPEC_DIR, else ./specs if present)",
    )
    args = parser.parse_args(argv)
    if args.paths and args.command != "run-spec":
        parser.error(f"positional spec files only apply to 'run-spec', "
                     f"not {args.command!r}")
    if args.profile and args.command != "run":
        parser.error("--profile only applies to the 'run' command")
    if args.quarantine and not args.verify:
        parser.error("--quarantine requires --verify")
    if args.verify and args.command != "cache-info":
        parser.error("--verify only applies to the 'cache-info' command")
    if (args.service or args.script) and args.command != "serve":
        parser.error("--service/--script only apply to the 'serve' command")
    if args.retries is not None and args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if args.step <= 0:
        parser.error(f"--step must be positive, got {args.step}")
    if args.timeout is not None and args.timeout <= 0:
        parser.error(f"--timeout must be positive, got {args.timeout}")

    if args.kernel is not None:
        import os

        from repro.simkit.kernel import KERNEL_ENV_VAR

        # read by this process and inherited by pool workers
        os.environ[KERNEL_ENV_VAR] = args.kernel

    if args.no_cache:
        cache = NullCache()
    elif args.cache_dir is not None:
        cache = ResultCache(args.cache_dir)
    else:
        cache = ResultCache.default()
    retry_kwargs = {}
    if args.retries is not None:
        retry_kwargs["max_attempts"] = args.retries + 1
    if args.timeout is not None:
        retry_kwargs["timeout_s"] = args.timeout
    retry = RetryPolicy(**retry_kwargs) if retry_kwargs else None
    if args.command == "serve":
        return _cmd_serve(args, retry)
    orch = Orchestrator(
        cache=cache, workers=args.parallel, seed=args.seed, retry=retry,
        resume=args.resume, fail_fast=args.fail_fast,
    )

    spec_dir = _spec_dir(args.spec_dir)
    if spec_dir is not None and args.command != "run-spec":
        from repro.api.run import load_spec_scenarios

        try:
            load_spec_scenarios(spec_dir, orch.registry)
        except ValueError as exc:
            # all-or-nothing: load_spec_scenarios registers nothing when
            # any file is broken, so this message is the whole story
            print(f"warning: spec dir {spec_dir} not loaded: {exc}",
                  file=sys.stderr)

    if args.command in ("ablate", "sensitivity"):
        return _cmd_ablation_engine(args, cache)
    if args.command == "list-components":
        from repro.api.registry import default_components

        components = default_components().components(kind=args.kind)
        if args.kind and not components:
            print(f"no components of kind {args.kind!r}", file=sys.stderr)
            return 1
        if args.json:
            print(canonical_json([c.to_json() for c in components]))
        else:
            rows = [c.to_row() for c in components]
            print(render_table(rows, title=f"{len(rows)} registered components"))
        return 0
    if args.command == "run-spec":
        if not args.paths:
            print("run-spec needs at least one spec file", file=sys.stderr)
            return 1
        from repro.api.run import scenario_from_spec
        from repro.api.spec import load_spec_file
        from repro.experiments.registry import ScenarioRegistry

        registry = ScenarioRegistry()
        try:
            for path in args.paths:
                registry.register(scenario_from_spec(load_spec_file(path)))
        except (ValueError, KeyError, FileNotFoundError, RuntimeError) as exc:
            # KeyError: unknown component; RuntimeError: no TOML parser —
            # all user-input problems, reported cleanly at parse time
            message = exc.args[0] if exc.args else exc
            print(f"error: {message}", file=sys.stderr)
            return 1
        spec_orch = Orchestrator(
            registry=registry, cache=cache, workers=args.parallel,
            seed=args.seed, retry=retry, resume=args.resume,
            fail_fast=args.fail_fast,
        )
        runs = spec_orch.run(on_error="return")
        status = _report_outcomes(runs)
        print(canonical_json(_ok_payloads(runs)))
        return status

    if args.command == "export":
        from repro.experiments.export import export_all

        try:
            paths = export_all(args.outdir, orch, fmt=args.format)
        except OrchestrationError as exc:
            return _report_outcomes(exc.runs)
        for path in paths:
            print(path)
    elif args.command == "run":
        # per-flag overrides apply only to scenarios that declare the
        # matching parameter; the rest run (and cache) exactly as before.
        # --mtbf also collapses a scenario's MTBF *grid* to that single
        # point, so the flag means the same thing across the whole
        # reliability family.
        mtbf_point = None if args.mtbf is None else [args.mtbf]
        flag_params = (
            ("billing", args.billing),
            ("mtbf_hours", args.mtbf),
            ("mtbf_grid", mtbf_point),
            ("preemption_mtbf_hours", mtbf_point),
        )
        selected = orch.registry.select(args.scenario, args.tag)
        overrides = {}
        for spec in selected:
            spec_overrides = {
                param: value
                for param, value in flag_params
                if value is not None and param in spec.defaults
            }
            if spec_overrides:
                overrides[spec.name] = spec_overrides
        if args.profile:
            return _profile_scenarios(selected, overrides, args)
        runs = orch.run(pattern=args.scenario, tags=args.tag,
                        overrides=overrides or None, on_error="return")
        if not runs:
            selection = f"pattern {args.scenario!r}"
            if args.tag:
                selection += f" with tag(s) {args.tag}"
            print(f"no scenarios match {selection}", file=sys.stderr)
            return 1
        status = _report_outcomes(runs)
        print(canonical_json(_ok_payloads(runs)))
        return status
    elif args.command == "cache-info":
        entries = cache.entries()
        print(f"cache directory: {cache.directory}")
        print(f"entries: {len(entries)}")
        for path in entries:
            print(f"  {path.relative_to(cache.directory)}")
        journal = RunJournal.for_cache(cache)
        if journal is not None and journal.path.exists():
            print(f"journal: {journal.path} ({len(journal)} records)")
        quarantined = cache.quarantined_entries()
        if quarantined:
            print(f"quarantined entries: {len(quarantined)}")
        if args.verify:
            report = cache.verify(quarantine=args.quarantine)
            print(f"verified: {report['ok']}/{report['checked']} entries ok")
            for item in report["corrupt"]:
                print(f"  CORRUPT {item['path']}: {item['reason']}")
            if report["quarantined"]:
                print(f"quarantined {report['quarantined']} corrupt "
                      f"entries under {cache.directory}/.quarantine")
            if report["corrupt"]:
                return 1
    elif args.command == "cache-clear":
        print(f"removed {cache.clear()} cache entries from {cache.directory}")
    elif args.command == "all":
        # warm every needed scenario in one parallel wave; the per-command
        # renders below hit the orchestrator's in-memory memo (and the
        # disk cache, when enabled).
        try:
            orch.run(names=[
                s for cmd in _ALL_ORDER for s in _COMMAND_SCENARIOS.get(cmd, ())
            ])
        except OrchestrationError as exc:
            return _report_outcomes(exc.runs)
        for name in _ALL_ORDER:
            print(_COMMANDS[name](orch))
    else:
        try:
            print(_COMMANDS[args.command](orch))
        except OrchestrationError as exc:
            return _report_outcomes(exc.runs)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
