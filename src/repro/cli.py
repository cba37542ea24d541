"""Command-line interface: ``repro-sched`` (or ``python -m repro``).

Subcommands
-----------
* ``demo`` — schedule a small example instance and print the timeline;
* ``srj`` — generate a workload family, run Listing 1, report ratio vs LB;
* ``binpack`` — pack random splittable items, compare algorithms;
* ``tasks`` — run the SRT scheduler on a generated task set;
* ``experiment`` — run one of E1..E11 / F1..F3 (or ``all``), print tables;
* ``generate`` — write a workload instance as JSON;
* ``solve`` — read an instance JSON, schedule it (several algorithms),
  optionally print an ASCII Gantt chart and save the schedule JSON;
* ``validate`` — audit a schedule JSON against an instance JSON;
* ``stats`` — run a scheduler with telemetry enabled and print the metrics
  registry (per-case step counts, waste, saturation fractions, phase
  timings), cross-checked against the result's own counters;
* ``faults`` — run an instance under a fault plan (loaded or randomly
  generated from a seed), validate the recovered schedule and print the
  degradation report (see docs/ROBUSTNESS.md);
* ``sweep`` — run/resume/status/trace a registered sweep on the
  experiment fabric; ``status --follow`` tails the live heartbeat
  telemetry of a running sweep, ``run --trace-spans`` records a
  hierarchical span trace and ``trace`` merges the span shards into the
  canonical ``TRACE.jsonl`` (see docs/OBSERVABILITY.md);
* ``perf`` — the durable perf time-series: ``ingest`` appends a BENCH
  report to the history store, ``history`` summarizes it, ``compare``
  diffs a fresh report against the rolling baseline and exits 1 on a
  gated regression;
* ``lint`` — run the AST-based invariant checkers (exact-backend purity,
  derived identities, worker-safety, observer threading; see
  docs/STATIC_ANALYSIS.md) over ``src/repro`` + ``tests`` or explicit
  paths; exits 1 when findings remain, 2 for unknown rules/paths;
* ``serve`` — run the scheduler-as-a-service daemon: bounded admission
  queue with load-shedding, per-request deadlines, worker-crash
  recovery, graceful SIGTERM drain (see docs/SERVICE.md);
* ``call`` — send one request to a running daemon and print the result
  JSON (exit 0) or the structured error (exit 1; exit 2 when the daemon
  cannot be located or the request is malformed).

Every subcommand follows one error contract: malformed input (missing
files, invalid JSON, bad parameter combinations) exits with status 2 and
a single ``repro-sched: error: ...`` line on stderr — never a traceback
(:func:`cli_error`).  Exit 1 is reserved for well-formed runs whose
outcome is negative (gate failures, invalid schedules, service errors).

``solve``, ``srj``, ``tasks`` and ``stats`` accept ``--trace-out FILE`` to
emit a structured JSONL trace (one record per RLE trace run); the
``$REPRO_TRACE`` environment variable does the same for any entry point.
``srj``, ``tasks`` and ``solve`` accept ``--fault-plan FILE`` to run under
fault injection; errors (missing/malformed files, bad plans) exit with
status 2 and a one-line message, never a traceback.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .analysis import ALL_EXPERIMENTS
from .engine import BACKENDS
from .binpacking import (
    make_items,
    pack_next_fit,
    pack_sliding_window,
    packing_lower_bound,
)
from .core.bounds import makespan_lower_bound
from .core.instance import Instance
from .core.scheduler import schedule_srj
from .tasks import schedule_tasks, srt_lower_bound
from .workloads import make_instance, make_taskset, uniform_fractions


def cli_error(message: str) -> int:
    """The one CLI error contract: one line on stderr, exit status 2.

    Subcommands either raise ``ValueError``/``OSError`` (caught in
    :func:`main`, which delegates here) or call this directly when they
    need to report-and-return without an exception.  Either way the user
    sees ``repro-sched: error: <message>`` and never a traceback.
    """
    print(f"repro-sched: error: {message}", file=sys.stderr)
    return 2


def _open_trace(args: argparse.Namespace):
    """Build the ``--trace-out`` JSONL observer, or ``None``."""
    if getattr(args, "trace_out", None) is None:
        return None
    from .obs import JsonlTraceObserver

    return JsonlTraceObserver(args.trace_out)


def _close_trace(tracer) -> None:
    if tracer is not None:
        tracer.close()
        print(f"wrote JSONL trace to {tracer.path}")


def _load_fault_plan(args: argparse.Namespace):
    """Load the ``--fault-plan`` file, or ``None`` when the flag is unset."""
    path = getattr(args, "fault_plan", None)
    if path is None:
        return None
    from .faults import FaultPlan

    return FaultPlan.load(path)


def _print_faulted_summary(result) -> int:
    """Shared tail for fault-injected runs: validate + degradation line."""
    from .faults import validate_faulted

    report = validate_faulted(result)
    print(
        f"faulted makespan={result.makespan}  "
        f"fault-free={result.fault_free_makespan}  "
        f"events applied={result.n_applied()}/{len(result.plan)}  "
        f"aborted={len(result.aborted)}"
    )
    if result.degradation is not None:
        print(
            f"degradation ratio: {result.degradation} "
            f"({float(result.degradation):.4f})"
        )
    if report.ok:
        print("recovered schedule: valid")
        return 0
    print(f"recovered schedule INVALID: {len(report.violations)} violation(s)")
    for v in report.violations[:20]:
        print(f"  {v}")
    return 1


def _cmd_demo(args: argparse.Namespace) -> int:
    inst = Instance.from_requirements(
        m=4,
        requirements=[
            Fraction(1, 5), Fraction(2, 5), Fraction(1, 2),
            Fraction(7, 10), Fraction(6, 5),
        ],
        sizes=[3, 2, 1, 2, 4],
    )
    result = schedule_srj(inst, backend=args.backend)
    print(f"instance: m={inst.m}, n={inst.n}")
    print(f"lower bound (Eq. 1): {makespan_lower_bound(inst)}")
    print(f"makespan:            {result.makespan}")
    print("timeline (job: share per step):")
    for t, step in enumerate(result.iter_steps(), start=1):
        cells = ", ".join(
            f"j{j}@p{p}:{share}" for j, (p, share) in sorted(step.items())
        )
        print(f"  t={t:>2}  {cells}")
    return 0


def _cmd_srj(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    inst = make_instance(args.family, rng, args.m, args.n)
    plan = _load_fault_plan(args)
    if plan is not None:
        from .faults import run_with_faults

        tracer = _open_trace(args)
        result = run_with_faults(
            inst, plan, backend=args.backend, observer=tracer
        )
        _close_trace(tracer)
        print(f"family={args.family} m={args.m} n={args.n} seed={args.seed}")
        return _print_faulted_summary(result)
    tracer = _open_trace(args)
    result = schedule_srj(inst, backend=args.backend, observer=tracer)
    _close_trace(tracer)
    lb = makespan_lower_bound(inst)
    print(f"family={args.family} m={args.m} n={args.n} seed={args.seed}")
    print(f"makespan={result.makespan}  LB={lb}  ratio={result.makespan/lb:.4f}")
    print(f"guarantee: 2+1/(m-2) = {2 + 1/(args.m-2):.4f}"
          if args.m >= 3 else "guarantee: n/a for m < 3")
    print(f"steps with >=m-2 fully-served jobs: {result.steps_full_jobs}")
    print(f"steps with full resource usage:    {result.steps_full_resource}")
    return 0


def _cmd_binpack(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    items = make_items(uniform_fractions(rng, args.n, hi=Fraction(6, 5)))
    lb = packing_lower_bound(items, args.k)
    sw = pack_sliding_window(items, args.k, backend=args.backend)
    nf = pack_next_fit(items, args.k)
    print(f"n={args.n} k={args.k} LB={lb}")
    print(f"sliding window: {sw.num_bins} bins ({sw.num_bins/lb:.4f}x LB)")
    print(f"next fit:       {nf.num_bins} bins ({nf.num_bins/lb:.4f}x LB)")
    return 0


def _cmd_tasks(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    ti = make_taskset(args.family, rng, args.m, args.k)
    plan = _load_fault_plan(args)
    if plan is not None:
        from .faults import run_tasks_with_faults

        tracer = _open_trace(args)
        res = run_tasks_with_faults(
            ti, plan, backend=args.backend, observer=tracer
        )
        _close_trace(tracer)
        s = res.sum_completion_times()
        print(f"family={args.family} m={args.m} tasks={args.k}")
        print(
            f"faulted sum completion times={s}  "
            f"fault-free={res.fault_free_sum}  "
            f"events applied={sum(ok for _, ok in res.applied)}"
            f"/{len(res.plan)}  aborted tasks={len(res.aborted)}"
        )
        if res.degradation is not None:
            print(
                f"degradation ratio: {res.degradation} "
                f"({float(res.degradation):.4f})"
            )
        return 0
    tracer = _open_trace(args)
    res = schedule_tasks(ti, backend=args.backend, observer=tracer)
    _close_trace(tracer)
    lb = srt_lower_bound(ti)
    s = res.sum_completion_times()
    print(f"family={args.family} m={args.m} tasks={args.k} jobs={ti.n_jobs}")
    print(f"sum completion times={s}  LB={lb}  ratio={s/lb:.4f}")
    if args.m >= 4:
        print(f"guarantee factor: 2+4/(m-3) = {2 + 4/(args.m-3):.4f} (+o(1))")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = (
        sorted(ALL_EXPERIMENTS) if args.id == "all" else [args.id.lower()]
    )
    for name in names:
        if name not in ALL_EXPERIMENTS:
            return cli_error(
                f"unknown experiment {name!r}; "
                f"have {sorted(ALL_EXPERIMENTS)}"
            )
        table = ALL_EXPERIMENTS[name](scale=args.scale, seed=args.seed)
        print(table.render())
        print()
        if args.csv:
            from pathlib import Path

            from .analysis import write_table_csv

            out_dir = Path(args.csv)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = write_table_csv(table, out_dir / f"{name}.csv")
            print(f"(csv written to {path})")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .io import instance_to_json

    rng = random.Random(args.seed)
    inst = make_instance(args.family, rng, args.m, args.n)
    text = instance_to_json(inst)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output} (m={inst.m}, n={inst.n})")
    else:
        print(text)
    return 0


_SOLVERS = {
    "window": lambda inst: schedule_srj(inst),
    "unit": None,  # handled specially (requires unit sizes)
    "list": None,
    "greedy": None,
}


def _cmd_solve(args: argparse.Namespace) -> int:
    from .analysis import render_gantt
    from .io import instance_from_json, schedule_to_json

    with open(args.input) as fh:
        inst = instance_from_json(fh.read())
    plan = _load_fault_plan(args)
    if plan is not None:
        if args.algorithm != "window":
            raise ValueError(
                "--fault-plan is only supported with --algorithm window"
            )
        from .faults import run_with_faults

        tracer = _open_trace(args)
        result = run_with_faults(
            inst, plan, backend=args.backend, observer=tracer
        )
        _close_trace(tracer)
        print(f"algorithm=window (fault plan: {args.fault_plan})")
        return _print_faulted_summary(result)
    tracer = _open_trace(args)
    # window/unit return trace-bearing results that render without
    # materializing a Schedule; the simulator baselines return Schedules.
    renderable = None
    if args.algorithm == "window":
        renderable = schedule_srj(inst, backend=args.backend, observer=tracer)
    elif args.algorithm == "unit":
        from .core.unit import schedule_unit

        renderable = schedule_unit(inst, backend=args.backend, observer=tracer)
    elif args.algorithm == "list":
        from .baselines import schedule_list_scheduling

        renderable = schedule_list_scheduling(inst, observer=tracer).schedule
    elif args.algorithm == "greedy":
        from .baselines import schedule_greedy_fill

        renderable = schedule_greedy_fill(inst, observer=tracer).schedule
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(args.algorithm)
    _close_trace(tracer)
    lb = makespan_lower_bound(inst)
    print(
        f"algorithm={args.algorithm} makespan={renderable.makespan} LB={lb} "
        f"ratio={renderable.makespan/lb:.4f}"
    )
    if args.gantt:
        print(render_gantt(renderable))
    if args.output:
        schedule = (
            renderable.schedule(max_steps=args.max_steps)
            if hasattr(renderable, "iter_steps")
            else renderable
        )
        with open(args.output, "w") as fh:
            fh.write(schedule_to_json(schedule) + "\n")
        print(f"wrote schedule to {args.output}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .core.validate import validate_schedule
    from .io import instance_from_json, schedule_from_json

    with open(args.instance) as fh:
        inst = instance_from_json(fh.read())
    with open(args.schedule) as fh:
        schedule = schedule_from_json(fh.read(), inst)
    report = validate_schedule(schedule)
    if report.ok:
        print(f"OK: feasible schedule with makespan {report.makespan}")
        return 0
    print(f"INVALID: {len(report.violations)} violation(s)")
    for v in report.violations[:50]:
        print(f"  {v}")
    return 1


def _cmd_stats(args: argparse.Namespace) -> int:
    import json as _json

    from .core.validate import validate_result
    from .obs import StatsObserver

    if args.input:
        from .io import instance_from_json

        with open(args.input) as fh:
            inst = instance_from_json(fh.read())
        source = f"input={args.input}"
    else:
        rng = random.Random(args.seed)
        inst = make_instance(args.family, rng, args.m, args.n)
        source = (
            f"family={args.family} m={args.m} n={args.n} seed={args.seed}"
        )
    tracer = _open_trace(args)
    if args.algorithm == "window":
        result = schedule_srj(
            inst, backend=args.backend, observer=tracer, collect_stats=True
        )
    else:
        from .core.unit import schedule_unit

        result = schedule_unit(
            inst, backend=args.backend, observer=tracer, collect_stats=True
        )
    metrics = result.stats
    # the validate phase feeds its span into the same registry
    report = validate_result(result, observer=StatsObserver(metrics))
    _close_trace(tracer)

    # cross-check the observer's accounting against the result's own
    mismatches = []
    for name, got, want in (
        ("steps_total", metrics.counter("steps_total"), result.makespan),
        (
            "steps_full_jobs",
            metrics.counter("steps_full_jobs"),
            result.steps_full_jobs,
        ),
        (
            "steps_full_resource",
            metrics.counter("steps_full_resource"),
            result.steps_full_resource,
        ),
        (
            "total_waste",
            Fraction(metrics.counter("total_waste")),
            result.total_waste,
        ),
    ):
        if got != want:
            mismatches.append(f"{name}: observer={got} result={want}")

    if args.json:
        payload = {
            "source": source,
            "algorithm": args.algorithm,
            "backend": args.backend,
            "makespan": result.makespan,
            "valid": report.ok,
            "agreement": not mismatches,
            "mismatches": mismatches,
            "metrics": metrics.to_jsonable(),
        }
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{source} algorithm={args.algorithm} backend={args.backend}")
        print(f"makespan={result.makespan}  schedule valid: "
              f"{'yes' if report.ok else 'NO'}")
        steps = metrics.counter("steps_total")
        print("per-case step counts:")
        for key in sorted(metrics.counters):
            if key.startswith("steps_case."):
                count = metrics.counters[key]
                frac = count / steps if steps else 0.0
                print(f"  {key[len('steps_case.'):]:<12} {count:>8}"
                      f"  ({frac:.1%})")
        for label, key in (
            (">=m-2 fully-served jobs", "steps_full_jobs"),
            ("full resource usage", "steps_full_resource"),
        ):
            count = metrics.counter(key)
            frac = count / steps if steps else 0.0
            print(f"steps with {label}: {count} ({frac:.1%})")
        print(f"total waste: {metrics.counter('total_waste')}")
        print("phase timings (seconds):")
        for key in sorted(metrics.counters):
            if key.startswith("span_seconds."):
                print(f"  {key[len('span_seconds.'):]:<10} "
                      f"{metrics.counters[key]:.6f}")
        if mismatches:
            print("MISMATCH between observer and result:")
            for line in mismatches:
                print(f"  {line}")
        else:
            print("agreement with scheduler result: OK")
    if mismatches or not report.ok:
        return 1
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    import json as _json

    from .faults import (
        FaultPlan,
        degradation_report,
        run_with_faults,
        validate_faulted,
    )

    if args.input:
        from .io import instance_from_json

        with open(args.input) as fh:
            inst = instance_from_json(fh.read())
        source = f"input={args.input}"
    else:
        rng = random.Random(args.seed)
        inst = make_instance(args.family, rng, args.m, args.n)
        source = (
            f"family={args.family} m={args.m} n={args.n} seed={args.seed}"
        )
    if args.plan:
        plan = FaultPlan.load(args.plan)
        plan_source = f"plan={args.plan}"
    else:
        plan = FaultPlan.random(
            args.fault_seed,
            m=inst.m,
            n_jobs=inst.n,
            horizon=args.horizon,
            events=args.events,
        )
        plan_source = (
            f"random plan: fault-seed={args.fault_seed} "
            f"events={args.events} horizon={args.horizon}"
        )
    if args.save_plan:
        plan.save(args.save_plan)
        print(f"wrote fault plan to {args.save_plan}")
    tracer = _open_trace(args)
    result = run_with_faults(
        inst,
        plan,
        backend=args.backend,
        observer=tracer,
        collect_stats=True,
        checkpoint_every=args.checkpoint_every,
    )
    _close_trace(tracer)
    report = validate_faulted(result)
    summary = degradation_report(result)
    if args.json:
        payload = dict(summary)
        payload["source"] = source
        payload["plan"] = plan.to_jsonable()
        payload["valid"] = report.ok
        payload["violations"] = list(report.violations)
        print(_json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{source}  backend={args.backend}")
        print(plan_source)
        print("event counts:", dict(plan.counts()))
        for key in (
            "makespan",
            "fault_free_makespan",
            "degradation_exact",
            "degradation",
            "events_planned",
            "events_applied",
            "jobs_completed",
            "jobs_aborted",
            "segments",
            "checkpoints",
        ):
            if key in summary:
                print(f"  {key:<20} {summary[key]}")
        if result.stats is not None:
            faults_total = result.stats.counter("faults_total")
            print(f"  {'faults observed':<20} {faults_total}")
        print(
            "recovered schedule:"
            f" {'valid' if report.ok else 'INVALID'}"
        )
        for v in report.violations[:20]:
            print(f"  {v}")
    return 0 if report.ok else 1


def _parse_shard(text: Optional[str]) -> Optional[Tuple[int, int]]:
    """Parse an ``i/k`` shard flag (e.g. ``0/4``) into a tuple."""
    if text is None:
        return None
    try:
        i_text, k_text = text.split("/", 1)
        i, k = int(i_text), int(k_text)
    except ValueError:
        raise ValueError(f"invalid shard {text!r}: expected i/k") from None
    if k < 1 or not (0 <= i < k):
        raise ValueError(f"invalid shard {text!r}: need 0 <= i < k")
    return (i, k)


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json as _json

    from .sweep import DEFAULT_CACHE_DIR, sweep_status
    from .sweep.registry import get_sweep, run_entry
    from .sweep.runner import SPAN_DIR_NAME
    from .sweep.store import ResultStore

    entry = get_sweep(args.name)
    if args.cache_dir is None:
        args.cache_dir = DEFAULT_CACHE_DIR
    spec = entry.build_spec(args.scale, args.seed)
    checkpoint_dir = ResultStore(args.cache_dir, spec.name).dir

    if args.action == "status":
        from .obs.report import follow, live_status

        if args.follow:
            # raises ValueError (exit 2) for a missing checkpoint dir
            return follow(checkpoint_dir, interval=args.interval)
        status = sweep_status(spec, args.cache_dir)
        try:
            live = live_status(checkpoint_dir)
        except ValueError:
            live = None
        if args.json:
            status["live"] = live
            print(_json.dumps(status, indent=2, sort_keys=True))
        else:
            print(
                f"{status['sweep']} ({status['version'] or 'unversioned'}, "
                f"spec {status['spec_key']}): "
                f"{status['cached']}/{status['total']} points cached "
                f"({'complete' if status['complete'] else 'incomplete'}), "
                f"{status['store_entries']} store entries in {args.cache_dir}"
            )
            if live is not None:
                from .obs.report import format_live_status

                print(format_live_status(live))
        return 0

    if args.action == "trace":
        from .obs.spans import merge_spans, write_merged_trace

        span_dir = checkpoint_dir / SPAN_DIR_NAME
        # raises ValueError (exit 2) when there are no span shards
        records = merge_spans(span_dir)
        path = write_merged_trace(
            span_dir, out=args.out, timings=args.timings
        )
        print(f"merged {len(records)} spans -> {path}")
        return 0

    # "run" and "resume" are the same operation — the content-addressed
    # store makes every run incremental; "resume" just states the intent
    shard = _parse_shard(args.shard)
    out = args.out if args.out is not None else (
        None if shard is not None else entry.default_out
    )
    report = run_entry(
        entry, args.scale, args.seed, out=out, cache_dir=args.cache_dir,
        workers=args.workers, shard=shard, spans=args.trace_spans,
        timeout=args.timeout, retries=args.retries, backoff=args.backoff,
    )
    cache = report.get("cache", {})
    rows = report.get("rows", [])
    print(
        f"{entry.name}: {len(rows)} rows "
        f"({cache.get('hits', 0)} cached, {cache.get('solved', 0)} solved)"
        + (f"; wrote {out}" if out else "")
    )
    if args.trace_spans:
        print(
            f"span shards under {checkpoint_dir / SPAN_DIR_NAME} "
            f"(merge with: repro-sched sweep trace {entry.name})"
        )
    summary = report.get("summary")
    if summary is not None and not args.json:
        for key, value in summary.items():
            print(f"  {key:<28} {value}")
    if args.json:
        print(_json.dumps(report, indent=2))
    # gated sweeps (bench-obs, faultsweep) carry a pass flag; surface it
    # as the exit status
    if summary is not None and summary.get("passed") is False:
        return 1
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    import json as _json

    from .obs.timeseries import DEFAULT_HISTORY_DIR, PerfHistory

    history = PerfHistory(
        args.history_dir if args.history_dir is not None
        else DEFAULT_HISTORY_DIR
    )

    def load_report(path):
        if path is None:
            raise ValueError(
                f"perf {args.action} requires a BENCH report file"
            )
        with open(path, encoding="utf-8") as fh:
            try:
                report = _json.load(fh)
            except _json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(report, dict):
            raise ValueError(
                f"{path}: expected a BENCH report object, got "
                f"{type(report).__name__}"
            )
        return report

    if args.action == "ingest":
        report = load_report(args.file)
        n = history.ingest(report, bench=args.bench)
        print(f"ingested {n} row(s) into {history.root}")
        return 0

    if args.action == "history":
        summaries = history.summary(bench=args.bench)
        if args.json:
            print(_json.dumps(summaries, indent=2, sort_keys=True))
            return 0
        if not summaries:
            print(f"no perf history under {history.root}")
            return 0
        for s in summaries:
            ident = ",".join(
                f"{k}={v}" for k, v in sorted(s["identity"].items())
            )
            latest = ",".join(
                f"{k}={v}" for k, v in sorted(s["latest"].items())
                if isinstance(v, (int, float))
            )
            print(
                f"{s['bench']} [{s['key'][:12]}] {ident or '-'} "
                f"({s['code_version']}, {s['observations']} obs): {latest}"
            )
        return 0

    # compare
    report = load_report(args.file)
    verdict = history.compare(
        report, bench=args.bench, gate=args.gate, window=args.window
    )
    if args.json:
        print(_json.dumps(verdict, indent=2, sort_keys=True))
    else:
        print(
            f"{verdict['bench']} ({verdict['code_version']}): "
            f"{len(verdict['rows'])} point(s) vs rolling baseline "
            f"(window {verdict['window']}, gate {verdict['gate']:.0%})"
        )
        if verdict["new_points"]:
            print(f"  {verdict['new_points']} point(s) with no history yet")
        for reg in verdict["regressions"]:
            ident = ",".join(
                f"{k}={v}" for k, v in sorted(reg["identity"].items())
            )
            print(
                f"  REGRESSED {reg['metric']} at {ident or '-'}: "
                f"{reg['value']:.6f}s vs baseline {reg['baseline']:.6f}s "
                f"({reg['delta']:+.1%})"
            )
        print("PASS" if verdict["ok"] else "REGRESSED")
    if verdict["ok"] and args.ingest:
        n = history.ingest(report, bench=args.bench)
        print(f"ingested {n} row(s) into {history.root}")
    return 0 if verdict["ok"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_deadline_s=args.default_deadline,
        timeout=args.timeout,
        retries=args.retries,
        backoff=args.backoff,
        allow_test_faults=args.allow_test_faults,
        heartbeat_interval_s=args.heartbeat_interval,
    )
    # bad parameter combos raise ValueError -> exit 2 via main()
    config.validate()
    return serve(config)


def _cmd_call(args: argparse.Namespace) -> int:
    import json as _json

    from .service import (
        RetryableServiceError,
        ServiceClient,
        ServiceError,
        locate_service,
    )

    if args.params is not None:
        try:
            params = _json.loads(args.params)
        except _json.JSONDecodeError as exc:
            raise ValueError(f"--params is not valid JSON: {exc}") from None
        if not isinstance(params, dict):
            raise ValueError(
                f"--params must be a JSON object, got "
                f"{type(params).__name__}"
            )
    else:
        params = {}

    if args.host is not None:
        if args.port is None:
            raise ValueError("--host requires --port")
        host, port = args.host, args.port
    else:
        # missing/corrupt/stopped state file raises ValueError -> exit 2
        state = locate_service(args.state_dir)
        host, port = state["host"], state["port"]

    # connection failures are OSError -> exit 2 via main()
    with ServiceClient(host, port, timeout=args.timeout) as client:
        try:
            result = client.call_checked(
                args.method, params, deadline_s=args.deadline,
                max_retries=args.retries,
            )
        except RetryableServiceError as exc:
            print(
                _json.dumps(
                    {"error": {"code": exc.code, "message": exc.message,
                               "retry_after_s": exc.retry_after_s}},
                    indent=2, sort_keys=True,
                )
            )
            return 1
        except ServiceError as exc:
            print(
                _json.dumps(
                    {"error": {"code": exc.code, "message": exc.message}},
                    indent=2, sort_keys=True,
                )
            )
            return 1
    print(_json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json as _json

    from .lint import run_lint

    # unknown rules and missing paths raise ValueError -> exit 2 with the
    # standard one-line error (never a traceback)
    report = run_lint(paths=args.paths or None, rules=args.rule or None)
    if args.json:
        print(_json.dumps(report.to_jsonable(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .analysis.selftest import format_selftest, run_selftest

    result = run_selftest(trials=args.trials, seed=args.seed)
    print(format_selftest(result))
    return 0 if result.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import generate_report

    generate_report(
        output=args.output,
        scale=args.scale,
        seed=args.seed,
        experiments=args.only,
    )
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description="Multiprocessor scheduling with a sharable resource "
        "(SPAA 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_flag(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--backend",
            choices=BACKENDS,
            default="auto",
            help="numeric backend: exact rationals ('fraction') or the "
            "bit-identical scaled-integer fast path ('int'; 'auto' "
            "selects it)",
        )

    def add_trace_flag(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--trace-out",
            default=None,
            metavar="FILE",
            help="write a structured JSONL trace of the run (one record "
            "per RLE trace run; see also the $REPRO_TRACE env var)",
        )

    def add_fault_flag(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--fault-plan",
            default=None,
            metavar="FILE",
            help="run under the fault plan in FILE (JSON; see "
            "'repro-sched faults --save-plan' and docs/ROBUSTNESS.md)",
        )

    p = sub.add_parser("demo", help="schedule a toy instance, print timeline")
    add_backend_flag(p)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("srj", help="run Listing 1 on a generated workload")
    p.add_argument("--family", default="uniform")
    p.add_argument("-m", type=int, default=8)
    p.add_argument("-n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_backend_flag(p)
    add_trace_flag(p)
    add_fault_flag(p)
    p.set_defaults(func=_cmd_srj)

    p = sub.add_parser("binpack", help="bin packing with splittable items")
    p.add_argument("-k", type=int, default=4)
    p.add_argument("-n", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    add_backend_flag(p)
    p.set_defaults(func=_cmd_binpack)

    p = sub.add_parser("tasks", help="run the SRT (Section 4) scheduler")
    p.add_argument("--family", default="mixed")
    p.add_argument("-m", type=int, default=8)
    p.add_argument("-k", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    add_backend_flag(p)
    add_trace_flag(p)
    add_fault_flag(p)
    p.set_defaults(func=_cmd_tasks)

    p = sub.add_parser(
        "experiment", help="run an experiment (e1..e11, f1..f3 | all)"
    )
    p.add_argument("id")
    p.add_argument("--scale", choices=("small", "full"), default="small")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, metavar="DIR",
                   help="also write each table as CSV into DIR")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("generate", help="write a workload instance as JSON")
    p.add_argument("--family", default="uniform")
    p.add_argument("-m", type=int, default=8)
    p.add_argument("-n", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("solve", help="schedule an instance JSON file")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--algorithm",
        choices=("window", "unit", "list", "greedy"),
        default="window",
    )
    p.add_argument("--gantt", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--max-steps", type=int, default=1_000_000)
    add_backend_flag(p)
    add_trace_flag(p)
    add_fault_flag(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "validate", help="audit a schedule JSON against an instance JSON"
    )
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "stats",
        help="run a scheduler with telemetry and print the metrics "
        "(cross-checked against the result)",
    )
    p.add_argument(
        "--input", default=None, metavar="FILE",
        help="instance JSON to schedule (default: generate a workload)",
    )
    p.add_argument("--family", default="uniform")
    p.add_argument("-m", type=int, default=8)
    p.add_argument("-n", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--algorithm", choices=("window", "unit"), default="window"
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the full registry as JSON instead of the table",
    )
    add_backend_flag(p)
    add_trace_flag(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "faults",
        help="run an instance under a fault plan, print the degradation "
        "report and validate the recovered schedule",
    )
    p.add_argument(
        "--input", default=None, metavar="FILE",
        help="instance JSON to schedule (default: generate a workload)",
    )
    p.add_argument("--family", default="uniform")
    p.add_argument("-m", type=int, default=8)
    p.add_argument("-n", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--plan", default=None, metavar="FILE",
        help="fault plan JSON (default: generate one from --fault-seed)",
    )
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--events", type=int, default=6)
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="STEPS",
        help="also checkpoint every STEPS steps (segment boundaries "
        "always checkpoint)",
    )
    p.add_argument(
        "--save-plan", default=None, metavar="FILE",
        help="write the (possibly generated) fault plan to FILE",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the degradation report as JSON",
    )
    add_backend_flag(p)
    add_trace_flag(p)
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "sweep",
        help="run/resume/status a registered sweep on the experiment "
        "fabric (content-addressed cache, sharding; docs/SCALING.md)",
    )
    p.add_argument(
        "action", choices=("run", "resume", "status", "trace"),
        help="'run' and 'resume' are the same incremental operation; "
        "'status' reports cache coverage (plus live heartbeat telemetry) "
        "without solving anything; 'trace' merges recorded span shards "
        "into the canonical TRACE.jsonl",
    )
    p.add_argument(
        "name",
        help="registered sweep: bench, bench-srt, bench-obs, faultsweep",
    )
    p.add_argument("--scale", choices=("small", "full"), default="small")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result store "
        "(default: .repro-cache/sweeps)",
    )
    p.add_argument(
        "--shard", default=None, metavar="I/K",
        help="run only points with index %% K == I into the shared cache",
    )
    p.add_argument("--workers", type=int, default=None)
    p.add_argument(
        "-o", "--out", default=None, metavar="FILE",
        help="report artifact (default: the sweep's canonical file, "
        "e.g. BENCH_1.json; suppressed for sharded runs)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the full report/status as JSON",
    )
    p.add_argument(
        "--follow", action="store_true",
        help="with 'status': poll the heartbeat telemetry until the "
        "sweep completes (Ctrl-C to stop)",
    )
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="polling interval for --follow (default: 2s)",
    )
    p.add_argument(
        "--trace-spans", action="store_true",
        help="with 'run'/'resume': record hierarchical trace spans into "
        "the checkpoint directory (merge with the 'trace' action)",
    )
    p.add_argument(
        "--timings", action="store_true",
        help="with 'trace': keep wall-clock fields in the merged trace "
        "(default drops them so the output is byte-reproducible)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock bound enforced by the hardened "
        "runner (default: unbounded)",
    )
    p.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="re-runs for points lost to a crashed worker or a timeout "
        "(default: 2)",
    )
    p.add_argument(
        "--backoff", type=float, default=0.05, metavar="SECONDS",
        help="base delay between retry rounds, doubled each round "
        "(default: 0.05)",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "perf",
        help="durable perf time-series over BENCH reports: ingest into "
        "the history store, summarize it, or compare a fresh report "
        "against the rolling baseline (exit 1 on a gated regression)",
    )
    p.add_argument(
        "action", choices=("ingest", "history", "compare"),
        help="'ingest FILE' appends a report's rows; 'history' lists "
        "stored series; 'compare FILE' gates a report against the "
        "rolling baseline",
    )
    p.add_argument(
        "file", nargs="?", default=None,
        help="BENCH report JSON (required for ingest/compare)",
    )
    p.add_argument(
        "--bench", default=None, metavar="NAME",
        help="bench name override (default: the report's own 'bench' "
        "field; for 'history', filter to one bench)",
    )
    p.add_argument(
        "--gate", type=float, default=0.10, metavar="FRACTION",
        help="relative regression gate for 'compare' (default: 0.10 "
        "= 10%% above baseline)",
    )
    p.add_argument(
        "--window", type=int, default=5, metavar="N",
        help="rolling-baseline window: median of the last N "
        "observations (default: 5)",
    )
    p.add_argument(
        "--history-dir", default=None, metavar="DIR",
        help="history store root (default: .repro-cache/perf-history)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the summary/verdict as JSON",
    )
    p.add_argument(
        "--ingest", action="store_true",
        help="with 'compare': ingest the report after a passing "
        "comparison (so green runs extend the baseline)",
    )
    p.set_defaults(func=_cmd_perf)

    p = sub.add_parser(
        "serve",
        help="run the scheduler-as-a-service daemon: bounded admission, "
        "per-request deadlines, worker-crash recovery, graceful SIGTERM "
        "drain (docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default: 0 = pick a free port; the bound port "
        "is published in the state file)",
    )
    p.add_argument(
        "--state-dir", default=".repro-service", metavar="DIR",
        help="where SERVICE.json (host/port/status), the heartbeat, the "
        "request log and drain checkpoints live",
    )
    p.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent request slots; each request runs in its own "
        "worker process (default: 2)",
    )
    p.add_argument(
        "--queue-limit", type=int, default=16, metavar="N",
        help="admission-queue bound; requests beyond it are shed with "
        "an 'overloaded' error (default: 16)",
    )
    p.add_argument(
        "--default-deadline", type=float, default=30.0, metavar="SECONDS",
        help="deadline for requests that do not send deadline_s "
        "(default: 30)",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="hard per-attempt cap for worker execution, in addition to "
        "the per-request deadline (default: the deadline alone)",
    )
    p.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="re-runs for a request lost to a crashed worker "
        "(default: 1)",
    )
    p.add_argument(
        "--backoff", type=float, default=0.05, metavar="SECONDS",
        help="base delay between worker retry rounds (default: 0.05)",
    )
    p.add_argument(
        "--heartbeat-interval", type=float, default=2.0, metavar="SECONDS",
        help="heartbeat telemetry period (default: 2s)",
    )
    p.add_argument(
        "--allow-test-faults", action="store_true",
        help="accept the _fault request parameter (crash/hang/error "
        "injection; the serve-smoke battery only)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "call",
        help="send one request to a running repro-sched daemon and "
        "print the result (or the structured error)",
    )
    p.add_argument(
        "method",
        help="request method: solve, simulate, stats, ping, status, "
        "sweep_status",
    )
    p.add_argument(
        "--params", default=None, metavar="JSON",
        help="request parameters as a JSON object (default: {})",
    )
    p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline (default: the server's default)",
    )
    p.add_argument(
        "--state-dir", default=".repro-service", metavar="DIR",
        help="locate the daemon via DIR/SERVICE.json "
        "(default: .repro-service)",
    )
    p.add_argument(
        "--host", default=None,
        help="connect directly instead of via --state-dir "
        "(requires --port)",
    )
    p.add_argument("--port", type=int, default=None)
    p.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="client socket timeout (default: 60)",
    )
    p.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="client-side retries for retryable errors (overloaded, "
        "shutting_down, worker_crashed), honoring retry_after_s "
        "(default: 0)",
    )
    p.set_defaults(func=_cmd_call)

    p = sub.add_parser(
        "lint",
        help="run the AST invariant checkers (exactness, determinism, "
        "worker-safety, telemetry discipline; docs/STATIC_ANALYSIS.md)",
    )
    p.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to lint (default: src/repro + tests, "
        "skipping __pycache__ and .repro-cache)",
    )
    p.add_argument(
        "--rule", action="append", default=None, metavar="NAME",
        help="run only this rule (repeatable; default: all registered "
        "rules; unknown names exit 2)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the findings report as JSON (CI uploads this as an "
        "artifact)",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "selftest", help="quick internal consistency battery"
    )
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md (runs all experiments)"
    )
    p.add_argument("-o", "--output", default="EXPERIMENTS.md")
    p.add_argument("--scale", choices=("small", "full"), default="full")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", nargs="*", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # missing/malformed input files, bad plans, bad parameter combos:
        # one line on stderr, exit 2, never a traceback
        return cli_error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
