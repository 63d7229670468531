"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``machines`` — list the built-in machines and their headline rates;
* ``estimate`` — model throughput of ``xQy`` for both strategies;
* ``lint`` — statically analyze a composition expression or ``xQy``
  operation and report structured diagnostics (``--deep`` adds the
  semantic verifier's CT21x passes; ``--json`` emits the
  ``repro-lint-report/1`` schema);
* ``verify`` — run the semantic plan verifier (race, deadlock,
  interval-bounds and fault-coverage passes) over an expression, a
  ``--step`` pattern or collective op, or a plan file; exits 1 on any
  CT21x finding (``--json`` emits the ``repro-verify-report/1``
  schema);
* ``measure`` — end-to-end runtime measurement of one transfer;
* ``table`` — print (or export as JSON) a calibration table;
* ``calibrate`` — run the Section-4 calibration measurements against
  the simulators (``--no-cache`` bypasses the calibration cache);
* ``trace`` — run one transfer (or, with ``--step``, a whole step
  pattern or collective op; the same names ``verify`` takes) under the
  tracer and write a Chrome-trace / Perfetto JSON plus a per-resource
  utilization summary;
* ``advise`` — pick strategy and loop order for a distributed transpose;
* ``faults`` — run one transfer (or ``--step`` operation) twice,
  healthy and under a seeded fault plan, and report the degradation
  (JSON via ``--json``, validated against the
  ``repro-faults-report/1`` schema);
  with ``--seeds`` the same operation runs once nominal plus once per
  seed through the sharded sweep engine and the report covers the
  whole seed population;
* ``sweep`` — execute a parameter grid (a preset like ``figure7`` or a
  spec file) on worker processes via :mod:`repro.sweep`; the merged
  JSON is bit-identical for any ``--workers``/``--shard-size``;
* ``load`` — drive sustained open/closed-loop traffic through a
  machine with the discrete-event engine (:mod:`repro.load`) and
  report p50/p99/p999 latency plus per-station utilization; the
  ``--json`` payload (``repro-load-report/1``) replays bit-identically
  for a given ``--profile``/``--seed``/``--duration``;
* ``report`` — regenerate every paper comparison (slow).

Exit codes, uniform across subcommands:

* ``0`` — success (for ``lint``: no error-severity diagnostics; for
  ``verify``: additionally no CT21x finding);
* ``1`` — operational failure (a :class:`ModelError`, including fault
  aborts, or an unreadable/unwritable input or output file, or ``lint``
  found at least one error-severity diagnostic, or ``verify`` found a
  CT21x diagnostic);
* ``2`` — usage error (argparse: unknown flags, bad choices).
"""

from __future__ import annotations

import argparse
import json as json_module
import math
import sys
from typing import NamedTuple, Optional, Tuple

from .core.errors import ModelError
from .core.patterns import AccessPattern
from .core.operations import OperationStyle
from .core.serialization import dump_table
from .machines.registry import MACHINE_FACTORIES, machine_by_key
from .netsim.patterns import STEP_BUILDERS, step_flows
from .runtime.collective import CommunicationStep
from .runtime.collectives import ALGORITHMS, run_collective
from .runtime.engine import CommRuntime, MeasuredTransfer, measure_q
from .trace import tracing

#: Uniform exit codes (see module docstring).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

#: Every ``--step`` name: the uniform step patterns, then the
#: collective ops (which run their whole round sequence).
STEP_CHOICES = sorted(STEP_BUILDERS) + sorted(ALGORITHMS)


def _checked(payload: dict, validate, what: str) -> dict:
    """``payload`` once ``validate`` finds no fault with it."""
    errors = validate(payload)
    if errors:
        raise ModelError(f"{what} fails its own schema: " + "; ".join(errors))
    return payload


class Operation(NamedTuple):
    """One run of ``trace``/``faults``' operation.

    ``mbps``/``ns`` are the operation's own figures (per node for a
    step or collective); ``samples`` holds the sampled transfer(s) the
    figures derive from: one for a transfer or a uniform step, one per
    round for a collective.
    """

    mbps: float
    ns: float
    samples: Tuple[MeasuredTransfer, ...]
    headline: str


def _run_operation(args, machine, faults=None, duplex=False) -> Operation:
    """Run ``args``' operation once: a plain transfer, a uniform step
    (``--step`` pattern) or a collective (``--step`` op, first
    algorithm)."""
    style = OperationStyle(args.style)
    x = AccessPattern.parse(args.x)
    y = AccessPattern.parse(args.y)
    runtime = CommRuntime(machine, rates=args.rates, faults=faults)
    if args.step in ALGORITHMS:
        algorithm = ALGORITHMS[args.step][0]
        result = run_collective(
            runtime, args.step, algorithm, args.nodes, args.bytes,
            x=args.x, y=args.y, style=style,
        )
        layout = "hierarchical" if result.hierarchical else "flat"
        return Operation(
            result.per_node_mbps,
            result.total_ns,
            tuple(step.sample for step in result.rounds),
            f"{args.step}/{algorithm} over {args.nodes} nodes "
            f"({layout}, {len(result.rounds)} rounds): "
            f"{result.per_node_mbps:.1f} MB/s per node, "
            f"{result.total_ns / 1e3:.1f} us",
        )
    if args.step is not None:
        flows = step_flows(args.step, args.nodes)
        outcome = CommunicationStep(runtime, flows, x, y, args.bytes).run(
            style
        )
        return Operation(
            outcome.per_node_mbps,
            outcome.step_ns,
            (outcome.sample,),
            f"{args.step} step over {args.nodes} nodes: "
            f"{outcome.per_node_mbps:.1f} MB/s per node, "
            f"{outcome.step_ns / 1e3:.1f} us",
        )
    sample = runtime.transfer(x, y, args.bytes, style=style, duplex=duplex)
    return Operation(sample.mbps, sample.ns, (sample,), str(sample))


def _model(args: argparse.Namespace):
    """``--machine``'s model under ``--source``/``--congestion`` (None
    for machine ``none``)."""
    if args.machine == "none":
        return None
    return machine_by_key(args.machine).model(
        source=args.source, congestion=args.congestion
    )


def cmd_machines(args: argparse.Namespace) -> None:
    for factory in MACHINE_FACTORIES.values():
        machine = factory()
        model = machine.model()
        contiguous = AccessPattern.contiguous()
        strided64 = AccessPattern.strided(64)
        rates = []
        for style in ("buffer-packing", "chained"):
            try:
                estimate = model.estimate(contiguous, strided64, style)
            except ModelError:
                # A machine without a general deposit engine (or a
                # co-processor) cannot chain into a strided destination.
                rates.append(f"{style.split('-')[0]} n/a")
            else:
                rates.append(f"{style.split('-')[0]} {estimate.mbps:.1f}")
        print(
            f"{machine.name:32} nodes: {machine.node.processor.clock_mhz:.0f} MHz, "
            f"net {machine.network.raw_link_mbps:.0f} MB/s raw | "
            f"1Q64: {', '.join(rates)} MB/s"
        )


def cmd_estimate(args: argparse.Namespace) -> None:
    model = _model(args)
    x = AccessPattern.parse(args.x)
    y = AccessPattern.parse(args.y)
    for style in OperationStyle:
        estimate = model.estimate(x, y, style, analyze=args.analyze)
        print(f"{model.q_notation(x, y, style):8} {style.value:16} "
              f"{estimate.mbps:7.1f} MB/s")
        if args.verbose or (args.analyze and estimate.diagnostics):
            print(estimate.render())
    choice = model.choose(x, y)
    print(f"-> use {choice.style.value}")


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        LINT_SCHEMA,
        analyze,
        has_errors,
        parse_expr,
        render_report,
        validate_lint_report,
        verify_expr,
    )

    model = _model(args)

    if args.expr is not None:
        exprs = [parse_expr(args.expr)]
    else:
        if model is None:
            raise ModelError(
                "lint needs either a notation string or a machine to build "
                "xQy from --x/--y/--style"
            )
        x = AccessPattern.parse(args.x)
        y = AccessPattern.parse(args.y)
        if args.style == "both":
            styles = [s.value for s in OperationStyle]
        else:
            styles = [args.style]
        exprs = [model.build(x, y, style) for style in styles]

    rules = args.rules.split(",") if args.rules else None
    results = []
    for expr in exprs:
        diagnostics = analyze(
            expr,
            table=model.table if model else None,
            capabilities=model.capabilities if model else None,
            constraints=model.constraints if model else (),
            rules=rules,
        )
        if args.deep:
            deep = verify_expr(
                expr, model=model, only=rules, name=expr.notation()
            )
            diagnostics = tuple(diagnostics) + deep.diagnostics
        results.append((expr, diagnostics))

    all_diagnostics = [d for __, diagnostics in results for d in diagnostics]
    if args.json:
        payload = {
            "schema": LINT_SCHEMA,
            "results": [
                {
                    "notation": expr.notation(),
                    "diagnostics": [d.to_dict() for d in diagnostics],
                }
                for expr, diagnostics in results
            ],
            "counts": {
                severity: sum(
                    1 for d in all_diagnostics if d.severity.value == severity
                )
                for severity in ("error", "warning", "advice")
            },
            "ok": not has_errors(all_diagnostics),
        }
        _checked(payload, validate_lint_report, "lint report")
        print(json_module.dumps(payload, indent=2))
    else:
        for expr, diagnostics in results:
            print(f"lint {expr.notation()}")
            print(render_report(diagnostics))
    return EXIT_FAILURE if has_errors(all_diagnostics) else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .analysis import (
        parse_expr,
        results_payload,
        validate_verify_report,
        verify_expr,
        verify_plan,
    )
    from .analysis.verify.examples import step_plan
    from .compiler.commgen import CommPlan, transpose_2d

    model = _model(args)
    rules = args.rules.split(",") if args.rules else None
    style = args.style

    if args.expr is not None:
        expr = parse_expr(args.expr)
        result = verify_expr(
            expr,
            model=model,
            nbytes=args.bytes,
            style=style,
            only=rules,
            name=expr.notation(),
        )
    else:
        if args.plan == "transpose":
            plan = transpose_2d(256, 256, args.nodes)
        elif args.plan is not None:
            plan = CommPlan.from_json(args.plan)
        else:
            plan = step_plan(
                args.step, args.nodes, x=args.x, y=args.y, nbytes=args.bytes
            )
        result = verify_plan(
            plan,
            model=model,
            style=style,
            schedule=args.schedule,
            discipline=args.discipline,
            only=rules,
        )

    payload = _checked(
        results_payload([result]), validate_verify_report, "verify report"
    )
    if args.json:
        print(json_module.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.render())
    return EXIT_OK if payload["ok"] else EXIT_FAILURE


def cmd_measure(args: argparse.Namespace) -> None:
    machine = machine_by_key(args.machine)
    x = AccessPattern.parse(args.x)
    y = AccessPattern.parse(args.y)
    style = OperationStyle(args.style)
    result = measure_q(machine, x, y, args.bytes, style)
    print(result)
    for phase, ns in result.phase_ns:
        print(f"  {phase:12} {ns / 1000.0:9.1f} us")


def cmd_trace(args: argparse.Namespace) -> int:
    from .trace import (
        chrome_trace,
        render_timeline,
        utilization,
        validate_chrome_trace,
    )

    machine = machine_by_key(args.machine)
    with tracing() as tracer:
        # The runtime is built inside the traced region so
        # calibration-cache and memory-simulator counters land in the
        # trace too.
        op = _run_operation(args, machine, duplex=args.duplex)

    phase_spans = tracer.spans("phase")
    phase_sum = sum(span.duration_ns for span in phase_spans)
    # The tracing invariant the docs promise: phase spans partition the
    # measured end-to-end time of the sampled transfer(s), i.e. of every
    # round of a collective.
    expected_ns = math.fsum(sample.ns for sample in op.samples)
    if abs(phase_sum - expected_ns) > 1e-6 * max(expected_ns, 1.0):
        raise ModelError(
            f"phase spans sum to {phase_sum:.1f} ns but the transfer "
            f"reported {expected_ns:.1f} ns"
        )

    payload = _checked(
        chrome_trace(
            tracer,
            metadata={
                "machine": machine.name,
                "operation": f"{args.x}Q{args.y}",
                "style": args.style,
                "nbytes": args.bytes,
                "transfer_mbps": op.mbps,
                "transfer_ns": op.ns,
                "phase_sum_ns": phase_sum,
                "step": args.step,
            },
        ),
        validate_chrome_trace,
        "emitted trace",
    )
    with open(args.out, "w") as handle:
        json_module.dump(payload, handle, indent=2)

    if args.json:
        print(json_module.dumps(payload, indent=2))
        return EXIT_OK

    print(op.headline)
    print(f"wrote {args.out} ({len(payload['traceEvents'])} events) — "
          "load it in chrome://tracing or ui.perfetto.dev")
    print()
    print("phases:")
    for span in phase_spans:
        share = span.duration_ns / phase_sum * 100.0 if phase_sum else 0.0
        print(f"  {span.name:20} {span.duration_ns / 1e3:10.1f} us "
              f"{share:5.1f}%")
    print(f"  {'total':20} {phase_sum / 1e3:10.1f} us  (= measured "
          f"{expected_ns / 1e3:.1f} us)")
    busy = utilization(tracer)
    if busy:
        print()
        print("resource utilization (busy fraction of traced interval):")
        for track, fraction in busy.items():
            print(f"  {track:20} {fraction * 100.0:5.1f}%")
    counters = tracer.metrics.counters()
    if counters:
        print()
        print("counters:")
        for name, value in sorted(counters.items()):
            print(f"  {name:32} {value:,.0f}")
    if args.timeline:
        print()
        print(render_timeline(tracer))
    return EXIT_OK


def cmd_advise(args: argparse.Namespace) -> None:
    from .compiler.advisor import advise_transpose

    machine = machine_by_key(args.machine)
    order, advice = advise_transpose(
        machine, args.rows, args.cols, args.nodes, element_words=args.element_words
    )
    direction = (
        "contiguous loads + strided stores (1Qn)"
        if order == "row"
        else "strided loads + contiguous stores (nQ1)"
    )
    print(f"{machine.name}: use loop order {order!r} — {direction}")
    print(advice.render())


def _load_overload_spec(args: argparse.Namespace):
    """The CLI's overload flags as an OverloadSpec (None = unprotected)."""
    from .load import OverloadSpec

    spec = OverloadSpec(
        admission=args.admission,
        queue_limit=args.queue_limit,
        station_capacity=args.station_capacity,
        token_rate_per_s=args.token_rate,
        token_burst=args.token_burst,
        target_p99_ns=args.target_p99_us * 1e3,
        p99_ceiling_ns=args.p99_ceiling_us * 1e3,
        reject_retry=args.reject_retry,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_ns=args.breaker_cooldown_us * 1e3,
    )
    return None if spec.is_noop() else spec


def _load_profile_for(args: argparse.Namespace):
    """Resolve + adjust the load profile from the CLI flags."""
    import dataclasses as dataclasses_module

    from .load import profile_by_name

    profile = profile_by_name(args.profile)
    if args.machine is not None:
        profile = dataclasses_module.replace(profile, machine=args.machine)
    if args.nodes is not None:
        profile = dataclasses_module.replace(profile, nodes=args.nodes)
    if args.rate_x != 1.0:
        profile = profile.scaled(args.rate_x)
    if args.deadline_us != 0.0:
        deadline_ns = args.deadline_us * 1e3

        def with_deadline(spec):
            return dataclasses_module.replace(spec, templates=tuple(
                dataclasses_module.replace(t, deadline_ns=deadline_ns)
                for t in spec.templates
            ))

        profile = dataclasses_module.replace(
            profile,
            open_loops=tuple(
                with_deadline(spec) for spec in profile.open_loops
            ),
            closed_loops=tuple(
                with_deadline(spec) for spec in profile.closed_loops
            ),
        )
    overload = _load_overload_spec(args)
    if overload is not None:
        profile = dataclasses_module.replace(profile, overload=overload)
    return profile


def _load_curve(args, profile, faults, horizon_ns) -> int:
    """`load --latency-curve`: sweep multipliers, report the knee."""
    from .load import digest
    from .sweep.loadcurve import run_load_curve

    try:
        multipliers = [
            float(token)
            for token in args.latency_curve.split(",")
            if token.strip()
        ]
    except ValueError:
        raise ModelError(
            f"--latency-curve wants comma-separated numbers, "
            f"got {args.latency_curve!r}"
        )
    payload = run_load_curve(
        profile, args.seed, horizon_ns,
        multipliers=multipliers, workers=args.workers, faults=faults,
    )
    payload_digest = digest(payload)
    if args.json:
        payload = dict(payload)
        payload["digest"] = payload_digest
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    knee = payload["knee_multiplier"]
    print(f"{profile.name} on {profile.machine} x{profile.nodes} nodes, "
          f"seed {args.seed}, {args.duration:g}s per point")
    print(f"  {'x':>5} {'offered':>8} {'done':>8} {'shed+rej':>8} "
          f"{'p50 us':>10} {'p99 us':>10} {'p999 us':>10}")
    for point in payload["points"]:
        dropped = point.get("rejected", 0) + point.get("shed", 0)
        print(f"  {point['multiplier']:>5g} {point['offered']:>8} "
              f"{point['completed']:>8} {dropped:>8} "
              f"{point['p50_ns'] / 1e3:>10.1f} "
              f"{point['p99_ns'] / 1e3:>10.1f} "
              f"{point['p999_ns'] / 1e3:>10.1f}")
    if knee is not None:
        print(f"  knee: p99 exceeds {payload['knee_factor']:g}x the "
              f"low-load baseline at {knee:g}x offered load")
    else:
        print("  knee: none within the swept range")
    print(f"  digest    {payload_digest[:16]}")
    return EXIT_OK


def cmd_load(args: argparse.Namespace) -> int:
    import time as time_module

    from .faults import FaultPlan
    from .load import LoadEngine

    profile = _load_profile_for(args)
    faults = None
    if args.plan is not None:
        faults = FaultPlan.from_json(args.plan)
        if args.chaos_seed is not None:
            faults = faults.with_seed(args.chaos_seed)
    elif args.chaos_seed is not None:
        faults = FaultPlan.chaos(args.chaos_seed)
    horizon_ns = args.duration * 1e9
    if args.latency_curve is not None:
        return _load_curve(args, profile, faults, horizon_ns)
    engine = LoadEngine(profile, seed=args.seed, faults=faults)
    started = time_module.perf_counter()
    result = engine.run(horizon_ns)
    elapsed = time_module.perf_counter() - started
    events = result.stats.get("events", 0)
    if args.json:
        # Canonical payload only: identical bytes on every replay.  Wall-clock facts are nondeterministic and
        # go to stderr instead (the sweep convention).
        payload = dict(result.to_dict())
        payload["digest"] = result.digest()
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        print(
            f"load: {events} events in {elapsed:.2f}s "
            f"({events / elapsed if elapsed > 0 else 0.0:,.0f} events/s)",
            file=sys.stderr,
        )
        return EXIT_OK
    latency = result.latency
    print(f"{profile.name} on {profile.machine} x{profile.nodes} nodes, "
          f"seed {args.seed}, {args.duration:g}s simulated"
          + (f", chaos seed {args.chaos_seed}" if faults else ""))
    print(f"  requests: {result.completed} completed "
          f"/ {result.offered} offered")
    print(f"  latency:  p50 {latency['p50'] / 1e3:10.1f} us   "
          f"p99 {latency['p99'] / 1e3:10.1f} us   "
          f"p999 {latency['p999'] / 1e3:10.1f} us")
    print(f"  engine:   {events} events in {elapsed:.2f}s "
          f"({events / elapsed if elapsed > 0 else 0.0:,.0f} events/s)")
    busiest = sorted(
        result.stations.items(),
        key=lambda item: item[1]["utilization"],
        reverse=True,
    )[:3]
    for name, summary in busiest:
        print(f"  {name:14} util {summary['utilization']:6.1%}  "
              f"depth mean {summary['mean_depth']:6.2f} "
              f"max {summary['max_depth']}")
    if result.overload is not None:
        totals = result.overload["totals"]
        opened = sum(
            state["opened"]
            for state in result.overload["breakers"].values()
        )
        print(f"  overload: {totals['rejected']} rejected, "
              f"{totals['shed']} shed, {totals['broken']} broken, "
              f"{totals['retried']} retried "
              f"(admission {result.overload['admission']['policy']}"
              + (f", {opened} breaker trips" if opened else "") + ")")
    print(f"  digest    {result.digest()[:16]}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    from .core.shapes import read_json
    from .sweep import (
        SweepError,
        SweepSpec,
        calibration_spec,
        collectives_spec,
        figure7_spec,
        figure8_spec,
        run_sweep,
    )

    if args.spec is not None:
        spec = SweepSpec.from_dict(
            read_json(args.spec, SweepError, "sweep spec")
        )
    elif args.grid == "calibration":
        spec = calibration_spec(args.machine)
    else:
        spec = {
            "figure7": figure7_spec,
            "figure8": figure8_spec,
            "collectives": collectives_spec,
        }[args.grid]()
    if args.seeds:
        if spec.kind not in ("transfer", "collective"):
            raise SweepError(
                "--seeds only applies to transfer or collective sweeps"
            )
        import dataclasses as dataclasses_module

        from .sweep import NOMINAL_SEED

        spec = dataclasses_module.replace(spec, seeds=(NOMINAL_SEED, *args.seeds))

    result = run_sweep(
        spec,
        workers=args.workers,
        shard_size=args.shard_size,
        shuffle_seed=args.shuffle_seed,
        preflight_verify=args.verify,
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(result.canonical_json())
        print(f"wrote {args.out} ({len(result)} cells, "
              f"digest {result.digest()[:16]})")
        return EXIT_OK
    if args.json:
        # The canonical payload only: identical bytes for any worker
        # count, shard size or completion order.  Run facts (workers,
        # wall seconds) are nondeterministic and go to stderr instead.
        payload = dict(result.to_dict())
        payload["digest"] = result.digest()
        print(json_module.dumps(payload, indent=2, sort_keys=True))
        verified = result.stats.get("preflight_verified")
        preflight = (
            f" preflight-verified={verified}" if verified is not None else ""
        )
        print(
            f"sweep: {result.stats.get('strategy')} "
            f"workers={result.stats.get('workers')} "
            f"shards={result.stats.get('shards')} "
            f"{result.stats.get('elapsed_s', 0.0):.2f}s{preflight}",
            file=sys.stderr,
        )
        return EXIT_OK

    stats = result.stats
    verified = stats.get("preflight_verified")
    preflight = (
        f", preflight-verified={verified}" if verified is not None else ""
    )
    print(
        f"swept {len(result)} cells in {stats.get('elapsed_s', 0.0):.2f}s "
        f"({stats.get('strategy')}, workers={stats.get('workers')}, "
        f"shards={stats.get('shards')}{preflight})"
    )
    print(f"digest {result.digest()}")
    for cell, row in zip(result.cells, result.rows):
        if "model_mbps" in row:
            print(f"  {row['id']:40} model {row['model_mbps']:7.1f}  "
                  f"measured {row['mbps']:7.1f} MB/s")
        elif "op" in row:
            layout = "hier" if row.get("hierarchical") else "flat"
            print(f"  {row['id']:46} {row['algorithm']:18} {layout:4} "
                  f"{row['rounds']:3d} rounds "
                  f"{row['ns'] / 1e3:10.1f} us {row['mbps']:8.1f} MB/s")
        else:
            print(f"  {row['id']:40} {row['mbps']:7.1f} MB/s")
    return EXIT_OK


def _cmd_faults_sweep(args, machine) -> int:
    """The ``faults --seeds`` path: nominal + one cell per seed, via
    the sweep engine (workers/shard-size apply)."""
    from .sweep import NOMINAL_SEED, SweepSpec, run_sweep

    spec = SweepSpec(
        kind="transfer",
        machines=(args.machine,),
        pairs=((args.x, args.y),),
        styles=(args.style,),
        sizes=(args.bytes,),
        seeds=(NOMINAL_SEED, *args.seeds),
        rates=args.rates,
        duplex="off",
    )
    result = run_sweep(
        spec, workers=args.workers, shard_size=args.shard_size
    )
    nominal = result.rows[0]
    seeded = list(zip(spec.seeds[1:], result.rows[1:]))
    rows = []
    for seed, row in seeded:
        delta_pct = (
            (1.0 - row["mbps"] / nominal["mbps"]) * 100.0
            if nominal["mbps"]
            else 0.0
        )
        rows.append(
            {
                "seed": seed,
                "mbps": row["mbps"],
                "ns": row["ns"],
                "retries": row["retries"],
                "fallback": row.get("degraded"),
                "delta": {"throughput_pct": delta_pct},
            }
        )
    payload = {
        "schema": "repro-faults-sweep/1",
        "machine": machine.name,
        "operation": f"{args.x}Q{args.y}",
        "style": args.style,
        "nbytes": args.bytes,
        "nominal": {"mbps": nominal["mbps"], "ns": nominal["ns"]},
        "seeds": rows,
    }
    if args.json:
        print(json_module.dumps(payload, indent=2))
        return EXIT_OK
    print(f"{machine.name} {args.x}Q{args.y} {args.style} "
          f"{args.bytes} B — {len(rows)} seed(s)")
    print(f"  nominal:  {nominal['mbps']:8.1f} MB/s")
    for row in rows:
        extra = f"  retries {row['retries']}" if row["retries"] else ""
        fallback = "  fallback" if row["fallback"] else ""
        print(f"  seed {row['seed']:>5}: {row['mbps']:8.1f} MB/s "
              f"({row['delta']['throughput_pct']:+.1f}% throughput lost)"
              f"{extra}{fallback}")
    return EXIT_OK


def cmd_faults(args: argparse.Namespace) -> int:
    from .faults import FaultPlan, validate_faults_report

    machine = machine_by_key(args.machine)
    if args.seeds:
        for pattern in (args.x, args.y):
            AccessPattern.parse(pattern)  # fail before a sweep cell does
        if args.step is not None:
            raise ModelError(
                "--seeds sweeps point-to-point transfers; it does not "
                "combine with --step"
            )
        return _cmd_faults_sweep(args, machine)
    if args.plan is not None:
        plan = FaultPlan.from_json(args.plan)
        if args.seed is not None:
            plan = plan.with_seed(args.seed)
    else:
        plan = FaultPlan.chaos(args.seed if args.seed is not None else 7)

    # Each run gets its own tracer so their counters don't mix, and an
    # explicit fault argument keeps the nominal run provably outside
    # the plan's reach.
    with tracing():
        nominal = _run_operation(args, machine)
    with tracing() as tracer:
        degraded = _run_operation(args, machine, faults=plan)

    def phase_dict(op):
        phases = {}
        for sample in op.samples:
            for name, ns in sample.phase_ns:
                phases[name] = phases.get(name, 0.0) + ns
        return phases

    # Retries and fallbacks are summed over every sample, so a
    # collective reports all of its rounds rather than one of them.
    retries = sum(sample.retries for sample in degraded.samples)
    fallback = next(
        (s.degraded for s in degraded.samples if s.degraded is not None),
        None,
    )
    delta_pct = (
        (1.0 - degraded.mbps / nominal.mbps) * 100.0 if nominal.mbps else 0.0
    )
    counters = {
        name: value
        for name, value in sorted(tracer.metrics.counters().items())
        if name.startswith(("faults.", "step.", "cache."))
    }
    payload = _checked(
        {
            "schema": "repro-faults-report/1",
            "machine": machine.name,
            "operation": f"{args.x}Q{args.y}",
            "style": args.style,
            "nbytes": args.bytes,
            "step": args.step,
            "seed": plan.seed,
            "plan": plan.to_dict(),
            "nominal": {
                "mbps": nominal.mbps,
                "ns": nominal.ns,
                "phase_ns": phase_dict(nominal),
            },
            "degraded": {
                "mbps": degraded.mbps,
                "ns": degraded.ns,
                "phase_ns": phase_dict(degraded),
                "retries": retries,
                "fallback": (
                    fallback.to_dict() if fallback is not None else None
                ),
            },
            "delta": {"throughput_pct": delta_pct},
            "counters": counters,
        },
        validate_faults_report,
        "faults report",
    )
    if args.json:
        print(json_module.dumps(payload, indent=2))
        return EXIT_OK

    print(f"{machine.name} {args.x}Q{args.y} {args.style} "
          f"{args.bytes} B (seed {plan.seed})")
    print(f"  plan: {'; '.join(plan.describe())}")
    print(f"  nominal:  {nominal.mbps:8.1f} MB/s  {nominal.ns / 1e3:10.1f} us")
    print(f"  degraded: {degraded.mbps:8.1f} MB/s  {degraded.ns / 1e3:10.1f} us"
          f"  ({delta_pct:+.1f}% throughput lost)")
    if retries:
        print(f"  retries:  {retries}")
    if fallback is not None:
        print(f"  fallback: {fallback}")
    if counters:
        print("  counters:")
        for name, value in counters.items():
            print(f"    {name:32} {value:,.0f}")
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> None:
    machine = machine_by_key(args.machine)
    if args.source == "paper":
        table = machine.paper_table(congestion=args.congestion)
    else:
        table = machine.simulated_table(congestion=args.congestion)
    if args.json:
        dump_table(table, args.json)
        print(f"wrote {args.json}")
        return
    print(table.name)
    for key, rate in sorted(table.to_dict().items()):
        print(f"  {key:8} {rate:7.1f} MB/s")


def cmd_calibrate(args: argparse.Namespace) -> None:
    import time

    names = sorted(MACHINE_FACTORIES) if args.machine == "all" else [args.machine]
    for name in names:
        machine = machine_by_key(name)
        started = time.perf_counter()
        table = machine.simulated_table(
            congestion=args.congestion,
            nwords=args.words,
            use_cache=not args.no_cache,
        )
        elapsed = time.perf_counter() - started
        print(f"{table.name}  ({elapsed * 1e3:.0f} ms)")
        for key, rate in sorted(table.to_dict().items()):
            print(f"  {key:8} {rate:7.1f} MB/s")
        if args.json:
            path = args.json if len(names) == 1 else f"{name}-{args.json}"
            dump_table(table, path)
            print(f"wrote {path}")


def cmd_report(args: argparse.Namespace) -> None:
    from .bench import print_experiments_report

    print_experiments_report()


def positive_int(text: str) -> int:
    """argparse ``type`` for sizes and counts: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


# -- shared flag groups: one definition each ---------------------------------


def _machine_flag(parser, default="t3d", extra=(), help=None) -> None:
    parser.add_argument("--machine", default=default,
                        choices=sorted(MACHINE_FACTORIES) + list(extra),
                        help=help)


def _pattern_flags(parser) -> None:
    parser.add_argument("--x", default="1", help="read pattern (0/1/s/w)")
    parser.add_argument("--y", default="64", help="write pattern (0/1/s/w)")


def _bytes_flag(parser) -> None:
    parser.add_argument("--bytes", type=positive_int, default=131072,
                        help="payload per operation")


def _table_flags(parser, source=True) -> None:
    if source:
        parser.add_argument("--source", default="paper",
                            choices=("paper", "simulated"))
    parser.add_argument("--congestion", type=int, default=None)


def _style_flag(parser, default="chained", extra=(), help=None) -> None:
    parser.add_argument("--style", default=default,
                        choices=[s.value for s in OperationStyle] + list(extra),
                        help=help)


def _transfer_flags(parser) -> None:
    """The flags naming one ``xQy`` transfer on one machine."""
    _machine_flag(parser)
    _pattern_flags(parser)
    _bytes_flag(parser)
    _style_flag(parser)


def _step_flags(parser, default=None, help=None) -> None:
    parser.add_argument(
        "--step", default=default, choices=STEP_CHOICES,
        help=help or "run a whole step pattern or a full multi-round "
                     "collective op instead of one transfer",
    )
    parser.add_argument("--nodes", type=positive_int, default=8,
                        help="partition size for --step")


def _worker_flags(parser, what: str) -> None:
    parser.add_argument("--workers", type=int, default=1,
                        help=f"worker processes for {what} (1: in-process)")
    parser.add_argument("--shard-size", type=int, default=None,
                        help=f"cells per shard for {what} (default: a few "
                             "per worker)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Copy-transfer model of Stricker & Gross (ISCA 1995)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("machines", help="list built-in machines")

    estimate = commands.add_parser("estimate", help="model an xQy operation")
    _machine_flag(estimate)
    _pattern_flags(estimate)
    _table_flags(estimate)
    estimate.add_argument("--verbose", action="store_true")
    estimate.add_argument("--analyze", action="store_true",
                          help="attach static-analyzer diagnostics")

    lint = commands.add_parser(
        "lint",
        help="statically analyze a composition expression or xQy operation",
        description=(
            "Run the copy-transfer plan linter.  Give either a notation "
            "string ('64C1 o (1S0 || Nd || 0D1) o 1C1') or --x/--y/--style "
            "to lint the expressions a machine's model would build.  "
            "Exits 1 when any error-severity diagnostic is found."
        ),
    )
    lint.add_argument("expr", nargs="?", default=None,
                      help="composition in paper notation")
    _machine_flag(lint, extra=["none"],
                  help="machine context for calibration/capability rules "
                       "('none' for composition rules only)")
    _pattern_flags(lint)
    _style_flag(lint, default="both", extra=["both"])
    _table_flags(lint)
    lint.add_argument("--rules", default=None,
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--deep", action="store_true",
                      help="also run the semantic verifier's CT21x passes "
                           "and append their diagnostics")
    lint.add_argument("--json", action="store_true",
                      help="emit machine-readable diagnostics "
                           "(repro-lint-report/1)")

    verify = commands.add_parser(
        "verify",
        help="semantic plan verification: races, deadlocks, bounds, coverage",
        description=(
            "Lower a composition expression, a step pattern or a "
            "communication plan into the verifier's plan IR and run the "
            "CT21x dataflow passes: resource races (CT211), rendezvous "
            "deadlocks (CT212/CT213), interval bounds vs the model "
            "estimate (CT214) and fault-class coverage (CT215).  Exits "
            "1 when any CT21x finding (or error) is reported."
        ),
    )
    verify.add_argument("expr", nargs="?", default=None,
                        help="composition in paper notation (default: "
                             "verify the --step pattern instead)")
    _machine_flag(verify, extra=["none"],
                  help="machine context for bounds/coverage passes "
                       "('none' for structural passes only)")
    _pattern_flags(verify)
    _style_flag(verify, default=None,
                help="operation style the claims/coverage model (default: "
                     "the model's own choice)")
    _bytes_flag(verify)
    _table_flags(verify)
    _step_flags(verify, default="shift",
                help="step pattern or collective op to verify when no "
                     "expression or plan is given (collectives lower "
                     "their whole round sequence into the plan IR); "
                     "--nodes also sizes --plan transpose")
    verify.add_argument("--schedule", default="phased",
                        choices=("phased", "eager"),
                        help="concurrency structure: conflict-free phases "
                             "or every operation at once")
    verify.add_argument("--discipline", default="interleaved",
                        choices=("interleaved", "blocking-sends"),
                        help="per-node rendezvous ordering")
    verify.add_argument("--plan", default=None,
                        help="JSON CommPlan file, or 'transpose' for the "
                             "built-in Figure 9 plan")
    verify.add_argument("--rules", default=None,
                        help="comma-separated rule ids to run (default: all)")
    verify.add_argument("--json", action="store_true",
                        help="emit the machine-readable report "
                             "(repro-verify-report/1)")

    measure = commands.add_parser("measure", help="end-to-end measurement")
    _transfer_flags(measure)

    trace = commands.add_parser(
        "trace",
        help="trace one transfer or collective step, write Chrome-trace JSON",
        description=(
            "Run a transfer (default) or a collective step with the "
            "tracer installed and export the result as Chrome-trace / "
            "Perfetto JSON plus a per-resource utilization summary.  "
            "The per-phase span durations always sum to the measured "
            "nanoseconds of the sampled transfer(s)."
        ),
    )
    _transfer_flags(trace)
    trace.add_argument("--rates", default="simulated",
                       choices=("simulated", "paper"),
                       help="calibration source for the runtime")
    trace.add_argument("--duplex", action="store_true",
                       help="node sends and receives simultaneously")
    _step_flags(trace)
    trace.add_argument("--out", default="trace.json",
                       help="Chrome-trace output path")
    trace.add_argument("--json", action="store_true",
                       help="print the Chrome-trace JSON to stdout")
    trace.add_argument("--timeline", action="store_true",
                       help="render a text timeline of the trace")

    advise = commands.add_parser(
        "advise", help="choose strategy and loop order for a transpose"
    )
    _machine_flag(advise)
    advise.add_argument("--rows", type=positive_int, default=1024)
    advise.add_argument("--cols", type=positive_int, default=1024)
    advise.add_argument("--nodes", type=positive_int, default=64)
    advise.add_argument("--element-words", type=positive_int, default=2)

    faults = commands.add_parser(
        "faults",
        help="measure one operation healthy vs under a seeded fault plan",
        description=(
            "Run a transfer (or a collective step with --step) twice — "
            "once healthy, once under a fault plan — and report the "
            "throughput lost, retries paid, and any graceful fallback "
            "(chained -> buffer-packing when the deposit engine is "
            "faulted).  Without --plan a built-in chaos plan seeded by "
            "--seed runs; the emitted JSON embeds the full plan, so any "
            "report can be replayed verbatim via --plan."
        ),
    )
    _transfer_flags(faults)
    faults.add_argument("--rates", default="paper",
                        choices=("simulated", "paper"),
                        help="calibration source for the runtime")
    faults.add_argument("--seed", type=int, default=None,
                        help="fault-plan seed (default 7; with --plan, "
                             "re-seeds the loaded plan)")
    faults.add_argument("--plan", default=None,
                        help="JSON fault-plan file (default: built-in "
                             "chaos plan)")
    _step_flags(faults)
    faults.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    faults.add_argument("--seeds", type=int, nargs="+", default=None,
                        help="run a whole seed population through the "
                             "sweep engine (one row per seed, plus the "
                             "nominal baseline)")
    _worker_flags(faults, "--seeds")

    table = commands.add_parser("table", help="print a calibration table")
    _machine_flag(table)
    _table_flags(table)
    table.add_argument("--json", default=None, help="write JSON to this path")

    calibrate = commands.add_parser(
        "calibrate",
        help="run the Section-4 calibration measurements on the simulators",
        description=(
            "Derive a machine's calibration table by running every basic "
            "transfer on the memory-system simulator.  Results come from "
            "the calibration cache when an identical measurement has run "
            "before; --no-cache forces a full remeasurement and leaves "
            "the cache untouched."
        ),
    )
    _machine_flag(calibrate, default="all", extra=["all"])
    calibrate.add_argument("--words", type=positive_int, default=32768,
                           help="stream length per measurement")
    _table_flags(calibrate, source=False)
    calibrate.add_argument("--no-cache", action="store_true",
                           help="bypass the calibration cache entirely")
    calibrate.add_argument("--json", default=None,
                           help="write the table(s) as JSON to this path")

    sweep = commands.add_parser(
        "sweep",
        help="execute a parameter grid on worker processes",
        description=(
            "Run a declarative parameter sweep through the sharded "
            "engine (repro.sweep): plan the grid into shards, execute "
            "them as vectorized batches on --workers processes, and "
            "merge deterministically. The emitted canonical JSON (and "
            "its digest) is bit-identical for any --workers / "
            "--shard-size / --shuffle-seed combination."
        ),
    )
    sweep.add_argument("--grid", default="figure7",
                       choices=("figure7", "figure8", "calibration",
                                "collectives"),
                       help="preset grid to sweep (ignored with --spec); "
                            "'collectives' runs every collective op with "
                            "every applicable algorithm (plus the "
                            "model-driven 'auto' choice) on the cluster "
                            "and xe machines")
    _machine_flag(sweep, help="machine for the calibration grid")
    sweep.add_argument("--spec", default=None,
                       help="JSON SweepSpec file instead of a preset")
    sweep.add_argument("--seeds", type=int, nargs="+", default=None,
                       help="add a fault-seed axis to a transfer or "
                            "collective grid")
    _worker_flags(sweep, "the grid")
    sweep.add_argument("--shuffle-seed", type=int, default=None,
                       help="permute shard submission order (results "
                            "must not change)")
    sweep.add_argument("--json", action="store_true",
                       help="print the canonical result payload")
    sweep.add_argument("--out", default=None,
                       help="write the canonical JSON to this path")
    sweep.add_argument("--verify", action="store_true",
                       help="statically verify every distinct transfer "
                            "shape before executing the grid (fails fast "
                            "on blocking findings)")

    load = commands.add_parser(
        "load",
        help="drive sustained traffic through a machine and report "
             "latency percentiles",
        description=(
            "Run the discrete-event traffic engine (repro.load): seeded "
            "open-loop (Poisson/bursty) and closed-loop (think-time) "
            "request generators push transfers through per-node NIC / "
            "deposit-engine / co-processor queueing stations whose "
            "service times come from the calibrated runtime.  The run "
            "is replay-deterministic: the same --profile/--seed/"
            "--duration always produces bit-identical canonical JSON.  "
            "--chaos-seed composes a fault "
            "plan with the traffic, showing tail latency under link "
            "derates and node slowdowns.  Reports p50/p99/p999 latency, "
            "per-station utilization and queue depth."
        ),
    )
    load.add_argument("--profile", default="steady",
                      help="workload profile: steady (Poisson open loop), "
                           "bursty (8-request bursts, priority queues), "
                           "closed (think-time clients)")
    _machine_flag(load, default=None, help="override the profile's machine")
    load.add_argument("--nodes", type=int, default=None,
                      help="override the profile's partition size")
    load.add_argument("--seed", type=int, default=7,
                      help="replay seed for every arrival / think / "
                           "template draw (default 7)")
    load.add_argument("--duration", type=float, default=0.05,
                      help="simulated seconds of traffic (default 0.05); "
                           "in-flight requests drain past the horizon")
    load.add_argument("--workers", type=int, default=1,
                      help="processes for --latency-curve points (a "
                           "single run ignores it; results are "
                           "bit-identical for any value)")
    load.add_argument("--chaos-seed", type=int, default=None,
                      help="compose the built-in chaos fault plan with "
                           "this seed (with --plan: re-seed the plan)")
    load.add_argument("--plan", default=None,
                      help="JSON fault-plan file to compose with the "
                           "traffic (same format as the faults command)")
    load.add_argument("--rate-x", type=float, default=1.0,
                      help="scale offered load: open-loop rates x this, "
                           "closed-loop client counts rounded up "
                           "(default 1.0)")
    load.add_argument("--admission", default="none",
                      choices=["none", "bounded-queue", "token-bucket",
                               "adaptive"],
                      help="admission-control policy gating arrivals at "
                           "the source NIC (default none: admit "
                           "everything)")
    load.add_argument("--queue-limit", type=int, default=64,
                      help="bounded-queue: max source-NIC backlog "
                           "admitted (default 64)")
    load.add_argument("--station-capacity", type=int, default=0,
                      help="bound every station's waiting line "
                           "(0 = unbounded)")
    load.add_argument("--deadline-us", type=float, default=0.0,
                      help="shed requests that wait longer than this at "
                           "any one station (microseconds; 0 = off)")
    load.add_argument("--reject-retry", default="drop",
                      choices=["drop", "backoff"],
                      help="rejected requests are dropped or re-arrive "
                           "after seeded exponential backoff")
    load.add_argument("--token-rate", type=float, default=0.0,
                      help="token-bucket: sustained admitted requests/s")
    load.add_argument("--token-burst", type=int, default=32,
                      help="token-bucket: bucket depth (default 32)")
    load.add_argument("--target-p99-us", type=float, default=0.0,
                      help="adaptive: p99 target the AIMD controller "
                           "steers toward (microseconds)")
    load.add_argument("--p99-ceiling-us", type=float, default=0.0,
                      help="declared p99 bound recorded in the report "
                           "(asserted by CI, not enforced by the engine)")
    load.add_argument("--breaker-threshold", type=int, default=0,
                      help="consecutive per-link failures that open the "
                           "circuit breaker (0 = breakers off)")
    load.add_argument("--breaker-cooldown-us", type=float, default=5000.0,
                      help="simulated microseconds an open breaker waits "
                           "before half-open probes (default 5000)")
    load.add_argument("--latency-curve", default=None, metavar="MULTS",
                      help="sweep offered load across comma-separated "
                           "rate multipliers (e.g. 0.5,1,2,4) and report "
                           "the latency-vs-load curve with its knee; "
                           "--workers then fans points over processes")
    load.add_argument("--json", action="store_true",
                      help="emit the repro-load-report/1 payload (or "
                           "repro-load-curve/1 with --latency-curve)")

    commands.add_parser("report", help="regenerate all paper comparisons")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; returns a uniform exit code (module docstring)."""
    args = build_parser().parse_args(argv)
    handler = {
        "advise": cmd_advise,
        "calibrate": cmd_calibrate,
        "machines": cmd_machines,
        "estimate": cmd_estimate,
        "faults": cmd_faults,
        "lint": cmd_lint,
        "load": cmd_load,
        "measure": cmd_measure,
        "sweep": cmd_sweep,
        "table": cmd_table,
        "trace": cmd_trace,
        "report": cmd_report,
        "verify": cmd_verify,
    }[args.command]
    try:
        code: Optional[int] = handler(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except BrokenPipeError:
        # Downstream (head, less) closed the pipe: not our failure,
        # and nothing left to tell it.
        return EXIT_FAILURE
    except OSError as exc:
        # Unreadable plan/table files, unwritable trace output, ...:
        # an operational failure, never a traceback.
        name = getattr(exc, "filename", None)
        detail = exc.strerror or str(exc)
        print(
            f"error: {detail}" + (f": {name}" if name else ""),
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return EXIT_OK if code is None else code


if __name__ == "__main__":
    raise SystemExit(main())
