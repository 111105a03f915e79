"""Command-line interface.

Subcommands::

    repro models                         list model presets
    repro machines                       list machine presets
    repro simulate  --model opt-30b --machine pc-high [--engine powerinfer]
                                         simulate one request end to end
    repro compare   --model opt-30b --machine pc-high
                                         tokens/s of every engine that fits
    repro plan      --model opt-30b --machine pc-high --out plan.npz
                                         run the offline phase, save the plan
    repro figure    fig05 [...]          regenerate one paper figure/table
    repro serve     --model opt-6.7b --machine pc-low [--scheduler chunked]
                    [--max-batch 1] [--faults canonical] [--trace run.json]
                                         serve a Poisson stream through the
                                         serving loop (--max-batch 1 is
                                         whole-request FCFS, --scheduler
                                         static is static batching); a fault
                                         schedule compares naive vs
                                         degradation-aware serving, --trace
                                         exports Chrome trace / JSONL / PNG
    repro fleet     [--policy least-loaded] [--no-failover] [--disaggregate]
                    [--explain 9] [--deep-trace fleet.json]
                                         run the canonical 3-replica fleet
                                         chaos scenario, validate it, and
                                         optionally export trace/summary;
                                         --deep-trace/--alerts/--timeseries/
                                         --explain turn on fleet-wide
                                         observability and energy metering
                                         (ledger reconciled against the
                                         power meter), --explain RID prints
                                         one request's causal timeline
    repro energy    [--model opt-6.7b --machine pc-low] [--whatif]
                                         J/token, watts, and gCO2 per
                                         engine for one request shape
    repro bounds    --model opt-30b --machine pc-high
                                         analytic roofline throughput bounds
    repro attribution --model opt-6.7b --machine pc-low
                                         decompose one iteration: roofline
                                         components, critical path, what-if
                                         knob sensitivity
    repro bench-baseline [--quick] [--out BENCH_baseline.json]
                                         record the canonical benchmark suite
    repro bench-check [--tolerance 0.05] [--report diff.json]
                                         re-run the suite, diff against the
                                         committed baseline, exit non-zero on
                                         regression
    repro check [paths ...] [--only lint,schedule] [--rules ...]
                [--json-out report.json] [--full]
                                         one static pass (simulation
                                         discipline, units, seed
                                         provenance) and schedule replay
                                         over the bench grid, in one
                                         merged report

Also runnable as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.bench import (
    run_ablation_impact_weighting,
    run_ablation_predictor_budget,
    run_ablation_selective_sync,
    run_ablation_solver_batching,
    run_ablation_sync_overhead,
    run_continuous_batching,
    run_fig04,
    run_fig05,
    run_fig06,
    run_fig09_modeled,
    run_fig09_trained,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_fig16_measured,
    run_fig16_modeled,
    run_fig17,
    run_fault_tolerance,
    run_fig18,
    run_prompt_heavy,
    run_table2,
)
from repro.bench.report import format_table
from repro.bench.runner import ENGINE_CLASSES, make_engine
from repro.check.report import CHECK_TOOLS
from repro.core.pipeline import POLICIES, build_plan
from repro.engine.plan_io import save_plan
from repro.hardware.memory import OutOfMemoryError
from repro.hardware.spec import MACHINE_PRESETS
from repro.models.config import MODEL_PRESETS
from repro.quant.formats import DTYPE_PRESETS
from repro.serving.fleet.policies import ROUTER_POLICIES
from repro.serving.policies import SERVING_POLICIES

__all__ = ["main", "FIGURES"]

FIGURES: dict[str, Callable[[], list[dict]]] = {
    "fig04": run_fig04,
    "fig05": run_fig05,
    "fig06": run_fig06,
    "fig09-trained": run_fig09_trained,
    "fig09-modeled": run_fig09_modeled,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "fig15": run_fig15,
    "fig16-modeled": run_fig16_modeled,
    "fig16-measured": run_fig16_measured,
    "fig17": run_fig17,
    "fig18": run_fig18,
    "table2": run_table2,
    "ablation-sync": run_ablation_sync_overhead,
    "ablation-selective-sync": run_ablation_selective_sync,
    "ablation-predictor-budget": run_ablation_predictor_budget,
    "ablation-solver-batching": run_ablation_solver_batching,
    "ablation-impact-weighting": run_ablation_impact_weighting,
    "ablation-prompt-heavy": run_prompt_heavy,
    "continuous-batching": run_continuous_batching,
    "fault-tolerance": run_fault_tolerance,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PowerInfer (SOSP 2024) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list model presets")
    sub.add_parser("machines", help="list machine presets")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", required=True, choices=sorted(MODEL_PRESETS))
        p.add_argument("--machine", required=True, choices=sorted(MACHINE_PRESETS))
        p.add_argument("--dtype", default="fp16", choices=sorted(DTYPE_PRESETS))
        p.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser("simulate", help="simulate one request")
    add_common(sim)
    sim.add_argument("--engine", default="powerinfer", choices=sorted(ENGINE_CLASSES))
    sim.add_argument("--input", type=int, default=64, dest="input_len")
    sim.add_argument("--output", type=int, default=128, dest="output_len")
    sim.add_argument("--batch", type=int, default=1)

    cmp_ = sub.add_parser("compare", help="compare all engines on one request")
    add_common(cmp_)
    cmp_.add_argument("--input", type=int, default=64, dest="input_len")
    cmp_.add_argument("--output", type=int, default=128, dest="output_len")

    plan = sub.add_parser("plan", help="run the offline phase and save the plan")
    add_common(plan)
    plan.add_argument("--policy", default="ilp", choices=POLICIES)
    plan.add_argument("--out", required=True, help="output .npz path")

    fig = sub.add_parser("figure", help="regenerate one paper figure/table")
    fig.add_argument("name", choices=sorted(FIGURES))

    serve = sub.add_parser(
        "serve", help="serve a Poisson request stream through the serving loop"
    )
    add_common(serve)
    serve.add_argument("--engine", default="powerinfer", choices=sorted(ENGINE_CLASSES))
    serve.add_argument("--rate", type=float, default=0.1, help="requests/second")
    serve.add_argument("--requests", type=int, default=30)
    serve.add_argument(
        "--max-batch",
        type=int,
        default=8,
        dest="max_batch",
        help="concurrently running requests; 1 serves whole requests FCFS",
    )
    serve.add_argument(
        "--scheduler",
        default="fcfs",
        choices=sorted(SERVING_POLICIES),
        help="iteration policy; 'static' admits only into an empty batch",
    )
    serve.add_argument(
        "--chunk-tokens",
        type=int,
        default=64,
        dest="chunk_tokens",
        help="per-iteration prompt-token cap for --scheduler chunked",
    )
    serve.add_argument(
        "--kv-gib",
        type=float,
        default=0.5,
        dest="kv_gib",
        help="KV-cache budget: withheld from neuron placement at plan time "
        "and used as the admission budget",
    )
    serve.add_argument("--slo-ttft", type=float, default=2.0, dest="slo_ttft")
    serve.add_argument("--slo-tbt", type=float, default=1.0, dest="slo_tbt")
    robust = serve.add_argument_group("faults and tracing")
    robust.add_argument(
        "--faults",
        default=None,
        help="fault schedule: a JSON fault-event file (see docs/serving.md), "
        "'canonical' for the degrade/squeeze/stall timeline, or 'none'; "
        "with a schedule, naive and degradation-aware serving are compared",
    )
    robust.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        dest="fault_seed",
        help="generate a random fault schedule from this seed",
    )
    robust.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request completion deadline, seconds after arrival",
    )
    robust.add_argument(
        "--max-queue",
        type=int,
        default=None,
        dest="max_queue",
        help="admission-queue bound; later arrivals are shed",
    )
    robust.add_argument("--max-retries", type=int, default=2, dest="max_retries")
    robust.add_argument(
        "--trace",
        default=None,
        help="write a Chrome trace_event JSON of the run (open in Perfetto)",
    )
    robust.add_argument(
        "--jsonl",
        default=None,
        help="with --trace: also write the event log as JSONL",
    )
    robust.add_argument(
        "--png",
        default=None,
        help="with --trace: also render a timeline figure (requires matplotlib)",
    )
    robust.add_argument(
        "--summary",
        default=None,
        help="with --trace: also write the report + telemetry summary as JSON",
    )

    fleet = sub.add_parser(
        "fleet",
        help="run the canonical 3-replica fleet chaos scenario and validate it",
    )
    fleet.add_argument(
        "--policy", default="round-robin", choices=sorted(ROUTER_POLICIES)
    )
    fleet.add_argument("--requests", type=int, default=48)
    fleet.add_argument(
        "--sessions",
        type=int,
        default=None,
        help="tag conversation ids 0..N-1 onto the stream (session-affinity)",
    )
    fleet.add_argument(
        "--no-chaos",
        action="store_true",
        dest="no_chaos",
        help="skip the replica crash (fault-free reference fleet)",
    )
    fleet.add_argument(
        "--no-failover",
        action="store_true",
        dest="no_failover",
        help="blind-router ablation: keep dispatching to dead replicas",
    )
    fleet.add_argument(
        "--disaggregate",
        action="store_true",
        help="prefill on the A100 replica, decode on the PCs, KV streamed over",
    )
    fleet.add_argument(
        "--hedge", action="store_true", help="hedge deadline-critical dispatches"
    )
    fleet.add_argument(
        "--brownout",
        action="store_true",
        help="shed low-priority arrivals while a replica is detected down",
    )
    fleet.add_argument(
        "--trace", default=None, help="write a Chrome trace of the fleet run"
    )
    fleet.add_argument(
        "--summary",
        default=None,
        help="write the fleet report JSON (a deep run adds the energy "
        "document, --explain the timeline)",
    )
    fleet.add_argument(
        "--verify-out",
        default=None,
        dest="verify_out",
        help="write the fleet validator verdict as JSON",
    )
    fleet.add_argument(
        "--deep-trace",
        default=None,
        dest="deep_trace",
        help=(
            "write the merged cross-replica Chrome trace (one process lane "
            "per replica plus the router); turns on deep fleet tracing"
        ),
    )
    fleet.add_argument(
        "--alerts",
        default=None,
        help="write the SLO burn-rate alert log as JSON (deep tracing)",
    )
    fleet.add_argument(
        "--timeseries",
        default=None,
        help="write the sampled fleet time-series as JSONL (deep tracing)",
    )
    fleet.add_argument(
        "--explain",
        type=int,
        default=None,
        metavar="RID",
        help="print request RID's cross-replica causal timeline (deep tracing)",
    )

    energy = sub.add_parser(
        "energy",
        help="J/token, average watts, and carbon accounting",
    )
    energy.add_argument("--model", default="opt-6.7b", choices=sorted(MODEL_PRESETS))
    energy.add_argument("--machine", default="pc-low", choices=sorted(MACHINE_PRESETS))
    energy.add_argument("--dtype", default="int4", choices=sorted(DTYPE_PRESETS))
    energy.add_argument("--seed", type=int, default=0)
    energy.add_argument("--input", type=int, default=64, dest="input_len")
    energy.add_argument("--output", type=int, default=128, dest="output_len")
    energy.add_argument("--batch", type=int, default=1)
    energy.add_argument(
        "--carbon-intensity",
        type=float,
        default=None,
        dest="carbon_intensity",
        help="grid carbon intensity in gCO2/kWh (default: 400, the global mean)",
    )
    energy.add_argument(
        "--whatif",
        action="store_true",
        help="also print the perf-per-watt knob sensitivity of a decode iteration",
    )
    energy.add_argument(
        "--json",
        default=None,
        dest="json_out",
        help="also write the energy report as JSON",
    )

    bounds = sub.add_parser("bounds", help="analytic roofline throughput bounds")
    add_common(bounds)

    attr = sub.add_parser(
        "attribution",
        help="attribute one iteration's time: decomposition, critical path, what-if",
    )
    add_common(attr)
    attr.add_argument("--engine", default="powerinfer", choices=sorted(ENGINE_CLASSES))
    attr.add_argument(
        "--ctx", type=int, default=128, help="context length of the decode iteration"
    )
    attr.add_argument("--batch", type=int, default=1)
    attr.add_argument(
        "--group",
        default="device",
        choices=("device", "tag", "layer"),
        help="grouping for the decomposition table",
    )

    bench_base = sub.add_parser(
        "bench-baseline", help="run the canonical suite and write the baseline"
    )
    bench_base.add_argument(
        "--out", default="BENCH_baseline.json", help="baseline JSON output path"
    )
    bench_base.add_argument(
        "--quick", action="store_true", help="small suite (tests / local iteration)"
    )

    bench_check = sub.add_parser(
        "bench-check", help="re-run the suite and diff against the baseline"
    )
    bench_check.add_argument(
        "--baseline", default="BENCH_baseline.json", help="baseline JSON to compare to"
    )
    bench_check.add_argument(
        "--tolerance", type=float, default=0.05, help="per-metric relative tolerance"
    )
    bench_check.add_argument(
        "--report", default=None, help="also write the structured diff as JSON"
    )

    check = sub.add_parser(
        "check",
        help="static analysis and schedule verification, one merged report",
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories for the static pass (default: src/repro)",
    )
    check.add_argument(
        "--only",
        default=",".join(CHECK_TOOLS),
        help="comma-separated subset of lint,schedule to run (default: all)",
    )
    check.add_argument(
        "--rules",
        default=None,
        help="comma-separated static rules to run (default: all)",
    )
    check.add_argument("--format", default="text", choices=("text", "json"))
    check.add_argument(
        "--json-out", default=None, help="write the merged JSON report here"
    )
    check.add_argument(
        "--full",
        action="store_true",
        help="full verification grid (default: quick)",
    )
    return parser


def _cmd_models() -> int:
    rows = [
        {
            "name": m.name,
            "params_b": m.total_params / 1e9,
            "layers": m.n_layers,
            "d_model": m.d_model,
            "activation": m.activation,
            "fp16_gib": m.weight_bytes(DTYPE_PRESETS["fp16"]) / 2**30,
        }
        for m in MODEL_PRESETS.values()
    ]
    print(format_table(rows, "Model presets"))
    return 0


def _cmd_machines() -> int:
    rows = [
        {
            "name": m.name,
            "gpu": m.gpu.name,
            "gpu_gib": m.gpu.memory_capacity / 2**30,
            "gpu_bw_gbs": m.gpu.memory_bandwidth / 1e9,
            "cpu_gib": m.cpu.memory_capacity / 2**30,
            "link": m.link.name,
        }
        for m in MACHINE_PRESETS.values()
    ]
    print(format_table(rows, "Machine presets"))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    engine = make_engine(args.engine, args.model, args.machine, args.dtype, seed=args.seed)
    result = engine.simulate_request(args.input_len, args.output_len, args.batch)
    print(
        f"{args.engine} / {args.model} / {args.machine} ({args.dtype}): "
        f"{result.tokens_per_second:.2f} tokens/s "
        f"(prompt {result.prompt_time * 1e3:.1f} ms, "
        f"decode {result.decode_latency * 1e3:.1f} ms/token, "
        f"GPU load share {result.gpu_load_share:.0%})"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for name in ENGINE_CLASSES:
        try:
            engine = make_engine(name, args.model, args.machine, args.dtype, seed=args.seed)
            result = engine.simulate_request(args.input_len, args.output_len)
            rows.append(
                {
                    "engine": name,
                    "tokens_per_s": result.tokens_per_second,
                    "decode_ms": result.decode_latency * 1e3,
                    "gpu_load": result.gpu_load_share,
                }
            )
        except OutOfMemoryError as exc:
            rows.append(
                {"engine": name, "tokens_per_s": 0.0, "decode_ms": 0.0, "gpu_load": 0.0,
                 "note": str(exc)[:60]}
            )
    rows.sort(key=lambda r: -r["tokens_per_s"])
    print(format_table(rows, f"{args.model} on {args.machine} ({args.dtype})"))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = build_plan(
        MODEL_PRESETS[args.model],
        MACHINE_PRESETS[args.machine],
        dtype=DTYPE_PRESETS[args.dtype],
        policy=args.policy,
        seed=args.seed,
    )
    save_plan(plan, args.out)
    report = plan.memory_report()
    print(
        f"saved {args.out}: GPU {report.gpu_used / 2**30:.1f}/"
        f"{report.gpu_capacity / 2**30:.1f} GiB, "
        f"GPU neuron-load share {plan.gpu_neuron_load_share():.0%}"
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    rows = FIGURES[args.name]()
    print(format_table(rows, args.name))
    return 0


def _load_faults(args: argparse.Namespace):
    """Resolve --faults / --fault-seed into a FaultSchedule (or None).

    Raises ValueError on conflicting or unreadable inputs.  ``--faults
    canonical`` is the degrade/squeeze/stall timeline of the fault-tolerance
    study; ``--faults none`` (like omitting both flags) injects nothing.
    """
    import json

    from repro.bench.fault_tolerance import default_fault_schedule
    from repro.hardware.faults import FaultSchedule

    if args.faults is not None and args.fault_seed is not None:
        raise ValueError("--faults and --fault-seed are mutually exclusive")
    if args.fault_seed is not None:
        horizon = args.requests / args.rate
        return FaultSchedule.from_seed(args.fault_seed, horizon=horizon)
    if args.faults in (None, "none"):
        return None
    if args.faults == "canonical":
        return default_fault_schedule()
    try:
        with open(args.faults) as fh:
            return FaultSchedule.from_dicts(json.load(fh))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise ValueError(f"{args.faults}: {exc}") from None


def _cmd_serve(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.serving import SLO, ContinuousServer, make_policy, poisson_arrivals
    from repro.telemetry import Tracer
    from repro.workloads import CHATGPT_PROMPTS

    header = f"{args.engine} / {args.model} / {args.machine} ({args.dtype})"
    kv_budget = args.kv_gib * 2**30
    try:
        if args.requests < 1:
            raise ValueError("--requests must be >= 1")
        if args.rate <= 0:
            raise ValueError("--rate must be positive")
        if args.max_batch < 1:
            raise ValueError("--max-batch must be >= 1")
        if kv_budget <= 0:
            raise ValueError("--kv-gib must be positive")
        if args.trace is None and (args.jsonl or args.png or args.summary):
            raise ValueError("--jsonl, --png and --summary require --trace")
        faults = _load_faults(args)
        policy_kwargs = (
            {"max_prefill_tokens": args.chunk_tokens}
            if args.scheduler == "chunked"
            else {}
        )
        policy = make_policy(args.scheduler, **policy_kwargs)
        requests = poisson_arrivals(
            CHATGPT_PROMPTS,
            rate=args.rate,
            n_requests=args.requests,
            rng=np.random.default_rng(args.seed),
            deadline=args.deadline,
        )
        engine = make_engine(
            args.engine,
            args.model,
            args.machine,
            args.dtype,
            seed=args.seed,
            kv_gpu_budget_bytes=kv_budget,
        )
        tracer = Tracer() if args.trace is not None else None
        # A fault schedule adds a naive (non-adapting) server as the
        # reference; the degradation-aware server is traced and reported.
        servers = [
            ContinuousServer(
                engine,
                policy=policy,
                max_batch=args.max_batch,
                kv_budget_bytes=kv_budget,
                faults=faults,
                deadline=args.deadline,
                max_retries=args.max_retries,
                max_queue=args.max_queue,
                degradation=degradation,
                tracer=tracer if degradation else None,
            )
            for degradation in ((False, True) if faults is not None else (True,))
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    slo = SLO(ttft_target=args.slo_ttft, tbt_target=args.slo_tbt)
    reports = [server.run(requests) for server in servers]
    report = reports[-1]
    if faults is not None:
        events = ", ".join(
            f"{e.kind}@{e.start:.1f}s x{e.duration:.1f}s (mag {e.magnitude:.2g})"
            for e in faults.events
        )
        deadline = f"{args.deadline:.3g}s" if args.deadline is not None else "none"
        rows = [
            {
                "server": "degraded" if server.degradation else "naive",
                "slo_attainment": rep.slo_attainment_overall(slo),
                "completed": len(rep.completed),
                "timed_out": len(rep.timed_out),
                "shed": len(rep.shed),
                "failed": len(rep.failed),
                "aborts": rep.n_aborts,
                "retries": rep.n_retries,
                "degraded_s": rep.time_in_degraded_mode,
            }
            for server, rep in zip(servers, reports)
        ]
        print(f"fault schedule: {events or 'empty'}")
        print(
            format_table(
                rows,
                f"{header} under faults — SLO ttft<={args.slo_ttft:.3g}s "
                f"tbt<={args.slo_tbt:.3g}s, deadline {deadline}",
            )
        )
    elif report.completed:
        print(
            f"{header}: served {report.n_requests}/{report.n_submitted} requests "
            f"at {args.rate:.3g}/s, {args.scheduler} scheduling, max batch "
            f"{args.max_batch} — utilization {report.utilization:.0%}, "
            f"p50 latency {report.latency_percentile(50):.1f} s, "
            f"p95 {report.latency_percentile(95):.1f} s, "
            f"{report.tokens_per_second:.1f} tokens/s aggregate"
        )
        print(
            f"  TTFT p50 {report.ttft_percentile(50):.2f} s, "
            f"TBT p99 {report.tbt_percentile(99) * 1e3:.0f} ms, "
            f"peak KV {report.peak_kv_bytes / 2**30:.2f}/"
            f"{report.kv_budget_bytes / 2**30:.2f} GiB, "
            f"SLO (ttft<={args.slo_ttft:.3g}s, tbt<={args.slo_tbt:.3g}s) "
            f"attainment {report.slo_attainment(slo):.0%}, "
            f"goodput {report.goodput(slo):.2f} req/s"
        )
    else:
        print(
            f"{header}: none of {report.n_submitted} requests completed "
            f"({len(report.timed_out)} timed out, {len(report.shed)} shed, "
            f"{len(report.failed)} failed)"
        )
    if tracer is not None:
        _write_trace(args, tracer, report, header)
    return 0


def _write_trace(args: argparse.Namespace, tracer, report, title: str) -> None:  # repro-lint: disable=tracer-default -- exporter; only called after a traced run
    """Export a traced serve run: Chrome trace plus the optional extras."""
    import json

    from repro.serving.metrics import merge_busy_intervals
    from repro.telemetry import save_chrome_trace, save_jsonl

    save_chrome_trace(tracer, args.trace)
    outputs = [args.trace]
    if args.jsonl is not None:
        save_jsonl(tracer, args.jsonl)
        outputs.append(args.jsonl)
    if args.summary is not None:
        summary = tracer.metrics.merge_into(report.to_dict())
        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        outputs.append(args.summary)
    if args.png is not None:
        from repro.telemetry.timeline import MissingDependencyError, plot_timeline

        try:
            plot_timeline(tracer, args.png, title=title)
            outputs.append(args.png)
        except MissingDependencyError as exc:
            print(f"warning: skipped {args.png}: {exc}", file=sys.stderr)

    busy = merge_busy_intervals(report.busy_intervals)
    drift = abs(tracer.busy_union() - busy)
    print(
        f"traced {report.n_iterations} iterations / {report.n_requests} "
        f"completed requests over {report.makespan:.1f} s — "
        f"{len(tracer.task_spans)} task spans, "
        f"{len(tracer.request_spans)} request spans, "
        f"{len(tracer.counters)} counter samples "
        f"(busy-time drift vs report: {drift:.2e} s)"
    )
    print("wrote " + ", ".join(outputs))


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    for flag, value in (("--requests", args.requests), ("--sessions", args.sessions)):
        if value is not None and value < 1:
            print(f"error: {flag} must be >= 1", file=sys.stderr)
            return 1

    from repro.bench.fleet_chaos import (
        DEFAULT_SLO,
        build_fleet,
        default_fleet_monitor,
        fleet_requests,
    )
    from repro.check.schedule import validate_fleet_energy, validate_fleet_run
    from repro.telemetry import FleetTracer, Tracer, save_chrome_trace

    deep = any(
        flag is not None
        for flag in (args.deep_trace, args.alerts, args.timeseries, args.explain)
    )
    if deep:
        tracer = FleetTracer(monitor=default_fleet_monitor(), slo=DEFAULT_SLO)
    else:
        tracer = Tracer() if args.trace is not None else None
    router = build_fleet(
        router_policy=args.policy,
        chaos=not args.no_chaos,
        failover=not args.no_failover,
        disaggregate=args.disaggregate,
        hedge=args.hedge,
        brownout=args.brownout,
        tracer=tracer,
    )
    result = router.run(fleet_requests(args.requests, sessions=args.sessions))
    violations = validate_fleet_run(result, tracer=tracer if deep else None)
    summary = result.to_dict(slo=DEFAULT_SLO)

    fleet_joules = None
    if deep:
        from repro.telemetry.power import (
            fleet_energy,
            fleet_generated_tokens,
            sample_fleet_power,
        )

        # One metering pass feeds the verdict, the summary and the watt
        # lanes, which must be sampled before any export.
        fleet_joules = fleet_energy(result, tracer)
        sample_fleet_power(tracer, fleet_joules)
        energy_violations = validate_fleet_energy(fleet_joules)
        violations += energy_violations
        tokens = fleet_generated_tokens(result)
        summary["energy"] = {
            **fleet_joules.to_dict(),
            "j_per_token": fleet_joules.j_per_token(tokens),
            "generated_tokens": tokens,
            "reconciliation_ok": not energy_violations,
        }

    report = result.report
    rows = [
        {
            "replica": rep.name,
            "role": rep.role,
            "iterations": rep.report.n_iterations,
            "segments": len(rep.report.completed),
            "crashes": len(rep.crash_windows),
            "detected": len(rep.detected_windows),
        }
        for rep in result.replicas
    ]
    if fleet_joules is not None:
        for row in rows:
            part = fleet_joules.replica(row["replica"])
            row["joules"] = round(part.total_joules, 1)
            row["avg_w"] = round(part.avg_watts, 1)
    print(
        format_table(
            rows,
            f"fleet [{args.policy}] — {report.n_submitted} requests, "
            f"{'chaos' if not args.no_chaos else 'no faults'}, "
            f"failover {'off' if args.no_failover else 'on'}",
        )
    )
    print(
        f"goodput {report.goodput(DEFAULT_SLO):.3f} req/s, "
        f"TTFT p99 {report.ttft_percentile(99):.3f} s, "
        f"deadline-miss {report.deadline_miss_rate:.1%}, "
        f"availability {result.availability:.1%} "
        f"(capacity {result.capacity_availability:.1%})"
    )
    counters = ", ".join(f"{k}={v}" for k, v in sorted(result.counters.items()) if v)
    print(f"router counters: {counters or 'none'}")
    verdict = "OK" if not violations else f"{len(violations)} violation(s)"
    print(f"fleet validation: {verdict}")
    for v in violations:
        print(f"  - {v.check}: {v.message}")
    if deep:
        alerts = tracer.alerts
        print(f"burn-rate alerts: {len(alerts)}")
        for alert in alerts:
            print(f"  {alert.format()}")
        drift = abs(
            fleet_joules.metered_joules
            - (fleet_joules.dynamic_joules + fleet_joules.static_joules)
        )
        print(
            f"energy: {fleet_joules.total_joules:.0f} J over "
            f"{fleet_joules.horizon:.1f} s ({fleet_joules.avg_watts:.0f} W avg), "
            f"{fleet_joules.j_per_token(tokens):.2f} J/token, "
            f"{fleet_joules.grams_co2():.2f} gCO2, "
            f"ledger vs meter drift {drift:.2e} J"
        )

    explained = True
    if args.explain is not None:
        from repro.telemetry import explain_request, format_explanation

        explanation = explain_request(
            tracer, result, args.explain, energy=fleet_joules
        )
        explained = bool(explanation["timeline"])
        if explained:
            summary["explanation"] = explanation
            print(format_explanation(explanation))
        else:
            print(
                f"error: request {args.explain} not found in this scenario "
                f"(ids run 0..{args.requests - 1})",
                file=sys.stderr,
            )

    outputs = []
    if args.trace is not None:
        # In deep mode the router lane is still a plain Tracer.
        save_chrome_trace(tracer.router if deep else tracer, args.trace)
        outputs.append(args.trace)
    if args.deep_trace is not None:
        from repro.telemetry import save_fleet_chrome_trace

        save_fleet_chrome_trace(tracer, args.deep_trace)
        outputs.append(args.deep_trace)
    if args.alerts is not None:
        with open(args.alerts, "w", encoding="utf-8") as fh:
            json.dump(tracer.monitor.to_dicts(), fh, indent=2)
            fh.write("\n")
        outputs.append(args.alerts)
    if args.timeseries is not None:
        tracer.timeseries.save_jsonl(args.timeseries)
        outputs.append(args.timeseries)
    if args.summary is not None:
        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        outputs.append(args.summary)
    if args.verify_out is not None:
        document = {
            "ok": not violations,
            "n_violations": len(violations),
            "violations": [v.to_dict() for v in violations],
        }
        with open(args.verify_out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        outputs.append(args.verify_out)
    if outputs:
        print("wrote " + ", ".join(outputs))
    return 0 if explained and not violations else 1


def _cmd_energy(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry.power import (
        DEFAULT_CARBON_INTENSITY,
        PowerModel,
        request_energy,
    )

    model = (
        PowerModel(carbon_intensity=args.carbon_intensity)
        if args.carbon_intensity is not None
        else None
    )
    intensity = (
        args.carbon_intensity
        if args.carbon_intensity is not None
        else DEFAULT_CARBON_INTENSITY
    )
    rows = []
    reports: dict[str, dict] = {}
    for name in ENGINE_CLASSES:
        try:
            engine = make_engine(
                name, args.model, args.machine, args.dtype, seed=args.seed
            )
        except OutOfMemoryError as exc:
            rows.append({"engine": name, "note": str(exc)[:60]})
            continue
        e = request_energy(
            engine, args.input_len, args.output_len, args.batch, model=model
        )
        rows.append(
            {
                "engine": name,
                "j_per_token": e.j_per_token,
                "total_j": e.total_joules,
                "avg_w": e.avg_watts,
                "gco2_per_req": e.grams_co2(),
            }
        )
        reports[name] = e.to_dict()
    rows.sort(key=lambda r: r.get("j_per_token", float("inf")))
    print(
        format_table(
            rows,
            f"{args.model} on {args.machine} ({args.dtype}) — "
            f"{args.input_len}+{args.output_len} tokens, batch {args.batch}, "
            f"carbon intensity {intensity:.0f} gCO2/kWh",
        )
    )
    if args.whatif:
        from repro.analysis import whatif_power_sensitivity

        engine = make_engine(
            "powerinfer", args.model, args.machine, args.dtype, seed=args.seed
        )
        ctx = args.input_len + args.output_len // 2
        wrows = [
            r.as_row() for r in whatif_power_sensitivity(engine, ctx, 1, args.batch)
        ]
        print()
        print(
            format_table(
                wrows,
                f"perf-per-watt what-if (powerinfer decode at ctx={ctx})",
            )
        )
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json_out}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    from repro.analysis import throughput_bounds

    bounds = throughput_bounds(
        MODEL_PRESETS[args.model],
        MACHINE_PRESETS[args.machine],
        dtype=DTYPE_PRESETS[args.dtype],
    )
    print(
        format_table(
            bounds.as_rows(),
            f"Roofline bounds — {args.model} on {args.machine} ({args.dtype}); "
            f"GPU holds {bounds.gpu_weight_fraction:.0%} of weights, "
            f"{bounds.active_fraction:.0%} of bytes touched per token",
        )
    )
    return 0


def _cmd_attribution(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_iteration, whatif_sensitivity

    engine = make_engine(args.engine, args.model, args.machine, args.dtype, seed=args.seed)
    analysis = analyze_iteration(engine, args.ctx, 1, args.batch)
    deco, cp = analysis.decomposition, analysis.critical_path

    header = f"{args.engine} / {args.model} / {args.machine} ({args.dtype})"
    print(
        format_table(
            deco.as_rows(args.group),
            f"{header}: decode iteration at ctx={args.ctx} — seconds by {args.group}",
        )
    )
    shares = deco.shares()
    share_text = ", ".join(f"{k} {v:.0%}" for k, v in shares.items() if v > 0.005)
    print(f"\nshares: {share_text}")
    print(
        f"critical path: {len(cp.segments)} tasks, gating resource "
        f"{cp.gating_resource()} ({cp.time_by_resource()})"
    )
    gates = {}
    for seg in cp.segments:
        gates[seg.gate] = gates.get(seg.gate, 0) + 1
    print(f"gates along path: {gates}")

    rows = [r.as_row() for r in whatif_sensitivity(engine, args.ctx, 1, args.batch)]
    print()
    print(format_table(rows, "what-if sensitivity (analytic re-pricing)"))
    return 0


def _cmd_bench_baseline(args: argparse.Namespace) -> int:
    from repro.bench.baseline import write_baseline

    document = write_baseline(args.out, quick=args.quick)
    print(
        f"wrote {args.out}: {len(document['metrics'])} metrics "
        f"({document['suite']} suite)"
    )
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    import json

    from repro.bench.baseline import (
        check_against_baseline,
        format_diff,
        load_baseline,
        run_suite,
    )

    try:
        baseline = load_baseline(args.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {args.baseline}: {exc}", file=sys.stderr)
        return 2
    current = run_suite(quick=baseline.get("suite") == "quick")
    diff = check_against_baseline(baseline, current, tolerance=args.tolerance)
    print(format_diff(diff))
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(diff.as_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.report}")
    return 0 if diff.ok else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check.report import check_to_json, format_check_text, run_check

    def names(value: str) -> list[str]:
        return [name.strip() for name in value.split(",") if name.strip()]

    try:
        report = run_check(
            args.paths,
            only=names(args.only),
            rules=names(args.rules) if args.rules is not None else None,
            quick=not args.full,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(check_to_json(report), end="")
    else:
        print(format_check_text(report))
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(check_to_json(report))
        print(f"wrote {args.json_out}")
    return 0 if report.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "models":
            return _cmd_models()
        if args.command == "machines":
            return _cmd_machines()
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "fleet":
            return _cmd_fleet(args)
        if args.command == "energy":
            return _cmd_energy(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "attribution":
            return _cmd_attribution(args)
        if args.command == "bench-baseline":
            return _cmd_bench_baseline(args)
        if args.command == "bench-check":
            return _cmd_bench_check(args)
        if args.command == "check":
            return _cmd_check(args)
    except OutOfMemoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
