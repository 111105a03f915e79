"""The benchmark's workloads: what each one builds, runs and checks.

Each workload has three phases, timed separately by the harness:

* ``setup()`` builds every deployment plan and engine the workload needs
  (the harness clears the plan cache first, so plans are built cold);
* ``prepare()`` makes the fresh per-run state, such as new fleets whose
  iteration-cost caches start empty, and returns the calls to time, one per
  operation or group of operations;
* ``check(results)`` validates what those calls returned and condenses the
  simulated outputs into a digest.

Plans always use the canonical profile seed 0, as ``repro`` itself does.
The benchmark's ``--seed`` draws the request streams of ``fleet-chaos``;
``paper-sweep`` and ``fleet-deep-trace`` run fixed inputs on every seed.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.bench import fleet_chaos
from repro.bench.end_to_end import run_end_to_end
from repro.bench.fig14 import run_fig14
from repro.bench.runner import make_engine
from repro.check import schedule as check_schedule
from repro.engine.base import PerfEngine
from repro.serving import poisson_arrivals
from repro.telemetry import FleetTracer, power
from repro.workloads import CHATGPT_PROMPTS

DEFAULT_SEED = fleet_chaos.SEED  # the canonical `repro fleet` stream seed


@dataclass
class Outcome:
    """What one timed run produced, after validation."""

    attempted: int  # operations: priced requests, or fleet runs
    iterations: int  # simulated iterations (fleet) or iteration DAGs priced
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    outputs: dict = field(default_factory=dict)  # simulated results, for the digest

    @property
    def digest(self) -> str:
        """Hash of the simulated outputs; equal digests mean bit-identical outputs."""
        text = json.dumps(self.outputs, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---- paper-sweep ---------------------------------------------------------------

PAPER_MACHINE = "pc-high"
PAPER_DTYPE = "int4"
_DECODE_SAMPLES = inspect.signature(PerfEngine.simulate_request).parameters[
    "decode_samples"
].default
FIG14_OUTPUT_LEN = inspect.signature(run_fig14).parameters["output_len"].default


class PaperSweep:
    """Figure 10/13 end-to-end rows plus the Figure 14 batch sweep, with the
    paper's input and output lengths (the functions' defaults)."""

    name = "paper-sweep"
    # One large model keeps a run, with three cold set-ups, inside the
    # benchmark's time budget.  OPT-30B's FFN is as wide as LLaMA-70B's
    # (28,672 neurons), so each split prices arrays of the 70B rows' size,
    # and llama.cpp's plan pays profile synthesis as on every model.
    model = "opt-30b"

    def __init__(self, seed: int) -> None:
        del seed  # the paper's grid is fixed: there is no stream to draw

    def setup(self) -> None:
        for engine in ("powerinfer", "llama.cpp"):
            make_engine(engine, self.model, PAPER_MACHINE, PAPER_DTYPE)

    def prepare(self):
        return [
            lambda: run_end_to_end(PAPER_MACHINE, PAPER_DTYPE, (self.model,)),
            lambda: run_fig14(self.model, PAPER_MACHINE, PAPER_DTYPE),
        ]

    def check(self, results) -> Outcome:
        rows, batches = results
        priced = [
            (row, row["output"]) for row in rows if not row["note"].startswith("skipped")
        ] + [(row, FIG14_OUTPUT_LEN) for row in batches]
        out = Outcome(attempted=0, iterations=0)
        for row, output_len in priced:
            for key in ("powerinfer_tps", "llamacpp_tps"):
                out.attempted += 1
                out.iterations += 1 + min(_DECODE_SAMPLES, output_len)
                tps = row[key]
                if not (math.isfinite(tps) and tps > 0):
                    out.failed += 1
                    out.problems.append(f"{key} = {tps!r} in {row}")
        out.outputs = {
            "rows": [
                [r["model"], r["input"], r["output"], r["powerinfer_tps"], r["llamacpp_tps"]]
                for r in rows
            ],
            "fig14": [[r["batch"], r["powerinfer_tps"], r["llamacpp_tps"]] for r in batches],
        }
        return out


# ---- fleet workloads -------------------------------------------------------------

STREAM_STRIDE = 1000


def fleet_requests(seed: int, n_requests: int = fleet_chaos.N_REQUESTS):
    """The `repro fleet` request stream drawn from ``seed``.

    Built exactly as :func:`repro.bench.fleet_chaos.fleet_requests` builds
    it, so seed 42 gives the canonical stream.
    """
    return poisson_arrivals(
        CHATGPT_PROMPTS,
        rate=fleet_chaos.RATE_RPS,
        n_requests=n_requests,
        rng=np.random.default_rng(seed),
        deadline=fleet_chaos.DEADLINE_S,
    )


def _fleet_problems(result, requests, violations) -> list[str]:
    problems = [f"{v.check}: {v.message}" for v in violations]
    if result.report.n_submitted != len(requests):
        problems.append(f"{result.report.n_submitted} of {len(requests)} requests accounted for")
    return problems


def _fleet_outputs(result) -> dict:
    report = result.report
    return {
        "goodput_rps": report.goodput(fleet_chaos.DEFAULT_SLO),
        "ttft_p99_s": report.ttft_percentile(99),
        "deadline_miss_rate": report.deadline_miss_rate,
        "iterations": report.n_iterations,
        "dispositions": [
            len(report.completed),
            len(report.timed_out),
            len(report.shed),
            len(report.failed),
        ],
        "counters": result.counters,
        "horizon_s": result.horizon,
    }


class FleetChaos:
    """The canonical `repro fleet` scenario, untraced, on seeded streams."""

    name = "fleet-chaos"
    # The work of one 48-request stream depends on its seed: over seeds
    # 101-110 its iteration count spreads 0.22 (IQR over median).  A run
    # therefore serves several streams, each on a fresh fleet, which
    # narrows the spread by about the square root of their number.
    # Stream i of seed s is drawn from seed s + 1000 i: seed 42's first
    # stream is the canonical one, and seeds below 1000 share no stream.
    n_streams = 4

    def __init__(self, seed: int) -> None:
        self.streams = [fleet_requests(seed + STREAM_STRIDE * i) for i in range(self.n_streams)]

    def setup(self) -> None:
        fleet_chaos.build_fleet()

    def prepare(self):
        routers = [fleet_chaos.build_fleet() for _ in self.streams]
        return [
            lambda router=router, requests=requests: router.run(requests)
            for router, requests in zip(routers, self.streams)
        ]

    def check(self, results) -> Outcome:
        out = Outcome(attempted=len(results), iterations=0, outputs={"streams": []})
        for run, requests in zip(results, self.streams):
            problems = _fleet_problems(run, requests, check_schedule.validate_fleet_run(run))
            out.iterations += run.report.n_iterations
            out.failed += int(bool(problems))
            out.problems += problems
            out.outputs["streams"].append(_fleet_outputs(run))
        return out


class FleetDeepTrace:
    """The same scenario under deep tracing, validation and energy metering,
    as `repro fleet --deep-trace` and `repro energy --fleet` run it."""

    name = "fleet-deep-trace"
    # Deep tracing costs about 5 ms of host time per simulated iteration,
    # so a run can afford only a few hundred iterations, and short runs
    # let the fastest of several catch a quiet stretch of a noisy host.  A
    # seeded stream that short moves the work several-fold from seed to
    # seed (4 requests: iterations spread 0.82 over seeds 101-110), which
    # would swamp any host-time change.  So every seed serves the first
    # three requests of the canonical stream (147 iterations).  Every
    # replica is still traced and metered over a horizon that spans the
    # crash window; failover itself is exercised by fleet-chaos.
    n_requests = 3

    def __init__(self, seed: int) -> None:
        del seed  # fixed input: see above
        self.requests = fleet_chaos.fleet_requests()[: self.n_requests]

    def setup(self) -> None:
        fleet_chaos.build_fleet()

    def prepare(self):
        tracer = FleetTracer(
            monitor=fleet_chaos.default_fleet_monitor(), slo=fleet_chaos.DEFAULT_SLO
        )
        router = fleet_chaos.build_fleet(tracer=tracer)

        def traced_run():
            result = router.run(self.requests)
            violations = check_schedule.validate_fleet_run(result, tracer=tracer)
            return result, violations, power.fleet_energy(result, tracer)

        return [traced_run]

    def check(self, results) -> Outcome:
        ((result, violations, energy),) = results
        violations = violations + check_schedule.validate_fleet_energy(energy)
        problems = _fleet_problems(result, self.requests, violations)
        outputs = _fleet_outputs(result)
        outputs["joules"] = energy.total_joules
        outputs["j_per_token"] = energy.j_per_token(power.fleet_generated_tokens(result))
        return Outcome(
            attempted=1,
            iterations=result.report.n_iterations,
            problems=problems,
            failed=int(bool(problems)),
            outputs={"streams": [outputs]},
        )


WORKLOADS = {w.name: w for w in (PaperSweep, FleetChaos, FleetDeepTrace)}
