"""The repository's end-to-end benchmark.

One client process runs a workload as a closed loop -- the next request
is sent when the previous one has completed -- for ``--seconds``, checks
every output, and prints each end-to-end metric by name with its unit.
``--trace 1`` instead runs a fixed number of requests with spans around
every layer boundary, fills the rest of the time with untraced requests
to measure the tracing overhead, and prints the per-layer metrics.  The last
line of standard output is the JSON result; the run exits non-zero when
a correctness gate failed.

    python3 perfbench/run.py --workload grid-congested --seed 1 \\
        --seconds 40 --trace 0

Workloads, metrics and the seed reserved for claims: ``README.md`` here
and ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import checkout
from setup_probe import set_up

#: fresh-interpreter set-up probes per untraced run (plus the run's own)
PROBES = 4

#: ``workloads.WORKLOADS`` keys, spelled out because importing that
#: module imports the program, which ``setup_s`` times
WORKLOAD_NAMES = ("grid-congested", "warm-queue")

END_TO_END = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "request_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "delivered_frac": "frac",
    "goodput": "frac",
}


@dataclass
class Request:
    """One timed request of the closed loop."""

    index: int
    seconds: float
    scenarios: int
    problems: list
    kept: tuple = field(default=(), repr=False)  # (scenarios, reports)


def measure(workload, start: int, *, seconds: float = 0.0,
            requests: int = 0, tracer=None) -> list:
    """Send requests ``start, start + 1, ...`` until ``seconds`` have
    passed and at least ``requests`` requests were sent."""
    records = []
    index = start
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or index - start < requests:
        scenarios = workload.scenarios(index)
        first_span = 0
        if tracer:
            tracer.request, first_span = index, len(tracer.spans)
        began = perf_counter()
        try:
            reports, error = workload.submit(scenarios, index), None
        except Exception as exc:  # a failed request counts, it does not abort
            reports, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - began
        workload.finish(index)
        if error is None:
            bound_calls = (tracer.count("packing.bound", first_span)
                           if tracer else None)
            problems = workload.check(index, scenarios, reports, bound_calls)
        else:
            problems = [error]
        kept = (scenarios, reports) \
            if index < workload.quality_requests and reports else ()
        records.append(Request(index, elapsed, len(scenarios), problems,
                               kept))
        index += 1
    return records


def scenarios_per_s(records) -> float:
    done = [r for r in records if not r.problems]
    busy = sum(r.seconds for r in done)
    return sum(r.scenarios for r in done) / busy if busy else 0.0


def quality(workload, records) -> tuple:
    """``(delivered_frac, goodput)`` over the quality subsample.  Runs the
    subsample's gates outside the timed window: throughput within the
    bound, and parity with the reference engine; a failure marks its
    request failed."""
    throughput = requests = bound = 0.0
    for record in records[:workload.quality_requests]:
        if not record.kept:
            continue
        scenarios, reports = record.kept
        for report, value in zip(reports, workload.bounds(scenarios, reports)):
            throughput += report.throughput
            requests += report.requests
            bound += value
            if report.throughput > value + 1e-9:
                record.problems.append(f"throughput {report.throughput} "
                                       f"above bound {value}")
        if record.index < workload.parity_requests:
            try:
                record.problems += workload.parity(scenarios, reports)
            except Exception as exc:  # counted like any failed gate
                record.problems.append(
                    f"reference replay raised {type(exc).__name__}: {exc}")
    return (throughput / requests if requests else 0.0,
            throughput / bound if bound else 0.0)


def probe(args, workdir) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(checkout.ROOT / "perfbench" / "setup_probe.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--workdir", str(workdir)],
        cwd=checkout.ROOT, capture_output=True, text=True, timeout=60,
        check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def stamp(args) -> dict:
    """What a comparison must hold equal before pairing two runs."""
    import numpy

    from repro.network import kernel

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "kernel": kernel.active_kernel(),
        "numba": kernel.numba_available(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run(args, workdir) -> tuple:
    """``(workload, metrics with units, records, warming)`` of one run;
    ``warming`` holds the gate problems of each untimed cold batch."""
    if not args.trace:
        workload, setup, warming = set_up(args.workload, args.seed, workdir,
                                          prepare=True)
        setups = [setup] + [probe(args, workdir) for _ in range(PROBES)]
        records = measure(workload, 0, seconds=args.seconds,
                          requests=workload.quality_requests)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        from spans import Tracer, unit

        # spans of the untimed preparation and of a fixed set of traced
        # requests, so per-layer numbers repeat for a seed; untraced
        # requests of the same shape fill the rest of the run and give
        # the tracing overhead
        tracer = Tracer()
        workload, _, warming = set_up(args.workload, args.seed, workdir,
                                      traced=True, prepare=True,
                                      tracer=tracer)
        began = perf_counter()
        with tracer:
            traced = measure(workload, 0, requests=workload.trace_requests,
                             tracer=tracer)
        count = len(traced)
        untraced = measure(
            workload, count,
            seconds=args.seconds - (perf_counter() - began),
            requests=max(count, workload.quality_requests - count))
        records = traced + untraced
        checkout.OUT.mkdir(exist_ok=True)
        tracer.write(checkout.OUT / f"spans-{args.workload}-seed{args.seed}"
                                    ".jsonl")
    delivered, goodput = quality(workload, records)
    if args.trace:
        before, after = scenarios_per_s(untraced), scenarios_per_s(traced)
        metrics = tracer.metrics()
        metrics.update({"trace.untraced_scenarios_per_s": before,
                        "trace.traced_scenarios_per_s": after,
                        "trace.slowdown": before / after if after else 0.0})
        return (workload, {name: (value, unit(name))
                           for name, value in metrics.items()}, records,
                warming)
    latencies = [r.seconds * 1e3 for r in records if not r.problems]
    if len(latencies) < 2:  # all but one request failed: still report
        latencies = (latencies or [0.0]) * 2
    values = {
        "setup_s": statistics.median(setups),
        "scenarios_per_s": scenarios_per_s(records),
        "request_p90_ms": statistics.quantiles(
            latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb,
        "delivered_frac": delivered,
        "goodput": goodput,
    }
    return (workload, {name: (value, END_TO_END[name])
                       for name, value in values.items()}, records, warming)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the packet-routing program.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    checkout.add_source_path()

    workdir = checkout.work_dir(f"{args.workload}-{args.seed}")
    try:
        workload, metrics, records, warming = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = stamp(args)
    failed = [r for r in records if r.problems]
    problems = [f"warming batch {k}: {p}"
                for k, batch in enumerate(warming) for p in batch]
    problems += [f"request {r.index}: {p}" for r in failed for p in r.problems]
    correct = not problems
    attempted = len(records) + len(warming)
    failures = len(failed) + sum(1 for batch in warming if batch)

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    warmed = f" after {len(warming)} warming batches" if warming else ""
    print(f"{args.workload}: {len(records)} requests{warmed}, "
          f"{sum(r.scenarios for r in records)} scenarios, "
          f"{failures} failed (failed_frac "
          f"{failures / attempted:.4f}); quality over the first "
          f"{workload.quality_requests} requests; median request "
          f"{statistics.median(r.seconds for r in records) * 1e3:.3f} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<38} {value:>16.6f} {unit}")
    for problem in problems[:20]:
        print(f"GATE FAILED: {problem}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failures,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    checkout.OUT.mkdir(exist_ok=True)
    record_path = checkout.OUT / (f"result-{args.workload}-seed{args.seed}"
                                  f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(
        dict(result, env=env, latencies_ms=[r.seconds * 1e3 for r in records],
             problems=problems), indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
