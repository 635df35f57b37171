"""The two benchmark workloads and their correctness gates.

A *request* is one call a client makes and waits for: one ``run_batch``
call, or one queue submission (create, drain with an in-process worker,
collect).  Each workload turns ``(seed, request index)`` into the
request's scenarios, with scenario seeds no other request uses, so a
cold batch never replays an offline bound from an in-process memo.

Importing this module imports the program (``repro``), so a caller that
times set-up starts its clock before the import.
"""

from __future__ import annotations

import importlib
import math
import shutil

from repro.api import NetworkSpec, Scenario, WorkloadSpec, ensure_providers
from repro.api.queue import WorkQueue
from repro.api.service import QueueWorker
from repro.network import kernel
from repro.packing.cd import cd_cut_bound

# the module, looked up at call time so runtime span wrappers see the
# calls (``repro.api`` re-exports a *function* named ``run``)
api_run = importlib.import_module("repro.api.run")

#: index of the untimed warm-up request; timed requests count up from 0
WARMUP = 999_999

#: RunReport fields compared against the reference engine (the bound is
#: engine-independent and is checked separately)
MEASURED = ("requests", "throughput", "late", "rejected", "preempted",
            "latency_mean", "latency_max", "steps")


def activate() -> str:
    """Load every provider and the step kernel; returns the kernel name."""
    ensure_providers()
    return kernel.activate()


def fresh_seed(seed: int, index: int, slot: int = 0) -> int:
    """A scenario seed unique to ``(benchmark seed, request, slot)``."""
    return (seed * 1_000_000 + index) * 1_000 + slot


def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


class Workload:
    """One closed-loop workload; subclasses fill in the request shape."""

    name = ""
    #: the first this-many requests form the fixed quality subsample:
    #: ``delivered_frac``/``goodput`` are computed over them only, so the
    #: quality metrics depend on the seed and never on how fast a run went
    quality_requests = 1
    #: how many of those requests are replayed on the reference engine
    parity_requests = 1
    #: requests a traced run records spans for (a fixed amount of work)
    trace_requests = 1

    def __init__(self, seed: int, workdir, *, traced: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.traced = traced

    def prepare(self, tracer=None) -> list:
        """Untimed preparation, excluded from ``setup_s``: one list of
        gate problems per batch it ran (empty when it passed).  With a
        ``tracer``, its spans are recorded."""
        return []

    def scenarios(self, index: int) -> list:
        raise NotImplementedError

    def submit(self, scenarios: list, index: int) -> list:
        """The timed request; returns one report per scenario."""
        raise NotImplementedError

    def finish(self, index: int) -> None:
        """Untimed clean-up after a request."""

    def warm_up(self) -> None:
        self.submit(self.scenarios(WARMUP), WARMUP)
        self.finish(WARMUP)

    def check(self, index, scenarios, reports, bound_calls=None) -> list:
        """Correctness problems of one request (empty when it passed)."""
        if len(reports) != len(scenarios):
            return [f"{len(reports)} reports for {len(scenarios)} scenarios"]
        problems = []
        for scenario, report in zip(scenarios, reports):
            if report.scenario.key() != scenario.key():
                problems.append(f"report for another scenario: {scenario}")
            if not 0 <= report.throughput <= report.requests:
                problems.append(f"throughput {report.throughput} outside "
                                f"[0, {report.requests}]: {scenario}")
            if math.isfinite(report.bound) \
                    and report.throughput > report.bound + 1e-9:
                problems.append(f"throughput {report.throughput} above the "
                                f"bound {report.bound}: {scenario}")
        return problems

    def parity(self, scenarios, reports) -> list:
        """Replay ``scenarios`` on the reference engine; every measured
        field must match ``reports``."""
        reference = api_run.run_batch(
            [s.replace(engine="reference") for s in scenarios],
            workers=1, cache="off", compute_bound=False)
        return [f"{field} {getattr(got, field)} != reference "
                f"{getattr(ref, field)}: {got.scenario}"
                for got, ref in zip(reports, reference)
                for field in MEASURED
                if not _same(getattr(got, field), getattr(ref, field))]

    def bounds(self, scenarios, reports) -> list:
        """Offline bounds of the quality subsample, for ``goodput``."""
        return [report.bound for report in reports]


class GridCongested(Workload):
    """One congested 32x32 scenario per request on the fast engine, bound
    off.  ``goodput`` divides by the congestion + dilation cut bound,
    computed outside the timed window (max-flow on these instances costs
    far more than the run)."""

    name = "grid-congested"
    ALGORITHMS = ({"name": "greedy", "params": {"priority": "fifo"}},
                  "ntg", {"name": "edd", "params": {}})
    quality_requests = 6
    parity_requests = 3  # one per algorithm
    trace_requests = 9

    def scenarios(self, index):
        return [Scenario(
            NetworkSpec("grid", (32, 32), 1, 1),
            WorkloadSpec("uniform", {"num": 8000, "horizon": 256}),
            self.ALGORITHMS[index % len(self.ALGORITHMS)],
            horizon=512, seed=fresh_seed(self.seed, index), engine="fast")]

    def submit(self, scenarios, index):
        return api_run.run_batch(scenarios, workers=1, cache="off",
                                 compute_bound=False)

    def check(self, index, scenarios, reports, bound_calls=None):
        problems = super().check(index, scenarios, reports)
        if bound_calls:
            problems.append(f"{bound_calls} offline bound(s) computed "
                            "with the bound off")
        return problems

    def bounds(self, scenarios, reports):
        out = []
        for scenario in scenarios:
            network, requests = scenario.build_instance()
            out.append(float(cd_cut_bound(network, requests,
                                          scenario.horizon)))
        return out


class WarmQueue(Workload):
    """A Table-2 line sweep submitted through the work queue with every
    report already cached.

    Warming the cache is a cold reproduction sweep, one ``run_batch``
    per pooled batch with the max-flow bound on: the offline bound, the
    planners, the stacked engine (the batch's greedy and ntg scenarios)
    and every cache write run there, outside the timed requests.  A
    traced run records spans for the warming too, in one process.
    """

    name = "warm-queue"
    N = 32
    #: (B = c, algorithms) -- the Table 2 regimes the routers cover
    REGIMES = ((3, ("det", "det2", "rand", "greedy", "ntg")),
               (1, ("det2", "rand", "greedy", "ntg")))
    #: distinct warmed batches the submissions cycle through
    POOL = 6
    quality_requests = POOL
    trace_requests = 500

    def __init__(self, seed, workdir, *, traced=False):
        super().__init__(seed, workdir, traced=traced)
        self.cache = workdir / "cache"
        self.cold: list = []
        self.requeued = 0

    def batch(self, k):
        """The scenarios of pooled batch ``k``; each batch has its own
        instance seed, so no bound is replayed from the in-process memo."""
        n = self.N
        return [Scenario(NetworkSpec("line", (n,), b, b),
                         WorkloadSpec("uniform", {"num": 3 * n, "horizon": n}),
                         algorithm, horizon=4 * n,
                         seed=fresh_seed(self.seed, k), engine="batch")
                for b, algorithms in self.REGIMES for algorithm in algorithms]

    def prepare(self, tracer=None):
        problems = []
        for k in range(self.POOL):
            scenarios, first = self.batch(k), 0
            if tracer:
                tracer.request, first = f"warm-{k}", len(tracer.spans)
            # the traced run stays in one process so no span is lost in a
            # pool child
            reports = api_run.run_batch(
                scenarios, workers=1 if self.traced else 2,
                cache="readwrite", cache_dir=self.cache)
            bound_calls = (tracer.count("packing.bound", first)
                           if tracer else None)
            self.cold.append(list(reports))
            problems.append(self.check_cold(scenarios, reports, bound_calls))
        if tracer:
            tracer.request = None
        return problems

    def check_cold(self, scenarios, reports, bound_calls) -> list:
        """Gates of one warming batch: it was cold, and each distinct
        instance computed its bound exactly once -- never replayed from a
        memo, never recomputed per algorithm."""
        problems = super().check(None, scenarios, reports)
        instances = len({(s.seed, s.instance_key()) for s in scenarios})
        stats = reports.cache_stats
        if stats.misses != len(scenarios) or stats.stores != len(scenarios):
            problems.append(f"cold batch was not cold: {stats}")
        if stats.bound_misses != instances:
            problems.append(f"{stats.bound_misses} bound computations for "
                            f"{instances} instances")
        if bound_calls is not None and bound_calls != instances:
            problems.append(f"packing.bound called {bound_calls} times for "
                            f"{instances} instances")
        return problems

    def scenarios(self, index):
        return self.batch(index % self.POOL)

    def queue_dir(self, index):
        return self.workdir / f"queue-{index}"

    def _log(self, message: str) -> None:
        if "requeued" in message:
            self.requeued += 1

    def submit(self, scenarios, index):
        queue = WorkQueue.create(self.queue_dir(index), scenarios)
        QueueWorker(queue, cache="read", cache_dir=self.cache,
                    heartbeat_interval=0, log=self._log).run()
        return queue.collect()

    def finish(self, index):
        shutil.rmtree(self.queue_dir(index), ignore_errors=True)

    def check(self, index, scenarios, reports, bound_calls=None):
        problems = super().check(index, scenarios, reports)
        if list(reports) != self.cold[index % self.POOL]:
            problems.append("collected reports differ from the cold run")
        stats = reports.cache_stats
        if stats is None or stats.hits != len(scenarios):
            problems.append(f"not every report came from the cache: {stats}")
        if self.requeued:
            problems.append(f"{self.requeued} chunk(s) requeued")
            self.requeued = 0
        if bound_calls:
            problems.append(f"{bound_calls} offline bound(s) computed "
                            "on a warm cache")
        return problems


WORKLOADS = {cls.name: cls for cls in (GridCongested, WarmQueue)}
