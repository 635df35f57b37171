"""Stacked batch engine: parity, eligibility, and run_batch integration.

:class:`~repro.network.fast_batch_engine.FastBatchEngine` runs a whole
group of scenarios as one fused array program.  Its contract is the same
as the fast engine's, lifted to batches: for every job in the stack, the
result must be bit-identical to running that job alone through
:class:`~repro.network.fast_engine.FastEngine` -- across heterogeneous
grid shapes, buffer/capacity settings, policy families, and horizons,
and regardless of which other jobs share the stack.

The run-level tests pin the integration seams: eligibility partitioning
in ``run_batch``, the clean capability error for explicitly
``engine="batch"`` batches with nothing to stack, the warmed-cache
short-circuit (no stacked execution at all), and the on-disk
offline-bound tier shared across algorithms.
"""

import sys

import numpy as np
import pytest

from repro.api import NetworkSpec, Scenario, WorkloadSpec, run_batch
from repro.api.registry import ALGORITHMS
from repro.api.run import ScenarioError, _batch_reason
from repro.baselines.edd import EarliestDeadlinePolicy
from repro.baselines.greedy import GreedyPolicy, one_bend_axis
from repro.baselines.nearest_to_go import NearestToGoPolicy
from repro.core.deterministic import DeterministicRouter
from repro.network.engine import StepView, VectorDecision
from repro.network.fast_batch_engine import FastBatchEngine
from repro.network.fast_engine import FastEngine, greedy_masks
from repro.network.node_models import Model2Policy
from repro.network.packet import Request
from repro.network.simulator import Decision, PlanPolicy, Policy, Simulator
from repro.network.topology import GridNetwork, LineNetwork, Network
from repro.util.errors import ValidationError
from repro.workloads import (
    deadline_requests,
    poisson_requests,
    uniform_requests,
)

STAT_FIELDS = (
    "delivered", "late", "rejected", "preempted", "forwards", "stores",
    "max_link_load", "max_buffer_load", "steps",
)

run_module = sys.modules["repro.api.run"]


def assert_results_identical(batch_result, solo_result, context):
    for name in STAT_FIELDS:
        assert getattr(batch_result.stats, name) \
            == getattr(solo_result.stats, name), (context, name)
    assert batch_result.status == solo_result.status, context
    assert batch_result.stats.delivery_times \
        == solo_result.stats.delivery_times, context
    assert batch_result.engine == "batch", context


class TestStackedParity:
    def _jobs(self):
        """A deliberately heterogeneous stack: 1-D and 2-D networks of
        different sizes, mixed B/c, every policy family, one empty job."""
        line8 = LineNetwork(8, buffer_size=2, capacity=1)
        grid45 = GridNetwork((4, 5), buffer_size=1, capacity=2)
        grid33 = GridNetwork((3, 3), buffer_size=0, capacity=1)
        line12 = LineNetwork(12, buffer_size=3, capacity=2)
        grid55 = GridNetwork((5, 5), buffer_size=2, capacity=1)
        line6 = LineNetwork(6, buffer_size=1, capacity=1)
        return [
            (line8, GreedyPolicy("fifo"),
             uniform_requests(line8, 25, 10, rng=0), 40),
            (grid45, GreedyPolicy("lifo"),
             uniform_requests(grid45, 30, 12, rng=1), 48),
            (grid33, NearestToGoPolicy(),
             poisson_requests(grid33, 1.0, 10, rng=2), 30),
            (line12, EarliestDeadlinePolicy(),
             deadline_requests(line12, 20, 10, slack=4, rng=3), 44),
            (grid55, GreedyPolicy("longest"),
             uniform_requests(grid55, 40, 15, rng=4), 60),
            (line6, GreedyPolicy("fifo"), [], 20),
        ]

    def test_heterogeneous_stack_matches_fast_engine(self):
        jobs = self._jobs()
        stacked = FastBatchEngine(jobs).run_many()
        assert len(stacked) == len(jobs)
        # request ids are globally unique, so the solo reruns reuse the
        # exact job tuples (engines never mutate requests)
        for i, (net, policy, reqs, horizon) in enumerate(jobs):
            solo = FastEngine(net, policy).run(reqs, horizon)
            assert_results_identical(stacked[i], solo, f"job {i}")

    def test_stack_order_does_not_matter(self):
        jobs = self._jobs()
        forward = FastBatchEngine(jobs).run_many()
        backward = FastBatchEngine(jobs[::-1]).run_many()[::-1]
        for i, (f, b) in enumerate(zip(forward, backward)):
            for name in STAT_FIELDS:
                assert getattr(f.stats, name) == getattr(b.stats, name), \
                    (i, name)
            assert f.status == b.status, i

    def test_plan_replay_stacks_with_online_policies(self):
        """Compiled plan programs from different planner instances merge
        into one stacked program alongside greedy jobs."""
        jobs = []
        for n, seed in ((8, 0), (10, 1)):
            net = LineNetwork(n, buffer_size=3, capacity=3)
            reqs = uniform_requests(net, 12, 8, rng=seed)
            plan = DeterministicRouter(net, 40).route(reqs)
            jobs.append((net, PlanPolicy(net, plan.all_executable_paths()),
                         reqs, 40))
        grid = GridNetwork((4, 4), buffer_size=1, capacity=1)
        jobs.append((grid, GreedyPolicy("fifo"),
                     uniform_requests(grid, 20, 10, rng=2), 32))
        stacked = FastBatchEngine(jobs).run_many()
        for i, (net, policy, reqs, horizon) in enumerate(jobs):
            solo = FastEngine(net, policy).run(reqs, horizon)
            assert_results_identical(stacked[i], solo, f"plan job {i}")

    def test_empty_batch(self):
        assert FastBatchEngine([]).run_many() == []

    def test_single_job_stack(self):
        net = LineNetwork(7, buffer_size=1, capacity=1)
        reqs = uniform_requests(net, 15, 8, rng=5)
        stacked = FastBatchEngine(
            [(net, NearestToGoPolicy(), reqs, 30)]).run_many()
        solo = FastEngine(net, NearestToGoPolicy()).run(reqs, 30)
        assert_results_identical(stacked[0], solo, "single job")


def _greedy_decide(node, candidates, network, key) -> Decision:
    """Scalar greedy under ``key``: top ``c`` per 1-bend axis forward, top
    ``B`` leftovers stay -- what ``greedy_masks`` computes per group."""
    by_axis: dict = {}
    for pkt in candidates:
        by_axis.setdefault(one_bend_axis(pkt, network), []).append(pkt)
    decision = Decision()
    leftovers: list = []
    for axis, pkts in by_axis.items():
        pkts.sort(key=key)
        c = network.capacity_of(node, axis)
        decision.forward[axis] = pkts[:c]
        leftovers.extend(pkts[c:])
    leftovers.sort(key=key)
    decision.store = leftovers[:network.buffer_size]
    return decision


def _assert_job_local(view: StepView) -> None:
    """A per-job program sees its own job only: the real network, unpadded
    coordinates, its own row-major node ids and request positions."""
    assert isinstance(view.network, Network)
    assert view.batch is None
    assert view.loc.shape == (view.size, view.network.d)
    assert view.src.shape == view.dst.shape == view.loc.shape
    assert (view.node_id == np.ravel_multi_index(
        view.loc.T, view.network.dims)).all()
    assert [view.requests[i].rid for i in view.index] == view.rid.tolist()


class _ScalarOnlyPolicy(Policy):
    """Scalar decide only (youngest first): runs through the adapter."""

    def decide(self, node, t, candidates, network) -> Decision:
        return _greedy_decide(node, candidates, network,
                              lambda p: (-p.request.arrival, p.rid))


class _StatefulVectorPolicy(Policy):
    """Labelled, but observes step boundaries: a per-job program whose
    hook must run on its own job's clock."""

    batch_program = "stateful"

    def __init__(self):
        self.ticks: list = []

    def on_step_begin(self, t: int) -> None:
        self.ticks.append(t)

    def decide_vector(self, view: StepView) -> VectorDecision:
        assert self.ticks[-1] == view.t
        _assert_job_local(view)
        return greedy_masks(view, (-view.rid,))

    def decide(self, node, t, candidates, network) -> Decision:
        assert self.ticks[-1] == t
        return _greedy_decide(node, candidates, network, lambda p: -p.rid)


class _UnlabelledVectorPolicy(Policy):
    """Native vector policy without ``batch_program`` (most travelled
    first): a per-job program."""

    def decide_vector(self, view: StepView) -> VectorDecision:
        _assert_job_local(view)
        return greedy_masks(view, (-view.hops(), view.rid))

    def decide(self, node, t, candidates, network) -> Decision:
        return _greedy_decide(node, candidates, network,
                              lambda p: (-p.hops, p.rid))


class _LabelledVectorPolicy(Policy):
    """Labelled and stateless (highest rid first): one merged program
    over every job carrying it, whose view indexes the stacked requests
    without copying them."""

    batch_program = "probe"

    def decide_vector(self, view: StepView) -> VectorDecision:
        assert [view.requests[i].rid for i in view.index] \
            == view.rid.tolist()
        return greedy_masks(view, (-view.rid,))

    def decide(self, node, t, candidates, network) -> Decision:
        return _greedy_decide(node, candidates, network, lambda p: -p.rid)


def _stack_beside_merged_jobs(make_custom):
    """``(network, policy factory, requests, horizon)`` specs: the custom
    policy on a line and on a 2-D grid, stacked beside greedy, edd and
    plan jobs on other shapes -- the 3-D grid pads every line and 2-D
    row, which a job-local view must never show."""
    line = LineNetwork(10, buffer_size=2, capacity=1)
    grid = GridNetwork((4, 4), buffer_size=1, capacity=2)
    cube = GridNetwork((3, 3, 2), buffer_size=1, capacity=1)
    grid35 = GridNetwork((3, 5), buffer_size=2, capacity=1)
    plan_net = LineNetwork(8, buffer_size=3, capacity=3)
    plan_reqs = uniform_requests(plan_net, 12, 8, rng=7)
    paths = DeterministicRouter(plan_net, 40).route(
        plan_reqs).all_executable_paths()
    return [
        (line, make_custom,
         deadline_requests(line, 25, 12, slack=3, rng=11), 40),
        (cube, lambda: GreedyPolicy("lifo"),
         uniform_requests(cube, 30, 10, rng=12), 36),
        (grid, make_custom, uniform_requests(grid, 30, 10, rng=13), 30),
        (grid35, EarliestDeadlinePolicy,
         deadline_requests(grid35, 20, 10, slack=4, rng=14), 44),
        (plan_net, lambda: PlanPolicy(plan_net, paths), plan_reqs, 40),
    ]


def assert_matches_solo_and_reference(specs):
    """Stack the specs and compare every job with its own FastEngine run
    and the reference Simulator; returns the stacked policies."""
    policies = [make() for _net, make, _reqs, _h in specs]
    stacked = FastBatchEngine([
        (net, policy, reqs, horizon)
        for (net, _make, reqs, horizon), policy in zip(specs, policies)
    ]).run_many()
    for i, (net, make, reqs, horizon) in enumerate(specs):
        solo = FastEngine(net, make()).run(reqs, horizon)
        assert_results_identical(stacked[i], solo, f"job {i} vs fast")
        ref = Simulator(net, make()).run(reqs, horizon)
        for name in STAT_FIELDS:
            assert getattr(stacked[i].stats, name) \
                == getattr(ref.stats, name), (i, name)
        assert stacked[i].status == ref.status, i
        assert stacked[i].stats.delivery_times \
            == ref.stats.delivery_times, i
    return policies, stacked


class TestEligibility:
    def test_supported_policies(self):
        for policy in (GreedyPolicy("fifo"), GreedyPolicy("longest"),
                       NearestToGoPolicy(), EarliestDeadlinePolicy(),
                       _ScalarOnlyPolicy(), _StatefulVectorPolicy(),
                       _UnlabelledVectorPolicy()):
            assert FastBatchEngine.supports(policy), \
                FastBatchEngine.unsupported_reason(policy)

    def test_scalar_policy_stacks_bit_identically(self):
        assert_matches_solo_and_reference(
            _stack_beside_merged_jobs(_ScalarOnlyPolicy))

    def test_stateful_vector_policy_stacks_bit_identically(self):
        """The hook of a per-job program ticks on its own job's clock:
        exactly the steps the job's solo run counts."""
        policies, stacked = assert_matches_solo_and_reference(
            _stack_beside_merged_jobs(_StatefulVectorPolicy))
        for i in (0, 2):
            assert policies[i].ticks \
                == list(range(stacked[i].stats.steps)), i

    def test_unlabelled_vector_policy_stacks_bit_identically(self):
        """decide_vector without batch_program still stacks: it runs as
        its own program on a job-local view."""
        assert_matches_solo_and_reference(
            _stack_beside_merged_jobs(_UnlabelledVectorPolicy))

    def test_labelled_vector_policy_stacks_bit_identically(self):
        """Its two jobs merge into one program on the stacked view."""
        assert_matches_solo_and_reference(
            _stack_beside_merged_jobs(_LabelledVectorPolicy))

    def test_constructor_rejects_ineligible_job(self):
        class Pinned(Policy):
            vectorize = False

        net = LineNetwork(6, buffer_size=1, capacity=1)
        for policy in (Pinned(), Model2Policy()):
            assert not FastBatchEngine.supports(policy)
            with pytest.raises(ValidationError, match="cannot join"):
                FastBatchEngine([(net, policy, [], 10)])

    def test_batch_reason_consults_registry(self):
        def scen(alg, params):
            return Scenario(
                network=NetworkSpec("grid", (4, 4), 3, 3),
                workload=WorkloadSpec("uniform", {"num": 5, "horizon": 8}),
                algorithm={"name": alg, "params": params},
                horizon=16, seed=0)

        assert _batch_reason(scen("greedy", {"priority": "lifo"})) is None
        assert _batch_reason(scen("ntg", {})) is None
        assert _batch_reason(scen("edd", {})) is None
        assert _batch_reason(scen("edd", {"adapter": True})) is None
        assert _batch_reason(scen("det", {})) is not None


class _DropAll(Policy):
    def decide(self, node, t, candidates, network) -> Decision:
        return Decision()


class TestPerJobAccounting:
    def test_steps_and_counters_across_horizons(self):
        """One stack whose jobs end in every way a job's private loop can
        end; steps are derived after the loop, counters from the final
        status codes, and each must equal the reference engine's."""
        line = LineNetwork(12, buffer_size=1, capacity=1)
        grid = GridNetwork((4, 4), buffer_size=1, capacity=1)
        specs = [
            # drains long before its horizon
            (line, lambda: GreedyPolicy("fifo"),
             [Request.line(0, 3, 0), Request.line(2, 5, 1)], 50),
            # still in flight at its horizon: stranded, then preempted
            (line, NearestToGoPolicy,
             [Request.line(0, 11, 0), Request.line(1, 11, 0),
              Request.line(0, 9, 2)], 4),
            # arrivals after its horizon stay pending, then rejected
            (grid, lambda: GreedyPolicy("lifo"),
             [Request((0, 0), (3, 3), 0), Request((1, 0), (1, 2), 9),
              Request((0, 1), (2, 1), 30)], 12),
            # every packet rejected at injection
            (line, _DropAll,
             [Request.line(0, 4, 0), Request.line(3, 7, 2),
              Request.line(5, 6, 5)], 20),
            # empty
            (grid, EarliestDeadlinePolicy, [], 25),
        ]
        _policies, stacked = assert_matches_solo_and_reference(specs)
        assert stacked[0].stats.steps < 50
        assert stacked[1].stats.preempted and stacked[1].stats.steps == 5
        assert stacked[2].stats.rejected and stacked[2].stats.steps == 13
        assert stacked[3].stats.rejected == 3
        assert stacked[3].stats.steps < 20
        assert stacked[4].stats.steps == 0 and stacked[4].status == {}


def _sweep_scenarios(engine=None):
    out = []
    for seed in range(2):
        for alg in ({"name": "greedy", "params": {"priority": "fifo"}},
                    "ntg",
                    {"name": "edd", "params": {}}):
            out.append(Scenario(
                network=NetworkSpec("grid", (5, 5), 2, 2),
                workload=WorkloadSpec("uniform",
                                      {"num": 20, "horizon": 12}),
                algorithm=alg, horizon=24, seed=seed, engine=engine))
    return out


class TestRunBatchIntegration:
    def test_stacked_reports_match_serial(self):
        serial = run_batch(_sweep_scenarios(), workers=1)
        stacked = run_batch(_sweep_scenarios(engine="batch"), workers=1)
        for one, many in zip(serial, stacked):
            assert many.engine == "batch"
            for field in ("requests", "throughput", "bound", "late",
                          "rejected", "preempted", "latency_mean",
                          "latency_max", "steps", "meta"):
                a, b = getattr(one, field), getattr(many, field)
                assert a == b or (a != a and b != b), field

    def test_warmed_cache_spawns_no_stacked_execution(self, tmp_path,
                                                      monkeypatch):
        batch = _sweep_scenarios(engine="batch")
        warm = run_batch(batch, cache="readwrite", cache_dir=tmp_path)
        assert warm.cache_stats.stores == len(batch)

        def boom(self):
            raise AssertionError("stacked execution ran on a warmed cache")

        monkeypatch.setattr(FastBatchEngine, "run_many", boom)
        replay = run_batch(batch, cache="readwrite", cache_dir=tmp_path)
        assert replay.cache_stats.hits == len(batch)
        assert list(replay) == list(warm)

    def test_explicit_batch_all_ineligible_raises(self):
        det = Scenario(
            network=NetworkSpec("grid", (5, 5), 3, 3),
            workload=WorkloadSpec("uniform", {"num": 10, "horizon": 8}),
            algorithm="det", horizon=20, seed=0, engine="batch")
        with pytest.raises(ScenarioError, match="no scenario in this batch"):
            run_batch([det])

    def test_explicit_batch_mixed_batch_falls_back(self):
        det = Scenario(
            network=NetworkSpec("grid", (5, 5), 3, 3),
            workload=WorkloadSpec("uniform", {"num": 10, "horizon": 8}),
            algorithm="det", horizon=20, seed=0, engine="batch")
        ntg = det.replace(algorithm="ntg")
        reports = run_batch([det, ntg])
        assert reports[0].engine in ("reference", "fast")
        assert reports[1].engine == "batch"

    def test_env_batch_selection_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batch")
        det = Scenario(
            network=NetworkSpec("grid", (5, 5), 3, 3),
            workload=WorkloadSpec("uniform", {"num": 10, "horizon": 8}),
            algorithm="det", horizon=20, seed=0)
        reports = run_batch([det])  # ineligible, but not explicit: no error
        assert reports[0].engine == "fast"

    def test_duplicates_collapse_into_one_stacked_slot(self, monkeypatch):
        batch = _sweep_scenarios(engine="batch")
        batch = [batch[0], batch[0], batch[1], batch[0]]
        calls = []
        original = FastBatchEngine.run_many

        def counting(self):
            calls.append(len(self.jobs))
            return original(self)

        monkeypatch.setattr(FastBatchEngine, "run_many", counting)
        reports = run_batch(batch)
        assert calls == [2]  # 4 positions, 2 unique scenarios, 1 stack
        assert reports[0] == reports[1] == reports[3]


class TestBoundDiskCache:
    def test_bound_computed_once_per_instance_across_algorithms(
            self, tmp_path, monkeypatch):
        import repro.baselines.offline as offline

        calls = []
        original = offline.offline_bound

        def counting(network, requests, horizon, method="maxflow"):
            calls.append(1)
            return original(network, requests, horizon, method=method)

        monkeypatch.setattr(offline, "offline_bound", counting)
        run_module._bound_cache.clear()
        batch = _sweep_scenarios()  # 2 seeds x 3 algorithms, 2 instances
        run_batch(batch, cache="readwrite", cache_dir=tmp_path)
        assert len(calls) == 2  # once per (seed, instance), not per algorithm

        # a fresh process (simulated by clearing the in-process memo) now
        # serves the bound from disk: zero recomputation
        run_module._bound_cache.clear()
        run_batch([batch[0].replace(
            algorithm={"name": "greedy", "params": {"priority": "longest"}})],
            cache="read", cache_dir=tmp_path)
        assert len(calls) == 2
        run_module._bound_cache.clear()

    def test_bound_entry_guards_against_collisions(self, tmp_path):
        from repro.api.cache import ResultCache

        store = ResultCache(tmp_path)
        scenario = _sweep_scenarios()[0]
        store.store_bound(scenario, 12.5)
        assert store.load_bound(scenario) == 12.5
        other = scenario.replace(seed=scenario.seed + 1)
        assert store.load_bound(other) is None
        # corruption degrades to a miss, never a wrong bound
        store.bound_path(scenario).write_text("{not json")
        assert store.load_bound(scenario) is None
