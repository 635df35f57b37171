"""Measuring, fanning out and checking runs, plus the benches' tables.

``RunReport`` carries the competitive ratio, ``run_batch`` fans scenarios
out deterministically, :mod:`repro.api.dispatch` partitions a batch
across hosts, and ``planner_adapter`` cross-checks every plan against
its replay.
"""

import math
import os
import subprocess
import sys

import pytest

from repro.analysis.tables import format_table
from repro.api import NetworkSpec, Scenario, WorkloadSpec, run, run_batch
from repro.api.dispatch import ShardError, merge, plan_shards, run_shard
from repro.api.registry import planner_adapter
from repro.api.run import RunReport
from repro.baselines.greedy import run_greedy
from repro.core.base import RouteOutcome
from repro.core.deterministic.variants import BufferlessLineRouter
from repro.util.errors import ReproError


def line_scenario(algorithm="greedy", n=8, B=1, c=1, num=10, seed=0):
    return Scenario(NetworkSpec("line", (n,), B, c),
                    WorkloadSpec("uniform", {"num": num, "horizon": n}),
                    algorithm, horizon=5 * n, seed=seed)


def report(throughput, bound):
    return RunReport(
        scenario=line_scenario(), requests=20, throughput=throughput,
        bound=bound, late=0, rejected=0, preempted=0,
        latency_mean=math.nan, latency_max=math.nan, steps=0,
        engine="reference")


class TestEvaluation:
    def test_ratio(self):
        ev = report(throughput=5, bound=10.0)
        assert ev.ratio == 2.0
        assert ev.goodput == 0.5

    def test_zero_throughput(self):
        ev = report(throughput=0, bound=10.0)
        assert ev.ratio == math.inf and ev.goodput == 0.0

    def test_empty_instance(self):
        ev = run(line_scenario(num=0))
        assert ev.requests == 0 and ev.bound == 0.0
        assert ev.ratio == 1.0 and ev.goodput == 1.0

    def test_evaluate_policy(self):
        scenario = line_scenario("greedy")
        ev = run(scenario)
        network, requests = scenario.build_instance()
        assert ev.throughput == run_greedy(network, requests,
                                           scenario.horizon).throughput
        assert ev.bound >= ev.throughput

    def test_evaluate_plan_verifies(self):
        scenario = line_scenario("bufferless", B=0, num=8)
        ev = run(scenario)
        network, requests = scenario.build_instance()
        plan = BufferlessLineRouter(network, scenario.horizon).route(requests)
        assert ev.throughput == plan.throughput

    def test_evaluate_plan_detects_mismatch(self):
        # a delivered path demoted to a preempted prefix: the replay still
        # delivers it, so the check names it on the simulated-only side
        scenario = line_scenario("bufferless", B=0, num=8)
        network, requests = scenario.build_instance()
        plan = BufferlessLineRouter(network, scenario.horizon).route(requests)
        rid = min(rid for rid, path in plan.paths.items() if path.moves)
        plan.record(rid, RouteOutcome.PREEMPTED, plan.paths[rid])

        class Demoting:
            def __init__(self, network, horizon):
                pass

            def route(self, requests):
                return plan

        runner = planner_adapter(Demoting, "demoting")
        expected = rf"planned-only=\[\] simulated-only=\[{rid}\]"
        with pytest.raises(ReproError, match=expected):
            runner(network, requests, scenario.horizon)

    def test_competitive_ratio_function(self):
        assert run(line_scenario("ntg", num=6)).ratio >= 1.0


class TestRunner:
    def test_run_trials_deterministic(self):
        scenarios = [line_scenario(seed=seed) for seed in range(5)]
        assert run_batch(scenarios) == run_batch(scenarios)

    def test_sweep_shape(self):
        # under "batch", greedy and ntg stack while det runs on its own;
        # reports still come back in input order
        scenarios = [line_scenario(name, B=3, c=3, seed=seed)
                     .replace(engine="batch")
                     for seed in (0, 1) for name in ("greedy", "det", "ntg")]
        out = run_batch(scenarios)
        assert [r.scenario for r in out] == scenarios
        assert [r.engine for r in out] == ["batch", "fast", "batch"] * 2

    def test_summary_text(self):
        text = report(throughput=5, bound=10.0).summary()
        assert "greedy" in text and "ratio=2.000" in text


_HASHSEED_SCRIPT = """\
from repro.api import NetworkSpec, Scenario, WorkloadSpec, run_batch

FIELDS = ("requests", "throughput", "bound", "late", "rejected",
          "preempted", "latency_mean", "latency_max", "steps")
scenarios = [
    Scenario(NetworkSpec("grid", (4, 4), 1, 1),
             WorkloadSpec("uniform", {"num": 20, "horizon": 8}),
             algorithm, horizon=32, seed=seed)
    for algorithm in ("greedy", "ntg", "edd") for seed in (0, 1)]
for workers in (None, 2):
    for rep in run_batch(scenarios, workers=workers, cache="off"):
        print(workers, f"{rep.scenario.digest():08x}",
              [float(getattr(rep, name)).hex() for name in FIELDS])
"""


class TestSweepReproducibility:
    def _run_with_hashseed(self, hashseed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_sweep_stable_across_hash_randomization(self):
        # hash(str) differs between these two processes; scenario digests
        # (the cache keys) and measured values must not
        a = self._run_with_hashseed("12345")
        b = self._run_with_hashseed("54321")
        assert a == b
        lines = a.splitlines()
        assert len(lines) == 12  # 6 scenarios x 2 worker counts
        serial, pooled = lines[:6], lines[6:]
        assert [s.split(" ", 1)[1] for s in serial] \
            == [p.split(" ", 1)[1] for p in pooled]

    def test_workers_bit_identical_to_serial(self):
        scenarios = [line_scenario(name, seed=seed).replace(engine=engine)
                     for name in ("greedy", "ntg")
                     for seed in (0, 1)
                     for engine in ("reference", "batch")]
        assert run_batch(scenarios) == run_batch(scenarios, workers=2)

    def test_distinct_points_get_distinct_streams(self):
        def stream(scenario):
            return [(r.source, r.dest, r.arrival)
                    for r in scenario.build_instance()[1]]

        base = line_scenario()
        assert stream(base) != stream(base.replace(seed=1))
        # another instance (here: another B) draws its own stream too
        assert stream(base) != stream(line_scenario(B=2))

    def test_same_point_reproducible_in_process(self):
        scenario = line_scenario("ntg", seed=9)
        assert run(scenario) == run(scenario)


class TestSweepSharding:
    """Partitioning a batch across hosts: any shard count merges back to
    exactly the serial ``run_batch`` output."""

    SCENARIOS = [line_scenario(name, seed=seed)
                 for name in ("greedy", "ntg") for seed in range(3)]

    def _shard_files(self, tmp_path, n_shards):
        files = []
        for i, manifest in enumerate(plan_shards(self.SCENARIOS, n_shards)):
            files.append(tmp_path / f"{n_shards}_{i}.jsonl")
            run_shard(manifest, files[-1], cache="off")
        return files

    def test_partition_equivalence(self, tmp_path):
        serial = run_batch(self.SCENARIOS)
        for n_shards in (1, 2, 4, 7):
            files = self._shard_files(tmp_path, n_shards)
            assert merge(list(reversed(files))) == serial

    def test_plan_is_deterministic_and_complete(self):
        a = plan_shards(self.SCENARIOS, 4)
        assert a == plan_shards(self.SCENARIOS, 4)
        indices = [s["index"] for m in a for s in m["scenarios"]]
        assert sorted(indices) == list(range(len(self.SCENARIOS)))

    def test_merge_rejects_missing_and_duplicate_units(self, tmp_path):
        files = self._shard_files(tmp_path, 2)
        with pytest.raises(ShardError, match="missing"):
            merge(files[:1])
        with pytest.raises(ShardError, match="appears twice"):
            merge(files + files[:1])

    def test_pooled_shard_matches_serial_shard(self):
        manifest = plan_shards(self.SCENARIOS, 2)[0]
        assert run_shard(manifest, cache="off") \
            == run_shard(manifest, workers=2, cache="off")

    def test_zero_seeds_yields_empty_results(self):
        assert list(run_batch([])) == []
        with pytest.raises(ShardError, match="empty"):
            plan_shards([], 2)

    def test_duplicate_points_do_not_misalign_values(self):
        a, b = self.SCENARIOS[:2]
        dup = run_batch([a, a, b])
        assert list(dup) == [run(a), run(a), run(b)]
        with pytest.raises(ShardError, match="duplicate"):
            plan_shards([a, a, b], 2)


class TestTables:
    def test_format_basic(self):
        text = format_table(["n", "ratio"], [[8, 1.5], [16, 2.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "ratio" in lines[1]
        assert "2.250" in text

    def test_column_alignment(self):
        text = format_table(["a", "bbbb"], [["x", "y"]])
        header, sep, row = text.splitlines()
        assert len(header) == len(row)
