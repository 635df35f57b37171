"""Tests for repro.network.packet: requests, packets, statuses."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.network.packet import (
    NO_DEADLINE,
    DeliveryStatus,
    Packet,
    Request,
    RequestBlock,
)
from repro.network.topology import GridNetwork, LineNetwork, RingNetwork
from repro.util.errors import ValidationError


class TestRequestConstruction:
    def test_line_constructor(self):
        r = Request.line(2, 5, 3)
        assert r.source == (2,) and r.dest == (5,)
        assert r.arrival == 3 and r.deadline is None

    def test_tuple_nodes(self):
        r = Request((1, 2), (3, 4), 0)
        assert r.source == (1, 2) and r.dest == (3, 4)

    def test_int_nodes_normalised(self):
        r = Request(1, 4, 0)
        assert r.source == (1,) and r.dest == (4,)

    def test_distance_line(self):
        assert Request.line(2, 7, 0).distance == 5

    def test_distance_grid(self):
        assert Request((0, 1), (3, 4), 0).distance == 6

    def test_dim(self):
        assert Request.line(0, 1, 0).dim == 1
        assert Request((0, 0, 0), (1, 1, 1), 0).dim == 3

    def test_trivial(self):
        assert Request.line(3, 3, 0).is_trivial()
        assert not Request.line(3, 4, 0).is_trivial()

    def test_rids_unique_when_auto(self):
        a, b = Request.line(0, 1, 0), Request.line(0, 1, 0)
        assert a.rid != b.rid

    def test_explicit_rid(self):
        assert Request.line(0, 1, 0, rid=99).rid == 99

    def test_deadline_stored(self):
        assert Request.line(0, 2, 1, deadline=5).deadline == 5


class TestRequestValidation:
    # Reachability and deadline feasibility are topology-dependent (a
    # "backward" pair is routable on a ring), so they live in
    # Network.check_request; the constructor keeps only shape checks.

    def test_backward_line_constructs_but_fails_check(self):
        r = Request.line(5, 2, 0)
        with pytest.raises(ValidationError, match="no directed path"):
            LineNetwork(8, 1, 1).check_request(r)

    def test_backward_pair_is_valid_on_a_ring(self):
        r = Request.line(5, 2, 0)
        RingNetwork(8, 1, 1).check_request(r)  # wraps: distance 5

    def test_rejects_backward_grid_component(self):
        r = Request((0, 5), (3, 2), 0)
        with pytest.raises(ValidationError, match="no directed path"):
            GridNetwork((6, 6), 1, 1).check_request(r)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValidationError):
            Request((0,), (1, 1), 0)

    def test_check_request_rejects_dim_mismatch(self):
        with pytest.raises(ValidationError):
            LineNetwork(8, 1, 1).check_request(Request((1, 1), (2, 2), 0))

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValidationError):
            Request.line(0, 1, -1)

    def test_rejects_infeasible_deadline(self):
        # deadline before arrival + distance can never be met (Section 5.4)
        r = Request.line(0, 5, 2, deadline=4)
        with pytest.raises(ValidationError, match="infeasible deadline"):
            LineNetwork(8, 1, 1).check_request(r)

    def test_accepts_tight_feasible_deadline(self):
        r = Request.line(0, 5, 2, deadline=7)
        LineNetwork(8, 1, 1).check_request(r)
        assert r.deadline == 7

    def test_wrap_shortens_deadline_feasibility(self):
        # 6 -> 1 on an 8-ring is 3 hops, so deadline 3 is feasible there
        r = Request.line(6, 1, 0, deadline=3)
        RingNetwork(8, 1, 1).check_request(r)

    def test_rejects_garbage_node(self):
        with pytest.raises(ValidationError):
            Request("node-a", "node-b", 0)

    def test_rejects_empty_tuple(self):
        with pytest.raises(ValidationError):
            Request((), (), 0)


class TestRequestBulk:
    def _error(self, build):
        with pytest.raises(ValidationError) as info:
            build()
        return str(info.value)

    def test_equals_scalar_construction(self):
        src = np.array([[0, 1], [2, 3], [4, 0]])
        dst = np.array([[1, 1], [5, 3], [4, 4]])
        bulk = Request.bulk(src, dst, [3, 0, 7], deadlines=[None, 9, 20],
                            rids=[10, 11, 12])
        scalar = [Request((0, 1), (1, 1), 3, None, 10),
                  Request((2, 3), (5, 3), 0, 9, 11),
                  Request((4, 0), (4, 4), 7, 20, 12)]
        for b, s in zip(bulk, scalar):
            assert type(b) is Request and b == s
            assert (b.source, b.dest, b.arrival, b.deadline, b.rid) \
                == (s.source, s.dest, s.arrival, s.deadline, s.rid)
            assert all(type(x) is int for x in b.source + b.dest)
            assert type(b.arrival) is int and type(b.rid) is int
            assert pickle.dumps(b) == pickle.dumps(s)

    def test_frozen(self):
        r = Request.bulk([[0]], [[2]], [0])[0]
        with pytest.raises(AttributeError):
            r.arrival = 5

    def test_empty(self):
        assert Request.bulk(np.zeros((0, 2)), np.zeros((0, 2)), []) == []

    def test_rids_contiguous_and_interleaved(self):
        before = Request.line(0, 1, 0).rid
        first = Request.bulk([[0]] * 4, [[1]] * 4, [0, 1, 2, 3])
        middle = Request.line(0, 1, 0).rid
        second = Request.bulk([[0]] * 3, [[1]] * 3, [0, 0, 0])
        after = Request.line(0, 1, 0).rid
        assert [r.rid for r in first] == list(range(before + 1, before + 5))
        assert middle == before + 5
        assert [r.rid for r in second] == list(range(before + 6, before + 9))
        assert after == before + 9
        rids = [r.rid for r in first + second]
        assert len(set(rids)) == len(rids) and rids == sorted(rids)

    def test_dim_mismatch_matches_scalar_text(self):
        bulk = self._error(lambda: Request.bulk([[0, 0], [1, 1]],
                                                [[1], [2]], [0, 0]))
        scalar = self._error(lambda: Request((0, 0), (1,), 0))
        assert bulk == scalar and "different dimensions" in bulk

    def test_negative_arrival_matches_scalar_text(self):
        bulk = self._error(lambda: Request.bulk([[0], [1], [2]],
                                                [[3], [4], [5]], [0, -4, -1]))
        scalar = self._error(lambda: Request((1,), (4,), -4))
        assert bulk == scalar and "-4" in bulk

    def test_failure_takes_no_rids(self):
        before = Request.line(0, 1, 0).rid
        with pytest.raises(ValidationError):
            Request.bulk([[0]], [[1]], [-1])
        assert Request.line(0, 1, 0).rid == before + 1

    @pytest.mark.parametrize("nodes", [
        [(0, 1), (2,)],            # ragged
        [[0.5], [1.0]],            # not integers
        [[], []],                  # empty nodes
        [[0], [1], [2]],           # wrong count
    ])
    def test_rejects_malformed_nodes(self, nodes):
        with pytest.raises(ValidationError):
            Request.bulk(nodes, [[3], [4]], [0, 0])


class TestRequestBlock:
    """``Request.bulk`` returns a :class:`RequestBlock`: columns first,
    objects only when an element is read."""

    def _block(self):
        src = np.array([[0, 1], [2, 3], [4, 0], [1, 1]])
        dst = np.array([[1, 1], [5, 3], [4, 4], [3, 2]])
        block = Request.bulk(src, dst, [3, 0, 7, 2],
                             deadlines=[None, 9, 20, None])
        eager = [Request(tuple(s), tuple(t), a, dl, rid)
                 for s, t, a, dl, rid in zip(
                     src.tolist(), dst.tolist(), [3, 0, 7, 2],
                     [None, 9, 20, None], block.rid.tolist())]
        return block, eager

    def test_behaves_like_the_eager_list(self):
        block, eager = self._block()
        assert isinstance(block, RequestBlock)
        assert block == eager and eager == block and len(block) == 4
        assert [block[i] for i in range(-4, 4)] \
            == [eager[i] for i in range(-4, 4)]
        assert block[1:3] == eager[1:3] and block[::-1] == eager[::-1]
        assert list(block) == eager and eager[2] in block
        assert block + eager == eager + block == eager + eager
        for got, want in zip(block, eager):
            assert (got.source, got.dest, got.arrival, got.deadline,
                    got.rid) == (want.source, want.dest, want.arrival,
                                 want.deadline, want.rid)
            assert pickle.dumps(got) == pickle.dumps(want)
        with pytest.raises(IndexError):
            block[4]

    def test_pickles_like_the_eager_list(self):
        block, eager = self._block()
        copy = pickle.loads(pickle.dumps(block))
        assert copy == eager
        assert [pickle.dumps(r) for r in copy] \
            == [pickle.dumps(r) for r in eager]

    def test_columns_are_read_only(self):
        block, _ = self._block()
        assert block.deadline.tolist()[:3] == [NO_DEADLINE, 9, 20]
        for column in (block.src, block.dst, block.arrival, block.deadline,
                       block.rid):
            assert column.dtype == np.int64
            with pytest.raises(ValueError):
                column[0] = 1

    def test_of_keeps_the_objects(self):
        _, eager = self._block()
        block = RequestBlock.of(eager)
        assert block[0] is eager[0] and RequestBlock.of(block) is block
        assert block.src.tolist() == [list(r.source) for r in eager]
        assert RequestBlock.of([]) == []

    @pytest.mark.parametrize("workload", [
        {"num": 60, "horizon": 12},
        {"num": 60, "horizon": 12, "slack": 2, "jitter": 3},
    ], ids=["uniform", "deadline"])
    @pytest.mark.parametrize("algorithm", ["greedy", "ntg", "edd"])
    def test_fast_path_builds_no_request(self, monkeypatch, workload,
                                         algorithm):
        from repro.api import NetworkSpec, Scenario, WorkloadSpec, run

        scenario = Scenario(
            NetworkSpec("grid", (5, 5), 1, 1),
            WorkloadSpec("deadline" if "slack" in workload else "uniform",
                         workload),
            algorithm, horizon=40, seed=3, engine="fast")
        want = run(scenario, cache="off", compute_bound=False)

        def built(*args, **kwargs):
            raise AssertionError("a Request object was built")

        monkeypatch.setattr(Request, "__init__", built)
        monkeypatch.setattr(RequestBlock, "_build", built)
        got = run(scenario, cache="off", compute_bound=False)
        assert got.engine == "fast" and got.throughput > 0
        assert dataclasses.replace(got, wall_time=0, engine_time=0) \
            == dataclasses.replace(want, wall_time=0, engine_time=0)


class TestRequestOrdering:
    def test_sorted_by_arrival_then_rid(self):
        a = Request.line(0, 1, 5, rid=2)
        b = Request.line(0, 1, 3, rid=9)
        c = Request.line(0, 1, 5, rid=1)
        assert sorted([a, b, c]) == [b, c, a]

    def test_repr_contains_endpoints(self):
        r = Request.line(1, 4, 2, rid=7)
        text = repr(r)
        assert "7" in text and "(1,)" in text and "(4,)" in text


class TestPacket:
    def test_remaining_distance(self):
        r = Request((0, 0), (3, 2), 0)
        pkt = Packet(request=r, location=(1, 0), injected_at=0)
        assert pkt.remaining_distance() == 4

    def test_status_default(self):
        pkt = Packet(request=Request.line(0, 1, 0), location=(0,), injected_at=0)
        assert pkt.status == DeliveryStatus.INJECTED

    def test_rid_and_dest_proxies(self):
        r = Request.line(0, 3, 0, rid=42)
        pkt = Packet(request=r, location=(0,), injected_at=0)
        assert pkt.rid == 42 and pkt.dest == (3,)


class TestDeliveryStatus:
    def test_all_states_present(self):
        names = {s.name for s in DeliveryStatus}
        assert names == {
            "PENDING", "REJECTED", "INJECTED", "PREEMPTED", "DELIVERED", "LATE",
        }
