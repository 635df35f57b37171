"""Tests for the workload generators."""

import ctypes
import threading
import zlib

import numpy as np
import pytest

from repro.network.packet import Request
from repro.network.topology import (
    GridNetwork,
    LineNetwork,
    RingNetwork,
    TorusNetwork,
)
from repro.util.errors import ValidationError
from repro.util.rng import as_generator
from repro.workloads import (
    bursty_requests,
    clogging_instance,
    deadline_requests,
    dense_area_instance,
    distance_cascade_instance,
    grid_crossfire_instance,
    permutation_requests,
    poisson_requests,
    uniform_requests,
    with_deadlines,
)


def scalar_uniform(network, num, horizon, rng=None, min_distance=1):
    """The per-request scalar program whose draw stream ``uniform_requests``
    must reproduce exactly (the oracle for the vectorized generator)."""
    rng = as_generator(rng)
    out = []
    dims = network.dims
    for _ in range(num):
        for _attempt in range(64):
            src = tuple(int(rng.integers(0, l)) for l in dims)
            dst = tuple(int(rng.integers(s, l)) for s, l in zip(src, dims))
            if sum(d - s for s, d in zip(src, dst)) >= min_distance:
                break
        else:
            src = tuple(0 for _ in dims)
            dst = tuple(l - 1 for l in dims)
        t = int(rng.integers(0, max(1, horizon)))
        out.append((src, dst, t))
    return out


def scalar_with_deadlines(requests, slack, rng=None, jitter=0, network=None):
    """Per-request scalar oracle for ``with_deadlines``."""
    rng = as_generator(rng)
    out = []
    for r in requests:
        extra = slack if jitter == 0 else slack + int(rng.integers(0, jitter + 1))
        dist = r.distance if network is None else network.dist(r.source, r.dest)
        out.append((r.source, r.dest, r.arrival, r.arrival + dist + extra, r.rid))
    return out


def triples(requests):
    return [(r.source, r.dest, r.arrival) for r in requests]


_U32 = ctypes.CFUNCTYPE(ctypes.c_uint32, ctypes.c_void_p)
_U64 = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
_F64 = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class _BitgenT(ctypes.Structure):
    # numpy's bitgen_t: the C interface every Generator draws through
    _fields_ = [("state", ctypes.c_void_p), ("next_uint64", _U64),
                ("next_uint32", _U32), ("next_double", _F64),
                ("next_raw", _U64)]


_capsule_new = ctypes.pythonapi.PyCapsule_New
_capsule_new.restype = ctypes.py_object
_capsule_new.argtypes = (ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p)


class ScriptedBits:
    """A bit generator whose ``next_uint32`` replays a fixed word list.

    Wrapped in ``np.random.Generator``, it drives numpy's own
    bounded-integer code (Lemire rejection included) and the vectorized
    generator through exactly the words a test chooses; ``state`` is the
    read position, so rewinding works as on a real bit generator.
    """

    def __init__(self, script, seed=0, fill=1 << 16):
        filler = np.random.default_rng(seed).integers(
            0, 1 << 32, size=fill, dtype=np.uint32)
        self.words = [int(w) for w in script] + filler.tolist()
        self.pos = 0
        self.lock = threading.Lock()
        self._funcs = (_U64(self._unused), _U32(self._next32),
                       _F64(self._unused), _U64(self._unused))
        self._struct = _BitgenT(None, *self._funcs)
        self._name = b"BitGenerator"
        self.capsule = _capsule_new(ctypes.addressof(self._struct),
                                    self._name, None)

    def _next32(self, _):
        word = self.words[self.pos]
        self.pos += 1
        return word

    def _unused(self, _):  # uniform draws only ever read 32-bit words
        self.pos = len(self.words) + 1
        return 0

    @property
    def state(self):
        return {"pos": self.pos}

    @state.setter
    def state(self, value):
        self.pos = value["pos"]


def scripted_pair(network, num, horizon, script, min_distance=1):
    """Run the oracle and the generator on the same scripted words;
    return both results and the words each consumed."""
    runs = []
    for generate in (scalar_uniform, uniform_requests):
        bits = ScriptedBits(script)
        out = generate(network, num, horizon, np.random.Generator(bits),
                       min_distance)
        assert bits.pos < len(bits.words)
        runs.append((out, bits.pos))
    (want, want_pos), (got, got_pos) = runs
    return want, want_pos, triples(got), got_pos


NETWORKS = [
    LineNetwork(9),
    GridNetwork((6, 5)),
    GridNetwork((3, 4, 5)),
    GridNetwork((1, 8)),  # size-1 axis: its draws consume no word
    RingNetwork(7),
    TorusNetwork((4, 6)),
]


class TestUniform:
    def test_count_and_validity(self):
        net = GridNetwork((4, 4), buffer_size=1, capacity=1)
        reqs = uniform_requests(net, 30, 10, rng=0)
        assert len(reqs) == 30
        for r in reqs:
            net.check_request(r)
            assert r.distance >= 1
            assert 0 <= r.arrival < 10

    def test_reproducible(self):
        net = LineNetwork(8)
        a = uniform_requests(net, 10, 5, rng=42)
        b = uniform_requests(net, 10, 5, rng=42)
        assert [(r.source, r.dest, r.arrival) for r in a] == [
            (r.source, r.dest, r.arrival) for r in b
        ]

    def test_min_distance(self):
        net = LineNetwork(16)
        reqs = uniform_requests(net, 20, 5, rng=1, min_distance=4)
        assert all(r.distance >= 4 for r in reqs)


class TestUniformStream:
    """``uniform_requests`` reproduces the scalar program's draw stream:
    the same requests, and the generator left in the same state."""

    @pytest.mark.parametrize("net", NETWORKS, ids=lambda n: f"{type(n).__name__}{n.dims}")
    @pytest.mark.parametrize("horizon", [0, 1, 17])
    @pytest.mark.parametrize("min_distance", [1, 3])
    def test_matches_scalar(self, net, horizon, min_distance):
        for seed in (0, 1):
            rng = as_generator(seed)
            got = uniform_requests(net, 300, horizon, rng, min_distance)
            ref = as_generator(seed)
            assert triples(got) == scalar_uniform(net, 300, horizon, ref,
                                                  min_distance)
            assert rng.integers(0, 1 << 62) == ref.integers(0, 1 << 62)

    @pytest.mark.parametrize("num", [0, 1, 2])
    def test_tiny_counts(self, num):
        net = GridNetwork((5, 5))
        rng, ref = as_generator(3), as_generator(3)
        got = uniform_requests(net, num, 9, rng)
        assert triples(got) == scalar_uniform(net, num, 9, ref)
        assert rng.integers(0, 1 << 62) == ref.integers(0, 1 << 62)

    def test_many_blocks(self):
        # 32x32 grid: several word blocks, chained across rewinds
        net = GridNetwork((32, 32))
        rng, ref = as_generator(11), as_generator(11)
        got = uniform_requests(net, 8000, 256, rng)
        assert triples(got) == scalar_uniform(net, 8000, 256, ref)
        assert rng.integers(0, 1 << 62) == ref.integers(0, 1 << 62)

    def test_unreachable_min_distance_uses_corner(self):
        # every attempt misses: 64 retries, then the far corner
        net = GridNetwork((2, 3))
        rng, ref = as_generator(5), as_generator(5)
        got = uniform_requests(net, 40, 6, rng, min_distance=9)
        assert triples(got) == scalar_uniform(net, 40, 6, ref, min_distance=9)
        assert all(r.source == (0, 0) and r.dest == (1, 2) for r in got)
        assert rng.integers(0, 1 << 62) == ref.integers(0, 1 << 62)

    def test_nothing_drawn(self):
        net = GridNetwork((1, 1))
        rng = as_generator(2)
        state = rng.bit_generator.state
        got = uniform_requests(net, 50, 1, rng)
        assert triples(got) == [((0, 0), (0, 0), 0)] * 50
        assert rng.bit_generator.state == state

    def test_lemire_rejections(self):
        # word 0 is rejected by every range that is not a power of two
        # (its low product half 0 lies below (2**32 - r) mod r > 0), so
        # zeros force retries in the source, destination and arrival draws
        net = LineNetwork(6)
        script = [0, 0, 0x9E3779B9, 0, 0x7F4A7C15, 0, 0, 0x2545F491] * 4
        want, want_pos, got, got_pos = scripted_pair(net, 40, 10, script)
        assert got == want and got_pos == want_pos
        # the first request: two source, one destination and two arrival
        # retries on top of the three accepted words
        assert want[0] == ((3,), (4,), 1)
        bits = ScriptedBits(script)
        scalar_uniform(net, 1, 10, np.random.Generator(bits))
        assert bits.pos == 8

    def test_lemire_rejections_grid(self):
        net = GridNetwork((3, 5, 7))
        script = [0, 0x9E3779B9, 0, 0, 0x5851F42D, 0, 0x7F4A7C15, 0, 1, 0,
                  0x2545F491] * 8
        want, want_pos, got, got_pos = scripted_pair(net, 60, 33, script)
        assert got == want and got_pos == want_pos

    @pytest.mark.parametrize("misses", [63, 64])
    def test_attempt_cap(self, misses):
        # word 1 maps to 0 on every range: source 0, destination offset 0,
        # a miss; 63 misses then a hit, or 64 misses and the corner
        net = LineNetwork(8)
        script = [1, 1] * misses + [1, 3 << 30, 1 << 31]
        want, want_pos, got, got_pos = scripted_pair(net, 5, 16, script)
        assert got == want and got_pos == want_pos
        if misses == 64:
            assert got[0][:2] == ((0,), (7,))
        else:
            assert got[0][:2] == ((0,), (6,))

    def test_golden_stream(self):
        # crc32 of the first 1000 requests and the next draw, per seed;
        # a changed stream would silently poison every on-disk cache
        # (bump api/cache.py:SCHEMA_VERSION if it ever changes on purpose)
        golden = {0: (0x0368765F, 4274590403043732387),
                  1: (0x3F7CCE90, 2615134066087509163),
                  2: (0x147571BB, 3573984008540700930)}
        for seed, (crc, after) in golden.items():
            rng = as_generator(seed)
            reqs = uniform_requests(GridNetwork((32, 32)), 1000, 256, rng)
            assert zlib.crc32(repr(triples(reqs)).encode()) == crc
            assert int(rng.integers(0, 2**62)) == after

    def test_rids_are_one_fresh_block(self):
        before = Request((0,), (1,), 0).rid
        reqs = uniform_requests(LineNetwork(8), 20, 5, rng=0)
        assert [r.rid for r in reqs] == list(range(before + 1, before + 21))
        assert Request((0,), (1,), 0).rid == before + 21


class TestPoisson:
    def test_rate_scales_count(self):
        net = LineNetwork(8)
        low = poisson_requests(net, 0.5, 50, rng=0)
        high = poisson_requests(net, 4.0, 50, rng=0)
        assert len(high) > len(low)

    def test_max_requests_cap(self):
        net = LineNetwork(8)
        reqs = poisson_requests(net, 5.0, 100, rng=0, max_requests=17)
        assert len(reqs) == 17

    def test_validity(self):
        net = GridNetwork((3, 3))
        for r in poisson_requests(net, 2.0, 20, rng=3):
            net.check_request(r)


class TestBursty:
    def test_burst_structure(self):
        net = LineNetwork(16)
        reqs = bursty_requests(net, bursts=3, burst_size=5, horizon=20, rng=0)
        times = {r.arrival for r in reqs}
        assert len(times) <= 3
        for r in reqs:
            net.check_request(r)

    def test_spread(self):
        net = LineNetwork(16)
        reqs = bursty_requests(net, 1, 20, 10, rng=1, spread=2)
        sources = {r.source[0] for r in reqs}
        assert max(sources) - min(sources) <= 4


class TestPermutation:
    def test_halves(self):
        net = LineNetwork(8)
        reqs = permutation_requests(net, rng=0)
        for r in reqs:
            assert r.source[0] < 4 <= r.dest[0]

    def test_rounds(self):
        net = LineNetwork(8)
        one = permutation_requests(net, rng=0, rounds=1)
        three = permutation_requests(net, rng=0, rounds=3, window=4)
        assert len(three) == 3 * len(one)

    def test_grid(self):
        net = GridNetwork((4, 4))
        reqs = permutation_requests(net, rng=1)
        assert reqs and all(net.contains(r.dest) for r in reqs)


class TestDeadlines:
    def test_slack_zero_forces_shortest(self):
        net = LineNetwork(8)
        reqs = deadline_requests(net, 10, 5, slack=0, rng=0)
        for r in reqs:
            assert r.deadline == r.arrival + r.distance

    def test_with_deadlines_preserves_ids(self):
        net = LineNetwork(8)
        base = uniform_requests(net, 5, 5, rng=0)
        dl = with_deadlines(base, slack=3)
        assert [r.rid for r in dl] == [r.rid for r in base]
        assert all(r.deadline == r.arrival + r.distance + 3 for r in dl)
        assert [(r.source, r.dest, r.arrival, r.deadline, r.rid) for r in dl] \
            == scalar_with_deadlines(base, slack=3)

    def test_jitter_bounds(self):
        net = LineNetwork(8)
        reqs = deadline_requests(net, 20, 5, slack=2, rng=1, jitter=3)
        for r in reqs:
            assert 2 <= r.deadline - r.arrival - r.distance <= 5

    @pytest.mark.parametrize("jitter", [0, 1, 6, 1000])
    @pytest.mark.parametrize("net", [LineNetwork(8), GridNetwork((5, 4)),
                                     TorusNetwork((4, 6))],
                             ids=lambda n: f"{type(n).__name__}{n.dims}")
    def test_jitter_matches_scalar(self, net, jitter):
        # one bulk jitter draw reads the stream of n scalar draws
        base = uniform_requests(net, 200, 12, rng=4)
        rng, ref = as_generator(9), as_generator(9)
        dl = with_deadlines(base, slack=2, rng=rng, jitter=jitter, network=net)
        assert [(r.source, r.dest, r.arrival, r.deadline, r.rid) for r in dl] \
            == scalar_with_deadlines(base, 2, ref, jitter, network=net)
        assert rng.integers(0, 1 << 62) == ref.integers(0, 1 << 62)
        for r in dl:
            net.check_request(r)

    def test_with_deadlines_empty(self):
        assert with_deadlines([], slack=1, rng=0, jitter=2) == []

    def test_with_deadlines_backward_request_on_line(self):
        net = LineNetwork(8)
        with pytest.raises(ValidationError, match="no directed path"):
            with_deadlines([Request((5,), (2,), 0)], slack=0, network=net)


class TestAdversarial:
    def test_clogging_shape(self):
        net = LineNetwork(8, buffer_size=2, capacity=1)
        reqs = clogging_instance(net, duration=4, shorts_per_node=1)
        longs = [r for r in reqs if r.distance == 7]
        shorts = [r for r in reqs if r.distance == 1]
        assert len(longs) == 4 and len(shorts) == 6 * 4

    def test_clogging_needs_four_nodes(self):
        with pytest.raises(ValidationError):
            clogging_instance(LineNetwork(3))

    def test_cascade_classes(self):
        net = LineNetwork(16, buffer_size=1, capacity=1)
        reqs = distance_cascade_instance(net, rng=0)
        distances = {r.distance for r in reqs}
        assert distances == {1, 2, 4, 8}

    def test_dense_area(self):
        net = GridNetwork((6, 6))
        reqs = dense_area_instance(net, area_side=2, per_node=3)
        assert len(reqs) == 4 * 3
        assert all(r.dest == (5, 5) for r in reqs)

    def test_dense_area_too_big(self):
        with pytest.raises(ValidationError):
            dense_area_instance(GridNetwork((4, 4)), area_side=5, per_node=1)

    def test_crossfire_shape(self):
        net = GridNetwork((8, 8))
        reqs = grid_crossfire_instance(net, width=2)
        rows = [r for r in reqs if r.source[0] == 0]
        cols = [r for r in reqs if r.source[1] == 0]
        assert len(rows) == 4 and len(cols) == 4

    def test_crossfire_needs_2d(self):
        with pytest.raises(ValidationError):
            grid_crossfire_instance(LineNetwork(8))
