"""Array-backed Model 1 engines: one tick loop for one scenario or many.

:func:`_run_stack` is the single array form of the Model 1 step
(Section 2.1): it replays the exact dynamics of
:class:`~repro.network.simulator.Simulator` -- deliveries first, then the
top ``c`` packets per link and the top ``B`` per buffer, with cut-through
-- but packs all packet state into numpy arrays (location, flat node id,
destination node id, arrival, deadline, status code) and resolves each
time step with grouped sort/scatter passes over the *live* packets, one
to two orders of magnitude faster than the reference engine.  It runs a
*stack* of independent ``(network, policy, requests, horizon)`` jobs on
one shared clock: :class:`FastEngine` is a stack of one, and
:class:`~repro.network.fast_batch_engine.FastBatchEngine` stacks many.

Requests are read as columns: a
:class:`~repro.network.packet.RequestBlock` (what the built-in workloads
return) hands over its validated arrays, and any other sequence is read
once.  The request sequence itself is passed through to the step views
as ``view.requests`` and indexed only where a policy asks for an object
(the batched adapter), so a greedy-family or native vector-policy run
on a block builds no :class:`~repro.network.packet.Request` object.
Delivery compares a row's node id with its destination's id, and a
forward moves the id by the axis stride (back a full side where a
wrapping axis crosses its seam), so the loop never re-derives ids from
coordinates.

Stacking
--------
Jobs are concatenated, not tiled: a row exists per *request*, so memory
is ``O(total requests x d_max)``.  Coordinates are padded to the widest
grid dimension ``d_max`` (padded axes have side 1, so they never show
distance-to-go and are never forwarded on), and node ids carry
per-job offsets, so no contention group ever mixes jobs.  Each job keeps
its private clock: arrivals after its horizon are never injected, its
packets leave the live set when its horizon passes, and its ``steps``
are derived after the loop from its last arrival and last exit tick.

Decisions come from the vectorized decision ABI of
:mod:`repro.network.engine`: once per tick, per *program*, the loop
builds a :class:`~repro.network.engine.StepView` and asks for a
:class:`~repro.network.engine.VectorDecision`.  The loop then enforces
``B``/``c`` (:class:`~repro.util.errors.CapacityError` on violation, like
the reference validator) and accounts the load counters, so policies only
choose packets.  Programs either merge the rows of many jobs into one
call on a stacked view (whose ``network`` is a facade with per-row or
shared ``B``/``c``):

* the greedy family -- any policy exposing a ``fast_priority`` attribute
  naming one of the built-in priority orders (``fifo``, ``lifo``,
  ``longest``, ``ntg``) runs on :class:`GreedyVectorPolicy`, and a mix of
  priorities on :class:`_StackedGreedyProgram`;
* :class:`~repro.network.simulator.PlanPolicy` replay -- the per-packet
  action tables of every plan job compile into one vector program;
* native :class:`~repro.network.engine.VectorPolicy` implementations
  that declare a ``batch_program`` label (the promise that decisions
  within a node group depend only on that group's rows) and keep no
  per-step state merge per ``(type, label)``;

or run per job on a job-local view (the job's real
:class:`~repro.network.topology.Network`, unpadded coordinates, its own
row-major node ids and request positions):

* every other native vector policy -- called directly, with its
  ``on_step_begin`` hook on each tick of the job's clock;
* any other scalar :class:`~repro.network.simulator.Policy` -- lifted by
  :class:`BatchedPolicyAdapter`, which groups the step view per node and
  makes one scalar ``decide`` call per node-step (not per packet).

Tracing still needs the per-packet hooks of the reference engine;
:func:`~repro.network.engine.make_engine` falls back automatically.  Both
engines emit the same :class:`~repro.network.simulator.SimulationResult`:
identical ``status`` maps and identical
:class:`~repro.network.stats.NetworkStats` counters.  The built-in
priority orders are total (unique request id as final tie-break), so
parity is exact, not just statistical; custom policies keep that parity
exactly when their decisions are order-insensitive functions of the
candidate set (see the ABI contract in :mod:`repro.network.engine`).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from types import SimpleNamespace

import numpy as np

from repro.network import kernel
from repro.network.engine import StepView, VectorDecision
from repro.network.packet import DeliveryStatus, Packet, RequestBlock
from repro.network.simulator import (
    PlanPolicy,
    Policy,
    SimulationResult,
    validate_decision,
)
from repro.network.stats import NetworkStats
from repro.network.topology import Network
from repro.network.trace import TraceRecorder
from repro.util.errors import CapacityError, ValidationError

# integer status codes used inside the array loop
_PENDING, _REJECTED, _INJECTED, _PREEMPTED, _DELIVERED, _LATE = range(6)

#: status code -> DeliveryStatus (indexed by code)
_CODE_TO_STATUS = (
    DeliveryStatus.PENDING,
    DeliveryStatus.REJECTED,
    DeliveryStatus.INJECTED,
    DeliveryStatus.PREEMPTED,
    DeliveryStatus.DELIVERED,
    DeliveryStatus.LATE,
)


def _priority_keys(name: str, arrival, rid, remaining):
    """Sort keys (most significant first) matching the reference policies'
    Python tuples; every order ends in the unique ``rid`` so it is total."""
    if name == "fifo":
        return (arrival, rid)
    if name == "lifo":
        return (-arrival, -rid)
    if name == "longest":
        return (-remaining, arrival, rid)
    if name == "ntg":
        return (remaining, arrival, rid)
    raise ValidationError(f"unknown fast priority {name!r}")


def _request_arrays(network, reqs):
    """``(src, dst, arrival, deadline, rid)`` int64 columns of ``reqs``
    (validated against ``network``) -- the shared packet-state setup of
    the fast engines.

    A :class:`~repro.network.packet.RequestBlock` hands over its columns
    as they are (read-only); any other sequence is read into columns
    once.  Validation is vectorized: one bounds check over the columns
    instead of a per-request Python loop.  On failure the first
    offending request is re-checked through ``network.check_request`` so
    the error is byte-identical to the scalar path's.
    """
    try:
        block = RequestBlock.of(reqs)
    except ValidationError:  # ragged coordinates: mixed dimensionality
        block = None
    if block is None or (len(block) and block.src.shape[1] != network.d):
        for r in reqs:
            network.check_request(r)
        raise AssertionError("check_request accepted a ragged batch")
    if not len(block):
        empty = np.zeros(0, dtype=np.int64)
        nodes = np.zeros((0, network.d), dtype=np.int64)
        return nodes, nodes, empty, empty, empty
    src, dst = block.src, block.dst
    arrival, deadline = block.arrival, block.deadline
    dims = np.asarray(network.dims, dtype=np.int64)
    ok = ((src >= 0) & (src < dims) & (dst >= 0) & (dst < dims)).all(axis=1)
    # reachability (non-wrapping axes must not decrease) and deadline
    # feasibility, matching Network.check_request row for row
    wrap = np.asarray(network.wrap, dtype=bool)
    if not wrap.all():
        ok &= (src[:, ~wrap] <= dst[:, ~wrap]).all(axis=1)
    distance = np.where(wrap, (dst - src) % dims, dst - src).sum(axis=1)
    ok &= deadline >= arrival + distance
    if not ok.all():
        network.check_request(block[int(np.flatnonzero(~ok)[0])])
        raise AssertionError("check_request accepted an invalid request")
    return src, dst, arrival, deadline, block.rid


def _finalize_result(stats, scode, rid, times, trace, engine="fast"):
    """Resolve end-of-horizon statuses and build the result record.

    Anything still pending was never handled (rejected); anything still
    in flight never reached its destination (preempted) -- the shared
    epilogue of the fast engines, mirroring the reference loops.
    ``times`` is read only at delivered (on time or late) rows, where it
    holds the delivery tick.  ``engine`` labels the result.
    """
    pending = scode == _PENDING
    stats.rejected += int(pending.sum())
    scode[pending] = _REJECTED
    in_flight = scode == _INJECTED
    stats.preempted += int(in_flight.sum())
    scode[in_flight] = _PREEMPTED

    status = dict(zip(rid.tolist(),
                      map(_CODE_TO_STATUS.__getitem__, scode.tolist())))
    done = scode >= _DELIVERED  # DELIVERED or LATE
    stats.delivery_times.update(zip(rid[done].tolist(),
                                    times[done].tolist()))
    return SimulationResult(stats=stats, status=status, trace=trace,
                            engine=engine)


def greedy_masks(view: StepView, keys) -> VectorDecision:
    """Greedy contention resolution under a total order: the decision of
    every greedy-family policy, parameterized by its key tuple.

    Per (node, axis) the top ``c`` packets under ``keys`` (most
    significant first; end in ``view.rid`` to make the order total) are
    forwarded -- 1-bend routing, the first unfinished axis, with ``c``
    read per edge so ``link_caps`` hotspots admit fewer -- and per
    node the top ``B`` leftovers are stored.  Public on purpose: custom
    vector policies (see :mod:`repro.baselines.edd`) build their key
    arrays and delegate the subtle mask construction here, so the
    bit-identity-critical logic exists once.  The ranking and admission
    themselves run in the selected step kernel
    (:func:`repro.network.kernel.admit` -- compiled under numba, plain
    numpy otherwise).

    ``view.network`` may be a per-job :class:`Network` (scalar
    ``B``/``c``) or the stacked facade, whose ``buffer_size`` and
    ``capacity`` may be *per-row* arrays -- the ranking is group-local
    either way, so the same masks come out row for row.
    """
    togo = view.network.togo_array(view.loc, view.dst)
    axis = np.argmax(togo > 0, axis=1)  # one-bend: first unfinished axis
    fwd_mask, store_mask = kernel.admit(
        view.node_id, axis, view.network.d, keys,
        view.network.buffer_size,
        view.network.edge_capacity(view.node_id, axis))
    return VectorDecision(forward=fwd_mask, axis=axis, store=store_mask)


class GreedyVectorPolicy:
    """The built-in greedy family on the decision ABI.

    Bit-identical to :class:`~repro.baselines.greedy.GreedyPolicy` /
    :class:`~repro.baselines.nearest_to_go.NearestToGoPolicy` because the
    key tuples match and end in the unique ``rid``.
    """

    def __init__(self, priority: str):
        _priority_keys(priority, np.empty(0, np.int64),
                       np.empty(0, np.int64), np.empty(0, np.int64))
        self.priority = priority

    def decide_vector(self, view: StepView) -> VectorDecision:
        keys = _priority_keys(self.priority, view.arrival, view.rid,
                              view.remaining())
        return greedy_masks(view, keys)


#: per-request priority codes of the merged greedy program
_GREEDY_CODES = {"fifo": 0, "lifo": 1, "longest": 2, "ntg": 3}


class _StackedGreedyProgram:
    """Greedy jobs of *mixed* priorities as one decision program.

    Contention groups are job-local (node ids carry per-job offsets), so
    rows of different priorities never meet in a group -- selecting each
    row's sort keys by its job's priority code therefore ranks every
    group exactly as that job's own :class:`GreedyVectorPolicy` would.
    The unified key tuple appends a redundant final ``rid`` key where a
    priority's own tuple is shorter; within a priority-pure group that is
    a no-op (the order is already total by then).  One program instead of
    one per priority keeps the per-tick cost flat in the number of
    priority families a sweep mixes.
    """

    __slots__ = ("_pcode",)

    def __init__(self, pcode):
        self._pcode = pcode  # priority code per stacked request position

    def decide_vector(self, view: StepView):
        p = self._pcode[view.index]
        arrival, rid = view.arrival, view.rid
        remaining = view.remaining()
        # fifo: (arrival, rid) / lifo: (-arrival, -rid)
        # longest: (-remaining, arrival, rid) / ntg: (remaining, arrival, rid)
        k1 = np.where(p == 0, arrival,
                      np.where(p == 1, -arrival,
                               np.where(p == 2, -remaining, remaining)))
        k2 = np.where(p == 0, rid, np.where(p == 1, -rid, arrival))
        k3 = np.where(p == 1, -rid, rid)
        return greedy_masks(view, (k1, k2, k3))


class _PlanVectorPolicy:
    """Plan replay on the decision ABI: per-packet action tables.

    Compiled once per run from the ``(rid, t)`` action maps of
    ``(policy, lo, hi)`` parts -- each a :class:`PlanPolicy` owning the
    request positions ``lo..hi-1`` -- so every plan job of a stack
    shares one table: the packet at position ``i`` performs
    ``codes[offset[i] + (t - t0[i])]`` at time ``t`` when
    ``0 <= t - t0[i] < length[i]``; code ``axis < d`` forwards, code
    ``d`` stores, ``-1`` (or no table entry) deletes.
    """

    def __init__(self, parts, d: int, rid):
        n = len(rid)
        self._d = d
        self._t0 = np.zeros(n, dtype=np.int64)
        self._len = np.zeros(n, dtype=np.int64)
        self._off = np.zeros(n, dtype=np.int64)
        chunks = []
        pos = 0
        for policy, lo, hi in parts:
            by_rid: dict = {}
            for (r, t), action in policy.actions.items():
                by_rid.setdefault(r, {})[t] = action
            for i in range(lo, hi):
                acts = by_rid.get(int(rid[i]))
                if not acts:
                    continue
                times = sorted(acts)
                self._t0[i] = times[0]
                self._len[i] = times[-1] - times[0] + 1
                codes = np.full(self._len[i], -1, dtype=np.int64)
                for t, action in acts.items():
                    codes[t - times[0]] = d if action[0] == "S" else action[1]
                self._off[i] = pos
                pos += len(codes)
                chunks.append(codes)
        self._codes = (np.concatenate(chunks) if chunks
                       else np.empty(0, dtype=np.int64))

    def decide_vector(self, view: StepView) -> VectorDecision:
        i = view.index
        rel = view.t - self._t0[i]
        has = (rel >= 0) & (rel < self._len[i])
        code = np.full(view.size, -1, dtype=np.int64)
        if has.any():
            code[has] = self._codes[self._off[i[has]] + rel[has]]
        fwd_mask = (code >= 0) & (code < self._d)
        store_mask = code == self._d
        return VectorDecision(forward=fwd_mask, axis=np.maximum(code, 0),
                              store=store_mask)


class BatchedPolicyAdapter:
    """Lift any scalar :class:`Policy` onto the decision ABI.

    ``decide_vector`` groups the step view per node, re-materializes the
    candidate :class:`~repro.network.packet.Packet` records (rid-sorted,
    with exact ``location``/``hops``/``injected_at``), and makes one
    scalar ``decide`` call per node-step -- the per-packet Python loop of
    the reference engine collapses to a per-node one.  Decisions go
    through the reference engine's own
    :func:`~repro.network.simulator.validate_decision` before being
    scattered back into masks.

    Bit-identity with the reference engine holds for policies whose
    decisions are order-insensitive in the candidate list and do not key
    state on packet object identity (see :mod:`repro.network.engine`).
    """

    def __init__(self, policy: Policy, network: Network):
        self.policy = policy
        self.network = network

    def on_step_begin(self, t: int) -> None:
        self.policy.on_step_begin(t)

    def decide_vector(self, view: StepView) -> VectorDecision:
        network = self.network
        fwd_mask = np.zeros(view.size, dtype=bool)
        axis_arr = np.zeros(view.size, dtype=np.int64)
        store_mask = np.zeros(view.size, dtype=bool)
        hops = view.hops()

        order = np.lexsort((view.rid, view.node_id))
        gid = view.node_id[order]
        starts = np.flatnonzero(np.r_[True, gid[1:] != gid[:-1]])
        bounds = np.append(starts, len(order))
        for s, e in zip(bounds[:-1], bounds[1:]):
            rows = order[s:e]
            node = tuple(int(x) for x in view.loc[rows[0]])
            row_of: dict = {}
            candidates = []
            for r in rows:
                pkt = Packet(request=view.requests[view.index[r]],
                             location=node, injected_at=int(view.arrival[r]),
                             hops=int(hops[r]))
                row_of[id(pkt)] = int(r)
                candidates.append(pkt)
            decision = self.policy.decide(node, view.t, candidates, network)
            validate_decision(network, node, candidates, decision)
            for axis, pkts in decision.forward.items():
                for pkt in pkts:
                    row = row_of[id(pkt)]
                    fwd_mask[row] = True
                    axis_arr[row] = axis
            for pkt in decision.store:
                store_mask[row_of[id(pkt)]] = True
        return VectorDecision(forward=fwd_mask, axis=axis_arr,
                              store=store_mask)


class _StackedNetworkView:
    """The ``view.network`` of a merged program: the stack's geometry.

    ``d`` is the widest grid dimension of the stack; ``buffer_size`` and
    ``capacity`` are scalars when every stacked network shares them, and
    arrays aligned with the view's rows otherwise.  ``dims``/``wrap`` are
    the side lengths and wraparound flags -- one ``(d,)`` row when every
    job shares them, per-row ``(k, d)`` arrays otherwise (``wrap`` is
    ``None`` when no job wraps) -- and ``cap_flat`` the stack's
    per-``(node, axis)`` capacity table (``None`` when every network is
    capacity-uniform).  Merged programs must read the network only
    through these attributes and the geometry methods below, which
    mirror :class:`~repro.network.topology.Network`'s --
    :func:`greedy_masks` does.
    """

    __slots__ = ("d", "buffer_size", "capacity", "dims", "wrap", "cap_flat")

    def __init__(self, d: int, buffer_size, capacity, dims=None, wrap=None,
                 cap_flat=None):
        self.d = d
        self.buffer_size = buffer_size
        self.capacity = capacity
        self.dims = dims
        self.wrap = wrap
        self.cap_flat = cap_flat

    def togo_array(self, loc, dst):
        togo = dst - loc
        if self.wrap is not None:
            togo = np.where(self.wrap, togo % self.dims, togo)
        return togo

    def hops_array(self, src, loc):
        hops = loc - src
        if self.wrap is not None:
            hops = np.where(self.wrap, hops % self.dims, hops)
        return hops

    def edge_capacity(self, node_id, axis):
        if self.cap_flat is None:
            return self.capacity  # shared or per-row c
        return self.cap_flat[node_id * self.d + axis]


def _program_key(policy):
    """How ``policy`` runs in the shared loop, or ``None`` when no lift
    exists.

    ``("plan",)``, ``("greedy",)`` and ``("native", type, label)`` name
    programs that merge every job carrying the key; ``("job",)`` runs per
    job on a job-local view -- a scalar policy (through
    :class:`BatchedPolicyAdapter`) or a vector policy that either
    declares no ``batch_program`` label or observes step boundaries
    (``on_step_begin``), which one shared program cannot replay per job.
    """
    if isinstance(policy, PlanPolicy):
        return ("plan",)
    if callable(getattr(policy, "decide_vector", None)):
        label = getattr(policy, "batch_program", None)
        hook = getattr(type(policy), "on_step_begin", None)
        if label is not None and hook in (None, Policy.on_step_begin):
            return ("native", type(policy), label)
        return ("job",)
    if getattr(policy, "fast_priority", None) in \
            FastEngine.SUPPORTED_PRIORITIES:
        return ("greedy",)
    if callable(getattr(policy, "decide", None)):
        return ("job",)
    return None


def _assign_programs(jobs, rid, off, cnt, d):
    """``(programs, prog_of_job)``: one ``(program, job)`` entry per
    decision program -- ``job`` is ``None`` for programs that merge jobs
    on the stacked view, else the one job a job-local program serves --
    and each job's program index.  The per-tick cost is per *program*,
    so merging keeps it flat in the number of stacked jobs."""
    programs: list = []
    index: dict = {}
    prog_of_job = np.zeros(len(jobs), dtype=np.int64)
    plan_parts: list = []
    greedy_jobs: list = []
    for b, (network, policy, _requests, _horizon) in enumerate(jobs):
        key = _program_key(policy)
        if key == ("job",):
            key = ("job", b)
            program = policy if callable(
                getattr(policy, "decide_vector", None)) \
                else BatchedPolicyAdapter(policy, network)
        elif key == ("plan",):
            program = None  # merged below
            plan_parts.append((policy, off[b], off[b] + cnt[b]))
        elif key == ("greedy",):
            program = None  # merged below
            greedy_jobs.append(b)
        else:
            program = policy
        pid = index.get(key)
        if pid is None:
            pid = index[key] = len(programs)
            programs.append((program, b if key[0] == "job" else None))
        prog_of_job[b] = pid
    if greedy_jobs:
        priorities = {jobs[b][1].fast_priority for b in greedy_jobs}
        if len(priorities) == 1:
            program = GreedyVectorPolicy(priorities.pop())
        else:
            pcode = np.zeros(len(rid), dtype=np.int64)
            for b in greedy_jobs:
                pcode[off[b]:off[b] + cnt[b]] = \
                    _GREEDY_CODES[jobs[b][1].fast_priority]
            program = _StackedGreedyProgram(pcode)
        programs[index[("greedy",)]] = (program, None)
    if plan_parts:
        programs[index[("plan",)]] = (_PlanVectorPolicy(plan_parts, d, rid),
                                      None)
    return programs, prog_of_job


def _capacity_error(message, counts, cap, job_of, st):
    """The :class:`~repro.util.errors.CapacityError` for the first group
    whose load exceeds its cap (``message`` formats load and cap)."""
    i = int(np.flatnonzero(counts > cap)[0])
    cap_i = int(np.broadcast_to(cap, counts.shape)[i])
    b = int(np.broadcast_to(job_of, counts.shape)[i])
    where = "" if st.m == 1 else f" (batch scenario {b})"
    return CapacityError(
        f"decision {message.format(int(counts[i]), cap_i)}{where}")


def _check_decision(decision, view, rows, nid, job, st):
    """Validate a :class:`VectorDecision` and account the load maxima.

    ``rows`` are the view's stacked row positions and ``nid`` their
    stacked node ids; ``job`` is the job every row belongs to, or
    ``None`` when a merged program's rows may span jobs (``view.batch``
    then names each row's job).  ``st`` is the stack's state (see
    :func:`_run_stack`).  The engine, not the policy, enforces the model:
    mismatched shapes, overlapping masks, unknown axes and off-grid
    forwards raise :class:`~repro.util.errors.ValidationError`; link
    loads above ``c`` and buffer loads above ``B`` raise
    :class:`~repro.util.errors.CapacityError` -- the same contract the
    reference engine's validator applies to scalar decisions.  Contention
    groups are job-local, so per-call accounting is exact.
    """
    fwd_mask = np.asarray(decision.forward, dtype=bool)
    store_mask = np.asarray(decision.store, dtype=bool)
    axis_arr = np.asarray(decision.axis, dtype=np.int64)
    k = view.size
    if fwd_mask.shape != (k,) or store_mask.shape != (k,) \
            or axis_arr.shape != (k,):
        raise ValidationError(
            f"vector decision shapes {fwd_mask.shape}/{axis_arr.shape}/"
            f"{store_mask.shape} do not match the step view ({k} rows)"
        )
    both = fwd_mask & store_mask
    if both.any():
        i = int(np.flatnonzero(both)[0])
        raise ValidationError(f"packet {int(view.rid[i])} scheduled twice")
    if job is None and st.m == 1:
        job = 0

    if fwd_mask.any():
        fa = axis_arr[fwd_mask]
        d = view.network.d
        if ((fa < 0) | (fa >= d)).any():
            raise ValidationError(
                f"vector decision names an axis outside 0..{d - 1}")
        fb = job if job is not None else view.batch[fwd_mask]
        if st.dims is not None:
            side, wraps = st.dims[fa], st.wrap[fa]
        else:
            side, wraps = st.dims_j[fb, fa], st.wrap_j[fb, fa]
        # an edge exists when the head stays on-grid, or the axis wraps
        # with more than one node
        bad = (st.loc[rows[fwd_mask], fa] + 1 >= side) & \
            (~wraps | (side == 1))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            node = tuple(int(x) for x in view.loc[fwd_mask][i])
            where = "" if st.m == 1 else \
                f" (batch scenario {int(np.broadcast_to(fb, bad.shape)[i])})"
            raise ValidationError(
                f"node {node} has no outgoing axis {int(fa[i])}{where}")
        gid = nid[fwd_mask] * st.d + fa
        if job is not None:
            uniq, counts = np.unique(gid, return_counts=True)
            worst = int(counts.max())
            cap = st.cs[job] if st.cap_flat is None else st.cap_flat[uniq]
            if worst > cap if st.cap_flat is None else (counts > cap).any():
                raise _capacity_error("forwards {} > c={} on a link",
                                      counts, cap, job, st)
            if worst > st.max_link[job]:
                st.max_link[job] = worst
        else:
            uniq, first, counts = np.unique(gid, return_index=True,
                                            return_counts=True)
            gb = fb[first]
            cap = st.cap_flat[uniq] if st.cap_flat is not None \
                else st.c if st.c is not None else st.c_j[gb]
            if (counts > cap).any():
                raise _capacity_error("forwards {} > c={} on a link",
                                      counts, cap, gb, st)
            np.maximum.at(st.max_link, gb, counts)

    if store_mask.any():
        if job is not None:
            _, counts = np.unique(nid[store_mask], return_counts=True)
            worst = int(counts.max())
            if worst > st.Bs[job]:
                raise _capacity_error("stores {} > B={} at a node",
                                      counts, st.Bs[job], job, st)
            if worst > st.max_buf[job]:
                st.max_buf[job] = worst
        else:
            _, first, counts = np.unique(nid[store_mask], return_index=True,
                                         return_counts=True)
            gb = view.batch[store_mask][first]
            cap = st.B if st.B is not None else st.B_j[gb]
            if (counts > cap).any():
                raise _capacity_error("stores {} > B={} at a node",
                                      counts, cap, gb, st)
            np.maximum.at(st.max_buf, gb, counts)
    return fwd_mask, axis_arr, store_mask


class _ChainedRequests(Sequence):
    """The requests of stacked jobs as one sequence, indexed on demand
    (``view.requests`` of a merged program), without building a copy."""

    __slots__ = ("_parts", "_off")

    def __init__(self, parts, off):
        self._parts = parts
        self._off = off  # stacked position of each part's first request

    def __len__(self) -> int:
        return self._off[-1] + len(self._parts[-1])

    def __getitem__(self, i):
        if not -len(self) <= i < len(self):
            raise IndexError(i)
        i %= len(self)
        b = bisect_right(self._off, i) - 1
        return self._parts[b][i - self._off[b]]


def _shared(values):
    """The one value every job agrees on, or ``None``."""
    first = values[0]
    return first if all(v == first for v in values) else None


def _run_stack(jobs, engine: str) -> list:
    """The Model 1 tick loop over a stack of ``(network, policy,
    requests, horizon)`` jobs: one :class:`SimulationResult` per job, in
    job order, each bit-identical to the reference engine's run of that
    job alone.  ``engine`` labels the results.

    Per-tick work is per live row and per program, never per job: jobs
    stop at precomputed horizon ticks, and ``steps`` plus every counter
    except the load maxima are derived once, after the loop.  A job-local
    program calls its job's own policy object, so one stateful policy
    *instance* must not be stacked into several jobs.
    """
    m = len(jobs)
    if m == 0:
        return []
    nets = [job[0] for job in jobs]
    # indexed on demand by views, never copied: a RequestBlock keeps its
    # objects unbuilt unless a policy reads them
    reqs_of = [job[2] if isinstance(job[2], Sequence) else tuple(job[2])
               for job in jobs]
    horizons = [int(job[3]) for job in jobs]
    cnt = [len(reqs) for reqs in reqs_of]
    off = [0] * m
    for b in range(1, m):
        off[b] = off[b - 1] + cnt[b - 1]
    total = off[-1] + cnt[-1]
    d = max(net.d for net in nets)
    parts = [_request_arrays(net, reqs) for net, reqs in zip(nets, reqs_of)]
    if m == 1:
        src, dst, arrival, deadline, rid = parts[0]
        bid = None
    else:
        def cat(i, coords):
            chunks = [p[i] for p in parts if len(p[i])]
            if coords:  # pad to d columns
                chunks = [x if x.shape[1] == d
                          else np.pad(x, ((0, 0), (0, d - x.shape[1])))
                          for x in chunks]
            if not chunks:
                return np.zeros((0, d) if coords else 0, dtype=np.int64)
            return np.concatenate(chunks)

        src, dst = cat(0, True), cat(1, True)
        arrival, deadline, rid = cat(2, False), cat(3, False), cat(4, False)
        bid = np.repeat(np.arange(m), cnt)  # row -> job
    last_arr = [int(arrival[o:o + n].max()) if n else -1
                for o, n in zip(off, cnt)]

    # -- geometry: shared rows where every job agrees ------------------------
    extra = [d - net.d for net in nets]
    dims_j = np.array([net.dims + (1,) * e for net, e in zip(nets, extra)],
                      dtype=np.int64)
    wrap_j = np.array([net.wrap + (False,) * e
                       for net, e in zip(nets, extra)], dtype=bool)
    # row-major strides over the padded sides (padded axes have side 1, so
    # every job keeps its own Network.node_index ids, offset per job)
    strides_j = np.ones((m, d), dtype=np.int64)
    strides_j[:, :-1] = np.cumprod(dims_j[:, :0:-1], axis=1)[:, ::-1]
    node_off = np.zeros(m, dtype=np.int64)
    node_off[1:] = np.cumsum([net.n for net in nets[:-1]])
    uniform = m == 1 or bool((dims_j == dims_j[0]).all()
                             and (wrap_j == wrap_j[0]).all())
    any_wrap = any(net.any_wrap for net in nets)
    if not any(net.link_caps for net in nets):
        cap_flat = None
    else:
        cap_flat = np.concatenate([np.full(net.n * d, net.capacity,
                                           dtype=np.int64) for net in nets])
        for b, net in enumerate(nets):
            for (tail, axis), cap in net.link_caps.items():
                cap_flat[(node_off[b] + net.node_index(tail)) * d
                         + axis] = cap
    Bs = [net.buffer_size for net in nets]
    cs = [net.capacity for net in nets]
    B, c = _shared(Bs), _shared(cs)
    # the stack's state as the decision checker reads it: shared values
    # where every job agrees (else None plus the per-job tables), and the
    # per-job load maxima it updates
    st = SimpleNamespace(
        m=m, d=d, loc=src.copy(),
        dims=dims_j[0] if uniform else None,
        wrap=wrap_j[0] if uniform else None,
        dims_j=dims_j, wrap_j=wrap_j, cap_flat=cap_flat,
        B=B, Bs=Bs, B_j=None if B is not None else np.array(Bs),
        c=c, cs=cs, c_j=None if c is not None else np.array(cs),
        max_link=np.zeros(m, dtype=np.int64),
        max_buf=np.zeros(m, dtype=np.int64),
    )
    loc = st.loc
    # each row's flat node id (the job's Network.node_index plus its node
    # offset) and its destination's: delivery is an id compare, and a
    # forward moves the id by the axis stride
    base = node_off[bid] if m > 1 else 0
    if uniform:
        nid = src @ strides_j[0] + base
        dnid = dst @ strides_j[0] + base
    else:
        row_strides = strides_j[bid]
        nid = (src * row_strides).sum(axis=1) + base
        dnid = (dst * row_strides).sum(axis=1) + base

    programs, prog_of_job = _assign_programs(jobs, rid, off, cnt, d)
    prog_row = prog_of_job[bid] if len(programs) > 1 else None
    reqs_all = reqs_of[0] if m == 1 else _ChainedRequests(reqs_of, off)
    # merged programs see the stack through one facade, built once when
    # nothing in it varies per row
    shared_view = None
    if uniform and st.B is not None and st.c is not None:
        shared_view = _StackedNetworkView(
            d, st.B, st.c, st.dims, st.wrap if any_wrap else None, cap_flat)
    # job-local programs observing their job's clock: [job, hook]
    hooked = [[b, program.on_step_begin] for program, b in programs
              if b is not None
              and callable(getattr(program, "on_step_begin", None))]

    def decide(program, job, rows, nid, t):
        if job is None:  # merged program: the stacked view
            rb = bid[rows] if m > 1 else None
            net = shared_view or _StackedNetworkView(
                d,
                st.B if st.B is not None else st.B_j[rb],
                st.c if st.c is not None else st.c_j[rb],
                st.dims if uniform else dims_j[rb],
                None if not any_wrap else st.wrap if uniform else wrap_j[rb],
                cap_flat)
            view = StepView(
                t=t, network=net, requests=reqs_all, index=rows,
                node_id=nid, loc=loc[rows], src=src[rows], dst=dst[rows],
                arrival=arrival[rows], deadline=deadline[rows],
                rid=rid[rows], batch=rb)
        else:  # job-local view: the job's own network, ids and positions
            dj = nets[job].d
            view = StepView(
                t=t, network=nets[job], requests=reqs_of[job],
                index=rows - off[job], node_id=nid - node_off[job],
                loc=loc[rows, :dj], src=src[rows, :dj], dst=dst[rows, :dj],
                arrival=arrival[rows], deadline=deadline[rows],
                rid=rid[rows])
        return _check_decision(program.decide_vector(view), view, rows,
                               nid, job, st)

    # -- the tick loop ---------------------------------------------------------
    alive = np.zeros(total, dtype=bool)
    scode = np.zeros(total, dtype=np.int64)  # _PENDING
    exit_t = np.full(total, -1, dtype=np.int64)  # delivery or drop tick
    # arrivals after their own job's horizon are never revealed
    if all(a <= h for a, h in zip(last_arr, horizons)):
        inj_order = kernel.injection_order(arrival)
    else:
        rows = np.flatnonzero(arrival <= np.repeat(horizons, cnt))
        inj_order = rows[kernel.injection_order(arrival[rows])]
    arr_sorted = arrival[inj_order]
    last_arrival = int(arr_sorted[-1]) if arr_sorted.size else -1
    # each job leaves the live set (its packets stranded) at horizon + 1
    max_h = max(horizons)
    stops = sorted((h + 1, b) for b, h in enumerate(horizons)
                   if h < max_h and cnt[b])
    strides = strides_j[0]
    sp = ptr = n_alive = 0
    n_fwd = n_store = 0  # one job: plain counts
    fwd_log: list = []  # stacked jobs: bincounted once after the loop
    store_log: list = []

    for t in range(0, max_h + 1):
        if n_alive == 0 and t > last_arrival and not hooked:
            break
        while sp < len(stops) and stops[sp][0] <= t:
            b = stops[sp][1]
            n_alive -= int(np.count_nonzero(alive[off[b]:off[b] + cnt[b]]))
            alive[off[b]:off[b] + cnt[b]] = False
            sp += 1
        if hooked:
            for entry in list(hooked):
                b = entry[0]
                if t > horizons[b] or (t > last_arr[b] and not
                                       alive[off[b]:off[b] + cnt[b]].any()):
                    hooked.remove(entry)  # the job's clock has stopped
                else:
                    entry[1](t)

        # local inputs revealed at time t
        hi = int(np.searchsorted(arr_sorted, t, side="right"))
        if hi > ptr:
            alive[inj_order[ptr:hi]] = True
            n_alive += hi - ptr
            ptr = hi

        act = np.flatnonzero(alive)
        if act.size == 0:
            continue

        # deliveries first (Section 2.1)
        at_dest = nid[act] == dnid[act]
        done = act[at_dest]
        if done.size:
            scode[done] = np.where(t <= deadline[done], _DELIVERED, _LATE)
            exit_t[done] = t
            alive[done] = False
            n_alive -= done.size
        rem = act[~at_dest]
        if rem.size == 0:
            continue

        node_id = nid[rem]
        if prog_row is None:
            program, job = programs[0]
            fwd_mask, axis_arr, store_mask = decide(program, job, rem,
                                                    node_id, t)
        else:
            k = rem.size
            fwd_mask = np.zeros(k, dtype=bool)
            axis_arr = np.zeros(k, dtype=np.int64)
            store_mask = np.zeros(k, dtype=bool)
            pr = prog_row[rem]
            order = np.argsort(pr, kind="stable")
            counts = np.bincount(pr, minlength=len(programs))
            ends = np.cumsum(counts)
            for pid in np.flatnonzero(counts):
                pos = order[ends[pid] - counts[pid]:ends[pid]]
                program, job = programs[pid]
                f, a, s = decide(program, job, rem[pos], node_id[pos], t)
                fwd_mask[pos] = f
                axis_arr[pos] = a
                store_mask[pos] = s

        fwd = rem[fwd_mask]
        if fwd.size:
            fa = axis_arr[fwd_mask]
            loc[fwd, fa] += 1
            step = strides[fa] if uniform else strides_j[bid[fwd], fa]
            if any_wrap:
                # identity on non-wrapping axes (heads were validated)
                side = st.dims[fa] if uniform else dims_j[bid[fwd], fa]
                loc[fwd, fa] %= side
                # a head that wrapped to 0 moved back side - 1 strides
                step = np.where(loc[fwd, fa] == 0, step * (1 - side), step)
            nid[fwd] += step
            scode[fwd] = _INJECTED
            if m == 1:
                n_fwd += fwd.size
            else:
                fwd_log.append(fwd)
        stored = rem[store_mask]
        if stored.size:
            scode[stored] = _INJECTED
            if m == 1:
                n_store += stored.size
            else:
                store_log.append(stored)
        dropped = rem[~fwd_mask & ~store_mask]
        if dropped.size:
            fresh = arrival[dropped] == t  # rejected at injection
            scode[dropped] = np.where(fresh, _REJECTED, _PREEMPTED)
            exit_t[dropped] = t
            alive[dropped] = False
            n_alive -= dropped.size

    # -- per-job accounting, from the final status codes ---------------------
    if m == 1:
        forwards, stores = [n_fwd], [n_store]
    else:
        def per_job(log):
            if not log:
                return [0] * m
            return np.bincount(bid[np.concatenate(log)], minlength=m)

        forwards, stores = per_job(fwd_log), per_job(store_log)
    codes_j = np.bincount(scode if m == 1 else bid * 6 + scode,
                          minlength=6 * m).reshape(m, 6)
    results = []
    for b in range(m):
        o, n, h = off[b], cnt[b], horizons[b]
        codes = codes_j[b].tolist()
        stats = NetworkStats(
            delivered=codes[_DELIVERED], late=codes[_LATE],
            rejected=codes[_REJECTED], preempted=codes[_PREEMPTED],
            forwards=int(forwards[b]), stores=int(stores[b]),
            max_link_load=int(st.max_link[b]),
            max_buffer_load=int(st.max_buf[b]),
        )
        trace = TraceRecorder(enabled=False)
        if n == 0:
            results.append(SimulationResult(stats=stats, status={},
                                            trace=trace, engine=engine))
            continue
        # the job's private loop ran until its horizon, or until it was
        # drained with no arrivals left; stranded packets keep it to the
        # horizon
        last = max(last_arr[b], int(exit_t[o:o + n].max()))
        if codes[_INJECTED]:
            last = max(last, h)
        stats.steps = max(0, min(h + 1, last + 1))
        results.append(_finalize_result(
            stats, scode[o:o + n], rid[o:o + n], exit_t[o:o + n], trace,
            engine))
    return results


class FastEngine:
    """Vectorized drop-in for :class:`~repro.network.simulator.Simulator`:
    the shared tick loop run as a stack of one job.

    Construction raises :class:`~repro.util.errors.ValidationError` for
    unsupported policies or ``trace=True`` -- use
    :func:`~repro.network.engine.make_engine` for graceful fallback.
    """

    SUPPORTED_PRIORITIES = frozenset({"fifo", "lifo", "longest", "ntg"})

    def __init__(self, network: Network, policy, trace: bool = False):
        if trace:
            raise ValidationError(
                "FastEngine does not record traces; use the reference engine"
            )
        if _program_key(policy) is None:
            raise ValidationError(
                f"policy {type(policy).__name__} is not supported by "
                f"FastEngine (needs decide_vector, a fast_priority in "
                f"{sorted(self.SUPPORTED_PRIORITIES)}, a scalar decide, "
                f"or a PlanPolicy)"
            )
        self.network = network
        self.policy = policy
        self.trace = TraceRecorder(enabled=False)

    @classmethod
    def supports(cls, policy) -> bool:
        """True when ``policy`` can run on the fast engine: plan replay,
        a native vector policy, a named greedy priority, or any scalar
        policy (lifted by the batched adapter).

        A policy that knowingly violates the ABI's order-insensitivity
        contract can set ``vectorize = False`` to keep the reference
        path even under a global ``REPRO_ENGINE=fast``.
        """
        if getattr(policy, "vectorize", True) is False:
            return False
        return _program_key(policy) is not None

    def run(self, requests, horizon: int) -> SimulationResult:
        """Simulate ``requests`` for time steps ``0..horizon`` inclusive."""
        return _run_stack([(self.network, self.policy, requests, horizon)],
                          "fast")[0]
