"""Array-backed fast engine: vectorized Model 1 semantics.

:class:`FastEngine` replays the exact step dynamics of
:class:`~repro.network.simulator.Simulator` (Section 2.1) but packs all
packet state into numpy arrays -- location, axis-to-go, arrival, deadline
-- and resolves each time step with grouped array operations instead of
per-packet Python dicts.  One step costs a handful of ``lexsort``/scatter
passes over the *live* packets, so large grid workloads run one to two
orders of magnitude faster than the reference engine.

Decisions come from the vectorized decision ABI of
:mod:`repro.network.engine`: once per step the engine builds a
:class:`~repro.network.engine.StepView` and asks the policy for a
:class:`~repro.network.engine.VectorDecision`.  The engine then enforces
``B``/``c`` (:class:`~repro.util.errors.CapacityError` on violation, like
the reference validator) and accounts the load counters, so policies only
choose packets.  Every policy runs:

* native :class:`~repro.network.engine.VectorPolicy` implementations
  (anything with ``decide_vector``) -- called directly;
* the greedy family -- any policy exposing a ``fast_priority`` attribute
  naming one of the built-in priority orders (``fifo``, ``lifo``,
  ``longest``, ``ntg``) runs on :class:`GreedyVectorPolicy`;
* :class:`~repro.network.simulator.PlanPolicy` replay -- the per-packet
  action table is compiled into a vector policy;
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

import numpy as np

from repro.network import kernel
from repro.network.engine import NO_DEADLINE, StepView, VectorDecision
from repro.network.packet import DeliveryStatus, Packet
from repro.network.simulator import PlanPolicy, Policy, SimulationResult
from repro.network.stats import NetworkStats
from repro.network.topology import Network
from repro.network.trace import TraceRecorder
from repro.util.errors import CapacityError, ValidationError

# integer status codes used inside the array loop
_PENDING, _REJECTED, _INJECTED, _PREEMPTED, _DELIVERED, _LATE = range(6)

_CODE_TO_STATUS = {
    _PENDING: DeliveryStatus.PENDING,
    _REJECTED: DeliveryStatus.REJECTED,
    _INJECTED: DeliveryStatus.INJECTED,
    _PREEMPTED: DeliveryStatus.PREEMPTED,
    _DELIVERED: DeliveryStatus.DELIVERED,
    _LATE: DeliveryStatus.LATE,
}

#: encodes ``deadline = infinity`` (re-exported; defined on the ABI module)
_NO_DEADLINE = NO_DEADLINE


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
    """``(src, dst, arrival, deadline, rid)`` int64 arrays for ``reqs``
    (validated against ``network``) -- the shared packet-state setup of
    the fast engines.

    Validation is vectorized: one bounds check over the stacked
    coordinate arrays instead of a per-request Python loop (the loop
    dominated per-scenario setup in sweep-shaped batches).  On failure
    the first offending request is re-checked through
    ``network.check_request`` so the error is byte-identical to the
    scalar path's.
    """
    if not len(reqs):
        empty = np.array([], dtype=np.int64)
        return empty, empty, empty, empty.copy(), empty.copy()
    try:
        src = np.array([r.source for r in reqs], dtype=np.int64)
        dst = np.array([r.dest for r in reqs], dtype=np.int64)
    except ValueError:  # ragged coordinates: mixed dimensionality
        src = dst = None
    dims = np.asarray(network.dims, dtype=np.int64)
    if (src is None or src.ndim != 2 or src.shape[1] != network.d):
        for r in reqs:
            network.check_request(r)
        raise AssertionError("check_request accepted a ragged batch")
    ok = ((src >= 0) & (src < dims) & (dst >= 0) & (dst < dims)).all(axis=1)
    arrival = np.array([r.arrival for r in reqs], dtype=np.int64)
    deadline = np.array(
        [_NO_DEADLINE if r.deadline is None else r.deadline for r in reqs],
        dtype=np.int64,
    )
    # reachability (non-wrapping axes must not decrease) and deadline
    # feasibility, matching Network.check_request row for row
    wrap = np.asarray(network.wrap, dtype=bool)
    if not wrap.all():
        ok &= (src[:, ~wrap] <= dst[:, ~wrap]).all(axis=1)
    distance = np.where(wrap, (dst - src) % dims, dst - src).sum(axis=1)
    ok &= deadline >= arrival + distance
    if not ok.all():
        network.check_request(reqs[int(np.flatnonzero(~ok)[0])])
        raise AssertionError("check_request accepted an invalid request")
    rid = np.array([r.rid for r in reqs], dtype=np.int64)
    return src, dst, arrival, deadline, rid


def _finalize_result(stats, scode, rid, delivered_t, trace, engine="fast"):
    """Resolve end-of-horizon statuses and build the result record.

    Anything still pending was never handled (rejected); anything still
    in flight never reached its destination (preempted) -- the shared
    epilogue of the fast engines, mirroring the reference loops.
    ``engine`` labels the result (the stacked batch engine reuses this
    epilogue per scenario slice).
    """
    pending = scode == _PENDING
    stats.rejected += int(pending.sum())
    scode[pending] = _REJECTED
    in_flight = scode == _INJECTED
    stats.preempted += int(in_flight.sum())
    scode[in_flight] = _PREEMPTED

    status = {
        int(r): _CODE_TO_STATUS[int(code)] for r, code in zip(rid, scode)
    }
    for i in np.flatnonzero(delivered_t >= 0):
        stats.delivery_times[int(rid[i])] = int(delivered_t[i])
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
    numpy otherwise), which is how both the fast and the stacked batch
    engine share one native hot loop.

    ``view.network`` may be a per-scenario :class:`Network` (scalar
    ``B``/``c``) or a stacked batch facade whose ``buffer_size`` and
    ``capacity`` are *per-row* arrays -- the ranking is group-local
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


class _PlanVectorPolicy:
    """Plan replay on the decision ABI: per-packet action tables.

    Compiled once per run from a :class:`PlanPolicy`'s ``(rid, t)`` action
    map: packet at request-position ``i`` performs
    ``codes[offset[i] + (t - t0[i])]`` at time ``t`` when
    ``0 <= t - t0[i] < length[i]``; code ``axis < d`` forwards, code ``d``
    stores, ``-1`` (or no table entry) deletes.
    """

    def __init__(self, policy: PlanPolicy, d: int, rid):
        by_rid: dict = {}
        for (r, t), action in policy.actions.items():
            by_rid.setdefault(r, {})[t] = action
        n = len(rid)
        self._d = d
        self._t0 = np.zeros(n, dtype=np.int64)
        self._len = np.zeros(n, dtype=np.int64)
        self._off = np.zeros(n, dtype=np.int64)
        chunks = []
        pos = 0
        for i, r in enumerate(rid):
            acts = by_rid.get(int(r))
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
    the reference engine collapses to a per-node one.  Decisions are
    validated like the reference validator (foreign packets, double
    scheduling, axis bounds, ``B``/``c``) before being scattered back
    into masks.

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
        B, d = network.buffer_size, network.d
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

            seen: set = set()
            for axis, pkts in decision.forward.items():
                c = network.capacity_of(node, axis) if 0 <= axis < d \
                    else network.capacity
                if len(pkts) > c:
                    raise CapacityError(
                        f"node {node} forwards {len(pkts)} > c={c} on "
                        f"axis {axis}"
                    )
                head_ok = 0 <= axis < d and network.has_edge(node, axis)
                if pkts and not head_ok:
                    raise ValidationError(
                        f"node {node} has no outgoing axis {axis}")
                for pkt in pkts:
                    row = row_of.get(id(pkt))
                    if row is None:
                        raise ValidationError(
                            f"decision forwards foreign packet {pkt.rid}")
                    if id(pkt) in seen:
                        raise ValidationError(
                            f"packet {pkt.rid} scheduled twice")
                    seen.add(id(pkt))
                    fwd_mask[row] = True
                    axis_arr[row] = axis
            if len(decision.store) > B:
                raise CapacityError(
                    f"node {node} stores {len(decision.store)} > B={B}")
            for pkt in decision.store:
                row = row_of.get(id(pkt))
                if row is None:
                    raise ValidationError(
                        f"decision stores foreign packet {pkt.rid}")
                if id(pkt) in seen:
                    raise ValidationError(f"packet {pkt.rid} scheduled twice")
                seen.add(id(pkt))
                store_mask[row] = True
        return VectorDecision(forward=fwd_mask, axis=axis_arr,
                              store=store_mask)


class FastEngine:
    """Vectorized drop-in for :class:`~repro.network.simulator.Simulator`.

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
        self.network = network
        self.policy = policy
        self.trace = TraceRecorder(enabled=False)
        self._vpolicy = None
        if isinstance(policy, PlanPolicy):
            self._mode = "plan"  # compiled per run (needs the rid order)
        elif callable(getattr(policy, "decide_vector", None)):
            self._mode = "vector"
            self._vpolicy = policy
        elif getattr(policy, "fast_priority", None) in \
                self.SUPPORTED_PRIORITIES:
            self._mode = "vector"
            self._vpolicy = GreedyVectorPolicy(policy.fast_priority)
        elif callable(getattr(policy, "decide", None)):
            self._mode = "vector"
            self._vpolicy = BatchedPolicyAdapter(policy, network)
        else:
            raise ValidationError(
                f"policy {type(policy).__name__} is not supported by "
                f"FastEngine (needs decide_vector, a fast_priority in "
                f"{sorted(self.SUPPORTED_PRIORITIES)}, a scalar decide, "
                f"or a PlanPolicy)"
            )

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
        return (
            isinstance(policy, PlanPolicy)
            or callable(getattr(policy, "decide_vector", None))
            or getattr(policy, "fast_priority", None)
            in cls.SUPPORTED_PRIORITIES
            or callable(getattr(policy, "decide", None))
        )

    # -- main loop -------------------------------------------------------

    def run(self, requests, horizon: int) -> SimulationResult:
        """Simulate ``requests`` for time steps ``0..horizon`` inclusive."""
        network = self.network
        B, c, d = network.buffer_size, network.capacity, network.d
        stats = NetworkStats()

        reqs = tuple(requests)
        n = len(reqs)
        src, dst, arrival, deadline, rid = _request_arrays(network, reqs)
        if n == 0:
            return SimulationResult(stats=stats, status={}, trace=self.trace,
                                    engine="fast")

        dims = np.array(network.dims, dtype=np.int64)
        # row-major flat node index, matching Network.node_index
        strides = np.ones(d, dtype=np.int64)
        for axis in range(d - 2, -1, -1):
            strides[axis] = strides[axis + 1] * dims[axis + 1]

        loc = src.copy()
        alive = np.zeros(n, dtype=bool)
        scode = np.zeros(n, dtype=np.int64)  # _PENDING
        delivered_t = np.full(n, -1, dtype=np.int64)

        vpolicy = self._vpolicy
        if self._mode == "plan":
            vpolicy = _PlanVectorPolicy(self.policy, d, rid)
        step_begin = getattr(vpolicy, "on_step_begin", None)

        inj_order = kernel.injection_order(arrival)
        arr_sorted = arrival[inj_order]
        ptr = 0
        n_alive = 0
        last_arrival = int(arrival.max())

        for t in range(0, horizon + 1):
            if n_alive == 0 and t > last_arrival:
                break
            stats.steps += 1
            if step_begin is not None:
                step_begin(t)

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
            at_dest = (loc[act] == dst[act]).all(axis=1)
            done = act[at_dest]
            if done.size:
                on_time = t <= deadline[done]
                scode[done] = np.where(on_time, _DELIVERED, _LATE)
                delivered_t[done] = t
                n_on = int(on_time.sum())
                stats.delivered += n_on
                stats.late += done.size - n_on
                alive[done] = False
                n_alive -= done.size
            rem = act[~at_dest]
            if rem.size == 0:
                continue

            node_id = loc[rem] @ strides
            view = StepView(
                t=t, network=network, requests=reqs, index=rem,
                node_id=node_id, loc=loc[rem], src=src[rem], dst=dst[rem],
                arrival=arrival[rem], deadline=deadline[rem], rid=rid[rem],
            )
            decision = vpolicy.decide_vector(view)
            fwd_mask, fwd_axis, store_mask = self._check_decision(
                decision, view, loc, dims, stats, B, c, d)

            fwd = rem[fwd_mask]
            if fwd.size:
                loc[fwd, fwd_axis] += 1
                if network.any_wrap:
                    # identity on non-wrapping axes (heads were validated)
                    loc[fwd, fwd_axis] %= dims[fwd_axis]
                scode[fwd] = _INJECTED
                stats.forwards += fwd.size
            stored = rem[store_mask]
            if stored.size:
                scode[stored] = _INJECTED
                stats.stores += stored.size
            dropped = rem[~fwd_mask & ~store_mask]
            if dropped.size:
                fresh = arrival[dropped] == t  # rejected at injection
                scode[dropped] = np.where(fresh, _REJECTED, _PREEMPTED)
                n_fresh = int(fresh.sum())
                stats.rejected += n_fresh
                stats.preempted += dropped.size - n_fresh
                alive[dropped] = False
                n_alive -= dropped.size

        return _finalize_result(stats, scode, rid, delivered_t, self.trace)

    # -- decision enforcement ---------------------------------------------

    def _check_decision(self, decision, view, loc, dims, stats, B, c, d):
        """Validate a :class:`VectorDecision` and account the load stats.

        The engine, not the policy, enforces the model: overlapping
        masks, unknown axes and off-grid forwards raise
        :class:`~repro.util.errors.ValidationError`; link loads above
        ``c`` and buffer loads above ``B`` raise
        :class:`~repro.util.errors.CapacityError` -- the same contract
        the reference engine's validator applies to scalar decisions.
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
            raise ValidationError(
                f"packet {int(view.rid[i])} scheduled twice")

        fwd_axis = axis_arr[fwd_mask]
        if fwd_axis.size:
            if ((fwd_axis < 0) | (fwd_axis >= d)).any():
                raise ValidationError(
                    f"vector decision names an axis outside 0..{d - 1}")
            rows = view.index[fwd_mask]
            heads = loc[rows, fwd_axis] + 1
            # an edge exists when the head stays on-grid, or the axis
            # wraps with more than one node
            wrap = np.asarray(self.network.wrap, dtype=bool)
            bad = (heads >= dims[fwd_axis]) & \
                (~wrap[fwd_axis] | (dims[fwd_axis] == 1))
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise ValidationError(
                    f"node {tuple(loc[rows[i]])} has no outgoing axis "
                    f"{int(fwd_axis[i])}"
                )
            gid = view.node_id[fwd_mask] * d + fwd_axis
            uniq, counts = np.unique(gid, return_counts=True)
            worst = int(counts.max())
            cap_flat = self.network.capacity_array()
            if cap_flat is not None:
                over = counts > cap_flat[uniq]
                if over.any():
                    i = int(np.flatnonzero(over)[0])
                    raise CapacityError(
                        f"decision forwards {int(counts[i])} > "
                        f"c={int(cap_flat[uniq[i]])} on a link")
            elif worst > c:
                raise CapacityError(f"decision forwards {worst} > c={c} "
                                    f"on a link")
            stats.max_link_load = max(stats.max_link_load, worst)

        if store_mask.any():
            _, counts = np.unique(view.node_id[store_mask],
                                  return_counts=True)
            worst = int(counts.max())
            if worst > B:
                raise CapacityError(f"decision stores {worst} > B={B} "
                                    f"at a node")
            stats.max_buffer_load = max(stats.max_buffer_load, worst)
        return fwd_mask, fwd_axis, store_mask
