"""Fractional multicommodity path packing (the paper's ``opt_f``).

The optimal fractional packing (Section 3.5) is a multicommodity flow and is
computed here as a sparse LP solved with scipy's HiGHS backend.  Because the
untilted space-time graph is a monotone DAG, the per-request variable set is
restricted to the request's *window* -- vertices both reachable from the
source event and able to reach a valid destination copy -- which keeps the
LP small.

Path-length bounds (Lemma 2): every monotone path between fixed endpoints
has the same hop count, so bounding path lengths by ``p_max`` is exactly a
restriction on which destination copies are allowed:

    ``hops = dist(a, b) + (col' - col_src) <= p_max``.

:func:`fractional_opt` therefore accepts ``pmax`` and implements
``opt_f(R | p_max)`` with no extra LP machinery, which is how bench E9
validates Lemma 2.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

from repro.network.topology import Network
from repro.util.errors import ValidationError

#: refuse to build LPs beyond this many variables (guards sweep mistakes)
MAX_VARIABLES = 400_000


def _window_vertices(network, request, horizon, pmax):
    """Untilted window of ``request``: vertices on some legal path."""
    a, b = request.source, request.dest
    col_src = request.arrival - sum(a)
    t_hi = horizon if request.deadline is None else min(request.deadline, horizon)
    col_dest_hi = t_hi - sum(b)
    if pmax is not None:
        col_dest_hi = min(col_dest_hi, col_src + pmax - request.distance)
    if col_dest_hi < col_src:
        return [], col_src, col_dest_hi
    verts = []
    space_ranges = [range(lo, hi + 1) for lo, hi in zip(a, b)]

    def rec(axis, prefix):
        if axis == len(a):
            for col in range(col_src, col_dest_hi + 1):
                t = col + sum(prefix)
                if 0 <= t <= horizon:
                    verts.append((*prefix, col))
            return
        for x in space_ranges[axis]:
            rec(axis + 1, prefix + (x,))

    rec(0, ())
    return verts, col_src, col_dest_hi


def fractional_opt(network: Network, requests, horizon: int,
                   pmax: int | None = None, return_details: bool = False):
    """Optimal fractional path packing ``opt_f(R)`` (or ``opt_f(R | pmax)``).

    Returns the throughput value; with ``return_details=True`` also a per-
    request array of served fractions.
    """
    if network.any_wrap:
        # the window construction encodes the closed-form grid metric
        raise ValidationError(
            "fractional_opt requires grid geometry (no wraparound axes); "
            "use throughput_upper_bound on rings and tori"
        )
    requests = [r for r in requests if r.arrival <= horizon]
    for r in requests:
        network.check_request(r)
    d = network.d
    B = network.buffer_size

    # variable layout: per request, per window edge, plus one delivery
    # variable per destination copy.
    var_lo = []  # start index of each request's block
    var_edges = []  # per request: list of (tail, move) edges
    var_deliv = []  # per request: list of dest-copy vertices
    nvar = 0
    windows = []
    for r in requests:
        verts, col_src, col_hi = _window_vertices(network, r, horizon, pmax)
        vset = set(verts)
        edges = []
        for v in verts:
            # space moves
            for axis in range(d):
                head = list(v)
                head[axis] += 1
                head = tuple(head)
                if head in vset:
                    edges.append((v, axis))
            # buffer move
            if B > 0:
                head = (*v[:-1], v[-1] + 1)
                if head in vset:
                    edges.append((v, d))
        copies = [
            (*r.dest, col)
            for col in range(col_src, col_hi + 1)
            if (*r.dest, col) in vset
        ]
        windows.append((verts, vset))
        var_lo.append(nvar)
        var_edges.append(edges)
        var_deliv.append(copies)
        nvar += len(edges) + len(copies)
        # checked per request, so an oversized LP fails before its
        # windows exhaust memory
        if nvar > MAX_VARIABLES:
            raise ValidationError(
                f"LP too large ({nvar} variables > {MAX_VARIABLES}); "
                "shrink the instance or use throughput_upper_bound"
            )
    if nvar == 0:
        return (0.0, np.zeros(len(requests))) if return_details else 0.0

    rows, cols, data = [], [], []
    rhs_ub = []
    nrow = 0

    # shared capacity constraints: sum_i f_{i,e} <= cap(e)
    cap_row: dict = {}
    for i, r in enumerate(requests):
        base = var_lo[i]
        for j, (tail, move) in enumerate(var_edges[i]):
            key = (tail, move)
            row = cap_row.get(key)
            if row is None:
                row = nrow
                cap_row[key] = row
                nrow += 1
                rhs_ub.append(B if move == d
                              else network.capacity_of(tail[:-1], move))
            rows.append(row)
            cols.append(base + j)
            data.append(1.0)

    # per-request demand: total delivered <= 1
    for i, r in enumerate(requests):
        base = var_lo[i] + len(var_edges[i])
        if not var_deliv[i]:
            continue
        row = nrow
        nrow += 1
        rhs_ub.append(1.0)
        for j in range(len(var_deliv[i])):
            rows.append(row)
            cols.append(base + j)
            data.append(1.0)

    # conservation (equality): per request, per window vertex:
    #   inflow - outflow - delivery = 0 at non-source vertices;
    #   at the source event: outflow + delivery - 1 <= ... handled by demand,
    #   conservation there is: inflow(=0) + injection - outflow - delivery = 0
    #   with injection implicit; we instead write outflow + delivery <= 1 via
    #   flow-balance: treat source as supplying up to 1 unit.
    erows, ecols, edata = [], [], []
    rhs_eq = []
    neq = 0
    for i, r in enumerate(requests):
        verts, vset = windows[i]
        base = var_lo[i]
        src = (*r.source, r.arrival - sum(r.source))
        # index edges by endpoint for this request
        out_at: dict = {}
        in_at: dict = {}
        for j, (tail, move) in enumerate(var_edges[i]):
            out_at.setdefault(tail, []).append(base + j)
            if move == d:
                head = (*tail[:-1], tail[-1] + 1)
            else:
                head = list(tail)
                head[move] += 1
                head = tuple(head)
            in_at.setdefault(head, []).append(base + j)
        dbase = base + len(var_edges[i])
        deliv_at = {v: dbase + j for j, v in enumerate(var_deliv[i])}
        for v in verts:
            if v == src:
                continue  # source supply handled by the demand row
            terms = []
            for var in in_at.get(v, ()):  # +inflow
                terms.append((var, 1.0))
            for var in out_at.get(v, ()):  # -outflow
                terms.append((var, -1.0))
            if v in deliv_at:  # -delivery
                terms.append((deliv_at[v], -1.0))
            if not terms:
                continue
            for var, coeff in terms:
                erows.append(neq)
                ecols.append(var)
                edata.append(coeff)
            rhs_eq.append(0.0)
            neq += 1
        # No explicit source row: conservation over the window DAG forces
        # source outflow to equal total deliveries, which the demand row
        # already caps at 1.

    A_ub = csr_matrix((data, (rows, cols)), shape=(nrow, nvar))
    b_ub = np.array(rhs_ub)
    A_eq = (
        csr_matrix((edata, (erows, ecols)), shape=(neq, nvar)) if neq else None
    )
    b_eq = np.array(rhs_eq) if neq else None

    # objective: maximize total delivery
    obj = np.zeros(nvar)
    for i in range(len(requests)):
        dbase = var_lo[i] + len(var_edges[i])
        for j in range(len(var_deliv[i])):
            obj[dbase + j] = -1.0

    res = linprog(
        obj, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=(0, None), method="highs",
    )
    if not res.success:
        raise ValidationError(f"LP solve failed: {res.message}")
    value = -float(res.fun)
    if not return_details:
        return value
    served = np.zeros(len(requests))
    for i in range(len(requests)):
        dbase = var_lo[i] + len(var_edges[i])
        served[i] = res.x[dbase : dbase + len(var_deliv[i])].sum()
    return value, served
