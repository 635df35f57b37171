"""Deadline workloads (Section 5.4 / experiment E12)."""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_workload
from repro.network.packet import Request, RequestBlock
from repro.network.topology import Network
from repro.util.rng import as_generator
from repro.workloads.uniform import uniform_requests


def with_deadlines(requests, slack: int, rng=None, jitter: int = 0,
                   network: Network | None = None) -> RequestBlock:
    """Copy ``requests`` with deadlines ``t_i + dist + slack (+- jitter)``,
    as a :class:`~repro.network.packet.RequestBlock` with the same rids.
    A block's columns are read directly; other sequences are read once.

    ``slack = 0`` forces delivery along a shortest schedule (no buffering
    allowed anywhere); larger slack admits buffering.

    ``network`` selects the distance metric: when given, ``network.dist``
    is used (required for wraparound topologies, where the closed-form
    coordinate difference overstates the distance); otherwise the
    closed-form ``r.distance`` applies.  On dominating draws over
    non-wrapping axes the two agree, so omitting ``network`` is safe for
    the built-in grid workloads.
    """
    rng = as_generator(rng)
    block = RequestBlock.of(requests)
    n = len(block)
    if n == 0:
        return block
    src, dst, arrival = block.src, block.dst, block.arrival
    if network is None:
        dist = (dst - src).sum(axis=1)
    else:
        togo = network.togo_array(src, dst)
        back = np.flatnonzero((togo < 0).any(axis=1))
        if back.size:  # no directed path: network.dist raises the error
            network.dist(block[back[0]].source, block[back[0]].dest)
        dist = togo.sum(axis=1)
    extra = slack
    if jitter != 0:
        # one bulk draw reads the stream of n scalar integers(0, jitter + 1)
        extra = slack + rng.integers(0, jitter + 1, size=n)
    return Request.bulk(src, dst, arrival, deadlines=arrival + dist + extra,
                        rids=block.rid)


@register_workload(
    "deadline",
    description="uniform requests with feasible deadlines arrival + distance "
    "+ slack (+- jitter)",
)
def deadline_requests(network: Network, num: int, horizon: int, slack: int,
                      rng=None, jitter: int = 0) -> RequestBlock:
    """Uniform requests with feasible deadlines of the given slack."""
    rng = as_generator(rng)
    base = uniform_requests(network, num, horizon, rng)
    return with_deadlines(base, slack, rng, jitter, network=network)
