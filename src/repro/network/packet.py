"""Packet requests and runtime packet records.

A packet request is the 4-tuple ``r_i = (a_i, b_i, t_i, d_i)`` of the paper
(Section 2.1): source node, destination node, arrival (injection) time and
deadline.  ``deadline=None`` encodes ``d_i = infinity`` (no deadline).

Nodes are coordinate tuples; a uni-directional line uses 1-tuples.  The
convenience constructor :meth:`Request.line` accepts plain integers.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.util.errors import ValidationError

Node = tuple  # coordinate tuple, e.g. (x,) on a line or (x, y) on a grid

_rid_counter = itertools.count()

#: encodes ``deadline = infinity`` in int64 deadline columns
NO_DEADLINE = int(np.iinfo(np.int64).max)


def _as_node(value) -> Node:
    """Normalise ``value`` (int or tuple of ints) to a coordinate tuple."""
    if isinstance(value, tuple):
        if not value or not all(isinstance(x, (int,)) or hasattr(x, "__index__") for x in value):
            raise ValidationError(f"node must be a non-empty tuple of ints, got {value!r}")
        return tuple(int(x) for x in value)
    try:
        return (int(value),)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"cannot interpret {value!r} as a node") from exc


def _node_rows(nodes, n: int) -> np.ndarray:
    """``nodes`` as an ``(n, d)`` integer array, one node per row."""
    try:
        rows = np.asarray(nodes)
    except ValueError as exc:  # ragged rows
        raise ValidationError(f"nodes must share one dimension: {exc}") from exc
    if rows.ndim != 2 or rows.shape[0] != n or rows.shape[1] == 0 \
            or rows.dtype.kind not in "iu":
        raise ValidationError(
            f"expected {n} nodes as an (n, d) integer array, got shape "
            f"{rows.shape} of {rows.dtype}"
        )
    return rows


def _row(rows: np.ndarray, i: int) -> Node:
    return tuple(rows[i].tolist())


@dataclass(frozen=True, order=True)
class Request:
    """An online packet request ``(a_i, b_i, t_i, d_i)``.

    Parameters
    ----------
    source, dest:
        Coordinate tuples of equal dimension.  Whether ``dest`` is
        reachable from ``source`` depends on the network (non-wrapping
        axes require ``source <= dest``); ``Network.check_request``
        enforces it.
    arrival:
        Time step ``t_i`` at which the request is revealed and may first be
        injected at ``source``.
    deadline:
        Latest delivery time ``d_i`` (inclusive), or ``None`` for no
        deadline.  The algorithm is only credited for delivering the packet
        at a time ``t' <= d_i``.
    rid:
        Unique integer id; assigned automatically when omitted.
    """

    # Sort key: requests are processed online in arrival order, ties broken
    # by id, which gives a deterministic adversarial sequence.
    arrival: int
    rid: int = field(compare=True)
    source: Node = field(compare=False)
    dest: Node = field(compare=False)
    deadline: int | None = field(default=None, compare=False)

    def __init__(self, source, dest, arrival: int, deadline: int | None = None, rid: int | None = None):
        object.__setattr__(self, "source", _as_node(source))
        object.__setattr__(self, "dest", _as_node(dest))
        object.__setattr__(self, "arrival", int(arrival))
        object.__setattr__(self, "deadline", None if deadline is None else int(deadline))
        object.__setattr__(self, "rid", next(_rid_counter) if rid is None else int(rid))
        self._validate()

    def _validate(self) -> None:
        self._validate_parts(self.source, self.dest, self.arrival)
        # Reachability and deadline feasibility depend on the network's
        # geometry (wrapping axes reach "backward" targets), so those
        # checks live in Network.check_request, not here.

    @classmethod
    def bulk(cls, sources, dests, arrivals, deadlines=None,
             rids=None) -> "RequestBlock":
        """Build ``n`` requests at once from columnar data.

        ``sources`` and ``dests`` are ``(n, d)`` integer array-likes (one
        node per row), ``arrivals`` has length ``n``; ``deadlines`` (``None``
        entries allowed) and ``rids`` are optional.  The result equals
        ``[Request(s, t, a, dl, rid) for ...]``: the same validation with
        the same error text (raised for the first offending row, before
        any id is taken), and, without ``rids``, one contiguous block of
        fresh ids in row order.  It is a :class:`RequestBlock`, which keeps
        the validated columns and builds the objects on first element
        access.
        """
        n = len(arrivals)
        if n == 0:
            return RequestBlock._empty()
        src = _node_rows(sources, n)
        dst = _node_rows(dests, n)
        arr = np.asarray(arrivals, dtype=np.int64).reshape(n)
        # the first row the scalar constructor would reject, if any
        bad = 0 if src.shape[1] != dst.shape[1] else int(np.argmax(arr < 0))
        if src.shape[1] != dst.shape[1] or arr[bad] < 0:
            cls._validate_parts(_row(src, bad), _row(dst, bad), int(arr[bad]))
        if deadlines is None:
            dl = np.full(n, NO_DEADLINE, dtype=np.int64)
        elif isinstance(deadlines, np.ndarray) and deadlines.dtype.kind in "iu":
            dl = deadlines.astype(np.int64).reshape(n)
        else:
            dl = np.array([NO_DEADLINE if x is None else int(x)
                           for x in deadlines], dtype=np.int64).reshape(n)
        if rids is None:
            first = next(_rid_counter)
            # take the rest of the block without materializing it
            deque(itertools.islice(_rid_counter, n - 1), maxlen=0)
            rid = np.arange(first, first + n, dtype=np.int64)
        else:
            rid = np.asarray(rids, dtype=np.int64).reshape(n)
        return RequestBlock(src, dst, arr, dl, rid)

    @staticmethod
    def _validate_parts(source, dest, arrival) -> None:
        if len(source) != len(dest):
            raise ValidationError(
                f"source {source} and dest {dest} have different dimensions"
            )
        if arrival < 0:
            raise ValidationError(f"arrival must be >= 0, got {arrival}")

    @classmethod
    def line(cls, source: int, dest: int, arrival: int, deadline: int | None = None, rid: int | None = None) -> "Request":
        """Build a request on a uni-directional line from integer endpoints."""
        return cls((int(source),), (int(dest),), arrival, deadline, rid)

    @property
    def distance(self) -> int:
        """Closed-form hop distance ``dist(a_i, b_i)`` on a non-wrapping
        grid.  On rings/tori use ``network.dist(r.source, r.dest)``."""
        return sum(d - s for s, d in zip(self.source, self.dest))

    @property
    def dim(self) -> int:
        """Dimension of the grid the request lives on."""
        return len(self.source)

    def is_trivial(self) -> bool:
        """True when source == dest: delivered at injection with no routing."""
        return self.source == self.dest

    def __repr__(self) -> str:  # compact, used heavily in test failure output
        dl = "inf" if self.deadline is None else str(self.deadline)
        return f"Request#{self.rid}({self.source}->{self.dest} @t={self.arrival} d={dl})"


class RequestBlock(Sequence):
    """A read-only sequence of :class:`Request` objects stored as columns.

    ``src`` and ``dst`` are ``(n, d)`` int64 arrays, ``arrival``,
    ``deadline`` (:data:`NO_DEADLINE` where the deadline is ``None``) and
    ``rid`` are int64 arrays of length ``n``; all five are validated and
    read-only.  Array consumers (the fast engines, run reports, deadline
    workloads) read the columns; the :class:`Request` objects are built
    all at once on first element access and reused afterwards.  A block
    compares equal to the list of its requests, and indexing, slicing,
    iteration and ``+`` behave like that list's (a slice or a sum is a
    list).  It pickles as its columns.
    """

    __slots__ = ("src", "dst", "arrival", "deadline", "rid", "_items")

    def __init__(self, src, dst, arrival, deadline, rid, items=None):
        self.src, self.dst, self.arrival, self.deadline, self.rid = (
            _frozen(src), _frozen(dst), _frozen(arrival), _frozen(deadline),
            _frozen(rid))
        self._items = items

    @classmethod
    def _empty(cls) -> "RequestBlock":
        nodes = np.zeros((0, 0), dtype=np.int64)
        none = np.zeros(0, dtype=np.int64)
        return cls(nodes, nodes, none, none, none, [])

    @classmethod
    def of(cls, requests) -> "RequestBlock":
        """``requests`` as a block: a block is returned as is, any other
        sequence of :class:`Request` objects is read into columns once
        (keeping the objects).  Raises
        :class:`~repro.util.errors.ValidationError` when they do not share
        one dimension."""
        if isinstance(requests, RequestBlock):
            return requests
        items = list(requests)
        n = len(items)
        if n == 0:
            return cls._empty()
        src = _node_rows([r.source for r in items], n)
        dst = _node_rows([r.dest for r in items], n)
        return cls(
            src, dst,
            np.fromiter((r.arrival for r in items), np.int64, n),
            np.fromiter((NO_DEADLINE if r.deadline is None else r.deadline
                         for r in items), np.int64, n),
            np.fromiter((r.rid for r in items), np.int64, n),
            items)

    def _list(self) -> list:
        if self._items is None:
            self._items = self._build()
        return self._items

    def _build(self) -> list:
        deadline = self.deadline.tolist()
        if NO_DEADLINE in deadline:
            deadline = [None if x == NO_DEADLINE else x for x in deadline]
        out = []
        append = out.append
        new, set_ = object.__new__, object.__setattr__
        for s, t, a, dl, rid in zip(zip(*self.src.T.tolist()),
                                    zip(*self.dst.T.tolist()),
                                    self.arrival.tolist(), deadline,
                                    self.rid.tolist()):
            # set as __init__ does (same order, so pickles match), never
            # through r.__dict__, which would materialize a larger dict
            r = new(Request)
            set_(r, "source", s)
            set_(r, "dest", t)
            set_(r, "arrival", a)
            set_(r, "deadline", dl)
            set_(r, "rid", rid)
            append(r)
        return out

    def __len__(self) -> int:
        return len(self.rid)

    def __getitem__(self, index):
        return self._list()[index]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other):
        if isinstance(other, RequestBlock):
            other = other._list()
        elif not isinstance(other, list):
            return NotImplemented
        return self._list() == other

    __hash__ = None

    def __add__(self, other):
        return self._list() + list(other)

    def __radd__(self, other):
        return list(other) + self._list()

    def __reduce__(self):
        return (RequestBlock, (self.src, self.dst, self.arrival,
                               self.deadline, self.rid))

    def __repr__(self) -> str:
        return repr(self._list())


def _frozen(column) -> np.ndarray:
    out = np.array(column, dtype=np.int64)  # a private copy
    out.setflags(write=False)
    return out


class DeliveryStatus(enum.Enum):
    """Lifecycle outcome of a request (Section 2.1 terminology)."""

    PENDING = "pending"  # not yet processed
    REJECTED = "rejected"  # locally input and deleted before injection
    INJECTED = "injected"  # admitted into the network, still in flight
    PREEMPTED = "preempted"  # injected then deleted before reaching dest
    DELIVERED = "delivered"  # reached destination on time
    LATE = "late"  # reached destination after the deadline (no credit)


@dataclass
class Packet:
    """Runtime record of an injected packet inside the simulator."""

    request: Request
    location: Node  # current node
    injected_at: int
    status: DeliveryStatus = DeliveryStatus.INJECTED
    delivered_at: int | None = None
    hops: int = 0

    @property
    def rid(self) -> int:
        return self.request.rid

    @property
    def dest(self) -> Node:
        return self.request.dest

    def remaining_distance(self, network=None) -> int:
        """Hops left to the destination (nearest-to-go priority key).

        Pass the network on wrapping topologies; without it the
        closed-form grid metric is used.
        """
        if network is not None:
            return network.dist(self.location, self.request.dest)
        return sum(d - x for x, d in zip(self.location, self.request.dest))
