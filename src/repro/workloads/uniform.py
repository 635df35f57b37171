"""Uniform random request generation.

The draw stream is part of the scenario-cache contract: a scenario's
requests must come out of its seed the same way forever.  The stream is
the one of this per-request scalar program::

    for each request:
        up to 64 attempts:
            src_i = rng.integers(0, l_i)        for every axis i
            dst_i = rng.integers(src_i, l_i)    for every axis i
            stop once sum(dst_i - src_i) >= min_distance
        (all 64 missed: src = (0, ..., 0), dst = (l_1 - 1, ..., l_d - 1))
        t = rng.integers(0, max(1, horizon))

:func:`uniform_requests` runs it as one array program instead.  Each
scalar ``integers(lo, hi)`` with ``hi - lo = r <= 2**32`` consumes
``next_uint32`` words: none when ``r == 1``, else one word ``w`` per try
of Lemire's multiply-shift (value ``(w * r) >> 32``, retried while the
low half ``(w * r) mod 2**32`` is below ``(2**32 - r) mod r``).  A bulk
``integers(0, 2**32, dtype=uint32)`` draw reads the same words, so the
program draws a block of words, evaluates "an attempt starting at word
``p``" for every ``p`` at once, chains attempts and then requests by
pointer doubling, and finally rewinds the bit generator and re-draws
exactly the words the requests consumed, leaving the generator where the
scalar program would.
"""

from __future__ import annotations

import numpy as np

from repro.api.registry import register_workload
from repro.network.packet import Request, RequestBlock
from repro.network.topology import Network
from repro.util.errors import ValidationError
from repro.util.rng import as_generator

_WORD = 1 << 32
_ATTEMPTS = 64
#: words evaluated per block; keeps the working set to a few arrays
#: of this length however many requests are generated
_BLOCK = 1 << 12


def _lemire(words, pos, r, over):
    """Replay ``integers(0, r)`` at word position ``pos[j]`` for every j.

    ``words`` holds the block's words plus two pad words, ``r`` is a
    scalar or per-position range size in ``[1, 2**32]`` and ``over`` is
    the overflow position (one past the last word index).  Returns the
    drawn values; ``pos`` advances in place past the consumed words, and
    a draw that needs a word beyond the block parks at ``over``.
    """
    r = np.asarray(r, dtype=np.uint64)
    need = r > 1
    thresh = (_WORD - r) % r
    m = words[pos] * r
    pos += need
    np.minimum(pos, over, out=pos)
    # Lemire's rejection: rare, the odds are below r / 2**32 per word
    rej = np.flatnonzero(need & ((m & 0xFFFFFFFF) < thresh) & (pos < over))
    r, thresh = np.broadcast_to(r, pos.shape), np.broadcast_to(thresh, pos.shape)
    while rej.size:
        m[rej] = words[pos[rej]] * r[rej]
        pos[rej] += 1
        rej = rej[((m[rej] & 0xFFFFFFFF) < thresh[rej]) & (pos[rej] < over)]
    return (m >> 32).astype(np.int64)


def _parse_block(words, dims, horizon, min_distance, limit):
    """The first requests (at most ``limit``) that ``words`` completely
    determines, read from word 0 on: ``(src, dst, t, consumed)`` with
    ``(k, d)`` source/destination arrays, ``k`` arrivals and the number of
    words those ``k`` requests consume.  ``k == 0`` means the block is too
    short for even one request."""
    n_words = words.size
    over = n_words + 1  # positions 0..n_words are real, n_words + 1 is overflow
    padded = np.zeros(n_words + 2, dtype=np.uint64)
    padded[:n_words] = words
    start = np.arange(n_words + 2, dtype=np.int32)

    # one attempt starting at every position
    pos = start.copy()
    src = [_lemire(padded, pos, l, over) for l in dims]
    dst, dist = [], np.zeros(start.size, dtype=np.int64)
    for s, l in zip(src, dims):
        step = _lemire(padded, pos, (l - s).astype(np.uint64), over)
        dst.append(s + step)
        dist += step
    after = pos  # first word after the attempt
    ok = (dist >= min_distance) & (after < over)

    # g: a missed attempt hands over to the next one, a hit stays put, so
    # g^(_ATTEMPTS - 1)(p) is the hit, or the last attempt when all miss
    g = np.where(ok, start, after)
    last = start
    power, todo = g, _ATTEMPTS - 1
    while todo:
        if todo & 1:
            last = power[last]
        todo >>= 1
        if todo:
            power = power[power]
    tail = after[last]
    tpos = start.copy()
    t_val = _lemire(padded, tpos, max(1, horizon), over)

    # chain requests: the one starting at p ends at tpos[tail[p]]
    nxt = tpos[tail]
    # a request reads at least one word unless nothing is ever drawn
    size = limit if n_words == 0 else min(limit, n_words + 1)
    chain = np.zeros(1, dtype=np.int32)
    jump = nxt
    while chain.size < size:
        chain = np.concatenate((chain, jump[chain]))
        jump = jump[jump]
    chain = chain[:size]
    k = int(np.count_nonzero(nxt[chain] < over))
    chain = chain[:k]

    hit = last[chain]
    found = ok[hit]
    src_k = np.stack([np.where(found, s[hit], 0) for s in src], axis=1)
    dst_k = np.stack([np.where(found, t[hit], l - 1) for t, l in zip(dst, dims)],
                     axis=1)
    t_k = t_val[tail[chain]]
    consumed = int(nxt[chain[-1]]) if k else 0
    return src_k, dst_k, t_k, consumed


@register_workload(
    "uniform",
    description="num requests with uniform source, dominating destination, "
    "and arrival in [0, horizon)",
)
def uniform_requests(network: Network, num: int, horizon: int, rng=None,
                     min_distance: int = 1) -> RequestBlock:
    """``num`` requests with uniformly random source, destination
    (dominating the source by at least ``min_distance`` hops in total) and
    arrival time in ``[0, horizon)`` (always 0 when ``horizon <= 1``).

    Sources/destinations are drawn by sampling the source uniformly, then
    each destination coordinate uniformly from ``[source_i, l_i)``;
    degenerate draws below ``min_distance`` are resampled (bounded retries,
    then the farthest corner is used).  The module docstring pins the
    exact draw stream.  The requests come back as one
    :class:`~repro.network.packet.RequestBlock` with one contiguous rid
    block.
    """
    rng = as_generator(rng)
    dims = tuple(int(l) for l in network.dims)
    if max(dims + (horizon,)) > _WORD:
        raise ValidationError(
            f"uniform workload draws need ranges <= 2**32, got dims {dims} "
            f"and horizon {horizon}"
        )
    draws = sum(l > 1 for l in dims)
    per_request = 2 * draws + (horizon > 1)
    bits = rng.bit_generator
    blocks = []
    remaining = num
    n_words = 0
    while remaining > 0:
        if per_request == 0:  # nothing is ever drawn
            n_words = 0
        else:
            n_words = max(n_words, min(_BLOCK, per_request * remaining * 5 // 4 + 64))
        saved = bits.state
        words = rng.integers(0, _WORD, size=n_words, dtype=np.uint32)
        src, dst, t, consumed = _parse_block(words, dims, horizon,
                                             min_distance, remaining)
        if len(t) == 0:  # one request outgrew the block
            bits.state = saved
            n_words *= 2
            continue
        if consumed < n_words:
            bits.state = saved
            rng.integers(0, _WORD, size=consumed, dtype=np.uint32)
        blocks.append((src, dst, t))
        remaining -= len(t)
    if not blocks:
        return Request.bulk([], [], [])
    src, dst, t = (np.concatenate(column) for column in zip(*blocks))
    return Request.bulk(src, dst, t)
