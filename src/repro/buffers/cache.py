"""Set-associative cache simulator with pluggable replacement policies.

This models the paper's Flex+LRU and Flex+BRRIP baselines: *every* access of
the best-intra-op schedule goes through an implicitly managed cache
(write-allocate, write-back).  The simulator is exact at line granularity; a
``granularity`` knob in the trace layer lets multi-gigabyte streaming traces
coarsen g lines into one block while scaling the set count by 1/g, which
preserves streaming/capacity behaviour (validated in tests).

Two backends produce byte-identical :class:`BufferStats`:

``vector`` (default when the policy supports it)
    Array-state simulation.  Accesses are resolved in *conflict-free
    batches* — maximal contiguous runs of the trace in which every set
    index appears at most once — so hit detection, victim choice, fills
    and writeback accounting are whole-batch numpy ops.  Within a batch the
    per-set states cannot interact, and batches are processed in trace
    order, so the result is exactly the sequential simulation.

    Two pieces of exact state keep the per-access work small:

    * a *residency map*, one signed byte per block of the observed block
      span (wider only when ``associativity`` exceeds 127), holding the way
      that caches the block or -1.  Hit detection is one gather from it;
      it grows on demand and costs one byte per block of span, which for
      :class:`~repro.sim.address_map.AddressMap` traces is the DAG
      footprint (at most 4.6M blocks on the Fig. 12 grid);
    * a *per-set fill counter*.  Lines are never invalidated, so a set's
      invalid ways are exactly ways ``fill..assoc-1`` and the counter
      names the next one to fill without scanning the tag row.

    Single-line accesses run as one-element batches, so the map has one
    writer.

``reference``
    The original scalar per-access loop over per-set policy objects, kept
    as the golden model for the parity suite and as the fallback for
    custom policies that only implement the scalar protocol.

Replacement policies implement per-set state: :class:`LruPolicy` and
:class:`BrripPolicy` live in sibling modules and provide both the scalar
and the array-state (``vec_*``) protocol.  Per-cache policy state lives in
the cache (built by ``make_vector_state`` / ``make_set_state``), so one
policy instance can serve several caches in turn.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .base import BufferStats

#: Hard ceiling on blocks expanded into memory at once by
#: :meth:`SetAssociativeCache.access_segments` — keeps multi-GB streaming
#: traces in bounded memory (a chunk of 2^20 int64 blocks is ~8 MB).
DEFAULT_CHUNK_ACCESSES = 1 << 20

_VECTOR_METHODS = ("make_vector_state", "vec_on_hit",
                   "vec_choose_victims", "vec_on_fill")


class ReplacementPolicy(Protocol):
    """Per-set replacement state machine (scalar reference protocol).

    The cache owns the tag/dirty arrays; a policy only maintains per-set
    recency state over way indices: ``on_hit`` records a re-reference,
    ``choose_victim`` picks the way to replace, ``on_fill`` records an
    insertion.  Policies that additionally implement the ``vec_*`` family
    (see :class:`VectorReplacementPolicy`) unlock the vectorized backend.

    A policy whose sets share state within one cache (BRRIP's bimodal
    fill counter) may also define ``make_set_states(n_sets, assoc)``,
    returning every set's state of one cache at once.
    """

    def make_set_state(self, assoc: int) -> object: ...

    def on_hit(self, state: object, way: int) -> None: ...

    def choose_victim(self, state: object) -> int: ...

    def on_fill(self, state: object, way: int) -> None: ...


class VectorReplacementPolicy(Protocol):
    """Array-state replacement protocol for the vectorized backend.

    ``rows`` are set indices (unique within one call), ``ways`` the
    matching way indices, ``times`` the global access order positions
    (strictly increasing).  ``vec_on_fill`` receives fills in trace order —
    policies with global counters (BRRIP's bimodal throttle) rely on it.
    """

    def make_vector_state(self, n_sets: int, assoc: int) -> object: ...

    def vec_on_hit(self, state: object, rows: np.ndarray,
                   ways: np.ndarray, times: np.ndarray) -> None: ...

    def vec_choose_victims(self, state: object, rows: np.ndarray) -> np.ndarray: ...

    def vec_on_fill(self, state: object, rows: np.ndarray,
                    ways: np.ndarray, times: np.ndarray) -> None: ...


def supports_vector(policy: object) -> bool:
    """Whether ``policy`` implements the array-state protocol."""
    return all(callable(getattr(policy, m, None)) for m in _VECTOR_METHODS)


def residency_dtype(assoc: int) -> np.dtype:
    """Smallest signed integer dtype that holds way indices up to ``assoc``
    (and -1 for "not resident")."""
    for dtype in (np.int8, np.int16, np.int32):
        if np.iinfo(dtype).max >= assoc:
            return np.dtype(dtype)
    return np.dtype(np.int64)


class SetAssociativeCache:
    """A write-back, write-allocate set-associative cache.

    Parameters
    ----------
    capacity_bytes / line_bytes / associativity:
        Geometry; ``capacity = sets * associativity * line_bytes``.
    policy:
        A :class:`ReplacementPolicy` instance (LRU, BRRIP, ...).
    backend:
        ``"vector"``, ``"reference"``, or ``"auto"`` (vector when the
        policy supports it).  Both backends produce identical stats; the
        vector backend is an order of magnitude faster on streams.
    """

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int,
        associativity: int,
        policy: ReplacementPolicy,
        backend: str = "auto",
    ) -> None:
        if capacity_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
            raise ValueError("cache geometry must be positive")
        n_lines = capacity_bytes // line_bytes
        if n_lines == 0 or n_lines % associativity:
            raise ValueError(
                f"capacity {capacity_bytes}B / line {line_bytes}B must be a "
                f"multiple of associativity {associativity}"
            )
        if backend == "auto":
            backend = "vector" if supports_vector(policy) else "reference"
        if backend not in ("vector", "reference"):
            raise ValueError(f"unknown cache backend {backend!r}")
        if backend == "vector" and not supports_vector(policy):
            raise ValueError(
                f"policy {type(policy).__name__} lacks the vec_* protocol "
                "required by the vector backend"
            )
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.assoc = associativity
        self.n_sets = n_lines // associativity
        self.policy = policy
        self.backend = backend
        self.stats = BufferStats()
        # Per-set parallel arrays: tags, valid (tag != -1), dirty.
        self._tags = np.full((self.n_sets, self.assoc), -1, dtype=np.int64)
        self._dirty = np.zeros((self.n_sets, self.assoc), dtype=bool)
        if backend == "vector":
            self._vstate = policy.make_vector_state(self.n_sets, self.assoc)
            self._tick = 0  # global access-order clock (LRU timestamps)
            # Residency map: _where[b - _base] is the way holding block b,
            # or -1.  Covers the block span seen so far (see _cover).
            self._where = np.empty(0, dtype=residency_dtype(self.assoc))
            self._base = 0
            # Ways filled per set.  Lines are never invalidated, so set s's
            # invalid ways are exactly _fill[s], ..., assoc - 1.
            self._fill = np.zeros(self.n_sets, dtype=np.int64)
        else:
            make_all = getattr(policy, "make_set_states", None)
            self._pol_state: List[object] = (
                make_all(self.n_sets, self.assoc) if make_all is not None
                else [policy.make_set_state(self.assoc)
                      for _ in range(self.n_sets)]
            )

    # -- single access ----------------------------------------------------------

    def access_line(self, block: int, is_write: bool) -> bool:
        """Access one line-aligned block address; returns hit/miss.

        ``block`` is the address divided by ``line_bytes``.
        """
        if self.backend == "vector":
            self._cover(block, block)
            blocks = np.array([block], dtype=np.int64)
            return bool(self._run_batch(
                blocks, blocks % self.n_sets, blocks - self._base,
                np.array([is_write]),
            )[0])
        return self._access_line_reference(block, is_write)

    def _access_line_reference(self, block: int, is_write: bool) -> bool:
        set_idx = block % self.n_sets
        tag = block // self.n_sets
        tags = self._tags[set_idx]
        state = self._pol_state[set_idx]
        self.stats.accesses += 1
        hit_ways = np.nonzero(tags == tag)[0]
        if hit_ways.size:
            way = int(hit_ways[0])
            self.stats.hits += 1
            self.policy.on_hit(state, way)
            if is_write:
                self._dirty[set_idx, way] = True
            return True
        # Miss: allocate (write-allocate for writes too).  Invalid ways are
        # filled before the replacement policy is consulted.
        self.stats.misses += 1
        self.stats.dram_read_bytes += self.line_bytes
        invalid = np.nonzero(tags == -1)[0]
        if invalid.size:
            victim = int(invalid[0])
        else:
            victim = self.policy.choose_victim(state)
            self.stats.evictions += 1
            if self._dirty[set_idx, victim]:
                self.stats.writebacks += 1
                self.stats.dram_write_bytes += self.line_bytes
        tags[victim] = tag
        self._dirty[set_idx, victim] = is_write
        self.policy.on_fill(state, victim)
        return False

    # -- vectorized kernel --------------------------------------------------------

    def _cover(self, lo: int, hi: int) -> None:
        """Grow the residency map to cover blocks ``lo..hi``.

        Growth past the current span adds an eighth of it as slack, so a
        span that creeps one access at a time is copied O(log n) times.
        """
        size = self._where.shape[0]
        base = self._base if size else lo      # an empty map sits at lo
        end = base + size
        if base <= lo and hi < end:
            return
        slack = size // 8
        new_lo = min(lo, base - slack) if lo < base else base
        new_end = max(hi + 1, end + slack) if hi >= end else end
        grown = np.full(new_end - new_lo, -1, dtype=self._where.dtype)
        grown[base - new_lo: end - new_lo] = self._where
        self._where, self._base = grown, new_lo

    def _run_batch(self, blocks: np.ndarray, sets: np.ndarray,
                   slots: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """Resolve one conflict-free batch (unique set index per access).

        ``sets`` and ``slots`` are the blocks' set indices and residency-map
        offsets (``blocks - _base``; the map must already cover them).
        Returns the per-access hit mask.  Because no set appears twice, the
        per-set states are independent within the batch; the only cross-set
        coupling — BRRIP's fill counter — is preserved by handing fills to
        ``vec_on_fill`` in trace order.
        """
        n = blocks.shape[0]
        times = self._tick + np.arange(n, dtype=np.int64)
        self._tick += n
        ways = self._where[slots]
        hit_mask = ways >= 0
        n_hits = int(np.count_nonzero(hit_mask))
        self.stats.accesses += n
        self.stats.hits += n_hits
        self.stats.misses += n - n_hits

        if n_hits:
            h_sets = sets[hit_mask]
            h_ways = ways[hit_mask].astype(np.intp)
            self.policy.vec_on_hit(self._vstate, h_sets, h_ways, times[hit_mask])
            hw = writes[hit_mask]
            self._dirty[h_sets[hw], h_ways[hw]] = True

        n_miss = n - n_hits
        if n_miss:
            miss_mask = ~hit_mask
            m_sets = sets[miss_mask]
            victims = self._fill[m_sets]
            full = victims == self.assoc
            n_evict = int(np.count_nonzero(full))
            if n_evict < n_miss:
                self._fill[m_sets[~full]] += 1
            if n_evict:
                e_sets = m_sets[full]
                chosen = self.policy.vec_choose_victims(self._vstate, e_sets)
                victims[full] = chosen
                evicted = self._tags[e_sets, chosen] * self.n_sets + e_sets
                self._where[evicted - self._base] = -1
                self.stats.evictions += n_evict
                n_wb = int(np.count_nonzero(self._dirty[e_sets, chosen]))
                self.stats.writebacks += n_wb
                self.stats.dram_write_bytes += n_wb * self.line_bytes
            self.stats.dram_read_bytes += n_miss * self.line_bytes
            self._tags[m_sets, victims] = blocks[miss_mask] // self.n_sets
            self._dirty[m_sets, victims] = writes[miss_mask]
            self._where[slots[miss_mask]] = victims
            self.policy.vec_on_fill(self._vstate, m_sets, victims,
                                    times[miss_mask])
        return hit_mask

    def _simulate_blocks(self, blocks: np.ndarray, writes: np.ndarray) -> None:
        """Simulate an in-order block stream, splitting it into conflict-free
        batches.

        Batch boundaries come from a suffix-minimum over the next-occurrence
        index of each access's set: for a batch starting at ``s``, the first
        position that re-uses a set already in the batch is exactly
        ``min(next_occurrence[i] for i >= s)`` — O(trace) to precompute and
        O(1) per batch, so conflict-heavy traces degrade gracefully instead
        of quadratically.
        """
        n = blocks.shape[0]
        if n == 0:
            return
        sets = blocks % self.n_sets
        order = np.argsort(sets, kind="stable")
        sorted_sets = sets[order]
        same = sorted_sets[1:] == sorted_sets[:-1]
        del sorted_sets
        next_occ = np.full(n, n, dtype=np.int64)
        next_occ[order[:-1][same]] = order[1:][same]
        del order, same
        # Suffix minimum, in place over the reversed view.
        np.minimum.accumulate(next_occ[::-1], out=next_occ[::-1])
        self._cover(int(blocks.min()), int(blocks.max()))
        slots = blocks - self._base
        s = 0
        while s < n:
            e = int(next_occ[s])     # next_occ[i] > i, so e > s always
            self._run_batch(blocks[s:e], sets[s:e], slots[s:e], writes[s:e])
            s = e

    # -- streams ------------------------------------------------------------------

    def access_stream(self, blocks: Sequence[int], is_write: bool) -> None:
        """Access a sequence of block addresses with one read/write flavour."""
        if self.backend == "vector":
            arr = np.asarray(blocks, dtype=np.int64)
            for s in range(0, arr.shape[0], DEFAULT_CHUNK_ACCESSES):
                chunk = arr[s: s + DEFAULT_CHUNK_ACCESSES]
                self._simulate_blocks(
                    chunk, np.full(chunk.shape[0], is_write, dtype=bool)
                )
            return
        for b in blocks:
            self.access_line(int(b), is_write)

    def access_range(self, start_byte: int, n_bytes: int, is_write: bool) -> None:
        """Stream all lines overlapping byte range [start, start+n)."""
        if n_bytes <= 0:
            return
        first = start_byte // self.line_bytes
        last = (start_byte + n_bytes - 1) // self.line_bytes
        if self.backend == "vector":
            # Expand in bounded chunks: one huge range must not allocate
            # block arrays proportional to its full length.
            for s in range(first, last + 1, DEFAULT_CHUNK_ACCESSES):
                e = min(s + DEFAULT_CHUNK_ACCESSES, last + 1)
                blocks = np.arange(s, e, dtype=np.int64)
                self._simulate_blocks(
                    blocks, np.full(blocks.shape[0], is_write, dtype=bool)
                )
            return
        for b in range(first, last + 1):
            self.access_line(b, is_write)

    def access_segments(
        self,
        segments: Iterable,
        chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
    ) -> None:
        """Replay an iterable of :class:`~repro.sim.trace.StreamSegment`.

        The segments are expanded to block-address arrays in numpy and
        simulated through the batched kernel, at most ``chunk_accesses``
        expanded accesses in memory at a time — a lazy segment iterator
        (``iter_program_trace``) therefore streams in bounded memory.
        """
        if chunk_accesses <= 0:
            raise ValueError("chunk_accesses must be positive")
        if self.backend == "reference":
            for seg in segments:
                self.access_range(seg.start, seg.nbytes, seg.is_write)
            return
        firsts: List[int] = []
        counts: List[int] = []
        writes: List[bool] = []
        pending = 0
        for seg in segments:
            if seg.nbytes <= 0:
                continue
            first = seg.start // self.line_bytes
            count = (seg.start + seg.nbytes - 1) // self.line_bytes - first + 1
            while count > 0:
                # Split oversized segments too: no flush ever expands more
                # than ``chunk_accesses`` blocks.
                take = min(count, chunk_accesses - pending)
                firsts.append(first)
                counts.append(take)
                writes.append(seg.is_write)
                first += take
                count -= take
                pending += take
                if pending >= chunk_accesses:
                    self._expand_and_run(firsts, counts, writes)
                    firsts, counts, writes = [], [], []
                    pending = 0
        if firsts:
            self._expand_and_run(firsts, counts, writes)

    def _expand_and_run(self, firsts: List[int], counts: List[int],
                        writes: List[bool]) -> None:
        f = np.asarray(firsts, dtype=np.int64)
        c = np.asarray(counts, dtype=np.int64)
        w = np.asarray(writes, dtype=bool)
        total = int(c.sum())
        seg_starts = np.cumsum(c) - c
        # blocks[i] = first block of i's segment + (i - segment start)
        blocks = np.repeat(f - seg_starts, c)
        blocks += np.arange(total, dtype=np.int64)
        self._simulate_blocks(blocks, np.repeat(w, c))

    def flush(self) -> None:
        """Write back all dirty lines (end-of-program drain)."""
        dirty_count = int(self._dirty.sum())
        self.stats.writebacks += dirty_count
        self.stats.dram_write_bytes += dirty_count * self.line_bytes
        self._dirty[:] = False

    def resident_lines(self) -> int:
        return int((self._tags != -1).sum())
