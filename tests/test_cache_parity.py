"""Golden-parity suite: the vectorized cache backend must be byte-identical
to the scalar reference backend.

The vector backend resolves accesses in conflict-free batches; these tests
pit it against the original per-access scalar loop on randomized and
adversarial traces (same-set conflict storms, write-allocate mixes,
flushes) for every policy, requiring exact :class:`BufferStats` equality
and identical final tag/dirty state.  Also covers the streaming trace
iterator (laziness + equality with the eager form) and the segment
chunking path.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.brrip import BrripPolicy
from repro.buffers.cache import (
    SetAssociativeCache,
    residency_dtype,
    supports_vector,
)
from repro.buffers.lru import LruPolicy
from repro.buffers.srrip import SrripPolicy
from repro.hw.config import AcceleratorConfig
from repro.sim.address_map import AddressMap
from repro.sim.engine import CacheEngine
from repro.sim.trace import (
    StreamSegment,
    iter_program_trace,
    program_trace,
    program_trace_bytes,
    trace_bytes,
)
from repro.workloads.cg import CgProblem, build_cg_dag
from repro.workloads.matrices import FV1

POLICIES = {
    "lru": LruPolicy,
    "brrip": BrripPolicy,
    "srrip": SrripPolicy,
}


def pair(policy_name, capacity=4096, line=16, assoc=4):
    """A (reference, vector) cache pair with independent policy instances."""
    ref = SetAssociativeCache(capacity, line, assoc,
                              POLICIES[policy_name](), backend="reference")
    vec = SetAssociativeCache(capacity, line, assoc,
                              POLICIES[policy_name](), backend="vector")
    return ref, vec


def assert_identical(ref, vec):
    assert vec.stats.as_dict() == ref.stats.as_dict()
    # Same lines resident per set (way assignment may legally differ only
    # in ordering for policies, but both backends fill invalid ways
    # first-to-last and victimise identically, so require exact equality).
    np.testing.assert_array_equal(vec._tags, ref._tags)
    np.testing.assert_array_equal(vec._dirty, ref._dirty)


def replay_segments(cache, segments, chunk_accesses=None):
    if chunk_accesses is None:
        cache.access_segments(iter(segments))
    else:
        cache.access_segments(iter(segments), chunk_accesses=chunk_accesses)


class TestRandomizedParity:
    @pytest.mark.parametrize(
        "policy,seed", list(itertools.product(POLICIES, range(4)))
    )
    def test_random_segment_traces(self, policy, seed):
        rng = random.Random(1000 * seed + hash(policy) % 1000)
        segments = []
        for _ in range(300):
            start = rng.randrange(0, 1 << 16)
            nbytes = rng.randrange(1, 600)
            segments.append(StreamSegment(
                "T", start, nbytes, is_write=rng.random() < 0.4
            ))
        ref, vec = pair(policy)
        replay_segments(ref, segments)
        replay_segments(vec, segments)
        assert_identical(ref, vec)
        ref.flush()
        vec.flush()
        assert vec.stats.as_dict() == ref.stats.as_dict()

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_random_line_streams(self, policy):
        rng = random.Random(7)
        blocks = [rng.randrange(0, 512) for _ in range(4000)]
        writes = [rng.random() < 0.3 for _ in range(4000)]
        ref, vec = pair(policy, capacity=8192, assoc=8)
        got_ref = [ref.access_line(b, w) for b, w in zip(blocks, writes)]
        got_vec = [vec.access_line(b, w) for b, w in zip(blocks, writes)]
        assert got_vec == got_ref
        assert_identical(ref, vec)

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_chunking_invariance(self, policy):
        """Chunk size must not change results (batches never span chunks,
        but state carries across them)."""
        rng = random.Random(11)
        segments = [
            StreamSegment("T", rng.randrange(0, 1 << 14),
                          rng.randrange(1, 400), rng.random() < 0.5)
            for _ in range(200)
        ]
        ref, _ = pair(policy)
        replay_segments(ref, segments)
        for chunk in (1, 7, 64, 100_000):
            _, vec = pair(policy)
            replay_segments(vec, segments, chunk_accesses=chunk)
            assert_identical(ref, vec)


class TestAdversarialParity:
    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_same_set_conflict_storm(self, policy):
        """Every access maps to set 0: batches degrade to singletons."""
        ref, vec = pair(policy, capacity=1024, line=16, assoc=4)  # 16 sets
        rng = random.Random(3)
        blocks = [16 * rng.randrange(0, 12) for _ in range(1500)]
        writes = [rng.random() < 0.5 for _ in range(1500)]
        for b, w in zip(blocks, writes):
            ref.access_line(b, w)
        vec._simulate_blocks(np.array(blocks, dtype=np.int64),
                             np.array(writes, dtype=bool))
        assert_identical(ref, vec)

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_write_allocate_then_flush(self, policy):
        """Write misses allocate dirty; eviction + flush writebacks match."""
        ref, vec = pair(policy, capacity=512, line=16, assoc=2)  # 16 sets
        segments = (
            [StreamSegment("W", i * 16, 16, True) for i in range(64)]
            + [StreamSegment("R", i * 16, 16, False) for i in range(64)]
            + [StreamSegment("W2", i * 16, 16, True) for i in range(32)]
        )
        replay_segments(ref, segments)
        replay_segments(vec, segments)
        assert_identical(ref, vec)
        ref.flush()
        vec.flush()
        assert vec.stats.as_dict() == ref.stats.as_dict()
        assert vec.stats.writebacks > 0  # the scenario actually wrote back

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_scan_after_reuse(self, policy):
        """The Fig. 11 shape: a hot working set, a scan, then re-reads —
        the trace where LRU and (B/S)RRIP genuinely diverge."""
        ref, vec = pair(policy, capacity=256, line=16, assoc=4)  # 4 sets
        ws = [0, 4, 8]            # all in set 0
        trace = []
        for _ in range(6):
            trace.extend((b, False) for b in ws)
        trace.extend((100 + 4 * i, False) for i in range(24))
        trace.extend((b, False) for b in ws)
        for b, w in trace:
            ref.access_line(b, w)
        vec._simulate_blocks(np.array([b for b, _ in trace], dtype=np.int64),
                             np.array([w for _, w in trace], dtype=bool))
        assert_identical(ref, vec)

    def test_brrip_bimodal_counter_order(self):
        """The bimodal throttle is a *global* fill counter: a trace with >
        throttle fills must place the rare long insertions identically
        (this is why fills are handed to vec_on_fill in trace order)."""
        ref = SetAssociativeCache(2048, 16, 4, BrripPolicy(bimodal_throttle=8),
                                  backend="reference")
        vec = SetAssociativeCache(2048, 16, 4, BrripPolicy(bimodal_throttle=8),
                                  backend="vector")
        # Streaming misses across many sets, then re-touch: hit pattern is
        # sensitive to which fills were long vs distant.
        segments = [StreamSegment("S", i * 16, 16, False) for i in range(400)]
        segments += [StreamSegment("S", i * 16, 16, False) for i in range(400)]
        replay_segments(ref, segments)
        replay_segments(vec, segments)
        assert_identical(ref, vec)
        assert ref.policy._fill_counter == vec.policy._fill_counter

    def test_empty_and_degenerate_segments(self):
        ref, vec = pair("lru")
        segments = [
            StreamSegment("Z", 0, 0, False),      # empty: no accesses
            StreamSegment("A", 5, 1, True),       # sub-line
            StreamSegment("B", 15, 2, False),     # straddles a line boundary
        ]
        replay_segments(ref, segments)
        replay_segments(vec, segments)
        assert_identical(ref, vec)
        assert vec.stats.accesses == 3


class TestResidencyMapParity:
    """The vector backend's residency map (block -> way) and per-set fill
    counters against the reference tag scan: growth in both directions,
    single-line accesses mixed with batches, sparse spans, and the
    associativity where the map's dtype widens."""

    @pytest.mark.parametrize(
        "policy,chunk", list(itertools.product(POLICIES, (3, 64)))
    )
    def test_span_grows_down_then_up(self, policy, chunk):
        rng = random.Random(17)
        ref, vec = pair(policy)
        phases = [(6000, 7000), (0, 1500), (12000, 14000), (3000, 9000)]
        bases = []
        for lo, hi in phases:
            segments = [
                StreamSegment("T", 16 * rng.randrange(lo, hi),
                              16 * rng.randrange(1, 6), rng.random() < 0.4)
                for _ in range(150)
            ]
            replay_segments(ref, segments)
            replay_segments(vec, segments, chunk_accesses=chunk)
            assert_identical(ref, vec)
            bases.append((vec._base, vec._base + vec._where.shape[0]))
        assert bases[1][0] < bases[0][0]      # grew downward
        assert bases[2][1] > bases[1][1]      # then upward

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_access_line_interleaved_with_segments(self, policy):
        rng = random.Random(23)
        ref, vec = pair(policy)
        for _ in range(60):
            if rng.random() < 0.5:
                block = rng.randrange(0, 2048)
                is_write = rng.random() < 0.5
                assert vec.access_line(block, is_write) == \
                    ref.access_line(block, is_write)
            else:
                segments = [StreamSegment("T", rng.randrange(0, 1 << 15),
                                          rng.randrange(1, 300),
                                          rng.random() < 0.3)
                            for _ in range(rng.randrange(1, 6))]
                replay_segments(ref, segments)
                replay_segments(vec, segments, chunk_accesses=50)
            assert_identical(ref, vec)

    @pytest.mark.parametrize("policy", list(POLICIES))
    def test_far_apart_extents(self, policy):
        """Two extents ~2^24 blocks apart: one map spans both."""
        far = 16 << 24
        rng = random.Random(29)
        segments = []
        for _ in range(400):
            base = far if rng.random() < 0.5 else 0
            segments.append(StreamSegment("T", base + 16 * rng.randrange(0, 400),
                                          16 * rng.randrange(1, 4),
                                          rng.random() < 0.3))
        ref, vec = pair(policy)
        replay_segments(ref, segments)
        replay_segments(vec, segments, chunk_accesses=100)
        assert_identical(ref, vec)
        assert vec._where.shape[0] > 1 << 24

    @pytest.mark.parametrize(
        "policy,assoc", list(itertools.product(POLICIES, (127, 128)))
    )
    def test_map_dtype_boundary(self, policy, assoc):
        assert residency_dtype(127) == np.int8
        assert residency_dtype(128) == np.int16
        ref, vec = pair(policy, capacity=4 * assoc * 16, assoc=assoc)
        assert vec._where.dtype == residency_dtype(assoc)
        rng = random.Random(assoc)
        blocks = np.array([rng.randrange(0, 4 * assoc * 3)
                           for _ in range(3000)], dtype=np.int64)
        writes = np.array([rng.random() < 0.3 for _ in range(3000)])
        for b, w in zip(blocks.tolist(), writes.tolist()):
            ref.access_line(b, w)
        vec._simulate_blocks(blocks, writes)
        assert_identical(ref, vec)
        assert vec.stats.evictions > 0

    @given(
        policy=st.sampled_from(sorted(POLICIES)),
        segments=st.lists(
            st.tuples(st.integers(0, 1 << 13), st.integers(1, 200),
                      st.booleans()),
            min_size=1, max_size=40,
        ),
        chunk=st.integers(1, 300),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_streams_property(self, policy, segments, chunk):
        segs = [StreamSegment("T", start, nbytes, w)
                for start, nbytes, w in segments]
        ref, vec = pair(policy, capacity=1024, assoc=2)
        replay_segments(ref, segs)
        replay_segments(vec, segs, chunk_accesses=chunk)
        assert_identical(ref, vec)
        ref.flush()
        vec.flush()
        assert vec.stats.as_dict() == ref.stats.as_dict()


class TestBackendSelection:
    def test_auto_picks_vector_for_builtin_policies(self):
        for policy in (LruPolicy(), BrripPolicy(), SrripPolicy()):
            assert supports_vector(policy)
            assert SetAssociativeCache(1024, 16, 4, policy).backend == "vector"

    def test_scalar_only_policy_falls_back(self):
        class ScalarOnly:
            def make_set_state(self, assoc):
                return list(range(assoc))

            def on_hit(self, state, way):
                pass

            def choose_victim(self, state):
                return state[0]

            def on_fill(self, state, way):
                pass

        cache = SetAssociativeCache(1024, 16, 4, ScalarOnly())
        assert cache.backend == "reference"
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, 16, 4, ScalarOnly(), backend="vector")
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, 16, 4, LruPolicy(), backend="nope")

    def test_reference_segments_path_matches_ranges(self):
        """access_segments on the reference backend = the old loop."""
        a = SetAssociativeCache(1024, 16, 4, LruPolicy(), backend="reference")
        b = SetAssociativeCache(1024, 16, 4, LruPolicy(), backend="reference")
        segments = [StreamSegment("T", i * 40, 60, i % 2 == 0)
                    for i in range(50)]
        a.access_segments(iter(segments))
        for s in segments:
            b.access_range(s.start, s.nbytes, s.is_write)
        assert a.stats.as_dict() == b.stats.as_dict()


class TestEngineParity:
    def test_cache_engine_backends_identical(self):
        dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=1))
        for policy_cls in (LruPolicy, BrripPolicy):
            vec = CacheEngine(AcceleratorConfig(), policy_cls(),
                              granularity=4, backend="vector").run(dag)
            ref = CacheEngine(AcceleratorConfig(), policy_cls(),
                              granularity=4, backend="reference").run(dag)
            assert vec.dram_read_bytes == ref.dram_read_bytes
            assert vec.dram_write_bytes == ref.dram_write_bytes
            assert vec.onchip_accesses == ref.onchip_accesses


class TestStreamingTrace:
    @pytest.fixture(scope="class")
    def cg(self):
        dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=2))
        return dag, AddressMap.for_dag(dag, line_bytes=16)

    def test_iterator_matches_eager(self, cg):
        dag, amap = cg
        assert list(iter_program_trace(dag, amap)) == program_trace(dag, amap)

    def test_program_trace_bytes_matches_trace(self, cg):
        dag, amap = cg
        assert program_trace_bytes(dag) == trace_bytes(program_trace(dag, amap))

    def test_trace_is_lazy(self, cg):
        """Bounded memory: pulling the first segment must not touch tensors
        of later ops (one op's segments are materialized at a time)."""
        dag, amap = cg

        class SpyMap:
            def __init__(self, inner):
                self.inner = inner
                self.queried = set()

            def get(self, name):
                self.queried.add(name)
                return self.inner.get(name)

        spy = SpyMap(amap)
        it = iter_program_trace(dag, spy)
        next(it)
        first_op_tensors = {t.name for t in dag.ops[0].inputs}
        first_op_tensors.add(dag.ops[0].output.name)
        assert spy.queried <= first_op_tensors
        all_tensors = {t.name for t in dag.tensors}
        assert spy.queried < all_tensors  # strictly fewer than the program

    def test_trace_bytes_consumes_iterator(self, cg):
        dag, amap = cg
        assert trace_bytes(iter_program_trace(dag, amap)) == \
            program_trace_bytes(dag)
