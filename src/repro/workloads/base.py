"""Workload profiles: the statistical skeletons of the paper's benchmarks.

A :class:`WorkloadProfile` captures what the architecture cares about —
instruction mix, memory-access granularity (paper Fig 8), SPM residency,
working-set size, code footprint — and synthesises:

* **TCG instruction streams** (:meth:`stream`) for the SmarCo cores, with
  the LSQ-visible address layout of :mod:`repro.core.tcg` (SPM window /
  uncached streaming window / cacheable heap);
* **Xeon samplers** (:meth:`xeon_data_sampler` / :meth:`xeon_code_sampler`)
  for the baseline's quantum model — on the Xeon there is no SPM, so
  SPM-resident accesses become ordinary cacheable accesses (that is the
  architectural difference the paper exploits).

Six HTC profiles live in :mod:`repro.workloads.profiles`; each benchmark
module also ships a *functional* kernel used by the MapReduce examples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

from ..catalog import Catalog
from ..core.stream import CoreInstr
from ..core.tcg import UNCACHED_BASE
from ..errors import WorkloadError
from ..noc.traffic import GranularityDist
from ..sim.snapshot import register_snapshot_class, snapshotable

__all__ = ["WorkloadProfile", "InstrStream", "register_profile",
           "get_profile", "all_profiles"]

# Cacheable-heap layout: each (core, thread) gets a private region so cache
# contention between threads is real, as on the paper's testbed.
HEAP_BASE = 0x0001_0000_0000
THREAD_REGION = 1 << 26          # 64 MB per thread, far beyond any cache
CODE_BASE = 0x0000_1000_0000


@dataclass(frozen=True)
class WorkloadProfile:
    """Architecture-level description of one benchmark."""

    name: str
    mem_ratio: float                 # fraction of instructions touching memory
    branch_ratio: float
    granularity: GranularityDist     # access size distribution (Fig 8)
    spm_fraction: float              # memory accesses resolved in SPM (SmarCo)
    uncached_fraction: float         # accesses streaming to DRAM (MACT path)
    working_set_bytes: int           # cacheable working set per thread
    code_footprint_bytes: int        # instruction footprint
    ilp: float = 1.8                 # Xeon base IPC per thread
    mlp: float = 4.0                 # Xeon OoO memory overlap factor
    branch_taken_ratio: float = 0.4
    branch_miss_rate: float = 0.06   # Xeon predictor miss rate
    mul_ratio: float = 0.02
    streaming_locality: float = 0.9  # P(next uncached access is sequential)
    #: share of uncached accesses that walk a dataset SHARED by a gang of
    #: threads with round-robin element partitioning (each thread owns
    #: every gang_size-th element).  Neighbouring threads' accesses land
    #: in the same cache lines at the same time — the cross-core
    #: adjacency the MACT batches (paper §3.4: "discrete and small
    #: granularity packets from adjacent cores").
    shared_uncached_fraction: float = 0.6
    #: the shared gang dataset wraps within this window
    shared_window_bytes: int = 1 << 20
    #: per-thread dataset the Xeon must pull through its caches — the
    #: data SmarCo stages in SPM (the architectural asymmetry of Fig 22)
    xeon_dataset_bytes: int = 32 * 1024
    realtime: bool = False           # RNC-style hard-deadline tasks

    def __post_init__(self) -> None:
        fractions = (self.mem_ratio, self.branch_ratio, self.spm_fraction,
                     self.uncached_fraction, self.branch_taken_ratio,
                     self.branch_miss_rate, self.mul_ratio,
                     self.streaming_locality)
        if any(not 0 <= f <= 1 for f in fractions):
            raise WorkloadError(f"{self.name}: fractions must be in [0,1]")
        if self.mem_ratio + self.branch_ratio + self.mul_ratio > 1:
            raise WorkloadError(f"{self.name}: instruction mix exceeds 1")
        if self.spm_fraction + self.uncached_fraction > 1:
            raise WorkloadError(f"{self.name}: memory mix exceeds 1")
        if self.working_set_bytes <= 0 or self.code_footprint_bytes <= 0:
            raise WorkloadError(f"{self.name}: footprints must be positive")
        if self.xeon_dataset_bytes <= 0 or self.shared_window_bytes <= 0:
            raise WorkloadError(f"{self.name}: dataset sizes must be positive")

    # -- TCG stream ------------------------------------------------------------

    def stream(
        self,
        n_instrs: int,
        rng: random.Random,
        thread_id: int = 0,
        spm_base: Optional[int] = None,
        spm_bytes: int = 128 * 1024,
        gang_size: int = 1,
        gang_rank: int = 0,
        gang_base: Optional[int] = None,
    ) -> "InstrStream":
        """Build an ``n_instrs``-long pipeline stream for one SmarCo thread.

        ``gang_size``/``gang_rank``/``gang_base`` describe the thread's
        position in a gang processing one shared dataset round-robin
        (e.g. all threads of a sub-ring); with the default gang of one,
        shared accesses degenerate to a private stream.
        """
        return InstrStream(self, n_instrs, rng, thread_id=thread_id,
                           spm_base=spm_base, spm_bytes=spm_bytes,
                           gang_size=gang_size, gang_rank=gang_rank,
                           gang_base=gang_base)

    def _shared_region_offset(self) -> int:
        """Stable per-profile placement of the shared gang dataset (keeps
        different workloads' regions apart in the address space)."""
        import hashlib

        digest = hashlib.sha256(self.name.encode()).digest()
        slot = int.from_bytes(digest[:4], "little") % 1024
        return slot * self.shared_window_bytes

    # -- Xeon samplers ------------------------------------------------------------

    def xeon_data_sampler(
        self, thread_id: int, rng: random.Random
    ) -> "XeonDataSampler":
        """Data-address sampler for the baseline quantum model.

        SPM-resident accesses become cacheable accesses on the Xeon; the
        streaming fraction walks sequentially (prefetch-friendly but
        cache-polluting), the rest hits the thread's working set.
        """
        return XeonDataSampler(self, thread_id, rng)

    def xeon_code_sampler(self, rng: random.Random,
                          thread_id: int = 0) -> "XeonCodeSampler":
        """Instruction-address sampler.

        Threads exercise different request types / service phases, so each
        software thread walks its own slice of the service binary —
        co-resident threads then contend for the L1I (Fig 1b's rising
        starvation).
        """
        return XeonCodeSampler(self, rng, thread_id)


@snapshotable
class InstrStream:
    """Explicit-state form of the TCG instruction generator.

    Behaves exactly like the generator it replaced — same per-instruction
    RNG draw order, and the initial stream-pointer draw happens lazily on
    the first ``__next__`` (several streams may share one generator, so
    construction order must not consume entropy) — but every local is an
    attribute, so a checkpoint can freeze a thread mid-stream.

    ``retarget`` moves the instruction budget without disturbing any
    positional state; warm-started sweep points use it to extend a
    restored prefix to the point's own budget.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        n_instrs: int,
        rng: random.Random,
        thread_id: int = 0,
        spm_base: Optional[int] = None,
        spm_bytes: int = 128 * 1024,
        gang_size: int = 1,
        gang_rank: int = 0,
        gang_base: Optional[int] = None,
    ) -> None:
        self.profile = profile
        self.total = n_instrs
        self.emitted = 0
        self.rng = rng
        self.thread_id = thread_id
        self.spm_base = spm_base
        self.spm_bytes = spm_bytes
        self.gang_size = gang_size
        self.gang_rank = gang_rank
        self.gang_base = gang_base
        self.started = False
        # positional state, filled in by _start()
        self.heap = 0
        self.stream_ptr = 0
        self.chunk_bytes = 256
        self.chunk_count = 0
        self.chunk_idx = gang_rank
        self.intra = 0
        self.pending_stores = 0
        self.code_pcs = max(1, profile.code_footprint_bytes // 4)
        self.pc = 0

    def _start(self) -> None:
        from ..mem.spm import SPM_REGION_BASE

        profile = self.profile
        if self.spm_base is None:
            self.spm_base = SPM_REGION_BASE
        self.heap = HEAP_BASE + self.thread_id * THREAD_REGION
        # random start offset spreads streams over channels and banks
        self.stream_ptr = (
            UNCACHED_BASE + (self.thread_id + 1) * THREAD_REGION
            + self.rng.randrange(THREAD_REGION // 2))
        if self.gang_base is None:
            self.gang_base = UNCACHED_BASE + profile._shared_region_offset()
        self.started = True

    def retarget(self, n_instrs: int) -> None:
        """Change the total instruction budget (used by warm starts)."""
        if n_instrs < self.emitted:
            raise WorkloadError(
                f"cannot retarget stream to {n_instrs} instructions; "
                f"{self.emitted} already emitted")
        self.total = n_instrs

    # Block-partitioned shared dataset: the thread owns every
    # gang_size-th 256B chunk and walks each chunk sequentially, so
    # its own small stores are contiguous (they merge in the MACT)
    # and neighbouring threads work adjacent chunks.
    def _shared_addr(self, size: int) -> int:
        if self.intra + size > self.chunk_bytes:
            self.chunk_count += 1
            self.chunk_idx = self.chunk_count * self.gang_size + self.gang_rank
            self.intra = 0
        addr = self.gang_base + (
            self.chunk_idx * self.chunk_bytes + self.intra
        ) % self.profile.shared_window_bytes
        self.intra += size
        return addr

    def __iter__(self) -> "InstrStream":
        return self

    def __next__(self) -> CoreInstr:
        if self.emitted >= self.total:
            raise StopIteration
        if not self.started:
            self._start()
        self.emitted += 1
        profile = self.profile
        rng = self.rng
        self.pc = (self.pc + 1) % self.code_pcs
        pc = self.pc
        if self.pending_stores:
            # tail of a store burst: contiguous output elements
            self.pending_stores -= 1
            size = profile.granularity.sample(rng)
            return CoreInstr("store", addr=self._shared_addr(size),
                             size=size, pc=pc)
        draw = rng.random()
        p_mem = profile.mem_ratio
        p_branch = p_mem + profile.branch_ratio
        p_mul = p_branch + profile.mul_ratio
        if draw < p_mem:
            size = profile.granularity.sample(rng)
            is_write = rng.random() < 0.25
            kind = "store" if is_write else "load"
            mem_draw = rng.random()
            if mem_draw < profile.spm_fraction:
                addr = self.spm_base + rng.randrange(
                    max(1, self.spm_bytes - 256 - size))
            elif mem_draw < profile.spm_fraction + profile.uncached_fraction:
                if rng.random() < profile.shared_uncached_fraction:
                    addr = self._shared_addr(size)
                    if is_write:
                        self.pending_stores = 1 + rng.randrange(3)
                else:
                    if rng.random() < profile.streaming_locality:
                        self.stream_ptr += size
                    else:
                        self.stream_ptr += size * rng.randrange(2, 64)
                    addr = self.stream_ptr
            else:
                addr = self.heap + rng.randrange(profile.working_set_bytes)
            return CoreInstr(kind, addr=addr, size=size, pc=pc)
        if draw < p_branch:
            taken = rng.random() < profile.branch_taken_ratio
            return CoreInstr("branch", pc=pc, taken=taken)
        if draw < p_mul:
            return CoreInstr("mul", pc=pc)
        return CoreInstr("alu", pc=pc)


@snapshotable
class XeonDataSampler:
    """Explicit-state form of the Xeon data-address closure."""

    def __init__(self, profile: WorkloadProfile, thread_id: int,
                 rng: random.Random) -> None:
        self.profile = profile
        self.thread_id = thread_id
        self.rng = rng
        self.heap = HEAP_BASE + thread_id * THREAD_REGION
        # the data SmarCo would stage in SPM lives in ordinary cacheable
        # memory here — per-thread slices so cache contention is real
        self.dataset = HEAP_BASE + (1 << 40) + thread_id * THREAD_REGION
        self.gang_base = UNCACHED_BASE + profile._shared_region_offset()
        self.chunk_bytes = 256
        self.stream_ptr = (UNCACHED_BASE + (thread_id + 1) * THREAD_REGION
                           + rng.randrange(THREAD_REGION // 2))
        self.chunk = thread_id % 48
        self.count = 0
        self.intra = 0

    def __call__(self) -> Tuple[int, int, bool]:
        profile = self.profile
        rng = self.rng
        size = profile.granularity.sample(rng)
        is_write = rng.random() < 0.25
        draw = rng.random()
        if draw < profile.uncached_fraction:
            if rng.random() < profile.shared_uncached_fraction:
                # chunked slice of the gang-shared dataset
                if self.intra + size > self.chunk_bytes:
                    self.count += 1
                    self.chunk = self.count * 48 + (self.thread_id % 48)
                    self.intra = 0
                addr = self.gang_base + (
                    self.chunk * self.chunk_bytes + self.intra
                ) % profile.shared_window_bytes
                self.intra += size
                return addr, size, is_write
            self.stream_ptr += size * rng.randrange(1, 16)
            return self.stream_ptr, size, is_write
        if draw < profile.uncached_fraction + profile.spm_fraction:
            return (self.dataset + rng.randrange(profile.xeon_dataset_bytes),
                    size, is_write)
        return (self.heap + rng.randrange(profile.working_set_bytes),
                size, is_write)


@snapshotable
class XeonCodeSampler:
    """Explicit-state form of the Xeon instruction-address closure."""

    def __init__(self, profile: WorkloadProfile, rng: random.Random,
                 thread_id: int = 0) -> None:
        self.profile = profile
        self.rng = rng
        self.base = CODE_BASE + thread_id * profile.code_footprint_bytes

    def __call__(self) -> int:
        return self.base + self.rng.randrange(
            self.profile.code_footprint_bytes)


# profiles and their granularity histograms travel by value inside
# stream/sampler state
register_snapshot_class(WorkloadProfile)
register_snapshot_class(GranularityDist)

_PROFILES: Catalog[WorkloadProfile] = Catalog("workload", WorkloadError)


def register_profile(profile: WorkloadProfile) -> WorkloadProfile:
    return _PROFILES.add(profile.name, profile)


def get_profile(name: str) -> WorkloadProfile:
    return _PROFILES.get(name)


def all_profiles() -> Dict[str, WorkloadProfile]:
    return dict(_PROFILES.items())
