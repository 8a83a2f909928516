"""GEMM engine abstraction: tiling, cycle accounting, utilization.

Every engine (WS systolic, OS systolic, DiVa outer-product) maps a GEMM
onto a fixed ``height x width`` array of processing engines (PEs) by
tiling two of the three GEMM dimensions onto the physical array, then
accumulates per-tile cycle counts from dataflow-specific formulas
(Figure 3 of the paper).  The resulting :class:`GemmStats` carries
everything downstream consumers need: compute cycles, MAC counts
(→ FLOPS utilization, Figures 7/15) and SRAM traffic (→ energy model).

Two accounting paths coexist:

* the **closed-form path** (:meth:`GemmEngine.gemm_stats`) derives phase
  counts analytically from the ``(m, k, n)`` chunk decomposition.  A
  tile grid has at most four distinct tile shapes (full x full,
  full x remainder, remainder x full, remainder x remainder), so cycles
  and traffic reduce to NumPy-batched per-class arithmetic plus a small
  enumeration of adjacent-tile pair classes — no per-tile Python loop.
  Results are memoized per ``(engine-config, gemm-dims)`` in an
  explicit bounded LRU shared by all engine instances;
* the **reference path** (:meth:`GemmEngine.gemm_stats_reference`)
  materializes every tile and loops over it in Python.  It is the
  oracle the closed-form path is tested against, and the fallback for
  subclasses that do not describe their tiling as a grid.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from dataclasses import dataclass, replace

from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.workloads.gemms import Gemm


def chunk_sizes(total: int, size: int) -> list[int]:
    """Split ``total`` into chunks of at most ``size`` (last may be short)."""
    if total <= 0 or size <= 0:
        raise ValueError(f"chunk_sizes requires positive args, got {total}, {size}")
    full, rem = divmod(total, size)
    return [size] * full + ([rem] if rem else [])


@dataclass(frozen=True)
class ChunkSpec:
    """Closed-form counterpart of :func:`chunk_sizes`.

    ``full_count`` chunks of ``full_size`` followed by one optional
    ``remainder`` chunk (0 means the dimension divides evenly).
    """

    full_size: int
    full_count: int
    remainder: int

    @property
    def count(self) -> int:
        """Number of chunks."""
        return self.full_count + (1 if self.remainder else 0)

    @property
    def total(self) -> int:
        """The decomposed dimension."""
        return self.full_size * self.full_count + self.remainder

    def entries(self) -> list[tuple[int, int]]:
        """Distinct ``(chunk_size, multiplicity)`` pairs, full first."""
        out = []
        if self.full_count:
            out.append((self.full_size, self.full_count))
        if self.remainder:
            out.append((self.remainder, 1))
        return out


def chunk_spec(total: int, size: int) -> ChunkSpec:
    """Closed-form chunk decomposition of ``total`` into ``size`` chunks."""
    if total <= 0 or size <= 0:
        raise ValueError(f"chunk_spec requires positive args, got {total}, {size}")
    full, rem = divmod(total, size)
    return ChunkSpec(full_size=size, full_count=full, remainder=rem)


@dataclass(frozen=True)
class TileGrid:
    """Row-major tile decomposition of one GEMM onto the PE array.

    ``outer`` chunks index grid rows (the slower-varying loop of
    :meth:`GemmEngine.tiles`), ``inner`` chunks index columns.
    """

    outer: ChunkSpec
    inner: ChunkSpec

    @property
    def tile_count(self) -> int:
        return self.outer.count * self.inner.count


def _grid_pair_classes(grid: TileGrid) -> list[tuple[int, int, int]]:
    """Adjacent-tile shape-class pairs ``(from, to, count)`` in row-major order.

    Shape classes are indexed ``outer_entry * n_inner_entries +
    inner_entry`` with entries ordered full-before-remainder (matching
    :meth:`ChunkSpec.entries`).  The counts enumerate every consecutive
    tile pair: within-row neighbours plus the last-column→first-column
    boundary between consecutive rows; they always sum to
    ``tile_count - 1``.
    """
    n_inner = len(grid.inner.entries())
    inner_full = grid.inner.full_count
    outer_full = grid.outer.full_count
    pairs: list[tuple[int, int, int]] = []
    # Within-row neighbours, replicated over every row of each outer kind.
    for outer_idx, (_, rows) in enumerate(grid.outer.entries()):
        base = outer_idx * n_inner
        if inner_full >= 2:
            pairs.append((base, base, rows * (inner_full - 1)))
        if grid.inner.remainder and inner_full >= 1:
            pairs.append((base, base + n_inner - 1, rows))
    # Row-to-row boundaries: last column of one row → first of the next.
    last_col = n_inner - 1
    if outer_full >= 2:
        pairs.append((last_col, 0, outer_full - 1))
    if grid.outer.remainder and outer_full >= 1:
        rem_base = (len(grid.outer.entries()) - 1) * n_inner
        pairs.append((last_col, rem_base, 1))
    return pairs


@dataclass(frozen=True)
class ArrayConfig:
    """Physical parameters of a 2D PE array (Table II defaults).

    Attributes
    ----------
    height, width:
        PE array dimensions (PE_H, PE_W); 128x128 like Google TPUv3.
    frequency_hz:
        Operating frequency (940 MHz, Table II).
    fill_rows_per_cycle:
        RHS-matrix rows latched per clock during WS weight fill
        (8 rows/clock, Table I).
    drain_rows_per_cycle:
        Output rows drained per clock from an output-stationary array
        (R = 8, Section IV-C).
    input_bytes / acc_bytes:
        Operand (BF16) and accumulator (FP32) widths (Table I footnote).
    weight_double_buffer:
        WS arrays overlap the next tile's weight fill with the current
        stream (TPU weight-prefetch patents cited in Section V).
    accum_double_buffer:
        OS/outer-product arrays overlap output drain with the next
        tile's accumulation.
    tile_startup_cycles:
        Fixed per-tile control overhead (address generation, issue).
    gemm_startup_cycles:
        Fixed per-GEMM overhead (descriptor decode, DMA kick-off).
    """

    height: int = 128
    width: int = 128
    frequency_hz: float = 940e6
    fill_rows_per_cycle: int = 8
    drain_rows_per_cycle: int = 8
    input_bytes: int = 2
    acc_bytes: int = 4
    weight_double_buffer: bool = True
    accum_double_buffer: bool = True
    tile_startup_cycles: int = 2
    gemm_startup_cycles: int = 16

    def __post_init__(self) -> None:
        for name in ("height", "width", "fill_rows_per_cycle",
                     "drain_rows_per_cycle"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def peak_macs_per_cycle(self) -> int:
        """Maximum MACs the array can retire per clock."""
        return self.height * self.width

    @property
    def peak_flops(self) -> float:
        """Peak FLOP/s (2 FLOPs per MAC)."""
        return 2.0 * self.peak_macs_per_cycle * self.frequency_hz


@dataclass(frozen=True)
class GemmStats:
    """Execution statistics of one (possibly batched) GEMM on an engine.

    All figures cover every one of ``gemm.count`` independent GEMMs.
    """

    gemm: Gemm
    engine: str
    compute_cycles: int
    macs: int
    peak_macs_per_cycle: int
    tiles: int
    sram_read_bytes: int
    sram_write_bytes: int

    @property
    def utilization(self) -> float:
        """Effective FLOPS utilization, as plotted in Figures 7 and 15."""
        if self.compute_cycles == 0:
            return 0.0
        return self.macs / (self.compute_cycles * self.peak_macs_per_cycle)

    def __add__(self, other: "GemmStats") -> "GemmStats":
        if self.peak_macs_per_cycle != other.peak_macs_per_cycle:
            raise ValueError("cannot merge stats from different arrays")
        return GemmStats(
            gemm=self.gemm,
            engine=self.engine,
            compute_cycles=self.compute_cycles + other.compute_cycles,
            macs=self.macs + other.macs,
            peak_macs_per_cycle=self.peak_macs_per_cycle,
            tiles=self.tiles + other.tiles,
            sram_read_bytes=self.sram_read_bytes + other.sram_read_bytes,
            sram_write_bytes=self.sram_write_bytes + other.sram_write_bytes,
        )


@dataclass(frozen=True)
class TileShape:
    """One tile of a GEMM mapped onto the array."""

    m: int
    k: int
    n: int


#: Upper bound on memoized :class:`GemmStats` entries (LRU eviction).
GEMM_STATS_CACHE_MAXSIZE = 4096

#: Shared bounded LRU keyed by ``(engine key, m, k, n, count)``.  Shared
#: across engine instances so freshly built accelerators (the experiment
#: harness rebuilds them liberally) reuse previously computed stats.
_GEMM_STATS_CACHE: "OrderedDict[tuple, GemmStats]" = OrderedDict()


def clear_gemm_stats_cache() -> None:
    """Drop every memoized :class:`GemmStats` (mainly for benchmarks)."""
    _GEMM_STATS_CACHE.clear()


def gemm_stats_cache_len() -> int:
    """Current number of memoized entries."""
    return len(_GEMM_STATS_CACHE)


class GemmEngine(abc.ABC):
    """Abstract GEMM engine with dataflow-specific tiling and cycles."""

    #: Human-readable engine name used in reports ("WS", "OS", "DiVa").
    name: str = "abstract"
    #: Dataflow family: "weight_stationary" or "output_stationary".
    dataflow: str = "abstract"
    #: Which GEMM dims :meth:`tile_grid` chunks onto the PE grid, as
    #: ``(rows_axis, cols_axis)`` names in {"m", "k", "n"} — rows chunk
    #: by ``height``, columns by ``width``.  ``None`` means the engine
    #: has no declarative grid and the batched evaluator
    #: (:func:`repro.arch.batch.gemm_stats_batch`) falls back to a
    #: scalar loop.  Must agree with :meth:`tile_grid`.
    grid_axes: tuple[str, str] | None = None

    def __init__(self, config: ArrayConfig | None = None) -> None:
        self.config = config or ArrayConfig()

    # -- dataflow-specific hooks -------------------------------------------
    @abc.abstractmethod
    def tiles(self, gemm: Gemm) -> list[TileShape]:
        """Decompose a single GEMM (count ignored) into array tiles."""

    @abc.abstractmethod
    def tile_cycle_phases(self, tile: TileShape) -> tuple[int, int]:
        """Return ``(setup_or_drain_cycles, main_cycles)`` for one tile.

        For WS the first element is the weight-fill time; for OS and
        outer-product it is the output-drain time.  The two phases can
        overlap across consecutive tiles when the corresponding
        double-buffer option is enabled.
        """

    @abc.abstractmethod
    def tile_sram_traffic(self, tile: TileShape) -> tuple[int, int]:
        """Return ``(read_bytes, write_bytes)`` of SRAM traffic per tile."""

    # -- closed-form hooks ---------------------------------------------------
    def tile_grid(self, gemm: Gemm) -> TileGrid | None:
        """Describe :meth:`tiles` as a row-major chunk grid, or ``None``.

        Engines that return a grid get the analytic fast path; returning
        ``None`` routes everything through the per-tile reference.
        """
        return None

    def grid_tile_dims(
        self, gemm: Gemm, outer_sizes: NDArray[Any], inner_sizes: NDArray[Any],
    ) -> tuple[NDArray[Any], NDArray[Any], NDArray[Any]]:
        """Map chunk-size arrays to ``(m, k, n)`` tile-dimension arrays."""
        raise NotImplementedError

    def tile_phases_batch(
        self, m: NDArray[Any], k: NDArray[Any], n: NDArray[Any],
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Vectorized :meth:`tile_cycle_phases` over tile-dim arrays."""
        raise NotImplementedError

    def tile_traffic_batch(
        self, m: NDArray[Any], k: NDArray[Any], n: NDArray[Any],
    ) -> tuple[NDArray[Any], NDArray[Any]]:
        """Vectorized :meth:`tile_sram_traffic` over tile-dim arrays."""
        raise NotImplementedError

    def packing_factors_batch(
        self, m: NDArray[Any], n: NDArray[Any], count: NDArray[Any],
    ) -> NDArray[Any]:
        """Instances of each GEMM batch that run concurrently.

        One by default: the ``count`` instances run back to back.
        Engines that co-locate instances on disjoint array sectors
        override this.
        """
        return np.ones_like(count)

    # -- shared machinery ----------------------------------------------------
    def _overlapped(self) -> bool:
        if self.dataflow == "weight_stationary":
            return self.config.weight_double_buffer
        return self.config.accum_double_buffer

    def _closed_form(self, gemm: Gemm) -> tuple[int, int, int, int] | None:
        """``(cycles, tiles, read_bytes, write_bytes)`` for one instance.

        Evaluates the dataflow hooks once per distinct tile shape class
        (at most four) and scales by analytically derived class counts;
        the overlapped-pipeline sum over consecutive tiles reduces to
        the pair classes of :func:`_grid_pair_classes`.
        """
        grid = self.tile_grid(gemm)
        if grid is None:
            return None
        outer_entries = grid.outer.entries()
        inner_entries = grid.inner.entries()
        n_inner = len(inner_entries)
        outer_sizes = np.repeat(
            np.array([size for size, _ in outer_entries], dtype=np.int64),
            n_inner)
        inner_sizes = np.tile(
            np.array([size for size, _ in inner_entries], dtype=np.int64),
            len(outer_entries))
        counts = np.repeat(
            np.array([mult for _, mult in outer_entries], dtype=np.int64),
            n_inner,
        ) * np.tile(
            np.array([mult for _, mult in inner_entries], dtype=np.int64),
            len(outer_entries))

        m, k, n = self.grid_tile_dims(gemm, outer_sizes, inner_sizes)
        overlap, main = self.tile_phases_batch(m, k, n)
        reads, writes = self.tile_traffic_batch(m, k, n)

        tiles = int(counts.sum())
        read_bytes = int((counts * reads).sum())
        write_bytes = int((counts * writes).sum())
        fixed = (self.config.gemm_startup_cycles
                 + tiles * self.config.tile_startup_cycles)
        if not self._overlapped():
            cycles = fixed + int((counts * (overlap + main)).sum())
            return cycles, tiles, read_bytes, write_bytes

        pairs = _grid_pair_classes(grid)
        src = np.array([a for a, _, _ in pairs], dtype=np.intp)
        dst = np.array([b for _, b, _ in pairs], dtype=np.intp)
        mult = np.array([c for _, _, c in pairs], dtype=np.int64)
        if self.dataflow == "weight_stationary":
            # Fill precedes the stream: tile i+1's fill hides behind
            # tile i's stream; the first fill is exposed.
            boundary = int(overlap[0] + main[-1])
            pair_terms = np.maximum(main[src], overlap[dst])
        else:
            # Drain follows the main phase: tile i's drain hides behind
            # tile i+1's main phase; the last drain is exposed.
            boundary = int(main[0] + overlap[-1])
            pair_terms = np.maximum(overlap[src], main[dst])
        cycles = fixed + boundary + int((mult * pair_terms).sum())
        return cycles, tiles, read_bytes, write_bytes

    def single_gemm_cycles(self, gemm: Gemm) -> tuple[int, int]:
        """Cycles and tile count for one GEMM instance (count ignored)."""
        closed = self._closed_form(gemm)
        if closed is None:
            return self.single_gemm_cycles_reference(gemm)
        return closed[0], closed[1]

    def single_gemm_cycles_reference(self, gemm: Gemm) -> tuple[int, int]:
        """Per-tile-loop oracle for :meth:`single_gemm_cycles`.

        In the overlapped regime each tile's fill/drain phase is paired
        with the *neighbouring* tile's main phase; exactly one boundary
        instance of each phase kind is exposed.
        """
        phases = [self.tile_cycle_phases(t) for t in self.tiles(gemm)]
        fixed = (self.config.gemm_startup_cycles
                 + len(phases) * self.config.tile_startup_cycles)
        if not self._overlapped():
            return fixed + sum(o + m for o, m in phases), len(phases)
        if self.dataflow == "weight_stationary":
            cycles = phases[0][0] + phases[-1][1] + sum(
                max(phases[i][1], phases[i + 1][0])
                for i in range(len(phases) - 1))
        else:
            cycles = phases[0][1] + phases[-1][0] + sum(
                max(phases[i][0], phases[i + 1][1])
                for i in range(len(phases) - 1))
        return fixed + cycles, len(phases)

    def _cache_key(self) -> tuple[object, ...]:
        """Hashable identity of this engine's cycle model."""
        return (type(self).__qualname__, self.config)

    def gemm_stats(self, gemm: Gemm) -> GemmStats:
        """Execute ``gemm`` (all ``count`` instances, sequentially).

        Memoized in a bounded shared LRU; stats depend only on the GEMM
        dimensions, so entries are keyed by ``(m, k, n, count)`` and
        re-tagged with the caller's ``gemm`` (kind/layer) on a hit.
        """
        key = (self._cache_key(), gemm.m, gemm.k, gemm.n, gemm.count)
        cached = _GEMM_STATS_CACHE.get(key)
        if cached is not None:
            _GEMM_STATS_CACHE.move_to_end(key)
            if cached.gemm == gemm:
                return cached
            return replace(cached, gemm=gemm)
        stats = self._compute_gemm_stats(gemm)
        _GEMM_STATS_CACHE[key] = stats
        if len(_GEMM_STATS_CACHE) > GEMM_STATS_CACHE_MAXSIZE:
            _GEMM_STATS_CACHE.popitem(last=False)
        return stats

    def _compute_gemm_stats(self, gemm: Gemm) -> GemmStats:
        """Uncached closed-form stats (reference fallback without a grid)."""
        closed = self._closed_form(gemm)
        if closed is None:
            return self.gemm_stats_reference(gemm)
        cycles, tiles, reads, writes = closed
        return GemmStats(
            gemm=gemm,
            engine=self.name,
            compute_cycles=cycles * gemm.count,
            macs=gemm.macs,
            peak_macs_per_cycle=self.config.peak_macs_per_cycle,
            tiles=tiles * gemm.count,
            sram_read_bytes=reads * gemm.count,
            sram_write_bytes=writes * gemm.count,
        )

    def gemm_stats_reference(self, gemm: Gemm) -> GemmStats:
        """Per-tile-loop oracle for :meth:`gemm_stats` (never cached)."""
        cycles, tiles = self.single_gemm_cycles_reference(gemm)
        reads = writes = 0
        for tile in self.tiles(gemm):
            r, w = self.tile_sram_traffic(tile)
            reads += r
            writes += w
        return GemmStats(
            gemm=gemm,
            engine=self.name,
            compute_cycles=cycles * gemm.count,
            macs=gemm.macs,
            peak_macs_per_cycle=self.config.peak_macs_per_cycle,
            tiles=tiles * gemm.count,
            sram_read_bytes=reads * gemm.count,
            sram_write_bytes=writes * gemm.count,
        )

    def utilization(self, gemm: Gemm) -> float:
        """FLOPS utilization for ``gemm`` on this engine."""
        return self.gemm_stats(gemm).utilization

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cfg = self.config
        return f"{type(self).__name__}({cfg.height}x{cfg.width}@{cfg.frequency_hz/1e6:.0f}MHz)"
