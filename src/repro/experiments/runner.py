"""Experiment runner: persisted JSON caching around batched evaluators.

Every experiment runs in-process.  The analytic sweeps hand a whole
grid to the batched NumPy engines, which price it in a few broadcast
passes; this module decides which points still need pricing and
persists the results.

API
---
``cached_batch(batch_fn, items, *, key_fn, cache=None)``
    Per-item persistent memoization around one batched evaluator: one
    ``get_many`` lookup pass per grid, one batched evaluation of the
    missing items (``batch_fn`` gets the list, returns the values in
    order), one ``put_many`` write batch with a single fsync.  The
    ``scaling`` and ``design-space`` experiments and the serving
    scheduler's service-time table route through this.
``config_hash(obj)``
    Stable short SHA-256 of a canonical JSON rendering of ``obj``
    (dataclasses, enums, tuples and mappings are normalized first).
``ResultCache(root)``
    The JSON file store: one ``<hash>.json`` per entry under ``root``,
    written atomically, carrying both the key and the value so entries
    stay debuggable.

``REPRO_CACHE_DIR`` enables persisted result caching under that
directory for callers that do not pass an explicit :class:`ResultCache`.

Stale-entry policy: a cache entry's hash covers every input the caller
puts into the key — sweep parameters plus the relevant architecture
config — so changing any knob produces a fresh entry.  Code changes are
*not* hashed; delete the cache directory (or pass a versioned key) when
the models themselves change.

Example
-------
Persist one JSON entry per design point, so growing a sweep recomputes
only the new combinations (this is how ``design-space`` and ``scaling``
drive their CLI ``--cache-dir``)::

    cache = runner.ResultCache(".repro_cache")
    rows = runner.cached_batch(
        evaluate_points_batched, work, cache=cache,
        key_fn=lambda point: {"experiment": "design_space",
                              "model": point[0], "height": point[1],
                              "width": point[2]})
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import tempfile
from contextlib import nullcontext
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, ContextManager, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import Profiler


@dataclass
class CacheStats:
    """Outcome tally of one (or several) cached lookup passes.

    ``hits`` loaded a stored value, ``misses`` found no entry, and
    ``stale`` found an entry that could not be used (unreadable file,
    corrupt JSON, or a payload without a value) — stale entries are
    recomputed exactly like misses, the distinction only matters for
    reporting.  Pass one instance through several :func:`cached_batch`
    calls to accumulate.
    """

    hits: int = 0
    misses: int = 0
    stale: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses + self.stale

    def record(self, status: str) -> None:
        """Count one lookup outcome (``"hit"``/``"miss"``/``"stale"``)."""
        if status == "hit":
            self.hits += 1
        elif status == "miss":
            self.misses += 1
        elif status == "stale":
            self.stale += 1
        else:
            raise ValueError(f"unknown cache lookup status {status!r}")

    def render(self) -> str:
        """One CLI-ready summary line."""
        return (f"cache: {self.hits} hits, {self.misses} misses, "
                f"{self.stale} stale")


def _stage(profiler: "Profiler | None", name: str) -> ContextManager:
    """``profiler.stage(name)``, or a no-op when profiling is off."""
    if profiler is None:
        return nullcontext()
    return profiler.stage(name)


def _jsonable(obj: Any) -> Any:
    """Normalize ``obj`` into a canonical JSON-serializable structure."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__qualname__,
                **{key: _jsonable(value)
                   for key, value in asdict(obj).items()}}
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if isinstance(obj, dict):
        return {str(key): _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) \
            else obj
        return [_jsonable(value) for value in items]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def config_hash(obj: Any) -> str:
    """Stable 16-hex-digit hash of a configuration object."""
    payload = json.dumps(_jsonable(obj), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class ResultCache:
    """One-JSON-file-per-entry result store keyed by config hash."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path(self, key_hash: str) -> Path:
        return self.root / f"{key_hash}.json"

    def lookup(self, key_hash: str) -> tuple[Any | None, str]:
        """``(value, status)`` for one entry.

        Status is ``"hit"`` (value loaded), ``"miss"`` (no entry on
        disk), or ``"stale"`` (an entry exists but is unusable:
        unreadable file, corrupt JSON, or a payload carrying no value).
        Stale entries behave like misses — the caller recomputes and
        overwrites them — but are tallied separately by
        :class:`CacheStats`.
        """
        try:
            text = self.path(key_hash).read_text()
        except FileNotFoundError:
            return None, "miss"
        except OSError:
            return None, "stale"
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return None, "stale"
        value = payload.get("value") if isinstance(payload, dict) else None
        if value is None:
            return None, "stale"
        return value, "hit"

    def get(self, key_hash: str) -> Any | None:
        """Stored value for ``key_hash``, or None (missing/corrupt)."""
        return self.lookup(key_hash)[0]

    def get_many(self, key_hashes: Iterable[str], *,
                 stats: CacheStats | None = None) -> list[Any | None]:
        """One :meth:`lookup` per hash, as a single batched lookup pass.

        The batched sweep paths resolve a whole grid's cache state up
        front through this (one call per grid, not one per point), so
        misses can be computed together in one vectorized evaluation.
        ``stats`` tallies hit/miss/stale outcomes when given.
        """
        values = []
        for key_hash in key_hashes:
            value, status = self.lookup(key_hash)
            if stats is not None:
                stats.record(status)
            values.append(value)
        return values

    def _publish(self, key_hash: str, key: Any, value: Any,
                 fsync_file: bool) -> None:
        """Write one entry via temp-file + ``os.replace``.

        The temp file lives *in the cache directory* (same filesystem,
        so the rename cannot degrade to copy+delete); a reader can
        observe the old entry or the new one, never torn JSON.
        ``fsync_file`` controls whether the payload is flushed to disk
        before publishing — the durability knob :meth:`put` and
        :meth:`put_many` differ on.
        """
        payload = json.dumps({"key": _jsonable(key), "value": value},
                             indent=2, sort_keys=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
                if fsync_file:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, self.path(key_hash))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def put(self, key_hash: str, key: Any, value: Any) -> None:
        """Atomically persist ``value`` (and its key, for debuggability).

        Several processes sharing one cache directory may hammer the
        same entry: the payload is flushed and fsynced, then published
        with ``os.replace`` — the torn-read guarantee of
        :meth:`_publish`.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        self._publish(key_hash, key, value, fsync_file=True)

    def put_many(
        self, entries: Iterable[tuple[str, Any, Any]],
    ) -> None:
        """Persist ``(key_hash, key, value)`` entries, one fsync per batch.

        Each entry still goes through :meth:`_publish` (temp file +
        ``os.replace``), so readers keep :meth:`put`'s torn-read
        guarantee — old entry or new entry, never torn JSON.  What is
        amortized is *durability*: instead of fsyncing every file, the
        batch issues a single directory fsync at the end — a crash can
        lose the latest batch of entries (the cache would simply
        recompute them) but can never surface a corrupt one.  The
        batched sweep paths write a whole grid through this.
        """
        batch = list(entries)
        if not batch:
            return
        self.root.mkdir(parents=True, exist_ok=True)
        for key_hash, key, value in batch:
            self._publish(key_hash, key, value, fsync_file=False)
        dir_fd = os.open(self.root, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        except OSError:
            pass  # some filesystems refuse directory fsync; best effort
        finally:
            os.close(dir_fd)


def default_cache() -> ResultCache | None:
    """The ``REPRO_CACHE_DIR`` cache, or None when caching is disabled."""
    root = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return ResultCache(root) if root else None


def cached_batch(
    batch_fn: Callable[[list], list],
    items: Iterable,
    *,
    key_fn: Callable[[Any], Any],
    cache: ResultCache | None = None,
    stats: CacheStats | None = None,
    profiler: "Profiler | None" = None,
) -> list:
    """Per-item persistent memoization around one *batched* evaluator.

    ``batch_fn`` receives the list of cache-missing items in input
    order and must return their (JSON-serializable) values in the same
    order — the batched NumPy engines evaluate the whole list in a few
    broadcast passes.  Cache lookups happen in one :meth:`ResultCache.get_many`
    pass per grid and new results land through one
    :meth:`ResultCache.put_many` batch (single fsync).  ``stats``
    tallies hit/miss/stale lookup outcomes; ``profiler`` times the
    lookup/compute/write stages and counts batch sizes.
    """
    work = list(items)
    if profiler is not None:
        profiler.count("batch_items", len(work))
    if cache is None:
        cache = default_cache()
    if cache is None:
        with _stage(profiler, "cache/compute"):
            return batch_fn(work)
    with _stage(profiler, "cache/lookup"):
        keys = [key_fn(item) for item in work]
        hashes = [config_hash(key) for key in keys]
        results = cache.get_many(hashes, stats=stats)
    missing = [i for i, value in enumerate(results) if value is None]
    if profiler is not None:
        profiler.count("cache_hits", len(work) - len(missing))
        profiler.count("cache_misses", len(missing))
    with _stage(profiler, "cache/compute"):
        computed = batch_fn([work[i] for i in missing])
    if len(computed) != len(missing):
        raise ValueError(
            f"batch_fn returned {len(computed)} values for "
            f"{len(missing)} items")
    with _stage(profiler, "cache/write"):
        cache.put_many((hashes[i], keys[i], value)
                       for i, value in zip(missing, computed))
    for index, value in zip(missing, computed):
        results[index] = value
    return results
