"""Content-addressed cache of experiment cell results.

A cell's fingerprint (see :meth:`repro.experiments.spec.ExperimentSpec.
fingerprint_of`) covers everything that determines its outcome: the
experiment name, the serialised workload context, the cell parameters
and the package version.  The cache therefore needs no invalidation
protocol — a changed input simply addresses a different entry, and
stale entries are garbage that never gets read.

Entries live in a directory tree, one JSON file per fingerprint under
``<root>/<fp[:2]>/<fp>.json`` (the two-level fan-out keeps directories
small).  Writes are atomic — a temp file plus :func:`os.replace` — so a
killed run never leaves a half-written entry behind, which is what
makes interrupted sweeps resumable (``--resume``): completed cells are
already durable, and the engine simply skips their fingerprints on the
next run.  Temp names carry the pid *and* a per-process counter, so
concurrent threads of one process can never collide on one temp file.

Reads are defensive: an unreadable, unparsable or schema-mismatched
entry counts as ``corrupt`` and is treated as a miss — the engine
recomputes the cell and overwrites the entry; corruption (including a
crash mid-``put`` under a non-atomic filesystem) can never crash or
poison a run.

Beyond ``get``/``put``, the cache exposes maintenance primitives for
the ``repro cache`` CLI verb: :meth:`CellCache.verify` (scan for
corrupt entries), :meth:`CellCache.prune` (age-based eviction that
never touches a protected fingerprint set) and :meth:`CellCache.gc`
(drop corrupt entries and stray temp files).
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Collection, Dict, List, Optional, Tuple, Union

#: Schema version of one cache entry; bumped on incompatible layout
#: changes so old trees read as corrupt (→ recompute), not as garbage.
#: v2: wall-clock measurements moved from ``values`` into a separate
#: non-canonical ``timing`` section (replaying a v1 ``runtime`` entry
#: against the v2 reducers would lose the timings silently).
ENTRY_VERSION = 2

#: Keys every well-formed entry must carry.
_REQUIRED_KEYS = ("entry_version", "fingerprint", "experiment", "key", "values")

#: Per-process counter folded into temp-file names; CPython's
#: ``itertools.count`` advances under the GIL, so concurrent threads
#: always draw distinct suffixes.
_TMP_COUNTER = itertools.count()


@dataclass
class CacheStats:
    """Lookup/write outcomes accumulated over a cache's lifetime."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    puts: int = 0


class CellCache:
    """Directory-backed store of :class:`CellResult` payloads.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first write).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def describe(self) -> str:
        """The ``dir:<root>`` description artifacts record."""
        return f"dir:{self.root}"

    def path_for(self, fp: str) -> Path:
        """On-disk location of one fingerprint's entry."""
        return self.root / fp[:2] / f"{fp}.json"

    def _load(self, fp: str) -> Any:
        """The parsed entry, ``None`` when absent; raises ``ValueError``
        (or ``OSError``) when the file is unreadable or not JSON."""
        try:
            text = self.path_for(fp).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        return json.loads(text)

    def get(self, fp: str) -> Optional[Dict[str, Any]]:
        """The entry payload for a fingerprint, or ``None`` on miss.

        Corrupted entries (unreadable storage, invalid JSON, missing
        schema keys, version or fingerprint mismatch) are counted on
        ``stats.corrupt`` and reported as a miss — never raised.
        """
        try:
            payload = self._load(fp)
        except (OSError, ValueError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        if payload is None:
            self.stats.misses += 1
            return None
        if not self._well_formed(payload, fp):
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def put(self, fp: str, payload: Dict[str, Any]) -> Path:
        """Atomically persist one entry; returns its storage location."""
        entry = dict(payload)
        entry["entry_version"] = ENTRY_VERSION
        entry["fingerprint"] = fp
        path = self.path_for(fp)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}-{next(_TMP_COUNTER)}")
        tmp.write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
        self.stats.puts += 1
        return path

    def contains(self, fp: str) -> bool:
        """Whether an entry exists (no validation, no stats impact)."""
        return self.path_for(fp).exists()

    def fingerprints(self) -> List[str]:
        """Every stored fingerprint, sorted."""
        if not self.root.is_dir():
            return []
        return [
            entry.stem
            for shard in sorted(self.root.iterdir())
            if shard.is_dir()
            for entry in sorted(shard.glob("*.json"))
        ]

    def mtime(self, fp: str) -> Optional[float]:
        """Last-write POSIX timestamp of one entry, or ``None``."""
        try:
            return self.path_for(fp).stat().st_mtime
        except OSError:
            return None

    def remove(self, fp: str) -> bool:
        """Delete one entry; returns whether it existed."""
        try:
            self.path_for(fp).unlink()
        except FileNotFoundError:
            return False
        return True

    def size_bytes(self) -> int:
        """On-disk footprint of the tree (entries and temp files)."""
        if not self.root.is_dir():
            return 0
        return sum(
            p.stat().st_size for p in sorted(self.root.rglob("*")) if p.is_file()
        )

    def tmp_garbage(self) -> List[Path]:
        """Leftover temp files from killed writers."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json.tmp*"))

    def verify(self) -> Tuple[int, List[str]]:
        """Scan every entry; returns ``(checked, corrupt_fingerprints)``.

        Unlike :meth:`get`, verification leaves ``stats`` untouched —
        it inspects, it does not consume.
        """
        corrupt: List[str] = []
        checked = 0
        for fp in self.fingerprints():
            checked += 1
            try:
                payload = self._load(fp)
            except (OSError, ValueError):
                corrupt.append(fp)
                continue
            if not self._well_formed(payload, fp):
                corrupt.append(fp)
        return checked, corrupt

    def prune(
        self,
        older_than_seconds: Optional[float] = None,
        keep: Collection[str] = (),
    ) -> List[str]:
        """Evict entries by age; returns the removed fingerprints.

        ``older_than_seconds=None`` removes every unprotected entry.
        Fingerprints in ``keep`` (e.g. a live sweep's fingerprint set,
        or the cells of a published artifact) are never touched,
        whatever their age.
        """
        cutoff = (
            None if older_than_seconds is None else time.time() - older_than_seconds
        )
        protected = set(keep)
        removed: List[str] = []
        for fp in self.fingerprints():
            if fp in protected:
                continue
            if cutoff is not None:
                mtime = self.mtime(fp)
                if mtime is not None and mtime >= cutoff:
                    continue
            if self.remove(fp):
                removed.append(fp)
        return removed

    def gc(self) -> Dict[str, int]:
        """Drop corrupt entries and stray temp files; returns counts."""
        _checked, corrupt = self.verify()
        for fp in corrupt:
            self.remove(fp)
        tmp_files = self.tmp_garbage()
        for tmp in tmp_files:
            try:
                tmp.unlink()
            except FileNotFoundError:
                pass
        return {"corrupt_removed": len(corrupt), "tmp_removed": len(tmp_files)}

    @staticmethod
    def _well_formed(payload: Any, fp: str) -> bool:
        if not isinstance(payload, dict):
            return False
        if any(key not in payload for key in _REQUIRED_KEYS):
            return False
        if payload["entry_version"] != ENTRY_VERSION:
            return False
        if payload["fingerprint"] != fp:
            return False
        return isinstance(payload["values"], dict)


def resolve_cache(cache: Union[None, str, Path, CellCache]) -> Optional[CellCache]:
    """Normalise the engine's ``cache`` argument: ``None`` (caching
    off), a ready :class:`CellCache`, or a cache directory path."""
    if cache is None or isinstance(cache, CellCache):
        return cache
    return CellCache(cache)
