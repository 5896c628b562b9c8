"""On-disk content-addressed cache of sweep point results.

Every completed point is stored under a key derived from *everything
that determines its result*: the point identity (size, layout, height,
block mode), the fully-resolved system configuration it ran under, the
request budget, and a code-version salt.  Repeated and incremental
sweeps then skip already-simulated points; changing any input -- or
bumping :data:`CACHE_VERSION` when simulation semantics change -- moves
the key and naturally invalidates stale entries.

Entries are one JSON file each, sharded by key prefix
(``<root>/<k[:2]>/<k>.json``), written atomically (temp file +
``os.replace``) so concurrent sweeps sharing a cache directory can never
observe a torn entry.

Reads are verified, not trusted: every entry carries a content digest
of its result, and :meth:`ResultCache.get` checks the digest, the
embedded key and the schema before replaying.  A truncated, corrupt,
mis-keyed or bit-flipped entry counts as a miss, is deleted on the spot
(tallied in ``stats.healed``), and the subsequent ``put`` atomically
rewrites a good entry -- the cache heals itself instead of serving
garbage.  :meth:`ResultCache.scrub` runs the same verification over the
whole store offline.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import CacheCorruptionError
from repro.obs.logging import get_logger
from repro.serialization import stable_digest

#: Bump when the simulator or result schema changes meaning; every bump
#: invalidates all previously cached points at once.  v2 added per-entry
#: result digests (verified on every read).  v3: the timing loop moved
#: to an integer-picosecond timebase (sub-femtosecond shifts in derived
#: floats), so entries cached by the float-ns simulator are stale.
CACHE_VERSION = "repro-sweep-cache/v3"


@dataclass
class CacheStats:
    """Hit/miss accounting for one sweep run."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0
    #: Corrupt entries deleted so a later ``put`` can rewrite them.
    healed: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict snapshot (JSON-ready)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
            "healed": self.healed,
        }


@dataclass
class ResultCache:
    """A content-addressed store of point results under one directory."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # ------------------------------------------------------------------ keys
    @staticmethod
    def key_for(payload: dict[str, Any]) -> str:
        """Content address of a point payload (stable across processes).

        ``payload`` must be JSON-native and carry the point's full
        identity -- the runner passes ``{point, config, max_requests}``.
        The version salt is folded in here so a semantics bump rekeys
        everything.
        """
        return stable_digest({"version": CACHE_VERSION, "payload": payload})

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    # ---------------------------------------------------------- verification
    @staticmethod
    def _verify(path: Path, key: str | None, document: Any) -> dict[str, Any]:
        """Validate one loaded entry; the verified result dict on success.

        Raises :class:`~repro.errors.CacheCorruptionError` describing the
        first check that failed: schema shape, version, embedded key
        (when ``key`` is given) or result digest.
        """
        if not isinstance(document, dict):
            raise CacheCorruptionError(f"{path}: entry is not a JSON object")
        if document.get("version") != CACHE_VERSION:
            raise CacheCorruptionError(
                f"{path}: version {document.get('version')!r} != {CACHE_VERSION!r}"
            )
        result = document.get("result")
        if not isinstance(result, dict):
            raise CacheCorruptionError(f"{path}: 'result' is not a JSON object")
        if key is not None and document.get("key") != key:
            raise CacheCorruptionError(
                f"{path}: entry is mis-keyed "
                f"(stored under {document.get('key')!r}, expected {key!r})"
            )
        digest = document.get("digest")
        if digest != stable_digest(result):
            raise CacheCorruptionError(
                f"{path}: result digest mismatch (entry corrupt or tampered)"
            )
        return result

    def _heal(self, path: Path) -> None:
        """Remove a corrupt entry so the next ``put`` rewrites it cleanly."""
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone / permission race
            return
        self.stats.healed += 1
        get_logger("repro.sweep.cache").warning(
            "corrupt cache entry healed", path=str(path)
        )

    # ---------------------------------------------------------------- access
    def get(self, key: str) -> dict[str, Any] | None:
        """The verified cached result for ``key``, or ``None`` on a miss.

        Any read, decode or verification failure (torn file, foreign
        content, schema drift, digest or key mismatch) is treated as a
        miss: the bad entry is deleted (``stats.invalid`` and
        ``stats.healed`` are tallied) and the caller re-simulates, after
        which ``put`` atomically rewrites a good entry.
        """
        path = self.path_for(key)
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self.stats.invalid += 1
            self.stats.misses += 1
            self._heal(path)
            return None
        try:
            result = self._verify(path, key, document)
        except CacheCorruptionError:
            self.stats.invalid += 1
            self.stats.misses += 1
            self._heal(path)
            return None
        self.stats.hits += 1
        return result

    def put(self, key: str, payload: dict[str, Any], result: dict[str, Any]) -> None:
        """Store ``result`` under ``key``; the payload is kept for audit."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "version": CACHE_VERSION,
            "key": key,
            "digest": stable_digest(result),
            "payload": payload,
            "result": result,
        }
        # One temporary file per writing thread: two threads of a process
        # may store the same key at once (coalesced serve requests).
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, path)
        self.stats.stores += 1

    # ----------------------------------------------------------- maintenance
    def scrub(self) -> dict[str, int]:
        """Verify every entry on disk, deleting the ones that fail.

        Returns ``{"checked": ..., "healed": ...}``.  Useful after a
        crash or an rsync of a shared cache; ``get`` performs the same
        per-entry verification lazily.
        """
        checked = 0
        healed_before = self.stats.healed
        if self.root.is_dir():
            for path in sorted(self.root.glob("*/*.json")):
                checked += 1
                try:
                    document = json.loads(path.read_text(encoding="utf-8"))
                    self._verify(path, path.stem, document)
                except (OSError, json.JSONDecodeError, CacheCorruptionError):
                    self.stats.invalid += 1
                    self._heal(path)
        return {"checked": checked, "healed": self.stats.healed - healed_before}

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
