"""Content-addressed on-disk cache of simulation results.

Layout
------
One JSON document per design point, sharded by key prefix to keep
directories small::

    <cache_dir>/
        <kk>/                      # first two hex digits of the key
            <key>.json             # serialized SystemResult document

The key is ``sha256`` over a canonical JSON rendering of

* the full :class:`~repro.sim.runner.DesignPoint` field dict,
* the serialization :data:`~repro.exec.serialize.SCHEMA_VERSION`, and
* the :data:`CACHE_SALT` version salt.

Two points with equal fields therefore share one entry regardless of
which process produced it, and *any* change to a point parameter
changes the key.

Versioning salt
---------------
``CACHE_SALT`` names the simulator behaviour generation. Bump it
whenever a change to the simulator alters the numbers a design point
produces (timing model, policy behaviour, workload generation, …):
stale entries then simply stop matching and are re-simulated — no
manual cache invalidation step is needed. ``REPRO_CACHE_SALT`` in the
environment appends an extra user salt (useful for A/B-ing local
edits without clearing the cache).

Robustness
----------
Writes are atomic (temp file + ``os.replace``), so a killed run never
leaves a half-written entry behind. Reads treat *any* undecodable,
truncated, or schema-mismatched file as a miss (counted in
``counters.corrupt``), never as an error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile
from typing import Any

from ..obs.log import get_logger
from .env import env_str
from .serialize import SCHEMA_VERSION, result_from_dict, result_to_dict

log = get_logger(__name__)

#: Simulator behaviour generation. Bump on any change that alters the
#: numbers a DesignPoint produces.
CACHE_SALT = "mopac-sim-2"

#: Environment variable naming the cache directory. Unset = no disk cache.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: What reading a missing, truncated, corrupt or stale-schema entry raises.
UNREADABLE = (OSError, ValueError, KeyError, TypeError)


def effective_salt(salt: str = CACHE_SALT) -> str:
    """The configured salt plus the user salt from the env."""
    extra = env_str("REPRO_CACHE_SALT")
    if extra:
        salt = f"{salt}+{extra}"
    return salt


def default_cache_dir() -> pathlib.Path | None:
    """Directory named by ``REPRO_CACHE_DIR``, or ``None`` when unset."""
    path = env_str(CACHE_DIR_ENV)
    return pathlib.Path(path) if path else None


def point_key(point: Any, salt: str | None = None) -> str:
    """Stable content hash of a design point (hex sha256)."""
    payload = {
        "schema": SCHEMA_VERSION,
        "salt": effective_salt() if salt is None else salt,
        "point": dataclasses.asdict(point),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclasses.dataclass
class CacheCounters:
    """Observability counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, int]:
        return dict(hits=self.hits, misses=self.misses,
                    corrupt=self.corrupt, writes=self.writes)


class ResultCache:
    """Content-addressed result store rooted at ``directory``."""

    def __init__(self, directory: str | pathlib.Path,
                 salt: str | None = None):
        self.directory = pathlib.Path(directory)
        self.salt = effective_salt() if salt is None else salt
        self.counters = CacheCounters()

    def register_stats(self, registry, prefix: str = "exec.cache") -> None:
        """Expose the hit/miss/corrupt/write counters via an obs registry."""
        registry.register(prefix, self.counters.as_dict)

    def key(self, point: Any) -> str:
        """``point``'s entry key under this cache's salt."""
        return point_key(point, self.salt)

    def path_for(self, point: Any, key: str | None = None) -> pathlib.Path:
        return self._entry(key or self.key(point))

    def _entry(self, key: str) -> pathlib.Path:
        return self.directory / key[:2] / f"{key}.json"

    def load(self, key: str):
        """Decode the entry stored under ``key``; counts nothing.

        Raises ``FileNotFoundError`` when there is no entry, and one of
        :data:`UNREADABLE` when it cannot be read or is not a result of
        this schema. For re-reading results that were already resolved
        (the serve daemon's ``/result``), which must not count as
        lookups.
        """
        with open(self._entry(key), encoding="utf-8") as handle:
            data = json.load(handle)
        return result_from_dict(data)

    def get(self, point: Any, key: str | None = None):
        """Cached result for ``point``, or ``None`` (miss).

        ``key`` is ``point``'s :meth:`key`, when the caller has it.
        """
        key = key or self.key(point)
        try:
            result = self.load(key)
        except FileNotFoundError:
            self.counters.misses += 1
            return None
        except UNREADABLE as error:
            # Truncated/corrupt/stale-schema entries are misses, not
            # crashes; the entry is overwritten on the next put().
            log.warning("treating %s as a miss (%s: %s)", self._entry(key),
                        type(error).__name__, error)
            self.counters.corrupt += 1
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        return result

    def put(self, point: Any, result: Any,
            key: str | None = None) -> pathlib.Path:
        """Atomically persist ``result`` under ``point``'s key."""
        path = self.path_for(point, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(result_to_dict(result))
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(blob)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.counters.writes += 1
        return path

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.directory.is_dir():
            return 0
        for path in self.directory.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # -- maintenance -------------------------------------------------------
    def entries(self) -> list[tuple[float, int, pathlib.Path]]:
        """Every entry as ``(mtime, size_bytes, path)``, oldest first.

        Entries that vanish or cannot be statted mid-scan (a concurrent
        writer or GC) are skipped, never raised.
        """
        scanned: list[tuple[int, float, int, pathlib.Path]] = []
        if not self.directory.is_dir():
            return []
        for path in self.directory.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            # Sort on st_mtime_ns, not the float st_mtime: on coarse
            # filesystems same-second writes are exact float ties, and
            # even ns-distinct stamps can collide after the float
            # rounding — the path tie-break must then decide, and the
            # ns integer never loses ordering the float still had.
            scanned.append((stat.st_mtime_ns, stat.st_mtime,
                            stat.st_size, path))
        scanned.sort(key=lambda item: (item[0], str(item[3])))
        return [(mtime, size, path)
                for _, mtime, size, path in scanned]

    def size_bytes(self) -> int:
        """Total bytes held by cache entries."""
        return sum(size for _, size, _ in self.entries())

    def prune_plan(self, max_bytes: int
                   ) -> list[tuple[float, int, pathlib.Path]]:
        """What :meth:`prune` *would* evict, oldest-ns-mtime-first.

        Returns ``(mtime, size_bytes, path)`` tuples in eviction order
        — the exact candidates a real prune with the same ``max_bytes``
        starts unlinking (a concurrent writer can of course shift the
        picture between planning and pruning). Read-only: nothing is
        deleted.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        scanned = self.entries()
        total = sum(size for _, size, _ in scanned)
        plan: list[tuple[float, int, pathlib.Path]] = []
        freed = 0
        for mtime, size, path in scanned:
            if total - freed <= max_bytes:
                break
            plan.append((mtime, size, path))
            freed += size
        return plan

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Evict oldest entries until the cache holds <= ``max_bytes``.

        Eviction is strictly oldest-``mtime``-first (ties broken by
        path for determinism). Unreadable or corrupt entries need no
        special casing — eviction never parses the documents — and
        files already deleted by a concurrent process are counted as
        freed. Returns ``(entries_removed, bytes_freed)``.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        scanned = self.entries()
        total = sum(size for _, size, _ in scanned)
        removed = freed = 0
        for _, size, path in scanned:
            if total - freed <= max_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                pass
            except OSError as error:
                log.warning("could not evict %s (%s)", path, error)
                continue
            removed += 1
            freed += size
        return removed, freed


# ----------------------------------------------------------------------
# Maintenance CLI: ``python -m repro.exec.cache``
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """Inspect, prune, or clear the on-disk result cache."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.exec.cache",
        description="Result-cache maintenance: stats, size-bounded GC.")
    parser.add_argument("--dir", default=None,
                        help=f"cache directory (default: ${CACHE_DIR_ENV})")
    parser.add_argument("--prune-bytes", type=int, default=None,
                        metavar="N",
                        help="evict oldest entries until <= N bytes remain")
    parser.add_argument("--dry-run", action="store_true",
                        help="with --prune-bytes: print what would be "
                             "evicted (oldest first) without deleting")
    parser.add_argument("--clear", action="store_true",
                        help="delete every entry")
    args = parser.parse_args(argv)

    directory = pathlib.Path(args.dir) if args.dir else default_cache_dir()
    if directory is None:
        parser.error(f"no cache directory: pass --dir or set "
                     f"{CACHE_DIR_ENV}")
    cache = ResultCache(directory)

    if args.clear:
        print(f"cleared {cache.clear()} entries from {directory}")
        return 0
    if args.prune_bytes is not None:
        if args.prune_bytes < 0:
            parser.error("--prune-bytes must be >= 0")
        if args.dry_run:
            plan = cache.prune_plan(args.prune_bytes)
            for _, size, path in plan:
                print(f"would evict {path} ({size} bytes)")
            freed = sum(size for _, size, _ in plan)
            print(f"dry run: would prune {len(plan)} entries "
                  f"({freed} bytes) from {directory}; "
                  f"{len(cache)} entries ({cache.size_bytes()} bytes) "
                  f"held now")
            return 0
        removed, freed = cache.prune(args.prune_bytes)
        print(f"pruned {removed} entries ({freed} bytes) from {directory}; "
              f"{len(cache)} entries ({cache.size_bytes()} bytes) remain")
        return 0
    if args.dry_run:
        parser.error("--dry-run requires --prune-bytes")
    print(f"{directory}: {len(cache)} entries, {cache.size_bytes()} bytes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
