"""Content-addressed on-disk artifact store.

Every flow run is a pure function of three inputs: the
:class:`~repro.core.config.FlowConfig`, the netlist the factory
produces, and the code that implements the flow.  The store holds what
walks of the flow produce, each entry under a key that hashes exactly
the inputs that can reach it, so a hit is only possible when re-running
would provably recompute the same bytes.  The keys are chosen by
:class:`~repro.core.stages.StageStore`; this module owns the bytes:

* **entries** are pickles under
  ``<cache-dir>/blobs/<kind>/<key[:2]>/<key>.pkl`` — one ``stage-<name>``
  kind per flow stage, plus the two terminal artifacts ``result`` (a
  run's :class:`PPAResult`/:class:`FailedRun`) and ``nominal`` (the
  Monte-Carlo nominal bundle);
* **keys** chain the config slice, the :func:`netlist_fingerprint` and
  the :func:`code_fingerprint` (a hash of every ``repro`` source file,
  so editing the flow invalidates the whole store without any manual
  version bump).

The directory defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
``FlowCache.clear()`` and ``repro cache clear`` are the explicit
invalidation paths; passing ``cache=None`` to the runner (CLI
``--no-cache``) bypasses the store entirely.

The store is safe for concurrent multi-process use (docs/robustness.md
"Concurrency & integrity"):

* every write is **atomic and durable** — a collision-proof tmp file
  (pid + per-process counter) is fsynced, renamed over the final path,
  and the parent directory is fsynced, so a crash can never leave a
  torn entry where a reader looks;
* an entry that exists but does not unpickle is counted
  (``cache.corrupt``) and deleted, so it can never be half-read;
* stale tmp files and stale locks from dead writers are **swept at
  store open** (first get/put), not just on ``clear`` — counted as
  ``cache.swept_tmp`` / ``cache.swept_locks``;
* growth is **bounded** by ``$REPRO_CACHE_MAX_BYTES`` (or the
  ``max_bytes`` argument / CLI ``--cache-max-bytes``): when the store
  exceeds the quota, least-recently-used entries are evicted (every
  hit bumps the entry's mtime, making mtimes an access journal) —
  except entries pinned by a live single-flight lock
  (:mod:`repro.core.locking`);
* :meth:`FlowCache.fsck` (CLI ``repro cache fsck``) audits the whole
  tree — truncated entries, dead writers' tmp files, lock liveness —
  and can repair it in place.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import os
import pickle
import time
from pathlib import Path

from ..netlist import Netlist
from ..power import PowerReport
from ..sta import TimingReport
from . import faults as faults_mod
from . import locking, telemetry
from .ppa import FailedRun, PPAResult

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding the store's on-disk size in bytes
#: (unset, non-positive or non-finite = unbounded).
MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"

#: Environment variable disabling the cache wholesale (any non-empty
#: value) for callers that build their cache via :func:`cache_from_env`.
NO_CACHE_ENV = "REPRO_NO_CACHE"

#: Age past which a tmp file whose writer pid cannot be parsed is
#: considered abandoned and swept.
TMP_GRACE_S = 3600.0

#: Collision-proof suffix source for same-pid concurrent writers.
_tmp_counter = itertools.count()

_code_fingerprint: str | None = None

#: Joins the fields :func:`netlist_fingerprint` hashes; no name may
#: contain it.
FINGERPRINT_SEP = "\0"


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_DIR_ENV, "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def default_max_bytes() -> int | None:
    """The byte quota from ``$REPRO_CACHE_MAX_BYTES`` (None = unbounded).

    Unparseable, non-finite and sub-byte values read as unset.
    """
    raw = os.environ.get(MAX_BYTES_ENV, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return int(value) if math.isfinite(value) and value >= 1 else None


def cache_from_env(directory: str | os.PathLike | None = None,
                   max_bytes: int | None = None) -> "FlowCache | None":
    """A :class:`FlowCache` honoring every cache environment knob.

    Returns ``None`` when ``$REPRO_NO_CACHE`` is set, otherwise a store
    at ``directory`` (default ``$REPRO_CACHE_DIR``) bounded by
    ``max_bytes`` (default ``$REPRO_CACHE_MAX_BYTES``).  This is the
    shared construction path for the batch scripts and the job server,
    so "shared cache" means the same directory, quota and hygiene
    everywhere.
    """
    if os.environ.get(NO_CACHE_ENV, "").strip():
        return None
    return FlowCache(directory, max_bytes=max_bytes)


def netlist_fingerprint(netlist: Netlist) -> str:
    """Structural hash of a netlist, in its own insertion order.

    It covers the netlist's name; each instance's name, master and
    connections, in dict order; and each net's name, primary-input,
    primary-output and clock flags, and driver.  Order is hashed
    because order reaches the bits: the flow walks instances and nets
    in insertion order and adds power left to right, so two netlists
    that differ only in order can return different PPA.  The fields
    are joined by :data:`FINGERPRINT_SEP` into one string, with a count
    before each list, so the string reads back one way only; a name
    containing the separator raises ``ValueError``.

    ``netlist.attributes`` is not hashed.  The macro specs it carries
    (``attributes["macros"]``, which the flow compiles into library
    masters) are covered through their instances' master names, which
    :func:`repro.macros.macro_name` derives from every
    :class:`~repro.macros.MacroSpec` field; a new spec field must be
    encoded in that name too, or netlists that differ in it share keys.
    """
    parts = [netlist.name, str(len(netlist.instances))]
    extend = parts.extend
    for name, inst in netlist.instances.items():
        connections = inst.connections
        extend((name, inst.master, str(len(connections))))
        for pin_net in connections.items():
            extend(pin_net)
    parts.append(str(len(netlist.nets)))
    for net in netlist.nets.values():
        driver = net.driver
        extend((net.name, "%d%d%d%d" % (net.is_primary_input,
                                         net.is_primary_output, net.is_clock,
                                         driver is not None)))
        if driver is not None:
            extend(driver)
    text = FINGERPRINT_SEP.join(parts)
    if text.count(FINGERPRINT_SEP) != len(parts) - 1:
        bad = next(part for part in parts if FINGERPRINT_SEP in part)
        raise ValueError(f"netlist {netlist.name!r}: name {bad!r} contains "
                         f"the fingerprint separator {FINGERPRINT_SEP!r}")
    return hashlib.sha256(text.encode()).hexdigest()


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file — the store's one version.

    Any edit to the flow implementation changes this hash and thereby
    invalidates all existing cache entries, which is what makes the
    cache safe to leave on by default.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def result_to_payload(result: PPAResult | FailedRun | dict) -> dict:
    """Serialize a run result into a JSON-safe, round-trippable dict.

    A plain dict (a study report, e.g. a Monte-Carlo signoff) passes
    through as a ``report``.
    """
    if isinstance(result, dict):
        return {"kind": "report", "data": result}
    if isinstance(result, FailedRun):
        return {"kind": "failed", "data": dataclasses.asdict(result)}
    return {"kind": "ppa", "data": dataclasses.asdict(result)}


def result_from_payload(payload: dict) -> PPAResult | FailedRun | dict:
    """Inverse of :func:`result_to_payload`."""
    data = dict(payload["data"])
    if payload["kind"] == "report":
        return data
    if payload["kind"] == "failed":
        return FailedRun(**data)
    data["timing"] = TimingReport(**data["timing"])
    data["power"] = PowerReport(**data["power"])
    return PPAResult(**data)


class FlowCache:
    """Content-addressed store of pickled artifacts on disk.

    Thread/process safe for concurrent writers via fsynced atomic
    rename; damaged entries behave as misses.  See the module
    docstring for the layout, concurrency, durability and quota story.
    """

    def __init__(self, directory: str | os.PathLike | None = None,
                 max_bytes: int | None = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        #: Byte quota (None = unbounded); non-positive means unbounded.
        resolved = max_bytes if max_bytes is not None else default_max_bytes()
        self.max_bytes = resolved if resolved and resolved > 0 else None
        #: Entries found damaged (unpickleable) and deleted; also
        #: counted as ``cache.corrupt`` on the trace.
        self.corrupt = 0
        #: Stale tmp files / stale locks swept at store open.
        self.swept_tmp = 0
        self.swept_locks = 0
        #: Entries evicted to stay under the byte quota.
        self.evictions = 0
        self._opened = False

    @property
    def locks(self) -> locking.LockManager:
        """The store's lock namespace (``<cache-dir>/locks``)."""
        return locking.LockManager(self.directory / "locks")

    @property
    def _blobs(self) -> Path:
        return self.directory / "blobs"

    def _path(self, key: str, kind: str) -> Path:
        return self._blobs / kind / key[:2] / f"{key}.pkl"

    # -- durability and hygiene ---------------------------------------------
    def _atomic_write(self, path: Path, data: bytes, key: str) -> None:
        """Write ``data`` to ``path`` atomically and durably.

        The tmp name carries pid plus a per-process counter, so
        same-pid concurrent threads can never collide; the tmp file is
        fsynced before the rename and the parent directory after it,
        so a crash leaves either the old entry or the new one — never
        a torn file.  An active ``cache.put:corrupt`` fault clause
        simulates exactly that torn write instead.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        clause = faults_mod.cache_clause("cache.put", key)
        if clause is not None and clause.mode == "corrupt":
            # Injected torn write: half the payload lands at the final
            # path with no rename, as if the writer crashed mid-write
            # on a filesystem without atomic-rename discipline.
            path.write_bytes(data[:max(1, len(data) // 2)])
            return
        tmp = path.with_name(
            f"{path.name}.tmp.{os.getpid()}.{next(_tmp_counter)}")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            locking.fsync_file(handle.fileno())
        tmp.replace(path)
        locking.fsync_dir(path.parent)

    @staticmethod
    def _tmp_is_stale(path: Path) -> bool:
        """Whether a tmp file's writer is provably gone.

        Tmp names end in ``.tmp.<pid>[.<counter>]``; a live pid means a
        writer may still be mid-put, so the file is left alone.  Names
        without a parseable pid fall back to an age check.
        """
        name = path.name
        tail = name.rsplit(".tmp.", 1)[-1] if ".tmp." in name else ""
        try:
            pid = int(tail.split(".")[0])
        except ValueError:
            pid = None
        if pid is not None:
            return not locking.pid_alive(pid)
        try:
            return time.time() - path.stat().st_mtime > TMP_GRACE_S
        except OSError:
            return False

    def _tmp_files(self):
        if self._blobs.is_dir():
            yield from self._blobs.glob("*/??/*.tmp.*")

    def _stale_tmp_files(self):
        """Leftover tmp files from writers that died mid-put."""
        return (path for path in self._tmp_files()
                if self._tmp_is_stale(path))

    def _ensure_open(self) -> None:
        """First-use hygiene: sweep dead writers' tmp files and stale
        locks, so crash debris is cleaned the next time the store is
        *used*, not only when someone runs ``cache clear``."""
        if self._opened:
            return
        self._opened = True
        if not self.directory.is_dir():
            return
        tracer = telemetry.current_tracer()
        swept = 0
        for path in list(self._stale_tmp_files()):
            try:
                path.unlink()
                swept += 1
            except OSError:
                pass
        if swept:
            self.swept_tmp += swept
            tracer.count("cache.swept_tmp", swept)
        swept_locks = self.locks.sweep_stale()
        if swept_locks:
            self.swept_locks += swept_locks
            tracer.count("cache.swept_locks", swept_locks)

    def get(self, key: str, kind: str):
        """Unpickle a stored entry; None on miss or damage (then deleted)."""
        self._ensure_open()
        path = self._path(key, kind)
        try:
            blob = path.read_bytes()
        except OSError:  # absent entry: an ordinary miss
            return None
        try:
            obj = pickle.loads(blob)
        except Exception:
            # The entry exists but is damaged (torn write, bit rot,
            # hand-editing): count it loudly and delete it, so it can
            # never be half-read and never misses twice.
            self.corrupt += 1
            telemetry.current_tracer().count("cache.corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        try:
            os.utime(path)  # the access journal LRU eviction reads
        except OSError:
            pass  # racing eviction: the read above already succeeded
        return obj

    def put(self, key: str, kind: str, obj) -> bool:
        """Pickle ``obj`` under ``key``; False when it cannot be stored."""
        self._ensure_open()
        try:
            blob = pickle.dumps(obj)
        except Exception:
            return False
        self._atomic_write(self._path(key, kind), blob, key)
        self._enforce_quota()
        return True

    # -- bounded growth ------------------------------------------------------
    def _entries(self):
        """Every stored entry: (path, key, size, mtime)."""
        if not self._blobs.is_dir():
            return
        for path in self._blobs.glob("*/??/*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue  # racing eviction: skip
            yield path, path.stem, stat.st_size, stat.st_mtime

    def _enforce_quota(self) -> None:
        """Evict least-recently-used entries down to the byte quota.

        mtimes are the access journal (bumped on every hit), so sorting
        by mtime *is* LRU.  Keys pinned by a live single-flight lock are
        never evicted — a waiter may be about to load them.  An
        ``cache.evict:corrupt`` fault clause treats the quota as zero
        for one pass, stress-testing readers racing mass eviction.
        """
        limit = self.max_bytes
        clause = faults_mod.cache_clause("cache.evict")
        if clause is not None and clause.mode == "corrupt":
            limit = 0
        if limit is None:
            return
        census = list(self._entries())
        total = sum(size for _, _, size, _ in census)
        if total <= limit:
            return
        pinned = self.locks.live_keys()
        evicted = evicted_bytes = 0
        for path, key, size, _ in sorted(census, key=lambda row: row[3]):
            if total <= limit:
                break
            if key in pinned:
                continue
            try:
                path.unlink()
            except OSError:
                continue  # another process evicted it first
            total -= size
            evicted += 1
            evicted_bytes += size
        if evicted:
            self.evictions += evicted
            tracer = telemetry.current_tracer()
            tracer.count("cache.evicted", evicted)
            tracer.count("cache.evicted_bytes", evicted_bytes)

    # -- integrity audit -----------------------------------------------------
    def fsck(self, repair: bool = False) -> dict:
        """Audit the whole store; optionally repair it in place.

        Checks, in order: every entry unpickles (truncated payloads
        from torn writes fail here); stale tmp files; stale locks
        (including stolen-aside leftovers).  Does *not* sweep or mutate
        anything unless ``repair=True`` — a plain fsck is a safe
        read-only audit even while sweeps are running.
        """
        defects: list[dict] = []
        entries = 0

        def defect(kind: str, path: Path, detail: str) -> None:
            defects.append({"kind": kind, "path": str(path),
                            "detail": detail})

        for path, _, _, _ in self._entries():
            entries += 1
            try:
                pickle.loads(path.read_bytes())
            except OSError:
                continue  # evicted mid-scan: not a defect
            except Exception as exc:
                defect("corrupt_blob", path,
                       f"{type(exc).__name__}: truncated or damaged pickle")
        for path in self._stale_tmp_files():
            defect("stale_tmp", path, "writer is no longer alive")
        locks = self.locks
        live = 0
        for path in locks._lock_files():
            lock = locking.FileLock(path)
            if lock.is_stale():
                owner = lock.owner()
                detail = (f"holder pid {owner.pid} is dead"
                          if owner else "unreadable and past grace")
                defect("stale_lock", path, detail)
            else:
                live += 1
        if locks.directory.is_dir():
            for path in locks.directory.glob(f"*{locking.STEAL_SUFFIX}.*"):
                defect("stale_lock", path, "stolen-aside leftover")

        repaired = 0
        if repair:
            for item in defects:
                try:
                    Path(item["path"]).unlink()
                    repaired += 1
                    item["repaired"] = True
                except OSError:
                    item["repaired"] = False
        return {
            "directory": str(self.directory),
            "entries": entries,
            "live_locks": live,
            "defects": defects,
            "repaired": repaired,
            "clean": not defects,
        }

    def clear(self) -> int:
        """Remove every file of the store; returns how many.

        That is the blob tree, the lockfiles and the two-hex-digit
        directories of the JSON entries earlier versions wrote — and
        nothing else: the directory may hold other files (the job
        server's journal lives there by default), and a mistyped
        ``--cache-dir`` must not wipe unrelated ones.
        """
        if not self.directory.is_dir():
            return 0
        removed = self.locks.clear()
        for root in [self._blobs, *self.directory.glob("[0-9a-f][0-9a-f]")]:
            # Deepest first, so every directory is empty when reached.
            for path in sorted([root, *root.rglob("*")], reverse=True):
                try:
                    if path.is_dir():
                        path.rmdir()
                    else:
                        path.unlink()
                        removed += 1
                except OSError:
                    pass  # racing writer: its file survives the clear
        return removed

    def info(self) -> dict:
        """Summary of the on-disk store for ``repro cache info``.

        Safe to call before the first ``put``: a missing directory is a
        clean empty summary, never an error.
        """
        entries = 0
        total_bytes = 0
        oldest = newest = None
        for _, _, size, mtime in self._entries():
            entries += 1
            total_bytes += size
            oldest = mtime if oldest is None else min(oldest, mtime)
            newest = mtime if newest is None else max(newest, mtime)
        live_locks, stale_locks = self.locks.survey()
        return {
            "directory": str(self.directory),
            "exists": self.directory.is_dir(),
            "entries": entries,
            "total_bytes": total_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
            "stale_tmp_files": sum(1 for _ in self._tmp_files()),
            "max_bytes": self.max_bytes,
            "live_locks": live_locks,
            "stale_locks": stale_locks,
        }
