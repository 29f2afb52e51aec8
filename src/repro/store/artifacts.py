"""Content-addressed on-disk store of build and execution artifacts.

The expensive half of a cold start is deterministic.  Two kinds of
derived state are pure functions of their inputs, and this module
persists both so the *next* process skips the derivation:

- ``image`` — the linked :class:`~repro.assembler.linker.MemoryImage`
  of one test cell, so a fresh ``advm regress`` skips preprocessing,
  assembly and linking (see *Image entries* below);
- ``decode`` — predecode, superblock formation and the shape of the
  compiled JIT chains, pure functions of the image bytes, the cached
  region bounds and the fetch wait-state profile — exactly the tuple
  the decode-cache registry is keyed on.

Both kinds share one code path and one set of guarantees:

- **content-addressed** — one file per key, named
  ``<kind>-<sha256>.art`` where the hash covers the key tuple and the
  :func:`code_digest` of the running checkout, so distinct inputs never
  collide and a shared store directory needs no index;
- **stale code is a miss** — the code digest (SHA-256 of the ``repro``
  package's ``.py`` sources) rides in both the file name and the
  header.  The assembler, encodings, generators, decoder and executor
  are all Python, so an entry written by any other checkout is never
  looked up, and :meth:`ArtifactStore.warm_registry` skips it (counted
  as a miss, left in place — it is not corruption);
- **checksummed envelope** — a JSON header line carrying the schema,
  kind, key, code digest and a SHA-256 over the canonical header fields
  plus the payload, verified on *every* read.  Corrupt ≠ miss: a failed
  verification is counted in :attr:`ArtifactStore.corrupt`, the file is
  renamed aside to a unique ``*.corrupt`` name (forensic evidence, off
  the hot path) and the caller re-derives from source — a corrupt
  artifact is never trusted;
- **atomic writes** — ``tempfile.mkstemp`` + ``os.replace``, the same
  idiom as :class:`~repro.core.scheduler.ResultCache`, so concurrent
  fleet workers sharing a store directory can never observe a torn
  file;
- **contained** — every operation degrades instead of raising: an
  unavailable store root disables the store (counted), a failed write
  is a cold next start, a failed read is a cold build.  The regression
  itself never fails because its accelerator store is broken;
- **bounded** — :meth:`ArtifactStore.prune` applies the familiar
  max-entries/max-age policy over artifacts and quarantined evidence.

Image entries
-------------

An image entry holds the linked image only — no object files and no
pickle.  The payload is one JSON line (segment object/section names,
bases and lengths, the symbol table, the entry point and the image's
:meth:`~repro.assembler.linker.MemoryImage.digest`) followed by the
concatenated segment bytes.  :func:`restore_image` recomputes the
digest and rejects the entry unless it equals the recorded one.
:meth:`~repro.core.environment.ModuleTestEnvironment.build_image` keys
an entry by every build input: the cell name, the target's
:meth:`~repro.core.environment.ModuleTestEnvironment.build_signature`,
the module's source fingerprint, the derivative's name, ES version and
memory-map text/data bases — plus the code digest the store adds to
every key.

What a decode snapshot contains — and what it deliberately drops
----------------------------------------------------------------

:func:`snapshot_decode_cache` pickles the cache's segments, decoded
entries, non-cacheable ``skip`` set and formed superblocks (the pickle
memo preserves entry/block identity, so restored successor pointers
still alias restored blocks).  Compiled JIT chain *functions* are
``compile()``-generated objects that cannot ride a pickle;
``Superblock.__getstate__`` nulls them.  The snapshot instead records,
per chain head, the three variants' *code objects* via :mod:`marshal`
(the ``.pyc`` idiom) together with their exec namespaces — the
namespaces hold only decoded entries, fetch-event/trace tuples and
opcode constants, all of which ride the same pickle memo as the block
graph.  :func:`restore_decode_cache` rebinds those code objects
directly (one ``marshal.loads`` + ``exec`` per variant, no tracing, no
codegen, no ``compile()``), which is what makes a warm process start
cheaper than re-derivation rather than merely different.  Marshal is
interpreter-specific, so the snapshot carries
``sys.implementation.cache_tag``; on any mismatch — or any per-head
restore failure — the head falls back to the eager
:func:`~repro.isa.jit.compile_chain` path.  Every other block's
persisted heat is clamped below :data:`~repro.isa.jit.JIT_THRESHOLD`
(the trigger fires on exact equality, so restoring a past-threshold
heat would permanently disable recompilation for that head).
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import pickle
import sys
import tempfile
import threading
import time
import types
from pathlib import Path

from repro.assembler.linker import MemoryImage, PlacedSection
from repro.core.faults import SITE_STORE_READ, SITE_STORE_WRITE
from repro.isa import decodecache as _decodecache
from repro.isa.decodecache import DecodeCache
from repro.isa.jit import JIT_THRESHOLD, compile_chain

#: Bump when a payload or the envelope changes incompatibly.
STORE_SCHEMA = 2

_KIND_DECODE = "decode"
_KIND_IMAGE = "image"

_CODE_DIGEST: str | None = None


def code_digest() -> str:
    """SHA-256 over the ``repro`` package's ``.py`` sources (relative
    path and bytes of each, in sorted order).  Computed on first use —
    only a process with a store installed pays for it — and then
    memoised for the life of the process."""
    global _CODE_DIGEST
    if _CODE_DIGEST is None:
        package = Path(__file__).resolve().parent.parent
        hasher = hashlib.sha256()
        for path in sorted(package.rglob("*.py")):
            hasher.update(path.relative_to(package).as_posix().encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _CODE_DIGEST = hasher.hexdigest()
    return _CODE_DIGEST


# --------------------------------------------------------------------------
# DecodeCache snapshot / restore
# --------------------------------------------------------------------------

def _marshal_chain(block) -> dict | None:
    """The marshalled code objects + exec namespaces of one head's
    three compiled variants, or ``None`` when any variant is missing
    or unmarshalable (the head then recompiles eagerly on restore)."""
    variants = (block.jit_u, block.jit_ot, block.jit_ow)
    if any(fn is None for fn in variants):
        return None
    codes = []
    environments = []
    try:
        for fn in variants:
            codes.append(marshal.dumps(fn.__code__))
            environments.append({
                name: value
                for name, value in fn.__globals__.items()
                if name not in ("_chain", "__builtins__")
            })
    except (ValueError, TypeError):
        return None
    return {"codes": codes, "envs": environments}


def snapshot_decode_cache(cache: DecodeCache) -> bytes:
    """Pickle one cache's derived state (see module docstring).

    The entry/skip structures are copied under the cache's miss lock so
    a concurrent lazy decode cannot mutate a dict mid-pickle; blocks
    are copied outside it (formation is deliberately lock-free and a
    shallow dict copy is atomic under the GIL)."""
    with cache._miss_lock:
        entries = dict(cache._entries)
        skip = set(cache._skip)
    blocks = dict(cache._blocks)
    jit_code = {}
    for pc, block in blocks.items():
        if block.jit_u is None:
            continue
        chain = _marshal_chain(block)
        if chain is not None:
            jit_code[pc] = chain
    snapshot = {
        "segments": list(cache._segments),
        "entries": entries,
        "skip": skip,
        "blocks": blocks,
        "jit_heads": sorted(
            pc for pc, block in blocks.items() if block.jit_u is not None
        ),
        "jit_code": jit_code,
        "code_tag": sys.implementation.cache_tag,
    }
    return pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)


def _bind_marshalled_chain(head, chain) -> bool:
    """Rebind one head's three variants from marshalled code; returns
    whether the chain was installed (any failure leaves the head clean
    for the eager-recompile fallback)."""
    if not chain:
        return False
    try:
        codes = chain["codes"]
        environments = chain["envs"]
        if len(codes) != 3 or len(environments) != 3:
            return False
        variants = []
        for blob, environment in zip(codes, environments):
            namespace = dict(environment)
            namespace.setdefault("__builtins__", __builtins__)
            variants.append(
                types.FunctionType(marshal.loads(blob), namespace, "_chain")
            )
    except Exception:
        return False
    head.jit_u, head.jit_ot, head.jit_ow = variants
    return True


def restore_decode_cache(payload: bytes) -> DecodeCache:
    """Rebuild a live :class:`DecodeCache` from a snapshot payload.

    Chain heads restore their compiled variants straight from the
    snapshot's marshalled code objects (no codegen, no ``compile()``);
    a head whose marshalled chain is missing, from a different
    interpreter (``code_tag`` mismatch) or unreadable recompiles
    eagerly instead.  Every other persisted heat is clamped to
    ``JIT_THRESHOLD - 1`` so a hot block whose chain could not be
    restored re-triggers compilation on its first warm replay instead
    of never again (the JIT trigger is an exact-equality check)."""
    snapshot = pickle.loads(payload)
    cache = DecodeCache.__new__(DecodeCache)
    cache._segments = snapshot["segments"]
    cache._entries = snapshot["entries"]
    cache._blocks = snapshot["blocks"]
    cache._skip = snapshot["skip"]
    cache._miss_lock = threading.Lock()
    cache.hits = 0
    cache.misses = 0
    cache.jit_chains = 0
    for block in cache._blocks.values():
        if block.heat >= JIT_THRESHOLD:
            block.heat = JIT_THRESHOLD - 1
    jit_code = (
        snapshot.get("jit_code", {})
        if snapshot.get("code_tag") == sys.implementation.cache_tag
        else {}
    )
    for pc in snapshot["jit_heads"]:
        head = cache._blocks.get(pc)
        if head is None:
            continue
        if _bind_marshalled_chain(head, jit_code.get(pc)):
            cache.jit_chains += 1
            head.heat = JIT_THRESHOLD
        elif compile_chain(cache, head):
            head.heat = JIT_THRESHOLD
    return cache


def _cache_stamp(cache: DecodeCache) -> tuple[int, int, int]:
    """Cheap content stamp deciding whether a re-save would change the
    snapshot.  Entries and blocks only ever grow (and chains only
    install) for an immutable image, so size deltas are sufficient."""
    return (len(cache._entries), len(cache._blocks), cache.jit_chains)


# --------------------------------------------------------------------------
# MemoryImage snapshot / restore
# --------------------------------------------------------------------------

def snapshot_image(image: MemoryImage) -> bytes:
    """One JSON metadata line plus the concatenated segment bytes (see
    the module docstring's *Image entries*)."""
    meta = {
        "digest": image.digest(),
        "entry": image.entry,
        "symbols": image.symbols,
        "segments": [
            [segment.object_name, segment.name, segment.base, len(segment.data)]
            for segment in image.segments
        ],
    }
    parts = [json.dumps(meta).encode(), b"\n"]
    parts.extend(segment.data for segment in image.segments)
    return b"".join(parts)


def restore_image(payload: bytes) -> MemoryImage:
    """Rebuild a :class:`MemoryImage` from :func:`snapshot_image`'s
    payload; raises unless the bytes add up and the recomputed digest
    equals the recorded one."""
    meta_line, blob = payload.split(b"\n", 1)
    meta = json.loads(meta_line)
    segments = []
    offset = 0
    for object_name, name, base, length in meta["segments"]:
        end = offset + length
        segments.append(PlacedSection(object_name, name, base, blob[offset:end]))
        offset = end
    if offset != len(blob):
        raise ValueError("image payload length mismatch")
    image = MemoryImage(
        segments=segments, symbols=meta["symbols"], entry=meta["entry"]
    )
    if image.digest() != meta["digest"]:
        raise ValueError("image digest mismatch")
    return image


# --------------------------------------------------------------------------
# shared quarantine idiom
# --------------------------------------------------------------------------

def quarantine_aside(path: Path, directory: Path) -> bool:
    """Rename a corrupt file to a unique ``*.corrupt`` name (mkstemp
    picks the nonce, so repeated corruption preserves every piece of
    evidence).  Best effort; returns whether a file was set aside."""
    try:
        fd, destination = tempfile.mkstemp(
            prefix=f"{path.stem}.", suffix=".corrupt", dir=directory
        )
        os.close(fd)
    except OSError:
        return False
    try:
        os.replace(path, destination)
    except OSError:
        # Another process quarantined (or removed) it first: drop the
        # placeholder rather than leaving an empty decoy.
        try:
            os.unlink(destination)
        except OSError:
            pass
        return False
    return True


# --------------------------------------------------------------------------
# the store
# --------------------------------------------------------------------------

#: :meth:`ArtifactStore._read_artifact`'s answer for an intact entry
#: written by another checkout.
_STALE = object()


def _checksum(fields: dict, payload: bytes) -> str:
    """SHA-256 over the canonical header *fields* and the payload, so a
    damaged header is caught just like a damaged payload."""
    hasher = hashlib.sha256(json.dumps(fields, sort_keys=True).encode())
    hasher.update(b"\n")
    hasher.update(payload)
    return hasher.hexdigest()


class ArtifactStore:
    """Content-addressed, checksummed, prunable artifact directory.

    Construction never raises: a root that cannot be created (missing
    volume, permission, a *file* squatting on the path) marks the store
    :attr:`disabled` and every operation becomes a counted no-op — the
    run degrades to local-only cold starts, it does not fail.
    """

    def __init__(self, directory: str | Path, injector=None):
        self.directory = Path(directory)
        #: Optional :class:`repro.core.faults.FaultInjector` driving
        #: the ``store-read``/``store-write`` chaos sites.
        self.injector = injector
        self.disabled = False
        #: Hits and misses over both kinds; the ``image_*`` pair counts
        #: the image kind's share.
        self.hits = 0
        self.misses = 0
        self.image_hits = 0
        self.image_misses = 0
        self.corrupt = 0
        #: Distinct corrupt files successfully renamed aside.
        self.quarantined = 0
        self.write_errors = 0
        self.saved = 0
        #: Saves skipped because the stamp says the snapshot on disk is
        #: already current.
        self.unchanged = 0
        self.pruned = 0
        #: file stem -> stamp of the artifact known to be on disk.
        self._stamps: dict[str, object] = {}
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError:
            self.disabled = True

    # -- naming ------------------------------------------------------------
    @staticmethod
    def _stem(kind: str, key: tuple) -> str:
        hasher = hashlib.sha256()
        for part in key:
            hasher.update(str(part).encode())
            hasher.update(b"\0")
        hasher.update(code_digest().encode())
        return f"{kind}-{hasher.hexdigest()}"

    def _path(self, stem: str) -> Path:
        return self.directory / f"{stem}.art"

    # -- the shared envelope -----------------------------------------------
    def _save(self, kind: str, key: tuple, stamp, encode) -> bool:
        """Write one artifact unless the file on disk already carries
        *stamp*; *encode* produces the payload.  Returns whether a file
        was written."""
        if self.disabled:
            return False
        stem = self._stem(kind, key)
        if self._stamps.get(stem) == stamp:
            self.unchanged += 1
            return False
        try:
            payload = encode()
        except Exception:
            self.write_errors += 1
            return False
        fields = {
            "schema": STORE_SCHEMA,
            "kind": kind,
            "key": list(key),
            "code": code_digest(),
        }
        header = dict(fields, checksum=_checksum(fields, payload))
        data = json.dumps(header, sort_keys=True).encode() + b"\n" + payload
        path = self._path(stem)
        try:
            if self.injector is not None:
                self.injector.fire(SITE_STORE_WRITE, stem)
                data = self.injector.mangle(SITE_STORE_WRITE, stem, data)
            fd, tmp = tempfile.mkstemp(
                prefix=f".{stem}.", suffix=".tmp", dir=self.directory
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            self.write_errors += 1
            return False
        self._stamps[stem] = stamp
        self.saved += 1
        return True

    def _read_artifact(
        self, path: Path, stem: str, kind: str, restore, scan: bool = False
    ):
        """Read + verify + restore one artifact file.

        Returns ``(header, value)``; ``None`` after counting and
        quarantining any failure (corrupt ≠ miss); or, when *scan*
        walks the directory, :data:`_STALE` for an intact file that
        another checkout wrote.  A file whose name disagrees with its
        header's key — or that a lookup found under this checkout's
        code digest while its header names another — is corruption."""
        try:
            if self.injector is not None:
                self.injector.fire(SITE_STORE_READ, stem)
            raw = path.read_bytes()
            if self.injector is not None:
                raw = self.injector.mangle(SITE_STORE_READ, stem, raw)
            header_line, payload = raw.split(b"\n", 1)
            header = json.loads(header_line)
            checksum = header.pop("checksum")
            if header["schema"] != STORE_SCHEMA:
                raise ValueError("artifact schema mismatch")
            if header["kind"] != kind:
                raise ValueError("artifact kind mismatch")
            if checksum != _checksum(header, payload):
                raise ValueError("artifact checksum mismatch")
            if header["code"] != code_digest():
                if scan:
                    return _STALE
                raise ValueError("artifact code digest mismatch")
            if self._stem(kind, header["key"]) != stem:
                raise ValueError("artifact key mismatch")
            value = restore(payload)
        except Exception:
            self.corrupt += 1
            if quarantine_aside(path, self.directory):
                self.quarantined += 1
            return None
        return header, value

    def _load(self, kind: str, key: tuple, restore, stamp):
        """The restored artifact for *key*, or ``None`` (miss or counted
        corruption).  Never raises."""
        if self.disabled:
            return None
        stem = self._stem(kind, key)
        path = self._path(stem)
        if not path.exists():
            self.misses += 1
            if kind == _KIND_IMAGE:
                self.image_misses += 1
            return None
        loaded = self._read_artifact(path, stem, kind, restore)
        if loaded is None:
            return None
        _header, value = loaded
        self.hits += 1
        if kind == _KIND_IMAGE:
            self.image_hits += 1
        self._stamps[stem] = stamp(value)
        return value

    # -- decode-cache artifacts --------------------------------------------
    def save_decode_cache(self, key: tuple, cache: DecodeCache) -> bool:
        """Persist one registry entry; returns whether a file was
        written.  Empty caches (nothing derived yet) and caches whose
        on-disk snapshot is already current are skipped."""
        if not cache._entries and not cache._blocks:
            return False
        return self._save(
            _KIND_DECODE,
            key,
            _cache_stamp(cache),
            lambda: snapshot_decode_cache(cache),
        )

    def load_decode_cache(self, key: tuple) -> DecodeCache | None:
        """The restored cache for *key*, or ``None`` (miss or counted
        corruption).  Never raises."""
        return self._load(
            _KIND_DECODE, key, restore_decode_cache, _cache_stamp
        )

    def warm_registry(self) -> int:
        """Install every readable decode snapshot written by this
        checkout into the process-wide registry (boot-time rehydration
        for a restarted daemon pool); returns how many caches are now
        registered from the store.  Snapshots from other checkouts are
        counted as misses and left in place."""
        if self.disabled:
            return 0
        installed = 0
        for path in sorted(self.directory.glob(f"{_KIND_DECODE}-*.art")):
            stem = path.name.removesuffix(".art")
            loaded = self._read_artifact(
                path, stem, _KIND_DECODE, restore_decode_cache, scan=True
            )
            if loaded is None:
                continue
            if loaded is _STALE:
                self.misses += 1
                continue
            header, cache = loaded
            key = tuple(header["key"])
            if len(key) != 4:
                self.corrupt += 1
                if quarantine_aside(path, self.directory):
                    self.quarantined += 1
                continue
            _decodecache.install_cache(key, cache)
            self._stamps[stem] = _cache_stamp(cache)
            self.hits += 1
            installed += 1
        return installed

    # -- linked-image artifacts --------------------------------------------
    def save_image(self, key: tuple, image: MemoryImage) -> bool:
        """Persist one linked image; returns whether a file was written.
        *key* is a flat tuple of strings and ints (see the module
        docstring); an image already on disk under it is skipped."""
        return self._save(
            _KIND_IMAGE, key, image.digest(), lambda: snapshot_image(image)
        )

    def load_image(self, key: tuple) -> MemoryImage | None:
        """The stored image for *key*, or ``None`` (miss or counted
        corruption).  Never raises."""
        return self._load(
            _KIND_IMAGE, key, restore_image, MemoryImage.digest
        )

    # -- maintenance -------------------------------------------------------
    def prune(
        self,
        max_entries: int | None = None,
        max_age: float | None = None,
        now: float | None = None,
    ) -> int:
        """Bound the store directory; returns how many files were
        removed.  *max_age* reaps artifacts and quarantined evidence
        past the horizon; *max_entries* then drops the oldest-modified
        artifacts beyond the count (evidence is never entry-bounded)."""
        removed = 0
        if self.disabled or (max_entries is None and max_age is None):
            return removed
        if now is None:
            now = time.time()
        entries: list[tuple[float, Path]] = []
        for path in list(self.directory.glob("*.art")) + list(
            self.directory.glob("*.corrupt")
        ):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            if max_age is not None and now - mtime > max_age:
                removed += self._remove_file(path)
            elif path.suffix == ".art":
                entries.append((mtime, path))
        if max_entries is not None and len(entries) > max_entries:
            entries.sort()
            for _mtime, path in entries[: len(entries) - max_entries]:
                removed += self._remove_file(path)
        self.pruned += removed
        return removed

    def _remove_file(self, path: Path) -> int:
        try:
            os.unlink(path)
        except OSError:
            return 0
        self._stamps.pop(path.name.removesuffix(".art"), None)
        return 1

    def stats(self) -> dict[str, int]:
        """Flat counters, the shape CLI summaries and ``/stats``
        expose."""
        return {
            "disabled": int(self.disabled),
            "hits": self.hits,
            "misses": self.misses,
            "image_hits": self.image_hits,
            "image_misses": self.image_misses,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "write_errors": self.write_errors,
            "saved": self.saved,
            "unchanged": self.unchanged,
            "pruned": self.pruned,
        }
