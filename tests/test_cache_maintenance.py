"""ResultCache maintenance: quarantine uniqueness, pruning and
multi-process crash consistency.

The serving daemon makes the cache a long-lived, *shared* resource:
several regressions (and several processes) may hammer one directory
concurrently for days.  These tests pin the maintenance contract that
makes that safe — repeated corruption preserves every piece of
forensic evidence, pruning bounds the directory without racing
writers, and concurrent get/put/corrupt traffic never produces a
torn read or a lost update."""

from __future__ import annotations

import json
import os
import random
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro import cli
from repro.core.scheduler import ResultCache
from repro.core.system_env import make_default_system
from repro.core.workspace import write_system_environment
from repro.platforms.base import RunResult, RunStatus
from repro.platforms.cpu import TraceEntry


def make_result(tag: str) -> RunResult:
    return RunResult(
        platform=tag, derivative="sc88a", status=RunStatus.PASS
    )


# --------------------------------------------------------------------------
# quarantine uniqueness
# --------------------------------------------------------------------------

class TestQuarantine:
    def test_repeated_corruption_preserves_every_file(self, tmp_path):
        """A key that corrupts twice must leave *two* quarantined files
        — the second quarantine must not clobber the first."""
        cache = ResultCache(tmp_path)
        key = "deadbeef"
        for round_index in range(3):
            cache.put(key, make_result(f"round-{round_index}"))
            (tmp_path / f"{key}.json").write_bytes(b"bit rot")
            assert cache.get(key) is None
        quarantined = sorted(tmp_path.glob("*.corrupt"))
        assert len(quarantined) == 3
        assert len({path.name for path in quarantined}) == 3
        assert cache.quarantined == 3
        assert cache.corrupt == 3
        assert cache.stats()["quarantined"] == 3

    def test_lost_race_leaves_no_empty_decoy(self, tmp_path):
        """If the corrupt file vanished (another process quarantined it
        first), no placeholder may survive to be mistaken for
        evidence."""
        cache = ResultCache(tmp_path)
        cache._quarantine_file(tmp_path / "vanished.json")
        assert list(tmp_path.iterdir()) == []
        assert cache.quarantined == 0


# --------------------------------------------------------------------------
# pruning
# --------------------------------------------------------------------------

class TestPrune:
    def fill(self, cache: ResultCache, directory: Path, count: int):
        base = 1_000_000_000
        for index in range(count):
            key = f"key{index:02d}"
            cache.put(key, make_result(key))
            stamp = base + index * 100
            os.utime(directory / f"{key}.json", (stamp, stamp))
        return base

    def test_noop_without_bounds(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.fill(cache, tmp_path, 3)
        assert cache.prune() == 0
        assert cache.pruned == 0
        assert len(list(tmp_path.glob("*.json"))) == 3

    def test_max_entries_keeps_newest(self, tmp_path):
        cache = ResultCache(tmp_path)
        self.fill(cache, tmp_path, 5)
        assert cache.prune(max_entries=2) == 3
        survivors = sorted(p.stem for p in tmp_path.glob("*.json"))
        assert survivors == ["key03", "key04"]
        assert cache.pruned == 3
        assert cache.stats()["pruned"] == 3

    def test_max_age_drops_stale_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = self.fill(cache, tmp_path, 4)
        # Horizon chosen so the two oldest entries age out.
        removed = cache.prune(max_age=250, now=base + 400)
        assert removed == 2
        survivors = sorted(p.stem for p in tmp_path.glob("*.json"))
        assert survivors == ["key02", "key03"]

    def test_max_age_reaps_quarantined_evidence(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("badkey", make_result("badkey"))
        (tmp_path / "badkey.json").write_bytes(b"rot")
        assert cache.get("badkey") is None
        corrupt = next(tmp_path.glob("*.corrupt"))
        os.utime(corrupt, (1_000, 1_000))
        # Old evidence ages out; entry bounds never touch .corrupt.
        assert cache.prune(max_entries=100) == 0
        assert corrupt.exists()
        assert cache.prune(max_age=10, now=2_000) == 1
        assert not corrupt.exists()

    def test_cli_cache_prune_plumbing(self, tmp_path, capsys):
        workspace = write_system_environment(
            make_default_system(nvm_tests=1, uart_tests=0),
            tmp_path / "ws",
        )
        cache_dir = tmp_path / "cache"
        code = cli.main(
            [
                "regress",
                str(workspace),
                "NVM",
                "--targets",
                "golden",
                "--cache-dir",
                str(cache_dir),
                "--cache-prune",
                "--cache-max-entries",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cache-prune: removed 1 file(s)" in out
        assert "pruned=1" in out
        assert list(cache_dir.glob("*.json")) == []


# --------------------------------------------------------------------------
# multi-process stress
# --------------------------------------------------------------------------

STRESS_KEYS = [f"stress{i:02d}" for i in range(6)]


def _stress_worker(directory: str, seed: int, rounds: int) -> dict:
    """One process's share of the hammering: interleaved puts, gets and
    deliberate non-atomic corruption of a shared cache directory."""
    rng = random.Random(seed)
    cache = ResultCache(directory)
    torn_reads = 0
    unexpected_errors = 0
    for _ in range(rounds):
        key = rng.choice(STRESS_KEYS)
        roll = rng.random()
        try:
            if roll < 0.45:
                cache.put(key, make_result(key))
            elif roll < 0.90:
                result = cache.get(key)
                # The integrity contract: a returned result is always
                # a complete, checksum-valid payload for this key —
                # never a torn read, never another key's verdict.
                if result is not None and result.platform != key:
                    torn_reads += 1
            else:
                # Simulated bit rot / torn write: flip one byte in
                # place, non-atomically, while others are reading.
                path = Path(directory) / f"{key}.json"
                try:
                    data = bytearray(path.read_bytes())
                    if data:
                        data[rng.randrange(len(data))] ^= 0xFF
                        path.write_bytes(bytes(data))
                except OSError:
                    pass
        except Exception:
            unexpected_errors += 1
    stats = cache.stats()
    stats["torn_reads"] = torn_reads
    stats["unexpected_errors"] = unexpected_errors
    return stats


def test_concurrent_multiprocess_stress(tmp_path):
    """N processes hammer one cache directory with get/put/corrupt.
    No worker may crash, observe a torn read, or leave the directory
    in a state a fresh cache cannot read cleanly."""
    workers = 4
    rounds = 150
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_stress_worker, str(tmp_path), seed, rounds)
            for seed in range(workers)
        ]
        reports = [future.result(timeout=120) for future in futures]

    for report in reports:
        assert report["unexpected_errors"] == 0
        assert report["torn_reads"] == 0

    # Corruption really happened and was really detected somewhere.
    assert sum(report["corrupt"] for report in reports) > 0
    assert sum(report["hits"] for report in reports) > 0

    # No half-written temp files survive the melee.
    assert list(tmp_path.glob("*.tmp")) == []
    assert list(tmp_path.glob(".*.tmp")) == []

    # Every surviving entry is complete and checksum-valid: a fresh
    # cache reads the directory without tripping over wreckage.
    fresh = ResultCache(tmp_path)
    for path in tmp_path.glob("*.json"):
        key = path.stem
        result = fresh.get(key)
        if result is not None:
            assert result.platform == key
    # Whatever the last writers left corrupt is quarantined evidence
    # now, accounted for, and off the hot path.
    assert fresh.corrupt == fresh.quarantined
    for path in tmp_path.glob("*.json"):
        body = json.loads(path.read_bytes())
        assert {"schema", "checksum", "payload"} <= set(body)


# --------------------------------------------------------------------------
# byte-level robustness of the reader
# --------------------------------------------------------------------------

def rich_result() -> RunResult:
    """A verdict using every payload field, as ``get`` rehydrates it."""
    return RunResult(
        platform="golden",
        derivative="sc88a",
        status=RunStatus.PASS,
        instructions=1234,
        cycles=5678,
        signature=0x600D_C0DE,
        result_word=0x600D_C0DE,
        uart_output="OK\n\"quoted\"\\",
        done_pin=1,
        pass_pin=1,
        fault_reason=None,
        trace=[
            TraceEntry(0x200, 0x12, "LOAD", 2),
            TraceEntry(0x208, 0x05, "HALT", 1),
        ],
        registers={"d0": 0x600D_C0DE, "a10": 0x1000_FF00},
    )


ENTRY_KEY = "a" * 64


@pytest.fixture(scope="module")
def entry_bytes(tmp_path_factory) -> bytes:
    """One valid cache entry file, as :meth:`ResultCache.put` wrote it."""
    directory = tmp_path_factory.mktemp("one-entry")
    assert ResultCache(directory).put(ENTRY_KEY, rich_result())
    return (directory / f"{ENTRY_KEY}.json").read_bytes()


def _header_length(data: bytes) -> int:
    """Bytes before the payload string's first character: the
    envelope's schema, checksum and the ``"payload": "`` opener."""
    return data.index(b'"payload": "') + len(b'"payload": "')


def _read(directory: Path, data: bytes):
    (directory / f"{ENTRY_KEY}.json").write_bytes(data)
    cache = ResultCache(directory)
    try:
        result = cache.get(ENTRY_KEY)
    finally:
        quarantined = sorted(directory.glob("*.corrupt"))
        for evidence in quarantined:
            evidence.unlink()
    return cache, result, quarantined


def _assert_rejected(directory: Path, data: bytes) -> None:
    cache, result, quarantined = _read(directory, data)
    assert result is None
    assert (cache.corrupt, cache.quarantined, cache.hits) == (1, 1, 0)
    assert len(quarantined) == 1
    assert not (directory / f"{ENTRY_KEY}.json").exists()


def _assert_original_or_rejected(directory: Path, data: bytes) -> None:
    cache, result, quarantined = _read(directory, data)
    if result is None:
        assert (cache.corrupt, cache.quarantined, cache.hits) == (1, 1, 0)
        assert len(quarantined) == 1
    else:
        assert result == rich_result()
        assert (cache.corrupt, cache.hits) == (0, 1)
        assert not quarantined


def _flip(position, bit: int = 0):
    def damage(data: bytes, header: int) -> bytes:
        out = bytearray(data)
        out[position(len(data), header)] ^= 1 << bit
        return bytes(out)

    return damage


def _truncate(where):
    return lambda data, header: data[: where(len(data), header)]


#: name -> damage(data, header length) over one valid entry file.
DAMAGE = {
    "truncate-empty": _truncate(lambda size, header: 0),
    "truncate-1": _truncate(lambda size, header: 1),
    "truncate-mid-header": _truncate(lambda size, header: header // 2),
    "truncate-at-payload": _truncate(lambda size, header: header),
    "truncate-mid-payload": _truncate(
        lambda size, header: (header + size) // 2
    ),
    "truncate-last-byte": _truncate(lambda size, header: size - 1),
    "flip-payload-first": _flip(lambda size, header: header),
    "flip-payload-mid": _flip(lambda size, header: (header + size) // 2, 3),
    "flip-payload-last-char": _flip(lambda size, header: size - 3, 1),
    "flip-closing-brace": _flip(lambda size, header: size - 1, 7),
    "zero-fill": lambda data, header: bytes(len(data)),
    "zero-fill-payload": lambda data, header: (
        data[:header] + bytes(len(data) - header)
    ),
}


class TestByteRobustness:
    def test_intact_entry_loads(self, tmp_path, entry_bytes):
        cache, result, quarantined = _read(tmp_path, entry_bytes)
        assert result == rich_result()
        assert (cache.hits, cache.corrupt) == (1, 0) and not quarantined

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damage_is_counted_quarantined_never_trusted(
        self, tmp_path, entry_bytes, damage
    ):
        header = _header_length(entry_bytes)
        damaged = DAMAGE[damage](entry_bytes, header)
        assert damaged != entry_bytes
        _assert_rejected(tmp_path, damaged)

    def test_every_header_bit_flip_is_corruption(self, tmp_path, entry_bytes):
        for offset in range(_header_length(entry_bytes)):
            for bit in range(8):
                damaged = bytearray(entry_bytes)
                damaged[offset] ^= 1 << bit
                _assert_rejected(tmp_path, bytes(damaged))

    def test_every_truncation_is_corruption(self, tmp_path, entry_bytes):
        for length in range(len(entry_bytes)):
            _assert_rejected(tmp_path, entry_bytes[:length])

    def test_payload_bit_flips_never_return_a_different_result(
        self, tmp_path, entry_bytes
    ):
        rng = random.Random(0)
        header = _header_length(entry_bytes)
        for offset in range(header, len(entry_bytes)):
            damaged = bytearray(entry_bytes)
            damaged[offset] ^= 1 << rng.randrange(8)
            _assert_original_or_rejected(tmp_path, bytes(damaged))
