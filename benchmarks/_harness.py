"""Shared timing and JSON-emission plumbing for the benchmark scripts.

Every ``bench_*`` module used to carry its own copy of the same three
pieces: a best-of-N wall-clock helper, a module-level results dict, and
the ``BENCH_<name>.json`` emission next to the repository root.  They
live here once; CI uploads every ``BENCH_*.json`` as a single artifact
so the perf trajectory is tracked across PRs.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

#: Benchmarks emit their JSON next to the repository root.
REPO_ROOT = Path(__file__).resolve().parents[1]


def strip_result(result):
    """The comparable engine-visible outcome of a run — the tuple the
    equivalence benches diff between engine configurations."""
    return (
        result.status,
        result.signature,
        result.result_word,
        result.instructions,
        result.cycles,
        result.uart_output,
        result.done_pin,
        result.pass_pin,
        None
        if result.trace is None
        else [(t.pc, t.opcode, t.mnemonic, t.cycles) for t in result.trace],
    )


def assert_identical(pairs, label: str = "") -> None:
    """Byte-identity gate: every ``(candidate, reference)`` result pair
    must strip to the same tuple.  Benches call this on the full
    platform matrix *before* any speed claim — a fast engine that
    diverges is a broken engine, not a fast one."""
    for index, (candidate, reference) in enumerate(pairs):
        assert strip_result(candidate) == strip_result(reference), (
            f"{label}[{index}]: engine results diverge from the reference"
        )


def engine_matrix(**configurations) -> dict:
    """The engine matrix a bench compared, embedded in its JSON so every
    figure is traceable to the exact engine configurations that
    produced it (e.g. ``engine_matrix(candidate={'engine': 'fast'},
    reference={'engine': 'reference'})``)."""
    return {name: dict(flags) for name, flags in configurations.items()}


def best_of(repeats: int, fn):
    """Run *fn* *repeats* times; returns ``(best_elapsed_s, value)``
    where *value* is the result of the best (fastest) run."""
    best = None
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best, value = elapsed, result
    return best, value


def interleaved_min(min_time_s: float, candidate, reference, min_pairs=5):
    """Time two closures as alternating pairs, swapping which runs
    first in each pair, until each side has spent at least
    *min_time_s* of wall time (and at least *min_pairs* pairs ran).

    Drift (frequency scaling, caches, background load) then lands on
    both sides instead of biasing whichever ran last.  As in
    :mod:`timeit`, the garbage collector is off inside each timed call,
    and every call starts from a freshly collected heap, so neither
    side pays for the other's cyclic garbage.  Returns a dict
    with each side's ``min_s``/``median_s``, the ``pairs`` count and
    the last ``values`` each closure returned, as ``(candidate,
    reference)`` pairs."""
    fns = (candidate, reference)
    samples: tuple[list[float], list[float]] = ([], [])
    values = [None, None]
    pairs = 0
    while pairs < min_pairs or min(sum(s) for s in samples) < min_time_s:
        order = (0, 1) if pairs % 2 == 0 else (1, 0)
        for index in order:
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                values[index] = fns[index]()
                samples[index].append(time.perf_counter() - start)
            finally:
                gc.enable()
        pairs += 1
    return {
        "min_s": tuple(min(s) for s in samples),
        "median_s": tuple(statistics.median(s) for s in samples),
        "pairs": pairs,
        "values": tuple(values),
    }


def best_rate(repeats: int, fn):
    """Run *fn* (which returns ``(rate, *extras)``) *repeats* times;
    returns ``(best_rate, extras)`` from the highest-rate run."""
    best = None
    extras = None
    for _ in range(repeats):
        rate, *rest = fn()
        if best is None or rate > best:
            best, extras = rate, rest
    return best, extras


class BenchResults:
    """Accumulates one benchmark module's numbers and emits the JSON.

    Behaves like a dict (the benches fill sections test by test); the
    final test of the module calls :meth:`emit`.
    """

    def __init__(self, name: str):
        self.name = name
        self.path = REPO_ROOT / f"BENCH_{name}.json"
        self.data: dict = {}

    def __setitem__(self, key: str, value) -> None:
        self.data[key] = value

    def __getitem__(self, key: str):
        return self.data[key]

    def emit(self) -> Path:
        """Write ``BENCH_<name>.json``; returns the path."""
        self.path.write_text(json.dumps(self.data, indent=2) + "\n")
        return self.path
