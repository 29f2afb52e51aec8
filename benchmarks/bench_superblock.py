"""Superblock benchmarks: straight-line fusion + idle fast-forward.

Records the numbers ISSUE 4 ties the execution core to, against the
``engine="reference"`` session (per-step bus fetch, the ``if/elif``
chain and one peripheral walk per instruction):

- instructions/sec on the **delay-heavy** workloads — one-shot timer
  delays (``Base_Timer_Delay``: calibrated pure spin between status
  polls) and raw busy-wait burns (``Base_Spin``) — where the idle
  fast-forward warps the spin iterations the program only counts,
  asserting the >= 2x target (>= 1.5x in ``--quick`` mode);
- byte-identical architectural outcomes — signature, cycles, retire
  totals, IRQ-delivery timing — against the reference engine, plus a
  traced golden run proving the retire trace itself is unchanged (since
  ISSUE 5 the fast path stays on under observation and synthesizes
  the warped trace records; ``bench_trace_fastpath.py`` measures that
  win);
- the chaining win on a branchy ALU loop with no idle spins (fusion +
  block-to-block chaining only);
- the mechanism observables: warps performed, and that the reference
  engine performs none.

Runs on the bondout platform — full register/memory visibility without
the always-on instruction trace, i.e. the unobserved fast path.

Emits ``BENCH_superblock.json`` next to the repository root.  Also
runnable as a script: ``python benchmarks/bench_superblock.py
[--quick]`` — the CI perf-smoke job uses ``--quick`` and fails the
build if the speedup floor or any equivalence assertion trips.
"""

from __future__ import annotations

import sys
import time

from repro.core.workloads import (
    make_delay_environment,
    make_timer_environment,
)
from repro.core.targets import TARGET_BONDOUT, TARGET_GOLDEN
from repro.platforms import Bondout, ExecutionSession, GoldenModel
from repro.soc.derivatives import SC88A
from repro.soc.device import PASS_MAGIC

from conftest import shape
from _harness import engine_matrix, BenchResults, best_rate, strip_result as strip

MEMORY_MAP = SC88A.memory_map()

RESULTS = BenchResults("superblock")
RESULTS["engine_matrix"] = engine_matrix(
    candidate={"engine": "fast"},
    reference={"engine": "reference"},
)

#: Full (pytest/CI bench) and quick (perf-smoke gate) configurations.
FULL = {
    "delay_ticks": (60_000, 120_000),
    "spin_loops": (150_000,),
    "repeats": 3,
    "min_speedup": 2.0,
    "mode": "full",
}
QUICK = {
    "delay_ticks": (15_000,),
    "spin_loops": (40_000,),
    "repeats": 2,
    "min_speedup": 1.5,
    "mode": "quick",
}

LOOP_ITERATIONS = 40_000

#: Branchy ALU loop with no idle spins: measures fusion + chaining
#: alone (every superblock here ends in a memory micro-op or branch).
CHAIN_SOURCE = f"""\
_main:
    LOAD a1, {MEMORY_MAP.ram.base:#x}
    LOAD d1, {LOOP_ITERATIONS}
loop:
    ADDI d2, d2, 3
    XOR d3, d3, d2
    SHLI d4, d2, 5
    ST.W [a1], d4
    LD.W d5, [a1]
    SUB d6, d5, d3
    CMPI d6, 0
    JZ skip
    ANDI d6, d6, 0xFF
skip:
    DJNZ d1, loop
    LOAD d0, {PASS_MAGIC:#x}
    HALT
"""


def timed_run(image, *, engine: str):
    session = ExecutionSession(Bondout(), SC88A, engine=engine)
    start = time.perf_counter()
    result = session.run(image)
    elapsed = time.perf_counter() - start
    assert result.signature == PASS_MAGIC, engine
    return result.instructions / elapsed, result, session.cpu.ff_warps


def delay_images(config):
    env = make_delay_environment(
        delay_ticks=config["delay_ticks"], spin_loops=config["spin_loops"]
    )
    return [
        (cell, env.build_image(cell, SC88A, TARGET_BONDOUT).image)
        for cell in env.cells
    ]


def run_delay_speedup(config) -> dict:
    """The acceptance number: fast engine vs the reference engine on the
    delay-heavy workloads, byte-identical before any speed claim."""
    repeats = config["repeats"]
    per_cell = {}
    total_fast = 0.0
    total_reference = 0.0
    warps_total = 0
    for cell, image in delay_images(config):
        fast_ips, (fast_result, fast_warps) = best_rate(
            repeats, lambda: timed_run(image, engine="fast")
        )
        reference_ips, (reference_result, reference_warps) = best_rate(
            repeats, lambda: timed_run(image, engine="reference")
        )
        # Byte-identical architecture before any speed claim
        # (signature, cycles, retires, pins, UART).
        assert strip(fast_result) == strip(reference_result), cell
        assert fast_warps > 0, f"{cell}: fast-forward never fired"
        assert reference_warps == 0
        instructions = fast_result.instructions
        total_fast += instructions / fast_ips
        total_reference += instructions / reference_ips
        warps_total += fast_warps
        per_cell[cell] = {
            "instructions": instructions,
            "reference_ips": round(reference_ips),
            "fast_ips": round(fast_ips),
            "speedup": round(fast_ips / reference_ips, 2),
            "warps": fast_warps,
        }
    speedup = total_reference / total_fast
    return {
        "per_cell": per_cell,
        "speedup": round(speedup, 2),
        "min_required": config["min_speedup"],
        "warps": warps_total,
        "mode": config["mode"],
    }


def run_chain_speedup(config) -> dict:
    """Fusion + chaining alone (no idle spins in the loop)."""
    from repro.assembler.assembler import Assembler
    from repro.assembler.linker import Linker

    obj = Assembler().assemble_source(CHAIN_SOURCE, "bench.asm")
    image = Linker(
        text_base=MEMORY_MAP.text_base, data_base=MEMORY_MAP.data_base
    ).link([obj])
    repeats = config["repeats"]
    fast_ips, (fast_result, fast_warps) = best_rate(
        repeats, lambda: timed_run(image, engine="fast")
    )
    reference_ips, (reference_result, _) = best_rate(
        repeats, lambda: timed_run(image, engine="reference")
    )
    assert strip(fast_result) == strip(reference_result)
    assert fast_warps == 0  # no idle spins here: pure chaining
    return {
        "reference_ips": round(reference_ips),
        "fast_ips": round(fast_ips),
        "speedup": round(fast_ips / reference_ips, 2),
    }


def run_irq_timing_and_trace_identity() -> dict:
    """IRQ-delivery timing on the interrupt-heavy timer suite, and the
    retire trace on a traced golden run, must be byte-identical."""
    env = make_timer_environment()
    cells_checked = 0
    for cell in env.cells:
        image = env.build_image(cell, SC88A, TARGET_BONDOUT).image
        fast, reference = (
            strip(timed_run(image, engine=engine)[1])
            for engine in ("fast", "reference")
        )
        assert fast == reference, cell
        cells_checked += 1
    # Traced golden runs: since ISSUE 5 the fast path stays on under
    # observation — warps fire and synthesize their trace records, and
    # the retire stream stays byte-identical to the reference.
    golden_env = make_delay_environment(
        delay_ticks=(2_000,), spin_loops=(5_000,)
    )
    traced_cells = 0
    for cell in golden_env.cells:
        image = golden_env.build_image(cell, SC88A, TARGET_GOLDEN).image
        fast_session = ExecutionSession(GoldenModel(), SC88A)
        fast = fast_session.run(image)
        reference = ExecutionSession(
            GoldenModel(), SC88A, engine="reference"
        ).run(image)
        assert strip(fast) == strip(reference), cell
        assert fast.trace is not None
        assert fast_session.cpu.ff_warps > 0  # observed warp (ISSUE 5)
        traced_cells += 1
    return {"irq_cells": cells_checked, "traced_cells": traced_cells}


# ---------------------------------------------------------------------------
# pytest entry points (full configuration)
# ---------------------------------------------------------------------------

def test_delay_fastforward_speedup():
    numbers = run_delay_speedup(FULL)
    RESULTS["delay_fast_forward"] = numbers
    shape(
        "superblock: delay-heavy workloads "
        f"{numbers['speedup']:.2f}x vs the reference engine "
        f"({numbers['warps']} idle warps), byte-identical to it"
    )
    assert numbers["speedup"] >= FULL["min_speedup"], (
        f"superblock speedup {numbers['speedup']:.2f}x below "
        f"{FULL['min_speedup']}x target"
    )


def test_chaining_on_branchy_loop():
    numbers = run_chain_speedup(FULL)
    RESULTS["chaining"] = numbers
    shape(
        "superblock: branchy ALU loop (no idle spins) "
        f"{numbers['reference_ips']:,} -> {numbers['fast_ips']:,} "
        "instr/sec "
        f"({numbers['speedup']:.2f}x fast vs reference engine)"
    )
    assert numbers["speedup"] >= 1.0


def test_irq_timing_and_trace_identity_and_emit_json():
    numbers = run_irq_timing_and_trace_identity()
    RESULTS["equivalence"] = numbers
    shape(
        f"superblock: {numbers['irq_cells']} interrupt-heavy runs and "
        f"{numbers['traced_cells']} traced runs byte-identical on the "
        "fast and reference engines"
    )
    path = RESULTS.emit()
    shape(f"superblock: wrote {path.name}")


# ---------------------------------------------------------------------------
# script mode: the CI perf-smoke gate
# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    config = QUICK if quick else FULL
    try:
        delay = run_delay_speedup(config)
        chain = run_chain_speedup(config)
        equivalence = run_irq_timing_and_trace_identity()
    except AssertionError as failure:
        print(f"FAIL: {failure}")
        return 1
    RESULTS["delay_fast_forward"] = delay
    RESULTS["chaining"] = chain
    RESULTS["equivalence"] = equivalence
    path = RESULTS.emit()
    print(
        f"superblock[{config['mode']}]: delay speedup {delay['speedup']}x "
        f"(floor {config['min_speedup']}x), chaining {chain['speedup']}x, "
        f"{equivalence['irq_cells']} IRQ + {equivalence['traced_cells']} "
        f"traced cells byte-identical -> {path.name}"
    )
    if delay["speedup"] < config["min_speedup"]:
        print(
            f"FAIL: speedup {delay['speedup']}x below the "
            f"{config['min_speedup']}x floor"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
