"""Tests for the batched lock-step engine (ISSUE 6).

The scalar ``engine="reference"`` :class:`ExecutionSession` is the
byte-identity oracle: every batch property here compares a batch-of-N
against N scalar runs on
result words, retire traces, cycle counts, register files and UART
output.  The peel machinery is exercised through per-lane stimulus
(forced divergence), leader writes that heal dirty bytes before any
read, and platform hooks that make a lane statically ineligible.
"""

from __future__ import annotations

import pytest

from repro.assembler.assembler import Assembler
from repro.assembler.linker import Linker
from repro.core.scheduler import RegressionScheduler, ResultCache
from repro.core.regression import RegressionRunner
from repro.core.targets import TARGET_GOLDEN
from repro.isa.batch import (
    BATCH_EXECUTORS,
    LaneRows,
    ROW_NAMES,
    load_footprint,
)
from repro.isa.decodecache import (
    MEM_LD_B,
    MEM_LD_H,
    MEM_LD_W,
    MEM_LDABS_A,
    MEM_LDABS_D,
    MEM_ST_W,
)
from repro.platforms import (
    BatchSession,
    ExecutionSession,
    GateLevelSim,
    NetlistFault,
    RunStatus,
    make_platform,
)
from repro.soc.derivatives import SC88A
from repro.soc.device import FAIL_MAGIC, PASS_MAGIC

MEMORY_MAP = SC88A.memory_map()
#: A RAM word no workload touches: far from the data segment, the
#: result/signature words and the stack.
STIM_ADDR = 0x1000_8000

SIX = ["golden", "rtl", "gatelevel", "accelerator", "bondout", "silicon"]


def build_image(body: str):
    asm = Assembler()
    obj = asm.assemble_source(f"_main:\n{body}", "t.asm")
    return Linker(
        text_base=MEMORY_MAP.text_base, data_base=MEMORY_MAP.data_base
    ).link([obj])


def reporting_tail(label: str = "") -> str:
    return (
        f"    LOAD d0, {PASS_MAGIC:#x}\n"
        f"    STORE [{MEMORY_MAP.result_address:#x}], d0\n"
        "    HALT\n"
        f"lane_fail{label}:\n"
        f"    LOAD d0, {FAIL_MAGIC:#x}\n"
        f"    STORE [{MEMORY_MAP.result_address:#x}], d0\n"
        "    HALT\n"
    )


#: Branches on the stimulus word: 0 -> PASS, nonzero -> FAIL.
BRANCH_IMAGE = build_image(
    f"""\
    LOAD a4, {STIM_ADDR:#x}
    LD.W d4, [a4]
    CMPI d4, 0
    JNZ lane_fail
"""
    + reporting_tail()
)

#: Overwrites the stimulus word before reading it: divergent stimulus
#: is healed by the leader's store and no lane may peel.
HEAL_IMAGE = build_image(
    f"""\
    LOAD a4, {STIM_ADDR:#x}
    LOAD d3, 7
    ST.W [a4], d3
    LD.W d4, [a4]
    CMPI d4, 7
    JNZ lane_fail
"""
    + reporting_tail()
)


def strip(result):
    """Everything a RunResult carries, as comparable values."""
    return (
        result.platform,
        result.derivative,
        result.status,
        result.instructions,
        result.cycles,
        result.signature,
        result.result_word,
        result.uart_output,
        result.done_pin,
        result.pass_pin,
        result.fault_reason,
        None
        if result.trace is None
        else [(t.pc, t.opcode, t.mnemonic, t.cycles) for t in result.trace],
        result.registers,
    )


def scalar_reference(name, image, stimulus=None):
    session = ExecutionSession(
        make_platform(name), SC88A, engine="reference"
    )
    return session.run(image, stimulus=stimulus)


# --------------------------------------------------------------------------
# LaneRows / batch executors (ISA layer)
# --------------------------------------------------------------------------

class TestLaneRows:
    def test_capture_restore_roundtrip(self):
        session = ExecutionSession(make_platform("golden"), SC88A)
        session.run(BRANCH_IMAGE)
        cpu = session.cpu
        rows = LaneRows(3)
        rows.capture(1, cpu)
        before = {
            "data": list(cpu.regs.data),
            "address": list(cpu.regs.address),
            "pc": cpu.regs.pc,
            "psw": cpu.regs.psw.value,
            "cycles": cpu.cycles,
            "retired": cpu.instructions_retired,
            "halted": cpu.halted,
        }
        # Scramble, then restore from the captured column.
        cpu.regs.data[0] = 0xDEAD
        cpu.regs.pc = 0
        cpu.cycles = 0
        rows.restore(1, cpu)
        assert list(cpu.regs.data) == before["data"]
        assert list(cpu.regs.address) == before["address"]
        assert cpu.regs.pc == before["pc"]
        assert cpu.regs.psw.value == before["psw"]
        assert cpu.cycles == before["cycles"]
        assert cpu.instructions_retired == before["retired"]
        assert cpu.halted == before["halted"]

    def test_divergence_queries(self):
        rows = LaneRows(4)
        assert rows.diverging_lanes() == []
        rows.rows["d3"][2] = 99
        rows.rows["pc"][3] = 0x200
        assert rows.diverging_lanes() == [2, 3]
        assert rows.lane_divergences(0, 2) == ["d3"]
        assert rows.lane_divergences(0, 3) == ["pc"]
        assert rows.column(2)["d3"] == 99

    def test_broadcast(self):
        session = ExecutionSession(make_platform("golden"), SC88A)
        session.run(BRANCH_IMAGE)
        rows = LaneRows(3)
        rows.broadcast(session.cpu)
        assert rows.diverging_lanes() == []
        assert rows.column(0) == rows.column(2)

    def test_row_layout(self):
        assert len(ROW_NAMES) == 16 + 16 + 5
        with pytest.raises(ValueError):
            LaneRows(0)


class TestBatchExecutors:
    def test_covers_exactly_the_simple_loads(self):
        assert set(BATCH_EXECUTORS) == {
            MEM_LD_W, MEM_LD_H, MEM_LD_B, MEM_LDABS_D, MEM_LDABS_A,
        }

    def test_load_lane_wise_application(self):
        class Entry:
            mem_kind = MEM_LD_W
            r1 = 5

        rows = LaneRows(2)
        BATCH_EXECUTORS[MEM_LD_W](rows, 1, Entry, 0x1_2345_6789)
        assert rows.rows["d5"][1] == 0x2345_6789  # masked to a word
        assert rows.rows["d5"][0] == 0

        class AbsEntry:
            mem_kind = MEM_LDABS_A
            r1 = 3

        BATCH_EXECUTORS[MEM_LDABS_A](rows, 0, AbsEntry, 0x40)
        assert rows.rows["a3"][0] == 0x40

    def test_load_footprint(self):
        session = ExecutionSession(make_platform("golden"), SC88A)
        session.run(BRANCH_IMAGE)
        regs = session.cpu.regs

        class Entry:
            mem_kind = MEM_LD_W
            mem_disp = 8
            r2 = 4

        regs.address[4] = 0x1000_0100
        assert load_footprint(regs, Entry) == (0x1000_0108, 4)
        Entry.mem_kind = MEM_LD_B
        assert load_footprint(regs, Entry) == (0x1000_0108, 1)
        Entry.mem_kind = MEM_LDABS_D
        Entry.mem_disp = 0x1000_0200
        assert load_footprint(regs, Entry) == (0x1000_0200, 4)
        Entry.mem_kind = MEM_ST_W
        assert load_footprint(regs, Entry) is None


# --------------------------------------------------------------------------
# batch vs scalar byte-identity (the oracle property)
# --------------------------------------------------------------------------

class TestSixPlatformIdentity:
    def test_workload_image_across_all_platforms(self, nvm_env_small):
        cell = sorted(nvm_env_small.cells)[0]
        image = nvm_env_small.build_image(cell, SC88A, TARGET_GOLDEN).image
        batch = BatchSession(SC88A, [make_platform(n) for n in SIX])
        results = batch.run_batch(image)
        for name, result in zip(SIX, results):
            assert strip(result) == strip(
                scalar_reference(name, image)
            ), name
        stats = batch.stats()
        assert stats["batch_lanes"] == 6
        assert stats["batch_steps"] > 0
        assert stats["sb_blocks"] > 0
        # gatelevel overrides configure_cpu -> statically peeled.
        gate = batch.last_lanes[SIX.index("gatelevel")]
        assert gate.peeled and not gate.batched
        # The lock-step cohort really shares devices: only leaders and
        # peeled lanes ever get a session of their own.
        assert len(batch._sessions) < len(SIX)

    def test_batch_reuse_across_images(self, nvm_env_small):
        cells = sorted(nvm_env_small.cells)[:2]
        batch = BatchSession(SC88A, [make_platform(n) for n in SIX])
        for cell in cells:
            image = nvm_env_small.build_image(
                cell, SC88A, TARGET_GOLDEN
            ).image
            results = batch.run_batch(image)
            for name, result in zip(SIX, results):
                assert strip(result) == strip(
                    scalar_reference(name, image)
                ), (cell, name)

    def test_batch_of_one_degenerates_to_scalar(self):
        batch = BatchSession(SC88A, [make_platform("golden")])
        (result,) = batch.run_batch(BRANCH_IMAGE)
        assert strip(result) == strip(
            scalar_reference("golden", BRANCH_IMAGE)
        )
        stats = batch.stats()
        assert stats["batch_lanes"] == 1
        assert stats["peel_events"] == 0
        assert stats["sb_blocks"] > 0
        lane = batch.last_lanes[0]
        assert lane.batched and not lane.peeled

    def test_result_ordering_matches_lanes(self):
        platforms = [make_platform("golden"), make_platform("silicon")]
        batch = BatchSession(SC88A, platforms)
        results = batch.run_batch(BRANCH_IMAGE)
        assert [r.platform for r in results] == ["golden", "silicon"]


# --------------------------------------------------------------------------
# forced divergence: peel, heal, rejoin
# --------------------------------------------------------------------------

class TestDivergence:
    NAMES = ["golden", "golden", "golden", "rtl"]
    STIMULI = [None, {STIM_ADDR: 1}, {STIM_ADDR: 2}, {STIM_ADDR: 1}]

    def make_batch(self, engine="fast"):
        return BatchSession(
            SC88A, [make_platform(n) for n in self.NAMES], engine=engine
        )

    def test_divergent_stimulus_peels_and_stays_byte_identical(self):
        batch = self.make_batch()
        results = batch.run_batch(BRANCH_IMAGE, stimuli=self.STIMULI)
        statuses = [r.status for r in results]
        assert statuses == [
            RunStatus.PASS, RunStatus.FAIL, RunStatus.FAIL, RunStatus.FAIL,
        ]
        for name, stimulus, result in zip(
            self.NAMES, self.STIMULI, results
        ):
            assert strip(result) == strip(
                scalar_reference(name, BRANCH_IMAGE, stimulus)
            )
        assert batch.peel_events == 2
        # The divergent golden lanes rode the cohort to the fork point.
        assert batch.last_lanes[1].batched and batch.last_lanes[1].peeled
        assert batch.last_lanes[2].batched and batch.last_lanes[2].peeled
        # The rtl lane is its own cohort leader; its stimulus is applied
        # directly, so it never peels.
        assert not batch.last_lanes[3].peeled
        # Lane rows expose the per-lane divergence data.
        diverging = set()
        for lane, names in batch.lane_divergences().items():
            if names:
                diverging.add(lane)
        assert {1, 2}.issubset(diverging)

    def test_healed_stimulus_never_peels(self):
        batch = self.make_batch()
        results = batch.run_batch(HEAL_IMAGE, stimuli=self.STIMULI)
        assert [r.status for r in results] == [RunStatus.PASS] * 4
        assert batch.peel_events == 0
        for name, stimulus, result in zip(
            self.NAMES, self.STIMULI, results
        ):
            assert strip(result) == strip(
                scalar_reference(name, HEAL_IMAGE, stimulus)
            )

    def test_peeled_lanes_rejoin_at_the_next_batch(self):
        batch = self.make_batch()
        batch.run_batch(BRANCH_IMAGE, stimuli=self.STIMULI)
        assert batch.peel_events == 2
        results = batch.run_batch(BRANCH_IMAGE)
        assert [r.status for r in results] == [RunStatus.PASS] * 4
        assert batch.peel_events == 0
        assert all(lane.batched for lane in batch.last_lanes)

    def test_per_step_reference_loop_peels_from_reset(self):
        # The reference engine has no block boundaries, so peels are
        # serviced at end of run by conservative from-reset re-runs —
        # still byte-identical to the per-step scalar oracle.
        batch = self.make_batch(engine="reference")
        results = batch.run_batch(BRANCH_IMAGE, stimuli=self.STIMULI)
        for name, stimulus, result in zip(
            self.NAMES, self.STIMULI, results
        ):
            assert strip(result) == strip(
                scalar_reference(name, BRANCH_IMAGE, stimulus)
            )
        assert batch.peel_events == 2

    def test_stimulus_outside_ram_rejected(self):
        batch = self.make_batch()
        with pytest.raises(ValueError, match="outside RAM"):
            batch.run_batch(
                BRANCH_IMAGE,
                stimuli=[None, {0x9999_0000: 1}, None, None],
            )

    def test_stimulus_count_must_match_lanes(self):
        batch = self.make_batch()
        with pytest.raises(ValueError, match="lanes"):
            batch.run_batch(BRANCH_IMAGE, stimuli=[None])


class TestScalarStimulus:
    def test_scalar_session_applies_stimulus(self):
        session = ExecutionSession(make_platform("golden"), SC88A)
        assert session.run(BRANCH_IMAGE).status is RunStatus.PASS
        assert (
            session.run(BRANCH_IMAGE, stimulus={STIM_ADDR: 5}).status
            is RunStatus.FAIL
        )
        # Stimulus does not leak into the next (reset) run.
        assert session.run(BRANCH_IMAGE).status is RunStatus.PASS

    def test_scalar_session_rejects_rom_stimulus(self):
        session = ExecutionSession(make_platform("golden"), SC88A)
        with pytest.raises(ValueError, match="outside RAM"):
            session.run(BRANCH_IMAGE, stimulus={0x0000_0200: 1})

    def test_stats_has_batch_telemetry_keys(self):
        session = ExecutionSession(make_platform("golden"), SC88A)
        session.run(BRANCH_IMAGE)
        stats = session.stats()
        assert stats["batch_lanes"] == 0
        assert stats["batch_steps"] == 0
        assert stats["peel_events"] == 0


# --------------------------------------------------------------------------
# scheduler integration (the regress matrix rides the batch engine)
# --------------------------------------------------------------------------

class TestSchedulerBatchExecutor:
    def test_batch_matches_serial(self, nvm_env_small):
        serial = RegressionScheduler(executor="serial").run_environment(
            nvm_env_small, SC88A
        )
        batch = RegressionScheduler(executor="batch").run_environment(
            nvm_env_small, SC88A
        )
        assert set(serial.results) == set(batch.results)
        for key in serial.results:
            a, b = serial.results[key], batch.results[key]
            assert (a.status, a.instructions, a.cycles, a.signature,
                    a.result_word, a.uart_output, a.registers) == (
                b.status, b.instructions, b.cycles, b.signature,
                b.result_word, b.uart_output, b.registers), key
        assert batch.clean is serial.clean
        assert batch.batched_runs > 0
        assert batch.executed_runs == serial.executed_runs
        # Per-cell accounting: every run is counted individually, and
        # the summary surfaces the batch bookkeeping.
        assert batch.batched_runs + batch.peeled_runs >= batch.total_runs
        assert "batched in lock-step" in batch.summary()
        assert "batched" not in serial.summary()

    def test_batch_executor_with_cache_accounts_per_cell(
        self, nvm_env_small, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        first = RegressionScheduler(
            executor="batch", cache=cache
        ).run_environment(nvm_env_small, SC88A)
        assert first.cached_runs == 0
        assert first.executed_runs == first.total_runs
        assert first.batched_runs > 0
        second = RegressionScheduler(
            executor="batch", cache=cache
        ).run_environment(nvm_env_small, SC88A)
        assert second.executed_runs == 0
        assert second.cached_runs == second.total_runs
        # Cache hits never ran this time, batched or otherwise.
        assert second.batched_runs == 0
        for key in first.results:
            assert (
                first.results[key].status is second.results[key].status
            )

    def test_batch_executor_respects_overrides(self, nvm_env_small):
        fault = NetlistFault(opcode=0, xor_mask=0)
        report = RegressionRunner(
            platform_overrides={"gatelevel": GateLevelSim(fault=fault)},
            executor="batch",
        ).run_environment(nvm_env_small, SC88A)
        assert report.total_runs == 6 * len(nvm_env_small.cells)
        assert report.batched_runs > 0

    def test_unknown_executor_still_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            RegressionScheduler(executor="lockstep")

    def test_runner_passes_executor_through(self, nvm_env_small):
        runner = RegressionRunner(executor="batch")
        report = runner.run_environment(nvm_env_small, SC88A)
        assert report.batched_runs > 0
        assert report.clean
