"""A reset costs what the run touched, and changes no result.

- :meth:`Memory.clear` refills the extent :meth:`Memory.load` recorded
  for a read-only memory and the whole buffer for a writable one;
- :meth:`SystemOnChip.full_reset` returns ROM, RAM, the NVM array, the
  peripherals and the page table to a just-constructed device's state;
- a run on a reused session equals the same run on a fresh one, even
  after a run that loaded ROM elsewhere, wrote RAM and programmed NVM;
- the peripherals' compiled field and register tables agree with the
  layout's own ``Field.extract`` / ``Field.insert`` / ``register_at``
  on every derivative;
- a finished pass's devices are freed by reference counting alone.
"""

from __future__ import annotations

import copy
import gc
import weakref
from dataclasses import replace

import pytest

from repro.assembler.linker import PlacedSection
from repro.core.environment import ModuleTestEnvironment, TestCell
from repro.core.scheduler import RegressionScheduler
from repro.core.targets import TARGET_GOLDEN, all_targets
from repro.core.workloads import make_nvm_environment
from repro.platforms import PLATFORM_CLASSES, ExecutionSession
from repro.soc import device as device_module
from repro.soc.bus import Bus, BusError, Memory
from repro.soc.derivatives import SC88A, all_derivatives
from repro.soc.device import PASS_MAGIC, SystemOnChip
from repro.soc.memorymap import NVM_PAGE_BYTES
from repro.soc.registers import Access

MEMORY_MAP = SC88A.memory_map()
#: A ROM word far above every linked image's text.
FAR_ROM = MEMORY_MAP.rom.end - 0x100
#: A RAM word no test cell's code touches.
SCRATCH = MEMORY_MAP.ram.base + 0x8000


# ---------------------------------------------------------------------------
# Memory.clear
# ---------------------------------------------------------------------------

class TestMemoryClear:
    def test_clear_refills_every_loaded_extent_only(self):
        mem = Memory(0x1000, read_only=True)
        mem.load(0x400, b"\x11" * 0x10)
        mem.load(0x800, b"\x22" * 0x10)  # above the first
        mem.load(0x100, b"\x33" * 0x10)  # below the first
        mem.load(0x3F8, b"\x44" * 0x20)  # grows the first on both sides
        # A byte no load wrote: clear must not touch it (nothing but
        # load can change a read-only memory, so clear never needs to).
        mem.data[0xC00] = 0x77
        mem.clear()
        expected = bytearray(0x1000)
        expected[0xC00] = 0x77
        assert mem.data == expected
        assert mem._loaded == set()

    def test_clear_without_load_leaves_buffer(self):
        mem = Memory(0x100, read_only=True)
        buffer = mem.data
        mem.clear()
        assert mem.data is buffer and mem.data == bytes(0x100)

    def test_full_buffer_restore_is_cleared_whole(self):
        mem = Memory(0x200, read_only=True)
        mem.load(0, bytes(range(256)) * 2)
        mem.clear()
        assert mem.data == bytes(0x200)

    def test_extents_reset_after_clear(self):
        mem = Memory(0x200, read_only=True)
        mem.load(0, b"\xAA" * 0x200)
        mem.clear()
        mem.load(0x10, b"\xBB" * 4)
        mem.load(0x10, b"\xCC" * 4)  # the same page programmed twice
        assert mem._loaded == {(0x10, 0x14)}
        mem.clear()
        assert mem.data == bytes(0x200)

    def test_nonzero_fill_is_restored(self):
        mem = Memory(0x100, read_only=True, fill=0xFF)
        mem.load(0x20, bytes(8))
        mem.load(0xF8, bytes(8))
        mem.clear()
        assert mem.data == b"\xff" * 0x100

    def test_writable_memory_written_through_word_buffer(self):
        bus = Bus()
        ram = Memory(0x1000, fill=0x5A)
        mapping = bus.attach("ram", 0x0, 0x1000, ram)
        buffer = ram.data
        assert mapping.word_wbuf is buffer
        # A CPU store lands in the buffer in place: no load, no extent.
        bus.write_word(0xFF0, 0xDEADBEEF)
        bus.write(0x3, 0x12, 1)
        assert ram._loaded == set()
        ram.clear()
        assert ram.data == b"\x5a" * 0x1000
        # Refilled in place: the bus's word buffer is still the data.
        assert ram.data is buffer and mapping.word_wbuf is buffer


# ---------------------------------------------------------------------------
# full_reset == a just-constructed device
# ---------------------------------------------------------------------------

def _device_state(soc: SystemOnChip):
    return (
        bytes(soc.rom.data),
        bytes(soc.ram.data),
        bytes(soc.nvm.array.data),
        {
            name: peripheral.lane_state()
            for name, peripheral in soc._named_peripherals()
        },
        soc.bus.access_count,
        {page: mapping.name for page, mapping in soc.bus.page_table.items()},
    )


@pytest.fixture(scope="module")
def nvm_image():
    """A real NVM page test: programs an NVM page and writes RAM."""
    env = make_nvm_environment(1, derivatives=[SC88A])
    return env.build_image(next(iter(env.cells)), SC88A, TARGET_GOLDEN).image


def _with_far_rom(image):
    """*image* plus a ROM segment far from its own text."""
    far = PlacedSection("far", "far_rom", FAR_ROM, b"\xC3\x5A\xA5\x3C" * 64)
    return replace(image, segments=list(image.segments) + [far])


class TestFullReset:
    def test_full_reset_equals_fresh_device(self, nvm_image):
        fresh = SystemOnChip(SC88A)
        baseline = _device_state(fresh)
        session = ExecutionSession(PLATFORM_CLASSES["golden"](), SC88A)
        result = session.run(_with_far_rom(nvm_image))
        soc = session.soc
        # The run really left a footprint in every memory.
        assert result.signature == PASS_MAGIC
        assert soc.nvm.operation_log
        assert soc.rom.data[FAR_ROM - MEMORY_MAP.rom.base] == 0xC3
        assert soc.result_word() == PASS_MAGIC
        soc.full_reset()
        assert _device_state(soc) == baseline

    def test_restored_lane_state_is_cleared_whole(self, nvm_image):
        donor = SystemOnChip(SC88A)
        donor.load_image(_with_far_rom(nvm_image))
        state = donor.snapshot_lane_state()
        soc = SystemOnChip(SC88A)
        baseline = _device_state(soc)
        soc.restore_lane_state(state)
        soc.full_reset()
        assert _device_state(soc) == baseline

    def test_reset_clears_ram_only(self):
        soc = SystemOnChip(SC88A)
        soc.bus.poke_word(SCRATCH, 0x1234_5678)
        soc.rom.load(0x40, b"\x01\x02\x03\x04")
        soc.reset()
        assert soc.bus.peek_word(SCRATCH) == 0
        assert soc.rom.data[0x40:0x44] == b"\x01\x02\x03\x04"

    def test_rebuild_dispatch_keeps_table_object(self):
        soc = SystemOnChip(SC88A)
        table = soc.bus.page_table
        expected = dict(table)
        table.clear()
        soc.bus.rebuild_dispatch()
        assert soc.bus.page_table is table
        assert table == expected


# ---------------------------------------------------------------------------
# a run after another run == the same run on a fresh session
# ---------------------------------------------------------------------------

def _probe_source(nvm_page: int) -> str:
    """A cell whose every observable folds in bytes the previous
    tenant may have left: the far ROM word, the programmed NVM page,
    the result word and a RAM scratch word."""
    nvm_word = MEMORY_MAP.nvm.base + nvm_page * NVM_PAGE_BYTES
    lines = [".INCLUDE Globals.inc", "_main:", "    LOAD d0, 0"]
    for address in (
        FAR_ROM,
        nvm_word,
        nvm_word + NVM_PAGE_BYTES - 4,
        MEMORY_MAP.result_address,
        SCRATCH,
    ):
        lines += [f"    LOAD d1, [{address:#x}]", "    XOR d0, d0, d1"]
    lines += [f"    STORE [{SCRATCH + 4:#x}], d0", "    HALT"]
    return "\n".join(lines) + "\n"


def _observed_run(session: ExecutionSession, image):
    ctx = session.begin(image, force_trace=True)
    try:
        session.drive(ctx)
    finally:
        session.finish(ctx)
    result = session.observe(ctx)
    return (
        result.status,
        result.signature,
        result.result_word,
        result.done_pin,
        result.pass_pin,
        result.instructions,
        result.cycles,
        list(session.cpu.trace.raw()),
        list(ctx.bus_trace.raw()),
    )


@pytest.mark.parametrize("platform_name", sorted(PLATFORM_CLASSES))
def test_second_tenant_matches_fresh_session(nvm_image, platform_name):
    first = _with_far_rom(nvm_image)
    probe = ExecutionSession(PLATFORM_CLASSES["golden"](), SC88A)
    probe.run(first)
    (op, page), *_ = probe.soc.nvm.operation_log
    assert op == "prog"

    env = ModuleTestEnvironment("RESETPROBE")
    env.add_test(TestCell(name="TEST_PROBE", source=_probe_source(page)))
    second = env.build_image("TEST_PROBE", SC88A, TARGET_GOLDEN).image

    def session():
        platform = PLATFORM_CLASSES[platform_name]()
        platform.record_bus_trace = True
        return ExecutionSession(platform, SC88A)

    reused = session()
    _observed_run(reused, first)
    assert reused.soc.nvm.page_bytes(page) != bytes(NVM_PAGE_BYTES)
    after_first = _observed_run(reused, second)
    assert after_first == _observed_run(session(), second)


# ---------------------------------------------------------------------------
# compiled field and register tables == the layout's own queries
# ---------------------------------------------------------------------------

REGISTER_VALUES = (0, 0xFFFF_FFFF, 0xA5A5_5A5A, 0x1234_5678, 0x8000_0001)
FIELD_VALUES = (0, 1, 0x3F, 0xFFFF_FFFF, 0x1_0000_0005)


def _peripherals(derivative):
    return SystemOnChip(derivative)._named_peripherals()


def _reference_access(peripheral, op, offset, value=None):
    """SFR access the way the layout describes it: ``register_at``
    resolution plus the RO/WO/W1C rules, with no compiled table."""
    reg = peripheral.layout.register_at(offset)
    if reg is None:
        raise BusError("no register", offset)
    if op == "read":
        if reg.access == Access.WO:
            return 0
        return peripheral.on_read(reg, peripheral.values[reg.name]) & (
            0xFFFF_FFFF
        )
    value &= 0xFFFF_FFFF
    if reg.access == Access.RO:
        return None
    if reg.access == Access.W1C:
        peripheral.values[reg.name] &= ~value
    else:
        peripheral.values[reg.name] = value
    peripheral.on_write(reg, value)
    return None


def _outcome(call):
    try:
        return ("ok", call())
    except BusError as error:
        return ("bus-error", error.address)


def _state(peripheral):
    return {
        key: value
        for key, value in peripheral.__dict__.items()
        if key not in peripheral._LANE_STATE_SKIP and key != "array"
    }


@pytest.mark.parametrize(
    "derivative", all_derivatives(), ids=lambda d: d.name
)
class TestCompiledLayout:
    def test_field_value_and_set_field_match_layout(self, derivative):
        checked = 0
        for _name, peripheral in _peripherals(derivative):
            for reg in peripheral.layout.registers:
                for fld in reg.fields:
                    for register_value in REGISTER_VALUES:
                        peripheral.values[reg.name] = register_value
                        assert peripheral.field_value(
                            reg.name, fld.name
                        ) == fld.extract(register_value)
                        for field_value in FIELD_VALUES:
                            peripheral.values[reg.name] = register_value
                            peripheral.set_field(
                                reg.name, fld.name, field_value
                            )
                            assert peripheral.values[reg.name] == fld.insert(
                                register_value, field_value
                            )
                            checked += 1
            peripheral.reset()
        assert checked > 0

    def test_unknown_field_raises_key_error(self, derivative):
        for _name, peripheral in _peripherals(derivative):
            reg = peripheral.layout.registers[0]
            with pytest.raises(KeyError):
                peripheral.field_value(reg.name, "NO_SUCH_FIELD")

    def test_sfr_access_resolves_like_register_at(self, derivative):
        for _name, peripheral in _peripherals(derivative):
            size = peripheral.layout.size
            for offset in range(0, size + 8):
                for op, value in (
                    ("read", None),
                    ("write", 0xFFFF_FFFF),
                    ("write", 0x8000_0003),
                    ("read", None),
                ):
                    fast = copy.deepcopy(peripheral)
                    reference = copy.deepcopy(peripheral)
                    if op == "read":
                        got = _outcome(lambda: fast.read(offset, 4))
                    else:
                        got = _outcome(lambda: fast.write(offset, value, 4))
                    want = _outcome(
                        lambda: _reference_access(reference, op, offset, value)
                    )
                    assert got == want, (peripheral.name, op, offset)
                    assert _state(fast) == _state(reference)
                    peripheral = fast

    def test_word_access_required(self, derivative):
        for _name, peripheral in _peripherals(derivative):
            with pytest.raises(BusError, match="word access"):
                peripheral.read(0, 2)
            with pytest.raises(BusError, match="word access"):
                peripheral.write(0, 0, 1)

    def test_lane_state_leaves_compiled_tables_out(self, derivative):
        for _name, peripheral in _peripherals(derivative):
            state = peripheral.lane_state()
            assert "_field_table" not in state
            assert "_register_table" not in state
            assert "_reset_values" not in state
            clone = copy.deepcopy(peripheral)
            clone.load_lane_state(state)
            assert clone._field_table == peripheral._field_table


# ---------------------------------------------------------------------------
# device lifetime
# ---------------------------------------------------------------------------

def test_pass_devices_die_without_cyclic_gc(monkeypatch):
    created: list[weakref.ref] = []
    original_init = device_module.SystemOnChip.__init__

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        created.append(weakref.ref(self))

    monkeypatch.setattr(device_module.SystemOnChip, "__init__", tracking_init)
    environments = {"NVM": make_nvm_environment(1, derivatives=[SC88A])}
    scheduler = RegressionScheduler(targets=all_targets(), executor="serial")
    gc.collect()
    gc.disable()
    try:
        report = scheduler.run_system(environments, SC88A)
        assert report.executed_runs == len(all_targets())
        assert created
        alive = [ref for ref in created if ref() is not None]
        assert not alive, f"{len(alive)} of {len(created)} devices alive"
    finally:
        gc.enable()
