"""Generated-program differential test: fast engine vs reference engine.

A hypothesis strategy writes legal test cells that mix

- ALU and flag ops, flag-driven forward branches and ``RDPSW``;
- every memory micro-op kind (``LD``/``ST`` in word, halfword and byte
  width, ``PUSH``/``POP`` of data and address registers, and the
  absolute ``LOAD``/``STORE`` forms) on a RAM scratch area;
- a timer SFR write in the middle of the hot loop body;
- a ``DJNZ`` idle spin;
- optionally ``EI`` with a running timer IRQ.

Each image runs on all six platforms on ``engine="fast"`` and on
``engine="reference"``; status, signature, instruction count, cycles,
the retire trace and the bus trace must be equal.  The loop runs past
the JIT threshold, so compiled chains are covered as well as the
superblock interpreter, the warp and the observed template replay.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.environment import ModuleTestEnvironment, TestCell
from repro.core.targets import TARGET_GOLDEN
from repro.isa.jit import JIT_THRESHOLD
from repro.platforms import PLATFORM_CLASSES, ExecutionSession
from repro.soc.derivatives import SC88A

MEMORY_MAP = SC88A.memory_map()
#: 256-byte RAM scratch area no other code touches.
SCRATCH = MEMORY_MAP.ram.base + 0x8000

#: Registers the generated body may clobber.  d1 counts the loop, d5
#: the spin, d15 holds the timer reload value; a1 is the scratch base
#: and a4 points at the timer reload SFR.
DATA_REGS = ("d2", "d3", "d7", "d8", "d9", "d10", "d12")
TEMP_ADDR_REGS = ("a2", "a3")

data_reg = st.sampled_from(DATA_REGS)

RRR_OPS = ("ADD", "SUB", "AND", "OR", "XOR", "SHL", "SHR", "SAR", "MUL")
IMM_OPS = ("ANDI", "ORI", "XORI")
SHIFT_OPS = ("SHLI", "SHRI", "SARI")
BRANCHES = ("JZ", "JNZ", "JC", "JNC", "JN", "JNN", "JV", "JNV",
            "JGE", "JLT", "JGT", "JLE")


@st.composite
def alu_op(draw) -> list[str]:
    kind = draw(st.integers(0, 9))
    rd, ra, rb = draw(data_reg), draw(data_reg), draw(data_reg)
    if kind == 0:
        return [f"{draw(st.sampled_from(RRR_OPS))} {rd}, {ra}, {rb}"]
    if kind == 1:
        imm = draw(st.integers(0, 0xFFFF))
        return [f"{draw(st.sampled_from(IMM_OPS))} {rd}, {ra}, {imm:#x}"]
    if kind == 2:
        shift = draw(st.integers(0, 31))
        return [f"{draw(st.sampled_from(SHIFT_OPS))} {rd}, {ra}, {shift}"]
    if kind == 3:
        return [f"ADDI {rd}, {ra}, {draw(st.integers(-0x8000, 0x7FFF))}"]
    if kind == 4:
        op = draw(st.sampled_from(("NOT", "NEG", "MOV")))
        return [f"{op} {rd}, {ra}"]
    if kind == 5:
        if draw(st.booleans()):
            return [f"CMP {ra}, {rb}"]
        return [f"CMPI {ra}, {draw(st.integers(-0x8000, 0x7FFF))}"]
    if kind == 6:
        if draw(st.booleans()):
            return [f"MOVI {rd}, {draw(st.integers(-0x8000, 0x7FFF))}"]
        return [f"MOVHI {rd}, {draw(st.integers(0, 0xFFFF)):#x}"]
    if kind == 7:
        pos = draw(st.integers(0, 31))
        width = draw(st.integers(1, 32 - pos))
        op = draw(st.sampled_from(("EXTRU", "EXTRS")))
        if draw(st.booleans()):
            return [f"INSERTR {rd}, {ra}, {rb}, {pos}, {width}"]
        return [f"{op} {rd}, {ra}, {pos}, {width}"]
    if kind == 8:
        op = draw(st.sampled_from(("SETB", "CLRB", "TGLB", "TSTB")))
        return [f"{op} {rd}, {draw(st.integers(0, 31))}"]
    # Unsigned divide by a divisor forced nonzero (no trap).
    return [f"ORI {rb}, {rb}, 1", f"DIVU {rd}, {ra}, {rb}", f"RDPSW {rd}"]


#: Memory micro-op groups; every program emits each group once, in a
#: drawn order, so all fourteen micro-op kinds run in every image.
MEM_GROUPS = (
    "LD.W", "LD.H", "LD.B", "ST.W", "ST.H", "ST.B",
    "LDABS_D", "LDABS_A", "STABS_D", "STABS_A", "PUSHPOP_D", "PUSHPOP_A",
)
_ALIGN = {"W": 4, "H": 2, "B": 1}


@st.composite
def mem_op(draw, group: str) -> list[str]:
    """*group*'s micro-op(s) on the scratch area; a push comes with its
    pop so the stack stays balanced."""
    rd = draw(data_reg)
    ra = draw(st.sampled_from(TEMP_ADDR_REGS))
    any_addr = draw(st.sampled_from(("a1",) + TEMP_ADDR_REGS))
    address = SCRATCH + draw(st.integers(0, 63)) * 4
    if group[:3] in ("LD.", "ST."):
        width = group[3]
        offset = draw(st.integers(0, 252 // _ALIGN[width])) * _ALIGN[width]
        if group.startswith("LD."):
            return [f"LD.{width} {rd}, [a1 + {offset}]"]
        return [f"ST.{width} [a1 + {offset}], {rd}"]
    return {
        "LDABS_D": [f"LOAD {rd}, [{address:#x}]"],
        "LDABS_A": [f"LOAD {ra}, [{address:#x}]"],
        "STABS_D": [f"STORE [{address:#x}], {rd}"],
        "STABS_A": [f"STORE [{address:#x}], {any_addr}"],
        "PUSHPOP_D": [f"PUSH {rd}", f"POP {draw(data_reg)}"],
        "PUSHPOP_A": [f"PUSH {any_addr}", f"POP {ra}"],
    }[group]


@st.composite
def branch_op(draw, label: str) -> list[str]:
    """A flag-setting compare and a forward branch over one op."""
    return [
        f"CMP {draw(data_reg)}, {draw(data_reg)}",
        f"{draw(st.sampled_from(BRANCHES))} {label}",
        *draw(alu_op()),
        f"{label}:",
    ]


@st.composite
def program_source(draw) -> str:
    """A whole test cell: prologue, hot loop, idle spin, epilogue."""
    body: list[str] = []
    for index, group in enumerate(draw(st.permutations(MEM_GROUPS))):
        body += draw(mem_op(group))
        for extra in draw(st.lists(st.booleans(), max_size=2)):
            if extra:
                body += draw(branch_op(f"skip_{index}_{len(body)}"))
            else:
                body += draw(alu_op())
    # The SFR write lands mid-body: the store ends its block and cuts
    # the event horizon while a chain is in flight.
    sfr = (
        "ST.W [a4], d15"
        if draw(st.booleans())
        else "STORE [TIM_RELOAD_ADDR], d15"
    )
    body.insert(draw(st.integers(1, len(body) - 1)), sfr)

    irq = draw(st.booleans())
    lines = [".INCLUDE Globals.inc", "_main:"]
    seeds = draw(
        st.lists(
            st.integers(0, 0xFFFF_FFFF),
            min_size=len(DATA_REGS),
            max_size=len(DATA_REGS),
        )
    )
    lines += [
        f"    LOAD {reg}, {seed:#x}" for reg, seed in zip(DATA_REGS, seeds)
    ]
    lines += [
        f"    LOAD a1, {SCRATCH:#x}",
        "    LOAD a2, 0",
        "    LOAD a3, 0",
        f"    LOAD d15, {draw(st.integers(100, 300))}",
    ]
    if irq:
        lines += [
            "    LOAD d4, IRQ_LINE_TIMER_MASK",
            "    CALL Base_Enable_IRQ",
            "    LOAD a4, TIM_RELOAD_ADDR",
            "    MOV d4, d15",
            "    CALL Base_Init_Register",
            "    LOAD a4, TIM_CTRL_ADDR",
            "    LOAD d4, TIMER_CTRL_IRQ_VALUE",
            "    CALL Base_Init_Register",
        ]
    lines += [
        "    LOAD a4, TIM_RELOAD_ADDR",
        f"    LOAD d1, {draw(st.integers(JIT_THRESHOLD + 4, 32))}",
        "loop:",
        *(f"    {op}" if not op.endswith(":") else op for op in body),
        "    DJNZ d1, loop",
        f"    LOAD d5, {draw(st.integers(1, 200))}",
        "spin:",
        "    DJNZ d5, spin",
        "    DI",
        "    MOV d0, d2",
        *(f"    XOR d0, d0, {reg}" for reg in DATA_REGS[1:]),
        "    HALT",
    ]
    return "\n".join(lines) + "\n"


def run_observed(platform_name: str, image, engine: str):
    """Run *image* with the retire trace and a bus trace armed; return
    the comparable outcome."""
    platform = PLATFORM_CLASSES[platform_name]()
    platform.record_bus_trace = True
    session = ExecutionSession(platform, SC88A, engine=engine)
    ctx = session.begin(image, force_trace=True)
    try:
        session.drive(ctx)
    finally:
        session.finish(ctx)
    result = session.observe(ctx)
    return (
        result.status,
        result.signature,
        result.instructions,
        result.cycles,
        list(session.cpu.trace.raw()),
        list(ctx.bus_trace.raw()),
    )


def run_plain(platform_name: str, image, engine: str):
    """Run *image* with the platform's own observation only (the
    unobserved fast path on platforms without trace visibility)."""
    platform = PLATFORM_CLASSES[platform_name]()
    result = ExecutionSession(platform, SC88A, engine=engine).run(image)
    trace = None if result.trace is None else list(result.trace.raw())
    return (
        result.status,
        result.signature,
        result.instructions,
        result.cycles,
        trace,
    )


def build(source: str):
    env = ModuleTestEnvironment("GENDIFF")
    env.add_test(TestCell(name="TEST_GENERATED", source=source))
    return env.build_image("TEST_GENERATED", SC88A, TARGET_GOLDEN).image


@settings(
    derandomize=True,
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(source=program_source())
def test_fast_engine_matches_reference_on_generated_programs(source):
    image = build(source)
    for name, platform_cls in sorted(PLATFORM_CLASSES.items()):
        # A platform with trace visibility records its own retire
        # trace, so its plain run is a subset of the observed one.
        runs = (run_observed,) if platform_cls.sees_trace else (
            run_plain,
            run_observed,
        )
        for run in runs:
            fast = run(name, image, "fast")
            reference = run(name, image, "reference")
            assert fast == reference, (name, run.__name__, source)
