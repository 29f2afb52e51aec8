"""A fixed reference kernel that measures how fast the host is right now.

On a shared host the CPU time of the same Python work swings by 1.5x
to 2x from one minute to the next, as neighbours come and go; a run
that happens to fall in a slow minute reads slow.  The benchmark runs
this kernel between its ops and scales each op's CPU time by
``(REFERENCE_MS / kernel time) ** ELASTICITY``, the kernel time being
the mean of the samples taken just before and just after the op, so the
figures read as on a host where the kernel takes ``REFERENCE_MS`` of
CPU.  The run pins itself to one CPU, so kernel and ops share it.
The kernel never changes with the program, so a program that gets
faster still reads faster.

The kernel mixes the kinds of work the program does: an interpreter
loop over a tiny register machine (the simulated CPU), allocation and
traversal of small objects and dicts (decoded images, reports), and
compiling and running small generated functions (the JIT).  The
cyclic garbage collector is off while it runs: a collection it set off
would walk the whole heap of the process, so the kernel would time the
program's heap and not the host.
"""

from __future__ import annotations

import gc
import statistics
import time

#: CPU milliseconds the kernel takes on the host the figures are scaled to.
REFERENCE_MS = 20.0
#: How far the program's CPU time moves with the kernel's.  Over 5 to
#: 10 minutes of 1.4x to 1.7x swings on a 2-vCPU shared host, a log-log
#: fit of 16-second medians gave slopes of 0.66 (regress_warm), 0.75
#: (serve_edit) and 0.76 (port_sweep): the program slows less than the
#: kernel, which is all interpreter and allocator work.
ELASTICITY = 0.7
#: Least wall time between two kernel samples during a window.  The
#: host's speed changes within seconds, so an op is scaled by the sample
#: just before it and the one just after it only; on regress_cold (2 s
#: ops) that spread the p50 over ten seeds by 4%, the run's median by 13%.
INTERVAL_S = 0.25

_PROGRAM = [
    (i % 4, i % 8, (i * 5) % 64 if i % 4 == 3 else (i * 7) % 8) for i in range(64)
]

_CHAIN = """
def chain(regs, mem):
    a = regs[0] + {n}
    for i in range(16):
        a = (a * 3 + regs[i & 7]) & 0xFFFF
        mem[a & 0xFFF] = a & 0xFF
    regs[{r}] = a
    return a
"""


class _Machine:
    __slots__ = ("regs", "mem", "pc", "steps")

    def __init__(self):
        self.regs = [0] * 8
        self.mem = bytearray(4096)
        self.pc = 0
        self.steps = 0

    def step(self) -> None:
        op, a, b = _PROGRAM[self.pc]
        regs = self.regs
        self.steps += 1
        if op == 0:
            regs[a] = (regs[a] + regs[b] + 1) & 0xFFFF
        elif op == 1:
            self.mem[regs[a] & 0xFFF] = regs[b] & 0xFF
        elif op == 2:
            regs[a] = self.mem[regs[b] & 0xFFF] ^ regs[a]
        elif op == 3 and regs[a] & 1:
            self.pc = b
            return
        self.pc = (self.pc + 1) % len(_PROGRAM)


class _Node:
    __slots__ = ("value", "children")

    def __init__(self, value):
        self.value = value
        self.children = []


def kernel() -> int:
    """The fixed work; returns a checksum so none of it is skipped."""
    machine = _Machine()
    for _ in range(20_000):
        machine.step()
    nodes = {}
    for i in range(6000):
        nodes[i] = _Node({"a": i, "b": (i, i + 1)})
        if i:
            nodes[(i * 7) % i].children.append(nodes[i])
    total, stack = 0, [nodes[0]]
    while stack:
        node = stack.pop()
        total += node.value["a"]
        stack.extend(node.children)
    regs, mem = [1] * 8, bytearray(4096)
    for n in range(12):
        space: dict = {}
        exec(compile(_CHAIN.format(n=n, r=n % 8), f"<chain {n}>", "exec"), space)
        total += space["chain"](regs, mem)
    return machine.steps + total


class Calibrator:
    """Kernel samples of one run, and the scales they give.  Work is
    placed among the samples by :meth:`position`, read just before it."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self, count: int = 1) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                began = time.process_time()
                kernel()
                self.samples.append(time.process_time() - began)
        finally:
            if collecting:
                gc.enable()
        self.last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample once if ``INTERVAL_S`` has passed since the last one."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def position(self) -> int:
        return len(self.samples)

    def kernel_ms(self, position: int | None = None) -> float:
        """Median kernel time of the samples just before and just after
        *position*, or of the whole run."""
        near = self.samples
        if position is not None:
            near = near[max(position - 1, 0):position + 1]
        return statistics.median(near) * 1000

    def scale(self, position: int | None = None) -> float:
        """Factor that turns CPU time spent at *position* (or anywhere
        in the run) into reference CPU time."""
        return (REFERENCE_MS / self.kernel_ms(position)) ** ELASTICITY

    def scaled(self, seconds: list[float], positions: list[int]) -> list[float]:
        return [cpu * self.scale(at) for cpu, at in zip(seconds, positions)]
