"""Instruction-trace comparison: debugging a platform divergence.

When the regression layer attributes a divergence to a platform (C2),
the next engineering step on platforms with waveform visibility is to
find *where* execution forked.  This module runs the same image on two
platforms with tracing enabled and reports the first architectural
divergence point: the PC where the instruction streams part ways, with
disassembled context.

Only trace-capable platforms (golden, RTL, gate level) participate —
exactly the visibility split the paper's platform list implies.
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Sequence

from repro.assembler.linker import MemoryImage
from repro.platforms.base import Platform
from repro.platforms.cpu import InstructionTrace, TraceEntry
from repro.soc.derivatives import Derivative


@dataclass(frozen=True)
class DivergencePoint:
    """First index where two instruction traces disagree."""

    index: int
    reference_entry: TraceEntry | None
    subject_entry: TraceEntry | None

    def describe(self) -> str:
        def fmt(entry: TraceEntry | None) -> str:
            if entry is None:
                return "<trace ended>"
            return f"pc={entry.pc:#010x} {entry.mnemonic}"

        return (
            f"traces diverge at instruction #{self.index}: "
            f"reference {fmt(self.reference_entry)} vs "
            f"subject {fmt(self.subject_entry)}"
        )


@dataclass
class TraceComparison:
    """Outcome of comparing a subject platform against the reference."""

    reference_platform: str
    subject_platform: str
    #: Sequences of :class:`TraceEntry` — the live ``InstructionTrace``
    #: from a run (entries materialise lazily on indexing) or plain
    #: lists.
    reference_trace: Sequence[TraceEntry]
    subject_trace: Sequence[TraceEntry]
    divergence: DivergencePoint | None

    @property
    def identical(self) -> bool:
        return self.divergence is None

    def context(self, window: int = 3) -> list[str]:
        """Disassembled context around the divergence point."""
        if self.divergence is None:
            return []
        start = max(0, self.divergence.index - window)
        lines = []
        for index in range(start, self.divergence.index + 1):
            ref = (
                self.reference_trace[index]
                if index < len(self.reference_trace)
                else None
            )
            sub = (
                self.subject_trace[index]
                if index < len(self.subject_trace)
                else None
            )
            ref_text = (
                f"{ref.pc:#010x} {ref.mnemonic}" if ref else "<ended>"
            )
            sub_text = (
                f"{sub.pc:#010x} {sub.mnemonic}" if sub else "<ended>"
            )
            marker = "  <-- fork" if index == self.divergence.index else ""
            lines.append(f"#{index:5d}  {ref_text:<28} | {sub_text}{marker}")
        return lines


def _raw_events(trace: Sequence[TraceEntry]) -> Sequence:
    """(pc, opcode, ...)-indexable events without materialising views."""
    if isinstance(trace, InstructionTrace):
        return trace.raw()
    return trace


def _entry_of(event) -> TraceEntry | None:
    if event is None or isinstance(event, TraceEntry):
        return event
    return TraceEntry(*event)


def _key(event) -> tuple[int, int]:
    """The (pc, opcode) identity of a raw tuple or TraceEntry."""
    if type(event) is tuple:
        return event[0], event[1]
    return event.pc, event.opcode


def _first_divergence(
    reference: Sequence[TraceEntry], subject: Sequence[TraceEntry]
) -> DivergencePoint | None:
    # Compare the flat (pc, opcode, ...) events; only the fork point is
    # materialised into TraceEntry views.
    ref_events = _raw_events(reference)
    sub_events = _raw_events(subject)
    for index in range(max(len(ref_events), len(sub_events))):
        ref = ref_events[index] if index < len(ref_events) else None
        sub = sub_events[index] if index < len(sub_events) else None
        if ref is None or sub is None:
            return DivergencePoint(index, _entry_of(ref), _entry_of(sub))
        if _key(ref) != _key(sub):
            return DivergencePoint(index, _entry_of(ref), _entry_of(sub))
    return None


def compare_traces(
    image: MemoryImage,
    derivative: Derivative,
    reference: Platform,
    subject: Platform,
    max_instructions: int = 200_000,
    engine: str = "fast",
) -> TraceComparison:
    """Run *image* on both platforms (on *engine*) and locate the first
    fork.

    Raises :class:`ValueError` when either platform lacks trace
    visibility — the caller should fall back to end-state comparison.
    """
    for platform in (reference, subject):
        if not platform.sees_trace:
            raise ValueError(
                f"platform {platform.name!r} has no trace visibility"
            )
    reference.run(
        image, derivative, max_instructions=max_instructions, engine=engine
    )
    subject.run(
        image, derivative, max_instructions=max_instructions, engine=engine
    )
    reference_trace = reference.last_cpu.trace or []
    subject_trace = subject.last_cpu.trace or []
    return TraceComparison(
        reference_platform=reference.name,
        subject_platform=subject.name,
        reference_trace=reference_trace,
        subject_trace=subject_trace,
        divergence=_first_divergence(reference_trace, subject_trace),
    )
