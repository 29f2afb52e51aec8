"""Spans recorded from the benchmark's side of each layer boundary.

The traced run wraps the public functions each layer exposes (module
attributes and class methods, restored afterwards) so that every call
records one span: its name, start, end, parent span and op id.  Spans
stay in memory until the run ends.  Nothing here imports :mod:`repro`
at module scope, so the cold-process runner can time ``import
repro.cli`` after importing this module.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path

# Span record layout: a plain list, cheap to create and to serialise.
ID, NAME, START, END, PARENT, OP, VALUE = range(7)
FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "op", "value")


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        #: Op id stamped on every span that starts while it is set; the
        #: workloads run one op at a time, so one attribute suffices.
        self.op = None
        #: The running op's root span: the parent of spans that start on
        #: a thread with no open span (the daemon's worker threads).
        self.root: list | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1][ID]
        else:
            parent = self.root[ID] if self.root is not None else None
        span = [next(self._ids), name, self.clock(), None, parent, self.op, None]
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def begin_op(self) -> list:
        """Open the root span of one op."""
        self.root = self.begin("op")
        return self.root

    def end_op(self) -> None:
        self.end(self.root)
        self.root = None

    def wrap(self, owner, attr: str, name: str, before=None, record=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *before(args)* runs ahead of the call and *record(snapshot,
        args, result)* after it; what *record* returns is stored as the
        span's value (counts the layer reports about its own call).
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            snapshot = before(args) if before is not None else None
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if record is not None:
                span[VALUE] = record(snapshot, args, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"fields": FIELDS, "spans": self.spans}, handle, default=str)


def self_times(spans: list[list]) -> dict[int, int]:
    """Span id -> self time: its duration minus the part of its interval
    that its child spans cover (overlapping children count once)."""
    children: dict[int, list[list]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for child in sorted(children.get(span[ID], ()), key=lambda s: s[START]):
            lo = max(child[START], cursor)
            hi = min(child[END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span[ID]] = end - start - covered
    return result


def totals_by_name(spans: list[list]) -> dict[str, dict]:
    """Name -> {"count", "total_ns", "self_ns", "values", "with_child"}
    over *spans*; ``with_child[c]`` counts the spans of that name with
    at least one direct child span named ``c``."""
    own = self_times(spans)
    by_id = {span[ID]: span for span in spans}
    child_names: dict[int, set] = {}
    for span in spans:
        if span[PARENT] in by_id:
            child_names.setdefault(span[PARENT], set()).add(span[NAME])
    totals: dict[str, dict] = {}
    for span in spans:
        entry = totals.setdefault(
            span[NAME],
            {"count": 0, "total_ns": 0, "self_ns": 0, "values": [], "with_child": {}},
        )
        entry["count"] += 1
        entry["total_ns"] += span[END] - span[START]
        entry["self_ns"] += own[span[ID]]
        if span[VALUE] is not None:
            entry["values"].append(span[VALUE])
        for name in child_names.get(span[ID], ()):
            entry["with_child"][name] = entry["with_child"].get(name, 0) + 1
    return totals


def merge_totals(into: dict[str, dict], more: dict[str, dict]) -> dict[str, dict]:
    """Add the totals of another process's spans into *into*."""
    for name, entry in more.items():
        mine = into.setdefault(
            name,
            {"count": 0, "total_ns": 0, "self_ns": 0, "values": [], "with_child": {}},
        )
        for key in ("count", "total_ns", "self_ns"):
            mine[key] += entry[key]
        mine["values"].extend(entry["values"])
        for child, count in entry["with_child"].items():
            mine["with_child"][child] = mine["with_child"].get(child, 0) + count
    return into


# --------------------------------------------------------------------------
# the layer boundaries
# --------------------------------------------------------------------------

def _registry_snapshot(_args):
    from repro.isa.decodecache import registry_stats

    return registry_stats()


def _lookup_hit(before, _args, _result):
    # A registry hit neither grows the registry nor evicts from it.
    return int(before == _registry_snapshot(None))


def engine_snapshot(args):
    """``before`` hook for ``RegressionScheduler.run_system``."""
    return dict(args[0].engine_stats)


def report_summary(before, args, report):
    """``record`` hook for ``RegressionScheduler.run_system``: the
    engine-counter delta of the call and the report's result digest."""
    from perfbench.checks import report_digest

    after = args[0].engine_stats
    return {
        "engine": {key: after.get(key, 0) - before.get(key, 0) for key in after},
        "digest": report_digest(report),
        "runs": len(report.results),
        "failed_runs": sum(
            1 for result in report.results.values() if result.status.value != "pass"
        ),
    }


def install_layers(tracer: Tracer, service: bool = False) -> None:
    """Wrap the public entry points of every layer a regression crosses;
    *service* adds the serving daemon's layers."""
    import repro.cli as cli
    import repro.core.workspace as workspace
    import repro.isa.decodecache as decodecache
    import repro.platforms.cpu as cpu
    import repro.platforms.session as session
    import repro.store.artifacts as artifacts
    from repro.assembler.assembler import Assembler
    from repro.assembler.linker import Linker
    from repro.core.environment import ModuleTestEnvironment
    from repro.core.scheduler import RegressionScheduler, ResultCache
    from repro.soc.bus import Bus
    from repro.soc.device import SystemOnChip

    wrap = tracer.wrap
    for module in (cli, workspace):
        wrap(module, "load_module_environment", "workspace.load")
    wrap(ModuleTestEnvironment, "build_image", "environment.build")
    wrap(Assembler, "assemble_file", "assembler.assemble")
    wrap(Assembler, "assemble_source", "assembler.assemble")
    wrap(Linker, "link", "assembler.link")
    wrap(session, "decode_cache_for", "decodecache.lookup",
         before=_registry_snapshot, record=_lookup_hit)
    wrap(decodecache, "persist_registry", "decodecache.persist")
    installed = lambda _b, _a, result: int(bool(result))  # noqa: E731
    # The core calls compile_chain through this module-level alias.
    wrap(cpu, "_jit_compile_chain", "jit.compile", record=installed)
    wrap(artifacts, "compile_chain", "jit.compile", record=installed)
    wrap(session.ExecutionSession, "begin", "session.begin")
    wrap(session.ExecutionSession, "drive", "session.drive")
    wrap(session.ExecutionSession, "observe", "session.observe",
         record=lambda _b, _a, r: (r.instructions, r.cycles))
    wrap(SystemOnChip, "full_reset", "soc.full_reset")
    wrap(SystemOnChip, "load_image", "soc.load_image")
    wrap(Bus, "rebuild_dispatch", "soc.rebuild_dispatch")
    wrap(RegressionScheduler, "run_system", "scheduler.run_system",
         before=engine_snapshot, record=report_summary)
    wrap(ResultCache, "get", "cache.get")
    wrap(ResultCache, "put", "cache.put")
    wrap(artifacts.ArtifactStore, "load_decode_cache", "store.load")
    wrap(artifacts.ArtifactStore, "save_decode_cache", "store.save")
    if service:
        import repro.service.daemon as daemon
        import repro.service.protocol as protocol
        from repro.service.journal import JobJournal
        from repro.service.pool import WarmSessionPool

        wrap(protocol, "load_module_environment", "workspace.load")
        wrap(daemon, "resolve_pack", "service.resolve")
        wrap(WarmSessionPool, "lease", "pool.lease")
        wrap(JobJournal, "accept", "journal.accept")
        wrap(JobJournal, "settle", "journal.settle")
