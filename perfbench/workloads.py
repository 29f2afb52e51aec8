"""The four workloads, each driving the stack through its public entry
points on a tree generated from the run's seed.

``regress_warm``
    One process regresses the tree on sc88a across all six targets with
    the default serial executor, builds memoised and no result cache.
    The steady execution path (sessions, SoC, CPU, decode-cache hits,
    JIT) does nearly all the work; the assembler, store and service do
    none, so this is the control for build, cold-path and service
    changes.  Its 104 images fit the 256-entry decode registry.
``port_sweep``
    One process regresses the same tree on sc88a, sc88b, sc88c and
    sc88d in turn, cyclically: the paper's port-to-a-derivative use.
    4 x 104 images exceed the registry's 256-entry LRU, so every image
    is evicted before it is reused and predecode and JIT compilation
    repeat on every pass.
``regress_cold``
    Each op is a fresh ``advm regress <tree> --store-dir <dir>`` process,
    timed from spawn to exit, against a store warmed during set-up: what
    a developer waits for on each invocation.  The process is the
    benchmark's runner (``coldchild.py``), which calls ``repro.cli.main``
    as ``python -m repro.cli`` would and reports the run's result digest.
``serve_edit``
    An in-process :class:`~repro.service.daemon.ServiceDaemon` on
    loopback, with a journal, a result cache and an artifact store,
    driven by one closed-loop client that opens one connection per
    pack.  Each pack's module, cells and targets are drawn from the seed
    (``treegen.make_packs``), and before one pack in forty the client
    edits one of the pack's cells so its image changes (an assumed mix,
    see ``treegen``).  Result-cache hits set the median.  The tail is
    set by edit packs (rebuild, execute, cache put, store write) and by
    packs whose cell selection the daemon has not built since the module
    last changed: a filtered environment has its own build fingerprint,
    so a new selection re-assembles the module, and an edit replaces the
    module's warm environment with every build it held.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

from perfbench import checks, layers, tracing, treegen

RUNS_PER_PASS = 162
SERVE_DERIVATIVE = "sc88a"
#: More packs than any window can submit; the client cycles through them.
PACK_COUNT = 5000
#: Packs served before the window.  Set-up leaves every module freshly
#: built at once; after a few edit cycles the modules' edits are spread
#: out and selections rebuild at the steady rate.
SETTLE_PACKS = 4 * treegen.EDIT_EVERY
EDIT_TEMPLATE = "\n.SECTION data\nbench_edit_marker:\n    .WORD {serial:#010x}\n"


def _reference_digests(seed: int) -> dict[str, str]:
    """The recorded per-derivative result digests of the default seed."""
    if seed != 0:
        return {}
    path = Path(__file__).with_name("reference.json")
    return json.loads(path.read_text())["digests"]


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Workload:
    """Set-up, one op, counters and self-checks of one workload."""

    name = ""

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        self.recorded = _reference_digests(seed)
        #: Set-up problems (a warm-up that failed or drifted).
        self.problems: list[str] = []

    def setup(self, directory: Path) -> None:
        raise NotImplementedError

    def settle(self) -> None:
        """Reach the steady state after the last set-up (not timed)."""

    def teardown(self) -> None:
        pass

    def op(self, tracer) -> tuple[float, float, int, list[str]]:
        """Run one op; returns (latency in s, CPU time in s of the
        process doing the work, matrix runs, problems)."""
        raise NotImplementedError

    def install(self, tracer) -> None:
        tracing.install_layers(tracer)

    def counters(self) -> dict[str, float]:
        from repro.isa.decodecache import registry_stats

        values = dict.fromkeys(layers.COUNTERS, 0)
        values["registry_evictions"] = registry_stats()["registry_evictions"]
        return values

    def totals(self, tracer) -> dict[str, dict]:
        return tracing.totals_by_name(tracer.spans)

    def write_spans(self, tracer, path: Path) -> list[Path]:
        """Write the traced window's spans; returns the files written."""
        tracer.dump(path)
        return [path]

    def peak_rss_mb(self) -> float:
        return _self_rss_mb()

    def self_check(self, metrics: dict[str, float], totals: dict[str, dict]) -> list[str]:
        """Problems showing the window stopped stressing its layers."""
        return []

    def _check_recorded(self, derivative: str, digest: str) -> None:
        expected = self.recorded.get(derivative)
        if expected is not None and digest != expected:
            self.problems.append(
                f"{derivative} result digest {digest[:12]} differs from the "
                f"recorded default-seed digest {expected[:12]}"
            )


# --------------------------------------------------------------------------
# in-process regressions
# --------------------------------------------------------------------------

class RegressWarm(Workload):
    name = "regress_warm"
    derivatives = ("sc88a",)

    def setup(self, directory: Path) -> None:
        from repro.core import workspace
        from repro.isa.decodecache import reset_registry

        reset_registry()
        system_dir = treegen.generate_tree(self.seed, directory)
        self.environments = {
            name: workspace.load_module_environment(system_dir / name)
            for name in treegen.tree_cells(system_dir)
        }
        self.references: dict[str, str] = {}
        self._warm(self.derivatives[0])
        self.cursor = 0
        self.pass_evictions: list[tuple[str, int]] = []

    def settle(self) -> None:
        # A superblock that runs once per pass reaches the JIT threshold
        # on pass JIT_THRESHOLD, so until then passes still compile
        # chains in waves; the window starts after the last wave.
        from repro.isa.jit import JIT_THRESHOLD

        for _ in range(JIT_THRESHOLD - 1):
            self._warm(self.derivatives[0])

    def _warm(self, derivative: str) -> None:
        """One warm-up pass: checked, and its digest kept as the
        reference every later pass on *derivative* must repeat."""
        report = self._regress(derivative)
        problems = checks.judge_report(report, RUNS_PER_PASS, None)
        self.problems.extend(f"warm-up: {p}" for p in problems)
        digest = checks.report_digest(report)
        if self.references.setdefault(derivative, digest) != digest:
            self.problems.append(f"warm-up: {derivative} digest drifted")
        self._check_recorded(derivative, digest)

    def _regress(self, name: str):
        from repro.core.scheduler import RegressionScheduler
        from repro.soc.derivatives import derivative

        return RegressionScheduler(executor="serial").run_system(
            self.environments, derivative(name)
        )

    def op(self, tracer):
        from repro.isa.decodecache import registry_stats

        name = self.derivatives[self.cursor % len(self.derivatives)]
        self.cursor += 1
        evictions = registry_stats()["registry_evictions"]
        if tracer:
            tracer.begin_op()
        start, cpu_start = time.perf_counter(), time.process_time()
        report = self._regress(name)
        latency = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        if tracer:
            tracer.end_op()
            self.pass_evictions.append(
                (name, registry_stats()["registry_evictions"] - evictions)
            )
        problems = checks.judge_report(
            report, RUNS_PER_PASS, self.references[name]
        )
        return latency, cpu, len(report.results), problems

    def self_check(self, metrics, totals):
        problems = []
        if metrics["assembler.objects"] != 0:
            problems.append("assembler ran in the steady window")
        if metrics["decodecache.registry_evictions"] != 0:
            problems.append("decode registry evicted in the steady window")
        return problems


class PortSweep(RegressWarm):
    name = "port_sweep"
    derivatives = ("sc88a", "sc88b", "sc88c", "sc88d")

    def settle(self) -> None:
        # Completing the first cycle fills the registry; from then on
        # every pass evicts images before they are reused, and chains
        # never survive to a second pass, so the cycle is steady.
        for derivative in self.derivatives[1:]:
            self._warm(derivative)

    def self_check(self, metrics, totals):
        return [
            f"{name} pass evicted nothing"
            for name, evicted in self.pass_evictions
            if evicted < 1
        ]


# --------------------------------------------------------------------------
# cold processes
# --------------------------------------------------------------------------

class RegressCold(Workload):
    name = "regress_cold"
    max_settle_runs = 4

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        self.env = dict(os.environ)
        src = str(root / "src")
        existing = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        self.child_totals: dict[str, dict] = {}
        self.child_counters = dict.fromkeys(layers.COUNTERS, 0)
        self.import_ms: list[float] = []
        self.rss_kb: list[int] = []
        self.serial = 0
        self.traced_files: list[Path] = []
        self.reference: str | None = None
        self.reference_text: list[str] = []

    def _spawn(self, argv: list[str]) -> tuple[float, int, str, resource.struct_rusage]:
        start = time.perf_counter()
        child = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=self.env, cwd=self.root,
        )
        try:
            output = child.stdout.read()
        finally:
            child.stdout.close()
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        latency = time.perf_counter() - start
        return latency, child.returncode, output.decode(errors="replace"), usage

    def _regress_args(self) -> list[str]:
        return ["regress", str(self.tree), "--store-dir", str(self.store)]

    def _run_child(self, trace: bool) -> tuple[float, int, str, resource.struct_rusage, dict]:
        """One run through the benchmark's own cold-process runner."""
        self.serial += 1
        out = self.out_dir / f"{self.name}-seed{self.seed}-child{self.serial}.json"
        argv = [sys.executable, str(self.root / "perfbench" / "coldchild.py"),
                "--out", str(out)]
        if trace:
            argv.append("--trace")
        latency, code, text, usage = self._spawn(argv + ["--"] + self._regress_args())
        summary = json.loads(out.read_text()) if out.exists() else {}
        if trace:
            self.traced_files.append(out)
        else:
            out.unlink(missing_ok=True)
        return latency, code, text, usage, summary

    @staticmethod
    def _verdicts(text: str) -> list[str]:
        # The store line counts what this invocation wrote; everything
        # else (matrix and summary) must repeat exactly.
        return [line for line in text.splitlines() if not line.startswith("store-stats:")]

    @staticmethod
    def _saved(text: str) -> int:
        for line in text.splitlines():
            if line.startswith("store-stats:"):
                fields = dict(item.split("=") for item in line.split()[1:])
                return int(fields["saved"])
        return -1

    def setup(self, directory: Path) -> None:
        self.tree = treegen.generate_tree(self.seed, directory)
        self.store = directory / "store"
        self._warm()

    def settle(self) -> None:
        # A fresh store keeps gaining JIT chains for a few invocations;
        # the window starts once an invocation saves nothing new.
        for _ in range(self.max_settle_runs):
            if self._saved(self.warm_text) == 0:
                return
            self._warm()
        saved = self._saved(self.warm_text)
        if saved < 0:
            self.problems.append("store warm-up printed no store-stats line")
        elif saved > 0:
            self.problems.append(
                f"store still saved {saved} entries after "
                f"{self.max_settle_runs + 1} warm-up runs"
            )

    def _warm(self) -> None:
        """One store-warming run through the runner.  The first one's
        report digest and verdict matrix become the references every
        later warm-up and every op must repeat."""
        _, code, text, _, summary = self._run_child(trace=False)
        if code != 0 or summary.get("failed_runs", 1) or summary.get("runs") != RUNS_PER_PASS:
            self.problems.append(f"store warm-up run failed (exit {code})")
        self.warm_text = text
        if self.reference is None:
            self.reference_text = self._verdicts(text)
            self.reference = summary.get("digest")
            if self.reference is not None:
                self._check_recorded("sc88a", self.reference)
        elif (summary.get("digest"), self._verdicts(text)) != (
            self.reference, self.reference_text
        ):
            self.problems.append("store warm-up: result digest or verdicts drifted")

    def op(self, tracer):
        latency, code, text, usage, summary = self._run_child(trace=tracer is not None)
        self.rss_kb.append(usage.ru_maxrss)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if self._verdicts(text) != self.reference_text:
            problems.append("verdict matrix differs from the set-up run")
        if summary.get("digest") is None or summary.get("digest") != self.reference:
            problems.append("result digest differs from the set-up run")
        if tracer is not None:
            tracing.merge_totals(self.child_totals, summary.get("totals", {}))
            for key, value in summary.get("counters", {}).items():
                self.child_counters[key] += value
            self.import_ms.append(summary.get("import_ms", 0.0))
        return latency, usage.ru_utime + usage.ru_stime, RUNS_PER_PASS, problems

    def install(self, tracer) -> None:
        # The wrappers go into each traced child, not into this process.
        pass

    def counters(self):
        return dict(self.child_counters)

    def totals(self, tracer):
        return self.child_totals

    def write_spans(self, tracer, path):
        # Each traced child wrote its own spans next to its summary.
        return list(self.traced_files)

    def peak_rss_mb(self) -> float:
        return max(self.rss_kb, default=0) / 1024

    def self_check(self, metrics, totals):
        if metrics["store.hits"] <= 0:
            return ["no artifact-store hits in the cold processes"]
        return []


# --------------------------------------------------------------------------
# the serving daemon
# --------------------------------------------------------------------------

class ServeEdit(Workload):
    name = "serve_edit"

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        self.reference: dict[tuple[str, str, str], tuple] | None = None

    def setup(self, directory: Path) -> None:
        from repro.core.scheduler import ResultCache
        from repro.isa.decodecache import reset_registry
        from repro.service import (
            JobJournal,
            RegressionService,
            ServiceDaemon,
            WarmSessionPool,
        )
        from repro.store import ArtifactStore

        reset_registry()
        self.system_dir = treegen.generate_tree(self.seed, directory / "tree")
        cells = treegen.tree_cells(self.system_dir)
        self.packs = treegen.make_packs(self.seed, cells, PACK_COUNT)
        self._record_reports()
        self.service = RegressionService(
            self.system_dir,
            pool=WarmSessionPool(max_idle=12),
            journal=JobJournal(directory / "journal"),
            cache=ResultCache(directory / "cache"),
            store=ArtifactStore(directory / "store" / "artifacts"),
        )
        self.daemon = ServiceDaemon(self.service, "127.0.0.1", 0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self._call(self.daemon.start())
        self.cells = cells
        self.cursor = 0
        self.edits = 0
        self.sources: dict[tuple[str, str], str] = {}
        # One whole-tree pack fills the result cache, the warm pool and
        # the daemon's module environments.
        whole = {"schema": 1, "name": "bench-warm",
                 "derivative": SERVE_DERIVATIVE, "executor": "serial"}
        self.problems.extend(f"warm-up: {p}" for p in self._submit(whole, None)[-1])

    def settle(self) -> None:
        # Until each module has been edited once, its selections rebuild
        # more often than in the steady state, where edits set the rate.
        for _ in range(SETTLE_PACKS):
            self.problems.extend(f"settle: {p}" for p in self.op(None)[-1])

    def _record_reports(self) -> None:
        """Keep the result rows of every ``run_system`` call the daemon
        makes, in both windows, so each pack's simulated results can be
        checked, whether they were executed or served from the cache."""
        from repro.core.scheduler import RegressionScheduler

        self.recorder = tracing.Tracer()
        self.recorder.wrap(
            RegressionScheduler, "run_system", "scheduler.run_system",
            record=lambda _before, _args, report: checks.report_rows(report),
        )

    def _take_reports(self) -> list[list[tuple]]:
        spans, self.recorder.spans = self.recorder.spans, []
        return [span[tracing.VALUE] for span in spans]

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(timeout=120)

    def teardown(self) -> None:
        from repro.isa.decodecache import set_artifact_store

        try:
            self._call(self.daemon.shutdown())
            self._call(self.loop.shutdown_default_executor())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=120)
            self.loop.close()
            set_artifact_store(None)
            self.recorder.uninstall()

    def op(self, tracer):
        entry = self.packs[self.cursor % len(self.packs)]
        self.cursor += 1
        pack = entry["pack"]
        if entry["edit"] is not None:
            self._edit(pack["modules"][0], entry["edit"])
        return self._submit(pack, tracer)

    def _edit(self, module: str, cell: str) -> None:
        path = self.system_dir / module / cell / "test.asm"
        original = self.sources.setdefault((module, cell), path.read_text())
        self.edits += 1
        path.write_text(original + EDIT_TEMPLATE.format(serial=self.edits))

    def _expected(self, pack: dict) -> set[tuple[str, str, str]]:
        """(module, cell, target) of every run the pack selects."""
        return {
            (module, cell, target)
            for module in pack.get("modules", self.cells)
            for cell in pack.get("cells", self.cells[module])
            for target in pack.get("targets", treegen.PACK_TARGETS)
        }

    def _submit(self, pack: dict, tracer):
        """Send one pack on a fresh connection, as ``advm submit`` does,
        and read its stream; returns (latency in s, CPU time in s of
        this process, whose threads include the daemon's, runs, problems)."""
        expected = self._expected(pack)
        connection = http.client.HTTPConnection("127.0.0.1", self.daemon.port, timeout=120)
        events: list[dict] = []
        if tracer:
            tracer.begin_op()
            accept = tracer.begin("service.accept")
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            connection.request("POST", "/submit", body=json.dumps(pack).encode(),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            if response.status != 200:
                response.read()
                self._take_reports()
                return (time.perf_counter() - start, time.process_time() - cpu_start,
                        0, [f"HTTP {response.status}"])
            for raw in response:
                if not raw.strip():
                    continue
                events.append(json.loads(raw))
                kind = events[-1]["event"]
                if tracer and kind == "accepted":
                    tracer.end(accept)
                if kind in ("done", "error"):
                    break
            latency = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
        finally:
            connection.close()
            if tracer:
                if accept[tracing.END] is None:
                    tracer.end(accept)
                tracer.end_op()
        return latency, cpu, len(expected), self._judge(events, expected)

    def _judge(self, events: list[dict], expected: set) -> list[str]:
        problems = []
        if not events or events[0]["event"] != "accepted":
            problems.append("stream did not start with accepted")
        cells = [e for e in events if e["event"] == "cell"]
        seen = {(e["environment"], e["cell"], e["target"]) for e in cells}
        if seen != expected or len(cells) != len(expected):
            problems.append(f"{len(cells)} cell events, expected {len(expected)}")
        problems.extend(
            f"{e['environment']}/{e['cell']} on {e['target']}: {e['status']}"
            for e in cells
            if e["status"] != "pass" or e["derivative"] != SERVE_DERIVATIVE
        )
        last = events[-1] if events else {}
        if last.get("event") != "done" or not last.get("clean"):
            problems.append(f"stream ended in {last.get('event')!r}, not a clean done")
        elif last.get("total_runs") != len(expected):
            problems.append("done reports a different run count")
        reports = self._take_reports()
        if len(reports) != 1:
            problems.append(f"{len(reports)} scheduler reports, expected 1")
            return problems
        if self.reference is None:
            # The first set-up's whole-tree pack: its rows are the
            # reference every later run must repeat.  The client's edits
            # only append an unused data word, so they leave every
            # simulated result as it was.
            self.reference = {row[:3]: row for row in reports[0]}
            self._check_recorded(SERVE_DERIVATIVE, checks.rows_digest(reports[0]))
        drifted = [row for row in reports[0] if self.reference.get(row[:3]) != row]
        if drifted or len(reports[0]) != len(expected):
            problems.append(
                f"{len(drifted)} of {len(reports[0])} run results differ "
                "from the warm-up pack's"
            )
        return problems

    def install(self, tracer) -> None:
        tracing.install_layers(tracer, service=True)

    def counters(self):
        values = super().counters()
        stats = self.service.stats()
        values["cache_hits"] = stats["cache"]["hits"]
        values["cache_misses"] = stats["cache"]["misses"]
        values["cache_corrupt"] = stats["cache"]["corrupt"]
        values["store_hits"] = stats["store"]["hits"]
        values["store_misses"] = stats["store"]["misses"]
        values["store_corrupt"] = stats["store"]["corrupt"]
        values["store_write_errors"] = stats["store"]["write_errors"]
        values["pool_warm_hits"] = stats["pool"]["warm_hits"]
        values["pool_cold_builds"] = stats["pool"]["cold_builds"]
        values["service_shed"] = stats["jobs"]["shed"]
        return values

    def self_check(self, metrics, totals):
        problems = [] if metrics["cache.hit_ratio"] > 0 else ["no cache hits in the window"]
        for span, what in (
            ("cache.put", "cache puts"),
            ("journal.settle", "journal settles"),
            ("assembler.link", "rebuilds"),
        ):
            if totals.get(span, {}).get("count", 0) <= 0:
                problems.append(f"no {what} in the window")
        return problems


WORKLOADS = {
    cls.name: cls for cls in (RegressWarm, PortSweep, RegressCold, ServeEdit)
}
