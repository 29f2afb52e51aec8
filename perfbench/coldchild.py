"""Cold-process runner for the ``regress_cold`` workload.

Usage::

    python perfbench/coldchild.py --out FILE [--trace] -- regress <tree> ...

A fresh process that times ``import repro.cli`` and then calls
``repro.cli.main`` with the arguments after ``--``, exactly as ``python
-m repro.cli`` would.  It always captures the regression report's result
digest; with ``--trace`` it also wraps every layer boundary.  It writes
its spans, span totals and the store's counters to ``FILE`` and exits
with ``main``'s status.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    start = time.perf_counter_ns()
    import repro.cli

    import_ms = (time.perf_counter_ns() - start) / 1e6
    from repro.core.scheduler import RegressionScheduler
    from repro.isa.decodecache import artifact_store, registry_stats

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install_layers(tracer)
    else:
        tracer.wrap(RegressionScheduler, "run_system", "scheduler.run_system",
                    before=tracing.engine_snapshot, record=tracing.report_summary)
    tracer.op = 0
    try:
        code = repro.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()

    counters = dict.fromkeys(layers.COUNTERS, 0)
    counters["registry_evictions"] = registry_stats()["registry_evictions"]
    store = artifact_store()
    if store is not None:
        stats = store.stats()
        for key in ("hits", "misses", "corrupt", "write_errors"):
            counters[f"store_{key}"] = stats[key]
    runs = [span for span in tracer.spans if span[tracing.NAME] == "scheduler.run_system"]
    report = runs[-1][tracing.VALUE] if runs else {}
    summary = {
        "import_ms": import_ms,
        "exit": code,
        "digest": report.get("digest"),
        "runs": report.get("runs"),
        "failed_runs": report.get("failed_runs"),
        "counters": counters,
        "totals": tracing.totals_by_name(tracer.spans) if args.trace else {},
        "fields": tracing.FIELDS,
        "spans": tracer.spans if args.trace else [],
    }
    Path(args.out).write_text(json.dumps(summary, default=str))
    return code


if __name__ == "__main__":
    sys.exit(main())
