"""End-to-end benchmark of the ADVM regression stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload regress_warm --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Workloads (see ``perfbench/workloads.py`` for why each exists):
``regress_warm``, ``port_sweep``, ``regress_cold`` and ``serve_edit``;
``all`` runs each in its own process, one after another.

Each run generates its inputs from ``--seed`` (``treegen.py``), sets the
workload up three times (``setup_s`` is the median), then measures ops
for ``--seconds``.  Every op is checked before any figure is printed: a
non-PASS verdict, a result digest that differs from the reference, a
non-zero exit, or a shed or error event fails the op.

An op is a 162-run pass (``regress_warm``, ``port_sweep``), a process
from spawn to exit (``regress_cold``) or a pack from send to its
``done`` event (``serve_edit``).  Every op is timed twice: by the wall
clock, and by the CPU time of the process doing the work (this process
and all its threads, the daemon's included; on ``regress_cold`` the
child's user plus system time).  On a shared host the wall clock also
counts the time the host takes the CPU away (steal) and the waits for
a CPU to come back; CPU time leaves them out.  CPU time still swings
with the host's load from minute to minute, so the run also times a
fixed reference kernel between ops (``calibrate.py``) and scales every
CPU figure of the result line to a host on which that kernel takes
``calibrate.REFERENCE_MS`` (``calibrate.Calibrator.scale``).  The
wall-clock figures are printed beside them, unscaled.

End-to-end metrics of the result line (``--trace 0``), times scaled:

- ``setup_s``: CPU seconds of one set-up (this process plus the
  processes it waited for): generating the tree plus one warm-up pass
  (``regress_warm``, ``port_sweep``), one store-warming process
  (``regress_cold``) or booting the daemon and serving one whole-tree
  pack (``serve_edit``); the median of three set-ups.  The untimed
  steps that then bring a workload to its steady state are listed with
  each workload's ``settle``.
- ``runs_per_cpu_s``: matrix runs completed per CPU second of the ops.
- ``op_cpu_p50_ms`` / ``op_cpu_p90_ms``: median and 90th percentile of
  the ops' CPU time.
- ``peak_rss_mb``: peak RSS of the process doing the work (the child
  processes on ``regress_cold``).

Printed beside them, from the wall clock: ``setup_wall_s``,
``runs_per_s``, ``latency_p50_ms``, ``latency_p90_ms`` and
``packs_per_s`` (ops per second; an op is one scenario pack on
``serve_edit`` and one whole-tree pack elsewhere), and ``fail_ratio``
(failed over attempted ops), which the result line carries as
``failed`` and ``attempted``.

With ``--trace 1`` the window is split: half untraced, half with every
layer boundary wrapped.  The run prints the per-layer metrics of
``layers.py``, each layer's self time, the tracing overhead (traced
over untraced median op CPU time) and the workload's self-checks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and a
full record of the run are written under ``.perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("regress_warm", "port_sweep", "regress_cold", "serve_edit")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Reference-kernel samples before each set-up and after the window.
CALIBRATE_REPS = 3

END_TO_END = [
    ("setup_s", "s"),
    ("runs_per_cpu_s", "1/s"),
    ("op_cpu_p50_ms", "ms"),
    ("op_cpu_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
#: Wall-clock figures, printed but not in the result line.
WALL_CLOCK = [
    ("setup_wall_s", "s"),
    ("runs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("packs_per_s", "1/s"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values: list[float], share: float) -> float:
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def measure(workload, seconds: float, tracer, tally, calibrator) -> dict:
    """Run ops until *seconds* have passed (at least one op), sampling
    the reference kernel between them; its time is not in ``elapsed``."""
    latencies: list[float] = []
    cpu: list[float] = []
    positions: list[int] = []
    runs = 0
    start = time.perf_counter()
    deadline = start + seconds
    calibrating = 0.0
    while True:
        if tracer is not None:
            tracer.op = len(latencies)
        began = time.perf_counter()
        calibrator.maybe_sample()
        calibrating += time.perf_counter() - began
        positions.append(calibrator.position())
        latency, op_cpu, op_runs, problems = workload.op(tracer)
        latencies.append(latency)
        cpu.append(op_cpu)
        runs += op_runs
        tally.record(problems)
        if time.perf_counter() >= deadline:
            break
    return {"latencies": latencies, "cpu": cpu, "positions": positions, "runs": runs,
            "elapsed": time.perf_counter() - start - calibrating}


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def end_to_end(
    window: dict, setup: dict[str, list], rss_mb: float, calibrator
) -> dict[str, float]:
    """The result-line figures (scaled CPU times) followed by the
    wall-clock ones."""
    cpu_s = calibrator.scaled(window["cpu"], window["positions"])
    cpu_ms = [seconds * 1000 for seconds in cpu_s]
    latencies_ms = [latency * 1000 for latency in window["latencies"]]
    return {
        "setup_s": statistics.median(calibrator.scaled(setup["cpu"], setup["positions"])),
        "runs_per_cpu_s": window["runs"] / sum(cpu_s),
        "op_cpu_p50_ms": statistics.median(cpu_ms),
        "op_cpu_p90_ms": percentile(cpu_ms, 0.9),
        "peak_rss_mb": rss_mb,
        "setup_wall_s": statistics.median(setup["wall"]),
        "runs_per_s": window["runs"] / window["elapsed"],
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": percentile(latencies_ms, 0.9),
        "packs_per_s": len(latencies_ms) / window["elapsed"],
    }


def host_facts() -> dict:
    try:
        import numpy  # noqa: F401

        has_numpy = True
    except ImportError:
        has_numpy = False
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": has_numpy,
    }


def traced_run(workload, args, tally, setup, calibrator, import_ms, out_dir):
    """Half the window untraced, half traced; prints the per-layer
    report and returns (per-layer metrics, record fields, problems)."""
    from perfbench import layers, tracing

    plain = measure(workload, args.seconds / 2, None, tally, calibrator)
    tracer = tracing.Tracer()
    before = workload.counters()
    workload.install(tracer)
    try:
        traced = measure(workload, args.seconds / 2, tracer, tally, calibrator)
    finally:
        tracer.uninstall()
    after = workload.counters()
    delta = {key: after[key] - before[key] for key in layers.COUNTERS}
    totals = workload.totals(tracer)
    ops = len(traced["latencies"])
    overhead_pct = (
        statistics.median(calibrator.scaled(traced["cpu"], traced["positions"]))
        / statistics.median(calibrator.scaled(plain["cpu"], plain["positions"]))
        - 1
    ) * 100
    child_imports = getattr(workload, "import_ms", None)
    values = layers.layer_metrics(
        totals, delta, ops,
        statistics.mean(child_imports) if child_imports else import_ms,
        overhead_pct,
    )
    problems = [f"self-check: {p}" for p in workload.self_check(values, totals)]
    spans_files = workload.write_spans(
        tracer, out_dir / f"{args.workload}-seed{args.seed}-spans.json"
    )
    untraced_e2e = end_to_end(plain, setup, workload.peak_rss_mb(), calibrator)
    traced_e2e = end_to_end(traced, setup, workload.peak_rss_mb(), calibrator)
    self_times = layers.self_time_rows(totals, ops)

    print(f"tracing overhead: {overhead_pct:+.1f}% on the median op CPU time "
          f"({untraced_e2e['op_cpu_p50_ms']:.1f} ms untraced, n={len(plain['cpu'])}; "
          f"{traced_e2e['op_cpu_p50_ms']:.1f} ms traced, n={ops})")
    print("per-layer metrics (traced window, per op):")
    for name, unit in layers.PER_LAYER:
        mark = "  n/a (layer not driven here)" if layers.not_exercised(args.workload, name) else ""
        print(f"  {name:32s} {values[name]:14.4f} {unit}{mark}")
    print("self time by span (calls/op, total ms/op, self ms/op):")
    for name, calls, total, own in self_times:
        print(f"  {name:24s} {calls:10.1f} {total:10.3f} {own:10.3f}")
    print(f"spans written to {len(spans_files)} file(s): "
          f"{', '.join(str(path.relative_to(ROOT)) for path in spans_files[:3])}"
          f"{' ...' if len(spans_files) > 3 else ''}")
    record = {"untraced": untraced_e2e, "traced": traced_e2e, "self_times": self_times}
    return values, record, problems


def pin_to_one_cpu() -> int:
    """Keep this process, its threads and its children on one CPU, so
    the reference kernel times the same CPU as the ops it scales."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(args) -> int:
    cpu = pin_to_one_cpu()
    start = time.perf_counter_ns()
    import repro.cli  # noqa: F401

    import_ms = (time.perf_counter_ns() - start) / 1e6
    from perfbench import calibrate, checks, layers, workloads

    out_dir = ROOT / ".perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    work_dir = ROOT / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    host = dict(host_facts(), pinned_cpu=cpu)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"host: cpus={host['cpus']} python={host['python']} "
          f"numpy={'yes' if host['numpy'] else 'no'} pinned to cpu {cpu}")

    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, out_dir)
    tally = checks.Tally()
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace, "host": host}
    setup: dict[str, list] = {"cpu": [], "wall": [], "positions": []}
    problems: list[str] = []
    calibrator = calibrate.Calibrator()
    try:
        for rep in range(SETUP_REPS):
            calibrator.sample(CALIBRATE_REPS)
            if rep:
                workload.teardown()
                shutil.rmtree(work_dir / f"setup{rep - 1}", ignore_errors=True)
            setup["positions"].append(calibrator.position())
            began, cpu_began = time.perf_counter(), cpu_seconds()
            workload.setup(work_dir / f"setup{rep}")
            setup["wall"].append(time.perf_counter() - began)
            setup["cpu"].append(cpu_seconds() - cpu_began)
        workload.settle()
        if args.trace == 0:
            window = measure(workload, args.seconds, None, tally, calibrator)
            calibrator.sample(CALIBRATE_REPS)
            values = end_to_end(window, setup, workload.peak_rss_mb(), calibrator)
            units = dict(END_TO_END)
            record["latencies_ms"] = [x * 1000 for x in window["latencies"]]
            record["cpu_ms"] = [x * 1000 for x in window["cpu"]]
            record["kernel_positions"] = window["positions"]
        else:
            values, traced_record, problems = traced_run(
                workload, args, tally, setup, calibrator, import_ms, out_dir
            )
            units = dict(layers.PER_LAYER)
            record.update(traced_record)
    finally:
        try:
            workload.teardown()
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    problems = workload.problems + problems
    if args.trace == 0:
        ops = len(record["latencies_ms"])
        for name, unit in END_TO_END + WALL_CLOCK:
            notes = []
            if name.endswith(("_p50_ms", "_p90_ms")):
                notes.append(f"n={ops}")
            if name.endswith("_p90_ms") and ops < 100:
                notes.append("fewer than 100 ops")
            if (name, unit) in WALL_CLOCK:
                notes.append("wall clock, not in the result line")
            note = f" ({', '.join(notes)})" if notes else ""
            print(f"{name} = {values[name]:.4f} {unit}{note}")
    print(f"reference kernel: {calibrator.kernel_ms():.2f} ms CPU (median of "
          f"{len(calibrator.samples)}); CPU figures scaled to a "
          f"{calibrate.REFERENCE_MS:g} ms kernel, elasticity {calibrate.ELASTICITY:g} "
          f"(by {calibrator.scale():.4f} at the run's median)")
    print(f"fail_ratio = {tally.fail_ratio:.4f} ratio ({tally.failed} of {tally.attempted} ops failed)")
    for reason in tally.reasons:
        print(f"failed op: {reason}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    correct = tally.failed == 0 and not problems
    record.update(metrics=values, setup_times=setup, kernel_samples=calibrator.samples,
                  scale=calibrator.scale(), attempted=tally.attempted,
                  failed=tally.failed, fail_ratio=tally.fail_ratio, problems=problems,
                  failed_ops=tally.reasons, correct=correct)
    record_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints each one's report."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"{name}: exited with {done.returncode}")
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        print()
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
