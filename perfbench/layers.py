"""Per-layer metrics of a traced window, from span totals and from the
deltas of the layers' own ``stats()`` / ``registry_stats()`` counters.

Times and counts are per op (one pass, one process or one pack), so a
figure does not change just because a faster layer elsewhere fitted
more ops into the window.  Ratios are over the whole window.
"""

from __future__ import annotations

#: (name, unit) in the order ``BENCHMARK.json`` lists them.
PER_LAYER = [
    ("cli.import_ms", "ms"),
    ("workspace.load_ms", "ms/op"),
    ("workspace.loads", "count/op"),
    ("environment.build_ms", "ms/op"),
    ("environment.builds", "count/op"),
    ("environment.build_hit_ratio", "ratio"),
    ("assembler.assemble_ms", "ms/op"),
    ("assembler.objects", "count/op"),
    ("assembler.link_ms", "ms/op"),
    ("assembler.links", "count/op"),
    ("decodecache.lookup_ms", "ms/op"),
    ("decodecache.lookups", "count/op"),
    ("decodecache.hit_ratio", "ratio"),
    ("decodecache.registry_evictions", "count/op"),
    ("decodecache.persist_ms", "ms/op"),
    ("jit.compile_ms", "ms/op"),
    ("jit.chains", "count/op"),
    ("jit.exec_share", "ratio"),
    ("session.begin_ms", "ms/op"),
    ("session.drive_ms", "ms/op"),
    ("session.observe_ms", "ms/op"),
    ("session.runs", "count/op"),
    ("soc.full_reset_ms", "ms/op"),
    ("soc.load_image_ms", "ms/op"),
    ("soc.rebuild_dispatch_ms", "ms/op"),
    ("cpu.instructions", "count/op"),
    ("cpu.cycles", "count/op"),
    ("cpu.sb_blocks", "count/op"),
    ("cpu.sb_replays", "count/op"),
    ("cpu.ff_warps", "count/op"),
    ("cpu.sb_fallback_steps", "count/op"),
    ("cpu.host_ns_per_instr", "ns"),
    ("scheduler.run_system_ms", "ms/op"),
    ("scheduler.self_ms", "ms/op"),
    ("cache.get_ms", "ms/op"),
    ("cache.put_ms", "ms/op"),
    ("cache.hit_ratio", "ratio"),
    ("cache.corrupt", "count/op"),
    ("store.load_ms", "ms/op"),
    ("store.save_ms", "ms/op"),
    ("store.hits", "count/op"),
    ("store.misses", "count/op"),
    ("store.corrupt", "count/op"),
    ("store.write_errors", "count/op"),
    ("service.accept_ms", "ms/op"),
    ("service.resolve_ms", "ms/op"),
    ("pool.lease_ms", "ms/op"),
    ("pool.hit_ratio", "ratio"),
    ("journal.accept_ms", "ms/op"),
    ("journal.settle_ms", "ms/op"),
    ("service.shed", "count/op"),
    ("trace.overhead_pct", "%"),
]

#: Layers a workload does not drive; the report marks their metrics n/a.
NOT_EXERCISED = {
    "regress_warm": {"workspace", "cache", "store", "service", "pool", "journal"},
    "port_sweep": {"workspace", "cache", "store", "service", "pool", "journal"},
    "regress_cold": {"cache", "service", "pool", "journal"},
    "serve_edit": set(),
}

#: Counter keys the workloads collect as window deltas.
COUNTERS = (
    "registry_evictions",
    "cache_hits",
    "cache_misses",
    "cache_corrupt",
    "store_hits",
    "store_misses",
    "store_corrupt",
    "store_write_errors",
    "pool_warm_hits",
    "pool_cold_builds",
    "service_shed",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    totals: dict[str, dict],
    counters: dict[str, float],
    ops: int,
    import_ms: float,
    overhead_pct: float,
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric for one traced window."""
    ops = max(ops, 1)

    def entry(name):
        return totals.get(name, {"count": 0, "total_ns": 0, "self_ns": 0,
                                 "values": [], "with_child": {}})

    def ms(name):
        return entry(name)["total_ns"] / 1e6 / ops

    def count(name):
        return entry(name)["count"] / ops

    observed = entry("session.observe")["values"]
    instructions = sum(value[0] for value in observed)
    cycles = sum(value[1] for value in observed)
    engine: dict[str, int] = {}
    for value in entry("scheduler.run_system")["values"]:
        for key, delta in value["engine"].items():
            engine[key] = engine.get(key, 0) + delta
    builds = entry("environment.build")
    lookups = entry("decodecache.lookup")
    cache_probes = (
        counters["cache_hits"] + counters["cache_misses"] + counters["cache_corrupt"]
    )
    pool_leases = counters["pool_warm_hits"] + counters["pool_cold_builds"]
    return {
        "cli.import_ms": import_ms,
        "workspace.load_ms": ms("workspace.load"),
        "workspace.loads": count("workspace.load"),
        "environment.build_ms": ms("environment.build"),
        "environment.builds": count("environment.build"),
        "environment.build_hit_ratio": _ratio(
            builds["count"] - builds["with_child"].get("assembler.link", 0),
            builds["count"],
        ),
        "assembler.assemble_ms": ms("assembler.assemble"),
        "assembler.objects": count("assembler.assemble"),
        "assembler.link_ms": ms("assembler.link"),
        "assembler.links": count("assembler.link"),
        "decodecache.lookup_ms": ms("decodecache.lookup"),
        "decodecache.lookups": count("decodecache.lookup"),
        "decodecache.hit_ratio": _ratio(sum(lookups["values"]), lookups["count"]),
        "decodecache.registry_evictions": counters["registry_evictions"] / ops,
        "decodecache.persist_ms": ms("decodecache.persist"),
        "jit.compile_ms": ms("jit.compile"),
        "jit.chains": sum(entry("jit.compile")["values"]) / ops,
        "jit.exec_share": _ratio(engine.get("jit_exec_steps", 0), instructions),
        "session.begin_ms": ms("session.begin"),
        "session.drive_ms": ms("session.drive"),
        "session.observe_ms": ms("session.observe"),
        "session.runs": count("session.observe"),
        "soc.full_reset_ms": ms("soc.full_reset"),
        "soc.load_image_ms": ms("soc.load_image"),
        "soc.rebuild_dispatch_ms": ms("soc.rebuild_dispatch"),
        "cpu.instructions": instructions / ops,
        "cpu.cycles": cycles / ops,
        "cpu.sb_blocks": engine.get("sb_blocks", 0) / ops,
        "cpu.sb_replays": engine.get("sb_replays", 0) / ops,
        "cpu.ff_warps": engine.get("ff_warps", 0) / ops,
        "cpu.sb_fallback_steps": engine.get("sb_fallback_steps", 0) / ops,
        "cpu.host_ns_per_instr": _ratio(
            entry("session.drive")["total_ns"], instructions
        ),
        "scheduler.run_system_ms": ms("scheduler.run_system"),
        "scheduler.self_ms": entry("scheduler.run_system")["self_ns"] / 1e6 / ops,
        "cache.get_ms": ms("cache.get"),
        "cache.put_ms": ms("cache.put"),
        "cache.hit_ratio": _ratio(counters["cache_hits"], cache_probes),
        "cache.corrupt": counters["cache_corrupt"] / ops,
        "store.load_ms": ms("store.load"),
        "store.save_ms": ms("store.save"),
        "store.hits": counters["store_hits"] / ops,
        "store.misses": counters["store_misses"] / ops,
        "store.corrupt": counters["store_corrupt"] / ops,
        "store.write_errors": counters["store_write_errors"] / ops,
        "service.accept_ms": ms("service.accept"),
        "service.resolve_ms": ms("service.resolve"),
        "pool.lease_ms": ms("pool.lease"),
        "pool.hit_ratio": _ratio(counters["pool_warm_hits"], pool_leases),
        "journal.accept_ms": ms("journal.accept"),
        "journal.settle_ms": ms("journal.settle"),
        "service.shed": counters["service_shed"] / ops,
        "trace.overhead_pct": overhead_pct,
    }


def self_time_rows(totals: dict[str, dict], ops: int) -> list[tuple[str, float, float, float]]:
    """(span name, calls/op, total ms/op, self ms/op), busiest self first."""
    ops = max(ops, 1)
    rows = [
        (name, entry["count"] / ops, entry["total_ns"] / 1e6 / ops,
         entry["self_ns"] / 1e6 / ops)
        for name, entry in totals.items()
    ]
    return sorted(rows, key=lambda row: -row[3])


def not_exercised(workload: str, metric: str) -> bool:
    return metric.split(".", 1)[0] in NOT_EXERCISED.get(workload, set())
