"""Tests for the benchmark itself: seeded inputs, span arithmetic and
failure accounting."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import calibrate, checks, layers, run, tracing, treegen

ROOT = Path(__file__).resolve().parents[2]


def _tree_bytes(system_dir: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(system_dir)): path.read_bytes()
        for path in sorted(system_dir.rglob("*"))
        if path.is_file()
    }


def test_seed_zero_is_the_advm_init_tree(tmp_path, capsys):
    from repro.cli import main

    assert main(["init", str(tmp_path / "init")]) == 0
    capsys.readouterr()
    init = _tree_bytes(tmp_path / "init" / "ADVM_System_Verification_Environment")
    seeded = _tree_bytes(treegen.generate_tree(0, tmp_path / "seed0"))
    assert seeded == init


def test_same_seed_same_tree_and_packs(tmp_path):
    first = treegen.generate_tree(7, tmp_path / "a")
    second = treegen.generate_tree(7, tmp_path / "b")
    assert _tree_bytes(first) == _tree_bytes(second)
    packs = [
        json.dumps(
            treegen.make_packs(7, treegen.tree_cells(system_dir), 500), sort_keys=True
        ).encode()
        for system_dir in (first, second)
    ]
    assert packs[0] == packs[1]
    cells = treegen.tree_cells(first)
    sequence = treegen.make_packs(7, cells, 500)
    assert sequence != treegen.make_packs(8, cells, 500)
    assert any(entry["edit"] for entry in sequence)
    for entry in sequence:
        pack = entry["pack"]
        assert len(pack["modules"]) == 1
        assert set(pack["cells"]) <= set(cells[pack["modules"][0]])
        assert entry["edit"] is None or entry["edit"] in pack["cells"]
    # Selections are drawn per pack, not from a fixed pool.
    selections = {(e["pack"]["modules"][0], tuple(e["pack"]["cells"])) for e in sequence}
    assert len(selections) > 40


def test_other_seeds_keep_the_shape(tmp_path):
    shapes = {treegen.tree_shape(seed) for seed in range(1, 6)}
    assert len(shapes) > 1
    three = treegen.generate_tree(3, tmp_path / "three")
    cells = treegen.tree_cells(three)
    assert len(cells) == 6
    assert sum(len(names) for names in cells.values()) == 27
    assert _tree_bytes(three) != _tree_bytes(treegen.generate_tree(0, tmp_path / "zero"))


def test_self_time_of_nested_spans():
    ticks = iter([0, 10, 12, 15, 20, 25, 30, 40])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    a = tracer.begin("a")
    b = tracer.begin("b")
    c = tracer.begin("c")
    tracer.end(c)
    tracer.end(b)
    d = tracer.begin("d")
    tracer.end(d)
    tracer.end(a)
    own = tracing.self_times(tracer.spans)
    assert own[a[tracing.ID]] == 40 - 10 - 5
    assert own[b[tracing.ID]] == 10 - 3
    assert own[c[tracing.ID]] == 3
    assert own[d[tracing.ID]] == 5
    totals = tracing.totals_by_name(tracer.spans)
    assert totals["a"]["self_ns"] == 25 and totals["a"]["total_ns"] == 40
    assert totals["a"]["with_child"] == {"b": 1, "d": 1}


def test_overlapping_children_count_once():
    # Children from two threads under one op root may overlap.
    spans = [
        [1, "op", 0, 100, None, 0, None],
        [2, "x", 10, 50, 1, 0, None],
        [3, "y", 40, 60, 1, 0, None],
        [4, "z", 90, 120, 1, 0, None],
    ]
    assert tracing.self_times(spans)[1] == 100 - 50 - 10


def _one_cell_report(source: str):
    from repro.core.environment import ModuleTestEnvironment, TestCell
    from repro.core.scheduler import RegressionScheduler
    from repro.core.targets import target
    from repro.soc.derivatives import derivative

    env = ModuleTestEnvironment("BENCHCHECK")
    env.add_test(TestCell(name="TEST_ONE", source=source))
    scheduler = RegressionScheduler(targets=[target("golden")], executor="serial")
    return scheduler.run_system({env.name: env}, derivative("sc88a"))


def test_fail_ratio_counts_a_forced_non_pass_run():
    passing = _one_cell_report(".INCLUDE Globals.inc\n_main:\n    JMP Base_Report_Pass\n")
    failing = _one_cell_report(".INCLUDE Globals.inc\n_main:\n    JMP Base_Report_Fail\n")
    tally = checks.Tally()
    assert tally.record(checks.judge_report(passing, 1, None))
    assert not tally.record(checks.judge_report(failing, 1, None))
    assert (tally.attempted, tally.failed, tally.fail_ratio) == (2, 1, 0.5)
    # A passing run whose result differs from the reference fails too.
    assert not tally.record(checks.judge_report(passing, 1, "0" * 64))
    assert tally.failed == 2


def test_calibrator_scales_each_op_by_the_samples_near_it():
    cal = calibrate.Calibrator()
    # The host slows fourfold after the third sample.
    cal.samples = [0.010] * 3 + [0.040] * 3
    fast, slow = (20 / 10) ** calibrate.ELASTICITY, (20 / 40) ** calibrate.ELASTICITY
    middle = (20 / 25) ** calibrate.ELASTICITY
    assert cal.scaled([1.0, 1.0, 1.0], [1, 3, 5]) == pytest.approx([fast, middle, slow])
    assert cal.kernel_ms() == pytest.approx(25.0)
    assert calibrate.kernel() == calibrate.kernel()


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
