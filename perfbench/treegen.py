"""Seeded inputs: the system tree every workload regresses, and the
scenario-pack sequence the ``serve_edit`` client submits.

Seed 0 is the ``advm init`` tree exactly (4 NVM page tests, 3 UART
loopback tests).  Any other seed draws which NVM and UART test indices
the tree holds -- and with them the NVM pages, page patterns and UART
bytes -- through the public generators in :mod:`repro.core.workloads`.
The shape never changes: 6 modules, 27 cells, 162 runs per derivative,
so throughput figures from different seeds measure the same amount of
work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

NVM_TESTS = 4
UART_TESTS = 3
#: Every NVM index maps to a distinct page of the narrowest derivative's
#: 32 (``page_for_test``), and every UART index to a distinct byte.
NVM_INDEX_RANGE = range(1, 33)
UART_INDEX_RANGE = range(1, 27)

#: Targets a ``serve_edit`` pack may name (the full platform matrix).
PACK_TARGETS = ("golden", "rtl", "gatelevel", "accelerator", "bondout", "silicon")
#: ``serve_edit`` traffic mix.  The workload is specified only by its
#: shape (one module, a few cells, a subset of targets, an edit before a
#: seeded share of packs); these numbers are an unverified assumption,
#: not measured from any client.  They set the workload's figures: the
#: edit share and the share of new cell selections set the tail, the
#: rest (result-cache hits) the median.
CELLS_PER_PACK = 2
TARGETS_PER_PACK = 3
#: One pack in this many is preceded by an on-disk edit of one of its cells.
EDIT_EVERY = 40


@dataclass(frozen=True)
class TreeShape:
    """Which generator indices a seed's tree holds."""

    nvm_indices: tuple[int, ...]
    uart_indices: tuple[int, ...]


def tree_shape(seed: int) -> TreeShape:
    if seed == 0:
        return TreeShape(
            tuple(range(1, NVM_TESTS + 1)), tuple(range(1, UART_TESTS + 1))
        )
    rng = random.Random(f"advm-tree-{seed}")
    return TreeShape(
        tuple(sorted(rng.sample(NVM_INDEX_RANGE, NVM_TESTS))),
        tuple(sorted(rng.sample(UART_INDEX_RANGE, UART_TESTS))),
    )


def make_system(seed: int):
    """The seed's :class:`~repro.core.system_env.SystemEnvironment`."""
    from repro.core.environment import ModuleTestEnvironment
    from repro.core.system_env import SystemEnvironment, make_default_system
    from repro.core.workloads import (
        PATTERN_SEED,
        make_datapath_environment,
        make_register_environment,
        make_reginit_environment,
        make_timer_environment,
        nvm_test_advm,
        page_for_test,
        uart_banner_test,
        uart_loopback_test,
    )

    if seed == 0:
        return make_default_system(nvm_tests=NVM_TESTS, uart_tests=UART_TESTS)
    shape = tree_shape(seed)
    system = SystemEnvironment()
    common = {
        "derivatives": system.derivatives,
        "targets": system.targets,
        "global_layer": system.global_layer,
    }
    # make_nvm_environment / make_uart_environment fix their indices to
    # 1..n, so the seeded modules are assembled here from the same
    # per-test generators and the same extras convention.
    extras = {"PATTERN_SEED": PATTERN_SEED}
    for index in shape.nvm_indices:
        extras[f"TEST{index}_TARGET_PAGE"] = page_for_test(index)
    nvm = ModuleTestEnvironment("NVM", extras=extras, **common)
    for index in shape.nvm_indices:
        nvm.add_test(nvm_test_advm(index))
    uart = ModuleTestEnvironment("UART", **common)
    for index in shape.uart_indices:
        uart.add_test(uart_loopback_test(index))
    uart.add_test(uart_banner_test())
    for env in (
        nvm,
        uart,
        make_timer_environment(**common),
        make_reginit_environment(**common),
        make_register_environment(**common),
        make_datapath_environment(**common),
    ):
        system.add_environment(env)
    return system


def generate_tree(seed: int, directory: Path) -> Path:
    """Write the seed's tree under *directory*; returns the system dir."""
    from repro.core.workspace import write_system_environment

    return write_system_environment(make_system(seed), directory)


def tree_cells(system_dir: Path) -> dict[str, list[str]]:
    """Module -> sorted cell names, read back from a written tree."""
    return {
        module.name: sorted(
            cell.name
            for cell in module.iterdir()
            if cell.is_dir() and cell.name != "Abstraction_Layer"
        )
        for module in sorted(system_dir.iterdir())
        if module.is_dir() and module.name != "Global_Libraries"
    }


def make_packs(seed: int, cells: dict[str, list[str]], count: int) -> list[dict]:
    """The seed's ``serve_edit`` sequence: *count* entries of
    ``{"pack": <scenario pack>, "edit": <cell name or None>}``.

    Every pack names one module, :data:`CELLS_PER_PACK` of its cells
    (all of them in a smaller module) and :data:`TARGETS_PER_PACK`
    targets on sc88a, each drawn from the seed, so new cell selections
    keep appearing.  Modules come in shuffled rounds of one pack each,
    so every seed's window holds the same mix of modules.  ``edit`` names the cell whose source the client
    rewrites before sending the pack, so that its image changes; one
    pack in every :data:`EDIT_EVERY` has one, at a seeded offset, so a
    window of a given length always holds the same share of edits.
    """
    rng = random.Random(f"advm-packs-{seed}")
    modules = sorted(cells)
    offset = rng.randrange(EDIT_EVERY)
    packs = []
    order: list[str] = []
    for index in range(count):
        if not order:
            order = rng.sample(modules, len(modules))
        module = order.pop()
        pack = {
            "schema": 1,
            "name": f"bench-{index:05d}",
            "modules": [module],
            "cells": sorted(
                rng.sample(cells[module], min(CELLS_PER_PACK, len(cells[module])))
            ),
            "targets": sorted(rng.sample(PACK_TARGETS, TARGETS_PER_PACK)),
            "derivative": "sc88a",
            "executor": "serial",
        }
        edit = rng.choice(pack["cells"]) if index % EDIT_EVERY == offset else None
        packs.append({"pack": pack, "edit": edit})
    return packs
