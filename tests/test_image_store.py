"""Linked images in the artifact store: a cold process skips the assembler.

``ModuleTestEnvironment.build_image`` looks a build up in process, then
in the installed artifact store, and only then assembles and links (and
saves the image).  These tests pin the contract: a stored image is the
image a fresh assemble produces, every build input invalidates it,
``use_cache=False`` never touches the store, an identical second
process writes nothing, and a damaged or failing store changes no
verdict.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.faults import SITE_STORE_READ, FaultInjector, FaultPlan, FaultSpec
from repro.core.scheduler import RegressionScheduler, result_to_payload
from repro.core.system_env import make_default_system
from repro.core.targets import target as lookup_target
from repro.core.workspace import load_module_environment, write_system_environment
from repro.isa.decodecache import reset_registry, set_artifact_store
from repro.soc.derivatives import derivative as lookup_derivative
from repro.store import ArtifactStore
from repro.store.artifacts import restore_image, snapshot_image

SC88A = lookup_derivative("sc88a")
GOLDEN = lookup_target("golden")
RTL = lookup_target("rtl")


@pytest.fixture(scope="module")
def system_dir(tmp_path_factory):
    return write_system_environment(
        make_default_system(nvm_tests=2, uart_tests=0),
        tmp_path_factory.mktemp("image-ws") / "ws",
    )


@pytest.fixture(autouse=True)
def clean_global_store():
    yield
    set_artifact_store(None)


def fresh_env(system_dir):
    """The NVM module as a new process would load it: empty build caches."""
    return load_module_environment(system_dir / "NVM")


def install(directory, injector=None) -> ArtifactStore:
    store = ArtifactStore(directory, injector=injector)
    set_artifact_store(store)
    return store


def image_files(directory) -> dict[str, int]:
    return {
        path.name: path.stat().st_mtime_ns
        for path in directory.glob("image-*.art")
    }


def regress(system_dir) -> str:
    """One regression from a cold process's point of view; returns the
    digest over every verdict."""
    reset_registry()
    scheduler = RegressionScheduler(targets=[GOLDEN, RTL], executor="serial")
    report = scheduler.run_system({"NVM": fresh_env(system_dir)}, SC88A)
    assert report.clean
    rows = sorted(
        (key, json.dumps(result_to_payload(result), sort_keys=True))
        for key, result in report.results.items()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestIdentity:
    def test_store_hit_equals_a_fresh_assemble(self, tmp_path, system_dir):
        store = install(tmp_path)
        cell = next(iter(fresh_env(system_dir).cells))
        fresh_env(system_dir).build_image(cell, SC88A, RTL)
        assert (store.image_misses, store.saved) == (1, 1)

        env = fresh_env(system_dir)
        hit = env.build_image(cell, SC88A, RTL)
        assert (store.image_hits, store.hits) == (1, 1)
        assert env.build_image(cell, SC88A, RTL) is hit  # now in process
        assert store.image_hits == 1

        cold = fresh_env(system_dir).build_image(cell, SC88A, RTL, use_cache=False)
        assert hit.image.digest() == cold.image.digest()
        assert hit.image.symbols == cold.image.symbols
        assert list(hit.image.symbols) == list(cold.image.symbols)
        assert hit.image.entry == cold.image.entry
        assert [
            (s.object_name, s.name, s.base, s.data) for s in hit.image.segments
        ] == [(s.object_name, s.name, s.base, s.data) for s in cold.image.segments]
        # The object files of a store hit are assembled on first access.
        assert hit.test_object.name == cold.test_object.name
        assert hit.test_object.total_size == cold.test_object.total_size
        assert (
            hit.base_functions_object.total_size
            == cold.base_functions_object.total_size
        )
        assert [o.name for o in hit.global_objects] == [
            o.name for o in cold.global_objects
        ]

    def test_restore_checks_the_recorded_digest(self, system_dir):
        env = fresh_env(system_dir)
        image = env.build_image(next(iter(env.cells)), SC88A, GOLDEN).image
        payload = snapshot_image(image)
        assert restore_image(payload).digest() == image.digest()
        # One segment byte changed, length kept: the recorded digest
        # is what catches it.
        tampered = bytearray(payload)
        tampered[-1] ^= 0x01
        with pytest.raises(ValueError, match="digest"):
            restore_image(bytes(tampered))
        with pytest.raises(ValueError, match="length"):
            restore_image(payload + b"\0")

    def test_use_cache_false_never_touches_the_store(self, tmp_path, system_dir):
        store = install(tmp_path)
        cell = next(iter(fresh_env(system_dir).cells))
        fresh_env(system_dir).build_image(cell, SC88A, GOLDEN)
        before = dict(store.stats())
        files = image_files(tmp_path)

        fresh_env(system_dir).build_image(cell, SC88A, GOLDEN, use_cache=False)
        assert store.stats() == before
        assert image_files(tmp_path) == files

    def test_second_identical_process_saves_no_image(self, tmp_path, system_dir):
        first = install(tmp_path)
        regress(system_dir)
        written = image_files(tmp_path)
        assert first.image_misses == len(written) >= 2

        saved = []
        for _ in range(5):
            store = install(tmp_path)
            regress(system_dir)
            assert store.image_misses == 0
            assert store.image_hits == len(written)
            assert image_files(tmp_path) == written
            saved.append(store.saved)
            if store.saved == 0:
                break
        # Decode snapshots settle too, so a warmed store reaches a
        # process that writes nothing at all.
        assert saved[-1] == 0, saved


class TestInvalidation:
    def edit_source(self, env, cell):
        env.cells[cell].source += "\n    NOP\n"

    def edit_define(self, env):
        old = "SCRATCH_ADDR .EQU 0x1000ff10"
        text = env.globals_text()
        assert old in text
        text = text.replace(old, "SCRATCH_ADDR .EQU 0x1000ff20")
        env.globals_text = lambda: text

    @pytest.mark.parametrize(
        "change", ["source", "define", "derivative", "target"]
    )
    def test_every_build_input_misses(self, tmp_path, system_dir, change):
        install(tmp_path)
        cell = next(iter(fresh_env(system_dir).cells))
        fresh_env(system_dir).build_image(cell, SC88A, GOLDEN)

        store = install(tmp_path)
        env = fresh_env(system_dir)
        derivative, tgt = SC88A, GOLDEN
        if change == "source":
            self.edit_source(env, cell)
        elif change == "define":
            self.edit_define(env)
        elif change == "derivative":
            derivative = lookup_derivative("sc88b")
        else:
            tgt = RTL
            assert env.build_signature(RTL) != env.build_signature(GOLDEN)
        env.build_image(cell, derivative, tgt)
        assert (store.image_hits, store.image_misses) == (0, 1)

        # The unchanged build still hits.
        fresh_env(system_dir).build_image(cell, SC88A, GOLDEN)
        assert store.image_hits == 1


class TestDamagedStore:
    """A damaged or failing image store changes no verdict."""

    def test_damaged_images_give_the_no_store_digest(self, tmp_path, system_dir):
        baseline = regress(system_dir)
        install(tmp_path)
        assert regress(system_dir) == baseline
        damaged = sorted(tmp_path.glob("image-*.art"))
        assert damaged
        for path in damaged:
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))

        store = install(tmp_path)
        assert regress(system_dir) == baseline
        assert store.image_hits == 0
        assert store.corrupt == store.quarantined == len(damaged)

    def test_read_fault_on_every_image_gives_the_no_store_digest(
        self, tmp_path, system_dir
    ):
        baseline = regress(system_dir)
        install(tmp_path)
        regress(system_dir)
        images = len(image_files(tmp_path))

        plan = FaultPlan(specs=[
            FaultSpec(site=SITE_STORE_READ, action="raise", match="image-",
                      times=10_000),
        ])
        injector = FaultInjector(plan)
        store = install(tmp_path, injector=injector)
        assert regress(system_dir) == baseline
        assert store.image_hits == 0
        assert store.corrupt == images
        assert len(injector.fired) == images
