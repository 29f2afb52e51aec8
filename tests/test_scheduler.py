"""Tests for the parallel, cached regression scheduler."""

import pytest

from repro.cli import main
from repro.core.regression import RegressionRunner
from repro.core.scheduler import (
    RegressionScheduler,
    ResultCache,
    RunRequest,
    result_from_payload,
    result_to_payload,
)
from repro.core.targets import TARGET_GOLDEN, all_targets, target
from repro.core.workloads import make_nvm_environment, make_uart_environment
from repro.core.workspace import SYSTEM_DIR_NAME
from repro.isa.instructions import Opcode
from repro.platforms import GateLevelSim, NetlistFault, RunStatus
from repro.soc.derivatives import SC88A


def status_matrix(report):
    return {key: result.status for key, result in report.results.items()}


def make_environments():
    return {
        "NVM": make_nvm_environment(2),
        "UART": make_uart_environment(1),
    }


class TestWorkList:
    def test_work_list_covers_matrix(self):
        env = make_nvm_environment(2)
        scheduler = RegressionScheduler()
        work = scheduler._work_list({"NVM": env}, SC88A)
        assert len(work) == 2 * len(all_targets())
        requests = {request for request, _image, _tgt in work}
        assert (
            RunRequest("NVM", "TEST_NVM_PAGE_001", "sc88a", "golden")
            in requests
        )

    def test_equal_build_inputs_share_one_image(self):
        # golden/accelerator and bondout/silicon have identical target
        # defines, so the work-list must reuse their built images.
        env = make_nvm_environment(1)
        work = RegressionScheduler()._work_list({"NVM": env}, SC88A)
        image_by_target = {
            request.target: image for request, image, _tgt in work
        }
        assert image_by_target["golden"] is image_by_target["accelerator"]
        assert image_by_target["bondout"] is image_by_target["silicon"]
        assert image_by_target["golden"] is not image_by_target["rtl"]


class TestExecutors:
    def test_serial_matches_legacy_runner(self):
        report = RegressionScheduler().run_system(
            make_environments(), SC88A
        )
        legacy = RegressionRunner().run_system(make_environments(), SC88A)
        assert status_matrix(report) == status_matrix(legacy)
        assert report.clean

    @pytest.mark.parametrize("executor", ["process"])
    def test_pooled_matches_serial(self, executor):
        serial = RegressionScheduler().run_system(
            make_environments(), SC88A
        )
        pooled = RegressionScheduler(jobs=3, executor=executor).run_system(
            make_environments(), SC88A
        )
        assert status_matrix(pooled) == status_matrix(serial)
        assert pooled.executed_runs == pooled.total_runs

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            RegressionScheduler(executor="carrier-pigeon")

    def test_divergence_attribution_with_overrides(self):
        fault = NetlistFault(
            opcode=int(Opcode.SETB),
            xor_mask=0x1,
            description="stuck bit",
        )
        scheduler = RegressionScheduler(
            jobs=2,
            executor="process",
            platform_overrides={"gatelevel": GateLevelSim(fault=fault)},
        )
        report = scheduler.run_environment(make_nvm_environment(2), SC88A)
        assert set(report.suspect_platforms()) == {"gatelevel"}
        assert report.suspect_platforms()["gatelevel"] == 2


class TestResultCache:
    def test_roundtrip_payload(self):
        env = make_nvm_environment(1)
        result = env.run_test("TEST_NVM_PAGE_001", SC88A, "rtl")
        restored = result_from_payload(result_to_payload(result))
        assert restored.status is result.status
        assert restored.cycles == result.cycles
        assert restored.signature == result.signature
        assert [t.pc for t in restored.trace] == [
            t.pc for t in result.trace
        ]

    def test_warm_cache_executes_zero_runs(self, tmp_path):
        cache = ResultCache(tmp_path)
        scheduler = RegressionScheduler(cache=cache)
        cold = scheduler.run_system(make_environments(), SC88A)
        assert cold.executed_runs == cold.total_runs
        assert cold.cached_runs == 0
        warm = scheduler.run_system(make_environments(), SC88A)
        assert warm.executed_runs == 0
        assert warm.cached_runs == warm.total_runs
        assert status_matrix(warm) == status_matrix(cold)
        assert warm.divergences == cold.divergences == []
        assert "served from cache" in warm.summary()

    def test_cache_persists_across_scheduler_instances(self, tmp_path):
        RegressionScheduler(cache=ResultCache(tmp_path)).run_environment(
            make_nvm_environment(1), SC88A
        )
        warm = RegressionScheduler(
            cache=ResultCache(tmp_path)
        ).run_environment(make_nvm_environment(1), SC88A)
        assert warm.executed_runs == 0

    def test_changed_cell_invalidates_only_its_runs(self, tmp_path):
        cache = ResultCache(tmp_path)
        scheduler = RegressionScheduler(cache=cache)
        scheduler.run_environment(make_nvm_environment(2), SC88A)
        # Same suite, but test 2 now targets a different NVM page: its
        # image digests change, test 1's do not.
        changed = make_nvm_environment(2, page_overrides={2: 19})
        report = scheduler.run_environment(changed, SC88A)
        executed_cells = {
            key[1]
            for key, result in report.results.items()
        }
        assert report.cached_runs == len(all_targets())
        assert report.executed_runs == len(all_targets())
        assert executed_cells == {"TEST_NVM_PAGE_001", "TEST_NVM_PAGE_002"}

    def test_overridden_platform_never_cached(self, tmp_path):
        fault = NetlistFault(opcode=int(Opcode.SETB), xor_mask=0x1)
        scheduler = RegressionScheduler(
            cache=ResultCache(tmp_path),
            platform_overrides={"gatelevel": GateLevelSim(fault=fault)},
            targets=[TARGET_GOLDEN, target("gatelevel")],
        )
        env = make_nvm_environment(1)
        scheduler.run_environment(env, SC88A)
        warm = scheduler.run_environment(env, SC88A)
        # golden comes from cache; the faulty gatelevel re-executes.
        assert warm.cached_runs == 1
        assert warm.executed_runs == 1
        assert set(warm.suspect_platforms()) == {"gatelevel"}

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        scheduler = RegressionScheduler(cache=cache)
        env = make_nvm_environment(1)
        scheduler.run_environment(env, SC88A)
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        report = scheduler.run_environment(env, SC88A)
        assert report.executed_runs == report.total_runs
        assert report.clean


class TestRegressCli:
    @pytest.fixture
    def workspace(self, tmp_path):
        assert (
            main(
                [
                    "init",
                    str(tmp_path),
                    "--nvm-tests",
                    "1",
                    "--uart-tests",
                    "1",
                ]
            )
            == 0
        )
        return tmp_path / SYSTEM_DIR_NAME

    def test_regress_with_jobs(self, workspace, capsys):
        code = main(
            [
                "regress", str(workspace), "NVM",
                "--targets", "golden,rtl",
                "--jobs", "2", "--executor", "process",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2/2 runs ok" in out

    def test_regress_cache_roundtrip(self, workspace, tmp_path, capsys):
        cache_dir = tmp_path / "verdicts"
        argv = [
            "regress", str(workspace), "NVM",
            "--targets", "golden,rtl",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        cold_out = capsys.readouterr().out
        assert "2/2 runs ok" in cold_out
        assert "served from cache" not in cold_out
        assert main(argv) == 0
        assert "0 run(s) executed, 2 served from cache" in (
            capsys.readouterr().out
        )

    def test_no_cache_flag_forces_execution(self, workspace, tmp_path, capsys):
        cache_dir = tmp_path / "verdicts"
        argv = [
            "regress", str(workspace), "NVM",
            "--targets", "golden",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "1/1 runs ok" in out
        assert "served from cache" not in out
