"""Recovery correctness across the full algorithm/configuration matrix.

The central claim of any checkpointing scheme: after *any* crash, the
recovered primary database equals the durable committed state -- no
committed update lost, no uncommitted effect visible.  These tests sweep
algorithms, scopes, policies, workload skews, and crash instants, always
checking the recovered database against the independent oracle.
"""

from __future__ import annotations

import pytest

from tests.helpers import build_system, run_crash_recover
from repro.checkpoint.base import CheckpointScope
from repro.checkpoint.registry import ALGORITHM_NAMES
from repro.errors import CrashError
from repro.faults import CrashSpec, FaultPlan
from repro.workload import AccessDistribution, WorkloadSpec

NON_STABLE = [n for n in ALGORITHM_NAMES if n != "FASTFUZZY"]


@pytest.mark.parametrize("algorithm", NON_STABLE)
@pytest.mark.parametrize("seed", [1, 2])
class TestAllAlgorithmsRecover:
    def test_min_duration_policy(self, small_params, algorithm, seed):
        system = build_system(small_params, algorithm, seed=seed)
        metrics, result, mismatches = run_crash_recover(system, 4.0)
        assert metrics.transactions_committed > 0
        assert mismatches == []

    def test_fixed_interval_policy(self, small_params, algorithm, seed):
        system = build_system(small_params, algorithm, seed=seed,
                              interval=0.8)
        _, _, mismatches = run_crash_recover(system, 4.0)
        assert mismatches == []


@pytest.mark.parametrize("algorithm", NON_STABLE)
class TestScopeAndCrashTiming:
    def test_full_scope_recovers(self, small_params, algorithm):
        system = build_system(small_params, algorithm, seed=3,
                              scope=CheckpointScope.FULL)
        _, _, mismatches = run_crash_recover(system, 3.0)
        assert mismatches == []

    @pytest.mark.parametrize("crash_after", [0.05, 0.61, 2.3])
    def test_crash_at_assorted_instants(self, small_params, algorithm,
                                        crash_after):
        system = build_system(small_params, algorithm, seed=4)
        _, _, mismatches = run_crash_recover(system, crash_after)
        assert mismatches == []

    def test_repeated_crash_recover_cycles(self, small_params, algorithm):
        system = build_system(small_params, algorithm, seed=5)
        for cycle in range(3):
            system.run(1.0)
            system.crash()
            system.recover()
            assert system.verify_recovery() == [], f"cycle {cycle}"


class TestStableTailConfigurations:
    @pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
    def test_all_algorithms_with_stable_tail(self, small_params, algorithm):
        params = small_params.replace(stable_log_tail=True)
        system = build_system(params, algorithm, seed=6)
        metrics, _, mismatches = run_crash_recover(system, 3.0)
        assert metrics.transactions_committed > 0
        assert mismatches == []

    def test_fastfuzzy_recovers_after_mid_checkpoint_crash(self, small_params):
        params = small_params.replace(stable_log_tail=True)
        system = build_system(params, "FASTFUZZY", seed=7)
        system.run(2.0)
        for _ in range(200000):
            if system.checkpointer.active:
                break
            system.engine.run(max_events=1)
        assert system.checkpointer.active
        system.crash()
        system.recover()
        assert system.verify_recovery() == []


class TestWorkloadSkew:
    @pytest.mark.parametrize("algorithm", ["FUZZYCOPY", "2CCOPY", "COUCOPY"])
    @pytest.mark.parametrize("distribution", [
        AccessDistribution.ZIPF, AccessDistribution.HOTSPOT,
    ])
    def test_skewed_workloads_recover(self, small_params, algorithm,
                                      distribution):
        system = build_system(
            small_params, algorithm, seed=8,
            workload=WorkloadSpec(distribution=distribution))
        _, _, mismatches = run_crash_recover(system, 3.0)
        assert mismatches == []


class TestColdStart:
    """No preloaded backup: the first checkpoints are the full bootstrap."""

    @pytest.mark.parametrize("algorithm", NON_STABLE)
    def test_cold_start_recovers(self, small_params, algorithm):
        system = build_system(small_params, algorithm, seed=9, preload=False)
        _, _, mismatches = run_crash_recover(system, 3.0)
        assert mismatches == []


class TestFileBackendMatrix:
    """The durable file-backed images recover exactly like in-memory
    ones: the medium behind :class:`~repro.storage.backup.BackupImage`
    is invisible to checkpointing and recovery."""

    @pytest.mark.parametrize("algorithm", NON_STABLE)
    def test_file_backend_recovers(self, small_params, algorithm, tmp_path):
        from repro.sim.builder import SystemBuilder
        from repro.sim.system import SimulationConfig
        from repro.storage.backends import create_backend_factory

        config = SimulationConfig(
            params=small_params, algorithm=algorithm, seed=13,
            preload_backup=True)
        factory = create_backend_factory("file", small_params,
                                         directory=str(tmp_path))
        system = (SystemBuilder(config)
                  .with_storage_backend(factory)
                  .build())
        assert system.backup.image(0).backend.name == "file"
        metrics, _, mismatches = run_crash_recover(system, 3.0)
        assert metrics.transactions_committed > 0
        assert mismatches == []


class TestFaultPlanCrashes:
    """Plan-driven mid-flight crashes (the end-of-run crashes above never
    catch a checkpoint in the act; these always do).  The exhaustive
    seeded matrix lives in ``test_fault_injection.py -m faultmatrix``."""

    @staticmethod
    def _run_plan(params, algorithm, plan, duration=6.0):
        system = build_system(params, algorithm, seed=10, interval=0.8,
                              fault_plan=plan)
        with pytest.raises(CrashError):
            system.run(duration)
        system.crash()
        system.recover()
        return system

    @pytest.mark.parametrize("algorithm", NON_STABLE)
    def test_mid_checkpoint_crash_recovers(self, small_params, algorithm):
        plan = FaultPlan(seed=1, crash=CrashSpec(
            at_phase="sweep", checkpoint_ordinal=2, after_flushes=2))
        system = self._run_plan(small_params, algorithm, plan)
        assert system.verify_recovery() == []

    @pytest.mark.parametrize("algorithm", ["FUZZYCOPY", "2CCOPY", "COUCOPY"])
    def test_torn_mid_checkpoint_crash_recovers(self, small_params,
                                                algorithm):
        plan = FaultPlan(seed=2, torn_writes=True, crash=CrashSpec(
            at_phase="sweep", checkpoint_ordinal=2, after_flushes=4))
        system = self._run_plan(small_params, algorithm, plan)
        assert system.verify_recovery() == []
