"""Tests for SimSan, the runtime cluster sanitizer (`repro.sanitizer`).

Contract: each detector fires on a synthetic violation with structured
context and stays quiet on the corresponding clean pattern; activation is
opt-in (env var, context manager, explicit enable) and nests correctly; the
instrumentation is semantics-preserving -- pre-existing error contracts
(``KeyError`` probes) are untouched and a sanitized solve is bit-identical
to an unsanitized one.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import sanitizer
from repro.cluster import CommunicationError, VirtualCluster
from repro.cluster.cost_model import CostLedger, MachineModel, Phase
from repro.sanitizer import DETECTORS, SanitizerError, SimSan, op_window


@pytest.fixture(autouse=True)
def _sanitizer_off_between_tests():
    """Each test starts from a known-off sanitizer and may not leak one.

    Disabling on entry also makes this file behave identically in the
    plain and the ``REPRO_SANITIZE=1`` CI lanes: these tests manage their
    own activation.
    """
    sanitizer.disable()
    yield
    sanitizer.disable()


@pytest.fixture
def cluster():
    return VirtualCluster(4)


def failed_and_replaced(cluster, rank, **payload):
    """Store *payload* on *rank*, then fail and replace the node."""
    memory = cluster.node(rank).memory
    for key, value in payload.items():
        memory[key] = value
    cluster.fail_nodes([rank])
    cluster.replace_nodes([rank])
    return cluster.node(rank)


class TestActivation:
    def test_off_unless_env_armed(self, monkeypatch):
        """With no REPRO_SANITIZE in the environment, import-time arming
        (``enable_from_env``) leaves the sanitizer off."""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitizer.enable_from_env() is None
        assert sanitizer.active() is None

    def test_enable_disable(self):
        san = sanitizer.enable()
        assert sanitizer.active() is san
        sanitizer.disable()
        assert sanitizer.active() is None

    def test_enable_is_idempotent(self):
        first = sanitizer.enable()
        assert sanitizer.enable() is first

    def test_context_manager_restores_previous_state(self):
        with sanitizer.sanitized() as san:
            assert sanitizer.active() is san
            with sanitizer.sanitized() as inner:
                assert inner is san  # nesting reuses the active instance
        assert sanitizer.active() is None

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError, match="boom"):
            with sanitizer.sanitized():
                raise RuntimeError("boom")
        assert sanitizer.active() is None

    @pytest.mark.parametrize("name", [
        "not_a_detector", "unmatched_send", "allreduce_uniformity"])
    def test_unknown_detector_rejected(self, name):
        with pytest.raises(ValueError, match="unknown sanitizer detector"):
            SimSan([name])

    def test_detector_subset(self):
        san = SimSan(["uncharged_op"])
        assert san.enabled("uncharged_op")
        assert not san.enabled("use_after_failure")

    @pytest.mark.parametrize("value", ["1", "true", "on", "all"])
    def test_env_activation(self, value):
        san = sanitizer.enable_from_env({"REPRO_SANITIZE": value})
        assert san is not None
        assert san.detectors == frozenset(DETECTORS)
        assert san.detectors == {"use_after_failure", "uncharged_op"}

    @pytest.mark.parametrize("environ", [
        {}, {"REPRO_SANITIZE": "0"}, {"REPRO_SANITIZE": "off"},
    ])
    def test_env_off(self, environ):
        assert sanitizer.enable_from_env(environ) is None
        assert sanitizer.active() is None

    def test_env_detector_subset(self):
        san = sanitizer.enable_from_env(
            {"REPRO_SANITIZE": "uncharged_op, use_after_failure"})
        assert san.detectors == {"uncharged_op", "use_after_failure"}

    @pytest.mark.parametrize("name", DETECTORS)
    def test_env_single_detector(self, name):
        san = sanitizer.enable_from_env({"REPRO_SANITIZE": name})
        assert san.detectors == {name}

    @pytest.mark.parametrize("name", ["unmatched_send", "allreduce_uniformity"])
    def test_env_removed_detector_rejected(self, name):
        with pytest.raises(ValueError, match="unknown sanitizer detector"):
            sanitizer.enable_from_env({"REPRO_SANITIZE": name})
        assert sanitizer.active() is None

    def test_import_arms_the_default_detectors(self):
        """``REPRO_SANITIZE=1`` is honoured by ``import repro`` itself and
        arms exactly the two default detectors."""
        env = dict(os.environ, REPRO_SANITIZE="1")
        code = ("import repro; "
                "print(','.join(sorted(repro.sanitizer.active().detectors)))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "uncharged_op,use_after_failure"


class TestUseAfterFailure:
    def test_silent_get_of_lost_key_fires(self, cluster):
        node = failed_and_replaced(cluster, 1, blob=np.ones(3))
        with sanitizer.sanitized():
            cluster.fail_nodes([2])  # unrelated rank; tombstones are per-node
            cluster.replace_nodes([2])
        with sanitizer.sanitized():
            pass  # a fresh sanitizer has no tombstones for the old failure
        with sanitizer.sanitized() as san:
            node.memory["blob"] = np.ones(3)
            cluster.fail_nodes([1])
            cluster.replace_nodes([1])
            with pytest.raises(SanitizerError) as excinfo:
                node.memory.get("blob")
        error = excinfo.value
        assert error.detector == "use_after_failure"
        assert error.rank == 1
        assert error.key == "blob"
        assert "SimSan:use_after_failure" in str(error)
        assert san.stats["node_failures"] >= 1

    def test_pop_with_default_fires(self, cluster):
        with sanitizer.sanitized():
            node = failed_and_replaced(cluster, 0, blob=np.ones(2))
            with pytest.raises(SanitizerError):
                node.memory.pop("blob", None)

    def test_fresh_write_resurrects_key(self, cluster):
        with sanitizer.sanitized():
            node = failed_and_replaced(cluster, 1, blob=np.ones(3))
            node.memory["blob"] = np.zeros(3)  # reconstruction restored it
            assert np.array_equal(node.memory.get("blob"), np.zeros(3))

    def test_loud_keyerror_probe_is_not_flagged(self, cluster):
        """Regression: the SpMV engine probes ``memory[key]`` and handles
        the KeyError to allocate missing output blocks on replacements --
        the sanitizer must not convert that loud failure into its own."""
        with sanitizer.sanitized():
            node = failed_and_replaced(cluster, 1, blob=np.ones(3))
            with pytest.raises(KeyError):
                node.memory["blob"]
            with pytest.raises(KeyError):
                node.memory.pop("blob")  # no default: loud, allowed
            assert "blob" not in node.memory  # membership probes allowed

    def test_unlost_missing_key_not_flagged(self, cluster):
        with sanitizer.sanitized():
            memory = cluster.node(0).memory
            assert memory.get("never_written") is None

    def test_detector_can_be_disabled(self, cluster):
        with sanitizer.sanitized(["uncharged_op"]):
            node = failed_and_replaced(cluster, 1, blob=np.ones(3))
            assert node.memory.get("blob") is None

    def test_fresh_write_resurrects_only_its_key(self, cluster):
        with sanitizer.sanitized():
            node = failed_and_replaced(cluster, 1, a=np.ones(2), b=np.ones(2))
            node.memory["a"] = np.zeros(2)
            assert np.array_equal(node.memory.get("a"), np.zeros(2))
            with pytest.raises(SanitizerError):
                node.memory.get("b")


class TestUnchargedOp:
    def ledger(self):
        return CostLedger(model=MachineModel())

    def test_window_with_no_charge_fires(self):
        ledger = self.ledger()
        with sanitizer.sanitized():
            with pytest.raises(SanitizerError) as excinfo:
                with op_window("spmv", ledger):
                    pass  # simulated work that forgot to charge
        assert excinfo.value.detector == "uncharged_op"
        assert excinfo.value.op == "spmv"

    def test_window_with_time_charge_passes(self):
        ledger = self.ledger()
        with sanitizer.sanitized():
            with op_window("spmv", ledger):
                ledger.add_time(Phase.SPMV_COMPUTE, 1e-6)

    def test_window_with_traffic_charge_passes(self):
        ledger = self.ledger()
        with sanitizer.sanitized():
            with op_window("halo", ledger):
                ledger.add_traffic(Phase.HALO_COMM, 2, 64)

    def test_not_required_window_passes(self):
        ledger = self.ledger()
        with sanitizer.sanitized():
            with op_window("spmv", ledger, required=False):
                pass

    def test_inert_without_active_sanitizer(self):
        with op_window("spmv", self.ledger()):
            pass  # no sanitizer, no check

    def test_uncharged_spmv_is_detected_end_to_end(self, monkeypatch):
        """The real SpMV dispatch runs in an op window: a charging call
        that books nothing must be caught."""
        problem = repro.distribute_problem(
            repro.matrices.poisson_2d(12), n_nodes=4)
        monkeypatch.setattr(type(problem.cluster.ledger), "add_time",
                            lambda self, phase, seconds: 0.0)
        monkeypatch.setattr(type(problem.cluster.ledger), "add_traffic",
                            lambda self, phase, n_messages, n_elements: None)
        with sanitizer.sanitized():
            with pytest.raises(SanitizerError) as excinfo:
                repro.solve(problem, max_iterations=3, rtol=0.0)
        assert excinfo.value.detector == "uncharged_op"


class TestCollectiveCounter:
    """``stats["collectives"]`` counts the allreduces that took place."""

    def test_each_allreduce_counted_once(self, cluster):
        with sanitizer.sanitized() as san:
            cluster.comm.allreduce_sum(np.ones((4, 3)))
            cluster.comm.allreduce_sum(np.ones((4, 1)))
        assert san.stats["collectives"] == 2

    def test_refused_allreduce_not_counted(self, cluster):
        with sanitizer.sanitized() as san:
            with pytest.raises(CommunicationError):
                cluster.comm.allreduce_sum(np.ones(4))
            cluster.fail_nodes([0])
            with pytest.raises(CommunicationError):
                cluster.comm.allreduce_sum(np.ones((4, 1)))
        assert san.stats["collectives"] == 0

    def test_fused_reduction_is_one_collective(self, cluster):
        from repro.distributed import BlockRowPartition, DistributedMultiVector
        from repro.distributed.dmultivector import fused_dots

        partition = BlockRowPartition(12, 4)
        values = np.random.default_rng(3).standard_normal((12, 3))
        x = DistributedMultiVector.from_global(cluster, partition, "x", values)
        y = DistributedMultiVector.from_global(cluster, partition, "y", values)
        with sanitizer.sanitized() as san:
            fused_dots([(x, y), (x, x), (y, y)])
            x.norms2()
        assert san.stats["collectives"] == 2


class TestContext:
    def test_iteration_and_phase_context_attached(self, cluster):
        problem = repro.distribute_problem(
            repro.matrices.poisson_2d(12), n_nodes=4)
        with sanitizer.sanitized() as san:
            repro.solve(problem, max_iterations=5, rtol=0.0)
            assert san.context["iteration"] == 4
            assert san.context["phase"] is not None
            node = failed_and_replaced(problem.cluster, 1, blob=np.ones(2))
            with pytest.raises(SanitizerError) as excinfo:
                node.memory.get("blob")
        assert excinfo.value.iteration == 4
        assert excinfo.value.phase is not None


class TestSanitizedSolves:
    """The instrumentation must never change simulation semantics."""

    def solve_once(self):
        problem = repro.distribute_problem(
            repro.matrices.poisson_2d(16), n_nodes=4)
        return repro.solve(problem, phi=2, failures=[(5, [1, 2])])

    def test_resilient_solve_bit_identical_under_sanitizer(self):
        plain = self.solve_once()
        with sanitizer.sanitized() as san:
            sanitized_run = self.solve_once()
        assert sanitized_run.converged and plain.converged
        assert sanitized_run.iterations == plain.iterations
        assert np.array_equal(sanitized_run.x, plain.x)
        assert san.stats["node_failures"] == 2
        assert san.stats["blocks_restored"] > 0
        assert san.stats["op_windows"] > 0
        assert san.stats["collectives"] > 0

    def test_block_solve_runs_clean_under_sanitizer(self):
        problem = repro.distribute_problem(
            repro.matrices.poisson_2d(16), n_nodes=4)
        rhs = np.ones((problem.matrix.partition.n, 3))
        with sanitizer.sanitized():
            result = repro.solve(problem, rhs=rhs, phi=2,
                                 failures=[(4, [2])])
        assert result.converged


class TestHookSuper:
    """The opt-in hook_super detector: the cooperative resilience-hook
    chain must fire every iteration on ESR-carrying solvers."""

    def test_not_in_default_detectors(self):
        from repro.sanitizer import OPT_IN_DETECTORS
        assert "hook_super" in OPT_IN_DETECTORS
        assert "hook_super" not in DETECTORS
        assert not sanitizer.enable().enabled("hook_super")

    def test_env_all_does_not_arm_opt_in(self):
        san = sanitizer.enable_from_env({"REPRO_SANITIZE": "1"})
        assert not san.enabled("hook_super")

    def test_env_comma_select_arms(self):
        san = sanitizer.enable_from_env(
            {"REPRO_SANITIZE": "uncharged_op, hook_super"})
        assert san.enabled("hook_super")
        assert san.enabled("uncharged_op")

    def test_unknown_detector_error_mentions_opt_ins(self):
        with pytest.raises(ValueError, match="hook_super"):
            SimSan(["not_a_detector"])

    def _problem(self):
        return repro.distribute_problem(
            repro.matrices.poisson_2d(16), n_nodes=4)

    def test_clean_resilient_solve_passes(self):
        with sanitizer.sanitized(DETECTORS + ("hook_super",)) as san:
            result = repro.solve(self._problem(), phi=2,
                                 failures=[(5, [1])])
        assert result.converged
        assert san.stats["resilience_hooks"] > 0

    def test_plain_solver_without_esr_is_not_subject(self):
        with sanitizer.sanitized(DETECTORS + ("hook_super",)):
            result = repro.solve(self._problem())
        assert result.converged

    def test_broken_super_chain_detected(self):
        from repro.core.resilient_pcg import ResilientPCG
        from repro.precond import make_preconditioner

        class BrokenESR(ResilientPCG):
            def _after_spmv(self, iteration):
                pass  # drops the cooperative super() chain (lint rule R010)

        problem = self._problem()
        precond = make_preconditioner("block_jacobi")
        precond.setup(problem.matrix.to_global(), problem.partition)
        solver = BrokenESR(problem.matrix, problem.rhs, precond,
                           resilience=repro.ResilienceSpec(phi=1))
        with sanitizer.sanitized(DETECTORS + ("hook_super",)):
            with pytest.raises(SanitizerError) as excinfo:
                solver.solve()
        assert excinfo.value.detector == "hook_super"
        assert "super()" in str(excinfo.value)

    def test_broken_chain_unnoticed_without_opt_in(self):
        from repro.core.resilient_pcg import ResilientPCG
        from repro.precond import make_preconditioner

        class BrokenESR(ResilientPCG):
            def _after_spmv(self, iteration):
                pass

        problem = self._problem()
        precond = make_preconditioner("block_jacobi")
        precond.setup(problem.matrix.to_global(), problem.partition)
        solver = BrokenESR(problem.matrix, problem.rhs, precond,
                           resilience=repro.ResilienceSpec(phi=1))
        with sanitizer.sanitized():  # default detectors only
            assert solver.solve().converged
