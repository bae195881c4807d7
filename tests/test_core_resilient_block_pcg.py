"""Tests for the resilient multi-RHS block PCG (block ESR + recovery).

Acceptance contract of the resilient block-Krylov subsystem:

* under a failure schedule striking while the columns iterate, each
  recovered column's iterates and residual history are **bit-identical** to
  a sequential :class:`ResilientPCG` solve of that column hit by the same
  schedule;
* at ``k = 1`` the run is **charge-identical** to :class:`ResilientPCG`
  (with and without failures);
* with ``phi = 0`` and no failures the run is charge-identical to
  :class:`BlockPCG`; with ``phi > 0`` the iterates stay bit-identical and
  only the redundancy phase is charged on top;
* column freezing interacts correctly with recovery: frozen columns are
  restored but stay frozen.
"""

import numpy as np
import pytest

from repro.cluster import (
    FailureEvent,
    MachineModel,
    Phase,
    UnrecoverableStateError,
    VirtualCluster,
)
from repro.core import BlockPCG, ResilientBlockPCG, ResilientPCG
from repro.core.api import distribute_problem, solve
from repro.core.spec import BlockSpec, ResilienceSpec, SolveSpec
from repro.distributed import (
    BlockRowPartition,
    DistributedMultiVector,
    DistributedVector,
)
from repro.matrices import poisson_2d
from repro.precond import make_preconditioner

N_NODES = 5


def make_problem(n_grid=16, seed=0, k=3, precond_name="block_jacobi"):
    """Fresh cluster/matrix/preconditioner and a random rhs block."""
    a = poisson_2d(n_grid)
    n = a.shape[0]
    partition = BlockRowPartition(n, N_NODES)
    cluster = VirtualCluster(N_NODES, machine=MachineModel(jitter_rel_std=0.0))
    from repro.distributed import DistributedMatrix

    dist = DistributedMatrix.from_global(cluster, partition, "A", a)
    precond = make_preconditioner(precond_name)
    precond.setup(a, partition)
    rhs_global = np.random.default_rng(seed).standard_normal((n, k))
    return a, cluster, partition, dist, precond, rhs_global


def resilient_block_solve(a, rhs_global, *, phi, failures=(), seed_cluster=0,
                          **kwargs):
    """One ResilientBlockPCG run on a fresh cluster (direct construction)."""
    n, k = rhs_global.shape
    partition = BlockRowPartition(n, N_NODES)
    cluster = VirtualCluster(N_NODES, machine=MachineModel(jitter_rel_std=0.0))
    from repro.distributed import DistributedMatrix

    dist = DistributedMatrix.from_global(cluster, partition, "A", a)
    precond = make_preconditioner("block_jacobi")
    precond.setup(a, partition)
    rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                             rhs_global)
    solver = ResilientBlockPCG(
        dist, rhs, precond,
        resilience=ResilienceSpec(phi=phi, failures=failures), **kwargs)
    return solver.solve(), cluster


def sequential_resilient_solves(a, rhs_global, *, phi, failures=(), **kwargs):
    """One fresh ResilientPCG solve per column, same failure schedule each."""
    n, k = rhs_global.shape
    results = []
    clusters = []
    for j in range(k):
        partition = BlockRowPartition(n, N_NODES)
        cluster = VirtualCluster(N_NODES,
                                 machine=MachineModel(jitter_rel_std=0.0))
        from repro.distributed import DistributedMatrix

        dist = DistributedMatrix.from_global(cluster, partition, "A", a)
        precond = make_preconditioner("block_jacobi")
        precond.setup(a, partition)
        rhs = DistributedVector.from_global(cluster, partition, "b",
                                            rhs_global[:, j])
        solver = ResilientPCG(
            dist, rhs, precond,
            resilience=ResilienceSpec(phi=phi, failures=failures), **kwargs)
        results.append(solver.solve())
        clusters.append(cluster)
    return results, clusters


class TestBitIdenticalToSequentialResilient:
    @pytest.mark.parametrize("failures", [
        [(8, [2])],                        # single failure
        [(8, [1, 2])],                     # multiple simultaneous
        [(5, [0]), (14, [3])],             # sequential events
    ])
    def test_recovered_columns_bit_identical(self, failures):
        a, *_, rhs_global = make_problem(seed=0, k=3)
        block, _ = resilient_block_solve(a, rhs_global, phi=2,
                                         failures=failures)
        seq, _ = sequential_resilient_solves(a, rhs_global, phi=2,
                                             failures=failures)
        assert block.all_converged
        assert block.n_failures_recovered == \
            sum(len(r) for _, r in failures)
        for j, result in enumerate(seq):
            assert block.iterations[j] == result.iterations
            assert block.residual_histories[j] == result.residual_norms
            assert np.array_equal(block.x[:, j], result.x)

    def test_overlapping_failure_bit_identical(self):
        a, *_, rhs_global = make_problem(seed=1, k=2)
        failures = [FailureEvent(9, (1,)),
                    FailureEvent(9, (3,), during_recovery_of=0)]
        block, _ = resilient_block_solve(a, rhs_global, phi=2,
                                         failures=failures)
        seq, _ = sequential_resilient_solves(a, rhs_global, phi=2,
                                             failures=failures)
        assert block.all_converged
        assert len(block.recoveries) == 1
        assert block.recoveries[0].restarts == 1
        assert sorted(block.recoveries[0].failed_ranks) == [1, 3]
        for j, result in enumerate(seq):
            assert block.residual_histories[j] == result.residual_norms
            assert np.array_equal(block.x[:, j], result.x)

    def test_bit_identical_on_the_dense_gather_oracle(
            self, solvers_on_dense_gather):
        """Solver SpMVs on the dense-gather oracle instead of the cached
        engine keep the block solve column-wise bit-identical to the
        sequential solves."""
        a, *_, rhs_global = make_problem(seed=2, k=2)
        failures = [(7, [1, 2])]
        block, _ = resilient_block_solve(a, rhs_global, phi=2,
                                         failures=failures)
        seq, _ = sequential_resilient_solves(a, rhs_global, phi=2,
                                             failures=failures)
        assert block.all_converged
        for j, result in enumerate(seq):
            assert block.residual_histories[j] == result.residual_norms
            assert np.array_equal(block.x[:, j], result.x)

    def test_fused_reductions_keep_iterates_bit_identical(self):
        a, *_, rhs_global = make_problem(seed=3, k=3)
        failures = [(6, [2])]
        plain, _ = resilient_block_solve(a, rhs_global, phi=1,
                                         failures=failures)
        fused, _ = resilient_block_solve(a, rhs_global, phi=1,
                                         failures=failures,
                                         fuse_reductions=True)
        assert fused.residual_histories == plain.residual_histories
        assert np.array_equal(fused.x, plain.x)


class TestCharges:
    def test_k1_charge_identical_to_resilient_pcg_with_failures(self):
        a, *_, rhs_global = make_problem(seed=4, k=1)
        failures = [(6, [0, 3])]
        block, _ = resilient_block_solve(a, rhs_global, phi=2,
                                         failures=failures)
        (seq,), _ = sequential_resilient_solves(a, rhs_global, phi=2,
                                                failures=failures)
        assert block.residual_histories[0] == seq.residual_norms
        assert block.time_breakdown == seq.time_breakdown
        assert block.simulated_time == seq.simulated_time
        assert block.simulated_recovery_time == seq.simulated_recovery_time

    def test_k1_charge_identical_to_resilient_pcg_undisturbed(self):
        a, *_, rhs_global = make_problem(seed=5, k=1)
        block, _ = resilient_block_solve(a, rhs_global, phi=3)
        (seq,), _ = sequential_resilient_solves(a, rhs_global, phi=3)
        assert block.time_breakdown == seq.time_breakdown
        assert block.simulated_time == seq.simulated_time

    def test_phi0_charge_identical_to_block_pcg(self):
        a, cluster, partition, dist, precond, rhs_global = \
            make_problem(seed=6, k=4)
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        plain = BlockPCG(dist, rhs, precond).solve()
        resilient, _ = resilient_block_solve(a, rhs_global, phi=0)
        assert resilient.residual_histories == plain.residual_histories
        assert np.array_equal(resilient.x, plain.x)
        assert resilient.time_breakdown == plain.time_breakdown
        assert resilient.simulated_time == plain.simulated_time

    def test_undisturbed_iterates_identical_only_redundancy_extra(self):
        a, cluster, partition, dist, precond, rhs_global = \
            make_problem(seed=7, k=3)
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        plain = BlockPCG(dist, rhs, precond).solve()
        resilient, _ = resilient_block_solve(a, rhs_global, phi=2)
        assert resilient.residual_histories == plain.residual_histories
        assert np.array_equal(resilient.x, plain.x)
        differing = {
            phase for phase in set(resilient.time_breakdown)
            | set(plain.time_breakdown)
            if resilient.time_breakdown.get(phase)
            != plain.time_breakdown.get(phase)
        }
        assert differing == {Phase.REDUNDANCY_COMM}

    def test_redundancy_messages_independent_of_k_volume_scales(self):
        """The block charge model: extra redundancy messages as at k=1,
        element volume exactly k-fold."""
        a, *_, rhs1 = make_problem(seed=8, k=1)
        rhs4 = np.random.default_rng(8).standard_normal((rhs1.shape[0], 4))
        stats = {}
        for k, rhs_global in ((1, rhs1), (4, rhs4)):
            _, cluster = resilient_block_solve(
                a, rhs_global, phi=2, rtol=0.0, max_iterations=5)
            stats[k] = (
                cluster.ledger.messages.get(Phase.REDUNDANCY_COMM, 0),
                cluster.ledger.elements.get(Phase.REDUNDANCY_COMM, 0),
            )
        assert stats[1][0] == stats[4][0]
        assert stats[4][1] == 4 * stats[1][1]


class TestColumnFreezingWithRecovery:
    def test_frozen_columns_restored_but_stay_frozen(self):
        """A failure after a column converged restores the frozen column's
        blocks along with the rest but does not un-freeze it: its history
        stops where it converged and later iterations leave it untouched."""
        a, *_, rhs_global = make_problem(seed=9, k=3)
        rhs_global = rhs_global.copy()
        rhs_global[:, 0] *= 1e-13  # column 0 converges almost immediately
        atol = 1e-10

        reference, _ = resilient_block_solve(a, rhs_global, phi=2, atol=atol)
        frozen_at = reference.iterations[0]
        active_iters = max(reference.iterations)
        assert frozen_at < active_iters, "column 0 should freeze early"
        fail_at = frozen_at + 2
        assert fail_at < active_iters

        result, _ = resilient_block_solve(a, rhs_global, phi=2, atol=atol,
                                          failures=[(fail_at, [1, 2])])
        assert result.all_converged
        assert result.n_failures_recovered == 2
        # The frozen column's history is exactly the undisturbed one: the
        # recovery restored it without appending iterations.
        assert result.iterations[0] == frozen_at
        assert result.residual_histories[0] == \
            reference.residual_histories[0]
        # Its restored iterate still solves the system to the frozen
        # column's accuracy (the reconstruction is exact up to the 1e-14
        # local solver tolerance, not bit-exact for frozen columns).
        residual = np.linalg.norm(rhs_global[:, 0] - a @ result.x[:, 0])
        assert residual <= max(10 * result.info["thresholds"][0], 1e-9)

    def test_active_columns_unaffected_by_frozen_restore(self):
        """Columns still iterating when the failure strikes must match the
        sequential resilient solves hit by the same schedule, even when a
        sibling column is already frozen."""
        a, *_, rhs_global = make_problem(seed=10, k=2)
        rhs_global = rhs_global.copy()
        rhs_global[:, 0] *= 1e-13
        atol = 1e-10
        reference, _ = resilient_block_solve(a, rhs_global, phi=1, atol=atol)
        fail_at = reference.iterations[0] + 2
        assert fail_at < max(reference.iterations)

        result, _ = resilient_block_solve(a, rhs_global, phi=1, atol=atol,
                                          failures=[(fail_at, [2])])
        seq, _ = sequential_resilient_solves(
            a, rhs_global[:, 1:], phi=1, failures=[(fail_at, [2])], atol=atol)
        assert result.residual_histories[1] == seq[0].residual_norms
        assert np.array_equal(result.x[:, 1], seq[0].x)


class TestFacadeDispatch:
    def fresh_problem(self, a, rhs=None):
        return distribute_problem(a, rhs, n_nodes=N_NODES,
                                  machine=MachineModel(jitter_rel_std=0.0))

    def test_facade_run_equals_direct_construction(self):
        a, *_, rhs_global = make_problem(seed=11, k=2)
        failures = [(7, [1])]
        via_facade = solve(
            self.fresh_problem(a), rhs_global,
            spec=SolveSpec(resilience=ResilienceSpec(
                phi=2, failures=failures)),
        )
        direct, _ = resilient_block_solve(a, rhs_global, phi=2,
                                          failures=failures)
        assert via_facade.residual_histories == direct.residual_histories
        assert np.array_equal(via_facade.x, direct.x)
        assert via_facade.time_breakdown == direct.time_breakdown

    def test_pcg_rejects_resilience_on_a_block(self):
        a, *_, rhs_global = make_problem(seed=12, k=2)
        with pytest.raises(ValueError, match="solver='resilient_pcg'"):
            solve(self.fresh_problem(a), rhs_global,
                  spec=SolveSpec(solver="pcg",
                                 resilience=ResilienceSpec(phi=1)))

    def test_spec_roundtrip_carries_both_extensions(self):
        spec = SolveSpec(resilience=ResilienceSpec(phi=2,
                                                   failures=[(5, [1])]),
                         block=BlockSpec(n_cols=3, fuse_reductions=True))
        rebuilt = SolveSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.resolved_solver() == "resilient_pcg"

    def test_info_fields(self):
        a, *_, rhs_global = make_problem(seed=13, k=2)
        result, _ = resilient_block_solve(a, rhs_global, phi=2)
        assert result.info["phi"] == 2
        assert result.info["placement"] == "paper"
        assert result.info["redundancy"]["n_cols"] == 2.0


class TestValidation:
    def test_negative_phi_rejected(self):
        a, cluster, partition, dist, precond, rhs_global = \
            make_problem(seed=14, k=2)
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        with pytest.raises(ValueError):
            ResilientBlockPCG(dist, rhs, precond,
                              resilience=ResilienceSpec(phi=-1))

    def test_phi_at_least_node_count_rejected(self):
        a, cluster, partition, dist, precond, rhs_global = \
            make_problem(seed=15, k=2)
        rhs = DistributedMultiVector.from_global(cluster, partition, "B",
                                                 rhs_global)
        with pytest.raises(ValueError):
            ResilientBlockPCG(dist, rhs, precond,
                              resilience=ResilienceSpec(phi=N_NODES))

    def test_failures_beyond_phi_unrecoverable(self):
        a, *_, rhs_global = make_problem(seed=16, k=2)
        with pytest.raises(UnrecoverableStateError):
            resilient_block_solve(a, rhs_global, phi=1,
                                  failures=[(6, [1, 2, 3])])
