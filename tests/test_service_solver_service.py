"""End-to-end tests of :class:`repro.service.SolverService`.

Pins the tentpole guarantees: coalesced results bit-identical to
one-at-a-time ``repro.solve`` dispatch, exact per-tenant ledger
reconciliation, deterministic aggregates for a seeded trace, graceful
shutdown semantics, and the per-problem cache behaviour under
``structure_version`` bumps between batches.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

import repro
from repro.cluster import MachineModel
from repro.core.spec import BlockSpec, ResilienceSpec, SolveSpec
from repro.service import (
    ServiceClosedError,
    ServiceStats,
    SolverService,
    TrafficSpec,
    UnknownMatrixError,
    generate_traffic,
)


@pytest.fixture
def service(small_poisson):
    svc = SolverService(k_max=4)
    svc.register_matrix("poisson", repro.distribute_problem(
        small_poisson, n_nodes=4, seed=0))
    yield svc
    svc.shutdown()


@pytest.fixture
def direct_problem(small_poisson):
    """An identically-constructed problem for one-at-a-time reference runs."""
    return repro.distribute_problem(
        small_poisson, n_nodes=4, seed=0,
        machine=MachineModel(jitter_rel_std=0.0))


def make_rhs(n, count, seed=7):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) for _ in range(count)]


# -- registry / submission -----------------------------------------------------

class TestRegistryAndSubmission:
    def test_register_returns_cached_problem(self, service):
        problem = service.problem("poisson")
        assert problem is service.problem("poisson")
        assert service.matrix_ids() == ("poisson",)

    def test_duplicate_matrix_id_raises(self, service, direct_problem):
        with pytest.raises(ValueError, match="already registered"):
            service.register_matrix("poisson", direct_problem)

    def test_adopts_existing_problem(self, small_poisson, direct_problem):
        with SolverService() as svc:
            assert svc.register_matrix("p", direct_problem) is direct_problem

    def test_unknown_matrix_raises(self, service):
        with pytest.raises(UnknownMatrixError, match="poisson"):
            service.submit("nope", np.zeros(4))
        with pytest.raises(UnknownMatrixError):
            service.problem("nope")

    def test_wrong_rhs_shape_raises(self, service):
        with pytest.raises(ValueError, match="1-D vector"):
            service.submit("poisson", np.zeros((3, 2)))
        with pytest.raises(ValueError, match="1-D vector"):
            service.submit("poisson", np.zeros(7))

    def test_rhs_is_copied_at_submit(self, service, small_poisson):
        n = small_poisson.shape[0]
        rhs = np.ones(n)
        handle = service.submit("poisson", rhs)
        rhs[:] = 1e9  # mutating the caller's buffer must not affect the solve
        service.drain()
        assert handle.result(5.0).converged

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected_at_submit(self, service, direct_problem,
                                               small_poisson, bad):
        """A non-finite request fails alone at submit time: it never joins
        the batch, so its would-be batch-mates stay bit-identical to direct
        one-at-a-time solves."""
        rhs_list = make_rhs(small_poisson.shape[0], 3)
        poisoned = rhs_list[1].copy()
        poisoned[5] = bad
        handles = [service.submit("poisson", rhs_list[0])]
        with pytest.raises(ValueError, match="non-finite"):
            service.submit("poisson", poisoned)
        handles += [service.submit("poisson", b) for b in rhs_list[1:]]
        service.drain()
        results = [h.result(5.0) for h in handles]
        assert [r.batch_width for r in results] == [3, 3, 3]
        for rhs, res in zip(rhs_list, results):
            ref = repro.solve(direct_problem, rhs)
            assert np.array_equal(res.x, ref.x)
            assert res.residual_norms == \
                [float(v) for v in ref.residual_norms]

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError, match="window_s"):
            SolverService(window_s=-1.0)
        with pytest.raises(ValueError, match="k_max"):
            SolverService(k_max=0)
        with pytest.raises(ValueError, match="unknown batching policy"):
            SolverService(policy="nope")

    def test_policy_is_picked_by_name_only(self):
        from repro.service.policies import fifo_window

        with pytest.raises(ValueError, match="unknown batching policy"):
            SolverService(policy=fifo_window)
        assert SolverService(policy="FIFO_Window").policy is fifo_window

    def test_overlapping_batches_from_a_policy_raise(self, small_poisson):
        from repro.service import BATCHING_POLICIES, register_batching_policy

        @register_batching_policy("overlap_test_only")
        def overlap(pending, *, now, window_s, k_max, drain=False):
            return [pending, pending]

        try:
            svc = SolverService(policy="Overlap_Test_Only")
            svc.register_matrix("poisson", repro.distribute_problem(
                small_poisson, n_nodes=4, seed=0))
            handle = svc.submit("poisson", np.ones(small_poisson.shape[0]))
            with pytest.raises(RuntimeError, match="'overlap_test_only' "
                                                   "returned overlapping"):
                svc.pump(drain=True)
            assert len(svc._pending) == 1  # the request stays queued
            svc.shutdown(drain=False)
            with pytest.raises(ServiceClosedError):
                handle.result(5.0)
        finally:
            BATCHING_POLICIES._entries.pop("overlap_test_only", None)


# -- coalescing edge cases -----------------------------------------------------

class TestCoalescingEdgeCases:
    def test_empty_window_flush_is_noop(self, service):
        assert service.pump(drain=True) == 0
        assert service.drain() == 0
        assert not service._pending

    def test_single_request_bit_identical_to_direct(self, service,
                                                    direct_problem,
                                                    small_poisson):
        (rhs,) = make_rhs(small_poisson.shape[0], 1)
        handle = service.submit("poisson", rhs)
        service.drain()
        res = handle.result(5.0)
        ref = repro.solve(direct_problem, rhs)
        assert res.batch_width == 1
        assert np.array_equal(res.x, ref.x)
        assert res.iterations == ref.iterations
        assert res.residual_norms == [float(v) for v in ref.residual_norms]
        assert res.final_residual_norm == ref.final_residual_norm
        assert res.true_residual_norm == ref.true_residual_norm
        # The whole ledger delta lands on the lone request, exactly.
        assert res.simulated_time == ref.simulated_time
        assert res.charges == ref.time_breakdown

    def test_coalesced_batch_bit_identical_to_direct(self, service,
                                                     direct_problem,
                                                     small_poisson):
        rhs_list = make_rhs(small_poisson.shape[0], 4)
        handles = [service.submit("poisson", b) for b in rhs_list]
        service.drain()
        results = [h.result(5.0) for h in handles]
        assert [r.batch_width for r in results] == [4, 4, 4, 4]
        assert len({r.batch_id for r in results}) == 1
        for rhs, res in zip(rhs_list, results):
            ref = repro.solve(direct_problem, rhs)
            assert np.array_equal(res.x, ref.x)
            assert res.iterations == ref.iterations
            assert res.residual_norms == \
                [float(v) for v in ref.residual_norms]

    def test_incompatible_specs_never_merge(self, service, small_poisson):
        rhs_list = make_rhs(small_poisson.shape[0], 4)
        handles = [
            service.submit("poisson", rhs_list[0], SolveSpec(rtol=1e-8)),
            service.submit("poisson", rhs_list[1], SolveSpec(rtol=1e-6)),
            service.submit("poisson", rhs_list[2], SolveSpec(rtol=1e-8)),
            service.submit("poisson", rhs_list[3], SolveSpec(rtol=1e-6)),
        ]
        service.drain()
        results = [h.result(5.0) for h in handles]
        assert [r.batch_width for r in results] == [2, 2, 2, 2]
        assert results[0].batch_id == results[2].batch_id
        assert results[1].batch_id == results[3].batch_id
        assert results[0].batch_id != results[1].batch_id

    def test_numpy_scalar_spec_coalesces_and_solves(self, service,
                                                    direct_problem,
                                                    small_poisson):
        """A spec holding a numpy scalar still has a coalescing key."""
        spec = SolveSpec(rtol=np.float32(1e-6))
        rhs_list = make_rhs(small_poisson.shape[0], 2)
        handles = [service.submit("poisson", b, spec) for b in rhs_list]
        service.drain()
        results = [h.result(5.0) for h in handles]
        assert [r.batch_width for r in results] == [2, 2]
        for rhs, res in zip(rhs_list, results):
            ref = repro.solve(direct_problem, rhs, spec=spec)
            assert res.converged
            assert np.array_equal(res.x, ref.x)

    @pytest.mark.parametrize("spec", [SolveSpec(solver="pcg"),
                                      SolveSpec(block=BlockSpec())],
                             ids=["solver", "block_spec"])
    def test_pinned_solver_requests_coalesce_and_match_direct(
            self, service, small_poisson, direct_problem, spec):
        """A pinned name takes a block as well as a vector, so batching
        runs the solver the requests asked for; a ``BlockSpec`` that fixes
        no column count is just another spec field."""
        rhs_list = make_rhs(small_poisson.shape[0], 3)
        handles = [service.submit("poisson", b, spec) for b in rhs_list]
        service.drain()
        results = [h.result(5.0) for h in handles]
        assert [r.batch_width for r in results] == [3, 3, 3]
        assert all(r.solver == "pcg" for r in results)
        for rhs, res in zip(rhs_list, results):
            ref = repro.solve(direct_problem, rhs, spec=spec)
            assert np.array_equal(res.x, ref.x)
            assert res.iterations == ref.iterations
            assert res.residual_norms == ref.residual_norms

    def test_block_spec_fixing_n_cols_never_coalesces(self, service,
                                                      small_poisson):
        """A ``BlockSpec`` with ``n_cols`` fixes the column count, so its
        requests run alone."""
        rhs_list = make_rhs(small_poisson.shape[0], 2)
        handles = [service.submit("poisson", b,
                                  SolveSpec(block=BlockSpec(n_cols=1)))
                   for b in rhs_list]
        service.drain()
        results = [h.result(5.0) for h in handles]
        assert [r.batch_width for r in results] == [1, 1]
        assert all(r.converged for r in results)

    def test_live_preconditioner_instance_never_coalesces(
            self, service, small_poisson, block_jacobi_factory):
        from repro.distributed.partition import BlockRowPartition

        partition = BlockRowPartition(small_poisson.shape[0], 4)
        precond = block_jacobi_factory(small_poisson, partition)
        rhs_list = make_rhs(small_poisson.shape[0], 2)
        handles = [service.submit("poisson", b,
                                  SolveSpec(preconditioner=precond))
                   for b in rhs_list]
        service.drain()
        assert [h.result(5.0).batch_width for h in handles] == [1, 1]

    def test_k_max_overflow_splits_deterministically(self, service,
                                                     small_poisson):
        rhs_list = make_rhs(small_poisson.shape[0], 10)
        handles = [service.submit("poisson", b) for b in rhs_list]
        service.drain()
        results = [h.result(5.0) for h in handles]
        # k_max=4: strict FIFO split 4 + 4 + 2, columns in arrival order.
        assert [r.batch_width for r in results] == [4] * 8 + [2] * 2
        assert [r.batch_column for r in results] == \
            [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]
        assert [r.batch_id for r in results] == \
            [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]

    def test_resilient_requests_coalesce_and_match_direct(
            self, service, small_poisson):
        spec = SolveSpec(resilience=ResilienceSpec(
            phi=2, failures=((10, (1,)),)))
        rhs_list = make_rhs(small_poisson.shape[0], 2)
        handles = [service.submit("poisson", b, spec) for b in rhs_list]
        service.drain()
        results = [h.result(5.0) for h in handles]
        assert [r.batch_width for r in results] == [2, 2]
        assert results[0].solver == "resilient_pcg"
        for rhs, res in zip(rhs_list, results):
            # Fresh reference problem per request: failure recovery mutates
            # problem state, so a shared reference problem would not
            # represent the batch's (single) initial state.
            ref_problem = repro.distribute_problem(
                small_poisson, n_nodes=4, seed=0,
                machine=MachineModel(jitter_rel_std=0.0))
            ref = repro.solve(ref_problem, rhs, spec=spec)
            assert np.array_equal(res.x, ref.x)
            assert res.iterations == ref.iterations


# -- shutdown ------------------------------------------------------------------

class TestShutdown:
    def test_shutdown_drains_pending(self, service, small_poisson):
        handles = [service.submit("poisson", b)
                   for b in make_rhs(small_poisson.shape[0], 3)]
        service.shutdown(drain=True)
        assert all(h.result(5.0).converged for h in handles)

    def test_shutdown_without_drain_fails_handles(self, small_poisson):
        svc = SolverService(k_max=4)
        svc.register_matrix("m", repro.distribute_problem(
            small_poisson, n_nodes=4, seed=0))
        handles = [svc.submit("m", b)
                   for b in make_rhs(small_poisson.shape[0], 2)]
        svc.shutdown(drain=False)
        for handle in handles:
            with pytest.raises(ServiceClosedError):
                handle.result(5.0)
        assert svc.stats.n_failed == 2

    def test_submit_after_shutdown_raises(self, service, small_poisson):
        service.shutdown()
        with pytest.raises(ServiceClosedError):
            service.submit("poisson", np.zeros(small_poisson.shape[0]))
        with pytest.raises(ServiceClosedError):
            service.register_matrix("other", repro.distribute_problem(
                small_poisson, n_nodes=4, seed=0))

    def test_shutdown_idempotent(self, service):
        service.shutdown()
        service.shutdown()

    def test_context_manager_drains_on_clean_exit(self, small_poisson):
        with SolverService(k_max=4) as svc:
            svc.register_matrix("m", repro.distribute_problem(
                small_poisson, n_nodes=4, seed=0))
            handle = svc.submit("m", np.ones(small_poisson.shape[0]))
        assert handle.result(5.0).converged

    def test_background_scheduler_drains_inflight_on_shutdown(
            self, small_poisson):
        svc = SolverService(k_max=4, window_s=0.002, autostart=True)
        svc.register_matrix("m", repro.distribute_problem(
            small_poisson, n_nodes=4, seed=0))
        handles = [svc.submit("m", b)
                   for b in make_rhs(small_poisson.shape[0], 6)]
        svc.shutdown(drain=True)
        assert all(h.result(10.0).converged for h in handles)


# -- async / sync front ends ---------------------------------------------------

class TestFrontEnds:
    def test_handles_are_awaitable(self, small_poisson):
        svc = SolverService(k_max=4, window_s=0.001, autostart=True)
        svc.register_matrix("m", repro.distribute_problem(
            small_poisson, n_nodes=4, seed=0))

        async def run():
            handles = [svc.submit("m", b)
                       for b in make_rhs(small_poisson.shape[0], 3)]
            return await asyncio.gather(*handles)

        try:
            results = asyncio.run(run())
        finally:
            svc.shutdown()
        assert all(r.converged for r in results)

    def test_solve_sync_without_scheduler(self, service, small_poisson):
        (rhs,) = make_rhs(small_poisson.shape[0], 1)
        result = service.solve_sync("poisson", rhs, tenant="cli")
        assert result.converged
        assert result.tenant == "cli"

    def test_solve_sync_with_scheduler(self, small_poisson):
        svc = SolverService(k_max=4, window_s=0.001, autostart=True)
        svc.register_matrix("m", repro.distribute_problem(
            small_poisson, n_nodes=4, seed=0))
        try:
            result = svc.solve_sync(
                "m", np.ones(small_poisson.shape[0]), timeout=10.0)
        finally:
            svc.shutdown()
        assert result.converged

    def test_request_result_json_serializable(self, service, small_poisson):
        result = service.solve_sync(
            "poisson", np.ones(small_poisson.shape[0]))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["converged"] is True
        assert payload["x"] == list(result.x)
        compact = result.to_dict(include_solution=False,
                                 include_history=False)
        assert "x" not in compact and "residual_norms" not in compact


# -- accounting integration ----------------------------------------------------

class TestAccountingIntegration:
    def test_tenant_charges_reconcile_exactly_with_batch_ledger(
            self, service, small_poisson):
        rhs_list = make_rhs(small_poisson.shape[0], 4)
        # Warm the preconditioner cache so the snapshot delta below is
        # exactly the batch's own charges.
        service.solve_sync("poisson", rhs_list[0])
        ledger = service.problem("poisson").cluster.ledger
        before = ledger.snapshot()
        handles = [service.submit("poisson", b, tenant=f"t{i % 2}")
                   for i, b in enumerate(rhs_list)]
        service.drain()
        after = ledger.snapshot()
        results = [h.result(5.0) for h in handles]
        assert results[0].batch_width == 4
        # Per-phase and total simulated time reconcile bit-for-bit when the
        # shares are re-summed in column order.
        for phase in sorted(set(after) | set(before)):
            total = after.get(phase, 0.0) - before.get(phase, 0.0)
            acc = 0.0
            for res in results:
                acc += res.charges.get(phase, 0.0)
            assert acc == total
        acc = 0.0
        for res in results:
            acc += res.simulated_time
        assert acc == ledger.since(before)

    def test_queue_and_batch_wait_accounting(self, service, small_poisson):
        rhs_list = make_rhs(small_poisson.shape[0], 2)
        handles = [service.submit("poisson", b) for b in rhs_list]
        service.drain()
        first, second = [h.result(5.0) for h in handles]
        assert first.queue_wait_s >= first.batch_wait_s >= 0.0
        assert second.batch_wait_s == 0.0  # youngest member waits for nobody
        assert first.solve_s == second.solve_s > 0.0
        assert first.latency_s == first.queue_wait_s + first.solve_s

    def test_stats_deterministic_across_invocations(self, small_poisson):
        """A seeded trace pumped through a drain-mode service twice yields
        byte-identical ``aggregate()`` JSON (acceptance criterion)."""
        spec = TrafficSpec(n_requests=12, matrix_ids=("m",),
                           tenants=("a", "b", "c"))

        def run_once():
            svc = SolverService(k_max=4)
            svc.register_matrix("m", repro.distribute_problem(
                small_poisson, n_nodes=4, seed=0))
            trace = generate_traffic(
                spec, {"m": small_poisson.shape[0]}, seed=99)
            handles = [svc.submit(req.matrix_id, req.rhs, tenant=req.tenant)
                       for req in trace]
            svc.drain()
            for handle in handles:
                handle.result(5.0)
            payload = json.dumps(svc.stats.aggregate(), sort_keys=True)
            svc.shutdown()
            return payload

        assert run_once() == run_once()

    def test_stats_round_trip_through_json(self, service, small_poisson):
        for rhs in make_rhs(small_poisson.shape[0], 3):
            service.submit("poisson", rhs)
        service.drain()
        restored = ServiceStats.from_dict(
            json.loads(json.dumps(service.stats.to_dict())))
        assert restored.aggregate() == service.stats.aggregate()


# -- per-problem cache audit under service reuse -------------------------------

class TestProblemCacheAudit:
    def test_structure_bump_invalidates_next_batch_not_running_one(
            self, service, small_poisson, store_raised_diagonal):
        """A ``restore_block_to_node`` that changes values mid-queue: the
        cached operator and preconditioner of the *next* batch are rebuilt,
        while the objects a running batch already resolved stay alive and
        usable (regression pin for concurrent service reuse of the
        per-problem caches)."""
        problem = service.problem("poisson")
        handle = service.submit("poisson", np.ones(small_poisson.shape[0]))
        service.drain()
        assert handle.result(5.0).converged
        op_before = problem.global_operator()
        pc_before = problem.resolve_preconditioner("block_jacobi")
        version_before = problem.matrix.structure_version

        # Restoring the values already stored keeps both caches.
        problem.matrix.restore_block_to_node(1)
        assert problem.matrix.structure_version == version_before
        assert problem.global_operator() is op_before
        assert problem.resolve_preconditioner("block_jacobi") is pc_before

        # A recovery path restores other values of a row block between two
        # batches.
        store_raised_diagonal(problem.matrix, 1)
        problem.matrix.restore_block_to_node(1)
        assert problem.matrix.structure_version == version_before + 1

        # The previously-resolved objects are untouched (a batch holding
        # them mid-solve would keep computing with consistent state)...
        assert (op_before @ np.ones(small_poisson.shape[0])).shape == \
            (small_poisson.shape[0],)
        assert pc_before.is_set_up

        # ...but the next batch resolves fresh ones against the new version.
        handle2 = service.submit("poisson", np.ones(small_poisson.shape[0]))
        service.drain()
        assert handle2.result(5.0).converged
        assert problem.global_operator() is not op_before
        assert problem.resolve_preconditioner("block_jacobi") is not pc_before
        # And the rebuilt cache is stable until the next bump.
        assert problem.global_operator() is problem.global_operator()
