"""Tests for the redundancy-scheme registry and the RS parity scheme.

Covers the registry plumbing (names, ``scheme_name``,
``build_redundancy_scheme`` resolution), the GF(2^8) coding
(bit-exact encode/decode for any ``f <= m`` erasures), the stripe layout
invariants, the Sec. 4.2 charge-model obligations, and the end-to-end
equivalences: ``"copies"`` through the registry is bit-identical -- iterates
*and* ledger charges -- to the historical direct construction, and
``"rs_parity"`` recovery is bit-identical to the copies recovery under the
same failure schedule at strictly lower storage overhead.
"""

import numpy as np
import pytest

from repro.cluster import (
    MachineModel,
    Phase,
    UnrecoverableStateError,
    VirtualCluster,
)
from repro.core.api import distribute_problem
from repro.core.placement import PLACEMENTS, RackLayout, register_placement
from repro.core.redundancy import (
    REDUNDANCY_SCHEMES,
    RedundancyScheme,
    backup_targets,
    build_redundancy_scheme,
)
from repro.core.resilient_block_pcg import ResilientBlockPCG
from repro.core.resilient_pcg import ResilientPCG
from repro.core.rs_parity import GROUP_SIZE, RSParityScheme, gf256_mul
from repro.core.spec import ResilienceSpec, SolveSpec
from repro.distributed import (
    BlockRowPartition,
    CommunicationContext,
    DistributedMatrix,
    DistributedMultiVector,
)
from repro.matrices import poisson_2d
from repro.precond import make_preconditioner


def make_context(n=147, n_nodes=6):
    """A context over a deliberately non-uniform partition (147 = 6*24+3)."""
    cluster = VirtualCluster(n_nodes, machine=MachineModel(jitter_rel_std=0.0))
    partition = BlockRowPartition(n, n_nodes)
    a = poisson_2d(int(np.ceil(np.sqrt(n))))[:n, :n].tocsr()
    dist = DistributedMatrix.from_global(cluster, partition, "A", a)
    return cluster, partition, CommunicationContext.from_matrix(dist)


def fresh_problem(n_nodes=6, seed=0, grid=16):
    return distribute_problem(poisson_2d(grid), n_nodes=n_nodes, seed=seed,
                              machine=MachineModel(jitter_rel_std=0.0))


def resilience(scheme, failures, phi):
    """The spec of a run: *scheme* ``None`` keeps the default scheme."""
    options = {} if scheme is None else {"scheme": scheme}
    return ResilienceSpec(phi=phi, failures=failures or (), **options)


def run_solver(scheme=None, failures=None, phi=2, n_nodes=6, **kw):
    problem = fresh_problem(n_nodes=n_nodes)
    precond = make_preconditioner("block_jacobi")
    solver = ResilientPCG(
        problem.matrix, problem.rhs, precond,
        resilience=resilience(scheme, failures, phi), **kw)
    return solver.solve(), solver


def run_block_solver(scheme=None, failures=None, phi=2, k=3, n_nodes=6):
    problem = fresh_problem(n_nodes=n_nodes)
    precond = make_preconditioner("block_jacobi")
    rng = np.random.RandomState(7)
    rhs = DistributedMultiVector.from_global(
        problem.cluster, problem.matrix.partition, "B",
        rng.standard_normal((problem.matrix.partition.n, k)))
    solver = ResilientBlockPCG(
        problem.matrix, rhs, precond,
        resilience=resilience(scheme, failures, phi))
    return solver.solve(), solver


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_builtin_names(self):
        assert REDUNDANCY_SCHEMES.names() == ("copies", "rs_parity")

    def test_names_resolve_to_scheme_classes(self):
        assert REDUNDANCY_SCHEMES.get("rs_parity") is RSParityScheme
        assert REDUNDANCY_SCHEMES.get("copies") is RedundancyScheme

    def test_scheme_name_attribute_set_by_registration(self):
        assert RedundancyScheme.scheme_name == "copies"
        assert RSParityScheme.scheme_name == "rs_parity"
        assert RedundancyScheme.kind == "pattern"
        assert RSParityScheme.kind == "parity"

    def test_build_by_name(self):
        _, _, context = make_context()
        scheme = build_redundancy_scheme("rs_parity", context, 2)
        assert isinstance(scheme, RSParityScheme)
        assert scheme.group_size == GROUP_SIZE == 4


# ---------------------------------------------------------------------------
# GF(2^8) coding
# ---------------------------------------------------------------------------

class TestGF256:
    def test_multiplication_properties(self):
        rng = np.random.RandomState(0)
        for _ in range(200):
            a, b, c = (int(v) for v in rng.randint(0, 256, size=3))
            assert gf256_mul(a, b) == gf256_mul(b, a)
            assert gf256_mul(a, 1) == a
            assert gf256_mul(a, 0) == 0
            assert gf256_mul(gf256_mul(a, b), c) == gf256_mul(a, gf256_mul(b, c))

    def test_every_nonzero_element_has_inverse(self):
        from repro.core.rs_parity import _GF_INV
        for a in range(1, 256):
            assert gf256_mul(a, int(_GF_INV[a])) == 1


class TestEncodeDecode:
    def stripe_blocks(self, scheme, partition, gidx, k=1, seed=3):
        rng = np.random.RandomState(seed)
        return [rng.standard_normal((partition.size_of(rank), k))
                for rank in scheme.group_members(gidx)]

    @pytest.mark.parametrize("k", [1, 4])
    def test_decode_is_bit_exact_for_any_erasure_set(self, k):
        _, partition, context = make_context()
        scheme = RSParityScheme(context, 2)
        for gidx in range(scheme.n_groups):
            members = scheme.group_members(gidx)
            blocks = self.stripe_blocks(scheme, partition, gidx, k=k)
            rows = scheme.encode(gidx, blocks)
            assert len(rows) == 2
            # every 1- and 2-subset of members must decode bit-exactly
            import itertools
            for f in (1, min(2, len(members))):
                for lost in itertools.combinations(range(len(members)), f):
                    have = {rank: block
                            for pos, (rank, block) in
                            enumerate(zip(members, blocks))
                            if pos not in lost}
                    # any f of the m parity rows suffice
                    for row_ids in itertools.combinations(range(2), f):
                        decoded = scheme.decode(
                            gidx, have, {j: rows[j] for j in row_ids},
                            n_cols=k)
                        for pos in lost:
                            original = blocks[pos]
                            assert np.array_equal(decoded[members[pos]],
                                                  original)

    def test_decode_with_too_few_parity_rows_raises(self):
        _, partition, context = make_context()
        scheme = RSParityScheme(context, 2)
        blocks = self.stripe_blocks(scheme, partition, 0)
        rows = scheme.encode(0, blocks)
        members = scheme.group_members(0)
        have = {rank: block for rank, block in
                zip(members[2:], blocks[2:])}
        with pytest.raises(ValueError, match="parity rows"):
            scheme.decode(0, have, {0: rows[0]})

    def test_nothing_missing_decodes_to_empty(self):
        # 5 nodes with m = 2 clamp the stripe to three blocks.
        _, partition, context = make_context(n_nodes=5)
        scheme = RSParityScheme(context, 2)
        assert scheme.group_size == 3
        blocks = self.stripe_blocks(scheme, partition, 0)
        have = dict(zip(scheme.group_members(0), blocks))
        assert scheme.decode(0, have, {}) == {}


# ---------------------------------------------------------------------------
# stripe layout
# ---------------------------------------------------------------------------

class TestStripeLayout:
    def test_groups_partition_the_ranks(self):
        _, _, context = make_context(n_nodes=6)
        scheme = RSParityScheme(context, 2)
        seen = [rank for gidx in range(scheme.n_groups)
                for rank in scheme.group_members(gidx)]
        assert sorted(seen) == list(range(6))
        for rank in range(6):
            assert rank in scheme.group_members(scheme.group_of(rank))

    @pytest.mark.parametrize("n_nodes", [5, 8])
    def test_holders_are_off_stripe_and_distinct(self, n_nodes):
        # On 5 nodes the stripes are clamped and the last one is short.
        _, _, context = make_context(n_nodes=n_nodes)
        for phi in (1, 2, 3):
            scheme = RSParityScheme(context, phi)
            assert scheme.verify_invariant()

    def test_group_size_clamped_to_leave_holders(self):
        _, _, context = make_context(n_nodes=5)
        scheme = RSParityScheme(context, 2)
        assert scheme.group_size == 3  # 5 nodes - m=2
        assert scheme.verify_invariant()

    def test_stripes_span_racks(self):
        _, _, context = make_context(n_nodes=8)
        scheme = RSParityScheme(context, 1)
        racks = RackLayout.default(8)
        # with 2 racks of 4 and g=4, each stripe touches both racks
        for gidx in range(scheme.n_groups):
            touched = {racks.rack_of(r) for r in scheme.group_members(gidx)}
            assert len(touched) == 2

    def test_phi_at_least_n_nodes_rejected(self):
        _, _, context = make_context(n_nodes=6)
        with pytest.raises(ValueError, match="phi=6"):
            RSParityScheme(context, 6)



# ---------------------------------------------------------------------------
# charge model (Sec. 4.2 obligations)
# ---------------------------------------------------------------------------

class TestChargeModel:
    def test_round_count_equals_m(self):
        cluster, _, context = make_context()
        for phi in (0, 1, 3):
            scheme = RSParityScheme(context, phi)
            rounds = scheme.round_overhead_times(cluster.topology,
                                                 cluster.machine)
            assert len(rounds) == phi
            assert all(t > 0 for t in rounds)

    @pytest.mark.parametrize("n_cols", [1, 4])
    def test_sandwich_bounds(self, n_cols):
        cluster, _, context = make_context()
        scheme = RSParityScheme(context, 2)
        lower, upper = scheme.overhead_bounds(cluster.topology,
                                              cluster.machine, n_cols=n_cols)
        total = scheme.per_iteration_overhead_time(
            cluster.topology, cluster.machine, n_cols=n_cols)
        assert lower - 1e-15 <= total <= upper + 1e-15

    def test_volume_terms_scale_with_columns(self):
        cluster, _, context = make_context()
        scheme = RSParityScheme(context, 2)
        msgs1, elems1 = scheme.extra_traffic_per_iteration(n_cols=1)
        msgs4, elems4 = scheme.extra_traffic_per_iteration(n_cols=4)
        assert msgs4 == msgs1           # message count is k-independent
        assert elems4 == 4 * elems1     # volume scales with k
        assert scheme.redundant_elements_per_generation(n_cols=4) == \
            4 * scheme.redundant_elements_per_generation(n_cols=1)

    def test_storage_and_traffic_beat_copies_at_equal_tolerance(self):
        """The headline economics: m/g overhead instead of phi full copies."""
        _, partition, context = make_context()
        phi = 2
        rs = RSParityScheme(context, phi)
        copies = RedundancyScheme(context, phi)
        # copies stores >= phi * n elements; rs stores n + m * sum(padded)
        assert copies.redundant_elements_per_generation() >= phi * partition.n
        rs_extra = rs.redundant_elements_per_generation() - partition.n
        copies_extra = copies.redundant_elements_per_generation()
        assert rs_extra < copies_extra
        _, rs_elems = rs.extra_traffic_per_iteration()
        _, copies_elems = copies.extra_traffic_per_iteration()
        assert rs_elems < copies_elems


# ---------------------------------------------------------------------------
# copies through the registry: bit-identical to the historical construction
# ---------------------------------------------------------------------------

class TestCopiesBitIdentity:
    @pytest.mark.parametrize("failures", [None, [(10, [2])], [(10, [1, 4])]])
    def test_resilient_pcg_registry_copies_identical(self, failures):
        default, s0 = run_solver(None, failures=failures)
        named, s1 = run_solver("copies", failures=failures)
        assert np.array_equal(default.x, named.x)
        assert default.iterations == named.iterations
        assert default.simulated_time == named.simulated_time
        assert s0.cluster.ledger.breakdown() == s1.cluster.ledger.breakdown()
        assert dict(s0.cluster.ledger.messages) == \
            dict(s1.cluster.ledger.messages)

    def test_resilient_block_pcg_registry_copies_identical(self):
        default, s0 = run_block_solver(None, failures=[(10, [2])])
        named, s1 = run_block_solver("copies", failures=[(10, [2])])
        assert np.array_equal(default.x, named.x)
        assert default.simulated_time == named.simulated_time
        assert s0.cluster.ledger.breakdown() == s1.cluster.ledger.breakdown()

    def test_prebuilt_instance_path_identical(self):
        """The solver's protocol runs on the scheme the solver built."""
        result, solver = run_solver("copies")
        assert solver.esr.scheme is solver.scheme
        assert result.info["scheme"] == "copies"


# ---------------------------------------------------------------------------
# rs_parity end-to-end recovery
# ---------------------------------------------------------------------------

class TestRSParityRecovery:
    def test_failure_free_iterates_identical_to_copies(self):
        base, _ = run_solver(None)
        rs, _ = run_solver("rs_parity")
        assert np.array_equal(base.x, rs.x)
        assert base.iterations == rs.iterations
        assert rs.info["scheme"] == "rs_parity"

    @pytest.mark.parametrize("failures", [
        [(10, [2])],            # single failure
        [(10, [0, 3])],         # m=2 simultaneous failures, same stripe
        [(8, [0]), (15, [3])],  # sequential hits on one stripe (heal path)
        [(7, [5]), (7, [1])],   # same-iteration events, distinct stripes
    ])
    def test_recovery_bit_identical_to_copies_recovery(self, failures):
        copies, _ = run_solver("copies", failures=failures)
        rs, solver = run_solver("rs_parity", failures=failures)
        assert np.array_equal(copies.x, rs.x)
        assert copies.iterations == rs.iterations
        assert solver.recovery_reports
        assert solver.cluster.ledger.total_time([Phase.RECOVERY_COMM]) > 0

    def test_block_solver_recovery_bit_identical_to_copies(self):
        copies, _ = run_block_solver("copies", failures=[(10, [0, 3])])
        rs, _ = run_block_solver("rs_parity", failures=[(10, [0, 3])])
        assert np.array_equal(copies.x, rs.x)

    def test_recovered_solution_matches_failure_free_solve(self):
        base, _ = run_solver(None)
        rs, _ = run_solver("rs_parity", failures=[(10, [0, 3])])
        assert np.allclose(base.x, rs.x, rtol=1e-12, atol=1e-13)

    def test_more_failures_than_m_unrecoverable(self):
        # stripe (0,3,1,4) loses 3 members with m=2 parity rows
        with pytest.raises(UnrecoverableStateError, match="parity rows"):
            run_solver("rs_parity", failures=[(10, [0, 3, 1])], phi=2)

    def test_cheaper_per_iteration_than_copies(self):
        copies, _ = run_solver("copies", phi=2)
        rs, _ = run_solver("rs_parity", phi=2)
        assert rs.info["redundancy"]["per_iteration_time"] < \
            copies.info["redundancy"]["per_iteration_time"]


# ---------------------------------------------------------------------------
# broken registered placements fail loudly (satellite: ValueError, no assert)
# ---------------------------------------------------------------------------

class TestBrokenPlacementDiagnostics:
    @pytest.fixture
    def broken_placement(self):
        @register_placement("broken_test_only", "returns duplicate targets")
        def _broken(owner, phi, n_nodes):
            return [(owner + 1) % n_nodes] * phi

        try:
            yield "broken_test_only"
        finally:
            PLACEMENTS._entries.pop("broken_test_only", None)

    def test_invalid_targets_raise_value_error_naming_strategy(
            self, broken_placement):
        with pytest.raises(ValueError) as excinfo:
            backup_targets(0, 2, 6, placement=broken_placement)
        message = str(excinfo.value)
        assert "broken_test_only" in message
        assert "distinct" in message

    def test_scheme_construction_surfaces_the_error(self, broken_placement):
        _, _, context = make_context(n_nodes=6)
        with pytest.raises(ValueError, match="broken_test_only"):
            RedundancyScheme(context, 2, placement=broken_placement)


# ---------------------------------------------------------------------------
# spec integration
# ---------------------------------------------------------------------------

class TestSpecIntegration:
    def test_solve_spec_routes_scheme_to_solver(self):
        import json

        from repro.core.api import solve
        # 5 nodes with m = 2: three-wide stripes.
        problem = fresh_problem(n_nodes=5)
        spec = SolveSpec(
            solver="resilient_pcg", preconditioner="block_jacobi",
            resilience=ResilienceSpec(phi=2, scheme="rs_parity",
                                      failures=((10, (2,)),)))
        rebuilt = SolveSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        result = solve(problem, spec=rebuilt)
        assert result.converged
        assert result.info["scheme"] == "rs_parity"

    def test_unknown_scheme_rejected_at_spec_validation(self):
        with pytest.raises(ValueError, match="redundancy scheme"):
            ResilienceSpec(scheme="raid6")
