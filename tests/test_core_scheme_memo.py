"""The resilience set-up is built once per problem and layout.

``build_redundancy_scheme`` keeps each scheme in the scatter plan of the
problem's matrix (``CommunicationContext.schemes``) under the spec's layout
fields (scheme, ``phi``, placement), and the ``"copies"`` scheme builds the
static tables of its held pattern (``HeldIndex``) once, on first use.  Every resilient solve of one
problem with that layout reuses both, and its results are bit-identical to
the same solve on a fresh problem.  Each ESR protocol keeps its own slot
buffers, and the schemes are freed with the problem.
"""

import gc
import weakref

import numpy as np
import pytest

import repro
from repro.cluster import MachineModel
from repro.core import esr as esr_module
from repro.core.redundancy import (HeldIndex, RedundancySchemeBase,
                                   build_redundancy_scheme)
from repro.core.resilient_pcg import ResilientPCG
from repro.core.spec import ResilienceSpec
from repro.matrices import poisson_2d

MATRIX = poisson_2d(16)  # n = 256
N_NODES = 8
#: Three simultaneous failures, within phi = 3.
FAILURES = ((5, (1, 2, 3)),)
RHS_BLOCK = np.random.default_rng(0).standard_normal((MATRIX.shape[0], 8))


def fresh_problem():
    return repro.distribute_problem(
        MATRIX, n_nodes=N_NODES, machine=MachineModel(jitter_rel_std=0.0))


def solve(problem, k, failures=(), **layout):
    """A resilient solve of one rhs (``k = 1``) or of ``RHS_BLOCK``.

    The ledger is reset first: ``time_breakdown`` is the difference of the
    cumulative ledger over the solve, and a difference from a non-zero
    base rounds differently from one that starts at zero.
    """
    problem.cluster.ledger.reset()
    resilience = ResilienceSpec(**{"phi": 3, **layout}, failures=failures)
    return repro.solve(problem, None if k == 1 else RHS_BLOCK,
                       spec=repro.SolveSpec(rtol=1e-8,
                                            preconditioner="block_jacobi",
                                            resilience=resilience))


def assert_bit_identical(result, reference):
    assert result.x.tobytes() == reference.x.tobytes()
    assert result.iterations == reference.iterations
    histories = ("residual_norms" if hasattr(reference, "residual_norms")
                 else "residual_histories")
    assert getattr(result, histories) == getattr(reference, histories)
    assert result.time_breakdown == reference.time_breakdown
    assert len(result.recoveries) == len(reference.recoveries)


def scheme_of(problem, **fields):
    """The scheme a resilient solver of *problem* gets for *fields*."""
    precond = problem.resolve_preconditioner("block_jacobi")
    return ResilientPCG(problem.matrix, problem.rhs, precond,
                        resilience=ResilienceSpec(**fields)).scheme


@pytest.fixture
def builds(monkeypatch):
    """Counts of scheme builds (any kind) and static-table builds."""
    counts = {"scheme": 0, "tables": 0}
    for name, cls in (("scheme", RedundancySchemeBase),
                      ("tables", HeldIndex)):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=name, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


@pytest.fixture
def protocols(monkeypatch):
    """Every ESR protocol built while the test runs, in order."""
    built = []
    init = esr_module.ESRProtocol.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(esr_module.ESRProtocol, "__init__", recorded)
    return built


class TestOneBuildPerProblemAndLayout:
    RUNS = [(1, ()), (8, ()), (1, FAILURES), (8, FAILURES)]

    def test_solves_share_one_scheme_and_one_table_build(self, builds):
        problem = fresh_problem()
        results = [solve(problem, k, failures) for k, failures in self.RUNS]
        assert builds == {"scheme": 1, "tables": 1}
        assert [len(r.recoveries) for r in results] == [0, 0, 1, 1]
        for (k, failures), result in zip(self.RUNS, results):
            assert_bit_identical(result, solve(fresh_problem(), k, failures))

    def test_k1_and_k8_share_tables_but_not_slot_buffers(self, protocols):
        problem = fresh_problem()
        solve(problem, 1)
        solve(problem, 8)
        one, block = protocols
        assert block.scheme is one.scheme
        assert block._staging._held is one._staging._held
        for mine, theirs in zip(one._staging._buffers,
                                block._staging._buffers):
            assert not np.shares_memory(mine, theirs)
        assert (one._staging._buffers[0].shape[1],
                block._staging._buffers[0].shape[1]) == (1, 8)

    def test_copies_and_rs_parity_get_two_schemes(self, builds, protocols):
        problem = fresh_problem()
        results = {name: solve(problem, 1, FAILURES, scheme=name)
                   for name in ("copies", "rs_parity")}
        assert builds["scheme"] == 2
        assert [p.scheme.scheme_name for p in protocols] == ["copies",
                                                            "rs_parity"]
        for name, result in results.items():
            assert len(result.recoveries) == 1
            assert_bit_identical(
                result, solve(fresh_problem(), 1, FAILURES, scheme=name))


class TestMemoKey:
    LAYOUTS = [
        {"phi": 3},
        {"phi": 2},
        {"phi": 3, "scheme": "rs_parity"},
        {"phi": 3, "placement": "next_ranks"},
    ]

    def test_each_layout_field_keys_its_own_scheme(self):
        problem = fresh_problem()
        schemes = [scheme_of(problem, **fields) for fields in self.LAYOUTS]
        assert len({id(scheme) for scheme in schemes}) == len(self.LAYOUTS)
        assert all(scheme_of(problem, **fields) is scheme
                   for fields, scheme in zip(self.LAYOUTS, schemes))

    def test_failures_and_placement_spelling_share_the_scheme(self):
        problem = fresh_problem()
        base = scheme_of(problem, phi=3)
        assert scheme_of(problem, phi=3, failures=FAILURES) is base
        assert scheme_of(problem, phi=3, placement="Paper") is base

    def test_problems_do_not_share_schemes(self):
        assert scheme_of(fresh_problem(), phi=3) is not scheme_of(
            fresh_problem(), phi=3)

    def test_the_key_is_scheme_phi_and_placement(self):
        context = fresh_problem().matrix.context
        scheme = build_redundancy_scheme("RS_Parity", context, 2,
                                         placement="Random")
        assert list(context.schemes) == [("rs_parity", 2, "random")]
        assert context.schemes[("rs_parity", 2, "random")] is scheme

    def test_invalid_layout_raises_every_time_and_is_not_kept(self):
        context = fresh_problem().matrix.context
        for _ in range(2):
            with pytest.raises(ValueError):
                build_redundancy_scheme("copies", context, N_NODES)
        assert context.schemes == {}


def test_schemes_are_freed_with_their_problem():
    problem = fresh_problem()
    solve(problem, 1, FAILURES)
    scheme = weakref.ref(scheme_of(problem, phi=3))
    assert scheme() is not None
    del problem
    gc.collect()
    assert scheme() is None
