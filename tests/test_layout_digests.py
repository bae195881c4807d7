"""Pinned digests of the reliability layer's layouts and traces.

Every layout decision derives from the node count: the rack layout is
``RackLayout.default(n_nodes)``, a placement maps ``(owner, phi, n_nodes)``
to its targets, a scheme lays itself out over the placement, and a trace
is a function of its spec and seed.  These digests hash all of them over
a range of node counts, so a change that moves one backup target, stripe,
parity holder or trace event shows here.

Print the current digests with::

    PYTHONPATH=src python tests/test_layout_digests.py
"""

import hashlib
import json

from repro.cluster import VirtualCluster
from repro.core.placement import RackLayout
from repro.core.redundancy import RedundancyScheme, backup_targets
from repro.core.rs_parity import RSParityScheme
from repro.distributed import BlockRowPartition, DistributedMatrix
from repro.failures.traces import LifetimeModel, TraceSpec, generate_trace
from repro.matrices import poisson_2d

#: Every registered placement (string literals: the R003 lint rule wants
#: registered names spelled out in the tests).
ALL_PLACEMENTS = ("paper", "next_ranks", "random", "rack_aware", "copyset")

EXPECTED = {
    "placement_targets": "178a22af7b82eb6d",
    "rack_layouts": "502c4382308b9abc",
    "scheme_layouts": "986e6b0811146b27",
    "traces": "e8c031d5c60af487",
}


def _digest(rows) -> str:
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def placement_targets_digest() -> str:
    """Every placement's targets for n = 2..20, every phi < n, every owner."""
    return _digest([
        [name, n, phi, owner, backup_targets(owner, phi, n, name)]
        for name in ALL_PLACEMENTS
        for n in range(2, 21)
        for phi in range(n)
        for owner in range(n)
    ])


def rack_layouts_digest() -> str:
    """The default rack layout of n = 2..20 nodes."""
    return _digest([[n, RackLayout.default(n).racks()]
                    for n in range(2, 21)])


def _context(n_nodes: int):
    matrix = poisson_2d(12)
    dist = DistributedMatrix.from_global(
        VirtualCluster(n_nodes),
        BlockRowPartition(matrix.shape[0], n_nodes), "A", matrix)
    return dist.context


def scheme_layouts_digest() -> str:
    """Both schemes under every placement on 4..16 nodes, phi = 1..3: the
    copies scheme's held pattern, the parity scheme's stripes and holders."""
    rows = []
    for n in range(4, 17):
        context = _context(n)
        for name in ALL_PLACEMENTS:
            for phi in (1, 2, 3):
                pattern = RedundancyScheme(
                    context, phi, placement=name).held_pattern()
                rows.append(["copies", n, name, phi,
                             [[*key, pattern[key].tolist()]
                              for key in sorted(pattern)]])
                parity = RSParityScheme(context, phi, placement=name)
                rows.append(["rs_parity", n, name, phi,
                             [[list(parity.group_members(g)),
                               list(parity.group_holders(g))]
                              for g in range(parity.n_groups)]])
    return _digest(rows)


def traces_digest() -> str:
    """Generated traces on 7..16 nodes, where the default rack layout has
    racks of 4: three burst rates, two lifetime scales, six seeds."""
    rows = []
    for n in range(7, 17):
        for burst_rate in (0.0, 0.02, 0.05):
            for scale in (60.0, 400.0):
                spec = TraceSpec(n_nodes=n, horizon=200, burst_rate=burst_rate,
                                 lifetime=LifetimeModel(scale=scale))
                for seed in range(6):
                    trace = generate_trace(spec, seed=seed)
                    rows.append([n, burst_rate, scale, seed,
                                 [[ev.time.hex(), list(ev.ranks), ev.cause]
                                  for ev in trace.events]])
    return _digest(rows)


DIGESTS = {
    "placement_targets": placement_targets_digest,
    "rack_layouts": rack_layouts_digest,
    "scheme_layouts": scheme_layouts_digest,
    "traces": traces_digest,
}


def test_placement_targets_pinned():
    assert placement_targets_digest() == EXPECTED["placement_targets"]


def test_rack_layouts_pinned():
    assert rack_layouts_digest() == EXPECTED["rack_layouts"]


def test_scheme_layouts_pinned():
    assert scheme_layouts_digest() == EXPECTED["scheme_layouts"]


def test_traces_pinned():
    assert traces_digest() == EXPECTED["traces"]


if __name__ == "__main__":
    for key, fn in DIGESTS.items():
        print(f"{key:>18}: {fn()}")
