"""Pinned allowlists of :mod:`repro.lint`.

Every entry is a deliberate, reviewed exemption: the module is *supposed*
to do what the rule forbids everywhere else.  Extending an allowlist is an
API-review-level change -- add the pattern here (patterns are ``fnmatch``
globs matched against the package-relative path, see
:func:`repro.lint.engine.path_matches`) together with a comment saying why
the module needs the exemption.  Prefer a line-local ``# noqa: R00X`` for
one-off cases; prefer *fixing the code* over either.
"""

from __future__ import annotations

from typing import Dict, Tuple

ALLOWLISTS: Dict[str, Tuple[str, ...]] = {
    # R001 -- utils/rng.py is the sanctioned seed funnel: it owns the only
    # ``default_rng`` calls that may legally receive ``None`` (explicitly
    # documented as the non-deterministic escape hatch).
    "R001": (
        "utils/rng.py",
    ),
    # R002 -- wallclock may only be read where *host* time is the measured
    # quantity, never where it could leak into simulated charges:
    #   - harness/experiment.py reports wallclock next to simulated time;
    #   - core/reconstruction.py times each recovery episode;
    #   - service/service.py drives the batching windows and the per-request
    #     latency accounting off host-monotonic time (queue wait / batch
    #     wait / solve seconds are host quantities by definition; simulated
    #     charges come from the ledger, never from this clock).  The
    #     exemption is deliberately this one file, not the service package:
    #     policies/accounting/traffic receive instants as parameters and
    #     must stay clock-free.
    "R002": (
        "harness/experiment.py",
        "core/reconstruction.py",
        "service/service.py",
    ),
    # R003 -- no exemptions: every registered name must be test-covered.
    "R003": (),
    # R004 -- the storage layer itself: these modules implement the
    # node-memory contract (or instrument it, in the sanitizer's case) and
    # are exactly the code the rule protects from being bypassed.
    "R004": (
        "cluster/node.py",
        "cluster/__init__.py",
        "distributed/blockstore.py",
        "distributed/dmatrix.py",
        "distributed/dmultivector.py",
        "core/esr.py",
        "sanitizer.py",
    ),
    # R005 -- no exemptions: sort before iterating.
    "R005": (),
    # R006 -- frozen-spec normalisation is the one sanctioned use of
    # ``object.__setattr__``: the spec module and the frozen FailureEvent.
    "R006": (
        "core/spec.py",
        "cluster/failure.py",
    ),
    # R007 -- flow violations are anchored at the taint *origin*, so these
    # are the modules sanctioned to *produce* nondeterminism (the same
    # modules R001/R002 pin):
    #   - utils/rng.py owns the documented unseeded escape hatch;
    #   - harness/experiment.py measures host wallclock by design (its
    #     values feed host-timing reports, never simulated charges);
    #   - core/reconstruction.py times each recovery episode and stores
    #     the measurement in RecoveryReport's wallclock field;
    #   - service/service.py is the R002-exempted wallclock reader of the
    #     serving layer: its monotonic instants flow only into the
    #     latency fields of RequestResult/ServiceStats (excluded from the
    #     deterministic ``aggregate()`` view by design).
    "R007": (
        "utils/rng.py",
        "harness/experiment.py",
        "core/reconstruction.py",
        "service/service.py",
    ),
    # R008 -- no exemptions: every communicator primitive charges the ledger.
    "R008": (),
    # R010 -- no exemptions: hook overrides chain to super(), recovery
    # writes go through restore_block.
    "R010": (),
}
