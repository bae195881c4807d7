"""Declarative solver configuration (`SolveSpec` and friends).

The high-level API is driven by frozen configuration dataclasses instead of
per-helper keyword soup (PETSc-options style): a :class:`SolveSpec` carries
everything every solver understands (tolerances, iteration cap, the
preconditioner), and two optional extensions carry the solver-specific
pieces -- :class:`ResilienceSpec` for the ESR-protected solver (redundancy
level, backup placement, failure schedule, local-solver options) and
:class:`BlockSpec` for multi-RHS block solves (expected column count,
reduction fusing).

Every spec validates and normalises its fields on construction, round-trips
through ``to_dict``/``from_dict`` (plain JSON-serializable dictionaries, so
benchmark sweeps and the experiment harness can be driven from config
files; both come from the field list through :mod:`repro.utils.serde`),
and documents its defaults in the field comments below.  The one
entry point that consumes them is :func:`repro.core.api.solve`; the mapping
from ``SolveSpec.solver`` names to solver classes lives in
:mod:`repro.core.registry`.

Defaults at a glance
--------------------
``SolveSpec()`` alone means: auto-selected solver (plain PCG for one
right-hand side, block PCG for a multi-RHS block, resilient PCG as soon as
a :class:`ResilienceSpec` is attached), ``rtol=1e-8``, ``atol=0``, the
solver's own iteration cap (``10 n``), serialized SpMV through the
SpMV engine, and a block-Jacobi preconditioner -- exactly the paper's
reference configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..cluster.failure import FailureEvent
from ..precond.base import Preconditioner
from ..solvers.local_solver import LOCAL_SOLVER_METHODS
from ..utils.serde import RoundTrip
from .placement import PLACEMENTS
from .redundancy import REDUNDANCY_SCHEMES


def build_failure_events(failures: Iterable[Union[FailureEvent, Tuple]]
                         ) -> List[FailureEvent]:
    """Normalise ``(iteration, ranks)`` tuples into :class:`FailureEvent` objects."""
    events: List[FailureEvent] = []
    for item in failures:
        if isinstance(item, FailureEvent):
            events.append(item)
        else:
            iteration, ranks = item[0], item[1]
            if np.isscalar(ranks):
                ranks = [int(ranks)]
            events.append(FailureEvent(int(iteration), tuple(int(r) for r in ranks)))
    return events


def _tolerance(name: str, value: Any, *, positive: bool = False) -> float:
    """*value* as a float; a ``ValueError`` naming the field unless it is
    finite and non-negative (positive when *positive*)."""
    tolerance = float(value)
    if not math.isfinite(tolerance) or tolerance < 0.0 \
            or (positive and tolerance == 0.0):
        kind = "positive" if positive else "non-negative"
        raise ValueError(
            f"{name} must be a finite {kind} number, got {value!r}")
    return tolerance


@dataclass(frozen=True)
class ResilienceSpec(RoundTrip):
    """Configuration of the ESR-protected solver (``solver="resilient_pcg"``).

    Attaching one of these to a :class:`SolveSpec` is what requests
    resilience; all fields default to the paper's settings.
    """

    #: Redundant copies kept per search-direction block (max. simultaneous
    #: failures survived); ``0 <= phi < N``.
    phi: int = 1
    #: Redundancy scheme: any name registered in
    #: :data:`repro.core.redundancy.REDUNDANCY_SCHEMES` (``"copies"`` --
    #: the paper's phi full off-node copies -- or ``"rs_parity"``:
    #: Reed-Solomon parity stripes tolerating the same ``phi`` in-group
    #: failures at ``phi/g`` storage overhead).
    scheme: str = "copies"
    #: Keyword arguments for the scheme constructor (e.g. ``group_size``
    #: for ``"rs_parity"``); mirrors ``SolveSpec.preconditioner_options``.
    scheme_options: Dict[str, Any] = field(default_factory=dict)
    #: Backup-node placement strategy: any name registered in
    #: :data:`repro.core.placement.PLACEMENTS` (``"paper"`` -- Eqn. (5) --
    #: ``"next_ranks"``, ``"random"``, ``"rack_aware"``, ``"copyset"``),
    #: stored lower-case.
    placement: str = "paper"
    #: Rack (failure-domain) size used by the rack-aware placement
    #: strategies; ``None`` = the default layout of
    #: :meth:`repro.core.placement.RackLayout.default`.
    rack_size: Optional[int] = None
    #: Failure schedule: :class:`FailureEvent` objects or ``(iteration,
    #: ranks)`` tuples (normalised on construction).  Empty = undisturbed.
    #: Events that never fire come back in ``info["unfired_failures"]``.
    failures: Tuple[FailureEvent, ...] = ()
    #: Local subsystem solver of the reconstruction, one of
    #: :data:`repro.solvers.LOCAL_SOLVER_METHODS`, and its relative
    #: tolerance, a finite positive number (``"pcg_ilu"`` with ``1e-14``
    #: in the paper).
    local_solver_method: str = "pcg_ilu"
    local_rtol: float = 1e-14

    def __post_init__(self) -> None:
        if int(self.phi) < 0:
            raise ValueError(f"phi must be non-negative, got {self.phi}")
        object.__setattr__(self, "phi", int(self.phi))
        # Registered-name validation + canonical lower-case spelling;
        # ``get`` raises a ValueError listing the registered schemes.
        scheme_cls = REDUNDANCY_SCHEMES.get(str(self.scheme))
        object.__setattr__(self, "scheme", scheme_cls.scheme_name)
        object.__setattr__(self, "scheme_options", dict(self.scheme_options))
        PLACEMENTS.get(self.placement)  # an unknown name raises ValueError
        object.__setattr__(self, "placement", self.placement.lower())
        if self.rack_size is not None:
            if int(self.rack_size) < 1:
                raise ValueError(
                    f"rack_size must be positive, got {self.rack_size}")
            object.__setattr__(self, "rack_size", int(self.rack_size))
        object.__setattr__(self, "failures",
                           tuple(build_failure_events(self.failures)))
        if self.local_solver_method not in LOCAL_SOLVER_METHODS:
            raise ValueError(
                f"local_solver_method must be one of {LOCAL_SOLVER_METHODS}, "
                f"got {self.local_solver_method!r}")
        object.__setattr__(self, "local_rtol", _tolerance(
            "local_rtol", self.local_rtol, positive=True))


@dataclass(frozen=True)
class BlockSpec(RoundTrip):
    """Configuration of multi-RHS block solves (``solver="block_pcg"``)."""

    #: Expected number of right-hand sides; ``None`` accepts whatever the
    #: RHS block carries (a mismatch raises at dispatch time).
    n_cols: Optional[int] = None
    #: Ship the trailing ``R^T Z`` and ``R^T R`` reductions of an iteration
    #: as **one** ``2k``-wide allreduce (3 -> 2 reductions per iteration).
    #: Off by default: fusing keeps the iterates bit-identical but lowers
    #: the charges below the paper's three reductions per iteration.
    fuse_reductions: bool = False

    def __post_init__(self) -> None:
        if self.n_cols is not None:
            if int(self.n_cols) < 1:
                raise ValueError(f"n_cols must be positive, got {self.n_cols}")
            object.__setattr__(self, "n_cols", int(self.n_cols))
        object.__setattr__(self, "fuse_reductions", bool(self.fuse_reductions))


@dataclass(frozen=True)
class SolveSpec(RoundTrip):
    """Everything one :func:`repro.solve` call needs, in one frozen object.

    The common solver knobs live here; solver-specific extensions are
    attached through :attr:`resilience` / :attr:`block`.  Construct directly,
    from a JSON dictionary (:meth:`from_dict`), or derive a variant from an
    existing spec with :meth:`with_overrides` (which also routes extension
    fields like ``phi`` or ``fuse_reductions`` to the right sub-spec).
    """

    #: Registered solver name (``"pcg"``, ``"resilient_pcg"``,
    #: ``"block_pcg"``, ``"resilient_block_pcg"``, or any name added via
    #: ``register_solver``).  ``None`` auto-selects: resilient block PCG for
    #: a multi-RHS block with a :class:`ResilienceSpec` attached, block PCG
    #: for a plain multi-RHS block, resilient PCG when only a
    #: :class:`ResilienceSpec` is attached, plain PCG otherwise.
    solver: Optional[str] = None
    #: Relative/absolute convergence tolerances on the recurrence residual
    #: (finite, non-negative numbers).
    rtol: float = 1e-8
    atol: float = 0.0
    #: Iteration cap; ``None`` = the solver default (``10 n``).
    max_iterations: Optional[int] = None
    #: Preconditioner: a registered name (see ``repro.precond.PRECONDITIONERS``;
    #: ``"identity"`` runs unpreconditioned) or an already-built
    #: :class:`~repro.precond.base.Preconditioner` instance (not serializable).
    preconditioner: Union[str, Preconditioner] = "block_jacobi"
    #: Keyword arguments for the preconditioner factory (e.g. ``drop_tol``
    #: for ``block_jacobi_ilu``); ignored when an instance is passed.
    preconditioner_options: Dict[str, Any] = field(default_factory=dict)
    #: ESR-resilience extension; attaching one selects ``resilient_pcg``
    #: unless ``solver`` says otherwise.
    resilience: Optional[ResilienceSpec] = None
    #: Multi-RHS extension; attaching one selects ``block_pcg`` unless
    #: ``solver`` says otherwise.
    block: Optional[BlockSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rtol", _tolerance("rtol", self.rtol))
        object.__setattr__(self, "atol", _tolerance("atol", self.atol))
        if self.max_iterations is not None:
            if int(self.max_iterations) < 1:
                raise ValueError(
                    f"max_iterations must be positive, got {self.max_iterations}")
            object.__setattr__(self, "max_iterations", int(self.max_iterations))
        if isinstance(self.resilience, Mapping):
            object.__setattr__(self, "resilience",
                               ResilienceSpec.from_dict(self.resilience))
        if isinstance(self.block, Mapping):
            object.__setattr__(self, "block", BlockSpec.from_dict(self.block))
        if not isinstance(self.preconditioner, (str, Preconditioner)):
            # Checked here, so a bad spec never joins a coalesced batch.
            raise TypeError(
                "preconditioner must be a registered name or a "
                f"Preconditioner instance, got {self.preconditioner!r}")
        object.__setattr__(self, "preconditioner_options",
                           dict(self.preconditioner_options))

    # -- derivation -----------------------------------------------------------
    def with_overrides(self, **overrides: Any) -> "SolveSpec":
        """A new spec with *overrides* applied.

        Top-level :class:`SolveSpec` field names override directly; the
        field names of :class:`ResilienceSpec` (``phi``, ``failures``, ...)
        and :class:`BlockSpec` (``n_cols``, ``fuse_reductions``) are routed
        into the corresponding extension, creating it with defaults if absent.
        Unknown names raise ``ValueError``.
        """
        own = {f.name for f in fields(self)}
        res_fields = {f.name for f in fields(ResilienceSpec)}
        blk_fields = {f.name for f in fields(BlockSpec)}
        top = {k: v for k, v in overrides.items() if k in own}
        res = {k: v for k, v in overrides.items() if k in res_fields}
        blk = {k: v for k, v in overrides.items() if k in blk_fields}
        unknown = sorted(set(overrides) - own - res_fields - blk_fields)
        if unknown:
            raise ValueError(
                f"unknown SolveSpec override(s) {unknown}; top-level fields: "
                f"{sorted(own)}, resilience fields: {sorted(res_fields)}, "
                f"block fields: {sorted(blk_fields)}"
            )
        spec = replace(self, **top) if top else self
        if res:
            base = spec.resilience if spec.resilience is not None \
                else ResilienceSpec()
            spec = replace(spec, resilience=replace(base, **res))
        if blk:
            base = spec.block if spec.block is not None else BlockSpec()
            spec = replace(spec, block=replace(base, **blk))
        return spec

    def resolved_solver(self, *, multi_rhs: bool = False) -> str:
        """The registry name this spec dispatches to.

        Explicit :attr:`solver` wins; otherwise a multi-RHS right-hand side
        (or an attached :class:`BlockSpec`) selects ``"block_pcg"`` -- or
        ``"resilient_block_pcg"`` when a :class:`ResilienceSpec` is attached
        as well (the two extensions compose) -- an attached
        :class:`ResilienceSpec` alone selects ``"resilient_pcg"``, and the
        plain ``"pcg"`` is the fallback.
        """
        if self.solver is not None:
            return str(self.solver)
        block_like = multi_rhs or self.block is not None
        if block_like and self.resilience is not None:
            return "resilient_block_pcg"
        if block_like:
            return "block_pcg"
        if self.resilience is not None:
            return "resilient_pcg"
        return "pcg"

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-serializable dictionary; ``from_dict`` round-trips it.

        Raises ``ValueError`` when :attr:`preconditioner` holds a built
        instance (name-based specs are the serializable configuration
        surface).
        """
        if isinstance(self.preconditioner, Preconditioner):
            raise ValueError(
                "a SolveSpec holding a Preconditioner instance is not "
                "serializable; use a registered preconditioner name instead"
            )
        return super().to_dict()
