"""Declarative solver configuration (`SolveSpec` and friends).

The high-level API is driven by frozen configuration dataclasses instead of
per-helper keyword soup (PETSc-options style): a :class:`SolveSpec` carries
everything every solver understands (tolerances, iteration cap, the
preconditioner), and two optional extensions carry the solver-specific
pieces -- :class:`ResilienceSpec` for the ESR-protected solver (redundancy
level and scheme, backup placement, failure schedule) and
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
``SolveSpec()`` alone means: auto-selected solver (plain PCG, or resilient
PCG as soon as a :class:`ResilienceSpec` is attached; either answers a 1-D
right-hand side with one vector and an ``(n, k)`` block with a block),
``rtol=1e-8``, ``atol=0``, the solver's own iteration cap (``10 n``) and a
block-Jacobi preconditioner -- exactly the paper's reference
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..cluster.failure import FailureEvent
from ..precond.base import Preconditioner
from ..utils.serde import RoundTrip
from ..utils.validation import check_tolerance
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
    #: Backup-node placement strategy: any name registered in
    #: :data:`repro.core.placement.PLACEMENTS` (``"paper"`` -- Eqn. (5) --
    #: ``"next_ranks"``, ``"random"``, ``"rack_aware"``, ``"copyset"``),
    #: stored lower-case.  The rack-aware ones use the default rack layout
    #: of :meth:`repro.core.placement.RackLayout.default`.
    placement: str = "paper"
    #: Failure schedule: :class:`FailureEvent` objects or ``(iteration,
    #: ranks)`` tuples (normalised on construction).  Empty = undisturbed.
    #: Events that never fire come back in ``info["unfired_failures"]``.
    failures: Tuple[FailureEvent, ...] = ()

    def __post_init__(self) -> None:
        if int(self.phi) < 0:
            raise ValueError(f"phi must be non-negative, got {self.phi}")
        object.__setattr__(self, "phi", int(self.phi))
        # Registered-name validation + canonical lower-case spelling;
        # ``get`` raises a ValueError listing the registered schemes.
        scheme_cls = REDUNDANCY_SCHEMES.get(str(self.scheme))
        object.__setattr__(self, "scheme", scheme_cls.scheme_name)
        PLACEMENTS.get(self.placement)  # an unknown name raises ValueError
        object.__setattr__(self, "placement", self.placement.lower())
        object.__setattr__(self, "failures",
                           tuple(build_failure_events(self.failures)))


@dataclass(frozen=True)
class BlockSpec(RoundTrip):
    """Configuration of multi-RHS block solves.

    Either solver answers an ``(n, k)`` right-hand side with a block, with
    or without this extension; it adds a column-count check and reduction
    fusing.
    """

    #: Expected number of right-hand sides; ``None`` accepts whatever the
    #: right-hand side carries (a mismatch raises at dispatch time).
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

    #: Registered solver name (``"pcg"``, ``"resilient_pcg"``, or any name
    #: added via ``register_solver``).  ``None`` auto-selects: resilient
    #: PCG when a :class:`ResilienceSpec` is attached, plain PCG otherwise.
    #: Either takes one right-hand side or an ``(n, k)`` block.
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
    #: ESR-resilience extension; attaching one selects ``resilient_pcg``
    #: unless ``solver`` says otherwise.
    resilience: Optional[ResilienceSpec] = None
    #: Multi-RHS extension: checks the block's column count and may fuse
    #: reductions; it selects no solver.
    block: Optional[BlockSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rtol", check_tolerance(self.rtol, "rtol"))
        object.__setattr__(self, "atol", check_tolerance(self.atol, "atol"))
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

    def resolved_solver(self) -> str:
        """The registry name this spec dispatches to: explicit
        :attr:`solver` wins, else ``"resilient_pcg"`` exactly when a
        :class:`ResilienceSpec` is attached, else ``"pcg"``."""
        if self.solver is not None:
            return str(self.solver)
        return "pcg" if self.resilience is None else "resilient_pcg"

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
