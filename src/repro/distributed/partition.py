"""Block-row data distribution (Sec. 1.1.2 of the paper).

All matrices and vectors are distributed by contiguous blocks of rows: node
``i`` owns the index set ``I_i`` of roughly ``n/N`` consecutive indices.  If
``n`` is not divisible by ``N``, the first ``n mod N`` nodes own one extra row
(the usual PETSc-style layout, matching the paper's "some nodes own floor(n/N)
and others ceil(n/N) rows").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Tuple

import numpy as np


@dataclass(frozen=True)
class BlockRowPartition:
    """Partition of ``{0, ..., n-1}`` into ``n_parts`` contiguous blocks.

    Parameters
    ----------
    n:
        Global problem size (number of rows / vector elements).
    n_parts:
        Number of nodes ``N`` the data is distributed over.
    """

    n: int
    n_parts: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.n_parts < 1:
            raise ValueError(f"n_parts must be >= 1, got {self.n_parts}")
        if self.n_parts > self.n:
            raise ValueError(
                f"cannot distribute {self.n} rows over {self.n_parts} nodes "
                "(at least one row per node is required)"
            )

    # -- offsets and sizes ---------------------------------------------------
    # The layout is immutable (frozen dataclass), so the derived arrays are
    # computed once per partition and handed out read-only.
    @cached_property
    def offsets(self) -> np.ndarray:
        """Array of length ``n_parts + 1``: block ``i`` is ``[offsets[i], offsets[i+1])``."""
        base, extra = divmod(self.n, self.n_parts)
        sizes = np.full(self.n_parts, base, dtype=np.int64)
        sizes[:extra] += 1
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        offsets.flags.writeable = False
        return offsets

    @cached_property
    def ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Per rank, the owned ``(start, stop)`` as Python ints."""
        bounds = self.offsets.tolist()
        return tuple(zip(bounds[:-1], bounds[1:]))

    @cached_property
    def size_runs(self) -> Tuple[Tuple[slice, slice, int], ...]:
        """Per run of consecutive ranks with equal block size, the
        ``(ranks, rows, size)`` it covers: a slice of the ranks, a slice of
        the global rows they own, and their block size.

        The first ``n mod N`` ranks own ``ceil(n/N)`` rows and the others
        ``floor(n/N)``, so there are one or two runs.
        """
        base, extra = divmod(self.n, self.n_parts)
        split = extra * (base + 1)
        runs = ((slice(0, extra), slice(0, split), base + 1),
                (slice(extra, self.n_parts), slice(split, self.n), base))
        return runs if extra else runs[1:]

    @cached_property
    def _sizes(self) -> np.ndarray:
        sizes = np.diff(self.offsets)
        sizes.flags.writeable = False
        return sizes

    def size_of(self, rank: int) -> int:
        """Number of rows owned by *rank* (``|I_i|``)."""
        self._check_rank(rank)
        start, stop = self.ranges[rank]
        return stop - start

    def sizes(self) -> np.ndarray:
        """Vector of all block sizes (read-only)."""
        return self._sizes

    def max_block_size(self) -> int:
        """``ceil(n / N)`` -- appears in the Sec. 4.2 upper bound."""
        return -(-self.n // self.n_parts)

    # -- index sets -------------------------------------------------------------
    def range_of(self, rank: int) -> Tuple[int, int]:
        """Half-open global index range ``[start, stop)`` owned by *rank*."""
        self._check_rank(rank)
        return self.ranges[rank]

    def indices_of(self, rank: int) -> np.ndarray:
        """Global indices owned by *rank* (the paper's ``I_i``)."""
        start, stop = self.range_of(rank)
        return np.arange(start, stop, dtype=np.int64)

    def indices_of_set(self, ranks) -> np.ndarray:
        """Union of the index sets of several ranks (``I_f`` for failed sets)."""
        ranks = sorted(set(int(r) for r in ranks))
        if not ranks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([self.indices_of(r) for r in ranks])

    # -- ownership lookups ---------------------------------------------------------
    def owner_of(self, index) -> np.ndarray:
        """Owning rank(s) of global index/indices (vectorised)."""
        idx = np.atleast_1d(np.asarray(index, dtype=np.int64))
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            bad = idx[(idx < 0) | (idx >= self.n)][0]
            raise IndexError(f"global index {bad} out of range [0, {self.n})")
        owners = np.searchsorted(self.offsets, idx, side="right") - 1
        return owners if np.ndim(index) else owners.reshape(np.shape(index))

    # -- iteration helpers ------------------------------------------------------------
    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n_parts))

    def blocks(self) -> List[Tuple[int, int, int]]:
        """List of ``(rank, start, stop)`` triples."""
        offsets = self.offsets
        return [
            (rank, int(offsets[rank]), int(offsets[rank + 1]))
            for rank in range(self.n_parts)
        ]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_parts:
            raise ValueError(
                f"rank {rank} out of range for a partition into {self.n_parts} parts"
            )

    def is_compatible_with(self, other: "BlockRowPartition") -> bool:
        """True if *other* describes the identical distribution."""
        return self.n == other.n and self.n_parts == other.n_parts
