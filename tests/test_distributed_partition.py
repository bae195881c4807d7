"""Tests for the block-row partition."""

import numpy as np
import pytest

from repro.distributed.partition import BlockRowPartition


class TestConstruction:
    def test_even_split(self):
        part = BlockRowPartition(100, 4)
        assert list(part.sizes()) == [25, 25, 25, 25]

    def test_uneven_split_front_loaded(self):
        part = BlockRowPartition(10, 3)
        assert list(part.sizes()) == [4, 3, 3]

    def test_offsets_consistent(self):
        part = BlockRowPartition(17, 5)
        offsets = part.offsets
        assert offsets[0] == 0
        assert offsets[-1] == 17
        assert np.all(np.diff(offsets) >= 1)

    def test_single_part(self):
        part = BlockRowPartition(7, 1)
        assert part.size_of(0) == 7

    def test_too_many_parts_rejected(self):
        with pytest.raises(ValueError):
            BlockRowPartition(3, 4)

    @pytest.mark.parametrize("n, parts", [(0, 1), (5, 0), (-1, 2)])
    def test_invalid_sizes_rejected(self, n, parts):
        with pytest.raises(ValueError):
            BlockRowPartition(n, parts)

    def test_max_block_size_is_ceil(self):
        assert BlockRowPartition(10, 3).max_block_size() == 4
        assert BlockRowPartition(12, 3).max_block_size() == 4


class TestCachedLayout:
    def test_layout_arrays_cached_and_read_only(self):
        part = BlockRowPartition(10, 3)
        assert part.offsets is part.offsets
        assert part.sizes() is part.sizes()
        with pytest.raises(ValueError):
            part.offsets[0] = 5
        with pytest.raises(ValueError):
            part.sizes()[0] = 5
        assert part.range_of(1) == (4, 7)
        assert part.size_of(2) == 3


class TestIndexSets:
    def test_range_and_indices(self):
        part = BlockRowPartition(10, 3)
        assert part.range_of(0) == (0, 4)
        assert part.range_of(2) == (7, 10)
        assert np.array_equal(part.indices_of(1), [4, 5, 6])

    def test_slice(self):
        part = BlockRowPartition(10, 2)
        assert part.slice_of(1) == slice(5, 10)

    def test_union_of_sets(self):
        part = BlockRowPartition(12, 4)
        union = part.indices_of_set([1, 3])
        assert np.array_equal(union, [3, 4, 5, 9, 10, 11])

    def test_union_empty(self):
        part = BlockRowPartition(12, 4)
        assert part.indices_of_set([]).size == 0

    def test_indices_cover_everything_exactly_once(self):
        part = BlockRowPartition(101, 7)
        all_indices = np.concatenate([part.indices_of(r) for r in part])
        assert np.array_equal(np.sort(all_indices), np.arange(101))

    def test_invalid_rank_rejected(self):
        part = BlockRowPartition(10, 2)
        with pytest.raises(ValueError):
            part.range_of(2)


class TestOwnership:
    def test_owner_of_vector(self):
        part = BlockRowPartition(10, 3)  # sizes 4,3,3
        owners = part.owner_of(np.array([0, 3, 4, 6, 7, 9]))
        assert list(owners) == [0, 0, 1, 1, 2, 2]

    def test_owner_out_of_range(self):
        part = BlockRowPartition(10, 2)
        with pytest.raises(IndexError):
            part.owner_of(np.array([10]))

    def test_ownership_matches_index_sets(self):
        part = BlockRowPartition(37, 5)
        for rank in part:
            owners = part.owner_of(part.indices_of(rank))
            assert np.all(owners == rank)

    def test_local_index(self):
        part = BlockRowPartition(10, 2)
        local = part.local_index(1, np.array([5, 7, 9]))
        assert np.array_equal(local, [0, 2, 4])

    def test_local_index_wrong_owner_rejected(self):
        part = BlockRowPartition(10, 2)
        with pytest.raises(IndexError):
            part.local_index(0, np.array([9]))


class TestMisc:
    def test_blocks_listing(self):
        part = BlockRowPartition(9, 3)
        assert part.blocks() == [(0, 0, 3), (1, 3, 6), (2, 6, 9)]

    def test_compatibility(self):
        assert BlockRowPartition(10, 2).is_compatible_with(BlockRowPartition(10, 2))
        assert not BlockRowPartition(10, 2).is_compatible_with(BlockRowPartition(10, 5))

    def test_iteration(self):
        assert list(BlockRowPartition(10, 4)) == [0, 1, 2, 3]
