"""Tests for the contiguous sharding convention."""

from __future__ import annotations

import pytest

from repro.parallel.sharding import split_shards


class TestSplitShards:
    @pytest.mark.parametrize("n_items", [1, 2, 5, 12, 100])
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7, 16])
    def test_concat_equals_original(self, n_items, n_shards):
        items = list(range(n_items))
        shards = split_shards(items, n_shards)
        assert [x for shard in shards for x in shard] == items

    @pytest.mark.parametrize("n_items", [1, 5, 12, 100])
    @pytest.mark.parametrize("n_shards", [1, 3, 16])
    def test_no_empty_shards_and_near_even(self, n_items, n_shards):
        shards = split_shards(list(range(n_items)), n_shards)
        assert len(shards) == min(n_shards, n_items)
        sizes = [len(s) for s in shards]
        assert min(sizes) >= 1
        assert max(sizes) - min(sizes) <= 1

    def test_empty_input(self):
        assert split_shards([], 4) == []

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            split_shards([1], 0)

