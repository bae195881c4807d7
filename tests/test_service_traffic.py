"""Seeded synthetic traffic generation (R001: fully seed-determined)."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct

import numpy as np
import pytest

from repro.service import TrafficSpec, generate_traffic


class TestTrafficSpec:
    def test_fields(self):
        """Every request draws an independent right-hand side."""
        assert [f.name for f in dataclasses.fields(TrafficSpec)] == [
            "n_requests", "matrix_ids", "tenants", "rate_per_s"]

    def test_validation(self):
        with pytest.raises(ValueError, match="n_requests"):
            TrafficSpec(n_requests=-1)
        with pytest.raises(ValueError, match="matrix_ids"):
            TrafficSpec(matrix_ids=())
        with pytest.raises(ValueError, match="tenants"):
            TrafficSpec(tenants=())

    @pytest.mark.parametrize("value", [["a", "b"], "alice", ("a", 1)],
                             ids=["list", "str", "non-str-item"])
    @pytest.mark.parametrize("field", ["matrix_ids", "tenants"])
    def test_name_fields_must_be_tuples_of_str(self, field, value):
        """A list would leave the spec unhashable and unequal to its round
        trip; a str would be drawn from letter by letter."""
        with pytest.raises(TypeError, match=f"{field} must be a tuple of str"):
            TrafficSpec(**{field: value})

    def test_from_dict_does_not_split_a_str_into_letters(self):
        data = dict(TrafficSpec().to_dict(), tenants="alice")
        with pytest.raises(TypeError, match="tenants must be a tuple of str"):
            TrafficSpec.from_dict(data)

    def test_json_round_trip(self):
        spec = TrafficSpec(n_requests=5, matrix_ids=("a", "b"),
                           tenants=("x",), rate_per_s=10.0)
        restored = TrafficSpec.from_dict(json.loads(json.dumps(
            spec.to_dict())))
        assert restored == spec

    def test_from_dict_rejects_a_misspelled_key(self):
        # A typo must not load silently with the default rate.
        data = dict(TrafficSpec().to_dict(), rate_per_sec=5.0)
        with pytest.raises(
                ValueError,
                match=r"unknown TrafficSpec keys \['rate_per_sec'\]; "
                      r"known keys: \['matrix_ids', "):
            TrafficSpec.from_dict(data)


class TestGenerateTraffic:
    SIZES = {"a": 16, "b": 24}

    def test_same_seed_same_trace(self):
        spec = TrafficSpec(n_requests=20, matrix_ids=("a", "b"),
                           tenants=("t0", "t1"), rate_per_s=100.0)
        first = generate_traffic(spec, self.SIZES, seed=3)
        second = generate_traffic(spec, self.SIZES, seed=3)
        assert len(first) == len(second) == 20
        for lhs, rhs in zip(first, second):
            assert lhs.matrix_id == rhs.matrix_id
            assert lhs.tenant == rhs.tenant
            assert lhs.arrival_s == rhs.arrival_s
            assert np.array_equal(lhs.rhs, rhs.rhs)

    def test_different_seed_different_payloads(self):
        spec = TrafficSpec(n_requests=8, matrix_ids=("a",))
        first = generate_traffic(spec, self.SIZES, seed=1)
        second = generate_traffic(spec, self.SIZES, seed=2)
        assert not np.array_equal(first[0].rhs, second[0].rhs)

    def test_rhs_sizes_match_targets(self):
        spec = TrafficSpec(n_requests=30, matrix_ids=("a", "b"))
        for req in generate_traffic(spec, self.SIZES, seed=0):
            assert req.rhs.shape == (self.SIZES[req.matrix_id],)
            assert req.rhs.dtype == np.float64

    def test_zero_rate_means_simultaneous_arrivals(self):
        spec = TrafficSpec(n_requests=5, matrix_ids=("a",), rate_per_s=0.0)
        trace = generate_traffic(spec, self.SIZES, seed=0)
        assert [req.arrival_s for req in trace] == [0.0] * 5

    def test_positive_rate_yields_increasing_arrivals(self):
        spec = TrafficSpec(n_requests=10, matrix_ids=("a",), rate_per_s=50.0)
        arrivals = [req.arrival_s
                    for req in generate_traffic(spec, self.SIZES, seed=0)]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    def test_missing_size_raises(self):
        spec = TrafficSpec(n_requests=1, matrix_ids=("ghost",))
        with pytest.raises(ValueError, match="ghost"):
            generate_traffic(spec, self.SIZES, seed=0)

    def test_indices_are_sequential(self):
        spec = TrafficSpec(n_requests=6, matrix_ids=("a",))
        trace = generate_traffic(spec, self.SIZES, seed=0)
        assert [req.index for req in trace] == list(range(6))

    def test_trace_bytes_are_pinned(self):
        """Targets, tenants, arrivals and right-hand-side bytes of a seeded
        trace: the benchmarks' request streams must not move."""
        spec = TrafficSpec(n_requests=12, matrix_ids=("a", "b"),
                           tenants=("t0", "t1", "t2"), rate_per_s=40.0)
        digest = hashlib.sha256()
        for req in generate_traffic(spec, self.SIZES, seed=11):
            digest.update(f"{req.index}|{req.matrix_id}|{req.tenant}|".encode())
            digest.update(struct.pack("<d", req.arrival_s))
            digest.update(req.rhs.tobytes())
        assert digest.hexdigest()[:16] == "0f660c36ef014d49"
