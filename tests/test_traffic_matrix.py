"""Tests for the TrafficMatrix / TrafficMatrixSeries containers."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.traffic_matrix import TrafficMatrix, TrafficMatrixSeries, od_pairs
from repro.errors import ShapeError, ValidationError


class TestOdPairs:
    def test_row_major_order(self):
        assert od_pairs(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_count(self):
        assert len(od_pairs(5)) == 25


class TestTrafficMatrix:
    def setup_method(self):
        self.values = np.array([[1.0, 2.0], [3.0, 4.0]])
        self.matrix = TrafficMatrix(self.values, ["a", "b"])

    def test_marginals(self):
        assert self.matrix.ingress.tolist() == [3.0, 7.0]
        assert self.matrix.egress.tolist() == [4.0, 6.0]
        assert self.matrix.total == pytest.approx(10.0)

    def test_vector_round_trip(self):
        vector = self.matrix.to_vector()
        rebuilt = TrafficMatrix.from_vector(vector, ["a", "b"])
        assert rebuilt.allclose(self.matrix)

    def test_from_vector_rejects_non_square_length(self):
        with pytest.raises(ShapeError):
            TrafficMatrix.from_vector(np.arange(5.0))

    def test_flow_by_name(self):
        assert self.matrix.flow("a", "b") == 2.0
        with pytest.raises(ValidationError):
            self.matrix.flow("a", "zz")

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            TrafficMatrix([[1.0, -2.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            TrafficMatrix(np.ones((2, 3)))

    def test_scaled(self):
        doubled = self.matrix.scaled(2.0)
        assert doubled.total == pytest.approx(20.0)
        with pytest.raises(ValidationError):
            self.matrix.scaled(-1.0)

    def test_without_self_traffic(self):
        cleaned = self.matrix.without_self_traffic()
        assert np.trace(cleaned.values) == 0.0
        assert cleaned.values[0, 1] == 2.0

    def test_equality(self):
        assert self.matrix == TrafficMatrix(self.values, ["a", "b"])
        assert self.matrix != TrafficMatrix(self.values, ["x", "y"])

    def test_default_node_names(self):
        anonymous = TrafficMatrix(self.values)
        assert anonymous.nodes == ("node00", "node01")


class TestTrafficMatrixSeries:
    def setup_method(self):
        self.values = np.arange(24, dtype=float).reshape(6, 2, 2)
        self.series = TrafficMatrixSeries(self.values, ["a", "b"], bin_seconds=300.0)

    def test_basic_shape(self):
        assert self.series.n_timesteps == 6
        assert self.series.n_nodes == 2
        assert len(self.series) == 6

    def test_indexing_returns_matrix(self):
        first = self.series[0]
        assert isinstance(first, TrafficMatrix)
        assert first.values.tolist() == [[0.0, 1.0], [2.0, 3.0]]

    def test_slicing_returns_series(self):
        part = self.series[1:3]
        assert isinstance(part, TrafficMatrixSeries)
        assert part.n_timesteps == 2

    def test_values_read_only(self):
        view = self.series.values
        with pytest.raises(ValueError):
            view[0, 0, 0] = 99.0

    def test_indexed_matrix_is_read_only(self):
        # The series shares its input buffer, so a matrix taken from it is
        # a read-only view rather than a writable alias of that buffer.
        with pytest.raises(ValueError):
            self.series[0].values[0, 0] = 99.0

    def test_wrapping_a_nonnegative_cube_does_not_copy_it(self):
        cube = np.random.default_rng(0).random((512, 22, 22))
        tracemalloc.start()
        try:
            series = TrafficMatrixSeries(cube, bin_seconds=300.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The finiteness check's mask (one byte per entry, an eighth of the
        # cube) is the only transient; a copy would be a whole cube more.
        assert peak < 0.2 * cube.nbytes
        assert np.shares_memory(series.values, cube)

    def test_no_conversion_writes_through_to_a_shared_buffer(self):
        cube = np.arange(24.0).reshape(6, 2, 2)
        series = TrafficMatrixSeries(cube)
        for vectors in (series.to_vectors(), series[1:4].to_vectors()):
            with pytest.raises(ValueError):
                vectors[0, 0] = 99.0
        matrix = np.ones((3, 3))
        with pytest.raises(ValueError):
            TrafficMatrix(matrix).values[0, 0] = 99.0
        with pytest.raises(ValueError):
            TrafficMatrix(matrix).to_vector()[0] = 99.0
        assert cube[0, 0, 0] == 0.0 and matrix[0, 0] == 1.0

    def test_tiny_negatives_are_still_clipped_into_a_copy(self):
        cube = np.ones((4, 3, 3))
        cube[1, 0, 2] = cube[3, 2, 2] = -1e-12
        series = TrafficMatrixSeries(cube)
        assert series.values.min() == 0.0
        assert series.values[1, 0, 2] == 0.0
        assert cube[1, 0, 2] == -1e-12  # the caller's cube is left as it was
        assert not np.shares_memory(series.values, cube)

    def test_marginals_shapes(self):
        assert self.series.ingress.shape == (6, 2)
        assert self.series.egress.shape == (6, 2)
        assert self.series.totals.shape == (6,)
        np.testing.assert_allclose(
            self.series.totals, self.values.sum(axis=(1, 2))
        )

    def test_mean_matrix(self):
        np.testing.assert_allclose(self.series.mean_matrix().values, self.values.mean(axis=0))

    def test_vector_round_trip(self):
        vectors = self.series.to_vectors()
        rebuilt = TrafficMatrixSeries.from_vectors(vectors, ["a", "b"], bin_seconds=300.0)
        np.testing.assert_allclose(rebuilt.values, self.series.values)

    def test_from_vectors_rejects_bad_width(self):
        with pytest.raises(ShapeError):
            TrafficMatrixSeries.from_vectors(np.ones((3, 5)))

    def test_subsample(self):
        sampled = self.series.subsample(2)
        assert sampled.n_timesteps == 3
        assert sampled.bin_seconds == 600.0
        with pytest.raises(ValidationError):
            self.series.subsample(0)

    def test_aggregate(self):
        aggregated = self.series.aggregate(3)
        assert aggregated.n_timesteps == 2
        np.testing.assert_allclose(aggregated.values[0], self.values[:3].sum(axis=0))
        with pytest.raises(ValidationError):
            self.series.aggregate(10)

    def test_split_weeks_explicit(self):
        weeks = self.series.split_weeks(bins_per_week=2)
        assert len(weeks) == 3
        assert all(week.n_timesteps == 2 for week in weeks)

    def test_concatenate(self):
        combined = self.series.concatenate(self.series)
        assert combined.n_timesteps == 12
        other_nodes = TrafficMatrixSeries(self.values, ["x", "y"], bin_seconds=300.0)
        with pytest.raises(ValidationError):
            self.series.concatenate(other_nodes)
        other_bins = TrafficMatrixSeries(self.values, ["a", "b"], bin_seconds=600.0)
        with pytest.raises(ValidationError):
            self.series.concatenate(other_bins)

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "series.npz"
        self.series.save(path)
        loaded = TrafficMatrixSeries.load(path)
        np.testing.assert_allclose(loaded.values, self.series.values)
        assert loaded.nodes == self.series.nodes
        assert loaded.bin_seconds == self.series.bin_seconds

    def test_rejects_negative_bin(self):
        with pytest.raises(ValidationError):
            TrafficMatrixSeries(self.values, bin_seconds=0.0)

    def test_single_matrix_promoted(self):
        single = TrafficMatrixSeries(np.ones((3, 3)))
        assert single.n_timesteps == 1
