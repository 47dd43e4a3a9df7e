"""Tests for the TrafficMatrixSeries container."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro.core.traffic_matrix import TrafficMatrixSeries
from repro.errors import ShapeError, ValidationError


class TestTrafficMatrix:
    """Single-matrix behaviour, on a one-bin series."""

    def setup_method(self):
        self.values = np.array([[1.0, 2.0], [3.0, 4.0]])
        self.matrix = TrafficMatrixSeries(self.values, ["a", "b"])

    def test_marginals(self):
        assert self.matrix.ingress.tolist() == [[3.0, 7.0]]
        assert self.matrix.egress.tolist() == [[4.0, 6.0]]
        assert self.matrix.totals.tolist() == pytest.approx([10.0])

    def test_vector_round_trip(self):
        vectors = self.matrix.to_vectors()
        assert vectors.tolist() == [[1.0, 2.0, 3.0, 4.0]]
        rebuilt = TrafficMatrixSeries(vectors.reshape(1, 2, 2), ["a", "b"])
        np.testing.assert_array_equal(rebuilt.values, self.matrix.values)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            TrafficMatrixSeries([[1.0, -2.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            TrafficMatrixSeries(np.ones((2, 3)))

    def test_default_node_names(self):
        anonymous = TrafficMatrixSeries(self.values)
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
        assert isinstance(first, np.ndarray)
        assert first.tolist() == [[0.0, 1.0], [2.0, 3.0]]

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
            self.series[0][0, 0] = 99.0

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
            TrafficMatrixSeries(matrix).values[0, 0, 0] = 99.0
        with pytest.raises(ValueError):
            TrafficMatrixSeries(matrix).to_vectors()[0, 0] = 99.0
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

    def test_vector_round_trip(self):
        vectors = self.series.to_vectors()
        assert vectors.shape == (6, 4)
        rebuilt = TrafficMatrixSeries(vectors.reshape(6, 2, 2), ["a", "b"], bin_seconds=300.0)
        np.testing.assert_array_equal(rebuilt.values, self.series.values)

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "series.npz"
        self.series.save(path)
        with np.load(path, allow_pickle=False) as data:
            values = data["values"]
            metadata = json.loads(str(data["metadata"]))
        np.testing.assert_array_equal(values, self.series.values)
        assert tuple(metadata["nodes"]) == self.series.nodes
        assert metadata["bin_seconds"] == self.series.bin_seconds

    def test_rejects_negative_bin(self):
        with pytest.raises(ValidationError):
            TrafficMatrixSeries(self.values, bin_seconds=0.0)

    def test_single_matrix_promoted(self):
        single = TrafficMatrixSeries(np.ones((3, 3)))
        assert single.n_timesteps == 1
