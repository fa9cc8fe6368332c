"""Knot placement and cell location."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from lspart.errors import DegenerateData, InvalidKappa, OutOfSupport
from lspart.partition import KnotRule, TensorPartition, make_knots
from oracles import cell


class TestMakeKnots:
    def test_even_unit_interval(self):
        assert_allclose(
            make_knots(KnotRule.EVEN, (0.0, 1.0), 4),
            [0.0, 0.25, 0.5, 0.75, 1.0],
            rtol=0, atol=0,
        )

    def test_even_endpoints_exact(self):
        knots = make_knots(KnotRule.EVEN, (-2.0, 3.0), 7)
        assert knots[0] == -2.0 and knots[-1] == 3.0
        assert knots.shape == (8,)
        assert_allclose(np.diff(knots), 5.0 / 7, rtol=1e-15)

    def test_even_single_cell(self):
        assert_array_equal(make_knots(KnotRule.EVEN, (0.0, 2.0), 1), [0.0, 2.0])

    def test_quantile_order_statistics(self):
        # interior knot l sits at the 1-based rank ceil(l*n/kappa)
        data = np.arange(1.0, 101.0)
        knots = make_knots(KnotRule.QUANTILE, (0.0, 101.0), 4, data=data)
        assert_array_equal(knots, [0.0, 25.0, 50.0, 75.0, 101.0])

    def test_quantile_unsorted_input(self):
        rng = np.random.default_rng(0)
        data = rng.permutation(np.arange(1.0, 101.0))
        knots = make_knots(KnotRule.QUANTILE, (0.0, 101.0), 4, data=data)
        assert_array_equal(knots[1:-1], [25.0, 50.0, 75.0])

    def test_quantile_duplicates_rejected(self):
        data = np.array([1.0, 1.0, 1.0, 1.0, 2.0])
        with pytest.raises(DegenerateData):
            make_knots(KnotRule.QUANTILE, (0.0, 3.0), 3, data=data)

    def test_quantile_needs_data(self):
        with pytest.raises(DegenerateData):
            make_knots(KnotRule.QUANTILE, (0.0, 1.0), 3)

    def test_bad_kappa(self):
        with pytest.raises(InvalidKappa):
            make_knots(KnotRule.EVEN, (0.0, 1.0), 0)

    def test_empty_support(self):
        with pytest.raises(DegenerateData):
            make_knots(KnotRule.EVEN, (1.0, 1.0), 2)


class TestTensorPartition:
    def test_build_even_2d(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1], [0, 2]], [2, 4])
        assert part.dim == 2
        assert part.kappa == (2, 4)
        assert part.num_cells == 8
        assert_allclose([[k[0], k[-1]] for k in part.knots], [[0, 1], [0, 2]])

    def test_locate_interior(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1]], 4)
        cells = part.locate([[0.1], [0.3], [0.6], [0.9]])
        assert_array_equal(cells[:, 0], [0, 1, 2, 3])

    def test_locate_knot_goes_right(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1]], 4)
        assert part.locate([[0.25]])[0, 0] == 1
        assert part.locate([[0.0]])[0, 0] == 0

    def test_locate_right_endpoint_in_last_cell(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1]], 4)
        assert part.locate([[1.0]])[0, 0] == 3

    def test_locate_out_of_support(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1]], 4)
        with pytest.raises(OutOfSupport):
            part.locate([[1.0 + 1e-12]])
        with pytest.raises(OutOfSupport):
            part.locate([[-0.1]])
        with pytest.raises(OutOfSupport):
            part.locate([[np.nan]])

    def test_geometry_matches_knots(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1], [0, 2]], [2, 2])
        lower, width = part.geometry([[1, 0]])
        assert_allclose(lower[0], [0.5, 0.0])
        assert_allclose(width[0], [0.5, 1.0])

    def test_cell_accessor(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1], [0, 1]], 2)
        geo = cell(part, (1, 1))
        assert geo.index == (1, 1)
        assert_allclose(geo.lower, [0.5, 0.5])
        assert geo.diameter == pytest.approx(np.sqrt(0.5))
        with pytest.raises(OutOfSupport):
            cell(part, (2, 0))

    def test_mesh_stats_even(self):
        part = TensorPartition.build(KnotRule.EVEN, [[0, 1]], 5)
        stats = part.mesh_stats()
        assert stats["h_max"] == pytest.approx(0.2)
        assert stats["quasi_uniformity"] == pytest.approx(1.0)
        assert stats["num_cells"] == 5

    def test_mesh_stats_uneven(self):
        part = TensorPartition(knots=(np.array([0.0, 0.1, 1.0]),))
        stats = part.mesh_stats()
        assert stats["h_max"] == pytest.approx(0.9)
        assert stats["h_min"] == pytest.approx(0.1)
        assert stats["quasi_uniformity"] == pytest.approx(9.0)

    def test_nonincreasing_knots_rejected(self):
        with pytest.raises(DegenerateData):
            TensorPartition(knots=(np.array([0.0, 0.5, 0.5, 1.0]),))

    @settings(max_examples=50, deadline=None)
    @given(
        kappa=st.integers(min_value=1, max_value=12),
        frac=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_locate_bracket_property(self, kappa, frac):
        part = TensorPartition.build(KnotRule.EVEN, [[-1, 2]], kappa)
        x = -1.0 + 3.0 * frac
        c = int(part.locate([[x]])[0, 0])
        k = part.knots[0]
        assert k[c] <= x
        if c < kappa - 1:
            assert x < k[c + 1]
        else:
            assert x <= k[c + 1]
