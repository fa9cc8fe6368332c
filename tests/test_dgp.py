"""Benchmark regression functions and sampling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lspart.dgp import dgp_dim, dgp_eval, dgp_sample
from lspart.errors import ConfigError, InvalidModel


class TestDims:
    def test_table(self):
        assert [dgp_dim(k) for k in range(1, 8)] == [1, 1, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("bad", [0, 8, -1, "x", None, 2.5])
    def test_invalid_ids(self, bad):
        with pytest.raises(InvalidModel):
            dgp_dim(bad)

    def test_float_integral_id_ok(self):
        assert dgp_dim(3.0) == 1


class TestEval:
    def test_model1_values(self):
        # odd numerator at the midpoint; the damping factor only acts on
        # the right half
        assert dgp_eval(1, [0.5])[0] == pytest.approx(0.0, abs=1e-15)
        assert dgp_eval(1, [1.0])[0] == pytest.approx(0.2)
        assert dgp_eval(1, [0.0])[0] == pytest.approx(-1.0)

    def test_model2_values(self):
        assert dgp_eval(2, [0.5])[0] == pytest.approx(0.0, abs=1e-15)
        assert dgp_eval(2, [1.0])[0] == pytest.approx(-1.0 / 37.0)

    def test_model3_bump(self):
        assert dgp_eval(3, [0.5])[0] == pytest.approx(5.0 / np.sqrt(2 * np.pi))
        # the bump is 10 sds away at the endpoints
        assert dgp_eval(3, [0.0])[0] == pytest.approx(-1.0, abs=1e-15)
        assert dgp_eval(3, [1.0])[0] == pytest.approx(1.0, abs=1e-15)

    def test_model4_zero_line(self):
        pts = np.column_stack([np.zeros(5), np.linspace(0, 1, 5)])
        assert_allclose(dgp_eval(4, pts), 0.0)

    def test_model5_envelope(self):
        assert dgp_eval(5, [[0.5, 0.3]])[0] == pytest.approx(np.sin(1.5) / 5)
        assert dgp_eval(5, [[0.0, 0.3]])[0] == pytest.approx(9 * np.sin(1.5) / 5)

    def test_model6_odd_factors(self):
        assert dgp_eval(6, [[0.3, 0.5, 0.9]])[0] == pytest.approx(0.0, abs=1e-15)
        assert dgp_eval(6, [[0.3, 0.9, 0.5]])[0] == pytest.approx(0.0, abs=1e-15)

    def test_model7_product(self):
        tau = lambda x: (
            (x - 0.5)
            + 8 * (x - 0.5) ** 2
            + 6 * (x - 0.5) ** 3
            - 30 * (x - 0.5) ** 4
            - 30 * (x - 0.5) ** 5
        )
        got = dgp_eval(7, [[0.2, 0.7, 0.9]])[0]
        assert got == pytest.approx(tau(0.2) * tau(0.7) * tau(0.9))
        assert dgp_eval(7, [[0.5, 0.1, 0.1]])[0] == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidModel):
            dgp_eval(4, [[0.5]])
        with pytest.raises(InvalidModel):
            dgp_eval(1, [[0.5, 0.5]])

    def test_single_point_shape(self):
        out = dgp_eval(1, [0.25])
        assert out.shape == (1,)


class TestSample:
    def test_shapes_and_support(self):
        X, y = dgp_sample(6, 200, seed=0)
        assert X.shape == (200, 3)
        assert y.shape == (200,)
        assert X.min() >= 0.0 and X.max() < 1.0

    def test_integer_seed_reproducible(self):
        Xa, ya = dgp_sample(1, 50, seed=123)
        Xb, yb = dgp_sample(1, 50, seed=123)
        assert_allclose(Xa, Xb)
        assert_allclose(ya, yb)

    def test_sequence_seed_stream(self):
        Xa, ya = dgp_sample(1, 50, seed=(9, 4))
        Xb, yb = dgp_sample(1, 50, seed=[9, 4])
        Xc, _ = dgp_sample(1, 50, seed=(9, 5))
        assert_allclose(Xa, Xb)
        assert_allclose(ya, yb)
        assert not np.allclose(Xa, Xc)

    def test_generator_seed(self):
        Xa, ya = dgp_sample(2, 40, seed=np.random.default_rng(7))
        Xb, yb = dgp_sample(2, 40, seed=np.random.default_rng(7))
        assert_allclose(Xa, Xb)
        assert_allclose(ya, yb)

    @pytest.mark.parametrize("seed", [123, (9, 4), [9, 4], np.array([9, 4])])
    def test_seed_streams_are_numpy_streams(self, seed):
        rng = np.random.default_rng(seed)
        X, y = dgp_sample(1, 30, seed=seed)
        assert np.array_equal(X, rng.random((30, 1)))
        assert np.array_equal(y, dgp_eval(1, X) + rng.standard_normal(30))

    @pytest.mark.parametrize("seed", [-1, 2.5, "abc", [1, -2], None])
    def test_bad_seed_is_config_error(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            dgp_sample(1, 10, seed=seed)

    def test_noise_is_unit_normal(self):
        X, y = dgp_sample(1, 60000, seed=31)
        eps = y - dgp_eval(1, X)
        assert np.mean(eps) == pytest.approx(0.0, abs=0.02)
        assert np.std(eps) == pytest.approx(1.0, abs=0.02)

    def test_bad_n(self):
        with pytest.raises(InvalidModel):
            dgp_sample(1, 0, seed=0)
