import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vem.autograd import Var
from vem.numcore import frechet_gaussian, linear_interp, sqrtm_psd
from vem.rng import Rng


def softmax(x, axis=-1):
    return Var(x).softmax(axis=axis).data


def layer_norm(x):
    n = np.shape(x)[-1]
    return Var(x).layer_norm(np.ones(n), np.zeros(n)).data


class TestSoftmax:
    def test_uniform_on_equal_inputs(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3))

    def test_known_values(self):
        np.testing.assert_allclose(
            softmax(np.array([1.0, 2.0, 3.0])),
            [0.0900, 0.2447, 0.6652], atol=5e-5)

    def test_large_inputs_stable(self):
        out = softmax(np.array([1000.0, 0.0, 0.0]))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0], atol=1e-6)

    def test_rows_sum_to_one_along_axis(self):
        x = Rng(1).gaussian((4, 7)).astype(np.float64)
        np.testing.assert_allclose(softmax(x, axis=1).sum(axis=1), np.ones(4),
                                   atol=1e-6)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, xs, c):
        x = np.array(xs)
        np.testing.assert_allclose(softmax(x + c), softmax(x), atol=1e-6)


class TestLayerNorm:
    def test_zero_mean_unit_var(self):
        x = Rng(2).gaussian((6, 9)).astype(np.float64) * 3 + 5
        y = layer_norm(x)
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-3)

    def test_constant_row_maps_to_zero(self):
        y = layer_norm(np.full((2, 4), 3.0))
        np.testing.assert_allclose(y, 0.0, atol=1e-6)


class TestSqrtmPsd:
    def test_identity(self):
        np.testing.assert_allclose(sqrtm_psd(np.eye(3)), np.eye(3), atol=1e-8)

    def test_diagonal(self):
        np.testing.assert_allclose(sqrtm_psd(np.diag([4.0, 9.0])),
                                   np.diag([2.0, 3.0]), atol=1e-8)

    def test_reconstruction_random_psd(self):
        rng = Rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 17, 1)[0])
            b = rng.gaussian((n, n)).astype(np.float64)
            a = b @ b.T
            s = sqrtm_psd(a)
            err = np.linalg.norm(s @ s - a) / max(np.linalg.norm(a), 1e-12)
            assert err < 1e-5

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            sqrtm_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestLinearInterp:
    def test_midpoint(self):
        np.testing.assert_allclose(linear_interp(np.array([0.0, 1.0]), 3),
                                   [0.0, 0.5, 1.0])

    def test_identity_same_length(self):
        x = np.array([3.0, 1.0, 4.0, 1.0])
        np.testing.assert_allclose(linear_interp(x, 4), x)

    def test_hand_evaluated_upsample(self):
        np.testing.assert_allclose(linear_interp(np.array([0.0, 2.0, 4.0]), 5),
                                   [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_endpoints_preserved_on_downsample(self):
        x = np.array([5.0, 1.0, 2.0, 8.0, -3.0])
        y = linear_interp(x, 2)
        np.testing.assert_allclose(y, [5.0, -3.0])

    def test_two_dimensional_rows_interpolated(self):
        x = np.array([[0.0, 2.0], [10.0, 30.0]])
        y = linear_interp(x, 3)
        np.testing.assert_allclose(y, [[0.0, 1.0, 2.0], [10.0, 20.0, 30.0]])

    def test_length_one_broadcasts(self):
        np.testing.assert_allclose(linear_interp(np.array([7.0]), 4),
                                   [7.0, 7.0, 7.0, 7.0])


class TestFrechetGaussian:
    def test_identical_inputs_zero(self):
        mu = np.array([1.0, 2.0])
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert frechet_gaussian(mu, cov, mu, cov) == pytest.approx(0.0, abs=1e-6)

    def test_mean_shift_only(self):
        cov = np.eye(2)
        d = frechet_gaussian(np.zeros(2), cov, np.array([3.0, 4.0]), cov)
        assert d == pytest.approx(25.0, abs=1e-4)

    def test_univariate_closed_form(self):
        # (mu diff)^2 + (sigma diff)^2 in one dimension
        d = frechet_gaussian(np.array([0.0]), np.array([[1.0]]),
                             np.array([0.0]), np.array([[4.0]]))
        assert d == pytest.approx(1.0, abs=1e-4)
