"""The small numeric kernels, each against hand-evaluated values: softmax
and layer norm (`autograd`), the closed forms of `frechet_distance`
(`evalsuite`), and `linear_interp` (`tbalign`)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vem.autograd import Var
from vem.evalsuite import frechet_distance
from vem.rng import Rng
from vem.tbalign import linear_interp


def softmax(x):
    return Var(x).softmax().data


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
        np.testing.assert_allclose(softmax(x).sum(axis=1), np.ones(4),
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
        # time-major: axis 0 is resampled, each column independently
        x = np.array([[0.0, 10.0], [2.0, 30.0]])
        y = linear_interp(x, 3)
        np.testing.assert_allclose(y, [[0.0, 10.0], [1.0, 20.0], [2.0, 30.0]])

    def test_length_one_broadcasts_rows(self):
        np.testing.assert_allclose(linear_interp(np.array([[1.0, 2.0]]), 3),
                                   [[1.0, 2.0]] * 3)

    def test_length_one_broadcasts(self):
        np.testing.assert_allclose(linear_interp(np.array([7.0]), 4),
                                   [7.0, 7.0, 7.0, 7.0])


class TestFrechetGaussian:
    """`frechet_distance` on sample sets whose mean and `np.cov` are exact,
    so its Gaussian fits are the closed-form ones."""

    # mean (0, 0) and covariance 0.5 * I, exactly (np.cov divides by 4)
    PLUS = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]])

    def test_identical_inputs_zero(self):
        assert frechet_distance(self.PLUS, self.PLUS.copy()) == 0.0

    def test_mean_shift_only(self):
        d = frechet_distance(self.PLUS, self.PLUS + np.array([3.0, 4.0]))
        assert d == pytest.approx(25.0, rel=1e-12)

    def test_univariate_closed_form(self):
        # variances 2 and 8, equal means: (sqrt(2) - sqrt(8))^2 = 2, less
        # about 5e-7 for the 1e-6 ridge
        d = frechet_distance(np.array([[-1.0], [1.0]]), np.array([[-2.0], [2.0]]))
        assert d == pytest.approx(2.0, abs=1e-6)
