"""Tests of the test-only oracles in oracles.py, which no package code runs."""

import pytest

import oracles


class TestContourMoment:
    """The contour moments behind `oracles.contour_hankel`, the exact
    rational route the Gram route is checked against."""

    def test_pure_gaussian(self):
        params = (1, 0, 0.7)
        assert oracles.contour_moment(*params, 0) == 1
        with pytest.warns(UserWarning):
            assert oracles.contour_moment(*params, 1) == 0

    def test_origin_weight_is_kronecker(self):
        params = (3, 2, 0.0)
        for k in range(5):
            assert oracles.contour_moment(*params, k) == (1 if k == 2 else 0)

    def test_zero_beyond_residue_degree(self):
        # m < N: p = m+N-1-k < 0 for k >= m+N, and the residue vanishes
        params = (16, 9, 0.3)
        got = [oracles.fraction_moment(*params, k) for k in range(32)]
        assert all(got[:25])
        assert not any(got[25:])
        for k in (25, 31):
            with pytest.warns(UserWarning):
                assert oracles.contour_moment(*params, k) == 0
