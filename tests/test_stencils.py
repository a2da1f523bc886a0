"""Unit tests for the non-uniform time-difference operators."""

import numpy as np
import pytest

from wavest.stencils import (LemmaCoefficients, bar_average, eta3_increments,
                             eta5_increments, fourth_diff, hat_second_diff, hat_times,
                             lemma_coefficients, quadratic_reconstruction, second_diff)

RNG = np.random.default_rng(20240817)


def random_steps(n, ratio=2.0):
    """n positive steps with consecutive ratios bounded by `ratio`."""
    steps = [RNG.uniform(0.5, 1.0)]
    for _ in range(n - 1):
        lo = max(steps[-1] / ratio, 0.05)
        hi = min(steps[-1] * ratio, 4.0)
        steps.append(RNG.uniform(lo, hi))
    return np.array(steps)


class TestSecondDiff:
    def test_affine_sequence_annihilated(self):
        assert second_diff([0.0, 1.0, 2.0], [1.0, 1.0]) == 0.0

    def test_quadratic_gives_two_any_steps(self):
        for _ in range(20):
            tau = random_steps(2)
            t = np.array([0.0, tau[0], tau[0] + tau[1]])
            assert second_diff(t ** 2, tau) == pytest.approx(2.0, rel=1e-12)

    def test_hand_value(self):
        assert second_diff([1.0, 0.0, 1.0], [1.0, 1.0]) == pytest.approx(2.0)

    def test_rejects_short_window(self):
        with pytest.raises(ValueError):
            second_diff([1.0, 2.0], [1.0])

    def test_trajectory_views_match_windows(self):
        # array steps: shifted views evaluate every interior node at once,
        # bit for bit as the per-window calls do
        t = np.concatenate(([0.0], np.cumsum(random_steps(12, ratio=10.0))))
        tau = np.diff(t)
        w = RNG.normal(size=13)
        d2 = second_diff((w[:-2], w[1:-1], w[2:]), (tau[:-1], tau[1:]))
        loop = [second_diff(w[k - 1:k + 2], tau[k - 1:k + 1]) for k in range(1, 12)]
        np.testing.assert_array_equal(d2, loop)
        that = hat_times(t)
        d4 = hat_second_diff((d2[:-2], d2[1:-1], d2[2:]), (that[:-2], that[1:-1], that[2:]))
        np.testing.assert_array_equal(d4, [fourth_diff(w[k:k + 5], t[k:k + 5])
                                           for k in range(9)])
        tau[5] = 0.0
        with pytest.raises(ValueError):
            second_diff((w[:-2], w[1:-1], w[2:]), (tau[:-1], tau[1:]))


class TestBarAverage:
    def test_constant(self):
        assert bar_average([3.0, 3.0, 3.0], [0.3, 0.7]) == pytest.approx(3.0)

    def test_uniform_reduces_to_quarter_weights(self):
        w = np.array([1.0, 2.0, 5.0])
        assert bar_average(w, [1.0, 1.0]) == pytest.approx((w[2] + 2 * w[1] + w[0]) / 4)

    def test_half_square_identity(self):
        # for s = t^2/2 the average equals that^2/2 + (tau_n^2 + tau_{n-1}^2)/8
        for _ in range(10):
            tau = random_steps(2)
            t = np.array([0.0, tau[0], tau[0] + tau[1]])
            that = (t[2] + t[0]) / 2
            expected = that ** 2 / 2 + (tau[1] ** 2 + tau[0] ** 2) / 8
            assert bar_average(t ** 2 / 2, tau) == pytest.approx(expected, rel=1e-13)


class TestHatSecondDiff:
    def test_affine_in_staggered_time(self):
        that = np.array([0.2, 0.5, 1.1])
        vals = 3.0 * that + 1.0
        assert hat_second_diff(vals, that) == pytest.approx(0.0, abs=1e-13)

    def test_uniform_matches_plain_stencil(self):
        tau = 0.25
        t = np.arange(5) * tau
        w = np.array([0.3, -1.2, 0.7, 2.0, -0.5])
        got = hat_second_diff(w[1:4], hat_times(t)[0:3])
        assert got == pytest.approx((w[3] - 2 * w[2] + w[1]) / tau ** 2, rel=1e-12)

    def test_bar_of_half_square_closed_form(self):
        # staggered second difference of bar(t^2/2) equals
        # 1 + (tau3 - tau2 - tau1 + tau0) / (tau3 + tau2 + tau1 + tau0)
        for _ in range(20):
            tau = random_steps(4)
            t = np.concatenate(([0.0], np.cumsum(tau)))
            s = t ** 2 / 2
            bars = [bar_average(s[k - 1:k + 2], tau[k - 1:k + 1]) for k in (1, 2, 3)]
            got = hat_second_diff(bars, hat_times(t))
            expected = 1.0 + (tau[3] - tau[2] - tau[1] + tau[0]) / tau.sum()
            assert got == pytest.approx(expected, rel=1e-12)


class TestFourthDiff:
    def test_uniform_stencil_coefficients(self):
        tau = 0.2
        t = np.arange(5) * tau
        for i in range(5):
            w = np.zeros(5)
            w[i] = 1.0
            expected = np.array([1.0, -4.0, 6.0, -4.0, 1.0])[i] / tau ** 4
            assert fourth_diff(w, t) == pytest.approx(expected, rel=1e-12)

    def test_annihilates_cubics_on_uniform_grids(self):
        t = np.arange(5) * 0.1
        w = t ** 3 - 2 * t ** 2 + 4 * t - 1
        scale = np.abs(w).max() / 0.1 ** 4
        assert abs(fourth_diff(w, t)) <= 1e-10 * scale

    def test_quartic_gives_24_on_uniform_grids(self):
        for tau in (0.5, 0.1, 0.037):
            t = np.arange(5) * tau
            assert fourth_diff(t ** 4, t) == pytest.approx(24.0, rel=1e-9)

    def test_acts_on_arrays(self):
        t = np.arange(5) * 0.3
        w = [np.full(4, tk ** 4) for tk in t]
        np.testing.assert_allclose(fourth_diff(w, t), np.full(4, 24.0), rtol=1e-9)


class TestIncrements:
    def test_layout_and_loop_oracle(self):
        # a loop over the weights of the paper: tau_0 (5/12 tau_0^2 + tau_1 tau_0 / 2)
        # on the t_1 payload, then tau_k (tau_k^2 / 12 + tau_{k-1} tau_k / 8)
        tau = random_steps(9)
        p3, p5 = RNG.uniform(size=8), RNG.uniform(size=6)
        inc3, inc5 = eta3_increments(tau, p3), eta5_increments(tau, p5)
        assert (len(inc3), len(inc5)) == (9, 6)
        assert inc3[0] == pytest.approx(
            tau[0] * (5 * tau[0] ** 2 / 12 + tau[1] * tau[0] / 2) * p3[0], rel=1e-15)
        for k in range(1, 9):
            w = tau[k] * (tau[k] ** 2 / 12 + tau[k - 1] * tau[k] / 8)
            assert inc3[k] == pytest.approx(w * p3[k - 1], rel=1e-15)
            if k >= 3:
                assert inc5[k - 3] == pytest.approx(w * p5[k - 3], rel=1e-15)

    @pytest.mark.parametrize("n_steps, n3, n5", [(1, 0, 0), (3, 2, 0), (5, 3, 2), (5, 4, 1)])
    def test_rejects_short_grids_and_wrong_payload_counts(self, n_steps, n3, n5):
        tau = np.full(n_steps, 0.1)
        if n_steps < 2 or n3 != n_steps - 1:
            with pytest.raises(ValueError, match="3-point"):
                eta3_increments(tau, np.ones(n3))
        if n_steps < 4 or n5 != n_steps - 3:
            with pytest.raises(ValueError, match="5-point"):
                eta5_increments(tau, np.ones(n5))


class TestLemmaCoefficients:
    def test_uniform_alpha(self):
        co = lemma_coefficients([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(co.alpha, [0.25, 0.5, 0.25], atol=1e-13)
        assert co.sum_alpha == pytest.approx(1.0, abs=1e-13)

    def test_sum_alpha_closed_form(self):
        for _ in range(50):
            tau = random_steps(4)
            co = lemma_coefficients(tau)
            expected = 1.0 + (tau[3] - tau[2] - tau[1] + tau[0]) / tau.sum()
            assert co.sum_alpha == pytest.approx(expected, rel=1e-12)

    def test_alpha_identity_alternating_steps(self):
        # identity hat_d2(bar w) = sum alpha_k d2_k w on alternating steps
        taustar = 0.8
        tau = np.array([taustar, 0.1 * taustar, taustar, 0.1 * taustar])
        t = np.concatenate(([0.0], np.cumsum(tau)))
        co = lemma_coefficients(tau)
        for _ in range(100):
            w = RNG.normal(size=5)
            bars = [bar_average(w[k - 1:k + 2], tau[k - 1:k + 1]) for k in (1, 2, 3)]
            lhs = hat_second_diff(bars, hat_times(t))
            rhs = sum(co.alpha[j] * second_diff(w[k - 1:k + 2], tau[k - 1:k + 1])
                      for j, k in enumerate((1, 2, 3)))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_beta_identity_on_coupled_windows(self):
        # with (w, s) coupled by the trapezoidal relation:
        # sum alpha_k d2_k w = sum_alpha d2_n w - tau_n sum beta_k d2_k s
        for _ in range(100):
            tau = random_steps(4)
            co = lemma_coefficients(tau)
            s = RNG.normal(size=5)
            w = np.empty(5)
            w[0] = RNG.normal()
            for k in range(4):
                w[k + 1] = w[k] + tau[k] * (s[k] + s[k + 1]) / 2
            d2w = [second_diff(w[k - 1:k + 2], tau[k - 1:k + 1]) for k in (1, 2, 3)]
            d2s = [second_diff(s[k - 1:k + 2], tau[k - 1:k + 1]) for k in (1, 2, 3)]
            lhs = sum(a * d for a, d in zip(co.alpha, d2w))
            rhs = co.sum_alpha * d2w[2] - tau[3] * sum(b * d for b, d in zip(co.beta, d2s))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) <= 1e-11 * scale

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            lemma_coefficients([1.0, -1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            lemma_coefficients([1.0, 1.0, 1.0])

    def test_returns_dataclass(self):
        co = lemma_coefficients([0.5, 1.0, 0.5, 1.0])
        assert isinstance(co, LemmaCoefficients)
        assert co.alpha.shape == (3,) and co.beta.shape == (3,)
        assert co.sum_alpha > 0


class TestQuadraticReconstruction:
    def test_interpolates_nodes(self):
        times = (0.0, 0.4, 1.0)
        values = (2.0, -1.0, 0.5)
        p = quadratic_reconstruction(times, values)
        for t, w in zip(times, values):
            assert p(t) == pytest.approx(w, abs=1e-14)

    def test_exact_on_quadratics(self):
        times = (0.1, 0.35, 0.9)
        p = quadratic_reconstruction(times, tuple(t ** 2 for t in times))
        for t in np.linspace(-0.5, 1.5, 21):
            assert p(t) == pytest.approx(t ** 2, abs=1e-13)

    def test_uniform_midpoint_formula(self):
        tau = 0.2
        times = (0.0, tau, 2 * tau)
        w = (0.7, -0.4, 1.9)
        p = quadratic_reconstruction(times, w)
        expected = (3 * w[2] + 6 * w[1] - w[0]) / 8
        assert p(1.5 * tau) == pytest.approx(expected, rel=1e-13)

    def test_works_on_arrays(self):
        times = (0.0, 0.5, 1.0)
        values = tuple(np.array([t, 2 * t]) for t in times)
        p = quadratic_reconstruction(times, values)
        np.testing.assert_allclose(p(0.25), [0.25, 0.5], atol=1e-14)

    def test_rejects_coincident_times(self):
        with pytest.raises(ValueError):
            quadratic_reconstruction((0.0, 0.0, 1.0), (1.0, 2.0, 3.0))
