"""Tests for model A (eqs. 7-14) against hand-derived values."""

import math

import numpy as np
import pytest

from repro.core.model_a import ModelA, improvement, threshold
from repro.core.parameters import SystemParameters


class TestHitRatio:
    def test_eq7(self, paper_params_h03):
        m = ModelA(paper_params_h03)
        assert m.hit_ratio(0.5, 0.8) == pytest.approx(0.3 + 0.4)

    def test_no_prefetch_degenerates(self, paper_params_h03):
        m = ModelA(paper_params_h03)
        assert m.hit_ratio(0.0, 0.9) == pytest.approx(0.3)


class TestThreshold:
    def test_eq13_is_rho_prime(self, paper_params, paper_params_h03):
        assert threshold(paper_params) == pytest.approx(0.6)
        assert threshold(paper_params_h03) == pytest.approx(0.42)
        assert ModelA(paper_params).threshold() == paper_params.base_utilization


class TestUtilizationChain:
    def test_eq8(self, paper_params_h03):
        m = ModelA(paper_params_h03)
        # h = 0.7; rho = (1-0.7+0.5)*30/50
        assert m.utilization(0.5, 0.8) == pytest.approx(0.8 * 30 / 50)

    def test_eq9(self, paper_params_h03):
        m = ModelA(paper_params_h03)
        rho = m.utilization(0.5, 0.8)
        assert m.retrieval_time(0.5, 0.8) == pytest.approx(1.0 / (50 * (1 - rho)))

    def test_eq10_closed_form(self, paper_params_h03):
        m = ModelA(paper_params_h03)
        # t = (f' - nF p)s / (b - f' lam s - nF (1-p) lam s)
        expected = (0.7 - 0.4) / (50 - 21 - 0.5 * 0.2 * 30)
        assert m.access_time(0.5, 0.8) == pytest.approx(expected)


class TestImprovement:
    def test_eq11_hand_value(self, paper_params):
        # h'=0: G = nF s (p b - lam s) / ((b - lam s)(b - lam s - nF(1-p) lam s))
        g = improvement(paper_params, 1.0, 0.9)
        expected = 1.0 * (0.9 * 50 - 30) / ((50 - 30) * (50 - 30 - 1.0 * 0.1 * 30))
        assert g == pytest.approx(expected)

    def test_closed_form_matches_generic(self, paper_params_h03):
        m = ModelA(paper_params_h03)
        n_f = np.linspace(0.0, 1.5, 13)
        for p in (0.1, 0.42, 0.6, 0.9):
            closed = np.asarray(m.improvement_closed_form(n_f, p))
            generic = np.asarray(m.improvement(n_f, p))
            assert np.allclose(closed, generic, equal_nan=True, atol=1e-12)

    def test_sign_is_threshold_sign(self, paper_params):
        m = ModelA(paper_params)
        assert m.improvement_closed_form(0.5, 0.7) > 0  # p > 0.6
        assert m.improvement_closed_form(0.5, 0.5) < 0  # p < 0.6
        assert m.improvement_closed_form(0.5, 0.6) == pytest.approx(0.0)  # p = p_th

    def test_zero_prefetch_zero_improvement(self, paper_params):
        assert ModelA(paper_params).improvement_closed_form(0.0, 0.9) == 0.0

    def test_figure2_flat_curve_at_threshold(self, paper_params):
        m = ModelA(paper_params)
        n_f = np.linspace(0.0, 1.0, 21)
        g = np.asarray(m.improvement_closed_form(n_f, 0.6))
        finite = g[np.isfinite(g)]
        assert np.allclose(finite, 0.0, atol=1e-12)

    def test_unstable_region_is_nan(self, paper_params):
        m = ModelA(paper_params)
        # p=0.1, nF=1: denominator factor 20 - 27 < 0
        assert math.isnan(float(np.asarray(m.improvement_closed_form(1.0, 0.1))))


class TestLimits:
    def test_max_np_eq6(self, paper_params_h03):
        m = ModelA(paper_params_h03)
        assert m.max_np(0.35) == pytest.approx(2.0)

    def test_n_f_limit_condition3(self, paper_params):
        m = ModelA(paper_params)
        # (b - f' lam s)/((1-p) lam s) = 20/(0.5*30)
        assert m.n_f_limit(0.5) == pytest.approx(20.0 / 15.0)

    def test_n_f_limit_infinite_at_p1(self, paper_params):
        assert ModelA(paper_params).n_f_limit(1.0) == math.inf

    def test_feasible_region(self, paper_params_h03):
        m = ModelA(paper_params_h03)
        assert m.feasible(1.0, 0.5)          # max_np = 1.4
        assert not m.feasible(2.0, 0.5)      # above cap
        assert not m.feasible(-0.1, 0.5)
        assert not m.feasible(0.5, 0.0)

    def test_redundancy_of_condition3(self, paper_params_h03):
        """Paper eq. (14): within feasibility, profitable => stable."""
        m = ModelA(paper_params_h03)
        p_th = m.threshold()
        for p in np.linspace(p_th + 0.01, 0.99, 20):
            cap = float(m.max_np(p))
            rho = np.asarray(m.utilization(np.linspace(0, cap, 15), p))
            assert np.all(rho < 1.0 + 1e-12)


class TestConditions:
    def test_conditions_object(self, paper_params):
        m = ModelA(paper_params)
        cond = m.conditions(0.5, 0.9)
        assert cond.profitable and cond.demand_stable and cond.prefetch_stable

    def test_conditions_vectorised(self, paper_params):
        m = ModelA(paper_params)
        cond = m.conditions(np.array([0.1, 0.5]), np.array([0.9, 0.1]))
        assert cond.profitable.tolist() == [True, False]
