"""Shape tests for the regenerated paper figures (the repro contract).

These tests pin the qualitative content of every figure — who wins, where
signs flip, which way curves bend — which is what "reproducing" an
analytical paper's plots means.
"""

import numpy as np
import pytest

from repro.experiments import get_experiment


@pytest.fixture(scope="module")
def fig1():
    return get_experiment("fig1").run(fast=True)


@pytest.fixture(scope="module")
def fig2():
    return get_experiment("fig2").run(fast=True)


@pytest.fixture(scope="module")
def fig3():
    return get_experiment("fig3").run(fast=True)


class TestFigure1:
    def test_two_panels_nine_curves(self, fig1):
        assert len(fig1.sweeps) == 2
        for sweep in fig1.sweeps:
            assert len(sweep) == 9

    def test_threshold_decreases_with_bandwidth(self, fig1):
        sweep = fig1.sweeps[0]
        at_s5 = [sweep.get(f"b = {b:g}").y_at(5.0) for b in
                 (50, 100, 150, 200, 250, 300, 350, 400, 450)]
        assert at_s5 == sorted(at_s5, reverse=True)

    def test_linear_in_s(self, fig1):
        for sweep in fig1.sweeps:
            for series in sweep:
                slopes = np.diff(series.y) / np.diff(series.x)
                assert np.allclose(slopes, slopes[0])

    def test_h03_panel_scaled_by_fault_ratio(self, fig1):
        p0, p3 = fig1.sweeps
        for b in (50, 250, 450):
            assert p3.get(f"b = {b:g}").y_at(5.0) == pytest.approx(
                0.7 * p0.get(f"b = {b:g}").y_at(5.0)
            )

    def test_paper_anchor_value(self, fig1):
        # h'=0, b=50, s=1: p_th = 30/50 = 0.6 (the Figure 2 operating point)
        assert abs(fig1.sweeps[0].get("b = 50").y_at(1.0) - 0.6) < 1e-12


class TestFigure2:
    def test_two_panels_nine_curves(self, fig2):
        assert len(fig2.sweeps) == 2
        for sweep in fig2.sweeps:
            assert len(sweep) == 9

    def test_sign_constancy_per_curve(self, fig2):
        """Each curve is consistently positive, negative or zero (paper)."""
        for sweep, h_prime in zip(fig2.sweeps, (0.0, 0.3)):
            p_th = 0.6 * (1 - h_prime)
            for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
                y = sweep.get(f"p = {p:g}").finite().y
                interior = y[np.abs(y) > 1e-15]
                if abs(p - p_th) < 1e-9:
                    assert interior.size == 0
                elif p > p_th:
                    assert np.all(interior > 0)
                else:
                    assert np.all(interior < 0)

    def test_monotone_curves(self, fig2):
        for sweep, h_prime in zip(fig2.sweeps, (0.0, 0.3)):
            p_th = 0.6 * (1 - h_prime)
            for p in (0.1, 0.9):
                series = sweep.get(f"p = {p:g}").finite()
                assert series.is_monotone(increasing=(p > p_th))

    def test_unstable_region_blank(self, fig2):
        # h'=0, p=0.1: stability ends at n(F) = 20/27 ~ 0.74
        series = fig2.sweeps[0].get("p = 0.1")
        assert np.isnan(series.y_at(2.0))
        assert np.isfinite(series.y_at(0.5))

    def test_notes_capture_sign_pattern(self, fig2):
        assert any("p_th=0.600" in n for n in fig2.notes)


class TestFigure3:
    def test_costs_nonnegative_everywhere(self, fig3):
        for sweep in fig3.sweeps:
            for series in sweep:
                finite = series.finite().y
                assert np.all(finite >= -1e-15)

    def test_cost_increases_with_n_f(self, fig3):
        for sweep in fig3.sweeps:
            for p in (0.3, 0.6, 0.9):
                assert sweep.get(f"p = {p:g}").finite().is_monotone(
                    increasing=True
                )

    def test_low_p_costs_more(self, fig3):
        sweep = fig3.sweeps[0]
        assert sweep.get("p = 0.1").y_at(0.4) > sweep.get("p = 0.9").y_at(0.4)

    def test_zero_prefetch_zero_cost(self, fig3):
        for sweep in fig3.sweeps:
            for series in sweep:
                assert series.y_at(0.0) == pytest.approx(0.0)


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3"])
def test_figure_reports_render_with_plots(figure, request):
    result = request.getfixturevalue(figure)
    text = result.render(plots=True)
    assert text.startswith(f"=== {result.experiment_id}:")


class TestClaimExperiments:
    def test_threshold_claims_no_violations(self):
        result = get_experiment("threshold-claims").run(fast=True)
        name, headers, rows = result.tables[0]
        for row in rows:
            # columns: model, p_th, points, sign-viol, stab-viol, mono-viol
            assert row[3] == 0 and row[4] == 0 and row[5] == 0, row

    def test_threshold_rule_near_optimal(self):
        result = get_experiment("threshold-claims").run(fast=True)
        _, _, rows = result.tables[1]
        agree, trials, max_gap = rows[0]
        assert agree >= 0.9 * trials
        assert max_gap < 1e-3

    def test_model_compare_gap_bounded(self):
        result = get_experiment("model-compare").run(fast=True)
        _, _, rows = result.tables[0]
        for n_c, _pa, _pb, gap, bound in rows:
            assert 0 <= gap <= bound + 1e-15

    def test_model_compare_bracketing_note(self):
        result = get_experiment("model-compare").run(fast=True)
        assert any("bracketing holds for all alpha: True" in n for n in result.notes)

    def test_render_produces_report(self):
        result = get_experiment("model-compare").run(fast=True)
        text = result.render(plots=False)
        assert "model-compare" in text and "threshold gap" in text
