import re
from dataclasses import replace

import numpy as np
import pytest

from circulant_qft import _kernels, svg
from circulant_qft.circulant import circulant_eigenvalues
from circulant_qft.errors import PhysicsError
from circulant_qft.linalg import CLUSTER_GAP_RTOL, frobenius
from circulant_qft.models import build_four_level
from circulant_qft.schedule import (
    FORWARD,
    INVERSE,
    Schedule,
    SechMaskedPair,
    TanhPair,
    adiabaticity_report,
    eigen_trajectories,
)


class TestPulses:
    def test_tanh_midpoint(self):
        f, g = TanhPair(T=2.0).values(0.0)
        assert f == 0.5 and g == 0.5

    def test_tanh_sums_to_one(self):
        pair = TanhPair(T=0.7)
        t = np.linspace(-10, 10, 101)
        f, g = pair.values(t)
        assert np.all(f + g == 1.0)

    def test_sech_masked_midpoint(self):
        f, g = SechMaskedPair(T=3.0, tau=0.5).values(0.0)
        assert f == 1.0 and g == 1.0

    def test_ratio_at_three_crossing_times(self):
        # (1 + tanh 3) / (1 - tanh 3) = e^6
        T = 1.4
        f, g = TanhPair(T=T).values(3 * T)
        assert np.isclose(g / f, np.e**6, rtol=1e-12)

    @pytest.mark.parametrize("pair", [TanhPair(T=1.2), SechMaskedPair(T=1.2, tau=0.8)])
    def test_ratio_is_exponential_and_monotone(self, pair):
        t = np.linspace(-4, 4, 81)
        f, g = pair.values(t)
        ratio = g / f
        assert np.allclose(ratio, np.exp(2 * t / 1.2), rtol=1e-10)
        assert np.all(np.diff(ratio) > 0)

    # final_propagators derives the other direction from f(-t) = g(t); it
    # must hold bit for bit, at t = 0, in the tails and where t/T and
    # t/tau overflow
    @pytest.mark.parametrize("pair", [TanhPair(T=0.7),
                                      SechMaskedPair(T=0.7, tau=1.3),
                                      SechMaskedPair(T=1e-300, tau=1e300),
                                      TanhPair(T=5e-324)])
    def test_values_mirror_into_each_other_exactly(self, pair):
        t = np.concatenate([[0.0, 5e-324, 1e-300, 1e300, 1.7e308],
                            np.linspace(0.01, 800.0, 2001)])
        t = np.concatenate([t, -t])
        bits = lambda x: np.asarray(x).view(np.uint64)
        f, g = map(bits, pair.values(t))
        g_mirror, f_mirror = map(bits, pair.values(-t))
        assert np.array_equal(f, f_mirror) and np.array_equal(g, g_mirror)

    @pytest.mark.parametrize("pair", [TanhPair(T=0.7),
                                      SechMaskedPair(T=0.7, tau=1.3)])
    @pytest.mark.parametrize("x", [-6.0, -0.3, 0.0, 0.3, 6.0])
    def test_derivatives_match_central_difference(self, pair, x):
        # five-point stencil: its truncation and roundoff both stay near
        # 1e-8 relative here, the tanh tails at 6 T included
        t, h = x * pair.T, 1e-3 * pair.T
        f = [np.array(pair.values(t + k * h)) for k in (-2, -1, 1, 2)]
        difference = (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h)
        assert np.array(pair.derivatives(t)) == pytest.approx(difference,
                                                              rel=1e-7, abs=0)


class TestSchedule:
    def test_degenerate_h0_rejected(self, paper_model):
        _, h1 = paper_model
        h0 = np.diag(np.array([1.0, 1.0, 2.0, 3.0], dtype=complex))
        with pytest.raises(PhysicsError, match="pairwise distinct"):
            Schedule(pulses=TanhPair(T=1.0), h0=h0, h1=h1)

    def test_non_diagonal_h0_rejected(self, paper_model):
        h0, h1 = paper_model
        bad = h0.copy()
        bad[0, 1] = 0.1
        with pytest.raises(ValueError):
            Schedule(pulses=TanhPair(T=1.0), h0=bad, h1=h1)

    def test_non_circulant_h1_rejected(self, paper_model):
        # the structure rule is relative: at a norm far below 1, H1 is no
        # more circulant than at norm 1
        h0, h1 = paper_model
        bad = h1.copy()
        bad[0, 1] *= 2
        bad[1, 0] = np.conj(bad[0, 1])
        for scale in (1.0, 1e-13):
            with pytest.raises(ValueError, match="not circulant"):
                Schedule(pulses=TanhPair(T=1.0), h0=h0,
                         h1=scale * bad / frobenius(bad))

    def test_default_window_scales_with_crossing_time(self, paper_model):
        h0, h1 = paper_model
        s = Schedule(pulses=TanhPair(T=2.5), h0=h0, h1=h1)
        assert s.window == (-15.0, 15.0)

    @pytest.mark.parametrize("T, tau, half", [(1.0, 1.0, 6.0), (1.0, 2.0, 12.0),
                                              (2.5, 0.5, 15.0)])
    def test_default_window_covers_the_sech_mask(self, paper_model, T, tau,
                                                 half):
        h0, h1 = paper_model
        s = Schedule(pulses=SechMaskedPair(T=T, tau=tau), h0=h0, h1=h1)
        assert s.window == (-half, half)

    def test_forward_asymptotics(self, paper_schedule):
        s = paper_schedule
        t = s.window[0]
        f, g = s.pulses.values(t)
        a, b = s.coefficients(t)
        h = a * s.h0 + b * s.h1
        assert np.abs(h - f * s.h0).max() <= 1e-4 * np.abs(f * s.h0).max()
        t = s.window[1]
        f, g = s.pulses.values(t)
        a, b = s.coefficients(t)
        h = a * s.h0 + b * s.h1
        assert np.abs(h - g * s.h1).max() <= 1e-4 * np.abs(g * s.h1).max()

    def test_inverse_midpoint_is_average(self, paper_model):
        h0, h1 = paper_model
        s = Schedule(pulses=TanhPair(T=1.0), h0=h0, h1=h1, direction=INVERSE)
        a, b = s.coefficients(0.0)
        assert np.allclose(a * h0 + b * h1, (h0 + h1) / 2, atol=0)

    def test_forward_inverse_mirror_exactly(self, paper_model):
        # tanh is odd, so f(-t) = g(t) makes the mirror identity of the
        # coefficients of H0 and H1 exact
        h0, h1 = paper_model
        fwd = Schedule(pulses=TanhPair(T=1.3), h0=h0, h1=h1, direction=FORWARD)
        inv = Schedule(pulses=TanhPair(T=1.3), h0=h0, h1=h1, direction=INVERSE)
        t = np.linspace(-5, 5, 41)
        assert np.array_equal(np.array(fwd.coefficients(t)),
                              np.array(inv.coefficients(-t)))


class TestTrajectories:
    def test_asymptotic_values_at_four_crossing_times(self, paper_schedule):
        s = replace(paper_schedule, window=(-4.0, 4.0), steps=1600)
        _, energies = eigen_trajectories(s)
        f, _ = s.pulses.values(-4.0)
        expected = np.sort(f * np.diag(s.h0).real)
        assert np.abs(energies[0] / expected - 1).max() <= 0.01
        _, g = s.pulses.values(4.0)
        lam = np.sort(circulant_eigenvalues(s.h1[:, 0]).real)
        expected = np.sort(g * lam)
        assert np.abs(energies[-1] / expected - 1).max() <= 0.01

    def test_min_gap_positive_in_window(self, paper_schedule):
        _, energies = eigen_trajectories(replace(
            paper_schedule, window=(-4.0, 4.0), steps=1600))
        assert np.diff(energies, axis=1).min() > 0

    def test_no_coupling_gives_scaled_diagonal(self, paper_model):
        h0, _ = paper_model
        h1 = np.zeros_like(h0)
        s = Schedule(pulses=TanhPair(T=1.0), h0=h0, h1=h1, window=(-3.0, 3.0),
                     steps=6)
        _, energies = eigen_trajectories(s)
        f, _ = s.pulses.values(s.grid())
        expected = np.sort(f[:, None] * np.diag(h0).real[None, :], axis=1)
        assert np.allclose(energies, expected, atol=1e-12)

    @pytest.mark.parametrize("energy, steps", [(10.0, 4000), (13.7, 20000)],
                             ids=["paper", "dense_grid"])
    def test_eigenvalues_match_eigh(self, paper_pulses, energy, steps):
        h0, h1 = build_four_level(energy, energy * (1 + 1j / 3))
        s = Schedule(pulses=paper_pulses, h0=h0, h1=h1, steps=steps)
        times, energies = eigen_trajectories(s)
        assert np.array_equal(times, s.grid())
        a, b = s.coefficients(times)
        w, _ = np.linalg.eigh(a[:, None, None] * h0 + b[:, None, None] * h1)
        assert np.abs(energies - w).max() <= 1e-12 * np.abs(w).max()

    def test_solves_for_no_eigenvectors(self, monkeypatch, paper_schedule):
        calls = [0]
        eigh = np.linalg.eigh

        def counting(m):
            calls[0] += 1
            return eigh(m)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        _, energies = eigen_trajectories(paper_schedule)
        assert calls[0] == 0
        assert energies.shape == (paper_schedule.steps + 1, 4)

    def test_continuity_improves_with_grid_refinement(self, paper_schedule):
        jumps = []
        for m in (200, 400):
            _, energies = eigen_trajectories(replace(paper_schedule, steps=m))
            jumps.append(np.abs(np.diff(energies, axis=0)).max())
        assert jumps[1] <= 0.6 * jumps[0]


class TestAdiabaticity:
    def test_no_coupling_means_no_mixing(self, paper_model):
        h0, _ = paper_model
        s = Schedule(pulses=SechMaskedPair(T=1.0, tau=1.0), h0=h0,
                     h1=np.zeros_like(h0), steps=400)
        _, _, coupling_trace, margin, _ = adiabaticity_report(s)
        assert coupling_trace.max() == 0.0
        assert margin == np.inf

    def test_operating_point_is_adiabatic(self, paper_schedule):
        _, _, _, margin, _ = adiabaticity_report(replace(paper_schedule,
                                                         steps=2000))
        assert margin > 10

    def test_weak_system_is_diabatic(self):
        h0, h1 = build_four_level(0.1, 0.1 * (1 + 1j / 3))
        s = Schedule(pulses=SechMaskedPair(T=1.0, tau=1.0), h0=h0, h1=h1,
                     steps=2000)
        _, _, _, margin, _ = adiabaticity_report(s)
        assert margin < 1

    def test_degenerate_cluster_reports_timestamps(self):
        # two H0 levels split by 1e-12 stay below the cluster threshold
        # when nothing couples them; couplings within the pair are undefined
        h0 = np.diag(np.array([-1.0, -1.0 + 1e-12, 1 / 3, 1.0], dtype=complex))
        s = Schedule(pulses=TanhPair(T=1.0), h0=h0, h1=np.zeros_like(h0),
                     steps=800)
        times, m, n, gap = adiabaticity_report(s)[4]
        assert len(times)
        assert s.window[0] <= times[0] <= s.window[1]
        assert (m[0], n[0]) == (0, 1) and gap[0] <= 1e-12

    def test_exact_where_the_gauge_anchor_switches(self):
        # README model with tanh pulses.  At these rows an eigenvector's
        # largest-modulus component changes, and central differences of
        # eigenvectors gauge-fixed on it read 0.8314 and 0.8288
        h0, h1 = build_four_level(10.0, complex(10.0, 3.3333333333))
        times, _, coupling_trace, _, _ = adiabaticity_report(Schedule(
            pulses=TanhPair(T=1.0), h0=h0, h1=h1, steps=4000))
        rows = [1914, 1915]
        assert times[rows] == pytest.approx([-0.258, -0.255], rel=1e-12)
        assert coupling_trace[rows] == pytest.approx([0.8781, 0.8758],
                                                     rel=1e-3)

    @pytest.mark.parametrize("direction", [FORWARD, INVERSE])
    def test_matches_dense_finite_difference(self, paper_schedule, direction):
        # central differences at spacing h around every grid point, of
        # eigenvectors gauge-fixed on their largest-modulus component;
        # points where that anchor changes within the stencil are skipped.
        # The sech mask makes f' != -g', so a rate paired with the wrong
        # matrix changes the coupling.
        s = replace(paper_schedule, direction=direction, steps=400)
        h0, h1 = s.h0, s.h1
        coupling_trace = adiabaticity_report(s)[2]
        h = 1e-4
        a, b = s.coefficients(s.grid()[:, None] + np.array([-h, 0.0, h]))
        _, v = np.linalg.eigh(a[..., None, None] * h0 + b[..., None, None] * h1)
        anchor = np.abs(v).argmax(axis=-2)
        pivots = np.take_along_axis(v, anchor[..., None, :], axis=-2)
        v = v / (pivots / np.abs(pivots))
        dv = (v[:, 2] - v[:, 0]) / (2 * h)
        coupling = np.abs(np.conj(np.swapaxes(v[:, 1], 1, 2)) @ dv)
        coupling[:, np.eye(len(h0), dtype=bool)] = 0.0
        smooth = (anchor == anchor[:, 1:2]).all(axis=(1, 2))
        assert smooth.sum() > 0.9 * len(smooth)
        assert coupling_trace[smooth] == pytest.approx(
            coupling.max(axis=(1, 2))[smooth], rel=1e-6, abs=0)


def reference_report(s):
    """(gap_trace, coupling_trace, margin, degenerate) computed one grid
    point and one state pair at a time from |<m|dH/dt|n>| / |eps_n - eps_m|;
    degenerate lists (time, m, n, gap) per degenerate pair m < n.

    As in the scan, H0, H1 and the gaps are divided by the largest entry
    c first: the projection's roundoff is absolute, so the small couplings
    at the window's ends would otherwise differ by up to ~4e-11 relative.
    """
    t = s.grid()
    a, b = s.coefficients(t)
    da, db = s.rates(t)
    w, v = np.linalg.eigh(a[:, None, None] * s.h0 + b[:, None, None] * s.h1)
    c = max(np.abs(s.h0).max(), np.abs(s.h1).max())
    m_pts, n = w.shape
    gap_trace = np.array([np.diff(w[k]).min() for k in range(m_pts)])
    margin = np.inf
    coupling_trace = np.zeros(m_pts)
    degenerate = []
    for k in range(m_pts):
        projected = np.conj(v[k]).T @ (da[k] * (s.h0 / c)
                                       + db[k] * (s.h1 / c)) @ v[k]
        scale = frobenius(a[k] * s.h0 + b[k] * s.h1)
        threshold = CLUSTER_GAP_RTOL * max(scale, np.finfo(float).tiny)
        worst = 0.0
        for mm in range(n):
            for nn in range(n):
                if mm == nn:
                    continue
                gap = abs(w[k, mm] - w[k, nn])
                if gap <= threshold:
                    if mm < nn:
                        degenerate.append((float(t[k]), mm, nn, float(gap)))
                    continue
                coupling = abs(projected[mm, nn]) / (gap / c)
                worst = max(worst, coupling)
                if coupling > 0:
                    margin = min(margin, gap / coupling)
        coupling_trace[k] = worst
    return gap_trace, coupling_trace, margin, degenerate


def _weak_schedule(_, steps):
    h0, h1 = build_four_level(0.1, 0.1 * (1 + 1j / 3))
    return Schedule(pulses=SechMaskedPair(T=1.0, tau=1.0), h0=h0, h1=h1,
                    steps=steps)


def _uncoupled_schedule(paper_model, steps):
    h0, _ = paper_model
    return Schedule(pulses=SechMaskedPair(T=1.0, tau=1.0), h0=h0,
                    h1=np.zeros_like(h0), steps=steps)


def _clustered_schedule(_, steps):
    h0 = np.diag(np.array([-1.0, -1.0 + 1e-12, 1 / 3, 1.0], dtype=complex))
    return Schedule(pulses=TanhPair(T=1.0), h0=h0, h1=np.zeros_like(h0),
                    steps=steps)


def _vanishing_schedule(paper_model, steps):
    # t / tau overflows, so H(t) = 0 at every grid point but t = 0, and
    # all six pairs are degenerate there
    h0, h1 = paper_model
    return Schedule(pulses=SechMaskedPair(T=1.0, tau=5e-324), h0=h0, h1=h1,
                    steps=steps)


def _paper_schedule(paper_model, steps):
    h0, h1 = paper_model
    return Schedule(pulses=SechMaskedPair(T=1.0, tau=1.0), h0=h0, h1=h1,
                    steps=steps)


class TestBatchedScan:
    """The chunked, batched scan against the per-point reference loop."""

    @pytest.mark.parametrize("points", [2 * _kernels.CHUNK + 37, 3, 2])
    @pytest.mark.parametrize("make", [_paper_schedule, _weak_schedule,
                                      _uncoupled_schedule, _clustered_schedule,
                                      _vanishing_schedule],
                             ids=["paper", "weak", "uncoupled", "clustered",
                                  "vanishing"])
    def test_matches_reference_loop(self, paper_model, make, points):
        s = make(paper_model, points - 1)
        times, gaps, couplings, margin, degenerate = adiabaticity_report(s)
        ref_gaps, ref_couplings, ref_margin, ref_degenerate = reference_report(s)
        assert np.array_equal(times, np.linspace(-6, 6, points))
        assert np.array_equal(gaps, ref_gaps)
        assert list(zip(*(column.tolist() for column in degenerate))) == (
            ref_degenerate)
        # the batched coupling product may sum in another order
        close = dict(rel=1e-12, abs=0)
        assert couplings == pytest.approx(ref_couplings, **close)
        assert margin == pytest.approx(ref_margin, **close)

    @pytest.mark.parametrize("ratio, warns", [(0.75, True), (1.2, False)])
    def test_degeneracy_threshold_scales_with_frobenius_norm(self, ratio, warns):
        # with H1 = 0, H(t) = f(t) H0: every point has the gap-to-||H||_F
        # ratio of H0.  For these levels max|eps| is 0.57 ||H0||_F and
        # sum|eps| 1.89 ||H0||_F, so either scale would flip one case.
        levels = np.array([-1.0, -1.0, 1 / 3, 1.0])
        levels[1] += ratio * CLUSTER_GAP_RTOL * np.linalg.norm(levels)
        h0 = np.diag(levels.astype(complex))
        steps = 2 * _kernels.CHUNK + 36
        times, _, _, _, (flagged, m, n, _) = adiabaticity_report(Schedule(
            pulses=TanhPair(T=1.0), h0=h0, h1=np.zeros_like(h0), steps=steps))
        assert np.array_equal(flagged, times if warns else [])
        assert set(m) | set(n) == ({0, 1} if warns else set())

    def test_edge_cases_are_exercised(self, paper_model):
        steps = 2 * _kernels.CHUNK + 36
        _, _, couplings, margin, _ = adiabaticity_report(
            _uncoupled_schedule(paper_model, steps))
        assert margin == np.inf and couplings.max() == 0.0
        times, _, _, _, (flagged, _, _, _) = adiabaticity_report(
            _clustered_schedule(paper_model, steps))
        # one pair per grid point, endpoints and both chunk boundaries
        # included
        assert np.array_equal(flagged, times)
        # six pairs at every point but t = 0, in time-then-pair order
        times, _, _, _, (flagged, m, n, gap) = adiabaticity_report(
            _vanishing_schedule(paper_model, steps))
        assert np.array_equal(flagged, np.repeat(times[times != 0], 6))
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert np.array_equal(np.column_stack([m, n]), np.tile(pairs, (steps, 1)))
        assert not gap.any()
        _, _, _, margin, _ = adiabaticity_report(_weak_schedule(paper_model, steps))
        assert 0 < margin < 1


def reference_polyline_points(x, y, x_lo, x_hi, y_lo, y_hi):
    """The polyline points attribute, one scalar point at a time."""
    plot_w = svg.WIDTH - svg.MARGIN_LEFT - svg.MARGIN_RIGHT
    plot_h = svg.HEIGHT - svg.MARGIN_TOP - svg.MARGIN_BOTTOM
    return " ".join(
        f"{svg.MARGIN_LEFT + (xv - x_lo) / (x_hi - x_lo) * plot_w:.2f},"
        f"{svg.MARGIN_TOP + (y_hi - yv) / (y_hi - y_lo) * plot_h:.2f}"
        for xv, yv in zip(x, y))


# 20 001 points is eigentraj's dense grid, and 4 series its four levels
@pytest.mark.parametrize("points", [2, 3, 500, 20001])
@pytest.mark.parametrize("count", [1, 2, 4])
def test_line_plot_points_match_per_point_formatter(tmp_path, count, points):
    rng = np.random.default_rng([7, count, points])
    x = np.sort(rng.uniform(-6, 6, points))
    series = {"a": rng.standard_normal(points),
              "b": np.cumsum(rng.uniform(-1, 1, points)),
              "c": rng.uniform(-1e3, 1e3, points),
              "d": rng.standard_normal(points) * 1e-3}
    series = dict(list(series.items())[:count])
    svg.write_line_plot(tmp_path / "plot.svg", x, series, title="t")
    text = (tmp_path / "plot.svg").read_text()
    all_y = np.concatenate(list(series.values()))
    pad = 0.05 * (all_y.max() - all_y.min())
    expected = [reference_polyline_points(x, y, x.min(), x.max(),
                                          all_y.min() - pad,
                                          all_y.max() + pad)
                for y in series.values()]
    assert re.findall(r'<polyline points="([^"]*)"', text) == expected


@pytest.mark.parametrize("x", [3.7, 52.5, 100.0, 1e-300])
def test_ticks_snap_rounding_noise_to_zero(x):
    # a padded axis range symmetric up to an ulp put its middle tick at
    # linspace noise such as 1.42109e-14, not at 0
    lo, hi = -x, x * (1 + np.finfo(float).eps)
    ticks = svg._ticks(lo, hi)
    assert svg._fmt(ticks[len(ticks) // 2]) == "0"
    assert ticks[0] == lo and ticks[-1] == hi
    # a tick that is really off 0 keeps its value
    assert svg._ticks(-x, 2 * x)[2] == pytest.approx(x / 2, rel=1e-15)
