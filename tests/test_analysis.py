"""Tests for the verification harness: scans, manufactured cases, sweeps."""

import dataclasses
import functools
import itertools
import threading
import time

import numpy as np
import pytest

from tpoe import (
    DomainMismatch,
    DualIndex,
    EmptySweep,
    InvalidGrid,
    NonHermitian,
    OseenParams,
    ScanGrid,
    SpaceTimeField,
    TorusDomain,
    UnknownRecipe,
    apply_operator,
    constant_sweep,
    convergence_study,
    evaluate_m,
    fit_log_trend,
    forward,
    lq_norm,
    manufactured_case,
    marcinkiewicz_scan,
    random_band_limited_field,
    roundtrip_verify,
    sobolev_norm_21q,
    solve_full,
    solve_time_periodic,
    transference_check,
)
from tpoe import analysis, spectral
from tpoe.analysis import (
    MARCINKIEWICZ_STATISTIC,
    RATIO_STATISTIC,
    _mixed_partial,
)
from tpoe.cli import EXIT_OK, main, parse_config, run_directory
from tpoe.solver import divergence_defect
from tpoe.symbols import time_periodic_multiplier_grid

TWO_PI = 2.0 * np.pi


def dom2(N=32, Nt=32, T=TWO_PI):
    return TorusDomain(n=2, L=TWO_PI, N=N, T=T, Nt=Nt)


def params(lam=0.0, T=TWO_PI, q=2.0):
    return OseenParams(lam=lam, T=T, q=q)


# -- closed-form derivative oracle, independent of the scan implementation --

INNER, OUTER = 0.5, 1.0


def _g(t):
    return np.exp(-1.0 / t) if t > 0 else 0.0


def _g_prime(t):
    return np.exp(-1.0 / t) / t**2 if t > 0 else 0.0


def _step_prime(t):
    denom = (_g(t) + _g(1.0 - t)) ** 2
    return (_g_prime(t) * _g(1.0 - t) + _g(t) * _g_prime(1.0 - t)) / denom


def _one_minus_chi(s):
    # on the ramp s(1 - t) = g(1-t) / (g(t) + g(1-t)), which does not cancel
    # where it is small, as 1 - s(t) does
    a = abs(s)
    if a <= INNER:
        return 0.0
    if a >= OUTER:
        return 1.0
    t = (OUTER - a) / (OUTER - INNER)
    return _g(1.0 - t) / (_g(t) + _g(1.0 - t))


def _chi_prime(s):
    a = abs(s)
    if a <= INNER or a >= OUTER:
        return 0.0
    return _step_prime((OUTER - a) / (OUTER - INNER)) * (
        -np.sign(s) / (OUTER - INNER)
    )


def _m_closed(xi, eta, pr):
    w = _one_minus_chi(pr.T / TWO_PI * eta)
    d = np.dot(xi, xi) + 1j * (eta - pr.lam * xi[0])
    return w / d if w != 0.0 else 0.0


def _dm_dxi(xi, eta, pr, i):
    w = _one_minus_chi(pr.T / TWO_PI * eta)
    if w == 0.0:
        return 0.0
    d = np.dot(xi, xi) + 1j * (eta - pr.lam * xi[0])
    dd = 2.0 * xi[i] - (1j * pr.lam if i == 0 else 0.0)
    return -w * dd / d**2


def _dm_deta(xi, eta, pr):
    scale = pr.T / TWO_PI
    w = _one_minus_chi(scale * eta)
    wp = -_chi_prime(scale * eta) * scale
    d = np.dot(xi, xi) + 1j * (eta - pr.lam * xi[0])
    if w == 0.0 and wp == 0.0:
        return 0.0
    return wp / d - 1j * w / d**2


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: TorusDomain(n=2, L=np.inf, N=16, T=TWO_PI, Nt=16), ValueError),
            (lambda: TorusDomain(n=2, L=TWO_PI, N=16, T=np.nan, Nt=16), ValueError),
            (lambda: OseenParams(lam=np.inf, T=TWO_PI, q=2.0), ValueError),
            (lambda: OseenParams(lam=np.nan, T=TWO_PI, q=2.0), ValueError),
            (lambda: OseenParams(lam=0.0, T=np.inf, q=2.0), ValueError),
            (lambda: ScanGrid(n=2, radial_max=np.inf), InvalidGrid),
            (lambda: ScanGrid(n=2, radial_min=np.nan), InvalidGrid),
        ],
        ids=[
            "L-inf", "T-nan", "lam-inf", "lam-nan", "params-T-inf",
            "radial-max-inf", "radial-min-nan",
        ],
    )
    def test_rejected_where_built(self, build, error):
        with pytest.raises(error):
            build()

    def test_scan_overall_propagates_nan(self, monkeypatch):
        import tpoe.analysis as analysis_module

        real = analysis_module._mixed_partial

        def spoiled(points, eps, pr):
            out = real(points, eps, pr)
            return out * np.nan if all(eps) else out  # the last pattern only

        monkeypatch.setattr(analysis_module, "_mixed_partial", spoiled)
        # the NaN reaches the overall supremum, which is rejected, not reported
        with pytest.raises(InvalidGrid):
            marcinkiewicz_scan(params(lam=1.0), ScanGrid(n=2, shells=4))


class TestMarcinkiewiczScan:
    def test_unweighted_supremum_envelope(self):
        # on the support of the numerator |eta| >= (2pi/T)/2, so with lam = 0
        # |m| <= 1/|eta| <= 2 for T = 2pi
        report = marcinkiewicz_scan(params(lam=0.0), ScanGrid(n=2, seed=0))
        assert report.per_epsilon["000"] <= 2.0
        assert report.overall == max(report.per_epsilon.values())

    def test_all_patterns_finite_over_parameter_matrix(self):
        grid = ScanGrid(n=2, shells=16, directions=8, seed=1)
        for lam in (0.0, 1.0, 10.0):
            for T in (TWO_PI, 20 * np.pi):
                report = marcinkiewicz_scan(params(lam=lam, T=T), grid)
                assert len(report.per_epsilon) == 2**3
                assert all(np.isfinite(v) for v in report.per_epsilon.values())

    def test_three_dimensional_pattern_count(self):
        report = marcinkiewicz_scan(
            params(lam=1.0), ScanGrid(n=3, shells=8, directions=4, seed=2)
        )
        assert len(report.per_epsilon) == 2**4

    @pytest.mark.parametrize("var", [0, 1, 2])
    def test_fd_matches_closed_form_single_derivatives(self, var):
        # quotient-rule oracle implemented independently above, times the
        # variable the derivative is taken in
        pr = params(lam=1.5, T=TWO_PI)
        points = np.array(
            [
                [0.3, 1.1, 2.0, -4.0, 0.9],
                [-0.7, 0.4, -1.0, 2.0, 0.1],
                [0.8, 2.5, 5.0, -3.0, 1.7],
            ]
        )
        eps = tuple(int(i == var) for i in range(3))
        fd = _mixed_partial(points, eps, pr)
        for j in range(points.shape[1]):
            xi = points[:2, j]
            eta = points[2, j]
            if var < 2:
                closed = points[var, j] * _dm_dxi(xi, eta, pr, var)
            else:
                closed = eta * _dm_deta(xi, eta, pr)
            if abs(closed) > 1e-8:
                assert abs(fd[j] - closed) <= 1e-13 * abs(closed)
            else:
                assert abs(fd[j]) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("lam", [0.0, 1.0, -2.5])
    @pytest.mark.parametrize("T", [TWO_PI, 5.0, 1e3], ids=["2pi", "5", "1e3"])
    def test_each_derivative_is_a_difference_of_the_one_below(self, n, lam, T):
        # x_i times one central difference of x^S d_S m along i, not in S,
        # is x^(S+i) d_{S+i} m to 1e-7 relative (1e-9 of the largest value
        # where it passes near 0);
        # the points keep off the cut-off ramp's ends, |T*eta/(2*pi)| in
        # (0.6, 0.9) on the ramp and (1.1, 3) past it, and the eta step
        # scales with the ramp's width 2*pi/T
        pr = params(lam=lam, T=T)
        rng = np.random.default_rng(7)
        dirs = rng.standard_normal((n, 40))
        xi = dirs / np.linalg.norm(dirs, axis=0) * np.geomspace(0.2, 5.0, 40)
        scaled = np.concatenate([rng.uniform(0.6, 0.9, 20), rng.uniform(1.1, 3.0, 20)])
        eta = rng.choice([-1.0, 1.0], 40) * scaled * TWO_PI / T
        points = np.vstack([xi, eta])
        for eps in itertools.product((0, 1), repeat=n + 1):
            for i in (i for i in range(n + 1) if not eps[i]):
                exact = _mixed_partial(points, eps[:i] + (1,) + eps[i + 1 :], pr)
                step = np.zeros((n + 1, 1))
                step[i] = 1e-5 * TWO_PI / T if i == n else 2e-6
                diff = _mixed_partial(points + step, eps, pr)
                diff = (diff - _mixed_partial(points - step, eps, pr)) / (2 * step[i])
                diff *= points[i]
                bound = 1e-7 * np.abs(exact) + 1e-9 * np.max(np.abs(exact))
                assert np.all(np.abs(diff - exact) <= bound), (eps, i)

    @pytest.mark.parametrize("lam, sup", [(0.0, 1.98802), (1.0, 5.83271)])
    def test_fourth_order_pattern_of_the_default_grid(self, lam, sup):
        # the exact grid suprema (40-digit mpmath) to the digits shown
        report = marcinkiewicz_scan(params(lam=lam), ScanGrid(n=3))
        assert report.per_epsilon["1111"] == pytest.approx(sup, abs=5e-6)

    def test_a_narrow_cut_off_ramp(self):
        # at T = 1e3 the cut-off ramp is about 2*pi/T wide; 40-digit mpmath
        # gives 6.7039239e8
        report = marcinkiewicz_scan(params(lam=1.0, T=1e3), ScanGrid(n=2))
        assert report.overall == pytest.approx(6.7039239e8, rel=1e-6)

    # at T = 1e300, d^eps m alone leaves the double range (d_eta m = 1e320
    # at eta = 1e-160) where its products with the weights do not; the
    # suprema of 40-digit mpmath over every point of each grid
    @pytest.mark.parametrize(
        "n, lam, radial_min, radial_max, expected",
        [
            (2, 0.0, 1e-160, 1e4, {
                "000": 3.4147882046776044e161, "001": 3.4147882046776044e161,
                "010": 454.92767013027058, "011": 909.85534026054116,
                "100": 1875.2280264307893, "101": 3750.4560528615785,
                "110": 2.65977108499215e-7, "111": 1.0230826907483346e-9,
            }),
            (3, -2.5, 1e-310, 1e76, {
                "0000": 3.1871546453161225e255, "1001": 5.2587201648308498e256,
                "1011": 1094.9804983167993, "1111": 8.7134424678362238e-32,
            }),
            (2, 1e10, 1e-300, 1e4, {
                "000": 3.7275937203148006e256, "100": 2.3266318367970583e247,
                "111": 1.0786224175727605e-27,
            }),
        ],
    )
    def test_weights_fold_into_the_ratios(
        self, n, lam, radial_min, radial_max, expected
    ):
        grid = ScanGrid(
            n=n, radial_min=radial_min, radial_max=radial_max, shells=8,
            directions=4,
        )
        with np.errstate(over="ignore"):  # T * eta overflows, as in cli.main
            report = marcinkiewicz_scan(params(lam=lam, T=1e300), grid)
        for bits, value in expected.items():
            assert report.per_epsilon[bits] == pytest.approx(value, rel=1e-14)
        assert report.overall == pytest.approx(max(expected.values()), rel=1e-14)

    def test_zero_pattern_matches_plain_evaluation(self):
        pr = params(lam=2.0)
        points = ScanGrid(n=2, shells=4, directions=2, seed=0).points()
        direct = _mixed_partial(points, (0, 0, 0), pr)
        for j in range(points.shape[1]):
            closed = _m_closed(points[:2, j], points[2, j], pr)
            assert direct[j] == pytest.approx(closed, rel=1e-13, abs=1e-300)

    def test_parity_in_drift_and_first_frequency(self):
        grid = ScanGrid(n=2, shells=12, directions=6, seed=3)
        plus = marcinkiewicz_scan(params(lam=2.5), grid)
        minus = marcinkiewicz_scan(params(lam=-2.5), grid)
        for bits, value in plus.per_epsilon.items():
            other = minus.per_epsilon[bits]
            assert other == pytest.approx(value, rel=1e-10, abs=1e-14)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidGrid):
            ScanGrid(n=2, shells=0)
        with pytest.raises(InvalidGrid):
            ScanGrid(n=2, radial_min=1.0, radial_max=0.5)
        with pytest.raises(InvalidGrid):
            ScanGrid(n=4)


class TestTransference:
    def test_identity_is_exact(self):
        boxes = [(TWO_PI, T, (0.0, 1.0, 10.0)) for T in (TWO_PI, 20 * np.pi)]
        boxes.append((3.0, 5.0, (0.0, 2.0, -2.5)))
        for n in (2, 3):
            for L, T, lams in boxes:
                d = TorusDomain(n=n, L=L, N=16, T=T, Nt=16)
                for lam in lams:
                    assert transference_check(d, params(lam=lam, T=T)) == 0.0

    def test_period_mismatch_rejected(self):
        with pytest.raises(DomainMismatch, match="period"):
            transference_check(dom2(N=8, Nt=8), params(lam=1.0, T=3.0))

    def test_widened_cutoff_breaks_identity_at_first_mode(self, monkeypatch):
        import tpoe.symbols as symbols_module

        d = dom2(N=16, Nt=16)
        pr = params(lam=0.0)
        monkeypatch.setattr(symbols_module, "_CUTOFF_RADII", (2.0, 4.0))
        deviation = transference_check(d, pr)
        assert deviation > 0.1
        xi, eta = DualIndex((0, 0), 1).frequencies(d)
        assert evaluate_m(xi, eta, pr) == 0.0
        first = time_periodic_multiplier_grid(d, pr)[0, 0, 1]
        assert abs(first) > 0.1
        assert deviation >= abs(first) - 1e-15


class TestManufactured:
    def test_zero_recipe(self):
        u, p, f = manufactured_case("zero", dom2(16, 16), params())
        assert u.max_abs() == 0.0 and p.max_abs() == 0.0 and f.max_abs() == 0.0

    def test_single_mode_satisfies_operator_identity(self):
        d = dom2(16, 16)
        pr = params(lam=1.0)
        u, p, f = manufactured_case("single-mode", d, pr)
        again = apply_operator(u, p, pr)
        assert (again - f).max_abs() <= 1e-14

    @pytest.mark.parametrize("recipe", ["random", "mixed"])
    def test_random_recipes_meet_their_contracts(self, recipe):
        d = dom2()
        pr = params(lam=1.0)
        u, p, f = manufactured_case(recipe, d, pr, seed=5)
        spec = forward(u)
        assert divergence_defect(spec) <= 1e-12 * spec.max_abs()
        slice_means = np.mean(p.samples[0], axis=(0, 1))
        assert np.max(np.abs(slice_means)) <= 1e-13
        # zero steady spatial mean, so the full solve accepts it
        mean = np.mean(f.samples, axis=(1, 2, 3))
        assert np.max(np.abs(mean)) <= 1e-13

    def test_end_to_end_recovery(self):
        d = dom2()
        pr = params(lam=1.0)
        u, p, f = manufactured_case("random", d, pr, seed=11)
        bundle = solve_full(f, pr)
        assert (bundle.u - u).max_abs() <= 1e-10 * u.max_abs()
        assert (bundle.p - p).max_abs() <= 1e-10 * max(p.max_abs(), 1e-300)

    def test_unknown_recipe(self):
        with pytest.raises(UnknownRecipe):
            manufactured_case("nonsense", dom2(16, 16), params())

    def test_transform_count(self, record_transforms, transform_passes):
        d = dom2(16, 16)
        calls = record_transforms()
        manufactured_case("mixed", d, params(lam=1.0), seed=0)
        # one inverse per random field (v, w, p), then the operator: a
        # forward of p and a transform pair per velocity component
        scalar, half = (1,) + d.grid_shape, (1,) + d.spectral_shape
        fields = [("irfftn", (2,) + d.spectral_shape)] * 2 + [("irfftn", half)]
        operator = [("rfftn", scalar)] + [("rfftn", scalar), ("irfftn", half)] * 2
        assert calls == transform_passes(*fields, *operator), calls
        # the operator transforms as many points as a forward of the stacked
        # (u, p) and an inverse of the velocity: per pass, rfft and fft of
        # (3, 16, 16, 16 | 9), then ifft and irfft of (2, 16, 16, 9)
        points = sum(int(np.prod(shape)) for _, shape in calls[9:])
        assert points == 3 * 16**3 + 2 * 3 * 16 * 16 * 9 + 3 * 2 * 16 * 16 * 9

    def test_allocation_bounded_by_data_size(self, traced_peak, bound_case):
        # 5.34x measured: v and w are freed before f is built
        d, pr, _ = bound_case
        peak, (_, _, f) = traced_peak(
            lambda: manufactured_case("mixed", d, pr, seed=0)
        )
        assert peak <= 6 * f.samples.nbytes

    def test_single_mode_broadcasts_its_phase(self, traced_peak, bound_case):
        # the phase varies along x1 and t only, so the recipe builds no
        # coordinate grid: its triple equals the meshgrid construction
        # bitwise and peaks at 4.59x f, where the grids cost 6.25x
        d, pr, _ = bound_case
        coords = d.meshgrid()
        phase = TWO_PI / d.L * coords[0] + TWO_PI / d.T * coords[d.n]
        samples = np.zeros((d.n,) + d.grid_shape)
        samples[1] = np.cos(phase)
        u = SpaceTimeField(d, samples)
        p = SpaceTimeField(d, np.zeros((1,) + d.grid_shape))
        expected = (u, p, apply_operator(u, p, pr))
        del coords, phase, samples, u, p
        peak, got = traced_peak(lambda: manufactured_case("single-mode", d, pr))
        for field, reference in zip(got, expected):
            assert field.samples.tobytes() == reference.samples.tobytes()
        assert peak <= 5 * got[2].samples.nbytes

    def test_band_symmetry_is_checked(self, monkeypatch):
        import tpoe.analysis as analysis_module

        def lopsided(xi, band):
            band[(0,) * band.ndim] += 1.0j  # one corner mode, not its mirror

        monkeypatch.setattr(analysis_module, "_split", lopsided)
        with pytest.raises(NonHermitian):
            random_band_limited_field(
                dom2(16, 16), 2, np.random.default_rng(0), solenoidal=True
            )

    def test_deterministic(self):
        d = dom2(16, 16)
        u1, p1, f1 = manufactured_case("mixed", d, params(), seed=3)
        u2, p2, f2 = manufactured_case("mixed", d, params(), seed=3)
        assert np.array_equal(u1.samples, u2.samples)
        assert np.array_equal(p1.samples, p2.samples)
        assert np.array_equal(f1.samples, f2.samples)


class TestRoundtrip:
    def test_ensemble_error_at_floor(self):
        worst = roundtrip_verify(dom2(), params(lam=1.0), ensemble_size=10, seed=0)
        assert worst <= 1e-10

    def test_single_mode_error_tiny(self):
        d = dom2()
        pr = params(lam=0.0)
        u, p, f = manufactured_case("single-mode", d, pr)
        w = solve_time_periodic(f, pr)
        assert (w - u).max_abs() <= 1e-13

    def test_requires_nonempty_ensemble(self):
        with pytest.raises(ValueError):
            roundtrip_verify(dom2(16, 16), params(), ensemble_size=0, seed=0)

    def test_deterministic(self):
        a = roundtrip_verify(dom2(16, 16), params(lam=1.0), 3, seed=9)
        b = roundtrip_verify(dom2(16, 16), params(lam=1.0), 3, seed=9)
        assert a == b


class TestConstantSweep:
    def test_records_structure(self):
        grid = ScanGrid(n=2, shells=8, directions=4, seed=0)
        records = constant_sweep(
            dom2(16, 16), 2.0, [0.0, 1.0], [TWO_PI], 3, seed=0, scan_grid=grid
        )
        assert len(records) == 4
        stats = {r.statistic for r in records}
        assert stats == {RATIO_STATISTIC, MARCINKIEWICZ_STATISTIC}
        assert all(np.isfinite(r.value) for r in records)
        assert all(r.seed == 0 for r in records)

    def test_empty_inputs_rejected(self):
        d, grid = dom2(16, 16), ScanGrid(n=2)
        with pytest.raises(EmptySweep):
            constant_sweep(d, 2.0, [], [TWO_PI], 3, 0, grid)
        with pytest.raises(EmptySweep):
            constant_sweep(d, 2.0, [0.0], [], 3, 0, grid)
        with pytest.raises(EmptySweep):
            constant_sweep(d, 2.0, [0.0], [TWO_PI], 0, 0, grid)

    def test_ratio_is_scale_invariant(self):
        d = dom2(16, 16)
        pr = params(lam=1.0)
        f = random_band_limited_field(
            d, 2, np.random.default_rng(4), solenoidal=True, purely_periodic=True
        )
        def ratio(field):
            w = solve_time_periodic(field, pr)
            return sobolev_norm_21q(w, 2.0) / lq_norm(field, 2.0)
        assert ratio(5.0 * f) == pytest.approx(ratio(f), rel=1e-12)

    def test_deterministic_records(self):
        grid = ScanGrid(n=2, shells=6, directions=2, seed=1)
        args = (dom2(16, 16), 2.0, [1.0], [TWO_PI], 2, 7)
        assert constant_sweep(*args, scan_grid=grid) == constant_sweep(
            *args, scan_grid=grid
        )

    def test_fit_summary(self):
        grid = ScanGrid(n=2, shells=6, directions=2, seed=0)
        records = constant_sweep(
            dom2(16, 16), 2.0, [0.0, 1.0, 10.0], [TWO_PI, 20 * np.pi], 2, 0,
            scan_grid=grid,
        )
        fit = fit_log_trend(records)
        assert fit["degree"] == 1
        assert len(fit["coefficients"]) == 3
        assert np.isfinite(fit["rms_residual"])
        with pytest.raises(EmptySweep):
            fit_log_trend([r for r in records if r.statistic != RATIO_STATISTIC])


def serial_roundtrip(domain, pr, size, seed):
    """The ensemble loop of ``roundtrip_verify``, one member at a time."""
    rng = np.random.default_rng(seed)
    p_zero = SpaceTimeField.zeros(domain, 1)
    worst = 0.0
    for _ in range(size):
        w = random_band_limited_field(
            domain, domain.n, rng, solenoidal=True, purely_periodic=True
        )
        back = solve_time_periodic(apply_operator(w, p_zero, pr), pr)
        worst = max(worst, (back - w).max_abs() / w.max_abs())
    return worst


def serial_ratios(domain, q, lambdas, periods, size, seed):
    """The ratio of each ``constant_sweep`` cell, lam-major, from the loop
    that runs one member at a time."""
    ratios = []
    for lam in lambdas:
        for T in periods:
            dom = dataclasses.replace(domain, T=T)
            pr = OseenParams(lam=lam, T=T, q=q)
            rng = np.random.default_rng(seed)
            ratio = 0.0
            for _ in range(size):
                f = random_band_limited_field(
                    dom, dom.n, rng, solenoidal=True, purely_periodic=True
                )
                w = solve_time_periodic(f, pr)
                ratio = max(ratio, sobolev_norm_21q(w, q) / lq_norm(f, q))
            ratios.append(ratio)
    return ratios


class TestConcurrentEnsembles:
    # fields below _THREAD_BYTES run their members on threads of the call;
    # every value and error must be the serial loop's

    def test_member_i_gets_the_ith_draw(self, monkeypatch, workers):
        d = dom2(16, 16)
        rng = np.random.default_rng(8)
        expected = [
            random_band_limited_field(
                d, 2, rng, solenoidal=True, purely_periodic=True
            ).samples.tobytes()
            for _ in range(7)
        ]
        # draws in the calling thread wait, so that a member drawing in
        # another thread would take an earlier member's draw
        band_draws, caller = analysis._band_draws, threading.current_thread()

        def draw(*args, **kwargs):
            if threading.current_thread() is caller:
                time.sleep(0.01)
            return band_draws(*args, **kwargs)

        monkeypatch.setattr(analysis, "_band_draws", draw)
        got = analysis._ensemble(
            d, np.random.default_rng(8), 7, lambda i, w: (i, w.samples.tobytes())
        )
        assert got == list(enumerate(expected))

    def test_roundtrip_equals_the_serial_loop(self, workers):
        d, pr = dom2(16, 16), params(lam=1.0)
        expected = serial_roundtrip(d, pr, 7, seed=5)
        assert roundtrip_verify(d, pr, 7, seed=5).hex() == expected.hex()

    def test_sweep_equals_the_serial_loop(self, workers):
        d, grid = dom2(16, 16), ScanGrid(n=2, shells=4, directions=0)
        lambdas, periods = [0.0, 1.0], [TWO_PI, 5.0]
        records = constant_sweep(d, 1.5, lambdas, periods, 5, 3, grid)
        ratios = [r.value for r in records if r.statistic == RATIO_STATISTIC]
        expected = serial_ratios(d, 1.5, lambdas, periods, 5, 3)
        assert [v.hex() for v in ratios] == [v.hex() for v in expected]

    @pytest.mark.parametrize("command", ["roundtrip", "sweep"])
    def test_two_failing_members_raise_the_loops_error(
        self, monkeypatch, workers, command
    ):
        # members 3 and 6 fail after their draws, on different threads; the
        # loop raises member 3's error after members 0 to 2 ran
        drawn, started, threads = [], set(), set()
        band_draws, band_field = analysis._band_draws, analysis._band_field

        def draw(*args, **kwargs):
            drawn.append(band_draws(*args, **kwargs))
            return drawn[-1]

        def build(domain, draws, **flags):
            member = next(i for i, d in enumerate(drawn) if d is draws)
            started.add(member)
            threads.add(threading.current_thread())
            if member in (3, 6):
                raise ArithmeticError(f"member {member} failed")
            return band_field(domain, draws, **flags)

        monkeypatch.setattr(analysis, "_band_draws", draw)
        monkeypatch.setattr(analysis, "_band_field", build)
        d, pr = dom2(16, 16), params(lam=1.0)
        if command == "roundtrip":
            call = functools.partial(roundtrip_verify, d, pr, 9, 2)
        else:
            grid = ScanGrid(n=2, shells=4, directions=0)
            sweep = (d, 2.0, [1.0], [TWO_PI], 9, 2, grid)
            call = functools.partial(constant_sweep, *sweep)
        raised = []

        def run():
            try:
                call()
            except ArithmeticError as error:
                raised.append(str(error))

        before = threading.active_count()
        caller = threading.Thread(target=run)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert raised == ["member 3 failed"]
        assert {0, 1, 2, 3} <= started
        assert threading.active_count() == before
        assert not any(thread.is_alive() for thread in threads)

    def test_no_more_threads_than_workers(self, monkeypatch, workers):
        # each member's Sobolev quadrature maps its slabs inside the
        # member's thread, where a map runs in its caller alone
        counts = []
        irfft = np.fft.irfft

        def counting(*args, **kwargs):
            counts.append(threading.active_count())
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counting)
        grid = ScanGrid(n=2, shells=4, directions=0)
        before = threading.active_count()
        constant_sweep(dom2(16, 16), 1.5, [1.0], [TWO_PI], 6, 0, grid)
        assert counts and max(counts) <= before + workers - 1
        assert threading.active_count() == before

    def test_each_member_in_flight_holds_under_four_fields(self, traced_peak, workers):
        # measured 3.92x, 3.88x and 3.71x the samples per worker: a member
        # holds w and A(w) until the solve has transformed A(w), which it
        # then frees, and every inverse runs in the spectrum it consumes;
        # one member held 7.0x with the inverses' work arrays and A(w)
        d = TorusDomain(n=3, L=TWO_PI, N=16, T=TWO_PI, Nt=16)
        roundtrip_verify(d, params(lam=1.0), 2, seed=1)  # numpy's lazy set-up
        peak, _ = traced_peak(lambda: roundtrip_verify(d, params(lam=1.0), 4, 1))
        assert peak <= 4.0 * workers * (d.n * 8 * 16**4)

    def test_members_of_a_large_field_run_one_at_a_time(self, monkeypatch, workers):
        # a field of _THREAD_BYTES or more: its passes thread, so its members
        # run in the calling thread, one at a time
        d, pr = dom2(16, 16), params(lam=1.0)
        expected = serial_roundtrip(d, pr, 4, seed=1)
        monkeypatch.setattr(spectral, "_THREAD_BYTES", d.n * 8 * 16**3)
        members, passes = set(), set()
        solve, ifft = analysis.solve_time_periodic, np.fft.ifft

        def solving(*args, **kwargs):
            members.add(threading.current_thread())
            return solve(*args, **kwargs)

        def transforming(*args, **kwargs):
            passes.add(threading.current_thread())
            return ifft(*args, **kwargs)

        monkeypatch.setattr(analysis, "solve_time_periodic", solving)
        monkeypatch.setattr(np.fft, "ifft", transforming)
        assert roundtrip_verify(d, pr, 4, seed=1).hex() == expected.hex()
        assert members == {threading.current_thread()}
        assert (passes != {threading.current_thread()}) == (workers > 1)


class TestConvergence:
    def test_band_limited_recipe_sits_at_floor(self):
        rows = convergence_study(
            "single-mode", dom2(16, 16), params(lam=1.0), [(16, 16), (32, 32)]
        )
        assert all(r.residual <= 1e-10 for r in rows)
        assert all(r.recovery_error <= 1e-10 for r in rows)

    def test_fd_oracle_second_order(self):
        rows = convergence_study(
            "mixed", dom2(16, 16), params(lam=1.0), [(16, 16), (32, 32)], seed=1
        )
        ratio = rows[0].fd_residual / rows[1].fd_residual
        assert 3.5 <= ratio <= 4.5

    def test_requires_two_resolutions(self):
        with pytest.raises(ValueError):
            convergence_study("single-mode", dom2(16, 16), params(), [(16, 16)])

    @pytest.mark.parametrize("q", [2.0, 1.2])
    def test_transform_count_skips_the_norm_report(self, record_transforms, q):
        calls = record_transforms()
        convergence_study(
            "mixed", dom2(16, 16), params(lam=1.0, q=q), [(16, 16), (32, 32)]
        )
        # per resolution: 8 full-grid transforms for the mixed case and 8
        # for the lean solve, 3 passes each at n=2, and the 2 passes of v's
        # spatial-only inverse
        assert len(calls) == 2 * (3 * (8 + 8) + 2), [name for name, _ in calls]

    def test_unknown_recipe_propagates(self):
        with pytest.raises(UnknownRecipe):
            convergence_study(
                "nope", dom2(16, 16), params(), [(16, 16), (32, 32)]
            )


def run_cli(tmp_path, subcommand, **settings):
    """Run one ``tpoe`` subcommand on a config of ``settings`` (n=2 on the
    2*pi torus, seed 0) and return its run directory."""
    settings = {"n": 2, "N": 16, "Nt": 16, "seed": 0, **settings}
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    assert main([subcommand, "--config", str(config)]) == EXIT_OK
    return run_directory(parse_config(str(config), []))


class TestCsvOutputs:
    def test_sweep_csv_deterministic(self, tmp_path):
        sweep = {"q": 2.0, "lambdas": 0.0, "periods": repr(TWO_PI),
                 "ensemble": 2, "shells": 6, "directions": 2}
        p1 = run_cli(tmp_path, "sweep", output_dir=tmp_path / "a", **sweep)
        p2 = run_cli(tmp_path, "sweep", output_dir=tmp_path / "b", **sweep)
        p1, p2 = p1 / "sweep.csv", p2 / "sweep.csv"
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "lambda,T,q,N,Nt,statistic,value,seed"

    def test_marcinkiewicz_csv(self, tmp_path):
        outdir = run_cli(
            tmp_path, "marcinkiewicz", output_dir=tmp_path, shells=4,
            directions=2,
        )
        csv_path = outdir / "marcinkiewicz.csv"
        json_path = outdir / "marcinkiewicz_grid.json"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "eps_bits,sup_value"
        assert len(lines) == 1 + 2**3
        assert "radial_min" in json_path.read_text()

    def test_convergence_csv(self, tmp_path):
        outdir = run_cli(
            tmp_path, "convergence", output_dir=tmp_path,
            recipe="single-mode", resolutions="16x16,32x32",
        )
        path = outdir / "convergence.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "N,Nt,residual,recovery_error,fd_residual"
        assert len(lines) == 3
