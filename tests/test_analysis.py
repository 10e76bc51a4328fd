"""Tests for the verification harness: scans, manufactured cases, sweeps."""

import numpy as np
import pytest

from tpoe import (
    CutoffSpec,
    DomainMismatch,
    DualIndex,
    EmptySweep,
    InvalidGrid,
    NonHermitian,
    OseenParams,
    ScanGrid,
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


def _step(t):
    return _g(t) / (_g(t) + _g(1.0 - t))


def _step_prime(t):
    denom = (_g(t) + _g(1.0 - t)) ** 2
    return (_g_prime(t) * _g(1.0 - t) + _g(t) * _g_prime(1.0 - t)) / denom


def _chi(s):
    a = abs(s)
    if a <= INNER:
        return 1.0
    if a >= OUTER:
        return 0.0
    return _step((OUTER - a) / (OUTER - INNER))


def _chi_prime(s):
    a = abs(s)
    if a <= INNER or a >= OUTER:
        return 0.0
    return _step_prime((OUTER - a) / (OUTER - INNER)) * (
        -np.sign(s) / (OUTER - INNER)
    )


def _m_closed(xi, eta, pr):
    w = 1.0 - _chi(pr.T / TWO_PI * eta)
    d = np.dot(xi, xi) + 1j * (eta - pr.lam * xi[0])
    return w / d if w != 0.0 else 0.0


def _dm_dxi(xi, eta, pr, i):
    w = 1.0 - _chi(pr.T / TWO_PI * eta)
    if w == 0.0:
        return 0.0
    d = np.dot(xi, xi) + 1j * (eta - pr.lam * xi[0])
    dd = 2.0 * xi[i] - (1j * pr.lam if i == 0 else 0.0)
    return -w * dd / d**2


def _dm_deta(xi, eta, pr):
    scale = pr.T / TWO_PI
    w = 1.0 - _chi(scale * eta)
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
            (lambda: CutoffSpec(inner=0.5, outer=np.inf), ValueError),
            (lambda: ScanGrid(n=2, radial_max=np.inf), InvalidGrid),
            (lambda: ScanGrid(n=2, radial_min=np.nan), InvalidGrid),
        ],
        ids=[
            "L-inf", "T-nan", "lam-inf", "lam-nan", "params-T-inf",
            "cutoff-outer-inf", "radial-max-inf", "radial-min-nan",
        ],
    )
    def test_rejected_where_built(self, build, error):
        with pytest.raises(error):
            build()

    def test_scan_overall_propagates_nan(self, monkeypatch):
        import tpoe.analysis as analysis_module

        real = analysis_module._mixed_partial

        def spoiled(points, eps, pr, cutoff):
            out = real(points, eps, pr, cutoff)
            return out * np.nan if all(eps) else out  # the last pattern only

        monkeypatch.setattr(analysis_module, "_mixed_partial", spoiled)
        report = marcinkiewicz_scan(params(lam=1.0), ScanGrid(n=2, shells=4))
        assert np.isnan(report.per_epsilon["111"])
        assert np.isnan(report.overall)


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
        # quotient-rule oracle implemented independently above
        pr = params(lam=1.5, T=TWO_PI)
        points = np.array(
            [
                [0.3, 1.1, 2.0, -4.0, 0.9],
                [-0.7, 0.4, -1.0, 2.0, 0.1],
                [0.8, 2.5, 5.0, -3.0, 1.7],
            ]
        )
        eps = tuple(int(i == var) for i in range(3))
        fd = _mixed_partial(points, eps, pr, CutoffSpec())
        for j in range(points.shape[1]):
            xi = points[:2, j]
            eta = points[2, j]
            if var < 2:
                closed = _dm_dxi(xi, eta, pr, var)
            else:
                closed = _dm_deta(xi, eta, pr)
            if abs(closed) > 1e-8:
                assert abs(fd[j] - closed) <= 1e-6 * abs(closed)
            else:
                assert abs(fd[j]) <= 1e-8

    def test_zero_pattern_matches_plain_evaluation(self):
        pr = params(lam=2.0)
        points = ScanGrid(n=2, shells=4, directions=2, seed=0).points()
        direct = _mixed_partial(points, (0, 0, 0), pr, CutoffSpec())
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

    def test_widened_cutoff_breaks_identity_at_first_mode(self):
        d = dom2(N=16, Nt=16)
        pr = params(lam=0.0)
        wide = CutoffSpec(inner=2.0, outer=4.0)
        deviation = transference_check(d, pr, cutoff=wide)
        assert deviation > 0.1
        xi, eta = DualIndex((0, 0), 1).frequencies(d)
        assert evaluate_m(xi, eta, pr, wide) == 0.0
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

    def test_transform_count(self, record_transforms):
        d = dom2(16, 16)
        calls = record_transforms()
        manufactured_case("mixed", d, params(lam=1.0), seed=0)
        names = [name for name, _ in calls]
        # one inverse per random field (v, w, p), then the operator's pair
        assert names == ["irfftn"] * 3 + ["rfftn", "irfftn"], names

    def test_band_symmetry_is_checked(self, monkeypatch):
        import tpoe.analysis as analysis_module

        def lopsided(xi, band):
            band[(0,) * band.ndim] += 1.0j  # one corner mode, not its mirror
            return band

        monkeypatch.setattr(analysis_module, "_project", lopsided)
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
        d = dom2(16, 16)
        with pytest.raises(EmptySweep):
            constant_sweep(d, 2.0, [], [TWO_PI], 3, 0)
        with pytest.raises(EmptySweep):
            constant_sweep(d, 2.0, [0.0], [], 3, 0)
        with pytest.raises(EmptySweep):
            constant_sweep(d, 2.0, [0.0], [TWO_PI], 0, 0)

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
            fit_log_trend(records, statistic="no_such_statistic")


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
        # per resolution: 5 for the mixed case, 6 for the lean solve
        assert len(calls) == 2 * (5 + 6), [name for name, _ in calls]

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
