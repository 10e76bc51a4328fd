"""Tests for projections, mode-wise solves, pressure recovery, solve_full."""

import tracemalloc

import numpy as np
import pytest

from tpoe import (
    DomainMismatch,
    IncompatibleMean,
    InvalidExponent,
    NonSolenoidal,
    NormKind,
    NormTag,
    NotPurelyPeriodic,
    OseenParams,
    SpaceTimeField,
    TorusDomain,
    apply_helmholtz,
    apply_operator,
    fluctuation,
    forward,
    manufactured_case,
    random_band_limited_field,
    recover_pressure,
    solve_full,
    solve_steady,
    solve_time_periodic,
    spectral_derivative,
    time_average,
    inverse,
)
from tpoe.solver import divergence_defect

TWO_PI = 2.0 * np.pi


def dom2(N=32, Nt=32):
    return TorusDomain(n=2, L=TWO_PI, N=N, T=TWO_PI, Nt=Nt)


def params(lam=0.0, q=2.0, T=TWO_PI):
    return OseenParams(lam=lam, T=T, q=q)


def rand_field(domain, components=None, seed=0, **flags):
    rng = np.random.default_rng(seed)
    comps = domain.n if components is None else components
    return random_band_limited_field(domain, comps, rng, **flags)


class TestTimeAverage:
    def test_constant_in_time_fixed(self):
        d = dom2(16, 16)
        x1 = d.meshgrid()[0]
        f = SpaceTimeField.scalar(d, np.cos(x1))
        assert (time_average(f) - f).max_abs() == 0.0
        assert fluctuation(f).max_abs() <= 1e-15

    def test_full_period_cosine_averages_out(self):
        d = dom2(16, 16)
        x1, _, t = d.meshgrid()
        f = SpaceTimeField.scalar(d, np.sin(2 * x1) * np.cos(2 * np.pi / d.T * t))
        assert time_average(f).max_abs() <= 1e-15

    def test_spectral_form_is_k0_mask(self):
        # physical quadrature average against the delta(k) coefficient mask
        d = dom2(16, 16)
        f = rand_field(d, seed=4)
        ph = forward(time_average(f)).coefficients
        fh = forward(f).coefficients
        masked = fh * (d.time_mode_grid() == 0)
        assert np.max(np.abs(ph - masked)) <= 1e-12 * np.max(np.abs(fh))

    def test_projection_algebra(self):
        d = dom2(16, 16)
        scale = 1.0
        for seed in range(3):
            f = rand_field(d, seed=seed)
            P = time_average(f)
            Q = fluctuation(f)
            assert (P + Q - f).max_abs() <= 1e-12 * scale
            assert (time_average(P) - P).max_abs() <= 1e-12 * scale
            assert (fluctuation(Q) - Q).max_abs() <= 1e-12 * scale
            assert time_average(Q).max_abs() <= 1e-12 * scale

    def test_commutes_with_operator(self):
        d = dom2(16, 16)
        u = rand_field(d, seed=8, solenoidal=True)
        p_zero = SpaceTimeField.zeros(d, 1)
        pr = params(lam=1.5)
        lhs = time_average(apply_operator(u, p_zero, pr))
        rhs = apply_operator(time_average(u), p_zero, pr)
        assert (lhs - rhs).max_abs() <= 1e-12 * u.max_abs()


class TestHelmholtz:
    def test_annihilates_gradient(self):
        d = dom2(16, 16)
        x1 = d.meshgrid()[0]
        samples = np.zeros((2,) + d.grid_shape)
        samples[0] = -np.sin(x1)  # gradient of cos(x1)
        out = apply_helmholtz(SpaceTimeField(d, samples))
        assert out.max_abs() <= 1e-12

    def test_fixes_solenoidal(self):
        d = dom2(16, 16)
        x1 = d.meshgrid()[0]
        samples = np.zeros((2,) + d.grid_shape)
        samples[1] = np.cos(x1)
        f = SpaceTimeField(d, samples)
        assert (apply_helmholtz(f) - f).max_abs() <= 1e-12

    def test_idempotent_and_divergence_free(self):
        d = dom2(16, 16)
        for seed in range(3):
            f = rand_field(d, seed=seed)
            once = apply_helmholtz(f)
            twice = apply_helmholtz(once)
            assert (twice - once).max_abs() <= 1e-12
            spec = forward(once)
            assert divergence_defect(spec) <= 1e-12 * np.max(
                np.abs(forward(f).coefficients)
            )

    def test_splitting_into_solenoidal_plus_gradient(self):
        # f = P_H f + grad(recover_pressure(f))
        d = dom2(16, 16)
        f = rand_field(d, seed=12)
        sol = apply_helmholtz(f)
        p = recover_pressure(f)
        p_spec = forward(p)
        grad = np.concatenate(
            [
                inverse(spectral_derivative(p_spec, (1, 0), 0)).samples,
                inverse(spectral_derivative(p_spec, (0, 1), 0)).samples,
            ]
        )
        recomposed = sol.samples + grad
        assert np.max(np.abs(recomposed - f.samples)) <= 1e-10 * f.max_abs()

    def test_scalar_input_rejected(self):
        d = dom2(16, 16)
        with pytest.raises(DomainMismatch):
            apply_helmholtz(SpaceTimeField.zeros(d, 1))


class TestSolveTimePeriodic:
    def test_single_mode_closed_form(self):
        # u_hat = f_hat / (1 + i), i.e. w = (cos + sin)/2 for f = cos
        d = dom2()
        x1, _, t = d.meshgrid()
        samples = np.zeros((2,) + d.grid_shape)
        samples[1] = np.cos(x1 + t)
        w = solve_time_periodic(SpaceTimeField(d, samples), params())
        expected = 0.5 * (np.cos(x1 + t) + np.sin(x1 + t))
        assert np.max(np.abs(w.samples[1] - expected)) <= 1e-12
        assert np.max(np.abs(w.samples[0])) <= 1e-12
        # verified by applying d_t - Lap
        residual = apply_operator(w, SpaceTimeField.zeros(d, 1), params())
        assert (residual - SpaceTimeField(d, samples)).max_abs() <= 1e-12

    def test_zero_maps_to_zero(self):
        d = dom2(16, 16)
        w = solve_time_periodic(SpaceTimeField.zeros(d, 2), params())
        assert w.max_abs() == 0.0

    def test_steady_content_rejected(self):
        d = dom2(16, 16)
        x1 = d.meshgrid()[0]
        samples = np.zeros((2,) + d.grid_shape)
        samples[1] = np.cos(x1)  # k = 0 only
        with pytest.raises(NotPurelyPeriodic):
            solve_time_periodic(SpaceTimeField(d, samples), params())

    def test_non_solenoidal_rejected(self):
        d = dom2(16, 16)
        x1, _, t = d.meshgrid()
        samples = np.zeros((2,) + d.grid_shape)
        samples[0] = np.cos(x1) * np.sin(2 * np.pi / d.T * t)  # pure gradient
        with pytest.raises(NonSolenoidal):
            solve_time_periodic(SpaceTimeField(d, samples), params())

    def test_roundtrip_on_random_ensemble(self):
        d = dom2()
        pr = params(lam=1.0)
        p_zero = SpaceTimeField.zeros(d, 1)
        for seed in range(3):
            w = rand_field(d, seed=seed, solenoidal=True, purely_periodic=True)
            back = solve_time_periodic(apply_operator(w, p_zero, pr), pr)
            assert (back - w).max_abs() <= 1e-10 * w.max_abs()

    def test_period_mismatch_rejected(self):
        d = dom2(8, 8)
        _, _, f = manufactured_case("single-mode", d, params(lam=1.0))
        with pytest.raises(DomainMismatch, match="period"):
            solve_time_periodic(f, params(lam=1.0, T=3.0))


class TestSolveSteady:
    def test_stokes_closed_form(self):
        d = dom2(16, 16)
        x1 = d.meshgrid()[0]
        samples = np.zeros((2,) + d.grid_shape)
        samples[1] = np.cos(x1)
        v = solve_steady(SpaceTimeField(d, samples), 0.0)
        assert np.max(np.abs(v.samples[1] - np.cos(x1))) <= 1e-12

    def test_oseen_closed_form(self):
        # mode inversion by (1 - i)^{-1}, verified by applying -Lap - d1
        d = dom2(16, 16)
        x1 = d.meshgrid()[0]
        samples = np.zeros((2,) + d.grid_shape)
        samples[1] = np.cos(x1)
        f = SpaceTimeField(d, samples)
        v = solve_steady(f, 1.0)
        expected = 0.5 * (np.cos(x1) - np.sin(x1))
        assert np.max(np.abs(v.samples[1] - expected)) <= 1e-12
        residual = apply_operator(v, SpaceTimeField.zeros(d, 1), params(lam=1.0))
        assert (residual - f).max_abs() <= 1e-12

    def test_constant_forcing_rejected(self):
        d = dom2(16, 16)
        samples = np.zeros((2,) + d.grid_shape)
        samples[1] = 1.0
        with pytest.raises(IncompatibleMean):
            solve_steady(SpaceTimeField(d, samples), 0.0)

    def test_time_varying_forcing_rejected(self):
        d = dom2(16, 16)
        x1, _, t = d.meshgrid()
        samples = np.zeros((2,) + d.grid_shape)
        samples[1] = np.cos(x1) * np.cos(2 * np.pi / d.T * t)
        with pytest.raises(ValueError, match="time-constant"):
            solve_steady(SpaceTimeField(d, samples), 0.0)


class TestRecoverPressure:
    def test_gradient_closed_form(self):
        # f = -sin(x1) e1 = grad cos(x1), so p = cos(x1)
        d = dom2(16, 16)
        x1 = d.meshgrid()[0]
        samples = np.zeros((2,) + d.grid_shape)
        samples[0] = -np.sin(x1)
        p = recover_pressure(SpaceTimeField(d, samples))
        assert np.max(np.abs(p.samples[0] - np.cos(x1))) <= 1e-12

    def test_solenoidal_input_gives_zero(self):
        d = dom2(16, 16)
        f = rand_field(d, seed=3, solenoidal=True)
        assert recover_pressure(f).max_abs() <= 1e-12 * f.max_abs()

    def test_gradient_identity_on_random_fields(self):
        d = dom2(16, 16)
        for seed in range(3):
            f = rand_field(d, seed=seed)
            p = recover_pressure(f)
            p_spec = forward(p)
            grad = np.concatenate(
                [
                    inverse(spectral_derivative(p_spec, (1, 0), 0)).samples,
                    inverse(spectral_derivative(p_spec, (0, 1), 0)).samples,
                ]
            )
            complement = f.samples - apply_helmholtz(f).samples
            assert np.max(np.abs(grad - complement)) <= 1e-10 * f.max_abs()

    def test_zero_mean_gauge(self):
        d = dom2(16, 16)
        p = recover_pressure(rand_field(d, seed=5))
        slice_means = np.mean(p.samples[0], axis=(0, 1))
        assert np.max(np.abs(slice_means)) <= 1e-13


class TestApplyOperator:
    def test_zero(self):
        d = dom2(16, 16)
        out = apply_operator(
            SpaceTimeField.zeros(d, 2), SpaceTimeField.zeros(d, 1), params()
        )
        assert out.max_abs() == 0.0

    def test_single_mode(self):
        d = dom2(16, 16)
        x1, _, t = d.meshgrid()
        samples = np.zeros((2,) + d.grid_shape)
        samples[1] = np.cos(x1 + t)
        out = apply_operator(
            SpaceTimeField(d, samples), SpaceTimeField.zeros(d, 1), params()
        )
        expected = -np.sin(x1 + t) + np.cos(x1 + t)
        assert np.max(np.abs(out.samples[1] - expected)) <= 1e-12

    def test_shape_checks(self):
        d = dom2(16, 16)
        with pytest.raises(DomainMismatch):
            apply_operator(
                SpaceTimeField.zeros(d, 2), SpaceTimeField.zeros(d, 2), params()
            )
        with pytest.raises(DomainMismatch):
            apply_operator(
                SpaceTimeField.zeros(d, 1), SpaceTimeField.zeros(d, 1), params()
            )

    def test_transform_count(self, record_transforms):
        d = dom2(16, 16)
        u = rand_field(d, seed=1, solenoidal=True)
        p = rand_field(d, components=1, seed=2)
        calls = record_transforms()
        apply_operator(u, p, params(lam=1.0))
        # one forward of the stacked (u, p), one inverse of the velocity
        assert calls == [
            ("rfftn", (3,) + d.grid_shape),
            ("irfftn", (2, 16, 16, 9)),
        ]


class TestSolveFull:
    def test_purely_periodic_solenoidal_data(self):
        d = dom2()
        f = rand_field(d, seed=1, solenoidal=True, purely_periodic=True)
        bundle = solve_full(f, params(lam=1.0))
        assert bundle.v.max_abs() <= 1e-12
        assert bundle.p.max_abs() <= 1e-12
        assert bundle.residual_norm <= 1e-10

    def test_pure_gradient_data(self):
        # f = grad g for steady g: velocity vanishes, p = g - mean(g)
        d = dom2(16, 16)
        x1, x2, _ = d.meshgrid()
        g = np.cos(x1) + 0.25 * np.sin(2 * x2) + 0.7
        spec = forward(SpaceTimeField.scalar(d, g))
        grad = np.concatenate(
            [
                inverse(spectral_derivative(spec, (1, 0), 0)).samples,
                inverse(spectral_derivative(spec, (0, 1), 0)).samples,
            ]
        )
        bundle = solve_full(SpaceTimeField(d, grad), params())
        assert bundle.u.max_abs() <= 1e-12
        expected_p = g - np.mean(g)
        assert np.max(np.abs(bundle.p.samples[0] - expected_p)) <= 1e-12

    def test_kernel_is_trivial(self):
        d = dom2(16, 16)
        bundle = solve_full(SpaceTimeField.zeros(d, 2), params(lam=2.0))
        assert bundle.u.max_abs() == 0.0
        assert bundle.p.max_abs() == 0.0

    def test_manufactured_recovery(self):
        d = dom2()
        pr = params(lam=1.0)
        u, p, f = manufactured_case("mixed", d, pr, seed=17)
        bundle = solve_full(f, pr)
        assert bundle.residual_norm <= 1e-10
        assert (bundle.u - u).max_abs() <= 1e-10 * u.max_abs()
        assert (bundle.p - p).max_abs() <= 1e-10 * max(p.max_abs(), 1e-300)

    def test_bundle_invariants(self):
        d = dom2()
        u, p, f = manufactured_case("mixed", d, params(lam=1.0), seed=2)
        bundle = solve_full(f, params(lam=1.0))
        assert (bundle.u - (bundle.v + bundle.w)).max_abs() <= 1e-12
        assert time_average(bundle.w).max_abs() <= 1e-12
        assert (bundle.v - time_average(bundle.v)).max_abs() <= 1e-12
        u_spec = forward(bundle.u)
        assert divergence_defect(u_spec) <= 1e-10 * u_spec.max_abs()

    def test_strata_match_public_solvers(self):
        for n in (2, 3):
            N = 12 if n == 3 else 16
            d = TorusDomain(n=n, L=3.0, N=N, T=5.0, Nt=12)
            for lam in (0.0, 1.0, -2.5):
                pr = OseenParams(lam=lam, T=5.0, q=2.0)
                _, _, f = manufactured_case("mixed", d, pr, seed=5)
                bundle = solve_full(f, pr, norm_kinds=[])
                g = apply_helmholtz(f)
                for got, expected in (
                    (bundle.v, solve_steady(time_average(g), lam)),
                    (bundle.w, solve_time_periodic(fluctuation(g), pr)),
                    (bundle.p, recover_pressure(f)),
                ):
                    scale = expected.max_abs()
                    assert scale > 0.0
                    assert (got - expected).max_abs() <= 1e-12 * scale, (n, lam)

    def test_transform_count(self, record_transforms):
        d = dom2(16, 16)
        pr = params(lam=1.0)
        _, _, f = manufactured_case("mixed", d, pr, seed=0)
        calls = record_transforms()
        solve_full(f, pr, norm_kinds=[])
        names = [name for name, _ in calls]
        # forward f; inverse u, p and the spatial-only v; residual: forward
        # of the stacked (u, p) and one inverse
        assert names.count("rfftn") == 2, names
        assert names.count("irfftn") == 4, names
        assert len(names) == 6, names
        spatial = [shape for _, shape in calls if len(shape) == d.n + 1]
        assert spatial == [(d.n, d.N, d.N // 2 + 1)], calls

    def test_allocation_bounded_by_input_size(self):
        d = TorusDomain(n=3, L=3.0, N=16, T=5.0, Nt=16)
        pr = OseenParams(lam=-2.5, T=5.0, q=2.0)
        _, _, f = manufactured_case("mixed", d, pr, seed=0)
        tracemalloc.start()
        try:
            solve_full(f, pr, norm_kinds=[])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * f.samples.nbytes

    def test_incompatible_mean_rejected(self):
        d = dom2(16, 16)
        samples = np.zeros((2,) + d.grid_shape)
        samples[1] = 1.0
        with pytest.raises(IncompatibleMean):
            solve_full(SpaceTimeField(d, samples), params())

    def test_period_mismatch_rejected(self):
        d = dom2(8, 8)
        _, _, f = manufactured_case("single-mode", d, params(lam=1.0))
        with pytest.raises(DomainMismatch, match="period"):
            solve_full(f, params(lam=1.0, T=3.0))

    def test_norm_report_autoselection(self):
        d3 = TorusDomain(n=3, L=TWO_PI, N=16, T=TWO_PI, Nt=16)
        pr = OseenParams(lam=0.0, T=TWO_PI, q=1.2)
        _, _, f = manufactured_case("mixed", d3, pr, seed=0)
        bundle = solve_full(f, pr)
        assert "steady_stokes" in bundle.norm_report
        assert "pressure_xp" in bundle.norm_report
        assert "sobolev_21q_periodic" in bundle.norm_report
        # q = 2 admits no steady norm for n = 2 (and no pressure norm)
        d2 = dom2(16, 16)
        pr2 = params(lam=1.0, q=2.0)
        _, _, f2 = manufactured_case("mixed", d2, pr2, seed=0)
        report = solve_full(f2, pr2).norm_report
        assert "pressure_xp" not in report
        assert not any(key.startswith("steady") for key in report)

    def test_explicit_norm_kinds_match_default_report(self):
        for n, lam, q in ((3, 0.0, 1.2), (3, 2.0, 1.8), (2, 1.0, 1.2)):
            N = 12 if n == 3 else 16
            d = TorusDomain(n=n, L=TWO_PI, N=N, T=TWO_PI, Nt=N)
            pr = OseenParams(lam=lam, T=TWO_PI, q=q)
            _, _, f = manufactured_case("mixed", d, pr, seed=0)
            kinds = []
            for tag in NormTag:
                try:
                    NormKind(tag, q).validate(n, lam)
                except InvalidExponent:
                    continue
                kinds.append(NormKind(tag, q))
            default = solve_full(f, pr).norm_report
            explicit = solve_full(f, pr, norm_kinds=kinds).norm_report
            expected = {k: v for k, v in default.items() if k != "lq_data"}
            assert list(explicit) == list(expected), (n, lam, q)
            assert explicit == expected, (n, lam, q)

    def test_explicit_invalid_norm_request_raises(self):
        d = dom2(16, 16)
        pr = params(lam=0.0, q=2.0)
        _, _, f = manufactured_case("random", d, pr, seed=0)
        with pytest.raises(InvalidExponent):
            solve_full(f, pr, norm_kinds=[NormKind(NormTag.STEADY_STOKES, 2.0)])


class TestTolerance:
    # a constant forcing has no torus solution; an inf or NaN tol would
    # let every precondition check pass it
    SOLVES = {
        "solve_full": lambda f, tol: solve_full(f, params(), tol=tol),
        "solve_time_periodic": lambda f, tol: solve_time_periodic(
            f, params(), tol=tol
        ),
        "solve_steady": lambda f, tol: solve_steady(f, 0.0, tol=tol),
    }

    @pytest.mark.parametrize("solve", sorted(SOLVES))
    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1e-10])
    def test_rejected(self, solve, tol):
        d = dom2(16, 16)
        f = SpaceTimeField(d, np.ones((2,) + d.grid_shape))
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            self.SOLVES[solve](f, tol)
