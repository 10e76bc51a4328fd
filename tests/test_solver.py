"""Tests for projections, mode-wise solves, pressure recovery, solve_full."""

import functools
import sys
import threading
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
    steady_norm,
    time_average,
    inverse,
)
from tpoe import solver, spectral
from tpoe.solver import divergence_defect, project_solenoidal

TWO_PI = 2.0 * np.pi


def points(calls):
    """Points transformed by the recorded transform calls."""
    return sum(int(np.prod(shape)) for _, shape in calls)


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

    def test_scalar_spectrum_rejected(self):
        d = dom2(16, 16)
        with pytest.raises(DomainMismatch, match="acts on vector fields"):
            project_solenoidal(forward(SpaceTimeField.zeros(d, 1)))


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

    def test_precondition_takes_the_mean_without_a_grid(self, traced_peak):
        d = TorusDomain(n=3, L=3.0, N=16, T=5.0, Nt=16)
        pr = OseenParams(lam=-2.5, T=5.0, q=2.0)
        g = rand_field(d, solenoidal=True, purely_periodic=True)
        # 2.19x measured, set by the inverse transform in the spectrum it
        # consumes (TestHelmholtzSplit::test_time_periodic_peak); 2.36x when
        # the potential formed xi . c again, 3.32x, one half spectrum
        # (1.125x) more, when the inverse had a work array of its own, and
        # 3.38x when the time mean was broadcast over the grid before its
        # max|.|
        peak, _ = traced_peak(lambda: solve_time_periodic(g, pr))
        assert peak <= 2.40 * g.samples.nbytes

        h = rand_field(d, solenoidal=True)  # with a steady part

        def rejected():
            with pytest.raises(NotPurelyPeriodic):
                solve_time_periodic(h, pr)

        # 1.00x measured, the |f| of max|f|; 2.00x with the broadcast mean
        peak, _ = traced_peak(rejected)
        assert peak <= 1.05 * g.samples.nbytes

    def test_rejecting_precondition_allocates_no_grid(self, traced_peak):
        # 0.063x measured, the time mean (1/Nt of the input); 1.00x when
        # max|f| took |f|
        d = TorusDomain(n=3, L=3.0, N=16, T=5.0, Nt=16)
        pr = OseenParams(lam=-2.5, T=5.0, q=2.0)
        h = rand_field(d, solenoidal=True)  # with a steady part

        def rejected():
            with pytest.raises(NotPurelyPeriodic):
                solve_time_periodic(h, pr)

        peak, _ = traced_peak(rejected)
        assert peak <= 0.1 * h.samples.nbytes


class TestSolenoidalCheck:
    # |xi . c| <= |xi| |c|: relative to max|xi| max|c|, the check neither
    # tightens nor loosens as the box shrinks or grows
    @pytest.mark.parametrize("L", [1e-8, TWO_PI, 1e8])
    @pytest.mark.parametrize("steady", [False, True], ids=["periodic", "steady"])
    def test_box_size_does_not_move_the_check(self, L, steady):
        d = TorusDomain(n=2, L=L, N=16, T=TWO_PI, Nt=16)
        if steady:
            flags = {"time_constant": True, "zero_spatial_mean": True}
            solve = functools.partial(solve_steady, lam=1.0)
        else:
            flags = {"purely_periodic": True}
            solve = functools.partial(solve_time_periodic, params=params(lam=1.0))
        f = rand_field(d, seed=2, solenoidal=True, **flags)
        solve(f)
        x1, _, t = d.meshgrid()
        gradient = np.zeros((2,) + d.grid_shape)
        gradient[0] = np.cos(2 * np.pi / L * x1)
        if not steady:
            gradient[0] *= np.sin(2 * np.pi / d.T * t)
        with pytest.raises(NonSolenoidal):
            solve(f + SpaceTimeField(d, 1e-6 * gradient))


class TestHelmholtzSplit:
    """One split per solve: xi . c is formed once, serves the solenoidal
    check and the potential, and the data is projected before it is
    inverted."""

    @pytest.mark.parametrize("kind", ["time_periodic", "steady", "full"])
    def test_each_solve_forms_xi_dot_c_once(self, monkeypatch, kind):
        d = dom2(16, 16)
        pr = params(lam=1.0)
        if kind == "time_periodic":
            f = rand_field(d, solenoidal=True, purely_periodic=True)
            solve = functools.partial(solve_time_periodic, params=pr)
        elif kind == "steady":
            f = rand_field(
                d, solenoidal=True, time_constant=True, zero_spatial_mean=True
            )
            solve = functools.partial(solve_steady, lam=1.0)
        else:
            _, _, f = manufactured_case("mixed", d, pr, seed=0)
            solve = functools.partial(solve_full, params=pr, norm_kinds=[])
        calls, xi_dot = [], solver._xi_dot

        def counted(xi, coefficients):
            calls.append(1)
            return xi_dot(xi, coefficients)

        monkeypatch.setattr(solver, "_xi_dot", counted)
        solve(f)
        assert len(calls) == 1

    @pytest.mark.parametrize("n, size, bound", [(3, 16, 2.25), (2, 32, 2.5)])
    def test_time_periodic_peak(self, traced_peak, monkeypatch, n, size, bound):
        # 2.19x and 2.44x measured, set by the inverse transform and in the
        # Helmholtz split; dividing into xi . c in place lowers the latter only
        # to 2.43x, since the projection's x * potential temporary sets it
        # too, and about 0.22x of it is numpy's 8192-element ufunc buffer
        # (128 KiB of complex), a constant; 2.36x and 2.74x when the check and
        # the potential each formed xi . c, the latter in three arrays at once
        monkeypatch.setattr(spectral, "_WORKERS", 1)
        d = TorusDomain(n=n, L=3.0, N=size, T=5.0, Nt=size)
        pr = OseenParams(lam=-2.5, T=5.0, q=2.0)
        g = rand_field(d, solenoidal=True, purely_periodic=True)
        peak, _ = traced_peak(lambda: solve_time_periodic(g, pr))
        assert peak <= bound * g.samples.nbytes

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_steady_solve_projects_its_data(self, lam):
        # a gradient within the check's tol is removed, not inverted: the
        # relative divergence of v measured 3e-17 to 6e-17, and 1e-12 when
        # the gradient passed through
        d = dom2(16, 16)
        f = rand_field(
            d, seed=2, solenoidal=True, time_constant=True, zero_spatial_mean=True
        )
        gradient = np.zeros((2,) + d.grid_shape)
        gradient[0] = -np.sin(d.meshgrid()[0])  # grad cos(x1)
        v = forward(solve_steady(f + SpaceTimeField(d, 1e-12 * gradient), lam))
        top = np.hypot.reduce([np.max(np.abs(x)) for x in d.xi_grids()])
        scale = top * np.max(np.abs(v.coefficients))
        assert divergence_defect(v) <= 1e-15 * scale


class TestSymbolFaults:
    # lam * xi_1 overflows at lam = 1e300, L = 1e-10; at L = 1e200, |xi|^2
    # rounds to 0 on every mode, so the symbol vanishes on k == 0.  numpy's
    # warnings are the caller's to silence; the error names the cause
    CASES = [(1e-10, 1e300, "overflows"), (1e200, 0.0, "vanishes")]

    @pytest.mark.parametrize("L, lam, cause", CASES, ids=["overflow", "underflow"])
    def test_solve_full_names_the_cause(self, L, lam, cause):
        d = TorusDomain(n=2, L=L, N=8, T=TWO_PI, Nt=8)
        f = rand_field(d, seed=4)
        f = f - time_average(f)  # zero mean, so the solve reaches the inverse
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainMismatch) as info:
                solve_full(f, params(lam=lam))
        # the domain's repr names L and T
        assert str(info.value) == f"symbol of A {cause} on {d!r}, lambda={lam!r}"

    @pytest.mark.parametrize("solver", ["full", "periodic", "steady"])
    def test_subnormal_symbol_is_named_before_any_quotient(self, solver):
        # at L = 1e158 the least |xi|^2 is subnormal, and numpy's complex
        # quotient by it (through its reciprocal) is not finite
        d = TorusDomain(n=2, L=1e158, N=8, T=TWO_PI, Nt=8)
        f = rand_field(d, seed=4)
        f = f - time_average(f)
        call = {
            "full": lambda: solve_full(f, params()),
            "periodic": lambda: solve_time_periodic(f, params()),
            "steady": lambda: solve_steady(time_average(f), 0.0),
        }[solver]
        with pytest.raises(DomainMismatch) as info:
            call()
        assert str(info.value) == f"symbol of A underflows on {d!r}, lambda=0.0"

    @pytest.mark.parametrize("L, cause", [(1e158, "underflows"), (1e163, "vanishes")])
    @pytest.mark.parametrize("projection", ["helmholtz", "solenoidal", "pressure"])
    def test_huge_box_is_named_before_a_projection(self, L, cause, projection):
        # the potential divides by |xi|^2 like the solvers' quotients do
        d = TorusDomain(n=2, L=L, N=8, T=TWO_PI, Nt=8)
        f = rand_field(d, seed=4)
        call = {
            "helmholtz": lambda: apply_helmholtz(f),
            "solenoidal": lambda: project_solenoidal(forward(f)),
            "pressure": lambda: recover_pressure(f),
        }[projection]
        with pytest.raises(DomainMismatch) as info:
            call()
        assert str(info.value) == f"|xi|^2 {cause} on {d!r}"

    def test_apply_operator_names_an_overflow(self):
        L, lam, cause = self.CASES[0]
        d = TorusDomain(n=2, L=L, N=8, T=TWO_PI, Nt=8)
        u, p = rand_field(d, seed=5), rand_field(d, components=1, seed=6)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainMismatch, match=f"symbol of A {cause} on "):
                apply_operator(u, p, params(lam=lam))


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

    def test_rows_are_freed_one_by_one(self, traced_peak, bound_case):
        # 2.59x measured as a row's spectrum adds i xi_j p^: the output, the
        # symbol, p^, u^_j and the product (0.375x each) and numpy's ufunc
        # buffer; 2.92x when the loop's enumerate tuple held each row while
        # the next was built
        d, pr, f = bound_case
        u = rand_field(d, seed=1, solenoidal=True)
        p = rand_field(d, components=1, seed=2)
        peak, _ = traced_peak(lambda: apply_operator(u, p, pr))
        assert peak <= 2.7 * f.samples.nbytes

    def test_transform_count(self, record_transforms, transform_passes):
        d = dom2(16, 16)
        u = rand_field(d, seed=1, solenoidal=True)
        p = rand_field(d, components=1, seed=2)
        calls = record_transforms()
        apply_operator(u, p, params(lam=1.0))
        # a forward of p, then a transform pair per velocity component
        scalar, half = (1,) + d.grid_shape, (1,) + d.spectral_shape
        assert calls == transform_passes(
            ("rfftn", scalar), *[("rfftn", scalar), ("irfftn", half)] * d.n
        )
        # as many points as one forward of the stacked (u, p) and one
        # inverse of the velocity
        stacked = [("rfftn", (3,) + d.grid_shape), ("irfftn", (2, 16, 16, 9))]
        assert points(calls) == points(transform_passes(*stacked))


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

    def test_transform_count(self, record_transforms, transform_passes):
        d = dom2(16, 16)
        pr = params(lam=1.0)
        _, _, f = manufactured_case("mixed", d, pr, seed=0)
        calls = record_transforms()
        solve_full(f, pr, norm_kinds=[])
        vector, scalar = (d.n,) + d.grid_shape, (1,) + d.grid_shape
        half = d.spectral_shape
        # forward f; inverse p, the spatial-only v and u, whose inverse
        # consumes the spectrum v is sliced from; residual: forward of p,
        # then a transform pair per velocity component
        solve = [
            ("rfftn", vector),
            ("irfftn", (1,) + half),
            ("irfftn", (d.n, d.N, d.N // 2 + 1)),
            ("irfftn", (d.n,) + half),
        ]
        assert calls == transform_passes(
            *solve, ("rfftn", scalar),
            *[("rfftn", scalar), ("irfftn", (1,) + half)] * d.n,
        ), calls
        # as many points as a residual through the stacked (u, p)
        stacked = solve + [
            ("rfftn", (d.n + 1,) + d.grid_shape), ("irfftn", (d.n,) + half),
        ]
        assert points(calls) == points(transform_passes(*stacked))

    def test_concurrent_solves_equal_serial_ones(self, monkeypatch):
        # 4 MiB fields, so each pass starts a thread for its second chunk;
        # more callers than the two workers, and frequent thread switches
        monkeypatch.setattr(spectral, "_WORKERS", 2)
        d = TorusDomain(n=2, L=TWO_PI, N=64, T=TWO_PI, Nt=64)
        pr = params(lam=1.0)
        cases = [manufactured_case("mixed", d, pr, seed=s)[2] for s in range(3)]
        assert cases[0].samples.nbytes >= spectral._THREAD_BYTES
        serial = [solve_full(f, pr, norm_kinds=[]) for f in cases]
        results = [None] * len(cases)

        def run(i):
            results[i] = solve_full(cases[i], pr, norm_kinds=[])

        threads = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, serial):
            assert got is not None
            assert got.residual_norm == want.residual_norm
            for name in ("u", "v", "w", "p"):
                assert np.array_equal(
                    getattr(got, name).samples, getattr(want, name).samples
                ), name

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

    def test_residual_is_streamed(self, traced_peak, bound_case):
        # 2.69x measured, reached in the streamed residual as a row's
        # spectrum adds i xi_j p^: u, p and v (1.40x), p^, u^_j and the
        # symbol, whose array then takes i xi_j p^ (0.375x each), and numpy's
        # ufunc buffer (0.08x); the field is below _THREAD_BYTES, so the row
        # is one piece.  2.98x when the symbol and i xi_j p^ were two arrays
        # and each row a full-size array, 3.32x when the loop's zip tuple
        # held each row while the next was built
        _, pr, f = bound_case
        peak, _ = traced_peak(lambda: solve_full(f, pr, norm_kinds=[]))
        assert peak <= 2.75 * f.samples.nbytes

    def test_steady_part_is_a_read_only_view(self):
        d = dom2(16, 16)
        pr = params(lam=1.0, q=1.2)
        _, _, f = manufactured_case("mixed", d, pr, seed=4)
        v = solve_full(f, pr, norm_kinds=[]).v
        assert v.samples.strides[-1] == 0  # one spatial slice, held once
        with pytest.raises(ValueError, match="read-only"):
            v.samples[0, 0, 0, 0] = 1.0
        copy = SpaceTimeField(d, v.samples.copy())
        assert np.array_equal(v.samples, copy.samples)
        assert np.array_equal(
            solve_steady(v, 1.0).samples, solve_steady(copy, 1.0).samples
        )
        kind = NormKind(NormTag.STEADY_OSEEN_2D, 1.2)
        assert steady_norm(v, kind, 1.0) == steady_norm(copy, kind, 1.0)

    def test_non_finite_operator_row_rejected(self, monkeypatch):
        # a NaN in A(u, p) must not vanish from the streamed residual: row 1
        # gets it in a sample piece that a worker thread checks
        monkeypatch.setattr(spectral, "_WORKERS", 2)
        monkeypatch.setattr(spectral, "_THREAD_BYTES", 0)
        caller, poisoned = threading.current_thread(), []
        operator = solver._operator

        def overflowing(u, p, params):
            row = operator(u, p, params)

            def nan_in_a_worker_piece_of_row_1(j, consume):
                def check(index, a):
                    if j == 1 and threading.current_thread() is not caller:
                        a[0, 0, 0] = np.nan
                        poisoned.append(index)
                    return consume(index, a)

                return row(j, check)

            return nan_in_a_worker_piece_of_row_1

        d = dom2(16, 16)
        _, _, f = manufactured_case("mixed", d, params(lam=1.0), seed=0)
        monkeypatch.setattr(solver, "_operator", overflowing)
        with pytest.raises(DomainMismatch, match="non-finite"):
            solve_full(f, params(lam=1.0), norm_kinds=[])
        assert poisoned

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


class TestPieces:
    # the piece path of solve_full and apply_operator equals their serial
    # values bitwise; three indices a piece of f's spectrum cut axes 1 and 2
    # into six pieces, which do not divide N, and at n = 2 the piece [8, 10)
    # of axis 2 crosses N/2 + 1, where the steady slice ends
    @pytest.mark.parametrize("n", [2, 3])
    def test_solve_and_operator_equal_serial_values(self, monkeypatch, workers, n):
        d = TorusDomain(n=n, L=3.0, N=16, T=5.0, Nt=16)
        pr = OseenParams(lam=-2.5, T=5.0, q=2.0)
        _, _, f = manufactured_case("mixed", d, pr, seed=2)
        spectrum = 16 * n * 16**n * 9
        assert spectrum < spectral._THREAD_BYTES  # so one piece, serially
        serial = solve_full(f, pr, norm_kinds=[])
        applied = apply_operator(serial.u, serial.p, pr).samples
        monkeypatch.setattr(spectral, "_THREAD_BYTES", 0)
        monkeypatch.setattr(spectral, "_PIECE_BYTES", 3 * spectrum // 16)
        fh = np.empty((n,) + d.spectral_shape, dtype=complex)
        starts = [index[2].start for index in spectral._pieces(fh, 2)]
        assert starts == [0, 2, 5, 8, 10, 13]
        got = solve_full(f, pr, norm_kinds=[])
        assert got.residual_norm == serial.residual_norm
        for name in ("u", "v", "w", "p"):
            assert np.array_equal(
                getattr(got, name).samples, getattr(serial, name).samples
            ), name
        assert np.array_equal(apply_operator(got.u, got.p, pr).samples, applied)


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
