"""Tests for the Lebesgue, anisotropic Sobolev, steady, and pressure norms.

Oracle policy: values at exponents 2 and 4 check against the closed form or
its adaptive quadrature (the rectangle rule is exact there); other exponents
check against a direct composition oracle that samples the closed form
analytically on the same oversampled grid the implementation uses --
band-limited spectral interpolation is exact, so agreement is at rounding
level while the quadrature itself honestly carries its documented aliasing
error.
"""

import itertools
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from tpoe import (
    InvalidExponent,
    NormKind,
    NormTag,
    OseenParams,
    SpaceTimeField,
    TorusDomain,
    forward,
    lq_norm,
    manufactured_case,
    plancherel_norm,
    pressure_norm,
    random_band_limited_field,
    sobolev_norm_21q,
    solve_full,
    steady_norm,
)
from tpoe import norms, spectral
from tpoe.norms import STEADY_TAGS, _applicable_kinds, _time_mean
from tpoe.spectral import _SLAB_BYTES

TWO_PI = 2.0 * np.pi


def dom2(N=16, Nt=16):
    return TorusDomain(n=2, L=TWO_PI, N=N, T=TWO_PI, Nt=Nt)


def dom3(N=16, Nt=8):
    return TorusDomain(n=3, L=TWO_PI, N=N, T=TWO_PI, Nt=Nt)


def steady_kinds(n, lam, q):
    """The steady norm families that ``_applicable_kinds`` admits."""
    return [kind for kind in _applicable_kinds(n, lam, q) if kind.tag in STEADY_TAGS]


class TestLqNorm:
    def test_constant_field(self):
        # measure of the box is (2pi)^2 and the time factor is normalized away
        d = dom2()
        c = -1.75
        f = SpaceTimeField.scalar(d, np.full(d.grid_shape, c))
        assert lq_norm(f, 2.0) == pytest.approx(abs(c) * TWO_PI, rel=1e-13)

    def test_sine_mass(self):
        # integral of sin^2 over one period is pi
        d = dom2()
        x1 = d.meshgrid()[0]
        f = SpaceTimeField.scalar(d, np.sin(x1))
        assert lq_norm(f, 2.0) == pytest.approx(np.sqrt(TWO_PI * np.pi), rel=1e-13)

    def test_matches_plancherel_at_q2(self):
        d = dom2()
        for seed in range(3):
            f = random_band_limited_field(d, 2, np.random.default_rng(seed))
            assert lq_norm(f, 2.0) == pytest.approx(
                plancherel_norm(forward(f)), rel=1e-10
            )

    def test_exponent_four_is_exact(self):
        # |cos x1|^4 has mean 3/8 and four times the band of cos x1, which the
        # x2-refined grid integrates exactly even at N = 4 (the unrefined
        # grid gives 2.1078 instead of 1.9615)
        d = dom2(N=4, Nt=4)
        f = SpaceTimeField.scalar(d, np.cos(d.meshgrid()[0]))
        exact = (3.0 / 8.0 * d.L**2) ** 0.25
        assert lq_norm(f, 4.0) == pytest.approx(exact, rel=1e-13)

    def test_exponent_validation(self):
        d = dom2()
        f = SpaceTimeField.zeros(d, 1)
        with pytest.raises(InvalidExponent):
            lq_norm(f, 1.0)
        with pytest.raises(InvalidExponent):
            lq_norm(f, np.inf)

    def test_non_even_exponent_against_sampling_oracle(self):
        # |cos x1|^{1.5} sampled analytically on the x2-oversampled grid
        d = dom2()
        x1 = d.meshgrid()[0]
        f = SpaceTimeField.scalar(d, np.cos(x1))
        q = 1.5
        fine = np.arange(2 * d.N) * d.L / (2 * d.N)
        rect = np.sum(np.abs(np.cos(fine)) ** q) * d.L / (2 * d.N)
        oracle = (rect * d.L) ** (1.0 / q)
        assert lq_norm(f, q) == pytest.approx(oracle, rel=1e-12)
        # the quadrature itself has small, bounded aliasing versus the truth
        truth = (quad(lambda x: abs(np.cos(x)) ** q, 0, TWO_PI)[0] * d.L) ** (1 / q)
        assert lq_norm(f, q) == pytest.approx(truth, rel=1e-2)


class TestSobolevNorm:
    def test_zero(self):
        assert sobolev_norm_21q(SpaceTimeField.zeros(dom2(), 2), 2.0) == 0.0

    def test_constant_counts_twice(self):
        # only the underived spatial and temporal terms survive, and the
        # zeroth term enters both sums by the displayed definition
        d = dom2()
        c = 3.0
        f = SpaceTimeField(d, np.full((2,) + d.grid_shape, c))
        base = lq_norm(f, 2.0)
        assert sobolev_norm_21q(f, 2.0) == pytest.approx(
            (2.0 * base**2) ** 0.5, rel=1e-13
        )

    def test_single_mode_value(self):
        # five equal-mass terms survive: u, d1 u, d1^2 u, u (time), dt u;
        # each has squared norm 2 pi^2, so the total is pi * sqrt(10)
        d = dom2(32, 32)
        x1, _, t = d.meshgrid()
        samples = np.zeros((2,) + d.grid_shape)
        samples[1] = np.cos(x1 + t)
        u = SpaceTimeField(d, samples)
        value = sobolev_norm_21q(u, 2.0)
        assert value == pytest.approx(np.pi * np.sqrt(10.0), rel=1e-12)
        # direct quadrature oracle over the five surviving derivative fields
        cell = d.dx**d.n / d.Nt  # space-time quadrature weight of one cell
        mass = np.sqrt(np.sum(np.cos(x1 + t) ** 2) * cell)
        sin_mass = np.sqrt(np.sum(np.sin(x1 + t) ** 2) * cell)
        oracle = (3 * mass**2 + 2 * sin_mass**2) ** 0.5
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_homogeneity(self):
        d = dom2()
        u = random_band_limited_field(d, 2, np.random.default_rng(5))
        for q in (1.5, 2.0, 3.0):
            a = sobolev_norm_21q(2.5 * u, q)
            b = 2.5 * sobolev_norm_21q(u, q)
            assert a == pytest.approx(b, rel=1e-12)


class TestSteadyNorm:
    def test_zero(self):
        kind = NormKind(NormTag.STEADY_STOKES, 1.2)
        assert steady_norm(SpaceTimeField.zeros(dom3(), 3), kind, 0.0) == 0.0

    def test_stokes_single_mode_against_oracle(self):
        # v = cos(x1) e2: |v| = |cos|, |grad v| = |sin|, |grad^2 v| = |cos|
        d = dom3()
        x1 = d.meshgrid()[0]
        samples = np.zeros((3,) + d.grid_shape)
        samples[1] = np.cos(x1)
        v = SpaceTimeField(d, samples)
        q = 1.2
        value = steady_norm(v, NormKind(NormTag.STEADY_STOKES, q), 0.0)

        # exponents 6 and 2 are even: compare against adaptive quadrature
        term_v = (quad(lambda x: np.cos(x) ** 6, 0, TWO_PI)[0] * TWO_PI**2) ** (1 / 6)
        term_g = (quad(lambda x: np.sin(x) ** 2, 0, TWO_PI)[0] * TWO_PI**2) ** 0.5
        # exponent 1.2 is not: rectangle rule on the x2-oversampled axis,
        # sampled from the closed form
        fine = np.arange(2 * d.N) * d.L / (2 * d.N)
        rect = np.sum(np.abs(np.cos(fine)) ** q) * d.L / (2 * d.N)
        term_h = (rect * TWO_PI**2) ** (1 / q)
        assert value == pytest.approx(term_v + term_g + term_h, rel=1e-8)

    def test_oseen_weights(self):
        # the drift-weighted terms scale as advertised with |lam|
        d = dom3()
        x1 = d.meshgrid()[0]
        samples = np.zeros((3,) + d.grid_shape)
        samples[1] = np.cos(x1)
        v = SpaceTimeField(d, samples)
        q = 1.2
        kind = NormKind(NormTag.STEADY_OSEEN, q)
        base = steady_norm(v, kind, 1.0)
        assert np.isfinite(base) and base > 0.0
        # lam enters through |lam|^{2/4}, |lam|^{1/4}, |lam|; with the pure
        # x1-mode all gradient content sits in d1, so the value at lam=16
        # is bounded by 16 * value at lam=1 and above 2 * value at lam=1
        grown = steady_norm(v, kind, 16.0)
        assert 2.0 * base < grown < 16.0 * base

    def test_oseen_2d_terms(self):
        d = dom2()
        x1 = d.meshgrid()[0]
        samples = np.zeros((2,) + d.grid_shape)
        samples[1] = np.cos(x1)
        v = SpaceTimeField(d, samples)
        kind = NormKind(NormTag.STEADY_OSEEN_2D, 1.2)
        with_v2 = steady_norm(v, kind, 2.0)
        # moving the same profile into the first component (depending on x2,
        # still divergence-free) drops the two v2-specific penalty terms
        samples2 = np.zeros((2,) + d.grid_shape)
        samples2[0] = np.cos(d.meshgrid()[1])
        v1 = SpaceTimeField(d, samples2)
        without_v2 = steady_norm(v1, kind, 2.0)
        assert with_v2 > without_v2

    def test_time_varying_field_rejected(self):
        d = dom2()
        x1, _, t = d.meshgrid()
        samples = np.zeros((2,) + d.grid_shape)
        samples[1] = np.cos(x1) * np.cos(t)
        with pytest.raises(ValueError, match="time-constant"):
            steady_norm(
                SpaceTimeField(d, samples), NormKind(NormTag.STEADY_OSEEN_2D, 1.2), 1.0
            )

    @pytest.mark.parametrize(
        "tag", [NormTag.LQ, NormTag.SOBOLEV_21Q, NormTag.PRESSURE_XP]
    )
    def test_non_steady_kind_rejected(self, tag):
        v = SpaceTimeField.zeros(dom2(), 2)
        with pytest.raises(ValueError, match="is not a steady norm family"):
            steady_norm(v, NormKind(tag, 1.2), 1.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_scalar_field_rejected(self, n):
        d = dom2() if n == 2 else dom3()
        tag = NormTag.STEADY_OSEEN_2D if n == 2 else NormTag.STEADY_OSEEN
        v = SpaceTimeField.zeros(d, 1)  # a field has 1 or n components
        with pytest.raises(ValueError, match=f"steady norms act on {n}-component"):
            steady_norm(v, NormKind(tag, 1.2), 1.0)

    def test_homogeneity(self):
        d = dom3()
        rng = np.random.default_rng(2)
        v = random_band_limited_field(
            d, 3, rng, solenoidal=True, time_constant=True, zero_spatial_mean=True
        )
        kind = NormKind(NormTag.STEADY_OSEEN, 1.2)
        assert steady_norm(3.0 * v, kind, 2.0) == pytest.approx(
            3.0 * steady_norm(v, kind, 2.0), rel=1e-12
        )


class TestPressureNorm:
    def test_zero(self):
        assert pressure_norm(SpaceTimeField.zeros(dom3(), 1), 1.5) == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_vector_field_rejected(self, n):
        d = dom2() if n == 2 else dom3()
        with pytest.raises(InvalidExponent, match="applies to scalar fields"):
            pressure_norm(SpaceTimeField.zeros(d, n), 1.5)

    def test_time_constant_reduces_to_single_slice(self):
        d = dom2()
        x1 = d.meshgrid()[0]
        p = SpaceTimeField.scalar(d, np.cos(x1))
        q = 1.5
        a = 2 * q / (2 - q)
        # manual composition on one slice
        fine_d = d.refine(2 * d.N, 2 * d.Nt)
        xf = fine_d.meshgrid()[0]
        dv = fine_d.dx**2
        slice_a = (np.sum(np.abs(np.cos(xf[..., 0])) ** a) * dv) ** (1 / a)
        slice_g = (np.sum(np.abs(np.sin(xf[..., 0])) ** q) * dv) ** (1 / q)
        expected = (slice_a**q + slice_g**q) ** (1 / q)
        assert pressure_norm(p, q) == pytest.approx(expected, rel=1e-10)

    def test_oscillating_mode_against_sampling_oracle(self):
        d = dom2()
        x1, _, t = d.meshgrid()
        p = SpaceTimeField.scalar(d, np.cos(x1) * np.cos(t))
        q = 1.5
        a = 2 * q / (2 - q)
        fine = d.refine(2 * d.N, 2 * d.Nt)
        X1, _, T = fine.meshgrid()
        pf = np.cos(X1) * np.cos(T)
        grad_mag = np.abs(np.sin(X1) * np.cos(T))
        dv = fine.dx**2
        slice_a = (np.sum(np.abs(pf) ** a, axis=(0, 1)) * dv) ** (1 / a)
        slice_g = (np.sum(grad_mag**q, axis=(0, 1)) * dv) ** (1 / q)
        oracle = (np.mean(slice_a**q + slice_g**q)) ** (1 / q)
        assert pressure_norm(p, q) == pytest.approx(oracle, rel=1e-8)

    def test_homogeneity_and_triangle(self):
        d = dom2()
        rng = np.random.default_rng(9)
        p1 = random_band_limited_field(d, 1, rng)
        p2 = random_band_limited_field(d, 1, rng)
        q = 1.5
        assert pressure_norm(4.0 * p1, q) == pytest.approx(
            4.0 * pressure_norm(p1, q), rel=1e-12
        )
        lhs = pressure_norm(p1 + p2, q)
        assert lhs <= pressure_norm(p1, q) + pressure_norm(p2, q) + 1e-12


class TestExponentConstraints:
    def test_stokes_rejects_q_at_half_n(self):
        with pytest.raises(InvalidExponent):
            NormKind(NormTag.STEADY_STOKES, 2.0).validate(3, 0.0)
        with pytest.raises(InvalidExponent):
            NormKind(NormTag.STEADY_STOKES, 1.2).validate(3, 1.0)  # lam != 0
        NormKind(NormTag.STEADY_STOKES, 1.2).validate(3, 0.0)

    def test_oseen_ranges(self):
        NormKind(NormTag.STEADY_OSEEN, 1.8).validate(3, 1.0)
        with pytest.raises(InvalidExponent):
            NormKind(NormTag.STEADY_OSEEN, 2.0).validate(3, 1.0)
        with pytest.raises(InvalidExponent):
            NormKind(NormTag.STEADY_OSEEN, 1.8).validate(3, 0.0)
        NormKind(NormTag.STEADY_OSEEN_2D, 1.2).validate(2, 1.0)
        with pytest.raises(InvalidExponent):
            NormKind(NormTag.STEADY_OSEEN_2D, 1.5).validate(2, 1.0)

    def test_pressure_range(self):
        NormKind(NormTag.PRESSURE_XP, 1.5).validate(2)
        with pytest.raises(InvalidExponent):
            NormKind(NormTag.PRESSURE_XP, 2.5).validate(2)
        with pytest.raises(InvalidExponent):
            pressure_norm(SpaceTimeField.zeros(dom2(), 1), 2.0)

    def test_no_steady_space_for_2d_stokes(self):
        # the theory provides no steady family for n = 2 with lam = 0
        assert steady_kinds(2, 0.0, 1.2) == []
        assert len(steady_kinds(2, 1.0, 1.2)) == 1
        assert [k.tag for k in steady_kinds(3, 0.0, 1.2)] == [NormTag.STEADY_STOKES]
        assert [k.tag for k in steady_kinds(3, 2.0, 1.8)] == [NormTag.STEADY_OSEEN]

    LQ, SOB = NormTag.LQ, NormTag.SOBOLEV_21Q
    STOKES, OSEEN = NormTag.STEADY_STOKES, NormTag.STEADY_OSEEN
    OSEEN_2D, PRESSURE = NormTag.STEADY_OSEEN_2D, NormTag.PRESSURE_XP
    APPLICABLE = [
        (3, 0.0, 1.2, [LQ, SOB, STOKES, PRESSURE]),
        (3, 0.0, 1.5, [LQ, SOB, PRESSURE]),  # Stokes needs q < n/2
        (3, 1.0, 1.9, [LQ, SOB, OSEEN, PRESSURE]),
        (3, 1.0, 2.0, [LQ, SOB, PRESSURE]),  # Oseen needs q < (n+1)/2
        (3, 1.0, 3.0, [LQ, SOB]),  # pressure needs q < n
        (2, 0.0, 1.2, [LQ, SOB, PRESSURE]),  # no 2-d Stokes family
        (2, 1.0, 1.2, [LQ, SOB, OSEEN_2D, PRESSURE]),
        (2, 1.0, 1.5, [LQ, SOB, PRESSURE]),  # 2-d Oseen needs q < 3/2
        (2, 1.0, 2.0, [LQ, SOB]),
        (3, 0.0, 1.0, []),  # every range is open at 1
        (3, 1.0, float("inf"), []),
        (2, 1.0, float("nan"), []),
        (3, -2.5, 1.9, [LQ, SOB, OSEEN, PRESSURE]),
        (2, -2.5, 1.2, [LQ, SOB, OSEEN_2D, PRESSURE]),
        (2, 0.0, 2.0, [LQ, SOB]),  # the pressure bound n = 2 itself
    ]

    @pytest.mark.parametrize("n, lam, q, tags", APPLICABLE)
    def test_applicable_kinds_at_each_bound(self, n, lam, q, tags):
        kinds = _applicable_kinds(n, lam, q)
        assert kinds == [NormKind(tag, q) for tag in tags]
        assert len(steady_kinds(n, lam, q)) <= 1  # at most one steady family

    @pytest.mark.parametrize("n, lam", [(2, 0.0), (2, 1.0), (3, 0.0), (3, -2.5)])
    def test_every_rejection_names_the_family(self, n, lam):
        rejected = 0
        for tag in NormTag:
            for q in (1.0, 1.5, 2.5, 3.0, float("inf"), float("nan")):
                try:
                    NormKind(tag, q).validate(n, lam)
                except InvalidExponent as error:
                    rejected += 1
                    assert tag.value in str(error) and f"q={q}" in str(error)
        assert rejected > 12

    def test_lq_homogeneity_on_valid_sets(self):
        d = dom2()
        f = random_band_limited_field(d, 2, np.random.default_rng(1))
        for q in (1.5, 2.0, 3.0):
            assert lq_norm(0.3 * f, q) == pytest.approx(
                0.3 * lq_norm(f, q), rel=1e-12
            )

    def test_lq_triangle(self):
        d = dom2()
        rng = np.random.default_rng(14)
        f = random_band_limited_field(d, 2, rng)
        g = random_band_limited_field(d, 2, rng)
        for q in (1.5, 2.0, 3.0):
            assert lq_norm(f + g, q) <= lq_norm(f, q) + lq_norm(g, q) + 1e-12


def mixed_report(n, N, lam, q=1.2, scale=1.0):
    """Default norm report of the seed-0 ``mixed`` case on an N^n x N grid."""
    d = TorusDomain(n=n, L=TWO_PI, N=N, T=TWO_PI, Nt=N)
    pr = OseenParams(lam=lam, T=TWO_PI, q=q)
    _, _, f = manufactured_case("mixed", d, pr, seed=0)
    return solve_full(f * scale, pr).norm_report


class TestReportValues:
    # recorded with the full-layout complex quadrature that preceded the
    # real-transform one; families the benchmark reference does not cover
    N3_LAM1 = {
        "lq_data": 1099.2260739593755,
        "lq_velocity": 48.03784799166206,
        "sobolev_21q_periodic": 1354.0774405691016,
        "steady_oseen": 952.6366092351151,
        "pressure_xp": 100.04944367952024,
    }
    CASES = [
        (2, 16, 1.0, {
            "lq_data": 194.98942232126444,
            "lq_velocity": 11.559979157274466,
            "sobolev_21q_periodic": 184.00794585910688,
            "steady_oseen_2d": 221.02843607746223,
            "pressure_xp": 20.554274822718224,
        }),
        (3, 12, 1.0, N3_LAM1),
        (3, 12, 0.0, {
            "lq_data": 1092.3259612561815,
            "lq_velocity": N3_LAM1["lq_velocity"],
            "sobolev_21q_periodic": N3_LAM1["sobolev_21q_periodic"],
            "steady_stokes": 847.4436011072232,
            "pressure_xp": N3_LAM1["pressure_xp"],
        }),
    ]
    # q = 2: the Lq and Sobolev terms run at r = 1, where the rectangle rule
    # is exact; the pressure norm (exponents 6 and 2) runs at r = 2, since
    # r = 1 aliases |p|^6 (it gave 16.726964627586646)
    N3_LAM1_Q2 = {
        "lq_data": 186.48368274906684,
        "lq_velocity": 8.149715464852694,
        "sobolev_21q_periodic": 113.32881574212179,
        "pressure_xp": 16.726766415761798,
    }

    @staticmethod
    def assert_report(report, expected):
        assert set(report) == set(expected)
        for key, value in expected.items():
            assert report[key] == pytest.approx(value, rel=1e-12), key

    @pytest.mark.parametrize("n, N, lam, expected", CASES)
    def test_recorded_values(self, n, N, lam, expected):
        self.assert_report(mixed_report(n, N, lam), expected)

    def test_recorded_values_at_even_q(self):
        self.assert_report(mixed_report(3, 12, 1.0, q=2.0), self.N3_LAM1_Q2)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_homogeneous_at_extreme_scales(self, scale):
        # no square or q-th power may overflow or underflow
        base = mixed_report(2, 16, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scaled = mixed_report(2, 16, 1.0, scale=scale)
        for key, value in base.items():
            expected = pytest.approx(scale * value, rel=1e-12, abs=0.0)
            assert scaled[key] == expected, key


class TestNoOverflow:
    # the summed squares of several components and orders are divided by
    # their own maximum, so no q-th power exceeds 1; scaling by the largest
    # entry alone gave NaN or inf from q = 2800 on these cases
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_large_exponents_stay_finite(self, seed):
        d = TorusDomain(n=3, L=TWO_PI, N=12, T=TWO_PI, Nt=12)
        u, _, _ = manufactured_case(
            "random", d, OseenParams(lam=0.0, T=TWO_PI, q=2.0), seed=seed
        )
        for q in (2800.0, 4000.0, 10000.0):
            for norm in (lq_norm, sobolev_norm_21q):
                value = norm(u, q)
                assert np.isfinite(value) and value > 0.0, (norm.__name__, q)


class TestQuadratureWork:
    def test_steady_norm_transforms_one_spatial_slice(
        self, monkeypatch, record_transforms, transform_passes
    ):
        # one forward transform of the time-mean slice serves every term;
        # the 2-d Oseen norm adds one of v2 for its two v2 terms
        for d, lam, q, forwards in (
            (dom3(), 0.0, 1.2, 1), (dom3(), 1.0, 1.2, 1), (dom2(), 1.0, 1.2, 2)
        ):
            v = random_band_limited_field(
                d, d.n, np.random.default_rng(4), solenoidal=True,
                time_constant=True, zero_spatial_mean=True,
            )
            (kind,) = steady_kinds(d.n, lam, q)
            calls = record_transforms()
            steady_norm(v, kind, lam)
            monkeypatch.undo()
            # the forward passes of the slice, and of v2's slice
            slices = [(d.n,) + (d.N,) * d.n, (1,) + (d.N,) * d.n][:forwards]
            forward = [call for call in calls if call[0] in ("rfft", "fft")]
            assert forward == transform_passes(
                *[("rfftn", shape) for shape in slices]
            ), (kind, calls)
            # components first, then the n spatial axes and no time axis
            assert all(len(shape) == d.n + 1 for _, shape in calls), calls

    @staticmethod
    def assert_streamed(calls, forward, shape, heads):
        # first the passes ``forward`` of one forward transform of samples
        # of ``shape``; the inverse is pruned and streamed: ``heads`` padded
        # first-axis transforms at r = 2, one per distinct alpha[0] of the
        # call (each built once, the first before any slab), and slabs, so
        # no other inverse input is larger than one slab
        assert calls[: len(forward)] == forward, calls
        inverse = calls[len(forward):]
        coeff = shape[:-1] + (shape[-1] // 2 + 1,)
        head = ("ifft", (coeff[0], 2 * coeff[1]) + coeff[2:])
        assert inverse[0] == head, calls
        assert inverse.count(head) == heads, calls
        slabs = [call for call in inverse if call != head]
        assert {name for name, _ in slabs} == {"ifft", "irfft"}, calls
        assert max(16 * int(np.prod(slab)) for _, slab in slabs) <= _SLAB_BYTES

    def test_sobolev_shares_one_forward_transform(
        self, record_transforms, transform_passes
    ):
        # one block per derivative (11), visited by alpha[0], so the blocks
        # share one head for each alpha[0] in 0..2
        d = dom3(12, 12)
        u = random_band_limited_field(d, 3, np.random.default_rng(6))
        calls = record_transforms()
        sobolev_norm_21q(u, 1.2)
        shape = u.samples.shape
        self.assert_streamed(calls, transform_passes(("rfftn", shape)), shape, 3)

    def test_sobolev_2d_shares_its_heads(self, record_transforms, transform_passes):
        # 7 blocks at n=2, and again one head for each alpha[0] in 0..2
        u = random_band_limited_field(dom2(), 2, np.random.default_rng(6))
        calls = record_transforms()
        sobolev_norm_21q(u, 1.2)
        shape = u.samples.shape
        self.assert_streamed(calls, transform_passes(("rfftn", shape)), shape, 3)

    def test_lq_makes_one_forward_transform(self, record_transforms, transform_passes):
        d = dom3(12, 12)
        u = random_band_limited_field(d, 3, np.random.default_rng(6))
        calls = record_transforms()
        lq_norm(u, 1.2)
        shape = u.samples.shape
        self.assert_streamed(calls, transform_passes(("rfftn", shape)), shape, 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_pressure_shares_one_forward_transform(
        self, n, record_transforms, transform_passes
    ):
        # the gradient block's alpha[0] is 1 for d1 and 0 for the others,
        # and it reuses the underived block's alpha[0] = 0 head
        d = dom2() if n == 2 else dom3(12, 12)
        p = random_band_limited_field(d, 1, np.random.default_rng(6))
        calls = record_transforms()
        pressure_norm(p, 1.2)
        shape = p.samples.shape
        self.assert_streamed(calls, transform_passes(("rfftn", shape)), shape, 2)

    @pytest.mark.parametrize(
        "lam, q", [(0.0, 1.4), (0.0, 1.2), (1.0, 1.4), (1.0, 1.2), (1.0, 4 / 3)]
    )
    def test_steady_norm_shares_its_heads(
        self, lam, q, record_transforms, transform_passes
    ):
        # Stokes: blocks v, grad v, grad^2 v, with alpha[0] in {0}, {0, 1}
        # and {0, 1, 2} (6 heads if each block built its own); Oseen adds
        # d1 v, alpha[0] = 1 (7).  The call is refined by 2, as at every
        # admissible q (TestOneRefinementPerCall), so the slice's three heads
        # serve every block; at q = 1.2 (Stokes) and 4/3 (Oseen) the
        # gradient's exponent is the nearest double to 2.
        d = dom3(12, 12)
        v = random_band_limited_field(
            d, 3, np.random.default_rng(4), solenoidal=True,
            time_constant=True, zero_spatial_mean=True,
        )
        (kind,) = steady_kinds(3, lam, q)
        calls = record_transforms()
        steady_norm(v, kind, lam)
        shape = (3,) + (d.N,) * 3
        self.assert_streamed(calls, transform_passes(("rfftn", shape)), shape, 3)

    def test_block_sums_are_freed_between_blocks(self):
        # Holding one block's sum through the next block's inverse adds a
        # refined array to the peak; compare with the one-block Lq norm of
        # the same field, so the bound does not depend on numpy's temporaries.
        d = TorusDomain(n=3, L=TWO_PI, N=16, T=TWO_PI, Nt=16)
        pr = OseenParams(lam=0.0, T=TWO_PI, q=1.2)
        _, _, f = manufactured_case("mixed", d, pr, seed=0)
        bundle = solve_full(f, pr, norm_kinds=[])

        def peak(norm, field):
            tracemalloc.start()
            try:
                norm(field, 1.2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        w, p = bundle.w, bundle.p
        assert peak(sobolev_norm_21q, w) <= 1.05 * peak(lq_norm, w)
        assert peak(pressure_norm, p) <= 2.0 * peak(lq_norm, p)

    def test_time_mean_allocates_no_full_grid(self, traced_peak, bound_case):
        # v is a broadcast spatial slice; 0.188x measured, 2.06x when the
        # drift was taken from |samples - mean| on the full grid
        _, pr, f = bound_case
        v = solve_full(f, pr, norm_kinds=[]).v
        peak, mean = traced_peak(lambda: _time_mean(v))
        assert np.array_equal(mean, np.mean(v.samples, axis=-1))
        assert peak <= 0.25 * f.samples.nbytes

    def test_fine_grid_values_and_allocation(self):
        # n=3, N=Nt=32, q=1.2: values recorded with the full-grid inverse,
        # which peaked at 50.6x (lq) and 98.6x (pressure) the input
        d = TorusDomain(n=3, L=TWO_PI, N=32, T=TWO_PI, Nt=32)
        u = random_band_limited_field(d, 3, np.random.default_rng(6))
        p = random_band_limited_field(d, 1, np.random.default_rng(7))
        for norm, field, expected, bound in (
            (lq_norm, u, 29.992137533045693, 8),
            (pressure_norm, p, 141.50047965294854, 16),
        ):
            tracemalloc.start()
            try:
                value = norm(field, 1.2)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert value == pytest.approx(expected, rel=1e-12), norm.__name__
            assert peak <= bound * field.samples.nbytes, norm.__name__

    def test_slab_band_is_freed_once_padded(self, monkeypatch, traced_peak):
        # a slab's band, times its other factors, is handed to ``_rows`` and
        # freed once padded; holding it through the row passes raised these
        # serial peaks from 0.988x to 1.035x (steady, n=3, N=Nt=16, q=1.2)
        # and from 4.476x to 4.610x (Sobolev, n=2, N=Nt=32, q=1.5) the input
        monkeypatch.setattr(spectral, "_WORKERS", 1)
        for n, N, q, bound in ((3, 16, 1.2, 1.01), (2, 32, 1.5, 4.55)):
            d = TorusDomain(n=n, L=TWO_PI, N=N, T=TWO_PI, Nt=N)
            pr = OseenParams(lam=0.0, T=TWO_PI, q=q)
            _, _, f = manufactured_case("mixed", d, pr, seed=0)
            bundle = solve_full(f, pr, norm_kinds=[])
            if n == 3:
                field = bundle.v
                kind = NormKind(NormTag.STEADY_STOKES, q)
                norm = lambda: steady_norm(field, kind, 0.0)  # noqa: E731
            else:
                field = bundle.u
                norm = lambda: sobolev_norm_21q(field, q)  # noqa: E731
            norm()  # numpy's lazy set-up
            peak, _ = traced_peak(norm)
            assert peak <= bound * field.samples.nbytes, (n, peak)

    def test_report_allocation_bounded_by_input_size(self):
        d = TorusDomain(n=3, L=TWO_PI, N=16, T=TWO_PI, Nt=16)
        pr = OseenParams(lam=0.0, T=TWO_PI, q=1.2)
        _, _, f = manufactured_case("mixed", d, pr, seed=0)
        tracemalloc.start()
        try:
            solve_full(f, pr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 96 * f.samples.nbytes


class TestOneRefinementPerCall:
    # _block_norms refines all the blocks of a call by one factor, which is 1
    # only when every exponent is 2.  That changes no value as long as no
    # steady block's exponent is 2 (each other norm passes one exponent, or
    # shares one factor already); these tests pin that premise.
    STEADY = [(3, 0.0), (3, 1.0), (2, 1.0)]  # (n, lam) of each steady family

    @staticmethod
    def exponents(tag, n, q):
        """The exponents of ``steady_norm``'s blocks, in its order and by its
        arithmetic, elementwise over the array ``q``."""
        m = n if tag == NormTag.STEADY_STOKES else n + 1
        out = [m * q / (m - 2 * q), m * q / (m - q), q]
        if tag != NormTag.STEADY_STOKES:
            out.insert(2, q)
        if tag == NormTag.STEADY_OSEEN_2D:
            out += [q, 2 * q / (2 - q)]
        return out

    @staticmethod
    def doubles(center, below, above):
        """The ``below`` doubles under ``center`` and ``above`` over it."""
        bits = np.array([center]).view(np.int64)
        return (bits + np.arange(-below, above + 1)).view(np.float64)

    @pytest.mark.parametrize("n, lam", STEADY)
    def test_exponents_are_formed_as_steady_norm_forms_them(
        self, monkeypatch, n, lam
    ):
        seen = []

        def record(samples, domain, blocks, per_slice=False):
            seen.append([q for _, q in blocks])
            return [0.0] * len(blocks)

        monkeypatch.setattr(norms, "_block_norms", record)
        v = SpaceTimeField.zeros(dom2(8, 8) if n == 2 else dom3(8, 8), n)
        for q in self.doubles(1.2, 2, 2).tolist() + [4 / 3, 1.001]:
            (kind,) = steady_kinds(n, lam, q)
            seen.clear()
            steady_norm(v, kind, lam)
            want = [e[0] for e in self.exponents(kind.tag, n, np.array([q]))]
            assert [e for call in seen for e in call] == want, (kind, q)

    @pytest.mark.parametrize("n, lam", STEADY)
    def test_no_admissible_q_gives_a_steady_exponent_of_two(self, n, lam):
        # the gradient's exponent m q / (m - q) is 2 at q = 6/5 (m = 3) and
        # q = 4/3 (m = 4) and monotone in q, and 4q/(4 - 2q) and 2q/(2 - q)
        # are 2 at q = 1; so scan 10^6 doubles on each side of 6/5 and 4/3,
        # and the first 10^6 above 1, within the family's range
        (kind,) = steady_kinds(n, lam, 1.2)
        bound = norms._exponent_bound(kind.tag, n, lam)
        for q in (
            self.doubles(6 / 5, 10**6, 10**6),
            self.doubles(4 / 3, 10**6, 10**6),
            self.doubles(1.0, 0, 10**6)[1:],
        ):
            q = q[(1.0 < q) & (q < bound)]
            for exponent in self.exponents(kind.tag, n, q):
                assert not np.any(exponent == 2.0), kind


def report_hex(f, params):
    """The default norm report of ``solve_full`` with each value as
    ``float.hex``, so that equal reports are equal bitwise."""
    report = solve_full(f, params).norm_report
    return {key: float(value).hex() for key, value in report.items()}


class TestThreadedQuadrature:
    # each slab's (sum, top) is computed in some thread and the caller
    # combines them in slab order, so no value depends on the thread count
    @pytest.mark.parametrize(
        "n, N, L, T",
        [(2, 16, TWO_PI, TWO_PI), (2, 16, 3.0, 5.0),
         (3, 12, TWO_PI, TWO_PI), (3, 12, 3.0, 5.0)],
    )
    def test_reports_are_bitwise_equal_across_thread_counts(
        self, monkeypatch, n, N, L, T
    ):
        d = TorusDomain(n=n, L=L, N=N, T=T, Nt=N)
        for lam, q in itertools.product([0.0, 1.0, -2.5], [1.2, 1.5, 2.0, 3.0, 4.0]):
            pr = OseenParams(lam=lam, T=T, q=q)
            _, _, f = manufactured_case("mixed", d, pr, seed=3)
            reports = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(spectral, "_WORKERS", workers)
                reports.append(report_hex(f, pr))
            assert reports[1] == reports[0] and reports[2] == reports[0], (lam, q)

    def test_fine_grid_report_is_bitwise_equal_across_thread_counts(
        self, monkeypatch
    ):
        d = TorusDomain(n=3, L=TWO_PI, N=32, T=TWO_PI, Nt=32)
        pr = OseenParams(lam=0.0, T=TWO_PI, q=1.2)
        _, _, f = manufactured_case("mixed", d, pr, seed=3)
        reports = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(spectral, "_WORKERS", workers)
            reports.append(report_hex(f, pr))
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_each_worker_adds_at_most_one_slab_to_the_peak(self, monkeypatch):
        # norm-report's shape: one refined row is 256 KiB, so a slab holds
        # one row, and each one in flight adds about 2.6 slabs to the peak
        # (lq_norm 5.72, 6.37 and 7.01 MiB, pressure_norm 3.48, 4.12 and
        # 4.76 MiB at 1, 2 and 3 workers)
        d = TorusDomain(n=3, L=TWO_PI, N=16, T=TWO_PI, Nt=16)
        pr = OseenParams(lam=0.0, T=TWO_PI, q=1.2)
        _, _, f = manufactured_case("mixed", d, pr, seed=0)
        bundle = solve_full(f, pr, norm_kinds=[])

        def peak(norm, field):
            tracemalloc.start()
            try:
                norm(field, 1.2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for norm, field in ((lq_norm, bundle.u), (pressure_norm, bundle.p)):
            monkeypatch.setattr(spectral, "_WORKERS", 1)
            serial = peak(norm, field)
            for workers in (2, 3):
                monkeypatch.setattr(spectral, "_WORKERS", workers)
                bound = serial + (workers - 1) * 3 * _SLAB_BYTES
                assert peak(norm, field) <= bound, (norm.__name__, workers)

    def test_slab_error_is_raised_after_every_thread_ends(self, monkeypatch):
        # one worker fails at its first slab while another is still busy
        # with one: the caller must wait for it before raising
        monkeypatch.setattr(spectral, "_WORKERS", 3)
        original = norms._squared_magnitude
        seen, lock = [], threading.Lock()
        start = threading.Barrier(2, timeout=60)

        def failing(arrays):
            thread = threading.current_thread()
            if thread is not threading.main_thread():
                with lock:
                    seen.append(thread)
                    first = len(seen) == 1
                start.wait()  # both workers hold a slab
                if first:
                    raise ArithmeticError("a slab failed")
                time.sleep(0.1)
            return original(arrays)

        monkeypatch.setattr(norms, "_squared_magnitude", failing)
        d = dom3(12, 12)
        u = random_band_limited_field(d, 3, np.random.default_rng(6))
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="a slab failed"):
            lq_norm(u, 1.2)
        assert threading.active_count() == before
        assert len(set(seen)) == 2
        assert not any(thread.is_alive() for thread in seen)

    def test_no_thread_outlives_a_norm(self, monkeypatch):
        # the streamed inverse maps its slabs on threads of its call and
        # joins them before it returns
        monkeypatch.setattr(spectral, "_WORKERS", 2)
        u = random_band_limited_field(dom3(12, 12), 3, np.random.default_rng(7))
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        before = threading.active_count()
        sobolev_norm_21q(u, 1.2)
        assert threading.active_count() == before
        assert started and not any(thread.is_alive() for thread in started)
