"""Tests for the space-time torus transform and spectral calculus."""

import numpy as np
import pytest

from tpoe import (
    DomainMismatch,
    DualIndex,
    NonHermitian,
    OseenParams,
    SpaceTimeField,
    SpectralField,
    TorusDomain,
    apply_helmholtz,
    embed_spectrum,
    forward,
    inverse,
    lq_norm,
    plancherel_norm,
    random_band_limited_field,
    refine,
    spectral_derivative,
    transference_check,
)
from tpoe import spectral
from tpoe.spectral import _refined_derivatives

TWO_PI = 2.0 * np.pi


def dom2(N=32, Nt=32, L=TWO_PI, T=TWO_PI):
    return TorusDomain(n=2, L=L, N=N, T=T, Nt=Nt)


class TestTorusDomain:
    def test_invariants_rejected(self):
        with pytest.raises(ValueError, match="2 or 3"):
            TorusDomain(n=1, L=TWO_PI, N=16, T=TWO_PI, Nt=16)
        with pytest.raises(ValueError, match="even"):
            TorusDomain(n=2, L=TWO_PI, N=15, T=TWO_PI, Nt=16)
        with pytest.raises(ValueError, match="even"):
            TorusDomain(n=2, L=TWO_PI, N=16, T=TWO_PI, Nt=2)
        with pytest.raises(ValueError, match="positive"):
            TorusDomain(n=2, L=-1.0, N=16, T=TWO_PI, Nt=16)
        with pytest.raises(ValueError, match="positive"):
            TorusDomain(n=2, L=TWO_PI, N=16, T=0.0, Nt=16)

    def test_mode_ranges(self):
        d = dom2(N=8, Nt=8)
        assert sorted(d.spatial_modes()) == list(range(-4, 4))
        assert list(d.time_modes()) == list(range(0, 5))
        assert d.spectral_shape == (8, 8, 5)

    def test_dual_index_frequencies(self):
        d = TorusDomain(n=2, L=4.0, N=8, T=3.0, Nt=8)
        xi, eta = DualIndex((1, -2), 3).frequencies(d)
        assert xi[0] == pytest.approx(2 * np.pi / 4.0)
        assert xi[1] == pytest.approx(-2 * 2 * np.pi / 4.0)
        assert eta == pytest.approx(3 * 2 * np.pi / 3.0)


class TestTransform:
    def test_constant_field_single_coefficient(self):
        # only the zero character integrates to a nonzero value
        d = dom2()
        c = 3.25
        field = SpaceTimeField.scalar(d, np.full(d.grid_shape, c))
        spec = forward(field)
        zero = spec.get(DualIndex((0, 0), 0))[0]
        assert zero == pytest.approx(c, rel=1e-13)
        rest = spec.coefficients.copy()
        rest[0, 0, 0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-12 * abs(zero)

    def test_cosine_splits_into_two_modes(self):
        # Euler's formula under the mean normalization:
        # modulus c/2 at m = +-e1, k = 0
        d = dom2()
        c = 2.0
        x1 = d.meshgrid()[0]
        spec = forward(SpaceTimeField.scalar(d, c * np.cos(x1)))
        expected = c / 2.0
        for m in ((1, 0), (-1, 0)):
            assert abs(spec.get(DualIndex(m, 0))[0]) == pytest.approx(
                expected, rel=1e-13
            )
        spec.coefficients[0, 1, 0, 0] = 0.0
        spec.coefficients[0, -1, 0, 0] = 0.0
        assert np.max(np.abs(spec.coefficients)) < 1e-12 * expected

    def test_negative_time_mode_reads_conjugate(self):
        # sin(x1 + t) = (e^{i(x1 + t)} - e^{-i(x1 + t)}) / 2i: the half
        # spectrum holds -i/2 at (e1, 1), and (-e1, -1) reads its conjugate
        d = dom2(N=16, Nt=16)
        x1, _, t = d.meshgrid()
        spec = forward(SpaceTimeField.scalar(d, np.sin(x1 + t)))
        assert spec.get(DualIndex((1, 0), 1))[0] == pytest.approx(-0.5j, abs=1e-15)
        assert spec.get(DualIndex((-1, 0), -1))[0] == pytest.approx(0.5j, abs=1e-15)
        assert abs(spec.get(DualIndex((1, 0), -1))[0]) <= 1e-15

    def test_roundtrip_random_band_limited(self):
        d = dom2()
        f = random_band_limited_field(d, 2, np.random.default_rng(7))
        assert (inverse(forward(f)) - f).max_abs() <= 1e-12

    def test_inverse_then_forward_roundtrip(self):
        d = dom2(N=16, Nt=16)
        f = random_band_limited_field(d, 1, np.random.default_rng(3))
        spec = forward(f)
        again = forward(inverse(spec))
        assert np.max(np.abs(again.coefficients - spec.coefficients)) <= (
            1e-12 * spec.max_abs()
        )

    def test_forward_of_real_is_hermitian(self):
        d = dom2(N=16, Nt=16)
        rng = np.random.default_rng(11)
        f = SpaceTimeField.vector(d, rng.standard_normal((2,) + d.grid_shape))
        spec = forward(f)
        assert spec.hermitian_defect() <= 1e-12 * spec.max_abs()

    def test_linearity(self):
        d = dom2(N=16, Nt=16)
        rng = np.random.default_rng(5)
        f = random_band_limited_field(d, 2, rng)
        g = random_band_limited_field(d, 2, rng)
        a, b = 2.5, -1.25
        lhs = forward(a * f + b * g).coefficients
        rhs = a * forward(f).coefficients + b * forward(g).coefficients
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_non_hermitian_input_rejected(self):
        d = dom2(N=16, Nt=16)
        coeff = np.zeros((1,) + d.spectral_shape, dtype=complex)
        coeff[0, 1, 0, 0] = 1.0 + 2.0j  # no conjugate partner
        with pytest.raises(NonHermitian):
            inverse(SpectralField(d, coeff))

    def test_nyquist_content_rejected(self):
        d = dom2(N=16, Nt=16)
        coeff = np.zeros((1,) + d.spectral_shape, dtype=complex)
        coeff[0, 8, 0, 0] = 1.0  # spatial Nyquist row is self-conjugate
        with pytest.raises(NonHermitian, match="Nyquist"):
            inverse(SpectralField(d, coeff))

    def test_shape_mismatch_rejected(self):
        d = dom2(N=16, Nt=16)
        with pytest.raises(DomainMismatch):
            SpaceTimeField(d, np.zeros((2, 16, 16, 8)))
        with pytest.raises(DomainMismatch):
            SpaceTimeField(d, np.zeros((3, 16, 16, 16)))
        with pytest.raises(DomainMismatch):
            SpaceTimeField.scalar(d, np.full(d.grid_shape, np.nan))
        with pytest.raises(DomainMismatch, match="coefficients shape"):
            SpectralField(d, np.zeros((2,) + d.grid_shape, dtype=complex))
        with pytest.raises(DomainMismatch, match="components"):
            SpectralField(d, np.zeros((3,) + d.spectral_shape, dtype=complex))
        coeff = np.zeros((1,) + d.spectral_shape, dtype=complex)
        coeff[0, 1, 0, 0] = complex(np.inf, 0.0)
        with pytest.raises(DomainMismatch, match="coefficients contain non-finite"):
            SpectralField(d, coeff)


class TestDerivative:
    def test_cosine_derivative(self):
        d = dom2()
        x1 = d.meshgrid()[0]
        spec = forward(SpaceTimeField.scalar(d, np.cos(x1)))
        ds = inverse(spectral_derivative(spec, (1, 0), 0))
        assert np.max(np.abs(ds.samples[0] + np.sin(x1))) <= 1e-12

    def test_time_mode_factor(self):
        # the pure oscillation e^{i(2pi/T)t} picks up the factor i*2pi/T
        d = dom2(N=16, Nt=16, T=3.0)
        t = d.meshgrid()[2]
        f = SpaceTimeField.scalar(d, np.cos(2 * np.pi / d.T * t))
        spec = spectral_derivative(forward(f), (0, 0), 1)
        value = spec.get(DualIndex((0, 0), 1))[0]
        base = forward(f).get(DualIndex((0, 0), 1))[0]
        assert value == pytest.approx(1j * 2 * np.pi / d.T * base, rel=1e-13)
        ds = inverse(spec)
        expected = -2 * np.pi / d.T * np.sin(2 * np.pi / d.T * t)
        assert np.max(np.abs(ds.samples[0] - expected)) <= 1e-12

    def test_matches_centered_differences_at_order_two(self):
        # error ratio under grid halving must sit near 2^2 = 4
        base = dom2(N=16, Nt=16)
        f16 = random_band_limited_field(
            base, 1, np.random.default_rng(2), m_max=3, k_max=3
        )
        errors = []
        for N in (16, 32):
            f = f16 if N == 16 else refine(f16, N, N)
            d = f.domain
            exact = inverse(spectral_derivative(forward(f), (1, 0), 0)).samples
            fd = (
                np.roll(f.samples, -1, axis=1) - np.roll(f.samples, 1, axis=1)
            ) / (2 * d.dx)
            errors.append(np.max(np.abs(fd - exact)))
        ratio = errors[0] / errors[1]
        assert 3.5 <= ratio <= 4.5

    def test_order_limits_enforced(self):
        d = dom2(N=16, Nt=16)
        spec = forward(SpaceTimeField.zeros(d, 1))
        with pytest.raises(ValueError):
            spectral_derivative(spec, (2, 1), 0)
        with pytest.raises(ValueError):
            spectral_derivative(spec, (0, 0), 2)
        with pytest.raises(DomainMismatch):
            spectral_derivative(spec, (1, 0, 0), 0)


class TestPlancherel:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_quadrature_l2(self, n):
        d = TorusDomain(n=n, L=3.0, N=16, T=5.0, Nt=16)
        for seed in range(3):
            f = random_band_limited_field(d, n, np.random.default_rng(seed))
            spectral = plancherel_norm(forward(f))
            physical = lq_norm(f, 2.0)
            assert spectral == pytest.approx(physical, rel=1e-12)


class TestRefine:
    def test_refined_field_matches_analytic_samples(self):
        d = dom2(N=16, Nt=16)
        x1, x2, t = d.meshgrid()
        f = SpaceTimeField.scalar(d, np.cos(x1 + t) + 0.5 * np.sin(2 * x2))
        fine = refine(f, 32, 64)
        y1, y2, s = fine.domain.meshgrid()
        expected = np.cos(y1 + s) + 0.5 * np.sin(2 * y2)
        assert np.max(np.abs(fine.samples[0] - expected)) <= 1e-12

    def test_same_seed_same_continuum_field_across_resolutions(self):
        # band-limited draws are grid-independent: generating at N=32 equals
        # refining the N=16 field from the same seed
        coarse = dom2(N=16, Nt=16)
        fine = dom2(N=32, Nt=32)
        f_c = random_band_limited_field(
            coarse, 2, np.random.default_rng(9), m_max=3, k_max=3,
            solenoidal=True, purely_periodic=True,
        )
        f_f = random_band_limited_field(
            fine, 2, np.random.default_rng(9), m_max=3, k_max=3,
            solenoidal=True, purely_periodic=True,
        )
        assert (refine(f_c, 32, 32) - f_f).max_abs() <= 1e-12


class TestSingleBackend:
    def test_forward_and_inverse_make_one_real_transform(self, record_transforms):
        d = dom2(N=16, Nt=16)
        f = random_band_limited_field(d, 2, np.random.default_rng(1))
        calls = record_transforms()
        inverse(forward(f))
        assert calls == [
            ("rfftn", (2,) + d.grid_shape), ("irfftn", (2,) + d.spectral_shape)
        ]

    def test_no_complex_transform(self, record_transforms):
        d = dom2(N=16, Nt=16)
        calls = record_transforms()
        f = random_band_limited_field(d, 2, np.random.default_rng(2))
        refine(f, 32, 32)
        apply_helmholtz(f)
        assert transference_check(d, OseenParams(lam=1.0, T=d.T, q=2.0)) == 0.0
        names = [name for name, _ in calls]
        assert names == ["irfftn"] + ["rfftn", "irfftn"] * 2, names


class TestRefinedDerivatives:
    # the streamed inverse of the norm quadrature against the public
    # calculus: forward, spectral_derivative, embed_spectrum, inverse
    ORDERS = [((0, 0), 0), ((1, 0), 0), ((1, 1), 0), ((0, 2), 0), ((0, 0), 1)]

    def public_calculus(self, f, refinement):
        d = f.domain
        fine = d.refine(refinement * d.N, refinement * d.Nt)
        spec = forward(f)
        return [
            inverse(
                embed_spectrum(spectral_derivative(spec, alpha, beta), fine),
                check=False,
            ).samples
            for alpha, beta in self.ORDERS
        ]

    @staticmethod
    def joined(samples, domain, orders, refinement):
        """Each order's slabs, one array per order and component, joined
        along the first spatial axis; and the row count of every slab."""
        components = samples.shape[0]
        (stream,) = _refined_derivatives(samples, domain, [orders], refinement)
        slabs = [list(slab) for slab in stream]
        assert all(len(slab) == len(orders) * components for slab in slabs)
        rows = [slab[0].shape[1] for slab in slabs]
        joined = [
            np.concatenate(
                [np.concatenate(slab[i:i + components]) for slab in slabs], axis=1
            )
            for i in range(0, len(orders) * components, components)
        ]
        return joined, rows

    def assert_matches(self, got, expected):
        for samples, want in zip(got, expected, strict=True):
            assert samples.shape == want.shape
            scale = np.max(np.abs(want))
            assert np.max(np.abs(samples - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("refinement", [1, 2, 3])
    def test_matches_full_layout(self, refinement):
        # unfiltered samples populate the Nyquist modes, which both drop
        d = dom2(N=12, Nt=8, L=3.0, T=5.0)
        rng = np.random.default_rng(11)
        f = SpaceTimeField(d, rng.standard_normal((2,) + d.grid_shape))
        got, _ = self.joined(f.samples, d, self.ORDERS, refinement)
        self.assert_matches(got, self.public_calculus(f, refinement))

    def test_short_last_slab(self, monkeypatch, record_transforms):
        # 7 refined rows per slab (24 = 7 + 7 + 7 + 3) and 5 band columns
        # per first-axis chunk (12 = 5 + 5 + 2)
        d = dom2(N=12, Nt=8, L=3.0, T=5.0)
        monkeypatch.setattr(spectral, "_SLAB_BYTES", 7 * 8 * 24 * 16)
        f = SpaceTimeField(
            d, np.random.default_rng(13).standard_normal((2,) + d.grid_shape)
        )
        calls = record_transforms()
        got, rows = self.joined(f.samples, d, self.ORDERS, 2)
        assert rows == [7, 7, 7, 3]
        # both components at once only along the first axis, once per alpha[0]
        chunks = [shape[2] for name, shape in calls if name == "ifft" and shape[0] == 2]
        assert chunks == [5, 5, 2] * 2
        self.assert_matches(got, self.public_calculus(f, 2))

    def test_spatial_slice_matches_every_time_slice(self):
        d = dom2(N=12, Nt=8, L=3.0, T=5.0)
        spatial = np.random.default_rng(12).standard_normal((2, d.N, d.N))
        f = SpaceTimeField(
            d, np.repeat(spatial[..., np.newaxis], d.Nt, axis=-1)
        )
        orders = self.ORDERS[:4]  # no time derivative without a time axis
        got, _ = self.joined(spatial, d, orders, 2)
        got = [np.repeat(g[..., np.newaxis], 2 * d.Nt, axis=-1) for g in got]
        self.assert_matches(got, self.public_calculus(f, 2)[:4])
