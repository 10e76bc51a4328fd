"""Tests for the multiplier, projector, and cut-off symbol evaluations.

The projector, pressure and steady symbols are read off the solver's
spectral functions at single modes; the multiplier off its grid.  Grids and
spectra are half spectra (k >= 0); a k < 0 read conjugates the entry at
(-m, -k).
"""

import itertools

import numpy as np
import pytest

from tpoe import (
    DualIndex,
    OseenParams,
    SpectralField,
    TorusDomain,
    cutoff_chi,
    evaluate_m,
)
from tpoe.solver import _invert, _split, project_solenoidal
from tpoe.symbols import _weight, time_periodic_multiplier_grid

TWO_PI = 2.0 * np.pi


def params(lam=0.0, T=TWO_PI, q=2.0):
    return OseenParams(lam=lam, T=T, q=q)


def dom(n=3, N=8, Nt=8, L=TWO_PI, T=TWO_PI):
    return TorusDomain(n=n, L=L, N=N, T=T, Nt=Nt)


def position(d, m, k=0):
    """Half-spectrum position of the dual index (m, k), k >= 0."""
    assert 0 <= k <= d.Nt // 2
    return tuple(mj % d.N for mj in m) + (k,)


def multiplier_at(d, p, m, k):
    """Solution multiplier at one dual-grid point, read off the half grid;
    for k < 0 the conjugate of the entry at (-m, -k)."""
    grid = time_periodic_multiplier_grid(d, p)
    if k < 0:
        return np.conj(grid[position(d, [-mj for mj in m], -k)])
    return grid[position(d, m, k)]


def steady_inverse_at(d, lam, m):
    """The steady inverse the solver applies: ``_invert`` on the unit k == 0
    spectrum at spatial mode m, read back at that mode."""
    pos = (0,) + position(d, m)
    coeff = np.zeros((1,) + d.spectral_shape, dtype=complex)
    coeff[pos] = 1.0
    return _invert(coeff, d, lam)[pos]


def single_mode(d, m, j, k=1):
    """Spectrum with one unit coefficient: component j at the mode (m, k)."""
    coeff = np.zeros((d.n,) + d.spectral_shape, dtype=complex)
    coeff[(j,) + position(d, m, k)] = 1.0
    return SpectralField(d, coeff)


def projector_at(d, m):
    """Matrix of ``project_solenoidal`` at spatial mode m, column j = P e_j."""
    pos = (slice(None),) + position(d, m, 1)
    return np.stack(
        [project_solenoidal(single_mode(d, m, j)).coefficients[pos]
         for j in range(d.n)],
        axis=1,
    )


def pressure_covector_at(d, m):
    """Pressure coefficient of each unit forcing e_j at spatial mode m."""
    return np.array([
        -1j * _split(d.xi_grids(), single_mode(d, m, j).coefficients.copy())[
            position(d, m, 1)
        ]
        for j in range(d.n)
    ])


class TestCutoff:
    def test_plateaus(self):
        assert cutoff_chi(0.0) == 1.0
        assert cutoff_chi(0.5) == 1.0
        assert cutoff_chi(-0.4) == 1.0
        assert cutoff_chi(1.0) == 0.0
        assert cutoff_chi(1.5) == 0.0
        assert cutoff_chi(-2.0) == 0.0

    def test_midpoint_value(self):
        # s(1/2) = g(1/2) / (g(1/2) + g(1/2)) = 1/2 for the chosen bump
        assert cutoff_chi(0.75) == pytest.approx(0.5, abs=1e-15)
        assert 0.0 < cutoff_chi(0.75) < 1.0

    def test_even_and_monotone(self):
        grid = np.linspace(0.5, 1.0, 201)
        values = np.array([cutoff_chi(x) for x in grid])
        assert np.all(np.diff(values) <= 1e-15)
        for x in (0.3, 0.6, 0.8, 0.97):
            assert cutoff_chi(-x) == cutoff_chi(x)

    def test_range(self):
        for x in np.linspace(-3, 3, 301):
            assert 0.0 <= cutoff_chi(x) <= 1.0

    def test_array_equals_scalar_calls(self):
        # an array argument gives an array, entry by entry the scalar value
        edges = [0.5, 0.75, 1.0, np.inf]
        eta = np.concatenate([np.linspace(-3.0, 3.0, 2001), edges, np.negative(edges)])
        values = cutoff_chi(eta)
        assert isinstance(values, np.ndarray) and values.shape == eta.shape
        expected = np.array([cutoff_chi(float(x)) for x in eta])
        assert values.tobytes() == expected.tobytes()

    def test_widened_spec(self, monkeypatch):
        import tpoe.symbols as symbols_module

        monkeypatch.setattr(symbols_module, "_CUTOFF_RADII", (2.0, 4.0))
        assert cutoff_chi(1.0) == 1.0
        assert cutoff_chi(5.0) == 0.0


class TestOseenParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            OseenParams(lam=0.0, T=-1.0, q=2.0)
        with pytest.raises(ValueError):
            OseenParams(lam=0.0, T=1.0, q=1.0)


class TestTimePeriodicMultiplier:
    def test_steady_stratum_annihilated(self):
        d = dom()
        for m in ((0, 0, 0), (1, 2, 3), (-2, 1, 0)):
            assert multiplier_at(d, params(lam=2.5), m, 0) == 0.0

    def test_pure_time_mode(self):
        value = multiplier_at(dom(), params(lam=4.0), (0, 0, 0), 1)
        assert value == pytest.approx(-1j, abs=1e-15)

    def test_oseen_cancellation(self):
        value = multiplier_at(dom(), params(lam=1.0), (1, 0, 0), 1)
        assert value == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_finite_everywhere(self):
        d = dom(n=2, N=8, Nt=8, T=20 * np.pi)
        p = params(lam=10.0, T=20 * np.pi)
        values = [
            multiplier_at(d, p, (m1, m2), k)
            for m1 in range(-3, 4)
            for m2 in range(-3, 4)
            for k in range(-3, 4)
        ]
        assert np.all(np.isfinite(values))

    def test_sup_attained_off_steady_stratum(self):
        d = dom(n=2, N=8, Nt=8)
        p = params(lam=1.0)
        best, best_idx = 0.0, None
        for m1, m2, k in itertools.product(range(-3, 4), repeat=3):
            mag = abs(multiplier_at(d, p, (m1, m2), k))
            if mag > best:
                best, best_idx = mag, (m1, m2, k)
        assert np.isfinite(best) and best > 0.0
        assert best_idx[2] != 0

    def test_hermitian_compatibility(self):
        d = dom(n=2, N=8, Nt=8, T=5.0)
        p = params(lam=3.0, T=5.0)
        for m1, m2, k in itertools.product(range(-3, 4), repeat=3):
            lhs = multiplier_at(d, p, (-m1, -m2), -k)
            rhs = np.conj(multiplier_at(d, p, (m1, m2), k))
            assert lhs == pytest.approx(rhs, abs=1e-15)


class TestEuclideanMultiplier:
    def test_vanishes_near_zero_time_frequency(self):
        p = params(lam=7.0)
        for xi in ((0.0, 0.0, 0.0), (1.0, -2.0, 0.5)):
            assert evaluate_m(xi, 0.0, p) == 0.0
        # still inside the plateau of chi
        assert evaluate_m((1.0, 0.0, 0.0), 0.4, p) == 0.0

    def test_pure_time_value(self):
        assert evaluate_m((0.0, 0.0, 0.0), 2.0, params()) == pytest.approx(
            -0.5j, abs=1e-15
        )

    def test_oseen_cancellation(self):
        assert evaluate_m((1.0, 0.0, 0.0), 1.0, params(lam=1.0)) == pytest.approx(
            1.0 + 0.0j, abs=1e-15
        )

    def test_hermitian_compatibility(self):
        p = params(lam=2.0, T=4.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            xi = rng.standard_normal(3) * 3
            eta = rng.standard_normal() * 5
            lhs = evaluate_m(-xi, -eta, p)
            rhs = np.conj(evaluate_m(xi, eta, p))
            assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_vectorized_matches_scalar(self):
        p = params(lam=1.5)
        xi = np.array([[0.5, 1.0, -2.0], [0.0, 2.0, 1.0], [1.0, 0.0, -1.0]])
        eta = np.array([0.7, -3.0, 2.2])
        vec = evaluate_m(xi, eta, p)
        for j in range(3):
            assert vec[j] == evaluate_m(xi[:, j], eta[j], p)

    # (T, eta, w): the numerator w = s(1 - t) of m on the ramp of the
    # cut-off, taken at 60 digits with mpmath for these double inputs.  Near
    # the inner end, |T*eta/(2*pi)| just above 1/2, w is tiny and 1 - chi
    # cancels to 0; the last two lie mid-ramp and at its outer end.
    RAMP = [
        (1e3, -0.00321, 3.1555935863947756e-20),
        (TWO_PI, 0.5035, 2.4847753521254769e-62),
        (TWO_PI, -0.5015, 4.6856946597974431e-145),
        (5.0, 0.6295, 2.9680233489287895e-231),
        (5.0, 0.9, 0.36565192666745434),
        (TWO_PI, 0.999, 1.0),
    ]

    def test_numerator_on_the_ramp(self):
        # relative error 1e-10: exp(-1/(1 - t)) magnifies the rounding of t
        # by 1/(1 - t), up to 1/0.0016 at the fourth point (5e-11 there)
        for T, eta, w in self.RAMP:
            assert _weight(eta, T)[0] == pytest.approx(w, rel=1e-10, abs=0.0), (T, eta)

    def test_small_values_near_the_inner_radius(self):
        # m = w / (|xi|^2 + i*(eta - lam*xi_1)) at xi = (0.3, -0.2), lam = 1,
        # at the first three points of RAMP, where 1 - chi read 0
        p = [params(lam=1.0, T=T) for T, _, _ in self.RAMP[:3]]
        expected = [
            3.7692125768475158e-20 + 8.7912534263533481e-20j,
            5.5395014902754068e-62 - 8.6714504097772699e-62j,
            9.2391661908277682e-146 + 5.6963013091911198e-145j,
        ]
        for pr, (_, eta, _), m in zip(p, self.RAMP, expected):
            value = evaluate_m((0.3, -0.2), eta, pr)
            assert value == pytest.approx(m, rel=1e-10, abs=0.0)


class TestTransferenceIdentity:
    def test_embedding_values(self):
        d = dom(n=2, N=8, Nt=8, T=TWO_PI)
        assert DualIndex((0, 0), 0).frequencies(d)[1] == 0.0
        assert DualIndex((0, 0), 3).frequencies(d)[1] == pytest.approx(3.0, abs=0)

    def test_exact_identity_on_dual_grid(self):
        # chi collapses to the k == 0 indicator on integers, and the two
        # evaluations share their denominator arithmetic: deviation is 0.0
        d = dom(n=2, N=8, Nt=8, L=4.0, T=3.0)
        p = params(lam=2.0, T=3.0)
        for m1, m2, k in itertools.product(range(-3, 4), repeat=3):
            xi, eta = DualIndex((m1, m2), k).frequencies(d)
            assert multiplier_at(d, p, (m1, m2), k) == evaluate_m(xi, eta, p)


class TestHelmholtzSymbol:
    def test_axis_vector(self):
        np.testing.assert_allclose(
            projector_at(dom(), (1, 0, 0)), np.diag([0.0, 1.0, 1.0]), atol=0
        )

    def test_zero_convention(self):
        np.testing.assert_allclose(
            projector_at(dom(n=2), (0, 0)), np.eye(2), atol=0
        )

    def test_diagonal_vector(self):
        expected = np.array(
            [[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
        )
        np.testing.assert_allclose(
            projector_at(dom(), (1, 1, 0)), expected, atol=1e-15
        )

    def test_idempotent_and_annihilates(self):
        # a box side L != 2*pi makes every nonzero xi non-integer
        d = dom(N=16, Nt=4, L=3.0)
        rng = np.random.default_rng(1)
        for _ in range(25):
            m = tuple(rng.integers(-7, 8, size=3))
            xi = 2.0 * np.pi / d.L * np.array(m)
            P = projector_at(d, m)
            assert np.max(np.abs(P @ P - P)) <= 1e-14
            assert np.max(np.abs(P @ xi)) <= 1e-14 * np.linalg.norm(xi)
            assert np.max(np.abs(P - P.T)) <= 1e-15


class TestSteadySymbol:
    def test_stokes_unit_mode(self):
        assert steady_inverse_at(dom(), 0.0, (1, 0, 0)) == 1.0 + 0.0j

    def test_oseen_unit_mode(self):
        value = steady_inverse_at(dom(), 1.0, (1, 0, 0))
        assert value == pytest.approx((1.0 + 1.0j) / 2.0, abs=1e-16)

    def test_zero_mode_annihilated(self):
        # the steady operator has no inverse on the zero mode; the solver
        # maps it to 0 and leaves rejecting such data to its callers
        assert steady_inverse_at(dom(), 1.0, (0, 0, 0)) == 0.0


class TestPressureSymbol:
    def test_axis_vector(self):
        np.testing.assert_allclose(
            pressure_covector_at(dom(), (1, 0, 0)), [-1j, 0.0, 0.0], atol=0
        )

    def test_zero_gauge(self):
        np.testing.assert_allclose(
            pressure_covector_at(dom(n=2), (0, 0)), [0.0, 0.0], atol=0
        )

    def test_scaling(self):
        np.testing.assert_allclose(
            pressure_covector_at(dom(), (0, 2, 0)), [0.0, -0.5j, 0.0], atol=0
        )
