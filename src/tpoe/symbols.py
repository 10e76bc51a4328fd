"""The Fourier symbols of the solver pipeline, as arrays over (xi, eta).

Every symbol is one array function over broadcastable frequency arrays,
with scalars as its 0-d case; on the dual grid the arrays are those of
``TorusDomain``, so they span the half spectrum k = 0 .. Nt/2 that
``SpectralField`` holds.  ``_denominator`` is the one arithmetic path for
|xi|^2 + i*(eta - lam*xi_1): the time-periodic multiplier M on the dual
grid, its Euclidean counterpart m, and the solver's quotient and forward
operator all call it.  So M and m agree exactly, not approximately, at
integer time frequencies: there the cut-off bump collapses to the k == 0
indicator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import TorusDomain


@dataclass(frozen=True)
class OseenParams:
    """Linearization constants: drift lam (0 selects Stokes), period T,
    and the Lebesgue exponent q used for norm reporting."""

    lam: float
    T: float
    q: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.lam):
            raise ValueError(f"drift lam must be finite, got {self.lam}")
        if not 0 < self.T < np.inf:
            raise ValueError(f"period T must be positive and finite, got {self.T}")
        if not 1.0 < self.q < np.inf:
            raise ValueError(f"exponent q must lie in (1, inf), got {self.q}")

    @property
    def is_stokes(self) -> bool:
        return self.lam == 0.0


@dataclass(frozen=True)
class CutoffSpec:
    """Shape of the smooth temporal cut-off bump.

    The bump equals 1 on ``|eta| <= inner``, 0 on ``|eta| >= outer`` and
    interpolates smoothly in between.  The default radii (1/2, 1) make the
    bump reduce to the k == 0 indicator on integer frequencies.  Widened
    radii exist only as a test hook for breaking that reduction on purpose.
    """

    inner: float = 0.5
    outer: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.inner < self.outer < np.inf:
            raise ValueError(
                f"need 0 < inner < outer < inf, got ({self.inner}, {self.outer})"
            )


DEFAULT_CUTOFF = CutoffSpec()


def _bump_seed(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, identically 0 for t <= 0."""
    t = np.asarray(t, dtype=float)
    safe = np.where(t > 0.0, t, 1.0)
    return np.where(t > 0.0, np.exp(-1.0 / safe), 0.0)


def _smoothstep(t: np.ndarray) -> np.ndarray:
    """C-infinity monotone ramp: 0 for t <= 0, 1 for t >= 1."""
    g = _bump_seed(t)
    return g / (g + _bump_seed(1.0 - t))


def cutoff_chi(eta, spec: CutoffSpec = DEFAULT_CUTOFF):
    """Smooth even bump in the temporal frequency; values in [0, 1].

    Plateau value 1 inside ``spec.inner``, 0 outside ``spec.outer``, and the
    smoothstep ramp ``s((outer - |eta|)/(outer - inner))`` in between with
    ``s(t) = g(t)/(g(t) + g(1-t))``, ``g(t) = exp(-1/t)``.
    """
    a = np.abs(np.asarray(eta, dtype=float))
    ramp = _smoothstep((spec.outer - a) / (spec.outer - spec.inner))
    out = np.where(a <= spec.inner, 1.0, np.where(a >= spec.outer, 0.0, ramp))
    if out.ndim == 0:
        return float(out)
    return out


def _denominator(xi, eta, lam: float):
    """|xi|^2 + i*(eta - lam*xi_1); the single shared arithmetic path.

    ``xi`` is a sequence of n broadcastable components (an ``(n, ...)``
    array counts as one); ``eta`` broadcasts against them.
    """
    xi_sq = sum(x * x for x in xi)
    return xi_sq + 1j * (eta - lam * xi[0])


def _quotient(numerator, denom, annihilated):
    """numerator / denom, and exactly 0 wherever ``annihilated`` holds."""
    safe = np.where(annihilated, 1.0, denom)
    return np.where(annihilated, 0.0 + 0.0j, numerator / safe)


def evaluate_m(
    xi, eta, params: OseenParams, cutoff: CutoffSpec = DEFAULT_CUTOFF
):
    """Euclidean counterpart of the solution multiplier.

    ``(1 - chi((T/(2*pi))*eta)) / (|xi|^2 + i*(eta - lam*xi_1))``; the
    numerator vanishes on a neighborhood of the denominator's only zero, so
    the value is finite (and smooth) everywhere.

    ``xi`` is a sequence of n broadcastable components (an ``(n, ...)``
    array counts as one) and ``eta`` broadcasts against them; scalar
    arguments give a complex scalar.
    """
    eta_arr = np.asarray(eta, dtype=float)
    weight = 1.0 - np.asarray(cutoff_chi(params.T / (2.0 * np.pi) * eta_arr, cutoff))
    out = _quotient(weight, _denominator(xi, eta_arr, params.lam), weight == 0.0)
    if out.ndim == 0:
        return complex(out)
    return out


def time_periodic_multiplier_grid(
    domain: TorusDomain, params: OseenParams
) -> np.ndarray:
    """Solution multiplier over the dual grid, of ``domain.spectral_shape``
    (k = 0 .. Nt/2; M(-m, -k) is the conjugate of M(m, k)).

    0 on the whole steady stratum k == 0 (exact integer test) and
    ``1 / (|xi|^2 + i*((2*pi/T)*k - lam*xi_1))`` otherwise, with
    ``xi = (2*pi/L)*m``.
    """
    denom = _denominator(domain.xi_grids(), domain.eta_grid(), params.lam)
    return _quotient(1.0, denom, domain.time_mode_grid() == 0)
