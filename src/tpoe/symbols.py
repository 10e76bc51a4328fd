"""The Fourier symbols of the solver pipeline, as arrays over (xi, eta).

Every symbol is one array function over broadcastable frequency arrays,
with scalars as its 0-d case; on the dual grid the arrays are those of
``TorusDomain``, so they span the half spectrum k = 0 .. Nt/2 that
``SpectralField`` holds.  ``_denominator`` is the one arithmetic path for
|xi|^2 + i*(eta - lam*xi_1): the time-periodic multiplier M on the dual
grid, its Euclidean counterpart m and the scan's derivatives of m, and the
solver's quotient and forward operator all call it.  So M and m agree
exactly, not approximately, at integer time frequencies: there the cut-off
bump, fixed at the radii (1/2, 1), collapses to the k == 0 indicator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatch
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


def _require_period(domain: TorusDomain, params: OseenParams) -> None:
    """``DomainMismatch`` unless ``params.T`` is the period of ``domain``."""
    if params.T != domain.T:
        raise DomainMismatch(
            f"parameter period T={params.T!r} differs from the domain's "
            f"T={domain.T!r}"
        )


# radii (inner, outer) of the cut-off bump: 1 on |eta| <= 1/2, 0 on
# |eta| >= 1, so on integer time frequencies the bump is the k == 0
# indicator, the reduction the transference identity rests on
_CUTOFF_RADII = (0.5, 1.0)


def _bump_seed(t: np.ndarray) -> np.ndarray:
    """exp(-1/t) for t > 0, identically 0 for t <= 0."""
    t = np.asarray(t, dtype=float)
    safe = np.where(t > 0.0, t, 1.0)
    return np.where(t > 0.0, np.exp(-1.0 / safe), 0.0)


def cutoff_chi(eta):
    """Smooth even bump in the temporal frequency; values in [0, 1].

    Plateau value 1 on ``|eta| <= inner``, 0 on ``|eta| >= outer`` for the
    fixed radii ``(inner, outer) = (1/2, 1)``: ``g(t)/(g(t) + g(1-t))`` with
    ``g(t) = exp(-1/t)`` and ``t = (outer - |eta|)/(outer - inner)``, which
    off the ramp is exactly 1 or 0, as g(1-t) or g(t) is 0 there.
    """
    inner, outer = _CUTOFF_RADII
    t = (outer - np.abs(np.asarray(eta, dtype=float))) / (outer - inner)
    g = _bump_seed(t)
    out = g / (g + _bump_seed(1.0 - t))
    if out.ndim == 0:
        return float(out)
    return out


def _weight(eta, T: float):
    """The numerator w = 1 - chi((T/(2*pi))*eta) of m, and dw/d eta.

    On the ramp chi is s(t), t = (outer - |T*eta/(2*pi)|)/(outer - inner), so
    w = s(1-t) = g(1-t) / (g(t) + g(1-t)), taken as that quotient and not as
    1 - s(t), which cancels where w is small (near |T*eta/(2*pi)| = inner);
    off the ramp g(t) or g(1-t) is 0, so the quotient is exactly 0 or 1.
    s' = (g'(t) g(1-t) + g(t) g'(1-t)) / (g(t) + g(1-t))^2 with g' = g/t^2,
    and off the ramp dw/d eta is 0, exactly.
    """
    inner, outer = _CUTOFF_RADII
    scale = T / (2.0 * np.pi)
    scaled = scale * np.asarray(eta, dtype=float)
    t = (outer - np.abs(scaled)) / (outer - inner)
    g, h = _bump_seed(t), _bump_seed(1.0 - t)
    u = np.where((t > 0.0) & (t < 1.0), t, 0.5)
    # g(u)/u/u, not g(u)/u**2: 1/u**2 overflows only where g(u) is 0 already
    ramp = (g / u / u * h + g * (h / (1.0 - u) / (1.0 - u))) / (g + h) ** 2
    slope = np.sign(scaled) * ramp * (scale / (outer - inner))
    return h / (g + h), slope


def _denominator(xi, eta, lam: float):
    """|xi|^2 + i*(eta - lam*xi_1); the single shared arithmetic path.

    ``xi`` is a sequence of n broadcastable components (an ``(n, ...)``
    array counts as one); ``eta`` broadcasts against them.  The parts are
    set apart, as ``1j * -inf`` (lam*xi_1 overflowed) has a NaN real part.
    """
    out = np.empty(np.broadcast(*xi, eta).shape, dtype=complex)
    out.real = sum(x * x for x in xi)
    out.imag = eta - lam * xi[0]
    return out


def _quotient(numerator, denom, annihilated):
    """numerator / denom, zeroed in place wherever ``annihilated`` holds."""
    out = np.asarray(numerator / np.where(annihilated, 1.0, denom))
    np.copyto(out, 0.0, where=annihilated)
    return out


def evaluate_m(xi, eta, params: OseenParams):
    """Euclidean counterpart of the solution multiplier.

    ``(1 - chi((T/(2*pi))*eta)) / (|xi|^2 + i*(eta - lam*xi_1))``; the
    numerator vanishes on a neighborhood of the denominator's only zero, so
    the value is finite (and smooth) everywhere.

    ``xi`` is a sequence of n broadcastable components (an ``(n, ...)``
    array counts as one) and ``eta`` broadcasts against them; scalar
    arguments give a complex scalar.
    """
    eta = np.asarray(eta, dtype=float)
    weight, _ = _weight(eta, params.T)
    out = _quotient(weight, _denominator(xi, eta, params.lam), weight == 0.0)
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
    ``xi = (2*pi/L)*m``; ``DomainMismatch`` unless ``params.T`` is ``domain.T``.
    """
    _require_period(domain, params)
    denom = _denominator(domain.xi_grids(), domain.eta_grid(), params.lam)
    return _quotient(1.0, denom, domain.time_mode_grid() == 0)
