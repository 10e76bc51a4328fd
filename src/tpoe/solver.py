"""Projections, mode-wise solves, pressure recovery, and the full pipeline.

The linear operator under study is ``A u := du/dt - Lap(u) - lam * d1(u)``
acting on solenoidal fields, together with a pressure gradient.  Everything
is applied mode by mode in spectral space; fields are band-limited, so the
applications are exact up to rounding.

Contract tolerances are relative to max norms and default to 1e-10, two
orders above double-precision accumulation error at the grid sizes this
package targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import norms
from .errors import (
    DomainMismatch,
    IncompatibleMean,
    NonSolenoidal,
    NotPurelyPeriodic,
)
from .spectral import (
    SpaceTimeField,
    SpectralField,
    TorusDomain,
    _irfft,
    _rfft,
    forward,
    inverse,
)
from .symbols import OseenParams, _denominator, _quotient

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class SolutionBundle:
    """Full solve output: steady part v, oscillating part w, velocity
    u = v + w, pressure p, the relative residual of the momentum equation,
    and the norms applicable to the run parameters."""

    v: SpaceTimeField
    w: SpaceTimeField
    u: SpaceTimeField
    p: SpaceTimeField
    residual_norm: float
    norm_report: dict[str, float] = field(default_factory=dict)


def _require_vector(f: SpaceTimeField) -> None:
    if f.components != f.domain.n:
        raise DomainMismatch(
            f"expected a {f.domain.n}-component vector field, got {f.components}"
        )


def _require_period(domain: TorusDomain, params: OseenParams) -> None:
    if params.T != domain.T:
        raise DomainMismatch(
            f"parameter period T={params.T!r} differs from the domain's "
            f"T={domain.T!r}"
        )


def _require_tol(tol: float) -> None:
    """Reject a tolerance under which the precondition checks mean nothing:
    each tests ``defect > tol * scale``, which no defect passes at inf or NaN
    and any rounding passes at ``tol <= 0``."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _require_compatible_mean(f: SpaceTimeField, tol: float) -> None:
    """Reject data whose spatial mean exceeds ``tol`` relative to max|f|:
    the constant mode is not in the range of the operator on the torus."""
    scale = f.max_abs()
    mean = np.mean(f.samples, axis=tuple(range(1, f.samples.ndim)))
    if scale > 0.0 and np.max(np.abs(mean)) > tol * scale:
        raise IncompatibleMean(
            "steady part of the data has a nonzero spatial mean; "
            "no torus solution exists"
        )


def _require_velocity_pressure(u: SpaceTimeField, p: SpaceTimeField) -> None:
    _require_vector(u)
    if not p.is_scalar or p.domain != u.domain:
        raise DomainMismatch("pressure must be a scalar on the same domain")


def time_average(f: SpaceTimeField) -> SpaceTimeField:
    """Projection onto time-constant fields: the mean over one period."""
    mean = np.mean(f.samples, axis=-1, keepdims=True)
    return SpaceTimeField(f.domain, np.broadcast_to(mean, f.samples.shape).copy())


def fluctuation(f: SpaceTimeField) -> SpaceTimeField:
    """Complementary projection: the part with vanishing time average."""
    return f - time_average(f)


def _xi_dot(xi, coefficients: np.ndarray) -> np.ndarray:
    """The contraction xi . c over the component axis of ``coefficients``."""
    return sum(x * c for x, c in zip(xi, coefficients))


def _potential(xi, coefficients: np.ndarray) -> np.ndarray:
    """(xi . c)/|xi|^2 mode-wise (0 at xi = 0) on any layout ``xi``
    broadcasts against; the gradient part of c is xi times it."""
    xi_sq = sum(x * x for x in xi)
    return _quotient(_xi_dot(xi, coefficients), xi_sq, xi_sq == 0.0)


def _project(xi, coefficients: np.ndarray) -> np.ndarray:
    """Remove the gradient part of ``coefficients``, in place."""
    potential = _potential(xi, coefficients)
    for j, x in enumerate(xi):
        coefficients[j] -= x * potential
    return coefficients


def project_solenoidal(spec: SpectralField) -> SpectralField:
    """Spectral Helmholtz projection: remove xi (xi . c)/|xi|^2 mode-wise.

    The zero spatial mode is left untouched (a constant is solenoidal).
    """
    domain = spec.domain
    if spec.components != domain.n:
        raise DomainMismatch("Helmholtz projection acts on vector fields")
    coeff = _project(domain.xi_grids(), spec.coefficients.copy())
    return SpectralField(domain, coeff)


def apply_helmholtz(f: SpaceTimeField) -> SpaceTimeField:
    """Helmholtz projection of a sampled vector field onto solenoidal fields."""
    _require_vector(f)
    return inverse(project_solenoidal(forward(f)), check=False)


def divergence_defect(spec: SpectralField) -> float:
    """max over modes of |xi . c(xi, k)|, the spectral divergence size."""
    dot = _xi_dot(spec.domain.xi_grids(), spec.coefficients)
    return float(np.max(np.abs(dot)))


def _check_solenoidal(xi, coefficients: np.ndarray, tol: float) -> None:
    scale = float(np.max(np.abs(coefficients)))
    defect = float(np.max(np.abs(_xi_dot(xi, coefficients))))
    if scale > 0.0 and defect > tol * scale:
        raise NonSolenoidal(
            "input is not divergence-free within tolerance "
            f"(defect {defect:.3e}, scale {scale:.3e})"
        )


def _invert(gh: np.ndarray, domain: TorusDomain, lam: float) -> np.ndarray:
    """The half spectrum ``gh`` divided by the operator's symbol, in place:
    the steady inverse on k == 0 and the time-periodic multiplier elsewhere.
    Only the mode (xi, k) = (0, 0), which has no inverse, is annihilated."""
    denom = _denominator(domain.xi_grids(), domain.eta_grid(), lam)
    denom.flat[0] = 1.0  # the mode (xi, k) = (0, 0), zeroed below
    gh /= denom
    gh[(slice(None),) + (0,) * (domain.n + 1)] = 0.0
    return gh


def _steady_slice(uh: np.ndarray, domain: TorusDomain) -> SpaceTimeField:
    """The time-constant field of the k == 0 slice of the half spectrum ``uh``."""
    spatial = _irfft(uh[..., : domain.N // 2 + 1, 0])[..., np.newaxis]
    return SpaceTimeField(domain, np.repeat(spatial, domain.Nt, axis=-1))


def solve_time_periodic(
    f: SpaceTimeField, params: OseenParams, tol: float = DEFAULT_TOL
) -> SpaceTimeField:
    """Invert A on purely periodic solenoidal data via the solution multiplier.

    Raises
    ------
    NotPurelyPeriodic
        If the time average of ``f`` exceeds ``tol`` relative to ``max|f|``.
    NonSolenoidal
        If the spectral divergence exceeds ``tol`` relative to ``max|f^|``.
    DomainMismatch
        If ``params.T`` is not the period of ``f``'s domain.
    ValueError
        If ``tol`` is not positive and finite.
    """
    _require_tol(tol)
    _require_vector(f)
    _require_period(f.domain, params)
    scale = f.max_abs()
    if scale > 0.0 and time_average(f).max_abs() > tol * scale:
        raise NotPurelyPeriodic(
            "data has nonzero time average; only the oscillating part is invertible"
        )
    xi = f.domain.xi_grids()
    gh = _rfft(f.samples)
    _check_solenoidal(xi, gh, tol)
    gh[..., 0] = 0.0  # the multiplier vanishes on the steady stratum
    uh = _invert(_project(xi, gh), f.domain, params.lam)
    return SpaceTimeField(f.domain, _irfft(uh))


def solve_steady(
    f: SpaceTimeField, lam: float, tol: float = DEFAULT_TOL
) -> SpaceTimeField:
    """Invert the steady drift operator on time-constant solenoidal data.

    Raises
    ------
    IncompatibleMean
        If a component has nonzero spatial mean; the constant mode is not in
        the operator's range on the torus.
    NonSolenoidal
        If the spectral divergence exceeds tolerance.
    ValueError
        If ``tol`` is not positive and finite.
    """
    _require_tol(tol)
    _require_vector(f)
    scale = f.max_abs()
    if scale > 0.0 and (f - time_average(f)).max_abs() > tol * scale:
        raise ValueError("steady solve requires a time-constant field")
    _require_compatible_mean(f, tol)
    gh = _rfft(f.samples)
    _check_solenoidal(f.domain.xi_grids(), gh, tol)
    return _steady_slice(_invert(gh, f.domain, lam), f.domain)


def _pressure_coefficients(xi, coefficients: np.ndarray) -> np.ndarray:
    """-i (xi . f^)/|xi|^2 with the zero covector at xi = 0."""
    return -1j * _potential(xi, coefficients)[np.newaxis]


def recover_pressure(f: SpaceTimeField) -> SpaceTimeField:
    """Scalar p with grad(p) equal to the gradient part of f.

    The gauge zeroes every spatial-constant mode, so p has zero spatial mean
    on each time slice (in particular zero space-time mean).
    """
    _require_vector(f)
    ph = _pressure_coefficients(f.domain.xi_grids(), _rfft(f.samples))
    return SpaceTimeField(f.domain, _irfft(ph))


def apply_operator(
    u: SpaceTimeField, p: SpaceTimeField, params: OseenParams
) -> SpaceTimeField:
    """Forward operator du/dt - Lap(u) - lam*d1(u) + grad(p), spectrally."""
    _require_velocity_pressure(u, p)
    domain = u.domain
    uph = _rfft(np.concatenate([u.samples, p.samples]))
    xi = domain.xi_grids()
    symbol = _denominator(xi, domain.eta_grid(), params.lam)
    for j in range(domain.n):
        uph[j] = symbol * uph[j] + 1j * xi[j] * uph[-1]
    return SpaceTimeField(domain, _irfft(uph[:-1]))


def apply_operator_fd(
    u: SpaceTimeField, p: SpaceTimeField, params: OseenParams
) -> SpaceTimeField:
    """Order-2 centered-difference version of :func:`apply_operator`.

    Independent of the spectral path; used as a cross-check oracle for
    residuals.  All differences wrap periodically.
    """
    _require_velocity_pressure(u, p)
    domain = u.domain
    s = u.samples
    dx, dt = domain.dx, domain.dt
    t_axis = s.ndim - 1

    def centered(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
        return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * h)

    def second(arr: np.ndarray, axis: int, h: float) -> np.ndarray:
        return (
            np.roll(arr, -1, axis=axis) - 2.0 * arr + np.roll(arr, 1, axis=axis)
        ) / h**2

    out = centered(s, t_axis, dt)
    for j in range(domain.n):
        out = out - second(s, j + 1, dx)
    out = out - params.lam * centered(s, 1, dx)
    grad_p = np.stack(
        [centered(p.samples[0], j, dx) for j in range(domain.n)]
    )
    return SpaceTimeField(domain, out + grad_p)


def solve_full(
    f: SpaceTimeField,
    params: OseenParams,
    tol: float = DEFAULT_TOL,
    norm_kinds: list[norms.NormKind] | None = None,
) -> SolutionBundle:
    """Full solve of the momentum system for arbitrary vector data.

    Pipeline, on the half spectrum of ``f``: the gradient part determines
    the pressure, and one quotient by the operator's symbol inverts the
    Helmholtz projection (the steady symbol on k == 0, the time-periodic
    multiplier elsewhere); v is the k == 0 slice of u, and w = u - v.  The
    report contains ``lq_data`` (the Lq norm of ``f``) and every norm
    applicable to ``(n, lam, q)``: ``lq_velocity`` of u,
    ``sobolev_21q_periodic`` of w, the steady family's tag (for example
    ``steady_stokes``) of v and ``pressure_xp`` of p.  Pass ``norm_kinds``
    to request specific ones instead; they are reported under the same
    names, without ``lq_data`` (invalid requests raise
    ``InvalidExponent``).

    Raises
    ------
    IncompatibleMean
        If the data's steady solenoidal part has nonzero spatial mean.
    DomainMismatch
        If ``params.T`` is not the period of ``f``'s domain.
    ValueError
        If ``tol`` is not positive and finite.
    """
    _require_tol(tol)
    _require_vector(f)
    _require_period(f.domain, params)
    _require_compatible_mean(f, tol)
    domain = f.domain
    xi = domain.xi_grids()
    fh = _rfft(f.samples)
    p = SpaceTimeField(domain, _irfft(_pressure_coefficients(xi, fh)))
    uh = _invert(_project(xi, fh), domain, params.lam)  # in place on fh
    u = SpaceTimeField(domain, _irfft(uh))
    v = _steady_slice(uh, domain)
    del fh, uh
    w = u - v
    scale = f.max_abs()
    residual = (apply_operator(u, p, params) - f).max_abs()
    residual_norm = residual / (scale if scale > 0.0 else 1.0)

    report = _norm_report(f, u, w, v, p, params, norm_kinds)
    return SolutionBundle(
        v=v, w=w, u=u, p=p, residual_norm=residual_norm, norm_report=report
    )


def _norm_report(
    f: SpaceTimeField,
    u: SpaceTimeField,
    w: SpaceTimeField,
    v: SpaceTimeField,
    p: SpaceTimeField,
    params: OseenParams,
    norm_kinds: list[norms.NormKind] | None,
) -> dict[str, float]:
    lam, q = params.lam, params.q
    report: dict[str, float] = {}
    if norm_kinds is None:
        report["lq_data"] = norms.lq_norm(f, q)
        norm_kinds = norms._applicable_kinds(f.domain.n, lam, q)
    # each norm function validates its kind against (n, lam)
    for kind in norm_kinds:
        if kind.tag == norms.NormTag.LQ:
            report["lq_velocity"] = norms.lq_norm(u, kind.q)
        elif kind.tag == norms.NormTag.SOBOLEV_21Q:
            report["sobolev_21q_periodic"] = norms.sobolev_norm_21q(w, kind.q)
        elif kind.tag == norms.NormTag.PRESSURE_XP:
            report["pressure_xp"] = norms.pressure_norm(p, kind.q)
        else:
            report[kind.tag.value] = norms.steady_norm(v, kind, lam)
    return report
