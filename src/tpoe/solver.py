"""Projections, mode-wise solves, pressure recovery, and the full pipeline.

The linear operator under study is ``A u := du/dt - Lap(u) - lam * d1(u)``
acting on solenoidal fields, together with a pressure gradient.  Everything
is applied mode by mode in spectral space; fields are band-limited, so the
applications are exact up to rounding.

Every solve, the projection and pressure recovery rest on one Helmholtz
split, ``_split``, which forms xi . c once; the pressure's coefficients are
-i times the potential (xi . c)/|xi|^2 that it returns.

Contract tolerances are relative to max norms and default to 1e-10, two
orders above double-precision accumulation error at the grid sizes this
package targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import norms
from .errors import (
    DomainMismatch,
    IncompatibleMean,
    NonSolenoidal,
    NotPurelyPeriodic,
    ResidualExceedsTol,
)
from .spectral import (
    SpaceTimeField,
    SpectralField,
    TorusDomain,
    _irfft,
    _rfft,
    forward,
)
from .symbols import OseenParams, _denominator, _quotient, _require_period

DEFAULT_TOL = norms._TOL


@dataclass(frozen=True)
class SolutionBundle:
    """Full solve output: steady part v, oscillating part w, velocity
    u = v + w, pressure p, the relative residual of the momentum equation,
    and the norms applicable to the run parameters.  ``v.samples`` is a
    read-only view; copy it before writing into it."""

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


def _require_tol(tol: float) -> None:
    """Reject a tolerance under which the precondition checks mean nothing:
    each tests ``defect > tol * scale``, which no defect passes at inf or NaN
    and any rounding passes at ``tol <= 0``."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _require_compatible_mean(f: SpaceTimeField, tol: float, scale: float) -> None:
    """Reject data whose spatial mean exceeds ``tol`` relative to ``scale``,
    max|f|: the constant mode is not in the range of the operator on the
    torus."""
    mean = np.mean(f.samples, axis=tuple(range(1, f.samples.ndim)))
    if scale > 0.0 and np.max(np.abs(mean)) > tol * scale:
        raise IncompatibleMean(
            "steady part of the data has a nonzero spatial mean; "
            "no torus solution exists"
        )


def _require_operands(
    u: SpaceTimeField, p: SpaceTimeField, params: OseenParams
) -> None:
    """A's operands: vector u, scalar p on its domain, params.T its period."""
    _require_vector(u)
    if not p.is_scalar or p.domain != u.domain:
        raise DomainMismatch("pressure must be a scalar on the same domain")
    _require_period(u.domain, params)


def time_average(f: SpaceTimeField) -> SpaceTimeField:
    """Projection onto time-constant fields: the mean over one period."""
    mean = np.mean(f.samples, axis=-1, keepdims=True)
    return SpaceTimeField(f.domain, np.broadcast_to(mean, f.samples.shape).copy())


def fluctuation(f: SpaceTimeField) -> SpaceTimeField:
    """Complementary projection: the part with vanishing time average."""
    return f - time_average(f)


def _xi_dot(xi, coefficients: np.ndarray) -> np.ndarray:
    """The contraction xi . c over the component axis of ``coefficients``:
    the first product plus +0, as ``sum()`` starts, then the rest in place."""
    total = xi[0] * coefficients[0] + 0.0
    for x, c in zip(xi[1:], coefficients[1:]):
        total += x * c
    return total


def _split(xi, coefficients: np.ndarray, tol: float | None = None) -> np.ndarray:
    """The Helmholtz split of the spectrum c = ``coefficients`` on any layout
    ``xi`` broadcasts against: remove the gradient part xi (xi . c)/|xi|^2
    of c in place and return the potential (xi . c)/|xi|^2 (0 at xi = 0),
    whose -i multiple is the pressure's coefficients.  With ``tol``, first
    ``NonSolenoidal`` if max|xi . c| exceeds ``tol`` relative to
    max|xi| max|c|."""
    dot = _xi_dot(xi, coefficients)
    if tol is not None:
        # |xi . c| <= |xi| |c|: relative to max|xi| max|c|, the box size drops out
        top = np.hypot.reduce([np.max(np.abs(x)) for x in xi])
        scale = float(np.max(np.abs(coefficients)) * top)
        defect = float(np.max(np.abs(dot)))
        if scale > 0.0 and defect > tol * scale:
            raise NonSolenoidal(
                "input is not divergence-free within tolerance "
                f"(defect {defect:.3e}, scale {scale:.3e})"
            )
    xi_sq = sum(x * x for x in xi)
    potential = _quotient(dot, xi_sq, xi_sq == 0.0)
    del dot  # freed before the projection's temporaries
    for j, x in enumerate(xi):
        coefficients[j] -= x * potential
    return potential


def project_solenoidal(spec: SpectralField) -> SpectralField:
    """Spectral Helmholtz projection: remove xi (xi . c)/|xi|^2 mode-wise.

    The zero spatial mode is left untouched (a constant is solenoidal).
    ``DomainMismatch`` names a box too large for 1/|xi|^2 to be finite.
    """
    domain = spec.domain
    if spec.components != domain.n:
        raise DomainMismatch("Helmholtz projection acts on vector fields")
    _require_invertible(domain)
    coeff = spec.coefficients.copy()
    _split(domain.xi_grids(), coeff)
    return SpectralField(domain, coeff)


def apply_helmholtz(f: SpaceTimeField) -> SpaceTimeField:
    """Helmholtz projection of a sampled vector field onto solenoidal fields."""
    _require_vector(f)
    coeff = project_solenoidal(forward(f)).coefficients
    return SpaceTimeField(f.domain, _irfft(coeff))


def divergence_defect(spec: SpectralField) -> float:
    """max over modes of |xi . c(xi, k)|, the spectral divergence size."""
    return float(np.max(np.abs(_xi_dot(spec.domain.xi_grids(), spec.coefficients))))


def _cut(grids, index) -> list[np.ndarray]:
    """A domain's broadcastable ``xi_grids()`` cut to the piece ``index``
    along axis 2 of a half spectrum with components first, as the hooks of
    ``spectral._rfft`` get it."""
    return [grid[index[1:]] if grid.shape[1] > 1 else grid for grid in grids]


def _symbol(domain: TorusDomain, lam: float, xi, eta) -> np.ndarray:
    """:func:`_denominator` on the part of the half grid that the frequency
    grids ``xi`` (the domain's or :func:`_cut`'s) and ``eta`` span;
    ``DomainMismatch`` if not finite."""
    symbol = _denominator(xi, eta, lam)
    parts = symbol.view(float)  # real and imaginary; min and max need no grid
    if not np.isfinite([parts.min(), parts.max()]).all():
        raise DomainMismatch(f"symbol of A overflows on {domain}, lambda={lam!r}")
    return symbol


def _require_invertible(domain: TorusDomain, lam: float | None = None) -> None:
    """``DomainMismatch`` unless 1/|xi|^2 is finite for the least nonzero
    |xi|^2, (2*pi/L)^2, at the mode m = (0, 1, ...), where the steady symbol
    is |xi|^2 too.  numpy divides by a complex d as a product with 1/d, so
    past that point the quotients by |xi|^2 (the potential) and by the
    symbol are not finite there, even for zero data.  The error names the
    symbol of A and ``lam`` for a solver, and |xi|^2 for a projection
    (``lam`` None)."""
    step = 2.0 * np.pi / domain.L
    least = step * step  # unlike **, a product overflows to inf
    if least * float(np.finfo(float).max) < 1.0:  # L above about 8.4e154
        cause = "vanishes" if least == 0.0 else "underflows"
        if lam is None:
            raise DomainMismatch(f"|xi|^2 {cause} on {domain}")
        raise DomainMismatch(f"symbol of A {cause} on {domain}, lambda={lam!r}")


def _invert(gh: np.ndarray, domain: TorusDomain, lam: float, xi, eta) -> np.ndarray:
    """The part ``gh`` of a half spectrum that ``xi`` and ``eta`` span (see
    :func:`_symbol`), divided by the operator's symbol in place: the
    steady inverse on k == 0 and the time-periodic multiplier elsewhere.
    Only the mode (xi, k) = (0, 0), which has no inverse, is annihilated;
    callers check :func:`_require_invertible` first, so the symbol vanishes
    there alone, and that mode is the first of the piece that holds it."""
    denom = _symbol(domain, lam, xi, eta)
    origin = denom.flat[0] == 0.0
    if origin:
        denom.flat[0] = 1.0  # zeroed below
    gh /= denom
    if origin:
        gh[(slice(None),) + (0,) * (domain.n + 1)] = 0.0
    return gh


def _steady_slice(uh0: np.ndarray, domain: TorusDomain) -> SpaceTimeField:
    """The time-constant field of ``uh0``, the k == 0 slice ``uh[..., 0]``
    of a half spectrum.

    Its samples are a read-only view that repeats the one spatial slice
    along the time axis, so the field holds ``1/Nt`` of a full field.  The
    inverse consumes the half ``uh0[..., : N // 2 + 1]`` in place.
    """
    spatial = _irfft(uh0[..., : domain.N // 2 + 1])[..., np.newaxis]
    shape = spatial.shape[:-1] + (domain.Nt,)
    return SpaceTimeField(domain, np.broadcast_to(spatial, shape))


def solve_time_periodic(
    f: SpaceTimeField, params: OseenParams, tol: float = DEFAULT_TOL
) -> SpaceTimeField:
    """Invert A on purely periodic solenoidal data via the solution multiplier.

    Raises
    ------
    NotPurelyPeriodic
        If the time average of ``f`` exceeds ``tol`` relative to ``max|f|``.
    NonSolenoidal
        If the spectral divergence exceeds ``tol`` relative to
        ``max|xi| max|f^|``.
    DomainMismatch
        If ``params.T`` is not the period of ``f``'s domain.
    ValueError
        If ``tol`` is not positive and finite.
    """
    _require_tol(tol)
    _require_vector(f)
    _require_period(f.domain, params)
    _require_invertible(f.domain, params.lam)
    scale = f.max_abs()
    # max|time_average(f)|, without broadcasting the mean over the grid
    mean = np.mean(f.samples, axis=-1)
    if scale > 0.0 and np.max(np.abs(mean, out=mean)) > tol * scale:
        raise NotPurelyPeriodic(
            "data has nonzero time average; only the oscillating part is invertible"
        )
    domain, xi = f.domain, f.domain.xi_grids()
    gh = _rfft(f.samples)
    del f  # not read again, so data passed as a temporary is freed here
    _split(xi, gh, tol)  # mode by mode, so it commutes with the next line
    gh[..., 0] = 0.0  # the multiplier vanishes on the steady stratum
    uh = _invert(gh, domain, params.lam, xi, domain.eta_grid())
    return SpaceTimeField(domain, _irfft(uh))


def solve_steady(
    f: SpaceTimeField, lam: float, tol: float = DEFAULT_TOL
) -> SpaceTimeField:
    """Invert the steady drift operator on time-constant solenoidal data.

    The result's samples are a read-only view of one spatial slice repeated
    along the time axis.

    Raises
    ------
    IncompatibleMean
        If a component has nonzero spatial mean; the constant mode is not in
        the operator's range on the torus.
    NonSolenoidal
        If the spectral divergence exceeds ``tol`` relative to
        ``max|xi| max|f^|``.
    ValueError
        If ``tol`` is not positive and finite, or ``f`` is not time-constant
        within ``tol`` relative to ``max|f|``.
    """
    _require_tol(tol)
    _require_vector(f)
    _require_invertible(f.domain, lam)
    norms._time_mean(f, tol)
    _require_compatible_mean(f, tol, f.max_abs())
    domain, xi = f.domain, f.domain.xi_grids()
    gh = _rfft(f.samples)
    _split(xi, gh, tol)
    # k == 0 alone, by the symbol at eta = 0: the answer does not depend on T
    return _steady_slice(_invert(gh[..., :1], domain, lam, xi, 0.0)[..., 0], domain)


def recover_pressure(f: SpaceTimeField) -> SpaceTimeField:
    """Scalar p with grad(p) equal to the gradient part of f.

    The gauge zeroes every spatial-constant mode, so p has zero spatial mean
    on each time slice (in particular zero space-time mean).
    """
    _require_vector(f)
    _require_invertible(f.domain)
    ph = -1j * _split(f.domain.xi_grids(), _rfft(f.samples))[np.newaxis]
    return SpaceTimeField(f.domain, _irfft(ph))


def _operator(u: SpaceTimeField, p: SpaceTimeField, params: OseenParams, consume):
    """The operand check, then A(u, p) handed to ``consume`` piece by piece,
    as ``spectral._irfft`` hands its samples: for each velocity component j
    in turn, the thread that made the piece ``index`` of row j, the real
    samples of ``symbol * u^_j + i xi_j p^``, calls ``consume(j, index,
    samples)``, and the results of each row come back in piece order.  p^ is
    built once; u^_j lives only while its row is made, and the symbol and
    i xi_j p^ only a piece at a time, formed by the thread that transformed
    the piece."""
    _require_operands(u, p, params)
    domain, xi = u.domain, u.domain.xi_grids()
    ph = _rfft(p.samples)

    def combine(j, index, uh):
        cut = _cut(xi, index)
        symbol = _symbol(domain, params.lam, cut, domain.eta_grid())
        # symbol first: numpy's complex product is not bitwise commutative
        np.multiply(symbol, uh[0], out=uh[0])
        uh[0] += np.multiply(1j * cut[j], ph[index][0], out=symbol)

    return [
        _irfft(_rfft(u.samples[j : j + 1], partial(combine, j)), partial(consume, j))
        for j in range(domain.n)
    ]


def apply_operator(
    u: SpaceTimeField, p: SpaceTimeField, params: OseenParams
) -> SpaceTimeField:
    """Forward operator du/dt - Lap(u) - lam*d1(u) + grad(p), spectrally.

    One transform pair per velocity component plus one forward transform of
    p; the consumer of :func:`_operator` copies each piece into the output.
    ``DomainMismatch`` if u is not a vector field, p not a scalar on its
    domain, or ``params.T`` not the domain's period.
    """
    out = np.empty_like(u.samples)
    _operator(u, p, params, lambda j, index, a: np.copyto(out[j : j + 1][index], a))
    return SpaceTimeField(u.domain, out)


def apply_operator_fd(
    u: SpaceTimeField, p: SpaceTimeField, params: OseenParams
) -> SpaceTimeField:
    """Order-2 centered-difference version of :func:`apply_operator`.

    Independent of the spectral path; a cross-check oracle for residuals,
    with apply_operator's ``DomainMismatch``.  Differences wrap periodically.
    """
    _require_operands(u, p, params)
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


def _residual(
    u: SpaceTimeField, p: SpaceTimeField, f: SpaceTimeField, params: OseenParams
) -> float:
    """max|A(u, p) - f|, one velocity component and one piece at a time: the
    consumer of :func:`_operator`, run by the thread that made a sample
    piece, checks it, subtracts f and reduces it, so no full-size row of
    A(u, p) exists."""

    def gap(j: int, index, a: np.ndarray) -> float:
        # max() would drop a NaN, so an overflowing symbol must stop here
        if not np.isfinite(a).all():
            raise DomainMismatch("samples contain non-finite values")
        np.subtract(a, f.samples[j : j + 1][index], out=a)
        return float(np.max(np.abs(a, out=a)))

    return max(max(row) for row in _operator(u, p, params, gap))


def solve_full(
    f: SpaceTimeField,
    params: OseenParams,
    tol: float = DEFAULT_TOL,
    norm_kinds: list[norms.NormKind] | None = None,
) -> SolutionBundle:
    """Full solve of the momentum system for arbitrary vector data.

    Pipeline, on the half spectrum of ``f``: one Helmholtz split removes the
    gradient part, whose potential gives the pressure, and one quotient by
    the operator's symbol inverts the projected part (the steady symbol on
    k == 0, the time-periodic multiplier elsewhere); v is the k == 0 slice
    of u, held as a read-only view of one spatial slice, and w = u - v.  The
    relative residual max|A(u, p) - f| / max|f| is taken one velocity
    component at a time, so no full-size A(u, p) is formed.  The report
    contains ``lq_data`` (the Lq norm of ``f``) and every norm applicable to
    ``(n, lam, q)``: ``lq_velocity`` of u, ``sobolev_21q_periodic`` of w,
    the steady family's tag (for example ``steady_stokes``) of v and
    ``pressure_xp`` of p.  Pass ``norm_kinds`` to request specific ones
    instead; they are reported under the same names, without ``lq_data``
    (invalid requests raise ``InvalidExponent``).

    Raises
    ------
    IncompatibleMean
        If the data's steady solenoidal part has nonzero spatial mean.
    DomainMismatch
        If ``params.T`` is not the period of ``f``'s domain, if u, p or
        A(u, p) has a non-finite sample (the symbol overflowed), or if a
        reported norm is not finite.
    ResidualExceedsTol
        If the relative residual of the solution is not within ``tol``.
    ValueError
        If ``tol`` is not positive and finite.
    """
    _require_tol(tol)
    _require_vector(f)
    _require_period(f.domain, params)
    _require_invertible(f.domain, params.lam)
    scale = f.max_abs()
    _require_compatible_mean(f, tol, scale)
    domain, xi = f.domain, f.domain.xi_grids()
    ph = np.empty((1,) + domain.spectral_shape, dtype=complex)
    steady = np.empty((domain.n,) + (domain.N,) * domain.n, dtype=complex)

    def piece(index, fh):
        # in the thread that transformed this piece of f: the pressure's
        # coefficients, u^ in place, and u^'s part of the k == 0 slice
        cut = _cut(xi, index)
        np.multiply(-1j, _split(cut, fh), out=ph[index][0])
        _invert(fh, domain, params.lam, cut, domain.eta_grid())
        steady[index] = fh[..., 0]

    uh = _rfft(f.samples, piece)
    p = SpaceTimeField(domain, _irfft(ph))
    del ph
    v = _steady_slice(steady, domain)
    del steady
    u = SpaceTimeField(domain, _irfft(uh))
    del uh
    residual_norm = _residual(u, p, f, params) / (scale if scale > 0.0 else 1.0)
    if not residual_norm <= tol:
        raise ResidualExceedsTol(
            f"relative residual {residual_norm:.3e} exceeds tol {tol:.3e} "
            f"on {domain}, lambda={params.lam!r}"
        )
    w = u - v

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
    bad = [name for name, value in report.items() if not np.isfinite(value)]
    if bad:
        raise DomainMismatch(f"norms {bad} are not finite: beyond the double range")
    return report
