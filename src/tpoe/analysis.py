"""Verification harness: multiplier scans, manufactured solutions, sweeps.

Randomness policy: every ensemble is drawn from numpy's default PCG64
generator seeded explicitly, and the seed is carried into every record and
report.  Band-limited random fields draw their mode coefficients in a
canonical band order that does not depend on the grid size, so the same
seed denotes the same continuum field at every resolution that resolves
the band.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import DomainMismatch, EmptySweep, InvalidGrid, NonHermitian, UnknownRecipe
from .norms import lq_norm, sobolev_norm_21q
from .solver import (
    SolutionBundle,
    _split,
    apply_operator,
    apply_operator_fd,
    solve_full,
    solve_time_periodic,
)
from .spectral import _HERMITIAN_TOL, SpaceTimeField, TorusDomain, _irfft
from .symbols import OseenParams, _denominator, _quotient, _weight, evaluate_m
from .symbols import time_periodic_multiplier_grid

GENERATOR_NAME = "numpy-pcg64"


# ---------------------------------------------------------------------------
# random band-limited fields
# ---------------------------------------------------------------------------


def random_band_limited_field(
    domain: TorusDomain,
    components: int,
    rng: np.random.Generator,
    m_max: int | None = None,
    k_max: int | None = None,
    *,
    solenoidal: bool = False,
    purely_periodic: bool = False,
    time_constant: bool = False,
    zero_spatial_mean: bool = False,
) -> SpaceTimeField:
    """Random real field with Gaussian mode amplitudes on a frequency band.

    Coefficients are drawn on the centered band ``|m_j| <= m_max``,
    ``|k| <= k_max`` in an order independent of (N, Nt); conjugate symmetry
    is imposed by construction.  The result is scaled to unit max norm.
    The flags project mode-wise: ``solenoidal`` removes the component along
    xi, ``purely_periodic`` zeroes the k == 0 stratum, ``time_constant``
    keeps only the k == 0 stratum, ``zero_spatial_mean`` zeroes every m == 0
    column.
    """
    return _band_field(
        domain, _band_draws(domain, components, rng, m_max, k_max),
        solenoidal=solenoidal, purely_periodic=purely_periodic,
        time_constant=time_constant, zero_spatial_mean=zero_spatial_mean,
    )


def _band_draws(
    domain: TorusDomain,
    components: int,
    rng: np.random.Generator,
    m_max: int | None = None,
    k_max: int | None = None,
) -> np.ndarray:
    """The one draw of :func:`random_band_limited_field` from ``rng``: the
    standard normal real and imaginary parts, last axis, of every band mode,
    of shape ``(components,) + (2 m_max + 1,) * n + (2 k_max + 1, 2)``."""
    m_max = domain.N // 4 if m_max is None else m_max
    k_max = domain.Nt // 4 if k_max is None else k_max
    if not 1 <= m_max < domain.N // 2:
        raise ValueError(f"m_max must be in [1, N/2), got {m_max}")
    if not 1 <= k_max < domain.Nt // 2:
        raise ValueError(f"k_max must be in [1, Nt/2), got {k_max}")
    band_shape = (components,) + (2 * m_max + 1,) * domain.n + (2 * k_max + 1,)
    return rng.standard_normal(band_shape + (2,))


def _band_field(
    domain: TorusDomain,
    draws: np.ndarray,
    *,
    solenoidal: bool = False,
    purely_periodic: bool = False,
    time_constant: bool = False,
    zero_spatial_mean: bool = False,
) -> SpaceTimeField:
    """The field :func:`random_band_limited_field` builds from its
    :func:`_band_draws` ``draws``."""
    n, components = domain.n, draws.shape[0]
    if purely_periodic and time_constant:
        raise ValueError("a field cannot be both purely periodic and steady")
    if solenoidal and components != n:
        raise ValueError("solenoidal projection needs a vector field")
    m_max, k_max = draws.shape[1] // 2, draws.shape[-2] // 2
    modes = np.arange(-m_max, m_max + 1)
    band = draws[..., 0] + 1j * draws[..., 1]
    band_axes = tuple(range(1, band.ndim))
    band = 0.5 * (band + np.conj(np.flip(band, axis=band_axes)))

    if purely_periodic:
        band[..., k_max] = 0.0
    if time_constant:
        band[..., np.arange(2 * k_max + 1) != k_max] = 0.0
    if zero_spatial_mean:
        center = (slice(None),) + (m_max,) * n + (slice(None),)
        band[center] = 0.0

    if solenoidal:
        # xi (xi . c)/|xi|^2 does not change when xi is scaled, so project on
        # the integer modes, whose |m|^2 cannot underflow at any L
        m = [domain._axis_view(modes, j) for j in range(n)]
        _split(m, band)
    defect = np.max(np.abs(band - np.conj(np.flip(band, axis=band_axes))))
    if defect > _HERMITIAN_TOL * np.max(np.abs(band)):
        raise NonHermitian("band coefficients are not conjugate-symmetric")
    # the k >= 0 half of the band is the half spectrum
    coeff = np.zeros((components,) + domain.spectral_shape, dtype=complex)
    index = [np.arange(components)] + [modes % domain.N] * n
    coeff[np.ix_(*index, np.arange(k_max + 1))] = band[..., k_max:]
    field = SpaceTimeField(domain, _irfft(coeff))
    # every accepted flag combination keeps band modes with m != 0 (and a
    # divergence-free direction of each), so the draw vanishes with
    # probability zero
    scale_phys = field.max_abs()
    if not scale_phys > 1e-12:
        raise RuntimeError("random band-limited field degenerated to zero")
    np.multiply(field.samples, 1.0 / scale_phys, out=field.samples)  # its own
    return field


def _ensemble(domain: TorusDomain, rng: np.random.Generator, size: int, run) -> list:
    """``[run(i, w_i) for i in range(size)]``, where w_i is the i-th of
    ``size`` random solenoidal, purely periodic vector fields on ``domain``
    drawn from ``rng`` by :func:`random_band_limited_field`, so member i
    gets the i-th draw for any thread count.

    A field below ``_THREAD_BYTES`` starts no thread in its transform
    passes, so its members run on threads of the call: round by round,
    the caller draws ``_WORKERS`` members' normals in member order, and
    :func:`spectral._map` builds and runs them, one per thread.  From that
    size on, members run one at a time, their passes threaded, so memory
    stays that of one member.  Errors are raised as the loop would raise
    them: the lowest failing member's, after every member below it ran.
    """
    field_bytes = 8 * domain.n * int(np.prod(domain.grid_shape))
    per_round = spectral._WORKERS if field_bytes < spectral._THREAD_BYTES else 1

    def member(i):
        # popped, so the normals are freed once the field is built
        w = _band_field(domain, draws.pop(i), solenoidal=True, purely_periodic=True)
        return run(i, w)

    results = []
    for start in range(0, size, per_round):
        members = range(start, min(size, start + per_round))
        draws = {i: _band_draws(domain, domain.n, rng) for i in members}
        results += spectral._map(member, members)
    return results


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------

RECIPES = ("zero", "single-mode", "random", "mixed")

# random recipes populate a fixed band so that a given (recipe, seed) denotes
# one continuum field at every resolution that resolves it (N, Nt >= 10)
RECIPE_BAND = 4


def manufactured_case(
    recipe_id: str,
    domain: TorusDomain,
    params: OseenParams,
    seed: int = 0,
) -> tuple[SpaceTimeField, SpaceTimeField, SpaceTimeField]:
    """Manufactured (u, p, f) with f computed exactly by the forward operator.

    Catalog:

    * ``zero`` -- everything vanishes.
    * ``single-mode`` -- one oscillating transverse mode, zero pressure.
    * ``random`` -- multi-mode random purely periodic velocity plus a random
      band-limited pressure.
    * ``mixed`` -- random steady and purely periodic velocity parts plus a
      random pressure.

    All velocities are solenoidal mode by mode, steady parts have zero
    spatial mean (the torus compatibility condition), and pressures carry no
    spatial-constant modes, matching the recovery gauge.  The random recipes
    draw on the fixed band ``RECIPE_BAND`` independent of the grid, so the
    same seed denotes the same continuum field across resolutions.

    Raises
    ------
    UnknownRecipe
        If ``recipe_id`` is not in the catalog.
    DomainMismatch
        If a random recipe's band does not fit the grid: it needs
        ``N // 2 > RECIPE_BAND`` and ``Nt // 2 > RECIPE_BAND``; or if
        ``params.T`` is not the period of ``domain``.
    """
    if recipe_id not in RECIPES:
        raise UnknownRecipe(f"no manufactured recipe named {recipe_id!r}; "
                            f"known: {', '.join(RECIPES)}")
    n = domain.n
    if recipe_id == "zero":
        u = SpaceTimeField.zeros(domain, n)
        p = SpaceTimeField.zeros(domain, 1)
    elif recipe_id == "single-mode":
        x1, t = domain._axis_view(domain.spatial_axis(), 0), domain.time_axis()
        phase = 2.0 * np.pi / domain.L * x1 + 2.0 * np.pi / domain.T * t
        samples = np.zeros((n,) + domain.grid_shape)
        samples[1] = np.cos(phase)
        u = SpaceTimeField(domain, samples)
        p = SpaceTimeField.zeros(domain, 1)
    else:
        if min(domain.N, domain.Nt) // 2 <= RECIPE_BAND:
            raise DomainMismatch(
                f"recipe {recipe_id!r} draws on the band |m|, |k| <= {RECIPE_BAND}, "
                f"which needs N, Nt >= {2 * RECIPE_BAND + 2}; "
                f"got N={domain.N}, Nt={domain.Nt}"
            )
        rng = np.random.default_rng(seed)
        band = {"m_max": RECIPE_BAND, "k_max": RECIPE_BAND}
        # the draw order v, w, p is part of what a seed denotes; keep it
        v = None
        if recipe_id == "mixed":
            v = random_band_limited_field(
                domain, n, rng, solenoidal=True, time_constant=True,
                zero_spatial_mean=True, **band,
            )
        w = random_band_limited_field(
            domain, n, rng, solenoidal=True, purely_periodic=True, **band
        )
        p = random_band_limited_field(
            domain, 1, rng, zero_spatial_mean=True, **band
        )
        u = w if v is None else v + w
        del v, w  # only u is returned; free the parts before f is built
    return u, p, apply_operator(u, p, params)


def roundtrip_verify(
    domain: TorusDomain,
    params: OseenParams,
    ensemble_size: int,
    seed: int,
) -> float:
    """Worst relative error of solve(apply(w)) == w over a random ensemble.

    Fields are random band-limited, solenoidal and purely periodic; the
    members run concurrently as :func:`_ensemble` describes, and the value
    is the serial loop's for any thread count.
    """
    if ensemble_size < 1:
        raise ValueError("ensemble must contain at least one field")
    # a read-only view: no grid of zeros
    p_zero = SpaceTimeField(domain, np.broadcast_to(0.0, (1,) + domain.grid_shape))

    def error(_, w: SpaceTimeField) -> float:
        back = solve_time_periodic(apply_operator(w, p_zero, params), params)
        np.subtract(back.samples, w.samples, out=back.samples)  # its own
        return back.max_abs() / w.max_abs()

    errors = _ensemble(domain, np.random.default_rng(seed), ensemble_size, error)
    return max([0.0, *errors])  # the serial fold, which keeps 0.0 over a NaN


# ---------------------------------------------------------------------------
# multiplier analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanGrid:
    """Log-radial evaluation grid for the Euclidean multiplier scan.

    ``shells`` radii are log-spaced on [radial_min, radial_max]; directions
    are the signed coordinate axes, the signed diagonal, and ``directions``
    seeded random unit vectors, each paired with its xi_1-mirror so the grid
    is symmetric under xi_1 -> -xi_1.  The supremum over this grid is an
    approximation of the supremum over the whole frequency space; nothing
    more is claimed.
    """

    n: int
    radial_min: float = 1e-2
    radial_max: float = 1e4
    shells: int = 64
    directions: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n not in (2, 3):
            raise InvalidGrid(f"spatial dimension must be 2 or 3, got {self.n}")
        if self.shells < 1:
            raise InvalidGrid("scan grid needs at least one radial shell")
        if self.directions < 0:
            raise InvalidGrid("direction count must be non-negative")
        if not 0.0 < self.radial_min < self.radial_max < np.inf:
            raise InvalidGrid("need 0 < radial_min < radial_max < inf")

    def points(self) -> np.ndarray:
        """All evaluation points, shape (n + 1, P)."""
        dim = self.n + 1
        dirs = [np.eye(dim)[i] * s for i in range(dim) for s in (1.0, -1.0)]
        diag = np.ones(dim) / np.sqrt(dim)
        dirs += [diag, -diag]
        rng = np.random.default_rng(self.seed)
        for _ in range(self.directions):
            v = rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            mirrored = v.copy()
            mirrored[0] = -mirrored[0]
            dirs += [v, mirrored]
        radii = np.geomspace(self.radial_min, self.radial_max, self.shells)
        direction_arr = np.asarray(dirs)  # (D, dim)
        pts = radii[:, None, None] * direction_arr[None, :, :]
        return pts.reshape(-1, dim).T


@dataclass(frozen=True)
class MarcinkiewiczReport:
    """Grid suprema of |xi^eps * eta^eps * d^eps m| per derivative pattern."""

    per_epsilon: dict[str, float]
    overall: float


def _mixed_partial(
    points: np.ndarray,
    eps: tuple[int, ...],
    params: OseenParams,
) -> np.ndarray:
    """x^eps d^eps m at each point, in closed form: the derivative times
    the variables it is taken in, as the scan weighs it.

    D = |xi|^2 + i*(eta - lam*xi_1) has no mixed second derivatives, so for
    the set S of active variables x^S d_S(1/D) = (-1)^|S| |S|! (1/D)
    prod_{i in S} (x_i d_i D / D), with d_{xi_j} D = 2*xi_j - i*lam*[j == 1]
    and d_eta D = i.  The numerator w = 1 - chi(T*eta/(2*pi)) depends on eta
    alone, so x^S d_S m = w x^S d_S(1/D), plus (eta w') x^(S minus eta)
    d_(S minus eta)(1/D) when eta is in S.  Each weight is folded into its
    ratio x_i (d_i D / D), which stays near 1, so the product is finite where
    its value is, though d^eps m alone can leave the double range.  The
    value is exactly 0 wherever w and w' both vanish (the plateau), as m is.
    """
    *xi, eta = points
    weight, slope = _weight(eta, params.T)
    plateau = (weight == 0.0) & (slope == 0.0)
    recip = _quotient(1.0, _denominator(xi, eta, params.lam), plateau)
    term = recip  # x^S d_S(1/D) for the active xi, one ratio at a time
    for order, j in enumerate((j for j in range(len(xi)) if eps[j]), start=1):
        # xi_j d_j D / D, each factor of xi_j next to 1/D, where it is finite
        ratio = xi[j] * (2.0 * xi[j] * recip)
        if j == 0:
            ratio -= 1j * params.lam * (xi[0] * recip)
        term = -order * term * ratio
    if eps[-1]:  # d_eta D = i
        ratio = eta * (1j * recip)
        return weight * (-sum(eps) * term * ratio) + (eta * slope) * term
    return weight * term


def marcinkiewicz_scan(params: OseenParams, grid: ScanGrid) -> MarcinkiewiczReport:
    """Scan every derivative pattern eps in {0,1}^(n+1) for grid suprema of
    the multiplier products |xi_1^eps1 ... eta^eps_{n+1} d^eps m|; raises
    ``InvalidGrid`` if one is not finite (too large a radial_max, lambda or T)."""
    points = grid.points()  # never empty: ScanGrid keeps a shell and 2(n+2) directions
    per_eps: dict[str, float] = {}
    for eps in itertools.product((0, 1), repeat=grid.n + 1):
        product = _mixed_partial(points, eps, params)
        per_eps["".join(map(str, eps))] = float(np.max(np.abs(product)))
    overall = float(np.max(list(per_eps.values())))  # NaN propagates
    if not np.isfinite(overall):
        raise InvalidGrid(
            f"scan overflowed to {overall}: lower radial_max, lambda or T"
        )
    return MarcinkiewiczReport(per_epsilon=per_eps, overall=overall)


def transference_check(domain: TorusDomain, params: OseenParams) -> float:
    """Max deviation |M(m, k) - m(Phi(m, k))| over the dual grid.

    The dual-group embedding Phi is the grid's own frequency arrays, so both
    sides are evaluated over the whole half grid k = 0 .. Nt/2 at once (on
    k < 0 both are the conjugates of their values at (-m, -k)); unmatched
    Nyquist modes are left out.  Zero (exactly): on integer time
    frequencies the bump collapses to the k == 0 indicator.

    Raises
    ------
    DomainMismatch
        If ``params.T`` is not the period of ``domain``, or the deviation is
        not finite (lam * xi_1 or |xi|^2 overflows).
    """
    lhs = time_periodic_multiplier_grid(domain, params)
    rhs = evaluate_m(domain.xi_grids(), domain.eta_grid(), params)
    deviation = float(np.max(np.abs(lhs - rhs)[domain.nyquist_mask()]))
    if not np.isfinite(deviation):
        raise DomainMismatch(f"symbols overflow to {deviation}: lower lambda or N/L")
    return deviation


# ---------------------------------------------------------------------------
# sweeps and convergence studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRecord:
    """One statistic of one sweep cell."""

    lam: float
    T: float
    q: float
    N: int
    Nt: int
    statistic: str
    value: float
    seed: int


RATIO_STATISTIC = "max_ratio_sobolev21q_over_lq"
MARCINKIEWICZ_STATISTIC = "marcinkiewicz_overall"


def constant_sweep(
    domain: TorusDomain,
    q: float,
    lambda_list: list[float],
    T_list: list[float],
    ensemble_size: int,
    seed: int,
    scan_grid: ScanGrid,
) -> list[SweepRecord]:
    """Empirical growth study of the a priori constant over (lam, T).

    For each cell: the max over a seeded ensemble of
    ``||w||_{2,1,q} / ||f||_q`` for random purely periodic solenoidal data,
    plus the Marcinkiewicz supremum over ``scan_grid`` for the same
    parameters.  No ordering or specific value is asserted anywhere; the
    records feed a descriptive fit only.  Raises ``DomainMismatch`` if a
    ratio is not positive and finite.

    The ensemble is drawn afresh from ``seed`` in every cell, so member i
    of period T is the same field for every lam: its ``||f||_q`` is taken
    in the first lam and reused, ``ensemble_size * len(T_list)`` norms in
    all.  The loop stays lam-major, so the records, the draws and the order
    in which errors can arise do not depend on the reuse.  Within a cell
    the members run concurrently as :func:`_ensemble` describes, and the
    records are the serial loop's for any thread count.
    """
    if not lambda_list or not T_list or ensemble_size < 1:
        raise EmptySweep("sweep needs non-empty parameter lists and ensemble")
    records: list[SweepRecord] = []
    data_norms: dict[tuple[float, int], float] = {}  # ||f||_q by (T, member)
    for lam in lambda_list:
        for T in T_list:
            dom = dataclasses.replace(domain, T=T)
            params = OseenParams(lam=lam, T=T, q=q)

            def member_ratio(member: int, f: SpaceTimeField) -> float:
                w = solve_time_periodic(f, params)
                value = sobolev_norm_21q(w, q)
                # only this member's thread reads or writes its key
                if (T, member) not in data_norms:
                    data_norms[T, member] = lq_norm(f, q)
                value /= data_norms[T, member]
                if not 0.0 < value < np.inf:  # the fit takes its logarithm
                    raise DomainMismatch(f"sweep ratio {value} is outside (0, inf)")
                return value

            rng = np.random.default_rng(seed)
            ratios = _ensemble(dom, rng, ensemble_size, member_ratio)
            ratio = max([0.0, *ratios])  # the serial fold
            records.append(
                SweepRecord(lam, T, q, dom.N, dom.Nt, RATIO_STATISTIC, ratio, seed)
            )
            scan = marcinkiewicz_scan(params, scan_grid)
            records.append(
                SweepRecord(
                    lam, T, q, dom.N, dom.Nt,
                    MARCINKIEWICZ_STATISTIC, scan.overall, seed,
                )
            )
    return records


def fit_log_trend(records: list[SweepRecord]) -> dict:
    """Descriptive least-squares fit of log(value) on log(1+|lam|), log(T)
    over the ``RATIO_STATISTIC`` records.

    The theory asserts the constant admits *some* polynomial bound in lam
    and T but names no degree, so the fit is reported (degree, coefficients,
    rms residual) and never asserted against.
    """
    rows = [r for r in records if r.statistic == RATIO_STATISTIC]
    if not rows:
        raise EmptySweep(f"no records with statistic {RATIO_STATISTIC!r}")
    design = np.array(
        [[1.0, np.log1p(abs(r.lam)), np.log(r.T)] for r in rows]
    )
    target = np.log(np.array([r.value for r in rows]))
    coeff, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    residual = target - design @ coeff
    return {
        "statistic": RATIO_STATISTIC,
        "degree": 1,
        "basis": ["1", "log1p(|lambda|)", "log(T)"],
        "coefficients": [float(c) for c in coeff],
        "rms_residual": float(np.sqrt(np.mean(residual**2))),
        "points": len(rows),
    }


@dataclass(frozen=True)
class ConvergenceRow:
    """Errors of one resolution of a manufactured-solution study."""

    N: int
    Nt: int
    residual: float
    recovery_error: float
    fd_residual: float


def _recovery_error(
    bundle: SolutionBundle, u: SpaceTimeField, p: SpaceTimeField
) -> float:
    """Error of ``bundle`` against the exact pair ``(u, p)``:
    max(|bundle.u - u|, |bundle.p - p|) / max(|u|, |p|), all max norms."""
    scale = max(u.max_abs(), p.max_abs(), 1e-300)
    return max((bundle.u - u).max_abs(), (bundle.p - p).max_abs()) / scale


def convergence_study(
    recipe_id: str,
    domain: TorusDomain,
    params: OseenParams,
    resolutions: list[tuple[int, int]],
    seed: int = 0,
) -> list[ConvergenceRow]:
    """Solve one manufactured case across resolutions.

    Band-limited recipes sit at the rounding floor at every resolution that
    resolves their modes; the centered-difference residual decays at second
    order and is the row that exhibits grid convergence.
    """
    if len(resolutions) < 2:
        raise ValueError("convergence study needs at least two resolutions")
    rows: list[ConvergenceRow] = []
    for N, Nt in resolutions:
        dom = dataclasses.replace(domain, N=N, Nt=Nt)
        u, p, f = manufactured_case(recipe_id, dom, params, seed=seed)
        bundle = solve_full(f, params, norm_kinds=[])  # the report is unused
        f_scale = f.max_abs() if f.max_abs() > 0.0 else 1.0
        fd = (apply_operator_fd(bundle.u, bundle.p, params) - f).max_abs() / f_scale
        rows.append(
            ConvergenceRow(
                N=N,
                Nt=Nt,
                residual=bundle.residual_norm,
                recovery_error=_recovery_error(bundle, u, p),
                fd_residual=fd,
            )
        )
    return rows
