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

from .errors import DomainMismatch, EmptySweep, InvalidGrid, NonHermitian, UnknownRecipe
from .norms import lq_norm, sobolev_norm_21q
from .solver import (
    SolutionBundle,
    _project,
    _require_period,
    apply_operator,
    apply_operator_fd,
    solve_full,
    solve_time_periodic,
)
from .spectral import (
    _HERMITIAN_TOL, SpaceTimeField, SpectralField, TorusDomain, inverse,
)
from .symbols import (
    DEFAULT_CUTOFF,
    CutoffSpec,
    OseenParams,
    evaluate_m,
    time_periodic_multiplier_grid,
)

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
    n = domain.n
    m_max = domain.N // 4 if m_max is None else m_max
    k_max = domain.Nt // 4 if k_max is None else k_max
    if not 1 <= m_max < domain.N // 2:
        raise ValueError(f"m_max must be in [1, N/2), got {m_max}")
    if not 1 <= k_max < domain.Nt // 2:
        raise ValueError(f"k_max must be in [1, Nt/2), got {k_max}")
    if purely_periodic and time_constant:
        raise ValueError("a field cannot be both purely periodic and steady")
    if solenoidal and components != n:
        raise ValueError("solenoidal projection needs a vector field")

    band_shape = (components,) + (2 * m_max + 1,) * n + (2 * k_max + 1,)
    modes = np.arange(-m_max, m_max + 1)
    draws = rng.standard_normal(band_shape + (2,))
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
        xi = [domain._axis_view(2.0 * np.pi / domain.L * modes, j) for j in range(n)]
        _project(xi, band)
    defect = np.max(np.abs(band - np.conj(np.flip(band, axis=band_axes))))
    if defect > _HERMITIAN_TOL * np.max(np.abs(band)):
        raise NonHermitian("band coefficients are not conjugate-symmetric")
    # the k >= 0 half of the band is the half spectrum
    spec = SpectralField.zeros(domain, components)
    index = [np.arange(components)] + [modes % domain.N] * n
    spec.coefficients[np.ix_(*index, np.arange(k_max + 1))] = band[..., k_max:]
    field = inverse(spec, check=False)
    # every accepted flag combination keeps band modes with m != 0 (and a
    # divergence-free direction of each), so the draw vanishes with
    # probability zero
    scale_phys = field.max_abs()
    if not scale_phys > 1e-12:
        raise RuntimeError("random band-limited field degenerated to zero")
    return field * (1.0 / scale_phys)


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
        ``N // 2 > RECIPE_BAND`` and ``Nt // 2 > RECIPE_BAND``.
    """
    if recipe_id not in RECIPES:
        raise UnknownRecipe(f"no manufactured recipe named {recipe_id!r}; "
                            f"known: {', '.join(RECIPES)}")
    n = domain.n
    if recipe_id == "zero":
        u = SpaceTimeField.zeros(domain, n)
        p = SpaceTimeField.zeros(domain, 1)
    elif recipe_id == "single-mode":
        coords = domain.meshgrid()
        phase = 2.0 * np.pi / domain.L * coords[0] + 2.0 * np.pi / domain.T * coords[n]
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
    return u, p, apply_operator(u, p, params)


def roundtrip_verify(
    domain: TorusDomain,
    params: OseenParams,
    ensemble_size: int,
    seed: int,
) -> float:
    """Worst relative error of solve(apply(w)) == w over a random ensemble.

    Fields are random band-limited, solenoidal and purely periodic.
    """
    if ensemble_size < 1:
        raise ValueError("ensemble must contain at least one field")
    rng = np.random.default_rng(seed)
    p_zero = SpaceTimeField.zeros(domain, 1)
    worst = 0.0
    for _ in range(ensemble_size):
        w = random_band_limited_field(
            domain, domain.n, rng, solenoidal=True, purely_periodic=True
        )
        f = apply_operator(w, p_zero, params)
        back = solve_time_periodic(f, params)
        worst = max(worst, (back - w).max_abs() / w.max_abs())
    return worst


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
    cutoff: CutoffSpec,
) -> np.ndarray:
    """d^eps m at each point by nested central differences.

    Step per variable is 1e-4 * max(1, |coordinate|), Richardson-extrapolated
    once (h and h/2), which lifts the leading error to fourth order.
    """
    active = [i for i, e in enumerate(eps) if e]
    n = points.shape[0] - 1

    def evaluate(shifted: np.ndarray) -> np.ndarray:
        return evaluate_m(shifted[:n], shifted[n], params, cutoff)

    if not active:
        return evaluate(points)

    base_h = 1e-4 * np.maximum(1.0, np.abs(points[active]))

    def stencil(scale: float) -> np.ndarray:
        h = base_h * scale
        total = np.zeros(points.shape[1], dtype=complex)
        for signs in itertools.product((-1.0, 1.0), repeat=len(active)):
            shifted = points.copy()
            for s, (row, i) in zip(signs, enumerate(active)):
                shifted[i] = shifted[i] + s * h[row]
            total += np.prod(signs) * evaluate(shifted)
        return total / np.prod(2.0 * h, axis=0)

    return (4.0 * stencil(0.5) - stencil(1.0)) / 3.0


def marcinkiewicz_scan(
    params: OseenParams,
    grid: ScanGrid,
    cutoff: CutoffSpec = DEFAULT_CUTOFF,
) -> MarcinkiewiczReport:
    """Scan every derivative pattern eps in {0,1}^(n+1) for grid suprema of
    the multiplier products |xi_1^eps1 ... eta^eps_{n+1} d^eps m|."""
    points = grid.points()
    if points.size == 0:
        raise InvalidGrid("scan grid is empty")
    dim = grid.n + 1
    per_eps: dict[str, float] = {}
    for eps in itertools.product((0, 1), repeat=dim):
        deriv = _mixed_partial(points, eps, params, cutoff)
        weight = np.ones(points.shape[1])
        for i, e in enumerate(eps):
            if e:
                weight = weight * points[i]
        sup = float(np.max(np.abs(weight * deriv)))
        per_eps["".join(map(str, eps))] = sup
    return MarcinkiewiczReport(
        per_epsilon=per_eps,
        overall=float(np.max(list(per_eps.values()))),  # NaN propagates
    )


def transference_check(
    domain: TorusDomain,
    params: OseenParams,
    cutoff: CutoffSpec = DEFAULT_CUTOFF,
) -> float:
    """Max deviation |M(m, k) - m(Phi(m, k))| over the dual grid.

    The dual-group embedding Phi is the grid's own frequency arrays, so both
    sides are evaluated over the whole half grid k = 0 .. Nt/2 at once (on
    k < 0 both are the conjugates of their values at (-m, -k)); unmatched
    Nyquist modes are left out.  Zero (exactly) for the default cut-off: on
    integer time frequencies the bump collapses to the k == 0 indicator.
    The ``cutoff`` hook exists to demonstrate that a widened bump breaks
    the identity.

    Raises
    ------
    DomainMismatch
        If ``params.T`` is not the period of ``domain``.
    """
    _require_period(domain, params)
    lhs = time_periodic_multiplier_grid(domain, params)
    rhs = evaluate_m(domain.xi_grids(), domain.eta_grid(), params, cutoff)
    return float(np.max(np.abs(lhs - rhs)[domain.nyquist_mask()]))


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
    scan_grid: ScanGrid | None = None,
) -> list[SweepRecord]:
    """Empirical growth study of the a priori constant over (lam, T).

    For each cell: the max over a seeded ensemble of
    ``||w||_{2,1,q} / ||f||_q`` for random purely periodic solenoidal data,
    plus the Marcinkiewicz grid supremum for the same parameters.  No
    ordering or specific value is asserted anywhere; the records feed a
    descriptive fit only.
    """
    if not lambda_list or not T_list or ensemble_size < 1:
        raise EmptySweep("sweep needs non-empty parameter lists and ensemble")
    records: list[SweepRecord] = []
    for lam in lambda_list:
        for T in T_list:
            dom = dataclasses.replace(domain, T=T)
            params = OseenParams(lam=lam, T=T, q=q)
            rng = np.random.default_rng(seed)
            ratio = 0.0
            for _ in range(ensemble_size):
                f = random_band_limited_field(
                    dom, dom.n, rng, solenoidal=True, purely_periodic=True
                )
                w = solve_time_periodic(f, params)
                ratio = max(ratio, sobolev_norm_21q(w, q) / lq_norm(f, q))
            records.append(
                SweepRecord(lam, T, q, dom.N, dom.Nt, RATIO_STATISTIC, ratio, seed)
            )
            grid = scan_grid if scan_grid is not None else ScanGrid(n=dom.n, seed=seed)
            scan = marcinkiewicz_scan(params, grid)
            records.append(
                SweepRecord(
                    lam, T, q, dom.N, dom.Nt,
                    MARCINKIEWICZ_STATISTIC, scan.overall, seed,
                )
            )
    return records


def fit_log_trend(
    records: list[SweepRecord], statistic: str = RATIO_STATISTIC
) -> dict:
    """Descriptive least-squares fit of log(value) on log(1+|lam|), log(T).

    The theory asserts the constant admits *some* polynomial bound in lam
    and T but names no degree, so the fit is reported (degree, coefficients,
    rms residual) and never asserted against.
    """
    rows = [r for r in records if r.statistic == statistic]
    if not rows:
        raise EmptySweep(f"no records with statistic {statistic!r}")
    design = np.array(
        [[1.0, np.log1p(abs(r.lam)), np.log(r.T)] for r in rows]
    )
    target = np.log(np.array([r.value for r in rows]))
    coeff, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    residual = target - design @ coeff
    return {
        "statistic": statistic,
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
