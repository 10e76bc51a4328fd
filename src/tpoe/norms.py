"""Quadrature of every norm used by the solve reports.

All integrals are rectangle-rule sums on the periodic grid, exact at
exponent 2 (r=1) and 4 (r=2); aliasing bounded elsewhere.  For a
band-limited field ``|f|^2`` and ``|f|^4`` are trigonometric polynomials of
twice and four times its band, which the grid and the grid refined by r=2
integrate exactly; any other ``|f|^q`` is not band-limited or exceeds that
band, and oversampling by the factor 2 bounds the aliasing error without
removing it.  The exponents alone decide the factor (:func:`_auto_refine`).

Every norm is a list of derivative blocks plus their combination, and
:func:`_block_norms` is the one quadrature: it returns one Lq value per
block, from one real forward transform and one call of the spectral module's
streamed inverse (``_refined_derivatives``) for all its blocks.  That call
runs the quadrature on each slab of refined rows in a thread of the call and
returns the slabs' sums in slab order, where they are combined, so every
value is bitwise equal for any thread count, and memory scales with the half
spectrum and one slab per thread, not with the refined grid.  A steady norm
acts on a time-constant field, so it is integrated over the time-mean spatial
slice alone.  Every square and q-th power is taken of values at most 1:
divided by their largest magnitude, a running maximum over the slabs, which
is multiplied back after the root.  So no norm overflows or underflows in the
double range (``TestNoOverflow``, q up to 1e4, and ``TestReportValues``,
scales 1e+-300, in ``tests/test_norms.py``).

Spatial Lebesgue norms are taken verbatim over the periodic box.  On the
whole space these exponents encode decay at infinity; a periodic box has no
infinity, so that meaning is not represented here -- only the formulas are.
Time integrals carry the ``1/T`` normalization throughout, which makes the
space-time norm of a time-constant field coincide with its spatial norm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import InvalidExponent
from .spectral import SpaceTimeField, TorusDomain, _distinct, _rfft
from .spectral import _refined_derivatives


class NormTag(str, Enum):
    LQ = "lq"
    SOBOLEV_21Q = "sobolev_21q"
    STEADY_STOKES = "steady_stokes"
    STEADY_OSEEN = "steady_oseen"
    STEADY_OSEEN_2D = "steady_oseen_2d"
    PRESSURE_XP = "pressure_xp"


STEADY_TAGS = (NormTag.STEADY_STOKES, NormTag.STEADY_OSEEN, NormTag.STEADY_OSEEN_2D)


def _exponent_bound(tag: NormTag, n: int, lam: float) -> float | None:
    """Upper end of the family's open exponent range (1, upper) at (n, lam),
    or None where the family does not exist there (see :class:`NormKind`)."""
    steady = {  # family -> (exists at (n, lam), m), and the bound is m / 2
        NormTag.STEADY_STOKES: (n >= 3 and lam == 0.0, n),
        NormTag.STEADY_OSEEN: (n >= 3 and lam != 0.0, n + 1),
        NormTag.STEADY_OSEEN_2D: (n == 2 and lam != 0.0, n + 1),
    }
    if tag not in steady:
        return n if tag == NormTag.PRESSURE_XP else np.inf
    exists, m = steady[tag]
    return m / 2 if exists else None


@dataclass(frozen=True)
class NormKind:
    """A norm family plus its Lebesgue exponent.

    ``validate`` enforces the admissible parameter ranges:

    * steady Stokes: n >= 3, lam == 0, q in (1, n/2)
    * steady Oseen: n >= 3, lam != 0, q in (1, (n+1)/2)
    * steady 2-d Oseen: n == 2, lam != 0, q in (1, 3/2)
    * pressure: q in (1, n)
    * plain Lq and the anisotropic Sobolev norm: q in (1, inf)
    """

    tag: NormTag
    q: float

    def validate(self, n: int, lam: float = 0.0) -> None:
        bound = _exponent_bound(self.tag, n, lam)
        name = f"{self.tag.value} norm"
        if bound is None:
            raise InvalidExponent(
                f"{name} does not exist at n={n}, lam={lam}; got q={self.q}"
            )
        if not 1.0 < self.q < bound:
            raise InvalidExponent(f"{name} needs q in (1, {bound}); got q={self.q}")


def _applicable_kinds(n: int, lam: float, q: float) -> list[NormKind]:
    """Every norm family that :meth:`NormKind.validate` admits for
    (n, lam, q), in ``NormTag`` order."""
    bounds = [(tag, _exponent_bound(tag, n, lam)) for tag in NormTag]
    return [NormKind(tag, q) for tag, bound in bounds if bound and 1.0 < q < bound]


# relative tolerance of the time-constancy check, and the default ``tol`` of
# the solver's contract checks
_TOL = 1e-10


def _time_mean(f: SpaceTimeField, tol: float = _TOL) -> np.ndarray:
    """The time mean of ``f``'s samples, after rejecting (ValueError) a
    field with a sample farther from it than ``tol`` relative to max|f|."""
    mean = np.mean(f.samples, axis=-1)
    # max|s - mean| over a line is at its largest or smallest sample, and
    # rounding keeps that order; a broadcast axis is read once
    values = _distinct(f.samples)
    drift = max(np.max(values.max(-1) - mean), np.max(mean - values.min(-1)))
    if drift > tol * f.max_abs():
        raise ValueError("steady solves and norms require a time-constant field")
    return mean


def _auto_refine(*exponents: float) -> int:
    """Oversampling factor of a quadrature: 1 when every exponent is 2, else
    2.  Exact at exponent 2 (r=1) and 4 (r=2); aliasing bounded elsewhere."""
    return 1 if all(q == 2.0 for q in exponents) else 2


def _squared_magnitude(arrays: Iterable[np.ndarray]) -> tuple[np.ndarray, float]:
    """Pointwise ``sum |a|^2`` over the components of all arrays, divided by
    ``scale^2``, and ``scale``, the largest pointwise magnitude: entries <= 1.

    Arrays are consumed (overwritten in place, the first one becomes the
    sum); each square is taken relative to the largest ``|entry|`` so far
    and the running sum is rescaled whenever a later array raises it, so no
    square overflows and none underflows relative to the largest one.
    """
    total, scale = None, 0.0
    for arr in arrays:
        top = float(max(arr.max(), -arr.min()))
        if top > scale:
            if total is not None:
                total *= (scale / top) ** 2
            scale = top
        if scale > 0.0:
            arr /= scale
        np.multiply(arr, arr, out=arr)
        for component in arr:
            if total is None:
                total = component
            else:
                total += component
        del arr, component  # free it before the next array is made
    peak = float(total.max())
    if peak > 0.0:
        total /= peak
    return total, scale * peak**0.5


def _q_sum(terms: list, q: float) -> float:
    """``(mean of sum_i terms_i^q)^(1/q)``.

    Each term is a number or an array over time slices, and the mean runs
    over the slices.  All terms are divided by the largest entry before the
    power, which is multiplied back after the root.
    """
    top = max(float(np.max(term)) for term in terms)
    if top == 0.0:
        return 0.0
    total = np.mean(sum((term / top) ** q for term in terms))
    return float(top * total ** (1.0 / q))


def _block_norms(
    samples: np.ndarray,
    domain: TorusDomain,
    blocks: list[tuple[list[tuple[tuple[int, ...], int]], float]],
    per_slice: bool = False,
) -> list:
    """For each block ``(orders, q)``, the rectangle-rule Lq norm of the
    pointwise Euclidean magnitude over every component of every derivative
    in ``orders``.

    This is the one quadrature of the module: exact at exponent 2 (r=1) and
    4 (r=2); aliasing bounded elsewhere.  All blocks share one forward
    transform and one call of the streamed inverse (``_refined_derivatives``),
    which builds each of its first-axis transforms once for all of them; each
    block's grid is refined by ``_auto_refine`` of its own exponent.  The
    values are returned in the order of ``blocks``.  The streamed inverse
    runs one consumer on each slab, which gives the slab's sum of
    ``(|f| / top)^q`` with its ``top``, and returns those in slab order.
    They are combined in that order with the running maximum as scale: when a
    slab raises it, the sum so far is multiplied by ``(old / new)^q``.  So
    the values do not depend on the thread count, bitwise.  With a time axis
    the cell carries the 1/T-normalized time step.  ``per_slice`` sums over
    the spatial axes only and gives each block's norms as an array over time
    slices, to be combined slice by slice, so all blocks then share one
    factor, ``_auto_refine`` of every exponent.
    """
    shared = _auto_refine(*(q for _, q in blocks))
    refinements = [shared if per_slice else _auto_refine(q) for _, q in blocks]
    axes = tuple(range(domain.n)) if per_slice else None

    def partial(i, slab):
        # the slab's sum of (|f| / top)^q, and top
        squares, top = _squared_magnitude(slab)
        np.power(squares, blocks[i][1] / 2.0, out=squares)
        return np.sum(squares, axis=axes), top

    streamed = [(orders, r) for (orders, _), r in zip(blocks, refinements)]
    parts = _refined_derivatives(_rfft(samples), domain, streamed, partial)
    values = []
    for (_, q), r, slabs in zip(blocks, refinements, parts):
        cell = (domain.dx / r) ** domain.n
        if samples.ndim == domain.n + 2 and not per_slice:
            cell /= domain.Nt * r
        total, scale = 0.0, 0.0
        for part, top in slabs:
            if top > scale:
                total = total * (scale / top) ** q
                scale = top
            if top > 0.0:
                total = total + part * (top / scale) ** q
        values.append(scale * (total * cell) ** (1.0 / q))
    return values


def lq_norm(f: SpaceTimeField, q: float) -> float:
    """Space-time Lebesgue norm with 1/T-normalized time measure.

    The field is oversampled x2 unless ``q`` is 2: exact at exponent 2 (r=1)
    and 4 (r=2); aliasing bounded elsewhere.
    """
    NormKind(NormTag.LQ, q).validate(f.domain.n)
    (value,) = _block_norms(f.samples, f.domain, [([((0,) * f.domain.n, 0)], q)])
    return float(value)


def _multi_indices(n: int, max_order: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(max_order + 1):
        for combo in itertools.combinations_with_replacement(range(n), total):
            alpha = [0] * n
            for j in combo:
                alpha[j] += 1
            out.append(tuple(alpha))
    return out


def sobolev_norm_21q(u: SpaceTimeField, q: float) -> float:
    """Anisotropic norm: q-sum of ||d_x^alpha u||_q over |alpha| <= 2 plus
    ||d_t^beta u||_q over beta <= 1.

    Both sums include the underived term, so ||u||_q^q enters twice; the
    duplication is kept deliberately to match the defining display.  The
    term is evaluated once; all terms share one forward transform and are
    exact at exponent 2 (r=1) and 4 (r=2); aliasing bounded elsewhere.
    """
    n = u.domain.n
    NormKind(NormTag.SOBOLEV_21Q, q).validate(n)
    # _multi_indices starts with the underived index
    orders = [(alpha, 0) for alpha in _multi_indices(n, 2)] + [((0,) * n, 1)]
    terms = _block_norms(u.samples, u.domain, [([order], q) for order in orders])
    return _q_sum([terms[0]] + terms, q)


def steady_norm(v: SpaceTimeField, kind: NormKind, lam: float) -> float:
    """Weighted steady-state norm of a time-constant solenoidal field.

    The three families share the second-gradient term ``||grad^2 v||_q``
    (Frobenius magnitude over all ordered derivative pairs) and differ in
    their weighted lower-order terms:

    * Stokes: ``||v||_{nq/(n-2q)} + ||grad v||_{nq/(n-q)} + ||grad^2 v||_q``
    * Oseen: ``|lam|^{2/(n+1)} ||v||_{(n+1)q/(n+1-2q)}
      + |lam|^{1/(n+1)} ||grad v||_{(n+1)q/(n+1-q)}
      + |lam| ||d1 v||_q + ||grad^2 v||_q``
    * 2-d Oseen: the n = 2 Oseen terms plus
      ``|lam| ||grad v_2||_q + |lam| ||v_2||_{2q/(2-q)}``

    Because the field is time-constant, the 1/T-normalized space-time norm
    equals the spatial norm over the box, so every term is integrated over
    the time-mean spatial slice, whose forward transform all terms share.
    Each term is refined by its own exponent: exact at exponent 2 (r=1) and
    4 (r=2); aliasing bounded elsewhere.
    """
    if kind.tag not in STEADY_TAGS:
        raise ValueError(f"{kind.tag} is not a steady norm family")
    n = v.domain.n
    kind.validate(n, lam)
    if v.components != n:
        raise ValueError(f"steady norms act on {n}-component fields")
    mean = _time_mean(v)
    q = kind.q
    zero, *first = [(alpha, 0) for alpha in _multi_indices(n, 1)]
    pairs = itertools.product(range(n), repeat=2)
    second = [(tuple((j == a) + (j == b) for j in range(n)), 0) for a, b in pairs]
    m = n if kind.tag == NormTag.STEADY_STOKES else n + 1
    blocks = [([zero], m * q / (m - 2 * q)), (first, m * q / (m - q)), (second, q)]
    weights = [1.0, 1.0, 1.0]
    if kind.tag != NormTag.STEADY_STOKES:
        blocks.insert(2, ([first[0]], q))
        weights = [abs(lam) ** (2.0 / m), abs(lam) ** (1.0 / m), abs(lam), 1.0]
    terms = _block_norms(mean, v.domain, blocks)
    value = sum(weight * term for weight, term in zip(weights, terms))
    if kind.tag == NormTag.STEADY_OSEEN_2D:
        v2_blocks = [(first, q), ([zero], 2 * q / (2 - q))]
        for term in _block_norms(mean[1:2], v.domain, v2_blocks):
            value += abs(lam) * term
    return float(value)


def pressure_norm(p: SpaceTimeField, q: float) -> float:
    """Mixed-exponent pressure norm.

    ``((1/T) int_0^T ||p(., t)||_{nq/(n-q)}^q + ||grad p(., t)||_q^q dt)^{1/q}``
    with spatial slice norms inside and the q-integral over time outside.
    The field is oversampled x2, since ``nq/(n-q)`` and ``q`` are never both
    2.  Exact at exponent 2 (r=1) and 4 (r=2); aliasing bounded elsewhere.
    """
    n = p.domain.n
    NormKind(NormTag.PRESSURE_XP, q).validate(n)
    if not p.is_scalar:
        raise InvalidExponent("pressure norm applies to scalar fields")
    zero, *first = [(alpha, 0) for alpha in _multi_indices(n, 1)]
    blocks = [([zero], n * q / (n - q)), (first, q)]
    return _q_sum(_block_norms(p.samples, p.domain, blocks, per_slice=True), q)
