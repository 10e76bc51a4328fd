"""Quadrature of every norm used by the solve reports.

All integrals are rectangle-rule sums on the periodic grid: exact for
band-limited integrands when the exponent is an even integer, since the
integrand is then itself a trigonometric polynomial.  For any other
exponent ``|f|^q`` is not band-limited; the field is then spectrally
oversampled by the factor 2 before quadrature, which bounds the aliasing
error but does not remove it.  The exponents alone decide the factor
(:func:`_auto_refine`).

Every norm is a list of derivative blocks plus their combination, and
:func:`_block_norms` is the one quadrature: it returns one Lq value per
block.  It takes the derivatives and oversampled samples from the spectral
module's streamed inverse (``_refined_derivatives``): one real forward
transform, then a pruned inverse of the zero-padded half spectrum that
yields slabs of refined rows, and each block is summed slab by slab.  Memory
therefore scales with the half spectrum and one slab, not with the refined
grid.  A steady norm acts on a time-constant field, so it is integrated over
the time-mean spatial slice alone.  Every square and q-th power is taken of
values divided by their largest magnitude (a running maximum over the
slabs), which is multiplied back after the root, so the norms neither
overflow nor underflow anywhere in the double range.

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
from .spectral import SpaceTimeField, TorusDomain, _refined_derivatives


class NormTag(str, Enum):
    LQ = "lq"
    SOBOLEV_21Q = "sobolev_21q"
    STEADY_STOKES = "steady_stokes"
    STEADY_OSEEN = "steady_oseen"
    STEADY_OSEEN_2D = "steady_oseen_2d"
    PRESSURE_XP = "pressure_xp"


STEADY_TAGS = (NormTag.STEADY_STOKES, NormTag.STEADY_OSEEN, NormTag.STEADY_OSEEN_2D)


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
        q = self.q
        if not 1.0 < q < np.inf:
            raise InvalidExponent(f"exponent must lie in (1, inf), got {q}")
        if self.tag == NormTag.STEADY_STOKES:
            if n < 3:
                raise InvalidExponent("steady Stokes norm needs n >= 3")
            if lam != 0.0:
                raise InvalidExponent("steady Stokes norm needs lam == 0")
            if not q < n / 2:
                raise InvalidExponent(
                    f"steady Stokes norm needs q in (1, n/2); got q={q}, n={n}"
                )
        elif self.tag == NormTag.STEADY_OSEEN:
            if n < 3:
                raise InvalidExponent("steady Oseen norm needs n >= 3")
            if lam == 0.0:
                raise InvalidExponent("steady Oseen norm needs lam != 0")
            if not q < (n + 1) / 2:
                raise InvalidExponent(
                    f"steady Oseen norm needs q in (1, (n+1)/2); got q={q}, n={n}"
                )
        elif self.tag == NormTag.STEADY_OSEEN_2D:
            if n != 2:
                raise InvalidExponent("2-d steady Oseen norm needs n == 2")
            if lam == 0.0:
                raise InvalidExponent("2-d steady Oseen norm needs lam != 0")
            if not q < 1.5:
                raise InvalidExponent(
                    f"2-d steady Oseen norm needs q in (1, 3/2); got q={q}"
                )
        elif self.tag == NormTag.PRESSURE_XP:
            if not q < n:
                raise InvalidExponent(
                    f"pressure norm needs q in (1, n); got q={q}, n={n}"
                )


def _applicable_kinds(n: int, lam: float, q: float) -> list[NormKind]:
    """Every norm family that :meth:`NormKind.validate` admits for
    (n, lam, q), in ``NormTag`` order."""
    kinds = []
    for tag in NormTag:
        kind = NormKind(tag, q)
        try:
            kind.validate(n, lam)
        except InvalidExponent:
            continue
        kinds.append(kind)
    return kinds


def steady_kind_for(n: int, lam: float, q: float) -> NormKind | None:
    """Steady norm family applicable to (n, lam, q), or None.

    There is no steady space for n == 2 with lam == 0; that combination is
    intentionally absent.
    """
    kinds = _applicable_kinds(n, lam, q)
    return next((kind for kind in kinds if kind.tag in STEADY_TAGS), None)


def _is_even_integer(q: float) -> bool:
    return float(q).is_integer() and int(q) % 2 == 0


def _auto_refine(*exponents: float) -> int:
    """Oversampling factor of a quadrature: 1 when every exponent is an even
    integer (the rectangle rule is then exact), else 2."""
    return 1 if all(_is_even_integer(q) for q in exponents) else 2


def _squared_magnitude(arrays: Iterable[np.ndarray]) -> tuple[np.ndarray, float]:
    """Pointwise ``sum |a|^2`` over the components of all arrays, divided by
    ``scale^2``, and ``scale``, the largest ``|entry|``.

    Arrays are consumed (overwritten in place, the first one becomes the
    sum); the running sum is rescaled whenever a later array raises the
    scale, so no square overflows and none underflows relative to the
    largest one.
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
    return total, scale


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

    This is the one quadrature of the module.  All blocks share one forward
    transform, the grid is refined by ``_auto_refine`` of all their
    exponents, and each block is summed slab by slab as the pruned inverse
    streams it.  The scale is the running maximum over the slabs: when a
    slab raises it, the sum so far is multiplied by ``(old / new)^q``.
    With a time axis the cell carries the 1/T-normalized time step;
    ``per_slice`` sums over the spatial axes only, each slab adding to
    every time slice, and gives each block's norms as an array over time
    slices.
    """
    r = _auto_refine(*(q for _, q in blocks))
    streams = _refined_derivatives(samples, domain, [orders for orders, _ in blocks], r)
    axes = tuple(range(domain.n)) if per_slice else None
    cell = (domain.dx / r) ** domain.n
    if samples.ndim == domain.n + 2 and not per_slice:
        cell /= domain.Nt * r
    values = []
    for (_, q), slabs in zip(blocks, streams):
        total, scale = 0.0, 0.0
        for slab in slabs:
            squares, top = _squared_magnitude(slab)
            if top > scale:
                total = total * (scale / top) ** q
                scale = top
            if top > 0.0:
                np.power(squares, q / 2.0, out=squares)
                total = total + np.sum(squares, axis=axes) * (top / scale) ** q
            del squares  # free it before the next slab's transforms
        values.append(scale * (total * cell) ** (1.0 / q))
    return values


def lq_norm(f: SpaceTimeField, q: float) -> float:
    """Space-time Lebesgue norm with 1/T-normalized time measure.

    The field is oversampled x2 unless ``q`` is an even integer, where the
    rectangle rule is exact for band-limited fields.
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
    term is evaluated once, and all terms share one forward transform.
    The field is oversampled x2 unless ``q`` is an even integer.
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
    the time-mean spatial slice.  Each term is oversampled x2 unless its own
    exponent is an even integer.
    """
    if kind.tag not in STEADY_TAGS:
        raise ValueError(f"{kind.tag} is not a steady norm family")
    n = v.domain.n
    kind.validate(n, lam)
    if v.components != n:
        raise ValueError(f"steady norms act on {n}-component fields")
    mean = np.mean(v.samples, axis=-1)
    scale = v.max_abs()
    if scale > 0.0:
        drift = np.max(np.abs(v.samples - mean[..., np.newaxis]))
        if drift > 1e-10 * scale:
            raise ValueError("steady norms require a time-constant field")
    q = kind.q
    zero, *first = _multi_indices(n, 1)
    second = [
        tuple((j == a) + (j == b) for j in range(n))
        for a in range(n)
        for b in range(n)
    ]

    def block_norm(
        orders: list[tuple[int, ...]], exponent: float, samples: np.ndarray = mean
    ) -> float:
        # one call per block: a shared refinement would change the values
        blocks = [([(a, 0) for a in orders], exponent)]
        return float(_block_norms(samples, v.domain, blocks)[0])

    hess = block_norm(second, q)
    if kind.tag == NormTag.STEADY_STOKES:
        return (
            block_norm([zero], n * q / (n - 2 * q))
            + block_norm(first, n * q / (n - q))
            + hess
        )
    m = n + 1
    weight_v = abs(lam) ** (2.0 / m)
    weight_grad = abs(lam) ** (1.0 / m)
    value = (
        weight_v * block_norm([zero], m * q / (m - 2 * q))
        + weight_grad * block_norm(first, m * q / (m - q))
        + abs(lam) * block_norm([first[0]], q)
        + hess
    )
    if kind.tag == NormTag.STEADY_OSEEN_2D:
        v2 = mean[1:2]
        value += abs(lam) * block_norm(first, q, v2)
        value += abs(lam) * block_norm([zero], 2 * q / (2 - q), v2)
    return float(value)


def pressure_norm(p: SpaceTimeField, q: float) -> float:
    """Mixed-exponent pressure norm.

    ``((1/T) int_0^T ||p(., t)||_{nq/(n-q)}^q + ||grad p(., t)||_q^q dt)^{1/q}``
    with spatial slice norms inside and the q-integral over time outside.
    The field is oversampled x2 unless both ``nq/(n-q)`` and ``q`` are even
    integers.
    """
    n = p.domain.n
    NormKind(NormTag.PRESSURE_XP, q).validate(n)
    if not p.is_scalar:
        raise InvalidExponent("pressure norm applies to scalar fields")
    zero, *first = [(alpha, 0) for alpha in _multi_indices(n, 1)]
    blocks = [([zero], n * q / (n - q)), (first, q)]
    return _q_sum(_block_norms(p.samples, p.domain, blocks, per_slice=True), q)
