"""Space-time torus discretization and the group Fourier transform.

The computational domain is a periodic box of side ``L`` in ``n`` spatial
dimensions crossed with a time circle of period ``T``, sampled on a uniform
``N^n x Nt`` grid.  Dual frequencies are ``xi_j = (2*pi/L)*m_j`` for integer
``m_j in [-N/2, N/2)`` and ``eta = (2*pi/T)*k`` for integer ``k``.

Normalization
-------------
Coefficients are space-time means (numpy's ``rfftn`` with
``norm="forward"``)::

    F(m, k) = (1/(N^n Nt)) * sum_(x, t) f(x, t) * exp(-i xi.x - i eta t)

so ``F(0, 0)`` is the space-time mean of ``f``.  Samples are real, so
``F(-m, -k) == conj(F(m, k))`` and only the half spectrum ``k = 0 .. Nt/2``
is kept, on ``domain.spectral_shape``; the Nyquist modes (any index
component equal to ``N/2`` or ``k = Nt/2``) are dropped, so band-limited
fields round-trip exactly.  With the ``1/T``-time-normalized L2 norm,
Parseval's identity reads::

    ||f||_2^2 = L^n * (sum_(k = 0) |F|^2 + 2 * sum_(k > 0) |F|^2)

``_rfft``/``_irfft`` are the one full-grid transform pair; :func:`forward`
and :func:`inverse` validate around them.  They make numpy's one-dimensional
passes of ``rfftn``/``irfftn``, so their results equal those bitwise, in two
phases, each over the :func:`_pieces` of the spectrum along one axis: along
axis 1, the passes along every axis but axis 1; along axis 2, the pass along
axis 1.  A spectrum below ``_THREAD_BYTES`` is one piece; from it on, pieces
of about ``_PIECE_BYTES`` run on every CPU, each while it is in its thread's
cache.  So does work the caller hands in: the forward transform runs a hook on
each finished piece of the spectrum, and the inverse hands each finished piece
of samples to a consumer instead of building a full-size array.  Every complex
pass runs in place in an array the package made, so the inverse transforms in
the spectrum it is handed: a caller that reads that spectrum again passes a
copy.  The norm quadrature's oversampled inverse, ``_refined_derivatives``,
shares both inverse phases: one call makes each first-axis transform of its
derivative blocks once, by ``_ifft_columns``, and runs :func:`_rows` on slabs
of refined rows.  Both streaming producers hand each piece to a consumer in a
thread of the call and return its results in order, so only this module
decides how streamed pieces are threaded, and a caller that combines them in
order gets the same values bitwise for any thread count.  All of them run
their threads through :func:`_map`, which starts up to one thread per CPU and
joins them before it returns, so no thread outlives the call; so do the
ensembles of ``analysis``, whose members run on threads of the call when their
field is below ``_THREAD_BYTES``, and ``snapshot.save_bundle``'s writes.  A
map called inside a threaded map runs in its caller alone, so no more threads
run at once than there are CPUs.
"""

from __future__ import annotations

import contextvars
import dataclasses
import os
import threading
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DomainMismatch, NonHermitian

# relative tolerance of ``inverse``'s conjugate-symmetry and Nyquist checks
_HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class TorusDomain:
    """Uniform discretization of the space-time torus.

    Parameters
    ----------
    n : int
        Spatial dimension, 2 or 3.
    L : float
        Side length of the periodic spatial box (same along every axis).
    N : int
        Grid points per spatial axis; even, at least 4.
    T : float
        Time period.
    Nt : int
        Time grid points; even, at least 4.
    """

    n: int
    L: float
    N: int
    T: float
    Nt: int

    def __post_init__(self) -> None:
        if self.n not in (2, 3):
            raise ValueError(f"spatial dimension must be 2 or 3, got {self.n}")
        if self.N < 4 or self.N % 2 != 0:
            raise ValueError(f"N must be even and >= 4, got {self.N}")
        if self.Nt < 4 or self.Nt % 2 != 0:
            raise ValueError(f"Nt must be even and >= 4, got {self.Nt}")
        if not 0 < self.L < np.inf:
            raise ValueError(f"box side L must be positive and finite, got {self.L}")
        if not 0 < self.T < np.inf:
            raise ValueError(f"period T must be positive and finite, got {self.T}")

    # -- grid geometry -----------------------------------------------------

    @property
    def grid_shape(self) -> tuple[int, ...]:
        """Shape of one scalar component: n spatial axes then time."""
        return (self.N,) * self.n + (self.Nt,)

    @property
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of one scalar component's half spectrum, k = 0 .. Nt/2."""
        return (self.N,) * self.n + (self.Nt // 2 + 1,)

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def dt(self) -> float:
        return self.T / self.Nt

    def spatial_axis(self) -> np.ndarray:
        """Sample points 0, L/N, ..., L - L/N along one spatial axis."""
        return np.arange(self.N) * self.dx

    def time_axis(self) -> np.ndarray:
        """Sample points 0, T/Nt, ..., T - T/Nt along the time axis."""
        return np.arange(self.Nt) * self.dt

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Full coordinate arrays (X1, ..., Xn, Tm), each of ``grid_shape``."""
        axes = [self.spatial_axis()] * self.n + [self.time_axis()]
        return tuple(np.meshgrid(*axes, indexing="ij"))

    # -- dual grid ---------------------------------------------------------

    def spatial_modes(self) -> np.ndarray:
        """Integer spatial frequencies in FFT order: 0..N/2-1, -N/2..-1."""
        return np.fft.fftfreq(self.N, d=1.0 / self.N)

    def time_modes(self) -> np.ndarray:
        """Integer temporal frequencies of the half spectrum: 0..Nt/2."""
        return np.arange(self.Nt // 2 + 1)

    def _axis_view(self, values: np.ndarray, axis: int) -> np.ndarray:
        """Reshape a 1-d mode array to broadcast along ``axis`` of spectral_shape."""
        shape = [1] * (self.n + 1)
        shape[axis] = len(values)
        return values.reshape(shape)

    def xi_grids(self) -> list[np.ndarray]:
        """Broadcastable arrays of xi_j = (2*pi/L)*m_j, one per spatial axis."""
        scale = 2.0 * np.pi / self.L
        return [
            self._axis_view(scale * self.spatial_modes(), j) for j in range(self.n)
        ]

    def eta_grid(self) -> np.ndarray:
        """Broadcastable array of eta = (2*pi/T)*k along the time axis."""
        return self._axis_view(2.0 * np.pi / self.T * self.time_modes(), self.n)

    def time_mode_grid(self) -> np.ndarray:
        """Broadcastable array of the integer time index k."""
        return self._axis_view(self.time_modes(), self.n)

    def nyquist_mask(self) -> np.ndarray:
        """Boolean grid of spectral_shape, True on modes the truncated grid keeps."""
        keep = np.ones(self.spectral_shape, dtype=bool)
        for j in range(self.n):
            keep &= self._axis_view(np.abs(self.spatial_modes()) != self.N // 2, j)
        keep &= self._axis_view(self.time_modes() != self.Nt // 2, self.n)
        return keep

    def refine(self, N: int, Nt: int) -> "TorusDomain":
        """Same continuum torus resampled at a finer grid."""
        if N < self.N or Nt < self.Nt:
            raise ValueError("refinement must not reduce the grid")
        return dataclasses.replace(self, N=N, Nt=Nt)


class DualIndex(NamedTuple):
    """One point of the dual grid: integer spatial multi-index and time index."""

    m: tuple[int, ...]
    k: int

    def frequencies(self, domain: TorusDomain) -> tuple[tuple[float, ...], float]:
        """Continuous frequencies (xi, eta) of this dual-grid point."""
        xi = tuple(2.0 * np.pi / domain.L * mj for mj in self.m)
        eta = 2.0 * np.pi / domain.T * self.k
        return xi, eta


def _distinct(arr: np.ndarray) -> np.ndarray:
    """``arr`` with every axis of stride 0 (a broadcast view) cut to its
    first index, which holds all of that axis's values; no data is copied."""
    index = tuple(slice(0, 1) if step == 0 else slice(None) for step in arr.strides)
    return arr[index]


def _check_layout(
    domain: TorusDomain, arr: np.ndarray, expected: tuple[int, ...], what: str
) -> None:
    """Reject ``arr`` (samples or coefficients, named by ``what``) unless it
    is finite with shape ``(components,) + expected``."""
    if arr.ndim != domain.n + 2 or arr.shape[1:] != expected:
        raise DomainMismatch(
            f"{what} shape {arr.shape} does not match "
            f"(components, {', '.join(map(str, expected))})"
        )
    if arr.shape[0] not in (1, domain.n):
        raise DomainMismatch(
            f"field must have 1 or {domain.n} components, got {arr.shape[0]}"
        )
    # min and max propagate NaN and reach any infinity, and unlike
    # np.isfinite they allocate no array of the field's size
    values = _distinct(arr)
    parts = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
    if not all(np.isfinite(part.min()) and np.isfinite(part.max()) for part in parts):
        raise DomainMismatch(f"{what} contain non-finite values")


@dataclass(frozen=True)
class SpaceTimeField:
    """Real field sampled on the physical space-time grid.

    ``samples`` has shape ``(components, N, ..., N, Nt)`` with components
    first; scalars carry a single component.
    """

    domain: TorusDomain
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=float)
        _check_layout(self.domain, arr, self.domain.grid_shape, "samples")
        object.__setattr__(self, "samples", arr)

    @classmethod
    def scalar(cls, domain: TorusDomain, values: np.ndarray) -> "SpaceTimeField":
        """Wrap a (N, ..., N, Nt) array as a one-component field."""
        return cls(domain, np.asarray(values, dtype=float)[np.newaxis])

    @classmethod
    def zeros(cls, domain: TorusDomain, components: int) -> "SpaceTimeField":
        return cls(domain, np.zeros((components,) + domain.grid_shape))

    @property
    def components(self) -> int:
        return self.samples.shape[0]

    @property
    def is_scalar(self) -> bool:
        return self.components == 1

    def max_abs(self) -> float:
        # no temporary of the field's size; abs turns a zero field's -0.0 to 0.0
        values = _distinct(self.samples)
        return abs(float(max(values.max(), -values.min())))

    def _binary(self, other: "SpaceTimeField", op) -> "SpaceTimeField":
        if not isinstance(other, SpaceTimeField):
            return NotImplemented
        if other.domain != self.domain or other.components != self.components:
            raise DomainMismatch("fields live on different domains")
        return SpaceTimeField(self.domain, op(self.samples, other.samples))

    def __add__(self, other: "SpaceTimeField") -> "SpaceTimeField":
        return self._binary(other, np.add)

    def __sub__(self, other: "SpaceTimeField") -> "SpaceTimeField":
        return self._binary(other, np.subtract)

    def __mul__(self, scale: float) -> "SpaceTimeField":
        return SpaceTimeField(self.domain, self.samples * float(scale))

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpectralField:
    """Half-spectrum coefficients of a real field: ``(components,) +
    domain.spectral_shape``, time modes k = 0 .. Nt/2, normalized as in the
    module docstring.

    The modes with k < 0 are implied by ``coeff(-m, -k) == conj(coeff(m,
    k))``, so the k == 0 plane is conjugate-symmetric in m, and the Nyquist
    rows vanish identically.
    """

    domain: TorusDomain
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coefficients, dtype=complex)
        _check_layout(self.domain, arr, self.domain.spectral_shape, "coefficients")
        object.__setattr__(self, "coefficients", arr)

    @property
    def components(self) -> int:
        return self.coefficients.shape[0]

    def hermitian_defect(self) -> float:
        """Max deviation from conjugate symmetry (absolute) on the k == 0
        plane, the only self-conjugate plane of the half spectrum."""
        plane = flipped = self.coefficients[..., 0]
        for axis in range(1, plane.ndim):
            flipped = np.roll(np.flip(flipped, axis=axis), 1, axis=axis)
        return float(np.max(np.abs(plane - np.conj(flipped))))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coefficients)))

    def get(self, index: DualIndex) -> np.ndarray:
        """Coefficient vector at one dual-grid point (length = components),
        |m_j| <= N/2 and |k| <= Nt/2; for k < 0 the conjugate of the entry at
        (-m, -k).  Either sign of a Nyquist index reads the Nyquist entry."""
        domain = self.domain
        if len(index.m) != domain.n:
            raise DomainMismatch("dual index dimension mismatch")
        if max(map(abs, index.m)) > domain.N // 2 or abs(index.k) > domain.Nt // 2:
            raise DomainMismatch(f"dual index {tuple(index)} is off the dual grid")
        k = (index.k + domain.Nt // 2) % domain.Nt - domain.Nt // 2
        sign = -1 if k < 0 else 1
        pos = tuple(sign * mj % domain.N for mj in index.m) + (sign * k,)
        entry = self.coefficients[(slice(None),) + pos]
        return np.conj(entry) if k < 0 else entry


def forward(field: SpaceTimeField) -> SpectralField:
    """Forward group transform; see module docstring for the normalization.

    Nyquist modes are zeroed so that the result always satisfies the
    truncated-grid invariants.
    """
    return SpectralField(field.domain, _rfft(field.samples))


def inverse(spec: SpectralField) -> SpaceTimeField:
    """Inverse transform back to real samples, after validating the spectrum.

    Pipeline steps whose spectra are conjugate-symmetric by construction call
    ``_irfft`` directly: on their cancellation residue a relative check could
    misfire.  ``_irfft`` transforms in the spectrum it is handed: here, a copy.

    Raises
    ------
    NonHermitian
        If the k == 0 plane violates conjugate symmetry (relative to the
        largest coefficient) or the coefficients populate Nyquist modes
        beyond 1e-12 of it.
    """
    domain = spec.domain
    scale = spec.max_abs()
    if scale > 0.0:
        if spec.hermitian_defect() > _HERMITIAN_TOL * scale:
            raise NonHermitian(
                "coefficients are not conjugate-symmetric; "
                "a real inverse does not exist"
            )
        nyquist = np.max(np.abs(spec.coefficients * ~domain.nyquist_mask()))
        if nyquist > _HERMITIAN_TOL * scale:
            raise NonHermitian("Nyquist modes must vanish on the truncated grid")
    return SpaceTimeField(domain, _irfft(spec.coefficients.copy()))


def spectral_derivative(
    spec: SpectralField, alpha: Sequence[int], beta: int = 0
) -> SpectralField:
    """Multiply coefficients by (i*xi)^alpha * (i*eta)^beta.

    Orders are limited to those appearing in the anisotropic Sobolev norm:
    ``sum(alpha) <= 2`` and ``beta <= 1``.
    """
    domain = spec.domain
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != domain.n:
        raise DomainMismatch(
            f"alpha must have {domain.n} entries, got {len(alpha)}"
        )
    if any(a < 0 for a in alpha) or sum(alpha) > 2:
        raise ValueError(f"spatial order |alpha| must be in 0..2, got {alpha}")
    if beta not in (0, 1):
        raise ValueError(f"time order beta must be 0 or 1, got {beta}")
    factor = np.ones((1,) * (domain.n + 1), dtype=complex)
    for j, a in enumerate(alpha):
        if a:
            factor = factor * (1j * domain.xi_grids()[j]) ** a
    if beta:
        factor = factor * (1j * domain.eta_grid())
    return SpectralField(domain, spec.coefficients * factor)


def plancherel_norm(spec: SpectralField) -> float:
    """Discrete L2 norm computed from coefficients by Parseval's identity
    (module docstring): the k > 0 modes count twice, for their k < 0
    conjugates.

    Equals the 1/T-time-normalized L2 norm of the represented field.  The
    squares are of magnitudes divided by the largest, which is multiplied
    back after the root, so no finite field's norm overflows or underflows.
    """
    domain = spec.domain
    magnitude = np.abs(spec.coefficients)
    top = float(magnitude.max()) or 1.0  # a zero spectrum's norm is 0
    weight = np.where(domain.time_mode_grid() > 0, 2.0, 1.0)
    total = float(np.sum(weight * (magnitude / top) ** 2))
    return top * total**0.5 * domain.L ** (domain.n / 2)


def embed_spectrum(spec: SpectralField, fine: TorusDomain) -> SpectralField:
    """Zero-pad coefficients onto a finer dual grid of the same torus.

    Coefficients under this normalization are resolution-independent, so the
    embedding represents the identical band-limited function.
    """
    coarse = spec.domain
    if (
        fine.n != coarse.n
        or fine.L != coarse.L
        or fine.T != coarse.T
        or fine.N < coarse.N
        or fine.Nt < coarse.Nt
    ):
        raise DomainMismatch("target grid must refine the source torus")
    src = spec.coefficients * coarse.nyquist_mask()
    for axis in range(1, coarse.n + 1):
        src = _pad(src, axis, fine.N)
    out = np.zeros((spec.components,) + fine.spectral_shape, dtype=complex)
    out[..., : src.shape[-1]] = src
    return SpectralField(fine, out)


def refine(field: SpaceTimeField, N: int, Nt: int) -> SpaceTimeField:
    """Band-limited interpolation of a field onto a finer grid."""
    fine = field.domain.refine(N, Nt)
    return inverse(embed_spectrum(forward(field), fine))


def _rfft(samples: np.ndarray, piece=None) -> np.ndarray:
    """Half spectrum (see the module docstring) of real ``samples``: the
    component axis, then a domain's ``grid_shape`` or, with no time axis,
    its spatial grid alone.  The last axis is halved, and the Nyquist index
    ``size // 2`` of every axis is zeroed.

    The passes are ``rfftn``'s, in two phases over the :func:`_pieces` of the
    spectrum: along axis 1, ``rfft`` along the last axis, then ``fft`` in
    place along each further axis from the last to axis 2; along axis 2,
    ``fft`` along axis 1 and the Nyquist zeroing.  Then, with ``piece``, the
    thread that finished a piece of axis 2 calls ``piece(index, block)``
    while ``block``, ``coeff[index]``, is in its cache; the call may change
    that block in place, and nothing else of the spectrum."""
    shape = samples.shape[:-1] + (samples.shape[-1] // 2 + 1,)
    coeff = np.empty(shape, dtype=complex)

    def rows(index):
        block = coeff[index]
        np.fft.rfft(samples[index], axis=-1, norm="forward", out=block)
        for axis in range(samples.ndim - 2, 1, -1):
            np.fft.fft(block, axis=axis, norm="forward", out=block)

    def columns(index):
        block = coeff[index]
        np.fft.fft(block, axis=1, norm="forward", out=block)
        for axis, size in enumerate(samples.shape[1:], start=1):
            at = size // 2 - (index[2].start if axis == 2 else 0)
            if 0 <= at < block.shape[axis]:
                block[(slice(None),) * axis + (at,)] = 0.0
        if piece is not None:
            piece(index, block)

    _map(rows, _pieces(coeff, 1))
    _map(columns, _pieces(coeff, 2))
    return coeff


def _irfft(coeff: np.ndarray, consume=None):
    """Real samples of a half spectrum laid out as :func:`_rfft` returns it
    (every grid size is even, so the halved axis has ``2 * (len - 1)``
    points), by ``irfftn``'s passes: :func:`_ifft_columns`, then :func:`_rows`
    at the grid's own sizes over the :func:`_pieces` of ``coeff`` along axis
    1, into the piece of a new array, which is returned.  The complex passes
    run in place, so ``coeff`` is consumed: a caller that reads it again
    passes a copy.  With ``consume``, no full-size output is built: the thread
    that finished a piece ``index`` of the samples calls ``consume(index,
    block)``, ``block`` a new array of that piece alone, and the list of its
    results, in piece order, is returned."""
    _ifft_columns(coeff)
    sizes = coeff.shape[1:-1] + (2 * (coeff.shape[-1] - 1),)
    samples = np.empty(coeff.shape[:1] + sizes) if consume is None else None

    def rows(index):
        if consume is not None:
            return consume(index, _rows(coeff[index], sizes))
        _rows(coeff[index], sizes, samples[index])

    results = _map(rows, _pieces(coeff, 1))
    return samples if consume is None else results


def _ifft_columns(coeff: np.ndarray) -> None:
    """``ifft`` along axis 1 of ``coeff``, in place, over its pieces along
    axis 2: :func:`_irfft`'s first phase."""

    def column(index):
        np.fft.ifft(coeff[index], axis=1, norm="forward", out=coeff[index])

    _map(column, _pieces(coeff, 2))


def _rows(block: np.ndarray, sizes: Sequence[int], out=None) -> np.ndarray:
    """Samples on the grid ``sizes`` of ``block``, a piece along axis 1 of a
    half spectrum past its pass along axis 1: ``ifft`` in place along each
    axis from 2 to the last but one, zero-padded first where shorter than its
    size (:func:`_pad`, a new array), then ``irfft`` along the last, into
    ``out``: the second phase of every inverse."""
    for axis in range(2, block.ndim - 1):
        if block.shape[axis] < sizes[axis - 1]:
            block = _pad(block, axis, sizes[axis - 1])
        np.fft.ifft(block, axis=axis, norm="forward", out=block)
    return np.fft.irfft(block, n=sizes[-1], axis=-1, norm="forward", out=out)


# spectra of at least this many bytes have each transform phase cut into
# pieces of about ``_PIECE_BYTES``, run by one thread per CPU (numpy's
# transforms release the GIL); below it, starting a thread costs more than it
# saves.  A piece fits a CPU's cache, and its temporaries stay small.
_THREAD_BYTES = 4 * 1024 * 1024
_PIECE_BYTES = 1024 * 1024
# the CPUs this process may run on
_WORKERS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)

# bytes of samples in one slab of the norm quadrature's streamed inverse
_SLAB_BYTES = 256 * 1024

# set while a map runs threads, in the caller and in each thread it starts
_THREADED = contextvars.ContextVar("_THREADED", default=False)


def _map(function, items: Sequence) -> list:
    """``[function(item) for item in items]``, run by up to ``_WORKERS``
    threads: thread i takes items i, i + W, ... in turn, and the caller runs
    the first share.  Each other thread runs in a copy of the caller's
    context (so under its numpy error state); all are joined before the call
    returns or raises, so no thread outlives it.  A map called while a
    threaded map runs, by its caller or by one of its threads, runs in its
    own caller alone, so no more than ``_WORKERS`` threads run at once.
    After an item fails, a thread stops at its next item above the lowest
    failed index; every item below it still runs, and the lowest failed
    index's error is raised, as the loop would raise it."""
    workers = 1 if _THREADED.get() else max(1, min(_WORKERS, len(items)))
    results = [None] * len(items)
    failed = []  # (index, error); each thread appends only its own

    def run(first):
        for i in range(first, len(items), workers):
            if any(j < i for j, _ in failed):
                return
            try:
                results[i] = function(items[i])
            except BaseException as error:  # raised again in the caller
                failed.append((i, error))
                return

    token = _THREADED.set(_THREADED.get() or workers > 1)
    threads = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(
                target=contextvars.copy_context().run, args=(run, first)
            )
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
        _THREADED.reset(token)
    if failed:
        raise min(failed, key=lambda entry: entry[0])[1]
    return results


def _pieces(coeff: np.ndarray, axis: int) -> list[tuple[slice, ...]]:
    """Index tuples that cut ``coeff`` into contiguous pieces along ``axis``,
    each spanning every other axis: below ``_THREAD_BYTES``, one piece, the
    whole array; from it on, pieces of about ``_PIECE_BYTES``, at least
    ``_WORKERS`` of them and at most one per index.  Each line of a transform
    lies in one piece and is transformed alone, so no result depends on the
    cut."""
    size = coeff.shape[axis]
    parts = 1
    if coeff.nbytes >= _THREAD_BYTES:
        per_piece = max(1, size * _PIECE_BYTES // coeff.nbytes)
        parts = min(size, max(_WORKERS, -(-size // per_piece)))
    lead = (slice(None),) * axis
    return [
        lead + (slice(size * i // parts, size * (i + 1) // parts),)
        for i in range(parts)
    ]


def _pad(band: np.ndarray, axis: int, size: int) -> np.ndarray:
    """A new array of the FFT-ordered modes of ``band`` zero-padded along
    ``axis`` to ``size`` entries, mode m at m % size."""
    half = band.shape[axis] // 2
    shape = list(band.shape)
    shape[axis] = size
    out = np.zeros(shape, dtype=complex)
    lead = (slice(None),) * axis
    out[lead + (slice(None, half),)] = band[lead + (slice(None, half),)]
    out[lead + (slice(size - half, None),)] = band[lead + (slice(half, None),)]
    return out


def _refined_derivatives(
    coeff: np.ndarray,
    domain: TorusDomain,
    blocks: Sequence[Sequence[tuple[tuple[int, ...], int]]],
    refinement: int,
    consume,
) -> list[list]:
    """Real samples of (i*xi)^alpha (i*eta)^beta f on one refined grid, handed
    to ``consume`` in slabs of refined rows along the first spatial axis.

    ``coeff`` is the half spectrum of f as :func:`_rfft` returns it: the
    component axis first, followed either by ``domain.spectral_shape`` or,
    for a field with no time axis, by the half spectrum of the spatial grid
    ``(N,) * n`` alone (then every beta must be 0).  For each slab of the
    ``i``-th block of ``blocks``, a list of orders ``(alpha, beta)``, a thread
    of the call (:func:`_map`) calls ``consume(i, slab)``, ``slab`` a lazy
    iterator over the block's orders and, within an order, the components,
    each an array of shape ``(1, rows)`` plus the refined grid after the
    first axis.  Joined along axis 1, the slabs of one order and component
    make its samples on the grid with ``refinement`` times as many points per
    axis.  The call returns, for each block in the order of ``blocks``, the
    list of its results in slab order.

    The inverse is pruned: for each ``alpha[0]`` the nonzero band is padded
    along the first spatial axis into one new array, the head
    (``refinement`` times ``coeff``), multiplied there by its factor and
    transformed in place by :func:`_ifft_columns`, the inverse's first phase.
    The blocks run by their set of ``alpha[0]``, so each head is built once,
    and before a block builds one, every head it does not read is dropped.
    A slab of a head, as many refined rows as fit in ``_SLAB_BYTES`` of
    samples and at least one (one cut for the whole call), is multiplied by
    its other factors and run through :func:`_rows`, the second phase.  The
    padding is that of :func:`embed_spectrum`, so every order's samples equal
    ``inverse(embed_spectrum(spectral_derivative(forward(f), alpha, beta),
    fine))`` up to rounding.  Memory therefore scales with the half spectrum,
    the heads (those of the last block that built one) and each slab in
    flight, not with the refined grid.  Each one-dimensional pass scales by
    its length, so no intermediate exceeds the samples by more than the
    longest axis.
    """
    # every grid size is even, as in ``_irfft``
    sizes = coeff.shape[1:-1] + (2 * (coeff.shape[-1] - 1),)
    fine = [refinement * size for size in sizes]
    rows = max(1, _SLAB_BYTES // (8 * int(np.prod(fine[1:]))))
    starts = range(0, fine[0], rows)
    steps = [2.0 * np.pi / domain.L] * domain.n + [2.0 * np.pi / domain.T]
    # integer modes of the coarse half spectrum (its Nyquist modes are zero)
    modes = [np.fft.fftfreq(size, d=1.0 / size).astype(int) for size in sizes[:-1]]
    modes.append(np.arange(sizes[-1] // 2 + 1))
    freqs = np.ix_(*(1j * step * m for step, m in zip(steps, modes)))
    components = coeff.shape[0]

    def head(order: int) -> np.ndarray:
        # the band padded along the first axis, times its factor padded alike
        out = _pad(coeff, 1, fine[0])
        if order:
            out *= _pad(freqs[0] ** order, 0, fine[0])
        _ifft_columns(out)
        return out

    def factored(band: np.ndarray, alpha: tuple[int, ...], beta: int) -> np.ndarray:
        # times its other factors; a copy where ``_rows`` pads nothing (r = 1)
        factors = (*alpha[1:], beta)
        for freq, order in zip(freqs[1:], factors):
            if order:
                band = band * freq**order
        return band.copy() if refinement == 1 and not any(factors) else band

    results = [None] * len(blocks)
    heads = {}  # alpha[0] -> head
    for i in sorted(
        range(len(blocks)), key=lambda i: sorted({a[0] for a, _ in blocks[i]})
    ):
        keys = {alpha[0] for alpha, _ in blocks[i]}
        if not keys <= heads.keys():
            for key in heads.keys() - keys:
                del heads[key]  # so it does not outlive the build
            for key in keys - heads.keys():
                heads[key] = head(key)

        def slab(start: int) -> Iterator[np.ndarray]:
            for alpha, beta in blocks[i]:
                band = heads[alpha[0]][:, start:start + rows]
                for c in range(components):
                    yield _rows(factored(band[c:c + 1], alpha, beta), fine)

        results[i] = _map(lambda start: consume(i, slab(start)), starts)
    return results
