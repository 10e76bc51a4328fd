"""Tests for the space-time torus transform and spectral calculus."""

import ast
import inspect
import itertools
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from tpoe import (
    DomainMismatch,
    DualIndex,
    NonHermitian,
    OseenParams,
    SpaceTimeField,
    SpectralField,
    TorusDomain,
    apply_helmholtz,
    embed_spectrum,
    forward,
    inverse,
    lq_norm,
    plancherel_norm,
    random_band_limited_field,
    refine,
    spectral_derivative,
    transference_check,
)
from tpoe import solver, spectral
from tpoe.spectral import _irfft, _refined_derivatives, _rfft

TWO_PI = 2.0 * np.pi


def dom2(N=32, Nt=32, L=TWO_PI, T=TWO_PI):
    return TorusDomain(n=2, L=L, N=N, T=T, Nt=Nt)


class TestTorusDomain:
    def test_invariants_rejected(self):
        with pytest.raises(ValueError, match="2 or 3"):
            TorusDomain(n=1, L=TWO_PI, N=16, T=TWO_PI, Nt=16)
        with pytest.raises(ValueError, match="even"):
            TorusDomain(n=2, L=TWO_PI, N=15, T=TWO_PI, Nt=16)
        with pytest.raises(ValueError, match="even"):
            TorusDomain(n=2, L=TWO_PI, N=16, T=TWO_PI, Nt=2)
        with pytest.raises(ValueError, match="positive"):
            TorusDomain(n=2, L=-1.0, N=16, T=TWO_PI, Nt=16)
        with pytest.raises(ValueError, match="positive"):
            TorusDomain(n=2, L=TWO_PI, N=16, T=0.0, Nt=16)

    @pytest.mark.parametrize("N, Nt", [(8, 16), (16, 8)])
    def test_refine_rejects_a_coarser_grid(self, N, Nt):
        with pytest.raises(ValueError, match="refinement must not reduce the grid"):
            dom2(N=16, Nt=16).refine(N, Nt)

    def test_mode_ranges(self):
        d = dom2(N=8, Nt=8)
        assert sorted(d.spatial_modes()) == list(range(-4, 4))
        assert list(d.time_modes()) == list(range(0, 5))
        assert d.spectral_shape == (8, 8, 5)

    def test_dual_index_frequencies(self):
        d = TorusDomain(n=2, L=4.0, N=8, T=3.0, Nt=8)
        xi, eta = DualIndex((1, -2), 3).frequencies(d)
        assert xi[0] == pytest.approx(2 * np.pi / 4.0)
        assert xi[1] == pytest.approx(-2 * 2 * np.pi / 4.0)
        assert eta == pytest.approx(3 * 2 * np.pi / 3.0)


class TestTransform:
    def test_constant_field_single_coefficient(self):
        # only the zero character integrates to a nonzero value
        d = dom2()
        c = 3.25
        field = SpaceTimeField.scalar(d, np.full(d.grid_shape, c))
        spec = forward(field)
        zero = spec.get(DualIndex((0, 0), 0))[0]
        assert zero == pytest.approx(c, rel=1e-13)
        rest = spec.coefficients.copy()
        rest[0, 0, 0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-12 * abs(zero)

    def test_cosine_splits_into_two_modes(self):
        # Euler's formula under the mean normalization:
        # modulus c/2 at m = +-e1, k = 0
        d = dom2()
        c = 2.0
        x1 = d.meshgrid()[0]
        spec = forward(SpaceTimeField.scalar(d, c * np.cos(x1)))
        expected = c / 2.0
        for m in ((1, 0), (-1, 0)):
            assert abs(spec.get(DualIndex(m, 0))[0]) == pytest.approx(
                expected, rel=1e-13
            )
        spec.coefficients[0, 1, 0, 0] = 0.0
        spec.coefficients[0, -1, 0, 0] = 0.0
        assert np.max(np.abs(spec.coefficients)) < 1e-12 * expected

    def test_negative_time_mode_reads_conjugate(self):
        # sin(x1 + t) = (e^{i(x1 + t)} - e^{-i(x1 + t)}) / 2i: the half
        # spectrum holds -i/2 at (e1, 1), and (-e1, -1) reads its conjugate
        d = dom2(N=16, Nt=16)
        x1, _, t = d.meshgrid()
        spec = forward(SpaceTimeField.scalar(d, np.sin(x1 + t)))
        assert spec.get(DualIndex((1, 0), 1))[0] == pytest.approx(-0.5j, abs=1e-15)
        assert spec.get(DualIndex((-1, 0), -1))[0] == pytest.approx(0.5j, abs=1e-15)
        assert abs(spec.get(DualIndex((1, 0), -1))[0]) <= 1e-15

    @pytest.mark.parametrize(
        "index, message",
        [
            (DualIndex((1, 0, 0), 1), "dimension mismatch"),
            # unchecked, each read an aliased entry: the first two (1, 0), 1
            (DualIndex((9, 0), 1), "off the dual grid"),
            (DualIndex((1, 0), 9), "off the dual grid"),
            (DualIndex((-5, 0), 0), "off the dual grid"),
            (DualIndex((0, 0), -5), "off the dual grid"),
        ],
        ids=["length", "m-above", "k-above", "m-below", "k-below"],
    )
    def test_dual_index_of_the_wrong_length_rejected(self, index, message):
        spec = forward(SpaceTimeField.zeros(dom2(N=8, Nt=8), 1))
        with pytest.raises(DomainMismatch, match=message):
            spec.get(index)

    def test_nyquist_index_reads_the_zeroed_entry(self):
        # either sign of N/2 and Nt/2 is on the grid and reads a Nyquist
        # entry, which forward zeroes (cos(4 x2) lives there on N = 8)
        d = dom2(N=8, Nt=8)
        _, x2, _ = d.meshgrid()
        spec = forward(SpaceTimeField.scalar(d, 1.0 + np.cos(4 * x2)))
        for *m, k in itertools.product((-4, 0, 4), repeat=3):
            if any(m) or k:
                assert spec.get(DualIndex(tuple(m), k))[0] == 0.0

    def test_arithmetic_needs_a_field_on_the_same_domain(self):
        d = dom2(N=8, Nt=8)
        f = SpaceTimeField.zeros(d, 2)
        with pytest.raises(TypeError, match="unsupported operand"):
            f + 1.0
        for other in (
            SpaceTimeField.zeros(dom2(N=8, Nt=8, L=3.0), 2),
            SpaceTimeField.zeros(dom2(N=8, Nt=16), 2),
            SpaceTimeField.zeros(d, 1),
        ):
            with pytest.raises(DomainMismatch, match="on different domains"):
                f + other
            with pytest.raises(DomainMismatch, match="on different domains"):
                f - other

    def test_roundtrip_random_band_limited(self):
        d = dom2()
        f = random_band_limited_field(d, 2, np.random.default_rng(7))
        assert (inverse(forward(f)) - f).max_abs() <= 1e-12

    def test_inverse_then_forward_roundtrip(self):
        d = dom2(N=16, Nt=16)
        f = random_band_limited_field(d, 1, np.random.default_rng(3))
        spec = forward(f)
        again = forward(inverse(spec))
        assert np.max(np.abs(again.coefficients - spec.coefficients)) <= (
            1e-12 * spec.max_abs()
        )

    def test_forward_of_real_is_hermitian(self):
        d = dom2(N=16, Nt=16)
        rng = np.random.default_rng(11)
        f = SpaceTimeField(d, rng.standard_normal((2,) + d.grid_shape))
        spec = forward(f)
        assert spec.hermitian_defect() <= 1e-12 * spec.max_abs()

    def test_linearity(self):
        d = dom2(N=16, Nt=16)
        rng = np.random.default_rng(5)
        f = random_band_limited_field(d, 2, rng)
        g = random_band_limited_field(d, 2, rng)
        a, b = 2.5, -1.25
        lhs = forward(a * f + b * g).coefficients
        rhs = a * forward(f).coefficients + b * forward(g).coefficients
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_non_hermitian_input_rejected(self):
        d = dom2(N=16, Nt=16)
        coeff = np.zeros((1,) + d.spectral_shape, dtype=complex)
        coeff[0, 1, 0, 0] = 1.0 + 2.0j  # no conjugate partner
        with pytest.raises(NonHermitian):
            inverse(SpectralField(d, coeff))

    def test_nyquist_content_rejected(self):
        d = dom2(N=16, Nt=16)
        coeff = np.zeros((1,) + d.spectral_shape, dtype=complex)
        coeff[0, 8, 0, 0] = 1.0  # spatial Nyquist row is self-conjugate
        with pytest.raises(NonHermitian, match="Nyquist"):
            inverse(SpectralField(d, coeff))

    def test_shape_mismatch_rejected(self):
        d = dom2(N=16, Nt=16)
        with pytest.raises(DomainMismatch):
            SpaceTimeField(d, np.zeros((2, 16, 16, 8)))
        with pytest.raises(DomainMismatch):
            SpaceTimeField(d, np.zeros((3, 16, 16, 16)))
        with pytest.raises(DomainMismatch):
            SpaceTimeField.scalar(d, np.full(d.grid_shape, np.nan))
        with pytest.raises(DomainMismatch, match="coefficients shape"):
            SpectralField(d, np.zeros((2,) + d.grid_shape, dtype=complex))
        with pytest.raises(DomainMismatch, match="components"):
            SpectralField(d, np.zeros((3,) + d.spectral_shape, dtype=complex))
        coeff = np.zeros((1,) + d.spectral_shape, dtype=complex)
        coeff[0, 1, 0, 0] = complex(np.inf, 0.0)
        with pytest.raises(DomainMismatch, match="coefficients contain non-finite"):
            SpectralField(d, coeff)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_in_every_layout(self, bad):
        d = dom2(N=16, Nt=16)
        samples = np.zeros((2,) + d.grid_shape)
        samples[1, 3, 4, 5] = bad
        with pytest.raises(DomainMismatch, match="samples contain non-finite"):
            SpaceTimeField(d, samples)
        # a broadcast time-constant view: one spatial slice repeated
        spatial = samples[..., 5:6]
        with pytest.raises(DomainMismatch, match="samples contain non-finite"):
            SpaceTimeField(d, np.broadcast_to(spatial, samples.shape))
        for value in (complex(bad, 0.0), complex(0.0, bad)):
            coeff = np.zeros((1,) + d.spectral_shape, dtype=complex)
            coeff[0, 1, 2, 3] = value
            with pytest.raises(DomainMismatch, match="coefficients contain non-finite"):
                SpectralField(d, coeff)

    def test_wrapping_allocates_no_field_sized_array(self, traced_peak, bound_case):
        # 0.0013x measured; a boolean np.isfinite array is 0.126x the samples
        d, _, f = bound_case
        time_constant = np.broadcast_to(f.samples[..., :1], f.samples.shape)
        coeff = _rfft(f.samples)
        for make, values in (
            (SpaceTimeField, f.samples),
            (SpaceTimeField, time_constant),
            (SpectralField, coeff),
        ):
            peak, _ = traced_peak(lambda: make(d, values))
            assert peak <= 0.01 * values.nbytes, (make.__name__, values.strides)

    def test_max_abs_allocates_no_field_sized_array(self, traced_peak, bound_case):
        # 0.0009x measured for both; 1.00x and 1.04x when max|f| took |f|
        d, _, f = bound_case
        time_constant = np.broadcast_to(f.samples[..., :1], f.samples.shape)
        for values in (f.samples, time_constant):
            field = SpaceTimeField(d, values)
            peak, got = traced_peak(field.max_abs)
            assert got == np.max(np.abs(values))
            assert peak <= 0.01 * values.nbytes, values.strides


class TestDerivative:
    def test_cosine_derivative(self):
        d = dom2()
        x1 = d.meshgrid()[0]
        spec = forward(SpaceTimeField.scalar(d, np.cos(x1)))
        ds = inverse(spectral_derivative(spec, (1, 0), 0))
        assert np.max(np.abs(ds.samples[0] + np.sin(x1))) <= 1e-12

    def test_time_mode_factor(self):
        # the pure oscillation e^{i(2pi/T)t} picks up the factor i*2pi/T
        d = dom2(N=16, Nt=16, T=3.0)
        t = d.meshgrid()[2]
        f = SpaceTimeField.scalar(d, np.cos(2 * np.pi / d.T * t))
        spec = spectral_derivative(forward(f), (0, 0), 1)
        value = spec.get(DualIndex((0, 0), 1))[0]
        base = forward(f).get(DualIndex((0, 0), 1))[0]
        assert value == pytest.approx(1j * 2 * np.pi / d.T * base, rel=1e-13)
        ds = inverse(spec)
        expected = -2 * np.pi / d.T * np.sin(2 * np.pi / d.T * t)
        assert np.max(np.abs(ds.samples[0] - expected)) <= 1e-12

    def test_matches_centered_differences_at_order_two(self):
        # error ratio under grid halving must sit near 2^2 = 4
        base = dom2(N=16, Nt=16)
        f16 = random_band_limited_field(
            base, 1, np.random.default_rng(2), m_max=3, k_max=3
        )
        errors = []
        for N in (16, 32):
            f = f16 if N == 16 else refine(f16, N, N)
            d = f.domain
            exact = inverse(spectral_derivative(forward(f), (1, 0), 0)).samples
            fd = (
                np.roll(f.samples, -1, axis=1) - np.roll(f.samples, 1, axis=1)
            ) / (2 * d.dx)
            errors.append(np.max(np.abs(fd - exact)))
        ratio = errors[0] / errors[1]
        assert 3.5 <= ratio <= 4.5

    def test_order_limits_enforced(self):
        d = dom2(N=16, Nt=16)
        spec = forward(SpaceTimeField.zeros(d, 1))
        with pytest.raises(ValueError):
            spectral_derivative(spec, (2, 1), 0)
        with pytest.raises(ValueError):
            spectral_derivative(spec, (0, 0), 2)
        with pytest.raises(DomainMismatch):
            spectral_derivative(spec, (1, 0, 0), 0)


class TestPlancherel:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("amplitude", [1.0, 1e160, 1e-200])
    def test_matches_quadrature_l2(self, n, amplitude):
        # squaring 1e160 overflows and 1e-200 underflows unless the
        # coefficients are scaled first
        d = TorusDomain(n=n, L=3.0, N=16, T=5.0, Nt=16)
        for seed in range(3):
            f = amplitude * random_band_limited_field(
                d, n, np.random.default_rng(seed)
            )
            spectral = plancherel_norm(forward(f))
            physical = lq_norm(f, 2.0)
            assert spectral == pytest.approx(physical, rel=1e-12, abs=0.0)


class TestRefine:
    def test_refined_field_matches_analytic_samples(self):
        d = dom2(N=16, Nt=16)
        x1, x2, t = d.meshgrid()
        f = SpaceTimeField.scalar(d, np.cos(x1 + t) + 0.5 * np.sin(2 * x2))
        fine = refine(f, 32, 64)
        y1, y2, s = fine.domain.meshgrid()
        expected = np.cos(y1 + s) + 0.5 * np.sin(2 * y2)
        assert np.max(np.abs(fine.samples[0] - expected)) <= 1e-12

    @pytest.mark.parametrize("N, Nt", [(12, 16), (8, 8), (16, 10)])
    def test_embedding_drops_nyquist_rows(self, N, Nt):
        # forward() zeroes the Nyquist modes, so fill every coefficient,
        # Nyquist rows included, and place each kept mode m at m % N by hand
        coarse, fine = dom2(N=8, Nt=8), dom2(N=N, Nt=Nt)
        rng = np.random.default_rng(3)
        shape = (2,) + coarse.spectral_shape
        coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = np.zeros((2,) + fine.spectral_shape, dtype=complex)
        modes = coarse.spatial_modes().astype(int)
        for (i, m1), (j, m2) in itertools.product(enumerate(modes), repeat=2):
            for k in coarse.time_modes():
                if 4 not in (abs(m1), abs(m2), k):  # N/2 and Nt/2 of coarse
                    expected[:, m1 % N, m2 % N, k] = coeff[:, i, j, k]
        got = embed_spectrum(SpectralField(coarse, coeff), fine)
        assert np.array_equal(got.coefficients, expected)

    @pytest.mark.parametrize(
        "fine",
        [dom2(N=8, Nt=16), dom2(N=16, Nt=8), dom2(N=16, Nt=16, L=3.0),
         dom2(N=16, Nt=16, T=3.0), TorusDomain(n=3, L=TWO_PI, N=16, T=TWO_PI, Nt=16)],
        ids=["coarser-N", "coarser-Nt", "other-L", "other-T", "other-n"],
    )
    def test_embedding_needs_a_refinement_of_the_torus(self, fine):
        spec = forward(SpaceTimeField.zeros(dom2(N=12, Nt=12), 1))
        with pytest.raises(DomainMismatch, match="target grid must refine"):
            embed_spectrum(spec, fine)

    def test_same_seed_same_continuum_field_across_resolutions(self):
        # band-limited draws are grid-independent: generating at N=32 equals
        # refining the N=16 field from the same seed
        coarse = dom2(N=16, Nt=16)
        fine = dom2(N=32, Nt=32)
        f_c = random_band_limited_field(
            coarse, 2, np.random.default_rng(9), m_max=3, k_max=3,
            solenoidal=True, purely_periodic=True,
        )
        f_f = random_band_limited_field(
            fine, 2, np.random.default_rng(9), m_max=3, k_max=3,
            solenoidal=True, purely_periodic=True,
        )
        assert (refine(f_c, 32, 32) - f_f).max_abs() <= 1e-12


class TestSingleBackend:
    def test_forward_and_inverse_make_one_real_transform(
        self, record_transforms, transform_passes
    ):
        d = dom2(N=16, Nt=16)
        f = random_band_limited_field(d, 2, np.random.default_rng(1))
        calls = record_transforms()
        inverse(forward(f))
        assert calls == transform_passes(
            ("rfftn", (2,) + d.grid_shape), ("irfftn", (2,) + d.spectral_shape)
        )

    def test_no_complex_transform(self, record_transforms, transform_passes):
        d = dom2(N=16, Nt=16)
        fine = d.refine(32, 32)
        calls = record_transforms()
        f = random_band_limited_field(d, 2, np.random.default_rng(2))
        refine(f, 32, 32)
        apply_helmholtz(f)
        assert transference_check(d, OseenParams(lam=1.0, T=d.T, q=2.0)) == 0.0
        pair = [("rfftn", (2,) + d.grid_shape), ("irfftn", (2,) + d.spectral_shape)]
        assert calls == transform_passes(
            ("irfftn", (2,) + d.spectral_shape),
            ("rfftn", (2,) + d.grid_shape), ("irfftn", (2,) + fine.spectral_shape),
            *pair,
        ), calls
        # every complex transform acts on a half spectrum: k = 0 .. Nt/2
        halves = {shape[-1] for name, shape in calls if name in ("fft", "ifft")}
        assert halves == {d.Nt // 2 + 1, fine.Nt // 2 + 1}, calls


def nd_reference(samples):
    """numpy's n-d real transform with the Nyquist indices zeroed."""
    axes = tuple(range(1, samples.ndim))
    coeff = np.fft.rfftn(samples, axes=axes, norm="forward")
    for axis, size in zip(axes, samples.shape[1:]):
        coeff[(slice(None),) * axis + (size // 2,)] = 0.0
    return coeff


def nd_inverse_reference(coeff):
    sizes = coeff.shape[1:-1] + (2 * (coeff.shape[-1] - 1),)
    axes = tuple(range(1, coeff.ndim))
    return np.fft.irfftn(coeff, s=sizes, axes=axes, norm="forward")


class TestThreadedPasses:
    # every shape holds at least _THREAD_BYTES: scalar and vector fields of
    # n = 3 and n = 2, and the spatial-only layout of a time-constant slice
    LARGE = [(1, 32, 32, 32, 32), (3, 32, 32, 32, 16), (2, 64, 64, 64), (3, 64, 64, 64)]

    @pytest.mark.parametrize("shape", LARGE)
    def test_pieces_equal_numpy_nd(
        self, shape, monkeypatch, record_transforms, transform_passes
    ):
        # two workers, so that one-CPU machines run the piece path too
        monkeypatch.setattr(spectral, "_WORKERS", 2)
        rng = np.random.default_rng(21)
        samples = rng.standard_normal(shape)
        half = shape[:-1] + (shape[-1] // 2 + 1,)
        coeff = rng.standard_normal(half) + 1j * rng.standard_normal(half)
        assert samples.nbytes >= spectral._THREAD_BYTES
        expected = nd_reference(samples), nd_inverse_reference(coeff)
        calls = record_transforms()
        threaded = []  # (name, axis, input shape, thread) per call
        for name in ("rfft", "fft", "ifft", "irfft"):
            original = getattr(np.fft, name)

            def wrapper(a, *args, _name=name, _original=original, **kwargs):
                axis = kwargs["axis"] % np.ndim(a)
                threaded.append((_name, axis, np.shape(a), threading.get_ident()))
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, wrapper)
        got = _rfft(samples), _irfft(coeff)
        assert np.array_equal(got[0], expected[0])
        assert np.array_equal(got[1], expected[1])
        # every phase cuts the spectrum into the same number of pieces (axes
        # 1 and 2 have one size), about _PIECE_BYTES each
        pieces = len(spectral._pieces(coeff, 1))
        assert pieces == len(spectral._pieces(coeff, 2))
        assert pieces >= max(2, coeff.nbytes // spectral._PIECE_BYTES)
        passes = transform_passes(("rfftn", shape), ("irfftn", half))
        assert len(calls) == pieces * len(passes)
        # each pass is numpy's, one call per piece, and the pieces of a pass
        # cover its lines, cut along axis 2 for the pass along axis 1 and
        # along axis 1 for every other
        axes = list(range(len(shape) - 1, 0, -1)) + list(range(1, len(shape)))
        made = [[] for _ in passes]
        for name, axis, size, _ in threaded:
            (at,) = [
                k for k, (called, _) in enumerate(passes)
                if (called, axes[k]) == (name, axis)
            ]
            made[at].append(size)
        for (_, whole), axis, sizes in zip(passes, axes, made):
            cut = 2 if axis == 1 else 1
            assert len(sizes) == pieces
            assert sum(size[cut] for size in sizes) == whole[cut]
            assert all(
                size[:cut] + size[cut + 1 :] == whole[:cut] + whole[cut + 1 :]
                for size in sizes
            )
        # in every thread, each piece makes the passes of its phase in
        # numpy's order, and the phases follow numpy's order: the pass
        # indices a thread makes are the phases' runs, each phase repeated
        forward = len(shape) - 1
        phases = [
            list(range(forward - 1)), [forward - 1], [forward],
            list(range(forward + 1, len(passes))),
        ]
        for thread in {ident for *_, ident in threaded}:
            order = [
                axes.index(axis, forward if name.startswith("i") else 0)
                for name, axis, _, ident in threaded if ident == thread
            ]
            phase, at = 0, 0
            while at < len(order):
                while order[at] != phases[phase][0]:
                    phase += 1
                    assert phase < len(phases), order
                run = phases[phase]
                assert order[at : at + len(run)] == run, order
                at += len(run)
    @pytest.mark.parametrize(
        "workers, size", [(1, 16), (2, 64)], ids=["contiguous", "threaded"]
    )
    def test_inverse_leaves_its_input_unchanged(self, monkeypatch, workers, size):
        # _irfft transforms in the spectrum it is handed, so inverse hands it
        # a copy; the threaded spectrum holds at least _THREAD_BYTES
        monkeypatch.setattr(spectral, "_WORKERS", workers)
        d = dom2(N=size, Nt=size)
        samples = np.random.default_rng(27).standard_normal((2,) + d.grid_shape)
        spec = forward(SpaceTimeField(d, samples))  # conjugate-symmetric
        large = spec.coefficients.nbytes >= spectral._THREAD_BYTES
        assert large == (workers > 1)
        before = spec.coefficients.tobytes()
        expected = nd_inverse_reference(spec.coefficients)
        assert np.array_equal(inverse(spec).samples, expected)
        assert spec.coefficients.tobytes() == before

    def test_steady_slice_is_the_inverse_of_its_spatial_spectrum(self):
        # the steady field is the inverse of the strided k == 0 slice of u^,
        # cut to N/2 + 1 and transformed in place, repeated along time
        d = TorusDomain(n=3, L=3.0, N=16, T=5.0, Nt=16)
        rng = np.random.default_rng(27)
        shape = (3,) + d.spectral_shape
        uh = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = nd_inverse_reference(uh[..., : d.N // 2 + 1, 0])
        v = solver._steady_slice(uh[..., 0], d)
        assert v.samples.strides[-1] == 0
        assert np.array_equal(v.samples[..., 0], expected)

    def test_small_arrays_run_one_call_per_pass(
        self, monkeypatch, record_transforms, transform_passes
    ):
        # norm-report's 1.5 MiB field stays in the calling thread
        monkeypatch.setattr(spectral, "_WORKERS", 2)
        samples = np.random.default_rng(22).standard_normal((3, 16, 16, 16, 16))
        calls = record_transforms()
        coeff = _rfft(samples)
        _irfft(coeff)
        assert calls == transform_passes(
            ("rfftn", samples.shape), ("irfftn", coeff.shape)
        )

    @staticmethod
    def threads_of_passes(monkeypatch, fail_outside=None):
        """Wrap numpy's one-dimensional transforms to collect the threads
        that run them; a call outside the thread ``fail_outside`` raises."""
        seen = set()
        for name in ("rfft", "fft", "ifft", "irfft"):
            original = getattr(np.fft, name)

            def wrapper(*args, _original=original, **kwargs):
                seen.add(threading.current_thread())
                if fail_outside not in (None, threading.current_thread()):
                    raise ArithmeticError("a chunk failed")
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, wrapper)
        return seen

    def test_no_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(spectral, "_WORKERS", 2)
        samples = np.random.default_rng(25).standard_normal((1, 32, 32, 32, 32))
        seen = self.threads_of_passes(monkeypatch)
        before = threading.active_count()
        _irfft(_rfft(samples))
        assert threading.active_count() == before
        workers = seen - {threading.current_thread()}
        assert workers and not any(thread.is_alive() for thread in workers)

    def test_chunk_error_is_raised_after_every_chunk_ends(self, monkeypatch):
        monkeypatch.setattr(spectral, "_WORKERS", 2)
        samples = np.random.default_rng(26).standard_normal((1, 32, 32, 32, 32))
        seen = self.threads_of_passes(monkeypatch, threading.current_thread())
        before = threading.active_count()
        with pytest.raises(ArithmeticError, match="a chunk failed"):
            _rfft(samples)
        assert threading.active_count() == before
        workers = seen - {threading.current_thread()}
        assert workers and not any(thread.is_alive() for thread in workers)

    @pytest.mark.parametrize("state", ["raise", "ignore"])
    def test_chunk_threads_keep_the_callers_error_state(self, monkeypatch, state):
        # the first pass, along axis 1, is split along axis 2: the inf is in
        # the last chunk's lines, which a chunk thread transforms to inf and NaN
        monkeypatch.setattr(spectral, "_WORKERS", 2)
        coeff = np.zeros((1, 32, 32, 32, 17), dtype=complex)
        assert coeff.nbytes >= spectral._THREAD_BYTES
        coeff[0, 1, -1, 1, 1] = np.inf
        with np.errstate(invalid=state):
            if state == "raise":
                with pytest.raises(FloatingPointError):
                    _irfft(coeff)
            else:  # a warning would be an error under the suite's filter
                assert np.isnan(_irfft(coeff)).any()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_forked_child_runs_threaded_passes(self, monkeypatch):
        monkeypatch.setattr(spectral, "_WORKERS", 2)
        samples = np.random.default_rng(23).standard_normal((1, 32, 32, 32, 32))
        expected = _rfft(samples)  # runs threaded passes in this process
        pid = os.fork()
        if pid == 0:  # the child: exit without returning into pytest
            code = 1
            try:
                code = 0 if np.array_equal(_rfft(samples), expected) else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's transform did not finish in 60 s")
            time.sleep(0.02)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_interpreter_exits_after_threaded_passes(self):
        code = (
            "import numpy as np\n"
            "from tpoe import spectral\n"
            "spectral._WORKERS = 2\n"
            "x = np.random.default_rng(24).standard_normal((1, 32, 32, 32, 32))\n"
            "spectral._irfft(spectral._rfft(x))\n"
        )
        src = os.path.join(os.path.dirname(spectral.__file__), os.pardir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, timeout=60, capture_output=True
        )
        assert done.returncode == 0, done.stderr


class TestPieces:
    # a low threshold and a small piece size send small arrays down the piece
    # path; N = 10 with three indices a piece cuts axes 1 and 2 into four
    # pieces, which do not divide N, and the half axis of a spatial-only n = 2
    # layout into one per index
    SHAPES = [(3, 10, 10, 10, 8), (2, 10, 10, 12), (3, 10, 10, 10), (2, 10, 10)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_pair_equals_numpy_nd(self, monkeypatch, workers, shape):
        rng = np.random.default_rng(29)
        samples = rng.standard_normal(shape)
        half = shape[:-1] + (shape[-1] // 2 + 1,)
        coeff = rng.standard_normal(half) + 1j * rng.standard_normal(half)
        monkeypatch.setattr(spectral, "_THREAD_BYTES", 0)
        monkeypatch.setattr(spectral, "_PIECE_BYTES", 3 * coeff.nbytes // 10)
        pieces = spectral._pieces(coeff, 1)
        assert len(pieces) == max(4, workers) and 10 % len(pieces) != 0
        expected = nd_reference(samples), nd_inverse_reference(coeff)
        assert np.array_equal(_rfft(samples), expected[0])
        assert np.array_equal(_irfft(coeff.copy()), expected[1])
        # a consumer gets every sample piece, and no full-size array
        got = np.full_like(expected[1], np.nan)

        def consume(index, piece):
            got[index] = piece
            return index

        assert _irfft(coeff, consume) == pieces
        assert np.array_equal(got, expected[1])

    def test_hook_sees_each_finished_piece_once(self, monkeypatch, workers):
        # the thread that finished a piece runs the hook on it; a change it
        # makes is in the spectrum returned
        rng = np.random.default_rng(30)
        samples = rng.standard_normal((2, 10, 10, 12))
        expected = nd_reference(samples)
        monkeypatch.setattr(spectral, "_THREAD_BYTES", 0)
        monkeypatch.setattr(spectral, "_PIECE_BYTES", 3 * expected.nbytes // 10)
        seen = []

        def hook(index, block):
            assert np.array_equal(block, expected[index])
            seen.append((index[2].start, threading.current_thread()))
            block *= 2.0

        coeff = _rfft(samples, hook)
        assert np.array_equal(coeff, 2.0 * expected)
        starts = sorted(start for start, _ in seen)
        assert starts == [index[2].start for index in spectral._pieces(coeff, 2)]
        assert len({thread for _, thread in seen}) == min(workers, len(seen))


class TestMap:
    def test_thread_i_takes_every_wth_item(self, monkeypatch):
        # results in item order; the caller runs items 0, 3, 6, ..., and each
        # other share runs in one thread of its own, more threads than CPUs
        monkeypatch.setattr(spectral, "_WORKERS", 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = spectral._map(
                lambda item: (item, threading.current_thread()), range(300)
            )
        finally:
            sys.setswitchinterval(interval)
        assert [item for item, _ in got] == list(range(300))
        threads = [thread for _, thread in got]
        assert threads[0] is threading.current_thread()
        assert len(set(threads)) == 3
        assert all(threads[i] is threads[i % 3] for i in range(300))
        assert not any(thread.is_alive() for thread in threads[1:3])

    def test_no_thread_for_one_item(self, monkeypatch):
        monkeypatch.setattr(spectral, "_WORKERS", 3)
        assert spectral._map(lambda item: threading.current_thread(), [0]) == [
            threading.current_thread()
        ]
        assert spectral._map(lambda item: item, []) == []


    def test_a_map_in_a_threaded_map_runs_in_its_caller(self, monkeypatch):
        monkeypatch.setattr(spectral, "_WORKERS", 3)
        before = threading.active_count()

        def inner(item):
            return [threading.active_count(), threading.current_thread()]

        def outer(item):
            return threading.current_thread(), spectral._map(inner, range(5))

        got = spectral._map(outer, range(6))
        for thread, runs in got:
            assert all(ran is thread for _, ran in runs)
            assert all(count <= before + 2 for count, _ in runs)
        assert len({thread for thread, _ in got}) == 3
        # a map that runs no thread leaves its items' maps free to thread
        inside = spectral._map(lambda item: spectral._map(inner, range(3)), [0])
        assert len({ran for _, ran in inside[0]}) == 3

    def test_the_lowest_failed_index_is_raised(self, monkeypatch):
        # items 7 and 13 fail in thread 1, item 11 in thread 2, which
        # fails first while item 7 sleeps: every item below 7 runs and
        # item 7's error is raised
        monkeypatch.setattr(spectral, "_WORKERS", 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                ran = set()

                def run(item):
                    ran.add(item)
                    if item == 7:
                        time.sleep(0.05)
                    if item in (7, 11, 13):
                        raise ArithmeticError(f"item {item}")
                    return item

                with pytest.raises(ArithmeticError, match="^item 7$"):
                    spectral._map(run, range(30))
                assert set(range(8)) <= ran
        finally:
            sys.setswitchinterval(interval)


def streamed(coeff, domain, orders, refinement, consume=lambda i, slab: list(slab)):
    """The results of ``consume`` on each slab of the streamed inverse of one
    block ``orders`` at ``refinement``, in slab order: by default the slab's
    arrays."""
    (slabs,) = _refined_derivatives(coeff, domain, [orders], refinement, consume)
    return slabs


class TestRefinedDerivatives:
    # the streamed inverse of the norm quadrature against the public
    # calculus: forward, spectral_derivative, embed_spectrum, inverse
    ORDERS = [((0, 0), 0), ((1, 0), 0), ((1, 1), 0), ((0, 2), 0), ((0, 0), 1)]

    def public_calculus(self, f, refinement):
        d = f.domain
        fine = d.refine(refinement * d.N, refinement * d.Nt)
        spec = forward(f)
        return [
            inverse(
                embed_spectrum(spectral_derivative(spec, alpha, beta), fine)
            ).samples
            for alpha, beta in self.ORDERS
        ]

    @staticmethod
    def joined(samples, domain, orders, refinement):
        """Each order's slabs, one array per order and component, joined
        along the first spatial axis; and the row count of every slab."""
        components = samples.shape[0]
        slabs = streamed(_rfft(samples), domain, orders, refinement)
        assert all(len(slab) == len(orders) * components for slab in slabs)
        rows = [slab[0].shape[1] for slab in slabs]
        joined = [
            np.concatenate(
                [np.concatenate(slab[i:i + components]) for slab in slabs], axis=1
            )
            for i in range(0, len(orders) * components, components)
        ]
        return joined, rows

    def assert_matches(self, got, expected):
        for samples, want in zip(got, expected, strict=True):
            assert samples.shape == want.shape
            scale = np.max(np.abs(want))
            assert np.max(np.abs(samples - want)) <= 1e-12 * scale

    @pytest.mark.parametrize("refinement", [1, 2, 3])
    def test_matches_full_layout(self, refinement):
        # unfiltered samples populate the Nyquist modes, which both drop
        d = dom2(N=12, Nt=8, L=3.0, T=5.0)
        rng = np.random.default_rng(11)
        f = SpaceTimeField(d, rng.standard_normal((2,) + d.grid_shape))
        got, _ = self.joined(f.samples, d, self.ORDERS, refinement)
        self.assert_matches(got, self.public_calculus(f, refinement))

    def test_short_last_slab(self, monkeypatch, record_transforms):
        # 7 refined rows per slab (24 = 7 + 7 + 7 + 3)
        d = dom2(N=12, Nt=8, L=3.0, T=5.0)
        monkeypatch.setattr(spectral, "_SLAB_BYTES", 7 * 8 * 24 * 16)
        f = SpaceTimeField(
            d, np.random.default_rng(13).standard_normal((2,) + d.grid_shape)
        )
        calls = record_transforms()
        got, rows = self.joined(f.samples, d, self.ORDERS, 2)
        assert rows == [7, 7, 7, 3]
        # both components at once only along the first axis, once per
        # alpha[0], over all 12 band columns
        heads = [shape for name, shape in calls if name == "ifft" and shape[0] == 2]
        assert heads == [(2, 24, 12, 5)] * 2
        self.assert_matches(got, self.public_calculus(f, 2))

    def test_slabs_do_not_depend_on_the_cpu_count(self, monkeypatch):
        # the quadrature's slabs at n = 2 and 3, N = Nt = 16, and at n = 2,
        # N = Nt = 32, each at r = 1 and 2, are as many refined rows as fit in
        # _SLAB_BYTES of samples at 1, 3 and 64 CPUs alike; the map runs
        # serially here, so no thread starts
        monkeypatch.setattr(spectral, "_map", lambda f, items: [f(x) for x in items])
        rows = lambda i, slab: next(slab).shape[1]  # noqa: E731
        for n, N in ((2, 16), (3, 16), (2, 32)):
            d = TorusDomain(n=n, L=TWO_PI, N=N, T=TWO_PI, Nt=N)
            coeff = _rfft(np.zeros((1,) + d.grid_shape))
            for r in (1, 2):
                per_slab = max(1, spectral._SLAB_BYTES // (8 * (r * N) ** n))
                expected = [
                    min(per_slab, r * N - start)
                    for start in range(0, r * N, per_slab)
                ]
                for workers in (1, 3, 64):
                    monkeypatch.setattr(spectral, "_WORKERS", workers)
                    order = ((0,) * n, 0)
                    got = streamed(coeff, d, [order], r, rows)
                    assert got == expected, (n, N, r, workers)

    def test_head_threads_like_any_pass(self, monkeypatch, record_transforms):
        # with every array threaded, each first-axis transform is split
        # along the second axis into one call per thread, and the slabs
        # equal the serial ones bitwise
        d = dom2(N=12, Nt=8, L=3.0, T=5.0)
        coeff = _rfft(np.random.default_rng(15).standard_normal((2,) + d.grid_shape))
        monkeypatch.setattr(spectral, "_WORKERS", 1)
        serial = streamed(coeff, d, self.ORDERS, 2)
        monkeypatch.setattr(spectral, "_WORKERS", 2)
        monkeypatch.setattr(spectral, "_THREAD_BYTES", 0)
        calls = record_transforms()
        threaded = streamed(coeff, d, self.ORDERS, 2)
        heads = [shape for name, shape in calls if name == "ifft" and shape[0] == 2]
        assert heads == [(2, 24, 6, 5)] * 4  # two per distinct alpha[0]
        for mine, want in zip(threaded, serial, strict=True):
            assert [a.tobytes() for a in mine] == [b.tobytes() for b in want]

    @pytest.mark.parametrize("n, N", [(3, 16), (2, 32)])
    @pytest.mark.parametrize("a1", [0, 1])
    def test_head_allocates_only_its_output(self, traced_peak, n, N, a1):
        # each head is padded once and transformed in place: r = 2 times
        # coeff, and no copy of the band (multiplying before padding would
        # add one); the consumer never iterates its slab, so no slab is made
        d = TorusDomain(n=n, L=TWO_PI, N=N, T=TWO_PI, Nt=N)
        coeff = _rfft(np.random.default_rng(16).standard_normal((n,) + d.grid_shape))
        alpha = (a1,) + (0,) * (n - 1)
        peak, _ = traced_peak(
            lambda: streamed(coeff, d, [(alpha, 0)], 2, lambda i, slab: None)
        )
        assert peak <= 2.3 * coeff.nbytes

    def test_consumer_runs_in_the_call_threads(self, monkeypatch, workers):
        # the call runs the consumer on every slab, each thread taking every
        # W-th slab, and returns the results in slab order: bitwise equal to
        # the serial ones, from more than one thread when W > 1
        d = dom2(N=12, Nt=8, L=3.0, T=5.0)
        monkeypatch.setattr(spectral, "_SLAB_BYTES", 7 * 8 * 24 * 16)
        coeff = _rfft(np.random.default_rng(14).standard_normal((2,) + d.grid_shape))
        monkeypatch.setattr(spectral, "_WORKERS", 1)
        serial = streamed(coeff, d, self.ORDERS, 2)
        monkeypatch.setattr(spectral, "_WORKERS", workers)
        threads = set()

        def consume(i, slab):
            assert i == 0
            threads.add(threading.current_thread())
            return list(slab)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = streamed(coeff, d, self.ORDERS, 2, consume)
        finally:
            sys.setswitchinterval(interval)
        assert len(got) == 4
        assert len(threads) == min(workers, 4)
        assert threading.current_thread() in threads
        for mine, want in zip(got, serial, strict=True):
            assert [a.shape for a in mine] == [b.shape for b in want]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(mine, want))

    def test_spatial_slice_matches_every_time_slice(self):
        d = dom2(N=12, Nt=8, L=3.0, T=5.0)
        spatial = np.random.default_rng(12).standard_normal((2, d.N, d.N))
        f = SpaceTimeField(
            d, np.repeat(spatial[..., np.newaxis], d.Nt, axis=-1)
        )
        orders = self.ORDERS[:4]  # no time derivative without a time axis
        got, _ = self.joined(spatial, d, orders, 2)
        got = [np.repeat(g[..., np.newaxis], 2 * d.Nt, axis=-1) for g in got]
        self.assert_matches(got, self.public_calculus(f, 2)[:4])


def test_every_full_array_pass_runs_in_pieces():
    # numpy's one-dimensional transforms are called only in the piece phases
    # of the transform pair, which cut spectra of _THREAD_BYTES or more
    # across the CPUs: the forward passes in _rfft, the inverse's column pass
    # in _ifft_columns and its row passes in _rows, which _irfft and the
    # slabs of the streamed inverse share, so no third copy of a phase exists
    package = Path(__file__).resolve().parents[1] / "src" / "tpoe"
    calls = set()  # (module, top-level definition, numpy transform)
    for source in sorted(package.glob("*.py")):
        for top in ast.parse(source.read_text()).body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                if (
                    isinstance(func, ast.Attribute)
                    and ast.unparse(func.value) == "np.fft"
                    and re.fullmatch(r"i?r?fftn?", func.attr)
                ):
                    calls.add((source.stem, getattr(top, "name", None), func.attr))
    assert calls == {
        ("spectral", "_rfft", "rfft"),
        ("spectral", "_rfft", "fft"),
        ("spectral", "_ifft_columns", "ifft"),
        ("spectral", "_rows", "ifft"),
        ("spectral", "_rows", "irfft"),
    }, calls
    # the phases map their pieces, and the streamed inverse transforms its
    # heads with the inverse's first phase and its slabs with its second
    phases = "".join(
        inspect.getsource(function)
        for function in (spectral._rfft, spectral._ifft_columns, spectral._irfft)
    )
    assert phases.count("_map(") == 4 and "_rows(" in phases
    source = inspect.getsource(spectral._refined_derivatives)
    assert "_ifft_columns(out)" in source and "_rows(" in source


def test_only_spectral_and_two_fan_outs_map():
    # only spectral decides how streamed pieces are threaded; beside it, the
    # ensembles of analysis and the snapshot writes map their own items
    package = Path(__file__).resolve().parents[1] / "src" / "tpoe"
    callers = set()  # (module, top-level function or None)
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text())
        owner = {
            id(node): top.name
            for top in tree.body
            if isinstance(top, ast.FunctionDef)
            for node in ast.walk(top)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "_map" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                callers.add((source.stem, owner.get(id(node))))
    outside = {caller for caller in callers if caller[0] != "spectral"}
    assert outside == {("analysis", "_ensemble"), ("snapshot", "save_bundle")}
    assert ("spectral", "_refined_derivatives") in callers
