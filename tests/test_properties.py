"""Property-based checks of the transform, the projections and the full
solve across the parameter space.

The examples are derandomized and few, so the run is reproducible and
cheap; each draws a torus, a grid that resolves the recipe band, a drift
(zero and negative values included) and a seed.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tpoe import (  # noqa: E402
    OseenParams,
    SpaceTimeField,
    TorusDomain,
    apply_helmholtz,
    forward,
    inverse,
    manufactured_case,
    random_band_limited_field,
    recover_pressure,
    solve_full,
    spectral_derivative,
    transference_check,
)
from tpoe.analysis import _recovery_error  # noqa: E402

even_grid = st.sampled_from([10, 12, 14, 16])
lengths = st.floats(min_value=0.5, max_value=20.0)
drifts = st.one_of(st.just(0.0), st.floats(min_value=-10.0, max_value=10.0))
seeds = st.integers(min_value=0, max_value=2**16)
tori = st.builds(
    TorusDomain, n=st.sampled_from([2, 3]), L=lengths, N=even_grid, T=lengths,
    Nt=even_grid,
)
few = settings(max_examples=20, derandomize=True, database=None, deadline=None)


@few
@given(domain=tori, seed=seeds)
def test_transform_roundtrip(domain, seed):
    rng = np.random.default_rng(seed)
    f = random_band_limited_field(domain, domain.n, rng)
    assert (inverse(forward(f)) - f).max_abs() <= 1e-12 * f.max_abs()
    raw = rng.standard_normal((domain.n,) + domain.grid_shape)
    spec = forward(SpaceTimeField(domain, raw))
    assert spec.hermitian_defect() <= 1e-12 * spec.max_abs()


@few
@given(domain=tori, seed=seeds)
def test_helmholtz_split(domain, seed):
    # P f is a projection, and f - P f is the gradient of the recovered p
    f = random_band_limited_field(domain, domain.n, np.random.default_rng(seed))
    once = apply_helmholtz(f)
    assert (apply_helmholtz(once) - once).max_abs() <= 1e-12 * f.max_abs()
    p_spec = forward(recover_pressure(f))
    grad = np.concatenate([
        inverse(spectral_derivative(p_spec, alpha)).samples
        for alpha in np.eye(domain.n, dtype=int)
    ])
    assert np.max(np.abs(f.samples - once.samples - grad)) <= 1e-12 * f.max_abs()


@few
@given(
    domain=st.builds(
        TorusDomain, n=st.sampled_from([2, 3]), L=lengths,
        N=st.just(10), T=lengths, Nt=st.just(10),
    ),
    lam=drifts,
    q=st.floats(min_value=1.1, max_value=4.0),
    seed=seeds,
)
def test_default_report_is_finite_and_positive(domain, lam, q, seed):
    params = OseenParams(lam=lam, T=domain.T, q=q)
    _, _, f = manufactured_case("mixed", domain, params, seed=seed)
    report = solve_full(f, params).norm_report
    assert "lq_data" in report and len(report) >= 3, report
    assert all(np.isfinite(v) and v > 0.0 for v in report.values()), report


@few
@given(
    n=st.sampled_from([2, 3]),
    L=lengths,
    T=lengths,
    N=even_grid,
    Nt=even_grid,
    lam=drifts,
    seed=seeds,
)
def test_mixed_solve_invariants(n, L, T, N, Nt, lam, seed):
    domain = TorusDomain(n=n, L=L, N=N, T=T, Nt=Nt)
    params = OseenParams(lam=lam, T=T, q=2.0)
    u, p, f = manufactured_case("mixed", domain, params, seed=seed)
    bundle = solve_full(f, params, norm_kinds=[])
    assert bundle.residual_norm <= 1e-10
    assert _recovery_error(bundle, u, p) <= 1e-10
    v = bundle.v.samples
    assert np.array_equal(v, np.broadcast_to(v[..., :1], v.shape))
    w_mean = np.mean(bundle.w.samples, axis=-1)
    assert np.max(np.abs(w_mean)) <= 1e-12 * bundle.u.max_abs()
    assert transference_check(domain, params) == 0.0
