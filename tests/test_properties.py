"""Property-based checks of the full solve across the parameter space.

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
    TorusDomain,
    manufactured_case,
    solve_full,
    transference_check,
)
from tpoe.analysis import _recovery_error  # noqa: E402

even_grid = st.sampled_from([10, 12, 14, 16])
lengths = st.floats(min_value=0.5, max_value=20.0)


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    L=lengths,
    T=lengths,
    N=even_grid,
    Nt=even_grid,
    lam=st.one_of(st.just(0.0), st.floats(min_value=-10.0, max_value=10.0)),
    seed=st.integers(min_value=0, max_value=2**16),
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
