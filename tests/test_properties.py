"""Property tests over randomly drawn inputs (Hypothesis, derandomized)."""
import numpy as np
from hypothesis import given, settings, strategies as st

from qmet import states, tomography
from qmet.streams import RandomStream

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(p=unit, q=unit, n_per_setting=st.integers(min_value=20, max_value=10**5),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_mle_is_physical_and_dominates_linear_inversion(p, q, n_per_setting, seed):
    rho = states.family_state(p, q)
    ds = tomography.simulate_tomography(rho, n_per_setting, RandomStream(seed))
    rec = tomography.reconstruct_mle(ds)
    assert rec.converged
    rho_hat = rec.rho_hat
    np.testing.assert_allclose(rho_hat, rho_hat.conj().T, rtol=0.0, atol=1e-12)
    assert abs(np.trace(rho_hat).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho_hat).min() > -1e-12
    assert rec.log_likelihood >= tomography.reconstruct_linear(ds).log_likelihood - 1e-9
