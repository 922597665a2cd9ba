"""Property tests over randomly drawn inputs (Hypothesis, derandomized)."""
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qmet import estimation, harness, measurement, states, tomography
from qmet.errors import DomainError
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
    rho_hat = rec.state.rho
    np.testing.assert_allclose(rho_hat, rho_hat.conj().T, rtol=0.0, atol=1e-12)
    assert abs(np.trace(rho_hat).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho_hat).min() > -1e-12
    assert rec.log_likelihood >= tomography.reconstruct_linear(ds).log_likelihood - 1e-9


@settings(max_examples=100, derandomize=True, deadline=None)
@given(p=unit, q=unit, n_per_setting=st.integers(min_value=20, max_value=10**5),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_converged_mle_meets_the_kkt_condition(p, q, n_per_setting, seed):
    # the maximum of the likelihood over states satisfies R / N <= I
    ds = tomography.simulate_tomography(states.family_state(p, q), n_per_setting,
                                        RandomStream(seed))
    rec = tomography.reconstruct_mle(ds)
    assert rec.converged
    counts = ds.counts.ravel()
    rows = measurement.PROJECTORS.reshape(36, 16)  # row x is vec(P_x)
    probs = np.maximum((rows.conj() @ rec.state.rho.ravel()).real, tomography.PROB_FLOOR)
    r = ((counts / probs) @ rows).reshape(4, 4)
    assert np.linalg.eigvalsh(r / counts.sum())[-1] <= 1.0 + tomography.KKT_TOL


@settings(max_examples=200, derandomize=True, deadline=None)
@given(p=st.floats(min_value=states.DEGENERATE_P + 1e-12, max_value=1.0), q=unit)
def test_fit_inverts_family_state(p, q):
    # p is read back to ~1e-16, so a p within that of DEGENERATE_P may fall
    # on either side of the threshold
    fit = states.fit_family_params(states.family_state(p, q))
    assert abs(fit.p - p) <= 1e-12
    assert abs(fit.q - q) <= 1e-12
    assert fit.residual <= 1e-12
    assert not fit.degenerate and not fit.out_of_family


@settings(max_examples=100, derandomize=True, deadline=None)
@given(p=unit, q=unit, n=st.integers(min_value=1, max_value=10**9),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_simulate_is_nine_sequential_draws(p, q, n, seed):
    rho = states.family_state(p, q)
    stream = RandomStream(seed, 5)
    ds = tomography.simulate_tomography(rho, n, stream)
    reference = RandomStream(seed, 5)
    rows = [measurement.sample_counts(rho, s, n, reference).as_array()
            for s in measurement.SETTINGS]
    np.testing.assert_array_equal(ds.counts, np.array(rows))
    assert stream.random(2).tolist() == reference.random(2).tolist()


@settings(max_examples=20, derandomize=True, deadline=None)
@given(n=st.integers(min_value=-10**9, max_value=0))
def test_simulate_rejects_fewer_than_one_shot(n):
    with pytest.raises(DomainError):
        tomography.simulate_tomography(states.singlet(), n, RandomStream(1))


# --- the measure table and the quantum bound ---------------------------------

kinds = st.sampled_from(states.MEASURE_KINDS)
negativities = st.lists(unit, min_size=1, max_size=20).map(np.array)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(kind=kinds, q=st.floats(min_value=0.05, max_value=0.95),
       frac=st.floats(min_value=0.0, max_value=1.0))
def test_closed_qcrb_is_inverse_qfi_and_bounds_da_cfi(kind, q, frac):
    row = states.MEASURES[kind]
    theta = float(row.from_n(frac * states.negativity_closed(1.0, q)))
    povm = measurement.setting_projectors(measurement.DA_DA)
    report = estimation.qfi_numeric(estimation.measure_path(kind, q), theta, povm=povm)
    assert estimation.qcrb_curves(kind, theta, q) == pytest.approx(
        1.0 / report.qfi, rel=1e-12)
    assert report.cfi <= report.qfi + 1e-6


@settings(max_examples=50, derandomize=True, deadline=None)
@given(kind=kinds, n=negativities)
def test_measure_table_rows_are_consistent(kind, n):
    row = states.MEASURES[kind]
    np.testing.assert_allclose(row.to_n(row.from_n(n)), n, rtol=1e-12, atol=1e-15)
    h = 1e-6
    central = (row.from_n(n + h) - row.from_n(n - h)) / (2.0 * h)
    np.testing.assert_allclose(row.dfrom_n(n), central, rtol=1e-7, atol=1e-9)


# --- the sweep's estimate table ----------------------------------------------

# (..., 4) count records, zeros common so that one-outcome records and n = 1
# appear; an empty record gets one ++ shot
count_arrays = hnp.arrays(
    np.int64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5).map(lambda s: s + (4,)),
    elements=st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 10**12)),
).map(lambda c: c + ((c.sum(axis=-1, keepdims=True) == 0) & (np.arange(4) == 0)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(counts=count_arrays)
@example(counts=np.eye(4, dtype=np.int64))  # n = 1, each outcome alone
@example(counts=np.array([[7, 0, 0, 0], [0, 0, 0, 10**9], [3, 0, 0, 3]]))
@example(counts=np.array([1, 0, 0, 0]))
def test_estimate_table_is_the_six_clipped_estimators_and_stays_in_range(counts):
    table = harness._estimate_table(estimation.n_estimates(counts))
    assert table.shape == (6,) + counts.shape[:-1]
    for row, (kind, variant) in zip(table, harness._ESTIMATORS):
        raw, _ = estimation.estimator_values(kind, variant, counts)
        expected = np.asarray(estimation.clip_to_range(kind, raw))
        assert row.shape == expected.shape and row.tobytes() == expected.tobytes()
        lo, hi = states.MEASURES[kind].range
        assert np.all((lo <= row) & (row <= hi))


def test_measure_ranges():
    assert {kind: states.MEASURES[kind].range for kind in states.MEASURE_KINDS} == {
        states.NEGATIVITY: (0.0, 1.0),
        states.LOG_NEGATIVITY: (0.0, 1.0),
        states.CONCURRENCE: (0.0, 1.0),
        states.QGD: (0.0, 0.5),
    }
