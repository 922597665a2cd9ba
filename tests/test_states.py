import numpy as np
import pytest
import scipy.linalg

from qmet import matcore, states, tomography
from qmet.errors import DomainError
from qmet.streams import RandomStream

RNG = np.random.default_rng(41507)


def random_density():
    g = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure():
    v = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


# --- family construction ------------------------------------------------------

def test_family_state_midpoint_frozen():
    rho = states.family_state(0.5, 0.5)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 1] = expected[2, 2] = 0.5
    expected[1, 2] = expected[2, 1] = -0.25
    assert np.allclose(rho, expected, atol=1e-15)


def test_family_state_singlet_and_mixture():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    assert np.allclose(states.singlet(), np.outer(psi, psi), atol=1e-15)
    assert np.allclose(states.dephased_mixture(), np.diag([0.0, 0.5, 0.5, 0.0]), atol=1e-15)


def test_family_state_pure_component():
    # q weights |HV> by sqrt(q), |VH> by -sqrt(1-q)
    rho = states.family_state(1.0, 0.2)
    psi = np.array([0.0, np.sqrt(0.2), -np.sqrt(0.8), 0.0])
    assert np.allclose(rho, np.outer(psi, psi), atol=1e-15)


@pytest.mark.parametrize("p,q", [(0.3, 0.7), (1.0, 0.0), (0.0, 1.0), (0.9, 0.5)])
def test_family_state_is_valid_density(p, q):
    rho = states.family_state(p, q)
    states.validate_density_matrix(rho)
    assert abs(np.trace(rho).real - 1.0) <= 1e-15


@pytest.mark.parametrize("p,q", [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.01), (0.5, 2.0)])
def test_family_state_rejects_out_of_range(p, q):
    with pytest.raises(DomainError):
        states.family_state(p, q)


def test_validate_density_matrix_rejects_bad_inputs():
    with pytest.raises(DomainError):
        states.validate_density_matrix(np.diag([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(DomainError):
        states.validate_density_matrix(np.diag([0.5, 0.5, 0.5, 0.5]) * 1.2)


def test_validate_density_matrix_rejects_non_finite_entries():
    # a NaN diagonal entry passes the hermiticity, trace and spectrum checks,
    # and an all-NaN matrix reached LAPACK
    with pytest.raises(DomainError):
        states.validate_density_matrix(np.diag([np.nan, 0.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        states.validate_density_matrix(np.full((4, 4), np.nan))


# --- measures vs closed forms ---------------------------------------------------

def test_negativity_frozen_points():
    assert abs(states.negativity(states.singlet()) - 1.0) <= 1e-12
    assert abs(states.negativity(states.dephased_mixture())) <= 1e-12
    assert abs(states.negativity(states.family_state(1.0, 0.2)) - 0.8) <= 1e-12
    assert abs(states.negativity_closed(1.0, 0.2) - 0.8) <= 1e-15


def test_log_negativity_frozen_point():
    # log2(1.5) at (p, q) = (0.5, 0.5)
    assert abs(states.log_negativity(states.family_state(0.5, 0.5))
               - 0.5849625007211562) <= 1e-12


def test_concurrence_frozen_point():
    # 2 * 0.6 * sqrt(0.21)
    assert abs(states.concurrence(states.family_state(0.6, 0.3))
               - 0.5499090833947009) <= 1e-10


def test_qgd_frozen_point():
    assert abs(states.qgd(states.family_state(0.5, 0.5)) - 0.125) <= 1e-12
    assert abs(states.qgd_closed(0.5, 0.5) - 0.125) <= 1e-15


def test_closed_forms_match_definitions_on_grid():
    ps = np.linspace(0.0, 1.0, 9)
    qs = np.linspace(0.0, 1.0, 9)
    for p in ps:
        for q in qs:
            rho = states.family_state(p, q)
            assert abs(states.negativity(rho) - states.negativity_closed(p, q)) <= 1e-9
            assert abs(states.log_negativity(rho) - states.log_negativity_closed(p, q)) <= 1e-9
            assert abs(states.concurrence(rho) - states.concurrence_closed(p, q)) <= 1e-9


def test_concurrence_equals_negativity_off_family_is_not_assumed():
    # general two-qubit states: both are valid measures but differ; just check ranges
    for _ in range(5):
        rho = random_density()
        c = states.concurrence(rho)
        n = states.negativity(rho)
        assert 0.0 <= c <= 1.0
        assert 0.0 <= n <= 1.0


def test_concurrence_against_scipy_oracle():
    # independent route: fractional_matrix_power for sqrt(rho)
    yy = np.kron(matcore.SIGMA_Y, matcore.SIGMA_Y)
    for _ in range(5):
        rho = random_density()
        flipped = yy @ rho.conj() @ yy
        root = scipy.linalg.fractional_matrix_power(rho, 0.5)
        lam = np.sqrt(np.clip(np.linalg.eigvalsh(root @ flipped @ root).real, 0.0, None))
        lam = np.sort(lam)[::-1]
        oracle = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        assert abs(states.concurrence(rho) - oracle) <= 1e-8


def _measure_inputs():
    family = [states.family_state(p, q)
              for p, q in ((0.0, 0.5), (0.6, 0.3), (1.0, 0.5), (0.25, 0.9))]
    reference = [states.singlet(), states.dephased_mixture(), random_density(),
                 random_pure()]
    noisy = [_noisy_reconstruction(states.family_state(p, 0.5), 2000,
                                   RandomStream(seed, 3))
             for p, seed in ((0.6, 1), (0.0, 2), (1.0, 3))]
    return family + reference + noisy


def test_measures_equal_the_single_measure_functions_bitwise():
    for rho in _measure_inputs():
        single = {
            states.NEGATIVITY: states.negativity(rho),
            states.LOG_NEGATIVITY: states.log_negativity(rho),
            states.CONCURRENCE: states.concurrence(rho),
            states.QGD: states.qgd(rho),
        }
        assert ({k: v.hex() for k, v in states.measures(rho).items()}
                == {k: v.hex() for k, v in single.items()})


def test_measures_validates_once_and_shares_the_trace_norm(eigensolves):
    for rho in _measure_inputs():
        eigensolves.clear()
        states.measures(rho)
        assert 0 < len(eigensolves) <= 5


# --- fidelity ---------------------------------------------------------------------

def test_fidelity_frozen_singlet_vs_mixture():
    f = states.fidelity(states.singlet(), states.dephased_mixture())
    assert abs(f - np.sqrt(0.5)) <= 1e-12


def test_fidelity_self_is_one_and_symmetric():
    for _ in range(5):
        a, b = random_density(), random_density()
        assert abs(states.fidelity(a, a) - 1.0) <= 1e-9
        assert abs(states.fidelity(a, b) - states.fidelity(b, a)) <= 1e-9


def test_fidelity_distinct_states_below_one():
    for _ in range(5):
        a, b = random_density(), random_density()
        if np.linalg.norm(a - b) > 1e-3:
            assert states.fidelity(a, b) < 1.0 - 1e-6


def test_fidelity_orthogonal_pure_states_is_zero():
    triplet = np.zeros((4, 4), dtype=complex)
    triplet[1, 1] = triplet[2, 2] = triplet[1, 2] = triplet[2, 1] = 0.5
    assert states.fidelity(states.singlet(), triplet) <= 1e-9


def test_fidelity_pure_state_oracle():
    # F(|psi>, rho) = sqrt(<psi|rho|psi>)
    for _ in range(5):
        pure = random_pure()
        rho = random_density()
        psi_idx = np.argmax(np.diag(pure).real)
        # recover the ket from the projector column
        col = pure[:, psi_idx] / np.sqrt(pure[psi_idx, psi_idx].real)
        oracle = np.sqrt((col.conj() @ rho @ col).real)
        assert abs(states.fidelity(pure, rho) - oracle) <= 1e-8


def test_fidelity_against_scipy_oracle():
    for _ in range(5):
        a, b = random_density(), random_density()
        ra = scipy.linalg.fractional_matrix_power(a, 0.5)
        inner = scipy.linalg.fractional_matrix_power(ra @ b @ ra, 0.5)
        oracle = np.trace(inner).real
        assert abs(states.fidelity(a, b) - oracle) <= 1e-8


# --- factor formulas against the psd_sqrt routes ---------------------------------------

def psd_sqrt_fidelity(a, b):
    """Reference: Tr sqrt(sqrt(a) b sqrt(a)) through the Hermitian square root."""
    root = matcore.psd_sqrt(states.validate_density_matrix(a))
    inner = root @ states.validate_density_matrix(b) @ root
    return float(np.clip(np.sum(states._sqrt_spectrum(matcore.hermitian_eig(inner)[0])),
                         0.0, 1.0))


def psd_sqrt_concurrence(rho):
    """Reference: the l_i as the square roots of the spectrum of sqrt(rho) rho~ sqrt(rho)."""
    rho = states.validate_density_matrix(rho)
    yy = np.kron(matcore.SIGMA_Y, matcore.SIGMA_Y)
    root = matcore.psd_sqrt(rho)
    inner = root @ (yy @ rho.conj() @ yy) @ root
    lam = np.sort(states._sqrt_spectrum(matcore.hermitian_eig(inner)[0]))[::-1]
    return float(np.clip(lam[0] - lam[1] - lam[2] - lam[3], 0.0, 1.0))


def random_rank_two():
    vs = RNG.standard_normal((4, 2)) + 1j * RNG.standard_normal((4, 2))
    rho = vs @ vs.conj().T
    return rho / np.trace(rho).real


def _oracle_inputs():
    family = [states.family_state(p, q)
              for p, q in ((0.3, 0.5), (0.6, 0.3), (0.9, 0.8), (1.0, 0.2))]
    random_states = [random_rank_two() for _ in range(3)] + [random_density() for _ in range(3)]
    noisy = [_noisy_reconstruction(states.family_state(p, q), 1000, RandomStream(seed, 7))
             for p, q, seed in ((0.6, 0.5, 1), (1.0, 0.5, 2), (0.0, 0.5, 3), (0.8, 0.3, 4))]
    return [states.singlet(), states.dephased_mixture()] + family + random_states + noisy


def test_factor_formulas_match_the_psd_sqrt_routes():
    inputs = _oracle_inputs()
    for rho in inputs:
        assert abs(states.concurrence(rho) - psd_sqrt_concurrence(rho)) <= 1e-12
        assert abs(states.fidelity(rho, rho) - 1.0) <= 1e-12
        for sigma in inputs:
            f = states.fidelity(rho, sigma)
            assert abs(f - psd_sqrt_fidelity(rho, sigma)) <= 1e-12
            assert abs(f - states.fidelity(sigma, rho)) <= 1e-12


def test_checked_state_is_validated_once_and_reused():
    rho = states.family_state(0.6, 0.3)
    state = states.check_state(rho)
    assert states.check_state(state) is state
    np.testing.assert_allclose(state.factor @ state.factor.conj().T, rho, rtol=0.0, atol=1e-15)
    assert states.measures(state) == states.measures(rho)
    assert states.fidelity(state, rho) == states.fidelity(rho, rho)
    assert states.fit_family_params(state) == states.fit_family_params(rho)
    with pytest.raises(DomainError):
        states.check_state(np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex))


def _low_rank_states():
    rng = np.random.default_rng(9203)
    vs = rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2))
    rank_one = [states.singlet(), states.family_state(1.0, 0.3),
                np.outer(vs[0, :, 0], vs[0, :, 0].conj()) / np.vdot(vs[0, :, 0], vs[0, :, 0]).real]
    rank_two = [states.dephased_mixture(), states.family_state(0.6, 0.3),
                vs[1] @ vs[1].conj().T / np.vdot(vs[1], vs[1]).real]
    return [(rho, 1) for rho in rank_one] + [(rho, 2) for rho in rank_two]


@pytest.mark.parametrize("rho,rank", _low_rank_states(),
                         ids=["singlet", "pure-0.3", "random-pure",
                              "dephased", "family-0.6-0.3", "random-rank-two"])
def test_thin_factor_gives_the_full_factor_values(rho, rank):
    # a CheckedState holds any b with rho = b b^dag, including a 4 x rank one:
    # the top eigenvectors, or those mixed by a unitary
    full = states.check_state(rho)
    top = full.factor[:, 4 - rank:]
    unitary = np.linalg.qr(np.arange(1.0, rank * rank + 1).reshape(rank, rank)
                           + 1j * np.eye(rank))[0]
    references = (states.singlet(), states.family_state(0.6, 0.3), states.family_state(0.9, 0.8))
    for factor in (top, top @ unitary):
        thin = states.CheckedState.from_factor(factor)
        np.testing.assert_allclose(thin.rho, full.rho, rtol=0.0, atol=1e-12)
        for kind, value in states.measures(full).items():
            assert states.measures(thin)[kind] == pytest.approx(value, rel=0.0, abs=1e-12)
        fit, ref = states.fit_family_params(thin), states.fit_family_params(full)
        assert (fit.p, fit.q, fit.residual) == pytest.approx((ref.p, ref.q, ref.residual),
                                                             rel=0.0, abs=1e-12)
        for sigma in references:
            assert states.fidelity(thin, sigma) == pytest.approx(
                states.fidelity(full, sigma), rel=0.0, abs=1e-12)
            assert states.fidelity(sigma, thin) == pytest.approx(
                states.fidelity(sigma, full), rel=0.0, abs=1e-12)


# --- family fitting ------------------------------------------------------------------

def test_fit_round_trips_on_grid():
    for p in np.linspace(0.05, 1.0, 20):
        for q in np.linspace(0.0, 1.0, 21):
            fit = states.fit_family_params(states.family_state(p, q))
            assert abs(fit.p - p) <= 1e-9, (p, q, fit)
            assert abs(fit.q - q) <= 1e-9, (p, q, fit)
            assert fit.residual <= 1e-9
            assert not fit.out_of_family
            assert not fit.degenerate


def _grid_min_residual(rho, n=401):
    """Brute-force oracle: min ||rho - rho(p, q)||_F over an n x n (p, q) grid,
    with rho(p, q) built from the family definition."""
    grid = np.linspace(0.0, 1.0, n)
    deph = np.diag([0.0, 0.5, 0.5, 0.0])
    best = np.inf
    for q in grid:
        psi = np.array([0.0, np.sqrt(q), -np.sqrt(1.0 - q), 0.0])
        fam = ((1.0 - grid)[:, None, None] * deph
               + grid[:, None, None] * np.outer(psi, psi))
        best = min(best, np.sqrt(np.sum(np.abs(rho - fam) ** 2, axis=(1, 2))).min())
    return best


def _noisy_reconstruction(rho, n, stream):
    ds = tomography.simulate_tomography(rho, n, stream)
    return tomography.project_physical(tomography.reconstruct_mle(ds).state.rho)


def test_fit_reaches_least_squares_optimum_near_p_zero():
    # a grid-and-descent fit stopped at p = 0 here (residual 0.009418)
    rho = _noisy_reconstruction(states.dephased_mixture(), 10_000, RandomStream(3, 66))
    fit = states.fit_family_params(rho)
    assert fit.residual <= _grid_min_residual(rho) + 1e-10
    assert fit.residual < 0.0088
    assert fit.degenerate and fit.q == 0.5


@pytest.mark.parametrize("p,q,seed", [
    (0.0, 0.5, 1), (0.05, 0.3, 2), (0.6, 0.5, 3), (0.9, 0.85, 4), (1.0, 0.5, 5)])
def test_fit_residual_no_worse_than_grid_on_noisy_states(p, q, seed):
    rho = _noisy_reconstruction(states.family_state(p, q), 2000, RandomStream(seed, 7))
    fit = states.fit_family_params(rho)
    assert fit.residual <= _grid_min_residual(rho) + 1e-10


def test_fit_residual_no_worse_than_grid_off_family():
    for rho in (np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex),
                random_density(), random_pure()):
        fit = states.fit_family_params(rho)
        assert fit.residual <= _grid_min_residual(rho) + 1e-10


def test_fit_degenerate_mixture():
    fit = states.fit_family_params(states.family_state(0.0, 0.3))
    assert fit.degenerate
    assert fit.p <= 1e-9
    assert fit.q == 0.5
    assert fit.residual <= 1e-12


def test_fit_white_noise_example():
    rho = 0.99 * states.family_state(0.8, 0.5) + 0.01 * np.eye(4) / 4.0
    fit = states.fit_family_params(rho)
    assert abs(fit.p - 0.8) <= 0.03
    assert abs(fit.q - 0.5) <= 0.02
    assert not fit.out_of_family


def test_fit_flags_out_of_family_state():
    rho = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
    fit = states.fit_family_params(rho)
    assert fit.out_of_family
    assert fit.residual > 0.05


def test_fit_rejects_invalid_input():
    with pytest.raises(DomainError):
        states.fit_family_params(np.eye(4, dtype=complex))
