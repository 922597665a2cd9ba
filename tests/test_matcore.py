import numpy as np
import pytest

from qmet import matcore
from qmet.errors import DomainError

RNG = np.random.default_rng(90321)


def random_hermitian(n=4):
    g = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_density(n=4):
    g = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(n=4):
    g = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def singlet():
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


# --- hermitian_eig: oracle route is numpy.linalg.eigh ---------------------

@pytest.mark.parametrize("trial", range(20))
def test_hermitian_eig_matches_lapack_oracle(trial):
    a = random_hermitian()
    values, _ = matcore.hermitian_eig(a)
    oracle = np.linalg.eigvalsh(a)
    assert np.allclose(values, oracle, atol=1e-10)


@pytest.mark.parametrize("trial", range(10))
def test_hermitian_eig_reconstructs_input(trial):
    a = random_hermitian()
    values, vectors = matcore.hermitian_eig(a)
    recon = (vectors * values) @ vectors.conj().T
    assert np.linalg.norm(recon - a) <= 1e-10
    # orthonormal eigenvector columns
    gram = vectors.conj().T @ vectors
    assert np.linalg.norm(gram - np.eye(4)) <= 1e-12


def test_hermitian_eig_ascending_and_2x2():
    a = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -1.0]])
    values, _ = matcore.hermitian_eig(a)
    # closed form: +-sqrt(1 + |2-i|^2) = +-sqrt(6)
    assert np.allclose(values, [-np.sqrt(6.0), np.sqrt(6.0)], atol=1e-12)


def test_hermitian_eig_diagonal_passthrough():
    values, _ = matcore.hermitian_eig(np.diag([3.0, -1.0, 2.0, 0.0]))
    assert np.allclose(values, [-1.0, 0.0, 2.0, 3.0])


def test_hermitian_eig_degenerate_spectrum():
    u = random_unitary()
    a = u @ np.diag([0.5, 0.5, 0.25, 0.25]) @ u.conj().T
    values, _ = matcore.hermitian_eig(a)
    assert np.allclose(values, [0.25, 0.25, 0.5, 0.5], atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    a = np.eye(4, dtype=complex)
    a[0, 1] = 1e-6
    with pytest.raises(DomainError):
        matcore.hermitian_eig(a)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
def test_require_square_rejects_non_finite_entries(value):
    # a NaN deviation passes every "> tol" check
    a = np.eye(4, dtype=complex)
    a[2, 2] = value
    with pytest.raises(DomainError):
        matcore.require_square(a)
    with pytest.raises(DomainError):
        matcore.hermitian_eig(a)


# --- trace norm: oracle route is numpy.linalg.svd -------------------------

@pytest.mark.parametrize("trial", range(10))
def test_trace_norm_matches_svd_oracle(trial):
    a = random_hermitian()
    assert abs(matcore.trace_norm(a) - np.sum(np.linalg.svd(a, compute_uv=False))) <= 1e-9


def test_trace_norm_general_matrix():
    g = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
    assert abs(matcore.trace_norm(g) - np.sum(np.linalg.svd(g, compute_uv=False))) <= 1e-8


@pytest.mark.parametrize("trial", range(10))
def test_trace_norm_unitary_invariance(trial):
    a = random_hermitian()
    u = random_unitary()
    assert abs(matcore.trace_norm(u @ a @ u.conj().T) - matcore.trace_norm(a)) <= 1e-9


def test_trace_norm_density_matrix_is_one():
    assert abs(matcore.trace_norm(random_density()) - 1.0) <= 1e-10


# --- partial transpose -----------------------------------------------------

def pt_oracle(rho):
    out = np.empty_like(rho)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    out[2 * a + b, 2 * c + d] = rho[2 * c + b, 2 * a + d]
    return out


@pytest.mark.parametrize("trial", range(10))
def test_partial_transpose_matches_index_oracle(trial):
    rho = random_density()
    assert np.array_equal(matcore.partial_transpose_a(rho), pt_oracle(rho))


def test_partial_transpose_involution_and_trace():
    rho = random_density()
    pt = matcore.partial_transpose_a(rho)
    assert np.allclose(matcore.partial_transpose_a(pt), rho)
    assert abs(np.trace(pt) - 1.0) <= 1e-12
    assert np.linalg.norm(pt - pt.conj().T) <= 1e-12


def test_partial_transpose_singlet_frozen():
    # frozen: corners -1/2 appear, coherences vanish, diagonal untouched
    pt = matcore.partial_transpose_a(singlet())
    expected = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
    expected[0, 3] = expected[3, 0] = -0.5
    assert np.allclose(pt, expected, atol=1e-15)
    # frozen eigenvalues (-1/2, 1/2, 1/2, 1/2); trace norm 2
    assert np.allclose(matcore.hermitian_eig(pt)[0], [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert abs(matcore.trace_norm(pt) - 2.0) <= 1e-12


def test_partial_transpose_rejects_wrong_shape():
    with pytest.raises(DomainError):
        matcore.partial_transpose_a(np.eye(2))


# --- psd_sqrt ---------------------------------------------------------------

@pytest.mark.parametrize("trial", range(10))
def test_psd_sqrt_squares_back(trial):
    rho = random_density()
    s = matcore.psd_sqrt(rho)
    assert np.linalg.norm(s @ s - rho) <= 1e-9
    assert np.linalg.norm(s - s.conj().T) <= 1e-12
    assert np.min(matcore.hermitian_eig(s)[0]) >= -1e-12


def test_psd_sqrt_rank_deficient():
    s = matcore.psd_sqrt(singlet())
    assert np.linalg.norm(s - singlet()) <= 1e-10  # sqrt of rank-1 projector


def test_psd_sqrt_clamps_tiny_negative():
    rho = random_density()
    s = matcore.psd_sqrt(rho - 5e-11 * np.eye(4))
    assert np.linalg.norm(s @ s - rho) <= 1e-8


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(DomainError):
        matcore.psd_sqrt(np.diag([1.0, 1.0, 1.0, -1e-3]))

