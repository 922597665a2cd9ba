"""Dense complex linear algebra for 4x4 (two-qubit) problems.

Everything downstream (partial transpose, matrix square roots, fidelities,
Fisher information) reduces to Hermitian eigenproblems of tiny matrices. The
package checks hermiticity itself and then hands the hermitized matrix to
LAPACK through ``np.linalg.eigh``, whose (values, vectors) pair it returns as
is. Two round-off allowances serve the whole package: ROUND_OFF_TOL for a
matrix or probability that is given or built exactly, SPECTRUM_TOL for spectra
and estimates computed from products of matrices.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError

# Pauli-Y in the sign convention used throughout this package.
SIGMA_Y = np.array([[0.0, 1.0j], [-1.0j, 0.0]])

ROUND_OFF_TOL = 1e-10
SPECTRUM_TOL = 1e-8


def require_square(a: np.ndarray) -> np.ndarray:
    """a as a complex square matrix with finite entries."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix has non-finite entries")
    return a


def require_hermitian(a: np.ndarray, tol: float = ROUND_OFF_TOL) -> np.ndarray:
    """Check ||A - A^dag||_F <= tol and return the hermitized (A + A^dag)/2."""
    a = require_square(a)
    dev = np.linalg.norm(a - a.conj().T)
    if dev > tol:
        raise DomainError(f"matrix is not Hermitian within {tol:g} (deviation {dev:.3e})")
    return 0.5 * (a + a.conj().T)


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a checked Hermitian matrix: real eigenvalues in
    ascending order and orthonormal eigenvector columns."""
    return np.linalg.eigh(require_hermitian(a))


def clamp_psd_spectrum(values: np.ndarray, tol: float = ROUND_OFF_TOL) -> np.ndarray:
    """Zero out round-off negatives in [-tol, 0); anything below -tol is a real error."""
    values = np.asarray(values, dtype=float)
    if np.min(values) < -tol:
        raise DomainError(f"spectrum has eigenvalue {np.min(values):.3e} below -{tol:g}")
    return np.where(values < 0.0, 0.0, values)


def trace_norm(a: np.ndarray) -> float:
    """Trace norm ||A||_1, the sum of singular values (NumPy's nuclear norm)."""
    return float(np.linalg.norm(require_square(a), "nuc"))


def partial_transpose_a(rho: np.ndarray) -> np.ndarray:
    """Transpose the first-qubit indices of a 4x4 two-qubit operator.

    Index convention: row (a,b), column (c,d) with a,c the first qubit;
    output[(a,b),(c,d)] = input[(c,b),(a,d)].
    """
    rho = require_square(rho)
    if rho.shape != (4, 4):
        raise DomainError(f"partial transpose expects a 4x4 matrix, got {rho.shape}")
    return rho.reshape(2, 2, 2, 2).transpose(2, 1, 0, 3).reshape(4, 4).copy()


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian square root S of a PSD matrix A, with S @ S ~ A to 1e-9."""
    values, vectors = hermitian_eig(a)
    s = (vectors * np.sqrt(clamp_psd_spectrum(values))) @ vectors.conj().T
    return 0.5 * (s + s.conj().T)
