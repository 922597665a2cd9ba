"""Two-qubit state family, entanglement measures, fidelity, family fitting.

The workbench is built around a two-parameter family of polarization states
in the product basis (|HH>, |HV>, |VH>, |VV>):

    rho(p, q) = (1 - p) * rho_deph + p * |psi_q><psi_q|,
    |psi_q>   = sqrt(q) |HV> - sqrt(1 - q) |VH>,

where rho_deph = diag(0, 1/2, 1/2, 0) is the fully dephased 50/50 mixture of
|HV> and |VH> (the p -> 0 decoherence limit; any variant of this family with
a negative diagonal entry is not a physical state). p interpolates from that
mixture to the pure state |psi_q>; at q = 1/2, p = 1 the state is the singlet.

Closed forms on the family: negativity N = 2 p sqrt(q (1 - q)), log-negativity
L = log2(1 + N), concurrence C = N, and geometric discord Q = N^2 / 2; the
MEASURES table holds each as a function of N.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import matcore
from .errors import DomainError

# Measure kinds used across estimation, sweeps and reports.
NEGATIVITY = "negativity"
LOG_NEGATIVITY = "log_negativity"
CONCURRENCE = "concurrence"
QGD = "qgd"


class Measure(NamedTuple):
    """A measure as a monotone function of the negativity N on the family:
    from_n, its inverse to_n and its derivative dfrom_n, elementwise on arrays."""

    from_n: Callable
    to_n: Callable
    dfrom_n: Callable

    @property
    def range(self) -> tuple[float, float]:
        """The measure's valid range, (from_n(0), from_n(1))."""
        return self.from_n(0.0), self.from_n(1.0)


_N_SCALE = Measure(from_n=lambda n: n, to_n=lambda v: v, dfrom_n=np.ones_like)

MEASURES = {
    NEGATIVITY: _N_SCALE,
    LOG_NEGATIVITY: Measure(from_n=lambda n: np.log2(1.0 + n),
                            to_n=lambda v: 2.0 ** v - 1.0,
                            dfrom_n=lambda n: 1.0 / ((1.0 + n) * np.log(2.0))),
    CONCURRENCE: _N_SCALE,
    QGD: Measure(from_n=lambda n: 0.5 * n * n,
                 to_n=lambda v: np.sqrt(2.0 * v),
                 dfrom_n=lambda n: n),
}
MEASURE_KINDS = tuple(MEASURES)


class CheckedState(NamedTuple):
    """A density matrix validated once, with a square-root factor.

    rho is the hermitized matrix and factor any b with rho = b b^dag: the
    scaled eigenvectors V sqrt(lambda) of a validation or a projection, or
    the maximum-likelihood factor of a reconstruction. The measures, fidelity
    and family fit accept one in place of a raw matrix and then neither
    validate nor decompose it again; they read only spectra of b^dag X b,
    which are the same for every factor of rho.
    """

    rho: np.ndarray
    factor: np.ndarray

    @classmethod
    def from_factor(cls, factor: np.ndarray) -> "CheckedState":
        """The state b b^dag of a factor b with unit Frobenius norm."""
        rho = factor @ factor.conj().T
        return cls(0.5 * (rho + rho.conj().T), factor)


def check_state(rho) -> CheckedState:
    """Validate a density matrix as validate_density_matrix does, keeping its
    one eigendecomposition; a CheckedState passes through unchanged."""
    if isinstance(rho, CheckedState):
        return rho
    rho = matcore.require_hermitian(rho)
    if rho.shape != (4, 4):
        raise DomainError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > matcore.ROUND_OFF_TOL:
        raise DomainError(f"trace {tr!r} deviates from 1 beyond {matcore.ROUND_OFF_TOL:g}")
    values, vectors = np.linalg.eigh(rho)
    values = matcore.clamp_psd_spectrum(values)
    return CheckedState(rho, vectors * np.sqrt(values))


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Hermitian, unit trace and spectrum >= 0, each within
    matcore.ROUND_OFF_TOL (1e-10), the allowance for an exactly built matrix."""
    return check_state(rho).rho


def family_state(p: float, q: float) -> np.ndarray:
    """Density matrix rho(p, q); p, q must lie in [0, 1]."""
    if not (0.0 <= p <= 1.0) or not (0.0 <= q <= 1.0):
        raise DomainError(f"family parameters out of range: p={p!r}, q={q!r}")
    p, q = float(p), float(q)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = (1.0 - p) / 2.0 + p * q
    rho[2, 2] = (1.0 - p) / 2.0 + p * (1.0 - q)
    rho[1, 2] = rho[2, 1] = -p * np.sqrt(q * (1.0 - q))
    return rho


def singlet() -> np.ndarray:
    """(|HV> - |VH>)/sqrt(2) as a density matrix; equals family_state(1, 1/2)."""
    return family_state(1.0, 0.5)


def dephased_mixture() -> np.ndarray:
    """diag(0, 1/2, 1/2, 0); equals family_state(0, q) for any q."""
    return family_state(0.0, 0.5)


# --- measures ---------------------------------------------------------------

def _sqrt_spectrum(values: np.ndarray) -> np.ndarray:
    """sqrt of a PSD spectrum with round-off dust zeroed first.

    Eigenvalues below 1e-13 of the largest are numerical zeros; taking sqrt
    of such dust would amplify ~1e-17 noise to ~1e-9 absolute error.
    """
    vals = matcore.clamp_psd_spectrum(values, tol=matcore.SPECTRUM_TOL)
    top = float(np.max(vals, initial=0.0))
    vals = np.where(vals < 1e-13 * top, 0.0, vals)
    return np.sqrt(vals)


def _pt_trace_norm(state: CheckedState) -> float:
    """||rho^{T_A}||_1, the sum of |eigenvalues| of the (exactly Hermitian)
    partial transpose of a checked state."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(matcore.partial_transpose_a(state.rho)))))


def negativity(rho: np.ndarray | CheckedState) -> float:
    """N(rho) = ||rho^{T_A}||_1 - 1, clamped to [0, 1]."""
    return float(np.clip(_pt_trace_norm(check_state(rho)) - 1.0, 0.0, 1.0))


def negativity_closed(p, q: float):
    """N(p, q) = 2 p sqrt(q (1 - q)); p may be an array."""
    return 2.0 * p * np.sqrt(q * (1.0 - q))


def log_negativity(rho: np.ndarray | CheckedState) -> float:
    """L(rho) = log2 ||rho^{T_A}||_1 = log2(1 + N(rho)), in [0, 1]."""
    return float(MEASURES[LOG_NEGATIVITY].from_n(negativity(rho)))


def log_negativity_closed(p: float, q: float) -> float:
    """L(p, q) = log2(1 + N(p, q))."""
    return float(np.log2(1.0 + negativity_closed(p, q)))


def concurrence(rho: np.ndarray | CheckedState) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4).

    The l_i are the descending eigenvalues of
    R = sqrt(sqrt(rho) rho~ sqrt(rho)) with the spin-flipped
    rho~ = (sy x sy) rho* (sy x sy).
    """
    return _concurrence(check_state(rho))


_YY = np.kron(matcore.SIGMA_Y, matcore.SIGMA_Y)
_YY.setflags(write=False)


def _concurrence(state: CheckedState) -> float:
    """Concurrence of a checked state. A factor b of rho is sqrt(rho) W for
    some partial isometry W, so b^dag rho~ b = W^dag (sqrt(rho) rho~ sqrt(rho)) W
    has the same nonzero spectrum, and the l_i are its square roots. A factor
    with r < 4 columns gives r of them; the other 4 - r are zero."""
    b = state.factor
    inner = b.conj().T @ (_YY @ state.rho.conj() @ _YY) @ b
    lam = _sqrt_spectrum(np.linalg.eigvalsh(inner))  # ascending
    lam = np.concatenate([np.zeros(4 - lam.size), lam])
    return float(np.clip(lam[3] - lam[2] - lam[1] - lam[0], 0.0, 1.0))


def concurrence_closed(p: float, q: float) -> float:
    """On this family the concurrence coincides with the negativity."""
    return negativity_closed(p, q)


def qgd(rho: np.ndarray | CheckedState) -> float:
    """Geometric discord via the family relation Q = N^2 / 2.

    Valid on (and near) the state family this package studies; it is not a
    general-state geometric-discord formula.
    """
    return float(MEASURES[QGD].from_n(negativity(rho)))


def qgd_closed(p: float, q: float) -> float:
    """Q(p, q) = N(p, q)^2 / 2."""
    n = negativity_closed(p, q)
    return float(0.5 * n * n)


def measures(rho: np.ndarray | CheckedState) -> dict[str, float]:
    """All four measure values of a state, from one validation and one
    partial-transpose trace norm: each reads from_n of the negativity, except
    the concurrence, which is the state's own Wootters value."""
    state = check_state(rho)
    n = negativity(state)
    values = {kind: float(row.from_n(n)) for kind, row in MEASURES.items()}
    values[CONCURRENCE] = _concurrence(state)
    return values


def fidelity(rho_a: np.ndarray | CheckedState, rho_b: np.ndarray | CheckedState) -> float:
    """Uhlmann fidelity F = Tr sqrt(sqrt(a) b sqrt(a)), clamped to [0, 1].

    A factor b_a of a is sqrt(a) W for some partial isometry W, so
    b_a^dag b b_a and sqrt(a) b sqrt(a) share their nonzero spectrum, and F
    is the sum of the square roots of the spectrum of b_a^dag b b_a.
    """
    a = check_state(rho_a)
    b = check_state(rho_b)
    inner = a.factor.conj().T @ b.rho @ a.factor
    return float(np.clip(np.sum(_sqrt_spectrum(np.linalg.eigvalsh(inner))), 0.0, 1.0))


# --- family fitting -----------------------------------------------------------

class FamilyFit(NamedTuple):
    """Least-squares projection of a state onto the family.

    residual is the Frobenius distance at the optimum. degenerate means p ~ 0
    where q is unidentifiable (q is reported as 1/2). out_of_family flags a
    residual above 0.05.
    """

    p: float
    q: float
    residual: float
    degenerate: bool = False
    out_of_family: bool = False


DEGENERATE_P = 0.01
OUT_OF_FAMILY_RESIDUAL = 0.05


def _fit_terms(rho: np.ndarray) -> tuple[float, float, complex, float]:
    """(d1, d2, c, K): middle-block data and the constant off-family mass."""
    d1 = rho[1, 1].real
    d2 = rho[2, 2].real
    c = complex(rho[1, 2])
    mask = np.ones((4, 4), dtype=bool)
    mask[1, 1] = mask[2, 2] = mask[1, 2] = mask[2, 1] = False
    k = float(np.sum(np.abs(rho[mask]) ** 2))
    return d1, d2, c, k


def fit_family_params(rho: np.ndarray | CheckedState) -> FamilyFit:
    """Project a density matrix onto the family by least squares, in closed form.

    With x = p (2q - 1) and y = 2 p sqrt(q (1 - q)), the squared Frobenius
    distance to rho(p, q) is 1/2 ||(x, y) - (d1 - d2, -2 Re c)||^2 plus a
    constant, and (p, q) in [0, 1]^2 maps onto the upper half unit disk. The
    optimum is therefore the Euclidean projection of that target onto the half
    disk: a point below the axis drops onto the diameter, a point outside the
    circle is scaled onto the arc. Then p = r = ||(x, y)|| and
    q = (1 + x / r) / 2.

    The residual is taken in the (x, y) plane, where the squared distance is
    1/2 ||(x, y) - target||^2 + 1/2 (d1 + d2 - 1)^2 + 2 (Im c)^2 + K; going
    back through sqrt(q) would turn the round-off in q into ~1e-11 near
    q = 0 and 1.
    """
    d1, d2, c, k = _fit_terms(check_state(rho).rho)

    x_t, y_t = d1 - d2, -2.0 * c.real
    x, y = (float(np.clip(x_t, -1.0, 1.0)), 0.0) if y_t < 0.0 else (x_t, y_t)
    r = float(np.hypot(x, y))
    if r > 1.0:
        x, y, r = x / r, y / r, 1.0
    p_hat = r
    q_hat = float(np.clip(0.5 * (1.0 + x / r), 0.0, 1.0)) if r > 0.0 else 0.5

    residual = math.sqrt(max(0.0, 0.5 * ((x - x_t) ** 2 + (y - y_t) ** 2)
                                  + 0.5 * (d1 + d2 - 1.0) ** 2 + 2.0 * c.imag ** 2 + k))
    degenerate = p_hat < DEGENERATE_P
    if degenerate:
        q_hat = 0.5
    return FamilyFit(
        p=p_hat,
        q=q_hat,
        residual=residual,
        degenerate=degenerate,
        out_of_family=residual > OUT_OF_FAMILY_RESIDUAL,
    )
