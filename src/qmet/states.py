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

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import matcore
from .errors import DomainError

DENSITY_TOL = 1e-10

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


def validate_density_matrix(rho: np.ndarray, tol: float = DENSITY_TOL) -> np.ndarray:
    """Hermitian within tol, unit trace within tol, spectrum >= -tol."""
    rho = matcore.require_hermitian(rho, tol)
    if rho.shape != (4, 4):
        raise DomainError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > tol:
        raise DomainError(f"trace {tr!r} deviates from 1 beyond {tol:g}")
    matcore.clamp_psd_spectrum(matcore.hermitian_eig(rho).values, tol=tol)
    return rho


def _family_matrix(p: float, q: float) -> np.ndarray:
    """Family matrix without range validation (internal; Fisher paths poke
    a half-step outside [0, 1] for central differences)."""
    s = np.sqrt(q * (1.0 - q)) if 0.0 <= q <= 1.0 else np.sqrt(abs(q * (1.0 - q)))
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = (1.0 - p) / 2.0 + p * q
    rho[2, 2] = (1.0 - p) / 2.0 + p * (1.0 - q)
    rho[1, 2] = rho[2, 1] = -p * s
    return rho


def family_state(p: float, q: float) -> np.ndarray:
    """Density matrix rho(p, q); p, q must lie in [0, 1]."""
    if not (0.0 <= p <= 1.0) or not (0.0 <= q <= 1.0):
        raise DomainError(f"family parameters out of range: p={p!r}, q={q!r}")
    return _family_matrix(float(p), float(q))


def singlet() -> np.ndarray:
    """(|HV> - |VH>)/sqrt(2) as a density matrix; equals family_state(1, 1/2)."""
    return family_state(1.0, 0.5)


def dephased_mixture() -> np.ndarray:
    """diag(0, 1/2, 1/2, 0); equals family_state(0, q) for any q."""
    return family_state(0.0, 0.5)


# --- measures ---------------------------------------------------------------

def _sqrt_spectrum(values: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """sqrt of a PSD spectrum with round-off dust zeroed first.

    Eigenvalues below 1e-13 of the largest are numerical zeros; taking sqrt
    of such dust would amplify ~1e-17 noise to ~1e-9 absolute error.
    """
    vals = matcore.clamp_psd_spectrum(values, tol=tol)
    top = float(np.max(vals, initial=0.0))
    vals = np.where(vals < 1e-13 * top, 0.0, vals)
    return np.sqrt(vals)


def _pt_trace_norm(rho: np.ndarray) -> float:
    """||rho^{T_A}||_1 of a validated state."""
    return matcore.trace_norm(matcore.partial_transpose_a(rho))


def _negativity_from_tn(tn: float) -> float:
    return float(np.clip(tn - 1.0, 0.0, 1.0))


def _log_negativity_from_tn(tn: float) -> float:
    return float(np.log2(np.clip(tn, 1.0, 2.0)))


def negativity(rho: np.ndarray) -> float:
    """N(rho) = ||rho^{T_A}||_1 - 1, clamped to [0, 1]."""
    return _negativity_from_tn(_pt_trace_norm(validate_density_matrix(rho)))


def negativity_closed(p, q: float):
    """N(p, q) = 2 p sqrt(q (1 - q)); p may be an array."""
    return 2.0 * p * np.sqrt(q * (1.0 - q))


def log_negativity(rho: np.ndarray) -> float:
    """L(rho) = log2 ||rho^{T_A}||_1, clamped to [0, 1]."""
    return _log_negativity_from_tn(_pt_trace_norm(validate_density_matrix(rho)))


def log_negativity_closed(p: float, q: float) -> float:
    """L(p, q) = log2(1 + N(p, q))."""
    return float(np.log2(1.0 + negativity_closed(p, q)))


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence max(0, l1 - l2 - l3 - l4).

    The l_i are the descending eigenvalues of
    R = sqrt(sqrt(rho) rho~ sqrt(rho)) with the spin-flipped
    rho~ = (sy x sy) rho* (sy x sy).
    """
    return _concurrence(validate_density_matrix(rho))


def _concurrence(rho: np.ndarray) -> float:
    """Concurrence of a validated state."""
    yy = matcore.kron(matcore.SIGMA_Y, matcore.SIGMA_Y)
    flipped = yy @ rho.conj() @ yy
    root = matcore.psd_sqrt(rho)
    inner = root @ flipped @ root
    lam = _sqrt_spectrum(matcore.hermitian_eig(inner).values)
    lam = np.sort(lam)[::-1]
    return float(np.clip(lam[0] - lam[1] - lam[2] - lam[3], 0.0, 1.0))


def concurrence_closed(p: float, q: float) -> float:
    """On this family the concurrence coincides with the negativity."""
    return negativity_closed(p, q)


def qgd(rho: np.ndarray) -> float:
    """Geometric discord via the family relation Q = N^2 / 2.

    Valid on (and near) the state family this package studies; it is not a
    general-state geometric-discord formula.
    """
    return float(MEASURES[QGD].from_n(negativity(rho)))


def qgd_closed(p: float, q: float) -> float:
    """Q(p, q) = N(p, q)^2 / 2."""
    n = negativity_closed(p, q)
    return float(0.5 * n * n)


def measures(rho: np.ndarray) -> dict[str, float]:
    """All four measure values of a state, from one validation and one
    partial-transpose trace norm."""
    rho = validate_density_matrix(rho)
    tn = _pt_trace_norm(rho)
    n = _negativity_from_tn(tn)
    return {
        NEGATIVITY: n,
        LOG_NEGATIVITY: _log_negativity_from_tn(tn),
        CONCURRENCE: _concurrence(rho),
        QGD: float(MEASURES[QGD].from_n(n)),
    }


def fidelity(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """Uhlmann fidelity F = Tr sqrt(sqrt(a) b sqrt(a)), clamped to [0, 1]."""
    rho_a = validate_density_matrix(rho_a)
    rho_b = validate_density_matrix(rho_b)
    root = matcore.psd_sqrt(rho_a)
    inner = root @ rho_b @ root
    return float(np.clip(np.sum(_sqrt_spectrum(matcore.hermitian_eig(inner).values)), 0.0, 1.0))


# --- family fitting -----------------------------------------------------------

@dataclass
class FamilyFit:
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


def _objective(d1: float, d2: float, c: complex, k: float, p, q):
    s = np.sqrt(q * (1.0 - q))
    f1 = 0.5 + p * (q - 0.5)
    f2 = 0.5 + p * (0.5 - q)
    off = -p * s
    return (d1 - f1) ** 2 + (d2 - f2) ** 2 + 2.0 * ((c.real - off) ** 2 + c.imag ** 2) + k


def fit_family_params(rho: np.ndarray) -> FamilyFit:
    """Project a density matrix onto the family by least squares, in closed form.

    With x = p (2q - 1) and y = 2 p sqrt(q (1 - q)), the squared Frobenius
    distance to rho(p, q) is 1/2 ||(x, y) - (d1 - d2, -2 Re c)||^2 plus a
    constant, and (p, q) in [0, 1]^2 maps onto the upper half unit disk. The
    optimum is therefore the Euclidean projection of that target onto the half
    disk: a point below the axis drops onto the diameter, a point outside the
    circle is scaled onto the arc. Then p = r = ||(x, y)|| and
    q = (1 + x / r) / 2.
    """
    rho = validate_density_matrix(rho)
    d1, d2, c, k = _fit_terms(rho)

    x, y = d1 - d2, -2.0 * c.real
    if y < 0.0:
        x, y = float(np.clip(x, -1.0, 1.0)), 0.0
    r = float(np.hypot(x, y))
    if r > 1.0:
        x, r = x / r, 1.0
    p_hat = r
    q_hat = float(np.clip(0.5 * (1.0 + x / r), 0.0, 1.0)) if r > 0.0 else 0.5

    residual = float(np.sqrt(max(0.0, _objective(d1, d2, c, k, p_hat, q_hat))))
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
