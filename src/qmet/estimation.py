"""Count-based estimators of the entanglement measures and their bounds.

All estimators act on the four joint-count record of a single DA x DA setting
(n_pp, n_pm, n_mp, n_mm). Two recipes exist per measure:

* non-optimal: built from the ++ outcome alone, single-shot uncertainty
  sqrt(3 - 2N - N^2) in negativity units;
* optimal: the parity combination (+-) + (-+) - (++) - (--), whose single-shot
  variance 1 - N^2 saturates the quantum Cramer-Rao bound for this family.

Log-measure and discord estimators are exact transforms of these, and their
uncertainty curves are the corresponding exact delta-method images.

Uncertainty convention: curves return the single-shot value; the standard
error of an n-shot estimate is curve / sqrt(n). Both appear on results.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import matcore, measurement, states
from .errors import DomainError

NONOPTIMAL = "nonoptimal"
OPTIMAL = "optimal"
VARIANTS = (NONOPTIMAL, OPTIMAL)

LOG_CLAMP = 2.0 ** -20  # floor for log arguments that statistical noise pushed to <= 0

LN2 = float(np.log(2.0))


@dataclass
class EstimateResult:
    """One estimate from one count record.

    value is the raw (unclamped) estimator output; value_clamped is its
    projection onto the measure's valid range. clamped is set when the two
    differ or when a log argument needed flooring. Uncertainties are
    single-shot; divide by sqrt(n_shots) for the standard error of this
    estimate.
    """

    kind: str
    variant: str
    value: float
    value_clamped: float
    n_shots: int
    theory_unc_single_shot: float
    qcrb_unc_single_shot: float
    clamped: bool

    def __post_init__(self):
        if self.qcrb_unc_single_shot > self.theory_unc_single_shot + 1e-12:
            raise DomainError("QCRB uncertainty exceeds the estimator theory uncertainty")

    @property
    def theory_se(self) -> float:
        return self.theory_unc_single_shot / np.sqrt(self.n_shots)

    @property
    def qcrb_se(self) -> float:
        return self.qcrb_unc_single_shot / np.sqrt(self.n_shots)

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "variant": self.variant,
            "value": self.value,
            "n_shots": self.n_shots,
            "unc_theory": self.theory_unc_single_shot,
            "unc_qcrb": self.qcrb_unc_single_shot,
            "clamped": self.clamped,
        }


# --- theory curves -----------------------------------------------------------

def _measure_range(kind: str) -> tuple[float, float]:
    try:
        return states.MEASURE_RANGE[kind]
    except KeyError:
        raise DomainError(f"unknown measure kind {kind!r}")


def qcrb_curves(kind: str, value: float) -> float:
    """Single-shot quantum Cramer-Rao variance bound at a measure value."""
    lo, hi = _measure_range(kind)
    if not (lo <= value <= hi):
        raise DomainError(f"{kind} value {value!r} outside [{lo}, {hi}]")
    if kind in (states.NEGATIVITY, states.CONCURRENCE):
        return float(1.0 - value * value)
    if kind == states.LOG_NEGATIVITY:
        return float((2.0 ** -value) * (2.0 - 2.0 ** value) / LN2 ** 2)
    if kind == states.QGD:
        return float(2.0 * (1.0 - 2.0 * value) * value)
    raise DomainError(f"unknown measure kind {kind!r}")


def nonopt_unc_curves(kind: str, value: float) -> float:
    """Single-shot uncertainty of the non-optimal estimator at a measure value."""
    lo, hi = _measure_range(kind)
    if not (lo <= value <= hi):
        raise DomainError(f"{kind} value {value!r} outside [{lo}, {hi}]")
    if kind in (states.NEGATIVITY, states.CONCURRENCE):
        return float(np.sqrt(3.0 - 2.0 * value - value * value))
    if kind == states.LOG_NEGATIVITY:
        arg = -(4.0 ** -value) * (4.0 ** value - 4.0)
        return float(np.sqrt(max(0.0, arg)) / LN2)
    if kind == states.QGD:
        arg = -2.0 * value * (2.0 * value + 2.0 * np.sqrt(2.0) * np.sqrt(value) - 3.0)
        return float(np.sqrt(max(0.0, arg)))
    raise DomainError(f"unknown measure kind {kind!r}")


def qcrb_unc(kind: str, value: float) -> float:
    """sqrt of the QCRB variance (single-shot optimal uncertainty)."""
    return float(np.sqrt(max(0.0, qcrb_curves(kind, value))))


def clip_to_range(kind: str, values):
    """Estimates projected onto the measure's valid range."""
    lo, hi = _measure_range(kind)
    return np.clip(values, lo, hi)


def estimator_values(kind: str, variant: str,
                     counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw estimates and log-floor mask of (..., 4) DA x DA count records.

    Every estimator is a function of the frequencies f = counts / n:

    * non-optimal: v = 1 - 4 f_pp, and L = log2(2 - 4 f_pp);
    * optimal: the parity combination v = f_pm + f_mp - f_pp - f_mm, and
      L = log2(1 + v);

    negativity and concurrence read v, discord v^2 / 2. Log arguments that
    statistical noise pushed to <= 0 floor at LOG_CLAMP and are flagged in the
    mask. A single record gives 0-d results.
    """
    if (kind, variant) not in ESTIMATORS:
        raise DomainError(f"no estimator for kind={kind!r}, variant={variant!r}")
    counts = np.asarray(counts)
    n = counts.sum(axis=-1, keepdims=True)
    if np.any(n < 1):
        raise DomainError("empty count record")
    f = counts / n
    f_pp = f[..., 0]
    if variant == NONOPTIMAL:
        v = 1.0 - 4.0 * f_pp
        log_arg = 2.0 - 4.0 * f_pp
    else:
        v = f[..., 1] + f[..., 2] - f_pp - f[..., 3]
        log_arg = 1.0 + v
    if kind == states.LOG_NEGATIVITY:
        floored = log_arg <= 0.0
        return np.log2(np.where(floored, LOG_CLAMP, log_arg)), floored
    unfloored = np.zeros(np.shape(v), dtype=bool)
    if kind == states.QGD:
        return 0.5 * v * v, unfloored
    return v, unfloored


def estimate(kind: str, variant: str, counts: measurement.OutcomeCounts,
             at_value: float | None = None) -> EstimateResult:
    """One estimate from one count record; theory curves at at_value if given.

    Without at_value the curves are evaluated at the clamped estimate.
    """
    raw, floored = estimator_values(kind, variant, counts.as_array())
    value = float(raw)
    value_clamped = float(clip_to_range(kind, value))
    ref = float(clip_to_range(kind, at_value)) if at_value is not None else value_clamped
    qcrb = qcrb_unc(kind, ref)
    theory = qcrb if variant == OPTIMAL else nonopt_unc_curves(kind, ref)
    return EstimateResult(
        kind=kind,
        variant=variant,
        value=value,
        value_clamped=value_clamped,
        n_shots=counts.n,
        theory_unc_single_shot=theory,
        qcrb_unc_single_shot=qcrb,
        clamped=bool(floored or value_clamped != value),
    )


# --- per-estimator entry points --------------------------------------------------

def est_neg_nonopt(counts: measurement.OutcomeCounts,
                   at_value: float | None = None) -> EstimateResult:
    """N estimate 1 - 4 f_pp from the ++ fraction alone."""
    return estimate(states.NEGATIVITY, NONOPTIMAL, counts, at_value)


def est_neg_opt(counts: measurement.OutcomeCounts,
                at_value: float | None = None) -> EstimateResult:
    """N estimate from the parity combination (f_pm + f_mp) - (f_pp + f_mm)."""
    return estimate(states.NEGATIVITY, OPTIMAL, counts, at_value)


def est_logneg_nonopt(counts: measurement.OutcomeCounts,
                      at_value: float | None = None) -> EstimateResult:
    """L estimate log2(2 - 4 f_pp); non-positive arguments floor at 2^-20."""
    return estimate(states.LOG_NEGATIVITY, NONOPTIMAL, counts, at_value)


def est_logneg_opt(counts: measurement.OutcomeCounts,
                   at_value: float | None = None) -> EstimateResult:
    """L estimate log2(1 + parity combination)."""
    return estimate(states.LOG_NEGATIVITY, OPTIMAL, counts, at_value)


def est_conc_nonopt(counts: measurement.OutcomeCounts,
                    at_value: float | None = None) -> EstimateResult:
    """Concurrence estimate; numerically the negativity estimator."""
    return estimate(states.CONCURRENCE, NONOPTIMAL, counts, at_value)


def est_conc_opt(counts: measurement.OutcomeCounts,
                 at_value: float | None = None) -> EstimateResult:
    return estimate(states.CONCURRENCE, OPTIMAL, counts, at_value)


def est_qgd_nonopt(counts: measurement.OutcomeCounts,
                   at_value: float | None = None) -> EstimateResult:
    """Q estimate (1 - 4 f_pp)^2 / 2."""
    return estimate(states.QGD, NONOPTIMAL, counts, at_value)


def est_qgd_opt(counts: measurement.OutcomeCounts,
                at_value: float | None = None) -> EstimateResult:
    """Q estimate (parity combination)^2 / 2."""
    return estimate(states.QGD, OPTIMAL, counts, at_value)


ESTIMATORS: dict[tuple[str, str], Callable[..., EstimateResult]] = {
    (states.NEGATIVITY, NONOPTIMAL): est_neg_nonopt,
    (states.NEGATIVITY, OPTIMAL): est_neg_opt,
    (states.LOG_NEGATIVITY, NONOPTIMAL): est_logneg_nonopt,
    (states.LOG_NEGATIVITY, OPTIMAL): est_logneg_opt,
    (states.CONCURRENCE, NONOPTIMAL): est_conc_nonopt,
    (states.CONCURRENCE, OPTIMAL): est_conc_opt,
    (states.QGD, NONOPTIMAL): est_qgd_nonopt,
    (states.QGD, OPTIMAL): est_qgd_opt,
}


# --- measure <-> parameter paths for Fisher information --------------------------------

def measure_path(kind: str, q: float = 0.5) -> Callable[[float], np.ndarray]:
    """theta -> rho(theta) along the family, theta in the measure's own units.

    The negativity path at q is rho(p = theta / (2 sqrt(q(1-q))), q); the
    log-negativity and discord paths are its exact reparameterizations
    theta_L = log2(1 + N) and theta_Q = N^2 / 2. Paths tolerate a half
    central-difference step outside the physical range.
    """
    s = 2.0 * np.sqrt(q * (1.0 - q))
    if s <= 0.0:
        raise DomainError(f"family path needs q in (0, 1), got q={q!r}")

    if kind in (states.NEGATIVITY, states.CONCURRENCE):
        to_n = lambda theta: theta
    elif kind == states.LOG_NEGATIVITY:
        to_n = lambda theta: 2.0 ** theta - 1.0
    elif kind == states.QGD:
        def to_n(theta: float) -> float:
            if theta < 0.0:
                raise DomainError(f"discord path needs theta >= 0, got {theta!r}")
            return np.sqrt(2.0 * theta)
    else:
        raise DomainError(f"unknown measure kind {kind!r}")

    def path(theta: float) -> np.ndarray:
        return states._family_matrix(to_n(theta) / s, q)

    return path


@dataclass
class FisherReport:
    """Numeric quantum and classical Fisher information at one path point."""

    theta: float
    qfi: float
    cfi: float
    qcrb: float

    def __post_init__(self):
        if self.cfi > self.qfi + 1e-6:
            raise DomainError(f"CFI {self.cfi!r} exceeds QFI {self.qfi!r}")


EIG_PAIR_FLOOR = 1e-12


def _central_diff(curve: Callable[[float], np.ndarray], theta: float,
                  dtheta: float) -> np.ndarray:
    return (curve(theta + 0.5 * dtheta) - curve(theta - 0.5 * dtheta)) / dtheta


def qfi_numeric(curve: Callable[[float], np.ndarray], theta: float,
                dtheta: float = 1e-5,
                povm: list[np.ndarray] | None = None) -> FisherReport:
    """Quantum Fisher information by the spectral sum.

    QFI = sum_{i,j} 2 |<i| d_theta rho |j>|^2 / (l_i + l_j) over eigenpairs
    with l_i + l_j above 1e-12; d_theta rho is a central difference. When a
    POVM is supplied the report also carries the classical Fisher information
    of those outcome statistics.
    """
    rho = matcore.require_hermitian(curve(theta))
    drho = _central_diff(curve, theta, dtheta)
    eig = matcore.hermitian_eig(rho)
    vals = matcore.clamp_psd_spectrum(eig.values, tol=1e-8)
    m = eig.vectors.conj().T @ drho @ eig.vectors
    denom = vals[:, None] + vals[None, :]
    keep = denom > EIG_PAIR_FLOOR
    if not np.any(keep):
        raise DomainError("all eigenvalue pairs below threshold; QFI undefined here")
    qfi = float(np.sum(2.0 * np.abs(m[keep]) ** 2 / denom[keep]))
    cfi = cfi_numeric(curve, theta, povm, dtheta) if povm is not None else 0.0
    return FisherReport(theta=float(theta), qfi=qfi, cfi=cfi, qcrb=1.0 / qfi)


def cfi_numeric(curve: Callable[[float], np.ndarray], theta: float,
                povm: list[np.ndarray] | None = None,
                dtheta: float = 1e-5) -> float:
    """Classical Fisher information sum_x (d_theta p_x)^2 / p_x of a POVM.

    Defaults to the DA x DA projector set. Outcomes with p_x <= 1e-12 are
    skipped (their derivative vanishes on this family).
    """
    if povm is None:
        povm = measurement.setting_projectors(measurement.DA_DA)
    total = sum(povm)
    if matcore.frobenius(total - np.eye(4)) > 1e-10:
        raise DomainError("POVM elements do not sum to the identity")
    for el in povm:
        matcore.clamp_psd_spectrum(matcore.hermitian_eig(el).values, tol=1e-10)
    rho = curve(theta)
    drho = _central_diff(curve, theta, dtheta)
    cfi = 0.0
    for el in povm:
        p = np.trace(rho @ el).real
        if p <= 1e-12:
            continue
        dp = np.trace(drho @ el).real
        cfi += dp * dp / p
    return float(cfi)
