"""Count-based estimators of the entanglement measures and their bounds.

All estimators act on the four joint-count record of a single DA x DA setting
(n_pp, n_pm, n_mp, n_mm). Two recipes exist per measure:

* non-optimal: built from the ++ outcome alone, single-shot uncertainty
  sqrt(3 - 2N - N^2) in negativity units;
* optimal: the parity combination (+-) + (-+) - (++) - (--), with single-shot
  variance 1 - N^2 at every q. That saturates the quantum Cramer-Rao bound
  QCRB_N(q) = 4q(1-q) - N^2 at q = 1/2 only; off q = 1/2 the bound is lower.

Every measure is a function of N (states.MEASURES). Log-measure and discord
estimators are exact transforms of these, and each uncertainty curve is the
N-scale curve times |dfrom_n(N)|, its exact delta-method image.

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

def _row(kind: str) -> states.Measure:
    if kind not in states.MEASURES:
        raise DomainError(f"unknown measure kind {kind!r}")
    return states.MEASURES[kind]


def _reach(q: float) -> float:
    """2 sqrt(q (1 - q)): the largest negativity the family reaches at q."""
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"q must lie in [0, 1], got {q!r}")
    return states.negativity_closed(1.0, q)


def _to_n(kind: str, value, q: float = 0.5):
    """N of measure values inside the kind's range and within reach at q, and
    the delta-method scale |dfrom_n(N)| that carries N-scale curves to them."""
    row, value = _row(kind), np.asarray(value)
    lo, hi = row.range
    if not (lo <= value.min() and value.max() <= hi):
        raise DomainError(f"{kind} value {value} outside [{lo}, {hi}]")
    top = row.from_n(_reach(q))
    if value.max() > top * (1.0 + 1e-12):  # from_n may round an ulp apart on arrays
        raise DomainError(f"{kind} value {value} beyond the family's {top:.6g} at q={q}")
    # to_n(from_n(reach)) can land an ulp off the reach, and the bound's
    # square root turns that ulp into ~1e-8: a value at the top within
    # round-off is the reach itself ([()] keeps scalars scalar)
    n = np.where(value >= top * (1.0 - 1e-15), _reach(q), row.to_n(value))[()]
    return n, np.abs(row.dfrom_n(n))


def _qcrb_n(n, q: float):
    """QCRB_N(q) = 4q(1-q) - N^2, the single-shot quantum bound on the N scale
    (Genoni, Giorda & Paris, PRA 78, 052322 (2008)).

    It is computed as (s - N)(s + N) with s = 2 sqrt(q(1-q)), the family's
    reach, so it is exactly 0 at N = s; the difference of the two rounded
    squares leaves ~1e-16 there, which a square root turns into ~1e-8.
    """
    s = _reach(q)
    return np.maximum(0.0, (s - n) * (s + n))


def _sd_n(variant: str, n):
    """Single-shot standard deviation of an estimator on the N scale; both
    estimators are unbiased for N at every q, so neither depends on q."""
    if variant == NONOPTIMAL:
        return np.sqrt(3.0 - 2.0 * n - n * n)
    return np.sqrt(1.0 - n * n)


def qcrb_curves(kind: str, value, q: float = 0.5):
    """Single-shot quantum Cramer-Rao variance bound at measure values and q."""
    n, scale = _to_n(kind, value, q)
    return _qcrb_n(n, q) * scale ** 2


def nonopt_unc_curves(kind: str, value):
    """Single-shot uncertainty of the non-optimal estimator at measure values."""
    n, scale = _to_n(kind, value)
    return _sd_n(NONOPTIMAL, n) * scale


def qcrb_unc(kind: str, value, q: float = 0.5):
    """sqrt of the QCRB variance at measure values and q."""
    n, scale = _to_n(kind, value, q)
    return np.sqrt(_qcrb_n(n, q)) * scale


def clip_to_range(kind: str, values):
    """Estimates projected onto the measure's valid range."""
    return np.clip(values, *_row(kind).range)


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
    if kind not in states.MEASURES or variant not in VARIANTS:
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
             at_value: float | None = None, q: float = 0.5) -> EstimateResult:
    """One estimate from one count record; theory curves at at_value if given.

    Without at_value the curves are evaluated at the clamped estimate. Their
    reference N is clipped to the family's reach 2 sqrt(q(1-q)) at q.
    """
    raw, floored = estimator_values(kind, variant, counts.as_array())
    value = float(raw)
    value_clamped = float(clip_to_range(kind, value))
    ref = value_clamped if at_value is None else clip_to_range(kind, at_value)
    n = min(_row(kind).to_n(ref), _reach(q))
    scale = abs(_row(kind).dfrom_n(n))
    return EstimateResult(
        kind=kind,
        variant=variant,
        value=value,
        value_clamped=value_clamped,
        n_shots=counts.n,
        theory_unc_single_shot=float(_sd_n(variant, n) * scale),
        qcrb_unc_single_shot=float(np.sqrt(_qcrb_n(n, q)) * scale),
        clamped=bool(floored or value_clamped != value),
    )


# --- measure <-> parameter paths for Fisher information --------------------------------

def measure_path(kind: str, q: float = 0.5) -> Callable[[float], np.ndarray]:
    """theta -> rho(theta) along the family, theta in the measure's own units.

    theta maps to N through the kind's to_n, and N to rho(p = N / (2
    sqrt(q(1-q))), q), so the log-negativity and discord paths are exact
    reparameterizations of the negativity path. Paths tolerate a half
    central-difference step outside the physical range.
    """
    s = _reach(q)
    if s <= 0.0:
        raise DomainError(f"family path needs q in (0, 1), got q={q!r}")
    to_n = _row(kind).to_n

    def path(theta: float) -> np.ndarray:
        if kind == states.QGD and theta < 0.0:
            raise DomainError(f"discord path needs theta >= 0, got {theta!r}")
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
