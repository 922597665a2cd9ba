"""Count-based estimators of the entanglement measures and their bounds.

All estimators act on the four joint-count record of a single DA x DA setting
(n_pp, n_pm, n_mp, n_mm). Two recipes exist per measure:

* non-optimal: built from the ++ outcome alone, single-shot uncertainty
  sqrt(3 - 2N - N^2) in negativity units;
* optimal: the parity combination (+-) + (-+) - (++) - (--), with single-shot
  variance 1 - N^2 at every q. That saturates the quantum Cramer-Rao bound
  with q known, QCRB_N(q) = 4q(1-q) - N^2, at q = 1/2 only; off q = 1/2 that
  bound is lower.

Every measure is a function of N (states.MEASURES). An estimator is two
steps: n_estimates computes both variants' N-scale estimates v from one set
of frequencies, and measure_estimates returns from_n(v) of the kind's row,
with the log-negativity floor. estimator_values and estimate are their
composition, and a sweep calls n_estimates once and measure_estimates once
per kind on a whole batch of records. theory is the one place the curves are
carried to each measure: at negativities N it returns from_n(N) and each
single-shot N-scale curve times |dfrom_n(N)|, its exact delta-method image.
The curves of measure values read it at the N that _to_n returns.

The numeric Fisher information checks that bound on the exact tangent of
rho along N, a constant since rho is affine in p, carried by the same factor.

Uncertainty convention: curves return the single-shot value; the standard
error of an n-shot estimate is curve / sqrt(n). Both appear on results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import matcore, measurement, states
from .errors import DomainError

NONOPTIMAL = "nonoptimal"
OPTIMAL = "optimal"
VARIANTS = (NONOPTIMAL, OPTIMAL)

LOG_CLAMP = 2.0 ** -20  # floor for log arguments that statistical noise pushed to <= 0


class EstimateResult(NamedTuple):
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
    """N of measure values inside the kind's range and within reach at q."""
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
    return np.where(value >= top * (1.0 - 1e-15), _reach(q), row.to_n(value))[()]


def _qcrb_n(n, q: float):
    """QCRB_N(q) = 4q(1-q) - N^2, the single-shot quantum bound on the N scale
    (Genoni, Giorda & Paris, PRA 78, 052322 (2008)).

    It is computed as (s - N)(s + N) with s = 2 sqrt(q(1-q)), the family's
    reach, so it is exactly 0 at N = s; the difference of the two rounded
    squares leaves ~1e-16 there, which a square root turns into ~1e-8.
    """
    s = _reach(q)
    return np.maximum(0.0, (s - n) * (s + n))


def theory(kind: str, n, q: float = 0.5):
    """(value, non-optimal sd, optimal sd, QCRB sd) of a kind at negativities
    n in [0, 2 sqrt(q(1-q))]: from_n(N), and the single-shot N-scale curves
    times |dfrom_n(N)|. Both estimators are unbiased for N at every q, with sd
    sqrt(3 - 2N - N^2) and sqrt(1 - N^2), so only the QCRB depends on q."""
    row = _row(kind)
    scale = np.abs(row.dfrom_n(n))
    return (row.from_n(n), np.sqrt(3.0 - 2.0 * n - n * n) * scale,
            np.sqrt(1.0 - n * n) * scale, np.sqrt(_qcrb_n(n, q)) * scale)


def qcrb_curves(kind: str, value, q: float = 0.5):
    """Single-shot quantum Cramer-Rao variance bound at measure values and q."""
    n = _to_n(kind, value, q)
    return _qcrb_n(n, q) * np.abs(_row(kind).dfrom_n(n)) ** 2


def nonopt_unc_curves(kind: str, value):
    """Single-shot uncertainty of the non-optimal estimator at measure values."""
    return theory(kind, _to_n(kind, value))[1]


def qcrb_unc(kind: str, value, q: float = 0.5):
    """sqrt of the QCRB variance at measure values and q."""
    return theory(kind, _to_n(kind, value, q), q)[3]


def clip_to_range(kind: str, values):
    """Estimates projected onto the measure's valid range."""
    return np.clip(values, *_row(kind).range)


def n_estimates(counts: np.ndarray) -> np.ndarray:
    """(2, ...) N-scale estimates v of (..., 4) DA x DA count records, rows in
    VARIANTS order, both from one f = counts / n:

    * non-optimal: v = 1 - 4 f_pp;
    * optimal: the parity combination v = f_pm + f_mp - f_pp - f_mm.
    """
    counts = np.asarray(counts)
    n = counts.sum(axis=-1, keepdims=True)
    if np.any(n < 1):
        raise DomainError("empty count record")
    f = counts / n
    f_pp = f[..., 0]
    return np.stack([1.0 - 4.0 * f_pp, f[..., 1] + f[..., 2] - f_pp - f[..., 3]])


def measure_estimates(kind: str, v) -> tuple[np.ndarray, np.ndarray]:
    """Raw estimates from_n(v) of N-scale estimates v, and their log-floor mask.

    A log-negativity v <= -1, whose log argument 1 + v statistical noise
    pushed to <= 0, is floored to LOG_CLAMP - 1, which reads
    log2(LOG_CLAMP) = -20, and flagged in the mask.
    """
    floored = np.zeros(np.shape(v), dtype=bool)
    if kind == states.LOG_NEGATIVITY:
        floored = v <= -1.0
        v = np.where(floored, LOG_CLAMP - 1.0, v)
    return states.MEASURES[kind].from_n(v), floored


def estimator_values(kind: str, variant: str,
                     counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw estimates and log-floor mask of (..., 4) DA x DA count records: the
    variant's row of n_estimates read through measure_estimates. A single
    record gives 0-d results.
    """
    if kind not in states.MEASURES or variant not in VARIANTS:
        raise DomainError(f"no estimator for kind={kind!r}, variant={variant!r}")
    return measure_estimates(kind, n_estimates(counts)[VARIANTS.index(variant), ...])


def estimate(kind: str, variant: str, counts: measurement.OutcomeCounts,
             q: float = 0.5) -> EstimateResult:
    """One estimate from one count record, with the theory curves evaluated
    at the clamped estimate, clipped to the family's reach 2 sqrt(q(1-q)) at q.
    """
    raw, floored = estimator_values(kind, variant, counts.as_array())
    value = float(raw)
    value_clamped = float(clip_to_range(kind, value))
    n = _to_n(kind, min(value_clamped, _row(kind).from_n(_reach(q))), q)
    _, nonopt, opt, qcrb = theory(kind, n, q)
    return EstimateResult(
        kind=kind,
        variant=variant,
        value=value,
        value_clamped=value_clamped,
        n_shots=counts.n,
        theory_unc_single_shot=float(opt if variant == OPTIMAL else nonopt),
        qcrb_unc_single_shot=float(qcrb),
        clamped=bool(floored or value_clamped != value),
    )


# --- Fisher information on the family's exact tangent ---------------------------

# theta -> (rho, d rho / dN, dfrom_n(N)), as measure_path returns
MeasurePath = Callable[[float], tuple[np.ndarray, np.ndarray, float]]
EIG_PAIR_FLOOR = 1e-12


def measure_path(kind: str, q: float = 0.5) -> MeasurePath:
    """theta -> (rho, d rho / dN, dfrom_n(N)) along the family at q, theta in
    the measure's own units. theta maps to N through _to_n, which checks range
    and reach as the theory curves do, and rho is family_state(N / reach, q).
    rho is affine in p, so d rho / dN = (rho(1, q) - rho(0, q)) / reach is
    exact at every theta; a theta derivative is the N one over dfrom_n(N)."""
    s = _reach(q)
    if s <= 0.0:
        raise DomainError(f"family path needs q in (0, 1), got q={q!r}")
    tangent = (states.family_state(1.0, q) - states.family_state(0.0, q)) / s

    def path(theta: float) -> tuple[np.ndarray, np.ndarray, float]:
        n = _to_n(kind, theta, q)
        return (states.family_state(min(n / s, 1.0), q), tangent,
                float(np.abs(states.MEASURES[kind].dfrom_n(n))))

    return path


@dataclass
class FisherReport:
    """Numeric quantum and classical Fisher information at one path point."""

    theta: float
    qfi: float
    cfi: float
    qcrb: float

    def __post_init__(self):
        # as variance bounds, 1/CFI >= 1/QFI: near the family's edge the two
        # are huge, and either may already be infinite, within round-off
        if self.cfi > self.qfi and 1.0 / self.cfi < self.qcrb - EIG_PAIR_FLOOR:
            raise DomainError(f"CFI {self.cfi!r} exceeds QFI {self.qfi!r}")


def qfi_numeric(curve: MeasurePath, theta: float,
                povm: np.ndarray | None = None) -> FisherReport:
    """QFI by the spectral sum F_N = sum_ij 2 |<i| d rho / dN |j>|^2 / (l_i + l_j)
    over eigenpairs above EIG_PAIR_FLOOR, and F_theta = F_N / dfrom_n(N)^2.

    A tangent entry on a pair below the floor means the path leaves the
    support (the pure end, N = reach): the QFI is infinite and the QCRB 0, the
    closed bound there, and so at dfrom_n(N) = 0 (discord theta = 0). With a
    POVM the report also carries its classical Fisher information. Near the
    pure end eigh resolves the eigenvalue (1 - N)/2 only to ~1e-16, so QFI and
    CFI are exact to ~1e-16/(1 - N) relatively; the QCRB stays within 2e-12.
    """
    rho, tangent, scale = curve(theta)
    values, vectors = matcore.hermitian_eig(rho)
    vals = matcore.clamp_psd_spectrum(values, tol=matcore.SPECTRUM_TOL)
    m = vectors.conj().T @ tangent @ vectors
    denom = vals[:, None] + vals[None, :]
    keep = denom > EIG_PAIR_FLOOR
    if scale == 0.0 or np.any(np.abs(m[~keep]) > EIG_PAIR_FLOOR):
        qfi = math.inf
    else:
        qfi = float(np.sum(2.0 * np.abs(m[keep]) ** 2 / denom[keep])) / scale / scale
    cfi = cfi_numeric(curve, theta, povm) if povm is not None else 0.0
    return FisherReport(theta=float(theta), qfi=qfi, cfi=cfi,
                        qcrb=0.0 if math.isinf(qfi) else 1.0 / qfi)


def cfi_numeric(curve: MeasurePath, theta: float, povm: np.ndarray) -> float:
    """CFI sum_x (d_theta p_x)^2 / p_x of a (k, 4, 4) POVM stack, with p_x and
    dp_x / dN read as Tr(rho P_x), as measurement.probabilities does.

    An outcome with p_x at round-off (<= 1e-15) adds 0 if dp_x = 0 and is
    infinite otherwise: the path leaves the simplex. (A floor at
    EIG_PAIR_FLOOR would do so up to ~4e-11 inside the reach, where the QFI
    is still finite.) Near the pure end it is exact only to ~1e-16/(1 - N)
    relatively, as the vanishing p_x are exact only to ~1e-16.
    """
    povm = np.asarray(povm)
    if np.linalg.norm(povm - povm.conj().swapaxes(1, 2)) > matcore.ROUND_OFF_TOL:
        raise DomainError("POVM elements are not Hermitian")
    if np.linalg.norm(povm.sum(axis=0) - np.eye(4)) > matcore.ROUND_OFF_TOL:
        raise DomainError("POVM elements do not sum to the identity")
    matcore.clamp_psd_spectrum(np.linalg.eigvalsh(povm))
    rho, tangent, scale = curve(theta)
    p, dp = np.einsum("sij,xji->sx", np.stack([rho, tangent]), povm).real
    dead = p <= 1e-15
    cfi = float(np.sum(dp[~dead] ** 2 / p[~dead]))  # on the N scale
    if np.any(np.abs(dp[dead]) > 1e-12) or (cfi > 0.0 and scale == 0.0):
        return math.inf
    return cfi / scale / scale if cfi > 0.0 else 0.0
