"""Two-qubit state tomography from 9 local settings (36 projectors).

The setting grid is measurement.SETTINGS, {HV, DA, RL} x {HV, DA, RL}; its
36 rank-1 projectors measurement.PROJECTORS, (I +- s_a) / 2 (x) (I +- s_b) / 2,
form an (overcomplete) informationally complete design of rank 16. Two
reconstructors are provided:

* linear inversion: the least-squares state of the empirical frequencies f_x
  in closed form, rho = sum_x f_x D_x over the canonical dual frame
  D_x = (P_a - I/3) (x) (P_b - I/3) of the projectors. Exact on exact data
  but not guaranteed PSD; its physical state is the clipped, renormalised
  spectrum (project_physical).
* maximum likelihood: the multiplicative R rho R fixed-point iteration run on
  a square-root factor a of the state (rho = a a^dag), accelerated by squared
  extrapolation (SQUAREM). The factor has the estimate's own rank: it starts
  from the linear-inversion eigenvectors above that estimate's noise floor
  (the magnitude of its most negative eigenvalue), and a stop below full
  rank is accepted only under the KKT condition R / N <= I, certified by a
  Cholesky factorisation; otherwise the top eigenvector of R joins the
  factor and the ascent goes on. Every iterate is a congruence a a^dag, so
  PSD and unit trace hold at every step, and a cycle moves only uphill. One
  reported iteration is one SQUAREM cycle.

family_mle fits the family's (p, q) to the counts by maximum likelihood, in
closed form but for a 1-D root on the arc p = 1, with no eigensolve.

Eigensolve budget per state (np.linalg.eigh / eigvalsh calls):
simulate_tomography 1 (validating rho), reconstruct_mle 1 (the start) plus
1 per rank growth, reconstruct_linear 1, tomo_report 4, so a
simulate -> MLE -> report pass makes 6 when the MLE does not grow its rank.
A reference state checked once with states.check_state and passed to both
simulate_tomography and tomo_report saves one of them. Each reconstruction
carries its physical state as a states.CheckedState, which the report reads
without decomposing it again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matcore, measurement, states
from .errors import DomainError
from .streams import RandomStream

PROB_FLOOR = 1e-12
LL_TOL = 1e-10
KKT_TOL = 1e-6
GROWTH_WEIGHT = 1e-3
MAX_SWEEPS = 5000


@dataclass
class TomoDataset:
    """(9, 4) counts of the standard settings, rows in measurement.SETTINGS order.

    counts are finite non-negative reals: integers for measured data, possibly
    fractional for exact-probability (infinite-shot) injections.
    """

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (9, 4):
            raise DomainError(f"counts shape {self.counts.shape} is not (9, 4)")
        if not np.isfinite(self.counts).all():
            raise DomainError("non-finite counts in dataset")
        if np.any(self.counts < 0.0):
            raise DomainError("negative counts in dataset")
        if np.any(self.counts.sum(axis=1) <= 0.0):
            raise DomainError("a setting has zero total counts")

    @property
    def n_per_setting(self) -> np.ndarray:
        return self.counts.sum(axis=1)


def simulate_tomography(rho: np.ndarray | states.CheckedState, n_per_setting: int,
                        stream: RandomStream) -> TomoDataset:
    """Sample every standard setting n_per_setting times, advancing one stream.

    rho is validated once, or not at all when it is a states.CheckedState;
    the nine multinomial draws follow the settings order in one
    stream.multinomial call, bit for bit the nine sequential
    measurement.sample_counts records of the settings.
    """
    probs = measurement.probabilities(rho)
    return TomoDataset(stream.multinomial(n_per_setting, probs))


class Reconstruction(NamedTuple):
    """The physical state of one reconstruction, which reports read, its
    log-likelihood and the run's iteration count and convergence flag."""

    state: states.CheckedState
    log_likelihood: float
    iterations: int
    converged: bool = True


# (36, 16) rows vec(D_x) of the canonical dual frame of the projectors. A
# qubit's six projectors (I +- s_k) / 2 have the frame operator
# X -> sum P Tr(P X), which maps I to 3 I and each s_k to itself, so the dual
# of P is P - I/3, and the two-qubit duals are their products.
_DUAL = measurement.QUBIT_PROJECTORS - np.eye(2) / 3.0
_DUAL_ROWS = np.einsum("asij,btkl->abstikjl", _DUAL, _DUAL).reshape(36, 16)
_DUAL_ROWS.setflags(write=False)

# row x is vec(P_x), so w @ _ROWS = vec(sum_x w_x P_x) and
# _ROWS @ vec(rho^T) = Tr(rho P_x)
_ROWS = measurement.PROJECTORS.reshape(36, 16)


def project_physical(rho: np.ndarray) -> np.ndarray:
    """PSD unit-trace state from a Hermitian estimate, in its eigenbasis.

    Negative eigenvalues are clipped to zero and the rest rescaled to sum to 1.
    Valid states pass through unchanged. This is not the Frobenius-nearest
    density matrix, which subtracts one common shift from the spectrum before
    clipping (Smolin, Gambetta and Smith, PRL 108, 070502 (2012)).
    One Hermitian check and one eigensolve.
    """
    return _projection(rho).rho


def _projection(rho: np.ndarray) -> states.CheckedState:
    """The project_physical state of a Hermitian estimate with factor
    V sqrt(lambda), from one eigensolve."""
    values, vectors = np.linalg.eigh(matcore.require_hermitian(rho, tol=matcore.SPECTRUM_TOL))
    values = np.clip(values, 0.0, None)
    total = values.sum()
    if total <= 0.0:
        raise DomainError("state projection collapsed to zero")
    return states.CheckedState.from_factor(vectors * np.sqrt(values / total))


def _linear_inversion(dataset: TomoDataset) -> np.ndarray:
    """Hermitian unit-trace least-squares estimate sum_x f_x D_x; not
    necessarily PSD. Each setting's frequencies sum to 1 and each dual has
    trace 1/9, so the trace is 1."""
    freqs = (dataset.counts / dataset.n_per_setting[:, None]).ravel()
    return (freqs @ _DUAL_ROWS).reshape(4, 4)


def reconstruct_linear(dataset: TomoDataset) -> Reconstruction:
    """Least-squares inversion of the projector design on empirical
    frequencies, carrying its project_physical state."""
    state = _projection(_linear_inversion(dataset))
    probs = np.clip(measurement.probabilities(state), PROB_FLOOR, None)
    return Reconstruction(
        state=state,
        log_likelihood=float(np.sum(dataset.counts * np.log(probs))),
        iterations=0,
    )


# --- MLE ---------------------------------------------------------------------

def reconstruct_mle(dataset: TomoDataset) -> Reconstruction:
    """Maximum-likelihood state by SQUAREM-accelerated R rho R ascent on a
    factor of the estimate's own rank.

    The state is carried as a 4 x r factor a with rho = a a^dag and
    Tr(a a^dag) = 1. With R = sum_x (n_x / p_x) P_x, the map
    F(a) = R a / ||R a||_F is the R rho R / Tr(...) fixed-point update, whose
    fixed points are the stationary points of the multinomial log-likelihood
    over states of rank at most r. The start is the linear-inversion
    estimate's eigenvectors whose eigenvalues exceed the magnitude of its most
    negative eigenvalue, its own noise floor, scaled to unit trace: r is read
    from the data.

    One iteration is one SQUAREM cycle (Varadhan and Roland, Scand. J. Stat.
    35, 335 (2008)): a1 = F(a), a2 = F(a1), r = a1 - a, v = a2 - a1 - r and
    alpha = -||r|| / ||v||. When alpha < -1 the extrapolated factor
    x = a - 2 alpha r + alpha^2 v is normalised and F(x) replaces a2 if its
    likelihood is higher. Every candidate is a congruence x x^dag, so PSD
    and unit trace hold by construction. The cycle moves to the better
    candidate if it is uphill and otherwise stays, which gains nothing.

    A cycle that gains less than LL_TOL ends the ascent on the current rank.
    At full rank that is convergence. Below it, the state is the maximum
    only if it meets the KKT condition R / N <= I (Rehacek et al., PRA 75,
    042108 (2007)); lambda_max(R / N) <= 1 + KKT_TOL is certified by a
    Cholesky factorisation, with no eigensolve. If the certificate fails,
    the top eigenvector of R, the steepest uphill direction off the current
    support, joins the factor as a new column of weight GROWTH_WEIGHT and
    the ascent goes on. So a reconstruction makes one eigensolve (the start)
    plus one per rank growth. Flagged as not converged after MAX_SWEEPS
    cycles. ``iterations`` counts cycles, each of two or three evaluations
    of F. The state is returned as the final factor a, PSD with unit trace
    by construction.
    """
    counts = dataset.counts.ravel()
    n_total = counts.sum()

    # the spectrum sums to 1, so its top eigenvalue is at least 1/4 > 0
    values, vectors = matcore.hermitian_eig(_linear_inversion(dataset))
    rank = max(1, int(np.count_nonzero(values > -values[0])))
    top = values[4 - rank:]
    a = vectors[:, 4 - rank:] * np.sqrt(top / top.sum())
    del values, vectors, top

    def probabilities(a: np.ndarray) -> np.ndarray:
        # (a a^dag)^T = a* a^T
        return np.maximum((_ROWS @ (a.conj() @ a.T).ravel()).real, PROB_FLOOR)

    def operator(weights: np.ndarray) -> np.ndarray:
        """sum_x weights_x P_x"""
        return (weights @ _ROWS).reshape(4, 4)

    def step(a: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """F(a) = R a / ||R a||_F, with R read at a's probabilities, and F(a)'s."""
        b = operator(counts / probs) @ a
        b = b / math.sqrt(np.vdot(b, b).real)
        return b, probabilities(b)

    # Likelihood is tracked relative to the start point as
    # sum n_x log(p_x / p_ref_x). Near the optimum the absolute
    # log-likelihood is ~1e6, where one float ulp exceeds the 1e-10
    # convergence tolerance; the relative form is O(1e2) and resolves it.
    p_ref = probabilities(a)
    ll_ref = math.fsum(counts * np.log(p_ref))

    def ll(probs: np.ndarray) -> float:
        return float(counts @ np.log(probs / p_ref))

    # the current factor's probabilities are carried across cycles
    p_cur, f_cur = p_ref, 0.0
    converged = False
    iterations = 0
    for iterations in range(1, MAX_SWEEPS + 1):
        a1, p1 = step(a, p_cur)
        a2, p2 = step(a1, p1)
        best, p_best, f_best = a2, p2, ll(p2)
        r = a1 - a
        v = a2 - a1 - r
        norm_r = math.sqrt(np.vdot(r, r).real)
        norm_v = math.sqrt(np.vdot(v, v).real)
        if 0.0 < norm_v < norm_r:
            alpha = -norm_r / norm_v
            x = a - 2.0 * alpha * r + alpha * alpha * v
            x = x / math.sqrt(np.vdot(x, x).real)
            ax, p_ax = step(x, probabilities(x))
            f_ax = ll(p_ax)
            if f_ax > f_best:
                best, p_best, f_best = ax, p_ax, f_ax
            del x, ax, p_ax
        # temporaries are dropped as soon as they are dead: a reconstruction's
        # live arrays set the peak memory of a tomography run
        del a1, p1, a2, p2, r, v
        gain = f_best - f_cur
        if gain > 0.0:
            a, p_cur, f_cur = best, p_best, f_best
        del best, p_best
        if gain >= LL_TOL:
            continue
        # stationary on the current rank, which at full rank is the maximum
        if a.shape[1] == 4:
            converged = True
            break
        # the 36 projectors sum to 9 I, so (1 + KKT_TOL) I - R / N is one
        # more weighted sum of them
        slack = operator((1.0 + KKT_TOL) / 9.0 - counts / (n_total * p_cur))
        try:
            np.linalg.cholesky(slack)
        except np.linalg.LinAlgError:
            pass
        else:
            converged = True
            break
        # the lowest eigenvector of the slack is the top one of R
        top = np.linalg.eigh(slack)[1][:, :1]
        a = np.concatenate([math.sqrt(1.0 - GROWTH_WEIGHT) * a,
                            math.sqrt(GROWTH_WEIGHT) * top], axis=1)
        del slack, top
        p_cur = probabilities(a)
        f_cur = ll(p_cur)
    return Reconstruction(
        state=states.CheckedState.from_factor(a),
        log_likelihood=ll_ref + f_cur,
        iterations=iterations,
        converged=converged,
    )


# --- family MLE --------------------------------------------------------------

# Flat indices 4 * setting row + outcome of the outcomes whose probability on
# the family, with x = p (2q - 1) and y = 2 p sqrt(q (1 - q)), is c (1 + x),
# c (1 - x) (each the partner of the one above it), c (1 + y), c (1 - y) and
# 0 (HV,HV ++ and --); the DA,RL and RL,DA outcomes are 1/4 everywhere.
_X_PLUS = [1, 4, 5, 8, 9, 13, 15, 25, 27]
_X_MINUS = [2, 6, 7, 10, 11, 12, 14, 24, 26]
_Y_PLUS = [17, 18, 33, 34]
_Y_MINUS = [16, 19, 32, 35]
_NEVER = [0, 3]


def family_mle(dataset: TomoDataset) -> tuple[float, float]:
    """Maximum-likelihood (p, q) of the family from nine-setting counts.

    On the family the log-likelihood separates,
    l = k+ log(1 + x) + k- log(1 - x) + m+ log(1 + y) + m- log(1 - y) + const,
    with k and m the count sums of the outcome groups above, and (p, q) in
    [0, 1]^2 maps onto the upper half unit disk of (x, y), with p the radius
    and q = (1 + x / p) / 2. The unconstrained maximum
    x = (k+ - k-) / (k+ + k-), y = (m+ - m-) / (m+ + m-) is the answer when
    it lies in the half disk, and y < 0 drops to y = 0, exactly, since l
    separates. Outside the circle the maximum is on the arc (p = 1), on the
    side of theta = pi/2 where cos theta has the sign of x, since
    l(theta) - l(pi - theta) = (k+ - k-) log((1 + cos theta) / (1 - cos theta));
    the mirror theta -> pi - theta swaps k+ and k-. No eigensolve. A positive
    count on HV,HV ++ or --, which the family never gives, is a DomainError.
    """
    counts = dataset.counts.ravel()
    if counts[_NEVER].any():
        raise DomainError("counts on HV,HV ++ or --, which no family state gives")
    k_plus, k_minus, m_plus, m_minus = (float(counts[group].sum()) for group in
                                        (_X_PLUS, _X_MINUS, _Y_PLUS, _Y_MINUS))
    x = (k_plus - k_minus) / (k_plus + k_minus)
    y = max(0.0, (m_plus - m_minus) / (m_plus + m_minus))
    p = math.hypot(x, y)
    if p == 0.0:
        return 0.0, 0.5
    if p <= 1.0:
        return p, 0.5 * (1.0 + x / p)
    if x > 0.0:
        t = _arc_tan_half(k_plus, k_minus, m_plus, m_minus)
        return 1.0, 1.0 / (1.0 + t * t)
    t = _arc_tan_half(k_minus, k_plus, m_plus, m_minus)
    return 1.0, t * t / (1.0 + t * t)


def _arc_tan_half(k_plus: float, k_minus: float, m_plus: float,
                  m_minus: float) -> float:
    """tan(theta / 2) of the maximum of l(cos theta, sin theta) on
    0 < theta < pi/2, where q = cos^2(theta / 2).

    With t = tan(theta / 2) and u = tan(pi/4 - theta / 2), the slope is
    dl/dtheta = k- / t - k+ t + m+ u - m- / u, which falls strictly on the
    quarter; its root, or the end it tends to, comes from Newton steps
    safeguarded by bisection of a bracket (0, pi/2).
    """
    lo, hi = 0.0, 0.5 * math.pi
    theta = 0.25 * math.pi
    for _ in range(100):
        t, u = math.tan(0.5 * theta), math.tan(0.5 * (0.5 * math.pi - theta))
        slope = k_minus / t - k_plus * t + m_plus * u - m_minus / u
        # minus twice the slope's derivative
        fall = ((k_plus + k_minus / (t * t)) * (1.0 + t * t)
                + (m_plus + m_minus / (u * u)) * (1.0 + u * u))
        if slope > 0.0:
            lo = theta
        else:
            hi = theta
        step = theta + 2.0 * slope / fall
        step = step if lo < step < hi else 0.5 * (lo + hi)
        if abs(step - theta) <= 4.0 * math.ulp(theta):
            break
        theta = step
    return math.tan(0.5 * theta)


class TomoReport(NamedTuple):
    """Fidelity to a reference state, family fit and measures of a reconstruction."""

    fidelity: float
    fit: states.FamilyFit
    measures: dict[str, float]


def tomo_report(rho_true: np.ndarray | states.CheckedState,
                recon: Reconstruction) -> TomoReport:
    """Fidelity of the reconstruction's physical state to rho_true, its
    family fit and its measures.

    Four eigensolves and one Hermitian check: the validation of rho_true
    makes one of each, then the fidelity, the partial-transpose trace norm
    and the concurrence one eigensolve each; the state recon carries is
    neither checked nor decomposed again, and the fit needs none. A rho_true
    checked by states.check_state skips its validation: three eigensolves.
    """
    state = recon.state
    return TomoReport(
        fidelity=states.fidelity(rho_true, state),
        fit=states.fit_family_params(state),
        measures=states.measures(state),
    )
