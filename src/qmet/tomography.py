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
* maximum likelihood: damped Newton (Levenberg-Marquardt) ascent on a
  square-root factor a of the state (rho = a a^dag). The factor has the
  estimate's own rank: it starts from the linear-inversion eigenvectors above
  that estimate's noise floor (the magnitude of its most negative
  eigenvalue). Every stop, at any rank, must pass the KKT condition
  R / N <= I, certified by a Cholesky factorisation; below full rank a
  failed certificate adds the top eigenvector of R to the factor, and the
  ascent goes on. Every iterate is a congruence a a^dag, so PSD and unit
  trace hold at every step, and a step is taken only uphill. One reported
  iteration is one damped Newton system solved; near the maximum a step may
  reuse the last certified matrix (a chord step) instead of a new one.

family_mle fits the family's (p, q) to the counts by maximum likelihood, in
closed form but for a 1-D root on the arc p = 1, with no eigensolve.

Eigensolve budget per state (np.linalg.eigh / eigvalsh calls):
simulate_tomography 1 (validating rho), reconstruct_mle 1 (the start) plus
1 per rank growth, reconstruct_linear 1, tomo_report 4, so a
simulate -> MLE -> report pass makes 6 when the MLE does not grow its rank.
The Cholesky factorisations and linear solves of every MLE iteration are
not eigensolves.
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
DAMPING_START = 1e-3
DAMPING_MIN = 1e-10
REUSE_GAIN = 1e-3
MAX_STEPS = 500


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

# (36, 4) kets phi_x of the projectors, P_x = |phi_x><phi_x|: _BRAS @ a holds
# the amplitudes <phi_x|a_k> of a factor's columns, and _KET_ROWS, in single
# precision, the kets laid out for the batched outer products c_x phi_x^T of
# the Jacobian
_KETS = measurement.PROJECTOR_KETS.reshape(36, 4)
_BRAS = _KETS.conj()
_BRAS.setflags(write=False)
_KET_ROWS = _KETS[:, None, :].astype(np.complex64)
_KET_ROWS.setflags(write=False)


def _real_forms(m: np.ndarray) -> np.ndarray:
    """(..., 8, 8) real forms of (..., 4, 4) complex matrices M: the matrix
    of v -> M v on the real view (Re v_0, Im v_0, ..., Re v_3, Im v_3)."""
    re = np.einsum("...ij,st->...isjt", m.real, np.eye(2))
    im = np.einsum("...ij,st->...isjt", m.imag, [[0.0, -1.0], [1.0, 0.0]])
    return (re + im).reshape(m.shape[:-2] + (8, 8))


# (36, 64): row x is the real form of P_x, so d @ _REAL_FORMS is the real form
# of sum_x d_x P_x
_REAL_FORMS = _real_forms(measurement.PROJECTORS.reshape(36, 4, 4)).reshape(36, 64)
_REAL_FORMS.setflags(write=False)


def _columns(theta: np.ndarray) -> np.ndarray:
    """(r, 4) view b = a^T of the factor a whose real vector is theta: row k
    of b is column k of a."""
    return theta.view(complex).reshape(-1, 4)


def _amplitudes(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(36, r) amplitudes c_x = <phi_x|a> of the factor with real vector
    theta, and the probabilities ||c_x||^2, floored at PROB_FLOOR."""
    c = _BRAS @ _columns(theta).T
    cv = c.view(float)[:, None, :]
    return c, np.maximum((cv @ cv.transpose(0, 2, 1)).ravel(), PROB_FLOOR)


def _gradient_form(counts: np.ndarray, probs: np.ndarray, n_total: float) -> np.ndarray:
    """(8, 8) real form of R - N I, with R = sum_x (n_x / p_x) P_x: theta
    times it, row by row, is half the gradient of f. sum_x d_x P_x = R - N I,
    as the 36 projectors sum to 9 I."""
    return ((counts / probs - n_total / 9.0) @ _REAL_FORMS).reshape(8, 8)


def reconstruct_mle(dataset: TomoDataset) -> Reconstruction:
    """Maximum-likelihood state by damped Newton ascent on a factor of the
    estimate's own rank.

    The state is carried as a 4 x r factor a with rho = a a^dag and
    Tr(a a^dag) = 1. The start is the linear-inversion estimate's
    eigenvectors whose eigenvalues exceed the magnitude of its most negative
    eigenvalue, its own noise floor, scaled to unit trace: r is read from the
    data.

    One iteration solves one damped Newton (Levenberg-Marquardt) system on
    the real vector theta of a's entries, column by column. Its model is the
    second-order expansion of
    f(a) = sum_x n_x log <phi_x|a a^dag|phi_x> - N Tr(a a^dag). f + N is the
    normalised log-likelihood at unit trace and below it elsewhere, so a step
    uphill in f is uphill in the likelihood, and the two share their
    stationary points, where R a = N a with R = sum_x (n_x / p_x) P_x
    (Rehacek et al., PRA 75, 042108 (2007)).
    -H / 2, half the negative Hessian of f, is the Gram matrix of the
    Jacobian rows sqrt(2 n_x) / p_x (c_x (x) phi_x), with c_x = <phi_x|a>,
    less the real form of (R - N I) (x) I_r. The Gram matrix is formed in
    single precision, which halves the largest arrays of a reconstruction:
    it only shapes the step, whose gain is checked in double precision. The
    damped matrix -H / 2 + damping N I must pass a Cholesky factorisation,
    which keeps the model concave; each failure raises the damping tenfold.
    The step is taken, with the new factor scaled to unit trace, only if the
    normalised log-likelihood rises, and the damping then falls tenfold, down
    to DAMPING_MIN; a rejected step raises it tenfold. Every candidate is a
    congruence a a^dag, so PSD and unit trace hold by construction.
    After a kept step whose predicted gain was below REUSE_GAIN, the next
    iteration is a chord step: it solves the last damped matrix, already
    certified, against the new gradient, and builds no Jacobian. Near the
    maximum that step is nearly Newton's, and it is usually the last one,
    whose predicted gain falls below LL_TOL.

    One stop rule: once the model predicts a gain below LL_TOL, the state is
    the maximum only if it meets the KKT condition R / N <= I, which bounds
    the likelihood gap by N (lambda_max(R / N) - 1) (Glancy, Knill and
    Girard, NJP 14, 095017 (2012)). lambda_max(R / N) <= 1 + KKT_TOL is
    certified by a Cholesky factorisation, with no eigensolve, at every rank.
    If the certificate fails below full rank, the top eigenvector of R, the
    steepest uphill direction off the current support, joins the factor as a
    new column of weight GROWTH_WEIGHT; at full rank the damping resets.
    Either way the ascent goes on. So a reconstruction makes one eigensolve
    (the start) plus one per rank growth. Flagged as not converged after
    MAX_STEPS iterations. The state is returned as the final factor a.
    """
    counts = dataset.counts.ravel()
    n_total = float(counts.sum())

    # the estimate is a real combination of the Hermitian duals D_x, so it
    # needs no Hermitian check; its spectrum sums to 1, so its top eigenvalue
    # is at least 1/4 > 0
    values, vectors = np.linalg.eigh(_linear_inversion(dataset))
    rank = max(1, int(np.count_nonzero(values > -values[0])))
    top = values[4 - rank:]
    theta = (vectors[:, 4 - rank:] * np.sqrt(top / top.sum())).T.copy().view(float).ravel()
    del values, vectors, top

    # the current factor's amplitudes and probabilities are carried across
    # iterations, and its log-likelihood as the gain since the start
    c, p_cur = _amplitudes(theta)
    ll_start = math.fsum(counts * np.log(p_cur))
    f_cur = 0.0
    damping = DAMPING_START
    converged = False
    iterations = 0
    reuse = None
    for iterations in range(1, MAX_STEPS + 1):
        m = theta.size  # 8 r real parameters
        fresh = reuse is None
        if fresh:
            # The Jacobian and the Hessian are the largest arrays of a
            # reconstruction, and the live arrays while they coexist set the
            # peak memory of a tomography run: every array is dropped as soon
            # as it is dead, and rows are scaled by batched products, which
            # allocate no broadcast buffer.
            jac = (np.sqrt(2.0 * counts) / p_cur)[:, None, None] @ c[:, None, :]
            del c
            jac = jac.astype(np.complex64).transpose(0, 2, 1) @ _KET_ROWS
            jac = jac.view(np.float32).reshape(36, m)
            hess = np.dot(jac.T, jac)
            del jac
            hess = hess.astype(float)
            real_form = _gradient_form(counts, p_cur, n_total)
            grad = theta.reshape(-1, 8) @ real_form
            for k in range(0, m, 8):
                hess[k:k + 8, k:k + 8] -= real_form
            del real_form
            hess.reshape(-1)[::m + 1] += damping * n_total
            while True:
                try:
                    np.linalg.cholesky(hess)
                    break
                except np.linalg.LinAlgError:
                    hess.reshape(-1)[::m + 1] += 9.0 * damping * n_total
                    damping *= 10.0
        else:
            # a chord step: the last model's certified matrix with the
            # current gradient; with no Jacobian, the amplitudes go unused
            hess = reuse
            del c
            grad = theta.reshape(-1, 8) @ _gradient_form(counts, p_cur, n_total)
        step = np.linalg.solve(hess, grad.ravel())
        predicted = float(np.vdot(grad, step))
        del grad
        reuse = hess if fresh and LL_TOL <= predicted < REUSE_GAIN else None
        del hess
        if predicted >= LL_TOL:
            step += theta
            step /= math.sqrt(step @ step)
            c, p_new = _amplitudes(step)
            # Near the optimum the absolute log-likelihood is ~1e6, where one
            # float ulp exceeds the 1e-10 convergence tolerance; the ratio
            # form is O(1e2) at most and resolves it.
            uphill = float(counts @ np.log(p_new / p_cur))
            if uphill > 0.0:
                theta, p_cur, f_cur = step, p_new, f_cur + uphill
                damping = max(0.1 * damping, DAMPING_MIN)
            else:
                reuse = None
                c = _amplitudes(theta)[0]
                damping *= 10.0
            continue
        # the 36 projectors sum to 9 I, so (1 + KKT_TOL) I - R / N is one
        # more weighted sum of them
        slack = (((1.0 + KKT_TOL) / 9.0 - counts / (n_total * p_cur)) @ _ROWS).reshape(4, 4)
        try:
            np.linalg.cholesky(slack)
            converged = True
            break
        except np.linalg.LinAlgError:
            pass
        damping = DAMPING_START
        if m < 32:
            # below full rank the lowest eigenvector of the slack, the top one
            # of R, joins the factor
            top = np.linalg.eigh(slack)[1][:, :1].T
            theta = np.concatenate([math.sqrt(1.0 - GROWTH_WEIGHT) * _columns(theta),
                                    math.sqrt(GROWTH_WEIGHT) * top]).view(float).ravel()
            del top
        del slack
        c, p_new = _amplitudes(theta)
        f_cur += float(counts @ np.log(p_new / p_cur))
        p_cur = p_new
    return Reconstruction(
        state=states.CheckedState.from_factor(_columns(theta).T),
        log_likelihood=ll_start + f_cur,
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
