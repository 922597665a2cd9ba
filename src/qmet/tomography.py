"""Two-qubit state tomography from 9 local settings (36 projectors).

The setting grid is {HV, DA, RL} x {HV, DA, RL}; its 36 rank-1 projectors
form an (overcomplete) informationally complete design of rank 16. Two
reconstructors are provided:

* linear inversion: least squares on the design matrix applied to empirical
  frequencies. Exact on exact data but not guaranteed PSD (flagged).
* maximum likelihood: rho = T^dag T / Tr(T^dag T) over lower-triangular
  complex T (16 real parameters, PSD and unit trace by construction),
  maximizing the multinomial log-likelihood by derivative-free coordinate
  ascent restarted from the projected linear-inversion state.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore, measurement, states
from .errors import DomainError
from .streams import RandomStream

PROB_FLOOR = 1e-12
LL_TOL = 1e-10
MAX_SWEEPS = 5000
LI_PSD_TOL = -1e-6


def standard_settings() -> list[measurement.Setting]:
    """The 9 joint settings in fixed (HV, DA, RL) x (HV, DA, RL) order."""
    return [measurement.Setting(a, b)
            for a in measurement.BASES for b in measurement.BASES]


@dataclass
class TomoDataset:
    """Counts for a list of settings; rows follow the settings order.

    counts rows are non-negative reals: integers for measured data, possibly
    fractional for exact-probability (infinite-shot) injections.
    """

    settings: list[measurement.Setting]
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (len(self.settings), 4):
            raise DomainError(f"counts shape {self.counts.shape} does not match "
                              f"{len(self.settings)} settings")
        if np.any(self.counts < 0.0):
            raise DomainError("negative counts in dataset")
        if np.any(self.counts.sum(axis=1) <= 0.0):
            raise DomainError("a setting has zero total counts")

    @property
    def n_per_setting(self) -> np.ndarray:
        return self.counts.sum(axis=1)


def simulate_tomography(rho: np.ndarray, n_per_setting: int,
                        stream: RandomStream) -> TomoDataset:
    """Sample every standard setting n_per_setting times, advancing one stream."""
    settings = standard_settings()
    rows = []
    for setting in settings:
        c = measurement.sample_counts(rho, setting, n_per_setting, stream)
        rows.append(c.as_array())
    return TomoDataset(settings, np.array(rows))


def exact_dataset(rho: np.ndarray, n_per_setting: float = 1.0) -> TomoDataset:
    """Noiseless limit: probabilities scaled by n injected as fractional counts."""
    settings = standard_settings()
    rows = [measurement.outcome_probabilities(rho, s).as_array() * n_per_setting
            for s in settings]
    return TomoDataset(settings, np.array(rows))


def dataset_to_json(dataset: TomoDataset) -> str:
    records = []
    for setting, row in zip(dataset.settings, dataset.counts):
        rec = {"basis_a": setting.basis_a, "basis_b": setting.basis_b}
        for label, v in zip(measurement.OUTCOME_LABELS, row):
            rec[f"n_{label}"] = int(v) if float(v).is_integer() else float(v)
        records.append(rec)
    return json.dumps(records, indent=1)


def dataset_from_json(text: str) -> TomoDataset:
    try:
        records = json.loads(text)
        settings = [measurement.Setting(r["basis_a"], r["basis_b"]) for r in records]
        counts = np.array([[r[f"n_{label}"] for label in measurement.OUTCOME_LABELS]
                           for r in records], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed tomography dataset: {exc}") from exc
    return TomoDataset(settings, counts)


@dataclass
class Reconstruction:
    """Reconstructed state plus bookkeeping from one reconstruction run."""

    method: str
    rho_hat: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool = True
    psd_ok: bool = True
    min_eigenvalue: float = 0.0
    settings: list[measurement.Setting] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "method": self.method,
            "real": np.round(self.rho_hat.real, 12).tolist(),
            "imag": np.round(self.rho_hat.imag, 12).tolist(),
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
            "psd_ok": self.psd_ok,
        }, indent=1)


def _design_matrix(settings: list[measurement.Setting]) -> np.ndarray:
    """(4 * n_settings, 16) map from vec(rho) to outcome probabilities."""
    rows = []
    for setting in settings:
        for proj in measurement.setting_projectors(setting):
            rows.append(proj.T.ravel())
    return np.array(rows)


_HERM_BASIS = []
for _i in range(4):
    _m = np.zeros((4, 4), dtype=complex)
    _m[_i, _i] = 1.0
    _HERM_BASIS.append(_m)
for _i in range(4):
    for _j in range(_i + 1, 4):
        _m = np.zeros((4, 4), dtype=complex)
        _m[_i, _j] = _m[_j, _i] = 1.0
        _HERM_BASIS.append(_m)
        _m = np.zeros((4, 4), dtype=complex)
        _m[_i, _j] = -1.0j
        _m[_j, _i] = 1.0j
        _HERM_BASIS.append(_m)


def project_physical(rho: np.ndarray) -> np.ndarray:
    """Nearest PSD unit-trace state: clip negative eigenvalues, renormalize."""
    rho = matcore.require_hermitian(rho, tol=1e-8)
    eig = matcore.hermitian_eig(rho)
    vals = np.clip(eig.values, 0.0, None)
    if vals.sum() <= 0.0:
        raise DomainError("state projection collapsed to zero")
    vals /= vals.sum()
    return (eig.vectors * vals) @ eig.vectors.conj().T


def _log_likelihood(counts: np.ndarray, probs: np.ndarray) -> float:
    return float(np.sum(counts.ravel() * np.log(np.clip(probs, PROB_FLOOR, None))))


def reconstruct_linear(dataset: TomoDataset) -> Reconstruction:
    """Least-squares inversion of the projector design on empirical frequencies."""
    design = _design_matrix(dataset.settings)
    freqs = (dataset.counts / dataset.n_per_setting[:, None]).ravel()
    basis_vecs = np.array([b.ravel() for b in _HERM_BASIS]).T  # (16, 16)
    real_design = (design @ basis_vecs).real  # (36, 16) real by hermiticity
    coeffs, *_ = np.linalg.lstsq(real_design, freqs, rcond=None)
    rho = sum(c * b for c, b in zip(coeffs, _HERM_BASIS))
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    min_eig = float(np.min(matcore.hermitian_eig(rho).values))
    probs = (design @ project_physical(rho).ravel()).real
    return Reconstruction(
        method="linear_inversion",
        rho_hat=rho,
        log_likelihood=_log_likelihood(dataset.counts, probs),
        iterations=0,
        converged=True,
        psd_ok=min_eig >= LI_PSD_TOL,
        min_eigenvalue=min_eig,
        settings=list(dataset.settings),
    )


# --- MLE ---------------------------------------------------------------------

START_SMOOTHING = 1e-3


def reconstruct_mle(dataset: TomoDataset, max_sweeps: int = MAX_SWEEPS,
                    ll_tol: float = LL_TOL) -> Reconstruction:
    """Maximum-likelihood state by monotone multiplicative fixed-point ascent.

    Starting from the (projected, slightly smoothed) linear-inversion state,
    iterate rho <- R rho R / Tr(...) with R = (1/N) sum_x (n_x / p_x) P_x,
    whose fixed points are the stationary points of the multinomial
    log-likelihood. A step that fails to increase the likelihood is diluted
    toward the identity until it does. PSD and unit trace hold by
    construction at every step. Converged when a step gains less than ll_tol
    in log-likelihood; flagged otherwise after max_sweeps steps.
    """
    design = _design_matrix(dataset.settings)
    counts = dataset.counts.ravel()
    projectors = np.array([proj for setting in dataset.settings
                           for proj in measurement.setting_projectors(setting)])
    n_total = counts.sum()
    eye = np.eye(4, dtype=complex)

    start = project_physical(reconstruct_linear(dataset).rho_hat)
    # full-rank start: the multiplicative update cannot grow the rank,
    # so a rank-deficient start with misaligned support could never leave it
    rho = (1.0 - START_SMOOTHING) * start + START_SMOOTHING * eye / 4.0

    # Likelihood is tracked relative to the start point as
    # sum n_x log(p_x / p_ref_x) with exact summation. Near the optimum the
    # absolute log-likelihood is ~1e6 where one float ulp exceeds the 1e-10
    # convergence tolerance; the relative form is O(1e2) and resolves it.
    p_ref = np.clip((design @ rho.ravel()).real, PROB_FLOOR, None)
    ll_ref = math.fsum(counts * np.log(p_ref))

    def ll(rho: np.ndarray) -> float:
        probs = (design @ rho.ravel()).real
        return math.fsum(counts * np.log(np.clip(probs, PROB_FLOOR, None) / p_ref))

    def stepped(rho: np.ndarray, r: np.ndarray) -> np.ndarray:
        cand = r @ rho @ r
        cand = 0.5 * (cand + cand.conj().T)
        return cand / np.trace(cand).real

    f_cur = ll(rho)
    converged = False
    iterations = 0
    for iterations in range(1, max_sweeps + 1):
        probs = np.clip((design @ rho.ravel()).real, PROB_FLOOR, None)
        r = np.tensordot(counts / probs, projectors, axes=1) / n_total
        cand = stepped(rho, r)
        f_try = ll(cand)
        if f_try <= f_cur:
            # dilute toward the identity until the step is uphill
            eps = 0.5
            while eps > 1e-6:
                cand = stepped(rho, (1.0 - eps) * eye + eps * r)
                f_try = ll(cand)
                if f_try > f_cur:
                    break
                eps *= 0.5
            else:
                converged = True
                break
        gain = f_try - f_cur
        rho, f_cur = cand, f_try
        if gain < ll_tol:
            converged = True
            break
    return Reconstruction(
        method="mle",
        rho_hat=rho,
        log_likelihood=ll_ref + f_cur,
        iterations=iterations,
        converged=converged,
        psd_ok=True,
        min_eigenvalue=float(np.min(matcore.hermitian_eig(rho).values)),
        settings=list(dataset.settings),
    )


@dataclass
class TomoReport:
    """Fidelity to a reference state, family fit and measures of a reconstruction."""

    fidelity: float
    fit: states.FamilyFit
    measures: dict[str, float]


def tomo_report(rho_true: np.ndarray, recon: Reconstruction) -> TomoReport:
    rho_hat = project_physical(recon.rho_hat)
    return TomoReport(
        fidelity=states.fidelity(rho_true, rho_hat),
        fit=states.fit_family_params(rho_hat),
        measures=states.measures(rho_hat),
    )
