"""Local polarization measurements and count-record simulation.

A setting is a pair of single-qubit bases from {HV, DA, RL}, named by its
"A,B" label (SETTINGS holds the nine, DA_DA the estimators' one); each setting
has four joint projective outcomes ordered (++, +-, -+, --) where "+" is the
first basis vector (H, D or R). A count record is one exact multinomial draw
from a counter-based stream (streams.RandomStream.multinomial, which checks
the shot count and renormalises the law), so its cost does not depend on the
shot count and a (master_seed, run_index) pair pins every record exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore, states
from .errors import DomainError, shown
from .streams import MAX_SHOTS, RandomStream

HV = "HV"
DA = "DA"
RL = "RL"
BASES = (HV, DA, RL)

_KETS = {
    HV: (np.array([1.0, 0.0], dtype=complex),
         np.array([0.0, 1.0], dtype=complex)),
    DA: (np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
         np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)),
    RL: (np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
         np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)),
}

OUTCOME_LABELS = ("pp", "pm", "mp", "mm")


def basis_kets(basis: str) -> tuple[np.ndarray, np.ndarray]:
    """(plus, minus) single-qubit kets of a basis label."""
    if basis not in _KETS:
        raise DomainError(f"unknown basis {basis!r}, expected one of {BASES}")
    return _KETS[basis]


# the nine settings of the tomography design, in (HV, DA, RL) x (HV, DA, RL) order
SETTINGS = tuple(f"{a},{b}" for a in BASES for b in BASES)
DA_DA = "DA,DA"


def _setting_row(setting: str) -> int:
    """Row of a setting label in SETTINGS and PROJECTORS."""
    if setting not in SETTINGS:
        raise DomainError(f"unknown setting {setting!r}, expected one of {SETTINGS}")
    return SETTINGS.index(setting)


def _outer(kets: np.ndarray) -> np.ndarray:
    """|k><k| of each ket on the last axis."""
    projs = np.einsum("...i,...j->...ij", kets, kets.conj())
    projs.setflags(write=False)
    return projs


_BASIS_KETS = np.array([basis_kets(b) for b in BASES])  # (basis, sign, 2)

# (basis, sign, 2, 2): the single-qubit projectors (I +- sigma) / 2
QUBIT_PROJECTORS = _outer(_BASIS_KETS)

# (9, 4, 4): the ket of each joint outcome, rows in SETTINGS order, outcomes
# (++, +-, -+, --); read-only
PROJECTOR_KETS = np.einsum("asi,btj->abstij", _BASIS_KETS, _BASIS_KETS).reshape(9, 4, 4)
PROJECTOR_KETS.setflags(write=False)

# (9, 4, 4, 4): the four joint projectors of each setting, |k><k| of
# PROJECTOR_KETS; built once and shared read-only
PROJECTORS = _outer(PROJECTOR_KETS)

_SETTING_PROJECTORS = tuple(PROJECTORS)


def setting_projectors(setting: str) -> np.ndarray:
    """Four rank-1 joint projectors of a setting, ordered (++, +-, -+, --).

    Returned as a read-only (4, 4, 4) view of PROJECTORS shared by all callers.
    """
    return _SETTING_PROJECTORS[_setting_row(setting)]


@dataclass
class OutcomeCounts:
    """Shot counts for one setting, stored as Python ints.

    The one check of a count: each must be an int, float or NumPy
    integer/floating (not a bool) holding a non-negative integer, and the
    total at most MAX_SHOTS; anything else, a counts-file value included,
    raises DomainError.
    """

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int

    def __post_init__(self):
        for label, v in zip(OUTCOME_LABELS, self.as_tuple()):
            if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
                raise DomainError(f"count n_{label}={shown(v)} is not a number")
            # NaN fails 0 <= v; an int past float range still compares to inf
            if not 0 <= v < np.inf or int(v) != v:
                raise DomainError(f"count n_{label}={shown(v)} is not a non-negative integer")
        self.n_pp, self.n_pm, self.n_mp, self.n_mm = map(int, self.as_tuple())
        if self.n > MAX_SHOTS:
            raise DomainError(f"count total {shown(self.n)} exceeds 2**63 - 1 shots")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n_pp, self.n_pm, self.n_mp, self.n_mm)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple(), dtype=float)

    @property
    def n(self) -> int:
        return sum(self.as_tuple())


def probabilities(rho: np.ndarray | states.CheckedState) -> np.ndarray:
    """(9, 4) outcome probabilities p_x = Tr(rho P_x), rows in SETTINGS order.

    rho is validated, unless it is a states.CheckedState; each row must sum
    to 1 after clipping to [0, 1].
    """
    rho = states.validate_density_matrix(rho)
    probs = np.clip(np.einsum("ij,axji->ax", rho, PROJECTORS).real, 0.0, 1.0)
    totals = probs.sum(axis=1)
    if np.any(np.abs(totals - 1.0) > matcore.ROUND_OFF_TOL):
        raise DomainError(f"setting probabilities sum to {totals!r}")
    return probs


def outcome_probabilities(rho: np.ndarray, setting: str) -> np.ndarray:
    """The four outcome probabilities of one setting, its row of probabilities."""
    return probabilities(rho)[_setting_row(setting)]


def sample_counts(rho: np.ndarray, setting: str, n: int,
                  stream: RandomStream) -> OutcomeCounts:
    """n multinomial shots of a setting on a state."""
    return OutcomeCounts(*stream.multinomial(n, outcome_probabilities(rho, setting)).tolist())


def mixture_law(counts_pure: np.ndarray, counts_mix: np.ndarray,
                p: float | np.ndarray) -> np.ndarray:
    """Per-shot law p*f_pure + (1-p)*f_mix of (..., 4) count records.

    p is one weight for every record or an array of one weight per record
    (the records' leading shape); every weight must lie in [0, 1].
    """
    w = np.asarray(p, dtype=float)
    if not np.all((0.0 <= w) & (w <= 1.0)):  # NaN fails both
        raise DomainError(f"mixing weight out of range: {p!r}")
    w = w[..., None]
    n_pure = np.sum(counts_pure, axis=-1, keepdims=True)
    n_mix = np.sum(counts_mix, axis=-1, keepdims=True)
    if np.any(n_pure < 1) or np.any(n_mix < 1):
        raise DomainError("cannot mix empty count records")
    return w * counts_pure / n_pure + (1.0 - w) * counts_mix / n_mix


def mix_counts(counts_pure: OutcomeCounts, counts_mix: OutcomeCounts, p: float,
               stream: RandomStream) -> OutcomeCounts:
    """Post-process two count records into a statistical mixture.

    Each output shot comes from the pure record's empirical distribution with
    probability p, otherwise from the mixed record's, independently and with
    replacement; the total is preserved at counts_pure.n. Those shots are
    i.i.d. with law p*f_pure + (1-p)*f_mix, so the whole record is one
    multinomial draw of that law, with the statistical character of a single
    mixed-state run.
    """
    law = mixture_law(counts_pure.as_array(), counts_mix.as_array(), p)
    return OutcomeCounts(*stream.multinomial(counts_pure.n, law).tolist())


def counts_record(counts: OutcomeCounts, setting: str, seed: int) -> dict:
    """JSON-friendly record of one count dataset."""
    _setting_row(setting)
    return {
        "setting": setting,
        "n_pp": counts.n_pp,
        "n_pm": counts.n_pm,
        "n_mp": counts.n_mp,
        "n_mm": counts.n_mm,
        "seed": seed,
    }


def counts_from_record(record: dict) -> tuple[OutcomeCounts, str]:
    """Counts and setting label of a record, its counts checked by
    OutcomeCounts. The label is normalised, each basis stripped and
    upper-cased, and must then be one of SETTINGS."""
    if not isinstance(record, dict):
        raise DomainError(f"counts record must be a JSON object, got {type(record).__name__}")
    try:
        counts = OutcomeCounts(*(record[f"n_{label}"] for label in OUTCOME_LABELS))
    except KeyError as exc:
        raise DomainError(f"counts record missing key {exc}") from exc
    label = record.get("setting", DA_DA)
    if not isinstance(label, str):
        raise DomainError(f"bad setting label {label!r}")
    setting = ",".join(part.strip().upper() for part in label.split(","))
    _setting_row(setting)
    return counts, setting
