import itertools

import numpy as np
import pytest

from qmet import estimation as est
from qmet import measurement as ms
from qmet import states
from qmet.errors import DomainError
from qmet.streams import RandomStream

LN2 = np.log(2.0)
RNG = np.random.default_rng(60611)
N, L, C, Q = states.NEGATIVITY, states.LOG_NEGATIVITY, states.CONCURRENCE, states.QGD
NONOPT, OPT = est.NONOPTIMAL, est.OPTIMAL
ALL_ESTIMATORS = list(itertools.product(states.MEASURE_KINDS, est.VARIANTS))


def counts(a, b, c, d):
    return ms.OutcomeCounts(a, b, c, d)


def value(kind, variant, c, **kw):
    return est.estimate(kind, variant, c, **kw).value


# --- estimator point values (frozen) -----------------------------------------

def test_negativity_estimators_frozen():
    assert value(N, NONOPT, counts(100, 400, 400, 100)) == pytest.approx(0.6, abs=1e-12)
    assert value(N, OPT, counts(100, 400, 400, 100)) == pytest.approx(0.6, abs=1e-12)
    assert value(N, NONOPT, counts(0, 500, 500, 0)) == pytest.approx(1.0, abs=1e-12)
    assert value(N, OPT, counts(250, 250, 250, 250)) == pytest.approx(0.0, abs=1e-12)


def test_log_negativity_estimators_frozen():
    r = est.estimate(L, NONOPT, counts(125, 375, 375, 125))
    assert r.value == pytest.approx(np.log2(1.5), abs=1e-12)
    assert not r.clamped
    assert value(L, OPT, counts(0, 500, 500, 0)) == pytest.approx(1.0, abs=1e-12)
    assert value(L, OPT, counts(250, 250, 250, 250)) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_estimators_relabel_negativity():
    c = counts(100, 400, 400, 100)
    assert value(C, NONOPT, c) == value(N, NONOPT, c)
    assert value(C, OPT, c) == value(N, OPT, c)
    assert est.estimate(C, OPT, c).kind == states.CONCURRENCE


def test_qgd_estimators_frozen():
    assert value(Q, NONOPT, counts(100, 400, 400, 100)) == pytest.approx(0.18, abs=1e-12)
    assert value(Q, OPT, counts(0, 500, 500, 0)) == pytest.approx(0.5, abs=1e-12)


def test_log_clamp_floors_at_minus_twenty():
    r = est.estimate(L, NONOPT, counts(500, 0, 0, 500))
    assert r.value == -20.0
    assert r.clamped
    assert r.value_clamped == 0.0
    r2 = est.estimate(L, OPT, counts(500, 0, 0, 500))
    assert r2.value == -20.0 and r2.clamped


def test_raw_value_reported_with_clamped_companion():
    r = est.estimate(N, NONOPT, counts(1000, 0, 0, 0))
    assert r.value == pytest.approx(-3.0)
    assert r.value_clamped == 0.0
    assert r.clamped
    # theory curves are evaluated at the clamped companion
    assert r.theory_unc_single_shot == pytest.approx(np.sqrt(3.0), abs=1e-12)


def test_curves_are_evaluated_at_the_clamped_estimate():
    r = est.estimate(N, OPT, counts(100, 400, 400, 100))
    assert r.qcrb_unc_single_shot == pytest.approx(np.sqrt(1 - 0.36), abs=1e-12)


def test_estimate_dispatch_and_record():
    r = est.estimate(states.QGD, est.OPTIMAL, counts(100, 400, 400, 100))
    rec = r.to_record()
    assert rec["kind"] == "qgd" and rec["variant"] == "optimal"
    assert set(rec) == {"kind", "variant", "value", "n_shots", "unc_theory",
                        "unc_qcrb", "clamped"}
    with pytest.raises(DomainError):
        est.estimate("negativity", "fancy", counts(1, 1, 1, 1))
    with pytest.raises(DomainError):
        est.estimate("entropy", OPT, counts(1, 1, 1, 1))


def test_estimate_off_half_clips_reference_to_reach():
    # a pure-endpoint record at q = 0.2 reads N = 1 > 2 sqrt(0.16) = 0.8
    r = est.estimate(N, OPT, counts(0, 500, 500, 0), q=0.2)
    assert r.value == 1.0 and not r.clamped
    assert r.theory_unc_single_shot == pytest.approx(0.6, abs=1e-12)
    assert r.qcrb_unc_single_shot == pytest.approx(0.0, abs=1e-6)
    r = est.estimate(L, NONOPT, counts(100, 400, 400, 100), q=0.2)
    n = 0.6
    assert r.qcrb_unc_single_shot == pytest.approx(
        np.sqrt(0.64 - n * n) / ((1.0 + n) * LN2), abs=1e-12)
    assert r.theory_unc_single_shot == pytest.approx(
        np.sqrt(3.0 - 2.0 * n - n * n) / ((1.0 + n) * LN2), abs=1e-12)


# --- theory curves (frozen + identities) ---------------------------------------

def test_qcrb_curves_frozen():
    assert est.qcrb_curves(states.NEGATIVITY, 0.0) == pytest.approx(1.0)
    assert est.qcrb_curves(states.NEGATIVITY, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert est.qcrb_curves(states.NEGATIVITY, 0.5) == pytest.approx(0.75)
    assert est.qcrb_curves(states.LOG_NEGATIVITY, 0.0) == pytest.approx(2.0813689810056077, abs=1e-12)
    assert est.qcrb_curves(states.QGD, 0.125) == pytest.approx(0.1875, abs=1e-15)
    assert est.qcrb_curves(states.CONCURRENCE, 0.5) == pytest.approx(0.75)
    # off q = 1/2 the bound is QCRB_N(q) = 4q(1-q) - N^2
    assert est.qcrb_curves(states.NEGATIVITY, 0.5, q=0.2) == pytest.approx(0.39, abs=1e-12)
    assert est.qcrb_curves(states.NEGATIVITY, 0.8, q=0.2) == pytest.approx(0.0, abs=1e-12)
    assert est.qcrb_curves(states.QGD, 0.125, q=0.3) == pytest.approx(
        (0.84 - 0.25) * 0.25, abs=1e-12)
    assert est.qcrb_unc(states.NEGATIVITY, 0.0, q=0.2) == pytest.approx(0.8, abs=1e-12)


def test_nonopt_unc_curves_frozen():
    assert est.nonopt_unc_curves(states.NEGATIVITY, 0.0) == pytest.approx(np.sqrt(3.0), abs=1e-15)
    assert est.nonopt_unc_curves(states.NEGATIVITY, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert est.nonopt_unc_curves(states.QGD, 0.125) == pytest.approx(0.6614378277661477, abs=1e-12)
    assert est.nonopt_unc_curves(states.LOG_NEGATIVITY, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_curves_reject_out_of_range():
    with pytest.raises(DomainError):
        est.qcrb_curves(states.NEGATIVITY, 1.2)
    with pytest.raises(DomainError):
        est.nonopt_unc_curves(states.QGD, 0.6)
    with pytest.raises(DomainError):
        est.qcrb_curves("entropy", 0.1)
    # N = 0.9 lies beyond the family's reach 2 sqrt(q(1-q)) = 0.8 at q = 0.2
    with pytest.raises(DomainError):
        est.qcrb_curves(states.NEGATIVITY, 0.9, q=0.2)
    with pytest.raises(DomainError):
        est.qcrb_unc(states.LOG_NEGATIVITY, np.log2(1.9), q=0.2)
    with pytest.raises(DomainError):
        est.qcrb_unc(states.NEGATIVITY, 0.1, q=1.5)


def test_curves_take_arrays():
    values = np.linspace(0.0, 0.5, 7)
    for kind in states.MEASURE_KINDS:
        for curve in (est.nonopt_unc_curves, est.qcrb_unc):
            assert np.array_equal(curve(kind, values),
                                  [curve(kind, float(v)) for v in values])


def test_log_and_qgd_curves_are_delta_method_images():
    # exact reparameterization identities against the negativity curves
    for n in np.linspace(0.0, 0.999, 20):
        l = np.log2(1.0 + n)
        q = 0.5 * n * n
        dl_dn = 1.0 / ((1.0 + n) * LN2)
        assert est.qcrb_curves(states.LOG_NEGATIVITY, l) == pytest.approx(
            est.qcrb_curves(states.NEGATIVITY, n) * dl_dn ** 2, abs=1e-9)
        assert est.nonopt_unc_curves(states.LOG_NEGATIVITY, l) == pytest.approx(
            est.nonopt_unc_curves(states.NEGATIVITY, n) * dl_dn, abs=1e-9)
        assert est.qcrb_curves(states.QGD, q) == pytest.approx(
            est.qcrb_curves(states.NEGATIVITY, n) * n ** 2, abs=1e-9)
        assert est.nonopt_unc_curves(states.QGD, q) == pytest.approx(
            est.nonopt_unc_curves(states.NEGATIVITY, n) * n, abs=1e-9)


THEORY_QS = (0.0, 0.2, 0.3, 0.5, 0.7, 1.0)


@pytest.mark.parametrize("kind", states.MEASURE_KINDS)
@pytest.mark.parametrize("q", THEORY_QS)
def test_theory_matches_the_curves_of_measure_values(kind, q):
    n = np.linspace(0.0, est._reach(q), 201)
    value, nonopt, _, qcrb = est.theory(kind, n, q)
    truth = states.MEASURES[kind].from_n(n)
    np.testing.assert_allclose(value, truth, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(nonopt, est.nonopt_unc_curves(kind, truth), rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(qcrb, est.qcrb_unc(kind, truth, q), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", states.MEASURE_KINDS)
@pytest.mark.parametrize("q", THEORY_QS)
def test_theory_orders_the_three_curves(kind, q):
    # with s = 2 sqrt(q(1-q)) <= 1 and 0 <= N <= s,
    # s^2 - N^2 <= 1 - N^2 <= 3 - 2N - N^2; at q = 1/2 the QCRB, written as
    # (s - N)(s + N), may round above the optimal sd by a few ulps
    _, nonopt, opt, qcrb = est.theory(kind, np.linspace(0.0, est._reach(q), 201), q)
    assert np.all(qcrb <= opt + 1e-12)
    assert np.all(opt <= nonopt)


def test_estimate_result_is_a_value_record():
    r = est.estimate(N, OPT, counts(100, 400, 400, 100))
    assert isinstance(r, tuple)
    assert est.EstimateResult._fields == (
        "kind", "variant", "value", "value_clamped", "n_shots",
        "theory_unc_single_shot", "qcrb_unc_single_shot", "clamped")


def test_qcrb_never_exceeds_theory_uncertainty():
    for r in range(30):
        p = float(r) / 29.0
        c = ms.sample_counts(states.family_state(p, 0.5), ms.DA_DA, 500,
                             RandomStream(871, r))
        for kind, variant in ALL_ESTIMATORS:
            res = est.estimate(kind, variant, c)
            assert res.qcrb_unc_single_shot <= res.theory_unc_single_shot + 1e-12
            if variant == est.OPTIMAL:
                assert res.qcrb_unc_single_shot == pytest.approx(
                    res.theory_unc_single_shot, abs=1e-15)


def test_estimators_unbiased_small_monte_carlo():
    # light-budget check; the acceptance suite runs the full-budget version
    p_true = 0.6
    rho = states.family_state(p_true, 0.5)
    vals = {key: [] for key in ALL_ESTIMATORS}
    for r in range(300):
        c = ms.sample_counts(rho, ms.DA_DA, 2000, RandomStream(99, r))
        for kind, variant in ALL_ESTIMATORS:
            vals[(kind, variant)].append(value(kind, variant, c))
    truth = {
        states.NEGATIVITY: 0.6,
        states.CONCURRENCE: 0.6,
        states.LOG_NEGATIVITY: np.log2(1.6),
        states.QGD: 0.18,
    }
    for (kind, variant), v in vals.items():
        v = np.array(v)
        se = v.std(ddof=1) / np.sqrt(len(v))
        assert abs(v.mean() - truth[kind]) <= 5 * se + 2e-3, (kind, variant)


# --- array kernel against the per-record estimator ---------------------------------

def _kernel_records() -> np.ndarray:
    sampled = np.concatenate([
        RNG.multinomial(n, RNG.dirichlet(np.ones(4)), size=40)
        for n in (1, 2, 7, 100, 10_000)])
    edges = np.array([
        [500, 0, 0, 0],   # all ++: log floor, and clamping at both ends
        [9, 0, 0, 0],
        [0, 500, 500, 0],
        [250, 250, 250, 250],
        [0, 0, 0, 9],
        [5, 1, 2, 2],     # f_pp = 1/2: the non-optimal log floor alone
        [3, 0, 0, 3],     # v = -1 in both variants
        [1, 23, 0, 0],    # f_pp < 1/16: see ORACLE_ULPS
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],  # n = 1
    ])
    return np.concatenate([sampled, edges])


def _reference_estimate(kind, variant, record) -> tuple[float, bool]:
    """Raw estimate and log-floor flag of one record, each kind's formula
    written out in plain float arithmetic."""
    n = sum(record)
    f = [c / n for c in record]
    v = 1.0 - 4.0 * f[0] if variant == est.NONOPTIMAL else f[1] + f[2] - f[0] - f[3]
    if kind == states.LOG_NEGATIVITY:
        arg = 2.0 - 4.0 * f[0] if variant == est.NONOPTIMAL else 1.0 + v
        if arg <= 0.0:
            return float(np.log2(est.LOG_CLAMP)), True
        return float(np.log2(arg)), False
    if kind == states.QGD:
        return 0.5 * v * v, False
    return v, False


# The kernel takes log2(1 + v) of the rounded v = 1 - 4 f_pp where the oracle
# takes log2(2 - 4 f_pp) in one rounding: for f_pp < 1/16 the two can differ
# by up to 2 ulps. Every other estimate is the oracle's bit for bit.
ORACLE_ULPS = {(states.LOG_NEGATIVITY, est.NONOPTIMAL): 2}


@pytest.mark.parametrize("kind,variant", ALL_ESTIMATORS)
def test_array_kernel_matches_the_per_kind_oracle(kind, variant):
    # the sampled and edge records, and every (n, n_pp) split up to n = 64
    grid = [[n_pp, n - n_pp, 0, 0] for n in range(1, 65) for n_pp in range(n + 1)]
    records = np.concatenate([_kernel_records(), grid])
    raw, floored = est.estimator_values(kind, variant, records)
    reference = [_reference_estimate(kind, variant, r.tolist()) for r in records]
    expected = np.array([value for value, _ in reference])
    ulps = np.abs(raw - expected) / np.spacing(np.abs(expected))
    assert ulps.max() <= ORACLE_ULPS.get((kind, variant), 0)
    assert floored.tolist() == [flag for _, flag in reference]


@pytest.mark.parametrize("kind,variant", ALL_ESTIMATORS)
def test_array_kernel_matches_estimate_bitwise(kind, variant):
    records = _kernel_records()
    raw, floored = est.estimator_values(kind, variant, records)
    value_clamped = est.clip_to_range(kind, raw)
    clamped = floored | (value_clamped != raw)
    scalar = [est.estimate(kind, variant, counts(*map(int, r))) for r in records]
    assert raw.tobytes() == np.array([r.value for r in scalar]).tobytes()
    assert value_clamped.tobytes() == np.array(
        [r.value_clamped for r in scalar]).tobytes()
    assert clamped.tolist() == [r.clamped for r in scalar]


def test_array_kernel_edge_records():
    floor = float(np.log2(est.LOG_CLAMP))
    all_pp = np.array([[500, 0, 0, 0]])
    for variant in est.VARIANTS:
        raw, floored = est.estimator_values(states.LOG_NEGATIVITY, variant, all_pp)
        assert raw[0] == floor and floored[0]
    raw, _ = est.estimator_values(states.NEGATIVITY, est.NONOPTIMAL, all_pp)
    assert raw[0] == -3.0 and est.clip_to_range(states.NEGATIVITY, raw)[0] == 0.0
    raw, _ = est.estimator_values(states.QGD, est.NONOPTIMAL, all_pp)
    assert raw[0] == 4.5 and est.clip_to_range(states.QGD, raw)[0] == 0.5


def test_array_kernel_keeps_leading_axes_and_rejects_bad_input():
    records = _kernel_records()[:24]
    flat, flat_floor = est.estimator_values(states.QGD, est.OPTIMAL, records)
    cube, cube_floor = est.estimator_values(states.QGD, est.OPTIMAL,
                                            records.reshape(2, 3, 4, 4))
    assert cube.shape == (2, 3, 4)
    assert cube.tobytes() == flat.tobytes()
    assert cube_floor.shape == (2, 3, 4) and not cube_floor.any()
    with pytest.raises(DomainError):
        est.estimator_values(states.NEGATIVITY, est.OPTIMAL, np.array([[1, 1, 1, 1],
                                                                       [0, 0, 0, 0]]))
    with pytest.raises(DomainError):
        est.estimator_values("entropy", est.OPTIMAL, records)


# --- Fisher information -----------------------------------------------------------

def _central_difference_fisher(kind, q, theta, povm, dtheta=1e-5):
    """QFI and CFI by the spectral sum on a central difference of rho(theta),
    with rho built from the closed p(theta) and no tangent or chain rule: an
    independent oracle for measure_path's dfrom_n factor."""
    row, reach = states.MEASURES[kind], states.negativity_closed(1.0, q)

    def rho(t):
        return states.family_state(row.to_n(t) / reach, q)

    r = rho(theta)
    dr = (rho(theta + 0.5 * dtheta) - rho(theta - 0.5 * dtheta)) / dtheta
    vals, vecs = np.linalg.eigh(r)
    vals = np.clip(vals, 0.0, None)
    m = vecs.conj().T @ dr @ vecs
    denom = vals[:, None] + vals[None, :]
    keep = denom > 1e-12
    qfi = float(np.sum(2.0 * np.abs(m[keep]) ** 2 / denom[keep]))
    cfi = 0.0
    for el in povm:
        p = np.trace(r @ el).real
        if p > 1e-12:
            dp = np.trace(dr @ el).real
            cfi += dp * dp / p
    return qfi, cfi


@pytest.mark.parametrize("kind", [N, L, Q])
@pytest.mark.parametrize("q", [0.2, 0.5])
@pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
def test_exact_tangent_matches_central_differences(kind, q, frac):
    theta = float(states.MEASURES[kind].from_n(frac * states.negativity_closed(1.0, q)))
    for povm in (ms.setting_projectors(ms.DA_DA), ms.PROJECTORS.reshape(36, 4, 4) / 9.0):
        report = est.qfi_numeric(est.measure_path(kind, q), theta, povm=povm)
        qfi, cfi = _central_difference_fisher(kind, q, theta, povm)
        assert report.qfi == pytest.approx(qfi, rel=1e-6)
        assert report.cfi == pytest.approx(cfi, rel=1e-6)


def test_qfi_negativity_path_frozen_point():
    report = est.qfi_numeric(est.measure_path(states.NEGATIVITY), 0.5)
    assert report.qfi == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert report.qcrb == pytest.approx(0.75, abs=1e-12)


def test_qfi_matches_closed_qcrb_on_grid():
    path = est.measure_path(states.NEGATIVITY)
    for n in np.linspace(0.0, 0.95, 20):
        report = est.qfi_numeric(path, float(n))
        assert abs(report.qcrb - (1.0 - n * n)) <= 1e-12


def test_qfi_reparameterized_paths_match_closed_qcrb():
    lpath = est.measure_path(states.LOG_NEGATIVITY)
    qpath = est.measure_path(states.QGD)
    for n in np.linspace(0.1, 0.95, 12):
        l = float(np.log2(1.0 + n))
        q = float(0.5 * n * n)
        assert abs(est.qfi_numeric(lpath, l).qcrb
                   - est.qcrb_curves(states.LOG_NEGATIVITY, l)) <= 1e-12
        assert abs(est.qfi_numeric(qpath, q).qcrb
                   - est.qcrb_curves(states.QGD, q)) <= 1e-12


@pytest.mark.parametrize("kind, theta, q, da_cfi", [
    # the singlet: the path leaves the support, and DA x DA reads
    # p_pp = p_mm = 0 with dp/dN = -1/4
    (N, 1.0, 0.5, np.inf),
    (L, 1.0, 0.5, np.inf),
    (N, 0.8, 0.2, 1.0 / (1.0 - 0.8 ** 2)),  # the reach at q = 0.2
    (Q, 0.0, 0.5, np.inf),                   # dfrom_n(0) = 0
])
def test_qfi_is_infinite_where_the_closed_bound_is_zero(kind, theta, q, da_cfi):
    report = est.qfi_numeric(est.measure_path(kind, q), theta,
                             povm=ms.setting_projectors(ms.DA_DA))
    assert report.qfi == np.inf
    assert report.qcrb == 0.0 == est.qcrb_curves(kind, theta, q)
    assert report.cfi == pytest.approx(da_cfi, rel=1e-12)


def test_path_tangent_is_exact():
    rho, tangent, scale = est.measure_path(states.NEGATIVITY, 0.3)(0.4)
    reach = states.negativity_closed(1.0, 0.3)
    np.testing.assert_allclose(
        tangent, (states.family_state(1.0, 0.3) - states.family_state(0.0, 0.3)) / reach)
    np.testing.assert_array_equal(rho, states.family_state(0.4 / reach, 0.3))
    assert scale == 1.0


def test_cfi_da_saturates_qfi():
    path = est.measure_path(states.NEGATIVITY)
    povm = ms.setting_projectors(ms.DA_DA)
    for n in (0.1, 0.5, 0.9):
        report = est.qfi_numeric(path, n, povm=povm)
        assert abs(report.cfi - report.qfi) <= 1e-12


def test_cfi_of_the_tomography_design_is_two_ninths_of_qfi():
    # the 36 projectors over 9 settings, each setting used a ninth of the time
    path = est.measure_path(states.NEGATIVITY)
    povm = ms.PROJECTORS.reshape(36, 4, 4) / 9.0
    for n in (0.0, 0.3, 0.6, 0.9):
        report = est.qfi_numeric(path, n, povm=povm)
        assert report.cfi / report.qfi == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_cfi_hv_setting_is_blind():
    path = est.measure_path(states.NEGATIVITY)
    povm = ms.setting_projectors("HV,HV")
    assert est.cfi_numeric(path, 0.5, povm) <= 1e-12


def test_cfi_random_projective_povm_below_qfi():
    path = est.measure_path(states.NEGATIVITY)
    for _ in range(5):
        g = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        u, _ = np.linalg.qr(g)
        povm = [np.outer(u[:, k], u[:, k].conj()) for k in range(4)]
        qfi = est.qfi_numeric(path, 0.5).qfi
        cfi = est.cfi_numeric(path, 0.5, povm)
        assert cfi <= qfi + 1e-6


def test_cfi_rejects_incomplete_povm():
    path = est.measure_path(states.NEGATIVITY)
    povm = ms.setting_projectors(ms.DA_DA)[:3]
    with pytest.raises(DomainError):
        est.cfi_numeric(path, 0.5, povm)


def test_cfi_rejects_non_hermitian_or_negative_elements():
    path = est.measure_path(states.NEGATIVITY)
    shear = np.zeros((4, 4))
    shear[0, 1] = 0.5
    povm = np.array(ms.setting_projectors(ms.DA_DA))
    with pytest.raises(DomainError, match="Hermitian"):
        est.cfi_numeric(path, 0.5, povm + np.stack([shear, -shear, 0 * shear, 0 * shear]))
    flip = np.diag([0.5, 0.0, 0.0, 0.0])
    with pytest.raises(DomainError, match="spectrum"):
        est.cfi_numeric(path, 0.5, np.concatenate([povm, [flip, -flip]]))


def test_qgd_path_rejects_negative_theta():
    path = est.measure_path(states.QGD)
    with pytest.raises(DomainError):
        path(-0.01)


def test_fisher_report_invariant():
    with pytest.raises(DomainError):
        est.FisherReport(theta=0.1, qfi=1.0, cfi=2.0, qcrb=1.0)
