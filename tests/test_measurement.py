import time

import numpy as np
import pytest

from qmet import measurement as ms
from qmet import states, streams, tomography
from qmet.errors import DomainError
from qmet.streams import RandomStream

RNG = np.random.default_rng(77002)


# --- bases and projectors ------------------------------------------------------

@pytest.mark.parametrize("basis", ms.BASES)
def test_basis_kets_orthonormal(basis):
    plus, minus = ms.basis_kets(basis)
    assert abs(np.vdot(plus, plus) - 1.0) <= 1e-15
    assert abs(np.vdot(minus, minus) - 1.0) <= 1e-15
    assert abs(np.vdot(plus, minus)) <= 1e-15


def test_unknown_basis_rejected():
    with pytest.raises(DomainError):
        ms.basis_kets("XY")
    with pytest.raises(DomainError):
        ms.setting_projectors("DA,XY")
    with pytest.raises(DomainError):
        ms.outcome_probabilities(states.singlet(), "DA,XY")


@pytest.mark.parametrize("ba", ms.BASES)
@pytest.mark.parametrize("bb", ms.BASES)
def test_setting_projectors_complete(ba, bb):
    projs = ms.setting_projectors(f"{ba},{bb}")
    assert len(projs) == 4
    total = sum(projs)
    assert np.allclose(total, np.eye(4), atol=1e-14)
    for proj in projs:
        # rank-1 projector: idempotent and unit trace
        assert np.allclose(proj @ proj, proj, atol=1e-14)
        assert abs(np.trace(proj).real - 1.0) <= 1e-14


def test_setting_projectors_read_only_and_shared():
    projs = ms.setting_projectors(ms.DA_DA)
    with pytest.raises(ValueError):
        projs[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        projs[1] *= 2.0
    again = ms.setting_projectors("DA,DA")
    assert again is projs
    plus, minus = ms.basis_kets(ms.DA)
    for proj, (a, b) in zip(again, ((plus, plus), (plus, minus),
                                    (minus, plus), (minus, minus))):
        ket = np.kron(a, b)
        assert np.allclose(proj, np.outer(ket, ket.conj()), atol=1e-15)


# --- probabilities ---------------------------------------------------------------

def test_probabilities_singlet_da_frozen():
    probs = ms.outcome_probabilities(states.singlet(), ms.DA_DA)
    assert np.allclose(probs, [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_probabilities_family_da_symbolic():
    # DA x DA on the family: ((1-N)/4, (1+N)/4, (1+N)/4, (1-N)/4)
    for _ in range(10):
        p, q = RNG.random(), RNG.random()
        n = states.negativity_closed(p, q)
        probs = ms.outcome_probabilities(states.family_state(p, q), ms.DA_DA)
        expected = np.array([1 - n, 1 + n, 1 + n, 1 - n]) / 4.0
        assert np.allclose(probs, expected, atol=1e-12)


def test_probabilities_family_hv_is_flat_in_p():
    for p in (0.0, 0.3, 0.9):
        probs = ms.outcome_probabilities(states.family_state(p, 0.5), "HV,HV")
        assert np.allclose(probs, [0.0, 0.5, 0.5, 0.0], atol=1e-12)


def test_outcome_probabilities_are_rows_of_the_table():
    # one Tr(rho P) formula: each setting's four values are its row, bit for bit
    for _ in range(5):
        g = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        table = ms.probabilities(rho)
        assert table.shape == (9, 4)
        for i, setting in enumerate(ms.SETTINGS):
            np.testing.assert_array_equal(ms.outcome_probabilities(rho, setting), table[i])


def test_projector_table_is_read_only_and_holds_the_setting_projectors():
    assert ms.PROJECTORS.shape == (9, 4, 4, 4)
    for table in (ms.PROJECTORS, ms.QUBIT_PROJECTORS):
        with pytest.raises(ValueError):
            table[0, 0, 0, 0] = 5.0
    for i, setting in enumerate(ms.SETTINGS):
        projs = ms.setting_projectors(setting)
        assert np.shares_memory(projs, ms.PROJECTORS)
        np.testing.assert_array_equal(projs, ms.PROJECTORS[i])
    # the joint projectors are products of the single-qubit ones
    for a, ba in enumerate(ms.BASES):
        for b, bb in enumerate(ms.BASES):
            projs = ms.setting_projectors(f"{ba},{bb}")
            for x, (s, t) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
                np.testing.assert_allclose(
                    projs[x], np.kron(ms.QUBIT_PROJECTORS[a, s], ms.QUBIT_PROJECTORS[b, t]),
                    rtol=0.0, atol=1e-15)


def test_probabilities_sum_to_one_random_states():
    for _ in range(5):
        g = RNG.standard_normal((4, 4)) + 1j * RNG.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        for ba in ms.BASES:
            for bb in ms.BASES:
                probs = ms.outcome_probabilities(rho, f"{ba},{bb}")
                assert abs(probs.sum() - 1.0) <= 1e-10
                assert np.all(probs >= 0.0)


# --- sampling ----------------------------------------------------------------------

def test_sample_counts_deterministic_and_order_independent():
    rho = states.family_state(0.7, 0.5)
    a = ms.sample_counts(rho, ms.DA_DA, 5000, RandomStream(11, 3))
    b = ms.sample_counts(rho, ms.DA_DA, 5000, RandomStream(11, 3))
    c = ms.sample_counts(rho, ms.DA_DA, 5000, RandomStream(11, 4))
    assert a.as_tuple() == b.as_tuple()
    assert a.as_tuple() != c.as_tuple()
    assert a.n == 5000


def test_sample_counts_moments_5_sigma():
    rho = states.family_state(0.6, 0.5)
    n = 1_000_000
    counts = ms.sample_counts(rho, ms.DA_DA, n, RandomStream(2024, 0))
    probs = ms.outcome_probabilities(rho, ms.DA_DA)
    freqs = counts.as_array() / n
    for f, p in zip(freqs, probs):
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(f - p) <= 5 * sigma


def test_sample_counts_cost_does_not_grow_with_shots():
    rho = states.family_state(0.6, 0.5)
    n = 10**9
    start = time.perf_counter()
    counts = ms.sample_counts(rho, ms.DA_DA, n, RandomStream(2025, 0))
    elapsed = time.perf_counter() - start
    assert counts.n == n
    assert elapsed < 0.25, f"{elapsed:.3f}s for 1e9 shots"
    probs = ms.outcome_probabilities(rho, ms.DA_DA)
    sigma = np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(counts.as_array() / n - probs) <= 5 * sigma)


def test_sample_counts_degenerate_distribution():
    counts = ms.sample_counts(states.singlet(), "HV,HV", 1000,
                              RandomStream(5, 0))
    assert counts.n_pp == 0 and counts.n_mm == 0
    assert counts.n_pm + counts.n_mp == 1000


def test_sample_counts_rejects_zero_shots():
    with pytest.raises(DomainError):
        ms.sample_counts(states.singlet(), ms.DA_DA, 0, RandomStream(1, 0))


@pytest.mark.parametrize("n", [10.5, np.float64(10.0), True, "10"])
def test_shot_counts_must_be_integers(n):
    # a fractional count once drew its floor, a bool one shot
    with pytest.raises(DomainError):
        ms.sample_counts(states.singlet(), ms.DA_DA, n, RandomStream(1, 0))
    with pytest.raises(DomainError):
        tomography.simulate_tomography(states.singlet(), n, RandomStream(1, 0))


def test_outcome_counts_validation():
    with pytest.raises(DomainError):
        ms.OutcomeCounts(-1, 2, 3, 4)
    # one shot beyond the int64 limit of every drawn shot count
    for total in ((2 ** 62, 2 ** 62, 0, 0), np.array([2 ** 62, 2 ** 62, 0, 0])):
        with pytest.raises(DomainError):
            ms.OutcomeCounts(*total)


@pytest.mark.parametrize("bad", [
    float("nan"), np.nan, float("inf"), -np.inf, True, np.True_,
    # an integer past float range: its total exceeds the shot limit
    10 ** 400,
    # not numbers
    "5", None, 1j, [1],
])
def test_outcome_counts_reject_non_finite_and_bool_counts(bad):
    with pytest.raises(DomainError):
        ms.OutcomeCounts(1, bad, 1, 1)


@pytest.mark.parametrize("bad,shown", [
    (10 ** 5000, "count total an integer of about 5001 digits exceeds"),
    (-10 ** 5000, "count n_pm=a negative integer of about 5001 digits is not"),
], ids=["10**5000", "-10**5000"])
def test_outcome_counts_show_an_integer_too_long_to_print_by_its_length(bad, shown):
    # repr of an int past 4300 digits raises ValueError, not the DomainError
    with pytest.raises(DomainError, match=shown):
        ms.OutcomeCounts(1, bad, 1, 1)


def test_outcome_counts_are_stored_as_python_ints():
    counts = ms.OutcomeCounts(np.int64(3), 2.0, np.float32(1.0), np.uint8(4))
    assert counts.as_tuple() == (3, 2, 1, 4)
    assert all(type(v) is int for v in counts.as_tuple())


# --- mixing -------------------------------------------------------------------------

def test_mix_counts_preserves_total_and_determinism():
    pure = ms.OutcomeCounts(0, 500, 500, 0)
    mix = ms.OutcomeCounts(250, 250, 250, 250)
    out1 = ms.mix_counts(pure, mix, 0.3, RandomStream(9, 1))
    out2 = ms.mix_counts(pure, mix, 0.3, RandomStream(9, 1))
    assert out1.n == pure.n
    assert out1.as_tuple() == out2.as_tuple()


def test_mix_counts_boundary_weights():
    pure = ms.OutcomeCounts(0, 700, 300, 0)
    mix = ms.OutcomeCounts(250, 250, 250, 250)
    only_pure = ms.mix_counts(pure, mix, 1.0, RandomStream(3, 0))
    assert only_pure.n_pp == 0 and only_pure.n_mm == 0
    only_mix = ms.mix_counts(pure, mix, 0.0, RandomStream(3, 1))
    assert only_mix.n_pp > 0 and only_mix.n_mm > 0


def test_mix_counts_frozen_half_mix_5_sigma():
    # singlet record mixed 50/50 with a uniform record: expect n_pp/n ~ 1/8
    pure = ms.OutcomeCounts(0, 500_000, 500_000, 0)
    mix = ms.OutcomeCounts(250_000, 250_000, 250_000, 250_000)
    out = ms.mix_counts(pure, mix, 0.5, RandomStream(314, 0))
    f_pp = out.n_pp / out.n
    sigma = np.sqrt(2.0 * (1 / 8) * (7 / 8) / out.n)
    assert abs(f_pp - 0.125) <= 5 * sigma


def test_mix_counts_matches_mixture_multinomial_moments_5_sigma():
    # output law is Multinomial(n, p*f_pure + (1-p)*f_mix): check the mean
    # vector and the full covariance n*(diag(f) - f f^T) over many draws
    pure = ms.OutcomeCounts(0, 600, 400, 0)
    mix = ms.OutcomeCounts(250, 250, 250, 250)
    p, n, draws = 0.3, pure.n, 4000
    law = p * pure.as_array() / n + (1 - p) * mix.as_array() / mix.n
    stream = RandomStream(271, 0)
    sample = np.array([ms.mix_counts(pure, mix, p, stream).as_array()
                       for _ in range(draws)])
    assert np.all(sample.sum(axis=1) == n)
    cov = n * (np.diag(law) - np.outer(law, law))
    mean_se = np.sqrt(np.diag(cov) / draws)
    assert np.all(np.abs(sample.mean(axis=0) - n * law) <= 5 * mean_se)
    var = np.diag(cov)
    cov_se = np.sqrt((np.outer(var, var) + cov**2) / (draws - 1))
    assert np.all(np.abs(np.cov(sample, rowvar=False) - cov) <= 5 * cov_se)


def test_mix_counts_mean_equivalence_with_direct_sampling():
    # same estimator mean from post-processed mixing and direct mixed-state runs
    p_mix = 0.5
    rho = states.family_state(p_mix, 0.5)
    pure_state, mix_state = states.singlet(), states.dephased_mixture()
    n, reps = 2000, 400
    stat = lambda c: (c.n_pm + c.n_mp - c.n_pp - c.n_mm) / c.n
    direct, mixed = [], []
    for r in range(reps):
        direct.append(stat(ms.sample_counts(rho, ms.DA_DA, n, RandomStream(50, 4 * r))))
        cp = ms.sample_counts(pure_state, ms.DA_DA, n, RandomStream(50, 4 * r + 1))
        cm = ms.sample_counts(mix_state, ms.DA_DA, n, RandomStream(50, 4 * r + 2))
        mixed.append(stat(ms.mix_counts(cp, cm, p_mix, RandomStream(50, 4 * r + 3))))
    direct, mixed = np.array(direct), np.array(mixed)
    se = np.sqrt(direct.var(ddof=1) / reps + mixed.var(ddof=1) / reps)
    assert abs(direct.mean() - mixed.mean()) <= 5 * se


def test_mix_counts_rejects_bad_inputs():
    pure = ms.OutcomeCounts(0, 500, 500, 0)
    with pytest.raises(DomainError):
        ms.mix_counts(pure, ms.OutcomeCounts(0, 0, 0, 0), 0.5, RandomStream(1, 0))
    with pytest.raises(DomainError):
        ms.mix_counts(pure, pure, 1.5, RandomStream(1, 0))


# --- keyed batches ---------------------------------------------------------------------

def test_keyed_rows_match_sample_counts():
    # one unnormalized law row for every draw, as the sweep passes it
    rho = states.family_state(0.7, 0.3)
    probs = ms.outcome_probabilities(rho, ms.DA_DA) * (1.0 + 3e-12)
    indices = [(4 * 9 + rep) * 8 for rep in range(9)]
    rows = streams.keyed_multinomials(5, indices, 300, probs)
    assert rows.shape == (9, 4)
    for row, index in zip(rows, indices):
        expected = ms.sample_counts(rho, ms.DA_DA, 300, RandomStream(5, index))
        assert tuple(row) == expected.as_tuple()


def test_keyed_mixture_batch_matches_mix_counts():
    # the PostProcessMix path: pure and mix batches, then one select draw per
    # record with its own law row
    n, p = 400, 0.35
    pure_state, mix_state = states.singlet(), states.dephased_mixture()
    reps = range(12)
    pure = streams.keyed_multinomials(8, [4 * r + 1 for r in reps], n,
                                      ms.outcome_probabilities(pure_state, ms.DA_DA))
    mix = streams.keyed_multinomials(8, [4 * r + 2 for r in reps], n,
                                     ms.outcome_probabilities(mix_state, ms.DA_DA))
    law = ms.mixture_law(pure, mix, p)
    mixed = streams.keyed_multinomials(8, [4 * r + 3 for r in reps], n, law)
    for r in reps:
        cp = ms.sample_counts(pure_state, ms.DA_DA, n, RandomStream(8, 4 * r + 1))
        cm = ms.sample_counts(mix_state, ms.DA_DA, n, RandomStream(8, 4 * r + 2))
        assert tuple(pure[r]) == cp.as_tuple() and tuple(mix[r]) == cm.as_tuple()
        expected = ms.mix_counts(cp, cm, p, RandomStream(8, 4 * r + 3))
        assert tuple(mixed[r]) == expected.as_tuple()


def test_keyed_batch_rejects_bad_inputs():
    with pytest.raises(DomainError):
        streams.keyed_multinomials(1, [0, 1], 0, np.full(4, 0.25))
    pure = np.array([[0, 5, 5, 0], [1, 1, 1, 1]])
    with pytest.raises(DomainError):
        ms.mixture_law(pure, np.array([[1, 1, 1, 1], [0, 0, 0, 0]]), 0.5)
    with pytest.raises(DomainError):
        ms.mixture_law(pure, pure, -0.1)


def test_mixture_law_per_record_weights_equal_the_scalar_calls():
    # the sweep mixes a batch of grid points with one weight per record
    rng = np.random.default_rng(5)
    pure = rng.integers(0, 50, size=(6, 4)) + np.array([1, 0, 0, 0])
    mix = rng.integers(0, 50, size=(6, 4)) + np.array([0, 0, 0, 1])
    weights = np.array([0.0, 0.1, 0.35, 0.35, 0.7, 1.0])
    law = ms.mixture_law(pure, mix, weights)
    assert law.shape == (6, 4)
    for row, (cp, cm, p) in enumerate(zip(pure, mix, weights.tolist())):
        assert law[row].tobytes() == ms.mixture_law(cp, cm, p).tobytes()


@pytest.mark.parametrize("weights", [
    np.array([0.2, 1.5]), np.array([-0.1, 0.5]), np.array([0.3, np.nan]), np.nan,
    1.0 + 1e-12,
])
def test_mixture_law_rejects_every_bad_weight(weights):
    pure = np.array([[0, 5, 5, 0], [1, 1, 1, 1]])
    with pytest.raises(DomainError):
        ms.mixture_law(pure, pure, weights)


# --- serialization --------------------------------------------------------------------

def test_counts_record_round_trip():
    counts = ms.OutcomeCounts(1, 2, 3, 4)
    rec = ms.counts_record(counts, ms.DA_DA, seed=7)
    assert rec == {"setting": "DA,DA", "n_pp": 1, "n_pm": 2, "n_mp": 3, "n_mm": 4, "seed": 7}
    back, setting = ms.counts_from_record(rec)
    assert back.as_tuple() == counts.as_tuple()
    assert setting == ms.DA_DA


@pytest.mark.parametrize("label, setting", [(" da , Da", "DA,DA"), ("hv,RL", "HV,RL")])
def test_counts_from_record_normalises_the_setting_label(label, setting):
    record = {"setting": label, "n_pp": 1, "n_pm": 2, "n_mp": 3, "n_mm": 4}
    assert ms.counts_from_record(record)[1] == setting


@pytest.mark.parametrize("label", ["DA,XY", "DA", "DA,DA,DA", "", 5, None])
def test_unknown_setting_labels_are_domain_errors(label):
    with pytest.raises(DomainError):
        ms.counts_from_record({"setting": label, "n_pp": 1, "n_pm": 2,
                               "n_mp": 3, "n_mm": 4})
    with pytest.raises(DomainError):
        ms.counts_record(ms.OutcomeCounts(1, 2, 3, 4), label, seed=7)
