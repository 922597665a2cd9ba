import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmet import harness, matcore, measurement, states, tomography
from qmet.errors import DomainError
from qmet.streams import RandomStream


# row x is vec(P_x) of the 36 projectors; as P_x is Hermitian, row x of its
# conjugate is vec(P_x^T)
ROWS = measurement.PROJECTORS.reshape(36, 16)


def design_probabilities(rho: np.ndarray) -> np.ndarray:
    """Tr(rho P_x) of the 36 projectors, for any 4x4 rho."""
    return (ROWS.conj() @ rho.ravel()).real


def exact_dataset(rho: np.ndarray, n_per_setting: float = 1.0) -> tomography.TomoDataset:
    """Noiseless limit: probabilities scaled by n injected as fractional counts."""
    return tomography.TomoDataset(measurement.probabilities(rho) * n_per_setting)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


def plain_rrr_mle(dataset: tomography.TomoDataset) -> np.ndarray:
    """Reference: the unaccelerated diluted R rho R loop, one step at a time.

    Starts from the projected linear-inversion state smoothed toward I/4 by
    1e-3, so that it has full rank, which R rho R cannot grow; takes
    rho <- R rho R / Tr(...) and dilutes R toward the identity whenever a step
    is not uphill; stops when a step gains less than 1e-12.
    """
    counts = dataset.counts.ravel()
    n_total = counts.sum()
    eye = np.eye(4, dtype=complex)
    s = 1e-3
    start = tomography.reconstruct_linear(dataset).state.rho
    rho = (1.0 - s) * start + s * eye / 4.0

    def probabilities(rho):
        return np.maximum(design_probabilities(rho), tomography.PROB_FLOOR)

    p_ref = probabilities(rho)

    def ll(probs):
        return math.fsum(counts * np.log(probs / p_ref))

    def stepped(rho, r):
        cand = r @ rho @ r
        cand = 0.5 * (cand + cand.conj().T)
        cand /= cand.trace().real
        return cand, probabilities(cand)

    probs = p_ref
    f_cur = ll(probs)
    for _ in range(5000):
        r = ((counts / probs) @ ROWS).reshape(4, 4) / n_total
        cand, p_try = stepped(rho, r)
        f_try = ll(p_try)
        if f_try <= f_cur:
            eps = 0.5
            while eps > 1e-6:
                cand, p_try = stepped(rho, (1.0 - eps) * eye + eps * r)
                f_try = ll(p_try)
                if f_try > f_cur:
                    break
                eps *= 0.5
            else:
                break
        gain = f_try - f_cur
        rho, probs, f_cur = cand, p_try, f_try
        if gain < 1e-12:
            break
    return rho


def log_likelihood_gain(dataset: tomography.TomoDataset, rho: np.ndarray,
                        anchor: np.ndarray) -> float:
    """log L(rho) - log L(anchor), summed exactly from per-setting ratios.

    Each setting's probabilities are renormalised to sum to 1, so a trace off
    by one ulp does not shift the result by N * 2e-16 (about 1.6e-9 at
    7.2e6 counts), which the absolute log-likelihood cannot resolve.
    """
    def setting_probs(rho):
        p = np.maximum(design_probabilities(rho), tomography.PROB_FLOOR)
        p = p.reshape(-1, 4)
        return p / p.sum(axis=1, keepdims=True)

    ratios = setting_probs(rho) / setting_probs(anchor)
    return math.fsum((dataset.counts * np.log(ratios)).ravel())


class TestSettings:
    def test_nine_settings_in_grid_order(self):
        got = measurement.SETTINGS
        assert len(got) == 9
        labels = list(got)
        assert labels == ["HV,HV", "HV,DA", "HV,RL",
                          "DA,HV", "DA,DA", "DA,RL",
                          "RL,HV", "RL,DA", "RL,RL"]

    def test_thirty_six_projectors_complete_per_setting(self):
        for setting in measurement.SETTINGS:
            projs = measurement.setting_projectors(setting)
            assert len(projs) == 4
            np.testing.assert_allclose(sum(projs), np.eye(4), atol=1e-12)

    def test_design_spans_hermitian_space(self):
        # rank oracle: numpy SVD-based matrix_rank on the 36x16 design
        assert np.linalg.matrix_rank(ROWS) == 16


class TestDataset:
    def test_simulate_is_deterministic(self):
        rho = states.family_state(0.6, 0.5)
        a = tomography.simulate_tomography(rho, 500, RandomStream(11, 3))
        b = tomography.simulate_tomography(rho, 500, RandomStream(11, 3))
        np.testing.assert_array_equal(a.counts, b.counts)
        assert np.all(a.n_per_setting == 500)

    def test_simulate_matches_sequential_sample_counts(self):
        # reference: nine sample_counts calls in settings order on one stream
        for rho in (states.singlet(), states.family_state(0.37, 0.83)):
            ds = tomography.simulate_tomography(rho, 1000, RandomStream(13, 4))
            stream = RandomStream(13, 4)
            expected = [measurement.sample_counts(rho, s, 1000, stream).as_array()
                        for s in measurement.SETTINGS]
            np.testing.assert_array_equal(ds.counts, np.array(expected))

    @pytest.mark.parametrize("rho", [
        np.diag([0.5, 0.5, 0.5, -0.5]),   # negative eigenvalue
        np.diag([0.5, 0.5, 0.5, 0.5]),    # trace 2
        np.triu(np.full((4, 4), 0.25)),   # not Hermitian
    ])
    def test_simulate_rejects_non_density_matrix(self, rho):
        with pytest.raises(DomainError):
            tomography.simulate_tomography(rho.astype(complex), 100, RandomStream(1))

    def test_singlet_hvhv_counts_only_on_cross_outcomes(self):
        ds = tomography.simulate_tomography(states.singlet(), 2000, RandomStream(5))
        row = ds.counts[0]  # HV,HV row
        assert row[0] == 0 and row[3] == 0
        assert row[1] + row[2] == 2000

    def test_frequencies_within_five_sigma_everywhere(self):
        rho = states.family_state(0.37, 0.83)
        n = 10**5
        ds = tomography.simulate_tomography(rho, n, RandomStream(21, 9))
        for setting, row in zip(measurement.SETTINGS, ds.counts):
            probs = measurement.outcome_probabilities(rho, setting)
            sigma = np.sqrt(probs * (1 - probs) / n)
            assert np.all(np.abs(row / n - probs) <= 5 * sigma + 1e-12)

    def test_validation_rejects_bad_shapes_and_values(self):
        good = np.ones((9, 4))
        with pytest.raises(DomainError):
            tomography.TomoDataset(np.ones((8, 4)))
        bad = good.copy()
        bad[2, 1] = -1.0
        with pytest.raises(DomainError):
            tomography.TomoDataset(bad)
        bad = good.copy()
        bad[4] = 0.0
        with pytest.raises(DomainError):
            tomography.TomoDataset(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_validation_rejects_non_finite_counts(self, value):
        # a NaN passes every "< 0" and "<= 0" check, and an inf row sums > 0
        bad = np.ones((9, 4))
        bad[3, 2] = value
        with pytest.raises(DomainError):
            tomography.TomoDataset(bad)


class TestLinearInversion:
    def test_exact_singlet_recovered(self):
        rec = tomography.reconstruct_linear(exact_dataset(states.singlet()))
        assert np.abs(rec.state.rho - states.singlet()).max() < 1e-10

    def test_exact_family_half_recovered(self):
        rho = states.family_state(0.5, 0.5)
        rec = tomography.reconstruct_linear(exact_dataset(rho))
        assert np.abs(rec.state.rho - rho).max() < 1e-10

    def test_finite_data_hermitian_unit_trace(self):
        ds = tomography.simulate_tomography(states.family_state(0.3, 0.7), 400,
                                            RandomStream(8, 1))
        rho = tomography._linear_inversion(ds)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert abs(np.trace(rho).real - 1.0) < 1e-12

    @pytest.mark.parametrize("totals", ["equal", "unequal", "exact"])
    def test_dual_frame_matches_least_squares(self, totals):
        # oracle: complex least squares of Tr(rho P_x) = f_x over all 4x4 rho;
        # the design is injective on Hermitian matrices, so the optimum is
        # the Hermitian least-squares state
        rho = states.family_state(0.4, 0.3)
        if totals == "exact":
            ds = exact_dataset(rho, 1e4)
        else:
            shots = [500] * 9 if totals == "equal" else range(100, 1000, 100)
            stream = RandomStream(21)
            ds = tomography.TomoDataset([
                stream.multinomial(n, probs)
                for probs, n in zip(measurement.probabilities(rho), shots)])
        freqs = (ds.counts / ds.n_per_setting[:, None]).ravel()
        vec, *_ = np.linalg.lstsq(ROWS.conj(), freqs.astype(complex), rcond=None)
        li = tomography._linear_inversion(ds)
        np.testing.assert_allclose(li, vec.reshape(4, 4), rtol=0.0, atol=1e-12)
        if totals == "exact":
            np.testing.assert_allclose(li, rho, rtol=0.0, atol=1e-12)

    def test_one_eigensolve_gives_the_minimum_and_the_projection(self, eigensolves):
        # small-n singlet data: the unconstrained estimate dips well below
        # zero, and the one eigensolve clips that minimum to give the state
        ds = tomography.simulate_tomography(states.singlet(), 100, RandomStream(3, 2))
        li = tomography._linear_inversion(ds)
        assert np.linalg.eigvalsh(li)[0] < -1e-6
        eigensolves.clear()
        rec = tomography.reconstruct_linear(ds)
        assert len(eigensolves) == 1
        assert np.linalg.eigvalsh(rec.state.rho)[0] > -1e-15
        np.testing.assert_allclose(rec.state.rho, tomography.project_physical(li),
                                   rtol=0.0, atol=1e-15)


class TestMLE:
    def test_noiseless_round_trip_all_reconstructors(self):
        for rho in (states.singlet(), states.dephased_mixture(),
                    states.family_state(0.37, 0.21)):
            ds = exact_dataset(rho, 1e5)
            li = tomography.reconstruct_linear(ds)
            mle = tomography.reconstruct_mle(ds)
            assert trace_distance(li.state.rho, rho) < 1e-6
            assert trace_distance(mle.state.rho, rho) < 1e-6
            assert mle.converged

    def test_output_is_physical(self):
        ds = tomography.simulate_tomography(states.singlet(), 1000, RandomStream(17))
        rec = tomography.reconstruct_mle(ds)
        rho = rec.state.rho
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_likelihood_dominates_linear_inversion(self):
        # invariant: MLE log-likelihood >= projected linear inversion's
        for seed in range(4):
            rho = states.family_state(0.2 + 0.2 * seed, 0.4)
            ds = tomography.simulate_tomography(rho, 2000, RandomStream(40 + seed))
            li = tomography.reconstruct_linear(ds)
            mle = tomography.reconstruct_mle(ds)
            assert mle.log_likelihood >= li.log_likelihood - 1e-9

    def test_self_consistency_fidelity(self):
        for rho in (states.singlet(), states.dephased_mixture()):
            ds = tomography.simulate_tomography(rho, 10**5, RandomStream(77, 5))
            rec = tomography.reconstruct_mle(ds)
            assert rec.converged
            assert states.fidelity(rho, rec.state.rho) >= 0.99

    @pytest.mark.parametrize("shots", [100, 10**4, 2 * 10**5])
    @pytest.mark.parametrize("label", ["singlet", "dephased", "family"])
    def test_matches_plain_iteration_reference(self, label, shots):
        rho = {"singlet": states.singlet(),
               "dephased": states.dephased_mixture(),
               "family": states.family_state(0.37, 0.21)}[label]
        datasets = [tomography.simulate_tomography(rho, shots, RandomStream(seed, shots))
                    for seed in range(3)]
        datasets.append(exact_dataset(rho, shots))
        for ds in datasets:
            rec = tomography.reconstruct_mle(ds)
            # the plain loop's state can drift to eigenvalues near -1e-14,
            # whose clipped probabilities inflate its likelihood by ~3e-9 at
            # 2e5 shots; the comparison is against its physical projection
            ref = tomography.project_physical(plain_rrr_mle(ds))
            assert rec.converged
            assert log_likelihood_gain(ds, rec.state.rho, ref) >= -1e-9
            assert trace_distance(rec.state.rho, ref) <= 1e-6
            rho_hat = rec.state.rho
            np.testing.assert_allclose(rho_hat, rho_hat.conj().T, rtol=0.0, atol=1e-12)
            assert abs(np.trace(rho_hat).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho_hat).min() > -1e-12

    def test_makes_one_eigensolve(self, eigensolves):
        # the start point; the output is PSD by construction and not decomposed
        ds = tomography.simulate_tomography(states.family_state(0.6, 0.5), 10**4,
                                            RandomStream(5))
        eigensolves.clear()
        tomography.reconstruct_mle(ds)
        assert len(eigensolves) == 1

    def test_nonconvergence_is_flagged_not_raised(self, monkeypatch):
        ds = tomography.simulate_tomography(states.singlet(), 1000, RandomStream(1))
        monkeypatch.setattr(tomography, "MAX_STEPS", 1)
        rec = tomography.reconstruct_mle(ds)
        assert not rec.converged
        assert rec.iterations == 1

    # (state, shots per setting, stream, log-likelihood reached by the earlier
    # ascent, which fell back to a step diluted toward the identity whenever
    # neither candidate was uphill): the default sweep's p = 0.5 fit and the
    # README's `qmet tomo --p 0.6 --n-per-setting 100000 --seed 3`, where that
    # fallback fired once and three times, and a 100-shot singlet
    ASCENTS = {
        "sweep-p0.5": (states.family_state(0.5, 0.5), 10**4,
                       (42, harness.TOMO_FLAG | 5), -115341.85104122089),
        "readme-tomo": (states.family_state(0.6, 0.5), 10**5, (3,), -1139758.4827321756),
        "singlet-100": (states.singlet(), 100, (3, 2), -1035.5662613457912),
    }

    @pytest.mark.parametrize("label", sorted(ASCENTS))
    def test_ascent_never_goes_downhill(self, label, monkeypatch):
        rho, shots, key, frozen_ll = self.ASCENTS[label]
        ds = tomography.simulate_tomography(rho, shots, RandomStream(*key))
        final = tomography.reconstruct_mle(ds)
        assert final.converged
        assert final.log_likelihood >= frozen_ll - 1e-9
        lls = []
        for k in range(1, final.iterations + 1):
            monkeypatch.setattr(tomography, "MAX_STEPS", k)
            lls.append(tomography.reconstruct_mle(ds).log_likelihood)
        assert all(b >= a for a, b in zip(lls, lls[1:]))
        assert lls[-1] == final.log_likelihood

    def test_mean_fidelity_monotone_in_shots(self):
        # invariant: mean fidelity non-decreasing in n_per_setting
        rho = states.family_state(0.6, 0.5)
        means = []
        for n in (10**2, 10**3, 10**4, 10**5):
            fids = []
            for seed in range(50):
                ds = tomography.simulate_tomography(rho, n, RandomStream(seed, n))
                rec = tomography.reconstruct_mle(ds)
                fids.append(states.fidelity(rho, rec.state.rho))
            means.append(np.mean(fids))
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_design_matrices_are_shared_read_only(self):
        for matrix in (tomography._ROWS, tomography._DUAL_ROWS, tomography._BRAS,
                       tomography._KET_ROWS, tomography._REAL_FORMS,
                       measurement.PROJECTOR_KETS):
            with pytest.raises(ValueError):
                matrix[0, 0] = 0.0
        assert np.shares_memory(tomography._ROWS, measurement.PROJECTORS)


def kkt_excess(dataset: tomography.TomoDataset, rho: np.ndarray) -> float:
    """lambda_max(R / N) - 1 at rho, by an eigensolve; <= 0 at the maximum."""
    counts = dataset.counts.ravel()
    probs = np.maximum(design_probabilities(rho), tomography.PROB_FLOOR)
    r = ((counts / probs) @ ROWS).reshape(4, 4)
    return float(np.linalg.eigvalsh(r / counts.sum())[-1]) - 1.0


def full_rank_state(index: int) -> tuple[np.ndarray, int]:
    """A random state whose smallest eigenvalue lies in [0.002, 0.05], and a
    shot count in [50, 1000], both drawn from the generator seeded by index."""
    rng = np.random.default_rng(index)
    while True:
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        low = rng.uniform(0.002, 0.05)
        rest = rng.dirichlet(np.ones(3)) * (1.0 - low)
        if rest.min() > low:
            break
    rho = (u * np.concatenate([[low], rest])) @ u.conj().T
    return 0.5 * (rho + rho.conj().T), int(rng.integers(50, 1001))


class TestRankAdaptiveMLE:
    """The factor starts at the linear-inversion estimate's own rank and grows
    only when the KKT certificate fails."""

    @pytest.mark.parametrize("shots", [1e2, 1e4, 2e5])
    @pytest.mark.parametrize("label", ["singlet", "dephased", "family", "pure-0.3"])
    def test_exact_data_converges_in_four_cycles(self, label, shots):
        # exact data gives the start the state's own rank, so no growth is needed
        rho = {"singlet": states.singlet(),
               "dephased": states.dephased_mixture(),
               "family": states.family_state(0.37, 0.21),
               "pure-0.3": states.family_state(1.0, 0.3)}[label]
        ds = exact_dataset(rho, shots)
        rec = tomography.reconstruct_mle(ds)
        assert rec.converged
        assert rec.iterations <= 4
        assert trace_distance(rec.state.rho, rho) <= 1e-12
        assert kkt_excess(ds, rec.state.rho) <= tomography.KKT_TOL

    # Every index in range(400) whose full_rank_state dataset (RandomStream(7,
    # index)) grows the rank, with the log-likelihood that the full-rank
    # smoothed-start ascent reached on it.
    GROWN = [
        (97, -5359.81650682627), (98, -8375.434132258164), (148, -1990.728661484145),
        (165, -1098.2776529290095), (186, -5118.133553877655),
        (202, -10284.037857265084), (262, -8876.718826930912),
        (267, -8033.363171860062), (290, -749.8603518325552),
        (323, -1020.0658375882601), (332, -4392.184104276028),
        (362, -2978.3634003162106), (363, -11267.858116793836),
    ]

    @pytest.mark.parametrize("index,full_rank_ll", GROWN)
    def test_growth_reaches_the_full_rank_likelihood(self, index, full_rank_ll, eigensolves):
        # An ascent that stops once a cycle gains less than 1e-10 pins the
        # log-likelihood of these slowly converging optima to ~1e-9 only.
        rho, shots = full_rank_state(index)
        ds = tomography.simulate_tomography(rho, shots, RandomStream(7, index))
        eigensolves.clear()
        rec = tomography.reconstruct_mle(ds)
        assert len(eigensolves) == 2  # the start and one growth
        assert rec.converged
        assert kkt_excess(ds, rec.state.rho) <= tomography.KKT_TOL
        assert rec.log_likelihood >= full_rank_ll - 1e-8

    def test_every_full_rank_dataset_converges_with_the_certificate(self):
        # the earlier ascent reached a KKT excess of 4.1e-7 at most here
        for index in range(400):
            rho, shots = full_rank_state(index)
            ds = tomography.simulate_tomography(rho, shots, RandomStream(7, index))
            rec = tomography.reconstruct_mle(ds)
            assert rec.converged, index
            assert kkt_excess(ds, rec.state.rho) <= tomography.KKT_TOL, index


class TestNewtonSteps:
    """Damped Newton steps on the factor end the crawl of a near-null column."""

    # p = 1 datasets of the sweep's last tomography stream, 1e4 shots per
    # setting, with the log-likelihood the earlier R rho R ascent reached on
    # each in 151-2133 SQUAREM cycles
    CRAWL = [
        (0.2, 42, -100680.94267108497), (0.2, 1, -100980.78172487028),
        (0.2, 2, -100892.35979650375), (0.3, 42, -103226.61476056861),
        (0.3, 1, -103301.93807354583), (0.3, 2, -103413.29104729045),
        (0.7, 42, -103268.98267596711), (0.7, 1, -103136.84685880791),
        (0.7, 2, -103343.15208633496),
    ]

    @pytest.mark.parametrize("q,seed,crawl_ll", CRAWL)
    def test_a_vanishing_column_takes_few_steps(self, q, seed, crawl_ll):
        ds = tomography.simulate_tomography(states.family_state(1.0, q), 10**4,
                                            RandomStream(seed, harness.TOMO_FLAG | 10))
        rec = tomography.reconstruct_mle(ds)
        assert rec.converged
        assert rec.iterations <= 20
        assert kkt_excess(ds, rec.state.rho) <= tomography.KKT_TOL
        assert rec.log_likelihood >= crawl_ll - 1e-9

    @pytest.mark.parametrize("ref", ["singlet", "dephased", "family"])
    def test_chord_steps_reach_the_maximum_of_fresh_models(self, ref, monkeypatch):
        rho = {"singlet": states.singlet(), "dephased": states.dephased_mixture(),
               "family": states.family_state(0.6, 0.5)}[ref]
        for index in range(5):
            ds = tomography.simulate_tomography(rho, 10**4, RandomStream(1, index))
            shapes = []
            cholesky = np.linalg.cholesky

            def certified(a):
                factor = cholesky(a)
                shapes.append(a.shape)
                return factor

            monkeypatch.setattr(np.linalg, "cholesky", certified)
            chord = tomography.reconstruct_mle(ds)
            monkeypatch.undo()
            # a model's damped matrix is 8r x 8r, the KKT slack 4 x 4: some
            # iteration solved a matrix certified before
            models = sum(shape != (4, 4) for shape in shapes)
            assert chord.converged and models < chord.iterations
            monkeypatch.setattr(tomography, "REUSE_GAIN", 0.0)
            fresh = tomography.reconstruct_mle(ds)
            monkeypatch.undo()
            assert fresh.converged
            assert abs(chord.log_likelihood - fresh.log_likelihood) <= 1e-9

    def test_real_forms_act_on_real_views(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        forms = tomography._real_forms(m)
        for form, mat in zip(forms, m):
            np.testing.assert_allclose(form @ v.view(float), (mat @ v).view(float),
                                       rtol=0.0, atol=1e-12)


class TestProjection:
    def test_clips_negative_eigenvalues(self):
        rho = np.diag([0.7, 0.4, -0.1, 0.0]).astype(complex)
        out = tomography.project_physical(rho)
        vals = np.linalg.eigvalsh(out)
        assert vals.min() >= -1e-15
        assert abs(np.trace(out).real - 1.0) < 1e-12

    def test_identity_on_valid_state(self):
        rho = states.family_state(0.3, 0.3)
        np.testing.assert_allclose(tomography.project_physical(rho), rho, atol=1e-12)


class TestReport:
    def test_singlet_report(self):
        ds = tomography.simulate_tomography(states.singlet(), 10**5, RandomStream(31))
        rec = tomography.reconstruct_mle(ds)
        rep = tomography.tomo_report(states.singlet(), rec)
        assert rep.fidelity > 0.999
        assert abs(rep.fit.p - 1.0) < 0.02
        assert abs(rep.measures[states.NEGATIVITY] - 1.0) < 0.02

    def test_mixture_report(self):
        ds = tomography.simulate_tomography(states.dephased_mixture(), 10**5,
                                            RandomStream(32))
        rec = tomography.reconstruct_mle(ds)
        rep = tomography.tomo_report(states.dephased_mixture(), rec)
        assert rep.fidelity > 0.999
        assert abs(rep.fit.p) < 0.02
        assert abs(rep.measures[states.NEGATIVITY]) < 0.02

    def test_family_p_estimate_quick(self):
        rho = states.family_state(0.6, 0.5)
        phats = []
        for seed in range(5):
            ds = tomography.simulate_tomography(rho, 10**5, RandomStream(200 + seed))
            rep = tomography.tomo_report(rho, tomography.reconstruct_mle(ds))
            phats.append(rep.fit.p)
        assert abs(np.mean(phats) - 0.6) < 0.02

    def test_report_from_linear_inversion_projects_first(self):
        ds = tomography.simulate_tomography(states.singlet(), 100, RandomStream(3, 2))
        assert np.linalg.eigvalsh(tomography._linear_inversion(ds))[0] < 0.0
        rep = tomography.tomo_report(states.singlet(), tomography.reconstruct_linear(ds))
        assert 0.0 <= rep.fidelity <= 1.0
        assert np.isfinite(rep.fit.residual)


class TestEigensolveBudget:
    """np.linalg.eigh / eigvalsh calls per stage: the report reads the state
    the reconstruction carries and decomposes it no further."""

    REFERENCES = (states.singlet(), states.dephased_mixture(),
                  states.family_state(0.6, 0.3))

    def test_report_makes_four_eigensolves_and_one_hermitian_check(
            self, eigensolves, monkeypatch):
        checks = []
        require = matcore.require_hermitian

        def counted(*args, **kwargs):
            checks.append(1)
            return require(*args, **kwargs)

        monkeypatch.setattr(matcore, "require_hermitian", counted)
        for k, rho in enumerate(self.REFERENCES):
            ds = tomography.simulate_tomography(rho, 2000, RandomStream(41, k))
            for rec in (tomography.reconstruct_mle(ds), tomography.reconstruct_linear(ds)):
                eigensolves.clear()
                checks.clear()
                tomography.tomo_report(rho, rec)
                assert 0 < len(eigensolves) <= 4
                assert 0 < len(checks) <= 1

    def test_simulate_mle_report_makes_six(self, eigensolves):
        # five when the reference is checked once and passed to both stages
        for k, rho in enumerate(self.REFERENCES):
            for ref, budget in ((rho, 6), (states.check_state(rho), 5)):
                eigensolves.clear()
                ds = tomography.simulate_tomography(ref, 2000, RandomStream(42, k))
                tomography.tomo_report(ref, tomography.reconstruct_mle(ds))
                assert 0 < len(eigensolves) <= budget


def reprojected_state(rho: np.ndarray) -> states.CheckedState:
    """Reference: the estimate projected again and checked, with the factor
    V sqrt(lambda) of its clipped, renormalised spectrum."""
    values, vectors = np.linalg.eigh(
        matcore.require_hermitian(rho, tol=matcore.SPECTRUM_TOL))
    values = np.clip(values, 0.0, None)
    values /= values.sum()
    proj = (vectors * values) @ vectors.conj().T
    return states.CheckedState(0.5 * (proj + proj.conj().T), vectors * np.sqrt(values))


@pytest.mark.parametrize("label", ["singlet", "dephased", "family"])
def test_report_on_the_mle_factor_matches_the_reprojected_state(label):
    rho = {"singlet": states.singlet(),
           "dephased": states.dephased_mixture(),
           "family": states.family_state(0.6, 0.3)}[label]
    datasets = [tomography.simulate_tomography(rho, shots, RandomStream(seed, shots))
                for shots in (100, 10**4, 10**6) for seed in range(3)]
    datasets.append(exact_dataset(rho, 10**4))
    for ds in datasets:
        rec = tomography.reconstruct_mle(ds)
        factor = rec.state.factor
        np.testing.assert_allclose(factor @ factor.conj().T, rec.state.rho,
                                   rtol=0.0, atol=1e-15)
        got = tomography.tomo_report(rho, rec)
        ref = reprojected_state(rec.state.rho)
        assert got.fidelity == pytest.approx(states.fidelity(rho, ref), rel=0.0, abs=1e-12)
        fit = states.fit_family_params(ref)
        assert (got.fit.p, got.fit.q, got.fit.residual) == pytest.approx(
            (fit.p, fit.q, fit.residual), rel=0.0, abs=1e-12)
        for kind, value in states.measures(ref).items():
            assert got.measures[kind] == pytest.approx(value, rel=0.0, abs=1e-12)


# --- family MLE --------------------------------------------------------------

def family_design() -> tuple[np.ndarray, np.ndarray]:
    """(a, J) with the 36 outcome probabilities a + J (x, y) of the family,
    x = p (2q - 1) and y = 2 p sqrt(q (1 - q)); rho is affine in (x, y), so
    they come from the probabilities at (0, 0), (1, 0) and (0, 1)."""
    a = measurement.probabilities(states.family_state(0.0, 0.5)).ravel()
    at_x = measurement.probabilities(states.family_state(1.0, 1.0)).ravel()
    at_y = measurement.probabilities(states.family_state(1.0, 0.5)).ravel()
    return a, np.stack([at_x - a, at_y - a], axis=1)


def family_point(p: float, q: float) -> np.ndarray:
    return np.array([p * (2.0 * q - 1.0), 2.0 * p * math.sqrt(q * (1.0 - q))])


def family_log_likelihood(counts: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Sum of n_x log(a_x + J_x z) over the outcomes seen, at points z (..., 2)."""
    a, jac = family_design()
    seen = counts > 0
    with np.errstate(divide="ignore"):  # -inf where a seen outcome is impossible
        return np.log(a[seen] + z @ jac[seen].T) @ counts[seen]


def half_disk_grid() -> np.ndarray:
    radius, angle = np.meshgrid(np.linspace(0.0, 1.0, 201), np.linspace(0.0, math.pi, 401))
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1).reshape(-1, 2)


class TestFamilyMLE:
    def test_outcome_groups_are_the_family_probabilities(self):
        groups = (tomography._X_PLUS, tomography._X_MINUS, tomography._Y_PLUS,
                  tomography._Y_MINUS, tomography._NEVER)
        flat = [i for group in groups for i in group]
        assert len(flat) == len(set(flat)) == 28
        constant = sorted(set(range(36)) - set(flat))
        base = measurement.probabilities(states.family_state(0.0, 0.5)).ravel()
        for p, q in ((0.3, 0.2), (0.8, 0.5), (1.0, 0.9), (0.55, 1.0)):
            x, y = family_point(p, q)
            probs = measurement.probabilities(states.family_state(p, q)).ravel()
            for group, factor in zip(groups, (1.0 + x, 1.0 - x, 1.0 + y, 1.0 - y, 0.0)):
                np.testing.assert_allclose(probs[group], base[group] * factor,
                                           rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(probs[constant], 0.25, rtol=0.0, atol=1e-15)
        assert base[tomography._NEVER].tolist() == [0.0, 0.0]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0),
           n_per_setting=st.floats(1.0, 1e9))
    def test_exact_probabilities_give_back_p_and_q(self, p, q, n_per_setting):
        p_hat, q_hat = tomography.family_mle(
            exact_dataset(states.family_state(p, q), n_per_setting))
        assert p_hat == pytest.approx(p, rel=0.0, abs=1e-9)
        # q is unidentifiable as p -> 0, and reads 1/2 at p = 0
        if p >= 1e-6:
            assert q_hat == pytest.approx(q, rel=0.0, abs=1e-9)
        elif p_hat == 0.0:
            assert q_hat == 0.5

    def test_matches_a_brute_force_oracle_with_kkt_at_the_boundary(self):
        grid = half_disk_grid()
        a, jac = family_design()
        cases = set()
        for k, (p, q, shots) in enumerate([(0.0, 0.5, 100), (0.05, 0.3, 200),
                                           (0.5, 0.3, 100), (1.0, 0.5, 100),
                                           (1.0, 0.3, 100), (1.0, 1.0, 50),
                                           (1.0, 0.0, 50), (0.9, 0.8, 20)]):
            for seed in range(4):
                ds = tomography.simulate_tomography(states.family_state(p, q), shots,
                                                    RandomStream(seed, k))
                counts = ds.counts.ravel()
                p_hat, q_hat = tomography.family_mle(ds)
                z = family_point(p_hat, q_hat)
                best = family_log_likelihood(counts, grid).max()
                got = family_log_likelihood(counts, z)
                assert got >= best - 1e-9 * abs(best)
                seen = counts > 0
                grad = (counts[seen] / (a[seen] + jac[seen] @ z)) @ jac[seen] / counts.sum()
                # the gradient lies in the normal cone of the active
                # constraints: the outward normal z on the arc, (0, -1) on
                # the diameter
                on_arc, on_diameter = p_hat == 1.0, z[1] == 0.0
                if on_arc and on_diameter:
                    cases.add("corner")
                    assert grad[0] * z[0] >= -1e-12 and grad[1] <= 1e-12
                elif on_arc:
                    cases.add("arc")
                    assert abs(grad @ np.array([-z[1], z[0]])) < 1e-9
                    assert grad @ z >= -1e-12
                elif on_diameter:
                    cases.add("diameter")
                    assert abs(grad[0]) < 1e-12 and grad[1] <= 1e-12
                else:
                    cases.add("interior")
                    np.testing.assert_allclose(grad, 0.0, rtol=0.0, atol=1e-12)
        assert cases == {"arc", "corner", "diameter", "interior"}

    def test_count_the_family_never_gives_is_a_domain_error(self):
        counts = measurement.probabilities(states.family_state(0.4, 0.5)) * 100.0
        counts[0, 0] = 1.0  # HV,HV ++
        with pytest.raises(DomainError, match="HV,HV"):
            tomography.family_mle(tomography.TomoDataset(counts))

    def test_agrees_with_the_mle_and_least_squares_fit_on_the_default_grid(self):
        cfg = harness.SweepConfig()
        for point, p in enumerate(cfg.p_grid):
            ds = tomography.simulate_tomography(
                states.family_state(p, cfg.q), cfg.n_shots,
                RandomStream(cfg.master_seed, harness.TOMO_FLAG | point))
            fit = states.fit_family_params(tomography.reconstruct_mle(ds).state)
            assert tomography.family_mle(ds)[0] == pytest.approx(fit.p, rel=0.0, abs=2e-4)
