import hashlib
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qmet import estimation, harness, measurement, states, streams, tomography
from qmet.errors import ConfigError
from qmet.streams import RandomStream


def small_config(**kw) -> harness.SweepConfig:
    base = dict(p_grid=(0.0, 0.5, 1.0), n_shots=2000, repetitions=4,
                master_seed=9)
    base.update(kw)
    return harness.build_config(**base)


CLOSED_FORMS = {
    states.NEGATIVITY: states.negativity_closed,
    states.LOG_NEGATIVITY: states.log_negativity_closed,
    states.QGD: states.qgd_closed,
}


def per_kind_curves(kind: str, v: float, q: float) -> tuple[float, float]:
    """(non-optimal, QCRB) single-shot uncertainties, each kind written out in
    its own units; QCRB_N(q) = 4q(1-q) - N^2."""
    c = 4.0 * q * (1.0 - q)
    ln2 = math.log(2.0)
    if kind == states.NEGATIVITY:
        return math.sqrt(3.0 - 2.0 * v - v * v), math.sqrt(max(0.0, c - v * v))
    if kind == states.LOG_NEGATIVITY:
        nonopt = math.sqrt(max(0.0, -(4.0 ** -v) * (4.0 ** v - 4.0))) / ln2
        return nonopt, math.sqrt(max(0.0, c - (2.0 ** v - 1.0) ** 2)) / (2.0 ** v * ln2)
    nonopt = math.sqrt(max(0.0, -2.0 * v * (2.0 * v + 2.0 * math.sqrt(2.0 * v) - 3.0)))
    return nonopt, math.sqrt(max(0.0, (c - 2.0 * v) * 2.0 * v))


@pytest.fixture(scope="module")
def rows():
    return harness.run_sweep(small_config())


@pytest.fixture(scope="module")
def sweep(rows):
    return rows, small_config()


class TestConfig:
    def test_defaults(self):
        cfg = harness.SweepConfig()
        assert cfg.q == 0.5
        assert cfg.p_grid == tuple(round(0.1 * k, 10) for k in range(11))
        assert cfg.n_shots == 10_000
        assert cfg.repetitions == 10
        assert not hasattr(cfg, "variance_reps")
        assert cfg.master_seed == 42
        assert cfg.mixing_mode == harness.DIRECT_STATE

    def test_text_round_trip(self):
        cfg = small_config(q=0.25, mixing_mode=harness.POST_PROCESS_MIX)
        parsed = harness.parse_config_text(cfg.to_text())
        assert harness.build_config(**parsed) == cfg

    def test_parse_ignores_comments_and_blanks(self):
        text = "# comment\n\nq = 0.3  # trailing\nn_shots = 500\n"
        parsed = harness.parse_config_text(text)
        assert parsed == {"q": 0.3, "n_shots": 500}

    def test_parse_grid_forms(self):
        assert harness.parse_grid("0, 0.5, 1") == (0.0, 0.5, 1.0)
        assert harness.parse_grid("[0.1, 0.2]") == (0.1, 0.2)
        assert harness.parse_grid("0.3 0.7") == (0.3, 0.7)

    @pytest.mark.parametrize("text", [
        "unknown_key = 1",
        "q 0.5",
        "n_shots = allthe",
        "p_grid = 0, banana",
        "q = 0.3\nq = 0.4",         # a key set twice
        "p_grid = 0.1,,0.2",        # an empty grid entry
        "p_grid = 0.1, 0.2,",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ConfigError):
            harness.parse_config_text(text)

    @pytest.mark.parametrize("kw", [
        dict(q=1.5),
        dict(p_grid=()),
        dict(p_grid=(0.0, 1.2)),
        dict(n_shots=0),
        dict(n_shots=2 ** 63),  # beyond the int64 counts of a draw
        dict(repetitions=1),
        dict(variance_reps=1_000),  # removed knob: now an unknown key
        dict(mixing_mode="Bogus"),
        dict(master_seed=2 ** 64),  # keyed mod 2**64, it would alias seed 0
        dict(repetitions=2 ** 60),  # run indices would reach the tomography streams
        dict(n_shots=100.7),  # would draw 100 shots and write 100.7
        dict(n_shots=True),  # bools would print as True in the CSV
        dict(master_seed=True),
        dict(repetitions=2.5),
        dict(master_seed=1.0),
        # not numbers
        dict(q="a"),
        dict(q=True),
        dict(p_grid=("a",)),
        dict(p_grid=["a"]),
        dict(p_grid=(0.5, None)),
        dict(n_shots="100"),
        dict(q=float("nan")),
        # a grid that is one number, or a string of its characters
        dict(p_grid=0.5),
        dict(p_grid="0.5"),
        # integers too long for repr, which raises ValueError past 4300 digits
        dict(n_shots=10 ** 5000),
        dict(master_seed=-10 ** 5000),
        dict(p_grid=(10 ** 5000,)),
    ])
    def test_validate_rejects(self, kw):
        with pytest.raises(ConfigError):
            harness.build_config(**kw)

    @pytest.mark.parametrize("grid", [0.5, "0.5", b"0.5", None, np.float64(0.5)])
    def test_a_grid_that_is_not_a_sequence_of_numbers_is_a_config_error(self, grid):
        with pytest.raises(ConfigError, match="p_grid must be a non-empty sequence"):
            harness.SweepConfig(p_grid=grid)

    def test_an_integer_too_long_to_print_is_shown_by_its_length(self):
        with pytest.raises(ConfigError, match="got an integer of about 5001 digits"):
            harness.SweepConfig(n_shots=10 ** 5000)

    def test_numpy_integers_are_accepted_and_stored_as_ints(self):
        cfg = harness.SweepConfig(n_shots=np.int64(500), repetitions=np.int32(3),
                                  master_seed=np.int64(-7))
        assert (cfg.n_shots, cfg.repetitions, cfg.master_seed) == (500, 3, -7)
        assert all(type(v) is int for v in (cfg.n_shots, cfg.repetitions, cfg.master_seed))
        assert cfg == harness.build_config(n_shots=500, repetitions=3, master_seed=-7)

    def test_file_then_override_precedence(self):
        text = "q = 0.3\nn_shots = 777\n"
        cfg = harness.build_config(text, n_shots=999)
        assert cfg.q == 0.3
        assert cfg.n_shots == 999


class TestRunSweep:
    def test_structure(self, rows):
        assert len(rows) == 3
        for row in rows:
            assert len(row.stats) == 6
            kinds = {st.kind for st in row.stats}
            assert kinds == set(harness.SWEEP_KINDS)
            for st in row.stats:
                assert math.isfinite(st.mean) and math.isfinite(st.stddev)
                assert st.stddev >= 0.0
                assert st.unc_qcrb <= st.unc_nonopt + 1e-12

    def test_theory_columns_are_the_closed_curves(self, rows):
        off_half = small_config(q=0.3)
        for cfg, swept in ((small_config(), rows),
                           (off_half, harness.run_sweep(off_half))):
            for row, p in zip(swept, cfg.p_grid):
                for st in row.stats:
                    truth = CLOSED_FORMS[st.kind](p, cfg.q)
                    nonopt, qcrb = per_kind_curves(st.kind, truth, cfg.q)
                    assert st.theory_value == pytest.approx(truth, abs=1e-12)
                    assert st.unc_nonopt == pytest.approx(nonopt, abs=1e-12)
                    # at the pure endpoint the bound is the root of a
                    # difference that rounds to about 1e-16
                    tol = 1e-7 if p == 1.0 else 1e-12
                    assert st.unc_qcrb == pytest.approx(qcrb, abs=tol)

    def test_pure_endpoint(self, rows):
        last = rows[-1]
        st = next(s for s in last.stats
                  if s.kind == states.NEGATIVITY and s.variant == "optimal")
        assert st.mean == pytest.approx(1.0, abs=1e-9)
        assert st.stddev == pytest.approx(0.0, abs=1e-9)

    def test_unentangled_endpoint_means_near_zero(self, rows):
        first = rows[0]
        for st in first.stats:
            assert abs(st.mean) < 0.12  # ~5 sigma at n=2000, M=4
        st = next(s for s in first.stats
                  if s.kind == states.NEGATIVITY and s.variant == "optimal")
        assert st.unc_qcrb == pytest.approx(1.0, abs=1e-12)

    def test_p_fitted_tracks_p_true(self, rows):
        for row in rows:
            assert abs(row.p_fitted - row.p_true) < 0.05

    def test_deterministic(self, rows):
        cfg = small_config()
        again = harness.run_sweep(cfg)
        assert harness.csv_text(again, cfg) == harness.csv_text(rows, cfg)

    def test_postprocess_mode_agrees_loosely(self, rows):
        cfg = small_config(mixing_mode=harness.POST_PROCESS_MIX)
        mixed = harness.run_sweep(cfg)
        for row_d, row_m in zip(rows, mixed):
            for st_d, st_m in zip(row_d.stats, row_m.stats):
                assert abs(st_d.mean - st_m.mean) < 0.1


def _reference_csv(cfg: harness.SweepConfig) -> str:
    """The sweep CSV built record by record from the public per-record API."""
    def stream(point: int, rep: int, slot: int) -> RandomStream:
        return RandomStream(cfg.master_seed, (point * cfg.repetitions + rep) * 8 + slot)

    def sample(rho, s: RandomStream) -> measurement.OutcomeCounts:
        return measurement.sample_counts(rho, measurement.DA_DA, cfg.n_shots, s)

    rows = []
    for point, p in enumerate(cfg.p_grid):
        values = {(k, v): [] for k in harness.SWEEP_KINDS for v in estimation.VARIANTS}
        for rep in range(cfg.repetitions):
            if cfg.mixing_mode == harness.DIRECT_STATE:
                record = sample(states.family_state(p, cfg.q), stream(point, rep, 0))
            else:
                pure = sample(states.family_state(1.0, cfg.q), stream(point, rep, 1))
                mix = sample(states.dephased_mixture(), stream(point, rep, 2))
                record = measurement.mix_counts(pure, mix, p, stream(point, rep, 3))
            for kind, variant in values:
                values[(kind, variant)].append(
                    estimation.estimate(kind, variant, record).value_clamped)
        stats = []
        for (kind, variant), vals in values.items():
            truth = CLOSED_FORMS[kind](p, cfg.q)
            vals = np.asarray(vals)
            stats.append(harness.EstimatorStats(
                kind, variant, float(vals.mean()), float(vals.std(ddof=1)), truth,
                estimation.nonopt_unc_curves(kind, truth),
                estimation.qcrb_unc(kind, truth, cfg.q)))
        dataset = tomography.simulate_tomography(
            states.family_state(p, cfg.q), cfg.n_shots,
            RandomStream(cfg.master_seed, harness.TOMO_FLAG | point))
        rows.append(harness.SweepRow(float(p), tomography.family_mle(dataset)[0], stats))
    return harness.csv_text(rows, cfg)


@pytest.mark.parametrize("mode", harness.MIXING_MODES)
def test_batched_sweep_matches_per_record_reference(mode):
    cfg = small_config(p_grid=(0.0, 0.35, 1.0), n_shots=150, repetitions=7,
                       master_seed=-4, mixing_mode=mode, q=0.3)
    assert harness.csv_text(harness.run_sweep(cfg), cfg) == _reference_csv(cfg)


# SHA-256 of the default sweep's CSV, p_fitted included: the family MLE's p
# is a closed form of the counts (1 on the arc), so its bytes repeat too
DEFAULT_SWEEP_DIGESTS = {
    harness.DIRECT_STATE:
        "4af5015ec00627a20f5b6db29c537900c120aa0e08e9643b511add3c8c659436",
    harness.POST_PROCESS_MIX:
        "3cd31d302d50b8d14fbcc1facd28b3509814d7e90bed0b0eff7fec820b9f09f3",
}
# SHA-256 of the default sweep's six SVGs, which do not read p_fitted
DEFAULT_SVG_DIGESTS = {
    harness.DIRECT_STATE: {
        ("negativity", "nonoptimal"):
            "e813f9ccbcaa47dc5504bd1e0774de4889624222e0c2ec5f3bc7cba0adabfeed",
        ("negativity", "optimal"):
            "5401778d4fa25679fa0cf80bfd9e23096f8e26b2bc5392f6f6c48567c61e1285",
        ("log_negativity", "nonoptimal"):
            "8a1bbdaf9cbf0e3b880fb0f38d17e57deaeab97660ca0e82b906f20630113d55",
        ("log_negativity", "optimal"):
            "6c0a8634e1b21c80b3c25234e36d641dbfa9dd878b90d630a92ad75951592ca0",
        ("qgd", "nonoptimal"):
            "f64948cdf8874cc0fd55cd35ea89932c1416d2064ecfb0abd9c00e11b5a7e938",
        ("qgd", "optimal"):
            "b8ee909e9d3901488734903b9444f5ba983f5a162699673cbd0edbeecd220377",
    },
    harness.POST_PROCESS_MIX: {
        ("negativity", "nonoptimal"):
            "e4cd356b5da7da768b89582b317c3164a240bcb4c42b643415e37f6e06940577",
        ("negativity", "optimal"):
            "2921f9b2d3be478984280fffa031afcd6e83432f1dec0a006e4f158dc6b01509",
        ("log_negativity", "nonoptimal"):
            "16edae8a188395949ad0302881f2f8bc3adae1f0d475f1cb20d810fe6f8afe30",
        ("log_negativity", "optimal"):
            "794ee7af8d7263487917e7c1660396b7a62659cb395dbee711621ca3f49f45e9",
        ("qgd", "nonoptimal"):
            "7e42e7004fdd726d9738f3898c08b51f00fbd7b1af2c122c8548f9a2baaae529",
        ("qgd", "optimal"):
            "6168f26689e601f9552cebfc8f6777ff91c18de787851f66375e3c9f72b836f5",
    },
}
@pytest.mark.parametrize("mode", harness.MIXING_MODES)
def test_default_sweep_is_frozen(mode):
    cfg = harness.build_config(mixing_mode=mode)
    rows = harness.run_sweep(cfg)
    text = harness.csv_text(rows, cfg)
    assert hashlib.sha256(text.encode()).hexdigest() == DEFAULT_SWEEP_DIGESTS[mode]
    svg_digests = {
        (kind, variant): hashlib.sha256(
            harness.svg_text(rows, cfg, kind, variant).encode("ascii")).hexdigest()
        for kind in harness.SWEEP_KINDS for variant in estimation.VARIANTS}
    assert svg_digests == DEFAULT_SVG_DIGESTS[mode]


# SHA-256 of the CSV and six SVGs off q = 1/2, where the quantum bound's
# curve is not the optimal estimator's: q = 0.3, whose fit of p = 1 reaches
# the arc, and q = 0.7 in PostProcessMix
OFF_HALF_DIGESTS = {
    (0.3, harness.DIRECT_STATE): (
        "a496f722d46ba33457b80abeca2196960fb1b5ca7aaab4f05e57a38e28319fa0", {
            ("negativity", "nonoptimal"):
                "f27213deb9dfb039ae060f13d6d523aa5ae27bc792ba559339c78835b223dc33",
            ("negativity", "optimal"):
                "1ecd1aeef897de1a0586fe4f04a0f92e35e4d00c2248ded834806a56e36dae98",
            ("log_negativity", "nonoptimal"):
                "c465ddeb85044ae7ac7b2c6349b76ed19323854d54937b580109c1794536d591",
            ("log_negativity", "optimal"):
                "8c85c5bc22445f41ac2b616343047d3466b355ff6bb55dd45355d69cfd6eddf0",
            ("qgd", "nonoptimal"):
                "2231fe14a1cb4d64dbfd5571fae3cbdce649a76612f7d26251e2033ff587942d",
            ("qgd", "optimal"):
                "a100313c872473f02a6a42eb4514ecf8fbbc2f2be91ad6959f884f513115e679",
        }),
    (0.7, harness.POST_PROCESS_MIX): (
        "cb447cdbef3a3c1ef90c62063f0a2bca4f754b569feb06c6e3d5a543338b392e", {
            ("negativity", "nonoptimal"):
                "10aa2a60df9f6d825cfff1acea5f1973429a592581688f425b6ba7af063a06c4",
            ("negativity", "optimal"):
                "547d717102c69a9574c7dfc0fd4951bb98e11480cbd8ffa3fe29f433cffbbe84",
            ("log_negativity", "nonoptimal"):
                "173e72b4583d97eebd1961c71a94eb26cf7ae09bcb6b456ded8e1ce4490e0a0c",
            ("log_negativity", "optimal"):
                "0cf130304b2cb782d85746dbfba6728e8652ed7bae2117d5ee3bd6221abe4a64",
            ("qgd", "nonoptimal"):
                "42eb8a684a0f0640548c5979ceef611a64b686c1078af6c79cb873755bdf47b5",
            ("qgd", "optimal"):
                "7e96325ed72c771aa7e55c27e633b6f9c2d09c4df583ec5cfb7724f86d9b8e64",
        }),
}


@pytest.mark.parametrize("q, mode", sorted(OFF_HALF_DIGESTS))
def test_sweep_off_half_is_frozen(q, mode):
    cfg = harness.build_config(q=q, mixing_mode=mode)
    rows = harness.run_sweep(cfg)
    csv_digest, svg_digests = OFF_HALF_DIGESTS[q, mode]
    assert hashlib.sha256(harness.csv_text(rows, cfg).encode()).hexdigest() == csv_digest
    assert {(kind, variant): hashlib.sha256(
                harness.svg_text(rows, cfg, kind, variant).encode("ascii")).hexdigest()
            for kind, variant in svg_digests} == svg_digests


class TestEmission:
    def test_csv_header_and_shape(self, sweep):
        rows, cfg = sweep
        text = harness.csv_text(rows, cfg)
        lines = text.splitlines()
        assert lines[0] == ("p_true,p_fitted,kind,variant,mean,stddev,"
                            "theory_value,unc_nonopt,unc_qcrb,n_shots,reps,seed")
        assert len(lines) == 1 + 3 * 6
        assert text.endswith("\n") and "\r" not in text
        for line in lines[1:]:
            assert len(line.split(",")) == 12

    def test_csv_trailing_columns(self, sweep):
        rows, cfg = sweep
        line = harness.csv_text(rows, cfg).splitlines()[1]
        assert line.endswith(f",{cfg.n_shots},{cfg.repetitions},{cfg.master_seed}")

    def test_csv_write_is_byte_stable(self, sweep, tmp_path):
        rows, cfg = sweep
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.emit_csv(rows, cfg, a)
        harness.emit_csv(rows, cfg, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rows_error_and_no_file(self, sweep, tmp_path):
        _, cfg = sweep
        target = tmp_path / "never.csv"
        with pytest.raises(ConfigError):
            harness.emit_csv([], cfg, target)
        assert not target.exists()

    def test_one_point_sweep(self, tmp_path):
        cfg = small_config(p_grid=(0.6,))
        rows = harness.run_sweep(cfg)
        path = tmp_path / "one.csv"
        harness.emit_csv(rows, cfg, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 6

    def test_svg_well_formed_with_curves_and_bars(self, sweep):
        rows, cfg = sweep
        for kind in harness.SWEEP_KINDS:
            for variant in estimation.VARIANTS:
                svg = harness.svg_text(rows, cfg, kind, variant)
                root = ET.fromstring(svg)
                assert root.tag.endswith("svg")
                body = "".join(svg.splitlines())
                # dashed value curve, dotted and solid envelopes
                assert body.count("stroke-dasharray=\"8 5\"") >= 1
                assert body.count("stroke-dasharray=\"2 4\"") >= 2
                assert body.count("<circle") == len(rows)

    def test_svg_rejects_unknown_kind_or_variant(self, sweep):
        rows, cfg = sweep
        with pytest.raises(ConfigError):
            harness.svg_text(rows, cfg, "entropy", "optimal")
        with pytest.raises(ConfigError):
            harness.svg_text(rows, cfg, states.NEGATIVITY, "bogus")
        with pytest.raises(ConfigError):
            harness.svg_text([], cfg, states.NEGATIVITY, "optimal")

    def test_emit_all_writes_seven_files(self, sweep, tmp_path):
        rows, cfg = sweep
        written = harness.emit_all(rows, cfg, tmp_path / "out")
        assert len(written) == 7
        names = sorted(p.rsplit("/", 1)[-1] for p in written)
        assert names == sorted(
            ["sweep.csv"] + [f"{k}_{v}.svg" for k in harness.SWEEP_KINDS
                             for v in estimation.VARIANTS])


class TestStddevScaling:
    def test_optimal_negativity_stddev_tracks_qcrb(self):
        # p=0.6, q=1/2 -> stddev*sqrt(n) near 0.8 (loose M here)
        cfg = small_config(p_grid=(0.6,), n_shots=10_000, repetitions=60,
                          master_seed=5)
        rows = harness.run_sweep(cfg)
        st = next(s for s in rows[0].stats
                  if s.kind == states.NEGATIVITY and s.variant == "optimal")
        scaled = st.stddev * np.sqrt(cfg.n_shots)
        assert scaled == pytest.approx(0.8, rel=0.25)


def test_sweep_fits_p_with_no_eigensolve_on_the_arc(eigensolves):
    # the tomography draw reads each point's probabilities table, and the
    # family MLE is a closed form of the counts, with a 1-D root on the arc
    # p = 1 that the q = 0.3 fit of p = 1 reaches: one eigensolve per point,
    # the check of its state
    cfg = small_config(q=0.3)
    rows = harness.run_sweep(cfg)
    assert rows[-1].p_fitted == 1.0
    assert len(eigensolves) == len(cfg.p_grid)


@pytest.mark.parametrize("mode, budget", [
    # per point: one check of rho(p, q); PostProcessMix adds the pure and
    # dephased DA,DA laws once per sweep
    (harness.DIRECT_STATE, 11),
    (harness.POST_PROCESS_MIX, 11 + 2),
])
def test_default_sweep_eigensolve_budget(eigensolves, mode, budget):
    harness.run_sweep(harness.build_config(mixing_mode=mode))
    assert len(eigensolves) == budget


@pytest.mark.parametrize("mode, builds", [
    # the default grid is one batch: one keyed draw per slot, plus one for
    # the tomography datasets
    (harness.DIRECT_STATE, 1 + 1),
    (harness.POST_PROCESS_MIX, 3 + 1),
])
def test_default_sweep_philox_budget(philox_builds, mode, builds):
    harness.run_sweep(harness.build_config(mixing_mode=mode))
    assert len(philox_builds) == builds


@pytest.mark.parametrize("mode, builds", [
    # M = 300 > ROWS makes each of the 3 points a batch of its own
    (harness.DIRECT_STATE, 3 * (1 + 1)),
    (harness.POST_PROCESS_MIX, 3 * (3 + 1)),
])
def test_one_point_batch_philox_budget(philox_builds, mode, builds):
    harness.run_sweep(small_config(q=0.3, repetitions=300, mixing_mode=mode))
    assert len(philox_builds) == builds


@pytest.mark.parametrize("mode, budget", [
    # one table per point serves its DA,DA law and its tomography draw;
    # PostProcessMix adds the pure and dephased laws once per sweep
    (harness.DIRECT_STATE, 11),
    (harness.POST_PROCESS_MIX, 11 + 2),
])
def test_default_sweep_probabilities_budget(monkeypatch, mode, budget):
    calls = []
    original = measurement.probabilities

    def counted(rho):
        calls.append(rho)
        return original(rho)

    monkeypatch.setattr(measurement, "probabilities", counted)
    harness.run_sweep(harness.build_config(mixing_mode=mode))
    assert len(calls) == budget


@pytest.mark.parametrize("mode", harness.MIXING_MODES)
def test_default_sweep_reads_its_curves_at_n(monkeypatch, tmp_path, mode):
    # the sweep and its six panels know the exact N of every point, so no
    # curve value goes back through the range-checked measure -> N map
    calls = []
    original = estimation._to_n

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimation, "_to_n", counted)
    cfg = harness.build_config(mixing_mode=mode)
    harness.emit_all(harness.run_sweep(cfg), cfg, tmp_path)
    assert calls == []


@pytest.mark.parametrize("mode", harness.MIXING_MODES)
def test_sweep_does_not_depend_on_the_batch_size(monkeypatch, mode):
    # 5 points x 3 repetitions: ROWS = 1 makes one-point batches, 7 two-point
    # batches with a ragged last one, 100 one batch of the whole grid
    cfg = small_config(p_grid=(0.0, 0.2, 0.45, 0.8, 1.0), n_shots=300, repetitions=3,
                       master_seed=-11, mixing_mode=mode, q=0.3)
    sizes = []
    original = streams.keyed_multinomials

    def spied(master_seed, run_indices, n, pvals):
        sizes.append(len(run_indices))
        return original(master_seed, run_indices, n, pvals)

    monkeypatch.setattr(streams, "keyed_multinomials", spied)
    texts = []
    for rows in (1, 7, 100):
        monkeypatch.setattr(harness, "ROWS", rows)
        sizes.clear()
        texts.append(harness.csv_text(harness.run_sweep(cfg), cfg))
        assert 0 < max(sizes) <= max(cfg.repetitions, rows)
    assert texts[0] == texts[1] == texts[2] == _reference_csv(cfg)


@pytest.mark.parametrize("q", [0.1, 0.2, 0.3, 0.35, 0.7])
def test_quantum_bound_is_exactly_zero_at_the_pure_endpoint(q):
    # 4q(1-q) - N^2 as a difference of rounded squares wrote 1.12e-08 for
    # log-negativity at q = 0.3, p = 1
    rows = harness.run_sweep(small_config(q=q, p_grid=(0.5, 1.0), repetitions=2))
    n = states.negativity_closed(0.5, q)
    for st in rows[0].stats:
        dfrom = states.MEASURES[st.kind].dfrom_n(n)
        assert st.unc_qcrb == pytest.approx(math.sqrt(4.0 * q * (1.0 - q) - n * n) * dfrom,
                                            rel=1e-12)
    assert [st.unc_qcrb for st in rows[1].stats] == [0.0] * len(rows[1].stats)
