import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qmet import cli, harness, measurement, states, tomography
from qmet.streams import RandomStream

README = Path(__file__).resolve().parent.parent / "README.md"
TOO_MANY_SHOTS = str(2 ** 63)


def run_main(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestState:
    def test_json_measures_match_closed_forms(self, capsys):
        code, out = run_main(capsys, ["state", "--p", "0.6", "--q", "0.5",
                                      "--json"])
        assert code == 0
        blob = json.loads(out)
        assert blob["measures"]["negativity"] == pytest.approx(0.6, abs=1e-9)
        assert blob["measures"]["qgd"] == pytest.approx(0.18, abs=1e-9)
        assert blob["fit"]["p"] == pytest.approx(0.6, abs=1e-6)
        assert np.array(blob["matrix_real"]).shape == (4, 4)

    def test_plain_text_mentions_fit(self, capsys):
        code, out = run_main(capsys, ["state", "--p", "0.3", "--q", "0.4"])
        assert code == 0
        assert "measures:" in out and "fit:" in out

    def test_out_of_range_is_domain_error(self, capsys):
        assert cli.main(["state", "--p", "1.5", "--q", "0.5"]) == 3


class TestProbe:
    def test_probabilities_printed(self, capsys):
        code, out = run_main(capsys, ["probe", "--p", "0.6", "--q", "0.5"])
        assert code == 0
        assert "pp: 0.100000000" in out
        assert "pm: 0.400000000" in out


class TestSample:
    def test_deterministic_record(self, capsys):
        code, first = run_main(capsys, ["sample", "--p", "0.5", "--q", "0.5",
                                        "--n", "500", "--seed", "3"])
        assert code == 0
        _, second = run_main(capsys, ["sample", "--p", "0.5", "--q", "0.5",
                                      "--n", "500", "--seed", "3"])
        assert first == second
        record = json.loads(first)
        assert record["seed"] == 3
        assert sum(record[k] for k in ("n_pp", "n_pm", "n_mp", "n_mm")) == 500

    def test_seed_defaults_to_42(self, capsys):
        argv = ["sample", "--p", "0.5", "--n", "1000"]
        _, out = run_main(capsys, argv)
        assert out == run_main(capsys, argv + ["--seed", "42"])[1]
        assert json.loads(out)["seed"] == 42

    @pytest.mark.parametrize("seed", [str(-2 ** 63), str(2 ** 63 - 1)])
    def test_int64_seed_extremes_are_drawn(self, capsys, seed):
        code, out = run_main(capsys, ["sample", "--p", "0.5", "--n", "1000",
                                      "--seed", seed])
        assert code == 0
        assert json.loads(out)["seed"] == int(seed)

    def test_largest_shot_count_is_drawn(self, capsys):
        code, out = run_main(capsys, ["sample", "--p", "0.5", "--n", str(2 ** 63 - 1)])
        assert code == 0
        record = json.loads(out)
        assert sum(record[k] for k in ("n_pp", "n_pm", "n_mp", "n_mm")) == 2 ** 63 - 1


# `qmet sample --p 0.6 --n 10000` counts (n_pp, n_pm, n_mp, n_mm) by seed, and
# the (9, 4) counts `qmet tomo --p 0.6 --n-per-setting 2000 --seed 3`
# reconstructs from; a change to any of them is a change of draws
PINNED_SAMPLES = {
    42: (992, 4020, 3987, 1001),
    -7: (1020, 3999, 4004, 977),
    -2 ** 63: (1058, 3977, 3986, 979),
    2 ** 63 - 1: (1050, 4012, 3962, 976),
}
PINNED_TOMO_COUNTS = [
    [0, 1041, 959, 0], [518, 503, 508, 471], [482, 471, 529, 518],
    [487, 506, 524, 483], [219, 783, 809, 189], [514, 493, 501, 492],
    [509, 513, 480, 498], [496, 495, 489, 520], [185, 808, 799, 208],
]


def test_cli_draws_are_pinned(capsys):
    for seed, counts in PINNED_SAMPLES.items():
        code, out = run_main(capsys, ["sample", "--p", "0.6", "--n", "10000",
                                      "--seed", str(seed)])
        assert code == 0
        assert json.loads(out) == {"setting": "DA,DA", "n_pp": counts[0], "n_pm": counts[1],
                                   "n_mp": counts[2], "n_mm": counts[3], "seed": seed}
    rho = states.check_state(states.family_state(0.6, 0.5))
    dataset = tomography.simulate_tomography(rho, 2000, RandomStream(3))
    assert dataset.counts.tolist() == PINNED_TOMO_COUNTS


def test_parser_is_built_once_and_reused(capsys):
    assert cli.build_parser() is cli.build_parser()
    sample = ["sample", "--p", "0.6", "--n", "500", "--seed", "-7"]
    # an argparse failure (--n is required) first, then runs on the same parser
    runs = [["sample", "--p", "0.5"], sample, ["sweep", "--print-config"], sample]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    cached = [run(argv) for argv in runs]
    fresh = []
    for argv in runs:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert cached == fresh
    assert cached[0][0] == 2 and cached[1] == cached[3]


@pytest.mark.parametrize("argv, code", [
    (["sample", "--p", "0.5", "--n", TOO_MANY_SHOTS], 3),
    (["tomo", "--p", "0.5", "--n-per-setting", TOO_MANY_SHOTS], 3),
    (["sweep", "--n-shots", TOO_MANY_SHOTS, "--print-config"], 2),
])
def test_shot_counts_beyond_int64_are_rejected(capsys, argv, code):
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert "2**63 - 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("seed", [str(2 ** 64), str(2 ** 64 - 1), str(2 ** 63),
                                  str(-2 ** 63 - 1)])
@pytest.mark.parametrize("argv", [
    ["sample", "--p", "0.5", "--n", "1000"],
    ["estimate", "--kind", "negativity", "--variant", "optimal", "--p", "0.5",
     "--n", "1000"],
    ["tomo", "--p", "0.5", "--n-per-setting", "100"],
    ["sweep", "--print-config"],
])
def test_seeds_beyond_int64_are_rejected(capsys, argv, seed):
    # the streams key a seed mod 2**64: 2**64 would draw seed 0's record
    # and 2**64 - 1 seed -1's
    assert cli.main(argv + ["--seed", seed]) == 2
    captured = capsys.readouterr()
    assert "[-2**63, 2**63)" in captured.err
    assert captured.out == ""


class TestEstimate:
    def test_endpoint_value(self, capsys):
        # pure endpoint: optimal negativity at p=1 lands within 3/sqrt(n) of 1
        code, out = run_main(capsys, ["estimate", "--kind", "negativity",
                                      "--variant", "optimal", "--p", "1",
                                      "--q", "0.5", "--n", "10000",
                                      "--seed", "7"])
        assert code == 0
        blob = json.loads(out)
        assert abs(blob["value"] - 1.0) <= 3.0 / np.sqrt(10000)
        assert blob["n_shots"] == 10000

    def test_counts_file_round_trip(self, capsys, tmp_path):
        _, sampled = run_main(capsys, ["sample", "--p", "0.6", "--q", "0.5",
                                       "--n", "2000", "--seed", "11"])
        path = tmp_path / "counts.json"
        path.write_text(sampled)
        code, out = run_main(capsys, ["estimate", "--kind", "qgd",
                                      "--variant", "nonoptimal",
                                      "--counts", str(path)])
        assert code == 0
        blob = json.loads(out)
        assert blob["kind"] == "qgd"
        assert blob["variant"] == "nonoptimal"
        assert 0.0 <= blob["value"] <= 0.5 or blob["clamped"]

    def test_estimate_beyond_reach_clips_reference(self, capsys, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"setting": "DA,DA", "n_pp": 0, "n_pm": 500,
                                    "n_mp": 500, "n_mm": 0}))
        code, out = run_main(capsys, ["estimate", "--kind", "negativity",
                                      "--variant", "optimal", "--q", "0.2",
                                      "--counts", str(path)])
        assert code == 0
        blob = json.loads(out)
        assert blob["value"] == 1.0
        assert blob["unc_qcrb"] == pytest.approx(0.0, abs=1e-6)
        assert blob["unc_theory"] == pytest.approx(0.6, abs=1e-12)

    def test_missing_inputs_is_config_error(self, capsys):
        assert cli.main(["estimate", "--kind", "negativity",
                         "--variant", "optimal"]) == 2

    @pytest.mark.parametrize("extra", [
        ["--p", "0.1"], ["--n", "5"], ["--seed", "3"],
        ["--p", "0.1", "--n", "5", "--seed", "3"],
    ])
    def test_counts_with_draw_flags_is_config_error(self, capsys, tmp_path, extra):
        # a draw flag has no meaning for a counts file: it is refused, not ignored
        path = tmp_path / "counts.json"
        path.write_text('{"n_pp": 10, "n_pm": 40, "n_mp": 40, "n_mm": 10}')
        code = cli.main(["estimate", "--kind", "negativity", "--variant", "optimal",
                         "--counts", str(path), *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("config error:")
        assert "Traceback" not in captured.err

    def test_missing_counts_file_is_config_error(self, capsys):
        assert cli.main(["estimate", "--kind", "negativity", "--variant",
                         "optimal", "--counts", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("payload", [
        b'{"n_pp": 1, "n_pm": 2,',             # truncated JSON
        b"not json at all",
        b'{"setting": "DA,DA", "n_pp": "\xff"}',  # not UTF-8
        b"\xff\xfe\x00",                        # not text in any JSON encoding
    ])
    def test_malformed_counts_file_is_config_error(self, capsys, tmp_path, payload):
        path = tmp_path / "counts.json"
        path.write_bytes(payload)
        code = cli.main(["estimate", "--kind", "negativity", "--variant",
                         "optimal", "--counts", str(path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("record", [
        {"n_pp": 1.7, "n_pm": 2, "n_mp": 3, "n_mm": 4},
        {"n_pp": 1, "n_pm": "2", "n_mp": 3, "n_mm": 4},
        {"n_pp": 1, "n_pm": 2, "n_mp": True, "n_mm": 4},
        [1, 2, 3, 4],
        # the DA,DA estimators cannot read another setting's counts
        {"setting": "HV,HV", "n_pp": 0, "n_pm": 500, "n_mp": 500, "n_mm": 0},
        {"setting": 5, "n_pp": 1, "n_pm": 2, "n_mp": 3, "n_mm": 4},
        # a total beyond the 2**63 - 1 shots any draw can hold
        {"n_pp": 1e300, "n_pm": 5, "n_mp": 0, "n_mm": 0},
        # an integer past float range, which float() cannot hold
        {"n_pp": 10 ** 399, "n_pm": 1, "n_mp": 1, "n_mm": 1},
    ])
    def test_non_integer_counts_are_domain_error(self, capsys, tmp_path, record):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(record))
        code = cli.main(["estimate", "--kind", "negativity", "--variant",
                         "optimal", "--counts", str(path)])
        assert code == 3
        assert "domain error" in capsys.readouterr().err

    def test_integral_float_counts_accepted(self, capsys, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text('{"n_pp": 10.0, "n_pm": 40, "n_mp": 40, "n_mm": 10}')
        code, out = run_main(capsys, ["estimate", "--kind", "negativity",
                                      "--variant", "optimal", "--counts",
                                      str(path)])
        assert code == 0
        assert json.loads(out)["n_shots"] == 100


class TestSweep:
    def test_print_config_defaults(self, capsys):
        code, out = run_main(capsys, ["sweep", "--print-config"])
        assert code == 0
        assert out == harness.SweepConfig().to_text()

    def test_sweep_writes_all_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out = run_main(capsys, [
            "sweep", "--p-grid", "0,1", "--n-shots", "800", "--reps", "3",
            "--seed", "5", "--out-dir", str(out_dir)])
        assert code == 0
        written = out.strip().splitlines()
        assert len(written) == 7
        csv = (out_dir / "sweep.csv").read_text()
        assert csv.splitlines()[0].startswith("p_true,p_fitted,kind")
        assert len(csv.splitlines()) == 1 + 2 * 6

    def test_config_file_plus_override(self, capsys, tmp_path):
        cfg_file = tmp_path / "sweep.cfg"
        cfg_file.write_text("p_grid = 0.5\nn_shots = 600\nrepetitions = 3\n"
                            "master_seed = 77\n")
        code, out = run_main(capsys, ["sweep", "--config", str(cfg_file),
                                      "--print-config", "--n-shots", "900"])
        assert code == 0
        assert "n_shots = 900" in out
        assert "master_seed = 77" in out

    def test_byte_identical_csv_across_runs(self, capsys, tmp_path):
        args = ["sweep", "--p-grid", "0,0.5", "--n-shots", "500", "--reps",
                "3", "--seed", "21"]
        code_a, _ = run_main(capsys, args + ["--out-dir", str(tmp_path / "a")])
        code_b, _ = run_main(capsys, args + ["--out-dir", str(tmp_path / "b")])
        assert code_a == code_b == 0
        assert ((tmp_path / "a" / "sweep.csv").read_bytes()
                == (tmp_path / "b" / "sweep.csv").read_bytes())

    def test_negative_zero_grid_point_writes_zero(self, capsys, tmp_path):
        code, _ = run_main(capsys, ["sweep", "--p-grid=-0,0.5", "--reps", "2",
                                    "--n-shots", "100", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = [line.split(",") for line in
                (tmp_path / "sweep.csv").read_text().splitlines()[1:7]]
        assert {(row[0], row[6]) for row in rows} == {("0", "0")}
        assert "-0," not in (tmp_path / "sweep.csv").read_text()

    def test_config_file_with_byte_order_mark(self, capsys, tmp_path):
        cfg_file = tmp_path / "bom.cfg"
        cfg_file.write_bytes(b"\xef\xbb\xbfq = 0.3\n")
        code, out = run_main(capsys, ["sweep", "--config", str(cfg_file),
                                      "--print-config"])
        assert code == 0
        assert "q = 0.3\n" in out

    def test_missing_config_file(self, capsys):
        assert cli.main(["sweep", "--config", "/nonexistent.cfg"]) == 2

    def test_bad_grid_token_is_config_error(self, capsys):
        code = cli.main(["sweep", "--p-grid", "0.1,abc", "--print-config"])
        assert code == 2
        assert "abc" in capsys.readouterr().err

    def test_empty_grid_entry_is_config_error(self, capsys):
        assert cli.main(["sweep", "--p-grid", "0.1,,0.2", "--print-config"]) == 2
        assert "empty grid entry" in capsys.readouterr().err

    def test_key_set_twice_is_config_error(self, capsys, tmp_path):
        cfg_file = tmp_path / "twice.cfg"
        cfg_file.write_text("q = 0.3\nq = 0.4\n")
        assert cli.main(["sweep", "--config", str(cfg_file), "--print-config"]) == 2
        assert "'q' is set twice" in capsys.readouterr().err

    def test_bad_config_value(self, capsys, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("mixing_mode = Sideways\n")
        assert cli.main(["sweep", "--config", str(cfg_file)]) == 2

    def test_unusable_out_dir_fails_before_the_sweep(self, capsys, tmp_path,
                                                      monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")

        def run_sweep(cfg):
            raise AssertionError("run_sweep called before --out-dir was made")

        monkeypatch.setattr(harness, "run_sweep", run_sweep)
        code = cli.main(["sweep", "--p-grid", "0.5", "--reps", "2",
                         "--out-dir", str(blocker / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    # integers are base 10, as the --n-shots, --reps and --seed flags read them
    @pytest.mark.parametrize("text, value", [
        ("n_shots = 010\n", 10), ("n_shots = 1_000\n", 1000),
        ("n_shots = \u0661\u0662\n", 12),
    ])
    def test_config_integers_are_base_10(self, capsys, tmp_path, text, value):
        cfg_file = tmp_path / "ints.cfg"
        cfg_file.write_text(text, encoding="utf-8")
        code, out = run_main(capsys, ["sweep", "--config", str(cfg_file), "--print-config"])
        assert code == 0
        assert out == harness.SweepConfig(n_shots=value).to_text()

    @pytest.mark.parametrize("text", [
        "master_seed = 0x10\n", "repetitions = 0b11\n", "master_seed = 0o7\n"])
    def test_config_integer_prefixes_are_config_errors(self, capsys, tmp_path, text):
        cfg_file = tmp_path / "ints.cfg"
        cfg_file.write_text(text)
        assert cli.main(["sweep", "--config", str(cfg_file), "--print-config"]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_removed_variance_reps_key_is_config_error(self, capsys, tmp_path):
        cfg_file = tmp_path / "old.cfg"
        cfg_file.write_text("n_shots = 600\nvariance_reps = 1000\n")
        code = cli.main(["sweep", "--config", str(cfg_file), "--print-config"])
        assert code == 2
        captured = capsys.readouterr()
        assert "unknown key 'variance_reps'" in captured.err
        assert captured.out == ""


def _counts_is_directory(tmp_path):
    return ["estimate", "--kind", "negativity", "--variant", "optimal",
            "--counts", str(tmp_path)]


def _out_dir_is_file(tmp_path):
    path = tmp_path / "taken"
    path.write_text("not a directory")
    return ["sweep", "--p-grid", "0.5", "--n-shots", "100", "--reps", "2",
            "--out-dir", str(path)]


def _config_not_utf8(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("# r\xe9glage\nn_shots = 100\n".encode("latin-1"))
    return ["sweep", "--config", str(path), "--print-config"]


@pytest.mark.parametrize("build_argv", [
    _counts_is_directory, _out_dir_is_file, _config_not_utf8])
def test_unusable_paths_are_config_errors(capsys, tmp_path, build_argv):
    code = cli.main(build_argv(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:")
    assert len(err.strip().splitlines()) == 1


class TestTomo:
    def test_reconstruction_report(self, capsys):
        code, out = run_main(capsys, ["tomo", "--p", "0.6", "--q", "0.5",
                                      "--n-per-setting", "2000", "--seed", "3"])
        assert code == 0
        blob = json.loads(out)
        assert blob["fidelity"] > 0.99
        assert abs(blob["fit"]["p"] - 0.6) < 0.05
        assert blob["converged"] is True


class TestFisher:
    def test_matches_closed_forms(self, capsys):
        code, out = run_main(capsys, ["fisher", "--path", "negativity",
                                      "--theta", "0.5"])
        assert code == 0
        blob = strict_json(out)
        assert blob["qfi"] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert blob["cfi"] == pytest.approx(blob["qfi"], abs=1e-12)
        assert blob["qcrb_closed"] == pytest.approx(0.75, abs=1e-12)
        assert blob["qcrb_numeric"] == pytest.approx(0.75, abs=1e-12)

    def test_bad_theta_is_domain_error(self, capsys):
        assert cli.main(["fisher", "--path", "negativity", "--theta",
                         "1.5"]) == 3

    def test_bound_off_half(self, capsys):
        # QCRB_N(q) = 4q(1-q) - N^2; DA x DA carries only part of the QFI
        code, out = run_main(capsys, ["fisher", "--path", "negativity",
                                      "--theta", "0.5", "--q", "0.2"])
        assert code == 0
        blob = strict_json(out)
        assert blob["qcrb_closed"] == pytest.approx(0.39, abs=1e-12)
        assert blob["qcrb_numeric"] == pytest.approx(blob["qcrb_closed"], abs=1e-12)
        assert blob["cfi_over_qfi"] == pytest.approx(0.52, abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ["--theta", "1"],                                # the singlet
        ["--path", "log_negativity", "--theta", "1"],
        ["--theta", "0.8", "--q", "0.2"],                # the reach at q = 0.2
        ["--path", "qgd", "--theta", "0"],               # dfrom_n(0) = 0
    ])
    def test_bound_is_zero_at_both_ends(self, capsys, argv):
        code, out = run_main(capsys, ["fisher"] + argv)
        assert code == 0
        blob = strict_json(out)
        assert blob["qcrb_numeric"] == blob["qcrb_closed"] == 0.0
        assert blob["qfi"] is None  # infinite

    def test_theta_beyond_reach_is_domain_error(self, capsys):
        # the family reaches N = 2 sqrt(0.2 * 0.8) = 0.8 at most
        assert cli.main(["fisher", "--path", "negativity", "--theta", "0.9",
                         "--q", "0.2"]) == 3
        assert "beyond the family" in capsys.readouterr().err


def test_readme_json_examples_match_the_cli(capsys):
    examples = re.findall(r"^\$ qmet ([^\n]+)\n(\{\n.*?\n\})$",
                          README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(examples) >= 4
    for command, printed in examples:
        code, out = run_main(capsys, shlex.split(command))
        assert (code, out) == (0, printed + "\n"), command
        strict_json(out)


class TestSubprocessSurface:
    def test_module_entry_point_and_argparse_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qmet.cli", "probe", "--p", "0.5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "outcome probabilities" in proc.stdout

        proc = subprocess.run(
            [sys.executable, "-m", "qmet.cli", "estimate", "--kind", "entropy",
             "--variant", "optimal", "--p", "0.5", "--n", "10"],
            capture_output=True, text=True)
        assert proc.returncode == 2  # argparse rejects the unknown choice


# --- the exit-code contract on generated inputs ----------------------------------

def _main_quietly(argv):
    """cli.main's exit code, and its stderr, with stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "input"


_count_values = st.one_of(
    st.integers(), st.floats(), st.text(max_size=4), st.none(), st.booleans(),
    st.lists(st.integers(), max_size=2))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(record=st.fixed_dictionaries(
    {f"n_{label}": _count_values for label in measurement.OUTCOME_LABELS}))
@example(record={"n_pp": 10 ** 399, "n_pm": 1, "n_mp": 1, "n_mm": 1})
def test_any_counts_record_exits_0_or_3(scratch_file, record):
    scratch_file.write_text(json.dumps(record))
    code, err = _main_quietly(["estimate", "--kind", "negativity", "--variant",
                               "optimal", "--counts", str(scratch_file)])
    assert code in (0, 3), err
    assert (code == 3) == err.startswith("domain error:")


_config_keys = st.sampled_from(
    ["q", "p_grid", "n_shots", "repetitions", "master_seed", "mixing_mode",
     "variance_reps", "seed"])
_config_values = st.one_of(
    st.integers().map(str), st.integers().map(hex), st.integers().map(oct),
    st.integers(min_value=0).map("{:_}".format),
    # Arabic-Indic and fullwidth digits, which int() and float() also read
    st.text(alphabet="0123456789\u0660\u0665\u0669\uff11\uff19._-", max_size=6),
    st.floats().map(repr), st.just(""),
    st.sampled_from(harness.MIXING_MODES + ("Bogus",)),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(lines=st.lists(st.tuples(_config_keys, _config_values), max_size=7))
@example(lines=[("master_seed", "0x10")])
def test_any_config_text_exits_0_or_2(scratch_file, lines):
    scratch_file.write_text("".join(f"{key} = {value}\n" for key, value in lines),
                            encoding="utf-8")
    code, err = _main_quietly(["sweep", "--config", str(scratch_file), "--print-config"])
    assert code in (0, 2), err
    assert (code == 2) == err.startswith("config error:")
