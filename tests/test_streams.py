import numpy as np
import pytest

from qmet import measurement, states, streams
from qmet.errors import DomainError
from qmet.streams import RandomStream

RNG = np.random.default_rng(52177)

# run indices spanning the sweep layout, the tomography flag bit and the top
# of the 64-bit key word
RUN_INDICES = [0, 1, 7, 8, 4003, 1 << 62, (1 << 62) | 5, 1 << 63,
               (1 << 63) + 12345, (1 << 64) - 1]


@pytest.mark.parametrize("seed", [42, 0, -3, (1 << 64) + 9])
def test_keyed_multinomials_one_law_row(seed):
    pvals = np.array([0.1, 0.2, 0.3, 0.4])
    rows = streams.keyed_multinomials(seed, RUN_INDICES, 1000, pvals)
    assert rows.shape == (len(RUN_INDICES), 4)
    for row, index in zip(rows, RUN_INDICES):
        expected = RandomStream(seed, index).multinomial(1000, pvals)
        np.testing.assert_array_equal(row, expected)


@pytest.mark.parametrize("seed", [7, -1])
def test_keyed_multinomials_law_per_row(seed):
    pvals = RNG.dirichlet(np.ones(4), size=len(RUN_INDICES))
    rows = streams.keyed_multinomials(seed, RUN_INDICES, 250, pvals)
    for row, law, index in zip(rows, pvals, RUN_INDICES):
        expected = RandomStream(seed, index).multinomial(250, law)
        np.testing.assert_array_equal(row, expected)


@pytest.mark.parametrize("k", [0, 1, len(RUN_INDICES)])
def test_keyed_multinomials_block_per_key(philox_builds, k):
    # a (k, 9, 4) law is one (9, 4) block per key, drawn row by row on the
    # key's stream as one multinomial call on a (9, 4) table draws it
    blocks = RNG.dirichlet(np.ones(4), size=(k, 9))
    rows = streams.keyed_multinomials(-5, RUN_INDICES[:k], 400, blocks)
    assert len(philox_builds) == 1
    assert rows.shape == (k, 9, 4)
    for block_rows, block, index in zip(rows, blocks, RUN_INDICES):
        expected = RandomStream(-5, index).multinomial(400, block)
        np.testing.assert_array_equal(block_rows, expected)


def test_keyed_multinomials_accepts_a_range_and_large_n():
    pvals = np.array([0.25, 0.25, 0.5, 0.0])
    indices = range(3, 3 + 8 * 50, 8)
    rows = streams.keyed_multinomials(11, indices, 10**9, pvals)
    assert np.all(rows.sum(axis=1) == 10**9)
    assert np.all(rows[:, 3] == 0)
    for row, index in zip(rows, indices):
        np.testing.assert_array_equal(
            row, RandomStream(11, index).multinomial(10**9, pvals))


def test_keyed_multinomials_empty_batch():
    rows = streams.keyed_multinomials(1, [], 10, np.full(4, 0.25))
    assert rows.shape == (0, 4)


def test_stream_key_is_the_shared_keying_rule():
    # oracle: the Philox keyed [seed mod 2^64, index], built directly
    pvals = np.array([0.1, 0.2, 0.3, 0.4])
    for seed in (-3, 0, -(1 << 63), (1 << 63) - 1, (1 << 64) + 9):
        for index in RUN_INDICES:
            key = np.array([seed % (1 << 64), index], dtype=np.uint64)
            oracle = np.random.Generator(np.random.Philox(key=key))
            np.testing.assert_array_equal(RandomStream(seed, index).random(4),
                                          oracle.random(4))
            oracle = np.random.Generator(np.random.Philox(key=key))
            np.testing.assert_array_equal(
                streams.keyed_multinomials(seed, [index], 500, pvals)[0],
                oracle.multinomial(500, pvals))


def test_keyed_multinomials_law_rows_must_match_the_run_indices():
    # zipping indices with law rows would truncate the batch instead
    for k in (5, 1):
        with pytest.raises(ValueError):
            streams.keyed_multinomials(1, range(k), 10, np.full((3, 4), 0.25))
    rows = streams.keyed_multinomials(1, [], 10, np.full((0, 4), 0.25))
    assert rows.shape == (0, 4)


@pytest.mark.parametrize("indices", [
    np.array(RUN_INDICES, dtype=np.uint64),
    np.arange(0, 80, 8, dtype=np.int64),
])
@pytest.mark.parametrize("seed", [np.int64(-3), -3])
def test_keyed_multinomials_numpy_integer_inputs(seed, indices):
    pvals = np.array([0.1, 0.2, 0.3, 0.4])
    rows = streams.keyed_multinomials(seed, indices, 1000, pvals)
    as_ints = [int(index) for index in indices]
    np.testing.assert_array_equal(
        rows, streams.keyed_multinomials(-3, as_ints, 1000, pvals))
    for row, index in zip(rows, as_ints):
        np.testing.assert_array_equal(
            row, RandomStream(-3, index).multinomial(1000, pvals))


@pytest.mark.parametrize("k", [0, 1, 500])
def test_keyed_multinomials_builds_one_philox_per_batch(philox_builds, k):
    streams.keyed_multinomials(4, range(k), 100, np.full(4, 0.25))
    assert len(philox_builds) == 1


@pytest.mark.parametrize("n", [0, 2 ** 63, 10.5, np.float64(10), True, "10"], ids=repr)
def test_draws_reject_a_shot_count_that_is_not_an_integer_in_range(n):
    pvals = np.full(4, 0.25)
    with pytest.raises(DomainError):
        RandomStream(1).multinomial(n, pvals)
    with pytest.raises(DomainError):
        streams.keyed_multinomials(1, [0, 1], n, pvals)


@pytest.mark.parametrize("rho", [states.singlet(), states.family_state(0.7, 0.3)],
                         ids=["singlet", "p0.7-q0.3"])
def test_draws_renormalise_the_law(rho):
    # the singlet's zero last entries make NumPy reject an unnormalised
    # scaled row, whose first three entries sum past 1 + 1e-12
    table = measurement.probabilities(rho)
    law = table / table.sum(axis=1, keepdims=True)
    scaled = law * (1.0 + 3e-12)
    np.testing.assert_array_equal(RandomStream(9, 4).multinomial(1000, scaled),
                                  RandomStream(9, 4).multinomial(1000, law))
    for pvals, normalised in ((scaled[0], law[0]), (scaled[:3], law[:3]),
                              (np.stack([scaled] * 3), np.stack([law] * 3))):
        np.testing.assert_array_equal(
            streams.keyed_multinomials(9, RUN_INDICES[:3], 1000, pvals),
            streams.keyed_multinomials(9, RUN_INDICES[:3], 1000, normalised))
