"""Counter-based random streams and the package's two multinomial draws.

Every stochastic routine in the package takes an explicit stream argument.
Streams are Philox generators keyed by (master_seed, run_index), so any run
in a sweep can be reproduced in isolation and results do not depend on the
order in which runs execute. Philox is counter-based, so moving one generator
to another stream is a state assignment: a batch of keyed draws costs one
Philox build, then one re-key and one multinomial call per key.

Every count record in the package is drawn by RandomStream.multinomial or by
keyed_multinomials. Both take a shot count n, an integer in [1, MAX_SHOTS]
(DomainError otherwise), and outcome probabilities whose rows (last axis)
they rescale to sum to 1, so a law off by round-off draws as its normalised
form does.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import DomainError

MAX_SHOTS = 2 ** 63 - 1  # numpy's multinomial draws int64 counts
_MASK64 = (1 << 64) - 1


def _key_words(master_seed: int, run_indices: Iterable[int]) -> list[tuple[int, int]]:
    """(seed_word, index_word) Python-int Philox keys, each word taken mod 2^64."""
    seed_word = int(master_seed) & _MASK64
    return [(seed_word, int(index) & _MASK64) for index in run_indices]


def _draw_args(n: int, pvals: np.ndarray) -> tuple[int, np.ndarray]:
    """n as an int, checked to lie in [1, MAX_SHOTS], and pvals as float
    probability rows (last axis) rescaled to sum to 1."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_SHOTS:
        raise DomainError(f"shot count must be an integer in [1, 2**63 - 1], got {n!r}")
    pvals = np.asarray(pvals, dtype=float)
    return int(n), pvals / pvals.sum(axis=-1, keepdims=True)


class RandomStream:
    """Keyed random source; (master_seed, run_index) fixes the stream."""

    def __init__(self, master_seed: int, run_index: int = 0):
        self.master_seed = int(master_seed)
        self.run_index = int(run_index)
        # uint64: NumPy reads a pair of Python ints past 2**63 as float64
        key = np.array(_key_words(self.master_seed, [self.run_index])[0], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def random(self, n: int) -> np.ndarray:
        """n uniforms on [0, 1)."""
        return self._gen.random(int(n))

    def multinomial(self, n: int, pvals: np.ndarray) -> np.ndarray:
        """Exact Multinomial(n, row) draws of each probability row of pvals.

        n is an integer in [1, MAX_SHOTS] and every row is renormalised. One
        call takes the rows in order, so row i equals the i-th of sequential
        one-row calls bit for bit and leaves the stream where they would;
        its cost does not grow with n.
        """
        n, pvals = _draw_args(n, pvals)
        return self._gen.multinomial(n, pvals)

    def __repr__(self) -> str:
        return f"RandomStream(master_seed={self.master_seed}, run_index={self.run_index})"


def keyed_multinomials(master_seed: int, run_indices: Iterable[int], n: int,
                       pvals: np.ndarray) -> np.ndarray:
    """One Multinomial(n, law) draw per run index, stacked along a first axis.

    Each key takes one law: a row of outcome probabilities, or a (rows,
    outcomes) block whose rows its stream draws in order. n and the laws are
    checked and renormalised as RandomStream.multinomial does them. Entry i
    equals RandomStream(master_seed, run_indices[i]).multinomial(n, law_i)
    bit for bit, and the result has shape (k,) + the law's shape. pvals is
    one row shared by every key, or a stack of one law per key: a 2-D pvals
    is always one row per key, a (k, rows, outcomes) pvals one block per key.
    A stack of 1 law is shared too; one of other than 1 or k laws raises.

    One Philox is built per batch. Each key then costs one state assignment,
    which moves it to the stream's fresh state (counter 0, empty buffer), and
    one multinomial call written into the output. The state holds Python ints,
    which the setter reads in about half the time NumPy arrays take: a row
    costs about 3.8 us at any n, against 5.6 us with array states (2-vCPU x86).
    """
    n, pvals = _draw_args(n, pvals)
    keys = _key_words(master_seed, run_indices)
    out = np.empty((len(keys),) + pvals.shape[pvals.ndim > 1:], dtype=np.int64)
    laws = np.broadcast_to(pvals, out.shape)
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    state = {"counter": [0, 0, 0, 0], "key": (0, 0)}
    fresh = {"bit_generator": "Philox", "state": state, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i, (key, law) in enumerate(zip(keys, laws)):
        state["key"] = key
        bitgen.state = fresh
        out[i] = gen.multinomial(n, law)
    return out
