"""Counter-based random streams.

Every stochastic routine in the package takes an explicit stream argument.
Streams are Philox generators keyed by (master_seed, run_index), so any run
in a sweep can be reproduced in isolation and results do not depend on the
order in which runs execute.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np

_MASK64 = (1 << 64) - 1


def philox_keys(master_seed: int, run_indices: Iterable[int]) -> np.ndarray:
    """(k, 2) Philox keys [master_seed, run_index], each word taken mod 2^64."""
    words = [(int(master_seed) & _MASK64, int(index) & _MASK64)
             for index in run_indices]
    return np.array(words, dtype=np.uint64).reshape(-1, 2)


class RandomStream:
    """Keyed random source; (master_seed, run_index) fixes the stream."""

    def __init__(self, master_seed: int, run_index: int = 0):
        self.master_seed = int(master_seed)
        self.run_index = int(run_index)
        key = philox_keys(self.master_seed, [self.run_index])[0]
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def random(self, n: int) -> np.ndarray:
        """n uniforms on [0, 1)."""
        return self._gen.random(int(n))

    def multinomial(self, n: int, pvals: np.ndarray) -> np.ndarray:
        """One exact Multinomial(n, pvals) draw; its cost does not grow with n."""
        return self._gen.multinomial(int(n), pvals)

    def __repr__(self) -> str:
        return f"RandomStream(master_seed={self.master_seed}, run_index={self.run_index})"


def keyed_multinomials(master_seed: int, run_indices: Iterable[int], n: int,
                       pvals: np.ndarray) -> np.ndarray:
    """One Multinomial(n, pvals) draw per run index, as a (k, outcomes) array.

    Row i equals RandomStream(master_seed, run_indices[i]).multinomial(n,
    pvals_i) bit for bit: one Philox is re-keyed to each stream's fresh state
    (counter 0, empty buffer) instead of being built anew. pvals is one row
    shared by every draw or a (k, outcomes) array with one row per draw.
    """
    keys = philox_keys(master_seed, run_indices)
    pvals = np.asarray(pvals, dtype=float)
    rows = np.broadcast_to(pvals, (len(keys), pvals.shape[-1]))
    out = np.empty(rows.shape, dtype=np.int64)
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    n = int(n)
    for i, key in enumerate(keys):
        fresh["state"]["key"] = key
        bitgen.state = fresh
        out[i] = gen.multinomial(n, rows[i])
    return out
