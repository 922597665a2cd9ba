"""Counter-based random streams.

Every stochastic routine in the package takes an explicit stream argument.
Streams are Philox generators keyed by (master_seed, run_index), so any run
in a sweep can be reproduced in isolation and results do not depend on the
order in which runs execute.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


class RandomStream:
    """Keyed random source; (master_seed, run_index) fixes the stream."""

    def __init__(self, master_seed: int, run_index: int = 0):
        self.master_seed = int(master_seed)
        self.run_index = int(run_index)
        key = np.array([self.master_seed & _MASK64, self.run_index & _MASK64],
                       dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def random(self, n: int) -> np.ndarray:
        """n uniforms on [0, 1)."""
        return self._gen.random(int(n))

    def multinomial(self, n: int, pvals: np.ndarray) -> np.ndarray:
        """One exact Multinomial(n, pvals) draw; its cost does not grow with n."""
        return self._gen.multinomial(int(n), pvals)

    def spawn(self, run_index: int) -> "RandomStream":
        """Independent stream under the same master seed."""
        return RandomStream(self.master_seed, run_index)

    def __repr__(self) -> str:
        return f"RandomStream(master_seed={self.master_seed}, run_index={self.run_index})"
