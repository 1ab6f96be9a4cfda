"""Deterministic seed derivation for nested sampling stages.

All randomness flows through numpy SeedSequence paths, so every stream is a
pure function of the root seed and its integer path.  A sweep uses:

    derive_seed(root, r)            run r, the r-th epsilon of a sweep
    derive_seed(run, 0)             the run's ensemble draw
    derive_seed(run, 1)             the run's fit seed s
    derive_seed(s, j)               bank j, b, which fits partition coefficient j
    derive_seed(b, 0)               the bank's functional parameters, rows 1, 2, ...
    derive_seed(b, 1)               the bank's thresholds, rows 0, 1, ...

A bank's rows are drawn in order from its two generators, so growing a bank
continues the streams and its first K rows do not depend on its final width.
"""

from __future__ import annotations

import numpy as np


def derive_seed(root, *path: int) -> np.random.SeedSequence:
    """Child seed for an integer path under a root seed.

    Identical (root, path) pairs always produce the same stream; distinct
    paths produce independent ones.  A root that is itself a derived seed
    keeps its own path, so derivations nest without collisions.
    """
    if isinstance(root, np.random.SeedSequence):
        base, prefix = root.entropy, tuple(root.spawn_key)
    else:
        base, prefix = root, ()
    if base is None:
        raise ValueError("derive_seed needs an explicit root seed")
    return np.random.SeedSequence(
        entropy=base, spawn_key=prefix + tuple(int(p) for p in path)
    )
