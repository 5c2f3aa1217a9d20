"""Pinned ladders for sup-norm sweeps, and grid digests.

Covariables get geometric bracket ladders <xi> in {1, 2, 4, ..., Lambda};
the regularized phase gets a symmetric geometric ladder in (t, tau).  A
grid digest hashes the exact arrays a check swept, so reports can pin the
grid used.
"""

from __future__ import annotations

import hashlib

import numpy as np


def bracket_ladder(top: float = 256.0) -> np.ndarray:
    """Rungs <xi> = 1, 2, 4, ..., up to top (inclusive)."""
    rungs = [1.0]
    while rungs[-1] * 2.0 <= top * (1 + 1e-12):
        rungs.append(rungs[-1] * 2.0)
    return np.array(rungs)


def sg_ladder(n_half: int = 20) -> np.ndarray:
    """Symmetric ladder {0, +-0.25, ..., +-50} with n_half geometrically
    spaced points on each side."""
    pos = np.geomspace(0.25, 50.0, n_half)
    return np.concatenate([-pos[::-1], [0.0], pos])


def grid_digest(**arrays) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name], dtype=np.float64).tobytes())
    return h.hexdigest()[:16]
