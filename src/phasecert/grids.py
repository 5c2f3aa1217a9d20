"""Pinned ladders for sup-norm sweeps, quasi-uniform samples, and grid
digests.

Covariables get geometric bracket ladders <xi> in {1, 2, 4, ..., Lambda};
the regularized phase gets a symmetric geometric ladder in (t, tau).
Sampled checks draw their points from one deterministic low-discrepancy
sequence, :func:`quasi_uniform`.  A grid digest hashes the exact arrays a
check swept, so reports can pin the grid used.
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


# Kronecker steps of quasi_uniform: the fractional parts of the golden
# ratio and of sqrt(2), sqrt(3), sqrt(6), sqrt(7), sqrt(11).  They are
# quadratic irrationals, so their continued fractions are periodic with
# partial quotients at most 6, and with 1 they are linearly independent
# over the rationals.  (The R_d steps g^-j, g^(d+1) = g + 1, have partial
# quotients 25, 42 and 207 in 3, 4 and 6 dimensions, which clumps one
# coordinate: at 100 points one tenth of it held 20.)
KRONECKER_STEPS = ((5**0.5 - 1) / 2, 2**0.5 - 1, 3**0.5 - 1, 6**0.5 - 2,
                   7**0.5 - 2, 11**0.5 - 3)
SEED_STRIDE = 2**16     # start indices of successive seeds


def quasi_uniform(count: int, dim: int, seed: int) -> np.ndarray:
    """count points of [0, 1)^dim, shape (count, dim): the Kronecker
    sequence frac(1/2 + i alpha) at i = start + 1, ..., start + count,
    alpha = KRONECKER_STEPS[:dim], start = seed * SEED_STRIDE.

    Pure arithmetic, so the points depend on nothing but the arguments.
    Each seed's points are seed 0's shifted modulo 1 by the same vector
    (a Cranley-Patterson shift), so every seed spreads them as evenly.
    """
    if not 1 <= dim <= len(KRONECKER_STEPS):
        raise ValueError(f"quasi_uniform has at most "
                         f"{len(KRONECKER_STEPS)} dimensions, not {dim}")
    alpha = np.array(KRONECKER_STEPS[:dim])
    shift = (seed * SEED_STRIDE * alpha) % 1.0
    i = np.arange(1, count + 1, dtype=np.float64)[:, None]
    return (0.5 + shift + i * alpha) % 1.0


def grid_digest(**arrays) -> str:
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arrays[name], dtype=np.float64).tobytes())
    return h.hexdigest()[:16]
