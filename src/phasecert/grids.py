"""Grid specifications for sup-norm sweeps.

Position variables get linear ranges; covariables get geometric bracket
ladders <xi> in {1, 2, 4, ..., Lambda} with sign/direction sampling on the
sphere.  A grid spec is hashable so reports can pin the exact grid used.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np


def bracket_ladder(top: float = 256.0) -> np.ndarray:
    """Rungs <xi> = 1, 2, 4, ..., up to top (inclusive)."""
    rungs = [1.0]
    while rungs[-1] * 2.0 <= top * (1 + 1e-12):
        rungs.append(rungs[-1] * 2.0)
    return np.array(rungs)


def direction_circle(n_dirs: int) -> np.ndarray:
    """Unit directions on the circle for two covariables (n = 2 fibers)."""
    theta = np.arange(n_dirs) * (2.0 * np.pi / n_dirs)
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


@dataclass(frozen=True)
class GridSpec:
    """Sampling plan for symbol sweeps in collar coordinates (n = 2).

    x-variables are sampled linearly; the covariable pair (k1, kn) is
    sampled on bracket shells <xi> in the ladder, `directions` points per
    shell.  All grid points must avoid the singular loci of the expressions
    swept over it; catalog grids guarantee this by construction.
    """

    x1_range: tuple[float, float] = (-1.0, 1.0)
    x1_count: int = 9
    xn_range: tuple[float, float] = (-1.0, 1.0)
    xn_count: int = 9
    ladder_top: float = 256.0
    directions: int = 16

    def x1_values(self) -> np.ndarray:
        return np.linspace(*self.x1_range, self.x1_count)

    def xn_values(self) -> np.ndarray:
        return np.linspace(*self.xn_range, self.xn_count)

    def rungs(self) -> np.ndarray:
        return bracket_ladder(self.ladder_top)

    def xi_points(self) -> np.ndarray:
        """(N, 2) array of (k1, kn) samples on bracket shells, xi != 0."""
        dirs = direction_circle(self.directions)
        pts = []
        for rung in self.rungs():
            rho = np.sqrt(max(rung * rung - 1.0, 0.0))
            if rho == 0.0:
                continue
            pts.append(rho * dirs)
        return np.concatenate(pts, axis=0)

    def refined(self, factor: int = 2) -> "GridSpec":
        return GridSpec(self.x1_range, (self.x1_count - 1) * factor + 1,
                        self.xn_range, (self.xn_count - 1) * factor + 1,
                        self.ladder_top, self.directions * factor)

    def digest(self) -> str:
        blob = json.dumps({
            "x1": [*self.x1_range, self.x1_count],
            "xn": [*self.xn_range, self.xn_count],
            "ladder_top": self.ladder_top,
            "directions": self.directions,
        }, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


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
