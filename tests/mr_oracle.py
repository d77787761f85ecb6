"""Reference implementations of the measure-and-reflect baseline.

`MeasureReflectChannel` is the channel itself, built from the symmetric-
subspace dimensions T(m) = C(m+d-1, d-1) with `math.comb`, and
`dense_diamond_covariant` maximises a dense phi_p trace distance through the
Choi matrix of a channel difference. Together they are the oracle of
`distances.mr_diamond_distance`, which reads the sector blocks of the same
channel from a closed form in n and d.
"""

from math import comb

import numpy as np

from reflectron.distances import _choi_difference, _probe_distances
from reflectron.optima import _golden_max
from reflectron.tensor_core import as_state
from probe_oracle import orthonormal_frame, phi_p_rows


class MeasureReflectChannel:
    """Closed-form measure-and-reflect channel for n program copies.

    The action on the psi-adapted operator basis involves only ratios of
    symmetric-subspace dimensions, so arbitrary n is cheap.
    """

    def __init__(self, psi, n: int):
        if n < 1:
            raise ValueError("need n >= 1")
        self.psi = as_state(psi)
        v = self.psi.amplitudes
        self.d = v.size
        if self.d < 2:
            raise ValueError("need d >= 2")
        self.n = n
        self.basis = np.concatenate([v[:, None], orthonormal_frame(v)], axis=1)
        T = lambda m: comb(m + self.d - 1, self.d - 1)
        t1 = T(n) / T(n + 1)
        t2 = T(n) / T(n + 2)
        self.diag_psi = 1.0 - 4 * t1 + 4 * t2
        self.spread = 4 * t2 / (n + 2)
        self.off_psi = 1.0 - 2 * (n + 2) * t1 / (n + 1) + 4 * t2 / (n + 2)
        self.off_perp = 1.0 - 4 * t1 / (n + 1) + 4 * t2 / ((n + 1) * (n + 2))
        self.spread_perp = 4 * t2 / ((n + 1) * (n + 2))

    def __call__(self, X) -> np.ndarray:
        B = self.basis
        Y = B.conj().T @ X @ B
        out = np.empty_like(Y)
        s1 = np.trace(Y[..., 1:, 1:], axis1=-2, axis2=-1)
        out[..., 0, 0] = self.diag_psi * Y[..., 0, 0] + self.spread * s1
        out[..., 0, 1:] = self.off_psi * Y[..., 0, 1:]
        out[..., 1:, 0] = self.off_psi * Y[..., 1:, 0]
        out[..., 1:, 1:] = self.off_perp * Y[..., 1:, 1:]
        idx = np.arange(1, self.d)
        out[..., idx, idx] += (self.spread * Y[..., 0, 0] + self.spread_perp * s1)[..., None]
        return B @ out @ B.conj().T


def dense_diamond_covariant(channel_a, channel_b, psi, num_grid: int = 201) -> tuple:
    """Diamond distance of a covariant channel pair by maximizing over phi_p.

    Dense evaluation on C^{d^2}: the num_grid-point p grid in one batch,
    then golden section between the neighbours of its argmax.
    """
    psi = as_state(psi)
    K = _choi_difference(channel_a, channel_b, psi.dim)

    def at_p(p):
        return float(_probe_distances(K, phi_p_rows(psi, [p]))[0])

    grid = np.linspace(0.0, 1.0, num_grid)
    vals = _probe_distances(K, phi_p_rows(psi, grid))
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, num_grid - 1)]
    p_best, value = _golden_max(at_p, lo, hi)
    return value, p_best
