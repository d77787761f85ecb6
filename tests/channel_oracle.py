"""Channel references the library does not need itself.

`choi` is the Choi matrix, read for complete positivity and trace
preservation. `diamond_unitary_channels` is the diamond distance of two
unitary channels from the spectral arc of U^dag V, the reference for the
sampled lower bound. `equal_angle_distance` is the paper's two-case formula
for the theta = alpha rotation algorithm, written in n and alpha, an
independent form of the distance the library reads from (A, gap).
`lmr_series_distance` is the equal-angle sequential distance from the
series of log cos, read from no coefficient.
"""

import math

import numpy as np

from reflectron.channels import unit_images
from reflectron.tensor_core import require_unitary


def choi(channel, d: int) -> np.ndarray:
    """sum_ij |i><j| x E(|i><j|)."""
    images = unit_images(channel, d).reshape(d, d, d, d)
    return images.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def diamond_unitary_channels(U, V) -> float:
    """Diamond distance of two unitary channels via the spectral arc."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    require_unitary(U)
    require_unitary(V)
    eig = np.linalg.eigvals(U.conj().T @ V)
    phases = np.sort(np.mod(np.angle(eig), 2.0 * np.pi))
    gaps = np.diff(np.concatenate([phases, [phases[0] + 2.0 * np.pi]]))
    arc = 2.0 * np.pi - float(np.max(gaps))
    if arc >= np.pi:
        return 2.0
    return float(2.0 * np.sin(arc / 2.0))


def equal_angle_distance(n: int, alpha: float) -> float:
    """Diamond distance of the theta = alpha algorithm from the rotation."""
    if alpha == 0.0:
        return 0.0
    threshold = 2.0 * np.arcsin(min(1.0, (n + 1) / (2.0 * n)))
    if alpha >= threshold:
        return float(4.0 * n * (1.0 - np.cos(alpha)) / (n + 1) ** 2)
    return float(2.0 / ((n + 1) / np.sin(alpha / 2.0) - n))


def lmr_series_distance(n: int, alpha: float, theta: float) -> float:
    """Distance of the sequential channel with n equal angles theta from the
    rotation by alpha, from L = n log cos theta and the series
    log cos t = -t^2/2 - t^4/12 - t^6/45 - 17 t^8/2520 - ..., exact to float64
    for t <= 1e-3 (the next term, 31 t^10/14175, is ~4e-27 of the first).
    Then A = 1 - c_0^2 = -expm1(2L), 1 - c_0 = -expm1(L), ct_0 = e^{i n theta},
    and gap^2 = (1 - c_0)^2 + 4 c_0 sin^2((alpha - n theta)/2)."""
    if not 0.0 <= theta <= 1e-3:
        raise ValueError(f"the series needs 0 <= theta <= 1e-3, got {theta}")
    t2 = theta * theta
    L = n * -t2 * (1 / 2 + t2 * (1 / 12 + t2 * (1 / 45 + t2 * 17 / 2520)))
    A, one_minus_c0 = -math.expm1(2.0 * L), -math.expm1(L)
    c0 = math.exp(L)
    gap = math.sqrt(one_minus_c0**2 + 4.0 * c0 * math.sin(0.5 * (alpha - n * theta)) ** 2)
    return 2.0 * A if gap <= A else 2.0 * gap * gap / (2.0 * gap - A)
