"""Channel references the library does not need itself.

`choi` is the Choi matrix, read for complete positivity and trace
preservation. `diamond_unitary_channels` is the diamond distance of two
unitary channels from the spectral arc of U^dag V, the reference for the
sampled lower bound. `equal_angle_distance` is the paper's two-case formula
for the theta = alpha rotation algorithm, written in n and alpha, an
independent form of the distance the library reads from (A, gap).
"""

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
