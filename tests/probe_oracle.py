"""The phi_p probe built from an orthonormal frame of psi's complement.

The library builds phi_p's d x d probe matrix from psi alone, as
c I + (sqrt(p) - c) conj(psi) psi^T with c = sqrt((1-p)/(d-1)). The rows here
are the independent reference: sqrt(p)|0>|psi> + c sum_i |i>|f_i>, with the
f_i an orthonormal basis of the complement of psi. The two probes differ by
a unitary on the reference, so every trace distance on them agrees.
"""

import numpy as np

from reflectron.tensor_core import as_vector


def orthonormal_frame(psi) -> np.ndarray:
    """Columns: an orthonormal basis of the complement of psi, the null space
    of the row psi^dag."""
    v = as_vector(psi)
    _, _, vh = np.linalg.svd(v[None].conj())
    return vh[1:].conj().T


def phi_p_rows(psi, ps) -> np.ndarray:
    """The phi_p probes on C^{d^2}, one row per p, all sharing one frame."""
    v = as_vector(psi)
    d = v.size
    frame = orthonormal_frame(v).T
    ps = np.asarray(ps, dtype=float)
    out = np.zeros((ps.size, d, d), dtype=complex)
    out[:, 0] = np.sqrt(ps)[:, None] * v
    out[:, 1:] = np.sqrt((1.0 - ps) / (d - 1))[:, None, None] * frame
    return out.reshape(ps.size, d * d)
