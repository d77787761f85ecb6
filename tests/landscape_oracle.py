"""The (r, u) landscape and its domain A/B boundary, computed the plain way.

`one_call_landscape` fills the whole grid in one call, with the r and u
columns built by `np.repeat` and `np.tile`; `scalar_boundary_curve` bisects
each u sample on its own, with Python floats. Both evaluate the library's own
formulas in the same order of arithmetic, so `optima.landscape` (blocks of r
rows) and `optima.boundary_curve` (all u at once) must equal them bit for bit.
"""

import numpy as np

from reflectron.optima import BOUNDARY_POINTS, _landscape_invariants, landscape_value


def one_call_landscape(n: int, grid_r: int, grid_u: int) -> np.ndarray:
    rs = np.linspace(0.0, 1.0, grid_r)
    us = np.linspace(0.0, 2.0 * np.pi, grid_u)
    out = np.zeros(grid_r * grid_u, dtype=[("r", float), ("u", float), ("value", float)])
    out["r"] = np.repeat(rs, grid_u)
    out["u"] = np.tile(us, grid_r)
    out["value"] = landscape_value(n, rs[:, None], us[None, :]).reshape(-1)
    return out


def scalar_boundary_curve(n: int) -> np.ndarray:
    def margin(r, u):
        A, gap = _landscape_invariants(n, r, u)
        return A - gap

    pts = []
    for u in np.linspace(0.0, 2.0 * np.pi, BOUNDARY_POINTS):
        lo, hi = 0.0, 1.0
        m_lo = margin(lo, u)
        if m_lo * margin(hi, u) > 0:
            continue
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            m_mid = margin(mid, u)
            if m_lo * m_mid <= 0:
                hi = mid
            else:
                lo, m_lo = mid, m_mid
        pts.append((0.5 * (lo + hi), u))
    return np.array(pts, dtype=float)
