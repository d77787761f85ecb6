"""Optimization sweeps: the (r, u) distance landscape, optimal angles
theta*(alpha), domain classification, and the improved sequential angle."""

import cmath
from enum import Enum
from math import sqrt

import numpy as np

from .config import _check_n, ensure_vector_budget
from .cyclic import CyclicElement, lmr_coeffs
from .distances import (
    _check_angle,
    _element_invariants,
    _invariants,
    _rotation_distance,
    closed_form_rotation_distance,
)

DOMAIN_TOL = 1e-10
# u samples of boundary_curve on [0, 2 pi]
BOUNDARY_POINTS = 257
# grid points per block of r rows that landscape evaluates at once
_LANDSCAPE_BLOCK = 2**14


class Domain(Enum):
    A = "A"
    B = "B"
    BOUNDARY = "Boundary"


def _landscape_invariants(n: int, r, u):
    """(A, gap) = (1 - |c_0|^2, reflection-target gap) at the landscape point
    (r, u), as distances._invariants gives them for a channel element.

    r and u broadcast, so an r column against a u row takes its cosine and
    sine on the u axis alone; boundary_curve passes one r per u.
    """
    cos_u = np.cos(u)
    c0sq = (1.0 + 2.0 * n * r * cos_u + (n * r) ** 2) / (n + 1) ** 2
    gap = np.sqrt((n + 2 + n * r * cos_u) ** 2 + (n * r * np.sin(u)) ** 2) / (n + 1)
    return 1.0 - c0sq, gap


def landscape_value(n: int, r, u):
    """Reflection-target diamond distance at ct_0 = e^{i eta}, mean tail
    phase r e^{i gamma}, u = eta - gamma: _rotation_distance vectorized over
    r and u, with its digit-safe denominator 2 gap - A."""
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    A, gap = _landscape_invariants(n, r, u)
    return np.where(gap > A, 2.0 * gap * gap / (2.0 * gap - A), 2.0 * A)


def landscape(n: int, grid_r: int = 513, grid_u: int = 513) -> np.ndarray:
    """Record array (r, u, value) over the [0,1] x [0,2pi] grid, row-major in r,
    filled through a (grid_r, grid_u) view, the values a block of r rows at a time."""
    _check_n(n)
    if grid_r < 1 or grid_u < 1:
        raise ValueError(f"need a grid of at least 1 x 1 points, got {grid_r} x {grid_u}")
    ensure_vector_budget(grid_r * grid_u, "landscape grid")
    rs = np.linspace(0.0, 1.0, grid_r)[:, None]
    us = np.linspace(0.0, 2.0 * np.pi, grid_u)
    out = np.empty(grid_r * grid_u, dtype=[("r", float), ("u", float), ("value", float)])
    grid = out.reshape(grid_r, grid_u)
    grid["r"] = rs
    grid["u"] = us
    rows = max(1, _LANDSCAPE_BLOCK // grid_u)
    for start in range(0, grid_r, rows):
        grid["value"][start : start + rows] = landscape_value(n, rs[start : start + rows], us)
    return out


def boundary_curve(n: int) -> np.ndarray:
    """Domain A/B boundary points (r, u): one row per u sample whose margin
    changes sign on r in [0, 1], bisected along r in 60 steps, all u at once."""
    _check_n(n)

    def margin(r, u):
        A, gap = _landscape_invariants(n, r, u)
        return A - gap

    u = np.linspace(0.0, 2.0 * np.pi, BOUNDARY_POINTS)
    lo, hi = np.zeros_like(u), np.ones_like(u)
    m_lo = margin(lo, u)
    # a NaN product keeps its u, as the test "> 0" on one u would
    crossing = ~(m_lo * margin(hi, u) > 0)
    u, lo, hi, m_lo = u[crossing], lo[crossing], hi[crossing], m_lo[crossing]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        m_mid = margin(mid, u)
        left = m_lo * m_mid <= 0
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid)
        m_lo = np.where(left, m_lo, m_mid)
    return np.stack((0.5 * (lo + hi), u), axis=1)


def _theta_objective(n: int, alpha: float):
    """theta -> -closed_form_rotation_distance(r_theta_coeffs(n, theta), alpha)
    from c_0 = (n + e^{i theta})/(n + 1) and ct_0 = e^{i theta}, all a distance
    reads of the channel element r_theta; n and alpha are checked once, here."""
    _check_angle(alpha)
    _check_n(n)

    def objective(theta):
        phase = cmath.exp(1j * theta)
        return -_rotation_distance(*_invariants((n + phase) / (n + 1), phase, alpha))

    return objective


def _golden_max(f, a, b, tol=1e-12):
    a, b = float(a), float(b)
    gr = (sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = f(d)
    mid = 0.5 * (a + b)
    return mid, float(f(mid))


def theta_star(n: int, alpha: float) -> float:
    """argmin over theta in [0, pi] of the rotation distance.

    Golden section with three bracketing restarts; the objective is unimodal
    per bracket on every inspected landscape but no global proof exists, so
    the brackets guard against a missed basin. The search maximizes the
    negated distance; negation flips every comparison, ties included.
    """
    objective = _theta_objective(n, alpha)
    best = None
    for a, b in ((0.0, np.pi / 3), (np.pi / 3, 2 * np.pi / 3), (2 * np.pi / 3, np.pi)):
        x, v = _golden_max(objective, a, b, 1e-10)
        if best is None or v > best[1]:
            best = (x, v)
    return float(best[0])


def domain_classify(e: CyclicElement, alpha: float) -> Domain:
    A, gap = _element_invariants(e, alpha)
    margin = A - gap
    if margin >= DOMAIN_TOL:
        return Domain.A
    if margin <= -DOMAIN_TOL:
        return Domain.B
    return Domain.BOUNDARY


def lmr_equal_angle_distance(n: int, alpha: float, theta: float | None = None) -> float:
    """Distance of the sequential channel with all angles equal."""
    _check_n(n)
    theta = alpha / n if theta is None else theta
    # a read-only view: nothing of size n exists before lmr_coeffs checks the budget
    return closed_form_rotation_distance(lmr_coeffs(np.broadcast_to(theta, n)), alpha)


def lmr_improved_angle(n: int, alpha: float) -> float:
    if n <= 2:
        raise ValueError("improved angle requires n > 2")
    return alpha / (n + alpha * np.sqrt(3.0) / 2.0)


def lmr_improvement(n: int, alpha: float) -> float:
    """Distance gap between the naive alpha/n angle and the improved one.

    In exact arithmetic it is positive for every finite n > 2 and approaches
    2 sqrt(3) alpha^3 / n^2 from below with a sizable 1/n^3 correction. In
    float64 it loses its digits past n ~ 2^16: each distance comes from
    1 - |c_0|^2 with c_0 a product of n cosines, and the rounding in c_0
    swamps a gap of order n^-2. At alpha = 1 it reads 0.87 of the limit at
    n = 2^17, exactly 0 at 2^18 and -2.0e-17 at 2^20.
    """
    naive = lmr_equal_angle_distance(n, alpha)
    improved = lmr_equal_angle_distance(n, alpha, lmr_improved_angle(n, alpha))
    return naive - improved
