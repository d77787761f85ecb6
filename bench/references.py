"""Independent references for the benchmark's output checks.

Nothing here imports reflectron. Each expected value is either a closed form
stated in the paper or a small dense computation written against numpy
alone, so a defect in the library cannot hide in its own reference.
"""

import math
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np

# ---------------------------------------------------------------------------
# cyclic-element coefficients and the covariant distance formulas


def r_theta_coeffs(n, theta):
    """I + (e^{i theta} - 1)/(n+1) sum_l C^l."""
    phase = np.exp(1j * theta)
    c = np.full(n + 1, (phase - 1.0) / (n + 1), dtype=complex)
    c[0] = (n + phase) / (n + 1)
    return c


def optimal_angle(n):
    return math.acos(-(n**3 + 6 * n**2 + 6 * n) / (n + 2) ** 3)


def lmr_coeffs(thetas):
    """c_0 = prod cos t, c_l = e^{i sum_{k>=l} t_k} i sin t_{l-1} prod_{k<l-1} cos t_k."""
    t = np.asarray(thetas, dtype=float)
    head = np.concatenate([[1.0], np.cumprod(np.cos(t))])
    tail = np.concatenate([np.cumsum(t[::-1])[::-1], [0.0]])
    c = np.empty(t.size + 1, dtype=complex)
    c[0] = head[-1]
    c[1:] = np.exp(1j * tail[1:]) * 1j * np.sin(t) * head[:-1]
    return c


def invariants(c0, ct0, alpha):
    """(|c_0|^2, |ct_0 conj(c_0) - e^{i alpha}|), vectorized."""
    return np.abs(c0) ** 2, np.abs(ct0 * np.conj(c0) - np.exp(1j * alpha))


def rotation_distance(c0sq, gap):
    """The paper's two-case diamond distance, vectorized."""
    A = 1.0 - c0sq
    with np.errstate(divide="ignore", invalid="ignore"):
        domain_b = 2.0 * gap * gap / (2.0 * gap - A)
    return np.where(gap <= A, 2.0 * A, domain_b)


def distance_at_p(c0sq, gap, p):
    """Trace distance on the worst-case probe family phi_p."""
    a = (1.0 - p) * (1.0 - c0sq)
    return a + np.sqrt(a * a + 4.0 * p * (1.0 - p) * gap * gap)


def element_distance(c, alpha):
    c0sq, gap = invariants(c[0], np.sum(c), alpha)
    return float(rotation_distance(c0sq, gap)), float(c0sq), float(gap)


def theta_family_distance(n, thetas, alpha):
    """Distance of r_theta elements, vectorized over theta (ct_0 = e^{i theta})."""
    phase = np.exp(1j * np.asarray(thetas, dtype=float))
    c0sq, gap = invariants((n + phase) / (n + 1), phase, alpha)
    return rotation_distance(c0sq, gap)


def optimal_reflection_distance(n):
    return 8 * (n + 2) / (8 + 4 * n + n * n)


def equal_angle_distance(n, alpha):
    """theta = alpha family; 8n/(n+1)^2 at alpha = pi."""
    threshold = 2.0 * math.asin(min(1.0, (n + 1) / (2.0 * n)))
    if alpha >= threshold:
        return 4.0 * n * (1.0 - math.cos(alpha)) / (n + 1) ** 2
    return 2.0 / ((n + 1) / math.sin(alpha / 2.0) - n)


def lmr_gap(n, alpha):
    """Distance at equal angles alpha/n minus distance at alpha/(n + alpha sqrt3/2)."""
    naive = element_distance(lmr_coeffs(np.full(n, alpha / n)), alpha)[0]
    improved_theta = alpha / (n + alpha * math.sqrt(3.0) / 2.0)
    return naive - element_distance(lmr_coeffs(np.full(n, improved_theta)), alpha)[0]


def landscape_invariants(n, r, u):
    """Reflection-target invariants at ct_0 = 1 with mean tail phase r e^{-iu}."""
    c0 = (1.0 + n * np.asarray(r) * np.exp(-1j * np.asarray(u))) / (n + 1)
    return invariants(c0, 1.0, math.pi)


# ---------------------------------------------------------------------------
# measure-and-reflect and the lower-bound formulas


def mr_distance_d2(n):
    return 8 * (n + 1) / ((n + 2) * (n + 3))


def mr_bound(n, d):
    return 8 * (n + 1) * (d - 1) / ((n + d + 1) * (n + d))


def entropy_target(n, d):
    if d == 2:
        return math.log2(math.comb(n + 2, 2))
    return 2.0 * math.log2(math.comb(n + d - 1, d - 1))


def lower_bound_fd(eps, n, d):
    if d == 2:
        dim, noise = math.comb(n + 2, 2), math.comb(n + 3, 3)
    else:
        dim, noise = math.comb(n + d - 1, d - 1) ** 2, math.comb(n + d * d - 1, d * d - 1)
    return math.log(dim) - 4.0 * n * math.sqrt(2.0 * eps) * math.log(noise) - math.log(2.0)


def copy_count_rhs(eps, d):
    """n* solves n ln n = 1 / (2 (d+1) sqrt(2 eps))."""
    return 1.0 / (2.0 * (d + 1) * math.sqrt(2.0 * eps))


def final_lower_bound(eps, d):
    return (d - 1) * math.log(1.0 / (8.0 * (d * d - 1) ** 2 * eps))


# ---------------------------------------------------------------------------
# spin bases and the d = 2 twirl-path ensemble entropy


@lru_cache(maxsize=None)
def spin_basis(k):
    """{2J: array (2J+1, mult, 2^k)} of |J, M, t> on k qubits, M = J..-J.

    Bit value 0 is spin up. Highest-weight vectors are the J^2 = J(J+1)
    eigenvectors of the M = J sector, and each chain is lowered with J-, so
    the multiplicity index t is consistent across M.
    """
    dim = 2**k
    x = np.arange(dim)
    jp = np.zeros((dim, dim))
    for i in range(k):
        stride = 2 ** (k - 1 - i)
        down = x[(x // stride) % 2 == 1]
        jp[down - stride, down] = 1.0
    ones = np.array([bin(v).count("1") for v in x])
    out = {}
    for two_j in range(k % 2, k + 1, 2):
        sel = np.flatnonzero(ones == (k - two_j) // 2)
        raise_block = jp[:, sel]
        vals, vecs = np.linalg.eigh(raise_block.T @ raise_block)
        highest = np.zeros((dim, int(np.sum(vals < 1e-9))))
        highest[sel] = vecs[:, vals < 1e-9]
        chains = [highest]
        for _ in range(two_j):
            lowered = jp.T @ chains[-1]
            chains.append(lowered / np.linalg.norm(lowered, axis=0))
        out[two_j] = np.stack([c.T for c in chains])
    return out


def _apply_per_qubit(vec, gate, qubits, total):
    t = vec.reshape((2,) * total)
    for q in qubits:
        t = np.moveaxis(np.tensordot(gate, t, axes=([1], [q])), 0, q)
    return t.reshape(-1)


def ensemble_entropy_d2(n, weights):
    """Entropy of the Haar twirl of the reflected probe sum_j sqrt(q_j) |Phi+_j>.

    For d = 2, conj(U) = Y U Y, so the U^{xn} x conj(U)^{xn} twirl is the
    U^{x2n} twirl conjugated by I x Y^{xn}. On 2n qubits that twirl maps a pure
    state x to (+)_J I_{2J+1}/(2J+1) x (sum_M a_M a_M^dag) with
    a_M[t] = <J, M, t|x>, whose spectrum gives the entropy without the
    permutation commutant.
    """
    blocks = spin_basis(n)
    probe = np.zeros(4**n)
    for two_j, w in weights.items():
        chain = blocks[two_j][:, 0, :]
        probe += math.sqrt(w / chain.shape[0]) * np.einsum("mi,mj->ij", chain, chain).reshape(-1)
    probe /= np.linalg.norm(probe)
    reflect = np.diag([1.0, -1.0])
    y_real = np.array([[0.0, -1.0], [1.0, 0.0]])  # -i Y; the phase drops out
    x = _apply_per_qubit(probe, reflect, range(n), 2 * n)
    x = _apply_per_qubit(x, y_real, range(n, 2 * n), 2 * n)
    entropy = 0.0
    for two_j, basis in spin_basis(2 * n).items():
        amps = basis @ x  # (2J+1, mult)
        lam = np.linalg.eigvalsh(amps.T @ amps.conj())
        lam = lam[lam > 1e-14]
        entropy -= float(np.sum(lam * np.log2(lam / (two_j + 1))))
    return entropy


# ---------------------------------------------------------------------------
# dense permutations, symmetric subspaces and the rotation circuit


def permute_factors(mat_cols, perm, d):
    """Apply the factor permutation (slot s -> slot perm[s]) to each column."""
    k = len(perm)
    axes = [0] * k
    for s, t in enumerate(perm):
        axes[t] = s
    t = mat_cols.reshape((d,) * k + (-1,))
    return np.transpose(t, axes + [k]).reshape(d**k, -1)


def r_theta_dense(n, theta, d=2):
    """sum_l c_l C^l on (C^d)^{x(n+1)}, C moving slot s to s+1 mod (n+1)."""
    k = n + 1
    eye = np.eye(d**k, dtype=complex)
    out = np.zeros_like(eye)
    for l, c in enumerate(r_theta_coeffs(n, theta)):
        out += c * permute_factors(eye, [(s + l) % k for s in range(k)], d)
    return out


def symmetric_projector(n, d):
    """Average of all factor permutations."""
    eye = np.eye(d**n)
    perms = list(permutations(range(n)))
    return sum(permute_factors(eye, p, d) for p in perms) / len(perms)


def symmetric_encoder(n, d):
    """Columns: equal superpositions of arrangements, in sorted multi-index order."""
    cols = {m: i for i, m in enumerate(combinations_with_replacement(range(d), n))}
    enc = np.zeros((d**n, len(cols)))
    for x in range(d**n):
        digits = tuple(sorted((x // d ** (n - 1 - s)) % d for s in range(n)))
        enc[x, cols[digits]] = 1.0
    return enc / np.sqrt(enc.sum(axis=0))


def simulate_gate_text(text, state):
    """Run an exported gate list on a state vector; returns (state, gate counts)."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    total = int(round(math.log2(state.size)))
    t = np.asarray(state, dtype=complex).reshape((2,) * total)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    counts = {}
    for parts in lines:
        name = parts[0]
        counts[name] = counts.get(name, 0) + 1
        if name == "H":
            q = int(parts[1])
            t = np.moveaxis(np.tensordot(h, t, axes=([1], [q])), 0, q)
        elif name == "CSWAP":
            c, a, b = (int(v) for v in parts[1:])
            idx = [slice(None)] * total
            idx[c] = 1
            on = t[tuple(idx)]
            a2, b2 = (v - (v > c) for v in (a, b))
            t = t.copy()
            t[tuple(idx)] = np.swapaxes(on, a2, b2)
        elif name in ("PHASE0", "MCPHASE"):
            angle = float(parts[1])
            idx = [slice(None)] * total
            for q in parts[2:]:
                idx[int(q)] = 0
            t = t.copy()
            t[tuple(idx)] *= np.exp(1j * angle)
        else:
            raise ValueError(f"unexpected gate {name}")
    return t.reshape(-1), counts
