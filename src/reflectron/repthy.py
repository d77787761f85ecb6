"""Lower-bound machinery: the d = 2 flat-spectrum system from M = 0
Clebsch-Gordan sums, exact Haar twirling and ensemble spectra in one
highest-weight Schur basis of U^{xn} x Ubar^{xn} for every d, Holevo
entropies, and the final program-dimension bounds.

Spin arguments are doubled half-integers (two_j) throughout.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, isfinite, log, log2, exp, e as _e
from sys import float_info

import numpy as np

from .config import _check_d, _check_eps, _check_n, budget_entries, ensure_operator_budget, ensure_vector_budget
from .tensor_core import PureState, as_vector, sym_dim

EIG_CUTOFF = 1e-12


def _check_float_d(d: int) -> None:
    """d for the bounds that take (d^2 - 1)^2, or the smaller (d + 1)^2, as a float."""
    _check_d(d)
    if (d * d - 1) ** 2 > float_info.max:
        raise ValueError(f"d = {d} is too large: (d^2 - 1)^2 overflows a float")


def weyl_dim(lam, d: int) -> int:
    """Dimension of the U(d) irrep with highest weight lam (padded)."""
    w = tuple(lam) + (0,) * (d - len(lam))
    num, den = 1, 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= w[i] - w[j] + j - i
            den *= j - i
    return num // den


# ---------------------------------------------------------------------------
# d = 2 conjecture linear system


def conjecture_system_d2(n: int):
    """Matrix and rhs of the flat-spectrum system, plus its index labels.

    Rows are J in {n mod 2, ..., n}, columns t = two_j in the same stride;
    A[J, t] = |sum_m C^{J0}_{jm,j-m}|^2 / (2j+1), b[J] = (2J+1)/binom(n+2,2).
    Each entry is the closed form (2J+1)/(t+1)^2 c_J^2, where c_J^2 is the
    running product down the column of r = u v / ((u - 1)(v + 1)) with
    u = t - J + 2 and v = t + J, formed exactly in integers as
    u v / (u v - 2J + 1): c_0^2 = 1 at even t, and the first factor at
    odd t (J = 1) is (t+1)^2 / (t(t+2)). The factor at J = t + 2 is
    exactly 0, so the entries past the triangle rule J <= t vanish without
    a mask; J and t share their parity, so u - 1 is odd, and v + 1 >= 1:
    no factor divides by 0. No proof is written down; the tests hold the
    formula to the exact Racah sums in rationals for every two_j <= 40,
    and to the M = 0 eigenvectors of J^2 in floats at two_j = 401, 1000
    and 1001. The square table is checked against the budget.
    """
    _check_n(n)
    ensure_operator_budget(n // 2 + 1, "d = 2 conjecture system")
    two_js = list(range(n % 2, n + 1, 2))
    Js = list(two_js)
    t = np.array(two_js)
    J = t[:, None]
    # one integer and one float table at a time: u v = (t + 1)^2 - (J - 1)^2,
    # then its denominator in place
    uv = (t + 1) ** 2 - (J - 1) ** 2
    A = uv.astype(float)
    uv -= 2 * J - 1
    A /= uv
    del uv
    if n % 2 == 0:
        A[0] = 1.0
    np.cumprod(A, axis=0, out=A)
    A *= 2 * J + 1
    A /= (t + 1) ** 2
    b = (2 * t + 1) / comb(n + 2, 2)
    return A, b, two_js, Js


@dataclass
class ProbeSpec:
    """Block weights q over the keys of `block_basis` (two_j for d=2, partitions for d>2)."""

    n: int
    d: int
    q: dict

    def __post_init__(self):
        clipped = {}
        for key, val in self.q.items():
            if not val >= -1e-10:  # a NaN weight fails here too
                kind = "negative" if val < 0 else "non-numeric"
                raise ValueError(f"{kind} weight {val} at {key}")
            clipped[key] = max(float(val), 0.0)
        total = sum(clipped.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {total}, expected 1")
        self.q = clipped


def solve_q_d2(n: int):
    """Solve the flat-spectrum system; returns (ProbeSpec, residual).

    A solution with weights outside [0,1] beyond tolerance would falsify the
    conjecture at that n; it is surfaced as a ValueError from ProbeSpec, not
    silently clipped away.
    """
    A, b, two_js, _ = conjecture_system_d2(n)
    q = np.linalg.solve(A, b)
    residual = float(np.abs(A @ q - b).max())
    spec = ProbeSpec(n=n, d=2, q={tj: qi for tj, qi in zip(two_js, q)})
    return spec, residual


# ---------------------------------------------------------------------------
# highest-weight Schur basis of U^{xk} x Ubar^{xl} and the exact Haar twirl


def _ladder(vecs, i: int, k: int, l: int, d: int, lower: bool) -> np.ndarray:
    """E_{i,i+1}, or E_{i+1,i} when lower, on each row of an m x d^{k+l} stack.

    The first k slots carry U and act by E: raising maps |i+1> to |i>. The
    last l slots carry Ubar and act by -E^T: raising maps |i> to -|i+1>.
    Both actions are real, so lowering is the transpose of raising.
    """
    tensor = vecs.reshape((vecs.shape[0],) + (d,) * (k + l))
    out = np.zeros_like(tensor)
    for s in range(k + l):
        src = np.moveaxis(tensor, s + 1, 1)
        dst = np.moveaxis(out, s + 1, 1)
        to, frm = (i, i + 1) if (s < k) != lower else (i + 1, i)
        if s < k:
            dst[:, to] += src[:, frm]
        else:
            dst[:, to] -= src[:, frm]
    return out.reshape(vecs.shape)


@lru_cache(maxsize=None)
def _schur_basis(k: int, l: int, d: int) -> dict:
    """Real orthonormal highest-weight basis of U^{xk} x Ubar^{xl}, read-only.

    Returns {lam: E} with E of shape (d_lam, m_lam, d^{k+l}); lam is a
    dominant weight summing to k - l (entries may be negative) and E[:, t]
    spans copy t of that irrep. The highest-weight vectors are the common
    kernel of the raising operators on the weight-lam kets. Copy 0 is
    lowered word by word and orthonormalised (two Gram-Schmidt passes per
    weight space); every copy takes copy 0's coefficients, so all copies
    carry the same matrices of the group action. No operator is built.
    """
    dim = d ** (k + l)
    ensure_operator_budget(dim, "Schur basis")
    digits = (np.arange(dim)[:, None] // d ** np.arange(k + l - 1, -1, -1)) % d
    onehot = digits[:, :, None] == np.arange(d)
    weights = onehot[:, :k].sum(axis=1) - onehot[:, k:].sum(axis=1)
    dominant = np.all(np.diff(weights, axis=1) <= 0, axis=1)
    basis = {}
    # descending lexicographic order; np.unique(..., axis=0) would import numpy.ma
    for lam in sorted({tuple(w) for w in weights[dominant].tolist()}, reverse=True):
        sel = np.flatnonzero(np.all(weights == lam, axis=1))
        kets = np.zeros((sel.size, dim))
        kets[np.arange(sel.size), sel] = 1.0
        raised = np.concatenate([_ladder(kets, i, k, l, d, False) for i in range(d - 1)], axis=1)
        raised = raised[:, np.any(raised != 0, axis=0)]
        _, svals, vt = np.linalg.svd(raised.T, full_matrices=True)
        rank = int(np.sum(svals > 1e-10))
        if rank == sel.size:
            continue
        vecs = [vt[rank:] @ kets]
        labels = [tuple(int(x) for x in lam)]
        by_weight = {labels[0]: [0]}
        pos = 0
        while pos < len(vecs):
            for i in range(d - 1):
                w = _ladder(vecs[pos], i, k, l, d, True)
                wt = list(labels[pos])
                wt[i] -= 1
                wt[i + 1] += 1
                same = by_weight.setdefault(tuple(wt), [])
                for _ in range(2):
                    for j in same:
                        w = w - (vecs[j][0] @ w[0]) * vecs[j]
                norm = np.linalg.norm(w[0])
                if norm > 1e-10:
                    same.append(len(vecs))
                    vecs.append(w / norm)
                    labels.append(tuple(wt))
            pos += 1
        E = np.stack(vecs)
        expected = weyl_dim(tuple(int(x) + l for x in lam), d)
        if E.shape[0] != expected:
            raise RuntimeError(f"Schur block {labels[0]} has {E.shape[0]} rows, Weyl dimension {expected}")
        E.setflags(write=False)
        basis[labels[0]] = E
    total = sum(E.shape[0] * E.shape[1] for E in basis.values())
    if total != dim:
        raise RuntimeError(f"Schur blocks span {total} of {dim} dimensions")
    return basis


def twirl(X, n: int, d: int) -> np.ndarray:
    """Haar average of (U^{xn} x Ubar^{xn}) X (.)^dag, exactly, over the Schur blocks.

    In each irrep block the group factor becomes I/d_lam times its trace
    and the multiplicity factor is kept; blocks coupling different irreps
    vanish.
    """
    _check_d(d)
    X = np.asarray(X)
    out = np.zeros(X.shape, dtype=np.result_type(X, float))
    for E in _schur_basis(n, n, d).values():
        size, mult, dim = E.shape
        F = E.reshape(-1, dim)
        block = (F @ X @ F.T).reshape(size, mult, size, mult)
        K = np.einsum("mtms->ts", block) / size
        out += F.T @ (K @ E).reshape(-1, dim)
    return out


# ---------------------------------------------------------------------------
# probe blocks: copy 0 of the highest-weight basis of U^{xn}


def block_basis(n: int, d: int) -> dict:
    """Copy 0 of each irrep block of U^{xn}, as real orthonormal weight-vector columns.

    Each block is keyed by its spin two_j = lam_0 - lam_1 at d = 2 and by
    its partition lam with trailing zeros dropped, e.g. (2,), at d >= 3.
    """
    return {
        (lam[0] - lam[1] if d == 2 else tuple(x for x in lam if x)): E[:, 0].T
        for lam, E in _schur_basis(n, 0, d).items()
    }


def _probe_vector(n: int, d: int, weights: dict, blocks: dict) -> np.ndarray:
    dim = d**n
    ensure_vector_budget(dim * dim, "probe state")
    v = np.zeros(dim * dim)
    for key, w in weights.items():
        if w <= 0.0:
            continue
        B = blocks[key]
        dlam = B.shape[1]
        for t in range(dlam):
            v += np.sqrt(w / dlam) * np.kron(B[:, t], B[:, t])
    return v


def build_probe(n: int, d: int, q: dict) -> PureState:
    """Probe sum_lam sqrt(q_lam) |Phi+_lam> on (C^d)^{x2n}, over the blocks of `block_basis`."""
    _check_n(n)
    spec = ProbeSpec(n=n, d=d, q=q)
    blocks = block_basis(n, d)
    unknown = set(spec.q) - set(blocks)
    if unknown:
        raise ValueError(f"weights on invalid irrep labels {sorted(unknown, key=str)}")
    v = _probe_vector(n, d, spec.q, blocks)
    return PureState(v / np.linalg.norm(v))


def build_probe_d2(n: int, probe: ProbeSpec) -> PureState:
    """`build_probe` at d = 2, from a ProbeSpec over spins two_j."""
    if probe.d != 2:
        raise ValueError("build_probe_d2 expects a d=2 ProbeSpec")
    if probe.n != n:
        raise ValueError(f"ProbeSpec is for n = {probe.n}, not n = {n}")
    return build_probe(n, 2, probe.q)


def _reflection_signs(n: int, d: int) -> np.ndarray:
    """Diagonal of R^{xn} x I with R = I - 2|d-1><d-1|."""
    single = np.ones(d)
    single[d - 1] = -1.0
    signs = single
    for _ in range(n - 1):
        signs = np.kron(signs, single)
    return np.kron(signs, np.ones(d**n))


def ensemble_state(n: int, d: int, probe) -> np.ndarray:
    """Haar average of the reflected probe, rho = twirl(R Phi R)."""
    reflected = _reflection_signs(n, d) * as_vector(probe)
    return twirl(np.outer(reflected, reflected.conj()), n, d)


def _block_grams(n: int, d: int, vecs: np.ndarray):
    """Per-block Gram stack of the reflected probe vectors v_a (rows of vecs).

    With c_a = E_lam (R^{xn} x I) v_a of shape (d_lam, m_lam), the block
    twirl of |R v_a><R v_b| is I_{d_lam} x K^{ab}_lam with
    K^{ab}_lam = sum over the d_lam index of c_a c_b^dag, over d_lam.
    Returns K of shape (A, A, L, m_max, m_max), zero-padded past m_lam,
    and the block dimensions d_lam.
    """
    basis = _schur_basis(n, n, d)
    reflected = vecs * _reflection_signs(n, d)
    m_max = max(E.shape[1] for E in basis.values())
    K = np.zeros((len(vecs), len(vecs), len(basis), m_max, m_max), dtype=reflected.dtype)
    for i, E in enumerate(basis.values()):
        size, mult, dim = E.shape
        c = (reflected @ E.reshape(-1, dim).T).reshape(-1, size, mult)
        K[:, :, i, :mult, :mult] = np.einsum("amt,bms->abts", c, c.conj()) / size
    return K, np.array([E.shape[0] for E in basis.values()])


def _block_spectrum(K: np.ndarray, dims: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Spectra of sum_ab sqrt(q_a q_b) K^{ab} for each row of a (B, A) stack q.

    Row b holds each block's eigenvalues d_lam times. The mix is one
    stacked vector-matrix product, which keeps the bits of the one-point
    product ``w @ K`` (a plain matrix product does not).
    """
    w = np.sqrt(q)
    mix = (w[:, :, None] * w[:, None, :]).reshape(len(w), 1, -1)
    mixed = np.matmul(mix, K.reshape(mix.shape[2], -1))
    eig = np.linalg.eigvalsh(mixed.reshape((len(w),) + K.shape[2:]))
    return np.repeat(eig, dims, axis=1).reshape(len(w), -1)


def ensemble_spectrum(n: int, d: int, probe) -> np.ndarray:
    """Eigenvalues of the ensemble state from its Schur blocks, zero-padded."""
    K, dims = _block_grams(n, d, as_vector(probe)[None])
    return _block_spectrum(K, dims, np.ones((1, 1)))[0]


def _entropy_bits(eig: np.ndarray) -> float:
    eig = eig[eig > EIG_CUTOFF]
    return float(-np.sum(eig * np.log2(eig)))


def _entropy_rows(eig: np.ndarray) -> np.ndarray:
    """`_entropy_bits` of each row of eig, bit for bit.

    When every row keeps the same eigenvalues, the logarithms are taken on
    the whole stack; each row's sum stays a 1-D sum, because a sum along
    an axis of the stack may add in another order.
    """
    keep = eig > EIG_CUTOFF
    if not (keep == keep[0]).all():
        return np.array([_entropy_bits(row) for row in eig])
    kept = eig[:, keep[0]]
    return np.array([-row.sum() for row in kept * np.log2(kept)])


def ensemble_entropy_rank(n: int, d: int, probe) -> tuple:
    """Entropy in bits and rank of the ensemble state, from one spectrum."""
    eig = ensemble_spectrum(n, d, probe)
    return _entropy_bits(eig), int(np.sum(eig > EIG_CUTOFF))


def ensemble_entropy(n: int, d: int, probe) -> float:
    return ensemble_entropy_rank(n, d, probe)[0]


def entropy_target(n: int, d: int) -> float:
    if d == 2:
        return log2(comb(n + 2, 2))
    return 2.0 * log2(sym_dim(n, d))


def support_bound(n: int, d: int) -> int:
    return sym_dim(n, d) ** 2


@dataclass
class EntropyReport:
    probe: ProbeSpec
    entropy: float
    target: float
    below_target: bool
    gap: float
    rank: int
    rank_bound: int
    basis: str
    trivial_sector_weight: float
    trivial_sector_flat: float


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: np.ndarray
    nfev: int


def minimize(fun, x0, xatol: float, fatol: float, maxiter: int) -> MinimizeResult:
    """Nelder-Mead from each row of the (R, N) stack x0, in lockstep.

    Every start follows scipy's non-adaptive method step for step:
    coefficients rho = 1, chi = 2, psi = sigma = 1/2; the initial simplex
    moves each nonzero coordinate by 5% and each zero one to 0.00025. A
    start stops once every vertex lies within xatol of its best and every
    value within fatol, or after maxiter - 1 steps, and then keeps its
    simplex; function calls are not limited. ``fun`` maps a (B, N) stack of
    points, its own copy, to B values. Each phase (initial simplex,
    reflection, expansion or contraction, shrink) is one call on the points
    of the starts still running. Returns each start's best vertex and value
    and the total number of points evaluated.
    """
    x0 = np.asarray(x0, dtype=float)
    R, N = x0.shape
    nfev = 0

    def f(points):
        nonlocal nfev
        nfev += len(points)
        return np.asarray(fun(np.array(points)), dtype=float)

    sim = np.repeat(x0[:, None], N + 1, axis=1)
    for k in range(N):
        sim[:, k + 1, k] = np.where(x0[:, k] != 0, (1 + 0.05) * x0[:, k], 0.00025)
    fsim = f(sim.reshape(-1, N)).reshape(R, N + 1)
    live = np.arange(R)
    iterations = 1
    while True:
        order = np.argsort(fsim[live], axis=1)
        s = np.take_along_axis(sim[live], order[:, :, None], 1)
        fs = np.take_along_axis(fsim[live], order, 1)
        sim[live], fsim[live] = s, fs
        if iterations >= maxiter:
            break
        running = ~(
            (np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= xatol)
            & (np.abs(fs[:, :1] - fs[:, 1:]).max(axis=1) <= fatol)
        )
        live, s, fs = live[running], s[running], fs[running]
        if not live.size:
            break
        iterations += 1
        xbar = s[:, :-1].sum(axis=1) / N
        worst = s[:, -1]
        # every trial point is (1 + c) xbar - c worst: reflect c = 1, expand
        # c = 2, contract outside c = 1/2 and inside c = -1/2
        xr = 2 * xbar - worst
        fxr = f(xr)
        expand = fxr < fs[:, 0]
        contract = ~(fxr < fs[:, -2])
        outside = contract & (fxr < fs[:, -1])
        trial = np.flatnonzero(expand | contract)
        shrink = np.zeros(len(live), dtype=bool)
        if trial.size:
            c = np.where(expand[trial], 2.0, np.where(outside[trial], 0.5, -0.5))[:, None]
            xt = (1 + c) * xbar[trial] - c * worst[trial]
            ft = f(xt)
            better = np.where(
                expand[trial], ft < fxr[trial], np.where(outside[trial], ft <= fxr[trial], ft < fs[trial, -1])
            )
            xr[trial[better]], fxr[trial[better]] = xt[better], ft[better]
            shrink[trial[~better & ~expand[trial]]] = True
        s[~shrink, -1], fs[~shrink, -1] = xr[~shrink], fxr[~shrink]
        if shrink.any():
            moved = s[shrink, :1] + 0.5 * (s[shrink, 1:] - s[shrink, :1])
            s[shrink, 1:] = moved
            fs[shrink, 1:] = f(moved.reshape(-1, N)).reshape(-1, N)
        sim[live], fsim[live] = s, fs
    return MinimizeResult(x=sim[:, 0], fun=fsim.min(axis=1), nfev=nfev)


def maximize_entropy_over_q(n: int, d: int, restarts: int = 20, seed: int = 0) -> EntropyReport:
    """Nelder-Mead search over the weight simplex for the ensemble entropy.

    The entropy is evaluated per Schur block (`_block_grams`), which is
    exact and keeps an evaluation cheap. The restarts run in lockstep: each
    Nelder-Mead phase is one objective call on the stacked points of the
    restarts still running, mixed in slices whose block stack stays within
    the budget, and the report is bit for bit that of running the restarts
    one after another; the first restart with the least value wins. A
    persistent gap below target is reported, not raised: it is evidence
    about the flat-spectrum conjecture, and for (n, d) in {(2, 3), (3, 3)} the trivial-sector
    weight sum_lam q_lam (chi_lam(R)/dim_lam)^2 pins the spectrum away from
    flat for every q.
    """
    _check_d(d)
    _check_n(n)
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got restarts = {restarts}")
    blocks = block_basis(n, d)
    keys = sorted(blocks)
    sides = np.array([_probe_vector(n, d, {key: 1.0}, blocks) for key in keys])
    grams, dims = _block_grams(n, d, sides)

    rows = max(1, budget_entries() // grams[0, 0].size)

    def negent(x):
        expd = np.exp(x - x.max(axis=1, keepdims=True))
        q = expd / expd.sum(axis=1, keepdims=True)
        return -np.concatenate(
            [_entropy_rows(_block_spectrum(grams, dims, q[i : i + rows])) for i in range(0, len(q), rows)]
        )

    ensure_vector_budget(restarts * (len(keys) + 1) * len(keys), "stack of Nelder-Mead simplices")
    x0 = np.random.default_rng(seed).normal(size=(restarts, len(keys)))
    res = minimize(negent, x0, xatol=1e-10, fatol=1e-12, maxiter=2000)
    best_x = res.x[np.nanargmin(res.fun)]
    expd = np.exp(best_x - best_x.max())
    qvec = expd / expd.sum()
    eig = _block_spectrum(grams, dims, qvec[None])[0]
    entropy = _entropy_bits(eig)
    rank = int(np.sum(eig > EIG_CUTOFF))
    target = entropy_target(n, d)
    probe = ProbeSpec(n=n, d=d, q={k: float(w) for k, w in zip(keys, qvec)})
    # chi_lam(R) / d_lam = <Phi_lam| R^{xn} x I |Phi_lam> for the unit probe of each block
    chi_per_dim = np.einsum("ai,ai->a", sides, sides * _reflection_signs(n, d))
    return EntropyReport(
        probe=probe,
        entropy=entropy,
        target=target,
        below_target=bool(entropy < target * (1.0 - 1e-4)),
        gap=float(target - entropy),
        rank=rank,
        rank_bound=support_bound(n, d),
        basis="highest-weight",
        trivial_sector_weight=float(qvec @ chi_per_dim**2),
        trivial_sector_flat=1.0 / support_bound(n, d),
    )


# ---------------------------------------------------------------------------
# Lambert W and the program-dimension lower bound


def lambert_w0(x: float) -> float:
    """Principal Lambert W on the domain x >= 0, by Halley iteration,
    |W e^W - x| below 1e-12; the start at x = 0 is W = 0 itself."""
    if not x >= 0.0:  # a NaN fails here too
        raise ValueError(f"lambert_w0 domain is [0, inf), got {x}")
    if x < _e:
        w = np.log1p(x) * (1.0 - np.log(1.0 + np.log1p(x)) / (2.0 + np.log1p(x)))
    else:
        lx = log(x)
        w = lx - log(lx)
    for _ in range(100):
        ew = exp(w)
        f = w * ew - x
        if abs(f) <= 1e-12 * (1.0 + abs(x)):
            break
        wp1 = w + 1.0
        w = w - f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    return float(w)


def lower_bound_fd(epsilon: float, n: int, d: int) -> float:
    """f_d(eps, n), the Holevo-information lower bound before optimizing n."""
    _check_d(d)
    if not (isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    if d == 2:
        return (
            log(comb(n + 2, 2))
            - 4.0 * n * np.sqrt(2.0 * epsilon) * log(comb(n + 3, 3))
            - log(2.0)
        )
    return (
        2.0 * log(sym_dim(n, d))
        - 4.0 * n * np.sqrt(2.0 * epsilon) * log(sym_dim(n, d * d))
        - log(2.0)
    )


def n_of_eps(epsilon: float, d: int) -> float:
    """Copy count solving n ln n = 1/(2(d+1) sqrt(2 eps)), via W0."""
    _check_eps(epsilon)
    _check_float_d(d)
    x = np.sqrt(1.0 / (8.0 * (d + 1) ** 2 * epsilon))
    if not isfinite(x):
        raise ValueError(f"epsilon = {epsilon} is too small: 1/(8 (d+1)^2 epsilon) overflows")
    return exp(lambert_w0(x))


def asymptotic_regime(epsilon: float, d: int) -> bool:
    return epsilon <= 1e-3 / (d + 1) ** 2


def final_lower_bound(epsilon: float, d: int) -> float:
    """ln d_P >= (d-1) ln(1/(8 (d^2-1)^2 eps))."""
    _check_eps(epsilon)
    _check_float_d(d)
    x = 1.0 / (8.0 * (d * d - 1) ** 2 * epsilon)
    if x == 0.0:
        raise ValueError(f"epsilon = {epsilon} is too large at d = {d}: 1/(8 (d^2-1)^2 epsilon) underflows to 0")
    return (d - 1) * log(x)
