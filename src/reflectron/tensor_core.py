"""Dense complex linear algebra over tensor-product spaces.

Conventions: factor 0 is the leftmost tensor slot (the system register);
the cyclic permutation pushes contents right, factor s -> factor s+1 mod k.
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .config import ensure_operator_budget, ensure_vector_budget

NORM_TOL = 1e-12
UNITARY_TOL = 1e-10


@dataclass
class _Fresh:
    """A flat complex array that the library has just built, or one that is read-only
    already, kept without a copy; a cyclic family adds its invariants (c_0, ct_0, A)."""

    array: np.ndarray
    invariants: tuple | None = None


def _read_only(x) -> np.ndarray:
    """The array of a _Fresh as it is, else a flat complex copy of x; either
    way it refuses writes."""
    a = x.array if isinstance(x, _Fresh) else np.ravel(x).astype(complex)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized vector, nothing but its amplitudes: read-only, a copy of
    the caller's array. Which tensor factors it spans is the caller's to say.
    `==` and hashing go by identity."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _read_only(self.amplitudes))
        # a pairwise sum of the squared real and imaginary parts: BLAS nrm2
        # rounds past NORM_TOL at 2^21 amplitudes
        re_im = self.amplitudes.view(float)
        norm = np.sqrt(np.sum(re_im * re_im))
        if not abs(norm - 1.0) <= NORM_TOL:  # a NaN norm fails too
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @cached_property
    def projector(self) -> np.ndarray:
        """|psi><psi|, built on first use and shared read-only."""
        P = np.outer(self.amplitudes, self.amplitudes.conj())
        P.flags.writeable = False
        return P

    def tensor_power(self, n: int) -> "PureState":
        ensure_vector_budget(self.dim**n, "tensor power state")
        vec = _kron_fold(self.amplitudes, self.amplitudes, n - 1)
        return PureState(_Fresh(vec))


def _kron_fold(head: np.ndarray, v: np.ndarray, copies: int) -> np.ndarray:
    """head x v^{x copies} for 1-D arrays, folded from the left: the products
    np.kron makes, without its per-call overhead."""
    for _ in range(copies):
        head = np.multiply.outer(head, v).ravel()
    return head


def as_vector(psi) -> np.ndarray:
    if isinstance(psi, PureState):
        return psi.amplitudes
    return np.asarray(psi, dtype=complex).reshape(-1)


def as_state(psi) -> PureState:
    """psi itself if it is a PureState, else a state of its amplitudes."""
    if isinstance(psi, PureState):
        return psi
    return PureState(as_vector(psi))


def require_unitary(U) -> None:
    """Raise ValueError unless max |U U^dag - I| <= UNITARY_TOL; a NaN fails too."""
    dev = np.abs(U @ U.conj().T - np.eye(U.shape[0])).max()
    if not dev <= UNITARY_TOL:
        raise ValueError(f"input is not unitary, deviation {dev}")


def partial_trace(X, keep, d: int, factors: int) -> np.ndarray:
    """Trace out all factors not listed in ``keep`` (0-based indices)."""
    keep = sorted(set(int(i) for i in keep))
    if not keep or any(i < 0 or i >= factors for i in keep):
        raise ValueError(f"keep indices {keep} invalid for {factors} factors")
    tensor = np.asarray(X, dtype=complex).reshape((d,) * (2 * factors))
    traced = 0
    for i in range(factors):
        if i in keep:
            continue
        offset = i - traced
        live = factors - traced
        tensor = np.trace(tensor, axis1=offset, axis2=live + offset)
        traced += 1
    if not traced:  # nothing traced out: tensor may still be a view of X
        tensor = tensor.copy()
    dim = d ** len(keep)
    return tensor.reshape(dim, dim)


def sym_dim(n: int, d: int) -> int:
    """Dimension of the symmetric subspace, stars and bars."""
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    return comb(n + d - 1, d - 1)


def symmetric_encoder(n: int, d: int) -> np.ndarray:
    """The isometry from sorted multi-index kets to symmetrized basis vectors.

    Column order is lexicographic in the sorted multi-index; each column is
    the equal-weight superposition of the distinct arrangements. A ket joins
    the column of its sorted digits (its digit histogram), and the ket count
    per column is the exact multinomial n! / prod_i c_i!.
    """
    dim = d**n
    ensure_vector_budget(dim * sym_dim(n, d), "symmetric encoder")
    weights = d ** np.arange(n - 1, -1, -1)
    digits = (np.arange(dim)[:, None] // weights) % d
    # sorted digits read as a base-d number order the columns lexicographically
    _, column = np.unique(np.sort(digits, axis=1) @ weights, return_inverse=True)
    arrangements = np.bincount(column)
    entries = np.zeros((dim, arrangements.size), dtype=complex)
    entries[np.arange(dim), column] = 1.0 / np.sqrt(arrangements)[column]
    return entries


def symmetric_projector(n: int, d: int) -> np.ndarray:
    enc = symmetric_encoder(n, d)
    ensure_operator_budget(d**n, "symmetric projector")
    return enc @ enc.conj().T


def haar_random_state(d: int, seed=0) -> PureState:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return PureState(_Fresh(v / np.linalg.norm(v)))


def haar_random_unitary(d: int, seed=0) -> np.ndarray:
    """Haar unitary via QR with R-diagonal phase correction (Mezzadri)."""
    rng = np.random.default_rng(seed)
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases[None, :]
