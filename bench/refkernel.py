"""A fixed reference computation that measures the host's current speed.

The benchmark runs on shared hosts whose CPU speed drifts by tens of percent,
over seconds and over minutes. A pass times this kernel between its queries,
about every quarter second, and gives each query's latency in units of the
kernel's time around it. That cancels the host's drift and leaves what the
library changes: the kernel never touches the library, so no change to the
library can move it. On a 2-vCPU VM whose speed swung by 2x, pass-sized
stretches of library work varied by 20% in seconds but by 5% in kernel
units, timed this way.

One round mixes the three kinds of work the library's queries do: pure
Python arithmetic on floats, dicts and lists; many numpy calls on small
arrays, where call overhead dominates; and dense LAPACK on 64 x 64 matrices.
Its inputs are fixed, so every round does the same work.
"""

import math
import time

import numpy as np

_RNG = np.random.default_rng(12345)
_SMALL = [_RNG.standard_normal((4, 4)) for _ in range(8)]
_HERM = (lambda a: a + a.T)(_RNG.standard_normal((64, 64)))


def _python():
    table, acc = {}, 0.0
    for i in range(12000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0.0) + math.sqrt(i + 1.0)
        acc += table[key] / (1.0 + len(table))
    return sorted(table.values())[len(table) // 2] + acc


def _numpy():
    acc = 0.0
    for i in range(130):
        a, b = _SMALL[i % 8], _SMALL[(i + 3) % 8]
        acc += float(np.einsum("ij,ji->", np.kron(a, b)[:4, :4], a)) + float(np.abs(a @ b).max())
    return acc


def _lapack():
    return float(np.linalg.eigvalsh(_HERM)[-1] + np.linalg.svd(_HERM[:32], compute_uv=False)[0])


def one_round():
    """Seconds for one round of the fixed work (about 10 ms on a 2-vCPU VM)."""
    start = time.perf_counter()
    _python()
    _numpy()
    for _ in range(4):
        _lapack()
    return time.perf_counter() - start
