"""Seeded query lists for the three workloads.

A query is a plain dict that JSON carries to the pass process: a ``kind``
naming how it is run and checked (see ``queries.py``) plus its inputs. The
same seed gives the same list. The seed moves angles, weights and state
seeds but never the sizes, so the work in a pass does not depend on it.

``tiny`` shrinks every list to a few cheap queries for the self-test.
"""

import math
import random

LMR_NS = (3, 4, 5, 6, 8, 12, 16, 24, 32, 64, 128, 256, 512, 1024, 2048, 4096)
MR_NS = (2, 3, 4, 6, 8, 12, 16, 32, 64, 128, 256, 512)
SYM_PROJECTORS = ((2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (2, 4))


def _cli(*argv, **extra):
    return {"kind": "cli", "argv": [str(a) for a in argv], **extra}


def covariant_sweep(rng, tiny):
    """Closed-form distances, their optimization and the landscape, called directly."""
    queries = []
    for n in range(1, 5 if tiny else 65):
        alphas = [math.pi] + [rng.uniform(0.05, math.pi) for _ in range(1 if tiny else 3)]
        for k, alpha in enumerate(alphas):
            # theta = alpha on the first two angles has the paper's equal-angle closed form
            theta = alpha if k < 2 else rng.uniform(0.05, math.pi)
            queries.append({"kind": "covariant", "family": "optimal", "n": n, "alpha": alpha})
            queries.append({"kind": "covariant", "family": "theta", "n": n, "alpha": alpha, "theta": theta})
            queries.append({"kind": "covariant", "family": "lmr", "n": n, "alpha": alpha, "theta": alpha / n})
    for n in (2, 4) if tiny else (2, 4, 8, 16):
        for alpha in [math.pi] + [rng.uniform(0.01, math.pi) for _ in range(1 if tiny else 7)]:
            queries.append({"kind": "theta_star", "n": n, "alpha": alpha})
    for n in (3, 8) if tiny else LMR_NS:
        queries.append({"kind": "lmr_improvement", "n": n, "alpha": rng.uniform(0.1, math.pi)})
    n = rng.choice((2, 3, 4, 6, 8))
    queries.append({"kind": "landscape", "n": n, "grid": 33 if tiny else 513})
    queries.append({"kind": "boundary", "n": n})
    return queries


def _simplex(rng, keys):
    draws = [rng.expovariate(1.0) for _ in keys]
    total = sum(draws)
    return {str(k): x / total for k, x in zip(keys, draws)}


def lowerbound(rng, tiny):
    """Clebsch-Gordan systems, commutant twirls, entropy search and f_d."""
    top = 6 if tiny else 40
    queries = [_cli("lowerbound", "solve-q", "--n", top)]
    queries += [{"kind": "solve_q", "n": n} for n in range(1, top)]
    twirls = ((1, 2), (2, 2)) if tiny else ((1, 2), (2, 2), (3, 2), (2, 3))
    for n, d in twirls:
        queries.append(_cli("lowerbound", "twirl", "--n", n, "--d", d, "--seed", rng.randrange(1000)))
    # after the twirl queries built each commutant cold, these reuse it warm
    for n, count in ((2, 3),) if tiny else ((3, 12), (2, 8)):
        spins = range(n % 2, n + 1, 2)
        queries += [{"kind": "ensemble", "n": n, "q": _simplex(rng, spins)} for _ in range(count)]
    for d in (2, 3) if tiny else (2, 3, 4, 5):
        for _ in range(2 if tiny else 10):
            queries.append(_cli("lowerbound", "fd", "--eps", repr(10 ** rng.uniform(-9, -2)), "--d", d))
    return queries


def dense_oracle(rng, tiny):
    """Dense simulations: circuits, the full reflection channel, measure-and-reflect."""
    queries = []
    for n in (1, 3) if tiny else (1, 3, 7):
        for _ in range(1 if tiny else 4):
            queries.append(_cli("circuit", "verify", "--n", n, "--seed", rng.randrange(1000)))
            theta = repr(rng.uniform(0.0, 2.0 * math.pi))
            queries.append(_cli("circuit", "emit", "--n", n, "--theta", theta, state_seed=rng.randrange(1000)))
    for _ in range(1 if tiny else 4):
        queries.append({"kind": "circuit_dense", "n": 3, "theta": rng.uniform(0.0, 2.0 * math.pi)})
    # two inputs per size and family put the median well inside this cluster
    # of sub-millisecond queries rather than at its edge
    for d, top in ((2, 3), (3, 2)) if tiny else ((2, 11), (3, 6)):
        for n in range(1, top + 1):
            for family in ("optimal", "theta", "lmr") * (1 if tiny else 2):
                queries.append({
                    "kind": "dense_channel", "d": d, "n": n, "family": family,
                    "theta": rng.uniform(0.05, math.pi), "seed": rng.randrange(10**6),
                })
    for d in (2, 3):
        for n in (2, 8) if tiny else MR_NS:
            queries.append(_cli("mr", "--n", n, "--d", d, "--seed", rng.randrange(1000)))
    for d in (2, 3):
        for _ in range(1 if tiny else 2):
            eps = repr(round(rng.uniform(0.15, 0.3), 4))
            queries.append(_cli("universal", "verify", "--d", d, "--eps", eps, "--trials", 20,
                                "--targets", 2 if tiny else 5, "--seed", rng.randrange(1000)))
    queries.append({"kind": "sym_encoder", "n": 5 if tiny else 9, "d": 2})
    for n, d in SYM_PROJECTORS[:2] if tiny else SYM_PROJECTORS:
        queries.append({"kind": "sym_projector", "n": n, "d": d})
    return queries


WORKLOADS = {
    "covariant-sweep": covariant_sweep,
    "lowerbound": lowerbound,
    "dense-oracle": dense_oracle,
}


def build(name, seed, tiny=False):
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), tiny)
