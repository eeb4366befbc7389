"""Seeded random generation of unitaries, states, probability vectors, ensembles, channels.

The generator is counter-based (Philox) and every Monte Carlo trial owns its
own stream derived from (master seed, stream index), so experiments are
reproducible bit-for-bit regardless of how trials are distributed over
workers. Gaussian variates use the Box-Muller transform rather than
rejection sampling so the number of raw draws per object is fixed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "stream_rng",
    "complex_gaussian",
    "real_gaussian",
    "haar_unitary",
    "hs_random_density",
    "random_pure_state",
    "dirichlet",
    "random_channel",
    "random_ensemble",
]


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); same pair -> same sequence."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def real_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal array via Box-Muller (2 uniforms per variate)."""
    n = int(np.prod(shape)) if shape else 1
    u1 = 1.0 - rng.random(n)  # (0, 1]
    u2 = rng.random(n)
    out = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return out.reshape(shape)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex array with independent standard normal real and imaginary parts."""
    n = int(np.prod(shape)) if shape else 1
    u1 = 1.0 - rng.random(n)
    u2 = rng.random(n)
    r = np.sqrt(-2.0 * np.log(u1))
    out = r * np.cos(2.0 * np.pi * u2) + 1j * r * np.sin(2.0 * np.pi * u2)
    return out.reshape(shape)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with phase-fixed R diagonal."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    g = complex_gaussian(rng, (n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def hs_random_density(n: int, rng: np.random.Generator, ancilla: int | None = None) -> np.ndarray:
    """Random density matrix G G†/tr(G G†), G complex Gaussian n×ancilla.

    ancilla = n (the default) gives the flat Hilbert-Schmidt measure; other
    values give the measures induced by tracing a Haar-random pure state on
    C^n ⊗ C^ancilla.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    k = n if ancilla is None else ancilla
    g = complex_gaussian(rng, (n, k))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector in C^n."""
    v = complex_gaussian(rng, (n,))
    return v / np.linalg.norm(v)


def dirichlet(k: int, rng: np.random.Generator, alpha: float = 1.0) -> np.ndarray:
    """Dirichlet(alpha, ..., alpha) sample on the k-simplex.

    alpha = 1 (flat measure) is sampled from exponentials and therefore
    rejection-free; other alphas fall back to the generator's gamma method.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if alpha == 1.0:
        g = -np.log(1.0 - rng.random(k))
    else:
        g = rng.gamma(alpha, size=k)
    return g / g.sum()


def random_channel(n: int, m: int, rng: np.random.Generator):
    """Random channel on C^n with m Kraus operators.

    The Kraus operators are the blocks of the first block-column of a Haar
    unitary of size n*m, i.e. an isometry chopped into m pieces.
    """
    from .channels import Channel

    return Channel(haar_unitary(n * m, rng)[:, :n].reshape(m, n, n))


def random_ensemble(k: int, n: int, rng: np.random.Generator, ancilla: int | None = None):
    """Ensemble of k states of dimension n: Dirichlet probabilities + HS states."""
    from .bounds import Ensemble

    probs = dirichlet(k, rng)
    states = [hs_random_density(n, rng, ancilla=ancilla) for _ in range(k)]
    return Ensemble(probs, states)
