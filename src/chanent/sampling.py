"""Seeded random generation of unitaries, states, probability vectors, ensembles, channels.

The generator is counter-based (Philox) and every Monte Carlo trial owns its
own stream derived from (master seed, stream index), so experiments are
reproducible bit-for-bit regardless of how trials are distributed over
workers. Gaussian variates use the Box-Muller transform rather than
rejection sampling so the number of raw draws per object is fixed.

Each distribution is one transform of a block of uniforms with any leading
shape: the per-generator functions draw their block with one `random` call,
and `random_ensembles` draws one block per trial stream from the stacked
Philox kernel `stream_uniforms` and transforms the whole stack at once. Both
paths produce the same uniforms and run the same transform, so a trial's
numbers do not depend on which path drew them.

A Gaussian block is drawn whole, but only the columns its object uses go
through Box-Muller: a channel on C^n keeps n columns of its N×N block.
`random_channels` draws a state and several channels in the order of the
single-object functions and transforms all their used Gaussians at once.
"""

from __future__ import annotations

import functools

import numpy as np

from .channels import Channel
from .entropy import Ensemble

__all__ = [
    "stream_rng",
    "stream_uniforms",
    "complex_gaussian",
    "haar_unitary",
    "hs_random_density",
    "random_pure_state",
    "dirichlet",
    "random_channel",
    "random_channels",
    "random_ensemble",
    "random_ensembles",
]


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream); same pair -> same sequence.

    The generator is Philox keyed by (seed & 0xFFFF_FFFF_FFFF_FFFF, stream). The key
    comes in as a seed sequence that returns it as is: Philox(key=...) would first build,
    and then drop, a SeedSequence drawn from OS entropy.
    """
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_sequence()(key)))


@functools.cache
def _key_sequence() -> type:
    """The seed-sequence class whose state is a given Philox key. Built on first use, so that
    importing this module does not import numpy.random."""

    class KeySequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # Philox asks for its (2,) uint64 key, and only for that
            return self.key

    return KeySequence


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC 2011): round multipliers and Weyl key increments, as (word 0, word 2)
# and (key 0, key 1) columns.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_LOW32 = np.uint64(0xFFFFFFFF)
_M_LO, _M_HI = _PHILOX_M & _LOW32, _PHILOX_M >> np.uint64(32)


def stream_uniforms(seed: int, start: int, stop: int, count: int) -> np.ndarray:
    """(stop - start, count) uniforms; row t - start is stream_rng(seed, t).random(count).

    The rows are the same bits, computed as one array computation instead
    of one Generator per stream: Philox4x64-10 is a pure function of its
    key (seed & 0xFFFF_FFFF_FFFF_FFFF, t) and its counter, which numpy's
    Philox starts at 1 and steps once per four 64-bit words. A word x
    becomes the double (x >> 11) * 2**-53, as in Generator.random.
    """
    rows, blocks = max(stop - start, 0), -(-count // 4)
    # every uint64 operation is on arrays, which wrap silently, as Philox needs
    key = np.empty((2, rows, 1), dtype=np.uint64)
    key[0] = seed & 0xFFFFFFFFFFFFFFFF
    key[1, :, 0] = np.arange(rows, dtype=np.uint64) + np.uint64(start)
    even = np.zeros((2, rows, blocks), dtype=np.uint64)  # counter words 0 and 2
    even[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    odd = np.zeros_like(even)  # counter words 1 and 3
    for r in range(10):
        if r:
            key = key + _PHILOX_W
        # high 64 bits of M * even from 32-bit halves (the low ones wrap)
        x_lo, x_hi = even & _LOW32, even >> np.uint64(32)
        t = _M_LO * x_hi + ((_M_LO * x_lo) >> np.uint64(32))
        u = _M_HI * x_lo + (t & _LOW32)
        hi = _M_HI * x_hi + (t >> np.uint64(32)) + (u >> np.uint64(32))
        even, odd = hi[::-1] ^ odd ^ key, (_PHILOX_M * even)[::-1]
    words = np.stack([even, odd], axis=1).reshape(4, rows, blocks)
    raw = words.transpose(1, 2, 0).reshape(rows, 4 * blocks)[:, :count]
    return (raw >> np.uint64(11)) * 2.0**-53


def _box_muller(u: np.ndarray, shape) -> np.ndarray:
    """Complex standard normals of shape (..., *shape) from a (..., 2m) block of uniforms.

    The first half of the block gives the radii, the second half the angles.
    """
    m = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., :m]))  # 1 - u in (0, 1]
    angle = 2.0 * np.pi * u[..., m:]
    out = np.empty(r.shape, dtype=complex)
    np.multiply(r, np.cos(angle), out=out.real)
    np.multiply(r, np.sin(angle), out=out.imag)
    return out.reshape(u.shape[:-1] + tuple(shape))


def _flat_dirichlet(u: np.ndarray) -> np.ndarray:
    """Flat Dirichlet points on the last axis's simplex, from exponentials -log(1 - u)."""
    g = -np.log(1.0 - u)
    return g / g.sum(axis=-1, keepdims=True)


def _induced_ancilla(n: int, ancilla: int | None) -> int:
    """The checked ancilla dimension of an induced density on C^n (default n)."""
    a = n if ancilla is None else ancilla
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if a < 1:
        raise ValueError("ancilla dimension must be at least 1")
    return a


def _gram_density(g: np.ndarray) -> np.ndarray:
    """G G†/tr(G G†) of each matrix G of a (..., n, a) stack. The trace is an einsum, since
    np.trace on a stack is a strided reduction, on a (150, 3, 2, 2) stack up to 30 times slower.
    For n <= 3 both add in one order, to the same bytes; for n >= 4 an entry moves by at most
    (n + 2) eps of itself."""
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.einsum("...ii->...", rho).real[..., None, None]


@functools.lru_cache(maxsize=256)
def _gather_plan(blocks: tuple) -> tuple[np.ndarray, tuple]:
    """(index, pieces) of _gaussian_columns: u[index] is [radii | angles] of every used
    entry, block by block, and piece (start, stop, shape) is one block's share of them.
    The index is shared by every caller, so it is read-only."""
    radii, angles, pieces, offset, start = [], [], [], 0, 0
    for rows, cols, used in blocks:
        cell = (np.arange(rows)[:, None] * cols + np.arange(used)).ravel()
        radii.append(offset + cell)
        angles.append(offset + rows * cols + cell)
        pieces.append((start, start + cell.size, (rows, used)))
        offset, start = offset + 2 * rows * cols, start + cell.size
    index = np.concatenate(radii + angles)
    index.flags.writeable = False
    return index, tuple(pieces)


def _gaussian_columns(u: np.ndarray, blocks) -> list[np.ndarray]:
    """The used columns of Gaussian blocks laid back to back in u, through one Box-Muller.

    Block (rows, cols, used) is 2·rows·cols uniforms, [radii | angles] of a rows×cols
    Gaussian laid out as complex_gaussian(rng, (rows, cols)) lays it. Its first `used`
    columns come back as a rows×used array; the other columns' uniforms are skipped.
    """
    index, pieces = _gather_plan(tuple(blocks))
    g = _box_muller(u[index], (index.size // 2,))
    return [g[a:b].reshape(shape) for a, b, shape in pieces]


def complex_gaussian(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Complex array with independent standard normal real and imaginary parts."""
    return _box_muller(rng.random(2 * int(np.prod(shape))), shape)


def _phase_fixed_qr(g: np.ndarray) -> np.ndarray:
    """Q of the thin QR of an N×c complex Gaussian g, each column multiplied by the
    phase of R's diagonal entry: c columns of a Haar unitary (Mezzadri, Notices AMS 2007).

    The first c Householder reflectors depend only on g's first c columns, so
    these are, up to rounding, the first c columns of the N×N case.
    """
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian with phase-fixed R diagonal."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return _phase_fixed_qr(complex_gaussian(rng, (n, n)))


def hs_random_density(n: int, rng: np.random.Generator, ancilla: int | None = None) -> np.ndarray:
    """Random density matrix G G†/tr(G G†), G complex Gaussian n×ancilla.

    ancilla = n (the default) gives the flat Hilbert-Schmidt measure; other
    values give the measures induced by tracing a Haar-random pure state on
    C^n ⊗ C^ancilla. n or ancilla below 1 raises ValueError.
    """
    a = _induced_ancilla(n, ancilla)
    return _gram_density(complex_gaussian(rng, (n, a)))


def random_pure_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector in C^n."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    v = complex_gaussian(rng, (n,))
    return v / np.linalg.norm(v)


def dirichlet(k: int, rng: np.random.Generator) -> np.ndarray:
    """Flat Dirichlet sample on the k-simplex, from exponentials (rejection-free)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _flat_dirichlet(rng.random(k))


def random_channel(n: int, m: int, rng: np.random.Generator):
    """Random channel on C^n with m Kraus operators.

    The Kraus operators are the blocks of the first block-column of a Haar
    unitary of size N = n*m, i.e. an isometry chopped into m pieces. The draw is
    haar_unitary's, all 2N² uniforms of the N×N Gaussian, so the generator ends
    where it would; only the first n columns go through Box-Muller and the QR.
    """
    return random_channels(n, (m,), rng)[0]


def random_channels(n: int, kraus, rng: np.random.Generator, density: bool = False) -> tuple:
    """hs_random_density(n, rng) if density, then random_channel(n, m, rng) for each m
    of kraus, in that order and bit for bit, with one Box-Muller for all of them.

    An entry of kraus is a Kraus count, or a range r whose count r[int(len(r)·u)] comes
    from the uniform drawn just before that channel's block, as a caller would draw
    `1 + int(3 * rng.random())` before calling random_channel. Each stretch of
    uniforms up to such a count is one exact-size `random` call.
    """
    if n < 1:
        raise ValueError("dimension and Kraus count must be at least 1")
    blocks, parts, pending = [], [], 0
    if density:
        blocks.append((n, n, n))
        pending = 2 * n * n
    for m in kraus:
        if isinstance(m, range):
            u = rng.random(pending + 1)
            parts.append(u[:-1])
            m, pending = m[int(u[-1] * len(m))], 0
        if m < 1:
            raise ValueError("dimension and Kraus count must be at least 1")
        blocks.append((n * m, n * m, n))
        pending += 2 * (n * m) ** 2
    parts.append(rng.random(pending))
    g = _gaussian_columns(parts[0] if len(parts) == 1 else np.concatenate(parts), blocks)
    rho = (_gram_density(g.pop(0)),) if density else ()
    return rho + tuple(Channel(_phase_fixed_qr(k).reshape(-1, n, n)) for k in g)


def _ensemble(draw, k: int, n: int, ancilla: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(probs (..., k), states (..., k, n, n)) from one block of uniforms, drawn by draw(count).

    The block is [k Dirichlet | per state: n·a uniforms for u1, then n·a for u2].
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    a = _induced_ancilla(n, ancilla)
    u = draw(k * (1 + 2 * n * a))
    probs = _flat_dirichlet(u[..., :k])
    states = _gram_density(_box_muller(u[..., k:].reshape(u.shape[:-1] + (k, 2 * n * a)), (n, a)))
    return probs, states


def random_ensemble(k: int, n: int, rng: np.random.Generator, ancilla: int | None = None) -> Ensemble:
    """Ensemble of k states of dimension n: Dirichlet probabilities + induced HS states."""
    return Ensemble(*_ensemble(rng.random, k, n, ancilla))


def random_ensembles(k: int, n: int, seed: int, start: int, stop: int,
                     ancilla: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ensembles of trials [start, stop): probs (B, k) and states (B, k, n, n).

    Row t - start is random_ensemble(k, n, stream_rng(seed, t), ancilla), bit
    for bit: each trial's block comes from its own stream through
    stream_uniforms, and the stack of blocks goes through one transform.
    """
    return _ensemble(lambda count: stream_uniforms(seed, start, stop, count), k, n, ancilla)
