"""Shared helpers for the test suite."""

import math

import numpy as np
import scipy.linalg
from hypothesis import strategies as st

from chanent import bounds, channels, davies, entropy, matfun, qubit, states
from chanent.entropy import vn_entropy
from chanent.sampling import haar_unitary, random_channel, random_ensemble, stream_rng


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (scipy.linalg.expm): the reference
    that generator round trips and the Davies semigroup are checked against."""
    return scipy.linalg.expm(np.asarray(m))


def polar_2x2(x: np.ndarray) -> np.ndarray:
    """The det-one unitary polar factor of a 2×2 x with det x >= 0, in closed form:
    (x + adj(x)†)/sqrt(|x|_F² + 2 det x)."""
    adj = np.array([[x[1, 1], -x[0, 1]], [-x[1, 0], x[0, 0]]])
    return (x + adj.conj().T) / np.sqrt(np.sum(np.abs(x) ** 2) + 2 * np.linalg.det(x).real)


def record_shapes(monkeypatch, owner, names) -> dict:
    """Patch each owner.<name> to record the shape of its first argument, by name."""
    calls = {name: [] for name in names}
    for name, shapes in calls.items():
        real = getattr(owner, name)

        def counted(a, *args, _real=real, _shapes=shapes, **kwargs):
            _shapes.append(np.shape(a))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


# the chanent modules that may hold a name imported from matfun
CHANENT_MODULES = (matfun, entropy, states, channels, bounds, qubit)


def forbid_calls(monkeypatch, owners, names) -> None:
    """Make a call to owner.<name>, for each of the names that an owner holds, raise
    AssertionError naming the function."""
    for owner in owners:
        for name in names:
            if hasattr(owner, name):
                def forbidden(*args, _name=f"{owner.__name__}.{name}", **kwargs):
                    raise AssertionError(f"{_name} was called")

                monkeypatch.setattr(owner, name, forbidden)


def forbid_eigensolvers(monkeypatch) -> None:
    """Make a call to matfun.spectrum, wherever a module holds the name, or to a LAPACK
    eigensolver or SVD raise AssertionError."""
    forbid_calls(monkeypatch, CHANENT_MODULES, ["spectrum"])
    forbid_calls(monkeypatch, [np.linalg], ["eigh", "eigvalsh", "svd"])


def conjecture_reference(k: int, dim: int, seed: int, start: int, stop: int) -> np.ndarray:
    """chi - S(G) of trials [start, stop) of the conjecture1 suite, one ensemble at a
    time through the public functions."""
    out = []
    for t in range(start, stop):
        e = random_ensemble(k, dim, stream_rng(seed, t))
        out.append(bounds.holevo(e) - vn_entropy(bounds.fidelity_matrix(e, "G")))
    return np.array(out)


def criterion7_davies(rng) -> davies.DaviesQubit:
    """The Davies qubit map that acceptance criterion 7 draws from rng."""
    p = 0.05 + 0.9 * rng.random()
    a = rng.random() * (1 - p) * 0.99
    cmax = math.sqrt(1 - a / (1 - p))
    return davies.DaviesQubit(a=a, c=(0.01 + 0.98 * rng.random()) * cmax, p=p)


def random_thermal_block(rng, with_mu: bool = False) -> davies.DaviesQutritBlock:
    """A Davies qutrit zero-frequency block built from a valid thermal generator."""
    energies = np.sort(rng.random(3))[::-1]
    beta = 0.5 + rng.random()
    w = np.exp(-beta * energies)
    p = w / w.sum()
    gen = np.zeros((3, 3))
    gen[1, 0], gen[2, 0], gen[2, 1] = 0.05 + 0.4 * rng.random(3)
    gen[0, 1] = gen[1, 0] * p[0] / p[1]
    gen[0, 2] = gen[2, 0] * p[0] / p[2]
    gen[1, 2] = gen[2, 1] * p[1] / p[2]
    for j in range(3):
        gen[j, j] = -(gen[:, j].sum() - gen[j, j])
    f = matrix_exp(gen * (0.2 + rng.random()))
    mu = None
    if with_mu:
        diag = np.diag(f)
        s = rng.random()
        mu = s * np.array(
            [
                np.sqrt(diag[0] * diag[1]),
                np.sqrt(diag[0] * diag[2]),
                np.sqrt(diag[1] * diag[2]),
            ]
        )
    return davies.DaviesQutritBlock(f21=f[1, 0], f31=f[2, 0], f32=f[2, 1], p=p, mu=mu)


def stack_from_spectra(spectra, seed):
    """U diag(w) U† for each row of spectra, with a Haar U per row."""
    rng = stream_rng(seed, 0)
    n = spectra.shape[-1]
    us = np.stack([haar_unitary(n, rng) for _ in range(len(spectra))])
    return (us * spectra[:, None, :]) @ us.conj().swapaxes(-1, -2)


# Spectra that stress an eigensolver: exact zeros (rank deficiency) and
# eigenvalues closer than 1e-9 (near degeneracy), next to generic ones.
_eigenvalue = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-9),
    st.sampled_from([0.25, 0.5]).flatmap(lambda c: st.floats(c, c + 1e-10)),
    st.floats(1e-6, 1.0),
)


@st.composite
def psd_stacks(draw, dims=st.integers(2, 4)):
    n = draw(dims)
    count = draw(st.integers(1, 5))
    spectra = np.array([[draw(_eigenvalue) for _ in range(n)] for _ in range(count)])
    return stack_from_spectra(spectra, draw(st.integers(0, 2**32)))


@st.composite
def kraus_lists(draw):
    """Kraus list of a random channel on C^2 or C^3 with 1 to 4 operators, or the
    rectangular list of that channel's complementary channel."""
    n = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 4))
    phi = random_channel(n, m, stream_rng(draw(st.integers(0, 2**32)), 0))
    if draw(st.booleans()):
        phi = phi.complementary()
    return list(phi.kraus)
