"""Every tolerance is defined once, in chanent.tolerances, and every probability
vector goes through one check."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from chanent import bounds, davies, entropy, qubit, tolerances

SRC = Path(entropy.__file__).parent

# Named module-level constants that may hold a small float outside tolerances.py:
# the seesaw's stop criterion is defined, with its reason, in its only module.
NAMED_ELSEWHERE = {("qubit.py", "SEESAW_TOL")}

# Function parameters that carry a tolerance, by name.
TOLERANCE_ARGS = {"tol", "slack", "eps", "cutoff", "coeff_tol", "tol_pd", "tol_psd", "delta"}


def _modules():
    return [(path.name, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]


def test_no_tolerance_literal_outside_tolerances_module():
    found = []
    for name, tree in _modules():
        if name == "tolerances.py":
            continue
        named = {id(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 for target in node.targets
                 if isinstance(target, ast.Name) and (name, target.id) in NAMED_ELSEWHERE}
        found += [f"{name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, float)
                  and 0.0 < abs(node.value) <= 1e-6 and id(node) not in named]
    assert not found, "tolerance literals outside tolerances.py:\n" + "\n".join(found)


def test_tolerances_module_holds_constants_only():
    tree = ast.parse((SRC / "tolerances.py").read_text())
    for node in tree.body:
        assert isinstance(node, (ast.Assign, ast.Expr)), ast.dump(node)[:80]
    names = [t.id for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    assert len(names) == len(set(names))
    assert all(name.isupper() for name in names)


def test_public_tolerance_parameters():
    # Channel(tol) has two values in use; the eps=0 mode of the other two is tested
    public = set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (
                    not node.name.startswith("_") or node.name == "__init__"):
                public |= {(name, node.name, a.arg) for a in node.args.args + node.args.kwonlyargs
                           if a.arg in TOLERANCE_ARGS}
    assert public == {("channels.py", "__init__", "tol"), ("matfun.py", "regularize_singular", "eps"),
                      ("matfun.py", "sqrt_product", "eps")}


# -- one probability-vector check -------------------------------------------------

_QUBITS = np.array([np.eye(2) / 2, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2) / 2])


def _ensemble(p):
    return bounds.Ensemble(p, _QUBITS[:len(p)])


def _hierarchy(p):
    return bounds.hierarchy_batch(np.array(p)[None], _QUBITS[None, :3])


def _mutual_information(p):
    return entropy.mutual_information_classical(np.reshape(p, (2, 2)))


def _davies(p):
    return davies.DaviesQutritBlock(0.1, 0.1, 0.1, p=p)


def _jsd(p):
    return entropy.jsd([[1.0, 0.0]] * len(p), weights=p)


# (entry point, vector length, whether a zero weight is refused)
ENTRY_POINTS = {
    "Ensemble": (_ensemble, 4, False),
    "hierarchy_batch": (_hierarchy, 3, False),
    "pauli_channel": (qubit.pauli_channel, 4, False),
    "mutual_information_classical": (_mutual_information, 4, False),
    "DaviesQutritBlock": (_davies, 3, True),
    "shannon": (entropy.shannon, 4, False),
    "jsd": (_jsd, 3, False),
}


def _vector(k: int, first: float | None = None, excess: float = 0.0) -> list:
    """A probability vector of length k; first replaces its first entry, the
    second absorbs the difference (all of the old weight for a NaN, so that the
    other entries sum to 1), and excess is added to the first."""
    p = [0.4, 0.3, 0.2, 0.1][:k]
    p = [x / sum(p) for x in p]
    if first is not None:
        p[1] += p[0] - (0.0 if math.isnan(first) else first)
        p[0] = first
    p[0] += excess
    return p


BAD = {"nan": dict(first=math.nan), "negative": dict(first=-1e-13), "sum": dict(excess=1e-9)}
EDGE = {"negative": dict(first=-1e-15), "sum": dict(excess=1e-11)}


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_probabilities_raise(entry, bad):
    call, k, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError):
        call(_vector(k, **BAD[bad]))


@pytest.mark.parametrize("edge", EDGE)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_edge_probabilities_pass(entry, edge):
    call, k, strictly_positive = ENTRY_POINTS[entry]
    p = _vector(k, **EDGE[edge])
    if strictly_positive and edge == "negative":
        # clipped to an exact zero, which Gibbs weights may not be
        with pytest.raises(ValueError, match="positive"):
            call(p)
    else:
        call(p)


def test_clean_probs_along_last_axis():
    stack = np.array([[0.5, 0.5], [1.0 + 1e-11, -1e-15]])
    np.testing.assert_array_equal(entropy._clean_probs(stack), [[0.5, 0.5], [1.0 + 1e-11, 0.0]])
    with pytest.raises(ValueError):
        entropy._clean_probs([[0.5, 0.5], [0.5, 0.6]])
    assert tolerances.PROB_NEGATIVITY_TOL < 1e-13 < tolerances.NORMALIZATION_TOL
