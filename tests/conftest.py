import csv
import dataclasses

import numpy as np
import pytest
from hypothesis import settings

from dpca import eigencore

# Property tests draw the same examples on every run, so a failure always
# reproduces; each test keeps its own max_examples.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))[None, :]


def random_spd(rng, dim, eig_lo=0.1, eig_hi=10.0):
    """Well-conditioned random SPD matrix with log-uniform spectrum."""
    q = random_orthogonal(rng, dim)
    eigs = np.exp(rng.uniform(np.log(eig_lo), np.log(eig_hi), size=dim))
    return (q * eigs) @ q.T


def reference_table(values, labels, header):
    """The table as text, one ``format(v, '.17g')`` per cell."""
    lines = [",".join(header)]
    for i, row in enumerate(values):
        cells = [format(float(v), ".17g") for v in row]
        if labels is not None:
            cells.append(str(int(labels[i])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reference_read(path):
    """The data rows at ``path`` with each cell parsed by ``csv`` and ``float()``.

    The first row is skipped when fewer than half of its cells are numbers,
    as ``fileio.read_csv`` skips a header. Returns every column, a label
    column included, as float64.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]

    def number(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    if 2 * sum(map(number, rows[0])) < len(rows[0]):
        rows = rows[1:]
    return np.array([[float(cell) for cell in row] for row in rows])


def assert_same_model(one, two):
    """Two fitted models agree in every field, their arrays bit for bit."""
    for field in dataclasses.fields(one):
        a, b = getattr(one, field.name), getattr(two, field.name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# The routes of the pencil solve: each names the leaf solver that stamps it
# on its pairs. generalized_eig and the reduced dPCA solve each validate their
# inputs and call exactly one leaf: floored whitening, the dense Cholesky
# solve, or the reduced solve straight from the QR factor. A fitted model
# reports its route in model.diagnostics; this fixture is for tests that
# count the leaf calls themselves.
_LEAVES = {"floored_whitening": "_floored_whitening_eig", "cholesky": "_cholesky_eig",
           "whitened_span": "_whitened_span_eig"}
PENCIL_SOLVERS = tuple(_LEAVES)


@pytest.fixture
def pencil_solves(monkeypatch):
    """A list that gains the route name of every real leaf pencil solve."""
    calls = []
    for route, name in _LEAVES.items():
        real = getattr(eigencore, name)

        def counted(*args, real=real, route=route, **kwargs):
            calls.append(route)
            return real(*args, **kwargs)

        monkeypatch.setattr(eigencore, name, counted)
    return calls
