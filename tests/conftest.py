import csv

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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# The leaf pencil solvers. generalized_eig and the reduced dPCA solve each
# validate their inputs and call exactly one of them: floored whitening,
# the dense Cholesky solve, or the reduced solve straight from the QR factor.
PENCIL_SOLVERS = ("_floored_whitening_eig", "_cholesky_eig", "_whitened_span_eig")


@pytest.fixture
def pencil_solves(monkeypatch):
    """A list that gains the name of the leaf of every real ``PENCIL_SOLVERS`` call."""
    calls = []
    for name in PENCIL_SOLVERS:
        real = getattr(eigencore, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(eigencore, name, counted)
    return calls
