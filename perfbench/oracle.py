"""Correctness checks that do not use the program's own solvers.

Covariances are rebuilt from the raw data with plain numpy, the reference
spectrum comes from ``scipy.linalg.eigh``, and cluster accuracy from
``scipy.cluster.vq.kmeans2``. Each check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg
from scipy.cluster.vq import kmeans2

PENCIL_RESIDUAL_MAX = 1e-10
EIGEN_RTOL = 1e-8
TRANSFORM_RTOL = 1e-9
ACCURACY_MIN = 0.95


def covariance(values: np.ndarray, ridge: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(mean, X'X/m + ridge I) of a sample-by-feature array."""
    mean = values.mean(axis=0)
    x = values - mean
    cov = (x.T @ x) / x.shape[0]
    cov = 0.5 * (cov + cov.T)
    if ridge:
        cov[np.diag_indices_from(cov)] += ridge
    return mean, cov


def top_eigvals(a: np.ndarray, d: int, b: np.ndarray | None = None) -> np.ndarray:
    """Largest ``d`` eigenvalues of ``a`` (or of the pencil ``(a, b)``), descending."""
    dim = a.shape[0]
    vals = scipy.linalg.eigh(a, b, eigvals_only=True, subset_by_index=[dim - d, dim - 1])
    return vals[::-1]


def _rel_close(got, want, rtol, scale=None) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False
    scale = np.abs(want) if scale is None else scale
    return bool(np.all(np.abs(got - want) <= rtol * np.maximum(scale, np.finfo(float).tiny)))


def check_dpca(components, eigenvalues, a, b, reference) -> list[str]:
    """Pencil residual, Rayleigh ratios and the scipy spectrum for one dPCA model."""
    u = np.asarray(components, dtype=np.float64)
    lam = np.asarray(eigenvalues, dtype=np.float64)
    fails = []
    au, bu = a @ u, b @ u
    resid = np.linalg.norm(au - bu * lam, axis=0) / (np.linalg.norm(a) + lam * np.linalg.norm(b))
    if not np.all(resid <= PENCIL_RESIDUAL_MAX):
        fails.append(f"pencil residual {resid.max():.3e} > {PENCIL_RESIDUAL_MAX:g}")
    rayleigh = np.einsum("ij,ij->j", u, au) / np.einsum("ij,ij->j", u, bu)
    if not _rel_close(lam, rayleigh, EIGEN_RTOL):
        fails.append(f"eigenvalues {lam} differ from Rayleigh ratios {rayleigh}")
    if not _rel_close(lam, reference, EIGEN_RTOL):
        fails.append(f"eigenvalues {lam} differ from scipy pencil spectrum {reference}")
    return fails


def check_spectrum(eigenvalues, reference, what: str) -> list[str]:
    """Eigenvalues against a reference, relative to the reference's largest magnitude."""
    scale = float(np.max(np.abs(reference)))
    if _rel_close(eigenvalues, reference, EIGEN_RTOL, scale=scale):
        return []
    return [f"{what} eigenvalues {np.asarray(eigenvalues)} differ from scipy {reference}"]


def check_projection(coords, values, mean, components) -> list[str]:
    want = (values - mean) @ np.asarray(components, dtype=np.float64)
    scale = float(np.max(np.abs(want)))
    if _rel_close(coords, want, TRANSFORM_RTOL, scale=scale):
        return []
    return ["embedding differs from (X - mean) @ components"]


def kmeans_accuracy(points: np.ndarray, labels: np.ndarray, restarts: int = 5) -> float:
    """Best-permutation accuracy of seeded k-means++ (best of ``restarts`` by inertia)."""
    pts = np.asarray(points, dtype=np.float64)
    classes = np.unique(labels)
    k = classes.size
    rng = np.random.default_rng(0)
    best_inertia, best = np.inf, None
    for _ in range(restarts):
        centers, assigned = kmeans2(pts, k, minit="++", seed=rng)
        inertia = float(np.sum((pts - centers[assigned]) ** 2))
        if inertia < best_inertia:
            best_inertia, best = inertia, assigned
    return max(float(np.mean(classes[list(perm)][best] == labels))
               for perm in itertools.permutations(range(k)))


def check_accuracy(points, labels, what: str) -> list[str]:
    acc = kmeans_accuracy(points, labels)
    if acc >= ACCURACY_MIN:
        return []
    return [f"{what}: k-means accuracy {acc:.4f} < {ACCURACY_MIN}"]
