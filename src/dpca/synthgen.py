"""Ground-truth factor-model generators for recovery and subgroup experiments.

Background samples follow a bilinear model: mean plus a shared low-rank
subspace driven by Gaussian coefficients plus isotropic noise. Target samples
live in the same shared subspace but carry an additional target-specific
subspace whose coefficients are offset per cluster, which is what the
discriminative methods are supposed to find.

Coefficient and noise distributions are Gaussian so every generator has a
closed-form population covariance to test against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datamodel import DataMatrix
from .errors import DimensionError, InvalidInputError, check_range

_BACKGROUND_STREAM = 0
_TARGET_STREAM = 1


@dataclass(frozen=True)
class FactorModelSpec:
    """Ground truth for synthetic generation.

    ``shared_basis`` (D x k) spans structure present in both datasets;
    ``specific_basis`` (D x d_s) spans structure present only in the target.
    The two blocks together must have orthonormal columns. Coefficient
    standard deviations are per-coordinate; ``background_coeff_std`` drives
    the background's shared coefficients, ``shared_coeff_std`` the target's.
    The means must be finite, and each std entry and ``noise_std`` must pass
    :func:`~dpca.errors.check_range` (a finite number >= 0, not a bool) as
    it was passed. The spec is the one place these values are converted: it
    stores the means and stds as float64 vectors and ``noise_std`` as a float.
    """

    shared_basis: np.ndarray
    specific_basis: np.ndarray
    target_mean: np.ndarray
    background_mean: np.ndarray
    background_coeff_std: np.ndarray
    shared_coeff_std: np.ndarray
    specific_coeff_std: np.ndarray
    noise_std: float
    seed: int = 0

    def __post_init__(self):
        shared = np.asarray(self.shared_basis, dtype=np.float64)
        specific = np.asarray(self.specific_basis, dtype=np.float64)
        if shared.ndim != 2 or specific.ndim != 2 or shared.shape[0] != specific.shape[0]:
            raise DimensionError("bases must be 2-D with a common feature dimension")
        dim = shared.shape[0]
        k = shared.shape[1]
        d_s = specific.shape[1]
        if k + d_s > dim:
            raise DimensionError(f"subspace dims {k}+{d_s} exceed feature dim {dim}")
        stacked = np.hstack([shared, specific])
        gram_err = np.linalg.norm(stacked.T @ stacked - np.eye(k + d_s))
        if not gram_err <= 1e-10:  # NaN fails it too
            raise InvalidInputError(
                f"stacked basis is not orthonormal (Gram error {gram_err:.2e})")
        for name, want in (("target_mean", dim), ("background_mean", dim),
                           ("background_coeff_std", k), ("shared_coeff_std", k),
                           ("specific_coeff_std", d_s)):
            vec = getattr(self, name)
            if "std" in name:  # each entry is checked as it was passed
                for i, std in enumerate(np.asarray(vec, dtype=object).ravel()):
                    check_range(f"{name}[{i}]", std)
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (want,):
                raise DimensionError(f"{name} must have length {want}, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"{name} must be finite")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "noise_std", float(check_range("noise_std", self.noise_std)))

    @property
    def n_features(self) -> int:
        return self.shared_basis.shape[0]

    @property
    def n_shared(self) -> int:
        return self.shared_basis.shape[1]

    @property
    def n_specific(self) -> int:
        return self.specific_basis.shape[1]

    def background_population_covariance(self) -> np.ndarray:
        """Closed-form covariance of the background generator."""
        b = np.asarray(self.shared_basis, dtype=np.float64)
        std2 = np.asarray(self.background_coeff_std, dtype=np.float64) ** 2
        return (b * std2) @ b.T + self.noise_std ** 2 * np.eye(self.n_features)


@dataclass(frozen=True)
class LabeledDataset:
    """A generated target/background pair together with its ground truth."""

    target: DataMatrix
    background: DataMatrix
    truth: FactorModelSpec


def random_spec(n_features: int, n_shared: int, n_specific: int,
                background_coeff_std, shared_coeff_std, specific_coeff_std,
                noise_std: float, seed: int = 0,
                target_mean: np.ndarray | None = None,
                background_mean: np.ndarray | None = None) -> FactorModelSpec:
    """Build a spec with random orthonormal bases.

    Bases come from the QR factorization of a seeded Gaussian matrix; scalar
    std arguments broadcast to the right lengths. Means default to zero.
    The stds, ``noise_std`` and the means reach :class:`FactorModelSpec` as
    passed, so its checks see the caller's values (a bool or a string std is
    rejected by name).
    """
    if n_shared < 0 or n_specific < 1 or n_shared + n_specific > n_features:
        raise DimensionError(
            f"invalid subspace sizes k={n_shared}, d_s={n_specific} for D={n_features}")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n_features, n_shared + n_specific)))
    q *= np.sign(np.diag(r))[None, :]

    def as_vec(x, length):
        return np.full(length, x) if np.ndim(x) == 0 else x  # keeps a bool a bool

    zeros = np.zeros(n_features)
    return FactorModelSpec(
        shared_basis=q[:, :n_shared],
        specific_basis=q[:, n_shared:],
        target_mean=zeros if target_mean is None else target_mean,
        background_mean=zeros if background_mean is None else background_mean,
        background_coeff_std=as_vec(background_coeff_std, n_shared),
        shared_coeff_std=as_vec(shared_coeff_std, n_shared),
        specific_coeff_std=as_vec(specific_coeff_std, n_specific),
        noise_std=noise_std,
        seed=int(seed),
    )


# the noise is drawn and added this many bytes of rows at a time
_NOISE_BLOCK_BYTES = 1 << 20


def _add_noise(rows: np.ndarray, rng: np.random.Generator, std: float) -> None:
    """``rows += std * rng.standard_normal(rows.shape)``, bit for bit, a block of rows at a time.

    The generator fills an array in C order, so drawing the rows block by
    block draws the numbers of one whole draw, and scaling and adding are
    elementwise; only one block of noise is held. Nothing is drawn unless
    ``std > 0``.
    """
    if not std > 0:
        return
    block = max(1, _NOISE_BLOCK_BYTES // (8 * rows.shape[1]))
    buf = np.empty((min(block, rows.shape[0]), rows.shape[1]))
    for lo in range(0, rows.shape[0], block):
        noise = buf[:rows.shape[0] - lo]
        rng.standard_normal(out=noise)
        noise *= std
        rows[lo:lo + block] += noise


def gen_background(spec: FactorModelSpec, n: int) -> DataMatrix:
    """Draw ``n`` background samples: mean + shared subspace + noise.

    The terms are summed in place into the first product, in the order
    ``mean + coeffs @ B.T + noise_std * noise``, so the samples equal that
    expression bit for bit; the result is adopted, not copied.
    """
    if n < 1:
        raise InvalidInputError(f"need n >= 1 samples, got {n}")
    rng = np.random.default_rng([spec.seed, _BACKGROUND_STREAM])
    coeffs = rng.standard_normal((n, spec.n_shared)) * spec.background_coeff_std
    rows = coeffs @ np.asarray(spec.shared_basis).T
    rows += spec.background_mean
    _add_noise(rows, rng, spec.noise_std)
    return DataMatrix._adopt(rows)


def gen_target(spec: FactorModelSpec, m: int,
               cluster_offsets: Sequence[Sequence[float]]) -> DataMatrix:
    """Draw ``m`` labeled target samples with per-cluster specific offsets.

    Rows are assigned to clusters round-robin, so counts are balanced within
    one. Each row is mean + shared coefficients + (cluster offset + jitter)
    along the specific basis + noise; the label records the cluster. As in
    :func:`gen_background`, the terms are summed in place in the order of
    that expression, so the samples equal it bit for bit.
    """
    offsets = np.asarray(cluster_offsets, dtype=np.float64)
    if offsets.ndim != 2 or offsets.shape[1] != spec.n_specific:
        raise DimensionError(
            f"cluster offsets must be (n_clusters, {spec.n_specific}), got {offsets.shape}")
    n_clusters = offsets.shape[0]
    if not 1 <= n_clusters <= m:
        raise InvalidInputError(f"need 1 <= n_clusters <= m, got {n_clusters} clusters, m={m}")
    rng = np.random.default_rng([spec.seed, _TARGET_STREAM])
    labels = np.arange(m, dtype=np.int64) % n_clusters
    shared = rng.standard_normal((m, spec.n_shared)) * spec.shared_coeff_std
    specific = offsets[labels] + rng.standard_normal((m, spec.n_specific)) * spec.specific_coeff_std
    rows = shared @ np.asarray(spec.shared_basis).T
    rows += spec.target_mean
    rows += specific @ np.asarray(spec.specific_basis).T
    _add_noise(rows, rng, spec.noise_std)
    return DataMatrix._adopt(rows, labels)


def gen_pair(spec: FactorModelSpec, m: int, n: int,
             cluster_offsets: Sequence[Sequence[float]]) -> LabeledDataset:
    """Generate a matched target/background pair from one spec."""
    return LabeledDataset(target=gen_target(spec, m, cluster_offsets),
                          background=gen_background(spec, n),
                          truth=spec)


def spread_offsets(n_clusters: int, n_specific: int, scale: float) -> np.ndarray:
    """Evenly spaced cluster offsets along the first specific axis.

    Two clusters land at -scale and +scale; a single cluster sits at the
    origin.
    """
    if n_clusters < 1:
        raise InvalidInputError("need at least one cluster")
    check_range("scale", scale, -np.inf)
    offsets = np.zeros((n_clusters, n_specific))
    if n_clusters > 1:
        offsets[:, 0] = scale * (2.0 * np.arange(n_clusters) / (n_clusters - 1) - 1.0)
    return offsets


# The stock background coefficient std, as a multiple of the target's shared std.
BACKGROUND_STD_RATIO = 1.5


def default_shared_std(n_shared: int) -> np.ndarray:
    """The stock target shared-coefficient stds: a ramp from 10 down to 8 (10 alone for one)."""
    return np.linspace(10.0, 8.0, n_shared)


def default_subgroup_spec(n_features: int = 100, n_shared: int = 3,
                          n_specific: int = 1, seed: int = 0) -> FactorModelSpec:
    """The stock subgroup-discovery configuration used by the CLI and tests.

    Shared variance dominates the cluster separation (so plain PCA latches
    onto it), and the background expresses the shared directions more
    strongly than the target (so the specific direction wins every variance
    ratio). Cluster offsets are supplied separately, typically
    ``spread_offsets(2, n_specific, 6.0)``.
    """
    shared_std = default_shared_std(n_shared)
    return random_spec(
        n_features, n_shared, n_specific,
        background_coeff_std=BACKGROUND_STD_RATIO * shared_std,
        shared_coeff_std=shared_std,
        specific_coeff_std=1.0,
        noise_std=1.0,
        seed=seed,
    )
