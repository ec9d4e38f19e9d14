"""K-Means selection baseline (with a from-scratch Lloyd's implementation).

The paper's second baseline clusters the pool into ``k = b`` clusters and
labels the point closest to each centroid.  scikit-learn is unavailable in
this environment, so Lloyd's algorithm with k-means++ seeding is implemented
here directly; it doubles as a reusable clustering utility for the synthetic
dataset generators and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.base import SelectionContext, SelectionStrategy
from repro.utils.random import as_generator
from repro.utils.validation import check_features, check_positive_int, require

__all__ = ["kmeans_plus_plus_init", "kmeans", "KMeansResult", "KMeansStrategy"]


def _pairwise_sq_distances(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of ``X`` and rows of ``C``."""

    x_sq = np.einsum("nd,nd->n", X, X)[:, None]
    c_sq = np.einsum("kd,kd->k", C, C)[None, :]
    cross = X @ C.T
    return np.maximum(x_sq + c_sq - 2.0 * cross, 0.0)


def kmeans_plus_plus_init(X: np.ndarray, k: int, rng=None) -> np.ndarray:
    """k-means++ seeding: return ``k`` initial centroids drawn from ``X``."""

    X = check_features(X)
    require(1 <= k <= X.shape[0], "k must be between 1 and the number of points")
    gen = as_generator(rng)
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    first = int(gen.integers(0, n))
    centroids[0] = X[first]
    closest_sq = _pairwise_sq_distances(X.astype(np.float64), centroids[:1])[:, 0]
    for j in range(1, k):
        total = float(closest_sq.sum())
        if total <= 0.0:
            # All points coincide with existing centroids: fall back to uniform.
            idx = int(gen.integers(0, n))
        else:
            probs = closest_sq / total
            idx = int(gen.choice(n, p=probs))
        centroids[j] = X[idx]
        new_d = _pairwise_sq_distances(X.astype(np.float64), centroids[j : j + 1])[:, 0]
        closest_sq = np.minimum(closest_sq, new_d)
    return centroids


@dataclass
class KMeansResult:
    """Outcome of a k-means run."""

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int
    converged: bool


def kmeans(
    X: np.ndarray,
    k: int,
    *,
    rng=None,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    initial_centroids: Optional[np.ndarray] = None,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ initialization.

    Parameters
    ----------
    X:
        Points, shape ``(n, d)``.
    k:
        Number of clusters (``k = b`` in the active-learning baseline).
    rng:
        Seed / generator (used for initialization and empty-cluster repair).
    max_iterations:
        Lloyd iteration cap.
    tolerance:
        Convergence threshold on the relative decrease of inertia.
    initial_centroids:
        Optional explicit initialization (overrides k-means++).
    """

    X = check_features(X).astype(np.float64)
    k = check_positive_int(k, "k")
    max_iterations = check_positive_int(max_iterations, "max_iterations")
    require(k <= X.shape[0], "k must be between 1 and the number of points")
    gen = as_generator(rng)
    if initial_centroids is not None:
        centroids = np.asarray(initial_centroids, dtype=np.float64).copy()
        require(centroids.shape == (k, X.shape[1]), "initial_centroids must have shape (k, d)")
    else:
        centroids = kmeans_plus_plus_init(X, k, rng=gen)

    labels = np.zeros(X.shape[0], dtype=np.int64)
    previous_inertia = np.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        distances = _pairwise_sq_distances(X, centroids)
        labels = np.argmin(distances, axis=1)
        inertia = float(distances[np.arange(X.shape[0]), labels].sum())

        # Update step; re-seed empty clusters from the farthest points.
        for j in range(k):
            members = labels == j
            if members.any():
                centroids[j] = X[members].mean(axis=0)
            else:
                farthest = int(np.argmax(distances[np.arange(X.shape[0]), labels]))
                centroids[j] = X[farthest]

        if previous_inertia - inertia <= tolerance * max(previous_inertia, 1e-30):
            converged = True
            previous_inertia = inertia
            break
        previous_inertia = inertia

    distances = _pairwise_sq_distances(X, centroids)
    labels = np.argmin(distances, axis=1)
    inertia = float(distances[np.arange(X.shape[0]), labels].sum())
    return KMeansResult(
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        iterations=iterations,
        converged=converged,
    )


class KMeansStrategy(SelectionStrategy):
    """Cluster the pool into ``b`` clusters and pick each cluster's medoid-like
    representative (the pool point nearest to the centroid)."""

    name = "kmeans"
    is_stochastic = True

    def __init__(self, max_iterations: int = 100):
        self.max_iterations = check_positive_int(max_iterations, "KMeansStrategy.max_iterations")

    def select(self, context: SelectionContext) -> np.ndarray:
        X = context.pool_features.astype(np.float64)
        result = kmeans(X, context.budget, rng=context.rng, max_iterations=self.max_iterations)
        distances = _pairwise_sq_distances(X, result.centroids)
        selected: list = []
        taken = np.zeros(X.shape[0], dtype=bool)
        for j in range(context.budget):
            order = np.argsort(distances[:, j], kind="stable")
            # Closest not-yet-taken point to centroid j, so indices stay unique.
            for idx in order:
                if not taken[idx]:
                    selected.append(int(idx))
                    taken[idx] = True
                    break
        return self._validate_selection(np.asarray(selected, dtype=np.int64), context)
