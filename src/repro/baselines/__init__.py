"""Baseline active-learning selection methods compared against in the paper.

§ IV-A compares Approx-FIRAL against (1) Random selection, (2) K-Means with
``k = b``, (3) Entropy (uncertainty) sampling and (4) Exact-FIRAL.  The first
three live here; the FIRAL variants live in :mod:`repro.core` and are adapted
to the common strategy interface by :class:`repro.baselines.FIRALStrategy`.
"""

from repro.baselines.base import (
    SelectionContext,
    SelectionStrategy,
    SessionInfo,
    LabelObservation,
    FIRALStrategy,
)
from repro.baselines.random_sampling import RandomStrategy
from repro.baselines.kmeans import KMeansStrategy, kmeans, kmeans_plus_plus_init
from repro.baselines.entropy import EntropyStrategy, predictive_entropy

__all__ = [
    "SelectionContext",
    "SelectionStrategy",
    "SessionInfo",
    "LabelObservation",
    "FIRALStrategy",
    "RandomStrategy",
    "KMeansStrategy",
    "kmeans",
    "kmeans_plus_plus_init",
    "EntropyStrategy",
    "predictive_entropy",
]
