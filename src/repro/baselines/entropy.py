"""Entropy (uncertainty) selection baseline.

Selects the ``b`` pool points with the highest predictive entropy under the
current classifier — equivalently, following the paper's phrasing, the points
that minimize ``sum_c p(y=c|x) log p(y=c|x)``.  The paper finds this
uncertainty-only heuristic performs worst when very few labels are available
(Fig. 2), because early classifiers are too poorly calibrated for their
uncertainty to be informative.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SelectionContext, SelectionStrategy
from repro.utils.validation import check_probabilities

__all__ = ["EntropyStrategy", "predictive_entropy"]


def predictive_entropy(probabilities: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of a probability matrix (nats)."""

    probs = check_probabilities(probabilities)
    clipped = np.clip(probs.astype(np.float64), 1e-30, 1.0)
    return -np.einsum("nc,nc->n", clipped, np.log(clipped))


class EntropyStrategy(SelectionStrategy):
    """Top-``b`` predictive-entropy selection."""

    name = "entropy"
    is_stochastic = False

    def select(self, context: SelectionContext) -> np.ndarray:
        entropy = predictive_entropy(context.pool_probabilities)
        order = np.argsort(-entropy, kind="stable")[: context.budget]
        return self._validate_selection(order, context)
