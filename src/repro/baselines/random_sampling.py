"""Random selection baseline.

The simplest batch active-learning method: sample ``b`` pool points uniformly
without replacement.  The paper reports its mean ± std over 10 trials and
shows it has high variance at small label counts and degrades under class
imbalance (Fig. 2(H), Fig. 3).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SelectionContext, SelectionStrategy

__all__ = ["RandomStrategy"]


class RandomStrategy(SelectionStrategy):
    """Uniformly random batch selection without replacement."""

    name = "random"
    is_stochastic = True

    def select(self, context: SelectionContext) -> np.ndarray:
        n = context.pool_features.shape[0]
        indices = context.rng.choice(n, size=context.budget, replace=False)
        return self._validate_selection(np.sort(indices), context)
