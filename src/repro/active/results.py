"""Result containers for active-learning experiments.

``ExperimentResult`` stores one accuracy curve (one strategy, one trial);
``AggregateResult`` summarizes several trials with mean ± std, which is how
the paper reports the stochastic baselines (Random and K-Means are averaged
over 10 trials in § IV-A).

Both containers round-trip through plain JSON-compatible dictionaries
(``to_dict``/``from_dict``) and files (``save``/``load``) so long multi-round
runs can be checkpointed and plotted offline.  ``from_dict`` refuses a
missing or mistyped key with a ``ValueError`` naming its path in the file
(e.g. ``records[0].pool_accuracy``).
"""

from __future__ import annotations

import numbers
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.utils.io import atomic_write_json, read_json
from repro.utils.validation import require

__all__ = ["RoundRecord", "ExperimentResult", "AggregateResult"]

_REQUIRED = object()
_KIND_NAMES = {numbers.Real: "a number", str: "a string", list: "a list"}


def _entry(data: Any, key: str, path: str, kind: type, default: Any = _REQUIRED) -> Any:
    """``data[key]``, refused with a ``ValueError`` naming ``path + key`` when
    it is missing (and has no ``default``) or not a ``kind`` (one of
    ``_KIND_NAMES``; a ``bool`` is never a number).  ``data`` itself must be
    an object (``path`` names it)."""

    require(
        isinstance(data, dict),
        f"malformed result: {path.rstrip('.') or 'the top level'} must be an object "
        f"(got {type(data).__name__})",
    )
    if key not in data:
        require(default is not _REQUIRED, f"malformed result: {path}{key} is missing")
        return default
    value = data[key]
    require(
        isinstance(value, kind) and not isinstance(value, bool),
        f"malformed result: {path}{key} must be {_KIND_NAMES[kind]} (got {type(value).__name__})",
    )
    return value


@dataclass
class RoundRecord:
    """Accuracy snapshot after retraining on a given number of labels.

    ``selection_seconds`` times the strategy's ``select`` call only;
    ``setup_seconds`` times the per-round work the driver performs *before*
    handing over — materializing the pool view and running ``predict_proba``
    over pool and labeled points, a real cost for FIRAL whose inputs are
    those probabilities.  The round's full selection-side wall clock is the
    sum of the two.
    """

    num_labeled: int
    pool_accuracy: float
    eval_accuracy: float
    balanced_eval_accuracy: float
    selection_seconds: float = 0.0
    setup_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_labeled": float(self.num_labeled),
            "pool_accuracy": self.pool_accuracy,
            "eval_accuracy": self.eval_accuracy,
            "balanced_eval_accuracy": self.balanced_eval_accuracy,
            "selection_seconds": self.selection_seconds,
            "setup_seconds": self.setup_seconds,
        }

    # ``as_dict`` predates the serialization API and is kept as an alias.
    to_dict = as_dict

    @classmethod
    def from_dict(cls, data: Dict[str, Any], *, path: str = "") -> "RoundRecord":
        """Inverse of :meth:`as_dict`; ``path`` prefixes the key an error names."""

        def number(key: str, default: Any = _REQUIRED) -> float:
            return float(_entry(data, key, path, numbers.Real, default))

        num_labeled = number("num_labeled")
        require(
            num_labeled.is_integer(),
            f"malformed result: {path}num_labeled must be a whole number (got {num_labeled!r})",
        )
        return cls(
            num_labeled=int(num_labeled),
            pool_accuracy=number("pool_accuracy"),
            eval_accuracy=number("eval_accuracy"),
            balanced_eval_accuracy=number("balanced_eval_accuracy"),
            selection_seconds=number("selection_seconds", 0.0),
            setup_seconds=number("setup_seconds", 0.0),
        )


@dataclass
class ExperimentResult:
    """One strategy's accuracy curve across active-learning rounds."""

    strategy_name: str
    dataset_name: str
    records: List[RoundRecord] = field(default_factory=list)

    def num_labeled(self) -> np.ndarray:
        return np.asarray([r.num_labeled for r in self.records], dtype=np.int64)

    def pool_accuracy(self) -> np.ndarray:
        return np.asarray([r.pool_accuracy for r in self.records], dtype=np.float64)

    def eval_accuracy(self) -> np.ndarray:
        return np.asarray([r.eval_accuracy for r in self.records], dtype=np.float64)

    def balanced_eval_accuracy(self) -> np.ndarray:
        return np.asarray([r.balanced_eval_accuracy for r in self.records], dtype=np.float64)

    def final_eval_accuracy(self) -> float:
        require(len(self.records) > 0, "experiment has no records")
        return self.records[-1].eval_accuracy

    def final_pool_accuracy(self) -> float:
        require(len(self.records) > 0, "experiment has no records")
        return self.records[-1].pool_accuracy

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""

        return {
            "strategy_name": self.strategy_name,
            "dataset_name": self.dataset_name,
            "records": [r.as_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any], *, path: str = "") -> "ExperimentResult":
        """Inverse of :meth:`to_dict`; ``path`` prefixes the key an error names."""

        return cls(
            strategy_name=_entry(data, "strategy_name", path, str),
            dataset_name=_entry(data, "dataset_name", path, str),
            records=[
                RoundRecord.from_dict(record, path=f"{path}records[{i}].")
                for i, record in enumerate(_entry(data, "records", path, list, []))
            ],
        )

    def save(self, path) -> pathlib.Path:
        """Write the result as JSON to ``path`` (checkpointing long runs).

        The write is atomic (temp file + ``os.replace``), so a crash
        mid-save cannot leave a truncated checkpoint behind.
        """

        return atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ExperimentResult":
        return cls.from_dict(read_json(path, description="experiment result"))

    def to_table(self) -> str:
        """Format the curve as an aligned text table (one row per round)."""

        lines = [f"# {self.strategy_name} on {self.dataset_name}"]
        lines.append(f"{'labels':>8} {'pool_acc':>10} {'eval_acc':>10} {'bal_acc':>10}")
        for r in self.records:
            lines.append(
                f"{r.num_labeled:>8d} {r.pool_accuracy:>10.4f} "
                f"{r.eval_accuracy:>10.4f} {r.balanced_eval_accuracy:>10.4f}"
            )
        return "\n".join(lines)


@dataclass
class AggregateResult:
    """Mean ± std of several trials of the same strategy on the same dataset."""

    strategy_name: str
    dataset_name: str
    trials: List[ExperimentResult] = field(default_factory=list)

    def __post_init__(self) -> None:
        require(len(self.trials) > 0, "at least one trial is required")
        lengths = {len(t.records) for t in self.trials}
        require(len(lengths) == 1, "all trials must have the same number of rounds")

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    def num_labeled(self) -> np.ndarray:
        return self.trials[0].num_labeled()

    def _stack(self, getter) -> np.ndarray:
        return np.stack([getter(t) for t in self.trials], axis=0)

    def mean_eval_accuracy(self) -> np.ndarray:
        return self._stack(ExperimentResult.eval_accuracy).mean(axis=0)

    def std_eval_accuracy(self) -> np.ndarray:
        stacked = self._stack(ExperimentResult.eval_accuracy)
        return stacked.std(axis=0, ddof=1) if self.num_trials > 1 else np.zeros(stacked.shape[1])

    def mean_pool_accuracy(self) -> np.ndarray:
        return self._stack(ExperimentResult.pool_accuracy).mean(axis=0)

    def std_pool_accuracy(self) -> np.ndarray:
        stacked = self._stack(ExperimentResult.pool_accuracy)
        return stacked.std(axis=0, ddof=1) if self.num_trials > 1 else np.zeros(stacked.shape[1])

    def mean_balanced_eval_accuracy(self) -> np.ndarray:
        return self._stack(ExperimentResult.balanced_eval_accuracy).mean(axis=0)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (inverse of :meth:`from_dict`)."""

        return {
            "strategy_name": self.strategy_name,
            "dataset_name": self.dataset_name,
            "trials": [t.to_dict() for t in self.trials],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AggregateResult":
        """Inverse of :meth:`to_dict`; an error names the bad key's path."""

        return cls(
            strategy_name=_entry(data, "strategy_name", "", str),
            dataset_name=_entry(data, "dataset_name", "", str),
            trials=[
                ExperimentResult.from_dict(trial, path=f"trials[{i}].")
                for i, trial in enumerate(_entry(data, "trials", "", list, []))
            ],
        )

    def save(self, path) -> pathlib.Path:
        """Write the aggregate (all trials) as JSON to ``path``, atomically."""

        return atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "AggregateResult":
        return cls.from_dict(read_json(path, description="aggregate result"))

    def to_table(self) -> str:
        """Aligned text table of mean ± std accuracy per label count."""

        labels = self.num_labeled()
        pool_mean, pool_std = self.mean_pool_accuracy(), self.std_pool_accuracy()
        eval_mean, eval_std = self.mean_eval_accuracy(), self.std_eval_accuracy()
        lines = [
            f"# {self.strategy_name} on {self.dataset_name} ({self.num_trials} trials)",
            f"{'labels':>8} {'pool_acc':>18} {'eval_acc':>18}",
        ]
        for i, num in enumerate(labels):
            lines.append(
                f"{int(num):>8d} {pool_mean[i]:>9.4f}±{pool_std[i]:<8.4f} "
                f"{eval_mean[i]:>9.4f}±{eval_std[i]:<8.4f}"
            )
        return "\n".join(lines)


def compare_final_accuracy(results: Sequence[AggregateResult]) -> str:
    """Small comparison table of final evaluation accuracy across strategies."""

    lines = [f"{'strategy':>16} {'final_eval_acc':>16}"]
    for result in results:
        final = float(result.mean_eval_accuracy()[-1])
        lines.append(f"{result.strategy_name:>16} {final:>16.4f}")
    return "\n".join(lines)
