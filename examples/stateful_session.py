"""Drive an active-learning run through the stateful session engine.

Demonstrates what the ``repro.engine`` layer adds over the one-shot
``run_active_learning`` call:

* round-by-round control (``session.step()``) with per-round setup/selection
  timings,
* η reuse across rounds (``SessionConfig(reuse_eta=True)``: later rounds
  reuse the previous round's winning η; every round still runs Algorithm 2
  as written, with ``H_o`` under the current classifier and RELAX from the
  uniform point),
* checkpointing a long run to JSON and resuming the analysis offline.

Run with:

    PYTHONPATH=src python examples/stateful_session.py
"""

from __future__ import annotations

import pathlib
import tempfile

from repro import ApproxFIRAL, RelaxConfig, RoundConfig, build_problem
from repro.active.results import ExperimentResult
from repro.baselines import FIRALStrategy
from repro.engine import ActiveSession, SessionConfig


def main() -> None:
    problem = build_problem("cifar10", scale=0.05, seed=0)
    print(problem.summary())

    strategy = FIRALStrategy(
        ApproxFIRAL(RelaxConfig(max_iterations=15, seed=0), RoundConfig(eta=1.0))
    )
    session = ActiveSession(
        problem,
        strategy,
        budget_per_round=10,
        num_rounds=4,
        seed=0,
        config=SessionConfig(reuse_eta=True),
    )
    session.record_initial()

    for round_index in range(4):
        record = session.step()
        print(
            f"round {round_index + 1}: labels={record.num_labeled:4d} "
            f"eval_acc={record.eval_accuracy:.4f} "
            f"setup={record.setup_seconds * 1e3:7.1f}ms "
            f"select={record.selection_seconds * 1e3:7.1f}ms"
        )

    # Checkpoint the curve and reload it as an offline analysis would.
    checkpoint = pathlib.Path(tempfile.gettempdir()) / "firal_session_curve.json"
    session.result.save(checkpoint)
    restored = ExperimentResult.load(checkpoint)
    print(f"\ncheckpointed to {checkpoint} and reloaded:")
    print(restored.to_table())


if __name__ == "__main__":
    main()
