"""Active learning over a pool replenished between rounds.

The paper's protocol selects from one fixed pool, but production feeds are
streams: new unlabeled points arrive while the labeling loop runs.  Any
unsharded pool store can grow between rounds; this example uses the
default in-memory :class:`repro.engine.DensePointStore`:

* ``session.extend_pool(features, labels)`` appends a replenishment batch at
  a round boundary under fresh stable ids (the labels stay hidden until the
  oracle reveals them; malformed batches are rejected before they reach
  the pool);
* ids assigned earlier never move, so the recorded curve, the labeled
  history and FIRAL's cross-round state all remain valid — the RELAX warm
  start simply falls back to a cold start on the first round whose pool
  contains points the previous solve never weighted.

Strategies and solvers are untouched: FIRAL below runs exactly the code it
runs on a dense pool.

Run with:

    PYTHONPATH=src python examples/streaming_session.py
"""

from __future__ import annotations

import numpy as np

from repro import ApproxFIRAL, RelaxConfig, RoundConfig, build_problem
from repro.baselines import FIRALStrategy
from repro.engine import ActiveSession, SessionConfig


def main() -> None:
    problem = build_problem("cifar10", scale=0.05, seed=0)
    print(problem.summary())

    # Stand-in for the production feed: draws fresh points of the same
    # distribution each round (here, resampled from a bigger problem draw).
    feed = build_problem("cifar10", scale=0.05, seed=1)
    feed_cursor = 0

    strategy = FIRALStrategy(
        ApproxFIRAL(RelaxConfig(max_iterations=15, seed=0), RoundConfig(eta=1.0))
    )
    session = ActiveSession(
        problem,
        strategy,
        budget_per_round=10,
        seed=0,
        config=SessionConfig(reuse_eta=True),
    )
    session.record_initial()

    replenish_per_round = 25
    for round_index in range(4):
        if round_index > 0:
            # Round boundary: the feed delivered new unlabeled points.
            new_f = feed.pool_features[feed_cursor : feed_cursor + replenish_per_round]
            new_y = feed.pool_labels[feed_cursor : feed_cursor + replenish_per_round]
            feed_cursor += replenish_per_round
            new_ids = session.extend_pool(new_f, new_y)
            print(f"  replenished {new_ids.size} points (ids {new_ids[0]}..{new_ids[-1]})")
        record = session.step()
        picked = session.store.labeled_ids[-session.budget_per_round :]
        from_stream = int(np.sum(picked >= problem.initial_size + problem.pool_size))
        print(
            f"round {round_index + 1}: pool={session.pool_size:4d} "
            f"labels={record.num_labeled:3d} eval_acc={record.eval_accuracy:.4f} "
            f"({from_stream}/{session.budget_per_round} picks from the stream)"
        )

    print("\nfinal curve:")
    print(session.result.to_table())


if __name__ == "__main__":
    main()
