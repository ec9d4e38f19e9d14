"""Eager proposal pipelining: ``prefetch_proposal()`` == ``propose()``, bit for bit.

The pipelining contract (PR 10):

* an **adopted** prefetch is bit-identical to the synchronous computation —
  curves and labeled ids match a ``step()``-driven session for every shipped
  strategy, serial and under ``parallel_ranks=2``;
* an **unclaimed** prefetch is protocol-invisible: ``pending_proposal``
  stays ``None`` and ``observe()`` still demands a surfaced proposal;
* every state change that could make the speculative proposal stale cancels
  it — ``extend_pool`` rolls it back and recomputes over the grown pool,
  ``invalidate_proposal`` claims and discards it, ``checkpoint`` quiesces it
  and records the boundary-plus-marker a mid-proposal crash snapshot gets,
  so a resume surfaces it invalidated, never silently dropped.  These races
  are pinned with a gate strategy that holds the background job mid-select;
* a prefetch that **fails** in the background re-raises deterministically
  from the adopting ``propose()``, leaving the session at the boundary;
* exhaustion guards: no prefetch past the planned round count or a pool
  smaller than the per-round budget.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.baselines.base import SelectionStrategy
from repro.engine import ActiveSession, DensePointStore, SessionConfig

from test_engine_propose_observe import PARALLEL_STRATEGIES, _parallel_config
from test_engine_session import (
    STRATEGY_FACTORIES,
    _assert_curves_identical,
    _small_problem,
)


@pytest.fixture(scope="module")
def problem():
    return _small_problem(seed=0)


def _session(problem, name, *, seed=7, config=None, num_rounds=3, strategy=None):
    return ActiveSession(
        problem,
        strategy if strategy is not None else STRATEGY_FACTORIES[name](),
        budget_per_round=4,
        num_rounds=num_rounds,
        seed=seed,
        config=config,
    )


def _drive_prefetched(session, rounds, executor):
    """Run ``rounds`` rounds adopting an eager prefetch wherever one fits."""

    session.prefetch_proposal(executor)  # pipeline the very first round too
    for _ in range(rounds):
        session.propose()
        session.observe()
        session.prefetch_proposal(executor)
    return session.result


class _GateStrategy(SelectionStrategy):
    """Delegate whose ``select`` parks on an event — holds a prefetch in flight.

    ``started`` fires once the background job is inside ``select``;
    ``release`` lets it finish.  Only the *first* select blocks, so the
    recompute after a cancellation runs at full speed.
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.started = threading.Event()
        self.release = threading.Event()
        self._gated = True

    def begin_session(self, info):
        self.inner.begin_session(info)

    def select(self, context):
        if self._gated:
            self._gated = False
            self.started.set()
            assert self.release.wait(timeout=30), "gate never released"
        return self.inner.select(context)

    def observe_labels(self, observation):
        self.inner.observe_labels(observation)

    def state_dict(self):
        return self.inner.state_dict()

    def load_state_dict(self, state):
        self.inner.load_state_dict(state)


# --------------------------------------------------------------------- #
# the acceptance pin: adopted prefetch == synchronous propose, bit for bit
# --------------------------------------------------------------------- #
class TestPrefetchBitIdentity:
    @pytest.mark.parametrize("name", sorted(STRATEGY_FACTORIES))
    def test_serial_bit_identical(self, problem, name):
        stepped = _session(problem, name)
        for _ in range(3):
            stepped.step()

        eager = _session(problem, name)
        with ThreadPoolExecutor(max_workers=1) as pool:
            _drive_prefetched(eager, 3, pool)

        _assert_curves_identical(stepped.result, eager.result)
        np.testing.assert_array_equal(stepped.store.labeled_ids, eager.store.labeled_ids)
        assert eager.prefetch_stats["scheduled"] == 3
        assert eager.prefetch_stats["adopted"] == 3
        assert eager.prefetch_stats["discarded"] == 0

    @pytest.mark.parametrize("name", PARALLEL_STRATEGIES)
    def test_parallel_ranks_bit_identical(self, problem, name):
        stepped = _session(problem, name, config=_parallel_config())
        for _ in range(3):
            stepped.step()

        eager = _session(problem, name, config=_parallel_config())
        with ThreadPoolExecutor(max_workers=1) as pool:
            _drive_prefetched(eager, 3, pool)

        _assert_curves_identical(stepped.result, eager.result)
        np.testing.assert_array_equal(stepped.store.labeled_ids, eager.store.labeled_ids)

    @pytest.mark.multiprocess
    def test_shared_memory_parallel_bit_identical(self, problem):
        config = lambda: SessionConfig(  # noqa: E731
            parallel_ranks=2, parallel_transport="shared_memory"
        )
        stepped = _session(problem, "approx-firal", config=config())
        for _ in range(3):
            stepped.step()

        eager = _session(problem, "approx-firal", config=config())
        with ThreadPoolExecutor(max_workers=1) as pool:
            _drive_prefetched(eager, 3, pool)

        _assert_curves_identical(stepped.result, eager.result)
        np.testing.assert_array_equal(stepped.store.labeled_ids, eager.store.labeled_ids)


# --------------------------------------------------------------------- #
# protocol visibility and guards
# --------------------------------------------------------------------- #
class TestPrefetchProtocol:
    def test_unclaimed_prefetch_is_invisible(self, problem):
        session = _session(problem, "random")
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert session.prefetch_proposal(pool) is True
            assert session.prefetch_pending is True
            assert session.pending_proposal is None
            with pytest.raises(ValueError, match="no pending proposal"):
                session.observe()
            proposal = session.propose()  # adoption surfaces it
            assert session.prefetch_pending is False
            assert session.pending_proposal is proposal
            assert session.last_propose_prefetched is True

    def test_double_prefetch_rejected(self, problem):
        session = _session(problem, "random")
        with ThreadPoolExecutor(max_workers=1) as pool:
            session.prefetch_proposal(pool)
            with pytest.raises(ValueError, match="already in flight"):
                session.prefetch_proposal(pool)

    def test_prefetch_with_open_proposal_rejected(self, problem):
        session = _session(problem, "random")
        session.propose()
        with ThreadPoolExecutor(max_workers=1) as pool:
            with pytest.raises(ValueError, match="already pending"):
                session.prefetch_proposal(pool)

    def test_exhaustion_guards_decline(self, problem):
        session = _session(problem, "random", num_rounds=1)
        session.step()
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert session.prefetch_proposal(pool) is False  # planned rounds done
        assert session.prefetch_stats["scheduled"] == 0

    def test_background_failure_reraises_on_adoption(self, problem):
        switch = {"fail": True}

        class _Failing(SelectionStrategy):
            name = "failing"

            def select(self, context):
                if switch["fail"]:
                    raise RuntimeError("transient solver-side failure")
                order = np.argsort(context.pool_probabilities.max(axis=1))
                return order[: context.budget]

        session = _session(problem, "random", strategy=_Failing(), num_rounds=2)
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert session.prefetch_proposal(pool) is True
            # The background job failed and rolled back; the adopting propose
            # recomputes synchronously and re-raises the same error.
            with pytest.raises(RuntimeError, match="transient solver-side failure"):
                session.propose()
            # The session survived at the boundary: once the fault clears,
            # the round proceeds normally.
            switch["fail"] = False
            session.propose()
            session.observe()
            assert session.round_index == 1


# --------------------------------------------------------------------- #
# the races: cancel-and-recompute while the prefetch is in flight
# --------------------------------------------------------------------- #
def _in_flight(problem, name, *, config=None):
    """A session with a gated prefetch parked mid-select, plus its gate."""

    gate = _GateStrategy(STRATEGY_FACTORIES[name]())
    session = _session(problem, name, strategy=gate, config=config)
    return session, gate


@pytest.mark.parametrize(
    "config_factory",
    [lambda: None, _parallel_config],
    ids=["serial", "parallel_ranks=2"],
)
class TestPrefetchRaces:
    def test_invalidate_during_in_flight_prefetch(self, problem, config_factory):
        # invalidate_proposal restores the boundary bit-exactly, so the
        # reference is simply the uninterrupted run.
        reference = _session(problem, "approx-firal", config=config_factory())
        for _ in range(3):
            reference.step()

        session, gate = _in_flight(problem, "approx-firal", config=config_factory())
        with ThreadPoolExecutor(max_workers=2) as pool:
            session.prefetch_proposal(pool)
            assert gate.started.wait(timeout=30)
            gate.release.set()
            discarded = session.invalidate_proposal()  # claims the in-flight job
            assert discarded is not None
            assert session.prefetch_pending is False
            for _ in range(3):
                session.step()

        _assert_curves_identical(reference.result, session.result)
        np.testing.assert_array_equal(
            reference.store.labeled_ids, session.store.labeled_ids
        )

    def test_extend_pool_during_in_flight_prefetch(self, problem, config_factory):
        base = config_factory()
        if base is not None:
            pytest.skip("a sharded store cannot grow")
        rng = np.random.default_rng(3)
        new_f = rng.standard_normal((6, problem.dimension))
        new_y = rng.integers(0, problem.num_classes, size=6)

        config = lambda: SessionConfig(store=DensePointStore.from_problem)  # noqa: E731
        reference = _session(problem, "approx-firal", config=config())
        reference.extend_pool(new_f, new_y)
        for _ in range(3):
            reference.step()

        session, gate = _in_flight(problem, "approx-firal", config=config())
        with ThreadPoolExecutor(max_workers=2) as pool:
            session.prefetch_proposal(pool)
            assert gate.started.wait(timeout=30)
            gate.release.set()
            session.extend_pool(new_f, new_y)  # cancels + rolls back first
            assert session.prefetch_stats["discarded"] == 1
            assert session.pending_proposal is None
            for _ in range(3):
                session.step()

        # The recomputed rounds saw the grown pool — identical to a session
        # that never speculated; the stale pre-extend proposal was never served.
        _assert_curves_identical(reference.result, session.result)
        np.testing.assert_array_equal(
            reference.store.labeled_ids, session.store.labeled_ids
        )

    def test_checkpoint_during_in_flight_prefetch(self, problem, config_factory, tmp_path):
        """A snapshot taken while the eager job runs records the boundary plus
        the ``pending_proposal`` marker; resume surfaces it invalidated."""

        reference = _session(problem, "approx-firal", config=config_factory())
        for _ in range(3):
            reference.step()

        session, gate = _in_flight(problem, "approx-firal", config=config_factory())
        path = tmp_path / "inflight.json"
        with ThreadPoolExecutor(max_workers=2) as pool:
            session.prefetch_proposal(pool)
            assert gate.started.wait(timeout=30)
            gate.release.set()
            session.checkpoint(path)  # quiesces the job, writes the marker

        resumed = ActiveSession.resume(
            path,
            problem,
            STRATEGY_FACTORIES["approx-firal"](),
            config=config_factory(),
        )
        surfaced = resumed.invalidated_proposal
        assert surfaced is not None and surfaced["round_index"] == 0
        for _ in range(3):
            resumed.step()

        _assert_curves_identical(reference.result, resumed.result)
        np.testing.assert_array_equal(
            reference.store.labeled_ids, resumed.store.labeled_ids
        )
