"""The half-round protocol: ``propose()`` / ``observe()`` vs the monolithic ``step()``.

The serving-grade API redesign splits a round at the labeling boundary so a
service can hold a proposal open while a remote labeler works.  The pins:

* ``step()`` is now ``propose(); observe()`` — a session driven through the
  explicit halves produces curves and selections **bit-identical** to one
  driven by ``step()``, for every shipped strategy, serial and under
  ``parallel_ranks=2`` (Exact-FIRAL has no distributed formulation and is
  pinned serial-only);
* ``observe(labels=...)`` routes an external labeler's answers into the
  store's label master before membership flips — with the oracle's own
  answers it is bit-identical to ``observe()``;
* the protocol fails loudly on misuse (double propose, observe without a
  proposal, misaligned or out-of-range labels, ``extend_pool`` while a
  proposal is pending);
* ``invalidate_proposal()`` rolls the RNG stream and strategy state back to
  the pre-proposal boundary, so the replayed proposal is bit-identical —
  never a double draw, never a silent drop;
* a ``propose()`` that raises leaves the session at the round boundary, so
  a retry — synchronous or eager — selects what a clean session selects;
* a checkpoint written **mid-proposal** resumes at the boundary with the
  pending proposal surfaced via ``ActiveSession.invalidated_proposal``; the
  replayed round and everything after it match the uninterrupted run, and
  ``extend_pool`` after such a resume is legal (the replay then legitimately
  differs — that is the PR's resume/extend rule).
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.baselines.base import SelectionStrategy
from repro.baselines.entropy import EntropyStrategy
from repro.engine import (
    ActiveSession,
    DensePointStore,
    QueryProposal,
    SessionConfig,
    make_prefilter,
)
from repro.engine.stores import ShardedPointStore

from test_engine_session import (
    STRATEGY_FACTORIES,
    _assert_curves_identical,
    _small_problem,
)

#: Strategies with a distributed formulation (Exact-FIRAL rejects
#: ``parallel_ranks`` by contract — see ``FIRALStrategy.start``).
PARALLEL_STRATEGIES = sorted(set(STRATEGY_FACTORIES) - {"exact-firal"})


@pytest.fixture(scope="module")
def problem():
    return _small_problem(seed=0)


def _session(problem, name, *, seed=7, config=None, num_rounds=3):
    return ActiveSession(
        problem,
        STRATEGY_FACTORIES[name](),
        budget_per_round=4,
        num_rounds=num_rounds,
        seed=seed,
        config=config,
    )


def _parallel_config():
    return SessionConfig(store=ShardedPointStore.factory(num_shards=2), parallel_ranks=2)


def _drive_half_rounds(session, rounds):
    """Run ``rounds`` rounds through the explicit propose/observe halves."""

    for _ in range(rounds):
        proposal = session.propose()
        assert session.pending_proposal is proposal
        session.observe()
        assert session.pending_proposal is None
    return session.result


# --------------------------------------------------------------------- #
# the acceptance pin: propose()+observe() == step(), bit for bit
# --------------------------------------------------------------------- #
class TestStepEquivalence:
    @pytest.mark.parametrize("name", sorted(STRATEGY_FACTORIES))
    def test_serial_bit_identical(self, problem, name):
        stepped = _session(problem, name)
        for _ in range(3):
            stepped.step()

        halved = _session(problem, name)
        _drive_half_rounds(halved, 3)

        _assert_curves_identical(stepped.result, halved.result)
        np.testing.assert_array_equal(
            stepped.store.labeled_ids, halved.store.labeled_ids
        )

    @pytest.mark.parametrize("name", PARALLEL_STRATEGIES)
    def test_parallel_ranks_bit_identical(self, problem, name):
        stepped = _session(problem, name, config=_parallel_config())
        for _ in range(3):
            stepped.step()

        halved = _session(problem, name, config=_parallel_config())
        _drive_half_rounds(halved, 3)

        _assert_curves_identical(stepped.result, halved.result)
        np.testing.assert_array_equal(
            stepped.store.labeled_ids, halved.store.labeled_ids
        )

    def test_external_oracle_labels_bit_identical(self, problem):
        """observe(labels=oracle's answers) == observe() — the serving path."""

        internal = _session(problem, "entropy")
        for _ in range(3):
            internal.step()

        external = _session(problem, "entropy")
        for _ in range(3):
            proposal = external.propose()
            # Global ids of pool points are initial_size + original pool row.
            answers = problem.pool_labels[proposal.global_ids - problem.initial_size]
            external.observe(labels=answers)

        _assert_curves_identical(internal.result, external.result)
        np.testing.assert_array_equal(
            internal.store.labeled_ids, external.store.labeled_ids
        )


# --------------------------------------------------------------------- #
# the QueryProposal payload
# --------------------------------------------------------------------- #
class TestQueryProposal:
    def test_contents(self, problem):
        session = _session(problem, "random")
        proposal = session.propose()

        assert isinstance(proposal, QueryProposal)
        assert proposal.round_index == 0
        assert proposal.budget == 4
        assert proposal.num_labeled == problem.initial_size
        assert proposal.global_ids.shape == (4,)
        assert proposal.pool_indices.shape == (4,)
        # Proposed points are live pool members, not yet labeled.
        assert not np.any(np.isin(proposal.global_ids, session.store.labeled_ids))
        assert proposal.setup_seconds >= 0.0
        assert proposal.selection_seconds >= 0.0

    def test_frozen(self, problem):
        session = _session(problem, "random")
        proposal = session.propose()
        with pytest.raises(dataclasses.FrozenInstanceError):
            proposal.budget = 99


# --------------------------------------------------------------------- #
# protocol misuse fails loudly
# --------------------------------------------------------------------- #
class TestProtocolErrors:
    def test_double_propose(self, problem):
        session = _session(problem, "random")
        session.propose()
        with pytest.raises(ValueError, match="already pending"):
            session.propose()

    def test_observe_without_proposal(self, problem):
        session = _session(problem, "random")
        with pytest.raises(ValueError, match="no pending proposal"):
            session.observe()

    def test_misaligned_labels(self, problem):
        session = _session(problem, "random")
        session.propose()
        with pytest.raises(ValueError, match="3 labels for a proposal of 4"):
            session.observe(labels=[0, 1, 2])

    def test_out_of_range_labels(self, problem):
        session = _session(problem, "random")
        session.propose()
        with pytest.raises(ValueError, match="labels must lie in"):
            session.observe(labels=[0, 1, 2, problem.num_classes])

    @pytest.mark.parametrize(
        "labels",
        [
            [0.9, 0.9, 0.9, 0.9],
            [[0, 1], [2, 0]],
            ["3", "0", "1", "2"],
            [True, False, True, False],
        ],
        ids=["float", "2-d", "str", "bool"],
    )
    def test_malformed_labels_rejected_before_any_change(self, problem, labels):
        """A label array that is not 1-D integer classes fails by name; the
        proposal stays pending and a valid observe() matches a clean run."""

        clean = _session(problem, "random")
        clean.propose()
        answers = np.arange(4, dtype=np.int64) % problem.num_classes
        clean_record = clean.observe(labels=answers)

        session = _session(problem, "random")
        proposal = session.propose()
        with pytest.raises(ValueError, match="observe labels"):
            session.observe(labels=labels)
        assert session.pending_proposal is proposal
        record = session.observe(labels=answers)
        fields = ("num_labeled", "pool_accuracy", "eval_accuracy", "balanced_eval_accuracy")
        assert [getattr(record, f) for f in fields] == [getattr(clean_record, f) for f in fields]
        np.testing.assert_array_equal(session.store.labeled_ids, clean.store.labeled_ids)
        np.testing.assert_array_equal(
            session.store.labeled_labels_host(), clean.store.labeled_labels_host()
        )

    def test_extend_pool_while_pending(self, problem):
        session = ActiveSession(
            problem,
            STRATEGY_FACTORIES["random"](),
            budget_per_round=4,
            seed=7,
            config=SessionConfig(store=DensePointStore.from_problem),
        )
        session.propose()
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="proposal is pending"):
            session.extend_pool(
                rng.standard_normal((2, problem.dimension)),
                np.zeros(2, dtype=np.int64),
            )
        # After the round completes, the same extension is legal.
        session.observe()
        new_ids = session.extend_pool(
            rng.standard_normal((2, problem.dimension)), np.zeros(2, dtype=np.int64)
        )
        assert new_ids.shape == (2,)

    def test_invalidate_without_proposal(self, problem):
        session = _session(problem, "random")
        with pytest.raises(ValueError, match="no pending proposal"):
            session.invalidate_proposal()

    @pytest.mark.parametrize(
        "answer, match",
        [
            ([0, 1], "wrong number of indices"),
            ([0.7, 1.2, 2, 3], "integer"),
            ([0, 0, 1, 2], "duplicate"),
        ],
        ids=["short", "float", "duplicate"],
    )
    def test_bad_strategy_answer_refused_at_propose(self, problem, answer, match):
        """The session checks every strategy's answer, not only the ones that
        call ``_validate_selection``: a short answer is not committed as a
        smaller round, floats are not truncated, and duplicates never reach
        a proposal."""

        class Answers(SelectionStrategy):
            name = "fixed-answer"

            def select(self, context):
                return answer

        session = ActiveSession(problem, Answers(), budget_per_round=4, num_rounds=3, seed=7)
        with pytest.raises(ValueError, match=match) as raised:
            session.propose()
        assert "strategy 'fixed-answer'" in str(raised.value)
        assert session.pending_proposal is None


# --------------------------------------------------------------------- #
# invalidation rolls back to the round boundary
# --------------------------------------------------------------------- #
class TestInvalidateProposal:
    @pytest.mark.parametrize("name", ["random", "approx-firal"])
    def test_replay_is_bit_identical(self, problem, name):
        """Invalidating and re-proposing replays the exact same round.

        ``random`` exercises the RNG rollback (it draws from the session
        stream), ``approx-firal`` under ``reuse_eta`` the strategy-state
        rollback (η reuse must not see the discarded solve).  Rounds 0 and 1
        are both invalidated once: on round 0 the strategy holds no state,
        on round 1 the reused η.
        """

        config = SessionConfig(reuse_eta=True) if name == "approx-firal" else None
        reference = _session(problem, name, config=config)
        for _ in range(3):
            reference.step()

        interrupted = _session(problem, name, config=config)
        boundary_states = []
        for _ in range(2):
            before = interrupted.strategy.state_dict()
            first = interrupted.propose()
            discarded = interrupted.invalidate_proposal()
            assert discarded is first
            assert interrupted.pending_proposal is None
            assert interrupted.strategy.state_dict() == before
            boundary_states.append(before)

            replayed = interrupted.propose()
            np.testing.assert_array_equal(first.global_ids, replayed.global_ids)
            interrupted.observe()
        interrupted.step()

        if name == "approx-firal":
            assert boundary_states == [{}, {"previous_eta": 1.0}]
        _assert_curves_identical(reference.result, interrupted.result)
        np.testing.assert_array_equal(
            reference.store.labeled_ids, interrupted.store.labeled_ids
        )


class _FailingFirstSelect(EntropyStrategy):
    """Entropy selection whose first ``select`` raises — a transient fault."""

    def __init__(self, fail: bool = True):
        self.fail = fail

    def select(self, context):
        if self.fail:
            self.fail = False
            raise RuntimeError("transient selection failure")
        return super().select(context)


class TestFailedPropose:
    @pytest.mark.parametrize("mode", ["sync", "eager"])
    def test_retry_selects_what_a_clean_session_selects(self, problem, mode):
        """The random prefilter draws from the session RNG before the
        strategy fails; the failed ``propose()`` must give those draws back,
        or the retry filters (and selects) from a different candidate set."""

        def session(strategy):
            return ActiveSession(
                problem,
                strategy,
                budget_per_round=4,
                num_rounds=3,
                seed=7,
                config=SessionConfig(prefilter=make_prefilter("random", 0.5)),
            )

        clean = session(_FailingFirstSelect(fail=False))
        expected = clean.propose().global_ids

        failing = session(_FailingFirstSelect())
        if mode == "sync":
            with pytest.raises(RuntimeError, match="transient selection failure"):
                failing.propose()
            retried = failing.propose()
        else:
            with ThreadPoolExecutor(max_workers=1) as pool:
                assert failing.prefetch_proposal(pool)
                # The background job fails; the adopting propose() recomputes.
                retried = failing.propose()
            assert not failing.last_propose_prefetched
        np.testing.assert_array_equal(retried.global_ids, expected)


# --------------------------------------------------------------------- #
# mid-proposal checkpoint / resume: the service crash-recovery rule
# --------------------------------------------------------------------- #
class TestMidProposalCheckpoint:
    @pytest.mark.parametrize("name", ["random", "approx-firal"])
    def test_resume_invalidates_and_replays(self, problem, tmp_path, name):
        """A checkpoint written while a proposal is open restores to the
        pre-proposal boundary, surfaces the discarded proposal through
        ``invalidated_proposal``, and the replayed round (and everything
        after it) is bit-identical to the uninterrupted run."""

        factory = STRATEGY_FACTORIES[name]
        reference = _session(problem, name)
        for _ in range(3):
            reference.step()

        crashed = _session(problem, name)
        crashed.step()
        pending = crashed.propose()  # ...the labeler goes dark here
        ckpt = crashed.checkpoint(tmp_path / "mid.json")

        resumed = ActiveSession.resume(ckpt, problem, factory())
        assert resumed.pending_proposal is None
        surfaced = resumed.invalidated_proposal
        assert surfaced is not None
        assert surfaced["round_index"] == pending.round_index
        np.testing.assert_array_equal(surfaced["global_ids"], pending.global_ids)

        replayed = resumed.propose()
        np.testing.assert_array_equal(replayed.global_ids, pending.global_ids)
        resumed.observe()
        resumed.step()

        _assert_curves_identical(reference.result, resumed.result)
        np.testing.assert_array_equal(
            reference.store.labeled_ids, resumed.store.labeled_ids
        )

    def test_round_boundary_checkpoint_has_no_invalidation(self, problem, tmp_path):
        session = _session(problem, "random")
        session.step()
        ckpt = session.checkpoint(tmp_path / "boundary.json")
        resumed = ActiveSession.resume(ckpt, problem, STRATEGY_FACTORIES["random"]())
        assert resumed.invalidated_proposal is None

    def test_resume_then_extend_pool_is_legal(self, problem, tmp_path):
        """The resume/extend rule: after a mid-proposal restore the pending
        proposal is already invalidated, so growing the pool *before*
        re-proposing is legal — and the replay then legitimately differs."""

        make_config = lambda: SessionConfig(store=DensePointStore.from_problem)  # noqa: E731
        session = ActiveSession(
            problem,
            STRATEGY_FACTORIES["random"](),
            budget_per_round=4,
            seed=7,
            config=make_config(),
        )
        session.step()
        session.propose()
        ckpt = session.checkpoint(tmp_path / "mid.json")

        resumed = ActiveSession.resume(
            ckpt, problem, STRATEGY_FACTORIES["random"](), config=make_config()
        )
        assert resumed.invalidated_proposal is not None
        rng = np.random.default_rng(11)
        new_ids = resumed.extend_pool(
            rng.standard_normal((3, problem.dimension)), np.zeros(3, dtype=np.int64)
        )
        assert new_ids.shape == (3,)
        proposal = resumed.propose()  # replays over the *grown* pool
        assert proposal.round_index == 1
        resumed.observe()
