"""Crash-safe checkpoint/resume and rank-failure recovery for ActiveSession.

The acceptance pins of the fault-tolerance layer:

* a session checkpointed mid-run and resumed in a fresh process continues
  **bit-identically** to the uninterrupted run, for every shipped strategy
  (curves and labeled ids both);
* a ``parallel_ranks=2`` session that loses a rank mid-round under
  ``on_rank_failure="repartition_retry"`` selects the same points as a clean
  serial session, on both transports;
* corrupt or truncated checkpoints fail loudly instead of resuming from
  garbage;
* a checkpoint written by the pre-``RoundState`` writer (committed under
  ``tests/data/``) still resumes bit-identically, and today's writer emits
  the same layout.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.baselines import FIRALStrategy
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import ApproxFIRAL
from repro.engine.session import ActiveSession, SessionConfig
from repro.engine.stores import StreamingPointStore
from repro.parallel import FaultPlan
from repro.parallel.comm import CommError
from tests.test_engine_session import (
    STRATEGY_FACTORIES,
    _assert_curves_identical,
    _small_problem,
)


@pytest.fixture(scope="module")
def problem():
    return _small_problem(seed=0)


def _run_full(problem, factory, *, rounds=4, config=None):
    session = ActiveSession(
        problem, factory(), budget_per_round=4, num_rounds=rounds, seed=7, config=config
    )
    session.run()
    return session


def _run_resumed(problem, factory, tmp_path, *, rounds=4, split=2, config_factory=None):
    """Run ``split`` rounds, checkpoint, resume in a fresh session, finish."""

    make_config = config_factory or (lambda: None)
    first = ActiveSession(
        problem,
        factory(),
        budget_per_round=4,
        num_rounds=rounds,
        seed=7,
        config=make_config(),
    )
    first.run(split)
    ckpt = first.checkpoint(tmp_path / "session.json")
    resumed = ActiveSession.resume(ckpt, problem, factory(), config=make_config())
    resumed.run(rounds - split, record_initial=False)
    return resumed


class TestCheckpointResume:
    @pytest.mark.parametrize("name", sorted(STRATEGY_FACTORIES))
    def test_resume_is_bit_identical_for_every_strategy(self, problem, tmp_path, name):
        factory = STRATEGY_FACTORIES[name]
        full = _run_full(problem, factory)
        resumed = _run_resumed(problem, factory, tmp_path)
        _assert_curves_identical(full.result, resumed.result)
        np.testing.assert_array_equal(full.store.labeled_ids, resumed.store.labeled_ids)

    def test_resume_with_incremental_fisher(self, problem, tmp_path):
        factory = STRATEGY_FACTORIES["approx-firal"]
        make_config = lambda: SessionConfig(incremental_fisher=True, reuse_eta=True)  # noqa: E731
        full = _run_full(problem, factory, config=make_config())
        resumed = _run_resumed(problem, factory, tmp_path, config_factory=make_config)
        _assert_curves_identical(full.result, resumed.result)
        np.testing.assert_array_equal(full.store.labeled_ids, resumed.store.labeled_ids)

    def test_resume_replays_streamed_pool_growth(self, tmp_path):
        problem = _small_problem(seed=3)
        extra = np.random.default_rng(9)
        new_f = extra.standard_normal((6, problem.dimension))
        new_y = extra.integers(0, problem.num_classes, size=6)
        make_config = lambda: SessionConfig(store=StreamingPointStore.from_problem)  # noqa: E731
        factory = STRATEGY_FACTORIES["entropy"]

        full = ActiveSession(
            problem, factory(), budget_per_round=4, num_rounds=4, seed=7, config=make_config()
        )
        full.run(2)
        full.extend_pool(new_f, new_y)
        full.run(2, record_initial=False)

        first = ActiveSession(
            problem, factory(), budget_per_round=4, num_rounds=4, seed=7, config=make_config()
        )
        first.run(2)
        first.extend_pool(new_f, new_y)
        ckpt = first.checkpoint(tmp_path / "session.json")
        resumed = ActiveSession.resume(ckpt, problem, factory(), config=make_config())
        assert resumed.store.total_points == full.store.total_points
        resumed.run(2, record_initial=False)
        _assert_curves_identical(full.result, resumed.result)
        np.testing.assert_array_equal(full.store.labeled_ids, resumed.store.labeled_ids)

    def test_run_writes_checkpoints_on_cadence(self, problem, tmp_path):
        path = tmp_path / "auto.json"
        factory = STRATEGY_FACTORIES["random"]
        session = ActiveSession(
            problem,
            factory(),
            budget_per_round=4,
            num_rounds=4,
            seed=7,
            config=SessionConfig(checkpoint_every=2, checkpoint_path=path),
        )
        session.run()
        resumed = ActiveSession.resume(
            path, problem, factory(), config=SessionConfig(checkpoint_every=2, checkpoint_path=path)
        )
        # The last cadence hit was after round 4 == the finished run.
        assert resumed.round_index == 4
        _assert_curves_identical(session.result, resumed.result)

    def test_checkpoint_needs_a_target(self, problem):
        session = ActiveSession(
            problem, STRATEGY_FACTORIES["random"](), budget_per_round=4, seed=7
        )
        with pytest.raises(ValueError, match="checkpoint target"):
            session.checkpoint()

    def test_cadence_requires_path(self, problem):
        with pytest.raises(ValueError, match="checkpoint_path"):
            ActiveSession(
                problem,
                STRATEGY_FACTORIES["random"](),
                budget_per_round=4,
                seed=7,
                config=SessionConfig(checkpoint_every=2),
            )


class TestCheckpointValidation:
    def _checkpoint(self, problem, tmp_path, **config_kwargs):
        session = ActiveSession(
            problem,
            STRATEGY_FACTORIES["random"](),
            budget_per_round=4,
            num_rounds=4,
            seed=7,
            config=SessionConfig(**config_kwargs) if config_kwargs else None,
        )
        session.run(1)
        return session.checkpoint(tmp_path / "session.json")

    def test_truncated_checkpoint_fails_loudly(self, problem, tmp_path):
        ckpt = self._checkpoint(problem, tmp_path)
        ckpt.write_text(ckpt.read_text()[:40])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            ActiveSession.resume(ckpt, problem, STRATEGY_FACTORIES["random"]())

    def test_config_mismatch_rejected(self, problem, tmp_path):
        ckpt = self._checkpoint(problem, tmp_path)
        with pytest.raises(ValueError, match="reuse_eta"):
            ActiveSession.resume(
                ckpt,
                problem,
                STRATEGY_FACTORIES["random"](),
                config=SessionConfig(reuse_eta=True),
            )

    def test_strategy_mismatch_rejected(self, problem, tmp_path):
        ckpt = self._checkpoint(problem, tmp_path)
        with pytest.raises(ValueError, match="strategy"):
            ActiveSession.resume(ckpt, problem, STRATEGY_FACTORIES["entropy"]())

    def test_unsupported_format_version_rejected(self, problem, tmp_path):
        import json

        ckpt = self._checkpoint(problem, tmp_path)
        payload = json.loads(ckpt.read_text())
        payload["format_version"] = 999
        ckpt.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            ActiveSession.resume(ckpt, problem, STRATEGY_FACTORIES["random"]())


#: Written by the checkpoint code as it stood before ``RoundState``
#: (format version 1) with :func:`_drive_to_fixture_point`, then
#: ``session.checkpoint(FIXTURE)``.
FIXTURE = pathlib.Path(__file__).parent / "data" / "checkpoint_v1_pending.json"


def _fixture_strategy():
    return FIRALStrategy(
        ApproxFIRAL(RelaxConfig(max_iterations=6, seed=0), RoundConfig(eta_grid=(0.5, 1.0, 2.0)))
    )


def _fixture_session(problem):
    """Warm start, η reuse, incremental Fisher and a streaming store: every
    checkpoint section is non-trivial."""

    return ActiveSession(
        problem,
        _fixture_strategy(),
        budget_per_round=4,
        num_rounds=5,
        seed=7,
        config=_fixture_config(),
    )


def _fixture_config():
    return SessionConfig(
        store=StreamingPointStore.from_problem,
        incremental_fisher=True,
        relax_warm_start=True,
        reuse_eta=True,
    )


def _drive_to_fixture_point(session, problem):
    """Two rounds, a pool extension, then a proposal left open."""

    session.run(2)
    extra = np.random.default_rng(11)
    session.extend_pool(
        extra.standard_normal((6, problem.dimension)),
        extra.integers(0, problem.num_classes, size=6),
    )
    return session.propose()


def _layout(value):
    """The key structure of a JSON payload, with leaves reduced to their type."""

    if isinstance(value, dict):
        return {key: _layout(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_layout(value[0])] if value else []
    return type(value).__name__


class TestCheckpointCompatibility:
    def test_old_checkpoint_resumes_bit_identically(self, problem):
        # Every section the round state writes is non-trivial in the fixture.
        payload = json.loads(FIXTURE.read_text())
        assert payload["format_version"] == ActiveSession.CHECKPOINT_FORMAT_VERSION == 1
        assert {"previous_ids", "previous_weights", "previous_eta"} <= set(
            payload["strategy"]["state"]
        )
        assert payload["fisher"]["accumulator"]["num_points"] > 0
        assert len(payload["store"]["extension_labels"]) == 6
        assert payload["pending_proposal"]["round_index"] == 2

        reference = _fixture_session(problem)
        pending = _drive_to_fixture_point(reference, problem)
        reference.observe()
        reference.run(2, record_initial=False)

        resumed = ActiveSession.resume(
            FIXTURE, problem, _fixture_strategy(), config=_fixture_config()
        )
        np.testing.assert_array_equal(
            resumed.invalidated_proposal["global_ids"], pending.global_ids
        )
        replayed = resumed.propose()
        np.testing.assert_array_equal(replayed.global_ids, pending.global_ids)
        resumed.observe()
        resumed.run(2, record_initial=False)

        _assert_curves_identical(reference.result, resumed.result)
        np.testing.assert_array_equal(reference.store.labeled_ids, resumed.store.labeled_ids)

    def test_writer_keeps_the_layout(self, problem):
        session = _fixture_session(problem)
        _drive_to_fixture_point(session, problem)
        written = json.loads(json.dumps(session.checkpoint_payload()))
        assert _layout(written) == _layout(json.loads(FIXTURE.read_text()))


def _parallel_firal():
    # track_objective="none" matches the fixed-iteration schedule of the
    # distributed RELAX solver, so serial and recovered runs are comparable.
    return FIRALStrategy(
        ApproxFIRAL(
            RelaxConfig(max_iterations=6, seed=0, track_objective="none"),
            RoundConfig(eta=1.0),
        )
    )


class TestRankFailureRecovery:
    """A killed rank under repartition_retry re-runs the round deterministically."""

    def _serial(self, problem, rounds=3):
        session = ActiveSession(
            problem, _parallel_firal(), budget_per_round=4, num_rounds=rounds, seed=7
        )
        session.run()
        return session

    def _faulty(self, problem, transport, rounds=3):
        # The plan pins the *last* rank: after recovery retires it, the
        # re-run's smaller communicator makes the plan inert.
        plan = FaultPlan(rank=1, at_call=2, mode="kill", collective="allreduce")
        strategy = _parallel_firal()
        session = ActiveSession(
            problem,
            strategy,
            budget_per_round=4,
            num_rounds=rounds,
            seed=7,
            config=SessionConfig(
                parallel_ranks=2,
                parallel_transport=transport,
                on_rank_failure="repartition_retry",
                fault_plan=plan,
            ),
        )
        session.run()
        return session, strategy

    def test_recovery_matches_serial_simulated(self, problem):
        serial = self._serial(problem)
        faulty, strategy = self._faulty(problem, "simulated")
        _assert_curves_identical(serial.result, faulty.result)
        np.testing.assert_array_equal(serial.store.labeled_ids, faulty.store.labeled_ids)
        assert len(strategy.recovery_events) == 1
        event = strategy.recovery_events[0]
        assert event["failed_rank"] == 1
        assert event["collective"] == "allreduce"
        assert event["retry_ranks"] == 1

    def test_abort_policy_propagates(self, problem):
        plan = FaultPlan(rank=1, at_call=2, mode="kill", collective="allreduce")
        session = ActiveSession(
            problem,
            _parallel_firal(),
            budget_per_round=4,
            num_rounds=3,
            seed=7,
            config=SessionConfig(parallel_ranks=2, fault_plan=plan),
        )
        with pytest.raises(CommError) as excinfo:
            session.run()
        assert excinfo.value.rank == 1
        assert excinfo.value.collective == "allreduce"

    def test_fault_plan_requires_parallel_ranks(self, problem):
        with pytest.raises(ValueError, match="parallel_ranks"):
            ActiveSession(
                problem,
                _parallel_firal(),
                budget_per_round=4,
                seed=7,
                config=SessionConfig(fault_plan=FaultPlan(rank=0)),
            )

    def test_invalid_policy_rejected(self, problem):
        with pytest.raises(ValueError, match="on_rank_failure"):
            ActiveSession(
                problem,
                _parallel_firal(),
                budget_per_round=4,
                seed=7,
                config=SessionConfig(on_rank_failure="shrug"),
            )

    @pytest.mark.chaos
    @pytest.mark.multiprocess
    def test_recovery_matches_serial_shared_memory(self, problem):
        serial = self._serial(problem, rounds=2)
        faulty, strategy = self._faulty(problem, "shared_memory", rounds=2)
        _assert_curves_identical(serial.result, faulty.result)
        np.testing.assert_array_equal(serial.store.labeled_ids, faulty.store.labeled_ids)
        assert len(strategy.recovery_events) == 1
        assert strategy.recovery_events[0]["failed_rank"] == 1
