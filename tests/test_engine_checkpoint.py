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
* a format-1 checkpoint written by older code (committed under
  ``tests/data/``) still resumes bit-identically, today's writer emits the
  same layout, and a format-1 checkpoint written with a removed session
  mode on is refused with the mode's name.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.baselines import FIRALStrategy, RandomStrategy
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import ApproxFIRAL
from repro.engine.pool import DensePointStore
from repro.engine.prefilter import DiversityFilter, RandomSubsampleFilter, TopKScoreFilter
from repro.engine.session import ActiveSession, SessionConfig
from repro.engine.stores import ShardedPointStore
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

    def test_resume_replays_streamed_pool_growth(self, tmp_path):
        problem = _small_problem(seed=3)
        extra = np.random.default_rng(9)
        new_f = extra.standard_normal((6, problem.dimension))
        new_y = extra.integers(0, problem.num_classes, size=6)
        make_config = lambda: SessionConfig(store=DensePointStore.from_problem)  # noqa: E731
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


class _HookCountingRandom(RandomStrategy):
    """Random selection that counts the lifecycle hooks the session calls."""

    def __init__(self):
        self.hooks = 0

    def begin_session(self, info):
        self.hooks += 1

    def load_state_dict(self, state):
        self.hooks += 1


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

    def test_store_kind_mismatch_rejected(self, problem, tmp_path):
        ckpt = self._checkpoint(problem, tmp_path)
        with pytest.raises(ValueError, match="'dense' store.*'sharded' store"):
            ActiveSession.resume(
                ckpt,
                problem,
                STRATEGY_FACTORIES["random"](),
                config=SessionConfig(store=ShardedPointStore.factory(num_shards=2)),
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

    @pytest.mark.parametrize(
        "written, resumed",
        [
            (RandomSubsampleFilter(0.5), RandomSubsampleFilter(0.9)),
            (DiversityFilter(0.5), DiversityFilter(0.5, num_clusters=8)),
            (DiversityFilter(0.5), DiversityFilter(0.5, max_iterations=5)),
            (RandomSubsampleFilter(0.5), TopKScoreFilter(0.5)),
        ],
        ids=["keep_ratio", "num_clusters", "max_iterations", "kind"],
    )
    def test_prefilter_parameter_mismatch_rejected(self, problem, tmp_path, written, resumed):
        """Every filter parameter changes the candidate set, so the
        fingerprint holds them all, not only the kind."""

        ckpt = self._checkpoint(problem, tmp_path, prefilter=written)
        with pytest.raises(ValueError, match="prefilter"):
            ActiveSession.resume(
                ckpt,
                problem,
                STRATEGY_FACTORIES["random"](),
                config=SessionConfig(prefilter=resumed),
            )

    def test_prefiltered_resume_is_bit_identical(self, problem, tmp_path):
        factory = STRATEGY_FACTORIES["random"]
        make_config = lambda: SessionConfig(prefilter=DiversityFilter(0.5, num_clusters=4))  # noqa: E731
        full = _run_full(problem, factory, config=make_config())
        resumed = _run_resumed(problem, factory, tmp_path, config_factory=make_config)
        _assert_curves_identical(full.result, resumed.result)
        np.testing.assert_array_equal(full.store.labeled_ids, resumed.store.labeled_ids)

    @pytest.mark.parametrize(
        "path",
        [
            "store",
            "config",
            "rng_state",
            "budget_per_round",
            "planned_rounds",
            "round_index",
            "initial_recorded",
            "result",
            "rng_state.state",
            "store.kind",
            "store.labeled_ids",
        ],
    )
    def test_missing_section_rejected_before_any_hook(self, problem, tmp_path, path):
        """A checkpoint missing a section is a ``ValueError`` naming it, raised
        before the session (and so any strategy hook) exists."""

        ckpt = self._checkpoint(problem, tmp_path)
        payload = json.loads(ckpt.read_text())
        *parents, key = path.split(".")
        section = payload
        for parent in parents:
            section = section[parent]
        del section[key]
        ckpt.write_text(json.dumps(payload))
        strategy = _HookCountingRandom()
        with pytest.raises(ValueError, match=f"{path} is missing"):
            ActiveSession.resume(ckpt, problem, strategy)
        assert strategy.hooks == 0

    @pytest.mark.parametrize(
        "path, value",
        [
            ("store", []),
            ("config", None),
            ("budget_per_round", "4"),
            ("round_index", True),
            ("initial_recorded", 1),
            ("result", {"records": []}),
            ("rng_state.state", [1, 2]),
            ("rng_state", {"bit_generator": "PCG64", "state": {"state": 1}}),
            ("store.labeled_ids", [0, 1.5]),
            ("strategy", "random"),
            ("pending_proposal", {"round_index": 1, "num_labeled": 10}),
        ],
        ids=[
            "store-list",
            "config-null",
            "budget-str",
            "round-bool",
            "recorded-int",
            "result-no-name",
            "rng-state-list",
            "rng-state-incomplete",
            "labeled-float",
            "strategy-str",
            "pending-no-ids",
        ],
    )
    def test_mistyped_section_rejected_before_any_hook(self, problem, tmp_path, path, value):
        ckpt = self._checkpoint(problem, tmp_path)
        payload = json.loads(ckpt.read_text())
        *parents, key = path.split(".")
        section = payload
        for parent in parents:
            section = section[parent]
        section[key] = value
        ckpt.write_text(json.dumps(payload))
        strategy = _HookCountingRandom()
        with pytest.raises(ValueError, match=path):
            ActiveSession.resume(ckpt, problem, strategy)
        assert strategy.hooks == 0

    @pytest.mark.parametrize("name", ["seed", "Generator", "nope"])
    def test_corrupt_bit_generator_rejected_without_side_effect(self, problem, tmp_path, name):
        """The name is checked against NumPy's bit generators before anything
        is called: ``"seed"`` must not reseed NumPy's global RNG."""

        ckpt = self._checkpoint(problem, tmp_path)
        payload = json.loads(ckpt.read_text())
        payload["rng_state"]["bit_generator"] = name
        ckpt.write_text(json.dumps(payload))
        before = np.random.get_state(legacy=False)
        with pytest.raises(ValueError, match="rng_state.bit_generator"):
            ActiveSession.resume(ckpt, problem, STRATEGY_FACTORIES["random"]())
        after = np.random.get_state(legacy=False)
        np.testing.assert_array_equal(after["state"]["key"], before["state"]["key"])
        assert after["state"]["pos"] == before["state"]["pos"]


#: A format-1 checkpoint written by the code at commit 63a5cd8, never by
#: later code.  From the repository root:
#:
#:   git archive 63a5cd8 | tar -x -C old && cd old && PYTHONPATH=src:. python -c "
#:   from repro.engine.pool import DensePointStore
#:   from repro.engine.session import ActiveSession, SessionConfig
#:   from tests.test_engine_checkpoint import _drive_to_fixture_point, _fixture_strategy
#:   from tests.test_engine_session import _small_problem
#:   problem = _small_problem(seed=0)
#:   session = ActiveSession(problem, _fixture_strategy(), budget_per_round=4, num_rounds=5, seed=7,
#:                           config=SessionConfig(store=DensePointStore.from_problem, reuse_eta=True))
#:   _drive_to_fixture_point(session, problem)
#:   session.checkpoint('tests/data/checkpoint_v1_pending_eta.json')"
FIXTURE = pathlib.Path(__file__).parent / "data" / "checkpoint_v1_pending_eta.json"
#: A format-1 checkpoint written before ``RoundState`` with
#: ``incremental_fisher`` and ``relax_warm_start`` on; both modes are gone,
#: so resume must refuse it.
REMOVED_MODES_FIXTURE = pathlib.Path(__file__).parent / "data" / "checkpoint_v1_pending.json"


def _fixture_strategy():
    return FIRALStrategy(
        ApproxFIRAL(RelaxConfig(max_iterations=6, seed=0), RoundConfig(eta_grid=(0.5, 1.0, 2.0)))
    )


def _fixture_session(problem):
    """η reuse, a grown pool and an open proposal: every checkpoint section
    but the always-empty Fisher one is non-trivial."""

    return ActiveSession(
        problem,
        _fixture_strategy(),
        budget_per_round=4,
        num_rounds=5,
        seed=7,
        config=_fixture_config(),
    )


def _fixture_config():
    return SessionConfig(store=DensePointStore.from_problem, reuse_eta=True)


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


def _fixture_copy(tmp_path, edit):
    """A ``tmp_path`` copy of :data:`FIXTURE` with ``edit(payload)`` applied."""

    payload = json.loads(FIXTURE.read_text())
    edit(payload)
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(payload))
    return path


class TestCheckpointCompatibility:
    @pytest.mark.parametrize("kind", ["dense", "streaming"])
    def test_old_checkpoint_resumes_bit_identically(self, problem, tmp_path, kind):
        # Every round-state section but the always-empty Fisher one is
        # non-trivial in the fixture.
        payload = json.loads(FIXTURE.read_text())
        assert payload["format_version"] == ActiveSession.CHECKPOINT_FORMAT_VERSION == 1
        assert set(payload["strategy"]["state"]) == {"previous_eta"}
        assert len(payload["store"]["extension_labels"]) == 6
        assert payload["store"]["kind"] == "dense"
        assert payload["pending_proposal"]["round_index"] == 2
        # Format-1 checkpoints of a grown in-RAM pool may say "streaming";
        # resume reads that as the dense store that now holds such a pool.
        path = FIXTURE
        if kind == "streaming":
            path = _fixture_copy(tmp_path, lambda p: p["store"].update(kind="streaming"))

        reference = _fixture_session(problem)
        pending = _drive_to_fixture_point(reference, problem)
        reference.observe()
        reference.run(2, record_initial=False)

        resumed = ActiveSession.resume(path, problem, _fixture_strategy(), config=_fixture_config())
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

    def test_removed_modes_are_rejected(self, problem, tmp_path):
        with pytest.raises(ValueError, match="incremental_fisher"):
            ActiveSession.resume(
                REMOVED_MODES_FIXTURE, problem, _fixture_strategy(), config=_fixture_config()
            )
        for key, value in (("relax_warm_start", True), ("fisher_refresh_every", 2)):
            path = _fixture_copy(tmp_path, lambda p: p["config"].update({key: value}))
            with pytest.raises(ValueError, match=f"{key}={value!r}"):
                ActiveSession.resume(path, problem, _fixture_strategy(), config=_fixture_config())


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
