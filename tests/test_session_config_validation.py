"""``SessionConfig.validate()``: every rejection, one place, field-named errors.

The API-redesign consolidation: checks that used to be scattered across
``ActiveSession.__init__`` / store building / strategy start now live in a
single ``validate()`` called at session construction — and callable
standalone, so a serving layer can vet a config at admission time before
any session state exists.  One test per rejection, each matching the
offending field's name in the message.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines.base import SelectionContext, SessionInfo
from repro.core.config import RelaxConfig, RoundConfig
from repro.engine import ActiveSession, SessionConfig
from repro.engine.session import VALID_TRANSPORTS

from test_engine_session import STRATEGY_FACTORIES, _small_problem


def _reject(config: SessionConfig, match: str):
    with pytest.raises(ValueError, match=match):
        config.validate()


class TestFieldRejections:
    def test_parallel_ranks_must_be_positive(self):
        _reject(
            SessionConfig(parallel_ranks=0),
            r"SessionConfig\.parallel_ranks must be positive \(got 0\)",
        )

    def test_parallel_transport_must_be_known(self):
        assert VALID_TRANSPORTS == ("simulated", "shared_memory")
        _reject(
            SessionConfig(parallel_ranks=2, parallel_transport="mpi"),
            r"SessionConfig\.parallel_transport must be one of",
        )

    def test_transport_only_checked_with_ranks(self):
        # A bogus transport is inert without parallel_ranks — it is "only
        # read when parallel_ranks is set" (the field's documented contract).
        SessionConfig(parallel_transport="mpi").validate()

    def test_prefilter_must_implement_protocol(self):
        _reject(
            SessionConfig(prefilter=object()),
            r"SessionConfig\.prefilter must implement",
        )

    def test_on_rank_failure_must_be_known_policy(self):
        _reject(
            SessionConfig(on_rank_failure="retry"),
            r"SessionConfig\.on_rank_failure must be 'abort' or 'repartition_retry'",
        )

    def test_fault_plan_requires_parallel_ranks(self):
        _reject(
            SessionConfig(fault_plan=object()),
            r"SessionConfig\.fault_plan requires parallel_ranks",
        )

    def test_checkpoint_every_must_be_positive(self):
        _reject(
            SessionConfig(checkpoint_every=0, checkpoint_path="x.json"),
            r"SessionConfig\.checkpoint_every must be positive",
        )

    def test_checkpoint_every_requires_path(self):
        _reject(
            SessionConfig(checkpoint_every=2),
            r"SessionConfig\.checkpoint_every requires checkpoint_path",
        )


#: Values a count argument must reject rather than truncate or coerce.
NOT_COUNTS = pytest.mark.parametrize("value", [1.5, True, "2"], ids=["float", "bool", "str"])


class TestCountArguments:
    @NOT_COUNTS
    @pytest.mark.parametrize("field", ["parallel_ranks", "checkpoint_every"])
    def test_config_counts_must_be_integers(self, field, value):
        _reject(
            SessionConfig(**{field: value}, checkpoint_path="x.json"),
            rf"SessionConfig\.{field} must be an integer",
        )

    @NOT_COUNTS
    @pytest.mark.parametrize("field", ["budget_per_round", "num_rounds"])
    def test_session_counts_must_be_integers(self, field, value):
        counts = {"budget_per_round": 2, "num_rounds": 2, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ActiveSession(_small_problem(seed=0), STRATEGY_FACTORIES["random"](), **counts)

    @NOT_COUNTS
    def test_run_count_must_be_integer(self, value):
        session = ActiveSession(
            _small_problem(seed=0), STRATEGY_FACTORIES["random"](), budget_per_round=2
        )
        with pytest.raises(ValueError, match="num_rounds must be an integer"):
            session.run(value)
        # Rejected before anything ran: not even the initial record was taken.
        assert session.result.records == [] and session.round_index == 0

    def test_numpy_integers_accepted(self):
        SessionConfig(
            parallel_ranks=np.int64(2), checkpoint_every=np.int32(1), checkpoint_path="x.json"
        ).validate()
        session = ActiveSession(
            _small_problem(seed=0),
            STRATEGY_FACTORIES["random"](),
            budget_per_round=np.int64(2),
            num_rounds=np.int32(2),
        )
        assert (session.budget_per_round, session.planned_rounds) == (2, 2)
        assert type(session.budget_per_round) is int and type(session.planned_rounds) is int


class TestValidationWiring:
    def test_validate_returns_self(self):
        config = SessionConfig()
        assert config.validate() is config

    def test_session_construction_validates(self):
        problem = _small_problem(seed=0)
        with pytest.raises(ValueError, match=r"SessionConfig\.parallel_ranks"):
            ActiveSession(
                problem,
                STRATEGY_FACTORIES["random"](),
                budget_per_round=4,
                config=SessionConfig(parallel_ranks=-1),
            )

    def test_default_config_is_valid(self):
        SessionConfig().validate()
        SessionConfig(reuse_eta=True).validate()


class TestOptionSurface:
    """The session's option surface, pinned field by field, so that adding or
    dropping an option is a visible change to this test."""

    def test_session_config_fields(self):
        assert [f.name for f in dataclasses.fields(SessionConfig)] == [
            "reuse_eta",
            "parallel_ranks",
            "parallel_transport",
            "store",
            "prefilter",
            "on_rank_failure",
            "fault_plan",
            "checkpoint_every",
            "checkpoint_path",
        ]

    def test_selection_context_fields(self):
        assert [f.name for f in dataclasses.fields(SelectionContext)] == [
            "pool_features",
            "pool_probabilities",
            "labeled_features",
            "labeled_probabilities",
            "budget",
            "rng",
            "pool_ids",
            "round_index",
            "shard_offsets",
            "candidate_ids",
        ]

    def test_session_info_fields(self):
        """Only what a strategy reads: shapes and the budget come with each
        round's context."""

        assert [f.name for f in dataclasses.fields(SessionInfo)] == [
            "reuse_eta",
            "parallel_ranks",
            "parallel_transport",
            "on_rank_failure",
            "fault_plan",
        ]

    def test_solver_configs_carry_no_regularization(self):
        """RELAX and ROUND share one Tikhonov constant for Sigma."""

        assert "regularization" not in {f.name for f in dataclasses.fields(RelaxConfig)}
        assert "regularization" not in {f.name for f in dataclasses.fields(RoundConfig)}
