"""Property: resume == uninterrupted, over random protocol interleavings.

A hypothesis state machine drives one session through random sequences of
``propose``, ``observe``, ``invalidate_proposal``, ``extend_pool`` (streaming
store), ``prefetch_proposal`` and checkpoint → ``resume``.  A reference
session replays only what committed — one ``step()`` per observed round, and
the same pool extensions — and after every committed round the two must
agree on the round records and the labeled ids.  At every round boundary
their RNG states must match too, and until the first resume their whole
round states (see the invariant for why a resume relaxes that).

Every part of the round state is live: a random prefilter draws from the
session RNG, FIRAL carries warm-start weights and a reused η, and the
labeled Fisher is accumulated incrementally.  The seed is an int, or a
caller-owned ``Generator(Philox)`` that the live session must keep updating
in place (and that a resumed session, built with the default ``PCG64``,
must rebuild from the checkpoint).
"""

from __future__ import annotations

import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.baselines.base import FIRALStrategy
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import ApproxFIRAL
from repro.engine import ActiveSession, SessionConfig, make_prefilter
from repro.engine.session import RoundState
from repro.engine.stores import StreamingPointStore

from test_engine_session import _assert_curves_identical, _small_problem

PROBLEM = _small_problem(seed=1, dimension=4, pool_per_class=8)
BUDGET = 2


def _config():
    return SessionConfig(
        store=StreamingPointStore.from_problem,
        prefilter=make_prefilter("random", 0.5),
        relax_warm_start=True,
        reuse_eta=True,
        incremental_fisher=True,
    )


def _strategy():
    return FIRALStrategy(
        ApproxFIRAL(
            RelaxConfig(max_iterations=3, seed=0, cg_max_iterations=20),
            RoundConfig(eta_grid=(0.5, 1.0)),
        )
    )


def _seed(kind):
    return 7 if kind == "int" else np.random.Generator(np.random.Philox(7))


def _session(seed):
    return ActiveSession(
        PROBLEM, _strategy(), budget_per_round=BUDGET, seed=seed, config=_config()
    )


class ResumeEqualsUninterrupted(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.executor = ThreadPoolExecutor(max_workers=1)
        self.tmp = tempfile.TemporaryDirectory()
        self.checkpoints = 0
        self.extensions = 0

    @initialize(seed_kind=st.sampled_from(["int", "philox"]))
    def start(self, seed_kind):
        self.caller_rng = _seed(seed_kind)
        self.session = _session(self.caller_rng)
        self.reference = _session(_seed(seed_kind))
        self.resumed = False

    def _at_boundary(self):
        return self.session.pending_proposal is None and not self.session.prefetch_pending

    # ------------------------------------------------------------------ #
    @precondition(
        lambda self: self.session.pending_proposal is None and self.session.pool_size >= BUDGET
    )
    @rule()
    def propose(self):
        self.session.propose()  # adopts an in-flight prefetch, if any

    @precondition(lambda self: self._at_boundary() and self.session.pool_size >= BUDGET)
    @rule()
    def prefetch(self):
        assert self.session.prefetch_proposal(self.executor)

    @precondition(lambda self: self.session.pending_proposal is not None)
    @rule()
    def observe(self):
        self.session.observe()
        self.reference.step()
        _assert_curves_identical(self.reference.result, self.session.result)
        np.testing.assert_array_equal(
            self.session.store.labeled_ids, self.reference.store.labeled_ids
        )

    @precondition(
        lambda self: self.session.pending_proposal is not None or self.session.prefetch_pending
    )
    @rule()
    def invalidate(self):
        self.session.invalidate_proposal()

    # Extensions and checkpoints are capped at one per committed round (plus
    # one), so the random walk keeps committing rounds.
    @precondition(
        lambda self: self.session.pending_proposal is None
        and self.extensions <= self.session.round_index
    )
    @rule(rows=st.integers(1, 4), data_seed=st.integers(0, 2**16))
    def extend(self, rows, data_seed):
        self.extensions += 1
        rng = np.random.default_rng(data_seed)
        features = 3.0 * rng.standard_normal((rows, PROBLEM.dimension))
        labels = rng.integers(0, PROBLEM.num_classes, size=rows)
        self.session.extend_pool(features, labels)
        self.reference.extend_pool(features, labels)

    @precondition(lambda self: self.checkpoints <= self.session.round_index)
    @rule()
    def checkpoint_and_resume(self):
        self.checkpoints += 1
        path = self.session.checkpoint(Path(self.tmp.name) / f"{self.checkpoints}.json")
        self.session = ActiveSession.resume(path, PROBLEM, _strategy(), config=_config())
        self.resumed = True

    # ------------------------------------------------------------------ #
    @invariant()
    def round_state_matches_at_boundaries(self):
        if not self._at_boundary():
            return
        assert self.session.round_index == self.reference.round_index
        live = RoundState.capture(self.session).to_json()
        reference = RoundState.capture(self.reference).to_json()
        assert live["rng_state"] == reference["rng_state"]
        if not self.resumed:
            # A resumed session refits its classifier without the warm-start
            # weights the uninterrupted one carried (the checkpoint holds no
            # classifier), so from the first round after a resume the
            # probabilities — and the frozen Fisher inputs and RELAX weights
            # built from them — may differ at the optimizer's tolerance.
            assert live == reference

    @invariant()
    def caller_generator_updated_in_place(self):
        if not self.resumed and isinstance(self.caller_rng, np.random.Generator):
            assert self.session.rng is self.caller_rng

    def teardown(self):
        self.executor.shutdown(wait=True)
        self.tmp.cleanup()


ResumeEqualsUninterrupted.TestCase.settings = settings(
    max_examples=20,
    stateful_step_count=25,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestResumeEqualsUninterrupted = ResumeEqualsUninterrupted.TestCase
