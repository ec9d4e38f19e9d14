"""Serving-layer eager proposal pipelining (``pipeline="eager"``).

What must hold for the pipeline to be safe behind traffic:

* **eager changes nothing** — a session served with ``pipeline="eager"``
  produces curves bit-identical to sync serving and to a direct session,
  for every shipped strategy, serial and under ``parallel_ranks=2`` (both
  parallel transports), and over the HTTP front;
* **policy plumbing** — the mode resolves per open > per spec > per
  service, is surfaced in the info payload, and rejects unknown values;
* **checkpoint interaction** — round-policy checkpoints under eager mode
  are captured *before* the prefetch is scheduled, so they carry the same
  marker-free boundary sync mode writes; a close with an eager proposal in
  flight checkpoints it as a ``pending_proposal`` marker, and
  ``restore_on_open`` surfaces it invalidated — never silently dropped;
* **slow disks stall nobody** (PR 10 satellite) — checkpoint file writes
  run on a dedicated I/O executor, so an artificially slow store path
  never extends ``observe()`` latency or another tenant's requests;
* **concurrent tenants** — two same-process eager Approx-FIRAL sessions
  racing through one worker pool each match their direct runs.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.engine import ActiveSession, SessionConfig
from repro.serve import ServeConfig, SessionManager, SessionSpec

from test_engine_propose_observe import PARALLEL_STRATEGIES, _parallel_config
from test_engine_session import (
    STRATEGY_FACTORIES,
    _assert_curves_identical,
    _small_problem,
)
from test_serve import _http_request, HttpFrontend


@pytest.fixture(scope="module")
def problem():
    return _small_problem(seed=0)


def _spec(problem, name="random", *, seed=7, rounds=3, config=None, pipeline=None):
    return SessionSpec(
        problem=problem,
        strategy_factory=STRATEGY_FACTORIES[name],
        budget_per_round=4,
        num_rounds=rounds,
        seed=seed,
        config=config,
        pipeline=pipeline,
    )


def _direct_run(problem, name="random", *, seed=7, rounds=3, config=None):
    session = ActiveSession(
        problem,
        STRATEGY_FACTORIES[name](),
        budget_per_round=4,
        num_rounds=rounds,
        seed=seed,
        config=config,
    )
    for _ in range(rounds):
        session.step()
    return session


async def _serve_rounds(manager, session_id, rounds):
    for _ in range(rounds):
        await manager.propose(session_id)
        await manager.observe(session_id)


def _eager_run(problem, name, *, config_factory=lambda: None, rounds=3):
    async def serve():
        manager = SessionManager(ServeConfig(max_workers=2, pipeline="eager"))
        try:
            info = await manager.open_session(
                "t", _spec(problem, name, config=config_factory())
            )
            assert info["pipeline"] == "eager"
            await _serve_rounds(manager, "t", rounds)
            session = manager._slots["t"].session
            return (
                session.result,
                session.store.labeled_ids.copy(),
                dict(manager.stats),
            )
        finally:
            await manager.aclose(checkpoint=False)

    return asyncio.run(serve())


# --------------------------------------------------------------------- #
# the acceptance pin: eager served == direct, bit for bit
# --------------------------------------------------------------------- #
class TestEagerServedEquivalence:
    @pytest.mark.parametrize("name", sorted(STRATEGY_FACTORIES))
    def test_serial_bit_identical(self, problem, name):
        direct = _direct_run(problem, name)
        result, labeled_ids, stats = _eager_run(problem, name)
        _assert_curves_identical(direct.result, result)
        np.testing.assert_array_equal(direct.store.labeled_ids, labeled_ids)
        # Every propose adopted a prefetch: the pipeline actually engaged.
        assert stats["eager_hits"] == 3
        assert stats["eager_scheduled"] == 3

    @pytest.mark.parametrize("name", PARALLEL_STRATEGIES)
    def test_parallel_ranks_bit_identical(self, problem, name):
        direct = _direct_run(problem, name, config=_parallel_config())
        result, labeled_ids, stats = _eager_run(
            problem, name, config_factory=_parallel_config
        )
        _assert_curves_identical(direct.result, result)
        np.testing.assert_array_equal(direct.store.labeled_ids, labeled_ids)
        assert stats["eager_hits"] == 3

    @pytest.mark.multiprocess
    def test_shared_memory_transport_bit_identical(self, problem):
        config = lambda: SessionConfig(  # noqa: E731
            parallel_ranks=2, parallel_transport="shared_memory"
        )
        direct = _direct_run(problem, "approx-firal", config=config())
        result, labeled_ids, stats = _eager_run(
            problem, "approx-firal", config_factory=config
        )
        _assert_curves_identical(direct.result, result)
        np.testing.assert_array_equal(direct.store.labeled_ids, labeled_ids)
        assert stats["eager_hits"] == 3

    def test_http_front_eager_bit_identical(self, problem):
        direct = _direct_run(problem, "random", seed=7, rounds=2)

        async def serve():
            manager = SessionManager()
            front = HttpFrontend(manager, specs={"demo": _spec(problem, seed=7)})
            host, port = await front.start()
            try:
                status, info = await _http_request(
                    host, port, "POST", "/sessions/t/open",
                    {"spec": "demo", "pipeline": "eager"},
                )
                assert (status, info["pipeline"]) == (200, "eager")
                selected = []
                for _ in range(2):
                    status, proposal = await _http_request(
                        host, port, "POST", "/sessions/t/propose", {}
                    )
                    assert status == 200
                    selected.extend(proposal["global_ids"])
                    status, _ = await _http_request(
                        host, port, "POST", "/sessions/t/observe", {}
                    )
                    assert status == 200
                assert manager.stats["eager_hits"] == 2
                return selected
            finally:
                await front.stop()
                await manager.aclose(checkpoint=False)

        selected = asyncio.run(serve())
        np.testing.assert_array_equal(
            np.asarray(selected), direct.store.labeled_ids[problem.initial_size:]
        )


# --------------------------------------------------------------------- #
# policy plumbing
# --------------------------------------------------------------------- #
class TestPipelinePolicy:
    def test_resolution_order_and_info(self, problem):
        async def serve():
            manager = SessionManager(ServeConfig(pipeline="sync"))
            try:
                info = await manager.open_session("a", _spec(problem))
                assert info["pipeline"] == "sync"
                info = await manager.open_session(
                    "b", _spec(problem, pipeline="eager")
                )
                assert info["pipeline"] == "eager"  # spec beats service default
                info = await manager.open_session(
                    "c", _spec(problem, pipeline="eager"), pipeline="sync"
                )
                assert info["pipeline"] == "sync"  # open beats spec
            finally:
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())

    def test_invalid_pipeline_rejected(self, problem):
        with pytest.raises(ValueError, match=r"ServeConfig\.pipeline"):
            ServeConfig(pipeline="speculative").validate()

        async def serve():
            manager = SessionManager()
            try:
                with pytest.raises(ValueError, match="pipeline must be one of"):
                    await manager.open_session(
                        "a", _spec(problem), pipeline="speculative"
                    )
            finally:
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())

    def test_sync_sessions_never_schedule(self, problem):
        async def serve():
            manager = SessionManager()  # default pipeline="sync"
            try:
                await manager.open_session("a", _spec(problem))
                await _serve_rounds(manager, "a", 2)
                assert manager.stats["eager_scheduled"] == 0
                assert manager.stats["eager_hits"] == 0
            finally:
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())


# --------------------------------------------------------------------- #
# checkpoint policies under the pipeline
# --------------------------------------------------------------------- #
class TestEagerCheckpointing:
    def test_round_policy_checkpoints_stay_marker_free(self, problem, tmp_path):
        """Eager round-policy checkpoints are captured before the prefetch is
        scheduled: same marker-free boundary snapshot sync mode writes."""

        async def serve():
            manager = SessionManager(
                ServeConfig(
                    checkpoint_policy="round",
                    checkpoint_dir=tmp_path,
                    pipeline="eager",
                )
            )
            try:
                await manager.open_session("a", _spec(problem))
                await _serve_rounds(manager, "a", 2)
                await manager.flush_checkpoints()
            finally:
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())
        payload = json.loads((tmp_path / "a.json").read_text())
        assert payload["round_index"] == 2
        assert "pending_proposal" not in payload

    def test_restore_from_round_policy_matches_direct(self, problem, tmp_path):
        direct = _direct_run(problem, "random", seed=7)

        async def crash_then_recover():
            config = ServeConfig(
                checkpoint_policy="round",
                checkpoint_dir=tmp_path,
                restore_on_open=True,
                pipeline="eager",
            )
            manager = SessionManager(config)
            await manager.open_session("a", _spec(problem, "random", seed=7))
            await _serve_rounds(manager, "a", 1)
            await manager.flush_checkpoints()
            await manager.aclose(checkpoint=False)  # "crash" after round 1

            recovered = SessionManager(config)
            try:
                info = await recovered.open_session(
                    "a", _spec(problem, "random", seed=7)
                )
                assert info["restored"] is True
                assert info["round_index"] == 1
                await _serve_rounds(recovered, "a", 2)
                session = recovered._slots["a"].session
                return session.result, session.store.labeled_ids.copy()
            finally:
                await recovered.aclose(checkpoint=False)

        result, labeled_ids = asyncio.run(crash_then_recover())
        _assert_curves_identical(direct.result, result)
        np.testing.assert_array_equal(direct.store.labeled_ids, labeled_ids)

    def test_close_with_inflight_prefetch_surfaces_on_restore(self, problem, tmp_path):
        """Closing while the eager proposal is in flight quiesces it into the
        final checkpoint as a ``pending_proposal`` marker; the re-opened
        session surfaces it invalidated and replays bit-identically."""

        direct = _direct_run(problem, "random", seed=7)

        async def crash_then_recover():
            config = ServeConfig(
                checkpoint_dir=tmp_path, restore_on_open=True, pipeline="eager"
            )
            manager = SessionManager(config)
            await manager.open_session("a", _spec(problem, "random", seed=7))
            await _serve_rounds(manager, "a", 1)
            # The next round's proposal is now prefetching (or landed,
            # unclaimed); close checkpoints it as a marker either way.
            await manager.aclose()

            payload = json.loads((tmp_path / "a.json").read_text())
            assert payload["pending_proposal"]["round_index"] == 1

            recovered = SessionManager(config)
            try:
                info = await recovered.open_session(
                    "a", _spec(problem, "random", seed=7)
                )
                assert info["restored"] is True
                surfaced = info["invalidated_proposal"]
                assert surfaced is not None and surfaced["round_index"] == 1
                await _serve_rounds(recovered, "a", 2)  # replay round 1 onward
                return recovered._slots["a"].session.result
            finally:
                await recovered.aclose(checkpoint=False)

        _assert_curves_identical(direct.result, asyncio.run(crash_then_recover()))


# --------------------------------------------------------------------- #
# satellite: slow checkpoint disks stall nobody
# --------------------------------------------------------------------- #
class TestSlowDiskIsolation:
    def test_slow_store_path_never_stalls_requests(self, problem, tmp_path, monkeypatch):
        """Round-policy writes land through an artificially slow store path;
        the request loop (both tenants) never waits on the disk."""

        import repro.engine.session as session_mod

        real_write = session_mod.atomic_write_json
        delay = 0.35

        def slow_write(path, payload):
            time.sleep(delay)
            return real_write(path, payload)

        monkeypatch.setattr(session_mod, "atomic_write_json", slow_write)

        async def serve():
            manager = SessionManager(
                ServeConfig(
                    max_workers=2,
                    checkpoint_policy="round",
                    checkpoint_dir=tmp_path,
                )
            )
            try:
                await manager.open_session("a", _spec(problem))
                await manager.open_session("b", _spec(problem, seed=9))
                start = time.perf_counter()
                for _ in range(2):  # 4 round-policy writes = 4 * delay of disk
                    await _serve_rounds(manager, "a", 1)
                    await _serve_rounds(manager, "b", 1)
                elapsed = time.perf_counter() - start
                assert manager.stats["observations"] == 4
                # Synchronous writes would bound the loop below 4 * delay;
                # off-loop writes leave only compute on the request path.
                assert elapsed < 4 * delay, (
                    f"request loop stalled behind the slow disk ({elapsed:.2f}s)"
                )
                await manager.flush_checkpoints()
                assert manager.stats["checkpoints"] == 4
                assert (tmp_path / "a.json").exists()
                assert (tmp_path / "b.json").exists()
            finally:
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())


# --------------------------------------------------------------------- #
# concurrent eager tenants
# --------------------------------------------------------------------- #
class TestConcurrentEagerTenants:
    def test_two_eager_tenants_match_direct_runs(self, problem):
        """Two same-process eager Approx-FIRAL sessions, rounds racing
        through one pool, each bit-identical to its direct run."""

        direct = {seed: _direct_run(problem, "approx-firal", seed=seed) for seed in (1, 2)}

        async def serve():
            manager = SessionManager(ServeConfig(max_workers=2, pipeline="eager"))

            async def tenant(sid, seed):
                await manager.open_session(sid, _spec(problem, "approx-firal", seed=seed))
                await _serve_rounds(manager, sid, 3)
                return manager._slots[sid].session

            try:
                sessions = await asyncio.gather(tenant("a", 1), tenant("b", 2))
                return {
                    sid: (s.result, s.store.labeled_ids.copy())
                    for sid, s in zip(("a", "b"), sessions)
                }
            finally:
                await manager.aclose(checkpoint=False)

        served = asyncio.run(serve())
        for sid, seed in (("a", 1), ("b", 2)):
            result, labeled_ids = served[sid]
            _assert_curves_identical(direct[seed].result, result)
            np.testing.assert_array_equal(direct[seed].store.labeled_ids, labeled_ids)
