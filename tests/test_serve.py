"""The serving layer: multi-tenant ``SessionManager`` over propose/observe.

What must hold for the engine to sit "behind traffic":

* **serving changes nothing** — a session driven through the service
  (worker pool, locks, batching) produces curves bit-identical to the same
  session driven directly;
* **tenants are isolated** — two sessions with different seeds served
  interleaved (and concurrently) match the same sessions run serially,
  bit for bit;
* **admission control** — session and in-flight-request ceilings reject
  with :class:`AdmissionError` instead of queueing unboundedly;
* **checkpoint policies** — ``"round"`` writes after every round,
  ``"idle"`` after the grace period, close always; ``restore_on_open``
  resumes from the snapshot, surfacing a mid-proposal invalidation;
* **protocol misuse maps to typed errors** (:class:`ProtocolError`), and
  the stdlib HTTP front speaks the same payloads with the right statuses.

``pytest-asyncio`` is not a dependency; each test drives its own event
loop via ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.engine import ActiveSession
from repro.serve import (
    AdmissionError,
    AsyncSessionClient,
    HttpFrontend,
    ProtocolError,
    ServeConfig,
    SessionExistsError,
    SessionManager,
    SessionNotFoundError,
    SessionSpec,
)

from test_engine_session import (
    STRATEGY_FACTORIES,
    _assert_curves_identical,
    _small_problem,
)


@pytest.fixture(scope="module")
def problem():
    return _small_problem(seed=0)


def _spec(problem, name="random", *, seed=7, rounds=3):
    return SessionSpec(
        problem=problem,
        strategy_factory=STRATEGY_FACTORIES[name],
        budget_per_round=4,
        num_rounds=rounds,
        seed=seed,
    )


def _direct_run(problem, name="random", *, seed=7, rounds=3):
    session = ActiveSession(
        problem, STRATEGY_FACTORIES[name](), budget_per_round=4, num_rounds=rounds, seed=seed
    )
    for _ in range(rounds):
        session.step()
    return session


async def _serve_rounds(manager, session_id, rounds):
    for _ in range(rounds):
        await manager.propose(session_id)
        await manager.observe(session_id)


# --------------------------------------------------------------------- #
# served == direct, bit for bit
# --------------------------------------------------------------------- #
class TestServedEquivalence:
    @pytest.mark.parametrize("name", ["random", "approx-firal"])
    def test_served_session_matches_direct(self, problem, name):
        direct = _direct_run(problem, name)

        async def serve():
            manager = SessionManager(ServeConfig(max_workers=2))
            try:
                await manager.open_session("t", _spec(problem, name))
                await _serve_rounds(manager, "t", 3)
                slot_session = manager._slots["t"].session
                return slot_session.result, slot_session.store.labeled_ids.copy()
            finally:
                await manager.aclose(checkpoint=False)

        result, labeled_ids = asyncio.run(serve())
        _assert_curves_identical(direct.result, result)
        np.testing.assert_array_equal(direct.store.labeled_ids, labeled_ids)


# --------------------------------------------------------------------- #
# the satellite pin: concurrent-session isolation
# --------------------------------------------------------------------- #
class TestConcurrentIsolation:
    def test_interleaved_sessions_match_serial(self, problem):
        """Two tenants with different seeds, rounds interleaved through one
        manager, produce curves bit-identical to the same sessions run
        serially — no state bleeds across slots."""

        serial_a = _direct_run(problem, "random", seed=1)
        serial_b = _direct_run(problem, "random", seed=2)

        async def serve():
            manager = SessionManager(ServeConfig(max_workers=2))
            try:
                await manager.open_session("a", _spec(problem, "random", seed=1))
                await manager.open_session("b", _spec(problem, "random", seed=2))
                for _ in range(3):  # strict interleave: a, b, a, b, ...
                    await manager.propose("a")
                    await manager.propose("b")
                    await manager.observe("a")
                    await manager.observe("b")
                return (
                    manager._slots["a"].session.result,
                    manager._slots["b"].session.result,
                )
            finally:
                await manager.aclose(checkpoint=False)

        result_a, result_b = asyncio.run(serve())
        _assert_curves_identical(serial_a.result, result_a)
        _assert_curves_identical(serial_b.result, result_b)

    def test_concurrent_task_sessions_match_serial(self, problem):
        """Same pin under true concurrency: each tenant driven by its own task,
        rounds racing through the shared worker pool."""

        serial = {
            sid: _direct_run(problem, "random", seed=seed)
            for sid, seed in [("a", 1), ("b", 2), ("c", 3)]
        }

        async def serve():
            manager = SessionManager(ServeConfig(max_workers=3))

            async def tenant(sid, seed):
                await manager.open_session(sid, _spec(problem, "random", seed=seed))
                await _serve_rounds(manager, sid, 3)
                return manager._slots[sid].session.result

            try:
                results = await asyncio.gather(
                    tenant("a", 1), tenant("b", 2), tenant("c", 3)
                )
                return dict(zip(["a", "b", "c"], results))
            finally:
                await manager.aclose(checkpoint=False)

        served = asyncio.run(serve())
        for sid in ["a", "b", "c"]:
            _assert_curves_identical(serial[sid].result, served[sid])


# --------------------------------------------------------------------- #
# admission control and typed errors
# --------------------------------------------------------------------- #
class TestAdmissionAndErrors:
    def test_session_ceiling(self, problem):
        async def serve():
            manager = SessionManager(ServeConfig(max_sessions=1))
            try:
                await manager.open_session("a", _spec(problem))
                with pytest.raises(AdmissionError, match="max_sessions=1"):
                    await manager.open_session("b", _spec(problem))
                assert manager.stats["admission_rejections"] == 1
            finally:
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())

    def test_duplicate_open_rejected(self, problem):
        async def serve():
            manager = SessionManager()
            try:
                await manager.open_session("a", _spec(problem))
                with pytest.raises(SessionExistsError):
                    await manager.open_session("a", _spec(problem))
            finally:
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())

    def test_unknown_session(self, problem):
        async def serve():
            manager = SessionManager()
            try:
                with pytest.raises(SessionNotFoundError):
                    await manager.propose("ghost")
            finally:
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())

    def test_protocol_errors_are_typed(self, problem):
        async def serve():
            manager = SessionManager()
            try:
                await manager.open_session("a", _spec(problem))
                with pytest.raises(ProtocolError, match="no pending proposal"):
                    await manager.observe("a")
                await manager.propose("a")
                with pytest.raises(ProtocolError, match="already pending"):
                    await manager.propose("a")
                # The session survives the misuse: the open proposal completes.
                await manager.observe("a")
            finally:
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())

    def test_inflight_request_ceiling(self, problem):
        """With a one-request ceiling and a slow worker, the racing second
        request is rejected rather than queued."""

        async def serve():
            manager = SessionManager(
                ServeConfig(max_workers=2, max_pending_requests=1)
            )
            try:
                await manager.open_session("a", _spec(problem, rounds=3))
                await manager.open_session("b", _spec(problem, rounds=3))

                async def spam(sid):
                    try:
                        await manager.propose(sid)
                        return "ok"
                    except AdmissionError:
                        return "rejected"

                outcomes = await asyncio.gather(spam("a"), spam("b"))
                assert "rejected" in outcomes  # one of the pair lost the race
                assert manager.stats["admission_rejections"] >= 1
            finally:
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())

    def test_serve_config_rejections(self):
        cases = [
            (dict(max_sessions=0), r"ServeConfig\.max_sessions"),
            (dict(max_workers=0), r"ServeConfig\.max_workers"),
            (dict(max_pending_requests=0), r"ServeConfig\.max_pending_requests"),
            (dict(checkpoint_policy="hourly"), r"ServeConfig\.checkpoint_policy"),
            (dict(idle_grace_seconds=-1.0), r"ServeConfig\.idle_grace_seconds"),
            (dict(checkpoint_policy="round"), r"ServeConfig\.checkpoint_dir"),
            (dict(restore_on_open=True), r"ServeConfig\.checkpoint_dir"),
        ]
        # Counts are rejected unless they are positive integers, never
        # truncated by int().
        cases += [
            ({field: value}, rf"ServeConfig\.{field}")
            for field in ("max_sessions", "max_workers", "max_pending_requests")
            for value in (1.5, True, "2")
        ]
        for kwargs, match in cases:
            with pytest.raises(ValueError, match=match):
                ServeConfig(**kwargs).validate()


# --------------------------------------------------------------------- #
# checkpoint policies and crash recovery
# --------------------------------------------------------------------- #
class TestCheckpointPolicies:
    def test_round_policy_writes_every_round(self, problem, tmp_path):
        async def serve():
            manager = SessionManager(
                ServeConfig(checkpoint_policy="round", checkpoint_dir=tmp_path)
            )
            try:
                await manager.open_session("a", _spec(problem))
                await _serve_rounds(manager, "a", 2)
                # Policy writes are fire-and-forget on the I/O executor —
                # flush before asserting they all landed.
                await manager.flush_checkpoints()
                assert (tmp_path / "a.json").exists()
                assert manager.stats["checkpoints"] == 2
            finally:
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())

    def test_idle_policy_coalesces(self, problem, tmp_path):
        async def serve():
            manager = SessionManager(
                ServeConfig(
                    checkpoint_policy="idle",
                    idle_grace_seconds=0.05,
                    checkpoint_dir=tmp_path,
                )
            )
            try:
                await manager.open_session("a", _spec(problem))
                await _serve_rounds(manager, "a", 3)  # busy: no grace elapses
                assert manager.stats["checkpoints"] == 0
                await asyncio.sleep(0.25)  # idle: the delayed write lands
                assert manager.stats["checkpoints"] == 1
                assert (tmp_path / "a.json").exists()
            finally:
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())

    def test_restore_on_open_resumes(self, problem, tmp_path):
        direct = _direct_run(problem, "random", seed=7)

        async def crash_then_recover():
            config = ServeConfig(checkpoint_dir=tmp_path, restore_on_open=True)
            manager = SessionManager(config)
            await manager.open_session("a", _spec(problem, "random", seed=7))
            await _serve_rounds(manager, "a", 1)
            await manager.aclose()  # checkpoint-at-close, then "crash"

            recovered = SessionManager(config)
            try:
                info = await recovered.open_session("a", _spec(problem, "random", seed=7))
                assert info["restored"] is True
                assert info["round_index"] == 1
                await _serve_rounds(recovered, "a", 2)
                slot_session = recovered._slots["a"].session
                return slot_session.result, slot_session.store.labeled_ids.copy()
            finally:
                await recovered.aclose(checkpoint=False)

        result, labeled_ids = asyncio.run(crash_then_recover())
        _assert_curves_identical(direct.result, result)
        np.testing.assert_array_equal(direct.store.labeled_ids, labeled_ids)

    def test_mid_proposal_crash_surfaces_invalidation(self, problem, tmp_path):
        """Service crashes while a labeler holds an open proposal: the
        re-opened session surfaces the invalidated proposal in the open
        info, and the replayed run matches the uninterrupted one."""

        direct = _direct_run(problem, "random", seed=7)

        async def crash_then_recover():
            config = ServeConfig(checkpoint_dir=tmp_path, restore_on_open=True)
            manager = SessionManager(config)
            await manager.open_session("a", _spec(problem, "random", seed=7))
            await manager.propose("a")  # labeler goes dark mid-round...
            await manager.aclose()  # ...final checkpoint carries the marker

            recovered = SessionManager(config)
            try:
                info = await recovered.open_session("a", _spec(problem, "random", seed=7))
                assert info["restored"] is True
                surfaced = info["invalidated_proposal"]
                assert surfaced is not None and surfaced["round_index"] == 0
                assert recovered.stats["invalidated_proposals"] == 1
                await _serve_rounds(recovered, "a", 3)  # replay from round 0
                return recovered._slots["a"].session.result
            finally:
                await recovered.aclose(checkpoint=False)

        _assert_curves_identical(direct.result, asyncio.run(crash_then_recover()))


# --------------------------------------------------------------------- #
# the in-process client and the HTTP front
# --------------------------------------------------------------------- #
async def _http_request(host, port, method, path, body=None):
    reader, writer = await asyncio.open_connection(host, port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode()
    writer.write(head + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    status = int(raw.split(b" ", 2)[1])
    return status, json.loads(raw.split(b"\r\n\r\n", 1)[1])


class TestClientAndHttp:
    def test_client_payloads_are_json_shaped(self, problem):
        async def serve():
            manager = SessionManager()
            client = AsyncSessionClient(manager)
            try:
                info = await client.open("t", _spec(problem))
                assert info["strategy"] == "random"
                proposal = await client.propose("t", include_features=True)
                assert sorted(proposal)[:3] == ["budget", "features", "global_ids"]
                assert len(proposal["features"]) == proposal["budget"]
                json.dumps(proposal)  # wire-safe by construction
                record = await client.observe("t")
                json.dumps(record)
                assert record["num_labeled"] == float(problem.initial_size + 4)
                closed = await client.close("t", checkpoint=False)
                assert closed["round_index"] == 1
            finally:
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())

    def test_http_round_trip(self, problem):
        direct = _direct_run(problem, "random", seed=7, rounds=2)

        async def serve():
            manager = SessionManager()
            front = HttpFrontend(manager, specs={"demo": _spec(problem, seed=7)})
            host, port = await front.start()
            try:
                status, body = await _http_request(host, port, "GET", "/healthz")
                assert (status, body["status"]) == (200, "ok")

                status, body = await _http_request(
                    host, port, "POST", "/sessions/t/open", {"spec": "demo"}
                )
                assert status == 200 and body["round_index"] == 0

                selected = []
                for _ in range(2):
                    status, proposal = await _http_request(
                        host, port, "POST", "/sessions/t/propose", {}
                    )
                    assert status == 200
                    selected.extend(proposal["global_ids"])
                    status, record = await _http_request(
                        host, port, "POST", "/sessions/t/observe", {}
                    )
                    assert status == 200 and "eval_accuracy" in record

                status, listing = await _http_request(host, port, "GET", "/sessions")
                assert (status, listing["sessions"]) == (200, ["t"])
                status, _ = await _http_request(
                    host, port, "POST", "/sessions/t/close", {"checkpoint": False}
                )
                assert status == 200
                return selected
            finally:
                await front.stop()
                await manager.aclose(checkpoint=False)

        selected = asyncio.run(serve())
        # The HTTP-served selections are the direct session's, bit for bit.
        np.testing.assert_array_equal(
            np.asarray(selected), direct.store.labeled_ids[problem.initial_size :]
        )

    def test_http_float_labels_conflict_then_int_labels_commit(self, problem):
        """JSON float labels are rejected with 409 and commit nothing; the
        same round then takes integer labels with 200."""

        async def serve():
            manager = SessionManager()
            front = HttpFrontend(manager, specs={"demo": _spec(problem)})
            host, port = await front.start()
            try:
                await _http_request(host, port, "POST", "/sessions/t/open", {"spec": "demo"})
                status, proposal = await _http_request(
                    host, port, "POST", "/sessions/t/propose", {}
                )
                assert status == 200
                budget = proposal["budget"]
                status, payload = await _http_request(
                    host, port, "POST", "/sessions/t/observe", {"labels": [0.9] * budget}
                )
                assert status == 409 and "observe labels" in payload["error"]
                status, record = await _http_request(
                    host, port, "POST", "/sessions/t/observe", {"labels": [0] * budget}
                )
                assert status == 200
                assert record["num_labeled"] == float(problem.initial_size + budget)
            finally:
                await front.stop()
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())

    def test_http_error_statuses(self, problem):
        async def serve():
            manager = SessionManager(ServeConfig(max_sessions=1))
            front = HttpFrontend(manager, specs={"demo": _spec(problem)})
            host, port = await front.start()
            try:
                checks = [
                    ("GET", "/nope", None, 404),  # unknown route
                    ("POST", "/sessions/t/open", {"spec": "ghost"}, 404),  # unknown spec
                    ("POST", "/sessions/ghost/propose", {}, 404),  # unknown session
                ]
                for method, path, body, expected in checks:
                    status, payload = await _http_request(host, port, method, path, body)
                    assert status == expected, (path, payload)

                await _http_request(host, port, "POST", "/sessions/t/open", {"spec": "demo"})
                status, _ = await _http_request(
                    host, port, "POST", "/sessions/t/observe", {}
                )
                assert status == 409  # protocol misuse
                status, _ = await _http_request(
                    host, port, "POST", "/sessions/u/open", {"spec": "demo"}
                )
                assert status == 503  # admission: max_sessions=1
            finally:
                await front.stop()
                await manager.aclose(checkpoint=False)

        asyncio.run(serve())
