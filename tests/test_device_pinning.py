"""Device-resident sharded compute: placement maps, host staging, parity.

The numpy-testable half of the ISSUE-8 device story:

* ``round_robin_device_map`` and the ``ArrayBackend`` device hooks
  (``local_devices`` / ``for_device`` / ``to_device`` / ``device_context``)
  behave sanely on a host backend — in particular, asking a NumPy-backed
  store to pin shards on CUDA fails loudly, never silently;
* ``HostStagedComm`` is an exact identity on the NumPy backend, so a
  ``devices=["cpu", "cpu"]`` run of every distributed driver is
  **bit-identical** to the unpinned run — which is what lets CI exercise
  the whole pinned code path (spec staging, host-staged collectives,
  per-rank device context) without an accelerator;
* a session over a ``device_map="auto"`` sharded store threads
  ``SelectionContext.shard_devices`` → ``FIRALStrategy`` →
  ``DistributedApproxFIRAL.rank_devices`` → the drivers, and still selects
  exactly what the dense serial session selects.

The torch-marked half checks the real placement calls on CPU torch; CUDA
multi-device pinning is exercised only when hardware is present.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend, round_robin_device_map, use_backend
from repro.backend.torch_backend import torch_available
from repro.baselines.base import FIRALStrategy, SelectionContext, SessionInfo
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import ApproxFIRAL
from repro.engine import ActiveSession, SessionConfig
from repro.engine.stores import ShardedPointStore
from repro.parallel import HostStagedComm, SimulatedComm, create_communicators
from repro.parallel.distributed_relax import distributed_relax
from repro.parallel.distributed_round import distributed_round, distributed_round_search

from tests.conftest import make_fisher_dataset
from test_engine_session import _small_problem


@pytest.fixture(scope="module")
def dataset():
    return make_fisher_dataset(seed=30, num_pool=36, num_labeled=8, dimension=4, num_classes=3)


@pytest.fixture(scope="module")
def problem():
    return _small_problem(seed=0)


def _relax_config():
    return RelaxConfig(max_iterations=3, track_objective="none", seed=11)


def _parallel_strategy():
    return FIRALStrategy(
        ApproxFIRAL(
            RelaxConfig(max_iterations=4, track_objective="none", seed=0), RoundConfig(eta=1.0)
        )
    )


# --------------------------------------------------------------------- #
# backend device hooks (host backend)
# --------------------------------------------------------------------- #
class TestHostBackendDeviceHooks:
    def test_round_robin_map(self):
        backend = get_backend()
        assert round_robin_device_map(3, backend) == ("cpu", "cpu", "cpu")
        with pytest.raises(ValueError):
            round_robin_device_map(0, backend)

    def test_local_devices_and_identity_placement(self):
        backend = get_backend()
        assert tuple(backend.local_devices()) == ("cpu",)
        assert backend.device_count() == 1
        assert backend.for_device("cpu") is backend
        a = np.arange(4.0)
        assert backend.to_device(a, "cpu") is a
        assert backend.device_of(a) == "cpu"

    def test_foreign_device_rejected_loudly(self):
        backend = get_backend()
        with pytest.raises(ValueError, match="cuda:0"):
            backend.for_device("cuda:0")

    def test_device_context_is_noop(self):
        backend = get_backend()
        with backend.device_context("cpu"):
            pass
        with backend.device_context(None):
            pass


# --------------------------------------------------------------------- #
# HostStagedComm (numpy identity)
# --------------------------------------------------------------------- #
class TestHostStagedComm:
    def test_single_rank_collectives_are_identity(self):
        comm = HostStagedComm(create_communicators(1)[0], get_backend())
        assert comm.rank == 0 and comm.size == 1
        value = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(comm.allreduce(value), value)
        np.testing.assert_array_equal(comm.allgather(value), value)
        np.testing.assert_array_equal(comm.bcast(value, root=0), value)
        assert comm.argmax_allreduce(3.5, 2) == (0, 2, 3.5)
        comm.barrier()

    def test_multi_rank_matches_unstaged(self):
        """Staged and raw collectives agree bit-for-bit on the NumPy backend."""

        import threading

        backend = get_backend()
        results = {}

        def run(staged: bool):
            comms = create_communicators(2)
            out = [None, None]

            def body(rank: int, comm: SimulatedComm):
                c = HostStagedComm(comm, backend) if staged else comm
                contribution = np.arange(4.0) + rank
                out[rank] = (
                    np.asarray(c.allreduce(contribution)),
                    np.asarray(c.allgather(contribution)),
                    np.asarray(c.bcast(contribution if rank == 1 else None, root=1)),
                    c.argmax_allreduce(float(rank), rank),
                )

            threads = [
                threading.Thread(target=body, args=(r, comms[r])) for r in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            results[staged] = out

        run(False)
        run(True)
        for rank in range(2):
            for raw, staged in zip(results[False][rank], results[True][rank]):
                np.testing.assert_array_equal(np.asarray(staged), np.asarray(raw))

    def test_log_delegates(self):
        inner = create_communicators(1)[0]
        comm = HostStagedComm(inner, get_backend())
        assert comm.log is inner.log


# --------------------------------------------------------------------- #
# pinned drivers (numpy bit-identity)
# --------------------------------------------------------------------- #
class TestPinnedDriversBitIdentity:
    def test_relax_pinned_cpu_matches_unpinned(self, dataset):
        base = distributed_relax(dataset, 6, num_ranks=2, config=_relax_config())
        pinned = distributed_relax(
            dataset, 6, num_ranks=2, config=_relax_config(), devices=["cpu", "cpu"]
        )
        np.testing.assert_array_equal(np.asarray(pinned.weights), np.asarray(base.weights))

    def test_round_pinned_cpu_matches_unpinned(self, dataset):
        rng = np.random.default_rng(0)
        z = rng.uniform(0, 1, size=dataset.num_pool)
        z = 6.0 * z / z.sum()
        base = distributed_round(dataset, z, 6, 1.0, num_ranks=2)
        pinned = distributed_round(dataset, z, 6, 1.0, num_ranks=2, devices=["cpu", "cpu"])
        np.testing.assert_array_equal(pinned.selected_indices, base.selected_indices)

    def test_round_search_pinned_cpu_matches_unpinned(self, dataset):
        rng = np.random.default_rng(0)
        z = rng.uniform(0, 1, size=dataset.num_pool)
        z = 6.0 * z / z.sum()
        base, base_score = distributed_round_search(dataset, z, 6, num_ranks=2)
        pinned, pinned_score = distributed_round_search(
            dataset, z, 6, num_ranks=2, devices=["cpu", "cpu"]
        )
        np.testing.assert_array_equal(pinned.selected_indices, base.selected_indices)
        assert pinned_score == base_score
        assert pinned.eta == base.eta

    def test_device_count_must_match_ranks(self, dataset):
        with pytest.raises(ValueError, match="one device per rank"):
            distributed_relax(
                dataset, 6, num_ranks=2, config=_relax_config(), devices=["cpu"]
            )


# --------------------------------------------------------------------- #
# store → context → strategy plumbing
# --------------------------------------------------------------------- #
class TestShardDevicePlumbing:
    def _store(self, device_map):
        rng = np.random.default_rng(0)
        return ShardedPointStore(
            rng.standard_normal((4, 3)),
            np.zeros(4, dtype=np.int64),
            rng.standard_normal((20, 3)),
            np.zeros(20, dtype=np.int64),
            num_shards=2,
            device_map=device_map,
        )

    def test_auto_map_resolves_on_host_backend(self):
        store = self._store("auto")
        assert tuple(store.shard_devices()) == ("cpu", "cpu")
        assert self._store(None).shard_devices() is None

    def test_explicit_cuda_map_rejected_on_numpy(self):
        store = self._store(["cuda:0", "cuda:1"])
        with pytest.raises(ValueError, match="cuda:0"):
            store.shard_devices()

    def test_context_validates_shard_devices(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="one device per shard"):
            SelectionContext(
                pool_features=rng.standard_normal((8, 3)),
                pool_probabilities=np.full((8, 2), 0.4),
                labeled_features=rng.standard_normal((2, 3)),
                labeled_probabilities=np.full((2, 2), 0.4),
                budget=2,
                rng=rng,
                pool_ids=np.arange(8, dtype=np.int64),
                shard_offsets=np.array([0, 4, 8]),
                shard_devices=("cpu",),  # 2 shards, 1 device
            )

    def test_strategy_forwards_rank_devices(self):
        strategy = FIRALStrategy(
            ApproxFIRAL(
                RelaxConfig(max_iterations=2, track_objective="none", seed=0),
                RoundConfig(eta=1.0),
            )
        )
        strategy.begin_session(
            SessionInfo(
                num_classes=2, dimension=3, budget_per_round=2, pool_size=8, parallel_ranks=2
            )
        )
        rng = np.random.default_rng(0)
        n = 8
        context = SelectionContext(
            pool_features=rng.standard_normal((n, 3)),
            pool_probabilities=rng.dirichlet(np.ones(2), size=n),
            labeled_features=rng.standard_normal((4, 3)),
            labeled_probabilities=rng.dirichlet(np.ones(2), size=4),
            budget=2,
            rng=rng,
            pool_ids=np.arange(n, dtype=np.int64),
            shard_offsets=np.array([0, 4, n]),
            shard_devices=("cpu", "cpu"),
        )
        selected = strategy.select(context)
        assert selected.size == 2
        assert strategy._effective_selector().rank_devices == ("cpu", "cpu")

        # An exhausted shard falls back to the balanced split — the stale
        # device pins must be dropped with the stale offsets.
        context_empty = SelectionContext(
            pool_features=context.pool_features,
            pool_probabilities=context.pool_probabilities,
            labeled_features=context.labeled_features,
            labeled_probabilities=context.labeled_probabilities,
            budget=2,
            rng=rng,
            pool_ids=np.arange(n, dtype=np.int64),
            shard_offsets=np.array([0, 0, n]),
            shard_devices=("cpu", "cpu"),
        )
        strategy.select(context_empty)
        assert strategy._effective_selector().rank_devices is None

    def test_pinned_sharded_session_matches_dense_serial(self, problem):
        serial = ActiveSession(
            problem, _parallel_strategy(), budget_per_round=4, num_rounds=2, seed=0
        )
        serial.run()
        pinned = ActiveSession(
            problem,
            _parallel_strategy(),
            budget_per_round=4,
            num_rounds=2,
            seed=0,
            config=SessionConfig(
                store=ShardedPointStore.factory(num_shards=2, device_map="auto"),
                parallel_ranks=2,
            ),
        )
        pinned.run()
        np.testing.assert_array_equal(pinned.store.labeled_ids, serial.store.labeled_ids)
        assert [r.eval_accuracy for r in pinned.result.records] == [
            r.eval_accuracy for r in serial.result.records
        ]


# --------------------------------------------------------------------- #
# torch backend (opt-in)
# --------------------------------------------------------------------- #
@pytest.mark.torch_backend
@pytest.mark.skipif(not torch_available(), reason="torch not installed")
class TestTorchDevicePlacement:
    def test_cpu_torch_device_hooks(self):
        with use_backend("torch") as backend:
            import torch

            assert tuple(backend.local_devices()) == ("cpu",)
            assert backend.for_device("cpu") is backend
            t = backend.to_device(np.arange(4.0), "cpu")
            assert isinstance(t, torch.Tensor)
            assert backend.device_of(t) == "cpu"
            with backend.device_context("cpu"):
                pass

    def test_cpu_torch_pinned_drivers_match_unpinned(self):
        dataset_args = dict(seed=30, num_pool=24, num_labeled=6, dimension=4, num_classes=3)
        with use_backend("torch"):
            ds = make_fisher_dataset(**dataset_args)
            base = distributed_relax(ds, 4, num_ranks=2, config=_relax_config())
            base_w = np.asarray(get_backend().to_numpy(base.weights))
        with use_backend("torch"):
            ds = make_fisher_dataset(**dataset_args)
            pinned = distributed_relax(
                ds, 4, num_ranks=2, config=_relax_config(), devices=["cpu", "cpu"]
            )
            pinned_w = np.asarray(get_backend().to_numpy(pinned.weights))
        np.testing.assert_allclose(pinned_w, base_w, rtol=1e-12, atol=1e-15)

    def test_sharded_store_pins_on_torch_cpu(self):
        with use_backend("torch") as backend:
            rng = np.random.default_rng(0)
            store = ShardedPointStore(
                rng.standard_normal((4, 3)),
                np.zeros(4, dtype=np.int64),
                rng.standard_normal((20, 3)),
                np.zeros(20, dtype=np.int64),
                num_shards=2,
                device_map="auto",
            )
            assert tuple(store.shard_devices()) == ("cpu", "cpu")
            gathered = store.compute_features(store.pool_ids)
            np.testing.assert_allclose(
                backend.to_numpy(gathered),
                store.features_host(store.pool_ids).astype(np.float64),
            )

    @pytest.mark.skipif(
        not (torch_available() and __import__("torch").cuda.is_available()),
        reason="CUDA not available",
    )
    def test_cuda_round_robin_covers_all_cards(self):  # pragma: no cover - HW only
        with use_backend("torch:cuda") as backend:
            import torch

            count = torch.cuda.device_count()
            assert tuple(backend.local_devices()) == tuple(
                f"cuda:{i}" for i in range(count)
            )
            devices = round_robin_device_map(2 * count, backend)
            assert set(devices) == set(backend.local_devices())
