"""Tests for the pluggable array-backend dispatch layer.

Covers the registry (selection by name/spec/env), the NumPy backend's
promoted-linalg policy, the workspace buffer pool, a guard that keeps the
algorithm layers free of direct ``numpy`` imports, and solver-level dispatch
parametrized over every backend available in the environment.  The optional
PyTorch backend has an opt-in smoke test (``pytest -m torch_backend``) that
skips cleanly when torch is not installed.
"""

from __future__ import annotations

import pathlib
import re

import numpy as np
import pytest

from repro import backend as backend_pkg
from repro.backend import (
    COMPUTE_DTYPE,
    NumpyBackend,
    Workspace,
    available_backends,
    backend_from_spec,
    get_backend,
    register_backend,
    set_backend,
    torch_available,
    use_backend,
)
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import ApproxFIRAL
from repro.linalg.cg import conjugate_gradient
from repro.parallel.distributed_relax import distributed_relax
from tests.conftest import make_fisher_dataset

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Layers that must obtain all array math through the backend dispatch.
GUARDED_LAYERS = ("core", "fisher", "linalg")

class TestNumpyImportGuard:
    def test_algorithm_layers_have_no_direct_numpy_imports(self):
        """core/, fisher/ and linalg/ must route everything through the backend."""

        pattern = re.compile(r"^\s*(import numpy|from numpy\b)", re.MULTILINE)
        offenders = []
        for layer in GUARDED_LAYERS:
            for path in sorted((SRC_ROOT / layer).rglob("*.py")):
                if pattern.search(path.read_text()):
                    offenders.append(path.relative_to(SRC_ROOT).as_posix())
        assert offenders == [], f"direct numpy imports in guarded layers: {offenders}"

    def test_guarded_layers_have_no_direct_scipy_imports(self):
        """SciPy access, if any, is a backend implementation detail."""

        pattern = re.compile(r"^\s*(import scipy|from scipy\b)", re.MULTILINE)
        offenders = []
        for layer in GUARDED_LAYERS:
            for path in sorted((SRC_ROOT / layer).rglob("*.py")):
                if pattern.search(path.read_text()):
                    offenders.append(path.relative_to(SRC_ROOT).as_posix())
        assert offenders == [], f"direct scipy imports in guarded layers: {offenders}"


class TestRegistry:
    def test_default_backend_is_numpy(self):
        backend = get_backend()
        assert backend.name == "numpy"
        assert backend.xp is np

    def test_numpy_is_always_available(self):
        assert "numpy" in available_backends()

    def test_backend_from_spec_parses_device(self):
        backend = backend_from_spec("numpy")
        assert isinstance(backend, NumpyBackend)

    def test_backend_from_spec_unknown_name(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            backend_from_spec("cupy")

    def test_set_backend_rejects_non_backend(self):
        with pytest.raises(TypeError):
            set_backend(42)

    def test_use_backend_restores_previous(self):
        previous = get_backend()
        replacement = NumpyBackend()
        with use_backend(replacement) as active:
            assert get_backend() is replacement
            assert active is replacement
        assert get_backend() is previous

    def test_use_backend_restores_on_exception(self):
        previous = get_backend()
        with pytest.raises(RuntimeError):
            with use_backend(NumpyBackend()):
                raise RuntimeError("boom")
        assert get_backend() is previous

    def test_register_backend_and_select_by_name(self):
        class Custom(NumpyBackend):
            name = "custom-np"

        register_backend("custom-np", lambda device: Custom())
        try:
            with use_backend("custom-np"):
                assert get_backend().name == "custom-np"
        finally:
            backend_pkg.registry._FACTORIES.pop("custom-np", None)
            backend_pkg.registry._AVAILABILITY.pop("custom-np", None)

    def test_env_var_spec_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        monkeypatch.setattr(backend_pkg.registry, "_active", None)
        assert get_backend().name == "numpy"

    def test_torch_spec_without_torch_raises_importerror(self):
        if torch_available():
            pytest.skip("torch installed; the guarded-import error path is inactive")
        with pytest.raises(ImportError, match="torch"):
            backend_from_spec("torch")


class TestDtypePolicy:
    def test_compute_dtype_is_float64(self):
        assert np.dtype(COMPUTE_DTYPE) == np.dtype(np.float64)
        assert get_backend().compute_dtype == np.dtype(np.float64)

    def test_ascompute_promotes_without_copy_when_possible(self):
        backend = get_backend()
        a = np.ones((3, 3), dtype=np.float64)
        assert backend.ascompute(a) is a
        b = np.ones((3, 3), dtype=np.float32)
        assert backend.ascompute(b).dtype == np.float64

    def test_promoted_linalg_matches_raw_numpy(self, rng):
        backend = get_backend()
        a = rng.standard_normal((5, 4, 4))
        spd = np.einsum("kij,klj->kil", a, a) + 4.0 * np.eye(4)
        spd32 = spd.astype(np.float32)

        inv = backend.inv(spd32, out_dtype=np.float32)
        assert inv.dtype == np.float32
        np.testing.assert_array_equal(
            inv, np.linalg.inv(spd32.astype(np.float64)).astype(np.float32)
        )
        np.testing.assert_array_equal(backend.cholesky(spd), np.linalg.cholesky(spd))
        np.testing.assert_array_equal(backend.eigvalsh(spd), np.linalg.eigvalsh(spd))
        b = rng.standard_normal((5, 4, 2))
        np.testing.assert_array_equal(backend.solve(spd, b), np.linalg.solve(spd, b))


class TestRngBridge:
    def test_rademacher_matches_legacy_draw(self):
        from repro.utils.random import rademacher as legacy

        backend = get_backend()
        a = backend.rademacher((7, 3), rng=np.random.default_rng(5))
        b = legacy((7, 3), rng=np.random.default_rng(5), dtype=np.float64)
        np.testing.assert_array_equal(a, b)
        assert set(np.unique(a)) <= {-1.0, 1.0}


class TestWorkspace:
    def test_same_key_returns_same_buffer(self):
        ws = Workspace(get_backend())
        a = ws.get("t", (4, 3), np.float64)
        b = ws.get("t", (4, 3), np.float64)
        assert a is b
        assert len(ws) == 1

    def test_distinct_names_and_shapes_do_not_alias(self):
        ws = Workspace(get_backend())
        a = ws.get("t", (4, 3), np.float64)
        b = ws.get("u", (4, 3), np.float64)
        c = ws.get("t", (5, 3), np.float64)
        assert a is not b and a is not c
        assert len(ws) == 3
        ws.clear()
        assert len(ws) == 0

def _backend_params():
    return [pytest.param(name, id=name) for name in available_backends()]


class TestSolverDispatch:
    """Solver-level behavior parametrized over every available backend."""

    @pytest.mark.parametrize("backend_name", _backend_params())
    def test_conjugate_gradient_solves_spd_system(self, backend_name, rng):
        a = rng.standard_normal((12, 12))
        spd = a @ a.T + 12.0 * np.eye(12)
        rhs = rng.standard_normal((12, 3))
        expected = np.linalg.solve(spd, rhs)
        with use_backend(backend_name) as backend:
            spd_b = backend.from_host(spd)
            result = conjugate_gradient(
                lambda v: spd_b @ v, backend.from_host(rhs), rtol=1e-10, max_iterations=500
            )
            assert result.converged
            np.testing.assert_allclose(
                backend.to_numpy(result.solution), expected, rtol=1e-6, atol=1e-8
            )

    @pytest.mark.parametrize("backend_name", _backend_params())
    def test_approx_firal_selects_same_indices_on_every_backend(self, backend_name):
        reference = ApproxFIRAL(
            RelaxConfig(max_iterations=8, seed=0, track_objective="none"),
            RoundConfig(eta=1.0),
        ).select(make_fisher_dataset(seed=3), 3)
        with use_backend(backend_name):
            dataset = make_fisher_dataset(seed=3)
            result = ApproxFIRAL(
                RelaxConfig(max_iterations=8, seed=0, track_objective="none"),
                RoundConfig(eta=1.0),
            ).select(dataset, 3)
        np.testing.assert_array_equal(
            np.asarray(result.selected_indices), np.asarray(reference.selected_indices)
        )


@pytest.mark.torch_backend
@pytest.mark.skipif(not torch_available(), reason="torch not installed")
class TestTorchBackendSmoke:
    """Opt-in smoke tests for the PyTorch backend (``pytest -m torch_backend``)."""

    def test_namespace_roundtrip(self):
        with use_backend("torch") as backend:
            import torch

            arr = backend.asarray(np.arange(6, dtype=np.float32).reshape(2, 3))
            assert isinstance(arr, torch.Tensor)
            np.testing.assert_array_equal(
                backend.to_numpy(arr), np.arange(6, dtype=np.float32).reshape(2, 3)
            )
            w = backend.eigvalsh(backend.from_host(np.eye(3)))
            np.testing.assert_allclose(backend.to_numpy(w), np.ones(3))

    def test_select_matches_numpy_backend(self):
        numpy_result = ApproxFIRAL(
            RelaxConfig(max_iterations=8, seed=0, track_objective="none"),
            RoundConfig(eta=1.0),
        ).select(make_fisher_dataset(seed=3), 3)
        with use_backend("torch"):
            torch_result = ApproxFIRAL(
                RelaxConfig(max_iterations=8, seed=0, track_objective="none"),
                RoundConfig(eta=1.0),
            ).select(make_fisher_dataset(seed=3), 3)
        np.testing.assert_array_equal(
            np.asarray(torch_result.selected_indices),
            np.asarray(numpy_result.selected_indices),
        )

    def test_two_rank_relax_matches_numpy(self):
        """The rank programs run on tensors over the simulated comm."""

        config = RelaxConfig(max_iterations=3, track_objective="none", seed=11)
        dataset_args = dict(seed=30, num_pool=24, num_labeled=6, dimension=4, num_classes=3)
        numpy_result = distributed_relax(
            make_fisher_dataset(**dataset_args), 4, num_ranks=2, config=config
        )
        with use_backend("torch") as backend:
            torch_result = distributed_relax(
                make_fisher_dataset(**dataset_args), 4, num_ranks=2, config=config
            )
            torch_weights = backend.to_numpy(torch_result.weights)
        assert torch_result.cg_iterations == numpy_result.cg_iterations
        np.testing.assert_allclose(
            torch_weights, np.asarray(numpy_result.weights), rtol=1e-12, atol=1e-15
        )
