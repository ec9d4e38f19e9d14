"""The curated public surface: explicit ``__all__``, lazy serve exports,
warning-free store imports, resolvable annotations.

Every name a user is told to import must resolve; the serving layer loads
lazily (so ``import repro`` stays cheap for batch scripts) but lands in the
same namespace; the store classes import without a ``DeprecationWarning``;
and every annotation in the package names something its module can resolve.
"""

from __future__ import annotations

import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys
import typing

import repro
import repro.engine


class TestAllResolves:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_engine_all_resolves(self):
        for name in repro.engine.__all__:
            assert getattr(repro.engine, name) is not None, name

    def test_serving_entry_points_exported(self):
        from repro.serve import AsyncSessionClient, ServeConfig, SessionManager, SessionSpec

        assert repro.SessionManager is SessionManager
        assert repro.AsyncSessionClient is AsyncSessionClient
        assert repro.ServeConfig is ServeConfig
        assert repro.SessionSpec is SessionSpec

    def test_query_proposal_reexported(self):
        from repro.engine.session import QueryProposal

        assert repro.QueryProposal is QueryProposal
        assert repro.engine.QueryProposal is QueryProposal

    def test_import_repro_does_not_load_serve(self):
        """The serving layer must stay off the eager import path."""

        code = "import repro, sys; sys.exit(1 if 'repro.serve' in sys.modules else 0)"
        # The child must find the same package this process imported, whether
        # it came from PYTHONPATH or pytest's own ``pythonpath`` setting.
        src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env)
        assert proc.returncode == 0


class TestPointStoreDeprecation:
    def test_dense_point_store_does_not_warn(self, recwarn):
        assert repro.DensePointStore is repro.engine.DensePointStore
        deprecations = [w for w in recwarn.list if w.category is DeprecationWarning]
        assert deprecations == []


def _annotated_objects(module):
    """Functions, classes and methods defined in ``module`` (not imported)."""

    for obj in vars(module).values():
        members = [obj, *vars(obj).values()] if inspect.isclass(obj) else [obj]
        for member in members:
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            elif isinstance(member, property):
                member = member.fget
            if inspect.isfunction(member) or inspect.isclass(member):
                if member.__module__ == module.__name__:
                    yield member


class TestAnnotationsResolve:
    def test_every_annotation_names_a_defined_symbol(self):
        """``typing.get_type_hints`` succeeds on everything ``repro`` defines.

        With postponed evaluation an annotation naming a symbol its module
        never imports is silent until something introspects it; this walks
        every ``repro.*`` module and resolves each annotation.
        """

        failures = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            for obj in _annotated_objects(module):
                try:
                    typing.get_type_hints(obj)
                except Exception as exc:  # noqa: BLE001 - report every offender
                    failures.append(f"{module.__name__}.{obj.__qualname__}: {exc!r}")
        assert failures == []
