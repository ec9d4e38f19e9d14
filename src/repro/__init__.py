"""repro — reproduction of "A Scalable Algorithm for Active Learning" (SC24).

The package implements the Approx-FIRAL active-learning algorithm (the
paper's contribution), the Exact-FIRAL baseline it accelerates, the
classical baselines it is compared against, the Fisher-information and
iterative-solver substrates they require, a simulated multi-rank parallel
runtime with an analytic performance model reproducing the paper's HPC
studies, and synthetic dataset generators standing in for the paper's feature
embeddings.

Quickstart::

    from repro import ApproxFIRAL, build_problem, run_active_learning
    from repro.baselines import FIRALStrategy

    problem = build_problem("cifar10", scale=0.05, seed=0)
    strategy = FIRALStrategy(ApproxFIRAL())
    result = run_active_learning(problem, strategy, num_rounds=3, budget_per_round=10)
    print(result.to_table())
"""

from repro.backend import (
    DEFAULT_DTYPE,
    available_backends,
    default_dtype,
    get_backend,
    set_backend,
    use_backend,
)
from repro.core import (
    ApproxFIRAL,
    ExactFIRAL,
    ExactRoundPrecompute,
    RelaxConfig,
    RoundConfig,
    RoundPrecompute,
    SelectionResult,
    approx_relax,
    approx_round,
    exact_relax,
    exact_round,
    select_eta,
)
from repro.fisher import FisherDataset
from repro.models import LogisticRegressionClassifier
from repro.datasets import DatasetSpec, build_problem, get_dataset_spec, list_dataset_names
from repro.active import ActiveLearningProblem, run_active_learning, run_trials
from repro.engine import (
    ActiveSession,
    DensePointStore,
    MmapPointStore,
    PoolStore,
    QueryProposal,
    SessionConfig,
    ShardedPointStore,
)

__version__ = "1.0.0"

#: The curated top-level surface.  The serving layer (``SessionManager`` /
#: ``AsyncSessionClient`` / ``ServeConfig`` / ``SessionSpec``) resolves lazily
#: through ``__getattr__`` below, kept out of the eager import so
#: ``import repro`` stays cheap for batch scripts.
_SERVE_EXPORTS = ("SessionManager", "AsyncSessionClient", "ServeConfig", "SessionSpec")

__all__ = [
    "__version__",
    "DEFAULT_DTYPE",
    "available_backends",
    "default_dtype",
    "get_backend",
    "set_backend",
    "use_backend",
    "ApproxFIRAL",
    "ExactFIRAL",
    "ExactRoundPrecompute",
    "RelaxConfig",
    "RoundConfig",
    "RoundPrecompute",
    "SelectionResult",
    "approx_relax",
    "approx_round",
    "exact_relax",
    "exact_round",
    "select_eta",
    "FisherDataset",
    "LogisticRegressionClassifier",
    "DatasetSpec",
    "build_problem",
    "get_dataset_spec",
    "list_dataset_names",
    "ActiveLearningProblem",
    "run_active_learning",
    "run_trials",
    "ActiveSession",
    "SessionConfig",
    "QueryProposal",
    "PoolStore",
    "DensePointStore",
    "MmapPointStore",
    "ShardedPointStore",
    "SessionManager",
    "AsyncSessionClient",
    "ServeConfig",
    "SessionSpec",
]


def __getattr__(name: str):
    if name in _SERVE_EXPORTS:
        from repro import serve

        return getattr(serve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
