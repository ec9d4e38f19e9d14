"""Figure 1: impact of the block-diagonal preconditioner on CG convergence.

The paper shows the relative residual of the first RELAX CG solve with and
without the ``B(Sigma_z)^{-1}`` preconditioner, for CIFAR-10 (fast
convergence) and ImageNet-1k (hundreds of iterations unpreconditioned).  The
shape to reproduce: preconditioned CG reaches the tolerance in far fewer
iterations, and the gap widens for the harder (larger c) configuration.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.registry import DatasetSpec, build_problem
from repro.fisher.operators import FisherDataset
from repro.linalg.cg import conjugate_gradient
from repro.models.logistic_regression import LogisticRegressionClassifier
from repro.models.softmax import reduced_probabilities
from repro.utils.random import rademacher

# CIFAR-10-like (10 classes, 20 dims) and a scaled stand-in for ImageNet-1k
# (more classes, higher dimension => harder system).
CONFIGS = {
    "cifar10-like": DatasetSpec("cifar10-like", 10, 20, 1, 400, 1, 10, 100),
    "imagenet-1k-scaled": DatasetSpec("imagenet-1k-scaled", 40, 48, 1, 400, 1, 40, 100),
}

CG_TOLERANCE = 1e-3
NUM_PROBES = 5
REGULARIZATION = 1e-6


def _first_iteration_system(spec: DatasetSpec, seed: int = 0):
    """Reproduce the linear system of Line 6, Algorithm 2 at mirror-descent t=1.

    Returns the ``Sigma_z`` matvec, the ``B(Sigma_z)^{-1}`` preconditioner and
    the probe block.
    """

    problem = build_problem(spec, seed=seed)
    clf = LogisticRegressionClassifier(problem.num_classes)
    clf.fit(problem.initial_features, problem.initial_labels)
    dataset = FisherDataset(
        pool_features=problem.pool_features,
        pool_probabilities=reduced_probabilities(clf.predict_proba(problem.pool_features)),
        labeled_features=problem.initial_features,
        labeled_probabilities=reduced_probabilities(clf.predict_proba(problem.initial_features)),
    )
    budget = spec.budget_per_round
    z = np.full(dataset.num_pool, budget / dataset.num_pool)

    def matvec(V):
        return dataset.sigma_matvec(V, z) + REGULARIZATION * V

    inverse = dataset.sigma_block_diagonal(z).add_identity(REGULARIZATION).inverse()
    probes = rademacher((dataset.joint_dimension, NUM_PROBES), rng=0, dtype=np.float64)
    return matvec, inverse.matvec, probes


def _run_case(name: str, spec: DatasetSpec):
    matvec, precondition, probes = _first_iteration_system(spec)
    plain = conjugate_gradient(
        matvec, probes, rtol=CG_TOLERANCE, max_iterations=3000, record_history=True
    )
    preconditioned = conjugate_gradient(
        matvec,
        probes,
        preconditioner=precondition,
        rtol=CG_TOLERANCE,
        max_iterations=3000,
        record_history=True,
    )
    return {
        "name": name,
        "plain_iterations": plain.iterations,
        "precond_iterations": preconditioned.iterations,
        "plain_history": plain.residual_history,
        "precond_history": preconditioned.residual_history,
    }


def test_fig1_preconditioner_effect(benchmark, results_writer):
    cases = [_run_case(name, spec) for name, spec in CONFIGS.items()]

    lines = [
        "# Figure 1 reproduction: CG iterations to relative residual "
        f"{CG_TOLERANCE} with and without the B(Sigma_z) preconditioner",
        f"{'dataset':>20} {'no_precond_iters':>17} {'precond_iters':>14} {'reduction_x':>12}",
    ]
    for case in cases:
        lines.append(
            f"{case['name']:>20} {case['plain_iterations']:>17d} {case['precond_iterations']:>14d} "
            f"{case['plain_iterations'] / max(case['precond_iterations'], 1):>12.1f}"
        )
    lines.append("")
    for case in cases:
        lines.append(f"## residual history ({case['name']}), without preconditioner:")
        lines.append(", ".join(f"{r:.2e}" for r in case["plain_history"][:40]))
        lines.append(f"## residual history ({case['name']}), with preconditioner:")
        lines.append(", ".join(f"{r:.2e}" for r in case["precond_history"][:40]))
    text = "\n".join(lines)
    results_writer("fig1_preconditioner", text)
    print(text)

    # Shape assertions (paper: preconditioning cuts iterations dramatically,
    # more so on the larger-c dataset).
    for case in cases:
        assert case["precond_iterations"] < case["plain_iterations"]
    assert cases[1]["plain_iterations"] >= cases[0]["plain_iterations"]

    # Benchmark the preconditioned solve on the harder configuration.
    matvec, precondition, probes = _first_iteration_system(CONFIGS["imagenet-1k-scaled"])
    benchmark.pedantic(
        lambda: conjugate_gradient(
            matvec,
            probes,
            preconditioner=precondition,
            rtol=CG_TOLERANCE,
            max_iterations=3000,
            record_history=False,
        ),
        rounds=1,
        iterations=1,
    )
