"""One rank of the SPMD programs is the serial solver, bit for bit.

``approx_relax``, ``approx_round`` and ``select_eta`` run the same loops as
``relax_rank_main``, ``round_rank_main`` and ``round_search_rank_main``; the
serial solvers pass a communicator whose collectives return their input.  So
a one-rank launch over the simulated transport must reproduce the serial
result exactly, for any problem shape, seed and chunk size.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_relax import approx_relax
from repro.core.approx_round import approx_round
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.eta_selection import select_eta
from repro.parallel.distributed_relax import distributed_relax
from repro.parallel.distributed_round import distributed_round, distributed_round_search
from tests.conftest import make_fisher_dataset

problems = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "num_pool": st.integers(8, 40),
        "dimension": st.integers(2, 6),
        "num_classes": st.integers(2, 5),
        "budget": st.integers(1, 6),
        "chunk": st.sampled_from([None, 3, 7]),
        "mode": st.sampled_from(["none", "estimate"]),
        "tolerance": st.sampled_from([0.0, 1e-4, 1.0]),
    }
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(problems)
def test_one_rank_equals_serial(p):
    dataset = make_fisher_dataset(
        seed=p["seed"],
        num_pool=p["num_pool"],
        num_labeled=4,
        dimension=p["dimension"],
        num_classes=p["num_classes"],
    )
    rng = np.random.default_rng(p["seed"])
    budget = p["budget"]

    relax_config = RelaxConfig(
        max_iterations=3,
        track_objective=p["mode"],
        objective_tolerance=p["tolerance"],
        seed=p["seed"],
    )
    serial = approx_relax(dataset, budget, relax_config)
    ranked = distributed_relax(dataset, budget, num_ranks=1, config=relax_config)
    np.testing.assert_array_equal(ranked.weights, serial.weights)
    assert (ranked.iterations, ranked.cg_iterations) == (serial.iterations, serial.cg_iterations)

    z = serial.weights
    round_config = RoundConfig(score_chunk_size=p["chunk"])
    eta = float(rng.uniform(0.1, 8.0))
    single = approx_round(dataset, z, budget, eta, round_config)
    ranked_single = distributed_round(dataset, z, budget, eta, num_ranks=1, config=round_config)
    np.testing.assert_array_equal(ranked_single.selected_indices, single.selected_indices)

    grid = (0.1, 1.0, 8.0)
    searched, score = select_eta(approx_round, dataset, z, budget, eta_grid=grid, config=round_config)
    ranked_search, ranked_score = distributed_round_search(
        dataset, z, budget, eta_grid=grid, num_ranks=1, config=round_config
    )
    np.testing.assert_array_equal(ranked_search.selected_indices, searched.selected_indices)
    assert (ranked_search.eta, ranked_score) == (searched.eta, score)
