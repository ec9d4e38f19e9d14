"""Property: every prefilter honours the ``CandidateFilter`` contract.

For all three filters, over drawn shard layouts (dry shards included), keep
ratios and budgets, :meth:`CandidateFilter.select_candidates` must return
sorted, unique ids from ``pool_ids``, at least ``budget`` of them, and keep
exactly ``keep_count(size, budget)`` ids in every non-empty shard, each
from that shard's own segment of the pool view.  When every shard's keep
count covers the whole shard (keep-everything), the result is every pool id
and the generator's state is untouched.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import SelectionContext
from repro.engine.prefilter import DiversityFilter, RandomSubsampleFilter, TopKScoreFilter

NUM_CLASSES = 3
DIMENSION = 4


@st.composite
def layouts(draw):
    sizes = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4).filter(lambda s: sum(s) > 0))
    n = sum(sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    if len(sizes) == 1 and draw(st.booleans()):
        offsets = None  # an unsharded store publishes no offsets
    return {
        "sizes": sizes,
        "offsets": offsets,
        "budget": draw(st.integers(1, n)),
        "gaps": draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)),
        "seed": draw(st.integers(0, 2**16)),
        "keep_ratio": draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0))),
        "kind": draw(st.sampled_from(["random", "diversity", "topk"])),
        "num_clusters": draw(st.integers(1, 6)),
        "max_iterations": draw(st.integers(1, 5)),
    }


def _filter(p):
    if p["kind"] == "random":
        return RandomSubsampleFilter(p["keep_ratio"])
    if p["kind"] == "topk":
        return TopKScoreFilter(p["keep_ratio"])
    return DiversityFilter(
        p["keep_ratio"], num_clusters=p["num_clusters"], max_iterations=p["max_iterations"]
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(layouts())
def test_select_candidates_contract(p):
    rng = np.random.default_rng(p["seed"])
    n = sum(p["sizes"])
    pool_ids = 100 + np.cumsum(p["gaps"]).astype(np.int64)
    context = SelectionContext(
        pool_features=rng.standard_normal((n, DIMENSION)),
        pool_probabilities=rng.dirichlet(np.ones(NUM_CLASSES), size=n),
        labeled_features=rng.standard_normal((3, DIMENSION)),
        labeled_probabilities=rng.dirichlet(np.ones(NUM_CLASSES), size=3),
        budget=p["budget"],
        rng=rng,
        pool_ids=pool_ids,
        shard_offsets=p["offsets"],
    )
    prefilter = _filter(p)
    before = copy.deepcopy(rng.bit_generator.state)

    ids = prefilter.select_candidates(context, rng)

    assert bool(np.all(np.diff(ids) > 0))
    assert bool(np.all(np.isin(ids, pool_ids)))
    assert ids.size >= p["budget"]
    positions = np.searchsorted(pool_ids, ids)
    bounds = np.concatenate([[0], np.cumsum(p["sizes"])])
    for size, lo, hi in zip(p["sizes"], bounds[:-1], bounds[1:]):
        kept = int(np.count_nonzero((positions >= lo) & (positions < hi)))
        assert kept == (prefilter.keep_count(size, p["budget"]) if size else 0)
    if all(prefilter.keep_count(size, p["budget"]) == size for size in p["sizes"] if size):
        np.testing.assert_array_equal(ids, pool_ids)
        assert rng.bit_generator.state == before
