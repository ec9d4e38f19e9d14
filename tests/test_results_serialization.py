"""JSON round-trip tests for the result containers (checkpointing support)."""

import json
import re

import numpy as np
import pytest

from repro.active.results import AggregateResult, ExperimentResult, RoundRecord


def _record(n, acc, sel=0.5, setup=0.25):
    return RoundRecord(n, acc, acc + 0.01, acc + 0.02, sel, setup)


def _experiment(name="approx-firal", rounds=3):
    return ExperimentResult(
        strategy_name=name,
        dataset_name="cifar10",
        records=[_record(10 * (i + 1), 0.5 + 0.05 * i) for i in range(rounds)],
    )


class TestRoundRecordSerialization:
    def test_round_trip(self):
        record = _record(20, 0.7)
        restored = RoundRecord.from_dict(record.as_dict())
        assert restored == record

    def test_setup_seconds_in_dict(self):
        d = _record(10, 0.5, sel=1.5, setup=0.75).as_dict()
        assert d["selection_seconds"] == 1.5
        assert d["setup_seconds"] == 0.75

    def test_missing_timings_default_to_zero(self):
        restored = RoundRecord.from_dict(
            {
                "num_labeled": 10,
                "pool_accuracy": 0.5,
                "eval_accuracy": 0.6,
                "balanced_eval_accuracy": 0.55,
            }
        )
        assert restored.selection_seconds == 0.0
        assert restored.setup_seconds == 0.0


class TestExperimentResultSerialization:
    def test_dict_round_trip(self):
        result = _experiment()
        restored = ExperimentResult.from_dict(result.to_dict())
        assert restored == result
        np.testing.assert_array_equal(restored.eval_accuracy(), result.eval_accuracy())

    def test_file_round_trip(self, tmp_path):
        result = _experiment()
        path = result.save(tmp_path / "curve.json")
        restored = ExperimentResult.load(path)
        assert restored == result

    def test_empty_records_round_trip(self):
        result = ExperimentResult("s", "d")
        assert ExperimentResult.from_dict(result.to_dict()) == result


class TestAggregateResultSerialization:
    def test_dict_round_trip(self):
        agg = AggregateResult(
            strategy_name="random",
            dataset_name="cifar10",
            trials=[_experiment("random"), _experiment("random")],
        )
        restored = AggregateResult.from_dict(agg.to_dict())
        assert restored == agg
        np.testing.assert_allclose(
            restored.mean_eval_accuracy(), agg.mean_eval_accuracy()
        )

    def test_file_round_trip(self, tmp_path):
        agg = AggregateResult(
            strategy_name="random",
            dataset_name="cifar10",
            trials=[_experiment("random"), _experiment("random")],
        )
        path = agg.save(tmp_path / "agg.json")
        restored = AggregateResult.load(path)
        assert restored == agg

    def test_from_dict_validates_trials(self):
        with pytest.raises(ValueError):
            AggregateResult.from_dict(
                {"strategy_name": "s", "dataset_name": "d", "trials": []}
            )


class TestAtomicSaves:
    def test_save_leaves_no_temp_file(self, tmp_path):
        _experiment().save(tmp_path / "curve.json")
        assert [p.name for p in tmp_path.iterdir()] == ["curve.json"]

    def test_save_replaces_existing_file_atomically(self, tmp_path):
        path = tmp_path / "curve.json"
        _experiment(rounds=1).save(path)
        _experiment(rounds=5).save(path)
        assert len(ExperimentResult.load(path).records) == 5

    def test_truncated_file_fails_loudly(self, tmp_path):
        path = _experiment().save(tmp_path / "curve.json")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            ExperimentResult.load(path)

    def test_truncated_aggregate_fails_loudly(self, tmp_path):
        agg = AggregateResult(
            strategy_name="random",
            dataset_name="cifar10",
            trials=[_experiment("random")],
        )
        path = agg.save(tmp_path / "agg.json")
        path.write_text(path.read_text()[:10])
        with pytest.raises(ValueError, match="corrupt or truncated"):
            AggregateResult.load(path)


MISSING = object()


def _aggregate():
    return AggregateResult("random", "cifar10", trials=[_experiment("random"), _experiment("random")])


@pytest.mark.parametrize(
    "container, keys, value, name",
    [
        (ExperimentResult, ("strategy_name",), MISSING, "strategy_name is missing"),
        (ExperimentResult, ("dataset_name",), MISSING, "dataset_name is missing"),
        (ExperimentResult, ("records", 0, "num_labeled"), MISSING, "records[0].num_labeled is missing"),
        (ExperimentResult, ("records", 2, "pool_accuracy"), MISSING, "records[2].pool_accuracy is missing"),
        (ExperimentResult, ("records", 0, "eval_accuracy"), MISSING, "records[0].eval_accuracy is missing"),
        (
            ExperimentResult,
            ("records", 1, "balanced_eval_accuracy"),
            MISSING,
            "records[1].balanced_eval_accuracy is missing",
        ),
        (ExperimentResult, ("strategy_name",), 3, "strategy_name must be a string"),
        (ExperimentResult, ("records",), {}, "records must be a list"),
        (ExperimentResult, ("records", 0), 3, "records[0] must be an object"),
        (ExperimentResult, ("records", 0, "pool_accuracy"), "0.5", "records[0].pool_accuracy must be a number"),
        (ExperimentResult, ("records", 0, "num_labeled"), True, "records[0].num_labeled must be a number"),
        (ExperimentResult, ("records", 0, "num_labeled"), 2.5, "records[0].num_labeled must be a whole number"),
        (ExperimentResult, ("records", 1, "selection_seconds"), None, "records[1].selection_seconds must be"),
        (AggregateResult, ("strategy_name",), MISSING, "strategy_name is missing"),
        (AggregateResult, ("trials", 0, "dataset_name"), MISSING, "trials[0].dataset_name is missing"),
        (
            AggregateResult,
            ("trials", 1, "records", 0, "pool_accuracy"),
            MISSING,
            "trials[1].records[0].pool_accuracy is missing",
        ),
        (AggregateResult, ("trials",), "x", "trials must be a list"),
        (AggregateResult, ("trials", 0), None, "trials[0] must be an object"),
        (
            AggregateResult,
            ("trials", 0, "records", 0, "eval_accuracy"),
            [],
            "trials[0].records[0].eval_accuracy must be a number",
        ),
    ],
)
def test_malformed_file_names_the_field(tmp_path, container, keys, value, name):
    """A missing or mistyped key is a ``ValueError`` naming its path, not a
    bare ``KeyError``/``TypeError`` and not a silent coercion."""

    result = _experiment() if container is ExperimentResult else _aggregate()
    payload = result.to_dict()
    *parents, key = keys
    section = payload
    for parent in parents:
        section = section[parent]
    if value is MISSING:
        del section[key]
    else:
        section[key] = value
    path = tmp_path / "result.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(name)):
        container.load(path)


@pytest.mark.parametrize("container", [ExperimentResult, AggregateResult])
def test_non_object_file_rejected(tmp_path, container):
    path = tmp_path / "result.json"
    path.write_text("[]")
    with pytest.raises(ValueError, match="top level must be an object"):
        container.load(path)
