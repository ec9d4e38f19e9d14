"""Tests for the validation helpers."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_features,
    check_labels,
    check_positive_int,
    check_probabilities,
    check_square_blocks,
    require,
)


def test_require_passes_on_true():
    require(True, "never raised")


def test_require_raises_with_message():
    with pytest.raises(ValueError, match="custom message"):
        require(False, "custom message")


class TestCheckPositiveInt:
    @pytest.mark.parametrize("value", [1, 7, np.int64(3), np.uint8(2)], ids=repr)
    def test_returns_builtin_int(self, value):
        out = check_positive_int(value, "n")
        assert out == value and type(out) is int

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2", None], ids=repr)
    def test_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match=r"^n must be an integer \(got "):
            check_positive_int(value, "n")

    @pytest.mark.parametrize("value", [0, -3], ids=repr)
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match=rf"^n must be positive \(got {value}\)$"):
            check_positive_int(value, "n")


class TestCheckFeatures:
    def test_accepts_valid_matrix(self):
        X = np.random.default_rng(0).standard_normal((5, 3))
        out = check_features(X)
        assert out.shape == (5, 3)

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            check_features(np.zeros(5))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            check_features(np.zeros((0, 3)))

    def test_rejects_integer_dtype(self):
        with pytest.raises(ValueError, match="floating"):
            check_features(np.zeros((2, 2), dtype=np.int64))

    def test_rejects_nan(self):
        X = np.zeros((2, 2))
        X[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            check_features(X)


class TestCheckLabels:
    def test_accepts_valid_labels(self):
        y = check_labels(np.array([0, 1, 2]), num_classes=3)
        assert y.shape == (3,)

    def test_rejects_float_labels(self):
        with pytest.raises(ValueError, match="integer"):
            check_labels(np.array([0.0, 1.0]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            check_labels(np.array([0, -1]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="num_classes"):
            check_labels(np.array([0, 3]), num_classes=3)

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            check_labels(np.zeros((2, 2), dtype=np.int64))


class TestCheckProbabilities:
    def test_accepts_valid_rows(self):
        H = np.array([[0.2, 0.8], [0.5, 0.5]])
        out = check_probabilities(H, num_classes=2)
        assert out.shape == (2, 2)

    def test_rejects_wrong_class_count(self):
        H = np.array([[0.2, 0.8]])
        with pytest.raises(ValueError, match="columns"):
            check_probabilities(H, num_classes=3)

    def test_rejects_negative_probability(self):
        H = np.array([[-0.2, 1.2]])
        with pytest.raises(ValueError, match="negative"):
            check_probabilities(H)

    def test_accepts_substochastic_rows(self):
        """Reduced (c-1) parameterization rows sum to less than 1."""

        H = np.array([[0.3, 0.3], [0.1, 0.2]])
        out = check_probabilities(H)
        assert out.shape == (2, 2)

    def test_rejects_rows_summing_above_one(self):
        H = np.array([[0.9, 0.9]])
        with pytest.raises(ValueError, match="at most 1"):
            check_probabilities(H)

    def test_rejects_all_zero_rows(self):
        H = np.array([[0.0, 0.0]])
        with pytest.raises(ValueError, match="all zero"):
            check_probabilities(H)

    def test_rejects_nan(self):
        H = np.array([[np.nan, 1.0]])
        with pytest.raises(ValueError, match="NaN"):
            check_probabilities(H)


class TestCheckSquareBlocks:
    def test_accepts_stack_of_square_blocks(self):
        out = check_square_blocks(np.zeros((3, 4, 4)))
        assert out.shape == (3, 4, 4)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            check_square_blocks(np.zeros((3, 4, 5)))

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="3-D"):
            check_square_blocks(np.zeros((4, 4)))

    def test_rejects_inf(self):
        blocks = np.zeros((1, 2, 2))
        blocks[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            check_square_blocks(blocks)
