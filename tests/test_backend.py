"""Tests for the array backend abstraction."""

import numpy as np

from repro import backend


def test_get_array_module_returns_numpy():
    assert backend.get_array_module() is np
    assert backend.get_array_module(np.zeros(3)) is np


def test_default_dtype_is_float32():
    assert backend.default_dtype() == np.dtype(np.float32)
    assert backend.DEFAULT_DTYPE is np.float32


def test_asarray_uses_default_dtype():
    arr = backend.asarray([1, 2, 3])
    assert arr.dtype == np.float32


def test_asarray_dtype_override():
    arr = backend.asarray([1, 2, 3], dtype=np.float64)
    assert arr.dtype == np.float64
