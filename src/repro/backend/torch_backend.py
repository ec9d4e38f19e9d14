"""Optional PyTorch backend (CPU or CUDA) behind a NumPy-compatible shim.

PyTorch stands in for the paper's CuPy/A100 path in this reproduction: the
same dispatch seam that selected ``cupy`` vs ``numpy`` selects
``TorchBackend`` vs :class:`~repro.backend.numpy_backend.NumpyBackend`.  The
import is guarded — the module always imports, and :func:`torch_available`
reports whether the backend can actually be constructed — so environments
without torch lose nothing but the extra backend.

The shim (:class:`TorchNamespace`) implements the NumPy API *subset the
algorithm layers use* on top of ``torch``: axis→dim translation, NumPy-style
dtype specs, value-only ``max``/``min`` reductions, and a ``linalg``
sub-namespace.  Anything not explicitly wrapped falls through to the
same-named ``torch`` attribute.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import Array, ArrayBackend

__all__ = ["TorchBackend", "TorchNamespace", "torch_available"]

# Lazily imported torch module.  Importing this module (which `repro.backend`
# does unconditionally) must never import torch itself — machines that have
# torch installed but use the default NumPy backend should not pay torch's
# import cost.  The first *use* of the torch backend triggers the import.
_torch = None


def torch_available() -> bool:
    """Whether the optional PyTorch backend can be constructed.

    Probes for the distribution without importing it, so calling this (e.g.
    from the registry's availability listing) stays cheap on machines where
    torch is installed but unused.
    """

    if _torch is not None:
        return True
    import importlib.util

    try:
        return importlib.util.find_spec("torch") is not None
    except (ImportError, ValueError):  # pragma: no cover - broken installs
        return False


def _require_torch():
    global _torch
    if _torch is None:
        try:
            import torch
        except ImportError as exc:
            raise ImportError(
                "the 'torch' backend requires PyTorch; install it with "
                "`pip install firal-repro[torch]` or select the default backend "
                "via repro.set_backend('numpy') / REPRO_BACKEND=numpy"
            ) from exc
        _torch = torch
    return _torch


def _torch_dtype(dtype):
    """Translate a NumPy-style dtype spec into a ``torch.dtype``."""

    torch = _require_torch()
    if dtype is None:
        return None
    if isinstance(dtype, torch.dtype):
        return dtype
    key = np.dtype(dtype).name
    mapping = {
        "float16": torch.float16,
        "float32": torch.float32,
        "float64": torch.float64,
        "int32": torch.int32,
        "int64": torch.int64,
        "bool": torch.bool,
    }
    if key not in mapping:
        raise ValueError(f"dtype {dtype!r} has no torch equivalent")
    return mapping[key]


class _TorchLinalg:
    """``xp.linalg`` facade over ``torch.linalg``."""

    def norm(self, a, axis=None):
        torch = _require_torch()
        if axis is None:
            return torch.linalg.vector_norm(a)
        return torch.linalg.vector_norm(a, dim=axis)

    def solve(self, a, b):
        return _require_torch().linalg.solve(a, b)

    def inv(self, a):
        return _require_torch().linalg.inv(a)

    def cholesky(self, a):
        return _require_torch().linalg.cholesky(a)

    def eigh(self, a):
        out = _require_torch().linalg.eigh(a)
        return out.eigenvalues, out.eigenvectors

    def eigvalsh(self, a):
        return _require_torch().linalg.eigvalsh(a)


class TorchNamespace:
    """NumPy-compatible namespace over ``torch`` (the backend's ``xp``).

    Only the API surface exercised by :mod:`repro`'s algorithm layers is
    translated; unknown attributes fall back to ``torch`` itself, which
    already aliases a large part of the NumPy vocabulary (``einsum``,
    ``where``, ``exp``, ``log``, ``sqrt``, …).
    """

    def __init__(self, device: str = "cpu"):
        _require_torch()
        self.device = device
        self.linalg = _TorchLinalg()

    # -- dtype vocabulary ------------------------------------------------ #
    @property
    def float32(self):
        return _torch.float32

    @property
    def float64(self):
        return _torch.float64

    @property
    def int64(self):
        return _torch.int64

    @property
    def bool_(self):
        return _torch.bool

    @property
    def inf(self):
        return float("inf")

    @property
    def newaxis(self):
        return None

    # -- construction ---------------------------------------------------- #
    def asarray(self, a, dtype=None):
        torch = _require_torch()
        dt = _torch_dtype(dtype)
        if isinstance(a, torch.Tensor):
            out = a.to(self.device) if str(a.device) != self.device else a
            return out.to(dt) if dt is not None and out.dtype != dt else out
        if isinstance(a, np.ndarray):
            out = torch.as_tensor(a, device=self.device)
            return out.to(dt) if dt is not None and out.dtype != dt else out
        return torch.as_tensor(a, dtype=dt, device=self.device)

    def _shape(self, shape):
        return (shape,) if isinstance(shape, int) else tuple(shape)

    def empty(self, shape, dtype=None):
        return _torch.empty(self._shape(shape), dtype=_torch_dtype(dtype), device=self.device)

    def zeros(self, shape, dtype=None):
        return _torch.zeros(self._shape(shape), dtype=_torch_dtype(dtype), device=self.device)

    def ones(self, shape, dtype=None):
        return _torch.ones(self._shape(shape), dtype=_torch_dtype(dtype), device=self.device)

    def full(self, shape, fill_value, dtype=None):
        return _torch.full(
            self._shape(shape), fill_value, dtype=_torch_dtype(dtype), device=self.device
        )

    def eye(self, n, dtype=None):
        return _torch.eye(n, dtype=_torch_dtype(dtype), device=self.device)

    def arange(self, *args, dtype=None):
        return _torch.arange(*args, dtype=_torch_dtype(dtype), device=self.device)

    def zeros_like(self, a):
        return _torch.zeros_like(a)

    def empty_like(self, a):
        return _torch.empty_like(a)

    def copy(self, a):
        return self.asarray(a).clone()

    def broadcast_to(self, a, shape):
        return _torch.broadcast_to(self.asarray(a), self._shape(shape))

    # -- shape & joining -------------------------------------------------- #
    def concatenate(self, arrays, axis=0):
        return _torch.cat([self.asarray(a) for a in arrays], dim=axis)

    def stack(self, arrays, axis=0):
        return _torch.stack([self.asarray(a) for a in arrays], dim=axis)

    def transpose(self, a, axes):
        return _torch.permute(a, tuple(axes))

    def swapaxes(self, a, axis1, axis2):
        return _torch.swapaxes(a, axis1, axis2)

    def ravel(self, a):
        return self.asarray(a).reshape(-1)

    # -- elementwise & selection ------------------------------------------ #
    def where(self, condition, x, y):
        torch = _require_torch()
        condition = self.asarray(condition)
        if not isinstance(x, torch.Tensor) and not isinstance(y, torch.Tensor):
            x = self.asarray(x)
        return torch.where(condition, x, y)

    def clip(self, a, a_min=None, a_max=None):
        return _torch.clamp(self.asarray(a), min=a_min, max=a_max)

    def maximum(self, a, b):
        return _torch.maximum(self.asarray(a), self.asarray(b))

    def minimum(self, a, b):
        return _torch.minimum(self.asarray(a), self.asarray(b))

    def abs(self, a):
        return _torch.abs(self.asarray(a))

    def sign(self, a):
        return _torch.sign(self.asarray(a))

    def isfinite(self, a):
        return _torch.isfinite(self.asarray(a))

    def outer(self, a, b):
        return _torch.outer(self.asarray(a), self.asarray(b))

    def kron(self, a, b):
        return _torch.kron(self.asarray(a), self.asarray(b))

    def diag(self, a):
        return _torch.diag(self.asarray(a))

    def trace(self, a):
        return _torch.trace(a)

    # -- reductions (value-only, NumPy semantics) -------------------------- #
    def sum(self, a, axis=None):
        a = self.asarray(a)
        return a.sum() if axis is None else a.sum(dim=axis)

    def mean(self, a, axis=None):
        a = self.asarray(a)
        return a.mean() if axis is None else a.mean(dim=axis)

    def max(self, a, axis=None):
        a = self.asarray(a)
        return a.max() if axis is None else _torch.amax(a, dim=axis)

    def min(self, a, axis=None):
        a = self.asarray(a)
        return a.min() if axis is None else _torch.amin(a, dim=axis)

    def argmax(self, a, axis=None):
        a = self.asarray(a)
        return a.argmax() if axis is None else a.argmax(dim=axis)

    def all(self, a, axis=None):
        a = self.asarray(a)
        return a.all() if axis is None else a.all(dim=axis)

    def any(self, a, axis=None):
        a = self.asarray(a)
        return a.any() if axis is None else a.any(dim=axis)

    def cumsum(self, a, axis=0):
        return _torch.cumsum(self.asarray(a), dim=axis)

    def std(self, a, axis=None, ddof=0):
        a = self.asarray(a)
        if axis is None:
            return _torch.std(a, correction=ddof)
        return _torch.std(a, dim=axis, correction=ddof)

    # -- math fallthrough -------------------------------------------------- #
    def einsum(self, subscripts, *operands):
        return _torch.einsum(subscripts, *[self.asarray(op) for op in operands])

    def __getattr__(self, name):
        # exp, log, sqrt, sort, argsort, … — torch aliases NumPy's names.
        return getattr(_require_torch(), name)


class TorchBackend(ArrayBackend):
    """Array backend backed by PyTorch tensors on ``device``."""

    name = "torch"

    def __init__(self, device: str = "cpu"):
        torch = _require_torch()
        if device.startswith("cuda") and not torch.cuda.is_available():
            raise RuntimeError(
                f"torch backend requested device {device!r} but CUDA is not available"
            )
        self._device = device
        self.xp = TorchNamespace(device)

    # ------------------------------------------------------------------ #
    @property
    def device(self) -> str:
        return self._device

    def native_dtype(self, dtype):
        return _torch_dtype(dtype)

    def asarray(self, a, dtype=None) -> Array:
        return self.xp.asarray(a, dtype=dtype)

    def astype(self, a: Array, dtype) -> Array:
        return self.xp.asarray(a).to(_torch_dtype(dtype))

    def copy(self, a: Array) -> Array:
        return self.xp.copy(a)

    def to_numpy(self, a: Array) -> np.ndarray:
        torch = _require_torch()
        if isinstance(a, torch.Tensor):
            return a.detach().cpu().numpy()
        return np.asarray(a)

    def from_host(self, a: np.ndarray, dtype=None) -> Array:
        return self.xp.asarray(np.ascontiguousarray(a), dtype=dtype)

    def is_floating(self, a: Array) -> bool:
        return self.xp.asarray(a).dtype.is_floating_point

    def is_integer(self, a: Array) -> bool:
        dt = self.xp.asarray(a).dtype
        return not dt.is_floating_point and not dt.is_complex and dt != _torch.bool

    def nbytes(self, a: Array) -> int:
        t = self.xp.asarray(a)
        return int(t.numel() * t.element_size())

    # ------------------------------------------------------------------ #
    def einsum(self, subscripts: str, *operands, optimize: bool = False) -> Array:
        # torch chooses its own contraction path.
        del optimize
        return self.xp.einsum(subscripts, *operands)
