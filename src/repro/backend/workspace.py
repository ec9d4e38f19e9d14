"""Reusable scratch buffers for the iterative hot loops.

The ROUND step (Algorithm 3) evaluates the same contractions with the same
shapes at every greedy step and every η grid trial (the candidate scores,
the fused Proposition-4 intermediates, the ``(c, d, d)`` block accumulators).
A :class:`Workspace` hands out named, shape/dtype-keyed buffers allocated
once through the active backend and reused across steps, so the loop stops
paying an allocator round-trip per contraction — the CPU analogue of the
memory-pool reuse CuPy performs on the GPU.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.backend.base import Array, ArrayBackend

__all__ = ["Workspace"]


def _dtype_key(backend: ArrayBackend, dtype) -> str:
    return str(backend.native_dtype(dtype))


class Workspace:
    """Named scratch-buffer pool bound to one backend.

    ``get(name, shape, dtype)`` returns the same buffer object for the same
    key, allocating on first use.  Shapes are part of the key, so buffers of
    different sizes requested under one name never alias.  Buffer contents
    are *not* zeroed on reuse unless asked (``zero=True``) — callers own the
    overwrite (every use in the library writes via ``out=`` or full-slice
    assignment).  A workspace holds per-solve scratch, so it must never be
    shared by two solves running concurrently.
    """

    def __init__(self, backend: ArrayBackend):
        self.backend = backend
        self._buffers: Dict[Tuple[str, Tuple[int, ...], str], Array] = {}

    def get(self, name: str, shape, dtype, *, zero: bool = False) -> Array:
        """Return the (possibly newly allocated) buffer for ``name``/``shape``.

        With ``zero=True`` the buffer is zero-filled before being handed out
        (every call, not just on allocation) — for accumulators such as the
        ROUND step's ``B_{t+1}`` update that must restart from zero when the
        same workspace is shared across η grid trials.
        """

        key = (name, tuple(int(s) for s in shape), _dtype_key(self.backend, dtype))
        buf = self._buffers.get(key)
        if buf is None:
            buf = self.backend.empty(key[1], dtype=dtype)
            self._buffers[key] = buf
        if zero:
            buf[...] = 0
        return buf

    def __len__(self) -> int:
        return len(self._buffers)

    def clear(self) -> None:
        self._buffers.clear()
