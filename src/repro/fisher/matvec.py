"""Matrix-free Hessian matvecs (Lemma 2 of the paper).

For a vectorized weight ``v in R^{dc}`` with reshaped matrix ``V in R^{d x c}``
(columns ``v_k``), the per-point Hessian-vector product is

    H_i v = stack_k [ (x_i^T v_k - x_i^T V h_i) h_i^k x_i ]          (Lemma 2)

computed in ``O(dc)`` time and ``O(c)`` extra storage per point instead of the
``O(d^2 c^2)`` of a dense matvec (Table III).  Weighted sums over points —
``H_p v``, ``H_z v`` and hence ``Sigma_z v = H_o v + H_z v``, one pass over
the pool and labeled rows together — are evaluated for the whole point set
at once (Eq. 13) by a :class:`HessianSumOperator`, prepared once per
validated point set, with three matrix products:

1. ``T = V_r X^T``: one GEMM of the ``(c s, d)`` probe slices against the
   transposed features, into a contiguous buffer read as ``(c, s, n)``
   (``T[k, j, i] = x_i^T v_k^{(j)}``);
2. ``a[i, j] = h_i^T T[:, j, i]``: a matmul batched over points, on the
   ``(n, c, s)`` view of that buffer;
3. ``X^T Gamma``: one GEMM of the transposed features against the F-order
   ``(n, c s)`` view of the buffer after the elementwise updates
   ``T -= a`` and ``T *= f`` (run in the buffer's own order).

The ``(c, 1, n)`` factor ``f`` is ``h`` for an unweighted sum (``H_p``,
``H_o``) and ``h ⊙ w`` for weights ``w``, formed once by
:meth:`HessianSumOperator.prepare`.  A weighted product therefore
multiplies ``T`` by the one product ``h_i^k w_i``, which can differ in the
last bit from multiplying by ``h_i^k`` and then by ``w_i``.  The prepared
apply (:class:`PreparedHessianSum`) keeps the factor and its scratch for
all its calls, so RELAX's CG iterations, which share ``z`` for a whole
mirror-descent step, pay for neither again.

Layout rule: each product reads its operands in the layouts NumPy's
``einsum(optimize=True)`` hands to ``matmul`` for the contractions
``"id,kds->iks"``, ``"iks,ik->is"`` and ``"iks,id->kds"``, so whenever
``d`` and ``s`` are above 1 the results are bit-identical to those einsums
(at ``d = 1`` or ``s = 1`` the einsum drops the unit axis and lowers
differently), without depending on an einsum planner.  The reused
projection buffer is the contiguous ``(c s, n)`` array the first GEMM would
allocate, so writing into it changes no operand layout.  The Line-9 gradient
(:meth:`HessianSumOperator.probe_quadratic_forms`) follows the same rule.
A different operand layout reaches BLAS as a different call and can move the
last bits of every selection.  All products route through the active array
backend (``xp.matmul``/``xp.transpose``).
"""

from __future__ import annotations

from typing import Optional

from repro.backend import COMPUTE_DTYPE, Array, get_backend
from repro.utils.validation import check_features, check_probabilities, require

__all__ = [
    "HessianSumOperator",
    "PreparedHessianSum",
    "hessian_sum_matvec",
    "single_point_hessian_matvec",
    "probe_hessian_quadratic_forms",
]


def _reshape_probe(V: Array, d: int, c: int):
    """Reshape ``(dc,)`` or ``(dc, s)`` probes into ``(c, d, s)`` slices."""

    V = get_backend().xp.asarray(V)
    single = V.ndim == 1
    if single:
        V = V[:, None]
    require(V.ndim == 2, "probe array must be 1-D or 2-D")
    require(V.shape[0] == d * c, f"probe length {V.shape[0]} != d*c = {d * c}")
    return V.reshape(c, d, V.shape[1]), single


def single_point_hessian_matvec(x: Array, h: Array, v: Array) -> Array:
    """Evaluate ``H_i v`` for a single point via Lemma 2.

    Steps ❶–❹ of the paper: ``gamma = V^T x``, ``alpha = gamma^T h``,
    ``gamma = (gamma - alpha) ⊙ h``, ``H_i v = vec(gamma ⊗ x)``.
    """

    backend = get_backend()
    x = backend.ascompute(x).ravel()
    h = backend.ascompute(h).ravel()
    d, c = int(x.shape[0]), int(h.shape[0])
    Vr, single = _reshape_probe(v, d, c)
    Vr = backend.ascompute(Vr)

    # gamma[k, s] = x^T v_k^{(s)}
    gamma = backend.einsum("d,kds->ks", x, Vr)
    # alpha[s] = sum_k gamma[k, s] h[k] = x^T V h
    alpha = backend.einsum("ks,k->s", gamma, h)
    gamma = (gamma - alpha[None, :]) * h[:, None]
    out = backend.einsum("ks,d->kds", gamma, x).reshape(d * c, -1)
    return out[:, 0] if single else out


class HessianSumOperator:
    """``V -> (sum_i w_i H_i) V`` (Lemma 2), prepared for one point set.

    Holds the compute-dtype features ``X`` ``(n, d)``, their transpose view
    and the probabilities ``H`` ``(n, c)`` in the layouts the kernel's
    matrix products read (module docstring), so a call runs only those
    products and the elementwise ``gamma`` updates.  Build it from arrays
    that already passed :func:`~repro.utils.validation.check_features` /
    :func:`~repro.utils.validation.check_probabilities`; it does not check
    them again.  Each RELAX solve builds one, over a rank's pool rows and its
    share of the labeled rows (:class:`~repro.fisher.SigmaOperator`).
    """

    def __init__(self, X: Array, H: Array):
        backend = get_backend()
        xp = backend.xp
        require(X.shape[0] == H.shape[0], "X and H must describe the same points")
        self.X = backend.ascompute(X)
        self.H = backend.ascompute(H)
        self.num_points, self.dimension = int(self.X.shape[0]), int(self.X.shape[1])
        self.num_classes = int(self.H.shape[1])
        n, c = self.num_points, self.num_classes
        self._XT = xp.transpose(self.X, (1, 0))
        # h_i as a row and as a column for the per-point products, and as
        # h[k, i] broadcast over probes for the update in (k, s, i) order.
        self._h_rows = self.H.reshape(n, 1, c)
        self._h_cols = self.H.reshape(n, c, 1)
        self._h_by_class = xp.transpose(self.H, (1, 0))[:, None, :]

    def prepare(self, weights: Optional[Array] = None) -> "PreparedHessianSum":
        """``V -> (sum_i w_i H_i) V`` with ``weights`` folded in once.

        ``weights=None`` means all ones (``H_p`` or ``H_o``); otherwise the
        ``(n,)`` weights are checked here and multiplied into the ``(c, 1, n)``
        factor ``h ⊙ w`` that every apply of the result multiplies by.
        """

        factor = self._h_by_class
        if weights is not None:
            w = get_backend().ascompute(weights).ravel()
            require(tuple(w.shape) == (self.num_points,), "weights must have shape (n,)")
            factor = factor * w
        return PreparedHessianSum(self, factor)

    def matvec(self, V: Array, weights: Optional[Array] = None) -> Array:
        """``(sum_i w_i H_i) V`` for ``V`` of shape ``(dc,)`` or ``(dc, s)``.

        One :meth:`prepare` and one apply.  ``weights=None`` means all ones
        (``H_p V`` or ``H_o V``).  The result has ``V``'s shape, and its
        dtype when that is floating (float64 otherwise).
        """

        return self.prepare(weights).matvec(V)

    def probe_quadratic_forms(self, V: Array, W: Array) -> Array:
        """Per-point quadratic forms ``v_j^T H_i w_j`` averaged over probes.

        Line 9 of Algorithm 2 estimates every gradient entry as

            g_i ≈ -(1/s) sum_j v_j^T H_i w_j,   w_j = Sigma_z^{-1} H_p Sigma_z^{-1} v_j.

        By Lemma 2, ``v^T H_i w = sum_k h_i^k (x_i^T v_k)(x_i^T w_k)
        - (x_i^T V h_i)(x_i^T W h_i)``: two projections, their product
        contracted with ``h_i`` per point, and two ``a`` contractions.
        Returns the ``(n,)`` array ``(1/s) sum_j v_j^T H_i w_j``, i.e. the
        *negated* gradient estimate.
        """

        xp = get_backend().xp
        n, d, c = self.num_points, self.dimension, self.num_classes
        Vr, _ = _reshape_probe(V, d, c)
        Wr, _ = _reshape_probe(W, d, c)
        require(tuple(Vr.shape) == tuple(Wr.shape), "V and W must have the same shape")
        s = int(Vr.shape[2])
        tv = self._project(Vr)
        tw = self._project(Wr)
        # sum_k h_k (x^T v_k)(x^T w_k): the product in (k, s, i) order,
        # contracted with each point's h.
        term1 = xp.matmul(xp.transpose(tv * tw, (2, 1, 0)), self._h_cols).reshape(n, s)
        per_probe = term1 - self._contract_probabilities(tv) * self._contract_probabilities(tw)
        return xp.sum(per_probe, axis=1) / float(s)

    def _project(self, Vr: Array, out: Optional[Array] = None) -> Array:
        """``T[k, j, i] = x_i^T v_k^{(j)}``: one GEMM into a contiguous ``(c, s, n)`` buffer.

        ``out`` is a contiguous ``(c s, n)`` compute-dtype buffer to write
        into; ``None`` allocates one.
        """

        backend = get_backend()
        xp = backend.xp
        c, d, s = (int(size) for size in Vr.shape)
        slices = xp.transpose(backend.ascompute(Vr), (0, 2, 1)).reshape(c * s, d)
        return xp.matmul(slices, self._XT, out=out).reshape(c, s, self.num_points)

    def _contract_probabilities(self, T: Array) -> Array:
        """``a[i, j] = sum_k h_i^k T[k, j, i]``, batched over points; shape ``(n, s)``."""

        xp = get_backend().xp
        return xp.matmul(self._h_rows, xp.transpose(T, (2, 0, 1))).reshape(self.num_points, -1)


class PreparedHessianSum:
    """``V -> (sum_i w_i H_i) V`` for weights fixed at preparation.

    Made by :meth:`HessianSumOperator.prepare` from the ``(c, 1, n)`` factor
    ``h ⊙ w``.  The first apply with ``s`` probes lays out scratch that every
    later apply with ``s`` probes reuses, so a CG solve's iterations allocate
    none of it:

    * the ``(c s, n)`` projection buffer, and the F-order ``(n, c s)`` view
      of it that the last GEMM reads;
    * the factor spread over the probes, ``(c, s, n)``, so ``T *= f`` is one
      contiguous pass rather than a broadcast over ``s`` (on NumPy, ``c s``
      inner loops of length ``n``);
    * an ``(s, n)`` buffer for ``a``, so ``T -= a`` reads it contiguously
      rather than transposed.

    These updates are elementwise, so the layouts leave every value as it
    was.  The scratch, ``(2 c + 1) s n`` values, is held until
    :meth:`release`, and makes an instance single-threaded: each RELAX solve
    prepares its own, and the operator it was prepared from holds none.
    """

    def __init__(self, operator: HessianSumOperator, factor: Array):
        self.operator = operator
        self._factor = factor
        self.release()

    def release(self) -> None:
        """Free the scratch; the next apply lays it out again."""

        self._buffer = self._gamma = self._spread = self._contracted = None
        self._probes = None

    def _lay_out(self, s: int) -> None:
        """Allocate the scratch for ``s`` probes (class docstring)."""

        backend = get_backend()
        xp = backend.xp
        n, c = self.operator.num_points, self.operator.num_classes
        self._buffer = backend.empty((c * s, n), dtype=COMPUTE_DTYPE)
        self._gamma = xp.transpose(self._buffer, (1, 0))
        self._spread = backend.empty((c, s, n), dtype=COMPUTE_DTYPE)
        self._spread[...] = self._factor
        self._contracted = backend.empty((s, n), dtype=COMPUTE_DTYPE)
        self._probes = s

    def matvec(self, V: Array) -> Array:
        """The prepared sum applied to ``V`` of shape ``(dc,)`` or ``(dc, s)``.

        The result has ``V``'s shape, and its dtype when that is floating
        (float64 otherwise).
        """

        backend = get_backend()
        xp = backend.xp
        op = self.operator
        d, c = op.dimension, op.num_classes
        Vr, single = _reshape_probe(V, d, c)
        s = int(Vr.shape[2])
        if s != self._probes:
            self._lay_out(s)
        gamma = op._project(Vr, out=self._buffer)
        self._contracted[...] = xp.transpose(op._contract_probabilities(gamma), (1, 0))
        gamma -= self._contracted
        gamma *= self._spread
        out = xp.matmul(op._XT, self._gamma)
        out = xp.transpose(out.reshape(d, c, s), (1, 0, 2)).reshape(d * c, s)
        if backend.is_floating(Vr):
            out = backend.astype(out, Vr.dtype)
        return out[:, 0] if single else out


def hessian_sum_matvec(X: Array, H: Array, V: Array, weights: Optional[Array] = None) -> Array:
    """Evaluate ``(sum_i w_i H_i) V`` matrix-free for one or more probes.

    Parameters
    ----------
    X:
        Point features, shape ``(n, d)``.
    H:
        Class probabilities, shape ``(n, c)``.
    V:
        Probe vector(s), shape ``(dc,)`` or ``(dc, s)``.
    weights:
        Optional per-point weights ``w`` (e.g. the relaxed ``z``); ``None``
        means all ones (giving ``H_p V`` or ``H_o V``).

    Returns
    -------
    Array with the same shape as ``V``, in ``V``'s dtype when that is
    floating and in float64 otherwise.

    Complexity ``O(n c d s)`` — the CG-dominating cost in Table II/IV.  The
    inputs are validated, then :meth:`HessianSumOperator.matvec` runs.
    """

    return HessianSumOperator(check_features(X), check_probabilities(H)).matvec(V, weights)


def probe_hessian_quadratic_forms(X: Array, H: Array, V: Array, W: Array) -> Array:
    """Per-point quadratic forms ``v_j^T H_i w_j`` averaged over probes.

    The validated entry point of
    :meth:`HessianSumOperator.probe_quadratic_forms` (Line 9 of Algorithm 2).

    Returns
    -------
    Array of shape ``(n,)`` holding ``(1/s) sum_j v_j^T H_i w_j`` — i.e. the
    *negated* gradient estimate.
    """

    return HessianSumOperator(check_features(X), check_probabilities(H)).probe_quadratic_forms(V, W)
