"""Matrix-free Hessian matvecs (Lemma 2 of the paper).

For a vectorized weight ``v in R^{dc}`` with reshaped matrix ``V in R^{d x c}``
(columns ``v_k``), the per-point Hessian-vector product is

    H_i v = stack_k [ (x_i^T v_k - x_i^T V h_i) h_i^k x_i ]          (Lemma 2)

computed in ``O(dc)`` time and ``O(c)`` extra storage per point instead of the
``O(d^2 c^2)`` of a dense matvec (Table III).  Weighted sums over points —
``H_p v``, ``H_z v`` and hence ``Sigma_z v = H_o v + H_z v`` — then reduce to
two einsum contractions over the whole point set (Eq. 13), which is what the
paper's CuPy implementation evaluates on the GPU.  All contractions route
through the active array backend.
"""

from __future__ import annotations

from typing import Optional

from repro.backend import Array, get_backend
from repro.utils.validation import check_features, check_probabilities, require

__all__ = [
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
    Array with the same shape as ``V``.

    Complexity ``O(n c d s)`` — the CG-dominating cost in Table II/IV.
    """

    backend = get_backend()
    X = check_features(X)
    H = check_probabilities(H)
    require(X.shape[0] == H.shape[0], "X and H must describe the same points")
    n, d = int(X.shape[0]), int(X.shape[1])
    c = int(H.shape[1])
    Vr, single = _reshape_probe(V, d, c)
    v_dtype = backend.xp.asarray(V).dtype

    X64 = backend.ascompute(X)
    H64 = backend.ascompute(H)
    Vr = backend.ascompute(Vr)

    # t[i, k, s] = x_i^T v_k^{(s)}
    t = backend.einsum("id,kds->iks", X64, Vr, optimize=True)
    # a[i, s] = x_i^T V^{(s)} h_i
    a = backend.einsum("iks,ik->is", t, H64, optimize=True)
    # gamma = (t - a) ⊙ h, computed in place on t (the projection tensor is
    # not needed afterwards).
    gamma = t
    gamma -= a[:, None, :]
    gamma *= H64[:, :, None]
    if weights is not None:
        w = backend.ascompute(weights).ravel()
        require(tuple(w.shape) == (n,), "weights must have shape (n,)")
        gamma *= w[:, None, None]
    out = backend.einsum("iks,id->kds", gamma, X64, optimize=True)
    out = backend.astype(out.reshape(d * c, -1), v_dtype)
    return out[:, 0] if single else out


def probe_hessian_quadratic_forms(X: Array, H: Array, V: Array, W: Array) -> Array:
    """Per-point quadratic forms ``v_j^T H_i w_j`` averaged over probes.

    Line 9 of Algorithm 2 estimates every gradient entry as

        g_i ≈ -(1/s) sum_j v_j^T H_i w_j,   w_j = Sigma_z^{-1} H_p Sigma_z^{-1} v_j.

    Using Lemma 2, ``v^T H_i w = sum_k h_i^k (x_i^T v_k)(x_i^T w_k)
    - (x_i^T V h_i)(x_i^T W h_i)`` which this routine evaluates for all points
    and probes with three einsum contractions (no per-point loop).

    Returns
    -------
    Array of shape ``(n,)`` holding ``(1/s) sum_j v_j^T H_i w_j`` — i.e. the
    *negated* gradient estimate.
    """

    backend = get_backend()
    X = check_features(X)
    H = check_probabilities(H)
    d = int(X.shape[1])
    c = int(H.shape[1])
    Vr, _ = _reshape_probe(V, d, c)
    Wr, _ = _reshape_probe(W, d, c)
    require(tuple(Vr.shape) == tuple(Wr.shape), "V and W must have the same shape")
    s = int(Vr.shape[2])

    X64 = backend.ascompute(X)
    H64 = backend.ascompute(H)
    tv = backend.einsum("id,kds->iks", X64, backend.ascompute(Vr), optimize=True)
    tw = backend.einsum("id,kds->iks", X64, backend.ascompute(Wr), optimize=True)
    # sum_k h_k (x^T v_k)(x^T w_k)
    term1 = backend.einsum("ik,iks,iks->is", H64, tv, tw, optimize=True)
    # (x^T V h)(x^T W h)
    av = backend.einsum("iks,ik->is", tv, H64, optimize=True)
    aw = backend.einsum("iks,ik->is", tw, H64, optimize=True)
    per_probe = term1 - av * aw
    return backend.xp.sum(per_probe, axis=1) / float(s)
