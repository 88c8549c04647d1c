"""Minimal reverse-mode automatic differentiation over numpy arrays.

Everything is float64. A Tensor wraps an ndarray plus an optional
gradient; operations build a graph of backward closures which
``backward()`` replays in reverse topological order. Only the ops the
network needs are implemented; all of them support the broadcasting
that numpy itself performs, with gradients summed back to the original
shapes.

The engine is deliberately free of global state so repeated runs with
identical inputs are bit-reproducible.
"""

from __future__ import annotations

import numpy as np


def _as_array(x) -> np.ndarray:
    if isinstance(x, np.ndarray):
        return x.astype(np.float64, copy=False)
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, grad: np.ndarray):
        """Add an incoming gradient. A leaf (no ``_backward``) owns its
        gradient array, so no two parameters ever share one; an
        intermediate node borrows the first incoming array and adds
        later ones out of place, so it never writes into an array that
        another node may hold."""
        if self._backward is None:
            if self.grad is None:
                self.grad = np.array(grad, dtype=np.float64)
            else:
                self.grad += grad
        elif self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad=None):
        """Reverse-mode sweep from this tensor (seed defaults to ones).

        Leaves keep their accumulated ``.grad``; an intermediate node's
        ``.grad`` is released as soon as its backward closure has used
        it, so the sweep holds only the gradients still to be consumed.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        self.grad = np.array(grad, dtype=np.float64)

        # iterative topological sort; graphs get deep enough that
        # recursion would hit the interpreter limit
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    # -- binary ops -------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = _make(self.data + other.data, (self, other))
        if out.requires_grad:
            def bwd(g, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(g, a.data.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(g, b.data.shape))
            out._backward = bwd
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = _make(self.data - other.data, (self, other))
        if out.requires_grad:
            def bwd(g, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(g, a.data.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(-g, b.data.shape))
            out._backward = bwd
        return out

    def __rsub__(self, other):
        return Tensor(other) - self

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = _make(self.data * other.data, (self, other))
        if out.requires_grad:
            def bwd(g, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(g * b.data, a.data.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(g * a.data, b.data.shape))
            out._backward = bwd
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = _make(self.data / other.data, (self, other))
        if out.requires_grad:
            def bwd(g, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(g / b.data, a.data.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data),
                                               b.data.shape))
            out._backward = bwd
        return out

    def __rtruediv__(self, other):
        return Tensor(other) / self

    def __neg__(self):
        out = _make(-self.data, (self,))
        if out.requires_grad:
            def bwd(g, a=self):
                a._accumulate(-g)
            out._backward = bwd
        return out

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = _make(np.matmul(self.data, other.data), (self, other))
        if out.requires_grad:
            def bwd(g, a=self, b=other):
                if a.requires_grad:
                    ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
                    a._accumulate(_unbroadcast(ga, a.data.shape))
                if b.requires_grad and b.data.ndim == 2:
                    # one GEMM over all leading axes, not a per-matrix
                    # product summed afterwards
                    c_in, c_out = b.data.shape
                    b._accumulate(a.data.reshape(-1, c_in).T @ g.reshape(-1, c_out))
                elif b.requires_grad:
                    gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
                    b._accumulate(_unbroadcast(gb, b.data.shape))
            out._backward = bwd
        return out

    # -- unary ops --------------------------------------------------

    def relu(self):
        out = _make(np.maximum(self.data, 0.0), (self,))
        if out.requires_grad:
            mask = self.data > 0.0
            def bwd(g, a=self, m=mask):
                a._accumulate(g * m)
            out._backward = bwd
        return out

    def exp(self):
        out = _make(np.exp(self.data), (self,))
        if out.requires_grad:
            def bwd(g, a=self, y=out.data):
                a._accumulate(g * y)
            out._backward = bwd
        return out

    def log(self):
        out = _make(np.log(self.data), (self,))
        if out.requires_grad:
            def bwd(g, a=self):
                a._accumulate(g / a.data)
            out._backward = bwd
        return out

    def sqrt(self):
        """Square root whose gradient at exactly 0 is taken as 0.

        The zero convention keeps batch-hard losses finite when two
        embeddings in a batch coincide.
        """
        out = _make(np.sqrt(self.data), (self,))
        if out.requires_grad:
            def bwd(g, a=self, y=out.data):
                safe = np.where(y > 0.0, y, 1.0)
                a._accumulate(np.where(y > 0.0, g / (2.0 * safe), 0.0))
            out._backward = bwd
        return out

    def square(self):
        out = _make(self.data * self.data, (self,))
        if out.requires_grad:
            def bwd(g, a=self):
                a._accumulate(g * 2.0 * a.data)
            out._backward = bwd
        return out

    # -- reductions -------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            def bwd(g, a=self, axis=axis, keepdims=keepdims):
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                a._accumulate(np.broadcast_to(g, a.data.shape))
            out._backward = bwd
        return out

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else _axis_count(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis, keepdims=False):
        """Max along one axis; gradient routes to the first argmax."""
        data = self.data
        out_data = data.max(axis=axis, keepdims=keepdims)
        out = _make(out_data, (self,))
        if out.requires_grad:
            idx = data.argmax(axis=axis)
            def bwd(g, a=self, axis=axis, keepdims=keepdims, idx=idx):
                if not keepdims:
                    g_exp = np.expand_dims(g, axis)
                else:
                    g_exp = g
                grad = np.zeros_like(a.data)
                np.put_along_axis(grad, np.expand_dims(idx, axis), g_exp, axis)
                a._accumulate(grad)
            out._backward = bwd
        return out

    # -- shape ops --------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _make(self.data.reshape(shape), (self,))
        if out.requires_grad:
            def bwd(g, a=self):
                a._accumulate(g.reshape(a.data.shape))
            out._backward = bwd
        return out

    def transpose(self, axes):
        out = _make(self.data.transpose(axes), (self,))
        if out.requires_grad:
            inv = np.argsort(axes)
            def bwd(g, a=self, inv=tuple(inv)):
                a._accumulate(g.transpose(inv))
            out._backward = bwd
        return out

    def __getitem__(self, key):
        out = _make(self.data[key], (self,))
        if out.requires_grad:
            def bwd(g, a=self, key=key):
                grad = np.zeros_like(a.data)
                grad[key] = g
                a._accumulate(grad)
            out._backward = bwd
        return out

    def take(self, indices, axis):
        """Gather along an axis; repeated indices scatter-add on the
        way back, unique ones are assigned."""
        indices = np.asarray(indices)
        out = _make(np.take(self.data, indices, axis=axis), (self,))
        if out.requires_grad:
            repeats = np.unique(indices).size < indices.size
            def bwd(g, a=self, indices=indices, axis=axis, repeats=repeats):
                grad = np.zeros_like(a.data)
                gm = np.moveaxis(grad, axis, 0)
                if repeats:
                    np.add.at(gm, indices, np.moveaxis(g, axis, 0))
                else:
                    gm[indices] = np.moveaxis(g, axis, 0)
                a._accumulate(grad)
            out._backward = bwd
        return out


def _make(data: np.ndarray, parents) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
    return out


def _axis_count(shape, axis):
    if isinstance(axis, int):
        axis = (axis,)
    n = 1
    for a in axis:
        n *= shape[a]
    return n


def concat(tensors, axis=0) -> Tensor:
    datas = [t.data for t in tensors]
    out = _make(np.concatenate(datas, axis=axis), tuple(tensors))
    if out.requires_grad:
        sizes = [d.shape[axis] for d in datas]
        def bwd(g, tensors=tuple(tensors), sizes=sizes, axis=axis):
            start = 0
            for t, size in zip(tensors, sizes):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(start, start + size)
                    t._accumulate(g[tuple(sl)])
                start += size
        out._backward = bwd
    return out


def _softmax(data: np.ndarray, axis=-1, mask=None) -> np.ndarray:
    """Softmax over ``axis``; a binary mask excludes entries from the
    normalization (their output is 0)."""
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), data.shape)
        shifted = np.where(mask, data, -np.inf)
        m = shifted.max(axis=axis, keepdims=True)
        # rows that are fully masked would produce nan; keep them at 0
        m = np.where(np.isfinite(m), m, 0.0)
        e = np.exp(np.where(mask, data - m, -np.inf))
    else:
        m = data.max(axis=axis, keepdims=True)
        e = np.exp(data - m)
    denom = e.sum(axis=axis, keepdims=True)
    denom = np.where(denom == 0.0, 1.0, denom)
    return e / denom


def stop_gradient(x: Tensor) -> Tensor:
    return Tensor(x.data)


# -- fused network ops ------------------------------------------------
#
# Each replaces a chain of generic nodes with one node whose backward is
# written out, so the sweep allocates one gradient per input instead of
# one per intermediate, and a node keeps only what its backward cannot
# cheaply rebuild; the rest is recomputed by the forward's exact
# operations, so values and gradients match a stored tape bit for bit.
# Given only constant tensors they build no graph, which is how a
# block's inference path runs them.


def _stacked(tensors, axis: int) -> np.ndarray:
    return np.concatenate([t.data for t in tensors], axis=axis)


def _attention(f: np.ndarray, w_q: np.ndarray, w_k: np.ndarray,
               mask: np.ndarray, k: int):
    """(pooled, queries, keys, attention) of the attention term of
    ``spatial_graph_conv`` on (N, T, V, C_in) features, for the K
    query and key projections stacked to (C_in, K*C_e)."""
    n, t, v, _ = f.shape
    ce = w_q.shape[1] // k
    pooled = f.sum(axis=1) * (1.0 / t)                          # (N, V, C_in)
    q = (pooled @ w_q).reshape(n, v, k, ce).transpose(0, 2, 1, 3)
    key = (pooled @ w_k).reshape(n, v, k, ce).transpose(0, 2, 1, 3)
    sim = np.matmul(q, key.swapaxes(-1, -2)) * (1.0 / np.sqrt(ce))
    return pooled, q, key, _softmax(sim, -1, mask > 0)       # (N, K, V, V)


def spatial_graph_conv(f_in: Tensor, fixed: np.ndarray, mask: np.ndarray,
                       learned, weights, attn_q=(), attn_k=()) -> Tensor:
    """Spatial step of a part-aware graph block as one node:
    ``out[..., u, :] = sum_k (sum_v A_k[v, u] * f_in[..., v, :]) @ W_k``
    with the combined adjacency ``A_k = (fixed_k + learned_k + att_k) * mask``.

    ``f_in`` is (N, T, V, C_in); ``fixed`` (K, V, V) and ``mask`` (V, V)
    are constants; ``learned`` holds K (V, V) tensors, ``weights`` K
    (C_in, C_out) tensors, and ``attn_q``/``attn_k`` K (C_in, C_e)
    tensors each, or nothing for no attention term.

    The attention pools the temporal mean of ``f_in`` once, projects it
    with one GEMM each for queries and keys (the K projections stacked to
    (C_in, K*C_e)) and runs one softmax over (N, K, V, V) normalized
    within the mask, so a row's attention is exactly 0 outside its part.
    Joints are aggregated by one batched product with the stacked
    (V*K, V) adjacency, channels mixed by one GEMM with the stacked
    (K*C_in, C_out) weights; aggregating first keeps the widest buffer at
    K*C_in channels, never K*C_out. A masked adjacency entry is exactly
    0, so it adds exactly 0, and backward masks the adjacency gradient,
    so a masked learned entry gets a gradient of exactly 0.

    The node keeps only its input and the stacked adjacency ((V*K, V),
    or (N, 1, V*K, V) with attention). Backward rebuilds the aggregated
    (N, T, V*K, C_in) features, the widest array of the step, by the
    forward's own batched product, uses them for the weight gradient and
    frees them before the aggregate's gradient is formed; it rebuilds
    the attention term and the stacked weights the same way, so every
    gradient is bit-identical to one computed from stored arrays.
    """
    n, t, v, c_in = f_in.shape
    k = len(weights)
    c_out = weights[0].shape[1]
    adj = fixed + np.stack([a.data for a in learned])              # (K, V, V)
    if attn_q:
        adj = adj + _attention(f_in.data, _stacked(attn_q, 1),
                               _stacked(attn_k, 1), mask, k)[3]    # (N, K, V, V)
    adj *= mask
    per_sequence = adj.ndim == 4
    # stacked[.., u*K + k, v] = A_k[.., v, u]; the K rows of a joint are
    # adjacent, so the reshape to the GEMM operand copies nothing
    stacked = np.moveaxis(adj, -1, -3).reshape(adj.shape[:-3] + (v * k, v))
    if per_sequence:
        stacked = stacked[:, None]                                  # (N, 1, V*K, V)
    agg = np.matmul(stacked, f_in.data).reshape(-1, k * c_in)
    out = _make((agg @ _stacked(weights, 0)).reshape(n, t, v, c_out),
                (f_in, *learned, *weights, *attn_q, *attn_k))
    if not out.requires_grad:
        return out

    def bwd(g):
        f = f_in.data
        g = g.reshape(-1, c_out)
        if any(wk.requires_grad for wk in weights):
            agg = np.matmul(stacked, f).reshape(-1, k * c_in)
            g_w = agg.T @ g
            del agg
            for i, wk in enumerate(weights):
                if wk.requires_grad:
                    wk._accumulate(g_w[i * c_in:(i + 1) * c_in])
        g_agg = (g @ _stacked(weights, 0).T).reshape(n, t, v * k, c_in)
        g_f = None
        if f_in.requires_grad:
            g_f = np.matmul(np.swapaxes(stacked, -1, -2), g_agg)
        # per-frame (V*K, C_in) @ (C_in, V) products summed over frames:
        # faster here than one (V*K, T*C_in) GEMM per sequence
        g_adj = np.matmul(g_agg, np.swapaxes(f, -1, -2))
        del g_agg
        g_adj = g_adj.sum(axis=1 if per_sequence else (0, 1))
        g_adj = np.moveaxis(g_adj.reshape(g_adj.shape[:-2] + (v, k, v)), -3, -1)
        g_adj *= mask                                               # (.., K, V, V)
        g_learned = g_adj.sum(axis=0) if per_sequence else g_adj
        for i, a in enumerate(learned):
            if a.requires_grad:
                a._accumulate(g_learned[i])
        if attn_q:
            w_q, w_k = _stacked(attn_q, 1), _stacked(attn_k, 1)
            pooled, q, key, att = _attention(f, w_q, w_k, mask, k)
            ce = w_q.shape[1] // k
            # softmax backward; a masked entry has att == 0, so its
            # similarity gets exactly 0
            g_sim = g_adj - (g_adj * att).sum(axis=-1, keepdims=True)
            g_sim *= att
            g_sim *= 1.0 / np.sqrt(ce)
            g_q = np.matmul(g_sim, key).transpose(0, 2, 1, 3).reshape(-1, k * ce)
            g_key = np.matmul(g_sim.swapaxes(-1, -2), q)
            g_key = g_key.transpose(0, 2, 1, 3).reshape(-1, k * ce)
            flat_pooled = pooled.reshape(-1, c_in)
            for proj, g_proj in ((attn_q, g_q), (attn_k, g_key)):
                if any(a.requires_grad for a in proj):
                    g_stacked = flat_pooled.T @ g_proj
                    for i, a in enumerate(proj):
                        if a.requires_grad:
                            a._accumulate(g_stacked[:, i * ce:(i + 1) * ce])
            if g_f is not None:
                g_pooled = g_q @ w_q.T
                g_pooled += g_key @ w_k.T
                g_pooled *= 1.0 / t
                g_f += g_pooled.reshape(n, 1, v, c_in)
        if g_f is not None:
            f_in._accumulate(g_f)

    out._backward = bwd
    return out


def _tap_windows(k: int, t: int):
    """(tap, output frames, input frames) of each kernel tap of a
    same-padded length-k convolution over t frames, centre tap first,
    skipping taps that touch no frame: output frame f reads input frame
    f + tap - k // 2."""
    taps = []
    for d in sorted(range(k), key=lambda d: abs(d - k // 2)):
        s = d - k // 2
        if abs(s) < t:
            taps.append((d, slice(max(0, -s), t - max(0, s)),
                         slice(max(0, s), t + min(0, s))))
    return taps


def _temporal_conv(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Array kernel of ``temporal_conv``."""
    (centre, _, _), *side_taps = _tap_windows(kernel.shape[0], x.shape[1])
    out = x * kernel[centre]
    for d, o, i in side_taps:
        out[:, o] += x[:, i] * kernel[d]
    return out


def _temporal_conv_grads(g, x, kernel, need_x: bool, need_kernel: bool):
    """(input gradient, kernel gradient) of ``temporal_conv``; None for
    the one not needed."""
    (centre, _, _), *side_taps = _tap_windows(kernel.shape[0], x.shape[1])
    gx = gk = None
    if need_x:
        gx = g * kernel[centre]
        for d, o, i in side_taps:
            gx[:, i] += g[:, o] * kernel[d]
    if need_kernel:
        gk = np.zeros_like(kernel)
        gk[centre] = np.einsum("ntvc,ntvc->c", g, x)
        for d, o, i in side_taps:
            gk[d] = np.einsum("ntvc,ntvc->c", g[:, o], x[:, i])
    return gx, gk


def temporal_conv(x: Tensor, kernel: Tensor) -> Tensor:
    """Depthwise convolution along the frame axis of a (N, T, V, C)
    input with a (k, C) kernel, stride 1, zero padding that preserves T
    (works for T=1 and T < k)."""
    out = _make(_temporal_conv(x.data, kernel.data), (x, kernel))
    if out.requires_grad:
        def bwd(g, x=x, kernel=kernel):
            gx, gk = _temporal_conv_grads(g, x.data, kernel.data,
                                          x.requires_grad, kernel.requires_grad)
            if gx is not None:
                x._accumulate(gx)
            if gk is not None:
                kernel._accumulate(gk)
        out._backward = bwd
    return out


def _bn_normalize(x: np.ndarray, eps: float, out: np.ndarray = None):
    """Normalize the columns of an (M, C) array with the batch's biased
    statistics: returns (xhat, mean, variance, std), the statistics
    shaped (C,). ``xhat`` is written to ``out`` (``x`` itself is
    allowed), or to a new array."""
    inv_count = 1.0 / x.shape[0]
    mu = x.sum(axis=0) * inv_count
    xhat = np.subtract(x, mu, out=out)      # centred, then scaled below
    var = np.einsum("ij,ij->j", xhat, xhat) * inv_count
    std = np.sqrt(var + eps)
    xhat /= std
    return xhat, mu, var, std


def _bn_xhat(x: np.ndarray, mu: np.ndarray, std: np.ndarray,
             out: np.ndarray = None) -> np.ndarray:
    """The normalized input again, by the forward's exact operations,
    written to ``out`` or to a new array."""
    xhat = np.subtract(x, mu, out=out)
    xhat /= std
    return xhat


def _bn_backward(g, xhat, std, gamma, out=None):
    """(input, gamma, beta) gradients of batch norm over the rows of
    (M, C) arrays; the input gradient is written to ``out`` (``xhat``
    itself is allowed), or to a new array."""
    inv_count = 1.0 / g.shape[0]
    g_sum = g.sum(axis=0)
    gx_sum = np.einsum("ij,ij->j", g, xhat)
    # gamma / std * (g - mean(g) - xhat * mean(g * xhat))
    gx = np.multiply(xhat, -gx_sum * inv_count, out=out)
    gx += g
    gx -= g_sum * inv_count
    gx *= gamma / std
    return gx, gx_sum, g_sum


def batch_norm_train(x: Tensor, gamma: Tensor, beta: Tensor, axes: tuple,
                     eps: float):
    """Training-mode batch norm over ``axes``, which must be every axis
    but the last (the channel axis):
    ``(x - mean) / sqrt(var + eps) * gamma + beta`` with the batch's
    biased statistics.

    Returns (output, batch mean, batch variance); the statistics are
    arrays shaped like ``gamma``. Backward recomputes the normalized
    input from ``x`` instead of keeping it.
    """
    if tuple(axes) != tuple(range(x.ndim - 1)):
        raise ValueError(f"batch norm over axes {axes} of a {x.ndim}-d input: "
                         "only every axis but the channel axis is supported")
    x2 = x.data.reshape(-1, x.shape[-1])
    data, mu, var, std = _bn_normalize(x2, eps)
    data *= gamma.data
    data += beta.data
    out = _make(data.reshape(x.shape), (x, gamma, beta))
    if out.requires_grad:
        def bwd(g, x=x, gamma=gamma, beta=beta):
            xhat = _bn_xhat(x2, mu, std)
            gx, g_gamma, g_beta = _bn_backward(g.reshape(x2.shape), xhat, std,
                                               gamma.data, out=xhat)
            if gamma.requires_grad:
                gamma._accumulate(g_gamma)
            if beta.requires_grad:
                beta._accumulate(g_beta)
            if x.requires_grad:
                x._accumulate(gx.reshape(x.shape))
        out._backward = bwd
    return out, mu.reshape(gamma.shape), var.reshape(gamma.shape)


def _bn_relu(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
             out: np.ndarray = None) -> np.ndarray:
    """``relu(xhat * gamma + beta)``, written to ``out`` (``xhat``
    itself is allowed) or to a new array."""
    h = np.multiply(xhat, gamma, out=out)
    h += beta
    np.maximum(h, 0.0, out=h)
    return h


def block_epilogue(y: Tensor, gamma1: Tensor, beta1: Tensor, kernel: Tensor,
                   gamma2: Tensor, beta2: Tensor, eps: float,
                   residual: Tensor = None):
    """The rest of a part-aware graph block after its spatial step, as
    one node: ``relu(bn2(temporal_conv(relu(bn1(y)), kernel)))``, plus
    ``residual`` when given, with training-mode batch norms.

    ``y`` is (N, T, V, C); batch statistics are reduced over its
    (-1, C) view. Returns (output, (mean1, var1), (mean2, var2)), the
    statistics shaped (C,). Each ReLU runs in place on its batch-norm
    output, and the forward frees the first ReLU's output and the second
    normalized array as soon as it has used them. The node keeps its
    input ``y``, the per-channel means and standard deviations and the
    second ReLU's mask as a bool array. Backward rebuilds, once each and
    by the forward's exact operations, the first normalized array (which
    the first batch norm's gradient uses too), the first ReLU's output
    from it (whose mask is ``> 0``) and the second normalized array, so
    every gradient is bit-identical to one computed from stored arrays.
    """
    shape, c = y.shape, y.shape[-1]
    h, mu1, var1, std1 = _bn_normalize(y.data.reshape(-1, c), eps)
    _bn_relu(h, gamma1.data, beta1.data, out=h)
    xhat2 = _temporal_conv(h.reshape(shape), kernel.data).reshape(-1, c)
    del h
    xhat2, mu2, var2, std2 = _bn_normalize(xhat2, eps, out=xhat2)
    r = _bn_relu(xhat2, gamma2.data, beta2.data).reshape(shape)
    del xhat2
    active2 = r > 0.0                       # the second ReLU's mask
    if residual is not None:
        r += residual.data
    parents = (y, gamma1, beta1, kernel, gamma2, beta2)
    out = _make(r, parents if residual is None else parents + (residual,))
    stats = ((mu1, var1), (mu2, var2))
    if not out.requires_grad:
        return (out, *stats)

    def bwd(g):
        if residual is not None and residual.requires_grad:
            residual._accumulate(g)
        xhat1 = _bn_xhat(y.data.reshape(-1, c), mu1, std1)
        h = _bn_relu(xhat1, gamma1.data, beta1.data).reshape(shape)
        xhat2 = _temporal_conv(h, kernel.data).reshape(-1, c)
        _bn_xhat(xhat2, mu2, std2, out=xhat2)
        g_z, g_gamma2, g_beta2 = _bn_backward((g * active2).reshape(-1, c), xhat2,
                                              std2, gamma2.data, out=xhat2)
        g_h, g_kernel = _temporal_conv_grads(g_z.reshape(shape), h, kernel.data,
                                             True, kernel.requires_grad)
        del g_z, xhat2
        g_h *= h > 0.0
        del h
        g_y, g_gamma1, g_beta1 = _bn_backward(g_h.reshape(-1, c), xhat1, std1,
                                              gamma1.data, out=xhat1)
        for t, grad in ((gamma2, g_gamma2), (beta2, g_beta2), (kernel, g_kernel),
                        (gamma1, g_gamma1), (beta1, g_beta1),
                        (y, g_y.reshape(shape))):
            if t.requires_grad:
                t._accumulate(grad)

    out._backward = bwd
    return (out, *stats)
