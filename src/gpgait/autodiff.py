"""Minimal reverse-mode automatic differentiation over numpy arrays.

Everything is float64. A Tensor wraps an ndarray plus an optional
gradient and has no arithmetic of its own. Each op of the network and
its losses is one fused node with a hand-written backward closure: a
training block (``graph_block``), a branch's part pooling
(``group_pool``), the heads' fc layer (``slot_fc``) and BNNeck plus
classifier (``bnneck_classifier``), and the losses (``train``).
``backward()`` replays the closures in reverse topological order.

The engine is deliberately free of global state so repeated runs with
identical inputs are bit-reproducible.

Trainable parameters are ``Role`` tensors placed in an ``Arena``: one
flat array for their values and one of the same layout for their
gradients. A role stacks the same-shaped parameters of one kind along
its first axis, so a fused op reads it as one array and hands back its
gradient in one copy.
"""

from __future__ import annotations

import copy

import numpy as np


def _as_array(x) -> np.ndarray:
    if isinstance(x, np.ndarray):
        return x.astype(np.float64, copy=False)
    return np.asarray(x, dtype=np.float64)


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
        """Drop the gradient."""
        self.grad = None

    def _accumulate(self, grad: np.ndarray):
        """Add an incoming gradient of this tensor's shape. A leaf (no
        ``_backward``) owns its gradient array, so no two parameters ever
        share one: a copy of the first, or a role's region of its arena
        (``Role``). An intermediate node borrows the first incoming array
        and adds later ones out of place, so it never writes into an
        array that another node may hold."""
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


def _make(data: np.ndarray, parents) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
    return out


# -- parameter arenas -------------------------------------------------

ARENA_ALIGN = 8     # floats: every role starts on a 64-byte boundary


class Role(Tensor):
    """A trainable parameter tensor whose values are a region of its
    arena's value array and whose gradient, once it has one, is the same
    region of the arena's gradient array (``Arena``). A role stacks the
    same-shaped parameters of one kind along its first axis, a block's K
    subset weights as one (K, C_in, C_out) role for example, so a fused
    op reads it as one array and hands back its gradient in one copy.

    ``zero_grad`` only drops the gradient: the next sweep's first
    gradient is copied over the region, later ones are added onto it.
    A region whose role got no gradient keeps its old values until
    ``train.adam_step`` clears it. A role refers to its arena, and the
    arena to no role, so a model is freed without the cycle collector.
    """

    __slots__ = ("arena", "start")

    def __init__(self, shape, fill: float = 0.0):
        """A role for an ``Arena`` to place, its values ``fill``; until
        then they are a read-only placeholder."""
        super().__init__(np.broadcast_to(fill, shape), requires_grad=True)
        self.arena, self.start = None, 0

    def view(self, flat: np.ndarray) -> np.ndarray:
        """This role's region of ``flat``, an array of its arena's layout
        (the values, gradients or Adam moments), shaped as the role."""
        return flat[self.start:self.start + self.data.size].reshape(self.data.shape)

    def __deepcopy__(self, memo):
        """A role of a copy of the arena, which every role copied in one
        ``copy.deepcopy`` call shares, at the same place."""
        out = Role(self.data.shape)
        out.arena, out.start = copy.deepcopy(self.arena, memo), self.start
        out.requires_grad = self.requires_grad
        out.data = out.view(out.arena.data)
        if self.grad is not None:
            out.grad = out.view(out.arena.grad)
        return out

    def _accumulate(self, grad: np.ndarray):
        if self.grad is None:
            arena = self.arena
            if arena.grad is None:      # so a model that never trains holds none
                arena.grad = np.zeros(arena.size)
            self.grad = self.view(arena.grad)
            np.copyto(self.grad, grad)
        else:
            self.grad += grad


class Arena:
    """One flat float64 array holding the values of many roles, and one of
    the same layout for their gradients (``grad``), made on the first
    gradient.

    ``Arena(roles)`` lays the roles out in order, each starting on an
    ``ARENA_ALIGN`` boundary (the padding stays 0), and makes each one's
    ``data`` its region of the value array, holding its fill value.
    ``train.adam_step`` updates runs of regions as flat arrays.
    """

    def __init__(self, roles):
        start = 0
        for role in roles:
            role.arena, role.start = self, start
            start += -(-role.data.size // ARENA_ALIGN) * ARENA_ALIGN
        self.size = start
        self.data = np.zeros(start)
        self.grad = None
        for role in roles:
            view = role.view(self.data)
            view[...] = role.data
            role.data = view


def group_pool(x: Tensor, groups) -> Tensor:
    """(N, T, V, C) -> (N, G, C): per group of joints (a non-empty index
    sequence), the mean plus the max over its joints, then the max over
    frames, as one node. The means are one product with the (G, V)
    matrix of joint shares and the maxima one in-place pass over the
    (group, joint) pairs, so no gathered copy of the input is made. A
    group whose joints are exactly those of the earlier groups inside
    it (the whole body after its parts) takes the max of their maxima
    instead; max is exact, so the values are the same. A max's gradient
    goes to its first argmax frame and joint."""
    n, t, v, c = x.shape
    group, joint = np.array([(p, j) for p, members in enumerate(groups)
                             for j in members]).T
    weight = 1.0 / np.bincount(group)[group]              # per (group, joint) pair
    share = np.zeros((len(groups), v))
    np.add.at(share, (group, joint), weight)
    peak = np.empty((len(groups), n, t, c))                # group-major: contiguous rows
    members = [set(m) for m in groups]
    for p, row in enumerate(peak):
        inside = [q for q in range(p) if members[q] <= members[p]]
        if inside and set().union(*(members[q] for q in inside)) == members[p]:
            first, *rest = (peak[q] for q in inside)
        else:
            first, *rest = (x.data[:, :, j] for j in groups[p])
        np.copyto(row, first)
        for other in rest:
            np.maximum(row, other, out=row)
    per_frame = np.matmul(share, x.data)
    per_frame += np.moveaxis(peak, 0, 2)
    out = _make(per_frame.max(axis=1), (x,))
    if out.requires_grad:
        rows = np.arange(n)[:, None, None] * t + per_frame.argmax(axis=1)  # (N, G, C)
        chan = np.arange(c)
        # each group padded with its first joint, so argmax over the
        # padded joints at the max's frame finds the first maximum
        width = max(len(m) for m in groups)
        padded = np.array([list(m) + [m[0]] * (width - len(m)) for m in groups])

        def bwd(g):
            at = x.data.reshape(n * t, v, c)[rows[:, :, None], padded[:, :, None], chan]
            first = padded[np.arange(len(groups))[:, None], at.argmax(axis=2)]
            cells = np.concatenate([
                ((rows[:, group] * v + joint[:, None]) * c + chan).ravel(),
                ((rows * v + first) * c + chan).ravel()])
            weights = np.concatenate([(g[:, group] * weight[:, None]).ravel(), g.ravel()])
            x._accumulate(np.bincount(cells, weights, x.data.size).reshape(x.shape))
        out._backward = bwd
    return out


def _softmax(data: np.ndarray, axis, mask) -> np.ndarray:
    """Softmax over ``axis`` within a binary mask: masked entries are
    excluded from the normalization (their output is 0)."""
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), data.shape)
    m = np.where(mask, data, -np.inf).max(axis=axis, keepdims=True)
    # rows that are fully masked would produce nan; keep them at 0
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(np.where(mask, data - m, -np.inf))
    denom = e.sum(axis=axis, keepdims=True)
    denom = np.where(denom == 0.0, 1.0, denom)
    return e / denom


# -- fused network ops ------------------------------------------------
#
# Each is one node whose backward is written out, so the sweep
# allocates one gradient per input, not one per intermediate step, and
# a node keeps only what its backward cannot cheaply rebuild; the rest
# is recomputed by the forward's exact operations, so values and
# gradients match a stored tape bit for bit.
# A training block is one ``graph_block`` node, which keeps its input
# and no (N, T, V, C) array of its own; the heads are two nodes
# (``slot_fc``, ``bnneck_classifier``). Given only constant tensors the
# ops build no graph; a block's inference pass (``pagcn._inference_block``)
# calls the array kernels below directly.


def _projections(attn_q: np.ndarray, attn_k: np.ndarray) -> list:
    """The (K, C_in, C_e) query and key projections, each joined along
    their columns to one (C_in, K*C_e) operand."""
    return [np.concatenate(proj, axis=1) for proj in (attn_q, attn_k)]


def _queries_keys(pooled: np.ndarray, w_q: np.ndarray, w_k: np.ndarray, k: int):
    """(N, K, V, C_e) queries and keys of the (N, V, C_in) pooled
    features, one GEMM each with the stacked projections
    (``_projections``)."""
    n, v, _ = pooled.shape
    return [(pooled @ w).reshape(n, v, k, -1).transpose(0, 2, 1, 3)
            for w in (w_q, w_k)]


def _attention(f: np.ndarray, attn_q: np.ndarray, attn_k: np.ndarray,
               mask: np.ndarray):
    """(pooled, attention) of the attention term of a block's spatial
    step on (N, T, V, C_in) features, given the (K, C_in, C_e)
    projections: the temporal mean pooled once to (N, V, C_in), its
    queries and keys (``_queries_keys``), and one softmax over
    (N, K, V, V) normalized within the mask, so a row's attention is
    exactly 0 outside its part."""
    pooled = f.sum(axis=1) * (1.0 / f.shape[1])
    q, key = _queries_keys(pooled, *_projections(attn_q, attn_k), len(attn_q))
    sim = np.matmul(q, key.swapaxes(-1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    return pooled, _softmax(sim, -1, mask > 0)


def _stacked_adjacency(fixed: np.ndarray, mask: np.ndarray, learned: np.ndarray,
                       att: np.ndarray = None) -> np.ndarray:
    """The combined adjacency ``(fixed_k + learned_k + att_k) * mask`` of
    a block's spatial step, stacked to the operand of its batched
    product: (V*K, V), or (N, 1, V*K, V) with the (N, K, V, V) attention
    ``att``. A masked entry is exactly 0, so it adds exactly 0."""
    k, v = len(learned), fixed.shape[-1]
    adj = fixed + learned                                       # (K, V, V)
    if att is not None:
        adj = adj + att                                         # (N, K, V, V)
    adj *= mask
    # stacked[.., u*K + k, v] = A_k[.., v, u]; the K rows of a joint are
    # adjacent, so the reshape to the GEMM operand copies nothing
    stacked = np.moveaxis(adj, -1, -3).reshape(adj.shape[:-3] + (v * k, v))
    return stacked[:, None] if adj.ndim == 4 else stacked


def _spatial_input_grads(g: np.ndarray, f_in: Tensor, stacked: np.ndarray,
                         mask: np.ndarray, learned: Tensor, w: np.ndarray,
                         attn_q: Tensor, attn_k: Tensor, pooled: np.ndarray,
                         att: np.ndarray):
    """Backward of a block's spatial step for the (M, C_out) gradient
    ``g`` of ``y``, less the weight gradient, given the stacked
    (K*C_in, C_out) weights ``w`` and, with attention, the forward's
    pooled features and attention (``_attention``): accumulates the
    learned adjacencies' and the attention projections' gradients and
    returns the input's, or None when ``f_in`` needs none. The adjacency
    gradient is masked, so a masked learned entry gets a gradient of
    exactly 0; the queries and keys are rebuilt by the forward's own
    products."""
    f = f_in.data
    n, t, v, c_in = f.shape
    k = learned.shape[0]
    per_sequence = stacked.ndim == 4
    g_agg = (g @ w.T).reshape(n, t, v * k, c_in)
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
    if learned.requires_grad:
        learned._accumulate(g_adj.sum(axis=0) if per_sequence else g_adj)
    if attn_q is not None:
        w_q, w_k = _projections(attn_q.data, attn_k.data)
        q, key = _queries_keys(pooled, w_q, w_k, k)
        ce = q.shape[-1]
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
            if proj.requires_grad:
                # (C_in, K*C_e) columns back to the K projections
                g_proj = (flat_pooled.T @ g_proj).reshape(c_in, k, ce)
                proj._accumulate(g_proj.swapaxes(0, 1))
        if g_f is not None:
            g_pooled = g_q @ w_q.T
            g_pooled += g_key @ w_k.T
            g_pooled *= 1.0 / t
            g_f += g_pooled.reshape(n, 1, v, c_in)
    return g_f


def _frame_buffer(shape: tuple, k: int):
    """(padded, frames): an (N, T + 2*(k//2), ...) array and its (N, T,
    ...) interior, the view a length-k convolution's input frames are
    written to. Only the k//2 frames on each side of the interior are
    set, to 0, the convolution's same-padding; every caller writes the
    whole interior."""
    p = k // 2
    padded = np.empty((shape[0], shape[1] + 2 * p) + tuple(shape[2:]))
    padded[:, :p] = 0.0
    padded[:, p + shape[1]:] = 0.0
    return padded, padded[:, p:p + shape[1]]


def _taps(padded: np.ndarray, k: int, reverse: bool = False) -> np.ndarray:
    """The (N, k, T, ...) read-only view of a C-contiguous
    ``_frame_buffer`` array whose [n, d, f] is padded frame f + d, or
    with ``reverse`` padded frame f + k - 1 - d (a negative tap stride):
    no copy. It is made on the buffer directly, not by ``as_strided``:
    after some tens of thousands of ``as_strided`` calls the interpreter
    allocated a 0.96 MB dict key table once, which showed in a toy
    training run's peak RSS."""
    s = padded.strides
    shape = (padded.shape[0], k, padded.shape[1] - 2 * (k // 2)) + padded.shape[2:]
    tap, offset = (-s[1], (k - 1) * s[1]) if reverse else (s[1], 0)
    view = np.ndarray(shape, padded.dtype, padded, offset, (s[0], tap) + s[1:])
    view.flags.writeable = False
    return view


def _temporal_conv(padded: np.ndarray, kernel: np.ndarray,
                   out: np.ndarray = None) -> np.ndarray:
    """Depthwise convolution along the frame axis, stride 1, zero
    padding that preserves T (works for T=1 and T < k), of the (N, T,
    ...) frames in the interior of ``padded`` (``_frame_buffer``) with a
    (k, ...) kernel broadcast over the middle axes: output frame f is
    ``sum_d frames[f + d - k//2] * kernel[d]``, one contraction over the
    tap view (``_taps``), its terms added in tap order from 0, written
    to ``out`` or to a new array."""
    return np.einsum("nk...,k...->n...", _taps(padded, kernel.shape[0]), kernel,
                     out=out)


def _temporal_conv_grads(g: np.ndarray, padded: np.ndarray, kernel: np.ndarray,
                         need_kernel: bool, out: np.ndarray = None):
    """(input gradient, kernel gradient) of ``_temporal_conv`` on
    ``padded`` for the (N, T, V, C) gradient ``g`` of its output; None
    for the kernel's when not needed. The kernel gradient is one
    contraction of ``g`` with the tap view of ``padded``. Then ``g`` is
    copied over the frames in ``padded``, whose padding is still 0, and
    the input gradient is one contraction of its reversed tap view:
    input frame f gets ``g[f + k//2 - d] * kernel[d]`` in tap order from
    0. So ``padded`` no longer holds the input afterwards. The input
    gradient is written to ``out`` (``g`` itself is allowed) or to a new
    array."""
    k = kernel.shape[0]
    gk = np.einsum("ntvc,nktvc->kc", g, _taps(padded, k)) if need_kernel else None
    p = k // 2
    np.copyto(padded[:, p:p + g.shape[1]], g)
    gx = np.einsum("nk...,k...->n...", _taps(padded, k, reverse=True), kernel,
                   out=out)
    return gx, gk


def _column_sums(x: np.ndarray) -> np.ndarray:
    """Per-column sums of an (M, C) array, bit-identical to
    ``x.sum(axis=0)``. ``einsum`` adds row after row as numpy's
    reduction does, in one pass at about half its time for C > 1; a
    single column numpy sums pairwise, so it keeps ``sum``."""
    return np.einsum("ij->j", x) if x.shape[1] > 1 else x.sum(axis=0)


def _bn_normalize(x: np.ndarray, eps: float, out: np.ndarray = None):
    """Normalize the columns of an (M, C) array with the batch's biased
    statistics: returns (xhat, mean, variance, std), the statistics
    shaped (C,). ``xhat`` is written to ``out`` (``x`` itself is
    allowed), or to a new array."""
    inv_count = 1.0 / x.shape[0]
    mu = _column_sums(x) * inv_count
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
    g_sum = _column_sums(g)
    gx_sum = np.einsum("ij,ij->j", g, xhat)
    # gamma / std * (g - mean(g) - xhat * mean(g * xhat))
    gx = np.multiply(xhat, -gx_sum * inv_count, out=out)
    gx += g
    gx -= g_sum * inv_count
    gx *= gamma / std
    return gx, gx_sum, g_sum


def _bn_relu(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
             out: np.ndarray = None) -> np.ndarray:
    """``relu(xhat * gamma + beta)``, written to ``out`` (``xhat``
    itself is allowed) or to a new array."""
    h = np.multiply(xhat, gamma, out=out)
    h += beta
    np.maximum(h, 0.0, out=h)
    return h


def graph_block(f_in: Tensor, fixed: np.ndarray, mask: np.ndarray,
                learned: Tensor, weights: Tensor, attn_q: Tensor, attn_k: Tensor,
                gamma1: Tensor, beta1: Tensor, kernel: Tensor, gamma2: Tensor,
                beta2: Tensor, eps: float, residual: bool = False):
    """A part-aware graph block in training as one node:
    ``relu(bn2(temporal_conv(relu(bn1(y)), kernel)))``, plus ``f_in`` when
    ``residual``, where both batch norms use the batch's statistics,
    reduced over the (-1, C_out) view, and ``y`` is the spatial step
    ``y[..., u, :] = sum_k (sum_v A_k[v, u] * f_in[..., v, :]) @ W_k``
    with the combined adjacency ``A_k = (fixed_k + learned_k + att_k) * mask``.

    ``f_in`` is (N, T, V, C_in); ``fixed`` (K, V, V) and ``mask`` (V, V)
    are constants; ``learned`` is (K, V, V), ``weights`` (K, C_in, C_out)
    and ``attn_q``/``attn_k`` (K, C_in, C_e) each, or None for no
    attention term (``_attention``): one tensor per role, its gradient
    handed back in one piece (``Role``). Joints are aggregated by one
    batched product with the stacked (V*K, V) adjacency
    (``_stacked_adjacency``), channels mixed by one GEMM with the
    (K*C_in, C_out) weights; aggregating first keeps the widest buffer
    at K*C_in channels, never K*C_out.

    Returns (output, (mean1, var1), (mean2, var2)), the statistics shaped
    (C_out,). The forward frees the aggregate once ``y`` is formed and
    normalizes it in place. The first ReLU writes its output straight
    into the interior of a zero-padded frame buffer (``_frame_buffer``),
    and ``y``'s buffer is freed. The temporal conv reads that buffer's
    taps as one contraction (``_temporal_conv``) into a new array, where
    the second batch norm and ReLU run in place.

    The node keeps its input, the stacked adjacency, the per-channel
    means and standard deviations and, with attention, the (N, V, C_in)
    pooled features (T times smaller than the input) and the
    (N, K, V, V) attention (the size of the stacked adjacency): no
    (N, T, V, C_out) array. Backward recomputes from the pooled features
    only the two small query and key products (``_queries_keys``), and
    rebuilds, once each and by the forward's exact operations, the
    aggregate and ``y`` from it (normalized in place to the first
    normalized array, which the first batch norm's gradient uses too),
    the first ReLU's output in its frame buffer (its mask is ``> 0``, and
    the kernel gradient reads its taps) and the second normalized array,
    from which the second ReLU's mask is ``xhat2 * gamma2 + beta2 > 0``.
    Once the first ReLU's mask is taken, the temporal conv's gradients
    reuse the frame buffer for the output gradient's frames, and its
    input gradient is written over that output gradient
    (``_temporal_conv_grads``). The gradient of ``y`` goes straight into
    the spatial step's backward (``_spatial_input_grads``), so every
    value is bit-identical to a spatial node and an epilogue node that
    stored their arrays.
    """
    shape = f_in.shape[:-1] + (weights.shape[2],)
    c_agg, c = weights.shape[0] * f_in.shape[-1], shape[-1]
    pooled = att = None
    attention = (attn_q, attn_k) if attn_q is not None else ()
    if attention:
        pooled, att = _attention(f_in.data, attn_q.data, attn_k.data, mask)
    stacked = _stacked_adjacency(fixed, mask, learned.data, att)
    agg = np.matmul(stacked, f_in.data).reshape(-1, c_agg)
    xhat1 = agg @ weights.data.reshape(c_agg, c)             # y, normalized below
    del agg
    xhat1, mu1, var1, std1 = _bn_normalize(xhat1, eps, out=xhat1)
    padded, h = _frame_buffer(shape, kernel.shape[0])
    _bn_relu(xhat1.reshape(shape), gamma1.data, beta1.data, out=h)
    del xhat1, h
    xhat2 = _temporal_conv(padded, kernel.data).reshape(-1, c)
    del padded
    xhat2, mu2, var2, std2 = _bn_normalize(xhat2, eps, out=xhat2)
    r = _bn_relu(xhat2, gamma2.data, beta2.data, out=xhat2).reshape(shape)
    del xhat2
    if residual:
        r += f_in.data
    out = _make(r, (f_in, learned, weights, *attention, gamma1, beta1, kernel,
                    gamma2, beta2))
    stats = ((mu1, var1), (mu2, var2))
    if not out.requires_grad:
        return (out, *stats)

    def bwd(g):
        agg = np.matmul(stacked, f_in.data).reshape(-1, c_agg)
        w = weights.data.reshape(c_agg, c)
        xhat1 = agg @ w
        _bn_xhat(xhat1, mu1, std1, out=xhat1)
        padded, h = _frame_buffer(shape, kernel.shape[0])
        _bn_relu(xhat1.reshape(shape), gamma1.data, beta1.data, out=h)
        xhat2 = _temporal_conv(padded, kernel.data).reshape(-1, c)
        _bn_xhat(xhat2, mu2, std2, out=xhat2)
        g_r = np.multiply(xhat2, gamma2.data)
        g_r += beta2.data
        # the output gradient through the second ReLU
        np.multiply(g.reshape(-1, c), g_r > 0.0, out=g_r)
        g_z, g_gamma2, g_beta2 = _bn_backward(g_r, xhat2, std2, gamma2.data,
                                              out=xhat2)
        del g_r, xhat2
        active = h > 0.0                    # the first ReLU's mask
        del h
        g_z = g_z.reshape(shape)
        g_h, g_kernel = _temporal_conv_grads(g_z, padded, kernel.data,
                                             kernel.requires_grad, out=g_z)
        del g_z, padded
        g_h *= active
        del active
        g_y, g_gamma1, g_beta1 = _bn_backward(g_h.reshape(-1, c), xhat1, std1,
                                              gamma1.data, out=xhat1)
        del g_h
        for t, grad in ((gamma2, g_gamma2), (beta2, g_beta2), (kernel, g_kernel),
                        (gamma1, g_gamma1), (beta1, g_beta1)):
            if t.requires_grad:
                t._accumulate(grad)
        if weights.requires_grad:
            weights._accumulate((agg.T @ g_y).reshape(weights.shape))
        del agg
        g_f = _spatial_input_grads(g_y, f_in, stacked, mask, learned, w,
                                   attn_q, attn_k, pooled, att)
        if g_f is not None:
            if residual:
                g_f += g
            f_in._accumulate(g_f)

    out._backward = bwd
    return (out, *stats)


def slot_fc(pools, weights: Tensor, biases: Tensor) -> Tensor:
    """(S, N, D) metric features of S slots as one node: slot s's (N, C)
    pooled features times its (C, D) weight, plus its (D,) bias.

    ``pools`` are (N, P_b, C) tensors, the branches' pooling outputs
    (``group_pool``); their slots in order are the S slots. ``weights``
    is (S, C, D) and ``biases`` (S, D), a role each, as ``graph_block``
    takes them. The pooled features are joined into one small (N, S, C)
    array, so all slots run as one batched product and each pool gets
    its slice of the input gradient."""
    x = np.concatenate([p.data for p in pools], axis=1).transpose(1, 0, 2)
    w = weights.data                                            # (S, C, D)
    metric = np.matmul(x, w)
    metric += biases.data[:, None]
    out = _make(metric, (*pools, weights, biases))
    if out.requires_grad:
        def bwd(g):
            if biases.requires_grad:
                biases._accumulate(g.sum(axis=1))
            if any(p.requires_grad for p in pools):
                g_x = np.matmul(g, np.swapaxes(w, -1, -2)).transpose(1, 0, 2)
                start = 0
                for p in pools:
                    stop = start + p.shape[1]
                    if p.requires_grad:
                        p._accumulate(g_x[:, start:stop])
                    start = stop
            if weights.requires_grad:
                weights._accumulate(np.matmul(np.swapaxes(x, -1, -2), g))
        out._backward = bwd
    return out


def bnneck_classifier(metric: Tensor, gammas: Tensor, betas: Tensor,
                      classifiers: Tensor, eps: float):
    """BNNeck then classifier of S slots as one node: the (S, N, D)
    metric features normalized as one (N, S*D) batch norm with the
    batch's biased statistics, each slot's columns scaled and shifted by
    its row of the (S, D) ``gammas`` and ``betas``, then multiplied by
    its (D, K) matrix of the (S, D, K) ``classifiers``.

    Returns ((S, N, K) logits, batch mean, batch variance), the
    statistics shaped (S, D). The node keeps the (N, S*D) BNNeck output
    for the classifier's gradient; backward rebuilds the normalized
    input from ``metric`` by the forward's operations (``_bn_xhat``)."""
    s, n, d = metric.shape
    x = metric.data.transpose(1, 0, 2).reshape(n, s * d)
    necked, mu, var, std = _bn_normalize(x, eps)
    del x
    gamma = gammas.data.reshape(s * d)
    necked *= gamma
    necked += betas.data.reshape(s * d)
    necked = necked.reshape(n, s, d).transpose(1, 0, 2)
    w = classifiers.data                                        # (S, D, K)
    out = _make(np.matmul(necked, w), (metric, gammas, betas, classifiers))
    stats = mu.reshape(s, d), var.reshape(s, d)
    if not out.requires_grad:
        return (out, *stats)

    def bwd(g):
        if classifiers.requires_grad:
            classifiers._accumulate(np.matmul(np.swapaxes(necked, -1, -2), g))
        g_necked = np.matmul(g, np.swapaxes(w, -1, -2)).transpose(1, 0, 2)
        xhat = _bn_xhat(metric.data.transpose(1, 0, 2).reshape(n, s * d), mu, std)
        g_x, g_gamma, g_beta = _bn_backward(g_necked.reshape(n, s * d), xhat, std,
                                            gamma, out=xhat)
        for param, grad in ((gammas, g_gamma), (betas, g_beta)):
            if param.requires_grad:
                param._accumulate(grad.reshape(s, d))
        if metric.requires_grad:
            metric._accumulate(g_x.reshape(n, s, d).transpose(1, 0, 2))

    out._backward = bwd
    return (out, *stats)
