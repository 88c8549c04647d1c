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

Parameters can live in an ``Arena``: one flat array for their values
and one of the same layout for their gradients, cut into regions of
same-shaped tensors stacked along a new first axis, so a fused op reads
the stacked operand as a view and hands back its gradient in one copy.
"""

from __future__ import annotations

import math

import numpy as np


def _as_array(x) -> np.ndarray:
    if isinstance(x, np.ndarray):
        return x.astype(np.float64, copy=False)
    return np.asarray(x, dtype=np.float64)


class Tensor:
    # home: (Region, index) of the arena slot the tensor was placed in,
    # or None; see Arena
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "home")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()
        self.home = None

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
        """Drop the gradient. A tensor holding its arena slot (``Arena``)
        also sets its slot of the arena's gradient array to 0, so that
        array holds only gradients of the current step."""
        region = _home_region(self)
        if region is not None and region.arena._grad is not None:
            region.gradients()[1][self.home[1]].fill(0.0)
        self.grad = None

    def _accumulate(self, grad: np.ndarray):
        """Add an incoming gradient. A leaf (no ``_backward``) owns its
        gradient array, so no two parameters ever share one: its slot of
        its arena's gradient array while it holds its arena view
        (``Arena``), a copy otherwise. An intermediate node borrows the
        first incoming array and adds later ones out of place, so it
        never writes into an array that another node may hold."""
        if self._backward is None:
            if self.grad is None:
                region = _home_region(self)
                if region is None:
                    self.grad = np.array(grad, dtype=np.float64)
                else:
                    self.grad = region.gradients()[1][self.home[1]]
                    np.copyto(self.grad, grad)
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

ARENA_ALIGN = 8     # floats: every region starts on a 64-byte boundary


class Region:
    """K same-shaped tensors stacked along a new first axis in the floats
    ``[start, stop)`` of an arena's arrays; tensor i is index i of the
    stack, so each tensor's view is C-contiguous. A region refers to its
    arena but not to its tensors, so a model's tensors, regions and
    arena hold no reference cycle and are freed with the model."""

    __slots__ = ("arena", "start", "stop", "shape", "data", "views", "_grads")

    def __init__(self, arena, start: int, k: int, shape: tuple):
        self.arena, self.start = arena, start
        self.shape = (k,) + tuple(shape)
        self.stop = start + math.prod(self.shape)
        self._grads = None

    def stack(self, flat: np.ndarray) -> np.ndarray:
        """This region of ``flat``, an array of the arena's layout,
        shaped as the stacked tensors (a view)."""
        return flat[self.start:self.stop].reshape(self.shape)

    def gradients(self):
        """(stacked view, each tensor's view) of the arena's gradient
        array."""
        if self._grads is None:
            stacked = self.stack(self.arena.grad)
            self._grads = (stacked, list(stacked))
        return self._grads


class Arena:
    """One flat float64 array holding many parameter tensors, and one of
    the same layout for their gradients, made on the first gradient.

    ``groups`` lists the regions in layout order, each a sequence of K
    same-shaped tensors that becomes one ``Region``, starting on an
    ``ARENA_ALIGN`` boundary (the padding stays 0). Each tensor's values
    are copied in and its ``data`` rebound to its view, so every op that
    reads ``data`` runs as before. A tensor holds its slot while its
    ``data`` is a view of the arena: ``stacked_data`` then returns its
    region's stacked view, ``_accumulate`` writes its gradient into its
    slot of the gradient array, and ``train.adam_step`` updates spans of
    slots as flat arrays. Rebinding ``data``, or deep-copying the
    tensor, leaves the slot: the tensor then behaves as one that was
    never placed, which ``train.adam_step`` refuses to step.
    """

    def __init__(self, groups):
        regions, start = [], 0
        for tensors in groups:
            regions.append(Region(self, start, len(tensors), tensors[0].shape))
            start = -(-regions[-1].stop // ARENA_ALIGN) * ARENA_ALIGN
        self.size = start
        self.data = np.zeros(start)
        self._grad = None
        for region, tensors in zip(regions, groups):
            region.data = region.stack(self.data)
            region.views = list(region.data)
            for i, (t, view) in enumerate(zip(tensors, region.views)):
                view[...] = t.data
                t.data, t.home = view, (region, i)

    @property
    def grad(self) -> np.ndarray:
        """The gradient array, allocated (zeros) on first use, so a model
        that never trains does not hold it."""
        if self._grad is None:
            self._grad = np.zeros(self.size)
        return self._grad


def _home_region(t: Tensor):
    """The arena region whose slot ``t`` holds, or None."""
    home = t.home
    if home is None or t.data.base is not home[0].arena.data:
        return None
    return home[0]


def _slot_gradient_region(t: Tensor):
    """The arena region whose slot ``t`` holds with its gradient in the
    slot's gradient view, or None."""
    region = _home_region(t)
    if region is None or region._grads is None:
        return None
    return region if t.grad is region._grads[1][t.home[1]] else None


def _stacked_region(tensors):
    """The region whose slots ``tensors`` hold, each in its own, in
    order, filling it; or None."""
    region = _home_region(tensors[0])
    if region is None or len(tensors) != len(region.views):
        return None
    base = region.arena.data
    for i, t in enumerate(tensors):
        if t.home != (region, i) or t.data.base is not base:
            return None
    return region


def stacked_data(tensors) -> np.ndarray:
    """The tensors' values stacked along a new first axis, as
    ``np.stack`` stacks them: a view of their arena region when they hold
    its slots in order, a new array otherwise (loose tensors, or a
    region's tensors in another grouping)."""
    region = _stacked_region(tensors)
    if region is None:
        return np.stack([t.data for t in tensors])
    return region.data


def _accumulate_stacked(tensors, grad: np.ndarray):
    """Hand each of ``tensors`` its slice of ``grad``, the gradient of
    their stack (``stacked_data``) in any shape that reshapes to it. When
    they hold their region's slots this is one copy into the region's
    gradient (none has a gradient yet) or one sum onto it (each has its
    slot's); otherwise one ``_accumulate`` per tensor."""
    grad = grad.reshape((len(tensors),) + tensors[0].shape)
    region = _stacked_region(tensors)
    if region is not None and all(t.requires_grad for t in tensors):
        stacked, views = region.gradients()
        if all(t.grad is None for t in tensors):
            np.copyto(stacked, grad)
            for t, view in zip(tensors, views):
                t.grad = view
            return
        if all(t.grad is view for t, view in zip(tensors, views)):
            stacked += grad
            return
    for t, share in zip(tensors, grad):
        if t.requires_grad:
            t._accumulate(share)


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


def _projections(attn_q, attn_k) -> list:
    """The K query and the K key projections, each joined along their
    columns to one (C_in, K*C_e) operand."""
    return [np.concatenate(stacked_data(proj), axis=1) for proj in (attn_q, attn_k)]


def _queries_keys(pooled: np.ndarray, w_q: np.ndarray, w_k: np.ndarray, k: int):
    """(N, K, V, C_e) queries and keys of the (N, V, C_in) pooled
    features, one GEMM each with the stacked projections
    (``_projections``)."""
    n, v, _ = pooled.shape
    return [(pooled @ w).reshape(n, v, k, -1).transpose(0, 2, 1, 3)
            for w in (w_q, w_k)]


def _attention(f: np.ndarray, attn_q, attn_k, mask: np.ndarray):
    """(pooled, attention) of the attention term of a block's spatial
    step on (N, T, V, C_in) features: the temporal mean pooled once to
    (N, V, C_in), its queries and keys (``_queries_keys``), and one
    softmax over (N, K, V, V) normalized within the mask, so a row's
    attention is exactly 0 outside its part."""
    pooled = f.sum(axis=1) * (1.0 / f.shape[1])
    q, key = _queries_keys(pooled, *_projections(attn_q, attn_k), len(attn_q))
    sim = np.matmul(q, key.swapaxes(-1, -2)) * (1.0 / np.sqrt(q.shape[-1]))
    return pooled, _softmax(sim, -1, mask > 0)


def _stacked_adjacency(fixed: np.ndarray, mask: np.ndarray, learned,
                       att: np.ndarray = None) -> np.ndarray:
    """The combined adjacency ``(fixed_k + learned_k + att_k) * mask`` of
    a block's spatial step, stacked to the operand of its batched
    product: (V*K, V), or (N, 1, V*K, V) with the (N, K, V, V) attention
    ``att``. A masked entry is exactly 0, so it adds exactly 0."""
    k, v = len(learned), fixed.shape[-1]
    adj = fixed + stacked_data(learned)                         # (K, V, V)
    if att is not None:
        adj = adj + att                                         # (N, K, V, V)
    adj *= mask
    # stacked[.., u*K + k, v] = A_k[.., v, u]; the K rows of a joint are
    # adjacent, so the reshape to the GEMM operand copies nothing
    stacked = np.moveaxis(adj, -1, -3).reshape(adj.shape[:-3] + (v * k, v))
    return stacked[:, None] if adj.ndim == 4 else stacked


def _spatial_input_grads(g: np.ndarray, f_in: Tensor, stacked: np.ndarray,
                         mask: np.ndarray, learned, w: np.ndarray, attn_q,
                         attn_k, pooled: np.ndarray, att: np.ndarray):
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
    k = len(learned)
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
    _accumulate_stacked(learned, g_adj.sum(axis=0) if per_sequence else g_adj)
    if attn_q:
        w_q, w_k = _projections(attn_q, attn_k)
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
            if any(a.requires_grad for a in proj):
                # (C_in, K*C_e) columns back to the K projections
                g_proj = (flat_pooled.T @ g_proj).reshape(c_in, k, ce)
                _accumulate_stacked(proj, g_proj.swapaxes(0, 1))
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


def graph_block(f_in: Tensor, fixed: np.ndarray, mask: np.ndarray, learned,
                weights, attn_q, attn_k, gamma1: Tensor, beta1: Tensor,
                kernel: Tensor, gamma2: Tensor, beta2: Tensor, eps: float,
                residual: bool = False):
    """A part-aware graph block in training as one node:
    ``relu(bn2(temporal_conv(relu(bn1(y)), kernel)))``, plus ``f_in`` when
    ``residual``, where both batch norms use the batch's statistics,
    reduced over the (-1, C_out) view, and ``y`` is the spatial step
    ``y[..., u, :] = sum_k (sum_v A_k[v, u] * f_in[..., v, :]) @ W_k``
    with the combined adjacency ``A_k = (fixed_k + learned_k + att_k) * mask``.

    ``f_in`` is (N, T, V, C_in); ``fixed`` (K, V, V) and ``mask`` (V, V)
    are constants; ``learned`` holds K (V, V) tensors, ``weights`` K
    (C_in, C_out) tensors, and ``attn_q``/``attn_k`` K (C_in, C_e)
    tensors each, or nothing for no attention term (``_attention``).
    Joints are aggregated by one batched product with the stacked
    (V*K, V) adjacency (``_stacked_adjacency``), channels mixed by one
    GEMM with the stacked (K*C_in, C_out) weights; aggregating first
    keeps the widest buffer at K*C_in channels, never K*C_out. Stacked
    parameters are read through ``stacked_data`` (views of their arena
    region in a model from ``pagcn.init_model``) and their gradients
    handed back through ``_accumulate_stacked``, one copy per region.

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
    shape = f_in.shape[:-1] + (weights[0].shape[1],)
    c_agg, c = len(weights) * f_in.shape[-1], shape[-1]
    pooled = att = None
    if attn_q:
        pooled, att = _attention(f_in.data, attn_q, attn_k, mask)
    stacked = _stacked_adjacency(fixed, mask, learned, att)
    agg = np.matmul(stacked, f_in.data).reshape(-1, c_agg)
    xhat1 = agg @ stacked_data(weights).reshape(c_agg, c)    # y, normalized below
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
    out = _make(r, (f_in, *learned, *weights, *attn_q, *attn_k,
                    gamma1, beta1, kernel, gamma2, beta2))
    stats = ((mu1, var1), (mu2, var2))
    if not out.requires_grad:
        return (out, *stats)

    def bwd(g):
        agg = np.matmul(stacked, f_in.data).reshape(-1, c_agg)
        w = stacked_data(weights).reshape(c_agg, c)
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
        if any(wk.requires_grad for wk in weights):
            _accumulate_stacked(weights, agg.T @ g_y)
        del agg
        g_f = _spatial_input_grads(g_y, f_in, stacked, mask, learned, w,
                                   attn_q, attn_k, pooled, att)
        if g_f is not None:
            if residual:
                g_f += g
            f_in._accumulate(g_f)

    out._backward = bwd
    return (out, *stats)


def slot_fc(pools, weights, biases) -> Tensor:
    """(S, N, D) metric features of S slots as one node: slot s's (N, C)
    pooled features times its (C, D) weight, plus its (D,) bias.

    ``pools`` are (N, P_b, C) tensors, the branches' pooling outputs
    (``group_pool``); their slots in order are the S slots. ``weights``
    and ``biases`` hold S tensors each, read through ``stacked_data`` and
    handed their gradients through ``_accumulate_stacked``, as
    ``graph_block`` does. The pooled features are joined into one small
    (N, S, C) array, so all slots run as one batched product and each
    pool gets its slice of the input gradient."""
    x = np.concatenate([p.data for p in pools], axis=1).transpose(1, 0, 2)
    w = stacked_data(weights)                                   # (S, C, D)
    metric = np.matmul(x, w)
    metric += stacked_data(biases).reshape(len(biases), 1, -1)
    out = _make(metric, (*pools, *weights, *biases))
    if out.requires_grad:
        def bwd(g):
            if any(b.requires_grad for b in biases):
                _accumulate_stacked(biases, g.sum(axis=1))
            if any(p.requires_grad for p in pools):
                g_x = np.matmul(g, np.swapaxes(w, -1, -2)).transpose(1, 0, 2)
                start = 0
                for p in pools:
                    stop = start + p.shape[1]
                    if p.requires_grad:
                        p._accumulate(g_x[:, start:stop])
                    start = stop
            if any(wk.requires_grad for wk in weights):
                _accumulate_stacked(weights, np.matmul(np.swapaxes(x, -1, -2), g))
        out._backward = bwd
    return out


def bnneck_classifier(metric: Tensor, gammas, betas, classifiers, eps: float):
    """BNNeck then classifier of S slots as one node: the (S, N, D)
    metric features normalized as one (N, S*D) batch norm with the
    batch's biased statistics, each slot's columns scaled and shifted by
    its (D,) gamma and beta, then multiplied by its (D, K) classifier.

    Returns ((S, N, K) logits, batch mean, batch variance), the
    statistics shaped (S, D). Parameters are read through
    ``stacked_data`` and handed their gradients through
    ``_accumulate_stacked``. The node keeps the (N, S*D) BNNeck output
    for the classifier's gradient; backward rebuilds the normalized
    input from ``metric`` by the forward's operations (``_bn_xhat``)."""
    s, n, d = metric.shape
    x = metric.data.transpose(1, 0, 2).reshape(n, s * d)
    necked, mu, var, std = _bn_normalize(x, eps)
    del x
    gamma = stacked_data(gammas).reshape(s * d)
    necked *= gamma
    necked += stacked_data(betas).reshape(s * d)
    necked = necked.reshape(n, s, d).transpose(1, 0, 2)
    w = stacked_data(classifiers)                               # (S, D, K)
    out = _make(np.matmul(necked, w), (metric, *gammas, *betas, *classifiers))
    stats = mu.reshape(s, d), var.reshape(s, d)
    if not out.requires_grad:
        return (out, *stats)

    def bwd(g):
        if any(c.requires_grad for c in classifiers):
            _accumulate_stacked(classifiers, np.matmul(np.swapaxes(necked, -1, -2), g))
        g_necked = np.matmul(g, np.swapaxes(w, -1, -2)).transpose(1, 0, 2)
        xhat = _bn_xhat(metric.data.transpose(1, 0, 2).reshape(n, s * d), mu, std)
        g_x, g_gamma, g_beta = _bn_backward(g_necked.reshape(n, s * d), xhat, std,
                                            gamma, out=xhat)
        for params, grad in ((gammas, g_gamma), (betas, g_beta)):
            if any(t.requires_grad for t in params):
                _accumulate_stacked(params, grad)
        if metric.requires_grad:
            metric._accumulate(g_x.reshape(n, s, d).transpose(1, 0, 2))

    out._backward = bwd
    return (out, *stats)
