"""Reference implementations used as independent oracles.

Most are written with explicit index loops and plain Python math so
they share no vectorized code path with the package under test. The
sections, in file order:

- the generic Tensor algebra the network and its losses were built from
  before each became a fused node: ``OpTensor``, a Tensor subclass with
  broadcasting arithmetic, reductions and shape ops, ``ops`` to lift a
  Tensor to it, ``slot`` to take a ``pagcn.Slot`` of its role, and
  ``concat``, ``stop_gradient`` and ``batch_norm_train``. The node chains
  below are written in it;
- loop oracles of the attention, the spatial step, batch norm, the
  temporal convolution, pooling, a head, both losses, distances and
  rank-1 (``ref_*``);
- HOT and HOD one frame and one joint at a time;
- the chain of autodiff nodes a part-aware graph block was built from
  before it became fused nodes (``graph_conv``, ``softmax``,
  ``attention_adjacency``, ``temporal_conv`` and ``ref_block_chain``),
  the oracle of the fused block's values and gradients. Its temporal
  convolution is the loop over kernel taps (``tap_temporal_conv``,
  ``tap_temporal_conv_grads``), the oracle of the one-contraction
  kernels;
- the two training nodes a block was before it became one, as they were
  when they stored their intermediates for backward
  (``stored_spatial_graph_conv``, ``stored_block_epilogue``), chained
  into ``stored_graph_block``, the bit-exact oracle of the node that
  rebuilds them;
- the network's tail as it was when every (branch, part) slot ran
  through its own pooling, head and loss nodes (``slot_tail``), the
  oracle of the fused tail; the no-graph model view inference once ran
  through (``detached_view``); and the stacked tail in the generic
  algebra (``generic_tail``), the bit-exact oracle of the fused heads
  and losses;
- the pooling node as it was when every group's maxima ran over its own
  joints (``joint_group_pool``), the bit-exact oracle of the node that
  pools the body from its parts;
- the per-tensor Adam step (``adam_step``, on an ``AdamState``), the
  bit-exact oracle of the one that steps spans of the parameter arena as
  flat arrays;
- the model's initial tensors drawn one tensor at a time
  (``init_tensors``), the byte-exact oracle of ``pagcn.init_model``.
"""

import copy
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from gpgait import pagcn
from gpgait.autodiff import (Tensor, _bn_backward, _bn_normalize, _bn_xhat,
                             _softmax)
from gpgait.errors import DataError, NumericError
from gpgait.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

BN_EPS = 1e-5


# -- the generic Tensor algebra -------------------------------------------
#
# The broadcasting ops the network and its losses were built from before
# each became a fused node, on a Tensor subclass, as the algebra the
# oracles below are written in.


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


def _axis_count(shape, axis):
    if isinstance(axis, int):
        axis = (axis,)
    n = 1
    for a in axis:
        n *= shape[a]
    return n


class OpTensor(Tensor):
    """A Tensor with the generic broadcasting algebra: arithmetic,
    reductions and shape ops, each one node whose gradients are summed
    back to its inputs' shapes. The other operand of a binary op may be
    any Tensor or an array; ``ops`` lifts a Tensor to an OpTensor."""

    __slots__ = ()

    # -- binary ops -------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else OpTensor(other)
        out = _make(self.data + other.data, (self, other))
        if out.requires_grad:
            def bwd(g, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(g, a.data.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(g, b.data.shape))
            out._backward = bwd
        return out

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else OpTensor(other)
        out = _make(self.data - other.data, (self, other))
        if out.requires_grad:
            def bwd(g, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(g, a.data.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(-g, b.data.shape))
            out._backward = bwd
        return out

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else OpTensor(other)
        out = _make(self.data * other.data, (self, other))
        if out.requires_grad:
            def bwd(g, a=self, b=other):
                if a.requires_grad:
                    a._accumulate(_unbroadcast(g * b.data, a.data.shape))
                if b.requires_grad:
                    b._accumulate(_unbroadcast(g * a.data, b.data.shape))
            out._backward = bwd
        return out

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else OpTensor(other)
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
        """Square root whose gradient at exactly 0 is taken as 0."""
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
                grad = np.zeros_like(a.data)
                np.put_along_axis(grad, np.expand_dims(idx, axis),
                                  g if keepdims else np.expand_dims(g, axis), axis)
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


def _make(data: np.ndarray, parents) -> OpTensor:
    out = OpTensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
    return out


def ops(t: Tensor) -> OpTensor:
    """``t`` as an OpTensor: itself, or one node handing its gradient to
    ``t`` unchanged."""
    if isinstance(t, OpTensor):
        return t
    out = _make(t.data, (t,))
    if out.requires_grad:
        out._backward = t._accumulate
    return out


def concat(tensors, axis=0) -> OpTensor:
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


def slot(p) -> OpTensor:
    """A parameter as an operand: a ``pagcn.Slot`` as the node taking
    its index of its role, whose gradient goes to that index of the
    role's; any other Tensor lifted (``ops``)."""
    if isinstance(p, pagcn.Slot):
        return ops(p.role).take(p.k, axis=0)
    return ops(p)


def stop_gradient(x: Tensor) -> OpTensor:
    return OpTensor(x.data)


def batch_norm_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float):
    """Training-mode batch norm over every axis but the last (the channel
    axis): ``(x - mean) / sqrt(var + eps) * gamma + beta`` with the
    batch's biased statistics.

    Returns (output, batch mean, batch variance); the statistics are
    arrays shaped like ``gamma``. Backward recomputes the normalized
    input from ``x`` instead of keeping it.
    """
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


def ref_attention(f, pa, pb, mask=None):
    """f: (N,T,V,C); pa, pb: (C,Ce). Returns (N,V,V)."""
    n, t, v, c = f.shape
    ce = pa.shape[1]
    out = np.zeros((n, v, v))
    for b in range(n):
        pooled = np.zeros((v, c))
        for j in range(v):
            for ch in range(c):
                acc = 0.0
                for fr in range(t):
                    acc += f[b, fr, j, ch]
                pooled[j, ch] = acc / t
        q = np.zeros((v, ce))
        k = np.zeros((v, ce))
        for j in range(v):
            for e in range(ce):
                sq = 0.0
                sk = 0.0
                for ch in range(c):
                    sq += pooled[j, ch] * pa[ch, e]
                    sk += pooled[j, ch] * pb[ch, e]
                q[j, e] = sq
                k[j, e] = sk
        for i in range(v):
            logits = []
            cols = []
            for j in range(v):
                if mask is not None and mask[i, j] == 0:
                    continue
                s = 0.0
                for e in range(ce):
                    s += q[i, e] * k[j, e]
                logits.append(s / math.sqrt(ce))
                cols.append(j)
            m = max(logits)
            exps = [math.exp(x - m) for x in logits]
            z = sum(exps)
            for j, e in zip(cols, exps):
                out[b, i, j] = e / z
    return out


def ref_spatial(f, adjacency, learned, weights, attn=None, mask=None):
    """f: (N,T,V,Cin); adjacency: (K,V,V); learned: list of (V,V);
    weights: list of (Cin,Cout); attn: list of (N,V,V) or None."""
    n, t, v, cin = f.shape
    kv = adjacency.shape[0]
    cout = weights[0].shape[1]
    out = np.zeros((n, t, v, cout))
    for k in range(kv):
        for b in range(n):
            h = np.zeros((v, v))
            for i in range(v):
                for j in range(v):
                    combined = adjacency[k, i, j] + learned[k][i, j]
                    if attn is not None:
                        combined += attn[k][b, i, j]
                    if mask is not None:
                        combined *= mask[i, j]
                    h[i, j] = combined
            for fr in range(t):
                agg = np.zeros((v, cin))
                for u in range(v):
                    for ch in range(cin):
                        acc = 0.0
                        for src in range(v):
                            acc += f[b, fr, src, ch] * h[src, u]
                        agg[u, ch] = acc
                for u in range(v):
                    for co in range(cout):
                        acc = 0.0
                        for ci in range(cin):
                            acc += agg[u, ci] * weights[k][ci, co]
                        out[b, fr, u, co] += acc
    return out


def ref_batchnorm_train(x, gamma, beta):
    """Training-mode BN over all axes but the last."""
    n, t, v, c = x.shape
    out = np.zeros_like(x)
    cnt = n * t * v
    for ch in range(c):
        acc = 0.0
        for b in range(n):
            for fr in range(t):
                for j in range(v):
                    acc += x[b, fr, j, ch]
        mu = acc / cnt
        var = 0.0
        for b in range(n):
            for fr in range(t):
                for j in range(v):
                    var += (x[b, fr, j, ch] - mu) ** 2
        var /= cnt
        for b in range(n):
            for fr in range(t):
                for j in range(v):
                    xhat = (x[b, fr, j, ch] - mu) / math.sqrt(var + BN_EPS)
                    out[b, fr, j, ch] = xhat * gamma[ch] + beta[ch]
    return out


def ref_temporal_conv(x, kernel):
    """Depthwise temporal convolution, zero same-padding. kernel: (k,C)."""
    n, t, v, c = x.shape
    k = kernel.shape[0]
    pad = k // 2
    out = np.zeros_like(x)
    for b in range(n):
        for fr in range(t):
            for j in range(v):
                for ch in range(c):
                    acc = 0.0
                    for d in range(k):
                        src = fr + d - pad
                        if 0 <= src < t:
                            acc += x[b, src, j, ch] * kernel[d, ch]
                    out[b, fr, j, ch] = acc
    return out


def relu_scalar(x):
    return np.maximum(x, 0.0)


def ref_epilogue(y, tkernel, gamma1, beta1, gamma2, beta2, skip=None):
    """Training-mode block after its spatial step ``y``: norm -> relu ->
    temporal -> norm -> relu, plus ``skip`` when given."""
    y = relu_scalar(ref_batchnorm_train(y, gamma1, beta1))
    y = ref_temporal_conv(y, tkernel)
    y = relu_scalar(ref_batchnorm_train(y, gamma2, beta2))
    return y if skip is None else y + skip


def ref_block(f, adjacency, learned, weights, attns, mask, tkernel,
              gamma1, beta1, gamma2, beta2, residual):
    y = ref_spatial(f, adjacency, learned, weights, attn=attns, mask=mask)
    return ref_epilogue(y, tkernel, gamma1, beta1, gamma2, beta2,
                        f if residual else None)


def ref_part_pool(fm, groups):
    """(N,T,V,C) -> (N,T,P,C) mean+max per group."""
    n, t, v, c = fm.shape
    out = np.zeros((n, t, len(groups), c))
    for b in range(n):
        for fr in range(t):
            for p, g in enumerate(groups):
                for ch in range(c):
                    vals = [fm[b, fr, j, ch] for j in g]
                    out[b, fr, p, ch] = sum(vals) / len(vals) + max(vals)
    return out


def ref_temporal_pool(fvp):
    n, t, p, c = fvp.shape
    out = np.zeros((n, p, c))
    for b in range(n):
        for pp in range(p):
            for ch in range(c):
                out[b, pp, ch] = max(fvp[b, fr, pp, ch] for fr in range(t))
    return out


def ref_head(vec, fc_w, fc_b, gamma, beta, cls_w):
    """Training-mode head: fc -> 1d batchnorm -> classifier."""
    n, c = vec.shape
    d = fc_w.shape[1]
    K = cls_w.shape[1]
    metric = np.zeros((n, d))
    for b in range(n):
        for o in range(d):
            acc = fc_b[o]
            for i in range(c):
                acc += vec[b, i] * fc_w[i, o]
            metric[b, o] = acc
    necked = np.zeros_like(metric)
    for o in range(d):
        mu = sum(metric[b, o] for b in range(n)) / n
        var = sum((metric[b, o] - mu) ** 2 for b in range(n)) / n
        for b in range(n):
            necked[b, o] = (metric[b, o] - mu) / math.sqrt(var + BN_EPS)
            necked[b, o] = necked[b, o] * gamma[o] + beta[o]
    logits = np.zeros((n, K))
    for b in range(n):
        for o in range(K):
            acc = 0.0
            for i in range(d):
                acc += necked[b, i] * cls_w[i, o]
            logits[b, o] = acc
    return metric, logits


def ref_cross_entropy(logits, labels):
    n, c = logits.shape
    total = 0.0
    for b in range(n):
        m = max(logits[b])
        z = sum(math.exp(x - m) for x in logits[b])
        total += (m + math.log(z)) - logits[b, labels[b]]
    return total / n


def ref_batch_hard_triplet(emb, labels, margin):
    """Exhaustive all-anchor batch-hard formulation."""
    n = emb.shape[0]
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for ch in range(emb.shape[1]):
                acc += (emb[i, ch] - emb[j, ch]) ** 2
            dist[i, j] = math.sqrt(acc)
    losses = []
    for a in range(n):
        pos = [dist[a, j] for j in range(n) if j != a and labels[j] == labels[a]]
        neg = [dist[a, j] for j in range(n) if labels[j] != labels[a]]
        if not pos or not neg:
            continue
        losses.append(max(0.0, max(pos) - min(neg) + margin))
    if not losses:
        return 0.0
    return sum(losses) / len(losses)


def ref_pairwise_distances(p, g):
    out = np.zeros((p.shape[0], g.shape[0]))
    for i in range(p.shape[0]):
        for j in range(g.shape[0]):
            acc = 0.0
            for ch in range(p.shape[1]):
                acc += (p[i, ch] - g[j, ch]) ** 2
            out[i, j] = math.sqrt(acc)
    return out


def ref_rank1(dist, probe_labels, gallery_labels):
    hits = 0
    for i in range(dist.shape[0]):
        best = 0
        for j in range(1, dist.shape[1]):
            if dist[i, j] < dist[i, best]:
                best = j
        if gallery_labels[best] == probe_labels[i]:
            hits += 1
    return hits / dist.shape[0]


# -- HOT and HOD, one frame / one joint at a time ------------------------
#
# The per-frame normalization and per-joint angle code the package used
# before it worked on whole (T, 17, 2) stacks, kept as oracles.

L_SHOULDER, R_SHOULDER, L_HIP, R_HIP = 5, 6, 11, 12


def _fold_halfturn(theta):
    # map into (-pi/2, pi/2]
    if theta > math.pi / 2:
        theta -= math.pi
    elif theta <= -math.pi / 2:
        theta += math.pi
    return theta


def ref_unify_frame(coords, h_unif, phi, epsilon_extent):
    """One (17, 2) frame through HOT; None when the frame is dropped."""
    coords = np.array(coords, dtype=np.float64)
    for x, y in coords:
        if not (math.isfinite(x) and math.isfinite(y)):
            return None
    neck_x = (coords[L_SHOULDER, 0] + coords[R_SHOULDER, 0]) / 2.0
    neck_y = (coords[L_SHOULDER, 1] + coords[R_SHOULDER, 1]) / 2.0
    hip_x = (coords[L_HIP, 0] + coords[R_HIP, 0]) / 2.0
    hip_y = (coords[L_HIP, 1] + coords[R_HIP, 1]) / 2.0
    dx, dy = neck_x - hip_x, neck_y - hip_y
    if dx == 0.0:
        theta = 0.0  # vertical spine, or neck coinciding with hip
    elif dy == 0.0:
        return None  # horizontal spine
    else:
        theta = _fold_halfturn(math.atan2(dx, dy))
    if abs(theta) >= phi:
        c, s = math.cos(theta), math.sin(theta)
        for j in range(17):
            rx, ry = coords[j, 0] - neck_x, coords[j, 1] - neck_y
            coords[j, 0] = c * rx - s * ry + neck_x
            coords[j, 1] = s * rx + c * ry + neck_y
    extent = max(coords[:, 1]) - min(coords[:, 1])
    if extent < epsilon_extent:
        return None
    coords = coords * (h_unif / extent)
    out = np.zeros((17, 2))
    for j in range(17):
        for d in range(2):
            out[j, d] = (0.5 * (coords[j, d] - coords[L_SHOULDER, d])
                         + 0.5 * (coords[j, d] - coords[R_SHOULDER, d]))
    return out


def ref_hot(frames, h_unif, phi, epsilon_extent):
    """(unified frames, kept indices) for a list of (17, 2) frames."""
    unified, kept = [], []
    for i, coords in enumerate(frames):
        out = ref_unify_frame(coords, h_unif, phi, epsilon_extent)
        if out is not None:
            unified.append(out)
            kept.append(i)
    return unified, kept


INNER_TRIANGLES = {5: (7, 5, 11), 6: (8, 6, 12), 7: (5, 7, 9), 8: (6, 8, 10),
                   11: (5, 11, 13), 12: (6, 12, 14), 13: (11, 13, 15),
                   14: (12, 14, 16)}
PARENT = (0, 0, 0, 1, 2, 0, 0, 5, 6, 7, 8, 5, 6, 11, 12, 13, 14)


def ref_angles(coords):
    """(17,) angles of one frame plus the joints with a zero-length
    adjacent side."""
    angles = np.zeros(17)
    zero_sides = []
    for j in range(17):
        if j in INNER_TRIANGLES:
            left, mid, right = INNER_TRIANGLES[j]
            s_l = math.hypot(*(coords[mid] - coords[left]))
            s_r = math.hypot(*(coords[mid] - coords[right]))
            s_opp = math.hypot(*(coords[left] - coords[right]))
            if s_l == 0.0 or s_r == 0.0:
                zero_sides.append(j)
                continue
            arg = (s_l * s_l + s_r * s_r - s_opp * s_opp) / (2.0 * s_l * s_r)
            angles[j] = math.acos(min(1.0, max(-1.0, arg)))
        else:
            dx = coords[j, 0] - coords[PARENT[j], 0]
            dy = coords[j, 1] - coords[PARENT[j], 1]
            if dx != 0.0 or dy != 0.0:
                angles[j] = _fold_halfturn(math.atan2(dx, dy))
    return angles, zero_sides


# -- the block as a chain of autodiff nodes -------------------------------


def graph_conv(f_in, adjacencies, weights):
    """``out[..., u, :] = sum_k (sum_v A_k[v, u] * f_in[..., v, :]) @ W_k``
    as one node, for K given (masked) adjacencies, each (V, V) or
    (N, V, V), and K (C_in, C_out) weights."""
    n, t, v, c_in = f_in.shape
    k = len(weights)
    c_out = weights[0].shape[1]
    w = np.concatenate([wk.data for wk in weights], axis=0)
    adj = np.stack([a.data for a in adjacencies], axis=-1)      # (.., V, V, K)
    per_sequence = adj.ndim == 4
    stacked = np.moveaxis(adj, -3, -1).reshape(adj.shape[:-3] + (v * k, v))
    if per_sequence:
        stacked = stacked[:, None]
    agg = np.matmul(stacked, f_in.data).reshape(-1, k * c_in)
    out = _make((agg @ w).reshape(n, t, v, c_out),
                (f_in, *adjacencies, *weights))
    if out.requires_grad:
        def bwd(g):
            g = g.reshape(-1, c_out)
            g_w = agg.T @ g
            for i, wk in enumerate(weights):
                if wk.requires_grad:
                    wk._accumulate(g_w[i * c_in:(i + 1) * c_in])
            g_agg = (g @ w.T).reshape(n, t, v * k, c_in)
            if f_in.requires_grad:
                f_in._accumulate(np.matmul(np.swapaxes(stacked, -1, -2), g_agg))
            g_stacked = np.matmul(g_agg, np.swapaxes(f_in.data, -1, -2))
            g_stacked = g_stacked.sum(axis=1 if per_sequence else (0, 1))
            g_adj = np.moveaxis(
                g_stacked.reshape(g_stacked.shape[:-2] + (v, k, v)), -1, -3)
            for i, a in enumerate(adjacencies):
                if a.requires_grad:
                    a._accumulate(g_adj[..., i])
        out._backward = bwd
    return out


def softmax(x, axis=-1, mask=None):
    """Softmax node; an optional binary mask excludes entries from the
    normalization (their output is 0)."""
    y = _softmax(x.data, axis, True if mask is None else mask)
    out = _make(y, (x,))
    if out.requires_grad:
        def bwd(g, a=x, y=y, axis=axis):
            dot = (g * y).sum(axis=axis, keepdims=True)
            a._accumulate(y * (g - dot))
        out._backward = bwd
    return out


def attention_adjacency(f_in, attn_a, attn_b, mask=None):
    """Per-sequence joint-affinity matrix from temporally pooled features.

    Returns (N, V, V) with rows summing to 1. When a partition mask is
    given, entries outside a row's part are excluded from the softmax
    so the result is block-diagonal.
    """
    pooled = ops(f_in).mean(axis=1)         # (N, V, C)
    q = pooled @ attn_a                     # (N, V, C_e)
    k = pooled @ attn_b
    scale = 1.0 / np.sqrt(attn_a.shape[1])
    sim = (q @ k.transpose((0, 2, 1))) * scale
    bool_mask = None if mask is None else (np.asarray(mask) > 0)
    return softmax(sim, axis=-1, mask=bool_mask)


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


def tap_temporal_conv(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """``autodiff._temporal_conv`` as it was before it became one
    contraction over zero-padded frames: a loop over the kernel taps of
    a (N, T, V, C) array, centre tap first, each side tap added over the
    frames it reaches."""
    (centre, _, _), *side_taps = _tap_windows(kernel.shape[0], x.shape[1])
    out = x * kernel[centre]
    for d, o, i in side_taps:
        out[:, o] += x[:, i] * kernel[d]
    return out


def tap_temporal_conv_grads(g, x, kernel, need_x: bool, need_kernel: bool):
    """(input gradient, kernel gradient) of ``tap_temporal_conv``, tap by
    tap; None for the one not needed."""
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


def temporal_conv(x, kernel):
    """Depthwise convolution along the frame axis of a (N, T, V, C)
    input with a (k, C) kernel, stride 1, zero padding that preserves T
    (works for T=1 and T < k), as one node over the tap loop."""
    out = _make(tap_temporal_conv(x.data, kernel.data), (x, kernel))
    if out.requires_grad:
        def bwd(g, x=x, kernel=kernel):
            gx, gk = tap_temporal_conv_grads(g, x.data, kernel.data,
                                             x.requires_grad, kernel.requires_grad)
            if gx is not None:
                x._accumulate(gx)
            if gk is not None:
                kernel._accumulate(gk)
        out._backward = bwd
    return out


def ref_spatial_chain(f_in, block, adjacency, mask):
    """Per subset: (fixed + learned + attention) * mask from generic
    nodes, then one ``graph_conv`` node."""
    mask_t = Tensor(mask)
    combined = []
    for k, sub in enumerate(block.subsets):
        adj = OpTensor(adjacency[k]) + slot(sub.learned_adj)
        if sub.attn_a is not None:
            adj = adj + attention_adjacency(f_in, slot(sub.attn_a), slot(sub.attn_b),
                                            mask)
        combined.append(adj * mask_t)
    return graph_conv(f_in, combined, [slot(sub.weight) for sub in block.subsets])


def ref_batch_norm_chain(x, bn, training):
    gamma, beta = slot(bn.gamma), slot(bn.beta)
    if training:
        out, mu, var = batch_norm_train(x, gamma, beta, pagcn.BN_EPS)
        bn.running_mean[...] = (pagcn.BN_MOMENTUM * bn.running_mean
                                + (1.0 - pagcn.BN_MOMENTUM) * mu)
        bn.running_var[...] = (pagcn.BN_MOMENTUM * bn.running_var
                               + (1.0 - pagcn.BN_MOMENTUM) * var)
        return out
    xhat = (x - bn.running_mean) * (1.0 / np.sqrt(bn.running_var + pagcn.BN_EPS))
    return xhat * gamma + beta


def ref_block_chain(f_in, block, adjacency, masks, training=False):
    """spatial -> norm -> relu -> temporal -> norm -> relu -> residual,
    one autodiff node per step, in training and in inference mode."""
    y = ref_spatial_chain(f_in, block, adjacency, masks[block.mask_name])
    y = ref_batch_norm_chain(y, block.bn1, training).relu()
    y = temporal_conv(y, block.temporal_kernel)
    y = ref_batch_norm_chain(y, block.bn2, training).relu()
    if block.in_channels == block.out_channels:
        y = y + f_in
    return y


# -- the two training nodes with a stored tape --------------------------


def stored_spatial_graph_conv(f_in: Tensor, fixed: np.ndarray,
                              mask: np.ndarray, learned: Tensor, weights: Tensor,
                              attn_q: Tensor = None, attn_k: Tensor = None) -> Tensor:
    """The spatial step of ``autodiff.graph_block`` as the node it once
    was on its own, keeping the aggregated (N, T, V*K, C_in) features,
    the stacked weights and the attention arrays for backward instead
    of rebuilding them."""
    n, t, v, c_in = f_in.shape
    k, _, c_out = weights.shape
    f = f_in.data
    w = np.concatenate(list(weights.data), axis=0)
    adj = fixed + learned.data                                      # (K, V, V)
    attention = (attn_q, attn_k) if attn_q is not None else ()
    if attention:
        ce = attn_q.shape[2]
        scale = 1.0 / np.sqrt(ce)
        w_q = np.concatenate(list(attn_q.data), axis=1)            # (C_in, K*C_e)
        w_k = np.concatenate(list(attn_k.data), axis=1)
        pooled = f.sum(axis=1) * (1.0 / t)                          # (N, V, C_in)
        q = (pooled @ w_q).reshape(n, v, k, ce).transpose(0, 2, 1, 3)
        key = (pooled @ w_k).reshape(n, v, k, ce).transpose(0, 2, 1, 3)
        att = _softmax(np.matmul(q, key.swapaxes(-1, -2)) * scale, -1, mask > 0)
        adj = adj + att                                             # (N, K, V, V)
    adj *= mask
    per_sequence = adj.ndim == 4
    # stacked[.., u*K + k, v] = A_k[.., v, u]; the K rows of a joint are
    # adjacent, so the reshape to the GEMM operand copies nothing
    stacked = np.moveaxis(adj, -1, -3).reshape(adj.shape[:-3] + (v * k, v))
    if per_sequence:
        stacked = stacked[:, None]                                  # (N, 1, V*K, V)
    agg = np.matmul(stacked, f).reshape(-1, k * c_in)
    out = _make((agg @ w).reshape(n, t, v, c_out),
                (f_in, learned, weights, *attention))
    if not out.requires_grad:
        return out

    def bwd(g):
        g = g.reshape(-1, c_out)
        if weights.requires_grad:
            weights._accumulate((agg.T @ g).reshape(k, c_in, c_out))
        g_agg = (g @ w.T).reshape(n, t, v * k, c_in)
        g_f = None
        if f_in.requires_grad:
            g_f = np.matmul(np.swapaxes(stacked, -1, -2), g_agg)
        # per-frame (V*K, C_in) @ (C_in, V) products summed over frames:
        # faster here than one (V*K, T*C_in) GEMM per sequence
        g_adj = np.matmul(g_agg, np.swapaxes(f, -1, -2))
        g_adj = g_adj.sum(axis=1 if per_sequence else (0, 1))
        g_adj = np.moveaxis(g_adj.reshape(g_adj.shape[:-2] + (v, k, v)), -3, -1)
        g_adj *= mask                                               # (.., K, V, V)
        if learned.requires_grad:
            learned._accumulate(g_adj.sum(axis=0) if per_sequence else g_adj)
        if attention:
            # softmax backward; a masked entry has att == 0, so its
            # similarity gets exactly 0
            g_sim = g_adj - (g_adj * att).sum(axis=-1, keepdims=True)
            g_sim *= att
            g_sim *= scale
            g_q = np.matmul(g_sim, key).transpose(0, 2, 1, 3).reshape(-1, k * ce)
            g_key = np.matmul(g_sim.swapaxes(-1, -2), q)
            g_key = g_key.transpose(0, 2, 1, 3).reshape(-1, k * ce)
            flat_pooled = pooled.reshape(-1, c_in)
            for proj, g_proj in ((attn_q, g_q), (attn_k, g_key)):
                if proj.requires_grad:
                    g_stacked = (flat_pooled.T @ g_proj).reshape(c_in, k, ce)
                    proj._accumulate(g_stacked.transpose(1, 0, 2))
            if g_f is not None:
                g_pooled = g_q @ w_q.T
                g_pooled += g_key @ w_k.T
                g_pooled *= 1.0 / t
                g_f += g_pooled.reshape(n, 1, v, c_in)
        if g_f is not None:
            f_in._accumulate(g_f)

    out._backward = bwd
    return out


def stored_block_epilogue(y: Tensor, gamma1: Tensor, beta1: Tensor,
                          kernel: Tensor, gamma2: Tensor, beta2: Tensor,
                          eps: float, residual: Tensor = None):
    """``autodiff.block_epilogue`` as it was when its node kept the
    first ReLU's output and the second normalized array for backward
    instead of rebuilding them, and its temporal convolution looped over
    the kernel taps (``tap_temporal_conv``)."""
    shape, c = y.shape, y.shape[-1]
    y2 = y.data.reshape(-1, c)
    h, mu1, var1, std1 = _bn_normalize(y2, eps)
    h *= gamma1.data
    h += beta1.data
    np.maximum(h, 0.0, out=h)
    h = h.reshape(shape)
    xhat2 = tap_temporal_conv(h, kernel.data).reshape(-1, c)
    xhat2, mu2, var2, std2 = _bn_normalize(xhat2, eps, out=xhat2)
    r = xhat2 * gamma2.data
    r += beta2.data
    np.maximum(r, 0.0, out=r)
    r = r.reshape(shape)
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
        g_r = (g * active2).reshape(-1, c)
        g_z, g_gamma2, g_beta2 = _bn_backward(g_r, xhat2, std2, gamma2.data)
        g_h, g_kernel = tap_temporal_conv_grads(g_z.reshape(shape), h, kernel.data,
                                                True, kernel.requires_grad)
        g_h *= h > 0.0
        xhat1 = _bn_xhat(y2, mu1, std1, out=g_z)     # g_z is spent
        g_y, g_gamma1, g_beta1 = _bn_backward(g_h.reshape(-1, c), xhat1, std1,
                                              gamma1.data, out=xhat1)
        for t, grad in ((gamma2, g_gamma2), (beta2, g_beta2), (kernel, g_kernel),
                        (gamma1, g_gamma1), (beta1, g_beta1),
                        (y, g_y.reshape(shape))):
            if t.requires_grad:
                t._accumulate(grad)

    out._backward = bwd
    return (out, *stats)


def stored_graph_block(f_in: Tensor, fixed: np.ndarray, mask: np.ndarray,
                       learned, weights, attn_q, attn_k, gamma1: Tensor,
                       beta1: Tensor, kernel: Tensor, gamma2: Tensor,
                       beta2: Tensor, eps: float, residual: bool = False):
    """``autodiff.graph_block`` as two nodes with a stored tape: the
    spatial node, then the epilogue node on its output ``y``."""
    y = stored_spatial_graph_conv(f_in, fixed, mask, learned, weights, attn_q,
                                  attn_k)
    return stored_block_epilogue(y, gamma1, beta1, kernel, gamma2, beta2, eps,
                                 f_in if residual else None)


# -- the tail with one pooling, head and loss chain per slot ------------


def detached_view(model):
    """Model sharing the same parameter arrays but with gradient tracking
    off: each role is a plain Tensor on the role's own values, so a
    change to the model's parameters reaches the view, and forward
    passes through the view build no graph. Running statistics are
    copies, so a training forward through the view leaves the model's
    as they are."""
    memo = {id(r): Tensor(r.data) for r in model.roles()}
    for shared in (model.config, model.adjacency, model.masks):
        memo[id(shared)] = shared
    return copy.deepcopy(model, memo)


def slot_part_pool(f_m):
    """(N, T, V, C) -> (N, P, C): per part, a gather, mean and max node
    each, one concat, then the max over frames."""
    pooled = []
    for name in pagcn.PART_ORDER:
        group = pagcn.PARTS5.get(name, tuple(range(pagcn.V)))
        sub = ops(f_m).take(np.asarray(group), axis=2)
        v = sub.mean(axis=2) + sub.max(axis=2)
        n, t, c = v.shape
        pooled.append(v.reshape(n, t, 1, c))
    return concat(pooled, axis=2).max(axis=1)


def per_part_head(vec, head, training):
    """(N, C) -> metric feature (N, D) and classifier logits (N, K) of
    one slot's head."""
    metric = ops(vec) @ slot(head.fc_w) + slot(head.fc_b)
    necked = ref_batch_norm_chain(metric, head.bnn, training)
    return metric, necked @ slot(head.cls_w)


def slot_triplet_loss(metric, labels, margin):
    """Batch-hard triplet loss over one slot's (N, D) metric features."""
    n = metric.shape[0]
    labels = np.asarray(labels)
    sq = metric.square().sum(axis=1)
    gram = metric @ metric.transpose((1, 0))
    d2 = (sq.reshape(n, 1) + sq.reshape(1, n) - gram * 2.0).relu()
    dist = d2.sqrt()
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same
    valid = pos_mask.any(axis=1) & neg_mask.any(axis=1)
    if not valid.any():
        warnings.warn("triplet loss: no anchor has a positive pair")
        return OpTensor(0.0)
    rows = np.flatnonzero(valid)
    pos_idx = np.where(pos_mask[rows], dist.data[rows], -np.inf).argmax(axis=1)
    neg_idx = np.where(neg_mask[rows], dist.data[rows], np.inf).argmin(axis=1)
    flat = dist.reshape(n * n)
    hardest_pos = flat.take(rows * n + pos_idx, axis=0)
    hardest_neg = flat.take(rows * n + neg_idx, axis=0)
    return (hardest_pos - hardest_neg + margin).relu().mean()


def slot_cross_entropy_loss(logits, labels):
    """Softmax cross-entropy over one slot's (N, K) logits."""
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"label outside [0, {c})")
    m = stop_gradient(logits.max(axis=1, keepdims=True))
    lse = (logits - m).exp().sum(axis=1).log() + m.reshape(n)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return (lse - (logits * onehot).sum(axis=1)).mean()


def slot_tail(model, f_ms, labels, margin, ce_weight, training=True):
    """(total, metrics, logits) of the per-slot tail on the branch
    outputs ``f_ms`` (branch name -> (N, T, V, C) Tensor): metrics and
    logits are lists of one Tensor per slot, ``total`` the mean over
    slots of triplet + ``ce_weight`` * cross-entropy."""
    metrics, logits = [], []
    for b, bname in enumerate(model.config.branches):
        pooled = slot_part_pool(f_ms[bname])
        n, parts, c = pooled.shape
        for p in range(parts):
            vec = pooled.take([p], axis=1).reshape(n, c)
            metric, logit = per_part_head(vec, model.heads[b * parts + p],
                                          training)
            metrics.append(metric)
            logits.append(logit)
    tri = concat([slot_triplet_loss(m, labels, margin).reshape(1)
                  for m in metrics]).mean()
    ce = concat([slot_cross_entropy_loss(lg, labels).reshape(1)
                 for lg in logits]).mean()
    return tri + ce * ce_weight, metrics, logits


def generic_tail(model, pools, labels, margin, ce_weight):
    """(total, triplet, ce, metrics, logits) of the stacked tail as it was
    built from the generic algebra, on the branches' (N, P, C) pooled
    slots ``pools``: the slots joined by ``concat``, the heads' roles in
    batched products and one ``batch_norm_train`` over the (N, S*D)
    columns, the losses as chains of generic nodes. The bit-exact oracle
    of the fused tail; it folds the BNNeck's statistics into the running
    averages as the fused heads do."""
    heads = model.heads
    pooled = concat(pools, axis=1).transpose((1, 0, 2))
    s, n, _c = pooled.shape
    metric = pooled @ heads.fc_w + ops(heads.fc_b).reshape(s, 1, -1)
    d = metric.shape[-1]
    necked, mu, var = batch_norm_train(
        metric.transpose((1, 0, 2)).reshape(n, s * d),
        ops(heads.bnn.gamma).reshape(s * d), ops(heads.bnn.beta).reshape(s * d),
        pagcn.BN_EPS)
    necked = necked.reshape(n, s, d).transpose((1, 0, 2))
    pagcn._update_running(heads.bnn, mu.reshape(s, d), var.reshape(s, d))
    logits = necked @ heads.cls_w
    tri = generic_triplet_loss(metric, labels, margin)
    ce = generic_cross_entropy_loss(logits, labels)
    return tri + ce * ce_weight, tri, ce, metric, logits


def generic_triplet_loss(metric, labels, margin):
    """``train.triplet_loss`` of (S, N, D) features as generic nodes."""
    s, n, _ = metric.shape
    labels = np.asarray(labels)
    sq = metric.square().sum(axis=2)                    # (S, N)
    gram = metric @ metric.transpose((0, 2, 1))         # (S, N, N)
    d2 = sq.reshape(s, n, 1) + sq.reshape(s, 1, n) - gram * 2.0
    dist = d2.relu().sqrt()
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(n, dtype=bool)
    neg_mask = ~same
    valid = pos_mask.any(axis=1) & neg_mask.any(axis=1)
    if not valid.any():
        warnings.warn("triplet loss: no anchor has a positive pair")
        return OpTensor(0.0)
    rows = np.flatnonzero(valid)
    pos_idx = np.where(pos_mask[rows], dist.data[:, rows], -np.inf).argmax(axis=2)
    neg_idx = np.where(neg_mask[rows], dist.data[:, rows], np.inf).argmin(axis=2)
    anchors = (np.arange(s)[:, None] * n + rows) * n
    flat = dist.reshape(s * n * n)
    hardest_pos = flat.take(anchors + pos_idx, axis=0)
    hardest_neg = flat.take(anchors + neg_idx, axis=0)
    return (hardest_pos - hardest_neg + margin).relu().mean(axis=1).mean()


def generic_cross_entropy_loss(logits, labels):
    """``train.cross_entropy_loss`` of (S, N, K) logits as generic nodes,
    stabilized with a detached per-row max."""
    labels = np.asarray(labels)
    s, n, c = logits.shape
    m = stop_gradient(logits.max(axis=2, keepdims=True))
    lse = (logits - m).exp().sum(axis=2).log() + m.reshape(s, n)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    picked = (logits * onehot).sum(axis=2)
    return (lse - picked).mean(axis=1).mean()


# -- the pooling node before the body was pooled from its parts -----------


def joint_group_pool(x, groups):
    """``autodiff.group_pool`` as it was when every group's maxima ran
    over its own joints, from a -inf fill, and were added to the means
    out of place."""
    n, t, v, c = x.shape
    group, joint = np.array([(p, j) for p, members in enumerate(groups)
                             for j in members]).T
    weight = 1.0 / np.bincount(group)[group]
    share = np.zeros((len(groups), v))
    np.add.at(share, (group, joint), weight)
    peak = np.full((len(groups), n, t, c), -np.inf)
    for p, j in zip(group, joint):
        np.maximum(peak[p], x.data[:, :, j], out=peak[p])
    per_frame = np.matmul(share, x.data) + np.moveaxis(peak, 0, 2)
    out = _make(per_frame.max(axis=1), (x,))
    if out.requires_grad:
        rows = np.arange(n)[:, None, None] * t + per_frame.argmax(axis=1)
        chan = np.arange(c)
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


# -- the Adam step one tensor at a time ----------------------------------


@dataclass
class AdamState:
    """The per-tensor Adam step's state: the step count and, per
    parameter name, moment arrays of its own, made on its first
    gradient."""

    step: int = 0
    m: dict = field(default_factory=dict)   # name -> first moment
    v: dict = field(default_factory=dict)   # name -> second moment


def adam_step(params: dict, state: AdamState, lr: float):
    """``train.adam_step`` as it was when it walked the parameters one by
    one, each with moment arrays of its own in ``state.m``/``state.v``."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in tensor {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        tmp = np.multiply(g, 1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += tmp
        np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
        tmp *= g
        v *= ADAM_BETA2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step = np.divide(m, bc1)
        step *= lr
        step /= tmp
        p.data -= step


# -- the model's initial tensors, drawn one tensor at a time -------------


def init_tensors(cfg, seed: int) -> dict:
    """``pagcn.model_tensors(pagcn.init_model(cfg, seed))`` written out:
    parameters then running statistics, in checkpoint order, each drawn
    on its own from ``np.random.default_rng(seed)``. Per block and
    subset k = 0..2 its weight, then with attention its query and key
    projections; then the block's temporal kernel. Per head its fc
    weight, then its classifier. A draw is uniform within
    +-1/sqrt(fan-in). Every other tensor is its constant: learned
    adjacencies, betas, fc biases and running means 0, gammas and
    running variances 1."""
    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    params, buffers = {}, {}

    def bn(prefix, c):
        params[f"{prefix}/gamma"], params[f"{prefix}/beta"] = np.ones(c), np.zeros(c)
        buffers[f"{prefix}/mean"], buffers[f"{prefix}/var"] = np.zeros(c), np.ones(c)

    widths = list(cfg.parts5_channels) + [cfg.larger_channels] * len(cfg.larger_schemes)
    for bname in cfg.branches:
        c_in = pagcn.BRANCH_CHANNELS[bname]
        for j, c_out in enumerate(widths):
            prefix = f"branch/{bname}/block{j}"
            for k in range(3):
                params[f"{prefix}/k{k}/weight"] = uniform((c_in, c_out), c_in)
                params[f"{prefix}/k{k}/adj"] = np.zeros((17, 17))
                if cfg.attention:
                    ce = max(c_in // 4, 4)
                    params[f"{prefix}/k{k}/attn_a"] = uniform((c_in, ce), c_in)
                    params[f"{prefix}/k{k}/attn_b"] = uniform((c_in, ce), c_in)
            k = cfg.temporal_kernel
            params[f"{prefix}/tkernel"] = uniform((k, c_out), k)
            bn(f"{prefix}/bn1", c_out)
            bn(f"{prefix}/bn2", c_out)
            c_in = c_out
    d = cfg.embed_dim
    for i in range(6 * len(cfg.branches)):
        prefix = f"head/{i:02d}"
        params[f"{prefix}/fc_w"] = uniform((widths[-1], d), widths[-1])
        params[f"{prefix}/fc_b"] = np.zeros(d)
        bn(f"{prefix}/bnn", d)
        params[f"{prefix}/cls_w"] = uniform((d, cfg.num_classes), d)
    return {**params, **buffers}
