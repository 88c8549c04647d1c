"""Reference implementations used as independent oracles.

Most are written with explicit index loops and plain Python math so
they share no vectorized code path with the package under test. The
second-to-last section keeps the chain of autodiff nodes a part-aware
graph block was built from before it became two fused nodes
(``graph_conv``, ``softmax``, ``attention_adjacency`` and
``ref_block_chain``), as the oracle of the fused block's values and
gradients. The last keeps the two fused training nodes as they were
when they stored their intermediates for backward
(``stored_spatial_graph_conv``, ``stored_block_epilogue``), as the
bit-exact oracle of the nodes that rebuild them.
"""

import math

import numpy as np

from gpgait import pagcn
from gpgait.autodiff import (Tensor, _bn_backward, _bn_normalize, _bn_xhat,
                             _make, _softmax, _temporal_conv,
                             _temporal_conv_grads, batch_norm_train,
                             temporal_conv)

BN_EPS = 1e-5


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


def ref_block(f, adjacency, learned, weights, attns, mask, tkernel,
              gamma1, beta1, gamma2, beta2, residual):
    y = ref_spatial(f, adjacency, learned, weights, attn=attns, mask=mask)
    y = relu_scalar(ref_batchnorm_train(y, gamma1, beta1))
    y = ref_temporal_conv(y, tkernel)
    y = relu_scalar(ref_batchnorm_train(y, gamma2, beta2))
    if residual:
        y = y + f
    return y


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
    y = _softmax(x.data, axis, mask)
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
    pooled = f_in.mean(axis=1)              # (N, V, C)
    q = pooled @ attn_a                     # (N, V, C_e)
    k = pooled @ attn_b
    scale = 1.0 / np.sqrt(attn_a.shape[1])
    sim = (q @ k.transpose((0, 2, 1))) * scale
    bool_mask = None if mask is None else (np.asarray(mask) > 0)
    return softmax(sim, axis=-1, mask=bool_mask)


def ref_spatial_chain(f_in, block, adjacency, mask):
    """Per subset: (fixed + learned + attention) * mask from generic
    nodes, then one ``graph_conv`` node."""
    mask_t = Tensor(mask)
    combined = []
    for k, sub in enumerate(block.subsets):
        adj = Tensor(adjacency[k]) + sub.learned_adj
        if sub.attn_a is not None:
            adj = adj + attention_adjacency(f_in, sub.attn_a, sub.attn_b, mask)
        combined.append(adj * mask_t)
    return graph_conv(f_in, combined, [sub.weight for sub in block.subsets])


def ref_batch_norm_chain(x, bn, training, update_stats):
    if training:
        out, mu, var = batch_norm_train(x, bn.gamma, bn.beta, (0, 1, 2),
                                        pagcn.BN_EPS)
        if update_stats:
            bn.running_mean[...] = (pagcn.BN_MOMENTUM * bn.running_mean
                                    + (1.0 - pagcn.BN_MOMENTUM) * mu)
            bn.running_var[...] = (pagcn.BN_MOMENTUM * bn.running_var
                                   + (1.0 - pagcn.BN_MOMENTUM) * var)
        return out
    xhat = (x - bn.running_mean) / np.sqrt(bn.running_var + pagcn.BN_EPS)
    return xhat * bn.gamma + bn.beta


def ref_block_chain(f_in, block, adjacency, masks, training=False,
                    update_stats=True):
    """spatial -> norm -> relu -> temporal -> norm -> relu -> residual,
    one autodiff node per step, in training and in inference mode."""
    y = ref_spatial_chain(f_in, block, adjacency, masks[block.mask_name])
    y = ref_batch_norm_chain(y, block.bn1, training, update_stats).relu()
    y = temporal_conv(y, block.temporal_kernel)
    y = ref_batch_norm_chain(y, block.bn2, training, update_stats).relu()
    if block.in_channels == block.out_channels:
        y = y + f_in
    return y


# -- the two training nodes with a stored tape --------------------------


def stored_spatial_graph_conv(f_in: Tensor, fixed: np.ndarray,
                              mask: np.ndarray, learned, weights, attn_q=(),
                              attn_k=()) -> Tensor:
    """``autodiff.spatial_graph_conv`` as it was when its node kept the
    aggregated (N, T, V*K, C_in) features, the stacked weights and the
    attention arrays for backward instead of rebuilding them."""
    n, t, v, c_in = f_in.shape
    k = len(weights)
    c_out = weights[0].shape[1]
    f = f_in.data
    w = np.concatenate([wk.data for wk in weights], axis=0)
    adj = fixed + np.stack([a.data for a in learned])              # (K, V, V)
    if attn_q:
        ce = attn_q[0].shape[1]
        scale = 1.0 / np.sqrt(ce)
        w_q = np.concatenate([a.data for a in attn_q], axis=1)     # (C_in, K*C_e)
        w_k = np.concatenate([a.data for a in attn_k], axis=1)
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
                (f_in, *learned, *weights, *attn_q, *attn_k))
    if not out.requires_grad:
        return out

    def bwd(g):
        g = g.reshape(-1, c_out)
        if any(wk.requires_grad for wk in weights):
            g_w = agg.T @ g
            for i, wk in enumerate(weights):
                if wk.requires_grad:
                    wk._accumulate(g_w[i * c_in:(i + 1) * c_in])
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
        g_learned = g_adj.sum(axis=0) if per_sequence else g_adj
        for i, a in enumerate(learned):
            if a.requires_grad:
                a._accumulate(g_learned[i])
        if attn_q:
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


def stored_block_epilogue(y: Tensor, gamma1: Tensor, beta1: Tensor,
                          kernel: Tensor, gamma2: Tensor, beta2: Tensor,
                          eps: float, residual: Tensor = None):
    """``autodiff.block_epilogue`` as it was when its node kept the
    first ReLU's output and the second normalized array for backward
    instead of rebuilding them."""
    shape, c = y.shape, y.shape[-1]
    y2 = y.data.reshape(-1, c)
    h, mu1, var1, std1 = _bn_normalize(y2, eps)
    h *= gamma1.data
    h += beta1.data
    np.maximum(h, 0.0, out=h)
    h = h.reshape(shape)
    xhat2 = _temporal_conv(h, kernel.data).reshape(-1, c)
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
        g_h, g_kernel = _temporal_conv_grads(g_z.reshape(shape), h, kernel.data,
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
