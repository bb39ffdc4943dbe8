"""Reverse-mode autodiff over dense f32/f64 arrays with block tags,
explicit activation release, and byte-exact live-memory accounting.

Forward evaluation is eager; every operation appends a Node to the tape.
A Node's `saved` list holds exactly the buffers its backward rule needs.
The memory meter charges, per node, the bytes of saved buffers that are
*activations* (produced by earlier ops) plus any auxiliary arrays; buffers
owned by leaves (parameters, dataset constants) are never charged because
they live outside the activation budget.

Charged buffers per primitive:
    matmul        both operand values (when non-leaf)
    linear        input value (when non-leaf); the weight is a leaf
    add/scale/transpose/reshape/concat-rows   nothing
    gather-rows / scatter-rows                the index vector
    layernorm     input value (when non-leaf) + per-row mean and inv-std
    softmax-lastdim   its own output
    attention     the fused q|k|v input (when non-leaf) + the probabilities
    gelu          input value (when non-leaf) + its CDF term 1 + erf(x/sqrt2)
    mse-masked    prediction value (when non-leaf)
    boundary      its own (copied) value

Every node, leaves included, takes its block tag from the `Tape.block`
scope open when it is recorded (None outside any scope); that scope is
the only way a node gets a tag.  Backward's block boundary and release
both select nodes by this tag.

Releasing a node drops its saved buffers and decreases the live counter by
exactly the node's charged bytes; running backward through a released node
is a lifecycle error.

Backward keeps only the gradient frontier: a non-leaf node's gradient is
dropped as soon as its backward rule has run, so intermediate gradients do
not accumulate over the pass.  Leaf gradients stay until backward returns
them.  Gradients are never charged; the table above is the whole meter.
"""

import numpy as np
from scipy.special import erf

LN_EPS = 1e-6


class TapeError(Exception):
    """Base class for tape failures."""


class DimensionError(TapeError):
    pass


class ContractError(TapeError):
    pass


class LifecycleError(TapeError):
    pass


class NumericError(TapeError):
    pass


def _check_dtype(arr):
    if arr.dtype not in (np.float32, np.float64):
        raise ContractError(f"tensors must be f32 or f64, got {arr.dtype}")


class Node:
    """One recorded value: a dense buffer plus its graph linkage.

    `saved` holds the arrays the backward rule will read; `bytes` is the
    charged size of those arrays (leaf-owned buffers charge zero).
    """

    __slots__ = ("kind", "value", "inputs", "block", "requires_grad",
                 "is_leaf", "name", "attrs", "saved", "bytes", "disposed")

    def __init__(self, kind, value, inputs=(), requires_grad=False,
                 is_leaf=False, name=None, attrs=None):
        self.kind = kind
        self.value = value
        self.inputs = tuple(inputs)
        self.block = None
        self.requires_grad = requires_grad
        self.is_leaf = is_leaf
        self.name = name
        self.attrs = attrs or {}
        self.saved = []
        self.bytes = 0
        self.disposed = False

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __repr__(self):
        tag = f" block={self.block}" if self.block is not None else ""
        nm = f" name={self.name!r}" if self.name else ""
        return f"<Node {self.kind} {tuple(self.shape)}{tag}{nm}>"


class MemoryMeter:
    """Running account of bytes held by saved activations.

    live is the sum over undisposed nodes of their charged bytes; peak is
    the running maximum.
    """

    def __init__(self):
        self.live_activation_bytes = 0
        self.peak_activation_bytes = 0

    def charge(self, nbytes):
        self.live_activation_bytes += nbytes
        if self.live_activation_bytes > self.peak_activation_bytes:
            self.peak_activation_bytes = self.live_activation_bytes

    def discharge(self, nbytes):
        self.live_activation_bytes -= nbytes
        if self.live_activation_bytes < 0:
            raise LifecycleError("live activation bytes went negative")


class _BlockScope:
    def __init__(self, tape, tag):
        self.tape = tape
        self.tag = tag
        self.prev = None

    def __enter__(self):
        self.prev = self.tape._block
        self.tape._block = self.tag
        return self.tape

    def __exit__(self, *exc):
        self.tape._block = self.prev
        return False


class Tape:
    """Eagerly evaluated graph confined to one training step.

    Nodes are appended in creation order, which is therefore a topological
    order; backward walks it in reverse.
    """

    def __init__(self):
        self.nodes = []
        self.meter = MemoryMeter()
        self._block = None
        self._released_blocks = set()
        self._backwarded_blocks = set()

    # ----- recording -------------------------------------------------

    def block(self, tag):
        """Context manager: ops recorded inside carry block tag `tag`."""
        return _BlockScope(self, tag)

    def leaf(self, value, name=None, requires_grad=False):
        """Register a constant or parameter; never charged to the meter."""
        value = np.ascontiguousarray(value)
        _check_dtype(value)
        return self._register(Node("leaf", value, requires_grad=requires_grad,
                                   is_leaf=True, name=name), [])

    def _register(self, node, saved_pairs):
        """Tag, charge and append a node.

        saved_pairs: (array, charged) tuples retained for backward.
        """
        nbytes = 0
        for arr, charged in saved_pairs:
            node.saved.append(arr)
            if charged:
                nbytes += arr.nbytes
        node.bytes = nbytes
        node.block = self._block
        self.nodes.append(node)
        self.meter.charge(nbytes)
        return node

    @staticmethod
    def _act(x):
        """saved-pair helper: charge only activation (non-leaf) buffers."""
        return (x.value, not x.is_leaf)

    # ----- primitives ------------------------------------------------

    def matmul(self, a, b):
        av, bv = a.value, b.value
        if av.ndim == 2 and bv.ndim == 2:
            pass
        elif av.ndim == 3 and bv.ndim in (2, 3):
            pass
        else:
            raise DimensionError(
                f"matmul supports [m,k]x[k,n], [b,m,k]x[k,n], [b,m,k]x[b,k,n]; "
                f"got {av.shape} x {bv.shape}")
        if av.shape[-1] != bv.shape[-2] or (
                av.ndim == 3 and bv.ndim == 3 and av.shape[0] != bv.shape[0]):
            raise DimensionError(f"matmul extent mismatch: {av.shape} x {bv.shape}")
        out = av @ bv
        node = Node("matmul", np.ascontiguousarray(out), (a, b),
                    requires_grad=a.requires_grad or b.requires_grad)
        return self._register(node, [self._act(a), self._act(b)])

    def linear(self, x, w, b):
        """x @ w + b in one node: the bias is added in place to the product."""
        xv, wv, bv = x.value, w.value, b.value
        if xv.ndim not in (2, 3) or wv.ndim != 2 or bv.shape != wv.shape[-1:]:
            raise DimensionError(
                f"linear supports [m,k] or [b,m,k] x [k,n] + [n]; "
                f"got {xv.shape} x {wv.shape} + {bv.shape}")
        if xv.shape[-1] != wv.shape[0]:
            raise DimensionError(f"linear extent mismatch: {xv.shape} x {wv.shape}")
        out = xv @ wv
        out += bv
        node = Node("linear", out, (x, w, b),
                    requires_grad=(x.requires_grad or w.requires_grad
                                   or b.requires_grad))
        return self._register(node, [self._act(x), self._act(w)])

    def add(self, x, y):
        xs, ys = x.value.shape, y.value.shape
        if xs != ys and ys != xs[len(xs) - len(ys):]:
            raise DimensionError(
                f"add requires equal shapes or a trailing-shape broadcast; "
                f"got {xs} + {ys}")
        node = Node("add", x.value + y.value, (x, y),
                    requires_grad=x.requires_grad or y.requires_grad,
                    attrs={"y_ndim": y.value.ndim})
        return self._register(node, [])

    def scale(self, x, c):
        node = Node("scale", x.value * x.value.dtype.type(c), (x,),
                    requires_grad=x.requires_grad, attrs={"c": float(c)})
        return self._register(node, [])

    def transpose(self, x):
        if x.value.ndim < 2:
            raise DimensionError(f"transpose needs rank >= 2, got {x.value.shape}")
        out = np.ascontiguousarray(np.swapaxes(x.value, -1, -2))
        node = Node("transpose", out, (x,), requires_grad=x.requires_grad)
        return self._register(node, [])

    def reshape(self, x, shape):
        shape = tuple(int(s) for s in shape)
        if int(np.prod(shape)) != x.value.size:
            raise DimensionError(f"reshape {x.value.shape} -> {shape}: size mismatch")
        out = np.ascontiguousarray(x.value).reshape(shape).copy()
        node = Node("reshape", out, (x,),
                    requires_grad=x.requires_grad, attrs={"in_shape": x.value.shape})
        return self._register(node, [])

    @staticmethod
    def _check_row_ids(ids, n_rows, op):
        """Rank, range and per-sample uniqueness of a row-index array."""
        if ids.ndim not in (1, 2):
            raise DimensionError(f"{op} ids must be rank 1 or 2, got {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
            raise DimensionError(
                f"{op} ids out of range [0, {n_rows}): min={ids.min()} max={ids.max()}")
        ordered = np.sort(ids, axis=-1)
        if np.any(ordered[..., 1:] == ordered[..., :-1]):
            raise ContractError(f"{op} ids must be unique per sample")

    def gather_rows(self, x, ids):
        """Select rows (axis -2) by index; ids rank 2 selects per batch entry.

        Ids must be unique per sample, so the backward rule can place each
        gradient row by assignment.
        """
        xv = x.value
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        self._check_row_ids(ids, xv.shape[-2], "gather-rows")
        if xv.ndim == 2 and ids.ndim == 1:
            out = xv[ids]
        elif xv.ndim == 3 and ids.ndim == 1:
            out = xv[:, ids, :]
        elif xv.ndim == 3 and ids.ndim == 2:
            if ids.shape[0] != xv.shape[0]:
                raise DimensionError(
                    f"gather-rows batch mismatch: ids {ids.shape} vs x {xv.shape}")
            out = np.take_along_axis(xv, ids[:, :, None], axis=1)
        else:
            raise DimensionError(
                f"gather-rows: unsupported ranks x={xv.shape} ids={ids.shape}")
        node = Node("gather-rows", np.ascontiguousarray(out), (x,),
                    requires_grad=x.requires_grad, attrs={"in_shape": xv.shape})
        return self._register(node, [(ids, True)])

    def scatter_rows(self, x, ids, num_rows):
        """Place row j of x at row ids[j] of a zero output with num_rows rows."""
        xv = x.value
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        self._check_row_ids(ids, num_rows, "scatter-rows")
        if ids.shape[-1] != xv.shape[-2]:
            raise DimensionError(
                f"scatter-rows: {xv.shape[-2]} rows but {ids.shape[-1]} ids")
        if xv.ndim == 2 and ids.ndim == 1:
            out = np.zeros((num_rows, xv.shape[-1]), dtype=xv.dtype)
            out[ids] = xv
        elif xv.ndim == 3 and ids.ndim == 1:
            out = np.zeros((xv.shape[0], num_rows, xv.shape[-1]), dtype=xv.dtype)
            out[:, ids, :] = xv
        elif xv.ndim == 3 and ids.ndim == 2:
            if ids.shape[0] != xv.shape[0]:
                raise DimensionError(
                    f"scatter-rows batch mismatch: ids {ids.shape} vs x {xv.shape}")
            out = np.zeros((xv.shape[0], num_rows, xv.shape[-1]), dtype=xv.dtype)
            np.put_along_axis(out, ids[:, :, None], xv, axis=1)
        else:
            raise DimensionError(
                f"scatter-rows: unsupported ranks x={xv.shape} ids={ids.shape}")
        node = Node("scatter-rows", out, (x,), requires_grad=x.requires_grad)
        return self._register(node, [(ids, True)])

    def concat_rows(self, xs):
        """Concatenate along axis -2."""
        if len(xs) < 1:
            raise ContractError("concat-rows needs at least one input")
        shapes = [x.value.shape for x in xs]
        base = shapes[0]
        for s in shapes[1:]:
            if len(s) != len(base) or s[:-2] != base[:-2] or s[-1] != base[-1]:
                raise DimensionError(f"concat-rows shape mismatch: {shapes}")
        out = np.concatenate([x.value for x in xs], axis=-2)
        node = Node("concat-rows", np.ascontiguousarray(out), tuple(xs),
                    requires_grad=any(x.requires_grad for x in xs),
                    attrs={"sizes": [s[-2] for s in shapes]})
        return self._register(node, [])

    def layernorm(self, x, gamma, beta):
        xv = x.value
        d = xv.shape[-1]
        if gamma.value.shape != (d,) or beta.value.shape != (d,):
            raise DimensionError(
                f"layernorm affine shapes {gamma.value.shape}/{beta.value.shape} "
                f"do not match feature dim {d}")
        # One mean and one centred buffer, which becomes the output in
        # place; the same operations as `xv.var` and `(xv - mu) * inv_std
        # * gamma + beta`, so the values are equal bit for bit.
        mu = xv.mean(axis=-1, keepdims=True)
        out = xv - mu
        var = (out * out).mean(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + xv.dtype.type(LN_EPS))
        out *= inv_std
        out *= gamma.value
        out += beta.value
        node = Node("layernorm", out, (x, gamma, beta),
                    requires_grad=(x.requires_grad or gamma.requires_grad
                                   or beta.requires_grad))
        return self._register(node, [self._act(x), (mu, True), (inv_std, True),
                                      self._act(gamma)])

    def softmax(self, x):
        xv = x.value
        out = xv - xv.max(axis=-1, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=-1, keepdims=True)
        node = Node("softmax-lastdim", out, (x,), requires_grad=x.requires_grad)
        return self._register(node, [(out, True)])

    def attention(self, qkv, heads):
        """Multi-head softmax(q k^T / sqrt(dh)) v over a fused projection.

        qkv is [b, n, 3d] with columns ordered (q|k|v, head, dh); it is
        viewed as [3, b, heads, n, dh] and every head runs in one batched
        product.  The scale, shift, exp and divide act in place on the score
        buffer, which becomes the saved probabilities.  Returns the heads
        merged back to [b, n, d], columns ordered (head, dh).
        """
        qv = qkv.value
        if qv.ndim != 3 or qv.shape[-1] % (3 * heads) != 0:
            raise DimensionError(
                f"attention needs [b, n, 3*d] with d divisible by {heads} "
                f"heads; got {qv.shape}")
        b, n, d = qv.shape[0], qv.shape[1], qv.shape[2] // 3
        q, k, v = _split_heads(qv, heads)
        # k^T as a contiguous operand: BLAS may sum a transposed operand in
        # another order, and this keeps the scores bitwise equal to per-head
        # products.
        kt = np.ascontiguousarray(np.swapaxes(k, -1, -2))
        probs = q @ kt                                     # [b, heads, n, n]
        probs *= qv.dtype.type(1.0 / np.sqrt(d // heads))
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        ctx = probs @ v                                    # [b, heads, n, dh]
        out = np.ascontiguousarray(np.swapaxes(ctx, 1, 2)).reshape(b, n, d)
        node = Node("attention", out, (qkv,), requires_grad=qkv.requires_grad,
                    attrs={"heads": heads})
        return self._register(node, [self._act(qkv), (probs, True)])

    def gelu(self, x):
        xv = x.value
        # 0.5 * x * (1 + erf(x / sqrt2)), with the CDF term and the product
        # computed in place: no full-size temporaries beyond cdf and out.
        # The CDF term is saved for the backward rule.
        cdf = xv / np.sqrt(xv.dtype.type(2.0))
        erf(cdf, out=cdf)
        cdf += 1.0
        out = 0.5 * xv
        out *= cdf
        node = Node("gelu", out, (x,), requires_grad=x.requires_grad)
        return self._register(node, [self._act(x), (cdf, True)])

    def mse_masked(self, pred, target, mask):
        """Mean squared error over masked rows only (mask entry 1 = masked).

        pred/target are [..., N, P]; mask is [..., N].  The per-row error is
        averaged over P, then averaged over rows with mask == 1.
        """
        pv, tv, mv = pred.value, target.value, mask.value
        if pv.shape != tv.shape:
            raise DimensionError(f"mse-masked pred {pv.shape} vs target {tv.shape}")
        if mv.shape != pv.shape[:-1]:
            raise DimensionError(f"mse-masked mask {mv.shape} vs rows {pv.shape[:-1]}")
        total = mv.sum()
        if total == 0:
            raise ContractError("mse-masked: no masked rows, loss undefined")
        per_row = ((pv - tv) ** 2).mean(axis=-1)
        out = np.asarray((per_row * mv).sum() / total, dtype=pv.dtype)
        node = Node("mse-masked", out, (pred, target, mask),
                    requires_grad=pred.requires_grad)
        return self._register(node, [self._act(pred), self._act(target),
                                      self._act(mask)])

    def boundary(self, x):
        """Duplicate x into a detached, metered buffer.

        The copy feeds the next block as a constant leaf, so gradients from
        later losses terminate here; it stays charged until disposed.
        """
        node = Node("boundary", x.value.copy(), (),
                    requires_grad=False, is_leaf=True)
        return self._register(node, [(node.value, True)])

    # ----- backward ----------------------------------------------------

    def backward(self, loss, boundary_block=None):
        """Gradients of a scalar loss w.r.t. reachable named parameters.

        With boundary_block set, nodes tagged with a smaller block id are
        treated as constant leaves: traversal and the returned table stop
        at the block boundary.
        """
        if loss.disposed:
            raise LifecycleError("backward from a released loss node")
        if loss.value.size != 1:
            raise ContractError(
                f"backward needs a scalar loss, got shape {loss.value.shape}")

        def frozen(node):
            return (boundary_block is not None and node.block is not None
                    and node.block < boundary_block)

        # Ancestors of the loss, pruned at leaves and frozen nodes.
        visited = set()
        order = []
        stack = [loss]
        while stack:
            node = stack.pop()
            if id(node) in visited:
                continue
            visited.add(id(node))
            order.append(node)
            if node.is_leaf or frozen(node):
                continue
            if node.disposed:
                raise LifecycleError(
                    f"backward reached released node {node!r}")
            stack.extend(node.inputs)

        grads = {id(loss): np.ones_like(loss.value)}
        # Creation order is topological; filter to the visited subgraph.
        sub = [n for n in self.nodes if id(n) in visited]
        for node in reversed(sub):
            if node.is_leaf or frozen(node):
                continue
            g = grads.pop(id(node), None)
            if g is None:
                continue
            for inp, contrib in zip(node.inputs, _VJP[node.kind](node, g)):
                if contrib is None:
                    continue
                if inp.is_leaf and not inp.requires_grad:
                    continue
                acc = grads.get(id(inp))
                grads[id(inp)] = contrib if acc is None else acc + contrib

        table = {}
        for node in sub:
            if not (node.is_leaf and node.requires_grad and node.name):
                continue
            if frozen(node):
                continue
            g = grads.get(id(node))
            if g is None:
                g = np.zeros_like(node.value)
            table[node.name] = g
        self._backwarded_blocks.update(
            n.block for n in sub if n.block is not None and not n.is_leaf
            and not frozen(n))
        return table

    # ----- release -----------------------------------------------------

    def release_block_activations(self, block_id, keep=None):
        """Drop saved buffers of all nodes tagged block_id, except `keep`.

        Requires that the block's backward already ran; repeated release of
        the same block is an error.  Returns the number of bytes freed.
        """
        if block_id in self._released_blocks:
            raise LifecycleError(f"block {block_id} already released")
        if block_id not in self._backwarded_blocks:
            raise LifecycleError(
                f"release of block {block_id} before its backward pass")
        freed = 0
        for node in self.nodes:
            if node.block == block_id and not node.disposed and node is not keep:
                freed += self._dispose(node)
        self._released_blocks.add(block_id)
        return freed

    def dispose(self, node):
        """Explicitly free one node (e.g. a boundary buffer no longer needed)."""
        if node.disposed:
            raise LifecycleError(f"node {node!r} already disposed")
        return self._dispose(node)

    def _dispose(self, node):
        freed = node.bytes
        self.meter.discharge(freed)
        node.saved = None
        node.disposed = True
        if not node.is_leaf:
            node.value = None
        return freed


def _split_heads(qkv, heads):
    """Views q, k, v of a [b, n, 3d] array, each [b, heads, n, dh]."""
    b, n, width = qkv.shape
    return qkv.reshape(b, n, 3, heads, width // (3 * heads)).transpose(2, 0, 3, 1, 4)


# ----- backward rules ----------------------------------------------------

def _vjp_matmul(node, g):
    a, b = node.saved[0], node.saved[1]
    if a.ndim == 2 and b.ndim == 2:
        return (g @ b.T, a.T @ g)
    if a.ndim == 3 and b.ndim == 2:
        da = g @ b.T
        db = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return (da, db)
    da = g @ np.swapaxes(b, -1, -2)
    db = np.swapaxes(a, -1, -2) @ g
    return (da, db)


def _vjp_linear(node, g):
    dx, dw = _vjp_matmul(node, g)
    return (dx, dw, g.sum(axis=tuple(range(g.ndim - 1))))


def _vjp_add(node, g):
    gy = g
    extra = g.ndim - node.attrs["y_ndim"]
    if extra:
        gy = g.sum(axis=tuple(range(extra)))
    return (g, gy)


def _vjp_scale(node, g):
    return (g * g.dtype.type(node.attrs["c"]),)


def _vjp_transpose(node, g):
    return (np.swapaxes(g, -1, -2),)


def _vjp_reshape(node, g):
    return (g.reshape(node.attrs["in_shape"]),)


def _vjp_gather_rows(node, g):
    ids = node.saved[0]
    dx = np.zeros(node.attrs["in_shape"], dtype=g.dtype)
    if dx.ndim == 2:
        dx[ids] = g
    elif ids.ndim == 1:
        dx[:, ids] = g
    else:
        np.put_along_axis(dx, ids[:, :, None], g, axis=1)
    return (dx,)


def _vjp_scatter_rows(node, g):
    ids = node.saved[0]
    if g.ndim == 2:
        return (g[ids],)
    if ids.ndim == 1:
        return (g[:, ids, :],)
    return (np.take_along_axis(g, ids[:, :, None], axis=1),)


def _vjp_concat_rows(node, g):
    sizes = node.attrs["sizes"]
    outs = []
    start = 0
    for s in sizes:
        outs.append(np.ascontiguousarray(g[..., start:start + s, :]))
        start += s
    return tuple(outs)


def _vjp_layernorm(node, g):
    x, mu, inv_std, gamma = node.saved
    xhat = (x - mu) * inv_std
    dgamma = (g * xhat).reshape(-1, x.shape[-1]).sum(axis=0)
    dbeta = g.reshape(-1, x.shape[-1]).sum(axis=0)
    dxhat = g * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * (dxhat - m1 - xhat * m2)
    return (dx, dgamma, dbeta)


def _vjp_softmax(node, g):
    y = node.saved[0]
    s = (g * y).sum(axis=-1, keepdims=True)
    return (y * (g - s),)


def _vjp_attention(node, g):
    qkv, probs = node.saved
    heads = node.attrs["heads"]
    b, n, width = qkv.shape
    q, k, v = _split_heads(qkv, heads)
    gctx = np.swapaxes(g.reshape(b, n, heads, width // (3 * heads)), 1, 2)
    # dq, dk and dv land in one [b, n, 3, heads, dh] buffer: the gradient
    # of qkv, with no per-head copies to merge afterwards.
    dqkv = np.empty_like(qkv)
    dq, dk, dv = _split_heads(dqkv, heads)
    np.matmul(np.swapaxes(probs, -1, -2), gctx, out=dv)
    dprobs = gctx @ np.swapaxes(v, -1, -2)
    # softmax: p * (dp - sum(dp * p)), then the 1/sqrt(dh) scale
    dprobs -= (dprobs * probs).sum(axis=-1, keepdims=True)
    dprobs *= probs
    dprobs *= qkv.dtype.type(1.0 / np.sqrt(width // (3 * heads)))
    np.matmul(dprobs, k, out=dq)
    np.matmul(np.swapaxes(dprobs, -1, -2), q, out=dk)
    return (dqkv,)


def _vjp_gelu(node, g):
    x, cdf = node.saved
    # g * (0.5 * cdf + x * pdf(x)), in place in one buffer.  The forward's
    # CDF term 1 + erf(x/sqrt2) is reused; halving it is exact.
    dx = -0.5 * x
    dx *= x
    np.exp(dx, out=dx)
    dx /= np.sqrt(x.dtype.type(2.0 * np.pi))
    dx *= x
    dx += 0.5 * cdf
    dx *= g
    return (dx,)


def _vjp_mse_masked(node, g):
    pred, target, mask = node.saved
    p = pred.shape[-1]
    total = mask.sum()
    dpred = 2.0 * (pred - target) * mask[..., None] / (p * total)
    return ((dpred * g).astype(pred.dtype, copy=False), None, None)


_VJP = {
    "matmul": _vjp_matmul,
    "linear": _vjp_linear,
    "add": _vjp_add,
    "scale": _vjp_scale,
    "transpose": _vjp_transpose,
    "reshape": _vjp_reshape,
    "gather-rows": _vjp_gather_rows,
    "scatter-rows": _vjp_scatter_rows,
    "concat-rows": _vjp_concat_rows,
    "layernorm": _vjp_layernorm,
    "softmax-lastdim": _vjp_softmax,
    "attention": _vjp_attention,
    "gelu": _vjp_gelu,
    "mse-masked": _vjp_mse_masked,
}


def finite_diff(fn, point, eps=1e-6):
    """Central-difference gradient of a scalar function at `point`.

    fn maps an ndarray to a float; this is the independent oracle used to
    check every backward rule.
    """
    point = np.asarray(point, dtype=np.float64)
    if eps <= 0:
        raise ContractError("finite_diff needs eps > 0")
    grad = np.zeros_like(point)
    flat = point.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(fn(point))
        flat[i] = orig - eps
        fm = float(fn(point))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite function value near coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad
