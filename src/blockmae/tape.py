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
    linear        input value (when non-leaf); the weight is a leaf.  An
                  optional residual, added in place, is not saved: its
                  gradient is the incoming one
    add/scale/transpose/concat-rows   nothing
    gather-rows   the index vector
    layernorm     input value (when non-leaf) + per-row mean and inv-std
    layernorm-linear   as layernorm; the normed rows are not saved, and
                  backward recomputes them from x, mean and inv-std
    softmax-lastdim   its own output
    layernorm-attention   as layernorm; x is the residual too.  Plus each
                  attention row's softmax max and sum.  Neither the normed
                  rows, q|k|v, the probabilities nor the merged heads are
                  saved: backward rebuilds them from x and those, a chunk
                  of samples at a time
    gelu          input value (when non-leaf) + its CDF term 1 + erf(x/sqrt2)
    layernorm-mlp as layernorm, plus the CDF term of the GELU at the
                  hidden width; x is the residual too.  Neither the fc1
                  output nor the GELU output is saved: backward recomputes
                  fc1 from the normed rows a chunk of rows at a time, and
                  the GELU output as 0.5 * fc1 * CDF term
    unshuffle-attention   a decoder's input and its first attention
                  sublayer: the bridge output z (when non-leaf), the
                  per-sample row order (int64 ids) and the row statistics of
                  layernorm-attention.  The input, mask tokens put among
                  z's rows plus the position table, is not saved: backward
                  rebuilds it from z, the order and those two leaves
    mse-masked    prediction value (when non-leaf)
    boundary      x's array itself, shared, not copied, and charged once:
                  by the node of x's block that saves it until that block
                  is released, by the boundary from then on; by the
                  boundary from the start when no node of x's block saves it

Every node, leaves included, takes its block tag from the `Tape.block`
scope open when it is recorded (None outside any scope); that scope is
the only way a node gets a tag.  Release and its lifecycle check select
nodes by this tag; gradients never read it.  Blocks are isolated by the
`boundary` leaf alone: backward stops at leaves, and a later block
continues from its boundary leaf of the earlier block's output, which
shares that output's array and makes it read-only.

Lifecycle.  A backward rule reads only its node's `saved` buffers, its
`attrs` and the incoming gradient, never a `value`.  So backward drops the
value of every node it walks, constant leaves included, except the loss's
and the parameters' (leaves with `requires_grad`), before its reverse
sweep; a value that a consumer saved stays alive through `saved`, and a
boundary leaf's array through its own `saved` until it is released.
It drops each node's saved buffers as soon as that node's rule has run;
the meter charges them until release, so the peak and the live counter
read the same as if they were kept.  A rule may write over a buffer its
own node made (the MLP node's CDF term), since nothing reads it after
the rule, but never into a saved input: another node, a later block's
boundary leaf among them, may hold the same array.  A node none of whose
inputs takes a gradient (each is a leaf without `requires_grad`) has its
rule skipped and its saved buffers dropped all the same.  Releasing a
node, a leaf or not, drops both its value and its saved buffers and
decreases the live counter by exactly the node's charged bytes; releasing
a block then charges each boundary leaf whose array that block's nodes
held, so the counter falls by the block's bytes less those.  Parameter
arrays outlive their leaves in the caller's table.  Running backward
through a released node, or through a node an earlier backward ran the
rule of, is a lifecycle error, and a later block must continue from a
`boundary` leaf, not from an earlier block's nodes, whose values are gone
after that block's backward.

Backward keeps only the gradient frontier: a non-leaf node's gradient is
dropped as soon as its backward rule has run, so intermediate gradients do
not accumulate over the pass.  Leaf gradients stay until backward returns
them.  Gradients are never charged; the table above is the whole meter.

Threading: the heavy kernels (the forwards of linear, layernorm, gelu
and the fused nodes, and their backward rules) run on all cores the
process may use.  They split their rows over the leading axis, or run
independent products at the same time; kernels too small to repay a
hand-off run inline.  Only numpy work on disjoint slices runs in worker
threads: node creation, recording, metering, the backward order and
release stay on the calling thread.  Each part computes its rows with
the same operations as the whole array would, and reductions across rows
are never split, so every value, saved buffer and meter reading is the
same bit for bit whatever the number of workers.
"""

import contextvars
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from scipy.special import erf

LN_EPS = 1e-6
# Threads a split kernel may use, the caller's included: the cores this
# process may run on.
_PARTS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)
# Elements per thread below which a hand-off to a worker (about 0.1 ms on
# a 2-core VM) costs more than it saves.
_PART_ELEMENTS = 1 << 16


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


@functools.cache
def _workers(count):
    """The worker pool, made on first use: `count` threads besides the
    caller."""
    return ThreadPoolExecutor(max_workers=count)


def _parallel(size, *tasks, rows=0, part=None):
    """Run `tasks`, and `part(lo, hi)` over slices of range(rows), at once.

    `size` is the element count of the kernel's largest array; it gets one
    thread per _PART_ELEMENTS elements, up to _PARTS, and with one thread
    every call runs inline on the caller.  `range(rows)` is cut into that
    many contiguous slices of the leading axis, and `part` writes its rows
    into preallocated outputs.  The caller runs the first call, then every
    call no worker has started yet.  All calls have finished when this
    returns or raises; a failure is raised on the caller.  Returns the
    results of `tasks`.
    """
    threads = max(1, min(_PARTS, size // _PART_ELEMENTS))
    calls = list(tasks)
    if part is not None:
        k = max(1, min(threads, rows))
        bounds = [rows * i // k for i in range(k + 1)]
        calls += [functools.partial(part, lo, hi)
                  for lo, hi in zip(bounds, bounds[1:])]
    if threads == 1 or len(calls) == 1:
        return [call() for call in calls][:len(tasks)]
    # Each worker call runs in a copy of the caller's context, so numpy's
    # error state (`np.errstate`) is the same in every part.
    futures = [_workers(threads - 1).submit(contextvars.copy_context().run,
                                            call) for call in calls[1:]]
    try:
        results = [calls[0]()]
        inline = {i: calls[i + 1]() for i, fut in enumerate(futures)
                  if fut.cancel()}
        results += [inline[i] if i in inline else fut.result()
                    for i, fut in enumerate(futures)]
    finally:
        for fut in futures:
            fut.cancel()
        wait(futures)
    return results[:len(tasks)]


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
        # Not the shape: release and backward clear `value`, and a
        # LifecycleError about a released node still formats its message.
        tag = f" block={self.block}" if self.block is not None else ""
        nm = f" name={self.name!r}" if self.name else ""
        state = " released" if self.disposed else ""
        return f"<Node {self.kind}{tag}{nm}{state}>"


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
        self._handovers = {}   # block -> boundary leaves its nodes hold

    # ----- recording -------------------------------------------------

    def block(self, tag):
        """Context manager: ops recorded inside carry block tag `tag`."""
        return _BlockScope(self, tag)

    def leaf(self, value, name=None, requires_grad=False):
        """Register a constant or parameter; never charged to the meter.
        Leaves are the only nodes that carry `requires_grad`."""
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
        node = Node("matmul", np.ascontiguousarray(out), (a, b))
        return self._register(node, [self._act(a), self._act(b)])

    def linear(self, x, w, b, residual=None):
        """x @ w + b in one node, x [b, m, k]: the bias is added in place,
        and so is `residual`, a node of the output's shape, when given."""
        xv, wv, bv = x.value, w.value, b.value
        _check_linear(xv.shape, wv.shape, bv.shape, "linear")
        out = np.empty(xv.shape[:-1] + wv.shape[1:], np.result_type(xv, wv))
        rv = _residual_value(residual, out.shape)

        def rows(lo, hi):
            _linear_rows(xv[lo:hi], wv, bv, out[lo:hi],
                         None if rv is None else rv[lo:hi])
        _parallel(out.size, rows=len(xv), part=rows)
        node = Node("linear", out, _with_residual((x, w, b), residual))
        return self._register(node, [self._act(x), self._act(w)])

    def add(self, x, y):
        xs, ys = x.value.shape, y.value.shape
        if xs != ys and ys != xs[len(xs) - len(ys):]:
            raise DimensionError(
                f"add requires equal shapes or a trailing-shape broadcast; "
                f"got {xs} + {ys}")
        node = Node("add", x.value + y.value, (x, y),
                    attrs={"y_ndim": y.value.ndim})
        return self._register(node, [])

    def scale(self, x, c):
        node = Node("scale", x.value * x.value.dtype.type(c), (x,),
                    attrs={"c": float(c)})
        return self._register(node, [])

    def transpose(self, x):
        if x.value.ndim < 2:
            raise DimensionError(f"transpose needs rank >= 2, got {x.value.shape}")
        out = np.ascontiguousarray(np.swapaxes(x.value, -1, -2))
        node = Node("transpose", out, (x,))
        return self._register(node, [])

    def gather_rows(self, x, ids):
        """Rows ids[i] of batch entry i of x [b, n, d], for ids [b, k].

        Ids must be unique per sample, so the backward rule can place each
        gradient row by assignment.
        """
        xv = x.value
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        if xv.ndim != 3 or ids.ndim != 2 or ids.shape[0] != xv.shape[0]:
            raise DimensionError(
                f"gather-rows needs x [b, n, d] and ids [b, k]; got "
                f"x={xv.shape} ids={ids.shape}")
        n_rows = xv.shape[1]
        if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
            raise DimensionError(
                f"gather-rows ids out of range [0, {n_rows}): min={ids.min()} "
                f"max={ids.max()}")
        ordered = np.sort(ids, axis=-1)
        if np.any(ordered[..., 1:] == ordered[..., :-1]):
            raise ContractError("gather-rows ids must be unique per sample")
        node = Node("gather-rows", xv[_per_sample(ids)], (x,),
                    attrs={"in_shape": xv.shape})
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
                    attrs={"sizes": [s[-2] for s in shapes]})
        return self._register(node, [])

    def layernorm(self, x, gamma, beta):
        xv = x.value
        _check_layernorm(xv.shape, gamma.value, beta.value)
        out = np.empty_like(xv)
        mu = np.empty(xv.shape[:-1] + (1,), xv.dtype)
        inv_std = np.empty_like(mu)

        def rows(lo, hi):
            _layernorm_rows(*(_lead(a)[lo:hi] for a in (xv, mu, inv_std, out)),
                            gamma.value, beta.value)
        _parallel(xv.size, rows=len(_lead(xv)), part=rows)
        node = Node("layernorm", out, (x, gamma, beta))
        return self._register(node, [self._act(x), (mu, True), (inv_std, True),
                                      self._act(gamma)])

    def layernorm_linear(self, x, gamma, beta, w, b):
        """linear(layernorm(x, gamma, beta), w, b) in one node, x [b, m, k].

        Each part normalizes its rows into a temporary that the product
        reads, with the kernels of `layernorm` and `linear`, so the output
        is bitwise equal to the two nodes'.  The normed rows are not saved:
        backward recomputes them from x and the row statistics.
        """
        xv, gv, bev, wv, bv = (n.value for n in (x, gamma, beta, w, b))
        _check_linear(xv.shape, wv.shape, bv.shape, "layernorm-linear")
        _check_layernorm(xv.shape, gv, bev)
        out = np.empty(xv.shape[:-1] + wv.shape[1:], np.result_type(xv, wv))
        mu = np.empty(xv.shape[:-1] + (1,), xv.dtype)
        inv_std = np.empty_like(mu)

        def rows(lo, hi):
            normed = np.empty_like(xv[lo:hi])
            _layernorm_rows(xv[lo:hi], mu[lo:hi], inv_std[lo:hi], normed, gv,
                            bev)
            _linear_rows(normed, wv, bv, out[lo:hi])
        _parallel(max(xv.size, out.size), rows=len(xv), part=rows)
        node = Node("layernorm-linear", out, (x, gamma, beta, w, b))
        return self._register(node, [self._act(x), (mu, True), (inv_std, True),
                                      self._act(gamma), self._act(beta),
                                      self._act(w)])

    def softmax(self, x):
        xv = x.value
        out = xv - xv.max(axis=-1, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=-1, keepdims=True)
        node = Node("softmax-lastdim", out, (x,))
        return self._register(node, [(out, True)])

    def layernorm_attention(self, x, gamma, beta, w_qkv, b_qkv, w_out, b_out,
                            heads):
        """x + linear(mhsa(linear(layernorm(x), w_qkv, b_qkv)), w_out, b_out)
        in one node, x [b, n, d]: a pre-norm multi-head self-attention
        sublayer and its residual sum.

        The qkv projection's columns are ordered (q|k|v, head, dh) and
        viewed as [3, b, heads, n, dh]; every head runs softmax(q k^T /
        sqrt(dh)) v in one batched product, and the heads merge back to
        columns (head, dh) for the out projection.  Each part runs its
        samples in chunks of at most _PART_ELEMENTS probabilities, with the
        kernels of `layernorm_linear` and `linear`, so the normed rows,
        q|k|v, the probabilities and the merged heads exist a chunk at a
        time, and the output is bitwise equal to the unfused nodes'.  Only
        x, its row statistics and each attention row's softmax max and sum
        are saved: backward rebuilds the rest from them.
        """
        params = [n.value for n in (gamma, beta, w_qkv, b_qkv, w_out, b_out)]
        _check_attention(x.value.shape, *params, heads, "layernorm-attention")
        out, stats = _attention_forward(x.value, *params, heads)
        node = Node("layernorm-attention", out,
                    (x, gamma, beta, w_qkv, b_qkv, w_out, b_out),
                    attrs={"heads": heads})
        return self._register(node, [self._act(x), *((a, True) for a in stats),
                                      *(self._act(n) for n in (
                                          gamma, beta, w_qkv, b_qkv, w_out))])

    def unshuffle_attention(self, z, fill, pos, order, gamma, beta, w_qkv,
                            b_qkv, w_out, b_out, heads):
        """A decoder's input and its first attention sublayer in one node:
        `layernorm_attention` of x [b, n, d], where x holds the rows of z
        [b, k, d] and then n - k copies of `fill` [d], row j of sample i
        placed at row order[i, j], plus the position table `pos` [n, d].

        Each row of order [b, n] must be a permutation of range(n), so that
        backward gathers each row's gradient by it.  x exists only while
        the node runs: z, the order and the row statistics are saved, and
        backward rebuilds x with the forward's scatter, fill and position
        add.  pos is a constant: it gets no gradient.
        """
        zv, fv, pv = z.value, fill.value, pos.value
        order = np.ascontiguousarray(order, dtype=np.int64)
        if (zv.ndim != 3 or pv.ndim != 2 or fv.shape != zv.shape[-1:]
                or pv.shape[1:] != fv.shape or order.shape != (
                    len(zv), len(pv)) or zv.shape[1] > len(pv)):
            raise DimensionError(
                f"unshuffle-attention needs z [b, k, d], fill [d], pos [n, d] "
                f"and order [b, n] with k <= n; got z={zv.shape} "
                f"fill={fv.shape} pos={pv.shape} order={order.shape}")
        if np.any(np.sort(order, axis=-1) != np.arange(len(pv))):
            raise ContractError(
                "unshuffle-attention order rows must be permutations of "
                "range(n)")
        params = [n.value for n in (gamma, beta, w_qkv, b_qkv, w_out, b_out)]
        _check_attention(order.shape + fv.shape, *params, heads,
                         "unshuffle-attention")
        out, stats = _attention_forward(_unshuffle_rows(zv, fv, pv, order),
                                        *params, heads)
        node = Node("unshuffle-attention", out,
                    (z, fill, pos, gamma, beta, w_qkv, b_qkv, w_out, b_out),
                    attrs={"heads": heads})
        return self._register(node, [self._act(z), (order, True),
                                      self._act(fill), self._act(pos),
                                      *((a, True) for a in stats),
                                      *(self._act(n) for n in (
                                          gamma, beta, w_qkv, b_qkv, w_out))])

    def gelu(self, x):
        xv = x.value
        # 0.5 * x * (1 + erf(x / sqrt2)), with the CDF term and the product
        # computed in place: no temporaries beyond cdf and out.  The CDF
        # term is saved for the backward rule.
        cdf = np.empty_like(xv)
        out = np.empty_like(xv)

        def rows(lo, hi):
            _gelu_rows(*(_lead(a)[lo:hi] for a in (xv, cdf, out)))
        _parallel(xv.size, rows=len(_lead(xv)), part=rows)
        node = Node("gelu", out, (x,))
        return self._register(node, [self._act(x), (cdf, True)])

    def layernorm_mlp(self, x, gamma, beta, w1, b1, w2, b2):
        """x + linear(gelu(linear(layernorm(x), w1, b1)), w2, b2) in one
        node, x [b, m, d]: a pre-norm MLP and its residual sum.

        Each part runs its rows in chunks of at most _PART_ELEMENTS hidden
        elements, with the kernels of `layernorm`, `linear` and `gelu`, so
        the output is bitwise equal to the unfused nodes'.  Only x, the row
        statistics and the GELU's CDF term are saved: backward recomputes
        the normed rows, the fc1 output and the GELU output.
        """
        xv, gv, bev, w1v, b1v, w2v, b2v = (
            n.value for n in (x, gamma, beta, w1, b1, w2, b2))
        _check_layernorm(xv.shape, gv, bev)
        _check_linear(xv.shape, w1v.shape, b1v.shape, "layernorm-mlp")
        hidden_shape = xv.shape[:-1] + w1v.shape[1:]
        _check_linear(hidden_shape, w2v.shape, b2v.shape, "layernorm-mlp")
        cdf = np.empty(hidden_shape, np.result_type(xv, w1v))
        out = np.empty(xv.shape[:-1] + w2v.shape[1:], np.result_type(cdf, w2v))
        _residual_value(x, out.shape)
        mu = np.empty(xv.shape[:-1] + (1,), xv.dtype)
        inv_std = np.empty_like(mu)

        def rows(lo, hi):
            for c in _chunks(lo, hi, cdf.shape[1:]):
                normed = np.empty_like(xv[c])
                _layernorm_rows(xv[c], mu[c], inv_std[c], normed, gv, bev)
                h = np.empty_like(cdf[c])
                _linear_rows(normed, w1v, b1v, h)
                _gelu_rows(h, cdf[c], h)
                _linear_rows(h, w2v, b2v, out[c], xv[c])
        _parallel(max(xv.size, cdf.size), rows=len(xv), part=rows)
        node = Node("layernorm-mlp", out, (x, gamma, beta, w1, b1, w2, b2))
        return self._register(node, [self._act(x), (mu, True), (inv_std, True),
                                      (cdf, True), self._act(gamma),
                                      self._act(beta), self._act(w1),
                                      self._act(b1), self._act(w2)])

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
        node = Node("mse-masked", out, (pred, target, mask))
        return self._register(node, [self._act(pred), self._act(target),
                                      self._act(mask)])

    def boundary(self, x):
        """x's array as a detached constant leaf: shared, not copied, and
        read-only from now on, so no rule can write into it.

        Record it in the scope of the block that reads it, after the nodes
        of x's block that save x: gradients of later losses stop at this
        leaf, and that block's release frees it.  The array is charged
        once: by the node of x's block that saves it until x's block is
        released, then by this leaf; by this leaf from now on when no node
        of x's block saves it.
        """
        value = x.value
        value.flags.writeable = False
        held = not x.is_leaf and x.block is not None and any(
            n.block == x.block and n.saved and any(a is value for a in n.saved)
            for n in self.nodes)
        node = self._register(Node("boundary", value, (), is_leaf=True),
                              [(value, not held)])
        if held:
            self._handovers.setdefault(x.block, []).append(node)
        return node

    # ----- backward ----------------------------------------------------

    def backward(self, loss):
        """Gradients of a scalar loss w.r.t. reachable named parameters.

        The walk stops only at leaves.  A block that reads an earlier
        block's node instead of its boundary leaf therefore gets that
        block's parameters in its table, or reaches a released node and
        raises LifecycleError; it is never cut short in silence.
        """
        if loss.disposed:
            raise LifecycleError("backward from a released loss node")
        if loss.value.size != 1:
            raise ContractError(
                f"backward needs a scalar loss, got shape {loss.value.shape}")

        # Ancestors of the loss, pruned at leaves.
        visited = set()
        order = []
        stack = [loss]
        while stack:
            node = stack.pop()
            if id(node) in visited:
                continue
            visited.add(id(node))
            order.append(node)
            if node.is_leaf:
                continue
            if node.disposed:
                raise LifecycleError(
                    f"backward reached released node {node!r}")
            if node.saved is None:
                raise LifecycleError(
                    f"backward reached {node!r}, whose saved buffers an "
                    f"earlier backward dropped")
            stack.extend(node.inputs)

        # No rule reads a value, so the walked ones are dead already; the
        # parameters' arrays are the caller's.
        for node in order:
            if node is not loss and not node.requires_grad:
                node.value = None

        grads = {id(loss): np.ones_like(loss.value)}
        # Creation order is topological; filter to the visited subgraph.
        sub = [n for n in self.nodes if id(n) in visited]
        for node in reversed(sub):
            if node.is_leaf:
                continue
            g = grads.pop(id(node), None)
            if g is None:
                continue
            # A rule whose every input is a constant leaf would make only
            # gradients that are thrown away.
            takes = any(not inp.is_leaf or inp.requires_grad
                        for inp in node.inputs)
            contribs = _VJP[node.kind](node, g) if takes else ()
            node.saved = None   # the meter charges them until release
            for inp, contrib in zip(node.inputs, contribs):
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
            g = grads.get(id(node))
            if g is None:
                g = np.zeros_like(node.value)
            table[node.name] = g
        self._backwarded_blocks.update(
            n.block for n in sub if n.block is not None and not n.is_leaf)
        return table

    # ----- release -----------------------------------------------------

    def release_block_activations(self, block_id):
        """Drop values and saved buffers of all nodes tagged block_id, and
        charge the boundary leaves whose arrays they held.

        Requires that the block's backward already ran; repeated release of
        the same block is an error.  Returns the number of bytes freed: the
        block's charged bytes less those handed over.
        """
        if block_id in self._released_blocks:
            raise LifecycleError(f"block {block_id} already released")
        if block_id not in self._backwarded_blocks:
            raise LifecycleError(
                f"release of block {block_id} before its backward pass")
        freed = 0
        for node in self.nodes:
            if node.block == block_id and not node.disposed:
                freed += self._dispose(node)
        for node in self._handovers.pop(block_id, ()):
            if not node.disposed:
                node.bytes = node.saved[0].nbytes
                self.meter.charge(node.bytes)
                freed -= node.bytes
        self._released_blocks.add(block_id)
        return freed

    def dispose(self, node):
        """Explicitly free one node, outside any block's release."""
        if node.disposed:
            raise LifecycleError(f"node {node!r} already disposed")
        return self._dispose(node)

    def _dispose(self, node):
        freed = node.bytes
        self.meter.discharge(freed)
        node.saved = None
        node.value = None
        node.disposed = True
        return freed


def _lead(a):
    """a itself, or a 0-d/1-d array viewed with a leading axis of length 1."""
    return a if a.ndim > 1 else a.reshape(1, -1)


def _chunks(lo, hi, row_shape):
    """Slices of rows lo..hi of an array whose rows have shape `row_shape`,
    each of at most _PART_ELEMENTS elements, and of one row at least."""
    step = max(1, _PART_ELEMENTS // max(1, math.prod(row_shape)))
    return [slice(i, min(i + step, hi)) for i in range(lo, hi, step)]


def _per_sample(ids):
    """Index of row ids[i, j] of batch entry i."""
    return np.arange(len(ids))[:, None], ids


def _split_heads(qkv, heads):
    """Views q, k, v of a [b, n, 3d] array, each [b, heads, n, dh]."""
    b, n, width = qkv.shape
    return qkv.reshape(b, n, 3, heads, width // (3 * heads)).transpose(2, 0, 3, 1, 4)


def _check_linear(x_shape, w_shape, b_shape, kind):
    if len(x_shape) != 3 or len(w_shape) != 2 or b_shape != w_shape[-1:]:
        raise DimensionError(
            f"{kind} supports [b,m,k] x [k,n] + [n]; "
            f"got {x_shape} x {w_shape} + {b_shape}")
    if x_shape[-1] != w_shape[0]:
        raise DimensionError(f"{kind} extent mismatch: {x_shape} x {w_shape}")


def _check_layernorm(x_shape, gv, bv):
    d = x_shape[-1]
    if gv.shape != (d,) or bv.shape != (d,):
        raise DimensionError(
            f"layernorm affine shapes {gv.shape}/{bv.shape} "
            f"do not match feature dim {d}")


def _check_attention(x_shape, gv, bev, wqv, bqv, wov, bov, heads, kind):
    """Refuse an attention sublayer whose parameters do not fit an input
    of shape x_shape, before anything is computed."""
    _check_layernorm(x_shape, gv, bev)
    _check_linear(x_shape, wqv.shape, bqv.shape, kind)
    if wqv.shape[1] % (3 * heads) != 0:
        raise DimensionError(
            f"{kind} needs a q|k|v width 3*d with d divisible by {heads} "
            f"heads; got {wqv.shape[1]}")
    merged_shape = x_shape[:-1] + (wqv.shape[1] // 3,)
    _check_linear(merged_shape, wov.shape, bov.shape, kind)
    out_shape = x_shape[:-1] + wov.shape[1:]
    if out_shape != x_shape:
        raise DimensionError(
            f"residual {x_shape} does not match the output {out_shape}")


def _residual_value(residual, shape):
    """The residual node's value, which must have the output's shape."""
    if residual is None:
        return None
    if residual.value.shape != shape:
        raise DimensionError(
            f"residual {residual.value.shape} does not match the output "
            f"{shape}")
    return residual.value


def _with_residual(inputs, residual):
    return inputs if residual is None else inputs + (residual,)


# ----- row kernels --------------------------------------------------------
#
# One kernel per operation, shared by its own node and the fused nodes.
# Each writes the rows it is given into preallocated outputs.

def _linear_rows(x, w, b, out, residual=None):
    # Split by batch entry: each keeps its own product, so the BLAS calls
    # are the same as unsplit.  The sums are those of add(x @ w, b) and
    # add(residual, that): addition commutes bit for bit.
    np.matmul(x, w, out=out)
    out += b
    if residual is not None:
        out += residual


def _layernorm_rows(x, mu, inv_std, out, gamma, beta):
    # The centred rows become the output in place; the same operations as
    # `x.var` and `(x - mu) * inv_std * gamma + beta`, so the values are
    # equal bit for bit.
    np.mean(x, axis=-1, keepdims=True, out=mu)
    np.subtract(x, mu, out=out)
    var = (out * out).mean(axis=-1, keepdims=True)
    var += x.dtype.type(LN_EPS)
    np.sqrt(var, out=var)
    np.divide(1.0, var, out=inv_std)
    out *= inv_std
    _affine_rows(out, gamma, beta, out)


def _xhat_rows(x, mu, inv_std, out):
    """(x - mu) * inv_std, as the forward computes it."""
    np.subtract(x, mu, out=out)
    out *= inv_std


def _affine_rows(xhat, gamma, beta, out):
    np.multiply(xhat, gamma, out=out)
    out += beta


def _gelu_rows(x, cdf, out):
    # The CDF term 1 + erf(x / sqrt2) in place, then the output from it.
    np.divide(x, np.sqrt(x.dtype.type(2.0)), out=cdf)
    erf(cdf, out=cdf)
    cdf += 1.0
    _gelu_from_cdf(x, cdf, out)


def _gelu_from_cdf(x, cdf, out):
    np.multiply(0.5, x, out=out)
    out *= cdf


def _gelu_grad_rows(x, cdf, g, out):
    """g * (0.5 * cdf + x * pdf(x)) in `out`, which may be cdf's buffer
    but neither x's nor g's.  The forward's CDF term 1 + erf(x/sqrt2) is
    reused; halving it is exact."""
    t = np.empty_like(x)
    np.multiply(-0.5, x, out=t)
    t *= x
    np.exp(t, out=t)
    t /= np.sqrt(x.dtype.type(2.0 * np.pi))
    t *= x
    # 0.5 * cdf + t as (cdf + 2t) / 2.  Doubling and halving are exact
    # (cdf = 1 + erf is never subnormal), so the sum is the same bit for
    # bit, and it can land in cdf's buffer.
    t *= 2.0
    np.add(cdf, t, out=out)
    out *= 0.5
    out *= g


def _attention_probs(q, k, row_max, row_sum, stats=False):
    """softmax(q k^T / sqrt(dh)) of q, k [c, heads, n, dh], in a new
    [c, heads, n, n] buffer.  With `stats` (the forward) each row's max and
    sum are written into row_max and row_sum before they are used; without
    (backward) they are read, and the rebuilt probabilities equal the
    forward's bit for bit."""
    # k^T as a contiguous operand: BLAS may sum a transposed operand in
    # another order, and this keeps the scores bitwise equal to per-head
    # products.
    p = q @ np.ascontiguousarray(np.swapaxes(k, -1, -2))
    p *= q.dtype.type(1.0 / np.sqrt(q.shape[-1]))
    if stats:
        np.max(p, axis=-1, keepdims=True, out=row_max)
    p -= row_max
    np.exp(p, out=p)
    if stats:
        np.sum(p, axis=-1, keepdims=True, out=row_sum)
    p /= row_sum
    return p


def _attention_rows(qkv, heads, row_max, row_sum, merged, stats=False):
    """softmax(q k^T / sqrt(dh)) v of each head of the q|k|v rows qkv
    [c, n, 3d], each head's product written into its (head, dh) columns of
    merged [c, n, d].  Returns the probabilities; `stats` as in
    _attention_probs."""
    q, k, v = _split_heads(qkv, heads)
    c, n, d = merged.shape
    p = _attention_probs(q, k, row_max, row_sum, stats)
    np.matmul(p, v, out=np.swapaxes(merged.reshape(c, n, heads, d // heads),
                                    1, 2))
    return p


def _attention_forward(xv, gv, bev, wqv, bqv, wov, bov, heads):
    """The output of `Tape.layernorm_attention` and its saved statistics
    (mean, inv-std, softmax max and sum), for parameters _check_attention
    accepts."""
    dtype = np.result_type(xv, wqv)
    out = np.empty(xv.shape[:-1] + wov.shape[1:], np.result_type(dtype, wov))
    b, n = xv.shape[:2]
    mu = np.empty(xv.shape[:-1] + (1,), xv.dtype)
    inv_std = np.empty_like(mu)
    row_max = np.empty((b, heads, n, 1), dtype)
    row_sum = np.empty_like(row_max)

    def rows(lo, hi):
        for c in _chunks(lo, hi, (heads, n, n)):
            normed = np.empty_like(xv[c])
            _layernorm_rows(xv[c], mu[c], inv_std[c], normed, gv, bev)
            qkv = np.empty(normed.shape[:-1] + wqv.shape[1:], dtype)
            _linear_rows(normed, wqv, bqv, qkv)
            merged = np.empty(normed.shape[:-1] + wov.shape[:1], dtype)
            del normed
            _attention_rows(qkv, heads, row_max[c], row_sum[c], merged,
                            stats=True)
            del qkv
            _linear_rows(merged, wov, bov, out[c], xv[c])
    _parallel(max(b * n * wqv.shape[1], b * heads * n * n), rows=b, part=rows)
    return out, (mu, inv_std, row_max, row_sum)


def _unshuffle_rows(z, fill, pos, order):
    """The decoder input [b, n, d]: row j of z's sample i at row order[i, j]
    for j < k, `fill` at the other rows, then plus `pos`."""
    k = z.shape[1]
    out = np.empty(order.shape + fill.shape, np.result_type(z, fill, pos))
    out[_per_sample(order[:, :k])] = z
    out[_per_sample(order[:, k:])] = fill
    out += pos
    return out


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


def _weight_grads(x, g):
    """Calls for (dw, db) of x @ w + b.  Each sums over every row, so
    neither is ever split."""
    return (lambda: x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1]),
            lambda: g.sum(axis=tuple(range(g.ndim - 1))))


def _linear_grads(x, w, g):
    """(dx, dw, db) of x @ w + b: the two products and the bias sum at the
    same time.  The products are those of _vjp_matmul."""
    return tuple(_parallel(max(x.size, g.size), lambda: g @ w.T,
                           *_weight_grads(x, g)))


def _vjp_linear(node, g):
    # The last entry is a residual's gradient, g itself; a node without a
    # residual has no input to pair it with.
    x, w = node.saved
    return _linear_grads(x, w, g) + (g,)


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


def _vjp_gather_rows(node, g):
    dx = np.zeros(node.attrs["in_shape"], dtype=g.dtype)
    dx[_per_sample(node.saved[0])] = g
    return (dx,)


def _vjp_concat_rows(node, g):
    sizes = node.attrs["sizes"]
    outs = []
    start = 0
    for s in sizes:
        outs.append(np.ascontiguousarray(g[..., start:start + s, :]))
        start += s
    return tuple(outs)


def _layernorm_grads(xhat, inv_std, gamma, g, dx):
    """(dx, dgamma, dbeta) of xhat * gamma + beta, xhat the normed rows.

    dx is written into the given buffer, which must be neither xhat nor g.
    Each part then overwrites its xhat rows with g * xhat, which dgamma
    sums, so the caller's xhat is consumed; the sums over every row run
    once all parts are done, never split.
    """
    d = xhat.shape[-1]

    def rows(lo, hi):
        xh, s, gr, out = (_lead(a)[lo:hi] for a in (xhat, inv_std, g, dx))
        dxhat = gr * gamma
        m1 = dxhat.mean(axis=-1, keepdims=True)
        np.multiply(dxhat, xh, out=out)
        m2 = out.mean(axis=-1, keepdims=True)
        dxhat -= m1
        np.multiply(xh, m2, out=out)
        dxhat -= out
        np.multiply(s, dxhat, out=out)
        xh *= gr

    _parallel(xhat.size, rows=len(_lead(xhat)), part=rows)
    return (dx, xhat.reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0))


def _vjp_layernorm(node, g):
    x, mu, inv_std, gamma = node.saved
    xhat = np.empty_like(x)

    def rows(lo, hi):
        _xhat_rows(*(_lead(a)[lo:hi] for a in (x, mu, inv_std, xhat)))
    _parallel(x.size, rows=len(_lead(x)), part=rows)
    return _layernorm_grads(xhat, inv_std, gamma, g,
                            np.empty(x.shape, np.result_type(x, g, gamma)))


def _vjp_layernorm_linear(node, g):
    # xhat once, for the recomputed normed rows and for the LayerNorm
    # rule; the normed rows are dead once dw is summed, and their buffer
    # takes dx.
    x, mu, inv_std, gamma, beta, w = node.saved
    xhat, normed = np.empty_like(x), np.empty_like(x)

    def rows(lo, hi):
        _xhat_rows(x[lo:hi], mu[lo:hi], inv_std[lo:hi], xhat[lo:hi])
        _affine_rows(xhat[lo:hi], gamma, beta, normed[lo:hi])
    _parallel(x.size, rows=len(x), part=rows)
    dh, dw, db = _linear_grads(normed, w, g)
    return _layernorm_grads(xhat, inv_std, gamma, dh, normed) + (dw, db)


def _vjp_softmax(node, g):
    y = node.saved[0]
    s = (g * y).sum(axis=-1, keepdims=True)
    return (y * (g - s),)


def _vjp_gelu(node, g):
    x, cdf = node.saved
    dx = np.empty_like(x)

    def rows(lo, hi):
        _gelu_grad_rows(*(_lead(a)[lo:hi] for a in (x, cdf, g, dx)))
    _parallel(x.size, rows=len(_lead(x)), part=rows)
    return (dx,)


def _attention_grads(x, mu, inv_std, row_max, row_sum, gamma, beta, w_qkv,
                     b_qkv, w_out, heads, g, xhat=None):
    """The gradients of `Tape.layernorm_attention`'s inputs, x's first.

    One pass over chunks of samples rebuilds the normed rows, q|k|v, the
    probabilities and the merged heads with the forward's kernels, and
    runs attention's rule.  The weight gradients sum over every row, so
    the normed rows, the merged heads and dqkv are whole; q|k|v, the
    probabilities and their gradients exist a chunk at a time.  A chunk
    holds the probabilities and their gradient, so it takes half as many
    samples as the forward's.  The merged heads die with the out
    projection's weight gradients and dqkv with the qkv projection's; the
    normed rows then take dx, as in _vjp_layernorm_linear, and the
    residual adds g.  xhat is made last, once dqkv is freed, unless the
    caller passes a buffer for it: x's own, when nothing else holds x,
    since x is read for the last time as xhat is written.
    """
    b, n, _ = x.shape
    width = w_out.shape[0]
    normed = np.empty_like(x)
    dqkv = np.empty(x.shape[:-1] + w_qkv.shape[1:], row_max.dtype)
    merged = np.empty(x.shape[:-1] + (width,), row_max.dtype)
    scale = row_max.dtype.type(1.0 / np.sqrt(width // heads))

    def rows(lo, hi):
        for c in _chunks(lo, hi, (2, heads, n, n)):
            _xhat_rows(x[c], mu[c], inv_std[c], normed[c])
            _affine_rows(normed[c], gamma, beta, normed[c])
            qkv = np.empty_like(dqkv[c])
            _linear_rows(normed[c], w_qkv, b_qkv, qkv)
            p = _attention_rows(qkv, heads, row_max[c], row_sum[c], merged[c])
            q, k, v = _split_heads(qkv, heads)
            dq, dk, dv = _split_heads(dqkv[c], heads)
            gctx = np.swapaxes((g[c] @ w_out.T).reshape(
                len(qkv), n, heads, width // heads), 1, 2)
            np.matmul(np.swapaxes(p, -1, -2), gctx, out=dv)
            dprobs = gctx @ np.swapaxes(v, -1, -2)
            del gctx
            # softmax: p * (dp - sum(dp * p)), then the 1/sqrt(dh) scale
            dprobs -= (dprobs * p).sum(axis=-1, keepdims=True)
            dprobs *= p
            del p
            dprobs *= scale
            np.matmul(dprobs, k, out=dq)
            np.matmul(np.swapaxes(dprobs, -1, -2), q, out=dk)
            del qkv, q, k, v, dprobs
    _parallel(max(dqkv.size, b * heads * n * n), rows=b, part=rows)
    dw_out, db_out = _parallel(g.size, *_weight_grads(merged, g))
    del merged
    dnormed, dw_qkv, db_qkv = _linear_grads(normed, w_qkv, dqkv)
    del dqkv
    if xhat is None:
        xhat = np.empty_like(x)

    def xhat_rows(lo, hi):
        _xhat_rows(x[lo:hi], mu[lo:hi], inv_std[lo:hi], xhat[lo:hi])
    _parallel(x.size, rows=b, part=xhat_rows)
    dx, dgamma, dbeta = _layernorm_grads(xhat, inv_std, gamma, dnormed, normed)
    dx += g
    return (dx, dgamma, dbeta, dw_qkv, db_qkv, dw_out, db_out)


def _vjp_layernorm_attention(node, g):
    return _attention_grads(*node.saved, node.attrs["heads"], g)


def _vjp_unshuffle_attention(node, g):
    # The input is rebuilt with the forward's kernel into a buffer this
    # rule owns, which then takes xhat.  Row j of sample i went to row
    # order[i, j]: its gradient is gathered back.  The fill rows'
    # gradients sum into the fill's, as add's rule sums a broadcast.
    z, order, fill, pos, *attention = node.saved
    x = _unshuffle_rows(z, fill, pos, order)
    dx, *grads = _attention_grads(x, *attention, node.attrs["heads"], g,
                                  xhat=x)
    k = z.shape[1]
    return (dx[_per_sample(order[:, :k])],
            dx[_per_sample(order[:, k:])].sum(axis=(0, 1)), None, *grads)


def _vjp_layernorm_mlp(node, g):
    # Pass 1 rebuilds the GELU output whole, since dw2 sums over every
    # row; the normed rows and fc1 exist a chunk at a time.  Pass 2
    # rebuilds the normed rows whole, for dw1, and fc1 again a chunk at a
    # time, and writes the GELU gradient into the saved CDF term's buffer.
    # The normed rows then take dx, as in _vjp_layernorm_linear, and the
    # residual adds g.  Each chunk's temporaries are dropped before the
    # next chunk's are made.
    x, mu, inv_std, cdf, gamma, beta, w1, b1, w2 = node.saved
    h = np.empty_like(cdf)

    def rebuild(lo, hi):
        for c in _chunks(lo, hi, cdf.shape[1:]):
            normed = np.empty_like(x[c])
            _xhat_rows(x[c], mu[c], inv_std[c], normed)
            _affine_rows(normed, gamma, beta, normed)
            _linear_rows(normed, w1, b1, h[c])
            del normed
            _gelu_from_cdf(h[c], cdf[c], h[c])
    _parallel(h.size, rows=len(x), part=rebuild)
    dw2, db2 = _parallel(h.size, *_weight_grads(h, g))
    del h
    normed = np.empty_like(x)

    def gelu_grad(lo, hi):
        for c in _chunks(lo, hi, cdf.shape[1:]):
            _xhat_rows(x[c], mu[c], inv_std[c], normed[c])
            _affine_rows(normed[c], gamma, beta, normed[c])
            f1 = np.empty_like(cdf[c])
            _linear_rows(normed[c], w1, b1, f1)
            dh = g[c] @ w2.T
            _gelu_grad_rows(f1, cdf[c], dh, cdf[c])
            del f1, dh
    _parallel(cdf.size, rows=len(x), part=gelu_grad)
    dnormed, dw1, db1 = _linear_grads(normed, w1, cdf)
    xhat = np.empty_like(x)

    def rows(lo, hi):
        _xhat_rows(x[lo:hi], mu[lo:hi], inv_std[lo:hi], xhat[lo:hi])
    _parallel(x.size, rows=len(x), part=rows)
    dx, dgamma, dbeta = _layernorm_grads(xhat, inv_std, gamma, dnormed, normed)
    dx += g
    return (dx, dgamma, dbeta, dw1, db1, dw2, db2)


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
    "gather-rows": _vjp_gather_rows,
    "concat-rows": _vjp_concat_rows,
    "layernorm": _vjp_layernorm,
    "layernorm-linear": _vjp_layernorm_linear,
    "layernorm-mlp": _vjp_layernorm_mlp,
    "layernorm-attention": _vjp_layernorm_attention,
    "unshuffle-attention": _vjp_unshuffle_attention,
    "softmax-lastdim": _vjp_softmax,
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
