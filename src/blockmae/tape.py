"""Reverse-mode autodiff over dense arrays of one float dtype per tape,
f32 or f64, with block tags, explicit activation release, and byte-exact
live-memory accounting.

Forward evaluation is eager; every operation appends a Node to the tape.
A Node's `saved` list holds exactly the buffers its backward rule needs.
The memory meter charges, per node, the bytes of saved buffers that are
*activations* (produced by earlier ops) plus any auxiliary arrays; buffers
owned by leaves (parameters, dataset constants) are never charged because
they live outside the activation budget.

Charged buffers per primitive:
    matmul        both operand values (when non-leaf)
    linear        input value (when non-leaf); the weight is a leaf.  The
                  rows of an optional constant position table that the
                  ids pick, added in place, are not saved: the table is
                  a leaf and gets no gradient
    add/scale/transpose/concat-rows   nothing
    gather-rows   the index vector
    layernorm     input value (when non-leaf) + per-row mean and inv-std
    layernorm-linear   as layernorm; the normed rows are not saved, and
                  backward recomputes them from x, mean and inv-std
    softmax-lastdim   its own output
    gelu          input value (when non-leaf) + its CDF term 1 + erf(x/sqrt2)
    encoder-layer input value (when non-leaf), the first residual too, +
                  both LayerNorms' per-row mean and inv-std + each
                  attention row's softmax max and sum.  Nothing else:
                  backward replays the attention sublayer from those, a
                  group of samples at a time, to rebuild its residual sum
                  x2, whose buffer takes LayerNorm 2's xhat, for the MLP
                  part, which replays the GELU output and CDF term and
                  makes fc1 again over the former once dw2's partial is
                  taken, then replays it again for its own part
    mse-masked    prediction value (when non-leaf).  No code in src/
                  records it since the decoder's loss node took its place;
                  it stays as the tests' reference loss and for the name
                  the benchmark wraps
    decoder-loss  a decoder and its loss: the gradients of its input z
                  and of every parameter, which it computes as it runs.
                  No activation is saved: neither the decoder's input
                  (z's rows put among mask tokens plus the position
                  table), nor any layer's buffers, the prediction, the
                  ids or the loss mask it builds from them.  The position
                  table and target are leaves, uncharged
    boundary      the array it is given, shared, not copied: the block
                  before's output, or the rows of it the reading block
                  keeps.  Charged from the moment it is recorded, after
                  the release of the block that produced it, so each row
                  is charged once

Every node, leaves included, takes its block tag from the `Tape.block`
scope open when it is recorded (None outside any scope); that scope is
the only way a node gets a tag.  Release and its lifecycle check select
nodes by this tag; gradients never read it.  Blocks are isolated by the
`boundary` leaf alone: backward stops at leaves, and a later block
continues from a boundary leaf of the earlier block's output array, or
of the rows of it the later block keeps, recorded once the earlier block
is released.

Lifecycle.  A backward rule reads only its node's `saved` buffers, its
`attrs` and the incoming gradient, never a `value`.  So backward drops the
value of every node it walks, constant leaves included, except the loss's
and the parameters' (leaves with `requires_grad`), before its reverse
sweep; a value that a consumer saved stays alive through `saved`, and a
boundary leaf's array through its own `saved` until it is released.
It drops each node's saved buffers as soon as that node's rule has run;
the meter charges them until release, so the peak and the live counter
read the same as if they were kept.  A decoder-loss node saves its
inputs' gradients, made by its forward, not activations: its rule
scales them in place by the incoming gradient and hands them on, so
from there on they live as the gradients of z and of the parameters,
and the meter still charges them until release.  The rule of a node a
step records walks its batch once, a group of whole samples at a time
(`_groups`), and holds its dx plus one group's temporaries per thread;
the rules of layernorm and of the residual node, encoder-layer, write dx
over their incoming gradient, which no other node or leaf holds (add's
rule hands y a copy).  The encoder-layer rule holds each group buffer to
its last read only, and makes the normed rows and LayerNorm 1's xhat
again, from x and its statistics, where it reads them.  Its rebuild of
x2 holds the normed rows until q|k|v is made, and q|k|v, the
probabilities and the merged heads; its MLP part LayerNorm 2's xhat, the
normed rows until fc1 is made again, the two hidden-wide buffers and
then the normed rows again for dw1 and dx; its attention part the normed
rows until q|k|v is made, q|k|v, the probabilities, the merged heads
until dw_out, dqkv and the merged heads' gradient, and a block of
heads' probability gradient at a time, then the normed rows again for
dw_qkv and dx, and LayerNorm 1's xhat for its partials.  A rule never
writes into a saved input: another node, a later block's boundary leaf
among them, may hold the same array.  Every activation a node saves is
made read-only when it is saved, so such a write raises; leaf arrays
are not touched, and the optimizer updates the parameters in place.
Releasing a node, a leaf or not, drops both its value and its saved
buffers and decreases the live counter by exactly the node's charged
bytes, fixed when it was recorded; releasing a block frees the sum of
its nodes' bytes.  Parameter arrays outlive their leaves in the caller's
table.  Running backward through a released node, or through a node an
earlier backward ran the rule of, is a lifecycle error, and a later
block must continue from a `boundary` leaf, not from an earlier block's
nodes, whose values are gone after that block's backward.  A `Forward`
tape, for a forward that never runs backward, records nothing: its nodes
save no buffer, charge nothing, are not appended and keep no link to
their inputs, so an array lives only while the caller holds its node,
and its backward and release raise a lifecycle error.  Since nothing
saves an input there, the residual node encoder-layer writes its sums
over the array of a non-leaf input and takes it over: that input node is
consumed, and reading its value again is a lifecycle error that names
it.  A leaf's array is never written.

Each fused sublayer's math after its LayerNorm is written once, as a
replay of a group's or chunk's normed rows (`_attention_replay`,
`_mlp_replay`), and the attention sublayer's residual sum once around
it (`_attention_sum`).  The encoder-layer forward runs them chunk by
chunk, making the row statistics; its rule group by group from the
saved x and those statistics, the attention sublayer twice, once to
rebuild x2 and once in its own backward; and the decoder-loss node
group by group in its forward, keeping what its backward reads.  Both
backward sites then run one MLP core and then one attention core
(`_mlp_kept_hidden_grads`, `_attention_backward`), each followed by its
LayerNorm's backward (`_pre_norm_grads`): the decoder-loss node through
`_layer_grads`, on what its forward kept and the normed rows made once;
the encoder-layer rule on what it makes again where it reads it.

A tape holds one dtype, f32 or f64: the first array its `leaf` or
`boundary` is given sets it, and both refuse an array of another.  So
every kernel and rule allocates in its input's dtype.

Backward keeps only the gradient frontier: a non-leaf node's gradient is
dropped as soon as its backward rule has run, so intermediate gradients do
not accumulate over the pass.  Leaf gradients stay until backward returns
them, and a constant leaf's are dropped; no rule asks which of its
inputs' gradients backward keeps.  Gradients are never charged; the
table above is the whole meter.

Threading: the heavy kernels of the nodes the package records (the
forwards of linear, layernorm and the fused nodes, the rules of linear
and the fused nodes, and the decoder-loss node, which runs its backward
in its forward) run on all cores the process may use; kernels too small
to repay a hand-off, and every other primitive and rule, run inline on
the whole batch.  A forward splits its rows over the leading axis, and
each part computes its rows with the same operations as the whole array
would.  Such a rule that sums over rows (a weight, bias, gamma or beta
gradient) cuts its batch into groups of whole samples by the batch's
shape alone, adds the groups' partial sums within each half of that cut
in one fixed order and then the two halves' totals (`_grouped`), and
runs one half per thread.  The halves' BLAS calls overlap too: on a
2-core x86 VM with one BLAS thread, two threads each looping a group's
fc1 product, [384, 64] @ [64, 256], took a median 1.06 times one
thread's time in f32, 1.07 in f64 and 0.99 for f32 beside f64; in the
rounds of the 12 where one took twice as long, so did two threads' exp
loops, which is the machine's other load.  Only numpy work on disjoint
slices runs in worker threads: node creation, recording, metering, the
backward order and release stay on the calling thread.  So every value,
gradient, saved buffer and meter reading is the same bit for bit
whatever the number of workers or the chunk size; a gradient summed over
rows is not bitwise the whole-batch product or sum, but within rounding
of it.  So is the decoder-loss node's mask token gradient against the
nodes it fuses, as it sums it in its own groups; every other gradient is
theirs bitwise.
"""

import contextlib
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
# Rows a backward rule holds per thread: it walks a batch [b, n, ...] in
# groups of max(1, _GROUP_ROWS // n) whole samples.  Smaller groups hold
# less but pay numpy's per-call cost once more per group on each thread:
# at 256 and 128 rows a desk block-wise step ran about 10% and 20-30%
# slower (2-core VM).
_GROUP_ROWS = 384


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

    __slots__ = ("kind", "_value", "inputs", "block", "requires_grad",
                 "is_leaf", "name", "attrs", "saved", "bytes", "disposed",
                 "consumed_by")

    def __init__(self, kind, value, inputs=(), requires_grad=False,
                 is_leaf=False, name=None, attrs=None):
        self.kind = kind
        self._value = value
        self.inputs = tuple(inputs)
        self.block = None
        self.requires_grad = requires_grad
        self.is_leaf = is_leaf
        self.name = name
        self.attrs = attrs or {}
        self.saved = []
        self.bytes = 0
        self.disposed = False
        self.consumed_by = None

    @property
    def value(self):
        """The node's array; a node whose array a `Forward` residual node
        took over has none, and reading it is a lifecycle error."""
        if self.consumed_by is not None:
            raise LifecycleError(
                f"{self!r} was consumed by a {self.consumed_by} node, whose "
                f"output was written over its array")
        return self._value

    @value.setter
    def value(self, value):
        self._value = value

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
        state = (" released" if self.disposed else
                 " consumed" if self.consumed_by is not None else "")
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


class Tape:
    """Eagerly evaluated graph confined to one training step.

    Nodes are appended in creation order, which is therefore a topological
    order; backward walks it in reverse.
    """

    def __init__(self):
        self.nodes = []
        self.meter = MemoryMeter()
        self.dtype = None
        self._block = None
        self._released_blocks = set()
        self._backwarded_blocks = set()

    # ----- recording -------------------------------------------------

    @contextlib.contextmanager
    def block(self, tag):
        """Context manager: ops recorded inside carry block tag `tag`."""
        prev, self._block = self._block, tag
        try:
            yield self
        finally:
            self._block = prev

    def leaf(self, value, name=None, requires_grad=False):
        """Register a constant or parameter; never charged to the meter.
        Leaves are the only nodes that carry `requires_grad`."""
        value = np.ascontiguousarray(value)
        self._check_dtype(value)
        return self._register(Node("leaf", value, requires_grad=requires_grad,
                                   is_leaf=True, name=name), [])

    def _check_dtype(self, arr):
        """Refuse an array that is not f32 or f64, or not of the dtype of
        the first array the tape was given, which sets its dtype."""
        if arr.dtype not in (np.float32, np.float64):
            raise ContractError(f"tensors must be f32 or f64, got {arr.dtype}")
        if self.dtype is None:
            self.dtype = arr.dtype
        elif arr.dtype != self.dtype:
            raise ContractError(
                f"a tape holds one dtype: got {arr.dtype} on a tape of "
                f"{self.dtype}")

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
        """saved-pair helper: charge only activation (non-leaf) buffers, and
        make them read-only, so no rule can write into a saved input."""
        if not x.is_leaf:
            x.value.flags.writeable = False
        return (x.value, not x.is_leaf)

    def _residual_out(self, x, kind):
        """The output array of a `kind` node whose residual is x: a new one,
        since the node saves x."""
        return np.empty_like(x.value)

    # ----- primitives ------------------------------------------------

    def matmul(self, a, b):
        av, bv = a.value, b.value
        if (av.ndim, bv.ndim) not in ((2, 2), (3, 2), (3, 3)):
            raise DimensionError(
                f"matmul supports [m,k]x[k,n], [b,m,k]x[k,n], [b,m,k]x[b,k,n]; "
                f"got {av.shape} x {bv.shape}")
        if av.shape[-1] != bv.shape[-2] or (
                av.ndim == 3 and bv.ndim == 3 and av.shape[0] != bv.shape[0]):
            raise DimensionError(f"matmul extent mismatch: {av.shape} x {bv.shape}")
        out = av @ bv
        node = Node("matmul", np.ascontiguousarray(out), (a, b))
        return self._register(node, [self._act(a), self._act(b)])

    def linear(self, x, w, b, pos=None, ids=None):
        """x @ w + b in one node, x [b, m, k]: the bias is added in place,
        and so are rows of `pos` when given, a constant leaf [N, n]: row
        ids[i, j] to row j of sample i, ids [b, m] unique per sample, or
        with ids None every row of pos to each sample's rows (m = N).  pos
        gets no gradient, so a pos that takes one is refused."""
        xv, wv, bv = x.value, w.value, b.value
        _check_linear(xv.shape, wv.shape, bv.shape, "linear")
        out = np.empty(xv.shape[:-1] + wv.shape[1:], xv.dtype)
        m, n = out.shape[1:]
        pv = None if pos is None else pos.value
        if pos is not None and (not pos.is_leaf or pos.requires_grad):
            raise ContractError(
                "linear pos must be a constant leaf: it gets no gradient")
        if pv is not None and (pv.ndim != 2 or pv.shape[1] != n
                               or (ids is None and len(pv) != m)):
            raise DimensionError(
                f"linear needs pos [N, {n}], N = {m} without ids; got "
                f"{pv.shape}")
        if ids is not None:
            ids = _check_ids(ids, out.shape[:2], len(pv), "linear")

        def rows(lo, hi):
            _linear_rows(xv[lo:hi], wv, bv, out[lo:hi],
                         pv if ids is None else pv[ids[lo:hi]])
        _parallel(out.size, rows=len(xv), part=rows)
        # pos is an input so that backward drops its value as it walks.
        node = Node("linear", out, (x, w, b) if pos is None else (x, w, b, pos))
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
        if xv.ndim != 3:
            raise DimensionError(
                f"gather-rows needs x [b, n, d]; got {xv.shape}")
        ids = _check_ids(ids, (len(xv), None), xv.shape[1], "gather-rows")
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
            for c in _chunks(lo, hi, xv.shape[1:]):
                _layernorm_rows(xv[c], mu[c], inv_std[c], out[c], gamma.value,
                                beta.value)
        _parallel(xv.size, rows=len(xv), part=rows)
        node = Node("layernorm", out, (x, gamma, beta))
        return self._register(node, [self._act(x), (mu, True), (inv_std, True),
                                      self._act(gamma)])

    def layernorm_linear(self, x, gamma, beta, w, b):
        """linear(layernorm(x, gamma, beta), w, b) in one node, x [b, m, k].

        Each part normalizes its rows a group of samples at a time (the
        cut of `_groups`) into a temporary that the product reads, with the
        kernels of `layernorm` and `linear`, so the output is bitwise equal
        to the two nodes'.  The normed rows are not saved: backward recomputes
        them from x and the row statistics.
        """
        xv, gv, bev, wv, bv = (n.value for n in (x, gamma, beta, w, b))
        _check_linear(xv.shape, wv.shape, bv.shape, "layernorm-linear")
        _check_layernorm(xv.shape, gv, bev)
        out = np.empty(xv.shape[:-1] + wv.shape[1:], xv.dtype)
        mu = np.empty(xv.shape[:-1] + (1,), xv.dtype)
        inv_std = np.empty_like(mu)

        def rows(lo, hi):
            for c in _groups(xv.shape, lo, hi):
                _linear_rows(_layernorm_rows(xv[c], mu[c], inv_std[c],
                                             np.empty_like(xv[c]), gv, bev),
                             wv, bv, out[c])
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

    def gelu(self, x):
        xv = x.value
        # 0.5 * x * (1 + erf(x / sqrt2)), with the CDF term and the product
        # computed in place: no temporaries beyond cdf and out.  The CDF
        # term is saved for the backward rule.
        cdf = _gelu_cdf_rows(xv, np.empty_like(xv))
        node = Node("gelu", _gelu_from_cdf(xv, cdf, np.empty_like(xv)), (x,))
        return self._register(node, [self._act(x), (cdf, True)])

    def encoder_layer(self, x, gamma1, beta1, w_qkv, b_qv, w_out, b_out,
                      gamma2, beta2, w1, b1, w2, b2, heads):
        """A pre-norm transformer layer in one node, x [b, n, d]: the
        attention sublayer's residual sum x2 = x + linear(mhsa(linear(
        layernorm(x), w_qkv, b_qkv)), w_out, b_out), then the MLP's,
        x2 + linear(gelu(linear(layernorm(x2), w1, b1)), w2, b2).

        The qkv projection's columns are ordered (q|k|v, head, dh), and
        its bias b_qkv is b_qv [2d] widened once with zeros in the k
        columns (`_widen_qv`); they are viewed as [3, b, heads, n, dh],
        every head runs softmax(q k^T / sqrt(dh)) v in one batched product,
        and the heads merge back to columns (head, dh) for the out
        projection.  Each part writes x2 into the output in chunks of at
        most _PART_ELEMENTS probabilities, then the layer's output over it
        in chunks of at most _PART_ELEMENTS hidden elements, with the
        unfused nodes' kernels, so every temporary exists a chunk at a time
        and the output is bitwise theirs.  Only x and row statistics are
        saved (see the table above).  On a `Forward` the output is written
        over x's array.
        """
        xv = x.value
        att = [n.value for n in (gamma1, beta1, w_qkv, b_qv, w_out, b_out)]
        mlp = [n.value for n in (gamma2, beta2, w1, b1, w2, b2)]
        _check_attention(xv.shape, *att, heads, "encoder-layer")
        att[3] = _widen_qv(att[3])
        hidden_shape = _check_mlp(xv.shape, *mlp, "encoder-layer")
        out = self._residual_out(x, "encoder-layer")
        b, n = xv.shape[:2]
        mu1, inv_std1, mu2, inv_std2 = (
            np.empty(xv.shape[:-1] + (1,), xv.dtype) for _ in range(4))
        row_max = np.empty((b, heads, n, 1), xv.dtype)
        row_sum = np.empty_like(row_max)

        def rows(lo, hi):
            # A chunk's rows of xv are read before its rows of out are
            # written, so out may be xv itself, and the MLP's rows of x2
            # before its sum is written over them.  No chunk's buffer is
            # bound to a name, so none outlives its chunk.
            for c in _chunks(lo, hi, (heads, n, n)):
                o = out[c]
                _attention_sum(xv[c], mu1[c], inv_std1[c], row_max[c],
                               row_sum[c], att, heads, o,
                               o if out is xv else xv[c], stats=True)
            for c in _chunks(lo, hi, hidden_shape[1:]):
                o = out[c]
                _linear_rows(_mlp_replay(
                    _layernorm_rows(o, mu2[c], inv_std2[c], np.empty_like(o),
                                    *mlp[:2]), *mlp[2:4])[0], *mlp[4:], o, o)
        _parallel(max(_attention_size(xv.shape, att[2], heads),
                      _mlp_size(xv.shape, mlp[2])), rows=b, part=rows)
        params = (gamma1, beta1, w_qkv, b_qv, w_out, b_out, gamma2, beta2,
                  w1, b1, w2, b2)
        node = Node("encoder-layer", out, (x, *params), attrs={"heads": heads})
        return self._register(node, [
            self._act(x), *((a, True) for a in (mu1, inv_std1, row_max,
                                                 row_sum, mu2, inv_std2)),
            *(self._act(p) for p in params[:-1])])

    def mse_masked(self, pred, target, mask):
        """Mean squared error over masked rows only (mask entry 1 = masked).

        pred/target are [..., N, P]; mask is [..., N].  The per-row error is
        averaged over P, then averaged over rows with mask == 1.
        """
        pv = pred.value
        total = _check_mse(pv.shape, target.value, mask.value, "mse-masked")
        per_row = np.empty(pv.shape[:-1], pv.dtype)
        _squared_error_rows(pv, target.value, per_row)
        out = _masked_mean(per_row, mask.value, total)
        node = Node("mse-masked", out, (pred, target, mask))
        return self._register(node, [self._act(pred), self._act(target),
                                      self._act(mask)])

    def decoder_loss(self, z, fill, pos, kept, layers, head_gamma, head_beta,
                     w, b, target, heads):
        """A decoder and its masked loss in one node, which computes its
        inputs' gradients as it runs.

        The decoder input x [b, n, d] holds row j of z [b, k, d]'s sample
        i at row kept[i, j] and `fill` [d] at every other row, plus the
        position table `pos` [n, d].  Each entry of `layers`, an attention
        sublayer's six parameters (its bias [q | v]) and then an MLP
        sublayer's six, in the order `encoder_layer` takes them, runs that
        layer on x; the node's value is
        mse_masked(layernorm_linear(x, head_gamma, head_beta, w, b),
        target, mask), where mask [b, n] is 1 on the rows that kept [b, k],
        each sample's k < n unique visible row ids, does not name.

        Each group of samples (the cut of `_groups` over x's shape) runs
        its forward with the kernels of the nodes it fuses, so the loss is
        theirs bit for bit, and then their backward rules with a loss
        gradient of 1, on the buffers its forward kept: each sublayer's
        xhat, the probabilities and merged heads, the GELU output and its
        CDF term.  No exp or erf runs twice; only the q|k|v and fc1
        products, the cheapest to make and the largest to keep, are made
        again.  Every gradient, its groups' partials summed in
        `_grouped`'s order, is the nodes' bit for bit but fill's, whose
        partial is the sum of each group's masked rows of dx.  The
        gradients of z, fill and the parameters are saved, and backward
        scales them by its incoming gradient, which is exact at 1.  pos
        and target are constants: they get no gradient.
        """
        zv, fv, pv = z.value, fill.value, pos.value
        if (zv.ndim != 3 or pv.ndim != 2 or fv.shape != zv.shape[-1:]
                or pv.shape[1:] != fv.shape or zv.shape[1] > len(pv)):
            raise DimensionError(
                f"decoder-loss needs z [b, k, d], fill [d] and pos [n, d] "
                f"with k <= n; got z={zv.shape} fill={fv.shape} "
                f"pos={pv.shape}")
        kept = _check_ids(kept, zv.shape[:2], len(pv), "decoder-loss")
        layers = [tuple(layer) for layer in layers]
        if any(len(layer) != 12 for layer in layers):
            raise ContractError(
                f"decoder-loss takes 12 parameters per layer; got "
                f"{[len(layer) for layer in layers]}")
        shape = (len(zv), len(pv)) + fv.shape
        params = [[n.value for n in layer] for layer in layers]
        for p in params:
            _check_attention(shape, *p[:6], heads, "decoder-loss")
            _check_mlp(shape, *p[6:], "decoder-loss")
            p[3] = _widen_qv(p[3])
        head = [n.value for n in (head_gamma, head_beta, w, b)]
        _check_layernorm(shape, *head[:2])
        _check_linear(shape, head[2].shape, head[3].shape, "decoder-loss")
        tv = target.value
        mv = np.ones(shape[:2], zv.dtype)
        mv[_per_sample(kept)] = 0
        total = _check_mse(shape[:-1] + head[2].shape[1:], tv, mv,
                           "decoder-loss")
        per_row = np.empty(mv.shape, zv.dtype)
        dz = np.empty_like(zv)
        inner = [(functools.partial(_attention_backward,
                                    weights=_attention_weights(*p[2:5]),
                                    heads=heads),
                  functools.partial(_mlp_kept_hidden_grads,
                                    weights=_mlp_weights(*p[8:11])))
                 for p in params]
        head_t = np.ascontiguousarray(head[2].T)
        one = np.ones((), zv.dtype)

        def group(s):
            x = _unshuffle_rows(zv[s], fv, pv, kept[s])
            kept_bufs = []
            for p in params:
                x, att = _attention_keep(x, *p[:6], heads)
                x, mlp = _mlp_keep(x, *p[6:])
                kept_bufs.append((att, mlp))
            head_inv_std = np.empty(x.shape[:-1] + (1,), x.dtype)
            xhat = _normalize_rows(x, np.empty_like(head_inv_std),
                                   head_inv_std, x)
            del x
            pred = _linear_rows(_affine_rows(xhat, *head[:2],
                                             np.empty_like(xhat)), *head[2:])
            _squared_error_rows(pred, tv[s], per_row[s])
            _mse_grad_rows(pred, tv[s], mv[s], total, one, pred)
            dx = np.empty_like(xhat)
            grads = list(_layernorm_linear_grads(xhat, head_inv_std, *head[:2],
                                                 head_t, pred, dx))
            del xhat, pred
            # dx takes each layer's input gradient, last layer first.
            for p, inners in zip(reversed(params), reversed(inner)):
                grads[:0] = _layer_grads(*kept_bufs.pop(), p, inners, dx)
            dz[s] = dx[_per_sample(kept[s])]
            return [_lead_sum(dx[mv[s] != 0], 1), *grads]
        size = max([math.prod(shape)] + [
            max(_attention_size(shape, p[2], heads), _mlp_size(shape, p[8]))
            for p in params])
        grads = _grouped(size, _groups(shape), group)
        node = Node("decoder-loss", _masked_mean(per_row, mv, total),
                    (z, fill, pos, *(n for layer in layers for n in layer),
                     head_gamma, head_beta, w, b, target))
        return self._register(node, [(dz, True),
                                      *((a, True) for a in grads)])

    def boundary(self, value):
        """The array `value` as a detached constant leaf: shared, not
        copied, read-only from now on, and charged at once.

        `value` is the producing block's output array, or the rows of it
        that the reading block keeps, gathered by the caller.  Record it
        in the scope of the block that reads it, after the release of the
        block that produced it: gradients of later losses stop at this
        leaf, and the reading block's release frees it.  An output array
        recorded before its producer's release is charged twice, by the
        producer's node that saves it and by this leaf, until that
        release.
        """
        self._check_dtype(value)
        value.flags.writeable = False
        return self._register(Node("boundary", value, (), is_leaf=True),
                              [(value, True)])

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
            contribs = _VJP[node.kind](node, g)
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
        """Drop values and saved buffers of all nodes tagged block_id.

        Requires that the block's backward already ran; repeated release of
        the same block is an error.  Returns the number of bytes freed: the
        block's charged bytes.
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


class Forward(Tape):
    """A tape that records nothing, for a forward that never runs backward.

    Every primitive computes the same values as on a `Tape`, bit for bit,
    but its node saves no buffer, charges nothing, is not appended and
    keeps no link to its inputs: an array lives only while the caller
    holds its node.  A residual node writes its output over its non-leaf
    input's array (`_residual_out`), so a layer holds one activation.
    """

    def _register(self, node, saved_pairs):
        node.inputs = ()
        return node

    @staticmethod
    def _act(x):
        # Nothing is saved, so no array is made read-only; and a consumed
        # input has no array to pair.
        return None

    def _residual_out(self, x, kind):
        """x's own array when x is a non-leaf node: nothing saved it, so the
        residual sum is written over it, and x is consumed.  A leaf's array
        is never written."""
        if x.is_leaf:
            return super()._residual_out(x, kind)
        out = x.value
        x.value = None
        x.consumed_by = kind
        return out

    def backward(self, loss):
        raise LifecycleError(
            "backward on a Forward tape: it records nothing to run back "
            "through")

    def release_block_activations(self, block_id):
        raise LifecycleError(
            f"release of block {block_id} on a Forward tape: it records "
            f"nothing to release")


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
    if len(x_shape) < 2:
        raise DimensionError(
            f"layernorm needs rows [b, ..., d] of rank >= 2, got {x_shape}")
    d = x_shape[-1]
    if gv.shape != (d,) or bv.shape != (d,):
        raise DimensionError(
            f"layernorm affine shapes {gv.shape}/{bv.shape} "
            f"do not match feature dim {d}")


def _check_mlp(x_shape, gv, bev, w1v, b1v, w2v, b2v, kind):
    """Refuse an MLP sublayer whose parameters do not fit an input of shape
    x_shape, or whose output could not take x as its residual; returns
    the hidden rows' shape."""
    _check_layernorm(x_shape, gv, bev)
    _check_linear(x_shape, w1v.shape, b1v.shape, kind)
    hidden_shape = x_shape[:-1] + w1v.shape[1:]
    _check_linear(hidden_shape, w2v.shape, b2v.shape, kind)
    out_shape = x_shape[:-1] + w2v.shape[1:]
    if out_shape != x_shape:
        raise DimensionError(
            f"residual {x_shape} does not match the output {out_shape}")
    return hidden_shape


def _check_mse(pred_shape, tv, mv, kind):
    """Refuse a target that is not of the prediction's shape, a mask that
    is not of its rows' shape, or a mask with no masked row; returns the
    count of masked rows."""
    if tv.shape != pred_shape:
        raise DimensionError(f"{kind} pred {pred_shape} vs target {tv.shape}")
    if mv.shape != pred_shape[:-1]:
        raise DimensionError(
            f"{kind} mask {mv.shape} vs rows {pred_shape[:-1]}")
    total = mv.sum()
    if total == 0:
        raise ContractError(f"{kind}: no masked rows, loss undefined")
    return total


def _check_attention(x_shape, gv, bev, wqv, bqv, wov, bov, heads, kind):
    """Refuse an attention sublayer whose parameters do not fit an input
    of shape x_shape, before anything is computed."""
    _check_layernorm(x_shape, gv, bev)
    _check_linear(x_shape, wqv.shape, wqv.shape[-1:], kind)
    if wqv.shape[1] % (3 * heads) != 0:
        raise DimensionError(
            f"{kind} needs a q|k|v width 3*d with d divisible by {heads} "
            f"heads; got {wqv.shape[1]}")
    width = wqv.shape[1] // 3
    if bqv.shape != (2 * width,):
        raise DimensionError(f"{kind} needs a q|v bias [2*d] = "
                             f"[{2 * width}]; got {bqv.shape}")
    merged_shape = x_shape[:-1] + (width,)
    _check_linear(merged_shape, wov.shape, bov.shape, kind)
    out_shape = x_shape[:-1] + wov.shape[1:]
    if out_shape != x_shape:
        raise DimensionError(
            f"residual {x_shape} does not match the output {out_shape}")


def _check_ids(ids, shape, n, kind):
    """ids as a contiguous int64 array, refused unless it is [b, k] of
    `shape` (b, k), or (b, None) for any k, and each sample's ids are
    unique and in range(n)."""
    ids = np.ascontiguousarray(ids, dtype=np.int64)
    b, k = shape
    if ids.ndim != 2 or len(ids) != b or k not in (None, ids.shape[1]):
        raise DimensionError(
            f"{kind} needs ids [b, k] = [{b}, {'k' if k is None else k}]; "
            f"got {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise DimensionError(
            f"{kind} ids out of range [0, {n}): min={ids.min()} "
            f"max={ids.max()}")
    ordered = np.sort(ids, axis=-1)
    if np.any(ordered[:, 1:] == ordered[:, :-1]):
        raise ContractError(f"{kind} ids must be unique per sample")
    return ids


# ----- row kernels --------------------------------------------------------
#
# One kernel per operation, shared by its own node and the fused nodes.
# Each writes the rows it is given into preallocated outputs; the linear
# kernel makes its output when none is given, and returns it.

def _linear_rows(x, w, b, out=None, residual=None):
    # Split by batch entry: each keeps its own product, so the BLAS calls
    # are the same as unsplit.  The sums are those of add(x @ w, b) and
    # add(residual, that): addition commutes bit for bit, and a residual of
    # the rows' shape [m, n] is broadcast over the batch.  A residual that
    # is `out` itself, a sum written over its input, is added to the
    # product made in a temporary of out's rows.
    if out is None:
        out = np.empty(x.shape[:-1] + w.shape[1:], x.dtype)
    elif residual is out:
        out += _linear_rows(x, w, b)
        return out
    np.matmul(x, w, out=out)
    out += b
    if residual is not None:
        out += residual
    return out


def _row_mean(a):
    """a.mean(axis=-1, keepdims=True), bit for bit, without its Python
    wrapper: the same sum and one division, rounded once to a's dtype
    (numpy divides in f64 and rounds to f32, which gives the same bits)."""
    out = np.add.reduce(a, axis=-1, keepdims=True)
    out /= a.shape[-1]
    return out


def _layernorm_rows(x, mu, inv_std, out, gamma, beta, stats=True):
    """The normed rows of x in `out`, which it returns; the rows before
    the affine become them in place.  With `stats` (a forward) each row's
    mean and inverse std are written into mu and inv_std; without (a
    rule) they are read, and the rows are the forward's bit for bit."""
    return _affine_rows((_normalize_rows if stats else _xhat_rows)(
        x, mu, inv_std, out), gamma, beta, out)


def _normalize_rows(x, mu, inv_std, out):
    """xhat = (x - mu) * inv_std in `out`, which may be x's buffer, and
    which it returns; each row's mean and inverse std go into mu and
    inv_std.  The same operations as `x.mean`, `x.var` and
    `(x - mu) * inv_std` (see _row_mean), so the values are equal bit for
    bit, and equal to `_xhat_rows`'s."""
    np.add.reduce(x, axis=-1, keepdims=True, out=mu)
    mu /= x.shape[-1]
    np.subtract(x, mu, out=out)
    var = _row_mean(out * out)
    var += x.dtype.type(LN_EPS)
    np.sqrt(var, out=var)
    np.divide(1.0, var, out=inv_std)
    out *= inv_std
    return out


def _squared_error_rows(pred, target, out):
    """Each row's squared error averaged over its last axis, in `out`."""
    err = pred - target
    err *= err
    out[...] = err.mean(axis=-1)


def _masked_mean(per_row, mask, total):
    """The mean of per_row over the rows where mask is 1, total of them, as
    a 0-d array."""
    return np.asarray((per_row * mask).sum() / total, dtype=per_row.dtype)


def _xhat_rows(x, mu, inv_std, out):
    """(x - mu) * inv_std, as the forward computes it, in `out`, which it
    returns."""
    np.subtract(x, mu, out=out)
    out *= inv_std
    return out


def _affine_rows(xhat, gamma, beta, out):
    np.multiply(xhat, gamma, out=out)
    out += beta
    return out


def _gelu_cdf_rows(x, cdf):
    """The CDF term 1 + erf(x / sqrt2) in `cdf`, in place."""
    np.divide(x, np.sqrt(x.dtype.type(2.0)), out=cdf)
    erf(cdf, out=cdf)
    cdf += 1.0
    return cdf


def _gelu_from_cdf(x, cdf, out):
    np.multiply(0.5, x, out=out)
    out *= cdf
    return out


def _gelu_pdf_rows(x, out):
    """2 * x * pdf(x) in `out`, which must not be x's buffer."""
    np.multiply(-0.5, x, out=out)
    out *= x
    np.exp(out, out=out)
    out /= np.sqrt(x.dtype.type(2.0 * np.pi))
    out *= x
    out *= 2.0
    return out


def _gelu_grad_from_pdf(cdf, t, g, out):
    """g * (0.5 * cdf + x * pdf(x)) from t = 2 * x * pdf(x), in `out`,
    which may be cdf's or t's buffer but not g's."""
    # 0.5 * cdf + t / 2 as (cdf + t) / 2.  Doubling and halving are exact
    # (cdf = 1 + erf is never subnormal), so the sum is the same bit for
    # bit, and it can land in cdf's buffer.
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


def _attention_replay(normed, w_qkv, b_qkv, width, heads, row_max, row_sum,
                      stats=False):
    """An attention sublayer after its LayerNorm, over one chunk's or
    group's normed rows [c, n, d]: q|k|v [c, n, 3 width], the
    probabilities softmax(q k^T / sqrt(dh)) of each head and the merged
    heads [c, n, width], each head's product in its (head, dh) columns,
    bitwise the forward's; `stats` as in _attention_probs.  A caller that
    reads the normed rows no more passes its only reference to them, and
    they die once q|k|v is made."""
    qkv = _linear_rows(normed, w_qkv, b_qkv)
    del normed
    q, k, v = _split_heads(qkv, heads)
    c, n = qkv.shape[:2]
    merged = np.empty((c, n, width), qkv.dtype)
    p = _attention_probs(q, k, row_max, row_sum, stats)
    np.matmul(p, v, out=np.swapaxes(merged.reshape(c, n, heads,
                                                   width // heads), 1, 2))
    return qkv, p, merged


def _attention_sum(x, mu, inv_std, row_max, row_sum, params, heads, out,
                   residual, stats=False):
    """x + an attention sublayer of its six parameters `params`, over one
    chunk's or group's rows x, in `out`, which it returns; `residual` is
    x, or out when out is x's buffer (see _linear_rows).  With `stats`
    (the forward) the row statistics are written into mu, inv_std,
    row_max and row_sum; without (the rule, rebuilding x2) they are read,
    and the sum is the forward's bit for bit."""
    gamma, beta, w_qkv, b_qkv, w_out, b_out = params
    return _linear_rows(_attention_replay(
        _layernorm_rows(x, mu, inv_std, np.empty_like(x), gamma, beta, stats),
        w_qkv, b_qkv, len(w_out), heads, row_max, row_sum, stats)[2],
        w_out, b_out, out, residual)


def _mlp_replay(normed, w1, b1):
    """An MLP sublayer after its LayerNorm, over one chunk's or group's
    normed rows: the GELU output, written over fc1, and its CDF term
    1 + erf(fc1/sqrt2), bitwise the forward's.  The normed rows die once
    fc1 is made, as in _attention_replay."""
    h = _linear_rows(normed, w1, b1)
    del normed
    cdf = _gelu_cdf_rows(h, np.empty_like(h))
    return _gelu_from_cdf(h, cdf, h), cdf


def _unshuffle_rows(z, fill, pos, kept):
    """The decoder input [b, n, d]: row j of z's sample i at row
    kept[i, j], `fill` at the other rows, then plus `pos`."""
    out = np.empty((len(z), len(pos)) + fill.shape, z.dtype)
    out[...] = fill
    out[_per_sample(kept)] = z
    out += pos
    return out


def _attention_keep(x, gamma, beta, w_qkv, b_qkv, w_out, b_out, heads):
    """The attention sublayer's residual sum over one group's rows x,
    bitwise `Tape.encoder_layer`'s x2, in a new buffer, and what its
    backward reads of the forward, in a list: xhat, inv_std, the
    probabilities and the merged heads (`_attention_backward`).  q|k|v is
    not kept: it is the larger, and its product the cheaper to make
    again."""
    inv_std = np.empty(x.shape[:-1] + (1,), x.dtype)
    xhat = _normalize_rows(x, np.empty_like(inv_std), inv_std,
                           np.empty_like(x))
    row_max = np.empty((len(x), heads, x.shape[1], 1), x.dtype)
    p, merged = _attention_replay(
        _affine_rows(xhat, gamma, beta, np.empty_like(x)), w_qkv, b_qkv,
        len(w_out), heads, row_max, np.empty_like(row_max), stats=True)[1:]
    return (_linear_rows(merged, w_out, b_out, np.empty_like(x), x),
            [xhat, inv_std, p, merged])


def _mlp_keep(x, gamma, beta, w1, b1, w2, b2):
    """The MLP sublayer's residual sum over one group's rows x, bitwise
    `Tape.encoder_layer`'s output, in a new buffer, and what its backward
    reads of the forward, in a list: xhat, inv_std, the GELU output and
    its CDF term (`_mlp_kept_hidden_grads`)."""
    inv_std = np.empty(x.shape[:-1] + (1,), x.dtype)
    xhat = _normalize_rows(x, np.empty_like(inv_std), inv_std,
                           np.empty_like(x))
    h, cdf = _mlp_replay(_affine_rows(xhat, gamma, beta, np.empty_like(x)),
                         w1, b1)
    return (_linear_rows(h, w2, b2, np.empty_like(x), x),
            [xhat, inv_std, h, cdf])


# ----- backward rules ----------------------------------------------------
#
# The rule of a node a step records walks its batch [b, n, ...] once, a
# group of whole samples at a time (`_groups`), writes each group's rows
# of its input gradients and adds each group's partial sums over rows in
# `_grouped`'s fixed order; a product with a weight's transpose reads a
# contiguous copy of it, made once per rule.  The other rules run on the
# whole batch.

def _groups(shape, lo=0, hi=None):
    """Slices of samples lo..hi (all by default) of a batch of `shape`
    [b, ..., k], each of max(1, _GROUP_ROWS // n) whole samples, n the
    rows of one sample (1 for [b, k]).  Over the whole batch this is a
    backward rule's group cut, which depends on the shape alone."""
    hi = shape[0] if hi is None else hi
    step = max(1, _GROUP_ROWS // max(1, math.prod(shape[1:-1])))
    return [slice(i, min(i + step, hi)) for i in range(lo, max(lo + 1, hi),
                                                       step)]


def _grouped(size, cut, group):
    """Run `group(s)` for each slice s of `cut`; returns the sums of the
    partials it returns, a list.

    Each call writes its own rows of the rule's outputs and returns new
    arrays.  The cut splits into a first and a second half, the second
    taking the odd group (a cut's last group is its smallest).  Each half
    adds its groups' partials one after another, and the total is the
    first half's plus the second's.  The halves run one per thread when
    `size` repays two threads (as in `_parallel`), and one after the other
    otherwise, so the sums are the same bit for bit either way.
    """
    half = max(1, len(cut) // 2)

    def run(groups):
        total = None
        for s in groups:
            if total is None:
                total = list(group(s))
            else:
                for i, p in enumerate(group(s)):
                    total[i] += p
        return total

    first, second = _parallel(size, lambda: run(cut[:half]),
                              lambda: run(cut[half:]))
    for i, p in enumerate(second or ()):
        first[i] += p
    return first


def _lead_sum(a, lead):
    """a summed over its first `lead` axes: `a.sum` without its Python
    wrapper, which a rule would pay once per group."""
    return np.add.reduce(a, axis=tuple(range(lead)))


def _weight_grad(x, g):
    """x's rows, transposed, times g's: the weight gradient of x @ w."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _weight_grads(x, g):
    """The partial (dw, db) of x @ w + b over one group's rows x and their
    gradient g, both new arrays; a rule adds them over its groups."""
    return _weight_grad(x, g), _lead_sum(g, g.ndim - 1)


def _vjp_matmul(node, g):
    a, b = node.saved
    if b.ndim == 3:
        return (g @ np.swapaxes(b, -1, -2), np.swapaxes(a, -1, -2) @ g)
    return (g @ b.T, _weight_grad(a, g))


def _vjp_linear(node, g):
    # The last entry is pos's, a constant's: none.
    x, w = node.saved
    wt = np.ascontiguousarray(w.T)
    dx = np.empty_like(x)

    def group(s):
        np.matmul(g[s], wt, out=dx[s])
        return _weight_grads(x[s], g[s])
    return (dx, *_grouped(max(x.size, g.size), _groups(x.shape), group),
            None)


def _vjp_add(node, g):
    # A copy for y: a rule may write over its incoming gradient, so no
    # two nodes are handed one array.
    extra = g.ndim - node.attrs["y_ndim"]
    return (g, _lead_sum(g, extra) if extra else g.copy())


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


def _layernorm_grads(xhat, inv_std, gamma, g):
    """The partial (dgamma, dbeta) of xhat * gamma + beta over one group's
    rows, or the batch's, xhat the normed rows before the affine, and dx,
    written over the rows' gradient g: g is consumed, xhat is not.
    """
    lead = g.ndim - 1
    dbeta = _lead_sum(g, lead)
    dxhat = g * gamma
    np.multiply(xhat, g, out=g)
    dgamma = _lead_sum(g, lead)
    m1 = _row_mean(dxhat)
    np.multiply(dxhat, xhat, out=g)
    m2 = _row_mean(g)
    dxhat -= m1
    np.multiply(xhat, m2, out=g)
    dxhat -= g
    np.multiply(inv_std, dxhat, out=g)
    return dgamma, dbeta


def _vjp_layernorm(node, g):
    # dx is written over g.
    x, mu, inv_std, gamma = node.saved
    xhat = _xhat_rows(x, mu, inv_std, np.empty_like(x))
    return (g, *_layernorm_grads(xhat, inv_std, gamma, g))


def _layernorm_linear_grads(xhat, inv_std, gamma, beta, wt, g, dx):
    """The partial (dgamma, dbeta, dw, db) of `Tape.layernorm_linear` over
    one group's rows, xhat the input rows normed before the affine, and g
    their output's gradient.  The normed rows are rebuilt from xhat for
    the product's partials and die with them; dx's rows then take the
    normed rows' gradient, and then their own."""
    dw, db = _weight_grads(_affine_rows(xhat, gamma, beta,
                                        np.empty_like(xhat)), g)
    np.matmul(g, wt, out=dx)
    return (*_layernorm_grads(xhat, inv_std, gamma, dx), dw, db)


def _vjp_layernorm_linear(node, g):
    x, mu, inv_std, gamma, beta, w = node.saved
    wt = np.ascontiguousarray(w.T)
    dx = np.empty_like(x)

    def group(s):
        xhat = _xhat_rows(x[s], mu[s], inv_std[s], np.empty_like(x[s]))
        return _layernorm_linear_grads(xhat, inv_std[s], gamma, beta, wt,
                                       g[s], dx[s])
    return (dx, *_grouped(max(x.size, g.size), _groups(x.shape), group))


def _vjp_softmax(node, g):
    y = node.saved[0]
    s = (g * y).sum(axis=-1, keepdims=True)
    return (y * (g - s),)


def _vjp_gelu(node, g):
    # The forward's CDF term 1 + erf(x/sqrt2) is reused.
    x, cdf = node.saved
    dx = _gelu_pdf_rows(x, np.empty_like(x))
    _gelu_grad_from_pdf(cdf, dx, g, dx)
    return (dx,)


def _widen_qv(b_qv):
    """b_qv [2d] as the 3d columns of the q|k|v product: zeros in k's."""
    q, v = np.split(b_qv, 2)
    return np.concatenate((q, np.zeros_like(q), v))


def _attention_weights(w_qkv, b_qkv, w_out):
    """What `_attention_backward` reads of an attention sublayer's
    parameters: its projections, the q|v bias widened (`_widen_qv`), and
    contiguous copies of both weights' transposes."""
    return (w_qkv, b_qkv, w_out,
            np.ascontiguousarray(w_qkv.T), np.ascontiguousarray(w_out.T))


def _softmax_rows_grad(dp, p):
    """p * (dp - sum(dp * p)) over each row of the last axis, the
    gradient of softmax rows p from their output's gradient dp, written
    over dp, which it returns."""
    dp -= np.add.reduce(dp * p, axis=-1, keepdims=True)
    dp *= p
    return dp


def _attention_backward(normed, kept, g, weights, heads, stats=None):
    """The gradient of an attention sublayer's normed rows and the partial
    (dw_qkv, db_qv, dw_out, db_out) over one group of whole samples, from
    its output's gradient g.  `normed()` gives the group's normed rows, in
    a buffer the call may write, once for q|k|v and once for dw_qkv.
    `kept` is the probabilities and the merged heads, as `_attention_keep`
    keeps them, or empty, and then `_attention_replay` makes them again
    from `stats`, the group's softmax max and sum.  q|k|v is made again
    from the normed rows either way.  It empties kept, so each buffer
    dies once read.

    The merged heads die with the out projection's partials.  Attention's
    rule then runs into the group's dqkv a block of b heads at a time, as
    many as keep the block's probability gradient and that gradient's
    product with the probabilities, each [c, b, n, n], within one normed
    row's width (2 b n <= d; one head when n > d / 2).  Every product is
    per matrix and every row sum along a contiguous row, as over all
    heads at once, so the bits are the same.  The probabilities and
    q|k|v die with the last block, dqkv with the qkv projection's
    partials, and the buffer of the second normed rows takes their
    gradient, which is returned; the bias partial is dqkv's row sum
    without its k columns.
    """
    w_qkv, b_qkv, w_out, w_qkv_t, w_out_t = weights
    qkv, p, merged = (
        _attention_replay(normed(), w_qkv, b_qkv, len(w_out), heads, *stats)
        if stats else (_linear_rows(normed(), w_qkv, b_qkv), *kept))
    kept.clear()
    c, n, _ = qkv.shape
    width = len(w_out)
    dw_out, db_out = _weight_grads(merged, g)
    del merged
    q, k, v = _split_heads(qkv, heads)
    dqkv = np.empty_like(qkv)
    dq, dk, dv = _split_heads(dqkv, heads)
    gctx = np.swapaxes((g @ w_out_t).reshape(c, n, heads, width // heads),
                       1, 2)
    np.matmul(np.swapaxes(p, -1, -2), gctx, out=dv)
    scale = qkv.dtype.type(1.0 / np.sqrt(width // heads))
    step = max(1, width // (2 * n))
    dprobs = np.empty((c, min(step, heads), n, n), qkv.dtype)
    for h in range(0, heads, step):
        hs = slice(h, h + step)
        dp = dprobs[:, :min(step, heads - h)]
        np.matmul(gctx[:, hs], np.swapaxes(v[:, hs], -1, -2), out=dp)
        # softmax's gradient, then the 1/sqrt(dh) scale
        _softmax_rows_grad(dp, p[:, hs])
        dp *= scale
        np.matmul(dp, k[:, hs], out=dq[:, hs])
        np.matmul(np.swapaxes(dp, -1, -2), q[:, hs], out=dk[:, hs])
    del p, gctx, dprobs, dp, qkv, q, k, v
    rows = normed()
    dw_qkv, db_qkv = _weight_grads(rows, dqkv)
    np.matmul(dqkv, w_qkv_t, out=rows)
    db_qv = np.concatenate((db_qkv[:width], db_qkv[2 * width:]))
    return rows, (dw_qkv, db_qv, dw_out, db_out)


def _attention_size(shape, w_qkv, heads):
    """The element count `_grouped` weighs an attention rule by: the larger
    of q|k|v and the probabilities over the whole batch."""
    b, n = shape[:2]
    return max(b * n * w_qkv.shape[1], b * heads * n * n)


def _mlp_weights(w1, b1, w2):
    """What `_mlp_kept_hidden_grads` reads of an MLP sublayer's saved
    parameters: fc1's weight and bias, and contiguous copies of both
    weights' transposes."""
    return w1, b1, np.ascontiguousarray(w1.T), np.ascontiguousarray(w2.T)


def _mlp_kept_hidden_grads(normed, kept, g, weights):
    """The gradient of an MLP sublayer's normed rows and the partial
    (dw1, db1, dw2, db2) over one group, from its output's gradient g.
    `normed()` gives the group's normed rows, in a buffer the call may
    write, for fc1 and for dw1.  `kept` is the GELU output and its CDF
    term, as `_mlp_keep` keeps them, or empty, and then `_mlp_replay`
    makes them from the normed rows.  It empties kept, so each buffer
    dies once read, and holds two hidden-wide buffers at once at most.

    The GELU output feeds dw2's partial, and its buffer then takes fc1
    again, from the same normed rows, which the call then lets go: fc1
    reads them beside both hidden-wide buffers, so holding them through
    dw2 raises no peak, and asking for them again for dw1 keeps them out
    of the pass below.  The GELU gradient's sum of the CDF term and
    2 * fc1 * pdf(fc1) goes into the CDF term's buffer a slice of rows at
    a time.  Without kept the temporary is as large as the normed rows,
    which takes their place (96 of 384 rows at a hidden width of 4 d; 64
    rows ran about 27 us a group slower on a 2-core x86 VM, one numpy
    call's cost per slice and op); with kept the caller holds the normed
    rows, so it is 64 rows.  fc1's buffer then takes dh, the CDF term's the
    GELU gradient, and the buffer of the last normed rows their gradient,
    which is returned.  Each value is the one `_gelu_grad_from_pdf`
    makes, bit for bit: every step is elementwise.
    """
    w1, b1, w1t, w2t = weights
    rows = normed()
    held = bool(kept)
    h, cdf = kept or _mlp_replay(rows, w1, b1)
    kept.clear()
    dw2, db2 = _weight_grads(h, g)
    f1 = _linear_rows(rows, w1, b1, h)
    del h, rows
    f1_rows = f1.reshape(-1, f1.shape[-1])
    cdf_rows = cdf.reshape(f1_rows.shape)
    step = 64 if held else max(1, len(f1_rows) * len(w1) // f1.shape[-1])
    t = np.empty((min(step, len(f1_rows)), f1.shape[-1]), f1.dtype)
    for i in range(0, len(f1_rows), step):
        part = cdf_rows[i:i + step]
        part += _gelu_pdf_rows(f1_rows[i:i + step], t[:len(part)])
    del t
    cdf *= 0.5
    cdf *= np.matmul(g, w2t, out=f1)
    del f1, f1_rows
    rows = normed()
    dw1, db1 = _weight_grads(rows, cdf)
    np.matmul(cdf, w1t, out=rows)
    return rows, (dw1, db1, dw2, db2)


def _mlp_size(shape, w1):
    """The element count `_grouped` weighs an MLP rule by: the larger of
    the input and the hidden rows over the whole batch of `shape`."""
    return max(math.prod(shape), math.prod(shape[:-1]) * w1.shape[1])


def _vjp_encoder_layer(node, g):
    # One pass, a group at a time; dx is written over g.
    x, mu1, inv_std1, row_max, row_sum, mu2, inv_std2, *params = node.saved
    params[3] = _widen_qv(params[3])
    heads = node.attrs["heads"]
    weights = _attention_weights(*params[2:5])
    mlp_inner = functools.partial(_mlp_kept_hidden_grads,
                                  weights=_mlp_weights(*params[8:11]))

    def group(s):
        # The normed rows are made again where a core reads them, and
        # LayerNorm 1's xhat too, from x and its statistics.  x2's rows,
        # rebuilt by a replay of the attention sublayer, become LayerNorm
        # 2's xhat in place, which lives through the MLP part.
        xs, gs, stats = x[s], g[s], (mu1[s], inv_std1[s])
        xhat = _attention_sum(xs, *stats, row_max[s], row_sum[s], params[:6],
                              heads, np.empty_like(xs), xs)
        _xhat_rows(xhat, mu2[s], inv_std2[s], xhat)
        mlp = _pre_norm_grads(mlp_inner(
            lambda: _affine_rows(xhat, *params[6:8], np.empty_like(xs)), [],
            gs), xhat, inv_std2[s], params[6], gs)
        del xhat
        core = _attention_backward(
            lambda: _layernorm_rows(xs, *stats, np.empty_like(xs),
                                    *params[:2], stats=False),
            [], gs, weights, heads, (row_max[s], row_sum[s]))
        return (*_pre_norm_grads(core, _xhat_rows(xs, *stats,
                                                  np.empty_like(xs)),
                                 stats[1], params[0], gs), *mlp)
    size = max(_attention_size(x.shape, params[2], heads),
               _mlp_size(x.shape, params[8]))
    return (g, *_grouped(size, _groups(x.shape), group))


def _pre_norm_grads(core, xhat, inv_std, gamma, g):
    """The partial gradients of a pre-norm sublayer over one group, from
    `core`, what its core returned after the LayerNorm (the normed rows'
    gradient and its partials), and xhat, its input rows normed before
    the affine: the LayerNorm's partials (dgamma, dbeta), then the
    core's.  The normed rows' gradient becomes the input's gradient less
    the residual's, which is added to g."""
    dnormed, grads = core
    grads = (*_layernorm_grads(xhat, inv_std, gamma, dnormed), *grads)
    g += dnormed
    return grads


def _kept_sublayer_grads(bufs, gamma, beta, inner, g):
    """`_pre_norm_grads` over one group from what a decoder-loss forward
    kept (`_attention_keep`, `_mlp_keep`): bufs is xhat, its inv_std and
    what `inner(normed, kept, g)` reads after the normed rows, as `kept`.
    The normed rows are made once from xhat and held, and inner reads
    them through `normed`.  It empties bufs."""
    xhat, inv_std, *kept = bufs
    bufs.clear()
    normed = _affine_rows(xhat, gamma, beta, np.empty_like(xhat))
    return _pre_norm_grads(inner(lambda: normed, kept, g), xhat, inv_std,
                           gamma, g)


def _layer_grads(att, mlp, params, inners, g):
    """The partial gradients of a decoder layer over one group, in the
    order of its parameters `params`: the MLP sublayer's, then the
    attention sublayer's, each through `_kept_sublayer_grads` from the
    buffers `mlp` and `att` that the decoder-loss forward kept and with
    `inners` (attention's, the MLP's).  Each adds its input's gradient to
    g in turn."""
    mlp_grads = _kept_sublayer_grads(mlp, *params[6:8], inners[1], g)
    return (*_kept_sublayer_grads(att, *params[:2], inners[0], g),
            *mlp_grads)


def _mse_grad_rows(pred, target, mask, total, g, out):
    """2 * (pred - target) * mask / (p * total) * g in `out`, which may be
    pred's buffer, for rows of p columns and `total` masked rows."""
    np.subtract(pred, target, out=out)
    out *= 2.0
    out *= mask[..., None]
    out /= pred.shape[-1] * total
    out *= g
    return out


def _vjp_mse_masked(node, g):
    pred, target, mask = node.saved
    return (_mse_grad_rows(pred, target, mask, mask.sum(), g,
                           np.empty_like(pred)), None, None)


def _vjp_decoder_loss(node, g):
    # The node's own gradients, which no other node holds: scaled in place.
    # pos and target are constants: none.
    for a in node.saved:
        a *= g
    dz, dfill, *grads = node.saved
    return (dz, dfill, None, *grads, None)


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
    "encoder-layer": _vjp_encoder_layer,
    "softmax-lastdim": _vjp_softmax,
    "gelu": _vjp_gelu,
    "mse-masked": _vjp_mse_masked,
    "decoder-loss": _vjp_decoder_loss,
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
