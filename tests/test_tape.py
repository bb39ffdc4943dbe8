"""Autodiff tape: gradient oracles, block isolation, release lifecycle,
and byte accounting."""

import inspect
import re
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import erf

from blockmae import rng, tape
from blockmae.tape import (
    Tape, ContractError, DimensionError, LifecycleError, NumericError,
    finite_diff, LN_EPS, _VJP,
)


def _rand(seed, *shape):
    return rng.normals(seed, int(np.prod(shape))).reshape(shape)


def _widen_qv(b_qv):
    """A q|v bias [2d] as the q|k|v columns it biases, with zeros in the k
    columns: what the attention kernels add."""
    q, v = np.split(b_qv, 2)
    return np.concatenate((q, np.zeros_like(q), v))


def _qv_columns(a):
    """The q and v thirds of a q|k|v vector [3d]: a q|v bias's gradient."""
    q, _, v = np.split(a, 3)
    return np.concatenate((q, v))


def _grad_check(build, point, seed, rel_tol=1e-4, eps=1e-6):
    """Compare tape gradient of a scalar function against finite differences.

    `build(tape, x_node)` must return the scalar loss node.
    """
    def scalar_fn(x):
        t = Tape()
        xn = t.leaf(x, name="x", requires_grad=True)
        return float(build(t, xn).value)

    t = Tape()
    xn = t.leaf(point, name="x", requires_grad=True)
    loss = build(t, xn)
    got = t.backward(loss)["x"]
    want = finite_diff(scalar_fn, point, eps=eps)
    scale = max(np.abs(want).max(), 1.0)
    assert np.abs(got - want).max() / scale < rel_tol, \
        f"gradient mismatch (seed {seed}): {np.abs(got - want).max() / scale}"


# ----- shape algebra and forward values -----------------------------------

def test_matmul_shape():
    t = Tape()
    a = t.leaf(_rand(1, 2, 3))
    b = t.leaf(_rand(2, 3, 4))
    assert t.matmul(a, b).shape == (2, 4)


def test_matmul_shape_mismatch_names_extents():
    t = Tape()
    a = t.leaf(_rand(3, 2, 3))
    b = t.leaf(_rand(4, 4, 4))
    with pytest.raises(DimensionError, match="matmul"):
        t.matmul(a, b)


def test_gather_rows_id_order():
    t = Tape()
    x = t.leaf(_rand(5, 2, 5, 8))
    out = t.gather_rows(x, np.array([[4, 0], [1, 3]]))
    assert out.shape == (2, 2, 8)
    assert np.array_equal(out.value[0, 0], x.value[0, 4])
    assert np.array_equal(out.value[0, 1], x.value[0, 0])
    assert np.array_equal(out.value[1, 0], x.value[1, 1])
    assert np.array_equal(out.value[1, 1], x.value[1, 3])


@pytest.mark.parametrize("x_shape,ids", [
    ((2, 5, 4), np.array([4, 0])),      # one id list shared by the batch
    ((5, 4), np.array([4, 0])),         # an unbatched input
    ((5, 4), np.array([[4, 0]])),
    ((2, 5, 4), np.array([[4, 0]])),    # fewer id rows than batch entries
])
def test_gather_rows_rejects_other_ranks(x_shape, ids):
    t = Tape()
    with pytest.raises(DimensionError,
                       match=r"gather-rows needs (x \[b, n, d\]|ids \[b, k\])"):
        t.gather_rows(t.leaf(np.zeros(x_shape)), ids)


def test_gather_rows_rejects_ids_out_of_range():
    t = Tape()
    x = t.leaf(np.zeros((2, 5, 4)))
    for ids in ([[0, 5], [1, 2]], [[0, 1], [-1, 2]]):
        with pytest.raises(DimensionError,
                           match=r"gather-rows ids out of range \[0, 5\)"):
            t.gather_rows(x, np.array(ids))


def test_layernorm_constant_row_is_zero_before_affine():
    # variance 0 regime: (x - mu) / sqrt(0 + eps) == 0 exactly
    t = Tape()
    x = t.leaf(np.full((3, 8), 2.5))
    g = t.leaf(np.ones(8))
    b = t.leaf(np.zeros(8))
    out = t.layernorm(x, g, b)
    assert np.all(out.value == 0.0)


def test_layernorm_matches_closed_form():
    x = _rand(7, 4, 6)
    t = Tape()
    out = t.layernorm(t.leaf(x), t.leaf(np.ones(6)), t.leaf(np.zeros(6)))
    mu = x.mean(-1, keepdims=True)
    want = (x - mu) / np.sqrt(x.var(-1, keepdims=True) + LN_EPS)
    np.testing.assert_allclose(out.value, want, rtol=1e-12)


def test_softmax_rows_sum_to_one():
    t = Tape()
    out = t.softmax(t.leaf(_rand(11, 3, 4, 7) * 5))
    np.testing.assert_allclose(out.value.sum(-1), 1.0, rtol=1e-12)


def _gelu_reference(x):
    """Out-of-place GELU: the reference for the tape's in-place forward."""
    out = 0.5 * x * (1.0 + erf(x / np.sqrt(x.dtype.type(2.0))))
    return out.astype(x.dtype, copy=False)


def _softmax_reference(x):
    """Out-of-place softmax: the reference for the tape's in-place forward."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _gelu_points(seed, dtype):
    """Random rows plus one row of edge values: signed zeros, tiny and huge."""
    edges = np.array([-1e4, -80.0, -7.5, -1.0, -1e-8, -0.0, 0.0, 0.0,
                      1e-8, 0.5, 3.0, 7.5, 80.0, 1e4])
    x = np.concatenate([_rand(seed, 3, 4, 14).ravel() * 6.0, edges])
    return x.reshape(-1, 14).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_and_softmax_bitwise_equal_out_of_place_reference(dtype):
    x = _gelu_points(53, dtype)
    t = Tape()
    xn = t.leaf(x.copy())
    gelu, soft = t.gelu(xn).value, t.softmax(xn).value
    for got, want in ((gelu, _gelu_reference(x)), (soft, _softmax_reference(x))):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
    np.testing.assert_array_equal(xn.value, x)  # the input is not written


def _gelu_vjp_reference(x, g):
    """GELU backward that recomputes the CDF from x: the reference for the
    rule that reuses the forward's CDF term."""
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(x.dtype.type(2.0))))
    pdf = np.exp(-0.5 * x * x) / np.sqrt(x.dtype.type(2.0 * np.pi))
    return (g * (cdf + x * pdf)).astype(x.dtype, copy=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_vjp_bitwise_equal_recompute_reference(dtype):
    x = _gelu_points(57, dtype)
    g = _rand(58, *x.shape).astype(dtype)
    t = Tape()
    y = t.gelu(t.leaf(x.copy(), name="x", requires_grad=True))
    (got,) = _VJP["gelu"](y, g)
    want = _gelu_vjp_reference(x, g)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got, want)


def _attention_inputs(b, n, d, dtype, seed):
    """x [b, n, d] and an attention sublayer's parameters, in the argument
    order of `Tape.encoder_layer`."""
    shapes = {"x": (b, n, d), "gamma": (d,), "beta": (d,),
              "w_qkv": (d, 3 * d), "b_qv": (2 * d,), "w_out": (d, d),
              "b_out": (d,)}
    return {k: (_rand(seed + i, *shape) * 0.5).astype(dtype)
            for i, (k, shape) in enumerate(shapes.items())}


def _attention_reference(v, heads):
    """x + the pre-norm attention sublayer one head at a time, in plain
    numpy, with q, k and v cut from the (q|k|v, head, dh) columns of the
    qkv projection."""
    x = v["x"]
    d = x.shape[-1]
    dh = d // heads
    mu = x.mean(-1, keepdims=True)
    normed = ((x - mu) / np.sqrt(x.var(-1, keepdims=True) + LN_EPS)
              * v["gamma"] + v["beta"])
    qkv = normed @ v["w_qkv"] + _widen_qv(v["b_qv"])
    outs = []
    for h in range(heads):
        q, k, val = (qkv[..., p * d + h * dh:p * d + (h + 1) * dh]
                     for p in range(3))
        scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(dh)
        outs.append(_softmax_reference(scores) @ val)
    return x + np.concatenate(outs, axis=-1) @ v["w_out"] + v["b_out"]


# The encoder-layer node's inputs after x, in its argument order: the
# attention sublayer's six parameters, then the MLP sublayer's six.  As
# one sublayer's, the MLP's are named as in _MLP.
_ATTENTION = ("gamma", "beta", "w_qkv", "b_qv", "w_out", "b_out")
_MLP = ("gamma", "beta", "w1", "b1", "w2", "b2")
_LAYER = _ATTENTION + ("gamma2", "beta2", "w1", "b1", "w2", "b2")
# The encoder-layer node, as its two parts (`_layer_part`) and whole.
_LAYER_KINDS = ("layernorm-attention", "layernorm-mlp", "encoder-layer")


def _layer_part(t, part, v, heads=2, hidden=None):
    """The encoder-layer node on tape t as one of its two parts, over the
    nodes v: x and the attention sublayer's inputs (_ATTENTION) for part
    "layernorm-attention", or x and the MLP sublayer's (_MLP) for
    "layernorm-mlp".  The other part's inputs are constant leaves whose
    output projection is zero, so that part's residual sum is its input
    and its rule hands the gradient on: the node computes the part's
    function, and its rule the part's gradients, while both parts run.
    The constant MLP's hidden width is `hidden`, 2 * d by default."""
    x = v["x"]
    d, dtype = x.shape[-1], x.dtype
    hidden = hidden or 2 * d

    def const(i, *shape):
        return t.leaf((_rand(8000 + i, *shape) * 0.5).astype(dtype))
    attention = part == "layernorm-attention"
    zero_w = t.leaf(np.zeros((hidden if attention else d, d), dtype))
    zero_b = t.leaf(np.zeros(d, dtype))
    if attention:
        return t.encoder_layer(x, *(v[k] for k in _ATTENTION), const(0, d),
                               const(1, d), const(2, d, hidden),
                               const(3, hidden), zero_w, zero_b, heads)
    return t.encoder_layer(x, const(0, d), const(1, d), const(2, d, 3 * d),
                           const(3, 2 * d), zero_w, zero_b,
                           *(v[k] for k in _MLP), heads)


def _layer_inputs(b, n, d, dtype, seed, hidden=None):
    """x [b, n, d] and a layer's twelve parameters, by the names "x" and
    _LAYER; the MLP's hidden width is `hidden`, 2 * d by default."""
    hidden = hidden or 2 * d
    vals = _attention_inputs(b, n, d, dtype, seed)
    vals.update((k, (_rand(seed + 20 + i, *shape) * 0.5).astype(dtype))
                for i, (k, shape) in enumerate(zip(_LAYER[6:], (
                    (d,), (d,), (d, hidden), (hidden,), (hidden, d), (d,)))))
    return vals


@pytest.mark.parametrize("heads,n", [(1, 1), (1, 5), (2, 1), (2, 5), (4, 7)])
def test_attention_matches_per_head_reference(heads, n):
    # The layer's attention part.
    vals = _attention_inputs(2, n, 4 * heads, np.float64, 61 + n)
    t = Tape()
    out = _layer_part(t, "layernorm-attention",
                      {k: t.leaf(a) for k, a in vals.items()}, heads)
    assert out.kind == "encoder-layer"
    assert out.shape == (2, n, 4 * heads)
    np.testing.assert_allclose(out.value, _attention_reference(vals, heads),
                               rtol=1e-12, atol=1e-13)


def test_attention_rejects_width_not_split_by_heads():
    t = Tape()
    x = t.leaf(np.zeros((2, 3, 4)))
    params = [t.leaf(np.zeros(s))
              for s in ((4,), (4,), (4, 12), (8,), (4, 4), (4,),
                        (4,), (4,), (4, 6), (6,), (6, 4), (4,))]
    with pytest.raises(DimensionError, match="divisible by 3 heads"):
        t.encoder_layer(x, *params, 3)  # d = 4, not 3 heads
    assert [n.kind for n in t.nodes] == ["leaf"] * len(t.nodes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_bitwise_equal_matmul_plus_bias(dtype):
    x, w, b = (_rand(s, *shape).astype(dtype)
               for s, shape in ((71, (2, 5, 4)), (72, (4, 3)), (73, (3,))))
    g = _rand(74, 2, 5, 3).astype(dtype)

    def run(fused):
        t = Tape()
        xn, wn, bn = (t.leaf(a, name=nm, requires_grad=True)
                      for a, nm in ((x, "x"), (w, "w"), (b, "b")))
        y = t.linear(xn, wn, bn) if fused else t.add(t.matmul(xn, wn), bn)
        loss = t.mse_masked(y, t.leaf(g), t.leaf(np.ones((2, 5), dtype)))
        return y.value, t.backward(loss)

    (y1, g1), (y2, g2) = run(True), run(False)
    assert np.array_equal(y1, y2)
    assert all(np.array_equal(g1[k], g2[k]) for k in ("x", "w", "b"))


# Each sample's rows of the decoder-entry node's 3 rows of z among 5; the
# fill goes to the other 2.
_KEPT = np.array([[3, 0, 4], [1, 2, 0]])


def _fused(t, kind, v):
    """The fused node `kind` over leaves v, recorded on tape t; the
    encoder-layer node's parts are `_layer_part`'s."""
    if kind == "layernorm-attention":
        return _layer_part(t, kind, v)
    if kind == "unshuffle-attention":
        return _unshuffle_attention(t, v, _decoder_loss)
    return _fused_and_unfused(t, kind, v)[0]


def _unshuffle_attention(t, v, build):
    """`build` (`_decoder_loss` or `_decoder_chain`) of the decoder whose
    input z, mask token and first attention sublayer read the leaves v;
    its MLP, head and target are constants.  The decoder-loss node
    runs the work of the unshuffle-attention node it replaced."""
    vals, consts = _decoder_values(2, 3, 5, 4, 1, v["z"].value.dtype, 6310,
                                   kept=_KEPT)
    nodes = {k: t.leaf(a) for k, a in vals.items()}
    nodes.update({f"0.{k}": v[k] for k in _ATTENTION}, z=v["z"],
                 fill=v["fill"])
    return build(t, nodes, consts, 2)


def _unshuffle_then_layer(t, z, fill, pos, kept, layer, heads,
                          fill_rows_grad=False):
    """The decoder input as zeros + fill, concat, gather and position add,
    then its first layer: the entry of `Tape.decoder_loss`, unfused.
    The fill rows go to the rows `kept` leaves out, in ascending order.
    With `fill_rows_grad` their zeros are the leaf "fill_rows", whose
    gradient is theirs."""
    b, k, d = z.shape
    n = pos.shape[0]
    hidden = np.stack([np.setdiff1d(np.arange(n), row) for row in kept])
    order = np.concatenate([kept, hidden], axis=1)   # each row's patch id
    fills = t.add(t.leaf(np.zeros((b, n - k, d), z.dtype), name="fill_rows",
                         requires_grad=fill_rows_grad), fill)
    ordered = t.gather_rows(t.concat_rows([z, fills]),
                            np.argsort(order, axis=1))
    return t.encoder_layer(t.add(ordered, pos), *layer, heads)


def _position_rows(b, m, n, dtype, seed=88, first=0):
    """A constant position table [m + 2, n] and ids [b, m] that pick m of
    its rows for each of samples first..first + b of a batch."""
    ids = np.stack([rng.permutation(seed + first + i, m + 2)[:m]
                    for i in range(b)])
    return _rand(seed, m + 2, n).astype(dtype), ids


def _fused_and_unfused(t, kind, v, first=0):
    """The fused node `kind` over leaves v, and the same function as the
    nodes it fuses, both recorded on tape t.  For "unshuffle-attention"
    both are losses.  The MLP sublayer, the whole encoder-layer node's or
    its MLP part's, is unfused into layernorm-linear, gelu, linear and
    add; the whole node's attention sublayer into its attention part.
    x's samples are a batch's from sample `first` on, whose position ids
    the linear kind takes."""
    if kind == "unshuffle-attention":
        return (_unshuffle_attention(t, v, _decoder_loss),
                _unshuffle_attention(t, v, _decoder_chain))
    if kind == "layernorm-linear":
        args = (v["x"], v["gamma"], v["beta"], v["w"], v["b"])
        return (t.layernorm_linear(*args),
                t.linear(t.layernorm(*args[:3]), *args[3:]))
    if kind in ("layernorm-mlp", "encoder-layer"):
        if kind == "layernorm-mlp":
            fused, x2, mlp = (_layer_part(t, kind, v), v["x"],
                              [v[k] for k in _MLP])
        else:
            fused = t.encoder_layer(v["x"], *(v[k] for k in _LAYER), 2)
            x2 = _layer_part(t, "layernorm-attention", v,
                             hidden=v["w1"].shape[1])
            mlp = [v[k] for k in _LAYER[6:]]
        h = t.gelu(t.layernorm_linear(x2, *mlp[:4]))
        return fused, t.add(x2, t.linear(h, *mlp[4:]))
    x, w, b = v["x"], v["w"], v["b"]
    batch, m, _ = x.shape
    pos, ids = _position_rows(batch, m, w.shape[1], x.dtype, first=first)
    rows = t.gather_rows(
        t.leaf(np.ascontiguousarray(np.broadcast_to(pos, (batch,) + pos.shape))),
        ids)
    return (t.linear(x, w, b, t.leaf(pos), ids),
            t.add(t.linear(x, w, b), rows))


def _fused_inputs(kind, dtype, seed=81):
    shapes = {"x": (2, 5, 4), "w": (4, 3), "b": (3,)}
    if kind == "layernorm-linear":
        shapes.update(gamma=(4,), beta=(4,))
    if kind == "layernorm-mlp":
        shapes = {"x": (2, 5, 4), "gamma": (4,), "beta": (4,), "w1": (4, 6),
                  "b1": (6,), "w2": (6, 4), "b2": (4,)}
    if kind == "unshuffle-attention":
        vals = _attention_inputs(2, 5, 4, dtype, seed)
        del vals["x"]
        return {"z": (_rand(seed + 7, 2, 3, 4) * 1.5).astype(dtype),
                "fill": (_rand(seed + 8, 4) * 1.5).astype(dtype), **vals}
    if kind == "layernorm-attention":
        return _attention_inputs(2, 5, 4, dtype, seed)
    if kind == "encoder-layer":
        return _layer_inputs(2, 5, 4, dtype, seed, hidden=6)
    return {k: (_rand(seed + i, *shape) * 1.5).astype(dtype)
            for i, (k, shape) in enumerate(shapes.items())}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["layernorm-linear", "layernorm-mlp", "linear",
                                  "unshuffle-attention", "encoder-layer"])
def test_fused_node_bitwise_equal_unfused_composition(kind, dtype):
    # One tape: the fused node and the nodes it fuses read the same leaves,
    # and one loss sums both outputs' errors, so every input gradient is
    # the sum of the two paths' contributions.  Each path is checked on
    # its own tape too, where each is the whole gradient.  The
    # unshuffle-attention work is the decoder-loss node's, whose value is
    # already a loss: the decoder input built by five nodes and its
    # attention sublayer, through a layer's MLP, the head and the loss.
    vals = _fused_inputs(kind, dtype)
    is_loss = kind == "unshuffle-attention"

    def run(which):
        t = Tape()
        v = {k: t.leaf(a, name=k, requires_grad=True) for k, a in vals.items()}
        outs = _fused_and_unfused(t, kind, v)
        assert outs[0].kind == ("decoder-loss" if is_loss else
                                "encoder-layer" if kind in _LAYER_KINDS
                                else kind)
        ys = [outs[i] for i in which]
        target = _rand(90, *outs[0].shape).astype(dtype)
        mask = t.leaf(np.ones((2, 5), dtype))
        losses = ys if is_loss else [t.mse_masked(y, t.leaf(target), mask)
                                     for y in ys]
        loss = losses[0] if len(losses) == 1 else t.add(*losses)
        return [y.value.copy() for y in ys], t.backward(loss)

    (fused,), g_fused = run([0])
    (unfused,), g_unfused = run([1])
    both, g_both = run([0, 1])
    assert fused.dtype == unfused.dtype == dtype
    assert np.array_equal(fused, unfused)
    assert all(np.array_equal(b, fused) for b in both)
    assert g_fused.keys() == g_unfused.keys() == set(vals)
    for k in vals:
        assert g_fused[k].dtype == dtype, k
        assert np.array_equal(g_fused[k], g_unfused[k]), k
        assert np.array_equal(g_both[k], g_fused[k] + g_unfused[k]), k


@pytest.mark.parametrize("kind,var", [
    *(("layernorm-linear", v) for v in ("x", "gamma", "beta", "w", "b")),
    *(("layernorm-mlp", v)
      for v in ("x", "gamma", "beta", "w1", "b1", "w2", "b2")),
    *(("layernorm-attention", v) for v in (
        "x", "gamma", "beta", "w_qkv", "b_qv", "w_out", "b_out")),
    *(("unshuffle-attention", v) for v in ("z", "fill") + _ATTENTION),
    *(("encoder-layer", v) for v in ("x",) + _LAYER),
    ("linear", "x")])
def test_grad_fused_nodes(kind, var):
    # "layernorm-attention" and "layernorm-mlp" are the encoder-layer
    # node's parts (`_layer_part`); "encoder-layer" is the whole node.
    vals = _fused_inputs(kind, np.float64, seed=6300)

    def build(t, node):
        v = {k: node if k == var else t.leaf(a) for k, a in vals.items()}
        y = _fused(t, kind, v)
        if y.kind == "decoder-loss":
            return y
        return t.mse_masked(y, t.leaf(_rand(6390, *y.shape)),
                            t.leaf(np.ones((2, 5))))

    _grad_check(build, vals[var], 6300)


def test_layernorm_refuses_a_row_without_a_batch():
    # Rows are batched: a 1-D input is refused, not normed as one row.
    t = Tape()
    with pytest.raises(DimensionError, match="rank >= 2"):
        t.layernorm(t.leaf(_rand(40, 4)), t.leaf(np.ones(4)),
                    t.leaf(np.zeros(4)))


def test_fused_nodes_refuse_mismatched_shapes():
    t = Tape()
    x, w, b = (t.leaf(np.zeros(s)) for s in ((2, 5, 4), (4, 3), (3,)))
    with pytest.raises(DimensionError, match="layernorm affine"):
        t.layernorm_linear(x, t.leaf(np.ones(3)), t.leaf(np.zeros(4)), w, b)
    # The encoder-layer node's MLP part, after a well-shaped attention part.
    attention = [t.leaf(np.zeros(s))
                 for s in ((4,), (4,), (4, 12), (8,), (4, 4), (4,))]
    norm = [t.leaf(np.ones(4)), t.leaf(np.zeros(4))]
    mlp = [t.leaf(np.zeros(s)) for s in ((4, 6), (6,), (6, 4), (4,))]

    def with_mlp(i, shape):
        args = norm + mlp
        args[i] = t.leaf(np.zeros(shape))
        return args

    for i, shape, match in (
            (0, (3,), "layernorm affine"),
            (2, (3, 6), r"encoder-layer extent mismatch: \(2, 5, 4\)"),
            (3, (5,), r"encoder-layer supports \[b,m,k\] x \[k,n\] \+ \[n\]"),
            (4, (5, 4), r"encoder-layer extent mismatch: \(2, 5, 6\)"),
            (5, (3,), r"encoder-layer supports")):
        with pytest.raises(DimensionError, match=match):
            t.encoder_layer(x, *attention, *with_mlp(i, shape), 2)
    # fc2 back to a width other than x's, so x cannot be its residual
    with pytest.raises(DimensionError, match="residual"):
        t.encoder_layer(x, *attention, *norm, *mlp[:2],
                        t.leaf(np.zeros((6, 3))), t.leaf(np.zeros(3)), 2)
    with pytest.raises(DimensionError, match="encoder-layer supports"):
        t.encoder_layer(t.leaf(np.zeros((5, 4))), *attention, *norm, *mlp, 2)
    assert [n.kind for n in t.nodes] == ["leaf"] * len(t.nodes)


def test_attention_and_unshuffle_refuse_mismatched_shapes():
    t = Tape()
    x = t.leaf(np.zeros((2, 5, 4)))
    shapes = [(4,), (4,), (4, 12), (8,), (4, 4), (4,)]
    mlp = [t.leaf(np.zeros(s))
           for s in ((4,), (4,), (4, 6), (6,), (6, 4), (4,))]

    def attention_with(changed):
        # The encoder-layer node's attention part, before a well-shaped MLP.
        args = [t.leaf(np.zeros(changed.get(i, s)))
                for i, s in enumerate(shapes)]
        return t.encoder_layer(x, *args, *mlp, 2)

    for changed, match in (
            ({0: (3,)}, "layernorm affine"),
            ({2: (3, 12)}, r"encoder-layer extent mismatch: "
                           r"\(2, 5, 4\) x \(3, 12\)"),
            # a q|k|v bias, 3 * d wide, as parent-format checkpoints hold
            ({3: (12,)}, r"encoder-layer needs a q\|v bias \[2\*d\] = \[8\]; "
                         r"got \(12,\)"),
            ({4: (6, 4)}, r"encoder-layer extent mismatch: "
                          r"\(2, 5, 4\) x \(6, 4\)"),
            # the out projection to a width other than x's
            ({4: (4, 3), 5: (3,)}, "residual")):
        with pytest.raises(DimensionError, match=match):
            attention_with(changed)
    # The decoder-loss node's input and its first attention sublayer, on
    # the [2, 3, 4] decoder input.
    vals, consts = _decoder_values(2, 2, 3, 4, 1, np.float64, 740,
                                   kept=np.array([[0, 2], [2, 1]]))

    def decoder_with(changed, heads=2):
        v = {k: t.leaf(changed.get(k, a)) for k, a in vals.items()}
        return _decoder_loss(t, v, {**consts, **changed}, heads)

    for changed in ({"z": np.zeros((2, 5, 4))},          # 5 rows for 3
                    {"fill": np.zeros(3)},
                    {"pos": np.zeros((3, 3))},
                    {"z": np.zeros((2, 4))}):
        with pytest.raises(DimensionError, match="decoder-loss needs z"):
            decoder_with(changed)
    for name, shape, match in (
            ("gamma", (3,), "layernorm affine"),
            ("w_qkv", (3, 12), r"decoder-loss extent mismatch: "
                               r"\(2, 3, 4\) x \(3, 12\)"),
            ("b_qv", (12,), r"decoder-loss needs a q\|v bias \[2\*d\] = "
                            r"\[8\]; got \(12,\)"),
            ("w_out", (6, 4), r"decoder-loss extent mismatch: "
                              r"\(2, 3, 4\) x \(6, 4\)")):
        with pytest.raises(DimensionError, match=match):
            decoder_with({f"0.{name}": np.zeros(shape)})
    with pytest.raises(DimensionError, match="divisible by 3 heads"):
        decoder_with({}, heads=3)
    with pytest.raises(ContractError, match="12 parameters per layer"):
        t.decoder_loss(*(t.leaf(vals[k]) for k in ("z", "fill")),
                       t.leaf(consts["pos"]), consts["kept"],
                       [[t.leaf(vals[f"0.{k}"]) for k in _ATTENTION]],
                       *(t.leaf(vals[k]) for k in _HEAD),
                       t.leaf(consts["target"]), 2)
    assert [n.kind for n in t.nodes] == ["leaf"] * len(t.nodes)


def test_linear_rejects_mismatched_bias():
    t = Tape()
    with pytest.raises(DimensionError, match="linear"):
        t.linear(t.leaf(np.zeros((1, 2, 4))), t.leaf(np.zeros((4, 3))),
                 t.leaf(np.zeros(4)))
    # an input that is not a token batch [b, m, k]
    with pytest.raises(DimensionError, match=r"linear supports \[b,m,k\]"):
        t.linear(t.leaf(np.zeros((2, 4))), t.leaf(np.zeros((4, 3))),
                 t.leaf(np.zeros(3)))


def test_every_recorded_node_kind_has_a_backward_rule():
    kinds = set(re.findall(r'Node\("([\w-]+)"', inspect.getsource(Tape)))
    t = Tape()
    x = t.leaf(np.ones((2, 2)))
    # Recorded as leaves, which backward never runs a rule on.
    leaf_kinds = {x.kind, t.boundary(x.value).kind}
    assert t.nodes[0].is_leaf and t.nodes[1].is_leaf
    assert kinds - leaf_kinds == set(_VJP)


def _one_node_per_backward_rule():
    """A node of every kind with a backward rule; every input is a
    non-leaf except the parameters and constants a kernel takes as such."""
    t = Tape()

    def leaf(seed, *shape):
        return t.leaf(_rand(seed, *shape))

    def act(seed, *shape):
        return t.scale(leaf(seed, *shape), 1.0)

    ids = np.array([[4, 0], [1, 3]])
    return [
        t.matmul(act(1, 2, 3, 4), act(2, 4, 5)),
        t.matmul(act(3, 2, 3, 4), act(4, 2, 4, 5)),
        t.linear(act(5, 2, 3, 4), leaf(6, 4, 5), leaf(7, 5)),
        t.linear(act(26, 2, 3, 4), leaf(27, 4, 5), leaf(28, 5),
                 leaf(29, 5, 5), np.array([[4, 0, 2], [1, 3, 0]])),
        t.layernorm_linear(act(30, 2, 3, 4), leaf(31, 4), leaf(32, 4),
                           leaf(33, 4, 5), leaf(34, 5)),
        t.encoder_layer(act(35, 2, 3, 4), leaf(42, 4), leaf(43, 4),
                        leaf(44, 4, 12), leaf(45, 8), leaf(46, 4, 4),
                        leaf(47, 4), leaf(36, 4), leaf(37, 4), leaf(38, 4, 6),
                        leaf(39, 6), leaf(40, 6, 4), leaf(41, 4), 2),
        t.add(act(8, 2, 3, 4), act(9, 4)),
        t.scale(act(10, 3, 4), 0.5),
        t.transpose(act(11, 2, 3, 4)),
        t.gather_rows(act(14, 2, 5, 4), ids),
        t.concat_rows([act(16, 2, 2, 4), act(17, 2, 3, 4)]),
        t.layernorm(act(18, 2, 3, 4), leaf(19, 4), leaf(20, 4)),
        t.softmax(act(21, 2, 3, 4)),
        t.gelu(act(23, 2, 3, 4)),
        t.mse_masked(act(24, 2, 3, 4), leaf(25, 2, 3, 4),
                     t.leaf(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))),
        t.decoder_loss(act(48, 2, 3, 4), leaf(49, 4), leaf(50, 5, 4), _KEPT,
                       [[leaf(51 + i, *s) for i, s in enumerate((
                           (4,), (4,), (4, 12), (8,), (4, 4), (4,), (4,),
                           (4,), (4, 6), (6,), (6, 4), (4,)))]],
                       leaf(64, 4), leaf(65, 4), leaf(66, 4, 5), leaf(67, 5),
                       leaf(68, 2, 5, 5), 2),
    ]


def test_backward_rules_read_no_values():
    # Backward drops the values it walks, so a rule may read only `saved`,
    # `attrs` and the incoming gradient.  A rule may write over its saved
    # buffers and its incoming gradient, so each runs on its own copy of
    # the nodes and of g.
    nodes = _one_node_per_backward_rule()
    assert {n.kind for n in nodes} == set(_VJP)
    for i, (node, bare) in enumerate(zip(nodes,
                                         _one_node_per_backward_rule())):
        g = _rand(100 + i, *node.shape)
        want = _VJP[node.kind](node, g.copy())
        for n in (bare, *bare.inputs):
            n.value = None
        got = _VJP[node.kind](bare, g.copy())
        assert len(got) == len(want), node.kind
        for a, b in zip(got, want):
            assert (a is None and b is None) or np.array_equal(a, b), node.kind


def test_a_saved_activation_is_read_only_and_a_saved_leaf_is_not():
    # A rule never writes into a saved input, since another node may hold
    # the same array: the tape makes each activation read-only as a node
    # saves it.  Leaves stay writeable, so the optimizer can update the
    # parameters in place, and so does an activation no node saves.
    t = Tape()

    def leaf(seed, *shape):
        return t.leaf(_rand(seed, *shape), requires_grad=True)

    def act(seed, *shape):
        return t.scale(t.leaf(_rand(seed, *shape)), 1.0)

    nodes = [
        t.linear(act(1, 2, 3, 4), leaf(2, 4, 5), leaf(3, 5)),
        t.layernorm_linear(act(4, 2, 3, 4), leaf(5, 4), leaf(6, 4),
                           leaf(7, 4, 5), leaf(8, 5)),
        t.encoder_layer(act(9, 2, 3, 4), leaf(10, 4), leaf(11, 4),
                        leaf(12, 4, 12), leaf(13, 8), leaf(14, 4, 4),
                        leaf(15, 4), leaf(17, 4), leaf(18, 4), leaf(19, 4, 6),
                        leaf(20, 6), leaf(21, 6, 4), leaf(22, 4), 2),
        t.mse_masked(act(23, 2, 3, 4), t.leaf(_rand(24, 2, 3, 4)),
                     t.leaf(np.ones((2, 3)))),
    ]
    for node in nodes:
        x, *rest = node.inputs
        assert not x.is_leaf and all(p.is_leaf for p in rest), node.kind
        with pytest.raises(ValueError, match="read-only"):
            x.value[...] = 0.0
        assert all(p.value.flags.writeable for p in rest), node.kind
        assert node.value.flags.writeable, node.kind


def test_scatter_gather_roundtrip():
    x = _rand(13, 2, 6, 4)
    perm = np.stack([rng.permutation(17 + i, 6) for i in range(2)])
    t = Tape()
    xn = t.leaf(x)
    shuffled = t.gather_rows(xn, perm)
    back = np.zeros_like(x)
    back[np.arange(2)[:, None], perm] = shuffled.value
    np.testing.assert_array_equal(back, x)


@pytest.mark.parametrize("b", [1, 3])
def test_per_sample_gather_and_scatter_match_along_axis_reference(b):
    x = _rand(61, b, 6, 4)
    g = _rand(62, b, 4, 4)
    ids = np.stack([rng.permutation(63 + i, 6)[:4] for i in range(b)])
    picked = np.take_along_axis(x, ids[:, :, None], axis=1)
    placed = np.zeros_like(x)
    np.put_along_axis(placed, ids[:, :, None], g, axis=1)
    t = Tape()
    gathered = t.gather_rows(t.leaf(x), ids)
    assert np.array_equal(gathered.value, picked)
    assert np.array_equal(_VJP["gather-rows"](gathered, g)[0], placed)


@pytest.mark.parametrize("x_shape,ids", [
    ((1, 5, 4), np.array([[1, 3, 1]])),
    ((2, 5, 4), np.array([[0, 0], [1, 2]])),
    ((2, 5, 4), np.array([[0, 2, 4], [3, 1, 3]])),
])
def test_gather_rows_rejects_duplicate_ids(x_shape, ids):
    t = Tape()
    x = t.leaf(np.zeros(x_shape))
    with pytest.raises(ContractError, match="unique per sample"):
        t.gather_rows(x, ids)


def test_concat_rows():
    t = Tape()
    a = t.leaf(_rand(19, 2, 3, 4))
    b = t.leaf(_rand(23, 2, 5, 4))
    cat = t.concat_rows([a, b])
    assert cat.shape == (2, 8, 4)
    np.testing.assert_array_equal(
        cat.value, np.concatenate([a.value, b.value], axis=-2))


def test_mse_masked_requires_masked_rows():
    t = Tape()
    p = t.leaf(_rand(29, 2, 4, 3))
    with pytest.raises(ContractError):
        t.mse_masked(p, t.leaf(p.value.copy()), t.leaf(np.zeros((2, 4))))


def test_mse_masked_constant_offset():
    # pred = target + c on all rows, all masked -> loss == c^2
    t = Tape()
    tgt = _rand(31, 2, 5, 4)
    c = 0.7
    loss = t.mse_masked(t.leaf(tgt + c), t.leaf(tgt), t.leaf(np.ones((2, 5))))
    assert abs(float(loss.value) - c * c) < 1e-12


def test_mse_masked_matches_double_loop():
    pred = _rand(37, 3, 6, 5)
    tgt = _rand(41, 3, 6, 5)
    mask = (rng.uniforms(43, 18).reshape(3, 6) < 0.5).astype(np.float64)
    mask[0, 0] = 1.0  # ensure nonempty
    t = Tape()
    loss = t.mse_masked(t.leaf(pred), t.leaf(tgt), t.leaf(mask))
    acc, cnt = 0.0, 0
    for b in range(3):
        for n in range(6):
            if mask[b, n]:
                acc += np.mean((pred[b, n] - tgt[b, n]) ** 2)
                cnt += 1
    assert abs(float(loss.value) - acc / cnt) < 1e-12


# ----- the decoder's loss node ----------------------------------------------

# A decoder layer's parameters are _LAYER, in the order `Tape.decoder_loss`
# takes them as `Tape.encoder_layer` does.
_HEAD = ("head_gamma", "head_beta", "w", "b")


def _decoder_values(b, k, n, d, depth, dtype, seed, hidden=None, pixels=3,
                    kept=None):
    """The inputs of `Tape.decoder_loss` that take a gradient, by name: z
    [b, k, d], fill, layer j's parameters as f"{j}.{name}" for the names
    of _LAYER, and the head's; and its constants: pos [n, d], each
    sample's k visible row ids (`kept`, or drawn from the seed) and the
    target."""
    hidden = hidden or 2 * d
    shapes = {"z": (b, k, d), "fill": (d,)}
    for j in range(depth):
        shapes.update((f"{j}.{name}", shape) for name, shape in zip(_LAYER, (
            (d,), (d,), (d, 3 * d), (2 * d,), (d, d), (d,), (d,), (d,),
            (d, hidden), (hidden,), (hidden, d), (d,))))
    shapes.update(head_gamma=(d,), head_beta=(d,), w=(d, pixels),
                  b=(pixels,))
    vals = {name: (_rand(seed + i, *shape) * 0.5).astype(dtype)
            for i, (name, shape) in enumerate(shapes.items())}
    if kept is None:
        kept = np.stack([rng.permutation(seed + 100 + i, n)[:k]
                         for i in range(b)])
    consts = {"pos": _rand(seed + 200, n, d).astype(dtype), "kept": kept,
              "target": _rand(seed + 201, b, n, pixels).astype(dtype)}
    return vals, consts


def _depth(v):
    return sum(1 for name in v if name.endswith(".gamma"))


def _decoder_loss(t, v, c, heads):
    """`Tape.decoder_loss` over the nodes v and the constants c."""
    layers = [[v[f"{j}.{name}"] for name in _LAYER] for j in range(_depth(v))]
    return t.decoder_loss(v["z"], v["fill"], t.leaf(c["pos"]), c["kept"],
                          layers, *(v[name] for name in _HEAD),
                          t.leaf(c["target"]), heads)


def _decoder_chain(t, v, c, heads, fill_rows_grad=False):
    """The nodes `Tape.decoder_loss` fuses: the decoder input built by
    five nodes, each layer's node, the head's layernorm-linear and the
    masked MSE over the rows `kept` leaves out.
    With `fill_rows_grad` the fill rows' gradient is the leaf
    "fill_rows"'s."""
    x = None
    for j in range(_depth(v)):
        layer = [v[f"{j}.{name}"] for name in _LAYER]
        x = (_unshuffle_then_layer(t, v["z"], v["fill"], t.leaf(c["pos"]),
                                   c["kept"], layer, heads, fill_rows_grad)
             if x is None else t.encoder_layer(x, *layer, heads))
    pred = t.layernorm_linear(x, *(v[name] for name in _HEAD))
    mask = np.ones(pred.shape[:2], pred.dtype)
    mask[np.arange(len(mask))[:, None], c["kept"]] = 0.0
    return t.mse_masked(pred, t.leaf(c["target"]), t.leaf(mask))


def _decoder_run(vals, consts, heads, fused=True, upstream=None):
    """The loss and every gradient of the node, or of the chain and its
    fill rows ("fill_rows"), with z a non-leaf as in a step; with
    `upstream`, backward runs from scale(loss, upstream)."""
    t = Tape()
    v = {k: t.leaf(a, name=k, requires_grad=True) for k, a in vals.items()}
    v["z"] = t.scale(v["z"], 1.0)
    loss = (_decoder_loss(t, v, consts, heads) if fused
            else _decoder_chain(t, v, consts, heads, fill_rows_grad=True))
    assert loss.kind == ("decoder-loss" if fused else "mse-masked")
    value = loss.value.copy()
    if upstream is not None:
        loss = t.scale(loss, upstream)
    return value, t.backward(loss)


def _assert_decoder_matches_chain(vals, consts, heads):
    # The loss and every gradient but the mask token's are the chain's bit
    # for bit.  The node sums the mask token's in its own groups of the
    # decoder input [b, n, d]: each group's fill rows, the groups in the
    # rules' order.  The chain sums every fill row in add's order.
    loss, grads = _decoder_run(vals, consts, heads)
    want, want_grads = _decoder_run(vals, consts, heads, fused=False)
    fill_rows = want_grads.pop("fill_rows")
    dtype = vals["z"].dtype
    assert loss.dtype == want.dtype == dtype and loss.shape == ()
    assert np.array_equal(loss, want)
    assert grads.keys() == want_grads.keys() == set(vals)
    for k in vals:
        assert grads[k].dtype == dtype, k
        if k != "fill":
            assert np.array_equal(grads[k], want_grads[k]), k
    b, n = consts["target"].shape[:2]
    d = fill_rows.shape[-1]
    assert np.array_equal(grads["fill"], _in_group_order(
        lambda s: fill_rows[s].reshape(-1, d).sum(axis=0), b, n))
    _assert_within(grads["fill"], want_grads["fill"])


def _assert_within(got, want):
    """got within 1e-5 (f32) or 1e-12 (f64) of want, relative to want's
    largest entry."""
    tol = 1e-5 if want.dtype == np.float32 else 1e-12
    assert np.abs(got - want).max() <= tol * np.abs(want).max(), (got, want)


# The inputs of the last layer's MLP and of the head, by the names of
# the loss node these tests once checked; "x" is the decoder's input z.
_MLP_HEAD = ("x", "gamma", "beta", "w1", "b1", "w2", "b2", "head_gamma",
             "head_beta", "w", "b")


def _mlp_head_inputs(dtype, seed=700, depth=1):
    """`_decoder_values` on 5 samples of 3 rows, 1 of them visible, width
    4, hidden 6, 3 pixels, and 2 heads."""
    return _decoder_values(5, 1, 3, 4, depth, dtype, seed, hidden=6)


def _mlp_head_name(var, depth=1):
    """The `_decoder_values` name of a `_MLP_HEAD` input."""
    last = f"{depth - 1}."
    return {"x": "z", "gamma": last + "gamma2",
            "beta": last + "beta2"}.get(var, var if var in _HEAD
                                         else last + var)


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mlp_head_mse_bitwise_equal_three_node_composition(monkeypatch,
                                                           dtype, parts):
    # Groups of 2 of the 5 samples (2, 2, 1), every kernel split over
    # `parts` threads however small, one and two layers: the loss and
    # every gradient of the decoder-loss node are those of the nodes it
    # fuses, its tail the last MLP, head and masked MSE, bit for bit.
    monkeypatch.setattr(tape, "_GROUP_ROWS", 6)
    assert [(c.start, c.stop) for c in tape._groups((5, 3, 4))] == [
        (0, 2), (2, 4), (4, 5)]
    pool = _force_parts(monkeypatch, parts)
    for depth in (1, 2):
        _assert_decoder_matches_chain(*_mlp_head_inputs(dtype, depth=depth),
                                      2)
    assert (pool.submitted > 0) == (parts > 1)


def test_mlp_head_mse_bitwise_equal_composition_at_desk_shape():
    # The desk decoder's shape: 64 samples of 64 rows, 16 of them visible,
    # width 32, one head, 16 pixels, in groups of 6 samples.
    _assert_decoder_matches_chain(
        *_decoder_values(64, 16, 64, 32, 1, np.float32, 720, hidden=128,
                         pixels=16), 1)


@pytest.mark.parametrize("var", _MLP_HEAD)
def test_grad_mlp_head_mse(var):
    vals, consts = _mlp_head_inputs(np.float64, seed=6400)
    name = _mlp_head_name(var)

    def build(t, node):
        v = {k: node if k == name else t.leaf(a) for k, a in vals.items()}
        return _decoder_loss(t, v, consts, 2)

    _grad_check(build, vals[name], 6400)


@pytest.mark.parametrize("var", _LAYER + ("z", "fill"))
def test_grad_decoder_loss_second_layer(var):
    # Two layers: the second layer's parameters, and the decoder input and
    # the mask token through both.
    vals, consts = _mlp_head_inputs(np.float64, seed=6500, depth=2)
    name = var if var in ("z", "fill") else f"1.{var}"

    def build(t, node):
        v = {k: node if k == name else t.leaf(a) for k, a in vals.items()}
        return _decoder_loss(t, v, consts, 2)

    _grad_check(build, vals[name], 6500)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_decoder_loss_scales_its_gradients_by_the_upstream_gradient(dtype):
    # Backward from 3 * loss: every gradient is the saved one times 3, in
    # the tape's dtype; the node's value is the loss at any upstream.
    vals, consts = _mlp_head_inputs(dtype, depth=2)
    loss, grads = _decoder_run(vals, consts, 2)
    loss3, grads3 = _decoder_run(vals, consts, 2, upstream=3.0)
    assert np.array_equal(loss3, loss)
    assert grads3.keys() == grads.keys() == set(vals)
    for k, g in grads.items():
        assert grads3[k].dtype == dtype, k
        assert np.array_equal(grads3[k], g * dtype(3.0)), k


def _assert_mlp_head_refuses(change, error, match):
    """`Tape.decoder_loss` on _mlp_head_inputs with the arrays in `change`
    (name -> array; the constants too) put in raises `error` before it
    records anything."""
    vals, consts = _mlp_head_inputs(np.float64)
    for k, a in change.items():
        (consts if k in consts else vals)[_mlp_head_name(k)
                                          if k not in consts else k] = a
    t = Tape()
    v = {k: t.leaf(a) for k, a in vals.items()}
    with pytest.raises(error, match=match):
        _decoder_loss(t, v, consts, 2)
    assert [n.kind for n in t.nodes] == ["leaf"] * len(t.nodes)


def test_mlp_head_mse_refuses_a_target_not_of_the_prediction_shape():
    _assert_mlp_head_refuses({"target": np.zeros((5, 3, 4))}, DimensionError,
                             r"decoder-loss pred \(5, 3, 3\) vs target")


def test_mlp_head_mse_refuses_a_mask_with_no_masked_row():
    # The node builds its mask from kept: ids for all 3 rows (k = n) leave
    # it no row to score.
    _assert_mlp_head_refuses({"x": np.zeros((5, 3, 4)),
                              "kept": np.tile([2, 0, 1], (5, 1))},
                             ContractError, "decoder-loss: no masked rows")


@pytest.mark.parametrize("shapes,match", [
    ({"gamma": (3,)}, "layernorm affine"),
    ({"w1": (3, 6)}, r"decoder-loss extent mismatch: \(5, 3, 4\) x \(3, 6\)"),
    ({"b2": (3,)}, r"decoder-loss supports \[b,m,k\]"),
    # fc2 back to a width other than x's, so x cannot be its residual
    ({"w2": (6, 3), "b2": (3,)}, "residual"),
    ({"head_beta": (3,)}, "layernorm affine"),
    ({"w": (3, 3)}, r"decoder-loss extent mismatch: \(5, 3, 4\) x \(3, 3\)"),
    ({"b": (4,)}, r"decoder-loss supports \[b,m,k\]")])
def test_mlp_head_mse_refuses_parameters_of_the_wrong_shape(shapes, match):
    # The last MLP's and the head's shape checks, on the decoder input
    # [5, 3, 4].
    _assert_mlp_head_refuses({k: np.zeros(s) for k, s in shapes.items()},
                             DimensionError, match)


@pytest.mark.parametrize("kept,error,match", [
    # a repeated id: two of z's rows for one row
    ([[0, 2], [1, 1]], ContractError,
     "decoder-loss ids must be unique per sample"),
    # an id past the last of the 3 rows
    ([[0, 3], [2, 1]], DimensionError,
     r"decoder-loss ids out of range \[0, 3\)"),
    # ids for 1 or 3 of z's 2 rows, or for 1 of its 2 samples
    ([[0], [2]], DimensionError,
     r"decoder-loss needs ids \[b, k\] = \[2, 2\]; got \(2, 1\)"),
    ([[0, 1, 2], [2, 1, 0]], DimensionError,
     r"decoder-loss needs ids \[b, k\] = \[2, 2\]; got \(2, 3\)"),
    ([[0, 2]], DimensionError,
     r"decoder-loss needs ids \[b, k\] = \[2, 2\]; got \(1, 2\)")])
def test_decoder_loss_refuses_kept_ids_it_cannot_place(kept, error, match):
    vals, consts = _decoder_values(2, 2, 3, 4, 1, np.float64, 730)
    consts["kept"] = np.array(kept)
    t = Tape()
    v = {k: t.leaf(a) for k, a in vals.items()}
    with pytest.raises(error, match=match):
        _decoder_loss(t, v, consts, 2)
    assert [n.kind for n in t.nodes] == ["leaf"] * len(t.nodes)


# ----- finite-difference oracle on every primitive -------------------------

def test_finite_diff_square():
    g = finite_diff(lambda x: float((x ** 2).sum()), np.array([3.0]), eps=1e-4)
    assert abs(g[0] - 6.0) < 1e-6


def test_finite_diff_softmax_sum_is_zero():
    t_probe = np.array([0.3, -1.2, 2.0])

    def f(x):
        e = np.exp(x - x.max())
        return float((e / e.sum()).sum())

    g = finite_diff(f, t_probe, eps=1e-5)
    assert np.abs(g).max() < 1e-8


def test_finite_diff_rejects_nonfinite():
    # log of the negative probe point is NaN by design; numpy's warning
    # about it would otherwise fail the suite.
    with pytest.raises(NumericError), np.errstate(invalid="ignore"):
        finite_diff(lambda x: float(np.log(x).sum()), np.array([1e-9]), eps=1e-6)


@pytest.mark.parametrize("seed", range(20))
def test_grad_matmul_chain(seed):
    w = _rand(1000 + seed, 4, 3)

    def build(t, x):
        y = t.matmul(x, t.leaf(w))
        s = t.softmax(y)
        return t.mse_masked(s, t.leaf(np.zeros((5, 3))), t.leaf(np.ones(5)))

    _grad_check(build, _rand(seed, 5, 4), seed)


@pytest.mark.parametrize("seed", range(20))
def test_grad_mixed_primitives(seed):
    # touches add, scale, transpose, gelu, layernorm, gather, concat, mse
    d = 6
    w = _rand(2000 + seed, d, d)
    ids = np.stack([rng.permutation(seed + i, 8)[:5] for i in range(2)])

    def build(t, x):
        h = t.layernorm(x, t.leaf(np.ones(d)), t.leaf(np.zeros(d)))
        h = t.add(t.matmul(h, t.leaf(w)), t.leaf(_rand(3000 + seed, d)))
        h = t.gelu(t.scale(h, 0.7))
        g = t.gather_rows(h, ids)
        cat = t.concat_rows([g, t.transpose(t.transpose(g))])
        return t.mse_masked(cat, t.leaf(np.zeros((2, 10, d))),
                            t.leaf(np.ones((2, 10))))

    _grad_check(build, _rand(seed + 77, 2, 8, d), seed)


@pytest.mark.parametrize("seed", range(6))
def test_grad_batched_matmul_and_scatter(seed):
    b, n, k = 2, 4, 3
    w = _rand(4000 + seed, k, k)
    perm = np.stack([rng.permutation(seed + i, n) for i in range(b)])
    # Gathering by the inverse permutation places row j at row perm[j]: a
    # scatter.
    inverse = np.argsort(perm, axis=-1)

    def build(t, x):
        y = t.matmul(x, t.leaf(w))
        y = t.gather_rows(y, inverse)
        z = t.matmul(y, t.transpose(y))
        return t.mse_masked(z, t.leaf(np.zeros((b, n, n))), t.leaf(np.ones((b, n))))

    _grad_check(build, _rand(seed + 99, b, n, k), seed)


@pytest.mark.parametrize("seed", range(6))
def test_grad_batched_matmul_weight(seed):
    # [b,m,k]x[k,n] with the weight as the variable: checks the weight
    # gradient, which sums over batch and rows
    b, m, k, n = 3, 4, 5, 2
    a = _rand(5000 + seed, b, m, k)

    def build(t, w):
        y = t.gelu(t.matmul(t.scale(t.leaf(a), 1.5), w))
        return t.mse_masked(y, t.leaf(np.zeros((b, m, n))), t.leaf(np.ones((b, m))))

    _grad_check(build, _rand(seed + 55, k, n), seed)


@pytest.mark.parametrize("var", ["x", "w", "b"])
@pytest.mark.parametrize("x_shape", [(1, 5, 4), (2, 1, 4), (2, 5, 4)])
def test_grad_linear(x_shape, var):
    vals = {"x": _rand(6001, *x_shape), "w": _rand(6002, 4, 3),
            "b": _rand(6003, 3)}
    rows = x_shape[:-1]

    def build(t, v):
        args = {k: v if k == var else t.leaf(a) for k, a in vals.items()}
        y = t.gelu(t.linear(args["x"], args["w"], args["b"]))
        return t.mse_masked(y, t.leaf(np.zeros(rows + (3,))), t.leaf(np.ones(rows)))

    _grad_check(build, vals[var], 6000)


@pytest.mark.parametrize("heads,n", [(1, 1), (1, 5), (2, 1), (2, 5)])
def test_grad_attention(heads, n):
    # x reaches the whole layer's output through LN1 and LN2 and through
    # both residuals.
    b, d = 2, 4 * heads
    seed = 6200 + 10 * heads + n
    vals = _layer_inputs(b, n, d, np.float64, seed)
    target = _rand(6100 + n, b, n, d)

    def build(t, x):
        out = t.encoder_layer(
            x, *(t.leaf(vals[k]) for k in _LAYER), heads)
        return t.mse_masked(out, t.leaf(target), t.leaf(np.ones((b, n))))

    _grad_check(build, vals["x"] * 4.0, seed)


def test_grad_f32_tolerance():
    # f32 run of the mixed chain stays within the looser 1e-2 band
    d = 6
    w32 = _rand(123, d, d).astype(np.float32)
    x64 = _rand(124, 5, d)

    def build32(t, x):
        h = t.layernorm(x, t.leaf(np.ones(d, np.float32)),
                        t.leaf(np.zeros(d, np.float32)))
        h = t.gelu(t.matmul(h, t.leaf(w32)))
        return t.mse_masked(h, t.leaf(np.zeros((5, d), np.float32)),
                            t.leaf(np.ones(5, np.float32)))

    t = Tape()
    xn = t.leaf(x64.astype(np.float32), name="x", requires_grad=True)
    got = t.backward(build32(t, xn))["x"].astype(np.float64)

    def scalar_fn(x):
        t2 = Tape()
        xn2 = t2.leaf(x.astype(np.float32), name="x", requires_grad=True)
        return float(build32(t2, xn2).value)

    want = finite_diff(scalar_fn, x64, eps=1e-3)
    scale = max(np.abs(want).max(), 1.0)
    assert np.abs(got - want).max() / scale < 1e-2


# ----- scalar-loss contract -------------------------------------------------

def test_backward_requires_scalar():
    t = Tape()
    x = t.leaf(_rand(7, 3, 3), requires_grad=True, name="x")
    y = t.softmax(x)
    with pytest.raises(ContractError, match="scalar"):
        t.backward(y)


# ----- block-boundary isolation ---------------------------------------------

def _two_block_chain(t, x_val, w1_val, w2_val, boundary=False):
    """Block 1 reads block 0's output h, or a boundary leaf of it."""
    with t.block(0):
        w1 = t.leaf(w1_val, name="w1", requires_grad=True)
        x = t.leaf(x_val)
        h = t.matmul(x, w1)
        if boundary:
            h = t.boundary(h.value)
    with t.block(1):
        w2 = t.leaf(w2_val, name="w2", requires_grad=True)
        y = t.matmul(h, w2)
        loss = t.mse_masked(y, t.leaf(np.zeros_like(y.value)),
                            t.leaf(np.ones(y.value.shape[:-1])))
    return loss


def test_boundary_isolation_drops_earlier_blocks():
    # Block tags do not stop gradients: block 1 reading block 0's live node
    # gets block 0's parameter too, which a training step rejects.  Through
    # the boundary leaf it gets its own parameter only.
    x, w1, w2 = _rand(1, 4, 3), _rand(2, 3, 3), _rand(3, 3, 2)
    t = Tape()
    assert set(t.backward(_two_block_chain(t, x, w1, w2))) == {"w1", "w2"}
    t = Tape()
    loss = _two_block_chain(t, x, w1, w2, boundary=True)
    assert set(t.backward(loss)) == {"w2"}


def test_boundary_none_matches_chain_rule():
    x, w1, w2 = _rand(1, 4, 3), _rand(2, 3, 3), _rand(3, 3, 2)
    t = Tape()
    table = t.backward(_two_block_chain(t, x, w1, w2))
    assert set(table) == {"w1", "w2"}

    def f_w1(w):
        t2 = Tape()
        return float(_two_block_chain(t2, x, w, w2).value)

    want = finite_diff(f_w1, w1, eps=1e-6)
    assert np.abs(table["w1"] - want).max() < 1e-7


def test_boundary_restriction_bitwise_equal_without_sharing():
    # w2's gradient through the boundary leaf equals the full chain's
    x, w1, w2 = _rand(11, 4, 3), _rand(12, 3, 3), _rand(13, 3, 2)
    t1 = Tape()
    full = t1.backward(_two_block_chain(t1, x, w1, w2))
    t2 = Tape()
    part = t2.backward(_two_block_chain(t2, x, w1, w2, boundary=True))
    assert part.keys() == {"w2"}
    assert np.array_equal(full["w2"], part["w2"])


def test_unused_parameter_reachable_zero_vs_absent():
    t = Tape()
    x = t.leaf(_rand(21, 3, 2))
    w = t.leaf(_rand(22, 2, 2), name="w", requires_grad=True)
    dead = t.leaf(_rand(23, 2, 2), name="dead", requires_grad=True)
    y = t.matmul(x, w)
    # `zeroed` reaches the loss but through a zero mask row contribution
    zeroed = t.leaf(_rand(24, 2, 2), name="zeroed", requires_grad=True)
    z = t.add(y, t.scale(t.matmul(x, zeroed), 0.0))
    loss = t.mse_masked(z, t.leaf(np.zeros_like(z.value)), t.leaf(np.ones(3)))
    table = t.backward(loss)
    assert "dead" not in table
    assert "zeroed" in table and np.all(table["zeroed"] == 0.0)


# ----- release lifecycle and the memory meter -------------------------------

def _block0(t):
    """Block 0 of a small two-block step: its output h0 and its loss."""
    with t.block(0):
        x = t.leaf(_rand(31, 4, 4))
        w0 = t.leaf(_rand(32, 4, 4), name="b0.w", requires_grad=True)
        h0 = t.gelu(t.matmul(x, w0))
        loss0 = t.mse_masked(h0, t.leaf(np.zeros((4, 4))), t.leaf(np.ones(4)))
    return h0, loss0


def _block1(t, xb):
    """Block 1 of the step, continuing from the boundary leaf xb: its loss."""
    with t.block(1):
        w1 = t.leaf(_rand(33, 4, 4), name="b1.w", requires_grad=True)
        h1 = t.gelu(t.matmul(xb, w1))
        return t.mse_masked(h1, t.leaf(np.zeros((4, 4))), t.leaf(np.ones(4)))


def _tagged_step(t):
    """Block 0 run and released, then block 1's boundary leaf and forward,
    in a training step's order; returns the boundary and block 1's loss."""
    h0, loss0 = _block0(t)
    out = h0.value   # backward drops h0's value
    t.backward(loss0)
    t.release_block_activations(0)
    with t.block(1):    # the boundary belongs to the block that reads it
        xb = t.boundary(out)
    return xb, _block1(t, xb)


def test_meter_starts_empty():
    t = Tape()
    assert t.meter.live_activation_bytes == 0
    assert t.meter.peak_activation_bytes == 0


def test_release_frees_exact_bytes_and_keeps_boundary():
    t = Tape()
    h0, loss0 = _block0(t)
    out = h0.value
    live_full = t.meter.live_activation_bytes
    block0_bytes = sum(n.bytes for n in t.nodes if n.block == 0)
    t.backward(loss0)
    # The release frees exactly the bytes block 0's nodes were charged
    # when recorded, the loss's charge of h0 among them.
    assert t.release_block_activations(0) == block0_bytes == live_full
    assert t.meter.live_activation_bytes == 0
    # The boundary recorded from then on charges the array once, and is
    # block 1's: block 0's release is behind it.
    with t.block(1):
        xb = t.boundary(out)
    loss1 = _block1(t, xb)
    assert xb.bytes == out.nbytes > 0 and not xb.disposed
    t.backward(loss1)
    assert t.release_block_activations(1) == sum(
        n.bytes for n in t.nodes if n.block == 1)
    assert xb.disposed and t.meter.live_activation_bytes == 0


def test_boundary_shares_its_producers_array_read_only_until_released():
    # The leaf shares the array its producer computed, makes it read-only,
    # and keeps it alive until the block that reads it is released.
    t = Tape()
    h0, loss0 = _block0(t)
    array = h0.value
    t.backward(loss0)
    t.release_block_activations(0)
    with t.block(1):
        xb = t.boundary(array)
    assert np.shares_memory(xb.value, array)
    assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        array += 1.0
    loss1 = _block1(t, xb)
    alive = weakref.ref(array)
    del array, h0
    t.backward(loss1)
    assert alive() is not None   # until block 1, which reads it, is released
    t.release_block_activations(1)
    assert alive() is None and t.meter.live_activation_bytes == 0


def test_boundary_of_an_array_no_node_of_its_block_saves_is_charged_at_once():
    # One rule, whatever held the array before: a node's output that no
    # node saves and a constant alike are charged from the moment the
    # leaf is recorded.
    t = Tape()
    with t.block(0):
        h = t.scale(t.leaf(_rand(5, 2, 3)), 2.0)
    const = _rand(6, 2, 3)
    with t.block(1):
        hb, cb = t.boundary(h.value), t.boundary(const)
    assert cb.value is const
    assert hb.bytes == cb.bytes == h.value.nbytes
    assert t.meter.live_activation_bytes == 2 * h.value.nbytes
    assert not (h.value.flags.writeable or const.flags.writeable)


def test_release_before_backward_is_lifecycle_error():
    t = Tape()
    _block0(t)
    with pytest.raises(LifecycleError, match="before its backward"):
        t.release_block_activations(0)


def test_double_release_is_lifecycle_error_and_live_unchanged():
    t = Tape()
    _tagged_step(t)   # block 0 is released
    live = t.meter.live_activation_bytes
    with pytest.raises(LifecycleError, match="already released"):
        t.release_block_activations(0)
    assert t.meter.live_activation_bytes == live


def test_backward_after_release_is_lifecycle_error():
    t = Tape()
    _, loss1 = _tagged_step(t)
    t.backward(loss1)
    t.release_block_activations(1)
    with pytest.raises(LifecycleError, match="released"):
        t.backward(loss1)


def test_backward_into_released_node_is_lifecycle_error():
    # Block 1 reads block 0's output itself, not a boundary leaf of it.
    t = Tape()
    with t.block(0):
        w0 = t.leaf(_rand(41, 4, 4), name="w0", requires_grad=True)
        h0 = t.gelu(t.matmul(t.leaf(_rand(42, 3, 4)), w0))
        loss0 = t.mse_masked(h0, t.leaf(np.zeros((3, 4))), t.leaf(np.ones(3)))
    with t.block(1):
        w1 = t.leaf(_rand(43, 4, 4), name="w1", requires_grad=True)
        h1 = t.matmul(h0, w1)
        loss1 = t.mse_masked(h1, t.leaf(np.zeros((3, 4))), t.leaf(np.ones(3)))
    t.backward(loss0)
    t.release_block_activations(0)
    with pytest.raises(LifecycleError,
                       match="released node <Node gelu block=0 released>"):
        t.backward(loss1)


def test_backward_drops_walked_values_and_keeps_the_loss():
    # Block 1 runs its backward while block 0 is not, so block 0 keeps
    # its values; its boundary is recorded before block 0's release, which
    # charges the array twice meanwhile.  The test reads no absolute bytes.
    t = Tape()
    h0, _ = _block0(t)
    with t.block(1):
        xb = t.boundary(h0.value)
    loss1 = _block1(t, xb)
    copy = xb.value
    live = t.meter.live_activation_bytes
    first = t.backward(loss1)
    assert first.keys() == {"b1.w"}
    # Block 1, the boundary leaf it reads included, is walked.  Only the
    # loss and the parameter keep their values; constant leaves and the
    # boundary lose theirs, and the boundary's array stays in its saved
    # list until block 1 is released.
    walked = [n for n in t.nodes if n.block == 1]
    assert xb in walked
    assert loss1 in walked and loss1.value is not None
    assert [n.name for n in walked if n.value is not None] == ["b1.w", None]
    assert sum(n.is_leaf and not n.requires_grad for n in walked) == 3
    assert xb.value is None and xb.saved[0] is copy
    # Block 0, which block 1 reads through the boundary leaf only, keeps
    # its values.
    assert all(n.value is not None for n in t.nodes
               if n.block == 0 and n is not xb)
    # Every walked rule has run and dropped its saved buffers, which the
    # meter charges until release.
    assert all(n.saved is None for n in walked if not n.is_leaf)
    assert t.meter.live_activation_bytes == live
    # So a second pass is refused, naming the node it cannot run.
    with pytest.raises(LifecycleError, match=r"reached <Node mse-masked "
                       r"block=1>, whose saved buffers an earlier backward"):
        t.backward(loss1)
    assert t.meter.live_activation_bytes == live


def test_full_release_drains_live_to_zero():
    t = Tape()
    _, loss1 = _tagged_step(t)
    t.backward(loss1)
    t.release_block_activations(1)
    assert t.meter.live_activation_bytes == 0
    assert t.meter.peak_activation_bytes > 0


def test_dispose_frees_one_node_once():
    t = Tape()
    xb, _ = _tagged_step(t)
    live = t.meter.live_activation_bytes
    assert t.dispose(xb) == xb.bytes > 0
    assert xb.disposed and xb.value is None and xb.saved is None
    assert t.meter.live_activation_bytes == live - xb.bytes
    with pytest.raises(LifecycleError, match="already disposed"):
        t.dispose(xb)
    assert t.meter.live_activation_bytes == live - xb.bytes


def test_live_grows_with_depth():
    def run(depth):
        t = Tape()
        x = t.leaf(_rand(71, 8, 8))
        h = x
        with t.block(0):
            for i in range(depth):
                h = t.gelu(t.matmul(h, t.leaf(_rand(72 + i, 8, 8))))
        return t.meter.live_activation_bytes

    lives = [run(d) for d in (2, 4, 6)]
    # first matmul has a leaf input (uncharged), the rest charge 2 buffers
    # + gelu 1: growth is affine in depth
    assert lives[1] - lives[0] == lives[2] - lives[1] and lives[1] > lives[0]


def test_determinism_same_seed_bitwise():
    def run():
        t = Tape()
        x = t.leaf(_rand(81, 6, 6), name="x", requires_grad=True)
        h = t.softmax(t.matmul(x, t.leaf(_rand(82, 6, 6))))
        loss = t.mse_masked(h, t.leaf(np.zeros((6, 6))), t.leaf(np.ones(6)))
        return loss.value.copy(), t.backward(loss)["x"]

    v1, g1 = run()
    v2, g2 = run()
    assert np.array_equal(v1, v2) and np.array_equal(g1, g2)


def test_backward_extra_memory_is_bounded():
    # a chain of 20 scale ops: backward keeps only the gradient frontier
    # (plus the leaf gradient), not one gradient per node
    rows = cols = 512  # one 2 MB f64 buffer
    t = Tape()
    x = t.leaf(np.ones((rows, cols)), name="x", requires_grad=True)
    h = x
    for _ in range(20):
        h = t.scale(h, 1.0)
    loss = t.mse_masked(h, t.leaf(np.zeros((rows, cols))), t.leaf(np.ones(rows)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        t.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / x.value.nbytes < 4


@pytest.mark.parametrize("parts", [1, 2])
def test_layernorm_mlp_backward_holds_fc1_a_chunk_at_a_time(monkeypatch,
                                                            parts):
    # At the desk decoder's shape; see _assert_backward_holds_a_group.  A
    # whole-size fc1, CDF term, GELU output or dh buffer fails the bound.
    _assert_backward_holds_a_group(monkeypatch, "layernorm-mlp", 64, parts)


@pytest.mark.parametrize("parts", [1, 2])
def test_mlp_head_mse_backward_holds_a_group_at_a_time(monkeypatch, parts):
    # The decoder-loss node runs its MLP's, head's and loss's backward,
    # and its attention's, inside its forward.  At the desk decoder's
    # shape on `parts` threads it holds, per thread, one group's buffers
    # at once at most: what its forward keeps for its backward, of the
    # attention sublayer xhat, the probabilities and the merged heads
    # (2d + heads*n per row) and of the MLP xhat, the GELU output and its
    # CDF term (d + 2 * hidden), and then the head's xhat, normed rows,
    # prediction, input gradient and one temporary (4d + pixels), with
    # one d-wide broadcast temporary besides.  And for the whole batch
    # the gradient of z (k rows of width d per sample), each row's loss,
    # and the parameters' gradients: the weights' transposes, each
    # thread's running sums and one group's partials, one more total and
    # the saved ones.  Reads about 1.19 and 1.9-2.0 MB; the fill rows'
    # gradients (393,216 B) or a whole decoder input (524,288 B) held
    # besides fails it.
    monkeypatch.setattr(tape, "_PARTS", parts)
    b, k, n, d, hidden, pixels, heads = 64, 16, 64, 32, 128, 16, 1
    vals, consts = _decoder_values(b, k, n, d, 1, np.float32, 750,
                                   hidden=hidden, pixels=pixels)
    t = Tape()
    v = {name: t.leaf(a) for name, a in vals.items()}
    _decoder_loss(t, v, consts, heads)   # the workers start outside the trace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _decoder_loss(t, v, consts, heads)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    params = sum(a.size for name, a in vals.items() if name != "z")
    rows = max(1, tape._GROUP_ROWS // n) * n
    width = (2 * d + heads * n) + (d + 2 * hidden) + (4 * d + pixels) + d
    bound = 4 * (parts * rows * width + b * (k * d + n)
                 + (2 * parts + 3) * params)
    assert peak <= bound, (peak, bound)


def _in_group_order(partial, b, n):
    """partial(s) summed over slices s of a batch of b samples of n rows,
    in the backward rules' order: groups of max(1, _GROUP_ROWS // n) whole
    samples split into two halves, the second taking the odd group; each
    half adds its groups one after another, then the first half's total
    plus the second's."""
    step = max(1, tape._GROUP_ROWS // n)
    cut = [slice(i, min(i + step, b)) for i in range(0, b, step)]
    half = max(1, len(cut) // 2)

    def run(groups):
        total = partial(groups[0])
        for s in groups[1:]:
            total = total + partial(s)
        return total
    return run(cut[:half]) + run(cut[half:]) if half < len(cut) else run(cut)


def _group_order_sum(run, b, n, rows):
    """The arrays `run(s)` returns, a dict, over each slice s of a batch
    of b samples of n rows, cut as a backward rule cuts it (`_groups`):
    those named in `rows` joined along the batch in order, every other
    added in `_in_group_order`.  To run a node's unfused chain on each
    group's samples this way gives the partials of the fused node's
    groups, and adds them in its order."""
    parts = {(s.start, s.stop): run(s) for s in tape._groups((b, n, 1))}
    return {k: np.concatenate([p[k] for p in parts.values()]) if k in rows
            else _in_group_order(lambda s: parts[s.start, s.stop][k], b, n)
            for k in next(iter(parts.values()))}


def _batch_loss(t, y, target, b):
    """mse_masked of y [c, n, p], c of a batch's b samples, against their
    target rows, every row masked, scaled as over the whole batch: masked
    rows of zeros are appended to both until the masked rows are those of
    b samples, so y's gradient is the whole-batch loss's rows bit for
    bit."""
    c, n, p = y.shape
    extra = -(-(b - c) * n // c)
    mask = np.ones((c, n + extra), y.dtype)
    mask[:, n:] = (np.arange(c * extra) < (b - c) * n).reshape(c, extra)
    zeros = np.zeros((c, extra, p), y.dtype)
    return t.mse_masked(t.concat_rows([y, t.leaf(zeros)]),
                        t.leaf(np.concatenate([target, zeros], axis=1)),
                        t.leaf(mask))


def _whole_batch(partial, b, n):
    """partial over the whole batch: one product or sum of every row."""
    return partial(slice(None))


def _attention_whole_probabilities(inputs, heads, g, rows=_in_group_order):
    """The attention sublayer's output and the gradients of x, gamma, beta,
    w_qkv, b_qv, w_out and b_out in plain numpy, with the normed rows,
    q|k|v, the whole [b, heads, n, n] probabilities and the merged heads
    kept between them.  Forward: LN1 as `_layernorm_rows` computes it, the
    qkv product, the product with a contiguous k^T, scale, shift, exp and
    divide, the probability-value product, the out product and the
    residual.  Backward: the out projection's gradients, dv, dprobs, the
    softmax gradient, the scale, dq and dk into one buffer, the qkv
    projection's gradients, then LN1's and the residual's.  Products with
    a weight's transpose read a contiguous copy, and every sum over rows
    goes through `rows` (`_in_group_order` or `_whole_batch`)."""
    x, gamma, beta, w_qkv, b_qv, w_out, b_out = inputs
    b, n, _ = x.shape
    width = w_qkv.shape[1] // 3
    dh = width // heads
    scale = x.dtype.type(1.0 / np.sqrt(dh))
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True) + x.dtype.type(LN_EPS)
    inv_std = 1.0 / np.sqrt(var)
    xhat *= inv_std
    normed = xhat * gamma + beta
    qkv = normed @ w_qkv + _widen_qv(b_qv)
    q, k, val = qkv.reshape(b, n, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    probs = q @ np.ascontiguousarray(np.swapaxes(k, -1, -2))
    probs *= scale
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    merged = np.swapaxes(probs @ val, 1, 2).reshape(b, n, width)
    out = merged @ w_out + b_out + x

    def row_sum(a):
        return rows(lambda s: a[s].sum(axis=(0, 1)), b, n)

    def weight_grads(a, grad):
        return (rows(lambda s: a[s].reshape(-1, a.shape[-1]).T
                     @ grad[s].reshape(-1, grad.shape[-1]), b, n),
                row_sum(grad))

    dw_out, db_out = weight_grads(merged, g)
    dqkv = np.empty_like(qkv)
    dq, dk, dv = dqkv.reshape(b, n, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    gctx = np.swapaxes((g @ np.ascontiguousarray(w_out.T)).reshape(
        b, n, heads, dh), 1, 2)
    np.matmul(np.swapaxes(probs, -1, -2), gctx, out=dv)
    dprobs = gctx @ np.swapaxes(val, -1, -2)
    dprobs -= (dprobs * probs).sum(axis=-1, keepdims=True)
    dprobs *= probs
    dprobs *= scale
    np.matmul(dprobs, k, out=dq)
    np.matmul(np.swapaxes(dprobs, -1, -2), q, out=dk)
    dw_qkv, db_qkv = weight_grads(normed, dqkv)
    dnormed = dqkv @ np.ascontiguousarray(w_qkv.T)
    dxhat = dnormed * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * ((dxhat - m1) - xhat * m2) + g
    dgamma, dbeta = row_sum(xhat * dnormed), row_sum(dnormed)
    return out, (dx, dgamma, dbeta, dw_qkv, _qv_columns(db_qkv), dw_out,
                 db_out)


def _assert_attention_matches_whole_probabilities(node, heads, g, grads):
    """The value of an encoder-layer node's attention part (`_layer_part`)
    and its rule's gradients `grads` of x and of the attention sublayer's
    inputs are bitwise those of `_attention_whole_probabilities` on its
    inputs' values."""
    want_out, want_grads = _attention_whole_probabilities(
        [n.value for n in node.inputs[:7]], heads, g)
    assert node.value.dtype == want_out.dtype
    assert np.array_equal(node.value, want_out)
    assert len(grads) == 13 and len(want_grads) == 7
    for i, (got, want) in enumerate(zip(grads[:7], want_grads)):
        assert got.dtype == want.dtype, i
        assert np.array_equal(got, want), i


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b,n,d,heads", [(64, 64, 32, 1), (64, 16, 64, 4),
                                         (3, 5, 12, 3)])
def test_attention_rebuilt_probabilities_bitwise_equal_to_saved(
        monkeypatch, b, n, d, heads, dtype, parts):
    # The desk decoder's and encoder's shapes run in several chunks of
    # samples per thread; the layer's attention part, which keeps only x
    # and row statistics, gives the value and every gradient of plain
    # numpy that keeps the normed rows, q|k|v, the whole probabilities and
    # the merged heads.  Every input takes a gradient, so the rule
    # computes x's too.
    monkeypatch.setattr(tape, "_PARTS", parts)
    vals = _attention_inputs(b, n, d, dtype, 200 + n)
    g = _rand(210 + n, b, n, d).astype(dtype)
    t = Tape()
    node = _layer_part(t, "layernorm-attention", {
        k: t.leaf(a, requires_grad=True) for k, a in vals.items()}, heads)
    _assert_attention_matches_whole_probabilities(
        node, heads, g, _VJP[node.kind](node, g.copy()))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads", [1, 4])
@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_per_head_softmax_backward_bitwise_equal_whole_array_form(n, heads,
                                                                  dtype):
    # The attention rule takes softmax's backward a block of heads at a
    # time, one head or two or all: the block's probability gradient, a
    # product into one contiguous [c, b, n, n] buffer, against the block's
    # probabilities, a view of [c, heads, n, n].  Each row sum runs along
    # a contiguous row of n either way, so the bits are those of the form
    # over all heads at once, with its whole [c, heads, n, n] product of
    # the two.
    c, dh = 5, 8
    p = _softmax_reference(_rand(40 + n, c, heads, n, n)).astype(dtype)
    _, _, v = tape._split_heads(
        _rand(41 + n, c, n, 3 * heads * dh).astype(dtype), heads)
    gctx = np.swapaxes(_rand(42 + n, c, n, heads, dh).astype(dtype), 1, 2)
    whole = gctx @ np.swapaxes(v, -1, -2)
    whole -= np.add.reduce(whole * p, axis=-1, keepdims=True)
    whole *= p
    for step in sorted({1, min(2, heads), heads}):
        dprobs = np.empty((c, step, n, n), dtype)
        for h in range(0, heads, step):
            hs = slice(h, h + step)
            np.matmul(gctx[:, hs], np.swapaxes(v[:, hs], -1, -2), out=dprobs)
            got = tape._softmax_rows_grad(dprobs, p[:, hs])
            assert got is dprobs and got.dtype == dtype
            assert np.array_equal(got, whole[:, hs]), (step, h)


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b,k,n,d,heads", [(64, 16, 64, 32, 1),
                                           (3, 2, 5, 12, 3)])
def test_decoder_entry_bitwise_equal_unshuffle_then_attention(
        monkeypatch, b, k, n, d, heads, dtype, parts):
    # The desk decoder's shape, in several groups of samples per thread,
    # and a 3-head one: the decoder-loss node, in which no decoder input
    # exists whole, gives the loss and every gradient of the input built
    # by five nodes and then the nodes of the layer, head and loss.
    monkeypatch.setattr(tape, "_PARTS", parts)
    _assert_decoder_matches_chain(
        *_decoder_values(b, k, n, d, 1, dtype, 230 + n, hidden=4 * d), heads)


@pytest.mark.parametrize("parts", [1, 2])
def test_attention_backward_holds_probabilities_a_chunk_at_a_time(
        monkeypatch, parts):
    # At the desk decoder's shape; see _assert_backward_holds_a_group.
    # Whole q|k|v, whole probabilities or a whole dx buffer fail the bound.
    _assert_backward_holds_a_group(monkeypatch, "layernorm-attention", 64,
                                   parts)


# ----- kernels split across threads ---------------------------------------

class _CountingPool:
    """A worker pool that counts the calls handed to it."""

    def __init__(self, pool):
        self.pool, self.submitted = pool, 0

    def submit(self, fn, *args):
        self.submitted += 1
        return self.pool.submit(fn, *args)


def _force_parts(monkeypatch, parts):
    """Split every kernel into `parts` threads, however small; returns the
    pool the workers run in."""
    monkeypatch.setattr(tape, "_PARTS", parts)
    monkeypatch.setattr(tape, "_PART_ELEMENTS", 1)
    pool = _CountingPool(tape._workers(max(1, parts - 1)))
    monkeypatch.setattr(tape, "_workers", lambda count: pool)
    return pool


_SPLIT_LAYER = ((12,), (12,), (12, 36), (24,), (12, 12), (12,), (12,), (12,),
                (12, 20), (20,), (20, 12), (12,))


def _split_kernels_run(b, dtype):
    """Forward and every VJP of linear (with and without position rows),
    layernorm, encoder-layer (its attention part, and whole), gelu,
    layernorm-linear and add; returns each node's value, saved buffers
    and charged bytes, the meter, and every VJP output.  The attention
    part's value and gradients are checked against plain numpy on the
    way."""
    def r(seed, *shape):
        return _rand(seed, *shape).astype(dtype)

    t = Tape()
    x = t.leaf(r(1, b, 5, 12), name="x", requires_grad=True)
    h = t.layernorm(x, t.leaf(r(2, 12)), t.leaf(r(3, 12)))
    att = _layer_part(t, "layernorm-attention", {"x": h, **{
        k: t.leaf(r(20 + i, *shape)) for i, (k, shape) in enumerate(
            zip(_ATTENTION, _SPLIT_LAYER))}}, 3, hidden=20)
    f1 = t.gelu(t.linear(att, t.leaf(r(6, 12, 20)), t.leaf(r(7, 20))))
    f2 = t.layernorm_linear(att, t.leaf(r(8, 12)), t.leaf(r(9, 12)),
                            t.leaf(r(10, 12, 20)), t.leaf(r(11, 20)))
    f3 = t.encoder_layer(att, *(t.leaf(r(30 + i, *shape))
                                for i, shape in enumerate(_SPLIT_LAYER)), 3)
    pos, ids = _position_rows(b, 5, 12, dtype)
    t.add(x, t.linear(f3, t.leaf(r(14, 12, 12)), t.leaf(r(15, 12)),
                      t.leaf(pos), ids))
    out = {"peak": t.meter.peak_activation_bytes,
           "live": t.meter.live_activation_bytes}
    for i, node in enumerate(t.nodes):
        if node.is_leaf:
            continue
        out[f"{i}.value"] = node.value
        out[f"{i}.bytes"] = node.bytes
        # copies: a rule may write over its saved buffers
        out.update((f"{i}.saved{j}", a.copy())
                   for j, a in enumerate(node.saved))
        g = r(100 + i, *node.shape)
        grads = _VJP[node.kind](node, g.copy())
        out.update((f"{i}.vjp{j}", a) for j, a in enumerate(grads))
        if node is att:
            _assert_attention_matches_whole_probabilities(node, 3, g, grads)
    assert {n.kind for n in t.nodes} - {"leaf"} == {
        "layernorm", "linear", "encoder-layer", "gelu", "layernorm-linear",
        "add"}
    assert f1.shape == f2.shape == (b, 5, 20)
    return out


def test_unshuffle_attention_writes_its_output_over_the_rebuilt_input(
        monkeypatch):
    # The decoder-loss node rebuilds the decoder input a group of samples
    # at a time and lets each group's go once its attention has run.  At
    # the desk decoder's shape on one thread its forward, which holds
    # besides the gradients of z and of the parameters, reads about 2.27
    # whole decoder inputs [b, n, d]; the fill rows' gradients held for
    # the whole batch (3.02) fail the bound, as a whole rebuilt input
    # does.
    monkeypatch.setattr(tape, "_PARTS", 1)
    vals, consts = _decoder_values(64, 16, 64, 32, 1, np.float32, 770,
                                   hidden=128, pixels=16)
    t = Tape()
    v = {name: t.leaf(a) for name, a in vals.items()}
    _decoder_loss(t, v, consts, 1)   # the first call's one-time costs
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _decoder_loss(t, v, consts, 1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    whole = 64 * 64 * 32 * 4
    assert peak < 2.6 * whole, peak / whole


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b", [1, 2, 3, 5])
def test_split_kernels_bitwise_equal_to_one_part(monkeypatch, b, dtype):
    monkeypatch.setattr(tape, "_PARTS", 1)
    want = _split_kernels_run(b, dtype)
    pool = _force_parts(monkeypatch, 2)
    got = _split_kernels_run(b, dtype)
    assert pool.submitted > 0
    assert want.keys() == got.keys()
    for key, value in want.items():
        assert np.asarray(got[key]).dtype == np.asarray(value).dtype, key
        assert np.array_equal(got[key], value), key


@pytest.mark.parametrize("parts", [1, 2])
def test_uneven_chunks_bitwise_equal_to_one_chunk(monkeypatch, parts):
    # Each encoder-layer forward's attention and MLP loops take two of the
    # 5 rows of their [5, 3, 5, 5] probabilities and [5, 5, 20] hidden
    # buffers per chunk: rows 2, 2, 1 on one thread, or 2 | 2, 1 on two.
    # layernorm's forward takes three of its 5 [5, 12] samples per chunk,
    # on one thread, since its 300 elements do not repay a second: rows
    # 3, 2.  layernorm-linear's forward normalizes a group of 2 samples
    # (10 rows) at a time within each thread's rows, and the backward rules
    # of the nodes a step records cut the 5 samples into groups of 2,
    # whatever the threads and chunk size; their sums give the one-thread
    # run's bit for bit, and the attention part's also give the plain
    # numpy attention's (see _split_kernels_run).
    monkeypatch.setattr(tape, "_GROUP_ROWS", 10)
    monkeypatch.setattr(tape, "_PARTS", 1)
    want = _split_kernels_run(5, np.float32)
    monkeypatch.setattr(tape, "_PARTS", parts)
    monkeypatch.setattr(tape, "_PART_ELEMENTS", 2 * 5 * 20)
    chunks, groups = [], []

    def recorded(real, calls):
        def call(*args):
            cut = real(*args)
            calls.append([(c.start, c.stop) for c in cut])
            return cut
        return call
    monkeypatch.setattr(tape, "_chunks", recorded(tape._chunks, chunks))
    monkeypatch.setattr(tape, "_groups", recorded(tape._groups, groups))
    got = _split_kernels_run(5, np.float32)
    split = {1: [[(0, 2), (2, 4), (4, 5)]], 2: [[(0, 2)], [(2, 4), (4, 5)]]}
    # layernorm's forward, and the two loops of each layer's
    assert sorted(chunks) == sorted(split[parts] * 4 + [[(0, 3), (3, 5)]])
    # layernorm-linear's forward, then the rules of the two layers, linear,
    # layernorm-linear and linear with position rows
    assert sorted(groups) == sorted(split[parts]
                                    + [[(0, 2), (2, 4), (4, 5)]] * 5)
    assert want.keys() == got.keys()
    for key, value in want.items():
        assert np.array_equal(got[key], value), key


def test_worker_failure_reaches_caller_and_records_nothing(monkeypatch):
    _force_parts(monkeypatch, 2)
    caller = threading.get_ident()
    taken = threading.Event()
    real_erf = tape.erf

    def erf_failing_in_worker(x, out=None):
        if threading.get_ident() == caller:
            taken.wait(5)   # hold the caller's part until a worker has one
            return real_erf(x, out=out)
        taken.set()
        raise FloatingPointError("worker part failed")

    monkeypatch.setattr(tape, "erf", erf_failing_in_worker)
    t = Tape()
    v = {k: t.leaf(a) for k, a in _layer_inputs(11, 3, 8, np.float64,
                                                 90).items()}
    with pytest.raises(FloatingPointError, match="worker part failed"):
        # the MLP part's GELU
        t.encoder_layer(v["x"], *(v[k] for k in _LAYER), 2)
    assert taken.is_set()
    assert [n.kind for n in t.nodes] == ["leaf"] * 13
    assert t.meter.peak_activation_bytes == 0


def test_worker_parts_keep_the_callers_numpy_error_state(monkeypatch):
    _force_parts(monkeypatch, 2)
    taken = threading.Event()

    def part(lo, hi):
        if lo == 0:
            taken.wait(5)   # leave the other part to a worker
            return
        taken.set()
        np.exp(np.full(4, -1e4))   # underflows

    with np.errstate(under="raise"):
        with pytest.raises(FloatingPointError, match="underflow"):
            tape._parallel(2, rows=2, part=part)
    assert taken.is_set()


def test_parallel_waits_for_workers_before_raising(monkeypatch):
    _force_parts(monkeypatch, 2)
    started, finished = threading.Event(), []

    def part(lo, hi):
        if lo == 0:
            started.wait(5)   # fail only once the worker is busy
            raise ValueError("caller part failed")
        started.set()
        time.sleep(0.2)
        finished.append(lo)

    with pytest.raises(ValueError, match="caller part failed"):
        tape._parallel(4, rows=4, part=part)
    assert finished == [2]


def test_split_kernels_stress_more_threads_than_cores(monkeypatch):
    # 8 threads on any machine, switching as often as the interpreter
    # allows: every row is still written once, by one part, and every
    # kernel still matches the single-thread run bit for bit.
    monkeypatch.setattr(tape, "_PARTS", 1)
    want = _split_kernels_run(17, np.float32)
    _force_parts(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            got = _split_kernels_run(17, np.float32)
            assert all(np.array_equal(got[k], v) for k, v in want.items())
        writes = np.zeros(1000, dtype=np.int64)

        def part(lo, hi):
            writes[lo:hi] += 1
        tape._parallel(1000, rows=1000, part=part)
    finally:
        sys.setswitchinterval(interval)
    assert np.all(writes == 1)


# ----- rules at desk shapes: the group order ------------------------------

# The rules that sum over rows, each with the names of its inputs in the
# order of its gradients; None marks an input whose gradient is not
# compared (a constant).  "layernorm-attention" and "layernorm-mlp" are
# the encoder-layer node's parts (`_layer_part`), whose other part's
# inputs are constants.
_DESK_RULES = {
    "linear": ("x", "w", "b"),
    "linear+pos": ("x", "w", "b"),
    "matmul": ("x", "w"),
    "add": ("x", "y"),
    "add-rows": ("x", "y_rows"),
    "layernorm": ("x", "gamma", "beta"),
    "layernorm-linear": ("x", "gamma", "beta", "w_pred", "b_pred"),
    "layernorm-mlp": ("x",) + (None,) * 6 + _MLP,
    "layernorm-attention": ("x",) + _ATTENTION + (None,) * 6,
    "encoder-layer": ("x",) + _LAYER,
}


def _desk_values(n, dtype, seed=300):
    """Inputs at a desk shape: 64 samples of n rows, the encoder's width
    (64, 4 heads) at n = 16 and the decoder's (32, 1 head) at n = 64."""
    d = 64 if n == 16 else 32
    shapes = {"x": (64, n, d), "w": (d, d), "b": (d,), "y": (d,),
              "y_rows": (n, d), "gamma": (d,), "beta": (d,),
              "w_pred": (d, 16), "b_pred": (16,), "w1": (d, 4 * d),
              "b1": (4 * d,), "w2": (4 * d, d), "b2": (d,),
              "w_qkv": (d, 3 * d), "b_qv": (2 * d,), "w_out": (d, d),
              "b_out": (d,), "pos": (n, d), "gamma2": (d,), "beta2": (d,)}
    vals = {k: (_rand(seed + i, *s) * 0.5).astype(dtype)
            for i, (k, s) in enumerate(shapes.items())}
    return vals, 4 if n == 16 else 1


def _desk_node(t, kind, vals, heads):
    """Node `kind` over vals on tape t; x and y are non-leaf, as in a
    step."""
    v = {k: t.leaf(a) for k, a in vals.items()}
    x = t.scale(v["x"], 1.0)
    if kind == "linear":
        return t.linear(x, v["w"], v["b"])
    if kind == "linear+pos":
        return t.linear(x, v["w"], v["b"], v["pos"])
    if kind == "matmul":
        return t.matmul(x, v["w"])
    if kind in ("add", "add-rows"):
        y = v["y" if kind == "add" else "y_rows"]
        return t.add(x, t.scale(y, 1.0))
    if kind == "layernorm":
        return t.layernorm(x, v["gamma"], v["beta"])
    if kind == "layernorm-linear":
        return t.layernorm_linear(x, v["gamma"], v["beta"], v["w_pred"],
                                  v["b_pred"])
    if kind in ("layernorm-mlp", "layernorm-attention"):
        return _layer_part(t, kind, {**v, "x": x}, heads,
                           hidden=vals["w1"].shape[1])
    if kind == "unshuffle-attention":
        d = vals["x"].shape[-1]
        dv, consts = _decoder_values(64, 16, vals["x"].shape[1], d, 1,
                                     vals["x"].dtype, 760, hidden=4 * d,
                                     pixels=16)
        nodes = {k: t.leaf(a) for k, a in dv.items()}
        nodes["z"] = t.scale(nodes["z"], 1.0)
        return _decoder_loss(t, nodes, consts, heads)
    return t.encoder_layer(x, *(v[k] for k in _LAYER), heads)


def _desk_rule_grads(n, dtype=np.float32):
    """Every `_DESK_RULES` rule's outputs at desk shape n, each node on a
    tape of its own, for one fixed output gradient per rule."""
    vals, heads = _desk_values(n, dtype)
    out = {}
    for i, kind in enumerate(_DESK_RULES):
        node = _desk_node(Tape(), kind, vals, heads)
        g = _rand(400 + i, *node.shape).astype(dtype)
        out[kind] = _VJP[node.kind](node, g)
    return out


def _assert_same_grads(got, want):
    assert got.keys() == want.keys()
    for kind, grads in want.items():
        assert len(got[kind]) == len(grads), kind
        for i, (a, b) in enumerate(zip(got[kind], grads)):
            assert (a is None and b is None) or (
                a.dtype == b.dtype and np.array_equal(a, b)), (kind, i)


@pytest.mark.parametrize("rows", [128, tape._GROUP_ROWS])
@pytest.mark.parametrize("n", [16, 64])
def test_desk_rules_bitwise_equal_whatever_the_threads(monkeypatch, n,
                                                       rows):
    # 64 samples of n rows.  At 128 rows a group, each half of the cut
    # holds several groups, so the order of the sums over rows matters:
    # every rule gives the one-thread outputs bit for bit on 2 or 3
    # threads, and with every kernel split however small.
    monkeypatch.setattr(tape, "_GROUP_ROWS", rows)
    if rows == 128:
        assert len(tape._groups((64, n, 1))) >= 8
    monkeypatch.setattr(tape, "_PARTS", 1)
    want = _desk_rule_grads(n)
    for parts in (2, 3):
        monkeypatch.setattr(tape, "_PARTS", parts)
        _assert_same_grads(_desk_rule_grads(n), want)
    pool = _force_parts(monkeypatch, 2)
    _assert_same_grads(_desk_rule_grads(n), want)
    assert pool.submitted > 0


@pytest.mark.parametrize("kind", ["linear", "layernorm-linear",
                                  "layernorm-mlp", "encoder-layer"])
@pytest.mark.parametrize("n", [16, 64])
def test_desk_fused_node_bitwise_equal_unfused_composition(kind, n):
    # At desk shapes each fused rule sums over several groups of rows.  The
    # nodes it fuses, run on each group's samples, give its groups'
    # partials, and added in its order its gradients, bit for bit.
    vals, _ = _desk_values(n, np.float32)
    names = {"linear": ("x", "w", "b"),
             "layernorm-linear": ("x", "gamma", "beta", "w", "b"),
             "layernorm-mlp": ("x",) + _MLP,
             "encoder-layer": ("x",) + _LAYER}[kind]
    target = _rand(460, 64, n, vals["x"].shape[-1]).astype(np.float32)

    def run(which, s=slice(0, 64)):
        t = Tape()
        v = {k: t.leaf(vals[k][s] if k == "x" else vals[k], name=k,
                       requires_grad=True) for k in names}
        y = _fused_and_unfused(t, kind, v, s.start)[which]
        return t.backward(_batch_loss(t, y, target[s], 64))

    fused = run(0)
    unfused = _group_order_sum(lambda s: run(1, s), 64, n, rows=("x",))
    assert fused.keys() == unfused.keys() == set(names)
    for k in names:
        assert np.array_equal(fused[k], unfused[k]), k


def _layernorm_whole(x, gamma, beta):
    """xhat and the normed rows, as the kernels compute them."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    xhat *= 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True)
                          + x.dtype.type(LN_EPS))
    return xhat, xhat * gamma + beta


def _mlp_whole(x, gamma, beta, w1, b1, w2, g):
    """The gradient of x and the partials of gamma, beta, w1, b1, w2 and
    b2 of x + linear(gelu(linear(layernorm(x), w1, b1)), w2, b2), each one
    product or sum over every row of the batch, in plain numpy."""
    def weight(a, grad):
        return a.reshape(-1, a.shape[-1]).T @ grad.reshape(-1, grad.shape[-1])

    xhat, normed = _layernorm_whole(x, gamma, beta)
    f1 = normed @ w1 + b1
    cdf = 1.0 + erf(f1 / np.sqrt(2.0))
    dgelu = (g @ w2.T) * (0.5 * cdf + f1 * np.exp(-0.5 * f1 * f1)
                          / np.sqrt(2.0 * np.pi))
    dn = dgelu @ w1.T
    dxhat = dn * gamma
    inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + LN_EPS)
    dx = g + inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat
                        * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return dx, ((xhat * dn).sum(axis=(0, 1)), dn.sum(axis=(0, 1)),
                weight(normed, dgelu), dgelu.sum(axis=(0, 1)),
                weight(0.5 * f1 * cdf, g), g.sum(axis=(0, 1)))


def _whole_batch_grads(kind, v, heads, g):
    """The parameter gradients of `_DESK_RULES[kind]`, in its order from
    the second input on, each one product or sum over every row of the
    batch, in plain numpy."""
    def weight(a, grad):
        return a.reshape(-1, a.shape[-1]).T @ grad.reshape(-1, grad.shape[-1])

    def rows(a):
        return a.sum(axis=(0, 1))

    x = v["x"]
    if kind.startswith("linear"):
        return weight(x, g), rows(g)
    if kind == "matmul":
        return (weight(x, g),)
    if kind == "add":
        return (rows(g),)
    if kind == "add-rows":
        return (g.sum(axis=0),)
    xhat, normed = _layernorm_whole(x, v["gamma"], v["beta"])
    if kind == "layernorm":
        return rows(xhat * g), rows(g)
    if kind == "layernorm-linear":
        dn = g @ v["w_pred"].T
        return rows(xhat * dn), rows(dn), weight(normed, g), rows(g)
    if kind == "layernorm-mlp":
        return _mlp_whole(x, *(v[k] for k in _MLP[:-1]), g)[1]
    attention = [x] + [v[k] for k in _ATTENTION]
    if kind == "layernorm-attention":
        return _attention_whole_probabilities(attention, heads, g,
                                              _whole_batch)[1][1:]
    x2 = _attention_whole_probabilities(attention, heads, g)[0]
    dx2, mlp = _mlp_whole(x2, *(v[k] for k in _LAYER[6:11]), g)
    return (*_attention_whole_probabilities(attention, heads, dx2,
                                            _whole_batch)[1][1:], *mlp)


@pytest.mark.parametrize("n", [16, 64])
def test_desk_rule_parameter_grads_near_whole_batch_sums(n):
    # The group order moves a sum over rows only at rounding level: in f64
    # every parameter gradient is within 1e-12 of its largest entry of a
    # whole-batch product or sum.
    vals, heads = _desk_values(n, np.float64)
    for i, (kind, names) in enumerate(_DESK_RULES.items()):
        node = _desk_node(Tape(), kind, vals, heads)
        g = _rand(400 + i, *node.shape)
        got = [a for a, name in zip(_VJP[node.kind](node, g.copy())[1:],
                                    names[1:]) if name is not None]
        want = _whole_batch_grads(kind, vals, heads, g)
        assert len(got) == len(want), kind
        for j, (a, b) in enumerate(zip(got, want)):
            assert a.shape == b.shape, (kind, j)
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), (kind, j)


def _group_width(kind, d, heads, n):
    """Elements per row of a group that a streamed rule holds at once at
    most: xhat, the normed rows and their gradient's temporary
    (layernorm-linear); none for the decoder-loss node, whose forward ran
    the unshuffle-attention work's backward and whose rule scales the
    gradients it saved in place (unshuffle-attention).  The encoder-layer
    rule, whole or as a part (`_layer_part`), holds the larger of its MLP
    part's LayerNorm 2's xhat, the normed rows and two hidden-wide
    buffers, the GELU output written over fc1 and its CDF term, where fc1
    is made again over the first once dw2's partial is taken; and its
    attention part's q|k|v, dqkv, the merged heads' gradient, the
    probabilities, and a block of b heads' probability gradient and a
    product of it with the probabilities, 2 b n <= d (b >= 1).  Its
    rebuild of x2 holds less than the attention part.  At the desk
    encoder's shape the MLP part is the larger."""
    if kind in _LAYER_KINDS:
        block = min(heads, max(1, d // (2 * n)))
        return max(d + d + 2 * 4 * d, 7 * d + heads * n + 2 * block * n)
    return {"layernorm-linear": 3 * d, "unshuffle-attention": 0}[kind]


# numpy's buffer for a broadcast operand, per call: measured around
# `o += b` on a [6, 64, 32] f32 array.
_BROADCAST_BUFFER = 33_920


def _assert_backward_holds_a_group(monkeypatch, kind, n, parts):
    """The rule of `kind` at desk shape n, on `parts` threads, holds at
    most its dx (none when dx is written over g), one group's buffers per
    thread (`_group_width` per row; an encoder layer's 2 * fc1 * pdf(fc1)
    pass walks the hidden rows with a temporary in the normed rows'
    place) and, for an encoder layer, numpy's buffer for the broadcast
    operands of the passes that make its normed rows again, contiguous
    copies of its weights' transposes, and its parameters' partial sums:
    a running total and one group's partials per thread, and one more
    total on one thread, which keeps the first half's while it adds the
    second's.  The copies and each set of sums are at most the
    parameters' gradients in size."""
    monkeypatch.setattr(tape, "_PARTS", parts)
    vals, heads = _desk_values(n, np.float32)
    node = _desk_node(Tape(), kind, vals, heads)
    d = vals["x"].shape[-1]
    g = _rand(99, *node.shape).astype(np.float32)
    _VJP[node.kind](node, g.copy())   # the worker threads start outside the trace
    g = g.copy()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grads = _VJP[node.kind](node, g)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # dx written over g, or over the gradient its node saved, is not new
    dx = (0 if any(grads[0] is a for a in (g, *node.saved))
          else 4 * 64 * n * d)
    params = sum(a.nbytes for a in grads[1:] if a is not None)
    rows = max(1, tape._GROUP_ROWS // n) * n
    broadcast = _BROADCAST_BUFFER if kind in _LAYER_KINDS else 0
    bound = (dx + parts * (4 * rows * _group_width(kind, d, heads, n)
                           + broadcast)
             + (2 * parts + 2) * params)
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("kind,n", [
    ("layernorm-linear", 16), ("layernorm-linear", 64),
    ("layernorm-mlp", 16), ("layernorm-attention", 16),
    ("unshuffle-attention", 64), ("encoder-layer", 16),
    ("encoder-layer", 64)])
def test_streamed_rule_backward_holds_a_group_per_thread(monkeypatch, kind,
                                                         n, parts):
    # The desk encoder's (n = 16) and decoder's (n = 64) shapes; the
    # encoder-layer node's parts at the decoder's shape are the two tests
    # above.
    _assert_backward_holds_a_group(monkeypatch, kind, n, parts)


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("c,n", [(24, 16), (12, 32)])
def test_encoder_layer_rule_holds_each_buffer_to_its_last_read(monkeypatch,
                                                               c, n, parts):
    # One group of c samples of n rows, 384 rows, per thread at the desk
    # encoder's width (64, 4 heads, hidden 256), f32.  Besides one
    # contiguous copy of each weight's transpose and the widened q|v bias,
    # each thread holds at most the larger of
    # - its MLP part's live set: LayerNorm 2's xhat, the normed rows and
    #   two hidden-wide buffers (the GELU output, then fc1 again, and the
    #   CDF term), and dw2's and db2's partials.  The 2 * fc1 * pdf(fc1)
    #   pass holds its temporary, as large as the normed rows, in their
    #   place;
    # - its attention part's: q|k|v, dqkv, the merged heads' gradient, the
    #   probabilities, and a block of heads' probability gradient and its
    #   product with the probabilities, 4 n wide at n = 16 (two heads) and
    #   2 n at n = 32 (one), and the MLP sublayer's partials and the out
    #   projection's;
    # and numpy's broadcast buffer and under 12 KB of row vectors, array
    # views and frames.  The rule makes each normed row and LayerNorm 1's
    # xhat again where it reads them.  Reads 1,284,291 and 1,370,291 B on
    # one thread against 1,292,416 and 1,376,128, and 2.25-2.34 and
    # 1.87-2.41 MB on two, whose threads' peaks need not meet.  On one
    # thread, LayerNorm 1's xhat held through the MLP part fails it at
    # both shapes, and the MLP's normed rows held through its hidden-wide
    # pass at n = 16, where the MLP part peaks.
    b, d, heads, hidden = parts * c, 64, 4, 256
    monkeypatch.setattr(tape, "_PARTS", parts)
    vals = _layer_inputs(b, n, d, np.float32, 500, hidden)
    t = Tape()
    v = {k: t.leaf(a) for k, a in vals.items()}
    node = t.encoder_layer(t.scale(v["x"], 1.0),
                           *(v[k] for k in _LAYER), heads)
    g = _rand(510, b, n, d).astype(np.float32)
    _VJP[node.kind](node, g.copy())   # the workers start outside the trace
    g = g.copy()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grads = _VJP[node.kind](node, g)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert grads[0] is g
    rows = c * n
    assert tape._groups((b, n, d)) == [slice(i * c, (i + 1) * c)
                                       for i in range(parts)]
    mlp = rows * (2 * d + 2 * hidden) + hidden * d + d
    block = min(heads, max(1, d // (2 * n)))
    attention = (rows * (7 * d + heads * n + 2 * block * n)
                 + 2 * hidden * d + hidden + 3 * d + d * d + d)
    shared = 3 * d * d + d * d + 2 * hidden * d + 3 * d
    bound = (4 * (parts * max(mlp, attention) + shared)
             + parts * (_BROADCAST_BUFFER + 12_288))
    assert peak <= bound, (peak, bound)


# ----- a tape that records nothing ------------------------------------------

def _forward_chain(t, dtype, copies=None):
    """linear, two encoder layers and layernorm on a batch of 5 samples,
    each node reading the last; returns the nodes.  With a list `copies`,
    a copy of each node's value goes into it before the next node reads
    that value: on a Forward, each layer writes over its input's array."""
    def leaf(seed, *shape):
        return t.leaf(_rand(seed, *shape).astype(dtype))

    def kept(node):
        if copies is not None:
            copies.append(node.value.copy())
        return node

    def layer(x, seed):
        return kept(t.encoder_layer(x, *(
            leaf(seed + i, *shape) for i, shape in enumerate(_SPLIT_LAYER)),
            3))

    x = kept(t.linear(leaf(300, 5, 4, 6), leaf(301, 6, 12), leaf(302, 12)))
    first = layer(x, 310)
    second = layer(first, 330)
    return x, first, second, kept(t.layernorm(second, leaf(350, 12),
                                              leaf(351, 12)))


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_values_bitwise_equal_to_tape(monkeypatch, dtype, parts):
    # Uneven chunks of the 5 samples: 2 samples' [4, 20] hidden rows
    # (2, 2, 1 on one thread, or 2 | 2, 1 on two) and 3 samples' [3, 4, 4]
    # probabilities (3, 2, or 2 | 3).
    monkeypatch.setattr(tape, "_PARTS", parts)
    monkeypatch.setattr(tape, "_PART_ELEMENTS", 2 * 4 * 20)
    t, fwd = Tape(), tape.Forward()
    want, got = [], []
    _forward_chain(t, dtype, want)
    nodes = _forward_chain(fwd, dtype, got)
    assert len(want) == len(got) == len(nodes)
    for node, w, g in zip(nodes, want, got):
        assert g.dtype == dtype and np.array_equal(g, w), node.kind
        assert node.saved == [] and node.bytes == 0 and node.inputs == (), \
            node.kind
    assert fwd.nodes == [] and fwd.meter.peak_activation_bytes == 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mlp_node_saves_nothing_of_the_hidden_width(dtype):
    # On a Tape too, the layer node, which runs the MLP, saves and charges
    # only its input and row statistics besides its parameters: LN1's
    # mean and inverse std, each of the 3 heads' softmax max and sum, and
    # LN2's mean and inverse std per row.  Backward recomputes the
    # attention sublayer's residual sum, fc1, the GELU's CDF term and its
    # output, whose rows are 20 wide here against the input's 12.
    t = Tape()
    _, first, layer, _ = _forward_chain(t, dtype)
    params = [n.value for n in layer.inputs[1:]]
    acts = [a for a in layer.saved if not any(a is p for p in params)]
    assert acts[0] is first.value
    assert [a.shape for a in acts] == [(5, 4, 12), (5, 4, 1), (5, 4, 1),
                                       (5, 3, 4, 1), (5, 3, 4, 1),
                                       (5, 4, 1), (5, 4, 1)]
    assert layer.bytes == (first.value.nbytes
                           + (4 + 2 * 3) * 5 * 4 * dtype(0).nbytes)


def test_forward_refuses_backward_and_release():
    # A Forward's nodes save nothing: a backward would walk no node and
    # return no gradient, and a release would free nothing, in silence.
    fwd = tape.Forward()
    with fwd.block(0):
        w = fwd.leaf(np.ones((3, 2)), name="w", requires_grad=True)
        y = fwd.linear(fwd.leaf(np.ones((1, 2, 3))), w, fwd.leaf(np.zeros(2)))
        loss = fwd.mse_masked(y, fwd.leaf(np.zeros((1, 2, 2))),
                              fwd.leaf(np.ones((1, 2))))
    with pytest.raises(LifecycleError, match="records nothing"):
        fwd.backward(loss)
    with pytest.raises(LifecycleError, match="records nothing"):
        fwd.release_block_activations(0)


_SMALL_LAYER = ((4,), (4,), (4, 12), (8,), (4, 4), (4,), (4,), (4,),
                (4, 8), (8,), (8, 4), (4,))


def test_forward_residual_nodes_write_over_the_input_they_consume():
    # Each layer node takes its non-leaf input's array over for its own
    # output, both residual sums written into it, and the input node has
    # no value left.  The final layernorm is no residual node: the last
    # layer's output keeps its array.
    fwd = tape.Forward()
    arrays = []
    x, first, second, out = _forward_chain(fwd, np.float64, arrays)
    assert np.array_equal(second.value, arrays[2])
    assert not np.shares_memory(out.value, second.value)
    for node in (x, first):
        assert node.consumed_by == "encoder-layer"
        assert "consumed" in repr(node) and node._value is None
    fwd = tape.Forward()
    x = fwd.linear(*(fwd.leaf(_rand(340 + i, *shape)) for i, shape in
                     enumerate(((2, 3, 4), (4, 4), (4,)))))
    held = x.value
    layer = fwd.encoder_layer(x, *(
        fwd.leaf(_rand(350 + i, *shape))
        for i, shape in enumerate(_SMALL_LAYER)), 2)
    assert layer.value is held


def test_reading_a_consumed_node_is_a_lifecycle_error_naming_it():
    # Reading the node again would otherwise be an AttributeError on None,
    # and using its array the consumer's output, silently.
    fwd = tape.Forward()
    x, first, _, _ = _forward_chain(fwd, np.float32)
    for node in (x, first):
        with pytest.raises(LifecycleError,
                           match=f"<Node {node.kind} consumed> was consumed "
                                 f"by a encoder-layer node"):
            node.value
        with pytest.raises(LifecycleError, match=f"<Node {node.kind} "):
            fwd.encoder_layer(node, *(
                fwd.leaf(_rand(360 + i, *shape).astype(np.float32))
                for i, shape in enumerate(_SPLIT_LAYER)), 3)


def test_forward_never_writes_a_leaf():
    # A leaf's array is the caller's (a parameter, a constant, an image
    # batch): it keeps its values, and the output is a new array.
    fwd = tape.Forward()
    x = fwd.leaf(_rand(370, 3, 4, 4))
    before = x.value.copy()
    layer = fwd.encoder_layer(x, *(
        fwd.leaf(_rand(380 + i, *shape))
        for i, shape in enumerate(_SMALL_LAYER)), 2)
    assert x.consumed_by is None and np.array_equal(x.value, before)
    assert not np.shares_memory(layer.value, x.value)


@pytest.mark.parametrize("make", [Tape, tape.Forward],
                         ids=["tape", "forward"])
def test_a_tape_refuses_an_array_of_a_second_dtype(make):
    # The first array a tape is given sets its dtype, so every kernel can
    # allocate in its input's dtype; an f64 leaf or boundary beside f32
    # ones is refused, not promoted.
    t = make()
    t.leaf(np.ones((2, 3), np.float32))
    for record in (t.leaf, t.boundary):
        with pytest.raises(ContractError,
                           match="float64 on a tape of float32"):
            record(np.ones((2, 3)))
    assert t.dtype == np.float32


# ----- position rows added by linear ----------------------------------------

def _linear_args(t):
    return [t.leaf(_rand(400 + i, *shape)) for i, shape in
            enumerate(((5, 4, 6), (6, 3), (3,)))]


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("make", [Tape, tape.Forward],
                         ids=["tape", "forward"])
def test_linear_row_shape_residual_equals_the_gathered_one(monkeypatch, make,
                                                           parts):
    # Without ids the [m, n] position table is added to each sample's rows:
    # the same bits as its rows picked by the ids arange(m) for each
    # sample, on one thread or cut in two.
    monkeypatch.setattr(tape, "_PARTS", parts)
    monkeypatch.setattr(tape, "_PART_ELEMENTS", 4 * 3)
    pos = _rand(410, 4, 3)

    def linear(ids):
        t = make()
        return t.linear(*_linear_args(t), t.leaf(pos), ids).value
    want = linear(np.tile(np.arange(4), (5, 1)))
    assert np.array_equal(linear(None), want)


def test_linear_row_shape_residual_gives_the_gathered_gradients():
    # The constant table takes no gradient; every other input's is the one
    # the table's rows picked by ids give.
    def grads(ids):
        t = Tape()
        x, w, b = _linear_args(t)
        x, w, b = (t.leaf(n.value, name=name, requires_grad=True)
                   for n, name in zip((x, w, b), "xwb"))
        y = t.linear(x, w, b, t.leaf(_rand(410, 4, 3)), ids)
        return t.backward(t.mse_masked(y, t.leaf(_rand(411, 5, 4, 3)),
                                       t.leaf(np.ones((5, 4)))))
    got = grads(None)
    want = grads(np.tile(np.arange(4), (5, 1)))
    assert sorted(got) == ["b", "w", "x"]
    for name in got:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("make", [Tape, tape.Forward],
                         ids=["tape", "forward"])
def test_linear_refuses_a_row_shape_residual_that_takes_a_gradient(make):
    # The rule gives the position table no gradient, so only a constant
    # leaf may be one.
    t = make()
    args = _linear_args(t)
    for pos in (t.leaf(np.zeros((4, 3)), name="pos", requires_grad=True),
                t.scale(t.leaf(np.zeros((4, 3))), 1.0)):
        with pytest.raises(ContractError,
                           match="linear pos must be a constant leaf"):
            t.linear(*args, pos)


@pytest.mark.parametrize("make", [Tape, tape.Forward],
                         ids=["tape", "forward"])
def test_linear_refuses_position_rows_it_cannot_add(make):
    # x is 5 samples of 4 rows, the output 3 wide.
    t = make()
    args = _linear_args(t)
    ids = np.tile(np.arange(4), (5, 1))
    refusals = [
        # a table not [N, 3], or without ids not of the 4 rows
        *((np.zeros(shape), None, DimensionError,
           r"linear needs pos \[N, 3\], N = 4 without ids; got "
           + re.escape(str(shape))) for shape in (
            (4,), (1, 4, 3), (4, 2), (6, 3))),
        (np.zeros((6, 2)), ids, DimensionError, r"linear needs pos \[N, 3\]"),
        # ids past the table's 4 rows, or below 0
        (np.zeros((4, 3)), np.where(ids == 3, 4, ids), DimensionError,
         r"linear ids out of range \[0, 4\)"),
        (np.zeros((4, 3)), -ids, DimensionError, "linear ids out of range"),
        # ids for 3 of the 4 rows, or for 1 of the 5 samples
        (np.zeros((4, 3)), ids[:, :3], DimensionError,
         r"linear needs ids \[b, k\] = \[5, 4\]; got \(5, 3\)"),
        (np.zeros((4, 3)), ids[:1], DimensionError,
         r"linear needs ids \[b, k\] = \[5, 4\]; got \(1, 4\)"),
        # a row picked twice for one sample
        (np.zeros((4, 3)), np.where(ids == 3, 0, ids), ContractError,
         "linear ids must be unique per sample")]
    for pos, rows, error, match in refusals:
        with pytest.raises(error, match=match):
            t.linear(*args, t.leaf(pos), rows)
    assert all(n.kind == "leaf" for n in t.nodes)
