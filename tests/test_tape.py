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
    with pytest.raises(DimensionError, match=r"x \[b, n, d\] and ids \[b, k\]"):
        t.gather_rows(t.leaf(np.zeros(x_shape)), ids)


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
    order of `Tape.layernorm_attention`."""
    shapes = {"x": (b, n, d), "gamma": (d,), "beta": (d,),
              "w_qkv": (d, 3 * d), "b_qkv": (3 * d,), "w_out": (d, d),
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
    qkv = normed @ v["w_qkv"] + v["b_qkv"]
    outs = []
    for h in range(heads):
        q, k, val = (qkv[..., p * d + h * dh:p * d + (h + 1) * dh]
                     for p in range(3))
        scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(dh)
        outs.append(_softmax_reference(scores) @ val)
    return x + np.concatenate(outs, axis=-1) @ v["w_out"] + v["b_out"]


@pytest.mark.parametrize("heads,n", [(1, 1), (1, 5), (2, 1), (2, 5), (4, 7)])
def test_attention_matches_per_head_reference(heads, n):
    vals = _attention_inputs(2, n, 4 * heads, np.float64, 61 + n)
    t = Tape()
    out = t.layernorm_attention(*(t.leaf(a) for a in vals.values()), heads)
    assert out.kind == "layernorm-attention"
    assert out.shape == (2, n, 4 * heads)
    np.testing.assert_allclose(out.value, _attention_reference(vals, heads),
                               rtol=1e-12, atol=1e-13)


def test_attention_rejects_width_not_split_by_heads():
    t = Tape()
    x = t.leaf(np.zeros((2, 3, 4)))
    params = [t.leaf(np.zeros(s))
              for s in ((4,), (4,), (4, 12), (12,), (4, 4), (4,))]
    with pytest.raises(DimensionError, match="divisible by 3 heads"):
        t.layernorm_attention(x, *params, 3)  # d = 4, not 3 heads
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


# Each sample's shuffled-row order for the decoder-entry node's inputs:
# 3 rows of z, then 2 fill rows.
_ORDER = np.array([[3, 0, 4, 1, 2], [1, 2, 0, 4, 3]])
_ATTENTION = ("gamma", "beta", "w_qkv", "b_qkv", "w_out", "b_out")


def _fused(t, kind, v):
    """The fused node `kind` over leaves v, recorded on tape t."""
    if kind == "layernorm-attention":
        return t.layernorm_attention(*v.values(), 2)
    return _fused_and_unfused(t, kind, v)[0]


def _unshuffle_then_attention(t, z, fill, pos, order, attention, heads):
    """The decoder input as zeros + fill, concat, gather and position add,
    then its attention sublayer: the unfused `Tape.unshuffle_attention`."""
    b, k, d = z.shape
    fills = t.add(t.leaf(np.zeros((b, order.shape[1] - k, d), z.dtype)), fill)
    ordered = t.gather_rows(t.concat_rows([z, fills]),
                            np.argsort(order, axis=1))
    return t.layernorm_attention(t.add(ordered, pos), *attention, heads)


def _fused_and_unfused(t, kind, v):
    """The fused node `kind` over leaves v, and the same function as the
    nodes it fuses, both recorded on tape t."""
    if kind == "unshuffle-attention":
        z, fill = v["z"], v["fill"]
        pos = t.leaf(_rand(88, 5, 4).astype(z.dtype))   # a constant
        attention = [v[k] for k in _ATTENTION]
        return (t.unshuffle_attention(z, fill, pos, _ORDER, *attention, 2),
                _unshuffle_then_attention(t, z, fill, pos, _ORDER, attention,
                                          2))
    if kind == "layernorm-linear":
        args = (v["x"], v["gamma"], v["beta"], v["w"], v["b"])
        return (t.layernorm_linear(*args),
                t.linear(t.layernorm(*args[:3]), *args[3:]))
    if kind == "layernorm-mlp":
        args = [v[k] for k in ("x", "gamma", "beta", "w1", "b1", "w2", "b2")]
        fused = t.layernorm_mlp(*args)
        h = t.gelu(t.layernorm_linear(*args[:5]))
        return fused, t.linear(h, *args[5:], residual=v["x"])
    return (t.linear(v["x"], v["w"], v["b"], residual=v["res"]),
            t.add(v["res"], t.linear(v["x"], v["w"], v["b"])))


def _fused_inputs(kind, dtype, seed=81):
    shapes = {"x": (2, 5, 4), "w": (4, 3), "b": (3,), "res": (2, 5, 3)}
    if kind == "layernorm-linear":
        shapes.update(gamma=(4,), beta=(4,))
        del shapes["res"]
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
    return {k: (_rand(seed + i, *shape) * 1.5).astype(dtype)
            for i, (k, shape) in enumerate(shapes.items())}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["layernorm-linear", "layernorm-mlp", "linear",
                                  "unshuffle-attention"])
def test_fused_node_bitwise_equal_unfused_composition(kind, dtype):
    # One tape: the fused node and the nodes it fuses read the same leaves,
    # and one loss sums both outputs' errors, so every input gradient is
    # the sum of the two paths' contributions.  Each path is checked on
    # its own tape too, where each is the whole gradient.
    vals = _fused_inputs(kind, dtype)

    def run(which):
        t = Tape()
        v = {k: t.leaf(a, name=k, requires_grad=True) for k, a in vals.items()}
        outs = _fused_and_unfused(t, kind, v)
        assert outs[0].kind == kind
        ys = [outs[i] for i in which]
        target = _rand(90, *outs[0].shape).astype(dtype)
        mask = t.leaf(np.ones((2, 5), dtype))
        losses = [t.mse_masked(y, t.leaf(target), mask) for y in ys]
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
        "x", "gamma", "beta", "w_qkv", "b_qkv", "w_out", "b_out")),
    *(("unshuffle-attention", v) for v in ("z", "fill") + _ATTENTION),
    ("linear", "res")])
def test_grad_fused_nodes(kind, var):
    vals = _fused_inputs(kind, np.float64, seed=6300)

    def build(t, node):
        v = {k: node if k == var else t.leaf(a) for k, a in vals.items()}
        y = _fused(t, kind, v)
        return t.mse_masked(y, t.leaf(_rand(6390, *y.shape)),
                            t.leaf(np.ones((2, 5))))

    _grad_check(build, vals[var], 6300)


def test_fused_nodes_refuse_mismatched_shapes():
    t = Tape()
    x, w, b = (t.leaf(np.zeros(s)) for s in ((2, 5, 4), (4, 3), (3,)))
    with pytest.raises(DimensionError, match="residual"):
        t.linear(x, w, b, residual=t.leaf(np.zeros((2, 5, 4))))
    with pytest.raises(DimensionError, match="layernorm affine"):
        t.layernorm_linear(x, t.leaf(np.ones(3)), t.leaf(np.zeros(4)), w, b)
    norm = [t.leaf(np.ones(4)), t.leaf(np.zeros(4))]
    mlp = [t.leaf(np.zeros(s)) for s in ((4, 6), (6,), (6, 4), (4,))]

    def with_mlp(i, shape):
        args = norm + mlp
        args[i] = t.leaf(np.zeros(shape))
        return args

    for i, shape, match in (
            (0, (3,), "layernorm affine"),
            (2, (3, 6), r"layernorm-mlp extent mismatch: \(2, 5, 4\)"),
            (3, (5,), r"layernorm-mlp supports \[b,m,k\] x \[k,n\] \+ \[n\]"),
            (4, (5, 4), r"layernorm-mlp extent mismatch: \(2, 5, 6\)"),
            (5, (3,), r"layernorm-mlp supports")):
        with pytest.raises(DimensionError, match=match):
            t.layernorm_mlp(x, *with_mlp(i, shape))
    # fc2 back to a width other than x's, so x cannot be its residual
    with pytest.raises(DimensionError, match="residual"):
        t.layernorm_mlp(x, *norm, *mlp[:2], t.leaf(np.zeros((6, 3))),
                        t.leaf(np.zeros(3)))
    with pytest.raises(DimensionError, match="layernorm-mlp supports"):
        t.layernorm_mlp(t.leaf(np.zeros((5, 4))), *norm, *mlp)
    assert [n.kind for n in t.nodes] == ["leaf"] * len(t.nodes)


def test_attention_and_unshuffle_refuse_mismatched_shapes():
    t = Tape()
    x = t.leaf(np.zeros((2, 5, 4)))
    shapes = [(4,), (4,), (4, 12), (12,), (4, 4), (4,)]

    def attention_with(changed):
        args = [t.leaf(np.zeros(changed.get(i, s)))
                for i, s in enumerate(shapes)]
        return t.layernorm_attention(x, *args, 2)

    for changed, match in (
            ({0: (3,)}, "layernorm affine"),
            ({2: (3, 12), 3: (12,)}, r"layernorm-attention extent mismatch: "
                                     r"\(2, 5, 4\) x \(3, 12\)"),
            ({3: (6,)}, r"layernorm-attention supports \[b,m,k\]"),
            ({4: (6, 4)}, r"layernorm-attention extent mismatch: "
                          r"\(2, 5, 4\) x \(6, 4\)"),
            # the out projection to a width other than x's
            ({4: (4, 3), 5: (3,)}, "residual")):
        with pytest.raises(DimensionError, match=match):
            attention_with(changed)
    order = np.array([[0, 1, 2], [2, 1, 0]])
    z = t.leaf(np.zeros((2, 2, 4)))
    fill, pos = t.leaf(np.zeros(4)), t.leaf(np.zeros((3, 4)))
    attention = [t.leaf(np.zeros(s)) for s in shapes]
    for args in ((x, fill, pos, order),                 # 5 rows for 3
                 (z, t.leaf(np.zeros(3)), pos, order),
                 (z, fill, pos, order[:1]),
                 (t.leaf(np.zeros((2, 4))), fill, pos, order)):
        with pytest.raises(DimensionError,
                           match="unshuffle-attention needs z"):
            t.unshuffle_attention(*args, *attention, 2)
    with pytest.raises(ContractError, match="permutations"):
        t.unshuffle_attention(z, fill, pos, np.array([[0, 1, 1], [2, 1, 0]]),
                              *attention, 2)
    # the attention sublayer's checks, on the [2, 3, 4] decoder input
    for i, shape, match in (
            (0, (3,), "layernorm affine"),
            (2, (3, 12), r"unshuffle-attention extent mismatch: "
                         r"\(2, 3, 4\) x \(3, 12\)"),
            (4, (6, 4), r"unshuffle-attention extent mismatch: "
                        r"\(2, 3, 4\) x \(6, 4\)")):
        args = list(attention)
        args[i] = t.leaf(np.zeros(shape))
        with pytest.raises(DimensionError, match=match):
            t.unshuffle_attention(z, fill, pos, order, *args, 2)
    with pytest.raises(DimensionError, match="divisible by 3 heads"):
        t.unshuffle_attention(z, fill, pos, order, *attention, 3)
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
                 residual=act(29, 2, 3, 5)),
        t.layernorm_linear(act(30, 2, 3, 4), leaf(31, 4), leaf(32, 4),
                           leaf(33, 4, 5), leaf(34, 5)),
        t.layernorm_mlp(act(35, 2, 3, 4), leaf(36, 4), leaf(37, 4),
                        leaf(38, 4, 6), leaf(39, 6), leaf(40, 6, 4),
                        leaf(41, 4)),
        t.layernorm_attention(act(22, 2, 3, 4), leaf(42, 4), leaf(43, 4),
                              leaf(44, 4, 12), leaf(45, 12), leaf(46, 4, 4),
                              leaf(47, 4), 2),
        t.unshuffle_attention(act(48, 2, 3, 4), leaf(49, 4), leaf(50, 5, 4),
                              _ORDER, leaf(51, 4), leaf(52, 4),
                              leaf(53, 4, 12), leaf(54, 12), leaf(55, 4, 4),
                              leaf(56, 4), 2),
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
    ]


def test_backward_rules_read_no_values():
    # Backward drops the values it walks, so a rule may read only `saved`,
    # `attrs` and the incoming gradient.  A rule may write over its saved
    # buffers, so each runs on its own copy of the nodes.
    nodes = _one_node_per_backward_rule()
    assert {n.kind for n in nodes} == set(_VJP)
    for i, (node, bare) in enumerate(zip(nodes,
                                         _one_node_per_backward_rule())):
        g = _rand(100 + i, *node.shape)
        want = _VJP[node.kind](node, g)
        for n in (bare, *bare.inputs):
            n.value = None
        got = _VJP[node.kind](bare, g)
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
        t.layernorm_attention(act(9, 2, 3, 4), leaf(10, 4), leaf(11, 4),
                              leaf(12, 4, 12), leaf(13, 12), leaf(14, 4, 4),
                              leaf(15, 4), 2),
        t.layernorm_mlp(act(16, 2, 3, 4), leaf(17, 4), leaf(18, 4),
                        leaf(19, 4, 6), leaf(20, 6), leaf(21, 6, 4),
                        leaf(22, 4)),
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
    # x reaches the output through LN1 and through the residual
    b, d = 2, 4 * heads
    seed = 6200 + 10 * heads + n
    vals = _attention_inputs(b, n, d, np.float64, seed)
    target = _rand(6100 + n, b, n, d)

    def build(t, x):
        out = t.layernorm_attention(
            x, *(t.leaf(vals[k]) for k in list(vals)[1:]), heads)
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


def test_backward_skips_a_rule_whose_inputs_take_no_gradient(monkeypatch):
    # A gather of a boundary leaf, as incremental_drop's: its one input is
    # a constant leaf, so its rule would make a gradient that is thrown
    # away.  A gather of an activation runs its rule.
    calls = []
    rule = _VJP["gather-rows"]

    def counting(node, g):
        calls.append(node)
        return rule(node, g)
    monkeypatch.setitem(_VJP, "gather-rows", counting)
    ids = np.array([[2, 0], [1, 3]])
    t = Tape()
    w = t.leaf(_rand(1, 4, 4), name="w", requires_grad=True)
    copy = t.gather_rows(t.boundary(_rand(2, 2, 4, 4)), ids)
    act = t.gather_rows(t.matmul(t.leaf(_rand(3, 2, 4, 4)), w), ids)

    def loss(y):
        return t.mse_masked(y, t.leaf(np.zeros((2, 2, 4))),
                            t.leaf(np.ones((2, 2))))
    first = loss(t.add(t.matmul(copy, w), act))
    second = loss(t.matmul(copy, w))
    live = t.meter.live_activation_bytes
    got = t.backward(first)["w"]
    assert calls == [act]
    assert copy.saved is None and t.meter.live_activation_bytes == live
    # The same gradient as with the gather's rule run.
    monkeypatch.setitem(_VJP, "gather-rows", rule)
    t2 = Tape()
    w2 = t2.leaf(_rand(1, 4, 4), name="w", requires_grad=True)
    copy2 = t2.gather_rows(t2.scale(t2.leaf(_rand(2, 2, 4, 4)), 1.0), ids)
    act2 = t2.gather_rows(t2.matmul(t2.leaf(_rand(3, 2, 4, 4)), w2), ids)
    y2 = t2.add(t2.matmul(copy2, w2), act2)
    want = t2.backward(t2.mse_masked(y2, t2.leaf(np.zeros((2, 2, 4))),
                                     t2.leaf(np.ones((2, 2)))))["w"]
    assert np.array_equal(got, want)
    # Its saved buffers are gone all the same, so a second pass through
    # it is refused.
    with pytest.raises(LifecycleError, match=r"reached <Node gather-rows>, "
                       r"whose saved buffers an earlier backward"):
        t.backward(second)


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
    # At the desk decoder's shape.  Per row, the rule holds the GELU
    # output, which becomes the GELU gradient (hidden), and at most three
    # buffers of width d: the normed rows, which become dx, their gradient
    # and xhat.  fc1 and dh exist a chunk of rows per thread at a time.  A
    # whole-size fc1 or dh buffer adds hidden per row and fails the bound.
    monkeypatch.setattr(tape, "_PARTS", parts)
    b, n, d, hidden = 64, 64, 32, 128
    shapes = ((b, n, d), (d,), (d,), (d, hidden), (hidden,), (hidden, d),
              (d,))
    t = Tape()
    node = t.layernorm_mlp(*(t.leaf((_rand(90 + i, *s) * 0.2).astype(
        np.float32)) for i, s in enumerate(shapes)))
    g = _rand(99, b, n, d).astype(np.float32)
    _VJP[node.kind](node, g)   # the worker threads start outside the trace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grads = _VJP[node.kind](node, g)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    params = sum(a.nbytes for a in grads[1:])
    bound = 4 * (b * n * (hidden + 3 * d) + parts * tape._PART_ELEMENTS)
    assert peak <= bound + params, (peak, bound, params)


def _attention_whole_probabilities(inputs, heads, g):
    """The attention sublayer's output and the gradients of x, gamma, beta,
    w_qkv, b_qkv, w_out and b_out in plain numpy, with the normed rows,
    q|k|v, the whole [b, heads, n, n] probabilities and the merged heads
    kept between them.  Forward: LN1 as `_layernorm_rows` computes it, the
    qkv product, the product with a contiguous k^T, scale, shift, exp and
    divide, the probability-value product, the out product and the
    residual.  Backward: the out projection's gradients, dv, dprobs, the
    softmax gradient, the scale, dq and dk into one buffer, the qkv
    projection's gradients, then LN1's and the residual's."""
    x, gamma, beta, w_qkv, b_qkv, w_out, b_out = inputs
    b, n, d = x.shape
    width = w_qkv.shape[1] // 3
    dh = width // heads
    scale = x.dtype.type(1.0 / np.sqrt(dh))
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True) + x.dtype.type(LN_EPS)
    inv_std = 1.0 / np.sqrt(var)
    xhat *= inv_std
    normed = xhat * gamma + beta
    qkv = normed @ w_qkv + b_qkv
    q, k, val = qkv.reshape(b, n, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    probs = q @ np.ascontiguousarray(np.swapaxes(k, -1, -2))
    probs *= scale
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    merged = np.swapaxes(probs @ val, 1, 2).reshape(b, n, width)
    out = merged @ w_out + b_out + x

    def weight_grads(a, grad):
        return (a.reshape(-1, a.shape[-1]).T @ grad.reshape(-1, grad.shape[-1]),
                grad.sum(axis=(0, 1)))

    dw_out, db_out = weight_grads(merged, g)
    dqkv = np.empty_like(qkv)
    dq, dk, dv = dqkv.reshape(b, n, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    gctx = np.swapaxes((g @ w_out.T).reshape(b, n, heads, dh), 1, 2)
    np.matmul(np.swapaxes(probs, -1, -2), gctx, out=dv)
    dprobs = gctx @ np.swapaxes(val, -1, -2)
    dprobs -= (dprobs * probs).sum(axis=-1, keepdims=True)
    dprobs *= probs
    dprobs *= scale
    np.matmul(dprobs, k, out=dq)
    np.matmul(np.swapaxes(dprobs, -1, -2), q, out=dk)
    dw_qkv, db_qkv = weight_grads(normed, dqkv)
    dnormed = dqkv @ w_qkv.T
    dxhat = dnormed * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * ((dxhat - m1) - xhat * m2) + g
    dgamma, dbeta = (a.reshape(-1, d).sum(axis=0)
                     for a in (xhat * dnormed, dnormed))
    return out, (dx, dgamma, dbeta, dw_qkv, db_qkv, dw_out, db_out)


def _assert_attention_matches_whole_probabilities(node, heads, g, grads):
    """The node's value and its rule's gradients `grads` are bitwise those
    of `_attention_whole_probabilities` on its inputs' values."""
    want_out, want_grads = _attention_whole_probabilities(
        [n.value for n in node.inputs], heads, g)
    assert node.value.dtype == want_out.dtype
    assert np.array_equal(node.value, want_out)
    assert len(grads) == len(want_grads) == 7
    for i, (got, want) in enumerate(zip(grads, want_grads)):
        assert got.dtype == want.dtype, i
        assert np.array_equal(got, want), i


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b,n,d,heads", [(64, 64, 32, 1), (64, 16, 64, 4),
                                         (3, 5, 12, 3)])
def test_attention_rebuilt_probabilities_bitwise_equal_to_saved(
        monkeypatch, b, n, d, heads, dtype, parts):
    # The desk decoder's and encoder's shapes run in several chunks of
    # samples per thread; the node that keeps only x and row statistics
    # gives the value and every gradient of plain numpy that keeps the
    # normed rows, q|k|v, the whole probabilities and the merged heads.
    monkeypatch.setattr(tape, "_PARTS", parts)
    vals = _attention_inputs(b, n, d, dtype, 200 + n)
    g = _rand(210 + n, b, n, d).astype(dtype)
    t = Tape()
    node = t.layernorm_attention(*(t.leaf(a) for a in vals.values()), heads)
    _assert_attention_matches_whole_probabilities(
        node, heads, g, _VJP[node.kind](node, g))


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b,k,n,d,heads", [(64, 16, 64, 32, 1),
                                           (3, 2, 5, 12, 3)])
def test_decoder_entry_bitwise_equal_unshuffle_then_attention(
        monkeypatch, b, k, n, d, heads, dtype, parts):
    # The desk decoder's shape, in several chunks of samples per thread,
    # and a 3-head one: the node that saves z and rebuilds the decoder
    # input gives the output and every gradient of the input built by
    # five nodes and then attention's node.
    monkeypatch.setattr(tape, "_PARTS", parts)
    vals = _attention_inputs(b, n, d, dtype, 230 + n)
    del vals["x"]
    vals = {"z": _rand(240, b, k, d).astype(dtype),
            "fill": _rand(241, d).astype(dtype), **vals}
    pos = _rand(242, n, d).astype(dtype)
    order = np.stack([rng.permutation(243 + i, n) for i in range(b)])
    target = _rand(250, b, n, d).astype(dtype)

    def run(fused):
        t = Tape()
        v = {name: t.leaf(a, name=name, requires_grad=True)
             for name, a in vals.items()}
        attention = [v[name] for name in _ATTENTION]
        args = (v["z"], v["fill"], t.leaf(pos), order)
        y = (t.unshuffle_attention(*args, *attention, heads) if fused
             else _unshuffle_then_attention(t, *args, attention, heads))
        out = y.value.copy()
        return out, t.backward(t.mse_masked(y, t.leaf(target),
                                            t.leaf(np.ones((b, n), dtype))))

    (y, grads), (y_ref, grads_ref) = run(True), run(False)
    assert y.dtype == dtype and np.array_equal(y, y_ref)
    assert grads.keys() == grads_ref.keys() == set(vals)
    for name, g in grads.items():
        assert g.dtype == dtype, name
        assert np.array_equal(g, grads_ref[name]), name


@pytest.mark.parametrize("parts", [1, 2])
def test_attention_backward_holds_probabilities_a_chunk_at_a_time(
        monkeypatch, parts):
    # At the desk decoder's shape.  The rule holds three whole buffers, 5d
    # per row: the normed rows, the merged heads and dqkv.  Each thread
    # holds one chunk of c samples: its q|k|v and the merged heads'
    # gradient, 4d per row, and its probabilities, their gradient and a
    # temporary of their product, 3 * heads * n per row.  Whole q|k|v or
    # whole probabilities fail the bound.
    monkeypatch.setattr(tape, "_PARTS", parts)
    b, n, d, heads = 64, 64, 32, 1
    vals = _attention_inputs(b, n, d, np.float32, 95)
    t = Tape()
    node = t.layernorm_attention(*(t.leaf(a) for a in vals.values()), heads)
    g = _rand(96, b, n, d).astype(np.float32)
    _VJP[node.kind](node, g)   # the worker threads start outside the trace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grads = _VJP[node.kind](node, g)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    params = sum(a.nbytes for a in grads[1:])
    c = tape._PART_ELEMENTS // (2 * heads * n * n)
    bound = 4 * (b * n * 5 * d + parts * c * n * (4 * d + 3 * heads * n))
    assert peak <= bound + params, (peak, bound, params)


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


def _split_kernels_run(b, dtype):
    """Forward and every VJP of linear (with and without a residual),
    layernorm, layernorm-attention, gelu, layernorm-linear and
    layernorm-mlp; returns each node's value, saved buffers and charged
    bytes, the meter, and every VJP output.  The attention node's value
    and gradients are checked against plain numpy on the way."""
    def r(seed, *shape):
        return _rand(seed, *shape).astype(dtype)

    t = Tape()
    x = t.leaf(r(1, b, 5, 12), name="x", requires_grad=True)
    h = t.layernorm(x, t.leaf(r(2, 12)), t.leaf(r(3, 12)))
    att = t.layernorm_attention(h, *(
        t.leaf(r(20 + i, *shape)) for i, shape in enumerate(
            ((12,), (12,), (12, 36), (36,), (12, 12), (12,)))), 3)
    f1 = t.gelu(t.linear(att, t.leaf(r(6, 12, 20)), t.leaf(r(7, 20))))
    f2 = t.layernorm_linear(att, t.leaf(r(8, 12)), t.leaf(r(9, 12)),
                            t.leaf(r(10, 12, 20)), t.leaf(r(11, 20)))
    f3 = t.layernorm_mlp(att, t.leaf(r(12, 12)), t.leaf(r(13, 12)),
                         t.leaf(r(16, 12, 20)), t.leaf(r(17, 20)),
                         t.leaf(r(18, 20, 12)), t.leaf(r(19, 12)))
    t.linear(f3, t.leaf(r(14, 12, 12)), t.leaf(r(15, 12)), residual=x)
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
        grads = _VJP[node.kind](node, g)
        out.update((f"{i}.vjp{j}", a) for j, a in enumerate(grads))
        if node is att:
            _assert_attention_matches_whole_probabilities(node, 3, g, grads)
    assert {n.kind for n in t.nodes} - {"leaf"} == {
        "layernorm", "linear", "layernorm-attention", "gelu",
        "layernorm-linear", "layernorm-mlp"}
    assert f1.shape == f2.shape == (b, 5, 20)
    return out


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
    # Two of the 5 rows of layernorm-mlp's [5, 5, 20] hidden buffers, and
    # of layernorm-attention's [5, 3, 5, 5] probabilities, per chunk: rows
    # 2, 2, 1 on one thread, or 2 | 2, 1 on two.  Attention's backward
    # holds the probabilities and their gradient, so its chunks are one
    # row each.  Every chunking gives the plain numpy attention's value
    # and gradients (see _split_kernels_run).
    monkeypatch.setattr(tape, "_PARTS", 1)
    want = _split_kernels_run(5, np.float32)
    monkeypatch.setattr(tape, "_PARTS", parts)
    monkeypatch.setattr(tape, "_PART_ELEMENTS", 2 * 5 * 20)
    chunks = []
    real_chunks = tape._chunks

    def recorded(lo, hi, a):
        cut = real_chunks(lo, hi, a)
        chunks.append([(c.start, c.stop) for c in cut])
        return cut
    monkeypatch.setattr(tape, "_chunks", recorded)
    got = _split_kernels_run(5, np.float32)
    split = {1: [[(0, 2), (2, 4), (4, 5)]], 2: [[(0, 2)], [(2, 4), (4, 5)]]}
    rows = {1: [[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]],
            2: [[(0, 1), (1, 2)], [(2, 3), (3, 4), (4, 5)]]}
    # layernorm-mlp's forward and backward's two passes, attention's
    # forward, then attention's backward
    assert sorted(chunks) == sorted(split[parts] * 4 + rows[parts])
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
    x = t.leaf(_rand(11, 4, 3, 8), name="x", requires_grad=True)
    with pytest.raises(FloatingPointError, match="worker part failed"):
        t.gelu(x)
    assert taken.is_set()
    assert [n.kind for n in t.nodes] == ["leaf"]
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
