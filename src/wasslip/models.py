"""MLP classifiers with cross-entropy loss, exact reverse-mode gradients, and
the Lipschitz bookkeeping the robust certificates rely on: per-label loss
constants, the certificate's lambda floor `loss_lipschitz`, layerwise
product bounds, the separable power-mean relaxation of the product, and a
sampled lower-bound estimator.  A linear softmax classifier is the one-layer
MLP: its feature map is empty.

The loss constant is the one that follows from the gradient identity
grad_x = W^T (p - e_y) (for L2 inputs, sqrt(2) times the spectral norm of
W); the plain operator norm of W is not an upper bound on it.
Biases are allowed everywhere but never enter a Lipschitz computation.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

from wasslip import io
from wasslip.io import fmt_float
from wasslip.numerics import (
    DimensionError,
    FrozenRecord,
    NormTag,
    NumericalError,
    UnsupportedNormError,
    as_matrix,
    as_vector,
    operator_norm,
    row_norms,
)


class ActivationTag(str, Enum):
    RELU = "RELU"
    TANH = "TANH"
    IDENTITY = "IDENTITY"


def _activate(tag: ActivationTag, z: np.ndarray) -> np.ndarray:
    if tag == ActivationTag.RELU:
        return np.maximum(z, 0.0)
    if tag == ActivationTag.TANH:
        return np.tanh(z)
    return z


def _activation_slope(tag: ActivationTag, z: np.ndarray) -> np.ndarray:
    if tag == ActivationTag.RELU:
        return (z > 0.0).astype(float)  # subgradient 0 at the kink
    if tag == ActivationTag.TANH:
        t = np.tanh(z)
        return 1.0 - t * t
    return np.ones_like(z)


class MLPLayer(FrozenRecord):
    __slots__ = ("weights", "activation", "bias")

    def __init__(self, weights: np.ndarray, activation: ActivationTag, bias: np.ndarray | None = None):
        W = as_matrix(weights)
        activation = ActivationTag(activation)
        if bias is not None:
            bias = as_vector(bias)
            if bias.size != W.shape[0]:
                raise DimensionError("bias length must equal the layer output dimension")
        self._fill(weights=W, activation=activation, bias=bias)


class MLP(FrozenRecord):
    """Stack of linear layers with activations; the final layer emits logits
    that feed a softmax cross-entropy head, so its activation must be IDENTITY.
    The feature map is everything before the final layer; the one-layer MLP
    is the linear softmax classifier, whose feature map is empty."""

    __slots__ = ("layers",)

    def __init__(self, layers: tuple):
        layers = tuple(layers)
        if not layers:
            raise ValueError("an MLP needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise DimensionError("consecutive layer dimensions do not chain")
        if layers[-1].activation != ActivationTag.IDENTITY:
            raise ValueError("the final layer must have IDENTITY activation (logits)")
        self._fill(layers=layers)

    @property
    def label_count(self) -> int:
        return self.layers[-1].weights.shape[0]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]


class BatchLoss(NamedTuple):
    """Per-row losses and input gradients of a batch; with `params=True` also
    the per-layer weight and bias gradients summed over the rows."""

    losses: np.ndarray
    grad_x: np.ndarray
    grads_w: list | None
    grads_b: list | None


def _matvec_rows(W: np.ndarray, A: np.ndarray) -> np.ndarray:
    """W @ a for every row a of A as one matrix-vector product per row.

    A single A @ W.T would block and reorder the sums; per-row products keep
    every row's result bit-identical to evaluating that row alone, so no
    reported number depends on how rows are batched (training amplifies
    last-bit differences into visibly different certificates).
    """
    return np.matmul(W, A[:, :, None])[:, :, 0]


def _row_log_sum_exp(Z: np.ndarray) -> np.ndarray:
    m = np.max(Z, axis=1)
    sums = np.sum(np.exp(Z - m[:, None]), axis=1)
    # math.log, not np.log: numpy's vectorized log differs from libm in the last bit
    return m + np.fromiter(map(math.log, sums), float, count=sums.size)


def _check_labels(k: int, Y) -> np.ndarray:
    Y = np.asarray(Y, dtype=int)
    if np.any((Y < 0) | (Y >= k)):
        raise ValueError(f"labels must lie in [0, {k})")
    return Y


def _input_rows(model: MLP, X) -> np.ndarray:
    X = as_matrix(X)
    if X.shape[1] != model.input_dim:
        raise DimensionError(f"input has dimension {X.shape[1]}, expected {model.input_dim}")
    return X


def _propagate(layers: Sequence[MLPLayer], A: np.ndarray) -> tuple[np.ndarray, list]:
    """Every row of A through the layers, plus a tape of (layer input,
    pre-activation) pairs for backprop."""
    tape = []
    for layer in layers:
        pre = _matvec_rows(layer.weights, A)
        if layer.bias is not None:
            pre = pre + layer.bias
        tape.append((A, pre))
        A = _activate(layer.activation, pre)
    return A, tape


def forward(model: MLP, X) -> np.ndarray:
    """Logits of every row of X (n x d -> n x k)."""
    return _propagate(model.layers, _input_rows(model, X))[0]


def feature_map(layers: Sequence[MLPLayer], X) -> np.ndarray:
    """Every row of X through the given layers; `model.layers[:-1]` gives the
    feature map phi."""
    return _propagate(layers, as_matrix(X))[0]


def losses(model: MLP, X, Y) -> np.ndarray:
    """Cross entropy of every (row of X, label in Y) pair, forward pass only."""
    Z = forward(model, X)
    Y = _check_labels(model.label_count, Y)
    return _row_log_sum_exp(Z) - Z[np.arange(Z.shape[0]), Y]


def finite_losses(values: np.ndarray) -> np.ndarray:
    """`values`, one clean loss per atom, or NumericalError naming the first non-finite one."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericalError(f"loss is non-finite at support index {bad[0]}")
    return values


def loss_grads(model: MLP, X, Y, params: bool = False) -> BatchLoss:
    """One forward and one backward pass over all rows: softmax cross entropy
    with exact reverse-mode gradients with respect to every input row and,
    with `params`, to the weights and biases summed over the rows."""
    Z, tape = _propagate(model.layers, _input_rows(model, X))
    rows = np.arange(Z.shape[0])
    Y = _check_labels(model.label_count, Y)
    lse = _row_log_sum_exp(Z)
    values = lse - Z[rows, Y]
    delta = np.exp(Z - lse[:, None])
    delta[rows, Y] -= 1.0
    grads_w: list = [None] * len(model.layers)
    grads_b: list = [None] * len(model.layers)
    for idx in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[idx]
        a_in, pre = tape[idx]
        dpre = delta * _activation_slope(layer.activation, pre)
        if params:
            # sums of per-row outer products, accumulated row after row
            grads_w[idx] = np.sum(dpre[:, :, None] * a_in[:, None, :], axis=0)
            if layer.bias is not None:
                grads_b[idx] = np.sum(dpre, axis=0)
        delta = _matvec_rows(layer.weights.T, dpre)
    return BatchLoss(values, delta, grads_w if params else None, grads_b if params else None)


def label_loss_matrix(model: MLP, xs: np.ndarray) -> np.ndarray:
    """Loss of every (sample, label) pair; row i is x_i against all labels."""
    Z = forward(model, xs)
    return _row_log_sum_exp(Z)[:, None] - Z


# sup of ||p - e_y||_2 over the probability simplex: the head's L2 loss
# constant is this times ||W||_2
CE_GRAD_L2 = math.sqrt(2.0)


def ce_lipschitz_bound(W: np.ndarray, tag: NormTag) -> float:
    """Lipschitz constant of x -> CE(softmax(Wx+b), y), uniform over labels,
    for the head's weight matrix W (the bias never enters): the constant
    provable from grad_x = W^T (p - e_y), using ||p - e_y||_2 <= sqrt(2)
    (`CE_GRAD_L2`) and ||p - e_y||_1 <= 2.
    """
    if tag == NormTag.L2:
        return CE_GRAD_L2 * operator_norm(W, NormTag.L2)
    if tag == NormTag.LINF:
        # sup over ||v||_1 <= 2 of ||W^T v||_1 = 2 * max abs row sum
        return 2.0 * operator_norm(W, NormTag.LINF)
    if tag == NormTag.L1:
        return 2.0 * float(np.max(np.abs(W)))
    raise UnsupportedNormError(f"unsupported norm tag {tag!r}")


def ce_slice_lipschitz(W: np.ndarray, y: int, tag: NormTag) -> float:
    """Tight constant for the fixed-label slice x -> CE(softmax(Wx), y).

    The gradient is W^T (p - e_y) with p in the probability simplex, and the
    dual norm of W^T (p - e_y) is maximized at a simplex vertex, so the exact
    supremum over the simplex is max_j ||row_j - row_y||_dual.
    """
    y = int(_check_labels(W.shape[0], [y])[0])
    return float(np.max(row_norms(W - W[y], tag.dual)))


class LipschitzBounds(NamedTuple):
    product: float
    young: float


def layerwise_bounds(sigmas: Sequence[float]) -> LipschitzBounds:
    """Layerwise product bound and its separable power-mean relaxation from
    the layers' operator norms sigma_i.

    product = prod_i sigma_i (every activation is 1-Lipschitz); young =
    (1/l) sum_i sigma_i^l, which dominates the product by the
    arithmetic-geometric mean inequality.
    """
    l = len(sigmas)
    young = float(sum(s**l for s in sigmas)) / l
    return LipschitzBounds(float(math.prod(sigmas)), young)


def empirical_lipschitz(f: Callable[[np.ndarray], np.ndarray], points, tag: NormTag) -> float:
    """Sampled lower bound on lip(f) for a batched map f (n x d -> n x k): the
    max difference quotient over consecutive rows of `points` plus the
    coordinate-perturbation pairs (x, x + eps e_i) of its first 8 rows, from
    one call of f on all pair endpoints."""
    points = as_matrix(points)
    if points.shape[0] < 2:
        raise ValueError("need at least two points")
    dim = points.shape[1]
    left = np.concatenate([points[:-1], points[:8].repeat(dim, axis=0)])
    right = np.concatenate([points[1:], (points[:8, None, :] + 1e-4 * np.eye(dim)).reshape(-1, dim)])
    din = row_norms(left - right, tag)
    keep = din >= 1e-12
    if not keep.any():
        raise ValueError("all sampled pairs were degenerate")
    out = f(np.concatenate([left, right]))
    n = left.shape[0]
    dout = row_norms(np.reshape(out[:n] - out[n:], (n, -1)), tag)
    return float(np.max(dout[keep] / din[keep]))


def phi_lipschitz_bound(layers: Sequence[MLPLayer], tag: NormTag) -> float:
    """Product of the layers' operator norms (1.0 for no layers)."""
    return float(math.prod(operator_norm(layer.weights, tag) for layer in layers))


def loss_lipschitz(model: MLP, tag: NormTag) -> float:
    """The certificate's lambda floor: a Lipschitz constant, in the `tag`
    input norm, of every loss slice x -> CE(f(x), y) of f = head o phi,
    bound(head) * lip(phi).  An empty phi (a linear model) has lip(phi) = 1.0
    exactly; a constant phi gives 0."""
    return ce_lipschitz_bound(model.layers[-1].weights, tag) * phi_lipschitz_bound(model.layers[:-1], tag)


def accuracy(model: MLP, points) -> float:
    hits = np.argmax(forward(model, points.xs), axis=1) == points.ys
    return int(np.count_nonzero(hits)) / len(points)


_FORMAT_HEADER = "wasslip-model v1"


def save_model(model: MLP, path, norm_tag: NormTag = NormTag.L2) -> None:
    lines = [_FORMAT_HEADER, "kind mlp", f"norm {norm_tag.value}", f"layers {len(model.layers)}"]
    for layer in model.layers:
        r, c = layer.weights.shape
        has_bias = 1 if layer.bias is not None else 0
        lines.append(f"layer {r} {c} {layer.activation.value} {has_bias}")
        for row in layer.weights:
            lines.append(",".join(fmt_float(v) for v in row))
        if layer.bias is not None:
            lines.append(",".join(fmt_float(v) for v in layer.bias))
    io.write_text(path, "\n".join(lines) + "\n")


def load_model(path) -> tuple[MLP, NormTag]:
    """Parse a model file written by `save_model`.  `kind linear` files, which
    hold exactly one layer, are read as the one-layer MLP.  A truncated or
    trailing file, a malformed line, layers that do not chain, or a `kind
    linear` file with more than one layer raise io.InputFileError naming the
    file and line.  Numbers follow the dataset CSV's grammar: ASCII only and
    no '_' (`io.plain_number_text`), and counts are ASCII digits.  Lines end
    at LF only (after the universal-newline read), so a form feed or U+2028
    stays inside its line, as editors count it."""
    lines = io.read_text(path).split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    pos = 0

    def fail(msg: str, line: int | None = None):
        raise io.InputFileError(path, pos if line is None else line, msg)

    def line(pattern: str, what: str) -> tuple:
        nonlocal pos
        if pos >= len(lines):
            fail(f"unexpected end of file, expected {what}", pos + 1)
        pos += 1
        match = re.fullmatch(pattern, lines[pos - 1].strip())
        if match is None:
            fail(f"expected {what}")
        return match.groups()

    def numbers(size: int) -> np.ndarray:
        (text,) = line("(.*)", f"{size} numbers")
        try:
            row = np.array([float(v) for v in text.split(",")])
        except ValueError:
            row = np.array([math.nan])
        if row.size != size or not np.all(np.isfinite(row)):
            fail(f"expected {size} finite comma-separated numbers")
        # the whole line, as the dataset CSV checks its rows: strip() also
        # drops non-ASCII spaces, which float() accepts
        if not io.plain_number_text(lines[pos - 1]):
            fail(io.NOT_PLAIN_NUMBER)
        return row

    line(re.escape(_FORMAT_HEADER), f"the header {_FORMAT_HEADER!r}")
    (kind,) = line("kind (linear|mlp)", "'kind linear' or 'kind mlp'")
    (norm_name,) = line(f"norm ({'|'.join(t.value for t in NormTag)})", "'norm' and a norm tag")
    (count,) = line("layers ([1-9][0-9]*)", "'layers' and a positive count")
    if kind == "linear" and count != "1":
        fail(f"kind linear needs exactly one layer, got {count}")
    acts = "|".join(t.value for t in ActivationTag)
    layers = []
    for _ in range(int(count)):
        r, c, act, has_bias = line(f"layer ([1-9][0-9]*) ([1-9][0-9]*) ({acts}) ([01])", "'layer ROWS COLS ACTIVATION 0|1'")
        r, c = int(r), int(c)
        if layers and c != layers[-1].weights.shape[0]:
            fail(f"layer takes {c} inputs but the previous layer has {layers[-1].weights.shape[0]} outputs")
        W = np.stack([numbers(c) for _ in range(r)])
        layers.append(MLPLayer(W, ActivationTag(act), numbers(r) if has_bias == "1" else None))
    if pos != len(lines):
        fail("trailing lines after the last layer", pos + 1)
    if layers[-1].activation != ActivationTag.IDENTITY:
        fail("the final layer must have IDENTITY activation (logits)")
    return MLP(tuple(layers)), NormTag(norm_name)
