"""Minimal multi-layer perceptron with hand-rolled reverse-mode gradients.

The only differentiable atoms the rest of the package needs are affine
layers and pointwise activations, so gradients are computed by a fixed
backward pipeline over the layer stack instead of a general tape.  All
arithmetic is float64 numpy; everything is deterministic given the seed
used at initialization.

Each Mlp keeps four sets of buffers: hidden activations, layer input
gradients, a C-contiguous copy of every ``w.T``, which numpy multiplies
faster than the transposed view, and every bias repeated down the rows,
which numpy adds to a layer output in one flat pass instead of one short
loop per row.  Every batch of two or more rows uses the last two, and
the copy only on layers where it gives the view's bits
(``_copy_keeps_bits``); a one-row batch, which numpy hands to gemv,
keeps the view and the broadcast bias.  Both are rebuilt only when
``params`` differs bitwise from its value at the last rebuild, which
sees every in-place write an optimizer makes, and then only the bias
rows the batch uses; a larger batch under the same ``params`` fills just
the rows it adds.  The bias gradient adds the rows in order whatever
the upstream's memory layout.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import struct

import numpy as np

__all__ = [
    "Mlp",
    "Sgd",
    "Adam",
    "write_blob",
    "read_blob",
    "save_mlp",
    "load_mlp",
]

ACTIVATIONS = ("relu", "tanh", "sigmoid")

_BLOB_MAGIC = b"KFRM"


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    """Apply the activation to z in place and return z."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "tanh":
        return np.tanh(z, out=z)
    if name == "sigmoid":
        # piecewise form avoids overflow in exp for large |z|
        pos = z >= 0
        high = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        z[~pos] = ez / (1.0 + ez)
        z[pos] = high
        return z
    raise ValueError(f"unknown activation {name!r}")


def _activate_grad(name: str, a: np.ndarray) -> np.ndarray:
    """Derivative of the activation, expressed via the activation a.
    The relu subgradient at 0 is 0."""
    if name == "relu":
        return a > 0  # multiplies as 0.0/1.0
    if name == "tanh":
        return 1.0 - a * a
    if name == "sigmoid":
        return a * (1.0 - a)
    raise ValueError(f"unknown activation {name!r}")


def _layer_views(vector: np.ndarray, dims) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weight (..., out, in) and bias (..., out) views into a parameter
    vector, or a stack of them, laid out for an Mlp with layer sizes
    ``dims``."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        block = vector[..., pos : pos + fan_out * fan_in]
        weights.append(block.reshape(vector.shape[:-1] + (fan_out, fan_in)))
        pos += fan_out * fan_in
        biases.append(vector[..., pos : pos + fan_out])
        pos += fan_out
    return weights, biases


class Mlp:
    """Affine layers with a pointwise activation after all but the last.

    All parameters live in one contiguous float64 vector ``params`` in the
    checkpoint layout: layer 0's weights row-major, then its bias, then
    layer 1's, and so on.  ``weights[l]`` (out, in) and ``biases[l]``
    (out,) are views into it, so a write through either is a write to
    the other.  The constructor copies the arrays it is given.  A
    single-layer Mlp is purely linear.

    There is one forward pass, ``forward_cached``; ``forward`` is its
    output alone.  It writes the hidden activations into scratch buffers
    owned by the instance, one per hidden layer, and ``backward`` writes
    each layer's input gradient into a second set, one per layer.  Every
    buffer grows to the largest batch seen and is reused after that.
    A third set holds one (in, out) C-contiguous copy of ``w.T`` per
    layer, and a fourth each layer's bias repeated down the rows of the
    largest batch seen.  A batch of two or more rows multiplies by the
    copy and adds the bias rows to the layer output in one flat ``+=``,
    the same single addition per entry as broadcasting ``b``.  Such a
    batch first rebuilds both sets from ``params`` if ``params`` differs
    bitwise from a snapshot taken at the last rebuild (an optimizer
    step, a finite difference, ``params[:] = best``, a ``bind``; a bias
    of -0.0 for +0.0 counts), filling only the bias rows the batch uses;
    a batch with more rows than were filled since then fills just the
    rows it adds.  A one-row batch adds ``b`` by broadcasting and, like
    layers where the copy could change bits (see ``_copy_keeps_bits``),
    multiplies by the ``w.T`` view.  ``backward`` copies a
    non-C-contiguous upstream first, so the bias gradient adds rows in
    the same order for any layout.
    The forward output and the parameter gradient are fresh arrays.  A
    cache is spent by the next forward pass (see ``forward_cached``).
    One Mlp runs from one thread at a time: its passes share the buffers.
    """

    def __init__(self, weights, biases, activation: str = "relu"):
        if activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if len(weights) != len(biases) or not weights:
            raise ValueError("need one bias vector per weight matrix")
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        for l, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {l}: weight {w.shape} / bias {b.shape} mismatch")
            if l > 0 and w.shape[1] != weights[l - 1].shape[0]:
                raise ValueError(f"layer {l}: input dim {w.shape[1]} does not chain")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {l}: non-finite parameters")
        self.activation = activation
        self.weights = weights  # bind reads the layer shapes from here
        self.bind(np.concatenate([p.ravel() for pair in zip(weights, biases) for p in pair]))
        self._scratch = [np.empty((0, w.shape[0])) for w in self.weights[:-1]]  # per hidden layer
        self._grad_scratch = [np.empty((0, w.shape[1])) for w in self.weights]  # per layer input
        # per layer, (in, out); None where the copy could change bits
        self._wt = [np.empty(w.shape[::-1]) if _copy_keeps_bits(w) else None for w in self.weights]
        self._bias_rows = [np.empty((0, w.shape[0])) for w in self.weights]  # per layer
        self._built = None  # the bytes of params when _wt and _bias_rows were last rebuilt
        self._filled = 0  # rows of every _bias_rows[l] filled from those params
        self._runs = 0  # forward passes so far; a cache records the count it was made at

    @classmethod
    def init(cls, dims, activation: str = "relu", rng: np.random.Generator | None = None) -> "Mlp":
        """Glorot-uniform weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
        if rng is None:
            rng = np.random.default_rng()
        if len(dims) < 2:
            raise ValueError("dims needs at least input and output size")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, activation)

    def bind(self, vector: np.ndarray) -> None:
        """Make ``vector`` this Mlp's ``params`` and re-seat ``weights``
        and ``biases`` as views into it.  ``vector`` must be a contiguous
        float64 vector (a slice of a larger model's vector, say) that
        already holds this Mlp's values in the ``params`` layout."""
        count = sum(w.size + w.shape[0] for w in self.weights)
        if vector.dtype != np.float64 or vector.shape != (count,) or not vector.flags.c_contiguous:
            raise ValueError(f"expected a contiguous float64 vector of {count} values")
        self.params = vector
        self.weights, self.biases = _layer_views(vector, self.dims)

    @property
    def dims(self) -> list[int]:
        """Layer sizes: input, then each layer's output."""
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def num_params(self) -> int:
        return self.params.size

    @functools.cached_property  # the layer shapes never change
    def rows_independent(self) -> bool:
        """Whether a row of a forward pass over two or more rows, and of a
        backward pass's ``dz @ w`` above layer 0, is known to get the same
        bits in any batch.  With OpenBLAS 0.3.31 (SkylakeX kernels, 1 or 2
        threads) a row of ``a @ w.T`` depended on its neighbours at fan-out
        1 from fan-in 8 and at every fan-out from fan-in 32; of ``dz @ w``
        (fan-in ``out``) at some fan-outs from 16, never at multiples of 8."""
        return all(fan_out > 1 and fan_in < 32 and (l == 0 or fan_out < 16 or fan_in % 8 == 0)
                   for l, (fan_out, fan_in) in enumerate(w.shape for w in self.weights))

    def forward(self, x) -> np.ndarray:
        """Evaluate at a point (d_in,) or batch (B, d_in): the output of
        ``forward_cached``, whose cache is dropped."""
        return self.forward_cached(x)[0]

    def forward_cached(self, x):
        """Forward pass keeping the intermediates the backward pass needs.

        Returns (output, cache); cache holds the input of every layer for
        the same (possibly batched) input.  The hidden activations in it
        are views of this Mlp's scratch buffers, so the cache stays valid
        only until the next forward pass on this Mlp; ``backward``
        refuses it after that.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        a = x[None, :] if single else x
        if a.ndim != 2 or a.shape[1] != self.in_dim:
            raise ValueError(f"input shape {x.shape} does not match in_dim {self.in_dim}")
        if not np.isfinite(a).all():
            raise ValueError("non-finite input")
        self._runs += 1
        rows = a.shape[0]
        multi = rows > 1
        if multi:
            self._rebuild_if_stale(rows)
        inputs: list[np.ndarray] = []
        last = self.num_layers - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(a)
            wt = self._wt[l] if multi and self._wt[l] is not None else w.T
            if l == last:
                z = a @ wt
            else:
                z = np.matmul(a, wt, out=_rows(self._scratch, l, rows))
            z += self._bias_rows[l][:rows] if multi else b
            a = _activate(self.activation, z) if l < last else z
        return (a[0] if single else a), (inputs, single, self._runs)

    def _rebuild_if_stale(self, rows: int) -> None:
        """Make the ``w.T`` copies and the first ``rows`` bias rows hold
        ``params``: refill the copies and rows ``[0, rows)`` when
        ``params`` changed bits since the last rebuild, else fill only
        the rows ``[filled, rows)`` a larger batch adds.  Rows past the
        filled count are never read."""
        state = self.params.tobytes()
        if state != self._built:
            for l, w in enumerate(self.weights):
                if self._wt[l] is not None:
                    np.copyto(self._wt[l], w.T)
            self._built, self._filled = state, 0
        if rows <= self._filled:
            return
        if self._bias_rows[0].shape[0] < rows:  # every layer has as many rows
            self._bias_rows = [np.empty((rows, b.size)) for b in self.biases]
            self._filled = 0
        for bias_rows, b in zip(self._bias_rows, self.biases):
            bias_rows[self._filled : rows] = b
        self._filled = rows

    def backward(self, cache, upstream, input_grad: bool = True, segments=None):
        """Exact reverse-mode gradients of ``forward`` at the cached input.

        ``upstream`` is dLoss/d(output) with the output's shape.  Returns
        (dLoss/d(params), dLoss/d(input)); the first is a fresh vector
        laid out like ``params``.  The second is a view of a scratch
        buffer of this Mlp, valid until the next ``backward`` call on it,
        or None with ``input_grad`` False, which skips the product that
        computes it.  The activation derivatives are taken from the
        cached activations (the next layer's input).  A cache may be used
        any number of times until the next forward pass on this Mlp;
        after that it raises ValueError.  With ``segments``, row counts
        summing to the batch's, the first is one gradient per segment of
        consecutive rows, (len(segments), num_params), taken from its own
        rows (stacked over equal segments in a row): a segment of other
        than one row gets the bits of a pass over it alone while
        ``rows_independent`` holds.
        """
        inputs, single, runs = cache
        if runs != self._runs:
            raise ValueError("stale cache: a later forward pass on this Mlp has overwritten it")
        g = np.ascontiguousarray(upstream, dtype=np.float64)  # one summation order for any layout
        shape = (self.out_dim,) if single else (inputs[0].shape[0], self.out_dim)
        if g.shape != shape:
            raise ValueError(f"upstream shape {g.shape} does not match output {shape}")
        if single:
            g = g[None, :]
        if segments is None:  # one segment: every row
            grads, parts = np.zeros_like(self.params), [(..., slice(None), None)]
        elif sum(segments) != g.shape[0] or min(segments, default=0) < 0:
            raise ValueError(f"segments {list(segments)} do not split {g.shape[0]} rows")
        else:  # per run of equal segments: their gradient rows, their rows, a stack shape
            grads, parts, first, row = np.zeros((len(segments), self.num_params)), [], 0, 0
            for size, count in ((n, len(list(run))) for n, run in itertools.groupby(segments)):
                parts.append((slice(first, first + count) if count > 1 else first,
                             slice(row, row + count * size), count > 1 and (count, size)))
                first, row = first + count, row + count * size
        grad_w, grad_b = _layer_views(grads, self.dims)
        dz = g
        for l in range(self.num_layers - 1, -1, -1):
            if l < self.num_layers - 1:
                dz *= _activate_grad(self.activation, inputs[l + 1])  # dz is ours: from dz @ w
            for at, rows, stack in parts:  # a run of one is a 2-D product
                d, x = dz[rows], inputs[l][rows]
                if stack:
                    d, x = d.reshape(stack + d.shape[1:]), x.reshape(stack + x.shape[1:])
                grad_w[l][at] += d.mT @ x
                grad_b[l][at] += _column_sums(d)
            if l or input_grad:
                dz = np.matmul(dz, self.weights[l], out=_rows(self._grad_scratch, l, dz.shape[0]))
        input_grads = (dz[0] if single else dz) if input_grad else None
        return grads, input_grads


def _copy_keeps_bits(w: np.ndarray) -> bool:
    """Whether ``a @ wt``, for ``wt`` a C-contiguous copy of ``w.T``, is
    known to give the bits of ``a @ w.T`` for batches of two or more
    rows.  A width-one side makes numpy call BLAS gemv, whose value for
    a row can depend on the rows around it.
    OpenBLAS's dgemm (0.3.31, SkylakeX kernels) runs the two layouts
    through kernels that round differently when the fan-in is 16 or more
    and the fan-out is not a multiple of 8; below 16, or at a multiple of
    8, the two agreed for every fan-in and fan-out from 2 to 96."""
    fan_out, fan_in = w.shape
    return min(fan_out, fan_in) > 1 and (fan_in < 16 or fan_out % 8 == 0)


def _column_sums(dz: np.ndarray) -> np.ndarray:
    """``dz.sum(axis=-2)`` bit for bit, for a C-contiguous ``dz`` or stack
    of them.  Over two or more columns ``einsum`` adds the rows in the
    same order, in a third of the time; one row is its own sum, and one
    column is summed pairwise by ``sum``, which einsum would not match."""
    if dz.shape[-2] == 1:
        return dz[..., 0, :]
    return dz.sum(axis=-2) if dz.shape[-1] == 1 else np.einsum(("ij->j", "bij->bj")[dz.ndim - 2], dz)


def _rows(buffers: list, l: int, rows: int) -> np.ndarray:
    """The first ``rows`` rows of ``buffers[l]``, which is replaced by a
    larger buffer only when it is too short."""
    buf = buffers[l]
    if buf.shape[0] < rows:
        buf = buffers[l] = np.empty((rows, buf.shape[1]))
    return buf[:rows]


class Sgd:
    """Plain gradient descent, in place, on the ``params`` vector of a
    model: an Mlp or a KFormClassifier."""

    def __init__(self, model, lr: float):
        self.params = model.params
        self.lr = float(lr)

    def step(self, grad: np.ndarray) -> None:
        if not np.isfinite(grad).all():
            raise FloatingPointError("non-finite gradients: training diverged")
        self.params -= self.lr * grad


class Adam:
    """Adam with bias correction, in place, on the ``params`` vector of a
    model: an Mlp or a KFormClassifier.  State lives with the optimizer;
    only the lr is set per run, β1, β2 and ε are the usual constants."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, model, lr: float):
        self.params = model.params
        self.lr = float(lr)
        self.t = 0
        self._m = np.zeros_like(self.params)
        self._v = np.zeros_like(self.params)

    def step(self, grad: np.ndarray) -> None:
        if not np.isfinite(grad).all():
            raise FloatingPointError("non-finite gradients: training diverged")
        self.t += 1
        c1 = 1.0 - self.BETA1**self.t
        c2 = 1.0 - self.BETA2**self.t
        m, v = self._m, self._v
        m *= self.BETA1
        m += (1.0 - self.BETA1) * grad
        v *= self.BETA2
        v += (1.0 - self.BETA2) * grad * grad
        self.params -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.EPS)


def make_optimizer(name: str, model, lr: float):
    if name == "adam":
        return Adam(model, lr)
    if name == "sgd":
        return Sgd(model, lr)
    raise ValueError(f"unknown optimizer {name!r}")


# ---------------------------------------------------------------------------
# checkpoint container: magic, u32 header length, JSON header, little-endian
# float64 payload; for a model that payload is its ``params`` vector (per
# Mlp: layer 0 weights row-major, layer 0 bias, layer 1 ...)
# ---------------------------------------------------------------------------


def write_blob(path: str | os.PathLike, header: dict, params: np.ndarray) -> None:
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = np.ascontiguousarray(params, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_BLOB_MAGIC)
        fh.write(struct.pack("<I", len(payload)))
        fh.write(payload)
        fh.write(blob)


class _Header(dict):
    """Checkpoint header whose missing fields raise ValueError, not KeyError."""

    def __missing__(self, key):
        raise ValueError(f"checkpoint header has no field {key!r}")


def read_blob(path: str | os.PathLike) -> tuple[dict, np.ndarray]:
    """Header and float64 parameters of a checkpoint.  Anything but the
    magic, a u32 length, that many bytes of a JSON object and a whole
    number of float64 values raises ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _BLOB_MAGIC:
        raise ValueError(f"{path}: not a kforms checkpoint (bad magic {data[:4]!r})")
    if len(data) < 8:
        raise ValueError(f"{path}: checkpoint truncated inside the header length")
    (size,) = struct.unpack_from("<I", data, 4)
    if len(data) < 8 + size:
        raise ValueError(f"{path}: checkpoint truncated inside its {size}-byte header")
    try:
        header = json.loads(data[8 : 8 + size].decode("utf-8"), object_hook=_Header)
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise ValueError(f"{path}: checkpoint header is not valid JSON ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    if (len(data) - 8 - size) % 8:
        raise ValueError(f"{path}: checkpoint payload is not a whole number of float64 values")
    return header, np.frombuffer(data, dtype="<f8", offset=8 + size).astype(np.float64)


def mlp_header(mlp: Mlp) -> dict:
    return {
        "kind": "mlp",
        "dims": mlp.dims,
        "activation": mlp.activation,
        "param_count": mlp.num_params,
    }


def mlp_from_header(header: dict, params: np.ndarray) -> Mlp:
    """The Mlp a header describes, holding ``params``.  The dims and the
    parameter count they imply are checked before anything is allocated."""
    dims = header["dims"]
    if not (isinstance(dims, list) and len(dims) >= 2
            and all(type(d) is int and d > 0 for d in dims)):
        raise ValueError(f"checkpoint dims {dims!r} are not a list of at least two positive ints")
    count = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    if header.get("param_count", count) != count:
        raise ValueError("parameter count does not match header dims")
    if params.shape != (count,):
        raise ValueError(f"expected {count} parameters, got {params.size}")
    return Mlp(*_layer_views(params, dims), header["activation"])


def save_mlp(mlp: Mlp, path: str | os.PathLike) -> None:
    write_blob(path, mlp_header(mlp), mlp.params)


def load_mlp(path: str | os.PathLike) -> Mlp:
    header, params = read_blob(path)
    if header.get("kind") != "mlp":
        raise ValueError(f"{path}: expected an mlp checkpoint, found {header.get('kind')!r}")
    return mlp_from_header(header, params)
