"""Minimal multi-layer perceptron with hand-rolled reverse-mode gradients.

The only differentiable atoms the rest of the package needs are affine
layers and pointwise activations, so gradients are computed by a fixed
backward pipeline over the layer stack instead of a general tape.  All
arithmetic is float64 numpy; everything is deterministic given the seed
used at initialization.
"""

from __future__ import annotations

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
    """Weight (out, in) and bias (out,) views into a flat parameter vector
    laid out for an Mlp with layer sizes ``dims``."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(vector[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
        biases.append(vector[pos : pos + fan_out])
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

    ``forward`` writes the hidden activations into scratch buffers owned
    by the instance, which grow to the largest batch seen and are reused
    after that; one Mlp must therefore not run ``forward`` from two
    threads at once.  ``forward_cached`` allocates everything it keeps,
    and every output is a fresh array.
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

    def copy(self) -> "Mlp":
        return Mlp(self.weights, self.biases, self.activation)

    def forward(self, x) -> np.ndarray:
        """Evaluate at a point (d_in,) or batch (B, d_in)."""
        return self._run(x, None)

    def forward_cached(self, x):
        """Forward pass keeping the intermediates the backward pass needs.

        Returns (output, cache); cache holds the input of every layer for
        the same (possibly batched) input.
        """
        inputs: list[np.ndarray] = []
        out = self._run(x, inputs)
        return out, (inputs, np.ndim(x) == 1)

    def _run(self, x, inputs: list | None) -> np.ndarray:
        """The layer loop behind both forward passes.  With ``inputs`` a
        list, each layer's input is appended to it and the hidden
        activations are fresh arrays; with None they go to scratch."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        a = x[None, :] if single else x
        if a.ndim != 2 or a.shape[1] != self.in_dim:
            raise ValueError(f"input shape {x.shape} does not match in_dim {self.in_dim}")
        if not np.isfinite(a).all():
            raise ValueError("non-finite input")
        last = self.num_layers - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if inputs is not None:
                inputs.append(a)
            if l == last or inputs is not None:
                z = a @ w.T
            else:
                z = np.matmul(a, w.T, out=self._scratch_rows(l, a.shape[0]))
            z += b
            a = _activate(self.activation, z) if l < last else z
        return a[0] if single else a

    def _scratch_rows(self, l: int, rows: int) -> np.ndarray:
        """The first ``rows`` rows of hidden layer l's scratch buffer,
        which is replaced by a larger one only when it is too short."""
        buf = self._scratch[l]
        if buf.shape[0] < rows:
            buf = self._scratch[l] = np.empty((rows, buf.shape[1]))
        return buf[:rows]

    def backward(self, cache, upstream):
        """Exact reverse-mode gradients of ``forward`` at the cached input.

        ``upstream`` is dLoss/d(output) with the output's shape.  Returns
        (dLoss/d(params), dLoss/d(input)); the first is a fresh vector
        laid out like ``params``.  The activation derivatives are taken
        from the cached activations (the next layer's input).
        """
        inputs, single = cache
        g = np.asarray(upstream, dtype=np.float64)
        if single:
            g = g[None, :]
        if g.shape != (inputs[0].shape[0], self.out_dim):
            raise ValueError(f"upstream shape {upstream.shape} does not match output")
        grad = np.zeros_like(self.params)
        grad_w, grad_b = _layer_views(grad, self.dims)
        dz = g
        for l in range(self.num_layers - 1, -1, -1):
            if l < self.num_layers - 1:
                dz *= _activate_grad(self.activation, inputs[l + 1])  # dz is ours: from dz @ w
            grad_w[l] += dz.T @ inputs[l]
            grad_b[l] += dz.sum(axis=0)
            dz = dz @ self.weights[l]
        dx = dz[0] if single else dz
        return grad, dx


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
    model: an Mlp or a KFormClassifier.  State lives with the optimizer."""

    def __init__(self, model, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = model.params
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = np.zeros_like(self.params)
        self._v = np.zeros_like(self.params)

    def step(self, grad: np.ndarray) -> None:
        if not np.isfinite(grad).all():
            raise FloatingPointError("non-finite gradients: training diverged")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        self.params -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


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
