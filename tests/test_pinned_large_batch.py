"""Large-batch MLP outputs pinned at commit 30140ac, which refilled the
contiguous ``w.T`` copies and broadcast each bias on every pass.

``data/pinned_large_batch.json`` holds SHA-256 digests of what that
commit computed on batches of thousands of rows: the integration
matrices of the 200 seed-0 default ``gen_surfaces`` items (3,402 MLP
rows each) under ``data/form.kfc`` at 5 steps, and a seeded
``[3, 16, 8, 6]`` relu MLP on 3,402 seeded rows, before and after its
parameters are rewritten in place.  The digests were written once and
are never regenerated: a change to the multi-row path must reproduce
every bit.

    PYTHONPATH=src python3 tests/test_pinned_large_batch.py

prints the digests of the code on the path, in the file's format.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from kforms.data import SurfaceDatasetSpec, gen_surfaces
from kforms.forms import load_form
from kforms.nn import Mlp
from kforms.quadrature import integration_matrix

DATA = Path(__file__).parent / "data"


def _digest(arrays) -> str:
    """SHA-256 over each float64 array's shape and little-endian bytes."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def large_batch_digests() -> dict:
    form = load_form(DATA / "form.kfc")
    items = gen_surfaces(SurfaceDatasetSpec(seed=0)).items
    surfaces = [integration_matrix(form, i.complex, i.embedding, i.chains, 5) for i in items]
    rng = np.random.default_rng(19)
    mlp = Mlp.init([3, 16, 8, 6], "relu", rng)
    mlp.params += 0.1 * rng.normal(size=mlp.num_params)  # nonzero biases
    x = rng.normal(size=(3402, 3))
    before = mlp.forward(x)
    mlp.params[:] = rng.normal(size=mlp.num_params)
    return {
        "surfaces_form_integrals": _digest(surfaces),
        "mlp_forward": _digest([before, mlp.forward(x)]),
    }


def test_large_batches_keep_their_bits():
    with open(DATA / "pinned_large_batch.json", encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert large_batch_digests() == pinned


if __name__ == "__main__":
    print(json.dumps(large_batch_digests(), indent=1, sort_keys=True))
