"""Short seeded training runs pinned at commit 11f4c41, which ran the
forward and backward pass of every training item on its own.

``data/pinned_chunked_training.json`` holds SHA-256 digests of the final
``params`` and of the ``history`` of each run below: on the 300 default
paths, every readout, batch sizes 1, 16 and 240 (the whole train split),
the k = 0 vertex chains of ``rechain_dataset``, a form MLP of width one
(not ``Mlp.rows_independent``), tanh and sigmoid, plain SGD and a head;
on small surfaces sets, items above ``ROW_BUDGET`` MLP rows (grid 10)
and below it (grids 6 and 4).  The digests were written once and are
never regenerated: a change to how a minibatch's passes are grouped
must reproduce every bit.

    PYTHONPATH=src python3 tests/test_pinned_chunked_training.py

prints the digests of the code on the path, in the file's format.
"""

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from kforms.data import PathDatasetSpec, SurfaceDatasetSpec, gen_paths, gen_surfaces
from kforms.model import TrainConfig, rechain_dataset, train
from kforms.quadrature import ROW_BUDGET, mlp_rows

DATA = Path(__file__).parent / "data"
PATHS = TrainConfig(k=1, num_forms=3, hidden_dim=16, max_epochs=3, use_head=False, seed=7)
SURFACES = TrainConfig(k=2, num_forms=2, hidden_dim=8, max_epochs=3, batch_size=4,
                       use_head=False, readout="column_l2", val_fraction=0.25, seed=5)
# name -> (dataset, changes to the base config of its kind)
CASES = {
    "paths_sum": ("paths", {}),
    "paths_l1": ("paths", {"readout": "column_l1"}),
    "paths_l2": ("paths", {"readout": "column_l2"}),
    "paths_batch_1": ("paths", {"batch_size": 1, "max_epochs": 1}),
    "paths_batch_240": ("paths", {"batch_size": 240, "max_epochs": 4}),
    "paths_k0": ("paths_k0", {"k": 0}),
    "paths_width_one": ("paths", {"hidden_dim": 1}),
    "paths_tanh": ("paths", {"activation": "tanh"}),
    "paths_sigmoid": ("paths", {"activation": "sigmoid", "readout": "column_l2"}),
    "paths_sgd": ("paths", {"optimizer": "sgd", "lr": 0.05}),
    "paths_head": ("paths", {"use_head": True, "readout": "column_l1"}),
    "surfaces_grid_10": ("surfaces_10", {}),
    "surfaces_grid_6": ("surfaces_6", {"activation": "tanh"}),
    "surfaces_grid_4": ("surfaces_4", {"use_head": True, "readout": "column_sum"}),
}


@functools.lru_cache(maxsize=None)
def dataset(name: str):
    if name.startswith("surfaces"):
        grid = int(name.rsplit("_", 1)[1])
        return gen_surfaces(SurfaceDatasetSpec(grid_size=grid, samples_per_class=6, seed=2))
    paths = gen_paths(PathDatasetSpec())
    return rechain_dataset(paths, 0) if name == "paths_k0" else paths


def run_digests(case: str) -> dict:
    name, changes = CASES[case]
    base = SURFACES if name.startswith("surfaces") else PATHS
    result = train(dataclasses.replace(base, **changes), dataset(name))
    history = json.dumps(result.history, sort_keys=True).encode()
    params = np.ascontiguousarray(result.classifier.params, dtype="<f8").tobytes()
    return {
        "history": hashlib.sha256(history).hexdigest(),
        "params": hashlib.sha256(params).hexdigest(),
    }


def test_surfaces_sets_straddle_the_budget():
    rows = {name: mlp_rows(2, SURFACES.steps) * dataset(name).items[0].chains.used.size
            for name in ("surfaces_10", "surfaces_6", "surfaces_4")}
    assert rows["surfaces_10"] > ROW_BUDGET >= rows["surfaces_6"] > rows["surfaces_4"]
    assert 2 * rows["surfaces_4"] <= ROW_BUDGET  # several grid-4 items fit in one chunk


@pytest.mark.parametrize("case", list(CASES))
def test_training_run_keeps_its_bits(case):
    with open(DATA / "pinned_chunked_training.json", encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert run_digests(case) == pinned[case]


if __name__ == "__main__":
    print(json.dumps({case: run_digests(case) for case in CASES}, indent=1, sort_keys=True))
