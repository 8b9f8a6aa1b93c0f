"""A seeded paths training run whose schedule acts, pinned at commit 8328b6d.

``data/pinned_schedule.json`` holds SHA-256 digests of the final
``params`` and of the ``history`` of one headless ``train`` run on a
small paths set.  Its validation loss improves, plateaus, improves
again and plateaus for good: the lr is halved after epochs 19 and 25
(and once more at epoch 27), and the run stops early after epoch 27,
four epochs after its best.  A change to when training halves the lr,
stops, shuffles or restores the best parameters changes the digests.
They were written once and are never regenerated.

    PYTHONPATH=src python3 tests/test_pinned_schedule.py

prints the digests of the code on the path, in the file's format.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from kforms.data import PathDatasetSpec, gen_paths
from kforms.model import TrainConfig, train
from kforms.nn import Adam

DATA = Path(__file__).parent / "data"
SPEC = PathDatasetSpec(samples_per_class=5, points_per_path=8, seed=0)
CONFIG = TrainConfig(num_forms=3, hidden_dim=8, lr=1.0, batch_size=4, max_epochs=40,
                     plateau_patience=2, early_stop_patience=4, use_head=False, seed=0)


def schedule_digests() -> dict:
    result = train(CONFIG, gen_paths(SPEC))
    history = json.dumps(result.history, sort_keys=True).encode()
    params = np.ascontiguousarray(result.classifier.params, dtype="<f8").tobytes()
    return {
        "history": hashlib.sha256(history).hexdigest(),
        "params": hashlib.sha256(params).hexdigest(),
    }


def test_run_halves_the_lr_twice_and_stops_early(monkeypatch):
    rates = []  # (step, lr) whenever a step runs at a new lr
    step = Adam.step

    def logged(self, grad):
        if not rates or rates[-1][1] != self.lr:
            rates.append((self.t, self.lr))
        step(self, grad)

    monkeypatch.setattr(Adam, "step", logged)
    result = train(CONFIG, gen_paths(SPEC))
    epochs = len(result.history) // 2 - 1
    steps_per_epoch = -(-len(result.train_indices) // CONFIG.batch_size)
    assert rates == [(0, 1.0), (19 * steps_per_epoch, 0.5), (25 * steps_per_epoch, 0.25)]
    assert result.best_epoch == 23
    assert epochs == result.best_epoch + CONFIG.early_stop_patience < CONFIG.max_epochs


def test_schedule_run_keeps_its_bits():
    with open(DATA / "pinned_schedule.json", encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert schedule_digests() == pinned


if __name__ == "__main__":
    print(json.dumps(schedule_digests(), indent=1, sort_keys=True))
