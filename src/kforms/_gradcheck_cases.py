"""Small smooth pipelines used by the gradient-check command.

Each case is a tiny classifier over a single embedded triangle (with
its closure), built with tanh activations so the finite-difference
comparison is not polluted by relu kinks.
"""

from __future__ import annotations

import numpy as np

from .model import Item, TrainConfig, build_classifier
from .simplicial import ChainTuple, build_complex, standard_basis_chains, Embedding


def build_cases(seed: int):
    """Return a list of ``(label, classifier, item)`` triples covering
    degrees 0, 1 and 2 under both a signed and a norm readout."""
    rng = np.random.default_rng(seed)
    complex_ = build_complex([(0, 1, 2), (1, 2, 3)], num_vertices=4)
    coords = rng.normal(0.0, 1.0, size=(4, 3))
    embedding = Embedding(np.asarray(coords))
    cases = []
    for k in (0, 1, 2):
        basis = standard_basis_chains(complex_, k)
        chains = ChainTuple(list(basis)[:2])
        item = Item(complex_, embedding, chains, label=1)
        for readout in ("column_sum", "column_l2"):
            cfg = TrainConfig(
                k=k,
                num_forms=2,
                hidden_dim=6,
                steps=2,
                seed=seed,
                readout=readout,
                activation="tanh",
                use_head=True,
            )
            classifier = build_classifier(3, 3, cfg, np.random.default_rng(seed + k))
            cases.append((f"k={k} readout={readout}", classifier, item))
    return cases
