"""Checkpoints written by kforms 0.1.0 at commit 8b2b843 must keep loading.

``tests/data`` holds one file of each kind that commit wrote: a
classifier with a head (``save_classifier``), a bare form
(``save_form``) and a bare MLP (``save_mlp``), all with random nonzero
parameters, biases included.  ``pinned_outputs.json`` holds what that
commit computed from them on fixed inputs, as repr floats; the loaders
of today must reproduce every value bit for bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from kforms.forms import load_form
from kforms.model import Item, load_classifier
from kforms.nn import load_mlp
from kforms.quadrature import integration_matrix
from kforms.simplicial import (
    ChainTuple,
    Embedding,
    build_complex,
    path_to_complex,
    standard_basis_chains,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def pinned():
    with open(DATA / "pinned_outputs.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_classifier_with_head(pinned):
    clf = load_classifier(DATA / "classifier_head.kfc")
    assert clf.head is not None and clf.readout == "column_l2" and clf.steps == 3
    for pts, feats, logits in zip(
        pinned["paths"], pinned["classifier_features"], pinned["classifier_logits"]
    ):
        complex_, embedding, chain = path_to_complex(np.asarray(pts))
        item = Item(complex_, embedding, ChainTuple((chain,)), 0)
        assert np.array_equal(clf.features(item), feats)
        assert np.array_equal(clf.forward(item), logits)


def test_bare_form(pinned):
    form = load_form(DATA / "form.kfc")
    assert (form.n, form.k, form.num_forms) == (3, 2, 2)
    complex_ = build_complex([tuple(t) for t in pinned["triangles"]], num_vertices=4)
    embedding = Embedding(np.asarray(pinned["coords"]))
    X = integration_matrix(form, complex_, embedding, standard_basis_chains(complex_, 2), 3)
    assert np.array_equal(X, pinned["form_integrals"])
    scalings = form.eval_scalings(np.asarray(pinned["form_points"]))
    assert np.array_equal(scalings, pinned["form_scalings"])


def test_bare_mlp(pinned):
    mlp = load_mlp(DATA / "mlp.kfc")
    assert mlp.dims == [2, 3, 2] and mlp.activation == "relu"
    assert np.array_equal(mlp.forward(np.asarray(pinned["mlp_points"])), pinned["mlp_outputs"])
