"""Set-up outputs of whole default-sized datasets, pinned at the last
commit that built each path and each graph's complex on its own.

``data/pinned_dataset_scale.json`` holds, per case, the digests of
``test_pinned_datasets._dataset_digests`` (complexes, coordinates, chain
tuples, labels) for the 600 default paths (``PathDatasetSpec`` with seed 0
and with seed 1) and for a 200-graph ``make_tu`` set with node labels,
written and parsed, whose first, middle and last graphs have no edges.
The digests were written once and are never regenerated: building a
dataset's complexes in one batched pass must reproduce every byte.

    PYTHONPATH=src python3 tests/test_pinned_dataset_scale.py

prints the digests of the code on the path, in the file's format.
"""

import json
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np
import pytest

from conftest import make_tu
from kforms.data import PathDatasetSpec, gen_paths, parse_tu, tu_to_dataset, write_tu
from test_pinned_datasets import FIELDS, _dataset_digests

DATA = Path(__file__).parent / "data"
EDGELESS = (1, 100, 200)  # graph ids whose edges are dropped


def graphs_tu():
    """200 ``make_tu`` graphs with node attributes and labels, graphs
    ``EDGELESS`` stripped of their edges."""
    tu = make_tu(np.random.default_rng(2028), num_graphs=200, with_node_labels=True)
    keep = ~np.isin(tu.graph_indicator[tu.edges[:, 0] - 1], EDGELESS)
    return type(tu)(tu.name, tu.edges[keep], tu.graph_indicator, tu.graph_labels,
                    tu.node_attributes, tu.node_labels)


def scale_digests() -> dict:
    with TemporaryDirectory() as tmp:
        write_tu(graphs_tu(), Path(tmp) / "TOY")
        graphs = tu_to_dataset(parse_tu(Path(tmp) / "TOY"))
    return {
        "paths_seed_0": _dataset_digests(gen_paths(PathDatasetSpec(seed=0))),
        "paths_seed_1": _dataset_digests(gen_paths(PathDatasetSpec(seed=1))),
        "graphs_written": _dataset_digests(graphs),
    }


@pytest.fixture(scope="module")
def digests():
    return scale_digests()


@pytest.fixture(scope="module")
def pinned():
    with open(DATA / "pinned_dataset_scale.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_graphs_have_edgeless_graphs_first_in_the_middle_and_last():
    with TemporaryDirectory() as tmp:
        write_tu(graphs_tu(), Path(tmp) / "TOY")
        data = tu_to_dataset(parse_tu(Path(tmp) / "TOY"))
    edges = [item.complex.num_simplices(1) for item in data.items]
    assert len(edges) == 200
    assert [g + 1 for g, e in enumerate(edges) if e == 0] == list(EDGELESS)


def test_every_case_is_pinned(digests, pinned):
    assert sorted(digests) == sorted(pinned)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("case", ["paths_seed_0", "paths_seed_1", "graphs_written"])
def test_dataset_outputs_match_the_pinned_digests(digests, pinned, case, field):
    assert digests[case][field] == pinned[case][field]


if __name__ == "__main__":
    print(json.dumps(scale_digests(), indent=1, sort_keys=True))
