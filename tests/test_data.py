import re
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_tu
from kforms.data import (
    DataFormatError,
    PathDatasetSpec,
    SurfaceDatasetSpec,
    TuDataset,
    gen_paths,
    gen_surfaces,
    parse_tu,
    tu_to_dataset,
    write_tu,
)


class TestPathGeneration:
    def test_counts_and_labels(self):
        data = gen_paths(PathDatasetSpec(samples_per_class=5, points_per_path=8))
        assert len(data) == 15
        assert data.num_classes == 3
        assert list(data.labels()) == [0] * 5 + [1] * 5 + [2] * 5
        for item in data.items:
            assert item.embedding.num_vertices == 8
            assert item.embedding.ambient_dim == 2
            assert len(item.chains) == 1
            assert item.chains.dim == 1

    def test_regeneration_is_bit_identical(self):
        spec = PathDatasetSpec(samples_per_class=4, points_per_path=10, seed=9)
        a = gen_paths(spec)
        b = gen_paths(spec)
        for x, y in zip(a.items, b.items):
            assert np.array_equal(x.embedding.coords, y.embedding.coords)
            assert x.chains.chains == y.chains.chains
            assert x.complex == y.complex

    def test_different_seeds_differ(self):
        a = gen_paths(PathDatasetSpec(samples_per_class=2, points_per_path=6, seed=0))
        b = gen_paths(PathDatasetSpec(samples_per_class=2, points_per_path=6, seed=1))
        assert not np.array_equal(a.items[0].embedding.coords, b.items[0].embedding.coords)

    def test_arc_classes_share_geometry_without_noise(self):
        # classes 0 and 1 traverse the same arc in opposite directions, so
        # after removing each item's rigid translation the canonical
        # (sorted) vertex sets coincide exactly
        data = gen_paths(PathDatasetSpec(samples_per_class=3, points_per_path=12, noise=0.0))
        zeroed = []
        for item in data.items:
            if item.label == 2:
                continue
            coords = item.embedding.coords
            zeroed.append((item.label, coords - coords.min(axis=0)))
        arcs0 = [c for lbl, c in zeroed if lbl == 0]
        arcs1 = [c for lbl, c in zeroed if lbl == 1]
        for c0 in arcs0:
            for c1 in arcs1:
                assert np.allclose(c0, c1, atol=1e-12)

    def test_arc_chains_have_opposite_net_direction(self):
        # the sum of signed coefficients tracks traversal direction:
        # monotone-in-x arcs give +(points-1) one way, -(points-1) back
        data = gen_paths(PathDatasetSpec(samples_per_class=1, points_per_path=16, noise=0.0))
        net = {item.label: sum(c for _, c in item.chains[0].terms) for item in data.items}
        assert net[0] == -net[1]
        assert abs(net[0]) == 15

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PathDatasetSpec(samples_per_class=0)
        with pytest.raises(ValueError):
            PathDatasetSpec(points_per_path=1)
        with pytest.raises(ValueError):
            PathDatasetSpec(noise=-0.1)


class TestSurfaceGeneration:
    def test_counts_shapes_and_shared_complex(self):
        data = gen_surfaces(SurfaceDatasetSpec(grid_size=6, samples_per_class=3))
        assert len(data) == 6
        assert data.num_classes == 2
        first = data.items[0]
        assert first.complex.num_simplices(2) == 2 * 5 * 5
        assert first.embedding.ambient_dim == 3
        for item in data.items[1:]:
            assert item.complex is first.complex
            assert item.chains is first.chains
        assert len(first.chains) == first.complex.num_simplices(2)

    def test_default_grid_has_162_triangles(self):
        data = gen_surfaces(SurfaceDatasetSpec(samples_per_class=1))
        assert data.items[0].complex.num_simplices(2) == 162

    def test_height_tracks_the_class_axis(self):
        data = gen_surfaces(
            SurfaceDatasetSpec(grid_size=5, samples_per_class=2, noise=0.0, translation=0.3)
        )
        for item in data.items:
            coords = item.embedding.coords
            x = coords[:, 0] - coords[:, 0].min()
            y = coords[:, 1] - coords[:, 1].min()
            expected = np.sin(x) if item.label == 0 else np.sin(y)
            assert np.allclose(coords[:, 2], expected, atol=1e-12)

    def test_regeneration_is_bit_identical(self):
        spec = SurfaceDatasetSpec(grid_size=4, samples_per_class=2, seed=3)
        a = gen_surfaces(spec)
        b = gen_surfaces(spec)
        for x, y in zip(a.items, b.items):
            assert np.array_equal(x.embedding.coords, y.embedding.coords)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SurfaceDatasetSpec(grid_size=1)
        with pytest.raises(ValueError):
            SurfaceDatasetSpec(translation=-1.0)


class TestTuParsing:
    def test_write_parse_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        tu = make_tu(rng, num_graphs=8, with_node_labels=True)
        write_tu(tu, tmp_path / "TOY")
        back = parse_tu(tmp_path / "TOY")
        assert back.name == "TOY"
        assert back.num_graphs == 8
        assert np.array_equal(back.graph_indicator, tu.graph_indicator)
        assert np.array_equal(back.graph_labels, tu.graph_labels)
        assert np.array_equal(back.node_labels, tu.node_labels)
        # repr-format floats survive the text round trip exactly
        assert np.array_equal(back.node_attributes, tu.node_attributes)
        mine = {(min(a, b), max(a, b)) for a, b in tu.edges}
        theirs = {(min(a, b), max(a, b)) for a, b in back.edges}
        assert mine == theirs

    def test_name_inference_requires_single_dataset(self, tmp_path, tu_dir):
        with pytest.raises(DataFormatError, match="exactly one"):
            parse_tu(tmp_path)  # empty directory
        (tu_dir / "OTHER_A.txt").write_text("1, 2\n")
        with pytest.raises(DataFormatError, match="exactly one"):
            parse_tu(tu_dir)

    def test_missing_required_file(self, tu_dir):
        (tu_dir / "TOY_graph_labels.txt").unlink()
        with pytest.raises(DataFormatError, match="missing required"):
            parse_tu(tu_dir)

    def test_label_count_mismatch(self, tu_dir):
        path = tu_dir / "TOY_graph_labels.txt"
        path.write_text(path.read_text() + "0\n")
        with pytest.raises(DataFormatError, match="labels"):
            parse_tu(tu_dir)

    def test_edge_node_out_of_range(self, tu_dir):
        with open(tu_dir / "TOY_A.txt", "a", encoding="utf-8") as fh:
            fh.write("1, 100000\n")
        with pytest.raises(DataFormatError, match="outside"):
            parse_tu(tu_dir)

    def test_non_contiguous_graph_ids(self, tu_dir):
        path = tu_dir / "TOY_graph_indicator.txt"
        path.write_text(path.read_text().replace("1\n", "99\n", 1))
        with pytest.raises(DataFormatError, match="contiguous"):
            parse_tu(tu_dir)

    def test_attribute_row_count_mismatch(self, tu_dir):
        path = tu_dir / "TOY_node_attributes.txt"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("0.0, 0.0\n")
        with pytest.raises(DataFormatError, match="rows"):
            parse_tu(tu_dir)

    def test_ragged_attribute_rows(self, tu_dir):
        path = tu_dir / "TOY_node_attributes.txt"
        with open(path, "r+", encoding="utf-8") as fh:
            body = fh.read()
            fh.seek(0)
            fh.write(body.replace(", ", ", 1.5, ", 1))
        with pytest.raises(DataFormatError, match="ragged"):
            parse_tu(tu_dir)

    def test_malformed_integer(self, tu_dir):
        with open(tu_dir / "TOY_A.txt", "a", encoding="utf-8") as fh:
            fh.write("1, x\n")
        with pytest.raises(DataFormatError, match="integer"):
            parse_tu(tu_dir)

    @pytest.mark.parametrize("suffix, row", [("_A.txt", "1, 99999999999999999999"),
                                             ("_graph_indicator.txt", "99999999999999999999")])
    def test_id_beyond_int64_rejected(self, tu_dir, suffix, row):
        path = tu_dir / f"TOY{suffix}"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [row]) + "\n")
        message = f"{path}, line {len(lines) + 1}: integer out of int64 range"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            parse_tu(tu_dir)

    def test_explicit_name_overrides_inference(self, tu_dir):
        tu = parse_tu(tu_dir, name="TOY")
        assert tu.name == "TOY"


class TestTuToDataset:
    def test_basic_conversion(self, tu_dir):
        tu = parse_tu(tu_dir)
        data = tu_to_dataset(tu)
        assert len(data) == tu.num_graphs
        assert data.num_classes == 2
        assert data.ambient_dim == 2
        assert data.chain_dim == 1
        for g, item in enumerate(data.items):
            nodes = np.flatnonzero(tu.graph_indicator == g + 1)
            assert np.array_equal(item.embedding.coords, tu.node_attributes[nodes])

    def test_labels_remapped_in_sorted_order(self):
        tu = TuDataset(
            name="REMAP",
            edges=np.zeros((0, 2), dtype=np.int64),
            graph_indicator=np.array([1, 2, 3]),
            graph_labels=np.array([7, -2, 7]),
            node_attributes=np.ones((3, 1)),
            node_labels=None,
        )
        data = tu_to_dataset(tu)
        assert data.num_classes == 2
        assert [it.label for it in data.items] == [1, 0, 1]

    def test_duplicate_and_self_loop_edges_cleaned(self):
        tu = TuDataset(
            name="DUP",
            edges=np.array([[1, 2], [2, 1], [1, 2], [1, 1], [2, 3]]),
            graph_indicator=np.array([1, 1, 1]),
            graph_labels=np.array([0]),
            node_attributes=np.eye(3),
            node_labels=None,
        )
        data = tu_to_dataset(tu)
        item = data.items[0]
        assert item.complex.simplices(1) == ((0, 1), (1, 2))

    def test_edgeless_graph_gets_empty_chain(self):
        tu = TuDataset(
            name="LONE",
            edges=np.array([[1, 2]]),
            graph_indicator=np.array([1, 1, 2]),
            graph_labels=np.array([0, 1]),
            node_attributes=np.ones((3, 2)),
            node_labels=None,
        )
        data = tu_to_dataset(tu)
        lonely = data.items[1]
        assert lonely.complex.num_simplices(1) == 0
        assert len(lonely.chains) == 1
        assert lonely.chains[0].terms == ()

    def test_one_hot_node_labels_extend_coordinates(self, tmp_path):
        rng = np.random.default_rng(1)
        tu = make_tu(rng, num_graphs=6, with_node_labels=True)
        data = tu_to_dataset(tu)
        assert data.ambient_dim == 2 + len(np.unique(tu.node_labels))
        onehot = data.items[0].embedding.coords[:, 2:]
        assert np.all((onehot == 0.0) | (onehot == 1.0))
        assert np.allclose(onehot.sum(axis=1), 1.0)

    def test_attribute_column_subset(self, tu_dir):
        tu = parse_tu(tu_dir)
        data = tu_to_dataset(tu, attribute_columns=[1])
        assert data.ambient_dim == 1
        full = tu_to_dataset(tu)
        assert np.array_equal(
            data.items[0].embedding.coords[:, 0], full.items[0].embedding.coords[:, 1]
        )

    @pytest.mark.parametrize("column", [2, 99, -1])
    def test_attribute_column_out_of_range(self, tu_dir, column):
        with pytest.raises(DataFormatError, match=f"attribute column {column} outside 0..1"):
            tu_to_dataset(parse_tu(tu_dir), attribute_columns=[0, column])

    def test_standardize_centers_and_scales(self, tu_dir):
        tu = parse_tu(tu_dir)
        data = tu_to_dataset(tu, standardize=True)
        stacked = np.concatenate([it.embedding.coords for it in data.items])
        assert np.allclose(stacked.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(stacked.std(axis=0), 1.0, atol=1e-10)

    def test_no_vertex_features_rejected(self):
        tu = TuDataset(
            name="BARE",
            edges=np.array([[1, 2]]),
            graph_indicator=np.array([1, 1]),
            graph_labels=np.array([0]),
            node_attributes=None,
            node_labels=None,
        )
        with pytest.raises(DataFormatError, match="attributes or labels"):
            tu_to_dataset(tu)

    def test_cross_graph_edge_rejected(self):
        tu = TuDataset(
            name="CROSS",
            edges=np.array([[1, 3]]),
            graph_indicator=np.array([1, 1, 2]),
            graph_labels=np.array([0, 1]),
            node_attributes=np.ones((3, 1)),
            node_labels=None,
        )
        with pytest.raises(DataFormatError, match="different graphs"):
            tu_to_dataset(tu)



@lru_cache(maxsize=None)
def _valid_tu_files() -> tuple:
    """(suffix, lines) of each file of a small valid TU dataset."""
    with tempfile.TemporaryDirectory() as tmp:
        tu = make_tu(np.random.default_rng(5), num_graphs=4, with_node_labels=True, name="FZ")
        write_tu(tu, tmp)
        return tuple(
            (p.name[len("FZ"):], tuple(p.read_text().splitlines()))
            for p in sorted(Path(tmp).iterdir())
        )


_FIELDS = st.sampled_from(
    ["1", "2", "3", "0", "-1", " 4", "", "x", "1.5", "nan", "1e999", "99999999999999999999",
     "9223372036854775807", "-9223372036854775808"]
)
# (file, line position, replacement row or None to delete that line)
_EDITS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 60),
              st.none() | st.lists(_FIELDS, min_size=1, max_size=3).map(", ".join)),
    min_size=1,
    max_size=4,
)


class TestTuFuzz:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(edits=_EDITS, drop_optional=st.sets(st.sampled_from(["_node_attributes.txt",
                                                                "_node_labels.txt"])))
    def test_damaged_files_parse_or_fail_cleanly(self, edits, drop_optional):
        """A valid dataset with lines replaced, deleted or appended either
        loads or raises DataFormatError or ValueError, nothing else."""
        files = {suffix: list(lines) for suffix, lines in _valid_tu_files()}
        suffixes = sorted(files)
        for which, pos, row in edits:
            lines = files[suffixes[which % len(suffixes)]]
            pos %= len(lines) + 1
            if row is None:
                del lines[pos:pos + 1]
            else:
                lines[pos:pos + 1] = [row]
        with tempfile.TemporaryDirectory() as tmp:
            for suffix, lines in files.items():
                if suffix not in drop_optional:
                    Path(tmp, f"FZ{suffix}").write_text("\n".join(lines) + "\n")
            try:
                tu_to_dataset(parse_tu(tmp))
            except (DataFormatError, ValueError):
                pass
