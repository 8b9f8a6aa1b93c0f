import math
import re
import tempfile
import warnings
from functools import lru_cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from conftest import make_tu
from kforms.data import (
    DataFormatError,
    PathDatasetSpec,
    SurfaceDatasetSpec,
    TuDataset,
    gen_paths,
    gen_surfaces,
    _read_rows,
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
            assert x.chains == y.chains
            assert x.complex == y.complex

    def test_regenerated_items_are_equal_with_equal_hashes(self):
        spec = PathDatasetSpec(samples_per_class=2, points_per_path=6, seed=9)
        a, b = gen_paths(spec), gen_paths(spec)
        assert a.items[0].embedding is not b.items[0].embedding
        assert a == b and hash(a) == hash(b)
        for x, y in zip(a.items, b.items):
            assert x == y and hash(x) == hash(y)
        assert a != gen_paths(PathDatasetSpec(samples_per_class=2, points_per_path=6, seed=8))

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

    @pytest.mark.parametrize("noise", [math.inf, math.nan, 10**400])
    def test_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match=r"^noise must be nonnegative and finite, got "):
            PathDatasetSpec(noise=noise)


@pytest.mark.parametrize("spec", [PathDatasetSpec, SurfaceDatasetSpec])
def test_negative_seed_rejected(spec):
    with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
        spec(seed=-1)


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
        with pytest.raises(ValueError, match="^need at least one sample per class$"):
            SurfaceDatasetSpec(samples_per_class=0)
        with pytest.raises(ValueError):
            SurfaceDatasetSpec(grid_size=1)
        with pytest.raises(ValueError):
            SurfaceDatasetSpec(translation=-1.0)

    @pytest.mark.parametrize("name", ["noise", "translation"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 10**400])
    def test_non_finite_spread_rejected(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be nonnegative and finite, got "):
            SurfaceDatasetSpec(**{name: value})


@pytest.mark.parametrize(
    "spec, name, value, kind",
    [(PathDatasetSpec, "samples_per_class", True, "an int"),
     (PathDatasetSpec, "samples_per_class", 1.5, "an int"),
     (PathDatasetSpec, "points_per_path", 2.5, "an int"),
     (PathDatasetSpec, "seed", "1", "an int"),
     (PathDatasetSpec, "points_per_path", np.int64(3), "an int"),
     (PathDatasetSpec, "noise", True, "a number"),
     (PathDatasetSpec, "noise", "0.1", "a number"),
     (SurfaceDatasetSpec, "grid_size", 3.5, "an int"),
     (SurfaceDatasetSpec, "samples_per_class", 1.5, "an int"),
     (SurfaceDatasetSpec, "samples_per_class", False, "an int"),
     (SurfaceDatasetSpec, "translation", True, "a number"),
     (SurfaceDatasetSpec, "noise", None, "a number")],
)
def test_spec_value_of_the_wrong_type_rejected(spec, name, value, kind):
    with pytest.raises(ValueError) as info:
        spec(**{name: value})
    assert str(info.value) == f"{name} must be {kind}, got {value!r}"


def test_specs_take_an_int_or_a_float_subclass_for_a_float():
    path = PathDatasetSpec(samples_per_class=1, points_per_path=3, noise=0)
    surface = SurfaceDatasetSpec(grid_size=2, samples_per_class=1, noise=np.float64(0.01),
                                 translation=1)
    assert len(gen_paths(path)) == 3 and len(gen_surfaces(surface)) == 2


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

    def test_missing_directory_is_named(self, tmp_path):
        missing = tmp_path / "NOPE"
        message = f"^{re.escape(str(missing))}: no such directory$"
        for name in (None, "TOY"):
            with pytest.raises(DataFormatError, match=message):
                parse_tu(missing, name)

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

    @pytest.mark.parametrize("suffix, row, what", [("_A.txt", "1_0, 2", "an integer"),
                                                   ("_node_attributes.txt", "1_0.5, 0.0", "a number")])
    def test_underscore_digit_separator_rejected(self, tu_dir, suffix, row, what):
        path = tu_dir / f"TOY{suffix}"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [row]) + "\n")
        message = f"{path}, line {len(lines) + 1}: not {what}: {row!r}"
        with pytest.raises(DataFormatError, match=re.escape(message)):
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

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e999"])
    def test_non_finite_attribute_rejected(self, tu_dir, value):
        path = tu_dir / "TOY_node_attributes.txt"
        lines = path.read_text().splitlines()
        row = f"0.5, {value}"
        # a blank line before the bad row: the message counts file lines, not rows
        path.write_text("\n".join(lines[:2] + ["", row] + lines[3:]) + "\n")
        message = f"{path}, line 4: not a finite number: {row!r}"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            parse_tu(tu_dir)

    @pytest.mark.parametrize("suffix, row, what", [("_A.txt", "1, \u0663", "an integer"),
                                                   ("_node_attributes.txt", "\u0661.5, 0", "a number")])
    def test_non_ascii_digits_rejected(self, tu_dir, suffix, row, what):
        # int() and float() read Arabic-Indic digits; the reader takes ASCII only
        path = tu_dir / f"TOY{suffix}"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [row]) + "\n", encoding="utf-8")
        message = f"{path}, line {len(lines) + 1}: not {what}: {row!r}"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            parse_tu(tu_dir)

    def test_non_utf8_file_rejected(self, tu_dir):
        path = tu_dir / "TOY_graph_labels.txt"
        path.write_bytes(b"0\n\xff\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: not UTF-8 text")):
            parse_tu(tu_dir)

    def test_whitespace_only_lines_are_blank(self, tu_dir):
        before = parse_tu(tu_dir)
        for path in tu_dir.iterdir():
            lines = path.read_text().splitlines()
            path.write_text("\n".join(["   "] + lines[:1] + ["\t", " "] + lines[1:]) + "\n")
        after = parse_tu(tu_dir)
        for field in ("edges", "graph_indicator", "graph_labels", "node_attributes"):
            assert getattr(after, field).tobytes() == getattr(before, field).tobytes()

    def test_bad_line_after_blank_lines_names_the_file_line(self, tu_dir):
        path = tu_dir / "TOY_A.txt"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + ["", "  ", "1, x"] + lines[1:]) + "\n")
        message = f"{path}, line 4: not an integer: '1, x'"
        with pytest.raises(DataFormatError, match=re.escape(message)):
            parse_tu(tu_dir)


class TestTuEmptyInputs:
    """Empty and blank-only files read as zero rows of the file's width,
    without the warning ``np.loadtxt`` gives for them."""

    @pytest.mark.parametrize("body", ["", "\n\n", " \n\t\n"])
    def test_empty_node_labels_is_a_row_count_error(self, tu_dir, body):
        (tu_dir / "TOY_node_labels.txt").write_text(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match=r"TOY_node_labels.txt: 0 rows for \d+ nodes"):
                parse_tu(tu_dir)

    @pytest.mark.parametrize("body", ["", "\n \n"])
    def test_edgeless_dataset_loads(self, tu_dir, body):
        (tu_dir / "TOY_A.txt").write_text(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tu = parse_tu(tu_dir)
            data = tu_to_dataset(tu)
        assert tu.edges.shape == (0, 2) and tu.edges.dtype == np.int64
        assert len(data) == tu.num_graphs
        for item in data.items:
            assert item.complex.num_simplices(1) == 0
            assert len(item.chains) == 1 and item.chains[0].terms == ()


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

    @staticmethod
    def broken(**fields) -> TuDataset:
        """Two graphs of two nodes each, one edge each, with ``fields``
        replaced."""
        good = dict(name="BROKEN", edges=np.array([[1, 2], [3, 4]]),
                    graph_indicator=np.array([1, 1, 2, 2]), graph_labels=np.array([0, 1]),
                    node_attributes=np.ones((4, 2)), node_labels=None)
        return TuDataset(**{**good, **fields})

    def refusal(self, tu: TuDataset) -> str:
        with pytest.raises(DataFormatError) as info:
            tu_to_dataset(tu)
        assert "\n" not in str(info.value)
        return str(info.value)

    def test_the_unbroken_references_build(self):
        assert len(tu_to_dataset(self.broken())) == 2

    def test_an_edge_id_beyond_the_nodes_is_refused(self):
        tu = self.broken(edges=np.array([[1, 2], [3, 5]]))
        assert self.refusal(tu) == "BROKEN: node 5 outside 1..4"

    def test_an_edge_id_of_zero_is_refused(self):
        tu = self.broken(edges=np.array([[0, 2], [3, 4]]))
        assert self.refusal(tu) == "BROKEN: node 0 outside 1..4"

    @pytest.mark.parametrize(
        "indicator, message",
        [
            ([1, 1, 3, 3], "BROKEN: graph ids not contiguous from 1"),
            ([1, 2, 3, 3], "BROKEN: 2 labels for 3 graphs"),
        ],
    )
    def test_an_indicator_naming_an_unlabelled_graph_is_refused(self, indicator, message):
        tu = self.broken(graph_indicator=np.array(indicator), edges=np.array([[3, 4]]))
        assert self.refusal(tu) == message

    @pytest.mark.parametrize("field", ["node_attributes", "node_labels"])
    def test_too_few_node_rows_are_refused(self, field):
        tu = self.broken(**{field: np.ones((3, 2)) if field == "node_attributes" else np.ones(3)})
        assert self.refusal(tu) == "BROKEN: 3 rows for 4 nodes"



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


def _mutate(files: dict, suffixes: list, kind: str, which: int, pos: int, choice: int) -> None:
    """Apply one line-level mutation of ``kind`` in place to the file
    ``suffixes[which]`` of ``files`` (suffix -> list of lines)."""
    lines = files[suffixes[which % len(suffixes)]]
    if not lines:
        lines.append("")
    at = pos % len(lines)
    fields = lines[at].split(",")
    if kind == "truncate":  # the file ends inside line ``at``
        cut = choice % (len(lines[at]) + 1)
        lines[at:] = [lines[at][:cut]]
    elif kind == "junk":  # one field replaced by a token no reader should accept
        fields[choice % len(fields)] = ["x", "", "1.5", "0x1", "1 2", "nan", "-inf", "1e999",
                                        "é", "--1"][choice % 10]
        lines[at] = ",".join(fields)
    elif kind == "count":  # a line repeated or lost, or a field too many or too few
        if choice % 4 == 0:
            lines.insert(at, lines[at])
        elif choice % 4 == 1:
            del lines[at]
        elif choice % 4 == 2:
            lines[at] = lines[at] + ", 1"
        else:
            lines[at] = ",".join(fields[:-1])
    else:  # an id or label just outside, or far outside, every valid range
        fields[choice % len(fields)] = ["0", "-1", str(len(lines) + 1), "100000",
                                        "9223372036854775807", "-9223372036854775808"][choice % 6]
        lines[at] = ",".join(fields)


def _load(files: dict) -> None:
    """Write ``files`` (suffix -> list of lines) as dataset FZ and load it."""
    with tempfile.TemporaryDirectory() as tmp:
        for suffix, lines in files.items():
            Path(tmp, f"FZ{suffix}").write_text("\n".join(lines) + "\n", encoding="utf-8")
        tu_to_dataset(parse_tu(tmp))


_MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["truncate", "junk", "count", "id"]), st.integers(0, 4),
              st.integers(0, 80), st.integers(0, 59)),
    min_size=1,
    max_size=3,
)


class TestTuStrict:
    """Fuzzed datasets (lines replaced, deleted or appended; truncated
    files, junk tokens, wrong counts, out-of-range ids) either load or
    raise DataFormatError, which names the file: never a bare ValueError
    or anything else."""

    @settings(max_examples=300)
    @given(edits=_EDITS, drop_optional=st.sets(st.sampled_from(["_node_attributes.txt",
                                                                "_node_labels.txt"])))
    def test_damaged_files_raise_data_format_error(self, edits, drop_optional):
        files = {suffix: list(lines) for suffix, lines in _valid_tu_files()}
        suffixes = sorted(files)
        for which, pos, row in edits:
            lines = files[suffixes[which % len(suffixes)]]
            pos %= len(lines) + 1
            lines[pos:pos + 1] = [] if row is None else [row]
        for suffix in drop_optional:
            del files[suffix]
        try:
            _load(files)
        except DataFormatError:
            pass

    @settings(max_examples=300)
    @given(mutations=_MUTATIONS)
    def test_mutated_files_raise_data_format_error(self, mutations):
        files = {suffix: list(lines) for suffix, lines in _valid_tu_files()}
        suffixes = sorted(files)
        for kind, which, pos, choice in mutations:
            _mutate(files, suffixes, kind, which, pos, choice)
        try:
            _load(files)
        except DataFormatError:
            pass

    def test_every_mutation_kind_can_break_a_dataset(self):
        """The mutations are not all harmless: each kind has a case the
        parser refuses."""
        broken = {
            "truncate": ("_A.txt", 0, 3),  # "1, 2" -> "1, "
            "junk": ("_graph_labels.txt", 0, 0),
            "count": ("_graph_labels.txt", 0, 0),
            "id": ("_A.txt", 0, 3),
        }
        for kind, (suffix, pos, choice) in broken.items():
            files = {s: list(lines) for s, lines in _valid_tu_files()}
            suffixes = sorted(files)
            _mutate(files, suffixes, kind, suffixes.index(suffix), pos, choice)
            with pytest.raises(DataFormatError):
                _load(files)


def _oracle_read_rows(path: Path, kind: type, width: int | None = None,
                      refuse_underscores: bool = True) -> np.ndarray:
    """The TU reader's rules as a per-field Python loop (the reader
    before it moved to ``np.loadtxt``): comma-separated ``kind`` values,
    blank lines skipped, every row ``width`` fields wide (or as wide as
    the first), ints within int64."""
    rows, line_numbers = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            width = width or len(parts)
            if len(parts) != width:
                raise DataFormatError(
                    f"{path}, line {ln}: ragged row ({len(parts)} fields, expected {width})"
                )
            try:
                if refuse_underscores and "_" in line:  # int() and float() read 1_0 as 10
                    raise ValueError
                rows.append([kind(p) for p in parts])
            except ValueError:
                what = "an integer" if kind is int else "a number"
                raise DataFormatError(f"{path}, line {ln}: not {what}: {line!r}") from None
            line_numbers.append(ln)
    try:
        return np.asarray(rows, dtype=np.int64 if kind is int else np.float64).reshape(
            len(rows), width or 0
        )
    except OverflowError:
        bad = next(i for i, row in enumerate(rows) if not -(2**63) <= min(row) <= max(row) < 2**63)
        message = f"{path}, line {line_numbers[bad]}: integer out of int64 range"
        raise DataFormatError(message) from None


def _outcome(reader, path: Path, kind: type, width) -> tuple:
    """("rows", dtype, shape, bytes) of what ``reader`` read, or
    ("refused", message); any other exception propagates."""
    try:
        rows = reader(path, kind, width)
    except DataFormatError as exc:
        return ("refused", str(exc))
    return ("rows", rows.dtype.str, rows.shape, rows.tobytes())


def _assert_reads_like_the_oracle(reader, body: str, kind: type, width) -> None:
    """``reader`` and the oracle read ``body`` alike: byte-equal arrays,
    or the same one-line DataFormatError.  The one allowed difference:
    ``reader`` refuses a line holding a non-ASCII digit ("\u0663"),
    which int() and float() read."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "rows.txt")
        path.write_bytes(body.encode("utf-8"))
        got = _outcome(reader, path, kind, width)
        want = _outcome(_oracle_read_rows, path, kind, width)
    if got == want:
        return
    refusal = got[1] if got[0] == "refused" else ""
    assert re.search(r", line \d+: not (an integer|a number): ", refusal) and any(
        ch.isdigit() and not ch.isascii() for ch in refusal
    ), f"{body!r} as {kind.__name__} x {width}: got {got}, oracle {want}"


# ids and numbers both readers take, and fields that int(), float() or
# np.loadtxt treat differently; the common ones are listed four times
_READER_FIELDS = st.sampled_from(
    ["1", " 4", "+5", "-1", "0", "9223372036854775807", "-9223372036854775808"] * 4
    + ["1.5", "-.5", "nan", "-nan", "-inf", "1e999", "1e3", "1_0", "0x1", "", "x", "1 2",
       "9223372036854775808", "-9223372036854775809", "\u0663", " \u0661\u0662 "]
)


@st.composite
def _reader_cases(draw) -> tuple:
    """(file body, kind, width): lines mostly of the expected width, some
    of any width or with a trailing comma, some blank or whitespace-only,
    ended by LF, CRLF or CR; the last line may lack its end."""
    kind, width = draw(st.sampled_from([(int, 2), (int, 1), (float, None)]))
    fields = width or draw(st.integers(1, 3))
    shapes = {
        "row": st.lists(_READER_FIELDS, min_size=fields, max_size=fields).map(",".join),
        "any": st.lists(_READER_FIELDS, min_size=1, max_size=3).map(",".join),
        "comma": st.lists(_READER_FIELDS, min_size=1, max_size=2).map(lambda f: ",".join(f) + ","),
        "blank": st.sampled_from(["", "   ", "\t", " \t "]),
    }
    line = st.sampled_from(["row"] * 8 + ["any", "comma", "blank", "blank"]).flatmap(shapes.get)
    lines = draw(st.lists(st.tuples(line, st.sampled_from(["\n", "\r\n", "\r"])), max_size=6))
    body = "".join(text + end for text, end in lines) + draw(st.sampled_from(["", "1", " "]))
    return body, kind, width


def _differential(reader, **options):
    @settings(max_examples=500, **options)
    @given(case=_reader_cases())
    def check(case):
        _assert_reads_like_the_oracle(reader, *case)

    return check


class TestReaderDifferential:
    def test_reader_reads_like_the_line_loop(self):
        _differential(_read_rows)()

    def test_a_reader_without_the_underscore_check_fails(self):
        """Negative control: the comparison sees a reader that takes 1_0."""
        faulty = partial(_oracle_read_rows, refuse_underscores=False)
        with pytest.raises(AssertionError, match="1_0"):
            _differential(faulty, phases=[Phase.generate])()

    @pytest.mark.parametrize("body, kind, width", [
        ("9223372036854775808\n\n-9223372036854775809\n", int, 1),  # first overflow line
        ("9223372036854775808\n x\n", int, 1),  # a bad line beats an earlier overflow
        ("1, 2\r\n   \r\n3, 4\r\n", int, 2),
        ("1, 2,\n", int, 2),
        ("\n\n1.5, 2\n3\n", float, None),
        ("1_0.5\n", float, None),
        ("nan, -nan\n1e999, -0\n", float, None),
        ("\ufeff1\n", int, 1),
        (" \n\t\n", int, 2),
    ])
    def test_chosen_bodies_read_like_the_oracle(self, body, kind, width):
        _assert_reads_like_the_oracle(_read_rows, body, kind, width)

    @pytest.mark.parametrize("body, kind, width, line", [
        ("1\n\n\u0663\n", int, 1, 3),
        ("1.5, \u0661\n", float, None, 1),
    ])
    def test_non_ascii_digits_are_the_named_difference(self, body, kind, width, line):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "rows.txt")
            path.write_text(body, encoding="utf-8")
            assert _outcome(_oracle_read_rows, path, kind, width)[0] == "rows"
            with pytest.raises(DataFormatError, match=f", line {line}: not "):
                _read_rows(path, kind, width)
        _assert_reads_like_the_oracle(_read_rows, body, kind, width)
