import json
import struct

import numpy as np
import pytest
from hypothesis import settings

from kforms.data import TuDataset, write_tu

# Property tests draw the same examples on every run and keep no example
# database; run time depends on the machine, so no deadline.
settings.register_profile("kforms", derandomize=True, database=None, deadline=None)
settings.load_profile("kforms")

ACCEPTANCE_RESULTS = []


def record_criterion(num: int, name: str, status: str, detail: str = "") -> None:
    line = f"criterion {num:02d} [{name}]: {status}"
    if detail:
        line += f" — {detail}"
    ACCEPTANCE_RESULTS.append((num, line))
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)


def make_tu(rng: np.random.Generator, num_graphs: int = 12, with_attrs: bool = True,
            with_node_labels: bool = False, name: str = "TOY") -> TuDataset:
    """Small two-class TU-format dataset: chain graphs vs dense graphs,
    attributes clustered by class so the task is learnable."""
    edges, indicator, labels, attrs, node_labels = [], [], [], [], []
    next_node = 0
    for g in range(num_graphs):
        label = g % 2
        size = int(rng.integers(4, 7))
        for _ in range(size):
            indicator.append(g + 1)
            center = (-1.0, -1.0) if label == 0 else (1.0, 1.0)
            attrs.append(rng.normal(center, 0.3, size=2))
            node_labels.append(int(rng.integers(0, 3)))
        base = next_node
        if label == 0:
            for v in range(size - 1):
                edges.append((base + v + 1, base + v + 2))
        else:
            for a in range(size):
                for b in range(a + 1, size):
                    edges.append((base + a + 1, base + b + 1))
        labels.append(label)
        next_node += size
    return TuDataset(
        name=name,
        edges=np.array(edges, dtype=np.int64),
        graph_indicator=np.array(indicator, dtype=np.int64),
        graph_labels=np.array(labels, dtype=np.int64),
        node_attributes=np.array(attrs, dtype=np.float64) if with_attrs else None,
        node_labels=np.array(node_labels, dtype=np.int64) if with_node_labels else None,
    )


@pytest.fixture
def tu_dir(tmp_path):
    """Directory containing a freshly written toy TU dataset."""
    rng = np.random.default_rng(2024)
    tu = make_tu(rng)
    target = tmp_path / "TOY"
    write_tu(tu, target)
    return target


def _split_blob(blob: bytes) -> tuple[dict, bytes]:
    size = struct.unpack_from("<I", blob, 4)[0]
    return json.loads(blob[8 : 8 + size]), blob[8 + size :]


def _join_blob(header: bytes, payload: bytes) -> bytes:
    return b"KFRM" + struct.pack("<I", len(header)) + header + payload


def _without(obj, key: str):
    if isinstance(obj, dict):
        return {k: _without(v, key) for k, v in obj.items() if k != key}
    return obj


def _huge_dims(obj):
    """Every ``dims`` [d0, ..., d_last] replaced by [d0, 1e8, 1e8, d_last]:
    about 1e16 parameters, which must be refused before any allocation."""
    if isinstance(obj, dict):
        return {
            k: [v[0], 10**8, 10**8, v[-1]] if k == "dims" else _huge_dims(v)
            for k, v in obj.items()
        }
    return obj


# Ways to damage the bytes of a valid checkpoint; loading any of them
# must raise ValueError (exit 2 in the CLI), never load or crash.
CHECKPOINT_DAMAGE = {
    "cut inside the header length": lambda b: b[:6],
    "cut inside the header": lambda b: b[:12],
    "header not UTF-8": lambda b: b[:8] + b"\xff" + b[9:],
    "header not JSON": lambda b: b[:8] + b"?" + b[9:],
    "header not an object": lambda b: _join_blob(b"[]", _split_blob(b)[1]),
    "header field missing": lambda b: _join_blob(
        json.dumps(_without(_split_blob(b)[0], "dims")).encode(), _split_blob(b)[1]
    ),
    "payload not whole float64s": lambda b: b + bytes(3),
    "payload one value short": lambda b: b[:-8],
    "16 trailing bytes": lambda b: b + bytes(16),
    "dims imply more parameters than the payload": lambda b: _join_blob(
        json.dumps(_huge_dims(_split_blob(b)[0])).encode(), _split_blob(b)[1]
    ),
}


@pytest.fixture(params=list(CHECKPOINT_DAMAGE))
def damage(request):
    """One named way of corrupting checkpoint bytes (bytes -> bytes)."""
    return CHECKPOINT_DAMAGE[request.param]
