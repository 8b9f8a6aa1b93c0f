"""The chunked-training property tests of ``test_chunk_gradients.py`` and
the lone-item pins of ``test_pinned_lone_items.py`` rerun in child
processes at 1 and at 2 OpenBLAS threads.

Their bit rules (``Mlp.rows_independent``, one BLAS product per slice of
a stacked ``np.matmul``, a 2-D product for a run of one item) were
measured at both thread counts, while the suite itself runs at the
machine's default.  The children draw the same examples (the
derandomized profile of ``conftest.py``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kforms

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("threads", ["1", "2"])
def test_chunk_gradients_keep_their_bits_at_each_thread_count(threads):
    src = str(Path(kforms.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               str(TESTS / "test_chunk_gradients.py"), str(TESTS / "test_pinned_lone_items.py")]
    done = subprocess.run(command, cwd=TESTS.parent, env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    assert " passed" in done.stdout and "failed" not in done.stdout
