"""Split sparse products: operators with at least ``SPLIT_NNZ`` entries.

The forward product must be bit for bit ``matrix @ x``, and the adjoint
bit for bit ``A_top^T y_top + A_bot^T y_bot`` computed by public scipy on
copies of the two row blocks, whatever the CPU count, the state of the
helper thread, or the process it runs in.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from egmin import SparseOperator
from egmin import operators
from egmin.operators import SPLIT_NNZ, _helper_pool


@pytest.fixture(scope="module")
def large():
    # Rows of uneven length, so that the split row is not the middle row.
    rng = np.random.default_rng(20)
    m, n = 1800, 3000
    lengths = rng.integers(300, 1100, size=m)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    indices = np.concatenate([np.sort(rng.choice(n, k, replace=False)) for k in lengths])
    data = rng.uniform(0.1, 2.0, size=indptr[-1])
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(m, n))
    assert matrix.nnz >= SPLIT_NNZ
    x, y = rng.uniform(0.5, 1.5, n), rng.uniform(-1.0, 1.0, m)
    return matrix, SparseOperator(matrix), x, y


def reference_adjoint(matrix, r, y):
    top, bottom = matrix[:r].copy(), matrix[r:].copy()
    return top.T @ y[:r] + bottom.T @ y[r:]


def helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("egmin-half")]


def test_threshold_and_split_row(large):
    matrix, op, _, _ = large
    assert op.split_row == int(np.searchsorted(matrix.indptr, matrix.nnz // 2))
    assert 0 < op.split_row < op.rows and op.split_row != op.rows // 2
    small = SparseOperator(matrix[: op.split_row // 2])
    assert small.nnz < SPLIT_NNZ and small.split_row is None
    assert not small.describe()["split_products"]


def test_no_copy_of_the_matrix(large):
    matrix, op, x, y = large
    assert np.shares_memory(op._matrix.data, matrix.data)
    assert np.shares_memory(op._matrix.indices, matrix.indices)
    tracemalloc.start()
    try:
        op.forward(x)
        op.adjoint(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The outputs and the adjoint's second sum: a few vectors, not a block.
    assert peak < 4 * 8 * max(op.shape) + 100_000


def test_split_forward_is_the_single_kernel_product(large):
    matrix, op, x, _ = large
    assert op.forward(x).tobytes() == (matrix @ x).tobytes()


def test_split_adjoint_sums_the_halves_in_order(large):
    matrix, op, _, y = large
    want = reference_adjoint(matrix, op.split_row, y)
    assert op.adjoint(y).tobytes() == want.tobytes()
    assert op.adjoint(list(y)).tobytes() == want.tobytes()


def test_each_call_counts_once(large):
    _, op, x, y = large
    op.reset_counts()
    op.forward(x)
    assert (op.forward_count, op.adjoint_count) == (1, 0)
    op.adjoint(y)
    op.adjoint(y)
    assert (op.forward_count, op.adjoint_count) == (1, 2)
    assert op.application_count() == 3


def test_wrong_length_is_rejected(large):
    _, op, x, y = large
    with pytest.raises(ValueError, match="dimension mismatch"):
        op.forward(x[:-1])
    with pytest.raises(ValueError, match="dimension mismatch"):
        op.adjoint(np.append(y, 1.0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        op.forward(x[:, None])


def test_one_row_operator_has_an_empty_bottom_half():
    n = SPLIT_NNZ
    row = sparse.csr_matrix(np.linspace(0.5, 1.5, n)[None, :])
    op = SparseOperator(row)
    assert op.split_row == 1
    x = np.linspace(1.0, 2.0, n)
    assert op.forward(x).tobytes() == (row @ x).tobytes()
    y = np.array([0.75])
    assert op.adjoint(y).tobytes() == reference_adjoint(row, 1, y).tobytes()


def test_a_busy_helper_neither_stalls_nor_changes_a_product(large):
    matrix, op, x, y = large
    release = threading.Event()
    watchdog = threading.Timer(30.0, release.set)
    watchdog.start()
    blocker = _helper_pool().submit(release.wait)
    try:
        started = time.perf_counter()
        forward, adjoint = op.forward(x), op.adjoint(y)
        elapsed = time.perf_counter() - started
    finally:
        release.set()
        watchdog.cancel()
    blocker.result(timeout=30.0)
    assert elapsed < 10.0
    assert forward.tobytes() == (matrix @ x).tobytes()
    assert adjoint.tobytes() == reference_adjoint(matrix, op.split_row, y).tobytes()


def test_one_helper_thread_per_process(large):
    matrix, op, x, y = large
    other = SparseOperator(matrix)
    for _ in range(3):
        op.forward(x)
        other.adjoint(y)
    assert len(helper_threads()) <= 1


def test_concurrent_callers_share_the_helper(large):
    # More calling threads than cores, switching often: every product must
    # still come out whole, whichever thread ran which half.
    matrix, op, x, y = large
    want = (matrix @ x).tobytes(), reference_adjoint(matrix, op.split_row, y).tobytes()
    results = []

    def call():
        for _ in range(3):
            results.append((op.forward(x).tobytes(), op.adjoint(y).tobytes()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call) for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert results == [want] * 12
    assert len(helper_threads()) <= 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_gives_the_same_bytes(large, tmp_path):
    matrix, op, x, y = large
    here = op.forward(x).tobytes() + op.adjoint(y).tobytes()
    sparse.save_npz(tmp_path / "matrix.npz", matrix)
    np.save(tmp_path / "x.npy", x)
    np.save(tmp_path / "y.npy", y)
    cpu = min(os.sched_getaffinity(0))
    script = textwrap.dedent(
        f"""
        import os, sys, threading
        import numpy as np
        from scipy import sparse
        os.sched_setaffinity(0, {{{cpu}}})
        from egmin import SparseOperator
        op = SparseOperator(sparse.load_npz(sys.argv[1] + "/matrix.npz"))
        x, y = (np.load(sys.argv[1] + f"/{{name}}.npy") for name in "xy")
        assert not op.describe()["helper_thread"]
        sys.stdout.buffer.write(op.forward(x).tobytes() + op.adjoint(y).tobytes())
        assert threading.active_count() == 1, threading.enumerate()
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    pinned = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, env=env, timeout=120, check=True,
    )
    assert pinned.stdout == here


def _child_product(op, x, queue):
    inherited = operators._helper is not None  # the parent's pool has no thread here
    queue.put((inherited, op.forward(x).tobytes()))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_a_forked_child_finishes_a_split_product(large):
    matrix, op, x, _ = large
    _helper_pool().submit(int).result(timeout=30.0)  # the parent's helper thread runs
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_child_product, args=(op, x, queue))
    child.start()
    try:
        got = queue.get(timeout=60.0)
    finally:
        child.join(timeout=60.0)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert got == (False, (matrix @ x).tobytes())
    assert operators._helper is not None  # the parent's pool is untouched
