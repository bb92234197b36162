"""The "thread counts" half of the determinism contract.

The C kernels split a product of 2 * PART_MIN multiply-adds or more over a
worker pool of one thread per CPU the process may run on when the library
loads (``numerics.get_num_threads()``). Each output element is still summed
whole, by one thread, so the bytes must not depend on the count. Child
processes pinned with ``os.sched_setaffinity`` to one CPU and to all of
this process's CPUs must give the same bytes; concurrent callers and a
forked child must get the one-thread bytes too.
"""

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import finermoe
from finermoe import _backend, _kernels_py, cli
from finermoe.numerics import Matrix, get_num_threads, matmul

pytestmark = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this OS")

TESTS = Path(__file__).resolve().parent
SRC = Path(finermoe.__file__).resolve().parent.parent
PART_MIN = 1 << int(re.search(r"^#define PART_MIN \(1L << (\d+)\)$", (SRC / "finermoe" / "_kernels.c").read_text(), re.M)[1])


def _product(kernels, a, b, offsets=None):
    """The bytes of one product by a kernel module's entry."""
    grouped_inner = offsets is not None and b.ndim == 2
    out = np.empty((len(offsets) - 1, a.shape[0], b.shape[1]) if grouped_inner else (a.shape[0], b.shape[-1]), a.dtype)
    (kernels.matmul_f32 if a.dtype == np.float32 else kernels.matmul_f64)(a, b, out, offsets)
    return out.tobytes()


def _sweep():
    """Products from a fixed seed, each of 2 * PART_MIN multiply-adds or
    more, in every layout: (a, b, offsets or None)."""
    rng = np.random.default_rng(31)
    cases = []
    for case in range(24):
        dtype = (np.float32, np.float64)[case % 2]
        layout = ("plain", "a.T", "b.T", "grouped rows", "grouped rows b.T", "grouped inner")[case // 2 % 6]
        n, m = int(rng.choice([1, 3, 8, 9, 17, 64])), int(rng.integers(40, 600))
        k = max(int(rng.integers(1, 300)), -(-2 * PART_MIN // (n * m)))

        def draw(*shape):
            return rng.standard_normal(shape).astype(dtype)

        if layout in ("plain", "a.T", "b.T"):
            a = draw(k, n).T if layout == "a.T" else draw(n, k)
            cases.append((a, draw(m, k).T if layout == "b.T" else draw(k, m), None))
            continue
        N = int(rng.integers(2, 40))
        # Uneven segments, some empty.
        lengths = rng.multinomial(k if layout == "grouped inner" else 4 * n, rng.dirichlet(np.full(N, 0.3)))
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        if layout == "grouped inner":
            cases.append((draw(k, n).T, draw(k, m), offsets))
        else:
            stack = draw(N, m, k).transpose(0, 2, 1) if layout.endswith("b.T") else draw(N, k, m)
            cases.append((draw(4 * n, k), stack, offsets))
    return cases


def _sweep_digest(kernels):
    h = hashlib.sha256()
    for a, b, offsets in _sweep():
        h.update(_product(kernels, a, b, offsets))
    return h.hexdigest()


def _train_digests(workdir):
    """sha256 of loss.csv then stdout of the four pinned train-demo runs of
    tests/test_cli.py (NVShard h=32 H=128, 3 steps, batch 8)."""
    os.chdir(workdir)
    digests = []
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["preset", "NVShard", "--h", "32", "--H", "128", "--out", "nv.cfg"]) == 0
    for seed in (0, 1):
        for extra in ([], ["--clip", "0.001"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.run(["train-demo", "--config", "nv.cfg", "--steps", "3", "--batch", "8", "--csv", "loss.csv",
                                "--seed", str(seed), *extra]) == 0
            digests.append(hashlib.sha256(Path("loss.csv").read_bytes() + out.getvalue().encode()).hexdigest())
    return digests


def child_main(workdir):
    """What a pinned child prints: its thread counts and its digests."""
    import test_pinned_bits

    print(json.dumps({
        "backend": finermoe.kernel_backend(),
        "threads": get_num_threads(),
        "cpus": len(os.sched_getaffinity(0)),
        "pinned": {name: test_pinned_bits._digest(name) for name in sorted(test_pinned_bits.PINNED)},
        "sweep": _sweep_digest(_backend.active),
        "train": _train_digests(workdir),
    }))


CHILD = """
import os, sys
os.sched_setaffinity(0, [int(c) for c in sys.argv[1].split(",")])
sys.path.insert(0, sys.argv[2])
import test_threads
test_threads.child_main(sys.argv[3])
"""


def _pinned_child(cpus, workdir):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", CHILD, ",".join(map(str, sorted(cpus))), str(TESTS), str(workdir)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_one_cpu_and_every_cpu_give_the_same_bytes(tmp_path):
    import test_pinned_bits

    cpus = sorted(os.sched_getaffinity(0))
    (tmp_path / "one").mkdir()
    (tmp_path / "all").mkdir()
    one = _pinned_child(cpus[:1], tmp_path / "one")
    every = _pinned_child(cpus, tmp_path / "all")
    assert one["backend"] == every["backend"] == finermoe.kernel_backend()
    c_kernels = finermoe.kernel_backend().startswith("c (")
    assert (one["threads"], one["cpus"]) == (1, 1)
    assert (every["threads"], every["cpus"]) == (len(cpus) if c_kernels else 1, len(cpus))
    assert one["pinned"] == every["pinned"] == test_pinned_bits.PINNED
    assert one["train"] == every["train"]
    assert one["sweep"] == every["sweep"]


def test_the_sweep_gives_the_numpy_kernels_bytes():
    for a, b, offsets in _sweep():
        assert a.shape[0] * a.shape[1] * b.shape[-1] >= 2 * PART_MIN
    assert _sweep_digest(_backend.active) == _sweep_digest(_kernels_py)


def _large_products():
    """Operand pairs over the floor: a few-row product, a packed one and a
    transposed b, which each part gathers into its own PANEL buffer."""
    rng = np.random.default_rng(5)
    return [(Matrix.wrap(rng.standard_normal((8, 700)).astype(np.float32)),
             Matrix.wrap(rng.standard_normal((700, 300)).astype(np.float32))),
            (Matrix.wrap(rng.standard_normal((64, 128))), Matrix.wrap(rng.standard_normal((128, 260)))),
            (Matrix.wrap(rng.standard_normal((9, 300)).astype(np.float32)),
             Matrix.wrap(rng.standard_normal((700, 300)).astype(np.float32)).T)]


def _products(pairs):
    return [matmul(a, b).a.tobytes() for a, b in pairs]


def test_concurrent_callers_get_the_one_thread_bytes():
    # More callers than this host's CPUs, switching often: whoever finds the
    # pool busy runs its product on its own thread, and all sum the same.
    pairs = _large_products()
    want = [_product(_kernels_py, a.a, b.a) for a, b in pairs]
    got, errors = [], []

    def caller(barrier):
        try:
            barrier.wait()
            for _ in range(15):
                got.append(_products(pairs))
        except BaseException as exc:  # reported below
            errors.append(exc)

    callers = max(4, 2 * len(os.sched_getaffinity(0)))
    barrier = threading.Barrier(callers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(barrier,)) for _ in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(got) == 15 * callers and all(g == want for g in got)


def _product_in_child(conn):
    conn.send(_products(_large_products()))
    conn.close()


@pytest.mark.parametrize("busy", [False, True], ids=["after a product", "while another thread multiplies"])
def test_a_forked_child_runs_products(busy):
    # The child has no copy of the parent's workers; the pool starts
    # afresh there, and fork waits for a product in flight.
    pairs = _large_products()
    want = [_product(_kernels_py, a.a, b.a) for a, b in pairs]
    assert _products(pairs) == want
    stop = threading.Event()

    def multiply():
        while not stop.is_set():
            matmul(*pairs[-1])

    background = threading.Thread(target=multiply)
    if busy:
        background.start()
    ctx = multiprocessing.get_context("fork")
    try:
        for _ in range(3):
            recv, send = ctx.Pipe(duplex=False)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)  # fork of a threaded process
                child = ctx.Process(target=_product_in_child, args=(send,))
                child.start()
            send.close()
            try:
                assert recv.poll(60), "the forked child produced nothing within 60 s"
                assert recv.recv() == want
                child.join(timeout=60)
                assert not child.is_alive() and child.exitcode == 0
            finally:
                if child.is_alive():
                    child.kill()
                    child.join()
    finally:
        stop.set()
        if busy:
            background.join(timeout=60)
    assert not background.is_alive()
