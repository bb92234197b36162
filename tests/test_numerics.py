import os
import platform
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finermoe
from finermoe import _backend, _kernels_py, kernel_backend
from finermoe._kernels_py import splitmix64
from finermoe.config import baseline_preset, preset_names, with_updates
from finermoe.loss_grad import backward, balance_loss_score_grad
from finermoe.moe_layer import MoEModel, build_dispatch_plan, decide, forward, named_parameters
from finermoe.numerics import Grouped, Matrix, Rng, count_flops, matmul, sigmoid, silu, softmax
from finermoe.upcycle import random_dense, upcycle


def _cpu_flags():
    """The feature flags /proc/cpuinfo lists, or none where it lists no
    "flags" line (a non-x86 CPU, or no such file)."""
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return set()
    return next((set(line.split(":", 1)[1].split()) for line in lines if line.startswith("flags")), set())


# The C kernel's inner-loop variants, widest first, as _kernels.c clones them
# (CLONES) and names them (gemm_isa); the loader runs the first the CPU
# supports, and products run on the register tile where that is avx512f
# (their m % NR columns left over on the i-p-j loop). A test builds each
# variant from a copy of the source without CLONES, with the variant's -m
# flag and with gemm_isa's CPU tests pinned to the variant (CPU_TESTS), so
# that it names the variant and tiles only as that variant.
ISAS = ("avx512f", "avx2", "default")
HOST_ISAS = tuple(isa for isa in ISAS if isa == "default" or isa in _cpu_flags())
C_BACKEND = f"c ({HOST_ISAS[0]})"
CLONES = '__attribute__((target_clones("avx512f", "avx2", "default")))'
ISA_FLAGS = {"avx512f": ["-mavx512f"], "avx2": ["-mavx2"], "default": []}
CPU_TESTS = {isa: f'__builtin_cpu_supports("{isa}")' for isa in ISAS[:-1]}


@pytest.fixture
def c_kernels():
    """The C kernel module; with gcc on PATH it must have built, and it
    runs the widest variant this CPU supports."""
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH, so the C kernels cannot build")
    assert kernel_backend() == C_BACKEND
    return _backend.active


@pytest.fixture(scope="session")
def isa_kernels(tmp_path_factory):
    """{isa: its matmul_f32, matmul_f64, uniform_f64, sum_squares_f32 and
    sub_scaled_f32} for each variant this CPU runs, each built once from the
    source without CLONES, with -Wall -Wextra and no warning."""
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("no gcc on PATH, so the C kernels cannot build")
    from finermoe import _kernels_c

    src = _kernels_c._SRC.read_text()
    assert src.count(CLONES) == 1 and all(src.count(test) == 1 for test in CPU_TESTS.values())
    src = src.replace(CLONES, "")
    tmp = tmp_path_factory.mktemp("isa")
    builds = {}
    for isa in HOST_ISAS:
        pinned = src
        for other, test in CPU_TESTS.items():
            pinned = pinned.replace(test, str(int(ISAS.index(isa) <= ISAS.index(other))))
        (tmp / f"{isa}.c").write_text(pinned)
        argv = [gcc, *_kernels_c._FLAGS, "-Wall", "-Wextra", *ISA_FLAGS[isa], "-o", str(tmp / f"{isa}.so")]
        builds[isa] = subprocess.Popen([*argv, str(tmp / f"{isa}.c")], stderr=subprocess.PIPE, text=True)
    for isa, proc in builds.items():
        _, err = proc.communicate()
        assert proc.returncode == 0 and not err, (isa, err)
    # Each -m flag gave code of its own.
    assert len({(tmp / f"{isa}.so").read_bytes() for isa in HOST_ISAS}) == len(HOST_ISAS)
    libs = {isa: _kernels_c._load(tmp / f"{isa}.so") for isa in HOST_ISAS}
    assert {isa: lib.gemm_isa().decode() for isa, lib in libs.items()} == {isa: isa for isa in HOST_ISAS}
    return {
        isa: SimpleNamespace(matmul_f32=_kernels_c._entry(lib.gemm_f32, np.dtype(np.float32)),
                             matmul_f64=_kernels_c._entry(lib.gemm_f64, np.dtype(np.float64)),
                             uniform_f64=_kernels_c._draws(lib.uniform_f64),
                             sum_squares_f32=_kernels_c._sum_squares(lib.sum_squares_f32),
                             sub_scaled_f32=_kernels_c._sub_scaled(lib.sub_scaled_f32))
        for isa, lib in libs.items()
    }


def _kernel_module(request, name):
    """``"python"``, ``"c"`` (the active C kernels) or ``"c-<isa>"``, one
    variant's build."""
    if name == "python":
        return _kernels_py
    if name == "c":
        return request.getfixturevalue("c_kernels")
    isa = name.removeprefix("c-")
    if isa not in HOST_ISAS:
        pytest.skip(f"this CPU does not run {isa}")
    return request.getfixturevalue("isa_kernels")[isa]


@pytest.fixture(params=["python", "c"])
def kernels(request):
    """Each kernel module, called directly, so the NumPy kernels stay
    tested while the C kernels are active."""
    return _kernel_module(request, request.param)


@pytest.fixture(params=["c", *(f"c-{isa}" for isa in ISAS)])
def c_variant(request):
    """The active C kernels, then each variant's build."""
    return _kernel_module(request, request.param)


def _kernel_matmul(kernels, a, b):
    out = np.empty((a.shape[0], b.shape[1]), dtype=a.dtype)
    (kernels.matmul_f32 if a.dtype == np.float32 else kernels.matmul_f64)(a, b, out)
    return out


def _kernel_grouped(kernels, a, b, offsets):
    """The grouped entry: a stack ``b`` splits a's rows, else the output is a stack."""
    shape = (a.shape[0], b.shape[2]) if b.ndim == 3 else (len(offsets) - 1, a.shape[0], b.shape[1])
    out = np.empty(shape, dtype=a.dtype)
    (kernels.matmul_f32 if a.dtype == np.float32 else kernels.matmul_f64)(a, b, out, offsets)
    return out


def _operand(rng, shape, dtype):
    # Magnitudes over many decades make any other summation order round
    # differently.
    return (rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)).astype(dtype)


def _window_stack(rng, n, k, m, dtype, step=7):
    """A read-only n x k x m stack whose matrix e is the window of one
    buffer that starts at element e * step: every matrix C-contiguous and
    different, an odd stride between them, and one matrix's memory, so a
    stack at reference dims costs little."""
    base = _operand(rng, k * m + n * step, dtype)
    size = base.itemsize
    return np.lib.stride_tricks.as_strided(base, (n, k, m), (step * size, m * size, size), writeable=False)


def _offsets(lengths):
    return np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)


def _rank1(a, b):
    """a @ b as the rank-1 loop: +0.0, then each inner index in ascending order."""
    want = np.zeros((a.shape[0], b.shape[1]), dtype=a.dtype)
    for p in range(a.shape[1]):
        want += a[:, p, None] * b[None, p, :]
    return want


def _rank1_rows(a, stack, offsets):
    """Row i of a times the stack matrix of its segment, as a rank-1 loop."""
    expert = np.repeat(np.arange(len(stack)), np.diff(offsets))
    want = np.zeros((a.shape[0], stack.shape[2]), dtype=a.dtype)
    for p in range(a.shape[1]):
        want += a[:, p, None] * stack[expert, p, :]
    return want


def _rank1_inner(a, b, offsets):
    """The stack of a[:, seg] @ b[seg], as one rank-1 loop over all of p."""
    expert = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    want = np.zeros((len(offsets) - 1, a.shape[0], b.shape[1]), dtype=a.dtype)
    for p in range(a.shape[1]):
        want[expert[p]] += a[:, p, None] * b[None, p, :]
    return want


class TestMatmul:
    def test_identity_exact(self):
        a = Rng(1).matrix(7, 7)
        out = matmul(a, Matrix.wrap(np.eye(7, dtype=np.float32)))
        assert out.a.tobytes() == a.a.tobytes()

    def test_hand_product(self):
        a = Matrix.wrap(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Matrix.wrap(np.array([[1.0], [1.0]]))
        assert matmul(a, b).a.tolist() == [[3.0], [7.0]]

    def test_dimension_mismatch_names_shapes(self):
        a = Matrix.wrap(np.zeros((1, 3), np.float32))
        b = Matrix.wrap(np.zeros((2, 2), np.float32))
        with pytest.raises(ValueError, match="1x3.*2x2"):
            matmul(a, b)

    def test_f64_inputs_give_f64_output(self):
        a = Rng(5).matrix(3, 4, dtype=np.float64)
        b = Rng(6).matrix(4, 2, dtype=np.float64)
        assert matmul(a, b).dtype == np.float64

    @pytest.mark.parametrize("kernels", ["python", "c"])
    def test_mixed_dtypes_are_refused_before_any_write(self, request, monkeypatch, kernels):
        # No promotion: an f32 and an f64 operand, plain or grouped, raise
        # ValueError naming both dtypes, and the kernel writes nothing.
        kern = _kernel_module(request, kernels)
        outs = []

        def sentinel(entry):
            def fill_then_call(a, b, out, *offsets):
                out.fill(np.nan)
                outs.append((out, out.tobytes()))
                return entry(a, b, out, *offsets)

            return fill_then_call

        x32 = Rng(5).matrix(4, 4)
        x64 = x32.astype(np.float64)
        offsets = np.array([0, 1, 4], dtype=np.int64)
        pairs = [
            (x32, x64), (x64, x32), (x32, x64.T),
            (x32, Grouped(np.stack([x64.a, x64.a]), offsets)), (Grouped(x64.a, offsets), x32),
        ]
        entries = {name: sentinel(getattr(kern, name)) for name in ("matmul_f32", "matmul_f64")}
        monkeypatch.setattr(_backend, "active", SimpleNamespace(**entries))
        for a, b in pairs:
            before = (a.a.tobytes(), b.a.tobytes())
            with pytest.raises(ValueError, match="float32.*float64|float64.*float32"):
                matmul(a, b)
            out, written = outs[-1]
            assert out.tobytes() == written
            assert (a.a.tobytes(), b.a.tobytes()) == before
        assert len(outs) == len(pairs)

    def test_flop_counter(self):
        with count_flops() as c:
            matmul(Matrix.wrap(np.zeros((3, 4), np.float32)), Matrix.wrap(np.zeros((4, 5), np.float32)))
        assert c.flops == 2 * 3 * 4 * 5

    def test_a_refused_product_counts_no_flops(self):
        with count_flops() as c:
            with pytest.raises(ValueError, match="float32.*float64"):
                matmul(Matrix.wrap(np.zeros((3, 4), np.float32)), Matrix.wrap(np.zeros((4, 5), np.float64)))
        assert c.flops == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grouped_and_transposed_operands(self, dtype):
        # One call per grouped product, with the bits and the FLOP count of
        # one plain product per expert.
        offsets = np.array([0, 2, 2, 7], dtype=np.int64)
        x = Rng(20).matrix(7, 4, dtype=dtype)
        stack = Rng(21).matrix(3 * 4, 5, dtype=dtype).a.reshape(3, 4, 5)
        d = Rng(22).matrix(7, 5, dtype=dtype)
        with count_flops() as c:
            rows = matmul(x, Grouped(stack, offsets))
            inner = matmul(Grouped(x.a.T, offsets), d)
            back = matmul(rows, Grouped(stack, offsets).T)
        assert c.flops == 3 * 2 * 7 * 4 * 5
        assert isinstance(inner, Grouped) and inner.a.shape == (3, 4, 5) and rows.dtype == dtype
        for k, (s, e) in enumerate(zip(offsets, offsets[1:])):
            seg = Matrix.wrap(x.a[s:e].copy()) if s < e else None
            if seg is not None:
                assert rows.a[s:e].tobytes() == matmul(seg, Matrix.wrap(stack[k])).a.tobytes()
                w_t = Matrix.wrap(np.ascontiguousarray(stack[k].T))
                assert back.a[s:e].tobytes() == matmul(Matrix.wrap(rows.a[s:e].copy()), w_t).a.tobytes()
                want = matmul(Matrix.wrap(np.ascontiguousarray(x.a[s:e].T)), Matrix.wrap(d.a[s:e].copy()))
                assert inner.a[k].tobytes() == want.a.tobytes()
            else:
                assert inner.a[k].tobytes() == np.zeros((4, 5), inner.dtype).tobytes()

    # Shapes on all three of the C kernel's paths, each compared with the
    # sum of a rank-1 loop: the i-p-j loop (fewer columns than the AVX-512F
    # tile's width, with four-row blocks and rows left over), the packed
    # tile over one block of b's rows (70 x 40 x 64), and the tile reading
    # b in place over blocks of KC rows, the last one short (4 x 300 x 500,
    # 3 x 1000 x 300 and 2 x 20 x 8200), with tile rows and columns left
    # over.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n,k,m",
        [
            (9, 40, 5),
            (70, 33, 2),
            (1, 600, 1),
            (3, 600, 1),
            (4, 300, 500),
            (3, 1000, 300),
            (70, 40, 64),
            (2, 20, 8200),
        ],
    )
    def test_sums_each_element_in_ascending_order(self, kernels, n, k, m, dtype):
        rng = np.random.default_rng(n * k + m)
        # Magnitudes over many decades make any other summation order
        # round differently. The last row times column 0 is all -0.0
        # terms, whose sum from +0.0 is +0.0.
        a = (rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-6, 6, (n, k))).astype(dtype)
        b = (rng.standard_normal((k, m)) * 10.0 ** rng.uniform(-6, 6, (k, m))).astype(dtype)
        if n > 1:
            a[n - 1] = -0.0
            b[:, 0] = np.abs(b[:, 0])
        out = _kernel_matmul(kernels, a, b)
        for j in sorted({0, m // 2, m - 1}):
            for i in range(n):
                s = dtype(0.0)
                for p in range(k):
                    s = s + a[i, p] * b[p, j]
                assert out[i, j].tobytes() == s.tobytes(), (i, j)

    # The products one op of each perfbench workload runs, by kind:
    # "ab" is (n, K, m) of a plain product: the router, the shared expert,
    # train-demo's target and, per expert, the grouped products' segments
    # (one token up to a batch) and their weight gradients. "atb" is
    # a^T b and "abt" a b^T, (n, K, m) of the product: train-coarse's
    # shared-expert and router gradients. "grouped" is (pairs, N, K, m):
    # pairs x K rows split among N experts' K x m matrices, the sparse
    # forward; "grouped-t" the same with each matrix a transposed view,
    # backward's d_inner; "grouped-inner" (pairs, N, n, m) the N-stack of
    # n x m weight gradients a^T b with the pairs split.
    WORKLOAD_SHAPES = {
        "infer-fine": [
            ("ab", 64, 256, 128), ("ab", 1, 256, 32), ("ab", 4, 256, 32), ("ab", 1, 32, 128),
            ("ab", 4, 32, 128), ("ab", 64, 256, 1024), ("ab", 64, 1024, 256),
            ("grouped", 128, 128, 256, 32), ("grouped", 128, 128, 32, 128),
        ],
        "train-coarse": [
            ("ab", 3, 256, 128), ("ab", 15, 256, 128), ("ab", 3, 128, 256), ("ab", 15, 128, 256),
            ("ab", 128, 3, 256), ("ab", 256, 15, 128), ("ab", 64, 256, 64), ("ab", 64, 256, 256),
            ("atb", 1024, 64, 256), ("atb", 256, 64, 1024), ("atb", 256, 64, 64), ("abt", 64, 256, 1024),
            ("grouped", 512, 64, 256, 128), ("grouped", 512, 64, 128, 256), ("grouped-t", 512, 64, 256, 128),
            ("grouped-inner", 512, 64, 128, 256), ("grouped-inner", 512, 64, 256, 128),
        ],
        "cli-ref": [
            ("ab", 8, 1536, 128), ("ab", 1, 1536, 280), ("ab", 1, 280, 768), ("ab", 8, 1536, 8960),
            ("ab", 8, 8960, 1536), ("grouped", 16, 128, 1536, 280), ("grouped", 16, 128, 280, 768),
        ],
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "kind,shape",
        [(kind, shape) for shapes in WORKLOAD_SHAPES.values() for kind, *shape in shapes],
        ids=[f"{w}-{kind}-{'x'.join(map(str, shape))}" for w, v in WORKLOAD_SHAPES.items() for kind, *shape in v],
    )
    def test_workload_shapes_match_a_rank_1_loop(self, kernels, kind, shape, dtype):
        rng = np.random.default_rng(int(np.prod(shape)))
        if kind in ("ab", "atb", "abt"):
            n, k, m = shape
            a = _operand(rng, (k, n), dtype).T if kind == "atb" else _operand(rng, (n, k), dtype)
            b = _operand(rng, (m, k), dtype).T if kind == "abt" else _operand(rng, (k, m), dtype)
            assert _kernel_matmul(kernels, a, b).tobytes() == _rank1(a, b).tobytes()
            return
        pairs, N, k, m = shape
        # Segment lengths as routing draws them: some experts get none.
        offsets = _offsets(rng.multinomial(pairs, np.full(N, 1.0 / N)))
        if kind == "grouped-inner":
            a, b = _operand(rng, (pairs, k), dtype).T, _operand(rng, (pairs, m), dtype)
            want = _rank1_inner(a, b, offsets)
        else:
            a = _operand(rng, (pairs, k), dtype)
            b = _window_stack(rng, N, k, m, dtype)
            if kind == "grouped-t":
                b = _window_stack(rng, N, m, k, dtype).transpose(0, 2, 1)
            want = _rank1_rows(a, b, offsets)
        assert _kernel_grouped(kernels, a, b, offsets).tobytes() == want.tobytes()

    # Every row count from 1 to 9 (whole four-row blocks and one to three
    # rows left over), one column, one inner index, and random shapes; the
    # operands are read-only for odd row counts.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_c_kernels_match_the_numpy_kernels(self, c_kernels, dtype):
        rng = np.random.default_rng(17)
        shapes = [(n, k, m) for n in range(1, 10) for k, m in ((1, 1), (1, 7), (37, 1), (300, 13))]
        shapes += [tuple(int(v) for v in rng.integers(1, 400, 3)) for _ in range(30)]
        for n, k, m in shapes:
            a = (rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-6, 6, (n, k))).astype(dtype)
            b = (rng.standard_normal((k, m)) * 10.0 ** rng.uniform(-6, 6, (k, m))).astype(dtype)
            a[-1] = -0.0
            a.flags.writeable = b.flags.writeable = n % 2 == 0
            got = _kernel_matmul(c_kernels, a, b)
            assert got.tobytes() == _kernel_matmul(_kernels_py, a, b).tobytes(), (n, k, m)
            assert not np.signbit(got[-1]).any()

    # IEEE 754 fixes where a NaN appears but not its sign or payload, and
    # an add may return either operand's NaN, so NaN are compared by
    # position; every other element, infinities included, bit for bit.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,k,m", [(2, 3, 2), (5, 40, 9), (9, 300, 130)])
    def test_c_kernels_propagate_inf_and_nan_like_the_numpy_kernels(self, c_kernels, n, k, m, dtype):
        rng = np.random.default_rng(n + k + m)
        a = rng.standard_normal((n, k)).astype(dtype)
        b = rng.standard_normal((k, m)).astype(dtype)
        a[0, 0] = np.inf  # row 0 is +-inf ...
        b[1, 0] = np.nan  # ... but column 0 is NaN
        a[-1, 2], b[2, -1] = -np.inf, 0.0  # inf * 0 is NaN
        got = _kernel_matmul(c_kernels, a, b)
        with np.errstate(invalid="ignore"):
            want = _kernel_matmul(_kernels_py, a, b)
        nan = np.isnan(got)
        assert nan[:, 0].all() and nan[-1, -1] and np.isinf(got[0, 1:]).all()
        assert (nan == np.isnan(want)).all()
        assert np.where(nan, 0, got).tobytes() == np.where(nan, 0, want).tobytes()

    def test_c_kernels_refuse_a_strided_operand(self, c_kernels):
        a = np.ones((4, 6), dtype=np.float32)
        out = np.empty((4, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="contiguous"):
            c_kernels.matmul_f32(a, np.ones((6, 6), dtype=np.float32)[:, ::2], out)


# Segment lengths: the first, the last or all but one empty, one-row
# segments, lengths 4k-1 and 4k+1 around the kernel's four-row blocks.
SEGMENTS = [[0, 3, 5], [3, 5, 0], [0, 0, 9, 0], [1, 1, 1, 1], [3, 5, 7, 9], [4, 8, 0, 1, 2]]


class TestGroupedAndTransposedKernels:
    """The grouped and transposed products of both kernel modules and of
    each C variant, called directly: bit for bit the plain entry on each
    segment, and the rank-1 loop."""

    @pytest.fixture(params=["python", "c", *(f"c-{isa}" for isa in ISAS)])
    def kernels(self, request):
        return _kernel_module(request, request.param)

    # (K, m) of each segment's product: one inner index, one column, both,
    # and neither.
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grouped_rows(self, kernels, dtype, transposed):
        rng = np.random.default_rng(3)
        for lengths in SEGMENTS:
            offsets = _offsets(lengths)
            for k, m in ((1, 1), (1, 7), (37, 1), (33, 20)):
                a = _operand(rng, (int(offsets[-1]), k), dtype)
                a[-1] = -0.0
                stack = _operand(rng, (len(lengths), m, k) if transposed else (len(lengths), k, m), dtype)
                if transposed:
                    stack = stack.transpose(0, 2, 1)
                a.flags.writeable = stack.flags.writeable = False
                got = _kernel_grouped(kernels, a, stack, offsets)
                for e, (s, t) in enumerate(zip(offsets, offsets[1:])):
                    if s < t:
                        assert got[s:t].tobytes() == _kernel_matmul(kernels, a[s:t], stack[e]).tobytes()
                assert got.tobytes() == _rank1_rows(a, stack, offsets).tobytes(), (lengths, k, m)
                assert not np.signbit(got[-1]).any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grouped_inner_index(self, kernels, dtype):
        # out[e] = x[seg e]^T @ d[seg e]: x arrives as its no-copy
        # transpose; an empty segment gives +0.0.
        rng = np.random.default_rng(4)
        for lengths in SEGMENTS:
            offsets = _offsets(lengths)
            for n, m in ((1, 1), (7, 1), (1, 5), (33, 20)):
                x = _operand(rng, (int(offsets[-1]), n), dtype)
                x[:, -1] = -0.0
                d = _operand(rng, (int(offsets[-1]), m), dtype)
                x.flags.writeable = d.flags.writeable = False
                got = _kernel_grouped(kernels, x.T, d, offsets)
                for e, (s, t) in enumerate(zip(offsets, offsets[1:])):
                    assert got[e].tobytes() == _kernel_matmul(kernels, x[s:t].T, d[s:t]).tobytes()
                assert got.tobytes() == _rank1_inner(x.T, d, offsets).tobytes(), (lengths, n, m)
                assert not np.signbit(got[:, -1]).any()
                assert not got[np.diff(offsets) == 0].any()

    # a^T b, a b^T and a^T b^T, with more than one 256-column panel of a
    # packed b^T and row counts on both sides of a four-row block.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_transposed_operands(self, kernels, dtype):
        rng = np.random.default_rng(5)
        for n, k, m in ((1, 1, 1), (5, 1, 9), (9, 37, 1), (4, 300, 500), (13, 33, 260)):
            a, at = _operand(rng, (n, k), dtype), _operand(rng, (k, n), dtype).T
            b, bt = _operand(rng, (k, m), dtype), _operand(rng, (m, k), dtype).T
            for x, y in ((at, b), (a, bt), (at, bt)):
                want = _rank1(x, y)
                assert _kernel_matmul(kernels, x, y).tobytes() == want.tobytes(), (n, k, m)
                assert want.tobytes() == _kernel_matmul(kernels, *map(np.ascontiguousarray, (x, y))).tobytes()

    def test_grouped_rows_read_a_mapped_stack(self, kernels, tmp_path):
        # read_model maps the file: the stacks are views strided by one
        # expert's w1 + wg + w2, and the entry must read them in place.
        from finermoe import read_model, write_model
        from finermoe.config import baseline_preset
        from finermoe.upcycle import random_dense, upcycle

        cfg = baseline_preset("FineRMoE-base", h=16, H=64)
        write_model(upcycle(random_dense(16, 64, 1), cfg, 2), tmp_path / "m.frm")
        stack = read_model(tmp_path / "m.frm").experts
        assert not stack.w1.flags.c_contiguous
        rng = np.random.default_rng(6)
        offsets = _offsets(rng.multinomial(40, np.full(len(stack.w1), 1.0 / len(stack.w1))))
        for w in (stack.w1, stack.wg, stack.w2, stack.w2.transpose(0, 2, 1)):
            a = _operand(rng, (40, w.shape[1]), np.float32)
            got = _kernel_grouped(kernels, a, w, offsets)
            assert got.tobytes() == _kernel_grouped(kernels, a, w.copy(), offsets).tobytes()
            assert got.tobytes() == _rank1_rows(a, w, offsets).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grouped_c_kernels_propagate_inf_and_nan_like_the_numpy_kernels(self, c_kernels, dtype):
        rng = np.random.default_rng(7)
        offsets = _offsets([3, 0, 6, 1])
        a = rng.standard_normal((10, 9)).astype(dtype)
        stack = rng.standard_normal((4, 9, 5)).astype(dtype)
        a[0, 0], a[4, 2] = np.inf, -np.inf
        stack[2, 1, 0], stack[3, 2, 4] = np.nan, 0.0  # inf * 0 is NaN
        d = rng.standard_normal((10, 5)).astype(dtype)
        d[5, 1] = np.nan
        for x, y in ((a, stack), (a, stack.transpose(0, 2, 1).copy().transpose(0, 2, 1)), (a.T, d)):
            got = _kernel_grouped(c_kernels, x, y, offsets)
            with np.errstate(invalid="ignore"):
                want = _kernel_grouped(_kernels_py, x, y, offsets)
            nan = np.isnan(got)
            assert nan.any() and np.isinf(got).any()
            assert (nan == np.isnan(want)).all()
            assert np.where(nan, 0, got).tobytes() == np.where(nan, 0, want).tobytes()


def _draw_case(rng, dtype, layout, path):
    """Operands and offsets (or None) of one random product in ``layout``:
    row counts around the four-row blocks, inner and column counts off the
    vector widths, more than one 256-column panel of a packed b^T now and
    then, ±0.0, ±inf and NaN sprinkled in, and now and then a row of a
    that is all -0.0. A mapped stack maps a file it writes at ``path``."""
    n, k = int(rng.integers(1, 14)), int(rng.integers(1, 70))
    m = int(rng.integers(250, 530)) if rng.random() < 0.15 else int(rng.integers(1, 70))

    def operand(shape):
        x = _operand(rng, shape, dtype)
        if rng.random() < 0.5:
            where = rng.random(shape) < 0.02
            x[where] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], where.sum())
        return x

    def left(shape, transposed):
        a = operand(shape[::-1]).T if transposed else operand(shape)
        if len(a) and rng.random() < 0.3:
            a[-1] = -0.0
        return a

    if layout in ("plain", "a.T", "b.T"):
        b = operand((m, k)).T if layout == "b.T" else operand((k, m))
        return left((n, k), layout == "a.T"), b, None
    N = int(rng.integers(1, 6))
    offsets = _offsets(rng.multinomial(int(rng.integers(0, 3 * N * 4 + 1)), np.full(N, 1.0 / N)))
    if layout == "grouped inner":
        return left((n, int(offsets[-1])), True), operand((int(offsets[-1]), m)), offsets
    a = left((int(offsets[-1]), k), False)
    if layout == "mapped stack":
        # As read_model maps a file: copy-on-write, matrices a stride apart
        # that is more than one matrix.
        step = k * m + int(rng.integers(1, 9))
        operand((N * step,)).tofile(path)
        mapped = np.memmap(path, dtype=dtype, mode="c")
        size = mapped.itemsize
        return a, np.lib.stride_tricks.as_strided(mapped, (N, k, m), (step * size, m * size, size)), offsets
    if rng.random() < 0.5:
        return a, operand((N, m, k)).transpose(0, 2, 1), offsets
    return a, operand((N, k, m)), offsets


def _source_constant(name):
    """The value of ``#define name v`` or ``#define name (1L << e)`` in _kernels.c."""
    source = Path(finermoe.__file__).with_name("_kernels.c").read_text()
    value = re.search(rf"^#define {name} (?:(\d+)|\(1L << (\d+)\))$", source, re.M)
    return int(value[1]) if value[1] else 1 << int(value[2])


# Inner lengths around the blocks of KC rows of b that the register tile
# reads in place: one short of a block edge, on it, one past it, and one
# past the second.
KC = _source_constant("KC")
KC_EDGES = (KC - 1, KC, KC + 1, 2 * KC + 1)


class TestDeterminismContract:
    """Random products, drawn from a fixed seed: every C variant this CPU
    runs, and the active C kernels, give _kernels_py's bytes. NaN are
    compared by position, as IEEE 754 leaves open which operand's NaN an
    add returns; ±inf and zeros bit for bit, and a sum from +0.0 is never
    -0.0."""

    LAYOUTS = ("plain", "a.T", "b.T", "grouped rows", "grouped inner", "mapped stack")

    def test_every_kernel_gives_the_numpy_kernels_bytes(self, c_kernels, isa_kernels, tmp_path):
        rng = np.random.default_rng(2026)
        seen = set()
        for case in range(300):
            dtype = (np.float32, np.float64)[case % 2]
            layout = self.LAYOUTS[case // 2 % len(self.LAYOUTS)]
            a, b, offsets = _draw_case(rng, dtype, layout, tmp_path / f"stack{case}")
            run = _kernel_matmul if offsets is None else lambda kern, a, b: _kernel_grouped(kern, a, b, offsets)
            with np.errstate(invalid="ignore"):
                want = run(_kernels_py, a, b)
            nan = np.isnan(want)
            for kern in (c_kernels, *isa_kernels.values()):
                got = run(kern, a, b)
                assert (np.isnan(got) == nan).all(), (case, layout)
                assert np.where(nan, 0, got).tobytes() == np.where(nan, 0, want).tobytes(), (case, layout)
            zero = want == 0
            assert not np.signbit(want[zero]).any(), (case, layout)
            seen.update(name for name, hit in (("nan", nan), ("inf", np.isinf(want)), ("zero", zero)) if hit.any())
        assert seen == {"nan", "inf", "zero"}

    # (h, H) of the small draws; the wide draw's shared-expert products
    # have more than MR rows, so they read b in more than one WIDE_BUF
    # block of the packed tile, and its presets hold a shared expert
    # without replicating the whole FFN per expert. The tile draw's NVShard
    # layer (64 experts, 8 active, H_e = H / 8) sends two or more tokens to
    # some expert and has h and H_e of at least NR, so its grouped products
    # run on tiles of one row and of more, reading b in place.
    SMALL_DIMS = ((16, 64), (24, 96), (32, 160))
    WIDE_DIMS, WIDE_PRESETS = (128, 2304), ("FineRMoE-base", "NVShard")
    TILE_DIMS, TILE_PRESETS = (40, 320), ("NVShard",)

    def test_random_layers_give_the_same_bytes_under_every_kernel(self, c_kernels, isa_kernels, monkeypatch):
        # Draws of preset, router mode, concat_proj, dtype and token count;
        # the first is wide, so the packed tile carries running sums from one
        # block of b to the next in the layer, and the second reaches the
        # grouped tile.
        rng = np.random.default_rng(2027)
        kernels = {"python": _kernels_py, "c": c_kernels, **{f"c-{isa}": k for isa, k in isa_kernels.items()}}
        for case in range(11):
            (h, H), names, least = {0: (self.WIDE_DIMS, self.WIDE_PRESETS, _source_constant("MR") + 1),
                                    1: (self.TILE_DIMS, self.TILE_PRESETS, 16)}.get(case) or (
                self.SMALL_DIMS[rng.integers(len(self.SMALL_DIMS))], preset_names(), 1)
            cfg = with_updates(baseline_preset(str(rng.choice(names)), h=h, H=H),
                               router_mode=str(rng.choice(["single", "separate"])), concat_proj=bool(rng.random() < 0.5))
            dtype = (np.float32, np.float64)[rng.integers(2)]
            L = int(rng.integers(least, 18))
            model = upcycle(random_dense(h, H, case), cfg, case).astype(dtype)
            x, upstream = Rng(2 * case).matrix(L, h, dtype=dtype), Rng(2 * case + 1).matrix(L, h, dtype=dtype)
            if case == 0:
                wide = h * H * np.dtype(dtype).itemsize > _source_constant("WIDE_BUF")
                assert cfg.share_expert and L > _source_constant("MR") and wide
            if case == 1:
                nr = 2 * 64 // np.dtype(dtype).itemsize
                rows = np.diff(build_dispatch_plan(decide(x, model)).offsets)
                assert min(h, model.dims.H_e) >= nr and rows.max() >= 2
            got = {}
            for name, kern in kernels.items():
                monkeypatch.setattr(_backend, "active", kern)
                out = forward(x, model)
                d_score = balance_loss_score_grad(out.decision, cfg, 0.01)
                grads = backward(model, upstream, out, d_score_extra=d_score)
                got[name] = [out.y.a.tobytes(), grads.d_x.a.tobytes(),
                             *(g.tobytes() for _, g in named_parameters(grads.d_model))]
            assert all(v == got["python"] for v in got.values()), (case, cfg, dtype, L)


class TestRegisterTile:
    """Plain products around the AVX-512F register tile of _kernels.c (8
    rows by 2 vectors, NR = 32 f32 or 16 f64 columns; 4-, 2- and 1-row
    tiles for the rows left over, the i-p-j block for the m % NR columns
    left over): the active C kernels and every C variant this CPU runs
    give _kernels_py's bytes, NaN by position, and +0.0 for an empty inner
    index. The tile runs in the avx512f variant and, on a CPU with
    AVX-512F, in the active kernels: over packed panels of b for products
    of more than MR rows, and over b in place, KC rows at a time, for the
    others, one-row products included."""

    ROWS = (*range(1, 10), 15, 16, 17, 64, 65)
    INNER = (0, 1, 2, *KC_EDGES, 257)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["plain", "a.T", "b.T"])
    def test_every_tile_edge_gives_the_numpy_kernels_bytes(self, c_variant, layout, dtype):
        nr = 2 * 64 // np.dtype(dtype).itemsize
        rng = np.random.default_rng(nr)
        for n in self.ROWS:
            for m in (nr - 1, nr, nr + 1, 2 * nr + 3, 257):
                for k in self.INNER:
                    a = _operand(rng, (k, n), dtype).T if layout == "a.T" else _operand(rng, (n, k), dtype)
                    b = _operand(rng, (m, k), dtype).T if layout == "b.T" else _operand(rng, (k, m), dtype)
                    for x in (a, b):
                        where = rng.random(x.shape) < 0.01
                        x[where] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], where.sum())
                    with np.errstate(invalid="ignore"):
                        want = _kernel_matmul(_kernels_py, a, b)
                    nan = np.isnan(want)
                    got = _kernel_matmul(c_variant, a, b)
                    assert (np.isnan(got) == nan).all(), (n, k, m)
                    assert np.where(nan, 0, got).tobytes() == np.where(nan, 0, want).tobytes(), (n, k, m)
                    if k == 0:
                        assert got.tobytes() == np.zeros((n, m), dtype).tobytes()


class TestWidePanels:
    """Plain products around the blocks of both register-tile paths of
    _kernels.c. Under AVX-512F, products of more than MR rows read b in
    blocks of kc rows, kc = WIDE_BUF // (mt * itemsize) for the mt = m - m
    % NR columns the register tile covers, each block packed into panels of
    NR columns; products of at most MR rows read b in place, in blocks of
    KC rows. On both paths each output element's running sum is stored in
    out after one block and reloaded for the next. A transposed b is first
    gathered into panels of PANEL columns, each then read the same way, so
    for b^T the packed blocks follow the width of a PANEL panel. The m % NR
    columns left over stay on the i-p-j loop. Each inner length ends on a
    block edge of either path, one short of it or one past it, or one
    block later; a few ±0, ±inf and NaN sit in each operand, so most
    outputs stay finite. The active C kernels and every C variant this CPU
    runs give _kernels_py's bytes, NaN by position."""

    ROWS = (*range(1, 10), 17)
    SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)

    def _inner(self, m, nr, itemsize):
        """Inner lengths around the KC-row blocks and the packed blocks of
        m columns, and of the first PANEL panel of a b^T with m columns."""
        ks = set()
        for w in {m, min(m, _source_constant("PANEL"))}:
            mt = w - w % nr
            if mt:
                kc = _source_constant("WIDE_BUF") // (mt * itemsize)
                ks.update((*KC_EDGES, kc - 1, kc, kc + 1, 2 * kc + 1))
        return sorted(ks) or [257]  # no block: all columns on the loop

    def _sprinkle(self, rng, x, count):
        x.flat[rng.choice(x.size, count, replace=False)] = rng.choice(self.SPECIALS, count)

    @pytest.fixture(scope="class")
    def cases(self):
        """{dtype: [(a, b, want)]}, a holding max(ROWS) rows: one draw of
        operands per m, whose leading rows each inner length reads, and
        _kernels_py's product, shared by every kernel and layout."""
        cases = {}
        for dtype in (np.float32, np.float64):
            itemsize = np.dtype(dtype).itemsize
            nr = 2 * 64 // itemsize
            rng = np.random.default_rng(nr)
            cases[dtype] = []
            # The last m makes b^T two PANEL panels.
            for m in (nr - 1, 5 * nr - 1, 5 * nr, 5 * nr + 3, _source_constant("PANEL") + nr + 3):
                ks = self._inner(m, nr, itemsize)
                b_all = _operand(rng, (max(ks), m), dtype)
                a_all = _operand(rng, (max(self.ROWS), max(ks)), dtype)
                self._sprinkle(rng, b_all, 8)
                self._sprinkle(rng, a_all, 4)
                for k in ks:
                    a, b = np.ascontiguousarray(a_all[:, :k]), b_all[:k]
                    with np.errstate(invalid="ignore"):
                        cases[dtype].append((a, b, _kernel_matmul(_kernels_py, a, b)))
        return cases

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["plain", "a.T", "b.T"])
    def test_every_block_edge_gives_the_numpy_kernels_bytes(self, c_variant, cases, layout, dtype):
        seen = set()
        for a_all, b, want_all in cases[dtype]:
            if layout == "b.T":
                b = np.ascontiguousarray(b.T).T
            # Output row i depends on row i of a alone, so the widest
            # product's reference serves every row count.
            for n in self.ROWS:
                a = np.ascontiguousarray(a_all[:n].T).T if layout == "a.T" else np.ascontiguousarray(a_all[:n])
                want = want_all[:n]
                nan = np.isnan(want)
                got = _kernel_matmul(c_variant, a, b)
                assert (np.isnan(got) == nan).all(), (n, b.shape)
                assert np.where(nan, 0, got).tobytes() == np.where(nan, 0, want).tobytes(), (n, b.shape)
                seen.update(name for name, hit in (("nan", nan), ("inf", np.isinf(want)),
                                                   ("finite", np.isfinite(want))) if hit.any())
        assert seen == {"nan", "inf", "finite"}


def _sprinkled(rng, shape, dtype):
    """A random operand with a few ±0, ±inf and NaN."""
    x = _operand(rng, shape, dtype)
    where = rng.random(shape) < 0.01
    x[where] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], where.sum())
    return x


class TestGroupedTile:
    """Grouped products around the AVX-512F register tile of _kernels.c,
    which reads each expert's matrix in place, KC rows at a time (NR = 32
    f32 or 16 f64 columns): each grouped-rows segment runs on 8-, 4-, 2-
    and 1-row tiles over its stack matrix, a .T stack first gathered into
    row-major panels, and each segment of a grouped-inner-index product on
    the same tiles over its rows of b. The m % NR columns left over stay
    on the i-p-j loop. The active C kernels and every C variant this CPU
    runs give _kernels_py's bytes, NaN by position, with a few ±0, ±inf
    and NaN in each operand; an empty segment of the inner index gives
    +0.0."""

    LENGTHS = (*range(10), 15, 16, 17)
    INNER = (0, 1, 19, *KC_EDGES, 257)

    def _widths(self, dtype):
        nr = 2 * 64 // np.dtype(dtype).itemsize
        return nr, (nr - 1, nr, nr + 1, 2 * nr + 3)

    def _operand(self, rng, shape, dtype):
        return _sprinkled(rng, shape, dtype)

    def _check(self, kernels, a, b, offsets):
        with np.errstate(invalid="ignore"):
            want = _kernel_grouped(_kernels_py, a, b, offsets)
        got = _kernel_grouped(kernels, a, b, offsets)
        nan = np.isnan(want)
        assert (np.isnan(got) == nan).all()
        assert np.where(nan, 0, got).tobytes() == np.where(nan, 0, want).tobytes()
        return got

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_grouped_rows(self, c_variant, transposed, dtype):
        nr, widths = self._widths(dtype)
        rng = np.random.default_rng(nr + transposed)
        for lengths in (self.LENGTHS, self.LENGTHS[::-1]):
            offsets = _offsets(lengths)
            for m in widths:
                for k in self.INNER:
                    a = self._operand(rng, (int(offsets[-1]), k), dtype)
                    shape = (len(lengths), m, k) if transposed else (len(lengths), k, m)
                    stack = self._operand(rng, shape, dtype)
                    got = self._check(c_variant, a, stack.transpose(0, 2, 1) if transposed else stack, offsets)
                    if k == 0:
                        assert got.tobytes() == np.zeros_like(got).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [*range(1, 10), 17])
    def test_grouped_inner_index(self, c_variant, n, dtype):
        nr, widths = self._widths(dtype)
        rng = np.random.default_rng(nr + n)
        # Each segment's length is its inner length.
        offsets = _offsets((*self.LENGTHS, *KC_EDGES, 0))
        for m in widths:
            x = self._operand(rng, (int(offsets[-1]), n), dtype)
            d = self._operand(rng, (int(offsets[-1]), m), dtype)
            got = self._check(c_variant, x.T, d, offsets)
            empty = np.diff(offsets) == 0
            assert got[empty].tobytes() == np.zeros_like(got[empty]).tobytes()


class TestSplitProducts:
    """Products around the split of _kernels.c's worker pool, where this
    process may run on two CPUs or more: a product of 2 * PART_MIN
    multiply-adds or more splits plain products by columns, in whole
    panels of NR = 32 f32 or 16 f64 columns, the last part taking the m %
    NR left over (no split below 2 NR columns); grouped-rows products into
    runs of segments balanced by rows, and grouped-inner-index ones by
    inner length. Each part gathers a b^T into its own PANEL buffer and
    packs into its own buffer. The active C kernels and every C variant
    this CPU runs give _kernels_py's bytes, NaN by position, each case
    over the floor unless its work is 0."""

    PART_MIN = _source_constant("PART_MIN")

    def _check(self, kernels, a, b, offsets=None):
        work = a.shape[0] * a.shape[1] * b.shape[-1]
        assert work == 0 or work >= 2 * self.PART_MIN
        with np.errstate(invalid="ignore"):
            want = _kernel_matmul(_kernels_py, a, b) if offsets is None else _kernel_grouped(_kernels_py, a, b, offsets)
        got = _kernel_matmul(kernels, a, b) if offsets is None else _kernel_grouped(kernels, a, b, offsets)
        nan = np.isnan(want)
        assert (np.isnan(got) == nan).all()
        assert np.where(nan, 0, got).tobytes() == np.where(nan, 0, want).tobytes()
        return got

    def _operand(self, rng, shape, dtype):
        return _sprinkled(rng, shape, dtype)

    def _inner(self, n, m):
        """An inner length that puts n x m outputs over the floor."""
        return -(-2 * self.PART_MIN // (n * m))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["plain", "a.T", "b.T"])
    def test_plain_column_splits(self, c_variant, layout, dtype):
        nr = 2 * 64 // np.dtype(dtype).itemsize
        panel = _source_constant("PANEL")
        rng = np.random.default_rng(nr)
        # Under 2 NR columns (no split), on it, a part of leftover columns
        # only, the leftover in a part of several panels, and parts wider
        # than a PANEL gather.
        for m in (2 * nr - 1, 2 * nr, 2 * nr + 5, 7 * nr + 3, 2 * panel + nr + 3):
            for n in (1, _source_constant("MR"), _source_constant("MR") + 1, 64):
                k = self._inner(n, m)
                a = self._operand(rng, (k, n), dtype).T if layout == "a.T" else self._operand(rng, (n, k), dtype)
                b = self._operand(rng, (m, k), dtype).T if layout == "b.T" else self._operand(rng, (k, m), dtype)
                self._check(c_variant, a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_an_empty_side(self, c_variant, dtype):
        rng = np.random.default_rng(1)
        for n, k, m in ((0, 64, 4096), (64, 0, 4096), (4096, 0, 64)):
            got = self._check(c_variant, self._operand(rng, (n, k), dtype), self._operand(rng, (k, m), dtype))
            assert got.tobytes() == np.zeros((n, m), dtype).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_grouped_rows_splits(self, c_variant, transposed, dtype):
        nr = 2 * 64 // np.dtype(dtype).itemsize
        rng = np.random.default_rng(nr + transposed)
        m = 2 * nr + 3
        for lengths in ((40, 0, 0, 1, 0, 7, 0, 0, 22, 0), (0, 0, 70, 0), (70, 0, 0, 0), (0, 0, 0, 70),
                        (1,) * 70, (0, 1) * 35):
            offsets = _offsets(lengths)
            k = self._inner(int(offsets[-1]), m)
            a = self._operand(rng, (int(offsets[-1]), k), dtype)
            shape = (len(lengths), m, k) if transposed else (len(lengths), k, m)
            stack = self._operand(rng, shape, dtype)
            self._check(c_variant, a, stack.transpose(0, 2, 1) if transposed else stack, offsets)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grouped_inner_index_splits(self, c_variant, dtype):
        nr = 2 * 64 // np.dtype(dtype).itemsize
        rng = np.random.default_rng(nr)
        n, m = 9, 2 * nr + 3
        k = self._inner(n, m)
        for shares in ((0, 3, 0, 0, 1, 0, 4, 0), (0, 0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (1, 0) * 20):
            lengths = np.array(shares) * k // sum(shares)
            lengths[np.flatnonzero(lengths)[-1]] += k - lengths.sum()
            offsets = _offsets(lengths)
            x = self._operand(rng, (k, n), dtype)
            d = self._operand(rng, (k, m), dtype)
            got = self._check(c_variant, x.T, d, offsets)
            empty = np.diff(offsets) == 0
            assert got[empty].tobytes() == np.zeros_like(got[empty]).tobytes()


def _refusal_operands(case):
    """Operands of a grouped call (rows split, or for ``inner`` cases the
    inner index) with the one defect ``case`` names."""
    f32 = np.float32
    offsets = np.array([0, 2, 2, 6], dtype=np.int64)
    if case.startswith("inner"):
        a, b, out = np.ones((6, 4), f32).T, np.ones((6, 5), f32), np.full((3, 4, 5), 7.0, f32)
    else:
        a, b, out = np.ones((6, 4), f32), np.ones((3, 4, 5), f32), np.full((6, 5), 7.0, f32)
    defect = case.split(": ")[-1]
    if defect == "int32 offsets":
        offsets = offsets.astype(np.int32)
    elif defect == "N offsets":
        offsets = offsets[:-1]
    elif defect == "N+2 offsets":
        offsets = np.append(offsets, 6)
    elif defect == "offsets from 1":
        offsets[0] = 1
    elif defect == "decreasing offsets":
        offsets[1] = 3
    elif defect == "offsets short of the rows":
        offsets[-1] = 5
    elif defect == "offsets past the rows":
        offsets[-1] = 7
    elif defect == "stack K":
        b = np.ones((3, 3, 5), f32)
    elif defect == "stack m":
        b = np.ones((3, 4, 4), f32)
    elif defect == "out N":
        out = np.full((4, 4, 5), 7.0, f32)
    elif defect == "strided slice":
        b = np.ones((3, 4, 10), f32)[:, :, ::2]
    elif defect == "strided a":
        a = np.ones((6, 8), f32)[:, ::2].T if case.startswith("inner") else np.ones((6, 8), f32)[:, ::2]
    elif defect == "f64 operand":
        b = b.astype(np.float64)
    elif defect == "read-only out":
        out.flags.writeable = False
    elif defect == "no offsets":
        offsets = None
    elif defect == "list offsets":
        offsets = offsets.tolist()
    return a, b, out, offsets


REFUSALS = [
    "int32 offsets", "N offsets", "N+2 offsets", "offsets from 1", "decreasing offsets",
    "offsets short of the rows", "offsets past the rows", "stack K", "stack m", "strided slice",
    "strided a", "f64 operand", "read-only out", "no offsets", "list offsets",
    "inner: int32 offsets", "inner: N+2 offsets", "inner: decreasing offsets", "inner: offsets past the rows",
    "inner: out N", "inner: strided a", "inner: read-only out",
]


class TestKernelRefusals:
    """The C kernels trust the segment table and the strides, so both
    modules refuse bad operands with ValueError before any is read or
    written."""

    @pytest.mark.parametrize("case", REFUSALS)
    def test_refused_before_any_write(self, kernels, case):
        a, b, out, offsets = _refusal_operands(case)
        with pytest.raises(ValueError, match="kernel"):
            kernels.matmul_f32(a, b, out, offsets)
        assert (out == 7.0).all()

    @pytest.mark.parametrize("case", ["rows", "inner"])
    def test_the_unaltered_operands_are_taken(self, kernels, case):
        a, b, out, offsets = _refusal_operands(case)
        kernels.matmul_f32(a, b, out, offsets)
        assert not (out == 7.0).any()


PACKAGE = Path(finermoe.__file__).resolve().parent
needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")


def _package_copy(tmp_path):
    """A copy of the package with no build cache, so its first import builds."""
    shutil.copytree(PACKAGE, tmp_path / "finermoe", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "finermoe"


def _child(pkg, argv, gcc=True):
    """Run Python on the package copy; without ``gcc`` PATH holds nothing."""
    env = dict(os.environ, PYTHONPATH=str(pkg.parent))
    if not gcc:
        empty = pkg.parent / "empty"
        empty.mkdir(exist_ok=True)
        env["PATH"] = str(empty)
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=pkg.parent)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


BACKEND = ["-c", "import finermoe; print(finermoe.kernel_backend())"]


class TestKernelBuild:
    @needs_gcc
    def test_second_import_loads_the_cached_library(self, tmp_path):
        pkg = _package_copy(tmp_path)
        assert _child(pkg, BACKEND) == C_BACKEND
        (lib,) = (pkg / "__pycache__").glob("_kernels-*.so")
        before = lib.stat()
        # Without gcc on PATH, the C backend means nothing was compiled.
        assert _child(pkg, BACKEND, gcc=False) == C_BACKEND
        assert list((pkg / "__pycache__").glob("_kernels-*.so")) == [lib]
        assert (lib.stat().st_ino, lib.stat().st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    @needs_gcc
    def test_truncated_library_is_rebuilt_or_falls_back(self, tmp_path):
        pkg = _package_copy(tmp_path)
        assert _child(pkg, BACKEND) == C_BACKEND
        (lib,) = (pkg / "__pycache__").glob("_kernels-*.so")
        good = lib.read_bytes()
        lib.write_bytes(good[: len(good) // 2])
        assert _child(pkg, BACKEND, gcc=False) == "python (gcc not found on PATH)"
        assert _child(pkg, BACKEND) == C_BACKEND
        assert [p.read_bytes() for p in (pkg / "__pycache__").glob("_kernels-*.so")] == [good]

    @needs_gcc
    def test_a_build_removes_the_libraries_of_other_sources(self, tmp_path):
        # The copy starts with this package's library, which it loads
        # without gcc; its source is then edited, and the build for the new
        # source leaves one library, its own.
        from finermoe import _kernels_c

        pkg = _package_copy(tmp_path)
        (pkg / "__pycache__").mkdir()
        old = Path(shutil.copy(_kernels_c._library(), pkg / "__pycache__"))
        assert _child(pkg, BACKEND, gcc=False) == C_BACKEND
        with open(pkg / "_kernels.c", "a", encoding="utf-8") as fh:
            fh.write("/* edited */\n")
        assert _child(pkg, BACKEND) == C_BACKEND
        (lib,) = (pkg / "__pycache__").glob("_kernels-*.so")
        assert lib.name != old.name

    def test_the_library_holds_no_fused_multiply_add(self):
        # A fused multiply-add rounds once where the contract rounds twice;
        # -ffp-contract=off is what keeps the compiler from fusing the
        # kernel's multiplies and adds, in every variant and in the tile.
        objdump = shutil.which("objdump")
        if objdump is None:
            pytest.skip("no objdump on PATH to disassemble the kernel library")
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH, so the C kernels cannot build")
        from finermoe import _kernels_c

        asm = subprocess.run([objdump, "-d", str(_kernels_c._library())], capture_output=True, text=True,
                             check=True).stdout
        assert "vmulp" in asm and "vaddp" in asm
        assert not re.findall(r"\bvfn?m(?:add|sub)\w*", asm)

    @pytest.mark.parametrize("why", ["no gcc", "compile fails", "cache not writable"])
    def test_fallback_names_its_reason(self, tmp_path, why):
        pkg = _package_copy(tmp_path)
        if why == "no gcc":
            assert _child(pkg, BACKEND, gcc=False) == "python (gcc not found on PATH)"
            return
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH")
        if why == "compile fails":
            with open(pkg / "_kernels.c", "a", encoding="utf-8") as fh:
                fh.write("#error deliberately broken\n")
            assert _child(pkg, BACKEND).startswith("python (gcc exited 1: ")
        else:
            (pkg / "__pycache__").write_bytes(b"")
            assert _child(pkg, BACKEND).startswith("python ([Errno 17] File exists")

    def test_fallback_forward_gives_the_same_bytes(self, tmp_path):
        from finermoe.cli import read_matrix, run, write_matrix

        pkg = _package_copy(tmp_path)
        cfg, model, x = tmp_path / "m.cfg", tmp_path / "m.frm", tmp_path / "x.mat"
        assert run(["preset", "FineRMoE-base", "--h", "32", "--H", "64", "--out", str(cfg)]) == 0
        assert run(["upcycle", "--config", str(cfg), "--dense-seed", "5", "--out", str(model)]) == 0
        write_matrix(Rng(9).matrix(7, 32), x)
        assert run(["forward", "--model", str(model), "--input", str(x), "--out", str(tmp_path / "here.mat")]) == 0
        _child(pkg, ["-m", "finermoe", "forward", "--model", str(model), "--input", str(x),
                     "--out", str(tmp_path / "numpy.mat")], gcc=False)
        here, numpy = read_matrix(tmp_path / "here.mat"), read_matrix(tmp_path / "numpy.mat")
        assert here.a.tobytes() == numpy.a.tobytes()


# Minor page faults per in-process train-demo op at perfbench's train-coarse
# config (NVShard h=256 H=1024, batch 64, 2 steps), after 2 warm-up ops.
TRAIN_OP_FAULTS = """
import contextlib, io, os, resource, sys
os.chdir(sys.argv[1])
import finermoe
from finermoe import cli

assert finermoe.kernel_backend().startswith("c ("), finermoe.kernel_backend()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["preset", "NVShard", "--h", "256", "--H", "1024", "--out", "nv.cfg"]) == 0
    faults = []
    for op in range(5):
        assert cli.run(["train-demo", "--config", "nv.cfg", "--steps", "2", "--batch", "64",
                        "--seed", str(op), "--csv", "loss.csv"]) == 0
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
print((faults[-1] - faults[1]) / 3)
"""


class TestHeapPolicy:
    @needs_gcc
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="not linked against glibc, whose heap thresholds the C kernels fix")
    def test_train_demo_reuses_its_heap_from_op_to_op(self, tmp_path):
        # Under glibc's dynamic mmap threshold every backward got its 8 MB
        # gradient stacks as fresh pages from the kernel, about 6,000 minor
        # faults per op; with the thresholds fixed as the C kernels load,
        # they come back from the heap.
        assert float(_child(PACKAGE, ["-c", TRAIN_OP_FAULTS, str(tmp_path)])) < 300


class TestSilu:
    def test_fixed_points(self):
        assert silu(0.0) == 0.0
        assert silu(1.0) == pytest.approx(0.7310585786300049, rel=1e-12)
        assert silu(-20.0) == pytest.approx(-4.122307244877116e-08, rel=1e-6)

    @given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.0, max_value=50.0))
    def test_monotone_and_bounded_on_nonnegatives(self, x, y):
        lo, hi = sorted((x, y))
        assert silu(lo) <= silu(hi)
        assert silu(hi) <= hi

    def test_extreme_inputs_stay_finite(self):
        vals = silu(np.array([-1e4, -88.0, 0.0, 88.0, 1e4], dtype=np.float32))
        assert np.isfinite(vals).all()


class TestSigmoid:
    @staticmethod
    def _two_selects(x):
        """The logistic function as it was written before, one np.where for
        the exponent and one for the quotient."""
        x = np.asarray(x)
        pos = x >= 0
        z = np.exp(np.where(pos, -x, x))
        return np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bytes_as_the_two_select_formula(self, dtype):
        rng = np.random.default_rng(11)
        x = (rng.standard_normal(4096) * 10.0 ** rng.uniform(-3, 3, 4096)).astype(dtype)
        tiny = np.finfo(dtype).smallest_subnormal
        specials = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3e38, -3e38, 88.7, -88.7, 103.9, -103.9]
        x[: len(specials)] = specials
        got, want = sigmoid(x), self._two_selects(x)
        assert got.dtype == want.dtype == dtype
        nan = np.isnan(want)
        assert nan.sum() == 1 and (np.isnan(got) == nan).all()
        assert np.where(nan, 0, got).tobytes() == np.where(nan, 0, want).tobytes()

    def test_scalars_stay_scalars(self):
        for x in (1.0, -2.5, 0.0):
            assert np.asarray(sigmoid(x)).tobytes() == np.asarray(self._two_selects(x)).tobytes()
        assert isinstance(silu(1.0), float)
        assert sigmoid(np.float32(-3.0)).dtype == np.float32


class TestSoftmax:
    def test_symmetry(self):
        assert softmax(np.array([3.7, 3.7])).tolist() == [0.5, 0.5]

    def test_closed_form(self):
        out = softmax(np.array([0.0, np.log(3.0)]))
        assert out == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_large_logits_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_rows_sum_to_one(self):
        v = Rng(7).matrix(5, 33).a
        out = softmax(v, axis=1)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6
        assert (out > 0).all()

    @settings(max_examples=30)
    @given(
        st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=16),
        st.floats(min_value=-100, max_value=100),
    )
    def test_shift_invariance(self, vals, c):
        v = np.array(vals)
        assert np.abs(softmax(v + c) - softmax(v)).max() < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            softmax(np.array([1.0, np.nan]))


def _splitmix64_scalar(seed: int, n: int) -> list[int]:
    """Independent plain-int reimplementation of the stream."""
    mask = (1 << 64) - 1
    out = []
    state = seed & mask
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


class TestRng:
    def test_matches_scalar_reference(self):
        for seed in (0, 1, 123456789, 2**64 - 1):
            got = splitmix64(seed, 0, 6).tolist()
            assert got == _splitmix64_scalar(seed, 6)

    def test_known_vector_seed_zero(self):
        # First outputs of the canonical stream for seed 0.
        assert splitmix64(0, 0, 3).tolist() == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_same_seed_same_stream(self):
        assert Rng(42).uniform(100).tolist() == Rng(42).uniform(100).tolist()
        a = Rng(42)
        first = a.uniform(50)
        second = a.uniform(50)
        assert not np.array_equal(first, second)

    def test_uniform_range(self):
        u = Rng(9).uniform(10_000)
        assert (u >= 0.0).all() and (u < 1.0).all()

    def test_normal_moments(self):
        z = Rng(10).normal(50_000, std=2.0)
        assert abs(z.mean()) < 0.05
        assert abs(z.std() - 2.0) < 0.05

    def test_children_are_decorrelated(self):
        base = Rng(11)
        a = base.child(0).uniform(1000)
        b = base.child(1).uniform(1000)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def _scalar_uniform(seed: int, counter: int, n: int) -> list[float]:
    """Draws counter + 1 .. counter + n as uniform doubles, from the
    plain-int stream above."""
    mask = (1 << 64) - 1
    start = (seed + counter * 0x9E3779B97F4A7C15) & mask
    return [(z >> 11) * 2.0**-53 for z in _splitmix64_scalar(start, n)]


class TestUniformDraws:
    """The uniform_f64 entries: every C build gives _kernels_py's bytes, and
    Rng's draws are the same whichever kernel module is active."""

    M = 1 << 64

    def _cases(self):
        rng = np.random.default_rng(2028)
        for seed in (0, 1, self.M - 1, int(rng.integers(self.M, dtype=np.uint64))):
            for n in (0, 1, 2 * int(rng.integers(1, 500)) + 1, 262144):
                wrap = self.M - int(rng.integers(1, 2 * n + 2))
                for counter in (0, int(rng.integers(self.M, dtype=np.uint64)), wrap):
                    yield seed, counter, n

    def _uniform(self, kernels, seed, counter, n):
        out = np.empty(n)
        kernels.uniform_f64(seed, counter, out)
        return out

    def test_numpy_entry_matches_the_scalar_stream(self):
        for seed, counter, n in self._cases():
            if n < 1000:
                assert self._uniform(_kernels_py, seed, counter, n).tolist() == _scalar_uniform(seed, counter, n)

    def test_every_c_build_gives_the_numpy_entrys_bytes(self, c_kernels, isa_kernels):
        for seed, counter, n in self._cases():
            want = self._uniform(_kernels_py, seed, counter, n).tobytes()
            for kern in (c_kernels, *isa_kernels.values()):
                assert self._uniform(kern, seed, counter, n).tobytes() == want, (seed, counter, n)

    @pytest.mark.parametrize("kernels", ["python", "c"])
    def test_entries_refuse_an_out_they_cannot_fill(self, request, kernels):
        kern = _kernel_module(request, kernels)
        for out in (np.empty(4, np.float32), np.empty((2, 2)), np.empty(8)[::2]):
            with pytest.raises(ValueError, match="float64 out"):
                kern.uniform_f64(1, 0, out)
        frozen = np.empty(4)
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="float64 out"):
            kern.uniform_f64(1, 0, frozen)

    def test_normal_is_box_muller_of_the_integer_stream(self):
        for seed, counter, n in self._cases():
            if n > 1000:
                continue
            rng = Rng(seed)
            rng.counter = np.uint64(counter)
            k = (splitmix64(seed, counter, 2 * n) >> np.uint64(11)).astype(np.float64)
            got = rng.normal(n, std=0.5)
            want = 0.5 * np.sqrt(-2.0 * np.log((k[:n] + 1.0) * 2.0**-53)) * np.cos(k[n:] * 2.0**-53 * (2.0 * np.pi))
            assert got.tobytes() == want.tobytes() and rng.counter == (counter + 2 * n) % self.M

    @pytest.mark.parametrize("kernels", ["python", "c"])
    @pytest.mark.parametrize("as_uint64", [False, True], ids=["int", "uint64"])
    def test_counter_wraps_past_2_64_without_a_warning(self, request, monkeypatch, kernels, as_uint64):
        monkeypatch.setattr(_backend, "active", _kernel_module(request, kernels))
        for seed in (0, self.M - 1, 2028):
            for counter, n in ((self.M - 1, 1), (self.M - 3, 8), (self.M - 100, 257)):
                start = (seed + counter * 0x9E3779B97F4A7C15) % self.M
                uni = Rng(seed)
                uni.counter = np.uint64(counter) if as_uint64 else counter
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert splitmix64(seed, uni.counter, n).tolist() == _splitmix64_scalar(start, n)
                    assert uni.uniform(n).tolist() == _scalar_uniform(seed, counter, n)
                assert uni.counter == (counter + n) % self.M

    def test_rng_draws_are_the_same_under_the_numpy_kernels(self, c_kernels, monkeypatch):
        def draws():
            out = []
            for seed, counter, n in self._cases():
                rng = Rng(seed)
                rng.counter = np.uint64(counter)
                out += [rng.uniform(n), rng.normal(n, std=0.02), rng.matrix(3, 5, std=2.0).a, rng.counter]
            dense = random_dense(256, 1024, 7)
            return [np.asarray(x).tobytes() for x in out] + [dense.w1.a.tobytes(), dense.wg.a.tobytes(),
                                                               dense.w2.a.tobytes()]

        here = draws()
        monkeypatch.setattr(_backend, "active", _kernels_py)
        assert draws() == here


def _signed_magnitudes(rng, shape):
    """float32 values of random sign whose magnitudes spread from the
    smallest subnormal to 1e18, about a tenth of them zero."""
    vals = np.where(rng.random(shape) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(-46, 18, shape)
    vals[rng.random(shape) < 0.1] = 0.0
    return vals.astype(np.float32)


class TestOptimizerEntries:
    """The sum_squares_f32 and sub_scaled_f32 entries of train-demo's SGD
    step: every C build gives the bytes of _kernels_py's, which are NumPy's
    per-tensor loops."""

    SIZES = (*range(1, 10), 127, 128, 129, 255, 256, 257, 8191, 8192, 8193, (1 << 20) - 1, (1 << 20) + 1)
    SCALES = (0.1, 1 / 3, 0.0, np.float64(0.1), np.float64(1 / 3), np.float64(0.0))

    def _tensor_sets(self):
        """Lists of tensors: each size on its own, at three scales of value,
        then every NVShard and FineRMoE-base tensor shape at h=256 H=1024."""
        rng = np.random.default_rng(2029)
        shapes = sorted({
            m.shape for name in ("NVShard", "FineRMoE-base")
            for _, m in named_parameters(MoEModel.zeros(baseline_preset(name, h=256, H=1024)))
        })
        for n in self.SIZES:
            yield [_signed_magnitudes(rng, n)]
            yield [rng.standard_normal(n).astype(np.float32)]
            yield [(1e-3 * rng.standard_normal(n)).astype(np.float32)]
        yield [_signed_magnitudes(rng, shape) for shape in shapes]
        yield [(1e-3 * rng.standard_normal(shape)).astype(np.float32) for shape in shapes]

    def test_every_c_build_gives_the_numpy_entrys_bytes(self, c_kernels, isa_kernels):
        builds = (c_kernels, *isa_kernels.values())
        rng = np.random.default_rng(2030)
        for tensors in self._tensor_sets():
            want = _kernels_py.sum_squares_f32(tensors).hex()
            assert all(kern.sum_squares_f32(tensors).hex() == want for kern in builds), [t.shape for t in tensors]
            grads = [_signed_magnitudes(rng, t.shape) for t in tensors]
            for scale in self.SCALES:
                want = [t.copy() for t in tensors]
                _kernels_py.sub_scaled_f32(want, grads, scale)
                for kern in builds:
                    got = [t.copy() for t in tensors]
                    kern.sub_scaled_f32(got, grads, scale)
                    assert [g.tobytes() for g in got] == [w.tobytes() for w in want], (type(scale), scale)

    def test_the_numpy_entries_are_the_per_tensor_loops(self):
        # The sum of squares is NumPy's pairwise sum of each widened tensor,
        # which adds in another order than a running sum; the update
        # follows NumPy's promotion of a Python float and of an np.float64,
        # which give other bits. So the cases above tell each apart.
        rng = np.random.default_rng(2031)
        g, p0 = rng.standard_normal(1000).astype(np.float32), rng.standard_normal(1000).astype(np.float32)
        squares = g.astype(np.float64) ** 2
        running = 0.0
        for x in squares:
            running += x
        assert _kernels_py.sum_squares_f32([g, g]) == 2 * float(squares.sum()) != 2 * running
        narrow, wide = p0.copy(), p0.copy()
        _kernels_py.sub_scaled_f32([narrow], [g], 1 / 3)
        _kernels_py.sub_scaled_f32([wide], [g], np.float64(1 / 3))
        assert narrow.tobytes() == (p0 - np.float32(1 / 3) * g).tobytes()
        assert wide.tobytes() == (p0 - (1 / 3) * g.astype(np.float64)).astype(np.float32).tobytes()
        assert narrow.tobytes() != wide.tobytes()

    def _refusals(self):
        """(params, grads, scale) that sub_scaled_f32 refuses; the first
        pair of each is valid, so a refusal after it would have written."""
        p = np.full((4, 6), 7.0, np.float32)
        g = np.ones((4, 6), np.float32)
        frozen = p.copy()
        frozen.flags.writeable = False
        wide = np.full((4, 12), 7.0, np.float32)
        yield [p, p.astype(np.float64)], [g, g], 0.1
        yield [p, p.copy()], [g, g.astype(np.float64)], 0.1
        yield [p, wide[:, ::2]], [g, g], 0.1
        yield [p, p.copy()], [g, np.ones((6, 8), np.float32)[:4, :6]], 0.1
        yield [p, p.copy().T], [g, g.T], 0.1
        yield [p, frozen], [g, g], 0.1
        yield [p, p.copy()], [g, np.ones((6, 4), np.float32)], 0.1
        yield [p, p.copy()], [g], 0.1
        flat = np.ones(30, np.float32)
        yield [p, flat[:24].reshape(4, 6)], [g, flat[6:].reshape(4, 6)], 0.1
        q = p.copy()
        yield [p, q], [g, q], 0.1
        yield [p], [g], 1
        yield [p], [g], np.longdouble(0.1)
        yield [p], [g], "0.1"

    def test_refused_before_any_write(self, kernels):
        for params, grads, scale in self._refusals():
            before = [x.copy() for x in params]
            with pytest.raises(ValueError, match="an SGD update needs"):
                kernels.sub_scaled_f32(params, grads, scale)
            assert [x.tobytes() for x in params] == [x.tobytes() for x in before]
        for arrays in ([np.ones(4), np.ones(4, np.float32)], [np.ones((4, 8), np.float32)[:, ::2]], [[1.0, 2.0]]):
            with pytest.raises(ValueError, match="a sum of squares needs"):
                kernels.sum_squares_f32(arrays)

    def test_read_only_and_empty_tensors_are_summed(self, kernels):
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        a.flags.writeable = False
        assert kernels.sum_squares_f32([a, np.empty((0, 4), np.float32)]) == 506.0
        assert kernels.sum_squares_f32([]) == 0.0


class TestMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Matrix.wrap(np.array([1.0, 2.0], np.float32))

    def test_transpose_round_trip(self):
        m = Rng(12).matrix(3, 5)
        assert m.T.shape == (5, 3) and np.shares_memory(m.T.a, m.a)
        assert m.T.T.shape == m.shape and m.T.T.a.tobytes() == m.a.tobytes()

    def test_astype_preserves_values(self):
        m = Rng(13).matrix(4, 4)
        assert np.allclose(m.astype(np.float64).a, m.a)

    # Matrix is only the matmul operand; everything else is an ndarray.
    # perfbench wraps inputs and reads a product's .a, .rows and .cols
    # (workloads.py, spans.py), which its library-name scan does not see.
    def test_public_names_are_the_operand_surface(self):
        kept = {"a", "wrap", "rows", "cols", "dtype", "shape", "T", "astype"}
        assert {n for n in dir(Matrix) if not n.startswith("_")} == kept
        assert {"wrap", "a", "rows", "cols"} <= kept
        assert Matrix.__init__ is object.__init__ and Matrix.__eq__ is object.__eq__

    def test_wrap_rejects_non_contiguous(self):
        backing = Rng(14).matrix(4, 6).a
        with pytest.raises(ValueError, match="contiguous"):
            Matrix.wrap(backing[:, ::2])
