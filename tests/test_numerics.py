import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finermoe
from finermoe import _backend, _kernels_py, kernel_backend
from finermoe.numerics import Matrix, Rng, count_flops, matmul, silu, softmax


@pytest.fixture
def c_kernels():
    """The C kernel module; with gcc on PATH it must have built."""
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH, so the C kernels cannot build")
    assert kernel_backend() == "c"
    return _backend.active


@pytest.fixture(params=["python", "c"])
def kernels(request):
    """Each kernel module, called directly, so the NumPy kernels stay
    tested while the C kernels are active."""
    return _kernels_py if request.param == "python" else request.getfixturevalue("c_kernels")


def _kernel_matmul(kernels, a, b):
    out = np.empty((a.shape[0], b.shape[1]), dtype=a.dtype)
    (kernels.matmul_f32 if a.dtype == np.float32 else kernels.matmul_f64)(a, b, out)
    return out


class TestMatmul:
    def test_identity_exact(self):
        a = Rng(1).matrix(7, 7)
        out = matmul(a, Matrix.identity(7))
        assert out.a.tobytes() == a.a.tobytes()

    def test_hand_product(self):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]])
        b = Matrix([[1.0], [1.0]])
        assert matmul(a, b).a.tolist() == [[3.0], [7.0]]

    def test_dimension_mismatch_names_shapes(self):
        a = Matrix.zeros(1, 3)
        b = Matrix.zeros(2, 2)
        with pytest.raises(ValueError, match="1x3.*2x2"):
            matmul(a, b)

    def test_f64_inputs_give_f64_output(self):
        a = Rng(5).matrix(3, 4, dtype=np.float64)
        b = Rng(6).matrix(4, 2, dtype=np.float64)
        assert matmul(a, b).dtype == np.float64

    def test_mixed_dtypes_promote_to_f64(self):
        a = Rng(5).matrix(3, 4)
        b = Rng(6).matrix(4, 2, dtype=np.float64)
        out = matmul(a, b)
        assert out.dtype == np.float64
        want = matmul(a.astype(np.float64), b)
        assert out.a.tobytes() == want.a.tobytes()

    def test_flop_counter(self):
        with count_flops() as c:
            matmul(Matrix.zeros(3, 4), Matrix.zeros(4, 5))
        assert c.flops == 2 * 3 * 4 * 5

    # Shapes on both sides of the kernel's schedules: one inner chunk,
    # several chunks with a short last one (kc = 436: 436 + 436 + 128),
    # several row blocks with a remainder (r = 51), one column (always the
    # rank-1 loop; a 1 x 1 block would be summed pairwise) and rows wider
    # than 8,192 columns (the rank-1 loop).
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

    # (n, K, m) of the products one op of each perfbench workload runs: the
    # router, the expert batches (one token up to a batch), the shared
    # expert and, in train-coarse, backward's weight and input gradients.
    # train-coarse's shared expert has infer-fine's shapes.
    WORKLOAD_SHAPES = {
        "infer-fine": [
            (64, 256, 128), (1, 256, 32), (4, 256, 32), (1, 32, 128), (4, 32, 128),
            (64, 256, 1024), (64, 1024, 256),
        ],
        "train-coarse": [
            (3, 256, 128), (15, 256, 128), (3, 128, 256), (15, 128, 256),
            (128, 3, 256), (256, 15, 128), (1024, 64, 256), (256, 64, 1024),
            (256, 64, 64), (64, 256, 64), (64, 256, 256),
        ],
        "cli-ref": [
            (8, 1536, 128), (1, 1536, 280), (1, 280, 768), (8, 1536, 8960), (8, 8960, 1536),
        ],
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,k,m", [s for shapes in WORKLOAD_SHAPES.values() for s in shapes])
    def test_workload_shapes_match_a_rank_1_loop(self, kernels, n, k, m, dtype):
        rng = np.random.default_rng(n * k * m)
        a = (rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-6, 6, (n, k))).astype(dtype)
        b = (rng.standard_normal((k, m)) * 10.0 ** rng.uniform(-6, 6, (k, m))).astype(dtype)
        want = np.zeros((n, m), dtype=dtype)
        for p in range(k):
            want += a[:, p, None] * b[None, p, :]
        assert _kernel_matmul(kernels, a, b).tobytes() == want.tobytes()

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
        assert _child(pkg, BACKEND) == "c"
        (lib,) = (pkg / "__pycache__").glob("_matmul-*.so")
        before = lib.stat()
        # Without gcc on PATH, "c" means nothing was compiled.
        assert _child(pkg, BACKEND, gcc=False) == "c"
        assert list((pkg / "__pycache__").glob("_matmul-*.so")) == [lib]
        assert (lib.stat().st_ino, lib.stat().st_mtime_ns) == (before.st_ino, before.st_mtime_ns)

    @needs_gcc
    def test_truncated_library_is_rebuilt_or_falls_back(self, tmp_path):
        pkg = _package_copy(tmp_path)
        assert _child(pkg, BACKEND) == "c"
        (lib,) = (pkg / "__pycache__").glob("_matmul-*.so")
        good = lib.read_bytes()
        lib.write_bytes(good[: len(good) // 2])
        assert _child(pkg, BACKEND, gcc=False) == "python (gcc not found on PATH)"
        assert _child(pkg, BACKEND) == "c"
        assert [p.read_bytes() for p in (pkg / "__pycache__").glob("_matmul-*.so")] == [good]

    @pytest.mark.parametrize("why", ["no gcc", "compile fails", "cache not writable"])
    def test_fallback_names_its_reason(self, tmp_path, why):
        pkg = _package_copy(tmp_path)
        if why == "no gcc":
            assert _child(pkg, BACKEND, gcc=False) == "python (gcc not found on PATH)"
            return
        if shutil.which("gcc") is None:
            pytest.skip("no gcc on PATH")
        if why == "compile fails":
            with open(pkg / "_matmul.c", "a", encoding="utf-8") as fh:
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
            got = Rng(seed)._raw(6).tolist()
            assert got == _splitmix64_scalar(seed, 6)

    def test_known_vector_seed_zero(self):
        # First outputs of the canonical stream for seed 0.
        assert Rng(0)._raw(3).tolist() == [
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


class TestMatrix:
    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Matrix([1.0, 2.0])

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            Matrix(np.zeros((0, 3), dtype=np.float32))

    def test_transpose_round_trip(self):
        m = Rng(12).matrix(3, 5)
        assert m.transpose().transpose() == m

    def test_astype_preserves_values(self):
        m = Rng(13).matrix(4, 4)
        assert np.allclose(m.astype(np.float64).a, m.a)

    def test_wrap_rejects_non_contiguous(self):
        backing = Rng(14).matrix(4, 6).a
        with pytest.raises(ValueError, match="contiguous"):
            Matrix.wrap(backing[:, ::2])
