import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finermoe.numerics import Matrix, Rng, count_flops, matmul, silu, softmax


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

    # Shapes on both sides of the kernel's blocked schedule: small K x m
    # blocks, one column (always the rank-1 loop; a 1 x 1 block would be
    # summed pairwise) and K x m past the tile.
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n,k,m", [(9, 40, 5), (70, 33, 2), (1, 600, 1), (3, 600, 1), (4, 300, 500)]
    )
    def test_sums_each_element_in_ascending_order(self, n, k, m, dtype):
        rng = np.random.default_rng(n * k + m)
        # Magnitudes over many decades make any other summation order
        # round differently. The last row times column 0 is all -0.0
        # terms, whose sum from +0.0 is +0.0.
        a = (rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-6, 6, (n, k))).astype(dtype)
        b = (rng.standard_normal((k, m)) * 10.0 ** rng.uniform(-6, 6, (k, m))).astype(dtype)
        if n > 1:
            a[n - 1] = -0.0
            b[:, 0] = np.abs(b[:, 0])
        out = matmul(Matrix.wrap(a), Matrix.wrap(b)).a
        for j in sorted({0, m // 2, m - 1}):
            for i in range(n):
                s = dtype(0.0)
                for p in range(k):
                    s = s + a[i, p] * b[p, j]
                assert out[i, j].tobytes() == s.tobytes(), (i, j)


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
