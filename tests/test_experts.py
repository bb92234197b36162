import numpy as np
import pytest

import finermoe.experts as experts_mod
from finermoe.experts import DenseFfnWeights, shared_forward, swiglu
from finermoe.numerics import Matrix, Rng, silu


def _toy_expert():
    return (
        Matrix.wrap(np.eye(2, dtype=np.float32)),
        Matrix.wrap(np.eye(2, dtype=np.float32)),
        Matrix.wrap(np.array([[1.0], [1.0]], dtype=np.float32)),
    )


class TestExpertForward:
    def test_hand_evaluation(self):
        out = swiglu(Matrix.wrap(np.array([[1.0, 0.0]], dtype=np.float32)), *_toy_expert()).out
        assert out.a[0, 0] == pytest.approx(silu(1.0), rel=1e-6)

    def test_zero_input(self):
        w = (Rng(1).matrix(4, 6), Rng(2).matrix(4, 6), Rng(3).matrix(6, 2))
        out = swiglu(Matrix.wrap(np.zeros((3, 4), np.float32)), *w).out
        assert not out.a.any()

    def test_zero_down_projection(self):
        w = (Rng(1).matrix(4, 6), Rng(2).matrix(4, 6), Matrix.wrap(np.zeros((6, 2), np.float32)))
        out = swiglu(Rng(4).matrix(3, 4), *w).out
        assert not out.a.any()

    def test_batch_equals_stacked_rows_bitwise(self):
        w = (Rng(5).matrix(4, 6), Rng(6).matrix(4, 6), Rng(7).matrix(6, 2))
        x = Rng(8).matrix(5, 4)
        whole = swiglu(x, *w).out.a
        rows = np.vstack(
            [swiglu(Matrix.wrap(x.a[i : i + 1].copy()), *w).out.a for i in range(5)]
        )
        assert whole.tobytes() == rows.tobytes()

    def test_shape_mismatch(self):
        w = _toy_expert()
        with pytest.raises(ValueError, match="does not match"):
            swiglu(Matrix.wrap(np.zeros((1, 3), np.float32)), *w)

    def test_identity_gate_makes_forward_bilinear(self, monkeypatch):
        # With the gate nonlinearity removed the map is linear in W1 and
        # quadratic (bilinear) in x; checks the chain wiring in isolation.
        monkeypatch.setattr(experts_mod, "silu", lambda v: v)
        w = (
            Rng(9).matrix(4, 6, dtype=np.float64),
            Rng(10).matrix(4, 6, dtype=np.float64),
            Rng(11).matrix(6, 2, dtype=np.float64),
        )
        x = Rng(12).matrix(3, 4, dtype=np.float64)
        base = swiglu(x, *w).out.a
        scaled_w1 = (Matrix.wrap(3.0 * w[0].a), w[1], w[2])
        assert np.allclose(swiglu(x, *scaled_w1).out.a, 3.0 * base, rtol=1e-12)
        x2 = Matrix.wrap(2.0 * x.a)
        assert np.allclose(swiglu(x2, *w).out.a, 4.0 * base, rtol=1e-12)


class TestSharedForward:
    def test_zero_input(self):
        w = DenseFfnWeights(Rng(1).matrix(4, 8), Rng(2).matrix(4, 8), Rng(3).matrix(8, 4))
        assert not shared_forward(Matrix.wrap(np.zeros((2, 4), np.float32)), w).out.a.any()

    def test_batch_row_decomposition(self):
        w = DenseFfnWeights(Rng(4).matrix(4, 8), Rng(5).matrix(4, 8), Rng(6).matrix(8, 4))
        x = Rng(7).matrix(3, 4)
        whole = shared_forward(x, w).out.a
        rows = np.vstack(
            [shared_forward(Matrix.wrap(x.a[i : i + 1].copy()), w).out.a for i in range(3)]
        )
        assert whole.tobytes() == rows.tobytes()

    def test_output_is_full_width(self):
        w = DenseFfnWeights(Rng(8).matrix(4, 8), Rng(9).matrix(4, 8), Rng(10).matrix(8, 4))
        assert shared_forward(Rng(11).matrix(5, 4), w).out.shape == (5, 4)


class TestWeightContainers:
    def test_dense_shape_check(self):
        with pytest.raises(ValueError, match="inconsistent"):
            DenseFfnWeights(*(Matrix.wrap(np.zeros((4, 8), np.float32)) for _ in range(3)))
