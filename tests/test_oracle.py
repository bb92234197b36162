import numpy as np
import pytest

from finermoe.config import FineRConfig
from finermoe.experts import DenseFfnWeights, shared_forward
from finermoe.numerics import Matrix, Rng, silu
from finermoe.oracle import dense_ffn_forward, route_reference
from finermoe.router import route
from finermoe.verify import decisions_equal, dyadic_scores, rel_err


class TestDenseOracle:
    def test_zero_input(self):
        w = DenseFfnWeights(Rng(1).matrix(4, 8), Rng(2).matrix(4, 8), Rng(3).matrix(8, 4))
        assert not dense_ffn_forward(Matrix.zeros(2, 4), w).a.any()

    def test_hand_instance(self):
        w = DenseFfnWeights(Matrix.identity(2), Matrix.identity(2), Matrix([[1.0, 0.0], [1.0, 0.0]]))
        out = dense_ffn_forward(Matrix([[1.0, 0.0]]), w)
        assert out.a[0, 0] == pytest.approx(silu(1.0), rel=1e-6)

    def test_agrees_with_production_forward_f64(self):
        rng = Rng(4)
        for i in range(100):
            w = DenseFfnWeights(
                rng.matrix(6, 10, dtype=np.float64),
                rng.matrix(6, 10, dtype=np.float64),
                rng.matrix(10, 6, dtype=np.float64),
            )
            x = rng.matrix(3, 6, dtype=np.float64)
            assert rel_err(dense_ffn_forward(x, w).a, shared_forward(x, w).out.a) < 1e-6

    def test_agrees_with_production_forward_f32(self):
        rng = Rng(5)
        for i in range(20):
            w = DenseFfnWeights(rng.matrix(6, 10), rng.matrix(6, 10), rng.matrix(10, 6))
            x = rng.matrix(3, 6)
            assert rel_err(dense_ffn_forward(x, w).a, shared_forward(x, w).out.a) < 1e-5

    def test_shape_check(self):
        w = DenseFfnWeights(Rng(6).matrix(4, 8), Rng(7).matrix(4, 8), Rng(8).matrix(8, 4))
        with pytest.raises(ValueError, match="does not match"):
            dense_ffn_forward(Matrix.zeros(2, 5), w)


class TestRouteReference:
    def test_single_expert_degenerate(self):
        cfg = FineRConfig(h=8, H=8)
        s = np.array([[0.7], [0.2]], dtype=np.float32)
        d = route_reference(s, cfg)
        assert d.indices.tolist() == [[0], [0]]
        assert d.probs.tolist() == [[pytest.approx(0.7)], [pytest.approx(0.2)]]

    def test_matches_route_on_hand_traces(self):
        for cfg, row in [
            (FineRConfig(h=8, H=8, G_I=1, R_I=1, G_O=1, R_O=2, T_I=1), [0.6, 0.4]),
            (FineRConfig(h=8, H=8, G_I=2, R_I=1, G_O=1, R_O=2, T_I=1), [0.1, 0.2, 0.35, 0.35]),
        ]:
            s = np.array([row], dtype=np.float32)
            assert decisions_equal(route(s, cfg), route_reference(s, cfg))

    def test_matches_route_on_random_batches(self):
        rng = Rng(9)
        cfg = FineRConfig(h=8, H=8, G_I=2, R_I=2, G_O=2, R_O=2, T_I=2)
        for _ in range(25):
            s = dyadic_scores(rng, 6, 16)
            assert decisions_equal(route(s, cfg), route_reference(s, cfg))
