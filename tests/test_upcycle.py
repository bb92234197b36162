import numpy as np
import pytest

from finermoe.checkpoint import write_model
from finermoe.config import FineRConfig, baseline_preset, derive, preset_names, with_updates
from finermoe.moe_layer import forward, forward_forced, named_parameters
from finermoe.numerics import Rng
from finermoe.oracle import dense_ffn_forward
from finermoe.upcycle import (
    ROUTER_INIT_STD,
    drop_upcycle,
    expert_slice_indices,
    random_dense,
    upcycle,
)


class TestSliceIndices:
    def test_two_by_two_grid(self):
        cfg = FineRConfig(h=8, H=8, G_I=2, R_I=1, G_O=2, R_O=1)
        i, j = expert_slice_indices(cfg)
        assert list(zip(i.tolist(), j.tolist())) == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_pure_replication(self):
        cfg = FineRConfig(h=8, H=8, G_I=1, R_I=2, G_O=1, R_O=1)
        i, j = expert_slice_indices(cfg)
        assert (i.tolist(), j.tolist()) == ([0, 0], [0, 0])

    def test_expert_zero_is_always_origin(self):
        for cfg in [
            FineRConfig(h=8, H=8, G_I=2, R_I=2, G_O=2, R_O=2),
            FineRConfig(h=8, H=8, G_I=4, R_I=1, G_O=1, R_O=2),
            FineRConfig(h=8, H=8),
        ]:
            i, j = expert_slice_indices(cfg)
            assert (i[0], j[0]) == (0, 0)


def _expert_slices(dense, cfg):
    """The three expert stacks built one expert at a time, as the module
    docstring states them: expert k takes W1/Wg column block i and the
    (i, j) block of W2."""
    dims = derive(cfg)
    stacks = ([], [], [])
    for k in range(dims.N):
        i = (k % (cfg.G_I * cfg.R_I)) % cfg.G_I
        j = k // (cfg.R_O * cfg.G_I * cfg.R_I)
        cols = slice(i * dims.H_e, (i + 1) * dims.H_e)
        stacks[0].append(dense.w1.a[:, cols])
        stacks[1].append(dense.wg.a[:, cols])
        stacks[2].append(dense.w2.a[cols, j * dims.h_e : (j + 1) * dims.h_e])
    return [np.stack(s) for s in stacks]


_GRID = [
    (g_i, r_i, g_o, r_o)
    for g_i in (1, 2, 4) for r_i in (1, 2) for g_o in (1, 2, 4) for r_o in (1, 2)
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("g_i, r_i, g_o, r_o", _GRID)
def test_stacks_are_the_per_expert_slices_byte_for_byte(g_i, r_i, g_o, r_o, dtype):
    cfg = FineRConfig(h=8, H=16, G_I=g_i, R_I=r_i, G_O=g_o, R_O=r_o)
    dense = random_dense(8, 16, 40).astype(dtype)
    experts = upcycle(dense, cfg, 41).experts
    for got, want in zip((experts.w1, experts.wg, experts.w2), _expert_slices(dense, cfg)):
        assert got.dtype == dtype
        # So each expert's matrix is C-contiguous, as the grouped kernel's
        # operand check requires.
        assert got.flags.c_contiguous
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestUpcycle:
    def test_replication_preset_copies_dense(self):
        cfg = baseline_preset("C32A2", h=16, H=32)
        dense = random_dense(16, 32, 1)
        model = upcycle(dense, cfg, 2)
        assert len(model.experts.w1) == 32
        for k in range(32):
            assert model.experts.w1[k].tobytes() == dense.w1.a.tobytes()
            assert model.experts.wg[k].tobytes() == dense.wg.a.tobytes()
            assert model.experts.w2[k].tobytes() == dense.w2.a.tobytes()

    def test_split_preset_tiles_dense_exactly(self):
        cfg = baseline_preset("S16A4", h=16, H=32)
        dense = random_dense(16, 32, 3)
        model = upcycle(dense, cfg, 4)
        w1_cat = np.concatenate(list(model.experts.w1), axis=1)
        wg_cat = np.concatenate(list(model.experts.wg), axis=1)
        w2_cat = np.concatenate(list(model.experts.w2), axis=0)
        assert w1_cat.tobytes() == dense.w1.a.tobytes()
        assert wg_cat.tobytes() == dense.wg.a.tobytes()
        assert w2_cat.tobytes() == dense.w2.a.tobytes()
        assert model.shared is None

    def test_nvshard_replicates_split_parts(self):
        cfg = baseline_preset("NVShard", h=16, H=32)
        dense = random_dense(16, 32, 5)
        model = upcycle(dense, cfg, 6)
        assert len(model.experts.w1) == 64
        for k in range(64):
            twin = (k + 8) % 64
            assert model.experts.w1[k].tobytes() == model.experts.w1[twin].tobytes()
            assert model.experts.w2[k].tobytes() == model.experts.w2[twin].tobytes()

    def test_two_dim_partition_tiles_w2(self):
        cfg = FineRConfig(h=16, H=32, G_I=4, R_I=1, G_O=2, R_O=1, T_I=1)
        dense = random_dense(16, 32, 7)
        model = upcycle(dense, cfg, 8)
        dims = derive(cfg)
        rebuilt = np.zeros_like(dense.w2.a)
        for w2, i, j in zip(model.experts.w2, *expert_slice_indices(cfg)):
            rebuilt[i * dims.H_e : (i + 1) * dims.H_e, j * dims.h_e : (j + 1) * dims.h_e] = w2
        assert rebuilt.tobytes() == dense.w2.a.tobytes()

    def test_reconstruction_identity(self):
        cfg = FineRConfig(h=64, H=128, G_I=32, R_I=1, G_O=2, R_O=2, T_I=1, share_expert=False)
        dense = random_dense(64, 128, 9).astype(np.float64)
        model = upcycle(dense, cfg, 10)
        x = Rng(11).matrix(16, 64, dtype=np.float64)
        got = forward_forced(x, model).a
        want = dense_ffn_forward(x, dense).a
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-5

    def test_duplicated_slices_double_the_forced_output(self):
        # R_I=2: every intermediate slice appears twice per group, so the
        # forced path (all weights 1) reproduces twice the dense output.
        cfg = FineRConfig(h=64, H=128, G_I=8, R_I=2, G_O=2, R_O=2, T_I=1, share_expert=False)
        dense = random_dense(64, 128, 35).astype(np.float64)
        model = upcycle(dense, cfg, 36)
        x = Rng(37).matrix(12, 64, dtype=np.float64)
        got = forward_forced(x, model).a
        want = 2.0 * dense_ffn_forward(x, dense).a
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-5

    def test_experts_own_their_storage(self):
        cfg = FineRConfig(h=8, H=8, G_I=1, R_I=2, G_O=1, R_O=1, T_I=1)
        dense = random_dense(8, 8, 12)
        model = upcycle(dense, cfg, 13)
        model.experts.w1[0, 0, 0] += 1.0
        assert model.experts.w1[1, 0, 0] == dense.w1.a[0, 0]
        assert model.shared.w1.a[0, 0] == dense.w1.a[0, 0]

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ValueError, match="do not match config"):
            upcycle(random_dense(8, 16, 1), FineRConfig(h=8, H=32), 0)

    def test_router_init_statistics_and_determinism(self):
        cfg = FineRConfig(h=64, H=64, G_I=8, R_I=1, G_O=2, R_O=2, T_I=1)
        dense = random_dense(64, 64, 14)
        a = upcycle(dense, cfg, 15)
        b = upcycle(dense, cfg, 15)
        c = upcycle(dense, cfg, 16)
        assert a.router.a.tobytes() == b.router.a.tobytes()
        assert a.router.a.tobytes() != c.router.a.tobytes()
        assert abs(float(a.router.a.std()) - ROUTER_INIT_STD) < 0.002

    # An f64 donor gives a whole f64 model, whose routers are the f32
    # draws widened: every byte is that of the f32 donor's model in f64.
    @pytest.mark.parametrize("mode", ["single", "separate"])
    def test_f64_donor_gives_the_f32_model_in_f64(self, mode):
        cfg = FineRConfig(h=16, H=32, G_I=2, R_I=2, G_O=2, R_O=2, T_I=1, router_mode=mode, concat_proj=True)
        dense = random_dense(16, 32, 38)
        model = upcycle(dense.astype(np.float64), cfg, 39)
        want = upcycle(dense, cfg, 39).astype(np.float64)
        assert [(n, p.dtype, p.tobytes()) for n, p in named_parameters(model)] == [
            (n, p.dtype, p.tobytes()) for n, p in named_parameters(want)
        ]
        y = forward(Rng(40).matrix(5, cfg.h, dtype=np.float64), model).y
        assert y.dtype == np.float64 and np.isfinite(y.a).all()

    def test_separate_mode_gets_second_router(self):
        cfg = FineRConfig(h=16, H=16, G_I=2, R_I=1, G_O=2, R_O=2, T_I=1, router_mode="separate")
        model = upcycle(random_dense(16, 16, 17), cfg, 18)
        assert model.router_cc is not None
        assert model.router_cc.shape == (16, derive(cfg).n_groups)


def _replicas(dense, n_experts, n_active):
    """The replication config of Drop-Upcycling: n_experts copies of the
    dense FFN, n_active of them activated per token."""
    return FineRConfig(h=dense.h, H=dense.H, R_I=n_experts, T_I=n_active)


class TestDropUpcycle:
    def test_zero_ratio_equals_replication(self):
        dense = random_dense(8, 16, 20)
        dropped = drop_upcycle(dense, _replicas(dense, 4, 2), 0.0, seed=21)
        plain = upcycle(dense, FineRConfig(h=8, H=16, G_I=1, R_I=4, T_I=2), seed=21)
        for k in range(4):
            assert dropped.experts.w1[k].tobytes() == plain.experts.w1[k].tobytes()
            assert dropped.experts.w2[k].tobytes() == plain.experts.w2[k].tobytes()

    # Any config, not only a replication one: at ratio 0 every byte of the
    # FRM1 file is upcycle's.
    @pytest.mark.parametrize("mode", ["single", "separate"])
    @pytest.mark.parametrize("name", preset_names())
    def test_zero_ratio_gives_the_bytes_of_upcycle(self, tmp_path, name, mode):
        cfg = with_updates(baseline_preset(name, h=32, H=256), router_mode=mode)
        dense = random_dense(cfg.h, cfg.H, 34)
        for path, model in (("drop.frm", drop_upcycle(dense, cfg, 0.0, 35)), ("plain.frm", upcycle(dense, cfg, 35))):
            write_model(model, tmp_path / path)
        assert (tmp_path / "drop.frm").read_bytes() == (tmp_path / "plain.frm").read_bytes()

    def test_full_ratio_replaces_everything(self):
        dense = random_dense(8, 16, 22)
        model = drop_upcycle(dense, _replicas(dense, 3, 2), 1.0, seed=23)
        for k in range(3):
            assert not np.any(model.experts.w1[k] == dense.w1.a)
            assert not np.any(model.experts.w2[k] == dense.w2.a)
        # Shared expert is untouched by the re-init.
        assert model.shared.w1.a.tobytes() == dense.w1.a.tobytes()

    def test_half_ratio_binomial_concentration(self):
        dense = random_dense(64, 256, 24)  # 16384 entries per up/gate matrix
        model = drop_upcycle(dense, _replicas(dense, 2, 1), 0.5, seed=25)
        for w1 in model.experts.w1:
            kept = float(np.mean(w1 == dense.w1.a))
            assert abs(kept - 0.5) < 0.02

    def test_redrawn_entries_match_donor_std(self):
        dense = random_dense(64, 256, 26)
        model = drop_upcycle(dense, _replicas(dense, 1, 1), 1.0, seed=27)
        donor_std = float(dense.w1.a.std())
        drawn_std = float(model.experts.w1[0].std())
        assert abs(drawn_std - donor_std) / donor_std < 0.05

    def test_experts_draw_independent_masks(self):
        dense = random_dense(16, 64, 28)
        model = drop_upcycle(dense, _replicas(dense, 2, 1), 0.5, seed=29)
        mask0 = model.experts.w1[0] == dense.w1.a
        mask1 = model.experts.w1[1] == dense.w1.a
        assert not np.array_equal(mask0, mask1)

    def test_config_shape(self):
        dense = random_dense(8, 16, 30)
        model = drop_upcycle(dense, _replicas(dense, 8, 2), 0.5, seed=31)
        cfg = model.cfg
        assert (cfg.G_I, cfg.R_I, cfg.G_O, cfg.R_O, cfg.T_I) == (1, 8, 1, 1, 2)
        assert derive(cfg).n_active == 2

    def test_invalid_ratio(self):
        dense = random_dense(8, 16, 32)
        with pytest.raises(ValueError, match="drop_ratio"):
            drop_upcycle(dense, _replicas(dense, 2, 1), 1.5, seed=33)
