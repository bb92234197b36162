import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finermoe.config import FineRConfig, baseline_preset, derive, preset_names, with_updates
from finermoe.numerics import Matrix, Rng
from finermoe.oracle import route_reference
from finermoe.router import route, route_separate, score
from finermoe.verify import decisions_equal, dyadic_scores


def _cfg(g_i, r_i, g_o, r_o, t_i, **kw):
    return FineRConfig(h=8, H=8, G_I=g_i, R_I=r_i, G_O=g_o, R_O=r_o, T_I=t_i, **kw)


class TestScore:
    def test_zero_router_gives_uniform(self):
        r = Matrix.zeros(4, 8)
        s = score(Rng(1).matrix(3, 4), r)
        assert s.shape == (3, 8)
        assert np.allclose(s, 1.0 / 8, atol=1e-7)

    def test_rows_sum_to_one(self):
        r = Rng(2).matrix(4, 6)
        s = score(Rng(3).matrix(5, 4), r)
        assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-6

    def test_closed_form_logits(self):
        # One input row and a router that reproduces [0, ln2, 0, 0].
        w = np.zeros((1, 4), dtype=np.float32)
        w[0, 1] = np.log(2.0)
        s = score(Matrix([[1.0]]), Matrix.wrap(w))
        assert s[0] == pytest.approx([0.2, 0.4, 0.2, 0.2], abs=1e-6)


class TestRouteHandTraces:
    def test_single_group_pair_of_candidates(self):
        d = route(np.array([[0.6, 0.4]], dtype=np.float32), _cfg(1, 1, 1, 2, 1))
        assert d.cc_act.tolist() == [[0]]
        assert d.indices.tolist() == [[0]]
        assert d.probs[0].tolist() == pytest.approx([0.6], abs=1e-7)

    def test_both_masks_and_tie_breaking(self):
        d = route(np.array([[0.1, 0.2, 0.35, 0.35]], dtype=np.float32), _cfg(2, 1, 1, 2, 1))
        # Group sums 0.3 vs 0.7: candidate 1 wins; within it the 0.35 tie
        # breaks to the lower index (expert 2).
        assert d.cc_act.tolist() == [[1]]
        assert d.sum_mask[0].tolist() == [[False, True], [True, False]]
        assert d.indices.tolist() == [[2]]
        assert d.probs[0].tolist() == pytest.approx([0.35], abs=1e-7)

    def test_full_tie_degenerates_to_lowest_indices(self):
        cfg = _cfg(2, 1, 2, 2, 1)
        n = derive(cfg).N
        d = route(np.full((1, n), 1.0 / n, dtype=np.float32), cfg)
        # Candidate 0 in every component, first T_I experts of each group.
        assert d.cc_act.tolist() == [[0, 0]]
        assert d.indices.tolist() == [[0, 4]]
        assert d.final_mask.sum() == derive(cfg).n_active


class TestRouteProperties:
    def test_exact_activation_count(self):
        rng = Rng(4)
        for cfg in [_cfg(2, 1, 2, 2, 1), _cfg(2, 2, 1, 2, 3), _cfg(1, 4, 2, 1, 2)]:
            n = derive(cfg).N
            d = route(dyadic_scores(rng, 16, n), cfg)
            assert (d.final_mask.sum(axis=1) == derive(cfg).n_active).all()
            assert d.indices.shape == (16, derive(cfg).n_active)

    def test_indices_equal_mask_support(self):
        cfg = _cfg(2, 2, 2, 2, 2)
        d = route(dyadic_scores(Rng(5), 8, derive(cfg).N), cfg)
        for t in range(8):
            assert set(d.indices[t].tolist()) == set(np.nonzero(d.final_mask[t])[0].tolist())

    def test_activated_belong_to_selected_groups(self):
        cfg = _cfg(4, 1, 2, 2, 2)
        dims = derive(cfg)
        d = route(dyadic_scores(Rng(6), 12, dims.N), cfg)
        for t in range(12):
            selected_groups = {
                i * cfg.R_O + int(d.cc_act[t, i]) for i in range(cfg.G_O)
            }
            for k in d.indices[t]:
                g = int(k) // dims.group_size
                assert g in selected_groups
                # Within the group, the activated set is the group's top-T_I.
                members = d.group_score[t, g]
                order = np.argsort(-members, kind="stable")[: cfg.T_I]
                assert int(k) % dims.group_size in set(order.tolist())

    def test_positive_scaling_invariance(self):
        cfg = _cfg(2, 1, 2, 2, 1)
        s = dyadic_scores(Rng(7), 4, derive(cfg).N)
        base = route(s, cfg)
        scaled = s.copy()
        scaled[2] *= 2.0  # exact in binary floating point
        d = route(scaled, cfg)
        assert np.array_equal(d.indices, base.indices)
        assert np.array_equal(d.final_mask, base.final_mask)
        assert np.array_equal(d.sum_mask, base.sum_mask)
        assert np.array_equal(d.probs[2], 2.0 * base.probs[2])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_activation_count_never_violated(self, seed):
        cfg = _cfg(2, 2, 2, 2, 2)
        d = route(dyadic_scores(Rng(seed), 8, derive(cfg).N), cfg)
        assert (d.final_mask.sum(axis=1) == derive(cfg).n_active).all()

    def test_matches_reference_on_random_scores(self):
        rng = Rng(8)
        for cfg in [_cfg(1, 1, 1, 2, 1), _cfg(2, 1, 1, 2, 1), _cfg(2, 1, 2, 2, 1), _cfg(1, 2, 2, 2, 2)]:
            n = derive(cfg).N
            for _ in range(50):
                s = dyadic_scores(rng, 4, n)
                assert decisions_equal(route(s, cfg), route_reference(s, cfg))


def _cfg_id(cfg):
    return f"G{cfg.G_I}x{cfg.R_I}_{cfg.G_O}x{cfg.R_O}_T{cfg.T_I}"


class TestSlotToComponent:
    """Slot a of every token lies in component a // T_I; the sparse combine
    sums each slot straight into that component's columns on this basis."""

    CONFIGS = [baseline_preset(name, h=16, H=64) for name in preset_names()] + [_cfg(2, 2, 2, 3, 3)]

    @staticmethod
    def _assert_slots_in_order(d, cfg):
        dims = derive(cfg)
        want = np.arange(dims.n_active) // cfg.T_I
        got = d.indices // (dims.group_size * cfg.R_O)
        assert (got == want).all(), (cfg, got)

    @pytest.mark.parametrize("mode", ["single", "separate"])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
    def test_router_keeps_slots_in_component_order(self, cfg, mode):
        cfg = with_updates(cfg, router_mode=mode)
        dims = derive(cfg)
        rng = Rng(10)
        for _ in range(10):
            s = dyadic_scores(rng, 8, dims.N)
            if mode == "separate":
                d = route_separate(s, dyadic_scores(rng, 8, dims.n_groups), cfg)
            else:
                d = route(s, cfg)
            self._assert_slots_in_order(d, cfg)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
    def test_reference_router_keeps_slots_in_component_order(self, cfg):
        rng = Rng(11)
        for _ in range(5):
            self._assert_slots_in_order(route_reference(dyadic_scores(rng, 4, derive(cfg).N), cfg), cfg)


class TestRouteSeparate:
    def test_consistent_scores_reproduce_single_router(self):
        cfg = _cfg(2, 1, 2, 2, 1)
        dims = derive(cfg)
        s = dyadic_scores(Rng(9), 6, dims.N)
        cc = s.reshape(6, dims.n_groups, dims.group_size).sum(axis=-1)
        assert decisions_equal(route_separate(s, cc, cfg), route(s, cfg))

    def test_conflict_activation(self):
        # Sum router prefers group 0; the separate concatenation router
        # forces group 1, whose sum-router scores are strictly lower.
        cfg = _cfg(2, 1, 1, 2, 1)
        s_sum = np.array([[0.4, 0.3, 0.2, 0.1]], dtype=np.float32)
        s_cc = np.array([[0.1, 0.9]], dtype=np.float32)
        d = route_separate(s_sum, s_cc, cfg)
        assert d.cc_act.tolist() == [[1]]
        assert d.indices.tolist() == [[2]]
        single = route(s_sum, cfg)
        assert single.indices.tolist() == [[0]]
        assert d.probs[0, 0] < single.probs[0, 0]

    def test_saturated_sum_mask_defers_to_cc(self):
        cfg = _cfg(2, 1, 1, 2, 2)  # T_I == group size
        s_sum = dyadic_scores(Rng(10), 5, 4)
        for cc_vals, want_group in [([0.9, 0.1], 0), ([0.1, 0.9], 1)]:
            cc = np.tile(np.array(cc_vals, dtype=np.float32), (5, 1))
            d = route_separate(s_sum, cc, cfg)
            assert d.sum_mask.all()
            assert (d.cc_act == want_group).all()
            assert (d.indices == [2 * want_group, 2 * want_group + 1]).all()


def _zeros(*shape):
    return np.zeros(shape, dtype=np.float32)


# Both router modes run one body; each refusal keeps its own wording. The
# config has 4 experts in 2 groups.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda cfg: route(_zeros(1, 3), cfg), "score width 3 does not match expert count 4"),
        (
            lambda cfg: route_separate(_zeros(2, 3), _zeros(2, 2), cfg),
            "score_sum width 3 does not match expert count 4",
        ),
        (
            lambda cfg: route_separate(_zeros(2, 4), _zeros(2, 3), cfg),
            "score_cc must be L x n_groups = 2x2, got (2, 3)",
        ),
    ],
    ids=["route-width", "separate-width", "separate-cc-shape"],
)
def test_routing_refuses_mismatched_scores(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(_cfg(2, 1, 1, 2, 1))
