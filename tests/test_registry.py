"""The one tensor registry, moe_layer.named_parameters: FRM1 order, the
pairing of a model with its gradients, views into the expert stacks, and
the one layout every model maker shares: each entry a view of the model's
flat array, where the one before it ends."""

import numpy as np
import pytest

from finermoe import loss_grad
from finermoe.analysis import cost_report
from finermoe.checkpoint import read_model, write_model
from finermoe.config import FineRConfig
from finermoe.loss_grad import backward, balance_loss_fn
from finermoe.moe_layer import MoEModel, forward, named_parameters
from finermoe.numerics import Rng, matmul
from finermoe.upcycle import drop_upcycle, random_dense, upcycle

VARIANTS = {
    "single": {},
    "separate": dict(router_mode="separate"),
    "concat_proj": dict(concat_proj=True),
    "no_shared": dict(share_expert=False),
}


def _cfg(variant):
    return FineRConfig(h=16, H=32, G_I=4, R_I=1, G_O=2, R_O=2, T_I=1, **VARIANTS[variant])


def _model(variant, seed=0):
    return upcycle(random_dense(16, 32, seed), _cfg(variant), seed)


def _manifest_names(path):
    raw = path.read_bytes()
    mlen = int.from_bytes(raw[4:12], "little")
    lines = raw[12 : 12 + mlen].decode("utf-8").splitlines()
    return [l.split("=")[1].strip() for l in lines if ".name" in l]


def _frm1_order(model):
    """The FRM1 tensor order, spelled out independently of the registry."""
    names = [f"shared.{w}" for w in ("w1", "wg", "w2")] if model.shared is not None else []
    names += [f"expert.{k}.{w}" for k in range(model.dims.N) for w in ("w1", "wg", "w2")]
    names.append("router.w")
    names += ["router_cc.w"] if model.router_cc is not None else []
    names += ["concat_proj.w"] if model.concat_proj is not None else []
    return names


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_registry_names_are_the_manifest_names_in_order(tmp_path, variant):
    model = _model(variant)
    write_model(model, tmp_path / "m.frm")
    names = [name for name, _ in named_parameters(model)]
    assert names == _manifest_names(tmp_path / "m.frm") == _frm1_order(model)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_gradients_pair_with_the_model_name_for_name(variant):
    model = _model(variant, seed=1)
    x = Rng(2).matrix(5, 16)
    out = forward(x, model)
    grads = backward(model, Rng(3).matrix(5, 16), out)
    params, d_params = named_parameters(model), named_parameters(grads.d_model)
    assert [n for n, _ in params] == [n for n, _ in d_params]
    for (name, p), (_, g) in zip(params, d_params):
        assert p.shape == g.shape and p.dtype == g.dtype, name


def test_update_through_registry_writes_the_stack():
    model = _model("single", seed=4)
    before = model.experts.w2.copy()
    slots = dict(named_parameters(model))
    slots["expert.5.w2"] -= 1.0
    slots["expert.2.w1"][0, 0] = 7.0
    assert np.array_equal(model.experts.w2[5], before[5] - 1.0)
    assert np.array_equal(np.delete(model.experts.w2, 5, axis=0), np.delete(before, 5, axis=0))
    assert model.experts.w1[2, 0, 0] == 7.0


def _assert_tiles_flat(model):
    """Every registry entry is a C-contiguous view of ``model.flat`` that
    starts where the one before it ends, and together they cover it."""
    flat = model.flat
    assert flat.ndim == 1 and flat.flags.c_contiguous
    at = 0
    for name, p in named_parameters(model):
        assert p.flags.c_contiguous and p.dtype == flat.dtype, name
        assert p.ctypes.data == flat.ctypes.data + at * flat.itemsize, name
        at += p.size
    assert at == flat.size == cost_report(model.cfg).total_params


def _read_back(variant, tmp):
    write_model(_model(variant), tmp / "m.frm")
    return read_model(tmp / "m.frm")


_MAKERS = {
    "zeros": lambda variant, tmp: MoEModel.zeros(_cfg(variant)),
    "astype": lambda variant, tmp: _model(variant).astype(np.float64),
    "upcycle": lambda variant, tmp: _model(variant),
    "drop_upcycle": lambda variant, tmp: drop_upcycle(random_dense(16, 32, 8), _cfg(variant), 0.5, 9),
    "read_model": _read_back,
    "backward": lambda variant, tmp: backward(
        _model(variant), Rng(3).matrix(5, 16), forward(Rng(2).matrix(5, 16), _model(variant))
    ).d_model,
    "balance_loss_fn": lambda variant, tmp: balance_loss_fn(0.01).grads(Rng(2).matrix(5, 16), _model(variant)).d_model,
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("maker", sorted(_MAKERS))
def test_every_maker_lays_the_registry_over_one_flat_array(tmp_path, maker, variant):
    _assert_tiles_flat(_MAKERS[maker](variant, tmp_path))


def test_over_refuses_an_array_it_cannot_lay_out():
    cfg = _cfg("separate")
    n = cost_report(cfg).total_params
    for flat in (np.zeros(n - 1, np.float32), np.zeros(n + 1, np.float32), np.zeros((1, n), np.float32),
                 np.zeros(2 * n, np.float32)[::2]):
        with pytest.raises(ValueError, match=f"C-contiguous 1-D array of {n} values"):
            MoEModel.over(cfg, flat)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_backward_writes_each_weight_gradient_in_place(monkeypatch, variant):
    # Each weight-gradient product writes straight into the registry's
    # view of d_model.flat, so no gradient is copied there afterwards.
    model = _model(variant, seed=5)
    out = forward(Rng(6).matrix(5, 16), model)
    results = []

    def recording(a, b, out=None):
        results.append(matmul(a, b, out=out))
        return results[-1]

    monkeypatch.setattr(loss_grad, "matmul", recording)
    d = backward(model, Rng(7).matrix(5, 16), out, input_grad=False).d_model
    written = [r.a for r in results if np.shares_memory(r.a, d.flat)]
    want = [d.experts.w1, d.experts.wg, d.experts.w2, d.router.a]
    want += [] if d.shared is None else [d.shared.w1.a, d.shared.wg.a, d.shared.w2.a]
    want += [] if d.concat_proj is None else [d.concat_proj.a]
    key = lambda a: (a.ctypes.data, a.shape, a.strides)
    assert sorted(map(key, written)) == sorted(map(key, want))
