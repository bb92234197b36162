"""The one tensor registry, moe_layer.named_parameters: FRM1 order, the
pairing of a model with its gradients, and views into the expert stacks."""

import numpy as np
import pytest

from finermoe.checkpoint import write_model
from finermoe.config import FineRConfig
from finermoe.loss_grad import backward
from finermoe.moe_layer import forward, named_parameters
from finermoe.numerics import Rng
from finermoe.upcycle import random_dense, upcycle

VARIANTS = {
    "single": {},
    "separate": dict(router_mode="separate"),
    "concat_proj": dict(concat_proj=True),
    "no_shared": dict(share_expert=False),
}


def _model(variant, seed=0):
    cfg = FineRConfig(h=16, H=32, G_I=4, R_I=1, G_O=2, R_O=2, T_I=1, **VARIANTS[variant])
    return upcycle(random_dense(16, 32, seed), cfg, seed)


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
    slots["expert.5.w2"].a -= 1.0
    slots["expert.2.w1"].a[0, 0] = 7.0
    assert np.array_equal(model.experts.w2[5], before[5] - 1.0)
    assert np.array_equal(np.delete(model.experts.w2, 5, axis=0), np.delete(before, 5, axis=0))
    assert model.experts.w1[2, 0, 0] == 7.0
