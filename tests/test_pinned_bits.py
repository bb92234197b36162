"""The layer's bytes, pinned: a refactor of the forward, the forced bypass,
routing or backward must leave every output and gradient bit unchanged.

Each digest is the SHA-256 of one preset's bytes over both router modes,
with and without ``concat_proj``: two ``fd_check`` reports (the output
loss and the balance loss), then, in f32 and f64 at 1 and 7 tokens,
``forward``'s output, ``forward_forced``'s output and every ``backward``
gradient, ``d_x`` included, with a balance-loss term on the scores. The
models are upcycled at h=16, H=64 and then perturbed, so no gradient is
zero by symmetry. Like the pinned train-demo digests, the constants depend
on NumPy's ``exp`` (softmax, sigmoid) and on ``log``/``cos`` (the Box-Muller
draws of ``Rng``); the matmul kernels do not, which the NumPy-kernel case
checks. NumPy picks the code of those functions by the CPU it runs on, so
the same NumPy can change their bits on another host. Measured with NumPy
2.4.6 on an AVX-512 host, in child processes with
``NPY_DISABLE_CPU_FEATURES`` set:

- without ``X86_V4`` (and ``AVX512_ICL``, ``AVX512_SPR``), float64 ``exp``
  and ``log`` change bits, and all 8 cases here fail;
- without ``X86_V3`` as well, float32 ``exp`` changes too, and the 4
  train-demo pins of ``tests/test_cli.py`` (``test_pinned_digest`` and
  ``test_pinned_clipped_digest``, seeds 0 and 1) fail besides: 12 in all.

float64 ``cos`` and ``sqrt``, sums and basic arithmetic kept their bits on
2**20-element samples; every other tier-1 test passed at both levels.
"""

import hashlib

import numpy as np
import pytest

from finermoe import _backend, _kernels_py
from finermoe.config import baseline_preset, preset_names, with_updates
from finermoe.loss_grad import (
    backward, balance_loss_fn, balance_loss_score_grad, fd_check, mean_squared_output_loss,
)
from finermoe.moe_layer import forward, forward_forced, named_parameters
from finermoe.numerics import Rng
from finermoe.upcycle import random_dense, upcycle

# Recorded with a per-expert forced bypass, whose bytes the grouped one keeps.
PINNED = {
    "C32A2": "2c8768a2f98f884d8bf5f8fc39fab854648ed0036341885d990f641c1204a80d",
    "FineRMoE-base": "a2903c26bc829f9dac8c2784400f406bef8f3879fe087172ae42f9a4678875d2",
    "NVShard": "059bb34effa13c4ed747a29672712707757f54754b485d7d1e56b80f1025b278",
    "S16A4": "81c993368dff4eef8de67e6b99b1ea40e1c7d660027cfb6f4d4ad2dff3ac07e1",
}


def _digest(name):
    h = hashlib.sha256()
    for mode in ("single", "separate"):
        for proj in (False, True):
            cfg = with_updates(baseline_preset(name, h=16, H=64), router_mode=mode, concat_proj=proj)
            base = upcycle(random_dense(16, 64, 1, std=0.3), cfg, 2)
            for i, (_, p) in enumerate(named_parameters(base)):
                p += Rng(3 + i).matrix(*p.shape, std=0.05).a
            x = Rng(4).matrix(5, 16)
            for loss in (mean_squared_output_loss(), balance_loss_fn(0.01)):
                h.update(repr(fd_check(x, base, loss, n_coords=12)).encode())
            for dtype in (np.float32, np.float64):
                model = base.astype(dtype)
                for L in (1, 7):
                    x = Rng(4 + L).matrix(L, 16, dtype=dtype)
                    upstream = Rng(5 + L).matrix(L, 16, dtype=dtype)
                    out = forward(x, model)
                    d_score = balance_loss_score_grad(out.decision, cfg, 0.01)
                    grads = backward(model, upstream, out, d_score_extra=d_score)
                    h.update(out.y.a.tobytes())
                    h.update(forward_forced(x, model).a.tobytes())
                    for _, g in named_parameters(grads.d_model):
                        h.update(g.tobytes())
                    h.update(grads.d_x.a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kernels", ["active", "python"])
@pytest.mark.parametrize("name", preset_names())
def test_layer_bytes_match_the_pinned_digest(name, kernels, monkeypatch):
    if kernels == "python":
        monkeypatch.setattr(_backend, "active", _kernels_py)
    assert _digest(name) == PINNED[name]
