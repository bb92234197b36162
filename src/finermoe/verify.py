"""Self-contained verification suites built around the brute-force oracles.

Each suite returns a SuiteResult; the CLI `check` subcommand prints one
line per suite and fails if any suite fails. Numeric comparisons run in
float64 (the verification dtype) and use scale-normalized max error:
max|a - b| / max|b|, which stays meaningful when individual output
elements cancel to near zero.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from finermoe import checkpoint, oracle
from finermoe.config import FineRConfig, with_updates
from finermoe.loss_grad import balance_loss_fn, fd_check, mean_squared_output_loss
from finermoe.moe_layer import forward, forward_forced
from finermoe.numerics import Rng
from finermoe.router import route
from finermoe.upcycle import random_dense, upcycle


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """max|a - b| normalized by the largest magnitude of the reference b."""
    scale = float(np.max(np.abs(b)))
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / max(scale, 1e-30)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def dyadic_scores(rng: Rng, rows: int, cols: int) -> np.ndarray:
    """Random scores on a 2^-10 grid: exactly representable in f32, and all
    group sums are exact in any summation order, so the routing comparison
    is free of float noise."""
    u = rng.uniform(rows * cols)
    return (np.floor(u * 1024.0) / 1024.0).astype(np.float32).reshape(rows, cols)


RECON_GRID_G_I = (1, 2, 4, 8, 16, 32)
RECON_GRID_G_O = (1, 2, 4, 8)
RECON_GRID_R_O = (1, 2)
RECON_H = 64  # dense dims of every grid config
RECON_INTERMEDIATE = 128
RECON_INPUTS = 100  # tokens per config
RECON_TOL = 1e-5


def reconstruction_suite(seed: int, cfg: FineRConfig | None = None) -> SuiteResult:
    """Upcycle a random dense FFN and check that the forced sparse path
    (all experts of candidate 0, weight 1) reproduces R_I times the dense
    oracle output."""
    if cfg is not None:
        grid = [with_updates(cfg, share_expert=False, concat_proj=False)]
    else:
        grid = [
            FineRConfig(
                h=RECON_H, H=RECON_INTERMEDIATE, G_I=g_i, R_I=1, G_O=g_o, R_O=r_o, T_I=1,
                share_expert=False,
            )
            for g_i in RECON_GRID_G_I
            for g_o in RECON_GRID_G_O
            for r_o in RECON_GRID_R_O
        ]
    worst = 0.0
    rng = Rng(seed)
    for i, c in enumerate(grid):
        dense = random_dense(c.h, c.H, seed + i).astype(np.float64)
        model = upcycle(dense, c, seed + i)
        x = rng.matrix(RECON_INPUTS, c.h, dtype=np.float64)
        got = forward_forced(x, model)
        want = c.R_I * oracle.dense_ffn_forward(x, dense).a
        worst = max(worst, rel_err(got.a, want))
    passed = worst < RECON_TOL
    return SuiteResult(
        "reconstruction", passed,
        f"{len(grid)} configs, max relative error {worst:.3e} (tolerance {RECON_TOL:g})",
    )


ROUTER_SUITE_CONFIGS: tuple[tuple[int, int, int, int, int], ...] = (
    # (G_I, R_I, G_O, R_O, T_I)
    (1, 1, 1, 2, 1),
    (2, 1, 1, 2, 1),
    (2, 1, 2, 2, 1),
    (1, 2, 2, 2, 1),
    (2, 1, 1, 2, 2),
    (1, 2, 2, 2, 2),
    (4, 1, 2, 1, 2),
    (1, 1, 1, 1, 1),
    (2, 2, 2, 2, 3),
)


def decisions_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("score", "cc_score", "cc_act", "indices", "probs")
    )


# The two worked single-token examples from the routing tests, pinned here
# so the suite always covers them alongside the random draws.
HAND_TRACES = (
    ((1, 1, 1, 2, 1), [0.6, 0.4], [0]),
    ((2, 1, 1, 2, 1), [0.1, 0.2, 0.35, 0.35], [2]),
)


ROUTER_MATRICES = 1000  # random score matrices per config
ROUTER_TOKENS = 4  # rows per score matrix


def router_suite(seed: int) -> SuiteResult:
    """route() against the exhaustive-enumeration reference on random
    (dyadic-grid) score matrices across all tiny configs, plus the two
    worked single-token traces."""
    rng = Rng(seed)
    mismatches = 0
    total = 0
    for (g_i, r_i, g_o, r_o, t_i), row, want in HAND_TRACES:
        cfg = FineRConfig(h=8, H=8, G_I=g_i, R_I=r_i, G_O=g_o, R_O=r_o, T_I=t_i)
        s = np.array([row], dtype=np.float32)
        d = route(s, cfg)
        if d.indices.tolist() != [want] or not decisions_equal(d, oracle.route_reference(s, cfg)):
            mismatches += 1
        total += 1
    for g_i, r_i, g_o, r_o, t_i in ROUTER_SUITE_CONFIGS:
        cfg = FineRConfig(h=8, H=8, G_I=g_i, R_I=r_i, G_O=g_o, R_O=r_o, T_I=t_i)
        n = g_o * r_o * g_i * r_i
        for _ in range(ROUTER_MATRICES):
            s = dyadic_scores(rng, ROUTER_TOKENS, n)
            if not decisions_equal(route(s, cfg), oracle.route_reference(s, cfg)):
                mismatches += 1
            total += 1
    passed = mismatches == 0
    return SuiteResult(
        "router-equivalence", passed,
        f"{total} score matrices across {len(ROUTER_SUITE_CONFIGS)} configs "
        f"plus {len(HAND_TRACES)} worked traces, {mismatches} mismatches",
    )


ROUNDTRIP_MODELS = 10


def roundtrip_suite(seed: int) -> SuiteResult:
    """FRM1 write -> read -> write bit-identity plus forward equality."""
    shapes = [
        FineRConfig(h=16, H=32, G_I=4, R_I=1, G_O=2, R_O=2, T_I=1),
        FineRConfig(h=16, H=32, G_I=2, R_I=2, G_O=1, R_O=1, T_I=3, share_expert=False),
        FineRConfig(h=16, H=32, G_I=4, R_I=1, G_O=2, R_O=2, T_I=2, router_mode="separate"),
        FineRConfig(h=16, H=32, G_I=2, R_I=1, G_O=2, R_O=1, T_I=1, concat_proj=True),
        FineRConfig(h=8, H=8, G_I=1, R_I=4, G_O=1, R_O=1, T_I=2),
    ]
    failures = []
    rng = Rng(seed)
    for i in range(ROUNDTRIP_MODELS):
        cfg = shapes[i % len(shapes)]
        model = upcycle(random_dense(cfg.h, cfg.H, seed + i), cfg, seed + i)
        x = rng.matrix(5, cfg.h)
        with tempfile.TemporaryDirectory() as tmp:
            p1, p2 = os.path.join(tmp, "a.frm"), os.path.join(tmp, "b.frm")
            checkpoint.write_model(model, p1)
            back = checkpoint.read_model(p1)
            checkpoint.write_model(back, p2)
            with open(p1, "rb") as f1, open(p2, "rb") as f2:
                if f1.read() != f2.read():
                    failures.append((i, "bytes"))
                    continue
            y0 = forward(x, model).y
            y1 = forward(x, back).y
            if y0.a.tobytes() != y1.a.tobytes():
                failures.append((i, "forward"))
    passed = not failures
    return SuiteResult(
        "serialization-roundtrip", passed,
        f"{ROUNDTRIP_MODELS} models, {len(failures)} failures",
    )


GRAD_INSTANCES = 20
GRAD_TOL = 1e-4


def gradient_suite(seed: int) -> SuiteResult:
    """Analytic vs central-difference gradients on toy layers in float64."""
    variants = [
        FineRConfig(h=8, H=16, G_I=4, R_I=1, G_O=2, R_O=2, T_I=1),
        FineRConfig(h=8, H=16, G_I=2, R_I=2, G_O=2, R_O=2, T_I=2),
        FineRConfig(h=8, H=16, G_I=4, R_I=1, G_O=2, R_O=2, T_I=1, share_expert=False),
        FineRConfig(h=8, H=16, G_I=4, R_I=1, G_O=2, R_O=2, T_I=1, concat_proj=True),
        FineRConfig(h=8, H=16, G_I=4, R_I=1, G_O=2, R_O=2, T_I=1, router_mode="separate"),
    ]
    worst = 0.0
    checked = skipped = 0
    rng = Rng(seed)
    for i in range(GRAD_INSTANCES):
        cfg = variants[i % len(variants)]
        model = upcycle(random_dense(cfg.h, cfg.H, seed + i, std=0.3), cfg, seed + i)
        x = rng.matrix(4, cfg.h)
        loss = balance_loss_fn() if i % 4 == 3 else mean_squared_output_loss()
        rep = fd_check(x, model, loss, seed=seed + i)
        worst = max(worst, rep.max_rel_err)
        checked += rep.n_checked
        skipped += rep.n_skipped
    stable_frac = checked / max(checked + skipped, 1)
    passed = worst < GRAD_TOL and stable_frac >= 0.95
    return SuiteResult(
        "gradient-fd", passed,
        f"{GRAD_INSTANCES} instances, max relative error {worst:.3e} (tolerance {GRAD_TOL:g}), "
        f"{checked} coords checked, {skipped} unstable skipped "
        f"({100 * stable_frac:.1f}% stable)",
    )


SUITES = {
    "reconstruction": reconstruction_suite,
    "router": router_suite,
    "roundtrip": roundtrip_suite,
    "grad": gradient_suite,
}


def run_suites(names: list[str], seed: int, cfg: FineRConfig | None = None) -> list[SuiteResult]:
    results = []
    for name in names:
        if name == "reconstruction":
            results.append(reconstruction_suite(seed, cfg=cfg))
        else:
            results.append(SUITES[name](seed))
    return results
