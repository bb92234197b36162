"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible under pytest -s or in the captured output of a
failure). Tolerances are fixed here and nowhere else.

Run with: pytest tests/test_acceptance.py -v -s
"""

import contextlib
import io
import time

import numpy as np

from finermoe.analysis import expert_similarity, scaled_params
from finermoe.cli import run as cli_run
from finermoe.config import FineRConfig, baseline_preset, derive
from finermoe.numerics import Rng
from finermoe.router import route, route_separate
from finermoe.upcycle import random_dense, upcycle
from finermoe.verify import (
    dyadic_scores,
    gradient_suite,
    reconstruction_suite,
    roundtrip_suite,
    router_suite,
)


def _report(n: int, name: str, passed: bool, detail: str) -> None:
    print(f"[criterion {n:02d}] {name}: {detail} ... {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {n} ({name}): {detail}"


def test_01_reconstruction_oracle():
    t0 = time.perf_counter()
    results = [reconstruction_suite(seed=101)]  # R_O in {1, 2} grid, R_I = 1
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and elapsed < 30.0
    _report(1, "reconstruction-oracle", ok, f"{results[0].detail}, {elapsed:.1f}s")


def test_02_router_equivalence():
    t0 = time.perf_counter()
    res = router_suite(seed=102)
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 10.0
    _report(2, "router-equivalence", ok, f"{res.detail}, {elapsed:.1f}s")


def test_03_activation_count_invariant():
    configs = [
        FineRConfig(h=8, H=8, G_I=2, R_I=1, G_O=2, R_O=2, T_I=1),
        FineRConfig(h=8, H=8, G_I=2, R_I=2, G_O=2, R_O=2, T_I=3),
        FineRConfig(h=8, H=8, G_I=1, R_I=4, G_O=1, R_O=2, T_I=2),
        FineRConfig(h=8, H=8, G_I=4, R_I=1, G_O=2, R_O=1, T_I=1),
    ]
    rng = Rng(103)
    total = 0
    violations = 0
    per_config = 100_000 // len(configs) // 1000  # chunks of 1000 tokens
    for cfg in configs:
        dims = derive(cfg)
        for _ in range(per_config):
            d = route(dyadic_scores(rng, 1000, dims.N), cfg)
            violations += int((d.final_mask.sum(axis=1) != dims.n_active).sum())
            violations += int((d.indices.shape[1] != dims.n_active))
            total += 1000
    _report(
        3, "activation-count", violations == 0 and total >= 100_000,
        f"{total} routings, {violations} violations",
    )


def test_04_expert_count_arithmetic():
    table = {
        (2, 2): 8, (4, 2): 16, (4, 4): 32, (8, 2): 32, (8, 4): 64,
        (16, 2): 64, (16, 4): 128, (16, 8): 256, (32, 2): 128, (32, 4): 256,
        (32, 8): 512, (64, 2): 256, (64, 4): 512, (64, 8): 1024,
    }
    bad = []
    for (g_i, g_o), n in table.items():
        cfg = FineRConfig(h=1536, H=8960, G_I=g_i, R_I=1, G_O=g_o, R_O=2, T_I=1)
        if derive(cfg).N != n:
            bad.append((g_i, g_o))
    base = derive(baseline_preset("FineRMoE-base"))
    if (base.N, base.n_active) != (128, 2):
        bad.append("base")
    _report(4, "expert-count-arithmetic", not bad, f"{len(table)} grid rows + base config, mismatches: {bad}")


def test_05_parameter_arithmetic():
    total, activated = scaled_params(baseline_preset("FineRMoE-base"))
    err_total = abs(total - 5.64e9) / 5.64e9
    err_act = abs(activated - 1.85e9) / 1.85e9
    ok = err_total < 0.02 and err_act < 0.02
    _report(
        5, "parameter-arithmetic", ok,
        f"total {total / 1e9:.3f}B (err {err_total:.2%}), "
        f"activated {activated / 1e9:.3f}B (err {err_act:.2%}), tolerance 2%",
    )


def test_06_balance_loss_fixtures():
    from finermoe.loss_grad import balance_loss
    from finermoe.router import RoutingDecision

    def decision(score, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return RoutingDecision(
            score=score, group_score=None, sum_mask=None, cc_score=None,
            cc_act=None, final_mask=None, indices=idx,
            probs=np.take_along_axis(score, idx, axis=1),
        )

    n, tokens = 128, 64
    uniform = np.full((tokens, n), 1.0 / n)
    balanced_idx = [[(2 * t) % n, (2 * t + 1) % n] for t in range(tokens)]
    cfg = FineRConfig(h=8, H=64, G_I=64, R_I=1, G_O=2, R_O=1, T_I=1)
    uniform_loss = balance_loss(decision(uniform, balanced_idx), cfg, alpha=0.001).loss

    n1 = 16
    one_hot = np.zeros((tokens, n1))
    one_hot[:, 0] = 1.0
    cfg1 = FineRConfig(h=8, H=16, G_I=16, R_I=1, G_O=1, R_O=1, T_I=1)
    concentrated = balance_loss(decision(one_hot, np.zeros((tokens, 1), dtype=int)), cfg1).loss

    ok = abs(uniform_loss - 0.001) < 1e-9 and concentrated == 0.001 * n1
    _report(
        6, "balance-loss", ok,
        f"uniform-balanced loss {uniform_loss:.12g} (alpha 0.001), "
        f"all-to-one loss {concentrated:.12g} (alpha*N {0.001 * n1:.12g})",
    )


def test_07_gradient_checks():
    t0 = time.perf_counter()
    res = gradient_suite(seed=107)
    elapsed = time.perf_counter() - t0
    ok = res.passed and elapsed < 60.0
    _report(7, "gradient-fd", ok, f"{res.detail}, {elapsed:.1f}s")


def test_08_upcycling_structure():
    problems = []

    c32 = upcycle(random_dense(64, 128, 108), baseline_preset("C32A2", h=64, H=128), 108)
    if expert_similarity(c32).mean != 1.0:
        problems.append("C32A2 similarity != 1.0")
    donor = random_dense(64, 128, 108)
    for w1 in c32.experts.w1:
        if w1.tobytes() != donor.w1.a.tobytes():
            problems.append("C32A2 expert differs from donor")
            break

    s16_donor = random_dense(64, 128, 109)
    s16 = upcycle(s16_donor, baseline_preset("S16A4", h=64, H=128), 109)
    w1_cat = np.concatenate(list(s16.experts.w1), axis=1)
    wg_cat = np.concatenate(list(s16.experts.wg), axis=1)
    w2_cat = np.concatenate(list(s16.experts.w2), axis=0)
    if (
        w1_cat.tobytes() != s16_donor.w1.a.tobytes()
        or wg_cat.tobytes() != s16_donor.wg.a.tobytes()
        or w2_cat.tobytes() != s16_donor.w2.a.tobytes()
    ):
        problems.append("S16A4 slices do not tile the donor")

    nv = upcycle(random_dense(64, 128, 110), baseline_preset("NVShard", h=64, H=128), 110)
    for k in range(64):
        twin = nv.experts.w1[(k + 8) % 64]
        if nv.experts.w1[k].tobytes() != twin.tobytes():
            problems.append(f"NVShard experts {k} and {(k + 8) % 64} differ")
            break

    _report(8, "upcycling-structure", not problems, f"C32A2/S16A4/NVShard structure, problems: {problems}")


def test_09_serialization():
    res = roundtrip_suite(seed=111)
    _report(9, "serialization-roundtrip", res.passed, res.detail)


def test_10_cli_determinism(tmp_path):
    def invoke(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_run(argv)
        assert code == 0, argv
        return out.getvalue()

    cfg_p = tmp_path / "base.cfg"
    invoke(["preset", "FineRMoE-base", "--h", "32", "--H", "64", "--out", str(cfg_p)])

    artifacts: dict[str, list[bytes]] = {}
    for variant in ("a", "b"):
        d = tmp_path / variant
        d.mkdir()
        stdout = []
        stdout.append(invoke(["preset", "FineRMoE-base", "--h", "32", "--H", "64"]))
        stdout.append(invoke([
            "upcycle", "--config", str(cfg_p),
            "--dense-seed", "5", "--out", str(d / "m.frm"), "--seed", "7",
        ]))
        from finermoe.cli import write_matrix

        write_matrix(Rng(9).matrix(4, 32), d / "x.mat")
        stdout.append(invoke([
            "forward", "--model", str(d / "m.frm"),
            "--input", str(d / "x.mat"), "--out", str(d / "y.mat"),
        ]))
        stdout.append(invoke([
            "route-stats", "--model", str(d / "m.frm"),
            "--tokens", "128", "--seed", "3", "--csv", str(d / "loads.csv"),
        ]))
        stdout.append(invoke(["similarity", "--model", str(d / "m.frm")]))
        stdout.append(invoke(["bench", "--config", str(cfg_p)]))
        stdout.append(invoke([
            "train-demo", "--config", str(cfg_p),
            "--steps", "10", "--batch", "4", "--csv", str(d / "curve.csv"),
        ]))
        stdout.append(invoke(["check", "--suite", "roundtrip", "--seed", "1"]))
        blobs = ["\n".join(stdout).replace(str(d), "DIR").encode()]
        for f in ("m.frm", "y.mat", "loads.csv", "curve.csv"):
            blobs.append((d / f).read_bytes())
        artifacts[variant] = blobs

    same_seed = artifacts["a"] == artifacts["b"]
    _report(10, "cli-determinism", same_seed, f"8 subcommands, repeat-run identical: {same_seed}")


def test_11_separate_router_conflict():
    # Sum router ranks group 0 strictly above group 1; the concatenation
    # router overrides toward group 1, so the activated expert carries a
    # strictly lower sum-router score than the single-router activation.
    cfg = FineRConfig(h=8, H=8, G_I=2, R_I=1, G_O=1, R_O=2, T_I=1)
    score_sum = np.array([[0.4, 0.3, 0.2, 0.1]], dtype=np.float32)
    score_cc = np.array([[0.1, 0.9]], dtype=np.float32)
    sep = route_separate(score_sum, score_cc, cfg)
    single = route(score_sum, cfg)
    conflict = (
        sep.cc_act[0, 0] == 1
        and single.cc_act[0, 0] == 0
        and float(sep.probs[0, 0]) < float(single.probs[0, 0])
    )
    _report(
        11, "separate-router-conflict", bool(conflict),
        f"separate router activates expert {int(sep.indices[0, 0])} with sum-score "
        f"{float(sep.probs[0, 0]):.2f} < single-router score {float(single.probs[0, 0]):.2f}",
    )
