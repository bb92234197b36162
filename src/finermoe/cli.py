"""Command-line surface.

Subcommands: preset, upcycle, forward, route-stats, similarity, bench,
check, train-demo. Every subcommand is deterministic given its inputs and
--seed. Timings come from perfbench/, not from this CLI.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from finermoe import analysis, checkpoint, verify
from finermoe import config as config_mod
from finermoe.config import ConfigError
from finermoe.loss_grad import balance_loss, balance_loss_score_grad, backward
from finermoe.moe_layer import MoEModel, decide, forward, named_parameters
from finermoe.numerics import Matrix, Rng, matmul, sub_scaled, sum_squares
from finermoe.upcycle import drop_upcycle, random_dense, upcycle


def read_matrix(path) -> Matrix:
    """Input format: one ASCII header line 'rows cols', then row-major
    little-endian f32, and nothing after it."""
    with open(path, "rb") as fh:
        try:
            rows, cols = map(int, fh.readline().split())
        except ValueError:
            raise ValueError(f"{path}: expected header 'rows cols' of two integers") from None
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: dims must be positive, got {rows} x {cols}")
        need = rows * cols * 4
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if need > left:
            raise ValueError(f"{path}: payload truncated ({left} of {need} bytes)")
        if need < left:
            raise ValueError(f"{path}: {left - need} bytes after the {rows} x {cols} payload")
        raw = fh.read(need)
    return Matrix.wrap(np.frombuffer(raw, dtype="<f4").reshape(rows, cols).astype(np.float32))


def write_matrix(m: Matrix, path) -> None:
    with open(path, "wb") as fh:
        fh.write(f"{m.rows} {m.cols}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(m.a, dtype="<f4").tobytes())


def _require_counts(args, *names) -> None:
    """Count arguments (tokens, steps, batch rows) must be at least 1."""
    for name in names:
        n = getattr(args, name)
        if n < 1:
            raise ValueError(f"--{name} must be at least 1, got {n}")


def _require_finite(args, *names, positive=False) -> None:
    """Float arguments (rates, weights, the clip norm) must be finite and at
    least 0, or above 0 when positive."""
    bound = "above 0" if positive else "at least 0"
    for name in names:
        v = getattr(args, name)
        if not (np.isfinite(v) and (v > 0 if positive else v >= 0)):
            raise ValueError(f"--{name} must be finite and {bound}, got {v}")


def _load_moe(path) -> MoEModel:
    model = checkpoint.read_model(path)
    if not isinstance(model, MoEModel):
        raise checkpoint.CheckpointError(f"{path} holds a dense FFN, expected a MoE model")
    return model


def _cmd_preset(args) -> int:
    cfg = config_mod.baseline_preset(args.name, h=args.h, H=args.H)
    text = config_mod.format_config(cfg)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_upcycle(args) -> int:
    cfg = config_mod.load_config(args.config)
    if args.dense is not None:
        dense = checkpoint.read_model(args.dense)
        if isinstance(dense, MoEModel):
            raise checkpoint.CheckpointError(f"{args.dense} holds a MoE model, expected a dense FFN")
    else:
        dense = random_dense(cfg.h, cfg.H, args.dense_seed)
    if args.drop_ratio is not None:
        model = drop_upcycle(dense, cfg, args.drop_ratio, args.seed)
    else:
        model = upcycle(dense, cfg, args.seed)
    checkpoint.write_model(model, args.out)
    dims = model.dims
    print(f"wrote {args.out}: {dims.N} experts, {dims.n_active} activated per token")
    return 0


def _cmd_forward(args) -> int:
    model = _load_moe(args.model)
    x = read_matrix(args.input)
    if not np.isfinite(x.a).all():
        raise ValueError(f"{args.input}: input holds inf or NaN")
    out = forward(x, model)
    if not np.isfinite(out.y.a).all():
        raise ValueError("forward output holds inf or NaN (inputs or weights overflow); wrote no file")
    write_matrix(out.y, args.out)
    print(f"wrote {args.out}: {out.y.rows} x {out.y.cols}")
    return 0


def _cmd_route_stats(args) -> int:
    _require_counts(args, "tokens")
    _require_finite(args, "alpha")
    model = _load_moe(args.model)
    cfg = model.cfg
    decision = decide(Rng(args.seed).matrix(args.tokens, cfg.h), model)
    rep = analysis.route_stats(decision, cfg)
    bal = balance_loss(decision, cfg, args.alpha)
    print(f"tokens = {rep.n_tokens}")
    print(f"activations = {int(rep.counts.sum())}")
    print(f"max_f = {rep.max_f:.6g}")
    print(f"balance_loss = {bal.loss:.10g}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("expert,count,f\n")
            for i in range(rep.counts.shape[0]):
                fh.write(f"{i},{rep.counts[i]},{rep.f[i]:.10g}\n")
        print(f"wrote {args.csv}")
    return 0


def _cmd_similarity(args) -> int:
    model = _load_moe(args.model)
    rep = analysis.expert_similarity(model)
    print(f"experts = {model.dims.N}")
    print(f"pairs = {rep.n_pairs}")
    print(f"mean_cosine = {rep.mean:.10g}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("expert_a,expert_b,cosine\n")
            for i, j, cos in zip(*rep.pairs, rep.per_pair):
                fh.write(f"{i},{j},{cos:.10g}\n")
        print(f"wrote {args.csv}")
    return 0


def _cmd_bench(args) -> int:
    cfg = config_mod.load_config(args.config)
    rep = analysis.cost_report(cfg)
    print(f"total_params = {rep.total_params}")
    print(f"activated_params = {rep.activated_params}")
    print(f"flops_sparse = {rep.flops_sparse}")
    print(f"flops_shared = {rep.flops_shared}")
    print(f"flops_router = {rep.flops_router}")
    print(f"flops_per_token = {rep.flops_per_token}")
    return 0


def _cmd_check(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    if args.config is not None and "reconstruction" not in names:
        raise ValueError(f"--config applies only to the reconstruction suite, not --suite {args.suite}")
    cfg = None if args.config is None else config_mod.load_config(args.config)
    results = verify.run_suites(names, args.seed, cfg=cfg)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name}: {r.detail} ... {status}")
        ok &= r.passed
    return 0 if ok else 1


def _cmd_train_demo(args) -> int:
    _require_counts(args, "steps", "batch")
    _require_finite(args, "lr", "alpha")
    _require_finite(args, "clip", positive=True)
    cfg = config_mod.load_config(args.config)
    rng = Rng(args.seed)
    dense = random_dense(cfg.h, cfg.H, args.seed)
    model = upcycle(dense, cfg, args.seed)
    # Fixed synthetic regression set: fit y = x @ target on one batch.
    target = rng.child(1).matrix(cfg.h, cfg.h, std=0.05)
    x = rng.child(2).matrix(args.batch, cfg.h)
    y_star = matmul(x, target)

    rows = []
    for step in range(args.steps):
        try:
            out = forward(x, model)
        except ValueError as exc:
            # The step-0 forward ran on the same x and config, so only the
            # last update can have made this one fail.
            if step == 0:
                raise
            raise ValueError(f"training diverged at step {step} ({exc}); lower --lr (now {args.lr:g})") from None
        err = out.y.a - y_star.a
        task = float(np.mean(err.astype(np.float64) ** 2))
        bal = balance_loss(out.decision, cfg, args.alpha)
        upstream = Matrix.wrap(np.ascontiguousarray((2.0 / err.size) * err, dtype=np.float32))
        # x is a fixed data batch, so nothing reads its gradient.
        grads = backward(
            model, upstream, out, d_score_extra=balance_loss_score_grad(out.decision, cfg, args.alpha),
            input_grad=False,
        )
        # Clipped SGD keeps the toy run stable at demo learning rates. The
        # norm sums per tensor in registry order, which fixes its rounding.
        d_params = [g for _, g in named_parameters(grads.d_model)]
        sq = sum_squares(d_params)
        # Too large an --lr overflows the loss or the gradient norm before
        # the weights stop being finite.
        if not (np.isfinite(task) and np.isfinite(sq)):
            raise ValueError(
                f"training diverged at step {step} (task loss {task:.3g}, squared gradient norm {sq:.3g}); "
                f"lower --lr (now {args.lr:g})"
            )
        # A Python float when the step does not clip, else an np.float64:
        # sub_scaled keeps NumPy's promotion of each.
        scale = args.lr * min(1.0, args.clip / max(np.sqrt(sq), 1e-12))
        sub_scaled([p for _, p in named_parameters(model)], d_params, scale)
        rows.append((step, task, bal.loss))

    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("step,task_loss,balance_loss\n")
            for step, task, bal_v in rows:
                fh.write(f"{step},{task:.10g},{bal_v:.10g}\n")
        print(f"wrote {args.csv}")
    print(f"first task_loss = {rows[0][1]:.10g}")
    print(f"final task_loss = {rows[-1][1]:.10g}")
    print(f"final balance_loss = {rows[-1][2]:.10g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="finermoe", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("preset", help="emit a baseline config")
    sp.add_argument("name", help=f"one of: {', '.join(config_mod.preset_names())}")
    sp.add_argument("--h", type=int, default=config_mod.REF_H)
    sp.add_argument("--H", type=int, default=config_mod.REF_INTERMEDIATE)
    sp.add_argument("--out", help="write to file instead of stdout")
    sp.set_defaults(fn=_cmd_preset)

    sp = sub.add_parser("upcycle", help="build a MoE model from a dense FFN")
    sp.add_argument("--config", required=True, help="layer config file")
    donor = sp.add_mutually_exclusive_group(required=True)
    donor.add_argument("--dense", help="dense FFN checkpoint (FRM1)")
    donor.add_argument("--dense-seed", type=int, default=None,
                       help="synthesize a random dense FFN of the config's h and H instead")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--drop-ratio", type=float, default=None,
                    help="re-init this fraction of each expert matrix (drop mode)")
    sp.set_defaults(fn=_cmd_upcycle)

    sp = sub.add_parser("forward", help="run the layer on a matrix file")
    sp.add_argument("--model", required=True)
    sp.add_argument("--input", required=True, help="header 'rows cols' + raw f32 LE")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=_cmd_forward)

    sp = sub.add_parser("route-stats", help="routing-load statistics on random tokens")
    sp.add_argument("--model", required=True)
    sp.add_argument("--tokens", type=int, default=4096)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--alpha", type=float, default=0.001)
    sp.add_argument("--csv", help="per-expert counts to CSV (expert,count,f)")
    sp.set_defaults(fn=_cmd_route_stats)

    sp = sub.add_parser("similarity", help="mean pairwise expert cosine similarity")
    sp.add_argument("--model", required=True)
    sp.add_argument("--csv", help="per-pair values to CSV (expert_a,expert_b,cosine)")
    sp.set_defaults(fn=_cmd_similarity)

    sp = sub.add_parser("bench", help="parameter/FLOP report of one layer")
    sp.add_argument("--config", required=True)
    sp.set_defaults(fn=_cmd_bench)

    sp = sub.add_parser("check", help="run verification suites against the oracles")
    sp.add_argument("--suite", default="all", choices=["all", *verify.SUITES])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--config", help="restrict reconstruction to one config")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("train-demo", help="toy training run on a synthetic target")
    sp.add_argument("--config", required=True)
    sp.add_argument("--steps", type=int, default=200)
    sp.add_argument("--batch", type=int, default=16)
    sp.add_argument("--lr", type=float, default=3.0)
    sp.add_argument("--clip", type=float, default=1.0, help="global gradient-norm clip")
    sp.add_argument("--alpha", type=float, default=0.001)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--csv", help="loss curve CSV (step,task_loss,balance_loss)")
    sp.set_defaults(fn=_cmd_train_demo)

    return p


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        # Non-finite results are refused with an error line, so NumPy's
        # floating-point warnings would only repeat them, quoting source.
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ConfigError, checkpoint.CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())
