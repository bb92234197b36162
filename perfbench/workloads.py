"""The benchmark's three workloads.

Each workload is a closed loop with one caller. It has three stages:

* ``fixtures()`` runs in a child process before anything is timed. It
  writes the model file and the input pool into ``self.fix``, all made
  from the seed.
* ``load()`` reads what set-up needs. ``op(0)`` then runs once as the
  warm-up op; together they are what ``setup_s`` times, after the import.
* ``op(j)`` is one timed operation on pool input ``j``. It returns the
  tokens it completed and the output bytes that the checks compare.

Paths handed to the CLI are relative to the checkout root, so CLI stdout
is the same on every machine. Nothing here imports numpy or finermoe at
module level.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path


def _run_cli(argv):
    """Run one in-process CLI call; return its stdout bytes."""
    from finermoe import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    if rc != 0:
        raise RuntimeError(f"finermoe {argv[0]} exited with {rc}")
    return buf.getvalue().encode("utf-8")


def _write_inputs(d, seed, pool, rows, cols):
    """Seeded float32 input matrices x<j>.mat, in the CLI's matrix format."""
    import numpy as np
    from finermoe import cli, numerics

    rng = np.random.default_rng(seed)
    for j in range(pool):
        x = rng.standard_normal((rows, cols), dtype=np.float32)
        cli.write_matrix(numerics.Matrix.wrap(x), d / f"x{j}.mat")


def _write_model(d, preset, h, H, seed):
    import finermoe

    cfg = finermoe.baseline_preset(preset, h=h, H=H)
    model = finermoe.upcycle(finermoe.random_dense(h, H, seed), cfg, seed)
    finermoe.write_model(model, d / "model.frm")


def _finite_f32(raw: bytes, count: int) -> str | None:
    import numpy as np

    if len(raw) < count * 4:
        return f"output has {len(raw)} bytes, expected at least {count * 4}"
    if not np.isfinite(np.frombuffer(raw, dtype="<f4", count=count)).all():
        return "output has non-finite values"
    return None


class Workload:
    """Common state: the seed and the directories a run reads and writes."""

    # The calibration kind (see run.Calibration) whose work is like the
    # op's: gated times are scaled by it to the reference host.
    calibration = "kernel"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.fix = work / "fixture"  # made from the seed, verified by digest
        self.out = work / "out"  # files the ops write


class InferFine(Workload):
    """Library ``forward`` on FineRMoE-base at h=256, H=1024 (128 experts,
    2 active): about one token per expert batch, so dispatch dominates."""

    name = "infer-fine"
    pool = 5  # odd, so a traced run sees every input both traced and untraced
    tail_pct = 90
    h, H, tokens = 256, 1024, 64

    def fixtures(self):
        _write_model(self.fix, "FineRMoE-base", self.h, self.H, self.seed)
        _write_inputs(self.fix, self.seed, self.pool, self.tokens, self.h)

    def load(self):
        import finermoe
        from finermoe import cli

        self.model = finermoe.read_model(self.fix / "model.frm")
        self.xs = [cli.read_matrix(self.fix / f"x{j}.mat") for j in range(self.pool)]

    def op(self, j):
        import finermoe

        y = finermoe.forward(self.xs[j], self.model).y
        return self.tokens, y.a.tobytes()

    def check(self, out):
        return _finite_f32(out, self.tokens * self.h)


class TrainCoarse(Workload):
    """In-process ``finermoe train-demo`` on NVShard at h=256, H=1024
    (64 experts, 8 active), batch 64, 2 SGD steps per op."""

    name = "train-coarse"
    pool = 3
    tail_pct = 25
    h, H, batch, steps = 256, 1024, 64, 2
    tokens = batch * steps

    def fixtures(self):
        import finermoe

        cfg = finermoe.baseline_preset("NVShard", h=self.h, H=self.H)
        finermoe.save_config(cfg, self.fix / "model.cfg")

    def load(self):
        pass

    def op(self, j):
        # Pool input j is the train-demo seed; train-demo makes the model
        # and the batch from it.
        csv = self.out / f"loss{j}.csv"
        stdout = _run_cli([
            "train-demo", "--config", str(self.fix / "model.cfg"),
            "--steps", str(self.steps), "--batch", str(self.batch),
            "--seed", str(self.seed * self.pool + j), "--csv", str(csv),
        ])
        return self.tokens, csv.read_bytes() + stdout

    def check(self, out):
        lines = out.decode("utf-8", "replace").splitlines()
        if lines[:1] != ["step,task_loss,balance_loss"] or len(lines) < 1 + self.steps:
            return "train-demo CSV is malformed"
        for line in lines[1 : 1 + self.steps]:
            vals = [float(v) for v in line.split(",")[1:]]
            if not all(v == v and abs(v) != float("inf") for v in vals):
                return "train-demo losses are not finite"
        return None


class CliRef(Workload):
    """In-process ``finermoe forward`` (read_model, read_matrix, forward,
    write_matrix) on FineRMoE-base at the reference dims h=1536, H=8960:
    a 716 MB model file and an 8-token input."""

    name = "cli-ref"
    pool = 3
    # Reading and copying the 716 MB file is most of the op, and the
    # kernel calibration does not move with it: over eight processes, its
    # median op time spread by IQR/median 0.149 as measured, 0.129 scaled
    # by copies from a cache and 0.096 by copies from memory (the copy
    # kind); another eight gave 0.185 as measured, 0.136 kernel-scaled.
    calibration = "copy"
    tail_pct = 25
    h, H, tokens = 1536, 8960, 8

    def fixtures(self):
        _write_model(self.fix, "FineRMoE-base", self.h, self.H, self.seed)
        _write_inputs(self.fix, self.seed, self.pool, self.tokens, self.h)

    def load(self):
        pass

    def op(self, j):
        out = self.out / f"y{j}.mat"
        stdout = _run_cli([
            "forward", "--model", str(self.fix / "model.frm"),
            "--input", str(self.fix / f"x{j}.mat"), "--out", str(out),
        ])
        return self.tokens, out.read_bytes() + stdout

    def check(self, out):
        header = f"{self.tokens} {self.h}\n".encode("ascii")
        if not out.startswith(header):
            return "output is not a matrix file of the input's shape"
        return _finite_f32(out[len(header):], self.tokens * self.h)


WORKLOADS = {w.name: w for w in (InferFine, TrainCoarse, CliRef)}


def oracle_mismatch(captured):
    """Compare captured ``route`` calls with ``oracle.route_reference``;
    return a message for the first disagreement, else None."""
    import numpy as np
    from finermoe import oracle

    for score, cfg, got in captured:
        ref = oracle.route_reference(score, cfg)
        for field in ("indices", "probs", "cc_act", "final_mask"):
            if not np.array_equal(getattr(ref, field), getattr(got, field)):
                return f"routing {field} differs from oracle.route_reference"
    return None
