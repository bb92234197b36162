"""Benchmark of the finermoe library, driven from outside the library.

    python3 perfbench/run.py --workload infer-fine --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. One run measures one workload (see
``workloads.py``) in this process, so ``peak_rss_mb`` belongs to it:

1. Fixtures (model file, input pool) are made from the seed in a child
   process, or reused after their SHA-256 digests check out. They live in
   ``.perfbench_work/<workload>/fixture``.
2. Set-up (import, model load, one warm-up op) is timed here and in two
   fresh child processes; ``setup_s`` is the median of the three.
3. Ops run in a closed loop for ``--seconds``. After each op, outside its
   timing, a fixed chunk of NumPy work like the op's is timed (the
   calibration). The host's speed drifts by tens of percent within
   seconds, and the calibration drifts with it, so the gated times are
   scaled to a reference host on which a calibration chunk takes
   ``CAL_REF_MS``. The times as measured are printed beside them.
4. Every op is checked: output bytes must repeat for a repeated input,
   match the digests pinned in ``digests.json`` for the default seed, and
   sampled ops must route as ``oracle.route_reference`` does. A failed
   check counts the op as failed; it does not stop the run.

With ``--trace 1`` every other op runs with spans recorded (``spans.py``)
and the run reports per-layer numbers instead, plus the FLOP invariant.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Exit code 2 when the library is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS, oracle_mismatch  # noqa: E402

DEFAULT_SEED = 0  # the seed whose output digests are pinned
SETUP_SAMPLES = 3
CAL_REF_MS = 3.0  # the reference host runs one calibration chunk (either kind) in 3 ms
CAL_SHARE = 0.05  # calibration after each op, as a share of the op's time
CAL_SETUP_MS = 60  # calibration after a timed set-up, and before the first op
ORACLE_EVERY = 8  # besides the first op of each input, check every 8th op
CHILD_TIMEOUT_S = 150
WORK = Path(".perfbench_work")

UNMEASURED = [
    "router_mode=separate",
    "concat_proj",
    "float64 models and acc64 matmuls",
    "compiled kernel backend (not built in a plain checkout; Cython absent)",
    "thread scaling (library default thread count only)",
    "CLI check, similarity and route-stats",
]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest() -> str:
    """Digest of the library source, so fixtures are remade for new code."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "finermoe").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def child(args, stage, timeout=CHILD_TIMEOUT_S) -> dict:
    """Run this script in a child process for one stage; return its JSON line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--stage", stage]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{stage} child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reusable_fixture(wl, seed, src):
    """The fixture's file digests if its manifest names this seed and
    library source and every file still matches its digest, else None."""
    path = wl.fix / "manifest.json"
    if not path.is_file():
        return None
    manifest = json.loads(path.read_text())
    if manifest.get("seed") != seed or manifest.get("source") != src:
        return None
    for name, digest in manifest["files"].items():
        if not (wl.fix / name).is_file() or sha256_file(wl.fix / name) != digest:
            return None
    return manifest["files"]


def ensure_fixtures(args, wl) -> dict:
    """Reuse a verified fixture directory, or remake it in a child process."""
    src = source_digest()
    files = reusable_fixture(wl, args.seed, src)
    info = {"fixture_s": 0.0, "fixture_reused": files is not None}
    if files is None:
        shutil.rmtree(wl.fix, ignore_errors=True)
        t0 = time.perf_counter()
        child(args, "fixtures")
        info["fixture_s"] = time.perf_counter() - t0
        files = json.loads((wl.fix / "manifest.json").read_text())["files"]
    info["fixture_files"] = files
    return info


def make_fixtures(args, wl) -> None:
    wl.fix.mkdir(parents=True, exist_ok=True)
    import_library()
    wl.fixtures()
    files = {}
    for p in sorted(wl.fix.iterdir()):
        files[p.name] = sha256_file(p)
        # Flush now, so write-back of a fresh 716 MB file does not run
        # during the measured loop.
        with open(p, "rb") as fh:
            os.fsync(fh.fileno())
    manifest = {"seed": args.seed, "source": source_digest(), "files": files}
    (wl.fix / "manifest.json").write_text(json.dumps(manifest, indent=1))


def import_library():
    """Import finermoe from this checkout's src/, never from elsewhere."""
    if sys.path[0] != str(ROOT / "src"):
        sys.path.insert(0, str(ROOT / "src"))
    import finermoe

    where = Path(finermoe.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise RuntimeError(f"finermoe imported from {where}, not from this checkout")
    return finermoe


def timed_setup(wl, tracer=None) -> dict:
    """Seconds from import through model load and one warm-up op, and the
    median calibration chunk (ms) right after it. The calibration comes
    after, so that importing NumPy stays part of set-up."""
    t0 = time.perf_counter()
    import_library()
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
            stack.enter_context(tracer.span("setup", "setup"))
        wl.load()
        wl.op(0)
    setup_s = time.perf_counter() - t0
    return {"setup_s": setup_s, "cal_ms": statistics.median(calibrate(wl.calibration, CAL_SETUP_MS))}


class Calibration:
    """A fixed chunk of NumPy work whose time shows only how fast the host
    runs at that moment: its arrays come from a constant seed and it
    calls nothing in the library. A workload picks the kind whose work is
    like its op's, because the host's drift has sides that move apart.

    ``kernel``: rank-1-update loops shaped like the library's fallback
    kernel, in two parts: 2-row products cycling through 4 MB of weights
    (bound by the interpreter and the core), and 64-row products with
    256 KB temporaries (bound by moving memory). The chunk time is the
    geometric mean of the two parts' times.

    ``copy``: one copy of a 16 MB array, cycling through four pairs
    (128 MB, so the copies come from memory, not a cache), bound by
    memory bandwidth; for ops that mostly read and copy a large file.
    The pairs add 128 MB to the run's peak RSS."""

    def __init__(self, kind):
        import numpy as np

        self.np = np
        self.next = 0
        if kind == "copy":
            self.pairs = [(np.ones(4 << 20, dtype=np.float32), np.empty(4 << 20, dtype=np.float32))
                          for _ in range(4)]
            self.chunk_ms = self.copy_ms
            return
        rng = np.random.default_rng(20240601)
        self.x = rng.standard_normal((2, 256), dtype=np.float32)
        self.ws = [rng.standard_normal((256, 64), dtype=np.float32) for _ in range(64)]
        self.xl = rng.standard_normal((64, 256), dtype=np.float32)
        self.wl = rng.standard_normal((256, 1024), dtype=np.float32)
        self.chunk_ms = self.kernel_ms

    def copy_ms(self) -> float:
        src, dst = self.pairs[self.next % len(self.pairs)]
        self.next += 1
        t0 = time.perf_counter_ns()
        self.np.copyto(dst, src)
        return (time.perf_counter_ns() - t0) / 1e6

    def kernel_ms(self) -> float:
        np, x = self.np, self.x
        t0 = time.perf_counter_ns()
        for _ in range(4):
            w = self.ws[self.next % len(self.ws)]
            self.next += 1
            acc = np.zeros((2, 64), dtype=np.float32)
            for p in range(256):
                acc += x[:, p, None] * w[None, p, :]
        t1 = time.perf_counter_ns()
        acc = np.zeros((64, 1024), dtype=np.float32)
        for p in range(48):
            acc += self.xl[:, p, None] * self.wl[None, p, :]
        t2 = time.perf_counter_ns()
        return math.sqrt((t1 - t0) * (t2 - t1)) / 1e6


_calibration = None


def calibrate(kind, budget_ms) -> list:
    """Times (ms) of calibration chunks of ``kind``, run until they add up
    to ``budget_ms``, at least one. A run calibrates with one kind only."""
    global _calibration
    if _calibration is None:
        _calibration = Calibration(kind)
    chunks = []
    while not chunks or sum(chunks) < budget_ms:
        chunks.append(_calibration.chunk_ms())
    return chunks


def host_factor(cal_ms) -> float:
    """How much slower than the reference host this host ran: a time
    divided by it is the time the reference host would take."""
    return cal_ms / CAL_REF_MS


def percentile(sorted_vals, pct):
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def run_loop(wl, seconds, tracer):
    """Closed loop of ops for ``seconds``. With a tracer, odd ops are traced.
    Each op records the median calibration chunk of the gaps before and
    after it."""
    records = []
    routes = {}
    gaps = [calibrate(wl.calibration, CAL_SETUP_MS)]
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while True:
        j = i % wl.pool
        traced = tracer is not None and i % 2 == 1
        rec = {"i": i, "j": j, "traced": traced, "error": None, "tokens": 0}
        with ExitStack() as stack:
            if traced:
                stack.enter_context(tracer.installed())
                stack.enter_context(tracer.span("op", i))
            if i < wl.pool or i % ORACLE_EVERY == 0:
                routes[i] = []
                stack.enter_context(spans.capture_routes(routes[i]))
            t0 = time.perf_counter_ns()
            try:
                tokens, out = wl.op(j)
            except Exception as exc:  # a failed op is counted, not fatal
                out, rec["error"] = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
        rec["ns"] = t1 - t0
        gaps.append(calibrate(wl.calibration, CAL_SHARE * rec["ns"] / 1e6))
        rec["cal_ms"] = statistics.median(gaps[-2] + gaps[-1])
        if out is not None:
            rec["tokens"] = tokens
            rec["digest"] = hashlib.sha256(out).hexdigest()
            try:
                rec["error"] = wl.check(out)
            except Exception as exc:
                rec["error"] = f"output check raised {type(exc).__name__}: {exc}"
        records.append(rec)
        i += 1
        if t1 >= deadline:
            break
    return records, routes


def check_records(wl, records, routes, pinned):
    """Mark ops whose outputs fail the repeat, pinned-digest or oracle checks."""
    first = {}
    for rec in records:
        if rec["error"]:
            continue
        j, dig = rec["j"], rec["digest"]
        if first.setdefault(j, dig) != dig:
            rec["error"] = f"output for input {j} differs from its first output"
        elif pinned is not None and dig != pinned[j]:
            rec["error"] = f"output for input {j} differs from the digest pinned for seed {DEFAULT_SEED}"
    for rec in records:
        if rec["i"] in routes and not rec["error"]:
            rec["error"] = oracle_mismatch(routes[rec["i"]])
    return first


def load_pinned(name):
    path = HERE / "digests.json"
    return json.loads(path.read_text()).get(name) if path.is_file() else None


def context(wl, fixture, records):
    import numpy as np
    import finermoe
    from finermoe import numerics

    factors = sorted(host_factor(r["cal_ms"]) for r in records)
    return {
        "kernel_backend": finermoe.kernel_backend(),
        "threads": numerics.get_num_threads(),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "host_factor_median": statistics.median(factors),
        "host_factor_min": factors[0],
        "host_factor_max": factors[-1],
        "calibration": wl.calibration,
        "calib_ref_ms": CAL_REF_MS,
        "fixture_s": fixture["fixture_s"],
        "fixture_reused": fixture["fixture_reused"],
        "tail_pct": wl.tail_pct,
        "unmeasured": UNMEASURED,
    }


def end_to_end(wl, records, setup_samples, failed):
    """The gated metrics, scaled to the reference host, and notes that
    hold the same numbers as measured."""
    ok = [r for r in records if not r["error"]]
    tokens = sum(r["tokens"] for r in ok)
    ms = sorted(r["ns"] / 1e6 / host_factor(r["cal_ms"]) for r in (ok or records))
    raw_ms = sorted(r["ns"] / 1e6 for r in (ok or records))
    ref_s = sum(r["ns"] / 1e9 / host_factor(r["cal_ms"]) for r in records)
    raw_s = sum(r["ns"] / 1e9 for r in records)
    setup = sorted(s["setup_s"] / host_factor(s["cal_ms"]) for s in setup_samples)
    tail, beyond = percentile(ms, wl.tail_pct)
    raw_tail, _ = percentile(raw_ms, wl.tail_pct)
    m = {
        "tokens_per_s": (tokens / ref_s, "tokens/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "ok_op_frac": (1 - failed / len(records), "fraction"),
    }
    # Printed, not in the JSON metrics: op_ms_tail, which swung with the
    # host's slow phases by more than any allowed bound before the
    # calibration, and failed_op_frac, which is 0 when healthy (it is
    # carried by `failed` / `attempted`).
    raw_setup = statistics.median(s["setup_s"] for s in setup_samples)
    notes = {
        "tokens_per_s": f"as measured: {tokens / raw_s:.6g}",
        "op_ms_p50": f"as measured: {statistics.median(raw_ms):.6g}",
        "setup_s": f"median of {', '.join(f'{v:.3f}' for v in setup)}; as measured: {raw_setup:.6g}",
        "op_ms_tail": f"{tail:.6g} ms (as measured: {raw_tail:.6g}), p{wl.tail_pct} of {len(ms)} ops, {beyond} above it",
        "failed_op_frac": f"{failed / len(records):.6g} ({failed} of {len(records)} ops)",
    }
    return m, notes


def layer_report(wl, tracer, records, flops_checked):
    traced = [r for r in records if r["traced"] and not r["error"]]
    untraced = [r for r in records if not r["traced"] and not r["error"]]

    def rate(rs):
        ns = sum(r["ns"] for r in rs)
        return sum(r["tokens"] for r in rs) / (ns / 1e9) if ns else 0.0

    m = spans.per_layer(tracer.spans, [r["i"] for r in traced])
    m["trace.tokens_per_s_delta"] = rate(traced) - rate(untraced)
    both = {r["j"] for r in traced} & {r["j"] for r in untraced}
    notes = {
        "trace.tokens_per_s_delta": f"traced {rate(traced):.4g} minus untraced {rate(untraced):.4g} tokens/s",
        # An output that differs from the input's first output is a failed op.
        "bit_identical_inputs": f"{len(both)} of {wl.pool} inputs ran traced and untraced, same bytes",
        "flop_invariant": f"{flops_checked} forwards checked against cost_report",
        "numerics.matmul.flops_per_byte": "bytes computed from operand shapes, not measured",
    }
    return m, notes


def measure(args):
    wl = WORKLOADS[args.workload](args.seed, WORK / args.workload)
    wl.out.mkdir(parents=True, exist_ok=True)
    fixture = ensure_fixtures(args, wl)
    trace = args.trace == 1
    setup_samples = [] if trace else [child(args, "setup") for _ in range(SETUP_SAMPLES - 1)]
    tracer = spans.Tracer() if trace else None
    setup_samples.append(timed_setup(wl, tracer))

    records, routes = run_loop(wl, args.seconds, tracer)

    pinned = load_pinned(wl.name) if args.seed == DEFAULT_SEED else None
    if pinned is not None and fixture["fixture_files"] != pinned["fixture"]:
        for rec in records:
            rec["error"] = rec["error"] or f"fixture digest differs from the one pinned for seed {DEFAULT_SEED}"
    first = check_records(wl, records, routes, pinned["outputs"] if pinned else None)
    if trace:
        from finermoe import analysis

        flops_checked, bad = spans.flop_check(
            tracer.spans, lambda cfg: analysis.cost_report(cfg).flops_per_token
        )
        for rec in records:
            if rec["i"] in bad and not rec["error"]:
                rec["error"] = bad[rec["i"]]
        if "setup" in bad:
            for rec in records:
                rec["error"] = rec["error"] or "warm-up op: " + bad["setup"]

    failed = sum(1 for r in records if r["error"])
    ctx = context(wl, fixture, records)
    if trace:
        metrics, notes = layer_report(wl, tracer, records, flops_checked)
        metrics = {k: (metrics[k], unit) for k, (unit, _) in spans.PER_LAYER.items()}
        ctx["missing_targets"] = tracer.missing
    else:
        metrics, notes = end_to_end(wl, records, setup_samples, failed)

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("context " + json.dumps(ctx))
    for name, (value, unit) in metrics.items():
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{name:40s} {value:14.6g} {unit}{note}")
    for name in notes:
        if name not in metrics:
            print(f"{name:40s} {notes[name]}")
    errors = [r for r in records if r["error"]]
    for rec in errors[:5]:
        print(f"failed op {rec['i']} (input {rec['j']}): {rec['error']}")

    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = WORK / wl.name / f"result-seed{args.seed}-trace{args.trace}.json"
    record = dict(result, context=ctx, notes=notes,
                  outputs=[first.get(j) for j in range(wl.pool)],
                  fixture=fixture["fixture_files"],
                  op_ms=[r["ns"] / 1e6 for r in records],
                  cal_ms=[r["cal_ms"] for r in records])
    out.write_text(json.dumps(record, indent=1))
    if trace:
        (WORK / wl.name / f"spans-seed{args.seed}.json").write_text(
            json.dumps({"context": ctx, "spans": tracer.dump()}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--stage", choices=("fixtures", "setup"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "finermoe" / "__init__.py").is_file():
        print(f"error: no finermoe library under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.stage == "fixtures":
        make_fixtures(args, WORKLOADS[args.workload](args.seed, WORK / args.workload))
        print(json.dumps({"ok": True}))
        return 0
    if args.stage == "setup":
        wl = WORKLOADS[args.workload](args.seed, WORK / args.workload)
        print(json.dumps(timed_setup(wl)))
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
