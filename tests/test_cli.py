import contextlib
import hashlib
import importlib
import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import finermoe
from finermoe.checkpoint import read_model
from finermoe.cli import main, read_matrix, run, write_matrix
from finermoe.config import load_config
from finermoe.moe_layer import forward
from finermoe.numerics import Matrix, Rng


def _run(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _run_module(argv, cwd):
    """Run ``python -m finermoe`` in a child that imports the package under test."""
    src = str(Path(finermoe.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "finermoe", *argv],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


@pytest.fixture
def base_cfg(tmp_path):
    p = tmp_path / "base.cfg"
    code, _, _ = _run(["preset", "FineRMoE-base", "--h", "32", "--H", "64", "--out", str(p)])
    assert code == 0
    return p


@pytest.fixture
def model_file(tmp_path, base_cfg):
    p = tmp_path / "m.frm"
    code, _, _ = _run(
        ["upcycle", "--config", str(base_cfg), "--dense-seed", "5", "--out", str(p), "--seed", "7"]
    )
    assert code == 0
    return p


class TestPreset:
    def test_stdout_matches_file(self, tmp_path, base_cfg):
        code, text, _ = _run(["preset", "FineRMoE-base", "--h", "32", "--H", "64"])
        assert code == 0
        assert text == base_cfg.read_text()

    def test_unknown_preset_fails_with_listing(self):
        code, _, err = _run(["preset", "Z9"])
        assert code != 0
        assert "valid presets" in err

    def test_emitted_config_parses(self, base_cfg):
        cfg = load_config(base_cfg)
        assert cfg.G_I == 32 and cfg.h == 32


class TestUpcycle:
    def test_deterministic_bytes(self, tmp_path, base_cfg):
        a, b = tmp_path / "a.frm", tmp_path / "b.frm"
        for p in (a, b):
            code, _, _ = _run(
                ["upcycle", "--config", str(base_cfg), "--dense-seed", "5",
                 "--out", str(p), "--seed", "7"]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_from_dense_file(self, tmp_path, base_cfg, model_file):
        dense_p = tmp_path / "d.frm"
        from finermoe.checkpoint import write_model
        from finermoe.upcycle import random_dense

        write_model(random_dense(32, 64, 5), dense_p)
        out_p = tmp_path / "m2.frm"
        code, _, _ = _run(
            ["upcycle", "--config", str(base_cfg), "--dense", str(dense_p),
             "--out", str(out_p), "--seed", "7"]
        )
        assert code == 0
        assert out_p.read_bytes() == model_file.read_bytes()

    def test_drop_mode(self, tmp_path):
        cfg_p, out_p = tmp_path / "drop.cfg", tmp_path / "du.frm"
        cfg_p.write_text("h = 16\nH = 32\nR_I = 8\nT_I = 2\n", encoding="utf-8")
        code, text, _ = _run(
            ["upcycle", "--config", str(cfg_p), "--dense-seed", "3", "--drop-ratio", "0.5",
             "--out", str(out_p), "--seed", "1"]
        )
        assert code == 0
        assert "8 experts, 2 activated" in text
        model = read_model(out_p)
        assert model.cfg.R_I == 8 and model.cfg.T_I == 2
        # Drop mode's pinned bytes for this donor, config and seed.
        digest = hashlib.sha256(out_p.read_bytes()).hexdigest()
        assert digest == "7662cf56e841e7ebbc1b40a22269930f69462ea142b13cc463bc4fe1b5060ef9"

    # Each refusal exits 2 with one error and writes no --out file.
    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--config", "{base}"], "one of the arguments --dense --dense-seed is required"),
            (["--config", "{base}", "--dense", "{dense}", "--dense-seed", "5"],
             "argument --dense-seed: not allowed with argument --dense"),
            (["--dense-seed", "5"], "the following arguments are required: --config"),
            (["--config", "{h0}", "--dense-seed", "5", "--drop-ratio", "0.5"], "h and H must be >= 1, got h=0, H=8"),
        ],
        ids=["no-donor", "two-donors", "no-config", "drop-h-below-1"],
    )
    def test_refusals(self, tmp_path, base_cfg, argv, error):
        from finermoe.checkpoint import write_model
        from finermoe.upcycle import random_dense

        paths = {"base": base_cfg, "dense": tmp_path / "d.frm", "h0": tmp_path / "h0.cfg"}
        write_model(random_dense(32, 64, 5), paths["dense"])
        paths["h0"].write_text("h = 0\nH = 8\n", encoding="utf-8")
        out_p = tmp_path / "m.frm"
        code, text, err = _run(["upcycle", *(a.format(**paths) for a in argv), "--out", str(out_p)])
        assert (code, text) == (2, "")
        assert err.count("error:") == 1 and err.endswith(f"error: {error}\n")
        assert not out_p.exists()

    # A dense checkpoint that does not fit the config is a config fault.
    def test_dense_file_of_other_dims_exits_2(self, tmp_path, base_cfg):
        from finermoe.checkpoint import write_model
        from finermoe.upcycle import random_dense

        dense_p, out_p = tmp_path / "d.frm", tmp_path / "m.frm"
        write_model(random_dense(16, 64, 5), dense_p)
        code, text, err = _run(
            ["upcycle", "--config", str(base_cfg), "--dense", str(dense_p), "--out", str(out_p)]
        )
        assert (code, text, err) == (2, "", "error: dense FFN dims (16, 64) do not match config (32, 64)\n")
        assert not out_p.exists()

    def test_missing_file_reports_error(self, tmp_path, base_cfg):
        code, _, err = _run(
            ["upcycle", "--config", str(base_cfg), "--dense", str(tmp_path / "nope.frm"),
             "--out", str(tmp_path / "x.frm")]
        )
        assert code != 0 and "error" in err


class TestForward:
    def test_matches_library_forward(self, tmp_path, model_file):
        x = Rng(9).matrix(6, 32)
        xp, yp = tmp_path / "x.mat", tmp_path / "y.mat"
        write_matrix(x, xp)
        code, _, _ = _run(["forward", "--model", str(model_file), "--input", str(xp), "--out", str(yp)])
        assert code == 0
        want = forward(x, read_model(model_file)).y
        got = read_matrix(yp)
        assert got.a.tobytes() == want.a.tobytes()

    def test_matrix_file_round_trip(self, tmp_path):
        m = Rng(10).matrix(3, 5)
        p = tmp_path / "m.mat"
        write_matrix(m, p)
        assert read_matrix(p).a.tobytes() == m.a.tobytes()
        header = p.read_bytes().split(b"\n", 1)[0]
        assert header == b"3 5"

    def test_truncated_matrix_rejected(self, tmp_path, model_file):
        p = tmp_path / "x.mat"
        write_matrix(Rng(11).matrix(3, 32), p)
        p.write_bytes(p.read_bytes()[:-8])
        code, _, err = _run(
            ["forward", "--model", str(model_file), "--input", str(p), "--out", str(tmp_path / "y.mat")]
        )
        assert code != 0
        assert "truncated" in err

    # A header of 1 x 16 over 32 values is refused, not read as its first 16.
    def test_bytes_after_the_payload_are_refused(self, tmp_path):
        p = tmp_path / "x.mat"
        p.write_bytes(b"1 16\n" + bytes(32 * 4))
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: 64 bytes after the 1 x 16 payload$"):
            read_matrix(p)

    def test_forward_refuses_bytes_after_the_payload(self, tmp_path, model_file):
        p, yp = tmp_path / "x.mat", tmp_path / "y.mat"
        write_matrix(Rng(11).matrix(3, 32), p)
        p.write_bytes(p.read_bytes() + bytes(4))
        code, out, err = _run(["forward", "--model", str(model_file), "--input", str(p), "--out", str(yp)])
        assert (code, out, err) == (3, "", f"error: {p}: 4 bytes after the 3 x 32 payload\n")
        assert not yp.exists()

    @pytest.mark.parametrize("header", [b"", b"3\n", b"3 5 7\n", b"\xff\xfe 5\n", b"3 x\n", b"1.5 32\n"],
                             ids=["no header", "one dim", "three dims", "non-ASCII", "non-integer", "float"])
    def test_every_header_fault_names_the_file(self, tmp_path, model_file, header):
        p = tmp_path / "x.mat"
        p.write_bytes(header + bytes(3 * 32 * 4))
        code, _, err = _run(
            ["forward", "--model", str(model_file), "--input", str(p), "--out", str(tmp_path / "y.mat")]
        )
        assert (code, err) == (3, f"error: {p}: expected header 'rows cols' of two integers\n")

    # The input is checked before the layer runs, so a NaN in it is not
    # reported as a fault of the model's router.
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_names_the_file(self, tmp_path, model_file, value):
        x = Rng(13).matrix(3, 32)
        x.a[1, 5] = value
        p, yp = tmp_path / "x.mat", tmp_path / "y.mat"
        write_matrix(x, p)
        code, out, err = _run(["forward", "--model", str(model_file), "--input", str(p), "--out", str(yp)])
        assert (code, out, err) == (3, "", f"error: {p}: input holds inf or NaN\n")
        assert not yp.exists()


@pytest.fixture(scope="module")
def matrix_fuzz_dir(tmp_path_factory):
    """A FineRMoE-base model at h=32, H=64 and a valid 3-token input for it."""
    d = tmp_path_factory.mktemp("matfuzz")
    cfg = finermoe.baseline_preset("FineRMoE-base", h=32, H=64)
    finermoe.write_model(finermoe.upcycle(finermoe.random_dense(32, 64, 5), cfg, 5), d / "m.frm")
    write_matrix(Rng(12).matrix(3, 32), d / "base.mat")
    return d


class TestMatrixFuzz:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_read_matrix_raises_only_value_error(self, matrix_fuzz_dir, data):
        raw = (matrix_fuzz_dir / "base.mat").read_bytes()
        kind = data.draw(st.sampled_from(["truncate", "overwrite", "insert", "header"]))
        at = data.draw(st.integers(0, len(raw) - 1))
        patch = data.draw(st.binary(min_size=1, max_size=8))
        if kind == "truncate":
            raw = raw[:at]
        elif kind == "overwrite":
            raw = raw[:at] + patch + raw[at + len(patch) :]
        elif kind == "insert":
            raw = raw[:at] + patch + raw[at:]
        else:
            # The header is a few bytes of the file; aim at it directly.
            rows, cols = data.draw(st.tuples(st.integers(-2, 2**70), st.integers(-2, 2**70)))
            raw = f"{rows} {cols}\n".encode("ascii") + raw.split(b"\n", 1)[1]
        p = matrix_fuzz_dir / "x.mat"
        p.write_bytes(raw)
        try:
            m = read_matrix(p)
        except ValueError:
            m = None
        else:
            assert isinstance(m, Matrix) and m.rows >= 1 and m.cols >= 1
        code, _, err = _run(
            ["forward", "--model", str(matrix_fuzz_dir / "m.frm"), "--input", str(p),
             "--out", str(matrix_fuzz_dir / "y.mat")]
        )
        if m is None:
            assert code == 3 and err.startswith("error: "), err
        else:
            assert code in (0, 3), err


class TestRouteStats:
    def test_counts_identity_and_csv(self, tmp_path, model_file):
        csv_p = tmp_path / "loads.csv"
        code, text, _ = _run(
            ["route-stats", "--model", str(model_file), "--tokens", "512",
             "--seed", "3", "--csv", str(csv_p)]
        )
        assert code == 0
        assert "activations = 1024" in text  # 512 tokens x 2 activated
        lines = csv_p.read_text().splitlines()
        assert lines[0] == "expert,count,f"
        counts = [int(l.split(",")[1]) for l in lines[1:]]
        assert sum(counts) == 1024
        assert len(counts) == 128

    def test_deterministic_output(self, model_file):
        runs = [_run(["route-stats", "--model", str(model_file), "--tokens", "64", "--seed", "3"]) for _ in range(2)]
        assert runs[0] == runs[1]


class TestSimilarity:
    def test_reports_pair_count(self, model_file):
        code, text, _ = _run(["similarity", "--model", str(model_file)])
        assert code == 0
        assert "pairs = 8128" in text

    def test_per_pair_csv(self, tmp_path, model_file):
        csv_p = tmp_path / "sim.csv"
        code, _, _ = _run(["similarity", "--model", str(model_file), "--csv", str(csv_p)])
        assert code == 0
        lines = csv_p.read_text().splitlines()
        assert lines[0] == "expert_a,expert_b,cosine"
        assert len(lines) == 1 + 8128

    def test_csv_row_is_the_cosine_of_its_experts(self, tmp_path, model_file):
        # Distinct experts, so a row labelled with the wrong pair shows.
        model = read_model(model_file)
        rng = Rng(3)
        for a in (model.experts.w1, model.experts.wg, model.experts.w2):
            a += rng.normal(a.size).reshape(a.shape).astype(a.dtype)
        finermoe.write_model(model, model_file)
        csv_p = tmp_path / "sim.csv"
        assert _run(["similarity", "--model", str(model_file), "--csv", str(csv_p)])[0] == 0
        n = model.dims.N
        vecs = np.concatenate(
            [a.reshape(n, -1) for a in (model.experts.w1, model.experts.wg, model.experts.w2)], axis=1
        ).astype(np.float64)
        rows = csv_p.read_text().splitlines()[1:]
        assert len(rows) == n * (n - 1) // 2
        seen = set()
        for row in rows:
            i, j, cos = row.split(",")
            i, j = int(i), int(j)
            want = vecs[i] @ vecs[j] / np.sqrt((vecs[i] @ vecs[i]) * (vecs[j] @ vecs[j]))
            assert abs(float(cos) - want) < 1e-9, row
            seen.add((i, j))
        assert seen == {(i, j) for i in range(n) for j in range(i + 1, n)}


class TestBench:
    def test_untimed_report_is_deterministic(self, base_cfg):
        a = _run(["bench", "--config", str(base_cfg)])
        b = _run(["bench", "--config", str(base_cfg)])
        assert a == b and a[0] == 0
        assert "total_params" in a[1]

    def test_timing_flag_is_gone(self, base_cfg):
        # Wall-clock timing lives in perfbench/; argparse rejects the old flag.
        code, _, err = _run(["bench", "--config", str(base_cfg), "--timed"])
        assert code == 2
        assert "--timed" in err


class TestCheck:
    def test_quick_suites_pass(self):
        code, text, _ = _run(["check", "--suite", "roundtrip", "--seed", "1"])
        assert code == 0
        assert "PASS" in text

    def test_reconstruction_with_config(self, base_cfg):
        code, text, _ = _run(["check", "--suite", "reconstruction", "--config", str(base_cfg), "--seed", "2"])
        assert code == 0
        assert "reconstruction" in text and "PASS" in text

    # Only reconstruction reads --config; a suite that would ignore it is
    # refused before any suite runs.
    @pytest.mark.parametrize("suite", ["router", "roundtrip", "grad"])
    def test_config_without_reconstruction_exits_3(self, base_cfg, suite):
        code, text, err = _run(["check", "--suite", suite, "--config", str(base_cfg)])
        assert (code, text) == (3, "")
        assert err == f"error: --config applies only to the reconstruction suite, not --suite {suite}\n"


class TestTrainDemo:
    def test_loss_decreases_and_csv_logged(self, tmp_path, base_cfg):
        csv_p = tmp_path / "curve.csv"
        code, text, _ = _run(
            ["train-demo", "--config", str(base_cfg), "--steps", "40",
             "--batch", "8", "--seed", "0", "--csv", str(csv_p)]
        )
        assert code == 0
        lines = csv_p.read_text().splitlines()
        assert lines[0] == "step,task_loss,balance_loss"
        first = float(lines[1].split(",")[1])
        last = float(lines[-1].split(",")[1])
        assert last < first * 0.5

    @staticmethod
    def _nvshard_run(tmp_path, monkeypatch, *argv):
        """(exit code, stdout, stderr, loss.csv bytes or None) of a train-demo
        run in tmp_path on NVShard h=32 H=128, 3 steps, batch 8."""
        monkeypatch.chdir(tmp_path)
        csv_p = tmp_path / "loss.csv"
        csv_p.unlink(missing_ok=True)
        assert _run(["preset", "NVShard", "--h", "32", "--H", "128", "--out", "nv.cfg"])[0] == 0
        code, out, err = _run(["train-demo", "--config", "nv.cfg", "--steps", "3", "--batch", "8", "--csv", "loss.csv",
                               *argv])
        return code, out, err, csv_p.read_bytes() if csv_p.exists() else None

    def _digest(self, tmp_path, monkeypatch, *argv):
        import hashlib

        code, text, _, csv = self._nvshard_run(tmp_path, monkeypatch, *argv)
        assert code == 0
        return hashlib.sha256(csv + text.encode()).hexdigest()

    # sha256 of loss.csv then stdout, NVShard h=32 H=128, 3 steps, batch 8.
    PINNED = {
        0: "73f2b75767f4d908e76a871ffd80d94551b06f4f8093c9b546dccfa1b786bca6",
        1: "cead203d622a3c6d764a775de0369f4a1e93d204d15fc93955d1a349e0453eae",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_pinned_digest(self, seed, tmp_path, monkeypatch):
        assert self._digest(tmp_path, monkeypatch, "--seed", str(seed)) == self.PINNED[seed]

    # As PINNED, with --clip 0.001: every step clips, so its SGD update runs
    # in float64 (an np.float64 scale), where an unclipped one runs in float32.
    PINNED_CLIPPED = {
        0: "e0cac3fd921d4e96386dbc03e2574f02743366188bbd5245450e92d5c43df411",
        1: "f33e04835842836b2ee306327267993f66c6d2fce9fbd9a5b2ac58d2c4da20a0",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_CLIPPED))
    def test_pinned_clipped_digest(self, seed, tmp_path, monkeypatch):
        digest = self._digest(tmp_path, monkeypatch, "--seed", str(seed), "--clip", "0.001")
        assert digest == self.PINNED_CLIPPED[seed]

    # Unclipped, clipped, and an --lr whose unclipped scale overflows float32.
    @pytest.mark.parametrize("argv", [[], ["--clip", "0.001"], ["--lr", "1e39"]], ids=["unclipped", "clipped", "inf"])
    def test_same_bytes_under_the_numpy_kernels(self, argv, tmp_path, monkeypatch):
        from finermoe import _backend, _kernels_py

        here = self._nvshard_run(tmp_path, monkeypatch, "--seed", "1", *argv)
        monkeypatch.setattr(_backend, "active", _kernels_py)
        assert self._nvshard_run(tmp_path, monkeypatch, "--seed", "1", *argv) == here

    # 1e10 overflows the loss and the gradient norm at step 2; 1e39 leaves
    # them finite but makes the step-1 forward overflow.
    @pytest.mark.parametrize("lr, step", [("1e10", 2), ("1e39", 1)])
    def test_divergence_exits_3_naming_the_step_and_lr(self, tmp_path, lr, step):
        cfg_p = tmp_path / "nv.cfg"
        assert _run(["preset", "NVShard", "--h", "32", "--H", "128", "--out", str(cfg_p)])[0] == 0
        code, out, err = _run(
            ["train-demo", "--config", str(cfg_p), "--steps", "5", "--batch", "8", "--lr", lr]
        )
        assert code == 3 and out == ""
        assert err.startswith(f"error: training diverged at step {step} ") and err.count("\n") == 1
        assert f"--lr (now {float(lr):g})" in err

    def test_deterministic(self, base_cfg):
        a = _run(["train-demo", "--config", str(base_cfg), "--steps", "5", "--batch", "4"])
        b = _run(["train-demo", "--config", str(base_cfg), "--steps", "5", "--batch", "4"])
        assert a == b


class TestCheckAggregate:
    def test_all_suites_exit_zero(self):
        code, text, _ = _run(["check", "--suite", "all", "--seed", "5"])
        assert code == 0
        assert text.count("PASS") == 4 and "FAIL" not in text


class TestFileKindChecks:
    # A checkpoint of the wrong kind is a checkpoint error: exit 2.
    @pytest.mark.parametrize(
        "argv",
        [
            ["forward", "--input", "x.mat", "--out", "y.mat"],
            ["route-stats", "--tokens", "4"],
            ["similarity"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_moe_commands_reject_dense_files_with_exit_2(self, tmp_path, argv):
        from finermoe.checkpoint import write_model
        from finermoe.upcycle import random_dense

        dense_p = tmp_path / "d.frm"
        write_model(random_dense(16, 32, 1), dense_p)
        code, out, err = _run([*argv, "--model", str(dense_p)])
        assert (code, out) == (2, "")
        assert err == f"error: {dense_p} holds a dense FFN, expected a MoE model\n"

    def test_upcycle_rejects_moe_donor_with_exit_2(self, tmp_path, base_cfg, model_file):
        code, out, err = _run(
            ["upcycle", "--config", str(base_cfg), "--dense", str(model_file),
             "--out", str(tmp_path / "x.frm")]
        )
        assert (code, out) == (2, "")
        assert err == f"error: {model_file} holds a MoE model, expected a dense FFN\n"
        assert not (tmp_path / "x.frm").exists()

    def test_upcycle_rejects_mismatched_donor_dims(self, tmp_path, base_cfg):
        from finermoe.checkpoint import write_model
        from finermoe.upcycle import random_dense

        dense_p = tmp_path / "wrong.frm"
        write_model(random_dense(16, 32, 1), dense_p)  # config wants 32/64
        code, _, err = _run(
            ["upcycle", "--config", str(base_cfg), "--dense", str(dense_p),
             "--out", str(tmp_path / "x.frm")]
        )
        assert code != 0 and "do not match" in err


class TestErrorsAndEntryPoint:
    def test_invalid_config_distinct_exit(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("h = 8\nH = 8\nG_I = 3\n")
        code, _, err = _run(["bench", "--config", str(bad)])
        assert code == 2
        assert "G_I must divide H" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"h = 8\nH = 8\nG_I = 2\nG_I = 4\n", "line 4: duplicate key 'G_I'"),
            (b"h = 8\n\xff\xfe = 8\n", "line 2: not valid UTF-8"),
        ],
        ids=["duplicate-key", "non-utf8"],
    )
    def test_malformed_config_file_exits_2_naming_line(self, tmp_path, text, message):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(text)
        code, _, err = _run(["bench", "--config", str(bad)])
        assert code == 2
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["train-demo", "--config", "{cfg}", "--steps", "0"], "--steps"),
            (["train-demo", "--config", "{cfg}", "--steps", "-1"], "--steps"),
            (["train-demo", "--config", "{cfg}", "--steps", "2", "--batch", "0"], "--batch"),
            (["route-stats", "--model", "{model}", "--tokens", "0"], "--tokens"),
            (["route-stats", "--model", "{model}", "--tokens", "-1"], "--tokens"),
        ],
    )
    def test_count_below_one_exits_3_naming_it(self, model_file, base_cfg, argv, name):
        argv = [a.format(cfg=base_cfg, model=model_file) for a in argv]
        code, _, err = _run(argv)
        assert code == 3
        assert err.startswith("error: ") and name in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["train-demo", "--config", "{cfg}", "--clip", "-1"], "--clip"),
            (["train-demo", "--config", "{cfg}", "--clip", "0"], "--clip"),
            (["train-demo", "--config", "{cfg}", "--clip", "inf"], "--clip"),
            (["train-demo", "--config", "{cfg}", "--lr", "nan"], "--lr"),
            (["train-demo", "--config", "{cfg}", "--lr", "-0.5"], "--lr"),
            (["train-demo", "--config", "{cfg}", "--alpha", "inf"], "--alpha"),
            (["train-demo", "--config", "{cfg}", "--alpha=-1e-3"], "--alpha"),
            (["route-stats", "--model", "{model}", "--alpha", "nan"], "--alpha"),
            (["route-stats", "--model", "{model}", "--alpha=-inf"], "--alpha"),
        ],
    )
    def test_bad_float_flag_exits_3_naming_it(self, model_file, base_cfg, argv, name):
        argv = [a.format(cfg=base_cfg, model=model_file) for a in argv]
        code, out, err = _run(argv)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and name in err and err.count("\n") == 1

    # 10^15 rows of width 32 ask for hundreds of PiB, more than any x86-64
    # address space, so the allocation fails at once without touching memory.
    @pytest.mark.parametrize(
        "argv",
        [
            ["route-stats", "--model", "{model}", "--tokens", "1000000000000000"],
            ["train-demo", "--config", "{cfg}", "--steps", "1", "--batch", "1000000000000000"],
        ],
        ids=["route-stats", "train-demo"],
    )
    def test_memory_error_exits_3_without_traceback(self, model_file, base_cfg, argv):
        argv = [a.format(cfg=base_cfg, model=model_file) for a in argv]
        code, out, err = _run(argv)
        assert code == 3 and out == ""
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_zero_rate_and_weight_are_accepted(self, model_file, base_cfg):
        argv = ["train-demo", "--config", str(base_cfg), "--steps", "1", "--batch", "2"]
        assert _run([*argv, "--lr", "0", "--alpha", "0"])[0] == 0
        assert _run(["route-stats", "--model", str(model_file), "--tokens", "4", "--alpha", "0"])[0] == 0

    def test_unknown_flag_exits_nonzero(self):
        code, _, _ = _run(["bench", "--bogus"])
        assert code != 0

    def test_console_script_smoke(self, tmp_path):
        proc = _run_module(["preset", "C32A2"], tmp_path)
        assert proc.returncode == 0
        assert "R_I = 32" in proc.stdout
        assert proc.stdout == _run(["preset", "C32A2"])[1]

    def test_module_entry_passes_exit_code(self, tmp_path):
        proc = _run_module(["preset", "Z9"], tmp_path)
        assert proc.returncode == 2
        assert "valid presets" in proc.stderr

    def test_project_script_maps_to_cli_main(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["finermoe"]
        assert target == "finermoe.cli:main"
        module_name, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module_name), attr) is main

    def test_package_data_ships_the_kernel_source(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            data = tomllib.load(f)["tool"]["setuptools"]["package-data"]["finermoe"]
        assert "_kernels.c" in data
        assert (Path(finermoe.__file__).resolve().parent / "_kernels.c").is_file()

    @pytest.mark.skipif(shutil.which("finermoe") is None, reason="finermoe script not installed")
    def test_installed_console_script(self, tmp_path):
        proc = subprocess.run(
            ["finermoe", "preset", "C32A2"], capture_output=True, text=True, cwd=tmp_path
        )
        assert proc.returncode == 0
        assert "R_I = 32" in proc.stdout

