import contextlib
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finermoe.checkpoint import (
    MAGIC,
    CheckpointError,
    ShapeMismatchError,
    TruncatedPayloadError,
    UnknownDtypeError,
    read_model,
    write_model,
)
from finermoe.cli import read_matrix, run, write_matrix
from finermoe.config import ConfigError, FineRConfig, baseline_preset, with_updates
from finermoe.moe_layer import MoEModel, forward
from finermoe.numerics import Rng, matmul
from finermoe.upcycle import random_dense, upcycle


def _base_toy_model(seed=0, **cfg_kw):
    cfg = with_updates(baseline_preset("FineRMoE-base", h=64, H=128), **cfg_kw)
    return upcycle(random_dense(64, 128, seed), cfg, seed)


def _split(raw: bytes) -> tuple[str, bytes]:
    """Manifest text and payload bytes of an FRM1 file."""
    mlen = int.from_bytes(raw[4:12], "little")
    start = 12 + mlen + (-(12 + mlen)) % 8
    return raw[12 : 12 + mlen].decode("utf-8"), raw[start:]


def _join(manifest: bytes, payload: bytes) -> bytes:
    """An FRM1 file with this manifest and payload, padded as the writer pads."""
    head = MAGIC + len(manifest).to_bytes(8, "little") + manifest
    return head + b"\x00" * ((-len(head)) % 8) + payload


def _zero_dim_expert(raw: bytes) -> bytes:
    """Declare tensor 3 (expert.0.w1) as 0x0 with length 0; its old bytes
    stay in the payload as a gap, so every other offset still holds."""
    manifest, payload = _split(raw)
    assert "tensor.3.name = expert.0.w1" in manifest
    for key, value in (("shape", "0x0"), ("length", "0")):
        manifest, n = re.subn(rf"tensor\.3\.{key} = \S+", f"tensor.3.{key} = {value}", manifest)
        assert n == 1
    return _join(manifest.encode("utf-8"), payload)


def _edit_manifest(raw: bytes, old: str, new: str) -> bytes:
    """Replace old by new in the manifest, keeping the payload."""
    manifest, payload = _split(raw)
    assert old in manifest
    return _join(manifest.replace(old, new, 1).encode("utf-8"), payload)


def _drop_tensor(raw: bytes, n: int) -> bytes:
    """Delete tensor n's manifest entry and renumber the ones after it; its
    bytes stay in the payload as a gap, so every other offset still holds."""
    manifest, payload = _split(raw)

    def renumber(m):
        i = int(m.group(1))
        return f"tensor.{i - 1 if i > n else i}."

    lines = [l for l in manifest.splitlines() if not l.startswith(f"tensor.{n}.")]
    text = "\n".join(re.sub(r"^tensor\.(\d+)\.", renumber, l) for l in lines) + "\n"
    return _join(text.encode("utf-8"), payload)


# Damage to a small MoE file -> (spoil, error read_model raises, its message).
_DAMAGE = {
    "manifest_length_2_62": (
        lambda raw: raw[:4] + (2**62).to_bytes(8, "little") + raw[12:],
        TruncatedPayloadError,
        "manifest length",
    ),
    "non_utf8_manifest": (
        lambda raw: raw.replace(b"kind = moe", b"kind = m\xffe", 1), CheckpointError, "UTF-8"
    ),
    "zero_dim_shape": (_zero_dim_expert, ShapeMismatchError, "below 1"),
    "trailing_bytes": (
        lambda raw: raw + b"\x00" * 4, CheckpointError, "4 bytes after the last tensor"
    ),
    # router.w is the last tensor.
    "nan_router_weight": (
        lambda raw: raw[:-4] + np.array([np.nan], dtype="<f4").tobytes(),
        CheckpointError,
        "router weights",
    ),
    "truncated_payload": (lambda raw: raw[:-1], TruncatedPayloadError, "payload"),
    "unknown_tensor_name": (
        lambda raw: raw.replace(b"name = router.w", b"name = router.q", 1),
        CheckpointError,
        "'router.q' is not a tensor of this model",
    ),
    "duplicate_tensor_name": (
        lambda raw: raw.replace(b"name = expert.1.w1", b"name = expert.0.w1", 1),
        CheckpointError,
        "'expert.0.w1' appears twice",
    ),
    "missing_tensor": (lambda raw: _drop_tensor(raw, 3), CheckpointError, "missing tensor expert.0.w1"),
    # A repeated manifest key is an error, not a silent last-one-wins.
    "duplicate_config_key": (
        lambda raw: _edit_manifest(raw, "\nT_I = 1\n", "\nT_I = 2\nT_I = 1\n"),
        CheckpointError,
        "manifest key 'T_I' appears twice",
    ),
    "duplicate_tensor_field": (
        lambda raw: _edit_manifest(
            raw, "\ntensor.0.offset = 0\n", "\ntensor.0.offset = 4\ntensor.0.offset = 0\n"
        ),
        CheckpointError,
        "manifest key 'tensor.0.offset' appears twice",
    ),
    # Dims the payload cannot hold fail before the model is allocated.
    "inflated_dims": (
        lambda raw: _edit_manifest(raw, "\nh = 16\n", "\nh = 16000000000000\n"),
        ShapeMismatchError,
        "moe dims need 27648000000000000 tensor bytes",
    ),
}


def _run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def _forward_exit(model_path, tmp_dir):
    """Exit code and stderr of `forward` on a 4-token input of width 16."""
    x = tmp_dir / "x.mat"
    if not x.exists():
        write_matrix(Rng(1).matrix(4, 16), x)
    return _run_cli(
        ["forward", "--model", str(model_path), "--input", str(x), "--out", str(tmp_dir / "y.mat")]
    )


class TestRoundTrip:
    def test_dense_bit_identity(self, tmp_path):
        dense = random_dense(8, 16, 1)
        p = tmp_path / "d.frm"
        write_model(dense, p)
        back = read_model(p)
        assert back.w1.a.tobytes() == dense.w1.a.tobytes()
        assert back.wg.a.tobytes() == dense.wg.a.tobytes()
        assert back.w2.a.tobytes() == dense.w2.a.tobytes()

    def test_moe_file_bytes_stable_across_rewrite(self, tmp_path):
        model = _base_toy_model()
        p1, p2 = tmp_path / "a.frm", tmp_path / "b.frm"
        write_model(model, p1)
        write_model(read_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_identical_after_round_trip(self, tmp_path):
        model = _base_toy_model(seed=2)
        p = tmp_path / "m.frm"
        write_model(model, p)
        back = read_model(p)
        x = Rng(3).matrix(5, 64)
        assert forward(x, model).y.a.tobytes() == forward(x, back).y.a.tobytes()

    def test_variant_models_round_trip(self, tmp_path):
        for i, kw in enumerate(
            [dict(router_mode="separate"), dict(concat_proj=True), dict(share_expert=False)]
        ):
            cfg = FineRConfig(h=16, H=32, G_I=4, R_I=1, G_O=2, R_O=2, T_I=1, **kw)
            model = upcycle(random_dense(16, 32, i), cfg, i)
            p = tmp_path / f"v{i}.frm"
            write_model(model, p)
            back = read_model(p)
            assert back.cfg == cfg
            x = Rng(i).matrix(3, 16)
            assert forward(x, model).y.a.tobytes() == forward(x, back).y.a.tobytes()


class TestManifest:
    def test_tensor_count_for_base_model(self, tmp_path):
        model = _base_toy_model(seed=4)
        p = tmp_path / "m.frm"
        write_model(model, p)
        raw = p.read_bytes()
        mlen = int.from_bytes(raw[4:12], "little")
        manifest = raw[12 : 12 + mlen].decode("utf-8")
        names = [l.split("=")[1].strip() for l in manifest.splitlines() if ".name" in l]
        assert len(names) == 3 * 128 + 3 + 1
        assert "shared.w1" in names and "expert.127.w2" in names and "router.w" in names

    def test_payload_is_aligned(self, tmp_path):
        p = tmp_path / "m.frm"
        write_model(random_dense(8, 16, 5), p)
        raw = p.read_bytes()
        mlen = int.from_bytes(raw[4:12], "little")
        payload_start = 12 + mlen + ((-(12 + mlen)) % 8)
        assert payload_start % 8 == 0
        w1 = np.frombuffer(raw[payload_start : payload_start + 8 * 16 * 4], dtype="<f4")
        assert w1.tobytes() == random_dense(8, 16, 5).w1.a.tobytes()

    def test_magic_is_first(self, tmp_path):
        p = tmp_path / "m.frm"
        write_model(random_dense(8, 16, 6), p)
        assert p.read_bytes()[:4] == MAGIC


class TestErrors:
    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_model(random_dense(8, 16, 7), tmp_path / "no" / "such" / "dir.frm")

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.frm"
        write_model(random_dense(8, 16, 8), p)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            read_model(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "m.frm"
        write_model(random_dense(8, 16, 9), p)
        p.write_bytes(p.read_bytes()[:-32])
        with pytest.raises(TruncatedPayloadError, match="payload"):
            read_model(p)

    def test_unknown_dtype(self, tmp_path):
        p = tmp_path / "m.frm"
        write_model(random_dense(8, 16, 10), p)
        # Same-length in-place edit keeps every offset valid.
        raw = p.read_bytes().replace(b"dtype = f32", b"dtype = f16", 1)
        p.write_bytes(raw)
        with pytest.raises(UnknownDtypeError, match="f16"):
            read_model(p)

    def test_manifest_config_validation_surfaces(self, tmp_path):
        cfg = FineRConfig(h=16, H=32, G_I=4, R_I=1, G_O=2, R_O=2, T_I=1)
        model = upcycle(random_dense(16, 32, 11), cfg, 11)
        p = tmp_path / "m.frm"
        write_model(model, p)
        raw = p.read_bytes().replace(b"G_I = 4", b"G_I = 3", 1)
        p.write_bytes(raw)
        with pytest.raises(ConfigError, match="G_I must divide H"):
            read_model(p)

    def test_shape_config_mismatch(self, tmp_path):
        p = tmp_path / "m.frm"
        write_model(random_dense(8, 16, 12), p)
        raw = p.read_bytes().replace(b"h = 8", b"h = 9", 1)
        p.write_bytes(raw)
        with pytest.raises(ShapeMismatchError):
            read_model(p)

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_damaged_file_exits_2_without_traceback(self, tmp_path, damage):
        spoil, exc, match = _DAMAGE[damage]
        cfg = FineRConfig(h=16, H=32, G_I=4, R_I=1, G_O=2, R_O=2, T_I=1)
        p = tmp_path / "m.frm"
        write_model(upcycle(random_dense(16, 32, 17), cfg, 17), p)
        p.write_bytes(spoil(p.read_bytes()))
        with pytest.raises(exc, match=match):
            read_model(p)
        code, err = _forward_exit(p, tmp_path)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_wrong_kind_for_caller(self, tmp_path):
        # A dense file read back is a DenseFfnWeights, not silently a model.
        p = tmp_path / "d.frm"
        write_model(random_dense(8, 16, 13), p)
        from finermoe.experts import DenseFfnWeights

        assert isinstance(read_model(p), DenseFfnWeights)


class TestOneBuffer:
    def test_expert_views_share_the_stacks(self, tmp_path):
        p = tmp_path / "m.frm"
        write_model(_base_toy_model(seed=6), p)
        stack = read_model(p).experts
        for k in (0, 7, len(stack) - 1):
            e = stack[k]
            for view, whole in ((e.w1, stack.w1), (e.wg, stack.wg), (e.w2, stack.w2)):
                assert view.a.base is whole and np.shares_memory(view.a, whole[k])
                assert view.a.tobytes() == whole[k].tobytes()
        for whole in (stack.w1, stack.wg, stack.w2):
            assert whole.flags.c_contiguous and whole.flags.writeable

    def test_read_peak_is_one_payload(self, tmp_path):
        # Few, large tensors, so the manifest is small beside the payload P.
        cfg = FineRConfig(h=128, H=512, G_I=4, R_I=1, G_O=2, R_O=2, T_I=1)
        p = tmp_path / "m.frm"
        write_model(upcycle(random_dense(128, 512, 18), cfg, 18), p)
        payload_bytes = len(_split(p.read_bytes())[1])
        tracemalloc.start()
        try:
            model = read_model(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(model, MoEModel)
        # Whole-file read plus a copy per tensor would peak near 2 P.
        assert peak < 1.25 * payload_bytes + 256 * 1024


def _mutate(raw: bytes, data) -> bytes:
    """Truncate, overwrite bytes in, or insert bytes into raw."""
    kind = data.draw(st.sampled_from(["truncate", "overwrite", "insert"]))
    at = data.draw(st.integers(0, len(raw) - 1))
    if kind == "truncate":
        return raw[:at]
    patch = data.draw(st.binary(min_size=1, max_size=8))
    if kind == "overwrite":
        return raw[:at] + patch + raw[at + len(patch) :]
    return raw[:at] + patch + raw[at:]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A FineRMoE-base file at h=16, H=64 and a scratch directory beside it."""
    d = tmp_path_factory.mktemp("fuzz")
    cfg = baseline_preset("FineRMoE-base", h=16, H=64)
    write_model(upcycle(random_dense(16, 64, 19), cfg, 19), d / "base.frm")
    return d


class TestFuzz:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_read_model_returns_valid_model_or_checkpoint_error(self, fuzz_dir, data):
        p = fuzz_dir / "read.frm"
        p.write_bytes(_mutate((fuzz_dir / "base.frm").read_bytes(), data))
        try:
            model = read_model(p)
        except (CheckpointError, ConfigError):
            return
        if isinstance(model, MoEModel):
            model.validate()

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_cli_forward_exit_code_follows_the_file(self, fuzz_dir, data):
        p = fuzz_dir / "cli.frm"
        p.write_bytes(_mutate((fuzz_dir / "base.frm").read_bytes(), data))
        code, err = _forward_exit(p, fuzz_dir)
        try:
            model = read_model(p)
        except (CheckpointError, ConfigError):
            assert code == 2 and err.startswith("error: "), err
            return
        x = read_matrix(fuzz_dir / "x.mat")
        if not np.isfinite(matmul(x, model.router.w).a).all():
            # Finite router weights so large that x @ w overflows: the file is
            # well formed, the forward fails on this input (exit 3).
            assert code == 3 and "softmax input must be finite" in err, err
        elif not forward(x, model).y.allfinite():
            # Expert or shared weights so large that the output overflows.
            assert code == 3 and "forward output holds inf or NaN" in err, err
        else:
            assert code == 0, err

    def test_cli_forward_router_overflow_exits_3(self, fuzz_dir):
        raw = (fuzz_dir / "base.frm").read_bytes()
        p = fuzz_dir / "overflow.frm"
        p.write_bytes(raw[:-64] + np.full(16, 3e38, dtype="<f4").tobytes())
        code, err = _forward_exit(p, fuzz_dir)
        assert code == 3 and err == "error: softmax input must be finite\n"

    def test_cli_forward_refuses_non_finite_output(self, fuzz_dir, tmp_path):
        x = Rng(1).matrix(4, 16)
        x.a[2] = 3e38
        write_matrix(x, tmp_path / "x.mat")
        code, err = _forward_exit(fuzz_dir / "base.frm", tmp_path)
        assert code == 3
        assert err == (
            "error: forward output holds inf or NaN (inputs or weights overflow); wrote no file\n"
        )
        assert not (tmp_path / "y.mat").exists()
