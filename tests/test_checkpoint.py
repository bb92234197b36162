import contextlib
import hashlib
import io
import mmap
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import finermoe
from finermoe.checkpoint import (
    MAGIC,
    CheckpointError,
    read_model,
    write_model,
)
from finermoe.cli import read_matrix, run, write_matrix
from finermoe.config import ConfigError, FineRConfig, baseline_preset, preset_names, with_updates
from finermoe.moe_layer import MoEModel, forward, named_parameters
from finermoe.numerics import Matrix, Rng, matmul
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


def _shift_after_first_tensor(raw: bytes) -> bytes:
    """Move every tensor after the first one 4 bytes on, leaving a zero gap
    before the second: each offset still points at its tensor's bytes, but
    the layout is not the one write_model writes."""
    manifest, payload = _split(raw)
    first = int(re.search(r"tensor\.0\.length = (\d+)", manifest).group(1))

    def shift(m):
        n, off = int(m.group(1)), int(m.group(2))
        return f"tensor.{n}.offset = {off + 4 if n else off}"

    manifest = re.sub(r"tensor\.(\d+)\.offset = (\d+)", shift, manifest)
    return _join(manifest.encode("utf-8"), payload[:first] + b"\x00" * 4 + payload[first:])


def _swap_offsets(raw: bytes, i: int, j: int) -> bytes:
    """Swap the declared offsets of tensors i and j, which share a shape."""
    manifest, payload = _split(raw)
    off = {n: re.search(rf"tensor\.{n}\.offset = (\d+)", manifest).group(1) for n in (i, j)}
    for n, m in ((i, j), (j, i)):
        manifest = manifest.replace(f"tensor.{n}.offset = {off[n]}\n", f"tensor.{n}.offset = {off[m]}\n")
    return _join(manifest.encode("utf-8"), payload)


# Damage to a small MoE file -> (spoil, error read_model raises, text its
# message holds). A manifest is refused at the first line where it differs
# from the one write_model writes.
_DAMAGE = {
    "manifest_length_2_62": (
        lambda raw: raw[:4] + (2**62).to_bytes(8, "little") + raw[12:],
        CheckpointError,
        "manifest length",
    ),
    "non_utf8_manifest": (
        lambda raw: raw.replace(b"kind = moe", b"kind = m\xffe", 1), CheckpointError, "UTF-8"
    ),
    "zero_dim_shape": (
        _zero_dim_expert,
        CheckpointError,
        "manifest line 29 is 'tensor.3.shape = 0x0', where write_model writes 'tensor.3.shape = 16x8'",
    ),
    "trailing_bytes": (
        lambda raw: raw + b"\x00" * 4, CheckpointError, "4 bytes after the last tensor"
    ),
    # router.w is the last tensor.
    "nan_router_weight": (
        lambda raw: raw[:-4] + np.array([np.nan], dtype="<f4").tobytes(),
        CheckpointError,
        "router weights",
    ),
    "truncated_payload": (
        lambda raw: raw[:-1], CheckpointError, "payload has 27647 bytes, moe dims need 27648"
    ),
    "unknown_tensor_name": (
        lambda raw: raw.replace(b"name = router.w", b"name = router.q", 1),
        CheckpointError,
        "manifest line 268 is 'tensor.51.name = router.q', "
        "where write_model writes 'tensor.51.name = router.w'",
    ),
    "duplicate_tensor_name": (
        lambda raw: raw.replace(b"name = expert.1.w1", b"name = expert.0.w1", 1),
        CheckpointError,
        "manifest line 43 is 'tensor.6.name = expert.0.w1', "
        "where write_model writes 'tensor.6.name = expert.1.w1'",
    ),
    "missing_tensor": (
        lambda raw: _drop_tensor(raw, 3),
        CheckpointError,
        "manifest line 28 is 'tensor.3.name = expert.0.wg', "
        "where write_model writes 'tensor.3.name = expert.0.w1'",
    ),
    # Only the writer's layout loads: registry order, no gaps. A gap is
    # named by its offset line, not by the bytes it adds at the end.
    "layout_gap": (
        _shift_after_first_tensor,
        CheckpointError,
        "manifest line 21 is 'tensor.1.offset = 2052', "
        "where write_model writes 'tensor.1.offset = 2048'",
    ),
    # expert.0.w1 and expert.1.w1 are both 16x8.
    "swapped_expert_offsets": (
        lambda raw: _swap_offsets(raw, 3, 6),
        CheckpointError,
        "manifest line 31 is 'tensor.3.offset = 7424', "
        "where write_model writes 'tensor.3.offset = 6144'",
    ),
    # A repeated manifest key is an error, not a silent last-one-wins.
    "duplicate_config_key": (
        lambda raw: _edit_manifest(raw, "\nT_I = 1\n", "\nT_I = 2\nT_I = 1\n"),
        CheckpointError,
        "manifest line 9 is 'T_I = 2', where write_model writes 'T_I = 1'",
    ),
    "duplicate_tensor_field": (
        lambda raw: _edit_manifest(
            raw, "\ntensor.0.offset = 0\n", "\ntensor.0.offset = 4\ntensor.0.offset = 0\n"
        ),
        CheckpointError,
        "manifest line 16 is 'tensor.0.offset = 4', where write_model writes 'tensor.0.offset = 0'",
    ),
    # Dims the payload cannot hold fail before the file is mapped.
    "inflated_dims": (
        lambda raw: _edit_manifest(raw, "\nh = 16\n", "\nh = 16000000000000\n"),
        CheckpointError,
        "payload has 27648 bytes, moe dims need 27648000000000000",
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


# Every preset with each router mode, concat projection and shared-expert
# setting, at h=16, H=64, and a dense FFN.
_VARIANTS = ["dense"] + [
    (name, router_mode, concat_proj, share_expert)
    for name in preset_names()
    for router_mode in ("single", "separate")
    for concat_proj in (False, True)
    for share_expert in (False, True)
]


def _variant_id(variant) -> str:
    return "-".join(map(str, variant)) if isinstance(variant, tuple) else variant


def _variant_cfg(variant) -> FineRConfig:
    name, router_mode, concat_proj, share_expert = variant
    return with_updates(
        baseline_preset(name, h=16, H=64),
        router_mode=router_mode, concat_proj=concat_proj, share_expert=share_expert,
    )


def _variant_model(variant):
    if variant == "dense":
        return random_dense(16, 64, 25)
    return upcycle(random_dense(16, 64, 25), _variant_cfg(variant), 25)


class TestCanonicalManifest:
    """read_model accepts exactly the manifest write_model writes, so a view
    at the wrong place in the payload shows only in the tensors' bytes."""

    @pytest.mark.parametrize("variant", _VARIANTS, ids=_variant_id)
    def test_every_tensor_reads_back_by_name(self, tmp_path, variant):
        model = _variant_model(variant)
        p1, p2 = tmp_path / "a.frm", tmp_path / "b.frm"
        write_model(model, p1)
        back = read_model(p1)
        written = [(name, p.tobytes()) for name, p in named_parameters(model)]
        assert [(name, p.tobytes()) for name, p in named_parameters(back)] == written
        write_model(back, p2)
        assert p2.read_bytes() == p1.read_bytes()

    @pytest.mark.parametrize("variant", _VARIANTS[1:], ids=_variant_id)
    def test_zeros_is_the_layout_read_model_maps(self, tmp_path, variant):
        # MoEModel.zeros and read_model lay tensors out by one function, so
        # even the expert stacks' strides agree.
        zeros = MoEModel.zeros(_variant_cfg(variant))
        p1, p2 = tmp_path / "a.frm", tmp_path / "b.frm"
        write_model(zeros, p1)
        back = read_model(p1)

        def layout(model):
            stacks = [a.strides for a in (model.experts.w1, model.experts.wg, model.experts.w2)]
            return stacks, [(name, p.shape, p.strides) for name, p in named_parameters(model)]

        assert layout(back) == layout(zeros)
        write_model(back, p2)
        assert p2.read_bytes() == p1.read_bytes()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("\nh = 16\n", "\nh=16\n", "manifest line 3 is 'h=16', where write_model writes 'h = 16'"),
            (
                "\nh = 16\nH = 64\n",
                "\nH = 64\nh = 16\n",
                "manifest line 3 is 'H = 64', where write_model writes 'h = 16'",
            ),
            (
                "\nkind = moe\n",
                "\nkind = moe\nnote = upcycled\n",
                "manifest line 3 is 'note = upcycled', where write_model writes 'h = 16'",
            ),
        ],
        ids=["spacing", "config-order", "extra-key"],
    )
    def test_any_other_manifest_exits_2(self, tmp_path, old, new, message):
        p = tmp_path / "m.frm"
        write_model(_variant_model(("FineRMoE-base", "single", False, True)), p)
        p.write_bytes(_edit_manifest(p.read_bytes(), old, new))
        with pytest.raises(CheckpointError, match=re.escape(message)):
            read_model(p)
        assert _forward_exit(p, tmp_path) == (2, f"error: {message}\n")


def _full_model() -> MoEModel:
    """FineRMoE-base at h=16, H=64 with every optional tensor: a shared
    expert, a second router (128 experts in 4 groups) and a projection."""
    cfg = with_updates(
        baseline_preset("FineRMoE-base", h=16, H=64), router_mode="separate", concat_proj=True
    )
    return upcycle(random_dense(16, 64, 26), cfg, 26)


# Model fault -> the model with it: each holds tensors its config does not
# lay out (missing, extra or of another shape).
_FAULTS = {
    "shared-missing": lambda m: replace(m, shared=None),
    "shared-extra": lambda m: replace(m, cfg=with_updates(m.cfg, share_expert=False)),
    "shared-dims": lambda m: replace(m, shared=random_dense(16, 32, 1)),
    # 128 experts of H_e = 4, where the config lays out H_e = 2.
    "experts-shape": lambda m: replace(m, experts=MoEModel.zeros(with_updates(m.cfg, G_I=16, R_I=2)).experts),
    "router-shape": lambda m: replace(m, router=Matrix.wrap(np.zeros((16, 64), np.float32))),
    "router_cc-missing": lambda m: replace(m, router_cc=None),
    "router_cc-in-single-mode": lambda m: replace(m, cfg=with_updates(m.cfg, router_mode="single")),
    "router_cc-shape": lambda m: replace(m, router_cc=Matrix.wrap(np.zeros((16, 5), np.float32))),
    "concat_proj-missing": lambda m: replace(m, concat_proj=None),
    "concat_proj-extra": lambda m: replace(m, cfg=with_updates(m.cfg, concat_proj=False)),
    "concat_proj-shape": lambda m: replace(m, concat_proj=Matrix.wrap(np.zeros((16, 8), np.float32))),
}


class TestValidate:
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_write_model_refuses_tensors_the_config_does_not_lay_out(self, tmp_path, fault):
        model = _full_model()
        model.validate()
        p = tmp_path / "m.frm"
        with pytest.raises(ValueError):
            write_model(_FAULTS[fault](model), p)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("router-shape", "tensor 387 is router.w 16x64, where the config lays out router.w 16x128"),
            ("concat_proj-missing", "tensor 389 is nothing, where the config lays out concat_proj.w 16x16"),
            ("concat_proj-extra", "tensor 389 is concat_proj.w 16x16, where the config lays out nothing"),
        ],
    )
    def test_the_refusal_names_the_first_tensor_that_differs(self, fault, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _FAULTS[fault](_full_model()).validate()


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
        with pytest.raises(CheckpointError, match="payload"):
            read_model(p)

    def test_unknown_dtype(self, tmp_path):
        p = tmp_path / "m.frm"
        write_model(random_dense(8, 16, 10), p)
        # Same-length in-place edit keeps every offset valid.
        raw = p.read_bytes().replace(b"dtype = f32", b"dtype = f16", 1)
        p.write_bytes(raw)
        with pytest.raises(
            CheckpointError,
            match=re.escape(
                "manifest line 7 is 'tensor.0.dtype = f16', where write_model writes 'tensor.0.dtype = f32'"
            ),
        ):
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
        with pytest.raises(
            CheckpointError, match=re.escape("payload has 1536 bytes, dense dims need 1728")
        ):
            read_model(p)

    @pytest.mark.parametrize("damage", sorted(_DAMAGE))
    def test_damaged_file_exits_2_without_traceback(self, tmp_path, damage):
        spoil, exc, match = _DAMAGE[damage]
        cfg = FineRConfig(h=16, H=32, G_I=4, R_I=1, G_O=2, R_O=2, T_I=1)
        p = tmp_path / "m.frm"
        write_model(upcycle(random_dense(16, 32, 17), cfg, 17), p)
        p.write_bytes(spoil(p.read_bytes()))
        with pytest.raises(exc, match=re.escape(match)):
            read_model(p)
        code, err = _forward_exit(p, tmp_path)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "size, message",
        [(0, "bad magic b''"), (3, "bad magic b'FRM'"), (11, "file ends inside the header")],
    )
    def test_empty_or_short_file_exits_2(self, tmp_path, size, message):
        p = tmp_path / "m.frm"
        write_model(random_dense(8, 16, 20), p)
        p.write_bytes(p.read_bytes()[:size])
        with pytest.raises(CheckpointError, match=re.escape(message)):
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


def _mapping(arr: np.ndarray):
    """The buffer at the root of an array's base chain."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


class TestOneBuffer:
    def test_expert_views_share_the_stacks(self, tmp_path):
        p = tmp_path / "m.frm"
        write_model(_base_toy_model(seed=6), p)
        stack = read_model(p).experts
        mapped = _mapping(stack.w1)
        assert isinstance(mapped, mmap.mmap)
        whole_file = np.frombuffer(mapped, dtype=np.uint8)
        for k in (0, 7, len(stack.w1) - 1):
            for whole in (stack.w1, stack.wg, stack.w2):
                view = Matrix.wrap(whole[k])
                assert np.shares_memory(view.a, whole[k])
                assert view.a.tobytes() == whole[k].tobytes()
                assert view.a.flags.c_contiguous and view.a.flags.writeable
                assert _mapping(view.a) is mapped and np.shares_memory(view.a, whole_file)
        # The stacks are strided: experts sit one expert's w1+wg+w2 apart.
        per_expert = sum(a[0].nbytes for a in (stack.w1, stack.wg, stack.w2))
        for whole in (stack.w1, stack.wg, stack.w2):
            assert whole.strides[0] == per_expert and whole.flags.writeable

    def test_editing_a_loaded_model_leaves_the_file(self, tmp_path):
        p = tmp_path / "m.frm"
        write_model(_base_toy_model(seed=8), p)
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        model = read_model(p)
        model.experts.w1[3] += 1.0
        model.shared.w2.a[:] = 0.0
        model.router.a[0, 0] = 7.0
        assert model.router.a[0, 0] == 7.0 and not model.shared.w2.a.any()
        assert hashlib.sha256(p.read_bytes()).hexdigest() == digest
        assert read_model(p).router.a[0, 0] != 7.0

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
        # The tensors are views of the mapped file; a copy would peak near P.
        assert peak < 0.05 * payload_bytes + 256 * 1024


class TestAtomicWrite:
    def test_rewriting_the_mapped_file_keeps_its_bytes(self, tmp_path):
        p = tmp_path / "m.frm"
        write_model(_base_toy_model(seed=9), p)
        before = p.read_bytes()
        # Truncating a file a model maps makes its next read SIGBUS; a child
        # process keeps that from killing the test run.
        src = str(Path(finermoe.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(q for q in (src, env.get("PYTHONPATH")) if q)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from finermoe import read_model, write_model; "
             "write_model(read_model(sys.argv[1]), sys.argv[1])", str(p)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert p.read_bytes() == before
        assert list(tmp_path.iterdir()) == [p]

    def test_mode_is_the_one_open_wb_leaves(self, tmp_path):
        p, ref = tmp_path / "m.frm", tmp_path / "ref"
        write_model(random_dense(8, 16, 21), p)
        open(ref, "wb").close()
        assert stat.S_IMODE(p.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode)
        # Like open(path, "wb"), rewriting keeps an existing file's mode.
        os.chmod(p, 0o640)
        write_model(random_dense(8, 16, 21), p)
        assert stat.S_IMODE(p.stat().st_mode) == 0o640

    def test_writing_through_a_symlink_keeps_the_link(self, tmp_path):
        target, link = tmp_path / "m.frm", tmp_path / "link.frm"
        write_model(random_dense(8, 16, 23), target)
        link.symlink_to(target)
        write_model(random_dense(8, 16, 24), link)
        assert link.is_symlink()
        assert read_model(target).w1.a.tobytes() == random_dense(8, 16, 24).w1.a.tobytes()

    def test_failed_write_leaves_no_file(self, tmp_path):
        (tmp_path / "d.frm").mkdir()
        with pytest.raises(OSError):
            write_model(random_dense(8, 16, 22), tmp_path / "d.frm")
        assert [q.name for q in tmp_path.iterdir()] == ["d.frm"]


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
        if not np.isfinite(matmul(x, model.router).a).all():
            # Finite router weights so large that x @ w overflows: the file is
            # well formed, the forward fails on this input (exit 3).
            assert code == 3 and "softmax input must be finite" in err, err
        elif not np.isfinite(forward(x, model).y.a).all():
            # Expert or shared weights so large that the output overflows.
            assert code == 3 and "forward output holds inf or NaN" in err, err
        else:
            assert code == 0, err

    # Under "error" a NumPy RuntimeWarning raised inside the command would
    # escape as an exception: stderr must hold the one error line only.
    @pytest.mark.filterwarnings("error")
    def test_cli_forward_router_overflow_exits_3(self, fuzz_dir):
        raw = (fuzz_dir / "base.frm").read_bytes()
        p = fuzz_dir / "overflow.frm"
        p.write_bytes(raw[:-64] + np.full(16, 3e38, dtype="<f4").tobytes())
        code, err = _forward_exit(p, fuzz_dir)
        assert code == 3 and err == "error: softmax input must be finite\n"

    @pytest.mark.filterwarnings("error")
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
