"""FRM1 single-file checkpoint container.

Layout, bit-exact:

    bytes 0..3    magic "FRM1"
    bytes 4..11   u64 little-endian manifest byte length
    manifest      UTF-8 `key = value` lines
    padding       zero bytes to the next 8-byte file offset
    payload       raw little-endian IEEE-754 f32, row-major, one tensor
                  after another at the offsets the manifest declares

The manifest carries `kind` (dense | moe), the layer configuration for moe
files (h/H only for dense), and one entry per tensor:

    tensor.<n>.name / .shape ("RxC") / .dtype ("f32") / .offset / .length

Tensor names: ffn.w1|wg|w2 (dense file), shared.w1|wg|w2,
expert.<k>.w1|wg|w2, router.w, router_cc.w (separate-router models only),
concat_proj.w. Offsets ascend and entries never overlap, so write->read
round-trips are bit-identical. The file ends where the last tensor ends;
bytes after it are an error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import numpy as np

from finermoe import config as config_mod
from finermoe.config import FineRConfig
from finermoe.experts import DenseFfnWeights, ExpertWeights
from finermoe.moe_layer import MoEModel
from finermoe.numerics import Matrix
from finermoe.router import RouterState

MAGIC = b"FRM1"
_HEADER = len(MAGIC) + 8  # magic, u64 manifest length
_ALIGN = 8


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint file."""


class TruncatedPayloadError(CheckpointError):
    pass


class UnknownDtypeError(CheckpointError):
    pass


class ShapeMismatchError(CheckpointError):
    pass


@dataclass(frozen=True)
class TensorManifestEntry:
    name: str
    shape: tuple[int, int]
    dtype: str
    offset: int
    length: int


def _manifest_lines(kind: str, cfg_lines: list[str], entries: list[TensorManifestEntry]) -> str:
    lines = ["format = frm1", f"kind = {kind}"]
    lines += cfg_lines
    for n, e in enumerate(entries):
        lines.append(f"tensor.{n}.name = {e.name}")
        lines.append(f"tensor.{n}.shape = {e.shape[0]}x{e.shape[1]}")
        lines.append(f"tensor.{n}.dtype = {e.dtype}")
        lines.append(f"tensor.{n}.offset = {e.offset}")
        lines.append(f"tensor.{n}.length = {e.length}")
    return "\n".join(lines) + "\n"


def _model_tensors(model) -> list[tuple[str, Matrix]]:
    if isinstance(model, DenseFfnWeights):
        return [("ffn.w1", model.w1), ("ffn.wg", model.wg), ("ffn.w2", model.w2)]
    tensors: list[tuple[str, Matrix]] = []
    if model.shared is not None:
        tensors += [
            ("shared.w1", model.shared.w1),
            ("shared.wg", model.shared.wg),
            ("shared.w2", model.shared.w2),
        ]
    for k, e in enumerate(model.experts):
        tensors += [
            (f"expert.{k}.w1", e.w1),
            (f"expert.{k}.wg", e.wg),
            (f"expert.{k}.w2", e.w2),
        ]
    tensors.append(("router.w", model.router.w))
    if model.router_cc is not None:
        tensors.append(("router_cc.w", model.router_cc.w))
    if model.concat_proj is not None:
        tensors.append(("concat_proj.w", model.concat_proj))
    return tensors


def write_model(model: DenseFfnWeights | MoEModel, path) -> None:
    """Serialize a dense FFN or assembled MoE model to an FRM1 file."""
    if isinstance(model, MoEModel):
        model.validate()
        kind = "moe"
        cfg_lines = config_mod.format_config(model.cfg).splitlines()
    elif isinstance(model, DenseFfnWeights):
        kind = "dense"
        cfg_lines = [f"h = {model.h}", f"H = {model.H}"]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")

    tensors = _model_tensors(model)
    entries = []
    offset = 0
    for name, mat in tensors:
        length = mat.rows * mat.cols * 4
        entries.append(TensorManifestEntry(name, (mat.rows, mat.cols), "f32", offset, length))
        offset += length

    manifest = _manifest_lines(kind, cfg_lines, entries).encode("utf-8")
    header_len = _HEADER + len(manifest)
    pad = (-header_len) % _ALIGN

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(manifest).to_bytes(8, "little"))
        fh.write(manifest)
        fh.write(b"\x00" * pad)
        for _, mat in tensors:
            fh.write(np.ascontiguousarray(mat.a, dtype="<f4").tobytes())


def _parse_manifest(text: str) -> tuple[dict, list[TensorManifestEntry]]:
    kv: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if "=" not in line:
            raise CheckpointError(f"bad manifest line: {raw!r}")
        key, _, val = line.partition("=")
        kv[key.strip()] = val.strip()

    entries = []
    n = 0
    while f"tensor.{n}.name" in kv:
        try:
            r, _, c = kv[f"tensor.{n}.shape"].partition("x")
            shape = (int(r), int(c))
            dtype = kv[f"tensor.{n}.dtype"]
            offset = int(kv[f"tensor.{n}.offset"])
            length = int(kv[f"tensor.{n}.length"])
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"incomplete manifest entry for tensor {n}: {exc}")
        if min(shape) < 1:
            raise ShapeMismatchError(
                f"tensor {kv[f'tensor.{n}.name']}: shape {shape} has a dim below 1"
            )
        if dtype != "f32":
            raise UnknownDtypeError(f"tensor {kv[f'tensor.{n}.name']}: unknown dtype {dtype!r}")
        if length != shape[0] * shape[1] * 4:
            raise ShapeMismatchError(
                f"tensor {kv[f'tensor.{n}.name']}: length {length} does not match shape {shape}"
            )
        entries.append(TensorManifestEntry(kv[f"tensor.{n}.name"], shape, dtype, offset, length))
        n += 1

    prev_end = 0
    for e in entries:
        if e.offset < prev_end:
            raise CheckpointError(f"tensor {e.name}: overlapping or non-ascending offset")
        prev_end = e.offset + e.length
    return kv, entries


def _read_payload(fh, n: int) -> np.ndarray:
    """Read n bytes into one fresh buffer, tolerating short reads."""
    payload = np.empty(n, np.uint8)
    view = memoryview(payload)
    got = 0
    while got < n:
        k = fh.readinto(view[got:])
        if not k:
            raise TruncatedPayloadError(f"file ends after {got} of {n} payload bytes")
        got += k
    return payload


def read_model(path) -> DenseFfnWeights | MoEModel:
    """Read an FRM1 file; the result validates against its embedded config.

    The payload is read once into one buffer and every tensor is a view of
    it, so the loaded model holds one copy of the weights, and they stay in
    memory while any of its tensors is referenced.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
        mlen_bytes = fh.read(8)
        if len(mlen_bytes) != 8:
            raise TruncatedPayloadError("file ends inside the header")
        mlen = int.from_bytes(mlen_bytes, "little")
        if mlen > size - _HEADER:
            raise TruncatedPayloadError(
                f"manifest length {mlen} exceeds the {size - _HEADER} bytes after the header"
            )
        manifest = fh.read(mlen)
        if len(manifest) != mlen:
            raise TruncatedPayloadError("file ends inside the manifest")
        try:
            text = manifest.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"manifest is not UTF-8: {exc}")
        kv, entries = _parse_manifest(text)
        if kv.get("format") != "frm1":
            raise CheckpointError("manifest missing 'format = frm1'")

        start = _HEADER + mlen + (-(_HEADER + mlen)) % _ALIGN
        extent = max((e.offset + e.length for e in entries), default=0)
        left = size - start
        if left < 0:
            raise TruncatedPayloadError("file ends inside the manifest padding")
        if extent > left:
            raise TruncatedPayloadError(f"payload has {left} bytes, tensors need {extent}")
        if extent < left:
            raise CheckpointError(f"{left - extent} bytes after the last tensor")
        fh.seek(start)
        payload = _read_payload(fh, extent)

    # "<f4" is the native float32 on little-endian hosts, so astype returns
    # the view itself; big-endian hosts get a converted copy.
    mats = {
        e.name: Matrix.wrap(
            payload[e.offset : e.offset + e.length]
            .view("<f4")
            .reshape(e.shape)
            .astype(np.float32, copy=False)
        )
        for e in entries
    }

    kind = kv.get("kind")
    if kind == "dense":
        for name in ("ffn.w1", "ffn.wg", "ffn.w2"):
            if name not in mats:
                raise CheckpointError(f"dense file missing tensor {name}")
        try:
            dense = DenseFfnWeights(mats["ffn.w1"], mats["ffn.wg"], mats["ffn.w2"])
        except ValueError as exc:
            raise ShapeMismatchError(str(exc))
        try:
            manifest_dims = (int(kv.get("h", dense.h)), int(kv.get("H", dense.H)))
        except ValueError as exc:
            raise CheckpointError(f"bad manifest h/H: {exc}")
        if (dense.h, dense.H) != manifest_dims:
            raise ShapeMismatchError(
                f"tensor dims {(dense.h, dense.H)} do not match manifest h/H"
            )
        return dense
    if kind != "moe":
        raise CheckpointError(f"unknown kind {kind!r}")

    cfg_text = "\n".join(
        f"{name} = {kv[name]}" for name in (f.name for f in fields(FineRConfig)) if name in kv
    )
    cfg = config_mod.parse_config(cfg_text)  # surfaces ConfigError on bad configs

    dims = config_mod.derive(cfg)
    try:
        shared = None
        if cfg.share_expert:
            shared = DenseFfnWeights(mats["shared.w1"], mats["shared.wg"], mats["shared.w2"])
        experts = [
            ExpertWeights(mats[f"expert.{k}.w1"], mats[f"expert.{k}.wg"], mats[f"expert.{k}.w2"])
            for k in range(dims.N)
        ]
        router = RouterState(mats["router.w"])
        router_cc = RouterState(mats["router_cc.w"]) if cfg.router_mode == "separate" else None
        concat_proj = mats["concat_proj.w"] if cfg.concat_proj else None
    except KeyError as exc:
        raise CheckpointError(f"moe file missing tensor {exc.args[0]}")
    except ValueError as exc:
        raise ShapeMismatchError(str(exc))

    model = MoEModel(
        cfg=cfg, shared=shared, experts=experts, router=router,
        router_cc=router_cc, concat_proj=concat_proj,
    )
    try:
        model.validate()
    except ValueError as exc:
        raise ShapeMismatchError(str(exc))
    # Routing cannot decide on a non-finite score, so a non-finite router
    # weight would fail every forward. The router is a tiny part of the
    # payload; expert weights are not scanned, which would cost a pass over
    # all of it.
    for r in (router, router_cc):
        if r is not None and not np.isfinite(r.w.a).all():
            raise CheckpointError("router weights hold NaN or infinity")
    return model
