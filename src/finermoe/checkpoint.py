"""FRM1 single-file checkpoint container.

Layout, bit-exact:

    bytes 0..3    magic "FRM1"
    bytes 4..11   u64 little-endian manifest byte length
    manifest      UTF-8 `key = value` lines, each key at most once
    padding       zero bytes to the next 8-byte file offset
    payload       raw little-endian IEEE-754 f32, row-major, one tensor
                  after another at the offsets the manifest declares

The manifest carries `kind` (dense | moe), the layer configuration for moe
files (h/H only for dense), and one entry per tensor:

    tensor.<n>.name / .shape ("RxC") / .dtype ("f32") / .offset / .length

Tensor names and their order are those of ``moe_layer.named_parameters``.
Offsets ascend and entries never overlap, so write->read round-trips are
bit-identical. The file ends where the last tensor ends;
bytes after it are an error.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from finermoe import config as config_mod
from finermoe.analysis import cost_report
from finermoe.config import FineRConfig
from finermoe.experts import DenseFfnWeights
from finermoe.moe_layer import MoEModel, named_parameters
from finermoe.numerics import Matrix

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

    tensors = named_parameters(model)
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
        key = key.strip()
        if key in kv:
            raise CheckpointError(f"manifest key {key!r} appears twice")
        kv[key] = val.strip()

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


def _read_into(fh, arr: np.ndarray) -> None:
    """Fill a C-contiguous array from fh, tolerating short reads."""
    view = memoryview(arr).cast("B")
    got = 0
    while got < len(view):
        k = fh.readinto(view[got:])
        if not k:
            raise TruncatedPayloadError(f"file ends after {got} of {len(view)} tensor bytes")
        got += k


def _zero_model(kv: dict, extent: int) -> DenseFfnWeights | MoEModel:
    """The all-zero model the manifest's kind and dims describe. Its size is
    checked against the payload extent first, so inflated dims fail before
    anything is allocated."""
    kind = kv.get("kind")
    if kind == "dense":
        try:
            h, H = int(kv["h"]), int(kv["H"])
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"bad manifest h/H: {exc}")
        if min(h, H) < 1:
            raise ShapeMismatchError(f"manifest h/H {(h, H)} has a dim below 1")
        n_params = 3 * h * H
        make = lambda: DenseFfnWeights(Matrix.zeros(h, H), Matrix.zeros(h, H), Matrix.zeros(H, h))
    elif kind == "moe":
        cfg_text = "\n".join(
            f"{name} = {kv[name]}" for name in (f.name for f in fields(FineRConfig)) if name in kv
        )
        cfg = config_mod.parse_config(cfg_text)  # surfaces ConfigError on bad configs
        n_params = cost_report(cfg).total_params
        make = lambda: MoEModel.zeros(cfg)
    else:
        raise CheckpointError(f"unknown kind {kind!r}")
    if 4 * n_params > extent:
        raise ShapeMismatchError(
            f"{kind} dims need {4 * n_params} tensor bytes, the manifest declares {extent}"
        )
    return make()


def read_model(path) -> DenseFfnWeights | MoEModel:
    """Read an FRM1 file; the result validates against its embedded config.

    The model's tensors are allocated from the shapes its config derives,
    and each manifest tensor is read straight into its named_parameters slot,
    so loading holds one copy of the weights. A manifest name that is not a
    slot, or is given twice, and a slot the manifest lacks are errors.
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

        model = _zero_model(kv, extent)
        slots = dict(named_parameters(model))
        unread = dict(slots)
        for e in entries:  # offsets ascend
            mat = unread.pop(e.name, None)
            if mat is None:
                why = "appears twice" if e.name in slots else "is not a tensor of this model"
                raise CheckpointError(f"manifest tensor {e.name!r} {why}")
            if mat.shape != e.shape:
                raise ShapeMismatchError(
                    f"tensor {e.name}: shape {e.shape}, the config derives {mat.shape}"
                )
            fh.seek(start + e.offset)
            _read_into(fh, mat.a)
        if unread:
            raise CheckpointError(f"{kv['kind']} file missing tensor {next(iter(unread))}")

    if sys.byteorder == "big":  # the payload is little-endian
        for mat in slots.values():
            mat.a.byteswap(inplace=True)
    # Routing cannot decide on a non-finite score, so a non-finite router
    # weight would fail every forward. The router is a tiny part of the
    # payload; expert weights are not scanned, which would cost a pass over
    # all of it.
    if isinstance(model, MoEModel):
        for r in (model.router, model.router_cc):
            if r is not None and not np.isfinite(r.w.a).all():
                raise CheckpointError("router weights hold NaN or infinity")
    return model
