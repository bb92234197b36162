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

The layout is canonical: the entries are those of
``moe_layer.named_parameters`` in its order, and each tensor starts where
the one before it ends, so write->read round-trips are bit-identical. The
file ends where the last tensor ends; bytes after it are an error.

``read_model`` maps the file copy-on-write and returns a model whose
tensors are views of the mapping, so a forward reads from disk only the
experts it routes to, and writes to the model never reach the file.
``write_model`` writes a sibling file and renames it onto the target, so a
model mapped from the old file keeps its bytes.
"""

from __future__ import annotations

import mmap
import os
import stat
import sys
from dataclasses import dataclass, fields

import numpy as np

from finermoe import config as config_mod
from finermoe.analysis import cost_report
from finermoe.config import FineRConfig, derive
from finermoe.experts import DenseFfnWeights, ExpertStack
from finermoe.moe_layer import MoEModel, named_parameters
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


def write_model(model: DenseFfnWeights | MoEModel, path) -> None:
    """Serialize a dense FFN or assembled MoE model to an FRM1 file.

    The bytes go to a new file beside ``path``, which is then renamed onto
    it, so a model mapped from the old file (even the one being written)
    keeps reading the old bytes. The new file gets the mode
    ``open(path, "wb")`` would leave, and no partial file is left behind.
    """
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

    path = os.path.realpath(path)  # replace a symlink's target, not the link
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    # 0o666 less the umask is the mode open(path, "wb") gives a new file.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(manifest).to_bytes(8, "little"))
            fh.write(manifest)
            fh.write(b"\x00" * pad)
            for _, mat in tensors:
                fh.write(np.ascontiguousarray(mat.a, dtype="<f4").tobytes())
        try:  # open(path, "wb") keeps the mode of a file it truncates
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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
    return kv, entries


class _Payload:
    """Hands out consecutive views of a flat f32 payload, in file order."""

    def __init__(self, flat: np.ndarray):
        self.flat, self.at = flat, 0

    def _take(self, rows: int, cols: int) -> np.ndarray:
        a = self.flat[self.at : self.at + rows * cols].reshape(rows, cols)
        self.at += rows * cols
        return a

    def matrix(self, rows: int, cols: int) -> Matrix:
        return Matrix.wrap(self._take(rows, cols))

    def ffn(self, h: int, H: int) -> DenseFfnWeights:
        return DenseFfnWeights(self.matrix(h, H), self.matrix(h, H), self.matrix(H, h))

    def stack(self, n: int, h: int, H_e: int, h_e: int) -> ExpertStack:
        """n experts stored expert by expert, each as w1, wg, w2: every
        stack is a strided view, one expert's three tensors apart, and each
        expert's slice of it is C-contiguous."""
        per = self._take(n, 2 * h * H_e + H_e * h_e)
        a, b = h * H_e, 2 * h * H_e
        return ExpertStack(
            per[:, :a].reshape(n, h, H_e), per[:, a:b].reshape(n, h, H_e), per[:, b:].reshape(n, H_e, h_e)
        )


def _model_builder(kv: dict, extent: int):
    """The function that lays out the model the manifest's kind and dims
    describe over a ``_Payload``. Its size is checked against the payload
    extent first, so inflated dims fail before anything is mapped."""
    kind = kv.get("kind")
    if kind == "dense":
        try:
            h, H = int(kv["h"]), int(kv["H"])
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"bad manifest h/H: {exc}")
        if min(h, H) < 1:
            raise ShapeMismatchError(f"manifest h/H {(h, H)} has a dim below 1")
        n_params = 3 * h * H
        build = lambda p: p.ffn(h, H)
    elif kind == "moe":
        cfg_text = "\n".join(
            f"{name} = {kv[name]}" for name in (f.name for f in fields(FineRConfig)) if name in kv
        )
        cfg = config_mod.parse_config(cfg_text)  # surfaces ConfigError on bad configs
        n_params = cost_report(cfg).total_params
        dims = derive(cfg)
        # Keyword arguments evaluate in order, so this is the file order.
        build = lambda p: MoEModel(
            cfg=cfg,
            shared=p.ffn(cfg.h, cfg.H) if cfg.share_expert else None,
            experts=p.stack(dims.N, cfg.h, dims.H_e, dims.h_e),
            router=RouterState(p.matrix(cfg.h, dims.N)),
            router_cc=RouterState(p.matrix(cfg.h, dims.n_groups))
            if cfg.router_mode == "separate" else None,
            concat_proj=p.matrix(cfg.h, cfg.h) if cfg.concat_proj else None,
        )
    else:
        raise CheckpointError(f"unknown kind {kind!r}")
    if 4 * n_params > extent:
        raise ShapeMismatchError(
            f"{kind} dims need {4 * n_params} tensor bytes, the manifest declares {extent}"
        )
    return n_params, build


def read_model(path) -> DenseFfnWeights | MoEModel:
    """Read an FRM1 file; the result validates against its embedded config.

    The file is mapped copy-on-write and the model's tensors are views of
    the mapping, laid out from the shapes its config derives: nothing is
    copied, a page is read when a forward first touches it, and writes to
    the model stay private to this process. Each expert stack is a strided
    view whose per-expert slices are C-contiguous. The manifest must list
    the ``named_parameters`` of that model, by name and shape, in their
    order and at the offsets those views read. A name that is not a
    tensor of the model, or is given twice, a tensor the manifest lacks
    and any other layout are errors.

    The mapping reads the file as it is on disk: a file another process
    truncates in place while a model maps it raises SIGBUS on the next read
    of a page past the new end. ``write_model`` replaces files instead.
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

        n_params, build = _model_builder(kv, extent)
        # The header was read, so the file is not empty and can be mapped.
        mapped = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_COPY)
    flat = np.frombuffer(mapped, dtype="<f4", count=n_params, offset=start)
    if sys.byteorder == "big":  # the payload is little-endian
        flat = flat.astype(np.float32)
    model = build(_Payload(flat))

    params = named_parameters(model)
    slots = dict(params)
    unread = dict(slots)
    for e in entries:
        mat = unread.pop(e.name, None)
        if mat is None:
            why = "appears twice" if e.name in slots else "is not a tensor of this model"
            raise CheckpointError(f"manifest tensor {e.name!r} {why}")
        if mat.shape != e.shape:
            raise ShapeMismatchError(
                f"tensor {e.name}: shape {e.shape}, the config derives {mat.shape}"
            )
    if unread:
        raise CheckpointError(f"{kv['kind']} file missing tensor {next(iter(unread))}")
    # Each tensor is listed once with its shape; it must also sit where
    # write_model puts it, which is where its view reads.
    base = flat.ctypes.data
    for n, (e, (name, mat)) in enumerate(zip(entries, params)):
        at = mat.a.ctypes.data - base
        if (e.name, e.offset) != (name, at):
            raise CheckpointError(
                f"non-canonical tensor layout: tensor {n} is {e.name} at offset {e.offset}, "
                f"the writer puts {name} at {at}"
            )

    # Routing cannot decide on a non-finite score, so a non-finite router
    # weight would fail every forward. The router is a tiny part of the
    # payload; expert weights are not scanned, which would cost a pass over
    # all of it.
    if isinstance(model, MoEModel):
        for r in (model.router, model.router_cc):
            if r is not None and not np.isfinite(r.w.a).all():
                raise CheckpointError("router weights hold NaN or infinity")
    return model
