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

One function builds the manifest from a model, so the format is defined
once: ``write_model`` writes that text, and ``read_model`` lays out the
model the manifest's kind and config describe, by ``MoEModel.over`` (or
``DenseFfnWeights.over``) over the payload, and refuses the file unless
its manifest equals the one built from that model, byte for byte. The
entries are those of ``moe_layer.named_parameters`` in its order, each
tensor starting where the one before it ends, so write->read round-trips
are bit-identical. The file ends where the last tensor ends; bytes after
it are an error.

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
from dataclasses import fields
from itertools import zip_longest

import numpy as np

from finermoe import config as config_mod
from finermoe.analysis import cost_report
from finermoe.config import FineRConfig
from finermoe.experts import DenseFfnWeights
from finermoe.moe_layer import MoEModel, named_parameters

MAGIC = b"FRM1"
_HEADER = len(MAGIC) + 8  # magic, u64 manifest length
_ALIGN = 8


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint file."""


def _manifest(model: DenseFfnWeights | MoEModel) -> str:
    """The manifest of ``model``'s FRM1 file: format, kind and config, then
    five lines per ``named_parameters`` tensor, each tensor starting where
    the one before it ends."""
    if isinstance(model, MoEModel):
        lines = ["format = frm1", "kind = moe", *config_mod.format_config(model.cfg).splitlines()]
    elif isinstance(model, DenseFfnWeights):
        lines = ["format = frm1", "kind = dense", f"h = {model.h}", f"H = {model.H}"]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    offset = 0
    for n, (name, p) in enumerate(named_parameters(model)):
        length = p.size * 4
        lines += [
            f"tensor.{n}.name = {name}",
            f"tensor.{n}.shape = {p.shape[0]}x{p.shape[1]}",
            f"tensor.{n}.dtype = f32",
            f"tensor.{n}.offset = {offset}",
            f"tensor.{n}.length = {length}",
        ]
        offset += length
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
    manifest = _manifest(model).encode("utf-8")
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
            for _, p in named_parameters(model):
                fh.write(np.ascontiguousarray(p, dtype="<f4").tobytes())
        try:  # open(path, "wb") keeps the mode of a file it truncates
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _layout(kv: dict):
    """The parameter count of the model the manifest's kind and dims
    describe, and the function that lays it out over the flat payload."""
    kind = kv.get("kind")
    if kind == "dense":
        try:
            h, H = int(kv["h"]), int(kv["H"])
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"bad manifest h/H: {exc}")
        if min(h, H) < 1:
            raise CheckpointError(f"manifest h/H {(h, H)} has a dim below 1")
        return 3 * h * H, lambda flat: DenseFfnWeights.over(h, H, flat)
    if kind == "moe":
        cfg_text = "\n".join(
            f"{name} = {kv[name]}" for name in (f.name for f in fields(FineRConfig)) if name in kv
        )
        cfg = config_mod.parse_config(cfg_text)  # surfaces ConfigError on bad configs
        return cost_report(cfg).total_params, lambda flat: MoEModel.over(cfg, flat)
    raise CheckpointError(f"unknown kind {kind!r}")


def _mismatch(text: str, want: str) -> CheckpointError:
    """The error naming the first line where a manifest differs from the
    writer's."""
    pairs = zip_longest(text.split("\n"), want.split("\n"))
    n, (got, exp) = next((n, p) for n, p in enumerate(pairs) if p[0] != p[1])
    show = lambda line: "nothing" if line is None else repr(line)
    return CheckpointError(f"manifest line {n + 1} is {show(got)}, where write_model writes {show(exp)}")


def read_model(path) -> DenseFfnWeights | MoEModel:
    """Read an FRM1 file; the result validates against its embedded config.

    The file is mapped copy-on-write and the model's tensors are views of
    the mapping, laid out by ``MoEModel.over`` from the manifest's config
    (``DenseFfnWeights.over`` from a dense file's h/H): nothing is copied,
    a page is read when a forward first touches it, and writes to the
    model stay private to this process.
    Each expert stack is a strided view whose per-expert slices are
    C-contiguous. The manifest must equal, byte for byte, the one
    ``write_model`` writes for that model; any other manifest (other
    names, shapes, offsets, order, spacing or keys) is refused, naming the
    first line that differs.

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
            raise CheckpointError("file ends inside the header")
        mlen = int.from_bytes(mlen_bytes, "little")
        if mlen > size - _HEADER:
            raise CheckpointError(
                f"manifest length {mlen} exceeds the {size - _HEADER} bytes after the header"
            )
        manifest = fh.read(mlen)
        if len(manifest) != mlen:
            raise CheckpointError("file ends inside the manifest")
        try:
            text = manifest.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"manifest is not UTF-8: {exc}")
        # Kind and config come from the lines before the first tensor; a
        # repeated key is left to the comparison with the writer's manifest.
        kv = {}
        for line in text.split("\ntensor.", 1)[0].splitlines():
            key, _, val = line.partition("=")
            kv[key.strip()] = val.strip()
        n_params, lay_out = _layout(kv)

        start = _HEADER + mlen + (-(_HEADER + mlen)) % _ALIGN
        left = size - start
        if left < 0:
            raise CheckpointError("file ends inside the manifest padding")
        # Dims the payload cannot hold fail before anything is mapped.
        if 4 * n_params > left:
            raise CheckpointError(f"payload has {left} bytes, {kv['kind']} dims need {4 * n_params}")
        # The header was read, so the file is not empty and can be mapped.
        mapped = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_COPY)
    flat = np.frombuffer(mapped, dtype="<f4", count=n_params, offset=start)
    if sys.byteorder == "big":  # the payload is little-endian
        flat = flat.astype(np.float32)
    model = lay_out(flat)

    # The views sit where write_model puts each tensor, so a manifest equal
    # to the writer's names each tensor's shape and offset. Checked before
    # the payload's end, so a gap is reported by its offset line.
    want = _manifest(model)
    if text != want:
        raise _mismatch(text, want)
    if 4 * n_params < left:
        raise CheckpointError(f"{left - 4 * n_params} bytes after the last tensor")

    # Routing cannot decide on a non-finite score, so a non-finite router
    # weight would fail every forward. The router is a tiny part of the
    # payload; expert weights are not scanned, which would cost a pass over
    # all of it.
    if isinstance(model, MoEModel):
        for r in (model.router, model.router_cc):
            if r is not None and not np.isfinite(r.a).all():
                raise CheckpointError("router weights hold NaN or infinity")
    return model
