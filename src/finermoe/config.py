"""Layer hyper-parameters, derived dimensions, validation, and presets.

Four knobs shape the sparse experts: intermediate granularity/expansion
(G_I, R_I) and output granularity/expansion (G_O, R_O). T_I experts are
activated per group. Everything else (expert dims, expert count, group
layout) derives from those plus the reference dims (h, H).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace

import numpy as np


class ConfigError(ValueError):
    """A configuration invariant is violated; message names the invariant."""


@dataclass(frozen=True)
class FineRConfig:
    h: int  # hidden (model) dimension
    H: int  # shared-expert intermediate dimension
    G_I: int = 1  # intermediate granularity: H / H_e
    R_I: int = 1  # intermediate expansion rate within a group
    G_O: int = 1  # output granularity: h / h_e
    R_O: int = 1  # output expansion rate (candidates per component)
    T_I: int = 1  # activated experts per group
    router_mode: str = "single"  # "single" | "separate"
    share_expert: bool = True
    concat_proj: bool = False


@dataclass(frozen=True)
class DerivedDims:
    H_e: int  # expert intermediate dimension, H / G_I
    h_e: int  # expert output dimension, h / G_O
    N: int  # total sparse experts, G_O * R_O * G_I * R_I
    n_groups: int  # G_O * R_O
    group_size: int  # G_I * R_I
    n_active: int  # experts activated per token, G_O * T_I


def validate(cfg: FineRConfig) -> None:
    """Raise ConfigError naming the first violated invariant."""
    if cfg.h < 1 or cfg.H < 1:
        raise ConfigError(f"h and H must be >= 1, got h={cfg.h}, H={cfg.H}")
    for name in ("G_I", "R_I", "G_O", "R_O", "T_I"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    if cfg.H % cfg.G_I != 0:
        raise ConfigError(f"G_I must divide H: H={cfg.H}, G_I={cfg.G_I}")
    if cfg.h % cfg.G_O != 0:
        raise ConfigError(f"G_O must divide h: h={cfg.h}, G_O={cfg.G_O}")
    if cfg.T_I > cfg.G_I * cfg.R_I:
        raise ConfigError(
            f"T_I exceeds group size: T_I={cfg.T_I}, G_I*R_I={cfg.G_I * cfg.R_I}"
        )
    if cfg.router_mode not in ("single", "separate"):
        raise ConfigError(f"router_mode must be 'single' or 'separate', got {cfg.router_mode!r}")


def derive(cfg: FineRConfig) -> DerivedDims:
    """Compute dependent dimensions; cfg must already validate."""
    validate(cfg)
    return DerivedDims(
        H_e=cfg.H // cfg.G_I,
        h_e=cfg.h // cfg.G_O,
        N=cfg.G_O * cfg.R_O * cfg.G_I * cfg.R_I,
        n_groups=cfg.G_O * cfg.R_O,
        group_size=cfg.G_I * cfg.R_I,
        n_active=cfg.G_O * cfg.T_I,
    )


def expert_component(cfg: FineRConfig, k: int | np.ndarray) -> int | np.ndarray:
    """Output component the expert's group feeds, for one expert index or
    elementwise for an array of them."""
    return k // (cfg.G_I * cfg.R_I * cfg.R_O)


# Reference dense dims (Qwen2.5-1.5B FFN) used when a preset is requested
# without explicit h/H.
REF_H = 1536
REF_INTERMEDIATE = 8960

# name -> (G_I, R_I, G_O, R_O, T_I, share_expert)
_PRESETS = {
    # replicate the dense FFN 32x, activate 2
    "C32A2": (1, 32, 1, 1, 2, True),
    # split the dense FFN 16 ways, activate 4, no shared expert
    "S16A4": (16, 1, 1, 1, 4, False),
    # split 8 ways and replicate each part 8x (64 experts), activate 8
    "NVShard": (8, 8, 1, 1, 8, True),
    # fine-grained in both dims: 128 experts, 2 activated
    "FineRMoE-base": (32, 1, 2, 2, 1, True),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def baseline_preset(name: str, h: int = REF_H, H: int = REF_INTERMEDIATE) -> FineRConfig:
    """Named baseline construction; h/H override the reference dims."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; valid presets: {', '.join(preset_names())}"
        )
    g_i, r_i, g_o, r_o, t_i, share = _PRESETS[name]
    cfg = FineRConfig(
        h=h, H=H, G_I=g_i, R_I=r_i, G_O=g_o, R_O=r_o, T_I=t_i, share_expert=share
    )
    validate(cfg)
    return cfg


def format_config(cfg: FineRConfig) -> str:
    """Render as the `key = value` text format, one field per line."""
    lines = []
    for f in fields(FineRConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            v = "true" if v else "false"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> FineRConfig:
    """Parse the `key = value` format; unknown, repeated keys and bad values raise."""
    # Each key's kind is its field's annotation: "int", "bool" or "str".
    kinds = {f.name: f.type for f in fields(FineRConfig)}
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kind = kinds.get(key)
        if kind == "int":
            try:
                values[key] = int(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be an integer, got {val!r}")
        elif kind == "bool":
            if val not in ("true", "false"):
                raise ConfigError(f"line {lineno}: {key} must be true or false, got {val!r}")
            values[key] = val == "true"
        elif kind == "str":
            values[key] = val
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    missing = [f.name for f in fields(FineRConfig) if f.default is MISSING and f.name not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    cfg = FineRConfig(**values)
    validate(cfg)
    return cfg


def load_config(path) -> FineRConfig:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"line {lineno}: not valid UTF-8 (byte {exc.start})") from None
    return parse_config(text)


def save_config(cfg: FineRConfig, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_config(cfg))


def with_updates(cfg: FineRConfig, **kw) -> FineRConfig:
    out = replace(cfg, **kw)
    validate(out)
    return out
