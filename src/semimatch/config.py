"""Every setting (matcher, training, loss weights) and the one rule that reads
each from flat key=value text (``_parse``). Imports nothing from the package."""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace

STAGE_STRIDES = (1, 2, 2, 2)  # the backbone's four stages: a 1/2, 1/4, 1/8 pyramid


def _ints(value) -> tuple[int, ...]:
    return tuple(int(v) for v in str(value).split(","))


_PARSERS = {
    "widths": _ints,
    "blocks": _ints,
    "inv_temperature": lambda value: None if value in ("", None, "none") else float(value),
}


def parse_setting(key: str, parse, value):
    """``parse(value)``, with a value that does not parse reported under its key.
    No setting takes a bool (JSON ``true``), and an int setting takes no float (``4.7``)."""
    try:
        if isinstance(value, bool) or parse is int and isinstance(value, float):
            raise TypeError
        return parse(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key}={value!r} is not a valid value") from None


def require_at_least(config, bound, *keys: str) -> None:
    """Raise ``ValueError`` naming the first of ``keys`` whose value is below ``bound`` or not finite."""
    for key in keys:
        value = getattr(config, key)
        if not bound <= value < math.inf:  # NaN fails too
            raise ValueError(f"{key} must be finite and >= {bound}, got {value}")


def _defaults(cls) -> dict:
    """The default of each field of ``cls`` that a config file may set: those with a plain default."""
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _parse(cls, key: str, value):
    """``value`` read by ``key``'s entry in ``_PARSERS``, else by the type of its default."""
    return parse_setting(key, _PARSERS.get(key, type(_defaults(cls)[key])), value)


def _write(value):
    """A field's value as ``to_dict`` writes it, which its parser reads back."""
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return "" if value is None else value


@dataclass
class MatcherConfig:
    widths: tuple[int, ...] = (64, 64, 128, 256)
    blocks: tuple[int, ...] = (1, 2, 4, 14)
    n_layers: int = 4
    n_heads: int = 8
    s: int = 4
    d_fine: int = 64
    fine_patch_width: int = 8
    inv_temperature: float | None = None
    tau: float = 0.2

    def __post_init__(self):
        for key in ("widths", "blocks"):
            values = getattr(self, key)
            if len(values) != len(STAGE_STRIDES) or min(values) < 1:
                raise ValueError(f"{key} needs one value >= 1 for each of the four stages, got {values}")
        require_at_least(self, 0, "n_layers")
        require_at_least(self, 1, "n_heads", "s", "d_fine")
        if self.d_model % self.n_heads or (self.d_model // self.n_heads) % 4:
            raise ValueError(f"n_heads={self.n_heads} must split d_model={self.d_model} into heads "
                             "whose width is a multiple of 4 (2D rotary encoding)")
        if self.fine_patch_width < 2 or self.fine_patch_width % 2:
            raise ValueError(f"fine_patch_width must be even and >= 2, got {self.fine_patch_width}")
        if self.inv_temperature is not None and not 0 < self.inv_temperature < math.inf:
            raise ValueError(f"inv_temperature must be finite and > 0 when set, got {self.inv_temperature}")
        if not 0 <= self.tau <= 1:  # a dual-softmax probability threshold; NaN fails too
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")

    @property
    def d_model(self) -> int:
        return self.widths[-1]

    @classmethod
    def toy(cls) -> "MatcherConfig":
        return cls(widths=(8, 8, 16, 32), blocks=(1, 1, 2, 2), n_layers=2,
                   n_heads=4, s=2, d_fine=16)

    def to_dict(self) -> dict:
        return {f.name: _write(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "MatcherConfig":
        for key in data:
            if key not in _defaults(cls):
                raise KeyError(f"unknown matcher config key {key!r}")
        return cls(**{key: _parse(cls, key, value) for key, value in data.items()})


@dataclass
class LossWeights:
    alpha: float = 1.0
    beta: float = 0.25

    def __post_init__(self):
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):  # NaN fails too
            raise ValueError(f"loss weights must be finite and nonnegative, got alpha={self.alpha}, beta={self.beta}")


@dataclass
class TrainConfig:
    steps: int = 800
    batch_size: int = 2
    lr: float = 4e-3
    weight_decay: float = 1e-2
    warmup_steps: int = 100
    clip_norm: float = 1.0
    seed: int = 0
    max_fine_matches: int = 48
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        require_at_least(self, 1, "steps", "batch_size", "max_fine_matches")
        require_at_least(self, 0, "lr", "weight_decay", "warmup_steps", "clip_norm", "seed")


@dataclass
class Settings:
    matcher: MatcherConfig = field(default_factory=MatcherConfig.toy)
    train: TrainConfig = field(default_factory=TrainConfig)


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines:
            raise ValueError(f"line {lineno}: key {key!r} repeats line {lines[key]}")
        out[key], lines[key] = value, lineno
    return out


def load_settings(path: str | None) -> Settings:
    if path is None:
        return Settings()
    with open(path, "r", encoding="utf-8") as fh:
        overrides = parse_config_text(fh.read())
    return apply_overrides(Settings(), overrides)


def apply_overrides(settings: Settings, overrides: dict[str, str]) -> Settings:
    """New settings with ``overrides`` applied; every value is parsed by its
    field's rule (an int field takes only an int) and checked on the way in."""
    changes = {MatcherConfig: {}, TrainConfig: {}, LossWeights: {}}
    for key, value in overrides.items():
        owner = next((cls for cls in changes if key in _defaults(cls)), None)
        if owner is None:
            raise KeyError(f"unknown config key {key!r}")
        changes[owner][key] = _parse(owner, key, value)
    weights = replace(settings.train.weights, **changes[LossWeights])
    return Settings(matcher=replace(settings.matcher, **changes[MatcherConfig]),
                    train=replace(settings.train, weights=weights, **changes[TrainConfig]))
