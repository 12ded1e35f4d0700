"""Flat key=value config files covering matcher and training settings."""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .pipeline import MatcherConfig, parse_setting
from .supervision import LossWeights
from .train import TrainConfig

_MATCHER_KEYS = {f.name for f in fields(MatcherConfig)}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)} - {"weights"}
_LOSS_KEYS = {f.name for f in fields(LossWeights)}


@dataclass
class Settings:
    matcher: MatcherConfig = field(default_factory=MatcherConfig.toy)
    train: TrainConfig = field(default_factory=TrainConfig)


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_settings(path: str | None) -> Settings:
    if path is None:
        return Settings()
    with open(path, "r", encoding="utf-8") as fh:
        overrides = parse_config_text(fh.read())
    return apply_overrides(Settings(), overrides)


def apply_overrides(settings: Settings, overrides: dict[str, str]) -> Settings:
    """New settings with ``overrides`` applied; every value is parsed with its
    field's type (an int field takes only an int) and checked on the way in."""
    matcher, train, loss = {}, {}, {}
    for key, value in overrides.items():
        if key in _MATCHER_KEYS:
            matcher[key] = value
        elif key in _TRAIN_KEYS:
            train[key] = parse_setting(key, type(getattr(settings.train, key)), value)
        elif key in _LOSS_KEYS:
            loss[key] = parse_setting(key, float, value)
        else:
            raise KeyError(f"unknown config key {key!r}")
    return Settings(
        matcher=MatcherConfig.from_dict({**settings.matcher.to_dict(), **matcher}),
        train=replace(settings.train, weights=replace(settings.train.weights, **loss), **train),
    )
