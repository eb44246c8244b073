"""Run configuration: INI file + flag overrides, hashed for artifact lineage."""

from __future__ import annotations

import configparser
import copy
import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Optional, Sequence, TypeVar

from .errors import ConfigError
from .evaluation import EvalConfig
from .knowledge_base import KbBuildConfig
from .llm import LlmConfig
from .pipeline import PipelineConfig
from .retriever import TrainConfig

T = TypeVar("T")


def _stage_section(cls, skip: Sequence[str] = ()) -> dict:
    """A stage config's field defaults, less `skip`; its seed comes from [run]."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name not in ("seed", *skip)}


DEFAULTS: dict[str, dict] = {
    "run": {
        "seed": 0,
    },
    "dataset": {
        "train": "train.json",
        "test": "test.json",
        "db_dir": "databases",
    },
    "kb": _stage_section(KbBuildConfig),
    "retriever": {
        "backend": "hash",
        "dim": 256,
        "head_dim": 64,
        "use_head": True,
        "endpoint": "",
        **_stage_section(TrainConfig, skip=("dim_out",)),
    },
    # api_key comes from the environment only, so it never enters the hash
    "llm": {
        **_stage_section(LlmConfig, skip=("api_key", "max_context_chars", "retry")),
        "fixture": "",
    },
    "pipeline": _stage_section(PipelineConfig),
    "eval": _stage_section(EvalConfig),
}


# Keys whose stage field is declared output-neutral in its metadata
# (`[llm] max_inflight`): they change no artifact, so lineage ignores them.
UNHASHED = frozenset(
    (section, f.name)
    for section, cls in (
        ("kb", KbBuildConfig),
        ("retriever", TrainConfig),
        ("llm", LlmConfig),
        ("pipeline", PipelineConfig),
        ("eval", EvalConfig),
    )
    for f in dataclasses.fields(cls)
    if f.metadata.get("output_neutral")
)


def _coerce(section: str, key: str, raw: str):
    try:
        default = DEFAULTS[section][key]
    except KeyError:
        raise ConfigError(f"unknown config key [{section}] {key}") from None
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")
    if isinstance(default, str):
        return raw
    try:
        return type(default)(raw)
    except ValueError:
        kind = type(default).__name__
        raise ConfigError(f"[{section}] {key}: expected {kind}, got {raw!r}") from None


class RunConfig:
    """Merged settings: defaults <- config file <- --set overrides."""

    def __init__(self, data: dict[str, dict], workdir: Path) -> None:
        self.data = data
        self.workdir = workdir

    def __getitem__(self, section: str) -> dict:
        return self.data[section]

    @property
    def seed(self) -> int:
        return self.data["run"]["seed"]

    @property
    def config_hash(self) -> str:
        hashed = {
            section: {k: v for k, v in keys.items() if (section, k) not in UNHASHED}
            for section, keys in self.data.items()
        }
        canonical = json.dumps(hashed, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def stage(self, cls: type[T], section: str, **extra) -> T:
        """Build stage config `cls` from [section]: the section's keys that
        are fields of `cls`, [run] seed when `cls` has a seed, then `extra`.
        A value `cls` rejects is a ConfigError naming the section."""
        names = {f.name for f in dataclasses.fields(cls)}
        values = {key: self[section][key] for key in self[section] if key in names}
        if "seed" in names:
            values["seed"] = self.seed
        values.update(extra)
        try:
            return cls(**values)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc

    def path(self, relative: str) -> Path:
        p = Path(relative)
        return p if p.is_absolute() else self.workdir / p


def load_config(
    config_file: Optional[Path | str] = None,
    workdir: Optional[Path | str] = None,
    overrides: Sequence[str] = (),
) -> RunConfig:
    """Build a RunConfig; overrides use the form 'section.key=value'."""
    values = []  # (section, key, raw), file first so --set wins
    if config_file is not None:
        parser = configparser.ConfigParser()
        if not parser.read(config_file):
            raise ConfigError(f"cannot read config file {config_file}")
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown config section [{section}]")
            values += [(section, key, raw) for key, raw in parser.items(section)]
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, raw = item.split("=", 1)
        values.append((*target.split(".", 1), raw))
    data = copy.deepcopy(DEFAULTS)
    for section, key, raw in values:
        data[section][key] = _coerce(section, key, raw)
    if data["run"]["seed"] < 0:
        raise ConfigError("[run] seed must be >= 0")
    if workdir is None:
        workdir = Path(config_file).parent if config_file else Path.cwd()
    return RunConfig(data, Path(workdir))
