"""Run configuration: INI file + flag overrides, hashed for artifact lineage."""

from __future__ import annotations

import configparser
import copy
import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Optional, Sequence

from .errors import ConfigError
from .evaluation import EvalConfig
from .knowledge_base import KbBuildConfig
from .pipeline import PipelineConfig


def _stage_section(cls) -> dict:
    """A stage config's field defaults; its seed comes from [run]."""
    return {f.name: f.default for f in dataclasses.fields(cls) if f.name != "seed"}


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
        "tau": 0.05,
        "lr": 0.001,
        "batch_size": 128,
        "epochs": 30,
        "holdout_fraction": 0.25,
        "use_head": True,
        "endpoint": "",
    },
    "llm": {
        "backend": "mock",  # http | mock
        "model": "",
        "endpoint": "",
        "temperature": 0.0,
        "max_tokens": 1024,
        "timeout": 120.0,
        "max_inflight": 4,  # concurrent http completions; mock runs stay serial
        "fixture": "",
    },
    "pipeline": _stage_section(PipelineConfig),
    "eval": _stage_section(EvalConfig),
}


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
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


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
        canonical = json.dumps(self.data, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def path(self, relative: str) -> Path:
        p = Path(relative)
        return p if p.is_absolute() else self.workdir / p


def load_config(
    config_file: Optional[Path | str] = None,
    workdir: Optional[Path | str] = None,
    overrides: Sequence[str] = (),
) -> RunConfig:
    """Build a RunConfig; overrides use the form 'section.key=value'."""
    data = copy.deepcopy(DEFAULTS)
    if config_file is not None:
        parser = configparser.ConfigParser()
        read = parser.read(config_file)
        if not read:
            raise ConfigError(f"cannot read config file {config_file}")
        for section in parser.sections():
            if section not in DEFAULTS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                data[section][key] = _coerce(section, key, raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        data[section][key] = _coerce(section, key, raw)
    if workdir is None:
        workdir = Path(config_file).parent if config_file else Path.cwd()
    return RunConfig(data, Path(workdir))
