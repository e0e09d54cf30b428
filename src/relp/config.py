"""Run configuration: the resource caps.

``RunConfig`` is the one place run settings are declared: three caps
(closure members, which also bound the search oracle's memo, the
oracle's input strings, and solver pivots).  Config-file keys and CLI
flags are read off its fields.
Settings resolve in three layers: built-in defaults, then the key=value
file named by the RELP_CONFIG environment variable, then explicit
overrides (CLI flags).  The file format is one ``key = value`` per
line, with ``#`` comments.

A feasibility tolerance is not a run setting: ``relp check`` takes its
own ``--tolerance`` flag, and calibration uses a fixed slack.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace


class ResourceCapError(RuntimeError):
    """An enumeration or solve exceeded a configured cap (CLI exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    closure_max_members: int = 100_000
    oracle_max_strings: int = 8
    solver_max_pivots: int = 1_000_000

    def __post_init__(self) -> None:
        """Refuse caps no run can honour, before any work starts."""
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ValueError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")


DEFAULT_CONFIG = RunConfig()

# the config-file keys and CLI flags; every setting is a count, read as an int
SETTINGS = tuple(f.name for f in fields(RunConfig))

ENV_VAR = "RELP_CONFIG"


def parse_config_text(text: str, base: RunConfig = DEFAULT_CONFIG) -> RunConfig:
    updates = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in SETTINGS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            updates[key] = int(raw)
        except ValueError as exc:
            raise ValueError(f"bad value for config key {key}: {raw!r}") from exc
    return replace(base, **updates)


def load_config(path: str | None = None, **overrides) -> RunConfig:
    """Defaults, then the RELP_CONFIG file (or explicit path), then overrides."""
    cfg = DEFAULT_CONFIG
    path = path if path is not None else os.environ.get(ENV_VAR)
    if path:
        with open(path, encoding="utf-8") as fh:
            cfg = parse_config_text(fh.read(), cfg)
    clean = {k: v for k, v in overrides.items() if v is not None}
    if clean:
        cfg = replace(cfg, **clean)
    return cfg
