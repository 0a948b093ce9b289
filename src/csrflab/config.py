"""Lab configuration: defaults, key=value config files, flag overrides.

Config files are plain ``key = value`` lines; blank lines and lines
starting with ``#`` are ignored.  Recognized keys::

    bind = 127.0.0.1
    port = 8080
    policy = none | csrf_token | origin_check | samesite_strict
    seed = 1337
    admin_token = lab-admin-token
    snapshot = /path/to/state.json

Command-line flags override file values, which override the defaults.
"""

from __future__ import annotations

from typing import NamedTuple

from .forum import DEFAULT_ADMIN_TOKEN, DEFAULT_SEED, DefenseMode


class ConfigError(Exception):
    pass


class LabConfig(NamedTuple):
    bind: str = "127.0.0.1"
    port: int = 8080
    policy: DefenseMode = DefenseMode.NONE
    seed: int = DEFAULT_SEED
    admin_token: str = DEFAULT_ADMIN_TOKEN
    snapshot: str | None = None


def parse_config_text(text: str) -> dict:
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key = key.strip()
        value = value.strip()
        if key not in LabConfig._fields:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = value
    return values


def build_config(file_values: dict | None = None, **overrides) -> LabConfig:
    """Merge defaults <- file values <- overrides into a LabConfig."""
    merged: dict = dict(file_values or {})
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    # Keys need no check: parse_config_text checks a file's, the CLI passes field names.
    for key, value in merged.items():
        if key in ("port", "seed"):
            try:
                value = int(value)
            except (TypeError, ValueError):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
            if key == "port" and not 0 <= value <= 65535:
                raise ConfigError(f"port must be in 0-65535 (0 for ephemeral), got {value}")
        elif key == "policy":
            try:
                value = DefenseMode(value)
            except ValueError:
                names = ", ".join(m.value for m in DefenseMode)
                raise ConfigError(f"policy must be one of {names}, got {value!r}")
        merged[key] = value
    return LabConfig(**merged)


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
