"""Strict flat config schema shared by the CLI subcommands.

Two input formats are accepted: an INI-style text file whose sections map
to key prefixes, and JSON (either flat dotted keys or nested sections; any
JSON report a subcommand writes is also accepted, in which case its echoed
``config`` object is used, less the fields the schema no longer has).
Unknown keys are rejected so a typo in a tolerance name can never silently
corrupt a run.  The schema is derived from the fields of
``ExperimentConfig``, which carry each key's default, help text and accepted
values.
"""

from __future__ import annotations

import json
from dataclasses import Field, fields
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .experiments import ExperimentConfig

SCHEMA: dict[str, Field] = {f.metadata["key"]: f for f in fields(ExperimentConfig)}
_ATTR_TO_KEY = {f.name: key for key, f in SCHEMA.items()}


def _unknown_key(key: str):
    import difflib

    hint = difflib.get_close_matches(key, SCHEMA, n=3)
    extra = f" (did you mean: {', '.join(hint)}?)" if hint else ""
    raise ConfigError(f"unknown config key {key!r}{extra}")


def _int(raw) -> int:
    """int(raw), refusing booleans and non-integral numbers rather than truncating them."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ValueError("not an integer")
    return int(raw)


def _float(raw) -> float:
    """float(raw), refusing booleans rather than reading them as 0 and 1."""
    if isinstance(raw, bool):
        raise ValueError("not a number")
    return float(raw)


def _opt_float(raw) -> Optional[float]:
    """None for None, an empty string or 'none'; else ``_float(raw)``."""
    if raw is None or (isinstance(raw, str) and raw.strip().lower() in ("", "none")):
        return None
    return _float(raw)


def _int_list(raw) -> tuple[int, ...]:
    """A list, or a string of integers split at commas and spaces, as a tuple of ints."""
    items = raw if isinstance(raw, (list, tuple)) else str(raw).replace(",", " ").split()
    return tuple(_int(v) for v in items)


# field annotation (a string under postponed evaluation) -> parser of a raw value
_PARSERS = {
    "int": _int, "float": _float, "str": str,
    "Optional[float]": _opt_float, "tuple[int, ...]": _int_list,
}


def _coerce(key: str, raw) -> object:
    try:
        return _PARSERS[SCHEMA[key].type](raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc


def _merge(base: dict, updates: dict) -> dict:
    out = dict(base)
    for key, raw in updates.items():
        if key not in SCHEMA:
            _unknown_key(key)
        out[key] = _coerce(key, raw)
    return out


def _flatten_json(obj) -> dict:
    if isinstance(obj.get("config"), dict):  # a JSON report; reuse its echo
        return {_ATTR_TO_KEY[k]: v for k, v in obj["config"].items() if k in _ATTR_TO_KEY}
    flat = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            for sub, v in value.items():
                flat[f"{key}.{sub}"] = v
        else:
            flat[key] = value
    return flat


def load_config_file(path) -> dict:
    """Parse an INI or JSON config file into a flat key -> raw value dict."""
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if p.suffix == ".json" or stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{p}: invalid JSON ({exc})") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"{p}: top-level JSON value must be an object")
        return _flatten_json(obj)
    import configparser

    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=str(p))
    except configparser.Error as exc:
        raise ConfigError(f"{p}: invalid config ({exc})") from exc
    flat = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            flat[f"{section}.{key}"] = value
    return flat


def parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} must have the form key=value")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve(
    config_path: Optional[str] = None,
    overrides: Optional[dict] = None,
    seed: Optional[int] = None,
) -> ExperimentConfig:
    """Defaults <- config file <- --set overrides <- --seed flag."""
    flat = {k: f.default for k, f in SCHEMA.items()}
    if config_path is not None:
        flat = _merge(flat, load_config_file(config_path))
    if overrides:
        flat = _merge(flat, overrides)
    if seed is not None:
        flat["run.seed"] = int(seed)
    kwargs = {SCHEMA[k].name: v for k, v in flat.items()}
    return ExperimentConfig(**kwargs)


def demo_config_path(name: str = "bernstein") -> Path:
    """Path of a bundled demo config."""
    path = Path(__file__).parent / "configs" / f"{name}_demo.cfg"
    if not path.exists():
        raise ConfigError(f"no bundled demo config named {name!r}")
    return path


def schema_sections() -> list[str]:
    """Per-section blocks of 'key = default' lines with help and accepted values, for --help."""
    blocks: dict[str, list[str]] = {}
    for key, fld in SCHEMA.items():
        sec = key.split(".", 1)[0]
        default = ",".join(map(str, fld.default)) if isinstance(fld.default, tuple) else str(fld.default)
        blocks.setdefault(sec, []).append(f"  {key} = {default}")
        blocks[sec].append(f"      {fld.metadata['help']}; must be {fld.metadata['accepts'][0]}")
    return ["\n".join(lines) for lines in blocks.values()]
