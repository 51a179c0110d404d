"""Run configuration: YAML schema, validation, and round-trip serialization.

A run is described by one YAML mapping with sections ``crystal``, ``pump``,
``grid`` and ``output`` plus the scalars ``pipeline``, ``pairing_tol`` and
``mehler_terms``.  The config dataclasses are the only schema: parsing walks
their fields, applies their defaults, rejects unknown keys, and turns every
failure into a :class:`ConfigError` whose message names the offending field
(and the source line for YAML syntax errors).  ``serialize_config`` emits the
fully resolved form, :func:`dataclasses.asdict` of the config; parse ->
serialize -> parse is the identity.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from ..pdc import CrystalConfig, PumpConfig

__all__ = [
    "PIPELINES",
    "FORMATS",
    "ConfigError",
    "GridSpec",
    "OutputConfig",
    "RunConfig",
    "bundled_configs",
    "parse_config",
    "parse_config_text",
    "config_from_dict",
    "config_to_dict",
    "serialize_config",
]

PIPELINES = ("numerical", "analytic", "compare", "near_degenerate")
FORMATS = ("csv", "json", "both")

class ConfigError(ValueError):
    """Configuration parse or validation failure (CLI exit code 2)."""


@dataclass(frozen=True)
class GridSpec:
    """Detuning-grid sizing: 2m samples over +-half_width.

    Either ``half_width`` (rad/fs) or ``window_T`` (fs, the quantization
    window 2 pi / spacing) may be given.  When both are omitted the pipeline
    sizes the band automatically from the analytic model: half_width =
    omega_s + max(width_factor / tau1, 3 Omega_p).
    """

    m: int = 128
    half_width: float | None = None
    window_T: float | None = None
    width_factor: float = 4.0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")
        if self.half_width is not None and not self.half_width > 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.window_T is not None and not self.window_T > 0:
            raise ValueError(f"window_T must be positive, got {self.window_T}")
        if not self.width_factor > 0:
            raise ValueError(f"width_factor must be positive, got {self.width_factor}")


@dataclass(frozen=True)
class OutputConfig:
    """Artifact destination and format (``csv``, ``json`` or ``both``)."""

    directory: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValueError(
                f"format must be one of {', '.join(FORMATS)}, got {self.format!r}"
            )


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved description of one pipeline run.

    ``fit_pairs`` caps the window of the geometric fit (the tail of the
    numerical spectrum sits at the grid-truncation noise floor and does not
    follow the geometric law); ``null`` uses every pair above the floor.
    """

    crystal: CrystalConfig
    pump: PumpConfig
    grid: GridSpec = field(default_factory=GridSpec)
    pipeline: str = "numerical"
    pairing_tol: float = 1e-2
    fit_pairs: int | None = 15
    mehler_terms: int = 80
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        if self.pipeline not in PIPELINES:
            raise ValueError(
                f"pipeline must be one of {', '.join(PIPELINES)}, got {self.pipeline!r}"
            )
        if not 0.0 < self.pairing_tol < 1.0:
            raise ValueError(
                f"pairing_tol must lie strictly between 0 and 1, got {self.pairing_tol}"
            )
        if self.fit_pairs is not None and self.fit_pairs < 3:
            raise ValueError(f"fit_pairs must be at least 3, got {self.fit_pairs}")
        if self.mehler_terms < 1:
            raise ValueError(f"mehler_terms must be at least 1, got {self.mehler_terms}")


def _as_float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("integer too large to convert to a float") from None


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _as_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true/false, got {value!r}")
    return value


def _as_str(value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _reject_unknown(data: dict, where: str, known: tuple[str, ...]) -> None:
    unknown = sorted((k for k in data if k not in known), key=str)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key {unknown[0]!r} (known keys: {', '.join(known)})"
        )


_CONVERTERS = {float: _as_float, int: _as_int, bool: _as_bool, str: _as_str}


@functools.cache
def _schema(cls) -> tuple:
    """(name, type, nullable, required) of each field of dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    schema = []
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        nullable = type(None) in typing.get_args(kind)
        if nullable:
            (kind,) = (a for a in typing.get_args(kind) if a is not type(None))
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        schema.append((f.name, kind, nullable, required))
    return tuple(schema)


def _from_dict(cls, data: dict, where: str, prefix: str = ""):
    """Build dataclass ``cls`` from ``data`` by walking its fields.

    The fields give the known keys and their order, the defaults, which keys
    are required, and the converter of each scalar; a nested dataclass is a
    section.  Null means None where the field's type admits None and counts
    as missing everywhere else.  Scalar errors name ``<where>.<key>``,
    section errors ``<prefix><key>``, constructor errors ``<where>``.
    """
    schema = _schema(cls)
    _reject_unknown(data, where, tuple(name for name, *_ in schema))
    kwargs = {}
    for name, kind, nullable, required in schema:
        section = dataclasses.is_dataclass(kind)
        label = f"{prefix}{name}" if section else f"{where}.{name}"
        value = data.get(name)
        if value is None:
            if name in data and nullable:
                kwargs[name] = None
            elif required:
                what = "section" if section else "field"
                raise ConfigError(f"{label}: required {what} is missing")
            continue
        if section:
            if not isinstance(value, dict):
                raise ConfigError(f"{label}: expected a mapping, got {type(value).__name__}")
            kwargs[name] = _from_dict(kind, value, label, f"{label}.")
            continue
        try:
            kwargs[name] = _CONVERTERS[kind](value)
        except ValueError as err:
            raise ConfigError(f"{label}: {err}") from None
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None


def config_from_dict(raw: dict) -> RunConfig:
    """Build a validated :class:`RunConfig` from a plain nested dict."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config: top level must be a mapping, got {type(raw).__name__}")
    return _from_dict(RunConfig, raw, "config")


def parse_config_text(text: str, name: str = "<config>") -> RunConfig:
    """Parse YAML text into a :class:`RunConfig`, with line info on syntax errors."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as err:
        mark = getattr(err, "problem_mark", None)
        problem = getattr(err, "problem", None) or str(err)
        if mark is not None:
            raise ConfigError(
                f"{name}: line {mark.line + 1}, column {mark.column + 1}: {problem}"
            ) from None
        raise ConfigError(f"{name}: {problem}") from None
    except ValueError as err:
        # PyYAML's constructors raise plain ValueErrors, e.g. for an integer
        # literal past Python's 4300-digit int-string limit.  The message
        # names the limit, not the literal; its advice after ";" is dropped.
        reason = str(err).partition(";")[0]
        raise ConfigError(f"{name}: unreadable value: {reason}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: top level must be a mapping")
    return config_from_dict(raw)


def bundled_configs() -> tuple[str, ...]:
    """Names of the configuration files shipped inside the package."""
    root = resources.files("twinbeams") / "configs"
    return tuple(sorted(p.name[: -len(".yaml")] for p in root.iterdir() if p.name.endswith(".yaml")))


def _resolve_source(source):
    """Map a bare bundled-config name to its packaged file, else a filesystem path."""
    text = str(source)
    path = Path(text)
    if path.suffix == "" and path.name == text and not path.exists():
        bundled = resources.files("twinbeams") / "configs" / f"{text}.yaml"
        if bundled.is_file():
            return bundled
    return path


def parse_config(source) -> RunConfig:
    """Parse a config file (filesystem path or bundled name) into a RunConfig."""
    path = _resolve_source(source)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        names = ", ".join(bundled_configs())
        raise ConfigError(
            f"config not found: {source} (bundled configs: {names})"
        ) from None
    except OSError as err:
        raise ConfigError(f"cannot read config {source}: {err}") from None
    return parse_config_text(text, name=str(source))


def config_to_dict(cfg: RunConfig) -> dict:
    """Fully resolved plain-dict form of a config (defaults made explicit)."""
    return dataclasses.asdict(cfg)


def serialize_config(cfg: RunConfig) -> str:
    """YAML text of the fully resolved config; parses back to an equal RunConfig."""
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False, default_flow_style=False)
