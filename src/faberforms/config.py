"""Experiment configuration: INI-style blocks parsed into live objects.

A config has five blocks. [surface] fixes genus and marked points,
[caps] lists one map spec per line in the order the cap indices will
use, [target] names a target family with its parameters, [run] holds
truncation order, check list, seed, and tolerances, [output] the
artifact directory. Parse errors name the offending block.field; a key
that [surface], [run] or [output] does not read is one of them, and so
is a number that is not finite. The parsed config is frozen: the command
line's ``--out-dir`` makes a new one with ``dataclasses.replace``.
``probe_ring`` gives the ring the run reads its sup errors on: the
geometry's, with the radius ``run.probe_radius`` when that is set.
"""

from __future__ import annotations

import cmath
import configparser
from dataclasses import dataclass

import numpy as np

from .checks import CHECKS
from .conformal import CapFamily, make_map
from .faber import PRINCIPAL_RADIUS
from .numerics import CONDITION_LIMIT, ValidationError
from .schiffer import guard_order
from .geometry import CapOutsideCell
from .series import TargetForm
from .surface import SurfaceSpec
from .targets import build_target

CHECK_NAMES = tuple(CHECKS)
PROBE_POINTS = 40  # equispaced points of the probe ring the sup errors are read on


class ConfigError(ValidationError):
    """A config file is unreadable, incomplete, or out of documented range."""


@dataclass(frozen=True)
class ExperimentConfig:
    surface: SurfaceSpec
    target: TargetForm
    target_family: str
    target_params: dict
    M: int
    checks: tuple
    seed: int
    l2_tolerance: float
    sup_tolerance: float
    pole_orders: int
    translation: complex
    condition_limit: float
    probe_radius: float | None  # None: the geometry's radius
    strict: bool
    out_dir: str | None


class _Block:
    """One config block that records every key the parse looks up, so that
    a key the parse never reads can be refused as unknown."""

    def __init__(self, parser, name: str):
        self.name = name
        self._keys = parser[name] if name in parser else {}
        self._read = set()

    def __contains__(self, key: str) -> bool:
        self._read.add(key)
        return key in self._keys

    def __getitem__(self, key: str) -> str:
        self._read.add(key)
        return self._keys[key]

    def get(self, key: str, default: str | None = None) -> str | None:
        self._read.add(key)
        return self._keys.get(key, default)

    def reject_unread(self) -> None:
        for key in self._keys:
            if key not in self._read:
                raise ConfigError(f"{self.name}.{key}: unknown key")


def probe_ring(config: ExperimentConfig) -> np.ndarray:
    """The circle the sup errors are read on, as PROBE_POINTS points: the
    geometry's ``probe_ring``, with ``run.probe_radius`` as its radius when
    the config sets one (on the torus its center is the cycle base)."""
    center, radius = config.surface.geometry.probe_ring()
    if config.probe_radius is not None:
        radius = config.probe_radius
    theta = 2.0 * np.pi * np.arange(PROBE_POINTS) / PROBE_POINTS
    return center + radius * np.exp(1j * theta)


def _finite(block: str, key: str, raw: str, value):
    if not cmath.isfinite(value):
        raise ConfigError(f"{block}.{key}: must be finite, got {raw.strip()!r}")
    return value


def _complex(block: str, key: str, raw: str) -> complex:
    try:
        value = complex(raw.strip().replace(" ", ""))
    except ValueError:
        raise ConfigError(f"{block}.{key}: not a complex number: {raw!r}") from None
    return _finite(block, key, raw, value)


def _float(block: str, key: str, raw: str) -> float:
    try:
        value = float(raw.strip())
    except ValueError:
        raise ConfigError(f"{block}.{key}: not a number: {raw!r}") from None
    return _finite(block, key, raw, value)


def _positive(block: str, key: str, raw: str) -> float:
    value = _float(block, key, raw)
    if not value > 0:
        raise ConfigError(f"{block}.{key}: must be > 0, got {value}")
    return value


def _int(block: str, key: str, raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        raise ConfigError(f"{block}.{key}: not an integer: {raw!r}") from None


def _bool(block: str, key: str, raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"{block}.{key}: not a boolean: {raw!r}") from None


def _seed(block: str, key: str, raw: str) -> int:
    value = _int(block, key, raw)
    if value < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"{block}.{key}: must be >= 0, got {value}")
    return value


def _order(key: str, raw: str, r0: float | None = None) -> int:
    """A [run] order, held to ``schiffer.guard_order`` on the radius r0
    of its read (default: the order's own basis read)."""
    value = _int("run", key, raw)
    try:
        guard_order(value, r0, key=f"run.{key}")
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None
    return value


def _parse_map_spec(key: str, spec: str):
    tokens = spec.split()
    if not tokens:
        raise ConfigError(f"caps.{key}: empty map spec")
    kind, params = tokens[0], {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise ConfigError(f"caps.{key}: expected key=value, got {tok!r}")
        name, value = tok.split("=", 1)
        if name == "coefficients":
            params[name] = [_complex("caps", f"{key}.{name}", v) for v in value.split(",")]
        else:
            params[name] = _complex("caps", f"{key}.{name}", value)
    try:
        return make_map(kind, **params)
    except ValidationError as exc:
        raise ConfigError(f"caps.{key}: {exc}") from None


# How each [target] key is read; ``build_target`` checks the family takes it.
TARGET_PARAMS = {
    "k": _int, "m": _int, "cap": _int, "seed": _seed, "order": _int,
    "eta": _complex, "strength": _complex,
}


def parse_config(path: str) -> ExperimentConfig:
    # no header line spells a newline, so [DEFAULT] is a block like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="\n")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(
            f"{exc.section}.{exc.option}: duplicate key on line {exc.lineno}") from None
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"{exc.section}: duplicate block on line {exc.lineno}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    for block in ("surface", "caps", "target", "run"):
        if block not in parser:
            raise ConfigError(f"{block}: missing block")
    for block in parser.sections():
        if block not in ("surface", "caps", "target", "run", "output"):
            raise ConfigError(f"{block}: unknown block")

    # -- surface ------------------------------------------------------------
    s = _Block(parser, "surface")
    if "genus" not in s:
        raise ConfigError("surface.genus: required")
    genus = _int("surface", "genus", s["genus"])
    tau = _complex("surface", "tau", s["tau"]) if "tau" in s else None
    q = None
    if "q" in s and s["q"].strip().lower() in ("inf", "infinity"):
        if genus == 1:
            raise ConfigError("surface.q: must be finite on the torus")
    elif "q" in s:
        q = _complex("surface", "q", s["q"])
    s.reject_unread()

    caps_items = list(parser["caps"].items())
    if not caps_items:
        raise ConfigError("caps: at least one map spec required")
    maps = [_parse_map_spec(key, spec) for key, spec in caps_items]
    try:
        caps = CapFamily(maps)
    except ValidationError as exc:
        raise ConfigError(f"caps: {exc}") from None
    try:
        surface = SurfaceSpec(genus, caps, tau=tau, q=q)
    except CapOutsideCell as exc:
        raise ConfigError(f"caps.{caps_items[exc.cap][0]}: {exc.reason}") from None
    except ValidationError as exc:
        # a refusal of the genus or of tau starts with the argument's name
        message = str(exc)
        raise ConfigError(f"surface.{message}" if message.startswith(("genus:", "tau:"))
                          else f"surface: {message}") from None

    # -- target ---------------------------------------------------------------
    t = parser["target"]
    family = t.get("family", "").strip()
    if not family:
        raise ConfigError("target.family: required")
    params = {}
    for key in t:
        if key == "family":
            continue
        if key not in TARGET_PARAMS:
            raise ConfigError(f"target.{key}: unknown parameter")
        params[key] = TARGET_PARAMS[key]("target", key, t[key])
    try:
        target = build_target(surface, family, **params)
    except ValidationError as exc:
        # a refusal that names its key is passed on as it is
        message = str(exc)
        raise ConfigError(
            message if message.startswith("target.") else f"target: {message}") from None

    # -- run -------------------------------------------------------------------
    r = _Block(parser, "run")
    if "m" not in r:
        raise ConfigError("run.M: required")
    M = _order("M", r["m"])
    raw_checks = [c.strip() for c in r.get("checks", "").split(",") if c.strip()]
    seen = []
    for name in raw_checks:
        if name not in CHECK_NAMES:
            raise ConfigError(
                f"run.checks: unknown check {name!r}; valid names: {', '.join(CHECK_NAMES)}"
            )
        if name not in seen:
            seen.append(name)
    output = _Block(parser, "output")
    cfg = ExperimentConfig(
        surface=surface,
        target=target,
        target_family=family,
        target_params=params,
        M=M,
        checks=tuple(seen),
        seed=_seed("run", "seed", r.get("seed", "0")),
        l2_tolerance=_positive("run", "l2_tolerance", r.get("l2_tolerance", "1e-6")),
        sup_tolerance=_positive("run", "sup_tolerance", r.get("sup_tolerance", "1e-6")),
        pole_orders=_order("pole_orders", r.get("pole_orders", "4"), PRINCIPAL_RADIUS),
        translation=(_complex("run", "translation", r["translation"]) if "translation" in r
                     else complex(surface.geometry.translation)),
        condition_limit=_positive("run", "condition_limit",
                                  r.get("condition_limit", str(CONDITION_LIMIT))),
        probe_radius=(_positive("run", "probe_radius", r["probe_radius"])
                      if "probe_radius" in r else None),
        strict=_bool("run", "strict", r.get("strict", "false")),
        out_dir=output.get("directory"),
    )
    r.reject_unread()
    output.reject_unread()
    # the run would refuse these only after the solve, naming no key
    if cfg.probe_radius is not None:
        try:
            surface.require_clear(probe_ring(cfg), surface.geometry.probe_margin, "probe point z")
        except ValidationError as exc:
            raise ConfigError(f"run.probe_radius: {exc}") from None
    if "invariance" in cfg.checks:
        try:
            surface.translated(cfg.translation)
        except ValidationError as exc:
            raise ConfigError(f"run.translation: {exc}") from None
    return cfg
