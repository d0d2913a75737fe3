"""Run-configuration parsing: strict JSON schema, presets, object builders.

Unknown keys are always an error; every diagnostic carries the dotted path
of the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cones import Antinorm, Cone, LorentzCone, LorentzSqrt, MinOfLinear, \
    PolyhedralCone, ZeroAntinorm
from .errors import ConfigError, InvalidPointError
from .groups import (
    AbelianGroup,
    CarnotGroup,
    GroupModel,
    HyperbolicPlane,
    MAX_DIM,
    heisenberg_algebra,
    load_structure_constants,
    minkowski_area_algebra,
)
from .presets import PRESETS
from .solver import ProblemInstance, SolveOptions
from .timeform import HyperbolicAB, LeftInvariantForm, TimeForm

SCHEMA_VERSION = 1

_TOP_KEYS = {"version", "preset", "model", "cone", "antinorm", "timeform",
             "endpoints", "segments", "solver", "samples", "seed", "output"}
_SOLVER_KEYS = {"tol", "max_iter", "restarts", "seed", "inner_iter"}


def _require_keys(section: dict, allowed: set, path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} (allowed: {sorted(allowed)})",
                              field=f"{path}.{key}" if path else key)


def _integer(value, path: str, minimum: int, maximum: Optional[int] = None) -> int:
    """A JSON integer (not a bool) of at least ``minimum`` and, when given, at
    most ``maximum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"must be an integer >= {minimum}", field=path)
    if maximum is not None and value > maximum:
        raise ConfigError(f"must be at most {maximum}", field=path)
    return value


def _number(value, path: str, positive: bool = False) -> float:
    """A finite JSON number (not a bool), > 0 when ``positive``."""
    number = np.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:   # an integer beyond the float range
            pass
    if not np.isfinite(number) or (positive and number <= 0):
        raise ConfigError("must be a finite number" + (" > 0" if positive else ""),
                          field=path)
    return number


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError("must be a string", field=path)
    return value


def _matrix(value, path: str) -> np.ndarray:
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"not a numeric matrix: {exc}", field=path)
    if m.ndim != 2 or not np.all(np.isfinite(m)):
        raise ConfigError("must be a finite 2-d matrix", field=path)
    return m


def _vector(value, path: str) -> np.ndarray:
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"not a numeric vector: {exc}", field=path)
    if v.ndim != 1 or not np.all(np.isfinite(v)):
        raise ConfigError("must be a finite 1-d vector", field=path)
    return v


def build_model(section: dict, path: str = "model") -> GroupModel:
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("expected an object with a 'kind'", field=path)
    kind = section["kind"]
    if kind == "abelian":
        _require_keys(section, {"kind", "dim"}, path)
        if "dim" not in section:
            raise ConfigError("abelian model needs 'dim'", field=f"{path}.dim")
        return AbelianGroup(_integer(section["dim"], f"{path}.dim", 1, MAX_DIM))
    if kind == "hyperbolic":
        _require_keys(section, {"kind"}, path)
        return HyperbolicPlane()
    if kind == "carnot":
        _require_keys(section, {"kind", "builtin", "r", "structure_file"}, path)
        if "structure_file" in section:
            source = _string(section["structure_file"], f"{path}.structure_file")
            try:
                algebra = load_structure_constants(source)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot load structure constants: {exc}",
                                  field=f"{path}.structure_file")
            return CarnotGroup(algebra)
        builtin = section.get("builtin")
        if builtin == "heisenberg":
            return CarnotGroup(heisenberg_algebra())
        if builtin == "minkowski_area":
            # minkowski_area(r) has dimension 2 r + 1
            r = _integer(section.get("r", 1), f"{path}.r", 1, (MAX_DIM - 1) // 2)
            return CarnotGroup(minkowski_area_algebra(r))
        raise ConfigError(f"unknown builtin {builtin!r} "
                          "(use 'heisenberg', 'minkowski_area', or a structure_file)",
                          field=f"{path}.builtin")
    raise ConfigError(f"unknown model kind {kind!r}", field=f"{path}.kind")


def build_cone(section: dict, path: str = "cone") -> Cone:
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("expected an object with a 'kind'", field=path)
    kind = section["kind"]
    try:
        if kind == "polyhedral":
            _require_keys(section, {"kind", "generators"}, path)
            return PolyhedralCone(_matrix(section.get("generators"),
                                          f"{path}.generators"))
        if kind == "lorentz":
            _require_keys(section, {"kind", "form", "nappe_selector"}, path)
            return LorentzCone(_matrix(section.get("form"), f"{path}.form"),
                               _vector(section.get("nappe_selector"),
                                       f"{path}.nappe_selector"))
        if kind == "linear_image":
            _require_keys(section, {"kind", "base", "map"}, path)
            return build_cone(section.get("base"), f"{path}.base").image(
                _matrix(section.get("map"), f"{path}.map"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), field=path)
    raise ConfigError(f"unknown cone kind {kind!r}", field=f"{path}.kind")


def build_antinorm(section: dict, path: str = "antinorm"):
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("expected an object with a 'kind'", field=path)
    kind = section["kind"]
    try:
        if kind == "lorentz_sqrt":
            _require_keys(section, {"kind", "form"}, path)
            return LorentzSqrt(_matrix(section.get("form"), f"{path}.form"))
        if kind == "min_of_linear":
            _require_keys(section, {"kind", "family"}, path)
            return MinOfLinear(_matrix(section.get("family"), f"{path}.family"))
        if kind == "zero":
            _require_keys(section, {"kind"}, path)
            return ZeroAntinorm()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), field=path)
    raise ConfigError(f"unknown antinorm kind {kind!r}", field=f"{path}.kind")


def build_timeform(section: dict, model: GroupModel, path: str = "timeform"
                   ) -> TimeForm:
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("expected an object with a 'kind'", field=path)
    kind = section["kind"]
    try:
        if kind == "left_invariant":
            _require_keys(section, {"kind", "tau0"}, path)
            return LeftInvariantForm(_vector(section.get("tau0"), f"{path}.tau0"),
                                     model)
        if kind == "hyperbolic_ab":
            _require_keys(section, {"kind", "a", "b"}, path)
            if not isinstance(model, HyperbolicPlane):
                raise ConfigError("hyperbolic_ab requires the hyperbolic model",
                                  field=f"{path}.kind")
            return HyperbolicAB(_number(section.get("a", 0.0), f"{path}.a"),
                                _number(section.get("b", 1.0), f"{path}.b"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), field=path)
    raise ConfigError(f"unknown timeform kind {kind!r}", field=f"{path}.kind")


@dataclass
class RunConfig:
    """Validated configuration with lazily built domain objects."""

    model: Optional[GroupModel] = None
    cone: Optional[Cone] = None
    antinorm: Optional[Antinorm] = None
    timeform: Optional[TimeForm] = None
    x0: Optional[np.ndarray] = None
    x1: Optional[np.ndarray] = None
    segments: int = 50
    samples: int = 1000
    seed: int = 0
    solver_options: SolveOptions = SolveOptions()
    output_dir: Optional[str] = None

    def instance(self) -> ProblemInstance:
        missing = [name for name, val in [("model", self.model), ("cone", self.cone),
                                          ("antinorm", self.antinorm),
                                          ("endpoints", self.x0)] if val is None]
        if missing:
            raise ConfigError(f"solve needs {', '.join(missing)}", field=missing[0])
        try:
            return ProblemInstance(self.model, self.cone, self.antinorm,
                                   self.x0, self.x1, self.segments)
        except (ValueError, InvalidPointError) as exc:
            # the cone and antinorm checks name their component first
            subject = str(exc).split(" ", 1)[0]
            raise ConfigError(str(exc), field=subject if subject in ("cone", "antinorm")
                              else "endpoints")


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}")
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level must be an object")
    _require_keys(raw, _TOP_KEYS, "")
    if raw.get("version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported or missing version "
                          f"(expected {SCHEMA_VERSION})", field="version")

    merged = dict(raw)
    preset_name = merged.pop("preset", None)
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(f"unknown preset {preset_name!r} "
                              f"(available: {sorted(PRESETS)})", field="preset")
        base = dict(PRESETS[preset_name])
        base.update(merged)   # explicit keys override the preset
        merged = base

    cfg = RunConfig()
    if "model" in merged:
        cfg.model = build_model(merged["model"])
    if "cone" in merged:
        cfg.cone = build_cone(merged["cone"])
    if "antinorm" in merged:
        cfg.antinorm = build_antinorm(merged["antinorm"])
    if "timeform" in merged:
        if cfg.model is None:
            raise ConfigError("timeform needs a model", field="timeform")
        cfg.timeform = build_timeform(merged["timeform"], cfg.model)
    if "endpoints" in merged:
        section = merged["endpoints"]
        if not isinstance(section, dict):
            raise ConfigError("expected an object", field="endpoints")
        _require_keys(section, {"x0", "x1"}, "endpoints")
        if cfg.model is None:
            raise ConfigError("endpoints need a model", field="endpoints")
        for name in ("x0", "x1"):
            if name not in section:
                raise ConfigError(f"missing {name}", field=f"endpoints.{name}")
            vec = _vector(section[name], f"endpoints.{name}")
            try:
                vec = cfg.model.validate_point(vec)
            except (ValueError, InvalidPointError) as exc:
                raise ConfigError(str(exc), field=f"endpoints.{name}")
            setattr(cfg, name, vec)

    for name, default, minimum, maximum in (("segments", 50, 1, 10_000),
                                            ("samples", 1000, 1, 1_000_000),
                                            ("seed", 0, 0, None)):
        setattr(cfg, name, _integer(merged.get(name, default), name, minimum,
                                    maximum))

    sol = merged.get("solver", {})
    if not isinstance(sol, dict):
        raise ConfigError("expected an object", field="solver")
    _require_keys(sol, _SOLVER_KEYS, "solver")
    cfg.solver_options = SolveOptions(
        tol=_number(sol.get("tol", 1e-6), "solver.tol", positive=True),
        max_iter=_integer(sol.get("max_iter", 500), "solver.max_iter", 1, 100_000),
        restarts=_integer(sol.get("restarts", 8), "solver.restarts", 1, 256),
        seed=_integer(sol.get("seed", cfg.seed), "solver.seed", 0),
        inner_iter=_integer(sol.get("inner_iter", 60), "solver.inner_iter", 1,
                            10_000))

    out = merged.get("output")
    if out is not None:
        if not isinstance(out, dict):
            raise ConfigError("expected an object", field="output")
        _require_keys(out, {"dir"}, "output")
        if "dir" in out:
            cfg.output_dir = _string(out["dir"], "output.dir")
    return cfg
