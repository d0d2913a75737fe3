"""Run-configuration parsing: strict JSON schema, presets, object builders.

Unknown keys are always an error; every diagnostic carries the dotted path
of the offending field.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cones import Antinorm, Cone, LorentzCone, LorentzSqrt, MinOfLinear, \
    PolyhedralCone, ZeroAntinorm, _check_antinorm_dim, _check_cone_dim
from .errors import ConfigError
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


def _array(section: dict, path: str, key: str, ndim: int) -> np.ndarray:
    """The finite numeric vector (ndim 1) or matrix (ndim 2) under ``key``."""
    noun, field = ("vector", "matrix")[ndim - 1], f"{path}.{key}"
    try:
        a = np.asarray(section.get(key), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"not a numeric {noun}: {exc}", field=field)
    if a.ndim != ndim or not np.all(np.isfinite(a)):
        raise ConfigError(f"must be a finite {ndim}-d {noun}", field=field)
    return a


@contextmanager
def _under(path: str):
    """A ``ValueError`` raised inside, other than a ConfigError, becomes a
    ConfigError under ``path``."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), field=path)


def _build(section, path: str, noun: str, kinds: dict, *args):
    """The object a kinded section describes: ``section`` must be an object
    whose ``kind`` names an entry (extra keys, builder) of ``kinds``; the
    builder gets the section, its path and ``args``, and a ``ValueError`` it
    raises becomes a ConfigError under ``path``."""
    if not isinstance(section, dict) or "kind" not in section:
        raise ConfigError("expected an object with a 'kind'", field=path)
    kind = section["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {noun} kind {kind!r}", field=f"{path}.kind")
    keys, builder = kinds[kind]
    _require_keys(section, {"kind", *keys}, path)
    with _under(path):
        return builder(section, path, *args)


def _abelian(section: dict, path: str) -> GroupModel:
    if "dim" not in section:
        raise ConfigError("abelian model needs 'dim'", field=f"{path}.dim")
    return AbelianGroup(_integer(section["dim"], f"{path}.dim", 1, MAX_DIM))


def _carnot(section: dict, path: str) -> GroupModel:
    if "structure_file" in section:
        source = _string(section["structure_file"], f"{path}.structure_file")
        try:
            return CarnotGroup(load_structure_constants(source))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load structure constants: {exc}",
                              field=f"{path}.structure_file")
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


def _hyperbolic_ab(section: dict, path: str, model: GroupModel) -> TimeForm:
    if not isinstance(model, HyperbolicPlane):
        raise ConfigError("hyperbolic_ab requires the hyperbolic model",
                          field=f"{path}.kind")
    return HyperbolicAB(_number(section.get("a", 0.0), f"{path}.a"),
                        _number(section.get("b", 1.0), f"{path}.b"))


# kind -> (its keys besides 'kind', builder(section, path, *args))
_MODELS = {
    "abelian": ({"dim"}, _abelian),
    "hyperbolic": ((), lambda s, p: HyperbolicPlane()),
    "carnot": ({"builtin", "r", "structure_file"}, _carnot),
}
_CONES = {
    "polyhedral": ({"generators"},
                   lambda s, p: PolyhedralCone(_array(s, p, "generators", 2))),
    "lorentz": ({"form", "nappe_selector"}, lambda s, p: LorentzCone(
        _array(s, p, "form", 2), _array(s, p, "nappe_selector", 1))),
    "linear_image": ({"base", "map"}, lambda s, p: build_cone(
        s.get("base"), f"{p}.base").image(_array(s, p, "map", 2))),
}
_ANTINORMS = {
    "lorentz_sqrt": ({"form"}, lambda s, p: LorentzSqrt(_array(s, p, "form", 2))),
    "min_of_linear": ({"family"}, lambda s, p: MinOfLinear(_array(s, p, "family", 2))),
    "zero": ((), lambda s, p: ZeroAntinorm()),
}
_TIMEFORMS = {
    "left_invariant": ({"tau0"}, lambda s, p, model: LeftInvariantForm(
        _array(s, p, "tau0", 1), model)),
    "hyperbolic_ab": ({"a", "b"}, _hyperbolic_ab),
}


def build_cone(section: dict, path: str = "cone") -> Cone:
    return _build(section, path, "cone", _CONES)


@dataclass
class RunConfig:
    """A validated configuration: the domain objects it names, built and
    checked against one another (the cone against the model's controls, the
    antinorm against the cone), and the run's sizes, seeds and options.  A
    section the config leaves out is None."""

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

    def require(self, subcommand: str, *sections: str) -> None:
        """ConfigError under the first of ``sections`` the config lacks."""
        missing = [name for name in sections
                   if getattr(self, "x0" if name == "endpoints" else name) is None]
        if missing:
            raise ConfigError(f"{subcommand} needs {', '.join(missing)}",
                              field=missing[0])

    def instance(self) -> ProblemInstance:
        self.require("solve", "model", "cone", "antinorm", "endpoints")
        try:
            return ProblemInstance(self.model, self.cone, self.antinorm,
                                   self.x0, self.x1, self.segments)
        except ValueError as exc:   # InvalidPointError is a ValueError too
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
        if not isinstance(preset_name, str) or preset_name not in PRESETS:
            raise ConfigError(f"unknown preset {preset_name!r} "
                              f"(available: {sorted(PRESETS)})", field="preset")
        base = dict(PRESETS[preset_name])
        base.update(merged)   # explicit keys override the preset
        merged = base

    cfg = RunConfig()
    if "model" in merged:
        cfg.model = _build(merged["model"], "model", "model", _MODELS)
    if "cone" in merged:
        cfg.cone = build_cone(merged["cone"])
        if cfg.model is not None:
            with _under("cone"):
                _check_cone_dim(cfg.cone, cfg.model)
    if "antinorm" in merged:
        cfg.antinorm = _build(merged["antinorm"], "antinorm", "antinorm", _ANTINORMS)
        if cfg.cone is not None:
            with _under("antinorm"):
                _check_antinorm_dim(cfg.antinorm, cfg.cone)
    if "timeform" in merged:
        if cfg.model is None:
            raise ConfigError("timeform needs a model", field="timeform")
        cfg.timeform = _build(merged["timeform"], "timeform", "timeform", _TIMEFORMS,
                              cfg.model)
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
            vec = _array(section, "endpoints", name, 1)
            with _under(f"endpoints.{name}"):
                setattr(cfg, name, cfg.model.validate_point(vec))

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
