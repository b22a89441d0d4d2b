"""Sweep configs: what a sweep, structural run or estimate runs.

A sweep config describes one dataset (a plan-file directory or a synthetic
Gaussian spec), the severity and scale grids, placement modes, and the
inefficiency setup. ``load_config`` reads one from YAML and every field is
checked on construction; ``populations`` expands a campaign into its plain
configs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import yaml

from .adversary import LAYER_RATIOS, severity_grid
from .costs import canonical_kind, canonical_scaling
from .engine import RunConfig
from .errors import ConfigError, InvalidInputError

PLACEMENT_MODES = ("random", "layer", "cumulative")

_KINDS = {int: (Integral, "integers"), float: (Real, "numbers"), str: (str, "strings")}
# libyaml's parser under PyYAML's own safe constructor and resolver: the
# objects of ``yaml.safe_load``, parsed several times faster.
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


# A config class's annotations, evaluated once: ``get_type_hints`` evaluates
# every string annotation again on each call.
_type_hints = functools.cache(get_type_hints)


def _check_types(config) -> None:
    """Raise ``ConfigError`` naming the first field whose value its annotation
    does not admit.

    ``int``, ``float`` and ``str`` admit their ``_KINDS`` values, never a
    bool; ``tuple[X, ...]`` a list or tuple of X values, stored as a tuple;
    and ``X | None`` None too. Any other annotation is a class to be an
    instance of.
    """
    for key, hint in _type_hints(type(config)).items():
        value = getattr(config, key)
        hint, *optional = get_args(hint) if get_origin(hint) is UnionType else (hint,)
        if value is None and optional:
            continue
        items = (value,)
        if get_origin(hint) is tuple:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key} must be a list, got {value!r}")
            hint, items = get_args(hint)[0], tuple(value)
            object.__setattr__(config, key, items)
        kind, noun = _KINDS.get(hint, (hint, hint.__name__))
        for item in items:
            if isinstance(item, bool) or not isinstance(item, kind):
                raise ConfigError(f"{key} must hold {noun}, got {item!r}")


def _check_unique(key: str, values) -> None:
    """Refuse a grid that repeats a value: each repeat would be run and counted again."""
    if values and len(set(values)) < len(values):
        raise ConfigError(f"{key} must not repeat a value, got {list(values)}")


@dataclass(frozen=True)
class DatasetSpec:
    """Where plans come from: a directory of plan files or a Gaussian spec."""

    kind: str = "gaussian"
    name: str = ""
    plans_dir: str | None = None
    agents: int | None = None
    plans: int | None = None
    dim: int = 2
    seed: int = 0
    # Campaign grids: without agents/plans, one population per (agents, plans) pair.
    agents_grid: tuple[int, ...] | None = None
    plans_grid: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        _check_types(self)
        if self.kind not in ("gaussian", "files"):
            raise ConfigError(f"dataset kind must be 'gaussian' or 'files', got {self.kind!r}")
        if self.kind == "files" and not self.plans_dir:
            raise ConfigError("files dataset needs plans_dir")
        if self.kind == "gaussian" and not (self.agents_grid and self.plans_grid):
            if self.agents is None or self.plans is None:
                raise ConfigError("gaussian dataset needs agents and plans counts")
        if self.kind == "gaussian":
            for key, least in (("agents", 1), ("plans", 1), ("dim", 1), ("seed", 0)):
                value = getattr(self, key)
                if value is not None and value < least:
                    raise ConfigError(f"{key} must be >= {least}, got {value}")
        for key in ("agents_grid", "plans_grid"):
            _check_unique(key, getattr(self, key))
        if not self.name:
            fallback = self.kind if self.kind == "gaussian" else Path(self.plans_dir).name
            object.__setattr__(self, "name", fallback)


@dataclass(frozen=True)
class SweepConfig:
    dataset: DatasetSpec
    severities: tuple[float, ...] = field(default_factory=lambda: tuple(severity_grid()))
    scales: tuple[int, ...] | None = None
    runs_per_cell: int = 100
    placements: tuple[str, ...] = ("random",)
    inefficiency_kind: str = "variance"
    inefficiency_scaling: str = "identity"
    target_files: tuple[str, ...] = ()
    max_iterations: int = 40
    initial_selection: str = "first_plan"
    combination_cap: int = 100
    layer_ratios: tuple[int, ...] = LAYER_RATIOS
    output_dir: str = "results"
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        _check_types(self)
        # A severity is written as a float, so 1 reads back as it was written.
        object.__setattr__(self, "severities", tuple(map(float, self.severities)))
        try:
            # Kinds are compared by name from here on, so the canonical one is kept.
            object.__setattr__(self, "inefficiency_kind", canonical_kind(self.inefficiency_kind))
            canonical_scaling(self.inefficiency_scaling)
        except InvalidInputError as exc:
            raise ConfigError(f"inefficiency: {exc}") from None
        # The run settings follow RunConfig's rule; the mode keeps its canonical name.
        run = RunConfig(self.max_iterations, initial_selection=self.initial_selection)
        object.__setattr__(self, "initial_selection", run.initial_selection)
        if self.runs_per_cell < 1:
            raise ConfigError(f"runs_per_cell must be >= 1, got {self.runs_per_cell}")
        if not self.severities:
            raise ConfigError("severity grid must be non-empty")
        for b in self.severities:
            if not 0.0 < b <= 1.0:
                raise ConfigError(f"severities must lie in (0, 1], got {b}")
        if self.scales is not None and not self.scales:
            raise ConfigError("scale grid must be non-empty when given")
        for key in ("severities", "scales"):
            _check_unique(key, getattr(self, key))
        for mode in self.placements:
            if mode not in PLACEMENT_MODES:
                raise ConfigError(f"unknown placement mode {mode!r}")
        for p in self.layer_ratios:
            if p not in LAYER_RATIOS:
                raise ConfigError(f"layer_ratios must lie in {LAYER_RATIOS}, got {p}")
        if self.inefficiency_kind == "rss" and not self.target_files:
            raise ConfigError("rss inefficiency needs at least one target file")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.combination_cap < 1:
            raise ConfigError(f"combination_cap must be >= 1, got {self.combination_cap}")


def load_config(
    path: str | Path,
    workdir: str | Path | None = None,
    master_seed: int | None = None,
) -> SweepConfig:
    """Parse a YAML sweep config; relative paths resolve against ``workdir``.

    Each section goes to its dataclass by field name; a key left out takes
    the field's default, and an unknown key in any section raises.
    """
    path = Path(path)
    base = Path(workdir) if workdir is not None else path.parent
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a mapping")
    ds, ineff = raw.pop("dataset", None), raw.pop("inefficiency", None) or {}
    if not isinstance(ds, dict) or not isinstance(ineff, dict):
        raise ConfigError("config needs a dataset mapping, and inefficiency must be one too")
    # The inefficiency keys and the SweepConfig fields they fill.
    nested = {"kind": "inefficiency_kind", "scaling": "inefficiency_scaling",
              "target_files": "target_files"}
    for section, values, known in (
        ("config", raw, {f.name for f in fields(SweepConfig)} - {*nested.values()}),
        ("dataset", ds, {f.name for f in fields(DatasetSpec)}),
        ("inefficiency", ineff, {*nested, "target_file"}),
    ):
        stray = set(values) - known
        if stray:
            raise ConfigError(f"unknown {section} keys: {sorted(stray, key=str)}")

    def resolve(p):
        # A path of another type is left for the dataclass to reject.
        return str(base / p) if isinstance(p, str) else p

    targets = ineff.get("target_files", [])
    if isinstance(targets, list):
        # ``target_file`` names one more target.
        alias = [ineff["target_file"]] if "target_file" in ineff else []
        ineff["target_files"] = [resolve(t) for t in targets + alias]
    raw.update((name, ineff[key]) for key, name in nested.items() if key in ineff)
    if "plans_dir" in ds:
        ds["plans_dir"] = resolve(ds["plans_dir"])
    raw["output_dir"] = resolve(raw.get("output_dir", SweepConfig.output_dir))
    if master_seed is not None:
        raw["master_seed"] = master_seed
    return SweepConfig(dataset=DatasetSpec(**ds), **raw)


def populations(cfg: SweepConfig) -> list[SweepConfig]:
    """A campaign's plain configs, one per (agents, plans) pair of its grids with agents
    outer; a files dataset or one with ``agents`` and ``plans`` is its own one population."""
    ds = cfg.dataset
    if ds.kind == "files" or None not in (ds.agents, ds.plans):
        return [cfg]
    return [
        replace(cfg, dataset=replace(ds, agents=a, plans=k, agents_grid=None, plans_grid=None))
        for a, k in itertools.product(ds.agents_grid, ds.plans_grid)
    ]
