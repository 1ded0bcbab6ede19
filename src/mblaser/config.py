"""Run configuration: INI files with [physical]/[dimensionless]/[ensemble]/[run].

Exactly one of the two parameter sections must be present.  Example::

    [dimensionless]
    kappa = 1e-7
    alpha_scale = 1.12e-23
    beta_scale = 1.82e-2
    gamma_scale = 2.15e-7
    n = 1000

    [ensemble]
    hypothesis = H1
    n = 1000
    seed = 7
    mode_index = 4, 1, 1
    rescale_alpha_to_s = 1e-5

    [run]
    rel_tol = 1e-10
    abs_tol = 1e-10

The keys of [physical], [dimensionless], [ensemble] and [run] are the fields
of PhysicalParams, DimensionlessParams, RunConfig and OdeSettings, each read
as its field's annotated type.  Parameter keys are required; others default
as their fields do, except [ensemble] n: [dimensionless] n, which it may only
restate, or min(molecule_count, 10^6).  Every report embeds the resolved
configuration, so a run is reproducible from its own output.
"""
from __future__ import annotations

import configparser
import functools
import math
from dataclasses import asdict, dataclass, field
from typing import (Optional, Tuple, Union, get_args, get_origin,
                    get_type_hints)

from .dynamics import OdeSettings
from .ensemble import (DEFAULT_ACTIVE_VOLUME, DEFAULT_MODE_INDEX, Ensemble,
                       sample_ensemble)
from .errors import ValidationError
from .model import DimensionlessParams, PhysicalParams, ruby_params


#: a schema class's fields and their resolved annotations, cached: resolving
#: them costs about 0.1 ms a class, more than the rest of a section's parse
_hints = functools.cache(get_type_hints)


def _cast(raw: str, key: str, kind):
    """``raw`` read as the annotated type ``kind``: str is stripped, float is
    a real, int a whole number read as a real, Tuple[X, X, X] a
    comma-separated triple of X, and Optional[X] is read as X."""
    if get_origin(kind) is Union:
        kind = get_args(kind)[0]
    if get_origin(kind) is tuple:
        parts = [p.strip() for p in raw.replace("(", "").replace(")", "").split(",")]
        if len(parts) != 3:
            raise ValidationError(f"{key} must be a comma-separated triple, got {raw!r}")
        try:
            return tuple(get_args(kind)[0](p) for p in parts)
        except ValueError as exc:
            raise ValidationError(f"bad {key}: {exc}") from exc
    if kind is str:
        return raw.strip()
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValidationError(f"bad value for {key}: {exc}") from exc
    if kind is int:
        if not math.isfinite(value):
            raise ValidationError(f"{key} must be finite, got {value!r}")
        if int(value) != value:
            raise ValidationError(f"{key} must be a whole number, got {value!r}")
        value = int(value)
    return value


def _section(parser, name: str, cls, keys=None, required=False) -> dict:
    """The keys section [name] sets (``keys``, else all of ``cls``'s fields),
    each cast by the annotation of its field.  Unknown keys are refused, then
    missing ones, then bad values in sorted order: the same key on every run."""
    keys = _hints(cls).keys() if keys is None else keys
    sec = parser[name] if parser.has_section(name) else {}
    if set(sec) - keys:
        raise ValidationError(f"unknown keys in [{name}]: {sorted(set(sec) - keys)}")
    if required and keys - set(sec):
        raise ValidationError(f"[{name}] missing keys: {sorted(keys - set(sec))}")
    return {key: _cast(sec[key], key, _hints(cls)[key]) for key in sorted(sec)}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: parameters, ensemble spec, solver options.
    Its fields besides ``params`` and ``settings`` are the [ensemble] keys."""

    params: Union[PhysicalParams, DimensionlessParams]
    n: int
    hypothesis: str = "H1"
    seed: int = 0
    mode_index: Tuple[int, int, int] = DEFAULT_MODE_INDEX
    rescale_alpha_to_s: Optional[float] = None
    crystal_axis: Optional[Tuple[float, float, float]] = None
    active_volume: float = DEFAULT_ACTIVE_VOLUME
    settings: OdeSettings = field(default_factory=OdeSettings)

    def _ensemble_spec(self) -> dict:
        """The [ensemble] keys and their values: the keywords of
        `sample_ensemble` that the configuration sets."""
        return {key: getattr(self, key) for key in sorted(_ENSEMBLE_KEYS)}

    def build_ensemble(self) -> Ensemble:
        return sample_ensemble(self.params, **self._ensemble_spec())

    @property
    def kappa(self) -> float:
        return self.params.kappa

    def describe(self) -> dict:
        """Plain dictionary for embedding into report files."""
        kind = "physical" if isinstance(self.params, PhysicalParams) else "dimensionless"
        run = asdict(self.settings)
        # null for the unbounded default keeps the JSON strict
        if math.isinf(run["max_step"]):
            run["max_step"] = None
        return {
            "params": {"kind": kind, **asdict(self.params)},
            "ensemble": self._ensemble_spec(),
            "run": run,
        }


_ENSEMBLE_KEYS = _hints(RunConfig).keys() - {"params", "settings"}


def load_config(path: str, seed_override: Optional[int] = None) -> RunConfig:
    """Parse and validate an INI run configuration."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValidationError(f"malformed config: {exc}") from exc
    if not read:
        raise ValidationError(f"config file not found or unreadable: {path}")

    has_phys = parser.has_section("physical")
    if has_phys == parser.has_section("dimensionless"):
        raise ValidationError(
            "config must contain exactly one of [physical] or [dimensionless]")
    kind, cls = (("physical", PhysicalParams) if has_phys
                 else ("dimensionless", DimensionlessParams))
    params = cls(**_section(parser, kind, cls, required=True))

    spec = _section(parser, "ensemble", RunConfig, _ENSEMBLE_KEYS)
    if spec.get("hypothesis") not in (None, "H1", "H2"):
        raise ValidationError(f"hypothesis must be H1 or H2, got {spec['hypothesis']!r}")
    if has_phys:
        spec.setdefault("n", int(min(params.molecule_count, 10 ** 6)))
    elif spec.setdefault("n", params.n) != params.n:
        raise ValidationError(f"[ensemble] n = {spec['n']:.12g} differs from "
                              f"[dimensionless] n = {params.n:.12g}; N takes one value")
    if seed_override is not None:
        spec["seed"] = int(seed_override)

    settings = OdeSettings(**_section(parser, "run", OdeSettings))
    return RunConfig(params=params, settings=settings, **spec)


def paper_preset(seed: int = 0) -> RunConfig:
    """Ruby-laser constants with a desk-sized ensemble (N = 1000) rescaled to
    S = 1e-5."""
    return RunConfig(params=ruby_params(), n=1000, seed=seed,
                     rescale_alpha_to_s=1e-5)
