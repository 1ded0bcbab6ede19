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

Every report embeds the resolved configuration, so a run is reproducible from
its own output.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Optional, Tuple, Union

from .dynamics import OdeSettings
from .ensemble import (DEFAULT_ACTIVE_VOLUME, DEFAULT_MODE_INDEX, Ensemble,
                       sample_ensemble)
from .errors import ValidationError
from .model import DimensionlessParams, PhysicalParams, ruby_params


def _keys(cls) -> set:
    return {f.name for f in fields(cls)}


# the INI keys of [physical], [dimensionless] and [run] are the fields of the
# dataclasses they build, each parameter key required; [ensemble]'s are
# RunConfig's
_PARAM_KEYS = {"physical": _keys(PhysicalParams),
               "dimensionless": _keys(DimensionlessParams)}
_RUN_KEYS = _keys(OdeSettings)


def _triple(raw: str, name: str, cast=float) -> Tuple:
    parts = [p.strip() for p in raw.replace("(", "").replace(")", "").split(",")]
    if len(parts) != 3:
        raise ValidationError(f"{name} must be a comma-separated triple, got {raw!r}")
    try:
        return tuple(cast(p) for p in parts)
    except ValueError as exc:
        raise ValidationError(f"bad {name}: {exc}") from exc


def _floats(section, keys):
    out = {}
    for key in sorted(keys):  # the first bad key named is the same on every run
        if key in section:
            try:
                out[key] = float(section[key])
            except ValueError as exc:
                raise ValidationError(f"bad value for {key}: {exc}") from exc
    return out


def _count(value: float, key: str) -> int:
    if not math.isfinite(value):
        raise ValidationError(f"{key} must be finite, got {value!r}")
    count = int(value)
    if count != value:
        raise ValidationError(f"{key} must be a whole number, got {value!r}")
    return count


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: parameters, ensemble spec, solver options."""

    params: Union[PhysicalParams, DimensionlessParams]
    hypothesis: str = "H1"
    n: int = 100
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


_ENSEMBLE_KEYS = _keys(RunConfig) - {"params", "settings"}


def _check_keys(section, allowed, name):
    extra = set(section.keys()) - allowed
    if extra:
        raise ValidationError(f"unknown keys in [{name}]: {sorted(extra)}")


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
    has_dim = parser.has_section("dimensionless")
    if has_phys == has_dim:
        raise ValidationError(
            "config must contain exactly one of [physical] or [dimensionless]")

    kind = "physical" if has_phys else "dimensionless"
    sec, keys = parser[kind], _PARAM_KEYS[kind]
    _check_keys(sec, keys, kind)
    missing = keys - set(sec.keys())
    if missing:
        raise ValidationError(f"[{kind}] missing keys: {sorted(missing)}")
    vals = _floats(sec, keys - {"cavity_dims"})
    if has_phys:
        params = PhysicalParams(**vals, cavity_dims=_triple(sec["cavity_dims"], "cavity_dims"))
    else:
        params = DimensionlessParams(**{**vals, "n": _count(vals["n"], "n")})

    ens = parser["ensemble"] if parser.has_section("ensemble") else {}
    if ens:
        _check_keys(ens, _ENSEMBLE_KEYS, "ensemble")
    hypothesis = ens.get("hypothesis", "H1").strip()
    if hypothesis not in ("H1", "H2"):
        raise ValidationError(f"hypothesis must be H1 or H2, got {hypothesis!r}")
    n_default = params.n if isinstance(params, DimensionlessParams) \
        else int(min(params.molecule_count, 10 ** 6))
    spec = _floats(ens, {"n", "seed", "rescale_alpha_to_s", "active_volume"})
    spec["hypothesis"] = hypothesis
    spec["n"] = _count(spec.get("n", n_default), "n")
    spec["seed"] = _count(spec.get("seed", 0), "seed")
    if seed_override is not None:
        spec["seed"] = int(seed_override)
    for key, cast in (("mode_index", int), ("crystal_axis", float)):
        if key in ens:
            spec[key] = _triple(ens[key], key, cast)

    run = parser["run"] if parser.has_section("run") else {}
    if run:
        _check_keys(run, _RUN_KEYS, "run")
    settings = OdeSettings(**_floats(run, _RUN_KEYS))
    return RunConfig(params=params, settings=settings, **spec)


def paper_preset(seed: int = 0) -> RunConfig:
    """Ruby-laser constants with a desk-sized ensemble (N = 1000) rescaled to
    S = 1e-5."""
    return RunConfig(
        params=ruby_params(), hypothesis="H1", n=1000, seed=seed,
        rescale_alpha_to_s=1e-5,
    )
