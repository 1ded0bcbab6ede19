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
from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from .dynamics import OdeSettings
from .ensemble import Ensemble, sample_ensemble
from .errors import ValidationError
from .model import DimensionlessParams, PhysicalParams, ruby_params

_PHYSICAL_KEYS = {
    "pump_frequency", "pump_amplitude", "dipole_magnitude", "conductivity",
    "cavity_dims", "active_volume", "molecule_count", "mode_index",
}
_DIMENSIONLESS_KEYS = {"kappa", "alpha_scale", "beta_scale", "gamma_scale", "n"}
_ENSEMBLE_KEYS = {
    "hypothesis", "n", "seed", "mode_index", "rescale_alpha_to_s",
    "crystal_axis", "active_volume",
}
_RUN_KEYS = {"rel_tol", "abs_tol", "max_step", "method", "verdict_tol"}


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
    for key in keys:
        if key in section:
            try:
                out[key] = float(section[key])
            except ValueError as exc:
                raise ValidationError(f"bad value for {key}: {exc}") from exc
    return out


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration: parameters, ensemble spec, solver options."""

    params: Union[PhysicalParams, DimensionlessParams]
    hypothesis: str = "H1"
    n: int = 100
    seed: int = 0
    mode_index: Optional[Tuple[int, int, int]] = None
    rescale_alpha_to_s: Optional[float] = None
    crystal_axis: Optional[Tuple[float, float, float]] = None
    active_volume: Optional[float] = None
    settings: OdeSettings = field(default_factory=OdeSettings)
    verdict_tol: float = 1e-9

    def build_ensemble(self, seed: Optional[int] = None) -> Ensemble:
        return sample_ensemble(
            self.params, self.hypothesis, self.seed if seed is None else seed,
            n=self.n, mode_index=self.mode_index,
            crystal_axis=self.crystal_axis,
            rescale_alpha_to_s=self.rescale_alpha_to_s,
            active_volume=self.active_volume,
        )

    @property
    def kappa(self) -> float:
        if isinstance(self.params, PhysicalParams):
            return self.params.kappa
        return self.params.kappa

    def describe(self) -> dict:
        """Plain dictionary for embedding into report files."""
        if isinstance(self.params, PhysicalParams):
            params = {
                "kind": "physical",
                "pump_frequency": self.params.pump_frequency,
                "pump_amplitude": self.params.pump_amplitude,
                "dipole_magnitude": self.params.dipole_magnitude,
                "conductivity": self.params.conductivity,
                "cavity_dims": list(self.params.cavity_dims),
                "active_volume": self.params.active_volume,
                "molecule_count": self.params.molecule_count,
                "mode_index": list(self.params.mode_index),
            }
        else:
            params = {
                "kind": "dimensionless",
                "kappa": self.params.kappa,
                "alpha_scale": self.params.alpha_scale,
                "beta_scale": self.params.beta_scale,
                "gamma_scale": self.params.gamma_scale,
                "n": self.params.N,
            }
        return {
            "params": params,
            "ensemble": {
                "hypothesis": self.hypothesis, "n": self.n, "seed": self.seed,
                "mode_index": list(self.mode_index) if self.mode_index else None,
                "rescale_alpha_to_s": self.rescale_alpha_to_s,
                "crystal_axis": list(self.crystal_axis) if self.crystal_axis else None,
                "active_volume": self.active_volume,
            },
            "run": {
                "rel_tol": self.settings.rel_tol, "abs_tol": self.settings.abs_tol,
                "method": self.settings.method, "verdict_tol": self.verdict_tol,
            },
        }


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

    if has_phys:
        sec = parser["physical"]
        _check_keys(sec, _PHYSICAL_KEYS, "physical")
        required = {"pump_frequency", "pump_amplitude", "dipole_magnitude",
                    "conductivity", "cavity_dims", "active_volume",
                    "molecule_count"}
        missing = required - set(sec.keys())
        if missing:
            raise ValidationError(f"[physical] missing keys: {sorted(missing)}")
        vals = _floats(sec, required - {"cavity_dims"})
        params = PhysicalParams(
            pump_frequency=vals["pump_frequency"],
            pump_amplitude=vals["pump_amplitude"],
            dipole_magnitude=vals["dipole_magnitude"],
            conductivity=vals["conductivity"],
            cavity_dims=_triple(sec["cavity_dims"], "cavity_dims"),
            active_volume=vals["active_volume"],
            molecule_count=vals["molecule_count"],
            mode_index=_triple(sec["mode_index"], "mode_index", int)
            if "mode_index" in sec else (4, 1, 1),
        )
    else:
        sec = parser["dimensionless"]
        _check_keys(sec, _DIMENSIONLESS_KEYS, "dimensionless")
        missing = _DIMENSIONLESS_KEYS - set(sec.keys())
        if missing:
            raise ValidationError(f"[dimensionless] missing keys: {sorted(missing)}")
        vals = _floats(sec, _DIMENSIONLESS_KEYS - {"n"})
        params = DimensionlessParams(
            kappa=vals["kappa"], alpha_scale=vals["alpha_scale"],
            beta_scale=vals["beta_scale"], gamma_scale=vals["gamma_scale"],
            N=int(float(sec["n"])),
        )

    ens = parser["ensemble"] if parser.has_section("ensemble") else {}
    if ens:
        _check_keys(ens, _ENSEMBLE_KEYS, "ensemble")
    hypothesis = ens.get("hypothesis", "H1").strip()
    if hypothesis not in ("H1", "H2"):
        raise ValidationError(f"hypothesis must be H1 or H2, got {hypothesis!r}")
    n_default = params.N if isinstance(params, DimensionlessParams) \
        else int(min(params.molecule_count, 10 ** 6))
    n = int(float(ens.get("n", n_default)))
    seed = int(float(ens.get("seed", 0)))
    if seed_override is not None:
        seed = int(seed_override)

    run = parser["run"] if parser.has_section("run") else {}
    if run:
        _check_keys(run, _RUN_KEYS, "run")
    vals = _floats(run, _RUN_KEYS - {"method"})
    settings = OdeSettings(
        rel_tol=vals.get("rel_tol", 1e-10),
        abs_tol=vals.get("abs_tol", 1e-10),
        max_step=vals.get("max_step", float("inf")),
        method=run.get("method", "DOP853").strip(),
    )
    verdict_tol = vals.get("verdict_tol", 1e-9)
    if not verdict_tol >= 0.0:
        raise ValidationError(f"verdict_tol must be >= 0, got {verdict_tol!r}")

    return RunConfig(
        params=params, hypothesis=hypothesis, n=n, seed=seed,
        mode_index=_triple(ens["mode_index"], "mode_index", int)
        if "mode_index" in ens else None,
        rescale_alpha_to_s=float(ens["rescale_alpha_to_s"])
        if "rescale_alpha_to_s" in ens else None,
        crystal_axis=_triple(ens["crystal_axis"], "crystal_axis")
        if "crystal_axis" in ens else None,
        active_volume=float(ens["active_volume"])
        if "active_volume" in ens else None,
        settings=settings,
        verdict_tol=verdict_tol,
    )


def paper_preset(n: int = 1000, seed: int = 0,
                 rescale_alpha_to_s: Optional[float] = 1e-5) -> RunConfig:
    """Ruby-laser constants with a desk-sized rescaled ensemble."""
    return RunConfig(
        params=ruby_params(), hypothesis="H1", n=n, seed=seed,
        rescale_alpha_to_s=rescale_alpha_to_s,
    )
