"""Run configuration: a flat key = value text file, overridable by CLI flags.

Unknown keys, malformed values and inconsistent combinations raise
ConfigError (CLI exit code 2).  Keys mirror RunConfig fields; booleans
accept true/false/1/0, and '#' starts a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from .params import step_count

__all__ = ["RunConfig", "ConfigError", "parse_config_file", "config_from_mapping"]


class ConfigError(ValueError):
    """Invalid run configuration (CLI exit code 2)."""


# initial-data kinds per dimension (solver3d.make_initial, solver25d.make_initial_25d)
_INIT_KINDS = {
    3.0: ("beltrami", "random_band", "taylor_green", "zero"),
    2.5: ("random_band", "single_mode_b3", "zero"),
}


@dataclass
class RunConfig:
    dimension: float = 3.0          # 3 or 2.5
    formulation: str = "physical"   # physical | extended (3D only)
    n: int = 32
    mu: float = 1.0
    nu: float = 1.0
    eps: float = 1.0
    dt: float = 1e-3
    t_end: float = 1.0
    sample_every: int = 10
    init_kind: str = "random_band"
    amplitude: float = 0.05
    b_amplitude: float = -1.0       # < 0: use `amplitude` (2.5D random_band B0)
    seed: int = 0
    band_lo: float = 1.0
    band_hi: float = 2.5
    filter_rho: float = 0.0         # > 0: track the high-frequency L2 split
    hall_cfl: float = 0.25
    compute_budgets: bool = False
    budget_s: float = 1.0
    snapshot_every: float = 0.0     # in time units; 0 = initial + final only
    out_dir: str = "out"
    decay_fraction: float = 1.0     # assert final/initial triple norm <= this

    def validate(self) -> "RunConfig":
        for f in dataclass_fields(self):
            x = getattr(self, f.name)
            # band_hi = inf keeps every mode, as in sampling.random_field
            if (f.type == "float" and not math.isfinite(x)
                    and not (f.name == "band_hi" and x == math.inf)):
                raise ConfigError(f"{f.name} must be finite, got {x}")
        if self.dimension not in (3.0, 2.5):
            raise ConfigError(f"dimension must be 3 or 2.5, got {self.dimension}")
        if self.formulation not in ("physical", "extended"):
            raise ConfigError(f"unknown formulation {self.formulation!r}")
        if self.formulation == "extended":
            if self.dimension != 3.0:
                raise ConfigError("the extended formulation is 3D only")
            if self.mu != self.nu:
                raise ConfigError("the extended formulation requires mu = nu")
        elif self.compute_budgets:
            raise ConfigError("compute_budgets needs the extended formulation")
        if self.dimension == 2.5 and self.filter_rho > 0:
            raise ConfigError("filter_rho is 3D only")
        if self.b_amplitude >= 0 and (self.dimension == 3.0 or self.init_kind != "random_band"):
            raise ConfigError("b_amplitude scales only 2.5D random_band data (leave it negative)")
        if self.n < 8 or self.n % 2:
            raise ConfigError(f"n must be even and >= 8, got {self.n}")
        if self.mu <= 0 or self.nu <= 0:
            raise ConfigError("mu and nu must be positive")
        if self.eps < 0:
            raise ConfigError("eps must be nonnegative")
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigError("dt and t_end must be positive")
        try:
            step_count(self.t_end, self.dt)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.sample_every < 1:
            raise ConfigError("sample_every must be >= 1")
        if not 0 < self.hall_cfl <= 1:
            raise ConfigError("hall_cfl must be in (0, 1]")
        kinds = _INIT_KINDS[self.dimension]
        if self.init_kind not in kinds:
            raise ConfigError(f"init_kind {self.init_kind!r} is not a {self.dimension:g}D "
                              f"kind; choose one of {', '.join(kinds)}")
        if self.amplitude <= 0 and self.init_kind != "zero":
            raise ConfigError("amplitude must be positive")
        if self.band_lo > self.band_hi:
            raise ConfigError(f"band_lo={self.band_lo} exceeds band_hi={self.band_hi}")
        if not 0 < self.decay_fraction <= 1:
            raise ConfigError("decay_fraction must be in (0, 1]")
        if self.filter_rho < 0:
            raise ConfigError("filter_rho must be nonnegative")
        if self.budget_s <= 0:
            raise ConfigError("budget_s must be positive")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be nonnegative")
        if self.snapshot_every > self.t_end + 1e-12:  # run()'s snapshot tolerance
            raise ConfigError("snapshot_every exceeds t_end: no periodic snapshot would be written")
        # at most one snapshot per step, so periodic ones are at least
        # max(dt, snapshot_every - dt) apart; names snap_t{t:.6f} need > 1e-6
        if self.snapshot_every > 0 and max(self.dt, self.snapshot_every - self.dt) <= 1e-6:
            raise ConfigError("snapshot times can fall within 1e-6 of each other, "
                              "and their names (t to 6 decimals) would collide")
        return self


_FIELD_TYPES = {f.name: f.type for f in dataclass_fields(RunConfig)}


def _coerce(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    if ftype == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean for {key}: {raw!r}")
    if ftype == "int":
        try:
            return int(raw)
        except ValueError as e:
            raise ConfigError(f"bad integer for {key}: {raw!r}") from e
    if ftype == "float":
        try:
            return float(raw)
        except ValueError as e:
            raise ConfigError(f"bad number for {key}: {raw!r}") from e
    return raw


def config_from_mapping(mapping: dict) -> RunConfig:
    cfg = RunConfig()
    for key, value in mapping.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown configuration key {key!r}")
        setattr(cfg, key, _coerce(key, str(value)) if isinstance(value, str) else value)
    return cfg.validate()


def parse_config_file(path) -> dict:
    """Flat key = value lines; '#' comments; blank lines ignored."""
    mapping: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = body.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping
