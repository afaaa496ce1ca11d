"""Run configuration: defaults, validation, and the key=value file format.

A config file is a self-describing INI document with one section per
subsystem ([lattice], [run], [init], [weights]); every field has a default
so an empty file is a valid desk-scale run.  The mode, linear or nonlinear,
is the command that reads the file, not a key in it.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields

from .lattice import Lattice
from .weights import WeightParams

__all__ = ["ConfigError", "SimConfig", "default_config_text"]


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


@dataclass(frozen=True)
class SimConfig:
    # [lattice]
    nx: int = 32
    ny: int = 128
    nz: int = 32
    ly: float = 8.0 * math.pi
    # [run]
    mode: str = "linear"              # linear | nonlinear: set by the command, not the file
    epsilon: float = 1e-3
    dt: float = 0.1
    t_end: float = 100.0
    output_every: float = 1.0
    dealias: float = 2.0 / 3.0
    checkpoint_every: float = 0.0     # 0 = final checkpoint only; a linear run takes 0
    # [init]
    recipe: str = "random"            # single | multimode | random
    seed: int = 0
    lambda_in: float = 0.5
    init_kmax: int = 0                # index cap per axis; 0 = full dealias support
    # [weights], with WeightParams' defaults
    c_star: float = WeightParams.c_star
    s: float = WeightParams.s
    lambda_inf: float = WeightParams.lambda_inf
    delta_tilde: float = WeightParams.delta_tilde
    a: float = WeightParams.a
    sigmas: tuple[float, ...] = WeightParams.sigmas

    def __post_init__(self):
        floats = [(f.name, getattr(self, f.name)) for f in fields(self) if f.type == "float"]
        for name, val in floats + [("sigmas", v) for v in self.sigmas]:
            if not math.isfinite(val):
                raise ConfigError(f"{name} must be finite, got {val}")
        if self.mode not in ("linear", "nonlinear"):
            raise ConfigError(f"mode must be linear or nonlinear, got {self.mode!r}")
        if self.mode == "linear" and self.checkpoint_every:
            raise ConfigError("checkpoint_every must be 0: a linear run writes no checkpoints")
        if self.recipe not in ("single", "multimode", "random"):
            raise ConfigError(f"unknown init recipe {self.recipe!r}")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        # the grid is i dt: cadences of whole steps, at least one (checkpoint_every may be 0)
        names = ("t_end", "output_every") + (("checkpoint_every",) if self.checkpoint_every else ())
        for name in names:
            steps = getattr(self, name) / self.dt
            if not (0.5 < steps < math.inf and abs(steps - round(steps)) <= 1e-9):
                raise ConfigError(f"{name} must be 1, 2, 3, ... steps of dt = {self.dt}")
        if not 0.0 < self.dealias <= 1.0:
            raise ConfigError("dealias fraction must lie in (0, 1]")
        if self.epsilon < 0:
            raise ConfigError("epsilon must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        try:
            lat = self.lattice
            wp = self.weight_params
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # the exact rescale makes sum |c|^2 at most epsilon^2 / delta_eta
        if not math.isfinite(self.epsilon * self.epsilon / lat.delta_eta):
            raise ConfigError(f"epsilon = {self.epsilon} is too large: epsilon^2 / delta_eta "
                              "overflows float64")
        if wp.lambda_inf + wp.delta_tilde >= 0.9 * self.lambda_in:
            raise ConfigError(
                "lambda_inf + delta_tilde must stay below 0.9 * lambda_in "
                f"({wp.lambda_inf + wp.delta_tilde} vs {0.9 * self.lambda_in})")
        if self.init_kmax < 0:
            raise ConfigError("init_kmax must be >= 0 (0 = full dealias support)")
        cut = min(lat.nx, lat.ny, lat.nz) // 2
        if self.init_kmax > cut:
            raise ConfigError(f"init_kmax {self.init_kmax} exceeds the lattice range {cut}")

    @property
    def lattice(self) -> Lattice:
        return Lattice(self.nx, self.ny, self.nz, self.ly)

    @property
    def weight_params(self) -> WeightParams:
        return WeightParams(c_star=self.c_star, s=self.s, lambda_inf=self.lambda_inf,
                            delta_tilde=self.delta_tilde, a=self.a, sigmas=self.sigmas)

    # --- key=value round trip -------------------------------------------------

    _SECTIONS = {
        "lattice": ("nx", "ny", "nz", "ly"),
        "run": ("epsilon", "dt", "t_end", "output_every", "dealias", "checkpoint_every"),
        "init": ("recipe", "seed", "lambda_in", "init_kmax"),
        "weights": ("c_star", "s", "lambda_inf", "delta_tilde", "a", "sigmas"),
    }

    def to_text(self) -> str:
        out = io.StringIO()
        for section, names in self._SECTIONS.items():
            out.write(f"[{section}]\n")
            for name in names:
                val = getattr(self, name)
                if name == "sigmas":
                    val = ", ".join(f"{v:.17g}" for v in val)
                out.write(f"{name} = {val}\n")
            out.write("\n")
        return out.getvalue()

    @classmethod
    def from_text(cls, text: str, overrides: dict | None = None) -> "SimConfig":
        parser = configparser.ConfigParser(default_section="")   # [DEFAULT] is unknown too
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config: {exc}") from exc

        known = {f.name for f in fields(cls)}
        kwargs: dict = {}
        for section in parser.sections():
            if section not in cls._SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for name, raw in parser.items(section):
                if name not in cls._SECTIONS[section]:
                    raise ConfigError(f"unknown key {name!r} in section [{section}]")
                kwargs[name] = _parse_value(name, raw)
        if overrides:
            kwargs.update(overrides)
        unknown = set(kwargs) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "SimConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text, overrides)


# each field's annotation, as text under postponed evaluation, picks its parser
_FIELD_TYPES = {f.name: f.type for f in fields(SimConfig)}
_PARSERS = {"int": int, "str": str, "float": float,
            "tuple[float, ...]": lambda raw: tuple(float(x) for x in raw.replace(",", " ").split())}


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    try:
        return _PARSERS[_FIELD_TYPES[name]](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def default_config_text() -> str:
    return SimConfig().to_text()
