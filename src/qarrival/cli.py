"""Command-line interface: experiment presets with CSV/JSON emission.

Subcommands
-----------
distribution   arrival-time density Pi(tau) for a chosen eigenstate family
verify         run the operator/measurement invariant suite, emit a JSON report
measure        measurement models: conditional | crossing | zeno
spectrum       eigenstate table phi_tau(p) over the momentum grid
classical      classical oracle table (arrival, stopwatch, current moment)

Every input is a RunConfig field.  A JSON --config file may set any field;
a subcommand takes as flags only the fields it reads (_SUBCOMMANDS), and
converts and checks a flag's text like a file's value, so a bad value exits 2
with the same message from either.  A field resolves in one order: the
RunConfig default, then the preset of the measure mode (measure only), then
the file, then the flag.  Outputs are deterministic: identical configuration
produces byte-identical files; run metadata is limited to the resolved
configuration itself, from which the output can be reproduced.  Exit codes:
0 ok, 1 verification failure, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .checks import run_checks
from .numerics import GAMMA_3_4, GridSpec, PhysConsts
from .operators import (
    EigenFamily,
    distribution,
    eigenstate_values,
    kinetic_energy_density,
)
from .measurement import (
    classical_arrival,
    classical_current_moment,
    classical_stopwatch,
    conditional_distribution,
    crossing_probability,
    small_time_current_law,
)
from .states import (
    GaussianSpec,
    WaveFunction,
    make_gaussian,
    make_reflected_state,
    position_gaussian,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


_CHOICES = {
    "tau_spacing": ("linear", "log"),
    "family": tuple(sorted(f.value for f in EigenFamily)),
    "packet": ("gaussian", "reflected"),
    "mode": ("conditional", "crossing", "zeno"),
}


def _field(default, description: str):
    return field(default=default, metadata={"help": description})


@dataclass
class RunConfig:
    """Every input of a run, each field with its default and the description
    its flags show.  A --config file may set any field; a subcommand takes as
    flags only the fields it reads (_SUBCOMMANDS)."""

    p0: float = _field(10.0, "mean momentum")
    x0: float = _field(-5.0, "mean position")
    sigma_p: float = _field(1.0, "momentum width")
    mass: float = _field(1.0, "particle mass")
    hbar: float = _field(1.0, "reduced Planck constant")
    n: int = _field(1024, "momentum samples")
    p_max: float = _field(40.0, "momentum cutoff")
    tau_min: float = _field(0.0, "first tau of the window")
    tau_max: float = _field(1.0, "last tau of the window")
    tau_count: int = _field(201, "taus in the window")
    tau_spacing: str = _field("linear", "spacing of the taus")
    family: str = _field("new", "eigenstate family")
    packet: str = _field("gaussian", "initial packet")
    L: float = _field(0.2, "dwell region length")
    mode: str = _field("crossing", "measurement model")
    tau: float = _field(1.0, "eigenvalue tau")
    with_reference: bool = _field(False, "add the Kijowski density (AB's distribution) and the kinetic-energy sqrt law")
    t1: float = _field(0.8, "conditional: first detection time")
    t2: float = _field(1.05, "conditional: second detection time")
    xbar1: float = _field(4.0, "conditional: first window center")
    delta: float = _field(0.5, "conditional: window width")
    x_extent: float = _field(40.0, "conditional: packet box [0, x_extent]")
    nx: int = _field(4001, "conditional: position samples of the box")

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"config field '{f.name}': must be finite (got {value})")
        checks = [
            ("sigma_p", self.sigma_p > 0.0, "must be > 0"),
            ("mass", self.mass > 0.0, "must be > 0"),
            ("hbar", self.hbar > 0.0, "must be > 0"),
            ("n", self.n >= 4 and self.n % 2 == 0, "must be an even integer >= 4"),
            ("p_max", self.p_max > 0.0, "must be > 0"),
            ("tau_count", self.tau_count >= 2, "must be >= 2"),
            ("tau_max", self.tau_max > self.tau_min, "must exceed tau_min"),
            ("L", self.L > 0.0, "must be > 0"),
            ("t1", self.t1 > 0.0, "must be > 0"),
            ("t2", self.t2 > self.t1, "must exceed t1"),
            ("x_extent", self.x_extent > 0.0, "must be > 0"),
            ("nx", self.nx >= 3, "must be >= 3"),
        ]
        for name, ok, msg in checks:
            if not ok:
                raise ConfigError(f"config field '{name}': {msg} (got {getattr(self, name)})")
        # delta >= half the grid step puts a sample in every window and keeps the window count below ~2 nx
        half_step = 0.5 * self.x_extent / (self.nx - 1)
        if not self.delta >= half_step:
            raise ConfigError(f"config field 'delta': must be >= half the grid step {half_step!r} (got {self.delta})")
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ConfigError(f"config field '{name}': unknown value '{value}' (choose from {', '.join(choices)})")
        if self.tau_spacing == "log" and self.tau_min <= 0.0:
            raise ConfigError("config field 'tau_min': must be > 0 for log spacing")

    def consts(self) -> PhysConsts:
        return PhysConsts(self.mass, self.hbar)

    def grid(self) -> GridSpec:
        return GridSpec(self.n, self.p_max)

    def gaussian(self) -> GaussianSpec:
        return GaussianSpec(self.p0, self.x0, self.sigma_p, self.consts())

    def tau_grid(self) -> np.ndarray:
        if self.tau_spacing == "log":
            return np.geomspace(self.tau_min, self.tau_max, self.tau_count)
        return np.linspace(self.tau_min, self.tau_max, self.tau_count)

    def state(self) -> WaveFunction:
        if self.packet == "reflected":
            return make_reflected_state(self.gaussian(), self.grid())
        return make_gaussian(self.gaussian(), self.grid())


_CONFIG_FIELDS = {f.name: f for f in fields(RunConfig)}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file '{path}': {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file '{path}': top level must be an object")
    for key in raw:
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"config file '{path}': unknown field '{key}'")
    return raw


# a boolean field's flag takes true or false, and alone means true
_SWITCH = {"nargs": "?", "const": "true", "metavar": "{true,false}"}
_SWITCH_VALUES = {"true": True, "false": False}

_MODE_DEFAULTS = {
    "zeno": {"p0": 0.3, "x0": -20.0, "sigma_p": 0.125, "n": 1792, "p_max": 40.0,
             "tau_min": 0.015, "tau_max": 0.045, "tau_count": 9, "tau_spacing": "log",
             "packet": "reflected"},
    "conditional": {"p0": -10.0, "x0": 8.0, "sigma_p": 0.5},
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The validated RunConfig of parsed arguments: defaults, then the preset
    of the measure mode, then the --config file, then the flags.  A flag's
    text and a file's JSON value go through the same conversion, once a
    boolean field's flag text true or false is read as that boolean (a
    file's string never is)."""
    values = load_config(args.config) if args.config else {}
    for name, f in _CONFIG_FIELDS.items():
        flag_val = getattr(args, name, None)
        if flag_val is not None:
            values[name] = _SWITCH_VALUES.get(flag_val, flag_val) if isinstance(f.default, bool) else flag_val
    cfg = RunConfig()
    for key, val in values.items():
        default = getattr(cfg, key)
        try:
            if isinstance(default, bool):
                if not isinstance(val, bool):
                    raise ValueError("not a boolean: JSON true or false in a file, true or false after a flag")
            elif isinstance(val, bool) and isinstance(default, (int, float)):
                raise ValueError("a JSON boolean, not a number")
            elif isinstance(default, int):
                if float(val) != int(val):
                    raise ValueError("not an integer")
                val = int(val)
            elif isinstance(default, float):
                val = float(val)
            else:
                val = str(val)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"config field '{key}': cannot parse value {val!r} ({exc})") from exc
        setattr(cfg, key, val)
    # the preset of the parsed mode, which is a string whatever the file held
    preset = _MODE_DEFAULTS.get(cfg.mode, {}) if args.command == "measure" else {}
    for key, val in preset.items():
        if key not in values:
            setattr(cfg, key, val)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Output writers (deterministic, atomic)
# ---------------------------------------------------------------------------


def _atomic_write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qarrival-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_json(cfg: RunConfig) -> str:
    return json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))


def write_table(
    path: str | None,
    fmt: str,
    cfg: RunConfig,
    columns: list[str],
    rows: list[list[float]],
    checks: dict | None = None,
) -> None:
    """Write rows of Python floats as CSV (each cell its repr) or JSON."""
    if fmt == "json":
        payload = {
            "config": asdict(cfg),
            "columns": columns,
            "rows": rows,
            "checks": checks or {},
        }
        _atomic_write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")
        return
    lines = [f"# config: {_config_json(cfg)}"]
    if checks:
        lines.append(f"# checks: {json.dumps(checks, sort_keys=True, separators=(',', ':'))}")
    lines.append(",".join(columns))
    lines.extend(",".join(map(repr, row)) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_distribution(cfg: RunConfig, out: str | None, fmt: str) -> int:
    psi = cfg.state()
    taus = cfg.tau_grid()
    columns = ["tau", f"pi_{cfg.family}"]
    cols = [taus, distribution(psi, EigenFamily(cfg.family), taus)]
    if cfg.with_reference:
        _, ked_abs = kinetic_energy_density(psi)
        coef = math.pi / (2.0 * GAMMA_3_4 ** 2)
        ked_curve = coef * np.sqrt(np.abs(taus)) * ked_abs / (cfg.mass**1.5 * cfg.hbar**0.5)
        columns += ["pi_kijowski", "ked_sqrt_law"]
        # the Kijowski density is AB's distribution
        cols += [distribution(psi, EigenFamily.AB, taus), ked_curve]
    write_table(out, fmt, cfg, columns, np.column_stack(cols).tolist())
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out: str | None, fmt: str) -> int:
    checks = run_checks(cfg.grid(), cfg.gaussian(), cfg.L)
    all_pass = all(c["pass"] for c in checks)
    payload = {
        "config": asdict(cfg),
        "columns": [],
        "rows": [],
        "checks": checks,
        "all_pass": all_pass,
    }
    _atomic_write(out, json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


def cmd_measure(cfg: RunConfig, out: str | None, fmt: str) -> int:
    if cfg.mode == "crossing":
        taus = cfg.tau_grid()
        res = crossing_probability(cfg.state(), taus)
        rows = np.column_stack([taus, res.projector_form, res.current_form]).tolist()
        write_table(out, fmt, cfg, ["tau", "p_projector", "p_current"], rows)
        return EXIT_OK
    if cfg.mode == "zeno":
        taus = cfg.tau_grid()
        fit = small_time_current_law(cfg.state(), taus)
        checks = {
            "fit_exponent": fit.exponent,
            "fit_prefactor": fit.prefactor,
            "target_prefactor": 1.0 / (2.0 * math.sqrt(math.pi)),
        }
        rows = np.column_stack([taus, fit.current, fit.current / np.sqrt(taus)]).tolist()
        write_table(out, fmt, cfg, ["tau", "current", "current_over_sqrt_tau"], rows, checks)
        return EXIT_OK
    # conditional: the model propagates a Gaussian sampled in position
    if cfg.packet != "gaussian":
        raise ConfigError(f"config field 'packet': measure --mode conditional takes only 'gaussian' (got '{cfg.packet}')")
    psi = position_gaussian(cfg.gaussian(), np.linspace(0.0, cfg.x_extent, cfg.nx))
    centers = np.arange(cfg.delta, cfg.x_extent / 2.0, cfg.delta / 2.0)
    cond = conditional_distribution(psi, (cfg.xbar1, cfg.t1, cfg.delta), cfg.t2, centers, cfg.delta)
    write_table(out, fmt, cfg, ["xbar2", "p_conditional"], np.column_stack([centers, cond]).tolist())
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, out: str | None, fmt: str) -> int:
    grid = cfg.grid()
    p = grid.momenta()
    phi = eigenstate_values(EigenFamily(cfg.family), cfg.tau, p, cfg.consts())
    write_table(out, fmt, cfg, ["p", "re_phi", "im_phi"], np.column_stack([p, phi.real, phi.imag]).tolist())
    return EXIT_OK


def cmd_classical(cfg: RunConfig, out: str | None, fmt: str) -> int:
    rows = []
    for x in (-8.0, -5.0, -2.0, -0.5):
        for mom in (0.5, 1.0, 2.0, 5.0):
            rows.append(
                [
                    x,
                    mom,
                    classical_arrival(x, mom, cfg.mass),
                    classical_stopwatch(x, mom, T=200.0, m=cfg.mass),
                    classical_current_moment(x, mom, cfg.mass),
                ]
            )
    write_table(out, fmt, cfg, ["x", "p", "arrival", "stopwatch", "current_moment"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


_GAUSSIAN = ("p0", "x0", "sigma_p", "mass", "hbar")
_GRID = ("n", "p_max")
_TAUS = ("tau_min", "tau_max", "tau_count", "tau_spacing")
_GEOMETRY = ("t1", "t2", "xbar1", "delta", "x_extent", "nx")

# subcommand: (handler, help, the RunConfig fields it reads and takes as flags)
_SUBCOMMANDS = {
    "distribution": (cmd_distribution, "arrival-time density for a family",
                     (*_GAUSSIAN, *_GRID, *_TAUS, "family", "packet", "with_reference")),
    "verify": (cmd_verify, "run the invariant suite (JSON report)", (*_GAUSSIAN, *_GRID, "L")),
    "measure": (cmd_measure, "measurement models", ("mode", *_GAUSSIAN, *_GRID, *_TAUS, "packet", *_GEOMETRY)),
    "spectrum": (cmd_spectrum, "eigenstate table for a family at fixed tau", ("family", "tau", "mass", "hbar", *_GRID)),
    "classical": (cmd_classical, "classical oracle table", ("mass",)),
}


def _flag_help(name: str, presets: dict) -> str:
    """A field's description, its choices, its default and the mode presets that set it."""
    f = _CONFIG_FIELDS[name]
    text = f.metadata["help"]
    if name in _CHOICES:
        text += f": {', '.join(_CHOICES[name])}"
    if isinstance(f.default, bool):
        return text + " (default false; the bare flag sets true)"
    text += f" (default {f.default}"
    for mode, preset in presets.items():
        if name in preset:
            text += f"; {mode} preset {preset[name]}"
    return text + ")"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every caller:
    parsing leaves it unchanged, and no caller may modify it.  Each subcommand
    takes --config, --out, --format (verify always writes JSON) and one flag
    per field it reads, named after the field with '_' -> '-'.  A field flag's
    value stays text; resolve_config converts and checks it like a file value."""
    parser = argparse.ArgumentParser(
        prog="qarrival",
        description="Arrival-time operator experiments on a momentum grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, names) in _SUBCOMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        sp.add_argument("--config", help="JSON file that may set any configuration field")
        sp.add_argument("--out", help="output path (default stdout)")
        if command == "verify":
            sp.set_defaults(format="json")
        else:
            sp.add_argument("--format", choices=("csv", "json"), default="csv")
        presets = _MODE_DEFAULTS if command == "measure" else {}
        for name in names:
            switch = _SWITCH if isinstance(_CONFIG_FIELDS[name].default, bool) else {}
            sp.add_argument("--" + name.replace("_", "-"), dest=name, help=_flag_help(name, presets), **switch)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _SUBCOMMANDS[args.command][0](resolve_config(args), args.out, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (RuntimeError, FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
