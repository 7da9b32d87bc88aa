"""Command-line interface: experiment presets with CSV/JSON emission.

Subcommands
-----------
distribution   arrival-time density Pi(tau) for a chosen eigenstate family
verify         run the operator/measurement invariant suite, emit a JSON report
measure        measurement models: conditional | crossing | zeno
spectrum       eigenstate table phi_tau(p) over the momentum grid
classical      classical oracle table (arrival, stopwatch, current moment)

Every input is a RunConfig field, set by a flag or by a JSON --config file.
A field resolves in one order: the RunConfig default, then the preset of the
measure mode (measure only), then the file, then the flag.  Outputs are
deterministic: identical configuration produces byte-identical files; run
metadata is limited to the resolved configuration itself, from which the
output can be reproduced.  Exit codes: 0 ok, 1 verification failure, 2
configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from .checks import run_checks
from .numerics import GAMMA_3_4, GridSpec, PhysConsts
from .operators import (
    EigenFamily,
    distribution,
    eigenstate_values,
    kijowski_distribution,
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


@dataclass
class RunConfig:
    """Every input of a run, one field per flag.  t1, t2, xbar1, delta,
    x_extent and nx are the geometry of measure --mode conditional: detection
    times t1 < t2, the first window's center xbar1, every window's width
    delta, and nx samples of [0, x_extent] for the packet gaussian()."""

    p0: float = 10.0
    x0: float = -5.0
    sigma_p: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0
    n: int = 1024
    p_max: float = 40.0
    tau_min: float = 0.0
    tau_max: float = 1.0
    tau_count: int = 201
    tau_spacing: str = "linear"
    family: str = "new"
    packet: str = "gaussian"
    L: float = 0.2
    mode: str = "crossing"
    tau: float = 1.0
    with_reference: bool = False
    t1: float = 0.8
    t2: float = 1.05
    xbar1: float = 4.0
    delta: float = 0.5
    x_extent: float = 40.0
    nx: int = 4001

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
        if self.tau_spacing not in ("linear", "log"):
            raise ConfigError(
                f"config field 'tau_spacing': unknown value '{self.tau_spacing}' "
                "(choose from linear, log)"
            )
        if self.tau_spacing == "log" and self.tau_min <= 0.0:
            raise ConfigError("config field 'tau_min': must be > 0 for log spacing")
        valid_families = sorted(f.value for f in EigenFamily)
        if self.family not in valid_families:
            raise ConfigError(
                f"config field 'family': unknown value '{self.family}' "
                f"(choose from {', '.join(valid_families)})"
            )
        if self.packet not in ("gaussian", "reflected"):
            raise ConfigError(
                f"config field 'packet': unknown value '{self.packet}' "
                "(choose from gaussian, reflected)"
            )
        if self.mode not in ("conditional", "crossing", "zeno"):
            raise ConfigError(
                f"config field 'mode': unknown value '{self.mode}' "
                "(choose from conditional, crossing, zeno)"
            )

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


_CONFIG_FIELDS = {f.name: f.type for f in fields(RunConfig)}


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


_MODE_DEFAULTS = {
    "zeno": {"p0": 0.3, "x0": -20.0, "sigma_p": 0.125, "n": 1792, "p_max": 40.0,
             "tau_min": 0.015, "tau_max": 0.045, "tau_count": 9, "tau_spacing": "log",
             "packet": "reflected"},
    "conditional": {"p0": -10.0, "x0": 8.0, "sigma_p": 0.5},
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The validated RunConfig of parsed arguments: defaults, then the preset
    of the measure mode, then the --config file, then the flags."""
    values = load_config(args.config) if args.config else {}
    for name in _CONFIG_FIELDS:
        flag_val = getattr(args, name, None)
        if flag_val is not None:
            values[name] = flag_val
    cfg = RunConfig()
    for key, val in values.items():
        default = getattr(cfg, key)
        try:
            if isinstance(default, bool):
                if not isinstance(val, bool):
                    raise ValueError("not a JSON boolean")
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
    family = EigenFamily(cfg.family)
    dist = distribution(psi, family, taus)
    columns = ["tau", f"pi_{cfg.family}"]
    cols = [taus, dist.values]
    if cfg.with_reference:
        kij = kijowski_distribution(psi, taus)
        _, ked_abs = kinetic_energy_density(psi)
        coef = math.pi / (2.0 * GAMMA_3_4 ** 2)
        ked_curve = coef * np.sqrt(np.abs(taus)) * ked_abs / (cfg.mass**1.5 * cfg.hbar**0.5)
        columns += ["pi_kijowski", "ked_sqrt_law"]
        cols += [kij, ked_curve]
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
        psi = make_reflected_state(cfg.gaussian(), cfg.grid())
        taus = cfg.tau_grid()
        fit = small_time_current_law(psi, taus)
        ratio_coef = math.pi ** 1.5 / GAMMA_3_4 ** 2
        checks = {
            "fit_exponent": fit.exponent,
            "fit_prefactor": fit.prefactor,
            "target_prefactor": 1.0 / (2.0 * math.sqrt(math.pi)),
            "ked2_over_emeas_coefficient_ratio": ratio_coef,
            "note": (
                "coefficient ratio pi^(3/2)/Gamma(3/4)^2 reported verbatim; the source "
                "remark that the two prefactors differ by about 20 percent is logged "
                "here without being asserted"
            ),
        }
        rows = np.column_stack([taus, fit.current, fit.current / np.sqrt(taus)]).tolist()
        write_table(out, fmt, cfg, ["tau", "current", "current_over_sqrt_tau"], rows, checks)
        return EXIT_OK
    # conditional
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every caller:
    parsing leaves it unchanged, and no caller may modify it."""
    parser = argparse.ArgumentParser(
        prog="qarrival",
        description="Arrival-time operator experiments on a momentum grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", help="JSON file supplying any configuration field")
        sp.add_argument("--p0", type=float, help="mean momentum (default 10)")
        sp.add_argument("--x0", type=float, help="mean position (default -5; zeno preset -20, conditional 8)")
        sp.add_argument("--sigma-p", dest="sigma_p", type=float, help="momentum width (default 1)")
        sp.add_argument("--mass", type=float, help="particle mass (default 1)")
        sp.add_argument("--hbar", type=float, help="reduced Planck constant (default 1)")
        sp.add_argument("--n", type=int, help="momentum samples (default 1024)")
        sp.add_argument("--p-max", dest="p_max", type=float, help="momentum cutoff (default 40)")
        sp.add_argument("--tau-min", dest="tau_min", type=float)
        sp.add_argument("--tau-max", dest="tau_max", type=float)
        sp.add_argument("--tau-count", dest="tau_count", type=int)
        sp.add_argument("--tau-spacing", dest="tau_spacing", choices=("linear", "log"))
        sp.add_argument("--family", help="eigenstate family: ab, kdm, mi, t3, new")
        sp.add_argument("--packet", choices=("gaussian", "reflected"))
        sp.add_argument("--L", type=float, help="dwell region length (default 0.2)")
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("distribution", help="arrival-time density for a family")
    common(sp)
    sp.add_argument("--with-reference", dest="with_reference", action="store_const", const=True)

    sp = sub.add_parser("verify", help="run the invariant suite (JSON report)")
    common(sp)

    sp = sub.add_parser("measure", help="measurement models")
    common(sp)
    sp.add_argument("--mode", choices=("conditional", "crossing", "zeno"), help="measurement model (default crossing)")
    sp.add_argument("--t1", type=float, help="first detection time (conditional; default 0.8)")
    sp.add_argument("--t2", type=float, help="second detection time (conditional; default 1.05)")
    sp.add_argument("--xbar1", type=float, help="first window center (conditional; default 4)")
    sp.add_argument("--delta", type=float, help="window width (conditional; default 0.5)")
    sp.add_argument("--x-extent", dest="x_extent", type=float, help="position box length (conditional; default 40)")
    sp.add_argument("--nx", type=int, help="position samples (conditional; default 4001)")

    sp = sub.add_parser("spectrum", help="eigenstate table for a family at fixed tau")
    common(sp)
    sp.add_argument("--tau", type=float, help="eigenvalue tau (default 1)")

    sp = sub.add_parser("classical", help="classical oracle table")
    common(sp)
    return parser


_COMMANDS = {
    "distribution": cmd_distribution,
    "verify": cmd_verify,
    "measure": cmd_measure,
    "spectrum": cmd_spectrum,
    "classical": cmd_classical,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](resolve_config(args), args.out, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (RuntimeError, FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
