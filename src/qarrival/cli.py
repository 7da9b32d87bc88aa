"""Command-line interface: experiment presets with CSV/JSON emission.

Subcommands
-----------
distribution   arrival-time density Pi(tau) for a chosen eigenstate family
verify         run the operator/measurement invariant suite, emit a JSON report
measure        measurement models: conditional | crossing | zeno
spectrum       eigenstate table phi_tau(p) over the momentum grid
classical      classical oracle table (arrival, stopwatch, current moment)

All flags may equivalently be supplied through a JSON --config file (flags
override the file).  Outputs are deterministic: identical configuration
produces byte-identical files; run metadata is limited to the resolved
configuration itself.  Exit codes: 0 ok, 1 verification failure, 2
configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from .numerics import BESSEL_SWITCHOVER, GridSpec, PhysConsts, gamma_fn
from .operators import (
    EigenFamily,
    OperatorKind,
    build_operator,
    distribution,
    dwell_low_momentum_check,
    eigenstate_values,
    hermiticity_defect,
    kijowski_distribution,
    kinetic_energy_density,
    overlap,
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
    Representation,
    WaveFunction,
    make_gaussian,
    make_reflected_state,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class RunConfig:
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

    def validate(self) -> None:
        checks = [
            ("sigma_p", self.sigma_p > 0.0, "must be > 0"),
            ("mass", self.mass > 0.0, "must be > 0"),
            ("hbar", self.hbar > 0.0, "must be > 0"),
            ("n", self.n >= 4 and self.n % 2 == 0, "must be an even integer >= 4"),
            ("p_max", self.p_max > 0.0, "must be > 0"),
            ("tau_count", self.tau_count >= 2, "must be >= 2"),
            ("tau_max", self.tau_max > self.tau_min, "must exceed tau_min"),
            ("L", self.L > 0.0, "must be > 0"),
        ]
        for name, ok, msg in checks:
            if not ok:
                raise ConfigError(f"config field '{name}': {msg} (got {getattr(self, name)})")
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


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(load_config(args.config))
    for name in _CONFIG_FIELDS:
        flag_val = getattr(args, name, None)
        if flag_val is not None:
            values[name] = flag_val
    cfg = RunConfig()
    for key, val in values.items():
        default = getattr(cfg, key)
        try:
            if isinstance(default, bool):
                val = bool(val)
            elif isinstance(default, int):
                if float(val) != int(val):
                    raise ValueError("not an integer")
                val = int(val)
            elif isinstance(default, float):
                val = float(val)
            else:
                val = str(val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config field '{key}': cannot parse value {val!r} ({exc})") from exc
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
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
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
        kij = np.array([kijowski_distribution(psi, t) for t in taus])
        _, ked_abs = kinetic_energy_density(psi)
        coef = math.pi / (2.0 * gamma_fn(0.75) ** 2)
        ked_curve = coef * np.sqrt(np.abs(taus)) * ked_abs / (cfg.mass**1.5 * cfg.hbar**0.5)
        columns += ["pi_kijowski", "ked_sqrt_law"]
        cols += [kij, ked_curve]
    rows = [[c[i] for c in cols] for i in range(len(taus))]
    write_table(out, fmt, cfg, columns, rows)
    return EXIT_OK


def _verify_checks(cfg: RunConfig) -> list[dict]:
    grid = cfg.grid()
    consts = cfg.consts()
    hbar = consts.hbar
    p = grid.momenta()
    checks: list[dict] = []

    def add(name: str, value: float, tol: float, larger_is_pass: bool = False) -> None:
        passed = value >= tol if larger_is_pass else value <= tol
        checks.append(
            {"name": name, "value": float(value), "tolerance": float(tol), "pass": bool(passed)}
        )

    builders = {
        "t_kdm": build_operator(OperatorKind.T_KDM, grid, consts),
        "t_new_sym": build_operator(OperatorKind.T_NEW_SYM, grid, consts),
        "t_new_via_kdm": build_operator(OperatorKind.T_NEW_VIA_KDM, grid, consts),
        "t_dwell": build_operator(OperatorKind.T_DWELL, grid, consts, L=cfg.L),
        "h": build_operator(OperatorKind.H, grid, consts),
        "xi": build_operator(OperatorKind.XI, grid, consts),
        "j_current": build_operator(OperatorKind.J_CURRENT, grid, consts, t=0.3),
    }
    for name, op in builders.items():
        add(f"hermiticity_{name}", hermiticity_defect(op), 1e-10)

    sym, via = builders["t_new_sym"].matrix, builders["t_new_via_kdm"].matrix
    add(
        "t_new_constructions_agree",
        float(np.max(np.abs(sym - via)) / np.max(np.abs(sym))),
        1e-8,
    )
    r = build_operator(OperatorKind.R, grid, consts).matrix
    add("reflection_squared_identity", float(np.max(np.abs(r @ r - np.eye(grid.n)))), 1e-15)
    eps = build_operator(OperatorKind.SIGN_P, grid, consts).matrix
    add("reflection_sign_conjugation", float(np.max(np.abs(r @ eps @ r + eps))), 1e-15)

    # commutators, by action on a smooth positive-momentum packet
    sigma = grid.p_max / 26.0
    p0 = 0.3 * grid.p_max
    f = np.exp(-((p - p0) ** 2) / (4.0 * sigma**2)).astype(complex)
    f /= math.sqrt(float(np.sum(np.abs(f) ** 2) * grid.dp))
    interior = slice(2, grid.n - 2)

    def commutator_on_f(a: str, b: str) -> np.ndarray:
        """[A, B] f = A(Bf) - B(Af), matrix-vector products only."""
        ma, mb = builders[a].matrix, builders[b].matrix
        return ma @ (mb @ f) - mb @ (ma @ f)

    res = commutator_on_f("h", "t_new_via_kdm") - 1j * hbar * np.sign(p) * f
    add("commutator_h_t_new", float(np.max(np.abs(res[interior]))), 1e-6 * hbar)
    res = commutator_on_f("xi", "t_new_via_kdm") - 1j * hbar * (f + 0.5 * (r @ f))
    add("commutator_xi_t_new", float(np.max(np.abs(res[interior]))), 1e-6 * hbar)
    res = commutator_on_f("xi", "t_kdm") - 1j * hbar * f
    add("commutator_xi_t_kdm", float(np.max(np.abs(res[interior]))), 1e-6 * hbar)

    # eigenstate structure
    phi = eigenstate_values(EigenFamily.NEW, 0.7, p, consts)
    add(
        "new_eigenstate_conjugation",
        float(np.max(np.abs(phi[::-1] - np.conj(phi))) / np.max(np.abs(phi))),
        1e-12,
    )
    # the eigenstate's only seam is the series/Hankel switchover
    tau_seam = 0.7
    p_seam = math.sqrt(2.0 * consts.mass * hbar * BESSEL_SWITCHOVER / tau_seam)
    lo = eigenstate_values(EigenFamily.NEW, tau_seam, np.array([p_seam * (1 - 1e-9)]), consts)[0]
    hi = eigenstate_values(EigenFamily.NEW, tau_seam, np.array([p_seam * (1 + 1e-9)]), consts)[0]
    add("new_branch_seam", abs(lo - hi) / abs(lo), 1e-6)

    from .numerics import _bessel_asymptotic, _bessel_series

    zs = np.linspace(8.0, 12.0, 50)
    worst = 0.0
    for nu in (-0.25, 0.75):
        diff = np.abs(_bessel_series(nu, zs) - _bessel_asymptotic(nu, zs))
        worst = max(worst, float(np.max(diff)))
    add("bessel_branch_window", worst, 1e-9)

    # compare in the bulk of the arrival distribution (near-zero tails are
    # dominated by rounding noise of two independently ordered sums)
    psi = make_gaussian(cfg.gaussian(), grid)
    t_peak = classical_arrival(cfg.x0, cfg.p0, cfg.mass)
    worst = 0.0
    for t in (0.8 * t_peak, t_peak, 1.2 * t_peak):
        kij = kijowski_distribution(psi, t)
        ab = abs(overlap(psi, EigenFamily.AB, t)) ** 2
        worst = max(worst, abs(kij - ab) / max(kij, 1e-300))
    add("kijowski_equals_ab_overlap", worst, 1e-10)

    for name, band, tol, larger in (
        ("dwell_low_momentum", (0.0, 0.05), 0.02, False),
        ("dwell_negative_control", (4.5, 5.5), 0.2, True),
    ):
        try:
            add(name, dwell_low_momentum_check(cfg.L, grid, consts, band=band), tol, larger)
        except ValueError as exc:
            checks.append(
                {"name": name, "value": None, "tolerance": tol, "pass": False, "note": str(exc)}
            )

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        x = -float(rng.uniform(0.1, 10.0))
        mom = float(rng.uniform(0.1, 10.0))
        sw = classical_stopwatch(x, mom, T=200.0, m=consts.mass)
        worst = max(worst, abs(sw - (-consts.mass * x / mom)))
    add("classical_stopwatch_match", worst, 1e-9)
    worst = 0.0
    for x, mom in ((-5.0, 2.0), (-5.0, -2.0), (3.0, 1.5)):
        worst = max(
            worst,
            abs(classical_current_moment(x, mom, consts.mass) - (-consts.mass * x / abs(mom))),
        )
    add("classical_current_moment_match", worst, 1e-15)
    return checks


def cmd_verify(cfg: RunConfig, out: str | None, fmt: str) -> int:
    checks = _verify_checks(cfg)
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


def cmd_measure(cfg: RunConfig, out: str | None, fmt: str, args: argparse.Namespace) -> int:
    if cfg.mode == "crossing":
        psi = cfg.state()
        taus = cfg.tau_grid()
        rows = []
        for tau in taus:
            res = crossing_probability(psi, float(tau))
            rows.append([float(tau), res.projector_form, res.current_form])
        write_table(out, fmt, cfg, ["tau", "p_projector", "p_current"], rows)
        return EXIT_OK
    if cfg.mode == "zeno":
        psi = make_reflected_state(cfg.gaussian(), cfg.grid())
        taus = cfg.tau_grid()
        fit = small_time_current_law(psi, taus)
        ratio_coef = math.pi ** 1.5 / gamma_fn(0.75) ** 2
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
        rows = [[float(t), float(v), float(v / math.sqrt(t))] for t, v in zip(taus, fit.current)]
        write_table(out, fmt, cfg, ["tau", "current", "current_over_sqrt_tau"], rows, checks)
        return EXIT_OK
    # conditional
    xc, t1, t2 = args.xc, args.t1, args.t2
    xbar1, delta = args.xbar1, args.delta
    x = np.linspace(0.0, args.x_extent, args.nx)
    consts = cfg.consts()
    sigma_x = consts.hbar / (2.0 * cfg.sigma_p)
    vals = (
        (2.0 * math.pi * sigma_x**2) ** (-0.25)
        * np.exp(-((x - xc) ** 2) / (4.0 * sigma_x**2))
        * np.exp(1j * cfg.p0 * x / consts.hbar)
    ).astype(complex)
    psi = WaveFunction(Representation.POSITION, x, vals, consts)
    vals_n = psi.values / math.sqrt(float(np.sum(np.abs(psi.values) ** 2) * psi.dx))
    psi = WaveFunction(Representation.POSITION, x, vals_n, consts)
    centers = np.arange(delta, args.x_extent / 2.0, delta / 2.0)
    cond = conditional_distribution(psi, (xbar1, t1, delta), t2, centers, delta)
    rows = [[float(c), float(v)] for c, v in zip(centers, cond)]
    write_table(out, fmt, cfg, ["xbar2", "p_conditional"], rows)
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, out: str | None, fmt: str) -> int:
    grid = cfg.grid()
    p = grid.momenta()
    phi = eigenstate_values(EigenFamily(cfg.family), cfg.tau, p, cfg.consts())
    rows = [[float(pk), float(v.real), float(v.imag)] for pk, v in zip(p, phi)]
    write_table(out, fmt, cfg, ["p", "re_phi", "im_phi"], rows)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qarrival",
        description="Arrival-time operator experiments on a momentum grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", help="JSON file supplying any configuration field")
        sp.add_argument("--p0", type=float, help="mean momentum (default 10)")
        sp.add_argument("--x0", type=float, help="mean position (default -5)")
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
    sp.add_argument("--mode", choices=("conditional", "crossing", "zeno"))
    sp.add_argument("--xc", type=float, default=8.0, help="initial packet center (conditional)")
    sp.add_argument("--t1", type=float, default=0.8)
    sp.add_argument("--t2", type=float, default=1.05)
    sp.add_argument("--xbar1", type=float, default=4.0)
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--x-extent", dest="x_extent", type=float, default=40.0)
    sp.add_argument("--nx", type=int, default=4001)

    sp = sub.add_parser("spectrum", help="eigenstate table for a family at fixed tau")
    common(sp)
    sp.add_argument("--tau", type=float, help="eigenvalue tau (default 1)")

    sp = sub.add_parser("classical", help="classical oracle table")
    common(sp)
    return parser


_MODE_DEFAULTS = {
    "zeno": {"p0": 0.3, "x0": -20.0, "sigma_p": 0.125, "n": 1792, "p_max": 40.0,
             "tau_min": 0.015, "tau_max": 0.045, "tau_count": 9, "tau_spacing": "log",
             "packet": "reflected"},
    "conditional": {"p0": -10.0, "sigma_p": 0.5},
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "measure" and args.mode in _MODE_DEFAULTS:
            for key, val in _MODE_DEFAULTS[args.mode].items():
                if getattr(args, key, None) is None:
                    setattr(args, key, val)
        cfg = resolve_config(args)
        out = getattr(args, "out", None)
        fmt = getattr(args, "format", "csv")
        if args.command == "distribution":
            return cmd_distribution(cfg, out, fmt)
        if args.command == "verify":
            return cmd_verify(cfg, out, fmt)
        if args.command == "measure":
            return cmd_measure(cfg, out, fmt, args)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out, fmt)
        if args.command == "classical":
            return cmd_classical(cfg, out, fmt)
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (RuntimeError, FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
