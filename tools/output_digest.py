#!/usr/bin/env python3
"""sha256 of the CLI's output on a fixed list of presets, one line each.

Each line reads `<sha256 of stdout>  <argv>`, with `  [exit N]` appended when
the command does not exit 0.  The presets cover every subcommand: `verify` at
several grid sizes, at m = 2, hbar = 0.5 and at L = 1.3; `spectrum` for all
families at four taus, for KDM at a tau whose phases underflow (signed zeros),
for KDM and NEW at tau = 120 (phases and Bessel arguments z up to ~1e5, far
into the high table), for NEW at m = 2, hbar = 0.5, and for KDM at tau =
1e308, whose phases overflow (rejected);
`distribution` for all families as CSV, JSON and with the Kijowski reference,
plus negative, log-spaced and reflected-packet windows, a packet that fills the grid,
`--with-reference false`, and NEW at m = 2, hbar = 0.5 on its default and on
a negative window; every `measure` mode, zeno also as JSON and with a
Gaussian packet, and conditional also as JSON, at non-default geometry, on
a 16001-sample box, and with a short second step (`--t2 0.81`) and on a
401-sample box, where pi hbar dt / (m dx) is below the box's extent (a
chirp-kernel propagator aliases there), and conditional with a reflected
packet and with a packet that leaves its box, both rejected; crossing also at
n = 4096, whose transforms read 16384 source samples, on 12 taus (three
blocks of evolved taus), and past the time the packet reaches an end of its
periodic box (rejected); and `classical`.  A
change that should leave every output byte-identical is checked by running
this on the parent and on the change and diffing:

    python3 tools/output_digest.py > change.txt
    python3 tools/output_digest.py --root ../parent-checkout > parent.txt
    diff parent.txt change.txt

`--root` names the checkout whose `src/` is imported (default: the one this
script is in).  All presets run in one process, one after the other; the
whole list takes about 1.5 s on 2 cores.

`--compare ROOT` shows which digits moved instead.  It runs every preset on
both checkouts, each in a fresh process, and prints one line per preset
whose output differs.  When the recorded configurations differ, the line
first names the config keys that were added, removed or changed.  The rest of
the output is compared without its config record: the largest absolute
difference over the numeric cells of its CSV or JSON output, and the largest
difference over a column's peak (max |value| of that column on ROOT's side),
each with the column it is in.  A JSON column is the path to a number with
the row index dropped; a check of `verify` is its own column.  Outputs whose
shape or text differs, or whose exit code does, are reported as such.

    python3 tools/output_digest.py --compare ../parent-checkout
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import sys
from pathlib import Path

FAMILIES = ("ab", "kdm", "mi", "t3", "new")
REFLECTED = ["--packet", "reflected", "--p0", "0.3", "--x0", "-20", "--sigma-p", "0.125", "--n", "1792"]


def presets() -> list[list[str]]:
    # n = 6 is the smallest interior (2 x 2), where clipping the band columns
    # matters most; at n = 10 the two bands meet in the middle rows, where their parts add
    runs = [["verify", "--n", str(n)] for n in (6, 10, 64, 512, 1024, 4096)]
    # the operator layer off the unit constants and at another dwell length
    runs += [["verify", "--mass", "2", "--hbar", "0.5"], ["verify", "--L", "1.3"]]
    runs += [["spectrum", "--family", f, "--tau", tau] for f in FAMILIES for tau in ("0", "0.7", "-0.5", "1e-5")]
    # some phases underflow to 0 here, so im_phi holds both -0.0 and 0.0
    runs.append(["spectrum", "--family", "kdm", "--tau", "1e-322"])
    # phases of up to ~1e5 rad, where cos and sin reduce their argument; for
    # NEW, z up to ~1e5, far into the high Bessel table
    runs += [["spectrum", "--family", f, "--tau", "120"] for f in ("kdm", "new")]
    # off the unit constants, where each NEW amplitude carries m and hbar
    runs.append(["spectrum", "--family", "new", "--mass", "2", "--hbar", "0.5", "--tau", "0.7"])
    # rejected (exit 2): p^2 tau / 2 m hbar overflows at the largest |p|
    runs.append(["spectrum", "--family", "kdm", "--tau", "1e308"])
    for f in FAMILIES:
        runs += [["distribution", "--family", f],
                 ["distribution", "--family", f, "--format", "json"],
                 ["distribution", "--family", f, "--with-reference"]]
    runs += [["distribution", "--family", f, "--tau-min", "-1", "--tau-max", "1"] for f in ("kdm", "t3", "new")]
    runs += [
        # a packet that fills the grid, so every |p| is summed
        ["distribution", "--family", "new", "--sigma-p", "4"],
        ["distribution", "--family", "new", "--tau-min", "1e-6", "--tau-max", "1e-2", "--tau-count", "41",
         "--tau-spacing", "log", "--with-reference"],
        ["distribution", "--family", "new", *REFLECTED, "--tau-min", "1e-6", "--tau-max", "1e-5",
         "--tau-count", "9", "--tau-spacing", "log"],
        ["distribution", "--family", "ab", *REFLECTED, "--tau-min", "20", "--tau-max", "120", "--tau-count", "51"],
        ["distribution", "--family", "kdm", "--with-reference", "false"],
        ["distribution", "--family", "new", "--mass", "2", "--hbar", "0.5"],
        ["distribution", "--family", "new", "--mass", "2", "--hbar", "0.5", "--tau-min", "-1", "--tau-max", "1"],
    ]
    runs += [["measure", "--mode", mode] for mode in ("crossing", "zeno", "conditional")]
    # the first preset whose transforms read 16384 source samples (4x oversampled
    # n = 4096), the size from which numpy may reuse a temporary in place
    runs.append(["measure", "--mode", "crossing", "--n", "4096"])
    # 11 live taus, evolved in blocks of 4, 4 and 3; and a window past the
    # time the packet reaches an end of its periodic box, rejected (exit 3)
    runs += [["measure", "--mode", "crossing", "--tau-count", "12"],
             ["measure", "--mode", "crossing", "--tau-max", "50"]]
    runs += [
        ["measure", "--mode", "zeno", "--format", "json"],
        # zeno on the packet the flag names, not the preset's reflected one
        ["measure", "--mode", "zeno", "--packet", "gaussian"],
        ["measure", "--mode", "conditional", "--format", "json"],
        ["measure", "--mode", "conditional", "--x0", "7", "--nx", "2001", "--delta", "0.25"],
        # a box whose linspace steps differ by more than 1e-12 of the step
        ["measure", "--mode", "conditional", "--nx", "16001"],
        # pi hbar dt / (m dx) below the box's extent: a short second step and a coarse box
        ["measure", "--mode", "conditional", "--t2", "0.81"],
        ["measure", "--mode", "conditional", "--nx", "401"],
        # rejected (exit 2): the model takes only a Gaussian, and one that fits its box by 6 sigma
        ["measure", "--mode", "conditional", "--packet", "reflected"],
        ["measure", "--mode", "conditional", "--x0", "45"],
        ["classical"],
    ]
    return runs


def sources(root: Path) -> Path:
    """The src/ directory of a checkout; exits if it holds no qarrival."""
    src = root.resolve() / "src"
    if not (src / "qarrival" / "__init__.py").is_file():
        raise SystemExit(f"error: no qarrival sources under {src}")
    return src


def run_presets(src: Path) -> list[tuple[list[str], int, str]]:
    """(argv, exit code, stdout) of every preset, with qarrival imported from src."""
    sys.path.insert(0, str(src))
    from qarrival import cli

    results = []
    for argv in presets():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # a flag that this checkout's parser rejects
                code = exc.code
        results.append((argv, code, out.getvalue()))
    return results


def _in_fresh_process(src: Path) -> list[tuple[list[str], int, str]]:
    # each checkout imports its own `qarrival`, so each runs in its own interpreter
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(run_presets, (src,))


def numeric_cells(text: str) -> dict | None:
    """{column: [numbers]} of a CSV table or a JSON document; None for other text."""
    try:
        doc = json.loads(text)
    except ValueError:
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        try:
            rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        except ValueError:
            return None
        return {name: [row[j] for row in rows] for j, name in enumerate(lines[0].split(","))} if lines else None
    cells: dict = {}

    def walk(node, path, rows_seen):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, path + (key,), rows_seen)
        elif isinstance(node, list):
            for i, value in enumerate(node):
                if isinstance(value, dict) and "name" in value:
                    walk(value, path + (value["name"],), rows_seen)
                else:  # the outermost list index is the row
                    walk(value, path + ((i,) if rows_seen else ()), True)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            cells.setdefault("/".join(map(str, path)), []).append(float(node))

    walk(doc, (), False)
    return cells


def split_config(text: str) -> tuple[dict, str]:
    """(config record, the output without it) of a CSV or JSON output; ({}, text) if it has none."""
    try:
        doc = json.loads(text)
    except ValueError:
        head, _, rest = text.partition("\n")
        if head.startswith("# config: "):
            return json.loads(head.removeprefix("# config: ")), rest
        return {}, text
    if isinstance(doc, dict) and isinstance(doc.get("config"), dict):
        return doc.pop("config"), json.dumps(doc, sort_keys=True, indent=1)
    return {}, text


def config_changes(base: dict, change: dict) -> str:
    """The config keys that change adds to, removes from or changes in base."""
    notes = []
    added = [f"{k}={change[k]!r}" for k in sorted(change.keys() - base.keys())]
    removed = [f"{k}={base[k]!r}" for k in sorted(base.keys() - change.keys())]
    changed = [f"{k} {base[k]!r} -> {change[k]!r}" for k in sorted(base.keys() & change.keys()) if base[k] != change[k]]
    for label, items in (("added", added), ("removed", removed), ("changed", changed)):
        if items:
            notes.append(f"config {label} {', '.join(items)}")
    return "; ".join(notes)


def moved_digits(base: str, change: str) -> str:
    """How far the numeric cells of change moved from base."""
    a, b = numeric_cells(base), numeric_cells(change)
    if a is None or b is None or a.keys() != b.keys() or any(len(a[k]) != len(b[k]) for k in a):
        return "output shape or text differs"
    worst_abs, worst_rel = (0.0, ""), (0.0, "")
    for column in a:
        diff = max(abs(x - y) for x, y in zip(a[column], b[column]))
        peak = max(abs(x) for x in a[column])
        worst_abs = max(worst_abs, (diff, column))
        if diff:
            worst_rel = max(worst_rel, (diff / peak if peak else float("inf"), column))
    if not worst_abs[0]:
        return "numbers equal, text differs"
    return f"max |d| {worst_abs[0]:.3g} ({worst_abs[1]}), max |d|/peak {worst_rel[0]:.3g} ({worst_rel[1]})"


def compare(src: Path, other: Path) -> int:
    base, change = _in_fresh_process(other), _in_fresh_process(src)
    moved = config_only = 0
    for (argv, code_a, out_a), (_, code_b, out_b) in zip(base, change):
        if code_a != code_b:
            note = f"exit {code_a} -> {code_b}"
        elif out_a != out_b:
            (config_a, rest_a), (config_b, rest_b) = split_config(out_a), split_config(out_b)
            rest = moved_digits(rest_a, rest_b) if rest_a != rest_b else "rest byte-identical"
            config_only += rest_a == rest_b
            note = "; ".join(filter(None, [config_changes(config_a, config_b), rest]))
        else:
            continue
        moved += 1
        print(f"{' '.join(argv)}  {note}", flush=True)
    print(f"{moved} of {len(base)} presets differ, {config_only} only in their config record")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is imported (default: this one)")
    parser.add_argument("--compare", type=Path, metavar="ROOT",
                        help="report the largest moves of each differing preset against this checkout")
    args = parser.parse_args()
    if args.compare is not None:
        return compare(sources(args.root), sources(args.compare))
    for argv, code, out in run_presets(sources(args.root)):
        line = f"{hashlib.sha256(out.encode()).hexdigest()}  {' '.join(argv)}"
        print(line if code == 0 else f"{line}  [exit {code}]", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
