#!/usr/bin/env python3
"""sha256 of the CLI's output on a fixed list of presets, one line each.

Each line reads `<sha256 of stdout>  <argv>`, with `  [exit N]` appended when
the command does not exit 0.  The presets cover every subcommand: `verify` at
several grid sizes; `spectrum` for all families at four taus; `distribution`
for all families as CSV, JSON and with the Kijowski reference, plus negative,
log-spaced and reflected-packet windows; every `measure` mode; and
`classical`.  A change that should leave every output byte-identical is
checked by running this on the parent and on the change and diffing:

    python3 tools/output_digest.py > change.txt
    python3 tools/output_digest.py --root ../parent-checkout > parent.txt
    diff parent.txt change.txt

`--root` names the checkout whose `src/` is imported (default: the one this
script is in).  All presets run in one process, one after the other; the
whole list takes about a second on 2 cores.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

FAMILIES = ("ab", "kdm", "mi", "t3", "new")
REFLECTED = ["--packet", "reflected", "--p0", "0.3", "--x0", "-20", "--sigma-p", "0.125", "--n", "1792"]


def presets() -> list[list[str]]:
    runs = [["verify", "--n", str(n)] for n in (64, 512, 1024, 4096)]
    runs += [["spectrum", "--family", f, "--tau", tau] for f in FAMILIES for tau in ("0", "0.7", "-0.5", "1e-5")]
    for f in FAMILIES:
        runs += [["distribution", "--family", f],
                 ["distribution", "--family", f, "--format", "json"],
                 ["distribution", "--family", f, "--with-reference"]]
    runs += [["distribution", "--family", f, "--tau-min", "-1", "--tau-max", "1"] for f in ("kdm", "t3")]
    runs += [
        ["distribution", "--family", "new", "--tau-min", "1e-6", "--tau-max", "1e-2", "--tau-count", "41",
         "--tau-spacing", "log", "--with-reference"],
        ["distribution", "--family", "new", *REFLECTED, "--tau-min", "1e-6", "--tau-max", "1e-5",
         "--tau-count", "9", "--tau-spacing", "log"],
        ["distribution", "--family", "ab", *REFLECTED, "--tau-min", "20", "--tau-max", "120", "--tau-count", "51"],
    ]
    runs += [["measure", "--mode", mode] for mode in ("crossing", "zeno", "conditional")]
    runs += [["measure", "--mode", "zeno", "--format", "json"], ["classical"]]
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is imported (default: this one)")
    args = parser.parse_args()
    src = args.root.resolve() / "src"
    if not (src / "qarrival" / "__init__.py").is_file():
        raise SystemExit(f"error: no qarrival sources under {src}")
    sys.path.insert(0, str(src))
    from qarrival import cli

    for argv in presets():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        line = f"{hashlib.sha256(out.getvalue().encode()).hexdigest()}  {' '.join(argv)}"
        print(line if code == 0 else f"{line}  [exit {code}]", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
