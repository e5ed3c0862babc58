#!/usr/bin/env python3
"""Reproduce every rank table and structure check, writing both report formats.

Usage:
    python scripts/reproduce_tables.py [outdir]

Writes outdir/report.json and outdir/report.md (default: ./reports).
Takes a few seconds at the default configuration.
"""

import json
import pathlib
import sys

from dflab.cli import _render_markdown, main


def run(outdir: str) -> int:
    out = pathlib.Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    code = main(["all", "--out", str(out / "report.json")])
    doc = json.loads((out / "report.json").read_text())
    (out / "report.md").write_text(_render_markdown(doc))
    print(f"reports written to {out}/")
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1] if len(sys.argv) > 1 else "reports"))
