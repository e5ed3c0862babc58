"""Command line front end: configuration, scenario execution, reports.

Exit codes: 0 all scenarios pass; 1 some scenario mismatched; 2 bad
configuration; 3 a budget was exceeded (partial report written); 4 an
internal error (any other exception; no report written).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor

from .scenarios import G_TABLES, SCENARIOS, ConfigError, ScenarioConfig, g_tables_from

SCHEMA_VERSION = 1

ALL_ORDER = list(SCENARIOS)
CHECK_NAMES = [n.removeprefix("check-") for n in ALL_ORDER if n.startswith("check-")]


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports a bad flag or value as a ConfigError."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--prime", type=int, default=97, help="coefficient field modulus")
    common.add_argument(
        "--rationals", action="store_true", help="use rational coefficients instead of F_p"
    )
    common.add_argument("--vars", default="x,y", help="comma-separated ring variables")
    common.add_argument(
        "--seq", default=None, help="comma-separated regular sequence (default: the variables)"
    )
    common.add_argument("--nmax", type=int, default=7, help="simplicial truncation degree")
    common.add_argument("--tmax", type=int, default=12, help="internal degree bound")
    common.add_argument("--out", default=None, help="write the report to this path")
    common.add_argument("--format", choices=["json", "markdown"], default="json")
    common.add_argument("--jobs", type=int, default=1, help="parallel scenarios for 'all'")
    common.add_argument(
        "--budget-seconds", type=float, default=None, help="per-scenario time budget"
    )
    common.add_argument(
        "--no-timing",
        action="store_true",
        help="zero the millis fields for byte-stable reports",
    )
    common.add_argument(
        "--config", default=None, help="JSON file of flag defaults (explicit flags win)"
    )
    ap = _Parser(
        prog="dflab",
        description="exact derived-functor rank tables and structure checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    gk = sub.add_parser("gk", parents=[common], help="derived-functor table of the cube pipeline")
    sub.add_parser("cross2", parents=[common], help="second cross-effect tables")
    sub.add_parser("cross3", parents=[common], help="third cross-effect table")
    sub.add_parser(
        "tor-powers", parents=[common], help="homology of tensor powers of the resolution"
    )
    pred = sub.add_parser("predict", parents=[common], help="predicted tables at conormal rank d")
    pred.add_argument("--d", type=int, default=2)
    chk = sub.add_parser("check", parents=[common], help="structure check suites")
    chk.add_argument("suite", choices=sorted(CHECK_NAMES))
    allp = sub.add_parser("all", parents=[common], help="every scenario")
    for p in (gk, allp):
        p.add_argument("--engine", choices=["graded", "groebner", "both"], default="graded")
        p.add_argument("--route", choices=["a", "b", "both"], default="a")
    return ap


def _config_from_args(args) -> ScenarioConfig:
    variables = tuple(v for v in args.vars.split(",") if v)
    sequence = None
    if args.seq is not None:
        sequence = tuple(s for s in args.seq.split(",") if s)
    return ScenarioConfig(
        prime=args.prime,
        rationals=args.rationals,
        variables=variables,
        sequence=sequence,
        n_max=args.nmax,
        t_max=args.tmax,
        engine=getattr(args, "engine", "graded"),
        route=getattr(args, "route", "a"),
        budget_s=args.budget_seconds,
    )


def _run_named(name: str, cfg_kwargs: dict, kwargs: dict) -> dict:
    return SCENARIOS[name](ScenarioConfig(**cfg_kwargs), **kwargs).to_dict()


def _run_all(cfg_kwargs: dict, jobs: int) -> list:
    """Every scenario in registry order; predict reuses the gk, cross2 and
    cross3 results instead of computing them again.  At most one worker
    per scenario is started."""
    if jobs <= 1:
        done = {}  # predict's inputs come before it in ALL_ORDER
        for n in ALL_ORDER:
            done[n] = _run_named(n, cfg_kwargs, _predict_kwargs(done) if n == "predict" else {})
        return list(done.values())
    with ProcessPoolExecutor(max_workers=min(jobs, len(ALL_ORDER))) as pool:
        futs = {n: pool.submit(_run_named, n, cfg_kwargs, {}) for n in ALL_ORDER if n != "predict"}
        inputs = {n: futs[n].result() for n, _ in G_TABLES.values()}
        futs["predict"] = pool.submit(_run_named, "predict", cfg_kwargs, _predict_kwargs(inputs))
        return [futs[n].result() for n in ALL_ORDER]


def _predict_kwargs(done: dict) -> dict:
    return {"g_tables": g_tables_from({n: r["computed"] for n, r in done.items()})}


def _render_markdown(doc: dict) -> str:
    lines = ["# dflab report", ""]
    ring = doc["ring"]
    lines.append(
        f"ring: {ring['field']}[{', '.join(ring['vars'])}], sequence ({', '.join(ring['seq'])})"
    )
    lines.append("")
    lines.append("| scenario | pass | expected | computed | millis |")
    lines.append("|---|---|---|---|---|")
    for s in doc["scenarios"]:
        lines.append(
            "| {name} | {p} | {e} | {c} | {ms} |".format(
                name=s["name"],
                p="yes" if s["pass"] else "NO",
                e=json.dumps(s["expected"], sort_keys=True),
                c=json.dumps({k: v for k, v in s["computed"].items() if not isinstance(v, dict)}, sort_keys=True),
                ms=s["millis"],
            )
        )
    lines.append("")
    lines.append(f"overall: {'pass' if doc['pass'] else 'FAIL'}")
    lines.append("")
    return "\n".join(lines)


def _config_flags(argv: list) -> list:
    """The values of a ``--config`` JSON file as command line flags."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    try:
        with open(path) as fh:
            values = json.load(fh)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    flags = []
    for key, val in values.items():
        flag = "--" + key.replace("_", "-")
        if val is True:
            flags.append(flag)
        elif val is not False:
            flags += [flag, str(val)]
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # config file values go right after the subcommand, so explicit
        # flags, which argparse reads later, win
        args = build_parser().parse_args(argv[:1] + _config_flags(argv) + argv[1:])
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
        cfg = _config_from_args(args)
        ring_echo = cfg.ring().describe()
        cfg_kwargs = dict(cfg.__dict__)
        if args.command == "all":
            results = _run_all(cfg_kwargs, args.jobs)
        else:
            name = f"check-{args.suite}" if args.command == "check" else args.command
            kwargs = {"d": args.d} if name == "predict" else {}
            results = [_run_named(name, cfg_kwargs, kwargs)]
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4
    if args.no_timing:
        for r in results:
            r["millis"] = 0
    doc = {
        "schema_version": SCHEMA_VERSION,
        "ring": ring_echo,
        "scenarios": results,
        "pass": all(r["pass"] for r in results),
    }
    text = (
        json.dumps(doc, sort_keys=True, indent=2) + "\n"
        if args.format == "json"
        else _render_markdown(doc)
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for r in results:
        status = "PASS" if r["pass"] else ("PARTIAL" if r.get("partial") else "FAIL")
        print(f"[{status}] {r['name']} ({r['millis']} ms)", file=sys.stderr)
    if any(r.get("partial") for r in results):
        return 3
    return 0 if doc["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
