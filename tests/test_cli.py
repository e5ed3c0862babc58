"""Command line interface: exit codes, report schema, determinism."""

import hashlib
import json
import pathlib
import subprocess
import sys

BASE = [sys.executable, "-m", "dflab.cli"]
DATA = pathlib.Path(__file__).parent / "data"

# committed --no-timing reports: file stem -> arguments
GOLDEN = {
    "gk": ["gk"],
    # both engines at default scale: the Groebner engine on the unreduced complex
    "gk-engine-both": ["gk", "--engine", "both"],
    "cross2": ["cross2"],
    "cross3": ["cross3"],
    "tor-powers": ["tor-powers"],
    "predict": ["predict"],
    "predict-d3": ["predict", "--d", "3"],
    "check-schur": ["check", "schur"],
    "check-cauchy": ["check", "cauchy"],
    "check-gamma": ["check", "gamma"],
    "check-ez": ["check", "ez"],
    "check-koszul": ["check", "koszul"],
    "check-l31": ["check", "l31"],
    "check-schur-rationals": ["check", "schur", "--rationals"],
    "check-cauchy-rationals": ["check", "cauchy", "--rationals"],
    "tor-powers-rationals": ["tor-powers", "--rationals"],
}

# sha256 of the `dflab all --no-timing` report
ALL_SHA256 = "39e3db6802c47e6d832cde4688a047aeebb993efb6e368e88e427ec7ad16fdbc"
# runs dflab.cli.main on each argument list of argv[1] with numpy unimportable
NO_NUMPY_CHILD = """
import json, sys
sys.modules["numpy"] = None
from dflab.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def run_cli(*args, **kw):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, **kw)


def test_check_cauchy_report(tmp_path):
    out = tmp_path / "r.json"
    p = run_cli("check", "cauchy", "--out", str(out))
    assert p.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["ring"] == {"field": "F_97", "vars": ["x", "y"], "seq": ["x", "y"]}
    assert doc["pass"] is True
    (s,) = doc["scenarios"]
    assert set(s) >= {"name", "expected", "computed", "per_degree", "pass", "millis"}
    assert s["name"] == "check-cauchy"


def test_reports_are_byte_identical_modulo_timing(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("check", "schur", "--no-timing", "--out", str(a)).returncode == 0
    assert run_cli("check", "schur", "--no-timing", "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    for stem, args in GOLDEN.items():
        out = tmp_path / f"{stem}.json"
        assert run_cli(*args, "--no-timing", "--out", str(out)).returncode == 0, stem
        assert out.read_bytes() == (DATA / f"{stem}.json").read_bytes(), stem


def test_numpy_free_pipelines_run_without_numpy(tmp_path):
    """Every golden report, and `dflab all`, comes out byte for byte with
    numpy unimportable: no dflab module needs it."""
    outs = {stem: tmp_path / f"{stem}.json" for stem in GOLDEN}
    runs = [GOLDEN[stem] + ["--no-timing", "--out", str(out)] for stem, out in outs.items()]
    runs.append(["all", "--no-timing", "--out", str(tmp_path / "all.json")])
    p = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_CHILD, json.dumps(runs)], capture_output=True, text=True
    )
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == [0] * len(runs), p.stderr
    for stem, out in outs.items():
        assert out.read_bytes() == (DATA / f"{stem}.json").read_bytes(), stem
    assert hashlib.sha256((tmp_path / "all.json").read_bytes()).hexdigest() == ALL_SHA256


def test_config_error_exit_code(tmp_path):
    configs = {
        "bad-json": "{",
        "unknown-key": json.dumps({"colour": "red"}),
        "bad-type": json.dumps({"nmax": "seven"}),
        "not-an-object": json.dumps([1, 2]),
    }
    for stem, text in configs.items():
        (tmp_path / f"{stem}.json").write_text(text)
    cases = [
        ["gk", "--seq", "x,0"],
        ["gk", "--seq", "x"],  # needs length 2
        ["gk", "--prime", "91"],
        ["check", "cauchy", "--prime", "2147483647"],  # above fieldla.MAX_PRIME
        ["gk", "--prime", "1000000000000000003"],  # prime, but above fieldla.MAX_PRIME
        ["check", "gamma", "--nmax", "-1"],
        ["tor-powers", "--tmax", "-1"],
        ["tor-powers", "--seq", "x,y^2-x"],  # not homogeneous
        ["tor-powers", "--seq", "x,x"],  # not regular, as the next three
        ["tor-powers", "--seq", "x,x^2"],
        ["tor-powers", "--seq", "x*y,x"],
        ["tor-powers", "--seq", "x^2-y^2,x+y"],
        ["cross3", "--engine", "groebner"],  # only gk and all take --engine
        ["predict", "--config", str(tmp_path / "missing.json")],
    ] + [["predict", "--config", str(tmp_path / f"{stem}.json")] for stem in configs]
    for args in cases:
        p = run_cli(*args, timeout=120)
        assert p.returncode == 2, args
        assert "configuration error" in p.stderr, args
        assert "Traceback" not in p.stderr, args


def test_three_variables_fail_closed_where_staircases_are_counted():
    # (x, y) in k[x, y, z]: the staircase of k[z] is infinite, so no rank over it is certified
    small = ["--vars", "x,y,z", "--nmax", "2", "--tmax", "3"]
    for args in (["all"], ["gk"], ["tor-powers"], ["check", "l31"]):
        p = run_cli(*args, *small, timeout=120)
        assert p.returncode == 2, (args, p.stderr)
        assert "certified only where R/I is finite-dimensional" in p.stderr, args
        assert "Traceback" not in p.stderr, args
    for extra in (["koszul"], ["gamma"], ["koszul", "--seq", "x,y,z"]):
        p = run_cli("check", *extra, *small, timeout=120)
        assert p.returncode == 0, (extra, p.stderr)
    p = run_cli("check", "koszul", *small, "--seq", "x,y,x", timeout=120)
    assert p.returncode == 2, p.stderr
    assert "x is a zero divisor mod x, y" in p.stderr
    assert "Traceback" not in p.stderr


def test_tor_powers_over_a_quotient_of_dimension_two(tmp_path):
    # R/(x, y^2 - x^2) has dim_k 2; the tables count free generators over it
    out = tmp_path / "r.json"
    p = run_cli("tor-powers", "--seq", "x,y^2-x^2", "--out", str(out))
    assert p.returncode == 0, p.stderr
    (s,) = json.loads(out.read_text())["scenarios"]
    assert s["computed"] == {"square": [1, 2, 1], "cube": [1, 4, 6, 4, 1]}
    assert [d["total"] for d in s["per_degree"]["square"].values()] == [2, 4, 2, 0, 0]


def test_budget_exit_code(tmp_path):
    out = tmp_path / "r.json"
    for command in (["gk"], ["tor-powers"], ["check", "l31"]):
        p = run_cli(*command, "--budget-seconds", "0", "--out", str(out))
        assert p.returncode == 3, command
        doc = json.loads(out.read_text())
        assert doc["scenarios"][0]["partial"] is True


def test_internal_error_exit_code(monkeypatch, capsys, tmp_path):
    from dflab import cli

    def broken(cfg, **kwargs):
        raise ZeroDivisionError("inverse of zero")

    monkeypatch.setitem(cli.SCENARIOS, "gk", broken)
    out = tmp_path / "r.json"
    assert cli.main(["gk", "--out", str(out)]) == 4
    assert capsys.readouterr().err == "internal error: ZeroDivisionError: inverse of zero\n"
    assert not out.exists()


def test_predict_d3_markdown():
    p = run_cli("predict", "--d", "3", "--format", "markdown")
    assert p.returncode == 0
    assert "| predict | yes |" in p.stdout
    assert "overall: pass" in p.stdout


def test_mismatch_exit_code(tmp_path):
    # an over-truncated window cannot reproduce the expected table
    p = run_cli("cross3", "--nmax", "3", "--tmax", "4", "--out", str(tmp_path / "r.json"))
    assert p.returncode == 1


def test_ranks_above_the_truncation_are_null(tmp_path):
    """A complex normalized from gamma cut at n_max has no d_{n_max + 1},
    so every rank at k >= n_max is null, never 0 (H_4 of gk is 1), and
    the run still exits 1.  cross3's total complex is exact and keeps
    its ranks."""
    top, computed = 3, {}
    for name, args in (("cross3", ["cross3"]), ("gk", ["gk", "--engine", "both"])):
        out = tmp_path / f"{name}.json"
        p = run_cli(*args, "--nmax", str(top), "--no-timing", "--out", str(out))
        assert p.returncode == 1, name
        (s,) = json.loads(out.read_text())["scenarios"]
        computed[name] = s["computed"]
    cross3, gk = computed["cross3"], computed["gk"]
    assert cross3["ranks"] == [1, 4, 6] + [None] * 3
    assert cross3["total_complex_ranks"] == [1, 4, 6, 4, 1, 0]
    for key in ("ranks", "groebner_ranks"):
        assert gk[key] == [1, 0, 1] + [None] * 4, key


def test_gk_json_to_stdout():
    p = run_cli("gk", "--tmax", "8")
    assert p.returncode == 0
    doc = json.loads(p.stdout)
    assert doc["scenarios"][0]["computed"]["ranks"] == [1, 0, 1, 0, 1, 0, 0]
    assert "[PASS] gk" in p.stderr


def test_config_file_with_flag_override(tmp_path):
    import json as _json

    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(_json.dumps({"d": 3, "format": "markdown"}))
    p = run_cli("predict", "--config", str(cfgfile))
    assert p.returncode == 0
    assert "| predict | yes |" in p.stdout  # markdown from the config file
    assert '"cr3": [1, 6, 15, 18, 9]' in p.stdout or "[1, 6, 15, 18, 9]" in p.stdout
    # explicit flag beats the config value
    p2 = run_cli("predict", "--config", str(cfgfile), "--d", "1", "--format", "json")
    assert p2.returncode == 0
    doc = json.loads(p2.stdout)
    assert doc["scenarios"][0]["computed"]["d"] == 1


def test_all_report_does_not_depend_on_jobs(tmp_path):
    # a small window keeps this fast; the tables then mismatch (exit 1)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    small = ["all", "--nmax", "3", "--tmax", "4", "--no-timing"]
    assert run_cli(*small, "--out", str(a)).returncode == 1
    assert run_cli(*small, "--jobs", "2", "--out", str(b)).returncode == 1
    assert a.read_bytes() == b.read_bytes()


def test_all_starts_at_most_one_worker_per_scenario(monkeypatch, capsys):
    """`all --jobs` asks the pool for at most one worker per scenario, and
    --jobs below 1 exits 2 on every command before any scenario runs.  A fake executor
    records max_workers and runs every call inline, so no process is
    started."""
    from concurrent.futures import Future

    from dflab import cli

    asked = []

    class Inline:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    ran = []

    def run_named(name, cfg_kwargs, kwargs):
        ran.append(name)
        return {"name": name, "pass": True, "millis": 0}

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Inline)
    monkeypatch.setattr(cli, "_run_named", run_named)
    monkeypatch.setattr(cli, "_predict_kwargs", lambda done: {})
    scenarios = len(cli.ALL_ORDER)
    for jobs, workers in ((1, None), (2, 2), (scenarios, scenarios), (100_000, scenarios)):
        results = cli._run_all({}, jobs)
        assert [r["name"] for r in results] == cli.ALL_ORDER, jobs
        assert asked == ([] if workers is None else [workers]), jobs
        asked.clear()
    ran.clear()
    for command, jobs in ((["all"], "0"), (["all"], "-3"), (["check", "ez"], "0")):
        assert cli.main([*command, "--jobs", jobs]) == 2
        assert "configuration error: --jobs must be at least 1" in capsys.readouterr().err
    assert asked == [] and ran == []
