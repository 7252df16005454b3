"""End-to-end command line checks: golden outputs, exit codes, flag handling.

The demo goldens double as regression locks on every worked table the
package renders; the other tests pin the error contract (0 success,
1 failed verification, 2 usage or parse problem).
"""

import json
import os
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import omtense
from omtense import cli
from omtense.errors import ParseError
from omtense.fixtures import (
    FRAME_TEXTS,
    LATTICE_TEXTS,
    builtin_frame,
    builtin_lattice,
    example_props,
)
from omtense.tense import (
    OperatorQuadruple,
    format_prop,
    ops_equal,
    proposition_block,
    proposition_count,
)
from omtense.verify import SUITE_IDS

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def files(tmp_path):
    """Write the builtin fixtures the CLI needs as real files."""
    paths = {}
    for name in ("oml10", "cube2", "o6"):
        paths[name] = tmp_path / f"{name}.lat"
        paths[name].write_text(LATTICE_TEXTS[name], encoding="utf-8")
    for name in ("le2", "le3", "le5", "nonserial2"):
        paths[name] = tmp_path / f"{name}.frame"
        paths[name].write_text(FRAME_TEXTS[name], encoding="utf-8")
    lattice = builtin_lattice("oml10")
    frame = builtin_frame("le5")
    props = example_props(lattice, frame)
    text = "".join(format_prop(n, q, lattice, frame) for n, q in props.items())
    paths["props"] = tmp_path / "pq.props"
    paths["props"].write_text(text, encoding="utf-8")
    paths["dir"] = tmp_path
    return paths


# -- golden outputs ----------------------------------------------------------

@pytest.mark.parametrize("name", cli.DEMOS)
def test_demo_matches_golden(capsys, name):
    code, out, err = run_cli(capsys, "demo", name)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"demo-{name}.txt").read_text(encoding="utf-8")


def test_sasaki_table_matches_golden(capsys, files):
    code, out, err = run_cli(capsys, "sasaki-table", "--lattice", str(files["cube2"]))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "sasaki-cube2.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("lattice, frame", [("cube3", "le3"), ("mo2", "le3"), ("oml10", "le2")])
def test_verify_all_matches_golden(capsys, tmp_path, lattice, frame):
    # lattices with 6, 8 and 12 automorphisms, whose exhaustive pair scans
    # run only the p rows least in their orbits
    (tmp_path / "l.lattice").write_text(LATTICE_TEXTS[lattice], encoding="utf-8")
    (tmp_path / "f.frame").write_text(FRAME_TEXTS[frame], encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--lattice", str(tmp_path / "l.lattice"),
                             "--frame", str(tmp_path / "f.frame"), "--suite", "all",
                             "--format", "json-lines")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"verify-all-{lattice}-{frame}.txt").read_text(encoding="utf-8")


def test_entry_points_agree_with_golden():
    """`python -m omtense.cli` and the declared `omt` script print the golden.

    Both run this checkout's code: the `src` directory of the imported
    package leads PYTHONPATH. The script half reads `[project.scripts]` from
    this checkout's pyproject.toml and runs the wrapper an installer writes
    for it, so no install or PATH entry is needed. CI checks the installed
    script itself.
    """
    golden = (GOLDEN / "demo-example1.txt").read_text(encoding="utf-8")
    src = str(Path(omtense.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "omtense.cli", "demo", "example1"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, golden)
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    ep = EntryPoint(name="omt", value=project["scripts"]["omt"], group="console_scripts")
    ep.load()
    wrapper = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    proc = subprocess.run([sys.executable, "-c", wrapper, "demo", "example1"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, golden)


def test_eval_reproduces_demo_tables(capsys, files):
    demo = (GOLDEN / "demo-example1.txt").read_text(encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", "--lattice", str(files["oml10"]),
                             "--frame", str(files["le5"]), "--prop", str(files["props"]))
    assert (code, err) == (0, "")
    assert out == demo.split("\n\n", 1)[1]


def test_eval_composed_words(capsys, files):
    demo = (GOLDEN / "demo-example1-pg.txt").read_text(encoding="utf-8")
    code, out, _ = run_cli(capsys, "eval", "--lattice", str(files["oml10"]),
                           "--frame", str(files["le5"]), "--prop", str(files["props"]),
                           "--ops", "PG,GP")
    assert code == 0
    assert out == demo.split("\n\n", 1)[1]


def test_extend_reproduces_demo_table(capsys, files):
    demo = (GOLDEN / "demo-example-final.txt").read_text(encoding="utf-8")
    lattice = builtin_lattice("oml10")
    frame = builtin_frame("le5")
    p = example_props(lattice, frame)["p"]
    prop_file = files["dir"] / "p.props"
    prop_file.write_text(format_prop("p", p, lattice, frame), encoding="utf-8")
    code, out, _ = run_cli(capsys, "extend", "--lattice", str(files["oml10"]),
                           "--frame", str(files["le5"]), "--prop", str(prop_file),
                           "--mode", "pf")
    assert code == 0
    assert out == demo.split("\n\n", 1)[1]
    code, out, _ = run_cli(capsys, "extend", "--lattice", str(files["oml10"]),
                           "--frame", str(files["le5"]), "--prop", str(prop_file),
                           "--mode", "hg")
    assert code == 0
    assert out == (GOLDEN / "extend-hg-oml10-le5.txt").read_text(encoding="utf-8")


# -- exit codes --------------------------------------------------------------

def test_check_lattice_ok(capsys, files):
    code, out, _ = run_cli(capsys, "check-lattice", str(files["oml10"]))
    assert (code, out) == (0, "ok: orthomodular\n")


def test_check_lattice_without_ortho(capsys, tmp_path):
    path = tmp_path / "chain3.lat"
    path.write_text("lattice chain3\nelements 0 m 1\ncovers 0<m m<1\n")
    code, out, _ = run_cli(capsys, "check-lattice", str(path))
    assert (code, out) == (0, "ok: lattice (3 elements, no orthocomplementation)\n")


def test_check_lattice_failure(capsys, files):
    code, out, _ = run_cli(capsys, "check-lattice", str(files["o6"]))
    assert code == 1
    assert out == (GOLDEN / "check-lattice-o6.txt").read_text(encoding="utf-8")


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "check-lattice", "/no/such/file.lat")
    assert code == 2
    assert err.startswith("error:")


def test_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.lat"
    path.write_text("not a lattice\n")
    code, _, err = run_cli(capsys, "check-lattice", str(path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("which", ["lattice", "frame", "optable", "props"])
def test_non_utf8_file_exits_2(capsys, files, tmp_path, which):
    # every input file is read as UTF-8 text; one that is not is a parse
    # problem that names the file, not a traceback
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(range(256)))
    lattice, frame = str(files["oml10"]), str(files["le5"])
    argv = {
        "lattice": ["verify", "--lattice", str(bad), "--frame", frame, "--suite", "thm1"],
        "frame": ["verify", "--lattice", lattice, "--frame", str(bad), "--suite", "thm1"],
        "optable": ["induce", "--lattice", lattice, "--ops", f"table:{bad}"],
        "props": ["eval", "--lattice", lattice, "--frame", frame, "--prop", str(bad)],
    }[which]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {bad} is not UTF-8 text: byte 0x80 at offset 128\n"


def test_usage_errors_exit_2():
    for argv in ([], ["no-such-command"], ["demo", "no-such-demo"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_verify_failure_exits_1(capsys, files):
    code, out, _ = run_cli(capsys, "verify", "--lattice", str(files["o6"]),
                           "--suite", "oml-law")
    assert code == 1
    assert out.startswith("suite oml-law: fail")


@pytest.mark.parametrize("text, message", [
    ("elements 0 a 1\ncovers 0<a 0<1\n", "exactly one minimum and one maximum"),
    ("elements 0 a b c d 1\ncovers 0<a 0<b a<c a<d b<c b<d c<1 d<1\n",
     "'a' and 'b' have no least upper bound"),
    ("elements 0 a 1\ncovers 0<a a<1 1<a\n", "covers force"),
], ids=["not-bounded", "not-a-lattice", "cycle-in-covers"])
def test_invalid_lattice_exits_2(capsys, files, text, message):
    # an order the package refuses is an input error, like a parse error:
    # exit 1 is kept for a failing verdict
    path = files["dir"] / "bad.lat"
    path.write_text("lattice bad\n" + text, encoding="utf-8")
    for argv in (["check-lattice", str(path)],
                 ["verify", "--lattice", str(path), "--frame", str(files["le2"]), "--suite", "all"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err, argv


def test_verify_all_on_an_11_point_chain(capsys, files):
    # the extension names the copies of 1 and 11 apart, so every suite runs
    chain = files["dir"] / "le11.frame"
    points = range(1, 12)
    chain.write_text(f"frame le11\npoints {' '.join(map(str, points))}\nrel "
                     + " ".join(f"{s}>{t}" for s in points for t in points if s <= t) + "\n",
                     encoding="utf-8")
    lattice = files["dir"] / "chain2.lat"
    lattice.write_text(LATTICE_TEXTS["chain2"], encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--lattice", str(lattice), "--frame", str(chain),
                             "--suite", "all")
    assert (code, err) == (0, "")
    suites = [line.split(":")[0] for line in out.splitlines() if line.startswith("suite ")]
    assert suites == [f"suite {suite}" for suite in SUITE_IDS]


def test_verify_skip_exits_0(capsys, files):
    code, out, _ = run_cli(capsys, "verify", "--lattice", str(files["oml10"]),
                           "--frame", str(files["nonserial2"]), "--suite", "thm1")
    assert code == 0
    assert out.startswith("suite thm1: skipped")
    assert "[requires serial R]" in out


def test_verify_frame_and_ops_conflict(capsys, files):
    code, _, err = run_cli(capsys, "verify", "--lattice", str(files["oml10"]),
                           "--frame", str(files["le2"]), "--ops", "example2",
                           "--suite", "thm1")
    assert code == 2
    assert "mutually exclusive" in err


def test_bad_ops_spec_exits_2(capsys, files):
    for spec in ("bogus", "frame:", "optable:x"):
        code, _, err = run_cli(capsys, "induce", "--lattice", str(files["oml10"]),
                               "--ops", spec)
        assert code == 2, spec
        assert err.startswith("error:")


def test_frame_size_mismatch_exits_2(capsys, files):
    code, _, err = run_cli(capsys, "induce", "--lattice", str(files["oml10"]),
                           "--frame-size", "4", "--ops", f"frame:{files['le3']}")
    assert code == 2
    assert "does not match" in err


def test_verify_frame_size_must_match_the_frame(capsys, files):
    # --frame-size applies to --ops and must match a --frame
    verify = ("verify", "--lattice", str(files["oml10"]), "--suite", "thm1")
    code, _, err = run_cli(capsys, *verify, "--frame", str(files["le3"]), "--frame-size", "7")
    assert (code, err) == (2, "error: --frame-size 7 does not match frame 'le3' with 3 points\n")
    code, _, err = run_cli(capsys, *verify, "--frame-size", "3")
    assert (code, err) == (2, "error: --frame-size needs --frame or --ops\n")
    code, out, _ = run_cli(capsys, *verify, "--frame", str(files["le3"]), "--frame-size", "3")
    assert code == 0 and out.startswith("suite thm1: pass")


# -- induce / classify / roundtrip -------------------------------------------

def test_induce_r3_relation(capsys, files):
    code, out, _ = run_cli(capsys, "induce", "--lattice", str(files["oml10"]),
                           "--ops", "example2", "--which", "r3")
    assert code == 0
    rel_line = next(l for l in out.splitlines() if l.startswith("rel "))
    pairs = set(rel_line.split()[1:])
    want = {"1>1", "2>2"} | {f"{s}>{t}" for s in "345" for t in "345"}
    assert pairs == want
    assert "excluded pairs, first violating proposition each:" in out


def test_induce_r1_matches_frame_relation(capsys, files):
    # operators induced from a frame give back exactly that frame
    code, out, _ = run_cli(capsys, "induce", "--lattice", str(files["oml10"]),
                           "--ops", f"frame:{files['le3']}", "--which", "r1")
    assert code == 0
    rel_line = next(l for l in out.splitlines() if l.startswith("rel "))
    assert set(rel_line.split()[1:]) == {"1>1", "1>2", "1>3", "2>2", "2>3", "3>3"}


def test_induce_sampled_is_flagged(capsys, files, monkeypatch):
    monkeypatch.setenv("OMT_BUDGET", "100")
    code, out, _ = run_cli(capsys, "induce", "--lattice", str(files["oml10"]),
                           "--ops", "example2")
    assert code == 0
    assert "# one-sided: the relation is an upper bound (100 sampled propositions)" in out


def test_bad_budget_env_exits_2(capsys, files, monkeypatch):
    monkeypatch.setenv("OMT_BUDGET", "three")
    code, _, err = run_cli(capsys, "induce", "--lattice", str(files["oml10"]),
                           "--ops", "example2")
    assert code == 2
    assert "OMT_BUDGET" in err


@pytest.mark.parametrize("command, flags", [
    ("verify", ["--budget", "0"]),
    ("verify", ["--budget", "-5"]),
    ("induce", ["--budget", "0"]),
    ("verify", ["--jobs", "0"]),
    ("induce", ["--jobs", "-3"]),
], ids=["verify-budget-0", "verify-budget-minus-5", "induce-budget-0",
        "verify-jobs-0", "induce-jobs-minus-3"])
def test_non_positive_budget_or_jobs_exits_2(capsys, files, command, flags):
    if command == "verify":
        argv = ["verify", "--frame", str(files["le3"]), "--suite", "all"]
    else:
        argv = ["induce", "--ops", "example2"]
    code, out, err = run_cli(capsys, *argv, "--lattice", str(files["oml10"]), *flags)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert flags[0].lstrip("-") in err


@pytest.mark.parametrize("frame", ["le5", "le3"], ids=["sampled", "exhaustive"])
def test_negative_seed_exits_2(capsys, files, frame):
    # on oml10 x le5 thm1's pair laws sample; on le3 they are exhaustive
    code, out, err = run_cli(capsys, "verify", "--lattice", str(files["oml10"]),
                             "--frame", str(files[frame]), "--suite", "thm1", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --seed must be a non-negative integer, got -1\n"


def test_classify_worked_quadruple(capsys, files):
    code, out, _ = run_cli(capsys, "classify", "--lattice", str(files["oml10"]),
                           "--ops", "example2")
    assert code == 0
    assert out.startswith("verdict: not-frame-inducible\n")
    assert "witness: P(q) and P*(q) first differ at index 0" in out
    assert "q = (0, 0, 0, 0, 0)" in out
    assert "at point 0 (t=1): 1 vs 0" in out


def test_classify_frame_quadruple(capsys, files):
    code, out, _ = run_cli(capsys, "classify", "--lattice", str(files["oml10"]),
                           "--ops", f"frame:{files['le3']}")
    assert code == 0
    assert out.startswith("verdict: frame-induced\n")
    assert "witness" not in out


def test_roundtrip_text(capsys, files):
    code, out, _ = run_cli(capsys, "roundtrip", "--lattice", str(files["oml10"]),
                           "--frame", str(files["le3"]))
    assert code == 0
    assert out.startswith("suite thm4-roundtrip: pass")
    for label in "PFHG":
        assert f"{label}-coincides" in out


# -- verify output formats ---------------------------------------------------

def test_verify_all_json_lines(capsys, files):
    code, out, _ = run_cli(capsys, "verify", "--lattice", str(files["oml10"]),
                           "--frame", str(files["le2"]), "--suite", "all",
                           "--format", "json-lines")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["suite"] for r in records] == list(SUITE_IDS)
    assert all(r["verdict"] == "pass" for r in records)
    assert all(r["budget"] == 10 ** 6 for r in records)


def test_verify_all_text_separates_reports(capsys, files):
    code, out, _ = run_cli(capsys, "verify", "--lattice", str(files["oml10"]),
                           "--frame", str(files["le2"]), "--suite", "all")
    assert code == 0
    chunks = out.split("\n\n")
    assert len(chunks) == len(SUITE_IDS)
    assert all(chunk.startswith("suite ") for chunk in chunks)


def test_verify_unknown_suite_exits_2(capsys, files):
    code, _, err = run_cli(capsys, "verify", "--lattice", str(files["oml10"]),
                           "--frame", str(files["le2"]), "--suite", "thm99")
    assert code == 2
    assert "unknown suite" in err


# -- operator tables ---------------------------------------------------------

def optable_text(lattice, points, quad):
    lines = [f"optable demo", "points " + " ".join(points)]
    for label, op in quad.as_dict().items():
        for row in proposition_block(lattice, len(points), 0,
                                     proposition_count(lattice, len(points))):
            q = tuple(int(x) for x in row)
            key = ",".join(lattice.name_of(v) for v in q)
            out = ",".join(lattice.name_of(v) for v in op(q))
            lines.append(f"{label} {key} {out}")
    return "\n".join(lines) + "\n"


def test_optable_roundtrip(files):
    lattice = builtin_lattice("cube2")
    frame = builtin_frame("le2")
    quad = OperatorQuadruple.from_frame(lattice, frame)
    text = optable_text(lattice, frame.points, quad)
    parsed, points = cli.parse_optable(text, lattice)
    assert points == frame.points
    for label, op in quad.as_dict().items():
        assert ops_equal(getattr(parsed, label), op)


def test_optable_through_cli(capsys, files):
    lattice = builtin_lattice("cube2")
    frame = builtin_frame("le2")
    quad = OperatorQuadruple.from_frame(lattice, frame)
    path = files["dir"] / "quad.optable"
    path.write_text(optable_text(lattice, frame.points, quad), encoding="utf-8")
    code, out, _ = run_cli(capsys, "induce", "--lattice", str(files["cube2"]),
                           "--ops", f"table:{path}")
    assert code == 0
    rel_line = next(l for l in out.splitlines() if l.startswith("rel "))
    assert set(rel_line.split()[1:]) == {"1>1", "1>2", "2>2"}


def test_optable_errors():
    lattice = builtin_lattice("cube2")
    cases = (
        ("", "empty operator table"),
        ("points 1 2\n", "expected 'optable <name>'"),
        ("optable x\nP 0 0\n", "points must come before mappings"),
        ("optable x\npoints 1\nP 0\n", "mappings look like"),
        ("optable x\npoints 1 2\nP 0 0\n", "expected 2 values"),
        ("optable x\npoints 1\nP z 0\n", "unknown lattice element"),
        ("optable x\npoints 1\nP 0 0\nP 0 a\n", "maps 0 twice"),
        ("optable x\npoints 1\nwhat 0 0\n", "unknown directive"),
        ("optable x\npoints 1\nP 0 0\n", "maps 1 of 4 propositions"),
    )
    for text, message in cases:
        with pytest.raises(ParseError, match=message):
            cli.parse_optable(text, lattice)
