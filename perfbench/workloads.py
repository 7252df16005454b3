"""Workloads of the omtense benchmark: inputs, command lists and output checks.

Each workload is a fixed list of `omt` command lines run in-process through
omtense.cli.main with stdout captured, followed by a witness replay of every
failing report. README.md in this directory says why each one exists.

Run as a script, this module performs one workload's set-up in a fresh
process and prints "ready"; run.py times that to report setup_s:

    python3 perfbench/workloads.py <workload> <scratch dir>
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEED = 1729


def import_omtense():
    """Import the package from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import omtense
    if Path(omtense.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"omtense imported from {omtense.__file__}, not from {SRC}")
    return omtense


# -- set-up -------------------------------------------------------------------

def optable_text(lattice, points, quad) -> str:
    """Every proposition mapped by P, F, H and G, in odometer order."""
    order = [lattice.bottom] + [i for i in range(lattice.n) if i != lattice.bottom]
    lines = ["optable demo", "points " + " ".join(points)]
    for label, op in quad.as_dict().items():
        for q in itertools.product(order, repeat=len(points)):
            key = ",".join(lattice.name_of(v) for v in q)
            out = ",".join(lattice.name_of(v) for v in op(q))
            lines.append(f"{label} {key} {out}")
    return "\n".join(lines) + "\n"


def write_inputs(workdir: Path) -> None:
    """Fixture lattices and frames as files, plus mo2-le3.optable."""
    from omtense import fixtures
    from omtense.tense import OperatorQuadruple
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in fixtures.LATTICE_TEXTS.items():
        (workdir / f"{name}.lattice").write_text(text, encoding="utf-8")
    for name, text in fixtures.FRAME_TEXTS.items():
        (workdir / f"{name}.frame").write_text(text, encoding="utf-8")
    mo2 = fixtures.builtin_lattice("mo2")
    le3 = fixtures.builtin_frame("le3")
    quad = OperatorQuadruple.from_frame(mo2, le3)
    (workdir / "mo2-le3.optable").write_text(optable_text(mo2, le3.points, quad),
                                            encoding="utf-8")


def build_inputs(workdir: Path, workload: "Workload") -> dict:
    """Every lattice, frame and quadruple the workload uses, via the public parsers."""
    from omtense import cli, fixtures
    from omtense.frames import parse_frame
    from omtense.lattice import build_lattice, parse_lattice
    from omtense.tense import OperatorQuadruple

    def read(name):
        return (workdir / name).read_text(encoding="utf-8")

    built = {}
    for lattice_name, ops in workload.instances:
        lattice = build_lattice(parse_lattice(read(f"{lattice_name}.lattice")))
        if ops.startswith("frame:"):
            frame = parse_frame(read(f"{ops[len('frame:'):]}.frame"))
            quad = OperatorQuadruple.from_frame(lattice, frame)
        elif ops.startswith("table:"):
            quad, _ = cli.parse_optable(read(ops[len("table:"):]), lattice)
        else:
            quad = fixtures.example2_quadruple(lattice, ("1", "2", "3", "4", "5"))
        built[(lattice_name, ops)] = quad
    return built


def setup(workdir: Path, workload: "Workload") -> dict:
    import_omtense()
    write_inputs(workdir)
    return build_inputs(workdir, workload)


# -- workloads ------------------------------------------------------------------

def _verify(workdir: Path, lattice: str, frame: str, jobs: int, seed: int) -> list[str]:
    return ["verify", "--lattice", str(workdir / f"{lattice}.lattice"),
            "--frame", str(workdir / f"{frame}.frame"), "--suite", "all",
            "--jobs", str(jobs), "--format", "json-lines", "--seed", str(seed)]


def _quadruple_commands(workdir: Path, seed: int) -> list[list[str]]:
    oml10 = ["--lattice", str(workdir / "oml10.lattice"), "--ops", "example2",
             "--frame-size", "5"]
    mo2 = ["--lattice", str(workdir / "mo2.lattice"),
           "--ops", f"table:{workdir / 'mo2-le3.optable'}"]
    verify_all = ["verify", "--suite", "all", "--format", "json-lines"]
    s = ["--seed", str(seed)]
    return [
        ["classify", *oml10, *s],
        [*verify_all, *oml10, *s],
        ["classify", *mo2, *s],
        [*verify_all, *mo2, *s],
        _verify(workdir, "o6", "le3", 1, seed),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable[[Path, int], list[list[str]]]
    instances: tuple            # (lattice, ops spec) pairs built at set-up
    reference: str              # workload whose recorded output this one must match
    jobs: int = 1


WORKLOADS = {w.name: w for w in (
    Workload(
        "exhaustive-pairs",
        "oml10 x le3, all suites at jobs 1: pair laws exhaustive at the 10^6 budget; "
        "operator application, Sasaki and the order check dominate",
        lambda d, seed: [_verify(d, "oml10", "le3", 1, seed)],
        (("oml10", "frame:le3"),), "exhaustive-pairs"),
    Workload(
        "exhaustive-pairs-j2",
        "the same command at jobs 2: the only workload on the process-pool path; "
        "its bytes must equal the jobs 1 output",
        lambda d, seed: [_verify(d, "oml10", "le3", 2, seed)],
        (("oml10", "frame:le3"),), "exhaustive-pairs", jobs=2),
    Workload(
        "sampled-wide",
        "oml10 x le5, all suites: 10^5-row enumeration and induction sweeps, "
        "pair laws on the sampled path that bypasses any NxN table",
        lambda d, seed: [_verify(d, "oml10", "le5", 1, seed)],
        (("oml10", "frame:le5"),), "sampled-wide"),
    Workload(
        "quadruples",
        "rule-based and tabulated operators no frame induced, a failing classify "
        "and a failing o6 suite whose witnesses are replayed",
        _quadruple_commands,
        (("oml10", "example2"), ("mo2", "table:mo2-le3.optable"), ("o6", "frame:le3")),
        "quadruples"),
)}


# -- one pass -------------------------------------------------------------------

@dataclass
class PassOutput:
    exits: list[int]
    stdouts: list[str]
    replays: list[str]
    error: str = ""


class ReportCapture:
    """Keeps the reports `omt verify` builds, so failing ones can be replayed."""

    def __init__(self):
        from omtense import cli
        self._cli = cli
        self._run_all = cli.run_all
        self.reports: list = []

        def run_all(inst):
            reports = self._run_all(inst)
            self.reports.extend(reports)
            return reports
        cli.run_all = run_all

    def close(self) -> None:
        self._cli.run_all = self._run_all


def run_pass(commands: list[list[str]], capture: ReportCapture) -> PassOutput:
    """Run the commands, then replay the witness of every failing report."""
    from omtense import cli, verify
    out = PassOutput([], [], [])
    capture.reports.clear()
    try:
        for argv in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                out.exits.append(cli.main(argv))
            out.stdouts.append(stdout.getvalue())
        for report in capture.reports:
            if report.verdict == "fail":
                out.replays.append(verify.replay_witness(report))
    except Exception:  # a raising command fails the pass; the run goes on
        out.error = traceback.format_exc()
    return out


# -- checks ---------------------------------------------------------------------

def verdicts(stdout: str) -> list:
    """Per-law verdicts of json-lines reports, or the verdict line of text output."""
    out = []
    for line in stdout.splitlines():
        if line.startswith("{"):
            report = json.loads(line)
            laws = tuple((law["law"], json.dumps(law.get("ops", {}), sort_keys=True),
                          law["verdict"], law["mode"], law.get("samples"),
                          law.get("detail", ""))
                         for law in report["laws"])
            out.append((report["suite"], report["verdict"], report.get("reason", ""), laws))
        elif line.startswith("verdict:"):
            out.append(line)
    return out


def cases(stdout: str) -> int:
    """Sum of `samples` over every law of every json-lines report."""
    return sum(law.get("samples") or 0
               for line in stdout.splitlines() if line.startswith("{")
               for law in json.loads(line)["laws"])


def load_reference(workload: Workload) -> dict:
    path = REFERENCE_DIR / f"{workload.reference}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def check_pass(result: PassOutput, reference: dict, seed: int,
               same_as: list[str] | None = None) -> list[str]:
    """Problems with one pass; empty when the pass is correct.

    At the reference seed every stdout byte and replay text must match the
    recording. At any other seed the per-law verdicts must match and every
    failing report must replay. same_as, when given, holds stdout the pass
    must reproduce byte for byte (the jobs 1 output for a jobs 2 pass).
    """
    if result.error:
        return [f"a command raised:\n{result.error}"]
    ref = reference["commands"]
    if len(result.stdouts) != len(ref):
        return [f"{len(result.stdouts)} commands ran, the reference has {len(ref)}"]
    problems = []
    for i, (code, stdout, want) in enumerate(zip(result.exits, result.stdouts, ref)):
        if code != want["exit"]:
            problems.append(f"command {i}: exit code {code}, expected {want['exit']}")
        if seed == reference["seed"]:
            if stdout.encode() != want["stdout"].encode():
                problems.append(f"command {i}: stdout differs from the reference")
        elif verdicts(stdout) != verdicts(want["stdout"]):
            problems.append(f"command {i}: verdicts differ from the reference")
        if same_as is not None and stdout.encode() != same_as[i].encode():
            problems.append(f"command {i}: stdout differs from the jobs 1 output")
    if len(result.replays) != len(reference["replays"]):
        problems.append(f"{len(result.replays)} witness replays, "
                        f"expected {len(reference['replays'])}")
    elif seed == reference["seed"]:
        for i, (got, want) in enumerate(zip(result.replays, reference["replays"])):
            if got != want:
                problems.append(f"replay {i} differs from the reference")
    else:
        for i, (got, want) in enumerate(zip(result.replays, reference["replays"])):
            if got.splitlines()[:1] != want.splitlines()[:1]:
                problems.append(f"replay {i} replays another witness")
    return problems


if __name__ == "__main__":
    _, name, directory = sys.argv
    setup(Path(directory), WORKLOADS[name])
    print("ready", flush=True)
