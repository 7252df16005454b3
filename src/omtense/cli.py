"""Command-line entry point.

Subcommands: check-lattice, eval, sasaki-table, induce, classify, roundtrip,
extend, verify, demo. All output is deterministic; errors go to stderr with
an `error:` prefix. Exit codes: 0 success (including skipped and one-sided
verdicts), 1 verification or lattice-law failure, 2 any error: usage, a
file that cannot be read or parsed, an input the package refuses (say, an
order with no top or a pair with no join) or one whose arrays would not
fit in physical memory.
The default proposition budget comes from OMT_BUDGET when set.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures
from .errors import InvalidSpec, OmtError, ParseError, UnknownDemo
from .extension import extend_frame, extend_prop
from .frames import TimeFrame, parse_frame
from .induction import classify_inducibility, induce_R1, induce_R2, induce_R3, roundtrip_frame
from .lattice import Oml, _tokenize, build_lattice, check_orthomodular, parse_lattice
from .render import (
    connective_tables_text,
    extension_table,
    induced_relation_text,
    point_text,
    prop_table,
    prop_text,
)
from .report import FAIL, VerifyReport
from .tense import (
    DEFAULT_SEED,
    FrameInduced,
    OperatorQuadruple,
    Tabulated,
    compose,
    parse_props,
    proposition_count,
)
from .verify import Instance, SUITE_IDS, run_all, run_suite

DEMOS = ("example1", "example1-pg", "example2", "example-final")


def _read(path: str) -> str:
    """The text of the file at path, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                         f"at offset {exc.start}") from None


def _load_lattice(path: str) -> Oml:
    return build_lattice(parse_lattice(_read(path)))


def _load_frame(path: str) -> TimeFrame:
    return parse_frame(_read(path))


# -- operator specs ---------------------------------------------------------

def parse_optable(text: str, lattice: Oml):
    """Parse a tabulated operator quadruple.

    optable <name>
    points <p> ...
    <P|F|H|G> <in values> <out values>

    Values are comma-separated element names, one slot per point in order.
    Every proposition must be mapped for each of the four labels.
    """
    name = None
    points: list[str] = []
    tables: dict[str, dict[tuple, tuple]] = {w: {} for w in "PFHG"}
    for lineno, tokens in _tokenize(text):
        head, rest = tokens[0], tokens[1:]
        if name is None:
            if head != "optable" or len(rest) != 1:
                raise ParseError("expected 'optable <name>' as the first directive",
                                 line=lineno, token=head)
            name = rest[0]
        elif head == "points":
            points.extend(rest)
        elif head in tables:
            if not points:
                raise ParseError("points must come before mappings", line=lineno)
            if len(rest) != 2:
                raise ParseError("mappings look like '<op> <in> <out>'",
                                 line=lineno, token=head)
            row = []
            for chunk in rest:
                values = chunk.split(",")
                if len(values) != len(points):
                    raise ParseError(f"expected {len(points)} values", line=lineno,
                                     token=chunk)
                for v in values:
                    if v not in lattice.index:
                        raise ParseError(f"unknown lattice element {v!r}",
                                         line=lineno, token=v)
                row.append(tuple(lattice.index[v] for v in values))
            key, out = row
            if key in tables[head]:
                raise ParseError(f"{head} maps {rest[0]} twice", line=lineno)
            tables[head][key] = out
        else:
            raise ParseError("unknown directive", line=lineno, token=head)
    if name is None:
        raise ParseError("empty operator table")
    if not points:
        raise ParseError("operator table declares no points")
    want = proposition_count(lattice, len(points))
    for w in "PFHG":
        if len(tables[w]) != want:
            raise ParseError(f"operator {w} maps {len(tables[w])} of {want} propositions")
    ops = {w: Tabulated(lattice, len(points), tables[w], label=w) for w in "PFHG"}
    return OperatorQuadruple(**ops), tuple(points)


def _sized(frame: TimeFrame, frame_size: int | None) -> TimeFrame:
    """frame, checked against --frame-size when one is given."""
    if frame_size is not None and frame_size != frame.n:
        raise InvalidSpec(f"--frame-size {frame_size} does not match "
                          f"frame {frame.name!r} with {frame.n} points")
    return frame


def _resolve_ops(spec: str, lattice: Oml, frame_size: int | None):
    """An ops spec is frame:<file>, table:<file> or example2."""
    if spec == "example2":
        n = frame_size if frame_size is not None else 5
        points = tuple(str(i + 1) for i in range(n))
        return fixtures.example2_quadruple(lattice, points), points
    kind, sep, arg = spec.partition(":")
    if not sep or not arg:
        raise InvalidSpec("ops spec must be frame:<file>, table:<file> or example2")
    if kind == "frame":
        frame = _sized(_load_frame(arg), frame_size)
        return OperatorQuadruple.from_frame(lattice, frame), frame.points
    if kind == "table":
        quad, points = parse_optable(_read(arg), lattice)
        if frame_size is not None and frame_size != len(points):
            raise InvalidSpec(f"--frame-size {frame_size} does not match "
                              f"operator table with {len(points)} points")
        return quad, points
    raise InvalidSpec("ops spec must be frame:<file>, table:<file> or example2")


# -- subcommands ------------------------------------------------------------

def _cmd_check_lattice(args) -> int:
    lattice = build_lattice(parse_lattice(_read(args.lattice)))
    if not lattice.has_ortho:
        print(f"ok: lattice ({lattice.n} elements, no orthocomplementation)")
        return 0
    report = check_orthomodular(lattice)
    if report.verdict == FAIL:
        w = report.witness
        named = {name: lattice.name_of(v) for name, v in w.elements}
        print(f"orthomodular law fails: {w.note}")
        print(f"  x = {named['x']}, y = {named['y']}")
        print(f"  x v (y ^ x') = {lattice.name_of(w.lhs)}, "
              f"expected {lattice.name_of(w.rhs)}")
        return 1
    print("ok: orthomodular")
    return 0


def _cmd_eval(args) -> int:
    lattice = _load_lattice(args.lattice)
    frame = _load_frame(args.frame)
    props = parse_props(_read(args.prop), lattice, frame)
    words = [w.strip() for w in args.ops.split(",") if w.strip()]
    ops = {}
    for word in words:
        if not word or any(ch not in "PFHG" for ch in word):
            raise InvalidSpec(f"operator words are nonempty strings over PFHG: {word!r}")
        op = FrameInduced(lattice, frame, word[-1])
        for ch in reversed(word[:-1]):
            op = compose(FrameInduced(lattice, frame, ch), op)
        ops[word] = op
    blocks = []
    for name, values in props.items():
        rows = [(f"{name}(t)", values)]
        rows += [(f"{word}({name})(t)", ops[word](values)) for word in words]
        blocks.append(prop_table(lattice, frame.points, rows))
    print("\n".join(blocks), end="")
    return 0


def _cmd_sasaki_table(args) -> int:
    lattice = _load_lattice(args.lattice)
    print(connective_tables_text(lattice), end="")
    return 0


def _induce_args(args):
    lattice = _load_lattice(args.lattice)
    quad, points = _resolve_ops(args.ops, lattice, args.frame_size)
    return lattice, quad, points


def _cmd_induce(args) -> int:
    lattice, quad, points = _induce_args(args)
    kw = dict(budget=args.budget, seed=args.seed, jobs=args.jobs)
    if args.which == "r1":
        report = induce_R1(lattice, points, quad.P, quad.F, **kw)
    elif args.which == "r2":
        report = induce_R2(lattice, points, quad.H, quad.G, **kw)
    else:
        report = induce_R3(lattice, points, quad, **kw)
    print(induced_relation_text(report), end="")
    return 0


def _cmd_classify(args) -> int:
    lattice, quad, points = _induce_args(args)
    result = classify_inducibility(lattice, points, quad, budget=args.budget,
                                   seed=args.seed, jobs=args.jobs)
    print(f"verdict: {result.verdict}")
    print(induced_relation_text(result.relation, include_witnesses=False), end="")
    w = result.witness
    if w is not None:
        print()
        print(f"witness: {w.note}")
        for name, values in w.props:
            print(f"  {name} = {prop_text(lattice, values)}")
        print(f"  at {point_text(w.point, points)}: "
              f"{lattice.name_of(w.lhs)} vs {lattice.name_of(w.rhs)}")
    return 0


def _emit_reports(reports: list[VerifyReport], fmt: str) -> int:
    if fmt == "json-lines":
        for report in reports:
            print(json.dumps(report.to_json()))
    else:
        print("\n\n".join(report.render_text() for report in reports))
    return 1 if any(r.verdict == FAIL for r in reports) else 0


def _cmd_roundtrip(args) -> int:
    lattice = _load_lattice(args.lattice)
    frame = _load_frame(args.frame)
    report = roundtrip_frame(lattice, frame, budget=args.budget, seed=args.seed,
                             jobs=args.jobs)
    return _emit_reports([report], args.format)


def _cmd_extend(args) -> int:
    lattice = _load_lattice(args.lattice)
    frame = _load_frame(args.frame)
    props = parse_props(_read(args.prop), lattice, frame)
    labels = ("P", "F") if args.mode == "pf" else ("H", "G")
    print("\n".join(_extension_block(lattice, frame, name, values, labels)
                    for name, values in props.items()), end="")
    return 0


def _extension_block(lattice: Oml, frame: TimeFrame, name: str, q, labels) -> str:
    """The extension table of the proposition q, shown as name: q extended by
    frame's two operators labels, and the extended frame's two on the result."""
    ext = extend_frame(frame)
    inner = OperatorQuadruple.from_frame(lattice, frame).as_dict()
    qbar = extend_prop(q, inner[labels[0]], inner[labels[1]])
    rows = [(f"{name}bar(t)", qbar)]
    rows += [(f"{w}bar({name}bar)(t)", FrameInduced(lattice, ext.bar, w)(qbar)) for w in labels]
    return extension_table(lattice, ext, rows)


def _cmd_verify(args) -> int:
    lattice = _load_lattice(args.lattice)
    if args.frame and args.ops:
        raise InvalidSpec("--frame and --ops are mutually exclusive")
    frame = _sized(_load_frame(args.frame), args.frame_size) if args.frame else None
    ops = points = None
    if args.ops:
        ops, points = _resolve_ops(args.ops, lattice, args.frame_size)
    elif frame is None and args.frame_size is not None:
        raise InvalidSpec("--frame-size needs --frame or --ops")
    inst = Instance(lattice=lattice, frame=frame, ops=ops, points=points,
                    budget=args.budget, seed=args.seed, jobs=args.jobs)
    if args.suite == "all":
        reports = run_all(inst)
    else:
        reports = [run_suite(args.suite, inst)]
    return _emit_reports(reports, args.format)


def _demo_example1(pg_only: bool) -> None:
    lattice = fixtures.builtin_lattice("oml10")
    frame = fixtures.builtin_frame("le5")
    props = fixtures.example_props(lattice, frame)
    quad = OperatorQuadruple.from_frame(lattice, frame)
    print(f"lattice {lattice.name}, frame {frame.name}")
    for name in ("p", "q"):
        values = props[name]
        rows = [(f"{name}(t)", values)]
        if pg_only:
            rows.append((f"PG({name})(t)", quad.P(quad.G(values))))
            rows.append((f"GP({name})(t)", quad.G(quad.P(values))))
        else:
            for label, op in quad.as_dict().items():
                rows.append((f"{label}({name})(t)", op(values)))
        print()
        print(prop_table(lattice, frame.points, rows), end="")


def _demo_example2() -> None:
    lattice = fixtures.builtin_lattice("oml10")
    points = ("1", "2", "3", "4", "5")
    quad = fixtures.example2_quadruple(lattice, points)
    print(f"lattice {lattice.name}, points {' '.join(points)}")
    print("ops: P keeps t=2 else 1, F keeps t=1 else 1, "
          "H keeps t=1 else 0, G keeps t=2 else 0")
    print()
    report = induce_R3(lattice, points, quad)
    print(induced_relation_text(report, include_witnesses=False))
    starred = OperatorQuadruple.from_frame(lattice, report.frame())
    p = fixtures.example_props(lattice)["p"]
    rows = [
        ("p(t)", p),
        ("P(p)(t)", quad.P(p)),
        ("F(p)(t)", quad.F(p)),
        ("P*(p)(t)", starred.P(p)),
        ("F*(p)(t)", starred.F(p)),
    ]
    print(prop_table(lattice, points, rows), end="")


def _demo_example_final() -> None:
    lattice = fixtures.builtin_lattice("oml10")
    frame = fixtures.builtin_frame("le5")
    p = fixtures.example_props(lattice, frame)["p"]
    print(f"lattice {lattice.name}, frame {frame.name} extended with past and "
          "future copies")
    print()
    print(_extension_block(lattice, frame, "p", p, ("P", "F")), end="")


def _cmd_demo(args) -> int:
    name = args.name
    if name == "example1":
        _demo_example1(pg_only=False)
    elif name == "example1-pg":
        _demo_example1(pg_only=True)
    elif name == "example2":
        _demo_example2()
    elif name == "example-final":
        _demo_example_final()
    else:
        raise UnknownDemo(f"unknown demo {name!r} (known: {', '.join(DEMOS)})")
    return 0


# -- argument parsing -------------------------------------------------------

def _add_budget_flags(sub) -> None:
    sub.add_argument("--budget", type=int, default=None,
                     help="max propositions per quantifier (default: OMT_BUDGET or 10^6)")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help="seed for sampled quantification")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes: a long law scan forks up to N-1 children")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omt",
        description="Tense operators, Sasaki connectives and induced time "
                    "frames over finite complete lattices.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check-lattice", help="validate a lattice file")
    sub.add_argument("lattice", help="lattice file")
    sub.set_defaults(fn=_cmd_check_lattice)

    sub = subs.add_parser("eval", help="evaluate tense operators on propositions")
    sub.add_argument("--lattice", required=True)
    sub.add_argument("--frame", required=True)
    sub.add_argument("--prop", required=True)
    sub.add_argument("--ops", default="P,F,H,G",
                     help="comma-separated operator words over P,F,H,G (e.g. PG)")
    sub.set_defaults(fn=_cmd_eval)

    sub = subs.add_parser("sasaki-table", help="print the * and -> tables")
    sub.add_argument("--lattice", required=True)
    sub.set_defaults(fn=_cmd_sasaki_table)

    for cmd, fn, description in (
            ("induce", _cmd_induce, "induce a time-preference relation"),
            ("classify", _cmd_classify, "test whether a quadruple is frame-induced")):
        sub = subs.add_parser(cmd, help=description)
        sub.add_argument("--lattice", required=True)
        sub.add_argument("--frame-size", type=int, default=None,
                         help="number of time points (names 1..N)")
        sub.add_argument("--ops", required=True,
                         help="frame:<file>, table:<file> or example2")
        if cmd == "induce":
            sub.add_argument("--which", choices=("r1", "r2", "r3"), default="r3")
        _add_budget_flags(sub)
        sub.set_defaults(fn=fn)

    sub = subs.add_parser("roundtrip", help="frame -> operators -> relation -> operators")
    sub.add_argument("--lattice", required=True)
    sub.add_argument("--frame", required=True)
    sub.add_argument("--format", choices=("text", "json-lines"), default="text")
    _add_budget_flags(sub)
    sub.set_defaults(fn=_cmd_roundtrip)

    sub = subs.add_parser("extend", help="extend a frame with past and future copies")
    sub.add_argument("--lattice", required=True)
    sub.add_argument("--frame", required=True)
    sub.add_argument("--prop", required=True)
    sub.add_argument("--mode", choices=("pf", "hg"), required=True)
    sub.set_defaults(fn=_cmd_extend)

    sub = subs.add_parser("verify", help="run theorem suites")
    sub.add_argument("--lattice", required=True)
    sub.add_argument("--frame")
    sub.add_argument("--ops", help="frame:<file>, table:<file> or example2")
    sub.add_argument("--frame-size", type=int, default=None,
                     help="number of time points (names 1..N); must match --frame")
    sub.add_argument("--suite", required=True,
                     help="one of %s, or all" % ", ".join(SUITE_IDS))
    sub.add_argument("--format", choices=("text", "json-lines"), default="text")
    _add_budget_flags(sub)
    sub.set_defaults(fn=_cmd_verify)

    sub = subs.add_parser("demo", help="print a built-in worked example")
    sub.add_argument("name", choices=DEMOS)
    sub.set_defaults(fn=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise InvalidSpec(f"--jobs must be a positive integer, got {args.jobs}")
        if getattr(args, "seed", 0) < 0:
            raise InvalidSpec(f"--seed must be a non-negative integer, got {args.seed}")
        return args.fn(args)
    except (OmtError, OSError) as exc:
        # exit 1 is kept for a failing verdict; an input the package refuses
        # is an error like a missing file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
