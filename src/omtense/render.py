"""Plain-text tables: operators as rows, time points as columns.

Everything here returns strings with a trailing newline and no trailing
spaces, so output can be locked by golden files.
"""

from __future__ import annotations

from .extension import ExtendedFrame
from .induction import InducedRelationReport
from .lattice import Oml
from .report import SAMPLED
from .sasaki import connective_tables
from .tense import Prop


def prop_text(lattice: Oml, values) -> str:
    """A proposition as its element names, "(a, b, c)"."""
    return "(" + ", ".join(lattice.name_of(int(v)) for v in values) + ")"


def point_text(point: int | None, points) -> str:
    """The text 'point N', with ' (t=name)' when points names point N."""
    text = f"point {point}"
    if point is not None and point < len(points):
        text += f" (t={points[point]})"
    return text


def render_table(rows: list[list[str]], *, zone_breaks: tuple[int, ...] = ()) -> str:
    """Align a cell matrix, with a rule under the first row; zone_breaks
    insert a bar column before those indices."""
    cells = []
    for row in rows:
        out = []
        for i, cell in enumerate(row):
            if i in zone_breaks:
                out.append("|")
            out.append(cell)
        cells.append(out)
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    lines = []
    for r, row in enumerate(cells):
        line = "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        lines.append(line)
        if r == 0:
            lines.append("-" * len(line))
    return "\n".join(lines) + "\n"


def prop_table(lattice: Oml, points, rows: list[tuple[str, Prop]]) -> str:
    """Header row of time points, then one row of element names per label."""
    header = ["t"] + [str(p) for p in points]
    body = [[label] + [lattice.name_of(v) for v in values] for label, values in rows]
    return render_table([header] + body)


def extension_table(lattice: Oml, ext: ExtendedFrame,
                    rows: list[tuple[str, Prop]]) -> str:
    """Same as prop_table but with bars separating past | base | future."""
    n = ext.n
    header = ["t"] + list(ext.bar.points)
    body = [[label] + [lattice.name_of(v) for v in values] for label, values in rows]
    breaks = (1 + n, 1 + 2 * n)  # column 0 is the label column
    return render_table([header] + body, zone_breaks=breaks)


def connective_tables_text(lattice: Oml) -> str:
    """The n x n Sasaki conjunction and implication tables, element names."""
    sat, imp = connective_tables(lattice)
    blocks = []
    for corner, table in (("*", sat), ("->", imp)):
        header = [corner] + list(lattice.names)
        body = [[lattice.names[x]] + [lattice.name_of(table[x, y])
                                      for y in range(lattice.n)]
                for x in range(lattice.n)]
        blocks.append(render_table([header] + body))
    return "\n".join(blocks)


def induced_relation_text(report: InducedRelationReport, *,
                          include_witnesses: bool = True) -> str:
    """The induced relation in frame text format, plus the exclusion witnesses."""
    lattice = report.lattice
    lines = [f"frame {report.which.lower()}-induced",
             "points " + " ".join(report.points)]
    if report.pairs:
        lines.append("rel " + " ".join(f"{s}>{t}" for s, t in report.pair_names()))
    if report.mode == SAMPLED:
        lines.append(f"# one-sided: the relation is an upper bound "
                     f"({report.samples} sampled propositions)")
    if include_witnesses and report.witnesses:
        lines.append("")
        lines.append("excluded pairs, first violating proposition each:")
        for (s, t) in sorted(report.witnesses):
            w = report.witnesses[(s, t)]
            lines.append(f"  ({report.points[s]}, {report.points[t]}): "
                         f"{w.inequality} fails for q = {prop_text(lattice, w.q)}; "
                         f"{lattice.name_of(w.lhs)} !<= {lattice.name_of(w.rhs)}")
    return "\n".join(lines) + "\n"
