#!/usr/bin/env python3
"""End-to-end tour of the symmetric hexagonal surface.

Prints the reduced basis, Voronoi cell, theta constants, quartic vertices,
and face planes, then writes the parallelepiped as an OFF mesh,
``kummer_hexagonal.off`` in the current directory, for use in external
viewers.
"""

from fractions import Fraction
from pathlib import Path

from tropical_kummer import (
    VERTEX_LABELS,
    Vec2,
    build_quartic,
    classify,
    fraction_decimal,
    lagrange_reduce,
    make_surface,
    psi_eval,
    theta_eval,
    voronoi_cell,
)
from tropical_kummer.kummer import _parallelogram_frame
from tropical_kummer.theta import CHARACTERISTICS


def fmt(vec) -> str:
    return "(" + ", ".join(str(c) for c in vec.as_tuple()) + ")"


def main() -> None:
    surface = make_surface([[2, -1], [-1, 2]])
    rb = lagrange_reduce(surface)
    norms = ", ".join(str(n) for n in rb.norms)
    print(f"class: {classify(surface).value}")
    print(f"reduced basis: u = {fmt(rb.u)}, v = {fmt(rb.v)}, norms = ({norms})")

    cell = voronoi_cell(surface)
    print(f"voronoi cell: {cell.kind.value}")
    for i, m in enumerate(cell.vertices, 1):
        print(f"  m{i} = {fmt(m)}")

    origin = Vec2(0, 0)
    for char in CHARACTERISTICS:
        print(f"theta[{char}](0) = {theta_eval(surface, char, origin).value}")

    quartic = build_quartic(surface)
    print("quartic vertices:")
    for label, v in zip(VERTEX_LABELS, quartic.vertices):
        print(f"  {label:12s} {fmt(v)}")
    print("face planes (normal . T = offset):")
    for face in quartic.faces:
        print(f"  {face.normal} = {face.offset}   from cells {face.source_cells}")

    sample = Vec2(Fraction(1, 5), Fraction(1, 7))
    print(f"psi{fmt(sample)} = {fmt(psi_eval(surface, sample))}")

    out = Path("kummer_hexagonal.off")
    digits = 12
    lines = ["OFF", "8 6 12"]
    for v in quartic.vertices:
        lines.append(" ".join(fraction_decimal(c, digits) for c in v.as_tuple()))
    for face in quartic.faces:
        pts = [quartic.vertex(vid) for vid in face.vertex_ids]
        base, e1, e2 = _parallelogram_frame(pts)
        cycle = [base, base + e1, base + e1 + e2, base + e2]
        lines.append("4 " + " ".join(str(quartic.vertices.index(p)) for p in cycle))
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
