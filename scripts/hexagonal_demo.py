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
    lagrange_reduce,
    make_surface,
    psi_eval,
    theta_eval,
    voronoi_cell,
)
from tropical_kummer.kummer import quartic_off
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
    out.write_text(quartic_off(quartic, 12))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
