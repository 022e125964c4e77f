"""Walk four small dual matrices through the whole library.

Runs the rank/index profile, the Drazin- and group-type inverses with their
existence tests, the index-1 block decomposition, and both equation solvers,
printing every intermediate exactly.  No arguments; output is deterministic.

    python3 scripts/worked_examples.py
"""

from fractions import Fraction

from dualinv import (
    DoesNotExist,
    DualMatrix,
    ParametricDualSolutions,
    RealMatrix,
    block_diagonalize_ind1,
    column_space_contains,
    ddi,
    ddi_obstruction,
    dgi,
    doubled,
    existence_profile,
    hstack,
    index_profile,
    solve_general,
    solve_restricted,
    verify,
    vstack,
    wddi,
    wdgi,
)


def fmt(x: Fraction) -> str:
    return str(x)


def show(label: str, a: DualMatrix) -> None:
    print(f"  {label}:")
    width = max(
        [len(fmt(v)) for row in a.std.entries for v in row]
        + [len(fmt(v)) for row in a.dual.entries for v in row]
        + [1]
    )
    for i in range(a.rows):
        std_row = "  ".join(fmt(v).rjust(width) for v in a.std.entries[i])
        dual_row = "  ".join(fmt(v).rjust(width) for v in a.dual.entries[i])
        joint = "+ eps *" if i == a.rows // 2 else "       "
        print(f"    [ {std_row} ] {joint} [ {dual_row} ]")


def banner(title: str) -> None:
    print()
    print(f"== {title} " + "=" * max(0, 68 - len(title)))


def family_contains(family: ParametricDualSolutions, v: DualMatrix) -> bool:
    """True when v^ = particular + sum_i g^_i y^_i for some dual y^_i.

    Doubling maps g^ y^ to [[G, 0], [G0, G]] [y; y0], so in stacked
    coordinates [std; dual] the directions span the columns of each
    doubled(g^).
    """
    n = family.particular.rows
    span = hstack(RealMatrix.zeros(2 * n, 0), *(doubled(g) for g in family.generators))
    offset = v - family.particular
    return column_space_contains(span, vstack(offset.std, offset.dual))


def profile_line(a: DualMatrix) -> None:
    p = index_profile(a)
    print(
        f"  arank={p.arank}  drank={p.drank}  aind={p.aind}  dind={p.dind}"
    )


def drazin_cases() -> None:
    banner("4x4 with a nonzero obstruction")
    a = DualMatrix.of(
        [[1, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 0], [1, 0, 0, 0]],
        [[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]],
    )
    show("A", a)
    profile_line(a)
    prof = existence_profile(a)
    print(f"  drazin-type inverse exists: {prof.ddi_exists}")
    show("obstruction", DualMatrix.from_real(prof.obstruction))
    weak = wddi(a)
    show("weak inverse", weak)
    report = verify(a, weak, "wddi-t")
    for label, holds in report.equations:
        print(f"  {label}: {holds}")
    try:
        ddi(a)
    except DoesNotExist as exc:
        print(f"  ddi(A) -> DoesNotExist: {exc}")

    banner("4x4 where the inverse exists")
    b = DualMatrix.of(
        [[4, 8, 12, 10], [2, 8, 10, 8], [0, -2, -2, 0], [-2, -4, -6, -6]],
        [[-4, 3, -3, 2], [5, 4, 0, 2], [-7, 7, 1, 0], [2, -3, 2, 1]],
    )
    show("B", b)
    profile_line(b)
    inv = ddi(b)
    show("dual Drazin inverse", inv)
    print(f"  coincides with the weak form: {inv == wddi(b)}")


def group_cases() -> None:
    banner("2x2 group flavour and the solvers")
    a = DualMatrix.of([[1, 0], [0, 0]], [[0, 0], [1, 1]])
    show("A", a)
    profile_line(a)
    try:
        dgi(a)
    except DoesNotExist as exc:
        print(f"  dgi(A) -> DoesNotExist: {exc}")
        show("witness", DualMatrix.from_real(exc.witness))
    weak = wdgi(a)
    show("weak group inverse", weak)
    d = block_diagonalize_ind1(a)
    print(f"  block decomposition: r={d.r}, reassembles: {d.assemble() == a}")

    b = DualMatrix.of([[1], [0]], [[0], [1]])
    show("right-hand side b", b)
    restricted = solve_restricted(a, b)
    show("restricted particular", restricted.particular)
    for i, g in enumerate(restricted.generators):
        show(f"restricted generator {i}", g)
    for entry in ([[1], [0]], [[0], [1]]), ([[1], [0]], [[0], [2]]):
        candidate = DualMatrix.of(*entry)
        print(f"  family contains {entry}: {family_contains(restricted, candidate)}")
    general = solve_general(a, b)
    print(f"  unrestricted family has {len(general.generators)} generators")

    banner("2x2 where the group inverse exists")
    c = DualMatrix.of([[1, 0], [0, 0]], [[0, 1], [1, 0]])
    show("C", c)
    inv = dgi(c)
    show("dual group inverse", inv)
    print(f"  coincides with the weak form: {inv == wdgi(c)}")


def main() -> None:
    drazin_cases()
    group_cases()
    print()


if __name__ == "__main__":
    main()
