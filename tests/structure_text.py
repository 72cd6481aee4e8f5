"""The structure-constant text of finite-dimensional Hopf data: the inverse of
`hopfcalc.hopf.parse_structure_constants`, for the parser round trips."""


def render_structure_constants(h, name: str) -> str:
    """`h` in the line format, under the header ``HOPF <name>``."""
    basis = h.algebra.basis.enumerate()
    pos = {ixx: i for i, ixx in enumerate(basis)}
    lines = [f"HOPF {name}", f"DIM {len(basis)}", f"SCALAR_ORDER {h.algebra.scalar_order}"]
    for i in basis:
        for j in basis:
            for k, c in h.algebra.mult(i, j).items():
                lines.append(f"MUL {pos[i]} {pos[j]} -> {pos[k]} : {c.to_text()}")
    for i in basis:
        for pair, c in h.comul(i).items():
            lines.append(f"COMUL {pos[i]} -> {pos[pair[1]]} {pos[pair[2]]} : {c.to_text()}")
    for i in basis:
        c = h.counit(i)
        if not c.is_zero():
            lines.append(f"COUNIT {pos[i]} : {c.to_text()}")
    for i in basis:
        for j, c in h.antipode(i).items():
            lines.append(f"ANTIPODE {pos[i]} -> {pos[j]} : {c.to_text()}")
    return "\n".join(lines) + "\n"
