"""Quantum principal bundle structure of the crossed product calculus.

Vertical map and Atiyah exactness, the canonical strong connection,
covariant derivatives on associated bundles, the quantum tangent space
with its fundamental vector fields, and the bijection between
connections and connection 1-forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from hopfcalc.crossed_calc import CrossedFodc, GradedDc, hor, ver
from hopfcalc.fodc import Fodc
from hopfcalc.linalg import (
    FreeVector,
    LinearSolver,
    LinOp,
    NoSolution,
    QuotientSpace,
    Subspace,
    TrackedSpan,
    combine,
    linear,
    memoise,
    memoise_fields,
    tensor_index,
)
from hopfcalc.report import CheckReport, witness
from hopfcalc.scalars import CycScalar

Index = tuple
E = FreeVector.basis


@dataclass
class CoinvariantForms:
    """Left-coinvariant 1-forms of a bicovariant calculus, with the
    surjection from the augmentation ideal."""

    h_calc: Fodc
    labels: list[Index]
    vectors: dict[Index, FreeVector]
    span: TrackedSpan
    maurer_cartan: Callable[[FreeVector], FreeVector]
    report: CheckReport
    windowed: bool

    @property
    def dim(self) -> int:
        return len(self.labels)

    def lift(self, coeffs: FreeVector) -> FreeVector:
        return linear(lambda label: self.vectors[label], coeffs)

    def express(self, form_vec: FreeVector):
        return self.span.express(form_vec)


def coinvariant_forms(h_calc: Fodc, window: int | None = None) -> CoinvariantForms:
    """Kernel of (lambda - unit (x) id) on the form window, plus the map
    h -> S(h_1) d(h_2), verified to land in it and to span it."""
    if h_calc.left_coaction is None:
        raise ValueError("coinvariant forms need a left coaction")
    h = h_calc.hopf
    report = CheckReport(example=h_calc.name, suite="coinvariant-forms")
    f_basis = h_calc.forms.enumerate(window)
    windowed = not h_calc.forms.is_finite
    unit_h = h.algebra.unit

    def defect(f_ix):
        return h_calc.left_coaction(f_ix) - unit_h.tensor(E(f_ix))

    solver = LinearSolver(LinOp(defect), f_basis)
    kernel = solver.kernel().basis()
    span = TrackedSpan()
    labels = []
    vectors = {}
    for i, vec in enumerate(kernel):
        label = ("coh", i)
        span.add(label, vec)
        labels.append(label)
        vectors[label] = vec

    def maurer_cartan(h_vec: FreeVector) -> FreeVector:
        return span.express(
            combine((h_calc.left_act_vec(h.antipode(h1), h_calc.d(h2)), c) for c, (h1, h2) in h.sweedler_vec(h_vec, 2))
        )

    coinv = CoinvariantForms(
        h_calc=h_calc,
        labels=labels,
        vectors=vectors,
        span=span,
        maurer_cartan=maurer_cartan,
        report=report,
        windowed=windowed,
    )

    # the Cartan-Maurer form lands in the coinvariants and spans them
    h_basis = h.algebra.basis.enumerate(window)
    image = Subspace()
    mc_ok, mc_witness = True, None
    for ix in h_basis:
        shifted = E(ix) - h.algebra.unit.scale(h.counit(ix))
        if shifted.is_zero():
            continue
        try:
            image.add(maurer_cartan(shifted))
        except NoSolution as err:
            mc_ok, mc_witness = False, f"Cartan-Maurer value left the coinvariants: {err.target.to_text()}"
            break
    report.record("maurer-cartan.lands-coinvariant", mc_ok, witness=mc_witness, windowed=windowed)
    if mc_ok:
        report.record(
            "maurer-cartan.surjective",
            image.dim == len(labels),
            witness=f"image rank {image.dim} of {len(labels)}",
            windowed=windowed,
        )
    return coinv


@dataclass
class VerticalData:
    cf: CrossedFodc
    coinv: CoinvariantForms
    ver: Callable[[FreeVector], FreeVector]
    p: Callable[[FreeVector], FreeVector]
    g: Callable[[FreeVector], FreeVector]
    report: CheckReport

    def target_basis(self, window: int | None = None) -> list[Index]:
        pairs = self.cf.crossed.algebra.basis.enumerate(window)
        return [tensor_index(a, c) for a in pairs for c in self.coinv.labels]

    @cached_property
    def _rho_on_coinvariants(self):
        return _coinvariant_coaction(self.coinv)

    def record_rho_stable(self, report: CheckReport) -> dict:
        """Record in report that the coinvariant forms are stable under the
        right coaction; returns that coaction over the coinvariant labels,
        computed once per instance."""
        table, unstable = self._rho_on_coinvariants
        report.record(
            "vertical.coinvariants-rho-stable",
            unstable is None,
            witness=unstable,
            windowed=not self.cf.crossed.algebra.basis.is_finite,
        )
        return table


def vertical_map(cf: CrossedFodc, window: int | None = None) -> VerticalData:
    """ver = p after the vertical projection; p and g are verified to be
    mutually inverse and ver to be left-linear and right colinear."""
    coinv = coinvariant_forms(cf.h_calc, window)
    h = cf.crossed.hopf
    report = CheckReport(example=cf.crossed.algebra.name, suite="vertical-map")
    windowed = not cf.crossed.algebra.basis.is_finite

    @memoise
    def p_ix(ver_ix):
        """b (x) gamma -> (b (x) gamma_-2) (x) [S(gamma_-1) gamma_0]."""
        _, bx, hf = ver_ix
        return combine(
            (E(tensor_index(tensor_index(bx, g_m2), label)), cl * cc)
            for cl, (g_m2, g_m1, g0) in cf.h_calc.lambda_terms(hf, 2)
            for label, cc in coinv.express(cf.h_calc.left_act_vec(h.antipode(g_m1), E(g0))).terms.items()
        )

    def ver_ix(form_ix):
        return p_ix(form_ix) if form_ix[0] == "ver" else FreeVector.zero()

    @memoise
    def g_ix(t_ix):
        _, (_, bx, hx), label = t_ix
        return ver(E(bx), cf.h_calc.left_act_vec(E(hx), coinv.vectors[label]))

    def p_vec(ver_vec: FreeVector) -> FreeVector:
        return linear(p_ix, ver_vec)

    def ver_map(form_vec: FreeVector) -> FreeVector:
        return linear(ver_ix, form_vec)

    def g_vec(target_vec: FreeVector) -> FreeVector:
        return linear(g_ix, target_vec)

    vd = VerticalData(cf=cf, coinv=coinv, ver=ver_map, p=p_vec, g=g_vec, report=report)

    b_basis = cf.crossed.base.basis.enumerate(window)
    h_forms = cf.h_calc.forms.enumerate(window)

    def gp_identity(item):
        bx, hf = item
        v = ver(E(bx), E(hf))
        return g_vec(p_vec(v)) == v, (bx, hf)

    report.sweep(
        "vertical.g-after-p",
        ((bx, hf) for bx in b_basis for hf in h_forms),
        gp_identity,
        windowed=windowed,
    )

    a_basis = cf.crossed.algebra.basis.enumerate(window)

    def pg_identity(item):
        pair_ix, label = item
        v = E(tensor_index(pair_ix, label))
        return p_vec(g_vec(v)) == v, (pair_ix, label)

    report.sweep(
        "vertical.p-after-g",
        ((pair_ix, label) for pair_ix in a_basis for label in coinv.labels),
        pg_identity,
        windowed=windowed,
    )

    form_basis = cf.forms.enumerate(window)

    def left_linear(item):
        pair_ix, form_ix = item
        lhs = ver_map(cf.left_act(pair_ix, form_ix))
        rhs = combine(
            (E(tensor_index(jx, label)), c * cj)
            for (_, inner_pair, label), c in ver_map(E(form_ix)).terms.items()
            for jx, cj in cf.crossed.algebra.mult(pair_ix, inner_pair).terms.items()
        )
        return lhs == rhs, (pair_ix, form_ix)

    report.sweep(
        "vertical.left-linear",
        ((pair_ix, form_ix) for pair_ix in a_basis for form_ix in form_basis),
        left_linear,
        windowed=windowed,
    )

    # right colinearity: the target carries the diagonal coaction
    coh_coaction = vd.record_rho_stable(report)

    def colinear(form_ix):
        # (ver (x) id) rho' against the diagonal coaction applied to ver
        lhs = combine((ver_map(E(f0)).tensor(E(h1)), c) for (_, f0, h1), c in cf.right_coaction(form_ix).terms.items())
        rhs = combine(
            (E(tensor_index(tensor_index(tensor_index(bx, h1), lab), t_ix)), c * c2 * c3 * ct)
            for (_, (_, bx, hx), label), c in ver_map(E(form_ix)).terms.items()
            for c2, (h1, h2) in h.sweedler(hx, 2)
            for (_, lab, h3), c3 in coh_coaction[label].terms.items()
            for t_ix, ct in h.algebra.mult(h2, h3).terms.items()
        )
        return lhs.map_indices(_flatten_target) == rhs.map_indices(_flatten_target), (form_ix,)

    report.sweep("vertical.right-colinear", form_basis, colinear, windowed=windowed)
    return vd


def _flatten_target(ix):
    # ((pair (x) coh) (x) h) and (((pair) (x) coh) (x) h) to a flat triple
    if ix[0] == "@" and ix[1][0] == "@":
        return ("vt", ix[1][1], ix[1][2], ix[2])
    return ix


def _left_multiple(cf: CrossedFodc, pair_ix, t_ix) -> FreeVector:
    """The product of pair_ix with a target basis element (pair (x) label)."""
    _, inner_pair, label = t_ix
    moved = cf.crossed.algebra.mult(pair_ix, inner_pair)
    return combine((E(tensor_index(jx, label)), cj) for jx, cj in moved.terms.items())


def _coinvariant_coaction(coinv: CoinvariantForms):
    """Right coaction restricted to the coinvariant forms, expressed over
    the coinvariant labels, and the witness of the last label whose
    coaction leaves them (None when they are stable)."""
    table = {}
    unstable = None
    for label in coinv.labels:
        by_h = {}
        for (_, f0, h1), c in coinv.h_calc.rho_vec(coinv.vectors[label]).terms.items():
            by_h.setdefault(h1, {})[f0] = c
        try:
            table[label] = combine(
                (E(tensor_index(lab, h1)), cc)
                for h1, component in by_h.items()
                for lab, cc in coinv.express(FreeVector(component)).terms.items()
            )
        except NoSolution:
            unstable = witness(label)
            table[label] = FreeVector.zero()
    return table, unstable


def check_atiyah_exact(
    vd: VerticalData,
    higher: GradedDc | None = None,
    h_graded: GradedDc | None = None,
    max_degree: int = 1,
    window: int | None = None,
) -> CheckReport:
    """Exactness of the vertical sequence: kernel of ver equals the
    horizontal forms and ver is surjective (through the section g); with
    graded data the same is done for the degree-n vertical maps."""
    cf = vd.cf
    report = CheckReport(example=cf.crossed.algebra.name, suite="atiyah")
    windowed = not cf.crossed.algebra.basis.is_finite
    form_basis = cf.forms.enumerate(window)

    solver = LinearSolver(LinOp(lambda ix: vd.ver(E(ix))), form_basis)
    kernel = solver.kernel()
    hor_indices = set(cf.horizontal_window(window))
    ker_in_hor, outside = True, None
    for vec in kernel.basis():
        if any(ix not in hor_indices and ix[0] != "hor" for ix in vec.support()):
            ker_in_hor, outside = False, witness(vec)
            break
    report.record("atiyah.kernel-in-horizontal", ker_in_hor, witness=outside, windowed=windowed)
    hor_in_ker = all(vd.ver(E(ix)).is_zero() for ix in cf.horizontal_window(window))
    report.record("atiyah.horizontal-in-kernel", hor_in_ker, windowed=windowed)
    if not windowed:
        expected = len(cf.horizontal_window(None))
        report.record(
            "atiyah.kernel-rank",
            kernel.dim == expected,
            witness=f"kernel dim {kernel.dim}, horizontal dim {expected}",
        )

    target = vd.target_basis(window)

    def onto(ix):
        return vd.ver(vd.g(E(ix))) == E(ix), (ix,)

    report.sweep("atiyah.surjective-via-section", target, onto, windowed=windowed)

    if higher is not None and h_graded is not None:
        h = cf.crossed.hopf
        for degree in range(2, max_degree + 1):
            basis_n = higher.basis(degree, window)
            h_forms_n = h_graded.basis(degree, window)
            # left-coinvariant degree-n structure forms
            if h_forms_n:
                unit_h = h.algebra.unit

                def defect(ixf, degree=degree):
                    return h_graded.left_coaction(degree, ixf) - unit_h.tensor(E(ixf))

                coh_n = LinearSolver(LinOp(defect), h_forms_n).kernel()
            else:
                coh_n = Subspace()

            coh_vectors = coh_n.basis()
            coh_span = TrackedSpan()
            for i, vec in enumerate(coh_vectors):
                coh_span.add(("cohn", i), vec)

            def ver_n(gix, degree=degree):
                _, bdeg, bp, hp = gix
                if bdeg != 0:
                    return FreeVector.zero()
                return combine(
                    (E(tensor_index(tensor_index(bp, g_m2), label)), c * cc)
                    for c, (g_m2, g_m1, g0) in h_graded.lambda_terms(degree, hp, 2)
                    for moved in [h_graded.wedge_vec(0, h.antipode(g_m1), degree, E(g0))]
                    for label, cc in coh_span.express(moved).terms.items()
                )

            if basis_n:
                solver_n = LinearSolver(LinOp(ver_n), basis_n)
                kernel_n = solver_n.kernel()
            else:
                kernel_n = Subspace()

            # horizontal part at degree n: Omega^1(B) wedge Omega^(n-1)
            wedge_span = Subspace()
            b_forms = vd.cf.b_calc.forms.enumerate(window)
            one_h = h.algebra.unit
            lower = higher.basis(degree - 1, window)
            for bf in b_forms:
                base_form = combine((E(("gf", 1, bf, u_ix)), cu) for u_ix, cu in one_h.terms.items())
                for low in lower:
                    wedge_span.add(higher.wedge_vec(1, base_form, degree - 1, E(low)))

            ker_vs_wedge = kernel_n == wedge_span if not windowed else (
                all(wedge_span.contains(v) for v in kernel_n.basis())
                and all(kernel_n.contains(v) for v in wedge_span.basis())
            )
            report.record(
                f"atiyah.degree-{degree}.kernel-is-wedge",
                ker_vs_wedge,
                witness=f"kernel dim {kernel_n.dim}, wedge dim {wedge_span.dim}",
                windowed=windowed,
            )

            target_n = [
                tensor_index(a, ("cohn", i))
                for a in cf.crossed.algebra.basis.enumerate(window)
                for i in range(len(coh_vectors))
            ]

            def g_n(ix, degree=degree):
                _, pair_ix, label = ix
                _, bx, hx = pair_ix
                moved = h_graded.wedge_vec(0, E(hx), degree, coh_span.vectors[label])
                return combine((E(("gf", 0, bx, hp)), ch) for hp, ch in moved.terms.items())

            def onto_n(ix):
                return linear(ver_n, g_n(ix)) == E(ix), (ix,)

            report.sweep(f"atiyah.degree-{degree}.surjective", target_n, onto_n, windowed=windowed)
    return report


@dataclass
class Connection:
    c: Callable[[FreeVector], FreeVector]
    name: str = "connection"


@dataclass
class ConnectionForm:
    coeffs: dict  # tangent label -> form vector in Omega^1(B # H)


def canonical_connection(vd: VerticalData, window: int | None = None) -> tuple[Connection, CheckReport]:
    """c(b (x) h (x) gamma) = b (x) h gamma, the section of ver through g;
    verified left-linear, right colinear, a splitting, and strong."""
    cf = vd.cf
    h = cf.crossed.hopf
    report = CheckReport(example=cf.crossed.algebra.name, suite="canonical-connection")
    windowed = not cf.crossed.algebra.basis.is_finite
    connection = Connection(c=vd.g, name="canonical")
    target = _check_splitting(report, vd, vd.g, window)
    coh_coaction = vd.record_rho_stable(report)

    def colinear(t_ix):
        _, pair_ix, label = t_ix
        _, bx, hx = pair_ix
        lhs = cf.rho_vec(vd.g(E(t_ix))).map_indices(lambda ix: ("vt2", ix[1], ix[2]))
        rhs = combine(
            (E(("vt2", f_ix, t_ix2)), c2 * c3 * ct * cfm)
            for c2, (h1, h2) in h.sweedler(hx, 2)
            for (_, lab, h3), c3 in coh_coaction[label].terms.items()
            for inner in [vd.g(E(tensor_index(tensor_index(bx, h1), lab)))]
            for t_ix2, ct in h.algebra.mult(h2, h3).terms.items()
            for f_ix, cfm in inner.terms.items()
        )
        return lhs == rhs, (t_ix,)

    report.sweep("connection.right-colinear", target, colinear, windowed=windowed)

    b_basis = cf.crossed.base.basis.enumerate(window)
    h_basis = h.algebra.basis.enumerate(window)

    def strong(item):
        bx, hx = item
        d_val = cf.d(tensor_index(bx, hx))
        got = d_val - vd.g(vd.ver(d_val))
        expected = hor(cf.b_calc.d(bx), E(hx))
        return got == expected, (bx, hx)

    report.sweep(
        "connection.strong",
        ((bx, hx) for bx in b_basis for hx in h_basis),
        strong,
        windowed=windowed,
    )
    return connection, report


def _check_splitting(report: CheckReport, vd: VerticalData, c_map, window: int | None) -> list[Index]:
    """Record that c_map splits ver and is left-linear; returns the target basis."""
    cf = vd.cf
    windowed = not cf.crossed.algebra.basis.is_finite
    target = vd.target_basis(window)

    def splitting(ix):
        return vd.ver(c_map(E(ix))) == E(ix), (ix,)

    report.sweep("connection.splits-ver", target, splitting, windowed=windowed)

    def left_linear(item):
        pair_ix, t_ix = item
        lhs = c_map(_left_multiple(cf, pair_ix, t_ix))
        rhs = cf.left_act_vec(E(pair_ix), c_map(E(t_ix)))
        return lhs == rhs, (pair_ix, t_ix)

    report.sweep(
        "connection.left-linear",
        ((p, t) for p in cf.crossed.algebra.basis.enumerate(window) for t in target),
        left_linear,
        windowed=windowed,
    )
    return target


def check_connection(vd: VerticalData, connection: Connection, window: int | None = None) -> CheckReport:
    """A supplied connection: splitting, left-linearity and colinearity;
    also the induced idempotent with horizontal kernel."""
    cf = vd.cf
    report = CheckReport(example=cf.crossed.algebra.name, suite="connection-check")
    windowed = not cf.crossed.algebra.basis.is_finite
    _check_splitting(report, vd, connection.c, window)

    form_basis = cf.forms.enumerate(window)

    def projector(form_ix):
        v = vd.ver(E(form_ix))
        pi = connection.c(v)
        idempotent = connection.c(vd.ver(pi)) == pi
        horizontal_killed = pi.is_zero() if v.is_zero() else True
        return idempotent and horizontal_killed, (form_ix,)

    report.sweep("connection.projector", form_basis, projector, windowed=windowed)

    if not windowed:
        solver = LinearSolver(
            LinOp(lambda ix: connection.c(vd.ver(E(ix)))), form_basis
        )
        hor_dim = len(cf.horizontal_window(window))
        report.record(
            "connection.projector-kernel-rank",
            solver.kernel().dim == hor_dim,
            witness=f"kernel dim {solver.kernel().dim}, horizontal dim {hor_dim}",
        )
    return report


# ---------------------------------------------------------------------------
# associated bundles
# ---------------------------------------------------------------------------


@dataclass
class VComodule:
    labels: list[Index]
    coaction: Callable[[Index], FreeVector]  # v -> v (x) H pairs


@dataclass
class CovariantDerivativeData:
    e_labels: list[Index]
    e_vectors: dict
    nabla: Callable[[Index], FreeVector]     # E label -> balanced classes
    sigma_e: Callable[[Index, Index], FreeVector]
    balanced: QuotientSpace
    report: CheckReport

    def __post_init__(self):
        memoise_fields(self, "nabla", "sigma_e")


def covariant_derivative(vd: VerticalData, v_comodule: VComodule, window: int | None = None) -> CovariantDerivativeData:
    """Associated bundle E = (A (x) V)^coH with its covariant derivative
    d_B on the base leg and the bimodule braiding through the measure."""
    cf = vd.cf
    cp = cf.crossed
    h = cp.hopf
    if not cp.algebra.basis.is_finite:
        raise ValueError("associated bundles are computed for finite-dimensional total algebras")
    report = CheckReport(example=cp.algebra.name, suite="covariant-derivative")
    a_basis = cp.algebra.basis.enumerate()
    pair_v = [tensor_index(a, v) for a in a_basis for v in v_comodule.labels]

    def coaction_defect(ix):
        _, pair_ix, v_ix = ix
        _, bx, hx = pair_ix
        out = combine(
            (E(("e", bx, h1, v0, t_ix)), c1 * c2 * ct)
            for c1, (h1, h2) in h.sweedler(hx, 2)
            for (_, v0, v1), c2 in v_comodule.coaction(v_ix).terms.items()
            for t_ix, ct in h.algebra.mult(h2, v1).terms.items()
        )
        return out - E(("e", bx, hx, v_ix, _unit_index(h)))

    kernel = LinearSolver(LinOp(coaction_defect), pair_v).kernel()
    e_vectors_list = kernel.basis()
    e_labels = [("ebas", i) for i in range(len(e_vectors_list))]
    e_vectors = dict(zip(e_labels, e_vectors_list))
    e_span = TrackedSpan()
    for label, vec in e_vectors.items():
        e_span.add(label, vec)

    # left and right B-actions on E
    @memoise
    def b_act_left(b_ix, e_label):
        out = combine(
            (E(tensor_index(jx, v_ix)), c * cj)
            for (_, pair_ix, v_ix), c in e_vectors[e_label].terms.items()
            for jx, cj in cp.algebra.mult_vec(E(b_ix).tensor(h.algebra.unit), E(pair_ix)).terms.items()
        )
        return e_span.express(out)

    @memoise
    def b_act_right(e_label, b_ix):
        out = combine(
            (E(tensor_index(jx, v_ix)), c * cj)
            for (_, pair_ix, v_ix), c in e_vectors[e_label].terms.items()
            for jx, cj in cp.algebra.mult_vec(E(pair_ix), E(b_ix).tensor(h.algebra.unit)).terms.items()
        )
        return e_span.express(out)

    # balanced tensor Omega^1(B) (x)_B E
    b_forms = cf.b_calc.forms.enumerate()
    b_basis = cp.base.basis.enumerate()
    big = [E(tensor_index(bf, el)) for bf in b_forms for el in e_labels]
    relations = Subspace()
    for bf in b_forms:
        for bx in b_basis:
            moved_form = cf.b_calc.right_act(bf, bx)
            for el in e_labels:
                left = combine((E(tensor_index(f2, el)), c2) for f2, c2 in moved_form.terms.items())
                right = combine((E(tensor_index(bf, el2)), c2) for el2, c2 in b_act_left(bx, el).terms.items())
                relations.add(left - right)
    balanced = QuotientSpace(big, relations, cls_tag="bcls")

    @memoise
    def balanced_class(f_ix, el):
        return balanced.project(E(tensor_index(f_ix, el)))

    def to_balanced(form_vec: FreeVector, e_coeffs: FreeVector) -> FreeVector:
        return linear(balanced_class, form_vec, e_coeffs)

    @memoise
    def unit_section(hx, v_ix):
        """Coordinates of 1 (x) hx (x) v_ix over the associated bundle basis."""
        return e_span.express(E(tensor_index(tensor_index(_unit_b_index(cp), hx), v_ix)))

    def nabla(e_label):
        return combine(
            (to_balanced(cf.b_calc.d(bx), unit_section(hx, v_ix)), c)
            for (_, (_, bx, hx), v_ix), c in e_vectors[e_label].terms.items()
        )

    def sigma_e(e_label, b_form_ix):
        return combine(
            (to_balanced(cf.b_calc.left_act_vec(E(bx), cf.b_action.act(h1, b_form_ix)), unit_section(h2, v_ix)), c * c1)
            for (_, (_, bx, hx), v_ix), c in e_vectors[e_label].terms.items()
            for c1, (h1, h2) in h.sweedler(hx, 2)
        )

    data = CovariantDerivativeData(
        e_labels=e_labels,
        e_vectors=e_vectors,
        nabla=nabla,
        sigma_e=sigma_e,
        balanced=balanced,
        report=report,
    )
    # the checks below read the memoised maps
    nabla, sigma_e = data.nabla, data.sigma_e

    def balanced_left_act(b_ix, cls_vec: FreeVector) -> FreeVector:
        return balanced.project(
            combine(
                (E(tensor_index(f2, el)), c * c2)
                for (_, f_ix, el), c in balanced.lift(cls_vec).terms.items()
                for f2, c2 in cf.b_calc.left_act(b_ix, f_ix).terms.items()
            )
        )

    def balanced_right_act(cls_vec: FreeVector, b_ix) -> FreeVector:
        return balanced.project(
            combine(
                (E(tensor_index(f_ix, el2)), c * c2)
                for (_, f_ix, el), c in balanced.lift(cls_vec).terms.items()
                for el2, c2 in b_act_right(el, b_ix).terms.items()
            )
        )

    def nabla_vec(coeffs: FreeVector) -> FreeVector:
        return linear(nabla, coeffs)

    def sigma_e_vec(e_coeffs: FreeVector, f_ix) -> FreeVector:
        return linear(lambda el: sigma_e(el, f_ix), e_coeffs)

    def sigma_e_of(e_label, form_vec: FreeVector) -> FreeVector:
        return linear(lambda f_ix: sigma_e(e_label, f_ix), form_vec)

    def left_leibniz(item):
        b_ix, e_label = item
        lhs = nabla_vec(b_act_left(b_ix, e_label))
        rhs = to_balanced(cf.b_calc.d(b_ix), E(e_label)) + balanced_left_act(b_ix, nabla(e_label))
        return lhs == rhs, (b_ix, e_label)

    report.sweep(
        "derivative.left-leibniz",
        ((bx, el) for bx in b_basis for el in e_labels),
        left_leibniz,
    )

    def right_leibniz(item):
        e_label, b_ix = item
        lhs = nabla_vec(b_act_right(e_label, b_ix))
        rhs = sigma_e_of(e_label, cf.b_calc.d(b_ix)) + balanced_right_act(nabla(e_label), b_ix)
        return lhs == rhs, (e_label, b_ix)

    report.sweep(
        "derivative.right-leibniz",
        ((el, bx) for el in e_labels for bx in b_basis),
        right_leibniz,
    )

    def sigma_bimodule(item):
        b_ix, e_label, f_ix = item
        lhs = balanced_left_act(b_ix, sigma_e(e_label, f_ix))
        ok1 = lhs == sigma_e_vec(b_act_left(b_ix, e_label), f_ix)
        lhs2 = balanced_right_act(sigma_e(e_label, f_ix), b_ix)
        ok2 = lhs2 == sigma_e_of(e_label, cf.b_calc.right_act(f_ix, b_ix))
        return ok1 and ok2, (b_ix, e_label, f_ix)

    report.sweep(
        "derivative.sigma-bimodule",
        ((bx, el, fx) for bx in b_basis for el in e_labels for fx in b_forms),
        sigma_bimodule,
    )

    def sigma_balance(item):
        e_label, b_ix, f_ix = item
        lhs = sigma_e_vec(b_act_right(e_label, b_ix), f_ix)
        rhs = sigma_e_of(e_label, cf.b_calc.left_act(b_ix, f_ix))
        return lhs == rhs, (e_label, b_ix, f_ix)

    report.sweep(
        "derivative.sigma-balanced",
        ((el, bx, fx) for el in e_labels for bx in b_basis for fx in b_forms),
        sigma_balance,
    )

    # uniqueness: sigma rebuilt from the right Leibniz law matches the formula
    def sigma_unique(item):
        e_label, b_ix = item
        rebuilt = nabla_vec(b_act_right(e_label, b_ix)) - balanced_right_act(nabla(e_label), b_ix)
        direct = sigma_e_of(e_label, cf.b_calc.d(b_ix))
        return rebuilt == direct, (e_label, b_ix)

    report.sweep(
        "derivative.sigma-unique",
        ((el, bx) for el in e_labels for bx in b_basis),
        sigma_unique,
    )

    # the connection route gives the same derivative
    def connection_route(e_label):
        horizontal = [
            (f_ix, v_ix, c * cfm)
            for (_, pair_ix, v_ix), c in e_vectors[e_label].terms.items()
            for d_val in [cf.d(pair_ix)]
            for f_ix, cfm in (d_val - vd.g(vd.ver(d_val))).terms.items()
        ]
        if any(f_ix[0] != "hor" for f_ix, _, _ in horizontal):
            return False, (e_label,)
        try:
            got = combine((to_balanced(E(bf), unit_section(hx, v_ix)), c) for (_, bf, hx), v_ix, c in horizontal)
        except NoSolution:
            return False, (e_label,)
        return got == nabla(e_label), (e_label,)

    report.sweep("derivative.via-connection", e_labels, connection_route)
    return data


def _unit_index(h) -> Index:
    terms = list(h.algebra.unit.terms)
    if len(terms) != 1:
        raise ValueError("structure Hopf algebra needs a monomial unit")
    return terms[0]


def _unit_b_index(cp) -> Index:
    terms = list(cp.base.unit.terms)
    if len(terms) != 1:
        raise ValueError("base algebra needs a monomial unit")
    return terms[0]


# ---------------------------------------------------------------------------
# tangent space, fundamental fields, connection forms
# ---------------------------------------------------------------------------


@dataclass
class TangentSpace:
    labels: list[Index]             # ("tan", i), dual to the coinvariant labels
    coinv: CoinvariantForms
    coaction: dict                  # tangent label -> vector over (tan (x) H) pairs
    report: CheckReport

    def pair(self, tan_label: Index, coh_label: Index) -> CycScalar:
        return (
            CycScalar.one()
            if tan_label[1] == coh_label[1]
            else CycScalar.zero()
        )


def tangent_and_fields(vd: VerticalData, window: int | None = None):
    """Dual basis of the coinvariant forms with its induced coaction, and
    the fundamental vector fields; returns (TangentSpace, fields, report)."""
    cf = vd.cf
    h = cf.crossed.hopf
    coinv = vd.coinv
    if coinv.windowed:
        if window is None:
            raise ValueError("windowed coinvariant forms need a window")
        # refuse when the coinvariant space is still growing with the window:
        # the dual basis only makes sense in finite dimension
        probe = coinvariant_forms(coinv.h_calc, window + 1)
        if probe.dim != coinv.dim:
            raise ValueError(
                "coinvariant forms grow with the window "
                f"({coinv.dim} -> {probe.dim}); tangent space refused"
            )
    report = CheckReport(example=cf.crossed.algebra.name, suite="tangent-space")
    windowed = not cf.crossed.algebra.basis.is_finite
    labels = [("tan", i) for i in range(coinv.dim)]

    coaction_raw = vd.record_rho_stable(report)

    def matrix(i_label, k_label):
        """M[i][k] in rho(x^i) = sum_k x^k (x) M[i][k]."""
        return combine((E(h_ix), c) for (_, lab, h_ix), c in coaction_raw[i_label].terms.items() if lab == k_label)

    tangent_coaction = {
        tan: combine(
            (E(tensor_index(("tan", i), h_ix)), c)
            for i, coh in enumerate(coinv.labels)
            for h_ix, c in h.antipode_inv(matrix(coh, ("coh", j))).terms.items()
        )
        for j, tan in enumerate(labels)
    }

    tangent = TangentSpace(labels=labels, coinv=coinv, coaction=tangent_coaction, report=report)

    def dual_pairing(item):
        tan, coh = item
        want = CycScalar.one() if tan[1] == coh[1] else CycScalar.zero()
        return tangent.pair(tan, coh) == want, (tan, coh)

    report.sweep(
        "tangent.dual-pairing",
        ((t, c) for t in labels for c in coinv.labels),
        dual_pairing,
    )

    def coaction_defining_equation(item):
        tan, coh = item
        # alpha_0(gamma) alpha_1 == alpha(gamma_0) S^-1(gamma_1)
        lhs = combine(
            (E(h_ix), c * tangent.pair(tan0, coh)) for (_, tan0, h_ix), c in tangent_coaction[tan].terms.items()
        )
        rhs = combine(
            (h.antipode_inv(h_ix), c * tangent.pair(tan, lab)) for (_, lab, h_ix), c in coaction_raw[coh].terms.items()
        )
        return lhs == rhs, (tan, coh)

    report.sweep(
        "tangent.coaction-defining-equation",
        ((t, c) for t in labels for c in coinv.labels),
        coaction_defining_equation,
        windowed=windowed,
    )

    def contract(tan_label, form_vec: FreeVector) -> FreeVector:
        """The vertical part of form_vec paired with one tangent vector."""
        return combine(
            (E(pair_ix), c * tangent.pair(tan_label, label))
            for (_, pair_ix, label), c in vd.ver(form_vec).terms.items()
        )

    fields = {tan: (lambda form_vec, tan=tan: contract(tan, form_vec)) for tan in labels}

    hor_basis = cf.horizontal_window(window)

    def vanishes_horizontally(item):
        tan, hor_ix = item
        return fields[tan](E(hor_ix)).is_zero(), (tan, hor_ix)

    report.sweep(
        "field.vertical",
        ((t, hx) for t in labels for hx in hor_basis),
        vanishes_horizontally,
        windowed=windowed,
    )

    unit_pair = tensor_index(_unit_b_index(cf.crossed), _unit_index(h))

    def normalization(item):
        tan, coh = item
        lifted = ver(cf.crossed.base.unit, coinv.lift(E(coh)))
        got = fields[tan](lifted)
        want = E(unit_pair).scale(tangent.pair(tan, coh))
        return got == want, (tan, coh)

    report.sweep(
        "field.normalization",
        ((t, c) for t in labels for c in coinv.labels),
        normalization,
    )

    a_basis = cf.crossed.algebra.basis.enumerate(window)
    form_basis = cf.forms.enumerate(window)

    def left_linear(item):
        tan, pair_ix, form_ix = item
        lhs = fields[tan](cf.left_act(pair_ix, form_ix))
        rhs = cf.crossed.algebra.mult_vec(E(pair_ix), fields[tan](E(form_ix)))
        return lhs == rhs, (tan, pair_ix, form_ix)

    report.sweep(
        "field.left-linear",
        ((t, p, f) for t in labels for p in a_basis for f in form_basis),
        left_linear,
        windowed=windowed,
    )

    # uniqueness: a left-linear field is fixed by its values on the lifted
    # coinvariant forms and vanishes on the horizontal ones, so these two
    # families must span the forms as a left module
    spanned = Subspace(E(hor_ix) for hor_ix in hor_basis)
    for coh in coinv.labels:
        lifted = ver(cf.crossed.base.unit, coinv.lift(E(coh)))
        for pair_ix in a_basis:
            spanned.add(cf.left_act_vec(E(pair_ix), lifted))
    report.sweep("field.unique", form_basis, lambda fx: (spanned.contains(E(fx)), (fx,)), windowed=windowed)
    return tangent, fields, report


def connection_form_bijection(
    vd: VerticalData,
    tangent: TangentSpace,
    connection: Connection | None = None,
    form: ConnectionForm | None = None,
    window: int | None = None,
):
    """Translate between connections and connection 1-forms and verify the
    defining property of the output and both round trips.

    Exactly one of connection / form must be given; returns
    (other, report)."""
    if (connection is None) == (form is None):
        raise ValueError("give exactly one of connection / form")
    cf = vd.cf
    h = cf.crossed.hopf
    report = CheckReport(example=cf.crossed.algebra.name, suite="connection-form-bijection")
    windowed = not cf.crossed.algebra.basis.is_finite
    unit_pair = tensor_index(_unit_b_index(cf.crossed), _unit_index(h))

    def to_form(c_map) -> ConnectionForm:
        coeffs = {}
        for i, tan in enumerate(tangent.labels):
            coeffs[tan] = c_map(E(tensor_index(unit_pair, ("coh", i))))
        return ConnectionForm(coeffs=coeffs)

    def to_connection(phi: ConnectionForm) -> Connection:
        def c_map(target_vec: FreeVector) -> FreeVector:
            return combine(
                (cf.left_act_vec(E(pair_ix), phi.coeffs[tan]), c * weight)
                for (_, pair_ix, label), c in target_vec.terms.items()
                for tan in tangent.labels
                for weight in [tangent.pair(tan, label)]
                if not weight.is_zero()
            )

        return Connection(c=c_map, name="from-form")

    def verify_form(phi: ConnectionForm, tag: str):
        def ver_projection(tan):
            got = combine((E(ix), c) for ix, c in phi.coeffs[tan].terms.items() if ix[0] == "ver")
            want = ver(cf.crossed.base.unit, vd.coinv.lift(E(("coh", tan[1]))))
            return got == want, (tan,)

        report.sweep(f"{tag}.vertical-projection", tangent.labels, ver_projection)

        # coinvariance: sum_j x_j0 (x) phi_j0 (x) x_j1 phi_j1 equals
        # sum_j x_j (x) phi_j (x) 1; the tangent leg mixes components,
        # so both sides are assembled in full
        lhs_total = combine(
            (E(("cfw", tan0, f0, t_ix)), c * c2 * ct)
            for tan in tangent.labels
            for (_, tan0, h1), c in tangent.coaction[tan].terms.items()
            for (_, f0, h2), c2 in cf.rho_vec(phi.coeffs[tan]).terms.items()
            for t_ix, ct in h.algebra.mult(h1, h2).terms.items()
        )
        unit_ix = _unit_index(h)
        rhs_total = combine(
            (E(("cfw", tan, f_ix, unit_ix)), c) for tan in tangent.labels for f_ix, c in phi.coeffs[tan].terms.items()
        )
        report.record(f"{tag}.coinvariant", lhs_total == rhs_total, windowed=windowed)

    if connection is not None:
        check = check_connection(vd, connection, window)
        if not check.ok:
            failed = check.failed[0]
            raise ValueError(
                f"input connection fails {failed.identity} at {failed.witness}"
            )
        report.extend(check, prefix="input.")
        phi = to_form(connection.c)
        verify_form(phi, "output-form")
        back = to_connection(phi)
        target = vd.target_basis(window)

        def roundtrip(ix):
            return back.c(E(ix)) == connection.c(E(ix)), (ix,)

        report.sweep("roundtrip.connection", target, roundtrip, windowed=windowed)
        return phi, report

    verify_form(form, "input-form")
    if not report.ok:
        failed = report.failed[0]
        raise ValueError(f"input form fails {failed.identity} at {failed.witness}")
    back = to_connection(form)
    check = check_connection(vd, back, window)
    report.extend(check, prefix="output.")
    phi2 = to_form(back.c)

    def roundtrip_form(tan):
        return phi2.coeffs[tan] == form.coeffs[tan], (tan,)

    report.sweep("roundtrip.form", tangent.labels, roundtrip_form)
    return back, report
