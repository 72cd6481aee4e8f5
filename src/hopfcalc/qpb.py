"""Quantum principal bundle structure of the crossed product calculus.

Vertical map and Atiyah exactness, the canonical strong connection,
covariant derivatives on associated bundles, the quantum tangent space
with its fundamental vector fields, and the bijection between
connections and connection 1-forms.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable

from hopfcalc.crossed_calc import CrossedFodc, GradedDc, hor, ver
from hopfcalc.fodc import Fodc
from hopfcalc.hopf import colinear, monomial_unit
from hopfcalc.linalg import (
    FreeVector,
    LinearSolver,
    NoSolution,
    Subspace,
    TrackedSpan,
    balanced_tensor,
    combine,
    first_non_multiplicative,
    linear,
    memoise,
    memoise_fields,
    record,
    sum_terms,
    tensor_index,
)
from hopfcalc.report import CheckReport, witness
from hopfcalc.scalars import CycScalar

Index = tuple
E = FreeVector.basis


class CoinvariantForms(TrackedSpan):
    """Left-coinvariant 1-forms of a bicovariant calculus, labelled
    ("coh", i), with the surjection from the augmentation ideal."""

    def __init__(self, h_calc: Fodc, forms: Iterable[FreeVector] = ()):
        super().__init__((("coh", i), v) for i, v in enumerate(forms))
        self.h_calc = h_calc

    def maurer_cartan(self, h_vec: FreeVector) -> FreeVector:
        """h -> S(h_1) d(h_2), over the coinvariant labels."""
        h, calc = self.h_calc.hopf, self.h_calc
        return self.express(
            combine((linear(calc.left_act, h.antipode(h1), calc.d(h2)), c) for c, (h1, h2) in h.sweedler_vec(h_vec, 2))
        )


def _bundle_report(cf: CrossedFodc) -> CheckReport:
    """A report on the bundle of cf: windowed when its total algebra is infinite."""
    return CheckReport(windowed=not cf.crossed.algebra.basis.is_finite)


def coinvariant_forms(h_calc: Fodc, window: int | None = None) -> CoinvariantForms:
    """Kernel of (lambda - unit (x) id) on the form window."""
    if h_calc.left_coaction is None:
        raise ValueError("coinvariant forms need a left coaction")
    h = h_calc.hopf
    unit_h = h.algebra.unit

    def defect(f_ix):
        return h_calc.left_coaction(f_ix) - unit_h.tensor(E(f_ix))

    kernel = LinearSolver(defect, h_calc.forms.enumerate(window)).kernel()
    return CoinvariantForms(h_calc, kernel.basis())


def check_maurer_cartan(coinv: CoinvariantForms, window: int | None = None) -> CheckReport:
    """The Cartan-Maurer map h -> S(h_1) d(h_2) lands in the coinvariant
    forms and spans them."""
    h = coinv.h_calc.hopf
    report = CheckReport(windowed=not coinv.h_calc.forms.is_finite)
    h_basis = h.algebra.basis.enumerate(window)
    image = Subspace()
    mc_ok, mc_witness = True, None
    for ix in h_basis:
        shifted = E(ix) - h.algebra.unit.scale(h.counit(ix))
        if shifted.is_zero():
            continue
        try:
            image.add(coinv.maurer_cartan(shifted))
        except NoSolution as err:
            mc_ok, mc_witness = False, f"Cartan-Maurer value left the coinvariants: {err.target.to_text()}"
            break
    report.record("maurer-cartan.lands-coinvariant", mc_ok, witness=mc_witness)
    if mc_ok:
        report.record(
            "maurer-cartan.surjective",
            image.dim == coinv.dim,
            witness=f"image rank {image.dim} of {coinv.dim}",
        )
    return report


@record
class VerticalData:
    cf: CrossedFodc
    coinv: CoinvariantForms
    ver: Callable[[Index], FreeVector]
    g: Callable[[Index], FreeVector]

    def __post_init__(self):
        memoise_fields(self, "ver", "g", "target_coaction")

    def target_basis(self, window: int | None = None) -> list[Index]:
        pairs = self.cf.crossed.algebra.basis.enumerate(window)
        return [tensor_index(a, c) for a in pairs for c in self.coinv.labels]

    def target_act(self, pair_ix, t_ix) -> FreeVector:
        """The left action of the total algebra on targets (pair (x) label)."""
        _, inner_pair, label = t_ix
        moved = self.cf.crossed.algebra.mult(pair_ix, inner_pair)
        return sum_terms((tensor_index(jx, label), cj) for jx, cj in moved.terms.items())

    def target_coaction(self, t_ix) -> FreeVector:
        """The diagonal coaction ((b (x) h) (x) gamma) -> ((b (x) h_1) (x) gamma_0) (x) h_2 gamma_1."""
        _, (_, bx, hx), label = t_ix
        h = self.cf.crossed.hopf
        table, _ = self._rho_on_coinvariants
        return sum_terms(
            (tensor_index(tensor_index(tensor_index(bx, h1), lab), t), c2 * c3 * ct)
            for c2, (h1, h2) in h.sweedler(hx, 2)
            for (_, lab, h3), c3 in table[label].terms.items()
            for t, ct in h.algebra.mult(h2, h3).terms.items()
        )

    @cached_property
    def _rho_on_coinvariants(self):
        return _coinvariant_coaction(self.coinv)

    def record_rho_stable(self, report: CheckReport) -> dict:
        """Record in report that the coinvariant forms are stable under the
        right coaction; returns that coaction over the coinvariant labels,
        computed once per instance."""
        table, unstable = self._rho_on_coinvariants
        report.record("vertical.coinvariants-rho-stable", unstable is None, witness=unstable)
        return table


def vertical_map(cf: CrossedFodc, window: int | None = None) -> VerticalData:
    """ver, which sends b (x) gamma to (b (x) gamma_-2) (x) [S(gamma_-1)
    gamma_0] and kills the horizontal forms, and g, its inverse on the
    targets (pair (x) label); `check_vertical_map` checks both."""
    coinv = coinvariant_forms(cf.h_calc, window)
    h = cf.crossed.hopf

    def ver_map(form_ix):
        if form_ix[0] != "ver":
            return FreeVector.zero()
        _, bx, hf = form_ix
        return sum_terms(
            (tensor_index(tensor_index(bx, g_m2), label), cl * cc)
            for cl, (g_m2, g_m1, g0) in cf.h_calc.lambda_terms(hf, 2)
            for label, cc in coinv.express(linear(cf.h_calc.left_act, h.antipode(g_m1), g0)).terms.items()
        )

    def g(t_ix):
        _, (_, bx, hx), label = t_ix
        return ver(E(bx), linear(cf.h_calc.left_act, hx, coinv.vectors[label]))

    return VerticalData(cf=cf, coinv=coinv, ver=ver_map, g=g)


def check_vertical_map(vd: VerticalData, window: int | None = None) -> CheckReport:
    """ver and g are mutually inverse, and ver is left-linear and right colinear."""
    cf = vd.cf
    report = _bundle_report(cf)
    b_basis = cf.crossed.base.basis.enumerate(window)
    h_forms = cf.h_calc.forms.enumerate(window)

    def gp_identity(item):
        bx, hf = item
        ver_ix = ("ver", bx, hf)
        return linear(vd.g, vd.ver(ver_ix)) == E(ver_ix), (bx, hf)

    report.sweep("vertical.g-after-p", ((bx, hf) for bx in b_basis for hf in h_forms), gp_identity)

    a_basis = cf.crossed.algebra.basis.enumerate(window)

    def pg_identity(item):
        pair_ix, label = item
        t_ix = tensor_index(pair_ix, label)
        return linear(vd.ver, vd.g(t_ix)) == E(t_ix), (pair_ix, label)

    report.sweep(
        "vertical.p-after-g",
        ((pair_ix, label) for pair_ix in a_basis for label in vd.coinv.labels),
        pg_identity,
    )

    form_basis = cf.forms.enumerate(window)
    hit = first_non_multiplicative(a_basis, form_basis, vd.ver, cf.left_act, vd.target_act, acting=True)
    report.record("vertical.left-linear", hit is None, hit and witness(*hit))
    vd.record_rho_stable(report)
    report.sweep("vertical.right-colinear", form_basis, colinear(vd.ver, cf.right_coaction, vd.target_coaction))
    return report


def _coinvariant_coaction(coinv: CoinvariantForms):
    """Right coaction restricted to the coinvariant forms, expressed over
    the coinvariant labels, and the witness of the last label whose
    coaction leaves them (None when they are stable)."""
    table = {}
    unstable = None
    for label in coinv.labels:
        by_h = {}
        for (_, f0, h1), c in linear(coinv.h_calc.right_coaction, coinv.vectors[label]).terms.items():
            by_h.setdefault(h1, {})[f0] = c
        try:
            table[label] = sum_terms(
                (tensor_index(lab, h1), cc)
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
    window: int | None = None,
) -> CheckReport:
    """Exactness of the vertical sequence: kernel of ver equals the
    horizontal forms and ver is surjective (through the section g); with
    graded data the same is done for the degree-2 vertical map."""
    cf = vd.cf
    report = _bundle_report(cf)
    form_basis = cf.forms.enumerate(window)

    solver = LinearSolver(vd.ver, form_basis)
    kernel = solver.kernel()
    hor_indices = set(cf.horizontal_window(window))
    ker_in_hor, outside = True, None
    for vec in kernel.basis():
        if any(ix not in hor_indices and ix[0] != "hor" for ix in vec.support()):
            ker_in_hor, outside = False, witness(vec)
            break
    report.record("atiyah.kernel-in-horizontal", ker_in_hor, witness=outside)
    hor_in_ker = all(vd.ver(ix).is_zero() for ix in cf.horizontal_window(window))
    report.record("atiyah.horizontal-in-kernel", hor_in_ker)
    if not report.windowed:
        expected = len(cf.horizontal_window(None))
        report.record(
            "atiyah.kernel-rank",
            kernel.dim == expected,
            witness=f"kernel dim {kernel.dim}, horizontal dim {expected}",
        )

    target = vd.target_basis(window)

    def onto(ix):
        return linear(vd.ver, vd.g(ix)) == E(ix), (ix,)

    report.sweep("atiyah.surjective-via-section", target, onto)

    if higher is None or h_graded is None:
        return report
    h = cf.crossed.hopf
    unit_h = h.algebra.unit
    degree = 2
    basis_n = higher.basis(degree, window)

    # left-coinvariant degree-n structure forms
    def defect(ixf):
        return h_graded.left_coaction(degree, ixf) - unit_h.tensor(E(ixf))

    coh_n = LinearSolver(defect, h_graded.basis(degree, window)).kernel()
    coh_span = TrackedSpan((("cohn", i), v) for i, v in enumerate(coh_n.basis()))

    def ver_n(gix):
        _, bdeg, bp, hp = gix
        if bdeg != 0:
            return FreeVector.zero()
        return sum_terms(
            (tensor_index(tensor_index(bp, g_m2), label), c * cc)
            for c, (g_m2, g_m1, g0) in h_graded.lambda_terms(degree, hp, 2)
            for label, cc in coh_span.express(linear(h_graded.wedge, 0, h.antipode(g_m1), degree, g0)).terms.items()
        )

    kernel_n = LinearSolver(ver_n, basis_n).kernel()

    # horizontal part at degree n: Omega^1(B) wedge Omega^(n-1)
    wedge_span = Subspace()
    lower = higher.basis(degree - 1, window)
    for bf in vd.cf.b_calc.forms.enumerate(window):
        base_form = sum_terms((("gf", 1, bf, u_ix), cu) for u_ix, cu in unit_h.terms.items())
        for low in lower:
            wedge_span.add(linear(higher.wedge, 1, base_form, degree - 1, low))

    report.record(
        f"atiyah.degree-{degree}.kernel-is-wedge",
        kernel_n == wedge_span,
        witness=f"kernel dim {kernel_n.dim}, wedge dim {wedge_span.dim}",
    )

    target_n = [
        tensor_index(a, label) for a in cf.crossed.algebra.basis.enumerate(window) for label in coh_span.labels
    ]

    def g_n(ix):
        _, pair_ix, label = ix
        _, bx, hx = pair_ix
        moved = linear(h_graded.wedge, 0, hx, degree, coh_span.vectors[label])
        return sum_terms((("gf", 0, bx, hp), ch) for hp, ch in moved.terms.items())

    def onto_n(ix):
        return linear(ver_n, g_n(ix)) == E(ix), (ix,)

    report.sweep(f"atiyah.degree-{degree}.surjective", target_n, onto_n)
    return report


@record
class Connection:
    """A connection, as its map on the target basis indices (pair (x) label)
    into the 1-forms."""

    c: Callable[[Index], FreeVector]

    def __post_init__(self):
        memoise_fields(self, "c")


@record
class ConnectionForm:
    components: dict  # tangent label -> form vector in Omega^1(B # H)


def check_canonical_connection(vd: VerticalData, window: int | None = None) -> CheckReport:
    """The canonical connection c(b (x) h (x) gamma) = b (x) h gamma, which
    is g, the section of ver, is a left-linear, right colinear and strong
    splitting of ver."""
    cf = vd.cf
    h = cf.crossed.hopf
    report = _bundle_report(cf)
    target = _check_splitting(report, vd, vd.g, window)
    vd.record_rho_stable(report)
    report.sweep("connection.right-colinear", target, colinear(vd.g, vd.target_coaction, cf.right_coaction))

    b_basis = cf.crossed.base.basis.enumerate(window)
    h_basis = h.algebra.basis.enumerate(window)

    def strong(item):
        bx, hx = item
        d_val = cf.d(tensor_index(bx, hx))
        got = d_val - linear(vd.g, linear(vd.ver, d_val))
        expected = hor(cf.b_calc.d(bx), E(hx))
        return got == expected, (bx, hx)

    report.sweep("connection.strong", ((bx, hx) for bx in b_basis for hx in h_basis), strong)
    return report


def _check_splitting(report: CheckReport, vd: VerticalData, c_map, window: int | None) -> list[Index]:
    """Record that c_map splits ver and is left-linear; returns the target basis."""
    cf = vd.cf
    target = vd.target_basis(window)

    def splitting(ix):
        return linear(vd.ver, c_map(ix)) == E(ix), (ix,)

    report.sweep("connection.splits-ver", target, splitting)
    a_basis = cf.crossed.algebra.basis.enumerate(window)
    hit = first_non_multiplicative(a_basis, target, c_map, vd.target_act, cf.left_act, acting=True)
    report.record("connection.left-linear", hit is None, hit and witness(*hit))
    return target


def check_connection(vd: VerticalData, connection: Connection) -> CheckReport:
    """A supplied connection on a finite bundle: splitting, left-linearity
    and colinearity; also the induced idempotent with horizontal kernel."""
    cf = vd.cf
    report = _bundle_report(cf)
    _check_splitting(report, vd, connection.c, None)

    form_basis = cf.forms.enumerate()

    def projector(form_ix):
        v = vd.ver(form_ix)
        pi = linear(connection.c, v)
        idempotent = linear(connection.c, linear(vd.ver, pi)) == pi
        horizontal_killed = pi.is_zero() if v.is_zero() else True
        return idempotent and horizontal_killed, (form_ix,)

    report.sweep("connection.projector", form_basis, projector)

    kernel_dim = LinearSolver(lambda ix: linear(connection.c, vd.ver(ix)), form_basis).kernel().dim
    hor_dim = len(cf.horizontal_window(None))
    report.record(
        "connection.projector-kernel-rank",
        kernel_dim == hor_dim,
        witness=f"kernel dim {kernel_dim}, horizontal dim {hor_dim}",
    )
    return report


# ---------------------------------------------------------------------------
# associated bundles
# ---------------------------------------------------------------------------


@record
class VComodule:
    labels: list[Index]
    coaction: Callable[[Index], FreeVector]  # v -> v (x) H pairs


@record
class CovariantDerivativeData:
    e_span: TrackedSpan                      # the bundle E, labelled ("ebas", i)
    nabla: Callable[[Index], FreeVector]     # E label -> balanced classes
    sigma_e: Callable[[Index, Index], FreeVector]
    report: CheckReport

    def __post_init__(self):
        memoise_fields(self, "nabla", "sigma_e")


def covariant_derivative(vd: VerticalData, v_comodule: VComodule) -> CovariantDerivativeData:
    """Associated bundle E = (A (x) V)^coH with its covariant derivative
    d_B on the base leg and the bimodule braiding through the measure, both
    valued in Omega^1(B) (x)_B E built by `linalg.balanced_tensor`."""
    cf = vd.cf
    cp = cf.crossed
    h = cp.hopf
    if not cp.algebra.basis.is_finite:
        raise ValueError("associated bundles are computed for finite-dimensional total algebras")
    report = _bundle_report(cf)
    embed = cp.comodule.coinvariants.embed
    unit_b = monomial_unit(cp.base, "base algebra")
    unit_h = monomial_unit(h.algebra, "structure Hopf algebra")
    a_basis = cp.algebra.basis.enumerate()
    pair_v = [tensor_index(a, v) for a in a_basis for v in v_comodule.labels]

    def coaction_defect(ix):
        _, pair_ix, v_ix = ix
        _, bx, hx = pair_ix
        out = sum_terms(
            (("e", bx, h1, v0, t_ix), c1 * c2 * ct)
            for c1, (h1, h2) in h.sweedler(hx, 2)
            for (_, v0, v1), c2 in v_comodule.coaction(v_ix).terms.items()
            for t_ix, ct in h.algebra.mult(h2, v1).terms.items()
        )
        return out - E(("e", bx, hx, v_ix, unit_h))

    kernel = LinearSolver(coaction_defect, pair_v).kernel()
    e_span = TrackedSpan((("ebas", i), v) for i, v in enumerate(kernel.basis()))

    # left and right B-actions on E
    @memoise
    def b_act_left(b_ix, e_label):
        out = sum_terms(
            (tensor_index(jx, v_ix), c * cj)
            for (_, pair_ix, v_ix), c in e_span.vectors[e_label].terms.items()
            for jx, cj in linear(cp.algebra.mult, embed(b_ix), pair_ix).terms.items()
        )
        return e_span.express(out)

    @memoise
    def b_act_right(e_label, b_ix):
        out = sum_terms(
            (tensor_index(jx, v_ix), c * cj)
            for (_, pair_ix, v_ix), c in e_span.vectors[e_label].terms.items()
            for jx, cj in linear(cp.algebra.mult, pair_ix, embed(b_ix)).terms.items()
        )
        return e_span.express(out)

    b_forms = cf.b_calc.forms.enumerate()
    b_basis = cp.base.basis.enumerate()
    balanced = balanced_tensor(b_forms, b_basis, e_span.labels, cf.b_calc.right_act, b_act_left, "bcls")

    @memoise
    def balanced_class(f_ix, el):
        return balanced.project(E(tensor_index(f_ix, el)))

    @memoise
    def unit_section(hx, v_ix):
        """Coordinates of 1 (x) hx (x) v_ix over the associated bundle basis."""
        return e_span.express(E(tensor_index(tensor_index(unit_b, hx), v_ix)))

    def nabla(e_label):
        return combine(
            (linear(balanced_class, cf.b_calc.d(bx), unit_section(hx, v_ix)), c)
            for (_, (_, bx, hx), v_ix), c in e_span.vectors[e_label].terms.items()
        )

    def sigma_e(e_label, b_form_ix):
        return combine(
            (
                linear(
                    balanced_class,
                    linear(cf.b_calc.left_act, bx, cf.b_action.act(h1, b_form_ix)),
                    unit_section(h2, v_ix),
                ),
                c * c1,
            )
            for (_, (_, bx, hx), v_ix), c in e_span.vectors[e_label].terms.items()
            for c1, (h1, h2) in h.sweedler(hx, 2)
        )

    data = CovariantDerivativeData(
        e_span=e_span,
        nabla=nabla,
        sigma_e=sigma_e,
        report=report,
    )
    # the checks below read the memoised maps
    nabla, sigma_e = data.nabla, data.sigma_e

    # the B-actions on the balanced tensor, on class indices ("bcls", i)
    # through each class's representative
    @memoise
    def balanced_left_act(b_ix, cls_ix):
        return balanced.project(
            sum_terms(
                (tensor_index(f2, el), c * c2)
                for (_, f_ix, el), c in balanced.representatives[cls_ix[1]].terms.items()
                for f2, c2 in cf.b_calc.left_act(b_ix, f_ix).terms.items()
            )
        )

    @memoise
    def balanced_right_act(cls_ix, b_ix):
        return balanced.project(
            sum_terms(
                (tensor_index(f_ix, el2), c * c2)
                for (_, f_ix, el), c in balanced.representatives[cls_ix[1]].terms.items()
                for el2, c2 in b_act_right(el, b_ix).terms.items()
            )
        )

    def left_leibniz(item):
        b_ix, e_label = item
        lhs = linear(nabla, b_act_left(b_ix, e_label))
        rhs = linear(balanced_class, cf.b_calc.d(b_ix), e_label) + linear(balanced_left_act, b_ix, nabla(e_label))
        return lhs == rhs, (b_ix, e_label)

    report.sweep(
        "derivative.left-leibniz",
        ((bx, el) for bx in b_basis for el in e_span.labels),
        left_leibniz,
    )

    def right_leibniz(item):
        e_label, b_ix = item
        lhs = linear(nabla, b_act_right(e_label, b_ix))
        rhs = linear(sigma_e, e_label, cf.b_calc.d(b_ix)) + linear(balanced_right_act, nabla(e_label), b_ix)
        return lhs == rhs, (e_label, b_ix)

    report.sweep(
        "derivative.right-leibniz",
        ((el, bx) for el in e_span.labels for bx in b_basis),
        right_leibniz,
    )

    # sigma_e is a bimodule map, in two laws of one sweep
    def acted_sigma(b_ix, e_label, f_ix):
        return ((balanced_left_act(b_ix, t).terms, c) for t, c in sigma_e(e_label, f_ix).terms.items())

    def sigma_of_acted(b_ix, e_label, f_ix):
        return ((sigma_e(t, f_ix).terms, c) for t, c in b_act_left(b_ix, e_label).terms.items())

    def sigma_acted(b_ix, e_label, f_ix):
        return ((balanced_right_act(t, b_ix).terms, c) for t, c in sigma_e(e_label, f_ix).terms.items())

    def sigma_of_form_acted(b_ix, e_label, f_ix):
        return ((sigma_e(e_label, g).terms, c) for g, c in cf.b_calc.right_act(f_ix, b_ix).terms.items())

    rows = [(bx, el) for bx in b_basis for el in e_span.labels]
    laws = (acted_sigma, sigma_of_acted), (sigma_acted, sigma_of_form_acted)
    report.sweep_rows("derivative.sigma-bimodule", rows, b_forms, *laws)

    def balance_lhs(e_label, b_ix, f_ix):
        return ((sigma_e(t, f_ix).terms, c) for t, c in b_act_right(e_label, b_ix).terms.items())

    def balance_rhs(e_label, b_ix, f_ix):
        return ((sigma_e(e_label, g).terms, c) for g, c in cf.b_calc.left_act(b_ix, f_ix).terms.items())

    rows = [(el, bx) for el in e_span.labels for bx in b_basis]
    report.sweep_rows("derivative.sigma-balanced", rows, b_forms, (balance_lhs, balance_rhs))

    # uniqueness: sigma rebuilt from the right Leibniz law matches the formula
    def sigma_unique(item):
        e_label, b_ix = item
        rebuilt = linear(nabla, b_act_right(e_label, b_ix)) - linear(balanced_right_act, nabla(e_label), b_ix)
        direct = linear(sigma_e, e_label, cf.b_calc.d(b_ix))
        return rebuilt == direct, (e_label, b_ix)

    report.sweep(
        "derivative.sigma-unique",
        ((el, bx) for el in e_span.labels for bx in b_basis),
        sigma_unique,
    )

    # the connection route gives the same derivative
    def connection_route(e_label):
        horizontal = [
            (f_ix, v_ix, c * cfm)
            for (_, pair_ix, v_ix), c in e_span.vectors[e_label].terms.items()
            for d_val in [cf.d(pair_ix)]
            for f_ix, cfm in (d_val - linear(vd.g, linear(vd.ver, d_val))).terms.items()
        ]
        if any(f_ix[0] != "hor" for f_ix, _, _ in horizontal):
            return False, (e_label,)
        got = combine((linear(balanced_class, bf, unit_section(hx, v_ix)), c) for (_, bf, hx), v_ix, c in horizontal)
        return got == nabla(e_label), (e_label,)

    report.sweep("derivative.via-connection", e_span.labels, connection_route)
    return data


# ---------------------------------------------------------------------------
# tangent space, fundamental fields, connection forms
# ---------------------------------------------------------------------------


@record
class TangentSpace:
    labels: list[Index]             # ("tan", i), dual to the coinvariant labels
    coaction: dict                  # tangent label -> vector over (tan (x) H) pairs

    def pair(self, tan_label: Index, coh_label: Index) -> CycScalar:
        return (
            CycScalar.one()
            if tan_label[1] == coh_label[1]
            else CycScalar.zero()
        )


def tangent_space(vd: VerticalData) -> TangentSpace:
    """Dual basis of the coinvariant forms with its induced coaction;
    refused for an infinite family of structure forms, whose coinvariant
    forms are known on a window only."""
    coinv = vd.coinv
    if not coinv.h_calc.forms.is_finite:
        raise ValueError("the tangent space is computed for a finite family of structure forms")
    h = vd.cf.crossed.hopf
    labels = [("tan", i) for i in range(coinv.dim)]
    coaction_raw, _ = vd._rho_on_coinvariants

    def matrix(i_label, k_label):
        """M[i][k] in rho(x^i) = sum_k x^k (x) M[i][k]."""
        return sum_terms((h_ix, c) for (_, lab, h_ix), c in coaction_raw[i_label].terms.items() if lab == k_label)

    coaction = {
        tan: sum_terms(
            (tensor_index(("tan", i), h_ix), c)
            for i, coh in enumerate(coinv.labels)
            for h_ix, c in linear(h.antipode_inv, matrix(coh, ("coh", j))).terms.items()
        )
        for j, tan in enumerate(labels)
    }
    return TangentSpace(labels=labels, coaction=coaction)


def fundamental_field(vd: VerticalData, tangent: TangentSpace, tan_label: Index, form_vec: FreeVector) -> FreeVector:
    """The fundamental vector field of tan_label at form_vec: the vertical part of form_vec paired with it."""
    return sum_terms(
        (pair_ix, c * tangent.pair(tan_label, label))
        for (_, pair_ix, label), c in linear(vd.ver, form_vec).terms.items()
    )


def check_tangent_and_fields(vd: VerticalData, tangent: TangentSpace) -> CheckReport:
    """The tangent space is dual to the coinvariant forms and its coaction
    solves the defining equation; each fundamental field is vertical,
    normalised, left-linear and fixed by those properties."""
    cf = vd.cf
    h = cf.crossed.hopf
    coinv = vd.coinv
    report = _bundle_report(cf)
    labels = tangent.labels
    pairs = [(t, c) for t in labels for c in coinv.labels]
    coaction_raw = vd.record_rho_stable(report)

    def dual_pairing(item):
        tan, coh = item
        want = CycScalar.one() if tan[1] == coh[1] else CycScalar.zero()
        return tangent.pair(tan, coh) == want, (tan, coh)

    report.sweep("tangent.dual-pairing", pairs, dual_pairing)

    def coaction_defining_equation(item):
        tan, coh = item
        # alpha_0(gamma) alpha_1 == alpha(gamma_0) S^-1(gamma_1)
        lhs = sum_terms(
            (h_ix, c * tangent.pair(tan0, coh)) for (_, tan0, h_ix), c in tangent.coaction[tan].terms.items()
        )
        rhs = combine(
            (h.antipode_inv(h_ix), c * tangent.pair(tan, lab)) for (_, lab, h_ix), c in coaction_raw[coh].terms.items()
        )
        return lhs == rhs, (tan, coh)

    report.sweep("tangent.coaction-defining-equation", pairs, coaction_defining_equation)

    hor_basis = cf.horizontal_window(None)

    def vanishes_horizontally(item):
        tan, hor_ix = item
        return fundamental_field(vd, tangent, tan, E(hor_ix)).is_zero(), (tan, hor_ix)

    report.sweep("field.vertical", ((t, hx) for t in labels for hx in hor_basis), vanishes_horizontally)

    unit_pair = monomial_unit(cf.crossed.algebra, "crossed product")

    def normalization(item):
        tan, coh = item
        lifted = ver(cf.crossed.base.unit, coinv.lift(E(coh)))
        got = fundamental_field(vd, tangent, tan, lifted)
        want = E(unit_pair).scale(tangent.pair(tan, coh))
        return got == want, (tan, coh)

    report.sweep("field.normalization", pairs, normalization)

    a_basis = cf.crossed.algebra.basis.enumerate()
    form_basis = cf.forms.enumerate()

    # one row sweep per tangent vector, with its field taken at form indices
    hit, mult = None, cf.crossed.algebra.mult
    for tan in labels:
        field_ix = memoise(lambda ix, tan=tan: fundamental_field(vd, tangent, tan, E(ix)))
        found = first_non_multiplicative(a_basis, form_basis, field_ix, cf.left_act, mult, acting=True)
        if found is not None:
            hit = (tan, *found)
            break
    report.record("field.left-linear", hit is None, hit and witness(*hit))

    # uniqueness: a left-linear field is fixed by its values on the lifted
    # coinvariant forms and vanishes on the horizontal ones, so these two
    # families must span the forms as a left module
    spanned = Subspace(E(hor_ix) for hor_ix in hor_basis)
    for coh in coinv.labels:
        lifted = ver(cf.crossed.base.unit, coinv.lift(E(coh)))
        for pair_ix in a_basis:
            spanned.add(linear(cf.left_act, pair_ix, lifted))
    report.sweep("field.unique", form_basis, lambda fx: (spanned.contains(E(fx)), (fx,)))
    return report


def connection_form_bijection(
    vd: VerticalData,
    tangent: TangentSpace,
    connection: Connection | None = None,
    form: ConnectionForm | None = None,
):
    """Translate between connections and connection 1-forms and verify the
    defining property of the output and both round trips.

    Exactly one of connection / form must be given; returns
    (other, report)."""
    if (connection is None) == (form is None):
        raise ValueError("give exactly one of connection / form")
    cf = vd.cf
    h = cf.crossed.hopf
    report = _bundle_report(cf)
    unit_pair = monomial_unit(cf.crossed.algebra, "crossed product")

    def to_form(c_map) -> ConnectionForm:
        components = {}
        for i, tan in enumerate(tangent.labels):
            components[tan] = c_map(tensor_index(unit_pair, ("coh", i)))
        return ConnectionForm(components=components)

    def to_connection(phi: ConnectionForm) -> Connection:
        def c_ix(t_ix):
            _, pair_ix, label = t_ix
            return combine(
                (linear(cf.left_act, pair_ix, phi.components[tan]), weight)
                for tan in tangent.labels
                for weight in [tangent.pair(tan, label)]
                if not weight.is_zero()
            )

        return Connection(c=c_ix)

    def verify_form(phi: ConnectionForm, tag: str):
        def ver_projection(tan):
            got = sum_terms((ix, c) for ix, c in phi.components[tan].terms.items() if ix[0] == "ver")
            want = ver(cf.crossed.base.unit, vd.coinv.lift(E(("coh", tan[1]))))
            return got == want, (tan,)

        report.sweep(f"{tag}.vertical-projection", tangent.labels, ver_projection)

        # coinvariance: sum_j x_j0 (x) phi_j0 (x) x_j1 phi_j1 equals
        # sum_j x_j (x) phi_j (x) 1; the tangent leg mixes components,
        # so both sides are assembled in full
        lhs_total = sum_terms(
            (("cfw", tan0, f0, t_ix), c * c2 * ct)
            for tan in tangent.labels
            for (_, tan0, h1), c in tangent.coaction[tan].terms.items()
            for (_, f0, h2), c2 in linear(cf.right_coaction, phi.components[tan]).terms.items()
            for t_ix, ct in h.algebra.mult(h1, h2).terms.items()
        )
        unit_ix = monomial_unit(h.algebra, "structure Hopf algebra")
        rhs_total = sum_terms(
            (("cfw", tan, f_ix, unit_ix), c) for tan in tangent.labels for f_ix, c in phi.components[tan].terms.items()
        )
        report.record(f"{tag}.coinvariant", lhs_total == rhs_total)

    if connection is not None:
        check = check_connection(vd, connection)
        check.require("input connection fails")
        report.extend(check, prefix="input.")
        phi = to_form(connection.c)
        verify_form(phi, "output-form")
        back = to_connection(phi)
        target = vd.target_basis()

        def roundtrip(ix):
            return back.c(ix) == connection.c(ix), (ix,)

        report.sweep("roundtrip.connection", target, roundtrip)
        return phi, report

    verify_form(form, "input-form")
    report.require("input form fails")
    back = to_connection(form)
    check = check_connection(vd, back)
    report.extend(check, prefix="output.")
    phi2 = to_form(back.c)

    def roundtrip_form(tan):
        return phi2.components[tan] == form.components[tan], (tan,)

    report.sweep("roundtrip.form", tangent.labels, roundtrip_form)
    return back, report
