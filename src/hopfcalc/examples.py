"""Concrete instances wired from the builders: the Radford-family crossed
product, the noncommutative torus, small group-algebra calculi and a
commutative two-torus smash demo.  The CLI registry and the test-suite
both drive these."""

from __future__ import annotations

from typing import Callable

from hopfcalc.crossed import (
    CleftData,
    CrossedProduct,
    Measure,
    build_crossed_product,
    cleft_to_crossed,
    cocycle_from_sigma,
)
from hopfcalc.hopf import (
    AlgebraPresentation,
    BasisFamily,
    CoinvariantFamily,
    ComoduleAlgebra,
    HopfData,
    RadfordData,
    build_cyclic_group_algebra,
    build_laurent_hopf,
    build_radford,
    build_torus_comodule,
    check_radford_root,
    check_radford_shape,
    TorusData,
)
from hopfcalc.linalg import FreeVector, LinOp, combine, linear, memoise, record, tensor_index
from hopfcalc.scalars import CycScalar, root_of_unity

E = FreeVector.basis


@record
class RadfordInstance:
    data: RadfordData
    crossed: CrossedProduct      # of h1 by k[C_r]
    to_full: Callable[[FreeVector], FreeVector]  # crossed pair -> element of H_(r,n,q)


def radford_instance(r: int = 2, n: int = 2, q: CycScalar | None = None) -> RadfordInstance:
    """The indecomposable component of the Radford Hopf algebra, measured
    and twisted by the cyclic quotient group, assembled as a crossed product."""
    q = q if q is not None else root_of_unity(r * n)
    data = build_radford(r, n, q)
    group = build_cyclic_group_algebra(r, scalar_order=data.hopf.algebra.scalar_order)
    m_total = data.m

    def act(g_ix, b_ix):
        i = g_ix[1]
        _, l, mm = b_ix
        return E(b_ix, q ** (mm * (m_total - i)))

    def sigma(g_ix, k_ix):
        i, jdx = g_ix[1], k_ix[1]
        if i + jdx <= r - 1:
            return data.h1.unit
        return E(("h1", 1 % n, 0))

    measure = Measure(act=act)
    cocycle = cocycle_from_sigma(sigma, data.h1, group)
    crossed = build_crossed_product(data.h1, group, measure, cocycle)

    def to_full(v: FreeVector) -> FreeVector:
        return combine(
            (linear(data.hopf.algebra.mult, data.h1_embed(b_ix), ("ax", g_ix[1], 0)), c)
            for (_, b_ix, g_ix), c in v.terms.items()
        )

    return RadfordInstance(data=data, crossed=crossed, to_full=to_full)


def check_packaged_n(n: int) -> None:
    """Only the n = 2 member of the Radford family carries the packaged calculi."""
    if n != 2:
        raise ValueError(f"the packaged calculi need nilpotency order n = 2, got n = {n}")


def _rank_one_calculus(inst: RadfordInstance, tag: str, twist, d_ix, d_name: str) -> "Fodc":
    """A free rank-one left module over the base on forms (tag, l, m), one
    per basis element a^(lr) x^m, with right action b . w = w twist(b)."""
    from hopfcalc.fodc import Fodc

    check_packaged_n(inst.data.n)
    b = inst.data.h1

    def relabel(bv):
        return bv.map_indices(lambda ix: (tag, ix[1], ix[2]))

    def left_act(b_ix, f_ix):
        return relabel(b.mult(b_ix, ("h1", f_ix[1], f_ix[2])))

    def right_act(f_ix, b_ix):
        return relabel(linear(b.mult, ("h1", f_ix[1], f_ix[2]), twist(b_ix)))

    return Fodc(
        algebra=b,
        forms=BasisFamily(indices=[(tag, l, mm) for _, l, mm in b.basis.indices]),
        left_act=left_act,
        right_act=right_act,
        d=LinOp(d_ix, name=d_name),
    )


def radford_base_calculus(inst: RadfordInstance) -> "Fodc":
    """Calculus on the indecomposable component: a free rank-one left
    module on the differential of the nilpotent generator, with
    d(a^r) = 0 so the cocycle values are killed.

    Only the n = 2 member of the family carries this packaged calculus.
    """
    q, r = inst.data.q, inst.data.r

    def twist(b_ix):
        # dx b = twist(b) dx: diagonal with factor q^(l r) (-1)^m on a^(lr) x^m
        _, l, mm = b_ix
        return E(b_ix, (q ** (l * r)) * CycScalar.from_rational((-1) ** mm))

    def d_ix(b_ix):
        _, l, mm = b_ix
        if mm == 0:
            return FreeVector.zero()
        return E(("om", l, 0))

    return _rank_one_calculus(inst, "om", twist, d_ix, "d_B")


def radford_injected_calculus(inst: RadfordInstance):
    """A calculus on the base with a twisted bimodule action whose
    differential does NOT kill the cocycle values: a free rank-one module
    on a generator that is the differential of a^r.

    Returns (Fodc, TwistedCalculusAction); used to demonstrate that the
    cocycle-vanishing condition is necessary."""
    from hopfcalc.fodc import TwistedCalculusAction

    q, m_total = inst.data.q, inst.data.m

    def twist(b_ix):
        # omega b = twist(b) omega, the sign character (-1)^(l+m)
        _, l, mm = b_ix
        return E(b_ix, CycScalar.from_rational((-1) ** (l + mm)))

    def d_ix(b_ix):
        _, l, mm = b_ix
        if l == 0:
            return FreeVector.zero()
        if mm == 0:
            return E(("omx", 0, 0))  # d(a^r) = omega
        return E(("omx", 0, 1), CycScalar.from_rational(-1))  # d(a^r x) = -x omega

    calc = _rank_one_calculus(inst, "omx", twist, d_ix, "d_inj")

    def act(g_ix, f_ix):
        # g^i . (b omega) = q^i (g^i . b) omega, diagonal on the monomial basis
        i = g_ix[1]
        _, l, mm = f_ix
        coeff = (q ** i) * (q ** (mm * (m_total - i)))
        return E(f_ix, coeff)

    return calc, TwistedCalculusAction(act=act)


@record
class TorusInstance:
    torus: TorusData
    cleft: CleftData
    crossed: CrossedProduct
    derivation_report: "CheckReport"

    def closed_measure(self, k: int, l: int) -> FreeVector:
        """t^k acting on w^l: the closed form e^{-i theta k l} w^l."""
        return E(("w", l), self.torus.theta_root ** (-k * l))

    def closed_sigma_in_total(self, k: int, s: int) -> FreeVector:
        """The four-branch closed form of the derived cocycle, as an element
        of the torus algebra (monomials in u and v)."""
        th = self.torus.theta_root
        if k >= 0 and s >= 0:
            return self.torus.comodule.algebra.unit
        if k <= 0 and s <= 0:
            return self.torus.comodule.algebra.unit
        if k >= 0 and s < 0:
            sp = -s
            if sp <= k:
                return E(("uv", sp, sp), th ** (-sp * (k - sp)))
            return E(("uv", k, k))
        kp = -k
        if kp <= s:
            return E(("uv", kp, kp), th ** (kp * kp))
        return E(("uv", s, s), th ** (s * kp))


@record
class GroupC2Instance:
    hopf: HopfData
    calc: "Fodc"
    graded: "GradedDc"      # degree <= 1 truncation


def augmentation_ideal(ideal: str, order: int) -> list[FreeVector]:
    """Generators of the zero ideal, or of the full augmentation ideal
    g^i - 1 of the cyclic group algebra of the given order."""
    if ideal == "zero":
        return []
    if ideal == "full":
        return [E(("g", i)) - E(("g", 0)) for i in range(1, order)]
    raise ValueError(f"unknown ideal choice {ideal!r} (expected zero or full)")


def group_c2_instance(ideal: str = "zero") -> GroupC2Instance:
    """Woronowicz-style calculus on the order-two group algebra with the
    zero or the full augmentation ideal, truncated above degree one."""
    from hopfcalc.fodc import IdealCalculusSpec, woronowicz_from_ideal
    from hopfcalc.crossed_calc import truncate_dc_degree2

    h = build_cyclic_group_algebra(2)
    calc = woronowicz_from_ideal(IdealCalculusSpec(hopf=h, ideal_gens=augmentation_ideal(ideal, 2)))
    return GroupC2Instance(hopf=h, calc=calc, graded=truncate_dc_degree2(calc))


@record
class CalculusInstance:
    """The covariant calculus on a crossed product B #_sigma H built from a
    calculus on B and a bicovariant calculus on H, with its higher forms
    when the structure calculus has a degree-two-trivial prolongation."""

    instance: "RadfordInstance | TorusInstance"
    cf: "CrossedFodc"
    h_graded: "GradedDc | None"
    higher: "GradedDc | None"           # graded forms on the crossed product
    truncation_witness: str | None = None

    @property
    def obstruction(self) -> str:
        """What verify records when there is no `higher`, and cohomology reports in place of dims."""
        return f"no degree-two-trivial prolongation: {self.truncation_witness}"


def _calculus_instance(
    inst: "RadfordInstance | TorusInstance", b_calc: "Fodc", h_calc: "Fodc", window: int | None = None
) -> CalculusInstance:
    """The crossed product calculus of b_calc and h_calc on inst.crossed, then its higher forms."""
    from hopfcalc.crossed_calc import (
        NotTruncatable,
        build_crossed_fodc,
        build_higher_forms,
        truncate_dc_degree2,
        truncate_twisted_base,
    )

    cf = build_crossed_fodc(inst.crossed, b_calc, h_calc, window=window)
    try:
        h_graded = truncate_dc_degree2(h_calc, window=window)
    except NotTruncatable as obstruction:
        # honest outcome: the structure calculus admits no prolongation with
        # vanishing degree two and a differentiable coproduct
        return CalculusInstance(
            instance=inst, cf=cf, h_graded=None, higher=None, truncation_witness=obstruction.witness
        )
    b_graded = truncate_twisted_base(b_calc, inst.crossed.measure, cf.b_action)
    higher = build_higher_forms(inst.crossed, b_graded, h_graded, window=window)
    return CalculusInstance(instance=inst, cf=cf, h_graded=h_graded, higher=higher)


def radford_calculus_instance(r: int = 2, n: int = 2, q: CycScalar | None = None, ideal: str = "zero") -> CalculusInstance:
    from hopfcalc.fodc import IdealCalculusSpec, woronowicz_from_ideal

    inst = radford_instance(r, n, q)
    h_calc = woronowicz_from_ideal(IdealCalculusSpec(hopf=inst.crossed.hopf, ideal_gens=augmentation_ideal(ideal, r)))
    return _calculus_instance(inst, radford_base_calculus(inst), h_calc)


def torus_calculus_instance(theta_order: int = 8, window: int = 4) -> CalculusInstance:
    from hopfcalc.fodc import build_laurent_q_calculus, zero_fodc

    inst = torus_instance(theta_order, window)
    # the deformation parameter of the structure calculus is independent of
    # the angle; reuse the angle root when its order allows, else a fourth
    # root of unity
    q = inst.torus.theta_root if theta_order >= 3 else root_of_unity(4)
    h_calc = build_laurent_q_calculus(q, hopf=inst.crossed.hopf)
    return _calculus_instance(inst, zero_fodc(inst.crossed.base), h_calc, window=window)


@record
class SmashDemoInstance:
    comodule: ComoduleAlgebra
    cleft: CleftData
    a_calc: "Fodc"          # on the total algebra
    h_calc: "Fodc"
    q: CycScalar


def smash_demo_instance(q_order: int = 8) -> SmashDemoInstance:
    """A commutative two-torus presented as a genuine tensor product
    B (x) H, carrying the product of the classical calculus on the base
    and the one-parameter calculus on the structure Hopf algebra.  The
    cleaving map is an algebra morphism, so this is a trivial extension."""
    from hopfcalc.fodc import Fodc, build_laurent_q_calculus

    q = root_of_unity(q_order)
    so = q.order
    one = CycScalar.one(so)
    hopf = build_laurent_hopf(scalar_order=so)

    def ix(mm, nn):
        return ("st", mm, nn)

    algebra = AlgebraPresentation(
        basis=BasisFamily(window_fn=lambda w: [ix(mm, nn) for mm in range(-w, w + 1) for nn in range(-w, w + 1)]),
        mult=lambda i, jj: E(ix(i[1] + jj[1], i[2] + jj[2])),
        unit=E(ix(0, 0)),
        scalar_order=so,
    )

    base = AlgebraPresentation(
        basis=BasisFamily(window_fn=lambda w: [("s", k) for k in range(-w, w + 1)]),
        mult=lambda i, jj: E(("s", i[1] + jj[1])),
        unit=E(("s", 0)),
        scalar_order=so,
    )
    coinv = CoinvariantFamily(algebra=base, embed=lambda i: E(ix(i[1], 0)))
    comodule = ComoduleAlgebra(
        algebra=algebra,
        hopf=hopf,
        coaction=lambda i: E(tensor_index(i, ("t", i[2]))),
        coinvariants=coinv,
    )
    cleft = CleftData(
        total=comodule,
        cleaving=LinOp(lambda t: E(ix(0, t[1])), name="j"),
        cleaving_inv=LinOp(lambda t: E(ix(0, -t[1])), name="j^-1"),
    )

    h_calc = build_laurent_q_calculus(q, hopf=hopf)
    denom_inv = (q - one).inverse()

    def q_int(nn):
        return (q ** nn - one) * denom_inv

    def d_ix(i):
        _, mm, nn = i
        out = FreeVector.zero()
        if mm:
            out = out + E(("ds", mm - 1, nn), CycScalar.from_rational(mm))
        c = q_int(nn)
        if not c.is_zero():
            out = out + E(("dtA", mm, nn - 1), c)
        return out

    def left_act(i, f):
        _, mm, nn = i
        return E((f[0], f[1] + mm, f[2] + nn))

    def right_act(f, i):
        _, mm, nn = i
        coeff = one if f[0] == "ds" else q ** nn
        return E((f[0], f[1] + mm, f[2] + nn), coeff)

    def right_coaction(f):
        shift = 0 if f[0] == "ds" else 1
        return E(tensor_index(f, ("t", f[2] + shift)))

    a_calc = Fodc(
        algebra=algebra,
        forms=BasisFamily(
            window_fn=lambda w: [("ds", mm, nn) for mm in range(-w, w + 1) for nn in range(-w, w + 1)]
            + [("dtA", mm, nn) for mm in range(-w, w + 1) for nn in range(-w, w + 1)]
        ),
        left_act=left_act,
        right_act=right_act,
        d=LinOp(d_ix, name="d_A"),
        hopf=hopf,
        right_coaction=right_coaction,
        algebra_coaction=comodule.coaction,
    )
    return SmashDemoInstance(comodule=comodule, cleft=cleft, a_calc=a_calc, h_calc=h_calc, q=q)


# ---------------------------------------------------------------------------
# verification suites driven by the command line runner
# ---------------------------------------------------------------------------


def _radford_calc(params: dict) -> CalculusInstance:
    """The radford instance of the CLI params; its suites and its `graded` entry both build here."""
    r = params["r"]
    q = root_of_unity(r * params["n"], params["q_power"])
    return radford_calculus_instance(r, params["n"], q, ideal=params["ideal"])


class NoGradedCalculus(ValueError):
    """Raised by a `graded` entry whose params admit no graded calculus: a
    mathematical outcome, not a usage error.  The message is the witness."""


def _graded(calc: CalculusInstance, window: int | None):
    """The `graded` entry of a crossed calculus: its higher forms and their window."""
    if calc.higher is None:
        raise NoGradedCalculus(calc.obstruction)
    return calc.higher, window


def radford_suites(params: dict) -> list:
    """(suite-name, thunk) pairs for the Radford family example."""
    from hopfcalc.crossed import check_hopf_galois, equivariant_section
    from hopfcalc.crossed_calc import (
        check_graded_dc,
        compare_first_order,
        necessity_dsigma,
        verify_crossed_fodc,
    )
    from hopfcalc.fodc import check_fodc
    from hopfcalc.hopf import check_comodule_algebra, check_hopf_axioms
    from hopfcalc.qpb import (
        VComodule,
        canonical_connection,
        check_atiyah_exact,
        connection_form_bijection,
        covariant_derivative,
        tangent_and_fields,
        vertical_map,
    )
    from hopfcalc.report import CheckReport

    calc = memoise(lambda: _radford_calc(params))
    vdata = memoise(lambda: vertical_map(calc().cf))
    canonical = memoise(lambda: canonical_connection(vdata()))

    def hopf_axioms():
        rc = calc()
        rep = check_hopf_axioms(rc.instance.data.hopf)
        rep.extend(check_hopf_axioms(rc.instance.crossed.hopf), prefix="group.")
        return rep

    # the builders check these hypotheses on the same maps, with no window,
    # and refuse the instance when one fails
    def twisted_module():
        return calc().instance.crossed.hypotheses

    def comodule():
        return check_comodule_algebra(calc().instance.crossed.comodule)

    def galois():
        return check_hopf_galois(calc().instance.crossed.comodule).report

    def fodc_suite():
        rc = calc()
        rep = check_fodc(rc.cf.b_calc)
        rep.extend(check_fodc(rc.cf.h_calc), prefix="structure.")
        return rep

    def twisted_calculus():
        return calc().cf.hypotheses

    def crossed_fodc():
        return verify_crossed_fodc(calc().cf)

    def higher():
        rc = calc()
        if rc.higher is None:
            rep = CheckReport()
            rep.record("truncation-obstruction", True, witness=rc.obstruction)
            return rep
        rep = check_graded_dc(rc.higher)
        rep.extend(compare_first_order(rc.cf, rc.higher))
        return rep

    def qpb_suite():
        vd = vdata()
        rep = CheckReport()
        rep.extend(vd.coinv.report)
        rep.extend(vd.report)
        rc = calc()
        if rc.higher is None:
            rep.extend(check_atiyah_exact(vd))
        else:
            rep.extend(check_atiyah_exact(vd, higher=rc.higher, h_graded=rc.h_graded))
        return rep

    def connection():
        _, rep = canonical()
        return rep

    def bijection():
        vd = vdata()
        conn, _ = canonical()
        tangent, _, trep = tangent_and_fields(vd)
        phi, rep1 = connection_form_bijection(vd, tangent, connection=conn)
        _, rep2 = connection_form_bijection(vd, tangent, form=phi)
        rep = CheckReport()
        rep.extend(trep)
        rep.extend(rep1, prefix="forward.")
        rep.extend(rep2, prefix="backward.")
        return rep

    def derivative():
        vd = vdata()
        group_dim = params["r"]
        v = VComodule(
            labels=[("v", 0), ("v", 1)],
            coaction=lambda vx: FreeVector.basis(
                tensor_index(vx, ("g", 1 % group_dim if vx[1] == 0 else 0))
            ),
        )
        return covariant_derivative(vd, v).report

    def necessity():
        rc = calc()
        inst = rc.instance
        inj, inj_action = radford_injected_calculus(inst)
        return necessity_dsigma(inst.crossed, inj, inj_action, rc.cf.h_calc)

    def section():
        rc = calc()
        inst = rc.instance
        cleft = CleftData(
            total=inst.crossed.comodule,
            cleaving=LinOp(lambda g_ix: FreeVector.basis(tensor_index(("h1", 0, 0), g_ix))),
        )
        _, rep = equivariant_section(cleft)
        return rep

    return [
        ("hopf-axioms", hopf_axioms),
        ("twisted-module", twisted_module),
        ("comodule", comodule),
        ("hopf-galois", galois),
        ("fodc", fodc_suite),
        ("twisted-calculus", twisted_calculus),
        ("crossed-fodc", crossed_fodc),
        ("higher-forms", higher),
        ("qpb", qpb_suite),
        ("connection", connection),
        ("bijection", bijection),
        ("derivative", derivative),
        ("necessity", necessity),
        ("section", section),
    ]


def torus_suites(params: dict) -> list:
    from hopfcalc.crossed import equivariant_section
    from hopfcalc.crossed_calc import (
        check_graded_dc,
        classify_smash,
        compare_first_order,
        necessity_dsigma,
        verify_crossed_fodc,
    )
    from hopfcalc.fodc import (
        Fodc,
        TwistedCalculusAction,
        check_fodc,
        sigma_forces_zero_differential,
    )
    from hopfcalc.hopf import check_comodule_algebra, check_hopf_axioms
    from hopfcalc.qpb import canonical_connection, check_atiyah_exact, vertical_map
    from hopfcalc.report import CheckReport

    window = params["window"]
    calc = memoise(lambda: torus_calculus_instance(params["M"], window))
    vdata = memoise(lambda: vertical_map(calc().cf, window=window))

    def hopf_axioms():
        tc = calc()
        return check_hopf_axioms(tc.instance.crossed.hopf, window=window)

    def comodule():
        return check_comodule_algebra(calc().instance.torus.comodule, window=window)

    def cleft_derivation():
        tc = calc()
        inst = tc.instance
        rep = CheckReport(windowed=True)
        rep.extend(inst.derivation_report)

        def measure_matches(pair):
            k, l = pair
            got = inst.crossed.measure.act(("t", k), ("w", l))
            return got == inst.closed_measure(k, l), (("t", k), ("w", l))

        rep.sweep(
            "cleft.measure-closed-form",
            ((k, l) for k in range(-window, window + 1) for l in range(-window, window + 1)),
            measure_matches,
        )

        def sigma_matches(pair):
            k, s = pair
            embedded = linear(inst.torus.base_embed, inst.crossed.cocycle.sigma(("t", k), ("t", s)))
            return embedded == inst.closed_sigma_in_total(k, s), (("t", k), ("t", s))

        rep.sweep(
            "cleft.sigma-closed-form",
            ((k, s) for k in range(-window, window + 1) for s in range(-window, window + 1)),
            sigma_matches,
        )
        return rep

    # the builder checks these hypotheses on the same maps, at the instance
    # window, and refuses the instance when one fails
    def twisted_module():
        return calc().instance.crossed.hypotheses

    def forced_zero():
        tc = calc()
        inst = tc.instance
        sigma_values = [
            inst.crossed.cocycle.sigma(("t", k), ("t", s))
            for k in range(-window, window + 1)
            for s in range(-window, window + 1)
        ]
        return sigma_forces_zero_differential(inst.crossed.base, sigma_values, window=window)

    def fodc_suite():
        return check_fodc(calc().cf.h_calc, window=min(window, 3))

    def crossed_fodc():
        return verify_crossed_fodc(calc().cf, window=min(window, 3))

    def higher():
        tc = calc()
        # associativity sweeps are cubic in the window size; one shell is
        # already 9^3 base triples
        rep = check_graded_dc(tc.higher, window=1)
        rep.extend(compare_first_order(tc.cf, tc.higher, window=2))
        return rep

    def qpb_suite():
        vd = vdata()
        rep = CheckReport()
        rep.extend(vd.coinv.report)
        rep.extend(vd.report)
        rep.extend(check_atiyah_exact(vd, window=min(window, 3)))
        return rep

    def connection():
        _, rep = canonical_connection(vdata(), window=min(window, 3))
        return rep

    def necessity():
        tc = calc()
        inst = tc.instance

        def dd(ix):
            l = ix[1]
            if l == 0:
                return FreeVector.zero()
            return FreeVector({("dw", l - 1): CycScalar.from_rational(l)})

        classical = Fodc(
            algebra=inst.crossed.base,
            forms=BasisFamily(window_fn=lambda w: [("dw", k) for k in range(-w, w + 1)]),
            left_act=lambda a, f: FreeVector.basis(("dw", a[1] + f[1])),
            right_act=lambda f, a: FreeVector.basis(("dw", a[1] + f[1])),
            d=LinOp(dd, name="d_cl"),
        )
        th = inst.torus.theta_root
        action = TwistedCalculusAction(act=lambda t, f: FreeVector.basis(f, th ** (-t[1] * (f[1] + 1))))
        rep = necessity_dsigma(inst.crossed, classical, action, tc.cf.h_calc, window=2)

        from hopfcalc.crossed_calc import hor, leibniz_defect

        defect = leibniz_defect(inst.crossed, classical, action, tc.cf.h_calc, ("t", 1), ("t", -1))
        rep.record(
            "necessity-witness-at-unit-windings",
            defect == hor(FreeVector.basis(("dw", 0)), FreeVector.basis(("t", 0))),
            witness=defect.to_text(),
        )
        return rep

    def refusal():
        tc = calc()
        rep = CheckReport(windowed=True)
        try:
            # the refusal fires on the cleaving map before any calculus is touched
            classify_smash(None, tc.cf.h_calc, tc.instance.cleft, window=2)
        except ValueError as err:
            rep.record(
                "classification.refuses-non-trivial-extension",
                "not a trivial extension" in str(err),
                witness=str(err),
            )
            return rep
        rep.record("classification.refuses-non-trivial-extension", False, witness="no refusal")
        return rep

    def section():
        _, rep = equivariant_section(calc().instance.cleft, window=min(window, 3))
        return rep

    return [
        ("hopf-axioms", hopf_axioms),
        ("comodule", comodule),
        ("cleft-derivation", cleft_derivation),
        ("twisted-module", twisted_module),
        ("forced-zero", forced_zero),
        ("fodc", fodc_suite),
        ("crossed-fodc", crossed_fodc),
        ("higher-forms", higher),
        ("qpb", qpb_suite),
        ("connection", connection),
        ("necessity", necessity),
        ("classification-refusal", refusal),
        ("section", section),
    ]


def group_c2_suites(params: dict) -> list:
    from hopfcalc.crossed_calc import check_graded_dc
    from hopfcalc.fodc import check_fodc
    from hopfcalc.hopf import check_hopf_axioms

    inst = memoise(lambda: group_c2_instance(params["ideal"]))

    return [
        ("hopf-axioms", lambda: check_hopf_axioms(inst().hopf)),
        ("fodc", lambda: check_fodc(inst().calc)),
        ("graded", lambda: check_graded_dc(inst().graded)),
    ]


def smash_demo_suites(params: dict) -> list:
    from hopfcalc.crossed_calc import classify_smash
    from hopfcalc.fodc import check_fodc
    from hopfcalc.hopf import check_comodule_algebra

    window = params["window"]
    inst = memoise(lambda: smash_demo_instance(params["M"]))

    def fodc_suite():
        rep = check_fodc(inst().a_calc, window=2)
        rep.extend(check_fodc(inst().h_calc, window=2), prefix="structure.")
        return rep

    return [
        ("comodule", lambda: check_comodule_algebra(inst().comodule, window=window)),
        ("fodc", fodc_suite),
        (
            "classification",
            lambda: classify_smash(inst().a_calc, inst().h_calc, inst().cleft, window=window, seed=params["seed"]).report,
        ),
    ]


def _read_param_file(params: dict, key: str) -> str:
    path = params[key]
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise ValueError(f"--{key.replace('_', '-')} {path}: {err.strerror}") from err


def user_hopf_suites(params: dict) -> list:
    """Both files are read and checked here, before any suite runs."""
    from hopfcalc.fodc import IdealCalculusSpec, check_fodc, parse_ideal_generators, woronowicz_from_ideal
    from hopfcalc.hopf import check_hopf_axioms, parse_structure_constants

    hopf = parse_structure_constants(_read_param_file(params, "file"))
    suites = [("hopf-axioms", lambda: check_hopf_axioms(hopf))]
    if params.get("ideal_file"):
        text = _read_param_file(params, "ideal_file")
        gens = parse_ideal_generators(text, hopf)

        def quotient_calculus():
            calc = woronowicz_from_ideal(IdealCalculusSpec(hopf=hopf, ideal_gens=gens))
            report = check_fodc(calc)
            report.record(
                "covariance.bicovariant",
                True,
                witness=calc.covariance_note or f"bicovariant, {len(calc.forms.enumerate())} forms",
            )
            return report

        suites.append(("ideal-calculus", quotient_calculus))
    return suites


# ---------------------------------------------------------------------------
# parameter validation, run before any instance is built
# ---------------------------------------------------------------------------


def _at_least(params: dict, key: str, low: int) -> None:
    if params[key] < low:
        raise ValueError(f"--{key} must be at least {low}, got {params[key]}")


def _blame(flag: str, check: Callable, *args):
    """check(*args), with its refusal re-raised as a refusal of flag."""
    try:
        return check(*args)
    except ValueError as err:
        raise ValueError(f"{flag}: {err}") from None


def validate_radford(params: dict) -> None:
    _blame("--n", check_packaged_n, params["n"])
    m = _blame("--r", check_radford_shape, params["r"], params["n"])
    _blame("--q-power", lambda k: check_radford_root(root_of_unity(m, k), m), params["q_power"])


def validate_torus(params: dict) -> None:
    _blame("--M", root_of_unity, params["M"])
    # window 1 is too small for the cleft derivation to stay in the coinvariants
    _at_least(params, "window", 2)


def validate_smash_demo(params: dict) -> None:
    from hopfcalc.fodc import check_deformation_parameter

    _blame("--M", lambda k: check_deformation_parameter(root_of_unity(k)), params["M"])
    _at_least(params, "window", 2)


def validate_user_hopf(params: dict) -> None:
    if not params.get("file"):
        raise ValueError("--file is required: the user-hopf example reads its structure constants from it")


def cohomology_dims(example: str, params: dict) -> tuple[list[int], int | None]:
    """De Rham dimensions of the example's graded calculus, on its window if any."""
    from hopfcalc.crossed_calc import de_rham_cohomology

    dc, window = EXAMPLES[example]["graded"](params)
    return de_rham_cohomology(dc, params["max_degree"], window=window), window


EXAMPLES = {
    "radford": {
        "description": "crossed product of the nilpotent component of the Radford family by its cyclic quotient, with the full calculus and bundle suite",
        "params": {"r": "int (default 2)", "n": "int (must be 2 for the calculus suites)", "q-power": "int (default 1)", "ideal": "zero|full"},
        "suites": radford_suites,
        "graded": lambda params: _graded(_radford_calc(params), None),
        "validate": validate_radford,
    },
    "torus": {
        "description": "noncommutative torus at a rational angle as a cleft extension of Laurent polynomials",
        "params": {"M": "int angle denominator (default 8)", "window": "int (default 4)"},
        "suites": torus_suites,
        "graded": lambda params: _graded(torus_calculus_instance(params["M"], params["window"]), params["window"]),
        "validate": validate_torus,
    },
    "group-c2": {
        "description": "group algebra of order two with the quotient calculus of a chosen ideal",
        "params": {"ideal": "zero|full"},
        "suites": group_c2_suites,
        "graded": lambda params: (group_c2_instance(params["ideal"]).graded, None),
        "validate": lambda params: None,
    },
    "smash-demo": {
        "description": "commutative two-torus as a genuine tensor product, classified as a smash product calculus",
        "params": {"M": "int deformation order (default 8)", "window": "int (default 4)", "seed": "int"},
        "suites": smash_demo_suites,
        "validate": validate_smash_demo,
    },
    "user-hopf": {
        "description": "axiom check of user-supplied structure constants, plus the quotient calculus of user-supplied ideal generators",
        "params": {"file": "path to a structure-constant file", "ideal-file": "optional path with one ideal generator per line"},
        "suites": user_hopf_suites,
        "validate": validate_user_hopf,
    },
}


def torus_instance(theta_order: int = 8, window: int = 4) -> TorusInstance:
    """Noncommutative torus with angle 2 pi / theta_order, cleft over the
    Laurent Hopf algebra; measure and cocycle are derived from the
    cleaving map, not copied from closed forms."""
    torus = build_torus_comodule(root_of_unity(theta_order))
    cleft = CleftData(total=torus.comodule, cleaving=torus.cleaving, cleaving_inv=torus.cleaving_inv)
    crossed, _, _, report = cleft_to_crossed(cleft, window=window)
    return TorusInstance(torus=torus, cleft=cleft, crossed=crossed, derivation_report=report)
