"""Every comodule and module law can fail.

Each test builds a fresh instance, corrupts one entry of a memoised
structure map after construction (`linalg.memoise` keeps the table in
`fn.memo`, and every later call reads it), and asserts exactly which checks
of the suite fail and at which witness.  The laws are the builders of
`hopf`, and a left-side law is a right-side builder applied to `flipped`
maps, so the left coaction corruptions below fail only when the flip
really reads the left coaction.  The bundle laws (the vertical map, the
canonical connection and the equivariant section are each left-linear and
right-colinear) are builder calls as well, with the target's action and
coaction passed as maps.  The witnesses are pinned, so a change of sweep
order or of a law shows here.
"""

import pytest
from conftest import corrupt

from hopfcalc.crossed import CleftData, check_cleft_derivation, cleft_to_crossed, equivariant_section
from hopfcalc.crossed_calc import classify_smash, verify_crossed_fodc
from hopfcalc.examples import group_c2_instance, radford_calculus_instance, radford_instance, smash_demo_instance
from hopfcalc.fodc import check_fodc
from hopfcalc.hopf import check_comodule_algebra, check_hopf_axioms
from hopfcalc.linalg import FreeVector, format_index, tensor_index

E = FreeVector.basis


def failures(report):
    return {c.identity: c.witness for c in report.checks if c.status == "fail"}


ONE, X, A1 = ("ax", 0, 0), ("ax", 0, 1), ("ax", 1, 0)


# the counit of x is zero, so x (x) 1 breaks only the right counit law,
# (id (x) eps) comul, and 1 (x) x only the left one, (eps (x) id) comul
@pytest.mark.parametrize(
    "at, extra, failed",
    [
        (A1, tensor_index(X, ONE), {"coalgebra.counit": "ax(1,0)"}),
        (A1, tensor_index(ONE, X), {"coalgebra.counit": "ax(1,0)"}),
        (X, tensor_index(X, X), {}),
    ],
)
def test_a_corrupted_comultiplication_fails_the_coalgebra_laws(at, extra, failed):
    h = radford_instance().data.hopf
    corrupt(h.comul, (at,), extra)
    witness = format_index(at)
    assert failures(check_hopf_axioms(h)) == {
        "coalgebra.coassoc": witness,
        **failed,
        "bialgebra.comul-mult": "ax(0,1) ; ax(1,0)",
        **({"hopf.antipode": witness} if failed else {}),
    }


def _pair(b, g):
    return tensor_index(("h1", 0, b), ("g", g))


@pytest.mark.parametrize(
    "at, extra, failed",
    [
        (
            _pair(1, 1),
            tensor_index(_pair(0, 0), ("g", 1)),
            {
                "comodule.coassoc": "(h1(0,1) (x) g(1))",
                "comodule.counit": "(h1(0,1) (x) g(1))",
                "comodule.algebra-map": "(h1(0,0) (x) g(1)) ; (h1(0,1) (x) g(0))",
            },
        ),
        (
            _pair(0, 1),
            tensor_index(_pair(0, 1), ("g", 0)),
            {
                "comodule.coassoc": "(h1(0,0) (x) g(1))",
                "comodule.counit": "(h1(0,0) (x) g(1))",
                "comodule.algebra-map": "(h1(0,0) (x) g(1)) ; (h1(0,0) (x) g(1))",
            },
        ),
    ],
)
def test_a_corrupted_coaction_fails_the_comodule_algebra_laws(at, extra, failed):
    comodule = radford_instance().crossed.comodule
    corrupt(comodule.coaction, (at,), extra)
    assert failures(check_comodule_algebra(comodule)) == failed


F0, F1, G0, G1 = ("w1", 0, ("g", 0)), ("w1", 0, ("g", 1)), ("g", 0), ("g", 1)


@pytest.mark.parametrize(
    "field, at, extra, failed",
    [
        (
            "right_coaction",
            F1,
            tensor_index(F0, G1),
            {
                "covariance.right-comodule": "w1(0,g(1))",
                "covariance.actions-right": "g(1) ; w1(0,g(0))",
                "covariance.d-right-colinear": "g(1)",
                "covariance.bicomodule": "w1(0,g(1))",
            },
        ),
        (
            "right_coaction",
            F0,
            tensor_index(F1, G0),
            {
                "covariance.right-comodule": "w1(0,g(0))",
                "covariance.actions-right": "g(1) ; w1(0,g(0))",
                "covariance.bicomodule": "w1(0,g(0))",
            },
        ),
        (
            "left_coaction",
            F1,
            tensor_index(G1, F0),
            {
                "covariance.left-comodule": "w1(0,g(1))",
                "covariance.actions-left": "g(1) ; w1(0,g(0))",
                "covariance.d-left-colinear": "g(1)",
                "covariance.bicomodule": "w1(0,g(1))",
            },
        ),
        (
            "left_coaction",
            F0,
            tensor_index(G0, F1),
            {
                "covariance.left-comodule": "w1(0,g(0))",
                "covariance.actions-left": "g(1) ; w1(0,g(0))",
                "covariance.bicomodule": "w1(0,g(0))",
            },
        ),
    ],
)
def test_a_corrupted_form_coaction_fails_the_covariance_laws(field, at, extra, failed):
    f = group_c2_instance("zero").calc
    corrupt(getattr(f, field), (at,), extra)
    assert failures(check_fodc(f)) == failed


# d(g) = w1(0,g(1)) and d(1) = 0 on the group-c2 calculus
@pytest.mark.parametrize(
    "at, extra, failed",
    [
        (G1, F0, {"surjectivity": "form w1(0,g(0)) unreachable"}),
        (G0, F1, {"leibniz": "g(0) ; g(0)"}),
    ],
)
def test_a_corrupted_differential_fails_leibniz_and_both_colinearities(at, extra, failed):
    f = group_c2_instance("zero").calc
    corrupt(f.d, (at,), extra)
    witness = format_index(at)
    assert failures(check_fodc(f)) == {
        **failed,
        "covariance.d-right-colinear": witness,
        "covariance.d-left-colinear": witness,
    }


@pytest.fixture
def radford_calc():
    return radford_calculus_instance(2, 2)


def test_a_corrupted_crossed_form_coaction_fails_d_colinear(radford_calc):
    cf = radford_calc.cf
    forms = cf.forms.enumerate()
    corrupt(cf.right_coaction, (forms[0],), tensor_index(forms[1], G0))
    assert failures(verify_crossed_fodc(cf)) == {"d-colinear": "(h1(0,1) (x) g(0))"}


def test_a_corrupted_crossed_differential_fails_leibniz_and_d_colinear(radford_calc):
    cf = radford_calc.cf
    corrupt(cf.d, (_pair(0, 1),), cf.forms.enumerate()[0])
    assert failures(verify_crossed_fodc(cf)) == {
        "leibniz": "(h1(0,0) (x) g(1)) ; (h1(0,0) (x) g(1))",
        "generation-horizontal": "h1(0,0) ; h1(0,1) ; g(1)",
        "generation-vertical": "h1(0,0) ; g(0) ; g(1)",
        "d-colinear": "(h1(0,0) (x) g(1))",
        "coaction-differentiable": "(h1(0,0) (x) g(1))",
    }


def _radford_cleft():
    inst = radford_instance()
    return CleftData(total=inst.crossed.comodule, cleaving=lambda g_ix: E(tensor_index(("h1", 0, 0), g_ix)))


# a coaction that leaves the image of the base makes the checks that solve
# over the base fail at their item, and the report is kept
def test_a_coaction_leaving_the_base_fails_cleaving_colinear_and_the_comparison_map():
    cleft = _radford_cleft()
    j_g = _pair(0, 1)
    corrupt(cleft.total.coaction, (j_g,), tensor_index(j_g, G0))
    assert failures(check_cleft_derivation(cleft, *cleft_to_crossed(cleft))) == {
        "cleaving.colinear": "g(1)",
        "theta.left-inverse": "(h1(0,0) (x) g(1))",
        "theta.right-inverse": "(h1(0,0) (x) g(1))",
        "theta.algebra-map": "(h1(0,0) (x) g(0)) ; (h1(0,0) (x) g(1))",
        "theta.colinear": "(h1(0,0) (x) g(1))",
    }


def test_a_doubled_coaction_fails_cleaving_colinear():
    cleft = _radford_cleft()
    j_g = _pair(0, 1)
    corrupt(cleft.total.coaction, (j_g,), tensor_index(j_g, G1))
    assert failures(check_cleft_derivation(cleft, *cleft_to_crossed(cleft))) == {
        "cleaving.colinear": "g(1)",
        "theta.left-inverse": "(h1(0,0) (x) g(1))",
        "theta.right-inverse": "(h1(0,0) (x) g(1))",
        "theta.algebra-map": "(h1(0,0) (x) g(1)) ; (h1(0,0) (x) g(1))",
        "theta.colinear": "(h1(0,0) (x) g(1))",
    }


# the comparison map lands in the crossed product that cleft_to_crossed
# builds, so its maps are corrupted before the checks run
@pytest.mark.parametrize(
    "field, args, extra, failed",
    [
        ("coaction", (_pair(1, 1),), tensor_index(_pair(0, 0), G1), {"theta.colinear": "(h1(0,1) (x) g(1))"}),
        ("mult", (_pair(1, 1), _pair(1, 1)), _pair(0, 0), {"theta.algebra-map": "(h1(0,1) (x) g(1)) ; (h1(0,1) (x) g(1))"}),
        ("mult", (_pair(0, 1), _pair(1, 0)), _pair(0, 0), {"theta.algebra-map": "(h1(0,0) (x) g(1)) ; (h1(0,1) (x) g(0))"}),
    ],
)
def test_a_corrupted_crossed_product_fails_the_comparison_map_laws(field, args, extra, failed):
    cleft = _radford_cleft()
    crossed, theta, theta_inv = cleft_to_crossed(cleft)
    corrupt(crossed.comodule.coaction if field == "coaction" else crossed.algebra.mult, args, extra)
    assert failures(check_cleft_derivation(cleft, crossed, theta, theta_inv)) == failed


def test_a_cleaving_map_that_is_not_multiplicative_is_refused():
    inst = smash_demo_instance()
    corrupt(inst.cleft.cleaving, (("t", 1),), ("st", 0, 0))
    with pytest.raises(ValueError, match=r"not an algebra morphism at t\(-2\) ; t\(1\)$"):
        classify_smash(inst.a_calc, inst.h_calc, inst.cleft, window=2)


# the bundle laws: the vertical map and the canonical connection are
# left-linear and right-colinear, and so is the equivariant section
VER_F = ("ver", ("h1", 0, 0), F0)


def _bundle_failures(cf):
    from hopfcalc.qpb import check_canonical_connection, check_vertical_map, vertical_map

    vd = vertical_map(cf)
    return failures(check_vertical_map(vd)), failures(check_canonical_connection(vd))


def test_a_corrupted_form_coaction_fails_both_bundle_colinearities(radford_calc):
    cf = radford_calc.cf
    corrupt(cf.right_coaction, (VER_F,), tensor_index(VER_F, G1))
    assert _bundle_failures(cf) == (
        {"vertical.right-colinear": "ver(h1(0,0),w1(0,g(0)))"},
        {"connection.right-colinear": "((h1(0,0) (x) g(0)) (x) coh(0))"},
    )


def test_a_corrupted_form_action_fails_both_bundle_left_linearities(radford_calc):
    cf = radford_calc.cf
    corrupt(cf.left_act, (_pair(0, 1), VER_F), VER_F)
    assert _bundle_failures(cf) == (
        {"vertical.left-linear": "(h1(0,0) (x) g(1)) ; ver(h1(0,0),w1(0,g(0)))"},
        {"connection.left-linear": "(h1(0,0) (x) g(1)) ; ((h1(0,0) (x) g(0)) (x) coh(0))"},
    )


def test_a_corrupted_coaction_fails_the_section_laws():
    cleft = _radford_cleft()
    corrupt(cleft.total.coaction, (_pair(1, 1),), tensor_index(_pair(0, 1), G1))
    assert failures(equivariant_section(cleft)[1]) == {
        "section.splits-multiplication": "(h1(0,1) (x) g(1))",
        "section.left-base-linear": "h1(0,1) ; (h1(0,0) (x) g(1))",
        "section.right-colinear": "(h1(0,1) (x) g(1))",
    }


def test_a_coaction_leaving_the_base_fails_the_section_laws():
    cleft = _radford_cleft()
    corrupt(cleft.total.coaction, (_pair(1, 0),), tensor_index(_pair(1, 0), G1))
    assert failures(equivariant_section(cleft)[1]) == {
        "section.splits-multiplication": "(h1(0,1) (x) g(0))",
        "section.left-base-linear": "h1(0,0) ; (h1(0,1) (x) g(0))",
        "section.right-colinear": "(h1(0,1) (x) g(0))",
    }


# sigma_e reads the form action b_action.act; the right Leibniz law is the
# uniqueness identity with its terms rearranged, so it fails with it, and
# the two sigma laws read the same corrupted value
def test_a_corrupted_form_action_fails_sigma_unique(radford_calc):
    from hopfcalc.qpb import VComodule, covariant_derivative, vertical_map

    cf = radford_calc.cf
    om = ("om", 0, 0)
    corrupt(cf.b_action.act, (G0, om), om)
    v = VComodule(labels=[("v", 0), ("v", 1)], coaction=lambda vx: E(tensor_index(vx, G1 if vx[1] == 0 else G0)))
    assert failures(covariant_derivative(vertical_map(cf), v).report) == {
        "derivative.right-leibniz": "ebas(0) ; h1(0,1)",
        "derivative.sigma-bimodule": "h1(0,1) ; ebas(0) ; om(0,0)",
        "derivative.sigma-balanced": "ebas(0) ; h1(0,1) ; om(0,0)",
        "derivative.sigma-unique": "ebas(0) ; h1(0,1)",
    }


# the balanced tensor products built by `linalg.balanced_tensor`: a product
# of the crossed product moves the relations of A (x)_B A, so the Galois map
# no longer kills them and its rank falls
def test_a_corrupted_crossed_product_fails_both_galois_checks():
    from hopfcalc.crossed import check_hopf_galois

    comodule = radford_instance().crossed.comodule
    corrupt(comodule.algebra.mult, (_pair(0, 1), _pair(1, 0)), _pair(1, 1))
    assert failures(check_hopf_galois(comodule).report) == {
        "hopf-galois.well-defined": "(1)*((h1(0,0) (x) g(1)) (x) (h1(0,1) (x) g(0)))",
        "hopf-galois.bijective": "rank 12, balanced dim 12, target dim 16",
    }


# a right action on Omega^1(B) that stays among the forms only adds relations
# to Omega^1(B) (x)_B E, and every derivative law holds in the coarser
# quotient; one that leaves them (om(2,0) is no form of the r = 2 base)
# breaks the right half of sigma-bimodule, sigma(e (x) f.b) = sigma(e (x) f).b
def test_a_right_form_action_leaving_the_forms_fails_sigma_bimodule(radford_calc):
    from hopfcalc.qpb import VComodule, covariant_derivative, vertical_map

    cf = radford_calc.cf
    corrupt(cf.b_calc.right_act, (("om", 0, 1), ("h1", 1, 0)), ("om", 2, 0))
    v = VComodule(labels=[("v", 0), ("v", 1)], coaction=lambda vx: E(tensor_index(vx, G1 if vx[1] == 0 else G0)))
    assert failures(covariant_derivative(vertical_map(cf), v).report) == {
        "derivative.sigma-bimodule": "h1(1,0) ; ebas(0) ; om(0,1)",
    }
