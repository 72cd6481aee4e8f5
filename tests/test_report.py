from hopfcalc import report
from hopfcalc.linalg import FreeVector, NoSolution, format_index
from hopfcalc.report import FAIL, PASS, SAMPLED, WINDOWED, CheckReport
from hopfcalc.scalars import root_of_unity

E = FreeVector.basis


def joined(parts) -> str:
    """The witness format every check has always used."""
    return " ; ".join(p.to_text() if isinstance(p, FreeVector) else format_index(p) for p in parts)


def parts_of(k):
    return (("t", k), E(("e", k), root_of_unity(4, k)) + E(("@", ("a", 0), ("b", k))), k)


def counting_witness(monkeypatch):
    calls = []
    original = report.witness

    def counted(*parts):
        calls.append(parts)
        return original(*parts)

    monkeypatch.setattr(report, "witness", counted)
    return calls


def test_passing_sweep_formats_no_witness(monkeypatch):
    calls = counting_witness(monkeypatch)
    rep = CheckReport()
    check = rep.sweep("all-pass", range(6), lambda k: (True, parts_of(k)))
    assert calls == []
    assert (check.status, check.witness) == (PASS, None)


def test_failing_sweep_keeps_first_failure_witness(monkeypatch):
    calls = counting_witness(monkeypatch)
    rep = CheckReport()
    check = rep.sweep("fails", range(6), lambda k: (k not in (2, 4), parts_of(k)))
    assert len(calls) == 1
    assert check.status == FAIL
    assert check.witness == joined(parts_of(2))
    assert check.witness == "t(2) ; (1)*(a(0) (x) b(2)) + (-1)*e(2) ; 2"


def test_a_sweep_item_that_finds_no_solution_fails_with_the_item_as_witness():
    def test(k):
        if k == 3:
            raise NoSolution(E(("e", k)), "image of the map")
        return True, parts_of(k)

    rep = CheckReport()
    check = rep.sweep("solves", [("t", k) for k in range(6)], lambda ix: test(ix[1]))
    assert (check.status, check.witness) == (FAIL, "t(3)")
    # an item of several indices is its parts, as a failure its test returns
    pairs = rep.sweep("pairs", [(("t", k), ("@", ("a", 0), ("b", k))) for k in range(6)], lambda p: test(p[0][1]))
    assert (pairs.status, pairs.witness) == (FAIL, "t(3) ; (a(0) (x) b(3))")


def test_windowed_report_stamps_passing_checks_window_verified():
    rep = CheckReport(windowed=True)
    swept = rep.sweep("swept", range(6), lambda k: (True, parts_of(k)))
    recorded = rep.record("recorded", True, witness="dims agree")
    assert (swept.status, swept.witness) == (WINDOWED, None)
    assert (recorded.status, recorded.witness) == (WINDOWED, "dims agree")


def test_windowed_report_still_fails_with_the_first_witness():
    rep = CheckReport(windowed=True)
    swept = rep.sweep("swept", range(6), lambda k: (k not in (3, 5), parts_of(k)))
    recorded = rep.record("recorded", False, witness="rank 2 of 3")
    assert (swept.status, swept.witness) == (FAIL, joined(parts_of(3)))
    assert (recorded.status, recorded.witness) == (FAIL, "rank 2 of 3")
    assert rep.failed == [swept, recorded]


def test_add_keeps_the_status_it_is_given():
    rep = CheckReport(windowed=True)
    assert rep.add("exact-at-unit", PASS).status == PASS
    assert rep.add("sampled", SAMPLED, None).status == SAMPLED
    assert [c.status for c in rep.checks] == [PASS, SAMPLED]


def test_unwindowed_report_stamps_pass_and_writes_no_window_flag():
    rep = CheckReport()
    assert rep.sweep("swept", range(3), lambda k: (True, parts_of(k))).status == PASS
    assert rep.record("recorded", True).status == PASS
    windowed = CheckReport(windowed=True)
    windowed.record("recorded", True)
    assert set(rep.as_dict()) == set(windowed.as_dict()) == {"checks"}
