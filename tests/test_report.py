from hopfcalc import report
from hopfcalc.linalg import FreeVector, format_index
from hopfcalc.report import FAIL, PASS, CheckReport
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
