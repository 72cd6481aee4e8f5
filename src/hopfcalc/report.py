"""Check reports: per-identity pass/fail entries with optional witnesses."""

from __future__ import annotations

import json

from hopfcalc.linalg import FreeVector, NoSolution, first_unequal, format_index, record

PASS = "pass"
FAIL = "fail"
WINDOWED = "window-verified"
SAMPLED = "sampled"

_STATUSES = {PASS, FAIL, WINDOWED, SAMPLED}


def witness(*parts) -> str:
    """Witness text: vectors as linear combinations, anything else as an
    index, separated by ``" ; "``."""
    return " ; ".join(
        p.to_text() if isinstance(p, FreeVector) else format_index(p) for p in parts
    )


@record
class Check:
    identity: str
    status: str
    witness: str | None = None

    def as_dict(self):
        return {"identity": self.identity, "status": self.status, "witness": self.witness}


@record
class CheckReport:
    """Checks of one suite.  A windowed suite checks an infinite basis on a
    window only, so each identity it passes is window-verified, not proved."""

    windowed: bool = False

    def __post_init__(self):
        self.checks: list[Check] = []

    def add(self, identity: str, status: str, witness: str | None = None) -> Check:
        if status not in _STATUSES:
            raise ValueError(f"unknown status {status!r}")
        check = Check(identity, status, witness)
        self.checks.append(check)
        return check

    def record(self, identity: str, ok: bool, witness: str | None = None):
        """Fail, or pass with the report's verdict: window-verified when windowed."""
        if not ok:
            return self.add(identity, FAIL, witness)
        return self.add(identity, WINDOWED if self.windowed else PASS, witness)

    def sweep(self, identity: str, items, *tests):
        """Run the tests over items, each returning (ok, witness parts); an
        item holds when every test holds there, taken in order, and the
        parts of the first failure are formatted into the witness.  A test
        that raises NoSolution, a value it solves for being outside the
        span it is solved in, fails at its item, with the item as witness,
        or its parts when it holds several indices: a tuple whose first
        entry is a tuple, since an index starts with its string tag."""
        for item in items:
            for test in tests:
                try:
                    ok, parts = test(item)
                except NoSolution:
                    ok, parts = False, item if isinstance(item, tuple) and isinstance(item[0], tuple) else (item,)
                if not ok:
                    return self.add(identity, FAIL, witness(*parts))
        return self.record(identity, True)

    def sweep_rows(self, identity: str, rows, zs, *laws):
        """`sweep` of the laws over each (*row, z), as `linalg.first_unequal` runs them."""
        hit = first_unequal(rows, zs, *laws)
        return self.record(identity, hit is None, hit and witness(*hit))

    def extend(self, other: "CheckReport", prefix: str = ""):
        """Append other's checks, each renamed with prefix; an unprefixed
        check is shared, since no check changes after `add`."""
        if not prefix:
            self.checks.extend(other.checks)
            return
        for check in other.checks:
            self.checks.append(Check(prefix + check.identity, check.status, check.witness))

    @property
    def failed(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    @property
    def ok(self) -> bool:
        return not self.failed

    def require(self, refusal: str):
        """Raise ValueError naming the first failed check after refusal."""
        failed = self.failed
        if failed:
            raise ValueError(f"{refusal} {failed[0].identity} at {failed[0].witness}")

    def as_dict(self):
        """The report's JSON body; the CLI adds the example and suite names."""
        return {"checks": [c.as_dict() for c in self.checks]}


def render_json(payload: dict) -> str:
    """Canonical JSON: sorted keys, tight separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
