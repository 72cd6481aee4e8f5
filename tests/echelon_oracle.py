"""`_Echelon.reduce` and `_Echelon.insert` as they were written before the
row operations subtracted in place: every step is `v - row.scale(c)` on
vectors, each a new vector.

The vectors are `linear_oracle.OracleVector`s, copies of the `FreeVector`
operators of that time, so that the kernel is compared against code it does
not share.  A vector passed in is wrapped without copying its terms.
"""

from linear_oracle import OracleVector

from hopfcalc.scalars import CycScalar


def wrap(v):
    return None if v is None else OracleVector(v.terms)


class ReferenceEchelon:
    def __init__(self):
        self.rows = {}  # pivot index -> monic row
        self.tracks = {}  # pivot index -> track of that row

    def reduce(self, v, track=None):
        """(v minus its components along the rows, track reduced alike)."""
        v, track = wrap(v), wrap(track)
        while True:
            hit = None
            for ix in v.terms:
                if ix in self.rows:
                    hit = ix
                    break
            if hit is None:
                return v, track
            c = v.terms[hit]
            v = v - self.rows[hit].scale(c)
            if track is not None:
                track = track - self.tracks[hit].scale(c)

    def insert(self, v, track=None) -> bool:
        """Grow the rows by v; False if v was dependent."""
        v, track = self.reduce(v, track)
        if v.is_zero():
            return False
        pivot = v.leading_index()
        inv = v.terms[pivot].inverse()
        row = v.scale(inv)
        if track is not None:
            track = track.scale(inv)
        # keep reduced form: eliminate the new pivot from existing rows
        for p in list(self.rows):
            c = self.rows[p].terms.get(pivot)
            if c is not None:
                self.rows[p] = self.rows[p] - row.scale(c)
                if track is not None:
                    self.tracks[p] = self.tracks[p] - track.scale(c)
        self.rows[pivot] = row
        if track is not None:
            self.tracks[pivot] = track
        return True


def reference_tracked_span(pairs):
    """(echelon, kernel) that `TrackedSpan(pairs)` built on the reference:
    each vector reduced with its label's basis track, kept as a kernel
    element when it reduces to zero and inserted otherwise."""
    ech, kernel = ReferenceEchelon(), []
    for label, v in pairs:
        residual, track = ech.reduce(v, OracleVector({label: CycScalar.one()}))
        if residual.is_zero():
            kernel.append(track)
        else:
            ech.insert(residual, track)
    return ech, kernel

