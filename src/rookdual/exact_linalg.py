"""Sparse exact linear algebra over the rationals.

Two primitives on sparse rational vectors: rank and membership in a
row space, which is what the spans of the duality checks need.  Vectors
are dicts mapping coordinate -> Fraction with no explicit zeros;
matrices store their entries the same way keyed by (row, col).  No
tolerances anywhere.  This is the only module with Fraction arithmetic:
commutants need no elimination (see ``tensor_actions.targets_commutant``),
and the deformation maps of ``morphisms`` have integer coefficients."""

from fractions import Fraction
from typing import Iterable


class ExactMatrix:
    """Immutable sparse matrix with Fraction entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict):
        clean = {}
        for (r, c), v in entries.items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            v = Fraction(v)
            if v:
                clean[(r, c)] = v
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def identity(cls, d: int):
        return cls(d, d, {(i, i): 1 for i in range(d)})

    @classmethod
    def zero(cls, rows: int, cols: int):
        return cls(rows, cols, {})

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __add__(self, other):
        self._check_shape(other)
        out = dict(self.entries)
        for key, v in other.entries.items():
            out[key] = out.get(key, 0) + v
        return ExactMatrix(self.rows, self.cols, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return ExactMatrix(
            self.rows, self.cols, {key: c * v for key, v in self.entries.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        by_row = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        out = {}
        for (r, m), a in self.entries.items():
            for c, b in by_row.get(m, ()):
                key = (r, c)
                out[key] = out.get(key, 0) + a * b
        return ExactMatrix(self.rows, other.cols, out)

    def transpose(self):
        return ExactMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def vectorize(self) -> dict:
        """Flatten to a sparse vector, coordinate = row*cols + col."""
        return {r * self.cols + c: v for (r, c), v in self.entries.items()}

    def row_dicts(self):
        rows = {}
        for (r, c), v in self.entries.items():
            rows.setdefault(r, {})[c] = v
        return [rows.get(r, {}) for r in range(self.rows)]

    def _check_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


class RowSpace:
    """Incrementally built row-echelon basis of sparse rational vectors.

    Pivot rows are normalized to a leading 1 at their pivot coordinate;
    reduction always eliminates the smallest remaining coordinate, so
    reduce() terminates and membership tests are exact."""

    def __init__(self):
        self.pivot_rows: dict[int, dict] = {}

    @property
    def dimension(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, vector: dict) -> dict:
        v = {c: Fraction(x) for c, x in vector.items() if x}
        while v:
            c = min(v)
            pivot = self.pivot_rows.get(c)
            if pivot is None:
                return v
            coef = v.pop(c)
            for cc, pv in pivot.items():
                if cc == c:
                    continue
                nv = v.get(cc, 0) - coef * pv
                if nv:
                    v[cc] = nv
                else:
                    v.pop(cc, None)
        return v

    def add(self, vector: dict) -> bool:
        """Reduce and absorb; True iff the vector enlarged the space."""
        v = self.reduce(vector)
        if not v:
            return False
        c = min(v)
        lead = v[c]
        self.pivot_rows[c] = {cc: vv / lead for cc, vv in v.items()}
        return True

    def contains(self, vector: dict) -> bool:
        return not self.reduce(vector)


def rank(m: ExactMatrix) -> int:
    space = RowSpace()
    for row in m.row_dicts():
        space.add(row)
    return space.dimension


def span_dimension(matrices: Iterable[ExactMatrix]) -> int:
    """Dimension of the span of the given matrices inside End(space)."""
    space = RowSpace()
    for m in matrices:
        space.add(m.vectorize())
    return space.dimension


def in_span(target: ExactMatrix, basis: Iterable[ExactMatrix]) -> bool:
    space = RowSpace()
    for m in basis:
        space.add(m.vectorize())
    return space.contains(target.vectorize())

