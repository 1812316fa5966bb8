"""Sparse exact matrices over the rationals.

``ExactMatrix`` stores its non-zero entries as Fractions keyed by
(row, col), with no tolerances anywhere.  It is what the public
``action_matrix_*`` functions return and what the CLI ``act`` command
prints; composition elements with free output blocks are the only
actions whose matrices are not partial permutations.  This is the only
module with Fraction arithmetic, and none of the duality checks runs
through it: commutants are union-find classes of matrix coordinates
(``tensor_actions.targets_commutant``), and spans are counted on the
orbit bases of the two actions, whose matrices have pairwise disjoint
0/1 supports and of which every plain matrix is a unitriangular 0/1
sum (the groupoid basis of the rook monoid, after L. Solomon,
"Representations of the rook monoid", J. Algebra 256, 2002, and
B. Steinberg, "Moebius functions and semigroup representation theory",
J. Combin. Theory Ser. A 113, 2006; the hat action on the diagram
side).  ``DualityCell.span`` certifies that decomposition with three
exact checks: disjoint orbit supports, every plain entry in the orbit of
an element the natural order allows, and every orbit a plain matrix
meets covered in full, its own non-zero orbit among them.  The deformation
maps of ``morphisms`` have integer coefficients."""

from fractions import Fraction


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

    def _check_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"
