"""Type-A matrix realization: PGL(n+1) generators, Weyl representatives,
Gauss decomposition and the Cartan involution.

Matrices are exact ((n+1) x (n+1), entries in Q, F_p or jets) and compared
projectively: g == lambda * h for a nonzero scalar.  The torus generator
H^i(x) is realized as diag(x,...,x,1,...,1) with i leading x's -- the
determinant-one normalization differs from it by a central scalar only, and
this lift keeps every entry a Laurent polynomial in the inputs.  With that
lift, H^j commutes with E^i and F^i for j != i, which is what makes the
letter-by-letter evaluation of amalgamated words well defined.

Right multiplication by a generator is an elementary column operation: E^i
adds column i-1 to column i, F^i adds column i to column i-1 (their inverses
subtract), H^i(x) scales the first i columns by x, and the reflection
representative moves columns (i-1, i) to (i, -(i-1)).  The evaluations are
products of these factors, the one-parameter-subgroup and torus
factorization of double Bruhat cells (Fomin-Zelevinsky, "Double Bruhat
cells and total positivity", arXiv:math/9802056), so ``right_multiply``
builds them column by column, inverts them factor by factor, and
``left_multiply`` applies them as row operations; the dense product stays
for products of two general matrices.

When every entry is an ``Fp`` of one prime p, the matrix functions compute
on the residue form: rows of plain ints reduced mod p, with p passed
alongside.  Each operation (column and row moves, identity and root
elements, dense product, elimination, substitution inverse) is one kernel
that takes the modulus, and ``p=None`` runs it on ``Fraction``, ``Fp`` or
jet entries; both forms of a composite call the kernels directly.  A public
function enters the residue form once and lifts its result back to ``Fp``
entries once; ``projective_eq`` and the dense product pick their form the
same way.  In both forms the lower Gauss factor and its inverse come from
one elimination, each pivot inverted once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import arith
from .arith import Jet, _one_like, _reciprocal, _zero_like, jet_const
from .cartan import CartanData, WeylElement
from .errors import InvalidParameter, NotInBigCell, SingularPoint, UnsupportedForType


class GroupMatrix:
    """Immutable exact matrix with projective equality helpers."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = tuple(tuple(r) for r in rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def __repr__(self):
        return "GroupMatrix(" + "; ".join(
            " ".join(str(x) for x in row) for row in self.rows) + ")"

    def __mul__(self, other: "GroupMatrix") -> "GroupMatrix":
        """The dense product; on residues when every entry of both factors
        is an Fp mod one p."""
        a, b = self.rows, other.rows
        p = arith._fp_prime(x for m in (a, b) for row in m for x in row)
        if p is not None:
            a, b = ([[x.value for x in row] for row in m] for m in (a, b))
        return _matrix(_product(a, b, p), p)

    def __eq__(self, other):
        return isinstance(other, GroupMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def transpose(self) -> "GroupMatrix":
        return GroupMatrix(list(zip(*self.rows)))

    def scale(self, c) -> "GroupMatrix":
        return GroupMatrix([[c * x for x in row] for row in self.rows])

    def inverse(self) -> "GroupMatrix":
        """Exact Gauss-Jordan inverse; SingularPoint when not invertible.

        A pivot needs an invertible value (the entry's own ``bool``), but
        every entry that is not exactly zero is eliminated: a jet with value
        0 and nonzero partials still carries derivatives.  ``det`` and
        ``gauss`` follow the same rule."""
        n = self.n
        one = _one_like(self.rows[0][0])
        zero = _zero_like(self.rows[0][0])
        aug = [list(row) + [one if i == j else zero for j in range(n)]
               for i, row in enumerate(self.rows)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col]), None)
            if pivot is None:
                raise SingularPoint("matrix not invertible")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = _reciprocal(aug[col][col], None)
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return GroupMatrix([row[n:] for row in aug])

    def det(self):
        n = self.n
        mat = [list(row) for row in self.rows]
        det = _one_like(self.rows[0][0])
        for col in range(n):
            pivot = next((r for r in range(col, n) if mat[r][col]), None)
            if pivot is None:
                return _zero_like(self.rows[0][0])
            if pivot != col:
                mat[col], mat[pivot] = mat[pivot], mat[col]
                det = -det
            det = det * mat[col][col]
            inv = _reciprocal(mat[col][col], None)
            for r in range(col + 1, n):
                if mat[r][col] != 0:
                    f = mat[r][col] * inv
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
        return det


# ---------------------------------------------------------------------------
# The residue form, and the kernels that run both forms
# ---------------------------------------------------------------------------

def _residue_form(g: GroupMatrix) -> tuple[Optional[int], list[list]]:
    """p and the rows of g as residues mod p when every entry is an Fp mod
    p, else None and its rows; the rows are new mutable lists."""
    p = arith._fp_prime(x for row in g.rows for x in row)
    if p is None:
        return None, [list(row) for row in g.rows]
    return p, [[x.value for x in row] for row in g.rows]


def _matrix(rows: Sequence[Sequence], p: Optional[int]) -> GroupMatrix:
    """Rows as a GroupMatrix, residues lifted to Fp entries mod p."""
    if p is None:
        return GroupMatrix(rows)
    fp = arith._fp_of_residue
    return GroupMatrix([[fp(x, p) for x in row] for row in rows])


def _neg(x, p: Optional[int]):
    return -x if p is None else -x % p


def _transpose(rows: Sequence[Sequence]) -> list[list]:
    return [list(col) for col in zip(*rows)]


def _identity_rows(n: int, like, p: Optional[int]) -> list[list]:
    """The identity over the field of ``like``, or over residues mod p."""
    one, zero = (_one_like(like), _zero_like(like)) if p is None else (1, 0)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _product(a: Sequence[Sequence], b: Sequence[Sequence], p: Optional[int]) -> list[list]:
    """The dense product a * b; off F_p each entry's sum starts at the zero
    of its row's first entry."""
    cols = list(zip(*b))
    if p is not None:
        return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]
    return [[sum((x * y for x, y in zip(row, col)), start=_zero_like(row[0])) for col in cols]
            for row in a]


def _lower_inverse(rows: Sequence[Sequence], reciprocals: Sequence,
                   p: Optional[int]) -> list[list]:
    """Inverse of the lower triangular ``rows`` by forward substitution,
    given the reciprocals of its diagonal; only the lower triangle is read."""
    n = len(rows)
    zero = _zero_like(rows[0][0]) if p is None else 0
    out: list[list] = []
    for i, (row, d) in enumerate(zip(rows, reciprocals)):
        if p is None:
            below = [-sum((row[k] * out[k][j] for k in range(j, i)), start=zero) * d
                     for j in range(i)]
        else:
            below = [-sum(row[k] * out[k][j] for k in range(j, i)) * d % p for j in range(i)]
        out.append(below + [d] + [zero] * (n - 1 - i))
    return out


def lower_inverse(m: GroupMatrix) -> GroupMatrix:
    """Inverse of a lower triangular matrix by forward substitution, one
    scalar inversion per row; SingularPoint on a zero diagonal entry.  Only
    the lower triangle of m is read."""
    p, rows = _residue_form(m)
    diagonal = [row[i] for i, row in enumerate(rows)]
    if not all(diagonal):
        raise SingularPoint("matrix not invertible")
    return _matrix(_lower_inverse(rows, [_reciprocal(x, p) for x in diagonal], p), p)


def identity(n: int, like=Fraction(1)) -> GroupMatrix:
    return GroupMatrix(_identity_rows(n, like, None))


def projective_eq(g: GroupMatrix, h: GroupMatrix) -> bool:
    """g == lambda h for some nonzero scalar lambda."""
    if g.n != h.n:
        return False
    a = [x for row in g.rows for x in row]
    b = [y for row in h.rows for y in row]
    p = arith._fp_prime(a + b)
    if p is not None:
        a, b = [x.value for x in a], [y.value for y in b]
    lam = None
    for x, y in zip(a, b):
        xz, yz = bool(x), bool(y)
        if xz != yz:
            return False
        if xz and lam is None:
            lam = x * _reciprocal(y, p)
            lam = lam if p is None else lam % p
    if lam is None:
        return True
    for x, y in zip(a, b):
        if x != (lam * y if p is None else lam * y % p):
            return False
    return True


def _require_range(i: int, rank: int):
    if not 1 <= i <= rank:
        raise InvalidParameter(f"generator index {i} outside [1,{rank}]")


def _require_torus_parameter(x):
    if not x:
        raise InvalidParameter("torus parameter must be nonzero")


def _x_neg_rows(rank: int, i: int, t, p: Optional[int]) -> list[list]:
    """The rows of x_neg(i, t): the identity with t at (i, i-1).  Its
    transpose is x_pos(i, t)."""
    _require_range(i, rank)
    rows = _identity_rows(rank + 1, t, p)
    rows[i][i - 1] = t
    return rows


def e_gen(rank: int, i: int, like=Fraction(1)) -> GroupMatrix:
    return GroupMatrix(_transpose(_x_neg_rows(rank, i, _one_like(like), None)))


def f_gen(rank: int, i: int, like=Fraction(1)) -> GroupMatrix:
    return GroupMatrix(_x_neg_rows(rank, i, _one_like(like), None))


def h_gen(rank: int, i: int, x) -> GroupMatrix:
    """PGL lift of the one-parameter torus of the i-th coweight basis element:
    diag(x,...,x,1,...,1) with i leading x's."""
    _require_range(i, rank)
    _require_torus_parameter(x)
    rows = _identity_rows(rank + 1, x, None)
    for r in range(i):
        rows[r][r] = x
    return GroupMatrix(rows)


def x_pos(rank: int, i: int, t) -> GroupMatrix:
    return GroupMatrix(_transpose(_x_neg_rows(rank, i, t, None)))


def x_neg(rank: int, i: int, t) -> GroupMatrix:
    return GroupMatrix(_x_neg_rows(rank, i, t, None))


def s_hat(rank: int, i: int, like=Fraction(1)) -> GroupMatrix:
    """Representative of the simple reflection: 2x2 block [[0,-1],[1,0]]."""
    _require_range(i, rank)
    one = _one_like(like)
    m = _identity_rows(rank + 1, like, None)
    m[i - 1][i - 1] = _zero_like(like)
    m[i][i] = _zero_like(like)
    m[i - 1][i] = -one
    m[i][i - 1] = one
    return GroupMatrix(m)


def generator(kind: str, rank: int, i: int, x=None) -> GroupMatrix:
    table = {"E": e_gen, "F": f_gen, "s_hat": s_hat}
    if kind in table:
        return table[kind](rank, i)
    if kind == "H":
        return h_gen(rank, i, x)
    if kind == "x_pos":
        return x_pos(rank, i, x)
    if kind == "x_neg":
        return x_neg(rank, i, x)
    raise InvalidParameter(f"unknown generator kind {kind!r}")


def _lift_jet_rows(rows: list[list]) -> None:
    """Make every entry of a row that holds a jet a jet, in place.

    An entry of a dense product sums over its whole row of the left factor,
    and a jet times zero is a jet, so the dense product of a row holding a
    jet is all jets; column operations touch only some entries and lift the
    rest here."""
    for row in rows:
        jets = [x for x in row if type(x) is Jet]
        if jets and len(jets) < len(row):
            dim = len(jets[0]._d)
            row[:] = [x if type(x) is Jet else jet_const(x, dim) for x in row]


def right_multiply(rows: list[list], kind: str, i: int, x=None,
                   p: Optional[int] = None) -> None:
    """Multiply the matrix ``rows`` (a list of mutable rows) on the right by
    one generator, in place, by a column operation:

    - "E", by E^i: add column i-1 to column i;
    - "F", by F^i: add column i to column i-1;
    - "E_inv", by (E^i)^{-1}: subtract column i-1 from column i;
    - "F_inv", by (F^i)^{-1}: subtract column i from column i-1;
    - "H", by H^i(x): scale the first i columns by x;
    - "s", by s_hat(i): map columns (i-1, i) to (i, -(i-1)).

    Every entry equals the dense product's in value and type.  With a
    modulus p, rows and x are residues mod p, and the written columns are
    reduced."""
    _require_range(i, len(rows) - 1)
    if kind == "H":
        _require_torus_parameter(x)
    if p is None:
        _lift_jet_rows(rows)
    if kind == "E":
        for row in rows:
            row[i] = row[i - 1] + row[i]
    elif kind == "F":
        for row in rows:
            row[i - 1] = row[i - 1] + row[i]
    elif kind == "E_inv":
        for row in rows:
            row[i] = row[i] - row[i - 1]
    elif kind == "F_inv":
        for row in rows:
            row[i - 1] = row[i - 1] - row[i]
    elif kind == "H":
        for row in rows:
            for c in range(i):
                row[c] = row[c] * x
    elif kind == "s":
        for row in rows:
            row[i - 1], row[i] = row[i], -row[i - 1]
    else:
        raise InvalidParameter(f"unknown generator kind {kind!r}")
    if p is not None:
        written = range(i) if kind == "H" else (i - 1,) if kind[0] == "F" else (i,)
        for row in rows:
            for c in written:
                row[c] %= p


# the transposed generators: E^T = F and H^T = H
_TRANSPOSED = {"E": "F", "F": "E", "E_inv": "F_inv", "F_inv": "E_inv", "H": "H"}


def left_multiply(rows: list[list], moves: Sequence[tuple],
                  p: Optional[int] = None) -> list[list]:
    """The product of the generator moves (kind, i, x), in order, times the
    matrix ``rows``, as row operations: the transpose is right-multiplied by
    the transposed generators in reverse order, then transposed back.  Any
    ``right_multiply`` kind but "s" is a move; entries are as in
    ``right_multiply``."""
    cols = [list(col) for col in zip(*rows)]
    for kind, i, x in reversed(moves):
        if kind not in _TRANSPOSED:
            raise InvalidParameter(f"no row move for generator kind {kind!r}")
        right_multiply(cols, _TRANSPOSED[kind], i, x, p)
    return [list(row) for row in zip(*cols)]


def require_type_a(cdata: CartanData) -> int:
    if cdata.type_label[0] != "A":
        raise UnsupportedForType(
            f"matrix layer supports type A only, not {cdata.type_label}")
    return cdata.rank


def _representative_rows(rank: int, letters: Sequence[int], like,
                         p: Optional[int]) -> list[list]:
    rows = _identity_rows(rank + 1, like, p)
    for i in letters:
        right_multiply(rows, "s", i, None, p)
    return rows


def word_representative(rank: int, letters: Sequence[int], like=Fraction(1)) -> GroupMatrix:
    return GroupMatrix(_representative_rows(rank, letters, like, None))


def weyl_representative(w: WeylElement, like=Fraction(1)) -> GroupMatrix:
    rank = require_type_a(w.cartan)
    return word_representative(rank, w.reduced_word(), like)


def _eliminate(g: Sequence[Sequence], p: Optional[int] = None
               ) -> tuple[list[list], list[list], list]:
    """Row elimination without row exchanges: the unitriangular lower
    factor, the reduced (upper triangular) rows and the inverted pivots;
    NotInBigCell(k) when the k-th leading principal minor vanishes."""
    mat = [list(row) for row in g]
    n = len(mat)
    lower = _identity_rows(n, mat[0][0], p)
    inverted = []
    for col in range(n):
        if not mat[col][col]:
            raise NotInBigCell(col)
        inv = _reciprocal(mat[col][col], p)
        inverted.append(inv)
        for r in range(col + 1, n):
            if mat[r][col] != 0:
                if p is None:
                    f = mat[r][col] * inv
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
                else:
                    f = mat[r][col] * inv % p
                    mat[r] = [(x - f * y) % p for x, y in zip(mat[r], mat[col])]
                lower[r][col] = f
    return lower, mat, inverted


def _gauss(rows: Sequence[Sequence], p: Optional[int]
           ) -> tuple[list[list], list[list], list[list]]:
    n = len(rows)
    zero = _zero_like(rows[0][0]) if p is None else 0
    lower, mat, inverted = _eliminate(rows, p)
    diag = [[mat[i][i] if i == j else zero for j in range(n)] for i in range(n)]
    upper = [[(mat[i][j] * inverted[i] if p is None else mat[i][j] * inverted[i] % p)
              if j >= i else zero for j in range(n)] for i in range(n)]
    return lower, diag, upper


def gauss(g: GroupMatrix) -> tuple[GroupMatrix, GroupMatrix, GroupMatrix]:
    """LDU factorization g = lower * diag * upper with unitriangular outer
    factors; NotInBigCell(k) when the k-th leading principal minor vanishes.
    No row exchanges: pivots are exactly the ratios of leading minors."""
    p, rows = _residue_form(g)
    return tuple(_matrix(factor, p) for factor in _gauss(rows, p))


def _scale_columns(rows: Sequence[Sequence], scales: Sequence,
                   p: Optional[int]) -> list[list]:
    """rows times diag(scales): column c scaled by scales[c]."""
    if p is not None:
        return [[x * s % p for x, s in zip(row, scales)] for row in rows]
    rows = [list(row) for row in rows]
    _lift_jet_rows(rows)
    return [[x * scales[c] for c, x in enumerate(row)] for row in rows]


def _leq0(rows: Sequence[Sequence], p: Optional[int]) -> list[list]:
    lower, mat, _ = _eliminate(rows, p)
    return _scale_columns(lower, [mat[c][c] for c in range(len(mat))], p)


def _leq0_and_inverse(rows: Sequence[Sequence], p: Optional[int]
                      ) -> tuple[list[list], list[list]]:
    """lower * diag of the Gauss decomposition and its inverse, the
    substitution inverse with the pivots the elimination inverted as the
    reciprocals of the diagonal: each pivot is inverted once."""
    lower, mat, inverted = _eliminate(rows, p)
    leq0 = _scale_columns(lower, [mat[c][c] for c in range(len(mat))], p)
    return leq0, _lower_inverse(leq0, inverted, p)


def gauss_leq0(g: GroupMatrix) -> GroupMatrix:
    """lower * diag of the Gauss decomposition; the upper factor is never built."""
    p, rows = _residue_form(g)
    return _matrix(_leq0(rows, p), p)


def _geq0(rows: Sequence[Sequence], p: Optional[int]) -> list[list]:
    # diag * upper, by scaling the rows of upper
    _, diag, upper = _gauss(rows, p)
    scales = [diag[c][c] for c in range(len(rows))]
    return _transpose(_scale_columns(_transpose(upper), scales, p))


def gauss_geq0(g: GroupMatrix) -> GroupMatrix:
    p, rows = _residue_form(g)
    return _matrix(_geq0(rows, p), p)


def _theta_rows(g_inv: Sequence[Sequence], p: Optional[int]) -> list[list]:
    n = len(g_inv)
    return [[g_inv[j][i] if (i + j) % 2 == 0 else _neg(g_inv[j][i], p)
             for j in range(n)] for i in range(n)]


def theta_from_inverse(g_inv: GroupMatrix) -> GroupMatrix:
    """theta(g) read off g^{-1}: its transpose, with the entries (i, j) of
    odd i + j negated."""
    p, rows = _residue_form(g_inv)
    return _matrix(_theta_rows(rows, p), p)


def theta(g: GroupMatrix) -> GroupMatrix:
    """Cartan involution: inverse-transpose twisted by diag(1,-1,1,...).

    Swaps E^i with F^i and inverts the torus, and is an involutive group
    automorphism."""
    return theta_from_inverse(g.inverse())


def _g0(rows: Sequence[Sequence], p: Optional[int]) -> list[list]:
    n = len(rows)
    _, _, upper = _gauss([row[::-1] for row in rows[::-1]], p)
    # the transpose of U^{-1}; U's unit diagonal holds its own reciprocals
    lower_inv = _lower_inverse(_transpose(upper), [upper[i][i] for i in range(n)], p)
    return [[lower_inv[n - 1 - j][n - 1 - i] for j in range(n)] for i in range(n)]


def gauss_g0(g: GroupMatrix) -> GroupMatrix:
    """The factor n_minus of g = n_plus * a * n_minus^{-1} (unipotent
    n_plus/n_minus, diagonal a).  With J the order-reversing permutation,
    JgJ = (J n_plus J)(J a J)(J n_minus^{-1} J) is the Gauss decomposition
    of g with its rows and columns reversed, so n_minus = J U^{-1} J for its
    upper factor U, inverted by substitution on the transpose; NotInBigCell
    where a trailing minor of g vanishes."""
    p, rows = _residue_form(g)
    return _matrix(_g0(rows, p), p)


def xi_and_ddminus(g: GroupMatrix, j: int) -> tuple[GroupMatrix, GroupMatrix]:
    """The N_- factor of g = n_+ a n_-^{-1} and the inverse of its simple-root
    slice: b_j = x_neg(j, -c) with c the (j+1, j) entry of n_-.

    Height-one subdiagonal entries add up under products of negative root
    elements, so c is the alpha_j-coordinate in any factorization order."""
    rank = g.n - 1
    _require_range(j, rank)
    n_minus = gauss_g0(g)
    c = n_minus[j][j - 1]
    return n_minus, x_neg(rank, j, -c)


def dckp_T(g: GroupMatrix, j: int) -> GroupMatrix:
    """The dressing-type Poisson automorphism on the big-cell factorization:
    conjugation by u = s_hat(j) * b_j, with u^{-1} = b_j^{-1} * s_hat(j)^T
    (b_j = x_neg(j, -c) with c the (j+1, j) entry of n_minus, see
    ``xi_and_ddminus``; the signed permutation s_hat(j) is orthogonal)."""
    rank = g.n - 1
    _require_range(j, rank)
    p, rows = _residue_form(g)
    c = _g0(rows, p)[j][j - 1]
    rep = _representative_rows(rank, (j,), g[0][0], p)
    u = _product(rep, _x_neg_rows(rank, j, _neg(c, p), p), p)
    u_inv = _product(_x_neg_rows(rank, j, c, p), _transpose(rep), p)
    return _matrix(_product(_product(u, rows, p), u_inv, p), p)
