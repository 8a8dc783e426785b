"""Matrices and semilinear maps over a FieldSpec; bilinear/quadratic/hermitian
forms; standard frames; isometry and Omega-membership tests; reflections; and
one Witt decomposition, `standard_basis`, which finds a frame's standard basis
for one alternating or quadratic FormSpec written in other coordinates.

All linear algebra goes through one Gauss-Jordan routine, `row_reduce`:
inverse, determinant, independent subsets, and Omega membership, which reads
the Dickson invariant (rank of 1 - g, characteristic 2) or the spinor norm
(discriminant of the Wall form on V(1 - g), odd characteristic) off it.

Vectors are row vectors acted on the right: v |-> (v^(phi^j)) * M.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import (
    DecompositionFailure,
    DimensionMismatch,
    FieldMismatch,
    NotAnIsometry,
    SingularVector,
)
from .gf import FieldSpec, find_irreducible_mu


class MatF:
    """A square matrix over a FieldSpec, stored as a tuple of row tuples."""

    __slots__ = ("owner", "n", "rows", "_hash")

    def __init__(self, owner: FieldSpec, rows):
        self.owner = owner
        self.rows = tuple(tuple(r) for r in rows)
        self.n = len(self.rows)
        if any(len(r) != self.n for r in self.rows):
            raise DimensionMismatch("matrix is not square")
        self._hash = None

    @classmethod
    def identity(cls, owner, n):
        return cls(owner, tuple(unit_vector(n, i) for i in range(n)))

    def __eq__(self, other):
        return (
            isinstance(other, MatF)
            and self.owner.key == other.owner.key
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.owner.key, self.rows))
        return self._hash

    def __repr__(self):
        return f"MatF({self.owner}, {self.rows})"

    def mul(self, other: "MatF") -> "MatF":
        if self.owner.key != other.owner.key:
            raise FieldMismatch("matrix product across different fields")
        F = self.owner
        bt = tuple(zip(*other.rows))
        mul, add = F.mul, F.add
        out = []
        for row in self.rows:
            new = []
            for col in bt:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc = add(acc, mul(a, b))
                new.append(acc)
            out.append(tuple(new))
        return MatF(F, out)

    def transpose(self) -> "MatF":
        return MatF(self.owner, tuple(zip(*self.rows)))

    def frob(self, j: int) -> "MatF":
        if j % self.owner.f == 0:
            return self
        return MatF(self.owner, tuple(vec_frob(self.owner, row, j) for row in self.rows))

    def inv(self) -> "MatF":
        n = self.n
        aug = [[*row, *unit_vector(n, i)] for i, row in enumerate(self.rows)]
        rows = row_reduce(self.owner, aug)[0]
        if any(c >= n for c in rows):
            raise DimensionMismatch("matrix is singular")
        return MatF(self.owner, tuple(tuple(rows[c][n:]) for c in range(n)))

    def det(self):
        return row_reduce(self.owner, self.rows)[2]


def row_reduce(F: FieldSpec, vectors):
    """Gauss-Jordan elimination of the row vectors, taken in order.

    Returns (rows, kept, det):
      rows -- the reduced rows keyed by pivot column; each is 1 at its own
              pivot and 0 at every other pivot column, and together they
              span what the vectors span;
      kept -- the indices of the vectors independent of the ones before them;
      det  -- the product of the pivots, negated once per inversion of the
              pivot columns in input order, or 0 if some vector was
              dependent: for n vectors of length n, their determinant.

    Reducing a vector by earlier ones leaves the determinant alone, and the
    reduced vectors, with columns in pivot order, are upper triangular.
    """
    mul, sub = F.mul, F.sub
    rows = {}
    kept = []
    det = 1
    for idx, v in enumerate(vectors):
        red = list(v)
        for c, row in rows.items():
            a = red[c]
            if a:
                red = [sub(x, mul(a, y)) if y else x for x, y in zip(red, row)]
        piv = next((c for c, x in enumerate(red) if x), None)
        if piv is None:
            det = 0
            continue
        a = red[piv]
        det = mul(det, a)
        if sum(1 for c in rows if c > piv) % 2:
            det = F.neg(det)
        if a != 1:
            s = F.inv(a)
            red = [mul(s, x) for x in red]
        for c, row in rows.items():
            b = row[piv]
            if b:
                rows[c] = [sub(x, mul(b, y)) if y else x for x, y in zip(row, red)]
        rows[piv] = red
        kept.append(idx)
    return rows, kept, det


def unit_vector(n: int, i: int):
    """The i-th standard basis vector of length n."""
    return tuple(1 if j == i else 0 for j in range(n))


def vec_frob(F: FieldSpec, v, j: int):
    if j % F.f == 0:
        return v
    return tuple(F.frobenius(x, j) for x in v)


def vec_mat(F: FieldSpec, v, M: MatF):
    mul, add = F.mul, F.add
    out = []
    for col in zip(*M.rows):
        acc = 0
        for a, b in zip(v, col):
            if a and b:
                acc = add(acc, mul(a, b))
        out.append(acc)
    return tuple(out)


def vec_add(F, u, v):
    return tuple(F.add(a, b) for a, b in zip(u, v))


def vec_scale(F, c, v):
    return tuple(F.mul(c, x) for x in v)


class GroupElem:
    """A semilinear transformation: Frobenius power applied first, then the matrix.

    Composition law: (A, i) * (B, j) = (A^(sigma^j) B, i + j mod f).
    """

    __slots__ = ("mat", "frob", "_hash")

    def __init__(self, mat: MatF, frob: int = 0):
        self.mat = mat
        self.frob = frob % mat.owner.f
        self._hash = None

    @property
    def owner(self):
        return self.mat.owner

    @property
    def n(self):
        return self.mat.n

    @classmethod
    def identity(cls, owner, n):
        return cls(MatF.identity(owner, n), 0)

    def is_identity(self):
        return self.frob == 0 and self.mat == MatF.identity(self.owner, self.n)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElem)
            and self.frob == other.frob
            and self.mat == other.mat
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.frob, self.mat))
        return self._hash

    def __repr__(self):
        return f"GroupElem(frob={self.frob}, mat={self.mat.rows})"

    def mul(self, other: "GroupElem") -> "GroupElem":
        return GroupElem(self.mat.frob(other.frob).mul(other.mat), self.frob + other.frob)

    def __mul__(self, other):
        return self.mul(other)

    def inv(self) -> "GroupElem":
        return GroupElem(self.mat.frob(-self.frob).inv(), -self.frob)

    def act(self, v):
        return vec_mat(self.owner, vec_frob(self.owner, v, self.frob), self.mat)

    def serialize(self):
        F = self.owner
        return {
            "frob": self.frob,
            "matrix": [[list(F.digits(x)) for x in row] for row in self.mat.rows],
        }

    @classmethod
    def deserialize(cls, owner: FieldSpec, doc) -> "GroupElem":
        """The element serialize wrote; a cell that is not f digits in
        range(p), or a frob outside range(f), raises ValueError."""
        p, f = owner.p, owner.f

        def entry(cell):
            if len(cell) != f or any(type(c) is not int or not 0 <= c < p for c in cell):
                raise ValueError(f"cell {cell!r} is not {f} digits in range({p})")
            return owner.from_digits(cell)

        frob = doc.get("frob", 0)
        if type(frob) is not int or not 0 <= frob < f:
            raise ValueError(f"frob {frob!r} is not in range({f})")
        return cls(MatF(owner, tuple(tuple(map(entry, row)) for row in doc["matrix"])), frob)


class FormSpec:
    """A bilinear, quadratic or hermitian form on F^n.

    kind: "alternating" | "symmetric" | "quadratic" | "hermitian".
    For quadratic forms, qdiag holds Q(basis_i) and gram the polarization.
    Hermitian forms live over GF(q^2) and conjugate the second argument.
    """

    __slots__ = ("kind", "gram", "qdiag", "sign")

    def __init__(self, kind, gram: MatF, qdiag=None, sign=None):
        self.kind = kind
        self.gram = gram
        self.qdiag = tuple(qdiag) if qdiag is not None else None
        self.sign = sign
        if kind == "quadratic" and self.qdiag is None:
            raise ValueError("quadratic form needs qdiag")

    @property
    def owner(self):
        return self.gram.owner

    @property
    def n(self):
        return self.gram.n

    def conj(self, x):
        # the order-2 field automorphism for hermitian forms
        return self.owner.frobenius(x, self.owner.f // 2)

    def bilinear(self, u, v):
        F = self.owner
        if len(u) != self.n or len(v) != self.n:
            raise DimensionMismatch("vector length does not match the form")
        if self.kind == "hermitian":
            v = tuple(self.conj(x) for x in v)
        acc = 0
        for i, a in enumerate(u):
            if not a:
                continue
            row = self.gram.rows[i]
            for j, b in enumerate(v):
                if b and row[j]:
                    acc = F.add(acc, F.mul(a, F.mul(row[j], b)))
        return acc

    def quadratic(self, v):
        if self.kind != "quadratic":
            raise ValueError("not a quadratic form")
        F = self.owner
        if len(v) != self.n:
            raise DimensionMismatch("vector length does not match the form")
        acc = 0
        for i, a in enumerate(v):
            if a:
                acc = F.add(acc, F.mul(self.qdiag[i], F.mul(a, a)))
                row = self.gram.rows[i]
                for j in range(i + 1, self.n):
                    b = v[j]
                    if b and row[j]:
                        acc = F.add(acc, F.mul(a, F.mul(row[j], b)))
        return acc


class SpaceFrame:
    """A space with a form given on a standard basis.

    Basis conventions (always the unit coordinate vectors, in order):
      symplectic / plus / hermitian even: e1, f1, ..., em, fm;
      hermitian odd:                      e1, f1, ..., el, fl, D;
      quadratic odd (q odd):              e1, f1, ..., em, fm, d;
      quadratic minus:                    e1, f1, ..., em, fm with
                                          Q(em) = 1, Q(fm) = mu.
    """

    __slots__ = ("field", "n", "form", "mu")

    def __init__(self, field, n, form, mu=None):
        self.field = field
        self.n = n
        self.form = form
        self.mu = mu

    def basis(self, i):
        return unit_vector(self.n, i)

    @classmethod
    def symplectic(cls, field: FieldSpec, m: int) -> "SpaceFrame":
        n = 2 * m
        rows = [[0] * n for _ in range(n)]
        for i in range(m):
            rows[2 * i][2 * i + 1] = 1
            rows[2 * i + 1][2 * i] = field.neg(1)
        return cls(field, n, FormSpec("alternating", MatF(field, rows)))

    @classmethod
    def hermitian(cls, field: FieldSpec, n: int) -> "SpaceFrame":
        """Unitary space of dimension n over GF(q^2); field must be GF(q^2)."""
        if field.f % 2:
            raise ValueError("hermitian frame needs a field GF(q^2)")
        m = n // 2
        rows = [[0] * n for _ in range(n)]
        for i in range(m):
            rows[2 * i][2 * i + 1] = 1
            rows[2 * i + 1][2 * i] = 1
        if n % 2:
            rows[n - 1][n - 1] = 1
        return cls(field, n, FormSpec("hermitian", MatF(field, rows)))

    @classmethod
    def quadratic(cls, field: FieldSpec, n: int, sign: str) -> "SpaceFrame":
        mu = None
        if sign == "odd":
            if field.p == 2:
                raise ValueError("odd-dimensional orthogonal frames need odd q")
            m = (n - 1) // 2
        else:
            m = n // 2
        rows = [[0] * n for _ in range(n)]
        qdiag = [0] * n
        for i in range(m):
            rows[2 * i][2 * i + 1] = 1
            rows[2 * i + 1][2 * i] = 1
        if sign == "odd":
            qdiag[n - 1] = 1
            rows[n - 1][n - 1] = field.add(1, 1)
        elif sign == "-":
            mu = find_irreducible_mu(field)
            qdiag[n - 2] = 1
            qdiag[n - 1] = mu
            rows[n - 2][n - 2] = field.add(1, 1)
            rows[n - 1][n - 1] = field.mul(field.add(1, 1), mu)
        elif sign != "+":
            raise ValueError(f"unknown sign {sign!r}")
        form = FormSpec("quadratic", MatF(field, rows), qdiag, sign)
        return cls(field, n, form, mu)


def is_isometry(g: GroupElem, form: FormSpec) -> bool:
    """True iff g preserves the form up to the Frobenius twist of g."""
    F = form.owner
    n = form.n
    if g.n != n:
        raise DimensionMismatch("element and form dimensions differ")
    j = g.frob
    basis = [unit_vector(n, i) for i in range(n)]
    images = [g.act(b) for b in basis]
    for i in range(n):
        for k in range(i, n):
            expect = F.frobenius(form.bilinear(basis[i], basis[k]), j)
            if form.bilinear(images[i], images[k]) != expect:
                return False
        if form.kind == "quadratic":
            if form.quadratic(images[i]) != F.frobenius(form.qdiag[i], j):
                return False
    return True


def reflection(frame: SpaceFrame, w) -> GroupElem:
    """The reflection r_w: v |-> v - (beta(v,w)/Q(w)) w, for Q(w) != 0."""
    form = frame.form
    F = frame.field
    qw = form.quadratic(w)
    if qw == 0:
        raise SingularVector("reflection in a singular vector")
    inv_qw = F.inv(qw)
    rows = []
    for i in range(frame.n):
        b = frame.basis(i)
        c = F.mul(form.bilinear(b, w), inv_qw)
        rows.append(tuple(F.sub(x, F.mul(c, y)) for x, y in zip(b, w)))
    return GroupElem(MatF(F, rows), 0)


def _one_minus(F: FieldSpec, mat: MatF):
    """The rows e_i (1 - g) of the matrix 1 - g."""
    return [
        tuple(F.sub(1 if i == j else 0, x) for j, x in enumerate(row))
        for i, row in enumerate(mat.rows)
    ]


def dickson_invariant(g, form: FormSpec) -> int:
    """rank(g - 1) mod 2, for isometries in characteristic 2."""
    mat = g.mat if isinstance(g, GroupElem) else g
    F = form.owner
    if F.p != 2:
        raise ValueError("Dickson invariant is a characteristic-2 notion")
    if not is_isometry(GroupElem(mat, 0), form):
        raise NotAnIsometry("Dickson invariant of a non-isometry")
    return len(row_reduce(F, _one_minus(F, mat))[1]) % 2


def is_square(F: FieldSpec, x) -> bool:
    if x == 0:
        return True
    if F.p == 2:
        return True
    return F.pow(x, (F.q - 1) // 2) == 1


def spinor_norm_class(g, frame: SpaceFrame) -> str:
    """'square' or 'nonsquare': the spinor norm of an isometry, odd characteristic.

    The spinor norm is the discriminant of the Wall form chi on W = V(1 - g),
    chi(x(1 - g), y(1 - g)) = beta(x, y(1 - g)) (Wall 1963; Taylor, The
    Geometry of the Classical Groups, ch. 11), so that a reflection r_w has
    spinor norm Q(w).  The kept rows r_j = e_j(1 - g) are a basis of W, and
    Gram[i][j] = beta(e_i, r_j) over them.
    """
    mat = g.mat if isinstance(g, GroupElem) else g
    F = frame.field
    if F.p == 2:
        raise ValueError("spinor norm is an odd-characteristic notion")
    form = frame.form
    if not is_isometry(GroupElem(mat, 0), form):
        raise NotAnIsometry("spinor norm of a non-isometry")
    delta = _one_minus(F, mat)
    kept = row_reduce(F, delta)[1]
    gram = [[form.bilinear(frame.basis(i), delta[j]) for j in kept] for i in kept]
    return "square" if is_square(F, row_reduce(F, gram)[2]) else "nonsquare"


def in_omega(g, frame: SpaceFrame) -> bool:
    """Membership in Omega(V, Q) for an isometry of the frame's quadratic form:
    Dickson invariant 0 in characteristic 2, else det 1 and square spinor norm."""
    mat = g.mat if isinstance(g, GroupElem) else g
    F = frame.field
    if F.p == 2:
        return dickson_invariant(mat, frame.form) == 0
    if mat.det() != 1:
        return False
    return spinor_norm_class(mat, frame) == "square"


# -- Witt decomposition (standard bases for blown-up and twisted forms) -----

def standard_basis(form: FormSpec, target_mu=None):
    """Split off hyperbolic pairs, then normalize the tail (the Witt
    decomposition; Taylor, The Geometry of the Classical Groups, 1992, ch. 7
    and 11) of an alternating or quadratic form.  Returns (P, sign), the
    rows of P a standard basis of the frame conventions of SpaceFrame.

    The sign is '+' or '-' for even n and 'odd' for odd n; a minus-type tail
    is normalized to Q(e_m) = 1, Q(f_m) = target_mu, and an odd tail d to
    Q(d) = 1.
    """
    field, n, bil = form.owner, form.n, form.bilinear
    quadratic = form.kind == "quadratic"

    def hyperbolic_partner(pool, v):
        w = next((u for u in pool if bil(v, u) != 0), None)
        if w is None:
            raise DecompositionFailure("degenerate form")
        w = vec_scale(field, field.inv(bil(v, w)), w)
        qw = form.quadratic(w) if quadratic else 0
        return vec_add(field, w, vec_scale(field, field.neg(qw), v))

    def reduce_off(pool, v, w):
        # u - bil(u,w) v - bil(u,v) bil(w,v)^-1 w, with bil(v,w) = 1 and
        # bil(w,v) = 1 (symmetric) or -1 (alternating)
        c = field.neg(field.inv(bil(w, v)))
        out = []
        for u in pool:
            u1 = vec_add(field, u, vec_scale(field, field.neg(bil(u, w)), v))
            u1 = vec_add(field, u1, vec_scale(field, field.mul(c, bil(u, v)), w))
            if any(u1):
                out.append(u1)
        return [out[i] for i in row_reduce(field, out)[1]]

    pool = [unit_vector(n, i) for i in range(n)]
    new_basis = []
    while len(pool) > 1:
        v = _find_singular(form, pool) if quadratic else pool[0]
        if v is None:
            if len(pool) > 2:
                raise DecompositionFailure("no singular vector in dimension > 2")
            new_basis.extend(_anisotropic_pair(form, pool, target_mu))
            return MatF(field, new_basis), "-"
        w = hyperbolic_partner(pool, v)
        new_basis.extend([v, w])
        pool = reduce_off(pool, v, w)
    if not pool:
        return MatF(field, new_basis), "+"
    s = form.quadratic(pool[0]) if quadratic else 0
    c = _sqrt_or_none(field, field.inv(s)) if s else None
    if c is None:
        raise DecompositionFailure("odd-dimensional tail is degenerate or needs rescaling")
    new_basis.append(vec_scale(field, c, pool[0]))
    return MatF(field, new_basis), "odd"


def _find_singular(form, pool):
    """A nonzero singular vector in the span of pool, or None when that span
    is an anisotropic line or plane.  The pool vectors come first, then the
    vectors a + c b of each pool plane; past those, a + y b + z c over the
    first three pool vectors finds one, since a quadratic form in three
    variables over a finite field has a nontrivial zero (Chevalley-Warning)
    and the zeros with no a-part lie in the anisotropic plane <b, c>."""
    field, Q = form.owner, form.quadratic
    for u in pool:
        if Q(u) == 0:
            return u
    for a, b in combinations(pool, 2):
        for c in field.elements():
            if c:
                v = vec_add(field, a, vec_scale(field, c, b))
                if Q(v) == 0:
                    return v
    if len(pool) < 3:
        return None
    a, b, c = pool[:3]
    for y, z in product(field.elements(), repeat=2):
        v = vec_add(field, a, vec_add(field, vec_scale(field, y, b), vec_scale(field, z, c)))
        if Q(v) == 0:
            return v
    return None


def _sqrt_or_none(field, x):
    return next((c for c in field.elements() if field.mul(c, c) == x), None)


def _anisotropic_pair(form, pool, target_mu):
    """(e, f) in the anisotropic plane spanned by pool with Q(e) = 1,
    beta(e, f) = 1 and Q(f) = target_mu."""
    field, Q = form.owner, form.quadratic
    u0, u1 = pool
    plane = [vec_add(field, vec_scale(field, a, u0), vec_scale(field, b, u1))
             for a, b in product(field.elements(), repeat=2)]
    for em in plane:
        if Q(em) == 1:
            for fm in plane:
                if form.bilinear(em, fm) == 1 and Q(fm) == target_mu:
                    return em, fm
    raise DecompositionFailure("cannot normalize anisotropic plane")
