import random

import pytest

from factorlab.errors import DecompositionFailure, DimensionMismatch, SingularVector
from factorlab.gf import FieldSpec
from factorlab.linalg import (
    FormSpec,
    GroupElem,
    MatF,
    SpaceFrame,
    dickson_invariant,
    in_omega,
    is_isometry,
    is_square,
    reflection,
    spinor_norm_class,
    standard_basis,
    vec_mat,
)


def random_invertible(F, n, rng):
    while True:
        m = MatF(F, tuple(tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(n)))
        if m.det() != 0:
            return m


def random_elem(F, n, rng):
    return GroupElem(random_invertible(F, n, rng), rng.randrange(F.f))


def test_group_elem_composition_assoc_and_inverse():
    F = FieldSpec.get(4)
    rng = random.Random(0)
    for _ in range(25):
        a, b, c = (random_elem(F, 3, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * a.inv() == GroupElem.identity(F, 3)
        assert a.inv() * a == GroupElem.identity(F, 3)
        v = tuple(rng.randrange(F.q) for _ in range(3))
        assert (a * b).act(v) == b.act(a.act(v))


def test_matrix_inverse_and_det():
    F = FieldSpec.get(9)
    rng = random.Random(1)
    for _ in range(10):
        m = random_invertible(F, 4, rng)
        assert m.mul(m.inv()) == MatF.identity(F, 4)
        assert F.mul(m.det(), m.inv().det()) == 1
    r0, r1, _, r3 = random_invertible(F, 4, rng).rows
    singular = MatF(F, (r0, r1, tuple(F.add(a, b) for a, b in zip(r0, r1)), r3))
    assert singular.det() == 0
    with pytest.raises(DimensionMismatch):
        singular.inv()


def test_symplectic_frame_standard_identities():
    F = FieldSpec.get(3)
    fr = SpaceFrame.symplectic(F, 2)
    e1, f1, e2, f2 = (fr.basis(i) for i in range(4))
    b = fr.form.bilinear
    assert b(e1, f1) == 1 and b(f1, e1) == F.neg(1)
    assert b(e1, e2) == b(e1, f2) == b(f1, f2) == 0
    assert b(e1, e1) == 0


def test_hermitian_frame_and_norm_one_vector():
    F2 = FieldSpec.get(2)
    F4 = F2.extend(2)
    fr = SpaceFrame.hermitian(F4, 4)
    lam = next(x for x in F4.elements() if F4.trace_to(x, F2) == 1)
    e1, f1 = fr.basis(0), fr.basis(1)
    v = tuple(F4.add(F4.mul(lam, a), b) for a, b in zip(e1, f1))
    assert fr.form.bilinear(e1, f1) == 1
    assert fr.form.bilinear(v, v) == 1  # lam + lam^q = 1


def test_quadratic_frames():
    for q, n, sign in [(2, 6, "-"), (2, 8, "+"), (3, 7, "odd"), (4, 8, "-")]:
        F = FieldSpec.get(q)
        fr = SpaceFrame.quadratic(F, n, sign)
        Q = fr.form.quadratic
        assert Q(fr.basis(0)) == 0
        assert fr.form.bilinear(fr.basis(0), fr.basis(1)) == 1
        if sign == "-":
            assert Q(fr.basis(n - 2)) == 1 and Q(fr.basis(n - 1)) == fr.mu
        if sign == "odd":
            assert Q(fr.basis(n - 1)) == 1


def test_reflection_swaps_hyperbolic_pair_char2():
    F = FieldSpec.get(2)
    fr = SpaceFrame.quadratic(F, 8, "+")
    w = tuple(F.add(a, b) for a, b in zip(fr.basis(0), fr.basis(1)))
    r = reflection(fr, w)
    assert r.act(fr.basis(0)) == fr.basis(1)
    assert r.act(fr.basis(1)) == fr.basis(0)
    for i in range(2, 8):
        assert r.act(fr.basis(i)) == fr.basis(i)
    assert r * r == GroupElem.identity(F, 8)
    assert is_isometry(r, fr.form)
    assert dickson_invariant(r, fr.form) == 1


def test_reflection_fixed_vector_and_involution_odd_char():
    F = FieldSpec.get(3)
    fr = SpaceFrame.quadratic(F, 6, "-")
    rng = random.Random(2)
    for _ in range(20):
        w = tuple(rng.randrange(3) for _ in range(6))
        if fr.form.quadratic(w) == 0:
            continue
        r = reflection(fr, w)
        assert r * r == GroupElem.identity(F, 6)
        assert is_isometry(r, fr.form)
        # r_w(w) = -w since beta(w, w) = 2 Q(w)
        assert r.act(w) == tuple(F.neg(x) for x in w)


def test_reflection_rejects_singular_vector():
    F = FieldSpec.get(2)
    fr = SpaceFrame.quadratic(F, 4, "+")
    with pytest.raises(SingularVector):
        reflection(fr, fr.basis(0))


def test_is_isometry_negative():
    F = FieldSpec.get(4)
    fr = SpaceFrame.symplectic(F, 2)
    g = GroupElem(MatF(F, ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))), 0)
    assert not is_isometry(g, fr.form)


def test_dickson_product_rule():
    F = FieldSpec.get(2)
    fr = SpaceFrame.quadratic(F, 6, "-")
    rng = random.Random(3)
    refls = []
    for _ in range(200):
        w = tuple(rng.randrange(2) for _ in range(6))
        if any(w) and fr.form.quadratic(w) != 0:
            refls.append(reflection(fr, w))
        if len(refls) >= 12:
            break
    ident = GroupElem.identity(F, 6)
    assert dickson_invariant(ident, fr.form) == 0
    for _ in range(30):
        a, b = rng.choice(refls), rng.choice(refls)
        da = dickson_invariant(a, fr.form)
        db = dickson_invariant(b, fr.form)
        assert dickson_invariant(a * b, fr.form) == (da + db) % 2


def test_spinor_norm_basics_and_product_rule():
    F = FieldSpec.get(3)
    fr = SpaceFrame.quadratic(F, 3, "odd")
    ident = MatF.identity(F, 3)
    assert spinor_norm_class(ident, fr) == "square"
    d = fr.basis(2)
    w2 = (1, 1, 1)  # Q = beta(e1,f1) + Q(d) = 2, a nonsquare mod 3
    assert fr.form.quadratic(w2) == 2
    assert not is_square(F, 2)
    r1, r2 = reflection(fr, d), reflection(fr, w2)
    assert spinor_norm_class((r1 * r2).mat, fr) == "nonsquare"
    g = r1 * r2
    assert spinor_norm_class((g * g).mat, fr) == "square"
    rng = random.Random(4)
    words = []
    for _ in range(8):
        w = GroupElem.identity(F, 3)
        for _ in range(rng.randrange(1, 5)):
            v = tuple(rng.randrange(3) for _ in range(3))
            if any(v) and fr.form.quadratic(v) != 0:
                w = w * reflection(fr, v)
        words.append(w)
    for _ in range(20):
        a, b = rng.choice(words), rng.choice(words)
        sa = spinor_norm_class(a.mat, fr) == "square"
        sb = spinor_norm_class(b.mat, fr) == "square"
        assert (spinor_norm_class((a * b).mat, fr) == "square") == (sa == sb)


def test_in_omega_identity():
    F = FieldSpec.get(3)
    fr = SpaceFrame.quadratic(F, 6, "-")
    assert in_omega(GroupElem.identity(F, 6), fr)


@pytest.mark.parametrize("n,sign", [(4, "-"), (5, "odd")])
def test_minus_one_on_a_hyperbolic_plane_is_outside_omega(n, sign):
    # -1 on <e1, f1> is r_(e1+f1) r_(e1-f1), spinor norm Q(e1+f1) Q(e1-f1) = -1,
    # a nonsquare mod 3
    F = FieldSpec.get(3)
    fr = SpaceFrame.quadratic(F, n, sign)
    diag = [F.neg(1), F.neg(1)] + [1] * (n - 2)
    g = GroupElem(MatF(F, [[diag[i] if j == i else 0 for j in range(n)] for i in range(n)]))
    assert is_isometry(g, fr.form) and g.mat.det() == 1
    assert not in_omega(g, fr)


@pytest.mark.parametrize("q,n,sign", [
    (3, 4, "+"), (3, 4, "-"), (5, 5, "odd"), (9, 4, "+"), (25, 3, "odd"),
    (2, 6, "-"), (4, 4, "-"),
])
def test_in_omega_on_products_of_reflections(q, n, sign):
    # r_w1 ... r_wk lies in Omega iff k is even and, for odd q, the product
    # of the Q(w_i) is a square
    F = FieldSpec.get(q)
    fr = SpaceFrame.quadratic(F, n, sign)
    Q = fr.form.quadratic
    rng = random.Random(q * 100 + n)
    for _ in range(30):
        k = rng.randrange(7)
        g = GroupElem.identity(F, n)
        norm = 1
        for _ in range(k):
            w = (0,) * n
            while not Q(w):
                w = tuple(rng.randrange(q) for _ in range(n))
            g = g * reflection(fr, w)
            norm = F.mul(norm, Q(w))
        assert in_omega(g, fr) == (k % 2 == 0 and is_square(F, norm))


@pytest.mark.parametrize("q,m", [(2, 3), (3, 2), (4, 2)])
def test_symplectic_change_of_basis(q, m):
    F = FieldSpec.get(q)
    fr = SpaceFrame.symplectic(F, m)
    rng = random.Random(q * m)
    p = random_invertible(F, 2 * m, rng)
    scrambled = p.mul(fr.form.gram.mul(p.transpose()))
    cb, sign = standard_basis(FormSpec("alternating", scrambled))
    assert sign == "+"
    new_gram = cb.mul(scrambled.mul(cb.transpose()))
    assert new_gram == fr.form.gram


def test_degenerate_alternating_form_has_no_standard_basis():
    F = FieldSpec.get(3)
    gram = SpaceFrame.symplectic(F, 2).form.gram
    degenerate = MatF(F, [*gram.rows[:2], (0,) * 4, (0,) * 4])  # radical <e2, f2>
    with pytest.raises(DecompositionFailure):
        standard_basis(FormSpec("alternating", degenerate))


def assert_standard_basis(F, qfun, cb, fr):
    """The rows of cb have the form values of the frame's basis."""
    for i in range(fr.n):
        row = cb.rows[i]
        assert qfun(row) == fr.form.qdiag[i]
        for j in range(i + 1, fr.n):
            bil = F.sub(
                F.sub(qfun(tuple(F.add(a, b) for a, b in zip(row, cb.rows[j]))), qfun(row)),
                qfun(cb.rows[j]),
            )
            assert bil == fr.form.gram.rows[i][j]


@pytest.mark.parametrize("q,n,sign", [(2, 6, "-"), (2, 6, "+"), (3, 4, "-"), (4, 4, "+"), (3, 5, "odd")])
def test_quadratic_change_of_basis(q, n, sign):
    F = FieldSpec.get(q)
    fr = SpaceFrame.quadratic(F, n, sign)
    rng = random.Random(q * n)
    p = random_invertible(F, n, rng)

    def qfun(v):
        return fr.form.quadratic(vec_mat(F, v, p))

    # Q(v p): the polar form p beta p^T and the values Q(row_i p) on the basis
    form = FormSpec("quadratic", p.mul(fr.form.gram.mul(p.transpose())),
                    [fr.form.quadratic(row) for row in p.rows])
    cb, found_sign = standard_basis(form, target_mu=fr.mu)
    assert found_sign == sign
    assert_standard_basis(F, qfun, cb, fr)


def test_standard_basis_of_a_form_whose_singular_vectors_have_full_support():
    # Q = 2(x^2 + y^2 + z^2) over GF(3) is nonzero on every unit vector and
    # on every coordinate plane, so only the search of a 3-space finds the
    # singular vector (1, 1, 1)
    F = FieldSpec.get(3)

    def qfun(v):
        return F.mul(2, sum(x * x for x in v) % 3)

    # polar form 4(xx' + yy' + zz') = xx' + yy' + zz'
    form = FormSpec("quadratic", MatF.identity(F, 3), [2, 2, 2])
    cb, sign = standard_basis(form)
    assert sign == "odd"
    assert cb.rows[0] == (1, 1, 1)
    assert_standard_basis(F, qfun, cb, SpaceFrame.quadratic(F, 3, "odd"))
