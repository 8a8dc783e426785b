import random

import pytest

from factorlab.errors import SignParityMismatch
from factorlab.gf import FieldSpec
from factorlab.linalg import GroupElem, MatF, in_omega, is_isometry
from factorlab.construct import (
    adjoin,
    blowup_elem,
    ext_field_subgroup,
    frobenius_elem,
    gamma_swap,
    gens_classical,
    parabolic_p1_sp_residual,
    pm_residual,
    sp_in_su,
    su_in_omega,
    unblow_vector,
)
from factorlab.perm import bsgs, nonzero_vectors, norm_level_set, orbit, solvable_residual
from factorlab.shapes import classical_order


@pytest.mark.parametrize(
    "family,n,q,expected",
    [
        ("SL", 2, 4, 60),
        ("SL", 3, 2, 168),
        ("SL", 4, 2, 20160),
        ("Sp", 4, 2, 720),
        ("Sp", 2, 8, 504),
        ("Sp", 4, 3, 51840),
        ("SU", 3, 2, 216),
        ("SU", 4, 2, 25920),
        ("Omega-", 6, 2, 25920),
        ("Omega+", 6, 2, 20160),
        ("Omega-", 4, 4, 4080),
        ("OmegaOdd", 5, 3, 25920),
    ],
)
def test_gens_classical_orders(family, n, q, expected):
    spec = gens_classical(family, n, q)
    assert spec.expected_order == expected == classical_order(family, n, q)
    chain = spec.validate(seed=0)
    assert chain is not None and chain.order() == expected


def test_blowup_scalar_is_companion_matrix():
    F2 = FieldSpec.get(2)
    F4 = F2.extend(2)
    w = F4.generator
    g = GroupElem(MatF(F4, ((w,),)))
    big = blowup_elem(g, F2)
    # multiplication by w in the basis (1, w): 1 -> w, w -> w^2 = w + 1
    assert big.mat.rows == ((0, 1), (1, 1))


def test_blowup_is_functorial_and_order_preserving():
    F2 = FieldSpec.get(2)
    F4 = F2.extend(2)
    sl = gens_classical("SL", 2, 4)
    rng = random.Random(11)
    semis = sl.gens + [GroupElem(MatF.identity(F4, 2), 1)]
    for _ in range(15):
        a = rng.choice(semis)
        b = rng.choice(semis)
        assert blowup_elem(a * b, F2) == blowup_elem(a, F2) * blowup_elem(b, F2)
    # SL_2(4) blown into SL_4(2): transitive on the 15 nonzero vectors
    from factorlab.linalg import SpaceFrame

    frame = SpaceFrame(F2, 4, None, ("a", "b", "c", "d"))
    dom = nonzero_vectors(frame)
    big = [blowup_elem(g, F2) for g in sl.gens]
    assert len(orbit(big, dom.points[0], dom)) == 15
    assert bsgs(big, dom, seed=0, target_order=60).order() == 60
    # adjoining the Frobenius gives SigmaL_2(4) of order 120
    sigma = blowup_elem(GroupElem(MatF.identity(F4, 2), 1), F2)
    assert bsgs(adjoin(big, sigma), dom, seed=0, target_order=120).order() == 120


def test_unblow_roundtrip():
    F2 = FieldSpec.get(2)
    F4 = F2.extend(2)
    v = (3, 0, 2)
    sl = gens_classical("SL", 3, 4)
    g = sl.gens[5]
    big = blowup_elem(g, F2)
    # acting then unblowing agrees with unblowing then acting
    vb = []
    for x in v:
        # coordinates of x over (1, w)
        from factorlab.construct import _coords_for

        coords, _ = _coords_for(F4, F2)
        vb.extend(coords[x])
    assert unblow_vector(F4, F2, big.act(tuple(vb))) == g.act(v)


def test_sp_in_su_golden_small():
    spec = sp_in_su(2, 2)
    chain = spec.validate(seed=0)
    assert chain.order() == 720
    dom = norm_level_set(spec.frame, 1)
    assert dom.size == 120
    assert len(orbit(spec.gens, dom.points[0], dom)) == 120  # transitive
    assert chain.order() // 120 == 6  # stabilizer = Sp_0(2) x ... = Sp_2(2)


def test_su_in_omega_plus():
    spec = su_in_omega(4, 2, "+")
    chain = spec.validate(seed=0)
    assert chain.order() == 25920
    from factorlab.perm import singular_vectors

    dom = singular_vectors(spec.frame)
    assert dom.size == 135  # (q^m-1)(q^(m-1)+1) at q=2, m=4
    assert len(orbit(spec.gens, dom.points[0], dom)) == 135
    assert chain.order() // 135 == 192


def test_su_in_omega_sign_guard():
    with pytest.raises(SignParityMismatch):
        su_in_omega(4, 2, "-")


def test_ext_field_sp():
    spec, inner, _ = ext_field_subgroup("Sp", 2, 2, 2)
    chain = spec.validate(seed=0)
    assert chain.order() == classical_order("Sp", 4, 4) == 979200
    assert spec.n == 8


def test_parabolic_p1_residual_sp62():
    spec, residual_order = parabolic_p1_sp_residual(3, 2)
    for g in spec.gens:
        assert is_isometry(g, spec.frame.form)
    dom = nonzero_vectors(spec.frame)
    chain = bsgs(spec.gens, dom, seed=0, target_order=spec.expected_order)
    assert chain.order() == 2 ** 5 * 720
    res = solvable_residual(spec.gens, dom, seed=0)
    assert res.order() == residual_order == 11520


@pytest.mark.parametrize(
    "family,m,q,expected",
    [
        ("SU", 2, 2, 960),
        ("Sp", 3, 2, 10752),
        ("Omega+", 4, 2, 1290240),
        ("SL", 4, 2, 8 * 168),
        ("OmegaOdd", 2, 3, 9 * 3 * 24),
    ],
)
def test_pm_residual_orders(family, m, q, expected):
    spec = pm_residual(family, m, q)
    assert spec.expected_order == expected
    chain = spec.validate(seed=0)
    assert chain.order() == expected


def test_gamma_and_frobenius_elements():
    spec = gens_classical("Sp", 4, 2)
    g = gamma_swap(spec.frame)
    assert is_isometry(g, spec.frame.form)
    assert g.act((1, 0, 0, 0)) == (0, 1, 0, 0)
    f = frobenius_elem(gens_classical("SU", 3, 2).frame, 1)
    assert f.frob == 1


def test_ext_field_intersection_with_orthogonal_by_sifting():
    # Sp_2(8) inside Sp_6(2): its intersection with O_6^-(2) is O_2^-(8) of
    # order 18, and with Omega_6^-(2) it is Omega_2^-(8) of order 9 (trace
    # form lemma, odd extension degree)
    from factorlab.linalg import reflection
    from factorlab.perm import enumerate_and_sift

    spec, inner, _ = ext_field_subgroup("Sp", 1, 3, 2)
    dom = nonzero_vectors(spec.frame)
    h_chain = bsgs(spec.gens, dom, seed=0, target_order=504)

    omega = gens_classical("Omega-", 6, 2)
    dom_o = nonzero_vectors(omega.frame)
    assert dom_o.size == dom.size
    o_gens = list(omega.gens)
    w = next(
        v for v in (omega.frame.basis(i) for i in range(6))
        if omega.frame.form.quadratic(v)
    )
    o_gens.append(reflection(omega.frame, w))
    k_full = bsgs(o_gens, dom_o, seed=0, target_order=2 * omega.expected_order)
    k_omega = bsgs(omega.gens, dom_o, seed=0, target_order=omega.expected_order)
    assert enumerate_and_sift(h_chain, k_full) == 18   # O_2^-(8)
    assert enumerate_and_sift(h_chain, k_omega) == 9   # Omega_2^-(8)


def test_omega_index_two_in_full_orthogonal():
    # the Dickson kernel has index exactly 2 inside the generated O(V,Q)
    from factorlab.linalg import reflection

    omega = gens_classical("Omega-", 6, 2)
    dom = nonzero_vectors(omega.frame)
    w = omega.frame.basis(4)  # Q(e_3) = 1 in the minus frame
    assert omega.frame.form.quadratic(w)
    full = bsgs(
        omega.gens + [reflection(omega.frame, w)], dom, seed=0,
        target_order=2 * omega.expected_order,
    )
    assert full.order() == 2 * omega.expected_order
    # odd characteristic: the spinor kernel likewise has index 2 in SO
    om3 = gens_classical("OmegaOdd", 3, 3)
    dom3 = nonzero_vectors(om3.frame)
    assert bsgs(om3.gens, dom3, seed=0).order() == 12
    fr = om3.frame
    from itertools import product as _product

    cands = [v for v in _product(range(3), repeat=3)
             if any(v) and fr.form.quadratic(v)]
    pairs = []
    for u in cands:
        for v in cands:
            g = reflection(fr, u) * reflection(fr, v)
            if not g.is_identity():
                pairs.append(g)
    so = bsgs(pairs, dom3, seed=0)
    assert so.order() == 24  # SO_3(3), twice Omega_3(3)


def test_bsgs_invariant_under_shuffle_and_seed():
    import random as _r

    spec = gens_classical("Sp", 4, 2)
    dom = nonzero_vectors(spec.frame)
    base = bsgs(spec.gens, dom, seed=0).order()
    shuffled = list(spec.gens)
    _r.Random(3).shuffle(shuffled)
    assert bsgs(shuffled, dom, seed=5).order() == base == 720


def test_adjoin_index_check():
    from factorlab.errors import NotNormalizing

    sl24 = gens_classical("SL", 2, 4)
    F2 = FieldSpec.get(2)
    big = [blowup_elem(g, F2) for g in sl24.gens]
    from factorlab.construct import classical_frame

    dom = nonzero_vectors(classical_frame("SL", 4, 2))
    sigma = blowup_elem(frobenius_elem(sl24.frame, 1), F2)
    gens = adjoin(big, sigma, dom=dom, expected_index=2)
    assert len(gens) == len(big) + 1
    with pytest.raises(NotNormalizing):
        adjoin(big, sigma, dom=dom, expected_index=4)
    # adjoining the identity changes nothing
    ident = blowup_elem(frobenius_elem(sl24.frame, 0), F2)
    adjoin(big, ident, dom=dom, expected_index=1)


def _brute_force_isometries(frame, det_one):
    """Every n x n matrix over the field, in lexicographic order, kept when
    it is an invertible isometry (of determinant 1 if det_one)."""
    from itertools import product

    F, n = frame.field, frame.n
    out = []
    for flat in product(F.elements(), repeat=n * n):
        m = MatF(F, [flat[i * n : (i + 1) * n] for i in range(n)])
        if m.det() == 0 or (det_one and m.det() != 1):
            continue
        g = GroupElem(m)
        if is_isometry(g, frame.form):
            out.append(g)
    return out


@pytest.mark.parametrize("det_one", [False, True])
def test_small_isometry_group_matches_brute_force(monkeypatch, det_one):
    import factorlab.construct as construct
    from factorlab.linalg import SpaceFrame

    monkeypatch.setattr(construct, "_SMALL_GROUP_CACHE", {})
    F2, F3, F4 = FieldSpec.get(2), FieldSpec.get(3), FieldSpec.get(4)
    frames = [
        SpaceFrame.hermitian(F4, 2),
        SpaceFrame.symplectic(F3, 1),
        SpaceFrame.quadratic(F2, 2, "-"),
        SpaceFrame.quadratic(F3, 2, "+"),
        SpaceFrame.quadratic(F3, 3, "odd"),
    ]
    for frame in frames:
        got = construct._small_isometry_group(frame, det_one=det_one)
        assert got == _brute_force_isometries(frame, det_one), frame.form.kind
        assert got
