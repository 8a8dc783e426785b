import itertools
import random

import pytest

from factorlab import construct
from factorlab.errors import SignParityMismatch, UnsupportedParameters
from factorlab.gf import FieldSpec
from factorlab.linalg import GroupElem, MatF, in_omega, is_isometry, unit_vector, vec_frob
from factorlab.construct import (
    blowup_elem,
    ext_field_subgroup,
    frobenius_elem,
    gens_classical,
    parabolic_p1_sp,
    parabolic_p1_sp_residual,
    pm_residual,
    sl_levi,
    sp_in_su,
    su_in_omega,
    unblow_vector,
)
from factorlab.perm import bsgs, nonzero_vectors, norm_level_set, orbit, solvable_residual
from factorlab.shapes import classical_order
from factorlab.tables import load_db
from factorlab.verify import sweep
from test_acceptance import ORACLE_GROUPS


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
    chain = spec.validate()
    assert chain is not None and chain.order() == expected


def _sweep_groups():
    """Every (family, n, q) that `sweep --tier b` passes to gens_classical,
    recorded during a sweep, so that the list follows the database."""
    seen = []
    build = construct.gens_classical

    def record(family, n, q):
        if (family, n, q) not in seen:
            seen.append((family, n, q))
        return build(family, n, q)

    construct.gens_classical = record
    try:
        sweep(load_db(), tier="b")
    finally:
        construct.gens_classical = build
    return seen


def _size_bound(family, n, q):
    """The documented bound on the size of each generating set."""
    f = FieldSpec.get(q).f
    if family == "SL":
        return n * (n - 1) * f
    if family == "Sp":
        return (2 * n - 1) * f
    if family == "SU":
        return 6
    # Omega: the chain directions but one, over the pool 1, a primitive
    # element and (odd q) -1
    pool = 1 if q == 2 else 2 if q % 2 == 0 else 3
    return n - 1 + (2 * n - 3) * pool


# the TIER-B groups, the G of the Sp_6(3) triple, Omega+(4, 2) (whose
# reflection products alone reach only half of it) and the order-oracle groups
GENERATED = list(dict.fromkeys(
    _sweep_groups() + [("Sp", 6, 3), ("Omega+", 4, 2)] + ORACLE_GROUPS))


@pytest.mark.parametrize("family,n,q", GENERATED)
def test_generating_sets_generate(family, n, q):
    # the few generators lie in the group, and an untargeted chain, whose
    # order is proven, reaches its order
    spec = gens_classical(family, n, q)
    assert len(spec.gens) <= _size_bound(family, n, q)
    frame = spec.frame
    for g in spec.gens:
        assert g.mat.det() == 1
        if frame.form is not None:
            assert is_isometry(g, frame.form)
            if frame.form.kind == "quadratic":
                assert in_omega(g, frame)
    chain = bsgs(spec.gens, nonzero_vectors(frame))
    assert chain.order() == classical_order(family, n, q)


@pytest.mark.parametrize("m,sign", [(5, "-"), (4, "+")])
def test_su_in_omega_reaches_the_table_order(m, sign):
    spec = su_in_omega(m, 2, sign)
    assert spec.validate().order() == classical_order("SU", m, 2)


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

    frame = SpaceFrame(F2, 4, None)
    dom = nonzero_vectors(frame)
    big = [blowup_elem(g, F2) for g in sl.gens]
    assert len(orbit(big, dom.points[0], dom)) == 15
    assert bsgs(big, dom, target_order=60).order() == 60
    # adjoining the Frobenius gives SigmaL_2(4) of order 120
    sigma = blowup_elem(GroupElem(MatF.identity(F4, 2), 1), F2)
    assert bsgs(big + [sigma], dom, target_order=120).order() == 120


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


def _trace_form(fam, n, q, sub_q):
    """The per-vector closure a blown-up form replaced: for a quadratic or
    hermitian inner form, v |-> Tr Q(v) or beta(v, v) read in GF(sub_q);
    for an alternating one, (u, w) |-> Tr beta(u, w)."""
    form = construct.classical_frame(fam, n, q).form
    ext, sub = form.owner, FieldSpec.get(sub_q)

    def up(v):
        return unblow_vector(ext, sub, v)

    if form.kind == "alternating":
        return lambda u, w: ext.trace_to(form.bilinear(up(u), up(w)), sub)
    if form.kind == "hermitian":
        return lambda v: ext.restrict(form.bilinear(up(v), up(v)), sub)
    return lambda v: ext.trace_to(form.quadratic(up(v)), sub)


def _twisted_form(fam, n, q, j):
    """v |-> Q(v^(sigma^-j))^(sigma^j), twisted_frobenius's former closure."""
    frame = construct.classical_frame(fam, n, q)
    F = frame.field
    return lambda v: F.frobenius(frame.form.quadratic(vec_frob(F, v, -j)), j)


@pytest.mark.parametrize("build,closure", [
    (lambda: su_in_omega(2, 3, "+"), lambda: _trace_form("SU", 2, 3, 3)),
    (lambda: su_in_omega(3, 2, "-"), lambda: _trace_form("SU", 3, 2, 2)),
    (lambda: ext_field_subgroup("Sp", 1, 2, 3), lambda: _trace_form("Sp", 2, 9, 3)),
    (lambda: ext_field_subgroup("Omega", 2, 2, 2, "-"),
     lambda: _trace_form("Omega-", 4, 4, 2)),
    (lambda: construct.twisted_frobenius(construct.classical_frame("Omega-", 4, 4)),
     lambda: _twisted_form("Omega-", 4, 4, 1)),
], ids=["su_in_omega-2-3", "su_in_omega-3-2", "ext_field-Sp", "ext_field-Omega",
        "twisted_frobenius"])
def test_transferred_forms_match_the_closures_they_replace(build, closure, monkeypatch):
    # the FormSpec each recipe hands to the Witt decomposition agrees with
    # the per-vector form it used to pass, on every vector of its space
    seen = []
    witt = construct.standard_basis

    def spy(form, target_mu=None):
        seen.append(form)
        return witt(form, target_mu)

    monkeypatch.setattr(construct, "standard_basis", spy)
    build()
    (form,) = seen
    F, n = form.owner, form.n
    vectors = list(itertools.product(F.elements(), repeat=n))
    basis = [unit_vector(n, k) for k in range(n)]
    fn = closure()
    if form.kind == "alternating":
        assert all(form.bilinear(u, w) == fn(u, w) for u in vectors for w in vectors)
        return
    assert form.kind == "quadratic"
    assert all(form.quadratic(v) == fn(v) for v in vectors)
    for v in vectors:   # the Gram matrix is the polar form of Q
        for e in basis:
            ve = tuple(F.add(a, b) for a, b in zip(v, e))
            assert form.bilinear(v, e) == F.sub(F.sub(fn(ve), fn(v)), fn(e))


def test_sp_in_su_golden_small():
    spec = sp_in_su(2, 2)
    chain = spec.validate()
    assert chain.order() == 720
    dom = norm_level_set(spec.frame, 1)
    assert dom.size == 120
    assert len(orbit(spec.gens, dom.points[0], dom)) == 120  # transitive
    assert chain.order() // 120 == 6  # stabilizer = Sp_0(2) x ... = Sp_2(2)


def test_su_in_omega_plus():
    spec = su_in_omega(4, 2, "+")
    chain = spec.validate()
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
    chain = spec.validate()
    assert chain.order() == classical_order("Sp", 4, 4) == 979200
    assert spec.n == 8


def test_parabolic_p1_residual_sp62():
    spec, residual_order = parabolic_p1_sp_residual(3, 2)
    for g in spec.gens:
        assert is_isometry(g, spec.frame.form)
    dom = nonzero_vectors(spec.frame)
    chain = bsgs(spec.gens, dom, target_order=spec.expected_order)
    assert chain.order() == 2 ** 5 * 720
    res = solvable_residual(spec.gens, dom)
    assert res.order() == residual_order == 11520


def _proven_order(spec):
    """The order of the group spec generates, proven by an untargeted chain
    on the nonzero vectors, after the gate of GroupPresentationSpec.validate:
    the generators preserve the form and, on a quadratic frame, lie in Omega."""
    form = spec.frame.form
    for g in spec.gens:
        if form is not None:
            assert is_isometry(g, form)
            if form.kind == "quadratic":
                assert in_omega(g, spec.frame)
    return bsgs(spec.gens, nonzero_vectors(spec.frame)).order()


@pytest.mark.parametrize(
    "family,m,q,expected",
    [
        ("SU", 2, 2, 960),
        ("Sp", 3, 2, 10752),
        ("Omega+", 4, 2, 1290240),
        ("SL", 4, 2, 8 * 168),
        ("OmegaOdd", 2, 3, 9 * 3 * 24),
        ("Sp", 2, 3, 27 * 24),
        ("SU", 3, 2, 2 ** 9 * 60480),
        ("OmegaOdd", 2, 5, 25 * 5 * 120),
    ],
)
def test_pm_residual_orders(family, m, q, expected):
    spec = pm_residual(family, m, q)
    assert spec.expected_order == expected
    assert _proven_order(spec) == expected


@pytest.mark.parametrize(
    "family,m,q,expected",
    [("Sp", 3, 2, 168), ("SU", 2, 2, 60), ("SL", 3, 2, 6), ("OmegaOdd", 2, 3, 24)],
)
def test_sl_levi_is_the_levi_block(family, m, q, expected):
    spec = sl_levi(family, m, q)
    assert spec.expected_order == expected
    assert _proven_order(spec) == expected


@pytest.mark.parametrize(
    "m,q,expected",
    # m = 1: the Levi block is empty; m = 4: the first Levi block Sp_2m-2(q)
    # with more than two hyperbolic pairs, which a wrongly ordered basis breaks
    [(1, 3, 3), (2, 4, 4 ** 3 * 60), (4, 2, 2 ** 7 * 1451520)],
)
def test_parabolic_p1_sp_orders(m, q, expected):
    spec = parabolic_p1_sp(m, q)
    assert spec.expected_order == expected
    assert _proven_order(spec) == expected


def test_gamma_o_minus_ext_lies_in_o_minus_not_omega():
    # T5.7's H: every generator preserves the form, and the lifted twisted
    # Frobenius, its last generator, has Dickson invariant 1
    spec = construct.gamma_o_minus_ext(2, 2, 2)
    assert spec.name == "GammaO-(4,4)<O-(8,2)"
    assert all(is_isometry(g, spec.frame.form) for g in spec.gens)
    assert not in_omega(spec.gens[-1], spec.frame)
    # T5.7's G, O-(8,2), names the Omega- frame, but has no generators yet
    o_minus = construct.classical_frame("O-", 8, 2).form
    assert (o_minus.gram, o_minus.qdiag) == (spec.frame.form.gram, spec.frame.form.qdiag)
    with pytest.raises(UnsupportedParameters):
        construct.gens_classical("O-", 8, 2)


def test_gamma_and_frobenius_elements():
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
    h_chain = bsgs(spec.gens, dom, target_order=504)

    omega = gens_classical("Omega-", 6, 2)
    dom_o = nonzero_vectors(omega.frame)
    assert dom_o.size == dom.size
    o_gens = list(omega.gens)
    w = next(
        v for v in (omega.frame.basis(i) for i in range(6))
        if omega.frame.form.quadratic(v)
    )
    o_gens.append(reflection(omega.frame, w))
    k_full = bsgs(o_gens, dom_o, target_order=2 * omega.expected_order)
    k_omega = bsgs(omega.gens, dom_o, target_order=omega.expected_order)
    assert len(enumerate_and_sift(h_chain, k_full)) == 18   # O_2^-(8)
    assert len(enumerate_and_sift(h_chain, k_omega)) == 9   # Omega_2^-(8)


def test_omega_index_two_in_full_orthogonal():
    # the Dickson kernel has index exactly 2 inside the generated O(V,Q)
    from factorlab.linalg import reflection

    omega = gens_classical("Omega-", 6, 2)
    dom = nonzero_vectors(omega.frame)
    w = omega.frame.basis(4)  # Q(e_3) = 1 in the minus frame
    assert omega.frame.form.quadratic(w)
    full = bsgs(
        omega.gens + [reflection(omega.frame, w)], dom,
        target_order=2 * omega.expected_order,
    )
    assert full.order() == 2 * omega.expected_order
    # odd characteristic: the spinor kernel likewise has index 2 in SO
    om3 = gens_classical("OmegaOdd", 3, 3)
    dom3 = nonzero_vectors(om3.frame)
    assert bsgs(om3.gens, dom3).order() == 12
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
    so = bsgs(pairs, dom3)
    assert so.order() == 24  # SO_3(3), twice Omega_3(3)


def test_bsgs_invariant_under_shuffle_and_seed():
    import random as _r

    spec = gens_classical("Sp", 4, 2)
    dom = nonzero_vectors(spec.frame)
    base = bsgs(spec.gens, dom).order()
    shuffled = list(spec.gens)
    _r.Random(3).shuffle(shuffled)
    assert bsgs(shuffled, dom).order() == base == 720
