import random

import pytest

from factorlab.construct import frobenius_elem, gens_classical
from factorlab.errors import CapExceeded
from factorlab.gf import FieldSpec
from factorlab.linalg import GroupElem, MatF, SpaceFrame
from factorlab.perm import (
    StabChain,
    _product,
    bsgs,
    compose,
    derived_chain,
    enumerate_and_sift,
    inverse,
    is_identity,
    nonzero_vectors,
    norm_level_set,
    orbit,
    projective_points,
    refined_antiflags,
    solvable_residual,
)


def elem(F, rows, frob=0):
    return GroupElem(MatF(F, rows), frob)


def sl2_2_gens():
    F = FieldSpec.get(2)
    return F, [elem(F, ((1, 1), (0, 1))), elem(F, ((0, 1), (1, 0)))]


def sl2_4_gens():
    F = FieldSpec.get(4)
    w = 2
    return F, [
        elem(F, ((1, 1), (0, 1))),
        elem(F, ((1, 0), (1, 1))),
        elem(F, ((w, 0), (0, 3))),  # diag(w, w^2), det = w^3 = 1
    ]


def sl3_2_gens():
    F = FieldSpec.get(2)
    gens = []
    for i in range(3):
        for j in range(3):
            if i != j:
                rows = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
                rows[i][j] = 1
                gens.append(elem(F, rows))
    return F, gens


def test_orbit_sl2_2_on_nonzero_vectors():
    F, gens = sl2_2_gens()
    fr = SpaceFrame.symplectic(F, 1)
    dom = nonzero_vectors(fr)
    assert dom.size == 3
    got = orbit(gens, dom.points[0], dom)
    assert len(got) == 3
    assert orbit([], dom.points[0], dom) == [dom.points[0]]


def test_bsgs_orders_with_and_without_target():
    F, gens = sl3_2_gens()
    fr = SpaceFrame.symplectic(F, 1)
    fr = SpaceFrame(F, 3, fr.form, ("a", "b", "c"))  # only dimensions matter here
    dom = projective_points(fr)
    assert dom.size == 7
    chain = bsgs(gens, dom, seed=0, target_order=168)
    assert chain.order() == 168
    chain2 = bsgs(gens, dom, seed=1)
    assert chain2.order() == 168
    dom2 = nonzero_vectors(fr)
    chain3 = bsgs(gens, dom2, seed=5)
    assert chain3.order() == 168


def test_bsgs_sigma_l24_is_120():
    F, gens = sl2_4_gens()
    fr = SpaceFrame.symplectic(F, 1)
    dom = nonzero_vectors(fr)
    assert dom.size == 15
    assert bsgs(gens, dom, seed=0).order() == 60
    semi = gens + [GroupElem(MatF.identity(F, 2), 1)]
    assert bsgs(semi, dom, seed=0).order() == 120
    assert bsgs(semi, dom, seed=3, target_order=120).order() == 120


def test_identity_only_chain():
    F, _ = sl2_2_gens()
    fr = SpaceFrame.symplectic(F, 1)
    dom = nonzero_vectors(fr)
    chain = bsgs([GroupElem.identity(F, 2)], dom)
    assert chain.order() == 1


def test_sift_roundtrip_and_membership():
    F, gens = sl2_4_gens()
    fr = SpaceFrame.symplectic(F, 1)
    dom = nonzero_vectors(fr)
    chain = bsgs(gens, dom, seed=0)
    rng = random.Random(7)
    for _ in range(20):
        g = chain.random_element(rng)
        assert chain.contains(g)
    outside = dom.perm_of(GroupElem(MatF(F, ((2, 0), (0, 1))), 0))  # det != 1
    assert not chain.contains(outside)


def test_elements_enumeration_matches_order():
    F, gens = sl2_2_gens()
    fr = SpaceFrame.symplectic(F, 1)
    dom = nonzero_vectors(fr)
    chain = bsgs(gens, dom)
    els = list(chain.elements())
    assert len(els) == chain.order() == 6
    assert len({tuple(e) for e in els}) == 6
    with pytest.raises(CapExceeded):
        list(chain.elements(cap=3))


def test_enumerate_and_sift_self_and_trivial():
    F, gens = sl2_4_gens()
    fr = SpaceFrame.symplectic(F, 1)
    dom = nonzero_vectors(fr)
    H = bsgs(gens, dom, seed=0)
    assert enumerate_and_sift(H, H) == H.order()
    triv = StabChain([], dom.size)
    assert enumerate_and_sift(triv, H) == 1


def perm_group(*cycles_list, n):
    perms = []
    for cycles in cycles_list:
        p = list(range(n))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                p[a] = b
            p[cyc[-1]] = cyc[0]
        perms.append(p)
    return perms


def test_derived_series_s4():
    s4 = perm_group([(0, 1)], [(0, 1, 2, 3)], n=4)
    chain = StabChain(s4, 4)
    assert chain.order() == 24
    d1 = derived_chain(s4, 4)
    assert d1.order() == 12  # A4
    d2 = derived_chain(d1.strong_gens(), 4)
    assert d2.order() == 4  # V4
    d3 = derived_chain(d2.strong_gens(), 4)
    assert d3.order() == 1


def test_solvable_residual_perfect_and_solvable():
    F, gens = sl2_4_gens()
    fr = SpaceFrame.symplectic(F, 1)
    dom = nonzero_vectors(fr)
    res = solvable_residual(gens, dom)
    assert res.order() == 60  # SL2(4) is perfect
    # a solvable group: the Borel (upper triangular) subgroup
    w = 2
    borel = [elem(F, ((1, 1), (0, 1))), elem(F, ((w, 0), (0, 3)))]
    assert solvable_residual(borel, dom).order() == 1


def test_coset_orbit_criterion_f():
    s4 = perm_group([(0, 1)], [(0, 1, 2, 3)], n=4)
    G = StabChain(s4, 4)
    K = StabChain(perm_group([(0, 1)], n=4), 4)
    a4 = perm_group([(0, 1, 2)], [(1, 2, 3)], n=4)
    H = StabChain(a4, 4)
    assert H.order() == 12
    # H acts on the right cosets of K; transitivity <=> G = HK
    start = K.coset_key(list(range(4)))
    seen = {start}
    queue = [list(range(4))]
    reps = [list(range(4))]
    while queue:
        g = queue.pop(0)
        for h in H.strong_gens():
            img = compose(g, h)
            key = K.coset_key(img)
            if key not in seen:
                seen.add(key)
                queue.append(img)
                reps.append(img)
    assert len(seen) == 12  # transitive on [G:K], so G = HK


def test_norm_level_set_and_antiflags_counts():
    F2 = FieldSpec.get(2)
    F4 = F2.extend(2)
    fr = SpaceFrame.hermitian(F4, 4)
    dom = norm_level_set(fr, 1)
    assert dom.size == 2 ** 3 * (2 ** 4 - 1)  # q^(2m-1) (q^(2m)-1) at q=2, m=2
    fr2 = SpaceFrame.symplectic(F2, 2)
    dom2 = refined_antiflags(fr2)
    assert dom2.size == 2 ** 3 * (2 ** 4 - 1)


def test_compose_inverse_helpers():
    rng = random.Random(8)
    for _ in range(20):
        p = list(range(10))
        rng.shuffle(p)
        assert is_identity(compose(p, inverse(p)))


def test_domain_counts_match_closed_forms():
    # refined antiflags: q^(2m-1) (q^(2m)-1); singular vectors of minus type:
    # (q^m+1)(q^(m-1)-1); norm-1 vectors of minus type: q^(m-1)(q^m+1);
    # singular vectors of plus type: (q^m-1)(q^(m-1)+1)
    from factorlab.linalg import SpaceFrame
    from factorlab.perm import singular_vectors

    for q, m in [(2, 2), (3, 2)]:
        F = FieldSpec.get(q)
        fr = SpaceFrame.symplectic(F, m)
        assert refined_antiflags(fr).size == q ** (2 * m - 1) * (q ** (2 * m) - 1)
    for q, m in [(2, 3), (2, 4), (3, 3)]:
        F = FieldSpec.get(q)
        minus = SpaceFrame.quadratic(F, 2 * m, "-")
        assert singular_vectors(minus).size == (q ** m + 1) * (q ** (m - 1) - 1)
        assert norm_level_set(minus, 1).size == q ** (m - 1) * (q ** m + 1)
        plus = SpaceFrame.quadratic(F, 2 * m, "+")
        assert singular_vectors(plus).size == (q ** m - 1) * (q ** (m - 1) + 1)


def test_bsgs_not_faithful_on_projective_domain():
    from factorlab.errors import NotFaithful

    F = FieldSpec.get(4)
    fr = SpaceFrame.symplectic(F, 1)
    dom = projective_points(fr)
    scalar = GroupElem(MatF(F, ((2, 0), (0, 2))), 0)  # acts trivially on lines
    with pytest.raises(NotFaithful):
        bsgs([scalar], dom)


def test_unordered_pair_orbit():
    from factorlab.construct import gens_classical
    from factorlab.perm import unordered_vector_pairs

    sp = gens_classical("Sp", 4, 2)
    e1, f1 = sp.frame.basis(0), sp.frame.basis(1)
    dom = unordered_vector_pairs(sp.frame, (e1, f1), sp.gens)
    # hyperbolic pairs {e, f} with beta(e, f) = 1: 15 * 8 / 2
    assert dom.size == 60
    chain = bsgs(sp.gens, dom, seed=0)
    assert chain.order() == 720  # still faithful here


# -- known base and word sifting ---------------------------------------------------


def _primitive(F):
    return next(w for w in range(2, F.q) if len({F.pow(w, k) for k in range(F.q - 1)}) == F.q - 1)


def _gamma_l_gens(F, n):
    """Generators of GammaL(n, q): transvections e_i + a e_j for a in {1, x},
    diag(w, 1, ..., 1) for a primitive w, and the Frobenius map."""
    def unit(i, j, a=1):
        return [[a if (r, c) == (i, j) else int(r == c) for c in range(n)] for r in range(n)]

    coeffs = [1] if F.f == 1 else [1, F.p]
    gens = [elem(F, unit(i, j, a)) for i in range(n) for j in range(n) if i != j for a in coeffs]
    if F.q > 2:
        gens.append(elem(F, unit(0, 0, _primitive(F))))
    if F.f > 1:
        gens.append(GroupElem(MatF.identity(F, n), 1))
    return gens


def _gamma_l_order(F, n):
    order = F.f
    for i in range(n):
        order *= F.q ** n - F.q ** i
    return order


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (9, 2), (2, 3), (3, 3)])
def test_only_the_identity_fixes_the_known_base(q, n):
    F = FieldSpec.get(q)
    dom = nonzero_vectors(SpaceFrame(F, n, None, tuple(f"v{i}" for i in range(n))))
    assert len(dom.known_base) == n + (F.f > 1)
    # the whole of GammaL(n, q), frob != 0 included, built without the base
    chain = StabChain(dom.perms_of(_gamma_l_gens(F, n)), dom.size)
    assert chain.order() == _gamma_l_order(F, n)
    base = dom.known_base
    fixing = [g for g in chain.elements() if all(g[x] == x for x in base)]
    assert fixing == [list(range(dom.size))]


def test_frobenius_fixes_every_basis_vector_but_not_x_e1():
    F = FieldSpec.get(4)
    for n in (2, 3):
        dom = nonzero_vectors(SpaceFrame(F, n, None, tuple(f"v{i}" for i in range(n))))
        phi = dom.perm_of(GroupElem(MatF.identity(F, n), 1))
        *basis, x_e1 = dom.known_base
        assert not is_identity(phi)
        # so a base of e_1..e_n alone would take phi for the identity
        assert all(phi[b] == b for b in basis)
        assert phi[x_e1] != x_e1


def test_proper_subgroup_chain_rejects_outside_elements():
    F, gens = sl2_4_gens()
    dom = nonzero_vectors(SpaceFrame.symplectic(F, 1))
    chain = bsgs(gens, dom, seed=0)
    assert [dom.points[lvl.base] for lvl in chain.levels] == [1, 4]  # e_1, e_2
    # the Frobenius map fixes both base points of SL_2(4), so it passes every
    # level; only x e_1 of the known base tells it from the identity
    phi = dom.perm_of(GroupElem(MatF.identity(F, 2), 1))
    word, level = chain._sift([phi])
    assert level == len(chain.levels) and word == [phi]
    assert not chain.contains(phi)
    # the scalar w I is stopped at a level already
    scalar = dom.perm_of(elem(F, ((2, 0), (0, 2))))
    assert chain._sift([scalar])[1] == 1
    assert not chain.contains(scalar)
    assert all(chain.contains(dom.perm_of(g)) for g in gens)


# one frame each over GF(2), GF(3), GF(4) and GF(9); the ambient group has a
# frob != 0 element where the field has one
SUBGROUP_FRAMES = [("Sp", 4, 2), ("Sp", 4, 3), ("SU", 4, 2), ("SU", 3, 3)]


def _ambient(fam, n, q):
    spec = gens_classical(fam, n, q)
    gens = list(spec.gens)
    if spec.frame.field.f > 1:
        gens.append(frobenius_elem(spec.frame, 1))
    dom = nonzero_vectors(spec.frame)
    return dom, StabChain(dom.perms_of(gens), dom.size)


def _levels(chain):
    return [(lvl.base, lvl.gens, list(lvl.orbit)) for lvl in chain.levels]


@pytest.mark.parametrize("fam,n,q", SUBGROUP_FRAMES)
def test_known_base_leaves_the_chain_unchanged(fam, n, q):
    dom, ambient = _ambient(fam, n, q)
    rng = random.Random(11)
    for seed in range(3):
        gens = [ambient.random_element(rng) for _ in range(rng.randrange(1, 3))]
        plain = StabChain(gens, dom.size, seed=seed)
        based = StabChain(gens, dom.size, seed=seed, known_base=dom.known_base)
        assert _levels(based) == _levels(plain)
        target = plain.order()
        plain = StabChain(gens, dom.size, seed=seed, target_order=target)
        based = StabChain(gens, dom.size, seed=seed, target_order=target,
                          known_base=dom.known_base)
        assert _levels(based) == _levels(plain)


@pytest.mark.parametrize("fam,n,q", SUBGROUP_FRAMES)
def test_enumerate_and_sift_on_words_matches_full_permutations(fam, n, q):
    dom, ambient = _ambient(fam, n, q)
    base = dom.known_base
    rng = random.Random(5)
    for seed in range(3):
        a, b = ambient.random_element(rng), ambient.random_element(rng)
        H = StabChain([a, b], dom.size, seed=seed, known_base=base)
        if H.order() > 2000:
            H = StabChain([a], dom.size, seed=seed, known_base=base)
        c, d = ambient.random_element(rng), ambient.random_element(rng)
        k_gens = [[c], [a, c], [c, d]][seed]
        K = StabChain(k_gens, dom.size, seed=seed, known_base=base)
        K_plain = StabChain(k_gens, dom.size, seed=seed)
        elements = list(H.elements())
        assert [_product(w, dom.size) for w in H.words()] == elements
        expected = sum(1 for g in elements if K_plain.contains(g))
        assert enumerate_and_sift(H, K) == expected
        assert enumerate_and_sift(H, ambient) == H.order()
