import gc
import random
import tracemalloc
import weakref
from collections import Counter
from itertools import product

import pytest

from factorlab.construct import (
    classical_frame,
    ext_field_subgroup,
    frobenius_elem,
    gens_classical,
    parabolic_p1_sp_residual,
)
from factorlab.errors import CapExceeded, DomainOverflow, VerificationFailed
from factorlab.gf import FieldSpec
from factorlab.linalg import GroupElem, MatF, SpaceFrame
from factorlab.perm import (
    StabChain,
    _Level,
    _frontier_orbit,
    _image,
    _product,
    bsgs,
    compose,
    derived_chain,
    enumerate_and_sift,
    form_orbit,
    form_values,
    inverse,
    is_identity,
    level_set_size,
    nonzero_vectors,
    norm_level_set,
    orbit,
    refined_antiflags,
    solvable_residual,
)


def random_element(chain, rng, first=0):
    """An element of chain's group: one transversal element per level, each
    level's orbit point drawn by rng, multiplied from the first level on.
    With first > 0 the levels before it are skipped, so the element fixes
    their base points."""
    g = None
    for lvl in chain.levels[first:]:
        u = lvl.rep(rng.choice(list(lvl.orbit)))
        if u is not None:
            g = list(u) if g is None else compose(g, u)
    return list(range(chain.n)) if g is None else g


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
    dom = nonzero_vectors(fr)
    assert dom.size == 7
    chain = bsgs(gens, dom, target_order=168)
    assert chain.order() == 168
    chain2 = bsgs(gens, dom)
    assert chain2.order() == 168
    # nothing random goes into a chain: a rebuild is the same chain
    chain3 = bsgs(gens, dom)
    assert [(lvl.base, lvl.gens) for lvl in chain3.levels] == \
        [(lvl.base, lvl.gens) for lvl in chain2.levels]


def test_bsgs_sigma_l24_is_120():
    F, gens = sl2_4_gens()
    fr = SpaceFrame.symplectic(F, 1)
    dom = nonzero_vectors(fr)
    assert dom.size == 15
    assert bsgs(gens, dom).order() == 60
    semi = gens + [GroupElem(MatF.identity(F, 2), 1)]
    assert bsgs(semi, dom).order() == 120
    assert bsgs(semi, dom, target_order=120).order() == 120


def test_identity_only_chain():
    F, _ = sl2_2_gens()
    fr = SpaceFrame.symplectic(F, 1)
    dom = nonzero_vectors(fr)
    chain = bsgs([GroupElem.identity(F, 2)], dom)
    assert chain.order() == 1


def test_nonzero_vectors_over_the_cap_are_refused_before_they_are_listed():
    # listing the 2^20 codes of GF(2)^20 first took a traced peak of 40 MiB
    frame = SpaceFrame(FieldSpec.get(2), 20, None, tuple(f"v{i}" for i in range(20)))
    tracemalloc.start()
    try:
        with pytest.raises(DomainOverflow, match=f"domain size {2 ** 20 - 1} exceeds cap 10"):
            nonzero_vectors(frame, cap=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 16
    small = SpaceFrame(FieldSpec.get(2), 4, None, ("a", "b", "c", "d"))
    assert nonzero_vectors(small, cap=15).size == 15
    with pytest.raises(DomainOverflow):
        nonzero_vectors(small, cap=14)


def test_refined_antiflags_over_the_cap_are_refused_before_they_are_listed(monkeypatch):
    # GF(2)^12 has (2^12 - 1) 2^11 refined antiflags, found by a loop over
    # all 2^24 pairs of codes; the count is known, so the cap needs no loop
    import factorlab.perm as perm

    def unlisted(frame):
        raise AssertionError("the codes were listed before the cap was checked")

    frame = SpaceFrame(FieldSpec.get(2), 12, None, tuple(f"v{i}" for i in range(12)))
    with monkeypatch.context() as m:
        m.setattr(perm, "_all_vectors", unlisted)
        with pytest.raises(DomainOverflow, match=f"domain size {4095 * 2048} exceeds cap 10"):
            refined_antiflags(frame, cap=10)
    small = SpaceFrame(FieldSpec.get(3), 2, None, ("a", "b"))
    assert refined_antiflags(small, cap=24).size == 8 * 3
    with pytest.raises(DomainOverflow):
        refined_antiflags(small, cap=23)


def test_a_target_order_with_no_generators_is_checked():
    F, _ = sl2_2_gens()
    dom = nonzero_vectors(SpaceFrame.symplectic(F, 1))
    with pytest.raises(VerificationFailed):
        StabChain([], 8, target_order=5)
    with pytest.raises(VerificationFailed):
        bsgs([GroupElem.identity(F, 2)], dom, target_order=24)
    assert StabChain([], 8, target_order=1).order() == 1
    assert bsgs([GroupElem.identity(F, 2)], dom, target_order=1).order() == 1


def test_a_target_order_above_the_group_order_names_the_proven_order():
    # the closure runs to its end without reaching the target, so the order
    # it names is proven
    sp = gens_classical("Sp", 4, 3)
    with pytest.raises(VerificationFailed, match=r"order 51840, target 103680"):
        bsgs(sp.gens, nonzero_vectors(sp.frame), target_order=2 * 51840)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a targeted chain is a lower bound")
def test_a_target_order_below_the_group_order_is_refused():
    # S_8 by the 8-cycle and a transposition, with the order of A_8 as target
    cycle = [1, 2, 3, 4, 5, 6, 7, 0]
    swap = [1, 0, 2, 3, 4, 5, 6, 7]
    with pytest.raises(VerificationFailed):
        StabChain([cycle, swap], 8, target_order=20160)


def test_sift_roundtrip_and_membership():
    F, gens = sl2_4_gens()
    fr = SpaceFrame.symplectic(F, 1)
    dom = nonzero_vectors(fr)
    chain = bsgs(gens, dom)
    rng = random.Random(7)
    for _ in range(20):
        g = random_element(chain, rng)
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
    H = bsgs(gens, dom)
    assert enumerate_and_sift(H, H) == list(H.elements())
    triv = StabChain([], dom.size)
    assert enumerate_and_sift(triv, H) == [list(range(dom.size))]


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


# every frame kind: alternating, hermitian of odd and even n, quadratic of
# both even types in characteristic 2 and odd, and odd frames, n = 1 included
LEVEL_FRAMES = [("Sp", 4, 2), ("Sp", 4, 3), ("SU", 1, 3), ("SU", 2, 3), ("SU", 3, 2),
                ("SU", 3, 3), ("SU", 4, 2), ("Omega+", 2, 5), ("Omega-", 2, 5),
                ("Omega+", 4, 3), ("Omega-", 4, 3), ("Omega+", 6, 2), ("Omega-", 4, 4),
                ("OmegaOdd", 1, 7), ("OmegaOdd", 3, 3), ("OmegaOdd", 3, 5), ("OmegaOdd", 5, 3)]


@pytest.mark.parametrize("fam,n,q", LEVEL_FRAMES)
def test_level_set_size_counts_the_enumeration(fam, n, q):
    frame = classical_frame(fam, n, q)
    counts = Counter(form_values(frame)[1:])
    for value in frame.field.elements():
        assert level_set_size(frame, value) == counts[value]


def test_an_oversized_level_set_is_refused_before_the_form_is_evaluated(monkeypatch):
    # on GF(2)^20 filling form_values took 0.67 s and 26.5 MiB before the
    # cap of 10 refused the level set
    import factorlab.perm as perm

    built = []
    monkeypatch.setattr(perm, "form_values", lambda *args, **kw: built.append(args))
    frame = SpaceFrame.quadratic(FieldSpec.get(2), 20, "+")
    singular = (2 ** 10 - 1) * (2 ** 9 + 1)
    with pytest.raises(DomainOverflow, match=f"^domain size {singular} exceeds cap 10$"):
        perm.singular_vectors(frame, cap=10)
    with pytest.raises(DomainOverflow, match=f"^domain size {2 ** 19 - 2 ** 9} exceeds cap 10$"):
        perm.norm_level_set(frame, 1, cap=10)
    assert built == []


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

    # -I fixes every quadratic form, as a scalar fixes every projective
    # point: its orbit on forms is one point, on which it acts trivially
    F = FieldSpec.get(3)
    fr = SpaceFrame.symplectic(F, 1)
    minus_one = GroupElem(MatF(F, ((2, 0), (0, 2))), 0)
    dom = form_orbit(fr, SpaceFrame.quadratic(F, 2, "+").form, [minus_one])
    assert dom.size == 1
    with pytest.raises(NotFaithful):
        bsgs([minus_one], dom)


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
    chain = bsgs(gens, dom)
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
    for _ in range(3):
        gens = [random_element(ambient, rng) for _ in range(rng.randrange(1, 3))]
        plain = StabChain(gens, dom.size)
        based = StabChain(gens, dom.size, known_base=dom.known_base)
        assert _levels(based) == _levels(plain)
        target = plain.order()
        plain = StabChain(gens, dom.size, target_order=target)
        based = StabChain(gens, dom.size, target_order=target,
                          known_base=dom.known_base)
        assert _levels(based) == _levels(plain)


def _path_words(chain):
    """The chain's elements as the words enumerate_and_sift builds: one tree
    path per level, the first level's last and varying fastest."""
    per_level = [[lvl.path(p) for p in lvl.orbit] for lvl in reversed(chain.levels)]
    return [[g for path in choice for g in path] for choice in product(*per_level)]


@pytest.mark.parametrize("fam,n,q", SUBGROUP_FRAMES)
def test_enumerate_and_sift_on_words_matches_full_permutations(fam, n, q):
    dom, ambient = _ambient(fam, n, q)
    base = dom.known_base
    rng = random.Random(5)
    for trial in range(3):
        a, b = random_element(ambient, rng), random_element(ambient, rng)
        H = StabChain([a, b], dom.size, known_base=base)
        if H.order() > 2000:
            H = StabChain([a], dom.size, known_base=base)
        c, d = random_element(ambient, rng), random_element(ambient, rng)
        k_gens = [[c], [a, c], [c, d]][trial]
        K = StabChain(k_gens, dom.size, known_base=base)
        K_plain = StabChain(k_gens, dom.size)
        elements = list(H.elements())
        assert [_product(w, dom.size) for w in _path_words(H)] == elements
        assert enumerate_and_sift(H, K) == [g for g in elements if K_plain.contains(g)]
        assert enumerate_and_sift(H, ambient) == elements


def test_enumerate_and_sift_with_a_trivial_k_keeps_only_the_identity():
    F, gens = sl2_4_gens()
    dom = nonzero_vectors(SpaceFrame.symplectic(F, 1))
    H = bsgs(gens, dom)
    assert H.order() == 60 and len(H.levels) > 1
    for K in (StabChain([], dom.size), StabChain([], dom.size, known_base=dom.known_base)):
        assert enumerate_and_sift(H, K) == [list(range(dom.size))]


def test_enumerate_and_sift_follows_k_first_base_through_each_prefix():
    # H fixes a point and K a conjugate one; their first base points differ,
    # so the image y of K's first base under the outer paths of H varies
    dom, ambient = _ambient("Sp", 4, 3)
    x = random_element(ambient, random.Random(5))
    xi = inverse(x)
    h_gens = ambient.levels[1].gens
    k_gens = [compose(compose(xi, g), x) for g in h_gens]
    H = StabChain(h_gens, dom.size, known_base=dom.known_base)
    K = StabChain(k_gens, dom.size, known_base=dom.known_base)
    K_plain = StabChain(k_gens, dom.size)
    first = K.levels[0]
    assert first.base != H.levels[0].base and len(first.orbit) < dom.size
    outer = [[lvl.path(p) for p in lvl.orbit] for lvl in reversed(H.levels[1:])]
    ys = {_image(first.base, [g for path in choice for g in path]) for choice in product(*outer)}
    assert len(ys) > 1
    expected = [g for g in H.elements() if K_plain.contains(g)]
    assert 1 < len(expected) < H.order()
    assert enumerate_and_sift(H, K) == expected


def test_enumerate_and_sift_refuses_a_large_h_before_any_sift(monkeypatch):
    F, gens = sl2_4_gens()
    dom = nonzero_vectors(SpaceFrame.symplectic(F, 1))
    H = bsgs(gens, dom)
    work = []
    monkeypatch.setattr(StabChain, "_sift", lambda *args: work.append(args))
    monkeypatch.setattr(_Level, "path", lambda *args: work.append(args))
    with pytest.raises(CapExceeded):
        enumerate_and_sift(H, H, cap=59)
    assert work == []


def test_enumerate_and_sift_builds_no_transversal_element_of_h():
    # H's 755 transversal elements, kept as 728-point permutations, set a
    # traced peak of about 4.5 MiB on the Sp_6(3) triple
    G = gens_classical("Sp", 6, 3)
    H, _, _ = ext_field_subgroup("Sp", 1, 3, 3)
    K, _ = parabolic_p1_sp_residual(3, 3)
    dom = nonzero_vectors(G.frame)
    chainG = bsgs(G.gens, dom)
    assert all(chainG.contains(dom.perm_of(g)) for g in H.gens + K.gens)
    chainH, chainK = bsgs(H.gens, dom), bsgs(K.gens, dom)
    tracemalloc.start()
    try:
        inter = enumerate_and_sift(chainH, chainK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inter) == 27
    assert peak <= 2 ** 20
    assert all(lvl._reps == {lvl.base: None} for lvl in chainH.levels)
    # a sift extends the list it is given: no closure, contains or
    # enumeration handed it a kept word, so every kept word is still its
    # tree path's
    for chain in (chainG, chainH, chainK):
        for lvl in chain.levels:
            _check_level(lvl)


class _Forgetful(dict):
    """A memo that records nothing: the closure then sifts every Schreier
    generator again in every pass."""

    def __setitem__(self, key, value):
        pass


def _schreier_sifts(monkeypatch, build, memo=True):
    """The chain build() returns and the keys of the Schreier generators it
    sifted, one per sift: the level the sift starts at, one below the
    generator's, and the word's permutations by identity, which fix the
    point and the generator."""
    absorb, init = StabChain._absorb, _Level.__init__
    keys = []

    def counting_absorb(chain, word, start=0):
        if start:
            keys.append((start, tuple(map(id, word))))
        return absorb(chain, word, start)

    def forgetful_init(lvl, base, invs):
        init(lvl, base, invs)
        lvl.tested = _Forgetful()

    with monkeypatch.context() as m:
        m.setattr(StabChain, "_absorb", counting_absorb)
        if not memo:
            m.setattr(_Level, "__init__", forgetful_init)
        chain = build()
    return chain, keys


@pytest.mark.parametrize("case", ["OmegaOdd-7-3", "derived-Sp-4-3"])
def test_each_schreier_generator_is_sifted_once(case, monkeypatch):
    if case == "OmegaOdd-7-3":
        spec = gens_classical("OmegaOdd", 7, 3)
        dom = nonzero_vectors(spec.frame)
        perms = dom.perms_of(spec.gens)

        def build():
            return StabChain(perms, dom.size, known_base=dom.known_base)
    else:
        dom, ambient = _ambient("Sp", 4, 3)
        rng = random.Random(2)
        perms = [random_element(ambient, rng) for _ in range(2)]

        def build():
            return derived_chain(perms, dom.size, known_base=dom.known_base)
    chain, keys = _schreier_sifts(monkeypatch, build)
    plain, plain_keys = _schreier_sifts(monkeypatch, build, memo=False)
    # every Schreier generator of the closed chain, tree edges aside, was
    # sifted, and none twice
    every = set()
    for i, lvl in enumerate(chain.levels):
        for p in lvl.tree:
            for j, g in enumerate(lvl.gens):
                if lvl.tree[g[p]] != (p, j):
                    word = lvl.path(p) + [g] + lvl.path_inv(g[p])
                    every.add((i + 1, tuple(map(id, word))))
    assert len(set(keys)) == len(keys) and set(keys) == every
    assert len(plain_keys) > len(keys)
    assert [(lvl.base, lvl.gens) for lvl in chain.levels] == \
        [(lvl.base, lvl.gens) for lvl in plain.levels]


def _check_level(lvl):
    # every tree edge is a generator step from a point listed earlier (the
    # order enumerate_and_sift grows images in), the tree spans the orbit
    # and the tree path words multiply to each transversal element and its
    # inverse
    at = {p: k for k, p in enumerate(lvl.tree)}
    for p, edge in lvl.tree.items():
        if edge is None:
            assert p == lvl.base and at[p] == 0
        else:
            x, i = edge
            assert lvl.gens[i][x] == p and at[x] < at[p]
    found = _frontier_orbit(lvl.base, lambda pts: ([g[x] for x in pts] for g in lvl.gens))
    assert set(lvl.orbit) == found
    for p in lvl.orbit:
        u, path, path_inv = lvl.rep(p), lvl.path(p), lvl.path_inv(p)
        if p == lvl.base:
            assert u is None and path == path_inv == []
        else:
            n = len(u)
            assert u[lvl.base] == p and _product(path, n) == u
            assert is_identity(compose(u, _product(path_inv, n)))
        # the kept inverse word, possibly built before the tree last grew, is
        # still the tree path's: the same generator inverses, by identity
        fresh, x = [], p
        while lvl.tree[x] is not None:
            x, i = lvl.tree[x]
            fresh.append(lvl.gen_invs[i])
        assert len(path_inv) == len(fresh) and all(a is b for a, b in zip(path_inv, fresh))


@pytest.mark.parametrize("fam,n,q", SUBGROUP_FRAMES)
def test_schreier_trees_stay_valid_after_every_new_generator(fam, n, q, monkeypatch):
    add_gen = _Level.add_gen
    checked = []

    def add_gen_and_check(lvl, g):
        add_gen(lvl, g)
        _check_level(lvl)
        checked.append(lvl)

    monkeypatch.setattr(_Level, "add_gen", add_gen_and_check)
    dom, ambient = _ambient(fam, n, q)
    rng = random.Random(3)
    for _ in range(2):
        gens = [random_element(ambient, rng) for _ in range(2)]
        plain = StabChain(gens, dom.size)
        targeted = StabChain(gens, dom.size, target_order=plain.order())
        assert targeted.order() == plain.order()
    assert len(checked) > 10


def test_a_dropped_chain_is_freed_without_the_cycle_collector():
    # the levels share the chain's generator inverses through a plain dict;
    # a level that pointed back to its chain would keep every dead chain
    # alive until a cyclic collection
    dom, ambient = _ambient("Sp", 4, 3)
    rng = random.Random(1)
    gens = [random_element(ambient, rng) for _ in range(2)]
    gc.disable()
    try:
        for target in (None, ambient.order()):
            chain = StabChain(gens + ambient.strong_gens(), dom.size, target_order=target)
            chain.coset_key(gens[0])
            assert chain._invs and any(u is not None for lvl in chain.levels
                                       for u in lvl._reps.values())
            ref = weakref.ref(chain)
            del chain
            assert ref() is None
    finally:
        gc.enable()


def test_an_untargeted_chain_sifts_without_kept_transversals():
    # sifts and Schreier generators walk the tree paths; keeping u_p^-1 for
    # every orbit point took a 12.4 MiB peak on these 728 points
    spec = gens_classical("Sp", 6, 3)
    dom = nonzero_vectors(spec.frame)
    dom.perms_of(spec.gens)
    tracemalloc.start()
    try:
        chain = bsgs(spec.gens, dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.order() == 9170703360
    assert peak <= 2 * 2 ** 20


def test_a_sift_follows_only_the_known_base_points_no_level_fixes():
    # on the Sp_6(3) triple, G's bases are the whole known base e_1..e_6, so
    # its verdicts follow no point; H's bases are e_2 and e_1, so an element
    # passing both of H's levels is told from the identity by e_3..e_6 alone
    G = gens_classical("Sp", 6, 3)
    H, _, _ = ext_field_subgroup("Sp", 1, 3, 3)
    dom = nonzero_vectors(G.frame)
    chainG, chainH = bsgs(G.gens, dom), bsgs(H.gens, dom)
    assert sorted(lvl.base for lvl in chainG.levels) == sorted(dom.known_base)
    assert chainG._known_rest == []
    assert [lvl.base for lvl in chainH.levels] == [2, 0]
    assert chainH._known_rest == [8, 26, 80, 242]
    plain = StabChain(dom.perms_of(H.gens), dom.size)
    assert _levels(plain) == _levels(chainH)
    rng = random.Random(7)
    # G's first two bases are H's, so its deeper levels give elements that
    # fix both of them
    assert [lvl.base for lvl in chainG.levels[:2]] == [2, 0]
    samples = [random_element(chainG, rng) for _ in range(150)]
    samples += [random_element(chainG, rng, first=2) for _ in range(50)]
    samples += [random_element(chainH, rng) for _ in range(50)]
    fixing = [g for g in samples if g[2] == 2 and g[0] == 0 and not is_identity(g)]
    assert len(fixing) >= 45
    verdicts = [chainH.contains(g) for g in samples]
    assert verdicts == [plain.contains(g) for g in samples]
    assert verdicts.count(True) >= 50 and not any(chainH.contains(g) for g in fixing)
    assert all(chainG.contains(g) for g in samples)


def test_strong_gens_lists_each_strong_generator_once():
    # a strong generator of level i is one of the generators of levels 0..i;
    # level 0 lists every one once, and the derived series and the coset
    # orbit read that list
    sp = gens_classical("Sp", 4, 3)
    dom = nonzero_vectors(sp.frame)
    chain = bsgs(sp.gens, dom)
    assert len(chain.levels) >= 2
    gens = chain.strong_gens()
    assert gens == chain.levels[0].gens
    assert len({id(g) for g in gens}) == len(gens)
    assert all(any(h is g for h in gens) for lvl in chain.levels for g in lvl.gens)
    assert StabChain(gens, dom.size).order() == chain.order() == 51840


def test_a_chain_without_a_known_base_forms_no_product_to_sift(monkeypatch):
    # with no known base every point is known: a verdict follows the points
    # that are not base points, up to the first that moves
    import factorlab.perm as perm

    dom, ambient = _ambient("Sp", 4, 3)
    rng = random.Random(4)
    gens = ambient.levels[1].gens
    plain = StabChain(gens, dom.size)
    based = StabChain(gens, dom.size, known_base=dom.known_base)
    assert _levels(plain) == _levels(based)
    samples = [random_element(ambient, rng) for _ in range(40)]
    samples += [random_element(plain, rng) for _ in range(40)]
    samples += [list(range(dom.size))]
    calls = []
    monkeypatch.setattr(perm, "_product", lambda *args: calls.append("_product"))
    monkeypatch.setattr(perm, "is_identity", lambda *args: calls.append("is_identity"))
    verdicts = [plain.contains(g) for g in samples]
    assert calls == []
    assert verdicts == [based.contains(g) for g in samples]
    assert 40 < verdicts.count(True) < len(samples)
    bases = [lvl.base for lvl in plain.levels]
    assert sorted(plain._known_rest + bases) == list(range(dom.size))
