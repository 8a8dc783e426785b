"""The table-driven action layer agrees with the per-point action
v |-> code(g.act(decode(v))) on every point it touches."""

from collections import deque

import pytest

from factorlab.construct import frobenius_elem, gens_classical, minus_pair, quadratic_form
from factorlab.errors import DomainOverflow, PointNotInDomain
from factorlab.gf import FieldSpec
from factorlab.linalg import GroupElem, MatF, SpaceFrame, vec_frob, vec_mat
from factorlab.perm import (
    _decode,
    _encode,
    _frontier_orbit,
    contragredient,
    form_orbit,
    nonzero_vectors,
    norm_level_set,
    orbit,
    ordered_vector_pairs,
    refined_antiflags,
    singular_vectors,
    vector_table,
)

# one frame each over GF(2), GF(3), GF(4) and GF(9)
FRAMES = [("Sp", 4, 2), ("Sp", 4, 3), ("SU", 4, 2), ("SU", 3, 3)]


def _elements(fam, n, q):
    """The classical generators, a semilinear element with frob != 0 where
    the field has one, and a product of the two."""
    spec = gens_classical(fam, n, q)
    gens = list(spec.gens)
    if spec.frame.field.f > 1:
        phi = frobenius_elem(spec.frame, 1)
        assert phi.frob != 0
        gens += [phi, gens[0].mul(phi)]
    return spec.frame, gens


def _code_act(frame, g, code):
    return _encode(frame, g.act(_decode(frame, code)))


# odd p splits a code into halves of ceil(n/2) coordinates: GF(3)^6 (the
# frame of the Sp_6(3) triple), GF(9)^4 and, with an odd n, GF(3)^5
TABLE_FRAMES = FRAMES + [("Sp", 6, 3), ("SU", 4, 3), ("OmegaOdd", 5, 3)]


@pytest.mark.parametrize("fam,n,q", TABLE_FRAMES)
def test_vector_table_matches_per_point_action(fam, n, q):
    frame, gens = _elements(fam, n, q)
    size = frame.field.q ** frame.n
    for g in gens:
        T = vector_table(frame, g)
        assert len(T) == size
        assert list(T) == [_code_act(frame, g, c) for c in range(size)]


@pytest.mark.parametrize("fam,n,q", FRAMES)
def test_contragredient_table_matches_inverse_transpose(fam, n, q):
    frame, gens = _elements(fam, n, q)
    F = frame.field
    for g in gens:
        ainv_t = g.mat.inv().transpose()
        D = vector_table(frame, contragredient(g))
        for pc in range(F.q ** frame.n):
            phi2 = vec_frob(F, vec_mat(F, _decode(frame, pc), ainv_t), g.frob)
            assert D[pc] == _encode(frame, phi2)


@pytest.mark.parametrize("fam,n,q", FRAMES)
def test_vector_domains_permute_like_per_point_action(fam, n, q):
    frame, gens = _elements(fam, n, q)
    for dom in (nonzero_vectors(frame), norm_level_set(frame, 1)):
        for g in gens:
            want = [dom.index[_code_act(frame, g, c)] for c in dom.points]
            assert dom.perm_of(g) == want
            assert dom.perm_of(g) is dom.perm_of(g)  # memoised per domain


def test_empty_level_set_permutes_to_the_empty_list():
    # beta(v, v) = 0 for every v under a symplectic form
    frame, gens = _elements("Sp", 4, 2)
    dom = norm_level_set(frame, 1)
    assert dom.size == 0
    assert all(dom.perm_of(g) == [] for g in gens)


def test_refined_antiflags_permute_like_per_point_action():
    for fam, n, q in [("SL", 3, 2), ("SL", 2, 4), ("SL", 2, 3)]:
        frame, gens = _elements(fam, n, q)
        F = frame.field
        dom = refined_antiflags(frame)
        for g in gens:
            ainv_t = g.mat.inv().transpose()
            want = []
            for vc, pc in dom.points:
                phi2 = vec_frob(F, vec_mat(F, _decode(frame, pc), ainv_t), g.frob)
                want.append(dom.index[(_code_act(frame, g, vc), _encode(frame, phi2))])
            assert dom.perm_of(g) == want


def test_pair_domains_permute_like_per_point_action():
    sp = gens_classical("Sp", 4, 3)
    frame = sp.frame
    e1, f1 = frame.basis(0), frame.basis(1)
    ordered = ordered_vector_pairs(frame, (e1, f1), sp.gens)
    # hyperbolic pairs (e, f) with beta(e, f) = 1 in Sp_4(3): 80 * 27
    assert ordered.size == 80 * 27
    for g in sp.gens:
        want = []
        for u, w in ordered.points:
            want.append(ordered.index[(_code_act(frame, g, u), _code_act(frame, g, w))])
        assert ordered.perm_of(g) == want


def test_projective_and_form_domains_permute_like_per_point_action():
    sp = gens_classical("Sp", 4, 2)
    seed = SpaceFrame.quadratic(sp.frame.field, 4, "-").form
    forms = form_orbit(sp.frame, seed, sp.gens)
    codes = range(1, 2 ** 4)
    for g in sp.gens:
        ginv = g.inv()
        want = []
        for point in forms.points:
            table = forms.values[point]
            image = {c: table[_code_act(sp.frame, ginv, c)] for c in codes}
            want.append(forms.index[forms.key(image)])
        assert forms.perm_of(g) == want


def _per_point_orbit(frame, gens, start):
    seen, out, queue = {start}, [start], deque([start])
    while queue:
        p = queue.popleft()
        for g in gens:
            img = _code_act(frame, g, p)
            if img not in seen:
                seen.add(img)
                out.append(img)
                queue.append(img)
    return out


def test_orbit_on_permutations_lists_points_in_domain_order():
    sl = gens_classical("SL", 3, 3)
    dom = nonzero_vectors(sl.frame)
    for start in dom.points[:5]:
        got = orbit(sl.gens, start, dom)
        assert len(got) == dom.size
        assert got == sorted(_per_point_orbit(sl.frame, sl.gens, start), key=dom.index.get)


def _minus_pairs():
    """T6.19's ambient Omega+(8, 2) and the seed of its ordered minus pairs."""
    omega = gens_classical("Omega+", 8, 2)
    return omega, minus_pair(omega.frame)


def test_frontier_pair_orbit_equals_the_sorted_bfs_orbit():
    omega, seed = _minus_pairs()
    frame = omega.frame
    dom = ordered_vector_pairs(frame, seed, omega.gens)
    tables = [vector_table(frame, g) for g in omega.gens]
    start = (_encode(frame, seed[0]), _encode(frame, seed[1]))
    found = _frontier_orbit(start, lambda pts: ([(T[a], T[b]) for a, b in pts] for T in tables))
    assert dom.points == sorted(found)
    assert dom.size == 6720


def test_orbit_domain_caps_are_exact():
    omega, seed = _minus_pairs()
    assert ordered_vector_pairs(omega.frame, seed, omega.gens, 6720).size == 6720
    with pytest.raises(DomainOverflow):
        ordered_vector_pairs(omega.frame, seed, omega.gens, 6719)
    sp = gens_classical("Sp", 4, 2)
    seed = quadratic_form(sp.frame, "-")
    size = form_orbit(sp.frame, seed, sp.gens).size
    assert form_orbit(sp.frame, seed, sp.gens, size).size == size
    with pytest.raises(DomainOverflow):
        form_orbit(sp.frame, seed, sp.gens, size - 1)


def test_perm_of_raises_when_an_image_leaves_the_domain():
    # over GF(2), e1 -> e1 + f1 maps a singular vector to a nonsingular one
    F = FieldSpec.get(2)
    frame = SpaceFrame.quadratic(F, 4, "+")
    dom = singular_vectors(frame)
    rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    rows[0][1] = 1
    with pytest.raises(PointNotInDomain):
        dom.perm_of(GroupElem(MatF(F, rows)))


def test_odd_field_add_and_neg_tables_match_digit_loops():
    for q in (3, 9, 25, 27):
        F = FieldSpec.get(q)
        for x in range(q):
            assert F.neg(x) == F._neg_digits(x)
            for y in range(q):
                assert F.add(x, y) == F._add_digits(x, y)
