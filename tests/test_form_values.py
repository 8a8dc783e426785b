"""form_values agrees with the per-vector form at every code, and the
domains built on it (level sets, form orbits keyed by their values on
S = {e_i} + {e_i + e_j}, isotropic points) match the per-vector results."""

import pytest

from factorlab.construct import _isotropic_points, frobenius_elem, gens_classical
from factorlab.gf import FieldSpec
from factorlab.linalg import FormSpec, SpaceFrame
from factorlab.perm import _decode, _encode, form_orbit, form_values


def _quadratic(q, n, sign):
    return SpaceFrame.quadratic(FieldSpec.get(q), n, sign)


def _symmetric(q, n):
    # the polar form of an odd-dimensional quadratic frame, as a bilinear form
    frame = _quadratic(q, n, "odd")
    return SpaceFrame(frame.field, n, FormSpec("symmetric", frame.form.gram))


FORM_FRAMES = {
    "quadratic GF(2)^8 +": lambda: _quadratic(2, 8, "+"),
    "quadratic GF(2)^8 -": lambda: _quadratic(2, 8, "-"),
    "quadratic GF(3)^7": lambda: _quadratic(3, 7, "odd"),
    "quadratic GF(4)^4 +": lambda: _quadratic(4, 4, "+"),
    "quadratic GF(4)^4 -": lambda: _quadratic(4, 4, "-"),
    "hermitian GF(4)^4": lambda: SpaceFrame.hermitian(FieldSpec.get(4), 4),
    "hermitian GF(9)^4": lambda: SpaceFrame.hermitian(FieldSpec.get(9), 4),
    "hermitian GF(4)^3": lambda: SpaceFrame.hermitian(FieldSpec.get(4), 3),
    "alternating GF(2)^6": lambda: SpaceFrame.symplectic(FieldSpec.get(2), 3),
    "alternating GF(3)^4": lambda: SpaceFrame.symplectic(FieldSpec.get(3), 2),
    "alternating GF(4)^4": lambda: SpaceFrame.symplectic(FieldSpec.get(4), 2),
    "symmetric GF(3)^5": lambda: _symmetric(3, 5),
}


@pytest.mark.parametrize("name", sorted(FORM_FRAMES))
def test_form_values_match_per_vector_form(name):
    frame = FORM_FRAMES[name]()
    form = frame.form
    V = form_values(frame)
    assert len(V) == frame.field.q ** frame.n
    for code, value in enumerate(V):
        v = _decode(frame, code)
        want = form.quadratic(v) if form.kind == "quadratic" else form.bilinear(v, v)
        assert value == want, (code, v)


def _check_form_orbit(forms):
    """Points are the S-keys of their full tables, sorted by the tables, and
    two points have equal keys exactly when their full tables are equal."""
    tables = [forms.values[p] for p in forms.points]
    assert [forms.key(t) for t in tables] == forms.points
    assert len(set(forms.points)) == len({tuple(t) for t in tables}) == forms.size
    assert tables == sorted(tables)


@pytest.mark.parametrize("sign,size", [("+", 136), ("-", 120)])
def test_form_orbit_keys_separate_the_sp8_2_orbits(sign, size):
    sp = gens_classical("Sp", 8, 2)
    seed = _quadratic(2, 8, sign).form
    forms = form_orbit(sp.frame, seed, sp.gens)
    assert forms.size == size
    _check_form_orbit(forms)
    seed_table = form_values(sp.frame, seed)
    assert forms.values[forms.key(seed_table)] == seed_table


@pytest.mark.parametrize("sign,size", [("+", 136), ("-", 120)])
def test_form_orbit_permutes_like_per_point_action_over_gf4(sign, size):
    sp = gens_classical("Sp", 4, 4)
    frame, F = sp.frame, sp.frame.field
    forms = form_orbit(frame, _quadratic(4, 4, sign).form, sp.gens)
    assert forms.size == size
    _check_form_orbit(forms)
    phi = frobenius_elem(frame, 1)
    assert phi.frob != 0
    codes = range(1, F.q ** frame.n)
    for g in sp.gens + [phi, sp.gens[0].mul(phi)]:
        ginv = g.inv()
        moved = {c: _encode(frame, ginv.act(_decode(frame, c))) for c in codes}
        want = []
        for table in map(forms.values.__getitem__, forms.points):
            image = {c: F.frobenius(table[moved[c]], g.frob) for c in codes}
            want.append(forms.index[forms.key(image)])
        assert forms.perm_of(g) == want


@pytest.mark.parametrize("n,q", [(3, 3), (4, 2), (5, 2)])
def test_isotropic_points_match_per_vector_form(n, q):
    frame = gens_classical("SU", n, q).frame
    form = frame.form
    want = []
    for code in range(1, frame.field.q ** n):
        v = _decode(frame, code)
        if next(x for x in v if x) == 1 and form.bilinear(v, v) == 0:
            want.append(v)
    assert _isotropic_points(frame) == want
