import pytest

from factorlab.errors import DivisionByZero, NotASubfield
from factorlab.gf import (
    FieldSpec,
    find_irreducible_mu,
    find_mu_norm_minus_one,
    split_prime_power,
)


def test_prime_power_helpers():
    for p in (1, 15):
        with pytest.raises(ValueError):
            FieldSpec(p, 1)
    assert FieldSpec(13, 1).q == 13
    assert split_prime_power(8) == (2, 3)
    assert split_prime_power(81) == (3, 4)
    with pytest.raises(ValueError):
        split_prime_power(12)


def test_gf4_is_the_expected_field():
    F4 = FieldSpec.get(4)
    assert F4.modulus == (1, 1, 1)  # x^2 + x + 1
    w = 2  # the class of x
    assert F4.mul(w, w) == F4.add(w, 1) == 3  # w^2 = w + 1
    assert F4.inv(w) == 3
    assert F4.pow(w, 0) == 1
    assert F4.pow(5 % 4, 0) == 1


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        FieldSpec.get(9).inv(0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_field_axioms_exhaustive(q):
    F = FieldSpec.get(q)
    els = list(F.elements())
    for x in els:
        assert F.add(x, 0) == x and F.mul(x, 1) == x
        assert F.add(x, F.neg(x)) == 0
        if x:
            assert F.mul(x, F.inv(x)) == 1
    triples = [(x, y, z) for x in els for y in els for z in els]
    for x, y, z in triples:
        assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
        assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
        assert F.mul(x, y) == F.mul(y, x)


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_frobenius_is_ring_automorphism(q):
    F = FieldSpec.get(q)
    for x in F.elements():
        assert F.frobenius(x, F.f) == x
        for y in F.elements():
            assert F.frobenius(F.add(x, y)) == F.add(F.frobenius(x), F.frobenius(y))
            assert F.frobenius(F.mul(x, y)) == F.mul(F.frobenius(x), F.frobenius(y))
    assert F.frobenius(0, 1) == 0


def test_frobenius_gf4_example():
    F4 = FieldSpec.get(4)
    assert F4.frobenius(2, 1) == 3  # w^2 = w + 1


@pytest.mark.parametrize("q,b", [(2, 2), (2, 3), (3, 2), (4, 2), (2, 4)])
def test_tower_embedding_is_ring_hom(q, b):
    sub = FieldSpec.get(q)
    ext = sub.extend(b)
    assert ext.q == q ** b
    for x in sub.elements():
        assert ext.restrict(ext.embed(x, sub), sub) == x
        for y in sub.elements():
            assert ext.embed(sub.add(x, y), sub) == ext.add(ext.embed(x, sub), ext.embed(y, sub))
            assert ext.embed(sub.mul(x, y), sub) == ext.mul(ext.embed(x, sub), ext.embed(y, sub))


def test_unregistered_subfield_raises():
    F8 = FieldSpec.get(8)
    with pytest.raises(NotASubfield):
        F8.embed(1, FieldSpec.get(9))


def test_trace_examples():
    F2 = FieldSpec.get(2)
    F4 = F2.extend(2)
    w = 2
    assert F4.trace_to(w, F2) == 1  # w + w^2 = 1
    assert F4.trace_to(0, F2) == 0
    # trace of 1 from GF(q^b) is b mod p
    F9 = FieldSpec.get(3).extend(2)
    assert F9.trace_to(F9.embed(1, FieldSpec.get(3)), FieldSpec.get(3)) == 2


@pytest.mark.parametrize("q,b", [(2, 2), (3, 2), (4, 2), (2, 3)])
def test_trace_is_linear_and_surjective(q, b):
    sub = FieldSpec.get(q)
    ext = sub.extend(b)
    hit = set()
    for x in ext.elements():
        hit.add(ext.trace_to(x, sub))
        for y in ext.elements():
            if x < y:
                lhs = ext.trace_to(ext.add(x, y), sub)
                rhs = sub.add(ext.trace_to(x, sub), ext.trace_to(y, sub))
                assert lhs == rhs
                break
    assert hit == set(sub.elements())


def test_find_irreducible_mu():
    assert find_irreducible_mu(FieldSpec.get(2)) == 1
    F4 = FieldSpec.get(4)
    mu = find_irreducible_mu(F4)
    assert all(F4.add(F4.mul(t, t), F4.add(t, mu)) != 0 for t in F4.elements())
    F3 = FieldSpec.get(3)
    mu3 = find_irreducible_mu(F3)
    assert mu3 == 2  # 1 - 4*mu = -7 = 2 mod 3, a nonsquare


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_find_mu_norm_minus_one(q):
    sub = FieldSpec.get(q)
    ext = sub.extend(2)
    mu = find_mu_norm_minus_one(ext, sub)
    assert ext.pow(mu, q - 1) == ext.neg(1)


def test_serialization_roundtrip():
    F = FieldSpec.get(8)
    doc = F.serialize()
    assert FieldSpec.deserialize(doc) == F
