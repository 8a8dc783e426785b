import math
import random

import pytest

from factorlab.errors import (
    IllegalParameters,
    NonIntegralQuotient,
    ShapeSyntaxError,
    UnboundSymbol,
    UnknownFamily,
)
from factorlab.shapes import (
    arith_symbols,
    classical_order,
    factorize,
    named_order,
    order_of,
    parse_condition,
    parse_shape,
    ppd,
    print_shape,
)


def roundtrip(s):
    ast = parse_shape(s)
    printed = print_shape(ast)
    ast2 = parse_shape(printed)
    assert ast2 == ast
    assert print_shape(ast2) == printed
    return ast


def test_parse_basic_shapes():
    ast = roundtrip("2^3:SL(3,2)")
    assert ast == (":", ("pow", ("int", 2), ("int", 3)),
                   ("family", "SL", False, ("int", 3), ("int", 2)))

    ast = roundtrip("[gcd(q^5,q^6/4)]:SL(2,q)")
    assert ast[0] == ":" and ast[1][0] == "bracket"

    ast = roundtrip("3.M22")
    assert ast == (".", ("int", 3), ("named", "M22"))

    roundtrip("(SL(2,3) x SL(2,9))/2")
    roundtrip("q^c:Sp(a,q^(2*b))")
    roundtrip("[q^(c-2*b+1)].SL(a-1,q^(2*b))")
    roundtrip("Omega-(2*a,q^b):[gcd(2,b)]")
    roundtrip("3^(2+4):(SL(2,5) x 8)")
    roundtrip("Sp(4,2)'")
    roundtrip("2^(1+4).A5")
    roundtrip("Sz(q^(m/2))")
    roundtrip("D(2*(q^(m/2)-1))")
    roundtrip("[(q-1)/2].2")


def test_shapes_are_arith_nodes():
    # separators are left-associative binary nodes, '/k' binds loosest, and a
    # parenthesized shape keeps its parentheses
    ast = roundtrip("(SL(2,3) x 2^3:A7.2)/2")
    sl = ("family", "SL", False, ("int", 2), ("int", 3))
    ext = (".", (":", ("pow", ("int", 2), ("int", 3)), ("named", "A7")), ("int", 2))
    assert ast == ("div", ("paren", ("x", sl, ext)), ("int", 2))
    assert roundtrip("Sp(4,2)'") == ("family", "Sp", True, ("int", 4), ("int", 2))
    assert print_shape(parse_shape("SL(2,q^b^2)")) == "SL(2,q^(b^2))"
    assert arith_symbols(parse_shape("[q^c]:Sp(a-2,q^b) x M22")) == {"q", "c", "a", "b"}


def test_parse_errors():
    with pytest.raises(ShapeSyntaxError):
        parse_shape("SL(3,2")
    with pytest.raises(UnknownFamily):
        parse_shape("Foo(3,2)")
    with pytest.raises(UnboundSymbol):
        order_of("SL(a,q)", {"q": 4})


def test_parse_error_at_the_end_of_input_says_so():
    end = "found end of input at position"
    with pytest.raises(ShapeSyntaxError, match=f"^expected arithmetic, {end} 3$"):
        parse_condition("q +")
    with pytest.raises(ShapeSyntaxError, match=rf"^expected \), {end} 6$"):
        parse_shape("SL(3,2")


def test_order_examples():
    assert order_of("2^3:SL(3,2)", {}) == 1344
    assert order_of("[gcd(q^5,q^6/4)]:SL(2,q)", {"q": 2}) == 96
    assert order_of("(SL(2,3) x SL(2,9))/2", {}) == 8640
    assert order_of("3.M22", {}) == 3 * 443520
    assert order_of("q^(a*b-b):SL(a-1,q^b)", {"q": 2, "a": 2, "b": 2}) == 4


def test_order_multiplicative_over_separators():
    rng = random.Random(5)
    pieces = ["SL(3,2)", "2^3", "A7", "[q^2]", "Sp(4,3)"]
    for _ in range(20):
        k = rng.randrange(2, 4)
        chosen = [rng.choice(pieces) for _ in range(k)]
        seps = [rng.choice([":", ".", " x "]) for _ in range(k - 1)]
        s = chosen[0]
        for sep, piece in zip(seps, chosen[1:]):
            s += sep + piece
        expect = math.prod(order_of(p, {"q": 3}) for p in chosen)
        assert order_of(s, {"q": 3}) == expect


def test_nonintegral_quotient():
    with pytest.raises(NonIntegralQuotient):
        order_of("SL(3,2)/5", {})
    with pytest.raises(NonIntegralQuotient):
        order_of("[q/4]", {"q": 2})
    with pytest.raises(NonIntegralQuotient, match="bracket order 0 < 1"):
        order_of("[q-2].2", {"q": 2})
    with pytest.raises(NonIntegralQuotient, match="negative exponent -1"):
        order_of("q^(a-2):SL(2,q)", {"q": 2, "a": 1})


def test_a_prime_reads_only_on_a_primed_family():
    # GL(3,3)' is SL(3,3) of order 5,616 and Omega+(4,2)' has order 9, but no
    # row says so; a ' there would read the unprimed 11,232 and 36
    for text, pos in (("GL(3,3)'", 7), ("Omega+(4,2)'", 11), ("q^2:GL(2,q)'", 11)):
        with pytest.raises(ShapeSyntaxError, match="no PRIMED row defines") as info:
            parse_shape(text)
        assert info.value.pos == pos
    assert order_of("Sp(4,2)'", {}) == 360
    assert order_of("Sp(6,2)'", {}) == classical_order("Sp", 6, 2)
    assert order_of("G2(q)'", {"q": 2}) == 6048


def test_classical_orders_known_values():
    assert classical_order("SL", 4, 2) == 20160
    assert classical_order("SU", 4, 2) == 25920
    assert classical_order("SU", 4, 2) // classical_order("SU", 3, 2) == 120
    assert classical_order("Sp", 6, 2) == 1451520
    assert classical_order("Omega+", 8, 2) == 174182400
    assert classical_order("SigmaL", 2, 4) == 120
    assert classical_order("Omega-", 4, 2) == 60  # PSL(2,4)
    assert classical_order("OmegaOdd", 7, 3) == 4585351680
    assert classical_order("G2", 2, primed=True) == 6048
    assert classical_order("Sp", 4, 2, primed=True) == 360
    assert classical_order("Sp", 0, 5) == 1
    assert classical_order("SL", 1, 9) == 1
    assert classical_order("POmega+", 8, 3) == 4952179814400
    assert classical_order("Omega-", 6, 3) == 6531840
    assert classical_order("GammaO-", 4, 4) == 16320
    assert classical_order("Spin", 9, 3) == 2 * classical_order("OmegaOdd", 9, 3)
    assert classical_order("TwoG2", 3) == 1512
    assert classical_order("Sz", 8) == 29120
    assert classical_order("D", 18) == 18
    assert classical_order("A", 9) == 181440


ZERO_SPACE = ("GL", "SL", "PGL", "PSL", "GammaL", "SigmaL", "PGaL", "PSigmaL",
              "GU", "SU", "PGU", "PSU", "GammaU", "Sp", "PSp", "GammaSp", "AGL", "ASL", "AGaL")
EVEN_ORTHOGONAL = tuple(f"{base}{sign}" for base in ("O", "GO", "SO", "GammaO", "Omega", "POmega")
                        for sign in "+-")
ODD_ORTHOGONAL = ("OOdd", "GOOdd", "GammaOOdd", "OmegaOdd", "Spin")


@pytest.mark.parametrize("family, n", [
    *((f, 0) for f in ZERO_SPACE),
    *((f, 0) for f in EVEN_ORTHOGONAL),
    *((f, 1) for f in ODD_ORTHOGONAL),
])
def test_least_dimension(family, n):
    """An orthogonal family below its least dimension (even n >= 2, odd
    n >= 3) is illegal; the others are the trivial group on the zero space."""
    for q in (4, 9):
        if family in ZERO_SPACE:
            assert classical_order(family, n, q) == 1
        else:
            with pytest.raises(IllegalParameters):
                classical_order(family, n, q)


def test_named_orders():
    assert named_order("A7") == 2520
    assert named_order("S6") == 720
    assert named_order("D10") == 10
    assert named_order("M10") == 720
    assert named_order("Co3") == 495766656000
    with pytest.raises(UnknownFamily):
        named_order("Nope")


def test_factorize():
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randrange(2, 10 ** 12)
        f = factorize(n)
        acc = 1
        for p, e in f.items():
            assert p > 1
            acc *= p ** e
        assert acc == n
    big = (2 ** 46 - 1) * (2 ** 46 + 1)
    f = factorize(big)
    assert math.prod(p ** e for p, e in f.items()) == big


def _oracle_ppd(a, k):
    # literal definition, via a full factorization of a^k - 1
    if (a, k) == (2, 6):
        return frozenset({7})
    out = set()
    for r in factorize(a ** k - 1):
        if all((a ** j - 1) % r for j in range(1, k)):
            out.add(r)
    return frozenset(out)


def test_ppd_conventions():
    assert ppd(2, 4) == frozenset({5})
    assert ppd(2, 6) == frozenset({7})
    assert ppd(2, 2) == frozenset({3})
    assert ppd(3, 2) == frozenset()  # 3 = 2^2 - 1 is Mersenne
    assert ppd(7, 2) == frozenset()  # 7 = 2^3 - 1 is Mersenne
    assert ppd(2, 10) == frozenset({11})
    assert ppd(4, 3) == frozenset({7})  # hits non-prime a as well


def test_ppd_matches_oracle_small():
    for a in range(2, 9):
        for k in range(2, 13):
            assert ppd(a, k) == _oracle_ppd(a, k), (a, k)
