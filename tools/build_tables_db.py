#!/usr/bin/env python3
"""Build src/factorlab/data/tables_db.json, the machine-readable database of
the classification tables (linear, unitary, odd orthogonal, minus type, plus
type, symplectic; one record per checkable sub-row).

Run from the repo root:  python3 tools/build_tables_db.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from factorlab.shapes import parse_shape, print_shape  # noqa: E402

R = []


def rec(rid, family, G, H, K, I, params=None, where=None, derived=None, ref="",
        tier_b=None, remarks=""):
    table, rest = rid[1:].split(".")
    row = int(rest.rstrip("abcdefghijklmnop"))
    sub = rest[len(str(row)):] or None
    R.append({
        "id": rid,
        "table": int(table),
        "row": row,
        "sub": sub,
        "family": family,
        "shapes": {"G": G, "H": H, "K": K, "int": I},
        "params": params or [],
        "where": where or [],
        "derived": derived or {},
        "ref": ref,
        "tier_b": tier_b,
        "remarks": remarks,
    })


P = lambda n, mn, **kw: {"n": n, "min": mn, **kw}
Q = lambda **kw: {"n": "q", "pp": True, **kw}


# ---------------------------------------------------------------------------
# Table 1: linear groups (ref labels from the source examples)
# ---------------------------------------------------------------------------

rec("T1.1a", "linear",
    "SL(a*b,q)", "SL(a,q^b)", "q^(a*b-1):SL(a*b-1,q)", "q^(a*b-b):SL(a-1,q^b)",
    params=[P("a", 2), P("b", 2), Q()],
    ref="ex:Linear01")
rec("T1.1b", "linear",
    "SL(a*b,q)", "Sp(a,q^b)'", "q^(a*b-1):SL(a*b-1,q)", "[q^c]:Sp(a-2,q^b)",
    params=[P("a", 4, even=True), P("b", 1), Q()],
    where=["a*b >= 3"],
    derived={"c": "linear_c"},
    ref="ex:Linear02",
    tier_b={
        "bindings": [{"a": 4, "b": 1, "q": 2}],
        "H": ["derived_of", ["classical", "Sp", 4, 2]],
        "domain": ["NonzeroVectors"],
        "route": "stab",
    },
    remarks="a=2 coincides with T1.1a (Sp_2 = SL_2) and is recorded there")
rec("T1.1c", "linear",
    "SL(6*b,q)", "G2(q^b)'", "q^(6*b-1):SL(6*b-1,q)", "[gcd(q^(5*b),q^(6*b)/4)]:SL(2,q^b)",
    params=[P("b", 1), Q(even=True)],
    ref="ex:Linear03")
rec("T1.2a", "linear",
    "SL(2*m,q)", "Sp(2*m,q)", "SL(2*m-1,q)", "Sp(2*m-2,q)",
    params=[P("m", 2), Q()],
    ref="ex:Sp<SL")
rec("T1.2b", "linear",
    "SL(4,2)", "Sp(4,2)'", "SL(3,2)", "Sp(2,2)'",
    ref="ex:Sp<SL",
    remarks="the primed member of the row; the prime only bites at (m,q)=(2,2)")
rec("T1.3a", "linear",
    "SL(2*m,2)", "SigmaL(m,4)", "SL(2*m-1,2)", "SL(m-1,4)",
    params=[P("m", 2)],
    ref="ex:SL_m<SL_2m",
    tier_b={
        "bindings": [{"m": 2}],
        "H": ["blowup_sigma", "SL", 2, 4],
        "domain": ["RefinedAntiflags"],
        "route": "stab",
    })
rec("T1.3b", "linear",
    "SL(2*m,2)", "GammaSp(m,4)", "SL(2*m-1,2)", "Sp(m-2,4)",
    params=[P("m", 4, even=True)],
    ref="ex:Sp<SL-02",
    remarks="m=2 coincides with T1.3a")
rec("T1.4a", "linear",
    "SL(2*m,2):2", "SL(m,4):2", "SL(2*m-1,2):2", "SL(m-1,4)",
    params=[P("m", 2)], ref="ex:SL_m<SL_2m")
rec("T1.4b", "linear",
    "SL(2*m,2):2", "Sp(m,4):2", "SL(2*m-1,2):2", "Sp(m-2,4)",
    params=[P("m", 4, even=True)], ref="ex:Sp<SL-02")
rec("T1.5a", "linear",
    "SL(2*m,4):2", "SL(m,16):4", "SL(2*m-1,4):2", "SL(m-1,16)",
    params=[P("m", 2)], ref="ex:SL_m<SL_2m")
rec("T1.5b", "linear",
    "SL(2*m,4):2", "Sp(m,16):4", "SL(2*m-1,4):2", "Sp(m-2,16)",
    params=[P("m", 4, even=True)], ref="ex:Sp<SL-02")
rec("T1.6", "linear",
    "SL(6,q)", "G2(q)", "SL(5,q)", "SL(2,q)",
    params=[Q(even=True)], ref="ex:G_2<Sp")
rec("T1.7", "linear", "SL(12,2)", "G2(4):2", "SL(11,2)", "SL(2,4)", ref="ex:Sp<SL-02")
rec("T1.8", "linear", "SL(12,2):2", "G2(4):2", "SL(11,2):2", "SL(2,4)", ref="ex:Sp<SL-02")
rec("T1.9", "linear", "SL(12,4):2", "G2(16):4", "SL(11,4):2", "SL(2,16)", ref="ex:Sp<SL-02")
rec("T1.10a", "linear", "SL(4,2)", "A7", "2^3:SL(3,2)", "PSL(2,7)", ref="ex:Linear02")
rec("T1.10b", "linear", "SL(4,2)", "A7", "SL(3,2)", "7:3", ref="ex:Sp<SL")
rec("T1.11a", "linear", "SL(4,3)", "2.S5", "3^3:SL(3,3)", "3", ref="ex:SL_4(3)")
rec("T1.11b", "linear", "SL(4,3)", "8.A5", "3^3:SL(3,3)", "S3", ref="ex:SL_4(3)")
rec("T1.11c", "linear", "SL(4,3)", "2^(1+4).A5", "3^3:SL(3,3)", "SL(2,3)", ref="ex:SL_4(3)")
rec("T1.12", "linear", "SL(6,3)", "SL(2,13)", "3^5:SL(5,3)", "3", ref="ex:SL_4(3)")
rec("T1.13", "linear", "SL(2,9)", "2.A5", "SL(2,5)", "2.D10", ref="ex:SL-exception1")
rec("T1.14", "linear", "SL(3,4):2", "3.M10", "SL(3,2):2", "S3", ref="ex:SL-exception2")

# ---------------------------------------------------------------------------
# Table 2: unitary groups
# ---------------------------------------------------------------------------

rec("T2.1a", "unitary",
    "SU(2*a*b,q)", "q^c:SL(a,q^(2*b))", "SU(2*a*b-1,q)", "[q^(c-2*b+1)].SL(a-1,q^(2*b))",
    params=[P("a", 2), P("b", 1), Q()],
    derived={"c": "unitary_cI"},
    ref="LemUnitaryPm3")
rec("T2.1b", "unitary",
    "SU(2*a*b,q)", "q^c:Sp(a,q^(2*b))", "SU(2*a*b-1,q)", "[q^(c-2*b+1)].Sp(a-2,q^(2*b))",
    params=[P("a", 4, even=True), P("b", 1), Q()],
    derived={"c": "unitary_cI"},
    ref="LemUnitaryPm3",
    remarks="a=2 coincides with T2.1a")
rec("T2.1c", "unitary",
    "SU(12*b,q)", "q^c:G2(q^(2*b))", "SU(12*b-1,q)", "[q^(c-2*b+1)].SL(2,q^(2*b))",
    params=[P("b", 1), Q(even=True)],
    derived={"c": "unitary_cI_a6"},
    ref="LemUnitaryPm3")
rec("T2.2", "unitary",
    "SU(2*m,q)", "Sp(2*m,q)", "SU(2*m-1,q)", "Sp(2*m-2,q)",
    params=[P("m", 2), Q()],
    ref="LemUnitary09",
    tier_b={
        "bindings": [{"m": 2, "q": 2}, {"m": 2, "q": 3}, {"m": 3, "q": 2}],
        "H": ["sp_in_su", "m", "q"],
        "domain": ["NormLevelSet", 1],
        "route": "stab",
    })
rec("T2.3a", "unitary",
    "SU(2*m,2)", "SL(m,4):2", "SU(2*m-1,2)", "SL(m-1,4)",
    params=[P("m", 2)], ref="ex:Unitary-03")
rec("T2.3b", "unitary",
    "SU(2*m,2)", "Sp(m,4):2", "SU(2*m-1,2)", "Sp(m-2,4)",
    params=[P("m", 4, even=True)], ref="ex:Unitary-03")
rec("T2.4a", "unitary",
    "SU(2*m,2):2", "SL(m,4):2", "SU(2*m-1,2):2", "SL(m-1,4)",
    params=[P("m", 2)], ref="ex:Unitary-03")
rec("T2.4b", "unitary",
    "SU(2*m,2):2", "Sp(m,4):2", "SU(2*m-1,2):2", "Sp(m-2,4)",
    params=[P("m", 4, even=True)], ref="ex:Unitary-03")
rec("T2.5a", "unitary",
    "SU(2*m,4):4", "SL(m,16):4", "SU(2*m-1,4):4", "SL(m-1,16)",
    params=[P("m", 2)], ref="ex:Unitary-03")
rec("T2.5b", "unitary",
    "SU(2*m,4):4", "Sp(m,16):4", "SU(2*m-1,4):4", "Sp(m-2,16)",
    params=[P("m", 4, even=True)], ref="ex:Unitary-03")
rec("T2.6", "unitary",
    "SU(6,q)", "G2(q)", "SU(5,q)", "SL(2,q)",
    params=[Q(even=True)], ref="LemUnitary11")
rec("T2.7a", "unitary", "SU(6,2)", "3.PSU(4,3)", "SU(5,2)", "3^4:A5",
    ref="LemUnitary17",
    remarks="printed table cell says 3^5:A5 (order 14580); with K0 = SU(5,2) "
            "the order identity forces 4860 = |3^4:A5| (the central 3 of H0 "
            "meets K0 trivially)")
rec("T2.7b", "unitary", "SU(6,2)", "3.M22", "SU(5,2)", "PSL(2,11)", ref="LemUnitary17")
rec("T2.8a", "unitary", "SU(12,2)", "G2(4):2", "SU(11,2)", "SL(2,4)", ref="ex:Unitary-03")
rec("T2.8b", "unitary", "SU(12,2)", "3.Suz", "SU(11,2)", "3^5.PSL(2,11)",
    ref="LemUnitary19",
    remarks="printed table cell says 3^6:PSL_2(11); the source lemma and the "
            "order identity give 3^5.PSL_2(11)")
rec("T2.9", "unitary", "SU(12,2):2", "G2(4):2", "SU(11,2):2", "SL(2,4)", ref="ex:Unitary-03")
rec("T2.10", "unitary", "SU(12,4):4", "G2(16):4", "SU(11,4):4", "SL(2,16)", ref="ex:Unitary-03")

# ---------------------------------------------------------------------------
# Table 3: exceptional unitary triples (modulo scalars)
# ---------------------------------------------------------------------------

rec("T3.1", "unitary", "PSU(4,3)", "PSp(4,3)", "PSL(3,4)", "2^4:D10", ref="Lem:UnitaryProof")
rec("T3.2", "unitary", "PSU(4,3):2", "3^4:(A5 x 2)", "PSL(3,4):2", "A5", ref="Lem:UnitaryProof")
rec("T3.3", "unitary", "PSU(4,3):2", "3^4:A6.2", "PSL(3,4):2", "A6", ref="Lem:UnitaryProof")
rec("T3.4", "unitary", "PSU(4,3):4", "3^4:A6.4", "PSL(2,7).4", "S3", ref="Lem:UnitaryProof")
rec("T3.5", "unitary", "PSU(4,5):2", "5^4:(PSL(2,25) x 2).4", "3.A7:2", "AGL(1,5)",
    ref="Lem:UnitaryProof")
rec("T3.6", "unitary", "PSU(9,2)", "J3", "2^(1+14):SU(7,2)", "2^(2+4):(S3 x 3)",
    ref="Lem:UnitaryProof")

# ---------------------------------------------------------------------------
# Table 4: orthogonal groups in odd dimension (q odd throughout)
# ---------------------------------------------------------------------------

rec("T4.1a", "odd-orthogonal",
    "OmegaOdd(2*a*b+1,q)", "(q^(a*b*(a*b-1)/2).q^(a*b)):SL(a,q^b)", "Omega-(2*a*b,q)",
    "[q^((a^2*b^2+a*b-2*b)/2)].SL(a-1,q^b)",
    params=[P("a", 2), P("b", 1), Q(odd=True)],
    where=["a*b >= 3"],
    ref="Ex:OmegaOdd-1",
    tier_b={
        "bindings": [{"a": 3, "b": 1, "q": 3}],
        "H": ["pm_residual", "OmegaOdd", "a", "q"],
        "domain": ["NormLevelSet", 2],
        "route": "stab",
    })
rec("T4.1b", "odd-orthogonal",
    "OmegaOdd(2*a*b+1,q)", "(q^(a*b*(a*b-1)/2).q^(a*b)):Sp(a,q^b)", "Omega-(2*a*b,q)",
    "[q^((a^2*b^2+a*b-2*b)/2)].Sp(a-2,q^b)",
    params=[P("a", 4, even=True), P("b", 1), Q(odd=True)],
    ref="Ex:OmegaOdd-1",
    remarks="a=2 coincides with T4.1a")
rec("T4.2a", "odd-orthogonal",
    "OmegaOdd(7,q)", "G2(q)", "Omega-(6,q)", "SU(3,q)",
    params=[Q(odd=True)], ref="LemOmegaRow1,3,4")
rec("T4.2b", "odd-orthogonal",
    "OmegaOdd(7,q)", "SL(3,q)", "Omega-(6,q)", "[q^2-1]",
    params=[P("f", 1), Q(expr="3^f")], ref="LemOmegaRow1,3,4")
rec("T4.3a", "odd-orthogonal",
    "OmegaOdd(7,q)", "G2(q)", "Omega+(6,q)", "SL(3,q)",
    params=[Q(odd=True)], ref="LemOmega07")
rec("T4.3b", "odd-orthogonal",
    "OmegaOdd(7,q)", "SU(3,q)", "Omega+(6,q)", "[q^2-1]",
    params=[P("f", 1), Q(expr="3^f")], ref="LemOmega07")
rec("T4.3c", "odd-orthogonal",
    "OmegaOdd(7,q)", "TwoG2(q)", "Omega+(6,q)", "[(q-1)/2].2",
    params=[P("f", 1, odd=True), Q(expr="3^f")], ref="LemOmega07",
    remarks="printed table cell says ((q^2-1)/2).2; the source lemma and the "
            "order identity give ((q-1)/2).2")
rec("T4.4a", "odd-orthogonal",
    "OmegaOdd(7,q)", "q^5:OmegaOdd(5,q)", "G2(q)", "[q^5]:SL(2,q)",
    params=[Q(odd=True)], ref="Lem:Omega7-01")
rec("T4.4b", "odd-orthogonal",
    "OmegaOdd(7,q)", "q^4:Omega-(4,q)", "G2(q)", "[q^3]",
    params=[Q(odd=True)], ref="Lem:Omega7-01")
rec("T4.4c", "odd-orthogonal",
    "OmegaOdd(7,q)", "OmegaOdd(5,q)", "G2(q)", "SL(2,q)",
    params=[Q(odd=True)], ref="LemOmega07")
rec("T4.5", "odd-orthogonal",
    "OmegaOdd(13,q)", "PSp(6,q)", "Omega-(12,q)", "(SL(2,q) x SL(2,q^2))/2",
    params=[P("f", 1), Q(expr="3^f")], ref="LemOmega09")
rec("T4.6", "odd-orthogonal",
    "OmegaOdd(25,q)", "F4(q)", "Omega-(24,q)", "2.Omega-(8,q)",
    params=[P("f", 1), Q(expr="3^f")], ref="LemOmega10")
rec("T4.7a", "odd-orthogonal", "OmegaOdd(7,3)", "3^4:S5", "G2(3)", "3^2", ref="LemXia28")
rec("T4.7b", "odd-orthogonal", "OmegaOdd(7,3)", "3^5:2^4:A5", "G2(3)", "ASL(2,3)", ref="LemXia28")
rec("T4.8a", "odd-orthogonal", "OmegaOdd(7,3)", "3^3:SL(3,3)", "A9", "S3", ref="LemXia28")
rec("T4.8b", "odd-orthogonal", "OmegaOdd(7,3)", "Omega+(6,3)", "A9", "S5 x 2", ref="LemXia28")
rec("T4.8c", "odd-orthogonal", "OmegaOdd(7,3)", "G2(3)", "A9", "PSL(2,7)", ref="LemXia28")
rec("T4.9a", "odd-orthogonal", "OmegaOdd(7,3)", "3^3:SL(3,3)", "Sp(6,2)", "GL(2,3)", ref="LemXia28")
rec("T4.9b", "odd-orthogonal", "OmegaOdd(7,3)", "Omega+(6,3)", "Sp(6,2)", "2^4:S5", ref="LemXia28")
rec("T4.9c", "odd-orthogonal", "OmegaOdd(7,3)", "G2(3)", "Sp(6,2)", "2^3.PSL(2,7)", ref="LemXia28")
rec("T4.10a", "odd-orthogonal", "OmegaOdd(7,3)", "2^6:A7", "3^(3+3):SL(3,3)", "6.S4", ref="LemXia28")
rec("T4.10b", "odd-orthogonal", "OmegaOdd(7,3)", "S8", "3^(3+3):SL(3,3)", "S3 x S3", ref="LemXia28")
rec("T4.10c", "odd-orthogonal", "OmegaOdd(7,3)", "A9", "3^(3+3):SL(3,3)", "3^3:S3", ref="LemXia28")
rec("T4.10d", "odd-orthogonal", "OmegaOdd(7,3)", "2.PSL(3,4)", "3^(3+3):SL(3,3)", "3^2:4", ref="LemXia28")
rec("T4.10e", "odd-orthogonal", "OmegaOdd(7,3)", "Sp(6,2)", "3^(3+3):SL(3,3)", "SU(3,2):S3", ref="LemXia28")
rec("T4.11a", "odd-orthogonal", "OmegaOdd(9,3)", "3^(6+4):2.S5", "Omega-(8,3)", "3^(3+3).3", ref="Ex:OmegaOdd-1")
rec("T4.11b", "odd-orthogonal", "OmegaOdd(9,3)", "3^(6+4):8.A5", "Omega-(8,3)", "3^(3+3).S3", ref="Ex:OmegaOdd-1")
rec("T4.11c", "odd-orthogonal", "OmegaOdd(9,3)", "3^(6+4):2^(1+4).A5", "Omega-(8,3)", "3^(3+3).SL(2,3)", ref="Ex:OmegaOdd-1")
rec("T4.12", "odd-orthogonal", "OmegaOdd(13,3)", "3^(15+6):SL(2,13)", "Omega-(12,3)", "3^(10+5).3", ref="Ex:OmegaOdd-1")

# ---------------------------------------------------------------------------
# Table 5: orthogonal groups of minus type
# ---------------------------------------------------------------------------

rec("T5.1", "minus-orthogonal",
    "Omega-(2*m,q)", "SU(m,q)", "q^(2*m-2):Omega-(2*m-2,q)", "q^(1+(2*m-4)):SU(m-2,q)",
    params=[P("m", 5, odd=True), Q()],
    ref="ex:OmegaMinus-1",
    tier_b={
        "bindings": [{"m": 5, "q": 2}],
        "H": ["su_in_omega", "m", "q", "-"],
        "domain": ["SingularNonzeroVectors"],
        "route": "stab",
    })
rec("T5.2a", "minus-orthogonal", "Omega-(10,2)", "A12", "2^8:Omega-(8,2)", "(A8 x A4):2",
    ref="prop:OmegaMinus-1")
rec("T5.2b", "minus-orthogonal", "Omega-(10,2)", "M12", "2^8:Omega-(8,2)", "2^(1+4):S3",
    ref="prop:OmegaMinus-1")
rec("T5.3", "minus-orthogonal", "Omega-(18,2)", "3.J3", "2^16:Omega-(16,2)", "2^(2+4):(S3 x 3)",
    ref="prop:OmegaMinus-1")
rec("T5.4", "minus-orthogonal",
    "Omega-(2*m,q)", "SU(m,q)", "OmegaOdd(2*m-1,q)", "SU(m-1,q)",
    params=[P("m", 5, odd=True), Q()],
    ref="ex:OmegaMinus01",
    tier_b={
        "bindings": [{"m": 5, "q": 2}],
        "H": ["su_in_omega", "m", "q", "-"],
        "domain": ["NormLevelSet", 1],
        "route": "stab",
    })
rec("T5.5", "minus-orthogonal",
    "O-(2*m,2)", "SU(m/2,4):4", "Sp(2*m-2,2) x 2", "SU(m/2-1,4):2",
    params=[P("m", 6, even=True)],
    where=["odd(m/2)"],
    ref="ex:OmegaMinus05")
rec("T5.6", "minus-orthogonal",
    "GammaO-(2*m,4)", "SU(m/2,16):8", "Sp(2*m-2,4):4", "SU(m/2-1,16):2",
    params=[P("m", 6, even=True)],
    where=["odd(m/2)"],
    ref="ex:OmegaMinus05")
rec("T5.7", "minus-orthogonal",
    "O-(2*m,2)", "GammaO-(m,4)", "Sp(2*m-2,2) x 2", "Sp(m-2,4):2",
    params=[P("m", 4, even=True)],
    ref="ex:OmegaMinus02",
    tier_b={
        "bindings": [{"m": 4}],
        "H": ["gamma_o_minus_ext", 2, 2, 2],
        "domain": ["NormLevelSet", 1],
        "route": "stab",
    })
rec("T5.8", "minus-orthogonal",
    "GammaO-(2*m,4)", "GammaO-(m,16)", "Sp(2*m-2,4):4", "Sp(m-2,16):2",
    params=[P("m", 4, even=True)],
    ref="ex:OmegaMinus02")
rec("T5.9", "minus-orthogonal",
    "Omega-(2*m,2)", "SU(m,2)", "Omega-(2*m-2,2):2", "SU(m-2,2)",
    params=[P("m", 5, odd=True)],
    ref="LemOmegaMinus03")
rec("T5.10", "minus-orthogonal",
    "O-(2*m,2)", "SU(m,2):2", "Omega-(2*m-2,2):2", "SU(m-2,2)",
    params=[P("m", 5, odd=True)],
    ref="LemOmegaMinus04")
rec("T5.11", "minus-orthogonal",
    "GammaO-(2*m,4)", "SU(m,4):4", "Omega-(2*m-2,4):4", "SU(m-2,4)",
    params=[P("m", 5, odd=True)],
    ref="LemOmegaMinus04")

# ---------------------------------------------------------------------------
# Table 6: orthogonal groups of plus type
# ---------------------------------------------------------------------------

rec("T6.1a", "plus-orthogonal",
    "Omega+(2*a*b,q)", "q^c:SL(a,q^b)", "OmegaOdd(2*a*b-1,q)", "[q^(c-b+1)].SL(a-1,q^b)",
    params=[P("a", 2), P("b", 1), Q()],
    where=["a*b >= 4"],
    derived={"c": "plus_cIE:1"},
    ref="LemOmegaPlusPm3")
rec("T6.1b", "plus-orthogonal",
    "Omega+(2*a*b,q)", "q^c:Sp(a,q^b)", "OmegaOdd(2*a*b-1,q)", "[q^(c-b+1)].Sp(a-2,q^b)",
    params=[P("a", 4, even=True), P("b", 1), Q()],
    derived={"c": "plus_cIE:1"},
    ref="LemOmegaPlusPm3",
    remarks="a=2 coincides with T6.1a")
rec("T6.1c", "plus-orthogonal",
    "Omega+(12*b,q)", "q^c:G2(q^b)'", "OmegaOdd(12*b-1,q)",
    "[gcd(q^(c-b+1),q^(c+1)/4)].SL(2,q^b)",
    params=[P("b", 1), Q(even=True)],
    where=["q^(c+1) % 4 == 0"],
    derived={"c": "plus_cIE_a6:1"},
    ref="LemOmegaPlusPm3")
rec("T6.2a", "plus-orthogonal",
    "Omega+(2*a*b,2)", "2^c:SL(a,2^b):[b2]", "Sp(2*a*b-2,2)", "[2^(c-b+2)].SL(a-1,2^b).[b2/2]",
    params=[P("a", 2), P("b", 2, even=True)],
    derived={"c": "plus_cIE:2", "b2": "two_part_b"},
    ref="LemOmegaPlusPm4")
rec("T6.2b", "plus-orthogonal",
    "Omega+(2*a*b,2)", "2^c:Sp(a,2^b):[b2]", "Sp(2*a*b-2,2)", "[2^(c-b+2)].Sp(a-2,2^b).[b2/2]",
    params=[P("a", 4, even=True), P("b", 2, even=True)],
    derived={"c": "plus_cIE:2", "b2": "two_part_b"},
    ref="LemOmegaPlusPm4")
rec("T6.2c", "plus-orthogonal",
    "Omega+(12*b,2)", "2^c:G2(2^b):[b2]", "Sp(12*b-2,2)", "[2^(c-b+2)].SL(2,2^b).[b2/2]",
    params=[P("b", 2, even=True)],
    derived={"c": "plus_cIE_a6:2", "b2": "two_part_b"},
    ref="LemOmegaPlusPm4")
rec("T6.3a", "plus-orthogonal",
    "Omega+(2*a*b,4):2", "4^c:SL(a,4^b):[2*b2]", "GammaSp(2*a*b-2,4)",
    "[4^(c-b+2)].SL(a-1,4^b).[b2/2]",
    params=[P("a", 2), P("b", 2, even=True)],
    derived={"c": "plus_cIE:2", "b2": "two_part_b"},
    ref="LemOmegaPlusPm4")
rec("T6.3b", "plus-orthogonal",
    "Omega+(2*a*b,4):2", "4^c:Sp(a,4^b):[2*b2]", "GammaSp(2*a*b-2,4)",
    "[4^(c-b+2)].Sp(a-2,4^b).[b2/2]",
    params=[P("a", 4, even=True), P("b", 2, even=True)],
    derived={"c": "plus_cIE:2", "b2": "two_part_b"},
    ref="LemOmegaPlusPm4")
rec("T6.3c", "plus-orthogonal",
    "Omega+(12*b,4):2", "4^c:G2(4^b):[2*b2]", "GammaSp(12*b-2,4)",
    "[4^(c-b+2)].SL(2,4^b).[b2/2]",
    params=[P("b", 2, even=True)],
    derived={"c": "plus_cIE_a6:2", "b2": "two_part_b"},
    ref="LemOmegaPlusPm4")
rec("T6.4", "plus-orthogonal",
    "Omega+(12,3)", "3^14:SL(2,13)", "OmegaOdd(11,3)", "3^(9+1)",
    ref="PropOmegaPlusPm")
rec("T6.5a", "plus-orthogonal",
    "Omega+(2*m,q)", "SL(m,q)", "OmegaOdd(2*m-1,q)", "SL(m-1,q)",
    params=[P("m", 4), Q()], ref="Prop:O^+=(SL,N_1)",
    tier_b={
        "bindings": [{"m": 4, "q": 2}],
        "H": ["sl_levi", "Omega+", "m", "q"],
        "domain": ["NormLevelSet", 1],
        "route": "stab",
    })
rec("T6.5b", "plus-orthogonal",
    "Omega+(2*m,q)", "Sp(m,q)", "OmegaOdd(2*m-1,q)", "Sp(m-2,q)",
    params=[P("m", 4, even=True), Q()], ref="Prop:O^+=(tensor,N_1)")
rec("T6.5c", "plus-orthogonal",
    "Omega+(12,q)", "G2(q)", "OmegaOdd(11,q)", "SL(2,q)",
    params=[Q(even=True)], ref="Prop:O^+=(SL,N_1)")
rec("T6.5d", "plus-orthogonal",
    "Omega+(2*m,q)", "SU(m,q)", "OmegaOdd(2*m-1,q)", "SU(m-1,q)",
    params=[P("m", 4, even=True), Q()], ref="Prop:O^+=(SU,N_1)")
rec("T6.5e", "plus-orthogonal",
    "Omega+(16,q)", "Spin(9,q)", "OmegaOdd(15,q)", "Spin(7,q)",
    params=[Q()], ref="C_9-subgroups")
rec("T6.6a", "plus-orthogonal",
    "Omega+(2*m,2)", "Omega+(m,4):2", "Sp(2*m-2,2)", "Sp(m-2,4)",
    params=[P("m", 4, even=True)], ref="LemOmegaPlus12")
rec("T6.6b", "plus-orthogonal",
    "Omega+(2*m,2)", "SL(m/2,4):2", "Sp(2*m-2,2)", "SL(m/2-1,4)",
    params=[P("m", 4, even=True)], ref="Prop:O^+=(SL,N_1)")
rec("T6.6c", "plus-orthogonal",
    "Omega+(2*m,2)", "GammaSp(m/2,4)", "Sp(2*m-2,2)", "Sp(m/2-2,4)",
    params=[P("m", 4)], where=["m % 4 == 0"], ref="Prop:O^+=(SL,N_1)")
rec("T6.6d", "plus-orthogonal",
    "Omega+(2*m,2)", "Sp(m/2,4).4", "Sp(2*m-2,2)", "Sp(m/2-2,4).2",
    params=[P("m", 4)], where=["m % 4 == 0"], ref="LemOmegaPlus35")
rec("T6.6e", "plus-orthogonal",
    "Omega+(24,2)", "GammaG2(4)", "Sp(22,2)", "SL(2,4)", ref="Prop:O^+=(SL,N_1)")
rec("T6.6f", "plus-orthogonal",
    "Omega+(2*m,2)", "SU(m/2,4):4", "Sp(2*m-2,2)", "SU(m/2-1,4).2",
    params=[P("m", 4)], where=["m % 4 == 0"], ref="LemOmegaPlus35")
rec("T6.7a", "plus-orthogonal",
    "Omega+(2*m,4):2", "Omega+(m,16):4", "GammaSp(2*m-2,4)", "Sp(m-2,16)",
    params=[P("m", 4, even=True)], ref="LemOmegaPlus12")
rec("T6.7b", "plus-orthogonal",
    "Omega+(2*m,4):2", "SL(m/2,16):4", "GammaSp(2*m-2,4)", "SL(m/2-1,16)",
    params=[P("m", 4, even=True)], ref="Prop:O^+=(SL,N_1)")
rec("T6.7c", "plus-orthogonal",
    "Omega+(2*m,4):2", "GammaSp(m/2,16)", "GammaSp(2*m-2,4)", "Sp(m/2-2,16)",
    params=[P("m", 4)], where=["m % 4 == 0"], ref="Prop:O^+=(SL,N_1)")
rec("T6.7d", "plus-orthogonal",
    "Omega+(2*m,4):2", "Sp(m/2,16).8", "GammaSp(2*m-2,4)", "Sp(m/2-2,16).2",
    params=[P("m", 4)], where=["m % 4 == 0"], ref="LemOmegaPlus35")
rec("T6.7e", "plus-orthogonal",
    "Omega+(24,4):2", "GammaG2(16)", "GammaSp(22,4)", "SL(2,16)", ref="Prop:O^+=(SL,N_1)")
rec("T6.7f", "plus-orthogonal",
    "Omega+(2*m,4):2", "SU(m/2,16):8", "GammaSp(2*m-2,4)", "SU(m/2-1,16).2",
    params=[P("m", 4)], where=["m % 4 == 0"], ref="LemOmegaPlus35")
rec("T6.8a", "plus-orthogonal", "Omega+(12,2)", "3.PSU(4,3)", "Sp(10,2)", "3^4:A5",
    ref="Prop:O^+=(SU,N_1)",
    remarks="printed table cell says 3^5:A5; the order identity forces 4860, "
            "as in T2.7a")
rec("T6.8b", "plus-orthogonal", "Omega+(12,2)", "3.M22", "Sp(10,2)", "PSL(2,11)",
    ref="Prop:O^+=(SU,N_1)")
rec("T6.9a", "plus-orthogonal", "Omega+(16,2)", "Omega-(8,2).2", "Sp(14,2)", "G2(2)", ref="LemOmegaPlus35")
rec("T6.9b", "plus-orthogonal", "Omega+(16,2)", "GammaSp(6,4)", "Sp(14,2)", "G2(4)", ref="LemOmegaPlus35")
rec("T6.9c", "plus-orthogonal", "Omega+(16,2)", "Omega+(6,4):2", "Sp(14,2)", "SL(3,4)", ref="LemOmegaPlus35")
rec("T6.9d", "plus-orthogonal", "Omega+(16,2)", "Omega-(6,4):2", "Sp(14,2)", "SU(3,4)", ref="LemOmegaPlus35")
rec("T6.9e", "plus-orthogonal", "Omega+(16,2)", "GammaSp(4,4)", "Sp(14,2)", "SL(2,4)", ref="C_9-subgroups")
rec("T6.10a", "plus-orthogonal", "Omega+(16,4):2", "Omega-(8,4).4", "GammaSp(14,4)", "G2(4)", ref="LemOmegaPlus35")
rec("T6.10b", "plus-orthogonal", "Omega+(16,4):2", "GammaSp(6,16)", "GammaSp(14,4)", "G2(16)", ref="LemOmegaPlus35")
rec("T6.10c", "plus-orthogonal", "Omega+(16,4):2", "Omega+(6,16):4", "GammaSp(14,4)", "SL(3,16)", ref="LemOmegaPlus35")
rec("T6.10d", "plus-orthogonal", "Omega+(16,4):2", "Omega-(6,16):4", "GammaSp(14,4)", "SU(3,16)", ref="LemOmegaPlus35")
rec("T6.10e", "plus-orthogonal", "Omega+(16,4):2", "GammaSp(4,16)", "GammaSp(14,4)", "SL(2,16)", ref="C_9-subgroups")
rec("T6.11a", "plus-orthogonal", "Omega+(24,2)", "G2(4):2", "Sp(22,2)", "SL(2,4)", ref="C_9-subgroups")
rec("T6.11b", "plus-orthogonal", "Omega+(24,2)", "G2(4).4", "Sp(22,2)", "SL(2,4).2", ref="LemOmegaPlus35")
rec("T6.11c", "plus-orthogonal", "Omega+(24,2)", "3.Suz", "Sp(22,2)", "3^5:PSL(2,11)", ref="Prop:O^+=(SU,N_1)")
rec("T6.11d", "plus-orthogonal", "Omega+(24,2)", "Co1", "Sp(22,2)", "Co3", ref="C_9-subgroups")
rec("T6.12a", "plus-orthogonal", "Omega+(24,4):2", "GammaG2(16)", "GammaSp(22,4)", "SL(2,16)", ref="Prop:O^+=(tensor,N_1)")
rec("T6.12b", "plus-orthogonal", "Omega+(24,4):2", "G2(16).8", "GammaSp(22,4)", "SL(2,16).2", ref="LemOmegaPlus35")
rec("T6.13", "plus-orthogonal", "Omega+(32,2)", "GammaSp(8,4)", "Sp(30,2)", "Sp(6,4)", ref="LemOmegaPlus35")
rec("T6.14", "plus-orthogonal", "Omega+(32,4):2", "GammaSp(8,16)", "GammaSp(30,4)", "Sp(6,16)", ref="LemOmegaPlus35")
rec("T6.15", "plus-orthogonal",
    "Omega+(2*m,q)", "SU(m,q)", "q^(2*m-2):Omega+(2*m-2,q)", "q^(1+(2*m-4)):SU(m-2,q)",
    params=[P("m", 4, even=True), Q()],
    ref="Ex:OmegaPlus17",
    tier_b={
        "bindings": [{"m": 4, "q": 2}],
        "H": ["su_in_omega", "m", "q", "+"],
        "domain": ["SingularNonzeroVectors"],
        "route": "stab",
    })
rec("T6.16", "plus-orthogonal",
    "Omega+(2*m,2)", "SU(m,2):2", "Omega+(2*m-2,2)", "SU(m-2,2)",
    params=[P("m", 4, even=True)], ref="LemOmegaPlus18")
rec("T6.17", "plus-orthogonal",
    "Omega+(2*m,2)", "SU(m,2)", "Omega+(2*m-2,2):2", "SU(m-2,2)",
    params=[P("m", 4, even=True)], ref="LemOmegaPlus19")
rec("T6.18", "plus-orthogonal",
    "Omega+(2*m,4):2", "SU(m,4).4", "Omega+(2*m-2,4):2", "SU(m-2,4)",
    params=[P("m", 4, even=True)], ref="LemOmegaPlus18")
rec("T6.19", "plus-orthogonal",
    "Omega+(2*m,q)", "q^(m*(m-1)/2):SL(m,q)", "Omega-(2*m-2,q)",
    "[q^((m+1)*(m-2)/2)]:SL(m-2,q)",
    params=[P("m", 4), Q()], ref="LemOmegaPlus13",
    tier_b={
        "bindings": [{"m": 4, "q": 2}],
        "H": ["pm_residual", "Omega+", "m", "q"],
        "domain": ["MinusPairOrbit"],
        "route": "stab",
    })
rec("T6.20", "plus-orthogonal",
    "Omega+(2*m,2)", "SL(m,2)", "Omega-(2*m-2,2).2", "SL(m-2,2)",
    params=[P("m", 4)], ref="LemOmegaPlus15")
rec("T6.21", "plus-orthogonal",
    "Omega+(2*m,2):[gcd(2,m-1)]", "SL(m,2):2", "Omega-(2*m-2,2).[gcd(2,m-1)]", "SL(m-2,2)",
    params=[P("m", 4)], ref="LemOmegaPlus14")
rec("T6.22", "plus-orthogonal",
    "Omega+(2*m,4):2", "SL(m,4):2", "Omega-(2*m-2,4).4", "SL(m-2,4)",
    params=[P("m", 4)], ref="LemOmegaPlus16")
rec("T6.23", "plus-orthogonal",
    "Omega+(8,4):2", "Omega-(8,2).2", "Omega-(6,4).4", "SL(2,2) x 2", ref="LemOmegaPlus23")
rec("T6.24", "plus-orthogonal",
    "Omega+(8,16):4", "Omega-(8,4).4", "Omega-(6,16).8", "SL(2,4) x 2", ref="LemOmegaPlus23")

# ---------------------------------------------------------------------------
# Table 7: exceptional plus-type triples (modulo scalars)
# ---------------------------------------------------------------------------

rec("T7.1a", "plus-orthogonal", "POmega+(8,q)", "OmegaOdd(7,q)", "OmegaOdd(7,q)", "G2(q)",
    params=[Q()], ref="PropOmegaPlusO+8")
rec("T7.1b", "plus-orthogonal", "POmega+(8,q)", "Omega+(6,q)", "OmegaOdd(7,q)", "SL(3,q)",
    params=[Q()], ref="PropOmegaPlusO+8")
rec("T7.1c", "plus-orthogonal", "POmega+(8,q)", "Omega-(6,q)", "OmegaOdd(7,q)", "SU(3,q)",
    params=[Q()], ref="PropOmegaPlusO+8")
rec("T7.1d", "plus-orthogonal", "POmega+(8,q)", "q^5:OmegaOdd(5,q)", "OmegaOdd(7,q)", "[q^5]:SL(2,q)",
    params=[Q()], ref="PropOmegaPlusO+8")
rec("T7.1e", "plus-orthogonal", "POmega+(8,q)", "OmegaOdd(5,q)", "OmegaOdd(7,q)", "SL(2,q)",
    params=[Q()], ref="PropOmegaPlusO+8")
rec("T7.1f", "plus-orthogonal", "POmega+(8,q)", "q^4:Omega-(4,q)", "OmegaOdd(7,q)", "[q^3]",
    params=[Q()], ref="PropOmegaPlusO+8")
rec("T7.1g", "plus-orthogonal", "POmega+(8,q0^2)", "Omega-(8,q0)", "OmegaOdd(7,q0^2)", "G2(q0)",
    params=[{"n": "q0", "pp": True}], ref="PropOmegaPlusO+8")
rec("T7.2a", "plus-orthogonal", "Omega+(8,2)", "S5", "Sp(6,2)", "1", ref="LemXia29")
rec("T7.2b", "plus-orthogonal", "Omega+(8,2)", "A5:4", "Sp(6,2)", "2", ref="LemXia29")
rec("T7.2c", "plus-orthogonal", "Omega+(8,2)", "2^4:A5", "Sp(6,2)", "Q8", ref="LemXia29")
rec("T7.2d", "plus-orthogonal", "Omega+(8,2)", "A6", "Sp(6,2)", "3", ref="LemXia29")
rec("T7.2e", "plus-orthogonal", "Omega+(8,2)", "2^5:A6", "Sp(6,2)", "4^2:3:2", ref="LemXia29")
rec("T7.2f", "plus-orthogonal", "Omega+(8,2)", "A7", "Sp(6,2)", "7:3", ref="LemXia29")
rec("T7.2g", "plus-orthogonal", "Omega+(8,2)", "2^6:A7", "Sp(6,2)", "2^3.SL(3,2)", ref="LemXia29")
rec("T7.2h", "plus-orthogonal", "Omega+(8,2)", "A8", "Sp(6,2)", "SL(3,2)", ref="LemXia29")
rec("T7.2i", "plus-orthogonal", "Omega+(8,2)", "A8", "Sp(6,2)", "AGaL(1,8)", ref="LemXia29")
rec("T7.2j", "plus-orthogonal", "Omega+(8,2)", "A9", "Sp(6,2)", "PGaL(2,8)", ref="LemXia29")
rec("T7.3a", "plus-orthogonal", "Omega+(8,2)", "2^6:A7", "SU(4,2)", "SL(2,3)", ref="LemXia29")
rec("T7.3b", "plus-orthogonal", "Omega+(8,2)", "A8", "SU(4,2)", "3", ref="LemXia29")
rec("T7.3c", "plus-orthogonal", "Omega+(8,2)", "S8", "SU(4,2)", "S3", ref="LemXia29")
rec("T7.3d", "plus-orthogonal", "Omega+(8,2)", "A9", "SU(4,2)", "9:3", ref="LemXia29")
rec("T7.4", "plus-orthogonal", "Omega+(8,2)", "A8", "SU(4,2).2", "S3", ref="LemXia29")
rec("T7.5a", "plus-orthogonal", "Omega+(8,2)", "2^4:A5", "A9", "1", ref="LemXia29")
rec("T7.5b", "plus-orthogonal", "Omega+(8,2)", "2^5:A6", "A9", "A4", ref="LemXia29")
rec("T7.5c", "plus-orthogonal", "Omega+(8,2)", "2^6:A7", "A9", "SL(3,2)", ref="LemXia29")
rec("T7.5d", "plus-orthogonal", "Omega+(8,2)", "A8", "A9", "7:3", ref="LemXia29")
rec("T7.5e", "plus-orthogonal", "Omega+(8,2)", "2^6:A8", "A9", "AGL(3,2)", ref="LemXia29")
rec("T7.6a", "plus-orthogonal", "POmega+(8,3)", "3^4:S5", "OmegaOdd(7,3)", "3^2", ref="PropOmegaPlusO+8")
rec("T7.6b", "plus-orthogonal", "POmega+(8,3)", "3^4:(A5 x 4)", "OmegaOdd(7,3)", "S3 x 3", ref="PropOmegaPlusO+8")
rec("T7.6c", "plus-orthogonal", "POmega+(8,3)", "(3^5:2^4):A5", "OmegaOdd(7,3)", "ASL(2,3)",
    ref="PropOmegaPlusO+8",
    remarks="printed table cell says AGL_3(2); the order identity forces 216 "
            "= |ASL_2(3)|, matching the same subgroup's intersection in the "
            "odd-dimensional table")
rec("T7.6d", "plus-orthogonal", "POmega+(8,3)", "A9", "OmegaOdd(7,3)", "SL(3,2)", ref="PropOmegaPlusO+8")
rec("T7.6e", "plus-orthogonal", "POmega+(8,3)", "SU(4,2)", "OmegaOdd(7,3)", "SL(2,3)", ref="PropOmegaPlusO+8")
rec("T7.6f", "plus-orthogonal", "POmega+(8,3)", "Sp(6,2)", "OmegaOdd(7,3)", "2^3.SL(3,2)", ref="PropOmegaPlusO+8")
rec("T7.6g", "plus-orthogonal", "POmega+(8,3)", "Omega+(8,2)", "OmegaOdd(7,3)", "2^6:A7", ref="PropOmegaPlusO+8")
rec("T7.7a", "plus-orthogonal", "POmega+(8,3)", "2^6:A7", "3^6:PSL(4,3)", "(SL(2,3) x 3):2", ref="LemXia29")
rec("T7.7b", "plus-orthogonal", "POmega+(8,3)", "A8", "3^6:PSL(4,3)", "S3 x 3", ref="LemXia29")
rec("T7.7c", "plus-orthogonal", "POmega+(8,3)", "2^6:A8", "3^6:PSL(4,3)", "(2^3:S4):S3", ref="LemXia29")
rec("T7.7d", "plus-orthogonal", "POmega+(8,3)", "A9", "3^6:PSL(4,3)", "3^3:S3", ref="LemXia29")
rec("T7.7e", "plus-orthogonal", "POmega+(8,3)", "2.PSL(3,4)", "3^6:PSL(4,3)", "3^2:4", ref="LemXia29")
rec("T7.7f", "plus-orthogonal", "POmega+(8,3)", "Sp(6,2)", "3^6:PSL(4,3)", "3.AGL(2,3)", ref="LemXia29")
rec("T7.7g", "plus-orthogonal", "POmega+(8,3)", "Omega-(6,3)", "3^6:PSL(4,3)", "3^(3+2):SL(2,3)", ref="LemXia29")
rec("T7.8a", "plus-orthogonal", "POmega+(8,3)", "3^6:SL(3,3)", "Omega+(8,2)", "(SL(2,3) x 3):2", ref="LemXia29")
rec("T7.8b", "plus-orthogonal", "POmega+(8,3)", "3^(3+3):SL(3,3)", "Omega+(8,2)", "(SL(2,3) x 3):2", ref="LemXia29")
rec("T7.8c", "plus-orthogonal", "POmega+(8,3)", "3^(6+3):SL(3,3)", "Omega+(8,2)", "3^2.AGL(2,3)", ref="LemXia29")
rec("T7.8d", "plus-orthogonal", "POmega+(8,3)", "3^6:PSL(4,3)", "Omega+(8,2)", "(PSp(4,3) x 3):2", ref="LemXia29")
rec("T7.9", "plus-orthogonal", "Omega+(8,4):2", "SigmaL(2,16)", "GammaSp(6,4)", "1", ref="LemSymplectic10")

# ---------------------------------------------------------------------------
# Table 8: symplectic groups, infinite families
# ---------------------------------------------------------------------------

rec("T8.1a", "symplectic",
    "Sp(2*a*b,q)", "Sp(2*a,q^b)", "[q^(2*a*b-1)]:Sp(2*a*b-2,q)'", "[q^d]:Sp(2*a-2,q^b)",
    params=[P("a", 1), P("b", 2), Q()],
    where=["a*b >= 2", "not (a*b == 2 and q == 2)", "(a*b >= 3) or (q >= 4)"],
    derived={"d": "sp_d"},
    ref="ex:K<P1<Sp",
    tier_b={
        "bindings": [{"a": 1, "b": 3, "q": 2}],
        "H": ["ext_field_sp", "a", "b", "q"],
        "K": ["parabolic_p1_residual", 3, 2],
        "domain": ["NonzeroVectors"],
        "route": "sift",
        "residual_int": 1,
    })
rec("T8.1b", "symplectic",
    "Sp(6*b,q)", "G2(q^b)'", "[q^(6*b-1)]:Sp(6*b-2,q)'", "[gcd(q^(5*b),q^(6*b)/4)]:SL(2,q^b)'",
    params=[P("b", 1), Q(even=True)],
    ref="ex:K<P1<Sp")
rec("T8.2a", "symplectic",
    "Sp(2*a*b,q)", "Sp(2*a,q^b)", "Omega+(2*a*b,q):[gcd(2,b)]", "Omega+(2*a,q^b):[gcd(2,b)]",
    params=[P("a", 1), P("b", 2), Q(even=True)],
    where=["not (a*b == 2 and q == 2)"],
    ref="LemSymplectic04",
    tier_b={
        "bindings": [{"a": 2, "b": 2, "q": 2}],
        "H": ["ext_field_sp", "a", "b", "q"],
        "domain": ["FormOrbit", "+"],
        "route": "stab",
    })
rec("T8.2b", "symplectic",
    "Sp(6*b,q)", "G2(q^b)", "Omega+(6*b,q):[gcd(2,b)]", "SL(3,q^b).[gcd(2,b)]",
    params=[P("b", 1), Q(even=True)],
    where=["not (b == 1 and q == 2)"],
    ref="LemSymplectic49")
rec("T8.3", "symplectic",
    "Sp(2*m,q)", "Sz(q^(m/2))", "O+(2*m,q)", "D(2*(q^(m/2)-1))",
    params=[P("m", 2, even=True), P("f", 1, odd=True), Q(expr="2^f")],
    where=["odd(m/2)", "f*m/2 >= 3"],
    ref="LemSymplectic21")
rec("T8.4a", "symplectic",
    "Sp(2*m,2)", "O-(2*m,2)", "Omega+(2*m,2)", "Sp(2*m-2,2)",
    params=[P("m", 3)], ref="prop:Sp(2)=O^-O^+")
rec("T8.4b", "symplectic",
    "Sp(2*m,2)", "SU(m,2):2", "Omega+(2*m,2)", "SU(m-1,2)",
    params=[P("m", 3, odd=True)], ref="prop:Sp(2)=O^-O^+")
rec("T8.5a", "symplectic",
    "Sp(2*m,2)", "Omega-(2*m,2)", "O+(2*m,2)", "Sp(2*m-2,2)",
    params=[P("m", 3)], ref="prop:Sp(2)=O^-O^+")
rec("T8.5b", "symplectic",
    "Sp(2*m,2)", "SU(m,2)", "O+(2*m,2)", "SU(m-1,2)",
    params=[P("m", 3, odd=True)], ref="prop:Sp(2)=O^-O^+")
rec("T8.5c", "symplectic",
    "Sp(2*m,2)", "GammaO-(m,4)", "O+(2*m,2)", "Sp(m-2,4):2",
    params=[P("m", 4, even=True)], ref="prop:Sp(2)=O^-O^+")
rec("T8.5d", "symplectic",
    "Sp(2*m,2)", "SU(m/2,4).4", "O+(2*m,2)", "SU(m/2-1,4):2",
    params=[P("m", 6, even=True)], where=["odd(m/2)"], ref="prop:Sp(2)=O^-O^+")
rec("T8.6a", "symplectic",
    "GammaSp(2*m,4)", "GammaO-(2*m,4)", "Omega+(2*m,4):2", "Sp(2*m-2,4)",
    params=[P("m", 2)], ref="prop:Sp(2)=O^-O^+")
rec("T8.6b", "symplectic",
    "GammaSp(2*m,4)", "SU(m,4).4", "Omega+(2*m,4):2", "SU(m-1,4)",
    params=[P("m", 3, odd=True)], ref="prop:Sp(2)=O^-O^+")
rec("T8.7a", "symplectic",
    "Sp(2*a*b,q)", "q^c:SL(a,q^b):[b2]", "Omega-(2*a*b,q)", "[q^(c-b)].SL(a-1,q^b).[b2]",
    params=[P("a", 2), P("b", 2, even=True), Q(even=True)],
    derived={"c": "sp_cE_full_I", "b2": "two_part_b"},
    ref="LemSymplecticPm4")
rec("T8.7b", "symplectic",
    "Sp(2*a*b,q)", "q^c:Sp(a,q^b):[b2]", "Omega-(2*a*b,q)", "[q^(c-b)].Sp(a-2,q^b).[b2]",
    params=[P("a", 4, even=True), P("b", 2, even=True), Q(even=True)],
    derived={"c": "sp_cE_full_I", "b2": "two_part_b"},
    ref="LemSymplecticPm4")
rec("T8.7c", "symplectic",
    "Sp(12*b,q)", "q^c:G2(q^b):[b2]", "Omega-(12*b,q)", "[q^(c-b)].SL(2,q^b).[b2]",
    params=[P("b", 2, even=True), Q(even=True)],
    derived={"c": "sp_cE_full_I_a6", "b2": "two_part_b"},
    ref="LemSymplecticPm4")
rec("T8.8a", "symplectic",
    "Sp(2*a*b,q)", "q^c:SL(a,q^b)", "Omega-(2*a*b,q):[gcd(2,b)]", "[q^(c-b)].SL(a-1,q^b).[gcd(2,b)]",
    params=[P("a", 2), P("b", 1), Q(even=True)],
    derived={"c": "sp_cE_full_I", "b2": "two_part_b"},
    ref="LemSymplecticPm5")
rec("T8.8b", "symplectic",
    "Sp(2*a*b,q)", "q^c:Sp(a,q^b)", "Omega-(2*a*b,q):[gcd(2,b)]", "[q^(c-b)].Sp(a-2,q^b).[gcd(2,b)]",
    params=[P("a", 4, even=True), P("b", 1), Q(even=True)],
    derived={"c": "sp_cE_full_I", "b2": "two_part_b"},
    ref="LemSymplecticPm5")
rec("T8.8c", "symplectic",
    "Sp(12*b,q)", "q^c:G2(q^b)'", "Omega-(12*b,q):[gcd(2,b)]",
    "[gcd(q^(c-b),q^c/4)].SL(2,q^b).[gcd(2,b)]",
    params=[P("b", 1), Q(even=True)],
    where=["q^c % 4 == 0"],
    derived={"c": "sp_cE_full_I_a6", "b2": "two_part_b"},
    ref="LemSymplecticPm5")
rec("T8.9a", "symplectic",
    "Sp(2*a*b,2)", "2^c:SL(a,2^b):[b2]", "O-(2*a*b,2)", "[2^(c-b+2)].SL(a-1,2^b).[b2/2]",
    params=[P("a", 2), P("b", 2, even=True)],
    derived={"c": "sp_cIE_prop:2", "b2": "two_part_b"},
    ref="LemSymplecticPm7",
    remarks="printed table cell says [2^(c-b+1)].(b_2/2); the source lemma "
            "([4q^(c-b)].(fb_2/2) at f=1) and the order identity give c-b+2")
rec("T8.9b", "symplectic",
    "Sp(2*a*b,2)", "2^c:Sp(a,2^b):[b2]", "O-(2*a*b,2)", "[2^(c-b+2)].Sp(a-2,2^b).[b2/2]",
    params=[P("a", 4, even=True), P("b", 2, even=True)],
    derived={"c": "sp_cIE_prop:2", "b2": "two_part_b"},
    ref="LemSymplecticPm7",
    remarks="exponent corrected as in T8.9a")
rec("T8.9c", "symplectic",
    "Sp(12*b,2)", "2^c:G2(2^b):[b2]", "O-(12*b,2)", "[2^(c-b+2)].SL(2,2^b).[b2/2]",
    params=[P("b", 2, even=True)],
    derived={"c": "sp_cIE_prop_a6:2", "b2": "two_part_b"},
    ref="LemSymplecticPm7",
    remarks="exponent corrected as in T8.9a")
rec("T8.10a", "symplectic",
    "Sp(2*a*b,2)", "2^c:SL(a,2^b)", "O-(2*a*b,2)", "[2^(c-b+1)].SL(a-1,2^b)",
    params=[P("a", 2), P("b", 1)],
    derived={"c": "sp_cIE_prop:1", "b2": "two_part_b"},
    ref="LemSymplecticPm6")
rec("T8.10b", "symplectic",
    "Sp(2*a*b,2)", "2^c:Sp(a,2^b)", "O-(2*a*b,2)", "[2^(c-b+1)].Sp(a-2,2^b)",
    params=[P("a", 4, even=True), P("b", 1)],
    derived={"c": "sp_cIE_prop:1", "b2": "two_part_b"},
    ref="LemSymplecticPm6")
rec("T8.10c", "symplectic",
    "Sp(12*b,2)", "2^c:G2(2^b)'", "O-(12*b,2)", "[gcd(2^(c-b+1),2^(c-1))].SL(2,2^b)",
    params=[P("b", 1)],
    where=["c >= 1"],
    derived={"c": "sp_cIE_prop_a6:1", "b2": "two_part_b"},
    ref="LemSymplecticPm6")
rec("T8.11a", "symplectic",
    "GammaSp(2*a*b,4)", "4^c:SL(a,4^b):[2*b2]", "GammaO-(2*a*b,4)", "[4^(c-b+1)].SL(a-1,4^b).[b2]",
    params=[P("a", 2), P("b", 2, even=True)],
    derived={"c": "sp_cIE_prop:1", "b2": "two_part_b"},
    ref="LemSymplecticPm7")
rec("T8.11b", "symplectic",
    "GammaSp(2*a*b,4)", "4^c:Sp(a,4^b):[2*b2]", "GammaO-(2*a*b,4)", "[4^(c-b+1)].Sp(a-2,4^b).[b2]",
    params=[P("a", 4, even=True), P("b", 2, even=True)],
    derived={"c": "sp_cIE_prop:1", "b2": "two_part_b"},
    ref="LemSymplecticPm7")
rec("T8.11c", "symplectic",
    "GammaSp(12*b,4)", "4^c:G2(4^b):[2*b2]", "GammaO-(12*b,4)", "[4^(c-b+1)].SL(2,4^b).[b2]",
    params=[P("b", 2, even=True)],
    derived={"c": "sp_cIE_prop_a6:1", "b2": "two_part_b"},
    ref="LemSymplecticPm7")
rec("T8.12a", "symplectic",
    "Sp(2*a*b,q)", "Sp(2*a,q^b):[b2]", "Omega-(2*a*b,q)", "O-(2*a,q^b).[b2/2]",
    params=[P("a", 1), P("b", 2, even=True), Q(even=True)],
    derived={"b2": "two_part_b"},
    ref="LemSymplectic05")
rec("T8.12b", "symplectic",
    "Sp(6*b,q)", "G2(q^b):[b2]", "Omega-(6*b,q)", "SU(3,q^b).[b2]",
    params=[P("b", 2, even=True), Q(even=True)],
    derived={"b2": "two_part_b"},
    ref="LemSymplectic50")
rec("T8.13", "symplectic",
    "Sp(2*m,q)", "Sp(4,q^(m/4)):2", "Omega-(2*m,q)", "D(2*(q^(m/2)-1))",
    params=[P("m", 4), P("f", 1, odd=True), Q(expr="2^f")],
    where=["m % 4 == 0", "odd(m/4)"],
    ref="LemSymplectic42")
rec("T8.14a", "symplectic",
    "Sp(2*a*b,q)", "Sp(2*a,q^b)", "Omega-(2*a*b,q):[gcd(2,b)]", "Omega-(2*a,q^b):[gcd(2,b)]",
    params=[P("a", 1), P("b", 2), Q(even=True)],
    where=["not (a*b == 2 and q == 2)"],
    ref="LemSymplectic04",
    tier_b={
        "bindings": [{"a": 2, "b": 2, "q": 2}],
        "H": ["ext_field_sp", "a", "b", "q"],
        "domain": ["FormOrbit", "-"],
        "route": "stab",
    })
rec("T8.14b", "symplectic",
    "Sp(6*b,q)", "G2(q^b)", "Omega-(6*b,q):[gcd(2,b)]", "SU(3,q^b).[gcd(2,b)]",
    params=[P("b", 1), Q(even=True)],
    where=["not (b == 1 and q == 2)"],
    ref="LemSymplectic49")
rec("T8.15", "symplectic",
    "Sp(2*m,2)", "SL(m,2):2", "Omega-(2*m,2)", "SL(m-1,2)",
    params=[P("m", 3, odd=True)], ref="prop:Sp(2)=O^+O^-")
rec("T8.16a", "symplectic",
    "Sp(2*m,2)", "SL(m,2)", "O-(2*m,2)", "SL(m-1,2)",
    params=[P("m", 3)], ref="prop:Sp(2)=O^+O^-")
rec("T8.16b", "symplectic",
    "Sp(2*m,2)", "Sp(m,2)", "O-(2*m,2)", "Sp(m-2,2)",
    params=[P("m", 4, even=True)], ref="prop:Sp(2)=O^+O^-")
rec("T8.16c", "symplectic",
    "Sp(2*m,2)", "SU(m,2)", "O-(2*m,2)", "SU(m-1,2)",
    params=[P("m", 4, even=True)], ref="prop:Sp(2)=O^+O^-")
rec("T8.16d", "symplectic",
    "Sp(2*m,2)", "Omega+(m,4):2", "O-(2*m,2)", "Sp(m-2,4)",
    params=[P("m", 4, even=True)], ref="prop:Sp(2)=O^+O^-")
rec("T8.16e", "symplectic",
    "Sp(2*m,2)", "Sp(m,2) x 2", "O-(2*m,2)", "Sp(m-2,2) x 2",
    params=[P("m", 4, even=True)], ref="LemSymplectic18")
rec("T8.16f", "symplectic",
    "Sp(2*m,2)", "SL(m/2,4):2", "O-(2*m,2)", "SL(m/2-1,4)",
    params=[P("m", 4, even=True)], ref="prop:Sp(2)=O^+O^-")
rec("T8.16g", "symplectic",
    "Sp(2*m,2)", "GammaSp(m/2,4)", "O-(2*m,2)", "Sp(m/2-2,4)",
    params=[P("m", 4)], where=["m % 4 == 0"], ref="prop:Sp(2)=O^+O^-")
rec("T8.16h", "symplectic",
    "Sp(2*m,2)", "Sp(m/2,4).4", "O-(2*m,2)", "Sp(m/2-2,4):2",
    params=[P("m", 4)], where=["m % 4 == 0"], ref="prop:Sp(2)=O^+O^-")
rec("T8.16i", "symplectic",
    "Sp(2*m,2)", "Sp(m/2,4):2^2", "O-(2*m,2)", "Sp(m/2-2,4) x 2",
    params=[P("m", 4)], where=["m % 4 == 0"], ref="LemSymplectic15")
rec("T8.16j", "symplectic",
    "Sp(2*m,2)", "SU(m/2,4):4", "O-(2*m,2)", "SU(m/2-1,4):2",
    params=[P("m", 4)], where=["m % 4 == 0"], ref="prop:Sp(2)=O^+O^-")
rec("T8.17a", "symplectic",
    "GammaSp(2*m,4)", "Sp(2*m,2) x 2", "GammaO-(2*m,4)", "Sp(2*m-2,2) x 2",
    params=[P("m", 2)], ref="LemSymplectic20")
rec("T8.17b", "symplectic",
    "GammaSp(2*m,4)", "SL(m,4):2", "GammaO-(2*m,4)", "SL(m-1,4)",
    params=[P("m", 2)], ref="prop:Sp(2)=O^+O^-")
rec("T8.17c", "symplectic",
    "GammaSp(2*m,4)", "Sp(m,4):2", "GammaO-(2*m,4)", "Sp(m-2,4)",
    params=[P("m", 2, even=True)], ref="prop:Sp(2)=O^+O^-")
rec("T8.17d", "symplectic",
    "GammaSp(2*m,4)", "Sp(m,4):2^2", "GammaO-(2*m,4)", "Sp(m-2,4) x 2",
    params=[P("m", 2, even=True)], ref="LemSymplectic18")
rec("T8.17e", "symplectic",
    "GammaSp(2*m,4)", "SU(m,4):2", "GammaO-(2*m,4)", "SU(m-1,4)",
    params=[P("m", 4, even=True)], ref="prop:Sp(2)=O^+O^-")
rec("T8.18", "symplectic",
    "GammaSp(2*m,16)", "Sp(2*m,4):4", "GammaO-(2*m,16)", "Sp(2*m-2,4) x 2",
    params=[P("m", 2)], ref="LemSymplectic20")
rec("T8.19a", "symplectic",
    "Sp(2*m,2)", "GammaSp(m,4)", "Sp(2*m-2,2)", "Sp(m-2,4)",
    params=[P("m", 4, even=True)], ref="LemSymplectic13")
rec("T8.19b", "symplectic",
    "Sp(2*m,2)", "GammaSp(m,4)", "OmegaOdd(2*m-1,2) x 2", "Sp(m-2,4) x 2",
    params=[P("m", 4, even=True)], ref="LemSymplectic19")
rec("T8.20a", "symplectic",
    "GammaSp(2*m,4)", "GammaSp(m,16)", "Sp(2*m-2,4):2", "Sp(m-2,16)",
    params=[P("m", 4, even=True)], ref="LemSymplectic13")
rec("T8.20b", "symplectic",
    "GammaSp(2*m,4)", "GammaSp(m,16)", "OmegaOdd(2*m-1,4).2^2", "Sp(m-2,16) x 2",
    params=[P("m", 4, even=True)], ref="LemSymplectic19")
rec("T8.20c", "symplectic",
    "GammaSp(2*m,4)", "GammaSp(m,16)", "OmegaOdd(2*m-1,4).4", "Sp(m-2,16):2",
    params=[P("m", 4, even=True)], ref="LemSymplectic19")
rec("T8.21a", "symplectic",
    "Sp(6,q)", "Sp(4,q)", "G2(q)", "SL(2,q)",
    params=[P("f", 2), Q(expr="2^f")], ref="LemSymplectic12")
rec("T8.21b", "symplectic",
    "Sp(6,q)", "q^4:Omega-(4,q)", "G2(q)", "[q^3]",
    params=[P("f", 2), Q(expr="2^f")], ref="LemSymplectic12")
rec("T8.21c", "symplectic",
    "Sp(6,q)", "q^5:Sp(4,q)", "G2(q)", "[q^5]:SL(2,q)",
    params=[P("f", 2), Q(expr="2^f")], ref="LemSymplectic12")

# ---------------------------------------------------------------------------
# Table 9: symplectic groups, sporadic rows
# ---------------------------------------------------------------------------

rec("T9.1a", "symplectic", "GammaSp(4,4)", "S6", "GammaO-(4,4)", "S3", ref="LemSymplectic52")
rec("T9.1b", "symplectic", "GammaSp(4,4)", "A6 x 2", "GammaO-(4,4)", "S3", ref="LemSymplectic52")
rec("T9.2", "symplectic", "Sp(4,9)", "3^(2+4):(SL(2,5) x 8)", "SL(2,81)", "3^3:4", ref="lem:K<P1-Sp(4,q)")
rec("T9.3", "symplectic", "Sp(4,9):2", "3^(2+4):SL(2,5):2", "SigmaL(2,81)", "3^3:2", ref="ex:S5<S6<Sp(4,9).2")
rec("T9.4", "symplectic", "Sp(4,11)", "11^(1+2):SL(2,5)", "SL(2,121)", "11", ref="lem:K<P1-Sp(4,q)")
rec("T9.5", "symplectic", "Sp(4,19)", "19^(1+2):(SL(2,5) x 9)", "SL(2,361)", "19:3", ref="lem:K<P1-Sp(4,q)")
rec("T9.6", "symplectic", "Sp(4,29)", "29^(1+2):(SL(2,5) x 7)", "SL(2,841)", "29", ref="lem:K<P1-Sp(4,q)")
rec("T9.7", "symplectic", "Sp(4,59)", "59^(1+2):(SL(2,5) x 29)", "SL(2,3481)", "59", ref="lem:K<P1-Sp(4,q)")
rec("T9.8", "symplectic", "Sp(6,2)", "2^4:A5", "PGaL(2,8)", "1", ref="LemSymplectic52")
rec("T9.9a", "symplectic", "Sp(6,2)", "2^4:A5", "SU(3,3)", "4", ref="LemSymplectic52")
rec("T9.9b", "symplectic", "Sp(6,2)", "S5 x 2", "SU(3,3)", "1", ref="LemSymplectic52")
rec("T9.9c", "symplectic", "Sp(6,2)", "S6", "SU(3,3)", "3", ref="LemSymplectic52")
rec("T9.9d", "symplectic", "Sp(6,2)", "A6 x 2", "SU(3,3)", "3", ref="LemSymplectic52")
rec("T9.9e", "symplectic", "Sp(6,2)", "S7", "SU(3,3)", "7:3", ref="LemSymplectic52")
rec("T9.9f", "symplectic", "Sp(6,2)", "Omega-(6,2)", "SU(3,3)", "3^(1+2):4", ref="LemSymplectic52")
rec("T9.9g", "symplectic", "Sp(6,2)", "O+(6,2)", "SU(3,3)", "SL(3,2)", ref="LemSymplectic52")
rec("T9.10a", "symplectic", "Sp(6,2)", "S5", "G2(2)", "1", ref="LemSymplectic52")
rec("T9.10b", "symplectic", "Sp(6,2)", "A6", "G2(2)", "3", ref="LemSymplectic52")
rec("T9.10c", "symplectic", "Sp(6,2)", "A7", "G2(2)", "7:3", ref="LemSymplectic52")
rec("T9.11", "symplectic", "Sp(6,3)", "SL(2,13)", "3^(1+4):Sp(4,3)", "3", ref="LemSymplectic52")
rec("T9.12", "symplectic", "Sp(6,3)", "3^(1+4):2^(1+4).A5", "SigmaL(2,27)", "3", ref="LemSymplectic52")
rec("T9.13", "symplectic", "Sp(6,4)", "J2", "Omega-(6,4)", "5^2:S3", ref="LemSymplectic10")
rec("T9.14a", "symplectic", "GammaSp(6,4)", "SU(3,3) x 2", "GammaO-(6,4)", "S3", ref="LemSymplectic10")
rec("T9.14b", "symplectic", "GammaSp(6,4)", "G2(2)", "GammaO-(6,4)", "S3", ref="LemSymplectic10")
rec("T9.15", "symplectic", "GammaSp(6,4)", "SigmaL(2,16)", "GammaG2(4)", "1", ref="LemSymplectic10")
rec("T9.16", "symplectic", "GammaSp(6,16)", "G2(4):4", "GammaO-(6,16)", "SL(2,4) x 2", ref="LemSymplectic32")
rec("T9.17", "symplectic", "Sp(8,2)", "PSL(2,17)", "O+(8,2)", "D18", ref="LemSymplectic52")
rec("T9.18a", "symplectic", "Sp(8,2)", "PGaL(2,9)", "Omega-(8,2)", "S3", ref="LemSymplectic52")
rec("T9.18b", "symplectic", "Sp(8,2)", "S10", "Omega-(8,2)", "(A7 x 3):2", ref="LemSymplectic52")
rec("T9.18c", "symplectic", "Sp(8,2)", "2^10:A6", "Omega-(8,2)", "2^5.(S4 x 2)", ref="LemSymplectic52")
rec("T9.18d", "symplectic", "Sp(8,2)", "2^10:A7", "Omega-(8,2)", "2^6.SL(3,2)", ref="LemSymplectic52")
rec("T9.19a", "symplectic", "Sp(8,2)", "S5", "O-(8,2)", "1", ref="LemSymplectic52")
rec("T9.19b", "symplectic", "Sp(8,2)", "S5 x 2", "O-(8,2)", "2", ref="LemSymplectic52")
rec("T9.19c", "symplectic", "Sp(8,2)", "A5:4", "O-(8,2)", "2", ref="LemSymplectic52")
rec("T9.19d", "symplectic", "Sp(8,2)", "A6", "O-(8,2)", "3", ref="LemSymplectic52")
rec("T9.19e", "symplectic", "Sp(8,2)", "A6 x 2", "O-(8,2)", "S3", ref="LemSymplectic52")
rec("T9.19f", "symplectic", "Sp(8,2)", "S6", "O-(8,2)", "S3", ref="LemSymplectic52")
rec("T9.19g", "symplectic", "Sp(8,2)", "M10", "O-(8,2)", "S3", ref="LemSymplectic52")
rec("T9.19h", "symplectic", "Sp(8,2)", "PGL(2,9)", "O-(8,2)", "S3", ref="LemSymplectic52")
rec("T9.19i", "symplectic", "Sp(8,2)", "A7", "O-(8,2)", "7:3", ref="LemSymplectic52")
rec("T9.19j", "symplectic", "Sp(8,2)", "A8", "O-(8,2)", "PSL(2,7)", ref="LemSymplectic52")
rec("T9.19k", "symplectic", "Sp(8,2)", "A8", "O-(8,2)", "AGaL(1,8)", ref="LemSymplectic52")
rec("T9.19l", "symplectic", "Sp(8,2)", "A9", "O-(8,2)", "PGaL(2,8)", ref="LemSymplectic52")
rec("T9.19m", "symplectic", "Sp(8,2)", "A10", "O-(8,2)", "(A7 x 3):2", ref="LemSymplectic52")
rec("T9.19n", "symplectic", "Sp(8,2)", "Sp(6,2)", "O-(8,2)", "G2(2)", ref="LemSymplectic52")
rec("T9.19o", "symplectic", "Sp(8,2)", "2^5:A6", "O-(8,2)", "4^2:S3", ref="LemSymplectic52")
rec("T9.19p", "symplectic", "Sp(8,2)", "2^6:A7", "O-(8,2)", "2^3.SL(3,2)", ref="LemSymplectic52")
rec("T9.20a", "symplectic", "GammaSp(8,4)", "Omega-(8,2):2", "GammaO-(8,4)", "G2(2)", ref="prop:Sp(2)=O^+O^-")
rec("T9.20b", "symplectic", "GammaSp(8,4)", "Sp(6,4):2", "GammaO-(8,4)", "G2(4)", ref="prop:Sp(2)=O^+O^-")
rec("T9.20c", "symplectic", "GammaSp(8,4)", "Omega+(6,4):2", "GammaO-(8,4)", "SL(3,4)", ref="prop:Sp(2)=O^+O^-")
rec("T9.20d", "symplectic", "GammaSp(8,4)", "Omega-(6,4).4", "GammaO-(8,4)", "SU(3,4):2", ref="prop:Sp(2)=O^+O^-")
rec("T9.20e", "symplectic", "GammaSp(8,4)", "Sp(4,4):2", "GammaO-(8,4)", "SL(2,4)", ref="prop:Sp(2)=O^+O^-")
rec("T9.21", "symplectic", "Sp(12,2)", "J2:2", "Omega-(12,2)", "5^2:S3.2", ref="prop:SpaO-<Sp")
rec("T9.22a", "symplectic", "Sp(12,2)", "G2(2)", "O-(12,2)", "SL(2,2)", ref="prop:Sp(2)=O^+O^-")
rec("T9.22b", "symplectic", "Sp(12,2)", "3.PSU(4,3)", "O-(12,2)", "3^4:A5",
    ref="prop:Sp(2)=O^+O^-",
    remarks="printed table cell says 3^5:A5; the order identity forces 4860, "
            "as in T2.7a")
rec("T9.22c", "symplectic", "Sp(12,2)", "3.M22", "O-(12,2)", "PSL(2,11)", ref="prop:Sp(2)=O^+O^-")
rec("T9.22d", "symplectic", "Sp(12,2)", "SU(3,3) x 2", "O-(12,2)", "SL(2,2)", ref="LemSymplectic51")
rec("T9.22e", "symplectic", "Sp(12,2)", "J2", "O-(12,2)", "5^2:S3.2", ref="prop:SpaO-<Sp")
rec("T9.23a", "symplectic", "Sp(12,2)", "GammaG2(4)", "Sp(10,2)", "SL(2,4)", ref="LemSymplectic36")
rec("T9.23b", "symplectic", "Sp(12,2)", "GammaG2(4)", "OmegaOdd(11,2) x 2", "SL(2,4) x 2", ref="LemSymplectic36")
rec("T9.24a", "symplectic", "GammaSp(12,4)", "G2(4):2", "GammaO-(12,4)", "SL(2,4)", ref="LemSymplectic30")
rec("T9.24b", "symplectic", "GammaSp(12,4)", "G2(4):2^2", "GammaO-(12,4)", "SL(2,4) x 2", ref="LemSymplectic51")
rec("T9.25a", "symplectic", "GammaSp(12,4)", "GammaG2(16)", "Sp(10,4):2", "SL(2,16)", ref="LemSymplectic36")
rec("T9.25b", "symplectic", "GammaSp(12,4)", "GammaG2(16)", "OmegaOdd(11,4).2^2", "SL(2,16) x 2", ref="LemSymplectic36")
rec("T9.25c", "symplectic", "GammaSp(12,4)", "GammaG2(16)", "OmegaOdd(11,4).4", "SL(2,16):2", ref="LemSymplectic36")
rec("T9.26a", "symplectic", "Sp(16,2)", "OmegaOdd(9,2)", "O-(16,2)", "OmegaOdd(7,2)", ref="prop:Sp(2)=O^+O^-")
rec("T9.26b", "symplectic", "Sp(16,2)", "Omega-(8,2):2", "O-(16,2)", "G2(2)", ref="prop:Sp(2)=O^+O^-")
rec("T9.26c", "symplectic", "Sp(16,2)", "GammaSp(6,4)", "O-(16,2)", "G2(4)", ref="prop:Sp(2)=O^+O^-")
rec("T9.26d", "symplectic", "Sp(16,2)", "Omega+(6,4):2", "O-(16,2)", "SL(3,4)", ref="prop:Sp(2)=O^+O^-")
rec("T9.26e", "symplectic", "Sp(16,2)", "Omega-(6,4):2", "O-(16,2)", "SU(3,4)", ref="prop:Sp(2)=O^+O^-")
rec("T9.26f", "symplectic", "Sp(16,2)", "GammaSp(4,4)", "O-(16,2)", "SL(2,4)", ref="prop:Sp(2)=O^+O^-")
rec("T9.27", "symplectic", "GammaSp(16,4)", "OmegaOdd(9,4):2", "GammaO-(16,4)", "OmegaOdd(7,4)", ref="LemSymplectic30")
rec("T9.28a", "symplectic", "Sp(24,2)", "3.Suz", "O-(24,2)", "3^5:PSL(2,11)", ref="prop:Sp(2)=O^+O^-")
rec("T9.28b", "symplectic", "Sp(24,2)", "Co1", "O-(24,2)", "Co3", ref="prop:Sp(2)=O^+O^-")
rec("T9.28c", "symplectic", "Sp(24,2)", "G2(4):2", "O-(24,2)", "SL(2,4)", ref="prop:Sp(2)=O^+O^-")
rec("T9.28d", "symplectic", "Sp(24,2)", "G2(4).4", "O-(24,2)", "SL(2,4):2", ref="prop:Sp(2)=O^+O^-")
rec("T9.28e", "symplectic", "Sp(24,2)", "G2(4):2^2", "O-(24,2)", "SL(2,4) x 2", ref="LemSymplectic47")
rec("T9.29", "symplectic", "Sp(32,2)", "GammaSp(8,4)", "O-(32,2)", "Sp(6,4)", ref="prop:Sp(2)=O^+O^-")


OUT = os.path.join(os.path.dirname(__file__), "..", "src", "factorlab", "data", "tables_db.json")


def build():
    """The text of tables_db.json: the manifest and every record, each shape
    in its canonical printed form."""
    # normalize every shape to its canonical printed form and sanity-parse
    for r in R:
        for key, s in r["shapes"].items():
            r["shapes"][key] = print_shape(parse_shape(s))
    refs = sorted({r["ref"] for r in R if r["ref"]})
    doc = {
        "format": 1,
        "manifest": {
            "records": len(R),
            "per_table": {str(t): sum(1 for r in R if r["table"] == t) for t in range(1, 10)},
            "refs": refs,
        },
        "records": R,
    }
    return json.dumps(doc, indent=1) + "\n"


def main():
    text = build()
    with open(OUT, "w") as fh:
        fh.write(text)
    print(f"wrote {len(R)} records to {OUT}")


if __name__ == "__main__":
    main()
