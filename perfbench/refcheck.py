"""Self-test of the benchmark's references and tracing.

    python3 perfbench/refcheck.py [--program]

Checks refs.py against hand values, and the log-pole reference against
Bott's formula through the Euler characteristics of the residue sequence.  With --program (run from the root of a
checkout) it also compares the references with logcartier on small inputs
and checks that the tracer counts calls made through names a module bound
with `from ... import`.  Exits 1 on the first disagreement.
"""

from __future__ import annotations

import os
import sys
from math import comb

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import refs  # noqa: E402


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"refcheck failed: {what}")


def hand_values() -> None:
    for n in range(1, 6):
        for l in range(0, 5):
            h = refs.bott(n, 0, l)
            check(h == [comb(n + l, n)] + [0] * n, f"h(P^{n}, O({l})) = {h}")
        check(refs.bott(n, n, 0)[n] == 1, f"h^n(P^{n}, Omega^n) = 1")
        check(refs.bott(n, n, 0) == refs.line_bundle_h(n, -n - 1), f"Omega^{n} = O(-{n + 1})")
        for j in range(n + 1):
            check(refs.bott(n, j, 0) == [int(q == j) for q in range(n + 1)], f"Hodge diamond P^{n}")
    check(refs.bott(2, 1, 2) == [3, 0, 0], "h^0(P^2, Omega^1(2)) = 3")
    check(refs.bott(2, 1, 1) == [0, 0, 0], "h(P^2, Omega^1(1)) = 0")
    check(refs.bott(2, 1, -1) == [0, 0, 0], "h(P^2, Omega^1(-1)) = 0")
    check(refs.bott(2, 1, -2) == [0, 0, 3], "h^2(P^2, Omega^1(-2)) = 3 by duality")
    check(refs.line_bundle_h(1, -3) == [0, 2], "h^1(P^1, O(-3)) = 2")
    # Omega^1(log H) on P^n is O(-1)^n, and Omega^j(log of all n+1 hyperplanes) is free
    check(refs.projective_dims(2, 1, [0], 0) == [0, 0, 0], "Omega^1(log H) on P^2 is acyclic")
    check(refs.projective_dims(2, 2, [0], 0) == [0, 0, 0], "Omega^2(log H) = O(-2)")
    check(refs.projective_dims(2, 2, [0], -1) == [0, 0, 1], "Omega^2(log H)(-1) = O(-3)")
    check(refs.projective_dims(3, 2, [0, 1, 2, 3], 0) == [3, 0, 0, 0], "log of all planes")
    # the log sequence 0 -> Omega^1 -> Omega^1(log H) -> O_H -> 0 gives Euler characteristics
    for n in range(1, 5):
        for l in range(-n - 3, 4):
            chi = lambda h: sum((-1) ** q * x for q, x in enumerate(h))  # noqa: E731
            chi_h = comb(n - 1 + l, n - 1) if l >= 0 else (-1) ** (n - 1) * refs._binom(-l - 1, n - 1)
            lhs = chi(refs.projective_dims(n, 1, [0], l))
            check(lhs == chi(refs.bott(n, 1, l)) + chi_h, f"log sequence chi on P^{n}, l={l}")
    # affine slices of Omega^j_{A^2}(log V(T_1))
    check(refs.affine_log_slice_dim(2, 1, (0, 0)) == 1, "only dlog T_1 at weight 0")
    check(refs.affine_log_slice_dim(2, 1, (0, 1)) == 2, "T_2 dlog T_1 and dT_2")
    check(refs.affine_log_slice_dim(2, 2, (0, 1)) == 1, "dlog T_1 ^ dT_2")
    check(refs.affine_log_slice_dim(2, 2, (-1, 1)) == 0, "negative weight")
    check(refs.affine_log_slice_dim(3, 0, (2, 0, 5)) == 1, "one monomial")
    # plain elimination
    check(refs.rank_mod_p([[1, 1], [1, 1]], 2) == 1, "rank over F_2")
    check(refs.rank_mod_p([[1, 2], [2, 1]], 3) == 1, "rank over F_3")
    check(refs.rank_mod_p([[1, 2], [2, 1]], 2) == 2, "rank of [[1,0],[0,1]] over F_2")
    check(refs.complex_exactness([1, 2, 1], [[[1], [0]], [[0, 1]]], 2) is None, "split SES")
    check(refs.complex_exactness([1, 2, 1], [[[1], [0]], [[1, 0]]], 2) is not None, "not a complex")


def against_program() -> None:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import logcartier as lc

    for n in (1, 2, 3):
        for p in (2, 3):
            for S in ([], [0], [0, n]):
                for j in range(n + 1):
                    for l in range(-n - 2, 3):
                        spec = lc.SheafSpec(p=p, space=lc.ProjectiveSpace(n), j=j, S=frozenset(S), l=l)
                        got = lc.cech_cohomology(spec).dims
                        want = refs.projective_dims(n, j, S, l)
                        check(got == want, f"P^{n} p={p} S={S} j={j} l={l}: {got} != {want}")
    for m, c in ((2, 2), (3, 2)):
        for j in range(m + 1):
            rep = lc.blowup_cohomology(m, c, j, 2)
            out = {
                "dims": list(rep.dims), "stabilized": rep.stabilized,
                "box": [list(b) for b in rep.box],
                "per_weight": [[list(w), d] for w, d in rep.per_weight.items()],
            }
            reason = refs.check_blowup({"m": m, "c": c, "j": j}, out)
            check(reason is None, f"blowup m={m} c={c} j={j}: {reason}")

    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install("logcartier")
    lc.cech_cohomology(lc.SheafSpec(p=5, space=lc.ProjectiveSpace(1), j=1, l=5))  # p=5: pattern cache cold
    got = layer_metrics(tracer.snapshot())
    # cech binds log_section_space by name: its calls must be counted
    check(got["sequences.section_spaces"][0] > 0, "calls through cech's own binding counted")
    check(got["cech.complexes"][0] > 0, "Cech complexes counted")
    check(got["cartier.zb_decompositions"][0] == 0, "no Cartier work in a projective item")


if __name__ == "__main__":
    hand_values()
    if "--program" in sys.argv[1:]:
        against_program()
    print("refcheck: all references agree")
