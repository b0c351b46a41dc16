"""Independent references for the benchmark's outputs.

Nothing here imports logcartier: every expected value is computed from a
closed formula or a direct count, so a wrong answer from the program cannot
also be the reference's answer.

- Projective space, S empty: Bott's formula for h^q(P^n, Omega^j(k)).
- Projective space, S = {s coordinate hyperplanes} non-empty: the splitting
  Omega^1(log D_S) = O^(s-1) + O(-1)^(n+1-s), so Omega^j(log D_S)(l) is a sum
  of C(s-1, j-b) * C(n+1-s, b) copies of O(l-b), plus line-bundle cohomology.
- Blowup Bl_Z(A^m), Z = V(T_1..T_c) inside D = V(T_1): higher cohomology of
  Omega^j(log(E + Dbar)) vanishes, H^0 is infinite (reported as None), and
  the weight-w part of H^0 is the weight-w slice of pi_* of the sheaf, which
  is Omega^j_{A^m}(log V(T_1)), counted here monomial by monomial.
- Slice complexes: ranks over F_p by plain-Python Gaussian elimination.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb


def _binom(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


def line_bundle_h(n: int, k: int) -> list[int]:
    """dim H^q(P^n, O(k)) for q = 0..n."""
    out = [0] * (n + 1)
    if k >= 0:
        out[0] = _binom(n + k, n)
    if k <= -n - 1:
        out[n] += _binom(-k - 1, n)
    return out


def _bott_h0(n: int, j: int, k: int) -> int:
    if not 0 <= j <= n:
        return 0
    if j == 0:
        return _binom(n + k, n) if k >= 0 else 0
    if k > j:
        return _binom(k + n - j, k) * _binom(k - 1, j)
    return 0


def bott(n: int, j: int, k: int) -> list[int]:
    """dim H^q(P^n, Omega^j(k)) for q = 0..n (Bott's formula, with Serre
    duality H^n(Omega^j(k)) = H^0(Omega^(n-j)(-k))^dual)."""
    out = [0] * (n + 1)
    if not 0 <= j <= n:
        return out
    out[0] += _bott_h0(n, j, k)
    out[n] += _bott_h0(n, n - j, -k)
    if k == 0 and 0 < j < n:
        out[j] += 1
    return out


def projective_dims(n: int, j: int, S, l: int) -> list[int]:
    """dim H^q(P^n, Omega^j(log D_S)(l)) for q = 0..n, D_S the sum of the
    coordinate hyperplanes indexed by S."""
    s = len(set(S))
    if s == 0:
        return bott(n, j, l)
    out = [0] * (n + 1)
    for b in range(j + 1):
        mult = _binom(s - 1, j - b) * _binom(n + 1 - s, b)
        if mult:
            for q, h in enumerate(line_bundle_h(n, l - b)):
                out[q] += mult * h
    return out


def affine_log_slice_dim(m: int, j: int, w) -> int:
    """dim of the weight-w part of Omega^j_{A^m}(log V(T_1)): monomials
    T^a dlog T_1^e ^ dT_G with a >= 0, weight a + sum_{i in G} e_i = w."""
    if any(x < 0 for x in w):
        return 0
    count = 0
    for G in combinations(range(m), j):
        if all(w[i] >= 1 for i in G if i != 0):
            count += 1
    return count


def box_weights(box):
    return product(*(range(lo, hi + 1) for lo, hi in box))


def check_projective(item: dict, out: dict) -> str | None:
    """None when the output agrees with the reference, else a reason."""
    want = projective_dims(item["n"], item["j"], item["S"], item["l"])
    if out.get("dims") != want:
        return f"dims {out.get('dims')} != reference {want}"
    if out.get("stabilized") is not True:
        return "report not stabilized"
    return None


def check_blowup(item: dict, out: dict) -> str | None:
    m, c, j = item["m"], item["c"], item["j"]
    dims = out.get("dims")
    if not dims or len(dims) != c or dims[0] is not None or any(dims[1:]):
        return f"dims {dims} != reference [None] + [0] * {c - 1}"
    if out.get("stabilized") is not True:
        return "report not stabilized"
    box = [tuple(b) for b in out.get("box", ())]
    if len(box) != m or any(lo > 0 or hi < 0 for lo, hi in box):
        return f"malformed box {box}"
    per_weight = {tuple(w): d for w, d in out.get("per_weight", ())}
    for w, d in per_weight.items():
        if len(w) != m or any(not lo <= x <= hi for x, (lo, hi) in zip(w, box)):
            return f"per-weight entry {w} outside box"
        if any(d[1:]):
            return f"higher cohomology {d} at weight {w}"
    for w in box_weights(box):
        want = affine_log_slice_dim(m, j, w)
        got = per_weight.get(w, [0])[0]
        if got != want:
            return f"H^0 at weight {w} is {got}, reference slice dim {want}"
    return None


def check_axioms(item: dict, out: dict) -> str | None:
    if out.get("exit") != 0:
        return f"exit code {out.get('exit')}"
    if not out.get("checks"):
        return "no checks reported"
    if out.get("failing"):
        return f"failing checks {out['failing']}"
    return None


CHECKS = {"projective": check_projective, "blowup": check_blowup, "axioms": check_axioms}


# -- plain F_p linear algebra ---------------------------------------------------


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of a matrix given as a list of rows of Python ints."""
    a = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], p - 2, p)
        a[rank] = [x * inv % p for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def matmul_mod_p(a, b, p: int):
    """a (r x k) times b (k x c) over F_p, as lists of rows."""
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) % p for col in cols] for row in a]


def complex_exactness(dims, maps, p: int) -> str | None:
    """None when 0 -> V_0 -> V_1 -> ... -> V_k -> 0 (maps as lists of rows,
    maps[i] of shape dims[i+1] x dims[i]) is exact, else a reason."""
    if len(maps) != len(dims) - 1:
        return "map count does not match node count"
    ranks = []
    for i, m in enumerate(maps):
        if len(m) != dims[i + 1] or any(len(r) != dims[i] for r in m):
            return f"map {i} has the wrong shape"
        ranks.append(rank_mod_p(m, p) if dims[i] and dims[i + 1] else 0)
    for i in range(len(maps) - 1):
        if dims[i] and dims[i + 1] and dims[i + 2]:
            prod_ = matmul_mod_p(maps[i + 1], maps[i], p)
            if any(any(r) for r in prod_):
                return f"maps {i + 1} o {i} is not zero"
    for i, d in enumerate(dims):
        rk_out = ranks[i] if i < len(ranks) else 0
        rk_in = ranks[i - 1] if i > 0 else 0
        if d - rk_out - rk_in:
            return f"homology {d - rk_out - rk_in} at node {i}"
    return None
