"""Cech cohomology of twisted log differential sheaves.

Projective engine.  On P^n with the standard cover U_0..U_n, the weight-w
section spaces of Omega^j(log D_S)(l) depend on w only through the sign
pattern (sgn w_0, .., sgn w_n): the chart constraints are inequalities
w_i >= 0 / w_i >= 1 and the Euler contraction matrix never looks at w.  The
engine therefore computes cohomology dimensions once per orbit of sign
patterns (at a representative weight in {-1,0,1}^{n+1}, see "Orbits" below)
and multiplies by exact lattice counts {w : pattern, sum w = l}.  Only
one-signed patterns are computed, tau
in {0,1}^{n+1} when l >= 0 and in {-1,0}^{n+1} when l < 0, by the cone
argument of the grading proof of Hartshorne, Algebraic Geometry, Thm III.5.1.
If w_k >= 1, every chart constraint at k (w_k >= 0, and w_k >= 1 for a
non-log dlog X_k) holds whether or not X_k is inverted, and the Euler
contraction never looks at the chart, so the section space V_I on U_I equals
V_{I+k} for every I: the Cech complex is a cone on k, with H^0 = V_{k} and
every higher H^i = 0.  If w also has a negative coordinate, V_{k} = 0.  So a
pattern with a positive coordinate builds no complex; its H^0 is read off
the support set of V_{k} (as is that of every cone coordinate, below).  A
weight summing to l > 0 has a positive coordinate and one summing to l < 0 a
negative one, so no other pattern contributes.  A one-signed pattern has
finitely many weights, so the totals are exact.  Each pattern is a lattice
region: its coordinates range over {0}, [1, inf) or (-inf, -1] by sign, cut
by the sum l, which bounds them all.

Every section space is read off its support set, with nothing built.
Every variable of the homogeneous model is log, so the weight-w degree-j
slice has the basis X^w dlog X_A over the j-subsets A, in the same order at
every w, and the Euler contraction matrix does not depend on w.  On U_I
the space V_I is 0 when w_i < 0 for some i outside I.  Otherwise X^w dlog
X_A is allowed when w_a >= 1 for every a in A outside S and I, that is when
A lies in T = S + I + P with P = {k : w_k >= 1}, and V_I is the kernel of
the contraction on the allowed span.  That kernel is Lambda^j of the
annihilator of the contraction on F_p^T, whose basis
`sequences.log_section_space` writes down with no elimination (its module
docstring), so dim V_I = C(|T| - 1, j) for T nonempty.  So V_I depends on
w only through T, and its dim is read off |T|, with no ring, slice or
section space built.  The cone H^0 = V_{k} has T = S + {k} + P, so its dim
is C(|S + {k} + P| - 1, j).

One rule decides every cone.  Call k a cone coordinate of the pattern when
tau_k > 0, or when tau_k = 0 and (k in S or j = 0).  Adding a cone
coordinate k to I changes neither the allowed span on U_I nor the negative
coordinates outside I, so V_{I+k} = V_I for every I and the complex is a
cone on k, with dims (dim V_{k}, 0, .., 0): C(|S + {k} + P| - 1, j), or 0
when tau has a negative coordinate.  For tau_k > 0 this is the argument
above.  For tau_k = 0 with k in S, adding k to I leaves T = S + I + P as it
is.  At j = 0 a section has no dlog factor, so T decides nothing (the only
j-subset is empty) and V_I is the line of X^w, or 0 when tau is negative
outside I.  H^0 need not vanish (at twist 0, P^6 Omega^1(log D_{0,1}) has
H^0 = 1).  A pattern with no cone coordinate has S inside
N = {k : tau_k < 0}, since a k in S with tau_k >= 0 is a cone coordinate.

A pattern with no cone coordinate and a negative one splits into cones and
lines, by the same argument (Hartshorne, Algebraic Geometry, section III.4
and Thm III.5.1).  It has no positive coordinate, S inside N, and zero
coordinates Z = {k : tau_k = 0}, none when j = 0.  V_I = 0 unless N lies in
I, and then T = S + I = I and V_I = Lambda^j(A_I), with A_I the annihilator
of the contraction on span{dlog X_a : a in I}.  Fix t0 = min N, which lies
in every I with V_I nonzero.  A_I has the basis
f_a = dlog X_a - dlog X_{t0}, a in I - t0, and each inclusion A_I -> A_I'
sends f_a to f_a.  So in these bases every inclusion block is a 0/1
selection of the wedges f_B, and the complex is the direct sum, over the
j-subsets B of {0..n} - t0, of K_B: the line F_p f_B at every I containing
N + B, with the Cech signs.  If some k in Z lies outside B, then
V_I = V_{I+k} in K_B for every I without k, so K_B is a cone on k and
acyclic (h(c)_I = c_{k,I}).  Otherwise Z lies in B, and K_B is one line at
I = {0..n}, in Cech degree n.  There are C(|N| - 1, j - |Z|) such B, namely
Z + B' with B' inside N - t0, so H^n = C(|N| - 1, j - |Z|), 0 when
j < |Z|, and every other degree is 0; at j = 0 this is H^n(O(l)) = 1 per
all-negative weight.  Such a pattern builds no section space and no
complex.  What is left is the all-zero pattern, with S empty (a zero
inside S is a cone coordinate) and j >= 1.

The all-zero pattern is the Hodge line: its dims are 1 in Cech degree j
when 1 <= j <= n, and all 0 when j = n + 1, by the Koszul half of Bott's
formula (Hartshorne, Algebraic Geometry, section III.4 and Thm III.5.1).
At (empty, 0) every T is I, so V_I = Lambda^j(A_I), with A_I the kernel of
the Euler contraction iota on E_I = span{dlog X_a : a in I}; call this
complex C_j, and K_j the complex of the Lambda^j E_I.  For I nonempty,
iota(dlog X_a) = 1 is not 0, so the Koszul complex of iota on Lambda E_I is
exact, and 0 -> Lambda^j A_I -> Lambda^j E_I -> Lambda^(j-1) A_I -> 0,
the second map iota, is exact.  Both maps commute with the inclusions
I in I', so 0 -> C_j -> K_j -> C_(j-1) -> 0 is exact as Cech complexes.
K_j splits over the j-subsets B of {0..n} into the lines F_p e_B, one at
each I containing B.  For 1 <= j <= n some k lies outside B; then
V_I = V_(I+k) in that summand for every I without k, and V_{k} = 0 there
(B is nonempty and misses k), so the summand is a cone on k with no
cohomology, and K_j is acyclic.  The long exact sequence then gives
H^(q+1)(C_j) = H^q(C_(j-1)) and H^0(C_j) = 0.  C_0 = K_0 is the cochain
complex of the full simplex on {0..n}, with H = F_p in degree 0, so by
induction H^q(C_j) = F_p exactly when q = j <= n.  For j = n + 1,
dim A_I <= n, so C_(n+1) = 0.  So no projective pattern builds a complex;
`generator_check` still builds the all-zero complex and checks its class
in degree j.

Orbits.  Let sigma permute the coordinates 0..n and fix S as a set.  The
dims of a pattern do not change when sigma permutes its coordinates:
_pattern_dims reads the set of cone coordinates, which sigma maps onto that
of the permuted pattern, the counts of negative and zero coordinates, and in
the cone case |T| with T = S + {k} + P and k the first cone coordinate.  For
j >= 1 every cone coordinate lies in S + P, so T = S + P, and |T| = |S| +
|P - S| is the same after sigma.  For j = 0, cones[0] may be a zero outside
S, so |T| may be |S + P| + 1, but C(|T| - 1, 0) = 1 whatever T is (T holds
k, so it is not empty).  The region of a pattern is carried by sigma onto
the region of the permuted pattern, with the same sum, so its count and its
reach are the same, and this holds for any permutation, not only those
fixing S.  So the engine reads one representative per orbit.  The orbit of
(a, b) is the set of one-signed patterns with a signed coordinates in S and
b outside it, k = a + b in all, of size C(|S|, a) C(n + 1 - |S|, b): the
distinct rearrangements of its representative's ranges within S and within
the rest.  Its weights sum to l only when 1 <= k <= |l|, or k = 0 at l = 0,
with no range built to decide it.  A weight of an orbit member puts the
parts of a composition of |l| into k parts, each at least 1, at its k
signed coordinates, with the sign of l.  So each member has C(|l| - 1,
k - 1) weights (1 at l = k = 0, the origin), and each signed coordinate
takes every value in [1, |l| - k + 1] in absolute value, the top where the
other k - 1 parts are 1: that end is the member's reach (0 at k = 0).  At
n = 6 that is at most 20 orbits for the 128 patterns.

Blowup engine.  Bl_Z(A^m), with Z = V(T_0..T_{c-1}) inside D = V(T_0) in
the 0-based indices of BlowupChart, is covered by c charts, and its
cohomology is read off a toric argument (Cox, Little and Schenck, Toric
Varieties, ch. 8, on differential forms on toric varieties; Danilov, "The
geometry of toric varieties", Russ. Math. Surveys 1978, section 4).  It is
the toric variety of the fan in Z^m with rays e_0..e_{m-1} and e_Z = e_0 +
.. + e_{c-1}.  Chart q is the cone spanned by e_Z and the e_i with i != q:
u_q is the coordinate of the ray e_Z and u_i, i != q, that of e_i.  On an
intersection U_Q the u_i with i in Q other than Q[0] are inverted, so U_Q is
the cone sigma_Q spanned by e_Z and the e_i with i not in Q.  The log rays
are e_Z (the exceptional divisor E) and e_0 (the strict transform Dbar, a
ray of every chart q != 0).

A section of weight w is a combination of T^w dlog u_G over the j-subsets G
of the chart coordinates, and these forms are independent: the dlog u_i are
the dlog T_k changed by a unimodular integer matrix (BlowupChart.var_weight).
The character T^w pairs with the rays by <w, e_i> = w_i and <w, e_Z> = s,
the head sum w_0 + .. + w_{c-1}.  T^w dlog u_G is regular on U_Q, the
validity of u_G, exactly when every ray rho of sigma_Q has <w, rho> >= 0,
and <w, rho> >= 1 where rho is a non-log ray in G: there T^w dlog u_rho is
a regular function times du_rho only when u_rho divides it.  So

    dim V_Q = [s >= 0 and w_i >= 0 for every i not in Q] * C(m - z_Q, j),

with z_Q = #{i not in Q, i != 0 : w_i = 0}, the non-log rays that no valid
G may hold; none of this reads p.  Every V_Q lies in one weight slice, where
the restriction V_Q -> V_{Q+k} is an inclusion, so equal dims make it an
equality.  Adding k to Q drops the ray e_k, which the formula reads only
through w_k >= 0 and, for k != 0, w_k = 0.  Call k a cone chart of w when
V_Q = V_{Q+k} for every Q without k, and read one off w: if w_0 >= 0, k = 0
is one, because e_0 is log; otherwise, if s >= 0, some head w_k >= 1 with
k >= 1, and that k is one; otherwise s < 0, every V_Q is 0 (e_Z is a ray of
every sigma_Q), and any chart is one.  The Cech complex at w is then a cone
on k: h(c)_I = c_{k,I}, read in V_I = V_{I+k}, is a contracting homotopy in
positive degrees and sends a 0-cocycle to its component at k, the cone
argument of Hartshorne, Algebraic Geometry, section III.4 (the projective
cone rule above is an instance of the same lemma).  So the dims are
(dim V_{k}, 0, .., 0), and dim V_{k} is C(m - #{i >= 1 : w_i = 0}, j) on
N^m and 0 elsewhere: with w_0 >= 0 the cone chart is 0 and V_{0} has the
rays e_Z and e_i, i >= 1; with w_0 < 0, V_{k} has the ray e_0 for k != 0.

So Omega^j(log(E + Dbar)) has no higher cohomology, and its H^0 is
constant on each zero pattern of N^m: the weights with w_0 >= 0, w_i = 0
for i in a set Z inside {1..m-1} and w_i >= 1 for the other i >= 1, with
dims (C(m - |Z|, j), 0, .., 0).  Those dims read |Z| alone, and the
box, [-r, r] at each head coordinate and [0, r] at each tail one, and the
head sum range [0, inf) do not change when the head coordinates 1..c-1 are
permuted among themselves, or the tail coordinates c..m-1.  So the engine
passes one region per orbit of zero patterns, the numbers z_h of zeros among
1..c-1 and z_t among c..m-1, with C(c - 1, z_h) C(m - c, z_t) patterns each,
c (m - c + 1) orbits in all, each counted in closed form (below).  The
engine builds no ring, slice, matrix or complex.  `blowup_weight_oracle`
builds the complex at one weight from form-ring wedges of the chart dlogs,
with none of this argument.  It is the one blowup reference: `verify blowup`
compares the engine's per-weight dims with it, and so do the tests, at a
weight of every validity key and over whole reports.

The box.  A report's box is [-r, r] at each head coordinate (every
coordinate of P^n, the first c of a blowup) and [0, r] at each tail one,
with r doubled from its start until the box holds every weight with
cohomology in a degree whose total is finite: every degree on P^n, H^1..
on a blowup.  A projective orbit member lies in box r exactly when r is at
least its reach, so the box doubles while it is below the largest reach of
an orbit with nonzero dims, and then holds every weight with cohomology:
no orbit is cut, and each counts its size times C(|l| - 1, k - 1).  The
start radius max(|l|, j, p) + 2 is above every reach |l| - k + 1, so only a
smaller box_radius makes the box grow; a reach past MAX_BOX_RADIUS stops it
with ResourceLimit.  On a blowup no orbit has higher cohomology, by the
argument above, so nothing makes the box grow and r stays at its start.
H^0 has infinite rank and is counted within box r, where the orbit
(z_h, z_t) ranges over [0, r] at w_0, {0} at each zero and [1, r] at every
other coordinate.  Every head sum there lies in [0, c r], inside the head
sum range [0, inf), so each member has (r + 1) r^(m - 1 - z_h - z_t)
weights, the product of its range lengths.

Both engines end in orbits (dims, count, head ranges, tail ranges, sum
range), the count taken over all members.  A member is a region: the
weights with head coordinates in their ranges and head sum in the sum range,
crossed with the tail ranges.  The members of an orbit are the regions its
ranges make when rearranged within each of the engine's blocks of positions
(S and the rest of P^n; the head coordinates 1..c-1 and the tail of a
blowup), all with its dims; they are distinct patterns, so their weights are
disjoint.  A report's per-weight map is a read-only view of the orbits with
nonzero dims.  Its length and the totals are sums of the orbits' counts, so
a report that is only counted lists no weight.  The first read of a weight
checks the count against MAX_LISTED_WEIGHTS, then lists the members of each
orbit, lists and sorts their weights, and checks them against the counts.
The tests keep a generic rule with none of these closed forms, one region
per pattern with its ranges narrowed by the sum range and the box grown off
their ends, and compare both engines with it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb

import numpy as np

from .forms import FormRing, LogForm
from .gflinalg import FpMatrix, homology_dims
from .sequences import (
    SectionSpace,
    _region_weights,
    euler_contraction,
    log_section_space,
    pullback_ses,
    walk_sign_classes,
    weight_ring,
)


class ResourceLimit(RuntimeError):
    """A weight box would pass MAX_BOX_RADIUS before stabilizing, or a
    per-weight map read for its weights holds more than MAX_LISTED_WEIGHTS
    (its length is counted, not listed)."""


MAX_BOX_RADIUS = 64
# The listing cap counts weights, not the memory they take, and binds only
# where weights are listed (JSON output, `report`, iterating per_weight): a
# blowup listing holds about 0.33 KB per weight (blowup_cohomology(6, 6, 3, 2,
# box_radius=9) lists 999,540 weights at a 363 MB peak), and `cohomology
# --format json` peaks at about 2.2 KB per weight ((6, 6, 6) at p = 3 writes
# 294,912 weights at a 680 MB peak), so a JSON listing just under the cap
# would take about 4.5 GB.  Text and CSV output count and never list.
MAX_LISTED_WEIGHTS = 2_000_000


# -- sheaf specifications ------------------------------------------------------


@dataclass(frozen=True)
class ProjectiveSpace:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")

    def label(self) -> str:
        return f"P{self.n}"


@dataclass(frozen=True)
class BlowupSpace:
    """Bl_Z(A^m), Z = V(T_1..T_c) inside the divisor D = V(T_1); the log
    structure downstairs is E + (strict transform of D)."""

    m: int
    c: int

    def __post_init__(self):
        if not 2 <= self.c <= self.m:
            raise ValueError("need 2 <= c <= m")

    def label(self) -> str:
        return f"Bl(m={self.m},c={self.c})"


@dataclass(frozen=True)
class SheafSpec:
    """Omega^j(log D_S)(l) on P^n, or Omega^j(log(E + Dbar)) on a blowup."""

    p: int
    space: ProjectiveSpace | BlowupSpace
    j: int
    S: frozenset = frozenset()
    l: int = 0

    def __post_init__(self):
        object.__setattr__(self, "S", frozenset(int(i) for i in self.S))
        if self.j < 0:
            raise ValueError("form degree must be >= 0")
        if isinstance(self.space, ProjectiveSpace):
            if not self.S <= set(range(self.space.n + 1)):
                raise ValueError("log indices must lie in 0..n")
        elif self.S or self.l:
            raise ValueError("S and l apply to the projective case only")

    def label(self) -> str:
        tags = [self.space.label(), f"Omega^{self.j}"]
        if isinstance(self.space, ProjectiveSpace):
            if self.S:
                tags.append(f"log{sorted(self.S)}")
            tags.append(f"twist {self.l}")
        return " ".join(tags)


@dataclass
class CohomologyReport:
    """Cohomology dims of a sheaf, with the weights that carry them.

    `box` is [-r, r] at each head coordinate and [0, r] at each tail one:
    every coordinate of P^n, the first c of a blowup.  The radius r starts at
    box_radius, or max(|l|, j, p) + 2 (l = 0 on a blowup), and doubles until
    the box holds every weight with cohomology in a degree whose total is
    finite (see the module docstring); a box that would pass MAX_BOX_RADIUS
    raises ResourceLimit.  `dims` are the totals over the box, so they are
    exact, but for a blowup's H^0: it has infinite rank and is None, or 0
    when Omega^j = 0 (j > m).  `stabilized` is always true, since the box
    holds every such weight by construction.  `per_weight` is a read-only
    mapping from each box weight with nonzero cohomology to its dims, in lex
    order.  Its len is counted; the weights are listed on the first read of
    one, which raises ResourceLimit when there are more than
    MAX_LISTED_WEIGHTS.
    """

    spec: SheafSpec
    dims: list
    per_weight: Mapping
    box: tuple
    elapsed_ms: float | None = None

    @property
    def stabilized(self) -> bool:
        return True

    def to_json_dict(self) -> dict:
        space = self.spec.space
        if isinstance(space, ProjectiveSpace):
            sp = {"kind": "projective", "n": space.n}
        else:
            sp = {"kind": "blowup", "m": space.m, "c": space.c}
        return {
            "spec": {
                "space": sp,
                "p": self.spec.p,
                "j": self.spec.j,
                "S": sorted(self.spec.S),
                "l": self.spec.l,
            },
            "box": [list(b) for b in self.box],
            "dims": list(self.dims),
            "per_weight": [
                {"w": list(w), "dims": list(d)} for w, d in self.per_weight.items()
            ],
            "stabilized": self.stabilized,
            "elapsed_ms": self.elapsed_ms,
        }


# -- generic Cech complex over a finite cover ----------------------------------


class CechComplex:
    """Cech complex of a weight slice: one section space per intersection,
    all inside a single ambient slice, with inclusion-induced differentials.
    The spaces are SectionSpaces: each gives its dim and, by
    coords_of_space, the inclusion block from another."""

    def __init__(self, p: int, cover, space_fn):
        self.p = p
        self.cover = list(cover)
        n_open = len(self.cover)
        self.levels = [
            list(combinations(self.cover, k + 1)) for k in range(n_open)
        ]
        self.spaces = {}
        for level in self.levels:
            for I in level:
                self.spaces[I] = space_fn(I)
        self.offsets = []
        for level in self.levels:
            off, total = {}, 0
            for I in level:
                off[I] = total
                total += self.spaces[I].dim
            self.offsets.append((off, total))
        self.deltas = [self._delta(k) for k in range(n_open - 1)]

    def _delta(self, k: int) -> FpMatrix:
        src_off, src_dim = self.offsets[k]
        dst_off, dst_dim = self.offsets[k + 1]
        m = np.zeros((dst_dim, src_dim), dtype=np.int64)
        for J in self.levels[k + 1]:
            vj = self.spaces[J]
            if vj.dim == 0:
                continue
            for t in range(len(J)):
                I = J[:t] + J[t + 1 :]
                vi = self.spaces[I]
                if vi.dim == 0:
                    continue
                rows = slice(dst_off[J], dst_off[J] + vj.dim)
                cols = slice(src_off[I], src_off[I] + vi.dim)
                m[rows, cols] += (-1) ** t * vj.coords_of_space(vi)
        return FpMatrix(self.p, m)

    def homology_dims(self) -> list[int]:
        return homology_dims([total for _off, total in self.offsets], self.deltas)

    def cochain_vector(self, k: int, components: dict) -> np.ndarray:
        """Assemble the coordinate vector of a level-k cochain given as
        {index tuple: LogForm}; omitted components are zero."""
        off, total = self.offsets[k]
        v = np.zeros(total, dtype=np.int64)
        for I, form in components.items():
            I = tuple(I)
            sp = self.spaces[I]
            v[off[I] : off[I] + sp.dim] = sp.coords(form)
        return v


# -- lattice regions and the per-weight map both engines end in ----------------


def _arrangements(items) -> list:
    """The distinct orderings of the multiset items, as tuples."""
    if not items:
        return [()]
    out = []
    for x in dict.fromkeys(items):
        rest = list(items)
        rest.remove(x)
        out += [(x, *more) for more in _arrangements(rest)]
    return out


def _orbit_members(ranges, blocks):
    """The ranges rearranged within each block of positions in every
    distinct way, the other positions kept: the regions of an orbit."""
    for arrangement in product(*(_arrangements([ranges[i] for i in block]) for block in blocks)):
        member = list(ranges)
        for block, values in zip(blocks, arrangement):
            for i, x in zip(block, values):
                member[i] = x
        yield member


class _WeightMap(Mapping):
    """The per-weight map of the orbits (dims, count, head, tail, sums) with
    nonzero dims, each weight mapped to its dims, in lex order.  An orbit
    stands for the regions its ranges make when rearranged within each block
    of positions (indices into head + tail) in every distinct way, and count
    counts the weights of all of them.  Its len and totals are sums of
    counts, so reading them lists nothing.  The first read of a weight lists
    the regions of each orbit, after checking the count against
    MAX_LISTED_WEIGHTS, and checks the listing against the counts."""

    def __init__(self, regions, width: int, blocks=()):
        self._regions = [r for r in regions if any(r[0])]
        self._blocks = blocks
        self._len = 0
        totals = [0] * width
        for dims, count, *_ranges in self._regions:
            self._len += count
            for i, d in enumerate(dims):
                if d:
                    totals[i] += d * count
        self.totals = tuple(totals)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, w):
        return self._listing[w]

    def __iter__(self):
        return iter(self._listing)

    @cached_property
    def _listing(self) -> dict:
        if self._len > MAX_LISTED_WEIGHTS:
            raise ResourceLimit(
                f"{self._len} weights with cohomology to list (cap {MAX_LISTED_WEIGHTS})"
            )
        listing = dict(
            sorted(
                (w, list(dims))
                for dims, _count, head, tail, sums in self._regions
                for member in _orbit_members((*head, *tail), self._blocks)
                for w in _region_weights(member[: len(head)], member[len(head) :], sums)
            )
        )
        check = tuple(sum(d[i] for d in listing.values()) for i in range(len(self.totals)))
        if check != self.totals or len(listing) != self._len:
            raise AssertionError("lattice counting disagrees with weight enumeration")
        return listing


def _start_radius(spec: SheafSpec, box_radius: int | None) -> int:
    """The first box radius: box_radius, or max(|l|, j, p) + 2."""
    if box_radius is not None and box_radius < 1:
        raise ValueError("box radius must be at least 1")
    radius = box_radius if box_radius is not None else max(abs(spec.l), spec.j, spec.p) + 2
    if radius > MAX_BOX_RADIUS:
        raise ResourceLimit(f"initial box radius {radius} exceeds cap {MAX_BOX_RADIUS}")
    return radius


# -- projective engine ---------------------------------------------------------


def _pattern_dims(n: int, j: int, S: frozenset, tau: tuple) -> tuple:
    """Cohomology dims at the sign pattern tau, in integer arithmetic, with
    no section space and no complex (the module docstring has the argument).
    A cone coordinate k, one with tau_k > 0, or with tau_k = 0 and (k in S
    or j = 0), is one no chart constraint sees, so the complex is a cone on
    k and its dims are (dim V_{k}, 0, .., 0): C(|T| - 1, j) with T = S + {k} +
    {i : tau_i > 0}, or 0 if tau has a negative coordinate.  A pattern with
    no such coordinate and a negative one splits into cones and lines at the
    top: its dims are (0, .., 0, C(|N| - 1, j - |Z|)), with N its negative
    and Z its zero coordinates, and 0 at the top when j < |Z|.  What is left
    is the all-zero pattern with S empty and j >= 1, whose dims are 1 in
    Cech degree j and 0 elsewhere (all 0 when j > n)."""
    cones = [k for k, t in enumerate(tau) if t > 0 or (t == 0 and (k in S or j == 0))]
    negative, zeros = sum(t < 0 for t in tau), tau.count(0)
    if cones:
        T = S | {cones[0]} | {k for k, t in enumerate(tau) if t > 0}
        return (0 if negative else comb(len(T) - 1, j),) + (0,) * n
    if negative:
        return (0,) * n + (comb(negative - 1, j - zeros) if j >= zeros else 0,)
    return tuple(int(q == j) for q in range(n + 1))


def cech_cohomology(spec: SheafSpec, box_radius: int | None = None) -> CohomologyReport:
    """Cohomology dims of the spec over its standard cover.  On P^n the
    dims are read at one representative per orbit (a, b) of the one-signed
    sign patterns whose weights sum to the twist, a signed coordinates in S
    and b outside, k = a + b, each orbit counted in closed form: C(|S|, a)
    C(n + 1 - |S|, b) patterns of C(|l| - 1, k - 1) weights each (1 at l =
    k = 0), every signed coordinate within |l| - k + 1 of 0 (module
    docstring).  The box doubles from its start while it is below the
    largest such reach of an orbit with cohomology, so no orbit is cut.  A
    blowup goes to blowup_cohomology.  Raises ResourceLimit when the box
    would pass MAX_BOX_RADIUS; the per-weight map raises it when read for
    more than MAX_LISTED_WEIGHTS weights."""
    if isinstance(spec.space, BlowupSpace):
        return blowup_cohomology(
            spec.space.m, spec.space.c, spec.j, spec.p, box_radius=box_radius
        )
    radius = _start_radius(spec, box_radius)
    n, j, S, l = spec.space.n, spec.j, spec.S, spec.l
    inside = tuple(sorted(S))
    outside = tuple(k for k in range(n + 1) if k not in S)
    sign = 1 if l >= 0 else -1
    orbits, reach = [], 0
    for k in range(1, min(abs(l), n + 1) + 1) if l else (0,):
        end = abs(l) - k + 1  # the reach of each signed coordinate
        signed = (1, end) if l > 0 else (-end, -1)
        count = comb(abs(l) - 1, k - 1) if k else 1
        for a in range(max(0, k - len(outside)), min(k, len(inside)) + 1):
            tau, ranges = [0] * (n + 1), [(0, 0)] * (n + 1)
            for i in inside[:a] + outside[: k - a]:
                tau[i], ranges[i] = sign, signed
            dims = _pattern_dims(n, j, S, tuple(tau))
            if any(dims):
                size = comb(len(inside), a) * comb(len(outside), k - a)
                orbits.append((dims, size * count, ranges, (), (l, l)))
                reach = max(reach, end if k else 0)
    while radius < reach:
        if 2 * radius > MAX_BOX_RADIUS:
            raise ResourceLimit(f"weight box not stabilized at radius {radius} (cap {MAX_BOX_RADIUS})")
        radius *= 2
    per_weight = _WeightMap(orbits, n + 1, (inside, outside))
    box = ((-radius, radius),) * (n + 1)
    return CohomologyReport(spec=spec, dims=list(per_weight.totals), per_weight=per_weight, box=box)


# -- explicit generators and the connecting map --------------------------------


@dataclass
class GeneratorReport:
    p: int
    n: int
    j: int
    is_section: bool
    is_cocycle: bool
    is_coboundary: bool
    h_dim: int

    @property
    def spans(self) -> bool:
        return self.is_section and self.is_cocycle and not self.is_coboundary and self.h_dim == 1


def _alternating_cocycle(ring: FormRing, I) -> LogForm:
    """iota(dlog X_{i_0} ^ .. ^ dlog X_{i_j}), the alternating dlog section."""
    top = None
    for i in I:
        g = ring.gen(i)
        top = g if top is None else top.wedge(g)
    if top is None:
        return ring.one()
    return euler_contraction(top)


def generator_check(p: int, n: int, j: int) -> GeneratorReport:
    """The alternating dlog cochain at level j is a cocycle, is not a
    coboundary, and spans H^j(P^n, Omega^j).  For j = 0 the cochain is the
    constant function 1."""
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    w0 = (0,) * (n + 1)
    ring = weight_ring(p, n, w0)
    cx = CechComplex(
        p, range(n + 1), lambda I: log_section_space(ring, j, frozenset(), frozenset(I), w0)
    )
    components = {I: _alternating_cocycle(ring, I) for I in cx.levels[j]}
    try:
        vec = cx.cochain_vector(j, components)
        is_section = True
    except ValueError:
        return GeneratorReport(p, n, j, False, False, False, -1)
    if j < len(cx.deltas):
        is_cocycle = not np.any(cx.deltas[j].apply(vec))
    else:
        is_cocycle = True
    if j == 0:
        is_coboundary = not np.any(vec)
    else:
        is_coboundary = cx.deltas[j - 1].solve(vec) is not None
    h = cx.homology_dims()[j]
    return GeneratorReport(p, n, j, is_section, is_cocycle, is_coboundary, h)


@dataclass
class ConnectingReport:
    p: int
    n: int
    zeta_spans: bool
    lift_is_log_section: bool
    lift_residue_matches: bool
    image_is_plain_section: bool
    image_class_scalar: int | None
    h_top_dim: int

    @property
    def is_isomorphism(self) -> bool:
        return (
            self.zeta_spans
            and self.lift_is_log_section
            and self.lift_residue_matches
            and self.image_is_plain_section
            and self.image_class_scalar not in (None, 0)
            and self.h_top_dim == 1
        )


def connecting_map_check(p: int, n: int) -> ConnectingReport:
    """Mechanical snake chase for 0 -> Omega^n -> Omega^n(log D) -> Omega^{n-1}_D -> 0
    with D = V(X_0): the generator of H^{n-1}(D, Omega^{n-1}) lifts on
    U_{1..n} to eta = iota(dlog X_0 ^ .. ^ dlog X_n), whose Cech boundary is
    the alternating generator of H^n(P^n, Omega^n); the connecting map of
    1-dimensional spaces is an isomorphism."""
    if n < 1:
        raise ValueError("need n >= 1")
    w0 = (0,) * (n + 1)
    ring = weight_ring(p, n, w0)
    cover = range(n + 1)
    plain = CechComplex(
        p, cover, lambda I: log_section_space(ring, n, frozenset(), frozenset(I), w0)
    )
    logd = CechComplex(
        p, cover, lambda I: log_section_space(ring, n, frozenset({0}), frozenset(I), w0)
    )
    # generator of H^{n-1}(D, Omega^{n-1}) on D = P^{n-1}
    if n == 1:
        zeta_spans = True  # H^0(point, O) = F_p, spanned by 1
    else:
        zeta_spans = generator_check(p, n - 1, n - 1).spans
    eta = _alternating_cocycle(ring, tuple(range(n + 1)))
    lift_slot = tuple(range(1, n + 1))
    try:
        lift_vec = logd.cochain_vector(n - 1, {lift_slot: eta})
        lift_ok = True
    except ValueError:
        lift_vec = None
        lift_ok = False
    # residue of the lift = -(generator of D); other slots carry 0
    dring, _ = ring.drop_var(0)
    zeta = _alternating_cocycle(dring, tuple(range(n)))
    res = eta.residue(0)
    residue_matches = res == -zeta
    image_scalar = None
    image_ok = False
    h_top = plain.homology_dims()[n]
    if lift_ok:
        bvec = logd.deltas[n - 1].apply(lift_vec)
        full = tuple(range(n + 1))
        # the image lives on the single top-level slot; express it in the
        # plain-forms complex (on the full torus the section spaces agree)
        top_form = logd.spaces[full].ambient.from_vector(
            logd.spaces[full].basis.apply(bvec)
        )
        try:
            image_vec = plain.cochain_vector(n, {full: top_form})
            image_ok = True
        except ValueError:
            image_vec = None
        if image_ok:
            gen_vec = plain.cochain_vector(n, {full: _alternating_cocycle(ring, full)})
            sysm = plain.deltas[n - 1].hstack(
                FpMatrix.from_columns(p, [gen_vec], len(gen_vec))
            )
            sol = sysm.solve(image_vec)
            if sol is not None:
                image_scalar = int(sol[-1]) % p
    return ConnectingReport(
        p=p,
        n=n,
        zeta_spans=zeta_spans,
        lift_is_log_section=lift_ok,
        lift_residue_matches=residue_matches,
        image_is_plain_section=image_ok,
        image_class_scalar=image_scalar,
        h_top_dim=h_top,
    )


# -- blowup charts and cohomology ------------------------------------------------


@dataclass(frozen=True)
class BlowupChart:
    """Chart q of Bl_{V(T_1..T_c)}(A^m): T_q = u_q, T_i = u_q u_i (i < c),
    T_i = u_i (i >= c).  E = V(u_q); the strict transform of V(T_1) is V(u_1)
    on charts q != 1 and misses chart 1.  All indices 0-based: the divisor
    downstairs is V(T_0) = index 0."""

    q: int
    m: int
    c: int

    @property
    def log(self) -> frozenset:
        return frozenset({self.q} | ({0} if self.q != 0 else set()))

    def var_weight(self, i: int) -> tuple:
        """T-multidegree of the chart coordinate u_i."""
        e = [0] * self.m
        if i == self.q:
            e[self.q] = 1
        elif i < self.c:
            e[i] = 1
            e[self.q] = -1
        else:
            e[i] = 1
        return tuple(e)

    def exponents_from_weight(self, w) -> tuple:
        """The unique chart-monomial exponent vector of T-multidegree w."""
        b = list(w)
        b[self.q] = sum(w[: self.c])
        return tuple(b)

    def gen_weight(self, i: int) -> tuple:
        """T-multidegree of the degree-1 generator for u_i (zero if log)."""
        if i in self.log:
            return (0,) * self.m
        return self.var_weight(i)


@dataclass(frozen=True)
class BlowupAtlas:
    m: int
    c: int
    charts: tuple


def blowup_charts(m: int, c: int) -> BlowupAtlas:
    if not 2 <= c <= m:
        raise ValueError("need 2 <= c <= m")
    return BlowupAtlas(m=m, c=c, charts=tuple(BlowupChart(q, m, c) for q in range(c)))


def _blowup_orbits(m: int, c: int, j: int, radius: int) -> list:
    """The orbits of zero patterns with H^0 = C(m - z_h - z_t, j) nonzero,
    z_h zeros among w_1..w_{c-1} and z_t among w_c..w_{m-1}, cut to the box
    of radius r, as (dims, count, head, tail, sums): the ranges of the
    representative, zeros first in each block, are [0, r] at w_0, {0} at a
    zero and [1, r] elsewhere, every head sum lies in sums = [0, c r], and
    the count is C(c - 1, z_h) C(m - c, z_t) patterns of (r + 1) r^(m - 1 -
    z_h - z_t) weights each (module docstring)."""
    orbits = []
    for z_head, z_tail in product(range(c), range(m - c + 1)):
        h0 = comb(m - z_head - z_tail, j)
        if h0:
            head = [(0, radius)] + [(0, 0)] * z_head + [(1, radius)] * (c - 1 - z_head)
            tail = [(0, 0)] * z_tail + [(1, radius)] * (m - c - z_tail)
            size = comb(c - 1, z_head) * comb(m - c, z_tail)
            count = size * (radius + 1) * radius ** (m - 1 - z_head - z_tail)
            orbits.append(((h0,) + (0,) * (c - 1), count, head, tail, (0, c * radius)))
    return orbits


def blowup_cohomology(
    m: int,
    c: int,
    j: int,
    p: int,
    box_radius: int | None = None,
) -> CohomologyReport:
    """Per-weight Cech cohomology of Omega^j(log(E + Dbar)) on Bl_Z(A^m) over
    the c-chart cover, in closed form (the toric argument of the module
    docstring): H^0 at w is C(m - #{i >= 1 : w_i = 0}, j) on N^m and 0
    elsewhere, and nothing is higher.  One region per orbit of zero
    patterns, (zeros among w_1..w_{c-1}, zeros among w_c..w_{m-1}), carries
    it, c (m - c + 1) regions, each counted in closed form (_blowup_orbits).
    No orbit has higher cohomology, so the box stays at its start radius,
    and H^0 is reported as None (infinite rank), or 0 when j > m.  Raises
    ResourceLimit when the start radius passes MAX_BOX_RADIUS; the
    per-weight map raises it when read for more than MAX_LISTED_WEIGHTS
    weights."""
    spec = SheafSpec(p=p, space=BlowupSpace(m=m, c=c), j=j)
    radius = _start_radius(spec, box_radius)
    orbits = _blowup_orbits(m, c, j, radius)
    per_weight = _WeightMap(orbits, c, (tuple(range(1, c)), tuple(range(c, m))))
    dims = [None if per_weight.totals[0] else 0, *per_weight.totals[1:]]
    box = ((-radius, radius),) * c + ((0, radius),) * (m - c)
    return CohomologyReport(spec=spec, dims=dims, per_weight=per_weight, box=box)


def blowup_weight_oracle(m: int, c: int, j: int, p: int):
    """The honest per-weight engine of Omega^j(log(E + Dbar)) on Bl_Z(A^m):
    a function from a weight w to the dims of the Cech complex built at w,
    with no threshold, cone or closed form.

    On U_Q the section space is spanned by the T^w dlog u_G of chart q =
    Q[0] whose chart monomial is regular there: the chart exponents of w
    less the summed gen_weight of G (the T-multidegree of du_i, or 0 for a
    log dlog u_i) nonnegative off the inverted coordinates Q minus {q}.
    Multiplied by T^-w, each lies in the weight-0 slice of the all-log form
    ring in T_0..T_{m-1}, as the wedge over G of the dlog u_i = sum_k
    var_weight(i)_k dlog T_k.  Neither the wedge nor the summed gen_weight
    reads w, so each chart lists its j-subsets G with both once, and a
    weight only tests validity.  Each inclusion block is solved, and the
    dims are the homology of the CechComplex.

    It is the one reference of the closed form `blowup_cohomology`, shared
    by `verify blowup` and the tests."""
    atlas = blowup_charts(m, c)
    ring = FormRing(p, m, log=range(m), window=0)
    sl = ring.slice(j, (0,) * m)

    def dlog(chart, i) -> LogForm:
        form = ring.zero(1)
        for k, e in enumerate(chart.var_weight(i)):
            if e:
                form = form + ring.gen(k) * e
        return form

    def table(chart) -> list:
        """(summed gen_weight, weight-0 wedge vector) of each G, in order."""
        rows = []
        for G in combinations(range(m), j):
            shift, form = (0,) * m, ring.one()
            for i in G:
                shift = tuple(a + b for a, b in zip(shift, chart.gen_weight(i)))
                form = form.wedge(dlog(chart, i))
            rows.append((shift, sl.to_vector(form)))
        return rows

    tables = [table(chart) for chart in atlas.charts]

    def dims(w) -> list:
        def space(Q):
            chart = atlas.charts[Q[0]]
            cols = []
            for shift, vec in tables[Q[0]]:
                b = chart.exponents_from_weight([a - s for a, s in zip(w, shift)])
                if all(b[i] >= 0 for i in range(m) if i not in Q[1:]):
                    cols.append(vec)
            return SectionSpace(sl, FpMatrix.from_columns(p, cols, sl.dim))

        return CechComplex(p, range(c), space).homology_dims()

    return dims


# -- formal-functions cross-check ------------------------------------------------


@dataclass
class FormalFunctionsReport:
    p: int
    c: int
    j: int
    l_max: int
    ses_exact: bool
    pieces: list
    vanishing_ok: bool

    @property
    def ok(self) -> bool:
        return self.ses_exact and self.vanishing_ok


def formal_functions_check(c: int, j: int, l_max: int, p: int) -> FormalFunctionsReport:
    """H^{i>0}(E, Omega^{j,log} (x) O/I_E^l) = 0 for 1 <= l <= l_max, checked
    by chaining the pullback sequence on E = P^{c-1} (log divisor V(X_0)) with
    I_E^k/I_E^{k+1} ~ O_E(k): it suffices that Omega^a(log)(k) has no higher
    cohomology for a in {j, j-1} and 0 <= k < l_max."""
    n = c - 1
    # one complex per sign class of each chart over {-1, 0, 1}^c, every
    # class built (sequences module docstring)
    walk = walk_sign_classes(
        [range(-1, 2)] * c,
        {chart: (chart,) for chart in range(c)},
        lambda wc: pullback_ses(p, c, j, wc[0], chart=wc[1]).is_exact(),
    )
    ses_exact = all([ok for _cell, ok in walk])
    pieces = []
    vanishing_ok = True
    for k in range(l_max):
        for a in (j, j - 1):
            if a < 0:
                continue
            spec = SheafSpec(p=p, space=ProjectiveSpace(n), j=a, S=frozenset({0}), l=k)
            rep = cech_cohomology(spec)
            higher = rep.dims[1:]
            ok = not any(higher)
            if not ok:
                vanishing_ok = False
            pieces.append(
                {"degree": a, "twist": k, "dims": rep.dims, "higher_vanish": ok}
            )
    return FormalFunctionsReport(
        p=p,
        c=c,
        j=j,
        l_max=l_max,
        ses_exact=ses_exact,
        pieces=pieces,
        vanishing_ok=vanishing_ok,
    )
