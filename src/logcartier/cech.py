"""Cech cohomology of twisted log differential sheaves.

Projective engine.  On P^n with the standard cover U_0..U_n, the weight-w
section spaces of Omega^j(log D_S)(l) depend on w only through the sign
pattern (sgn w_0, .., sgn w_n): the chart constraints are inequalities
w_i >= 0 / w_i >= 1 and the Euler contraction matrix never looks at w.  The
engine therefore computes cohomology dimensions once per sign pattern
(at a representative weight in {-1,0,1}^{n+1}) and multiplies by exact lattice
counts {w : pattern, sum w = l}.  Only one-signed patterns are computed, tau
in {0,1}^{n+1} when l >= 0 and in {-1,0}^{n+1} when l < 0, by the cone
argument of the grading proof of Hartshorne, Algebraic Geometry, Thm III.5.1.
If w_k >= 1, every chart constraint at k (w_k >= 0, and w_k >= 1 for a
non-log dlog X_k) holds whether or not X_k is inverted, and the Euler
contraction never looks at the chart, so the section space V_I on U_I equals
V_{I+k} for every I: the Cech complex is a cone on k, with H^0 = V_{k} and
every higher H^i = 0.  If w also has a negative coordinate, V_{k} = 0.  So a
pattern with a positive coordinate builds no complex; its H^0 is read off
the support set of V_{k} (as is that of a zero coordinate inside S, below).  A
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

Read off this description, two more kinds of pattern need no complex of their
own.  First, a zero coordinate inside S is a cone too: if tau_k = 0 with k in
S, adding k to I changes neither T = S + I + P nor the set of negative
coordinates outside I, so V_{I+k} = V_I for every I and the complex is a cone
on k.  Its dims are (dim V_{k}, 0, .., 0) with V_{k} = V(S + P), or 0 when
tau has a negative coordinate; H^0 need not vanish (at twist 0, P^6
Omega^1(log D_{0,1}) has H^0 = 1).  Second, what is left is free of S: a
pattern with no cone coordinate has S inside N = {k : tau_k < 0}.  Every
nonzero V_I has N inside I, so S lies inside I and T = I + P, and the
complex is the one at (empty, tau).  Every pattern left is therefore keyed
with S empty, and specs that differ only in such S share it.  At j = 0
every zero coordinate is a cone coordinate, whatever S: a section has no dlog
factor, so T decides nothing (the only j-subset is empty) and V_I is the line
of X^w, or 0 when tau is negative outside I; adding a zero coordinate k to I
leaves the negative coordinates outside I alone, so again V_{I+k} = V_I.

A pattern left with a negative coordinate splits into cones and lines, by
the same argument (Hartshorne, Algebraic Geometry, section III.4 and Thm
III.5.1).  Take one keyed at (empty, tau) with N nonempty, no positive
coordinate and Z = {k : tau_k = 0}.  V_I = 0 unless N lies in I, and then
T = I and V_I = Lambda^j(A_I), with A_I the annihilator of the contraction
on span{dlog X_a : a in I}.  Fix t0 = min N, which lies in every such I.
A_I has the basis f_a = dlog X_a - dlog X_{t0}, a in I - t0, and each
inclusion A_I -> A_I' sends f_a to f_a; this is the closed basis of
`log_section_space`, whose t0 is min I, which is min N = 0 in the sorted
key.  So every inclusion block is a 0/1 selection of the wedges f_B, and
the complex is the direct sum, over the j-subsets B of {0..n} - t0, of K_B:
the line F_p f_B at every I containing N + B, with the Cech signs.  If
some k in Z lies outside B, then V_I = V_{I+k} in K_B for every I without
k, so K_B is a cone on k and acyclic (h(c)_I = c_{k,I}).  Otherwise Z lies
in B, and K_B is one line at I = {0..n}, in Cech degree n.  There are
C(|N| - 1, j - |Z|) such B, namely Z + B' with B' inside N - t0, so H^n =
C(|N| - 1, j - |Z|), 0 when j < |Z|, and every other degree is 0; at j = 0
this is H^n(O(l)) = 1 per all-negative weight.  Such a pattern builds no
section space and no complex.  What is left is the all-zero pattern, with
S empty (a zero inside S is a cone coordinate) and j >= 1.

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

The dims are further shared across an orbit of patterns.  A permutation sigma
of the coordinates X_0..X_n maps D_S onto D_sigma(S) and the chart U_i onto
U_sigma(i), and it carries the weight-w slice to the weight-sigma(w) slice.
On cochains it sends the U_I component of the (S, w) complex to the
U_sigma(I) component of the (sigma(S), sigma(w)) complex, times the sign of
the permutation that sorts sigma(I); with those signs it commutes with the
differentials, so the two complexes are isomorphic.  The homology dims are
therefore constant on orbits (for sigma(S) = S, sigma is an automorphism of
(P^n, D_S)), and each (S, tau) is computed at the representative where
S = {0..|S|-1} and the signs inside S, and separately outside it, are sorted;
when tau is negative on all of S, at (empty, sorted tau) instead.

Blowup engine.  Bl_Z(A^m) with Z = V(T_1..T_c) inside D = V(T_1) is covered by
c charts; chart functions are Laurent monomials in the T's, so sections embed
into slices of one ambient all-log Laurent ring and the Cech differentials are
inclusion-induced.  On chart q a weight-w section is a combination of
u^b * g_{i_1} ^ .. ^ g_{i_j}, where g_i is dlog u_i or u_i dlog u_i and the
chart monomial u^b is forced by w (the per-chart weight of a monomial is
triangular in its exponents), so the monomial factors multiply to exactly T^w
and each basis form is T^w dlog u_{i_1} ^ .. ^ dlog u_{i_j}.  In the all-log
ring, multiplication by T^-w is an isomorphism from the weight-w slice onto
the weight-0 slice that fixes every dlog T_A, and it commutes with the
inclusion-induced differentials.  So every section space is spanned inside
the weight-0 slice by the valid dlog u_G, and the Cech matrices are those of
the weight-w complex entry for entry; the weight only decides which G are
valid, and one ring with window 0 serves every weight.  So two weights with
the same signature -- the tuple, over the intersections U_Q in cover order,
of the valid G -- have the same complex, and its dims are computed once per
such validity class.  Validity is a threshold test: G is valid on U_Q when
the chart exponents b(w - g_G) are nonnegative off the inverted coordinates,
and b is linear, so this is l(w) >= l(g_G) for fixed linear forms l.  A
weight is classed by its form values clamped to the range of their
thresholds, which keeps every comparison.  No weight is walked.  Each form
is a coordinate w_i or the head sum s = w_0 + .. + w_{c-1}, so a key fixes a
range for each coordinate and one for s, and the weights with that key form
a region: a box cut by a sum slab, open where a clamped value is an end of
its bounds.  The number of its weights in a bounded box is a lattice-point
count (Beck-Robins, Computing the Continuous Discretely, ch. 1-2), in closed
form per key, and the totals and the size of the per-weight map are read off
these counts.

The inclusion blocks are read off fixed chart-to-chart matrices, with no
solve per block.  On chart q, dlog u_i = sum_k M_q[i, k] dlog T_k, where the
rows of the integer matrix M_q are the var_weight of the u_i.  M_q is the
identity but for -1 at (i, q) for the head indices i < c other than q, so it
has determinant 1 and the integer inverse 2I - M_q: it is unimodular.  For
charts a and b, dlog u^a = M_a M_b^-1 dlog u^b, and by Cauchy-Binet the
j-fold wedges are dlog u^a_G = sum_H det (M_a M_b^-1)[G, H] dlog u^b_H over
the j-subsets H.  These minors form an integer matrix T_{a->b} with integer
inverse T_{b->a}, so for every p each chart's dlog u_H are a basis of the
weight-0 slice.  By Cauchy-Binet again, Lambda^j(M_a M_b^-1) is Lambda^j(M_a)
Lambda^j(2I - M_b), so T_{a->b} is its transpose mod p, with no ring and no
solve: each exterior power is taken on the integer rows, and a row of M_q or
of 2I - M_q has at most two nonzeros, so the wedge of j rows has at most 2^j
terms.  The engine checks that Lambda^j(M_q) and Lambda^j(2I - M_q) are
mutually inverse mod p for every chart.  The block of V_I -> V_J, with a =
I[0] and b = J[0], is T_{a->b} at the rows valid on U_J and the columns valid
on U_I; at a = b, T_{a->a} is the identity and the block is a 0/1 selection.
The rows not valid on U_J vanish on those columns, because a section on U_I
restricts to a section on U_J and its coordinates in chart b's basis are
unique; the engine checks that they do.

Most classes are decided without their complex, by a cone rule read off the
sizes of the valid sets.  Each chart's valid dlog u_G are independent, so dim
V_Q is the number of valid G on U_Q, and every V_Q lies in the one weight-0
slice, where the restriction V_Q -> V_{Q+k} is an inclusion.  Call k a cone
chart when dim V_Q = dim V_{Q+k} for every Q without k.  Once each of those
inclusions is checked (the block check above), equal dims make it an
equality, V_Q = V_{Q+k}, and the complex is a cone on k: h(c)_I = c_{k,I},
read in V_I = V_{I+k}, is a contracting homotopy in positive degrees and
sends a 0-cocycle to its component at k, the cone argument of Hartshorne,
Algebraic Geometry, section III.4.  So the dims are (dim V_{k}, 0, .., 0).
The charts are tried in order, the first cone chart decides, and the pairs
of that chart are the only blocks read; a class with no cone chart builds
its complex.  Every class of every (m, c, j) with m <= 6 at p in {2, 3, 5}
has a cone chart, but that is a measurement, not a proof, so the complex
stays.  The three projective rules above are instances of the same lemma: a
positive coordinate, a zero coordinate inside S and, at j = 0, any zero
coordinate each give V_I = V_{I+k} for every I without k.  That engine reads
them off the pattern, which needs no section space, rather than off the dims
of all 2^(n+1) - 1 support spaces.

The dims are further shared across an orbit of keys.  In the 0-based indices
of BlowupChart, Z = V(T_0..T_{c-1}) and D = V(T_0), and every permutation
sigma in S_{c-1} x S_{m-c}, of the head indices 1..c-1 and, separately, of the
tail indices c..m-1, keeps Z, D and so E + Dbar.  Such a sigma fixes chart 0
and D, permutes the charts 1..c-1, so maps U_Q onto U_sigma(Q), and carries
the weight-w slice onto the weight-sigma(w) slice.  As in the projective orbit
paragraph, on cochains it sends the U_Q component of the weight-w complex to
the U_sigma(Q) component of the weight-sigma(w) complex, times the sign of the
permutation that sorts sigma(Q), and with those signs it commutes with the
differentials; so the two complexes have the same dims.  Of the forms of the
key, sigma fixes w_0 and the head sum s and permutes w_1..w_{c-1} among
themselves and w_c..w_{m-1} among themselves.  Each w_i with i >= 1 is checked
against 1 where i lies in the j-subset and 0 where it does not (on chart i the
form at i is s, not w_i), so they all have the same bounds, clamping commutes
with sigma, and the key of sigma(w) is the key of w with its values permuted.
So the dims of a key are computed at the canonical key of its orbit, which
sorts the clamped values of w_1..w_{c-1}, and separately those of
w_c..w_{m-1}.  Each key keeps its own region count; only the complexes are
shared.

Both engines end in regions (dims, head ranges, tail ranges, sum range): the
weights with head coordinates in their ranges and head sum in the sum range,
crossed with the tail ranges, each range open (an end at -inf or inf) where
nothing bounds it.  A projective pattern has every coordinate in the head, no
tail and the sum range [l, l]; a blowup key has the first c coordinates in the
head.  One rule, in _region_report, chooses the box of both: [-r, r] at each
head coordinate and [0, r] at each tail one, with r doubled from its start
until the box holds every weight of each region whose cohomology goes into a
finite total, every nonzero pattern of P^n and every blowup key with higher
cohomology.  Each head range [lo, hi] is first narrowed by the sum range
[sa, sb] to [max(lo, sa - R), min(hi, sb - L)], with L and R the sums of the
lower and upper ends of the other head ranges.  If the region has a weight,
each narrowed end is the coordinate of one: the other heads take every sum in
[L, R], which then meets the sums that bring the total into [sa, sb].  Each
tail end is reached as well, the tail being a product, so the region lies in
box r exactly when r covers the ends, and the box is read off them.  This is
the shell test read off the ranges.  The lattice points of a region are
linked by steps that move each coordinate by at most 1: walk toward the
target one coordinate at a time, and where the sum range is tight pair a
rise with a fall.  A step out of box r lands in box r + 1, so a region that
meets box r gains no weight from r to r + 1 exactly when it lies in box r,
and "no held region gains weights from r to r + 1" is "every held region
lies in box r" for each one that meets box r.  A held region that is open
never fits, and the box stops at MAX_BOX_RADIUS.

Cut to the box, a report's per-weight map is a read-only view of the regions
with nonzero dims.  Its length and the totals are sums of region counts, so a
report that is only counted lists no weight.  The first read of a weight
checks the count against MAX_LISTED_WEIGHTS, then lists and sorts the weights
and checks them against the counts.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from math import comb, inf, prod
from operator import ge, mul

import numpy as np

from .forms import FormRing, LogForm
from .gflinalg import FpMatrix, homology_dims
from .sequences import (
    euler_contraction,
    log_section_space,
    pullback_ses,
    walk_sign_classes,
    weight_ring,
)


class ResourceLimit(RuntimeError):
    """A weight box would pass MAX_BOX_RADIUS before stabilizing, a
    per-weight map read for its weights holds more than MAX_LISTED_WEIGHTS
    (its length is counted, not listed), or a blowup key table would hold
    more than MAX_BLOWUP_KEYS keys."""


MAX_BOX_RADIUS = 64
# The listing cap counts weights, not the memory they take, and binds only
# where weights are listed (JSON output, `report`, iterating per_weight): a
# blowup listing holds about 0.33 KB per weight (blowup_cohomology(6, 6, 3, 2,
# box_radius=9) lists 999,540 weights at a 363 MB peak), and `cohomology
# --format json` peaks at about 2.2 KB per weight ((6, 6, 6) at p = 3 writes
# 294,912 weights at a 680 MB peak), so a JSON listing just under the cap
# would take about 4.5 GB.  Text and CSV output count and never list.
MAX_LISTED_WEIGHTS = 2_000_000
# A blowup key table holds 4 * 3^(m-1) keys for 0 < j < m and 2^(m+1) for
# j in {0, m}, whatever c.  On a 2-vCPU machine the slowest m = 6 inputs,
# (m, c, j) = (6, 6, 3) at p = 2 and 3 with 972 keys and 37 classes at p = 2,
# each decided by a cone chart with no complex, take 0.07-0.10 s in process;
# with the cap lifted, (7, 7, 1) and (7, 7, 3) at p = 2 with 2,916 keys take
# 0.07 s and 0.17-0.27 s, nothing listed.  The cap counts keys, not orbits,
# and stays: the CLI stops at m = 6.
MAX_BLOWUP_KEYS = 1_000


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
    A space has a dim and a coords_of_space giving the inclusion block from
    another, as SectionSpace does."""

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

    def dim(self, k: int) -> int:
        return self.offsets[k][1]

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


def _count_at_most(ranges, total: int) -> int:
    """Number of integer vectors with given componentwise ranges and sum at
    most total, in closed form: shift each range to start at 0, count the
    vectors of nonnegative entries by stars and bars, and take out by
    inclusion-exclusion those pushed past an upper end.  A coordinate with a
    one-point range only shifts the sum, so the cost is 2^(ranges with more
    than one point), whatever the lengths."""
    if any(lo > hi for lo, hi in ranges):
        return 0
    room = total - sum(lo for lo, _ in ranges)
    lengths = [hi - lo + 1 for lo, hi in ranges if hi > lo]
    terms = [(0, 1)]  # (summed lengths of the pushed coordinates, sign)
    for length in lengths:
        terms += [(s + length, -sign) for s, sign in terms]
    k = len(lengths)
    return sum(sign * comb(room - s + k, k) for s, sign in terms if room >= s)


def _region_count(head, tail, sums) -> int:
    """The number of weights in a region: heads in their ranges with sum in
    the range sums, times the lengths of the tail ranges."""
    sa, sb = sums
    count = _count_at_most(head, sb) - _count_at_most(head, sa - 1)
    return count * prod(hi - lo + 1 for lo, hi in tail)


def _region_weights(head, tail, sums):
    """The weights of a region, in lex order.  Each head coordinate is
    clamped so the rest can still reach the sum range, so every prefix
    extends to a weight and the cost follows the number listed."""
    sa, sb = sums
    if not head:
        if sa <= 0 <= sb:
            yield from product(*(range(lo, hi + 1) for lo, hi in tail))
        return
    (lo, hi), rest = head[0], head[1:]
    rest_lo = sum(a for a, _ in rest)
    rest_hi = sum(b for _, b in rest)
    for x in range(max(lo, sa - rest_hi), min(hi, sb - rest_lo) + 1):
        for w in _region_weights(rest, tail, (sa - x, sb - x)):
            yield (x,) + w


class _WeightMap(Mapping):
    """The per-weight map of the regions (dims, count, head, tail, sums) with
    nonzero dims, each weight mapped to its dims, in lex order.  Its len and
    totals are sums of region counts, so reading them lists nothing.  The
    first read of a weight lists the regions, after checking the count
    against MAX_LISTED_WEIGHTS, and checks the listing against the counts."""

    def __init__(self, regions, width: int):
        self._regions = [r for r in regions if any(r[0])]
        self._len = sum(count for _dims, count, *_ranges in self._regions)
        self.totals = tuple(
            sum(dims[i] * count for dims, count, *_ranges in self._regions) for i in range(width)
        )

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
                (w, list(dims)) for dims, _count, *ranges in self._regions
                for w in _region_weights(*ranges)
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


def _meets(head, sums) -> bool:
    """Whether some heads in their ranges sum into the range sums."""
    return sum(lo for lo, _ in head) <= sums[1] and sum(hi for _, hi in head) >= sums[0]


def _narrowed(head, sums) -> list:
    """The head ranges narrowed by the sum range: each end moved in as far as
    the other heads can still bring the sum into range.  If the ranges meet
    the sum range, each narrowed end is the coordinate of some head in the
    ranges with its sum in range.  Open ends stay exact: upper ends are only
    taken from the lower sum end and lower ends from the upper one, so no
    inf - inf arises."""
    lows, highs = [lo for lo, _ in head], [hi for _, hi in head]
    return [
        (
            max(lo, sums[0] - sum(highs[:i]) - sum(highs[i + 1 :])),
            min(hi, sums[1] - sum(lows[:i]) - sum(lows[i + 1 :])),
        )
        for i, (lo, hi) in enumerate(head)
    ]


def _region_report(spec: SheafSpec, radius: int, regions) -> CohomologyReport:
    """The report of spec from the regions (dims, head, tail, sums) of its
    weights, which meet their sum ranges, with the box chosen by the one rule
    of both engines (see the module docstring).

    The box is [-r, r] at each head coordinate and [0, r] at each tail one,
    with r doubled from radius until it holds every weight of each held
    region: one with nonzero dims in a degree whose total is finite, every
    degree on P^n and H^1.. on a blowup.  A held region reaches each end of
    its narrowed head ranges and of its tail ranges, so it lies in the box
    exactly when the box covers those ends; an open one never does, and the
    box stops at MAX_BOX_RADIUS with ResourceLimit.  Every region is then cut
    to the box.  A blowup's H^0 has infinite rank, reported as None, unless
    no region carries it (Omega^j = 0 for j > m)."""
    space = spec.space
    blowup = isinstance(space, BlowupSpace)
    heads, tails = (space.c, space.m - space.c) if blowup else (space.n + 1, 0)
    finite = 1 if blowup else 0  # the first degree with a finite total
    # a region with no cohomology moves neither the box nor the map
    regions = [
        (dims, _narrowed(head, sums), tail, sums) for dims, head, tail, sums in regions if any(dims)
    ]
    reach = max(
        (
            max(-lo, hi)
            for dims, head, tail, _ in regions
            if any(dims[finite:])
            for lo, hi in (*head, *tail)
        ),
        default=0,
    )
    while radius < reach:
        if 2 * radius > MAX_BOX_RADIUS:
            box = "blowup box" if blowup else "weight box"
            raise ResourceLimit(f"{box} not stabilized at radius {radius} (cap {MAX_BOX_RADIUS})")
        radius *= 2
    cut = []
    for dims, head, tail, (sa, sb) in regions:
        ranges = (
            [(max(lo, -radius), min(hi, radius)) for lo, hi in head],
            [(lo, min(hi, radius)) for lo, hi in tail],
            (max(sa, -heads * radius), min(sb, heads * radius)),
        )
        cut.append((dims, _region_count(*ranges), *ranges))
    per_weight = _WeightMap(cut, heads)
    dims = list(per_weight.totals)
    if finite:
        dims[0] = None if any(h[0] for h, *_ in regions) else 0
    box = ((-radius, radius),) * heads + ((0, radius),) * tails
    return CohomologyReport(spec=spec, dims=dims, per_weight=per_weight, box=box)


# -- projective engine ---------------------------------------------------------


def _pattern_dims(p: int, n: int, j: int, S: frozenset, tau: tuple) -> tuple:
    """Cohomology dims at the sign pattern tau, in integer arithmetic, with
    no section space and no complex (the module docstring has the three
    arguments).  A coordinate k with tau_k > 0, or with tau_k = 0 and k in S
    or j = 0, is one no chart constraint sees, so the complex is a cone on k
    and its dims are (dim V_{k}, 0, .., 0): C(|T| - 1, j) with T = S + {k} +
    {i : tau_i > 0}, or 0 if tau has a negative coordinate.  A pattern with
    no such coordinate and a negative one splits into cones and lines at the
    top: its dims are (0, .., 0, C(|N| - 1, j - |Z|)), with N its negative
    and Z its zero coordinates, and 0 at the top when j < |Z|.  What is left
    is the all-zero pattern with S empty and j >= 1, whose dims are 1 in
    Cech degree j and 0 elsewhere (all 0 when j > n).  None of them reads
    p."""
    cones = [k for k, t in enumerate(tau) if t > 0 or (t == 0 and (k in S or j == 0))]
    negative, zeros = sum(t < 0 for t in tau), tau.count(0)
    if cones:
        T = S | {cones[0]} | {k for k, t in enumerate(tau) if t > 0}
        return (0 if negative else comb(len(T) - 1, j),) + (0,) * n
    if negative:
        return (0,) * n + (comb(negative - 1, j - zeros) if j >= zeros else 0,)
    return tuple(int(q == j) for q in range(n + 1))


def _orbit_key(n: int, S: frozenset, tau: tuple) -> tuple:
    """Canonical (S', tau') in the permutation orbit of (S, tau): S' is
    {0..|S|-1}, and tau' lists the signs inside S, then those outside S,
    each block sorted.  When tau is negative at every index of S, the
    complex is that of (empty, tau) (see the module docstring), so the key
    is (empty, sorted tau) and specs differing only in such S share it."""
    if all(tau[i] < 0 for i in S):
        return frozenset(), tuple(sorted(tau))
    inside = sorted(tau[i] for i in range(n + 1) if i in S)
    outside = sorted(tau[i] for i in range(n + 1) if i not in S)
    return frozenset(range(len(inside))), tuple(inside + outside)


def _contributing_patterns(spec: SheafSpec) -> list:
    """The region (dims, ranges, (), (l, l)) of every one-signed pattern with
    weights summing to the twist: signs in {0, 1} when l >= 0, in {-1, 0}
    when l < 0, each coordinate ranging over {0}, [1, inf) or (-inf, -1] by
    sign.  No other pattern contributes (the cone argument of the module
    docstring), and the sum l bounds each one."""
    n, l = spec.space.n, spec.l
    sign = 1 if l >= 0 else -1
    sign_ranges = {0: (0, 0), 1: (1, inf), -1: (-inf, -1)}
    out = []
    for tau in product((0, sign), repeat=n + 1):
        ranges = [sign_ranges[t] for t in tau]
        if _meets(ranges, (l, l)):
            h = _pattern_dims(spec.p, n, spec.j, *_orbit_key(n, spec.S, tau))
            out.append((h, ranges, (), (l, l)))
    return out


def cech_cohomology(spec: SheafSpec, box_radius: int | None = None) -> CohomologyReport:
    """Cohomology dims of the spec over its standard cover, from the regions
    of a blowup's validity keys or of the contributing sign patterns of a
    projective space, with the box read off them (see _region_report).
    Raises ResourceLimit when the box would pass MAX_BOX_RADIUS or a blowup
    key table MAX_BLOWUP_KEYS; the per-weight map raises it when read for
    more than MAX_LISTED_WEIGHTS weights."""
    if isinstance(spec.space, BlowupSpace):
        return blowup_cohomology(
            spec.space.m, spec.space.c, spec.j, spec.p, box_radius=box_radius
        )
    radius = _start_radius(spec, box_radius)
    return _region_report(spec, radius, _contributing_patterns(spec))


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


def _thresholds(atlas: BlowupAtlas, j: int, cover) -> tuple:
    """The validity test of the dlog u_G on each U_Q in cover, as linear forms
    and thresholds.

    At weight w the coefficient of dlog u_G on chart q = Q[0] has chart
    exponents b(w - g_G), where g_G is the summed gen_weight of G and b is
    exponents_from_weight; each must be nonnegative off the inverted
    coordinates Q minus {q}.  b is linear, so the test reads
    l(w) >= l(g_G) for each checked coordinate's linear form l = b(.)_i.
    Returns the distinct forms l over the whole cover, the key bounds of
    each form and, per Q, the form indices it checks with one threshold row
    per j-subset G, in combinations(range(m), j) order.  Clamping a form's
    value into its bounds [lowest threshold - 1, highest] keeps every
    comparison with its thresholds, so the clamped values, the key, fix the
    signature."""
    m = atlas.m
    forms: list = []
    tables = []
    for Q in cover:
        chart = atlas.charts[Q[0]]
        images = [chart.exponents_from_weight(e) for e in np.eye(m, dtype=int).tolist()]
        checked = []
        for i in range(m):
            if i not in Q[1:]:
                form = tuple(b[i] for b in images)
                if form not in forms:
                    forms.append(form)
                checked.append(forms.index(form))
        rows = []
        for G in combinations(range(m), j):
            g = [sum(col) for col in zip((0,) * m, *(chart.gen_weight(i) for i in G))]
            rows.append(tuple(_form_value(forms[f], g) for f in checked))
        tables.append((tuple(checked), rows))
    seen: list = [[] for _ in forms]
    for checked, rows in tables:
        for thr in rows:
            for f, t in zip(checked, thr):
                seen[f].append(t)
    bounds = [(min(ts, default=0) - 1, max(ts, default=0)) for ts in seen]
    return forms, bounds, tables


def _form_value(form, w) -> int:
    return sum(map(mul, form, w))


def _symmetric_positions(forms, c: int) -> tuple:
    """The positions, among the forms of _thresholds, of the coordinates
    w_1..w_{c-1} and of w_c..w_{m-1}: the two blocks that the symmetry group
    S_{c-1} x S_{m-c} permutes (see the module docstring)."""
    m = len(forms[0])
    where = [forms.index(tuple(int(k == i) for k in range(m))) for i in range(m)]
    return tuple(where[1:c]), tuple(where[c:])


def _canonical_key(key, blocks) -> tuple:
    """The representative of key's orbit: its values at each block of
    positions sorted, the others kept."""
    out = list(key)
    for block in blocks:
        for f, v in zip(block, sorted(key[f] for f in block)):
            out[f] = v
    return tuple(out)


def _valid_dlogs(table, values) -> tuple:
    """The indices of the j-subsets G that pass one intersection's threshold
    rows, given the values of the forms of _thresholds at a weight."""
    checked, rows = table
    v = [values[f] for f in checked]
    return tuple(k for k, thr in enumerate(rows) if all(map(ge, v, thr)))


def _exterior_power(rows, j: int) -> np.ndarray:
    """Lambda^j of the integer matrix with the given rows: entry (G, H) is
    the minor on rows G and columns H, the j-subsets in combinations order.
    Row G is the wedge of the rows at G, expanded one nonzero per row, so
    rows with at most two nonzeros give at most 2^j terms."""
    subsets = list(combinations(range(len(rows)), j))
    index = {H: k for k, H in enumerate(subsets)}
    nonzeros = [[(k, x) for k, x in enumerate(row) if x] for row in rows]
    out = np.zeros((len(subsets), len(subsets)), dtype=np.int64)
    for r, G in enumerate(subsets):
        for picks in product(*(nonzeros[g] for g in G)):
            cols = [k for k, _x in picks]
            if len(set(cols)) < j:
                continue
            sign = (-1) ** sum(a > b for a, b in combinations(cols, 2))
            out[r, index[tuple(sorted(cols))]] += sign * prod(x for _k, x in picks)
    return out


def _chart_transitions(p: int, atlas: BlowupAtlas, j: int) -> list:
    """T[a][b], the C(m, j) x C(m, j) matrix whose column G holds the
    coordinates of chart a's dlog u_G in chart b's dlog u_H, the j-subsets
    in combinations order: (Lambda^j(M_a) Lambda^j(2I - M_b))^T mod p, with
    M_q the var_weight rows of chart q (see the module docstring).  Each
    chart's pair of exterior powers is checked to be mutually inverse mod
    p, so its dlog u_G are independent."""
    m = atlas.m
    wedges, inverses = [], []
    for chart in atlas.charts:
        rows = [chart.var_weight(i) for i in range(m)]
        inverse = [[2 * (i == k) - x for k, x in enumerate(row)] for i, row in enumerate(rows)]
        wedges.append(_exterior_power(rows, j))
        inverses.append(_exterior_power(inverse, j))
    eye = np.eye(comb(m, j), dtype=np.int64)
    if any(np.any((wq @ vq - eye) % p) for wq, vq in zip(wedges, inverses)):
        raise AssertionError("blowup chart sections are not independent")
    return [[(wa @ vb).T % p for vb in inverses] for wa in wedges]


@dataclass(frozen=True, eq=False)
class _DlogSpan:
    """The section space of a blowup class complex on one intersection U_Q:
    the span of chart Q[0]'s valid dlog u_G, given by their indices."""

    chart: int
    valid: np.ndarray
    transitions: list

    @property
    def dim(self) -> int:
        return len(self.valid)

    def coords_of_space(self, src: "_DlogSpan") -> np.ndarray:
        """The inclusion block src -> self: T[src.chart][self.chart] at the
        rows self.valid and the columns src.valid.  The rows outside
        self.valid must vanish on those columns, since a section restricts
        to a section."""
        block = self.transitions[src.chart][self.chart][:, src.valid]
        rows = block[self.valid]
        if np.count_nonzero(rows) != np.count_nonzero(block):
            raise AssertionError("blowup inclusion leaves the valid dlog span of its target")
        return rows


def _class_dims(p: int, cover, transitions, signature) -> tuple:
    """Cech cohomology dims of one validity class, whose signature gives the
    valid dlog indices on each U_Q of cover, over the charts of
    transitions.

    The first cone chart k, one with as many valid dlogs on U_Q as on
    U_{Q+k} for every Q without k, decides the class: each of those
    inclusions is checked, and the dims are (dim V_{k}, 0, .., 0) (the
    blowup cone rule of the module docstring).  A class with no cone chart
    builds its complex."""
    spans = {
        Q: _DlogSpan(Q[0], np.array(valid, dtype=np.intp), transitions)
        for Q, valid in zip(cover, signature)
    }
    c = len(transitions)
    for k in range(c):
        pairs = [(spans[Q], spans[tuple(sorted(Q + (k,)))]) for Q in cover if k not in Q]
        if all(src.dim == dst.dim for src, dst in pairs):
            for src, dst in pairs:
                dst.coords_of_space(src)
            return (spans[(k,)].dim,) + (0,) * (c - 1)
    return tuple(CechComplex(p, range(c), spans.__getitem__).homology_dims())


def _key_regions(forms, bounds, c: int):
    """Each validity key with weights, as (key, head, tail, sums): the ranges
    of the head coordinates (i < c), of the tail ones (i >= c, which are
    nonnegative) and of the head sum s, with -inf or inf at an open end.  A
    key whose head ranges cannot meet its sum range has no weight and is
    skipped.

    Each form is a coordinate w_i or the head sum s = w_0 + .. + w_{c-1}
    (exponents_from_weight replaces one coordinate with s).  A clamped value
    v in [lo, hi] has preimage (-inf, lo] at v = lo, [hi, inf) at v = hi and
    {v} in between, which gives a range per coordinate."""
    m = len(forms[0])
    head_sum = (1,) * c + (0,) * (m - c)
    where = []  # per form: its coordinate, or m for the head sum
    options = []  # per form: (clamped value, range) pairs with a nonempty range
    for form, (lo, hi) in zip(forms, bounds):
        i = m if form == head_sum else form.index(1)
        floor = 0 if c <= i < m else -inf
        where.append(i)
        opts = []
        for v in range(lo, hi + 1):
            rng = (floor if v == lo else max(floor, v), inf if v == hi else v)
            if rng[0] <= rng[1]:
                opts.append((v, rng))
        options.append(opts)
    for choice in product(*options):
        ranges = [None] * (m + 1)
        for i, (_v, rng) in zip(where, choice):
            ranges[i] = rng
        if _meets(ranges[:c], ranges[m]):
            yield tuple(v for v, _rng in choice), ranges[:c], ranges[c:m], ranges[m]


def blowup_cohomology(
    m: int,
    c: int,
    j: int,
    p: int,
    box_radius: int | None = None,
) -> CohomologyReport:
    """Per-weight Cech cohomology of Omega^j(log(E + Dbar)) on Bl_Z(A^m) over
    the c-chart cover.  H^0 is an infinite-rank F_p module (reported as None
    in the totals, with finite per-weight dims), or 0 when j > m; the box
    grows until it holds every key region with higher cohomology, so the
    totals for i >= 1 are exact (see _region_report).  The dims are computed
    once per orbit of validity classes, off a cone chart where the class has
    one (see _class_dims), the weights of each key are counted, not walked
    (see the module docstring), and the per-weight map lists them only when
    read.  Raises ResourceLimit when the key table would
    exceed MAX_BLOWUP_KEYS or the box MAX_BOX_RADIUS; the per-weight map
    raises it when read for more than MAX_LISTED_WEIGHTS weights."""
    spec = SheafSpec(p=p, space=BlowupSpace(m=m, c=c), j=j)
    radius = _start_radius(spec, box_radius)
    atlas = blowup_charts(m, c)
    cover = [Q for k in range(1, c + 1) for Q in combinations(range(c), k)]
    forms, bounds, tables = _thresholds(atlas, j, cover)
    n_keys = prod(hi - lo + 1 for lo, hi in bounds)
    if n_keys > MAX_BLOWUP_KEYS:
        raise ResourceLimit(f"blowup key table of {n_keys} keys exceeds cap {MAX_BLOWUP_KEYS}")
    transitions = _chart_transitions(p, atlas, j)
    blocks = _symmetric_positions(forms, c)
    classes: dict = {}  # signature -> homology dims
    by_key: dict = {}  # canonical clamped form values -> homology dims
    regions = []
    for key, *ranges in _key_regions(forms, bounds, c):
        key = _canonical_key(key, blocks)
        if key not in by_key:
            signature = tuple(_valid_dlogs(t, key) for t in tables)
            if signature not in classes:
                classes[signature] = _class_dims(p, cover, transitions, signature)
            by_key[key] = classes[signature]
        regions.append((by_key[key], *ranges))
    return _region_report(spec, radius, regions)


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
