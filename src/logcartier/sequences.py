"""Exact-sequence machinery on weight slices.

Everything here is a finite complex of F_p vector spaces: a SliceComplex holds
node dimensions and the matrices between them, and exactness takes one rank
per map.  The builders cover the Euler sequence on P^n (in homogeneous dlog
coordinates), the three residue sequences for a coordinate log divisor, the
closed-forms residue sequence, the pullback sequence on an exceptional
divisor, the two-step filtration of a wedge power, and the conormal sequence
for a monomial center.

The homogeneous model of P^n used by this module and by the cech module: the
ambient ring is Laurent in X_0..X_n with every variable log, so the weight-w
degree-j slice has basis X^w dlog X_A over the j-subsets A.  Sections of
Omega^j(log D_S)(l) on the chart where the X_i (i in I) are invertible are
the X^w dlog X_A with sum(w) = l, w_i >= 0 off I, w_i >= 1 for i in A outside
S and I, intersected with the kernel of the Euler contraction
iota(dlog X_A) = sum_t (-1)^t dlog X_{A minus a_t}.

That kernel has a closed basis, so `log_section_space` eliminates nothing.
The allowed A are the j-subsets of T = S + I + {g : w_g >= 1}.  Let K be the
indices the contraction skips (gamma of the pullback ring), E = T minus K,
and e_A = dlog X_A.  If E is empty, iota is zero on the allowed span and the
basis is every e_A.  Otherwise, with t0 = min E, there is one column per
j-subset B = (b_0 < ..) of T without t0, in lex order: the expansion of
the wedge over b in B of (e_b - [b not in K] e_{t0}), that is 1 at e_B and,
for each b_i not in K, -(-1)^(i - pos) at A = B - b_i + t0, where pos is
the place of t0 in A.  The argument:

- iota is an antiderivation and kills every factor (iota e_b = [b in E] =
  [b not in K] and iota e_{t0} = 1), so each column lies in the kernel;
- only column B is nonzero at e_B, since t0 is not in B, so the columns
  are independent;
- there are C(|T| - 1, j) of them, which is the kernel's dimension: the
  Koszul complex of the nonzero linear form iota on Lambda(F_p^T) is exact
  (Eisenbud, Commutative Algebra, section 17.2), so the kernel in degree j
  is the image of degree j + 1, of dimension C(|T| - 1, j);
- they are the columns `kernel_basis` gives on the allowed columns of
  `euler_matrix`.  Every A in a column B other than e_B is lex-smaller than
  B (it trades b_i > t0 for t0), so each set without t0 lies in the span of
  earlier columns, and the C(|T| - 1, j - 1) sets holding t0, the rank,
  are then independent: they are the pivots, the sets without t0 the free
  columns, and a kernel vector is fixed by its 1 at its own free column and
  its 0 at the others.

Residue classes.  On one ring, degree a and log variable z, each residue
sequence at weight w is a function of a class key (`residue_class_keys`),
up to the unit scaling D_u for the closed sequence (class walks, below),
so a walk over a window builds and ranks it once per class.  With gens(R,
j, v) = R.gens(j, v) the generator sets of R.slice(j, v) in basis order
(read off the ring's layouts, with no slice built), sub the ring without z
in its log set, dring the ring without the variable z, w' the weight w
without coordinate z and e_z the unit weight at z, the keys are

    drop    gens(sub, a, w), gens(ring, a, w), and at w_z = 0 only
            gens(dring, a - 1, w');
    twist   gens(ring, a, w - e_z), gens(sub, a, w), [w_z - 1 < hi_z], and
            at w_z = 0 only gens(dring, a, w');
    closed  whether p divides each w_k, gens of sub and of ring at (a, w)
            and (a + 1, w), and at w_z = 0 only gens of dring at
            (a - 1, w') and (a, w');
    all     (a = 1) gens(ring with no log, 1, w), gens(ring, 1, w), and for
            each log y, at w_y = 0 only, gens(ring without y, 0, w without y).

The argument:

- transport_matrix, twist_matrix, residue_matrix and restrict_matrix are
  selections on generator sets (the forms module), so their entries are
  fixed by the sets of their two slices.  The builders take residue and
  restrict only where the divisor's graded piece can be nonzero, at
  w_z = 0 (and a >= 1 for the residue), and that flag is in the key; their
  other columns (z not in I, or a restriction at z in I with z not log, a
  pole) are decided by the sets.
- The reference fallbacks raise exactly where an index lookup misses.  A
  transported term that succeeds lies in the window, so its set is one of
  the target's; the LogForm operation refuses every other, and so whether
  a build raises is a function of the sets too.
- transport's `risky` fallback at a generator g that turns log needs
  hi_g < 1, a property of the ring, or w_g - 1 < lo_g; a source set can
  hold g only where w_g - 1 >= lo_g, so the second never meets a set.
- The twist decides by [w_z - 1 < hi_z] whether T_z times a source term
  stays in the window; where it does not, the source slice is empty or
  every column raises.  That flag is in the twist key.
- The closed bases are the Z classes of the cartier module, fixed by the
  sets in degrees j and j + 1 and w mod p; the maps between them are the
  solves of selections against those bases, fixed by the same data.  The
  key reads only whether p divides each w_k: the weights of one closed
  key build complexes that D_u carries onto each other, with the same
  dims and exactness (class walks, below).
- SliceComplex dims are the lengths of those sets and of the bases, and
  exactness is a function of the matrices.

`walk_residue_classes` walks a weight box by these keys (class walks,
below), for the residue rows and the steps of `purity.iterated_purity`.

Euler and pullback classes.  euler_complex and pullback_ses at weight w on
a chart (the set of inverted coordinates: all of them for the Euler torus
chart, one for a pullback chart) are functions of the class key
`sign_class(w, chart)`: the chart and, for each coordinate off it, whether
w_i < 0, w_i = 0 or w_i >= 1, with every pattern holding a negative
coordinate read as one.  The argument:

- weight_ring and the pullback's extended ring are Laurent and all log, with
  windows holding w (and 0 at gamma), so every coordinate of every slice
  is free and a slice's generator sets are all the subsets of its degree,
  whatever w is.
- log_section_space reads w only through [w_i < 0] off the chart and
  [w_g >= 1] for g off S and the chart, and euler_complex's middle term
  only through the same flags; on the torus chart neither reads w at all.
- euler_matrix, extend_matrix and residue_matrix at gamma (weight 0 there)
  read only generator sets, and a section basis only T and the sets, so
  every matrix, and every solve taken of them, is fixed by the key; so are
  the dims and exactness.
- A negative coordinate off the chart makes every section space zero
  (log_section_space's first test, on the extended ring too) and the
  Euler middle term empty, so the complex is 0 -> 0 -> 0 with empty
  matrices, whichever of the others is negative.

So `walk_sign_classes` builds one complex per class (class walks, below)
for the euler-exactness and pullback-ses rows and for
`cech.formal_functions_check`, and their rows count every weight.

Filtration classes.  Step i of `filtration` at (u, w, k) is
0 -> F_{i-1} -> F_i -> gr_i -> 0.  The basis of F_i is the members of
gr_0, ..., gr_i in that order, so with a = |F_{i-1}| and b = |gr_i| the
inclusion is eye(a + b, a) by construction, and phi = [0 | phi'] sends
member s (basis vector a + s) to the tensor basis vector (A_U, A_W) of
Wedge^{k-i}U (x) Wedge^iW, of dimension g.  So the step complex is the
direct sum of 0 -> F^a -> F^a -> 0 -> 0, the identity, and
0 -> 0 -> F^b -> F^g -> 0, the map phi'.  The argument, node by node with
h = dim - rank(map out) - rank(map in):

- at F_{i-1}, h = a - rank(eye(a + b, a)) = 0, as in the summand, whose
  node there is 0;
- rank(phi) = rank(phi'), since the first a columns of phi are zero, so
  at F_i, h = (a + b) - rank(phi') - a = b - rank(phi'), and at gr_i,
  h = g - rank(phi'): the summand's homology at both nodes;
- phi . inc = [0 | phi'] [1; 0] = 0 whatever phi' is, and so is the
  summand's composition, which starts at the zero space;
- phi's nonzero columns are phi''s, so `_is_signed_permutation_onto`
  gives one verdict on both.

Every verdict of the step is therefore one of the summand
`_filtration_step(p, 0, g, positions)`, a function of p, g and the
members' tensor positions, whatever a is.  Those positions are always
0..b-1 in order: the members are in lex order, every U index is below
every W index, so a member compares as its pair (A_U, A_W), and the tensor
basis is lex in (A_U, A_W).  So the position of (A_U, A_W) is
rank(A_U) * C(w, i) + rank(A_W), with each factor's lex rank read from a
subset index.  `filtration` keys each step by (p, g, positions) and checks
its summand once per key, and the filtration suite shares one store of
verdicts and one of subset indices over its rows: the 750 steps of one
suite call fall into 23 classes, one per graded dimension g.  The stores
keep verdicts and indices, not matrices.

Class walks.  Every check that walks a weight box reads a weight w only
through facts about each coordinate on its own: the place of w_k against
the ring's window (below it, at lo, inside, at hi + 1 or above it;
`FormRing.place`), or the slice status that place gives, at w_k, at w_k - 1
(the residue twist) or at w_k / p (the source of C); whether p divides w_k;
and whether w_k = 0 (the divisor slices).  So its dims and verdicts are a
function of the type tuple (tau_0(w_0), ..., tau_{m-1}(w_{m-1})), and so is
what it builds, up to the unit scaling D_u below.  Each family has its type
function, with the argument in its docstring, beside its walk:
`residue_coordinate_type`, `sign_coordinate_type`,
`cartier.cartier_coordinate_type` and those of the purity module; a caller
passes only its check.  The weights of one type tuple form a cell, the
product of the preimages tau_k^{-1}(t_k) in the box, or that product cut by
a sum.  `type_cells` lists each cell with its first weight and its count.
Without a sum, the first weight is the coordinatewise first value, which is
the lex-first weight of a product set, and the count is the product of the
per-coordinate counts.  With a sum, the count is that of lattice points in
a box cut by a sum, in closed form (`cech._region_count`; Beck and Robins,
Computing the Continuous Discretely, ch. 1-2), and the first weight is the
lex-first point of that region, the first that `cech._region_weights`
lists.

The unit scaling D_u.  A type reads whether p divides w_k, not w_k mod p,
though d reads the residue: on the basis T^w dlog T_I, d at weight w is the
wedge with sum_k (w_k mod p) dlog T_k (forms module).  For units u_k in
F_p^x let D_u send T^w dlog T_I to (prod_{k in I} u_k) T^w' dlog T_I.  If
w'_k = u_k w_k mod p for every k (any u_k where p divides w_k and w'_k),
then D_u d_w = d_w' D_u: both send T^w dlog T_I to prod_{k in I} u_k times
sum_{k not in I} (+-) u_k w_k T^w' dlog T_{I + k}.  Two weights w, w' of one
type tuple have such a u, since p divides w_k exactly where it divides
w'_k; and they share their statuses, so their slices have the same
generator sets in every degree and ring that a check reads.  So D_u is an
isomorphism of each slice at w onto the one at w', and:

- Z and B.  D_u carries Z = ker d and B = im d at w onto those at w', so
  their dims, the ranks of d and exactness agree.  A basis built at w' (a
  kernel basis, 1 at its free columns; B, read off the columns of d) is
  D_u of the one built at w, each vector times a unit.  So a block of
  basis columns is independent at w exactly when it is at w' (nu's own
  blocks), and an identity between maps that commute with D_u up to a
  unit holds at a basis vector at w exactly when it does at w'.
- Residue, restriction and transport.  Transport, the twist, the
  extension and the restriction keep I, so they commute with D_u (on the
  target, the u_k of the coordinates it keeps).  The residue at z takes z
  out of I, so res_w' D_u = u_z D_u res_w: it scales by u_z.  A map
  induced on closed bases is carried alike, so the ranks, cokernel dims,
  exactness and containments (Z into Z, B into B) of the residue, Gysin
  and square checks agree at w and w'.
- C and C^{-1}.  They are read only where p divides every w_k.  There
  every residue w_k mod p is 0, u = 1 serves and D_u is the identity, and
  the types fix the statuses at w/p as well, so C and C^{-1} are built
  from the same generator sets at w and w'.

The class stores keyed by w mod p (`closed_slice_key`,
`ZBDecomposition.key`, `FormRing.per_class`) hold matrices, which differ by
D_u, so they keep w mod p; a walk meets them at one weight per cell.

The cells come in first-weight order.  In the Cartier and purity walks a
cell is a class: they check each cell at its first weight.  The sign and
residue walks still merge cells by a class key (`sign_class`,
`residue_class_keys`), which reads less of a weight than its types do.  A
class, the weights with one key, is a union of cells, so its first weight
is the least first weight of its cells, and a walk through the cells in
first-weight order meets each class first at its first weight.
`walk_classes` and `walk_residue_classes` compute the key once per cell,
at its first weight, and check each new key there.  Against a walk that
keys every weight in lex order and checks each class at its first weight:

- each check runs at the same weight, and the classes are checked in the
  same order;
- a row's counts (checked=, slices=) are sums of cell counts;
- the failing weights are a union of cells, so the first of them is the
  first weight of the first failing cell, the first weight of its class,
  where the check made its message;
- a build that raises raises in its check, at the first weight of its
  class, which is where the per-weight walk raises first.

A row that skips weights skips whole cells, by a test that is a function
of the type tuple (a source slice with a basis, a weight that p does not
divide), so all this holds for the cells it keeps.  A walk over several
charts (`walk_sign_classes`) merges the cells of its charts by (first
weight, chart), the order in which the per-weight walk takes (w, chart).
A row that needs data at every weight (`cartier.nu_sections`,
`purity.nu_purity_report`, the failures of `purity.commuting_square`)
computes it once per cell and copies it to the cell's weights: dims and
verdicts, and C - 1 blocks that `cartier.c_minus_one_cells` reads at other
weights only through their shapes and the independence of their columns,
solving them at weight 0 alone, where p divides w.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from math import comb, prod

import numpy as np

from .forms import (
    FormRing,
    LogForm,
    WeightSlice,
    d_matrix,
    residue_matrix,
    restrict_matrix,
    same_set_column,
    slice_map_by_index,
)
from .gflinalg import FpMatrix, homology_dims


class SliceComplex:
    """A finite complex of based F_p spaces with explicit matrices.

    maps[k] goes from node k to node k + 1 and must be dims[k+1] x dims[k].
    Exactness at the end nodes means injectivity / surjectivity, so a
    three-node complex with all homology zero is a short exact sequence.
    """

    def __init__(self, p: int, labels, dims, maps, spaces=None):
        self.p = p
        self.labels = list(labels)
        self.dims = [int(d) for d in dims]
        self.maps = list(maps)
        self.spaces = spaces
        if len(self.maps) != len(self.dims) - 1:
            raise ValueError("need exactly one map per consecutive node pair")
        for k, mt in enumerate(self.maps):
            if mt.cols != self.dims[k] or mt.rows != self.dims[k + 1]:
                raise ValueError(f"matrix {k} shape does not match node dims")

    def composition_zero(self) -> bool:
        for a, b in zip(self.maps, self.maps[1:]):
            if np.count_nonzero(np.dot(b.array, a.array) % self.p):
                return False
        return True

    def homology_dims(self) -> list[int]:
        return homology_dims(self.dims, self.maps)

    def exactness_verdicts(self) -> list[bool]:
        return [h == 0 for h in self.homology_dims()]

    def is_exact(self) -> bool:
        return self.composition_zero() and all(self.exactness_verdicts())

    def __repr__(self) -> str:
        arrow = " -> ".join(f"{L}[{d}]" for L, d in zip(self.labels, self.dims))
        return f"<SliceComplex {arrow}>"


# -- transports between rings over the same variables -------------------------


def transport(form: LogForm, dst: FormRing) -> LogForm:
    """Reinterpret a form in a ring with the same variables but a possibly
    different log set.  dlog factors at variables that stop being log pick up
    the 1/T_i explicitly; dT factors at newly-log variables are rewritten to
    T_i dlog T_i by the target constructors.  Raises WindowOverflow when the
    result needs a pole the target does not allow."""
    src = form.ring
    if dst.names != src.names:
        raise ValueError("transport needs identical variable names")
    out = dst.zero(form.degree)
    for (a, gens), c in form.terms.items():
        a2 = list(a)
        parts = []
        for g in gens:
            if g in src.log and g not in dst.log:
                a2[g] -= 1
                parts.append(dst.dT(g))
            elif g in src.log:
                parts.append(dst.gen(g))
            else:
                parts.append(dst.dT(g))
        t = dst.monomial(tuple(a2), c)
        for q in parts:
            t = t.wedge(q)
        out = out + t
    return out


def _transport_column(src: FormRing, dst: WeightSlice):
    """Column of transport from `src` into the slice dst: the identity on
    generator sets.  Undecided for sets holding a generator that turns log
    where the target window refuses its dT or its exponent w_g - 1."""
    window = dst.ring.window
    risky = frozenset(
        g
        for g in dst.ring.log - src.log
        if window[g][1] < 1 or dst.weight[g] - 1 < window[g][0]
    )
    same = same_set_column(dst)
    return lambda gens: None if risky.intersection(gens) else same(gens)


def transport_matrix(src: WeightSlice, ring: FormRing):
    """(target, matrix) of `transport` from slice (j, w) into slice (j, w)
    of `ring`, a ring over the same variables: the identity on generator
    sets."""
    if ring.names != src.ring.names:
        raise ValueError("transport needs identical variable names")
    dst = ring.slice(src.degree, src.weight)
    return dst, slice_map_by_index(
        src, dst, lambda f: transport(f, ring), _transport_column(src.ring, dst)
    )


def twist_matrix(src: WeightSlice, z: int, ring: FormRing):
    """(target, matrix) of f -> transport(T_z ^ f, ring) from slice (j, w)
    into slice (j, w + e_z) of `ring`, a ring over the same variables, with
    T_z the monomial of src.ring and z a log variable there: the identity
    on generator sets.  Undecided where T_z, or T_z times a basis term
    (exponent w_z + 1 at z), leaves the source window."""
    source, w = src.ring, src.weight
    if ring.names != source.names:
        raise ValueError("transport needs identical variable names")
    if z not in source.log:
        raise ValueError(f"twist needs a log variable, {z} is not one")
    ez = tuple(int(k == z) for k in range(source.m))
    dst = ring.slice(src.degree, tuple(x + e for x, e in zip(w, ez)))
    hi = source.window[z][1]
    column = _transport_column(source, dst) if 1 <= hi and w[z] < hi else lambda gens: None

    def ref(f):
        return transport(source.monomial(ez).wedge(f), ring)

    return dst, slice_map_by_index(src, dst, ref, column)


def extend(form: LogForm, ring: FormRing) -> LogForm:
    """The same form over `ring`, which has extra trailing variables, at
    exponent 0 in them."""
    pad = (0,) * (ring.m - form.ring.m)
    return LogForm(ring, form.degree, {(a + pad, g): c for (a, g), c in form.terms.items()})


def extend_matrix(src: WeightSlice, ring: FormRing):
    """(target, matrix) of `extend` from slice (j, w) into slice
    (j, (w, 0, ..)) of `ring`, whose shared variables keep their log
    status: the identity on generator sets."""
    m = src.ring.m
    if any((g in src.ring.log) != (g in ring.log) for g in range(m)):
        raise ValueError("extension needs the shared variables' log status kept")
    dst = ring.slice(src.degree, src.weight + (0,) * (ring.m - m))
    return dst, slice_map_by_index(src, dst, lambda f: extend(f, ring), same_set_column(dst))


def divisor_lift(ring: FormRing, z: int, form: LogForm) -> LogForm:
    """Embed a form over ring.drop_var(z) back into ring, with T_z-exponent 0."""
    sub, imap = ring.drop_var(z)
    if form.ring != sub:
        raise ValueError("form is not over the ring with variable z dropped")
    inv = {new: old for old, new in imap.items()}
    out = {}
    for (a, gens), c in form.terms.items():
        na = [0] * ring.m
        for new, x in enumerate(a):
            na[inv[new]] = x
        out[(tuple(na), tuple(inv[g] for g in gens))] = c
    return LogForm(ring, form.degree, out)


# -- Euler contraction and the homogeneous projective model -------------------


def euler_contraction(form: LogForm, skip=frozenset()) -> LogForm:
    """iota(dlog X_{a_0} ^ ... ^ dlog X_{a_j}) = sum_t (-1)^t dlog X_{A-a_t};
    generators listed in `skip` pair to zero (used for the pullback class
    gamma, which the Euler field does not see)."""
    ring = form.ring
    acc: dict = {}
    for (a, gens), c in form.terms.items():
        for t, g in enumerate(gens):
            if g in skip:
                continue
            if g not in ring.log:
                raise ValueError("Euler contraction needs dlog generators")
            key = (a, gens[:t] + gens[t + 1 :])
            v = (acc.get(key, 0) + (-1) ** t * c) % ring.p
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
    return LogForm(ring, form.degree - 1, acc)


def euler_matrix(src: WeightSlice, skip=frozenset()):
    """(target, matrix) of `euler_contraction` (skipping `skip`) from slice
    (j, w) into slice (j - 1, w): each index of I not in `skip` dropped in
    turn, with sign (-1)^t."""
    ring = src.ring
    p = ring.p
    dst = ring.slice(src.degree - 1, src.weight)

    def column(gens):
        image = []
        for t, g in enumerate(gens):
            if g in skip:
                continue
            if g not in ring.log:
                return None  # not a dlog generator
            r = dst.index.get(gens[:t] + gens[t + 1 :])
            if r is None:
                return None
            image.append((r, p - 1 if t & 1 else 1))
        return image

    return dst, slice_map_by_index(src, dst, lambda f: euler_contraction(f, skip), column)


def projective_ring(p: int, n: int, box) -> FormRing:
    """Homogeneous model of P^n: Laurent ring in X_0..X_n, all variables log.
    `box` is the exponent window, one (lo, hi) pair per coordinate."""
    idx = tuple(range(n + 1))
    return FormRing(
        p,
        names=tuple(f"X{i}" for i in range(n + 1)),
        log=idx,
        laurent=idx,
        window=box,
    )


def weight_ring(p: int, n: int, w) -> FormRing:
    """Projective ring whose window is exactly big enough for weight w."""
    return projective_ring(p, n, tuple((min(int(x), 0), max(int(x), 0)) for x in w))


@dataclass
class SectionSpace:
    """A subspace of one ambient weight slice, with a deterministic basis
    whose columns are ambient coordinates.  Every basis `log_section_space`
    writes records its identity rows (its column B is the only one nonzero
    at e_B, where it is 1; module docstring), so the basis reads
    coordinates off those rows, with no elimination (`gflinalg`)."""

    ambient: WeightSlice
    basis: FpMatrix

    @property
    def dim(self) -> int:
        return self.basis.cols

    def coords_of_vector(self, v):
        """Basis coordinates of an ambient vector, or of each column of a
        matrix of ambient vectors; raises if one is not a section."""
        x = self.basis.solve(v)
        if x is None:
            raise ValueError("vector is not a section of this space")
        return x

    def coords_of_space(self, src: "SectionSpace") -> np.ndarray:
        """The matrix of the inclusion src -> self: the basis coordinates of
        each basis vector of src, a subspace in the same ambient coordinates."""
        return self.coords_of_vector(src.basis.array)

    def coords(self, form: LogForm):
        return self.coords_of_vector(self.ambient.to_vector(form))


def log_section_space(ring, j, S, I, w, contract_skip=frozenset()) -> SectionSpace:
    """Sections of Omega^j(log D_S) twisted to multidegree w, on the chart
    where the X_i with i in I are invertible: the kernel of the Euler
    contraction (skipping `contract_skip`) on the span of the allowed
    X^w dlog X_A, those with A inside T = S + I + {g : w_g >= 1}.

    The ring must be all log (ValueError otherwise), as the projective
    model and the pullback's extended ring are.  The basis is written down,
    with no elimination (module docstring): with t0 the least index of T
    outside contract_skip, one column per j-subset A of T without t0, in
    lex order, the expansion of the wedge over a in A of
    dlog X_a - [a not skipped] dlog X_{t0}; every j-subset of T when T has
    no such index.  It is the basis `kernel_basis` gives on the allowed
    columns of `euler_matrix`, entry for entry."""
    if len(ring.log) < ring.m:
        raise ValueError("log_section_space needs a ring with every variable log")
    S = frozenset(S)
    I = frozenset(I)
    w = tuple(int(x) for x in w)
    sl = ring.slice(j, w)
    if j < 0 or not sl.dim or any(w[i] < 0 for i in range(ring.m) if i not in I):
        return SectionSpace(sl, FpMatrix.zeros(ring.p, sl.dim, 0))
    skip = frozenset(contract_skip)
    T = frozenset(g for g, x in enumerate(w) if x >= 1 or g in S or g in I)
    E = T - skip
    t0 = min(E) if E else None
    index = sl.index
    sets = list(combinations(sorted(T - {t0}), j))
    rows = tuple(index[B] for B in sets)
    array = np.zeros((sl.dim, len(sets)), dtype=np.int64)
    for col, B in enumerate(sets):
        array[rows[col], col] = 1
        if t0 is None:
            continue
        pos = bisect_left(B, t0)  # B's indices below t0 are all skipped
        for i in range(pos, j):
            if B[i] not in skip:
                A = B[:pos] + (t0,) + B[pos:i] + B[i + 1 :]
                array[index[A], col] = 1 if (i - pos) & 1 else ring.p - 1
    return SectionSpace(sl, FpMatrix._of_residues(ring.field, array, rows))


def euler_complex(p, n, j, l, w, inverted=None) -> SliceComplex:
    """Weight-w slice of 0 -> Omega^j -> Wedge^j(O(-1)^{n+1}) -> Omega^{j-1} -> 0
    on P^n, over the chart with the `inverted` coordinates invertible (default:
    the full torus).  The middle term in dlog coordinates is span{X^w dlog X_A}
    with the chart divisibility constraints but no contraction constraint; the
    right map is the Euler contraction."""
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    w = tuple(int(x) for x in w)
    if len(w) != n + 1 or sum(w) != l:
        raise ValueError("weight must have n+1 components summing to the twist")
    inverted = (
        frozenset(range(n + 1)) if inverted is None else frozenset(int(i) for i in inverted)
    )
    ring = weight_ring(p, n, w)
    left = log_section_space(ring, j, frozenset(), inverted, w)
    right = log_section_space(ring, j - 1, frozenset(), inverted, w)
    sj = left.ambient
    ok_global = all(w[i] >= 0 for i in range(n + 1) if i not in inverted)
    mid_idx = (
        tuple(
            k
            for k, gens in enumerate(sj.gens)
            if all(w[g] >= 1 for g in gens if g not in inverted)
        )
        if ok_global
        else ()
    )
    m0 = FpMatrix(p, left.basis.array[list(mid_idx)])
    _slice, full = euler_matrix(sj)
    m1 = FpMatrix(p, right.coords_of_vector(full.array[:, list(mid_idx)]))
    return SliceComplex(
        p,
        [f"Omega^{j}", f"Wedge^{j}(O(-1)^{n + 1})", f"Omega^{j - 1}"],
        [left.dim, len(mid_idx), right.dim],
        [m0, m1],
    )


# -- residue sequences ---------------------------------------------------------


def residue_complex_all_divisors(ring: FormRing, w) -> SliceComplex:
    """0 -> Omega^1_w -> Omega^1(log D)_w -> (+)_{z in L} (O_{D_z})_w -> 0."""
    w = tuple(int(x) for x in w)
    plain = ring.with_log(())
    s0 = plain.slice(1, w)
    s1, m0 = transport_matrix(s0, ring)
    blocks = [np.zeros((0, s1.dim), dtype=np.int64)]
    for z in sorted(ring.log):
        if w[z] == 0:  # the divisor's graded piece is zero off w_z = 0
            blocks.append(residue_matrix(s1, z)[1].array)
    m1 = FpMatrix._of_residues(m0.field, np.vstack(blocks))
    return SliceComplex(
        ring.p,
        ["Omega^1", "Omega^1(log D)", "sum O_{D_z}"],
        [s0.dim, s1.dim, m1.rows],
        [m0, m1],
    )


def residue_complex_drop(ring: FormRing, a: int, z: int, w) -> SliceComplex:
    """0 -> Omega^a(log(D - D_z))_w -> Omega^a(log D)_w -> Omega^{a-1}_{D_z}(log)_w -> 0."""
    if z not in ring.log:
        raise ValueError("z must be a log index")
    w = tuple(int(x) for x in w)
    sub = ring.with_log(ring.log - {z})
    s0 = sub.slice(a, w)
    s1, m0 = transport_matrix(s0, ring)
    # the divisor's graded piece is zero at a = 0 and off w_z = 0
    m1 = residue_matrix(s1, z)[1] if a and w[z] == 0 else FpMatrix.zeros(ring.p, 0, s1.dim)
    return SliceComplex(
        ring.p,
        ["Omega^a(log D-D_z)", "Omega^a(log D)", "Omega^{a-1}_{D_z}(log)"],
        [s0.dim, s1.dim, m1.rows],
        [m0, m1],
    )


def residue_complex_twist(ring: FormRing, a: int, z: int, w) -> SliceComplex:
    """0 -> Omega^a(log D)(-D_z)_w -> Omega^a(log(D - D_z))_w -> Omega^a_{D_z}(log)_w -> 0.

    The twisted subsheaf is realized as T_z * Omega^a(log D) at weight w - e_z.
    """
    if z not in ring.log:
        raise ValueError("z must be a log index")
    w = tuple(int(x) for x in w)
    ez = tuple(1 if k == z else 0 for k in range(ring.m))
    wm = tuple(x - e for x, e in zip(w, ez))
    s0 = ring.slice(a, wm)
    ring.check_window(ez)  # T_z itself must be a form of the ring
    s1, m0 = twist_matrix(s0, z, ring.with_log(ring.log - {z}))
    # the divisor's graded piece is zero off w_z = 0
    m1 = restrict_matrix(s1, z)[1] if w[z] == 0 else FpMatrix.zeros(ring.p, 0, s1.dim)
    return SliceComplex(
        ring.p,
        ["T_z*Omega^a(log D)", "Omega^a(log D-D_z)", "Omega^a_{D_z}(log)"],
        [s0.dim, s1.dim, m1.rows],
        [m0, m1],
    )


def residue_class_keys(ring: FormRing, a: int, z: int, w):
    """Class keys of the residue sequences at weight w, in the order drop,
    twist, closed, all-divisors (None unless a = 1).  Two weights with equal
    keys for a sequence give its builder the same dims and matrices, or make
    it raise alike (module docstring, "Residue classes"); for the closed
    sequence, which reads whether p divides each w_k, matrices that D_u
    carries onto each other (module docstring, "Class walks")."""
    if z not in ring.log:
        raise ValueError("z must be a log index")
    w = tuple(int(x) for x in w)
    sub = ring.with_log(ring.log - {z})
    dring, _ = ring.drop_var(z)
    wd = w[:z] + w[z + 1 :]
    sub_a, ring_a = sub.gens(a, w), ring.gens(a, w)
    # the divisor's graded pieces are zero off w_z = 0
    low, top = (dring.gens(a - 1, wd), dring.gens(a, wd)) if w[z] == 0 else (None, None)
    wm = w[:z] + (w[z] - 1,) + w[z + 1 :]
    drop = (sub_a, ring_a, low)
    twist = (ring.gens(a, wm), sub_a, w[z] - 1 < ring.window[z][1], top)
    closed = (
        tuple(x % ring.p == 0 for x in w),
        sub_a,
        sub.gens(a + 1, w),
        ring_a,
        ring.gens(a + 1, w),
        low,
        top,
    )
    every = None
    if a == 1:
        divisors = []
        for y in sorted(ring.log):
            dy, _ = ring.drop_var(y)
            divisors.append(dy.gens(0, w[:y] + w[y + 1 :]) if w[y] == 0 else None)
        every = (ring.with_log(()).gens(1, w), ring_a, tuple(divisors))
    return drop, twist, closed, every


def residue_coordinate_type(ring: FormRing, a: int, z: int, k: int, x: int) -> tuple:
    """The type of value x at coordinate k for `residue_class_keys` in
    degree a with log variable z: whether p divides x and the status of k
    at x (`FormRing.status`); but the place of x (`FormRing.place`) and
    whether x = 0 at k = z, and at a = 1 for every log k.

    The keys read w only through generator sets of sub, ring and dring,
    of ring at w - e_z, and at a = 1 (the all-divisors key) of the ring
    with no log and of the rings without each log y; through the twist's
    flag w_z - 1 < hi_z; through whether p divides each w_k (the closed
    key); and through w_z = 0 and, at a = 1, w_y = 0 for the logs y.  These
    rings share the window, so the status of k in each is a function of
    the place of w_k and of whether k is log there.  Off z, sub, ring and
    dring agree on that, so the status under ring fixes their sets, except
    at a = 1 for a log k, which the ring with no log reads as not log.  At
    z they differ, so the place of w_z is read.  It fixes the rest at z:
    w_z - 1 lies in the window, so that z (log in ring) is free at w - e_z,
    exactly when w_z is inside or at hi_z + 1, and w_z - 1 < hi_z exactly
    when w_z is below the window, at lo_z or inside.
    Each fact is read coordinate by coordinate, so every key is a function
    of the tuple of types, and a class walk may key one weight per cell
    (`type_cells`).  The closed sequence reads the residues w_k mod p
    themselves, which the types leave out: its dims and exactness are the
    same at the weights of one type tuple, and its matrices are carried
    onto each other by D_u (module docstring, "Class walks")."""
    if k == z or (a == 1 and k in ring.log):
        return ring.place(k, x), x % ring.p == 0, x == 0
    return ring.status(k, x), x % ring.p == 0


def walk_residue_classes(ring: FormRing, a: int, z: int, count: int):
    """Walk the first `count` residue sequences of `residue_class_keys`
    over the ring's weight box in degree a, each built and ranked once per
    class, keyed once per cell of `residue_coordinate_type` (module
    docstring, "Class walks").  Yields (cell, bad) in first-weight order,
    bad None where every sequence is exact, else (t, complex) for the first
    sequence t that is not.  Every sequence new at a cell is built before
    any verdict there is read, so a raising build wins over a failing
    check, as in a per-weight walk."""
    # in the order of residue_class_keys; looked up per call, so that a
    # wrapper set on the module (perfbench's tracer) is the one called
    builders = (
        residue_complex_drop,
        residue_complex_twist,
        closed_residue_complex,
        lambda r, _a, _z, w: residue_complex_all_divisors(r, w),
    )
    box = [range(lo, hi + 1) for lo, hi in ring.weight_box(a)]
    verdicts = [{} for _ in range(count)]
    for cell in type_cells(box, partial(residue_coordinate_type, ring, a, z)):
        w = cell[0]
        keys = residue_class_keys(ring, a, z, w)[:count]
        for t, key in enumerate(keys):
            if key not in verdicts[t]:
                cx = builders[t](ring, a, z, w)
                verdicts[t][key] = None if cx.is_exact() else cx
        found = ((t, verdicts[t][key]) for t, key in enumerate(keys) if verdicts[t][key] is not None)
        yield cell, next(found, None)


def sign_class(w, chart) -> tuple:
    """The class key of euler_complex and pullback_ses at weight w on the
    chart that inverts the coordinates in `chart`: the chart and the sign
    of each coordinate of w off it, or None for the signs when one is
    negative, where the complex is zero (module docstring, "Euler and
    pullback classes")."""
    chart = frozenset(chart)
    signs = tuple((x > 0) - (x < 0) for i, x in enumerate(w) if i not in chart)
    return chart, None if -1 in signs else signs


def sign_coordinate_type(chart, k: int, x: int) -> int:
    """The type of value x at coordinate k for `sign_class` on `chart`: the
    sign of x off the chart, and 0 on it, where sign_class reads nothing.
    sign_class reads w only through these signs, so it is a function of the
    tuple of types (the None of a negative sign included)."""
    return 0 if k in chart else (x > 0) - (x < 0)


def walk_sign_classes(values, charts: dict, check, total=None):
    """Walk euler_complex or pullback_ses over the box `values` (cut by the
    sum `total`, if given) on each chart, once per class of `sign_class`
    (module docstring, "Euler and pullback classes").  charts maps each
    chart, as check receives it, to the coordinates it inverts.  Yields
    (((w, chart), count), verdict) for each cell of `sign_coordinate_type`
    on each chart, merged by (first weight, chart): the order of a walk
    over the weights with the charts inner.  check((w, chart)) runs at the
    first cell of each class."""
    names = list(charts)
    cells = sorted(
        (first, t, count)
        for t, chart in enumerate(names)
        for first, count, _parts in type_cells(values, partial(sign_coordinate_type, charts[chart]), total)
    )
    return walk_classes(
        (((w, names[t]), count) for w, t, count in cells), lambda wc: sign_class(wc[0], charts[wc[1]]), check
    )


def type_cells(values, kind, total=None):
    """The cells of a box of weights, one per type tuple, in first-weight
    order (module docstring, "Class walks").

    values[k] lists the values of coordinate k in increasing order, and
    kind(k, x) is the type of value x at coordinate k.  The cell of a type
    tuple t is the set of weights w with kind(k, w_k) = t_k for every k.
    Yields (first, count, parts) for each nonempty cell: its lex-first
    weight, its number of weights, and parts[k], the values of coordinate k
    in it, increasing.  Without `total` the cell is the product of the
    parts.  With it, only the weights summing to total count, and each part
    must be a run of consecutive integers."""
    columns = []
    for k, xs in enumerate(values):
        groups: dict = {}
        for x in xs:
            groups.setdefault(kind(k, x), []).append(x)
        # in the order of each type's first value
        columns.append(tuple(map(tuple, groups.values())))
    if total is None:
        for parts in product(*columns):
            yield tuple(part[0] for part in parts), prod(map(len, parts)), parts
        return
    from .cech import _region_count, _region_weights  # cech imports this module

    if any(len(part) != part[-1] - part[0] + 1 for column in columns for part in column):
        raise ValueError("a cell cut by a sum needs runs of consecutive values")
    cells = []
    for parts in product(*columns):
        ranges = [(part[0], part[-1]) for part in parts]
        count = _region_count(ranges, (), (total, total))
        if count:
            cells.append((next(_region_weights(ranges, (), (total, total))), count, parts))
    cells.sort(key=lambda cell: cell[0])
    yield from cells


def walk_classes(cells, key, check):
    """Yield (cell, verdict) for each cell of `cells`, checking each class
    once (module docstring, "Class walks").

    A cell is a tuple whose first entry is its first point, as `type_cells`
    yields them.  key(point) is computed once per cell, at its first point,
    and check(point) only at the first cell of each class, whose verdict is
    kept for the rest of the walk and yielded for every cell of the class.
    The cells must come in first-point order, and key must be a function of
    the cell; then a row that sums the cells' counts counts every weight,
    and a row that stops at the first failing cell stops at the first
    failing weight, the first of its class, where check made its message.
    A class whose build raises raises in its check, at the first weight of
    the class, as in a walk that keys every weight.  The verdicts live for
    one walk only."""
    verdicts = {}
    for cell in cells:
        k = key(cell[0])
        if k not in verdicts:
            verdicts[k] = check(cell[0])
        yield cell, verdicts[k]


# -- closed-forms variant ------------------------------------------------------


def closed_slice_key(ring: FormRing, j: int, w) -> tuple:
    """The class key of `closed_slice_class`, read off the ring's layouts,
    with no basis fetched or built."""
    return (j, ring.gens(j, w), ring.gens(j + 1, w), tuple(int(x) % ring.p for x in w))


def closed_slice_class(ring: FormRing, j: int, w):
    """(class key, matrix whose columns are a basis of the closed forms of
    slice (j, w)).

    The key is (j, the generator sets of the slices of degrees j and j + 1
    in basis order, w mod p).  It fixes the basis (see the cartier module),
    so the basis is built once per class and kept on the ring, read-only.
    The key is read off the ring's layouts: a stored class builds no slice."""
    key = closed_slice_key(ring, j, w)

    def build():
        return d_matrix(ring.slice(j, w))[1].kernel_matrix()

    return key, ring.per_class(("closed",) + key, build)


def closed_slice_basis(ring: FormRing, j: int, w):
    """(slice, matrix whose columns are a basis of the closed forms), the
    basis shared by the slice's class (`closed_slice_class`)."""
    return ring.slice(j, w), closed_slice_class(ring, j, w)[1]


def induced_on_subspaces(mat: FpMatrix, src_basis: FpMatrix, dst_basis: FpMatrix) -> FpMatrix:
    """The matrix of `mat` restricted to given source/target subspace bases;
    raises if the image leaves the target subspace."""
    x = dst_basis.solve(np.dot(mat.array, src_basis.array))
    if x is None:
        raise AssertionError("map does not respect the subspaces")
    return FpMatrix(mat.p, x)


def closed_residue_complex(ring: FormRing, a: int, z: int, w) -> SliceComplex:
    """0 -> ZOmega^a(log(D - D_z))_w -> ZOmega^a(log D)_w -> ZOmega^{a-1}_{D_z}_w -> 0."""
    if z not in ring.log:
        raise ValueError("z must be a log index")
    w = tuple(int(x) for x in w)
    sub = ring.with_log(ring.log - {z})
    s0, z0 = closed_slice_basis(sub, a, w)
    s1, m0_full = transport_matrix(s0, ring)
    z1 = closed_slice_class(ring, a, w)[1]
    m0 = induced_on_subspaces(m0_full, z0, z1)
    # the divisor's graded piece is zero at a = 0 and off w_z = 0
    if a and w[z] == 0:
        s2, m1_full = residue_matrix(s1, z)
        z2 = closed_slice_class(s2.ring, a - 1, s2.weight)[1]
        m1 = induced_on_subspaces(m1_full, z1, z2)
    else:
        s2 = z2 = None
        m1 = FpMatrix.zeros(ring.p, 0, z1.cols)
    return SliceComplex(
        ring.p,
        ["ZOmega^a(log D-D_z)", "ZOmega^a(log D)", "ZOmega^{a-1}_{D_z}"],
        [z0.cols, z1.cols, m1.rows],
        [m0, m1],
        spaces=[(s0, z0), (s1, z1), (s2, z2)],
    )


# -- pullback sequence on the exceptional divisor ------------------------------


def pullback_ses(p: int, c: int, n: int, w, chart: int = 0) -> SliceComplex:
    """Weight-w slice, on one chart of E = P^{c-1} with log divisor V(X_0), of

        0 -> Omega^n(log) -> Omega^{n,pullback-log} -> Omega^{n-1}(log) -> 0.

    The pullback log structure adds one weight-0 generator gamma (the class of
    dlog of the ideal generator; its differential vanishes on E), so the middle
    sections are eta' + eta ^ gamma and the right map extracts eta, here via the
    residue at the gamma variable (a sign (-1)^(n-1) against the left-wedge
    convention, harmless for exactness)."""
    if c < 2:
        raise ValueError("need c >= 2")
    w = tuple(int(x) for x in w)
    if len(w) != c:
        raise ValueError("weight needs c components")
    npro = c - 1
    base = weight_ring(p, npro, w)
    gi = c  # index of the gamma variable in the extended ring
    ext = FormRing(
        p,
        names=base.names + ("Gam",),
        log=tuple(range(c + 1)),
        laurent=tuple(range(c)),
        window=base.window + ((0, 0),),
    )
    wext = w + (0,)
    left = log_section_space(base, n, {0}, {chart}, w)
    right = log_section_space(base, n - 1, {0}, {chart}, w)
    mid = log_section_space(ext, n, {0, gi}, {chart}, wext, contract_skip={gi})

    m0 = induced_on_subspaces(extend_matrix(left.ambient, ext)[1], left.basis, mid.basis)
    m1 = induced_on_subspaces(residue_matrix(mid.ambient, gi)[1], mid.basis, right.basis)
    return SliceComplex(
        p,
        [f"Omega^{n}(log)", f"Omega^{n},pullback-log", f"Omega^{n - 1}(log)"],
        [left.dim, mid.dim, right.dim],
        [m0, m1],
    )


# -- two-step filtration of a wedge power --------------------------------------


@dataclass(frozen=True)
class FiltrationSpec:
    """V = U (+) W free of ranks u, w; k-th wedge power filtered by the number
    of W-factors."""

    u: int
    w: int
    k: int

    @property
    def v(self) -> int:
        return self.u + self.w

    def __post_init__(self):
        if self.u < 0 or self.w < 0 or self.k < 0:
            raise ValueError("ranks and wedge power must be nonnegative")


@dataclass
class FiltrationReport:
    spec: FiltrationSpec
    graded_dims: list
    expected_dims: list
    total_ok: bool
    steps_exact: list
    phi_permutation_ok: bool
    corollary_u: SliceComplex | None
    corollary_w: SliceComplex | None
    corollaries_exact: bool  # of the corollary splits present, computed once

    @property
    def ok(self) -> bool:
        return (
            self.graded_dims == self.expected_dims
            and self.total_ok
            and self.phi_permutation_ok
            and all(self.steps_exact)
            and self.corollaries_exact
        )


def _is_signed_permutation_onto(mat: FpMatrix, rank_needed: int) -> bool:
    """Every nonzero column is +-(a standard basis vector), targets distinct,
    and the nonzero columns number rank_needed."""
    rows, cols = np.nonzero(mat.array)
    signs = mat.array[rows, cols]
    return (
        len(set(cols.tolist())) == len(cols) == len(set(rows.tolist())) == rank_needed
        and bool(np.all((signs == 1) | (signs == mat.p - 1)))
    )


def _split_complex(p: int, basis, i: int, left_has_i: bool, labels) -> SliceComplex:
    """0 -> L -> Wedge^k V -> R -> 0 for the split of the k-subsets `basis` by
    whether they contain index i: L holds the subsets with (i in A) ==
    left_has_i, R the rest; the maps are coordinate inclusion and projection.
    The inclusion is the identity at the rows of L, so its rank is read off
    (`gflinalg`)."""
    bindex = {A: t for t, A in enumerate(basis)}
    left = [A for A in basis if (i in A) == left_has_i]
    right = [A for A in basis if (i in A) != left_has_i]
    rows = [bindex[A] for A in left]
    m0 = np.zeros((len(basis), len(left)), dtype=np.int64)
    m0[rows, range(len(left))] = 1
    m1 = np.zeros((len(right), len(basis)), dtype=np.int64)
    for s, A in enumerate(right):
        m1[s, bindex[A]] = 1
    return SliceComplex(
        p, labels, [len(left), len(basis), len(right)], [FpMatrix(p, m0, rows), FpMatrix(p, m1)]
    )


def _filtration_step(p: int, a: int, gr_dim: int, positions) -> SliceComplex:
    """The step 0 -> F_{i-1} -> F_i -> gr_i -> 0 of `filtration` with
    dim F_{i-1} = a, gr_i of dim gr_dim, and the s-th member of gr_i, basis
    vector a + s of F_i, sent to tensor basis vector positions[s].  At a = 0
    with the positions distinct, phi is the identity at them, so its rank
    is read off (`gflinalg`)."""
    f_cur = a + len(positions)
    inc = FpMatrix._of_residues(p, np.eye(f_cur, a, dtype=np.int64))
    rows = np.arange(gr_dim)[list(positions)]
    phi = np.zeros((gr_dim, f_cur), dtype=np.int64)
    phi[rows, range(a, f_cur)] = 1
    distinct = a == 0 and len(set(rows.tolist())) == len(rows)
    return SliceComplex(
        p,
        ["F_{i-1}", "F_i", "gr_i"],
        [a, f_cur, gr_dim],
        [inc, FpMatrix(p, phi, rows if distinct else None)],
    )


def filtration(
    spec: FiltrationSpec, p: int = 2, steps: dict | None = None, ranks: dict | None = None
) -> FiltrationReport:
    """The filtration of Wedge^k V by the number of W-factors, with each
    step checked once per class on its graded summand (module docstring,
    "Filtration classes").

    `steps` maps a step's class key to its verdicts (exact, phi a signed
    permutation onto gr_i), and `ranks` maps (lo, hi, j) to the lex index
    of the j-subsets of range(lo, hi), the factors of the tensor bases.
    Pass one dict of each to share them between calls, as the filtration
    suite does.  Neither holds a matrix."""
    u, wr, k, v = spec.u, spec.w, spec.k, spec.v
    steps = {} if steps is None else steps
    ranks = {} if ranks is None else ranks

    def subset_index(lo, hi, j):
        index = ranks.get((lo, hi, j))
        if index is None:
            index = ranks[lo, hi, j] = {A: t for t, A in enumerate(combinations(range(lo, hi), j))}
        return index

    basis = list(combinations(range(v), k))
    gr = [[] for _ in range(k + 1)]  # the k-subsets by their number of W-factors
    for A in basis:
        gr[k - bisect_left(A, u)].append(A)

    graded, expected, exact = [], [], []
    perm_ok = True
    for i, members in enumerate(gr):
        graded.append(len(members))
        expected.append(comb(u, k - i) * comb(wr, i))
        # Wedge^{k-i}U (x) Wedge^iW in lex order of (A_U, A_W): a product index
        on_u, on_w = subset_index(0, u, k - i), subset_index(u, v, i)
        g = len(on_u) * len(on_w)
        key = (p, g, tuple(on_u[A[: k - i]] * len(on_w) + on_w[A[k - i :]] for A in members))
        verdict = steps.get(key)
        if verdict is None:
            cx = _filtration_step(p, 0, g, key[2])
            verdict = steps[key] = (cx.is_exact(), _is_signed_permutation_onto(cx.maps[1], len(members)))
        exact.append(verdict[0])
        perm_ok = perm_ok and verdict[1]

    total_ok = sum(graded) == comb(v, k) and sum(expected) == comb(v, k)

    # u = 1: 0 -> U (x) Wedge^{k-1}W -> Wedge^k V -> Wedge^k W -> 0
    cor_u = None
    if u == 1:
        cor_u = _split_complex(p, basis, 0, True, ["U(x)Wedge^{k-1}W", "Wedge^k V", "Wedge^k W"])
    # w = 1: 0 -> Wedge^k U -> Wedge^k V -> Wedge^{k-1}U (x) W -> 0
    cor_w = None
    if wr == 1:
        cor_w = _split_complex(p, basis, v - 1, False, ["Wedge^k U", "Wedge^k V", "Wedge^{k-1}U(x)W"])
    corollaries_exact = all(cx.is_exact() for cx in (cor_u, cor_w) if cx is not None)

    return FiltrationReport(
        spec=spec,
        graded_dims=graded,
        expected_dims=expected,
        total_ok=total_ok,
        steps_exact=exact,
        phi_permutation_ok=perm_ok,
        corollary_u=cor_u,
        corollary_w=cor_w,
        corollaries_exact=corollaries_exact,
    )


# -- conormal sequence for a monomial center -----------------------------------


@dataclass
class ConormalReport:
    ring: FormRing
    z: int
    conormal_image_zero: bool
    dims_match: bool
    checked_weights: int

    @property
    def ok(self) -> bool:
        return self.conormal_image_zero and self.dims_match and self.checked_weights > 0


def fundamental_ses_check(ring: FormRing, z: int) -> ConormalReport:
    """For the immersion V(T_z) with T_z a log variable: d(f T_z) restricts to
    zero on V(T_z) (so the conormal map I/I^2 -> i^*Omega^log is trivial), and
    i^*Omega^j,log has the same slice dimensions as the pullback-log module
    Omega^j_Z (+) Omega^{j-1}_Z ^ gamma."""
    if z not in ring.log:
        raise ValueError("the center must be cut out by a log variable")
    conormal_zero = True
    for b in ring.iter_weights(0):
        be = tuple(x + (1 if k == z else 0) for k, x in enumerate(b))
        if not ring.in_window(be):
            continue
        img = ring.monomial(be).d().restrict(z)
        if not img.is_zero():
            conormal_zero = False
    dring, _ = ring.drop_var(z)
    dims_match = True
    checked = 0
    for j in range(ring.m + 1):
        for w in ring.iter_weights(j):
            if w[z] != 0:
                continue
            wd = tuple(x for k, x in enumerate(w) if k != z)
            lhs = ring.slice(j, w).dim
            rhs = dring.slice(j, wd).dim + dring.slice(j - 1, wd).dim
            checked += 1
            if lhs != rhs:
                dims_match = False
    return ConormalReport(
        ring=ring,
        z=z,
        conormal_image_zero=conormal_zero,
        dims_match=dims_match,
        checked_weights=checked,
    )
