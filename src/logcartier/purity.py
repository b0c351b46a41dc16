"""Gysin maps and purity at section level, on one affine chart.

R^1 i^! of the log n-forms along a coordinate center Z = V(T_z) is the
cokernel of Omega^n(log D) -> Omega^n(log(D+Z)) on each weight slice, and the
residue at z identifies that cokernel with Omega^{n-1}_Z(log D|_Z).  The same
statement holds for closed forms via the closed residue sequence, the Cartier
operator commutes with the residue, and ker(C - 1) on the cokernels recovers
nu_Z(n-1).  That C - 1 system goes through `cartier.c_minus_one_cells`, the
routine that computes nu itself: once every own block is shown to have
independent columns, one rank per Gysin class, only weight 0 is solved, and
every other weight adds its rows - columns to the cokernel.  The cokernel
of C - 1 (the next i^! term of nu) is reported but never asserted zero: in
the polynomial or Laurent model it survives, and only Artin-Schreier covers
kill it.

The commuting square by cells.  `commuting_square` checks each cell of
`gysin_coordinate_type` on its box (w_z >= 0, inside the window) once.
With gens(R, j, v) the generator sets of slice (j, v) of R in basis order,
dring the ring without the variable z and w' the weight w without
coordinate z, its check at w is fixed by the closed key of slice (n + 1, w)
(`closed_slice_key`: gens at n + 1 and n + 2 and w mod p) and, at w_z = 0
only, gens(dring, n, w') and gens(dring, n + 1, w').  The argument:

- eta runs over the closed basis, a function of the closed key.
- Every term of a form on slice (j, w) has weight w, so `cartier()` is the
  identity on generator sets from w to w/p at p | w and zero otherwise; at
  w_z = 0, p | w exactly when p | w'.  It keeps each term's set and reads
  no slice at w/p, so the types do not read the statuses there.
- The exponent of T_z in a term of weight w is w_z, z being log, so the
  residue at z is the signed selection of the sets holding z, with z
  removed, at w_z = 0, and zero at w_z > 0; on C(eta), of weight w/p, it
  is zero exactly where w_z is nonzero too.
- `cartier()` first checks d = 0, and d raises WindowOverflow exactly where
  an index lookup into the next degree misses (cartier module); those are
  the sets at n + 2 on the ring and at n + 1 on the divisor.
- eta = gamma + eta' ^ dlog T_z splits each term by whether z is in its
  set, and forms of one weight are equal exactly when their coordinates
  are, so every comparison is one of coordinate vectors fixed by these
  sets and w mod p.

These sets read w coordinate by coordinate, through the status of k at
w_k: the divisor ring keeps each coordinate's log status and window, so
its statuses are those under the ring.  So the check is fixed by the
statuses, w mod p and whether w_z = 0.  The Gysin type reads each of
these (at z, the place of w_z, which fixes its status), so the check is
a function of its cell.  On the box of a window that starts at or below
0 at z, as in the purity suite, its cells are those of the facts the
square reads.

The type reads whether p divides w_k in place of w_k mod p.  The weights of
one type tuple have closed bases that the unit scaling D_u carries onto
each other, each vector times a unit; `cartier()` is zero on both unless p
divides w, where D_u is the identity; the residue scales by u_z and the
split keeps each set, so every comparison holds at a basis form at one
weight exactly when it does at the other (sequences module docstring,
"Class walks").

Class walks (sequences module docstring).  Each check of this module reads
a weight coordinate by coordinate, so its dims and verdicts are functions
of the tuple of per-coordinate types, and what it builds is one up to the
unit scaling D_u; its rows check one weight per cell of types, in
first-weight order.  The types, each with the argument in its docstring:
`gysin_coordinate_type` (status off the center, place and w_z = 0 at it,
and whether p divides w_k) for the square (argued above) and for the
Gysin slices, which `walk_gysin_classes` walks for the cli's
gysin-residue-iso row and `nu_purity_report` builds once per tuple of
these types; and `_nu_purity_coordinate_type` (the Gysin types of w_k
and, at p | w_k, of w_k / p) for the C - 1 blocks of `nu_purity_report`;
the steps of `iterated_purity` walk `sequences.walk_residue_classes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import permutations, product

import numpy as np

from .cartier import (
    ZBDecomposition,
    c_minus_one_cells,
    cartier,
    cartier_slice_matrix,
    independent_block,
    nu_sections,
)
from .forms import FormRing, LogForm, residue_matrix
from .gflinalg import FpMatrix
from .sequences import (
    SliceComplex,
    closed_residue_complex,
    closed_slice_basis,
    residue_complex_drop,
    type_cells,
    walk_residue_classes,
)


@dataclass(frozen=True)
class GysinSetup:
    """Chart ring whose log set contains the center index z; the background
    divisor D is the rest of the log set."""

    ring: FormRing
    z: int

    def __post_init__(self):
        if self.z not in self.ring.log:
            raise ValueError("the center must be a log coordinate")

    @property
    def background(self) -> frozenset:
        return frozenset(self.ring.log) - {self.z}


@dataclass
class GysinSlice:
    """One weight slice of the Gysin identification.

    `complex` is the residue sequence sub -> big -> target; `iso` is the
    residue matrix restricted to cokernel representatives (big-slice basis
    columns completing the image of the inclusion), in target coordinates.
    """

    w: tuple
    complex: SliceComplex
    coker_dim: int
    target_dim: int
    reps: tuple
    iso: FpMatrix

    @property
    def ok(self) -> bool:
        return (
            self.complex.is_exact()
            and self.coker_dim == self.target_dim
            and self.iso.rank() == self.target_dim
        )


def _coker_reps(inc: FpMatrix, big_dim: int) -> list[int]:
    """Basis indices of the big space completing im(inc), deterministically."""
    aug = inc.hstack(FpMatrix.identity(inc.p, big_dim))
    return [k - inc.cols for k in aug.column_space_pivots() if k >= inc.cols]


def _gysin_slice(cx: SliceComplex, w) -> GysinSlice:
    """Cokernel representatives of the residue sequence `cx` at weight w and
    the residue restricted to them."""
    inc, res = cx.maps
    reps = _coker_reps(inc, cx.dims[1])
    iso = FpMatrix._of_residues(res.field, res.array[:, reps])
    return GysinSlice(w, cx, len(reps), cx.dims[2], tuple(reps), iso)


def gysin_residue(setup: GysinSetup, n: int, w) -> GysinSlice:
    """coker(Omega^n(log D)_w -> Omega^n(log(D+Z))_w) compared with the
    weight-w slice of Omega^{n-1}_Z(log D|_Z) through the residue at z."""
    w = tuple(int(x) for x in w)
    return _gysin_slice(residue_complex_drop(setup.ring, n, setup.z, w), w)


def gysin_residue_closed(setup: GysinSetup, n: int, w) -> GysinSlice:
    """The closed-forms analogue: coker on Z-form slices vs ZOmega^{n-1}_Z."""
    w = tuple(int(x) for x in w)
    return _gysin_slice(closed_residue_complex(setup.ring, n, setup.z, w), w)


def closed_iso_compatible(setup: GysinSetup, n: int, w) -> bool:
    """The closed-forms residue is the restriction of the all-forms one:
    Z maps into Z and B maps into B on the divisor."""
    ring, z = setup.ring, setup.z
    w = tuple(int(x) for x in w)
    if w[z] != 0:
        return True  # target slice is zero; nothing to compare
    big = ZBDecomposition(ring, n, w)
    dring, _ = ring.drop_var(z)
    wd = tuple(x for k, x in enumerate(w) if k != z)
    tgt = ZBDecomposition(dring, n - 1, wd)
    _slice, res = residue_matrix(big.slice, z)
    z_to_z = tgt.Z_basis.contains_columns(res @ big.Z_basis)
    b_to_b = tgt.B_basis.contains_columns(res @ big.B_basis)
    return z_to_z and b_to_b


def gysin_coordinate_type(setup: GysinSetup, k: int, x: int) -> tuple:
    """The type of value x at coordinate k for the Gysin walks: whether p
    divides x and, off the center, the status of k at x
    (`FormRing.status`); at the center z, the place of x (`FormRing.place`)
    and whether x = 0.

    A check at weight w in degree n builds gysin_residue and
    gysin_residue_closed, the drop and closed residue complexes, and
    closed_iso_compatible's Z and B bases of slice (n, w) and, at w_z = 0,
    of the divisor's slice (n - 1, w').  Those are fixed by their class
    keys (`sequences.residue_class_keys`, `ZBDecomposition.key`), which
    read w through generator sets of the ring, of the ring without z in
    its log set and of the divisor ring (at w', where w_z = 0), through
    w mod p and whether w_z = 0.  Off z the three rings agree on whether k
    is log and share its window, so their sets are fixed by the statuses
    under the ring; at z the first two differ, and the place of w_z fixes
    its status in both.  The type reads whether p divides w_k in place of
    w mod p: at the weights of one type tuple the slices are carried onto
    each other by the unit scaling D_u, under which the residue scales by
    u_z and transport and restriction keep each set, so the dims, ranks
    and containments of the checks agree (sequences module docstring,
    "Class walks").  Each fact is read coordinate by coordinate, so the
    verdicts read w only through the tuple of types, and the walks check
    one weight per cell.

    `commuting_square` checks one weight per cell too.  At w it builds the
    closed basis of slice (n + 1, w) and compares coordinate vectors fixed
    by the divisor's generator sets at n and n + 1 where w_z = 0.  Those
    read w through the statuses under the ring, w mod p and whether
    w_z = 0, which the type reads (module docstring, "The commuting square
    by cells")."""
    ring = setup.ring
    if k == setup.z:
        return ring.place(k, x), x % ring.p == 0, x == 0
    return ring.status(k, x), x % ring.p == 0


def walk_gysin_classes(setup: GysinSetup, n: int, check):
    """Walk the weight box of degree n once per cell of
    `gysin_coordinate_type`: (cell, check(first weight)) for each cell, in
    first-weight order."""
    box = [range(lo, hi + 1) for lo, hi in setup.ring.weight_box(n)]
    return ((cell, check(cell[0])) for cell in type_cells(box, partial(gysin_coordinate_type, setup)))


# -- the commuting square res o C = C o res -------------------------------------


def eta_decomposition(ring: FormRing, z: int, form: LogForm):
    """form = gamma + eta' ^ dlog T_z with gamma free of dlog T_z."""
    gamma_terms: dict = {}
    prime_terms: dict = {}
    for (a, gens), c in form.terms.items():
        if z not in gens:
            gamma_terms[(a, gens)] = c
            continue
        k = gens.index(z)
        rest = gens[:k] + gens[k + 1 :]
        sign = (-1) ** (len(gens) - 1 - k)
        prime_terms[(a, rest)] = (prime_terms.get((a, rest), 0) + sign * c) % ring.p
    gamma = LogForm(ring, form.degree, gamma_terms)
    prime = LogForm(ring, max(form.degree - 1, 0), prime_terms)
    return gamma, prime


@dataclass
class SquareReport:
    ring: FormRing
    z: int
    n: int
    checked: int
    failures: list
    decomposition_failures: list

    @property
    def ok(self) -> bool:
        return self.checked > 0 and not self.failures and not self.decomposition_failures


def commuting_square(setup: GysinSetup, n: int) -> SquareReport:
    """residue(C(eta)) = C(residue(eta)) for every closed slice-basis form
    eta in ZOmega^{n+1}(log(D+Z)) over the weight window, plus the
    eta = gamma + eta' ^ dlog T_z decomposition reconstruction, checked once
    per cell of `gysin_coordinate_type`.  `failures` lists every failing
    weight, so a failing check lists the weights of its cell."""
    ring, z = setup.ring, setup.z
    dring, _ = ring.drop_var(z)

    def verdict(eta):
        """(the square holds, the decomposition holds) at eta."""
        ceta = cartier(eta)
        path_a = ceta.residue(z) if not ceta.is_zero() else dring.zero(n)
        path_b = cartier(eta.residue(z))
        gamma, prime = eta_decomposition(ring, z, eta)
        return path_a == path_b, gamma + prime.wedge(ring.gen(z)) == eta

    def check(w):
        s, zb = closed_slice_basis(ring, n + 1, w)
        return [verdict(s.from_vector(zb.column(k))) for k in range(zb.cols)]

    # skip Laurent weights (no divisor slice) and the outer degree shell,
    # where the window truncates antiderivatives
    values = [range(max(lo, 0) if k == z else lo, hi + 1) for k, (lo, hi) in enumerate(ring.window)]
    checked = 0
    failures = []
    decomp_failures = []
    for first, count, parts in type_cells(values, partial(gysin_coordinate_type, setup)):
        verdicts = check(first)
        checked += count * len(verdicts)
        square_bad = [k for k, (square, _split) in enumerate(verdicts) if not square]
        split_bad = [k for k, (_square, split) in enumerate(verdicts) if not split]
        if square_bad or split_bad:
            for w in product(*parts):
                failures += [(w, k) for k in square_bad]
                decomp_failures += [(w, k) for k in split_bad]
    # in the order of a walk over the weights
    failures.sort()
    decomp_failures.sort()
    return SquareReport(ring, z, n, checked, failures, decomp_failures)


# -- nu on the divisor through the Gysin identification -------------------------


@dataclass
class NuPurityReport:
    setup: GysinSetup
    n: int
    r: int
    square_ok: bool
    expected_nu_dim: int
    computed_nu_dim: int
    obstruction_dim: int
    expected_obstruction_dim: int
    per_weight_coker: dict

    @property
    def ok(self) -> bool:
        return (
            self.square_ok
            and self.expected_nu_dim == self.computed_nu_dim
            and self.expected_obstruction_dim == self.obstruction_dim
        )

    def to_json_dict(self) -> dict:
        ring = self.setup.ring
        return {
            "setup": {
                "p": ring.p,
                "names": list(ring.names),
                "log": sorted(ring.log),
                "z": self.setup.z,
            },
            "n": self.n,
            "r": self.r,
            "square_ok": self.square_ok,
            "nu_dims": {
                "expected": self.expected_nu_dim,
                "computed": self.computed_nu_dim,
            },
            "obstruction_dim": self.obstruction_dim,
        }


def _nu_purity_coordinate_type(setup: GysinSetup, k: int, x: int) -> tuple:
    """The type of value x at coordinate k for the blocks of
    `nu_purity_report`: the Gysin type of x (`gysin_coordinate_type`) and,
    at p | x, the Gysin type of x / p.

    A cell's rows and own block are built from the Gysin slices at w,
    which read w only through its Gysin types (`gysin_coordinate_type`).
    Its c block, at p | w, is built from those, the matrix of C on slice
    (n, w) and the plain Gysin slice at w/p.  The matrix of C reads the
    statuses of the coordinates of w and of w/p under the ring
    (`cartier.cartier_coordinate_type`), which the Gysin types of x and x/p
    fix (a status is a function of the place), and the slice at w/p reads
    the Gysin types of w/p.  Every type reads whether p divides x, so the
    blocks at the weights of one type tuple are carried onto each other by
    the unit scaling D_u, with the same shapes and independence, and at
    p | w, the only weights whose blocks are solved or read by C, D_u is
    the identity (sequences module docstring, "Class walks").  So the
    cells' blocks serve every weight of the tuple of types, and the Gysin
    slices and own blocks serve every weight of its Gysin half."""
    p = setup.ring.p
    return gysin_coordinate_type(setup, k, x), gysin_coordinate_type(setup, k, x // p) if x % p == 0 else None


def nu_purity_report(setup: GysinSetup, n: int, square=None) -> NuPurityReport:
    """ker(C - 1) on the Gysin cokernels vs nu_Z(n-1), with the cokernel of
    C - 1 reported as the obstruction term, and the commuting square of
    degree max(n - 1, 0) as `square_ok`.  It is ok when the square holds
    and the kernel and cokernel have the dims of the divisor's own C - 1
    system (`nu_sections` in degree n - 1).  square(k) gives
    commuting_square(setup, k); a caller that has run it passes its
    results here (default: run it).

    C sends closed forms to arbitrary forms, so C - 1 runs from the closed
    cokernel (= ZOmega^{n-1} on the divisor, via residue) into the plain
    cokernel (= Omega^{n-1}), the weight-w block landing in blocks w and w/p.
    That is the system of the direct nu computation on the divisor, in
    cokernel coordinates, and `c_minus_one_cells` takes it by cell of
    `_nu_purity_coordinate_type`.  The Gysin slices and own blocks are
    built once per tuple of Gysin types, and the c blocks once per cell, at
    their first weights.  Each own block (the closed representatives in
    plain cokernel coordinates) takes one rank, once per tuple of Gysin
    types, to show its columns independent (`cartier.independent_block`);
    then only the weight-0 block is solved, and the obstruction is its
    cokernel plus rows - columns at every other weight.
    """
    ring, z = setup.ring, setup.z
    p = ring.p
    if square is None:
        square = partial(commuting_square, setup)
    if n == 0:
        # coker of O -> O is zero and nu_Z(-1) = 0
        return NuPurityReport(setup, 0, 1, square(0).ok, 0, 0, 0, 0, {})
    # the window weights with w_z = 0, one cell per type tuple
    values = [range(0, 1) if k == z else range(lo, hi + 1) for k, (lo, hi) in enumerate(ring.window)]
    cells = list(type_cells(values, partial(_nu_purity_coordinate_type, setup)))
    # each cell's Gysin types at w and, at p | w, at w/p
    types = [tuple(zip(*(_nu_purity_coordinate_type(setup, k, x) for k, x in enumerate(w)))) for w, _c, _p in cells]
    gysin = {}  # the (closed, plain) Gysin slices of each tuple of Gysin types
    for (first, _count, _parts), (here, _down) in zip(cells, types):
        if here not in gysin:
            gysin[here] = gysin_residue_closed(setup, n, first), gysin_residue(setup, n, first)

    def quot(g, vecs):
        # the unit vectors at the plain representatives complete the image to
        # the full slice, so quotient coordinates exist for every vector and
        # the representative part is unique
        units = np.eye(g.complex.dims[1], dtype=np.int64)[:, g.reps]
        sol = FpMatrix(p, units).hstack(g.complex.maps[0]).solve(vecs)
        if sol is None:
            raise AssertionError("plain cokernel representatives do not span")
        return sol[: g.coker_dim]

    # the (own, c) blocks: own once per tuple of Gysin types, its columns
    # shown independent there, and c once per cell
    own_of, blocks, per_weight = {}, [], {}
    for cell, (here, down) in zip(cells, types):
        first, _count, parts = cell
        closed, plain = gysin[here]
        if closed.coker_dim:
            per_weight.update(dict.fromkeys(product(*parts), closed.coker_dim))
        creps = closed.reps
        if not creps:
            blocks.append((cell, plain.coker_dim, None))
            continue
        if here not in own_of:
            own = quot(plain, closed.complex.spaces[1][1].array[:, creps])
            own_of[here] = independent_block(FpMatrix._of_residues(p, own))
        c = None
        if all(x % p == 0 for x in first):
            # the closed basis of the Gysin slice is the Z basis of this
            # slice, so the columns of C at creps are C of the closed
            # representatives, in slice (n, w/p) coords
            _zb, _src, cmat = cartier_slice_matrix(ring, n, first)
            c = quot(gysin[down][1], cmat.array[:, creps])
        blocks.append((cell, plain.coker_dim, (own_of[here], c)))
    kernel, obstruction = c_minus_one_cells(p, blocks)
    dring, _ = ring.drop_var(z)
    expected = nu_sections(dring, n - 1)
    square_ok = square(n - 1).ok
    per_weight = dict(sorted(per_weight.items()))
    return NuPurityReport(
        setup, n, 1, square_ok, expected.dim, len(kernel), obstruction, expected.cokernel_dim, per_weight
    )


# -- iterated (codimension r) purity ---------------------------------------------


@dataclass
class IteratedPurityReport:
    ring: FormRing
    chain: tuple
    n: int
    r: int
    shift: int
    per_weight: dict
    steps_exact: bool
    composite_surjective: bool
    order_independent: bool

    @property
    def ok(self) -> bool:
        return self.steps_exact and self.composite_surjective and self.order_independent


def _adjusted_chain(chain):
    """Chain indices in the coordinates of the successively dropped rings."""
    out = []
    dropped: list[int] = []
    for z in chain:
        out.append(z - sum(1 for d in dropped if d < z))
        dropped.append(z)
    return out


def _composite_dims(ring: FormRing, order, n: int) -> dict:
    """Per-weight (target dim, composite residue rank) for one drop order."""
    adjusted = _adjusted_chain(order)
    out = {}
    for w in ring.iter_weights(n):
        if any(w[z] != 0 for z in order):
            continue
        if n < len(order):
            out[w] = (0, 0)  # target degree is negative; nothing to hit
            continue
        s = ring.slice(n, w)
        forms = [s.basis_form(k) for k in range(s.dim)]
        cur = ring
        for zc in adjusted:
            forms = [f.residue(zc) for f in forms]
            cur, _ = cur.drop_var(zc)
        wd = tuple(x for k, x in enumerate(w) if k not in set(order))
        tgt = cur.slice(n - len(order), wd)
        mat = FpMatrix.from_columns(ring.p, [tgt.to_vector(f) for f in forms], tgt.dim)
        out[w] = (tgt.dim, mat.rank())
    return out


def iterated_purity(ring: FormRing, chain, n: int) -> IteratedPurityReport:
    """Compose r single-divisor residues along a chain of coordinate centers;
    the composite hits the full Omega^{n-r} slice on the common zero weights,
    each single step is an exact sequence, and the per-weight dimensions do
    not depend on the order of the chain.  The homological shift [-r] is
    bookkeeping, recorded as metadata."""
    chain = tuple(int(z) for z in chain)
    if len(set(chain)) != len(chain):
        raise ValueError("chain indices must be distinct")
    if any(z not in ring.log for z in chain):
        raise ValueError("chain indices must be log coordinates")
    r = len(chain)
    steps_exact = True
    cur = ring
    deg = n
    for zc in _adjusted_chain(chain):
        # one drop sequence per drop class (sequences, "Residue classes"),
        # and every class built, as every weight was
        bad = [bad for _cell, bad in walk_residue_classes(cur, deg, zc, 1)]
        steps_exact = steps_exact and not any(bad)
        cur, _ = cur.drop_var(zc)
        deg -= 1
    base = _composite_dims(ring, chain, n)
    order_independent = all(
        _composite_dims(ring, perm, n) == base for perm in permutations(chain)
    )
    surjective = all(rank == dim for dim, rank in base.values())
    per_weight = {w: dim for w, (dim, _rank) in base.items() if dim}
    return IteratedPurityReport(
        ring=ring,
        chain=chain,
        n=n,
        r=r,
        shift=-r,
        per_weight=per_weight,
        steps_exact=steps_exact,
        composite_surjective=surjective,
        order_independent=order_independent,
    )
