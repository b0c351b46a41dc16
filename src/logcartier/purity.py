"""Gysin maps and purity at section level, on one affine chart.

R^1 i^! of the log n-forms along a coordinate center Z = V(T_z) is the
cokernel of Omega^n(log D) -> Omega^n(log(D+Z)) on each weight slice, and the
residue at z identifies that cokernel with Omega^{n-1}_Z(log D|_Z).  The same
statement holds for closed forms via the closed residue sequence, the Cartier
operator commutes with the residue, and ker(C - 1) on the cokernels recovers
nu_Z(n-1).  That C - 1 system is solved by `cartier.c_minus_one_chains`, the
routine that computes nu itself.  The cokernel of C - 1 (the next i^! term of
nu) is reported but never asserted zero: in the polynomial or Laurent model
it survives, and only Artin-Schreier covers kill it.

The commuting square by classes.  `commuting_square` checks each class of
weights once.  With gens(R, j, v) the generator sets of slice (j, v) of R
in basis order, dring the ring without the variable z and w' the weight w
without coordinate z, the key at w (`square_class_key`) is the closed key
of slice (n + 1, w) (`closed_slice_key`: gens at n + 1 and n + 2 and
w mod p) and, at w_z = 0 only, gens(dring, n, w') and gens(dring, n + 1,
w').  The argument:

- eta runs over the closed basis, a function of the closed key.
- Every term of a form on slice (j, w) has weight w, so `cartier()` is the
  identity on generator sets from w to w/p at p | w and zero otherwise; at
  w_z = 0, p | w exactly when p | w'.  It keeps each term's set and reads
  no slice at w/p, so the sets there are not in the key.  Keying by them
  too splits no class of the purity suite: it has 264, 120 and 456
  classes in all at (p, m) = (2, 5), (2, 4) and (3, 4) either way.
- The exponent of T_z in a term of weight w is w_z, z being log, so the
  residue at z is the signed selection of the sets holding z, with z
  removed, at w_z = 0, and zero at w_z > 0; on C(eta), of weight w/p, it
  is zero exactly where w_z is nonzero too.
- `cartier()` first checks d = 0, and d raises WindowOverflow exactly where
  an index lookup into the next degree misses (cartier module); those are
  the sets at n + 2 on the ring and at n + 1 on the divisor.
- eta = gamma + eta' ^ dlog T_z splits each term by whether z is in its
  set, and forms of one weight are equal exactly when their coordinates
  are, so every comparison is one of coordinate vectors fixed by the key.

Class walks (sequences module docstring).  Each key of this module reads a
weight coordinate by coordinate, so it is a function of the tuple of
per-coordinate types, and its rows key one weight per cell of types, in
first-weight order.  The types, each beside its key with its argument:
`square_coordinate_type` (status, w_k mod p, and w_z = 0 at the center)
for the square; `gysin_coordinate_type` (status off the center, place and
w_z = 0 at it, and w_k mod p) for the Gysin key `gysin_class_key`, which
`walk_gysin_classes` walks for the cli's gysin-residue-iso row and
`nu_purity_report` builds its Gysin maps by; and
`_nu_purity_coordinate_type` (the Gysin types of w_k and, at p | w_k, of
w_k / p) for the C - 1 blocks of `nu_purity_report`; the steps of
`iterated_purity` walk `sequences.walk_residue_classes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import permutations, product

import numpy as np

from .cartier import (
    ZBDecomposition,
    c_minus_one_chains,
    cartier,
    cartier_class_key,
    cartier_slice_matrix,
    nu_sections,
    shared_block,
)
from .forms import FormRing, LogForm, residue_matrix
from .gflinalg import FpMatrix
from .sequences import (
    SliceComplex,
    closed_residue_complex,
    closed_slice_basis,
    closed_slice_key,
    residue_class_keys,
    residue_complex_drop,
    type_cells,
    walk_classes,
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
    res = residue_matrix(big.slice, tgt.slice, z)
    z_to_z = tgt.Z_basis.contains_columns(res @ big.Z_basis)
    b_to_b = tgt.B_basis.contains_columns(res @ big.B_basis)
    return z_to_z and b_to_b


def gysin_class_key(setup: GysinSetup, n: int, w) -> tuple:
    """The class of weight w for gysin_residue, gysin_residue_closed and
    closed_iso_compatible in degree n: the drop and closed keys of
    `residue_class_keys` (the complexes of the two Gysin slices), and the
    Z and B classes that closed_iso_compatible reads beyond them, gens(ring,
    n - 1, w) and at w_z = 0 the divisor's gens at (n - 2, w')."""
    ring, z = setup.ring, setup.z
    w = tuple(int(x) for x in w)
    drop, _twist, closed, _every = residue_class_keys(ring, n, z, w)
    low = ring.drop_var(z)[0].gens(n - 2, w[:z] + w[z + 1 :]) if w[z] == 0 else None
    return drop, closed, ring.gens(n - 1, w), low


def gysin_coordinate_type(setup: GysinSetup, k: int, x: int) -> tuple:
    """The type of value x at coordinate k for `gysin_class_key`: x mod p
    and, off the center, the status of k at x (`FormRing.status`); at the
    center z, the place of x (`FormRing.place`) and whether x = 0.

    The key reads w through generator sets of the ring, of the ring without
    z in its log set and of the divisor ring (at w', where w_z = 0), through
    w mod p (the closed key) and whether w_z = 0.  Off z the three rings
    agree on whether k is log and share its window, so their sets are fixed
    by the statuses under the ring; at z the first two differ, and the
    place of w_z fixes its status in both.  Each is read coordinate by
    coordinate, so the key is a function of the tuple of types (sequences
    module docstring, "Class walks")."""
    ring = setup.ring
    if k == setup.z:
        return ring.place(k, x), x % ring.p, x == 0
    return ring.status(k, x), x % ring.p


def walk_gysin_classes(setup: GysinSetup, n: int, check):
    """Walk the weight box of degree n once per class of `gysin_class_key`,
    keyed once per cell of `gysin_coordinate_type`: (cell, verdict) as
    `sequences.walk_classes` yields them."""
    box = [range(lo, hi + 1) for lo, hi in setup.ring.weight_box(n)]
    return walk_classes(type_cells(box, partial(gysin_coordinate_type, setup)), partial(gysin_class_key, setup, n), check)


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


def square_class_key(setup: GysinSetup, n: int, w) -> tuple:
    """The class of weight w for `commuting_square` in degree n (module
    docstring): the closed key of slice (n + 1, w) (`closed_slice_key`) and,
    at w_z = 0 only, the divisor's gens at n and n + 1 and w'.  It builds
    nothing."""
    ring, z = setup.ring, setup.z
    w = tuple(int(x) for x in w)
    dring, _ = ring.drop_var(z)
    # the divisor's slices exist only at w_z = 0
    wd = w[:z] + w[z + 1 :]
    divisor = (dring.gens(n, wd), dring.gens(n + 1, wd)) if w[z] == 0 else None
    return closed_slice_key(ring, n + 1, w), divisor


def square_coordinate_type(setup: GysinSetup, k: int, x: int) -> tuple:
    """The type of value x at coordinate k for `square_class_key`: the
    status of k at x (`FormRing.status`), x mod p and, at the center z,
    whether x = 0.

    The key reads w through the ring's sets at w, the divisor ring's at w'
    (whose coordinates keep their log status and window, so their statuses
    are those under the ring), w mod p and whether w_z = 0, each coordinate
    by coordinate; so the key is a function of the tuple of types
    (sequences module docstring, "Class walks")."""
    ring = setup.ring
    return ring.status(k, x), x % ring.p, k == setup.z and x == 0


def commuting_square(setup: GysinSetup, n: int) -> SquareReport:
    """residue(C(eta)) = C(residue(eta)) for every closed slice-basis form
    eta in ZOmega^{n+1}(log(D+Z)) over the weight window, plus the
    eta = gamma + eta' ^ dlog T_z decomposition reconstruction, checked once
    per class of `square_class_key`, one key per cell of
    `square_coordinate_type`.  `failures` lists every failing weight, so a
    failing class lists the weights of its cells, and only then."""
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
    cells = type_cells(values, partial(square_coordinate_type, setup))
    checked = 0
    failures = []
    decomp_failures = []
    for (_first, count, parts), verdicts in walk_classes(cells, partial(square_class_key, setup, n), check):
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
    per_weight_coker: dict

    @property
    def ok(self) -> bool:
        return self.square_ok and self.expected_nu_dim == self.computed_nu_dim

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

    The own block of w is a function of the Gysin class of w; its c block,
    at p | w, of that, of `cartier_class_key` at (n, w) and of the Gysin
    class of w/p.  The C key reads the statuses of the coordinates of w and
    of w/p under the ring and w mod p, which the Gysin types of x and x/p
    fix (a status is a function of the place).  So every block is a
    function of the tuple of types (sequences module docstring, "Class
    walks")."""
    p = setup.ring.p
    return gysin_coordinate_type(setup, k, x), gysin_coordinate_type(setup, k, x // p) if x % p == 0 else None


def nu_purity_report(setup: GysinSetup, n: int, square=None) -> NuPurityReport:
    """ker(C - 1) on the Gysin cokernels vs nu_Z(n-1), with the cokernel of
    C - 1 reported as the obstruction term, and the commuting square of
    degree max(n - 1, 0) as `square_ok`.  square(k) gives
    commuting_square(setup, k); a caller that has run it passes its
    results here (default: run it).

    C sends closed forms to arbitrary forms, so C - 1 runs from the closed
    cokernel (= ZOmega^{n-1} on the divisor, via residue) into the plain
    cokernel (= Omega^{n-1}), the weight-w block landing in blocks w and w/p.
    That is the system of the direct nu computation on the divisor, in
    cokernel coordinates, and `c_minus_one_chains` solves it one p-chain at
    a time.  The Gysin slices are built once per `gysin_class_key` and the
    blocks once per class, at their first weights, and copied to the
    weights of each cell of `_nu_purity_coordinate_type`.
    """
    ring, z = setup.ring, setup.z
    p = ring.p
    if square is None:
        square = partial(commuting_square, setup)
    if n == 0:
        # coker of O -> O is zero and nu_Z(-1) = 0
        return NuPurityReport(setup, 0, 1, square(0).ok, 0, 0, 0, {})
    # the window weights with w_z = 0, one cell per type tuple
    values = [range(0, 1) if k == z else range(lo, hi + 1) for k, (lo, hi) in enumerate(ring.window)]
    cells = list(type_cells(values, partial(_nu_purity_coordinate_type, setup)))
    key = partial(gysin_class_key, setup, n)
    keys = [key(first) for first, _count, _parts in cells]
    gysin = {}  # the (closed, plain) Gysin slices of each class
    for (first, _count, _parts), k in zip(cells, keys):
        if k not in gysin:
            gysin[k] = gysin_residue_closed(setup, n, first), gysin_residue(setup, n, first)

    def quot(g, vecs):
        # the unit vectors at the plain representatives complete the image to
        # the full slice, so quotient coordinates exist for every vector and
        # the representative part is unique
        units = np.eye(g.complex.dims[1], dtype=np.int64)[:, g.reps]
        sol = FpMatrix(p, units).hstack(g.complex.maps[0]).solve(vecs)
        if sol is None:
            raise AssertionError("plain cokernel representatives do not span")
        sol = sol[: g.coker_dim]
        sol.flags.writeable = False
        return shared_block(store, sol)

    # the (own, c) blocks, each one read-only array per class: own by the
    # Gysin class of w, c by that, the C class of w and the Gysin class of w/p
    own_of, c_of, blocks, store = {}, {}, [], {}
    for (first, _count, _parts), k in zip(cells, keys):
        closed, plain = gysin[k]
        creps = closed.reps
        if not creps:
            blocks.append(None)
            continue
        if k not in own_of:
            own_of[k] = quot(plain, closed.complex.spaces[1][1].array[:, creps])
        c = None
        if all(x % p == 0 for x in first):
            # the closed basis of the Gysin slice is the Z basis of this
            # slice, so the columns of C at creps are C of the closed
            # representatives, in slice (n, w/p) coords
            down = key(tuple(x // p for x in first))
            ck = k, cartier_class_key(ring, n, first), down
            if ck not in c_of:
                _zb, _src, cmat = cartier_slice_matrix(ring, n, first)
                c_of[ck] = quot(gysin[down][1], cmat.array[:, creps])
            c = c_of[ck]
        blocks.append((own_of[k], c))
    rows, columns, per_weight = {}, {}, {}
    for (_first, _count, parts), k, found in zip(cells, keys, blocks):
        closed, plain = gysin[k]
        for w in product(*parts):
            rows[w] = plain.coker_dim
            if found is not None:
                columns[w] = found
            if closed.coker_dim:
                per_weight[w] = closed.coker_dim
    kernel, obstruction = c_minus_one_chains(p, dict(sorted(rows.items())), columns)
    dring, _ = ring.drop_var(z)
    expected = nu_sections(dring, n - 1).dim
    square_ok = square(n - 1).ok
    per_weight = dict(sorted(per_weight.items()))
    return NuPurityReport(setup, n, 1, square_ok, expected, len(kernel), obstruction, per_weight)


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
