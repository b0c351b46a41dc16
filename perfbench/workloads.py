"""Workload inputs, made from the seed, and the one call each item makes.

An item is one call through a stable entry point that returns a verdict:
`logcartier.cech_cohomology`, `logcartier.blowup_cohomology` or
`logcartier.cli.main`.  Functions are looked up on the module at call time,
so the traced run sees the wrapped versions.

A round is the whole item list of a workload.  Its make-up is fixed; the seed
draws only choices that leave an item's cost alone (the log indices, and the
order), so that every seed costs the same and runs stay comparable.
"""

from __future__ import annotations

import json
import os
import random

WORKLOADS = ("projective", "blowup", "axioms")

# Suites that read -m; the others run the same checks for every m, so they
# are called once per prime.
AXIOM_SUITES_M = ("cartier", "residue", "purity-square", "nu")
AXIOM_SUITES = (
    "cartier",
    "residue",
    "euler",
    "filtration",
    "generators",
    "purity-square",
    "nu",
    "obstruction",
    "pullback",
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def projective_items(seed: int) -> list[dict]:
    """Omega^j(log D_S)(l) on P^2, P^3 and P^4.

    Every (n, j, |S|) cell with n in {2, 3} gets a twist sweep: l = 0, l = 1
    and l = j - n - 1 (below j - n, which puts the cohomology in H^n), kept
    adjacent in that order, so that the sweep's first item fills the
    sign-pattern cache for (p, n, j, S) and the others hit it.  P^4 gets one
    cold item per j, five in all (a P^4 sweep costs up to 4 s): l = 0 for
    j <= 2 and l = j - 5 for j >= 3, with |S| fixed per j.  The prime of a
    cell is fixed, 2 or 3 by the parity of j + |S| (of j on P^4), so both
    primes are covered.  The seed draws the log indices S and the order of
    the sweeps.  It draws nothing that sets an item's cost: when it drew the
    primes and the order within a sweep as well, the median item time moved
    by 15% (quartile spread over eight seeds) from the make-up alone.  P^1
    is left out (its items take about a millisecond and would only pull the
    median down) and so is P^5 (one cold P^5 item takes 3 to 42 s).
    """
    rng = _rng("projective", seed)
    groups = []
    for n in (2, 3):
        for j in range(n + 1):
            for s in (0, 1, 2):
                p = 2 + (j + s) % 2
                S = sorted(rng.sample(range(n + 1), s))
                groups.append(
                    [{"p": p, "n": n, "j": j, "S": S, "l": l} for l in (0, 1, j - n - 1)]
                )
    for j, s in enumerate((2, 1, 0, 1, 2)):
        l = 0 if j <= 2 else j - 5
        S = sorted(rng.sample(range(5), s))
        groups.append([{"p": 2 + j % 2, "n": 4, "j": j, "S": S, "l": l}])
    rng.shuffle(groups)
    return [item for group in groups for item in group]


def blowup_items(seed: int) -> list[dict]:
    """blowup_cohomology(m, c, j, p) over 2 <= c <= m <= 3 and every j, with
    p in {2, 3} for c = 2 and p = 2 for (m, c) = (3, 3), in drawn order.
    (3, 3) at p = 3 is left out: its four items take 8 s, half a round's
    cost, and a run holds four rounds without them.  m = 4 is left out: one
    (4, 4, j) item takes 10 to 124 s."""
    items = [
        {"m": m, "c": c, "j": j, "p": p}
        for m in (2, 3)
        for c in range(2, m + 1)
        for j in range(m + 1)
        for p in ((2, 3) if c == 2 else (2,))
    ]
    _rng("blowup", seed).shuffle(items)
    return items


def axioms_items(seed: int) -> list[dict]:
    """`logcartier verify <suite>` for the nine axiom suites with p in {2, 3},
    and m in {2, 3} for the suites that read m, in drawn order.  m = 3 runs
    at p = 2 only: its four p = 3 calls take 12 s, more than half a round's
    cost, and a run holds four rounds without them."""
    items = [
        {"suite": s, "p": p, "m": m}
        for s in AXIOM_SUITES
        for p in (2, 3)
        for m in ((2, 3) if s in AXIOM_SUITES_M and p == 2 else (2,))
    ]
    _rng("axioms", seed).shuffle(items)
    return items


ITEMS = {"projective": projective_items, "blowup": blowup_items, "axioms": axioms_items}


def run_item(lc, workload: str, item: dict, scratch: str):
    """Make the item's one call.  Returns the raw result (a report or an exit
    code); `summarize` turns it into plain data outside the timed window."""
    if workload == "projective":
        spec = lc.SheafSpec(
            p=item["p"], space=lc.ProjectiveSpace(item["n"]), j=item["j"],
            S=frozenset(item["S"]), l=item["l"],
        )
        return lc.cech_cohomology(spec)
    if workload == "blowup":
        return lc.blowup_cohomology(item["m"], item["c"], item["j"], item["p"])
    argv = [
        "verify", item["suite"], "-p", str(item["p"]), "-m", str(item["m"]),
        "--format", "json", "--output", scratch,
    ]
    return lc.cli.main(argv)


def summarize(workload: str, result, scratch: str) -> dict:
    if workload == "projective":
        return {"dims": list(result.dims), "stabilized": result.stabilized}
    if workload == "blowup":
        return {
            "dims": list(result.dims),
            "stabilized": result.stabilized,
            "box": [list(b) for b in result.box],
            "per_weight": [[list(w), list(d)] for w, d in result.per_weight.items()],
        }
    out = {"exit": result, "checks": 0, "failing": []}
    try:
        with open(scratch, encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(scratch)
    except (OSError, ValueError) as e:
        out["failing"].append(f"unreadable output: {e}")
        return out
    checks = doc.get("checks", [])
    out["checks"] = len(checks)
    out["failing"] = [
        f"{c.get('name')} [{c.get('params')}]" for c in checks if c.get("verdict") != "PASS"
    ]
    return out


# -- slice complexes re-checked outside the timed window --------------------------


def sample_complexes(lc, seed: int, count: int = 12):
    """A seeded sample of residue, Euler and pullback slice complexes built
    through the public `sequences` builders; yields (label, p, complex)."""
    rng = _rng("complexes", seed)
    for _ in range(count):
        p = rng.choice((2, 3))
        m = rng.choice((2, 3))
        log = tuple(sorted(rng.sample(range(m), rng.randint(1, m))))
        ring = lc.FormRing(
            p, names=tuple(f"T{i + 1}" for i in range(m)), log=log, window=p + 1
        )
        a = rng.randint(1, m)
        z = rng.choice(log)
        w = rng.choice(list(ring.iter_weights(a)))
        yield f"residue-drop p={p} log={log} a={a} z={z} w={w}", p, lc.residue_complex_drop(ring, a, z, w)
        yield f"residue-twist p={p} log={log} a={a} z={z} w={w}", p, lc.residue_complex_twist(ring, a, z, w)
        if a == 1:
            yield f"residue-all p={p} log={log} w={w}", p, lc.residue_complex_all_divisors(ring, w)

        n = rng.randint(1, 3)
        j = rng.randint(0, n)
        l = rng.choice((0, 1))
        while True:
            ew = tuple(rng.randint(-2, 2) for _ in range(n))
            if abs(l - sum(ew)) <= 2:
                break
        ew = ew + (l - sum(ew),)
        inverted = rng.choice((None, frozenset({0})))
        yield f"euler p={p} n={n} j={j} w={ew} chart={inverted}", p, lc.euler_complex(
            p, n, j, l, ew, inverted=inverted
        )

        c = rng.choice((2, 3))
        pn = rng.randint(0, c - 1)
        pw = tuple(rng.randint(-1, 1) for _ in range(c))
        chart = rng.randrange(c)
        yield f"pullback p={p} c={c} n={pn} w={pw} chart={chart}", p, lc.pullback_ses(
            p, c, pn, pw, chart=chart
        )
