"""The benchmark's workloads: seeded operations on latquot, each with an exact check.

A workload is built by ``BUILDERS[name](seed, lq, root)`` into a list of
``Op`` in closed-loop order.  ``Op.call`` is the only code that runs inside
the timed region; it reaches latquot through module attributes at call
time, so the tracer's wrappers see every call.  ``Op.check`` runs outside
the timed region and uses ``gen``'s plain arithmetic, never latquot.

Every pool of operations is interleaved by a fixed pattern of kinds, so any
prefix of the schedule has the same mix of kinds whatever the seed; that is
what keeps the figures steady across seeds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import gen


# where generated input files and trace dumps go, relative to the checkout
WORKDIR = Path("perfbench") / "_work"


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    argv: tuple = ()  # cli workload only: arguments after ``-m latquot.cli``


def interleave(pools: dict[str, list[Op]], pattern: tuple[str, ...], cycles: int) -> list[Op]:
    """Repeat ``pattern`` ``cycles`` times, drawing each kind's ops in turn from its pool."""
    taken = {kind: 0 for kind in pools}
    out = []
    for _ in range(cycles):
        for kind in pattern:
            pool = pools[kind]
            out.append(pool[taken[kind] % len(pool)])
            taken[kind] += 1
    return out


# --- shared checks ----------------------------------------------------------

def gram(basis) -> tuple:
    return gen.matmul(gen.transpose(basis), basis)


def form(g, a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, gen.matvec(g, b))), Fraction(0))


def is_witness(u, g1, g2) -> bool:
    """U^T G1 U == G2 with |det U| = 1, for U given as integer rows."""
    return abs(gen.det(u)) == 1 and gen.matmul(gen.matmul(gen.transpose(u), g1), u) == g2


def shortest_ok(coeff_lists, g, spec: gen.LatticeSpec) -> bool:
    """Every returned class has the construction's minimum norm, with the right
    count, no duplicates, and the sign convention (last nonzero entry positive)."""
    vecs = [tuple(c) for c in coeff_lists]
    if len(vecs) != spec.min_pairs or len(set(vecs)) != len(vecs):
        return False
    for c in vecs:
        last = next(x for x in reversed(c) if x)
        if last <= 0 or form(g, c, c) != spec.min_norm:
            return False
    return True


def frac_coords(rng: random.Random, n: int) -> tuple:
    return tuple(Fraction(rng.randrange(6), 6) for _ in range(n))


def int_coords(rng: random.Random, n: int, k: int = 3) -> tuple:
    return tuple(rng.randint(-k, k) for _ in range(n))


def doubled_column(n: int, k: int = 2) -> tuple:
    return tuple(tuple(k if (i == j == 0) else int(i == j) for j in range(n)) for i in range(n))


def realify(entries) -> tuple:
    """Interleaved (re, im) realification of a complex matrix, for checks."""
    m = len(entries)
    out = [[Fraction(0)] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        for j in range(m):
            a, b = entries[i][j]
            out[2 * i][2 * j], out[2 * i][2 * j + 1] = a, -b
            out[2 * i + 1][2 * j], out[2 * i + 1][2 * j + 1] = b, a
    return tuple(map(tuple, out))


def non_isometric_partner(rng: random.Random, spec: gen.LatticeSpec) -> gen.LatticeSpec:
    """A lattice with the covolume of a Z or D family member but a smaller minimum."""
    n = spec.n
    if spec.kind == "Z":
        diag = (Fraction(2), Fraction(1, 2)) + (Fraction(1),) * (n - 2)
    else:  # "D": covolume 2, minimum 2 against diag(2, 1, ..)'s minimum 1
        diag = (Fraction(2),) + (Fraction(1),) * (n - 1)
    return gen.make_spec("diag", n, spec.scale, gen.rotation(rng, n, 1), diag)


# --- lattice_ops ------------------------------------------------------------

LATTICE_OPS_PATTERN = (
    "reduce", "contains", "equals", "torus_add", "induced", "reduce", "contains",
    "sublattice_index", "same_left_coset", "shortest_vectors", "reduce", "contains",
    "equals", "torus_add", "induced", "sublattice_index", "same_left_coset",
    "complex_map_check", "isometric_mod_rotation",
)


def lattice_ops(seed: int, lq, root: Path) -> list[Op]:
    """A fixed working set of small, nicely presented lattices, queried many times."""
    rng = random.Random(seed)
    MatQ, TorusPoint = lq.exactnum.MatQ, lq.quotient_torus.TorusPoint
    lat = lambda rows: lq.lattice_core.from_basis(MatQ(rows))  # noqa: E731
    ws = []
    for i in range(27):
        spec = gen.random_spec(rng, *gen.strata(i, (2, 3, 4)))
        n = spec.n
        u, _ = gen.shears(rng, n, 3, 1)
        alt = gen.present(spec, u)
        sub = gen.matmul(alt, doubled_column(n))
        ws.append((spec, u, lat(spec.basis), lat(alt), lat(sub)))

    pools: dict[str, list[Op]] = {k: [] for k in LATTICE_OPS_PATTERN}
    for i in range(4 * len(ws)):
        spec, u, nice, alt, sub = ws[i % len(ws)]
        n = spec.n
        b = spec.basis

        # reduce: x = B (c + f) reduces to coordinates f
        f = frac_coords(rng, n)
        x = gen.matvec(b, [c + g for c, g in zip(int_coords(rng, n), f)])
        pools["reduce"].append(Op(
            "reduce",
            lambda L=nice, x=x: lq.quotient_torus.reduce(L, x),
            lambda p, L=nice, f=f: p.lattice is L and p.coords == f,
        ))

        # contains: B c is in the lattice; B (c + e_k / 2) is not
        member = rng.random() < 0.5
        c = [Fraction(v) for v in int_coords(rng, n)]
        if not member:
            c[rng.randrange(n)] += Fraction(1, 2)
        x = gen.matvec(gen.present(spec, u), c)
        pools["contains"].append(Op(
            "contains",
            lambda L=alt, x=x: lq.lattice_core.contains(L, x),
            lambda r, want=member: r is want,
        ))

        # equals: a unimodular re-presentation, or an index-2 sublattice
        same = rng.random() < 0.5
        other = alt if same else sub
        pools["equals"].append(Op(
            "equals",
            lambda a=nice, o=other: lq.lattice_core.equals(a, o),
            lambda r, want=same: r is want,
        ))

        # torus_add: p on the nice basis, q on the re-presentation
        f1, f2 = frac_coords(rng, n), frac_coords(rng, n)
        p, q = TorusPoint(nice, f1), TorusPoint(alt, f2)
        want = tuple((a + c) % 1 for a, c in zip(f1, gen.matvec(u, f2)))
        pools["torus_add"].append(Op(
            "torus_add",
            lambda p=p, q=q: lq.quotient_torus.torus_add(p, q),
            lambda r, L=nice, want=want: r.lattice is L and r.coords == want,
        ))

        # induced map A(L) = L' with L' presented as A B W; apply to a point
        a_rows = gen.scaled(rng.choice(gen.SCALES), gen.rotation(rng, n, 2))
        w, winv = gen.shears(rng, n, 3, 1)
        target = lat(gen.matmul(gen.matmul(a_rows, b), w))
        f = frac_coords(rng, n)
        point = TorusPoint(nice, f)
        want = tuple(v % 1 for v in gen.matvec(winv, f))

        def induced(a=MatQ(a_rows), src=nice, dst=target, point=point):
            fmap = lq.quotient_torus.make_induced_map(a, src, dst)
            return fmap.witness, lq.quotient_torus.apply_induced(fmap, point)

        pools["induced"].append(Op(
            "induced",
            induced,
            lambda r, dst=target, winv=winv, want=want: (
                r[0].rows == winv and r[1].lattice is dst and r[1].coords == want
            ),
        ))

        # sublattice_index: B U diag(2, 1, ..) has index 2 in the lattice
        pools["sublattice_index"].append(Op(
            "sublattice_index",
            lambda s=sub, L=nice: lq.lattice_core.sublattice_index(s, L),
            lambda r: r == 2,
        ))

        # same_left_coset: R B is in the coset of B; B diag(2, 1, ..) is not
        same = rng.random() < 0.5
        if same:
            t2 = gen.matmul(gen.rotation(rng, n, 2), b)
        else:
            t2 = gen.matmul(b, doubled_column(n))
        pools["same_left_coset"].append(Op(
            "same_left_coset",
            lambda t1=MatQ(b), t2=MatQ(t2): lq.moduli_spaces.same_left_coset(t1, t2),
            lambda r, want=same: r is want,
        ))

        # shortest_vectors on the nice basis
        g_nice = gram(b)
        pools["shortest_vectors"].append(Op(
            "shortest_vectors",
            lambda L=nice: lq.flat_geometry.shortest_vectors(L),
            lambda r, g=g_nice, spec=spec: shortest_ok([v.coeffs for v in r], g, spec),
        ))

        # isometric_mod_rotation: nice basis against a rotated, lightly sheared
        # copy (witness), or against an equal-covolume lattice with a smaller
        # minimum (None)
        if spec.kind != "diag" and (i // len(ws)) % 2 == 0:
            other = non_isometric_partner(rng, spec).basis
            want_iso = False
        else:
            w2, _ = gen.shears(rng, n, 3, 1)
            other = gen.matmul(gen.rotation(rng, n, 2), gen.present(spec, w2))
            want_iso = True
        pools["isometric_mod_rotation"].append(Op(
            "isometric_mod_rotation",
            lambda a=nice, o=lat(other): lq.flat_geometry.isometric_mod_rotation(a, o),
            lambda r, g1=g_nice, g2=gram(other), want=want_iso: (
                is_witness(r.rows, g1, g2) if want else r is None
            ),
        ))

    # complex_map_check on C^1 and C^2 (real dimension 2 and 4)
    for i in range(36):
        spec = gen.random_spec(rng, *gen.strata(i, (2, 4)))
        m = spec.n // 2
        u, _ = gen.shears(rng, 2 * m, 3, 1)
        src_rows = gen.present(spec, u)
        while True:
            entries = tuple(tuple((gen.small_rational(rng, 3, 2), gen.small_rational(rng, 3, 2))
                                  for _ in range(m)) for _ in range(m))
            if gen.det(realify(entries)) != 0:
                break
        w, winv = gen.shears(rng, 2 * m, 3, 1)
        dst = lat(gen.matmul(gen.matmul(realify(entries), src_rows), w))
        pools["complex_map_check"].append(Op(
            "complex_map_check",
            lambda cm=lq.complex_lattices.ComplexMatrix(entries), s=lat(src_rows), d=dst: (
                lq.complex_lattices.complex_map_check(cm, s, d)
            ),
            lambda r, winv=winv: r.witness.rows == winv,
        ))
    return interleave(pools, LATTICE_OPS_PATTERN, cycles=108)


# --- sheared_geometry -------------------------------------------------------

# n -> (shear ops, max |k|) for the sheared presentations.  Deep enough that
# the presentation, not n, sets the cost; shallow enough that every draw
# finishes far inside the deadline with today's pairwise size reduction.
# Deeper draws blow up today: that is the sheared_reproducers workload.
SHEAR_DEPTH = {2: (10, 3), 3: (8, 2), 4: (8, 2), 5: (8, 2), 6: (8, 2)}
ISOMETRY_TARGET_SHEAR = (3, 1)
SHEARED_PATTERN = (
    "shortest_vectors", "geodesic_spectrum", "injectivity_radius", "isometric_mod_rotation",
    "shortest_vectors", "geodesic_spectrum", "injectivity_radius", "double_coset_equivalent",
)


def sheared(rng: random.Random, spec: gen.LatticeSpec) -> tuple:
    """A deep-sheared presentation of ``spec``'s lattice."""
    u, _ = gen.shears(rng, spec.n, *SHEAR_DEPTH[spec.n], nonzero=True)
    return gen.present(spec, u)


def sheared_geometry(seed: int, lq, root: Path) -> list[Op]:
    """The lattice families of lattice_ops, n = 2..6, presented by sheared bases."""
    rng = random.Random(seed)
    MatQ = lq.exactnum.MatQ
    lat = lambda rows: lq.lattice_core.from_basis(MatQ(rows))  # noqa: E731
    pools: dict[str, list[Op]] = {k: [] for k in SHEARED_PATTERN}
    for i in range(240):
        spec = gen.random_spec(rng, *gen.strata(i, (2, 3, 4, 5, 6)))
        rows = sheared(rng, spec)
        L, g = lat(rows), gram(rows)
        pools["shortest_vectors"].append(Op(
            "shortest_vectors",
            lambda L=L: lq.flat_geometry.shortest_vectors(L),
            lambda r, g=g, spec=spec: shortest_ok([v.coeffs for v in r], g, spec),
        ))
        bound = 2 * spec.min_norm
        pools["geodesic_spectrum"].append(Op(
            "geodesic_spectrum",
            lambda L=L, bound=bound: lq.flat_geometry.geodesic_spectrum(L, bound),
            lambda r, want=gen.spectrum(spec, bound): list(r) == want,
        ))
        pools["injectivity_radius"].append(Op(
            "injectivity_radius",
            lambda L=L: lq.flat_geometry.injectivity_radius(L),
            lambda r, m=spec.min_norm: r[0] == m / 4 and abs(r[1] ** 2 * 4 - float(m)) <= 1e-9 * float(m),
        ))
    for kind in ("isometric_mod_rotation", "double_coset_equivalent"):
        for i in range(120):
            spec = gen.random_spec(rng, *gen.strata(i, (2, 3, 4)))
            n, rows1 = spec.n, sheared(rng, spec)
            # every other Z or D draw gets a non-isometric partner
            if spec.kind != "diag" and (i // 9) % 2 == 0:
                partner = non_isometric_partner(rng, spec)
                want = False
            else:
                partner = spec
                want = True
            # the search enumerates up to the second Gram diagonal, so only the
            # first side carries the deep shear
            w, _ = gen.shears(rng, n, *ISOMETRY_TARGET_SHEAR)
            rows2 = gen.matmul(gen.rotation(rng, n, 2), gen.present(partner, w))
            mod = lq.flat_geometry if kind == "isometric_mod_rotation" else lq.moduli_spaces
            pools[kind].append(Op(
                kind,
                lambda a=lat(rows1), b=lat(rows2), mod=mod, kind=kind: getattr(mod, kind)(a, b),
                lambda r, g1=gram(rows1), g2=gram(rows2), want=want: (
                    is_witness(r.rows, g1, g2) if want else r is None
                ),
            ))
    return interleave(pools, SHEARED_PATTERN, cycles=120)


def reproducers(lq) -> list[Op]:
    """The two blow-ups quoted in ROADMAP item 1, verbatim (both lattices are Z^n)."""
    MatQ = lq.exactnum.MatQ
    lat = lambda rows: lq.lattice_core.from_basis(MatQ(rows))  # noqa: E731
    z6 = gen.make_spec("Z", 6, Fraction(1), gen.identity(6))
    u6 = gen.shears(random.Random(19), 6, 40, 5)[0]
    u3 = gen.shears(random.Random(7), 3, 16, 3)[0]
    g3 = gram(u3)
    return [
        Op(
            "shortest_vectors",
            lambda L=lat(u6): lq.flat_geometry.shortest_vectors(L),
            lambda r, g=gram(u6): shortest_ok([v.coeffs for v in r], g, z6),
        ),
        Op(
            "isometric_mod_rotation",
            lambda a=lq.lattice_core.standard(3), b=lat(u3): lq.flat_geometry.isometric_mod_rotation(a, b),
            lambda r, g=g3: is_witness(r.rows, gen.identity(3), g),
        ),
    ]


# --- large_n ----------------------------------------------------------------

LARGE_N_SIZES = (6, 8, 14, 20)
LARGE_N_DRAWS = {6: 12, 8: 12, 14: 8, 20: 8}
LARGE_N_KINDS = ("det", "inverse", "hnf", "ldl", "canonical_basis", "contains", "equals", "reduce")


def unit_lower(rng: random.Random, n: int) -> tuple:
    return tuple(
        tuple(Fraction(1) if i == j else (gen.small_rational(rng, 3, 3) if j < i else Fraction(0))
              for j in range(n))
        for i in range(n)
    )


def large_n(seed: int, lq, root: Path) -> list[Op]:
    """Random rational bases at n = 6..20; every op builds its objects afresh."""
    rng = random.Random(seed)
    MatQ, MatZ = lq.exactnum.MatQ, lq.exactnum.MatZ
    lat = lambda rows: lq.lattice_core.from_basis(MatQ(rows))  # noqa: E731
    pools: dict[tuple, list[Op]] = {}
    for n in LARGE_N_SIZES:
        for kind in LARGE_N_KINDS:
            pools[(n, kind)] = []
        for _ in range(LARGE_N_DRAWS[n]):
            low = gen.hermite_lower(rng, n)
            u, _ = gen.shears(rng, n, 2 * n, 2)
            b = gen.matmul(low, u)
            d = math.prod(low[i][i] for i in range(n))
            pools[(n, "det")].append(Op("det", lambda b=b: MatQ(b).det(), lambda r, d=d: r == d))
            pools[(n, "inverse")].append(Op(
                "inverse",
                lambda b=b: MatQ(b).inverse(),
                lambda r, b=b: gen.matmul(b, r.rows) == gen.identity(len(b)),
            ))
            h = tuple(tuple(int(x * 6) for x in row) for row in low)  # integer Hermite form
            m = gen.matmul(h, u)
            pools[(n, "hnf")].append(Op(
                "hnf",
                lambda m=tuple(tuple(int(x) for x in row) for row in m): lq.exactnum.hnf(MatZ(m)),
                lambda r, h=h: r.rows == h,
            ))
            lo = unit_lower(rng, n)
            dg = tuple(gen.pivots(rng, n))
            lo_d = tuple(tuple(x * dg[j] for j, x in enumerate(row)) for row in lo)
            s = gen.matmul(lo_d, gen.transpose(lo))
            pools[(n, "ldl")].append(Op(
                "ldl",
                lambda s=s: lq.exactnum.ldl(MatQ(s)),
                lambda r, lo=lo, dg=dg: r[0].rows == lo and tuple(r[1]) == dg,
            ))
            pools[(n, "canonical_basis")].append(Op(
                "canonical_basis",
                lambda b=b: lat(b).canonical_basis(),
                lambda r, low=low: r.rows == low,
            ))
            member = rng.random() < 0.5
            c = [Fraction(v) for v in int_coords(rng, n)]
            if not member:
                c[rng.randrange(n)] += Fraction(1, 2)
            pools[(n, "contains")].append(Op(
                "contains",
                lambda b=b, x=gen.matvec(b, c): lq.lattice_core.contains(lat(b), x),
                lambda r, want=member: r is want,
            ))
            same = rng.random() < 0.5
            w, _ = gen.shears(rng, n, n, 1)
            if not same:
                w = gen.matmul(w, doubled_column(n))
            other = gen.matmul(b, w)
            pools[(n, "equals")].append(Op(
                "equals",
                lambda b=b, o=other: lq.lattice_core.equals(lat(b), lat(o)),
                lambda r, want=same: r is want,
            ))
            f = frac_coords(rng, n)
            x = gen.matvec(b, [c + g for c, g in zip(int_coords(rng, n), f)])
            pools[(n, "reduce")].append(Op(
                "reduce",
                lambda b=b, x=x: lq.quotient_torus.reduce(lat(b), x),
                lambda r, f=f: r.coords == f,
            ))
    pattern = tuple((n, kind) for kind in LARGE_N_KINDS for n in LARGE_N_SIZES)
    return interleave(pools, pattern, cycles=12)


# --- cli --------------------------------------------------------------------

def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def cli(seed: int, lq, root: Path) -> list[Op]:
    """Every golden CLI case (byte-compared) plus generated inputs written here."""
    golden = root / "tests" / "golden"
    ops = []
    for case in json.loads((golden / "cases.json").read_text(encoding="utf-8")):
        argv = tuple(str(golden / a) if a.startswith("inputs/") else a for a in case["argv"])
        expected = (golden / "expected" / f"{case['name']}.json").read_bytes()
        ops.append(Op(case["argv"][0], None, lambda out, want=expected: out == want, argv))

    rng = random.Random(seed)
    gdir = root / WORKDIR / f"cli-{seed}"
    gdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, doc) -> str:
        path = gdir / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def lattice_doc(rows) -> dict:
        return {"n": len(rows), "basis": [[fmt(x) for x in row] for row in rows]}

    def parsed(check):
        def run(out: bytes) -> bool:
            try:
                return check(json.loads(out))
            except (ValueError, KeyError, TypeError):
                return False
        return run

    for i in range(30):
        spec = gen.random_spec(rng, *gen.strata(i, (2, 3, 4)))
        n = spec.n
        u, uinv = gen.shears(rng, n, 4, 2)
        rows = gen.present(spec, u)
        g = gram(rows)
        lpath = write(f"lat{i}", lattice_doc(rows))
        kind = ("volume", "shortest", "spectrum", "injectivity", "reduce", "gram", "isometric", "orientation")[i % 8]
        if kind == "volume":
            ops.append(Op(kind, None, parsed(lambda d, v=spec.covolume: d == {"covolume": fmt(v)}),
                          ("volume", "--lattice", lpath)))
        elif kind == "shortest":
            ops.append(Op(kind, None, parsed(lambda d, g=g, spec=spec: (
                d["squared_length"] == fmt(spec.min_norm) and shortest_ok(d["vectors"], g, spec)
            )), ("shortest", "--lattice", lpath)))
        elif kind == "spectrum":
            bound = 2 * spec.min_norm
            want = [[fmt(q), k] for q, k in gen.spectrum(spec, bound)]
            ops.append(Op(kind, None, parsed(lambda d, want=want: d == {"spectrum": want}),
                          ("spectrum", "--lattice", lpath, "--bound", fmt(bound))))
        elif kind == "injectivity":
            ops.append(Op(kind, None, parsed(lambda d, m=spec.min_norm: d["radius_squared"] == fmt(m / 4)),
                          ("injectivity", "--lattice", lpath)))
        elif kind == "reduce":
            f = frac_coords(rng, n)
            x = gen.matvec(rows, [c + h for c, h in zip(int_coords(rng, n), f)])
            vpath = write(f"vec{i}", [fmt(v) for v in x])
            want = {"lattice": lattice_doc(rows), "coords": [fmt(v) for v in f]}
            ops.append(Op(kind, None, parsed(lambda d, want=want: d == want),
                          ("reduce", "--lattice", lpath, "--vector", vpath)))
        elif kind == "gram":
            want = {"gram": [[fmt(x) for x in row] for row in g]}
            ops.append(Op(kind, None, parsed(lambda d, want=want: d == want), ("gram", "--lattice", lpath)))
        elif kind == "isometric":
            w, _ = gen.shears(rng, n, 3, 1)
            rows2 = gen.matmul(gen.rotation(rng, n, 2), gen.present(spec, w))
            l2 = write(f"iso{i}", lattice_doc(rows2))
            ops.append(Op(kind, None, parsed(lambda d, g1=g, g2=gram(rows2): (
                d["isometric"] is True and is_witness(d["witness"], g1, g2)
            )), ("isometric", "--lattice", lpath, "--lattice", l2)))
        else:
            mpath = write(f"mat{i}", [[fmt(x) for x in row] for row in rows])
            sign = 1 if gen.det(rows) > 0 else -1
            ops.append(Op(kind, None, parsed(lambda d, s=sign: d == {"orientation": s}),
                          ("orientation", "--matrix", mpath)))
    # alternate golden and generated cases so every prefix has the same mix
    golden_ops, generated = ops[:-30], ops[-30:]
    return [op for pair in zip(golden_ops, generated) for op in pair]


BUILDERS = {
    "lattice_ops": lattice_ops,
    "sheared_geometry": sheared_geometry,
    "large_n": large_n,
    "cli": cli,
}
