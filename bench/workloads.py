"""The four benchmark workloads.

Every workload turns a seed into inputs (``generate``, part of set-up),
builds the objects one op needs outside the timed region (``prepare``,
which is where each op gets its freshly built ``NumberField``), runs the
op (``run``, the only timed call), keeps a compact record of the output
(``record``) and checks that record exactly, outside the timed region
(``check``, which also returns the op's digit-block count).

The library is always reached through module attributes, so the tracer's
wrappers see every call.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import oracles
from jperron import bratteli, cf, cli, errors, lattices, representation
from jperron.scalars import AlgebraicScalar, NumberField, RationalScalar, ScalarVector

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# fixed seed of the recorded catalogs (represent_audit jobs, CLI inputs);
# the run seed only chooses their order
CATALOG_SEED = 20010111


def _load_golden():
    if GOLDEN_PATH.is_file():
        return json.loads(GOLDEN_PATH.read_text())
    return {}


GOLDEN = _load_golden()


def _coeffs(x):
    if isinstance(x, AlgebraicScalar):
        return tuple(x.coeffs)
    return (x.value,)


def _scalar(coeffs, field):
    if field is None or len(coeffs) == 1:
        return RationalScalar(coeffs[0])
    return AlgebraicScalar(field, coeffs)


def _vector_fields(vec):
    return [e.field for e in vec if isinstance(e, AlgebraicScalar)]


def coeff_bits(vectors):
    """Largest numerator or denominator bit length among the coordinates."""
    best = 0
    for vec in vectors:
        for x in vec:
            for c in _coeffs(x):
                best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def enclosure_bits(fields):
    """Largest denominator bit length among the root enclosures."""
    best = 0
    for f in fields:
        for end in f.enclosure():
            best = max(best, Fraction(end).denominator.bit_length())
    return best


def _rank(rows):
    work = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(work[0])):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c] / work[rank][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


class Workload:
    name = ""
    warmup_ops = 1
    # ops in one traced pass, taken in the seed's order
    trace_ops = 1

    def order(self, inputs, seed):
        return list(range(len(inputs)))

    def prepare(self, spec):
        return spec

    def run_in_process(self, prepared):
        return self.run(prepared)

    def fields(self, prepared, output):
        return []

    def bits(self, prepared, output):
        return 0, 0


# ---------------------------------------------------------------- rational


class RationalBatch(Workload):
    """Rational vectors of ranks 2-6 expanded to termination.

    Ranks cycle 2..6 and the bit length of numerators and denominators
    follows 20, 64, 20, 200, 20, 64 (so 3:2:1), one rank cycle each.
    """

    name = "rational_batch"
    warmup_ops = 30
    trace_ops = 60
    RANKS = (2, 3, 4, 5, 6)
    BITS = (20, 64, 20, 200, 20, 64)
    POOL = 600
    MAX_DEPTH = 1 << 16

    def generate(self, seed):
        rng = random.Random("%s:%d" % (self.name, seed))
        specs = []
        for i in range(self.POOL):
            rank = self.RANKS[i % len(self.RANKS)]
            bits = self.BITS[(i // len(self.RANKS)) % len(self.BITS)]
            lo = 1 << (bits - 1)
            specs.append(
                tuple(
                    Fraction(rng.randrange(lo, 2 * lo), rng.randrange(lo, 2 * lo))
                    for _ in range(rank - 1)
                )
            )
        return specs

    def prepare(self, spec):
        return ScalarVector([RationalScalar(1)] + [RationalScalar(x) for x in spec])

    def run(self, theta):
        exp = cf.jpa_expand(theta, self.MAX_DEPTH)
        return exp, cf.prefix_product(exp, exp.depth)

    def record(self, spec, prepared, output):
        exp, p = output
        residual = tuple(r.value for r in exp.residual) if exp.residual else None
        return exp.tail.kind, exp.blocks, residual, p

    def check(self, spec, rec):
        kind, blocks, residual, p = rec
        scale = lcm(*(x.denominator for x in spec))
        vec = [scale] + [x.numerator * (scale // x.denominator) for x in spec]
        digits, terminal = oracles.integer_jpa(vec)
        ok = (
            kind == cf.TERMINATED
            and list(blocks) == digits
            and oracles.mat_vec(p, terminal) == vec
            and residual == tuple(Fraction(t, terminal[-1]) for t in terminal)
            and gcd(*terminal) == cf.euclid_gcd(vec)
        )
        return ok, len(blocks)

    def bits(self, prepared, output):
        return 0, coeff_bits(output[0].states)


# --------------------------------------------------------------- algebraic

QUARTIC = ((-2, 0, 0, 0, 1), (1, 2))  # g^4 = 2
QUINTIC = ((-1, -1, 0, 0, 0, 1), (1, 2))  # g^5 = g + 1
CBRT7 = ((-7, 0, 0, 1), (1, 2))  # g^3 = 7
TRIBONACCI = ((-1, -1, -1, 1), (Fraction(3, 2), 2))  # t^3 = t^2 + t + 1


def _unit(i):
    return tuple(Fraction(int(j == i)) for j in range(i + 1))


class AlgebraicDeep(Workload):
    """One deep expansion per op on a freshly built number field.

    The cycle below fixes the mix: (1, g, g^2, g^3) with g^4 = 2, the
    quintic x^5 - x - 1, random positive elements of Q(cbrt 7) and the
    periodic tribonacci vector.  Two of the eight ops scale their
    entries by 10^2 and 10^3, which makes the first floors wide.  Random
    vectors are redrawn until (1, a, b) is rationally independent, so
    every op expands to its full depth.
    """

    name = "algebraic_deep"
    warmup_ops = 2
    trace_ops = 8
    # the scaled ops use fixed vectors, so the slowest ops (which set the
    # tail) do not depend on the seed
    CYCLE = (
        ("quartic", 48, False),
        ("cbrt7", 96, False),
        ("quintic", 40, False),
        ("tribonacci", 160, False),
        ("cbrt7", 96, False),
        ("quartic", 48, True),
        ("cbrt7", 96, False),
        ("tribonacci", 160, True),
    )
    CYCLES = 16

    def __init__(self):
        self.oracle = oracles.AlgebraicDigits()

    def generate(self, seed):
        rng = random.Random("%s:%d" % (self.name, seed))

        def positive_cubic():
            return tuple(
                Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(3)
            )

        def independent_cubics():
            # a rationally dependent (1, a, b) terminates after a few steps
            while True:
                entries = [_unit(0), positive_cubic(), positive_cubic()]
                if _rank([e + (0,) * (3 - len(e)) for e in entries]) == 3:
                    return entries

        specs = []
        for _ in range(self.CYCLES):
            for kind, depth, scaled in self.CYCLE:
                if kind == "quartic":
                    (modulus, root), entries = QUARTIC, [_unit(i) for i in range(4)]
                elif kind == "quintic":
                    (modulus, root), entries = QUINTIC, [_unit(i) for i in range(5)]
                elif kind == "cbrt7":
                    modulus, root = CBRT7
                    entries = independent_cubics()
                else:
                    modulus, root = TRIBONACCI
                    entries = [_unit(0), (0, -1, 1), (0, 1)]
                entries = [tuple(Fraction(c) for c in e) for e in entries]
                if scaled:
                    entries = [entries[0]] + [
                        tuple(c * (100 if i % 2 else 1000) for c in e)
                        for i, e in enumerate(entries[1:], 1)
                    ]
                specs.append(
                    {
                        "kind": kind,
                        "depth": depth,
                        "modulus": modulus,
                        "root": root,
                        "entries": entries,
                    }
                )
        return specs

    def prepare(self, spec):
        field = NumberField(spec["modulus"], *spec["root"])
        return ScalarVector([_scalar(c, field) for c in spec["entries"]]), spec["depth"]

    def run(self, prepared):
        theta, depth = prepared
        return cf.jpa_expand(theta, depth)

    def record(self, spec, prepared, exp):
        return (
            exp.tail.kind,
            exp.blocks,
            tuple(_coeffs(x) for x in exp.theta),
            tuple(_coeffs(x) for x in exp.states[-1]),
        )

    def check(self, spec, rec):
        kind, blocks, theta, last = rec
        modulus = spec["modulus"]
        expected = tuple(oracles.reduce_mod(c, modulus) for c in spec["entries"])
        digits = self.oracle.digits(modulus, spec["root"], spec["entries"], spec["depth"])
        ok = (
            kind == cf.TRUNCATED
            and list(blocks) == digits
            and tuple(oracles.reduce_mod(c, modulus) for c in theta) == expected
            and oracles.reconstructs(spec["entries"], blocks, last, modulus)
        )
        return ok, len(blocks)

    def fields(self, prepared, exp):
        return _vector_fields(prepared[0]) + _vector_fields(exp.states[-1])

    def bits(self, prepared, exp):
        return enclosure_bits(set(self.fields(prepared, exp))), coeff_bits(exp.states)


# ---------------------------------------------------------- representation

PURE_CUBICS = ((2, 1), (3, 1), (9, 2), (10, 2), (28, 3), (30, 3), (65, 4), (68, 4))

# the group-action job printed in README.md: the rational base stream
# terminates while generator b is periodic, so it has no common tail
README_JOB = {
    "rank": 3,
    "theta": [["rat", [1, 1]], ["rat", [7, 5]], ["rat", [11, 5]]],
    "generators": [
        {"name": "a", "matrix": [[0, 0, 1], [1, 0, 1], [0, 1, 2]]},
        {
            "name": "b",
            "expansion": {
                "rank": 3,
                "blocks": [[1, 1]],
                "tail": {"kind": "periodic", "preperiod": 0, "period": [[1, 1]]},
            },
        },
    ],
    "relations": [[["a", 1], ["a", -1]]],
}

COMMUTATOR = (("g0", 1), ("g1", 1), ("g0", -1), ("g1", -1))


def _admissible_block(rng, rank):
    body = [rng.randint(0, 2) for _ in range(rank - 2)]
    return tuple(body + [max(body, default=0) + rng.randint(1, 2)])


class RepresentAudit(Workload):
    """Group-action jobs from a fixed catalog, in an order set by the seed.

    Each job builds a representation, verifies one relation word, checks
    tail equivalence of every generator stream against the base stream
    and acts on a field-frame pseudo-lattice.  Base vectors are JPA states
    of deep rationals, of the tribonacci and pure-cubic vectors and of
    quartic vectors; the README job is an expected ``NoCommonTail``.
    """

    name = "represent_audit"
    warmup_ops = 4
    trace_ops = 16
    KINDS = ("rational", "tribonacci", "pure_cubic", "quartic")
    JOBS_PER_KIND = 10
    DEPTH_BUDGET = 8

    def generate(self, seed):
        rng = random.Random(CATALOG_SEED)
        jobs = [
            self._job(rng, self.KINDS[i % len(self.KINDS)], i)
            for i in range(len(self.KINDS) * self.JOBS_PER_KIND)
        ]
        jobs.append({"id": len(jobs), "kind": "readme"})
        return jobs

    def _job(self, rng, kind, ident):
        if kind == "rational":
            rank = rng.choice((3, 4))
            field_spec = None
            frame_spec = CBRT7 if rank == 3 else QUARTIC
            entries = [(Fraction(1),)] + [
                (Fraction(rng.getrandbits(64) | 1 << 63, rng.getrandbits(64) | 1 << 63),)
                for _ in range(rank - 1)
            ]
        else:
            if kind == "tribonacci":
                field_spec = TRIBONACCI
                entries = [(1,), (0, -1, 1), (0, 1)]
            elif kind == "pure_cubic":
                m, r = rng.choice(PURE_CUBICS)
                field_spec = ((-m, 0, 0, 1), (r, r + 1))
                entries = [(1,), (0, 1), (0, 0, 1)]
            else:
                field_spec = QUARTIC
                entries = [(1,)] + [
                    tuple(Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(4))
                    for _ in range(3)
                ]
            frame_spec = field_spec
        field = NumberField(field_spec[0], *field_spec[1]) if field_spec else None
        theta = ScalarVector([_scalar(tuple(map(Fraction, c)), field) for c in entries])
        start = rng.randint(2, 3)
        base = [_coeffs(x) for x in cf.jpa_expand(theta, start + 1).states[start]]
        rank = len(base)
        gens = []
        for g in range(rng.randint(2, 3)):
            m = oracles.prefix_product(
                [_admissible_block(rng, rank) for _ in range(rng.randint(1, 3))], rank
            )
            gens.append(("g%d" % g, m))
        dim = len(frame_spec[0]) - 1
        # the lattice spans the base coordinates, or random integer vectors
        # when the base is rational (or its coordinates are dependent)
        vectors = None
        if field_spec is not None:
            vectors = [tuple(c) + (Fraction(0),) * (dim - len(c)) for c in base]
        while vectors is None or _rank(vectors) < rank:
            vectors = [
                tuple(Fraction(rng.randint(1, 9)) for _ in range(dim)) for _ in range(rank)
            ]
        return {
            "id": ident,
            "kind": kind,
            "field": field_spec,
            "base": base,
            "generators": gens,
            "frame": frame_spec,
            "vectors": vectors,
        }

    def order(self, inputs, seed):
        """Round robin over the job kinds, each kind shuffled by the seed,
        so that every prefix of the order keeps the mix; the README job
        closes each pass."""
        rng = random.Random("%s:%d" % (self.name, seed))
        by_kind = []
        for kind in self.KINDS:
            ids = [s["id"] for s in inputs if s["kind"] == kind]
            rng.shuffle(ids)
            by_kind.append(ids)
        order = [i for group in zip(*by_kind) for i in group]
        return order + [s["id"] for s in inputs if s["kind"] == "readme"]

    def prepare(self, spec):
        if spec["kind"] == "readme":
            theta, actions, _ = representation.job_from_json(README_JOB)
            return {"theta": theta, "actions": actions, "frame": None}
        field = NumberField(spec["field"][0], *spec["field"][1]) if spec["field"] else None
        modulus, root = spec["frame"]
        dim = len(modulus) - 1
        return {
            "theta": ScalarVector([_scalar(c, field) for c in spec["base"]]),
            "actions": [
                representation.GeneratorAction(name, matrix=m)
                for name, m in spec["generators"]
            ],
            "frame": lattices.CoordinateFrame(
                ["e%d" % i for i in range(dim)], modulus, root
            ),
            "vectors": spec["vectors"],
        }

    def run(self, p):
        try:
            rep = representation.build_representation(
                p["theta"], p["actions"], depth_budget=self.DEPTH_BUDGET
            )
        except errors.NoCommonTail:
            return None
        report = representation.verify(rep, [COMMUTATOR])
        names = list(rep.matrices)
        tails = [
            bratteli.tail_equivalent(
                rep.expansions[n], rep.base_expansion, depth_budget=self.DEPTH_BUDGET
            )
            for n in names
        ]
        pl = lattices.PseudoLattice(p["frame"], p["vectors"])
        isos = [lattices.pl_isomorphic(lattices.act(rep.matrices[n], pl), pl) for n in names]
        return rep, report, tails, isos

    def record(self, spec, prepared, out):
        if out is None:
            return "no_common_tail", 0
        rep, report, tails, isos = out

        def stream(e):
            return [e.blocks, e.tail.kind, e.tail.preperiod, e.tail.period]

        def verdicts(r):
            return [
                [[e.kind, e.ok, e.generator] for e in r.entries],
                r.stationary,
                r.faithfulness,
            ]

        summary = {
            "matrices": rep.matrices,
            "offsets": rep.offsets,
            "theta_offset": rep.theta_offset,
            "certification": rep.certification,
            "base": stream(rep.base_expansion),
            "streams": {n: stream(e) for n, e in rep.expansions.items()},
            "build": verdicts(rep.report),
            "verify": verdicts(report),
            "tails": [[t.verdict, t.offsets, t.certified] for t in tails],
            "isomorphic": [[i.isomorphic, i.witness] for i in isos],
        }
        blocks = len(rep.base_expansion.blocks) + sum(
            len(e.blocks) for e in rep.expansions.values()
        )
        return oracles.digest(summary), blocks

    def check(self, spec, rec):
        digest, blocks = rec
        expected = GOLDEN.get(self.name, {}).get("jobs", {}).get(str(spec["id"]))
        return digest == expected, blocks

    def fields(self, p, out):
        found = _vector_fields(p["theta"])
        if p["frame"] is not None:
            found.append(p["frame"].field)
        if out is not None:
            rep = out[0]
            if rep.theta_max is not None:
                found += _vector_fields(rep.theta_max)
            for image in rep.images.values():
                if image is not None:
                    found += _vector_fields(image)
        return found

    def bits(self, p, out):
        vectors = [p["theta"]]
        if out is not None:
            rep = out[0]
            vectors += list(rep.base_expansion.states or ())
            vectors += [e for e in rep.images.values() if e is not None]
        return enclosure_bits(set(self.fields(p, out))), coeff_bits(vectors)


# --------------------------------------------------------------------- cli


def child_env():
    """Environment for child interpreters: the checkout's ``src`` on the
    path, and bytecode cached (in the checkout) as for an installed
    package, whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _pair(x):
    x = Fraction(x)
    return [x.numerator, x.denominator]


def _alg_json(field_spec, coeffs=None):
    (modulus, (lo, hi)) = field_spec
    body = {"poly": list(modulus), "lo": _pair(lo), "hi": _pair(hi)}
    if coeffs is not None:
        body["coeffs"] = [_pair(c) for c in coeffs]
    return {"alg": body}


def _strip_enclosures(obj):
    """Copy of decoded JSON with the root enclosures of "alg" scalars removed."""
    if isinstance(obj, dict):
        return {
            k: _strip_enclosures(v)
            for k, v in obj.items()
            if not ("poly" in obj and k in ("lo", "hi"))
        }
    if isinstance(obj, list):
        return [_strip_enclosures(x) for x in obj]
    return obj


def _enclosures(obj):
    if isinstance(obj, dict):
        if "poly" in obj and "lo" in obj and "hi" in obj:
            yield obj["poly"], Fraction(*obj["lo"]), Fraction(*obj["hi"])
        for v in obj.values():
            yield from _enclosures(v)
    elif isinstance(obj, list):
        for x in obj:
            yield from _enclosures(x)


def _sign_at(poly, x):
    v = sum(c * x**i for i, c in enumerate(poly))
    return (v > 0) - (v < 0)


def stdout_digests(out):
    """(sha256 of the bytes, sha256 with root enclosures removed)."""
    exact = hashlib.sha256(out).hexdigest()
    try:
        decoded = json.loads(out)
    except ValueError:
        return exact, exact
    return exact, oracles.digest(_strip_enclosures(decoded))


def _stdout_blocks(out):
    try:
        decoded = json.loads(out)
    except ValueError:
        return 0
    items = decoded if isinstance(decoded, list) else [decoded]
    return sum(
        len(e["blocks"]) for e in items if isinstance(e, dict) and "tail" in e and "blocks" in e
    )


class CliRoundtrip(Workload):
    """``python -m jperron.cli`` subprocesses, one at a time, small inputs.

    Output is checked against stdout digests and exit codes recorded in
    ``golden.json``.  Stdout that differs from the recorded bytes only in
    the root enclosures of algebraic scalars passes when each enclosure
    still brackets a sign change of its polynomial; such ops are counted
    in ``enclosure_only_diffs``.
    """

    name = "cli_roundtrip"
    warmup_ops = 2
    trace_ops = 12

    def __init__(self):
        self.enclosure_only_diffs = 0

    def generate(self, seed):
        rng = random.Random(CATALOG_SEED)
        WORK.mkdir(exist_ok=True)
        trib = [{"rat": [1, 1]}, _alg_json(TRIBONACCI, (0, -1, 1)), _alg_json(TRIBONACCI)]
        cubic_field = ((-10, 0, 0, 1), (2, 3))
        cubic = [{"rat": [1, 1]}, _alg_json(cubic_field), _alg_json(cubic_field, (0, 0, 1))]
        deep = [{"rat": [1, 1]}] + [
            {"rat": [rng.getrandbits(64) | 1 << 63, rng.getrandbits(64) | 1 << 63]}
            for _ in range(3)
        ]
        batch = [
            [["rat", [1, 1]]]
            + [
                ["rat", [rng.randrange(1, 1 << 20), rng.randrange(1, 1 << 20)]]
                for _ in range(rank - 1)
            ]
            for rank in (2, 3, 4, 2, 3, 4)
        ]

        def periodic(blocks, preperiod, period):
            tail = {"kind": "periodic", "preperiod": preperiod, "period": period}
            return {"rank": 3, "blocks": blocks, "tail": tail}

        a = periodic([[1, 1]] * 2, 0, [[1, 1]])
        b = periodic([[3, 4], [1, 1], [1, 1]], 1, [[1, 1]])
        truncated = {
            "rank": 3,
            "blocks": [[1, 2], [0, 2], [1, 2], [2, 3], [0, 1], [1, 3]],
            "tail": {"kind": "truncated"},
        }
        job = {
            "rank": 3,
            "theta": trib,
            "generators": [
                {"name": "g0", "matrix": oracles.prefix_product([(1, 2)], 3)},
                {"name": "g1", "matrix": oracles.prefix_product([(0, 1), (2, 3)], 3)},
            ],
            "relations": [[list(x) for x in COMMUTATOR]],
        }
        files = {
            "batch.json": batch,
            "truncated.json": truncated,
            "a.json": a,
            "b.json": b,
            "job.json": job,
            "readme_job.json": README_JOB,
        }
        for name, obj in files.items():
            (WORK / name).write_text(json.dumps(obj, sort_keys=True))
        f = {name: str(WORK / name) for name in files}
        batch_file = f["batch.json"]
        catalog = [
            ("expand_rational",
             ["expand", "--theta", json.dumps(README_JOB["theta"]), "--depth", "10"]),
            ("expand_rational_deep", ["expand", "--theta", json.dumps(deep), "--depth", "400"]),
            ("expand_tribonacci", ["expand", "--theta", json.dumps(trib), "--depth", "12"]),
            ("expand_pure_cubic", ["expand", "--theta", json.dumps(cubic), "--depth", "12"]),
            ("expand_batch_jobs1",
             ["expand", "--input", batch_file, "--depth", "64", "--jobs", "1"]),
            ("expand_batch_jobs2",
             ["expand", "--input", batch_file, "--depth", "64", "--jobs", "2"]),
            ("represent", ["represent", "--input", f["job.json"]]),
            ("bratteli_dot", ["bratteli", "--input", f["truncated.json"], "--format", "dot"]),
            ("bratteli_compare", ["bratteli", "--compare", f["a.json"], f["b.json"]]),
            ("genus", ["genus", "2"]),
            ("malformed_json", ["expand", "--theta", "[[nope", "--depth", "3"]),
            ("readme_job", ["represent", "--input", f["readme_job.json"]]),
        ]
        return [{"name": name, "argv": argv} for name, argv in catalog]

    def order(self, inputs, seed):
        idx = list(range(len(inputs)))
        random.Random("%s:%d" % (self.name, seed)).shuffle(idx)
        return idx

    def run(self, spec):
        proc = subprocess.run(
            [sys.executable, "-m", "jperron.cli", *spec["argv"]],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def run_in_process(self, spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(spec["argv"]))
        return code, out.getvalue().encode()

    def record(self, spec, prepared, out):
        return out

    def check(self, spec, rec):
        code, out = rec
        gold = GOLDEN.get(self.name, {}).get(spec["name"])
        if gold is None or code != gold["exit"]:
            return False, 0
        exact, stripped = stdout_digests(out)
        if exact == gold["sha256"]:
            return True, _stdout_blocks(out)
        ok = stripped == gold["stripped_sha256"] and all(
            lo < hi and _sign_at(poly, lo) * _sign_at(poly, hi) < 0
            for poly, lo, hi in _enclosures(json.loads(out))
        )
        self.enclosure_only_diffs += ok
        return ok, _stdout_blocks(out) if ok else 0


WORKLOADS = {
    w.name: w for w in (RationalBatch, AlgebraicDeep, RepresentAudit, CliRoundtrip)
}


def record_golden():
    """Digests of the represent_audit catalog and of the CLI invocations,
    as produced by the library in this checkout."""
    rep = RepresentAudit()
    jobs = rep.generate(0)
    golden = {rep.name: {"catalog": oracles.digest(jobs), "jobs": {}}}
    for spec in jobs:
        prepared = rep.prepare(spec)
        golden[rep.name]["jobs"][str(spec["id"])] = rep.record(spec, prepared, rep.run(prepared))[0]
    clis = CliRoundtrip()
    golden[clis.name] = {}
    for spec in clis.generate(0):
        code, out = clis.run(spec)
        exact, stripped = stdout_digests(out)
        golden[clis.name][spec["name"]] = {
            "exit": code,
            "sha256": exact,
            "stripped_sha256": stripped,
            "stdout_bytes": len(out),
        }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return golden
