"""Seeded inputs and operation lists for the benchmark's workloads.

Every workload is a function of the seed alone: it returns the text of each
instance's schema, facts and query files, and the list of shapfact command
lines to run on them.  The program only ever sees the written files.

Instance sizes are fixed per workload (only the names, the graph shape and
the probabilities vary with the seed), so that runs with different seeds do
comparable amounts of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

Q1 = "q() :- Stud(x), not TA(x), Reg(x, y)."
Q2 = "q() :- Stud(x), not TA(x), Reg(x, y), not Course(y, CS)."
Q_HARD = "q() :- R(x), S(x, y), not T(y)."

UNIVERSITY_SCHEMA = ("relation Stud/1 exogenous\n"
                     "relation TA/1\n"
                     "relation Reg/2\n")
COURSE_SCHEMA = UNIVERSITY_SCHEMA + "relation Course/2 exogenous\n"
# prob rewrites away every relation the schema marks exogenous; leaving Stud
# unmarked (its facts are still certain) keeps the rewrite idle outside
# exo_rewrite
PROB_SCHEMA = "relation Stud/1\nrelation TA/1\nrelation Reg/2\n"
GRAPH_SCHEMA = "relation R/1\nrelation S/2\nrelation T/1\n"

# the running example of the README, verbatim
README_FACTS = ("exo  Stud(Adam)\n"
                "exo  Stud(Ben)\n"
                "endo TA(Adam)\n"
                "endo Reg(Adam, OS)\n"
                "endo Reg(Ben, OS)\n")

DYADIC = ("1/2", "1/4", "3/4", "1/8", "3/8", "5/8", "7/8")
DEPARTMENTS = ("CS", "EE", "MA")

# sampled ops use the CLI defaults apart from an explicit seed
APPROX_SEED = 7


@dataclass(frozen=True)
class Op:
    """One shapfact command line.

    ``kind`` groups ops for the latency metrics; ``instance`` names the
    directory whose files the op reads (``None`` for gen-gap, which writes).
    ``expect`` is the method (or, for classify, the verdict) the report must
    name; ``warm`` ops also run during set-up, to fill lazy state.
    """

    kind: str
    argv: tuple[str, ...]
    instance: str | None
    expect: str | None = None
    warm: bool = False


@dataclass
class Workload:
    name: str
    files: dict[str, str] = field(default_factory=dict)  # rel. path -> text
    ops: list[Op] = field(default_factory=list)
    # gen-gap runs at set-up time: directory -> n
    gap_instances: dict[str, int] = field(default_factory=dict)
    cold: bool = False

    def add_instance(self, name: str, schema: str, facts: str,
                     query: str) -> None:
        self.files[f"{name}/schema.txt"] = schema
        self.files[f"{name}/facts.txt"] = facts
        self.files[f"{name}/query.txt"] = query + "\n"

    def write(self, root: Path) -> None:
        for rel, text in self.files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)


def io_args(workdir: str, instance: str, facts: bool = True
            ) -> tuple[str, ...]:
    base = f"{workdir}/{instance}"
    args = ("--schema", f"{base}/schema.txt", "--query", f"{base}/query.txt")
    if facts:
        args += ("--facts", f"{base}/facts.txt")
    return args


def _names(rng: random.Random, prefix: str, count: int) -> list[str]:
    """``count`` distinct seeded constants such as ``S3fa2c1``."""
    seen: set[str] = set()
    while len(seen) < count:
        seen.add(f"{prefix}{rng.getrandbits(24):06x}")
    return sorted(seen)


def _lines(rng: random.Random, lines: list[str]) -> str:
    rng.shuffle(lines)
    return "".join(line + "\n" for line in lines)


def university(rng: random.Random, students: int, courses: list[str],
               probabilistic: bool = False) -> tuple[str, list[str]]:
    """Stud/TA/Reg facts: 30% of the students are TAs and each student has
    1-3 registrations, 2 on average (the total is fixed at 2 * students).

    Returns the fact file text and the endogenous facts as ``--fact``
    references.  With ``probabilistic`` the endogenous facts carry dyadic
    probabilities instead of the ``endo`` marker.
    """
    studs = _names(rng, "S", students)
    tas = sorted(rng.sample(studs, round(0.3 * students)))
    extra_slots = rng.sample([s for s in studs for _ in range(2)], students)
    regs = []
    for s in studs:
        for c in sorted(rng.sample(courses, 1 + extra_slots.count(s))):
            regs.append(f"Reg({s}, {c})")
    endo = [f"TA({s})" for s in tas] + regs

    def mark() -> str:
        return f"prob {rng.choice(DYADIC)}" if probabilistic else "endo"

    lines = [f"exo Stud({s})" for s in studs]
    lines += [f"{mark()} {f}" for f in endo]
    return _lines(rng, lines), endo


def course_catalogue(rng: random.Random, courses: list[str]) -> str:
    """One exogenous Course(c, dept) line per course, with the departments
    spread evenly over DEPARTMENTS."""
    depts = [DEPARTMENTS[i % len(DEPARTMENTS)] for i in range(len(courses))]
    rng.shuffle(depts)
    return "".join(f"exo Course({c}, {d})\n" for c, d in zip(courses, depts))


def bipartite(rng: random.Random, left: int, right: int, edges: int
              ) -> tuple[str, list[str]]:
    """R(x), T(y) and S(x, y) facts over a seeded bipartite graph.

    Every node has an edge; half of the edges (rounded down) are
    exogenous, everything else is endogenous."""
    xs = _names(rng, "X", left)
    ys = _names(rng, "Y", right)
    pairs = {(x, rng.choice(ys)) for x in xs}
    pairs |= {(rng.choice(xs), y) for y in ys}
    universe = [(x, y) for x in xs for y in ys if (x, y) not in pairs]
    pairs |= set(rng.sample(universe, edges - len(pairs)))
    ordered = sorted(pairs)
    exo = set(rng.sample(ordered, edges // 2))
    lines = [f"endo R({x})" for x in xs] + [f"endo T({y})" for y in ys]
    lines += [f"{'exo' if p in exo else 'endo'} S({p[0]}, {p[1]})"
              for p in ordered]
    endo = ([f"R({x})" for x in xs] + [f"T({y})" for y in ys]
            + [f"S({x}, {y})" for x, y in ordered if (x, y) not in exo])
    return _lines(rng, lines), endo


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------


def hier_exact(seed: int, workdir: str) -> Workload:
    """Q1 over university databases: the exact counting recursion."""
    rng = random.Random(f"hier_exact/{seed}")
    w = Workload("hier_exact")
    facts, endo = university(rng, 24, _names(rng, "C", 12))
    w.add_instance("main", UNIVERSITY_SCHEMA, facts, Q1)
    small, _ = university(rng, 5, _names(rng, "C", 4))
    w.add_instance("small", UNIVERSITY_SCHEMA, small, Q1)
    pfacts, _ = university(rng, 100, _names(rng, "C", 30), probabilistic=True)
    w.add_instance("prob", PROB_SCHEMA, pfacts, Q1)
    psmall, _ = university(rng, 4, _names(rng, "C", 4), probabilistic=True)
    w.add_instance("prob_small", PROB_SCHEMA, psmall, Q1)

    w.ops.append(Op("shapley_all", ("shapley", *io_args(workdir, "main"),
                                    "--all"), "main", "exact"))
    for i, ref in enumerate(rng.sample(endo, 8)):
        w.ops.append(Op("shapley_fact", ("shapley", *io_args(workdir, "main"),
                                         "--fact", ref),
                        "main", "exact", warm=i == 0))
    for _ in range(4):
        w.ops.append(Op("prob", ("prob", *io_args(workdir, "prob")), "prob",
                        "lifted"))
    w.ops.append(Op("shapley_all", ("shapley", *io_args(workdir, "small"),
                                    "--all"), "small", "exact", warm=True))
    w.ops.append(Op("prob", ("prob", *io_args(workdir, "prob_small")),
                    "prob_small", "lifted", warm=True))
    return w


def exo_rewrite(seed: int, workdir: str) -> Workload:
    """Q2 (Stud and Course exogenous): rewrite, then exact counting."""
    rng = random.Random(f"exo_rewrite/{seed}")
    w = Workload("exo_rewrite")
    for name, students, courses, prob in (("main", 8, 8, False),
                                          ("small", 4, 4, False),
                                          ("prob", 14, 10, True),
                                          ("prob_small", 4, 4, True)):
        pool = _names(rng, "C", courses)
        facts, _ = university(rng, students, pool, probabilistic=prob)
        w.add_instance(name, COURSE_SCHEMA,
                       facts + course_catalogue(rng, pool), Q2)
    w.ops.append(Op("shapley_all", ("shapley", *io_args(workdir, "main"),
                                    "--all"), "main", "exo"))
    for _ in range(4):
        w.ops.append(Op("prob", ("prob", *io_args(workdir, "prob")), "prob",
                        "lifted"))
    w.ops.append(Op("shapley_all", ("shapley", *io_args(workdir, "small"),
                                    "--all"), "small", "exo", warm=True))
    w.ops.append(Op("prob", ("prob", *io_args(workdir, "prob_small")),
                    "prob_small", "lifted", warm=True))
    return w


def hard_sampled(seed: int, workdir: str) -> Workload:
    """A non-hierarchical query and the self-join gap family: brute force,
    sampling and relevance."""
    rng = random.Random(f"hard_sampled/{seed}")
    w = Workload("hard_sampled")
    big, big_endo = bipartite(rng, left=12, right=12, edges=64)
    w.add_instance("big", GRAPH_SCHEMA, big, Q_HARD)
    small, small_endo = bipartite(rng, left=4, right=4, edges=12)
    w.add_instance("small", GRAPH_SCHEMA, small, Q_HARD)
    w.gap_instances = {"gap_small": 5, "gap_big": 12}

    approx = ("--method", "approx", "--seed", str(APPROX_SEED))
    for inst, method in (("big", "approx"), ("small", "brute"),
                         ("gap_small", "brute"), ("gap_big", "approx")):
        w.ops.append(Op("shapley_all", ("shapley", *io_args(workdir, inst),
                                        "--all"), inst, method,
                        warm=inst == "gap_small"))
    for inst in ("small", "gap_small"):
        w.ops.append(Op("shapley_all", ("shapley", *io_args(workdir, inst),
                                        "--all", *approx), inst, "approx",
                        warm=inst == "gap_small"))
    for ref in rng.sample(big_endo, 6):
        w.ops.append(Op("relevance", ("relevance", *io_args(workdir, "big"),
                                      "--fact", ref), "big"))
    for i, ref in enumerate(rng.sample(small_endo, 4)):
        w.ops.append(Op("relevance", ("relevance", *io_args(workdir, "small"),
                                      "--fact", ref), "small", warm=i == 0))
    return w


def cli_cold(seed: int, workdir: str) -> Workload:
    """One fresh interpreter per command: start-up and import dominate."""
    rng = random.Random(f"cli_cold/{seed}")
    w = Workload("cli_cold", cold=True)
    w.add_instance("readme", UNIVERSITY_SCHEMA, README_FACTS, Q1)
    pfacts, _ = university(rng, 4, _names(rng, "C", 4), probabilistic=True)
    w.add_instance("prob", PROB_SCHEMA, pfacts, Q1)
    w.add_instance("classify", COURSE_SCHEMA, "", Q2)

    w.ops.append(Op("classify", ("classify", *io_args(workdir, "classify",
                                                      facts=False)),
                    "classify", "PTimeExoRewrite", warm=True))
    w.ops.append(Op("shapley_all", ("shapley", *io_args(workdir, "readme"),
                                    "--all"), "readme", "exact"))
    w.ops.append(Op("prob", ("prob", *io_args(workdir, "prob")), "prob",
                    "lifted"))
    w.ops.append(Op("gen_gap", ("gen-gap", "--n", "3",
                                "--out", f"{workdir}/gap_out"), None))
    return w


WORKLOADS = {
    "hier_exact": hier_exact,
    "exo_rewrite": exo_rewrite,
    "hard_sampled": hard_sampled,
    "cli_cold": cli_cold,
}
