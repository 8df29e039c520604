"""Seeded end-to-end and per-layer benchmark of the shapfact commands.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hier_exact --seed 1 --seconds 30 \
        --trace 0

The workload's schema, facts and query files are generated from ``--seed``
under ``.bench_work/<workload>/``; the program only sees those files.  One
client runs the workload's op list in a closed loop (the next command starts
when the previous one has finished) for ``--seconds``: in process through
``shapfact.cli.run``, or, for ``cli_cold`` (a manual workload, not in
``BENCHMARK.json``), as one fresh ``python -m shapfact.cli`` per command.
No threads and no worker pool.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``; the lines before it print every
end-to-end metric of the workload, including those that apply to only some
workloads.  Times are scaled to a reference machine speed (see
``REFERENCE_S``); the measured ones are printed too.  With ``--trace 1``
half of the time runs untraced, then up to TRACED_ROUNDS rounds run under
:class:`tracer.Tracer`, and the JSON carries the per-layer metrics.  Every
report is checked by :mod:`gate` after the timed region; ``correct``,
``attempted`` and ``failed`` count ops.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

SETUP_REPEATS = 3
# a traced round of hier_exact records ~65k spans; a few rounds are enough
# for per-layer medians and keep the span file small
TRACED_ROUNDS = 3
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 120
clock = time.perf_counter

# Host load on a shared machine moves its speed by +-20% over tens of
# seconds, and by 25% between runs half an hour apart.  Each run therefore
# times a fixed pure-Python job after every round and scales its time
# metrics to the speed at which that job takes REFERENCE_S seconds.
REFERENCE_S = 0.025


def reference_loop() -> None:
    """The in-process reference job: dict updates and int formatting."""
    table: dict[int, int] = {}
    for i in range(60_000):
        table[i % 997] = table.get(i % 997, 0) + len(str(i))


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------


class InProcess:
    """Runs a command line through ``shapfact.cli.run``; returns (exit code,
    stdout text)."""

    def __init__(self) -> None:
        from shapfact import cli
        self.cli = cli

    def __call__(self, argv) -> tuple[int, str]:
        cli = self.cli
        out, err = io.StringIO(), io.StringIO()
        try:
            namespace = cli.build_parser().parse_args(list(argv))
            code = cli.run(cli.invocation_from_args(namespace),
                           stdout=out, stderr=err)
        except Exception as exc:  # a crash is a failed op, not a stopped run
            print(f"op {' '.join(argv)} raised {exc!r}", file=sys.stderr)
            return -1, ""
        return code, out.getvalue()


class Cold:
    """Runs a command line as a fresh ``python -m shapfact.cli`` child, one
    at a time; with ``importtime`` each child's import profile is kept."""

    def __init__(self, root: Path, importtime: bool = False) -> None:
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.flags = ["-X", "importtime"] if importtime else []
        self.imports: list[dict[str, float]] = []

    def __call__(self, argv) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, *self.flags, "-m", "shapfact.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if self.flags:
            self.imports.append(parse_importtime(proc.stderr))
        return proc.returncode, proc.stdout


def parse_importtime(stderr: str) -> dict[str, float]:
    """Total import time (the top-level entries' cumulative times) and
    numpy's cumulative time, in ms, from ``-X importtime`` output."""
    total = numpy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _self_us, cumulative_us, name = line[len("import time:"):].split("|")
        if not name[1:].startswith(" "):
            total += int(cumulative_us) / 1000
        if name.strip() == "numpy":
            numpy = int(cumulative_us) / 1000
    return {"total_ms": total, "numpy_ms": numpy}


def import_profile(root: Path) -> dict[str, float]:
    """Median ``-X importtime`` figures of ``import shapfact.cli``."""
    samples = []
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import shapfact.cli"],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def p90(values: list[float]) -> float | None:
    """The 90th percentile, only when at least ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[8]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB


# ---------------------------------------------------------------------------
# the benchmark
# ---------------------------------------------------------------------------


class Bench:
    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.name = workload
        self.seed = seed
        self.work = root / ".bench_work" / workload
        self.rel = self.work.relative_to(root).as_posix()
        self.build = workloads.WORKLOADS[workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: list[float] = []  # times of the reference job

    def time_reference(self) -> None:
        start = clock()
        reference_loop()
        self.reference.append(clock() - start)

    def speed_scale(self) -> float:
        """Reference time over the median observed time of the reference
        job: multiply a measured time by this to get reference-speed time."""
        return REFERENCE_S / statistics.median(self.reference)

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> float:
        """Import, generate the inputs, warm up; returns set-up seconds:
        the import plus the median of SETUP_REPEATS generate-and-warm-up
        passes."""
        start = clock()
        import gate  # imports shapfact, like the CLI
        self.gate_module = gate
        self.inproc = InProcess()
        import_s = clock() - start
        times = []
        for _ in range(SETUP_REPEATS):
            start = clock()
            shutil.rmtree(self.work, ignore_errors=True)
            self.workload = self.materialise(self.seed, self.rel)
            runner = Cold(self.root) if self.workload.cold else self.inproc
            for op in self.workload.ops:
                if op.warm:
                    runner(op.argv)
            times.append(clock() - start)
            self.time_reference()
        return import_s + statistics.median(times)

    def materialise(self, seed: int, rel: str) -> workloads.Workload:
        """Write a workload's files, and run gen-gap for its gap instances."""
        w = self.build(seed, rel)
        w.write(self.root / rel)
        for directory, n in w.gap_instances.items():
            code, text = self.inproc(("gen-gap", "--n", str(n),
                                      "--out", f"{rel}/{directory}"))
            if code != 0:
                raise RuntimeError(f"gen-gap --n {n} exited with {code}")
            (self.root / rel / directory / "gen-gap.json").write_text(text)
        return w

    # -- the closed loop ------------------------------------------------------

    def rounds(self, runner, seconds: float, after_round=None,
               max_rounds: int | None = None) -> list[list]:
        """Run the op list back to back until ``seconds`` have passed (at
        least once, at most ``max_rounds`` times).  Each round is a list of
        (seconds, exit code, stdout) per op, plus its wall time as the last
        element."""
        ops = self.workload.ops
        out = []
        deadline = clock() + seconds
        while not out or (clock() < deadline
                          and len(out) != max_rounds):
            results = []
            round_start = clock()
            for op in ops:
                start = clock()
                code, text = runner(op.argv)
                results.append((clock() - start, code, text))
            results.append(clock() - round_start)
            out.append(results)
            self.time_reference()
            if after_round is not None:
                after_round()
        return out

    # -- checks ---------------------------------------------------------------

    def check(self, rounds: list[list]) -> None:
        """Gate the first round's reports; later rounds must repeat them
        byte for byte.  Then hash-check the seed-0 reference reports."""
        ops = self.workload.ops
        self.gate = self.gate_module.Gate(self.work)
        first = [(code, text) for _dt, code, text in rounds[0][:-1]]
        verdicts = self.gate.check(ops, first)
        for rnd in rounds:
            for i, (op, (_dt, code, text)) in enumerate(zip(ops, rnd)):
                self.attempted += 1
                found = list(verdicts[i])
                if (code, text) != first[i]:
                    found.append("report differs from the first round's")
                if found:
                    self.failed += 1
                    self.problems += [f"{' '.join(op.argv)}: {p}"
                                      for p in found]
        self.check_reference()

    def reference_outputs(self) -> tuple[list, list]:
        """The seed-0 op list and its in-process (exit code, stdout)s."""
        ref = self.materialise(0, f"{self.rel}/reference")
        return ref.ops, [self.inproc(op.argv) for op in ref.ops]

    def check_reference(self) -> None:
        _ops, outputs = self.reference_outputs()
        for found in self.gate_module.reference_problems(self.name, outputs):
            self.attempted += 1
            if found:
                self.failed += 1
                self.problems += found

    # -- metrics --------------------------------------------------------------

    def end_to_end(self, rounds: list[list], setup_s: float,
                   rss_mb: float) -> dict[str, tuple]:
        """Every end-to-end metric: name -> (value or None, unit, samples).
        Times are at reference speed (see REFERENCE_S)."""
        ops = self.workload.ops
        scale = self.speed_scale()
        walls = [rnd[-1] for rnd in rounds]
        rates = []
        latencies: dict[str, list[float]] = {}
        for rnd in rounds:
            facts = seconds = 0.0
            for op, (dt, _code, _text) in zip(ops, rnd):
                kind = "cold_start" if self.workload.cold else op.kind
                latencies.setdefault(kind, []).append(dt * scale * 1000)
                if op.kind == "shapley_all":
                    facts += self.gate.instance(op.instance).n
                    seconds += dt
            rates.append(facts / seconds)
        metrics = {
            "setup_s": (setup_s * scale, "s", SETUP_REPEATS),
            "wall_s": (statistics.median(walls) * scale, "s", len(walls)),
            "attributed_facts_per_s": (statistics.median(rates) / scale,
                                       "1/s", len(rates)),
        }
        for kind in ("shapley_fact", "prob", "relevance", "cold_start"):
            values = latencies.get(kind, [])
            n = len(values)
            metrics[f"{kind}_p50_ms"] = (
                statistics.median(values) if values else None, "ms", n)
            metrics[f"{kind}_p90_ms"] = (p90(values), "ms", n)
        errors = self.gate.approx_errors
        metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
        metrics["failed_frac"] = (self.failed / self.attempted, "ratio",
                                  self.attempted)
        metrics["approx_max_err"] = (max(errors) if errors else None, "abs",
                                     len(errors))
        metrics["measured_setup_s"] = (setup_s, "s", SETUP_REPEATS)
        metrics["measured_wall_s"] = (statistics.median(walls), "s",
                                      len(walls))
        metrics["speed_scale"] = (scale, "ratio", len(self.reference))
        return metrics

    # -- runs -----------------------------------------------------------------

    def run_untraced(self, seconds: float, setup_s: float,
                     units: dict[str, str]) -> dict:
        runner = Cold(self.root) if self.workload.cold else self.inproc
        rounds = self.rounds(runner, seconds)
        rss = peak_rss_mb(children=self.workload.cold)
        self.check(rounds)
        metrics = self.end_to_end(rounds, setup_s, rss)
        print(f"workload {self.name}  seed {self.seed}  rounds {len(rounds)}"
              f"  ops/round {len(self.workload.ops)}  closed loop, 1 client")
        for name, (value, unit, n) in metrics.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:<24} {shown:>12} {unit:<5}  (n={n})")
        return {name: (metrics[name][0], unit) for name, unit in units.items()}

    def run_traced(self, seconds: float, units: dict[str, str]) -> dict:
        from tracer import LAYERS, Tracer, layer_self_times

        cold = self.workload.cold
        runner = Cold(self.root) if cold else self.inproc
        untraced = self.rounds(runner, seconds / 2)

        tracer = Tracer()
        marks = [0]  # span index where each traced round starts, and the end
        op_ids = itertools.count()
        traced_run = tracer.wrap("cli.run", self.inproc)

        def traced_op(argv):
            tracer.current_op = next(op_ids)
            return traced_run(argv)

        def end_round():
            marks.append(len(tracer))

        with tracer:
            if cold:
                # children cannot be traced in process: they run with
                # -X importtime, and the same ops are replayed in process
                # under the tracer after each round, outside its wall time
                children = Cold(self.root, importtime=True)

                def replay():
                    for op in self.workload.ops:
                        traced_op(op.argv)
                    end_round()
                traced = self.rounds(children, seconds / 2, replay,
                                     TRACED_ROUNDS)
                imports = {k: statistics.median(s[k] for s in
                                                children.imports)
                           for k in children.imports[0]}
            else:
                traced = self.rounds(traced_op, seconds / 2, end_round,
                                     TRACED_ROUNDS)
                imports = import_profile(self.root)
        tracer.write(self.work / "spans.tsv")

        self.check(untraced + traced)
        per_round = []
        for first, last in zip(marks, marks[1:]):
            selfs = tracer.self_times(first, last)
            inclusive = tracer.inclusive_times(first, last)
            row = {f"{layer}.self_s": s
                   for layer, s in layer_self_times(selfs).items()}
            row["naive.profiles_s"] = inclusive["naive.hom_profiles"]
            row["naive.table_s"] = inclusive["naive.SubsetOracle.sat_table"]
            per_round.append(row)
        n_rounds = len(per_round)
        counts = {k: v / n_rounds for k, v in tracer.counters.items()}
        metrics = {k: statistics.median(r[k] for r in per_round)
                   for k in per_round[0]}
        metrics.update(counts)
        metrics["import.total_ms"] = imports["total_ms"]
        metrics["import.numpy_ms"] = imports["numpy_ms"]
        metrics["exact.recounts_per_fact"] = (
            counts.get("exact.count_calls", 0)
            / counts["exact.facts_valued"]
            if counts.get("exact.facts_valued") else 0.0)
        metrics["approx.profile_builds_per_fact"] = (
            counts.get("approx->hom_profiles", 0) / counts["approx.calls"]
            if counts.get("approx.calls") else 0.0)
        metrics["trace.overhead_frac"] = (
            statistics.median(r[-1] for r in traced)
            / statistics.median(r[-1] for r in untraced) - 1)

        busy = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        print(f"workload {self.name}  seed {self.seed}  traced rounds "
              f"{n_rounds}  untraced rounds {len(untraced)}")
        print("  self time per round by layer:")
        for layer in LAYERS:
            s = metrics[f"{layer}.self_s"]
            print(f"    {layer:<10} {s:10.4f} s  {s / busy:6.1%}")
        print(f"  all layers {busy:.4f} s per round; import "
              f"{imports['total_ms']:.1f} ms per interpreter")
        out = {}
        for name, unit in units.items():
            value = float(metrics.get(name, 0.0))
            out[name] = (value, unit)
            print(f"  {name:<32} {value:14.6g} {unit}")
        return out


def metric_units(root: Path, kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "shapfact" / "cli.py").is_file():
        print(f"no shapfact sources under {root / 'src'}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("SHAPFACT_CAP", None)  # the op lists assume the default

    bench = Bench(root, args.workload, args.seed)
    setup_s = bench.setup()
    if args.trace:
        metrics = bench.run_traced(args.seconds,
                                   metric_units(root, "per_layer"))
    else:
        metrics = bench.run_untraced(args.seconds, setup_s,
                                     metric_units(root, "end_to_end"))
    for problem in bench.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
