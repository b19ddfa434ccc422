"""One workload process: set-up, timed operations, output checks and, with
``--trace 1``, a traced run after the untraced one.

``run.py`` starts this file once per set-up sample (``--probe K``) and once
for the measurement, and reads the ``result.json`` it leaves in ``--work``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPACE = ROOT / "spaces" / "jahs_table3_4.json"
EXPECTED = HERE / "expected_sha256.json"
RUN_FILES = ("history.csv", "pareto.json", "incumbent_trajectory.csv")

#: kind, budget ladder (b_min, b_max, eta), optimizer workers, and the
#: number of inputs (run seeds) the operations of one process cycle through.
#: The report inputs are the histories the set-up probes write, one each,
#: so there are no more of them than probes.
WORKLOADS = {
    "search-243": {"kind": "search", "ladder": (1, 243, 3), "workers": 1, "inputs": 12},
    "external-stub-81": {"kind": "external", "ladder": (1, 81, 3), "workers": 2, "inputs": 6},
    "report-243": {"kind": "report", "ladder": (1, 243, 3), "workers": 1, "inputs": 7},
}
SMOKE_LADDER = (1, 9, 3)
SMOKE_INPUTS = 2

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from tracing import Tracer, self_times, union_length  # noqa: E402


def run_seed(seed: int, j: int) -> int:
    """Seed of the j-th optimizer run made for workload seed ``seed``."""
    return seed * 1_000_000 + j


def import_jahsband() -> dict:
    """The checkout's own ``jahsband`` modules, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import jahsband
    from jahsband import analysis, cli, configspace, grammar, harness, moo, priorband, scheduler

    if not Path(jahsband.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"jahsband imported from {jahsband.__file__}, not {ROOT / 'src'}")
    return {
        "jahsband": jahsband, "analysis": analysis, "cli": cli, "configspace": configspace,
        "grammar": grammar, "harness": harness, "moo": moo, "priorband": priorband,
        "scheduler": scheduler,
    }


class TimedProblem:
    """Forwards ``evaluate`` and records when each call was in flight; the
    only instrumentation of the untraced run."""

    def __init__(self, problem) -> None:
        self.problem = problem
        self.space = problem.space
        self.intervals: list[tuple[float, float]] = []

    def evaluate(self, *args, **kwargs):
        start = perf_counter()
        try:
            return self.problem.evaluate(*args, **kwargs)
        finally:
            self.intervals.append((start, perf_counter()))


class Context:
    """Everything set-up builds, shared by the operations of one process."""

    def __init__(self, args: argparse.Namespace) -> None:
        spec = WORKLOADS[args.workload]
        self.kind = spec["kind"]
        self.seed = args.seed
        self.ladder_spec = SMOKE_LADDER if args.smoke else spec["ladder"]
        self.workers = spec["workers"]
        self.inputs = SMOKE_INPUTS if args.smoke else spec["inputs"]
        self.work = Path(args.work)
        self.probe = args.probe
        self.sources_dir = Path(args.sources) if args.sources else None
        self.expected = {}
        if EXPECTED.exists() and not args.smoke and not args.record:
            table = json.loads(EXPECTED.read_text(encoding="utf-8"))
            self.expected = table.get(args.workload, {})
        self.jb: dict = {}
        self.problem = None
        self.stub_count = 0
        self.sources: dict[int, dict] = {}
        self.first_hashes: dict[int, dict[str, str]] = {}

    def setup(self) -> None:
        """Import, load the space and build the problem (search), spawn the
        stub once (external) or, in probe K, make source run K (report)."""
        self.jb = import_jahsband()
        self.space = self.jb["configspace"].load_space(SPACE)
        self.ladder = self.jb["scheduler"].budget_ladder(*self.ladder_spec)
        if self.kind == "search":
            self.problem = self.jb["harness"].SyntheticProblem.from_space(
                self.space, optimum="random", b_max=self.ladder.b_max, curvature=3.0,
                hours_per_epoch=0.002, noise=0.0, problem_seed=0,
            )
        elif self.kind == "external":
            evaluator, _log = self.spawn_stub()
            evaluator.close()
        elif self.probe is not None:
            self.source_run(self.probe)

    def spawn_stub(self):
        """A fresh ExternalEvaluator on the stub, returned once the child is up."""
        self.stub_count += 1
        log = self.work / f"stub-{self.stub_count}.jsonl"
        command = [
            sys.executable, str(HERE / "stub_trainer.py"), "--busy-log", str(log),
            "--b-max", str(self.ladder.b_max),
        ]
        evaluator = self.jb["harness"].ExternalEvaluator(
            command, self.space, self.ladder.b_max, timeout=30.0
        )
        deadline = time.monotonic() + 30.0
        while not (log.exists() and log.read_text(encoding="utf-8")):
            if time.monotonic() > deadline:
                evaluator.close()
                raise TimeoutError("stub trainer did not start")
            time.sleep(0.001)
        return evaluator, log

    def source_run(self, h: int) -> None:
        """``jahsband run`` for report history h into ``--work``/source,
        checked like a search run."""
        seed = run_seed(self.seed, h)
        run_dir = self.work / "source"
        b_min, b_max, eta = self.ladder_spec
        code = self.jb["cli"].main([
            "run", "--space", str(SPACE), "--problem", "synthetic", "--mode", "regularized",
            "--eta", str(eta), "--min-budget", str(b_min), "--max-budget", str(b_max),
            "--seed", str(seed), "--out", str(run_dir),
        ])
        out = run_dir / f"seed_{seed}"
        problems = [f"jahsband run exited {code}"] if code else []
        rows: list = []
        if not problems:
            found, rows = checks.check_run_outputs(out, self.ladder_spec, stub=False)
            problems += found
            problems += checks.check_expected(self.expected.get(str(seed)), out, RUN_FILES)
        if problems:
            raise RuntimeError(f"source run {h}: {problems}")

    def load_sources(self) -> None:
        """The histories that probes 0..n-1 wrote, one per report input."""
        for h in range(self.inputs):
            seed = run_seed(self.seed, h)
            run_dir = self.sources_dir / f"probe{h}" / "source"
            out = run_dir / f"seed_{seed}"
            rows = checks.read_rows(out / "history.csv")
            self.sources[h] = {
                "run_dir": run_dir, "seed": seed, "rows": len(rows),
                "ok": sum(r["status"] == "ok" for r in rows),
                "charged": int(rows[-1]["charged_epochs_cumulative"]),
                "hashes": {name: checks.sha256(out / name) for name in RUN_FILES},
            }

    # timed operations

    def op(self, j: int) -> dict:
        """One timed operation; a raised error or failed check marks it failed."""
        try:
            result = self.op_report(j) if self.kind == "report" else self.op_run(j)
        except Exception:
            return {"j": j, "input": j % self.inputs, "problems": [traceback.format_exc(limit=4)]}
        result["input"] = j % self.inputs
        if self.first_hashes.setdefault(j % self.inputs, result["hashes"]) != result["hashes"]:
            result["problems"].append("outputs differ between operations on one input")
        return result

    def op_run(self, j: int) -> dict:
        """``priorband.run`` then ``analysis.export_reports``, as ``jahsband run``."""
        seed = run_seed(self.seed, j % self.inputs)
        out = self.work / "op"
        shutil.rmtree(out, ignore_errors=True)
        evaluator = log = None
        if self.kind == "external":
            evaluator, log = self.spawn_stub()
        problem = TimedProblem(evaluator or self.problem)
        pb, analysis = self.jb["priorband"], self.jb["analysis"]
        try:
            start = perf_counter()
            result = pb.run(
                self.space, problem, self.ladder, policy="standard-hb", mode="regularized",
                continuation=True, seed=seed, workers=self.workers,
            )
            analysis.export_reports(result, out)
            wall = perf_counter() - start
        finally:
            if evaluator is not None:
                evaluator.close()
        busy_s = None
        if log is not None:
            last = log.read_text(encoding="utf-8").splitlines()[-1]
            busy_s = sum(end - begin for begin, end in json.loads(last)["busy"])
        problems, rows = checks.check_run_outputs(
            out, self.ladder_spec, stub=self.kind == "external"
        )
        problems += checks.check_expected(self.expected.get(str(seed)), out, RUN_FILES)
        return {
            "j": j, "seed": seed, "wall": wall, "trials": len(rows),
            "ok": sum(r["status"] == "ok" for r in rows),
            "evaluate_s": union_length(problem.intervals), "busy_s": busy_s,
            "charged": int(rows[-1]["charged_epochs_cumulative"]),
            "hashes": {name: checks.sha256(out / name) for name in RUN_FILES},
            "problems": problems,
        }

    def op_report(self, j: int) -> dict:
        """``jahsband report importance`` and ``report pareto`` in-process on
        source history j mod H."""
        h = j % self.inputs
        source = self.sources[h]
        seed_dir = f"seed_{source['seed']}"
        args = ["--run", str(source["run_dir"]), "--seed-dir", seed_dir]
        cli = self.jb["cli"]
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            codes = [cli.main(["report", "importance", *args]), cli.main(["report", "pareto", *args])]
            wall = perf_counter() - start
        out = source["run_dir"] / seed_dir
        problems = [f"report exited {codes}"] if codes != [0, 0] else []
        names = list(self.space.names)
        if self.space.grammar is not None:
            names += ["arch.n_stages", "arch.total_blocks"]
        problems += checks.check_importance(out / "importance.json", names)
        problems += checks.check_expected(
            self.expected.get(str(source["seed"])), out, ["importance.json"]
        )
        sha = checks.sha256(out / "importance.json")
        if checks.sha256(out / "pareto.json") != source["hashes"]["pareto.json"]:
            problems.append("report pareto.json differs from the run's pareto.json")
        return {
            "j": j, "seed": source["seed"], "wall": wall, "trials": source["rows"],
            "ok": source["ok"], "evaluate_s": 0.0, "busy_s": None,
            "charged": source["charged"], "hashes": {"importance.json": sha},
            "problems": problems,
        }

    def measure(self, seconds: float, tracer=None) -> list[dict]:
        """Whole cycles of operations, one per input in input order, until
        the next cycle would end after ``seconds`` (judged by the length of
        the last one); always at least one. Every input is therefore timed
        equally often, whatever the program's speed. With a tracer, exactly
        one cycle, each operation in a ``bench.op`` span."""
        results: list[dict] = []
        start = perf_counter()
        while True:
            cycle_start = perf_counter()
            for _ in range(self.inputs):
                if tracer is None:
                    results.append(self.op(len(results)))
                else:
                    with tracer.span("bench.op"):
                        results.append(self.op(len(results)))
            now = perf_counter()
            if tracer is not None or now - start + (now - cycle_start) > seconds:
                return results


# metrics

def median_of_inputs(ops: list[dict], value) -> float:
    """Median over the inputs of each input's median ``value(op)``."""
    by_input: dict[int, list[float]] = {}
    for r in ops:
        by_input.setdefault(r["input"], []).append(value(r))
    return statistics.median(statistics.median(v) for v in by_input.values())


def end_to_end(ops: list[dict]) -> dict[str, float]:
    good = [r for r in ops if not r["problems"]]
    if not good:
        return {}
    wall_s = median_of_inputs(good, lambda r: r["wall"])
    return {
        "wall_s": wall_s,
        "trials_per_s": median_of_inputs(good, lambda r: r["trials"]) / wall_s,
        "overhead_ms_per_trial": median_of_inputs(
            good, lambda r: 1000.0 * (r["wall"] - r["evaluate_s"]) / r["trials"]
        ),
        "trial_ok_ratio": sum(r["ok"] for r in good) / sum(r["trials"] for r in good),
        "op_ok_ratio": len(good) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


CALLS_AND_SELF = (
    "priorband.incumbent_for_sampling", "priorband.RunHistory.pareto_entries",
    "moo.non_dominated_sort", "moo.select_top_k", "configspace.sample.uniform",
    "configspace.sample.prior", "configspace.sample.around", "configspace.prior_pdf",
    "grammar.sample_derivation", "grammar.serialize", "grammar.parse",
    "harness.SyntheticProblem.evaluate", "harness.ExternalEvaluator.evaluate",
)
SELF_ONLY = (
    "priorband.run", "priorband.sampler_weights", "priorband.dynamic_weighting",
    "priorband.read_history_csv", "priorband.write_history_csv", "moo.area_incumbent",
    "moo.crowding_distance", "analysis.fanova_first_order", "analysis.export_reports",
    "analysis.write_pareto_json", "cli.main",
)
FAILURE_CLASSES = ("EvaluatorReportedFailure", "EvaluatorTimeout", "ProtocolError")
WALL_SHARE = (
    "priorband.incumbent_for_sampling", "harness.ExternalEvaluator.evaluate",
    "analysis.fanova_first_order",
)


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(spans: list[tuple], traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced operations; counts and
    times are per operation (mean over the traced operations). Spans outside
    an operation (the traced ``load_space``) only feed ``load_space.self_s``."""
    n_ops = len(traced)
    selfs = self_times(spans)
    ops = sorted((s[2], s[3]) for s in spans if s[1] == "bench.op")
    op_wall = sum(end - start for start, end in ops)
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    m: dict[str, float] = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = len(by_name.get(name, [])) / n_ops
    for name in CALLS_AND_SELF + SELF_ONLY:
        m[f"{name}.self_s"] = sum(selfs[s[0]] for s in by_name.get(name, [])) / n_ops
    m["moo.non_dominated_sort.points"] = sum(
        s[5] for s in by_name.get("moo.non_dominated_sort", [])
    ) / n_ops
    for name in WALL_SHARE:
        m[f"{name}.wall_share"] = union_length(
            [(s[2], s[3]) for s in by_name.get(name, [])]
        ) / op_wall

    # recomputation: incumbent calls per distinct history length, per op
    calls = by_name.get("priorband.incumbent_for_sampling", [])
    starts = [start for start, _ in ops]
    distinct = {(bisect.bisect_right(starts, s[2]), s[5]) for s in calls}
    m["priorband.incumbent_for_sampling.recompute_ratio"] = (
        len(calls) / len(distinct) if distinct else 0.0
    )
    names = {s[0]: s[1] for s in spans}
    parents = {s[0]: s[4] for s in spans}

    def under_incumbent(sid: int) -> bool:
        while sid is not None:
            if names.get(sid) == "priorband.incumbent_for_sampling":
                return True
            sid = parents.get(sid)
        return False

    m["moo.non_dominated_sort.under_incumbent_share"] = union_length([
        (s[2], s[3]) for s in by_name.get("moo.non_dominated_sort", [])
        if under_incumbent(s[4])
    ]) / op_wall

    loads = [selfs[s[0]] for s in by_name.get("configspace.load_space", [])]
    m["configspace.load_space.self_s"] = statistics.median(loads) if loads else 0.0

    evaluations = by_name.get("harness.ExternalEvaluator.evaluate", [])
    rtts = [1000.0 * (s[3] - s[2]) for s in evaluations]
    m["harness.ExternalEvaluator.rtt_ms_p50"] = _percentile(rtts, 50)
    m["harness.ExternalEvaluator.rtt_ms_p99"] = _percentile(rtts, 99)
    m["harness.ExternalEvaluator.rtt_samples"] = float(len(rtts))
    busy = sum(r["busy_s"] or 0.0 for r in traced) / n_ops
    m["harness.ExternalEvaluator.child_busy_s"] = busy
    m["harness.ExternalEvaluator.wait_s"] = (
        sum(s[3] - s[2] for s in evaluations) / n_ops - busy if evaluations else 0.0
    )
    for cls in FAILURE_CLASSES:
        m[f"harness.ExternalEvaluator.failed.{cls}"] = sum(
            s[6] == cls for s in evaluations
        ) / n_ops
    m["scheduler.charged_epochs"] = sum(r["charged"] for r in traced) / n_ops
    walls: dict[int, list[float]] = {}
    for r in untraced:
        walls.setdefault(r["input"], []).append(r["wall"])
    m["trace.overhead_ratio"] = sum(r["wall"] for r in traced) / sum(
        statistics.median(walls[r["input"]]) for r in traced
    )
    m["trace.ops"] = float(n_ops)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark workload process")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--probe", type=int, metavar="K",
                        help="set up (report: make source run K in --work), then exit")
    parser.add_argument("--sources", help="report: the directory holding probe<h>/source")
    parser.add_argument("--smoke", action="store_true", help="tiny ladders")
    parser.add_argument("--record", action="store_true",
                        help="write the output hashes of every input, untimed")
    args = parser.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(args)
    ctx.setup()
    setup_s = time.monotonic() - args.spawned_at
    result: dict = {"setup_s": setup_s}
    if args.probe is None:
        if ctx.kind == "report":
            ctx.load_sources()
        if args.record:
            result["record"] = record(ctx)
        else:
            result.update(measure_run(ctx, args))
    (work / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


def record(ctx: Context) -> dict[str, dict[str, str]]:
    """Output hashes of every input, by run seed."""
    table = {str(s["seed"]): dict(s["hashes"]) for s in ctx.sources.values()}
    for j in range(ctx.inputs):
        r = ctx.op(j)
        if r["problems"]:
            raise RuntimeError(r["problems"])
        table.setdefault(str(r["seed"]), {}).update(r["hashes"])
    return table


def measure_run(ctx: Context, args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = ctx.measure(seconds)
    out: dict = {
        "untraced": untraced,
        "end_to_end": end_to_end(untraced),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if args.trace:
        tracer = Tracer()
        tracer.install(ctx.jb)
        try:
            with tracer.span("bench.setup"):
                ctx.jb["configspace"].load_space(SPACE)
            # the same inputs as the untraced cycles, so op() also checks
            # that tracing leaves the outputs byte-identical
            traced = ctx.measure(seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(str(Path(args.work) / "spans.jsonl"))
        out["traced"] = traced
        if all(not r["problems"] for r in traced + untraced):
            out["per_layer"] = per_layer(tracer.spans, traced, untraced)
    return out


if __name__ == "__main__":
    sys.exit(main())
