import csv
import errno
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import jahsband
from jahsband import analysis, cli, grammar as hg, priorband
from jahsband.cli import main
from jahsband.harness import EvaluationFailed, ExternalEvaluator

SPACES_DIR = Path(__file__).resolve().parents[1] / "spaces"
SPACE = str(SPACES_DIR / "jahs_table3_4.json")


def run_cli(*argv):
    return main(list(argv))


def small_run_args(out, seed="0", space=SPACE):
    return [
        "run", "--space", space, "--problem", "synthetic",
        "--mode", "regularized", "--eta", "3",
        "--min-budget", "3", "--max-budget", "27",
        "--seed", seed, "--out", str(out),
    ]


def cut_last_row(path, keep=20):
    """Cut the last row of a history.csv short, as a crash mid-write would;
    returns that row's line number."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1] + [lines[-1][:keep]]) + "\n")
    return len(lines)


def replay_args(replay_file, out, seed="0"):
    return [
        "run", "--space", SPACE, "--problem", "replay",
        "--replay-file", str(replay_file), "--eta", "3",
        "--min-budget", "3", "--max-budget", "27",
        "--seed", seed, "--out", str(out),
    ]


class TestRun:
    def test_produces_artifacts(self, tmp_path):
        out = tmp_path / "results"
        assert run_cli(*small_run_args(out)) == 0
        seed_dir = out / "seed_0"
        for name in ("history.csv", "pareto.json", "incumbent_trajectory.csv"):
            assert (seed_dir / name).exists()
        assert (out / "manifest.resolved.json").exists()

    def test_idempotent_artifacts(self, tmp_path):
        out = tmp_path / "a"
        assert run_cli(*small_run_args(out)) == 0
        names = ("history.csv", "pareto.json", "incumbent_trajectory.csv")
        snapshot = {n: (out / "seed_0" / n).read_bytes() for n in names}
        snapshot["manifest"] = (out / "manifest.resolved.json").read_bytes()
        assert run_cli(*small_run_args(out)) == 0
        for n in names:
            assert (out / "seed_0" / n).read_bytes() == snapshot[n]
        assert (out / "manifest.resolved.json").read_bytes() == snapshot["manifest"]
        # a different output root still yields identical report artifacts
        other = tmp_path / "b"
        assert run_cli(*small_run_args(other)) == 0
        for n in names:
            assert (other / "seed_0" / n).read_bytes() == snapshot[n]

    def test_missing_space_file(self, tmp_path, capsys):
        rc = run_cli("run", "--space", "does-not-exist.json",
                     "--out", str(tmp_path))
        assert rc == 2
        assert "does-not-exist.json" in capsys.readouterr().err

    def test_multi_seed_range(self, tmp_path):
        out = tmp_path / "multi"
        assert run_cli(*small_run_args(out, seed="0..2")) == 0
        assert sorted(p.name for p in out.glob("seed_*")) == [
            "seed_0", "seed_1", "seed_2",
        ]

    def test_synthetic_problem_built_once(self, tmp_path, monkeypatch):
        for k in range(2):
            assert run_cli(*small_run_args(tmp_path / f"alone_{k}", seed=str(k))) == 0
        builds = []
        original = cli._build_problem

        def counting(*args):
            builds.append(args[0]["problem"])
            return original(*args)

        monkeypatch.setattr(cli, "_build_problem", counting)
        together = tmp_path / "together"
        assert run_cli(*small_run_args(together, seed="0,1")) == 0
        assert builds == ["synthetic"]
        for k in range(2):
            for name in ("history.csv", "pareto.json", "incumbent_trajectory.csv"):
                assert (together / f"seed_{k}" / name).read_bytes() == (
                    tmp_path / f"alone_{k}" / f"seed_{k}" / name).read_bytes()

    def test_manifest_file_with_flag_override(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "space": SPACE,
            "min_budget": 3,
            "max_budget": 27,
            "seeds": [7],
            "out": str(tmp_path / "from-manifest"),
        }))
        out = tmp_path / "overridden"
        assert run_cli("run", "--manifest", str(manifest),
                       "--out", str(out)) == 0
        resolved = json.loads((out / "manifest.resolved.json").read_text())
        assert resolved["out"] == str(out)
        assert resolved["seeds"] == [7]
        assert (out / "seed_7" / "history.csv").exists()

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JAHSBAND_OUT", str(tmp_path / "env-root"))
        args = small_run_args(tmp_path)[:-2]  # drop --out
        assert run_cli(*args) == 0
        assert (tmp_path / "env-root" / "seed_0" / "history.csv").exists()

    def test_evaluator_spawn_failure_exit_3(self, tmp_path, capsys):
        rc = run_cli("run", "--space", SPACE, "--problem", "external",
                     "--external-cmd", "/no/such/evaluator",
                     "--min-budget", "3", "--max-budget", "27",
                     "--out", str(tmp_path))
        assert rc == 3

    def test_unwritable_output_exit_4(self, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("a file, not a directory")
        rc = run_cli(*small_run_args(blocker / "nested"))
        assert rc == 4

    def test_unwritable_output_closes_the_external_child(self, tmp_path, monkeypatch):
        # the evaluator is built before --out is made; a child that waits
        # for stdin to close must be stopped when --out cannot be made
        spawned = []
        spawn = ExternalEvaluator._spawn
        monkeypatch.setattr(ExternalEvaluator, "_spawn",
                            lambda self: spawned.append(spawn(self)) or spawned[-1])
        blocker = tmp_path / "occupied"
        blocker.write_text("a file, not a directory")
        child = f"{shlex.quote(sys.executable)} -c 'import sys; sys.stdin.read()'"
        rc = run_cli(*small_run_args(blocker / "nested"),
                     "--problem", "external", "--external-cmd", child)
        assert rc == 4
        assert len(spawned) == 1 and spawned[0].poll() is not None

    def test_external_child_per_seed(self, tmp_path, monkeypatch):
        # one evaluator serves every seed and closes its child after each,
        # so a seed's history does not depend on the seeds before it
        spawned = []
        spawn = ExternalEvaluator._spawn
        monkeypatch.setattr(ExternalEvaluator, "_spawn",
                            lambda self: spawned.append(spawn(self)) or spawned[-1])
        stub = Path(__file__).with_name("fault_stub.py")
        child = shlex.join([sys.executable, "-S", str(stub),
                            json.dumps({"salt": 0, "shares": {}}), str(tmp_path / "beat")])
        external = ["--problem", "external", "--external-cmd", child]
        assert run_cli(*small_run_args(tmp_path / "both", seed="0,1"), *external) == 0
        assert len(spawned) == 2 and all(p.poll() is not None for p in spawned)
        assert run_cli(*small_run_args(tmp_path / "one", seed="1"), *external) == 0
        assert (tmp_path / "both" / "seed_1" / "history.csv").read_bytes() == \
            (tmp_path / "one" / "seed_1" / "history.csv").read_bytes()

    def test_replay_problem(self, tmp_path):
        out = tmp_path / "base"
        assert run_cli(*small_run_args(out)) == 0
        # the recorded history.csv is the replay table as it stands
        out2 = tmp_path / "replayed"
        assert run_cli(*replay_args(out / "seed_0" / "history.csv", out2)) == 0
        for name in ("history.csv", "pareto.json", "incumbent_trajectory.csv"):
            assert (out / "seed_0" / name).read_bytes() == (
                out2 / "seed_0" / name).read_bytes()

    def test_replay_reads_history_once(self, tmp_path, monkeypatch):
        base = tmp_path / "base"
        assert run_cli(*small_run_args(base, seed="0,1,2")) == 0
        # one history holding all three seeds' trials, so every seed replays;
        # it is written as one run's, since the reader rejects a second seed
        space, ladder = jahsband.load_space(SPACE), jahsband.budget_ladder(3, 27, 3)
        merged = priorband.RunHistory(space, ladder)
        for k in range(3):
            history_k = base / f"seed_{k}" / "history.csv"
            for trial in priorband.read_history_csv(history_k, space, ladder).trials:
                merged.add(trial)
        table = tmp_path / "all.csv"
        priorband.write_history_csv(merged, table)
        for k in range(3):
            assert run_cli(*replay_args(table, tmp_path / f"alone_{k}", seed=str(k))) == 0
        reads = []
        original = priorband.read_history_csv

        def counting(*args, **kwargs):
            reads.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(priorband, "read_history_csv", counting)
        together = tmp_path / "together"
        assert run_cli(*replay_args(table, together, seed="0,1,2")) == 0
        assert len(reads) == 1
        for k in range(3):
            for name in ("history.csv", "pareto.json", "incumbent_trajectory.csv"):
                assert (together / f"seed_{k}" / name).read_bytes() == (
                    tmp_path / f"alone_{k}" / f"seed_{k}" / name).read_bytes()

    def test_replay_old_table_format_exit_2(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("config,budget,primary,runtime_hours\n")
        rc = run_cli(*replay_args(table, tmp_path / "replayed"))
        assert rc == 2
        assert "lacks columns" in capsys.readouterr().err

    def test_replay_truncated_history_exit_2(self, tmp_path, capsys):
        out = tmp_path / "base"
        assert run_cli(*small_run_args(out)) == 0
        history = out / "seed_0" / "history.csv"
        line = cut_last_row(history)
        rc = run_cli(*replay_args(history, tmp_path / "replayed"))
        assert rc == 2
        assert f"line {line}:" in capsys.readouterr().err

    def test_manifest_importance_without_flag(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"importance": True}))
        out = tmp_path / "run"
        assert run_cli(*small_run_args(out), "--manifest", str(manifest)) == 0
        assert json.loads((out / "manifest.resolved.json").read_text())["importance"]
        assert (out / "seed_0" / "importance.json").exists()

    def test_replay_missing_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "replayed"
        assert run_cli(*replay_args(tmp_path / "nope.csv", out)) == 2
        assert "nope.csv" in capsys.readouterr().err
        assert not (out / "manifest.resolved.json").exists()

    def test_manifest_written_before_first_seed(self, tmp_path):
        out = tmp_path / "base"
        assert run_cli(*small_run_args(out)) == 0
        # seed 1 samples configurations seed 0 never recorded, so its
        # replay stops with an evaluator error after seed 0 has finished
        out2 = tmp_path / "replayed"
        args = replay_args(out / "seed_0" / "history.csv", out2, seed="0,1")
        assert run_cli(*args) == 3
        assert (out2 / "manifest.resolved.json").exists()
        assert run_cli("report", "pareto", "--run", str(out2)) == 0
        assert (out2 / "seed_0" / "pareto.json").read_bytes() == (
            out / "seed_0" / "pareto.json").read_bytes()


#: a value other than the default for each run setting
OTHER_SETTINGS = {
    "space": str(SPACES_DIR / "hnas_grammar.json"), "problem": "external",
    "replay_file": "history.csv", "external_cmd": "true", "external_timeout": 5.0,
    "mode": "priorband", "policy": "as-written", "eta": 2, "min_budget": 9,
    "max_budget": 81, "seeds": [1, 2], "out": "elsewhere", "workers": 2,
    "continuation": False, "noise": 0.25, "optimum": "default", "problem_seed": 3,
    "curvature": 1.5, "hours_per_epoch": 0.5, "importance": True,
}


def _as_flags(settings):
    """The ``run`` flags that set ``settings``."""
    flags = []
    for key, value in settings.items():
        if key == "seeds":
            flags += ["--seed", ",".join(map(str, value))]
        elif key in ("continuation", "importance"):
            flags.append("--restart" if key == "continuation" else "--importance")
        else:
            flags += ["--" + key.replace("_", "-"), str(value)]
    return flags


class SeedStarted(Exception):
    """Raised in place of the first seed's run."""


@pytest.mark.parametrize("key", list(cli._RUN_DEFAULTS))
def test_flag_and_manifest_key_agree(key, tmp_path, monkeypatch):
    """A setting given by its flag and by its manifest key resolves to the
    same manifest.resolved.json."""
    def first_seed(*args, **kwargs):
        raise SeedStarted

    # the record is written before the first seed; an external problem is
    # built as a synthetic one, so no child starts
    build = cli._build_problem
    monkeypatch.setattr(cli, "_build_problem",
                        lambda m, *a: build({**m, "problem": "synthetic"}, *a))
    monkeypatch.setattr(priorband, "run", first_seed)
    monkeypatch.chdir(tmp_path)
    value = OTHER_SETTINGS[key]
    base = {"space": SPACE, "min_budget": 3, "max_budget": 27, "out": "o",
            "external_cmd": "true" if key == "problem" else None}
    records = []
    for by_flag in (True, False):
        flags = {k: v for k, v in {**base, key: value}.items()
                 if v is not None and (by_flag or k != key)}
        manifest = _write(tmp_path / "m.json", json.dumps({} if by_flag else {key: value}))
        with pytest.raises(SeedStarted):
            run_cli("run", *_as_flags(flags), "--manifest", manifest)
        out = Path(value if key == "out" else "o")
        records.append((out / "manifest.resolved.json").read_bytes())
        (out / "manifest.resolved.json").unlink()
    assert records[0] == records[1]
    assert json.loads(records[0])[key] == value


#: runs ``jahsband.cli.main`` on each JSON-encoded argv of ``sys.argv[1:]``
#: with scipy refused by a meta path finder, then prints the scipy modules
#: that got loaded anyway
WITHOUT_SCIPY = """
import importlib.abc, json, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}")

sys.meta_path.insert(0, RefuseScipy())
from jahsband.cli import main

for argv in sys.argv[1:]:
    code = main(json.loads(argv))
    if code:
        sys.exit(code)
print(json.dumps([m for m in sys.modules if m.split(".")[0] == "scipy"]))
"""


def test_runs_and_reports_without_scipy(tmp_path):
    """scipy is a test dependency only: a run and both reports work with
    it refused, and write the bytes an ordinary process writes."""
    def commands(out):
        return [
            ["run", "--space", SPACE, "--eta", "3", "--min-budget", "1",
             "--max-budget", "27", "--seed", "0", "--out", str(out)],
            ["report", "importance", "--run", str(out)],
            ["report", "pareto", "--run", str(out)],
        ]

    for argv in commands(tmp_path / "ordinary"):
        assert run_cli(*argv) == 0
    paths = [str(Path(jahsband.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, *map(json.dumps, commands(tmp_path / "bare"))],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    for name in ("history.csv", "pareto.json", "importance.json"):
        bare, ordinary = (tmp_path / side / "seed_0" / name for side in ("bare", "ordinary"))
        assert bare.read_bytes() == ordinary.read_bytes(), name


#: runs ``jahsband.cli.main`` on each JSON-encoded argv of ``sys.argv[1:]``
#: with ``numpy.random`` unimportable, then prints whether a thread pool
#: got loaded
WITHOUT_NUMPY_RANDOM = """
import json, sys

sys.modules["numpy.random"] = None  # any import of it now raises ImportError
sys.modules["numpy.ma"] = None
from jahsband.cli import main

for argv in sys.argv[1:]:
    code = main(json.loads(argv))
    if code:
        sys.exit(code)
print(json.dumps("concurrent.futures" in sys.modules))
"""


def test_reports_load_no_numpy_random(tmp_path):
    """The forest draws from a pure-Python PCG64 and dedupes its edges
    without ``np.unique``: both reports run with ``numpy.random`` and
    ``numpy.ma`` unimportable, load no thread pool, and write the bytes an
    ordinary process writes."""
    paths = [str(Path(jahsband.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    probe = ("import numpy, sys; "
             "sys.exit('numpy.random' in sys.modules or 'numpy.ma' in sys.modules)")
    if subprocess.run([sys.executable, "-c", probe], env=env, timeout=60).returncode:
        pytest.skip("this numpy imports numpy.random or numpy.ma with numpy")
    ordinary, bare = tmp_path / "ordinary", tmp_path / "bare"
    for out in (ordinary, bare):
        assert run_cli(*small_run_args(out)) == 0
    (bare / "seed_0" / "pareto.json").unlink()
    for action in ("importance", "pareto"):
        assert run_cli("report", action, "--run", str(ordinary)) == 0
    reports = [json.dumps(["report", action, "--run", str(bare)])
               for action in ("importance", "pareto")]
    proc = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY_RANDOM, *reports],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) is False
    for name in ("pareto.json", "importance.json"):
        assert (bare / "seed_0" / name).read_bytes() == (ordinary / "seed_0" / name).read_bytes()


#: runs ``jahsband.cli.main`` on each JSON-encoded argv of ``sys.argv[2:]``,
#: with numpy unimportable when ``sys.argv[1]`` is "blocked", then prints
#: whether numpy got loaded
WITHOUT_NUMPY = """
import json, sys

if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # any import of it now raises ImportError
from jahsband.cli import main

for argv in sys.argv[2:]:
    code = main(json.loads(argv))
    if code:
        sys.exit(code)
print(json.dumps(sys.modules.get("numpy") is not None))
"""


def test_search_and_pareto_load_no_numpy(tmp_path):
    """The search draws from a pure-Python PCG64: a run (serial, on two
    workers, replayed, and single-objective with restart charging) and
    ``report pareto`` load no numpy, and with numpy unimportable they write
    the bytes an ordinary process writes."""
    flags = ["--space", SPACE, "--min-budget", "1", "--max-budget", "27", "--eta", "3",
             "--seed", "0"]

    def commands(root):
        history = root / "run" / "seed_0" / "history.csv"
        return [
            ["run", *flags, "--out", str(root / "run")],
            ["run", *flags, "--workers", "2", "--out", str(root / "run2")],
            ["run", *flags, "--problem", "replay", "--replay-file", str(history),
             "--out", str(root / "replay")],
            ["run", *flags, "--mode", "priorband", "--restart", "--out", str(root / "restart")],
            ["report", "pareto", "--run", str(root / "run")],
        ]

    paths = [str(Path(jahsband.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    for side in ("ordinary", "blocked"):
        proc = subprocess.run(
            [sys.executable, "-c", WITHOUT_NUMPY, side,
             *map(json.dumps, commands(tmp_path / side))],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) is False
    written = sorted((tmp_path / "ordinary").glob("*/seed_0/*"))
    assert len(written) == 4 * 3
    for path in written:
        twin = tmp_path / "blocked" / path.relative_to(tmp_path / "ordinary")
        assert twin.read_bytes() == path.read_bytes(), path


class TestGrammarCommand:
    def test_count_reference(self, capsys):
        assert run_cli("grammar", "count", "--stages", "4", "--scale", "1") == 0
        assert capsys.readouterr().out.strip() == "319200"

    def test_enumerate_limit(self, capsys):
        assert run_cli("grammar", "enumerate", "--stages", "2",
                       "--limit", "5") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(set(lines)) == 5
        g = hg.build_grammar(2, 1)
        for line in lines:
            hg.parse(g, line)

    def test_sample_prior_mode_prints_per_seed(self, capsys):
        assert run_cli("grammar", "sample", "--stages", "4", "--scale", "2",
                       "--mode", "prior", "--confidence", "high",
                       "--seeds", "0..999") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1000
        g = hg.build_grammar(4, 2)
        default = hg.serialize(hg.default_derivation(g))
        from collections import Counter

        assert Counter(lines).most_common(1)[0][0] == default

    def test_invalid_stage_count(self, capsys):
        assert run_cli("grammar", "count", "--stages", "1") == 2

    @pytest.mark.parametrize("seeds", ["", ","])
    def test_sample_without_seeds_exits_2(self, seeds, capsys):
        assert run_cli("grammar", "sample", "--stages", "3", "--seeds", seeds) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least one seed required" in captured.err


class TestReportCommand:
    def make_run(self, tmp_path, problem_seed="0"):
        out = tmp_path / f"run{problem_seed}"
        args = small_run_args(out) + ["--problem-seed", problem_seed]
        assert run_cli(*args) == 0
        return out

    def test_importance(self, tmp_path, capsys):
        out = self.make_run(tmp_path)
        assert run_cli("report", "importance", "--run", str(out),
                       "--trees", "8") == 0
        payload = json.loads((out / "seed_0" / "importance.json").read_text())
        from jahsband import configspace as cs

        space = cs.load_space(SPACE)
        for name in space.names:
            assert name in payload
            assert set(payload[name]) == {"importance", "variance"}

    def test_pareto(self, tmp_path):
        out = self.make_run(tmp_path)
        original = (out / "seed_0" / "pareto.json").read_bytes()
        assert run_cli("report", "pareto", "--run", str(out)) == 0
        assert (out / "seed_0" / "pareto.json").read_bytes() == original

    def test_run_whose_seeds_repeat_still_reports(self, tmp_path):
        # a new run refuses repeated seeds; one recorded with them still reads
        out = self.make_run(tmp_path)
        path = out / "manifest.resolved.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "seeds": [0, 0]}))
        assert run_cli("report", "pareto", "--run", str(out)) == 0

    @pytest.mark.parametrize("report", ["importance", "pareto"])
    def test_out_gets_the_default_bytes(self, report, tmp_path, capsys):
        out = self.make_run(tmp_path)
        default = out / "seed_0" / f"{report}.json"
        args = ["report", report, "--run", str(out)]
        if report == "importance":
            args += ["--trees", "4"]
        assert run_cli(*args) == 0
        expected = default.read_bytes()
        default.unlink()
        target = tmp_path / f"{report}-out.json"
        assert run_cli(*args, "--out", str(target)) == 0
        assert target.read_bytes() == expected
        assert not default.exists()
        assert capsys.readouterr().out.splitlines() == [str(default), str(target)]

    def test_pareto_without_completed_top_budget_trial(self, tmp_path, monkeypatch):
        """Every top-budget trial fails, the default configuration's too, so
        the run has no incumbent; the report still writes the run's bytes."""
        build = cli._build_problem
        monkeypatch.setattr(cli, "_build_problem", lambda *a: FailAtTopBudget(build(*a)))
        out = tmp_path / "run"
        assert run_cli(*small_run_args(out)) == 0
        with open(out / "seed_0" / "history.csv", newline="") as fh:
            top = [r for r in csv.DictReader(fh) if r["budget_epochs"] == "27"]
        assert "default" in {r["strategy"] for r in top}
        assert top and {r["status"] for r in top} == {"failed"}
        original = (out / "seed_0" / "pareto.json").read_bytes()
        (out / "seed_0" / "pareto.json").unlink()
        assert run_cli("report", "pareto", "--run", str(out)) == 0
        assert (out / "seed_0" / "pareto.json").read_bytes() == original
        assert run_cli("report", "importance", "--run", str(out), "--trees", "4") == 0

    def test_crosseval_3x3(self, tmp_path):
        runs = [self.make_run(tmp_path, s) for s in ("0", "1", "2")]
        target = tmp_path / "crosseval.csv"
        assert run_cli("report", "crosseval",
                       "--runs", *map(str, runs), "--out", str(target)) == 0
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 3 rows + mean
        assert lines[-1].startswith("mean,")
        assert len(lines[0].split(",")) == 4

    def test_crosseval_scores_each_problem_at_its_top_budget(self, tmp_path):
        """Runs of different top budgets: each problem is scored at its own,
        so both orders of --runs exit 0 with the same cells."""
        runs = {}
        for name, top in (("a", "27"), ("b", "81")):
            args = small_run_args(tmp_path / name)
            args[args.index("--max-budget") + 1] = top
            assert run_cli(*args) == 0
            runs[name] = str(tmp_path / name)
        cells = []
        for order in ("ab", "ba"):
            target = tmp_path / f"{order}.csv"
            assert run_cli("report", "crosseval", "--runs", *(runs[k] for k in order),
                           "--out", str(target)) == 0
            with open(target, newline="") as fh:
                header, *rows, _ = csv.reader(fh)
            cells.append({(row[0], label): value for row in rows
                          for label, value in zip(header[1:], row[1:])})
        assert cells[0] == cells[1] and len(cells[0]) == 4

    def test_crosseval_space_mismatch(self, tmp_path, capsys):
        run_a = self.make_run(tmp_path)
        out_b = tmp_path / "other"
        assert run_cli("run", "--space", str(SPACES_DIR / "hnas_grammar.json"),
                       "--problem", "synthetic", "--min-budget", "3",
                       "--max-budget", "27", "--seed", "0",
                       "--out", str(out_b)) == 0
        rc = run_cli("report", "crosseval", "--runs", str(run_a), str(out_b))
        assert rc == 2

    def test_crosseval_unknown_size_parameter_exit_2(self, tmp_path, capsys):
        # a hand-edited resolved_problem is bad input, not a fault
        out = self.make_run(tmp_path)
        path = out / "manifest.resolved.json"
        manifest = json.loads(path.read_text())
        manifest["resolved_problem"]["size_parameters"] = ["nope"]
        path.write_text(json.dumps(manifest))
        assert run_cli("report", "crosseval", "--runs", str(out)) == 2
        assert "nope" in capsys.readouterr().err

    def test_pareto_missing_column_exit_2(self, tmp_path, capsys):
        out = self.make_run(tmp_path)
        path = out / "seed_0" / "history.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, [c for c in rows[0] if c != "run_seed"],
                                    extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)
        assert run_cli("report", "pareto", "--run", str(out)) == 2
        assert "run_seed" in capsys.readouterr().err

    def test_pareto_truncated_history_exit_2(self, tmp_path, capsys):
        out = self.make_run(tmp_path)
        line = cut_last_row(out / "seed_0" / "history.csv")
        assert run_cli("report", "pareto", "--run", str(out)) == 2
        assert f"line {line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("report", ["importance", "crosseval"])
    def test_out_in_a_missing_directory_exits_4_before_the_work(
            self, report, tmp_path, monkeypatch, capsys):
        def work(*args, **kwargs):
            pytest.fail("the report did its work before it wrote")

        out = self.make_run(tmp_path)
        for name in ("fanova_first_order", "cross_eval"):
            monkeypatch.setattr(analysis, name, work)
        flag = "--runs" if report == "crosseval" else "--run"
        # a file in a missing directory, then an existing directory
        for target, code in ((tmp_path / "missing" / "report.out", errno.ENOENT),
                             (out, errno.EISDIR)):
            assert run_cli("report", report, flag, str(out), "--out", str(target)) == 4
            assert capsys.readouterr().err.startswith(f"i/o error: [Errno {code}]")
        assert not (tmp_path / "missing").exists()

    def test_missing_run_dir(self, tmp_path):
        assert run_cli("report", "importance",
                       "--run", str(tmp_path / "nope")) == 2


def _write(path, text):
    path.write_text(text)
    return str(path)


class FailAtTopBudget:
    """A problem whose every evaluation at the top budget fails."""

    def __init__(self, inner):
        self.inner = inner
        self.space = inner.space

    def evaluate(self, config, budget, seed=0, previous_budget=None):
        if budget == self.inner.b_max:
            raise EvaluationFailed("no top-budget result")
        return self.inner.evaluate(config, budget, seed, previous_budget)

    def to_dict(self):
        return self.inner.to_dict()


def _nan_cost_run(tmp, run):
    history = run / "seed_0" / "history.csv"
    lines = history.read_text().splitlines()
    fields = lines[1].split(",")
    fields[6] = "nan"  # primary_cost of an ok trial
    lines[1] = ",".join(fields)
    history.write_text("\n".join(lines) + "\n")
    return str(run)


def _deep_manifest_run(tmp, run):
    (run / "manifest.resolved.json").write_text(DEEP_JSON)
    return str(run)


def _history_config(edit):
    """An INPUT_ERRORS case: ``report pareto`` on the finished run, whose
    first ``serialized_config`` ``edit`` turns into the text it reads."""
    def case(tmp, run):
        history = run / "seed_0" / "history.csv"
        with open(history, newline="") as fh:
            rows = list(csv.reader(fh))
        at = rows[0].index("serialized_config")
        rows[1][at] = edit(rows[1][at])
        with open(history, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return ["report", "pareto", "--run", str(run)]
    return case


def _config_edit(edit):
    """``edit`` of a ``serialized_config``'s parameters, as text."""
    return lambda text: json.dumps(edit(json.loads(text)), sort_keys=True)


def _manifest_run(tmp, payload):
    """A run whose manifest alone sets the seeds, the mode and the policy."""
    manifest = _write(tmp / "manifest.json", json.dumps(payload))
    return ["run", "--space", SPACE, "--eta", "3", "--min-budget", "3",
            "--max-budget", "27", "--out", str(tmp / "o"), "--manifest", manifest]


#: a JSON document nested too deeply for the decoder, which raises
#: RecursionError on it
DEEP_JSON = "[" * 100_000


def _space_case(edit):
    """An INPUT_ERRORS case: a run on the shipped space, which ``edit`` turns
    into the document the run loads."""
    def case(tmp, run):
        doc = edit(json.loads(Path(SPACE).read_text()))
        return small_run_args(tmp / "o", space=_write(tmp / "s.json", json.dumps(doc)))
    return case


def _extra_parameter(**fields):
    """The shipped space with one more parameter, a float on [0, 1] unless
    ``fields`` say otherwise."""
    param = {"name": "x", "kind": "float", "lo": 0, "hi": 1, "default": 1, **fields}
    return _space_case(lambda doc: {**doc, "parameters": doc["parameters"] + [param]})


def _grammar_section(**fields):
    """The shipped space with ``fields`` set in its grammar section; a field
    set to None is dropped."""
    return _space_case(lambda doc: {**doc, "grammar": {
        k: v for k, v in {**doc["grammar"], **fields}.items() if v is not None}})


def _manifest_setting(key, value):
    """An INPUT_ERRORS case: a small run whose manifest, not its flags, sets
    ``key`` to ``value``."""
    def case(tmp, run):
        args = small_run_args(tmp / "o")
        if "--" + key in args:
            at = args.index("--" + key)
            del args[at:at + 2]
        return args + ["--manifest", _write(tmp / "m.json", json.dumps({key: value}))]
    return case


def _run_record(edit, action="pareto"):
    """An INPUT_ERRORS case: ``report <action>`` on the finished run, whose
    manifest.resolved.json ``edit`` turns into the document it reads."""
    def case(tmp, run):
        path = run / "manifest.resolved.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        return ["report", action, "--run" if action == "pareto" else "--runs", str(run)]
    return case


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


#: command lines (built from a scratch directory and a finished run) that
#: exited 2 only through a bare ValueError catch before it was narrowed
INPUT_ERRORS = {
    "negative seed": lambda tmp, run: small_run_args(tmp / "o", seed="-1"),
    "seed not a number": lambda tmp, run: small_run_args(tmp / "o", seed="x"),
    "open seed range": lambda tmp, run: small_run_args(tmp / "o", seed="1.."),
    # each once a run of only the seeds before it, or of one seed twice
    # into the same directory
    "reversed seed range": lambda tmp, run: small_run_args(tmp / "o", seed="0,5..3"),
    "repeated seed": lambda tmp, run: small_run_args(tmp / "o", seed="1,1"),
    "repeated seed in a range": lambda tmp, run: small_run_args(tmp / "o", seed="0..2,2"),
    "manifest repeated seed": lambda tmp, run: _manifest_run(tmp, {"seeds": [1, 1]}),
    "reversed grammar seed range":
        lambda tmp, run: ["grammar", "sample", "--stages", "3", "--seeds", "0,5..3"],
    "negative noise": lambda tmp, run: small_run_args(tmp / "o") + ["--noise", "-1"],
    "zero curvature": lambda tmp, run: small_run_args(tmp / "o") + ["--curvature", "0"],
    "negative problem seed":
        lambda tmp, run: small_run_args(tmp / "o") + ["--problem-seed", "-1"],
    "zero workers": lambda tmp, run: small_run_args(tmp / "o") + ["--workers", "0"],
    "negative workers": lambda tmp, run: small_run_args(tmp / "o") + ["--workers", "-2"],
    "manifest seed": lambda tmp, run: _manifest_run(tmp, {"seeds": [-1]}),
    "manifest mode": lambda tmp, run: _manifest_run(tmp, {"mode": "x"}),
    "manifest policy": lambda tmp, run: _manifest_run(tmp, {"policy": "x"}),
    "manifest not JSON": lambda tmp, run: small_run_args(tmp / "o")
        + ["--manifest", _write(tmp / "m.json", "{not json")],
    "space not JSON": lambda tmp, run: small_run_args(
        tmp / "o", space=_write(tmp / "s.json", "{not json")),
    "manifest nested too deeply": lambda tmp, run: small_run_args(tmp / "o")
        + ["--manifest", _write(tmp / "m.json", DEEP_JSON)],
    "space nested too deeply": lambda tmp, run: small_run_args(
        tmp / "o", space=_write(tmp / "s.json", DEEP_JSON)),
    "run manifest nested too deeply":
        lambda tmp, run: ["report", "pareto", "--run", _deep_manifest_run(tmp, run)],
    "history config nested too deeply": _history_config(lambda text: DEEP_JSON),
    "unbalanced external command": lambda tmp, run: small_run_args(tmp / "o")
        + ["--problem", "external", "--external-cmd", "python 'x"],
    "NaN external timeout": lambda tmp, run: small_run_args(tmp / "o")
        + ["--problem", "external", "--external-cmd", "true", "--external-timeout", "nan"],
    "NaN noise": lambda tmp, run: small_run_args(tmp / "o") + ["--noise", "nan"],
    "NaN curvature": lambda tmp, run: small_run_args(tmp / "o") + ["--curvature", "nan"],
    "NaN hours per epoch":
        lambda tmp, run: small_run_args(tmp / "o") + ["--hours-per-epoch", "nan"],
    "infinite noise": lambda tmp, run: small_run_args(tmp / "o") + ["--noise", "inf"],
    "zero hours per epoch":
        lambda tmp, run: small_run_args(tmp / "o") + ["--hours-per-epoch", "0"],
    "zero external timeout": lambda tmp, run: small_run_args(tmp / "o")
        + ["--problem", "external", "--external-cmd", "true", "--external-timeout", "0"],
    "manifest external timeout": lambda tmp, run: _manifest_run(
        tmp, {"problem": "external", "external_cmd": "true", "external_timeout": -1}),
    "zero scale": lambda tmp, run: ["grammar", "count", "--stages", "3", "--scale", "0"],
    "short block profile":
        lambda tmp, run: ["grammar", "count", "--stages", "3", "--conv-blocks", "1"],
    "zero block count":
        lambda tmp, run: ["grammar", "count", "--stages", "3", "--conv-blocks", "0,1,1"],
    "zero limit": lambda tmp, run: ["grammar", "enumerate", "--stages", "3", "--limit", "0"],
    "negative grammar seed":
        lambda tmp, run: ["grammar", "sample", "--stages", "3", "--seeds", "-1"],
    "zero trees": lambda tmp, run: ["report", "importance", "--run", str(run), "--trees", "0"],
    "negative forest seed":
        lambda tmp, run: ["report", "importance", "--run", str(run), "--rf-seed", "-1"],
    "non-finite cost": lambda tmp, run: ["report", "pareto", "--run", _nan_cost_run(tmp, run)],
    # each once a traceback, an exit after the output directory was made,
    # or a run on a value the space file did not mean
    "string bound": _extra_parameter(lo="0"),
    "bool bound": _extra_parameter(lo=False),
    "infinite log bound": _extra_parameter(kind="log_float", lo=1, hi=float("inf")),
    "infinite integer bound": _extra_parameter(kind="integer", hi=float("inf")),
    "fractional integer bound": _extra_parameter(kind="integer", lo=1.5, hi=9, default=2),
    "integer bound beyond int64": _extra_parameter(kind="integer", hi=1e300),
    "infinite integer default": _extra_parameter(kind="integer", default=float("inf")),
    "grammar without n_stages_max": _grammar_section(n_stages_max=None),
    "string n_stages_max": _grammar_section(n_stages_max="abc"),
    "fractional n_stages_max": _grammar_section(n_stages_max=4.7),
    "string model_scale_max": _grammar_section(model_scale_max="2"),
    "block profile not a list": _grammar_section(default_blocks={"conv": 3}),
    "unknown grammar confidence": _grammar_section(confidence="extreme"),
    "grammar confidence not a string": _grammar_section(confidence=["low"]),
    "parameter confidence not a string": _extra_parameter(confidence=["low"]),
    "parameter name not a string": _extra_parameter(name=["a"]),
    "unknown block profile key": _grammar_section(default_blocks={"cnov": [9, 9, 9, 9]}),
    "grammar not an object": _space_case(lambda doc: {**doc, "grammar": [4]}),
    "parameter not an object":
        _space_case(lambda doc: {**doc, "parameters": doc["parameters"] + [5]}),
    "space not an object": _space_case(lambda doc: 5),
    "parameters not an array": _space_case(lambda doc: {**doc, "parameters": 5}),
    "values not an array": _extra_parameter(kind="categorical", values=5, default=5),
    # rung 0 of the recorded 3..27 ladder is budget 3, of 1..27 budget 1
    "replay table of another ladder": lambda tmp, run: small_run_args(tmp / "o") + [
        "--min-budget", "1", "--problem", "replay",
        "--replay-file", str(run / "seed_0" / "history.csv")],
    # each once a TypeError or a KeyError, or (a path no problem reads) a run
    "manifest space not a string": _manifest_setting("space", 5),
    "manifest out not a string": _manifest_setting("out", 5),
    "manifest replay file not a string": _manifest_setting("replay_file", 5),
    "manifest external command not a string": _manifest_setting("external_cmd", 5),
    "manifest not an object": lambda tmp, run: small_run_args(tmp / "o")
        + ["--manifest", _write(tmp / "m.json", "5")],
    "empty run manifest": _run_record(lambda doc: {}),
    "run manifest without eta": _run_record(_without("eta")),
    "run manifest without resolved_space": _run_record(_without("resolved_space")),
    "string min_budget in run manifest": _run_record(lambda doc: {**doc, "min_budget": "1"}),
    "problem record without noise": _run_record(lambda doc: {
        **doc, "resolved_problem": _without("noise")(doc["resolved_problem"])}, "crosseval"),
    # each once a report on a configuration outside the space, or an exit 3
    # when replayed
    "unknown parameter in history":
        _history_config(_config_edit(lambda doc: {**doc, "extra": 1})),
    "missing parameter in history": _history_config(_config_edit(_without("Activation"))),
    "value outside its domain in history":
        _history_config(_config_edit(lambda doc: {**doc, "Activation": "bogus"})),
    "string for a float in history":
        _history_config(_config_edit(lambda doc: {**doc, "Dropout Rate": "0.1"})),
    # each once read as the listed value it equals
    "bool for an ordinal in history":
        _history_config(_config_edit(lambda doc: {**doc, "Model Scale": True})),
    "float for an int ordinal in history":
        _history_config(_config_edit(lambda doc: {**doc, "Model Scale": 1.0})),
    "float for an integer in history":
        _history_config(_config_edit(lambda doc: {**doc, "Base #Features": 32.0})),
}

#: what the message of an INPUT_ERRORS case says of the key it names
NAMED_KEYS = {
    "manifest space not a string": "space must be",
    "manifest out not a string": "out must be",
    "manifest replay file not a string": "replay_file must be",
    "manifest external command not a string": "external_cmd must be",
    "empty run manifest": "'eta'",
    "run manifest without eta": "'eta'",
    "run manifest without resolved_space": "resolved_space",
    "string min_budget in run manifest": "min_budget must be",
    "problem record without noise": "'noise'",
    "unknown parameter in history": "line 2: unknown parameter 'extra'",
    "missing parameter in history": "line 2: missing value for Activation",
    "value outside its domain in history": "line 2: Activation: 'bogus' outside domain",
    "string for a float in history": "line 2: Dropout Rate: '0.1' outside domain",
    "bool for an ordinal in history": "line 2: Model Scale: True outside domain",
    "float for an int ordinal in history": "line 2: Model Scale: 1.0 outside domain",
    "float for an integer in history": "line 2: Base #Features: 32.0 outside domain",
}

#: manifest values of the wrong type, each once an exit 1 or a silent run
WRONG_TYPES = [
    ({"eta": "x"}, "eta"),
    ({"noise": "a"}, "noise"),
    ({"optimum": "x"}, "optimum"),
    ({"continuation": "no"}, "continuation"),
    ({"workers": True}, "workers"),
    ({"min_budget": 3.0}, "min_budget"),
    ({"seeds": 5}, "seeds"),
]


#: a flag that only another action reads, each once accepted and ignored;
#: R stands for a finished run
FOREIGN_FLAGS = [
    "report pareto --run R --trees 0",
    "report pareto --run R --rf-seed -5",
    "report pareto --run R --runs R",
    "report importance --run R --runs X",
    "report crosseval --runs R --trees 4",
    "grammar count --stages 3 --limit 0",
    "grammar count --stages 3 --seeds x",
    "grammar enumerate --stages 2 --mode prior",
    "grammar sample --stages 3 --limit 5",
]


class TestErrorExits:
    @pytest.fixture(scope="class")
    def finished_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("finished") / "run"
        assert run_cli(*small_run_args(out)) == 0
        return out

    @pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
    def test_input_error_exits_2(self, case, tmp_path, finished_run, capsys):
        run = tmp_path / "run"
        run.mkdir()
        for name in ("manifest.resolved.json", "seed_0/history.csv"):
            (run / name).parent.mkdir(exist_ok=True)
            (run / name).write_bytes((finished_run / name).read_bytes())
        assert run_cli(*INPUT_ERRORS[case](tmp_path, run)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and NAMED_KEYS.get(case, "") in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", FOREIGN_FLAGS)
    def test_flag_of_another_action_is_a_usage_error(
            self, line, tmp_path, finished_run, capsys):
        run = tmp_path / "run"
        kept = ["manifest.resolved.json", "seed_0/history.csv"]
        for name in kept:
            (run / name).parent.mkdir(parents=True, exist_ok=True)
            (run / name).write_bytes((finished_run / name).read_bytes())
        with pytest.raises(SystemExit) as info:
            run_cli(*[str(run) if arg == "R" else arg for arg in line.split()])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err
        written = [p.relative_to(run).as_posix() for p in run.rglob("*") if p.is_file()]
        assert sorted(written) == kept

    @staticmethod
    def _manifest_only_run(tmp, payload):
        """A run whose manifest alone sets everything but the space and the
        output root."""
        manifest = {"seeds": [0], "eta": 3, "min_budget": 3, "max_budget": 27}
        path = _write(tmp / "manifest.json", json.dumps({**manifest, **payload}))
        return ["run", "--space", SPACE, "--out", str(tmp / "o"), "--manifest", path]

    @pytest.mark.parametrize("payload, key", WRONG_TYPES)
    def test_manifest_value_of_wrong_type_exits_2(self, payload, key, tmp_path, capsys):
        assert run_cli(*self._manifest_only_run(tmp_path, payload)) == 2
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")
        assert not (tmp_path / "o").exists()

    def test_manifest_int_for_float_runs(self, tmp_path):
        payload = {"noise": 0, "curvature": 3, "external_timeout": 5}
        assert run_cli(*self._manifest_only_run(tmp_path, payload)) == 0

    @pytest.mark.parametrize("key", ["name", "default"])
    def test_space_entry_without_key_exits_2(self, key, tmp_path, capsys):
        entry = {"name": "a", "kind": "float", "lo": 0, "hi": 1, "default": 0.5}
        del entry[key]
        space = _write(tmp_path / "space.json", json.dumps({"parameters": [entry]}))
        assert run_cli(*small_run_args(tmp_path / "o", space=space)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parameter ") and f"no {key!r}" in err

    def test_malformed_block_profile_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("grammar", "count", "--stages", "3", "--conv-blocks", "a")
        assert info.value.code == 2
        assert "--conv-blocks" in capsys.readouterr().err

    @pytest.mark.parametrize("module, name", [
        (priorband, "select_top_k"),  # inside run()
        (analysis, "write_history_csv"),  # inside the export
    ])
    def test_plain_value_error_propagates(self, module, name, tmp_path, monkeypatch):
        def fault(*args, **kwargs):
            raise ValueError("a fault in the program")

        monkeypatch.setattr(module, name, fault)
        with pytest.raises(ValueError, match="a fault in the program"):
            run_cli(*small_run_args(tmp_path / "out"))
