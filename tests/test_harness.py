import csv
import json
import math
import shlex
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jahsband import configspace as cs
from jahsband.analysis import export_reports
from jahsband.harness import (
    BudgetOutOfRangeError,
    EvaluationFailed,
    EvaluatorReportedFailure,
    EvaluatorTimeout,
    ExternalEvaluator,
    InvalidProblemError,
    MalformedRowError,
    MissingEntryError,
    ProtocolError,
    RecordedFailure,
    ReplayProblem,
    ShapeMismatchError,
    SyntheticProblem,
    config_key,
    dsc,
)
from jahsband.moo import CostVector
from jahsband.priorband import RunHistory, read_history_csv, run, write_history_csv
from jahsband.scheduler import Trial, budget_ladder
from conftest import float_space
import fault_stub
ECHO_EVALUATOR = """\
import sys, json
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "status": "ok",
                      "objectives": {"primary": 0.25,
                                     "runtime_hours": req["budget"] * 0.001}}),
          flush=True)
"""
FAIL_EVALUATOR = """\
import sys, json
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "status": "failed", "error": "boom"}),
          flush=True)
"""
WRONG_ID_EVALUATOR = """\
import sys, json
for line in sys.stdin:
    json.loads(line)
    print(json.dumps({"id": "bogus", "status": "ok",
                      "objectives": {"primary": 0.0, "runtime_hours": 0.0}}),
          flush=True)
"""
SLEEPY_EVALUATOR = """\
import sys, time
sys.stdin.readline()
time.sleep(30)
"""
# slow on the first request it ever sees (the marker file outlives the
# process), prompt on every later one
SLOW_ONCE_EVALUATOR = """\
import sys, json, os, time
marker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "slow-done")
for line in sys.stdin:
    req = json.loads(line)
    if not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(1.5)
    print(json.dumps({"id": req["id"], "status": "ok",
                      "objectives": {"primary": 0.5, "runtime_hours": 1.0}}),
          flush=True)
"""
# answers one request, then exits
ONE_SHOT_EVALUATOR = """\
import sys, json
req = json.loads(sys.stdin.readline())
print(json.dumps({"id": req["id"], "status": "ok",
                  "objectives": {"primary": 0.5, "runtime_hours": 1.0}}),
      flush=True)
"""
# prints one stray line (STRAY) before its second reply
CHATTY_EVALUATOR = """\
import sys, json
for n, line in enumerate(sys.stdin):
    req = json.loads(line)
    if n == 1:
        print(STRAY, flush=True)
    print(json.dumps({"id": req["id"], "status": "ok",
                      "objectives": {"primary": 0.5, "runtime_hours": 1.0}}),
          flush=True)
"""
# answers every request with valid JSON that is not an object
LIST_EVALUATOR = """\
import sys
for line in sys.stdin:
    print("[]", flush=True)
"""
# writes REPLY's bytes as its answer to every request
RAW_REPLY_EVALUATOR = """\
import sys
for line in sys.stdin:
    sys.stdout.buffer.write(REPLY)
    sys.stdout.flush()
"""
# a trainer behind a wrapper script: it starts a process that appends to the
# heartbeat file, never reads stdin and keeps stdout open (a data loader,
# say), then answers every request, or with "hang" none
WRAPPED_TRAINER = """\
import json, os, subprocess, sys, time
stub, heartbeat, mode = sys.argv[1:]
subprocess.Popen([sys.executable, "-S", stub, "--beat", heartbeat], stdin=subprocess.DEVNULL)
while not (os.path.exists(heartbeat) and os.path.getsize(heartbeat)):
    time.sleep(0.01)
for line in sys.stdin:
    req = json.loads(line)
    if mode == "hang":
        time.sleep(30)
    print(json.dumps({"id": req["id"], "status": "ok",
                      "objectives": {"primary": 0.5, "runtime_hours": 1.0}}),
          flush=True)
"""
FAULT_STUB = str(Path(__file__).with_name("fault_stub.py"))
def make_evaluator(tmp_path, body, space, b_max=100, timeout=60.0):
    script = tmp_path / "evaluator.py"
    script.write_text(body)
    return ExternalEvaluator([sys.executable, str(script)], space, b_max,
                             timeout=timeout)
def wrapped_trainer(tmp_path, mode, space, timeout=60.0):
    """An evaluator on WRAPPED_TRAINER run through ``sh -c``, and the
    heartbeat file of the trainer's own child."""
    script = tmp_path / "trainer.py"
    script.write_text(WRAPPED_TRAINER)
    heartbeat = tmp_path / "heartbeat"
    args = [sys.executable, str(script), FAULT_STUB, str(heartbeat), mode]
    command = ["sh", "-c", f"{shlex.join(args)}; true"]
    return ExternalEvaluator(command, space, 9, timeout=timeout), heartbeat
def assert_all_stopped(heartbeat, threads):
    """No process the evaluator started is left, so the heartbeat file has
    stopped growing, and no thread that was not in ``threads`` runs."""
    time.sleep(0.05)  # for the killed processes to die
    size = heartbeat.stat().st_size
    time.sleep(5 * fault_stub.BEAT_S)
    assert heartbeat.stat().st_size == size > 0
    assert set(threading.enumerate()) <= threads
class TestDsc:
    def test_perfect_overlap(self):
        x = np.ones((3, 3, 3), dtype=bool)
        assert dsc(x, x) == 1.0
    def test_disjoint(self):
        x = np.zeros((2, 8), dtype=bool)
        y = np.zeros((2, 8), dtype=bool)
        x[0] = True
        y[1] = True
        assert dsc(x, y) == 0.0
    def test_partial_overlap(self):
        x = np.zeros(16, dtype=bool)
        y = np.zeros(16, dtype=bool)
        x[:4] = True  # |X| = 4
        y[1:7] = True  # |Y| = 6, overlap 3
        assert dsc(x, y) == pytest.approx(0.6)
    def test_both_empty(self):
        empty = np.zeros((4, 4), dtype=bool)
        assert dsc(empty, empty) == 1.0
    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            dsc(np.zeros((2, 3), bool), np.zeros((3, 2), bool))
    def test_symmetry(self, rng):
        for _ in range(200):
            x = rng.random((5, 5)) < 0.4
            y = rng.random((5, 5)) < 0.4
            assert dsc(x, y) == dsc(y, x)
class TestSyntheticProblem:
    def setup_method(self):
        self.space = float_space(4)
        self.optimum = {f"p{i}": 0.3 for i in range(4)}
        self.problem = SyntheticProblem.from_space(
            self.space, optimum=self.optimum, b_max=1000,
            size_parameters=("p3",),
        )
    def test_zero_cost_at_optimum_full_budget(self):
        config = cs.Configuration({f"p{i}": 0.3 for i in range(4)})
        assert self.problem.evaluate(config, 1000).primary == 0.0
    def test_runtime_linear_in_budget(self):
        config = self.space.default_configuration()
        one = self.problem.evaluate(config, 250)
        two = self.problem.evaluate(config, 500)
        assert two.runtime_hours == pytest.approx(2 * one.runtime_hours)
    def test_primary_non_increasing_in_budget(self):
        config = cs.Configuration({f"p{i}": 0.6 for i in range(4)})
        values = [
            self.problem.evaluate(config, b).primary
            for b in range(10, 1001, 10)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    def test_declaration_order_irrelevant(self):
        specs = [
            cs.ParameterSpec(n, "float", lo=0.0, hi=1.0, default=0.5)
            for n in ("a", "b")
        ]
        fwd = cs.build_space(specs)
        rev = cs.build_space(specs[::-1])
        opt = {"a": 0.2, "b": 0.7}
        p_fwd = SyntheticProblem.from_space(fwd, optimum=opt, b_max=100)
        p_rev = SyntheticProblem.from_space(rev, optimum=opt, b_max=100)
        config = cs.Configuration({"a": 0.4, "b": 0.9})
        assert p_fwd.evaluate(config, 50) == p_rev.evaluate(config, 50)
    def test_unimodal_along_each_axis(self):
        for axis in range(4):
            grid = np.linspace(0, 1, 101)
            costs = []
            for g in grid:
                values = dict(self.optimum)
                values[f"p{axis}"] = float(g)
                costs.append(
                    self.problem.evaluate(cs.Configuration(values), 1000).primary
                )
            best = int(np.argmin(costs))
            assert grid[best] == pytest.approx(0.3, abs=0.011)
            diffs = np.diff(costs)
            assert np.all(diffs[: best - 1] <= 1e-12)
            assert np.all(diffs[best + 1:] >= -1e-12)
    def test_noise_deterministic_and_budget_scaled(self):
        noisy = SyntheticProblem.from_space(
            self.space, optimum=self.optimum, b_max=1000, noise=0.05
        )
        config = self.space.default_configuration()
        a = noisy.evaluate(config, 100, seed=1)
        b = noisy.evaluate(config, 100, seed=1)
        c = noisy.evaluate(config, 100, seed=2)
        assert a == b
        assert a != c
    def test_fingerprint_pinned(self):
        # the fingerprint seeds every noise stream; a new value would change
        # every noisy history
        noisy = SyntheticProblem.from_space(
            float_space(2), optimum={"p0": 0.3, "p1": 0.7}, b_max=100,
            noise=0.1, size_parameters=("p1",))
        assert noisy.fingerprint() == (
            "44d689dd58b61b67eefe05fd2c8caff40c77670702cc333aeab12cecbecdba5c")
        config = noisy.space.default_configuration()
        assert noisy.evaluate(config, 10, seed=3).primary == 0.6869381203600035
        assert noisy.without_noise().fingerprint() != noisy.fingerprint()
    def test_budget_out_of_range(self):
        config = self.space.default_configuration()
        with pytest.raises(BudgetOutOfRangeError):
            self.problem.evaluate(config, 0)
        with pytest.raises(BudgetOutOfRangeError):
            self.problem.evaluate(config, 1001)
    def test_optimum_must_be_in_unit_cube(self):
        with pytest.raises(ValueError):
            SyntheticProblem.from_space(self.space, optimum={"p0": 1.5})
    def test_unknown_size_parameter_rejected(self):
        with pytest.raises(InvalidProblemError, match="nope"):
            SyntheticProblem.from_space(self.space, size_parameters=("nope",))
    @pytest.mark.parametrize("key, value", [
        (key, value)
        for key in ("curvature", "hours_per_epoch", "noise")
        for value in (math.nan, math.inf, -1.0)
    ] + [("curvature", 0.0), ("hours_per_epoch", 0.0)])
    def test_setting_out_of_range_rejected(self, key, value):
        # NaN once passed every check: noise NaN ran as noise 0, and a NaN
        # curvature or hours_per_epoch failed every trial of the run
        with pytest.raises(InvalidProblemError, match=key):
            SyntheticProblem.from_space(self.space, **{key: value})
    @pytest.mark.parametrize("weight", [math.nan, math.inf, -1.0])
    def test_weight_out_of_range_rejected(self, weight):
        weights = {"p0": 1.0, "p1": weight}
        with pytest.raises(InvalidProblemError, match="weights"):
            SyntheticProblem.from_space(float_space(2), weights=weights)
    def test_categorical_coordinates_rescaled(self):
        space = cs.build_space([
            cs.ParameterSpec("c", "categorical", values=("a", "b", "c"),
                             default="c"),
        ])
        problem = SyntheticProblem.from_space(space, optimum="default", b_max=1)
        assert problem.optimum == {"c": 1.0}
        assert problem.evaluate(cs.Configuration({"c": "c"}), 1).primary == 0.0
LADDER = budget_ladder(1, 27, 3)
def write_history(path, space, trials):
    """history.csv of the given trials, as a run would export it."""
    history = RunHistory(space, LADDER)
    for trial in trials:
        history.add(trial)
    write_history_csv(history, path)
    return path
def replay(path, space):
    return ReplayProblem.from_history(read_history_csv(path, space, LADDER))
class FlakyProblem:
    """A SyntheticProblem that, keyed by a hash of configuration and budget,
    fails one evaluation in seven and answers NaN for another."""
    def __init__(self, inner):
        self.inner = inner
        self.space = inner.space
    def evaluate(self, config, budget, seed=0, previous_budget=None):
        draw = zlib.crc32(f"{config_key(config)}|{budget}".encode()) % 7
        if draw == 0:
            raise EvaluatorReportedFailure("flaky trainer")
        if draw == 1:
            return CostVector(math.nan, 1.0)
        return self.inner.evaluate(config, budget, seed, previous_budget)
class TestReplay:
    @pytest.mark.parametrize("mode", ["priorband", "regularized"])
    def test_run_with_failed_trials_replays_byte_identically(self, tmp_path, mode):
        space = cs.load_space(
            Path(__file__).resolve().parents[1] / "spaces" / "jahs_table3_4.json")
        ladder = budget_ladder(1, 27, 3)
        problem = FlakyProblem(SyntheticProblem.from_space(space, b_max=27))
        original = run(space, problem, ladder, mode=mode, seed=3)
        statuses = {t.status for t in original.history.trials}
        assert statuses == {"ok", "failed"}
        first = export_reports(original, tmp_path / "original")
        replay = ReplayProblem.from_history(read_history_csv(first[0], space, ladder))
        replayed = run(space, replay, ladder, mode=mode, seed=3)
        second = export_reports(replayed, tmp_path / "replayed")
        for f1, f2 in zip(first, second):
            assert f1.read_bytes() == f2.read_bytes()
    def test_single_row_lookup(self, tmp_path):
        space = float_space(1)
        config = cs.Configuration({"p0": 0.25})
        trial = Trial(0, config, 1, 2, 9, "random", cost=CostVector(0.5, 1.25))
        path = write_history(tmp_path / "history.csv", space, [trial])
        problem = replay(path, space)
        assert problem.evaluate(config, 9) == CostVector(0.5, 1.25)
    def test_missing_budget(self, tmp_path):
        space = float_space(1)
        config = cs.Configuration({"p0": 0.25})
        trial = Trial(0, config, 1, 2, 9, "random", cost=CostVector(0.5, 1.0))
        path = write_history(tmp_path / "history.csv", space, [trial])
        problem = replay(path, space)
        with pytest.raises(MissingEntryError):
            problem.evaluate(config, 27)
        with pytest.raises(MissingEntryError):
            problem.evaluate(cs.Configuration({"p0": 0.5}), 9)
    def test_recorded_failure_replays_as_failure(self, tmp_path):
        space = float_space(1)
        failed = cs.Configuration({"p0": 0.25})
        ok = cs.Configuration({"p0": 0.75})
        path = write_history(tmp_path / "history.csv", space, [
            Trial(1, failed, 2, 1, 3, "random"),
            Trial(2, ok, 2, 1, 3, "random", cost=CostVector(0.5, 1.0)),
        ])
        problem = replay(path, space)
        with pytest.raises(RecordedFailure) as info:
            problem.evaluate(failed, 3)
        assert isinstance(info.value, EvaluationFailed)
        assert problem.evaluate(ok, 3) == CostVector(0.5, 1.0)
    def test_first_row_per_key_wins(self, tmp_path):
        space = float_space(1)
        config = cs.Configuration({"p0": 0.25})
        path = write_history(tmp_path / "history.csv", space, [
            Trial(1, config, 2, 1, 3, "random", cost=CostVector(0.5, 1.0)),
            Trial(2, config, 2, 1, 3, "random"),
            Trial(3, config, 2, 1, 3, "random", cost=CostVector(0.1, 2.0)),
        ])
        assert replay(path, space).evaluate(config, 3) == CostVector(0.5, 1.0)
    def test_old_table_format_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "config,budget,primary,runtime_hours\n"
            '"{""arch"": null, ""params"": {""p0"": 0.25}}",9,0.5,1.25\n'
        )
        with pytest.raises(MalformedRowError):
            read_history_csv(path, float_space(1), LADDER)
    def test_malformed_row(self, tmp_path):
        space = float_space(1)
        trial = Trial(0, cs.Configuration({"p0": 0.25}), 1, 2, 9, "random",
                      cost=CostVector(0.5, 1.0))
        path = write_history(tmp_path / "history.csv", space, [trial])
        header, row = path.read_text().splitlines()
        path.write_text(header + "\n" + row.replace(",9,", ",x,", 1) + "\n")
        with pytest.raises(MalformedRowError, match="line 2"):
            replay(path, space)
    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(MalformedRowError):
            read_history_csv(path, float_space(1), LADDER)
    @pytest.mark.parametrize("cut", [20, -1])
    def test_row_cut_short(self, tmp_path, cut):
        # -1 drops only the (empty) architecture field's separator
        space = float_space(1)
        path = write_history(tmp_path / "history.csv", space, [
            Trial(0, cs.Configuration({"p0": 0.25}), 1, 2, 9, "random",
                  cost=CostVector(0.5, 1.0)),
        ] * 2)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1] + [lines[-1][:cut]]) + "\n")
        with pytest.raises(MalformedRowError, match="line 3"):
            read_history_csv(path, space, LADDER)
    @pytest.mark.parametrize("column, value", [
        ("run_seed", "x"),
        ("run_seed", "7"),
        ("charged_epochs_cumulative", "1"),  # falls by 5
        ("charged_epochs_cumulative", "6"),  # grows by 0
        ("charged_epochs_cumulative", "10"),  # grows by 4 at budget 3
        ("rung", "0"),  # budget 3 is rung 1 of 1..27
        ("rung", "4"),  # past s_max
        ("rung", "-1"),
        ("budget_epochs", "9"),  # rung 2's budget
        ("budget_epochs", "5"),  # on no rung
        ("bracket", "5"),  # past s_max
        ("bracket", "-2"),
        ("bracket", "1"),  # starts at rung 2
        ("bracket", "-1"),  # the default's row is at the top rung
        ("primary_cost", "1.5"),  # run() records it as a failed trial
        ("runtime_hours", "-2.0"),
    ])
    def test_row_no_run_writes(self, tmp_path, column, value):
        space = float_space(1)
        path = write_history(tmp_path / "history.csv", space, [
            Trial(i, cs.Configuration({"p0": 0.25}), 2, 1, 3, "random",
                  cost=CostVector(0.5, 1.0)) for i in range(3)
        ])
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert [r[header.index("charged_epochs_cumulative")] for r in rows] == ["3", "6", "9"]
        rows[2][header.index(column)] = value
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        with pytest.raises(MalformedRowError, match="line 4"):
            read_history_csv(path, space, LADDER)
    @pytest.mark.parametrize("changes, previous", [
        ({"rung": "2", "budget_epochs": "9", "charged_epochs_cumulative": "12"}, 3),
        ({"bracket": "-1", "rung": "3", "budget_epochs": "27",
          "charged_epochs_cumulative": "33"}, None),  # the default's row
        # continued from 7, which is no rung's budget
        ({"rung": "2", "budget_epochs": "9", "charged_epochs_cumulative": "8"}, "line 4"),
        # rung 2 of bracket 1 is its first: it charges its whole budget
        ({"bracket": "1", "rung": "2", "budget_epochs": "9",
          "charged_epochs_cumulative": "12"}, "line 4"),
    ])
    def test_row_continued_from_the_rung_below(self, tmp_path, changes, previous):
        space = float_space(1)
        path = write_history(tmp_path / "history.csv", space, [
            Trial(i, cs.Configuration({"p0": 0.25}), 2, 1, 3, "random",
                  cost=CostVector(0.5, 1.0)) for i in range(3)
        ])
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        for column, value in changes.items():
            rows[2][header.index(column)] = value
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
        if isinstance(previous, str):
            with pytest.raises(MalformedRowError, match=previous):
                read_history_csv(path, space, LADDER)
        else:
            assert read_history_csv(path, space, LADDER).trials[2].previous_budget == previous
    @pytest.mark.parametrize("old, new", [
        (",0.5,1.0,9,ok,", ",,1.0,9,ok,"),
        (",0.5,1.0,9,ok,", ",0.5,1.0,9,failed,"),
        (",0.5,1.0,9,ok,", ",0.5,1.0,9,pending,"),
        (",0.5,1.0,9,ok,", ",,,9,crashed,"),
        (",0.5,1.0,9,ok,", ",,1.0,9,failed,"),
        ('"{""p0"": 0.25}"', '"{""p0"": 0.25"'),
        ('"{""p0"": 0.25}"', "[0.25]"),
    ])
    def test_field_does_not_parse(self, tmp_path, old, new):
        space = float_space(1)
        path = write_history(tmp_path / "history.csv", space, [
            Trial(0, cs.Configuration({"p0": 0.25}), 1, 2, 9, "random",
                  cost=CostVector(0.5, 1.0)),
        ])
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        with pytest.raises(MalformedRowError, match="line 2"):
            read_history_csv(path, space, LADDER)
    def test_architecture_needs_a_grammar(self, tmp_path):
        space = cs.load_space(
            Path(__file__).resolve().parents[1] / "spaces" / "hnas_grammar.json")
        path = write_history(tmp_path / "history.csv", space, [
            Trial(0, space.default_configuration(), 1, 2, 9, "random",
                  cost=CostVector(0.5, 1.0)),
        ])
        assert read_history_csv(path, space, LADDER).trials[0].configuration == (
            space.default_configuration())
        with pytest.raises(MalformedRowError, match="line 2: .*no grammar"):
            read_history_csv(path, cs.build_space(space.parameters), LADDER)
        path.write_text(path.read_text().replace("U-Net(", "W-Net(", 1))
        with pytest.raises(MalformedRowError, match="line 2"):
            read_history_csv(path, space, LADDER)
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**16), mode=st.sampled_from(["priorband", "regularized"]))
    def test_write_read_round_trip(self, seed, mode):
        space = float_space(3)
        problem = FlakyProblem(SyntheticProblem.from_space(space, b_max=27))
        history = run(space, problem, LADDER, mode=mode, seed=seed).history
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "history.csv"
            write_history_csv(history, path)
            loaded = read_history_csv(path, space, LADDER)
        def fields(h):
            return [(t.config_id, t.configuration, t.budget, t.cost, t.status,
                     t.previous_budget) for t in h.trials]
        assert fields(loaded) == fields(history)
class TestExternalEvaluator:
    def test_echo_objectives(self, tmp_path):
        space = float_space(1)
        with make_evaluator(tmp_path, ECHO_EVALUATOR, space) as evaluator:
            result = evaluator.evaluate(space.default_configuration(), 40)
        assert result == CostVector(0.25, 0.04)
    def test_reported_failure(self, tmp_path):
        space = float_space(1)
        with make_evaluator(tmp_path, FAIL_EVALUATOR, space) as evaluator:
            with pytest.raises(EvaluatorReportedFailure):
                evaluator.evaluate(space.default_configuration(), 10)
    def test_mismatched_id(self, tmp_path):
        space = float_space(1)
        with make_evaluator(tmp_path, WRONG_ID_EVALUATOR, space) as evaluator:
            with pytest.raises(ProtocolError):
                evaluator.evaluate(space.default_configuration(), 10)
    def test_timeout(self, tmp_path):
        space = float_space(1)
        with make_evaluator(tmp_path, SLEEPY_EVALUATOR, space,
                            timeout=0.3) as evaluator:
            with pytest.raises(EvaluatorTimeout):
                evaluator.evaluate(space.default_configuration(), 10)
    def test_late_reply_does_not_poison_later_requests(self, tmp_path):
        space = float_space(1)
        config = space.default_configuration()
        with make_evaluator(tmp_path, SLOW_ONCE_EVALUATOR, space,
                            timeout=0.5) as evaluator:
            with pytest.raises(EvaluatorTimeout):
                evaluator.evaluate(config, 10)
            for _ in range(3):
                assert evaluator.evaluate(config, 10) == CostVector(0.5, 1.0)
    def test_dead_child_costs_one_request(self, tmp_path):
        space = float_space(1)
        config = space.default_configuration()
        outcomes = []
        with make_evaluator(tmp_path, ONE_SHOT_EVALUATOR, space) as evaluator:
            for _ in range(8):
                try:
                    outcomes.append(evaluator.evaluate(config, 10))
                except ProtocolError:
                    outcomes.append(None)
        assert outcomes[0] == CostVector(0.5, 1.0)
        assert all(a is not None or b is not None
                   for a, b in zip(outcomes, outcomes[1:]))
        assert outcomes.count(CostVector(0.5, 1.0)) >= 4
    @pytest.mark.parametrize("stray", ["epoch 1 done", '{"epoch": 1}'])
    def test_stray_line_costs_one_request(self, tmp_path, stray):
        space = float_space(1)
        config = space.default_configuration()
        outcomes = []
        body = CHATTY_EVALUATOR.replace("STRAY", repr(stray))
        with make_evaluator(tmp_path, body, space) as evaluator:
            for _ in range(8):
                try:
                    outcomes.append(evaluator.evaluate(config, 10))
                except ProtocolError:
                    outcomes.append(None)
        assert outcomes[0] == CostVector(0.5, 1.0)
        assert all(a is not None or b is not None
                   for a, b in zip(outcomes, outcomes[1:]))
        assert outcomes.count(None) >= 2
    def test_non_object_reply_costs_one_trial(self, tmp_path):
        space = float_space(1)
        with make_evaluator(tmp_path, LIST_EVALUATOR, space, b_max=3) as evaluator:
            with pytest.raises(ProtocolError, match="malformed"):
                evaluator.evaluate(space.default_configuration(), 3)
            result = run(space, evaluator, budget_ladder(1, 3, 3), seed=0)
        assert len(result.history) > 1
        assert all(t.status == "failed" for t in result.history.trials)
        assert result.final_incumbent is None
    def test_spawn_failure(self):
        with pytest.raises(EvaluationFailed):
            ExternalEvaluator(["/no/such/binary"], float_space(1), 10)
    def test_previous_budget_forwarded(self, tmp_path):
        body = """\
import sys, json
for line in sys.stdin:
    req = json.loads(line)
    prev = req["previous_budget"] or 0
    print(json.dumps({"id": req["id"], "status": "ok",
                      "objectives": {"primary": 0.1,
                                     "runtime_hours": float(req["budget"] - prev)}}),
          flush=True)
"""
        space = float_space(1)
        with make_evaluator(tmp_path, body, space) as evaluator:
            config = space.default_configuration()
            fresh = evaluator.evaluate(config, 30)
            resumed = evaluator.evaluate(config, 30, previous_budget=10)
        assert fresh.runtime_hours == 30.0
        assert resumed.runtime_hours == 20.0
    def test_non_utf8_reply_is_malformed(self, tmp_path):
        space = float_space(1)
        body = RAW_REPLY_EVALUATOR.replace("REPLY", repr(b"\xff\xfe\n"))
        with make_evaluator(tmp_path, body, space) as evaluator:
            with pytest.raises(ProtocolError, match="malformed"):
                evaluator.evaluate(space.default_configuration(), 10)
    def test_crlf_terminated_reply_parses(self, tmp_path):
        space = float_space(1)
        reply = b'{"id": "eval-1", "status": "ok", "objectives": ' \
                b'{"primary": 0.5, "runtime_hours": 1.0}}\r\n'
        body = RAW_REPLY_EVALUATOR.replace("REPLY", repr(reply))
        with make_evaluator(tmp_path, body, space) as evaluator:
            assert evaluator.evaluate(space.default_configuration(), 10) == CostVector(0.5, 1.0)
    @pytest.mark.parametrize("timeout", [0, -1.0, math.nan, math.inf])
    def test_timeout_must_be_finite_and_positive(self, timeout):
        # checked before the spawn, which would fail with EvaluationFailed
        with pytest.raises(InvalidProblemError, match="timeout"):
            ExternalEvaluator(["/no/such/binary"], float_space(1), 10, timeout=timeout)
    def test_evaluate_after_close_starts_a_fresh_child(self, tmp_path):
        space = float_space(1)
        evaluator = make_evaluator(tmp_path, ECHO_EVALUATOR, space)
        for _ in range(2):
            assert evaluator.evaluate(space.default_configuration(), 40) == CostVector(0.25, 0.04)
            evaluator.close()
        evaluator.close()
class TestWrappedTrainer:
    """A trainer started through ``sh -c`` whose own child keeps running:
    every way out of the evaluator must end the whole process group."""
    def test_timeout_kills_the_group_promptly(self, tmp_path):
        space = float_space(1)
        threads = set(threading.enumerate())
        evaluator, heartbeat = wrapped_trainer(tmp_path, "hang", space, timeout=0.5)
        with evaluator:
            start = time.monotonic()
            with pytest.raises(EvaluatorTimeout):
                evaluator.evaluate(space.default_configuration(), 9)
            assert time.monotonic() - start < 1.0
            assert_all_stopped(heartbeat, threads)
    def test_close_kills_a_child_that_ignores_stdin_eof(self, tmp_path):
        space = float_space(1)
        threads = set(threading.enumerate())
        evaluator, heartbeat = wrapped_trainer(tmp_path, "answer", space)
        with evaluator:
            assert evaluator.evaluate(space.default_configuration(), 9) == CostVector(0.5, 1.0)
        assert_all_stopped(heartbeat, threads)
    def test_interrupt_inside_run_kills_the_group(self, tmp_path):
        space = float_space(1)
        threads = set(threading.enumerate())
        evaluator, heartbeat = wrapped_trainer(tmp_path, "answer", space)
        class Interrupting:
            """Ctrl-C arriving during the fifth evaluation."""
            def __init__(self):
                self.space, self.calls = space, 0
            def evaluate(self, *args, **kwargs):
                self.calls += 1
                if self.calls == 5:
                    raise KeyboardInterrupt
                return evaluator.evaluate(*args, **kwargs)
        with pytest.raises(KeyboardInterrupt):
            with evaluator:
                run(space, Interrupting(), budget_ladder(1, 9, 3), seed=0)
        assert_all_stopped(heartbeat, threads)
class FaultTwin:
    """In-process twin of ``fault_stub``: the same objectives, and
    EvaluationFailed on exactly the requests its schedule makes fail."""
    def __init__(self, space, schedule):
        self.space, self.schedule = space, schedule
    def evaluate(self, config, budget, seed=0, previous_budget=None):
        params = json.loads(json.dumps(config.assignments))  # as the stub reads them
        arch = config.serialized_architecture or None
        if fault_stub.fault(params, arch, budget, self.schedule) in fault_stub.FAILURES:
            raise EvaluationFailed("scheduled fault")
        return CostVector(*fault_stub.objectives(params, arch, budget))
#: what evaluate does when the stub answers every request with one fault;
#: NaN and out-of-range objectives are returned and rejected by run()
FAULT_OUTCOMES = {
    "exit": ProtocolError, "hang": EvaluatorTimeout, "not-json": ProtocolError,
    "not-utf8": ProtocolError, "not-object": ProtocolError, "wrong-id": ProtocolError,
    "failed": EvaluatorReportedFailure, "nan": None, "above-one": None,
    "huge-int": ProtocolError, "deep": ProtocolError,
    "grandchild": EvaluatorTimeout, "split": None,
}
FAULT_SCHEDULES = st.fixed_dictionaries({
    "salt": st.integers(0, 2**32 - 1),
    "shares": st.fixed_dictionaries(
        {name: st.sampled_from([0.0, 0.04, 0.08]) for name in fault_stub.FAULTS}),
})
class TestFaultInjection:
    @staticmethod
    def stub(tmp, space, schedule):
        heartbeat = tmp / "heartbeat"
        command = [sys.executable, "-S", FAULT_STUB, json.dumps(schedule), str(heartbeat)]
        return ExternalEvaluator(command, space, fault_stub.B_MAX, timeout=0.3), heartbeat
    @pytest.mark.parametrize("name", fault_stub.FAULTS)
    def test_each_fault_has_its_outcome(self, tmp_path, name):
        space = float_space(1)
        config = space.default_configuration()
        threads = set(threading.enumerate())
        evaluator, heartbeat = self.stub(tmp_path, space, {"salt": 0, "shares": {name: 1.0}})
        with evaluator:
            for _ in range(2):  # the second request after a fault goes to a fresh child
                if FAULT_OUTCOMES[name] is None:
                    evaluator.evaluate(config, 3)
                else:
                    with pytest.raises(FAULT_OUTCOMES[name]):
                        evaluator.evaluate(config, 3)
        assert_all_stopped(heartbeat, threads)
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @settings(max_examples=4, deadline=None)
    @given(schedule=FAULT_SCHEDULES, seed=st.integers(0, 99))
    def test_history_matches_in_process_twin(self, workers, schedule, seed):
        space = cs.load_space(
            Path(__file__).resolve().parents[1] / "spaces" / "jahs_table3_4.json")
        ladder = budget_ladder(1, fault_stub.B_MAX, 3)
        threads = set(threading.enumerate())
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            twin = run(space, FaultTwin(space, schedule), ladder, seed=seed, workers=workers)
            evaluator, heartbeat = self.stub(tmp, space, schedule)
            with evaluator:
                external = run(space, evaluator, ladder, seed=seed, workers=workers)
            assert_all_stopped(heartbeat, threads)
            write_history_csv(twin.history, tmp / "twin.csv")
            write_history_csv(external.history, tmp / "external.csv")
            assert (tmp / "external.csv").read_bytes() == (tmp / "twin.csv").read_bytes()
