#!/usr/bin/env python3
"""Post-hoc analysis: which parameters mattered, and do incumbents transfer?

Importance decomposes the objective's variance into per-parameter
first-order contributions using a random forest with exact leaf-partition
marginalization. The cross-evaluation matrix replays each problem's
incumbent on every other problem at the top budget, noise-free.
"""

from jahsband import (
    ParameterSpec,
    SyntheticProblem,
    budget_ladder,
    build_space,
    cross_eval,
    fanova_first_order,
    run,
)
from jahsband.analysis import write_crosseval_csv

space = build_space([
    ParameterSpec("alpha", "float", lo=0.0, hi=1.0, default=0.5),
    ParameterSpec("beta", "float", lo=0.0, hi=1.0, default=0.5),
    ParameterSpec("gamma", "float", lo=0.0, hi=1.0, default=0.5),
])
ladder = budget_ladder(1, 81, 3)

# alpha dominates the objective: its weight is 25x the others
problem = SyntheticProblem.from_space(
    space,
    optimum={"alpha": 0.2, "beta": 0.7, "gamma": 0.4},
    weights={"alpha": 25.0, "beta": 1.0, "gamma": 1.0},
    b_max=81,
)
result = run(space, problem, ladder, seed=0)

report = fanova_first_order(result.history, trees=32, seed=0)
print("first-order importance (fraction of objective variance):")
for name in space.names:
    print(f"  {name}: {report.importances[name]:.3f} "
          f"(across-tree variance {report.variances[name]:.4f})")
print()

# Three problems with different hidden optima; transfer their incumbents.
problems, incumbents = [], []
for k, corner in enumerate((0.15, 0.5, 0.85)):
    p = SyntheticProblem.from_space(
        space, optimum={n: corner for n in space.names}, b_max=81)
    r = run(space, p, ladder, seed=k)
    problems.append(p)
    incumbents.append(r.final_incumbent)

matrix = cross_eval(
    problems, incumbents,
    problem_labels=["low", "mid", "high"],
    incumbent_labels=["low", "mid", "high"],
)
print("cross-evaluation matrix (rows: problems, columns: incumbent sources):")
header = "        " + "  ".join(f"{l:>8}" for l in matrix.incumbent_labels)
print(header)
for i, label in enumerate(matrix.problem_labels):
    row = "  ".join(f"{v:8.4f}" for v in matrix.cells[i])
    print(f"  {label:>5} {row}")
means = "  ".join(f"{v:8.4f}" for v in matrix.column_means)
print(f"   mean {means}")

write_crosseval_csv(matrix, "crosseval_demo.csv")
print()
print("matrix written to crosseval_demo.csv")
