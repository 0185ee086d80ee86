"""Desk-scale dichotomy evidence for truncated well-approximable sets.

The truncated unions can only hint at the limit: for fast-decaying radii
the measures collapse with the subadditive bound, while for slowly
decaying radii the unions keep absorbing new arcs.  The totient-series
classifier predicts which regime a closed-form radius sequence is in.

Run: python demos/05_dichotomy_experiments.py
"""

from fractions import Fraction

from circlelab import (
    All,
    Power,
    cassels_experiment,
    circle_point,
    duffin_schaeffer_classify,
    gallagher_experiment,
    membership_witnesses,
)

# Convergent regime: delta_n = 1/n^3.  Tail measures fall with the bound.
print("=== radii 1/n^3 (convergent series) ===")
report = gallagher_experiment(Power(Fraction(1), 3), [2, 5, 10, 20], 60)
print(report.to_csv(), end="")

# Divergent regime: delta_n = 1/n^2.  The truncated union keeps growing.
print("\n=== radii 1/n^2 (divergent series) ===")
for n_max in (25, 50, 100):
    r = gallagher_experiment(Power(Fraction(1), 2), [2], n_max)
    print(f"  union over 2..{n_max}: measure {r.row('measure[n_min=2]').exact}"
          f" ≈ {r.row('measure[n_min=2]').decimal}")

# Rescaling every radius by a constant moves the truncation by a nested,
# exactly-contained amount; in the limit the difference is null.
print("\n=== rescaled radii (factor 2) ===")
print(cassels_experiment(Power(Fraction(1), 2), 2, All(), 2, 50).to_csv(), end="")

# The series classifier names the predicted limit class.
print("\n=== totient-series classifier ===")
for exponent in (2, 3):
    rep = duffin_schaeffer_classify(Power(Fraction(1), exponent), 256)
    print(f"  delta_n = 1/n^{exponent}: series {rep.params['series']},"
          f" predicted class {rep.params['predicted_class']}")

# Individual points: which orders approximate [89/144] quadratically well?
# The continued-fraction convergents of 89/144 show up as witnesses.
ws = membership_witnesses(circle_point("89/144"), Power(Fraction(1), 2), 144)
print("\nwitness orders for [89/144] with delta_n = 1/n^2:", ws)
