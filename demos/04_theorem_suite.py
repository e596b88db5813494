"""Machine-checking the structural theorems over a file and over random chains.

The verify suite re-derives each proved statement on concrete objects: the
relation between the two stability notions, the equivalence of the subobject
and quotient formulations, direct sums, grading invariance, and uniqueness of
the descending-polynomial chain.
"""

from pathlib import Path

from higgs_lab import run

docs = Path(__file__).resolve().parent.parent / "docs"

print("== theorem suite over the worked example file ==")
exit_code = run(["verify", str(docs / "hitchin_pair.json")])
print(f"exit code {exit_code}")
print()

print("== the same suite over 40 seeded random chains ==")
exit_code = run(["fuzz", "--seed", "2024", "--count", "40", "--max-rank", "4", "--genus", "2"])
print(f"exit code {exit_code}")
