"""Walk through the statistical validation stage on the bundled reference
counts: the pattern-by-action contingency table, the chi-squared test of
independence, relevance filtering, and the final action mapping extracted
from the bundled pairwise comparison results.

Run from the repository root:  python demos/validate_published_counts.py
"""

import json

from capaminer.association import (
    contingency_from_csv,
    extract_mapping,
    filter_relevant,
    pairwise_from_json,
    qualifying_pairs,
)
from capaminer.cli import bundled_data_path
from capaminer.stats import chi2_independence

table = contingency_from_csv(
    bundled_data_path("reference_capa_counts.csv").read_text())
print(f"contingency table: {len(table.row_labels)} pattern types x "
      f"{len(table.col_labels)} actions, {table.grand_total} joined PRs")

r = chi2_independence(table.counts)
print(f"chi-squared = {r.statistic:.3f}, dof = {r.dof}, p = {r.p_value:.6f}")
if r.low_expected_cells:
    print(f"  note: {r.low_expected_cells} cells have expected count < 5")

sets = filter_relevant(table, min_count=5)
pairs = qualifying_pairs(sets)
print(f"\nactions seen >= 5 times, per pattern:")
for pt in sorted(sets):
    if len(sets[pt]) >= 2:
        print(f"  pattern {pt}: actions {sorted(sets[pt])}")
print(f"{len(pairs)} qualifying action pairs in total")

# each published row must test two actions that qualify for its pattern
rows = pairwise_from_json(
    json.loads(bundled_data_path("reference_pairwise.json").read_text()), sets)
for alpha in (0.15, 0.05):
    mapping = extract_mapping(rows, alpha)
    print(f"\nmapping at alpha = {alpha}:")
    for t in mapping["tuples"]:
        print(f"  pattern {t['pattern']} -> action {t['capa']}")
