"""Mine consensus patterns from the bundled fixture metrics and locate
their occurrences, narrating each step.

Run from the repository root:  python demos/mine_fixture_patterns.py
"""

from pathlib import Path

import numpy as np

from capaminer.ingestion import load_metrics_csv
from capaminer.mining import MiningConfig, default_match_threshold, mine_patterns
from capaminer.timeutil import to_rfc3339

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

series = load_metrics_csv(FIXTURES / "metrics.csv")
repos = sorted({s.repo_id for s in series})
print(f"loaded {len(series)} series across {len(repos)} repositories")

m = 8
tau = default_match_threshold(m)  # 25% of the z-normalized distance ceiling
# accepted when at least half of the repositories have a match
config = MiningConfig(min_len=m, max_len=m, match_threshold=tau,
                      min_repo_fraction=0.5)

# one call mines every metric and numbers the patterns across metrics, in
# the order the metrics first appear: the table's column order, as in
# the patterns.json of `capaminer mine` on the fixture config
patterns = mine_patterns(series, config)
for metric in dict.fromkeys(s.metric_name for s in series):
    mined = [p for p in patterns if p.metric_name == metric]
    print(f"\n{metric}: {len(mined)} accepted pattern(s) at tau={tau:.3f}")
    for p in mined:
        shape = np.array2string(p.values, precision=1, floatmode="fixed")
        print(f"  pattern {p.pattern_id} from {p.source_repo} "
              f"offset {p.source_offset}, radius {p.radius:.3f}")
        print(f"    values {shape}")
        for o in p.occurrences:
            print(f"    match in {o.repo_id} "
                  f"[{to_rfc3339(o.start_time)[:10]} .. "
                  f"{to_rfc3339(o.end_time)[:10]}] "
                  f"distance {o.distance:.3f}")
