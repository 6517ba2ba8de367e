"""Mine consensus patterns from the bundled fixture metrics and locate
their occurrences, narrating each step.

Run from the repository root:  python demos/mine_fixture_patterns.py
"""

import math
from pathlib import Path

import numpy as np

from capaminer.ingestion import load_metrics_csv
from capaminer.mining import MiningConfig, RepoCoverage, mine_patterns
from capaminer.timeutil import to_rfc3339

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

series = load_metrics_csv(FIXTURES / "metrics.csv")
repos = sorted({s.repo_id for s in series})
print(f"loaded {len(series)} series across {len(repos)} repositories")

m = 8
tau = 0.25 * 2.0 * math.sqrt(m)  # 25% of the z-normalized distance ceiling
config = MiningConfig(min_len=m, max_len=m, match_threshold=tau,
                      repo_coverage=RepoCoverage("min", 0.5))

for metric in ("lines_added", "lines_deleted", "lines_changed"):
    subset = [s for s in series if s.metric_name == metric]
    patterns = mine_patterns(subset, config)
    print(f"\n{metric}: {len(patterns)} accepted pattern(s) at tau={tau:.3f}")
    for p in patterns:
        shape = np.array2string(p.values, precision=1, floatmode="fixed")
        print(f"  pattern {p.pattern_id} from {p.source_repo} "
              f"offset {p.source_offset}, radius {p.radius:.3f}")
        print(f"    values {shape}")
        for o in p.occurrences:
            print(f"    match in {o.repo_id} "
                  f"[{to_rfc3339(o.start_time)[:10]} .. "
                  f"{to_rfc3339(o.end_time)[:10]}] "
                  f"distance {o.distance:.3f}")
