"""capaminer pipeline benchmark.

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed, then measures for the given
number of seconds.  With --trace 0 every pipeline is a fresh process
(perfbench/child.py calling capaminer.cli.main), one at a time: a closed
loop with one client.  With --trace 1 one or more untraced processes give
the baseline, then pipelines run in this process with span recorders around
the public functions of every module (see spans.py).  Each run's outputs are
checked (see check.py).  Human-readable lines come first; the last line of
stdout is one JSON object with the metrics BENCHMARK.json names.  A run
record with the environment, inputs, digests and raw samples is written
under perfbench/_work/records/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REQUIRED = ["src/capaminer/cli.py", "demos/generate_fixture_dataset.py",
            "fixtures/config.json", "fixtures/keywords.json", "BENCHMARK.json"]

SETUP_PROBES = 7       # set-up-only processes per run, after one warm-up
HARD_LIMIT_S = 150.0   # no child may run past this point of the run
STAGES = ("mine", "label", "train", "classify", "associate", "validate", "report")
# per-layer metrics: spans reported as inclusive seconds (.s), spans also
# reported as call counts (.calls), and counters from spans.COUNTERS
TIMED = (
    "ingestion.load_metrics_csv", "ingestion.load_prs_jsonl",
    "tsdist.znormalized_windows", "tsdist.distance_profile",
    "mining.mine_patterns", "mining.consensus_candidate", "mining.count_matches",
    "mining.locate_occurrences",
    "classifier.label_by_keywords", "classifier.encode_features",
    "classifier.train_forest", "classifier.RandomForest.predict",
    "classifier.classify_two_stage", "classifier.RandomForest.to_json",
    "classifier.RandomForest.from_json",
    "association.temporal_join", "association.pairwise_tests",
    "stats.chi2_independence", "stats.two_sample_t_test",
)
CALLED = (
    "ingestion.load_prs_jsonl", "tsdist.znormalized_windows",
    "tsdist.distance_profile", "mining.consensus_candidate",
    "mining.count_matches", "classifier.encode_features",
    "classifier.RandomForest.predict", "association.temporal_join",
    "stats.two_sample_t_test",
)
COUNTED = (
    "ingestion.prs_parsed", "tsdist.windows_normalized",
    "mining.window_pairs_computed", "mining.patterns_accepted",
    "mining.occurrences", "classifier.train_rows", "classifier.tree_nodes",
    "association.joins", "association.tests", "stats.low_expected_cells",
)


@dataclass
class Run:
    """One pipeline execution and what its check found."""
    index: int
    traced: bool
    wall_s: float = 0.0        # spawn (or call) to exit (or return)
    setup_s: float = 0.0
    pipeline_s: float = 0.0    # entering cli.main to its return
    cpu_s: float = 0.0         # CPU seconds of the process in that interval
    rss_mib: float = 0.0
    digest: str = ""
    problems: list = field(default_factory=list)
    spans: dict = field(default_factory=dict)  # traced runs: spans.summarize()
    layer: dict = field(default_factory=dict)  # traced runs: layer_metrics()


class Bench:
    def __init__(self, workload, seed, seconds, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        self.runs = []
        self.setup_samples = []

    def _spawn(self, timing: Path, argv):
        timeout = max(5.0, HARD_LIMIT_S - (time.perf_counter() - self.started))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(timing), *argv],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return t0, time.perf_counter(), None, f"killed after {timeout:.0f} s"
        t1 = time.perf_counter()
        if proc.returncode != 0 or not timing.exists():
            return t0, t1, None, f"child exit {proc.returncode}: {proc.stderr[-500:]}"
        return t0, t1, json.loads(timing.read_text()), proc.stderr

    def probe_setup(self, n):
        for i in range(n + 1):
            t0, _, timing, err = self._spawn(self.work / f"setup-{i}.json", [])
            if timing is None:
                raise RuntimeError(f"set-up probe failed: {err}")
            if i:  # the first one may compile bytecode; users pay that once
                self.setup_samples.append(timing["entered"] - t0)

    def run_process(self, config_path) -> Run:
        run = Run(len(self.runs), traced=False)
        out = self.work / f"out-{run.index}"
        t0, t1, timing, err = self._spawn(
            self.work / f"timing-{run.index}.json",
            ["--config", config_path, "--out", str(out), "pipeline"])
        run.wall_s = t1 - t0
        if timing is None:
            run.problems.append(err)
        else:
            run.setup_s = timing["entered"] - t0
            run.pipeline_s = timing["left"] - timing["entered"]
            run.cpu_s = timing["cpu_s"]
            run.rss_mib = timing["maxrss_kib"] / 1024.0
            self.setup_samples.append(run.setup_s)
            if timing["exit_code"] != 0:
                run.problems.append(f"exit code {timing['exit_code']}: {err[-500:]}")
        self.runs.append(run)
        return run

    def run_traced(self, config_path) -> Run:
        from capaminer import cli
        import spans

        run = Run(len(self.runs), traced=True)
        out = self.work / f"out-{run.index}"
        out.mkdir(parents=True)
        tracer = spans.Tracer()
        t0 = time.perf_counter()
        try:
            cfg = cli.load_config(config_path, {"out_dir": str(out)})
            with tracer.installed():
                cli.cmd_pipeline(cfg, out)
        except Exception as exc:  # a crashed pipeline is a failed run
            run.problems.append(f"traced pipeline raised {exc!r}")
        run.wall_s = run.pipeline_s = time.perf_counter() - t0
        run.spans = spans.summarize(tracer.spans)
        run.layer = layer_metrics(run.spans, tracer.counts, out, cli.ARTIFACTS)
        self.runs.append(run)
        return run

    def loop(self, step, deadline):
        """Call step() at least once, and again while at least half of the
        median duration so far fits before the deadline, so that the time
        measured is the deadline give or take half a step."""
        walls = []
        while True:
            walls.append(step().wall_s)
            if time.perf_counter() + statistics.median(walls) / 2 > deadline:
                return

    def check(self, desc):
        from capaminer import cli
        import check

        series = None
        tau = cli.load_config(desc["config_path"]).mining_config().match_threshold
        checked = {}
        first = None
        for run in self.runs:
            out = self.work / f"out-{run.index}"
            if not run.problems:
                run.problems += check.check_artifacts(out, cli.ARTIFACTS,
                                                      desc["sizes"]["prs"])
            if not run.problems:
                run.digest = check.artifact_digest(out, cli.ARTIFACTS)
                first = first or run.digest
                if run.digest != first:
                    run.problems.append(f"artifact digest {run.digest} differs "
                                        f"from the first run's {first}")
                elif run.digest not in checked:
                    if series is None:
                        series = check.load_series(ROOT / desc["config"]["metrics_path"])
                    try:
                        checked[run.digest] = (
                            check.check_results(out, series, tau),
                            check.capa_macro_f1(out))
                    except (KeyError, IndexError, TypeError, ValueError) as exc:
                        checked[run.digest] = (
                            [f"artifacts not in the expected layout: {exc!r}"], None)
                if run.digest in checked:
                    run.problems += checked[run.digest][0]
            shutil.rmtree(out, ignore_errors=True)
        return checked[first][1] if first in checked else None


def layer_metrics(summary, counts, out, artifacts) -> dict:
    """Per-layer metrics of one traced pipeline: {name: (value, unit)}."""
    def span(name, key="s"):
        return summary.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for stage in STAGES:
        m[f"cli.cmd_{stage}.s"] = (span(f"cli.cmd_{stage}"), "s")
        m[f"cli.cmd_{stage}.self_s"] = (span(f"cli.cmd_{stage}", "self_s"), "s")
    m["cli.cmd_pipeline.s"] = (span("cli.cmd_pipeline"), "s")
    m["cli.cmd_pipeline.self_s"] = (span("cli.cmd_pipeline", "self_s"), "s")
    m["cli.artifact_bytes"] = (sum((out / a).stat().st_size for a in artifacts
                                   if (out / a).exists()), "B")
    m["cli.model_bytes"] = (sum((out / f"model_stage{i}.json").stat().st_size
                                for i in (1, 2)
                                if (out / f"model_stage{i}.json").exists()), "B")
    for name in TIMED:
        m[f"{name}.s"] = (span(name), "s")
    for name in CALLED:
        m[f"{name}.calls"] = (span(name, "calls"), "count")
    for name in COUNTED:
        m[name] = (counts.get(name, 0), "count")
    m["mining.accept_ratio"] = (ratio(counts.get("mining.patterns_accepted", 0),
                                      span("mining.consensus_candidate", "calls")), "1")
    m["classifier.labeled_ratio"] = (ratio(counts.get("classifier.labeled", 0),
                                           span("classifier.label_by_keywords", "calls")), "1")
    m["association.join_ratio"] = (ratio(counts.get("association.joins", 0),
                                         counts.get("association.capa_prs", 0)), "1")
    return m


def median_of(samples):
    return statistics.median(samples) if samples else float("nan")


def quartiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    q = statistics.quantiles(samples, n=4)
    return q[0], q[2]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "git": git_state(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def git_state():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if sha.returncode != 0:
        return None  # not a git checkout
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def blas_threads():
    """OpenBLAS thread count of this process, as the library reports it."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                    and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def end_to_end_metrics(bench, f1) -> dict:
    ok = [r for r in bench.runs if not r.problems and not r.traced]
    return {
        "pipeline_s": (median_of([r.pipeline_s for r in ok]), "s"),
        "setup_s": (median_of(bench.setup_samples), "s"),
        "peak_rss_mb": (median_of([r.rss_mib for r in ok]), "MiB"),
        "capa_macro_f1": (f1, "1"),
    }


def traced_metrics(bench) -> dict:
    untraced = [r.pipeline_s for r in bench.runs if not r.problems and not r.traced]
    traced = [r.layer for r in bench.runs if r.traced and not r.problems]
    m = {name: (median_of([t[name][0] for t in traced]), unit)
         for name, (_, unit) in traced[0].items()} if traced else {}
    if traced:
        m["trace.overhead_s"] = (m["cli.cmd_pipeline.s"][0] - median_of(untraced), "s")
    return m


def report(bench, desc, metrics, trace, names, env) -> dict:
    attempted = len(bench.runs)
    failed = sum(1 for r in bench.runs if r.problems)
    digests = sorted({r.digest for r in bench.runs if r.digest})
    print(f"workload {bench.workload} seed {bench.seed} trace {trace}: "
          f"{attempted} pipeline runs, {failed} failed")
    for run in bench.runs:
        for problem in run.problems:
            print(f"  run {run.index} FAILED: {problem}")
    print(f"  inputs {desc['sizes']}")
    print(f"  artifact sha256 {', '.join(digests) or 'none'}")
    if trace:
        stages = sorted(STAGES, key=lambda s: -metrics[f"cli.cmd_{s}.s"][0])
        print("  stage ranking: " + " > ".join(
            f"{s} {metrics[f'cli.cmd_{s}.s'][0]:.3f}s" for s in stages))
    else:
        ok = [r for r in bench.runs if not r.problems and not r.traced]
        for label, samples in (("pipeline_s", [r.pipeline_s for r in ok]),
                               ("pipeline CPU s", [r.cpu_s for r in ok])):
            if samples:
                lo, hi = quartiles(samples)
                print(f"  {label} over {len(samples)} runs: median "
                      f"{median_of(samples):.4f} quartiles {lo:.4f}..{hi:.4f}")
        lo, hi = quartiles(bench.setup_samples)
        print(f"  setup_s over {len(bench.setup_samples)} processes: median "
              f"{median_of(bench.setup_samples):.4f} quartiles {lo:.4f}..{hi:.4f}")
        print(f"  error_rate {failed / attempted:.4f} 1 ({failed} of {attempted})")
    for name in names:
        value, unit = metrics[name]
        print(f"  {name} {value:.6g} {unit}")
    record = {
        "workload": bench.workload, "seed": bench.seed, "trace": trace,
        "seconds": bench.seconds, "environment": env, "inputs": desc,
        "artifact_sha256": digests, "attempted": attempted, "failed": failed,
        "runs": [vars(r) for r in bench.runs],
        "setup_samples_s": bench.setup_samples,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (records / f"{bench.workload}-seed{bench.seed}-trace{trace}-{stamp}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=2, default=str) + "\n")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a capaminer checkout, missing {missing}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(gen.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    # inputs at a path fixed by workload and seed, so that the config, and
    # with it the recorded input digests, is the same on every run
    inputs = WORK / "inputs" / f"{args.workload}-seed{args.seed}"
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        desc = gen.write_workload(args.workload, args.seed, inputs)
        bench = Bench(args.workload, args.seed, args.seconds, work)
        deadline = bench.started + args.seconds
        config_path = desc["config_path"]
        if args.trace:
            # baseline first, then as many traced runs as fit (at least one)
            bench.loop(lambda: bench.run_process(config_path),
                       bench.started + args.seconds / 2)
            bench.loop(lambda: bench.run_traced(config_path), deadline)
        else:
            bench.probe_setup(SETUP_PROBES)
            bench.loop(lambda: bench.run_process(config_path), deadline)
        f1 = bench.check(desc)
        metrics = (traced_metrics(bench) if args.trace
                   else end_to_end_metrics(bench, f1))
        missing = [n for n in names if n not in metrics]
        if missing or f1 is None:
            print(f"error: no passing run, or metrics not computed: {missing}",
                  file=sys.stderr)
            return 1
        result = report(bench, desc, metrics, args.trace, names, environment())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
