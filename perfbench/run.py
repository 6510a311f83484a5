"""graphck benchmark: seeded closed-loop workloads with oracle-checked items.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One process, one thread, one client: each item starts when the previous one
has finished and been checked.  The seed fixes a corpus of CORPUS_PASSES
passes of the workload's item ladder; the run cycles through them, whole
passes at a time, until it has run every pass once and `--seconds` of wall
time have gone by (oracle checks included, only item calls timed).  It then
prints every end-to-end metric (`--trace 0`) or every per-layer metric
(`--trace 1`) by name with its unit, and as its last line one JSON object
for machines.  `attempted` and `failed` in that line count distinct corpus
items, an item failing if any of its runs failed, so they depend on the
seed and the program but not on the machine's speed.

With `--trace 1` every pass runs twice, untraced and then with spans around
every layer call; `trace_overhead_ratio` compares the two runs of the same
items.  End-to-end numbers come only from `--trace 0` runs.

Timed metrics are scaled by a speed probe (see speed.py) because the
machine's speed switches within seconds; raw times are printed beside them.
Its speed also differs between sessions, so only interleaved runs from one
session are compared; each result records nproc, the Python and numpy
versions and the commit, in `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("invariants", "blowup-symbolic", "rep-units", "rep-weighted")
SETUP_RUNS = 5        # fresh interpreters per run; setup_s is their median
CORPUS_PASSES = 6     # distinct passes per seed; every run covers all of them
TAIL_BEYOND = 10      # items that must lie beyond the reported tail latency
TIMED = ("setup_s", "items_per_s", "item_p50_ms", "item_tail_ms")


def machine_record() -> dict:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": _commit(),
            "note": "times are scaled to the speed probe's reference; compare only "
                    "interleaved runs of one session"}


def _commit() -> str:
    """HEAD of the checkout's own .git, if it has one; never a parent repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Passes:
    """The seed's corpus of passes of one workload.  Each is generated and
    written when the run first reaches it and prepared afresh every time it
    is run; pass `index` of the run is corpus pass `index % CORPUS_PASSES`."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.written = {0: self.write(0)}

    def write(self, index: int):
        """Generate pass `index` and write its graph files and manifest."""
        batch = self.workload.make_pass(self.seed, index)
        folder = self.work / f"pass{index}"
        folder.mkdir(parents=True)
        files = {}
        for key, g in batch.graphs.items():
            files[key] = folder / f"{key}.g"
            files[key].write_text(g.dsl(), encoding="utf-8")
        manifest = {"items": [asdict(it) for it in batch.items],
                    "files": {k: str(p) for k, p in files.items()}}
        (folder / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        return batch, files

    def get(self, index: int):
        """(corpus pass, batch, prepared state) for pass `index` of the run."""
        corpus = index % CORPUS_PASSES
        if corpus not in self.written:
            self.written[corpus] = self.write(corpus)
        batch, files = self.written[corpus]
        return corpus, batch, self.workload.prepare(batch, files)


def load_manifest(folder: Path):
    from perfbench.workloads import Batch, Item

    manifest = json.loads((folder / "manifest.json").read_text(encoding="utf-8"))
    batch = Batch([Item(**d) for d in manifest["items"]], {})
    return batch, {k: Path(p) for k, p in manifest["files"].items()}


def setup_only(workload_name: str, folder: Path) -> int:
    """Body of one fresh interpreter: import graphck, load the first pass."""
    from perfbench.workloads import WORKLOADS

    batch, files = load_manifest(folder)
    WORKLOADS[workload_name].prepare(batch, files)
    return 0


def measure_setup(workload_name: str, folder: Path, probe) -> tuple[list[float], list[float]]:
    """Wall times of fresh setup interpreters, raw and scaled by the speed
    probes taken just before and after each."""
    from perfbench.speed import REFERENCE_S

    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        before = probe.time_once()
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
                        "--setup-only", str(folder)],
                       check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        raw.append(perf_counter() - t0)
        scaled.append(raw[-1] * REFERENCE_S / ((before + probe.time_once()) / 2))
    return raw, scaled


@dataclass(slots=True)
class Record:
    key: tuple[int, int]  # (corpus pass, position in the pass)
    kind: str
    latency: float
    ok: bool
    defect: str | None
    detail: str


def run_pass(workload, corpus: int, batch, state, records: list[Record], probe,
             tracer=None) -> None:
    """Run one pass in a closed loop: call, time, then check and probe the
    machine's speed outside the timing."""
    from perfbench.workloads import Outcome

    for position, item in enumerate(batch.items):
        span = None
        if tracer is not None:
            tracer.item_id = len(records)
            span = tracer.begin(0)
        t0 = perf_counter()
        try:
            result = workload.run(item, state)
            error = None
        except Exception:  # a crash is a failed item, not a benchmark abort
            error = traceback.format_exc(limit=3)
        latency = perf_counter() - t0
        if span is not None:
            tracer.finish(span)
        if error is not None:
            outcome = Outcome(False, None, "raised: " + error.strip().splitlines()[-1])
        else:
            try:
                outcome = workload.check(item, batch, result, state)
            except (KeyError, TypeError, ValueError, IndexError) as ex:
                outcome = Outcome(False, None, f"malformed output: {ex!r}")
        records.append(Record((corpus, position), item.kind, latency, outcome.ok,
                              outcome.defect, outcome.detail))
        probe.after_item(latency, len(records))


def run_loop(workload, passes: Passes, budget: float, probe) -> list[Record]:
    """Whole passes until the corpus has been run once and `budget` seconds
    of wall time have gone by."""
    records: list[Record] = []
    started = perf_counter()
    index = 0
    probe.mark(0)
    while index < CORPUS_PASSES or perf_counter() - started < budget:
        corpus, batch, state = passes.get(index)
        gc.collect()  # every pass starts from the same collector state
        run_pass(workload, corpus, batch, state, records, probe)
        index += 1
    probe.mark(len(records))
    return records


def run_traced(workload, passes: Passes, budget: float, tracer):
    """Each pass twice, untraced then traced, so both halves see the same
    items in the same warm state.  Returns each half's records with their
    scaled latencies."""
    from perfbench import tracing
    from perfbench.speed import SpeedProbe

    plain: list[Record] = []
    traced: list[Record] = []
    plain_probe, traced_probe = SpeedProbe(), SpeedProbe()
    plain_probe.mark(0)
    traced_probe.mark(0)
    started = perf_counter()
    index = 0
    while index < CORPUS_PASSES or perf_counter() - started < budget:
        corpus, batch, state = passes.get(index)
        gc.collect()
        run_pass(workload, corpus, batch, state, plain, plain_probe)
        gc.collect()
        restore = tracing.install(tracer)
        try:
            run_pass(workload, corpus, batch, state, traced, traced_probe, tracer)
        finally:
            restore()
        index += 1
    plain_probe.mark(len(plain))
    traced_probe.mark(len(traced))
    return ((plain, plain_probe.scaled([r.latency for r in plain])),
            (traced, traced_probe.scaled([r.latency for r in traced])))


def end_to_end(failed_ratio: float, latencies: list[float],
               setup: list[float]) -> dict[str, tuple[float, str]]:
    lat = sorted(latencies)
    n = len(lat)
    tail_index = max(0, n - TAIL_BEYOND - 1)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (n / sum(lat), "1/s"),
        "item_p50_ms": (1000 * statistics.median(lat), "ms"),
        "item_tail_ms": (1000 * lat[tail_index], "ms"),
        "failed_ratio": (failed_ratio, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def failure_summary(records: list[Record]) -> tuple[int, dict[str, int], list[str]]:
    """Distinct corpus items run, and failed ones per named defect
    ('unattributed' otherwise) with examples.  An item fails if any of its
    runs failed, and counts under the defect of its first failed run."""
    first_failure: dict[tuple[int, int], Record] = {}
    for r in records:
        if not r.ok:
            first_failure.setdefault(r.key, r)
    counts: dict[str, int] = {}
    examples: list[str] = []
    for r in first_failure.values():
        key = r.defect or "unattributed"
        counts[key] = counts.get(key, 0) + 1
        if counts[key] <= 3:
            examples.append(f"{key} [{r.kind}]: {r.detail[:300]}")
    return len({r.key for r in records}), counts, examples


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.speed import REFERENCE_S
    from perfbench.workloads import KNOWN_DEFECTS, WORKLOADS

    workload = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"{name}-s{seed}-p{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    base = out_dir / f"{name}-seed{seed}-trace{int(trace)}"
    try:
        passes = Passes(workload, seed, work)
        if trace:
            from perfbench import tracing

            tracer = tracing.Tracer()
            (plain, plain_s), (traced, traced_s) = run_traced(workload, passes, seconds, tracer)
            records = plain + traced
            ratio = sum(plain_s) / sum(traced_s)
            self_s = tracer.self_times()
            metrics = tracing.layer_metrics(tracer, len(traced), self_s)
            metrics["trace_overhead_ratio"] = (ratio, "ratio")
            report, gap = tracing.self_time_report(tracer, self_s)
            tracer.write(base.with_suffix(".spans.json"))
        else:
            from perfbench.speed import SpeedProbe

            probe = SpeedProbe()
            setup_raw, setup = measure_setup(name, work / "pass0", probe)
            records = run_loop(workload, passes, seconds, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    distinct, counts, examples = failure_summary(records)
    failed = sum(counts.values())
    if not trace:
        metrics = end_to_end(failed / distinct, probe.scaled([r.latency for r in records]), setup)
        raw = end_to_end(failed / distinct, [r.latency for r in records], setup_raw)
        speeds = sorted(s for _, s in probe.samples)
    machine = machine_record()
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {name} seed {seed}: {len(records)} item runs over {distinct} distinct "
          f"items ({CORPUS_PASSES} passes), closed loop, one client")
    print(f"traffic: {workload.traffic}")
    if trace:
        print(f"traced half: {len(traced)} items; self-time closure gap {gap:.3g} s")
        for line in report:
            print("  " + line)
    else:
        n = len(records)
        print(f"setup samples (s, scaled): {' '.join(f'{s:.4f}' for s in setup)}")
        print(f"item_tail_ms is p{100 * (n - TAIL_BEYOND) / n:.2f}: "
              f"{TAIL_BEYOND} of {n} items lie beyond it")
        print(f"speed probe: {len(speeds)} samples, {1000 * speeds[0]:.2f} to "
              f"{1000 * speeds[-1]:.2f} ms (median {1000 * statistics.median(speeds):.2f}) "
              f"against the {1000 * REFERENCE_S:g} ms reference; times below are scaled, "
              f"raw ones in brackets")
    for key, (value, unit) in metrics.items():
        extra = f"  [raw {raw[key][0]:.6g}]" if not trace and key in TIMED else ""
        print(f"{key:48s} {value:14.6g} {unit}{extra}")
    for defect, count in counts.items():
        print(f"failed: {count} distinct item(s) [{defect}] {KNOWN_DEFECTS.get(defect, '')}")
    for line in examples:
        print(f"  e.g. {line}")
    if not trace:
        # failed_ratio can be 0, so the machine line carries it as attempted/failed
        metrics.pop("failed_ratio")
    result = {"correct": "unattributed" not in counts, "attempted": distinct,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"machine": machine, "workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "failures": counts, "examples": examples, **result}
    if not trace:
        record["raw"] = {k: raw[k][0] for k in TIMED}
        record["speed_probe_s"] = speeds
    base.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; prints all six end-to-end metrics."""
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        m["failed_ratio"] = result["failed"] / result["attempted"]
        rows.append((name, m, result["correct"]))
    cols = (("items_per_s", "1/s"), ("item_p50_ms", "ms"), ("item_tail_ms", "ms"),
            ("failed_ratio", "ratio"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
    print()
    print(f"{'workload':16s}" + "".join(f"{f'{k} [{u}]':>22s}" for k, u in cols) + "  correct")
    for name, m, correct in rows:
        print(f"{name:16s}" + "".join(f"{m[k]:22.6g}" for k, _ in cols) + f"  {correct}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "graphck" / "__init__.py").is_file():
        print(f"error: no graphck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.setup_only is not None:
        return setup_only(args.workload, args.setup_only)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
