"""Files-to-detections benchmark for the three detection entry points.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dns-batch --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

One invocation builds the workload's world from ``--seed`` (outside
every timing), runs the reference arm once (see ``passrun.py``; skipped
where a golden is recorded for the seed, except on ``dns-batch``), then
repeats measured passes -- each a fresh interpreter running the entry
point over the world's log files -- for ``--seconds`` seconds.  Every
pass's detections are checked per (tenant-)day against the goldens
recorded for the seed (``perfbench/goldens/``) and against the
reference arm.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics instead.  Every metric
is also printed on its own line with its unit (and sample count for
percentiles), together with ``failed_frac``.  The exit status is 0
when every checked day is correct, 1 when any is not, and 2 when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import worlds  # noqa: E402

#: Fewest measured passes per run, untraced and traced (medians need a
#: middle; a traced run alternates untraced and traced passes).
MIN_PASSES = {False: 3, True: 4}
#: Every invocation ends well inside 180 seconds.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "lines_per_s": "lines/s",
    "day_ms_p50": "ms",
    "batch_ms_p50": "ms",
    "batch_ms_p95": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.build_s": "s",
    "logs.parse.self_s": "s",
    "logs.parse.lines_in": "count",
    "logs.parse.records_out": "count",
    "logs.reduction.self_s": "s",
    "logs.reduction.records_out": "count",
    "logs.normalize.self_s": "s",
    "logs.normalize.events_out": "count",
    "streaming.ingest.self_s": "s",
    "streaming.ingest.events_in": "count",
    "profiling.ingest.self_s": "s",
    "profiling.rare.self_s": "s",
    "profiling.rare.domains_out": "count",
    "timing.automation.self_s": "s",
    "timing.automation.series_in": "count",
    "streaming.verdict_cache.skip_ratio": "ratio",
    "core.cc.self_s": "s",
    "core.bp.self_s": "s",
    "core.bp.runs": "count",
    "core.bp.warm_ratio": "ratio",
    "streaming.score.self_s": "s",
    "state.checkpoint.self_s": "s",
    "state.checkpoint.writes": "count",
    "state.checkpoint.bytes": "bytes",
    "fleet.manager.wait_s": "s",
    "fleet.workers.busy_s": "s",
    "fleet.intel.cache_hit_ratio": "ratio",
    "intelstore.flush.self_s": "s",
    "intelstore.flush.rows": "count",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Per-layer metric -> the probe layer whose self time it reports.
SELF_TIMES = {
    "logs.parse.self_s": "logs.parse",
    "logs.reduction.self_s": "logs.reduction",
    "logs.normalize.self_s": "logs.normalize",
    "streaming.ingest.self_s": "streaming.ingest",
    "profiling.ingest.self_s": "profiling.ingest",
    "profiling.rare.self_s": "profiling.rare",
    "timing.automation.self_s": "timing.automation",
    "core.cc.self_s": "core.cc",
    "core.bp.self_s": "core.bp",
    "streaming.score.self_s": "streaming.score",
    "state.checkpoint.self_s": "state.checkpoint",
    "fleet.manager.wait_s": "fleet.manager.wait",
    "intelstore.flush.self_s": "intelstore.flush",
    "setup.import_s": "setup.import",
    "setup.build_s": "setup.build",
}

COUNTS = (
    "logs.parse.lines_in", "logs.parse.records_out",
    "logs.reduction.records_out", "logs.normalize.events_out",
    "streaming.ingest.events_in", "profiling.rare.domains_out",
    "timing.automation.series_in", "core.bp.runs",
    "state.checkpoint.writes", "state.checkpoint.bytes",
    "intelstore.flush.rows",
)


class Deadline(Exception):
    """The invocation ran out of its time budget."""


def _spawn(argv: list[str], deadline: float, *, spawned_arg: bool = False):
    """Run one child as the leader of a new process group; kill the
    whole group on timeout so no resident worker outlives the benchmark."""
    remaining = deadline - perf_counter()
    if remaining <= 1.0:
        raise Deadline()
    if spawned_arg:
        argv = argv + [repr(perf_counter())]
    process = subprocess.Popen(argv, start_new_session=True)
    try:
        return process.wait(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise Deadline() from None
    except BaseException:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise


def _run_pass(work: Path, index: int, spec: dict, deadline: float) -> dict:
    pass_dir = work / f"pass-{index:03d}"
    pass_dir.mkdir(parents=True)
    spec = dict(spec, work=str(pass_dir), out=str(pass_dir / "out.json"))
    spec_path = pass_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code = _spawn(
        [sys.executable, str(BENCH_DIR / "passrun.py"), str(spec_path)],
        deadline, spawned_arg=True,
    )
    out_path = Path(spec["out"])
    out = json.loads(out_path.read_text()) if out_path.exists() else {}
    if code != 0 and "error" not in out:
        out["error"] = f"pass exited with status {code}"
    if (spec["arm"] == "bench" and "error" not in out
            and None in (out.get("first_read"), out.get("done"))):
        out["error"] = "pass read no log line or emitted no detection"
    return out


def _quantile(samples: list[float], q: int) -> float:
    """The q-th percentile (inclusive method, no extrapolation)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _end_to_end(world: dict, passes: list[dict]) -> tuple[dict, dict]:
    setup = [p["first_read"] - p["spawned_at"] for p in passes]
    detecting = sum(p["done"] - p["first_read"] for p in passes)
    days = [ms for p in passes for ms in p["day_ms"]]
    batches = [ms for p in passes for ms in p["batch_ms"]]
    values = {
        "setup_s": statistics.median(setup),
        "lines_per_s": world["lines"] * len(passes) / detecting,
        "day_ms_p50": statistics.median(days),
        "batch_ms_p50": statistics.median(batches),
        "batch_ms_p95": _quantile(batches, 95),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    samples = {
        "setup_s": len(setup), "lines_per_s": len(passes),
        "day_ms_p50": len(days), "batch_ms_p50": len(batches),
        "batch_ms_p95": len(batches), "peak_rss_mb": len(passes),
    }
    return values, samples


def _per_layer(traced: list[dict],
               untraced: list[dict]) -> tuple[dict, dict, list[str]]:
    rows = []
    notes = []
    for p in traced:
        trace = p["trace"]
        layers = dict(trace["layers"])
        counts = dict(trace["counts"])
        skips = dict(trace["verdict_stats"])
        for worker in p.get("workers", []):
            for layer, seconds in worker["self_s"].items():
                layers[layer] = layers.get(layer, 0.0) + seconds
            for key, value in worker["counts"].items():
                counts[key] = counts.get(key, 0) + value
            for key, value in worker["verdict_stats"].items():
                skips[key] = skips.get(key, 0) + value
        main = trace["layers"]
        notes.append(
            f"trace: wall {trace['wall_s']:.3f} s = main-process layer self "
            f"times {sum(main.values()):.3f} s + unattributed "
            f"{trace['unattributed_s']:.3f} s"
        )
        if p.get("workers"):
            advance = sum(
                w["self_s"].get("fleet.worker.advance", 0.0)
                for w in p["workers"]
            )
            covered = sum(
                sum(w["self_s"].values()) for w in p["workers"]
            ) - advance
            notes.append(
                f"trace: workers' layer self times {covered:.3f} s, "
                f"unattributed inside day advances {advance:.3f} s"
            )
        row = {
            metric: layers.get(layer, 0.0)
            for metric, layer in SELF_TIMES.items()
        }
        row.update({key: counts.get(key, 0) for key in COUNTS})
        tested = sum(skips.values())
        skipped = sum(
            skips.get(key, 0)
            for key in ("short_skips", "periodic_skips", "not_rare_skips")
        )
        row["streaming.verdict_cache.skip_ratio"] = (
            skipped / tested if tested else 0.0
        )
        warm_calls = counts.get("core.bp.warm_start_calls", 0)
        row["core.bp.warm_ratio"] = (
            counts.get("core.bp.warm_runs", 0) / warm_calls
            if warm_calls else 0.0
        )
        row["fleet.workers.busy_s"] = p.get("worker_busy_s", 0.0)
        row["fleet.intel.cache_hit_ratio"] = p.get("intel_hit_ratio", 0.0)
        row["trace.unattributed_frac"] = (
            trace["unattributed_s"] / trace["wall_s"]
        )
        rows.append(row)
    values = {
        metric: statistics.median(row[metric] for row in rows)
        for metric in PER_LAYER if metric in rows[0]
    }
    wall = [p["returned"] - p["spawned_at"] for p in traced]
    base = [p["returned"] - p["spawned_at"] for p in untraced]
    values["trace.overhead_frac"] = (
        statistics.median(wall) / statistics.median(base) - 1.0
    )
    samples = {metric: len(rows) for metric in values}
    samples["trace.overhead_frac"] = len(traced) + len(untraced)
    return values, samples, notes


def _load_goldens(goldens_dir: Path, workload: str, seed: int,
                  size: str) -> dict | None:
    """The seed's recorded detections per (tenant-)day, if any."""
    path = goldens_dir / f"{workload}.json"
    if not path.is_file():
        return None
    document = json.loads(path.read_text())
    if document["size"] != size:
        return None
    return document["seeds"].get(str(seed))


def _check(reference: dict | None, golden: dict | None,
           passes: list[dict], expected_days: int) -> tuple[int, int, list]:
    """(attempted, failed, notes) over every (tenant-)day produced.

    The days checked are the golden's when one is recorded for the
    seed, else the reference arm's; there must be as many as the world
    has detection days.  A day fails when its arm raised or lacks it, or
    when its detections differ from the golden or from the reference
    arm (when it ran).
    """
    arms = [(f"pass {i + 1}", p) for i, p in enumerate(passes)]
    if reference is not None:
        arms.insert(0, ("reference", reference))
    expected = golden
    if expected is None:
        expected = (reference or {}).get("detections", {})
    notes = []
    attempted = failed = 0
    if not expected or len(expected) != expected_days:
        attempted += 1
        failed += 1
        notes.append(f"expected {expected_days} (tenant-)days, "
                     f"found {len(expected)}")
    for name, arm in arms:
        if "error" in arm:
            notes.append(f"{name}: {arm['error'].strip().splitlines()[-1]}")
        detections = arm.get("detections", {})
        for key in sorted(expected):
            attempted += 1
            got = detections.get(key)
            wanted = [expected[key]]
            if reference is not None and arm is not reference:
                wanted.append(reference.get("detections", {}).get(key))
            if got is None or any(got != want for want in wanted):
                failed += 1
                notes.append(f"{name}: {key}: detected {got}, "
                             f"expected {expected[key]}")
    return attempted, failed, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str, goldens_dir: Path, root: Path) -> dict:
    """One invocation's result document for one workload."""
    started = perf_counter()
    deadline = started + DEADLINE_S
    work = root / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    world_dir = work / "world"
    src = str(root / "src")
    passes: list[dict] = []
    reference: dict | None = None
    world: dict = {}
    golden = _load_goldens(goldens_dir, workload, seed, size)
    try:
        code = _spawn([
            sys.executable, str(BENCH_DIR / "worlds.py"), src, workload,
            str(seed), str(world_dir), size,
        ], deadline)
        if code != 0:
            raise RuntimeError(f"building the {workload} world failed")
        world = json.loads((world_dir / "world.json").read_text())
        spec = {"src": src, "world": str(world_dir), "trace": False}
        # A golden was recorded only where the reference arm agreed, so
        # it stands in for the reference -- except on dns-batch, whose
        # reference is the run/stream parity check of this commit.
        if golden is None or workload == "dns-batch":
            reference = _run_pass(work, 0, dict(spec, arm="reference"),
                                  deadline)
        min_batches = world["params"].get("min_batches", 0)
        measure_start = perf_counter()
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append(_run_pass(
                work, len(passes) + 1,
                dict(spec, arm="bench", trace=traced), deadline,
            ))
            if "error" in passes[-1]:
                break
            # Start another pass only if it fits in --seconds, once the
            # floors on passes and micro-batches are met.
            elapsed = perf_counter() - measure_start
            enough = (
                elapsed + elapsed / len(passes) > seconds
                and len(passes) >= MIN_PASSES[trace]
                and sum(len(p["batch_ms"]) for p in passes) >= min_batches
            )
            if enough:
                break
    except Deadline:
        passes.append({"error": "the run hit its time budget"})
    finally:
        # The spans of every traced pass (manager and workers) are kept.
        traces = root / ".perfbench" / "traces"
        for index, p in enumerate(passes):
            if "trace" in p:
                traces.mkdir(parents=True, exist_ok=True)
                name = f"{workload}-seed{seed}-pass{index + 1}.json"
                document = dict(p["trace"], workers=p.get("workers", []))
                (traces / name).write_text(json.dumps(document))
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, notes = _check(
        reference, golden, passes, world.get("detect_days", 0)
    )
    good = [p for p in passes if "error" not in p]
    traced = [p for p in good if "trace" in p]
    untraced = [p for p in good if "trace" not in p]
    metrics: dict = {}
    samples: dict = {}
    if trace and traced and untraced:
        metrics, samples, trace_notes = _per_layer(traced, untraced)
        notes += trace_notes
    elif not trace and good:
        metrics, samples = _end_to_end(world, good)
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": workload,
        "world": world,
        "golden": golden is not None,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
        "samples": samples,
        "wall_s": perf_counter() - started,
    }


def _report(result: dict, seed: int, trace: bool) -> None:
    world = result["world"]
    print(
        f"# {result['workload']}: seed={seed} "
        f"generator_seed={world.get('generator_seed')} "
        f"lines={world.get('lines')} "
        f"files={world.get('files')} tenants={world.get('tenants')} "
        f"detect_days={world.get('detect_days')} "
        f"passes={result['passes']} golden={result['golden']} "
        f"loop=closed clients=1 nproc={len(os.sched_getaffinity(0))} "
        f"wall={result['wall_s']:.1f}s"
    )
    for note in result["notes"][:20]:
        print(f"#   {note}")
    for name, metric in result["metrics"].items():
        print(f"{result['workload']} {name} = {metric['value']:.6g} "
              f"{metric['unit']} (samples={result['samples'][name]})")
    print(f"{result['workload']} failed_frac = "
          f"{result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']}/{result['attempted']} (tenant-)days)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=worlds.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="world size ('tiny' is for the self-test)")
    parser.add_argument("--goldens", type=Path,
                        default=BENCH_DIR / "goldens",
                        help="directory of recorded goldens")
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so the running
    # child's process group is killed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout holding "
              "src/repro (the program under test)", file=sys.stderr)
        return 2
    workloads = (
        worlds.WORKLOADS if args.workload == "all" else (args.workload,)
    )
    results = [
        run_workload(name, args.seed, args.seconds, bool(args.trace),
                     args.size, args.goldens, root)
        for name in workloads
    ]
    for result in results:
        _report(result, args.seed, bool(args.trace))
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{name}": metric
            for r in results for name, metric in r["metrics"].items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
