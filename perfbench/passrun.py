"""One benchmark pass: a fresh interpreter runs one workload once.

Usage (as ``run.py`` spawns it)::

    python3 perfbench/passrun.py SPEC.json SPAWNED_AT

``SPAWNED_AT`` is the parent's ``time.perf_counter()`` just before the
spawn (a system-wide monotonic clock on Linux), so ``setup_s`` covers
interpreter start, ``import repro`` and building the engine, model or
manager, up to the first log line read.  The pass writes one JSON
document to ``spec["out"]``: its marks, per-day and per-batch times,
detections per (tenant-)day, peak RSS and, when traced, the layer
self times.

``spec["arm"]`` is ``"bench"`` for a measured pass or ``"reference"``
for the golden-free cross-check run once per invocation: the
streaming replay for ``dns-batch`` (run/stream parity), a replay with
no checkpoints and no intra-day scoring for ``proxy-stream-durable``,
and the serial thread executor for ``fleet-resident``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import worlds


def _dns(world: Path, params: dict, reference: bool) -> dict:
    from repro.runner import DnsLogRunner
    from repro.streaming import replay_directory

    paths = sorted(world.glob("dns-*.log"))
    boot = params["bootstrap_files"]
    suffixes = (worlds.INTERNAL_SUFFIX,)
    if reference:
        result = replay_directory(
            world, bootstrap_files=boot, pattern="dns-*.log",
            internal_suffixes=suffixes,
        )
        return {
            "detections": {
                path.name: list(report.detected)
                for path, report in zip(paths[boot:], result.reports)
            },
        }
    out = {"detections": {}, "day_ms": [], "batch_ms": []}
    runner = DnsLogRunner(internal_suffixes=suffixes)
    for index, path in enumerate(paths):
        start = perf_counter()
        if index < boot:
            runner.bootstrap([path])
        else:
            report = runner.process(path)
            out["detections"][path.name] = list(report.detected)
        elapsed_ms = (perf_counter() - start) * 1000.0
        out["batch_ms"].append(elapsed_ms)
        if index >= boot:
            out["day_ms"].append(elapsed_ms)
    out["done"] = perf_counter()
    return out


def _proxy(world: Path, work: Path, probe, reference: bool) -> dict:
    from repro.streaming import WarmStartConfig, replay_enterprise_directory

    def on_update(update) -> None:
        probe.batch_pending = True

    shared = dict(
        model_state=world / "model.json",
        whois_path=world / "whois.json",
        bootstrap_files=0,
        pattern="proxy-*.log",
        batch_size=500,
        warm=WarmStartConfig(enabled=True),
    )
    if reference:
        result = replay_enterprise_directory(
            world, score_every=10**9, **shared
        )
    else:
        result = replay_enterprise_directory(
            world,
            score_every=1,
            checkpoint_path=work / "stream-checkpoint.json",
            checkpoint_every=1,
            on_update=on_update,
            **shared,
        )
    return {
        "detections": {
            f"day {report.day}": list(report.detected)
            for report in result.reports
        },
        "done": perf_counter(),
        "day_ms": list(probe.day_ms),
        "batch_ms": list(probe.batch_ms),
        "batches": result.batches,
    }


def _fleet(world: Path, work: Path, probe, reference: bool) -> dict:
    from repro.fleet import FleetManager, load_manifest

    manifest = load_manifest(world / "manifest.json")
    if reference:
        manager = FleetManager.from_manifest(
            manifest, workers=1, executor="thread"
        )
    else:
        manager = FleetManager.from_manifest(
            manifest,
            workers=len(os.sched_getaffinity(0)),
            executor="resident",
            checkpoint_dir=work / "fleet-checkpoints",
            intel_db=work / "intel.sqlite",
        )
    out = {"detections": {}, "day_ms": [], "batch_ms": [], "done": None}
    rounds: list[float] = []

    def on_round(reports) -> None:
        rounds.append(perf_counter())
        for report in reports:
            key = f"{report.tenant_id}/{report.day}"
            out["detections"][key] = list(report.detected)
            out["day_ms"].append(report.elapsed_seconds * 1000.0)

    manager.run(on_round=on_round)
    out["done"] = rounds[-1] if rounds else None
    if not reference:
        dumps = [
            json.loads(path.read_text())
            for path in sorted(work.glob("worker-*.json"))
        ]
        first_reads = [d["first_read"] for d in dumps if d["first_read"]]
        out["first_read"] = min(first_reads) if first_reads else None
        out["batch_ms"] = list(probe.batch_ms)
        out["workers"] = dumps
        out["worker_busy_s"] = sum(
            stats["elapsed_seconds"] for stats in manager.worker_stats.values()
        )
        hits = misses = 0
        for cache in (manager.intel.vt_cache, manager.intel.whois_cache):
            hits += cache.stats.hits
            misses += cache.stats.misses
        out["intel_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def _layer_breakdown(probe, marks: dict) -> dict:
    """Main-process self times, the synthetic setup spans and the
    unattributed remainder: they sum to the pass's wall time."""
    spawned, imported = marks["spawned_at"], marks["imported"]
    first_read, returned = marks["first_read"], marks["returned"]
    top = [(start, end) for _, start, end, depth in probe.spans if depth == 0]
    in_build = sum(
        max(0.0, min(end, first_read) - max(start, imported))
        for start, end in top
    )
    layers = dict(probe.self_s)
    layers["setup.import"] = imported - spawned
    layers["setup.build"] = (first_read - imported) - in_build
    wall = returned - spawned
    return {
        "wall_s": wall,
        "layers": layers,
        "unattributed_s": wall - sum(layers.values()),
    }


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    spawned_at = float(argv[2])
    sys.path.insert(0, spec["src"])
    import repro  # noqa: F401  (setup cost: the package import)
    import repro.fleet.workers  # noqa: F401
    import repro.intelstore  # noqa: F401
    import repro.runner  # noqa: F401
    import repro.streaming  # noqa: F401
    imported = perf_counter()

    import probe as probes

    world = Path(spec["world"])
    work = Path(spec["work"])
    reference = spec["arm"] == "reference"
    meta = json.loads((world / "world.json").read_text())
    probe = probes.Probe(trace=spec["trace"])
    if not reference:
        line_counts = {
            os.path.abspath(world / rel): n
            for rel, n in meta["line_counts"].items()
        }
        probes.install(probe, line_counts, work)

    out: dict = {"spawned_at": spawned_at, "imported": imported}
    try:
        if meta["workload"] == "dns-batch":
            result = _dns(world, meta["params"], reference)
        elif meta["workload"] == "proxy-stream-durable":
            result = _proxy(world, work, probe, reference)
        else:
            result = _fleet(world, work, probe, reference)
    except Exception:
        out["error"] = traceback.format_exc()
        Path(spec["out"]).write_text(json.dumps(out))
        return 1
    out.update(result)
    out["returned"] = perf_counter()
    if out.get("first_read") is None:
        out["first_read"] = probe.first_read
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = max(self_kib, child_kib) / 1024.0
    if probe.trace and out["first_read"] is not None:
        dump = probe.dump()
        out["trace"] = _layer_breakdown(probe, out)
        for key in ("counts", "verdict_stats", "spans"):
            out["trace"][key] = dump[key]
    Path(spec["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
