"""Record golden detections per (tenant-)day for a range of seeds.

Usage, from the root of a checkout::

    python3 perfbench/record_goldens.py --workload dns-batch --seeds 0-24

For each seed the world is built, the reference arm and one measured
pass run, and -- only if the two agree on every (tenant-)day -- the
detections are stored under the seed in ``perfbench/goldens/<workload>.json``
(seeds already present are replaced, others kept).  ``run.py`` then
fails any later pass whose detections differ from them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

import run
import worlds


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(workload: str, seed: int, size: str, root: Path) -> dict:
    """The seed's detections, checked bench-vs-reference."""
    deadline = perf_counter() + run.DEADLINE_S
    work = root / ".perfbench" / f"golden-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    world = work / "world"
    try:
        code = run._spawn([
            sys.executable, str(run.BENCH_DIR / "worlds.py"),
            str(root / "src"), workload, str(seed), str(world), size,
        ], deadline)
        if code != 0:
            raise SystemExit(f"building the {workload} world failed")
        spec = {"src": str(root / "src"), "world": str(world), "trace": False}
        reference = run._run_pass(work, 0, dict(spec, arm="reference"),
                                  deadline)
        bench = run._run_pass(work, 1, dict(spec, arm="bench"), deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for arm in (reference, bench):
        if "error" in arm:
            raise SystemExit(f"{workload} seed {seed}: {arm['error']}")
    if bench["detections"] != reference["detections"]:
        raise SystemExit(
            f"{workload} seed {seed}: the measured pass and the reference "
            "arm disagree; not recording"
        )
    return bench["detections"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=worlds.WORKLOADS)
    parser.add_argument("--seeds", required=True, type=_seeds,
                        help="e.g. 0-24 or 1,3,5-7")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path,
                        default=run.BENCH_DIR / "goldens")
    args = parser.parse_args(argv)

    path = args.out / f"{args.workload}.json"
    document = {"size": args.size, "seeds": {}}
    if path.is_file():
        document = json.loads(path.read_text())
        if document["size"] != args.size:
            raise SystemExit(f"{path} holds {document['size']} goldens")
    for seed in args.seeds:
        detections = record(args.workload, seed, args.size, Path.cwd())
        document["seeds"][str(seed)] = detections
        args.out.mkdir(parents=True, exist_ok=True)
        document["seeds"] = dict(
            sorted(document["seeds"].items(), key=lambda kv: int(kv[0]))
        )
        path.write_text(json.dumps(document, indent=1, sort_keys=False) + "\n")
        print(f"{args.workload} seed {seed}: {len(detections)} "
              "(tenant-)days recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
