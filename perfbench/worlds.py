"""Deterministic benchmark worlds, one per workload, built from a seed.

Every world is written with the public ``repro.synthetic`` generators
and layout writers, the same ones ``repro-detect generate`` uses, so
the benchmark replays exactly the files an operator would point the
CLI at.  Building a world is outside every timing.  Alongside the log
files each world gets a ``world.json`` holding the line count of every
log file and the (tenant-)day counts the report prints.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Per-workload world shapes.  ``full`` is what the benchmark measures;
#: ``tiny`` keeps the self-test fast.  A full pass is sized to a few
#: seconds of detection work on a 2-vCPU host so that one run repeats
#: it several times, each in a fresh interpreter.  ``target_lines`` is
#: the size of the world's first ``target_days`` days (all tenants)
#: that seed selection aims for.
SIZES = {
    "dns-batch": {
        "full": {"hosts": 150, "days": 10, "bootstrap_files": 2,
                 "target_days": 1, "target_lines": 20000},
        "tiny": {"hosts": 40, "days": 3, "bootstrap_files": 1,
                 "target_days": 1, "target_lines": 6000},
    },
    "proxy-stream-durable": {
        # A run must time >= 200 micro-batches (so >= 10 lie beyond
        # p95); a full pass yields ~105, so a run makes two or more.
        "full": {"hosts": 90, "days": 5, "target_days": 5,
                 "target_lines": 52500, "min_batches": 200},
        "tiny": {"hosts": 30, "days": 2, "target_days": 2,
                 "target_lines": 10000},
    },
    "fleet-resident": {
        "full": {"hosts": 70, "days": 7, "tenants": 4,
                 "enterprise_tenants": 1, "ct_siblings": 2,
                 "target_days": 1, "target_lines": 39000},
        "tiny": {"hosts": 30, "days": 3, "tenants": 2,
                 "enterprise_tenants": 1, "ct_siblings": 2,
                 "target_days": 1, "target_lines": 16000},
    },
}

WORKLOADS = tuple(SIZES)

#: Internal namespace suffix of generated DNS worlds (the
#: ``--internal-suffix int.c0`` every CLI example passes).
INTERNAL_SUFFIX = "int.c0"

#: How far a world's leading days may miss ``target_lines``.  The generators'
#: world-level draws (service periods, popular sets) swing a day's size
#: by a factor of two or more between seeds at a fixed host count; a
#: benchmark seed must not change how much work a run measures, so the
#: world is drawn over generator seeds derived from ``--seed`` until one
#: lands within this share of the target.
SIZE_TOLERANCE = 0.05
#: Targets sit at the generators' median size, where a quarter or more
#: of the tries land; the cap bounds the build time.
MAX_TRIES = 40


def _count_lines(path: Path) -> int:
    with path.open("rb") as handle:
        return sum(1 for _ in handle)


def _dns_world(seed: int, size: dict):
    from repro.synthetic import LanlConfig, generate_lanl_dataset

    dataset = generate_lanl_dataset(
        LanlConfig(seed=seed, n_hosts=size["hosts"])
    )
    return dataset, sum(
        len(dataset.day_records(march_date))
        for march_date in range(1, size["target_days"] + 1)
    )


def _write_dns_world(dataset, directory: Path, size: dict) -> None:
    from repro.logs import format_dns_line

    for march_date in range(1, size["days"] + 1):
        path = directory / f"dns-march-{march_date:02d}.log"
        with path.open("w") as handle:
            for record in dataset.day_records(march_date):
                handle.write(format_dns_line(record) + "\n")


def _proxy_world(seed: int, size: dict):
    from repro.synthetic import (
        EnterpriseDatasetConfig,
        generate_enterprise_dataset,
    )

    dataset = generate_enterprise_dataset(EnterpriseDatasetConfig(
        seed=seed,
        n_hosts=size["hosts"],
        operation_days=max(size["days"], 4),
        quiet_days=1,
    ))
    first = dataset.config.bootstrap_days
    return dataset, sum(
        len(dataset.day_proxy_records(day))
        for day in range(first, first + size["target_days"])
    )


def _write_proxy_world(dataset, directory: Path, size: dict) -> None:
    from repro.synthetic import write_enterprise_layout

    write_enterprise_layout(dataset, directory, days=size["days"])


def _fleet_world(seed: int, size: dict):
    from repro.synthetic import (
        FleetScenarioConfig,
        LanlConfig,
        generate_fleet_dataset,
    )

    fleet = generate_fleet_dataset(FleetScenarioConfig(
        seed=seed,
        n_tenants=size["tenants"],
        tenant=LanlConfig(seed=seed, n_hosts=size["hosts"]),
        enterprise_tenants=size["enterprise_tenants"],
        ct_sibling_domains=size["ct_siblings"],
    ))
    return fleet, sum(
        len(fleet.tenant_day_records(tenant, march_date))
        for tenant in fleet.tenant_ids
        for march_date in range(1, size["target_days"] + 1)
    )


def _write_fleet_world(fleet, directory: Path, size: dict) -> None:
    from repro.synthetic import write_fleet_layout

    write_fleet_layout(fleet, directory, days=size["days"])


WORLD_MAKERS = {
    "dns-batch": (_dns_world, _write_dns_world),
    "proxy-stream-durable": (_proxy_world, _write_proxy_world),
    "fleet-resident": (_fleet_world, _write_fleet_world),
}


def select_world(workload: str, seed: int, size: dict):
    """The first generated world, over generator seeds derived from
    ``seed``, whose leading days are within :data:`SIZE_TOLERANCE` of the
    target (the closest one if none is).  Returns (world, generator
    seed, tries)."""
    generate, _ = WORLD_MAKERS[workload]
    target = size["target_lines"]
    best = None
    for attempt in range(MAX_TRIES):
        generator_seed = seed * 10_000 + attempt
        world, lines = generate(generator_seed, size)
        miss = abs(lines - target) / target
        if best is None or miss < best[0]:
            best = (miss, world, generator_seed)
        if miss <= SIZE_TOLERANCE:
            break
    return best[1], best[2], attempt + 1


def build_world(workload: str, seed: int, directory: Path,
                size_name: str = "full") -> dict:
    """Write the workload's world for ``seed`` into ``directory``.

    Returns the ``world.json`` document: per-file line counts, total
    lines, and how many (tenant-)days the run detects on.
    """
    size = SIZES[workload][size_name]
    directory.mkdir(parents=True, exist_ok=True)
    world, generator_seed, tries = select_world(workload, seed, size)
    WORLD_MAKERS[workload][1](world, directory, size)
    if workload == "fleet-resident":
        manifest = json.loads((directory / "manifest.json").read_text())
        tenants = manifest["tenants"]
    else:
        tenants = [{
            "directory": ".",
            "pattern": "dns-*.log" if workload == "dns-batch" else "proxy-*.log",
            "bootstrap_files": size.get("bootstrap_files", 0),
        }]
    logs = []
    detect_days = 0
    for tenant in tenants:
        tenant_logs = sorted(
            (directory / tenant["directory"]).glob(tenant["pattern"])
        )
        logs.extend(tenant_logs)
        detect_days += len(tenant_logs) - tenant["bootstrap_files"]
    lines = {
        str(path.relative_to(directory)): _count_lines(path) for path in logs
    }
    document = {
        "workload": workload,
        "seed": seed,
        "generator_seed": generator_seed,
        "tries": tries,
        "size": size_name,
        "params": size,
        "tenants": len(tenants),
        "files": len(lines),
        "detect_days": detect_days,
        "lines": sum(lines.values()),
        "line_counts": lines,
    }
    (directory / "world.json").write_text(
        json.dumps(document, indent=1) + "\n"
    )
    return document


def main(argv: list[str]) -> int:
    """``python3 perfbench/worlds.py SRC WORKLOAD SEED DIR SIZE``: build
    one world in its own interpreter (run.py keeps the generators'
    memory out of its own process)."""
    src, workload, seed, directory, size_name = argv[1:6]
    sys.path.insert(0, src)
    build_world(workload, int(seed), Path(directory), size_name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
