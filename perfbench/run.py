"""Benchmark of the wastefactor package.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a wastefactor checkout: the package is imported
from its ``src/``, never from an installed copy. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``. The line before it records provenance and notes. See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
SCHEMA_VERSION = 1
REQUIRED = (
    "BENCHMARK.json",
    "src/wastefactor/__init__.py",
    "configs/simulate_small.ini",
    "tests/golden/simulate_small_drops.csv",
    "tests/golden/simulate_small_aggregate.csv",
)
CAMPAIGNS = ("reference_campaign", "small_drops")
WORKLOADS = CAMPAIGNS + ("cli_small", "calculus")
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import inputs; "
    "inputs.BY_WORKLOAD[{workload!r}]({seed}, smoke={smoke}); print(time.perf_counter() - t)"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="workload seed; 0 is the recorded one")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness smoke test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    return args


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text(encoding="utf-8").strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance() -> dict[str, object]:
    import numpy

    digest, lines = hashlib.sha256(), 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "schema_version": SCHEMA_VERSION,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def measure(args, ledger, workdir) -> tuple[dict[str, float], dict[str, object]]:
    import inputs
    import timing
    import workloads

    inp = inputs.BY_WORKLOAD[args.workload](args.seed, args.smoke)
    if args.workload in CAMPAIGNS:
        check = workloads.OutputCheck(
            workloads.recorded_digests(args.workload, args.seed, args.smoke)
        )
    elif args.workload == "cli_small":
        check = workloads.cli_reference(inp, ledger, workdir, args.seed)[0]
    probe = SETUP_PROBE.format(workload=args.workload, seed=args.seed, smoke=args.smoke)
    probes = 1 if args.smoke else 5
    probe_env = workloads.child_env(PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(HERE))))
    factors: list[float] = []
    setup_speed = timing.HostSpeed(factors)
    # Half the set-ups run before the workload and half after it, so that
    # they see more of the host's changing speed than one stretch would.
    setup_s = workloads.fresh_process_s(
        ledger, "setup probe", probe, probes, inside=True, speed=setup_speed, env=probe_env
    )
    if args.workload in CAMPAIGNS:
        metrics = workloads.measure_campaign(inp, args.seconds, ledger, workdir, check, factors)
        # jobs=1 and jobs=2 must write the same bytes.
        workloads.CampaignRunner(inp.base, inp.campaign, ledger, workdir / "jobs2", check).run(jobs=2)
    elif args.workload == "cli_small":
        metrics = workloads.measure_cli(
            inp, args.seconds, ledger, workdir, check, 4 if args.smoke else 40, factors
        )
    else:
        metrics = workloads.measure_calculus(inp, args.seconds, ledger, factors)
    setup_s += workloads.fresh_process_s(
        ledger, "setup probe", probe, probes, inside=True, speed=setup_speed, env=probe_env
    )
    metrics["setup_s"] = timing.median_of(setup_s, "setup probe")
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, {
        "item_ms.tail_percentile": 75 if args.workload == "cli_small" else 98,
        "host_speed_factor": {"min": min(factors), "median": statistics.median(factors),
                              "max": max(factors), "blocks": len(factors)},
    }


def trace(args, ledger, workdir) -> tuple[dict[str, float], dict[str, object]]:
    """Every traced run covers every layer. The cli and calculus layers come
    from their own passes on every workload; the netsim layers come from
    the workload's campaign when it has one, else from the small config's
    campaign that ``cli.main`` runs. Passes of other workloads go first,
    so the workload's own pass sets ``trace.overhead_frac``."""
    import inputs
    import workloads

    seed, smoke, runs = args.seed, args.smoke, 2 if args.smoke else 7
    passes = {
        "cli_small": lambda: workloads.trace_cli(
            inputs.cli_small(seed, smoke), ledger, workdir, seed, runs
        ),
        "calculus": lambda: workloads.trace_calculus(inputs.calculus(seed, smoke), ledger, pairs=3),
    }
    if args.workload in CAMPAIGNS:
        passes[args.workload] = lambda: workloads.trace_campaign(
            inputs.BY_WORKLOAD[args.workload](seed, smoke), ledger, workdir,
            workloads.recorded_digests(args.workload, seed, smoke),
        )
    order = [name for name in passes if name != args.workload] + [args.workload]
    metrics, tracers = {}, {}
    for name in order:
        layer_metrics, tracers[name] = passes[name]()
        metrics.update(layer_metrics)

    netsim_source = args.workload if args.workload in CAMPAIGNS else "cli_small"
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-{seed}.json"
    trace_path.write_text(
        json.dumps({name: tracer.to_json() for name, tracer in tracers.items()}) + "\n",
        encoding="utf-8",
    )
    notes = {
        "netsim_layers_from": netsim_source,
        "drop_self_ms": workloads.drop_self_time_split(tracers[netsim_source]),
        "spans": str(trace_path.relative_to(ROOT)),
    }
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(
            "perfbench: run this from the root of a wastefactor checkout; missing "
            + ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src  # child processes import the same sources
    import timing

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = declared["per_layer" if args.trace else "end_to_end"]
    ledger = timing.Ledger()
    workdir = OUT / f"work-{os.getpid()}"
    try:
        metrics, notes = (trace if args.trace else measure)(args, ledger, workdir)
    except timing.NoSamples as exc:
        print(
            f"perfbench: no successful {exc}; {ledger.failed} of "
            f"{ledger.attempted} operations failed",
            file=sys.stderr,
        )
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    names = [entry["name"] for entry in spec]
    if sorted(metrics) != sorted(names):
        raise RuntimeError(
            f"measured {sorted(metrics)} but BENCHMARK.json declares {sorted(names)}"
        )
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(), "notes": notes,
    }))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
            for entry in spec
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
