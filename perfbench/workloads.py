"""The four workloads' measured passes and their output checks.

``measure_<workload>`` runs with tracing off and returns the end-to-end
metrics except ``setup_s`` and ``peak_rss_mb``, which ``run.py`` takes;
``trace_<pass>`` runs a traced pass and returns per-layer metrics. Every
call into the package goes through a :class:`timing.Ledger`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

import inputs
from timing import HostSpeed, Ledger, NoSamples, Samples, median_of, one_cpu
from tracing import Tracer
from wastefactor import cli, components, config, core, netsim, parallel

AUDIT_BOUND = 1e-6    # relative energy-conservation error allowed per drop
ORACLE_BOUND = 1e-9   # cascade law against the power_flow oracle
ORDER_SLACK = 1e-12   # rounding room when checking where a combine lands
CSV_NAMES = ("drops.csv", "aggregate.csv")
CHILD_TIMEOUT_S = 120
DIGESTS = Path(__file__).with_name("digests.json")

NC = parallel.CombiningMode.NON_COHERENT
COH = parallel.CombiningMode.COHERENT


# --- output checks ---------------------------------------------------------


class OutputCheck:
    """Campaign CSVs must repeat byte for byte: against known digests when
    the inputs are the recorded ones, else against the first output seen."""

    def __init__(self, expected: dict[str, str] | None) -> None:
        self.expected = expected

    def __call__(self, out_dir: Path) -> str | None:
        digests = {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in CSV_NAMES
        }
        if self.expected is None:
            self.expected = digests
            return None
        if digests != self.expected:
            return f"output digests {digests} differ from {self.expected}"
        return None


def recorded_digests(workload: str, seed: int, smoke: bool) -> dict[str, str] | None:
    if seed != inputs.DEFAULT_SEED or smoke:
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]


def golden_digests(seed: int) -> dict[str, str] | None:
    if seed != inputs.DEFAULT_SEED:
        return None
    goldens = (inputs.GOLDEN_DROPS, inputs.GOLDEN_AGGREGATE)
    return {
        name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for name, path in zip(CSV_NAMES, goldens)
    }


def audit_problem(results) -> str | None:
    worst = max(r.audit_rel_error for r in results)
    if not worst <= AUDIT_BOUND:
        return f"energy audit error {worst:.3g} exceeds {AUDIT_BOUND:g}"
    return None


class CampaignRunner:
    """``run_campaign`` plus ``write_campaign_csvs`` into one directory,
    checked for the audit bound and byte-identical output."""

    def __init__(self, base, campaign, ledger: Ledger, out_dir: Path, check: OutputCheck):
        self.base, self.campaign = base, campaign
        self.ledger, self.out_dir, self.check = ledger, out_dir, check

    def _run(self, jobs: int) -> list[netsim.DropRow]:
        rows, aggregates = netsim.run_campaign(self.base, self.campaign, jobs=jobs)
        netsim.write_campaign_csvs(rows, aggregates, self.out_dir)
        return rows

    def run(self, jobs: int) -> float | None:
        """Seconds taken, or None when the run raised."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        done = self.ledger.attempt(
            f"run_campaign(jobs={jobs}) + write_campaign_csvs",
            partial(self._run, jobs),
            lambda rows: audit_problem(r.result for r in rows) or self.check(self.out_dir),
        )
        return None if done is None else done[1]

    def csv_bytes(self) -> int:
        return sum((self.out_dir / name).stat().st_size for name in CSV_NAMES)


# --- campaign workloads: reference_campaign, small_drops ------------------


def grid_cells(campaign: netsim.CampaignSpec) -> list[netsim.CampaignSpec]:
    """One single-cell campaign per grid cell, in the grid's order."""
    return [
        replace(campaign, frequencies_hz=(f,), antenna_modes=(mode,), n_bs_values=(n_bs,))
        for f in campaign.frequencies_hz
        for mode in campaign.antenna_modes
        for n_bs in campaign.n_bs_values
    ]


def measure_campaign(inp, seconds, ledger, workdir, check, factors) -> dict[str, float]:
    """Rounds until the time is up, on one CPU. A round runs
    ``run_campaign(jobs=1)`` once per grid cell, each cell one block of a
    :class:`HostSpeed`, then ``write_campaign_csvs`` on all the cells' rows,
    which gives the same drops.csv and aggregate.csv as a whole-grid run.
    It then runs every drop alone through ``evaluate_drop``, in blocks of
    about ``DROP_BLOCK_S``.

    ``items_per_s`` is drops over the summed cell and write times; the
    latencies are percentiles over drops. Each operation's time is its
    median over rounds.
    """
    cells = grid_cells(inp.campaign)
    n_seeds = inp.campaign.n_seeds
    # Seed k of every cell, then seed k + 1: the heaviest drops share a few
    # cells, and this spreads them over the round instead of one stretch.
    drop_order = [i * n_seeds + k for k in range(n_seeds) for i in range(len(cells))]
    out_dir = workdir / "campaign"
    cell_s = Samples(len(cells), "run_campaign(jobs=1)")
    drop_s = Samples(len(inp.scenarios), "evaluate_drop")
    write_s = Samples(1, "write_campaign_csvs")
    rounds = 0
    start = time.perf_counter()
    with one_cpu():
        speed = HostSpeed(factors)
        while rounds == 0 or time.perf_counter() - start < seconds:
            rounds += 1
            _cells_and_csvs(inp, cells, ledger, out_dir, check, speed, cell_s, write_s)
            _drops(inp, drop_order, ledger, speed, drop_s)
    return {
        "items_per_s": len(inp.scenarios) / (cell_s.total_s() + write_s.total_s()),
        "item_ms.p50": drop_s.percentile_ms(50),
        "item_ms.tail": drop_s.percentile_ms(98),
    }


DROP_BLOCK_S = 0.05


def _cells_and_csvs(inp, cells, ledger, out_dir, check, speed, cell_s, write_s) -> None:
    rows: list[netsim.DropRow] = []
    aggregates: list[netsim.AggregateRow] = []
    complete = True
    speed.start()
    for i, cell in enumerate(cells):
        done = ledger.attempt(
            f"run_campaign({cell.frequencies_hz[0] / 1e9:g} GHz, "
            f"{cell.antenna_modes[0]}, {cell.n_bs_values[0]} BS, jobs=1)",
            partial(netsim.run_campaign, inp.base, cell, jobs=1),
            lambda out: audit_problem(row.result for row in out[0]),
        )
        cell_s.add(i, done, speed.factor())
        if done is None:
            complete = False
        else:
            rows += done[0][0]
            aggregates += done[0][1]
    if complete:
        shutil.rmtree(out_dir, ignore_errors=True)
        speed.start()
        done = ledger.attempt(
            "write_campaign_csvs",
            partial(netsim.write_campaign_csvs, rows, aggregates, out_dir),
            lambda _: check(out_dir),
        )
        write_s.add(0, done, speed.factor())


def _drops(inp, order, ledger, speed, drop_s) -> None:
    block: list[tuple[int, tuple[Any, float] | None]] = []
    speed.start()
    block_start = time.perf_counter()
    for j in order:
        s = inp.scenarios[j]
        block.append((j, ledger.attempt(
            f"evaluate_drop({s.frequency_hz / 1e9:g} GHz, {s.antenna_mode}, "
            f"{s.n_bs} BS, seed {s.seed})",
            partial(netsim.evaluate_drop, s),
            lambda r: audit_problem([r]),
        )))
        if time.perf_counter() - block_start >= DROP_BLOCK_S or j == order[-1]:
            factor = speed.factor()
            for index, done in block:
                drop_s.add(index, done, factor)
            block = []
            block_start = time.perf_counter()


NETSIM_KERNEL = (
    "generate_layout",
    "assign_serving_sets",
    "effective_loss_matrix",
    "power_control",
    "evaluate_links",
)


def _drop_counters(result: netsim.DropResult) -> dict[str, int]:
    return {
        "capped_links": result.n_capped_links,
        "budget_limited_bs": result.n_budget_limited_bs,
        "clamped_links": result.n_clamped_links,
        "unserved_ue": result.n_unserved_ue,
    }


def install_netsim(tracer: Tracer) -> None:
    for name in NETSIM_KERNEL:
        count = None
        if name == "assign_serving_sets":
            count = lambda sets: {"links_served": sum(len(s) for s in sets)}  # noqa: E731
        elif name == "effective_loss_matrix":
            count = lambda out: {"link_cells": out[0].size}  # noqa: E731
        tracer.wrap(netsim, name, f"netsim.{name}", count)
    tracer.wrap(netsim, "evaluate_drop", "netsim.evaluate_drop", _drop_counters)
    # cli holds its own references to the campaign functions.
    for owner in (netsim, cli):
        tracer.wrap(owner, "run_campaign", "netsim.run_campaign")
        tracer.wrap(owner, "write_campaign_csvs", "netsim.write_campaign_csvs")


def netsim_layers(tracer: Tracer, serial_s: float, jobs2_s: float, csv_bytes: int) -> dict[str, float]:
    """Drop-kernel times per drop, work and model counters over the traced
    drops, and campaign-level times. ``serial_s`` and ``jobs2_s`` are
    untraced; ``serial_s`` is the base of ``pool_speedup``."""
    stats, counts = tracer.stats(), tracer.counts
    drops = stats["netsim.evaluate_drop"]
    campaigns = stats["netsim.run_campaign"]
    writes = stats["netsim.write_campaign_csvs"]
    metrics = {
        f"netsim.{name}.ms": stats[f"netsim.{name}"].total_ns / drops.count / 1e6
        for name in NETSIM_KERNEL
    }
    metrics["netsim.evaluate_drop.self_ms"] = drops.self_ns / drops.count / 1e6
    for name in ("link_cells", "links_served", "capped_links", "budget_limited_bs",
                 "clamped_links", "unserved_ue"):
        metrics[f"netsim.{name}"] = counts[name]
    metrics["netsim.link_cells_per_s"] = counts["link_cells"] / (drops.total_ns / 1e9)
    metrics["netsim.run_campaign.s"] = serial_s
    metrics["netsim.run_campaign_jobs2.s"] = jobs2_s
    metrics["netsim.campaign_overhead.s"] = (campaigns.total_ns - drops.total_ns) / campaigns.count / 1e9
    metrics["netsim.pool_speedup"] = serial_s / jobs2_s
    metrics["netsim.write_campaign_csvs.ms"] = writes.total_ns / writes.count / 1e6
    metrics["netsim.csv_bytes"] = csv_bytes
    return metrics


def drop_self_time_split(tracer: Tracer) -> dict[str, float]:
    """Self time of each drop-kernel span and of evaluate_drop, in ms; their
    sum equals the evaluate_drop total."""
    stats = tracer.stats()
    split = {name: stats[f"netsim.{name}"].self_ns / 1e6 for name in NETSIM_KERNEL + ("evaluate_drop",)}
    split["evaluate_drop_total"] = stats["netsim.evaluate_drop"].total_ns / 1e6
    return split


def trace_campaign(inp, ledger, workdir, expected) -> tuple[dict[str, float], Tracer]:
    """Serial and jobs=2 campaigns back to back (raw wall times, the base
    and the pool's time), then on one CPU the serial campaign untraced and
    traced, each one block of a :class:`HostSpeed`."""
    runner = CampaignRunner(inp.base, inp.campaign, ledger, workdir / "campaign", OutputCheck(expected))
    serial_s = runner.run(jobs=1)
    jobs2_s = runner.run(jobs=2)
    tracer = Tracer()
    with one_cpu():
        speed = HostSpeed([])
        plain_s = runner.run(jobs=1)
        plain_factor = speed.factor()
        install_netsim(tracer)
        try:
            traced_s = runner.run(jobs=1)
        finally:
            tracer.restore()
        traced_factor = speed.factor()
    if None in (serial_s, jobs2_s, plain_s, traced_s):
        raise NoSamples("campaign")
    metrics = netsim_layers(tracer, serial_s, jobs2_s, runner.csv_bytes())
    metrics["trace.overhead_frac"] = traced_s * traced_factor / (plain_s * plain_factor) - 1.0
    return metrics, tracer


# --- cli_small -------------------------------------------------------------


def child_env(**extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "WF_SEED"}
    env.update(extra)
    return env


def _cli_argv(inp: inputs.CliInputs, out_dir: Path) -> list[str]:
    return ["simulate", inp.config_path, "--jobs", "1", "--out", str(out_dir)]


def cli_reference(inp, ledger, workdir, seed) -> tuple[OutputCheck, CampaignRunner, float | None, float | None]:
    """In-process jobs=1 and jobs=2 campaigns of the parsed config: they
    must match the goldens at the default seed and each other always; the
    CLI's output must then match them."""
    check = OutputCheck(golden_digests(seed))
    runner = CampaignRunner(inp.base, inp.campaign, ledger, workdir / "in_process", check)
    return check, runner, runner.run(jobs=1), runner.run(jobs=2)


def measure_cli(inp, seconds, ledger, workdir, check, min_calls, factors) -> dict[str, float]:
    """Fresh ``wastefactor simulate`` processes one after another until the
    time is up, each call one block of a :class:`HostSpeed` over all CPUs;
    their CSVs must pass ``check``, the one :func:`cli_reference` returns."""
    out_dir = workdir / "cli"
    command = [sys.executable, "-m", "wastefactor.cli", *_cli_argv(inp, out_dir)]
    env = child_env(WF_SEED=str(inp.wf_seed))

    def check_process(proc: subprocess.CompletedProcess) -> str | None:
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return check(out_dir)

    call_s: list[float] = []
    attempts = 0
    start = time.perf_counter()
    speed = HostSpeed(factors)
    while attempts < min_calls or time.perf_counter() - start < seconds:
        attempts += 1
        shutil.rmtree(out_dir, ignore_errors=True)
        done = ledger.attempt(
            "wastefactor simulate",
            partial(subprocess.run, command, env=env, capture_output=True, text=True,
                    timeout=CHILD_TIMEOUT_S),
            check_process,
        )
        factor = speed.factor()
        if done is not None:
            call_s.append(done[1] * factor)
    median_s = median_of(call_s, "wastefactor simulate")
    return {
        "items_per_s": 1.0 / median_s,
        "item_ms.p50": median_s * 1e3,
        "item_ms.tail": float(np.percentile(call_s, 75)) * 1e3,
    }


IMPORT_TIMER = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"


def fresh_process_s(ledger, what, code, runs, inside, speed, env=None) -> list[float]:
    """Seconds of ``runs`` fresh interpreters running ``code``, each one
    block of ``speed``: the wall time seen from here, or the seconds the
    child prints when ``inside``."""
    samples = []
    speed.start()
    for _ in range(runs):
        done = ledger.attempt(
            what,
            partial(subprocess.run, [sys.executable, "-c", code], env=env or child_env(),
                    capture_output=True, text=True, timeout=CHILD_TIMEOUT_S),
            lambda proc: None if proc.returncode == 0 else
            f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}",
        )
        factor = speed.factor()
        if done is not None:
            proc, wall = done
            samples.append((float(proc.stdout.split()[-1]) if inside else wall) * factor)
    return samples


@contextlib.contextmanager
def _wf_seed(value: int):
    previous = os.environ.get("WF_SEED")
    os.environ["WF_SEED"] = str(value)
    try:
        yield
    finally:
        if previous is None:
            del os.environ["WF_SEED"]
        else:
            os.environ["WF_SEED"] = previous


def _cli_main_call(inp, ledger, out_dir, check) -> float | None:
    shutil.rmtree(out_dir, ignore_errors=True)
    with _wf_seed(inp.wf_seed), contextlib.redirect_stdout(io.StringIO()):
        done = ledger.attempt(
            "cli.main(simulate)",
            partial(cli.main, _cli_argv(inp, out_dir)),
            lambda code: f"returned {code}" if code != 0 else check(out_dir),
        )
    return None if done is None else done[1]


def trace_cli(inp, ledger, workdir, seed, runs) -> tuple[dict[str, float], Tracer]:
    """Interpreter start and import floors from fresh processes, then warm
    in-process ``cli.main`` calls on one CPU, untraced and traced in turn;
    each process and call is one block of a :class:`HostSpeed`. The traced
    calls also give the drop-kernel spans of the small config's campaign."""
    check, runner, serial_s, jobs2_s = cli_reference(inp, ledger, workdir, seed)
    out_dir = workdir / "cli_main"
    tracer = Tracer()
    untraced: list[float] = []
    ratios: list[float] = []
    speed = HostSpeed([])
    metrics = {
        metric: median_of(fresh_process_s(ledger, what, code, runs, inside, speed), what) * 1e3
        for metric, what, code, inside in (
            ("cli.python_startup.ms", "bare interpreter", "pass", False),
            ("cli.import_numpy.ms", "import numpy", IMPORT_TIMER.format("numpy"), True),
            ("cli.import.ms", "import wastefactor.cli", IMPORT_TIMER.format("wastefactor.cli"), True),
        )
    }
    with one_cpu():
        speed = HostSpeed([])
        _cli_main_call(inp, ledger, out_dir, check)  # warm-up
        speed.start()
        for _ in range(runs):
            plain_s = _cli_main_call(inp, ledger, out_dir, check)
            plain_factor = speed.factor()
            install_netsim(tracer)
            tracer.wrap(cli, "main", "cli.main")
            for name in ("load_config", "scenario_from_config", "campaign_from_config"):
                tracer.wrap(config, name, f"config.{name}")
            try:
                traced_s = _cli_main_call(inp, ledger, out_dir, check)
            finally:
                tracer.restore()
            traced_factor = speed.factor()
            if plain_s is not None and traced_s is not None:
                untraced.append(plain_s * plain_factor)
                ratios.append(traced_s * traced_factor / untraced[-1])
    if serial_s is None or jobs2_s is None:
        raise NoSamples("in-process campaign of the small config")
    stats = tracer.stats()
    metrics["cli.main.ms"] = median_of(untraced, "cli.main") * 1e3
    for name in ("load_config", "scenario_from_config", "campaign_from_config"):
        entry = stats[f"config.{name}"]
        metrics[f"config.{name}.ms"] = entry.total_ns / entry.count / 1e6
    metrics.update(netsim_layers(tracer, serial_s, jobs2_s, runner.csv_bytes()))
    metrics["trace.overhead_frac"] = median_of(ratios, "traced cli.main") - 1.0
    return metrics, tracer


# --- calculus --------------------------------------------------------------


def _relative(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _cascade_item(params: list[tuple[float, float]]) -> tuple[float, float]:
    stages = [core.Stage(w=w, g=g) for w, g in params]
    return core.cascade(stages).w, core.power_flow(stages, 1.0).w


def _oracle_problem(pair: tuple[float, float]) -> str | None:
    closed, oracle = pair
    if not _relative(closed, oracle) <= ORACLE_BOUND:
        return f"cascade W {closed!r} vs power_flow W {oracle!r}"
    return None


def _group_item(group: inputs.ParallelGroup) -> list[str]:
    """One M-input N-output group: per output a MISO combine both ways and
    through the terminal, then the MINO first stage and composition.
    Returns the violated orderings (an empty list when all hold)."""
    terminal = core.Stage(*group.terminal)
    m, n = len(group.tx_w), len(group.channel_w[0])
    rx = parallel.received_power_matrix(group.tx_w, group.channel_w, NC)
    problems, w_out = [], []
    for j in range(n):
        losses = [group.channel_w[i][j] for i in range(m)]
        branches = [
            parallel.Branch(core.Stage(w=loss, g=1.0 / loss), tx / loss)
            for tx, loss in zip(group.tx_w, losses)
        ]
        w_nc = parallel.combine_branches(branches, NC)
        w_coh = parallel.combine_branches(branches, COH)
        parallel.miso_compose(branches, NC, terminal)
        if not min(losses) * (1 - ORDER_SLACK) <= w_nc <= max(losses) * (1 + ORDER_SLACK):
            problems.append(f"non-coherent W {w_nc!r} outside [{min(losses)!r}, {max(losses)!r}]")
        if not w_coh <= w_nc * (1 + ORDER_SLACK):
            problems.append(f"coherent W {w_coh!r} above non-coherent {w_nc!r}")
        if not _relative(rx[j], sum(b.weight for b in branches)) <= ORACLE_BOUND:
            problems.append(f"received power {rx[j]!r} is not the sum of branch weights")
        w_out.append(w_nc)
    first = parallel.mino_first_stage(rx, w_out)
    parallel.mino_compose(first, terminal.w, terminal.g)
    if not min(w_out) * (1 - ORDER_SLACK) <= first <= max(w_out) * (1 + ORDER_SLACK):
        problems.append(f"MINO first stage {first!r} outside its outputs' range")
    return problems


def _sweep_item(ru_spec, ue_spec, loss_db: float) -> tuple[float, float]:
    chain = [
        components.build_ru(ru_spec).stage,
        core.Stage.from_loss_db(loss_db),
        components.build_ue(ue_spec).stage,
    ]
    return components.end_to_end(*chain).w, core.power_flow(chain, 1.0).w


def calculus_pass(inp: inputs.CalculusInputs, ledger: Ledger) -> tuple[float, list[float]]:
    """Every item once, in a fixed order. Returns the pass's wall time and
    the seconds of each item that passed."""
    attempts = [
        (f"cascade {i}", partial(_cascade_item, params), _oracle_problem)
        for i, params in enumerate(inp.cascades)
    ] + [
        (f"parallel group {i}", partial(_group_item, group), lambda problems: "; ".join(problems) or None)
        for i, group in enumerate(inp.groups)
    ] + [
        (f"device pair {i} at {loss_db:g} dB", partial(_sweep_item, ru, ue, loss_db), _oracle_problem)
        for i, (ru, ue) in enumerate(inp.devices)
        for loss_db in inp.sweep_db
    ]
    item_s = []
    start = time.perf_counter()
    for what, fn, check in attempts:
        done = ledger.attempt(what, fn, check)
        if done is not None:
            item_s.append(done[1])
    return time.perf_counter() - start, item_s


def measure_calculus(inp, seconds, ledger, factors) -> dict[str, float]:
    """Passes over the fixed mix until the time is up, on one CPU, each
    pass one block of a :class:`HostSpeed`. Each metric is its median over passes, so memory stays
    flat however many passes fit; ``items_per_s`` counts item time only."""
    rates: list[float] = []
    p50_ms: list[float] = []
    tail_ms: list[float] = []
    start = time.perf_counter()
    with one_cpu():
        speed = HostSpeed(factors)
        while not rates or time.perf_counter() - start < seconds:
            _, item_s = calculus_pass(inp, ledger)
            factor = speed.factor()
            if not item_s:
                raise NoSamples("calculus item")
            rates.append(len(item_s) / (sum(item_s) * factor))
            p50_ms.append(float(np.percentile(item_s, 50)) * factor * 1e3)
            tail_ms.append(float(np.percentile(item_s, 98)) * factor * 1e3)
    return {
        "items_per_s": statistics.median(rates),
        "item_ms.p50": statistics.median(p50_ms),
        "item_ms.tail": statistics.median(tail_ms),
    }


CALCULUS_LAYERS = {
    # metric: (spans summed, span whose calls divide the sum)
    "core.stage_init.us": (("core.stage_init",), "core.stage_init"),
    "core.cascade.us": (("core.cascade",), "core.cascade"),
    "core.power_flow.us": (("core.power_flow",), "core.power_flow"),
    "parallel.combine_branches.us": (("parallel.combine_branches",), "parallel.combine_branches"),
    "parallel.miso_compose.us": (("parallel.miso_compose",), "parallel.miso_compose"),
    "parallel.received_power_matrix.us": (("parallel.received_power_matrix",), "parallel.received_power_matrix"),
    "parallel.mino.us": (("parallel.mino_first_stage", "parallel.mino_compose"), "parallel.mino_compose"),
    "components.build_ru_ue.us": (("components.build_ru", "components.build_ue"), "components.build_ru"),
    "components.end_to_end.us": (("components.end_to_end",), "components.end_to_end"),
}


def install_calculus(tracer: Tracer) -> None:
    tracer.wrap(core.Stage, "__init__", "core.stage_init")
    for owner, names in (
        (core, ("cascade", "power_flow")),
        (parallel, ("combine_branches", "miso_compose", "received_power_matrix",
                    "mino_first_stage", "mino_compose")),
        (components, ("build_ru", "build_ue", "end_to_end")),
    ):
        for name in names:
            tracer.wrap(owner, name, f"{owner.__name__.rsplit('.', 1)[-1]}.{name}")


def trace_calculus(inp, ledger, pairs) -> tuple[dict[str, float], Tracer]:
    """Untraced and traced passes in turn on one CPU, each one block of a
    :class:`HostSpeed`; per-call times are inclusive."""
    tracer = Tracer()
    ratios = []
    with one_cpu():
        speed = HostSpeed([])
        for _ in range(pairs):
            plain_s = calculus_pass(inp, ledger)[0] * speed.factor()
            install_calculus(tracer)
            try:
                traced_s = calculus_pass(inp, ledger)[0]
            finally:
                tracer.restore()
            ratios.append(traced_s * speed.factor() / plain_s)
    stats = tracer.stats()
    metrics = {
        metric: sum(stats[s].total_ns for s in spans) / stats[per].count / 1e3
        for metric, (spans, per) in CALCULUS_LAYERS.items()
    }
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return metrics, tracer
