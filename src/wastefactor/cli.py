"""Command-line front end.

Subcommands::

    wastefactor cascade  CONFIG [--format csv|json]
    wastefactor system   CONFIG [--format csv|json]
    wastefactor fit      CSV    [--format json|csv]
    wastefactor metrics  CONFIG [--format csv|json]
    wastefactor simulate CONFIG [--seeds N] [--jobs N] [--out DIR]

The four analysis commands each build one table, a list of records, and
both formats print it: JSON as the records, CSV through one writer whose
header is the first record's keys and whose cells quote a comma or a quote
(RFC 4180). ``simulate`` writes its CSV files through ``netsim``.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
The environment variable ``WF_SEED`` overrides the configured base seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from typing import Sequence

from . import config as cfg
from .core import Stage, power_flow
# Module globals, unlike the imports inside the commands: the per-layer
# benchmark wraps cli.run_campaign and cli.write_campaign_csvs.
from .netsim import run_campaign, write_campaign_csvs
from .units import linear_to_db


def _seed_override() -> int | None:
    raw = os.environ.get("WF_SEED")
    if raw is None:
        return None
    try:
        seed = int(raw, 10)
    except ValueError:
        raise cfg.ConfigError(f"WF_SEED must be an integer, got {raw!r}") from None
    if not 0 <= seed < 2 ** 64:
        raise cfg.ConfigError(f"WF_SEED must be a 64-bit unsigned integer, got {seed}")
    return seed


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _print_json(payload) -> None:
    import json  # only --format json pays its import

    # NaN and Infinity are not JSON; a value that slipped through fails here.
    print(json.dumps(payload, indent=2, allow_nan=False))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def _print_csv(records: list[dict]) -> None:
    """One CSV table: the first record's keys, then each record's cells."""
    import csv  # simulate writes its files without it

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(records[0])
    writer.writerows([_cell(value) for value in record.values()] for record in records)


# Each command imports the modules only it uses, so a command loads no more
# of the package than it runs.


def cmd_cascade(args: argparse.Namespace) -> int:
    from .components import ru_devices

    doc = cfg.load_config(args.config)
    if doc.has_section("cascade"):
        stages, source_w = cfg.stages_from_config(doc)
    elif doc.has_section("ru"):
        spec = cfg.ru_spec_from_config(doc)
        stages = [device.converted.stage for device in ru_devices(spec)]
        source_w = 1.0
    else:
        raise cfg.ConfigError(f"{doc.path}: need a [cascade] or [ru] section")
    report = power_flow(stages, source_w)
    rows = [
        {"label": flow.label, "w": stage.w, "g": stage.g} | flow._asdict()
        for stage, flow in zip(stages, report.stages)
    ]
    if args.format == "json":
        total = {"w": report.w, "wf_db": linear_to_db(report.w), "g": report.g,
                 "p_signal_w": report.p_signal_w, "p_consumed_path_w": report.p_consumed_path_w,
                 "p_wasted_w": report.p_wasted_w}
        _print_json({"p_source_out_w": report.p_source_out_w, "stages": rows, "total": total})
    else:
        total = ("TOTAL", report.w, report.g, report.p_source_out_w, report.p_signal_w,
                 report.p_consumed_path_w, report.p_wasted_w)
        _print_csv(rows + [dict(zip(rows[0], total))])
    return 0


def cmd_system(args: argparse.Namespace) -> int:
    from .components import build_ru, build_ue, end_to_end

    doc = cfg.load_config(args.config)
    ru = build_ru(cfg.ru_spec_from_config(doc)).stage
    ue = build_ue(cfg.ue_spec_from_config(doc)).stage
    # The W = 1 floor of a [channel] warns; it reaches the user as one line
    # per distinct warning, under -W error too.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep = cfg.wf_c_sweep_from_config(doc)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {doc.path}: [channel] {message}", file=sys.stderr)
    variants = {
        "baseline": (ru, ue),
        # A device cannot waste less than nothing, so halving floors at W = 1.
        "halved_w_ru": (Stage(w=max(1.0, ru.w / 2.0), g=ru.g, label="ru"), ue),
        "halved_w_ue": (ru, Stage(w=max(1.0, ue.w / 2.0), g=ue.g, label="ue")),
        "doubled_g_ue": (ru, Stage(w=ue.w, g=2.0 * ue.g, label="ue")),
    }
    rows = []
    for wf_c_db in sweep:
        channel = Stage.from_loss_db(wf_c_db, label="channel")
        rows.append({"wf_c_db": wf_c_db} | {
            name: linear_to_db(end_to_end(r, channel, u).w) for name, (r, u) in variants.items()
        })
    if args.format == "json":
        _print_json(rows)
    else:
        _print_csv([
            {"wf_c_db": f"{row['wf_c_db']:.2f}"}
            | {f"{name}_db": f"{row[name]:.6f}" for name in variants}
            for row in rows
        ])
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    from .estimate import fit_waste_factor, load_power_log

    record = fit_waste_factor(load_power_log(args.csv))._asdict()
    if args.format == "csv":
        _print_csv([record])
    else:
        _print_json(record)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from .metrics import ee_bs, ee_ru

    doc = cfg.load_config(args.config)
    readings = cfg.readings_from_config(doc)
    records = []
    for name, reading in readings:
        energy_wh = reading.energy_wh
        try:
            ee_ru_value = ee_ru(reading.p_signal_w * reading.duration_h, energy_wh)
        except ValueError as exc:
            raise ValueError(f"reading {name!r}: {exc}") from None
        record = {
            "name": name,
            "data_volume_gb": reading.data_volume_gb,
            "energy_wh": energy_wh,
            "ee_bs_gb_per_wh": None,
            "ee_ru": ee_ru_value,
            "w": reading.w,
            "path_energy_wh_per_gb": None,
        }
        if reading.data_volume_gb is not None and reading.data_volume_gb > 0.0:
            record["ee_bs_gb_per_wh"] = ee_bs(reading.data_volume_gb, energy_wh)
            path_wh = (reading.p_signal_w + reading.p_non_signal_w) * reading.duration_h
            record["path_energy_wh_per_gb"] = path_wh / reading.data_volume_gb
        for column, value in record.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"reading {name!r}: {column} = {value} is not finite")
        records.append(record)
    if args.format == "json":
        _print_json(records)
    else:
        _print_csv(records)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    doc = cfg.load_config(args.config)
    seed_override = _seed_override()
    scenario = cfg.scenario_from_config(doc, seed_override=seed_override)
    campaign = cfg.campaign_from_config(
        doc, seeds_override=args.seeds, base_seed_override=seed_override
    )
    drops, aggregates = run_campaign(scenario, campaign, jobs=args.jobs)
    drops_path, agg_path = write_campaign_csvs(drops, aggregates, args.out)
    print(f"wrote {drops_path} ({len(drops)} drops)")
    print(f"wrote {agg_path} ({len(aggregates)} cells)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wastefactor",
        description="Waste-factor calculus and distributed MU-MIMO energy simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cascade", help="evaluate a cascade (or the [ru] chain)")
    p.add_argument("config", help="INI config with a [cascade] or [ru] section")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_cascade)

    p = sub.add_parser("system", help="RU+channel+UE waste figure vs channel loss")
    p.add_argument("config", help="INI config; [ru]/[ue]/[sweep] sections optional")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("fit", help="least-squares waste factor from a power log")
    p.add_argument("csv", help="CSV power log (p_signal_w|p_signal_dbm, p_total_w|p_total_dbm)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("metrics", help="standard EE metrics next to the waste factor")
    p.add_argument("config", help="INI config with a [metrics] section")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("simulate", help="run the distributed MU-MIMO campaign")
    p.add_argument("config", help="INI config; [scenario]/[sweep] sections optional")
    p.add_argument("--seeds", type=_positive_int, default=None, help="seeds per grid cell")
    p.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes (default: 1)"
    )
    p.add_argument("--out", default="campaign_out", help="output directory")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except cfg.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
