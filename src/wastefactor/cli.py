"""Command-line front end.

Subcommands::

    wastefactor cascade  CONFIG [--format csv|json]
    wastefactor system   CONFIG [--format csv|json]
    wastefactor fit      CSV    [--format json|csv]
    wastefactor metrics  CONFIG [--format csv|json]
    wastefactor simulate CONFIG [--seeds N] [--jobs N] [--out DIR]

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
The environment variable ``WF_SEED`` overrides the configured base seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

from . import config as cfg
from .core import Stage, power_flow
# Module globals, unlike the imports inside the commands: the per-layer
# benchmark wraps cli.run_campaign and cli.write_campaign_csvs.
from .netsim import run_campaign, write_campaign_csvs
from .units import linear_to_db


def _die_config(message: str) -> int:
    print(f"config error: {message}", file=sys.stderr)
    return 2


def _die_runtime(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _seed_override() -> int | None:
    raw = os.environ.get("WF_SEED")
    if raw is None:
        return None
    try:
        return int(raw, 10)
    except ValueError:
        raise cfg.ConfigError(f"WF_SEED must be an integer, got {raw!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _num(value: float) -> str:
    return f"{value:.10g}"


def _print_json(payload) -> None:
    # NaN and Infinity are not JSON; a value that slipped through fails here.
    print(json.dumps(payload, indent=2, allow_nan=False))


# Each command imports the modules only it uses, so a command loads no more
# of the package than it runs.


def cmd_cascade(args: argparse.Namespace) -> int:
    from .components import ru_devices, stage_of

    doc = cfg.load_config(args.config)
    if doc.has_section("cascade"):
        stages, source_w = cfg.stages_from_config(doc)
    elif doc.has_section("ru"):
        spec = cfg.ru_spec_from_config(doc)
        stages = [stage_of(device).stage for device in ru_devices(spec)]
        source_w = 1.0
    else:
        raise cfg.ConfigError(f"{doc.path}: need a [cascade] or [ru] section")
    report = power_flow(stages, source_w)
    if args.format == "json":
        payload = {
            "p_source_out_w": report.p_source_out_w,
            "stages": [
                {
                    "label": flow.label,
                    "w": stage.w,
                    "g": stage.g,
                    "p_in_w": flow.p_in_w,
                    "p_out_w": flow.p_out_w,
                    "p_consumed_w": flow.p_consumed_w,
                    "p_wasted_w": flow.p_wasted_w,
                }
                for stage, flow in zip(stages, report.stages)
            ],
            "total": {
                "w": report.w,
                "wf_db": linear_to_db(report.w),
                "g": report.g,
                "p_signal_w": report.p_signal_w,
                "p_consumed_path_w": report.p_consumed_path_w,
                "p_wasted_w": report.p_wasted_w,
            },
        }
        _print_json(payload)
    else:
        print("label,w,g,p_in_w,p_out_w,p_consumed_w,p_wasted_w")
        for stage, flow in zip(stages, report.stages):
            print(
                f"{flow.label},{_num(stage.w)},{_num(stage.g)},{_num(flow.p_in_w)},"
                f"{_num(flow.p_out_w)},{_num(flow.p_consumed_w)},{_num(flow.p_wasted_w)}"
            )
        print(
            f"TOTAL,{_num(report.w)},{_num(report.g)},{_num(report.p_source_out_w)},"
            f"{_num(report.p_signal_w)},{_num(report.p_consumed_path_w)},"
            f"{_num(report.p_wasted_w)}"
        )
    return 0


def cmd_system(args: argparse.Namespace) -> int:
    from .components import build_ru, build_ue, end_to_end

    doc = cfg.load_config(args.config)
    ru = build_ru(cfg.ru_spec_from_config(doc)).stage
    ue = build_ue(cfg.ue_spec_from_config(doc)).stage
    sweep = cfg.wf_c_sweep_from_config(doc)
    variants = {
        "baseline": (ru, ue),
        "halved_w_ru": (Stage(w=ru.w / 2.0, g=ru.g, label="ru"), ue),
        "halved_w_ue": (ru, Stage(w=ue.w / 2.0, g=ue.g, label="ue")),
        "doubled_g_ue": (ru, Stage(w=ue.w, g=2.0 * ue.g, label="ue")),
    }
    rows = []
    for wf_c_db in sweep:
        channel = Stage.from_loss_db(wf_c_db, label="channel")
        cells = [
            linear_to_db(end_to_end(r, channel, u).w) for r, u in variants.values()
        ]
        rows.append((wf_c_db, cells))
    if args.format == "json":
        payload = [
            {"wf_c_db": wf_c, **dict(zip(variants, cells))} for wf_c, cells in rows
        ]
        _print_json(payload)
    else:
        print("wf_c_db," + ",".join(f"{name}_db" for name in variants))
        for wf_c, cells in rows:
            print(f"{wf_c:.2f}," + ",".join(f"{v:.6f}" for v in cells))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    from .estimate import fit_waste_factor, load_power_log

    samples = load_power_log(args.csv)
    fit = fit_waste_factor(samples)
    if args.format == "csv":
        print("w,p_non_path_w,r_squared,n_samples,physical")
        print(
            f"{_num(fit.w)},{_num(fit.p_non_path_w)},{_num(fit.r_squared)},"
            f"{fit.n_samples},{str(fit.physical).lower()}"
        )
    else:
        _print_json(
            {
                "w": fit.w,
                "p_non_path_w": fit.p_non_path_w,
                "r_squared": fit.r_squared,
                "n_samples": fit.n_samples,
                "physical": fit.physical,
            }
        )
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from .metrics import ee_bs, ee_ru

    doc = cfg.load_config(args.config)
    readings = cfg.readings_from_config(doc)
    records = []
    for name, reading in readings:
        energy_wh = reading.energy_wh
        record = {
            "name": name,
            "data_volume_gb": reading.data_volume_gb,
            "energy_wh": energy_wh,
            "ee_bs_gb_per_wh": None,
            "ee_ru": ee_ru(reading.p_signal_w * reading.duration_h, energy_wh),
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
        columns = [
            "name",
            "data_volume_gb",
            "energy_wh",
            "ee_bs_gb_per_wh",
            "ee_ru",
            "w",
            "path_energy_wh_per_gb",
        ]
        print(",".join(columns))
        for record in records:
            cells = []
            for column in columns:
                value = record[column]
                if value is None:
                    cells.append("")
                elif isinstance(value, str):
                    cells.append(value)
                else:
                    cells.append(_num(value))
            print(",".join(cells))
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
        "--jobs", type=_positive_int, default=None, help="worker processes (default: CPU count)"
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
        return _die_config(str(exc))
    except (ValueError, OSError, RuntimeError) as exc:
        return _die_runtime(str(exc))


if __name__ == "__main__":
    sys.exit(main())
