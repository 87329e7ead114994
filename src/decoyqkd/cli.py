"""Command-line interface: single points, sweeps, protocol comparison and the
rate/time reference table, all emitted as CSV.

Configuration merges three layers with increasing precedence: detector preset
defaults, a flat JSON config file (--config), then command-line flags. Output
files are written atomically and removed on failure. Exit codes: 0 success,
2 invalid configuration, 3 output I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace

from .bounds import BoundOptions
from .model import ChannelParams, ParameterError, SecurityParams, Variant
from .optimizer import (
    OptimizationSpec,
    SweepResult,
    compare_protocols,
    sweep,
)
from .simulator import DEADTIME_MODES, DETECTOR_PRESETS

__all__ = ["RunConfig", "parse_config", "main"]

CSV_HEADER = (
    "attenuation_db,protocol,skr_hz,key_length_bits,acquisition_s,qber,"
    "phase_error_u,mu1,mu2,mu3,p_mu1,p_mu2,p_mu3,p_z,n_z,eps_sec,eps_cor"
)

_TABLE1_ATTENUATIONS = (26.0, 46.0, 56.0, 64.0)
_TABLE1_BLOCK_SIZES = (1e7, 1e9)

_DEFAULTS = {
    "preset": "snspd",
    "rep_rate_hz": 1e9,
    "p_err": 0.01,
    "dead_time_s": None,  # filled from the preset unless given explicitly
    "dark_count_prob": None,
    "eps_sec": 1e-9,
    "eps_cor": 1e-15,
    "block_size": 1e7,
    "f_ec": 1.05,
    "protocol": "both",
    "att": None,
    "distance_mode": False,
    "db_per_km": 0.2,
    "offset_db": 6.0,
    "out": None,
    "seed_list": (),
    "pin_mu3": False,
    "deadtime_mode": "zonly",
    "s0_upper_mode": "per-intensity",
    "starts": 8,
    "rel_tol": 1e-4,
    "max_evals": 200_000,
    "mu1_range": None,
    "mu2_min": None,
    "mu3_min": None,
    "pz_range": None,
}


@dataclass
class RunConfig:
    """Fully resolved and validated run settings."""

    preset: str
    rep_rate_hz: float
    p_err: float
    dead_time_s: float
    dark_count_prob: float
    eps_sec: float
    eps_cor: float
    block_size: float
    f_ec: float
    protocol: str
    att_grid: tuple[float, ...]
    out: str | None
    seed_list: tuple[int, ...]
    pin_mu3: bool
    deadtime_mode: str
    s0_upper_mode: str
    starts: int
    rel_tol: float
    max_evals: int
    mu1_range: tuple[float, float] | None = None
    mu2_min: float | None = None
    mu3_min: float | None = None
    pz_range: tuple[float, float] | None = None

    def security(self) -> SecurityParams:
        return SecurityParams(
            eps_sec=self.eps_sec,
            eps_cor=self.eps_cor,
            block_size=self.block_size,
            ec_efficiency=self.f_ec,
        )

    def channel(self, attenuation_db: float) -> ChannelParams:
        return ChannelParams(
            attenuation_db=attenuation_db,
            dark_count_prob=self.dark_count_prob,
            misalignment_prob=self.p_err,
            dead_time_s=self.dead_time_s,
            rep_rate_hz=self.rep_rate_hz,
        )

    def variants(self) -> tuple[Variant, ...]:
        if self.protocol == "one":
            return (Variant.ONE_DECOY,)
        if self.protocol == "two":
            return (Variant.TWO_DECOY,)
        return (Variant.ONE_DECOY, Variant.TWO_DECOY)

    def spec(self, variant: Variant) -> OptimizationSpec:
        overrides = {
            key: getattr(self, key)
            for key in ("mu1_range", "mu2_min", "mu3_min", "pz_range")
            if getattr(self, key) is not None
        }
        return OptimizationSpec(
            variant=variant,
            pin_mu3=self.pin_mu3,
            seed_list=self.seed_list,
            starts=self.starts,
            rel_tol=self.rel_tol,
            max_evals=self.max_evals,
            **overrides,
        )

    def bound_options(self) -> BoundOptions:
        return BoundOptions(s0_upper_mode=self.s0_upper_mode)


def _parse_att(value, distance_mode: bool, db_per_km: float, offset_db: float):
    """Grid spec: 'start:stop:step', a single number, 'a,b,c', or a list."""
    if value is None:
        raise ParameterError("att: an attenuation grid is required")
    if isinstance(value, (int, float)):
        values = [float(value)]
    elif isinstance(value, (list, tuple)):
        values = [float(v) for v in value]
    elif isinstance(value, str):
        if ":" in value:
            parts = value.split(":")
            if len(parts) != 3:
                raise ParameterError("att: grid syntax is START:STOP:STEP")
            start, stop, step = (float(p) for p in parts)
            if step <= 0 or stop < start:
                raise ParameterError("att: need STEP > 0 and STOP >= START")
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            values = [start + i * step for i in range(count)]
        else:
            values = [float(p) for p in value.split(",") if p.strip()]
    else:
        raise ParameterError(f"att: cannot interpret {value!r}")
    if not values:
        raise ParameterError("att: the grid is empty")
    if distance_mode:
        values = [db_per_km * km + offset_db for km in values]
    if any(v < 0 for v in values):
        raise ParameterError("att: attenuations must be >= 0 dB")
    return tuple(values)


def _parse_seed_list(value) -> tuple[int, ...]:
    if value is None:
        return ()
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    if isinstance(value, str):
        return tuple(int(p) for p in value.split(",") if p.strip())
    raise ParameterError(f"seed_list: cannot interpret {value!r}")


def parse_config(file_values: dict | None, flag_values: dict) -> RunConfig:
    """Merge preset defaults, config file and flags (in that precedence)."""
    merged = dict(_DEFAULTS)
    explicit = set()
    for layer in (file_values or {}), flag_values:
        unknown = sorted(set(layer) - set(_DEFAULTS))
        if unknown:
            raise ParameterError(f"unknown configuration keys: {', '.join(unknown)}")
        for key, value in layer.items():
            if value is None:
                continue
            merged[key] = value
            explicit.add(key)

    preset_name = str(merged["preset"])
    if preset_name not in DETECTOR_PRESETS:
        raise ParameterError(
            f"preset: unknown preset {preset_name!r}; available: {sorted(DETECTOR_PRESETS)}"
        )
    preset = DETECTOR_PRESETS[preset_name]
    if "dead_time_s" not in explicit:
        merged["dead_time_s"] = preset.dead_time_s
    if "dark_count_prob" not in explicit:
        merged["dark_count_prob"] = preset.dark_count_prob

    if merged["protocol"] not in ("one", "two", "both"):
        raise ParameterError("protocol: must be 'one', 'two' or 'both'")

    config = RunConfig(
        preset=preset_name,
        rep_rate_hz=float(merged["rep_rate_hz"]),
        p_err=float(merged["p_err"]),
        dead_time_s=float(merged["dead_time_s"]),
        dark_count_prob=float(merged["dark_count_prob"]),
        eps_sec=float(merged["eps_sec"]),
        eps_cor=float(merged["eps_cor"]),
        block_size=float(merged["block_size"]),
        f_ec=float(merged["f_ec"]),
        protocol=str(merged["protocol"]),
        att_grid=_parse_att(
            merged["att"],
            bool(merged["distance_mode"]),
            float(merged["db_per_km"]),
            float(merged["offset_db"]),
        ),
        out=merged["out"],
        seed_list=_parse_seed_list(merged["seed_list"]),
        pin_mu3=bool(merged["pin_mu3"]),
        deadtime_mode=str(merged["deadtime_mode"]),
        s0_upper_mode=str(merged["s0_upper_mode"]),
        starts=int(merged["starts"]),
        rel_tol=float(merged["rel_tol"]),
        max_evals=int(merged["max_evals"]),
        mu1_range=None if merged["mu1_range"] is None else tuple(merged["mu1_range"]),
        mu2_min=None if merged["mu2_min"] is None else float(merged["mu2_min"]),
        mu3_min=None if merged["mu3_min"] is None else float(merged["mu3_min"]),
        pz_range=None if merged["pz_range"] is None else tuple(merged["pz_range"]),
    )
    # Force every embedded invariant now rather than mid-run.
    config.security()
    config.channel(config.att_grid[0])
    for variant in config.variants():
        config.spec(variant)
    config.bound_options()
    if config.deadtime_mode not in DEADTIME_MODES:
        raise ParameterError(f"deadtime_mode: must be one of {DEADTIME_MODES}")
    return config


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.9g}"


def _csv_rows(result: SweepResult, config: RunConfig) -> list[str]:
    rows = []
    for row in result.rows:
        p = row.params
        one = p.variant is Variant.ONE_DECOY
        fields = (
            row.attenuation_db,
            None,  # placeholder, replaced below
            row.rate.skr_hz,
            row.rate.key_length,
            row.rate.acquisition_s,
            row.rate.qber_z,
            row.rate.phase_error_upper,
            p.intensities[0],
            p.intensities[1],
            None if one else p.intensities[2],
            p.intensity_probs[0],
            p.intensity_probs[1],
            None if one else p.intensity_probs[2],
            p.basis_prob_z,
            config.block_size,
            config.eps_sec,
            config.eps_cor,
        )
        text = [_fmt(f) for f in fields]
        text[1] = p.variant.value
        rows.append(",".join(text))
    return rows


def _csv_text(rows: list[str]) -> str:
    return CSV_HEADER + "\n" + "\n".join(rows) + "\n"


def _write_outputs(files: dict[str, str]) -> None:
    """Write all output files atomically; on any failure leave nothing partial."""
    staged = []
    try:
        for path, content in files.items():
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(content)
            staged.append((tmp, path))
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError:
        for tmp, _ in staged:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise


def _emit(config: RunConfig, csv_text: str, extra: dict[str, str] | None = None) -> None:
    if config.out is None:
        sys.stdout.write(csv_text)
        for name, content in (extra or {}).items():
            sys.stdout.write(f"\n# --- {name} ---\n{content}")
        return
    files = {config.out: csv_text}
    stem, ext = os.path.splitext(config.out)
    for suffix, content in (extra or {}).items():
        files[f"{stem}_{suffix}"] = content
    _write_outputs(files)
    for path in files:
        print(f"wrote {path}")


def _run_sweep(config: RunConfig) -> SweepResult:
    specs = [config.spec(v) for v in config.variants()]
    return sweep(
        config.channel(config.att_grid[0]),
        config.att_grid,
        config.security(),
        specs,
        options=config.bound_options(),
        deadtime_mode=config.deadtime_mode,
    )


def cmd_sweep(config: RunConfig) -> int:
    _emit(config, _csv_text(_csv_rows(_run_sweep(config), config)))
    return 0


def cmd_point(config: RunConfig) -> int:
    if len(config.att_grid) != 1:
        raise ParameterError("point: needs exactly one attenuation (use sweep for grids)")
    return cmd_sweep(config)


def cmd_compare(config: RunConfig) -> int:
    if config.protocol != "both":
        raise ParameterError("compare: needs --protocol both")
    result = _run_sweep(config)
    comparison = compare_protocols(result)
    diff_lines = ["attenuation_db,skr_one_hz,skr_two_hz,skr_difference"]
    for row in comparison:
        diff_lines.append(
            f"{_fmt(row.attenuation_db)},{_fmt(row.skr_one_hz)},"
            f"{_fmt(row.skr_two_hz)},{_fmt(row.rel_difference)}"
        )
    _emit(
        config,
        _csv_text(_csv_rows(result, config)),
        extra={"diff.csv": "\n".join(diff_lines) + "\n"},
    )
    return 0


def _human_rate(skr_hz: float) -> str:
    for scale, unit in ((1e6, "MHz"), (1e3, "kHz")):
        if skr_hz >= scale:
            return f"{skr_hz / scale:.3g} {unit}"
    return f"{skr_hz:.3g} Hz"


def _human_time(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.3g} s"
    if seconds < 3600:
        return f"{seconds / 60:.3g} min"
    if seconds < 86400:
        return f"{seconds / 3600:.3g} H"
    return f"{seconds / 86400:.3g} d"


def cmd_table1(config: RunConfig) -> int:
    """Rate/time comparison of both protocols at the four reference
    attenuations for block sizes 1e7 and 1e9."""
    all_rows = []
    summary = []
    for block in _TABLE1_BLOCK_SIZES:
        block_config = replace(
            config, att_grid=_TABLE1_ATTENUATIONS, protocol="both", block_size=block
        )
        result = _run_sweep(block_config)
        all_rows.extend(_csv_rows(result, block_config))
        summary.append(f"n_Z = {block:.0e}")
        header = "".join(f"{f'{att:.0f} dB':>14}" for att in _TABLE1_ATTENUATIONS)
        summary.append(f"{'':14}{header}")
        for label, variant in (("1-decoy", Variant.ONE_DECOY), ("2-decoy", Variant.TWO_DECOY)):
            cells = "".join(
                f"{_human_rate(result.row(att, variant).rate.skr_hz):>14}"
                for att in _TABLE1_ATTENUATIONS
            )
            summary.append(f"{'SKR  ' + label:14}{cells}")
        for label, variant in (("1-decoy", Variant.ONE_DECOY), ("2-decoy", Variant.TWO_DECOY)):
            cells = "".join(
                f"{_human_time(result.row(att, variant).rate.acquisition_s):>14}"
                for att in _TABLE1_ATTENUATIONS
            )
            summary.append(f"{'Time ' + label:14}{cells}")
        summary.append("")
    summary_text = "\n".join(summary)
    _emit(config, _csv_text(all_rows), extra={"summary.txt": summary_text})
    if config.out is not None:
        print(summary_text)
    return 0


def cmd_presets(_: RunConfig | None = None) -> int:
    print(f"{'name':8} {'dead_time_s':>12} {'dark_count_prob':>16}  note")
    for preset in DETECTOR_PRESETS.values():
        print(
            f"{preset.name:8} {preset.dead_time_s:>12.3g} "
            f"{preset.dark_count_prob:>16.3g}  {preset.note}"
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoyqkd",
        description="Finite-key secret key rates for 1- and 2-decoy BB84.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat JSON config file")
    common.add_argument("--preset", choices=sorted(DETECTOR_PRESETS))
    common.add_argument("--protocol", choices=("one", "two", "both"))
    common.add_argument("--block-size", dest="block_size", type=float)
    common.add_argument("--att", help="attenuation grid: START:STOP:STEP, or a value/list")
    common.add_argument("--out", metavar="PATH", help="CSV output path (default: stdout)")
    common.add_argument("--seed-list", dest="seed_list", metavar="CSVINTS",
                        help="extra multistart seeds, comma-separated ints")
    common.add_argument("--pin-mu3", dest="pin_mu3", action="store_const", const=True,
                        help="pin the lowest 2-decoy intensity at its minimum")
    common.add_argument("--eps-sec", dest="eps_sec", type=float)
    common.add_argument("--eps-cor", dest="eps_cor", type=float)
    common.add_argument("--f-ec", dest="f_ec", type=float)
    common.add_argument("--deadtime-mode", dest="deadtime_mode", choices=DEADTIME_MODES)
    common.add_argument("--s0-upper-mode", dest="s0_upper_mode",
                        choices=("per-intensity", "total"))
    for name, func, needs_att in (
        ("point", cmd_point, True),
        ("sweep", cmd_sweep, True),
        ("compare", cmd_compare, True),
        ("table1", cmd_table1, False),
        ("presets", cmd_presets, False),
    ):
        p = sub.add_parser(name, parents=[common])
        p.set_defaults(func=func, needs_att=needs_att)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.func is cmd_presets:
        return cmd_presets(None)
    file_values = None
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(file_values, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return 2
    flag_values = {
        key: getattr(args, key)
        for key in ("preset", "protocol", "block_size", "att", "out", "seed_list",
                    "pin_mu3", "eps_sec", "eps_cor", "f_ec", "deadtime_mode",
                    "s0_upper_mode")
        if getattr(args, key) is not None
    }
    try:
        if not args.needs_att and "att" not in flag_values and not (
            file_values and file_values.get("att") is not None
        ):
            flag_values["att"] = "26"  # table1/presets ignore the grid
        config = parse_config(file_values, flag_values)
        return args.func(config)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: output I/O failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
