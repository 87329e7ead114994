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
import os
import sys
from dataclasses import dataclass, field, fields, replace
from functools import partial

from .model import (
    DEADTIME_MODES,
    S0_UPPER_MODES,
    ChannelParams,
    ParameterError,
    SecurityParams,
    Variant,
)
from .optimizer import (  # noqa: F401 (``sweep``: the benchmark's tracer wraps cli.sweep)
    OptimizationSpec,
    SweepResult,
    _sweep_chains,
    _whole,
    compare_protocols,
    sweep,
)
from .simulator import DETECTOR_PRESETS

__all__ = ["RunConfig", "parse_config", "main"]

CSV_HEADER = (
    "attenuation_db,protocol,skr_hz,key_length_bits,acquisition_s,qber,"
    "phase_error_u,mu1,mu2,mu3,p_mu1,p_mu2,p_mu3,p_z,n_z,eps_sec,eps_cor"
)

_TABLE1_ATTENUATIONS = (26.0, 46.0, 56.0, 64.0)
_TABLE1_BLOCK_SIZES = (1e7, 1e9)
# The most points a START:STOP:STEP grid may hold, checked before it is built.
_MAX_GRID_POINTS = 10**6

_PROTOCOLS = {**{v.value: (v,) for v in Variant}, "both": tuple(Variant)}


def _number(value) -> float:
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
    raise ValueError(f"expected a number, got {value!r}")


def _seeds(value) -> tuple[int, ...]:
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list of whole numbers, got {value!r}")
    return tuple(_whole("seed_list", v) for v in value)


def _grid(value) -> tuple[float, ...]:
    """Grid spec: 'START:STOP:STEP', 'a,b,c', a single number, or a list."""
    if isinstance(value, str) and ":" in value:
        parts = value.split(":")
        if len(parts) != 3:
            raise ValueError("grid syntax is START:STOP:STEP")
        start, stop, step = (_number(p) for p in parts)
        if not (step > 0 and stop >= start):  # NaN fails too
            raise ValueError("need STEP > 0 and STOP >= START")
        span = (stop - start) / step + 1e-9
        if not span < _MAX_GRID_POINTS:  # inf and NaN fail too
            raise ValueError(f"the grid holds more than {_MAX_GRID_POINTS} points")
        values = [start + i * step for i in range(int(span) + 1)]
    elif isinstance(value, str):
        values = [_number(p) for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        values = [_number(v) for v in value]
    else:
        values = [_number(value)]
    if not values:
        raise ValueError("the grid is empty")
    return tuple(values)


def _key(default, coerce, flag: dict | None = None):
    """One configuration key: its default, the coercion of a given value, and
    the ``add_argument`` options of its command-line flag (None: the key is
    read from --config only)."""
    return field(default=default, metadata={"coerce": coerce, "flag": flag})


def _choice(default: str, choices: tuple[str, ...]):
    """A flagged key whose value is one of ``choices``."""

    def coerce(value) -> str:
        if value not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}; got {value!r}")
        return value

    return _key(default, coerce, {"choices": choices})


@dataclass
class RunConfig:
    """Run settings; each field is one configuration key.

    ``parse_config`` builds a fully resolved and validated instance."""

    preset: str = _choice("snspd", tuple(sorted(DETECTOR_PRESETS)))
    protocol: str = _choice("both", tuple(_PROTOCOLS))
    block_size: float = _key(1e7, _number, {})
    att: tuple[float, ...] = _key(
        (), _grid, {"help": "attenuation grid: START:STOP:STEP, or a value/list"}
    )
    out: str | None = _key(
        None, os.fspath, {"metavar": "PATH", "help": "CSV output path (default: stdout)"}
    )
    seed_list: tuple[int, ...] = _key(
        OptimizationSpec.seed_list, _seeds,
        {"metavar": "CSVINTS", "help": "extra multistart seeds, comma-separated ints"},
    )
    eps_sec: float = _key(1e-9, _number, {})
    eps_cor: float = _key(1e-15, _number, {})
    f_ec: float = _key(SecurityParams.ec_efficiency, _number, {})
    deadtime_mode: str = _choice(ChannelParams.deadtime_mode, DEADTIME_MODES)
    s0_upper_mode: str = _choice(SecurityParams.s0_upper_mode, S0_UPPER_MODES)
    rep_rate_hz: float = _key(1e9, _number)
    p_err: float = _key(0.01, _number)
    dead_time_s: float | None = _key(None, _number)  # None: from the preset
    dark_count_prob: float | None = _key(None, _number)  # None: from the preset
    starts: int = _key(OptimizationSpec.starts, partial(_whole, "starts"))
    rel_tol: float = _key(OptimizationSpec.rel_tol, _number)
    mu3_min: float = _key(OptimizationSpec.mu3_min, _number)

    def security(self) -> SecurityParams:
        return SecurityParams(
            eps_sec=self.eps_sec,
            eps_cor=self.eps_cor,
            block_size=self.block_size,
            ec_efficiency=self.f_ec,
            s0_upper_mode=self.s0_upper_mode,
        )

    def channel(self, attenuation_db: float) -> ChannelParams:
        return ChannelParams(
            attenuation_db=attenuation_db,
            dark_count_prob=self.dark_count_prob,
            misalignment_prob=self.p_err,
            dead_time_s=self.dead_time_s,
            rep_rate_hz=self.rep_rate_hz,
            deadtime_mode=self.deadtime_mode,
        )

    def variants(self) -> tuple[Variant, ...]:
        return _PROTOCOLS[self.protocol]

    def spec(self, variant: Variant) -> OptimizationSpec:
        """The keys named after an ``OptimizationSpec`` field, passed through."""
        shared = (f.name for f in fields(OptimizationSpec) if f.name in _KEYS)
        return OptimizationSpec(variant=variant, **{k: getattr(self, k) for k in shared})


_KEYS = {f.name: f for f in fields(RunConfig)}
# Library fields set from a configuration key of another name, so that an
# error about the field names the key.
_KEY_OF_FIELD = {"attenuation_db": "att", "ec_efficiency": "f_ec", "misalignment_prob": "p_err"}


def parse_config(file_values: dict | None, flag_values: dict) -> RunConfig:
    """Merge preset defaults, config file and flags (in that precedence).

    A value of None leaves the key to the layer below; any other value is
    coerced by its key, and a value that does not fit is rejected by name."""
    given = {}
    for layer in (file_values or {}), flag_values:
        unknown = sorted(set(layer) - set(_KEYS))
        if unknown:
            raise ParameterError(f"unknown configuration keys: {', '.join(unknown)}")
        for key, value in layer.items():
            if value is None:
                continue
            try:
                given[key] = _KEYS[key].metadata["coerce"](value)
            except ParameterError:  # ``_whole`` names the key itself
                raise
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParameterError(f"{key}: {exc}") from None
    preset = DETECTOR_PRESETS[given.get("preset", RunConfig.preset)]
    given.setdefault("dead_time_s", preset.dead_time_s)
    given.setdefault("dark_count_prob", preset.dark_count_prob)
    config = RunConfig(**given)
    # Force every embedded invariant now rather than mid-run.
    try:
        for att in config.att or (0.0,):
            config.channel(att)
        config.security()
        for variant in config.variants():
            config.spec(variant)
    except ParameterError as exc:
        name, _, reason = str(exc).partition(": ")
        if name not in _KEY_OF_FIELD:
            raise
        raise ParameterError(f"{_KEY_OF_FIELD[name]}: {reason}") from None
    return config


def _fmt(value, digits: int = 9) -> str:
    if value is None:
        return ""
    return f"{value:.{digits}g}"


def _att_digits(attenuations) -> int:
    """The fewest significant digits, at least 9, that print a grid's distinct
    attenuations distinctly; 17 tell any two floats apart."""
    distinct = set(attenuations)
    fits = (d for d in range(9, 17) if len({_fmt(a, d) for a in distinct}) == len(distinct))
    return next(fits, 17)


def _csv_rows(result: SweepResult, config: RunConfig) -> list[str]:
    rows = []
    digits = _att_digits(row.attenuation_db for row in result.rows)
    for row in result.rows:
        p = row.params
        one = p.variant is Variant.ONE_DECOY
        cells = (
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
        text = [_fmt(row.attenuation_db, digits), p.variant.value, *map(_fmt, cells)]
        rows.append(",".join(text))
    return rows


def _csv_text(rows: list[str]) -> str:
    return CSV_HEADER + "\n" + "\n".join(rows) + "\n"


def _write_outputs(files: dict[str, str]) -> None:
    """Write all output files atomically; on any failure leave none of them,
    neither a staged ``.tmp`` nor a file already moved into place."""
    created = []
    try:
        for path, content in files.items():
            with open(path + ".tmp", "w", encoding="utf-8", newline="\n") as fh:
                created.append(path + ".tmp")
                fh.write(content)
        for path in files:
            os.replace(path + ".tmp", path)
            created.append(path)
    except OSError:
        for path in created:
            try:
                os.unlink(path)
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
    stem = os.path.splitext(config.out)[0]
    for suffix, content in (extra or {}).items():
        files[f"{stem}_{suffix}"] = content
    _write_outputs(files)
    for path in files:
        print(f"wrote {path}")


def _run_sweeps(configs: list[RunConfig]) -> list[SweepResult]:
    """One result per config, from one chain per (config, variant) pair; the
    optimizer shares all the chains' points over the cores."""
    if not all(c.att for c in configs):
        raise ParameterError("att: an attenuation grid is required")
    chains = iter(_sweep_chains([(c.channel(c.att[0]), c.att, c.security(), c.spec(v))
                                 for c in configs for v in c.variants()]))
    return [SweepResult(tuple(row for _ in c.variants() for row in next(chains)))
            for c in configs]


def cmd_sweep(config: RunConfig) -> int:
    _emit(config, _csv_text(_csv_rows(_run_sweeps([config])[0], config)))
    return 0


def cmd_point(config: RunConfig) -> int:
    if len(config.att) > 1:
        raise ParameterError("point: needs exactly one attenuation (use sweep for grids)")
    return cmd_sweep(config)


def cmd_compare(config: RunConfig) -> int:
    if config.protocol != "both":
        raise ParameterError("compare: needs --protocol both")
    result = _run_sweeps([config])[0]
    comparison = compare_protocols(result)
    diff_lines = ["attenuation_db,skr_one_hz,skr_two_hz,skr_difference"]
    digits = _att_digits(row.attenuation_db for row in comparison)
    for row in comparison:
        diff_lines.append(
            f"{_fmt(row.attenuation_db, digits)},{_fmt(row.skr_one_hz)},"
            f"{_fmt(row.skr_two_hz)},{_fmt(row.rel_difference)}"
        )
    _emit(
        config,
        _csv_text(_csv_rows(result, config)),
        extra={"diff.csv": "\n".join(diff_lines) + "\n"},
    )
    return 0


def _human(value: float, *units: tuple[float, str]) -> str:
    """``value`` in the first of ``units``, (scale, name) pairs by increasing
    scale, whose 3-digit rounding stays below the next scale: the unit is
    chosen after rounding, so 59.996 s prints as 1 min, not 60 s."""
    for (scale, unit), (next_scale, _) in zip(units, units[1:]):
        shown = f"{value / scale:.3g}"
        if float(shown) < next_scale / scale:
            return f"{shown} {unit}"
    scale, unit = units[-1]
    return f"{value / scale:.3g} {unit}"


def _human_rate(skr_hz: float) -> str:
    return _human(skr_hz, (1, "Hz"), (1e3, "kHz"), (1e6, "MHz"))


def _human_time(seconds: float) -> str:
    return _human(seconds, (1, "s"), (60, "min"), (3600, "H"), (86400, "d"))


def cmd_table1(config: RunConfig) -> int:
    """Rate/time comparison of both protocols at the four reference
    attenuations for block sizes 1e7 and 1e9."""
    all_rows = []
    summary = []
    configs = [replace(config, att=_TABLE1_ATTENUATIONS, protocol="both", block_size=block)
               for block in _TABLE1_BLOCK_SIZES]
    for block_config, result in zip(configs, _run_sweeps(configs)):
        all_rows.extend(_csv_rows(result, block_config))
        summary.append(f"n_Z = {block_config.block_size:.0e}")
        header = "".join(f"{f'{att:.0f} dB':>14}" for att in _TABLE1_ATTENUATIONS)
        summary.append(f"{'':14}{header}")
        for title, show, name in (("SKR  ", _human_rate, "skr_hz"),
                                  ("Time ", _human_time, "acquisition_s")):
            for label, variant in (("1-decoy", Variant.ONE_DECOY), ("2-decoy", Variant.TWO_DECOY)):
                rates = (result.row(att, variant).rate for att in _TABLE1_ATTENUATIONS)
                cells = "".join(f"{show(getattr(rate, name)):>14}" for rate in rates)
                summary.append(f"{title + label:14}{cells}")
        summary.append("")
    summary_text = "\n".join(summary)
    _emit(config, _csv_text(all_rows), extra={"summary.txt": summary_text})
    if config.out is not None:
        print(summary_text)
    return 0


def cmd_presets() -> int:
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
    for key in fields(RunConfig):
        options = key.metadata["flag"]
        if options is not None:
            common.add_argument("--" + key.name.replace("_", "-"), dest=key.name, **options)
    for func in (cmd_point, cmd_sweep, cmd_compare, cmd_table1):
        name = func.__name__.removeprefix("cmd_")
        sub.add_parser(name, parents=[common]).set_defaults(func=func)
    # presets reads no configuration, so it takes none of the run flags
    sub.add_parser("presets").set_defaults(func=cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.func is cmd_presets:
        return cmd_presets()
    file_values = None
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:  # bad JSON or bad UTF-8
            print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
            return 2
        if not isinstance(file_values, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return 2
    flag_values = {key: getattr(args, key) for key in _KEYS if hasattr(args, key)}
    try:
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
