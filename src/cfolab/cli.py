"""Command-line front end: presets, config files, CSV and IQ file output.

Commands:
    preamble   write the two-symbol chirp preamble as a raw IQ file
    fig1       single-shot correlation comb profiles as CSV
    fig2       failure-probability sweep as CSV (+ run manifest)
    estimate   run the estimator on an external IQ capture, print JSON

Exit codes: 0 success, 2 usage/validation error, 3 estimation failure.

IQ format: raw little-endian IEEE-754 binary32, interleaved I then Q, no
header; the sample count is inferred from the file size.

Config files are flat UTF-8 ``key = value`` lines with ``#`` comments; any
command-line flag overrides the file value for the same key.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ChannelProfile, ReceivedFrame
from .errors import ConfigError, DegenerateSignalError
from .estimator import estimate_cfo
from .signal import CazacParams, PreambleSpec, build_preamble
from .simlab import (
    ESTIMATOR_PROPOSED,
    ESTIMATOR_SCA,
    ExperimentConfig,
    dump_correlations,
    run_sweep,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ESTIMATION = 3


def _fmt(x: float) -> str:
    """Format a float with 9 significant digits, locale-independent."""
    return format(float(x), ".9g")


def write_iq(path: str | Path, samples: np.ndarray) -> None:
    """Write complex samples as interleaved little-endian float32 I/Q."""
    np.asarray(samples, dtype=np.complex128).astype("<c8").tofile(str(path))


def read_iq(path: str | Path) -> np.ndarray:
    """Read interleaved little-endian float32 I/Q into complex128.

    Raises:
        ConfigError: odd value count, or a NaN or infinite value.
    """
    raw = np.fromfile(str(path), dtype="<f4")
    if raw.size % 2 != 0:
        raise ConfigError(f"{path}: odd number of float32 values, not an I/Q file")
    bad = np.flatnonzero(~np.isfinite(raw))
    if bad.size:
        raise ConfigError(f"{path}: sample {bad[0] // 2} is not finite ({raw[bad[0]]})")
    return (raw[0::2] + 1j * raw[1::2]).astype(np.complex128)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _setting(args: argparse.Namespace, file_values: dict[str, str], key: str, default, parse):
    """Resolve a setting: explicit flag > config file > default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_values:
        try:
            return parse(file_values[key])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    return default


def _preamble_settings(
    args: argparse.Namespace, file_values: dict[str, str]
) -> tuple[int, int, int, int]:
    """Resolve the shared preamble settings (n, r1, r2, cp), defaults 128/2/8/16."""
    return (
        _setting(args, file_values, "n", 128, int),
        _setting(args, file_values, "r1", 2, int),
        _setting(args, file_values, "r2", 8, int),
        _setting(args, file_values, "cp", 16, int),
    )


def _parse_snr_grid(text: str) -> tuple[float, ...]:
    """Parse '0:2:20' (start:step:stop inclusive) or '0,5,10' into a grid."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(math.isfinite(v) for v in (start, step, stop)):
            raise ValueError("grid start, step and stop must be finite")
        if step <= 0:
            raise ValueError("grid step must be positive")
        # Points up to stop inclusive: floor, with a tolerance for steps such
        # as 0.1 that float division leaves a hair short (0.3 / 0.1).
        count = math.floor((stop - start) / step + 1e-9) + 1
        return tuple(start + i * step for i in range(count))
    return tuple(float(p) for p in text.split(","))


def _parse_estimators(text: str) -> tuple[str, ...]:
    names = tuple(p.strip().lower() for p in text.split(",") if p.strip())
    for name in names:
        if name not in (ESTIMATOR_PROPOSED, ESTIMATOR_SCA):
            raise ValueError(f"unknown estimator {name!r}")
    return names


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _timestamp() -> str:
    """ISO timestamp; honors SOURCE_DATE_EPOCH for reproducible output."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = _dt.datetime.fromtimestamp(int(epoch), tz=_dt.timezone.utc)
    else:
        moment = _dt.datetime.now(tz=_dt.timezone.utc)
    return moment.isoformat()


def write_manifest(out_path: Path, config: dict, output_paths: list[str]) -> Path:
    """Serialize the run manifest next to an output file."""
    manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    payload = {
        "config": config,
        "tool_version": __version__,
        "started_at": _timestamp(),
        "output_paths": output_paths,
    }
    manifest_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest_path


def _cmd_preamble(args: argparse.Namespace) -> int:
    file_values = load_config_file(args.config) if args.config else {}
    n_fft, r1, r2, cp = _preamble_settings(args, file_values)
    spec = PreambleSpec(CazacParams(n_fft, r1), CazacParams(n_fft, r2), cp)
    frame = build_preamble(spec)
    out = Path(args.out)
    write_iq(out, frame.samples)
    write_manifest(out, {"command": "preamble", "n": n_fft, "r1": r1, "r2": r2, "cp": cp}, [str(out)])
    print(f"wrote {frame.samples.size} samples to {out}")
    return EXIT_OK


def _cmd_fig1(args: argparse.Namespace) -> int:
    file_values = load_config_file(args.config) if args.config else {}
    n_fft, r1, r2, cp = _preamble_settings(args, file_values)
    snr_db = _setting(args, file_values, "snr", 20.0, float)
    cfo = _setting(args, file_values, "cfo", 20.0, float)
    paths = _setting(args, file_values, "paths", 1, int)
    decay = _setting(args, file_values, "decay", 2.0, float)
    seed = _setting(args, file_values, "seed", 1, int)
    cfg = ExperimentConfig(
        n_fft=n_fft,
        r1=r1,
        r2=r2,
        cp_len=cp,
        channel=ChannelProfile(path_count=paths, decay=decay, mode="varying"),
        cfo_true=cfo,
        snr_grid_db=(snr_db,),
        trials_per_point=1,
        estimators=(ESTIMATOR_PROPOSED,),
        ffo_stage_enabled=_setting(args, file_values, "ffo", False, _parse_bool),
        master_seed=seed,
    )
    table = dump_correlations(cfg, snr_db, seed)
    lines = ["tau,corr_r1,corr_r2"]
    for tau, c1, c2 in table:
        lines.append(f"{int(tau)},{_fmt(c1)},{_fmt(c2)}")
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_manifest(
        out,
        {"command": "fig1", "n": n_fft, "snr": snr_db, "cfo": cfo, "paths": paths,
         "decay": decay, "seed": seed},
        [str(out)],
    )
    print(f"wrote {len(table)} rows to {out}")
    return EXIT_OK


def _sweep_rows(cfg: ExperimentConfig) -> list[str]:
    rows = []
    for cell in run_sweep(cfg).cells:
        rows.append(
            ",".join(
                [
                    _fmt(cell.snr_db),
                    cell.estimator,
                    cell.mode,
                    str(cell.trials),
                    str(cell.failures),
                    _fmt(cell.failure_prob),
                    _fmt(cell.wilson_ci_95[0]),
                    _fmt(cell.wilson_ci_95[1]),
                    _fmt(cell.ffo_mse),
                ]
            )
        )
    return rows


def _cmd_fig2(args: argparse.Namespace) -> int:
    file_values = load_config_file(args.config) if args.config else {}
    n_fft, r1, r2, cp = _preamble_settings(args, file_values)
    seed = _setting(args, file_values, "seed", 1, int)
    trials = _setting(args, file_values, "trials", 10000, int)
    grid = _setting(args, file_values, "snr_grid", (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0,
                                                    14.0, 16.0, 18.0, 20.0), _parse_snr_grid)
    cfo = _setting(args, file_values, "cfo", 20.0, float)
    estimators = _setting(args, file_values, "estimators",
                          (ESTIMATOR_PROPOSED, ESTIMATOR_SCA), _parse_estimators)
    ffo_on = _setting(args, file_values, "ffo", False, _parse_bool)
    paths = _setting(args, file_values, "paths", 4, int)
    decay = _setting(args, file_values, "decay", 2.0, float)
    mode = _setting(args, file_values, "mode", "both", str)
    n_list = [64, 128] if args.paper else [n_fft]
    modes = ["varying", "static"] if mode == "both" else [mode]

    out = Path(args.out)
    written: list[str] = []
    for n_fft in n_list:
        rows = ["snr_db,estimator,mode,trials,failures,failure_prob,ci_lo,ci_hi,ffo_mse"]
        config_dict = {
            "command": "fig2", "n": n_fft, "r1": r1, "r2": r2, "cp": cp, "cfo": cfo,
            "paths": paths, "decay": decay, "modes": modes, "snr_grid": list(grid),
            "trials": trials, "estimators": list(estimators), "ffo": ffo_on, "seed": seed,
        }
        for chan_mode in modes:
            cfg = ExperimentConfig(
                n_fft=n_fft, r1=r1, r2=r2, cp_len=cp,
                channel=ChannelProfile(path_count=paths, decay=decay, mode=chan_mode),
                cfo_true=cfo, snr_grid_db=tuple(grid), trials_per_point=trials,
                estimators=tuple(estimators), ffo_stage_enabled=ffo_on, master_seed=seed,
            )
            rows.extend(_sweep_rows(cfg))
        target = out.with_name(f"{out.stem}_n{n_fft}{out.suffix}") if len(n_list) > 1 else out
        target.write_text("\n".join(rows) + "\n", encoding="utf-8")
        write_manifest(target, config_dict, [str(target)])
        written.append(str(target))
        print(f"wrote {len(rows) - 1} cells to {target}")
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    file_values = load_config_file(args.config) if args.config else {}
    n_fft, r1, r2, cp = _preamble_settings(args, file_values)
    spec = PreambleSpec(CazacParams(n_fft, r1), CazacParams(n_fft, r2), cp)
    samples = read_iq(args.infile)
    if samples.size < spec.frame_len:
        raise ConfigError(
            f"{args.infile}: {samples.size} samples, need at least {spec.frame_len}"
        )
    blk = n_fft + cp
    rx = ReceivedFrame(
        n_fft=n_fft,
        cp_len=cp,
        stream=samples[: spec.frame_len],
        symbols=(samples[cp : cp + n_fft], samples[blk + cp : blk + cp + n_fft]),
    )
    est = estimate_cfo(rx, spec, ffo_stage=True)
    report = {
        "ffo": est.ffo,
        "ifo_residual": est.ifo_residual,
        "total": est.total,
        "loc_1": est.peaks.loc_1,
        "loc_2": est.peaks.loc_2,
        "failed": est.failed,
    }
    print(json.dumps(report, sort_keys=True, allow_nan=False))
    return EXIT_ESTIMATION if est.failed else EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing leaves the parser unchanged (each call fills a new namespace),
    so every call of main shares it.
    """
    parser = argparse.ArgumentParser(
        prog="cfolab",
        description="Carrier frequency offset estimation lab over dual chirp-rate preambles.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # Preamble and config-file flags shared by every command.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--n", type=int, help="FFT size (power of two)")
    shared.add_argument("--r1", type=int, help="first chirp rate")
    shared.add_argument("--r2", type=int, help="second chirp rate")
    shared.add_argument("--cp", type=int, help="cyclic prefix length")
    shared.add_argument("--config", help="flat key = value config file; flags override")

    p = sub.add_parser("preamble", parents=[shared], help="write the two-symbol preamble as raw IQ")
    p.add_argument("--out", required=True, help="output IQ path")
    p.set_defaults(func=_cmd_preamble)

    p = sub.add_parser("fig1", parents=[shared], help="single-shot correlation comb profiles (CSV)")
    p.add_argument("--snr", type=float, help="SNR in dB")
    p.add_argument("--cfo", type=float, help="true offset in subcarriers")
    p.add_argument("--paths", type=int, help="channel tap count (default 1)")
    p.add_argument("--decay", type=float, help="delay profile constant")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_fig1)

    p = sub.add_parser("fig2", parents=[shared], help="failure-probability sweep (CSV + manifest)")
    p.add_argument("--paper", action="store_true",
                   help="preset: N in {64,128}, r 2/8, cfo 20, L=4, D=2, both modes")
    p.add_argument("--cfo", type=float)
    p.add_argument("--paths", type=int)
    p.add_argument("--decay", type=float)
    p.add_argument("--snr-grid", dest="snr_grid", type=_parse_snr_grid,
                   help="'start:step:stop' or comma list, in dB")
    p.add_argument("--trials", type=int, help="trials per grid point")
    p.add_argument("--mode", choices=["static", "varying", "both"])
    p.add_argument("--estimators", type=_parse_estimators, help="comma list: proposed,sca")
    p.add_argument("--ffo", type=_parse_bool, help="enable the fractional stage (on/off)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_fig2)

    p = sub.add_parser("estimate", parents=[shared],
                       help="estimate the offset carried by an IQ capture")
    p.add_argument("--in", dest="infile", required=True, help="input IQ path")
    p.set_defaults(func=_cmd_estimate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DegenerateSignalError as exc:
        # Unusable input data is treated as a validation failure, not an
        # estimation failure: there is nothing to estimate.
        print(f"error: degenerate input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
