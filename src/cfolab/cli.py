"""Command-line front end: presets, config files, CSV and IQ file output.

Commands:
    preamble   write the two-symbol chirp preamble as a raw IQ file
    fig1       single-shot correlation comb profiles as CSV
    fig2       failure-probability sweep as CSV (+ run manifest)
    estimate   run the estimator on an external IQ capture, print JSON

Exit codes: 0 success, 2 usage/validation error, 3 estimation failure.

IQ format: raw little-endian IEEE-754 binary32, interleaved I then Q, no
header; the sample count is inferred from the file size, which must be a
whole number of 8-byte I/Q pairs.

Each command declares its settings once, in SETTINGS: every key is both a
config-file key and a flag (``_`` written ``-``).  Config files are flat
UTF-8 ``key = value`` lines with ``#`` comments; a flag overrides the file
value for the same key, and a key the command does not declare is an error.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import functools
import json
import math
import os
import sys
from collections.abc import Callable, Mapping
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .channel import ChannelProfile
from .errors import ConfigError, DegenerateSignalError
from .estimator import estimate_cfo
from .signal import CazacParams, PreambleSpec, build_preamble
from .simlab import ESTIMATORS, ExperimentConfig, SweepResult, dump_correlations, run_sweeps

# fig2 runs every FFT size through run_sweeps; run_sweep stays bound here
# because bench/spans.py traces cli.run_sweep.
from .simlab import run_sweep  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ESTIMATION = 3

# Most points a start:step:stop SNR grid may hold; the paper's grid has 11.
MAX_GRID_POINTS = 10_000


def _write_text(path: Path, text: str) -> None:
    """Path.write_text(text, encoding="utf-8"): the same open, truncate, write and close, unbuffered."""
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def write_iq(path: str | Path, samples: np.ndarray) -> None:
    """Write complex samples as interleaved little-endian float32 I/Q."""
    np.asarray(samples, dtype=np.complex128).astype("<c8").tofile(str(path))


def read_iq(path: str | Path) -> np.ndarray:
    """Read interleaved little-endian float32 I/Q into complex128.

    The values are read as complex64 pairs and widened, so each part keeps
    its float32 value exactly, the sign of a zero included.  A decoder that
    adds I and j*Q turns an imaginary -0.0 into +0.0, so compare decoded
    samples with ==, under which -0.0 equals 0.0, not by their bytes.

    Raises:
        ConfigError: a byte count that is not a multiple of 8 (a stray
            byte or an odd float32 count), or a NaN or infinite value.
        OSError: the file cannot be opened or read.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) % 8 != 0:
        raise ConfigError(f"{path}: {len(data)} bytes, not a whole number of float32 I/Q pairs")
    raw = np.frombuffer(data, dtype="<f4")
    finite = np.isfinite(raw)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ConfigError(f"{path}: sample {bad // 2} is not finite ({raw[bad]})")
    return raw.view("<c8").astype(np.complex128)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config file; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


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
        # as 0.1 that float division leaves a hair short (0.3 / 0.1).  The
        # span is counted before any point is built; it can be infinite.
        span = (stop - start) / step + 1e-9
        if not span < MAX_GRID_POINTS:
            raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        return tuple(start + i * step for i in range(math.floor(span) + 1))
    return tuple(float(p) for p in text.split(","))


def _parse_estimators(text: str) -> tuple[str, ...]:
    names = tuple(p.strip().lower() for p in text.split(",") if p.strip())
    for name in names:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}")
    return names


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_mode(text: str) -> str:
    if text not in ("static", "varying", "both"):
        raise ValueError(f"expected static, varying or both, got {text!r}")
    return text


# A command's settings: key -> (parse, default, help).  The default is the
# text a config file would hold and is parsed like one.
Setting = tuple[Callable[[str], Any], str, str]

_PREAMBLE_SETTINGS: dict[str, Setting] = {
    "n": (int, "128", "FFT size (power of two)"),
    "r1": (int, "2", "first chirp rate"),
    "r2": (int, "8", "second chirp rate"),
    "cp": (int, "16", "cyclic prefix length"),
}
_CHANNEL_SETTINGS: dict[str, Setting] = {
    "cfo": (float, "20", "true offset in subcarriers"),
    "decay": (float, "2", "delay profile constant"),
    "ffo": (_parse_bool, "off", "enable the fractional stage (on/off)"),
    "seed": (int, "1", "random seed"),
}
SETTINGS: dict[str, dict[str, Setting]] = {
    "preamble": _PREAMBLE_SETTINGS,
    "fig1": {**_PREAMBLE_SETTINGS, **_CHANNEL_SETTINGS,
             "snr": (float, "20", "SNR in dB"), "paths": (int, "1", "channel tap count")},
    "fig2": {**_PREAMBLE_SETTINGS, **_CHANNEL_SETTINGS,
             "paths": (int, "4", "channel tap count"),
             "snr_grid": (_parse_snr_grid, "0:2:20", "'start:step:stop' or comma list, in dB"),
             "trials": (int, "10000", "trials per grid point"),
             "mode": (_parse_mode, "both", "channel mode: static, varying or both"),
             "estimators": (_parse_estimators, ",".join(ESTIMATORS), "comma list of estimator names")},
    "estimate": _PREAMBLE_SETTINGS,
}
_SETTING_FLAGS = frozenset("--" + key.replace("_", "-") for table in SETTINGS.values() for key in table)


def _settings(args: argparse.Namespace, fixed: Mapping[str, str] | None = None) -> dict[str, Any]:
    """Resolve the command's SETTINGS: parse the flag's text, else the file's, else the default.

    fixed maps a key the command sets itself to the flag that makes it do
    so.  Raises ConfigError for a config key the command does not declare,
    a value its parse rejects (naming its flag or key), or a fixed key given anyway.
    """
    table = SETTINGS[args.command]
    file_values = load_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in table:
            raise ConfigError(f"unknown config key {key!r}; {args.command} takes {', '.join(table)}")
    settings = {}
    for key, (parse, default, _) in table.items():
        flag = getattr(args, key)
        if fixed and key in fixed and (flag is not None or key in file_values):
            raise ConfigError(f"{fixed[key]} sets {key} itself; drop {key} from the flags and config")
        source = f"config key {key!r}" if flag is None else "--" + key.replace("_", "-")
        try:
            settings[key] = parse(file_values.get(key, default) if flag is None else flag)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{source}: {exc}") from exc
    return settings


def _timestamp() -> str:
    """ISO timestamp; honors SOURCE_DATE_EPOCH for reproducible output.

    Raises:
        ConfigError: SOURCE_DATE_EPOCH is not a whole number of seconds
            that names a date.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return _dt.datetime.now(tz=_dt.timezone.utc).isoformat()
    try:
        return _dt.datetime.fromtimestamp(int(epoch), tz=_dt.timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"SOURCE_DATE_EPOCH={epoch!r} is not a usable timestamp: {exc}") from exc


def _manifest_path(out_path: Path) -> Path:
    return out_path.with_name(out_path.name + ".manifest.json")


def write_manifest(out_path: Path, config: dict, output_paths: list[str], started_at: str) -> Path:
    """Serialize the run manifest next to an output file.

    started_at is the command's _timestamp(), taken before it wrote anything.
    """
    manifest_path = _manifest_path(out_path)
    payload = {
        "config": config,
        "tool_version": __version__,
        "started_at": started_at,
        "output_paths": output_paths,
    }
    _write_text(manifest_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return manifest_path


def _check_targets(targets: list[Path]) -> None:
    """Raise ConfigError unless each output file and its manifest can be created.

    Writing commands call this before they compute, so a usage error writes no file.
    """
    for target in targets:
        if not target.parent.is_dir():
            raise ConfigError(f"{target}: directory {target.parent} does not exist")
        for path in (target, _manifest_path(target)):
            if path.is_dir():
                raise ConfigError(f"{path} is a directory")


def _experiment(settings: dict[str, Any], n_fft: int, modes: tuple[str, ...], **sweep) -> ExperimentConfig:
    return ExperimentConfig(
        n_fft=n_fft, r1=settings["r1"], r2=settings["r2"], cp_len=settings["cp"],
        channel=ChannelProfile(path_count=settings["paths"], decay=settings["decay"]),
        modes=modes, cfo_true=settings["cfo"], ffo_stage_enabled=settings["ffo"],
        master_seed=settings["seed"], **sweep,
    )


def _cmd_preamble(args: argparse.Namespace) -> int:
    started_at = _timestamp()
    settings = _settings(args)
    out = Path(args.out)
    _check_targets([out])
    n_fft = settings["n"]
    frame = build_preamble(PreambleSpec(CazacParams(n_fft, settings["r1"]),
                                        CazacParams(n_fft, settings["r2"]), settings["cp"]))
    write_iq(out, frame.samples)
    write_manifest(out, {"command": "preamble", **settings}, [str(out)], started_at)
    print(f"wrote {frame.samples.size} samples to {out}")
    return EXIT_OK


def _cmd_fig1(args: argparse.Namespace) -> int:
    started_at = _timestamp()
    settings = _settings(args)
    out = Path(args.out)
    _check_targets([out])
    snr_db, seed = settings["snr"], settings["seed"]
    cfg = _experiment(settings, settings["n"], ("varying",), snr_grid_db=(snr_db,),
                      trials_per_point=1, estimators=("proposed",))
    table = dump_correlations(cfg, snr_db, seed)
    lines = ["tau,corr_r1,corr_r2"]
    lines.extend("%d,%.9g,%.9g" % (tau, c1, c2) for tau, c1, c2 in table.tolist())
    _write_text(out, "\n".join(lines) + "\n")
    write_manifest(out, {"command": "fig1", **settings}, [str(out)], started_at)
    print(f"wrote {len(table)} rows to {out}")
    return EXIT_OK


def _sweep_rows(result: SweepResult) -> list[str]:
    """result's fig2 CSV rows from its columns; %.9g is format(x, ".9g"), locale-independent."""
    trials = result.config.trials_per_point
    return [
        "%.9g,%s,%s,%d,%d,%.9g,%.9g,%.9g,%.9g" % (snr_db, estimator, mode, trials, *values)
        for (mode, snr_db, estimator), *values in result.rows()
    ]


def _cmd_fig2(args: argparse.Namespace) -> int:
    started_at = _timestamp()
    settings = _settings(args, {"n": "--paper"} if args.paper else None)
    n_list = [64, 128] if args.paper else [settings["n"]]
    modes = ("varying", "static") if settings["mode"] == "both" else (settings["mode"],)
    out = Path(args.out)
    targets = [out.with_name(f"{out.stem}_n{n}{out.suffix}") for n in n_list] if args.paper else [out]
    _check_targets(targets)
    # Every config before any sweep, so a usage error writes nothing.
    cfgs = [
        _experiment(settings, n_fft, modes, snr_grid_db=settings["snr_grid"],
                    trials_per_point=settings["trials"], estimators=settings["estimators"])
        for n_fft in n_list
    ]
    config = {"command": "fig2", **settings, "modes": modes}
    del config["mode"]
    # One pass for every N: each trial's generator and draws serve both sizes.
    for result, target in zip(run_sweeps(cfgs), targets):
        rows = ["snr_db,estimator,mode,trials,failures,failure_prob,ci_lo,ci_hi,ffo_mse"]
        rows.extend(_sweep_rows(result))
        _write_text(target, "\n".join(rows) + "\n")
        write_manifest(target, {**config, "n": result.config.n_fft}, [str(target)], started_at)
        print(f"wrote {len(rows) - 1} cells to {target}")
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    settings = _settings(args)
    n_fft, cp = settings["n"], settings["cp"]
    spec = PreambleSpec(CazacParams(n_fft, settings["r1"]), CazacParams(n_fft, settings["r2"]), cp)
    samples = read_iq(args.infile)
    if samples.size < spec.frame_len:
        raise ConfigError(
            f"{args.infile}: {samples.size} samples, need at least {spec.frame_len}"
        )
    est = estimate_cfo(samples[: spec.frame_len], spec, ffo_stage=True)
    report = {
        "ffo": est.ffo,
        "ifo_residual": est.ifo_residual,
        "total": est.total,
        "loc_1": est.peaks[0],
        "loc_2": est.peaks[1],
        "failed": est.failed,
    }
    print(json.dumps(report, sort_keys=True, allow_nan=False))
    return EXIT_ESTIMATION if est.failed else EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Each command's flags come from its SETTINGS and keep their text for
    _settings to parse.  No flag may be abbreviated, so each has the one
    spelling _join_setting_values matches.  Parsing leaves the parser
    unchanged (each call fills a new namespace), so every call of main
    shares it.  ``parser.commands`` maps each command name to its
    subparser, which sets ``command`` itself, so _parse_argv can hand a
    command's argv straight to it.
    """
    parser = argparse.ArgumentParser(
        prog="cfolab",
        description="Carrier frequency offset estimation lab over dual chirp-rate preambles.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def command(name, func, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        for key, (_, default, text) in SETTINGS[name].items():
            # No flag default: an absent flag is None, so the config file can set the key.
            p.add_argument("--" + key.replace("_", "-"), help=f"{text} (default: {default})")
        p.add_argument("--config", help="flat key = value config file; flags override")
        p.set_defaults(command=name, func=func)
        return p

    p = command("preamble", _cmd_preamble, "write the two-symbol preamble as raw IQ")
    p.add_argument("--out", required=True, help="output IQ path")
    p = command("fig1", _cmd_fig1, "single-shot correlation comb profiles (CSV)")
    p.add_argument("--out", required=True, help="output CSV path")
    p = command("fig2", _cmd_fig2, "failure-probability sweep (CSV + manifest)")
    p.add_argument("--paper", action="store_true",
                   help="sweep N = 64 and 128 (x.csv: x_n64.csv, x_n128.csv); other settings "
                        "keep their defaults, the paper's values, unless a flag or config key "
                        "sets them")
    p.add_argument("--out", required=True, help="output CSV path")
    p = command("estimate", _cmd_estimate, "estimate the offset carried by an IQ capture")
    p.add_argument("--in", dest="infile", required=True, help="input IQ path")
    return parser


def _join_setting_values(argv: list[str]) -> list[str]:
    """argv with each SETTINGS flag and the token after it joined as --key=value.

    Every settings flag takes one value, and joined, a value that starts
    with '-' (--snr-grid -10:2:0, --cfo -1e1) is not read as a flag.  A
    token that starts with '--' stays a flag, so a missing value is still
    reported as one.
    """
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _SETTING_FLAGS and not token.startswith("--"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """Parse argv as build_parser().parse_args would, in one argparse pass.

    When argv[0] names a command, the rest goes straight to that command's
    parser: the top-level parser would hand it all there unchanged, so
    its own pass over argv only costs time.  Tokens the command's parser
    leaves are reported by the top-level parser, as its parse_args reports
    them.  Any other argv (none, -h, --version, an unknown or abbreviated
    command) goes to the top-level parser.
    """
    parser = build_parser()
    argv = _join_setting_values(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: list[str] | None = None) -> int:
    """Run the command argv names; return its exit code.

    argv is parsed once (_parse_argv): a command's argv goes straight to
    that command's parser, anything else to the top-level parser.  A usage
    error that argparse catches exits through SystemExit(2); one the
    command finds returns EXIT_USAGE with an ``error:`` line.
    """
    args = _parse_argv(sys.argv[1:] if argv is None else argv)
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
    except OSError as exc:
        # A missing or unreadable input, or an output path that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
