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
A flag given twice takes its last value.  A flag that takes a value takes
the next token unless it starts with '--', as getopt does: ``--out -x.csv``
writes -x.csv and ``--cfo -1e1`` is -10.  Each command's flags are declared
once, as data (COMMANDS); well-formed argv is read from that table, and only
help and ill-formed argv reach argparse, which build_parser builds from the
same table, so help and every usage error come from argparse.  A command
imports what only it runs when it runs: argparse for help and usage errors,
the sweep engine (simlab, channel, sca) for fig1 and fig2.
"""

from __future__ import annotations

import datetime as _dt
import functools
import json
import math
import os
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

import numpy as np

from . import __version__
from .errors import ConfigError, DegenerateSignalError
from .estimator import estimate_cfo
from .signal import _preamble_for

if TYPE_CHECKING:
    import argparse

    from .simlab import ExperimentConfig, SweepResult

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ESTIMATION = 3

# Most points a start:step:stop SNR grid may hold; the paper's grid has 11.
MAX_GRID_POINTS = 10_000

# estimate's report encoder: json.dumps(report, sort_keys=True, allow_nan=False)
# builds this same encoder on every call.
_REPORT_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False)


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

    The file is read whole with one unbuffered read, and the values are
    read as complex64 pairs and widened, so each part keeps its float32
    value exactly, the sign of a zero included.  A decoder that
    adds I and j*Q turns an imaginary -0.0 into +0.0, so compare decoded
    samples with ==, under which -0.0 equals 0.0, not by their bytes.

    Raises:
        ConfigError: a byte count that is not a multiple of 8 (a stray
            byte or an odd float32 count), or a NaN or infinite value.
        OSError: the file cannot be opened or read.
    """
    with open(path, "rb", buffering=0) as handle:
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
    """Parse a flat ``key = value`` UTF-8 file, a leading byte-order mark dropped; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
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
    from .simlab import ESTIMATORS

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
             "estimators": (_parse_estimators, "proposed,sca", "comma list of estimator names")},
    "estimate": _PREAMBLE_SETTINGS,
}


def _settings(args: SimpleNamespace, fixed: Mapping[str, str] | None = None) -> dict[str, Any]:
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
    for key, setting in table.items():
        flag = getattr(args, key)
        if fixed and key in fixed and (flag is not None or key in file_values):
            raise ConfigError(f"{fixed[key]} sets {key} itself; drop {key} from the flags and config")
        source = f"config key {key!r}" if flag is None else "--" + key.replace("_", "-")
        text = flag if flag is not None else file_values.get(key)
        try:
            settings[key] = setting[0](setting[1] if text is None else text)
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


def _json_value(value: Any) -> Any:
    """A config value as strict JSON holds it: +inf as "inf", which the CSV prints and a flag reads."""
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    return "inf" if value == math.inf else value


def write_manifest(out_path: Path, config: dict, started_at: str) -> None:
    """Serialize the run manifest of the output file out_path next to it, as strict JSON.

    started_at is the command's _timestamp(), taken before it wrote anything.
    """
    payload = {
        "config": {key: _json_value(value) for key, value in config.items()},
        "tool_version": __version__,
        "started_at": started_at,
        "output_paths": [str(out_path)],
    }
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    _write_text(_manifest_path(out_path), text + "\n")


def _check_targets(targets: list[Path]) -> None:
    """Raise ConfigError unless each output file and its manifest can be created.

    Writing commands call this before they compute, so a usage error writes no file.
    """
    for target in targets:
        if not os.path.isdir(target.parent):
            raise ConfigError(f"{target}: directory {target.parent} does not exist")
        for path in (target, _manifest_path(target)):
            if os.path.isdir(path):
                raise ConfigError(f"{path} is a directory")


def _experiment(settings: dict[str, Any], n_fft: int, modes: tuple[str, ...], **sweep) -> ExperimentConfig:
    from .channel import ChannelProfile
    from .simlab import ExperimentConfig

    return ExperimentConfig(
        n_fft=n_fft, r1=settings["r1"], r2=settings["r2"], cp_len=settings["cp"],
        channel=ChannelProfile(path_count=settings["paths"], decay=settings["decay"]),
        modes=modes, cfo_true=settings["cfo"], ffo_stage_enabled=settings["ffo"],
        master_seed=settings["seed"], **sweep,
    )


def _cmd_preamble(args: SimpleNamespace) -> int:
    started_at = _timestamp()
    settings = _settings(args)
    out = Path(args.out)
    _check_targets([out])
    frame = _preamble_for(settings["n"], settings["r1"], settings["r2"], settings["cp"]).frame
    write_iq(out, frame.samples)
    write_manifest(out, {"command": "preamble", **settings}, started_at)
    print(f"wrote {frame.samples.size} samples to {out}")
    return EXIT_OK


def _cmd_fig1(args: SimpleNamespace) -> int:
    from .simlab import dump_correlations

    started_at = _timestamp()
    settings = _settings(args)
    out = Path(args.out)
    _check_targets([out])
    cfg = _experiment(settings, settings["n"], ("varying",), snr_grid_db=(settings["snr"],),
                      trials_per_point=1, estimators=("proposed",))
    table = dump_correlations(cfg)
    lines = ["tau,corr_r1,corr_r2"]
    lines.extend("%d,%.9g,%.9g" % (tau, c1, c2) for tau, c1, c2 in table.tolist())
    _write_text(out, "\n".join(lines) + "\n")
    write_manifest(out, {"command": "fig1", **settings}, started_at)
    print(f"wrote {len(table)} rows to {out}")
    return EXIT_OK


def _sweep_rows(result: SweepResult) -> list[str]:
    """result's fig2 CSV rows from its columns; %.9g is format(x, ".9g"), locale-independent."""
    trials = result.config.trials_per_point
    return [
        "%.9g,%s,%s,%d,%d,%.9g,%.9g,%.9g,%.9g" % (snr_db, estimator, mode, trials, *values)
        for (mode, snr_db, estimator), *values in result.rows()
    ]


def _cmd_fig2(args: SimpleNamespace) -> int:
    from .simlab import run_sweeps

    started_at = _timestamp()
    settings = _settings(args, {"n": "--paper"} if args.paper else None)
    n_list = [64, 128] if args.paper else [settings["n"]]
    modes = ("varying", "static") if settings["mode"] == "both" else (settings["mode"],)
    out = Path(args.out)
    targets = [out.with_name(f"{out.stem}_n{n}{out.suffix}") for n in n_list] if args.paper else [out]
    _check_targets(targets)
    # run_sweeps builds every size's config before its first trial, and the
    # outputs are written after it, so a usage error writes nothing.
    cfg = _experiment(settings, n_list[0], modes, snr_grid_db=settings["snr_grid"],
                      trials_per_point=settings["trials"], estimators=settings["estimators"])
    config = {"command": "fig2", **settings, "modes": modes}
    del config["mode"]
    # One pass for every N: each trial's generator and draws serve both sizes.
    results = run_sweeps(cfg, n_list)
    for result, target in zip(results, targets):
        rows = ["snr_db,estimator,mode,trials,failures,failure_prob,ci_lo,ci_hi,ffo_mse"]
        rows.extend(_sweep_rows(result))
        _write_text(target, "\n".join(rows) + "\n")
        write_manifest(target, {**config, "n": result.config.n_fft}, started_at)
    # Print after every write: a closed stdout pipe must not cost a size its files.
    print("\n".join(f"wrote {len(r.failures)} cells to {t}" for r, t in zip(results, targets)))
    return EXIT_OK


def _cmd_estimate(args: SimpleNamespace) -> int:
    settings = _settings(args)
    spec = _preamble_for(settings["n"], settings["r1"], settings["r2"], settings["cp"])
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
    print(_REPORT_JSON.encode(report))
    return EXIT_ESTIMATION if est.failed else EXIT_OK


@dataclass
class _Command:
    """One command: its name, handler and help, its own flags, and its flag table.

    A command takes its SETTINGS, --config, its store_true switches
    (switch_help: flag -> help) and one required path flag (path: flag,
    dest, help), in that, their help, order.  Its flag table maps each flag
    that takes a value to its dest (values), each switch to its dest
    (switches) and each dest to its value when no flag sets it (defaults),
    as argparse would.  _read_flags reads well-formed argv from the table
    and build_parser builds the command's subparser from the same data.
    """

    name: str
    func: Callable[[SimpleNamespace], int]
    help: str
    path: tuple[str, str, str]
    switch_help: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        flag, dest, _ = self.path
        self.values = {"--" + key.replace("_", "-"): key for key in SETTINGS[self.name]}
        self.values.update({"--config": "config", flag: dest})
        self.switches = {switch: switch[2:] for switch in self.switch_help}
        self.defaults = {"command": self.name, **dict.fromkeys(self.values.values()),
                         **dict.fromkeys(self.switches.values(), False)}


COMMANDS: dict[str, _Command] = {cmd.name: cmd for cmd in (
    _Command("preamble", _cmd_preamble, "write the two-symbol preamble as raw IQ",
             ("--out", "out", "output IQ path")),
    _Command("fig1", _cmd_fig1, "single-shot correlation comb profiles (CSV)",
             ("--out", "out", "output CSV path")),
    _Command("fig2", _cmd_fig2, "failure-probability sweep (CSV + manifest)",
             ("--out", "out", "output CSV path"),
             {"--paper": "sweep N = 64 and 128 (x.csv: x_n64.csv, x_n128.csv); other settings "
                         "keep their defaults, the paper's values, unless a flag or config key "
                         "sets them"}),
    _Command("estimate", _cmd_estimate, "estimate the offset carried by an IQ capture",
             ("--in", "infile", "input IQ path")),
)}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process from COMMANDS and SETTINGS.

    Only help and ill-formed argv reach it (_parse_argv), so only they
    import argparse.  Each setting's flag keeps its text for _settings to
    parse.  No flag may be abbreviated, so each has the one spelling
    _join_values matches.  Parsing leaves the parser unchanged (each call
    fills a new namespace), so every call of main shares it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="cfolab",
        description="Carrier frequency offset estimation lab over dual chirp-rate preambles.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        command = sub.add_parser(name, help=cmd.help, allow_abbrev=False)
        for key, setting in SETTINGS[name].items():
            # No flag default: an absent flag is None, so the config file can set the key.
            command.add_argument("--" + key.replace("_", "-"),
                                 help=f"{setting[2]} (default: {setting[1]})")
        command.add_argument("--config", help="flat key = value config file; flags override")
        for switch, text in cmd.switch_help.items():
            command.add_argument(switch, action="store_true", help=text)
        flag, dest, text = cmd.path
        command.add_argument(flag, dest=dest, required=True, help=text)
    return parser


def _join_values(argv: list[str]) -> list[str]:
    """argv with each flag that takes a value and the token after it joined as --flag=value.

    The flags are those in the flag table of the command argv[0] names
    (settings, --config, --out, --in).  As getopt does, a flag takes the
    next token unless it starts with '--', so a value that starts with '-'
    (--cfo -1e1, --out -x.csv) is not read as a flag, and a flag followed
    by a flag is still reported as missing its value.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    values = command.values if command else {}
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in values and not token.startswith("--"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _read_flags(command: _Command, argv: list[str]) -> SimpleNamespace | None:
    """What argparse gives command's argv, if argv is well formed; else None.

    The result holds the attributes of argparse's Namespace, and argparse
    is not imported.  argv comes from _join_values.  Well formed means
    every token is a switch or ``--flag=value`` for a flag that takes a
    value, and the required path flag is given.  No value may be ``--``,
    which some argparse versions drop.  On such argv argparse stores each
    value as written, the last one where a flag repeats, and reports
    nothing.  Anything else
    (help, ``--``, an unknown or abbreviated flag, a missing value, a value
    given to a switch) is left to argparse.
    """
    given: dict[str, Any] = {}
    for token in argv:
        dest = command.switches.get(token)
        if dest is not None:
            given[dest] = True
            continue
        flag, eq, value = token.partition("=")
        dest = command.values.get(flag)
        if dest is None or not eq or value == "--":
            return None
        given[dest] = value
    if command.path[1] not in given:
        return None
    return SimpleNamespace(**{**command.defaults, **given})


def _parse_argv(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """Parse argv as build_parser().parse_args would.

    When argv[0] names a command and the rest is well formed, it is read
    from that command's flag table (_read_flags) without argparse; any
    other argv goes to parse_args.  So every help text and usage error
    comes from argparse.
    """
    argv = _join_values(argv)
    command = COMMANDS.get(argv[0]) if argv else None
    args = _read_flags(command, argv[1:]) if command else None
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    """Run the command argv names; return its exit code.

    argv is parsed once (_parse_argv): a command's well-formed argv is read
    from its flag table, anything else by argparse.  A usage error that
    argparse catches exits through SystemExit(2); one main or the command
    finds returns EXIT_USAGE with an ``error:`` line.  A flag given the
    value ``--`` is such an error: some argparse versions store it as []
    and others keep it, so main rejects both before the command runs.
    """
    args = _parse_argv(sys.argv[1:] if argv is None else argv)
    command = COMMANDS[args.command]
    try:
        for flag, dest in command.values.items():
            if getattr(args, dest) in ([], "--"):
                raise ConfigError(f"{flag}: expected a value, got '--'")
        return command.func(args)
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


def __getattr__(name: str) -> Any:
    """cli.run_sweep, read from simlab: bench/spans.py traces it until it traces run_sweeps."""
    if name != "run_sweep":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .simlab import run_sweep

    return run_sweep


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
