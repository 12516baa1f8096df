"""Command-line interface: formats, exit codes, byte-level determinism."""

import argparse
import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfolab import cli
from cfolab.channel import ChannelProfile
from cfolab.cli import (
    MAX_GRID_POINTS,
    SETTINGS,
    _join_values,
    _parse_argv,
    _parse_snr_grid,
    _settings,
    _sweep_rows,
    build_parser,
    load_config_file,
    main,
    read_iq,
    write_iq,
)
from cfolab.errors import ConfigError
from cfolab.signal import _preamble_for
from cfolab.simlab import ESTIMATORS, ExperimentConfig, run_sweep


def run_cli(*args, cwd=None):
    env = dict(os.environ, SOURCE_DATE_EPOCH="0")
    return subprocess.run(
        [sys.executable, "-m", "cfolab", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_preamble_file_size_and_content(tmp_path):
    out = tmp_path / "pre.iq"
    result = run_cli("preamble", "--n", "64", "--r1", "2", "--r2", "8", "--cp", "16",
                     "--out", str(out))
    assert result.returncode == 0
    assert out.stat().st_size == 160 * 8  # 2*(64+16) complex64 samples
    samples = read_iq(out)
    from cfolab.signal import PreambleSpec

    frame = PreambleSpec(64, 2, 8, 16).frame
    np.testing.assert_allclose(samples, frame.samples, atol=1e-6)  # float32 storage


def test_preamble_rejects_bad_fft_size(tmp_path):
    result = run_cli("preamble", "--n", "63", "--out", str(tmp_path / "x.iq"))
    assert result.returncode == 2
    assert "power of two" in result.stderr


def test_preamble_rejects_bad_rate(tmp_path):
    result = run_cli("preamble", "--n", "64", "--r1", "3", "--out", str(tmp_path / "x.iq"))
    assert result.returncode == 2


def test_fig1_default_preset_peaks(tmp_path):
    out = tmp_path / "fig1.csv"
    result = run_cli("fig1", "--seed", "7", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "tau,corr_r1,corr_r2"
    assert len(lines) == 129
    body = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert int(body[:, 1].argmax()) == 20
    assert int(body[:, 2].argmax()) == 20


def test_fig1_byte_identical_rerun(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("fig1", "--seed", "3", "--out", str(a)).returncode == 0
    assert run_cli("fig1", "--seed", "3", "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_fig1_manifest_records_every_setting(tmp_path, capsys, monkeypatch):
    """Every setting the CSV depends on is in the manifest, the fractional stage from a config file."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    conf = tmp_path / "run.conf"
    conf.write_text("ffo = on\n")
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--r2", "16", "--cp", "20", "--cfo", "20.3", "--config", str(conf),
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "fig1.csv.manifest.json").read_text())
    assert manifest["config"] == {
        "command": "fig1", "n": 128, "r1": 2, "r2": 16, "cp": 20, "snr": 20.0, "cfo": 20.3,
        "paths": 1, "decay": 2.0, "ffo": True, "seed": 1,
    }


def test_fig1_rejects_trials_flag(tmp_path):
    result = run_cli("fig1", "--trials", "5", "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2


@pytest.mark.parametrize("command,flag", [("fig1", "--snr"), ("fig2", "--snr-grid")])
@pytest.mark.parametrize("snr", ["4000", "-inf", "nan"])
def test_sweeps_reject_snr_the_channel_cannot_model(tmp_path, capsys, command, flag, snr):
    out = tmp_path / "x.csv"
    argv = [command, "--n", "64", f"{flag}={snr}", "--out", str(out)]
    if command == "fig2":
        argv += ["--trials", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "SNR" in err, err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--snr-grid=10:2:0", "--estimators=", "--trials=0"])
def test_fig2_rejects_a_sweep_without_cells(tmp_path, capsys, flag):
    """An empty SNR grid or estimator list, or no trials, is a usage error, not a header-only CSV."""
    out = tmp_path / "x.csv"
    assert main(["fig2", "--n", "64", "--trials", "1", flag, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "at least one" in captured.err, captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("text,grid", [
    ("0:3:11", (0.0, 3.0, 6.0, 9.0)),
    ("0:2:20", tuple(float(s) for s in range(0, 21, 2))),
    ("5:5:5", (5.0,)),
    ("0,5,10", (0.0, 5.0, 10.0)),
])
def test_snr_grid_stops_at_or_before_its_stop(text, grid):
    assert _parse_snr_grid(text) == grid


def test_snr_grid_counts_fractional_steps_up_to_the_stop():
    assert _parse_snr_grid("0:2:23")[-1] == 22.0
    tenths = _parse_snr_grid("0:0.1:1")
    assert len(tenths) == 11 and tenths[-1] == 1.0
    assert len(_parse_snr_grid("0:0.1:0.3")) == 4


@pytest.mark.parametrize("grid", ["0:2:inf", "-inf:2:0", "0:inf:10", "nan:1:2"])
def test_fig2_rejects_a_grid_range_with_a_non_finite_bound(tmp_path, capsys, grid):
    out = tmp_path / "x.csv"
    assert main(["fig2", "--n", "64", f"--snr-grid={grid}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --snr-grid:") and "must be finite" in err, err
    assert not out.exists()


def test_snr_grid_point_count_is_bounded_before_the_grid_is_built():
    assert len(_parse_snr_grid(f"0:1:{MAX_GRID_POINTS - 1}")) == MAX_GRID_POINTS
    for text in (f"0:1:{MAX_GRID_POINTS}", "0:1e-300:1", "0:1e-300:1e300", "-1e308:1:1e308"):
        with pytest.raises(ValueError, match="more than"):
            _parse_snr_grid(text)


@pytest.mark.parametrize("grid", ["0:1e-300:1", "0:1e-300:1e300"])
def test_fig2_rejects_a_grid_range_with_too_many_points(tmp_path, capsys, grid):
    """Too many points is a usage error from the flag and from a config file; no file is written."""
    out = tmp_path / "x.csv"
    assert main(["fig2", "--n", "64", f"--snr-grid={grid}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --snr-grid:") and "more than" in err, err
    assert not out.exists()
    conf = tmp_path / "run.conf"
    conf.write_text(f"snr_grid = {grid}\n", encoding="utf-8")
    assert main(["fig2", "--n", "64", "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "more than" in err, err
    assert not out.exists()


def test_estimate_of_a_directory_is_a_usage_error(tmp_path, capsys):
    assert main(["estimate", "--in", str(tmp_path), "--n", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_config_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_bytes(b"n = 64\n# caf\xe9\n")
    out = tmp_path / "pre.iq"
    assert main(["preamble", "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err, err
    assert not out.exists()


def test_config_file_with_a_byte_order_mark_sets_its_first_key(tmp_path):
    """Editors that save UTF-8 with a byte-order mark write one before the first key."""
    conf = tmp_path / "bom.conf"
    conf.write_bytes(b"\xef\xbb\xbfn = 64\n")
    assert load_config_file(conf) == {"n": "64"}
    out = tmp_path / "pre.iq"
    assert main(["preamble", "--config", str(conf), "--out", str(out)]) == 0
    assert out.stat().st_size == 2 * (64 + 16) * 8


@pytest.mark.parametrize("epoch", ["abc", "1e3", "99999999999999999999"])
@pytest.mark.parametrize("command", ["preamble", "fig1", "fig2"])
def test_bad_source_date_epoch_is_rejected_before_any_output(tmp_path, capsys, monkeypatch,
                                                             command, epoch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    out = tmp_path / "x.out"
    argv = [command, "--n", "64", "--out", str(out)]
    if command == "fig2":
        argv += ["--trials", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "SOURCE_DATE_EPOCH" in err, err
    assert list(tmp_path.iterdir()) == []


def test_fig2_checks_the_output_directory_before_it_sweeps(tmp_path, capsys, monkeypatch):
    from cfolab import simlab

    def no_sweep(cfg, n_ffts):
        raise AssertionError("swept before checking --out")

    monkeypatch.setattr(simlab, "run_sweeps", no_sweep)
    out = tmp_path / "missing" / "fig2.csv"
    assert main(["fig2", "--paper", "--trials", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "does not exist" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("paper,directory", [
    (False, "fig2.csv"),
    (False, "fig2.csv.manifest.json"),
    (True, "fig2_n64.csv"),
    (True, "fig2_n128.csv.manifest.json"),
])
def test_fig2_checks_the_output_targets_before_it_sweeps(tmp_path, capsys, monkeypatch,
                                                          paper, directory):
    from cfolab import simlab

    def no_sweep(cfg, n_ffts):
        raise AssertionError("swept before checking the output targets")

    monkeypatch.setattr(simlab, "run_sweeps", no_sweep)
    (tmp_path / directory).mkdir()
    argv = ["fig2", "--paper"] if paper else ["fig2", "--n", "64"]
    assert main(argv + ["--trials", "1", "--out", str(tmp_path / "fig2.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "is a directory" in captured.err, captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == [directory]


def test_fig2_rejects_a_sweep_over_the_trial_cap_before_it_sweeps(tmp_path, capsys, monkeypatch):
    from cfolab import simlab

    def no_sweep(cfg, n_ffts):
        raise AssertionError("swept past the trial cap")

    monkeypatch.setattr(simlab, "run_sweeps", no_sweep)
    out = tmp_path / "x.csv"
    assert main(["fig2", "--n", "64", "--snr-grid", "0", "--trials", "1000000000000000",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "trials a sweep may run" in err, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["preamble"], ["fig1"], ["fig2", "--trials", "1"], ["fig2", "--trials", "1", "--estimators", "sca"],
    ["estimate"],
], ids=["preamble", "fig1", "fig2", "fig2-sca", "estimate"])
def test_a_cp_longer_than_its_symbol_is_a_usage_error(tmp_path, capsys, argv):
    """A prefix copies its symbol's tail, so --cp 200 at N=64 is exit 2 and writes nothing."""
    capture = tmp_path / "capture.iq"
    write_iq(capture, np.ones(2 * (64 + 200)))
    path = ["--in", str(capture)] if argv[0] == "estimate" else ["--out", str(tmp_path / "x")]
    assert main([*argv, "--n", "64", "--cp", "200", *path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cp_len must be between 0 and n_fft = 64"), captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["capture.iq"]


@pytest.mark.parametrize("argv", [
    ["preamble"], ["fig1"], ["fig2", "--trials", "1", "--estimators", "sca"], ["estimate"],
], ids=["preamble", "fig1", "fig2-sca", "estimate"])
def test_an_fft_size_past_the_bound_is_a_usage_error(tmp_path, capsys, argv):
    """N = 2**40 is a power of two no chirp can be allocated for: exit 2 before any array, no traceback."""
    path = ["--in", str(tmp_path / "absent.iq")] if argv[0] == "estimate" else ["--out", str(tmp_path / "x")]
    assert main([*argv, "--n", "1099511627776", *path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: n_fft must be at most 65536, got 1099511627776"), captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("estimators", ["sca", "proposed", "proposed,sca"])
def test_fig2_rejects_a_rate_no_chirp_can_have_whichever_estimators_run(tmp_path, capsys, estimators):
    """Each manifest records r1 and r2, so the chirp rule holds for them in a Schmidl-Cox-only sweep too."""
    out = tmp_path / "x.csv"
    assert main(["fig2", "--n", "64", "--estimators", estimators, "--r2", "10", "--paths", "1",
                 "--trials", "1", "--snr-grid", "10", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: rate must be a positive divisor of n_fft"), captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("trials", ["1"])
@pytest.mark.parametrize("flags,reason", [
    (["--n", "100"], "power of two"),
    (["--n", "64", "--cp", "1", "--paths", "4"], "too short for 4 paths"),
])
def test_fig2_rejects_a_config_at_any_trial_count(tmp_path, capsys, flags, reason, trials):
    """A config no sweep can run is a usage error before its first trial, and writes nothing."""
    out = tmp_path / "x.csv"
    assert main(["fig2", *flags, "--trials", trials, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and reason in captured.err, captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_fig2_at_minus_3000_db_stays_finite(tmp_path, capsys):
    """At the lowest SNR the channel models, the Schmidl-Cox metric must not overflow."""
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fig2", "--n", "64", "--snr-grid=-3000", "--trials", "3",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["proposed", "sca", "proposed", "sca"]


def test_fig2_small_sweep(tmp_path):
    out = tmp_path / "fig2.csv"
    result = run_cli(
        "fig2", "--n", "64", "--snr-grid", "0,10", "--trials", "25",
        "--mode", "both", "--seed", "5", "--out", str(out),
    )
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "snr_db,estimator,mode,trials,failures,failure_prob,ci_lo,ci_hi,ffo_mse"
    # 2 snr x 2 estimators x 2 modes
    assert len(lines) == 1 + 8
    for line in lines[1:]:
        fields = line.split(",")
        prob = float(fields[5])
        assert 0.0 <= prob <= 1.0
    manifest = json.loads((tmp_path / "fig2.csv.manifest.json").read_text())
    assert manifest["output_paths"] == [str(out)]
    assert manifest["config"]["trials"] == 25


def test_fig2_byte_identical_rerun(tmp_path):
    args = ("fig2", "--n", "64", "--snr-grid", "5,15", "--trials", "20",
            "--mode", "varying", "--seed", "11")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.manifest.json").read_text().replace("a.csv", "x") == \
        (tmp_path / "b.csv.manifest.json").read_text().replace("b.csv", "x")


@pytest.mark.parametrize("ffo", ["off", "on"])
@pytest.mark.parametrize("estimator", ["proposed", "sca"])
def test_fig2_paper_equals_one_run_per_n(tmp_path, capsys, monkeypatch, estimator, ffo):
    """fig2 --paper writes, byte for byte, the CSVs and manifests of fig2 --n 64 and --n 128.

    --paper sweeps both sizes in shared passes, one generator per trial for
    both; each N's output must not show it.  30 trials on the 11-point grid
    cross a chunk of the shared pass.  Each run writes into its own
    directory under the same file name, so the manifests differ only there.
    """
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    flags = ["--trials", "30", "--seed", "5", "--ffo", ffo, "--cfo", "20.3" if ffo == "on" else "20",
             "--estimators", estimator]
    paper, single = tmp_path / "paper", tmp_path / "single"
    paper.mkdir()
    single.mkdir()
    assert main(["fig2", "--paper", *flags, "--out", str(paper / "fig2.csv")]) == 0
    for n_fft in (64, 128):
        name = f"fig2_n{n_fft}.csv"
        assert main(["fig2", "--n", str(n_fft), *flags, "--out", str(single / name)]) == 0
        assert (paper / name).read_bytes() == (single / name).read_bytes(), n_fft
        manifest = name + ".manifest.json"
        assert (paper / manifest).read_text().replace(str(paper), "DIR") == \
            (single / manifest).read_text().replace(str(single), "DIR")


def _fmt(x):
    """The per-field float format of the fig1 and fig2 CSVs before their one-string rows."""
    return format(float(x), ".9g")


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.225073858507201e-308)
@example(123456789.5)
def test_percent_9g_formats_a_float_as_format_9g(x):
    assert "%.9g" % x == _fmt(x)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.integers())
def test_percent_d_formats_an_int_as_str(n):
    assert "%d" % n == str(n)


def test_sweep_rows_equal_the_per_field_join():
    """The one-string rows equal the old join of _fmt and str fields, NaN ffo_mse and -0 dB included."""
    cfg = ExperimentConfig(
        n_fft=64, r1=2, r2=8, cp_len=16, channel=ChannelProfile(4, 2.0), cfo_true=20.3,
        snr_grid_db=(-0.0, -12.5, math.inf), trials_per_point=3, modes=("varying", "static"),
        ffo_stage_enabled=True,
    )
    result = run_sweep(cfg)
    result = dataclasses.replace(result, ffo_mse=(math.nan, *result.ffo_mse[1:]))
    want = [
        ",".join([_fmt(snr_db), estimator, mode, str(cfg.trials_per_point), str(failures),
                  _fmt(failure_prob), _fmt(ci_lo), _fmt(ci_hi), _fmt(ffo_mse)])
        for (mode, snr_db, estimator), failures, failure_prob, ci_lo, ci_hi, ffo_mse in result.rows()
    ]
    assert _sweep_rows(result) == want
    assert want[0].startswith("-0,") and want[0].endswith(",nan") and len(want) == 12
    assert any(failures not in (0, 3) for failures in result.failures)


def test_write_text_writes_every_byte_through_short_writes(tmp_path, monkeypatch):
    """An os.write that takes at most 7 bytes a call still leaves all of the UTF-8 bytes."""
    text = "snr_db,µ,ü\n" * 40
    sizes = []
    write = os.write

    def short(fd, data):
        sizes.append(write(fd, data[:7]))
        return sizes[-1]

    path = tmp_path / "out.csv"
    monkeypatch.setattr(os, "write", short)
    cli._write_text(path, text)
    monkeypatch.undo()
    assert path.read_bytes() == text.encode("utf-8")
    assert max(sizes) == 7 and len(sizes) == -(-len(text.encode("utf-8")) // 7)


def test_write_text_leaves_no_stale_tail(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"x" * 1000)
    cli._write_text(path, "short\n")
    assert path.read_bytes() == b"short\n"


@pytest.mark.parametrize("umask", [0o027, 0o002])
def test_write_text_gives_the_mode_path_write_text_gives(tmp_path, umask):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    saved = os.umask(umask)
    try:
        cli._write_text(ours, "x\n")
        theirs.write_text("x\n", encoding="utf-8")
    finally:
        os.umask(saved)
    assert stat.S_IMODE(ours.stat().st_mode) == stat.S_IMODE(theirs.stat().st_mode) == 0o666 & ~umask


def test_a_failed_write_closes_its_file_and_is_a_usage_error(tmp_path, capsys, monkeypatch):
    opened, closed = [], []
    real_open, real_close = os.open, os.close

    def recording_open(*args):
        opened.append(real_open(*args))
        return opened[-1]

    def recording_close(fd):
        closed.append(fd)
        real_close(fd)

    def no_space(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "close", recording_close)
    monkeypatch.setattr(os, "write", no_space)
    code = main(["fig2", "--n", "64", "--snr-grid", "0", "--trials", "1",
                 "--out", str(tmp_path / "fig2.csv")])
    monkeypatch.undo()
    assert code == 2
    assert len(opened) == 1 and closed == opened
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def _loopback(tmp_path, cfo):
    """Write a preamble, rotate it by a known offset, run the estimate command."""
    pre = tmp_path / "pre.iq"
    assert run_cli("preamble", "--n", "128", "--r1", "2", "--r2", "8", "--cp", "16",
                   "--out", str(pre)).returncode == 0
    samples = read_iq(pre)
    n = np.arange(samples.size)
    write_iq(pre, samples * np.exp(2j * np.pi * cfo * n / 128))
    result = run_cli("estimate", "--in", str(pre), "--n", "128", "--r1", "2",
                     "--r2", "8", "--cp", "16")
    return result


@pytest.mark.parametrize("cfo", [20.0, -20.4])
def test_estimate_loopback(tmp_path, cfo):
    result = _loopback(tmp_path, cfo)
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert abs(report["total"] - cfo) < 1e-6
    assert report["failed"] is False


def test_estimate_reports_an_unresolved_offset_as_failed(tmp_path, capsys, monkeypatch):
    """A resolver that finds no offset (NaN) exits 3: failed true, fractional estimate kept."""
    from cfolab import estimator as estimator_module

    pre = tmp_path / "pre.iq"
    assert main(["preamble", "--n", "128", "--out", str(pre)]) == 0
    write_iq(pre, read_iq(pre) * np.exp(2j * np.pi * 20.3 * np.arange(288) / 128))
    capsys.readouterr()
    monkeypatch.setattr(estimator_module, "resolve_ifo", lambda *args: math.nan)
    assert main(["estimate", "--in", str(pre), "--n", "128"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] is True
    assert report["total"] is None and report["ifo_residual"] is None
    assert abs(report["ffo"] - 0.3) < 1e-6


def test_estimate_zero_file_is_degenerate(tmp_path):
    """All-zero captures carry no phase: rejected as unusable input (exit 2)."""
    dead = tmp_path / "dead.iq"
    write_iq(dead, np.zeros(2 * (128 + 16), dtype=complex))
    result = run_cli("estimate", "--in", str(dead), "--n", "128")
    assert result.returncode == 2
    assert "degenerate" in result.stderr


def test_estimate_of_a_capture_without_its_second_symbol_is_degenerate(tmp_path, capsys):
    """A zeroed second symbol leaves the integer stage no comb: exit 2 and no report."""
    from cfolab.channel import ChannelProfile, transmit
    from cfolab.signal import PreambleSpec

    frame = PreambleSpec(128, 2, 8, 16).frame
    stream = transmit(frame, ChannelProfile(4, 2.0), 10.3, 30.0, np.random.default_rng(5)).stream
    stream[frame.block_len:] = 0
    capture = tmp_path / "capture.iq"
    write_iq(capture, stream)
    assert main(["estimate", "--n", "128", "--in", str(capture)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: degenerate input:") and "energy" in captured.err


def test_estimate_does_not_depend_on_the_capture_scale(tmp_path, capsys):
    """A faint or a loud capture gives the same integer and, to float32 precision, ffo.

    The scales span most of float32's range, which is all a capture holds.
    """
    from cfolab.channel import ChannelProfile, transmit
    from cfolab.signal import PreambleSpec

    frame = PreambleSpec(128, 2, 8, 16).frame
    stream = transmit(frame, ChannelProfile(4, 2.0), 10.3, 20.0, np.random.default_rng(5)).stream
    reports, float32_eps = [], float(np.finfo(np.float32).eps)
    for scale in (1.0, 1e-6, 1e-9, 1e-20, 1e6, 1e20, 1e36):
        capture = tmp_path / "capture.iq"
        write_iq(capture, scale * stream)
        assert main(["estimate", "--n", "128", "--in", str(capture)]) == 0, scale
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0]["ifo_residual"] == 10
    for report in reports[1:]:
        assert report["ifo_residual"] == reports[0]["ifo_residual"]
        assert report["ffo"] == pytest.approx(reports[0]["ffo"], rel=float32_eps)


# sha256 of the IQ file `cfolab preamble` writes with these flags.
_PREAMBLE_IQ_SHA256 = [
    (["--n", "128"], "9574faade7012cb83c78490e48204d23de10b74b29df9e0c999b46aacbd167fb"),
    (["--n", "1024"], "0aaa905837b0fd5312398f51b23d9e0f921bde5b50fc203cf9fd11d1efeb8e98"),
    (["--n", "64", "--cp", "0"], "617d5905e1a5ebeb7cae883d5e123e230bf4d56629ed815217c0a22fc2159e37"),
]


@pytest.mark.parametrize("flags,digest", _PREAMBLE_IQ_SHA256, ids=["n128", "n1024", "n64-cp0"])
def test_preamble_iq_digest_is_pinned(tmp_path, capsys, flags, digest):
    out = tmp_path / "pre.iq"
    assert main(["preamble", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# (n_fft, true offset, transmit seed) of the pinned captures: 4 paths, 20 dB.
_PINNED_CAPTURES = [(128, 10.3, 5), (128, -37.71, 6), (128, 0.49, 7),
                    (1024, 200.45, 8), (1024, -311.62, 9)]
# sha256 of `cfolab estimate` stdout over _pinned_captures, one call per
# capture in order.  It was computed with numpy's complex forms of the
# receiver's real arithmetic (complex division by sqrt(N), np.exp of a
# complex phase in compensate, a complex sum in read_iq); the real forms
# that replaced them give the same bytes.
ESTIMATE_STDOUT_SHA256 = "c13c0a23fb3216bb3a74d5548c6f61b7daadc1ba8ac1f361852e642cbf84f2e4"


def _pinned_captures():
    """The transmit-built captures of _PINNED_CAPTURES, then the first with signed zeros."""
    from cfolab.channel import ChannelProfile, transmit
    from cfolab.signal import PreambleSpec

    captures = []
    for n_fft, cfo, seed in _PINNED_CAPTURES:
        frame = PreambleSpec(n_fft, 2, 8, 16).frame
        stream = transmit(frame, ChannelProfile(4, 2.0), cfo, 20.0, np.random.default_rng(seed)).stream
        captures.append((n_fft, stream))
    zeros = captures[0][1].copy()
    zeros.real[40:48] = [0.0, -0.0] * 4
    zeros.imag[40:48] = [0.0, 0.0, -0.0, -0.0] * 2
    captures.append((128, zeros))
    return captures


def test_estimate_stdout_digest_is_pinned(tmp_path, capsys):
    capture, lines = tmp_path / "capture.iq", []
    for n_fft, stream in _pinned_captures():
        write_iq(capture, stream)
        assert main(["estimate", "--n", str(n_fft), "--in", str(capture)]) == 0, n_fft
        lines.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == ESTIMATE_STDOUT_SHA256


def test_read_iq_decodes_what_the_complex_sum_decoded(tmp_path):
    """Each decoded sample equals the old decoder's, raw[0::2] + 1j * raw[1::2], under ==.

    The parts span float32's range, subnormals and signed zeros included.
    The old sum turned an imaginary -0.0 into +0.0; read_iq keeps the sign.
    """
    rng = np.random.default_rng(3)
    raw = (rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-45.0, 38.5, 4000)).astype("<f4")
    raw[:8] = [0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 1e-45, -3.4e38]
    capture = tmp_path / "capture.iq"
    raw.tofile(str(capture))
    got = read_iq(capture)
    old = (raw[0::2] + 1j * raw[1::2]).astype(np.complex128)
    assert got.dtype == np.complex128
    np.testing.assert_array_equal(got, old)
    np.testing.assert_array_equal(np.signbit(got.real), np.signbit(raw[0::2]))
    np.testing.assert_array_equal(np.signbit(got.imag), np.signbit(raw[1::2]))
    empty = tmp_path / "empty.iq"
    empty.write_bytes(b"")
    assert read_iq(empty).shape == (0,)


@pytest.mark.parametrize("floats,stray,size", [
    (4160, b"\0", "16641 bytes"),
    (2081, b"", "8324 bytes"),
], ids=["stray byte", "odd float count"])
def test_read_iq_rejects_a_partial_iq_pair(tmp_path, capsys, floats, stray, size):
    """A size that is not a whole number of 8-byte I/Q pairs is a usage error naming the size."""
    capture = tmp_path / "capture.iq"
    capture.write_bytes(np.ones(floats, "<f4").tobytes() + stray)
    with pytest.raises(ConfigError, match=size):
        read_iq(capture)
    assert main(["estimate", "--in", str(capture), "--n", "1024"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and size in captured.err, captured.err
    assert captured.out == ""


def test_estimate_of_an_empty_file_is_a_usage_error(tmp_path, capsys):
    empty = tmp_path / "empty.iq"
    empty.write_bytes(b"")
    assert main(["estimate", "--in", str(empty), "--n", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "0 samples" in captured.err, captured.err
    assert captured.out == ""


def test_estimate_truncated_file(tmp_path):
    short = tmp_path / "short.iq"
    write_iq(short, np.ones(100, dtype=complex))
    result = run_cli("estimate", "--in", str(short), "--n", "128")
    assert result.returncode == 2


def test_estimate_missing_file():
    result = run_cli("estimate", "--in", "/nonexistent/cap.iq", "--n", "128")
    assert result.returncode == 2


def test_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# sweep settings\n"
        "n = 64\n"
        "trials = 10\n"
        "snr_grid = 5,15\n"
        "mode = varying\n"
        "estimators = proposed\n",
        encoding="utf-8",
    )
    out = tmp_path / "sweep.csv"
    result = run_cli("fig2", "--config", str(conf), "--trials", "5", "--out", str(out))
    assert result.returncode == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2  # 2 snr points, one estimator, one mode
    assert all(line.split(",")[3] == "5" for line in lines[1:])  # flag beat the file


def test_config_file_parser():
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".conf", delete=False) as handle:
        handle.write("a = 1\n\n# comment only\nb = two words  # trailing\n")
        path = handle.name
    assert load_config_file(path) == {"a": "1", "b": "two words"}


def test_unknown_command():
    result = run_cli("transmogrify")
    assert result.returncode == 2


@pytest.mark.parametrize("index,value", [
    (16 + 5, np.nan),                    # symbol 1
    (2 * 16 + 128 + 40, np.nan),         # symbol 2 only
    (16 + 100, np.inf),
])
def test_estimate_rejects_non_finite_samples(tmp_path, index, value):
    """Non-finite IQ is unusable input: exit 2 with an error line, no report."""
    pre = tmp_path / "pre.iq"
    assert run_cli("preamble", "--n", "128", "--out", str(pre)).returncode == 0
    samples = read_iq(pre) * np.exp(2j * np.pi * 20.3 * np.arange(288) / 128)
    samples[index] = complex(value, 0.0)
    write_iq(pre, samples)
    result = run_cli("estimate", "--in", str(pre), "--n", "128")
    assert result.returncode == 2
    assert result.stderr.startswith("error:") and "not finite" in result.stderr
    assert result.stdout == ""


def test_in_process_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    """main() shares one parser per process; interleaved calls behave as fresh processes do."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    pre = tmp_path / "pre.iq"
    assert run_cli("preamble", "--n", "64", "--out", str(pre)).returncode == 0
    calls = [
        ["estimate", "--in", str(pre), "--n", "64"],
        ["fig2", "--n", "64", "--snr-grid", "0,10", "--trials", "6", "--seed", "4", "--out", "{}"],
        ["fig2", "--n", "64", "--trials", "many", "--out", "{}"],
        ["estimate", "--in", str(pre), "--n", "64"],
    ]
    for k, argv in enumerate(calls):
        fresh_out, own_out = tmp_path / f"fresh{k}.csv", tmp_path / f"own{k}.csv"
        fresh = run_cli(*(a.format(fresh_out) for a in argv))
        try:
            code = main([a.format(own_out) for a in argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == fresh.returncode, argv
        assert captured.out.replace(str(own_out), "X") == fresh.stdout.replace(str(fresh_out), "X")
        assert own_out.exists() == fresh_out.exists()
        if fresh_out.exists():
            assert own_out.read_bytes() == fresh_out.read_bytes()
            manifests = [p.with_name(p.name + ".manifest.json").read_text().replace(str(p), "X")
                         for p in (own_out, fresh_out)]
            assert manifests[0] == manifests[1]


# A value other than its default for every setting key; together they make a
# valid preamble and sweep for every command.
SAMPLES = {
    "n": "64", "r1": "4", "r2": "16", "cp": "20", "cfo": "10", "decay": "3", "ffo": "on",
    "seed": "5", "snr": "15", "paths": "2", "snr_grid": "5,15", "trials": "3",
    "mode": "static", "estimators": "sca",
}
SETTING_KEYS = [(command, key) for command, table in SETTINGS.items() for key in table]


def _flag(key):
    return "--" + key.replace("_", "-")


def _resolve(command, *argv, config=None):
    """The settings main would resolve for these flags, without running the command."""
    path_flag = "--in" if command == "estimate" else "--out"
    extra = ["--config", str(config)] if config else []
    return _settings(build_parser().parse_args([command, *argv, *extra, path_flag, "x"]))


def _sample(command, key, tmp_path):
    """The key's parsed sample and default, and a config file that sets the sample."""
    parse, default, _ = SETTINGS[command][key]
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = {SAMPLES[key]}\n", encoding="utf-8")
    assert parse(SAMPLES[key]) != parse(default)
    return parse(SAMPLES[key]), parse(default), conf


@pytest.mark.parametrize("command,key", SETTING_KEYS)
def test_flag_sets_each_setting(tmp_path, command, key):
    sample, default, _ = _sample(command, key, tmp_path)
    assert _resolve(command)[key] == default
    assert _resolve(command, _flag(key), SAMPLES[key])[key] == sample


@pytest.mark.parametrize("command,key", SETTING_KEYS)
def test_config_key_sets_each_setting(tmp_path, command, key):
    sample, _, conf = _sample(command, key, tmp_path)
    assert _resolve(command, config=conf)[key] == sample


@pytest.mark.parametrize("command,key", SETTING_KEYS)
def test_flag_beats_the_config_file_for_each_setting(tmp_path, command, key):
    """A given flag wins even when it spells the default."""
    _, default, conf = _sample(command, key, tmp_path)
    assert _resolve(command, _flag(key), SETTINGS[command][key][1], config=conf)[key] == default


@pytest.mark.parametrize("command", ["preamble", "fig1", "fig2"])
def test_manifest_records_each_setting(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    argv = [command]
    for key in SETTINGS[command]:
        argv += [_flag(key), SAMPLES[key]]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    config = json.loads((tmp_path / "out.manifest.json").read_text())["config"]
    expected = {"command": command}
    for key, (parse, _, _) in SETTINGS[command].items():
        expected[key] = parse(SAMPLES[key])
    if command == "fig2":
        expected["modes"] = [expected.pop("mode")]
    assert config == json.loads(json.dumps(expected))


@pytest.mark.parametrize("command,line", [
    ("fig2", "trails = 3"),
    ("fig1", "trials = 3"),
    ("preamble", "seed = 2"),
    ("estimate", "mode = static"),
])
def test_config_key_the_command_does_not_declare_is_a_usage_error(tmp_path, capsys, command,
                                                                   line):
    conf = tmp_path / "run.conf"
    conf.write_text(line + "\n", encoding="utf-8")
    path_flag = "--in" if command == "estimate" else "--out"
    assert main([command, "--config", str(conf), path_flag, str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    key = line.split()[0]
    assert captured.err.startswith("error:") and repr(key) in captured.err, captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]


@pytest.mark.parametrize("command,line", [("fig2", "mode = sideways"), ("fig1", "ffo = maybe")])
def test_bad_config_value_names_its_key(tmp_path, capsys, command, line):
    conf = tmp_path / "run.conf"
    conf.write_text(line + "\n", encoding="utf-8")
    assert main([command, "--config", str(conf), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {line.split()[0]!r}:"), err
    assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]


@pytest.mark.parametrize("flag,value,reason", [
    ("--ffo", "maybe", "expected a boolean, got 'maybe'"),
    ("--mode", "sideways", "expected static, varying or both, got 'sideways'"),
    ("--trials", "x", "invalid literal for int()"),
    ("--snr-grid", "0:1e-300:1", "more than 10000 points"),
])
def test_bad_flag_value_names_its_flag_and_the_reason(tmp_path, capsys, flag, value, reason):
    """A flag's value is parsed as a config value is: exit 2, the flag and the reason, no file."""
    assert main(["fig2", "--n", "64", flag, value, "--out", str(tmp_path / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}: ") and reason in captured.err, captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_a_setting_value_may_start_with_a_minus(tmp_path, capsys):
    """A value after a space that starts with '-' is the flag's value, not another flag."""
    base = ["fig2", "--n", "64", "--trials", "1", "--mode", "static", "--estimators", "sca"]
    grid = tmp_path / "grid.csv"
    assert main([*base, "--snr-grid", "-10:2:0", "--out", str(grid)]) == 0
    assert [row.split(",")[0] for row in grid.read_text().splitlines()[1:]] == [
        "-10", "-8", "-6", "-4", "-2", "0"]
    cfo = tmp_path / "cfo.csv"
    assert main([*base, "--cfo", "-1e1", "--snr-grid", "0", "--out", str(cfo)]) == 0
    assert json.loads((tmp_path / "cfo.csv.manifest.json").read_text())["config"]["cfo"] == -10.0
    capsys.readouterr()
    assert main([*base, "--cfo", "-inf", "--out", str(tmp_path / "inf.csv")]) == 2
    assert capsys.readouterr().err == "error: |cfo_true| must be < n_fft/2, got -inf\n"
    with pytest.raises(SystemExit) as exc:
        main([*base, "--cfo", "--seed", "3", "--out", str(tmp_path / "missing.csv")])
    assert exc.value.code == 2
    assert "argument --cfo: expected one argument" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfo.csv", "cfo.csv.manifest.json", "grid.csv", "grid.csv.manifest.json"]


def test_a_path_value_may_start_with_a_minus(tmp_path, monkeypatch, capsys):
    """--out, --in and --config take the next token as their path when it starts with one '-'."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-run.conf").write_text("n = 64\n")
    assert main(["preamble", "--config", "-run.conf", "--out", "-pre.iq"]) == 0
    assert main(["fig1", "--n", "64", "--out", "-x.csv"]) == 0
    capsys.readouterr()
    assert main(["estimate", "--n", "64", "--in", "-pre.iq"]) == 0
    spaced = capsys.readouterr().out
    assert main(["estimate", "--n", "64", "--in=-pre.iq"]) == 0
    assert capsys.readouterr().out == spaced
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "-pre.iq", "-pre.iq.manifest.json", "-run.conf", "-x.csv", "-x.csv.manifest.json"]


def test_flags_are_not_abbreviated(tmp_path, capsys):
    """Each flag has one spelling: a prefix, or another command's flag name, is a usage error."""
    base = ["fig2", "--n", "64", "--mode", "static", "--estimators", "sca"]
    for flags in (["--trials", "1", "--snr-g", "-4:2:0"], ["--trials", "1", "--snr", "10"],
                  ["--tri", "1", "--snr-grid", "0"]):
        with pytest.raises(SystemExit) as exc:
            main([*base, *flags, "--out", str(tmp_path / "abbr.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["fig", "--out", str(tmp_path / "abbr.csv")])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
    out = tmp_path / "full.csv"
    assert main([*base, "--trials", "1", "--snr-grid", "-4:2:0", "--out", str(out)]) == 0
    assert [row.split(",")[0] for row in out.read_text().splitlines()[1:]] == ["-4", "-2", "0"]


def test_fig2_estimators_are_the_keys_of_the_estimator_table(tmp_path, capsys):
    """--estimators takes each key of simlab.ESTIMATORS, defaults to the paper's pair and names a bad one."""
    base = ["fig2", "--n", "64", "--trials", "1", "--mode", "static", "--snr-grid", "0"]
    for name in ESTIMATORS:
        out = tmp_path / f"{name}.csv"
        assert main([*base, "--estimators", name, "--out", str(out)]) == 0
        assert [row.split(",")[1] for row in out.read_text().splitlines()[1:]] == [name]
    with pytest.raises(SystemExit):
        main(["fig2", "--help"])
    assert f"(default: {','.join(ESTIMATORS)})" in " ".join(capsys.readouterr().out.split())
    bad = tmp_path / "bad"
    bad.mkdir()
    assert main([*base, "--estimators", "proposed,bogus", "--out", str(bad / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: --estimators: unknown estimator 'bogus'\n"
    assert list(bad.iterdir()) == []


def test_fig2_defaults_to_the_papers_pair_when_the_estimator_table_grows(tmp_path, capsys, monkeypatch):
    """A third estimator joins fig2 by name only: the default, and so --paper, keeps proposed and sca."""
    from cfolab import simlab

    monkeypatch.setitem(simlab.ESTIMATORS, "comb", (2, simlab.ESTIMATORS["proposed"][1]))
    out = tmp_path / "x.csv"
    assert main(["fig2", "--n", "64", "--trials", "1", "--snr-grid", "0", "--mode", "static",
                 "--out", str(out)]) == 0
    assert [row.split(",")[1] for row in out.read_text().splitlines()[1:]] == ["proposed", "sca"]


def _strict_json(text):
    """json.loads(text), raising on NaN, Infinity and -Infinity, which RFC 8259 lacks."""
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv,key,value", [
    (["fig1", "--snr", "inf"], "snr", "inf"),
    (["fig1", "--decay", "1e400"], "decay", "inf"),
    (["fig2", "--n", "64", "--trials", "2", "--snr-grid", "inf,20"], "snr_grid", ["inf", 20.0]),
    (["fig2", "--n", "64", "--trials", "2", "--snr-grid", "0", "--decay", "inf"], "decay", "inf"),
])
def test_a_manifest_writes_an_infinite_setting_as_the_string_inf(tmp_path, capsys, argv, key, value):
    """An infinite setting is written "inf", as the CSV prints it, so the manifest is strict JSON."""
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert _strict_json((tmp_path / "x.csv.manifest.json").read_text())["config"][key] == value


@pytest.mark.parametrize("flags,duplicate", [
    (["--snr-grid", "0,0"], "SNR 0.0 dB"),
    (["--snr-grid=0,-0"], "SNR -0.0 dB"),
    (["--snr-grid", "inf,5,inf"], "SNR inf dB"),
    (["--estimators", "proposed,proposed"], "estimator 'proposed'"),
    (["--estimators", "sca,proposed,sca"], "estimator 'sca'"),
])
def test_fig2_rejects_a_duplicate_snr_or_estimator(tmp_path, capsys, flags, duplicate):
    out = tmp_path / "dup.csv"
    argv = ["fig2", "--n", "64", "--trials", "5", "--mode", "static", *flags, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and duplicate in captured.err, captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_fig1_ffo_flag_equals_the_config_key(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    conf = tmp_path / "run.conf"
    conf.write_text("ffo = on\n", encoding="utf-8")
    flag, key = tmp_path / "flag.csv", tmp_path / "key.csv"
    assert main(["fig1", "--cfo", "20.3", "--ffo", "on", "--out", str(flag)]) == 0
    assert main(["fig1", "--cfo", "20.3", "--config", str(conf), "--out", str(key)]) == 0
    assert flag.read_bytes() == key.read_bytes()
    manifests = [(tmp_path / f"{p.name}.manifest.json").read_text().replace(p.name, "X")
                 for p in (flag, key)]
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_fig2_paper_with_an_explicit_n_is_a_usage_error(tmp_path, capsys, source):
    conf = tmp_path / "run.conf"
    conf.write_text("n = 64\n", encoding="utf-8")
    given = ["--n", "128"] if source == "flag" else ["--config", str(conf)]
    assert main(["fig2", "--paper", "--trials", "1", *given, "--out", str(tmp_path / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--paper" in captured.err, captured.err
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run.conf"]


class _ClosedPipe:
    """A stdout whose reader has exited: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_fig2_paper_writes_both_sizes_before_stdout_can_fail(tmp_path, capsys, monkeypatch):
    """A closed stdout pipe exits 2 with its error line, and both sizes' files are written."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["fig2", "--paper", "--trials", "1", "--out", str(tmp_path / "pp.csv")]) == 2
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "pp_n128.csv", "pp_n128.csv.manifest.json", "pp_n64.csv", "pp_n64.csv.manifest.json"
    ]


@pytest.mark.parametrize("target", ["out", "manifest", "missing directory"])
@pytest.mark.parametrize("command,compute", [("preamble", "_preamble_for"),
                                             ("fig1", "dump_correlations")])
def test_preamble_and_fig1_check_the_output_targets_before_they_compute(
        tmp_path, capsys, monkeypatch, command, compute, target):
    from cfolab import cli, simlab

    def no_compute(*args):
        raise AssertionError("computed before checking the output targets")

    # fig1 reads dump_correlations from simlab each time it runs.
    monkeypatch.setattr(cli if command == "preamble" else simlab, compute, no_compute)
    out = tmp_path / "x.out"
    if target == "missing directory":
        out = tmp_path / "missing" / "x.out"
    else:
        (tmp_path / ("x.out" if target == "out" else "x.out.manifest.json")).mkdir()
    made = sorted(tmp_path.iterdir())
    assert main([command, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == "", captured.err
    assert sorted(tmp_path.iterdir()) == made
    assert not any(p.is_file() for p in tmp_path.rglob("*"))


# Flags each command takes besides its SETTINGS; the first is required.
_COMMAND_FLAGS = {"preamble": ["--out"], "fig1": ["--out"], "fig2": ["--out", "--paper"],
                  "estimate": ["--in"]}


def _parse_corpus():
    for command, flags in _COMMAND_FLAGS.items():
        required = [flags[0], "x"]
        for key in SETTINGS[command]:
            yield [command, _flag(key), "3", *required]
            yield [command, *required, _flag(key), "3"]
        yield [command, "--config", "run.conf", *required]
        yield [command, *flags[1:], *required]
        yield [command]
        yield [command, "-h"]
        yield [command, *required, "--help"]
        yield [command, "--tri", "1", *required]
        yield [command, "--bogus", "1", *required]
        yield [command, "--bogus", "1"]
        yield [command, *required, "stray"]
        yield [command, "--version", *required]
        yield [command, *required, "--"]
        yield [command, "--", *required]
        yield [command, *required, "--", "--n", "64"]
        yield [command, *required, required[0], "y"]
    yield from ([], ["-h"], ["--help"], ["--version"], ["--version", "fig2"], ["-h", "estimate"],
                ["fig"], ["fig", "--out", "x"], ["bogus"], ["bogus", "--n", "64"], ["FIG2"],
                ["--bogus", "fig2", "--out", "x"], ["--", "fig2", "--out", "x"], ["--"],
                ["fig2", "--n"], ["fig2", "--n", "--trials", "3", "--out", "x"],
                ["estimate", "--n", "64"], ["estimate", "--in"],
                ["fig1", "--cfo", "-1e1", "--out", "x"], ["fig1", "--cfo=-1e1", "--out", "x"],
                ["fig2", "--snr-grid", "-4:2:0", "--out", "x"],
                ["fig2", "--snr-grid", "-4:2:0", "--snr-grid", "0", "--out", "x"],
                ["fig2", "--paper", "--n", "64", "--config", "run.conf", "--out", "x"],
                ["fig2", "--paper=1", "--out", "x"], ["estimate", "--in=x", "-n", "64"],
                ["fig1", "--out", "-x.csv"], ["fig1", "--out=-x.csv"], ["estimate", "--in", "-cap.iq"])


def _outcome(parse, argv):
    """What parse(argv) gives: its namespace's vars() or its exit code, then its stdout and stderr.

    vars() is what argparse.Namespace equality compares, and main's parse
    gives argparse's Namespace or, without argparse, a SimpleNamespace.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", list(_parse_corpus()), ids=" ".join)
def test_parse_dispatch_matches_the_top_level_parse(argv):
    """main's parse gives what the top-level parser's parse_args gives, on every argv.

    The same attributes, or the same exit code with byte-identical stdout and
    stderr: help, version, usage errors and leftover tokens included.
    """
    reference = _outcome(lambda a: build_parser().parse_args(_join_values(a)), argv)
    assert _outcome(_parse_argv, argv) == reference


# Values a drawn flag may take: plain ones, and ones argparse may read apart
# from a plain value (empty, a leading '-' or '--', an '=').
_PLAIN_VALUES = ["3", "x", "a b"]
_ODD_VALUES = ["", "-1", "-x", "--x", "--", "a=b", "=", "--n=64"]


def _drawn_argv(command):
    """Token lists for command: its flags as '--flag value', '--flag=value' or bare, and strays.

    Half the lists hold only flags with their values and the required flag,
    in any order, so that both paths of _parse_argv see many examples.
    """
    flags = [_flag(key) for key in SETTINGS[command]] + ["--config", *_COMMAND_FLAGS[command]]
    value = st.one_of(st.sampled_from(_PLAIN_VALUES), st.sampled_from(_ODD_VALUES))
    pair = st.tuples(st.sampled_from(flags), value)
    spaced, joined = pair.map(list), pair.map(lambda fv: [f"{fv[0]}={fv[1]}"])
    required = [_COMMAND_FLAGS[command][0], "x"]
    stray = st.sampled_from(["--", "-h", "--bogus", "stray", "--paper", "--paper=1"])
    any_items = st.lists(st.one_of(spaced, joined, st.just(required),
                                   st.sampled_from(flags).map(lambda flag: [flag]),
                                   stray.map(lambda token: [token])), max_size=6)
    flag_items = st.lists(st.one_of(spaced, joined), max_size=5).flatmap(
        lambda items: st.permutations([*items, required]))
    return st.one_of(any_items, flag_items).map(lambda items: [command, *sum(items, [])])


@pytest.mark.parametrize("command", list(_COMMAND_FLAGS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parse_matches_the_top_level_parse_on_drawn_argv(command, data):
    """main's parse gives what parse_args gives on argv drawn from every flag and form.

    The same attributes, or the same exit code, stdout and stderr, whichever
    path _parse_argv takes.
    """
    argv = data.draw(_drawn_argv(command))
    reference = _outcome(lambda a: build_parser().parse_args(_join_values(a)), argv)
    assert _outcome(_parse_argv, argv) == reference


def test_the_benchmark_argv_is_read_without_argparse(monkeypatch):
    """Well-formed argv never reaches argparse: a silent fallback would be correct but slow."""
    shapes = (["estimate", "--in", "cap.iq", "--n", "1024"],
              ["fig2", "--paper", "--estimators", "proposed", "--trials", "1", "--seed", "1048576",
               "--out", "fig2.csv"])
    expected = [vars(build_parser().parse_args(_join_values(argv))) for argv in shapes]

    def no_argparse(*args, **kwargs):
        raise AssertionError("argparse parsed well-formed argv")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", no_argparse)
    assert [vars(_parse_argv(argv)) for argv in shapes] == expected


_ENGINE = ("cfolab.simlab", "cfolab.channel", "cfolab.sca")


# argv that argparse rejects with exit 2; every other argv below exits 0.
_USAGE_ERRORS = (["estimate", "--in", "x", "--bogus"], ["preamble", "--out"],
                 ["fig2", "--n", "64", "--out"])


@pytest.mark.parametrize("argv,absent", [
    (["estimate", "--in", "cap.iq", "--n", "1024"], ("argparse", *_ENGINE)),
    (["preamble", "--n", "1024", "--out", "pre.iq"], ("argparse", *_ENGINE)),
    (["fig2", "--paper", "--estimators", "proposed", "--trials", "1", "--seed", "1048576",
      "--out", "fig2.csv"], ("argparse",)),
    (["--version"], _ENGINE),
    *((argv, _ENGINE) for argv in _USAGE_ERRORS),
    (["fig2", "--help"], _ENGINE),
])
def test_a_fresh_process_loads_only_what_its_command_runs(tmp_path, argv, absent):
    """cli.main on argv, in a fresh process, exits as it should and imports no module of absent.

    Well-formed argv never needs argparse, and estimate and preamble never
    run the sweep engine: each would only add to a fresh process's start-up.
    Help and usage errors load argparse, and no command's help or flags
    load the engine, fig2's included.
    """
    write_iq(tmp_path / "cap.iq", _preamble_for(1024, 2, 8, 16).frame.samples)
    script = ("import sys\nfrom cfolab import cli\ntry:\n    code = cli.main(sys.argv[1:])\n"
              "except SystemExit as exc:\n    code = exc.code\nprint(code, *sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                            cwd=tmp_path, env=env)
    assert result.returncode == 0, result.stderr
    code, *loaded = result.stdout.splitlines()[-1].split()
    assert code == ("2" if argv in _USAGE_ERRORS else "0") and "cfolab.cli" in loaded
    assert sorted(set(absent) & set(loaded)) == []
    assert ("argparse" in loaded) == ("argparse" not in absent)


@pytest.mark.parametrize("argv,flag", [
    (["fig2", "--n", "64", "--trials", "1", "--snr-grid=--", "--out", "x.csv"], "--snr-grid"),
    (["fig1", "--out=--"], "--out"),
    (["estimate", "--in=--"], "--in"),
    (["fig1", "--config=--", "--out", "y.csv"], "--config"),
])
def test_a_flag_given_the_value_double_dash_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, flag):
    """argparse may store --flag=-- as [] (Python 3.11 does): main rejects it and writes nothing."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {flag}: expected a value, got '--'"]
    assert captured.out == "" and list(tmp_path.iterdir()) == []
