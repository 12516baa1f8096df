"""Command-line interface: formats, exit codes, byte-level determinism."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cfolab.cli import _parse_snr_grid, load_config_file, main, read_iq, write_iq


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
    from cfolab.signal import CazacParams, PreambleSpec, build_preamble

    frame = build_preamble(PreambleSpec(CazacParams(64, 2), CazacParams(64, 8), 16))
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


@pytest.mark.parametrize("flag", ["--snr-grid=10:2:0", "--estimators="])
def test_fig2_rejects_a_sweep_without_cells(tmp_path, capsys, flag):
    """An empty SNR grid or estimator list is a usage error, not a header-only CSV."""
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
    with pytest.raises(SystemExit) as exc:
        main(["fig2", "--n", "64", f"--snr-grid={grid}", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --snr-grid" in capsys.readouterr().err
    assert not out.exists()


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
