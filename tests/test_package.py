"""The package's public names and the README's example."""

import re
from pathlib import Path

import cfolab


def test_every_exported_name_resolves():
    assert len(set(cfolab.__all__)) == len(cfolab.__all__)
    missing = [name for name in cfolab.__all__ if not hasattr(cfolab, name)]
    assert missing == []


def test_removed_names_are_not_exported():
    for name in ("decompose_cfo", "CfoDecomposition", "ChannelRealization",
                 "ESTIMATOR_PROPOSED", "ESTIMATOR_SCA", "run_single_frame", "run_sweeps",
                 "PeakReport", "SweepCell", "TrialRecord", "wilson_interval", "ImpairmentSpec",
                 "draw_channel", "CazacParams", "build_preamble"):
        assert name not in cfolab.__all__
        assert not hasattr(cfolab, name)


def test_readme_python_example_runs(capsys):
    """The README's Python example runs as written and recovers its offset."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert capsys.readouterr().out.count("\n") == 2
    assert abs(namespace["est"].total - 20.3) < 0.5
    assert namespace["rx"].taps.shape == (2, 4)
