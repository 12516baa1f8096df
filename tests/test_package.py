"""The package's public names."""

import cfolab


def test_every_exported_name_resolves():
    assert len(set(cfolab.__all__)) == len(cfolab.__all__)
    missing = [name for name in cfolab.__all__ if not hasattr(cfolab, name)]
    assert missing == []


def test_removed_names_are_not_exported():
    for name in ("decompose_cfo", "CfoDecomposition"):
        assert name not in cfolab.__all__
        assert not hasattr(cfolab, name)
