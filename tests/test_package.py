"""The package's export list."""

import inspect

import coarsegen


def test_all_lists_every_public_name():
    """``__all__`` names exactly the public objects the package binds, so an
    export left behind by a removal, or a new name not exported, fails."""
    public = {name for name, obj in vars(coarsegen).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert sorted(coarsegen.__all__) == sorted(public)
    assert len(coarsegen.__all__) == len(set(coarsegen.__all__))
