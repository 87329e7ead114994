"""The package namespace: each public name is declared once, in its layer's
``__all__``, and the package re-exports the four layers' names."""

import decoyqkd
from decoyqkd import bounds, model, optimizer, simulator

LAYERS = (model, bounds, simulator, optimizer)


def test_all_is_the_layers_all():
    assert decoyqkd.__all__ == [name for layer in LAYERS for name in layer.__all__]


def test_every_listed_name_resolves():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(decoyqkd, name) is getattr(layer, name)
