import itertools

import tensorspectra
from tensorspectra import linalg, odeco, spectral, subdiff, tensor, vonneumann

MODULES = (tensor, linalg, spectral, odeco, vonneumann, subdiff)


def test_module_public_names_are_disjoint():
    # the package star-imports every module, so a repeated name would be
    # shadowed silently by the later import
    for first, second in itertools.combinations(MODULES, 2):
        shared = set(first.__all__) & set(second.__all__)
        assert not shared, (first.__name__, second.__name__, shared)


def test_package_names_are_the_module_objects():
    owners = {name: module for module in MODULES for name in module.__all__}
    assert set(tensorspectra.__all__) == set(owners) | {"__version__"}
    assert len(tensorspectra.__all__) == len(set(tensorspectra.__all__))
    for name, module in owners.items():
        assert getattr(tensorspectra, name) is getattr(module, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from tensorspectra import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tensorspectra.__all__)
