"""The names the package exports."""

import cmzv

# public names deleted because nothing but their tests called them
DELETED = (
    "qsum_half_numeric",
    "evaluate_colored_row",
    "reversal_relations_colored",
    "linear_shuffle_relations",
    "exact_relation_rank",
)


def test_every_exported_name_resolves():
    assert len(cmzv.__all__) == len(set(cmzv.__all__))
    for name in cmzv.__all__:
        assert hasattr(cmzv, name), name
    assert not set(DELETED) & set(cmzv.__all__)
    assert not any(hasattr(cmzv, name) for name in DELETED)
