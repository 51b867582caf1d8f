"""Exact enumeration of 1342-avoiding permutations and their tree correspondences.

The package provides four layers:

* :mod:`avoid1342.perms` -- permutations, pattern containment, the class
  normalization, and an exhaustive enumeration oracle;
* :mod:`avoid1342.trees` -- labeled plane trees with the leaf/root/internal
  labeling conditions, generation, counting and (de)serialization;
* :mod:`avoid1342.bijections` -- the constructive maps between the two worlds,
  in both directions;
* :mod:`avoid1342.series` / :mod:`avoid1342.counting` -- exact generating
  series, closed forms, recurrences, and cross-checking.

``python -m avoid1342.cli`` (or the ``avoid1342`` script) exposes all of it.

Each public name below resolves on first use (PEP 562), importing only the
layer that defines it, so ``import avoid1342`` loads no layer.
"""
import importlib

_EXPORTS = {
    "bijections": "F_forward F_inverse beats f_forward f_inverse forest_forward forest_inverse "
                  "perm_to_shape reaches shape_to_perm",
    "counting": "CrossCheckReport SequenceReport catalan cross_check indecomposable_count "
                "nth_root_estimate s1234_closed s1234_recurrence s1342_closed "
                "s1342_convolution t_closed t_recurrence",
    "errors": "DomainError IntegralityError InvalidPermutationError InvalidTreeError "
              "ReconstructionError ResourceLimitError TreeParseError",
    "perms": "ClassSignature Permutation compose_blocks contains count_avoiders "
             "count_occurrences decompose is_indecomposable iter_avoiders "
             "left_to_right_minima normalize pattern_of same_class",
    "series": "F_series H_series_division H_series_rational TruncatedSeries "
              "one_minus_8x_pow_3_2 reciprocal scale shift_divide verify_H_algebraic",
    "trees": "LabeledPlaneTree ShapeFlags classify_shape count_beta01 generate_all_beta01 "
             "iter_shapes iter_valid_labelings normalize_tree parse path_shape "
             "postorder_positions serialize subtree_size validate_beta01",
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_EXPORTS, *_LAYER_OF]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _LAYER_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_LAYER_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
