import sys
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avoid1342 import (
    DomainError,
    InvalidTreeError,
    LabeledPlaneTree,
    ShapeFlags,
    Permutation,
    ResourceLimitError,
    TreeParseError,
    catalan,
    classify_shape,
    count_avoiders,
    count_beta01,
    generate_all_beta01,
    indecomposable_count,
    iter_shapes,
    iter_valid_labelings,
    normalize_tree,
    parse,
    path_shape,
    postorder_positions,
    serialize,
    subtree_size,
    validate_beta01,
)
from conftest import unrank
from oracles import oracle_is_valid_labeling, oracle_labelings, oracle_shapes, oracle_tree_text

#: tree counts on 1..8 nodes, pinned from exhaustive generation and confirmed
#: by the x^n coefficients of the closed-form series (see test_series)
TREE_COUNTS = [1, 1, 3, 12, 56, 288, 1584, 9152]


def test_negative_label_rejected():
    with pytest.raises(InvalidTreeError):
        LabeledPlaneTree(-1)


@pytest.mark.parametrize("label", [True, False, 1.5, 0.0, "0", None])
def test_label_that_is_not_int_rejected(label):
    with pytest.raises(InvalidTreeError):
        LabeledPlaneTree(label)
    with pytest.raises(InvalidTreeError):
        LabeledPlaneTree(label, (LabeledPlaneTree(0),))


@pytest.mark.parametrize("children",
                         ["ab", [0], (LabeledPlaneTree(0), None), [[LabeledPlaneTree(0)]]])
def test_child_that_is_not_a_tree_rejected(children):
    # such a node was built, serialize wrote 0(a b), and parse refused that text
    with pytest.raises(InvalidTreeError, match="is not a tree"):
        LabeledPlaneTree(0, children)


def test_children_stored_as_a_tuple():
    tree = LabeledPlaneTree(0, [LabeledPlaneTree(0)])
    assert tree.children == (LabeledPlaneTree(0),) and tree == parse("0(0)")
    assert hash(tree) == hash(parse("0(0)"))


def test_validate_examples():
    assert validate_beta01(parse("0(0 0)")) is True
    assert validate_beta01(parse("1(0)")) is False   # root must equal child sum
    assert validate_beta01(parse("0")) is True
    assert validate_beta01(parse("1")) is False      # single node is a root: label 0
    assert validate_beta01(parse("0(1 0)")) is False  # leaf labels must be 0
    assert validate_beta01(parse("1(1(0))")) is True
    assert validate_beta01(parse("2(2(0))")) is False  # internal label > 1 + child sum


def test_parse_examples():
    tree = parse("3(3(1(0) 1(0)))")
    assert tree.label == 3
    assert [node.label for node in postorder_positions(tree)] == [0, 1, 0, 1, 3, 3]
    shape = parse("0(0(0(0) 0(0)))")
    assert subtree_size(shape) == 6
    assert classify_shape(shape).all_zero_labels


def test_serialize_inverts_parse():
    for text in ["0", "0(0 0)", "3(3(1(0) 1(0)))", "0(0(0(0) 0(0)))", "10(10(0 0 0))"]:
        assert serialize(parse(text)) == text


def test_parse_serialize_roundtrip_all_generated_trees():
    for n in range(1, 9):
        for tree in generate_all_beta01(n):
            assert parse(serialize(tree)) == tree


#: the reason each malformed text below is refused with
PARSE_REASONS = {
    "": "expected a label",
    "1(1(0)": "expected ')' or ' '",
    "01": "leading zero in label",
    "0(0  0)": "expected a label",
    "0(0 0) ": "trailing input",
    "0(0 0))": "trailing input",
    "-1": "expected a label",
    "0(  )": "expected a label",
}


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),             # empty input
        ("1(1(0)", 6),       # unclosed parenthesis
        ("01", 0),           # leading zero
        ("0(0  0)", 4),      # double space: second sibling starts with a space
        ("0(0 0) ", 6),      # trailing whitespace
        ("0(0 0))", 6),      # trailing junk
        ("-1", 0),           # negative label
        ("0(  )", 2),
    ],
)
def test_parse_error_positions(text, position):
    with pytest.raises(TreeParseError) as err:
        parse(text)
    reason = PARSE_REASONS[text]
    assert (err.value.position, err.value.reason) == (position, reason)
    assert str(err.value) == f"{reason} (at position {position})"


@pytest.mark.parametrize(
    "text,position",
    [
        ("\u0663(\u0663(0))", 0),  # Arabic-Indic three
        ("\u00b2", 0),              # superscript two
        ("0(\uff11)", 2),           # full-width one
    ],
)
def test_parse_accepts_only_ascii_digits(text, position):
    with pytest.raises(TreeParseError) as err:
        parse(text)
    assert (err.value.position, err.value.reason) == (position, "expected a label")


@pytest.mark.parametrize("text,position", [("7" * 4301, 0), ("0(0 " + "1" * 5000 + ")", 4)],
                         ids=["root", "second-child"])
def test_parse_reports_a_label_past_the_digit_limit(text, position):
    # Python refuses int() on a run of more than 4 300 digits by default
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(TreeParseError) as err:
            parse(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.value.position == position


def test_postorder_contract():
    nodes = postorder_positions(parse("0(0 0)"))
    assert [node.label for node in nodes] == [0, 0, 0]
    assert not nodes[0].children and not nodes[1].children
    assert len(nodes[2].children) == 2  # root comes last


def test_postorder_subtree_contiguity():
    # every node's subtree occupies exactly the positions ending at its own
    for tree in generate_all_beta01(6):
        nodes = postorder_positions(tree)
        spans = {}

        def collect(node):
            size = 1
            for c in node.children:
                size += collect(c)
            spans[id(node)] = size
            return size

        collect(tree)
        for i, node in enumerate(nodes, start=1):
            size = spans[id(node)]
            sub_nodes = postorder_positions(node)
            assert nodes[i - size: i] == sub_nodes
        assert nodes[-1] is tree


def test_normalize_tree():
    assert serialize(normalize_tree(parse("3(3(1(0) 1(0)))"))) == "0(0(0(0) 0(0)))"
    assert serialize(normalize_tree(parse("0"))) == "0"
    t = parse("2(2(1(0)))")
    assert normalize_tree(normalize_tree(t)) == normalize_tree(t)


def test_classify_shape():
    assert classify_shape(parse("0(0(2(1(0))))")).single_path is True
    flags = classify_shape(parse("0(0 0)"))
    assert flags.single_path is False
    assert flags.all_zero_labels is True
    assert classify_shape(parse("1(1(0))")).all_zero_labels is False


def test_generate_counts():
    for n, expected in enumerate(TREE_COUNTS[:7], start=1):
        assert sum(1 for _ in generate_all_beta01(n)) == expected


def test_generate_n3_exact_set():
    assert {serialize(t) for t in generate_all_beta01(3)} == {"0(0(0))", "1(1(0))", "0(0 0)"}


def test_generate_all_valid_and_distinct():
    for n in range(1, 7):
        seen = set()
        for tree in generate_all_beta01(n):
            assert subtree_size(tree) == n
            assert validate_beta01(tree)
            text = serialize(tree)
            assert text not in seen
            seen.add(text)


def test_generate_deterministic():
    first = [serialize(t) for t in generate_all_beta01(5)]
    second = [serialize(t) for t in generate_all_beta01(5)]
    assert first == second


def test_generate_edge_cases():
    assert list(generate_all_beta01(0)) == []
    assert [serialize(t) for t in generate_all_beta01(1)] == ["0"]
    with pytest.raises(ResourceLimitError):
        next(generate_all_beta01(13))
    with pytest.raises(DomainError):
        next(generate_all_beta01(-1))


def test_zero_label_tree_count_is_catalan():
    # all-zero trees are exactly the shapes
    for n in range(1, 11):
        assert sum(1 for _ in iter_shapes(n)) == catalan(n - 1)
    # 5 such trees on 4 nodes
    assert sum(1 for _ in iter_shapes(4)) == 5


def test_single_path_tree_count_is_catalan():
    for n in range(1, 11):
        labelings = iter_valid_labelings(path_shape(n))
        assert sum(1 for _ in labelings) == catalan(n - 1)
    with pytest.raises(InvalidTreeError, match="at least one node"):
        path_shape(0)


def test_parse_rejects_whitespace_variants():
    with pytest.raises(TreeParseError):
        parse("0( 0)")
    with pytest.raises(TreeParseError):
        parse("0 (0)")


def test_repr_is_the_parse_call():
    assert repr(parse("1(1(0))")) == "parse('1(1(0))')"
    assert eval(repr(parse("3(3(1(0) 1(0)))")), {"parse": parse}) == parse("3(3(1(0) 1(0)))")


def test_equal_trees_hash_alike_and_distinct_trees_differ():
    # every shape's all-zero labeling is also generated, as a separate object
    trees = list(generate_all_beta01(6)) + list(iter_shapes(6))
    assert len(set(trees)) == TREE_COUNTS[5]
    assert parse("0(0 0)") != parse("0(0(0))")
    assert parse("0") != "0"


def test_deep_path_needs_no_recursion():
    n = 10_000
    assert n > sys.getrecursionlimit()
    tree = path_shape(n)
    back = parse(serialize(tree))
    assert back == tree and hash(back) == hash(tree) and repr(back) == repr(tree)
    assert back != path_shape(n - 1)
    assert validate_beta01(back)
    assert subtree_size(back) == n
    assert normalize_tree(back) == tree
    assert classify_shape(back).single_path
    comb = "0(0 " * n + "0" + ")" * n  # a leaf beside every node of a deep path
    assert serialize(parse(comb)) == comb


def test_serialize_is_linear_on_a_deep_path():
    n = 200_000
    tree = path_shape(n)
    start = time.perf_counter()
    text = serialize(tree)
    elapsed = time.perf_counter() - start
    assert text == "0(" * (n - 1) + "0" + ")" * (n - 1)
    assert elapsed < 1.0, f"serialize took {elapsed:.2f} s on a {n}-node path"


def test_generation_order_matches_the_recursive_oracle():
    # the order of ``generate trees`` is part of its output bytes
    for n in range(0, 10):
        shapes = oracle_shapes(n)
        assert [serialize(t) for t in iter_shapes(n)] == [oracle_tree_text(s) for s in shapes]
        expected = [oracle_tree_text(t) for s in shapes for t in oracle_labelings(s)]
        assert [serialize(t) for t in generate_all_beta01(n)] == expected


def test_generators_need_no_recursion():
    n = 2000
    assert n > sys.getrecursionlimit()
    shapes = iter_shapes(n)
    leaf = LabeledPlaneTree(0)
    assert next(shapes) == LabeledPlaneTree(0, (leaf,) * (n - 1))
    assert next(shapes) == LabeledPlaneTree(0, (leaf,) * (n - 3) + (LabeledPlaneTree(0, (leaf,)),))
    labelings = iter_valid_labelings(path_shape(n))
    assert next(labelings) == path_shape(n)
    second = next(labelings)
    assert [node.label for node in postorder_positions(second)] == [0] * (n - 2) + [1, 1]


def _preorder_children(shape):
    """Children by pre-order index of a nested shape; the root is index 0."""
    children = []
    stack = [(shape, None)]
    while stack:
        (_, kids), parent = stack.pop()
        if parent is not None:
            children[parent].append(len(children))
        parent = len(children)
        children.append([])
        stack.extend((kid, parent) for kid in reversed(kids))
    return children


def _labels(tree):
    return [node.label for node in postorder_positions(tree)]


def test_validate_matches_the_oracle_on_every_small_labeling():
    # labels 0..3 on every shape of at most 6 nodes, most of them invalid; the
    # accepted trees are exactly the generated ones with labels up to 3, which
    # is all of them up to 5 nodes (a 6-node path needs a label 4)
    for n in range(1, 7):
        accepted = set()
        for shape in oracle_shapes(n):
            children = _preorder_children(shape)
            for labels in product(range(4), repeat=n):
                built = [None] * n
                for k in range(n - 1, -1, -1):
                    built[k] = LabeledPlaneTree(labels[k], tuple([built[c] for c in children[k]]))
                valid = validate_beta01(built[0])
                assert valid == oracle_is_valid_labeling(labels, children), (labels, children)
                if valid:
                    accepted.add(built[0])
        generated = set(generate_all_beta01(n))
        assert accepted == {t for t in generated if max(_labels(t)) <= 3}
        if n <= 5:
            assert len(accepted) == TREE_COUNTS[n - 1]


def test_count_matches_the_stream():
    for n in range(0, 11):
        assert count_beta01(n) == sum(1 for _ in generate_all_beta01(n)), n
    assert [count_beta01(n) for n in range(1, 9)] == TREE_COUNTS


def test_count_matches_the_closed_form_to_60():
    for n in range(2, 61):
        assert count_beta01(n, ceiling=60) == indecomposable_count(n), n


@pytest.mark.parametrize("n,ceiling", [(13, 12), (9, 8), (1, 0), (-1, 12), (0, -1)])
def test_count_refuses_what_the_stream_refuses(n, ceiling):
    error = DomainError if n < 0 else ResourceLimitError
    with pytest.raises(error) as stream:
        next(generate_all_beta01(n, ceiling=ceiling))
    with pytest.raises(error) as count:
        count_beta01(n, ceiling=ceiling)
    assert (type(count.value), str(count.value)) == (type(stream.value), str(stream.value))


def test_negative_n_is_a_domain_error_as_in_perms():
    with pytest.raises(DomainError) as avoiders:
        count_avoiders(-1, Permutation.from_text("1342"))
    with pytest.raises(DomainError) as count:
        count_beta01(-1)
    with pytest.raises(DomainError) as stream:
        next(generate_all_beta01(-1, ceiling=0))
    with pytest.raises(DomainError) as shapes:  # at the first next(), as the stream refuses
        next(iter_shapes(-1))
    assert (str(count.value) == str(stream.value) == str(avoiders.value) == str(shapes.value)
            == "n must be nonnegative, got -1")


def test_unrank_names_every_tree_once():
    # so a uniform rank gives an exactly uniform tree
    for n in range(1, 8):
        ranked = [serialize(unrank(n, r)) for r in range(count_beta01(n))]
        assert sorted(ranked) == sorted(serialize(t) for t in generate_all_beta01(n))
    for r in (-1, 3):
        with pytest.raises(ValueError):
            unrank(3, r)


# ---------------------------------------------------------------- error contract

sizes = st.integers(-2, 7)
ceilings = st.integers(-1, 8)
#: trees of at most 7 nodes, labels 0..3, so valid and invalid labelings both occur
trees = st.recursive(st.builds(LabeledPlaneTree, st.integers(0, 3)),
                     lambda kids: st.builds(LabeledPlaneTree, st.integers(0, 3),
                                            st.lists(kids, min_size=1, max_size=3)),
                     max_leaves=4).filter(lambda tree: subtree_size(tree) <= 7)
labels = st.one_of(st.integers(-2, 3), st.booleans(), st.floats(0, 2), st.text("0", max_size=1))
#: children of any kind: trees, and values that are not trees
children = st.lists(st.one_of(trees, labels, st.none(), st.text(max_size=2),
                              st.lists(trees, max_size=1)), max_size=3)

#: each public function of ``trees``, with strategies for its arguments and its documented errors
CONTRACT = [
    (LabeledPlaneTree, (labels, children), InvalidTreeError),
    (parse, (st.one_of(st.text("0123456789() \u0661", max_size=12), trees.map(serialize)),),
     TreeParseError),
    (path_shape, (sizes,), InvalidTreeError),
    (lambda n: list(iter_shapes(n)), (sizes,), DomainError),
    (lambda n, ceiling: list(generate_all_beta01(n, ceiling=ceiling)), (sizes, ceilings),
     (DomainError, ResourceLimitError)),
    (lambda n, ceiling: count_beta01(n, ceiling=ceiling), (sizes, ceilings),
     (DomainError, ResourceLimitError)),
    (lambda shape: list(iter_valid_labelings(shape)), (trees,), ()),
    (ShapeFlags, (st.booleans(), st.booleans()), ()),
] + [(function, (trees,), ()) for function in (
    postorder_positions, subtree_size, validate_beta01, serialize, normalize_tree, classify_shape)]


@st.composite
def contract_calls(draw):
    function, arguments, errors = draw(st.sampled_from(CONTRACT))
    return function, tuple(draw(argument) for argument in arguments), errors


@settings(max_examples=200, deadline=None)
@given(contract_calls())
def test_trees_returns_or_refuses_by_its_documented_errors(call):
    function, arguments, errors = call
    try:
        function(*arguments)
    except errors:
        pass
