"""The partition core against the naive oracle, its cost in partitions, and
the metric properties that no acceptance criterion states.

Class scores are compared with the oracle by ``==``: the partition and the
regrouping oracle in ``naive_metrics.py`` sum each class's entropy terms with
``math.fsum``, which rounds once whatever their order, so any difference is a
defect. The conditional entropy, and the rate derived from it, are compared
within ``TOL``: the partition's closed form and the oracle's per-class sum are
equal in the reals but round differently in the last bits.
"""

import gc
import itertools
import json
import math
import random
import sys
from array import array
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import naive_metrics as naive
from conftest import TOL, heap, qi, sens, tables
from reident_risk import metrics
from reident_risk.engine import (
    DEFAULT_EXPLOITABILITY_MATRIX,
    DEFAULT_RISK_MATRIX,
    AssessmentOptions,
    assess,
    build_combinations,
)
from reident_risk.metrics import Partition, _key_blocks, band
from reident_risk.model import Dataset
from reident_risk.report import to_json, to_markdown


def _split_names(d):
    qi = [n for n in d.attributes if n.startswith("q")]
    return qi, [n for n in d.attributes if n.startswith("s")]


def _assert_same_rate(result, expected):
    """A ``DrResult`` against the oracle's (H(S), H(S|Q), DR): H(S) and the
    band by ``==``, H(S|Q) and DR within ``TOL``."""
    h_s, h_s_given_qi, dr = expected
    assert result.h_s == h_s
    assert math.isclose(result.h_s_given_qi, h_s_given_qi, rel_tol=0, abs_tol=TOL)
    assert math.isclose(result.dr, dr, rel_tol=0, abs_tol=TOL)
    assert result.inference == band(dr)


def _class_values(partition, sensitive):
    """Per class, the count of each sensitive value code its rows show, as
    ``{class: {code: n}}``, read off either form of ``_joint_counts``, a
    ``Counter``'s keys by ``_pair_scales``. A class that a ``Counter`` leaves
    out must have one row, and is filled from it."""
    joint = partition._joint_counts(sensitive)
    if isinstance(joint, list):
        return {c: {v: n for v, n in enumerate(row) if n} for c, row in enumerate(joint)}
    class_of, codes = partition.class_of, partition.dataset.columns[sensitive].codes
    widths = [memoryview(class_of).itemsize, memoryview(codes).itemsize]
    fields = list(zip(metrics._pair_scales(class_of, codes), widths))
    per_class = {}
    for key, n in joint.items():
        c, v = (key // at % 256**w for at, w in fields)
        per_class.setdefault(c, {})[v] = n
    for c, code in zip(class_of, codes):
        if c not in per_class:
            assert partition.sizes[c] == 1, f"class {c} of {partition.sizes[c]} rows left out"
            per_class[c] = {code: 1}
    return per_class


def _view(partition, sensitive):
    """What ``naive.view`` gives, read off ``partition``."""
    per_sensitive = [
        (
            _class_values(partition, s),
            partition.l_diversity(s),
            partition.class_inference(s),
        )
        for s in sensitive
    ]
    class_of = partition.class_of
    entropies = [partition.conditional_entropy(s) for s in sensitive]
    return partition.sizes, list(class_of), memoryview(class_of).itemsize, per_sensitive, entropies


def _assert_same_view(view, expected):
    """``view == expected``, but the conditional entropies within ``TOL``."""
    assert view[:-1] == expected[:-1]
    assert len(view[-1]) == len(expected[-1])
    for h, expected_h in zip(view[-1], expected[-1]):
        assert math.isclose(h, expected_h, rel_tol=0, abs_tol=TOL)


@given(tables(sensitive=(1, 2), rows=(1, 40), values=6), st.data())
@settings(deadline=None)
def test_partition_equals_naive_oracle(table, data):
    d = Dataset(*table)
    qi_names, sensitive_names = _split_names(d)
    qi = data.draw(st.lists(st.sampled_from(qi_names), min_size=1, unique=True))
    p = Partition(d, qi)
    _assert_same_view(_view(p, sensitive_names), naive.view(d, qi, sensitive_names))
    assert p.k_anonymity() == naive.k_anonymity(d, qi)
    for s in sensitive_names:
        _assert_same_rate(p.discrimination_rate(s), naive.discrimination_rate(d, qi, s))


@given(tables(qi=(1, 5), sensitive=(1, 2), rows=(1, 40), values=6), st.data())
@settings(deadline=None)
def test_coarsen_equals_row_pass(table, data):
    d = Dataset(*table)
    qi_names, sensitive_names = _split_names(d)
    fine = Partition(d, data.draw(st.permutations(qi_names)))
    for _ in range(data.draw(st.integers(1, 3))):
        sub = data.draw(st.lists(st.sampled_from(qi_names), min_size=1, unique=True))
        coarse, direct = fine.coarsen(sub), Partition(d, sub)
        assert coarse.qi_set == direct.qi_set
        assert coarse.sizes == direct.sizes
        if coarse._fine_to_class is not None:  # a one-member coarsening maps on first sum
            assert memoryview(coarse._fine_to_class).itemsize == naive.code_width(len(direct.sizes))
        if data.draw(st.booleans()):
            assert coarse.class_of == direct.class_of
        # Counted before class_of is read, the counts come from the source's;
        # a quasi-identifier left out of ``sub`` is counted as a sensitive
        # attribute.
        for s in sensitive_names + [q for q in qi_names if q not in sub]:
            assert _class_values(coarse, s) == _class_values(direct, s)
            assert coarse.conditional_entropy(s) == direct.conditional_entropy(s)
            assert coarse.class_inference(s) == direct.class_inference(s)
        assert coarse.class_of == direct.class_of
    # A coarsening is coarsened by its source, the row pass.
    twice, once = coarse.coarsen(sub[:1]), fine.coarsen(sub[:1])
    assert twice._fine in (None, fine) and twice.qi_set == once.qi_set
    others = sensitive_names + [q for q in qi_names if q != sub[0]]
    assert _view(twice, others) == _view(once, others)


@given(
    st.integers(1, 700),
    st.lists(st.integers(1, 40), min_size=2, max_size=5),
    st.integers(0, 2**32),
    st.lists(st.integers(0, 4), min_size=1, unique=True),
)
@example(700, [40, 40, 40], 1, [0, 1])
@example(100, [40, 40], 1, [0, 1])  # 100 rows of about 97 classes: lone rows left out
@settings(deadline=None, max_examples=50)
def test_coarse_pairs_summed_equal_pairs_counted_from_rows(rows, sizes, seed, positions):
    """A coarsening's counts per class, summed from its source's lists or
    counted in a pass over the rows (the choice forced both ways), are the
    same and a row pass's; the coarsening keeps the members at the positions
    ``positions`` draws. Up to 700 rows over columns of up to 40 values give
    up to 700 classes."""
    rng = random.Random(seed)
    names = tuple(f"q{i}" for i in range(len(sizes)))
    table = [
        tuple(f"v{rng.randrange(size)}" for size in sizes) + (rng.choice("xyz"),)
        for _ in range(rows)
    ]
    d = Dataset(names + ("s0",), table)
    members = tuple(dict.fromkeys(names[i % len(names)] for i in positions))
    # A quasi-identifier left out of the coarsening is read as sensitive.
    sensitive = ["s0"] + [q for q in names if q not in members]

    def counts(dense_cells):
        with mock.patch.object(metrics, "_DENSE_CELLS_PER_ROW", dense_cells):
            partition = Partition(d, names).coarsen(members)
            form = list if dense_cells else Counter
            assert all(isinstance(partition._joint_counts(s), form) for s in sensitive)
            return [_class_values(partition, s) for s in sensitive]

    from_rows, summed = counts(0), counts(math.inf)
    assert from_rows == summed
    assert summed == [_class_values(Partition(d, members), s) for s in sensitive]


def _lone_row_count(partition, joint):
    """How ``joint``, a partition's counts, left out rows alone in their
    class: ``"all"`` when every row is, ``"some"`` when it counts fewer rows
    than the table has, else None."""
    if not isinstance(joint, Counter):
        return None
    rows = partition.dataset.row_count
    if len(partition.sizes) == rows:
        assert not joint
        return "all"
    return "some" if sum(joint.values()) < rows else None


@pytest.mark.parametrize(
    "qi_rows, way",
    [
        # Every class one row: no pair is counted.
        ([("a", "x"), ("b", "y"), ("c", "x"), ("d", "z")], "all"),
        # 8 of 10 rows alone, and an impure class of 2: only its rows count.
        ([(f"k{i}", "xyz"[i % 3]) for i in range(8)] + [("k8", "x"), ("k8", "y")], "some"),
        # 70 of 100 rows alone, the others in classes of 3.
        (
            [(f"k{i}" if i < 70 else f"g{(i - 70) // 3}", "xy"[i % 2]) for i in range(100)],
            "some",
        ),
    ],
)
def test_lone_rows_left_out_of_counts(qi_rows, way):
    d = Dataset(("q0", "s0"), qi_rows)
    p = Partition(d, ["q0"])
    joint = p._joint_counts("s0")
    assert _lone_row_count(p, joint) == way
    assert sum(joint.values()) == sum(size for size in p.sizes if size > 1)
    _assert_partitions_equal_oracle(d, [("q0",)], ["s0"])
    _assert_same_rate(p.discrimination_rate("s0"), naive.discrimination_rate(d, ["q0"], "s0"))
    assert p.l_diversity("s0") == 1


def test_oracle_properties_reach_both_lone_row_counts():
    """The oracle properties above reach both ways of leaving out the rows
    alone in their class: a partition with no other rows counts none, and one
    with enough of them counts only the rest (an explicit example of
    ``test_coarse_pairs_summed_equal_pairs_counted_from_rows`` does)."""
    ways = Counter()
    with _spy("_joint_counts", lambda p, _, joint: ways.update([_lone_row_count(p, joint)])):
        test_partition_equals_naive_oracle()
        test_coarsen_equals_row_pass()
        test_coarse_pairs_summed_equal_pairs_counted_from_rows()
    assert ways["all"] and ways["some"], ways


def _wide_table(rows, seed):
    """13 quasi-identifiers of 40 values each, then a sensitive column. After
    40 rows that show every value, each row repeats an earlier one, differs
    from it in its first or last two columns (in the first and the last
    8-byte word of its key), or is new."""
    rng = random.Random(seed)
    table = [[f"v{(i + 3 * c) % 40}" for c in range(13)] + ["A"] for i in range(40)]
    while len(table) < rows:
        row = list(rng.choice(table))
        if rng.random() < 0.5:
            row[rng.choice([0, 1, 11, 12])] = f"v{rng.randrange(40)}"
        elif rng.random() < 0.5:
            row = [f"v{rng.randrange(40)}" for _ in range(13)] + [row[-1]]
        row[-1] = rng.choice("ABCDE") if rng.random() < 0.3 else row[-1]
        table.append(row)
    names = tuple(f"q{i}" for i in range(13)) + ("s0",)
    return Dataset(names, map(tuple, table))


def _assert_partitions_equal_oracle(d, members, sensitive=()):
    """A row pass over ``members[0]`` and its coarsening to each later member
    set keep the members in order and give the oracle's view, and a
    coarsening's class map, once made, takes the bytes of its ``class_of``;
    returns them."""
    full = Partition(d, members[0])
    partitions = [full, *map(full.coarsen, members[1:])]
    for partition, qi_set in zip(partitions, members):
        assert partition.qi_set == tuple(qi_set)
        _assert_same_view(_view(partition, sensitive), naive.view(d, qi_set, sensitive))
        if partition._fine_to_class is not None:
            width = memoryview(partition.class_of).itemsize
            assert memoryview(partition._fine_to_class).itemsize == width
    return partitions


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 700])
def test_class_of_is_bytes_up_to_256_classes(rows):
    """Row ``i`` has the cells ``i % 20``, ``i // 20 % 15`` and ``i % 7``, so
    each set of columns has ``min(rows, its period)`` classes: 20, 140, 300
    or 2,100, or fewer. ``class_of`` is bytes exactly when there are at most
    256 classes, for a row pass and for a coarsening of one of either form."""
    names = ("q0", "q1", "q2")
    d = Dataset(names, [(f"{i % 20}", f"{i // 20 % 15}", f"{i % 7}") for i in range(rows)])
    subs = [("q0",), ("q0", "q2"), ("q1", "q2"), ("q0", "q1")]
    _assert_partitions_equal_oracle(d, [names, *subs])
    _assert_partitions_equal_oracle(d, [("q0", "q1")])


def test_keys_past_64_bits_equal_naive_oracle():
    d = _wide_table(300, seed=3)
    qi = [n for n in d.attributes if n.startswith("q")]
    assert all(len(d.columns[q].values) == 40 for q in qi)
    columns = [d.columns[q].codes for q in qi]
    # 12 byte codes pack into two 8-byte words, so keys pass 64 bits.
    for sub in (columns[:12], columns[1:]):
        assert max(itertools.chain.from_iterable(_key_blocks(sub))) >= 2**64
    for partition in _assert_partitions_equal_oracle(d, [qi, qi[:12], qi[1:]], ["s0"]):
        assert sum(size > 1 for size in partition.sizes) > 20


def _widths_table(widths, seed, pool=260, repeats=40):
    """A quasi-identifier ``q<i>`` per entry of ``widths``, then a sensitive
    column. A 1 is a column of one to four values, coded in one byte; a 2 is
    a column of ``pool`` values, past 256, so coded in two. The first
    ``pool`` rows show every value; ``repeats`` rows repeat one of them, some
    with one cell changed, and the rows are shuffled."""
    rng = random.Random(seed)
    domains = [pool if w == 2 else rng.randint(1, 4) for w in widths]
    columns = [
        rng.sample(range(size), pool) if size == pool else [rng.randrange(size) for _ in range(pool)]
        for size in domains
    ]
    table = [[f"v{v}" for v in row] + [rng.choice("xyz")] for row in zip(*columns)]
    for _ in range(repeats):
        row = list(rng.choice(table[:pool]))
        if rng.random() < 0.5:
            c = rng.randrange(len(widths))
            row[c] = f"v{rng.randrange(domains[c])}"
        row[-1] = rng.choice("xyz") if rng.random() < 0.3 else row[-1]
        table.append(row)
    rng.shuffle(table)
    names = tuple(f"q{i}" for i in range(len(widths))) + ("s0",)
    return Dataset(names, map(tuple, table))


@given(
    st.lists(st.sampled_from([1, 2]), min_size=2, max_size=10),
    st.integers(0, 2**32),
    st.lists(st.lists(st.integers(0, 9), min_size=1, unique=True), min_size=1, max_size=2),
)
@example([1] * 8, 0, [[0, 7], [1]])  # one word, full
@example([2] * 4, 1, [[0, 1, 2], [0, 1]])  # one word of two-byte codes
@example([1] * 7, 2, [[0, 6]])  # below a word
@example([1] * 9, 3, [[0, 8], [0]])  # a byte past a word
@example([2, 1, 2, 1, 2], 4, [[0, 1, 2, 3], [1, 3]])  # one word, mixed widths
@example([2] * 5 + [1] * 5, 5, [[0, 9, 4], [0, 1]])
@example([2] * 8 + [1], 6, [[0, 8], [1]])  # a byte past two words
@settings(deadline=None, max_examples=50)
def test_key_widths_equal_naive_oracle(widths, seed, picks):
    """Keys of one- and two-byte codes that fill a 2-, 4- or 8-byte word, or more
    than one 8-byte word, give the oracle's classes, as a row pass and as
    coarsenings of it, each keeping the members at the positions a list in
    ``picks`` draws. What a partition derives from its classes is checked on
    smaller tables above."""
    d = _widths_table(widths, seed)
    names = tuple(f"q{i}" for i in range(len(widths)))
    for q, w in zip(names, widths):
        assert memoryview(d.columns[q].codes).itemsize == w
    full = Partition(d, names)
    _assert_same_view(_view(full, []), naive.view(d, names, []))
    for positions in picks:
        members = tuple(dict.fromkeys(names[i % len(names)] for i in positions))
        _assert_same_view(_view(full.coarsen(members), []), naive.view(d, members, []))


def test_four_byte_codes_equal_naive_oracle():
    """A column of more than 65,536 values is coded in four bytes; with a
    two-byte and three one-byte columns its keys fill two 8-byte words. Each
    partition's classes equal the oracle's."""
    rng = random.Random(5)
    big = 1 << 16 | 100
    rows = [(f"b{i}", f"m{i % 300}", *(rng.choice("ab") for _ in range(3))) for i in range(big)]
    rows += [rows[rng.randrange(big)] for _ in range(3_000)]
    d = Dataset(("big", "mid", "n0", "n1", "n2"), rows)
    assert len(d.columns["big"].values) == big and len(d.columns["mid"].values) == 300
    assert [d.columns[name].codes.typecode for name in ("big", "mid")] == ["I", "H"]
    assert max(itertools.chain(*_key_blocks([c.codes for c in d.columns.values()]))) >= 2**64
    subs = [("big", "n1"), ("mid", "n0", "n2"), ("big",)]
    _assert_partitions_equal_oracle(d, [d.attributes, *subs])


def _classes_table(classes, last_at, rows=800):
    """A table whose columns ``hi``/``lo`` (16 values each) and ``c`` show
    ``classes`` classes. Rows before ``last_at`` cycle through every class
    but the last, which first shows at row ``last_at`` and then every 97th
    row. ``z`` splits each class in two. Of the sensitive columns, ``s0`` has
    3 values and ``s255``, ``s256`` and ``s257`` as many as they are named
    for: row ``i`` shows the value coded ``i % n``."""
    last = classes - 1
    of_row = [i % last if i < last_at or (i - last_at) % 97 else last for i in range(rows)]
    table = [
        (f"h{c // 16}", f"l{c % 16}", f"c{c}", f"z{i % 2}", "xyz"[c * i % 3])
        + tuple(f"v{i % n}" for n in (255, 256, 257))
        for i, c in enumerate(of_row)
    ]
    return Dataset(("hi", "lo", "c", "z", "s0", "s255", "s256", "s257"), table)


@pytest.mark.parametrize(
    "classes, last_at",
    [(255, 254), (255, 512), (256, 255), (256, 256), (256, 513)]
    + [(257, at) for at in (256, 257, 511, 512, 513, 700)],
)
def test_streamed_coder_at_block_and_byte_boundaries(classes, last_at):
    """A row pass codes its keys a block at a time into bytes, which become an
    ``array('H')`` when class 257 shows: in the first row of a block of 256
    rows of one column, in its second, in the last of a block, or within a
    later one. Each partition over the classes, a row pass over two columns or
    one (bytes codes up to 256 classes, 2-byte codes past) or a coarsening,
    equals the oracle's for sensitive columns of 2, 3, 255, 256 and 257
    values, and so does each one-column coarsening of the two-column row pass,
    with the counts kept as lists nowhere and everywhere; only where it sums
    its source's lists does such a coarsening map the source's classes to its
    own. A (class, value) pair of one or two bytes each is keyed in a 2- or
    4-byte word; with 256 classes from row 255 on, the key 0xFFFF is counted."""
    d = _classes_table(classes, last_at)
    assert memoryview(d.columns["c"].codes).itemsize == naive.code_width(classes)
    if classes == 256 == last_at + 1:  # row 255 is the pair (255, 255)
        assert Partition(d, ("hi", "lo")).class_of[255] == d.columns["s256"].codes[255] == 255
    sensitive = ["s0", "z", "s255", "s256", "s257"]
    # hi/lo and c number the same classes in the same order.
    expected = naive.view(d, ("c",), sensitive)
    assert len(expected[0]) == classes
    for dense_cells in (0, math.inf):
        with mock.patch.object(metrics, "_DENSE_CELLS_PER_ROW", dense_cells):
            full = Partition(d, ("hi", "lo"))
            for partition in [
                full,
                Partition(d, ("c",)),
                Partition(d, ("hi", "lo", "z")).coarsen(("hi", "lo")),
                Partition(d, ("c", "z")).coarsen(("c",)),
            ]:
                _assert_same_view(_view(partition, sensitive), expected)
            for name in ("hi", "lo"):
                coarse = full.coarsen((name,))
                _assert_same_view(_view(coarse, ["s0"]), naive.view(d, (name,), ["s0"]))
                assert (coarse._fine_to_class is None) == (dense_cells == 0)


@pytest.mark.parametrize("order", ["little", "big"])
def test_pair_scales_decode_hand_packed_keys(order):
    """A class id and then a code, of 1, 2 or 4 bytes each, packed in a word of
    2, 4 or 8 bytes read in byte ``order``, make the key that ``_pair_scales``
    decodes; in the machine's order, the key that ``_key_blocks`` packs."""
    of_width = {1: bytes, 2: lambda codes: array("H", codes), 4: lambda codes: array("I", codes)}
    for cw, vw in itertools.product(of_width, repeat=2):
        word = 2 if cw + vw <= 2 else 4 if cw + vw <= 4 else 8
        for c, v in [(1, 0), (0, 1), (3, 5), (256**cw - 1, 256**vw - 1)]:
            columns = [of_width[cw]([c]), of_width[vw]([v])]
            a, b = metrics._pair_scales(*columns, order)
            packed = (c.to_bytes(cw, order) + v.to_bytes(vw, order)).ljust(word, b"\0")
            assert int.from_bytes(packed, order) == c * a + v * b
            if order == sys.byteorder:
                assert [*itertools.chain(*_key_blocks(columns))] == [c * a + v * b]


def _rows(*columns):
    """Rows from columns of digits, 0 to 3 read as the letters a to d."""
    return tuple(zip(*[["abcd"[int(d)] for d in column] for column in columns]))


# The rate of q0 for s0 is exactly 1/2, and computes as 0.4999999999999999.
_HALF_RATE = (("q0", "s0"), _rows("03020333", "11101101"))
# Class "a" of q0 holds s0 values a six times and b once, in a 49-row table
# whose s0 counts are 36, 6, 6, 1, the square of the class's: its score is
# exactly 1/2 and computes as 0.4999999999999999.
_HALF_SCORE = (
    ("q0", "s0"),
    _rows("0" * 7 + "1" * 42, "0" * 6 + "1" + "0" * 30 + "1" * 5 + "2" * 6 + "3"),
)
# Ratings by (sensitive attribute, value); those of values a table lacks are dropped.
_RATINGS = st.dictionaries(
    st.tuples(st.sampled_from(["s0", "s1"]), st.sampled_from("abcdef")),
    st.tuples(*[st.integers(1, 4)] * 3),
)


@given(
    tables(qi=(1, 4), sensitive=(1, 2), rows=(2, 40), values=6),
    st.lists(st.integers(1, 4), min_size=4, max_size=4),
    st.sampled_from(["per_level", "cumulative"]),
    _RATINGS,
)
@example(_HALF_RATE, [4, 4, 4, 4], "per_level", {})
@example(_HALF_SCORE, [4, 4, 4, 4], "per_level", {})
@settings(deadline=None)
def test_assess_equals_naive_oracle(table, exposures, strategy, ratings):
    """The report against the oracle. Every level is the band of the exact
    rate or class score, as ``naive.exact_level`` decides it with big-int
    powers: a float can land one ulp below a band boundary that the exact
    value reaches, as in the two examples, where every record is flagged."""
    d = Dataset(*table)
    qi_names, sensitive_names = _split_names(d)
    # The attribute's own rating has global severity 3, at the flag threshold;
    # a value may override it with any rating, so it may fall below.
    overrides = {
        s: {v: r for (t, v), r in ratings.items() if t == s and v in d.columns[s].values}
        for s in sensitive_names
    }
    meta = [qi(n, e) for n, e in zip(qi_names, exposures)]
    meta += [sens(n, (1, 2, 3), overrides[n]) for n in sensitive_names]
    options = AssessmentOptions(combination_strategy=strategy)
    report = assess(d, meta, options)

    appendix = report.metrics_appendix
    assert appendix.k_anonymity == naive.k_anonymity(d, qi_names)
    assert [e.l_value for e in appendix.l_diversity] == [
        naive.distinct_l_diversity(d, qi_names, s) for s in sensitive_names
    ]
    for r in (row.dr for row in report.exploitability_rows):
        _assert_same_rate(r, naive.discrimination_rate(d, r.qi_set, r.sensitive))
        assert r.inference == naive.exact_level(d, r.qi_set, r.sensitive) == band(r.dr)

    # A record is flagged when its value's global severity reaches 3, under
    # the highest-exposure combination (ties: more members, then column order).
    combos = build_combinations(meta, strategy)
    top = min(
        combos,
        key=lambda c: (-int(c.exposure), -len(c.members), [qi_names.index(m) for m in c.members]),
    )
    keys = naive.project(d, top.members)

    def severity(s, value):
        return max(overrides[s].get(value, (1, 2, 3)))

    cells = {s: naive.column(d, s) for s in sensitive_names}
    expected = [
        (s, i) for s in sensitive_names for i, v in enumerate(cells[s]) if severity(s, v) >= 3
    ]
    outcomes = report.outcomes
    records = [(row, outcomes[o]) for row, o in zip(report.flagged_rows, report.flagged_outcome)]
    assert [(outcome.attribute, row) for row, outcome in records] == expected
    triples = [
        (s, naive.value_inference(d, top.members, keys[i], s), cells[s][i]) for s, i in expected
    ]
    # One outcome per distinct (attribute, class score, value), in first-record order.
    assert [(o.attribute, o.class_inference, o.sensitive_value) for o in outcomes] == list(
        dict.fromkeys(triples)
    )
    assert sorted(set(report.flagged_outcome)) == list(range(len(outcomes)))
    for (row, outcome), triple in zip(records, triples):
        assert (outcome.attribute, outcome.class_inference, outcome.sensitive_value) == triple
        assert outcome.value_severity == severity(outcome.attribute, outcome.sensitive_value)
        level = naive.exact_level(d, top.members, outcome.attribute, keys[row])
        assert band(outcome.class_inference) == level
        exploit = DEFAULT_EXPLOITABILITY_MATRIX.lookup(top.exposure, level)
        assert outcome.record_risk == DEFAULT_RISK_MATRIX.lookup(exploit, outcome.value_severity)

    # Both renderings encode each outcome once; every record must still show its own cells.
    document = json.loads(to_json(report))["flagged_records"]
    section = to_markdown(report).split("## Flagged Records\n\n")[1].split("\n\n")[0]
    lines = section.splitlines()[2:]
    assert len(document) == len(lines) == len(records)
    for (row, outcome), cells, line in zip(records, document, lines):
        severity, risk = outcome.value_severity, outcome.record_risk
        score = f"{outcome.class_inference:.6f}"
        assert cells == {
            "row": row + 1,
            "attribute": outcome.attribute,
            "value": outcome.sensitive_value,
            "value_severity": {"label": severity.label, "level": int(severity)},
            "class_inference": score,
            "record_risk": {"label": risk.label, "level": int(risk)},
        }
        assert line == (
            f"| **{row + 1}** | **{outcome.attribute}** | **{outcome.sensitive_value}** "
            f"| **{severity.display}** | **{score}** | **{risk.display}** |"
        )


@given(tables())
@settings(deadline=None)
def test_value_inference_all_one_iff_dr_one(table):
    d = Dataset(*table)
    sensitive = d.attributes[-1]
    qi = list(d.attributes[:-1])
    if len(d.columns[sensitive].values) < 2:
        return
    p = Partition(d, qi)
    scores = p.class_inference(sensitive)
    dr = p.discrimination_rate(sensitive).dr
    assert all(s >= 1.0 - TOL for s in scores) == (abs(dr - 1.0) < TOL)


@given(st.lists(st.integers(1, 50), min_size=1, max_size=10))
@settings(deadline=None)
def test_entropy_bounds_and_uniform_maximum(counts):
    h = metrics._entropy(counts)
    m = len(counts)
    assert -TOL <= h <= math.log2(m) + TOL
    uniform = len(set(counts)) == 1
    assert (abs(h - math.log2(m)) < TOL) == uniform


def _near_unique(rows, seed):
    rng = random.Random(seed)
    table = [
        (
            str(rng.randrange(90)),
            rng.choice("MF"),
            f"{rng.randrange(10000):05d}",
            f"2019-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
            rng.choice(["Colds", "Flu", "HIV", "Cancer", "Diabetes"]),
        )
        for _ in range(rows)
    ]
    return Dataset(
        attributes=("Age", "Gender", "Zip", "Date", "Disease"), rows=tuple(table), source_label="t"
    )


_NEAR_UNIQUE_META = [
    *(qi(n, e) for n, e in {"Age": 4, "Gender": 4, "Zip": 4, "Date": 2}.items()),
    sens("Disease", (1, 2, 4)),
]


def _spy(name, record):
    """Patch ``Partition.<name>`` to pass each call's partition, arguments
    and result to ``record``."""
    method = getattr(Partition, name)

    def spy(self, *args):
        result = method(self, *args)
        record(self, args, result)
        return result

    return mock.patch.object(Partition, name, spy)


def test_partitions_built_bounded_by_member_sets(monkeypatch):
    near_unique, small = _near_unique(2000, seed=5), _near_unique(20, seed=6)
    # Flagging runs under Age/Gender/Zip, where nearly every row is alone.
    assert len(Partition(near_unique, ["Age", "Gender", "Zip"]).sizes) > 1900

    built = []
    construct = Partition.__init__

    def counting(self, dataset, qi_set):
        built.append(tuple(qi_set))
        construct(self, dataset, qi_set)

    monkeypatch.setattr(Partition, "__init__", counting)
    combos = sorted(c.members for c in build_combinations(_NEAR_UNIQUE_META))
    for d in (near_unique, small):
        built.clear()
        calls = []
        with _spy("coarsen", lambda source, args, coarse: calls.append((source, coarse.qi_set))):
            report = assess(d, _NEAR_UNIQUE_META)
        assert len(report.flagged_rows) == d.row_count
        # One row pass, over the full quasi-identifier set, also the k/l
        # appendix's; each combination is coarsened from it once, whatever
        # the number of classes.
        assert built == [("Age", "Gender", "Zip", "Date")]
        assert sorted(qi_set for _, qi_set in calls) == combos
        assert all(source is calls[0][0] and source._fine is None for source, _ in calls)


def test_live_partitions_do_not_grow_with_combinations():
    """Partitions alive when flagging starts: the full one and the top
    combination's, whatever the number of combinations coarsened before."""
    meta, d = _NEAR_UNIQUE_META, _near_unique(300, seed=7)
    # Pairs of the top combination, Age/Gender/Zip, leave it on top.
    pairs = [list(pair) for pair in itertools.combinations(["Age", "Gender", "Zip"], 2)]
    counted = []

    def count(*_):
        counted.append(sum(type(o) is Partition for o in gc.get_objects()))

    live = []
    for explicit in ([], pairs[:1], pairs):
        counted.clear()
        with _spy("class_inference", count):
            report = assess(d, meta, AssessmentOptions(explicit_combinations=explicit))
        assert len(report.exploitability_rows) == len(build_combinations(meta, explicit=explicit))
        live.append(counted[0])
    assert live[0] == live[1] == live[2]


# Per-row budgets of the two row-length phases. A list of ints past the
# cached small ones costs about 40 bytes a row. Measured on Python 3.11, a row
# pass takes 2.5 bytes a row and an assessment that flags every row 11.0.
@pytest.fixture(scope="module")
def budget_table():
    """50,000 rows of 256 classes drawn from three quasi-identifiers of 16
    values each, so most keys are ints past the cached small ones, and a
    sensitive column whose three values are all severe."""
    rng = random.Random(11)
    keys = rng.sample(list(itertools.product(range(16), repeat=3)), 256)
    table = [(*(f"v{v}" for v in rng.choice(keys)), rng.choice("xyz")) for _ in range(50_000)]
    meta = [qi("q0", 4), qi("q1", 4), qi("q2", 4), sens("s0", (4, 4, 4))]
    return Dataset(("q0", "q1", "q2", "s0"), table), meta


def test_row_pass_keeps_no_int_object_per_row(budget_table):
    """A row pass codes its keys a block at a time, into bytes here."""
    d, _ = budget_table
    assert len(Partition(d, ("q0", "q1", "q2")).sizes) == 256
    per_row = heap(lambda: Partition(d, ("q0", "q1", "q2")))[0] / d.row_count
    assert per_row < 8, f"Partition: {per_row:.1f} bytes per row"


def test_wide_keys_keep_no_int_object_per_row():
    """Keys of nine one-byte codes fill two 8-byte words, which are joined
    into ints past 64 bits a block at a time, so a row pass over 256 classes
    keeps to the budget of one whose keys fit a word."""
    rng = random.Random(12)
    names = tuple(f"q{i}" for i in range(9))
    keys: dict[tuple[str, ...], None] = {}
    while len(keys) < 256:
        keys[tuple(f"v{rng.randrange(16)}" for _ in names)] = None
    d = Dataset(names, [rng.choice(list(keys)) for _ in range(50_000)])
    assert len(Partition(d, names).sizes) == 256
    assert max(itertools.chain(*_key_blocks([c.codes for c in d.columns.values()]))) >= 2**64
    per_row = heap(lambda: Partition(d, names))[0] / d.row_count
    assert per_row < 8, f"Partition: {per_row:.1f} bytes per row"


def test_flagged_records_keep_no_int_object_per_row(budget_table):
    """``assess`` keeps flagged records in two arrays of unsigned ints, of
    2 bytes for the table's 50,000 row × sensitive attribute pairs."""
    d, meta = budget_table
    reports = []
    per_row = heap(lambda: reports.append(assess(d, meta)))[0] / d.row_count
    assert len(reports[0].flagged_rows) == d.row_count
    assert reports[0].flagged_rows.itemsize == reports[0].flagged_outcome.itemsize == 2
    assert per_row < 24, f"assess: {per_row:.1f} bytes per row"


def test_pairs_counted_from_rows_keep_no_class_per_row():
    """A near-unique coarsening of several members counts its pairs in a pass
    over the rows that builds its ``class_of`` in 2 bytes a row, so it needs
    little more heap than a row pass whose ``class_of`` is already built: both
    hold a dict of the pairs of the rows not alone, and a list of class ids
    would add at least 36 bytes a row."""
    rng = random.Random(3)
    rows = 20_000
    table = [
        (*(f"v{rng.randrange(60)}" for _ in range(3)), f"w{rng.randrange(3)}", rng.choice("xyz"))
        for _ in range(rows)
    ]
    d = Dataset(("q0", "q1", "q2", "q3", "s0"), table)
    full = Partition(d, ("q0", "q1", "q2", "q3"))
    assert len(full.sizes) * 3 > metrics._DENSE_CELLS_PER_ROW * rows
    coarse, direct = full.coarsen(("q0", "q1", "q2")), Partition(d, ("q0", "q1", "q2"))
    assert len(coarse.sizes) > rows * 0.8 and len(direct.class_of) == rows
    joint = []
    extra = heap(lambda: joint.append(coarse._joint_counts("s0")))[0]
    extra -= heap(lambda: joint.append(direct._joint_counts("s0")))[0]
    assert joint[0] == joint[1]
    assert extra / rows < 4, f"row pass: {extra / rows:.1f} bytes per row above a built class_of"
