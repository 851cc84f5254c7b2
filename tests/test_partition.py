"""The partition core against the naive oracle, its cost in partitions, and
the metric properties that no acceptance criterion states.

Class scores are compared with the oracle by ``==``: the partition and the
regrouping oracle in ``naive_metrics.py`` sum each class's entropy terms with
``math.fsum``, which rounds once whatever their order, so any difference is a
defect. The conditional entropy, and the rate derived from it, are compared
within ``TOL``: the partition's closed form and the oracle's per-class sum are
equal in the reals but round differently in the last bits.
"""

import csv
import gc
import io
import itertools
import json
import math
import random
import sys
from array import array
from functools import partial
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import naive_metrics as naive
from conftest import TOL, heap, qi, sens, tables
from reident_risk import load_csv, metrics
from reident_risk.engine import (
    DEFAULT_EXPLOITABILITY_MATRIX,
    DEFAULT_RISK_MATRIX,
    AssessmentOptions,
    assess,
    build_combinations,
)
from reident_risk.metrics import Partition, _key_blocks, band
from reident_risk.model import Dataset
from reident_risk.report import json_parts


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
    ``Counter``'s keys as ``class_id + code * 256**cw``. A class that a
    ``Counter`` leaves out must have one row, and is filled from it."""
    joint = partition._joint_counts(sensitive)
    if isinstance(joint, list):
        return {c: {v: n for v, n in enumerate(row) if n} for c, row in enumerate(joint)}
    class_of, codes = partition.class_of, partition.dataset.columns[sensitive].codes
    per_class = {}
    for key, n in joint.items():
        v, c = divmod(key, 256 ** memoryview(class_of).itemsize)
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
        # Counted before class_of is read, the counts come from the source's; a
        # quasi-identifier left out of ``sub`` is counted as a sensitive attribute.
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


def _way(partition, sensitive, joint):
    """How ``_joint_counts`` made ``joint``: lists ``"summed"`` from its source's or
    ``"listed"`` from its keys, or a ``Counter`` of its keys that leaves out the rows
    alone in their class, ``"all"`` when every row is, ``"some"`` or ``"none"``."""
    if isinstance(joint, list):
        fine = partition._fine
        return "summed" if fine and isinstance(fine._joint.get(sensitive), list) else "listed"
    rows = partition.dataset.row_count
    if len(partition.sizes) == rows:
        assert not joint
        return "all"
    return "some" if sum(joint.values()) < rows else "none"


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
    assert _way(p, "s0", joint) == way
    assert sum(joint.values()) == sum(size for size in p.sizes if size > 1)
    _assert_partitions_equal_oracle(d, [("q0",)], ["s0"])
    _assert_same_rate(p.discrimination_rate("s0"), naive.discrimination_rate(d, ["q0"], "s0"))
    assert p.l_diversity("s0") == 1


def _assert_partitions_equal_oracle(d, members, sensitive=(), left_out=0):
    """A row pass over ``members[0]`` and its coarsening to each later member set keep
    the members in order and give the oracle's view for ``sensitive`` and the first
    ``left_out`` quasi-identifiers that the set leaves out, with the counts kept as lists
    nowhere and everywhere. A coarsening of several members maps the source's classes
    to its own, one of one member only to sum lists, in the bytes of its ``class_of``."""
    reads = [[*sensitive, *[q for q in members[0] if q not in m][:left_out]] for m in members]
    expected = [naive.view(d, m, read) for m, read in zip(members, reads)]
    for dense_cells in (0, math.inf):
        with mock.patch.object(metrics, "_DENSE_CELLS_PER_ROW", dense_cells):
            full = Partition(d, members[0])
            for qi_set, read, view in zip(members, reads, expected):
                partition = full.coarsen(qi_set)
                assert partition.qi_set == tuple(qi_set)
                _assert_same_view(_view(partition, read), view)
                if partition is full or len(qi_set) == 1 and not (dense_cells and sensitive):
                    assert partition._fine_to_class is None
                else:
                    width = memoryview(partition.class_of).itemsize
                    assert memoryview(partition._fine_to_class).itemsize == width


def _shaped_table(kinds, rows, repeats, seed):
    """A quasi-identifier ``q<i>`` of each kind in ``kinds``, "few" (1 to 4
    values), "mid" (40) or "wide" (260, coded in two bytes once 257 show), then
    ``s0`` of up to 3 values. The first ``rows - repeats`` rows, at least one,
    show each column's values in turn, in an order shuffled per column; each
    later row repeats an earlier one, with one quasi-identifier redrawn half the time."""
    rng = random.Random(seed)
    sizes = [{"mid": 40, "wide": 260}.get(kind) or rng.randint(1, 4) for kind in kinds]
    fresh = max(rows - repeats, 1)
    table = [*map(list, zip(*[rng.sample([i % n for i in range(fresh)], fresh) for n in sizes]))]
    while len(table) < rows:
        row, c = list(rng.choice(table)), rng.randrange(len(sizes))
        if rng.random() < 0.5:
            row[c] = rng.randrange(sizes[c])
        table.append(row)
    names = tuple(f"q{i}" for i in range(len(kinds))) + ("s0",)
    return Dataset(names, [(*(f"v{v}" for v in row), rng.choice("xyz")) for row in table])


@given(
    st.lists(st.sampled_from(["few", "mid", "wide"]), min_size=1, max_size=10),
    st.integers(1, 400),
    st.integers(0, 100),
    st.integers(0, 2**32),
    st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True), max_size=2),
)
@settings(deadline=None)
def test_key_widths_equal_naive_oracle(kinds, rows, repeats, seed, picks):
    """A row pass over a shaped table, keyed by one- and two-byte codes in words of 2 to
    8 bytes or past, and its coarsenings to the members at the positions each list in
    ``picks`` draws equal the oracle's view; a coarsening reads up to two
    quasi-identifiers that it leaves out as sensitive."""
    d = _shaped_table(kinds, rows, repeats, seed)
    names = d.attributes[:-1]
    subsets = [tuple(dict.fromkeys(names[i % len(names)] for i in at)) for at in picks]
    _assert_partitions_equal_oracle(d, [names, *subsets], ["s0"], left_out=2)


_pinned = test_key_widths_equal_naive_oracle.hypothesis.inner_test


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 700])
def test_class_of_is_bytes_up_to_256_classes(rows):
    """Rows of a column of 260 values, each of the first 260 rows alone: ``class_of`` is
    bytes exactly when there are at most 256 classes, and a row pass and its
    coarsenings equal the oracle's."""
    _pinned(["wide", "few", "few"], rows, 0, 1, [[0, 1], [0]])
    p = Partition(_shaped_table(["wide", "few", "few"], rows, 0, 1), ("q0", "q1", "q2"))
    assert isinstance(p.class_of, bytes) == (rows <= 256) == (len(p.sizes) <= 256)


def test_coarse_pairs_summed_equal_pairs_counted_from_rows():
    """A one-member coarsening of 100 rows, most alone in their class, sums its source's
    lists or counts its pairs from its rows, as the counts are kept as lists everywhere
    or nowhere; both equal the oracle's."""
    _pinned(["mid", "wide"], 100, 10, 2, [[1]])


def test_keys_past_64_bits_equal_naive_oracle():
    """Keys of nine one-byte codes pass 64 bits, and a row pass and its coarsenings
    equal the oracle's."""
    _pinned(["few"] * 9, 200, 150, 3, [[0, 8], [1]])
    codes = [c.codes for c in _shaped_table(["few"] * 9, 200, 150, 3).columns.values()]
    assert max(itertools.chain(*_key_blocks(codes[:9]))) >= 2**64


def test_oracle_properties_reach_both_lone_row_counts():
    """The pinned shapes above reach each way ``_joint_counts`` ends, lists summed or
    listed and every row, some or none left out alone, a one-member coarsening that sums
    lists, class ids of 1 and 2 bytes, and keys within an 8-byte word and past."""
    ways, class_ids, words = set(), set(), set()
    key_blocks = metrics._key_blocks

    def keyed(columns, rows=None):
        assert len(columns) > 1  # a one-column partition is its column's codes
        words.add(sum(memoryview(codes).itemsize for codes in columns) > 8)
        return key_blocks(columns, rows)

    def counted(partition, args, joint):
        ways.add((_way(partition, *args, joint), len(partition.qi_set)))
        class_ids.add(memoryview(partition.class_of).itemsize)

    with _spy("_joint_counts", counted), mock.patch.object(metrics, "_key_blocks", keyed):
        test_class_of_is_bytes_up_to_256_classes(256)
        test_class_of_is_bytes_up_to_256_classes(257)
        test_coarse_pairs_summed_equal_pairs_counted_from_rows()
        test_keys_past_64_bits_equal_naive_oracle()
    assert {way for way, _ in ways} == {"summed", "listed", "all", "some", "none"}
    assert ("summed", 1) in ways and class_ids == {1, 2} and words == {False, True}


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
    """A table whose columns ``hi``/``lo`` (16 values each) and ``c`` show ``classes``
    classes. Rows before ``last_at`` cycle through every class but the last, which
    first shows at row ``last_at`` and then every 97th row. ``z`` splits each class in
    two. Of the sensitive columns, ``s0`` has 3 values and ``s255``, ``s256`` and
    ``s257`` as many as they are named for: row ``i`` shows the value coded ``i % n``."""
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
    """A row pass over ``c`` and ``hi`` (``c // 16``, so its classes are ``c``'s) codes
    its keys a block at a time into bytes, which become an ``array('H')`` when class 257
    shows: in the first row of a block of 512 rows of 2-byte ``c``, in its second, in the
    last of a block, or within a later one. Row passes over two columns (bytes codes up
    to 256 classes, 2-byte past) and their coarsenings equal the oracle's for sensitive
    columns of 2 to 257 values. A (class, value) pair is keyed in a 2- or 4-byte word;
    256 classes from row 255 on count the key 0xFFFF."""
    d = _classes_table(classes, last_at)
    assert len(d.columns["c"].values) == classes
    assert memoryview(d.columns["c"].codes).itemsize == naive.code_width(classes)
    if classes == 256 == last_at + 1:  # row 255 is the pair (255, 255)
        assert Partition(d, ("hi", "lo")).class_of[255] == d.columns["s256"].codes[255] == 255
    sensitive = ["s0", "s255", "s256", "s257"]
    for members in [("hi", "lo"), ("hi",), ("lo",)], [("c", "hi"), ("c",)]:
        _assert_partitions_equal_oracle(d, members, [*sensitive, "z"])
    for members in [("hi", "lo", "z"), ("hi", "lo")], [("c", "z"), ("c",)]:
        _assert_partitions_equal_oracle(d, members, sensitive, left_out=1)


@pytest.mark.parametrize("order", ["little", "big"])
def test_pair_scales_decode_hand_packed_keys(order):
    """Nine one-byte codes key as the little-endian number of their bytes, past an 8-byte
    word. With ``metrics.sys`` telling byte ``order``, a class id and then a code, of 1, 2
    or 4 bytes each, key in the machine's order as the little-endian number
    ``class_id + code * 256**cw``; in the other, as the big-endian number of their bytes
    written big-endian, so a machine of either order reads little-endian."""
    nine = [bytes([b]) for b in range(1, 10)]
    assert [*itertools.chain(*_key_blocks(nine))] == [int.from_bytes(bytes(range(1, 10)), "little")]
    of_width = {1: bytes, 2: partial(array, "H"), 4: partial(array, "I")}
    for cw, vw in itertools.product(of_width, repeat=2):
        word = 2 if cw + vw <= 2 else 4 if cw + vw <= 4 else 8
        for c, v in [(1, 0), (0, 1), (0x04030201 % 256**cw, 0x0807 % 256**vw), (256**cw - 1, 3)]:
            packed = (c.to_bytes(cw, "big") + v.to_bytes(vw, "big")).ljust(word, b"\0")
            key = c + v * 256**cw if order == sys.byteorder else int.from_bytes(packed, "big")
            with mock.patch.object(metrics, "sys", SimpleNamespace(byteorder=order)):
                assert [*itertools.chain(*_key_blocks([of_width[cw]([c]), of_width[vw]([v])]))] == [key]


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


def _assessed(d, exposures, strategy, ratings):
    """``d`` assessed with its ``q`` columns at ``exposures`` and its ``s``
    columns rated (1, 2, 3), of global severity 3, at the flag threshold; a
    value a column holds takes its rating in ``ratings``, so it may fall below."""
    qi_names, sensitive_names = _split_names(d)
    meta = [qi(n, e) for n, e in zip(qi_names, exposures)]
    for s in sensitive_names:
        rated = {v: r for (t, v), r in ratings.items() if t == s and v in d.columns[s].values}
        meta.append(sens(s, (1, 2, 3), rated))
    return assess(d, meta, AssessmentOptions(combination_strategy=strategy))


_ASSESSED = (
    tables(qi=(1, 4), sensitive=(1, 2), rows=(2, 40), values=6),
    st.lists(st.integers(1, 4), min_size=4, max_size=4),
    st.sampled_from(["per_level", "cumulative"]),
    _RATINGS,
)


@given(*_ASSESSED)
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
    report = _assessed(d, exposures, strategy, ratings)

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
    top = min(
        build_combinations(report.attributes, strategy),
        key=lambda c: (-int(c.exposure), -len(c.members), [qi_names.index(m) for m in c.members]),
    )
    keys = naive.project(d, top.members)
    severity = {key: max(rating) for key, rating in ratings.items()}  # else 3, as rated
    cells = {s: naive.column(d, s) for s in sensitive_names}
    every = [(s, i) for s in sensitive_names for i in range(d.row_count)]
    expected = [(s, i) for s, i in every if severity.get((s, cells[s][i]), 3) >= 3]
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
        shown = (outcome.attribute, outcome.sensitive_value)
        assert outcome.value_severity == severity.get(shown, 3)
        level = naive.exact_level(d, top.members, outcome.attribute, keys[row])
        assert band(outcome.class_inference) == level
        exploit = DEFAULT_EXPLOITABILITY_MATRIX.lookup(top.exposure, level)
        assert outcome.record_risk == DEFAULT_RISK_MATRIX.lookup(exploit, outcome.value_severity)


# A renamed value: text that encodes as UTF-8 and that trimming leaves whole,
# but NUL, which the csv module of Python 3.10 rejects.
_CHARACTER = st.characters(exclude_categories=("Cs",), exclude_characters="\x00")
_NAME = st.text(_CHARACTER, min_size=1, max_size=4).filter(lambda name: name == name.strip())


@given(*_ASSESSED, st.randoms(use_true_random=False), st.integers(2, 3), st.data())
@settings(deadline=None)
def test_report_is_metamorphic(table, exposures, strategy, ratings, rng, m, data):
    """The JSON report of a table loaded from CSV, under three rewrites of the
    table. Shuffling the rows changes only which rows are flagged; repeating
    each row ``m`` times multiplies k and the row count by ``m`` and flags every
    copy of a flagged row; renaming one column's values one-to-one, and their
    ratings with them, renames only those values. A shuffle changes the order
    a class's entropy terms are summed in, and so a rate's last bits, and a
    repeat its counts; the six decimals a rate prints show neither."""
    names, rows = table

    def report(rows, ratings=ratings):
        """The JSON report of ``rows``, and apart its flagged records as
        ``{(0-based row, attribute): record}``."""
        text = io.StringIO()
        csv.writer(text).writerows([names, *rows])
        text.seek(0)
        assessed = _assessed(load_csv(text), exposures, strategy, ratings)
        document = json.loads("".join(json_parts(assessed)))
        flagged = document.pop("flagged_records")
        return document, {(r.pop("row") - 1, r["attribute"]): r for r in flagged}

    document, flagged = report(rows)
    order = rng.sample(range(len(rows)), len(rows))
    shuffled, moved = report([rows[i] for i in order])
    assert (shuffled, {(order[i], a): r for (i, a), r in moved.items()}) == (document, flagged)

    repeated, copies = report([row for row in rows for _ in range(m)])
    appendix = document["metrics_appendix"]
    appendix = {**appendix, "k_anonymity": appendix["k_anonymity"] * m}
    assert repeated == {**document, "row_count": len(rows) * m, "metrics_appendix": appendix}
    assert copies == {(i * m + j, a): r for (i, a), r in flagged.items() for j in range(m)}

    column = data.draw(st.sampled_from(names))
    rename = dict(zip("abcdefgh", data.draw(st.lists(_NAME, min_size=8, max_size=8, unique=True))))
    at = names.index(column)
    rows = [(*row[:at], rename[row[at]], *row[at + 1 :]) for row in rows]
    renamed_ratings = {(t, rename[v] if t == column else v): r for (t, v), r in ratings.items()}
    for record in [*document["value_severity_table"], *flagged.values()]:
        if record["attribute"] == column:
            record["value"] = rename[record["value"]]
    assert report(rows, renamed_ratings) == (document, flagged)


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
