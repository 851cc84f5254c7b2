import functools
import gc
import importlib.util
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import strategies as st

import naive_metrics as naive
from reident_risk import assess, fixtures
from reident_risk.cli import main
from reident_risk.model import AttributeMeta, AttributeRole, ExposureLevel, SeverityRating

FULL_QI = ("Age", "Gender", "Country", "Admission Date", "Blood Type")
TOL = 1e-12


def qi(name, exposure):
    """A quasi-identifier's metadata at ``exposure``, a level or its label."""
    return AttributeMeta(
        name=name, role=AttributeRole.QUASI_IDENTIFIER, exposure=ExposureLevel.parse(exposure)
    )


def sens(name, rating=(1, 3, 4), overrides=None):
    """A sensitive attribute's metadata: its own rating, and in ``overrides``
    a rating per value."""
    return AttributeMeta(
        name=name,
        role=AttributeRole.SENSITIVE,
        severity=SeverityRating(*rating),
        value_severity={v: SeverityRating(*r) for v, r in (overrides or {}).items()},
    )


# Disease value counts read off the 12-row tables: Colds 5, Flu 3, HIV 2,
# Diabetes 1, Cancer 1. The 9-row table has Colds 4, Flu 1, HIV 2,
# Diabetes 1, Cancer 1.
H12 = naive.entropy([5, 3, 2, 1, 1])
H9 = naive.entropy([4, 1, 2, 1, 1])


def heap(build):
    """``(peak, held)``: the tracemalloc peak during ``build()`` and the heap
    still held after it, with what it returns, both above the heap before it."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        built = build()  # kept while the heap is read
        held, peak = tracemalloc.get_traced_memory()
        return peak - base, held - base
    finally:
        if started:
            tracemalloc.stop()


def run(argv, capsys, parse=main):
    """``(code, out, err)`` of ``parse(argv)``, the exit code of argparse's too."""
    try:
        code = parse(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@functools.cache
def _bench_gen():
    path = Path(__file__).parents[1] / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("_bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def generated(directory, workload, spell=bytes, **size):
    """``(data, meta)``: the paths, as strings, of ``t.csv`` and ``t.meta.json``
    written in ``directory`` from ``bench/gen.py``'s ``workload`` at seed 1, its
    CSV through ``spell``. ``bench/gen.py`` is only read: it writes the inputs."""
    directory.mkdir(parents=True, exist_ok=True)
    data, meta = directory / "t.csv", directory / "t.meta.json"
    csv, document = getattr(_bench_gen(), workload)(1, **size)
    data.write_bytes(spell(csv))
    meta.write_bytes(document)
    return str(data), str(meta)


@st.composite
def tables(draw, qi=(1, 4), sensitive=(1, 1), rows=(1, 25), values=4):
    """A random table as ``(header, rows)``: quasi-identifiers ``q0..`` then
    sensitive attributes ``s0..``. Each column draws from its own alphabet
    of 1 to ``values`` letters, so classes mix pure, impure and singleton.

    A property builds the ``Dataset`` itself, so that Hypothesis prints a
    failing table's header and rows."""
    n_qi = draw(st.integers(*qi))
    n_sensitive = draw(st.integers(*sensitive))
    sizes = [draw(st.integers(1, values)) for _ in range(n_qi + n_sensitive)]
    cells = st.tuples(*(st.sampled_from("abcdefgh"[:size]) for size in sizes))
    body = draw(st.lists(cells, min_size=rows[0], max_size=rows[1]))
    names = tuple(f"q{i}" for i in range(n_qi)) + tuple(f"s{i}" for i in range(n_sensitive))
    return names, tuple(body)


@pytest.fixture(scope="session")
def initial():
    return fixtures.fixture_dataset("initial")


@pytest.fixture(scope="session")
def kanon():
    return fixtures.fixture_dataset("kanon")


@pytest.fixture(scope="session")
def hipaa():
    return fixtures.fixture_dataset("hipaa")


@pytest.fixture(scope="session")
def reference_meta():
    return fixtures.fixture_metadata()


@pytest.fixture(scope="session")
def hipaa_report(hipaa, reference_meta):
    return assess(hipaa, reference_meta.attributes, reference_meta.options)
