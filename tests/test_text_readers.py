"""Every text reader gives a value or an ``InputError``, never another exception.

Each strategy draws a well-formed text of one reader's format, with small
header counts, and returns it with a flag saying whether the reader must
accept it.  Half the texts are then fuzzed in the style of
``tests.test_cli.lp_texts``: tokens replaced, dropped or put in, free-text
lines put in, lines put out of order.  Header counts stay at most 4,
because the readers allocate what a header asks for once the text checks
out.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from satpoly.blockpoint import BlockPoint
from satpoly.ecbgc import parse_ecbgc
from satpoly.errors import InputError
from satpoly.reductions import parse_cnf3
from satpoly.vertices import VertexCode
from tests.test_cli import TOKENS

COUNTS = st.sampled_from([-1, 0, 1, 2, 3, 4, 1, 2, 3, 4])  # mostly positive
CELLS = st.sampled_from(["0", "1", "-2", "1/3", "-5/2"])


def read(reader, text):
    """What ``reader`` makes of ``text``, or None for an ``InputError``."""
    try:
        return reader(text)
    except InputError:
        return None


@st.composite
def fuzzed(draw, lines, well_formed):
    """``lines`` as a text and ``well_formed``, or a fuzzed text and False."""
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            k = draw(st.integers(0, len(lines) - 1))
            tokens = lines[k].split() or [""]
            at = draw(st.integers(0, len(tokens) - 1))
            edit = draw(st.sampled_from(["replace", "replace", "drop", "add"]))
            tokens[at : at + (edit != "add")] = [] if edit == "drop" else [draw(TOKENS)]
            lines[k] = " ".join(tokens)
        if draw(st.booleans()):
            for line in draw(st.lists(st.lists(TOKENS, max_size=6).map(" ".join), max_size=2)):
                lines.insert(draw(st.integers(0, len(lines))), line)
        if draw(st.integers(0, 3)) == 0:
            lines = draw(st.permutations(lines))
        well_formed = False
    separator = draw(st.sampled_from(["\n", "  # c\n"]))
    return separator.join(lines) + "\n", well_formed


@st.composite
def block_point_texts(draw):
    m, n = draw(COUNTS), draw(COUNTS)
    tag = draw(st.sampled_from(["point", "objective"]))
    width = 2 * max(n, 0)
    lines = [f"{tag} {m} {n}"]
    for _ in range(3 * max(m, 0)):
        lines.append(" ".join(draw(st.lists(CELLS, min_size=width, max_size=width))))
    return draw(fuzzed(lines, m > 0 and n > 0)), tag


@st.composite
def cnf3_texts(draw):
    m, count = draw(COUNTS), draw(COUNTS)
    literal = st.integers(1, max(m, 1)).flatmap(lambda v: st.sampled_from([v, -v]))
    lines = [f"p cnf {m} {count}"]
    for _ in range(max(count, 0)):
        lines.append(" ".join(map(str, draw(st.lists(literal, min_size=3, max_size=3)))) + " 0")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "c a DIMACS comment")
    return draw(fuzzed(lines, m > 0 and count >= 0))


@st.composite
def ecbgc_texts(draw):
    u, v = draw(COUNTS), draw(COUNTS)
    pairs = st.tuples(st.integers(1, max(u, 1)), st.integers(1, max(v, 1)))
    lines = [f"ecbgc {u} {v}"]
    for i, j in draw(st.lists(pairs, unique=True, min_size=1, max_size=6)):
        flags = draw(st.text(st.sampled_from("+-"), min_size=6, max_size=6))
        lines.append(f"edge {i} {j} : {flags}")
    return draw(fuzzed(lines, u > 0 and v > 0))


CODE_TEXTS = st.one_of(
    st.tuples(st.text("01", min_size=1, max_size=4), st.text("012", min_size=1, max_size=4))
    .map(":".join)
    .map(lambda code: (code, True)),
    st.one_of(TOKENS, st.text(st.sampled_from("0123: \u0661x"), max_size=8)).map(
        lambda text: (text, False)
    ),
)


@settings(max_examples=300, deadline=None)
@given(block_point_texts(), st.sampled_from([None, "point", "objective"]))
def test_block_point_text_reads_or_is_an_input_error(drawn, expect_tag):
    (text, well_formed), tag = drawn
    point = read(lambda t: BlockPoint.from_text(t, expect_tag=expect_tag), text)
    if well_formed and expect_tag in (None, tag):
        assert point is not None
        assert BlockPoint.from_text(point.to_text()) == point


@settings(max_examples=300, deadline=None)
@given(cnf3_texts())
def test_cnf3_text_reads_or_is_an_input_error(drawn):
    text, well_formed = drawn
    formula = read(parse_cnf3, text)
    assert formula is not None or not well_formed


@settings(max_examples=300, deadline=None)
@given(ecbgc_texts())
def test_ecbgc_text_reads_or_is_an_input_error(drawn):
    text, well_formed = drawn
    instance = read(parse_ecbgc, text)
    assert instance is not None or not well_formed


@settings(max_examples=200, deadline=None)
@given(CODE_TEXTS)
def test_vertex_code_text_reads_or_is_an_input_error(drawn):
    text, well_formed = drawn
    code = read(VertexCode.parse, text)
    if well_formed:
        assert str(code) == text
