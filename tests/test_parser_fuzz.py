"""Fuzzing of the three text parsers: on any text each raises only its
documented error type, the bracket parser agrees with a recursive
reference parser, and the record parser reads a line in the written field
order as it reads the same fields in any other order."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from glracks.classify import classify_gl
from glracks.formats import (
    BracketParseError,
    RecordFormatError,
    format_record_line,
    parse_bracketed_lists,
    parse_record_line,
)
from glracks.perm import CycleParseError, parse_cycles


def parse_bracketed_lists_oracle(text):
    """The recursive descent parser that the iterative one replaced."""
    pos = 0
    line = 1
    col = 1
    length = len(text)

    def error(message):
        return BracketParseError(message, line, col)

    def advance():
        nonlocal pos, line, col
        if text[pos] == "\n":
            line += 1
            col = 1
        else:
            col += 1
        pos += 1

    def skip_ws():
        while pos < length and text[pos] in " \t\r\n":
            advance()

    def parse_value():
        skip_ws()
        if pos >= length:
            raise error("unexpected end of input")
        ch = text[pos]
        if ch == "[":
            advance()
            items = []
            skip_ws()
            if pos < length and text[pos] == "]":
                advance()
                return items
            while True:
                items.append(parse_value())
                skip_ws()
                if pos >= length:
                    raise error("unterminated list")
                if text[pos] == ",":
                    advance()
                    continue
                if text[pos] == "]":
                    advance()
                    return items
                raise error(f"expected ',' or ']', found {text[pos]!r}")
        if ch == "-" or ch.isdigit():
            start = pos
            if ch == "-":
                advance()
            if pos >= length or not text[pos].isdigit():
                raise error("malformed integer")
            while pos < length and text[pos].isdigit():
                advance()
            try:
                return int(text[start:pos])
            except ValueError:
                raise error("malformed integer") from None
        raise error(f"unexpected character {ch!r}")

    value = parse_value()
    skip_ws()
    if pos < length:
        raise error(f"trailing content {text[pos]!r}")
    return value


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except BracketParseError as exc:
        return ("error", str(exc), exc.line, exc.column)


# Texts drawn mostly from each grammar's own characters, so that the
# fuzzing reaches past the first token, plus arbitrary text.
bracket_text = st.one_of(
    st.text(alphabet="[]-,0123456789 \n\t\r", max_size=60),
    st.text(alphabet="[],1-2 x\n²٣", max_size=30),
    st.text(max_size=30),
)
junk = st.text(alphabet="0123456789,;-=x ²", max_size=6)


@st.composite
def record_lines(draw):
    """Lines with the fields of a record, each well formed or junk, in
    any order, some left out or repeated."""
    n = draw(st.integers(0, 3))

    def images():
        return ",".join(str(v + 1) for v in draw(st.permutations(range(n))))

    flag = st.sampled_from(["0", "1", "true", "False", "2", ""])
    fields = [
        ("n", str(n)),
        ("s", ";".join(images() for _ in range(n))),
        ("u", images()),
        ("d", images()),
        ("rack", draw(st.sampled_from(["0", "7", "-1"]))),
        ("quandle", draw(flag)),
        ("medial", draw(flag)),
        ("legendrian", draw(flag)),
        (draw(st.sampled_from(["color", "", "n"])), "1"),
    ]
    tokens = []
    for key, value in fields:
        choice = draw(st.sampled_from(["keep", "keep", "junk", "drop"]))
        if choice != "drop":
            tokens.append(f"{key}={value if choice == 'keep' else draw(junk)}")
    return " ".join(draw(st.permutations(tokens)))


record_text = st.one_of(
    record_lines(),
    st.text(alphabet="nsudrackquelgmi=0123456789,;- \t", max_size=60),
    st.text(max_size=40),
)
cycle_text = st.one_of(
    st.lists(st.text(alphabet="1234,²٣ ", max_size=4), max_size=3).map(
        lambda bodies: "".join(f"({body})" for body in bodies)
    ),
    st.text(alphabet="()0123456789, id\t²٣", max_size=30),
    st.text(max_size=30),
)


class TestFuzz:
    @settings(max_examples=600, deadline=None)
    @given(bracket_text)
    @example("[1²]")
    @example("[01]")
    @example("[-0]")
    @example("[1,]")
    @example("[-]")
    @example("[1]]")
    @example("\ufeff[1]")
    @example("[ 1 ,\r\n 2 ]")
    @example("")
    def test_bracketed_lists(self, text):
        assert outcome(parse_bracketed_lists, text) == outcome(
            parse_bracketed_lists_oracle, text
        )

    @settings(max_examples=600, deadline=None)
    @given(record_text)
    @example("n=0 s= rack=x")
    def test_record_line(self, text):
        try:
            record = parse_record_line(text)
        except RecordFormatError:
            return
        assert parse_record_line(format_record_line(record)) == record

    @settings(max_examples=600, deadline=None)
    @given(cycle_text, st.integers(0, 12))
    @example("(1²)", 3)
    @example("(1," + "9" * 5000 + ")", 3)
    def test_cycles(self, text, degree):
        try:
            perm = parse_cycles(text, degree)
        except CycleParseError:
            return
        assert perm.degree == degree


# the field order of the lines ``format_record_lines`` writes
WRITTEN_ORDER = ("n", "rack", "s", "u", "d", "quandle", "medial", "legendrian")


def record_outcome(line):
    try:
        return ("ok", parse_record_line(line))
    except RecordFormatError as exc:
        return ("error", str(exc))


def reversed_tokens(line):
    return " ".join(reversed(line.split()))


class TestRecordFastPath:
    """A line in the field order ``format_record_lines`` writes is read
    from its one split; any other line by the token loop.  Both give the
    same record, or raise the same message."""

    @settings(max_examples=600, deadline=None)
    @given(record_lines())
    @example("legendrian=0 medial=1 quandle=0 d=1,2 u=2,1 s=1,2;2,1 rack=0 n=2")
    @example("rack=x n=2 s=1,2;9 u=2,1 d=1,2 quandle=0 medial=1 legendrian=0")
    @example("n=2 rack=0 s=1,2;1,2 u=2,2 d=1,2 quandle=1 medial=1 legendrian=true")
    @example("n=x rack=0 s=1 u=1 d=1 quandle=0 medial=0 legendrian=0")
    @example("n=1 rack=0 s=1 u=1 d=1 quandle=0 medial=2 legendrian=0")
    @example("n=1 rack=0 s=1 u=1 d=2 quandle=0 medial=0 legendrian=0")
    @example("n=1 rack=0 s=1 u=2 d=3 quandle=0 medial=0 legendrian=0")
    def test_written_order_parses_as_any_order(self, line):
        tokens = line.split()
        keys = [token.split("=", 1)[0] for token in tokens]
        assume(all("=" in token for token in tokens) and len(set(keys)) == len(keys))
        rank = {key: i for i, key in enumerate(WRITTEN_ORDER)}
        written = " ".join(
            sorted(tokens, key=lambda token: rank.get(token.split("=", 1)[0], len(rank)))
        )
        assert record_outcome(written) == record_outcome(line)

    @settings(max_examples=300, deadline=None)
    @given(record_text)
    def test_written_line_parses_as_its_reversal(self, text):
        try:
            record = parse_record_line(text)
        except RecordFormatError:
            return
        line = format_record_line(record)
        assert record_outcome(reversed_tokens(line)) == record_outcome(line)

    def test_written_order_with_a_bad_token_is_the_loops_error(self):
        line = "n=1 rack=0 s=1 u=1 d=1 quandle=0 medial=0 legendrian:1"
        assert record_outcome(line) == ("error", "bad token 'legendrian:1' in record line")

    def test_classified_lines_parse_as_their_reversals(self):
        for record in classify_gl(4).records:
            line = format_record_line(record)
            assert [token.split("=")[0] for token in line.split()] == list(WRITTEN_ORDER)
            assert record_outcome(reversed_tokens(line)) == record_outcome(line)
            assert record_outcome(line) == ("ok", record)


class TestDeepNesting:
    def test_unterminated_deep_nesting_is_a_parse_error(self):
        try:
            parse_bracketed_lists("[" * 3000)
        except BracketParseError as exc:
            assert (exc.line, exc.column) == (1, 3001)
        else:
            raise AssertionError("no BracketParseError")

    def test_deep_nesting_parses(self):
        depth = 5000
        value = parse_bracketed_lists("[" * depth + "7" + "]" * depth)
        for _ in range(depth):
            (value,) = value
        assert value == 7

    def test_huge_integer_is_a_parse_error(self):
        try:
            parse_bracketed_lists("[" + "9" * 5000 + "]")
        except BracketParseError as exc:
            assert "malformed integer" in str(exc)
        else:
            raise AssertionError("no BracketParseError")
