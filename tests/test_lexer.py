"""The one-pattern lexer against the character-at-a-time reference
(`reference.items.reference_lex`): the same tokens, positions and errors,
whatever the size of the chunks that the lexer reads the lines in."""

import random
import string

import pytest

from conftest import CORPUS, corpus_source
from reference.items import reference_lex
from totality.surface import (
    CHUNK,
    Names,
    SourceError,
    _Lexer,
    _STARTS,
    _lex,
)

# a chunk of 0 characters is one line, so every line ends one
SIZES = (0, 1, 7, 100, CHUNK)


def chunks(src, size=CHUNK):
    """The token lists that `_lex` hands the parser for `src`."""
    lexer = _Lexer(src, Names(), size)
    out = []
    while not lexer.done():
        out.append(_lex(lexer))
    return out


def lexed(lex, src):
    try:
        # each token is a (kind, value, line, col) tuple
        return [(kind, value, line, col)
                for kind, value, line, col in lex(src)]
    except SourceError as err:
        return ("error", err.message, err.line, err.col)


def in_chunks(size):
    """A lexer of a whole source that reads it in chunks of `size`."""
    return lambda src: [tok for chunk in chunks(src, size) for tok in chunk]


def assert_same(src, sizes=SIZES):
    want = lexed(reference_lex, src)
    for size in sizes:
        assert lexed(in_chunks(size), src) == want, (size, src)


def test_ascii_starts():
    """The ASCII letters and `_` start a name and the digits a numeral,
    spelt out in `surface` so that it need not import `string`."""
    assert _STARTS == {
        **dict.fromkeys(string.ascii_letters + "_", "name"),
        **dict.fromkeys(string.digits, "int")}


@pytest.mark.parametrize(
    "name", sorted(p.name for p in CORPUS.glob("*.ch")))
def test_corpus(name):
    source = corpus_source(name)
    assert_same(source)
    assert_same(source.rstrip("\n") + "  -- a comment at the end")


def block(i, rng):
    """A data type, a codata type and two definitions over them, in
    varied layout: tabs, carriage returns, comments, pragmas, type
    variables, wildcards, numerals and non-ASCII names."""
    ctors = ["K%d_%d" % (i, j) for j in range(rng.randint(1, 5))]
    dtors = ["P%d_%d" % (i, j) for j in range(rng.randint(2, 4))]
    nl = rng.choice(["\n", "\r\n", "  \n", "\t\n", " -- note\n"])
    out = ["data d%d('a) where" % i]
    for j, c in enumerate(ctors):
        arg = rng.choice(["", "'a -> ", "d%d('a) -> " % i, "nat -> "])
        out.append("%s%s : %sd%d('a)" % ("  | " if j else "\t", c, arg, i))
    out.append("codata r%d where" % i)
    for j, d in enumerate(dtors):
        out.append("  %s %s : r%d -> nat" % ("|" if j else " ", d, i))
    if rng.random() < 0.3:
        out.append("-- totality: B=%d, D=%d" % (rng.randint(1, 4),
                                                rng.randint(0, 4)))
    name = rng.choice(["f%d" % i, "é%d" % i, "f%d'" % i, "_f%d" % i])
    out.append("val %s : r%d -> nat" % (name, i))
    fields = " ; ".join("%s = %s" % (d, rng.choice(
        ["_", "x", "%d" % rng.randrange(100), "Succ y", "٣"]))
        for d in dtors)
    out.append("  | %s {%s} = %s" % (name, fields, rng.choice(
        ["x", "y", "0", "Succ (Succ Zero)", "{ }"])))
    out.append("and h%d x = h%d x.%s" % (i, i, dtors[0]))
    return nl.join(out)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_program(seed):
    rng = random.Random(seed)
    source = "\n\n".join(block(i, rng) for i in range(200))
    parts = chunks(source)
    assert sum(map(len, parts)) > 10000 and len(parts) > 10
    assert_same(source)


# pieces of character soup, tokens and troublemakers alike: a numeric
# character that is not a decimal digit (²), a decimal digit that is not
# ASCII (٣), letters that are not ASCII (é, ß), and breaks that
# `str.splitlines` takes but the lexer does not (\x0c, \u2028)
SOUP = ["a", "Zero", "x1", "_", "'", "'b", "²", "٣", "é", "ß", "0", "42",
        "--", "->", "-", " ", "  ", "\t", "\r", "\n", "\n", "\x0c",
        "\u2028", ":", "|", "=", "(", ")", "{", "}", ";", ",", ".", "val",
        "data", "codata", "where", "and", "%", "\x85"]


def test_character_soups():
    rng = random.Random(20261018)
    errors = 0
    for _ in range(3000):
        src = "".join(rng.choice(SOUP) for _ in range(rng.randint(0, 40)))
        assert_same(src, (0, rng.randrange(40), CHUNK))
        errors += isinstance(lexed(in_chunks(CHUNK), src), tuple)
    # both outcomes are exercised
    assert 300 < errors < 2700


# line 3 is a comment alone, line 5 ends in an error and line 6 starts
# with one
BOUNDARIES = ("val f : nat -> nat\n"
              "  | f x = x\n"
              "  -- a comment alone on its line\n"
              "val g 'a = { P = x ; Q = 3 }\n"
              "val h x = h x.P %\n"
              "² val k = k\n")


def test_every_chunk_boundary():
    """Chunks of each size from one line to the whole file, so that each
    line ends a chunk under some size."""
    assert_same(BOUNDARIES, range(len(BOUNDARIES) + 1))
    assert_same(BOUNDARIES.replace("%", "").replace("²", ""),
                range(len(BOUNDARIES) + 1))


def test_boundary_on_an_error():
    # a chunk per line: the fifth ends in the error, the sixth starts with
    # one, and the chunks before them lex in full
    for src, line in [(BOUNDARIES, 5), (BOUNDARIES.replace("%", ""), 6)]:
        lexer = _Lexer(src, Names(), 0)
        for _ in range(line - 1):
            _lex(lexer)
        with pytest.raises(SourceError) as err:
            _lex(lexer)
        assert err.value.line == line
        assert (lexer.start, lexer.line) == (
            sum(len(text) + 1 for text in src.split("\n")[:line - 1]), line)


def test_boundary_on_a_comment_only_line():
    source = BOUNDARIES.replace("%", "").replace("²", "")
    parts = chunks(source, 0)
    # one chunk per line; the comment's holds no token, the last an eof
    assert [len(p) for p in parts] == [6, 5, 0, 13, 8, 4, 1]
    assert [tok for part in parts for tok in part] \
        == lexed(reference_lex, source)
