"""The direct readers of plain model and matrix text against JSON.

WeierstrassModel.parse and IntMatrix.parse read plain text without the
json package.  Each is pinned here to the JSON reader it bypasses, kept
below as it was: every text gives the same values or the same error
type and message, and the plain texts of the table do take the direct
path.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nclocal.elliptic import WeierstrassModel, _plain_coefficients
from nclocal.intmat import IntMatrix, _plain_rows


def json_model(text: str) -> WeierstrassModel:
    """WeierstrassModel.parse by json.loads, and by Fraction on each
    comma-separated entry where JSON fails."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        inner = text.strip()
        if not (inner.startswith("[") and inner.endswith("]")):
            raise ValueError(f"cannot parse model {text!r}") from None
        data = [tok.strip() for tok in inner[1:-1].split(",")]
    if not isinstance(data, list) or len(data) != 5:
        raise ValueError(f"model must have 5 coefficients, got {text!r}")
    try:
        return WeierstrassModel.over_q(*(Fraction(str(a)) for a in data))
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"cannot parse model {text!r}: {e}") from None


def json_matrix(text: str) -> IntMatrix:
    """IntMatrix.parse by json.loads."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"cannot parse matrix {text!r}: {e}") from None
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ValueError(f"cannot parse matrix {text!r}: expected list of rows")
    if not all(type(x) is int for row in data for x in row):
        raise ValueError(f"cannot parse matrix {text!r}: entries must be integers")
    return IntMatrix.from_rows(data)


def outcome(parse, text: str):
    """The value parse gives, with the exact type of each part, or the
    type and message of its error."""
    try:
        value = parse(text)
    except ValueError as e:
        return type(e), str(e)
    if isinstance(value, IntMatrix):
        return value.rows, value.cols, [(type(x), x) for x in value.entries]
    return [(type(a), a) for a in value.coefficients], value.field


PLAIN_MODELS = [
    "[0,0,0,-1,0]",
    "[0, 0, 0, -1, 0]",
    " \t[ 0 ,0,\n0 , -1 ,0 ]\r\n",
    "[1/2,0,0,-3/4,1]",
    "[1/2, 0, 0, -3/4, 1]",
    "[-1/2,0,0,0,6/4]",
    "[0,0,1,-2174420,1234136692]",
    "[" + "9" * 4300 + ",0,0,0,0]",
]
PLAIN_MATRICES = [
    "[[0,3],[-1,0]]",
    "[[0, 3], [-1, 0]]",
    " [ [0,3] , [-1,0] ] ",
    "[[0,3],\n [-1,0]]\n",
    "[[5]]",
    "[[1,2,3]]",
    "[[0,0,0,-1,0]]",
    "[[1,2],[3]]",
    "[[1,2],[3,4,5]]",
    "[[" + "9" * 4300 + "]]",
]
OTHER_TEXTS = [
    # signs and leading zeros
    "[+1,0,0,0,0]",
    "[-0,0,0,0,0]",
    "[01,0,0,0,0]",
    "[0,0,0,-00,0]",
    "[[+1]]",
    "[[-0]]",
    "[[01,1],[1,0]]",
    "[[- 1]]",
    # n/d
    "[1/-2,0,0,0,0]",
    "[1/0,0,0,0,0]",
    "[1/02,0,0,0,0]",
    "[1/+2,0,0,0,0]",
    "[-0/2,0,0,0,0]",
    "[1 /2,0,0,0,0]",
    "[1/ 2,0,0,0,0]",
    "[1/2/3,0,0,0,0]",
    "[/2,0,0,0,0]",
    "[1/,0,0,0,0]",
    "[[1/2]]",
    # quoted strings
    '["1/2",0,0,"-3/4",1]',
    '["0",0,0,0,0]',
    '[" 1",0,0,0,0]',
    '[["0",1],[1,0]]',
    # floats and exponents
    "[0.5,0,0,0,0]",
    "[1e3,0,0,0,0]",
    "[1E-2,0,0,0,0]",
    "[-0.0,0,0,0,0]",
    "[.5,0,0,0,0]",
    "[NaN,0,0,0,0]",
    "[Infinity,0,0,0,0]",
    "[[0,3],[-1,0.0]]",
    "[[1e2]]",
    "[[NaN]]",
    # true and null
    "[true,0,0,0,0]",
    "[null,0,0,0,0]",
    "[[true,0],[0,1]]",
    "[[null]]",
    "[[false]]",
    # nested lists
    "[[0],0,0,0,0]",
    "[[[1]]]",
    "[[1,[2]],[3,4]]",
    "[[1],[[2]]]",
    # wrong lengths and shapes
    "[0,0,0,-1]",
    "[0,0,0,-1,0,0]",
    "[0,0,0,-1,0,]",
    "[,0,0,0,0]",
    "[1,2]",
    "[[]]",
    "[[],[]]",
    "[[1,2],]",
    "[[1,2] [3,4]]",
    "[[1,2];[3,4]]",
    "[[1,2],,[3,4]]",
    "[[1,2],[3,4]",
    "[[1,2],[3,4]]]",
    "[[1,2],[3,4]],",
    "[[1,2]]x",
    "[[1,2]][[3]]",
    '{"a": 1}',
    "5",
    "[0,0,0,-1,0] [1]",
    # empty input
    "",
    "   ",
    "[]",
    "[ ]",
    "[",
    "]",
    "0,0,0,-1,0",
    # whitespace JSON does not allow, and digits int() reads that JSON does not
    "[0,0,0,-1,0]\x0c",
    "\u00a0[0,0,0,-1,0]",
    "[0,0,0,-1,0\x0b]",
    "[[1]]\x0c",
    "[[1,\x0c2]]",
    "[1_000,0,0,0,0]",
    "[\u0661,0,0,0,0]",
    "[\u00b2,0,0,0,0]",
    "[[1_0]]",
    "[[\uff11]]",
    "[0x10,0,0,0,0]",
    # past the int-to-str limit
    "[" + "9" * 4301 + ",0,0,0,0]",
    "[1/" + "9" * 4301 + ",0,0,0,0]",
    "[[" + "9" * 4301 + "]]",
]
TEXTS = PLAIN_MODELS + PLAIN_MATRICES + OTHER_TEXTS


def test_the_plain_texts_take_the_direct_path():
    assert all(_plain_coefficients(text) is not None for text in PLAIN_MODELS)
    assert all(_plain_rows(text) is not None for text in PLAIN_MATRICES)
    assert all(_plain_coefficients(text) is None for text in PLAIN_MATRICES + OTHER_TEXTS)
    assert all(_plain_rows(text) is None for text in PLAIN_MODELS + OTHER_TEXTS)


@pytest.mark.parametrize("text", TEXTS)
def test_models_read_as_json_reads_them(text):
    assert outcome(WeierstrassModel.parse, text) == outcome(json_model, text)


@pytest.mark.parametrize("text", TEXTS)
def test_matrices_read_as_json_reads_them(text):
    assert outcome(IntMatrix.parse, text) == outcome(json_matrix, text)


TOKENS = st.sampled_from(
    ["0", "7", "-1", "12", "-0", "01", "+1", "1/2", "-3/4", "4/2", "1/0", "1/-2", "0/5", "0.5", "1e3"]
    + ['"2"', "true", "null", "", "[1]", "1_0", " 7", "8 ", "\t9\n", "\x0c1", "\u0661"]
)
SPACE = st.sampled_from(["", " ", "\n", "\x0c"])


@given(SPACE, st.lists(TOKENS, max_size=7), SPACE)
def test_token_lists_read_as_json_reads_them(before, tokens, after):
    text = before + "[" + ",".join(tokens) + "]" + after
    assert outcome(WeierstrassModel.parse, text) == outcome(json_model, text)
    assert outcome(IntMatrix.parse, text) == outcome(json_matrix, text)


@given(st.lists(st.tuples(SPACE, st.lists(TOKENS, max_size=3), st.sampled_from([",", ", ", "", ",,", ";"])), max_size=4))
def test_row_lists_read_as_json_reads_them(rows):
    text = "[" + "".join(f"{space}[{','.join(row)}]{sep}" for space, row, sep in rows).rstrip(",") + "]"
    assert outcome(IntMatrix.parse, text) == outcome(json_matrix, text)


@given(st.text(alphabet="[],-/019 \t\n.e\"+_", max_size=24))
def test_any_text_reads_as_json_reads_it(text):
    assert outcome(WeierstrassModel.parse, text) == outcome(json_model, text)
    assert outcome(IntMatrix.parse, text) == outcome(json_matrix, text)
