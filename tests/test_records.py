"""Value semantics of the immutable record types that reports and the
oracles build: equal fields give equal, equally hashed values with a fixed
repr, fields cannot be assigned or deleted, and the constructors keep
their checks."""

import copy
import pickle

import pytest

from kreps.braids import BraidWord
from kreps.colorings import ColoringCensus
from kreps.intlinalg import IntMatrix, SNFResult, smith_normal_form
from kreps.laurent import LaurentMatrix, LaurentPoly
from kreps.metabelian import BinaryDihedralElt
from kreps.oracles import ClosureDiagram, Crossing, FreeWord, Presentation

ONE, T_INV = LaurentPoly.one(), LaurentPoly.t(-1)

# (value, an equal value built apart, a different value, its fields, its repr)
RECORDS = {
    "BraidWord": (
        BraidWord(3, (1, -2)),
        BraidWord(3, [1, -2]),
        BraidWord(3, (1, 2)),
        (3, (1, -2)),
        "BraidWord(strands=3, letters=(1, -2))",
    ),
    "IntMatrix": (
        IntMatrix(2, 2, ((1, 2), (3, 4))),
        IntMatrix.from_rows([[1, 2], [3, 4]]),
        IntMatrix(2, 2, ((1, 2), (3, 5))),
        (2, 2, ((1, 2), (3, 4))),
        "IntMatrix(rows=2, cols=2, entries=((1, 2), (3, 4)))",
    ),
    "SNFResult": (
        smith_normal_form(IntMatrix(1, 2, ((2, 4),))),
        SNFResult((2,), IntMatrix(2, 2, ((1, -2), (0, 1)))),
        SNFResult((2,), IntMatrix(2, 2, ((1, 2), (0, 1)))),
        ((2,), IntMatrix(2, 2, ((1, -2), (0, 1)))),
        "SNFResult(divisors=(2,), Q=IntMatrix(rows=2, cols=2, entries=((1, -2), (0, 1))))",
    ),
    "ColoringCensus": (
        ColoringCensus(3, 9, True, 3),
        ColoringCensus(modulus=3, total=9, nondegenerate=True, condition_o=3),
        ColoringCensus(3, 9, False, 3),
        (3, 9, True, 3),
        "ColoringCensus(modulus=3, total=9, nondegenerate=True, condition_o=3)",
    ),
    "LaurentMatrix": (
        LaurentMatrix(1, 2, ((ONE, T_INV),)),
        LaurentMatrix.from_rows([[LaurentPoly({0: 1}), LaurentPoly({-1: 1})]]),
        LaurentMatrix(1, 2, ((ONE, ONE),)),
        (1, 2, ((ONE, T_INV),)),
        "LaurentMatrix(rows=1, cols=2, entries=((LaurentPoly('1'), LaurentPoly('t^-1')),))",
    ),
    "BinaryDihedralElt": (
        BinaryDihedralElt(6, "R", 7),
        BinaryDihedralElt.r(3, 1),
        BinaryDihedralElt(6, "D", 1),
        (6, "R", 1),
        "BinaryDihedralElt(modulus=6, kind='R', angle=1)",
    ),
    "FreeWord": (
        FreeWord(2, (1, -2)),
        FreeWord(2, [1, 2, -2, -2]),
        FreeWord(2, (1, 2)),
        (2, (1, -2)),
        "FreeWord(rank=2, letters=(1, -2))",
    ),
    "Presentation": (
        Presentation(2, (FreeWord(2, (1, 2, -1, -2)),)),
        Presentation(2, (FreeWord(2, (1, 2, 2, -2, -1, -2)),)),
        Presentation(2, ()),
        (2, (FreeWord(2, (1, 2, -1, -2)),)),
        "Presentation(generators=2, relators=(FreeWord(rank=2, letters=(1, 2, -1, -2)),))",
    ),
    "Crossing": (
        Crossing(1, 2, 3, 1),
        Crossing(over=1, under_in=2, under_out=3, sign=1),
        Crossing(1, 2, 3, -1),
        (1, 2, 3, 1),
        "Crossing(over=1, under_in=2, under_out=3, sign=1)",
    ),
    "ClosureDiagram": (
        ClosureDiagram(2, (Crossing(1, 1, 2, 1),)),
        ClosureDiagram(arc_count=2, crossings=(Crossing(over=1, under_in=1, under_out=2, sign=1),)),
        ClosureDiagram(2, ()),
        (2, ((1, 1, 2, 1),)),
        "ClosureDiagram(arc_count=2, crossings=(Crossing(over=1, under_in=1, under_out=2, sign=1),))",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_hash_and_print_by_their_fields(name):
    value, twin, other, fields, text = RECORDS[name]
    assert type(value).__name__ == name
    assert value == twin and not value != twin and hash(value) == hash(twin)
    assert value != other and not value == other
    # the hash of the tuple of the fields, as a frozen dataclass or a NamedTuple hashes
    assert hash(value) == hash(fields)
    assert repr(value) == repr(twin) == text
    assert value != object() and value != None  # noqa: E711
    assert {value: 1}[twin] == 1


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment_and_deletion(name):
    value, twin = RECORDS[name][:2]
    # the first field, as the repr names it
    field = repr(value).split("(", 1)[1].split("=", 1)[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.no_such_field = 0
    assert getattr(value, field) is before and value == twin


def test_polynomials_refuse_assignment_and_copy_to_equal_values():
    f = LaurentPoly({-1: 2, 1: -3})
    for field in ("_low", "_cs"):
        with pytest.raises(AttributeError):
            setattr(f, field, getattr(f, field))
        with pytest.raises(AttributeError):
            delattr(f, field)
    assert f.dense == (-1, (2, 0, -3))
    for clone in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert type(clone) is LaurentPoly and clone == f and clone.dense == f.dense


@pytest.mark.parametrize("name", RECORDS)
def test_records_copy_and_pickle_to_equal_values(name):
    value = RECORDS[name][0]
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value and repr(clone) == repr(value)


def test_braid_word_checks_and_coerces_its_letters():
    assert BraidWord(3, [1, -2]).letters == (1, -2)
    assert type(BraidWord(3, [True]).letters[0]) is int
    assert BraidWord(1, ()).letters == ()
    with pytest.raises(ValueError, match="^a braid needs at least one strand$"):
        BraidWord(0, ())
    with pytest.raises(ValueError, match="^generator index 3 out of range for 3 strands$"):
        BraidWord(3, (1, 3))
    with pytest.raises(ValueError, match="^generator index 0 out of range for 3 strands$"):
        BraidWord(3, (1, 0))
    with pytest.raises(ValueError, match="^generator index -3 out of range for 3 strands$"):
        BraidWord(3, (-3,))


@pytest.mark.parametrize("matrix, entry", [(IntMatrix, 1), (LaurentMatrix, ONE)])
def test_matrices_check_their_shape(matrix, entry):
    assert matrix(0, 3, ()).cols == 3
    with pytest.raises(ValueError, match="^row count mismatch$"):
        matrix(2, 1, ((entry,),))
    with pytest.raises(ValueError, match="^matrix is not rectangular$"):
        matrix(2, 1, ((entry,), (entry, entry)))
    with pytest.raises(ValueError, match="^column count required for an empty matrix$"):
        matrix.from_rows([])


def test_binary_dihedral_element_checks_and_reduces():
    assert BinaryDihedralElt(6, "D", -1).angle == 5
    assert BinaryDihedralElt(10, "R", 23).angle == 3
    assert BinaryDihedralElt.d(3, 6) == BinaryDihedralElt.identity(3)
    for modulus in (4, 5, 8, 12):
        with pytest.raises(ValueError, match=r"^modulus must be 2m for an odd m >= 3$"):
            BinaryDihedralElt(modulus, "D", 0)
    with pytest.raises(ValueError, match="^kind must be 'D' or 'R'$"):
        BinaryDihedralElt(6, "X", 0)
    # read as properties, not called: a bound method would be truthy
    assert BinaryDihedralElt.identity(3).is_identity is True
    assert BinaryDihedralElt.d(3, 1).is_identity is False
    assert BinaryDihedralElt.r(3, 0).is_identity is False


def test_smith_result_reads_rank_and_columns():
    form = RECORDS["SNFResult"][0]
    assert (form.rank, form.cols) == (1, 2)
    census = RECORDS["ColoringCensus"][0]
    assert (census.modulus, census.total, census.nondegenerate, census.condition_o) == (3, 9, True, 3)
