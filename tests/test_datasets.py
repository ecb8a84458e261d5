import numpy as np
import pytest

from blindboost.boosting import gen_rlc
from blindboost.encoding import fold_labels, standardize
from blindboost.errors import NonBinaryLabels, ParseError
from blindboost.harness.datasets import gen_synthetic, load_csv


def test_load_csv_toy(tmp_path):
    f = tmp_path / "toy.csv"
    f.write_text("1.0,2.0,1\n3.5,-1.25,-1\n0.0,0.5,1\n")
    ds = load_csv(f)
    assert ds.n == 3 and ds.k == 2
    assert ds.y.tolist() == [1, -1, 1]
    assert ds.X[1, 1] == -1.25


def test_load_csv_zero_one_labels(tmp_path):
    f = tmp_path / "toy.csv"
    f.write_text("1,2,0\n3,4,1\n")
    ds = load_csv(f)
    assert ds.y.tolist() == [-1, 1]


def test_load_csv_header_and_mapping(tmp_path):
    f = tmp_path / "toy.csv"
    f.write_text("a,b,label\n1,2,g\n3,4,b\n")
    ds = load_csv(f, label_mapping={"g": 1, "b": -1})
    assert ds.n == 2
    assert ds.y.tolist() == [1, -1]


def test_load_csv_whitespace_delimited(tmp_path):
    f = tmp_path / "toy.data"
    f.write_text("1 2 1\n3 4 2\n")
    ds = load_csv(f, label_mapping={"1": 1, "2": -1})
    assert ds.y.tolist() == [1, -1]


def test_load_csv_malformed_cell_location(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1.0,2.0,1\n3.5,oops,-1\n")
    with pytest.raises(ParseError) as err:
        load_csv(f)
    assert err.value.row == 1
    assert err.value.column == 1


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_csv_non_finite_cell_location(tmp_path, cell):
    # standardize would drop such a column as "zero-variance" and train on
    f = tmp_path / "bad.csv"
    f.write_text(f"1.0,2.0,1\n3.5,4.0,-1\n0.5,{cell},1\n")
    with pytest.raises(ParseError, match="non-finite") as err:
        load_csv(f)
    assert (err.value.row, err.value.column) == (2, 1)


def test_load_csv_ragged_row(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1,2,1\n3,4\n")
    with pytest.raises(ParseError):
        load_csv(f)


def test_load_csv_non_binary_labels(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("1,2,1\n3,4,2\n5,6,3\n")
    with pytest.raises(NonBinaryLabels):
        load_csv(f)


def test_load_csv_label_column_middle(tmp_path):
    f = tmp_path / "toy.csv"
    f.write_text("1,1,2\n-1,3,4\n")
    ds = load_csv(f, label_column=0)
    assert ds.k == 2
    assert ds.y.tolist() == [1, -1]
    assert ds.X[1].tolist() == [3.0, 4.0]


def test_load_csv_label_column_out_of_range(tmp_path):
    # a column past either end is refused, not wrapped round onto a feature
    f = tmp_path / "toy.csv"
    f.write_text("0,5,1\n1,6,-1\n")
    for column in (3, -4, 7):
        with pytest.raises(ParseError, match=f"label column {column} outside"):
            load_csv(f, label_column=column)
    assert load_csv(f, label_column=-3).y.tolist() == load_csv(f, label_column=0).y.tolist()
    assert load_csv(f, label_column=2).y.tolist() == [1, -1]


def test_gen_synthetic_deterministic():
    a = gen_synthetic(100, 5, seed=9)
    b = gen_synthetic(100, 5, seed=9)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    c = gen_synthetic(100, 5, seed=10)
    assert not np.array_equal(a.X, c.X)


def test_gen_synthetic_balanced():
    ds = gen_synthetic(1001, 10, seed=1)
    assert abs((ds.y == 1).sum() - (ds.y == -1).sum()) <= 1


def test_gen_synthetic_linear_ceiling():
    # no random linear classifier (either orientation) beats 65%
    ds = gen_synthetic(4000, 10, seed=17)
    Z = fold_labels(standardize(ds)).Z
    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(1000):
        w = gen_rlc(10, rng)
        acc = max(float(((Z @ w) > 0).mean()), float(((Z @ -w) > 0).mean()))
        best = max(best, acc)
    assert best <= 0.65


def test_gen_synthetic_bounds():
    with pytest.raises(ValueError):
        gen_synthetic(5, 10, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(100, 1, seed=0)
