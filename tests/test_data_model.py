import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from elicitrec.data_model import (
    Dataset,
    FeatureSchema,
    PROVENANCE_COLUMN,
    ROLE_CONTEXT,
    ROLE_TECHNIQUE,
    SyntheticSpec,
    derive_seed,
    drop_constant_features,
    generate_synthetic,
    load_csv,
    minority_label,
    select_features,
    split_train_test,
    csv_text,
    write_csv,
)

from conftest import make_dataset


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


BASIC = "color,size,target\nred,small,1\nblue,large,0\nred,large,1\n"


class TestLoadCsv:
    def test_first_appearance_coding(self, tmp_path):
        d = load_csv(write(tmp_path, BASIC), "target")
        assert d.feature_names == ("color", "size")
        assert d.schema[0].levels == ("red", "blue")
        assert d.schema[1].levels == ("small", "large")
        assert d.X.tolist() == [[0, 0], [1, 1], [0, 1]]
        assert d.y.tolist() == [1, 0, 1]
        assert d.target_levels == ("0", "1")

    def test_roles_applied(self, tmp_path):
        d = load_csv(write(tmp_path, BASIC), "target", role_map={"size": ROLE_TECHNIQUE})
        assert d.schema[0].role == ROLE_CONTEXT
        assert d.schema[1].role == ROLE_TECHNIQUE

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv", "target")

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_csv(write(tmp_path, ""), "target")

    def test_header_only(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(write(tmp_path, "a,target\n"), "target")

    def test_missing_target_column(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_csv(write(tmp_path, BASIC), "label")

    def test_duplicate_columns(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(write(tmp_path, "a,a,target\n1,2,0\n3,4,1\n"), "target")

    def test_ragged_row(self, tmp_path):
        with pytest.raises(ValueError, match="row 3"):
            load_csv(write(tmp_path, "a,target\nx,1\ny\n"), "target")

    def test_missing_value(self, tmp_path):
        with pytest.raises(ValueError, match="missing value"):
            load_csv(write(tmp_path, "a,target\nx,1\n,0\n"), "target")

    def test_first_bad_row_is_reported(self, tmp_path):
        # row 3 lacks a value and row 4 a cell: the earlier row is named
        with pytest.raises(ValueError, match="missing value in row 3"):
            load_csv(write(tmp_path, "a,target\nx,1\n,0\ny\n"), "target")

    @pytest.mark.parametrize("header", ["a,target", "target,a"])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, header):
        rows = {"a,target": "x,1\ny,0\n", "target,a": "1,x\n0,y\n"}[header]
        d = load_csv(write(tmp_path, "\ufeff" + header + "\n" + rows), "target", role_map={"a": ROLE_TECHNIQUE})
        assert d.feature_names == ("a",)
        assert d.schema[0].role == ROLE_TECHNIQUE
        assert d.y.tolist() == [1, 0]

    @pytest.mark.parametrize("quoted", [False, True])
    def test_cell_over_the_field_limit_names_the_row(self, tmp_path, quoted):
        limit = csv.field_size_limit()
        cell = '"' + "x" * (limit + 1) + '"' if quoted else "x" * (limit + 1)
        with pytest.raises(ValueError, match=r"data\.csv: row 3: field larger than field limit"):
            load_csv(write(tmp_path, f"a,target\nx,1\n{cell},0\n"), "target")

    def test_field_limit_counts_characters(self, tmp_path):
        # at the limit in characters but twice it in bytes
        d = load_csv(write(tmp_path, "a,target\n" + "é" * csv.field_size_limit() + ",1\ny,0\n"), "target")
        assert [len(v) for v in d.schema[0].levels] == [csv.field_size_limit(), 1]

    @pytest.mark.parametrize("text", [b"a,target\nx,1\ny\xff,0\n", b'a,target\r\nx,1\r\n"y\xff",0\r\n'])
    def test_invalid_utf8_names_the_file_and_line(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text)
        with pytest.raises(ValueError, match=r"data\.csv: line 3 is not valid UTF-8"):
            load_csv(path, "target")

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_a_cell_and_the_same_cell_with_a_nul_are_two_levels(self, tmp_path, ending):
        text = ending.join(["a,target", "x,1", "x\0,0", "x,1", "x\0\0,0", ""])
        d = load_csv(write(tmp_path, text), "target")
        assert d.schema[0].levels == ("x", "x\0", "x\0\0")
        assert d.X[:, 0].tolist() == [0, 1, 0, 2]

    def test_non_binary_target(self, tmp_path):
        with pytest.raises(ValueError, match="non-binary"):
            load_csv(write(tmp_path, "a,target\nx,1\ny,2\nz,3\n"), "target")

    def test_string_target_needs_positive_label(self, tmp_path):
        text = "a,target\nx,yes\ny,no\n"
        with pytest.raises(ValueError, match="positive label"):
            load_csv(write(tmp_path, text), "target")
        d = load_csv(write(tmp_path, text), "target", positive_label="yes")
        assert d.y.tolist() == [1, 0]
        assert d.target_levels == ("no", "yes")

    def test_unknown_positive_label(self, tmp_path):
        with pytest.raises(ValueError, match="positive label"):
            load_csv(write(tmp_path, BASIC), "target", positive_label="2")

    def test_provenance_column(self, tmp_path):
        text = f"a,target,{PROVENANCE_COLUMN}\nx,1,0\ny,0,1\n"
        d = load_csv(write(tmp_path, text), "target")
        assert d.feature_names == ("a",)
        assert d.synthetic.tolist() == [False, True]

    def test_bad_provenance_value(self, tmp_path):
        text = f"a,target,{PROVENANCE_COLUMN}\nx,1,0\ny,0,maybe\n"
        with pytest.raises(ValueError, match=PROVENANCE_COLUMN):
            load_csv(write(tmp_path, text), "target")

    def test_schema_reuse_encodes_with_stored_levels(self, tmp_path):
        d1 = load_csv(write(tmp_path, BASIC), "target")
        # column order shuffled relative to the schema
        text = "size,color,target\nlarge,blue,0\nsmall,red,1\n"
        d2 = load_csv(write(tmp_path, text, "other.csv"), "target", schema=d1.schema)
        assert d2.feature_names == ("color", "size")
        assert d2.X.tolist() == [[1, 1], [0, 0]]

    def test_schema_reuse_rejects_unknown_level(self, tmp_path):
        d1 = load_csv(write(tmp_path, BASIC), "target")
        text = "color,size,target\ngreen,small,1\nred,large,0\n"
        with pytest.raises(ValueError, match="green"):
            load_csv(write(tmp_path, text, "other.csv"), "target", schema=d1.schema)

    def test_schema_reuse_missing_column(self, tmp_path):
        d1 = load_csv(write(tmp_path, BASIC), "target")
        text = "color,target\nred,1\nblue,0\n"
        with pytest.raises(ValueError, match="size"):
            load_csv(write(tmp_path, text, "other.csv"), "target", schema=d1.schema)


class TestWriteCsv:
    def test_round_trip(self, tmp_path):
        d = load_csv(write(tmp_path, BASIC), "target")
        out = tmp_path / "out.csv"
        write_csv(d, out)
        assert out.read_text(encoding="utf-8") == BASIC

    def test_provenance_round_trip(self, tmp_path):
        d = load_csv(write(tmp_path, BASIC), "target")
        out = tmp_path / "out.csv"
        write_csv(d, out, include_provenance=True)
        d2 = load_csv(out, "target")
        assert d2.synthetic.tolist() == [False, False, False]
        assert d2.X.tolist() == d.X.tolist()

    def test_levels_that_need_quoting(self, tmp_path):
        # a comma, a double quote, a newline, a leading space and the empty
        # level; the bytes must equal a per-row csv.writer's
        levels = ("a,b", 'say "hi"', "two\nlines", " lead", "plain", "")
        d = Dataset(
            schema=(
                FeatureSchema("x,1", ROLE_CONTEXT, levels),
                FeatureSchema("x2", ROLE_TECHNIQUE, ("", 'q"')),
            ),
            target_name='t"',
            X=[[0, 0], [1, 1], [2, 0], [3, 1], [4, 0], [5, 1], [5, 0]],
            y=[0, 1, 0, 1, 1, 0, 1],
            synthetic=[False, True, False, False, True, False, True],
            target_levels=("no,pe", ""),
        )
        for provenance in (False, True):
            header = ["x,1", "x2", 't"'] + [PROVENANCE_COLUMN] * provenance
            rows = [
                d.decode_row(i) + [d.target_levels[d.y[i]]] + [str(int(d.synthetic[i]))] * provenance
                for i in range(d.n_rows)
            ]
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows([header] + rows)
            text = csv_text(d, include_provenance=provenance)
            assert text == buf.getvalue()
            assert list(csv.reader(io.StringIO(text, newline=""))) == [header] + rows
        # load_csv rejects empty cells; every other level loads back as written
        d = make_dataset([[0], [1], [2], [3], [4]], [0, 1, 0, 1, 1], names=["x,1"])
        d = replace(d, schema=(FeatureSchema("x,1", ROLE_CONTEXT, levels[:5]),))
        out = tmp_path / "quoted.csv"
        write_csv(d, out)
        back = load_csv(out, "target")
        assert back.schema == d.schema
        assert back.X.tolist() == d.X.tolist()


class TestDatasetValidation:
    def test_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            make_dataset([[5]], [1], levels=[2])

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            make_dataset([[0], [1]], [0, 2])

    def test_arrays_read_only(self):
        d = make_dataset([[0], [1]], [0, 1])
        with pytest.raises(ValueError):
            d.X[0, 0] = 1


class TestPreprocessing:
    def test_drop_constant_features(self):
        d = make_dataset([[0, 1, 0], [0, 0, 1]], [0, 1])
        out = drop_constant_features(d)
        assert out.feature_names == ("f1", "f2")
        assert out.X.tolist() == [[1, 0], [0, 1]]

    def test_drop_constant_noop_returns_same(self):
        d = make_dataset([[0, 1], [1, 0]], [0, 1])
        assert drop_constant_features(d) is d

    def test_drop_constant_all_constant(self):
        d = make_dataset([[0], [0]], [0, 1])
        with pytest.raises(ValueError, match="constant"):
            drop_constant_features(d)

    def test_select_features_keeps_given_order(self):
        d = make_dataset([[0, 1, 2], [1, 0, 1]], [0, 1], levels=[2, 2, 3])
        out = select_features(d, ["f2", "f0"])
        assert out.feature_names == ("f2", "f0")
        assert out.X.tolist() == [[2, 0], [1, 1]]

    def test_select_features_unknown(self):
        d = make_dataset([[0], [1]], [0, 1])
        with pytest.raises(ValueError, match="nope"):
            select_features(d, ["nope"])


class TestSplit:
    def test_sizes_and_partition(self):
        rng = np.random.default_rng(0)
        d = make_dataset(rng.integers(0, 3, size=(50, 2)), rng.integers(0, 2, 50),
                         levels=[3, 3])
        train, test = split_train_test(d, 0.2, seed=4)
        assert test.n_rows == round(50 * 0.2)
        assert train.n_rows == 40
        combined = np.vstack([train.X, test.X])
        assert sorted(map(tuple, combined.tolist())) == sorted(map(tuple, d.X.tolist()))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        d = make_dataset(rng.integers(0, 2, size=(30, 2)), rng.integers(0, 2, 30))
        a = split_train_test(d, 0.3, seed=9)
        b = split_train_test(d, 0.3, seed=9)
        assert np.array_equal(a[0].X, b[0].X) and np.array_equal(a[1].X, b[1].X)
        c = split_train_test(d, 0.3, seed=10)
        assert not np.array_equal(a[1].X, c[1].X)

    def test_degenerate_fraction(self):
        d = make_dataset([[0], [1], [0]], [0, 1, 0])
        with pytest.raises(ValueError):
            split_train_test(d, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_train_test(d, 0.95, seed=0)  # empty train


class TestSummaries:
    def test_minority_label(self):
        assert minority_label(make_dataset([[0], [1], [0]], [1, 1, 0])) == 0
        assert minority_label(make_dataset([[0], [1], [0]], [0, 0, 1])) == 1
        # tie goes to label 0
        assert minority_label(make_dataset([[0], [1]], [0, 1])) == 0

    def test_minority_label_single_class(self):
        with pytest.raises(ValueError, match="single-class"):
            minority_label(make_dataset([[0], [1]], [1, 1]))


class TestGenerateSynthetic:
    def test_shape_and_counts(self, skewed_dataset):
        d = skewed_dataset
        assert (d.n_rows, d.n_features) == (323, 27)
        assert int(d.y.sum()) == 282  # majority class is the positive one
        assert not d.synthetic.any()

    def test_roles_split(self, skewed_dataset):
        roles = [f.role for f in skewed_dataset.schema]
        assert roles.count(ROLE_CONTEXT) == 14
        assert roles.count(ROLE_TECHNIQUE) == 13

    def test_deterministic(self):
        spec = SyntheticSpec(n_majority=30, n_minority=10, p=5, n_informative=2, seed=3)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_seed_changes_data(self):
        s1 = SyntheticSpec(n_majority=30, n_minority=10, p=5, n_informative=2, seed=3)
        s2 = SyntheticSpec(n_majority=30, n_minority=10, p=5, n_informative=2, seed=4)
        assert not np.array_equal(generate_synthetic(s1).X, generate_synthetic(s2).X)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_majority=10, n_minority=20, p=5, n_informative=2)
        with pytest.raises(ValueError):
            SyntheticSpec(n_majority=20, n_minority=10, p=5, n_informative=9)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        assert derive_seed(7, 0) == derive_seed(7, 0)
        streams = {derive_seed(7, k) for k in range(8)}
        assert len(streams) == 8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 0)
