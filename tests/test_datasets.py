import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import reference_dataset

from wasslip.datasets import CSV_BLOCK_ROWS, dataset_fingerprint, gen_data, load_dataset_csv, save_dataset_csv
from wasslip.io import InputFileError
from wasslip.measures import PointSet


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Cells the two parsers must agree on: underscores, padding and non-ASCII
# digits that int()/float() accept, non-finite spellings, hex, empty cells and
# a label too big for int64.
ODD_CELLS = ["1_0", " 1", "1.0", "١٢", "nan", "1e400", "-0", "0x10", "", "-1", "99999999999999999999"]
PLAIN_CELLS = ["0", "1", "2", "0.5", "-2.25", "1e-320"]
CELL = st.sampled_from(ODD_CELLS) | st.sampled_from(PLAIN_CELLS)


@st.composite
def dataset_texts(draw):
    width = draw(st.integers(2, 3))
    # column names are free text: only data rows obey the number grammar
    header = ",".join(["label"] + [draw(st.sampled_from([f"x{i}", f"x_{i}", f"é{i}"])) for i in range(width - 1)])
    good_row = st.lists(st.sampled_from(PLAIN_CELLS[:3]), min_size=width, max_size=width)
    row = good_row | st.lists(CELL, min_size=width, max_size=width) | st.lists(CELL, min_size=1, max_size=4)
    lines = [",".join(cells) for cells in draw(st.lists(row, min_size=0, max_size=5))]
    blanks = draw(st.lists(st.integers(0, len(lines)), max_size=2))
    for at in sorted(blanks, reverse=True):
        lines.insert(at, draw(st.sampled_from(["", "  "])))
    return "\n".join([header] + lines) + "\n"


class TestParser:
    @given(dataset_texts())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_accepts_exactly_what_the_reference_accepts(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("parse") / "data.csv"
        path.write_text(text, encoding="utf-8")
        expected = reference_dataset(text)
        if isinstance(expected, tuple):
            xs, ys, k = expected
            points, digest = load_dataset_csv(path)
            assert points.xs.tobytes() == xs.tobytes() and points.xs.shape == xs.shape
            assert np.array_equal(points.ys, ys) and points.label_count == k
            assert digest == sha256_text(text[:-1])
        else:
            where = f"{path}:{expected}: " if expected is not None else f"{path}: "
            with pytest.raises(InputFileError) as err:
                load_dataset_csv(path)
            assert str(err.value).startswith(where)

    def test_padding_and_free_column_names_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,x_0,é\n 1 ,0.5,\t2\n0,1,1\n", encoding="utf-8")
        points, _ = load_dataset_csv(path)
        assert points.ys.tolist() == [1, 0] and points.xs.tolist() == [[0.5, 2.0], [1.0, 1.0]]


class TestDigest:
    @pytest.mark.parametrize(
        "kind, n, k, dim",
        [
            ("gaussian-blobs", 30, 2, 3),
            ("gaussian-blobs", 30, 10, 3),
            ("two-moons", 20, 2, 2),
            ("grid", 16, 2, 2),
            ("grid", 16, 10, 2),
        ],
    )
    def test_saved_file_hashes_as_the_generated_points(self, tmp_path, kind, n, k, dim):
        points = gen_data(kind, n, k, dim, seed=4)
        path = tmp_path / "d.csv"
        save_dataset_csv(points, path)
        back, digest = load_dataset_csv(path)
        assert digest == dataset_fingerprint(points)
        assert np.array_equal(back.xs, points.xs) and np.array_equal(back.ys, points.ys) and back.label_count == k

    def test_non_canonical_float_hashes_as_its_own_text(self, tmp_path):
        text = "label,x0\n0,0.50\n1,1.5"
        path = tmp_path / "d.csv"
        path.write_text(text + "\n", encoding="utf-8")
        points, digest = load_dataset_csv(path)
        assert digest == sha256_text(text)
        assert digest != dataset_fingerprint(points) == sha256_text("label,x0\n0,0.5\n1,1.5")

    def test_crlf_copy_hashes_as_the_lf_file(self, tmp_path):
        save_dataset_csv(gen_data("gaussian-blobs", 12, 3, 2, seed=1), tmp_path / "lf.csv")
        lf = (tmp_path / "lf.csv").read_bytes()
        (tmp_path / "crlf.csv").write_bytes(lf.replace(b"\n", b"\r\n"))
        assert b"\r\n" in (tmp_path / "crlf.csv").read_bytes()
        assert load_dataset_csv(tmp_path / "crlf.csv")[1] == load_dataset_csv(tmp_path / "lf.csv")[1]


def one_string_csv(points: PointSet) -> str:
    """The dataset file's text built in one string: the header, then one
    ``label,x0,x1,...`` row per sample with 17-digit floats."""
    row = "%d," + ",".join(["%.17g"] * points.dim)
    lines = ["label," + ",".join(f"x{i}" for i in range(points.dim))]
    lines += [row % (y, *x) for y, x in zip(points.ys.tolist(), points.xs.tolist())]
    return "\n".join(lines) + "\n"


class TestBlocks:
    B = CSV_BLOCK_ROWS

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 1])
    def test_block_edges_write_and_hash_the_one_string_text(self, tmp_path, n, dim):
        rng = np.random.default_rng([n, dim])
        xs = rng.standard_normal((n, dim)) * np.ldexp(1.0, rng.integers(-70, 70, (n, dim)))
        points = PointSet(xs, rng.integers(0, 12, n), 12)
        path = tmp_path / "d.csv"
        save_dataset_csv(points, path)
        text = path.read_bytes()
        assert text == one_string_csv(points).encode("utf-8")
        digest = dataset_fingerprint(points)
        assert digest == hashlib.sha256(text[:-1]).hexdigest() == load_dataset_csv(path)[1]

    def test_save_and_fingerprint_hold_under_a_quarter_of_the_file(self, tmp_path):
        # the whole text in one string peaks at 3.4 times the file's size
        points = gen_data("gaussian-blobs", 20_000, 10, 8, seed=3)
        path = tmp_path / "d.csv"
        peaks = []
        tracemalloc.start()
        try:
            for run in (lambda: save_dataset_csv(points, path), lambda: dataset_fingerprint(points)):
                tracemalloc.reset_peak()
                held = tracemalloc.get_traced_memory()[0]
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            tracemalloc.stop()
        assert max(peaks) < path.stat().st_size / 4, (peaks, path.stat().st_size)
