import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lftc.corpus import (
    DEFAULT_SEPARATOR,
    Corpus,
    DatasetError,
    LabeledText,
    few_shot_sample,
    load_csv,
    save_csv,
)

from conftest import BUNDLED_DIGESTS, DATA_DIR, class_text, corpus_from


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_basic(tmp_path):
    path = write_csv(tmp_path, "label,text\na,first doc\na,second doc\nb,third doc\n")
    corpus = load_csv(path)
    assert len(corpus) == 3
    assert corpus.classes == {"a", "b"}
    assert corpus.samples[0] == LabeledText("a", b"first doc")
    assert corpus.name == "data"


def test_load_skips_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbflabel,text\na,first doc\nb,caf\xc3\xa9\n")
    corpus = load_csv(path)
    assert corpus.samples == (LabeledText("a", b"first doc"), LabeledText("b", b"caf\xc3\xa9"))


def test_load_by_index_headerless(tmp_path):
    path = write_csv(tmp_path, "x,doc one\ny,doc two\n")
    corpus = load_csv(path, label_column=0, text_column=1)
    assert [s.label for s in corpus.samples] == ["x", "y"]


def test_load_alternate_delimiter(tmp_path):
    path = write_csv(tmp_path, "label\ttext\na\tdoc one\n")
    corpus = load_csv(path, delimiter="\t")
    assert corpus.samples[0].text == b"doc one"


def test_load_quoted_multiline_field(tmp_path):
    path = write_csv(tmp_path, 'label,text\na,"line one\nline two"\n')
    corpus = load_csv(path)
    assert corpus.samples[0].text == b"line one\nline two"


def test_load_missing_file(tmp_path):
    with pytest.raises(DatasetError, match="not found"):
        load_csv(tmp_path / "nope.csv")


def test_load_empty_text_names_row(tmp_path):
    path = write_csv(tmp_path, "label,text\na,fine\nb,   \n")
    with pytest.raises(DatasetError, match="row 3"):
        load_csv(path)


def test_load_short_row_names_row(tmp_path):
    path = write_csv(tmp_path, "label,text\na\n")
    with pytest.raises(DatasetError, match="row 2"):
        load_csv(path)


@pytest.mark.parametrize("delimiter", ["", ";;", "\\t"])
def test_load_rejects_delimiter_not_one_character(tmp_path, delimiter):
    path = write_csv(tmp_path, "label,text\na,doc\n")
    with pytest.raises(DatasetError, match="delimiter must be one character"):
        load_csv(path, delimiter=delimiter)


@pytest.mark.parametrize("header", [True, False])
def test_load_oversized_field_names_file_and_row(tmp_path, header):
    # Over the csv module's field limit (131,072 characters by default),
    # which is process-wide and so is left as it is.
    rows = "a,short doc\nb," + "x" * 200_000 + "\n"
    path = write_csv(tmp_path, ("label,text\n" if header else "") + rows)
    columns = {} if header else {"label_column": 0, "text_column": 1}
    with pytest.raises(DatasetError, match=f"data.csv: row {3 if header else 2} ") as exc:
        load_csv(path, **columns)
    assert "field larger than field limit" in str(exc.value)


def test_load_unknown_column(tmp_path):
    path = write_csv(tmp_path, "label,text\na,doc\n")
    with pytest.raises(DatasetError, match="no column named 'body'"):
        load_csv(path, text_column="body")


@pytest.mark.parametrize("label_column, text_column", [(-1, 1), (0, -1), (-1, "text"), ("label", -2)])
def test_load_rejects_negative_column_index(tmp_path, label_column, text_column):
    # row[-1] would read the text as the label: every text its own class.
    path = write_csv(tmp_path, "label,text\na,doc one\nb,doc two\n")
    with pytest.raises(DatasetError, match="negative"):
        load_csv(path, label_column=label_column, text_column=text_column)


def test_load_extra_columns_ok(tmp_path):
    path = write_csv(tmp_path, "id,label,text\n1,a,doc one\n2,b,doc two\n")
    corpus = load_csv(path)
    assert corpus.classes == {"a", "b"}


csv_label = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=12
).filter(lambda s: s.strip() == s and s.strip())
# \x00 cannot be written by the csv module and \r\n normalization is lossy;
# both are outside the RFC 4180 text contract.
csv_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\x00"),
    min_size=1,
    max_size=60,
).filter(lambda s: s.strip())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(csv_label, csv_text), min_size=1, max_size=20))
def test_csv_round_trip(tmp_path_factory, rows):
    corpus = Corpus(
        name="rt",
        samples=tuple(LabeledText(l, t.encode()) for l, t in rows),
    )
    path = tmp_path_factory.mktemp("rt") / "corpus.csv"
    save_csv(corpus, path)
    loaded = load_csv(path, name="rt")
    assert loaded == corpus


# class_text (conftest) is the tests' reference for the bytes a span names.

def test_concat_single_element():
    corpus = corpus_from([("a", b"abc")])
    assert class_text(corpus, "a") == b"abc"


def test_concat_join_order():
    corpus = corpus_from([("a", b"ab"), ("b", b"zz"), ("a", b"cd")])
    assert class_text(corpus, "a") == b"ab\ncd"


def test_concat_unknown_class():
    corpus = corpus_from([("a", b"abc")])
    with pytest.raises(KeyError):  # by_class has no entry for it
        class_text(corpus, "zzz")


def test_concat_length_identity(bundled_train):
    for class_id in bundled_train.classes:
        member_lens = [len(s.text) for s in bundled_train.samples if s.label == class_id]
        expect = sum(member_lens) + (len(member_lens) - 1) * len(DEFAULT_SEPARATOR)
        assert len(class_text(bundled_train, class_id)) == expect


def test_fewshot_forced_selection():
    corpus = corpus_from([("a", b"one"), ("b", b"two")])
    sub = few_shot_sample(corpus, shots=1, seed=9)
    assert set(sub.samples) == set(corpus.samples)


def test_fewshot_draw_is_pinned(bundled_train):
    # _draw_rank is a keyed blake2b, so the draw is the same on every
    # platform and Python version.
    sub = few_shot_sample(bundled_train, 2, 0, 0)
    picked = [i for i, s in enumerate(bundled_train.samples) if s in sub.samples]
    assert picked == [21, 33, 50, 75, 81, 99]
    assert sub.samples == tuple(bundled_train.samples[i] for i in picked)


def test_fewshot_cardinality(bundled_train):
    sub = few_shot_sample(bundled_train, shots=5, seed=1, trial_index=1)
    assert len(sub) == 5 * len(bundled_train.classes)
    counts = {c: 0 for c in bundled_train.classes}
    for s in sub.samples:
        counts[s.label] += 1
    assert all(v == 5 for v in counts.values())


def test_fewshot_deterministic(bundled_train):
    a = few_shot_sample(bundled_train, 3, 42, 2)
    b = few_shot_sample(bundled_train, 3, 42, 2)
    assert a.samples == b.samples


def test_fewshot_trials_differ(bundled_train):
    draws = {few_shot_sample(bundled_train, 3, 42, t).samples for t in range(5)}
    assert len(draws) > 1


def test_fewshot_infeasible_class_named():
    corpus = corpus_from([("a", b"one"), ("a", b"two"), ("b", b"three")])
    with pytest.raises(DatasetError, match="'b' has 1 samples"):
        few_shot_sample(corpus, shots=2, seed=0)


def test_fewshot_needs_one_shot(bundled_train):
    with pytest.raises(DatasetError, match="shots must be >= 1"):
        few_shot_sample(bundled_train, shots=0, seed=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=-(2**63), max_value=2**63 - 1),
       trial=st.integers(min_value=0, max_value=4))
def test_fewshot_label_sets_property(bundled_train, seed, trial):
    sub = few_shot_sample(bundled_train, 2, seed, trial)
    labels = [s.label for s in sub.samples]
    assert sorted(set(labels)) == sorted(bundled_train.classes)
    assert all(labels.count(c) == 2 for c in bundled_train.classes)


def test_corpus_rejects_empty_text():
    with pytest.raises(DatasetError):
        LabeledText("a", b"")


def test_corpus_rejects_empty_label():
    with pytest.raises(DatasetError):
        LabeledText("", b"text")


def test_digest_is_order_sensitive():
    c1 = corpus_from([("a", b"x"), ("b", b"y")])
    c2 = corpus_from([("b", b"y"), ("a", b"x")])
    assert c1.digest() != c2.digest()
    assert c1.digest() == corpus_from([("a", b"x"), ("b", b"y")]).digest()


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS))
def test_digest_of_the_bundled_split_is_pinned(name):
    assert load_csv(DATA_DIR / name).digest() == BUNDLED_DIGESTS[name]
