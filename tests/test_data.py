import re

import numpy as np
import pytest

from retline.data import (
    EOS_ID,
    PAD_ID,
    SOS_ID,
    LineSample,
    Vocab,
    augment,
    detokenize,
    dilate,
    erode,
    generate_dataset,
    glyph_advance,
    load_manifest,
    read_pgm,
    render_line,
    tokenize,
    write_pgm,
)
from retline.tensor import Tensor


class TestVocab:
    def test_specials_occupy_lowest_ids(self):
        assert (PAD_ID, SOS_ID, EOS_ID) == (0, 1, 2)
        v = Vocab("abc")
        assert v.char_to_id("a") == 3
        assert v.size == 6

    def test_bijective(self):
        v = Vocab("xyz")
        for c in "xyz":
            assert v.id_to_char(v.char_to_id(c)) == c

    def test_unknown_char_rejected(self):
        with pytest.raises(ValueError):
            Vocab("ab").char_to_id("z")

    def test_duplicate_chars_rejected(self):
        with pytest.raises(ValueError):
            Vocab("aa")


class TestTokenize:
    def test_round_trip_random_strings(self):
        rng = np.random.default_rng(0)
        v = Vocab("abcdefgh")
        for _ in range(1000):
            s = "".join(rng.choice(list(v.chars), size=rng.integers(0, 15)))
            ids = tokenize(s, v, max_text_len=20)
            assert detokenize(ids, v) == s

    def test_empty_text(self):
        v = Vocab("ab")
        ids = tokenize("", v, max_text_len=5)
        np.testing.assert_array_equal(ids, [SOS_ID, EOS_ID, PAD_ID, PAD_ID, PAD_ID])

    def test_padded_length_fixed(self):
        v = Vocab("ab")
        for s in ("", "a", "abba"):
            assert tokenize(s, v, max_text_len=8).shape == (8,)

    def test_structure(self):
        v = Vocab("ab")
        ids = tokenize("ba", v, 6)
        assert ids[0] == SOS_ID
        assert list(ids).count(EOS_ID) == 1
        # PAD only as suffix
        tail = list(ids[list(ids).index(EOS_ID) + 1:])
        assert tail == [PAD_ID] * len(tail)

    def test_overlong_rejected(self):
        with pytest.raises(ValueError):
            tokenize("aaaa", Vocab("a"), max_text_len=5)

    def test_unknown_char_rejected(self):
        with pytest.raises(ValueError):
            tokenize("q", Vocab("ab"), max_text_len=8)


class TestRender:
    def test_deterministic(self):
        a = render_line("abc", seed=3)
        b = render_line("abc", seed=3)
        np.testing.assert_array_equal(a.image.data, b.image.data)

    def test_width_linear_in_length(self):
        h = 32
        adv = glyph_advance(h)
        w1 = render_line("a", height=h).width
        w4 = render_line("abca", height=h).width
        assert w4 - w1 == 3 * adv

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_line("")

    def test_unknown_char_rejected(self):
        with pytest.raises(ValueError):
            render_line("a#b")

    def test_values_and_shape(self):
        s = render_line("ab", height=32)
        assert s.image.shape[0] == 1
        assert s.height == 32
        assert set(np.unique(s.image.data)) <= {0.0, 1.0}
        assert s.image.data.sum() > 0

    def test_distinct_glyphs_render_differently(self):
        a = render_line("a").image.data
        b = render_line("b").image.data
        assert a.shape == b.shape
        assert np.any(a != b)


class TestAugment:
    def sample(self):
        return render_line("abcd", height=32)

    def test_deterministic_given_seed(self):
        s = self.sample()
        a = augment(s, seed=11)
        b = augment(s, seed=11)
        np.testing.assert_array_equal(a.image.data, b.image.data)

    def test_all_gates_off_is_identity(self):
        s = self.sample()
        for seed in range(300):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
            if not (rng.random(6) < 0.5).any():
                out = augment(s, seed=seed)
                np.testing.assert_array_equal(out.image.data, s.image.data)
                return
        pytest.fail("no seed with all augmentation gates off in range")

    def test_erosion_dilation_mass_monotonicity(self):
        img = self.sample().image.data[0]
        assert erode(img).sum() <= img.sum()
        assert dilate(img).sum() >= img.sum()

    def test_transcript_never_changes(self):
        s = self.sample()
        for seed in range(20):
            assert augment(s, seed).transcript == s.transcript

    def test_range_and_height_preserved(self):
        s = self.sample()
        for seed in range(20):
            out = augment(s, seed)
            assert out.height == s.height
            assert out.image.data.min() >= 0.0
            assert out.image.data.max() <= 1.0


class TestPgm:
    def test_round_trip(self, tmp_path):
        img = np.linspace(0, 1, 12).reshape(3, 4)
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == (3, 4)
        assert np.max(np.abs(back - img)) <= 0.5 / 255

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        write_pgm(path, np.zeros((4, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(ValueError):
            read_pgm(path)

    def test_non_pgm_rejected(self, tmp_path):
        path = tmp_path / "not.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError):
            read_pgm(path)

    @pytest.mark.parametrize("raw", [
        b"P5\n4",
        b"P5\n4 2\n",
        b"P5\n4 2 255",
        b"P5\n4 2 # comment, no maxval",
        b"P5\nabc 2\n255\n" + bytes(8),
        b"P5\n4 2\nmax\n" + bytes(8),
        b"P5\n-4 2\n255\n" + bytes(8),
        b"P5\n4 2\n255\n" + bytes(3),
        b"P5\n0 2\n255\n",
        b"P5\n2 0\n255\n",
    ], ids=["no_height", "no_maxval", "no_pixels", "comment_to_end",
            "non_numeric_width", "non_numeric_maxval", "negative_width",
            "short_pixels", "zero_width", "zero_height"])
    def test_malformed_file_named(self, tmp_path, raw):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            read_pgm(path)


class TestManifest:
    def test_generate_then_load_round_trip(self, tmp_path):
        ds = generate_dataset(tmp_path, "abcd", count=6, min_len=2, max_len=5, seed=9)
        loaded = load_manifest(tmp_path / "manifest.tsv")
        assert len(loaded) == 6
        assert loaded.vocab.chars == "abcd"
        for orig, back in zip(ds.samples, loaded.samples):
            assert back.sample_id == orig.sample_id
            assert back.transcript == orig.transcript
            np.testing.assert_array_equal(back.image.data, orig.image.data)

    def test_generation_is_reproducible(self, tmp_path):
        a = generate_dataset(tmp_path / "a", "abc", 4, 2, 4, seed=5)
        b = generate_dataset(tmp_path / "b", "abc", 4, 2, 4, seed=5)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.transcript == sb.transcript
            np.testing.assert_array_equal(sa.image.data, sb.image.data)

    def test_duplicate_id_rejected(self, tmp_path):
        generate_dataset(tmp_path, "ab", count=1, min_len=2, max_len=2, seed=0)
        manifest = tmp_path / "manifest.tsv"
        line = manifest.read_text().strip()
        manifest.write_text(line + "\n" + line + "\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_manifest(manifest)

    def test_crlf_and_lf_parse_identically(self, tmp_path):
        generate_dataset(tmp_path, "ab", count=3, min_len=2, max_len=3, seed=1)
        manifest = tmp_path / "manifest.tsv"
        text = manifest.read_text()
        lf = load_manifest(manifest)
        manifest.write_bytes(text.replace("\n", "\r\n").encode())
        crlf = load_manifest(manifest)
        for a, b in zip(lf.samples, crlf.samples):
            assert a.transcript == b.transcript
            np.testing.assert_array_equal(a.image.data, b.image.data)

    def test_malformed_line_reports_line_number(self, tmp_path):
        generate_dataset(tmp_path, "ab", count=2, min_len=2, max_len=2, seed=2)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(manifest.read_text() + "only_two\tfields\n")
        with pytest.raises(ValueError, match=":3:"):
            load_manifest(manifest)

    def test_missing_image_rejected(self, tmp_path):
        generate_dataset(tmp_path, "ab", count=1, min_len=2, max_len=2, seed=3)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("x\timages/nope.pgm\tab\n")
        with pytest.raises(ValueError, match="missing image"):
            load_manifest(manifest)

    def test_out_of_vocab_transcript_rejected(self, tmp_path):
        generate_dataset(tmp_path, "ab", count=1, min_len=2, max_len=2, seed=4)
        manifest = tmp_path / "manifest.tsv"
        first = manifest.read_text().strip().split("\t")
        manifest.write_text(f"{first[0]}\t{first[1]}\tzz\n")
        with pytest.raises(ValueError, match="outside the vocabulary"):
            load_manifest(manifest)

    def test_sidecar_without_vocab_names_it(self, tmp_path):
        generate_dataset(tmp_path, "ab", count=1, min_len=2, max_len=2, seed=5)
        sidecar = tmp_path / "dataset.json"
        sidecar.write_text('{"chars": "ab"}')
        with pytest.raises(ValueError, match="vocab") as err:
            load_manifest(tmp_path / "manifest.tsv")
        assert str(sidecar) in str(err.value)

    def test_relabeling_preserves_geometry(self):
        # consistently renaming characters changes ids, not image geometry
        a = render_line("abab").image.data
        b = render_line("cdcd").image.data
        assert a.shape == b.shape
        va, vb = Vocab("ab"), Vocab("cd")
        ta = tokenize("abab", va, 8)
        tb = tokenize("cdcd", vb, 8)
        np.testing.assert_array_equal(ta, tb)
