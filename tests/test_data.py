import hashlib
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
from retline.fonts import SUPPORTED_CHARS
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


# sha256 of render_line pixels and of generate_dataset's files, captured
# before render_line stopped scaling glyphs with np.kron; the texts cover
# every builtin glyph
PINNED_RENDER_TEXTS = ("the quick brown fox", "jumps over a lazy dog",
                       "0123456789", "vwxyz k")
PINNED_RENDER = {
    16: (
        "120ca203c90eefd8ddc8603fa01ad3e31b52e2f9cd4933ca155a8644b66d1279",
        "85bc6230870963711c7d92bf42604974814a6c344a51a6be96fab613524f5330",
        "c6cabf2c2be497a9651ac22f184a48afee11228676217bfb8a00fa2274a6d819",
        "9be781a4d6556f6a7c055fb2c72e0f71996356d862ea5817567edfbb4b25b3c6",
    ),
    32: (
        "bd141163448c98ad542cf282155818e509996d2dab1605476af4bfb99aa5f5fa",
        "a12c2effd2402ba3c8098ff511235e5174ee110ffd73d2ee11d043d92b66a2eb",
        "feddc4b938b3e46218e580b20c7f47bc733ebbed5c76d2038f351c43a6c97fb5",
        "57955e1cf95454cf292800e6a69a6fe8a4394d4bd57d98f1c24b2e6866ace808",
    ),
    48: (
        "9f70d9395469a56d44746e2e17eb944fd3c81f298411d26d8620a70ca23a5802",
        "12c04250293ee3e6b89580285abedd4b1d53fd52192f5375253be92a0022df05",
        "b36ba81dedee1e211920e1c2f707e1f5c80bbe6fa6737d591e1bcfe2d84013d9",
        "27ba89c38eb5f7b61a90a33c07f6683a7609161cb7c0d7e1135c0d9f2b3d77e5",
    ),
}
PINNED_DATASET_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789 "
PINNED_DATASET = {
    False: {
        "dataset.json":
            "3558a3be87b179f54cd5bad2b9747c1983ed53d32fa81e98f480df1f579ddf1e",
        "manifest.tsv":
            "40e5ee04c8ee19204e518a75d89d7bc1e949593e863a8f180ef0a0f263407d3f",
        "images/line00000.pgm":
            "1a724b4d073d44d20345d60c66468024cee3a0556bee9e4f8eca5a549ca72f5a",
        "images/line00001.pgm":
            "74613a61fd8776726f9695fbc1526d9861882ed8ace63d02a1cbbd91e23bf587",
        "images/line00002.pgm":
            "54e2fd33654ee48a29b9f2987c99f3a26f7b0accb82a3e0ebce56f5db842529c",
        "images/line00003.pgm":
            "3848df1a4e364336cce932cca4437f7f6c2a22d8ae6e990c7800d0073b958b90",
        "images/line00004.pgm":
            "368aeca27e847d1c774f859a80cd491d43093751f155903cc72ff6b57594d7ad",
        "images/line00005.pgm":
            "dabc5756bacf15ce16a14b290b5d5ea024f3b9f2b8c85a376f771e64e75b0dd8",
    },
    True: {
        "dataset.json":
            "30cd6a79cc612fec31e7d0561a89cd49e77c2e8f2275646e7a160b24b443828b",
        "manifest.tsv":
            "d280536d063677139bc4ab9a5f62813c705024d2f6fb52683a8216b99052d769",
        "images/line00000.pgm":
            "8016c61b6678875cc9a923bf9549b4aeb64cc9223ae459099d883b1defda87bd",
        "images/line00001.pgm":
            "fb53a340a77f6dc0874b36ec24aa09f7102024cc86e5649894a99cf275f60167",
        "images/line00002.pgm":
            "3a72899f49b0bafd4ff0cc2667bb9e5cb0f240cb836654d09484fb333306dcbe",
        "images/line00003.pgm":
            "e7fca904c90a51036e916068dccd6895ab8d52340b44e3ada40b1f3c6d91a3b4",
        "images/line00004.pgm":
            "ef728689d7720d35fbc2d7704828b891e213363192289f1be9c003e261f0678d",
        "images/line00005.pgm":
            "2eefc497a96a601b9ee9dbd796e8209993c9df18fff407a00b8618feed280911",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedRenderDigests:
    def test_texts_cover_every_glyph(self):
        assert set("".join(PINNED_RENDER_TEXTS)) == set(SUPPORTED_CHARS)

    @pytest.mark.parametrize("height", sorted(PINNED_RENDER))
    def test_render_line_pixels(self, height):
        digests = tuple(_sha256(render_line(t, height).image.data.tobytes())
                        for t in PINNED_RENDER_TEXTS)
        assert digests == PINNED_RENDER[height]

    @pytest.mark.parametrize("augment_lines", [False, True])
    def test_generate_dataset_files(self, tmp_path, augment_lines):
        generate_dataset(tmp_path, PINNED_DATASET_CHARS, count=6, min_len=3,
                         max_len=20, height=32, seed=41,
                         augment_lines=augment_lines)
        written = {path.relative_to(tmp_path).as_posix(): _sha256(path.read_bytes())
                   for path in tmp_path.rglob("*") if path.is_file()}
        assert written == PINNED_DATASET[augment_lines]
