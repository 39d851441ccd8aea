"""Synthetic text-line dataset machinery: vocabulary, tokenization, rendering,
augmentation, and manifest IO.

Images are grayscale in [0, 1] with the stroke near 1 on a dark background
(pre-inverted), at a fixed line height. Rendering is deterministic given
(text, seed); augmentation draws every decision from named substreams of the
given seed so datasets reproduce exactly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from .fonts import GLYPH_HEIGHT, GLYPH_WIDTH, glyph_strip, has_glyph
from .tensor import Tensor

PAD_ID = 0
SOS_ID = 1
EOS_ID = 2
NUM_SPECIALS = 3

DEFAULT_HEIGHT = 32
_MARGIN = 2


@dataclass(frozen=True)
class Vocab:
    """Closed character set plus the three special ids (PAD=0, SOS=1, EOS=2)."""

    chars: str

    def __post_init__(self):
        if len(set(self.chars)) != len(self.chars):
            raise ValueError("vocabulary characters must be unique")
        if len(self.chars) == 0:
            raise ValueError("vocabulary must contain at least one character")

    @classmethod
    def from_texts(cls, texts) -> "Vocab":
        return cls("".join(sorted(set("".join(texts)))))

    @property
    def size(self) -> int:
        return len(self.chars) + NUM_SPECIALS

    def char_to_id(self, char: str) -> int:
        idx = self.chars.find(char)
        if idx < 0:
            raise ValueError(f"character {char!r} is not in the vocabulary")
        return idx + NUM_SPECIALS

    def id_to_char(self, token: int) -> str:
        if not NUM_SPECIALS <= token < self.size:
            raise ValueError(f"id {token} is not a character id")
        return self.chars[token - NUM_SPECIALS]


def tokenize(text: str, vocab: Vocab, max_text_len: int) -> np.ndarray:
    """SOS + character ids + EOS, padded with PAD to max_text_len."""
    if len(text) + 2 > max_text_len:
        raise ValueError(
            f"text of {len(text)} characters does not fit max_text_len={max_text_len}"
        )
    ids = [SOS_ID] + [vocab.char_to_id(c) for c in text] + [EOS_ID]
    ids.extend([PAD_ID] * (max_text_len - len(ids)))
    return np.array(ids, dtype=np.int64)


def detokenize(ids, vocab: Vocab) -> str:
    """Drop specials and map ids back to characters; stops at the first EOS."""
    chars = []
    for token in np.asarray(ids).tolist():
        if token == EOS_ID:
            break
        if token in (PAD_ID, SOS_ID):
            continue
        chars.append(vocab.id_to_char(int(token)))
    return "".join(chars)


@dataclass(frozen=True)
class LineSample:
    """One rendered line: grayscale image (1, h, w) in [0, 1] plus transcript."""

    image: Tensor
    transcript: str
    sample_id: str

    @property
    def height(self) -> int:
        return self.image.shape[1]

    @property
    def width(self) -> int:
        return self.image.shape[2]


def glyph_advance(height: int) -> int:
    scale = (height - 2 * _MARGIN) // GLYPH_HEIGHT
    if scale < 1:
        raise ValueError(f"line height {height} is too small for the builtin font")
    return (GLYPH_WIDTH + 1) * scale


def render_line(text: str, height: int = DEFAULT_HEIGHT, seed: int = 0,
                sample_id: str | None = None) -> LineSample:
    """Lay glyphs left to right with fixed spacing, scaled to the line height,
    stroke = 1 on background 0. Deterministic for a given (text, seed)."""
    if not text:
        raise ValueError("cannot render an empty transcript")
    for c in text:
        if not has_glyph(c):
            raise ValueError(f"no glyph for character {c!r}")
    advance = glyph_advance(height)
    scale = advance // (GLYPH_WIDTH + 1)
    width = 2 * _MARGIN + advance * len(text)
    img = np.zeros((height, width))
    top = (height - GLYPH_HEIGHT * scale) // 2
    # each glyph cell, spacing column included, scaled by exact repetition
    img[top:top + GLYPH_HEIGHT * scale, _MARGIN:width - _MARGIN] = (
        glyph_strip(text).repeat(scale, axis=0).repeat(scale, axis=1))
    return LineSample(
        image=Tensor(img[None, :, :]),
        transcript=text,
        sample_id=sample_id if sample_id is not None else f"r{seed}_{text[:8]}",
    )


# ---------------------------------------------------------------------------
# augmentation


def _windows3(img: np.ndarray) -> np.ndarray:
    """The nine shifted copies of `img` under a 3x3 window, zero-padded, as
    one (9, h, w) stack."""
    padded = np.pad(img, 1, mode="constant", constant_values=0.0)
    return np.stack([
        padded[di:di + img.shape[0], dj:dj + img.shape[1]]
        for di in range(3) for dj in range(3)
    ])


def erode(img: np.ndarray) -> np.ndarray:
    """3x3 minimum filter; never increases total foreground mass."""
    return _windows3(img).min(axis=0)


def dilate(img: np.ndarray) -> np.ndarray:
    """3x3 maximum filter; never decreases total foreground mass."""
    return _windows3(img).max(axis=0)


def _stretch_width(img: np.ndarray, factor: float) -> np.ndarray:
    h, w = img.shape
    new_w = max(4, int(round(w * factor)))
    src = np.minimum((np.arange(new_w) / factor).astype(int), w - 1)
    return img[:, src]


AUGMENTATION_NAMES = (
    "padding", "stretch", "erosion", "dilation", "gaussian_noise", "salt_noise",
)


def augment(sample: LineSample, seed: int) -> LineSample:
    """Apply each of the six augmentations independently with probability 1/2:
    width padding, squeeze/stretch, erosion, dilation, gaussian noise, and
    background salt specks. Height and transcript never change; pixels stay
    in [0, 1]. Deterministic for a given seed."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    gates = rng.random(len(AUGMENTATION_NAMES)) < 0.5
    img = sample.image.data[0].copy()
    if gates[0]:
        left, right = rng.integers(1, 9, size=2)
        img = np.pad(img, ((0, 0), (int(left), int(right))),
                     mode="constant", constant_values=0.0)
    if gates[1]:
        img = _stretch_width(img, float(rng.uniform(0.8, 1.2)))
    if gates[2]:
        img = erode(img)
    if gates[3]:
        img = dilate(img)
    if gates[4]:
        img = img + rng.normal(0.0, 0.05, img.shape)
    if gates[5]:
        img = np.where(rng.random(img.shape) < 0.01, 1.0, img)
    img = np.clip(img, 0.0, 1.0)
    return replace(sample, image=Tensor(img[None, :, :]))


# ---------------------------------------------------------------------------
# PGM + manifest IO


def write_pgm(path, img: np.ndarray) -> None:
    """Binary 8-bit PGM (P5); input values in [0, 1]."""
    if img.ndim != 2:
        raise ValueError("write_pgm expects a 2-D image")
    data = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> np.ndarray:
    """(h, w) pixels in [0, 1] of an 8-bit binary PGM. Any malformed file
    raises a ValueError that names it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM file")
    # header tokens: magic, width, height, maxval; '#' comments allowed
    tokens, pos = [], 2
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PGM header")
        if not raw[start:pos].isdigit():
            raise ValueError(f"{path}: PGM header field {raw[start:pos]!r} "
                             "is not a number")
        tokens.append(int(raw[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = tokens
    if w < 1 or h < 1:
        raise ValueError(f"{path}: empty {w}x{h} PGM image")
    if maxval != 255:
        raise ValueError(f"{path}: only 8-bit PGM is supported")
    if len(raw) - pos < h * w:
        raise ValueError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=h * w, offset=pos)
    return pixels.reshape(h, w).astype(np.float64) / 255.0


@dataclass(frozen=True)
class Dataset:
    samples: tuple
    vocab: Vocab

    def __len__(self) -> int:
        return len(self.samples)


def generate_dataset(out_dir, chars: str, count: int, min_len: int, max_len: int,
                     height: int = DEFAULT_HEIGHT, seed: int = 0,
                     augment_lines: bool = False) -> "Dataset":
    """Render a seeded synthetic dataset and write PGMs + TSV manifest + a JSON
    sidecar carrying the vocabulary and generation parameters."""
    if count < 1 or min_len < 1 or max_len < min_len:
        raise ValueError("bad generation parameters")
    vocab = Vocab(chars)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, 0]))
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    samples, lines = [], []
    for i in range(count):
        length = int(rng.integers(min_len, max_len + 1))
        text = "".join(rng.choice(list(chars), size=length))
        sample = render_line(text, height=height, seed=seed,
                             sample_id=f"line{i:05d}")
        if augment_lines:
            sample = augment(sample, seed=int(rng.integers(0, 2 ** 31)))
        rel = os.path.join("images", f"{sample.sample_id}.pgm")
        write_pgm(os.path.join(out_dir, rel), sample.image.data[0])
        samples.append(sample)
        lines.append(f"{sample.sample_id}\t{rel}\t{text}")
    with open(os.path.join(out_dir, "manifest.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = {
        "vocab": chars,
        "seed": seed,
        "count": count,
        "min_len": min_len,
        "max_len": max_len,
        "height": height,
        "augmented": augment_lines,
    }
    with open(os.path.join(out_dir, "dataset.json"), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    return Dataset(samples=tuple(samples), vocab=vocab)


def load_manifest(path) -> Dataset:
    """Load a TSV manifest of (id, image path, transcript) lines.

    Image paths resolve relative to the manifest. The vocabulary comes from a
    dataset.json sidecar when present, else from the transcripts; transcripts
    must stay inside it either way. Malformed lines, duplicate ids, missing
    files, and out-of-vocabulary characters are rejected with line numbers,
    and a manifest without lines is rejected too; a sidecar that is not a
    JSON object holding a valid vocabulary string is rejected naming it.
    """
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw_lines = fh.read().splitlines()

    sidecar_path = os.path.join(base, "dataset.json")
    vocab = None
    if os.path.exists(sidecar_path):
        try:
            with open(sidecar_path, "r", encoding="utf-8") as fh:
                sidecar = json.load(fh)
            if not isinstance(sidecar, dict) or "vocab" not in sidecar:
                raise ValueError("no 'vocab' entry")
            if not isinstance(sidecar["vocab"], str):
                raise ValueError("'vocab' is not a string")
            vocab = Vocab(sidecar["vocab"])
        except ValueError as exc:  # bad JSON and bad UTF-8 are ValueErrors too
            raise ValueError(f"{sidecar_path}: {exc}") from None

    entries, seen = [], set()
    for lineno, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        fields = line.rstrip("\r").split("\t")
        if len(fields) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
        sample_id, rel, transcript = fields
        if sample_id in seen:
            raise ValueError(f"{path}:{lineno}: duplicate id {sample_id!r}")
        seen.add(sample_id)
        img_path = rel if os.path.isabs(rel) else os.path.join(base, rel)
        if not os.path.exists(img_path):
            raise ValueError(f"{path}:{lineno}: missing image file {rel}")
        if vocab is not None:
            for c in transcript:
                if c not in vocab.chars:
                    raise ValueError(
                        f"{path}:{lineno}: character {c!r} is outside the vocabulary"
                    )
        entries.append((sample_id, img_path, transcript))
    if not entries:
        raise ValueError(f"{path}: manifest lists no lines")

    if vocab is None:
        vocab = Vocab.from_texts([t for _, _, t in entries])
    samples = tuple(
        LineSample(image=Tensor(read_pgm(img_path)[None, :, :]),
                   transcript=transcript, sample_id=sample_id)
        for sample_id, img_path, transcript in entries
    )
    return Dataset(samples=samples, vocab=vocab)
