import hashlib
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retline import cli
from retline.cli import load_config, main, parse_range

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


class TestConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg["label_smoothing"] == 0.4
        assert cfg["weight_decay"] == 1e-3
        assert cfg["lr_max"] == 1e-4
        assert cfg["restart_epochs"] == 30
        assert cfg["beam"] == 10
        assert cfg["gamma_subtractor"] == 0.86

    def test_file_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nlayers = 2\nlr_max = 0.003\nmixer=attention\n")
        cfg = load_config(str(path))
        assert cfg["layers"] == 2
        assert cfg["lr_max"] == 0.003
        assert cfg["mixer"] == "attention"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("warp_speed=9\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("layers 2\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config(str(path))

    def test_parser_built_once_and_environment_read_per_call(
            self, tmp_path, monkeypatch):
        built, build = [], cli.build_parser

        def counting():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        monkeypatch.delenv("RETLINE_CONFIG", raising=False)
        out = tmp_path / "o"
        echo = out / "config_echo.txt"
        assert main(["--out-dir", str(out), "report"]) == 0
        assert "count=576" in echo.read_text().splitlines()
        path = tmp_path / "run.cfg"
        path.write_text("count=7\n")
        monkeypatch.setenv("RETLINE_CONFIG", str(path))
        assert main(["--out-dir", str(out), "report"]) == 0
        assert "count=7" in echo.read_text().splitlines()
        assert built == [1]

    def test_parse_range_forms(self):
        assert parse_range("1..4") == [1, 2, 3, 4]
        assert parse_range("1,2,8") == [1, 2, 8]


class TestSubcommands:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_bench_flops_recurrent_rows_constant(self, tmp_path):
        out = str(tmp_path / "o")
        code = main(["--out-dir", out, "bench-flops", "--form", "recurrent",
                     "--d", "8", "--n", "1..4"])
        assert code == 0
        lines = (tmp_path / "o" / "flops.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        totals = {line.split(",")[8] for line in lines[1:]}
        assert totals == {"135"}
        assert os.path.exists(tmp_path / "o" / "config_echo.txt")

    def test_bench_memory_summary_flags_discrepancy(self, tmp_path):
        out = str(tmp_path / "o")
        code = main(["--out-dir", out, "bench-memory", "--beam", "10",
                     "--decoded", "94", "--d", "768", "--heads", "12"])
        assert code == 0
        note = (tmp_path / "o" / "memory_summary.txt").read_text()
        assert "491,520" in note
        assert "1,443,840" in note
        assert "2,887,680" in note
        assert "discrepancy" in note

    # captured from the scalar-loop cost model that the counted products
    # replaced; the default sweeps must reproduce byte for byte
    @pytest.mark.parametrize("command, name, digest", [
        ("bench-memory", "memory.csv",
         "a439a95371c60dd615057d74d6bbf35d9e47a38dbc8e862886b24f549b298fd5"),
        ("bench-flops", "flops.csv",
         "22b5b189bf68b5b5d6f7a107b261b67fc8fccdae567f59af7e8c7ca776382d04"),
    ])
    def test_default_sweep_csv_pinned(self, tmp_path, command, name, digest):
        assert main(["--out-dir", str(tmp_path), command]) == 0
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("command", ["bench-memory", "bench-flops"])
    def test_sweep_zero_heads_exits_1_without_traceback(self, tmp_path, capsys,
                                                        command):
        code = main(["--out-dir", str(tmp_path), command, "--heads", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err

    def test_gen_data_reproducible(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count=4\nmin_len=2\nmax_len=4\nchars=abc\n")
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["--out-dir", a, "--config", str(cfg), "--seed", "7",
                     "gen-data"]) == 0
        assert main(["--out-dir", b, "--config", str(cfg), "--seed", "7",
                     "gen-data"]) == 0
        ma = (tmp_path / "a" / "manifest.tsv").read_bytes()
        mb = (tmp_path / "b" / "manifest.tsv").read_bytes()
        assert ma == mb
        for name in sorted(os.listdir(tmp_path / "a" / "images")):
            fa = (tmp_path / "a" / "images" / name).read_bytes()
            fb = (tmp_path / "b" / "images" / name).read_bytes()
            assert fa == fb

    def test_augmented_train_matches_pinned_digests(self, tmp_path):
        # sha256 of the outputs, captured while every held line was a
        # float64 image; gen-data and every training epoch both augment
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "chars=abcd\ncount=10\nmin_len=2\nmax_len=4\nval_count=2\n"
            "layers=1\nheads=2\nd_model=16\nd_ff=32\ncnn_channels=4,8,8\n"
            "max_text_len=8\nepochs=2\nbatch_size=4\nlr_max=0.003\n"
            "augment_train=true\ndropout_mix=0\ndropout_embed=0\n")
        data_dir, out = str(tmp_path / "data"), tmp_path / "train"
        assert main(["--seed", "3", "--out-dir", data_dir, "--config",
                     str(cfg), "gen-data"]) == 0
        assert main(["--seed", "4", "--out-dir", str(out), "--config",
                     str(cfg), "train", "--data",
                     os.path.join(data_dir, "manifest.tsv")]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("metrics.csv", "model.bin", "model.json")}
        assert digests == {
            "metrics.csv": "69f7e0e7865829d6b90d2452388be6ad"
                           "02faba60d982b951cdb6d56da8dbda22",
            "model.bin": "af03c42c0bb40c03011e6821cbab9aa8"
                         "652981d91ecf942c2d32723fbff6ad8f",
            "model.json": "9b3de9fb2d0ede119875aa5280175a3f"
                          "1da6d9af28e12d0f474ab6f3471d7e6a",
        }

    def test_train_then_decode_round_trip(self, tmp_path):
        data_dir = str(tmp_path / "data")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "chars=ab\ncount=10\nmin_len=2\nmax_len=3\nval_count=2\n"
            "layers=1\nheads=2\nd_model=16\nd_ff=32\ncnn_channels=4,8,8\n"
            "max_text_len=8\nepochs=1\nbatch_size=4\nlr_max=0.001\n"
            "dropout_mix=0\ndropout_embed=0\nbeam=2\n"
        )
        assert main(["--out-dir", data_dir, "--config", str(cfg), "gen-data"]) == 0
        train_out = str(tmp_path / "train")
        assert main(["--out-dir", train_out, "--config", str(cfg), "train",
                     "--data", os.path.join(data_dir, "manifest.tsv")]) == 0
        assert os.path.exists(os.path.join(train_out, "model.json"))
        assert os.path.exists(os.path.join(train_out, "metrics.csv"))
        with open(os.path.join(train_out, "metrics.csv")) as fh:
            header = fh.readline().strip()
        assert header == "epoch,step,lr,loss,val_cer,val_wer"

        decode_out = str(tmp_path / "dec")
        assert main(["--out-dir", decode_out, "--config", str(cfg), "decode",
                     "--checkpoint", os.path.join(train_out, "model"),
                     "--data", os.path.join(data_dir, "manifest.tsv"),
                     "--beam", "1"]) == 0
        kv_out = str(tmp_path / "deckv")
        assert main(["--out-dir", kv_out, "--config", str(cfg), "decode",
                     "--checkpoint", os.path.join(train_out, "model"),
                     "--data", os.path.join(data_dir, "manifest.tsv"),
                     "--beam", "1", "--backend", "kv"]) == 0
        rec_text = (tmp_path / "dec" / "transcripts.txt").read_text()
        kv_text = (tmp_path / "deckv" / "transcripts.txt").read_text()
        assert rec_text == kv_text

        maps_out = str(tmp_path / "maps")
        assert main(["--out-dir", maps_out, "--config", str(cfg), "dump-maps",
                     "--checkpoint", os.path.join(train_out, "model"),
                     "--text", "ab"]) == 0
        names = os.listdir(os.path.join(maps_out, "maps"))
        assert any(n.startswith("scores_l0_h0") for n in names)
        assert any(n.startswith("decay_l0_h0") for n in names)

        report_out = decode_out
        assert main(["--out-dir", report_out, "report"]) == 0
        assert os.path.exists(os.path.join(report_out, "report.txt"))
        assert os.path.exists(os.path.join(report_out, "report.csv"))

    def test_missing_data_path_exits_1(self, tmp_path):
        code = main(["--out-dir", str(tmp_path / "o"), "train",
                     "--data", str(tmp_path / "nope.tsv")])
        assert code == 1

    @pytest.mark.parametrize("edge,names_file", [
        ("heads=0\n", False),
        ("gamma_strategy=gated\ntau=0\n", False),
        ("gamma_strategy=gated\ntau=-2\n", False),
        ("d_model=0\n", False),
        ("d_ff=0\n", False),
        ("cnn_channels=0,16,16\n", False),
        ("layers=x\n", True),
        ("tau=abc\n", True),
        ("cnn_channels=8,a,16\n", True),
        ("augment_train=maybe\n", True),
    ], ids=["zero_heads", "zero_tau", "negative_tau", "zero_d_model",
            "zero_d_ff", "zero_cnn_channel", "bad_int", "bad_float",
            "bad_channel_list", "bad_boolean"])
    def test_config_edge_exits_1_without_traceback(self, tmp_path, capsys,
                                                   edge, names_file):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("layers=1\nheads=2\nd_model=8\nd_ff=16\nmax_text_len=8\n"
                       "chars=ab\n" + edge)
        code = main(["--out-dir", str(tmp_path / "o"), "--config", str(cfg),
                     "dump-maps"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        if names_file:
            # the bad value is on the config's last line
            lineno = cfg.read_text().count("\n")
            assert f"{cfg}:{lineno}: " in err

    def test_decode_auto_backend_for_attention_checkpoint(self, tmp_path):
        from retline.checkpoint import save_checkpoint
        from retline.model import Model, ModelConfig

        cfg = tmp_path / "run.cfg"
        cfg.write_text("chars=ab\ncount=3\nmin_len=2\nmax_len=3\nmax_text_len=8\n")
        data_dir = str(tmp_path / "data")
        assert main(["--out-dir", data_dir, "--config", str(cfg), "gen-data"]) == 0
        model = Model(ModelConfig(vocab_size=5, max_text_len=8, layers=1,
                                  heads=2, d_model=16, d_ff=32,
                                  cnn_channels=(4, 8, 8), mixer="attention",
                                  dropout_mix=0.0, dropout_embed=0.0), seed=0)
        save_checkpoint(model, str(tmp_path / "attn"))
        # no --backend flag: auto must pick kv for the attention twin
        code = main(["--out-dir", str(tmp_path / "dec"), "--config", str(cfg),
                     "decode", "--checkpoint", str(tmp_path / "attn"),
                     "--data", os.path.join(data_dir, "manifest.tsv"),
                     "--beam", "1"])
        assert code == 0
        stats = (tmp_path / "dec" / "decode_stats.csv").read_text()
        assert ",kv," in stats

    def test_verify_quick_is_deterministic(self, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["--out-dir", a, "--seed", "7", "verify", "--quick"]) == 0
        assert main(["--out-dir", b, "--seed", "7", "verify", "--quick"]) == 0
        ra = (tmp_path / "a" / "verify.txt").read_bytes()
        rb = (tmp_path / "b" / "verify.txt").read_bytes()
        assert ra == rb
        assert b"PASS" in ra and b"FAIL" not in ra


class TestTrainSettingsChecked:
    """A bad training setting fails `train` before any work: exit 1, one
    error line that names the key, and nothing written."""

    TINY = ("chars=ab\ncount=4\nmin_len=2\nmax_len=3\nval_count=1\n"
            "layers=1\nheads=2\nd_model=16\nd_ff=32\ncnn_channels=4,8,8\n"
            "max_text_len=8\nepochs=1\nbatch_size=4\ndropout_mix=0\n"
            "dropout_embed=0\n")

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        data = tmp_path_factory.mktemp("data")
        cfg = data / "run.cfg"
        cfg.write_text(self.TINY)
        assert main(["--out-dir", str(data), "--config", str(cfg),
                     "gen-data"]) == 0
        return str(data / "manifest.tsv")

    @pytest.mark.parametrize("setting, key", [
        ("epochs=0", "epochs"),
        ("epochs=-2", "epochs"),
        ("batch_size=0", "batch_size"),
        ("lr_max=nan", "lr_max"),
        ("weight_decay=inf", "weight_decay"),
        ("lr_min=0.01\nlr_max=0.001", "lr_min"),
        ("restart_epochs=0", "restart_epochs"),
        ("label_smoothing=1", "label_smoothing"),
    ])
    def test_bad_setting_exits_1_and_writes_nothing(self, tmp_path, capsys,
                                                    manifest, setting, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.TINY + setting + "\n")  # later lines win
        out = tmp_path / "out"
        code = main(["--out-dir", str(out), "--config", str(cfg), "train",
                     "--data", manifest])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {key} ") and err.count("\n") == 1
        assert not out.exists()


class TestDecodeScoring:
    def checkpoint_and_data(self, tmp_path):
        from retline.checkpoint import save_checkpoint
        from retline.model import Model, ModelConfig

        cfg = tmp_path / "run.cfg"
        cfg.write_text("chars=ab\ncount=4\nmin_len=2\nmax_len=3\nmax_text_len=8\n")
        data_dir = tmp_path / "data"
        assert main(["--out-dir", str(data_dir), "--config", str(cfg),
                     "gen-data"]) == 0
        model = Model(ModelConfig(vocab_size=5, max_text_len=8, layers=1,
                                  heads=2, d_model=16, d_ff=32,
                                  cnn_channels=(4, 8, 8), dropout_mix=0.0,
                                  dropout_embed=0.0), seed=0)
        save_checkpoint(model, str(tmp_path / "model"))
        return cfg, str(tmp_path / "model"), data_dir

    def test_printed_rates_score_the_written_transcripts(self, tmp_path,
                                                         capsys, monkeypatch):
        import dataclasses
        import re

        from retline import decode
        from retline.metrics import edit_distance

        cfg, ckpt, data_dir = self.checkpoint_and_data(tmp_path)
        real = decode.beam_search
        beams = []

        def beam_search(model, image, beam, *args, **kwargs):
            beams.append(beam)
            result = real(model, image, beam, *args, **kwargs)
            if beam == 1:  # greedy disagrees with beam 3 on every line
                result = dataclasses.replace(result,
                                             tokens=result.tokens + (3,))
            return result

        monkeypatch.setattr(decode, "beam_search", beam_search)
        manifest = data_dir / "manifest.tsv"
        assert main(["--out-dir", str(tmp_path / "dec"), "--config", str(cfg),
                     "decode", "--checkpoint", ckpt, "--data", str(manifest),
                     "--beam", "3"]) == 0
        refs = dict(line.split("\t")[0::2]
                    for line in manifest.read_text().splitlines())
        hyps = dict(line.split("\t") for line in
                    (tmp_path / "dec" / "transcripts.txt").read_text()
                    .splitlines())
        cer = (sum(edit_distance(hyps[k], refs[k]) for k in refs)
               / sum(len(r) for r in refs.values()))
        wer = (sum(edit_distance(hyps[k].split(), refs[k].split()) for k in refs)
               / sum(len(r.split()) for r in refs.values()))
        printed = re.search(r"cer (\S+) wer (\S+);", capsys.readouterr().out)
        assert printed.groups() == (f"{cer:.4f}", f"{wer:.4f}")
        assert beams == [3] * len(refs)  # each line decoded once, with beam 3

    @pytest.mark.parametrize("edit", [
        lambda m: m["config"].update(warp_speed=9),
        lambda m: m.pop("tensors"),
        lambda m: m.update(tensors=[]),
    ], ids=["unknown_config_key", "no_tensors", "tensors_not_an_object"])
    def test_malformed_checkpoint_exits_1_naming_it(self, tmp_path, capsys,
                                                    edit):
        import json

        cfg, ckpt, _ = self.checkpoint_and_data(tmp_path)
        with open(ckpt + ".json") as fh:
            manifest = json.load(fh)
        edit(manifest)
        with open(ckpt + ".json", "w") as fh:
            json.dump(manifest, fh)
        code = main(["--out-dir", str(tmp_path / "maps"), "--config", str(cfg),
                     "dump-maps", "--checkpoint", ckpt])
        assert code == 1
        assert ckpt in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar", [
        '{"vocab": 5}',
        '{"vocab": null}',
        '{"vocab": ["a", "b"]}',
        '{"vocab": "aab"}',
        '{"vocab": ""}',
        '{vocab: "ab"}',
        '["ab"]',
        b'{"vocab": "a\xffb"}',
    ], ids=["number", "null", "list", "duplicate", "empty", "invalid_json",
            "not_an_object", "invalid_utf8"])
    def test_malformed_sidecar_exits_1_naming_it(self, tmp_path, capsys,
                                                 sidecar):
        cfg, ckpt, data_dir = self.checkpoint_and_data(tmp_path)
        path = data_dir / "dataset.json"
        if isinstance(sidecar, bytes):
            path.write_bytes(sidecar)
        else:
            path.write_text(sidecar)
        code = main(["--out-dir", str(tmp_path / "dec"), "--config", str(cfg),
                     "decode", "--checkpoint", ckpt,
                     "--data", str(data_dir / "manifest.tsv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err

    def test_malformed_pgm_exits_1_naming_it(self, tmp_path, capsys):
        cfg, ckpt, data_dir = self.checkpoint_and_data(tmp_path)
        manifest = data_dir / "manifest.tsv"
        rel = manifest.read_text().splitlines()[0].split("\t")[1]
        pgm = os.path.join(str(data_dir), rel)
        with open(pgm, "wb") as fh:
            fh.write(b"P5\n4 2\n255\n\x00\x00\x00")  # 3 of 8 pixels
        code = main(["--out-dir", str(tmp_path / "dec"), "--config", str(cfg),
                     "decode", "--checkpoint", ckpt, "--data", str(manifest)])
        err = capsys.readouterr().err
        assert code == 1
        assert pgm in err and "Traceback" not in err

    def test_empty_manifest_exits_1_naming_it(self, tmp_path, capsys):
        cfg, ckpt, data_dir = self.checkpoint_and_data(tmp_path)
        empty = data_dir / "empty.tsv"  # next to the dataset.json sidecar
        empty.write_text("")
        code = main(["--out-dir", str(tmp_path / "dec"), "--config", str(cfg),
                     "decode", "--checkpoint", ckpt, "--data", str(empty)])
        assert code == 1
        assert str(empty) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decode", "train"])
    @pytest.mark.parametrize("shape, reason", [
        ((40, 60), "image height 40 != configured 32"),
        ((32, 2100), "image yields 525 tokens, above max_image_tokens=512"),
    ], ids=["too_tall", "too_wide"])
    def test_image_that_does_not_fit_exits_1_naming_the_line(
            self, tmp_path, capsys, monkeypatch, shape, reason, command):
        from retline import cli, decode
        from retline.data import write_pgm

        cfg, ckpt, data_dir = self.checkpoint_and_data(tmp_path)
        manifest = data_dir / "manifest.tsv"
        sample_id, rel, _ = manifest.read_text().splitlines()[-1].split("\t")
        write_pgm(os.path.join(str(data_dir), rel), np.zeros(shape))

        def too_early(*args, **kwargs):
            raise AssertionError("ran before every line was checked")

        monkeypatch.setattr(decode, "beam_search", too_early)
        monkeypatch.setattr(cli, "train", too_early)
        if command == "decode":
            args = ["decode", "--checkpoint", ckpt, "--data", str(manifest)]
        else:  # the bad line is the last one, in the validation split
            cfg.write_text(cfg.read_text() + "layers=1\nheads=2\nd_model=16\n"
                           "d_ff=32\ncnn_channels=4,8,8\nval_count=1\n")
            args = ["train", "--data", str(manifest)]
        code = main(["--out-dir", str(tmp_path / "o"), "--config", str(cfg)]
                    + args)
        err = capsys.readouterr().err
        assert code == 1
        assert f"{manifest}: {sample_id}: {reason}" in err
        assert "Traceback" not in err


# the only values the manifest fuzz writes: each JSON type, small numbers and
# no large integer (a huge max_text_len would build a huge position table)
_DELETE = object()
_REPLACEMENTS = (_DELETE, None, True, -1, 0, 3, 2.5, "x", [], {})


class TestCheckpointManifestFuzz:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        import json

        tmp = tmp_path_factory.mktemp("fuzz")
        cfg, ckpt, data_dir = TestDecodeScoring().checkpoint_and_data(tmp)
        with open(ckpt + ".json") as fh:
            manifest = json.load(fh)
        paths = [("config",), ("tensors",), ("blob_bytes",)]
        paths += [("config", key) for key in sorted(manifest["config"])]
        for name in sorted(manifest["tensors"]):
            paths += [("tensors", name), ("tensors", name, "shape"),
                      ("tensors", name, "offset")]
        return tmp, cfg, ckpt, data_dir / "manifest.tsv", manifest, paths

    @settings(max_examples=150)
    @given(data=st.data())
    def test_decode_exits_0_or_1_naming_the_checkpoint(self, checkpoint,
                                                       data):
        import contextlib
        import copy
        import io
        import json

        tmp, cfg, ckpt, manifest_tsv, manifest, paths = checkpoint
        path = data.draw(st.sampled_from(paths), label="path")
        value = data.draw(st.sampled_from(_REPLACEMENTS), label="value")
        edited = copy.deepcopy(manifest)
        owner = edited
        for key in path[:-1]:
            owner = owner[key]
        if value is _DELETE:
            del owner[path[-1]]
        else:
            owner[path[-1]] = value
        with open(ckpt + ".json", "w") as fh:
            json.dump(edited, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["--out-dir", str(tmp / "dec"), "--config", str(cfg),
                         "decode", "--checkpoint", ckpt, "--data",
                         str(manifest_tsv), "--beam", "2"])
        err = err.getvalue()
        assert code == 0 or (code == 1 and f"checkpoint {ckpt}: " in err), err


def _by_offset(manifest):
    return sorted(manifest["tensors"].values(), key=lambda e: e["offset"])


def _gap_before_last(manifest, blob):
    # four stray bytes ahead of the last tensor, every offset kept consistent
    last = _by_offset(manifest)[-1]
    cut = last["offset"]
    last["offset"] += 4
    manifest["blob_bytes"] += 4
    return blob[:cut] + bytes(4) + blob[cut:]


class TestCheckpointTiling:
    # each manifest below loaded and decoded with exit 0 before the tensors'
    # byte ranges had to tile the blob
    @pytest.mark.parametrize("edit", [
        lambda m, b: _by_offset(m)[-1].update(offset=3) or b,
        lambda m, b: _by_offset(m)[-1].update(offset=True) or b,
        lambda m, b: _by_offset(m)[1].update(offset=0) or b,
        _gap_before_last,
    ], ids=["offset_3", "offset_true", "overlap", "gap"])
    def test_decode_exits_1_naming_the_checkpoint(self, tmp_path, capsys,
                                                  edit):
        import json

        cfg, ckpt, data_dir = TestDecodeScoring().checkpoint_and_data(tmp_path)
        with open(ckpt + ".json") as fh:
            manifest = json.load(fh)
        with open(ckpt + ".bin", "rb") as fh:
            blob = edit(manifest, fh.read())
        with open(ckpt + ".json", "w") as fh:
            json.dump(manifest, fh)
        with open(ckpt + ".bin", "wb") as fh:
            fh.write(blob)
        code = main(["--out-dir", str(tmp_path / "dec"), "--config", str(cfg),
                     "decode", "--checkpoint", ckpt, "--data",
                     str(data_dir / "manifest.tsv"), "--beam", "2"])
        assert code == 1
        assert f"checkpoint {ckpt}: " in capsys.readouterr().err

    @pytest.mark.parametrize("field, rate", [
        ("dropout_mix", "x"), ("dropout_mix", 7), ("dropout_embed", 1.0),
        ("dropout_embed", True), ("dropout_embed", -0.5),
    ])
    def test_bad_dropout_rate_exits_1_naming_the_checkpoint(
            self, tmp_path, capsys, field, rate):
        import json

        cfg, ckpt, data_dir = TestDecodeScoring().checkpoint_and_data(tmp_path)
        with open(ckpt + ".json") as fh:
            manifest = json.load(fh)
        manifest["config"][field] = rate
        with open(ckpt + ".json", "w") as fh:
            json.dump(manifest, fh)
        code = main(["--out-dir", str(tmp_path / "dec"), "--config", str(cfg),
                     "decode", "--checkpoint", ckpt, "--data",
                     str(data_dir / "manifest.tsv"), "--beam", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert f"checkpoint {ckpt}: " in err and field in err


class TestStartUp:
    # commands that run no GELU never load scipy; the first GELU loads it
    # and computes x * (0.5 * (1 + erf(x / sqrt 2))) as before, bitwise
    SCRIPT = textwrap.dedent("""
        import contextlib, io, os, sys
        import numpy as np
        from retline import cli, tensor

        out, cfg = sys.argv[1], sys.argv[2]
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            codes = [
                cli.main(["--out-dir", os.path.join(out, "sweep"),
                          "bench-memory", "--beam", "1,2", "--decoded", "4,8",
                          "--d", "16", "--heads", "2"]),
                cli.main(["--out-dir", os.path.join(out, "data"),
                          "--config", cfg, "gen-data"]),
            ]
            try:
                cli.main(["frobnicate"])
            except SystemExit as exc:
                codes.append(exc.code)
        print(codes, "scipy" in sys.modules)

        x = np.linspace(-7.0, 7.0, 2001)
        y, _ = tensor.gelu_fwd(x)
        loaded = "scipy" in sys.modules
        from scipy.special import erf
        phi = x * (1.0 / np.sqrt(2.0))
        erf(phi, out=phi)
        phi += 1.0
        phi *= 0.5
        print(loaded, tensor._erf is erf, y.tobytes() == (x * phi).tobytes())
    """)

    def test_scipy_loads_at_the_first_gelu(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count=3\nmin_len=2\nmax_len=4\nchars=abc\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("RETLINE_CONFIG", None)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path), str(cfg)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[0, 0, 2] False", "True True True"]

    # a decode loads only scipy's compiled erf module, never scipy.special;
    # when the package is already imported, or the module is absent or fails
    # to load, scipy.special supplies the same ufunc
    LOADER = textwrap.dedent("""
        import importlib.machinery, os, sys
        import numpy as np
        from retline import decode, tensor
        from retline.model import Model, ModelConfig
        from retline.tensor import Tensor

        mode, tmp = sys.argv[1], sys.argv[2]
        if mode == "imported":  # the package is already there: take its erf
            import scipy.special
        elif mode == "absent":  # no compiled erf module under any suffix
            importlib.machinery.EXTENSION_SUFFIXES = []
        elif mode == "broken":  # the first file found is no shared library
            import scipy
            os.mkdir(os.path.join(tmp, "special"))
            name = "_special_ufuncs" + importlib.machinery.EXTENSION_SUFFIXES[0]
            with open(os.path.join(tmp, "special", name), "wb") as fh:
                fh.write(b"not a shared library")
            scipy.__path__.insert(0, tmp)
        model = Model(ModelConfig(vocab_size=5, max_text_len=6, layers=1,
                                  heads=2, d_model=8, d_ff=16,
                                  cnn_channels=(2, 2, 2), dropout_mix=0.0,
                                  dropout_embed=0.0), seed=0)
        decode.beam_search(model, Tensor(np.zeros((1, 32, 16))), beam=1)
        print("scipy.special" in sys.modules,
              "scipy.special._special_ufuncs" in sys.modules)

        import scipy.special
        x = np.linspace(-7.0, 7.0, 2001)
        y, _ = tensor.gelu_fwd(x)
        phi = x * (1.0 / np.sqrt(2.0))
        reference = x * (0.5 * (1.0 + scipy.special.erf(phi)))
        print(tensor._erf is scipy.special.erf,
              y.tobytes() == reference.tobytes())
    """)

    @pytest.mark.parametrize("mode, loaded", [
        ("found", "False True"),
        ("imported", "True True"),
        ("absent", "True True"),
        ("broken", "True True"),
    ], ids=["found", "imported", "absent", "broken"])
    def test_decode_loads_only_the_compiled_erf_module(self, tmp_path, mode,
                                                       loaded):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", self.LOADER, mode, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [loaded, "True True"]
