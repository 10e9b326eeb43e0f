import numpy as np
import pytest
from synth_data import from_float, patch_image, solid_image, texture_image, write_tree

from defectnet.cli import load_model, main, parse_config_text
from defectnet.data import encode_ppm
from defectnet.errors import ConfigError
from defectnet.model import ArchSpec, FcHead, GapHead, build
from defectnet.tensor import Tensor
from defectnet.weights_io import read_weights, write_weights


def write_model(path, model, input_size=None):
    with open(path, "wb") as fh:
        write_weights(model, fh)
    if input_size is not None:
        (path.parent / "run.meta").write_text(f"input_size = {input_size}\n")


def zero_model(spec):
    from dataclasses import replace
    m = build(spec, seed=0)
    return replace(m, params={n: Tensor.zeros(t.shape) for n, t in m.params.items()})


@pytest.fixture
def zero224(tmp_path):
    spec = ArchSpec(((1, 4),), GapHead(), num_classes=4, input_size=224)
    p = tmp_path / "model.dnw"
    write_model(p, zero_model(spec))
    return p


def toy_config(tmp_path, data_dir, out_dir, **overrides):
    cfg = {
        "arch": "custom",
        "custom_blocks": "1x4",
        "input_size": 16,
        "epochs": 2,
        "batch_size": 4,
        "steps_per_epoch": 2,
        "learning_rate": 0.01,
        "seed": 3,
        "val_fraction": 0.25,
        "data_dir": str(data_dir),
        "out_dir": str(out_dir),
    }
    cfg.update(overrides)
    path = tmp_path / "run.cfg"
    lines = [f"{k} = ".encode() + (v if isinstance(v, bytes) else str(v).encode())
             for k, v in cfg.items()]
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path


def small_tree(root, size=16, n=4, seed=0):
    rng = np.random.default_rng(seed)
    write_tree(root, {
        "deterioration": [texture_image(0, size, rng) for _ in range(n)],
        "mould": [texture_image(1, size, rng) for _ in range(n)],
        "normal": [texture_image(2, size, rng) for _ in range(n)],
        "stain": [texture_image(3, size, rng) for _ in range(n)],
    })


class TestConfig:
    def test_defaults_applied(self):
        cfg = parse_config_text("")
        assert cfg["arch"] == "paper-vgg16"
        assert cfg["epochs"] == 50
        assert cfg["batch_size"] == 32
        assert cfg["steps_per_epoch"] == 250
        assert cfg["val_fraction"] == 0.2

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\nseed = 9  # trailing\n")
        assert cfg["seed"] == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("epochz = 3")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("epochs = soon")

    def test_bool_parsing(self):
        assert parse_config_text("allow_hflip = false")["allow_hflip"] is False
        assert parse_config_text("allow_vflip = ON")["allow_vflip"] is True


class TestPrepare:
    def test_slices_one_image_into_six_tiles(self, tmp_path, capsys):
        src = tmp_path / "src"
        (src / "mould").mkdir(parents=True)
        rng = np.random.default_rng(0)
        big = from_float(rng.uniform(0, 1, (448, 672, 3)))
        (src / "mould" / "site.ppm").write_bytes(encode_ppm(big))
        out = tmp_path / "out"
        assert main(["prepare", str(src), str(out)]) == 0
        tiles = sorted((out / "mould").glob("*.ppm"))
        assert len(tiles) == 6
        assert tiles[0].name == "site_t0.ppm"
        assert "mould: 6 tiles" in capsys.readouterr().out

    def test_rerun_overwrites_same_names(self, tmp_path):
        src = tmp_path / "src"
        (src / "stain").mkdir(parents=True)
        (src / "stain" / "a.ppm").write_bytes(encode_ppm(solid_image(224, (5, 5, 5))))
        out = tmp_path / "out"
        assert main(["prepare", str(src), str(out)]) == 0
        first = sorted(p.name for p in (out / "stain").glob("*.ppm"))
        assert main(["prepare", str(src), str(out)]) == 0
        assert sorted(p.name for p in (out / "stain").glob("*.ppm")) == first

    def test_empty_source_warns_but_succeeds(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        assert main(["prepare", str(src), str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "warning" in out
        assert "total: 0 tiles" in out

    def test_missing_source_exit_2(self, tmp_path):
        rc = main(["prepare", str(tmp_path / "absent"), str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("tile", ["0", "-3"])
    def test_non_positive_tile_exit_2_before_reading(self, tmp_path, capsys, tile):
        src = tmp_path / "src"
        (src / "mould").mkdir(parents=True)
        (src / "mould" / "a.ppm").write_bytes(encode_ppm(solid_image(8, (5, 5, 5))))
        assert main(["prepare", str(src), str(tmp_path / "out"), "--tile", tile]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --tile ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_output_is_a_file_exit_2_before_reading(self, tmp_path, capsys):
        src = tmp_path / "src"
        (src / "mould").mkdir(parents=True)
        (src / "mould" / "a.ppm").write_bytes(b"not a ppm")  # exit 4 if it were read
        out = tmp_path / "out"
        out.write_text("a file")
        assert main(["prepare", str(src), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err and err.count("\n") == 1


class TestTrain:
    def test_writes_outputs_with_epoch_rows(self, tmp_path, capsys):
        data = tmp_path / "data"
        small_tree(data)
        cfg = toy_config(tmp_path, data, tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 0
        hist = (tmp_path / "run" / "history.csv").read_text().strip().split("\n")
        assert hist[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(hist) == 3  # header + 2 epochs
        assert (tmp_path / "run" / "model.dnw").is_file()
        meta = (tmp_path / "run" / "run.meta").read_text()
        assert "seed = 3" in meta
        assert "input_size = 16" in meta

    def test_freeze_blocks_recorded_in_meta(self, tmp_path):
        data = tmp_path / "data"
        small_tree(data)
        cfg = toy_config(tmp_path, data, tmp_path / "run",
                         custom_blocks="1x4,1x8", freeze_blocks=1)
        assert main(["train", "--config", str(cfg)]) == 0
        meta = (tmp_path / "run" / "run.meta").read_text()
        line = next(l for l in meta.splitlines() if l.startswith("trainable_params"))
        assert "block2" in line and "head.out.w" in line
        assert "block1" not in line

    def test_transfer_from_init_weights_keeps_the_frozen_block(self, tmp_path):
        data = tmp_path / "data"
        small_tree(data)
        cfg = toy_config(tmp_path, data, tmp_path / "base", custom_blocks="1x4,1x8")
        assert main(["train", "--config", str(cfg)]) == 0
        base = tmp_path / "base" / "model.dnw"
        cfg = toy_config(tmp_path, data, tmp_path / "run", custom_blocks="1x4,1x8",
                         init_weights=base, freeze_blocks=1, seed=4)
        assert main(["train", "--config", str(cfg)]) == 0
        with open(base, "rb") as fh:
            before = read_weights(fh)
        with open(tmp_path / "run" / "model.dnw", "rb") as fh:
            after = read_weights(fh)
        assert list(after) == list(before)
        for name in before:
            kept = after[name].array.tobytes() == before[name].array.tobytes()
            assert kept == name.startswith("block1."), name
        meta = (tmp_path / "run" / "run.meta").read_text()
        line = next(l for l in meta.splitlines() if l.startswith("trainable_params"))
        assert "block2" in line and "block1" not in line

    def test_strict_init_against_a_different_head_exit_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        small_tree(data)
        other = tmp_path / "other.dnw"
        write_model(other, build(ArchSpec(((1, 4), (1, 8)), GapHead(), num_classes=10,
                                          input_size=16), seed=0))
        cfg = toy_config(tmp_path, data, tmp_path / "run", custom_blocks="1x4,1x8",
                         init_weights=other, init_policy="strict")
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "shape mismatch on 'head.out.w'" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override, message", [
        # a rate just under float32's largest value: the second update overflows
        ({"custom_blocks": "1x4", "input_size": 8, "learning_rate": "3.4e38", "seed": 0},
         "training diverged at epoch 1, step 2: "
         "parameter 'block1.conv1.b' holds non-finite values"),
        ({"custom_blocks": "1x4,1x8", "steps_per_epoch": 1, "learning_rate": "1e20"},
         "training diverged at epoch 1, validation: the logits are not finite"),
    ], ids=["parameter", "validation"])
    def test_diverging_run_exit_3_writes_nothing(self, tmp_path, capsys, override, message):
        data = tmp_path / "data"
        small_tree(data, size=override.get("input_size", 16))
        cfg = toy_config(tmp_path, data, tmp_path / "run", **override)
        assert main(["train", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("epochz = 1\n")
        assert main(["train", "--config", str(bad)]) == 2

    def test_missing_dataset_exit_3(self, tmp_path):
        cfg = toy_config(tmp_path, tmp_path / "absent", tmp_path / "run")
        assert main(["train", "--config", str(cfg)]) == 3

    def test_missing_init_weights_exit_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        small_tree(data)
        cfg = toy_config(tmp_path, data, tmp_path / "run",
                         init_weights=tmp_path / "absent.dnw")
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.dnw" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("override", [
        {"epochs": -1},
        {"momentum": 1.5},
        {"batch_size": 0},
        {"steps_per_epoch": 0},
        {"learning_rate": 0},
        {"seed": -1},
        {"val_fraction": 2},
        {"rotation_max_deg": -5},
        {"shift_max_frac": 0.9},
        {"aug_seed": -1},
        {"init_policy": "lenient", "init_weights": "absent.dnw"},
        {"freeze_blocks": 5, "init_weights": "absent.dnw"},
        {"fc_widths": 0, "head": "fc"},
        {"input_size": 0},
        pytest.param({"learning_rate": "nan"}, id="learning_rate-nan"),
        pytest.param({"learning_rate": "inf"}, id="learning_rate-inf"),
        pytest.param({"learning_rate": "1e39"}, id="learning_rate-float32-overflow"),
        pytest.param({"arch": b"custom\xff"}, id="not-utf8"),
        pytest.param({"fc_widths": 100000000000, "head": "fc"}, id="fc_widths-huge"),
    ], ids=lambda o: next(iter(o)))
    def test_bad_setting_exit_2_before_any_io(self, tmp_path, capsys, override):
        # data_dir and init_weights are absent: a check made after IO exits 3
        cfg = toy_config(tmp_path, tmp_path / "absent", tmp_path / "run", **override)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        key, value = next(iter(override.items()))
        if not isinstance(value, bytes):  # an undecodable file has no key to name
            assert f"{key} " in err


    def test_empty_validation_split_exit_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        small_tree(data, n=1)
        cfg = toy_config(tmp_path, data, tmp_path / "run", val_fraction=0.2)
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "validation split is empty" in err
        assert "4 images" in err and "val_fraction = 0.2" in err
        assert not (tmp_path / "run").exists()

    def test_out_dir_is_a_file_exit_2_before_any_io(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.write_text("a file")
        cfg = toy_config(tmp_path, tmp_path / "absent", out)
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err and err.count("\n") == 1


class TestEval:
    COUNTS = ("label,deterioration,mould,normal,stain\n"
              "deterioration,157,13,0,13\n"
              "mould,4,167,0,12\n"
              "normal,0,0,183,0\n"
              "stain,31,6,1,145\n")

    def test_counts_replay_prints_derived_report(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text(self.COUNTS)
        out_csv = tmp_path / "confusion.csv"
        assert main(["eval", "--counts", str(counts), "--out-csv", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "deterioration       0.82    0.86      0.84      183" in out
        assert "0.85" in out  # derived stain precision, not the printed 0.89
        assert "0.89" in out  # derived accuracy 652/732
        assert out_csv.read_text() == self.COUNTS

    def test_perfect_model_reports_all_ones(self, tmp_path, capsys):
        from dataclasses import replace
        spec = ArchSpec(((1, 4),), GapHead(), num_classes=4, input_size=16)
        m = zero_model(spec)
        # center-tap passthrough conv + linear color separator: red / green /
        # blue / white map to the four labels exactly
        w = np.zeros((4, 3, 3, 3), dtype=np.float32)
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        head = np.array([[2, -1, -1, 1], [-1, 2, -1, 1], [-1, -1, 2, 1],
                         [0, 0, 0, 0]], dtype=np.float32)
        params = dict(m.params)
        params["block1.conv1.w"] = Tensor(w)
        params["head.out.w"] = Tensor(head)
        model_path = tmp_path / "model.dnw"
        write_model(model_path, replace(m, params=params), input_size=16)

        data = tmp_path / "data"
        write_tree(data, {
            "deterioration": [solid_image(16, (255, 0, 0))] * 3,
            "mould": [solid_image(16, (0, 255, 0))] * 3,
            "normal": [solid_image(16, (0, 0, 255))] * 3,
            "stain": [solid_image(16, (255, 255, 255))] * 3,
        })
        out_csv = tmp_path / "confusion.csv"
        assert main(["eval", str(model_path), str(data), "--out-csv", str(out_csv)]) == 0
        out = capsys.readouterr().out
        for name in ("deterioration", "mould", "normal", "stain"):
            row = next(l for l in out.splitlines() if l.strip().startswith(name))
            assert row.count("1.00") == 3, row

    def test_eval_model_on_tree(self, tmp_path, capsys):
        data = tmp_path / "data"
        small_tree(data)
        model = tmp_path / "model.dnw"
        spec = ArchSpec(((1, 4),), GapHead(), num_classes=4, input_size=16)
        write_model(model, zero_model(spec), input_size=16)
        out_csv = tmp_path / "confusion.csv"
        assert main(["eval", str(model), str(data), "--out-csv", str(out_csv)]) == 0
        rows = out_csv.read_text().strip().split("\n")[1:]
        total = sum(int(v) for row in rows for v in row.split(",")[1:])
        assert total == 16

    def test_eval_without_model_or_counts_exit_2(self):
        assert main(["eval"]) == 2

    def test_eval_missing_model_exit_3(self, tmp_path):
        assert main(["eval", str(tmp_path / "no.dnw"), str(tmp_path)]) == 3

    @pytest.mark.parametrize("text", [
        None,                                    # missing file
        "",                                      # empty file
        COUNTS[:COUNTS.index("\nnormal,") + 1],  # short: two of four rows
        COUNTS.replace("167", "1x7"),            # non-integer cell
        COUNTS.replace("167", "-167"),           # negative count
        COUNTS.replace("mould,4,167", "mould,4"),  # short row
        COUNTS + "stain,1,1,1,1\n",              # extra row
        COUNTS.replace("\nnormal,", "\nNormal,"),  # mislabelled row
        "label,deterioration,mould,normal,stain\n" + "".join(  # no samples
            f"{name},0,0,0,0\n" for name in ("deterioration", "mould", "normal", "stain")),
    ], ids=["missing", "empty", "short", "non-integer", "negative", "short-row",
         "extra-row", "mislabelled", "all-zero"])
    def test_malformed_counts_exit_3(self, tmp_path, capsys, text):
        counts = tmp_path / "counts.csv"
        if text is not None:
            counts.write_text(text)
        out_csv = tmp_path / "confusion.csv"
        assert main(["eval", "--counts", str(counts), "--out-csv", str(out_csv)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_csv.exists()

    def test_out_csv_directory_exit_2_before_reading(self, tmp_path, capsys):
        # the counts file is absent: reading it first would exit 3
        argv = ["eval", "--counts", str(tmp_path / "absent.csv"), "--out-csv", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(tmp_path) in err
        assert err.count("\n") == 1


class TestPredict:
    def test_zero_model_uniform_probs(self, zero224, tmp_path, capsys):
        img = tmp_path / "in.ppm"
        img.write_bytes(encode_ppm(solid_image(224, (100, 50, 25))))
        assert main(["predict", str(zero224), str(img)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("deterioration ")
        assert line.count("0.2500") == 4

    def test_probabilities_sum_to_one(self, tmp_path, capsys):
        spec = ArchSpec(((1, 4),), GapHead(), num_classes=4, input_size=16)
        model = tmp_path / "model.dnw"
        write_model(model, build(spec, seed=8), input_size=16)
        img = tmp_path / "in.ppm"
        rng = np.random.default_rng(1)
        img.write_bytes(encode_ppm(from_float(rng.uniform(0, 1, (16, 16, 3)))))
        assert main(["predict", str(model), str(img)]) == 0
        line = capsys.readouterr().out.strip()
        probs = [float(tok.split("=")[1]) for tok in line.split()[1:]]
        assert abs(sum(probs) - 1.0) <= 2e-4

    def test_wrong_size_exit_4(self, zero224, tmp_path, capsys):
        img = tmp_path / "small.ppm"
        img.write_bytes(encode_ppm(solid_image(8, (1, 2, 3))))
        assert main(["predict", str(zero224), str(img)]) == 4
        assert "224x224" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "cam"])
    def test_non_finite_archive_exit_3(self, tmp_path, capsys, command):
        from dataclasses import replace
        m = zero_model(ArchSpec(((1, 4),), GapHead(), num_classes=4, input_size=16))
        w = np.zeros((4, 3, 3, 3), dtype=np.float32)
        w[0, 0, 0, 0] = np.nan
        model = tmp_path / "model.dnw"
        write_model(model, replace(m, params={**m.params, "block1.conv1.w": Tensor(w)}),
                    input_size=16)
        img = tmp_path / "in.ppm"
        img.write_bytes(encode_ppm(solid_image(16, (9, 9, 9))))
        argv = [command, str(model), str(img)] + ([str(tmp_path / "o.ppm")] if command == "cam" else [])
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "block1.conv1.w" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["predict", "cam", "eval"])
    def test_run_meta_not_utf8_exit_3(self, tmp_path, capsys, command):
        model = tmp_path / "model.dnw"
        write_model(model, zero_model(ArchSpec(((1, 4),), GapHead(), num_classes=4,
                                               input_size=16)))
        (tmp_path / "run.meta").write_bytes(b"input_size = 16\xff\n")
        img = tmp_path / "in.ppm"
        img.write_bytes(encode_ppm(solid_image(16, (9, 9, 9))))
        argv = {"predict": [str(img)], "cam": [str(img), str(tmp_path / "o.ppm")],
                "eval": [str(tmp_path / "test")]}[command]
        assert main([command, str(model)] + argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "run.meta" in captured.err and "UTF-8" in captured.err
        assert "cannot reconstruct" not in captured.err

    @pytest.mark.parametrize("value", ["abc", "0", "-16", ""])
    @pytest.mark.parametrize("command", ["predict", "cam", "eval"])
    def test_run_meta_bad_input_size_exit_3(self, tmp_path, capsys, command, value):
        # Before, a non-integer fell back to 224 px and blamed the image (exit 4),
        # and a size below 1 blamed the archive.
        model = tmp_path / "model.dnw"
        write_model(model, zero_model(ArchSpec(((1, 4),), GapHead(), num_classes=4,
                                               input_size=16)), input_size=value)
        img = tmp_path / "in.ppm"
        img.write_bytes(encode_ppm(solid_image(16, (9, 9, 9))))
        argv = {"predict": [str(img)], "cam": [str(img), str(tmp_path / "o.ppm")],
                "eval": [str(tmp_path / "test")]}[command]
        assert main([command, str(model)] + argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "run.meta" in captured.err and f"input_size = {value!r}" in captured.err
        assert "cannot reconstruct" not in captured.err

    @pytest.mark.parametrize("command", ["predict", "cam", "eval"])
    def test_run_meta_input_size_not_of_the_pools_exit_3(self, tmp_path, capsys, command):
        # Before, a positive size that two pools cannot halve blamed the archive.
        model = tmp_path / "model.dnw"
        write_model(model, zero_model(ArchSpec(((1, 4), (1, 4)), GapHead(), num_classes=4,
                                               input_size=16)), input_size=18)
        img = tmp_path / "in.ppm"
        img.write_bytes(encode_ppm(solid_image(16, (9, 9, 9))))
        argv = {"predict": [str(img)], "cam": [str(img), str(tmp_path / "o.ppm")],
                "eval": [str(tmp_path / "test")]}[command]
        assert main([command, str(model)] + argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "run.meta" in captured.err and "input_size 18 " in captured.err
        assert "cannot reconstruct" not in captured.err

    def test_load_model_draws_no_weights(self, tmp_path, monkeypatch):
        spec = ArchSpec(((1, 4), (2, 8)), GapHead(), num_classes=4, input_size=16)
        built = build(spec, seed=5)
        model = tmp_path / "model.dnw"
        write_model(model, built, input_size=16)
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew weights"))
        loaded = load_model(model)
        assert loaded.spec == spec and all(loaded.trainable.values())
        assert list(loaded.params) == list(built.params)
        for name, t in built.params.items():
            assert loaded.params[name].array.tobytes() == t.array.tobytes()

    @pytest.mark.parametrize("edit, message", [
        ({"block1.conv1.b": None}, "archive is missing model parameters: block1.conv1.b"),
        ({"head.extra.w": np.ones((2, 2))}, "archive has entries the model lacks: head.extra.w"),
        ({"block2.conv1.w": np.ones((8, 5, 3, 3))},
         "shape mismatch on 'block2.conv1.w': model (8, 4, 3, 3) vs archive (8, 5, 3, 3)"),
    ], ids=["missing", "extra", "shape"])
    def test_archive_not_of_its_architecture_exit_3(self, tmp_path, capsys, edit, message):
        from dataclasses import replace
        m = build(ArchSpec(((1, 4), (1, 8)), GapHead(), num_classes=4, input_size=16), seed=5)
        params = {n: t for n, t in m.params.items() if n not in edit}
        params.update({n: Tensor(v) for n, v in edit.items() if v is not None})
        model = tmp_path / "model.dnw"
        write_model(model, replace(m, params=params), input_size=16)
        img = tmp_path / "in.ppm"
        img.write_bytes(encode_ppm(solid_image(16, (9, 9, 9))))
        assert main(["predict", str(model), str(img)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_model_exit_3(self, tmp_path):
        img = tmp_path / "in.ppm"
        img.write_bytes(encode_ppm(solid_image(8, (1, 2, 3))))
        assert main(["predict", str(tmp_path / "no.dnw"), str(img)]) == 3


class TestCam:
    def _patch_model(self, tmp_path):
        """Hand-built detector: channel 0 responds to bright patches."""
        from dataclasses import replace
        spec = ArchSpec(((1, 4),), GapHead(), num_classes=4, input_size=32)
        m = zero_model(spec)
        w = np.zeros((4, 3, 3, 3), dtype=np.float32)
        w[0] = 1.0 / 27.0
        head = np.zeros((4, 4), dtype=np.float32)
        head[0, 0] = 1.0
        params = dict(m.params)
        params["block1.conv1.w"] = Tensor(w)
        params["head.out.w"] = Tensor(head)
        m = replace(m, params=params)
        path = tmp_path / "model.dnw"
        write_model(path, m, input_size=32)
        return path

    def test_alpha_zero_writes_identical_image(self, zero224, tmp_path, capsys):
        img_path = tmp_path / "in.ppm"
        img_bytes = encode_ppm(solid_image(224, (77, 88, 99)))
        img_path.write_bytes(img_bytes)
        out_path = tmp_path / "overlay.ppm"
        assert main(["cam", str(zero224), str(img_path), str(out_path),
                     "--alpha", "0"]) == 0
        assert out_path.read_bytes() == img_bytes
        assert "none" in capsys.readouterr().out  # flat maps -> degenerate -> no region

    def test_patch_region_lands_in_hot_quadrant(self, tmp_path, capsys):
        model = self._patch_model(tmp_path)
        rng = np.random.default_rng(5)
        img = patch_image(32, patch=6, top=2, left=3, rng=rng)  # top-left quadrant
        img_path = tmp_path / "in.ppm"
        img_path.write_bytes(encode_ppm(img))
        out_path = tmp_path / "overlay.ppm"
        assert main(["cam", str(model), str(img_path), str(out_path),
                     "--class", "deterioration"]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("region"))
        vals = dict(tok.split("=") for tok in line.split()[1:])
        # region content must sit inside the 16x16 top-left quadrant
        assert int(vals["x0"]) < 16 and int(vals["y0"]) < 16
        assert out_path.is_file()

    def test_fc_head_model_exit_5(self, tmp_path, capsys):
        spec = ArchSpec(((1, 4),), FcHead((8,)), num_classes=4, input_size=16)
        model = tmp_path / "model.dnw"
        write_model(model, build(spec, seed=2), input_size=16)
        img = tmp_path / "in.ppm"
        img.write_bytes(encode_ppm(solid_image(16, (9, 9, 9))))
        rc = main(["cam", str(model), str(img), str(tmp_path / "o.ppm")])
        assert rc == 5
        assert "GAP" in capsys.readouterr().err

    def test_unknown_class_name_exit_2(self, zero224, tmp_path):
        img = tmp_path / "in.ppm"
        img.write_bytes(encode_ppm(solid_image(224, (1, 1, 1))))
        rc = main(["cam", str(zero224), str(img), str(tmp_path / "o.ppm"),
                   "--class", "rust"])
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "2"), ("--alpha", "-0.1"), ("--threshold", "0"), ("--threshold", "1.5"),
        ("--class", "rust"),
    ])
    def test_out_of_range_option_exit_2_before_loading(self, tmp_path, capsys, flag, value):
        img = tmp_path / "in.ppm"
        img.write_bytes(encode_ppm(solid_image(16, (1, 1, 1))))
        rc = main(["cam", str(tmp_path / "absent.dnw"), str(img), str(tmp_path / "o.ppm"),
                   flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag} ") and err.count("\n") == 1
        assert not (tmp_path / "o.ppm").exists()

    def test_output_directory_exit_2_before_loading(self, tmp_path, capsys):
        img = tmp_path / "in.ppm"
        img.write_bytes(encode_ppm(solid_image(16, (1, 1, 1))))
        rc = main(["cam", str(tmp_path / "absent.dnw"), str(img), str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(tmp_path) in err
        assert err.count("\n") == 1

    def test_output_in_missing_directory_exit_2(self, zero224, tmp_path, capsys):
        img = tmp_path / "in.ppm"
        img.write_bytes(encode_ppm(solid_image(224, (1, 2, 3))))
        out = tmp_path / "absent" / "o.ppm"
        assert main(["cam", str(zero224), str(img), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err and err.count("\n") == 1

    def test_overlay_deterministic(self, tmp_path):
        model = self._patch_model(tmp_path)
        rng = np.random.default_rng(6)
        img_path = tmp_path / "in.ppm"
        img_path.write_bytes(encode_ppm(patch_image(32, 5, 20, 20, rng)))
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        assert main(["cam", str(model), str(img_path), str(a)]) == 0
        assert main(["cam", str(model), str(img_path), str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestAtomicOutputs:
    """Each output file is written to a temp file beside it and moved into
    place: a write that fails halfway exits 2 with one line, and leaves the
    old outputs byte for byte and no temp file behind."""

    @staticmethod
    def fail_halfway(monkeypatch, name):
        """Make the write of the output file called name stop with ENOSPC
        after half of its bytes."""
        import errno
        import io
        import pathlib

        import defectnet.cli as cli_mod

        def no_space():
            return OSError(errno.ENOSPC, "No space left on device")

        def failing(real):
            def write(self, data, *args, **kwargs):
                if name not in self.name:
                    return real(self, data, *args, **kwargs)
                real(self, data[: len(data) // 2], *args, **kwargs)
                raise no_space()
            return write

        def write_weights(model, sink):
            buf = io.BytesIO()
            write_weights_real(model, buf)
            sink.write(buf.getvalue()[: len(buf.getvalue()) // 2])
            raise no_space()

        write_weights_real = cli_mod.weights_io.write_weights
        monkeypatch.setattr(pathlib.Path, "write_text", failing(pathlib.Path.write_text))
        monkeypatch.setattr(pathlib.Path, "write_bytes", failing(pathlib.Path.write_bytes))
        if name == "model.dnw":
            monkeypatch.setattr(cli_mod.weights_io, "write_weights", write_weights)

    @staticmethod
    def snapshot(directory):
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    def assert_old_outputs_kept(self, capsys, rc, directory, before, failed):
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"config error: cannot write {directory / failed}: ")
        assert err.count("\n") == 1
        if before is not None:
            assert self.snapshot(directory) == before

    @pytest.mark.parametrize("name", ["model.dnw", "history.csv", "run.meta"])
    def test_train(self, tmp_path, capsys, monkeypatch, name):
        data, out = tmp_path / "data", tmp_path / "run"
        small_tree(data)
        assert main(["train", "--config", str(toy_config(tmp_path, data, out))]) == 0
        before = self.snapshot(out)
        assert set(before) == {"model.dnw", "history.csv", "run.meta"}
        self.fail_halfway(monkeypatch, name)
        rc = main(["train", "--config", str(toy_config(tmp_path, data, out, seed=4))])
        self.assert_old_outputs_kept(capsys, rc, out, before, name)

    def test_eval_out_csv(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        counts = tmp_path / "counts.csv"
        counts.write_text(TestEval.COUNTS)
        args = ["eval", "--counts", str(counts), "--out-csv", str(out / "confusion.csv")]
        assert main(args) == 0
        before = self.snapshot(out)
        counts.write_text(TestEval.COUNTS.replace("157", "158"))
        self.fail_halfway(monkeypatch, "confusion.csv")
        self.assert_old_outputs_kept(capsys, main(args), out, before, "confusion.csv")

    def test_cam_overlay(self, tmp_path, capsys, monkeypatch):
        model = tmp_path / "model.dnw"
        write_model(model, zero_model(ArchSpec(((1, 4),), GapHead(), num_classes=4,
                                               input_size=16)), input_size=16)
        img = tmp_path / "in.ppm"
        img.write_bytes(encode_ppm(solid_image(16, (77, 88, 99))))
        out = tmp_path / "out"
        out.mkdir()
        args = ["cam", str(model), str(img), str(out / "o.ppm")]
        assert main(args + ["--alpha", "0"]) == 0
        before = self.snapshot(out)
        self.fail_halfway(monkeypatch, "o.ppm")
        self.assert_old_outputs_kept(capsys, main(args + ["--alpha", "1"]), out, before, "o.ppm")

    def test_unwritable_path_exit_2(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text(TestEval.COUNTS)
        out = tmp_path / "out"
        out.write_text("a file, not a directory\n")
        before = self.snapshot(tmp_path)
        rc = main(["eval", "--counts", str(counts), "--out-csv", str(out / "c.csv")])
        self.assert_old_outputs_kept(capsys, rc, out, None, "c.csv")
        assert self.snapshot(tmp_path) == before
