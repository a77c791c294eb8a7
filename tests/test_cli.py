import json
import os
import subprocess
import sys

import numpy as np
import pytest

import auxgan.harness as harness
from auxgan import data
from auxgan.cli import build_parser, main
from auxgan.data import IMAGE_MAGIC, LABEL_MAGIC, IdxFile, write_idx, write_synthetic_digit_files
from auxgan.nn import MLP
from auxgan.schemes import SchemeConfig, build_trio, save_checkpoint, save_probe_checkpoint


@pytest.fixture(scope="module")
def image_checkpoint(tmp_path_factory):
    """A saved (untrained) 784-dimensional generator for eval/grid tests."""
    directory = tmp_path_factory.mktemp("image_ckpt")
    cfg = SchemeConfig(scheme="gan", n_classes=10, noise_dim=16)
    trio = build_trio(cfg, data_dim=784, rng=np.random.default_rng(0),
                      generator_hidden=(16,), discriminator_hidden=(16,),
                      generator_output="sigmoid")
    save_checkpoint(directory, trio, seed=0)
    return directory


def test_parser_knows_all_subcommands():
    parser = build_parser()
    args = parser.parse_args(["verify-identities", "--n", "3", "--support", "8",
                              "--trials", "2"])
    assert args.seed == 0
    args = parser.parse_args(["train", "--config", "c.json"])
    assert args.out is None and args.mnist_dir is None
    args = parser.parse_args(["eval", "--checkpoint", "run"])
    assert args.samples_per_class is None  # harness.evaluate takes the run's own count
    args = parser.parse_args(["grid", "--checkpoint", "run"])
    assert args.cols == 8


def test_parser_requires_a_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_verify_identities_prints_csv(capsys):
    rc = main(["verify-identities", "--n", "3", "--support", "8",
               "--trials", "5", "--seed", "1"])
    assert rc == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == "trial,cce,jsd,residual"
    assert len(lines) == 6
    for i, line in enumerate(lines[1:]):
        trial, cce, jsd, residual = line.split(",")
        assert int(trial) == i
        assert float(cce) > 0.0 and float(jsd) >= 0.0
        assert float(residual) <= 1e-9
    assert "worst residual" in err


def test_train_then_eval_mixture(tmp_path, capsys):
    config = {
        "dataset": "mixture2d",
        "scheme": {"scheme": "vacgan", "n_classes": 2, "noise_dim": 4,
                   "steps_per_epoch": 20, "epochs": 1},
        "eval_every": 10,
    }
    config_path = tmp_path / "run.json"
    import json
    config_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"

    rc = main(["train", "--config", str(config_path),
               "--seed", "6", "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "manifest.txt").exists()
    lines = (out_dir / "metrics.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in lines] == ["step", "0", "10", "20"]
    capsys.readouterr()

    # without --samples-per-class, eval recounts the run's last evaluation
    recount_path = tmp_path / "recount.csv"
    assert main(["eval", "--checkpoint", str(out_dir), "--out", str(recount_path)]) == 0
    assert recount_path.read_bytes() == (out_dir / "confusion.csv").read_bytes()
    last = lines[-1].split(",")
    out, _ = capsys.readouterr()
    assert f"match rate: {last[4]}\n" in out and f"jsd estimate: {last[5]}\n" in out

    confusion_path = tmp_path / "confusion_eval.csv"
    rc = main(["eval", "--checkpoint", str(out_dir),
               "--samples-per-class", "50", "--out", str(confusion_path)])
    assert rc == 0
    out, _ = capsys.readouterr()
    assert "match rate:" in out
    rows = confusion_path.read_text().strip().splitlines()
    assert len(rows) == 2
    assert sum(int(v) for r in rows for v in r.split(",")) == 100


def test_train_checks_the_seed_override(tmp_path, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text('{"dataset": "mixture2d", "scheme": {"scheme": "gan", "n_classes": 2}}')
    rc = main(["train", "--config", str(config_path), "--seed", "-1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "seed" in capsys.readouterr()[1]
    assert not (tmp_path / "out").exists()


def test_train_exits_1_when_a_classifier_weight_turns_nan(tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text('{"dataset": "mixture2d", "eval_every": 2, "scheme": {"scheme": '
                           '"vacgan", "n_classes": 2, "steps_per_epoch": 10, "epochs": 1}}')
    real_step = harness.train_step

    def poisoned(real, labels_fake, trio, scheme_cfg, rng):
        if trio.step == 3:
            trio.classifier.layers[0].weights.data[0, 0] = np.nan
        return real_step(real, labels_fake, trio, scheme_cfg, rng)

    monkeypatch.setattr(harness, "train_step", poisoned)
    rc = main(["train", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr()[1]
    assert "aborted: classifier output in the classifier step is not finite" in err
    lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in lines] == ["step", "0", "2"]


def _config_file(directory, text):
    path = directory / "config.json"
    path.write_text(text)
    return path


def _digits_lacking_one(directory):
    """An MNIST-layout directory without its test labels file."""
    os.remove(write_synthetic_digit_files(directory / "digits", n_train=64,
                                          n_test=16)["test_labels"])
    return directory / "digits"


def _ring_checkpoint(directory):
    trio = build_trio(SchemeConfig(scheme="gan", n_classes=4), data_dim=2,
                      rng=np.random.default_rng(0))
    save_checkpoint(directory, trio, seed=0)
    return directory


@pytest.mark.parametrize("argv, named", [
    (lambda tmp: ["eval", "--checkpoint", str(tmp / "missing")], "missing"),
    (lambda tmp: ["grid", "--checkpoint", str(tmp / "missing")], "missing"),
    (lambda tmp: ["train", "--config", str(tmp / "bad.json"), "--out", str(tmp / "out")],
     "epochs"),
    (lambda tmp: ["grid", "--checkpoint", str(_ring_checkpoint(tmp / "ring"))], "2 features"),
    (lambda tmp: ["train", "--config", str(_config_file(tmp, '{"dataset": "mnist", "scheme": '
                                                            '{"scheme": "gan", "n_classes": 10}}')),
                  "--out", str(tmp / "out"), "--mnist-dir", str(_digits_lacking_one(tmp))],
     "t10k-labels-idx1-ubyte"),
    (lambda tmp: ["train", "--config", str(_config_file(tmp, '{"output_dir": 5, "dataset": '
                                                            '"mixture2d", "scheme": {"scheme": '
                                                            '"gan", "n_classes": 2}}'))],
     "output_dir"),
])
def test_bad_input_files_are_one_error_line_with_exit_2(argv, named, tmp_path, capsys):
    bad = '{"scheme": {"scheme": "gan", "n_classes": 2, "epochs": -1}}'
    (tmp_path / "bad.json").write_text(bad)
    rc = main(argv(tmp_path))
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("auxgan: error: ") and err.count("\n") == 1
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_train_refuses_non_square_digit_images_before_touching_the_run(tmp_path, capsys):
    paths = data._mnist_paths(tmp_path / "digits")
    os.makedirs(tmp_path / "digits")
    for split, n in (("train", 256), ("test", 32)):
        write_idx(paths[f"{split}_images"],
                  IdxFile(IMAGE_MAGIC, (n, 20, 30), np.zeros(n * 600, dtype=np.uint8)))
        write_idx(paths[f"{split}_labels"],
                  IdxFile(LABEL_MAGIC, (n,), np.arange(n, dtype=np.uint8) % 10))
    out = tmp_path / "out"
    earlier = {"metrics.csv": "earlier run", "confusion.csv": "earlier run",
               "checkpoint.bin": "earlier run", "probe/manifest.txt": "earlier run"}
    for name, text in earlier.items():
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
    config = _config_file(tmp_path, '{"dataset": "mnist", "scheme": {"scheme": "gan", '
                                    '"n_classes": 10, "epochs": 1}}')
    rc = main(["train", "--config", str(config), "--out", str(out),
               "--mnist-dir", str(tmp_path / "digits")])
    assert rc == 2
    err = capsys.readouterr()[1]
    assert err.startswith("auxgan: error: ") and err.count("\n") == 1 and "20x30" in err
    left = {str(p.relative_to(out)): p.read_text() for p in out.rglob("*") if p.is_file()}
    assert left == earlier


def test_eval_image_checkpoint_needs_probe(image_checkpoint, capsys):
    rc = main(["eval", "--checkpoint", str(image_checkpoint)])
    assert rc == 2
    _, err = capsys.readouterr()
    assert str(image_checkpoint / "probe") in err  # the bundle its run would have saved


@pytest.mark.parametrize("probe_dims, named", [
    ((784, 8, 10), "output width 10, the checkpoint's n_classes is 5"),
    ((100, 8, 5), "input width 100, the checkpoint's data_dim is 784"),
])
def test_eval_refuses_a_probe_whose_widths_do_not_fit_the_checkpoint(probe_dims, named,
                                                                   tmp_path, capsys):
    cfg = SchemeConfig(scheme="gan", n_classes=5, noise_dim=4)
    trio = build_trio(cfg, data_dim=784, rng=np.random.default_rng(0),
                      generator_hidden=(8,), discriminator_hidden=(8,),
                      generator_output="sigmoid")
    save_checkpoint(tmp_path / "run", trio, seed=0)
    probe = MLP(probe_dims, ("relu", "linear"), rng=np.random.default_rng(1))
    save_probe_checkpoint(tmp_path / "run" / "probe", probe, 1.0, seed=0)
    rc = main(["eval", "--checkpoint", str(tmp_path / "run" / "manifest.txt")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("auxgan: error: ") and err.count("\n") == 1
    assert named in err


def test_grid_renders_pgm(image_checkpoint, tmp_path, capsys):
    out = tmp_path / "grid.pgm"
    rc = main(["grid", "--checkpoint", str(image_checkpoint),
               "--cols", "4", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr()[0].strip() == str(out)
    assert out.read_bytes().startswith(b"P5\n112 280\n255\n")


def test_grid_default_filename_uses_step(image_checkpoint, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["grid", "--checkpoint", str(image_checkpoint)])
    assert rc == 0
    assert capsys.readouterr()[0].strip() == "samples_step0000.pgm"
    assert (tmp_path / "samples_step0000.pgm").exists()


@pytest.mark.parametrize("argv, flag", [
    (["eval", "--checkpoint", "run", "--samples-per-class", "0"], "--samples-per-class"),
    (["eval", "--checkpoint", "run", "--samples-per-class", "-3"], "--samples-per-class"),
    (["grid", "--checkpoint", "run", "--cols", "0"], "--cols"),
    (["verify-identities", "--n", "3", "--support", "8", "--trials", "-2"], "--trials"),
    (["verify-identities", "--n", "1", "--support", "8", "--trials", "2"], "--n"),
    (["verify-identities", "--n", "3", "--support", "0", "--trials", "2"], "--support"),
    (["verify-identities", "--n", "3", "--support", "8", "--trials", "2", "--seed", "-1"],
     "--seed"),
    (["grid", "--checkpoint", "run", "--cols", "two"], "--cols"),
])
def test_sizes_below_their_floor_are_refused_naming_the_flag(argv, flag, tmp_path,
                                                             monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert f"argument {flag}:" in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_smallest_valid_sizes_are_accepted(image_checkpoint, tmp_path, capsys):
    assert main(["verify-identities", "--n", "2", "--support", "1", "--trials", "1"]) == 0
    out = tmp_path / "grid.pgm"
    assert main(["grid", "--checkpoint", str(image_checkpoint), "--cols", "1",
                 "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"P5\n28 280\n255\n")


def test_train_pins_blas_so_its_thread_count_setting_moves_no_byte(tmp_path):
    # a digit-width run, whose products a BLAS on more than one thread would split
    data = tmp_path / "data"
    write_synthetic_digit_files(data, n_train=3200, n_test=300)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "dataset": "mnist", "seed": 3, "probe_epochs": 6,
        "scheme": {"scheme": "vacgan", "n_classes": 10, "noise_dim": 16, "epochs": 1}}))
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    artifacts = []
    for threads in (None, "1"):  # unset, then set explicitly
        env = {key: value for key, value in os.environ.items() if key not in blas}
        env.update(dict.fromkeys(blas, threads) if threads else {})
        env["PYTHONPATH"] = src
        out = tmp_path / f"run-{threads}"
        subprocess.run([sys.executable, "-m", "auxgan.cli", "train", "--config", str(config),
                        "--out", str(out), "--mnist-dir", str(data)],
                       env=env, capture_output=True, timeout=300, check=True)
        artifacts.append([(out / name).read_bytes() for name in ("checkpoint.bin", "metrics.csv")])
    assert artifacts[0] == artifacts[1]
