import numpy as np
import pytest

from auxgan.cli import build_parser, main
from auxgan.schemes import SchemeConfig, build_trio, save_checkpoint


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
    assert args.samples_per_class == 200
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
    (lambda tmp: ["grid", "--checkpoint", str(_ring_checkpoint(tmp / "ring"))], "28x28"),
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


def test_eval_image_checkpoint_needs_probe(image_checkpoint, capsys):
    rc = main(["eval", "--checkpoint", str(image_checkpoint)])
    assert rc == 2
    _, err = capsys.readouterr()
    assert "probe" in err


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
