import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from auxgan import data
from auxgan.data import (IMAGE_MAGIC, LABEL_MAGIC, GaussianMixtureSpec, IdxFile,
                         IdxParseError, ImageSet, LabeledBatch, load_mnist, minibatches,
                         read_idx, sample_mixture, synthetic_digits, write_idx,
                         write_synthetic_digit_files)


def _one_image_files(tmp_path, pixel=0, label=7):
    img = tmp_path / "images"
    lab = tmp_path / "labels"
    payload = np.full(28 * 28, pixel, dtype=np.uint8)
    write_idx(img, IdxFile(IMAGE_MAGIC, (1, 28, 28), payload))
    write_idx(lab, IdxFile(LABEL_MAGIC, (1,), np.array([label], dtype=np.uint8)))
    return img, lab


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    payload = rng.integers(0, 256, size=2 * 28 * 28).astype(np.uint8)
    path = tmp_path / "fixture"
    write_idx(path, IdxFile(IMAGE_MAGIC, (2, 28, 28), payload))
    back = read_idx(path)
    assert back.magic == IMAGE_MAGIC
    assert back.dims == (2, 28, 28)
    assert np.array_equal(back.payload, payload)


@pytest.mark.parametrize("fault", ["write", "rename"])
def test_write_file_that_raises_leaves_no_tmp_and_the_old_file_whole(tmp_path, monkeypatch, fault):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    chunks = [b"new", b"more"]
    if fault == "write":
        chunks.append("not bytes")  # f.write raises TypeError on the third chunk
    else:
        def cut(source, target):
            raise OSError("cut")
        monkeypatch.setattr(os, "replace", cut)
    with pytest.raises(TypeError if fault == "write" else OSError):
        data.write_file(path, *chunks)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
    assert path.read_bytes() == b"old"


def test_idx_malformed_magic_reports_offset(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(struct.pack(">I", 0xDEADBEEF) + b"\x00" * 8)
    with pytest.raises(IdxParseError) as e:
        read_idx(path)
    assert e.value.offset == 0
    assert "offset" in str(e.value)


def test_idx_truncated_header(tmp_path):
    path = tmp_path / "short"
    path.write_bytes(struct.pack(">I", IMAGE_MAGIC) + struct.pack(">I", 1))
    with pytest.raises(IdxParseError) as e:
        read_idx(path)
    assert e.value.offset == 8


def test_idx_payload_length_mismatch(tmp_path):
    path = tmp_path / "trunc"
    header = struct.pack(">IIII", IMAGE_MAGIC, 1, 28, 28)
    path.write_bytes(header + b"\x00" * 100)  # needs 784
    with pytest.raises(IdxParseError) as e:
        read_idx(path)
    assert "784" in str(e.value)


def test_idx_dims_whose_product_wraps_int64_are_refused(tmp_path):
    # 2**31 * 2**31 * 4 is 0 in int64: the header alone would pass as an empty payload
    path = tmp_path / "huge"
    path.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, 2**31, 2**31, 4))
    with pytest.raises(IdxParseError) as e:
        read_idx(path)
    assert e.value.offset == 16
    with pytest.raises(ValueError):
        IdxFile(IMAGE_MAGIC, (2**31, 2**31, 4), np.zeros(0, dtype=np.uint8))


def test_idx_empty_file(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    with pytest.raises(IdxParseError):
        read_idx(path)


def test_idx_dims_payload_consistency():
    with pytest.raises(ValueError):
        IdxFile(IMAGE_MAGIC, (2, 28, 28), np.zeros(10, dtype=np.uint8))


def test_load_mnist_single_zero_image(tmp_path):
    img, lab = _one_image_files(tmp_path, pixel=0, label=7)
    batch = load_mnist(img, lab).rows(slice(None))
    assert batch.features.shape == (1, 784)
    assert (batch.features == 0.0).all()
    assert batch.labels.tolist() == [7]


def test_load_mnist_pixel_scaling(tmp_path):
    img, lab = _one_image_files(tmp_path, pixel=255)
    batch = load_mnist(img, lab).rows(slice(None))
    assert (batch.features == 1.0).all()


def test_load_mnist_scaling_equals_division_for_every_byte_value(tmp_path):
    payload = (np.arange(2 * 784) % 256).astype(np.uint8)
    write_idx(tmp_path / "images", IdxFile(IMAGE_MAGIC, (2, 28, 28), payload))
    write_idx(tmp_path / "labels", IdxFile(LABEL_MAGIC, (2,), np.zeros(2, dtype=np.uint8)))
    batch = load_mnist(tmp_path / "images", tmp_path / "labels").rows(slice(None))
    reference = payload.astype(np.float64).reshape(2, 784) / 255.0
    assert batch.features.tobytes() == reference.tobytes()


def test_load_mnist_count_mismatch(tmp_path):
    img = tmp_path / "images"
    lab = tmp_path / "labels"
    write_idx(img, IdxFile(IMAGE_MAGIC, (2, 28, 28), np.zeros(2 * 784, dtype=np.uint8)))
    write_idx(lab, IdxFile(LABEL_MAGIC, (3,), np.zeros(3, dtype=np.uint8)))
    with pytest.raises(IdxParseError) as e:
        load_mnist(img, lab)
    assert e.value.offset == 4


def test_load_mnist_refuses_an_image_file_with_no_images(tmp_path):
    img = tmp_path / "images"
    lab = tmp_path / "labels"
    write_idx(img, IdxFile(IMAGE_MAGIC, (0, 28, 28), np.zeros(0, dtype=np.uint8)))
    write_idx(lab, IdxFile(LABEL_MAGIC, (0,), np.zeros(0, dtype=np.uint8)))
    with pytest.raises(IdxParseError, match="no images") as e:
        load_mnist(img, lab)
    assert e.value.offset == 4


def test_load_mnist_swapped_files_rejected(tmp_path):
    img, lab = _one_image_files(tmp_path)
    with pytest.raises(IdxParseError):
        load_mnist(lab, img)


def test_labeled_batch_validation():
    with pytest.raises(ValueError):
        LabeledBatch(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        LabeledBatch(features=np.zeros((2, 2)), labels=np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        LabeledBatch(features=np.zeros((2, 2)), labels=np.array([0, -1]))


def test_ring_layout_separation():
    spec = GaussianMixtureSpec.ring(n_classes=4)
    dists = [np.linalg.norm(spec.means[i] - spec.means[j])
             for i in range(4) for j in range(i + 1, 4)]
    assert min(dists) > 6.0 * spec.stddev


def test_mixture_zero_stddev_yields_exact_means():
    spec = GaussianMixtureSpec.ring(n_classes=4, stddev=0.0)
    batch = sample_mixture(spec, np.random.default_rng(1), 64)
    assert np.array_equal(batch.features, spec.means[batch.labels])


def test_mixture_moments():
    spec = GaussianMixtureSpec.ring(n_classes=4)
    batch = sample_mixture(spec, np.random.default_rng(2), 100_000)
    for c in range(4):
        got = batch.features[batch.labels == c].mean(axis=0)
        assert np.abs(got - spec.means[c]).max() < 0.02


def test_mixture_label_histogram_uniform():
    spec = GaussianMixtureSpec.ring(n_classes=4)
    batch = sample_mixture(spec, np.random.default_rng(3), 100_000)
    counts = np.bincount(batch.labels, minlength=4)
    sigma = np.sqrt(100_000 * 0.25 * 0.75)
    assert np.abs(counts - 25_000).max() <= 3.0 * sigma


def test_mixture_deterministic_per_seed():
    spec = GaussianMixtureSpec.ring(n_classes=4)
    a = sample_mixture(spec, np.random.default_rng(4), 100)
    b = sample_mixture(spec, np.random.default_rng(4), 100)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def _dataset(n, rng):
    return LabeledBatch(features=rng.normal(size=(n, 3)),
                        labels=rng.integers(0, 4, size=n))


def test_minibatches_drops_partial_tail():
    data = _dataset(100, np.random.default_rng(5))
    batches = list(minibatches(data, 32, np.random.default_rng(6)))
    assert len(batches) == 3
    assert all(len(b) == 32 for b in batches)


def test_minibatches_same_seed_same_order():
    data = _dataset(64, np.random.default_rng(7))
    a = [b.features for b in minibatches(data, 16, np.random.default_rng(8))]
    b = [b.features for b in minibatches(data, 16, np.random.default_rng(8))]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_minibatches_partition_the_dataset():
    data = _dataset(96, np.random.default_rng(9))
    seen = np.concatenate([b.features for b in minibatches(data, 32, np.random.default_rng(10))])
    assert seen.shape == data.features.shape
    order = np.lexsort(seen.T)
    expected_order = np.lexsort(data.features.T)
    assert np.array_equal(seen[order], data.features[expected_order])


def _traced_peak(fn, *args):
    """(result, tracemalloc peak in bytes) of fn(*args)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), width=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_minibatches_over_bytes_equal_those_over_their_float64_division(data, n, width, seed):
    pixels = data.draw(hnp.arrays(np.uint8, (n, width)))
    labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 9)))
    batch_size = data.draw(st.integers(1, n))
    byte_set = ImageSet(pixels=pixels, labels=labels, image_shape=(1, width))
    scaled = LabeledBatch(features=pixels / 255.0, labels=labels)
    got = list(minibatches(byte_set, batch_size, np.random.default_rng(seed)))
    want = list(minibatches(scaled, batch_size, np.random.default_rng(seed)))
    assert len(got) == len(want) == n // batch_size
    for a, b in zip(got, want):
        assert a.features.dtype == np.float64 and a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("n", [1000, 8000])
def test_an_epoch_over_bytes_peaks_at_a_few_batches(n):
    rng = np.random.default_rng(0)
    byte_set = ImageSet(pixels=rng.integers(0, 256, (n, 784), dtype=np.uint8),
                        labels=rng.integers(0, 10, n), image_shape=(28, 28))
    batches, peak = _traced_peak(lambda: sum(1 for _ in minibatches(byte_set, 64, rng)))
    assert batches == n // 64
    assert peak < 3 * 64 * 784 * 8


def test_minibatches_validation():
    data = _dataset(10, np.random.default_rng(11))
    with pytest.raises(ValueError):
        list(minibatches(data, 0, np.random.default_rng(0)))
    with pytest.raises(ValueError):
        list(minibatches(data, 11, np.random.default_rng(0)))


def test_synthetic_digits_shapes_and_labels():
    images, labels = synthetic_digits(200, np.random.default_rng(12))
    assert images.shape == (200, 28, 28) and images.dtype == np.uint8
    assert labels.min() >= 0 and labels.max() <= 9


def test_synthetic_corpus_files_keep_their_bytes(tmp_path):
    paths = write_synthetic_digit_files(tmp_path, n_train=600, n_test=100)
    digests = {key: hashlib.sha256(open(path, "rb").read()).hexdigest()[:16]
               for key, path in paths.items()}
    assert digests == {"train_images": "36b5ec9313e06b09", "train_labels": "0793737eb835bfaa",
                       "test_images": "1e45fc0bc4301b9f", "test_labels": "5c213ae523a2a27b"}


def test_load_mnist_holds_the_file_bytes_without_a_float64_copy(tmp_path):
    paths = write_synthetic_digit_files(tmp_path, n_train=3000, n_test=10)
    images, peak = _traced_peak(load_mnist, paths["train_images"], paths["train_labels"])
    assert images.pixels.dtype == np.uint8 and images.pixels.shape == (3000, 784)
    assert images.image_shape == (28, 28)
    assert peak < 2.5 * os.path.getsize(paths["train_images"])


def test_synthetic_corpus_round_trip_and_determinism(tmp_path):
    paths_a = write_synthetic_digit_files(tmp_path / "a", n_train=50, n_test=20)
    paths_b = write_synthetic_digit_files(tmp_path / "b", n_train=50, n_test=20)
    for key in paths_a:
        bytes_a = open(paths_a[key], "rb").read()
        bytes_b = open(paths_b[key], "rb").read()
        assert bytes_a == bytes_b
    train = load_mnist(paths_a["train_images"], paths_a["train_labels"]).rows(slice(None))
    assert train.features.shape == (50, 784)
    assert train.features.min() >= 0.0 and train.features.max() <= 1.0
    assert train.labels.max() <= 9


def _reference_synthetic_digits(n, rng):
    """synthetic_digits with its noise, clipping and scaling as whole-array expressions."""
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    images = np.zeros((n, 28, 28), dtype=np.float64)
    stamps = [data._glyph_stamp(d) for d in range(10)]
    h, w = stamps[0].shape
    for i in range(n):
        top = rng.integers(0, 28 - h + 1)
        left = rng.integers(0, 28 - w + 1)
        intensity = rng.uniform(0.6, 1.0)
        images[i, top:top + h, left:left + w] = intensity * stamps[labels[i]]
    images += 0.08 * rng.standard_normal(images.shape)
    images = np.clip(images, 0.0, 1.0)
    return np.round(images * 255.0).astype(np.uint8), labels


@pytest.mark.parametrize("n", [1, data._NOISE_ROWS, 2 * data._NOISE_ROWS + 17])
def test_synthetic_digits_built_in_place_equal_the_whole_array_expression(n):
    rng, reference_rng = np.random.default_rng(20240501), np.random.default_rng(20240501)
    images, labels = synthetic_digits(n, rng)
    reference_images, reference_labels = _reference_synthetic_digits(n, reference_rng)
    assert images.tobytes() == reference_images.tobytes()
    assert np.array_equal(labels, reference_labels)
    assert rng.random() == reference_rng.random()  # the stream continues where it did


def test_synthetic_digits_memory_beyond_its_output_does_not_grow_with_n():
    def excess(n):
        _, peak = _traced_peak(synthetic_digits, n, np.random.default_rng(0))
        return peak - n * (28 * 28 + 1)  # the uint8 images and labels it returns

    assert abs(excess(6000) - excess(1500)) < data._NOISE_ROWS * 28 * 28 * 8


def test_synthetic_digits_peak_memory_stays_near_the_image_array():
    n = 3000
    tracemalloc.start()
    try:
        synthetic_digits(n, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * 28 * 28 * 8
