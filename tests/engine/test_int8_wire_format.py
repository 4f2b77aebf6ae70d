"""The int8 blob as bytes: goldens, back-compat, degenerate inputs, refusal of non-finite updates.

``[float32 scale][zlib(int8 codes)]`` is what an int8 client puts on the
wire.  The parity suites compare executors with each other, so before
this file nothing noticed when the *bytes* changed.  Two goldens pin
them: the lattice (scale + inflated codes — a pure function of the
tensor and the rounding stream, whatever packs it) and the blob itself
(which also pins zlib's ``deflate_rle``, unchanged across zlib 1.2.x and
1.3.x; if only the blob hash moves, the entropy coder did, not the
quantiser).
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pytest

from repro.engine.codecs import (
    Int8Codec,
    NonFiniteUpdateError,
    TopKCodec,
    codec_generator,
    decode_update,
    encode_update,
)
from repro.engine.rng import client_stream


def fixed_update() -> dict[str, np.ndarray]:
    """A conv kernel, an FC matrix, a bias and a BN vector with SGD-update statistics."""
    rng = np.random.default_rng(20240229)
    return {
        "features.0.weight": (rng.standard_normal((8, 3, 5, 5)) * 1e-2).astype(np.float32),
        "classifier.0.weight": (rng.standard_normal((40, 96)) * 3e-3).astype(np.float32),
        "classifier.0.bias": (rng.standard_normal(40) * 1e-3).astype(np.float32),
        "features.1.running_var": np.abs(rng.standard_normal(8) * 1e-4).astype(np.float32),
    }


def encode_fixed():
    return encode_update(Int8Codec(), fixed_update(), codec_generator(client_stream(7, 3, 11)), client_id=11)


def sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


LATTICE_SHA256 = {
    "features.0.weight": "d2a0a72abab82eecb0ccd473f406135fd2cee7160b4f786fea98a4ab025a95f9",
    "classifier.0.weight": "cb17f352061ac1ac38e149cccb730fb1e3a950af1be645c5a512a948dcfeac12",
    "classifier.0.bias": "feecf0b75d629ed8a39ceba657af7a65c812f3de4c459ac0dfaa242e277528d9",
    "features.1.running_var": "6b6244652ef74995e7c25a39d2540b3d7d0c93a2447a32cc0c24b063ab209634",
}
BLOB_SHA256 = {
    "features.0.weight": "61fae08a736cab5c54746161bd1488c7d44bd59418a2876b1ed62bbd6f9e029e",
    "classifier.0.weight": "848414fff2c23795d531ece17ece25976f5cb6d338ceba5b6126df8ab97d1a2b",
    "classifier.0.bias": "bfaf59f4de869b962ceb403ca8e7ef888d14b1acc8dcb2dc04ae2c830e3a251a",
    "features.1.running_var": "a78552bb905750af7bb81ce05716580151cf7862a4ff5fcc0211e796df5ca282",
}
BLOB_BYTES = {
    "features.0.weight": 607,
    "classifier.0.weight": 3549,
    "classifier.0.bias": 55,
    "features.1.running_var": 20,
}


class TestGoldenBytes:
    def test_lattice_is_pinned(self):
        encoded = encode_fixed()
        lattice = {
            name: sha256(blob[:4], zlib.decompress(blob[4:])) for name, blob in encoded.blobs.items()
        }
        assert lattice == LATTICE_SHA256

    def test_blob_bytes_are_pinned(self):
        encoded = encode_fixed()
        assert {name: len(blob) for name, blob in encoded.blobs.items()} == BLOB_BYTES
        assert {name: sha256(blob) for name, blob in encoded.blobs.items()} == BLOB_SHA256
        assert encoded.nbytes == sum(BLOB_BYTES.values())

    def test_encoding_is_a_pure_function_of_tensor_and_stream(self):
        # the reused per-thread scratch must not leak one call into the next:
        # a large tensor in between, then the same bytes again
        first = encode_fixed()
        big = {"w": np.random.default_rng(1).standard_normal((300, 300)).astype(np.float32)}
        encode_update(Int8Codec(), big, codec_generator(client_stream(0, 0, 0)))
        second = encode_fixed()
        assert first.blobs == second.blobs

    def test_non_contiguous_and_float64_inputs_hit_the_same_lattice(self):
        update = fixed_update()
        matrix = update["classifier.0.weight"]
        stream = client_stream(7, 3, 11)
        _, reference = Int8Codec().encode_array(matrix, codec_generator(stream))
        _, transposed = Int8Codec().encode_array(
            np.asfortranarray(matrix), codec_generator(stream)
        )
        _, widened = Int8Codec().encode_array(matrix.astype(np.float64), codec_generator(stream))
        assert transposed == reference
        assert widened == reference


class TestOldBlobsStillDecode:
    """Inflate is strategy-agnostic: a level-6 blob of an earlier version decodes to the same values."""

    def test_level6_blob_decodes_to_the_same_tensor(self):
        encoded = encode_fixed()
        expected = decode_update(encoded)
        for name, blob in encoded.blobs.items():
            codes = zlib.decompress(blob[4:])
            encoded.blobs[name] = blob[:4] + zlib.compress(codes, 6)
        legacy = decode_update(encoded)
        for name, value in expected.items():
            assert legacy[name].tobytes() == value.tobytes(), name

    def test_rle_blob_is_no_bigger_than_level6_on_update_statistics(self):
        encoded = encode_fixed()
        blob = encoded.blobs["classifier.0.weight"]
        assert len(blob) <= 4 + len(zlib.compress(zlib.decompress(blob[4:]), 6))


def roundtrip(value: np.ndarray, stream_client: int = 0) -> tuple[np.ndarray, bytes]:
    encoded = encode_update(
        Int8Codec(), {"t": value}, codec_generator(client_stream(0, 1, stream_client))
    )
    return decode_update(encoded)["t"], encoded.blobs["t"]


class TestDegenerateInputs:
    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4, 1)])
    def test_empty(self, shape):
        decoded, blob = roundtrip(np.zeros(shape, dtype=np.float32))
        assert decoded.shape == shape and decoded.dtype == np.float32
        assert len(blob) == 12  # scale + an empty zlib stream

    @pytest.mark.parametrize("value", [0.0, -0.0, 1e-3, -7.5])
    def test_scalar(self, value):
        decoded, _ = roundtrip(np.float32(value).reshape(()))
        assert decoded.shape == ()
        assert decoded == np.float32(value)  # a lone value is its own peak: code ±127, exact

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero_ships_scale_plus_zero_and_zero_codes(self, zero):
        decoded, blob = roundtrip(np.full((4, 9), zero, dtype=np.float32))
        assert blob[:4] == np.float32(0.0).tobytes()
        assert not zlib.decompress(blob[4:]).strip(b"\x00")
        assert decoded.tobytes() == np.zeros((4, 9), dtype=np.float32).tobytes()

    @pytest.mark.parametrize("value", [2.5e-3, -2.5e-3])
    def test_all_equal(self, value):
        decoded, blob = roundtrip(np.full(300, value, dtype=np.float32))
        np.testing.assert_allclose(decoded, value, rtol=0, atol=abs(value) / 127)
        assert len(blob) < 40  # one run

    def test_subnormal_peak_quantises_to_zero(self):
        tiny = np.full(5, 1e-44, dtype=np.float32)  # peak / 127 underflows float32
        decoded, blob = roundtrip(tiny)
        assert blob[:4] == np.float32(0.0).tobytes()
        assert not decoded.any()

    @pytest.mark.parametrize("size", [10, 16, 32, 42, 64])
    def test_short_blocks_roundtrip_with_bounded_expansion(self, size):
        """Bias / batch-norm vectors: tens of codes, where a coder's expansion factor exceeds 1.

        (The codeword-spectrum regime of arXiv:1010.3150.)  Measured on
        these sizes: 22–79 bytes for 10–64 codes, i.e. 2.3× down to 1.23×
        the code block — DEFLATE falls back to a stored block, so the
        blob is never more than the codes plus 15 bytes of framing
        (4 scale + 2 zlib header + 5 block header + 4 Adler-32), still
        well under the 4 bytes per value of the exact transport.
        """
        worst = 0
        for client in range(20):
            value = (np.random.default_rng(client).standard_normal(size) * 1e-2).astype(np.float32)
            decoded, blob = roundtrip(value, client)
            step = np.abs(value).max() / 127
            np.testing.assert_allclose(decoded, value, rtol=0, atol=step * (1 + 1e-6))
            worst = max(worst, len(blob))
        assert worst <= size + 15
        assert worst / size <= 2.5
        assert worst / (4 * size) <= 0.6


class TestNonFiniteUpdatesAreRefused:
    """A diverged client fails at the worker, named, instead of shipping ``scale = NaN``."""

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_one_bad_coordinate_names_client_and_tensor(self, poison):
        update = fixed_update()
        update["classifier.0.weight"][17, 5] = poison
        with pytest.raises(NonFiniteUpdateError, match=r"client 11\b.*'classifier\.0\.weight'"):
            encode_update(Int8Codec(), update, codec_generator(client_stream(7, 3, 11)), client_id=11)

    def test_it_is_a_value_error_and_finite_updates_pass(self):
        assert issubclass(NonFiniteUpdateError, ValueError)
        update = fixed_update()
        update["classifier.0.bias"][0] = 1e30
        encoded = encode_update(Int8Codec(), update, codec_generator(client_stream(7, 3, 11)))
        assert np.isfinite(decode_update(encoded)["classifier.0.bias"]).all()


def test_codec_knobs_after_the_level_knob_went():
    assert Int8Codec().to_dict() == {"name": "int8"}
    assert TopKCodec().to_dict() == {"name": "topk", "k_fraction": 0.05}
