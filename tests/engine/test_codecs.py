"""Property-test suite of the compressed transport tier (``repro.engine.codecs``).

Hypothesis pins the contracts every codec ships under:

* **Error bounds** — ``decode(encode(x))`` stays within the codec's
  quantization step of ``x`` (fp16: one float16 grid spacing; int8: one
  lattice step ``scale``; topk: kept coordinates exact, dropped ones
  zero), and the passthrough codec is bit-exact.
* **Idempotence** — re-encoding an already-decoded payload reproduces it
  (the decoded values sit on the codec's grid).
* **Self-description** — shapes and dtypes round-trip from the payload's
  own metadata; non-float tensors always travel raw and exact.
* **Determinism** — the same ``SeedSequence`` produces bit-identical
  blobs; the codec stream is disjoint from the training stream.
* **Error feedback** — ``decoded + new_residual`` reconstructs the full
  pre-encode update exactly, and iterated residuals stay bounded.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.codecs import (
    CODEC_SPAWN_KEY,
    EncodedUpdate,
    Fp16Codec,
    Int8Codec,
    PassthroughCodec,
    TopKCodec,
    apply_encoded_update,
    available_codecs,
    codec_from_dict,
    codec_generator,
    decode_update,
    encode_client_update,
    encode_update,
    get_codec,
    register_codec,
    unregister_codec,
)

BUILTIN_CODECS = ("none", "fp16", "int8", "topk")
LOSSY_CODECS = ("fp16", "int8", "topk")

#: shared hypothesis strategy: a modest float32 tensor of 1-2 dims
SHAPES = st.sampled_from([(1,), (7,), (16,), (3, 5), (8, 8), (2, 3, 4)])


def arrays(draw, shape, scale=1.0):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return (rng.normal(size=shape) * scale).astype(np.float32)


@st.composite
def float_tensors(draw, scale=1.0):
    return arrays(draw, draw(SHAPES), scale)


def fixed_stream(entropy=1234, spawn_key=(0, 1, 2)):
    return np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)


# -- registry ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert set(BUILTIN_CODECS) <= set(available_codecs())

    @pytest.mark.parametrize(
        "name, cls",
        [("none", PassthroughCodec), ("fp16", Fp16Codec), ("int8", Int8Codec), ("topk", TopKCodec)],
    )
    def test_get_codec_builds_the_registered_class(self, name, cls):
        codec = get_codec(name)
        assert isinstance(codec, cls)
        assert codec.name == name

    def test_get_codec_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown codec"):
            get_codec("bogus")

    def test_register_rejects_name_mismatch(self):
        @dataclasses.dataclass(frozen=True)
        class Misnamed(PassthroughCodec):
            name = "not-misnamed"

        with pytest.raises(ValueError, match="declares name"):
            register_codec("misnamed")(Misnamed)

    def test_bare_decorator_is_refused(self):
        with pytest.raises(TypeError, match="codec's name"):

            @register_codec
            @dataclasses.dataclass(frozen=True)
            class Bare(PassthroughCodec):
                name = "bare"

        assert "bare" not in available_codecs()

    def test_register_rejects_duplicate_name(self):
        @dataclasses.dataclass(frozen=True)
        class Impostor(PassthroughCodec):
            name = "none"

        with pytest.raises(ValueError, match="already registered"):
            register_codec("none")(Impostor)
        assert isinstance(get_codec("none"), PassthroughCodec)

    def test_register_and_unregister_plugin_codec(self):
        @dataclasses.dataclass(frozen=True)
        class PluginCodec(PassthroughCodec):
            name = "plugin-test"

        try:
            register_codec("plugin-test")(PluginCodec)
            assert "plugin-test" in available_codecs()
            assert isinstance(get_codec("plugin-test"), PluginCodec)
        finally:
            unregister_codec("plugin-test")
        assert "plugin-test" not in available_codecs()
        unregister_codec("plugin-test")  # unknown names are a no-op


class TestConfigRoundTrip:
    @pytest.mark.parametrize("name", BUILTIN_CODECS)
    def test_to_dict_from_dict_roundtrip(self, name):
        codec = get_codec(name)
        payload = codec.to_dict()
        assert payload["name"] == name
        rebuilt = codec_from_dict(payload)
        assert rebuilt == codec

    def test_non_default_knobs_roundtrip(self):
        codec = TopKCodec(k_fraction=0.25)
        rebuilt = codec_from_dict(codec.to_dict())
        assert rebuilt == codec
        assert rebuilt.k_fraction == 0.25

    def test_from_dict_requires_name(self):
        with pytest.raises(ValueError, match="name"):
            codec_from_dict({"k_fraction": 0.1})

    def test_from_dict_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown codec"):
            codec_from_dict({"name": "bogus"})

    def test_from_dict_unknown_key_raises(self):
        with pytest.raises(ValueError):
            codec_from_dict({"name": "topk", "k_fraction": 0.1, "bogus_knob": 1})

    @pytest.mark.parametrize("k_fraction", [0.0, -0.5, 1.5])
    def test_topk_rejects_bad_k_fraction(self, k_fraction):
        with pytest.raises(ValueError, match="k_fraction"):
            TopKCodec(k_fraction=k_fraction)

    @pytest.mark.parametrize("name", BUILTIN_CODECS)
    def test_nominal_bytes_per_param_positive(self, name):
        assert get_codec(name).nominal_bytes_per_param > 0

    def test_topk_nominal_bytes_scale_with_k(self):
        assert TopKCodec(k_fraction=0.5).nominal_bytes_per_param == pytest.approx(4.0)
        assert TopKCodec(k_fraction=0.05).nominal_bytes_per_param < Int8Codec().nominal_bytes_per_param


# -- the codec rounding stream ----------------------------------------------------------


class TestCodecGenerator:
    def test_same_stream_same_draws(self):
        a = codec_generator(fixed_stream()).random(16)
        b = codec_generator(fixed_stream()).random(16)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = codec_generator(fixed_stream(spawn_key=(0, 1, 2))).random(16)
        b = codec_generator(fixed_stream(spawn_key=(0, 1, 3))).random(16)
        assert not np.array_equal(a, b)

    def test_disjoint_from_training_stream(self):
        """The codec derives a *child* key, never replaying training draws."""
        stream = fixed_stream()
        training = np.random.default_rng(stream).random(16)
        rounding = codec_generator(stream).random(16)
        assert not np.array_equal(training, rounding)

    def test_spawn_key_is_appended(self):
        stream = fixed_stream(spawn_key=(7,))
        direct = np.random.default_rng(
            np.random.SeedSequence(entropy=stream.entropy, spawn_key=(7, CODEC_SPAWN_KEY))
        ).random(8)
        assert np.array_equal(codec_generator(stream).random(8), direct)


# -- per-codec round-trip error bounds --------------------------------------------------


class TestPassthroughRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_bit_exact(self, data):
        value = data.draw(float_tensors())
        encoded = encode_update(PassthroughCodec(), {"w": value}, codec_generator(fixed_stream()))
        decoded = decode_update(encoded)["w"]
        assert decoded.dtype == value.dtype
        assert np.array_equal(decoded.view(np.uint8), value.view(np.uint8))


class TestFp16RoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), scale=st.sampled_from([1e-3, 1.0, 1e3]))
    def test_error_within_one_grid_spacing(self, data, scale):
        value = data.draw(float_tensors(scale=scale))
        encoded = encode_update(Fp16Codec(), {"w": value}, codec_generator(fixed_stream()))
        decoded = decode_update(encoded)["w"].astype(np.float32)
        # stochastic rounding picks one of the two neighbouring float16
        # grid points, so the error is below the local grid spacing
        spacing = np.spacing(np.abs(value).astype(np.float16)).astype(np.float32)
        assert np.all(np.abs(decoded - value) <= spacing + 1e-12)

    def test_grid_values_encode_exactly(self):
        value = np.arange(-8, 8, dtype=np.float32) / 4.0  # exact in float16
        encoded = encode_update(Fp16Codec(), {"w": value}, codec_generator(fixed_stream()))
        assert np.array_equal(decode_update(encoded)["w"].astype(np.float32), value)

    def test_out_of_range_values_clip_to_fp16_max(self):
        value = np.array([1e6, -1e6], dtype=np.float32)
        encoded = encode_update(Fp16Codec(), {"w": value}, codec_generator(fixed_stream()))
        decoded = decode_update(encoded)["w"].astype(np.float32)
        assert np.array_equal(decoded, np.array([65504.0, -65504.0], dtype=np.float32))

    def test_rounding_is_unbiased(self):
        """E[decode(x)] == x: the stochastic-rounding contract, empirically."""
        target = np.float32(0.1003)  # off the float16 grid
        value = np.full(20_000, target, dtype=np.float32)
        encoded = encode_update(Fp16Codec(), {"w": value}, codec_generator(fixed_stream()))
        decoded = decode_update(encoded)["w"].astype(np.float64)
        spacing = float(np.spacing(np.float16(target)))
        # the mean converges at sigma ~ spacing / sqrt(n); allow 5 sigma
        assert abs(decoded.mean() - float(target)) < 5 * spacing / np.sqrt(value.size)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_reencode_is_idempotent(self, data):
        value = data.draw(float_tensors())
        once = decode_update(
            encode_update(Fp16Codec(), {"w": value}, codec_generator(fixed_stream()))
        )["w"]
        twice = decode_update(
            encode_update(Fp16Codec(), {"w": once}, codec_generator(fixed_stream(entropy=99)))
        )["w"]
        assert np.array_equal(once, twice)


class TestInt8RoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), scale=st.sampled_from([1e-4, 1.0, 1e4]))
    def test_error_within_one_lattice_step(self, data, scale):
        value = data.draw(float_tensors(scale=scale))
        encoded = encode_update(Int8Codec(), {"w": value}, codec_generator(fixed_stream()))
        decoded = decode_update(encoded)["w"]
        step = np.float32(np.max(np.abs(value)) / 127.0)
        assert np.all(np.abs(decoded - value) <= step * (1 + 1e-5))

    def test_zero_tensor_is_exact(self):
        value = np.zeros((4, 4), dtype=np.float32)
        encoded = encode_update(Int8Codec(), {"w": value}, codec_generator(fixed_stream()))
        assert np.array_equal(decode_update(encoded)["w"], value)

    def test_peak_magnitude_survives_exactly_in_code_space(self):
        """The element defining the scale maps to code ±127, never clipped away."""
        value = np.array([0.25, -1.0, 0.5], dtype=np.float32)
        encoded = encode_update(Int8Codec(), {"w": value}, codec_generator(fixed_stream()))
        decoded = decode_update(encoded)["w"]
        assert decoded[1] == pytest.approx(-1.0, rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_reencode_stays_within_one_step(self, data):
        value = data.draw(float_tensors())
        once = decode_update(
            encode_update(Int8Codec(), {"w": value}, codec_generator(fixed_stream()))
        )["w"]
        twice = decode_update(
            encode_update(Int8Codec(), {"w": once}, codec_generator(fixed_stream(entropy=99)))
        )["w"]
        step = float(np.max(np.abs(once))) / 127.0 if once.size else 0.0
        assert np.all(np.abs(twice - once) <= step * (1 + 1e-5))


class TestTopKRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), k_fraction=st.sampled_from([0.05, 0.25, 1.0]))
    def test_kept_coordinates_exact_dropped_zero(self, data, k_fraction):
        value = data.draw(float_tensors())
        codec = TopKCodec(k_fraction=k_fraction)
        encoded = encode_update(codec, {"w": value}, codec_generator(fixed_stream()))
        decoded = decode_update(encoded)["w"]
        kept = decoded != 0
        # kept coordinates carry the original value bit-for-bit
        assert np.array_equal(decoded[kept], value[kept])
        k = max(1, int(np.ceil(k_fraction * value.size)))
        assert int(np.count_nonzero(decoded)) <= k
        # magnitude property: every kept entry >= every dropped entry
        if np.any(kept) and np.any(~kept):
            assert np.min(np.abs(value[kept])) >= np.max(np.abs(value[~kept]))

    def test_k_counts_ceil_of_fraction(self):
        value = np.arange(1, 11, dtype=np.float32)
        codec = TopKCodec(k_fraction=0.21)  # ceil(2.1) -> 3 of 10
        encoded = encode_update(codec, {"w": value}, codec_generator(fixed_stream()))
        assert int(np.count_nonzero(decode_update(encoded)["w"])) == 3

    def test_ties_break_to_the_lowest_flat_index(self):
        value = np.ones(8, dtype=np.float32)
        codec = TopKCodec(k_fraction=0.25)  # keep 2 of 8 equal magnitudes
        encoded = encode_update(codec, {"w": value}, codec_generator(fixed_stream()))
        decoded = decode_update(encoded)["w"]
        assert np.array_equal(np.flatnonzero(decoded), [0, 1])

    def test_full_fraction_is_lossless(self):
        value = np.random.default_rng(3).normal(size=12).astype(np.float32)
        codec = TopKCodec(k_fraction=1.0)
        encoded = encode_update(codec, {"w": value}, codec_generator(fixed_stream()))
        assert np.array_equal(decode_update(encoded)["w"], value)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_reencode_is_idempotent(self, data):
        value = data.draw(float_tensors())
        codec = TopKCodec(k_fraction=0.25)
        once = decode_update(
            encode_update(codec, {"w": value}, codec_generator(fixed_stream()))
        )["w"]
        twice = decode_update(
            encode_update(codec, {"w": once}, codec_generator(fixed_stream(entropy=99)))
        )["w"]
        assert np.array_equal(once, twice)


# -- shape / dtype preservation and self-description ------------------------------------


class TestSelfDescription:
    @pytest.mark.parametrize("name", BUILTIN_CODECS)
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_shapes_and_dtypes_roundtrip(self, name, data):
        value = data.draw(float_tensors())
        codec = get_codec(name)
        encoded = encode_update(codec, {"w": value}, codec_generator(fixed_stream()))
        decoded = decode_update(encoded)
        assert decoded["w"].shape == value.shape
        assert decoded["w"].dtype == value.dtype
        assert encoded.shapes["w"] == tuple(value.shape)
        assert encoded.dtypes["w"] == value.dtype.str

    @pytest.mark.parametrize("name", BUILTIN_CODECS)
    def test_non_float_tensors_travel_raw_and_exact(self, name):
        counts = np.arange(12, dtype=np.int64).reshape(3, 4)
        codec = get_codec(name)
        encoded = encode_update(codec, {"counts": counts}, codec_generator(fixed_stream()))
        assert encoded.encodings["counts"] == "raw"
        assert np.array_equal(decode_update(encoded)["counts"], counts)

    @pytest.mark.parametrize("name", BUILTIN_CODECS)
    def test_nbytes_is_the_summed_blob_length(self, name):
        update = {
            "w": np.random.default_rng(0).normal(size=(6, 6)).astype(np.float32),
            "b": np.random.default_rng(1).normal(size=6).astype(np.float32),
        }
        encoded = encode_update(get_codec(name), update, codec_generator(fixed_stream()))
        assert encoded.nbytes == sum(len(blob) for blob in encoded.blobs.values())
        assert encoded.raw_nbytes == sum(v.nbytes for v in update.values())

    @pytest.mark.parametrize("name", LOSSY_CODECS)
    def test_lossy_payloads_are_smaller_than_raw(self, name):
        update = {"w": np.random.default_rng(2).normal(size=(64, 64)).astype(np.float32)}
        encoded = encode_update(get_codec(name), update, codec_generator(fixed_stream()))
        assert encoded.nbytes < encoded.raw_nbytes

    def test_unknown_encoding_tag_rejected(self):
        encoded = EncodedUpdate(
            codec="bogus",
            blobs={"w": b"\x00" * 4},
            encodings={"w": "bogus"},
            shapes={"w": (1,)},
            dtypes={"w": "<f4"},
        )
        with pytest.raises(ValueError, match="unknown tensor encoding"):
            decode_update(encoded)


# -- determinism ------------------------------------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("name", BUILTIN_CODECS)
    def test_same_stream_bit_identical_blobs(self, name):
        update = {"w": np.random.default_rng(5).normal(size=(16, 16)).astype(np.float32)}
        codec = get_codec(name)
        first = encode_update(codec, update, codec_generator(fixed_stream()))
        second = encode_update(codec, update, codec_generator(fixed_stream()))
        assert first.blobs == second.blobs

    @pytest.mark.parametrize("name", ["fp16", "int8"])
    def test_different_streams_round_differently(self, name):
        """Stochastic rounding actually uses the stream (payloads differ)."""
        update = {"w": np.random.default_rng(5).normal(size=(32, 32)).astype(np.float32)}
        codec = get_codec(name)
        first = encode_update(codec, update, codec_generator(fixed_stream(spawn_key=(1,))))
        second = encode_update(codec, update, codec_generator(fixed_stream(spawn_key=(2,))))
        assert first.blobs != second.blobs

    def test_encode_client_update_deterministic_end_to_end(self):
        rng = np.random.default_rng(9)
        reference = {"w": rng.normal(size=(8, 8)).astype(np.float32)}
        trained = {"w": reference["w"] + rng.normal(size=(8, 8)).astype(np.float32) * 0.01}
        first = encode_client_update(TopKCodec(), trained, reference, fixed_stream(), client_id=3)
        second = encode_client_update(TopKCodec(), trained, reference, fixed_stream(), client_id=3)
        assert first.blobs == second.blobs
        assert first.client_id == second.client_id == 3
        for name in first.residual:
            assert np.array_equal(first.residual[name], second.residual[name])


# -- the client-side encode pass and error feedback -------------------------------------


class TestEncodeClientUpdate:
    def _pair(self, shape=(6, 6), seed=11):
        rng = np.random.default_rng(seed)
        reference = {"w": rng.normal(size=shape).astype(np.float32)}
        trained = {"w": reference["w"] + rng.normal(size=shape).astype(np.float32) * 0.05}
        return trained, reference

    def test_passthrough_reconstructs_trained_exactly(self):
        trained, reference = self._pair()
        encoded = encode_client_update(PassthroughCodec(), trained, reference, fixed_stream())
        rebuilt = apply_encoded_update(encoded, reference)
        assert np.array_equal(rebuilt["w"], trained["w"])

    def test_prefix_sliced_reference_supported(self):
        """A submodel trains a leading block of the full tensor; the full
        reference is prefix-sliced on both encode and decode."""
        rng = np.random.default_rng(4)
        full = {"w": rng.normal(size=(8, 8)).astype(np.float32)}
        trained = {"w": full["w"][:4, :6] + np.float32(0.25)}
        encoded = encode_client_update(PassthroughCodec(), trained, full, fixed_stream())
        sliced_reference = {"w": full["w"][:4, :6]}
        rebuilt = apply_encoded_update(encoded, sliced_reference)
        assert np.array_equal(rebuilt["w"], trained["w"])

    def test_reference_smaller_than_trained_raises(self):
        trained = {"w": np.zeros((4, 4), dtype=np.float32)}
        reference = {"w": np.zeros((2, 4), dtype=np.float32)}
        with pytest.raises(ValueError, match="shape"):
            encode_client_update(PassthroughCodec(), trained, reference, fixed_stream())

    def test_apply_shape_mismatch_raises(self):
        trained, reference = self._pair()
        encoded = encode_client_update(PassthroughCodec(), trained, reference, fixed_stream())
        with pytest.raises(ValueError, match="shape"):
            apply_encoded_update(encoded, {"w": np.zeros((3, 3), dtype=np.float32)})

    def test_lossless_codec_attaches_no_residual(self):
        trained, reference = self._pair()
        encoded = encode_client_update(PassthroughCodec(), trained, reference, fixed_stream())
        assert encoded.residual is None
        encoded = encode_client_update(Int8Codec(), trained, reference, fixed_stream())
        assert encoded.residual is None  # int8 does not use error feedback

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_topk_residual_reconstructs_the_update_exactly(self, data):
        """decoded + residual == delta (+ previous residual): EF loses nothing."""
        shape = data.draw(SHAPES)
        reference = {"w": arrays(data.draw, shape)}
        trained = {"w": reference["w"] + arrays(data.draw, shape, scale=0.1)}
        encoded = encode_client_update(TopKCodec(), trained, reference, fixed_stream())
        decoded = decode_update(encoded)["w"]
        delta = trained["w"] - reference["w"]
        # top-k keeps or zeroes each coordinate, so the sum is float-exact
        assert np.array_equal(decoded + encoded.residual["w"], delta)
        assert encoded.residual["w"].dtype == np.float32

    def test_residual_feeds_the_next_round(self):
        trained, reference = self._pair()
        first = encode_client_update(TopKCodec(), trained, reference, fixed_stream())
        second = encode_client_update(
            TopKCodec(), trained, reference, fixed_stream(entropy=77), residual=first.residual
        )
        decoded = decode_update(second)["w"]
        delta = trained["w"] - reference["w"]
        carried = delta + first.residual["w"]
        assert np.array_equal(decoded + second.residual["w"], carried)

    def test_iterated_residual_norm_stays_bounded(self):
        """EF convergence: the residual does not grow without bound."""
        rng = np.random.default_rng(21)
        delta = rng.normal(size=256).astype(np.float32) * 0.01
        reference = {"w": np.zeros(256, dtype=np.float32)}
        trained = {"w": delta}
        codec = TopKCodec(k_fraction=0.05)
        residual = None
        delta_norm = float(np.linalg.norm(delta))
        norms = []
        for round_index in range(50):
            encoded = encode_client_update(
                codec, trained, reference, fixed_stream(entropy=round_index), residual=residual
            )
            residual = encoded.residual
            norms.append(float(np.linalg.norm(residual["w"])))
        # the compression error contracts: the carry saturates well below
        # the trivial (n/k) blow-up and stops growing at the tail
        assert max(norms) < 20 * delta_norm
        assert abs(norms[-1] - norms[-10]) < 0.5 * delta_norm

    def test_residual_prefix_sliced_for_smaller_submodels(self):
        """A full-shape banked residual is cut to the trained slice."""
        rng = np.random.default_rng(6)
        full = {"w": rng.normal(size=(8, 8)).astype(np.float32)}
        residual = {"w": np.full((8, 8), 0.5, dtype=np.float32)}
        trained = {"w": full["w"][:4, :4] + np.float32(0.1)}
        encoded = encode_client_update(
            TopKCodec(k_fraction=1.0), trained, full, fixed_stream(), residual=residual
        )
        decoded = decode_update(encoded)["w"]
        delta = trained["w"] - full["w"][:4, :4]
        assert decoded.shape == (4, 4)
        assert np.allclose(decoded + encoded.residual["w"], delta + 0.5, atol=0)
