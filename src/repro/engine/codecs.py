"""Lossy update codecs — the compressed transport tier.

The exact transport (:mod:`repro.engine.transport`) uploads the trained
slice itself, every bit of it.  At fleet scale bytes, not FLOPs, bound a
round, so this module adds the lossy tier the ROADMAP names: registered **update codecs** that compress the arithmetic update
``trained − reference`` a client uploads, at a quantified fidelity cost.

Codecs are frozen dataclasses registered under a short name through
:func:`register_codec` and selected by
``FederatedConfig.transport_codec`` (CLI ``--transport-codec``):

========  ==============================================================
``none``  exact passthrough (raw update bytes; the accounting baseline)
``fp16``  stochastic rounding to IEEE float16 (2 bytes/param)
``int8``  per-tensor symmetric int8 quantization with stochastic
          rounding, run-length DEFLATE-packed (≈0.6 byte/param on the wire)
``topk``  magnitude top-k sparsification with per-client error-feedback
          residuals (k·8 bytes before compression)
========  ==============================================================

Three contracts every codec honours:

* **Determinism** — all randomness (stochastic rounding) comes from a
  generator derived from the task's ``(seed, round, client)``
  :class:`~numpy.random.SeedSequence` via :func:`codec_generator`, on a
  spawn key disjoint from training draws.  Encoding is a pure function
  of ``(update, stream)``: serial, thread, process and remote executors
  produce bit-identical payloads — lossy, but *reproducibly* lossy.
* **Self-describing payloads** — an :class:`EncodedUpdate` decodes from
  its own blobs and metadata alone (:func:`decode_update`), so the
  server, a property test and a wire peer all reconstruct the same
  arrays without the codec instance in hand.
* **Honest byte accounting** — :attr:`EncodedUpdate.nbytes` is the true
  post-codec wire size (compressed blob lengths), never the nominal
  array size, so ``RoundRecord.bytes_up`` and the obs counters cannot
  overstate a lossy payload.

Error feedback (``topk``): the coordinates a sparse upload drops are
not lost — they accumulate in a per-client residual that is added to
the *next* round's update before encoding (EF-SGD).  The residual is
device-local state in a real deployment; the simulation keeps it on the
server keyed by client id (:class:`ResidualBank`), which is what makes
lossy runs executor-independent and checkpointable.
"""

from __future__ import annotations

import math
import threading
import zlib
from abc import ABC, abstractmethod
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Collection, Iterator, Mapping, Sequence

import numpy as np

from repro.core.serialization import Serializable
from repro.perf.workspace import Workspace

__all__ = [
    "EncodedUpdate",
    "UpdateCodec",
    "PassthroughCodec",
    "Fp16Codec",
    "Int8Codec",
    "TopKCodec",
    "UpdateRejectedError",
    "NonFiniteUpdateError",
    "NegativeStatisticError",
    "register_codec",
    "unregister_codec",
    "get_codec",
    "available_codecs",
    "codec_from_dict",
    "codec_generator",
    "encode_update",
    "decode_update",
    "encode_client_update",
    "ResidualBank",
    "apply_encoded_update",
    "inflate_codes",
    "inflate_ahead",
]

#: spawn-key suffix deriving the codec's rounding stream from a task's
#: training stream — same entropy, disjoint key, so quantization noise
#: never perturbs (or depends on) the training draws
CODEC_SPAWN_KEY = 0xC0DEC

#: float16's largest finite magnitude; updates are clipped into range
#: before stochastic rounding (an update this large has already diverged)
_FP16_MAX = 65504.0


def codec_generator(stream: np.random.SeedSequence) -> np.random.Generator:
    """The deterministic rounding generator of one task's encode pass."""
    derived = np.random.SeedSequence(
        entropy=stream.entropy, spawn_key=(*tuple(stream.spawn_key), CODEC_SPAWN_KEY)
    )
    return np.random.default_rng(derived)


@dataclass
class EncodedUpdate:
    """One client's encoded arithmetic update (``trained − reference``).

    ``blobs`` hold the wire payload per tensor; ``encodings`` name the
    per-tensor scheme (``raw``/``fp16``/``int8``/``topk`` — non-float
    tensors always travel ``raw`` and exact).  ``residual`` is the new
    error-feedback carry (device-local state, **excluded** from
    :attr:`nbytes`); ``raw_nbytes`` is what the same update would have
    moved uncompressed, kept for compression-ratio telemetry.
    """

    codec: str
    blobs: dict[str, bytes]
    encodings: dict[str, str]
    shapes: dict[str, tuple[int, ...]]
    dtypes: dict[str, str]
    client_id: int = -1
    raw_nbytes: int = 0
    residual: dict[str, np.ndarray] | None = None

    @property
    def nbytes(self) -> int:
        """True post-codec wire bytes of the update payload."""
        return sum(len(blob) for blob in self.blobs.values())


# -- registry ---------------------------------------------------------------------------

_CODECS: dict[str, type["UpdateCodec"]] = {}


def register_codec(name: str):
    """Class decorator adding an :class:`UpdateCodec` to the registry."""
    if not isinstance(name, str):
        # a bare ``@register_codec`` passes the decorated object here and registers nothing
        raise TypeError(f"register_codec needs the codec's name as a str, got {name!r}")

    def decorator(cls: type["UpdateCodec"]) -> type["UpdateCodec"]:
        existing = _CODECS.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(f"codec {name!r} is already registered ({existing!r})")
        if cls.name != name:
            raise ValueError(f"codec class {cls.__name__} declares name {cls.name!r}, not {name!r}")
        _CODECS[name] = cls
        return cls

    return decorator


def unregister_codec(name: str) -> None:
    """Remove a registration (plugin teardown / tests); unknown names are a no-op."""
    _CODECS.pop(name, None)


def available_codecs() -> tuple[str, ...]:
    """All registered codec names, sorted."""
    return tuple(sorted(_CODECS))


def get_codec(name: str) -> "UpdateCodec":
    """Build the default-configured codec for a registered name."""
    try:
        cls = _CODECS[name]
    except KeyError:
        raise KeyError(
            f"unknown codec {name!r}; registered: {', '.join(available_codecs())}"
        ) from None
    return cls()


def codec_from_dict(payload: Mapping[str, Any]) -> "UpdateCodec":
    """Reconstruct a codec from its :meth:`UpdateCodec.to_dict` payload."""
    data = dict(payload)
    name = data.pop("name", None)
    if not isinstance(name, str):
        raise ValueError("codec payload must carry its registry 'name'")
    try:
        cls = _CODECS[name]
    except KeyError:
        raise ValueError(
            f"unknown codec {name!r}; registered: {', '.join(available_codecs())}"
        ) from None
    return cls.from_dict(data)


# -- codec classes ----------------------------------------------------------------------


class UpdateRejectedError(ValueError):
    """An update that must not be shipped or aggregated; the fold leaves it out."""

    def __init__(self, message: str, tensor: str | None = None):
        super().__init__(message)
        #: the offending tensor's name, where the raiser knows it
        self.tensor = tensor


class NonFiniteUpdateError(UpdateRejectedError):
    """A client's update holds NaN or ±inf: it diverged."""


class NegativeStatisticError(UpdateRejectedError):
    """A decoded upload holds a negative value in a tensor its model declares non-negative (a variance)."""


def _finite_peak(work: np.ndarray) -> float:
    """``max|x|`` of a float tensor (0.0 when empty); NaN or ±inf anywhere raises.

    Two reductions — NaN propagates through both — so a lossy encoder
    learns that its input is finite for less than one ``isfinite`` pass.
    """
    peak = max(float(work.max()), -float(work.min())) if work.size else 0.0
    if not math.isfinite(peak):
        raise NonFiniteUpdateError(f"peak magnitude is {peak}")
    return peak


class UpdateCodec(Serializable, ABC):
    """One registered compression scheme for client updates."""

    #: registry name (wire tag of the payloads this codec produces)
    name: ClassVar[str] = "codec"
    #: True when decode(encode(x)) == x bit-for-bit
    lossless: ClassVar[bool] = False
    #: True when dropped mass must accumulate in a per-client residual
    uses_error_feedback: ClassVar[bool] = False

    @abstractmethod
    def encode_array(self, value: np.ndarray, rng: np.random.Generator) -> tuple[str, bytes]:
        """Encode one float tensor; returns ``(encoding_tag, blob)``."""

    @property
    @abstractmethod
    def nominal_bytes_per_param(self) -> float:
        """Modeled wire bytes per parameter (drives the fleet clock)."""

    def to_dict(self) -> dict:
        """Strict JSON payload (registry name + knobs); see :func:`codec_from_dict`."""
        return {"name": self.name, **super().to_dict()}


@register_codec("none")
@dataclass(frozen=True)
class PassthroughCodec(UpdateCodec):
    """Exact passthrough: the update's raw bytes, untouched."""

    name: ClassVar[str] = "none"
    lossless: ClassVar[bool] = True

    def encode_array(self, value: np.ndarray, rng: np.random.Generator) -> tuple[str, bytes]:
        """Ship the tensor's exact bytes."""
        return "raw", np.ascontiguousarray(value).tobytes()

    @property
    def nominal_bytes_per_param(self) -> float:
        """Four bytes: one float32 per parameter."""
        return 4.0


@register_codec("fp16")
@dataclass(frozen=True)
class Fp16Codec(UpdateCodec):
    """Stochastic rounding to IEEE float16 (2 bytes per parameter).

    Each value rounds to one of its two neighbouring float16 grid points
    with probability proportional to proximity, so the rounding is
    unbiased: ``E[decode(encode(x))] = x``.
    """

    name: ClassVar[str] = "fp16"

    def encode_array(self, value: np.ndarray, rng: np.random.Generator) -> tuple[str, bytes]:
        """Round each value to a neighbouring float16 grid point, unbiased."""
        work = value.astype(np.float32, copy=False)
        _finite_peak(work)  # the clamp below would ship ±inf as ±65504 and NaN as NaN
        clipped = np.clip(work, -_FP16_MAX, _FP16_MAX)
        nearest = clipped.astype(np.float16)
        nearest32 = nearest.astype(np.float32)
        with np.errstate(over="ignore"):
            # at ±float16-max the outward neighbour overflows to ±inf; that
            # bracket is never picked (frac becomes exactly 0 there)
            above = np.nextafter(nearest, np.float16(np.inf)).astype(np.float32)
            below = np.nextafter(nearest, np.float16(-np.inf)).astype(np.float32)
        lo = np.where(nearest32 <= clipped, nearest32, below)
        hi = np.where(nearest32 <= clipped, above, nearest32)
        span = hi - lo
        frac = np.where(span > 0, (clipped - lo) / np.where(span > 0, span, 1.0), 0.0)
        pick_hi = rng.random(clipped.shape) < frac
        return "fp16", np.where(pick_hi, hi, lo).astype(np.float16).tobytes()

    @property
    def nominal_bytes_per_param(self) -> float:
        """Two bytes: one float16 per parameter."""
        return 2.0


class _Scratch(threading.local):
    """This thread's quantisation buffers: flat, grow-only, used by one task at a time."""

    def __init__(self) -> None:
        self.workspace = Workspace()

    def take(self, key: str, size: int, dtype) -> np.ndarray:
        """The first ``size`` elements of the buffer ``key`` (uninitialised)."""
        buffer = self.workspace.lookup(key)
        if buffer is None or buffer.size < size:
            buffer = self.workspace.put(key, np.empty(size, dtype=dtype))
        return buffer[:size]


_SCRATCH = _Scratch()

#: ``zlib.compressobj`` arguments of the int8 entropy stage (strategy ``Z_RLE``)
_INT8_DEFLATE = (1, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
#: ``zlib.compress`` level of the top-k (index, value) blob
_TOPK_DEFLATE_LEVEL = 6


@register_codec("int8")
@dataclass(frozen=True)
class Int8Codec(UpdateCodec):
    """Per-tensor symmetric int8 quantization with stochastic rounding.

    ``scale = max|x| / 127``; values quantize to the int8 grid with
    unbiased stochastic rounding and the lattice codes are
    DEFLATE-packed (quantized SGD updates concentrate near zero, so the
    entropy coder buys real bytes on top of the 4:1 width cut).  The
    blob is ``[float32 scale][zlib(int8 codes)]``.  The entropy stage is
    DEFLATE strategy ``Z_RLE`` — on these codes 3× cheaper than level 6
    and 1.6 % smaller; inflate is strategy-agnostic, so blobs packed at
    level 6 by earlier versions still decode.
    """

    name: ClassVar[str] = "int8"

    def encode_array(self, value: np.ndarray, rng: np.random.Generator) -> tuple[str, bytes]:
        """Quantize to the symmetric int8 lattice and DEFLATE-pack the codes."""
        work = value.astype(np.float32, copy=False).reshape(-1)
        size = work.size
        scale = np.float32(_finite_peak(work) / 127.0)
        codes = _SCRATCH.take("codes", size, np.int8)
        if scale > 0:
            grid = _SCRATCH.take("grid", size, np.float32)
            lower = _SCRATCH.take("lower", size, np.float32)
            draws = _SCRATCH.take("draws", size, np.float64)
            round_up = _SCRATCH.take("round_up", size, np.bool_)
            np.divide(work, scale, out=grid)
            np.floor(grid, out=lower)
            np.subtract(grid, lower, out=grid)
            rng.random(out=draws)
            np.less(draws, grid, out=round_up)
            np.add(lower, round_up, out=lower)
            np.clip(lower, -127, 127, out=lower)
            np.copyto(codes, lower, casting="unsafe")
        else:
            scale = np.float32(0.0)  # never -0.0 (the peak of an all-negative-zero tensor)
            codes.fill(0)
        packer = zlib.compressobj(*_INT8_DEFLATE)
        return "int8", scale.tobytes() + packer.compress(codes) + packer.flush()

    @property
    def nominal_bytes_per_param(self) -> float:
        """One byte: an int8 code per parameter (pre-DEFLATE)."""
        return 1.0


@register_codec("topk")
@dataclass(frozen=True)
class TopKCodec(UpdateCodec):
    """Magnitude top-k sparsification with error feedback.

    Keeps the ``k_fraction`` largest-magnitude entries per tensor
    (deterministic ties: lower flat index wins) and ships
    ``[uint32 indices][float32 values]`` DEFLATE-packed.  The dropped
    mass returns as the task's error-feedback residual and is added to
    the client's next update before encoding, so nothing is lost — only
    delayed.
    """

    name: ClassVar[str] = "topk"
    uses_error_feedback: ClassVar[bool] = True
    k_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.k_fraction <= 1.0:
            raise ValueError("k_fraction must be in (0, 1]")

    def encode_array(self, value: np.ndarray, rng: np.random.Generator) -> tuple[str, bytes]:
        """Keep the k largest-magnitude entries as packed (index, value) pairs."""
        flat = np.ascontiguousarray(value.astype(np.float32, copy=False)).ravel()
        # a NaN sorts last: it would miss the kept set and be banked in the
        # client's error-feedback residual, poisoning every later round
        _finite_peak(flat)
        k = max(1, int(math.ceil(self.k_fraction * flat.size))) if flat.size else 0
        # stable magnitude order: sort on (-|x|, flat index) so equal
        # magnitudes keep a deterministic winner on every platform
        order = np.lexsort((np.arange(flat.size, dtype=np.int64), -np.abs(flat)))
        kept = np.sort(order[:k]).astype(np.uint32)
        values = flat[kept].astype(np.float32)
        packed = zlib.compress(kept.tobytes() + values.tobytes(), _TOPK_DEFLATE_LEVEL)
        return "topk", packed

    @property
    def nominal_bytes_per_param(self) -> float:
        """Eight bytes (uint32 index + float32 value) per kept parameter."""
        return 8.0 * self.k_fraction


# -- encode / decode drivers ------------------------------------------------------------


def _decode_array(encoding: str, blob: bytes, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    """Decode one tensor blob back to its array (pure, codec-free)."""
    if encoding == "raw":
        return np.frombuffer(blob, dtype=np.dtype(dtype)).reshape(shape).copy()
    if encoding == "fp16":
        half = np.frombuffer(blob, dtype=np.float16).reshape(shape)
        return half.astype(np.dtype(dtype))
    if encoding == "int8":
        scale = np.frombuffer(blob[:4], dtype=np.float32)[0]
        codes = np.frombuffer(zlib.decompress(blob[4:]), dtype=np.int8).reshape(shape)
        return (codes.astype(np.float32) * scale).astype(np.dtype(dtype))
    if encoding == "topk":
        raw = zlib.decompress(blob)
        count = len(raw) // 8
        kept = np.frombuffer(raw[: count * 4], dtype=np.uint32)
        values = np.frombuffer(raw[count * 4 :], dtype=np.float32)
        dense = np.zeros(int(np.prod(shape, dtype=np.int64)) if shape else 1, dtype=np.float32)
        dense[kept.astype(np.int64)] = values
        return dense.reshape(shape).astype(np.dtype(dtype))
    raise ValueError(f"unknown tensor encoding {encoding!r}")


def encode_update(
    codec: UpdateCodec,
    update: Mapping[str, np.ndarray],
    rng: np.random.Generator,
    client_id: int = -1,
    exact: Collection[str] = (),
) -> EncodedUpdate:
    """Encode a full update dict (float tensors via the codec, rest — and ``exact`` — raw)."""
    blobs: dict[str, bytes] = {}
    encodings: dict[str, str] = {}
    shapes: dict[str, tuple[int, ...]] = {}
    dtypes: dict[str, str] = {}
    raw_nbytes = 0
    for name, value in update.items():
        array = np.asarray(value)
        shapes[name] = tuple(array.shape)
        dtypes[name] = array.dtype.str
        raw_nbytes += array.nbytes
        if array.dtype.kind == "f" and name not in exact:
            try:
                encodings[name], blobs[name] = codec.encode_array(array, rng)
            except NonFiniteUpdateError as error:
                raise NonFiniteUpdateError(
                    f"client {client_id}: update of tensor {name!r} is not finite ({error})"
                ) from None
        else:
            # non-float state (counters, index maps) is never quantized
            encodings[name] = "raw"
            blobs[name] = np.ascontiguousarray(array).tobytes()
    return EncodedUpdate(
        codec=codec.name,
        blobs=blobs,
        encodings=encodings,
        shapes=shapes,
        dtypes=dtypes,
        client_id=client_id,
        raw_nbytes=raw_nbytes,
    )


def decode_update(encoded: EncodedUpdate) -> dict[str, np.ndarray]:
    """Decode every tensor of an encoded update (self-describing; pure)."""
    return {
        name: _decode_array(
            encoded.encodings[name], blob, encoded.shapes[name], encoded.dtypes[name]
        )
        for name, blob in encoded.blobs.items()
    }


def _prefix_slice(full: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The leading block of ``full`` with the given (smaller) shape."""
    if full.shape == tuple(shape):
        return full
    return full[tuple(slice(0, size) for size in shape)]


def encode_client_update(
    codec: UpdateCodec,
    trained: Mapping[str, np.ndarray],
    reference: Mapping[str, np.ndarray],
    rng_stream: np.random.SeedSequence,
    residual: Mapping[str, np.ndarray] | None = None,
    client_id: int = -1,
    buffers: Collection[str] = (),
) -> EncodedUpdate:
    """The client-side encode pass: delta → (+ residual) → codec → new residual.

    ``reference`` must be the exact weights the client started from (the
    server holds the same bits, so decode reconstructs against an
    identical base).  When the codec uses error feedback the returned
    payload carries the new residual ``v − decode(encode(v))`` for the
    server to bank; residuals larger than the trained slice are
    prefix-sliced, mirroring how the submodel itself was cut.  The
    model's ``buffers`` (running statistics) then travel raw and carry no
    residual: a carry banked rounds ago is no correction of a statistic
    recomputed since, and added to a running variance it can drive the
    variance negative.  Codecs without error feedback encode them as any
    other tensor.
    """
    exact = frozenset(buffers) if codec.uses_error_feedback else frozenset()
    rng = codec_generator(rng_stream)
    update: dict[str, np.ndarray] = {}
    for name, value in trained.items():
        array = np.asarray(value)
        base = np.asarray(reference[name])
        base = _prefix_slice(base, array.shape)
        if base.shape != array.shape:
            raise ValueError(
                f"reference for {name!r} has shape {base.shape}, trained is {array.shape}"
            )
        update[name] = array - base
    if codec.uses_error_feedback and residual is not None:
        for name, value in update.items():
            carry = residual.get(name)
            if carry is None or value.dtype.kind != "f" or name in exact:
                continue
            update[name] = value + _prefix_slice(np.asarray(carry), value.shape).astype(
                value.dtype, copy=False
            )
    encoded = encode_update(codec, update, rng, client_id=client_id, exact=exact)
    if codec.uses_error_feedback:
        decoded = decode_update(encoded)
        encoded.residual = {
            name: (update[name] - decoded[name]).astype(np.float32)
            for name in update
            if update[name].dtype.kind == "f" and name not in exact
        }
    return encoded


class ResidualBank:
    """Each client's error-feedback carry at the full-model shapes of ``reference``; a checkpoint state part.

    ``reference`` names the tensors that carry a residual: the model's
    running statistics are left out of it (they never carry one).
    """

    def __init__(self, codec: UpdateCodec, reference: Mapping[str, np.ndarray]):
        self.codec = codec
        self._layout = {name: (np.shape(value), np.asarray(value).dtype) for name, value in reference.items()}
        self._banks: dict[int, dict[str, np.ndarray]] = {}

    def carry_for(self, client_id: int, shapes: Mapping[str, tuple[int, ...]]) -> dict[str, np.ndarray] | None:
        """The carry of a task sent to ``client_id`` to train a slice of ``shapes`` (None before its first upload).

        The bank is cut to the slice's prefix region, as the weights are, so
        only the coordinates the client trains see their carry.
        """
        bank = self._banks.get(client_id)
        if bank is None:
            return None
        return {name: np.ascontiguousarray(_prefix_slice(carry, shapes[name])) for name, carry in bank.items()}

    def bank(self, encoded: EncodedUpdate) -> None:
        """Scatter an upload's new residual over the prefix region its client trained.

        Coordinates outside the dispatched slice keep their old carry: they
        were neither trained nor encoded this round.
        """
        if encoded.residual is None:
            return
        bank = self._banks.get(encoded.client_id)
        if bank is None:
            bank = self._banks[encoded.client_id] = {
                name: np.zeros(shape, dtype=dtype) for name, (shape, dtype) in self._layout.items()
            }
        for name, carry in encoded.residual.items():
            _prefix_slice(bank[name], carry.shape)[...] = carry.astype(bank[name].dtype, copy=False)

    def state_dict(self) -> dict:
        """The codec's name, the banked clients in ascending order, and ``{client}/{tensor}`` carries."""
        state: dict = {"name": self.codec.name, "clients": sorted(self._banks)}
        for client_id in state["clients"]:
            state.update({f"{client_id}/{key}": value.copy() for key, value in self._banks[client_id].items()})
        return state

    def load_state_dict(self, state: Mapping) -> None:
        """Restore :meth:`state_dict` output; a bank written by another codec is refused."""
        if state.get("name") != self.codec.name:
            raise ValueError(
                f"checkpoint was written with transport codec {state.get('name')!r}, this run uses {self.codec.name!r}"
            )
        self._banks = {
            int(client_id): {
                key.removeprefix(f"{client_id}/"): np.array(value)
                for key, value in state.items()
                if key.startswith(f"{client_id}/")
            }
            for client_id in state.get("clients", [])
        }


def apply_encoded_update(
    encoded: EncodedUpdate,
    reference: Mapping[str, np.ndarray],
    target_for: "Callable[[str, tuple[int, ...]], np.ndarray] | None" = None,
    codes: Mapping[str, bytes] | None = None,
) -> dict[str, np.ndarray]:
    """Server-side decode: reconstruct trained weights against ``reference``.

    ``reference`` is the exact slice the client trained from (only read:
    prefix views of the full state will do).  Each tensor is ``base +
    delta`` in the base's dtype, an int8 one codes → ``float32`` product →
    sum with no temporary, built in ``target_for(name, shape)`` (default: a
    fresh array); ``codes`` is :func:`inflate_codes`, if already run.
    """
    if codes is None:
        codes = inflate_codes(encoded)
    result: dict[str, np.ndarray] = {}
    for name, blob in encoded.blobs.items():
        base = np.asarray(reference[name])
        shape = encoded.shapes[name]
        if base.shape != shape:
            raise ValueError(
                f"reference for {name!r} has shape {base.shape}, encoded update is {shape}"
            )
        target = np.empty_like(base) if target_for is None else target_for(name, shape)
        if name in codes:
            scale = np.frombuffer(blob, dtype=np.float32, count=1)[0]
            lattice = np.frombuffer(codes[name], dtype=np.int8).reshape(shape)
            np.multiply(lattice, scale, out=target, dtype=np.float32)
        else:
            delta = _decode_array(encoded.encodings[name], blob, shape, encoded.dtypes[name])
            target[...] = delta
        result[name] = np.add(base, target, out=target)
    return result


def inflate_codes(encoded: EncodedUpdate) -> dict[str, bytes]:
    """Every int8 tensor's code block, inflated (all in ``zlib``, which releases the GIL)."""
    return {
        name: zlib.decompress(memoryview(blob)[4:])
        for name, blob in encoded.blobs.items()
        if encoded.encodings[name] == "int8"
    }


def inflate_ahead(uploads: Sequence[Any]) -> "Iterator[Future[dict[str, bytes]] | None]":
    """Per upload a future of :func:`inflate_codes` (``None`` if it is not encoded).

    The upload after the one yielded is already inflating on one helper
    thread, joined when the generator is closed — close it in a ``finally``.
    """
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-inflate") as helper:

        def submit(upload: Any) -> "Future[dict[str, bytes]] | None":
            return helper.submit(inflate_codes, upload) if isinstance(upload, EncodedUpdate) else None

        pending = [submit(upload) for upload in uploads[:1]]
        for following in uploads[1:]:
            pending.append(submit(following))
            yield pending.pop(0)
        yield from pending
