"""Tests for parameter/key/ciphertext serialization."""

import numpy as np
import pytest

from repro.ckks import Decryptor, Encryptor, Evaluator
from repro.ckks import serialization as ser

from .conftest import random_slots


def _set_residue(value):
    def mutate(payload):
        payload["c0"]["limbs"][0][0] = value(payload["c0"]["moduli"][0])

    return mutate


def _set_scale(value):
    def mutate(payload):
        payload["scale"] = value

    return mutate


def _drop_first_limb(payload):
    for name in ("c0", "c1"):
        del payload[name]["limbs"][0]
        del payload[name]["moduli"][0]


def _drop_top_limb_of_c1(payload):
    del payload["c1"]["limbs"][-1]
    del payload["c1"]["moduli"][-1]


#: Ciphertext payloads that must raise ``DeserializationError``.  Each one
#: used to be accepted (decryption then returned ~1e38, NaN or inf) or to
#: raise a bare ``ValueError``.
MALFORMED_CIPHERTEXTS = [
    ("residue-equals-q", _set_residue(lambda q: q)),
    ("residue-above-q", _set_residue(lambda q: q + 5)),
    ("negative-residue", _set_residue(lambda q: -1)),
    ("float-residue", _set_residue(lambda q: 1.5)),
    ("nan-scale", _set_scale(float("nan"))),
    ("inf-scale", _set_scale(float("inf"))),
    ("zero-scale", _set_scale(0.0)),
    ("negative-scale", _set_scale(-(2.0**25))),
    ("string-scale", _set_scale("2**25")),
    ("truncated-limb", lambda p: p["c0"]["limbs"][0].pop()),
    ("missing-limb", lambda p: p["c0"]["limbs"].pop()),
    ("moduli-not-a-chain-prefix", _drop_first_limb),
    ("components-in-different-bases", _drop_top_limb_of_c1),
]


class TestParameters:
    def test_roundtrip(self, params):
        payload = ser.serialize_parameters(params)
        restored = ser.deserialize_parameters(payload)
        assert restored.moduli == params.moduli
        assert restored.special_primes == params.special_primes
        assert restored.aux_primes == params.aux_primes
        assert restored.scale == params.scale

    def test_bytes_roundtrip(self, params):
        blob = ser.to_bytes(ser.serialize_parameters(params))
        assert isinstance(blob, bytes)
        restored = ser.deserialize_parameters(ser.from_bytes(blob))
        assert restored.moduli == params.moduli

    def test_version_checked(self, params):
        payload = ser.serialize_parameters(params)
        payload["version"] = 99
        with pytest.raises(ser.DeserializationError):
            ser.deserialize_parameters(payload)

    def test_checksum_detects_tampering(self, params):
        payload = ser.serialize_parameters(params)
        payload["moduli_checksum"] += 1
        with pytest.raises(ser.DeserializationError):
            ser.deserialize_parameters(payload)

    def test_missing_field(self, params):
        payload = ser.serialize_parameters(params)
        del payload["dnum"]
        with pytest.raises(ser.DeserializationError):
            ser.deserialize_parameters(payload)

    def test_garbage_bytes(self):
        with pytest.raises(ser.DeserializationError):
            ser.from_bytes(b"\xff\xfe not json")


class TestCiphertexts:
    def test_roundtrip_decrypts(self, params, encoder, encryptor, decryptor, rng):
        values = random_slots(rng, encoder.slots)
        ct = encryptor.encrypt(encoder.encode(values))
        restored = ser.deserialize_ciphertext(
            ser.from_bytes(ser.to_bytes(ser.serialize_ciphertext(ct))), params
        )
        got = encoder.decode(decryptor.decrypt(restored))
        assert np.abs(got - values).max() < 1e-3

    def test_three_component_roundtrip(
        self, params, encoder, encryptor, decryptor, evaluator, rng
    ):
        values = random_slots(rng, encoder.slots, scale=0.5)
        ct = encryptor.encrypt(encoder.encode(values))
        raw = evaluator.multiply(ct, ct, relinearise=False)
        restored = ser.deserialize_ciphertext(ser.serialize_ciphertext(raw), params)
        assert not restored.is_relinearised
        got = encoder.decode(decryptor.decrypt(evaluator.rescale_raw(restored)))
        assert np.abs(got - values * values).max() < 1e-2

    def test_level_preserved(self, params, encoder, encryptor):
        ct = encryptor.encrypt(encoder.encode([1.0], level=2))
        restored = ser.deserialize_ciphertext(ser.serialize_ciphertext(ct), params)
        assert restored.level == 2

    @pytest.mark.parametrize(
        "mutate",
        [m for _, m in MALFORMED_CIPHERTEXTS],
        ids=[name for name, _ in MALFORMED_CIPHERTEXTS],
    )
    def test_malformed_payload_rejected(self, params, encoder, encryptor, mutate):
        payload = ser.from_bytes(
            ser.to_bytes(
                ser.serialize_ciphertext(encryptor.encrypt(encoder.encode([1.0])))
            )
        )
        mutate(payload)
        with pytest.raises(ser.DeserializationError):
            ser.deserialize_ciphertext(payload, params)

    def test_missing_component(self, params, encoder, encryptor):
        payload = ser.serialize_ciphertext(encryptor.encrypt(encoder.encode([1.0])))
        del payload["c1"]
        with pytest.raises(ser.DeserializationError):
            ser.deserialize_ciphertext(payload, params)


class TestKeys:
    def test_secret_roundtrip(self, params, keyset):
        restored = ser.deserialize_secret_key(
            ser.serialize_secret_key(keyset["secret"]), params
        )
        assert (restored.coeffs == keyset["secret"].coeffs).all()

    def test_secret_length_checked(self, params, keyset):
        payload = ser.serialize_secret_key(keyset["secret"])
        payload["coeffs"] = payload["coeffs"][:-1]
        with pytest.raises(ser.DeserializationError):
            ser.deserialize_secret_key(payload, params)

    def test_public_key_still_encrypts(self, params, keyset, encoder, decryptor, rng):
        restored = ser.deserialize_public_key(
            ser.serialize_public_key(keyset["public"]), params
        )
        encryptor = Encryptor(params, public_key=restored, seed=9)
        values = random_slots(rng, encoder.slots)
        ct = encryptor.encrypt(encoder.encode(values))
        assert np.abs(encoder.decode(decryptor.decrypt(ct)) - values).max() < 1e-3

    def test_relin_key_still_switches(
        self, params, keyset, encoder, encryptor, decryptor, rng
    ):
        restored = ser.deserialize_keyswitch_key(
            ser.serialize_keyswitch_key(keyset["relin"]), params
        )
        evaluator = Evaluator(params, relin_key=restored)
        values = random_slots(rng, encoder.slots, scale=0.5)
        ct = encryptor.encrypt(encoder.encode(values))
        prod = evaluator.rescale(evaluator.multiply(ct, ct))
        got = encoder.decode(decryptor.decrypt(prod))
        assert np.abs(got - values * values).max() < 1e-2

    def test_galois_keys_still_rotate(
        self, params, keyset, encoder, encryptor, decryptor, rng
    ):
        restored = ser.deserialize_galois_keys(
            ser.serialize_galois_keys(keyset["galois"]), params
        )
        evaluator = Evaluator(params, galois_keys=restored)
        values = random_slots(rng, encoder.slots)
        ct = encryptor.encrypt(encoder.encode(values))
        out = evaluator.rotate(ct, 1)
        got = encoder.decode(decryptor.decrypt(out))
        assert np.abs(got - np.roll(values, -1)).max() < 1e-3
