"""Serialization of parameters, keys and ciphertexts (JSON-based).

A deployment needs to ship evaluation keys to the server and ciphertexts
back and forth.  Everything serialises to JSON-compatible dictionaries
(Python's ``json`` handles arbitrary-precision integers natively); byte
helpers wrap ``json.dumps`` for convenience.

Parameters serialise as their constructor arguments -- prime-chain
generation is deterministic, so reconstruction yields bit-identical
moduli (verified on load).
"""

from __future__ import annotations

import json
import math
from typing import Dict, Optional

import numpy as np

from .ciphertext import Ciphertext
from .keys import GaloisKeys, KeySwitchKey, PublicKey, SecretKey
from .params import CkksParameters, KlssConfig
from ..math.polynomial import RnsPolynomial

FORMAT_VERSION = 1


class DeserializationError(ValueError):
    """Raised when a payload is malformed or inconsistent."""


# -- polynomials ----------------------------------------------------------------


def _poly_to_dict(poly: RnsPolynomial) -> dict:
    poly = poly.from_ntt()
    return {
        "limbs": [[int(c) for c in limb] for limb in poly.limbs],
        "moduli": [int(q) for q in poly.basis.moduli],
    }


def _poly_from_dict(payload: dict, params: CkksParameters) -> RnsPolynomial:
    """Rebuild a coefficient-form polynomial, checking every residue."""
    from ..math.rns import RnsBasis

    try:
        moduli = tuple(payload["moduli"])
        limbs = [np.array(limb, dtype=object) for limb in payload["limbs"]]
    except (KeyError, TypeError) as exc:
        raise DeserializationError(f"malformed polynomial payload: {exc}")
    if not moduli or any(type(q) is not int or q < 2 for q in moduli):
        raise DeserializationError(f"moduli must be integers > 1, got {moduli}")
    if len(limbs) != len(moduli):
        raise DeserializationError(
            f"polynomial has {len(limbs)} limbs for {len(moduli)} moduli"
        )
    for limb, q in zip(limbs, moduli):
        if limb.shape != (params.degree,):
            raise DeserializationError(
                f"limb of shape {limb.shape}, expected ({params.degree},)"
            )
        if any(type(c) is not int or not 0 <= c < q for c in limb):
            raise DeserializationError(f"limb holds a value outside [0, {q})")
    return RnsPolynomial(params.degree, RnsBasis(moduli), limbs, is_ntt=False)


# -- parameters -----------------------------------------------------------------


def serialize_parameters(params: CkksParameters) -> dict:
    payload = {
        "version": FORMAT_VERSION,
        "degree": params.degree,
        "max_level": params.max_level,
        "wordsize": params.wordsize,
        "dnum": params.dnum,
        "first_prime_bits": params.moduli[0].bit_length(),
        "scale_bits": params.scale_bits,
        "error_std": params.error_std,
        "moduli_checksum": sum(params.moduli) % (1 << 61),
    }
    if params.klss is not None:
        payload["klss"] = {
            "wordsize_t": params.klss.wordsize_t,
            "alpha_tilde": params.klss.alpha_tilde,
        }
    return payload


def deserialize_parameters(payload: dict) -> CkksParameters:
    if payload.get("version") != FORMAT_VERSION:
        raise DeserializationError(
            f"unsupported format version {payload.get('version')!r}"
        )
    klss = None
    if "klss" in payload:
        klss = KlssConfig(
            wordsize_t=payload["klss"]["wordsize_t"],
            alpha_tilde=payload["klss"]["alpha_tilde"],
        )
    try:
        params = CkksParameters(
            degree=payload["degree"],
            max_level=payload["max_level"],
            wordsize=payload["wordsize"],
            dnum=payload["dnum"],
            first_prime_bits=payload["first_prime_bits"],
            scale_bits=payload["scale_bits"],
            klss=klss,
            error_std=payload["error_std"],
        )
    except KeyError as exc:
        raise DeserializationError(f"missing parameter field: {exc}")
    checksum = sum(params.moduli) % (1 << 61)
    if checksum != payload["moduli_checksum"]:
        raise DeserializationError(
            "prime-chain mismatch: payload was created by an incompatible build"
        )
    return params


# -- ciphertexts ------------------------------------------------------------------


def serialize_ciphertext(ct: Ciphertext) -> dict:
    payload = {
        "version": FORMAT_VERSION,
        "scale": ct.scale,
        "c0": _poly_to_dict(ct.c0),
        "c1": _poly_to_dict(ct.c1),
    }
    if ct.c2 is not None:
        payload["c2"] = _poly_to_dict(ct.c2)
    return payload


def deserialize_ciphertext(payload: dict, params: CkksParameters) -> Ciphertext:
    try:
        c0 = _poly_from_dict(payload["c0"], params)
        c1 = _poly_from_dict(payload["c1"], params)
        scale = payload["scale"]
    except KeyError as exc:
        raise DeserializationError(f"missing ciphertext field: {exc}")
    c2 = _poly_from_dict(payload["c2"], params) if "c2" in payload else None
    if not isinstance(scale, (int, float)) or not (math.isfinite(scale) and scale > 0):
        raise DeserializationError(f"ciphertext scale {scale!r} is not finite and > 0")
    moduli = tuple(c0.basis.moduli)
    if moduli != tuple(params.moduli[: len(moduli)]):
        raise DeserializationError("ciphertext moduli are not a prefix of the chain")
    try:
        return Ciphertext(c0, c1, scale, params, c2=c2)
    except ValueError as exc:  # components in different bases
        raise DeserializationError(str(exc))


# -- keys --------------------------------------------------------------------------


def serialize_secret_key(secret: SecretKey) -> dict:
    return {
        "version": FORMAT_VERSION,
        "coeffs": [int(c) for c in secret.coeffs],
    }


def deserialize_secret_key(payload: dict, params: CkksParameters) -> SecretKey:
    try:
        coeffs = np.array(payload["coeffs"], dtype=object)
    except KeyError as exc:
        raise DeserializationError(f"missing secret field: {exc}")
    if coeffs.shape != (params.degree,):
        raise DeserializationError("secret key length does not match parameters")
    return SecretKey(coeffs, params)


def serialize_public_key(public: PublicKey) -> dict:
    return {
        "version": FORMAT_VERSION,
        "b": _poly_to_dict(public.b),
        "a": _poly_to_dict(public.a),
    }


def deserialize_public_key(payload: dict, params: CkksParameters) -> PublicKey:
    return PublicKey(
        _poly_from_dict(payload["b"], params),
        _poly_from_dict(payload["a"], params),
    )


def serialize_keyswitch_key(ksk: KeySwitchKey) -> dict:
    return {
        "version": FORMAT_VERSION,
        "pairs": [
            {"b": _poly_to_dict(b), "a": _poly_to_dict(a)} for b, a in ksk.pairs
        ],
    }


def deserialize_keyswitch_key(payload: dict, params: CkksParameters) -> KeySwitchKey:
    try:
        pairs = [
            (
                _poly_from_dict(pair["b"], params),
                _poly_from_dict(pair["a"], params),
            )
            for pair in payload["pairs"]
        ]
    except KeyError as exc:
        raise DeserializationError(f"missing key-switch field: {exc}")
    return KeySwitchKey(pairs)


def serialize_galois_keys(galois: GaloisKeys) -> dict:
    return {
        "version": FORMAT_VERSION,
        "keys": {
            str(power): serialize_keyswitch_key(key)
            for power, key in galois._keys.items()
        },
    }


def deserialize_galois_keys(payload: dict, params: CkksParameters) -> GaloisKeys:
    galois = GaloisKeys()
    for power, key_payload in payload.get("keys", {}).items():
        galois.add(int(power), deserialize_keyswitch_key(key_payload, params))
    return galois


# -- byte helpers -------------------------------------------------------------------


def to_bytes(payload: dict) -> bytes:
    """Compact JSON encoding of any payload from this module."""
    return json.dumps(payload, separators=(",", ":")).encode()


def from_bytes(blob: bytes) -> dict:
    try:
        return json.loads(blob.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DeserializationError(f"not a valid payload: {exc}")
