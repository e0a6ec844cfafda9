import dataclasses
import random

import pytest

from fcguard.credentials import (
    BANK_ATTRIBUTES,
    PLATFORM_ATTRIBUTES,
    Schema,
    Wallet,
    create_credential_request,
    fetch_definition,
    fetch_schema,
    holder_finalize_credential,
    issue_credential,
    publish_definition,
    verify_credential_request,
)
from fcguard.crypto.cl import cl_keygen
from fcguard.crypto.encoding import encode_attribute
from fcguard.errors import (
    RegistryError,
    SchemaMismatchError,
    VerificationError,
    WalletError,
)
from fcguard.ledger import Registry
from fcguard.params import TOY
from fcguard.serialize import canonical_int_hex, dumps


def test_schema_attribute_lists_enforced():
    Schema("s1", "platform", PLATFORM_ATTRIBUTES)
    Schema("s2", "bank", BANK_ATTRIBUTES)
    with pytest.raises(SchemaMismatchError):
        Schema("s3", "platform", ("name", "ssn"))
    with pytest.raises(SchemaMismatchError):
        Schema("s4", "issuer", PLATFORM_ATTRIBUTES)


def test_publish_and_fetch_round_trip(toy_env):
    schema = fetch_schema(toy_env.registry, "schema:platform")
    assert schema.attribute_names == ("name", "birthday", "ssn")
    defn = fetch_definition(toy_env.registry, "defn:platform")
    assert defn.schema_id == "schema:platform"
    # fetch twice: identical bytes
    a = toy_env.registry.get("defn:platform", "credential-definition").payload
    b = toy_env.registry.get("defn:platform", "credential-definition").payload
    assert a == b


def test_bank_schema_slot_count(toy_env):
    # 3 schema attributes plus the reserved link slot
    defn = fetch_definition(toy_env.registry, "defn:bank")
    assert len(fetch_schema(toy_env.registry, "schema:bank").attribute_names) == 3
    assert defn.slot_count == 4


def test_duplicate_publication_rejected(toy_env):
    with pytest.raises(RegistryError):
        publish_definition(toy_env.registry, toy_env.platform_keys,
                           toy_env.platform_schema, "defn:platform", TOY)


def test_publish_requires_matching_key_size():
    rng = random.Random(1)
    keys = cl_keygen(2, TOY, rng)
    schema = Schema("s-small", "platform", PLATFORM_ATTRIBUTES)
    with pytest.raises(SchemaMismatchError):
        publish_definition(Registry(), keys, schema, "d-small", TOY)


def test_credential_request_verifies_and_tampers_fail(toy_env):
    rng = toy_env.rng
    request, _ = create_credential_request(toy_env.wallet.link_secret,
                                           toy_env.platform_defn, b"req-nonce", rng)
    assert verify_credential_request(toy_env.platform_defn, request)
    bad = dataclasses.replace(request, blinded=request.blinded + 1)
    assert not verify_credential_request(toy_env.platform_defn, bad)
    wrong_nonce = dataclasses.replace(request, nonce=b"other-nonce")
    assert not verify_credential_request(toy_env.platform_defn, wrong_nonce)


def test_fresh_blinding_over_100_requests(toy_env):
    # same link secret, fresh commitment bytes every time
    seen = set()
    for _ in range(100):
        request, _ = create_credential_request(toy_env.wallet.link_secret,
                                               toy_env.platform_defn, b"n", toy_env.rng)
        seen.add(dumps(request))
    assert len(seen) == 100


def test_link_secret_absent_from_request_bytes(toy_env):
    request, _ = create_credential_request(toy_env.wallet.link_secret,
                                           toy_env.platform_defn, b"n", toy_env.rng)
    needle = canonical_int_hex(toy_env.wallet.link_secret.value).encode()
    assert needle not in dumps(request)


def test_issue_and_holder_verify_round_trip(toy_env):
    cred = toy_env.issue(toy_env.platform_defn, toy_env.platform_schema, toy_env.platform_keys,
                         {"name": "Bob", "birthday": 19800101, "ssn": 111_222_333})
    assert cred.attributes["ssn"] == 111_222_333


def test_issued_ssn_slot_is_encode_passthrough(toy_env):
    cred = toy_env.issue(toy_env.platform_defn, toy_env.platform_schema, toy_env.platform_keys,
                         {"name": "Carol", "birthday": 19850607, "ssn": 123_456_789})
    assert cred.attributes["ssn"] == encode_attribute(123_456_789) == 123_456_789
    assert cred.attributes["name"] == encode_attribute("Carol")


def test_issue_rejects_wrong_attribute_set(toy_env):
    request, _ = create_credential_request(toy_env.wallet.link_secret,
                                           toy_env.platform_defn, b"n2", toy_env.rng)
    with pytest.raises(SchemaMismatchError):
        issue_credential(toy_env.platform_keys, toy_env.platform_defn, toy_env.platform_schema,
                         request, {"name": "X", "ssn": 1}, toy_env.rng)
    with pytest.raises(SchemaMismatchError):
        issue_credential(toy_env.platform_keys, toy_env.platform_defn, toy_env.platform_schema,
                         request, {"name": "X", "birthday": 19900101, "ssn": 1, "extra": 2},
                         toy_env.rng)


def test_issue_rejects_invalid_request_proof(toy_env):
    request, _ = create_credential_request(toy_env.wallet.link_secret,
                                           toy_env.platform_defn, b"n3", toy_env.rng)
    bad = dataclasses.replace(request, blinded=request.blinded * 2 % toy_env.platform_defn.public_key.n)
    with pytest.raises(VerificationError):
        issue_credential(toy_env.platform_keys, toy_env.platform_defn, toy_env.platform_schema,
                         bad, {"name": "X", "birthday": 19900101, "ssn": 1}, toy_env.rng)


def test_tampered_credential_rejected_not_stored(toy_env):
    nonce = b"n4"
    request, v_prime = create_credential_request(toy_env.wallet.link_secret,
                                                 toy_env.platform_defn, nonce, toy_env.rng)
    cred = issue_credential(toy_env.platform_keys, toy_env.platform_defn, toy_env.platform_schema,
                            request, {"name": "X", "birthday": 19900101, "ssn": 5}, toy_env.rng)
    bad_sig = dataclasses.replace(cred.signature, a=cred.signature.a + 1)
    tampered = dataclasses.replace(cred, signature=bad_sig)
    wallet = Wallet(toy_env.wallet.link_secret)
    with pytest.raises(VerificationError):
        holder_finalize_credential(toy_env.platform_defn, toy_env.platform_schema, tampered,
                                   wallet.link_secret, v_prime, nonce)
    assert len(wallet) == 0


@pytest.mark.parametrize("tamper", [
    lambda cred: {"signature": None}, lambda cred: {"attributes": None}, lambda cred: {"attributes": {}},
    lambda cred: {"attributes": {**cred.attributes, "extra": 4}},
], ids=["signature-none", "attributes-none", "attributes-empty", "attributes-extra"])
def test_a_malformed_credential_is_refused_not_raised(toy_env, tamper):
    nonce = b"n5"
    request, v_prime = create_credential_request(toy_env.wallet.link_secret,
                                                 toy_env.platform_defn, nonce, toy_env.rng)
    cred = issue_credential(toy_env.platform_keys, toy_env.platform_defn, toy_env.platform_schema,
                            request, {"name": "X", "birthday": 19900101, "ssn": 5}, toy_env.rng)
    with pytest.raises(VerificationError):
        holder_finalize_credential(toy_env.platform_defn, toy_env.platform_schema,
                                   dataclasses.replace(cred, **tamper(cred)), toy_env.wallet.link_secret, v_prime,
                                   nonce)


def test_wallet_holds_two_credentials_one_link_secret(toy_env):
    # oracle: wallet inventory count
    assert len(toy_env.wallet) == 2
    assert "defn:platform" in toy_env.wallet
    assert "defn:bank" in toy_env.wallet
    assert toy_env.wallet.get("defn:platform") is not toy_env.wallet.get("defn:bank")


def test_wallet_save_load_round_trip(tmp_path, toy_env):
    path = tmp_path / "wallet.enc"
    toy_env.wallet.save(path, passphrase="hunter2")
    loaded = Wallet.load(path, passphrase="hunter2")
    assert loaded.link_secret == toy_env.wallet.link_secret
    assert len(loaded) == len(toy_env.wallet)
    assert loaded.get("defn:platform") == toy_env.wallet.get("defn:platform")


def test_wallet_wrong_passphrase(tmp_path, toy_env):
    path = tmp_path / "wallet.enc"
    toy_env.wallet.save(path, passphrase="hunter2")
    with pytest.raises(WalletError):
        Wallet.load(path, passphrase="hunter3")
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 1
    path.write_bytes(bytes(blob))
    with pytest.raises(WalletError):
        Wallet.load(path, passphrase="hunter2")


def test_link_secret_not_in_wallet_file_plaintext(tmp_path, toy_env):
    path = tmp_path / "wallet.enc"
    toy_env.wallet.save(path, passphrase="pw")
    assert canonical_int_hex(toy_env.wallet.link_secret.value).encode() not in path.read_bytes()


def test_issuance_mutation_sweep(toy_env):
    # 100 random vectors per schema: issue -> holder verify succeeds, and a
    # mutated attribute or signature field always fails holder verification
    import random

    rng = random.Random("issuance-sweep")
    plans = [
        (toy_env.platform_defn, toy_env.platform_schema, toy_env.platform_keys,
         lambda i: {"name": f"U{i}", "birthday": 19_600_101 + i, "ssn": 100_000_000 + i}),
        (toy_env.bank_defn, toy_env.bank_schema, toy_env.bank_keys,
         lambda i: {"bank_name": f"Bank {i}", "bank_account": 10**16 + i,
                    "ssn": 200_000_000 + i}),
    ]
    for defn, schema, keys, make_values in plans:
        nonce = b"sweep:" + defn.defn_id.encode()
        request, v_prime = create_credential_request(toy_env.wallet.link_secret,
                                                     defn, nonce, toy_env.rng)
        for i in range(100):
            cred = issue_credential(keys, defn, schema, request, make_values(i), toy_env.rng)
            fine = holder_finalize_credential(defn, schema, cred,
                                              toy_env.wallet.link_secret, v_prime, nonce)
            assert fine.attributes == cred.attributes
            attr = rng.choice(schema.attribute_names)
            mutated_attrs = dict(cred.attributes)
            mutated_attrs[attr] += 1
            broken = [dataclasses.replace(cred, attributes=mutated_attrs),
                      dataclasses.replace(cred, signature=dataclasses.replace(
                          cred.signature, v=cred.signature.v + 1))]
            for bad in broken:
                with pytest.raises(VerificationError):
                    holder_finalize_credential(defn, schema, bad,
                                               toy_env.wallet.link_secret, v_prime, nonce)


def test_request_proof_verdict_is_the_same_with_the_issuers_own_key(toy_env):
    defn = toy_env.platform_defn
    request, _ = create_credential_request(toy_env.wallet.link_secret, defn, b"n-crt", toy_env.rng)
    bad = dataclasses.replace(request, proof=dataclasses.replace(request.proof, s_m=request.proof.s_m + 1))
    # the bank's key pair is over another modulus, so it is not used
    for keys in (None, toy_env.platform_keys, toy_env.bank_keys):
        assert verify_credential_request(defn, request, keys)
        assert not verify_credential_request(defn, bad, keys)


@pytest.mark.parametrize("tamper", [lambda request: None, lambda request: dataclasses.replace(request, defn_id=None)],
                         ids=["none", "defn_id-none"])
def test_a_malformed_request_is_refused_by_the_issuer(toy_env, tamper):
    request, _ = create_credential_request(toy_env.wallet.link_secret, toy_env.platform_defn, b"n6", toy_env.rng)
    with pytest.raises(VerificationError, match="malformed"):  # refused as malformed, before any field is read
        issue_credential(toy_env.platform_keys, toy_env.platform_defn, toy_env.platform_schema,
                         tamper(request), {"name": "X", "birthday": 19900101, "ssn": 5}, toy_env.rng)


def test_each_registry_payload_is_decoded_once(toy_env):
    registry = toy_env.registry
    assert fetch_definition(registry, "defn:platform") is fetch_definition(registry, "defn:platform")
    assert fetch_schema(registry, "schema:bank") is fetch_schema(registry, "schema:bank")
