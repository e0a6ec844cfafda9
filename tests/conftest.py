import random

import pytest

from fcguard.credentials import (
    BANK_ATTRIBUTES,
    PLATFORM_ATTRIBUTES,
    Schema,
    Wallet,
    create_credential_request,
    holder_finalize_credential,
    issue_credential,
    publish_definition,
)
from fcguard.crypto.cl import cl_keygen
from fcguard.crypto.elgamal import elgamal_keygen
from fcguard.crypto.paillier import paillier_keygen
from fcguard.ledger import Registry
from fcguard.params import TOY
from fcguard.parties import bank_statement, identity_statement


class ToyEnv:
    """Toy-profile issuance environment shared by credential and
    presentation tests: two issuers, one wallet holding both credentials."""

    def __init__(self, seed="toy-env", ssn=123_456_789, account=12_345_678_901_234_567):
        self.rng = random.Random(seed)
        self.profile = TOY
        self.registry = Registry()
        self.platform_keys = cl_keygen(4, TOY, self.rng)
        self.bank_keys = cl_keygen(4, TOY, self.rng)
        self.platform_schema = Schema("schema:platform", "platform", PLATFORM_ATTRIBUTES)
        self.bank_schema = Schema("schema:bank", "bank", BANK_ATTRIBUTES)
        _, self.platform_defn = publish_definition(
            self.registry, self.platform_keys, self.platform_schema, "defn:platform", TOY)
        _, self.bank_defn = publish_definition(
            self.registry, self.bank_keys, self.bank_schema, "defn:bank", TOY)
        self.wallet = Wallet.create(TOY, self.rng)
        self.ssn = ssn
        self.account = account
        self.vc_pu = self.issue(self.platform_defn, self.platform_schema, self.platform_keys,
                                {"name": "Alice Example", "birthday": 19900101, "ssn": ssn})
        self.vc_bu = self.issue(self.bank_defn, self.bank_schema, self.bank_keys,
                                {"bank_name": "Bank of A", "bank_account": account, "ssn": ssn})
        self.wallet.store(self.vc_pu)
        self.wallet.store(self.vc_bu)
        self.aa_keys = elgamal_keygen(TOY, self.rng)
        self.bank_enc = paillier_keygen(TOY, self.rng)
        # the exchange's two statements, step 1 with no age check
        self.statement1 = identity_statement(self.platform_defn.defn_id, self.aa_keys.public)
        self.statement2 = bank_statement(self.platform_defn.defn_id, self.bank_defn.defn_id, self.bank_enc.public)

    def issue(self, defn, schema, keys, values, wallet=None):
        if wallet is None:
            wallet = self.wallet
        nonce = self.rng.getrandbits(128).to_bytes(16, "big")
        request, v_prime = create_credential_request(wallet.link_secret, defn, nonce, self.rng)
        cred = issue_credential(keys, defn, schema, request, values, self.rng)
        return holder_finalize_credential(defn, schema, cred, wallet.link_secret, v_prime, nonce)

    def fresh_nonce(self):
        return self.rng.getrandbits(128).to_bytes(16, "big")


@pytest.fixture(scope="session")
def toy_env():
    return ToyEnv()


@pytest.fixture(scope="session")
def paper_key_cache(tmp_path_factory):
    """Shared on-disk key cache so the paper-profile acceptance checks
    generate the expensive issuer keys once per test session."""
    return tmp_path_factory.mktemp("paper-keys")
