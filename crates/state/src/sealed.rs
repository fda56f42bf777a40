//! Sealed messages: immutably wrapped [`SignedMessage`]s with memoized CIDs.
//!
//! A message's CID is consumed many times on the hot path — mempool dedup,
//! signature verification, block assembly (messages root), VM auth, receipt
//! indexing — and each consumer used to re-derive it from a fresh canonical
//! encoding plus a SHA-256 pass. [`SealedMessage`] computes each CID at most
//! once and carries it with the message.
//!
//! Memoization is only sound if the underlying bytes cannot change after the
//! CID is derived, so the wrapper owns the signed message behind *private*
//! fields: once sealed, a message is immutable (the raw [`SignedMessage`]
//! and [`Message`] keep their public fields and their
//! from-scratch CID derivation — tests tamper with those freely *before*
//! sealing). The memo cells are excluded from serialization, equality, and
//! canonical encoding: a sealed message decoded from untrusted bytes starts
//! cold and re-derives its CIDs from content on first use, so carried CIDs
//! can never lie.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use hc_types::{CanonicalEncode, Cid, Signature};

use crate::message::{Message, SignedMessage};

/// An immutable [`SignedMessage`] whose message and envelope CIDs are
/// computed at most once (lazily) and then reused.
///
/// Built at trust boundaries — mempool admission, block decoding — and
/// carried through block assembly, validation, and execution, so every
/// downstream consumer shares the same derivation. Cloning clones the memo
/// cells too: a warm CID travels with the copy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SealedMessage {
    msg: SignedMessage,
    /// Message CID plus the length of the encoding it was hashed from.
    #[serde(skip)]
    msg_cid: OnceLock<(Cid, usize)>,
    #[serde(skip)]
    cid: OnceLock<Cid>,
}

impl SealedMessage {
    /// Seals a signed message. No CID is derived yet; each is computed on
    /// first use.
    pub fn new(msg: SignedMessage) -> Self {
        SealedMessage {
            msg,
            msg_cid: OnceLock::new(),
            cid: OnceLock::new(),
        }
    }

    /// The message body.
    pub fn message(&self) -> &Message {
        &self.msg.message
    }

    /// The sender's signature over the message CID.
    pub fn signature(&self) -> &Signature {
        &self.msg.signature
    }

    /// The underlying signed message.
    pub fn signed(&self) -> &SignedMessage {
        &self.msg
    }

    /// Unwraps the signed message, discarding the memo.
    pub fn into_signed(self) -> SignedMessage {
        self.msg
    }

    /// CID of the message body (what the sender signs, what receipts are
    /// keyed by). Memoized.
    pub fn msg_cid(&self) -> Cid {
        self.msg_memo().0
    }

    /// Length of the signed envelope's canonical encoding, without
    /// re-encoding it: the message body's length, recorded when its CID is
    /// derived, plus the fixed-size signature.
    pub fn signed_len(&self) -> usize {
        self.msg_memo().1 + Signature::ENCODED_LEN
    }

    fn msg_memo(&self) -> (Cid, usize) {
        *self.msg_cid.get_or_init(|| {
            let bytes = self.msg.message.canonical_bytes();
            (Cid::digest(&bytes), bytes.len())
        })
    }

    /// CID of the signed envelope (message + signature; what mempools dedup
    /// by and block message roots commit to). Memoized.
    pub fn cid(&self) -> Cid {
        *self.cid.get_or_init(|| self.msg.cid())
    }

    /// Verifies the signature against the (memoized) message CID. Key
    /// *ownership* is checked by the VM, exactly as for
    /// [`SignedMessage::verify_signature`].
    pub fn verify_signature(&self) -> bool {
        self.msg.signature.verify(self.msg_cid().as_bytes()).is_ok()
    }
}

impl From<SignedMessage> for SealedMessage {
    fn from(msg: SignedMessage) -> Self {
        SealedMessage::new(msg)
    }
}

impl PartialEq for SealedMessage {
    fn eq(&self, other: &Self) -> bool {
        // Memo cells are derived state; equality is content equality.
        self.msg == other.msg
    }
}

impl CanonicalEncode for SealedMessage {
    fn write_bytes(&self, out: &mut Vec<u8>) {
        self.msg.write_bytes(out);
    }
}

impl hc_types::CanonicalDecode for SealedMessage {
    fn read_bytes(r: &mut hc_types::ByteReader<'_>) -> Result<Self, hc_types::DecodeError> {
        // Decoded messages start cold: carried CIDs are never trusted.
        Ok(SealedMessage::new(SignedMessage::read_bytes(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Method;
    use hc_types::{Address, Keypair, Nonce, TokenAmount};

    fn sample() -> SignedMessage {
        let kp = Keypair::from_seed([0x5e; 32]);
        Message {
            from: Address::new(100),
            to: Address::new(101),
            value: TokenAmount::from_whole(3),
            nonce: Nonce::ZERO,
            method: Method::Send,
        }
        .sign(&kp)
    }

    #[test]
    fn memoized_cids_match_from_scratch_derivation() {
        let signed = sample();
        let sealed = SealedMessage::new(signed.clone());
        assert_eq!(sealed.msg_cid(), CanonicalEncode::cid(&signed.message));
        assert_eq!(sealed.cid(), CanonicalEncode::cid(&signed));
        // Second reads return the same values (memo, not re-derivation).
        assert_eq!(sealed.msg_cid(), CanonicalEncode::cid(&signed.message));
        assert_eq!(sealed.cid(), CanonicalEncode::cid(&signed));
    }

    #[test]
    fn clone_carries_the_memo_and_equality_ignores_it() {
        let sealed = SealedMessage::new(sample());
        let cold = sealed.clone(); // cloned before any derivation: both cold
        let _ = sealed.cid();
        let warm = sealed.clone(); // cloned after: memo travels
        assert_eq!(cold, sealed);
        assert_eq!(warm, sealed);
        assert_eq!(cold.cid(), warm.cid());
    }

    #[test]
    fn signed_len_matches_the_canonical_encoding() {
        let mut put = sample();
        put.message.method = Method::PutData {
            key: b"key".to_vec(),
            data: vec![7; 300],
        };
        for signed in [sample(), put] {
            let want = signed.canonical_bytes().len();
            // Cold: the length is recorded while the message CID is derived.
            assert_eq!(SealedMessage::new(signed.clone()).signed_len(), want);
            // Warm: the memo from an earlier CID read answers.
            let sealed = SealedMessage::new(signed);
            let _ = sealed.msg_cid();
            assert_eq!(sealed.signed_len(), want);
        }
    }

    #[test]
    fn verification_uses_the_message_cid() {
        let sealed = SealedMessage::new(sample());
        assert!(sealed.verify_signature());
        // Tampering must happen before sealing; the tampered value fails.
        let mut tampered = sample();
        tampered.message.value = TokenAmount::from_whole(9_999);
        assert!(!SealedMessage::new(tampered).verify_signature());
    }
}
