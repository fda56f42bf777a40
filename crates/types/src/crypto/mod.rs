//! Cryptographic primitives.
//!
//! * [`sha256`] — a from-scratch SHA-256 (FIPS 180-4), the hash underlying
//!   all content addressing in the system. Blocks are compressed by a
//!   portable pure-Rust reference kernel or, when the CPU has the x86_64 SHA
//!   extensions, by a SHA-NI kernel chosen at run time; both give identical
//!   output, and [`sha256_block_count`] counts compressions whichever ran.
//! * [`Keypair`], [`PublicKey`], [`Signature`] — a simulation-grade
//!   signature scheme (see the type docs for the substitution rationale).
//! * [`SignaturePolicy`], [`AggregateSignature`] — the checkpoint signature
//!   policies from the paper (§III-B): single signer, m-of-n multi-sig, and
//!   threshold signatures over a validator set.

mod multisig;
mod sha2;
mod sig;

pub use multisig::{AggregateSignature, PolicyError, SignaturePolicy};
pub use sha2::{sha256, sha256_block_count};
pub use sig::{Keypair, PublicKey, SigError, Signature};
