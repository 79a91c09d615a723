#![warn(missing_docs)]
// Unsafe code is denied everywhere except the one documented exception:
// `gf::simd`, the split-nibble PSHUFB kernel, which needs `std::arch`
// intrinsics and carries per-call safety arguments.
#![deny(unsafe_code)]

//! Systematic Reed-Solomon erasure coding over GF(2⁸), built from scratch.
//!
//! Pahoehoe (DSN 2010) stores each object version as `n = k + m` fragments
//! produced by a *systematic* Reed-Solomon code: the value is striped across
//! the first `k` *data* fragments and the remaining `m` *parity* fragments
//! are linear combinations of the data fragments over GF(2⁸). Any `k` of the
//! `n` fragments suffice to recover the value, and — crucially for the
//! paper's *sibling fragment recovery* optimization — once any `k` fragments
//! are in hand, **all** missing sibling fragments can be regenerated without
//! any further network traffic.
//!
//! This crate provides exactly that interface:
//!
//! ```
//! use erasure::{Codec, Fragment};
//!
//! # fn main() -> Result<(), erasure::CodecError> {
//! let codec = Codec::new(4, 12)?;
//! let value = b"a binary large object".to_vec();
//! let fragments = codec.encode(&value);
//! assert_eq!(fragments.len(), 12);
//!
//! // Any 4 fragments recover the value, e.g. the last four parities:
//! let subset: Vec<Fragment> = fragments[8..].to_vec();
//! let recovered = codec.decode(&subset, value.len())?;
//! assert_eq!(recovered, value);
//! # Ok(())
//! # }
//! ```
//!
//! The field arithmetic lives in [`gf`], dense matrices with
//! Gaussian-elimination inversion in [`matrix`], and the codec itself in
//! [`codec`].

pub mod checksum;
pub mod codec;
pub mod fragment;
pub mod gf;
pub mod matrix;

mod error;

pub use checksum::Checksum;
pub use codec::Codec;
pub use error::CodecError;
pub use fragment::{Fragment, FragmentIndex};
