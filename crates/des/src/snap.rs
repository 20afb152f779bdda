//! Deterministic binary snapshot codec.
//!
//! The checkpoint/fork machinery (`platform::checkpoint` in the core
//! crate) serializes the *entire* engine state — event queue, arenas,
//! allocator planes, estimator state, metrics accumulators — into one
//! contiguous byte buffer, and restores it byte-exactly. This module is
//! the codec substrate: a hand-rolled writer/reader pair (no serde; the
//! build is offline) plus the [`Snap`] trait every snapshottable type
//! implements.
//!
//! Encoding rules, chosen for determinism rather than compactness:
//!
//! * all integers are **fixed-width little-endian** — no varints, so the
//!   encoded form of a value never depends on its magnitude;
//! * `f64` is encoded via [`f64::to_bits`] — bit-exact round trips, the
//!   same convention the report digest uses;
//! * collections are length-prefixed (`u64`) and encoded in their own
//!   deterministic iteration order;
//! * there is no schema or tagging inside the stream — the layout *is*
//!   the schema, so a field the codec silently skipped, or two fields
//!   written in one order and read in another, would corrupt every
//!   checkpoint.
//!
//! Most codecs are not written by hand. [`snap_struct!`](crate::snap_struct),
//! [`snap_enum!`](crate::snap_enum) and [`snap_newtype!`](crate::snap_newtype)
//! generate both directions of [`Snap`] from one list of a type's fields
//! in wire order: the encoder destructures `Self` exhaustively and the
//! decoder builds a struct literal, so a field missing from the list is a
//! compile error on both sides and the order is written down once. Every
//! field goes through its own [`Snap`] impl. A `check` runs on the decoded
//! value, for types with invariants a corrupt buffer could violate.
//!
//! The codecs that stay hand-written are the primitives and containers
//! below and the ones that need context the macros cannot express
//! (decoders that take a shared model profile, rebuild a derived index,
//! or restore a foreign RNG). They must destructure their structs
//! exhaustively too; the `exhaustive-snapshot-fields` lint rule denies a
//! `..` rest pattern in their bodies.
//!
//! Decoding is fallible and total: a truncated or corrupt buffer returns
//! a [`SnapError`] naming the decode site, never a panic.

use crate::time::SimTime;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// A decode failure: the buffer was truncated, a tag was out of range, or
/// a sanity bound was violated. Carries the decode site for diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// What was being decoded when the failure was detected.
    pub what: &'static str,
}

impl SnapError {
    /// Builds an error naming the decode site.
    pub fn new(what: &'static str) -> Self {
        SnapError { what }
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot decode failed at {}", self.what)
    }
}

impl std::error::Error for SnapError {}

/// Serializes values into a growing byte buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// An empty writer with `capacity` bytes pre-reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        SnapWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's-complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` bit-exactly (via [`f64::to_bits`]).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a collection length as a `u64`. `usize` → `u64` is lossless
    /// on every supported target; the saturating fallback is unreachable.
    pub fn len_prefix(&mut self, len: usize) {
        self.u64(u64::try_from(len).unwrap_or(u64::MAX));
    }

    /// Writes raw bytes with a length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.len_prefix(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a UTF-8 string with a length prefix.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Deserializes values from a byte buffer, tracking the read cursor.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed — a trailing-garbage
    /// check for top-level decoders.
    pub fn expect_done(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::new("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError { what })?;
        if end > self.buf.len() {
            return Err(SnapError { what });
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2, "u16")?;
        let arr: [u8; 2] = b.try_into().map_err(|_| SnapError::new("u16"))?;
        Ok(u16::from_le_bytes(arr))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4, "u32")?;
        let arr: [u8; 4] = b.try_into().map_err(|_| SnapError::new("u32"))?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8, "u64")?;
        let arr: [u8; 8] = b.try_into().map_err(|_| SnapError::new("u64"))?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, SnapError> {
        let b = self.take(16, "u128")?;
        let arr: [u8; 16] = b.try_into().map_err(|_| SnapError::new("u128"))?;
        Ok(u128::from_le_bytes(arr))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        let b = self.take(8, "i64")?;
        let arr: [u8; 8] = b.try_into().map_err(|_| SnapError::new("i64"))?;
        Ok(i64::from_le_bytes(arr))
    }

    /// Reads an `f64` encoded via [`f64::to_bits`].
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is a decode error.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::new("bool")),
        }
    }

    /// Reads a collection length prefix (or a `usize` value, which shares
    /// the encoding). The value is not bounded here: a collection decoder
    /// caps its pre-allocation at `n.min(self.remaining())` itself (each
    /// element takes at least one byte), so a corrupt length cannot
    /// trigger an absurd allocation.
    pub fn len_prefix(&mut self) -> Result<usize, SnapError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| SnapError::new("len"))?;
        Ok(n)
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.len_prefix()?;
        self.take(n, "bytes")
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::new("utf8"))
    }
}

/// A type whose full state can be serialized into a [`SnapWriter`] and
/// reconstructed, byte-exactly, from a [`SnapReader`].
///
/// Implement it with [`snap_struct!`](crate::snap_struct),
/// [`snap_enum!`](crate::snap_enum) or [`snap_newtype!`](crate::snap_newtype)
/// wherever the encoding is a field list: the macros destructure
/// exhaustively by construction. A hand-written implementation must
/// destructure its struct exhaustively too (no `..` rest patterns), so a
/// newly added field fails to compile rather than being silently dropped
/// from checkpoints — the `exhaustive-snapshot-fields` lint rule enforces
/// this mechanically.
pub trait Snap: Sized {
    /// Serializes `self` into `w`.
    fn snap(&self, w: &mut SnapWriter);
    /// Reconstructs a value from `r`.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

impl Snap for u8 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u8()
    }
}

impl Snap for u16 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u16(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u16()
    }
}

impl Snap for u32 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u32(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u32()
    }
}

impl Snap for u64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u64()
    }
}

impl Snap for u128 {
    fn snap(&self, w: &mut SnapWriter) {
        w.u128(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.u128()
    }
}

impl Snap for i64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.i64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.i64()
    }
}

impl Snap for usize {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.len_prefix()
    }
}

impl Snap for f64 {
    fn snap(&self, w: &mut SnapWriter) {
        w.f64(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.f64()
    }
}

impl Snap for bool {
    fn snap(&self, w: &mut SnapWriter) {
        w.bool(*self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.bool()
    }
}

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.str()
    }
}

impl Snap for SimTime {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.as_micros());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SimTime::from_micros(r.u64()?))
    }
}

impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.snap(w);
            }
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::unsnap(r)?)),
            _ => Err(SnapError::new("Option tag")),
        }
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        // Pre-allocation is bounded by the bytes actually present (each
        // element encodes to at least one byte).
        let mut out = Vec::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = VecDeque::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            out.push_back(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::unsnap(r)?;
            let v = V::unsnap(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.len_prefix(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.len_prefix()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            out.insert(T::unsnap(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap> Snap for Arc<T> {
    fn snap(&self, w: &mut SnapWriter) {
        T::snap(self, w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Arc::new(T::unsnap(r)?))
    }
}

/// A fixed-size array: `N` elements back to back, with no length prefix.
impl<T: Snap, const N: usize> Snap for [T; N] {
    fn snap(&self, w: &mut SnapWriter) {
        for v in self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::unsnap(r)?);
        }
        out.try_into().map_err(|_| SnapError::new("array"))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn snap(&self, w: &mut SnapWriter) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::unsnap(r)?, B::unsnap(r)?, C::unsnap(r)?))
    }
}

/// Implements [`Snap`] for a struct from one list of its fields, in wire
/// order:
///
/// ```ignore
/// snap_struct!(Pod { id, func, node, state });
/// snap_struct!(GpuDevice { spec, free_sms, ff } skip { ff_pool });
/// snap_struct!(Estimator { alpha, mean }, check = |e: &Estimator| {
///     if e.alpha > 0.0 { Ok(()) } else { Err(SnapError::new("estimator alpha")) }
/// });
/// ```
///
/// The encoder destructures `Self` exhaustively and writes each listed
/// field through its [`Snap`] impl; the decoder reads them back in the
/// same order into a struct literal. A field that is neither listed nor
/// under `skip` is therefore a compile error on both sides. `skip` names
/// pure caches that are not encoded and decode to `Default::default()`.
/// `check` is a non-capturing closure `|v: &T| -> Result<(), SnapError>`
/// run on the decoded value.
#[macro_export]
macro_rules! snap_struct {
    (
        $t:ident { $($f:ident),* $(,)? }
        $(skip { $($s:ident),* $(,)? })?
        $(, check = $check:expr)? $(,)?
    ) => {
        impl $crate::snap::Snap for $t {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                let $t { $($f,)* $($($s: _,)*)? } = self;
                $($crate::snap::Snap::snap($f, w);)*
            }
            fn unsnap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                $(let $f = $crate::snap::Snap::unsnap(r)?;)*
                let value = $t {
                    $($f,)*
                    $($($s: ::core::default::Default::default(),)*)?
                };
                $(
                    let check: fn(&$t) -> ::core::result::Result<(), $crate::snap::SnapError> =
                        $check;
                    check(&value)?;
                )?
                Ok(value)
            }
        }
    };
}

/// Implements [`Snap`] for an enum as a `u8` tag followed by the
/// variant's fields in the order listed:
///
/// ```ignore
/// snap_enum!(Phase, "phase tag" {
///     0 => Idle,
///     1 => Busy(pod, since),
///     2 => Draining { pod, until },
/// });
/// ```
///
/// Encoding matches every listed variant, so a variant missing from the
/// list is a compile error. A tag the list does not name decodes to
/// `SnapError::new(what)`. An optional `check = |v: &T| ...` runs on the
/// decoded value, as in [`snap_struct!`](crate::snap_struct).
#[macro_export]
macro_rules! snap_enum {
    (
        $t:ident, $what:literal {
            $(
                $tag:literal => $v:ident
                $(( $($tf:ident),* $(,)? ))?
                $({ $($nf:ident),* $(,)? })?
            ),* $(,)?
        }
        $(, check = $check:expr)? $(,)?
    ) => {
        impl $crate::snap::Snap for $t {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $(
                        $t::$v $(($($tf),*))? $({ $($nf),* })? => {
                            w.u8($tag);
                            $($($crate::snap::Snap::snap($tf, w);)*)?
                            $($($crate::snap::Snap::snap($nf, w);)*)?
                        }
                    )*
                }
            }
            fn unsnap(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                let value = match r.u8()? {
                    $(
                        $tag => {
                            $($(let $tf = $crate::snap::Snap::unsnap(r)?;)*)?
                            $($(let $nf = $crate::snap::Snap::unsnap(r)?;)*)?
                            $t::$v $(($($tf),*))? $({ $($nf),* })?
                        }
                    )*
                    _ => return Err($crate::snap::SnapError::new($what)),
                };
                $(
                    let check: fn(&$t) -> ::core::result::Result<(), $crate::snap::SnapError> =
                        $check;
                    check(&value)?;
                )?
                Ok(value)
            }
        }
    };
}

/// Implements [`Snap`] for single-field tuple structs, encoded exactly as
/// their inner value: `snap_newtype!(NodeId, PodId);`.
#[macro_export]
macro_rules! snap_newtype {
    ($($t:ident),+ $(,)?) => {
        $(
            impl $crate::snap::Snap for $t {
                fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                    let $t(inner) = self;
                    $crate::snap::Snap::snap(inner, w);
                }
                fn unsnap(
                    r: &mut $crate::snap::SnapReader<'_>,
                ) -> ::core::result::Result<Self, $crate::snap::SnapError> {
                    Ok($t($crate::snap::Snap::unsnap(r)?))
                }
            }
        )+
    };
}

pub use crate::{snap_enum, snap_newtype, snap_struct};

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snap + PartialEq + fmt::Debug>(v: &T) {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let back = T::unsnap(&mut r).expect("decode");
        r.expect_done().expect("fully consumed");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&0u8);
        round_trip(&u8::MAX);
        round_trip(&0xBEEFu16);
        round_trip(&0xDEAD_BEEFu32);
        round_trip(&u64::MAX);
        round_trip(&u128::MAX);
        round_trip(&(-42i64));
        round_trip(&std::f64::consts::PI);
        round_trip(&f64::NEG_INFINITY);
        round_trip(&true);
        round_trip(&false);
        round_trip(&String::from("resnet-50 \u{1F680}"));
        round_trip(&SimTime::from_micros(123_456_789));
        round_trip(&42usize);
    }

    #[test]
    fn nan_round_trips_bit_exactly() {
        let v = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let back = f64::unsnap(&mut r).expect("decode");
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(&Some(7u64));
        round_trip(&Option::<u64>::None);
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&Vec::<String>::new());
        round_trip(&VecDeque::from([1u64, 2, 3]));
        round_trip(&BTreeMap::from([(1u64, 2u64), (3, 4)]));
        round_trip(&BTreeSet::from([9u64, 1, 5]));
        round_trip(&(1u64, 2u8));
        round_trip(&(1u64, 2u8, String::from("x")));
        round_trip(&vec![(SimTime::from_secs(1), 0.5f64)]);
    }

    #[test]
    fn arc_round_trips_by_value() {
        let v = Arc::new(vec![1u64, 2, 3]);
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let back = Arc::<Vec<u64>>::unsnap(&mut r).expect("decode");
        assert_eq!(*back, *v);
    }

    #[test]
    fn truncated_buffer_is_an_error_not_a_panic() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].snap(&mut w);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut]);
            assert!(Vec::<u64>::unsnap(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_tags_are_errors() {
        let mut r = SnapReader::new(&[2]);
        assert!(Option::<u8>::unsnap(&mut r).is_err());
        let mut r = SnapReader::new(&[7]);
        assert!(bool::unsnap(&mut r).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = SnapWriter::new();
        1u8.snap(&mut w);
        2u8.snap(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let _ = u8::unsnap(&mut r).expect("first");
        assert!(r.expect_done().is_err());
        let _ = u8::unsnap(&mut r).expect("second");
        assert!(r.expect_done().is_ok());
    }

    #[derive(Debug, PartialEq)]
    struct Sample {
        id: u32,
        at: SimTime,
        w: Vec<u64>,
        cache: Vec<u8>,
    }
    snap_struct!(Sample { at, id, w } skip { cache }, check = |s: &Sample| {
        if s.w.len() <= 3 {
            Ok(())
        } else {
            Err(SnapError::new("sample width"))
        }
    });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Empty,
        Pair(u8, f64),
        Named { n: usize, tag: Option<u16> },
    }
    snap_enum!(Shape, "shape tag" {
        0 => Empty,
        1 => Pair(a, b),
        2 => Named { tag, n },
    });

    #[derive(Debug, PartialEq)]
    struct Wrapped(u64);
    snap_newtype!(Wrapped);

    fn encode<T: Snap>(v: &T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.snap(&mut w);
        w.finish()
    }

    #[test]
    fn macro_codecs_write_fields_in_list_order() {
        let v = Sample {
            id: 7,
            at: SimTime::from_micros(9),
            w: vec![1, 2],
            cache: vec![5],
        };
        let mut w = SnapWriter::new();
        w.u64(9);
        w.u32(7);
        w.len_prefix(2);
        w.u64(1);
        w.u64(2);
        assert_eq!(encode(&v), w.finish());
        let back = Sample::unsnap(&mut SnapReader::new(&encode(&v))).expect("decode");
        assert_eq!(
            back,
            Sample {
                cache: Vec::new(),
                ..v
            }
        );

        let mut w = SnapWriter::new();
        w.u8(2);
        w.u8(1);
        w.u16(4);
        w.len_prefix(3);
        let named = Shape::Named { n: 3, tag: Some(4) };
        assert_eq!(encode(&named), w.finish());
        assert_eq!(encode(&Wrapped(5)), 5u64.to_le_bytes());
        for v in [Shape::Empty, Shape::Pair(3, 0.5), named] {
            round_trip(&v);
        }
        round_trip(&Wrapped(u64::MAX));
        round_trip(&[vec![1u32], vec![], vec![2, 3]]);
    }

    #[test]
    fn macro_codecs_reject_bad_tags_and_failed_checks() {
        let err = Shape::unsnap(&mut SnapReader::new(&[3])).unwrap_err();
        assert_eq!(err.what, "shape tag");
        let wide = Sample {
            id: 0,
            at: SimTime::ZERO,
            w: vec![0; 4],
            cache: Vec::new(),
        };
        let err = Sample::unsnap(&mut SnapReader::new(&encode(&wide))).unwrap_err();
        assert_eq!(err.what, "sample width");
    }

    #[test]
    fn encoding_is_deterministic() {
        let encode = || {
            let mut w = SnapWriter::new();
            BTreeMap::from([(3u64, 1.5f64), (1, 2.5)]).snap(&mut w);
            w.finish()
        };
        assert_eq!(encode(), encode());
    }
}
