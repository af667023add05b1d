//! The one byte cursor every decoder of remote bytes reads through.
//!
//! Device frames (`protocols`) and pub/sub packets (`pubsub::wire`)
//! come from the network, so any byte string may reach their decoders.
//! A [`Cursor`] is total: every read returns its bytes or [`Truncated`],
//! never panics and never forms an offset past the input. The lints
//! below hold this module to that, so no decoder slices by hand.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

/// A read ran past the end of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// What was being decoded, as given to [`Cursor::new`].
    pub context: &'static str,
}

/// A bounds-checked reader of little- and big-endian fields. Its reads
/// are `#[inline]` (or generic): the decoders live in other crates.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    /// The bytes not yet read.
    bytes: &'a [u8],
    /// What a read past the end returns.
    end: Truncated,
}

impl<'a> Cursor<'a> {
    /// A cursor over `bytes`; `context` names what its [`Truncated`] was decoding.
    #[inline]
    pub fn new(bytes: &'a [u8], context: &'static str) -> Self {
        Cursor {
            bytes,
            end: Truncated { context },
        }
    }

    /// The next `n` bytes, or [`Truncated`] if fewer remain. `n` is
    /// compared with what remains, never added to an offset.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let (head, rest) = self.bytes.split_at_checked(n).ok_or(self.end)?;
        self.bytes = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let (head, rest) = self.bytes.split_first_chunk().ok_or(self.end)?;
        self.bytes = rest;
        Ok(*head)
    }

    /// Reads one byte. This and every fixed-width read below return
    /// [`Truncated`] when fewer bytes remain than the field's width.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16_le(&mut self) -> Result<u16, Truncated> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn u16_be(&mut self) -> Result<u16, Truncated> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32_le(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn u32_be(&mut self) -> Result<u32, Truncated> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64_le(&mut self) -> Result<u64, Truncated> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian IEEE 754 `f32`.
    #[inline]
    pub fn f32_le(&mut self) -> Result<f32, Truncated> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian IEEE 754 `f64`.
    #[inline]
    pub fn f64_le(&mut self) -> Result<f64, Truncated> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Everything not yet read; the cursor is at the end afterwards.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.bytes)
    }

    /// How many bytes are left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// `Err(trailing)`, the caller's error for leftover bytes, unless
    /// the input was read to its end.
    pub fn finish<E>(&self, trailing: E) -> Result<(), E> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(trailing)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_each_width_and_byte_order() {
        let bytes: Vec<u8> = (1..=13).collect();
        let mut c = Cursor::new(&bytes, "t");
        assert_eq!(c.u8(), Ok(0x01));
        assert_eq!(c.u16_le(), Ok(0x0302));
        assert_eq!(c.u16_be(), Ok(0x0405));
        assert_eq!(c.u32_le(), Ok(0x0908_0706));
        assert_eq!(c.u32_be(), Ok(0x0A0B_0C0D));
        assert_eq!(c.remaining(), 0);
        let mut c = Cursor::new(&bytes, "t");
        assert_eq!(c.u64_le(), Ok(0x0807_0605_0403_0201));
        assert_eq!(c.f32_le(), Ok(f32::from_bits(0x0C0B_0A09)));
        assert_eq!(c.take(1), Ok([13u8].as_slice()));
        let mut c = Cursor::new(bytes.split_at(8).0, "t");
        assert_eq!(c.f64_le(), Ok(f64::from_bits(0x0807_0605_0403_0201)));
    }

    #[test]
    fn every_read_past_the_end_is_truncated_and_totals_hold() {
        let bytes = [0xFFu8; 9];
        for len in 0..=bytes.len() {
            let input = bytes.split_at(len).0;
            let short = |need: usize| len < need;
            let mut c = Cursor::new(input, "cut");
            assert_eq!(c.u8().is_err(), short(1), "{len}");
            assert_eq!(Cursor::new(input, "cut").u16_be().is_err(), short(2));
            assert_eq!(Cursor::new(input, "cut").u32_le().is_err(), short(4));
            assert_eq!(Cursor::new(input, "cut").u64_le().is_err(), short(8));
            for n in [0, 1, len, len + 1, usize::MAX - 1, usize::MAX] {
                let mut c = Cursor::new(input, "cut");
                match c.take(n) {
                    Ok(head) => assert_eq!((head.len(), c.remaining()), (n, len - n)),
                    Err(e) => {
                        assert!(n > len);
                        assert_eq!(e.context, "cut");
                        assert_eq!(c.remaining(), len, "a failed take consumes nothing");
                    }
                }
            }
        }
    }

    #[test]
    fn rest_and_finish() {
        let mut c = Cursor::new(b"abc", "t");
        assert_eq!(c.u8(), Ok(b'a'));
        assert_eq!(c.finish("left"), Err("left"));
        assert_eq!(c.rest(), b"bc");
        assert_eq!(c.rest(), b"");
        assert_eq!(c.finish("left"), Ok(()));
        assert_eq!(c.u8(), Err(Truncated { context: "t" }));
    }
}
