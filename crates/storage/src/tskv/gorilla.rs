//! Bit-level codecs for sealed segments: Gorilla-style delta-of-delta
//! timestamps plus one of two value encodings chosen per block at seal
//! time.
//!
//! * **Decimal-int** — most district telemetry is quantized by the
//!   device wire formats (ZigBee temperature is centi-degrees, metering
//!   is 0.01 kWh ticks, switch states are 0/1). When every value in a
//!   block is exactly `m / 10^k` for one small `k`, the block stores
//!   zigzag-varbit *integer deltas* of `m` — typically under 10 bits per
//!   point, an order of magnitude below the raw 16-byte pair.
//! * **XOR floats** — the Gorilla fallback for full-precision doubles:
//!   XOR against the previous value, reusing the previous
//!   leading/meaningful-bit window when it still fits.
//!
//! Both are lossless: decode reproduces every `f64` bit-exactly,
//! including NaN payloads and `-0.0` (a negative zero fails the
//! decimal-int bit-equality probe and falls back to XOR).
//!
//! A block decodes sequentially, so a sealed segment also keeps a side
//! table of [`Restart`] points: the decoder state before every
//! [`RESTART_INTERVAL`]th point, from which [`BlockIter::seek`] resumes
//! mid-block. The table is written next to the block, never into it.

/// Points between two restart points of an indexed block.
pub(crate) const RESTART_INTERVAL: usize = 128;

/// Exact powers of ten for the decimal-int scales (`k <= 4`).
const SCALES: [f64; 5] = [1.0, 10.0, 100.0, 1_000.0, 10_000.0];

/// An MSB-first bit sink, the mirror of [`BitReader`]: bits gather in
/// a 64-bit accumulator and reach the buffer a whole word at a time.
#[derive(Debug, Default)]
pub(crate) struct BitWriter {
    bytes: Vec<u8>,
    /// The low `pending` bits are written but not yet in `bytes`.
    acc: u64,
    pending: u32,
}

impl BitWriter {
    /// An empty writer.
    pub(crate) fn new() -> Self {
        BitWriter::default()
    }

    /// Bits in the buffer, flushed or not.
    fn bits(&self) -> usize {
        self.bytes.len() * 8 + self.pending as usize
    }

    /// Appends the low `n` bits of `v`, most significant first.
    #[inline]
    pub(crate) fn push_bits(&mut self, v: u64, n: u32) {
        debug_assert!(n <= 64);
        let v = v & u64::MAX.checked_shr(64 - n).unwrap_or(0);
        let free = 64 - self.pending;
        if n < free {
            self.acc = (self.acc << n) | v;
            self.pending += n;
        } else {
            // The word fills: flush it, keep the bits that did not fit.
            let word = self.acc.checked_shl(free).unwrap_or(0) | (v >> (n - free));
            self.bytes.extend_from_slice(&word.to_be_bytes());
            (self.acc, self.pending) = (v, n - free);
        }
    }

    /// The packed bytes (trailing bits zero-padded).
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let tail = self.acc.checked_shl(64 - self.pending).unwrap_or(0);
        let tail_len = self.pending.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&tail.to_be_bytes()[..tail_len]);
        self.bytes
    }
}

/// An MSB-first bit source with a 64-bit refill cache. Reading past the
/// end yields zero bits; block decoding is count-driven, so a valid
/// stream never over-reads.
#[derive(Debug, Clone)]
pub(crate) struct BitReader<'a> {
    bytes: &'a [u8],
    byte_pos: usize,
    cache: u64,
    cached: u32,
}

impl<'a> BitReader<'a> {
    /// A reader over `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            byte_pos: 0,
            cache: 0,
            cached: 0,
        }
    }

    /// A reader positioned `bit` bits into `bytes`.
    fn at(bytes: &'a [u8], bit: usize) -> Self {
        let mut r = BitReader {
            bytes,
            byte_pos: bit >> 3,
            cache: 0,
            cached: 0,
        };
        r.read_small((bit & 7) as u32);
        r
    }

    /// Tops the cache up past 56 bits. The fast path shifts in whole
    /// bytes of one aligned 8-byte load; the tail path goes byte by
    /// byte and zero-fills past the end of the stream.
    #[inline]
    fn refill(&mut self) {
        if self.byte_pos + 8 <= self.bytes.len() {
            let word = u64::from_be_bytes(
                self.bytes[self.byte_pos..self.byte_pos + 8]
                    .try_into()
                    .expect("8-byte slice"),
            );
            let bytes_in = (63 - self.cached) >> 3;
            self.cache = (self.cache << (8 * bytes_in)) | (word >> (64 - 8 * bytes_in));
            self.byte_pos += bytes_in as usize;
            self.cached += 8 * bytes_in;
            return;
        }
        while self.cached <= 56 {
            let b = self.bytes.get(self.byte_pos).copied().unwrap_or(0);
            self.byte_pos += 1;
            self.cache = (self.cache << 8) | u64::from(b);
            self.cached += 8;
        }
    }

    /// Shows the next `n <= 32` bits without consuming them (zero-fill
    /// past the end of the stream).
    #[inline]
    fn peek(&mut self, n: u32) -> u64 {
        if self.cached < n {
            self.refill();
        }
        (self.cache >> (self.cached - n)) & ((1u64 << n) - 1)
    }

    /// Drops `n` already-peeked bits.
    #[inline]
    fn consume(&mut self, n: u32) {
        debug_assert!(self.cached >= n, "consume past the peeked window");
        self.cached -= n;
    }

    /// Reads `n <= 32` bits.
    #[inline]
    fn read_small(&mut self, n: u32) -> u64 {
        if n == 0 {
            return 0;
        }
        if self.cached < n {
            self.refill();
        }
        self.cached -= n;
        (self.cache >> self.cached) & ((1u64 << n) - 1)
    }

    /// Reads `n <= 64` bits, most significant first.
    #[inline]
    pub(crate) fn read_bits(&mut self, n: u32) -> u64 {
        if n <= 32 {
            self.read_small(n)
        } else {
            let hi = self.read_small(32);
            let lo = self.read_small(n - 32);
            (hi << (n - 32)) | lo
        }
    }

    /// Reads one bit.
    #[inline]
    pub(crate) fn read_bit(&mut self) -> bool {
        self.read_small(1) == 1
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Writes a zigzagged integer with a Gorilla-style prefix class:
/// `0` (zero), `10`+7, `110`+9, `1110`+12, `11110`+32, `11111`+64 bits.
#[inline]
fn write_varbit(w: &mut BitWriter, v: i64) {
    let z = zigzag(v);
    if z == 0 {
        w.push_bits(0b0, 1);
    } else if z < (1 << 7) {
        w.push_bits(0b10, 2);
        w.push_bits(z, 7);
    } else if z < (1 << 9) {
        w.push_bits(0b110, 3);
        w.push_bits(z, 9);
    } else if z < (1 << 12) {
        w.push_bits(0b1110, 4);
        w.push_bits(z, 12);
    } else if z < (1 << 32) {
        w.push_bits(0b11110, 5);
        w.push_bits(z, 32);
    } else {
        w.push_bits(0b11111, 5);
        w.push_bits(z, 64);
    }
}

/// Decodes one varbit integer. A single 16-bit peek covers the prefix
/// *and* the payload of the four short classes (the overwhelmingly
/// common ones), so the hot path costs one refill check and one
/// consume instead of bit-by-bit prefix reads.
#[inline]
fn read_varbit(r: &mut BitReader<'_>) -> i64 {
    let p = r.peek(16);
    let z = if p & 0x8000 == 0 {
        r.consume(1);
        return 0;
    } else if p & 0x4000 == 0 {
        r.consume(9);
        (p >> 7) & 0x7f
    } else if p & 0x2000 == 0 {
        r.consume(12);
        (p >> 4) & 0x1ff
    } else if p & 0x1000 == 0 {
        r.consume(16);
        p & 0xfff
    } else if p & 0x0800 == 0 {
        r.consume(5);
        r.read_small(32)
    } else {
        r.consume(5);
        r.read_bits(64)
    };
    unzigzag(z)
}

/// Per-block value encoding, chosen at seal time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueMode {
    /// Values are `m / 10^k`; integer deltas of `m` are stored.
    DecimalInt { scale: u8 },
    /// Gorilla XOR over the raw `f64` bits.
    XorFloat,
}

impl ValueMode {
    /// Reads the block header.
    fn read(r: &mut BitReader<'_>) -> ValueMode {
        if r.read_bit() {
            ValueMode::XorFloat
        } else {
            ValueMode::DecimalInt {
                scale: r.read_bits(3) as u8,
            }
        }
    }
}

/// The decoder state before one point of a block: enough to resume
/// decoding there without reading the bits that precede it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Restart {
    /// Timestamp of the point before it.
    prev_t: i64,
    prev_delta: i64,
    /// `prev_m` (decimal-int blocks) or `prev_bits` (XOR blocks).
    prev_v: u64,
    /// Bit offset of the point's encoding.
    bit: u32,
    /// The XOR `(leading, meaningful)` window; `(0, 64)` before the
    /// first one, like a fresh decoder.
    window: (u8, u8),
}

/// Probes whether every value is exactly `m / 10^k` for one `k <= 4`
/// with `|m|` comfortably inside the exact-integer range of `f64`.
fn detect_decimal_scale(points: &[(i64, f64)]) -> Option<u8> {
    'scales: for (k, &scale) in SCALES.iter().enumerate() {
        for &(_, v) in points {
            if !v.is_finite() {
                return None; // NaN/inf can never take the integer path
            }
            let m = (v * scale).round();
            if m.abs() > 4.5e15 {
                continue 'scales;
            }
            // Round-trip through the i64 the encoder will store; this
            // also rejects -0.0 (the cast collapses it to +0.0).
            if ((m as i64) as f64 / scale).to_bits() != v.to_bits() {
                continue 'scales;
            }
        }
        return Some(k as u8);
    }
    None
}

/// Appends the encoding of a strictly-increasing-timestamp point run to
/// `out`. The count is carried out of band (in the segment header or
/// the snapshot's block list).
pub(crate) fn encode_into(points: &[(i64, f64)], out: &mut Vec<u8>) {
    *out = encode(points, None, std::mem::take(out));
}

/// Encodes `points` as a block in a buffer of its own, plus the block's
/// restart table: one [`Restart`] before every [`RESTART_INTERVAL`]th
/// point. The table is not part of the bytes.
pub(crate) fn encode_indexed(points: &[(i64, f64)]) -> (Box<[u8]>, Box<[Restart]>) {
    let mut restarts = Vec::with_capacity(points.len().saturating_sub(1) / RESTART_INTERVAL);
    let bytes = encode(points, Some(&mut restarts), Vec::new());
    (bytes.into_boxed_slice(), restarts.into_boxed_slice())
}

/// Appends the block to `bytes`. A restart's bit offset counts from
/// the start of `bytes`, so only a block alone in its buffer keeps one.
fn encode(
    points: &[(i64, f64)],
    mut restarts: Option<&mut Vec<Restart>>,
    bytes: Vec<u8>,
) -> Vec<u8> {
    let mut w = BitWriter::new();
    w.bytes = bytes;
    if points.is_empty() {
        return w.finish();
    }
    // At most a 64-bit varbit timestamp and the widest XOR value each.
    w.bytes.reserve((points.len() * (69 + 77)).div_ceil(8));
    let mode = match detect_decimal_scale(points) {
        Some(scale) => ValueMode::DecimalInt { scale },
        None => ValueMode::XorFloat,
    };
    match mode {
        ValueMode::DecimalInt { scale } => {
            w.push_bits(0b0, 1);
            w.push_bits(u64::from(scale), 3);
        }
        ValueMode::XorFloat => w.push_bits(0b1, 1),
    }

    // Timestamp state: raw first, then delta, then delta-of-delta.
    let mut prev_t = points[0].0;
    let mut prev_delta: i64 = 0;
    w.push_bits(prev_t as u64, 64);

    // Value state.
    let mut prev_m: i64 = 0;
    let mut prev_bits: u64 = 0;
    let mut window: Option<(u32, u32)> = None; // (leading, meaningful)
    match mode {
        ValueMode::DecimalInt { scale } => {
            prev_m = (points[0].1 * SCALES[scale as usize]).round() as i64;
            write_varbit(&mut w, prev_m);
        }
        ValueMode::XorFloat => {
            prev_bits = points[0].1.to_bits();
            w.push_bits(prev_bits, 64);
        }
    }

    for (i, &(t, v)) in points.iter().enumerate().skip(1) {
        debug_assert!(t > prev_t, "segment timestamps must strictly increase");
        if i % RESTART_INTERVAL == 0 {
            // A block past 4 Gbit keeps the restarts before that mark.
            if let (Some(restarts), Ok(bit)) = (restarts.as_deref_mut(), u32::try_from(w.bits())) {
                let (leading, meaningful) = window.unwrap_or((0, 64));
                restarts.push(Restart {
                    prev_t,
                    prev_delta,
                    prev_v: match mode {
                        ValueMode::DecimalInt { .. } => prev_m as u64,
                        ValueMode::XorFloat => prev_bits,
                    },
                    bit,
                    window: (leading as u8, meaningful as u8),
                });
            }
        }
        let delta = t - prev_t;
        write_varbit(&mut w, delta - prev_delta);
        prev_delta = delta;
        prev_t = t;
        match mode {
            ValueMode::DecimalInt { scale } => {
                let m = (v * SCALES[scale as usize]).round() as i64;
                write_varbit(&mut w, m - prev_m);
                prev_m = m;
            }
            ValueMode::XorFloat => {
                let bits = v.to_bits();
                let xor = bits ^ prev_bits;
                prev_bits = bits;
                if xor == 0 {
                    w.push_bits(0b0, 1);
                    continue;
                }
                let leading = xor.leading_zeros().min(31);
                let trailing = xor.trailing_zeros();
                let meaningful = 64 - leading - trailing;
                if let Some((wl, wm)) = window {
                    let w_trailing = 64 - wl - wm;
                    if leading >= wl && trailing >= w_trailing {
                        // Fits the previous window: control '10'.
                        w.push_bits(0b10, 2);
                        w.push_bits(xor >> w_trailing, wm);
                        continue;
                    }
                }
                w.push_bits(0b11, 2);
                w.push_bits(u64::from(leading), 5);
                w.push_bits(u64::from(meaningful - 1), 6);
                w.push_bits(xor >> trailing, meaningful);
                window = Some((leading, meaningful));
            }
        }
    }
    w.finish()
}

/// A lazy decoder over an encoded block; yields exactly `count` points.
#[derive(Debug, Clone)]
pub(crate) struct BlockIter<'a> {
    r: BitReader<'a>,
    remaining: u32,
    started: bool,
    mode: ValueMode,
    prev_t: i64,
    prev_delta: i64,
    prev_m: i64,
    prev_bits: u64,
    window: (u32, u32),
}

impl<'a> BlockIter<'a> {
    /// A decoder over `bytes` holding `count` points.
    pub(crate) fn new(bytes: &'a [u8], count: u32) -> Self {
        BlockIter {
            r: BitReader::new(bytes),
            remaining: count,
            started: false,
            mode: ValueMode::XorFloat,
            prev_t: 0,
            prev_delta: 0,
            prev_m: 0,
            prev_bits: 0,
            window: (0, 64),
        }
    }

    /// A decoder over the same block that resumes at the last restart
    /// whose previous timestamp is older than `from`, so every point it
    /// skips is older than `from`. It still yields fewer than
    /// [`RESTART_INTERVAL`] older points before reaching `from`.
    pub(crate) fn seek(bytes: &'a [u8], count: u32, restarts: &[Restart], from: i64) -> Self {
        let k = restarts.partition_point(|r| r.prev_t < from);
        let Some(at) = k.checked_sub(1).map(|i| restarts[i]) else {
            return BlockIter::new(bytes, count);
        };
        BlockIter {
            r: BitReader::at(bytes, at.bit as usize),
            remaining: count - (k * RESTART_INTERVAL) as u32,
            started: true,
            mode: ValueMode::read(&mut BitReader::new(bytes)),
            prev_t: at.prev_t,
            prev_delta: at.prev_delta,
            prev_m: at.prev_v as i64,
            prev_bits: at.prev_v,
            window: (u32::from(at.window.0), u32::from(at.window.1)),
        }
    }
}

impl Iterator for BlockIter<'_> {
    type Item = (i64, f64);

    #[inline]
    fn next(&mut self) -> Option<(i64, f64)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        if !self.started {
            self.started = true;
            self.mode = ValueMode::read(&mut self.r);
            self.prev_t = self.r.read_bits(64) as i64;
            let v = match self.mode {
                ValueMode::DecimalInt { scale } => {
                    self.prev_m = read_varbit(&mut self.r);
                    self.prev_m as f64 / SCALES[scale as usize]
                }
                ValueMode::XorFloat => {
                    self.prev_bits = self.r.read_bits(64);
                    f64::from_bits(self.prev_bits)
                }
            };
            return Some((self.prev_t, v));
        }
        self.prev_delta += read_varbit(&mut self.r);
        self.prev_t += self.prev_delta;
        let v = match self.mode {
            ValueMode::DecimalInt { scale } => {
                self.prev_m += read_varbit(&mut self.r);
                self.prev_m as f64 / SCALES[scale as usize]
            }
            ValueMode::XorFloat => {
                if self.r.read_bit() {
                    if self.r.read_bit() {
                        let leading = self.r.read_bits(5) as u32;
                        let meaningful = self.r.read_bits(6) as u32 + 1;
                        self.window = (leading, meaningful);
                        let xor = self.r.read_bits(meaningful) << (64 - leading - meaningful);
                        self.prev_bits ^= xor;
                    } else {
                        let (leading, meaningful) = self.window;
                        let xor = self.r.read_bits(meaningful) << (64 - leading - meaningful);
                        self.prev_bits ^= xor;
                    }
                }
                f64::from_bits(self.prev_bits)
            }
        };
        Some((self.prev_t, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One block in a buffer of its own.
    fn encode_block(points: &[(i64, f64)]) -> Box<[u8]> {
        let mut out = Vec::new();
        encode_into(points, &mut out);
        out.into_boxed_slice()
    }

    fn round_trip(points: &[(i64, f64)]) {
        let bytes = encode_block(points);
        let got: Vec<(i64, u64)> = BlockIter::new(&bytes, points.len() as u32)
            .map(|(t, v)| (t, v.to_bits()))
            .collect();
        let want: Vec<(i64, u64)> = points.iter().map(|&(t, v)| (t, v.to_bits())).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn bit_io_round_trips() {
        let mut w = BitWriter::new();
        w.push_bits(0b101, 3);
        w.push_bits(u64::MAX, 64);
        w.push_bits(0, 1);
        w.push_bits(0x1234_5678_9abc_def0, 61);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), 0b101);
        assert_eq!(r.read_bits(64), u64::MAX);
        assert!(!r.read_bit());
        assert_eq!(r.read_bits(61), 0x1234_5678_9abc_def0 & ((1 << 61) - 1));
    }

    #[test]
    fn varbit_covers_all_magnitudes() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            255,
            -256,
            2047,
            -2048,
            1 << 30,
            -(1 << 30),
            i64::MAX,
            i64::MIN + 1,
            i64::MIN,
        ] {
            let mut w = BitWriter::new();
            write_varbit(&mut w, v);
            let bytes = w.finish();
            assert_eq!(read_varbit(&mut BitReader::new(&bytes)), v, "{v}");
        }
    }

    #[test]
    fn decimal_block_round_trips_and_compresses() {
        // Centi-degree temperatures at a regular cadence: the common case.
        let points: Vec<(i64, f64)> = (0..1000)
            .map(|i| (i * 60_000, (2000 + (i % 37) - 18) as f64 / 100.0))
            .collect();
        round_trip(&points);
        let bytes = encode_block(&points);
        let ratio = (points.len() * 16) as f64 / bytes.len() as f64;
        assert!(ratio > 8.0, "decimal ratio only {ratio:.1}x");
    }

    #[test]
    fn xor_block_round_trips_noise() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let points: Vec<(i64, f64)> = (0..500)
            .map(|i| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (i * 977 - 100_000, f64::from_bits(x >> 12) * 1e3)
            })
            .collect();
        round_trip(&points);
    }

    #[test]
    fn nan_negative_zero_and_single_point_round_trip() {
        round_trip(&[(42, f64::NAN)]);
        round_trip(&[(0, -0.0), (1, 0.0), (2, f64::INFINITY)]);
        round_trip(&[(i64::MIN / 2, 1.5)]);
        round_trip(&[(-10, f64::from_bits(0x7ff8_dead_beef_0001)), (-9, 2.0)]);
        round_trip(&[]);
    }

    #[test]
    fn a_reader_starts_at_any_bit() {
        let mut w = BitWriter::new();
        for i in 0..40u64 {
            w.push_bits(i, 7);
        }
        let bytes = w.finish();
        for i in 0..40u64 {
            let mut r = BitReader::at(&bytes, 7 * i as usize);
            assert_eq!(r.read_bits(7), i);
        }
    }

    /// Both encodings over 1 000 points at irregular steps: XOR noise
    /// with repeats, and centi-units.
    fn indexed_blocks() -> [Vec<(i64, f64)>; 2] {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let (mut t, mut prev) = (-5_000i64, 0.0);
        let (mut noise, mut decimal) = (Vec::new(), Vec::new());
        for i in 0..1_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t += 1 + (x % 97) as i64;
            if i % 5 != 0 {
                prev = f64::from_bits(x >> 12) * 1e3;
            }
            noise.push((t, prev));
            decimal.push((t, (x % 4_001) as f64 / 100.0 - 20.0));
        }
        [noise, decimal]
    }

    #[test]
    fn a_restart_costs_32_bytes() {
        assert_eq!(std::mem::size_of::<Restart>(), 32);
    }

    #[test]
    fn restarts_leave_the_block_bytes_alone() {
        for points in indexed_blocks() {
            let (bytes, restarts) = encode_indexed(&points);
            assert_eq!(bytes, encode_block(&points));
            assert_eq!(restarts.len(), (points.len() - 1) / RESTART_INTERVAL);
            let (_, none) = encode_indexed(&points[..RESTART_INTERVAL]);
            assert!(none.is_empty(), "a block of one interval has no restart");
        }
    }

    #[test]
    fn seek_skips_only_points_older_than_from() {
        for points in indexed_blocks() {
            let (bytes, restarts) = encode_indexed(&points);
            let n = points.len() as u32;
            for from in points.iter().flat_map(|&(t, _)| [t - 1, t, t + 1]) {
                let mut seek = BlockIter::seek(&bytes, n, &restarts, from);
                let early = seek.by_ref().take_while(|&(t, _)| t < from).count();
                assert!(early < RESTART_INTERVAL, "{early} points before {from}");
                let got: Vec<(i64, u64)> = BlockIter::seek(&bytes, n, &restarts, from)
                    .skip_while(|&(t, _)| t < from)
                    .map(|(t, v)| (t, v.to_bits()))
                    .collect();
                let want: Vec<(i64, u64)> = points
                    .iter()
                    .filter(|&&(t, _)| t >= from)
                    .map(|&(t, v)| (t, v.to_bits()))
                    .collect();
                assert_eq!(got, want, "seek({from})");
            }
        }
    }

    /// The reference encoder: a bit-at-a-time writer into a growing
    /// `Vec` and the block layout over it, kept apart from the
    /// production path so both its bytes and its restart tables can be
    /// compared against [`encode_indexed`].
    mod reference {
        use super::super::{detect_decimal_scale, zigzag, Restart, RESTART_INTERVAL, SCALES};

        #[derive(Default)]
        struct BitByBit {
            bytes: Vec<u8>,
            bit_len: usize,
        }

        impl BitByBit {
            fn push_bits(&mut self, v: u64, n: u32) {
                for i in (0..n).rev() {
                    let byte_idx = self.bit_len >> 3;
                    if byte_idx == self.bytes.len() {
                        self.bytes.push(0);
                    }
                    if (v >> i) & 1 == 1 {
                        self.bytes[byte_idx] |= 1 << (7 - (self.bit_len & 7));
                    }
                    self.bit_len += 1;
                }
            }
        }

        fn write_varbit(w: &mut BitByBit, v: i64) {
            let z = zigzag(v);
            let (prefix, prefix_len, payload) = match z {
                0 => (0b0, 1, 0),
                _ if z < 1 << 7 => (0b10, 2, 7),
                _ if z < 1 << 9 => (0b110, 3, 9),
                _ if z < 1 << 12 => (0b1110, 4, 12),
                _ if z < 1 << 32 => (0b11110, 5, 32),
                _ => (0b11111, 5, 64),
            };
            w.push_bits(prefix, prefix_len);
            w.push_bits(z, payload);
        }

        pub(super) fn encode(points: &[(i64, f64)]) -> (Vec<u8>, Vec<Restart>) {
            let mut w = BitByBit::default();
            let mut restarts = Vec::new();
            let Some(&(t0, v0)) = points.first() else {
                return (w.bytes, restarts);
            };
            let scale = detect_decimal_scale(points);
            match scale {
                Some(k) => {
                    w.push_bits(0b0, 1);
                    w.push_bits(u64::from(k), 3);
                }
                None => w.push_bits(0b1, 1),
            }
            let (mut prev_t, mut prev_delta) = (t0, 0i64);
            w.push_bits(t0 as u64, 64);
            let (mut prev_m, mut prev_bits) = (0i64, 0u64);
            let mut window: Option<(u32, u32)> = None;
            match scale {
                Some(k) => {
                    prev_m = (v0 * SCALES[k as usize]).round() as i64;
                    write_varbit(&mut w, prev_m);
                }
                None => {
                    prev_bits = v0.to_bits();
                    w.push_bits(prev_bits, 64);
                }
            }
            for (i, &(t, v)) in points.iter().enumerate().skip(1) {
                if i % RESTART_INTERVAL == 0 {
                    let (leading, meaningful) = window.unwrap_or((0, 64));
                    restarts.push(Restart {
                        prev_t,
                        prev_delta,
                        prev_v: if scale.is_some() {
                            prev_m as u64
                        } else {
                            prev_bits
                        },
                        bit: w.bit_len as u32,
                        window: (leading as u8, meaningful as u8),
                    });
                }
                let delta = t - prev_t;
                write_varbit(&mut w, delta - prev_delta);
                (prev_delta, prev_t) = (delta, t);
                if let Some(k) = scale {
                    let m = (v * SCALES[k as usize]).round() as i64;
                    write_varbit(&mut w, m - prev_m);
                    prev_m = m;
                    continue;
                }
                let bits = v.to_bits();
                let xor = bits ^ prev_bits;
                prev_bits = bits;
                if xor == 0 {
                    w.push_bits(0b0, 1);
                    continue;
                }
                let leading = xor.leading_zeros().min(31);
                let trailing = xor.trailing_zeros();
                let meaningful = 64 - leading - trailing;
                if let Some((wl, wm)) = window {
                    let w_trailing = 64 - wl - wm;
                    if leading >= wl && trailing >= w_trailing {
                        w.push_bits(0b10, 2);
                        w.push_bits(xor >> w_trailing, wm);
                        continue;
                    }
                }
                w.push_bits(0b11, 2);
                w.push_bits(u64::from(leading), 5);
                w.push_bits(u64::from(meaningful - 1), 6);
                w.push_bits(xor >> trailing, meaningful);
                window = Some((leading, meaningful));
            }
            (w.bytes, restarts)
        }
    }

    /// A seeded block of `len` points in one of eight shapes: steady and
    /// jittery cadences with timestamp jumps that take the 32- and
    /// 64-bit varbit classes, decimal values with deltas in every
    /// class, and XOR values that repeat, reuse the window and reset it,
    /// with NaN payloads, signed zeros and infinities.
    fn seeded_block(seed: u64, shape: u64, len: usize) -> Vec<(i64, f64)> {
        let mut x = (seed * 8 + shape).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let scale = SCALES[(seed % 5) as usize];
        let mut t = next() as i32 as i64 * 1_000;
        let mut prev = 0.0f64;
        (0..len)
            .map(|i| {
                let r = next();
                t += match (shape % 4, r % 16) {
                    (0, _) => 60_000,
                    (1, 0) => 1 + (r >> 24) as i64,
                    (2, 0) => 1 + (r >> 44) as i64,
                    (3, 0) => 1 + (r >> 10) as i64,
                    _ => 1 + (r >> 32) as i64 % 97,
                };
                let v = if shape < 4 {
                    let small = (r >> 20) as i64;
                    let m = match r >> 60 {
                        0 => (1 << 42) + small % 1_000,
                        1 => small % 100_000 - 50_000,
                        2..=4 => small % 2_000 - 1_000,
                        _ => 2_000 + (i as i64 % 37) - 18,
                    };
                    m as f64 / scale
                } else {
                    match r >> 59 {
                        0 => prev = f64::from_bits(0x7ff8_0000_0000_0000 | (r & 0xf_ffff)),
                        1 => prev = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY][(r & 3) as usize],
                        2..=9 => {}
                        10..=19 => prev = f64::from_bits(prev.to_bits() ^ ((r & 0xff) << 20)),
                        _ => prev = f64::from_bits(r >> 12) * 1e3,
                    }
                    prev
                };
                (t, v)
            })
            .collect()
    }

    #[test]
    fn the_block_writer_matches_the_bit_at_a_time_reference() {
        let mut modes = [0usize; 2];
        for seed in 0..16 {
            for shape in 0..8 {
                for len in [1, 2, 3, 127, 128, 129, 256, 257, 1_000, 2_000] {
                    let points = seeded_block(seed, shape, len);
                    let (bytes, restarts) = encode_indexed(&points);
                    let (want_bytes, want_restarts) = reference::encode(&points);
                    let case = format!("seed {seed}, shape {shape}, {len} points");
                    assert_eq!(&*bytes, &want_bytes[..], "{case}");
                    assert_eq!(&*restarts, &want_restarts[..], "{case}");
                    assert_eq!(&*encode_block(&points), &want_bytes[..], "{case}");
                    modes[usize::from(detect_decimal_scale(&points).is_none())] += 1;
                }
            }
        }
        assert!(modes.iter().all(|&n| n >= 400), "value modes {modes:?}");
    }

    #[test]
    fn negative_zero_takes_the_xor_path() {
        assert_eq!(detect_decimal_scale(&[(0, -0.0)]), None);
        assert_eq!(detect_decimal_scale(&[(0, std::f64::consts::PI)]), None);
        // 1.25 is exactly 125/100, so it may take the decimal path.
        assert_eq!(detect_decimal_scale(&[(0, 1.25)]), Some(2));
        assert_eq!(detect_decimal_scale(&[(0, 20.01)]), Some(2));
        assert_eq!(detect_decimal_scale(&[(0, 7.0)]), Some(0));
    }
}
