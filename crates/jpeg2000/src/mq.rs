//! The MQ binary arithmetic coder of JPEG 2000 (ITU-T T.800 Annex C).
//!
//! A context-adaptive binary arithmetic coder with a 47-entry probability
//! state machine and 0xFF byte stuffing. It is the paper's "arithmetic
//! decoder" — the stage that dominates the JPEG 2000 decode time
//! (88.8 % lossless / 78.6 % lossy in Figure 1).
//!
//! # The decoder's shape
//!
//! An MPS that needs no renormalisation is *not* the overwhelmingly
//! common case on coded data. Over 28 streams built like the serving
//! benchmark's cold corpus (128² and 256² RGB, both modes), 55 % of the
//! 16.9 M Tier-1 decisions renormalise and the codeword carries 0.74
//! bits per decision, so the outcome of every decision is close to a
//! coin toss for a branch predictor. [`MqDecoder::decode`] therefore
//! selects between both outcomes instead of branching on them, and
//! renormalises in one shift (see its documentation). The
//! one-bit-at-a-time T.800 flowchart decoder it replaced is frozen in
//! `t1::reference` (under `cfg(test)` or the `reference-t1` feature) and
//! property-tested against it decision for decision.

/// One row of the probability state table:
/// `(Qe, next-state on MPS, next-state on LPS, switch MPS flag)`.
type StateRow = (u16, u8, u8, bool);

/// The 47-entry MQ probability state table (T.800 Table C.2).
pub const STATE_TABLE: [StateRow; 47] = [
    (0x5601, 1, 1, true),
    (0x3401, 2, 6, false),
    (0x1801, 3, 9, false),
    (0x0AC1, 4, 12, false),
    (0x0521, 5, 29, false),
    (0x0221, 38, 33, false),
    (0x5601, 7, 6, true),
    (0x5401, 8, 14, false),
    (0x4801, 9, 14, false),
    (0x3801, 10, 14, false),
    (0x3001, 11, 17, false),
    (0x2401, 12, 18, false),
    (0x1C01, 13, 20, false),
    (0x1601, 29, 21, false),
    (0x5601, 15, 14, true),
    (0x5401, 16, 14, false),
    (0x5101, 17, 15, false),
    (0x4801, 18, 16, false),
    (0x3801, 19, 17, false),
    (0x3401, 20, 18, false),
    (0x3001, 21, 19, false),
    (0x2801, 22, 19, false),
    (0x2401, 23, 20, false),
    (0x2201, 24, 21, false),
    (0x1C01, 25, 22, false),
    (0x1801, 26, 23, false),
    (0x1601, 27, 24, false),
    (0x1401, 28, 25, false),
    (0x1201, 29, 26, false),
    (0x1101, 30, 27, false),
    (0x0AC1, 31, 28, false),
    (0x09C1, 32, 29, false),
    (0x08A1, 33, 30, false),
    (0x0521, 34, 31, false),
    (0x0441, 35, 32, false),
    (0x02A1, 36, 33, false),
    (0x0221, 37, 34, false),
    (0x0141, 38, 35, false),
    (0x0111, 39, 36, false),
    (0x0085, 40, 37, false),
    (0x0049, 41, 38, false),
    (0x0025, 42, 39, false),
    (0x0015, 43, 40, false),
    (0x0009, 44, 41, false),
    (0x0005, 45, 42, false),
    (0x0001, 45, 43, false),
    (0x5601, 46, 46, false),
];

/// One adaptive context: probability state index plus current MPS sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MqContext {
    /// Index into [`STATE_TABLE`].
    pub state: u8,
    /// Current most-probable-symbol value.
    pub mps: bool,
}

impl MqContext {
    /// A context starting at table entry `state` with MPS = 0.
    pub const fn with_state(state: u8) -> Self {
        MqContext { state, mps: false }
    }
}

impl Default for MqContext {
    fn default() -> Self {
        MqContext::with_state(0)
    }
}

/// The MQ encoder: feeds decisions per context, produces the byte stream.
///
/// # Example
///
/// ```
/// use jpeg2000::mq::{MqEncoder, MqDecoder, MqContext};
///
/// let mut contexts = vec![MqContext::default(); 2];
/// let mut enc = MqEncoder::new();
/// let bits = [true, false, true, true, false];
/// for (i, &b) in bits.iter().enumerate() {
///     enc.encode(&mut contexts[i % 2], b);
/// }
/// let bytes = enc.finish();
///
/// let mut contexts = vec![MqContext::default(); 2];
/// let mut dec = MqDecoder::new(&bytes);
/// for (i, &b) in bits.iter().enumerate() {
///     assert_eq!(dec.decode(&mut contexts[i % 2]), b);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct MqEncoder {
    c: u32,
    a: u32,
    ct: i32,
    /// `bytes[0]` is the scratch byte playing the role of `B` at `BP = -1`
    /// in the flowcharts; output starts at index 1.
    bytes: Vec<u8>,
}

impl Default for MqEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl MqEncoder {
    /// INITENC.
    pub fn new() -> Self {
        MqEncoder {
            c: 0,
            a: 0x8000,
            ct: 12,
            bytes: vec![0],
        }
    }

    /// Encodes decision `d` in context `cx` (ENCODE).
    pub fn encode(&mut self, cx: &mut MqContext, d: bool) {
        if d == cx.mps {
            self.code_mps(cx);
        } else {
            self.code_lps(cx);
        }
    }

    fn code_mps(&mut self, cx: &mut MqContext) {
        let (qe, nmps, _, _) = STATE_TABLE[cx.state as usize];
        let qe = qe as u32;
        self.a -= qe;
        if self.a & 0x8000 == 0 {
            if self.a < qe {
                self.a = qe;
            } else {
                self.c += qe;
            }
            cx.state = nmps;
            self.renorm();
        } else {
            self.c += qe;
        }
    }

    fn code_lps(&mut self, cx: &mut MqContext) {
        let (qe, _, nlps, switch) = STATE_TABLE[cx.state as usize];
        let qe = qe as u32;
        self.a -= qe;
        if self.a < qe {
            self.c += qe;
        } else {
            self.a = qe;
        }
        if switch {
            cx.mps = !cx.mps;
        }
        cx.state = nlps;
        self.renorm();
    }

    fn renorm(&mut self) {
        loop {
            self.a <<= 1;
            self.c <<= 1;
            self.ct -= 1;
            if self.ct == 0 {
                self.byte_out();
            }
            if self.a & 0x8000 != 0 {
                break;
            }
        }
    }

    fn byte_out(&mut self) {
        let last = *self.bytes.last().expect("scratch byte present");
        if last == 0xFF {
            // Stuffing: only 7 bits after an 0xFF byte.
            self.bytes.push((self.c >> 20) as u8);
            self.c &= 0xF_FFFF;
            self.ct = 7;
        } else if self.c < 0x800_0000 {
            self.bytes.push((self.c >> 19) as u8);
            self.c &= 0x7_FFFF;
            self.ct = 8;
        } else {
            // Propagate the carry into the previous byte.
            *self.bytes.last_mut().expect("scratch byte present") += 1;
            if *self.bytes.last().expect("scratch byte present") == 0xFF {
                self.c &= 0x7FF_FFFF;
                self.bytes.push((self.c >> 20) as u8);
                self.c &= 0xF_FFFF;
                self.ct = 7;
            } else {
                self.bytes.push((self.c >> 19) as u8);
                self.c &= 0x7_FFFF;
                self.ct = 8;
            }
        }
    }

    /// FLUSH: terminates the codeword and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        // SETBITS.
        let temp = self.c + self.a;
        self.c |= 0xFFFF;
        if self.c >= temp {
            self.c -= 0x8000;
        }
        self.c <<= self.ct;
        self.byte_out();
        self.c <<= self.ct;
        self.byte_out();
        // Discard a trailing 0xFF (the decoder synthesises 1-bits at the
        // end of data anyway).
        if self.bytes.last() == Some(&0xFF) {
            self.bytes.pop();
        }
        self.bytes.remove(0); // drop the scratch byte
        self.bytes
    }
}

/// The MQ decoder over a byte slice.
///
/// Reading past the end of the data synthesises 1-bits, exactly like
/// encountering a marker (T.800 C.3.4), so truncated segments decode
/// without panicking.
///
/// The decoder state is a handful of integers and a slice, so a clone
/// is cheap: Tier-1 clones it into a local for a whole coding pass,
/// where `a`, `c` and `ct` live in registers, and writes it back once.
#[derive(Debug, Clone)]
pub struct MqDecoder<'a> {
    c: u32,
    a: u32,
    ct: u32,
    data: &'a [u8],
    bp: usize,
    renorms: u64,
}

impl<'a> MqDecoder<'a> {
    /// INITDEC over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        let b0 = data.first().copied().unwrap_or(0xFF);
        let mut dec = MqDecoder {
            c: (b0 as u32) << 16,
            a: 0,
            ct: 0,
            data,
            bp: 0,
            renorms: 0,
        };
        (dec.bp, dec.c, dec.ct) = Self::byte_in(data, 0, dec.c);
        dec.c <<= 7;
        dec.ct -= 7;
        dec.a = 0x8000;
        dec
    }

    /// Renormalisations performed so far: one per decision that left
    /// `a` below 0x8000, however many bits it shifted.
    pub fn renorms(&self) -> u64 {
        self.renorms
    }

    /// BYTEIN over `data` at byte pointer `bp`: returns the advanced
    /// pointer, `c` with the next byte added (7 bits after a 0xFF, or
    /// synthesised 1-bits at a marker or the end of the data) and the
    /// new bit count `ct`. A function of values, not of `&mut self`, so
    /// a decoder cloned into a local stays in registers across it.
    #[inline]
    fn byte_in(data: &[u8], bp: usize, c: u32) -> (usize, u32, u32) {
        let at = |i: usize| data.get(i).copied().unwrap_or(0xFF);
        if at(bp) == 0xFF {
            if at(bp + 1) > 0x8F {
                // Marker (or end of data): feed 1-bits.
                (bp, c + 0xFF00, 8)
            } else {
                (bp + 1, c + ((at(bp + 1) as u32) << 9), 7)
            }
        } else {
            (bp + 1, c + ((at(bp + 1) as u32) << 8), 8)
        }
    }

    /// Decodes one decision in context `cx` (DECODE).
    ///
    /// Both outcomes of the interval test (`c >> 16 < qe`) and of the
    /// conditional exchange (`a < qe`) are computed and selected, not
    /// branched on: on coded Tier-1 data more than half of all
    /// decisions renormalise and the stream carries about 0.74 bits per
    /// decision, so no branch on the outcome is predictable. The
    /// renormalisation then shifts by all `a.leading_zeros() - 16` bits
    /// at once; the only branch left is BYTEIN, taken whenever the bit
    /// counter `ct` runs out (about once per 8 shifted bits), so byte
    /// stuffing, marker detection and the synthesised 1-bits at the end
    /// of data behave exactly as in the one-bit-at-a-time RENORMD.
    #[inline]
    pub fn decode(&mut self, cx: &mut MqContext) -> bool {
        let (qe, nmps, nlps, switch) = STATE_TABLE[cx.state as usize];
        let qe = qe as u32;
        let a = self.a - qe;
        // MPS sub-interval (c ≥ Qe): `c` drops by Qe, `a` keeps A − Qe.
        // LPS sub-interval: `c` is unchanged and `a` becomes Qe.
        let upper = (self.c >> 16) >= qe;
        // The conditional exchange swaps the meaning of the two
        // sub-intervals when the MPS one is the smaller.
        let lps = upper == (a < qe);
        self.c = self.c.wrapping_sub((upper as u32 * qe) << 16);
        let a = if upper { a } else { qe };
        let d = cx.mps ^ lps;
        // `a` ≥ 1 here (every Qe ≥ 1), so the shift is 0..=15; it is 0
        // only for an MPS that left `a` ≥ 0x8000, the one decision that
        // keeps its context state.
        let shift = a.leading_zeros() - 16;
        let renorm = shift != 0;
        let next = if lps { nlps } else { nmps };
        cx.state = if renorm { next } else { cx.state };
        cx.mps ^= lps & switch;
        self.renorms += renorm as u64;
        self.a = a << shift;
        if shift > self.ct {
            self.renorm_bytes(shift);
        } else {
            self.c <<= shift;
            self.ct -= shift;
        }
        d
    }

    /// RENORMD for a `shift` that crosses one or more byte boundaries:
    /// shift out the bits left in the current byte, BYTEIN, repeat.
    #[inline(never)]
    fn renorm_bytes(&mut self, mut shift: u32) {
        let (mut bp, mut c, mut ct) = (self.bp, self.c, self.ct);
        while shift > ct {
            c <<= ct;
            shift -= ct;
            (bp, c, ct) = Self::byte_in(self.data, bp, c);
        }
        (self.bp, self.c, self.ct) = (bp, c << shift, ct - shift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::t1::NUM_CONTEXTS;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(bits: &[bool], n_ctx: usize, ctx_of: impl Fn(usize) -> usize) {
        let mut enc_ctx = vec![MqContext::default(); n_ctx];
        let mut enc = MqEncoder::new();
        for (i, &b) in bits.iter().enumerate() {
            enc.encode(&mut enc_ctx[ctx_of(i)], b);
        }
        let bytes = enc.finish();

        let mut dec_ctx = vec![MqContext::default(); n_ctx];
        let mut dec = MqDecoder::new(&bytes);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(dec.decode(&mut dec_ctx[ctx_of(i)]), b, "bit {i}");
        }
    }

    #[test]
    fn empty_stream() {
        let enc = MqEncoder::new();
        let bytes = enc.finish();
        // Flushing an empty codeword still terminates cleanly.
        let mut dec = MqDecoder::new(&bytes);
        let mut cx = MqContext::default();
        // Decoding from a flushed-empty stream yields *some* decisions
        // without panicking (they are garbage by construction).
        let _ = dec.decode(&mut cx);
    }

    #[test]
    fn all_zero_bits_compress_tightly() {
        let bits = vec![false; 4096];
        let mut cx = [MqContext::default()];
        let mut enc = MqEncoder::new();
        for &b in &bits {
            enc.encode(&mut cx[0], b);
        }
        let bytes = enc.finish();
        assert!(
            bytes.len() < 32,
            "4096 MPS symbols must compress to a few bytes, got {}",
            bytes.len()
        );
        roundtrip(&bits, 1, |_| 0);
    }

    #[test]
    fn alternating_bits_roundtrip() {
        let bits: Vec<bool> = (0..1000).map(|i| i % 2 == 0).collect();
        roundtrip(&bits, 1, |_| 0);
    }

    #[test]
    fn random_bits_single_context() {
        let mut rng = StdRng::seed_from_u64(42);
        let bits: Vec<bool> = (0..5000).map(|_| rng.gen_bool(0.5)).collect();
        roundtrip(&bits, 1, |_| 0);
    }

    #[test]
    fn random_bits_many_contexts() {
        let mut rng = StdRng::seed_from_u64(7);
        let bits: Vec<bool> = (0..5000).map(|_| rng.gen_bool(0.3)).collect();
        roundtrip(&bits, 19, |i| i % 19);
    }

    #[test]
    fn skewed_distributions_roundtrip() {
        for (seed, p) in [(1u64, 0.01), (2, 0.1), (3, 0.9), (4, 0.99)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let bits: Vec<bool> = (0..3000).map(|_| rng.gen_bool(p)).collect();
            roundtrip(&bits, 4, |i| i % 4);
        }
    }

    #[test]
    fn compression_beats_raw_on_skewed_input() {
        let mut rng = StdRng::seed_from_u64(9);
        let bits: Vec<bool> = (0..8000).map(|_| rng.gen_bool(0.05)).collect();
        let mut cx = MqContext::default();
        let mut enc = MqEncoder::new();
        for &b in &bits {
            enc.encode(&mut cx, b);
        }
        let bytes = enc.finish();
        // ~0.29 bits/symbol entropy => well under 1000 bytes raw.
        assert!(bytes.len() < 500, "got {} bytes", bytes.len());
    }

    #[test]
    fn stuffing_after_ff_is_decodable() {
        // Force varied byte patterns, then ensure no 0xFF is followed by a
        // byte > 0x8F (the stuffing invariant the packet layer relies on).
        let mut rng = StdRng::seed_from_u64(11);
        let bits: Vec<bool> = (0..20_000).map(|_| rng.gen_bool(0.5)).collect();
        let mut cx = MqContext::default();
        let mut enc = MqEncoder::new();
        for &b in &bits {
            enc.encode(&mut cx, b);
        }
        let bytes = enc.finish();
        for w in bytes.windows(2) {
            if w[0] == 0xFF {
                assert!(w[1] <= 0x8F, "stuffing violated: FF {:02X}", w[1]);
            }
        }
        roundtrip(&bits, 1, |_| 0);
    }

    #[test]
    fn truncated_stream_does_not_panic() {
        let mut rng = StdRng::seed_from_u64(13);
        let bits: Vec<bool> = (0..1000).map(|_| rng.gen_bool(0.5)).collect();
        let mut cx = MqContext::default();
        let mut enc = MqEncoder::new();
        for &b in &bits {
            enc.encode(&mut cx, b);
        }
        let bytes = enc.finish();
        let cut = &bytes[..bytes.len() / 2];
        let mut dec = MqDecoder::new(cut);
        let mut cx = MqContext::default();
        for _ in 0..1000 {
            let _ = dec.decode(&mut cx); // must not panic past the end
        }
    }

    /// Byte strings of one of six shapes: random bytes, runs of 0xFF,
    /// 0xFF followed by bytes above 0x8F (markers), empty input, a
    /// truncated MQ codeword and a whole one.
    fn byte_string(rng: &mut StdRng, shape: usize) -> Vec<u8> {
        let len = rng.gen_range(1..256);
        match shape {
            0 => (0..len).map(|_| rng.gen()).collect(),
            1 => (0..len)
                .map(|_| if rng.gen_bool(0.7) { 0xFF } else { rng.gen() })
                .collect(),
            2 => (0..len)
                .flat_map(|_| match rng.gen_bool(0.2) {
                    true => vec![0xFF, rng.gen_range(0x90..=0xFF)],
                    false => vec![rng.gen()],
                })
                .collect(),
            3 => Vec::new(),
            _ => {
                let mut cx = [MqContext::default(); NUM_CONTEXTS];
                let mut enc = MqEncoder::new();
                for _ in 0..rng.gen_range(1..4000) {
                    let c = rng.gen_range(0..NUM_CONTEXTS);
                    enc.encode(&mut cx[c], rng.gen_bool(0.3));
                }
                let mut bytes = enc.finish();
                if shape == 4 {
                    bytes.truncate(rng.gen_range(0..=bytes.len()));
                }
                bytes
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The branch-free decoder makes the same decisions as the
        /// frozen one-bit-at-a-time flowchart decoder, counts the same
        /// renormalisations and ends in the same state, over arbitrary
        /// byte strings and random context sequences with random
        /// starting states.
        #[test]
        fn decoder_matches_the_flowchart_oracle(
            shape in 0usize..6,
            decisions in 0usize..3000,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let bytes = byte_string(&mut rng, shape);
            let start: Vec<MqContext> = (0..NUM_CONTEXTS)
                .map(|_| MqContext {
                    state: rng.gen_range(0..47u8),
                    mps: rng.gen(),
                })
                .collect();
            let (mut fast_cx, mut oracle_cx) = (start.clone(), start);
            let mut fast = MqDecoder::new(&bytes);
            let mut oracle = crate::t1::reference::MqDecoder::new(&bytes);
            for i in 0..decisions {
                let c = rng.gen_range(0..NUM_CONTEXTS);
                let d = fast.decode(&mut fast_cx[c]);
                proptest::prop_assert_eq!(d, oracle.decode(&mut oracle_cx[c]), "decision {}", i);
                proptest::prop_assert_eq!(fast_cx[c], oracle_cx[c], "context after {}", i);
            }
            proptest::prop_assert_eq!(fast.renorms(), oracle.renorms());
            proptest::prop_assert_eq!(
                (fast.a, fast.c, i64::from(fast.ct), fast.bp),
                (oracle.a, oracle.c, i64::from(oracle.ct), oracle.bp)
            );
        }
    }

    #[test]
    fn state_table_invariants() {
        for (i, &(qe, nmps, nlps, _)) in STATE_TABLE.iter().enumerate() {
            assert!(qe <= 0x5601, "state {i}");
            assert!((nmps as usize) < 47, "state {i}");
            assert!((nlps as usize) < 47, "state {i}");
        }
        // Only the four documented states switch the MPS sense.
        let switches: Vec<usize> = STATE_TABLE
            .iter()
            .enumerate()
            .filter(|(_, r)| r.3)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(switches, vec![0, 6, 14]);
    }
}
