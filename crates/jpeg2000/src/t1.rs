//! EBCOT Tier-1: context-adaptive bit-plane coding of code-blocks
//! (ITU-T T.800 Annex D).
//!
//! Each code-block's quantised magnitudes are coded bit-plane by bit-plane
//! in three passes — significance propagation, magnitude refinement and
//! cleanup — through the [`crate::mq`] arithmetic coder with 19 adaptive
//! contexts. Together with the MQ coder this is the stage the paper calls
//! the *arithmetic decoder*, the one that consumes ~88 % of the decode
//! time and gets parallelised four ways in model versions 4/5. In this
//! implementation too it is most of the cold decode: Tier-1 block
//! decoding is about 93 % of `entropy_decode_tile_with` on the serving
//! benchmark's streams.
//!
//! # The flags lattice
//!
//! The coder keeps one `u32` *flags word* per sample in a lattice padded
//! by one cell on every side. The word caches the sample's own state
//! (significant / visited / refined) **and** the significance of all 8
//! neighbours plus the signs of the 4 horizontal/vertical ones. When a
//! coefficient first becomes significant, `set_significant` pushes that
//! fact into the 8 surrounding words once; every later context lookup is
//! then a single table index into a precomputed LUT instead of 8
//! bounds-checked neighbour loads. The LUTs are built at compile time
//! from the T.800 context tables (`zc_table_hv` / `zc_table_diag` and
//! the sign-coding contribution rules), which remain the oracle: the
//! original per-sample implementation is retained in `t1::reference` (under
//! `cfg(test)` or the `reference-t1` feature) and property-tested to be
//! bit-exact against this fast path.
//!
//! # The decode passes
//!
//! More than half of all MQ decisions renormalise (see [`crate::mq`]), so
//! the decode passes avoid unpredictable branches around them too:
//!
//! * Each pass clones the [`MqDecoder`] into a local at its start and
//!   writes it back once at its end, so the decoder's registers stay
//!   registers for the whole pass (openjpeg's `DOWNLOAD_MQC_VARIABLES`).
//! * Each stripe column's candidates form a 4-bit mask, visited with
//!   `trailing_zeros` instead of one branch per sample. The refinement
//!   and cleanup masks cannot change while their column is coded; the
//!   significance mask is recomputed for the rows below a sample that
//!   turns significant. A column without candidates costs four loads.
//! * The refinement bit is OR-ed into the magnitude without a branch,
//!   and the cleanup pass, as the last pass over each column of a plane,
//!   resets that column's VISITED flags itself.

use crate::mq::{MqContext, MqDecoder, MqEncoder};
use crate::tile::BandKind;

/// The retained pre-optimisation implementation, kept as the bit-exactness
/// oracle for property tests and the `t1_throughput` bench.
#[cfg(any(test, feature = "reference-t1"))]
#[path = "t1_reference.rs"]
pub mod reference;

/// The most magnitude bit-planes a code-block can carry: plane `p`
/// sets bit `p` of a `u32` magnitude. The decoders treat a larger
/// bit-plane count like 0 (an all-zero block) instead of shifting out of
/// range; the codec itself never signals more than 18.
pub const MAX_BITPLANES: u8 = 31;

/// Number of adaptive contexts used by Tier-1.
pub const NUM_CONTEXTS: usize = 19;

// Context index blocks.
const CTX_ZC: usize = 0; // 0..=8  zero coding / significance
const CTX_SC: usize = 9; // 9..=13 sign coding
const CTX_MR: usize = 14; // 14..=16 magnitude refinement
const CTX_RL: usize = 17; // run-length
const CTX_UNI: usize = 18; // uniform

// ---------------------------------------------------------------------------
// Flags lattice
// ---------------------------------------------------------------------------

// Neighbour-significance bits (bit k set = that neighbour is significant).
const F_SIG_W: u32 = 1 << 0;
const F_SIG_E: u32 = 1 << 1;
const F_SIG_N: u32 = 1 << 2;
const F_SIG_S: u32 = 1 << 3;
const F_SIG_NW: u32 = 1 << 4;
const F_SIG_NE: u32 = 1 << 5;
const F_SIG_SW: u32 = 1 << 6;
const F_SIG_SE: u32 = 1 << 7;
/// All 8 neighbour-significance bits; zero ⇔ the T.800 zero-coding
/// context 0 (empty neighbourhood) for every band orientation.
const F_NEIGH_SIG: u32 = 0xFF;

// Neighbour-sign bits (only meaningful when the matching F_SIG_* is set).
const F_NEG_W: u32 = 1 << 8;
const F_NEG_E: u32 = 1 << 9;
const F_NEG_N: u32 = 1 << 10;
const F_NEG_S: u32 = 1 << 11;

// Own-state bits.
const F_SELF_SIG: u32 = 1 << 12;
const F_VISITED: u32 = 1 << 13;
const F_REFINED: u32 = 1 << 14;

/// Marks the sample at padded index `i` significant with sign `neg`,
/// pushing its significance into all 8 neighbours' flags words and its
/// sign into the 4 horizontal/vertical ones. The lattice is padded by one
/// cell on every side, so border samples write into padding harmlessly.
#[inline]
fn set_significant(flags: &mut [u32], stride: usize, i: usize, neg: bool) {
    let neg = neg as u32;
    flags[i] |= F_SELF_SIG;
    // The west neighbour sees us as its east neighbour, and so on.
    flags[i - 1] |= F_SIG_E | (neg * F_NEG_E);
    flags[i + 1] |= F_SIG_W | (neg * F_NEG_W);
    flags[i - stride] |= F_SIG_S | (neg * F_NEG_S);
    flags[i + stride] |= F_SIG_N | (neg * F_NEG_N);
    flags[i - stride - 1] |= F_SIG_SE;
    flags[i - stride + 1] |= F_SIG_SW;
    flags[i + stride - 1] |= F_SIG_NE;
    flags[i + stride + 1] |= F_SIG_NW;
}

/// The LL/LH significance table (HL uses it with h and v swapped).
pub(crate) const fn zc_table_hv(h: u32, v: u32, d: u32) -> usize {
    match h {
        2 => 8,
        1 => {
            if v >= 1 {
                7
            } else if d >= 1 {
                6
            } else {
                5
            }
        }
        _ => match v {
            2 => 4,
            1 => 3,
            _ => {
                if d >= 2 {
                    2
                } else if d == 1 {
                    1
                } else {
                    0
                }
            }
        },
    }
}

/// The HH significance table, keyed on the diagonal count first.
pub(crate) const fn zc_table_diag(d: u32, hv: u32) -> usize {
    match d {
        0 => {
            if hv >= 2 {
                2
            } else if hv == 1 {
                1
            } else {
                0
            }
        }
        1 => {
            if hv >= 2 {
                5
            } else if hv == 1 {
                4
            } else {
                3
            }
        }
        2 => {
            if hv >= 1 {
                7
            } else {
                6
            }
        }
        _ => 8,
    }
}

/// Builds a zero-coding LUT over the 8 neighbour-significance bits. With
/// `swap`, horizontal and vertical counts swap roles (the HL orientation).
const fn build_zc_lut_hv(swap: bool) -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut f = 0usize;
    while f < 256 {
        let h = ((f & 1) + ((f >> 1) & 1)) as u32;
        let v = (((f >> 2) & 1) + ((f >> 3) & 1)) as u32;
        let d = (((f >> 4) & 1) + ((f >> 5) & 1) + ((f >> 6) & 1) + ((f >> 7) & 1)) as u32;
        t[f] = if swap {
            zc_table_hv(v, h, d) as u8
        } else {
            zc_table_hv(h, v, d) as u8
        };
        f += 1;
    }
    t
}

/// The HH-orientation zero-coding LUT (diagonal count keys first).
const fn build_zc_lut_diag() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut f = 0usize;
    while f < 256 {
        let h = ((f & 1) + ((f >> 1) & 1)) as u32;
        let v = (((f >> 2) & 1) + ((f >> 3) & 1)) as u32;
        let d = (((f >> 4) & 1) + ((f >> 5) & 1) + ((f >> 6) & 1) + ((f >> 7) & 1)) as u32;
        t[f] = zc_table_diag(d, h + v) as u8;
        f += 1;
    }
    t
}

/// Sign contribution of one neighbour: +1 significant positive,
/// −1 significant negative, 0 insignificant.
const fn sign_contrib(sig: bool, neg: bool) -> i32 {
    if !sig {
        0
    } else if neg {
        -1
    } else {
        1
    }
}

const fn clamp1(v: i32) -> i32 {
    if v > 1 {
        1
    } else if v < -1 {
        -1
    } else {
        v
    }
}

/// Builds the sign-coding LUT. Index bits: 0..=3 significance of W/E/N/S,
/// 4..=7 negativity of W/E/N/S. Entry: low 3 bits the context offset
/// (0..=4), bit 3 the XOR flag.
const fn build_sc_lut() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        let cw = sign_contrib(i & 1 != 0, i & 0x10 != 0);
        let ce = sign_contrib(i & 2 != 0, i & 0x20 != 0);
        let cn = sign_contrib(i & 4 != 0, i & 0x40 != 0);
        let cs = sign_contrib(i & 8 != 0, i & 0x80 != 0);
        let hc = clamp1(cw + ce);
        let vc = clamp1(cn + cs);
        // The T.800 sign-coding table (offset, xor), mirrored for hc < 0.
        let (off, xor) = if hc == 1 {
            (
                if vc == 1 {
                    4
                } else if vc == 0 {
                    3
                } else {
                    2
                },
                0u8,
            )
        } else if hc == 0 {
            (if vc == 0 { 0 } else { 1 }, (vc < 0) as u8)
        } else {
            (
                if vc == 1 {
                    2
                } else if vc == 0 {
                    3
                } else {
                    4
                },
                1u8,
            )
        };
        t[i] = off | (xor << 3);
        i += 1;
    }
    t
}

/// Zero-coding LUTs indexed by the low 8 flags bits, per orientation.
const LUT_ZC_HV: [u8; 256] = build_zc_lut_hv(false);
const LUT_ZC_VH: [u8; 256] = build_zc_lut_hv(true);
const LUT_ZC_DIAG: [u8; 256] = build_zc_lut_diag();
/// Sign-coding LUT (offset + XOR), see [`build_sc_lut`].
const LUT_SC: [u8; 256] = build_sc_lut();

/// The zero-coding LUT for a band orientation.
#[inline]
fn zc_lut(kind: BandKind) -> &'static [u8; 256] {
    match kind {
        BandKind::Ll | BandKind::Lh => &LUT_ZC_HV,
        BandKind::Hl => &LUT_ZC_VH,
        BandKind::Hh => &LUT_ZC_DIAG,
    }
}

/// Sign-coding context and XOR bit from a flags word.
#[inline]
fn sc_lookup(f: u32) -> (usize, bool) {
    let lu = LUT_SC[((f & 0xF) | ((f >> 4) & 0xF0)) as usize];
    (CTX_SC + (lu & 7) as usize, lu & 8 != 0)
}

/// Magnitude-refinement context from a flags word.
#[inline]
fn mr_lookup(f: u32) -> usize {
    if f & F_REFINED != 0 {
        CTX_MR + 2
    } else if f & F_NEIGH_SIG != 0 {
        CTX_MR + 1
    } else {
        CTX_MR
    }
}

/// Result of encoding one code-block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T1EncodedBlock {
    /// The MQ codeword segment (all passes, single segment).
    pub data: Vec<u8>,
    /// Number of coding passes contained (`3·Mb − 2`, or 0 for an
    /// all-zero block).
    pub num_passes: u32,
    /// Number of magnitude bit-planes `Mb`.
    pub num_bitplanes: u8,
}

/// The initial context states mandated by the standard: UNIFORM starts at
/// state 46, run-length at 3, the all-zero-neighbourhood ZC context at 4,
/// everything else at 0.
pub fn initial_contexts() -> [MqContext; NUM_CONTEXTS] {
    let mut ctxs = [MqContext::with_state(0); NUM_CONTEXTS];
    ctxs[CTX_ZC] = MqContext::with_state(4);
    ctxs[CTX_RL] = MqContext::with_state(3);
    ctxs[CTX_UNI] = MqContext::with_state(46);
    ctxs
}

/// Encodes one code-block of quantised coefficients.
///
/// `mags` holds the magnitudes, `negative` the sign of each sample
/// (`true` = negative), both row-major `w × h`.
///
/// # Panics
///
/// Panics if the slice lengths do not match `w * h`.
pub fn encode_block(
    mags: &[u32],
    negative: &[bool],
    w: usize,
    h: usize,
    kind: BandKind,
) -> T1EncodedBlock {
    let (mut segments, mb) = encode_block_layers(mags, negative, w, h, kind, 1);
    match segments.pop() {
        Some(seg) => T1EncodedBlock {
            data: seg.data,
            num_passes: seg.num_passes,
            num_bitplanes: mb,
        },
        None => T1EncodedBlock {
            data: Vec::new(),
            num_passes: 0,
            num_bitplanes: 0,
        },
    }
}

/// One coding pass of the EBCOT schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassKind {
    Significance,
    Refinement,
    Cleanup,
}

/// The EBCOT pass schedule for `mb` bit-planes: cleanup only on the most
/// significant plane, all three passes below it, `3·mb − 2` passes in
/// all. The boolean marks passes after which the per-plane VISITED flags
/// reset (the decode fast path resets them inside its cleanup pass).
fn pass_sequence(mb: u32) -> impl Iterator<Item = (PassKind, u32, bool)> {
    (0..mb).rev().flat_map(move |p| {
        let plane = [
            (PassKind::Significance, p, false),
            (PassKind::Refinement, p, false),
            (PassKind::Cleanup, p, true),
        ];
        plane.into_iter().skip(if p == mb - 1 { 2 } else { 0 })
    })
}

/// One MQ codeword segment of a layered code-block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct T1Segment {
    /// The terminated MQ codeword covering this segment's passes.
    pub data: Vec<u8>,
    /// Number of coding passes in the segment.
    pub num_passes: u32,
}

/// Encodes one code-block into `num_layers` independently terminated MQ
/// codeword segments (the standard's codeword-termination mode): contexts
/// persist across segments, but each segment's arithmetic codeword is
/// flushed, so a decoder holding only the first *k* segments can decode
/// exactly their passes — the mechanism behind quality layers.
///
/// Passes distribute evenly over layers with earlier layers taking the
/// remainder (most-significant data first). Returns the segments (empty
/// for an all-zero block) and the bit-plane count `Mb`.
///
/// # Panics
///
/// Panics if the slice lengths do not match `w * h` or `num_layers == 0`.
pub fn encode_block_layers(
    mags: &[u32],
    negative: &[bool],
    w: usize,
    h: usize,
    kind: BandKind,
    num_layers: usize,
) -> (Vec<T1Segment>, u8) {
    assert_eq!(mags.len(), w * h);
    assert_eq!(negative.len(), w * h);
    assert!(num_layers > 0, "at least one layer");
    let mb = mags
        .iter()
        .map(|&m| 32 - m.leading_zeros())
        .max()
        .unwrap_or(0) as u8;
    if mb == 0 {
        return (Vec::new(), 0);
    }
    let total = 3 * mb as usize - 2;
    // Contiguous pass ranges per layer, remainder to the earliest layers.
    let mut boundaries = Vec::with_capacity(num_layers);
    let (base, rem) = (total / num_layers, total % num_layers);
    let mut acc = 0usize;
    for l in 0..num_layers {
        acc += base + usize::from(l < rem);
        boundaries.push(acc);
    }

    let zc = zc_lut(kind);
    let mut flags = vec![0u32; (w + 2) * (h + 2)];
    let mut ctxs = initial_contexts();
    let mut mq = MqEncoder::new();
    let mut segments = Vec::with_capacity(num_layers);
    let mut passes_in_segment = 0u32;
    let mut next_boundary = 0usize;
    for (i, (pass, p, clear)) in pass_sequence(mb as u32).enumerate() {
        match pass {
            PassKind::Significance => {
                enc_sig_pass(&mut mq, &mut ctxs, &mut flags, mags, negative, w, h, zc, p)
            }
            PassKind::Refinement => enc_ref_pass(&mut mq, &mut ctxs, &mut flags, mags, w, h, p),
            PassKind::Cleanup => {
                enc_cleanup_pass(&mut mq, &mut ctxs, &mut flags, mags, negative, w, h, zc, p)
            }
        }
        if clear {
            for f in &mut flags {
                *f &= !F_VISITED;
            }
        }
        passes_in_segment += 1;
        if i + 1 == boundaries[next_boundary] {
            let done = std::mem::take(&mut mq);
            segments.push(T1Segment {
                data: done.finish(),
                num_passes: passes_in_segment,
            });
            passes_in_segment = 0;
            next_boundary += 1;
        }
    }
    debug_assert_eq!(passes_in_segment, 0, "all passes flushed");
    (segments, mb)
}

#[allow(clippy::too_many_arguments)]
fn enc_sig_pass(
    mq: &mut MqEncoder,
    ctxs: &mut [MqContext; NUM_CONTEXTS],
    flags: &mut [u32],
    mags: &[u32],
    negative: &[bool],
    w: usize,
    h: usize,
    zc: &[u8; 256],
    p: u32,
) {
    let stride = w + 2;
    let mut sy = 0;
    while sy < h {
        let sh = (h - sy).min(4);
        let mut col_i = (sy + 1) * stride + 1;
        let mut col_j = sy * w;
        let col_end = col_i + w;
        while col_i < col_end {
            let (mut i, mut j) = (col_i, col_j);
            for _dy in 0..sh {
                let f = flags[i];
                // Only insignificant samples with a significant
                // neighbourhood belong to this pass.
                if f & F_SELF_SIG == 0 && f & F_NEIGH_SIG != 0 {
                    let bit = (mags[j] >> p) & 1 != 0;
                    mq.encode(&mut ctxs[CTX_ZC + zc[(f & 0xFF) as usize] as usize], bit);
                    if bit {
                        let (sc, xor) = sc_lookup(f);
                        mq.encode(&mut ctxs[sc], negative[j] ^ xor);
                        set_significant(flags, stride, i, negative[j]);
                    }
                    flags[i] |= F_VISITED;
                }
                i += stride;
                j += w;
            }
            col_i += 1;
            col_j += 1;
        }
        sy += 4;
    }
}

fn enc_ref_pass(
    mq: &mut MqEncoder,
    ctxs: &mut [MqContext; NUM_CONTEXTS],
    flags: &mut [u32],
    mags: &[u32],
    w: usize,
    h: usize,
    p: u32,
) {
    let stride = w + 2;
    let mut sy = 0;
    while sy < h {
        let sh = (h - sy).min(4);
        let mut col_i = (sy + 1) * stride + 1;
        let mut col_j = sy * w;
        let col_end = col_i + w;
        while col_i < col_end {
            let (mut i, mut j) = (col_i, col_j);
            for _dy in 0..sh {
                let f = flags[i];
                if f & F_SELF_SIG != 0 && f & F_VISITED == 0 {
                    mq.encode(&mut ctxs[mr_lookup(f)], (mags[j] >> p) & 1 != 0);
                    flags[i] |= F_REFINED;
                }
                i += stride;
                j += w;
            }
            col_i += 1;
            col_j += 1;
        }
        sy += 4;
    }
}

#[allow(clippy::too_many_arguments)]
fn enc_cleanup_pass(
    mq: &mut MqEncoder,
    ctxs: &mut [MqContext; NUM_CONTEXTS],
    flags: &mut [u32],
    mags: &[u32],
    negative: &[bool],
    w: usize,
    h: usize,
    zc: &[u8; 256],
    p: u32,
) {
    let stride = w + 2;
    let mut sy = 0;
    while sy < h {
        let sh = (h - sy).min(4);
        let mut col_i = (sy + 1) * stride + 1;
        let mut col_j = sy * w;
        let col_end = col_i + w;
        while col_i < col_end {
            let mut dy = 0;
            // Run-length mode: a full stripe column, all four samples
            // uncoded, insignificant and with empty neighbourhoods —
            // a single OR over the four flags words decides.
            if sh == 4 {
                let combined = flags[col_i]
                    | flags[col_i + stride]
                    | flags[col_i + 2 * stride]
                    | flags[col_i + 3 * stride];
                if combined & (F_SELF_SIG | F_VISITED | F_NEIGH_SIG) == 0 {
                    let first_one = (0..4).find(|&k| (mags[col_j + k * w] >> p) & 1 != 0);
                    match first_one {
                        None => {
                            mq.encode(&mut ctxs[CTX_RL], false);
                            col_i += 1;
                            col_j += 1;
                            continue; // whole column stays zero
                        }
                        Some(k) => {
                            mq.encode(&mut ctxs[CTX_RL], true);
                            mq.encode(&mut ctxs[CTX_UNI], k & 2 != 0);
                            mq.encode(&mut ctxs[CTX_UNI], k & 1 != 0);
                            let i = col_i + k * stride;
                            let j = col_j + k * w;
                            let (sc, xor) = sc_lookup(flags[i]);
                            mq.encode(&mut ctxs[sc], negative[j] ^ xor);
                            set_significant(flags, stride, i, negative[j]);
                            dy = k + 1;
                        }
                    }
                }
            }
            // Remaining samples of the column: normal cleanup coding.
            let (mut i, mut j) = (col_i + dy * stride, col_j + dy * w);
            while dy < sh {
                let f = flags[i];
                if f & (F_SELF_SIG | F_VISITED) == 0 {
                    let bit = (mags[j] >> p) & 1 != 0;
                    mq.encode(&mut ctxs[CTX_ZC + zc[(f & 0xFF) as usize] as usize], bit);
                    if bit {
                        let (sc, xor) = sc_lookup(f);
                        mq.encode(&mut ctxs[sc], negative[j] ^ xor);
                        set_significant(flags, stride, i, negative[j]);
                    }
                }
                i += stride;
                j += w;
                dy += 1;
            }
            col_i += 1;
            col_j += 1;
        }
        sy += 4;
    }
}

/// Reusable Tier-1 decode buffers: the flags lattice plus the magnitude
/// and sign planes. One instance serves any sequence of code-blocks (the
/// buffers grow to the largest block seen and are reused), eliminating
/// the three per-block allocations of the plain
/// [`decode_block_segments`].
#[derive(Debug, Clone, Default)]
pub struct T1Scratch {
    flags: Vec<u32>,
    mags: Vec<u32>,
    negative: Vec<bool>,
    counters: T1Counters,
}

/// Running Tier-1 work counters, accumulated across every block a
/// [`T1Scratch`] decodes. Plain integer adds on the per-block (not
/// per-decision) path — free to keep enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct T1Counters {
    /// Code-blocks decoded.
    pub blocks: u64,
    /// Coding passes executed.
    pub coding_passes: u64,
    /// Compressed bytes consumed.
    pub bytes_in: u64,
    /// MQ decisions that renormalised.
    pub mq_renorms: u64,
}

impl T1Counters {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &T1Counters) {
        self.blocks = self.blocks.saturating_add(other.blocks);
        self.coding_passes = self.coding_passes.saturating_add(other.coding_passes);
        self.bytes_in = self.bytes_in.saturating_add(other.bytes_in);
        self.mq_renorms = self.mq_renorms.saturating_add(other.mq_renorms);
    }
}

impl T1Scratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The work counters accumulated so far.
    pub fn counters(&self) -> T1Counters {
        self.counters
    }

    /// Decodes a code-block like [`decode_block_segments`], but into this
    /// scratch's reused buffers. The returned slices are valid until the
    /// next call. Each segment's bytes may be any `AsRef<[u8]>` (a
    /// borrowed slice or an owned `Vec<u8>`), so a caller holding owned
    /// segments needs no per-block slice of references.
    pub fn decode_block_segments<D: AsRef<[u8]>>(
        &mut self,
        segments: &[(D, u32)],
        w: usize,
        h: usize,
        kind: BandKind,
        mb: u8,
    ) -> (&[u32], &[bool]) {
        let renorms = decode_segments_core(
            &mut self.flags,
            &mut self.mags,
            &mut self.negative,
            segments,
            w,
            h,
            kind,
            mb,
        );
        self.counters.blocks += 1;
        for (d, n) in segments {
            self.counters.coding_passes += u64::from(*n);
            self.counters.bytes_in += d.as_ref().len() as u64;
        }
        self.counters.mq_renorms += renorms;
        (&self.mags, &self.negative)
    }
}

/// Decodes one code-block back into `(magnitudes, negative)` arrays.
///
/// `num_passes` is the pass count from the packet header; the number of
/// bit-planes is `(num_passes + 2) / 3`, saturated to `u8::MAX`, so a
/// pass count beyond [`MAX_BITPLANES`] planes decodes as an all-zero
/// block.
pub fn decode_block(
    data: &[u8],
    w: usize,
    h: usize,
    kind: BandKind,
    num_passes: u32,
) -> (Vec<u32>, Vec<bool>) {
    if num_passes == 0 {
        return (vec![0; w * h], vec![false; w * h]);
    }
    let mb = u8::try_from(num_passes.div_ceil(3)).unwrap_or(u8::MAX);
    decode_block_segments(&[(data, num_passes)], w, h, kind, mb)
}

/// Decodes a code-block from one or more terminated codeword segments
/// (the layered form of [`encode_block_layers`]). `mb` is the bit-plane
/// count signalled by the packet header's zero-bit-plane field; fewer
/// passes than the full schedule yield the standard's partial (quality-
/// truncated) reconstruction. An `mb` of 0 or above [`MAX_BITPLANES`]
/// yields an all-zero block.
pub fn decode_block_segments(
    segments: &[(&[u8], u32)],
    w: usize,
    h: usize,
    kind: BandKind,
    mb: u8,
) -> (Vec<u32>, Vec<bool>) {
    let mut flags = Vec::new();
    let mut mags = Vec::new();
    let mut negative = Vec::new();
    decode_segments_core(
        &mut flags,
        &mut mags,
        &mut negative,
        segments,
        w,
        h,
        kind,
        mb,
    );
    (mags, negative)
}

/// Returns the number of MQ renormalisations performed, summed across
/// every codeword segment of the block.
#[allow(clippy::too_many_arguments)]
fn decode_segments_core<D: AsRef<[u8]>>(
    flags: &mut Vec<u32>,
    mags: &mut Vec<u32>,
    negative: &mut Vec<bool>,
    segments: &[(D, u32)],
    w: usize,
    h: usize,
    kind: BandKind,
    mb: u8,
) -> u64 {
    mags.clear();
    mags.resize(w * h, 0);
    negative.clear();
    negative.resize(w * h, false);
    if mb == 0 || mb > MAX_BITPLANES || w == 0 || h == 0 {
        return 0;
    }
    flags.clear();
    flags.resize((w + 2) * (h + 2), 0);
    let zc = zc_lut(kind);
    let mut ctxs = initial_contexts();
    let mut passes = pass_sequence(mb as u32);
    let mut renorms = 0u64;
    for (data, n) in segments {
        let mut mq = MqDecoder::new(data.as_ref());
        for (pass, p, _) in passes.by_ref().take(*n as usize) {
            match pass {
                PassKind::Significance => {
                    dec_sig_pass(&mut mq, &mut ctxs, flags, mags, negative, w, h, zc, p)
                }
                PassKind::Refinement => dec_ref_pass(&mut mq, &mut ctxs, flags, mags, w, h, p),
                PassKind::Cleanup => {
                    dec_cleanup_pass(&mut mq, &mut ctxs, flags, mags, negative, w, h, zc, p)
                }
            }
        }
        renorms += mq.renorms();
    }
    renorms
}

/// Significance-pass candidates: insignificant samples whose
/// neighbourhood holds a significant sample.
#[inline]
fn sig_candidates(flags: &[u32], col_i: usize, stride: usize, sh: usize) -> u32 {
    let mut m = 0;
    for k in 0..sh {
        let f = flags[col_i + k * stride];
        m |= ((f & F_SELF_SIG == 0 && f & F_NEIGH_SIG != 0) as u32) << k;
    }
    m
}

#[allow(clippy::too_many_arguments)]
fn dec_sig_pass(
    mq_out: &mut MqDecoder<'_>,
    ctxs: &mut [MqContext; NUM_CONTEXTS],
    flags: &mut [u32],
    mags: &mut [u32],
    negative: &mut [bool],
    w: usize,
    h: usize,
    zc: &[u8; 256],
    p: u32,
) {
    let mut mq = mq_out.clone();
    let stride = w + 2;
    for sy in (0..h).step_by(4) {
        let sh = (h - sy).min(4);
        for x in 0..w {
            let col_i = (sy + 1) * stride + 1 + x;
            let col_j = sy * w + x;
            let mut cand = sig_candidates(flags, col_i, stride, sh);
            while cand != 0 {
                let k = cand.trailing_zeros() as usize;
                let (i, j) = (col_i + k * stride, col_j + k * w);
                let f = flags[i];
                flags[i] = f | F_VISITED;
                if mq.decode(&mut ctxs[CTX_ZC + zc[(f & 0xFF) as usize] as usize]) {
                    let (sc, xor) = sc_lookup(f);
                    let neg = mq.decode(&mut ctxs[sc]) ^ xor;
                    negative[j] = neg;
                    mags[j] |= 1 << p;
                    set_significant(flags, stride, i, neg);
                    // The new significance can make the rows below
                    // candidates.
                    cand = sig_candidates(flags, col_i, stride, sh) & (!1 << k);
                } else {
                    cand &= cand - 1;
                }
            }
        }
    }
    *mq_out = mq;
}

fn dec_ref_pass(
    mq_out: &mut MqDecoder<'_>,
    ctxs: &mut [MqContext; NUM_CONTEXTS],
    flags: &mut [u32],
    mags: &mut [u32],
    w: usize,
    h: usize,
    p: u32,
) {
    let mut mq = mq_out.clone();
    let stride = w + 2;
    for sy in (0..h).step_by(4) {
        let sh = (h - sy).min(4);
        for x in 0..w {
            let col_i = (sy + 1) * stride + 1 + x;
            let col_j = sy * w + x;
            // Significant and not coded in this plane's significance
            // pass; refining a sample changes no other sample's
            // candidacy, so the mask holds for the whole column.
            let mut cand = 0;
            for k in 0..sh {
                let f = flags[col_i + k * stride];
                cand |= ((f & (F_SELF_SIG | F_VISITED) == F_SELF_SIG) as u32) << k;
            }
            while cand != 0 {
                let k = cand.trailing_zeros() as usize;
                cand &= cand - 1;
                let (i, j) = (col_i + k * stride, col_j + k * w);
                let f = flags[i];
                let bit = mq.decode(&mut ctxs[mr_lookup(f)]);
                mags[j] |= (bit as u32) << p;
                flags[i] = f | F_REFINED;
            }
        }
    }
    *mq_out = mq;
}

#[allow(clippy::too_many_arguments)]
fn dec_cleanup_pass(
    mq_out: &mut MqDecoder<'_>,
    ctxs: &mut [MqContext; NUM_CONTEXTS],
    flags: &mut [u32],
    mags: &mut [u32],
    negative: &mut [bool],
    w: usize,
    h: usize,
    zc: &[u8; 256],
    p: u32,
) {
    let mut mq = mq_out.clone();
    let stride = w + 2;
    for sy in (0..h).step_by(4) {
        let sh = (h - sy).min(4);
        for x in 0..w {
            let col_i = (sy + 1) * stride + 1 + x;
            let col_j = sy * w + x;
            // Neither significant nor coded earlier in this plane; a
            // sample turning significant here is past its own turn, so
            // the mask holds for the whole column.
            // This is the plane's last pass over the column, so it also
            // resets the column's VISITED flags for the next plane.
            let mut cand = 0;
            let mut combined = 0;
            for k in 0..sh {
                let f = flags[col_i + k * stride];
                combined |= f;
                cand |= ((f & (F_SELF_SIG | F_VISITED) == 0) as u32) << k;
                flags[col_i + k * stride] = f & !F_VISITED;
            }
            // Run-length mode: a full stripe column, all four samples
            // uncoded, insignificant and with empty neighbourhoods.
            if sh == 4 && combined & (F_SELF_SIG | F_VISITED | F_NEIGH_SIG) == 0 {
                if !mq.decode(&mut ctxs[CTX_RL]) {
                    continue; // whole column zero
                }
                let k = ((mq.decode(&mut ctxs[CTX_UNI]) as usize) << 1)
                    | mq.decode(&mut ctxs[CTX_UNI]) as usize;
                let (i, j) = (col_i + k * stride, col_j + k * w);
                let (sc, xor) = sc_lookup(flags[i]);
                let neg = mq.decode(&mut ctxs[sc]) ^ xor;
                negative[j] = neg;
                mags[j] |= 1 << p;
                set_significant(flags, stride, i, neg);
                cand &= !1 << k;
            }
            while cand != 0 {
                let k = cand.trailing_zeros() as usize;
                cand &= cand - 1;
                let (i, j) = (col_i + k * stride, col_j + k * w);
                let f = flags[i];
                if mq.decode(&mut ctxs[CTX_ZC + zc[(f & 0xFF) as usize] as usize]) {
                    let (sc, xor) = sc_lookup(f);
                    let neg = mq.decode(&mut ctxs[sc]) ^ xor;
                    negative[j] = neg;
                    mags[j] |= 1 << p;
                    set_significant(flags, stride, i, neg);
                }
            }
        }
    }
    *mq_out = mq;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(mags: Vec<u32>, negative: Vec<bool>, w: usize, h: usize, kind: BandKind) {
        let enc = encode_block(&mags, &negative, w, h, kind);
        let (dm, dn) = decode_block(&enc.data, w, h, kind, enc.num_passes);
        assert_eq!(dm, mags, "magnitudes {w}x{h} {kind:?}");
        // Signs only matter where magnitude is non-zero.
        for i in 0..mags.len() {
            if mags[i] != 0 {
                assert_eq!(dn[i], negative[i], "sign at {i}");
            }
        }
    }

    fn random_block(
        w: usize,
        h: usize,
        seed: u64,
        zero_prob: f64,
        max_mag: u32,
    ) -> (Vec<u32>, Vec<bool>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mags: Vec<u32> = (0..w * h)
            .map(|_| {
                if rng.gen_bool(zero_prob) {
                    0
                } else {
                    rng.gen_range(1..=max_mag)
                }
            })
            .collect();
        let negative: Vec<bool> = (0..w * h).map(|_| rng.gen_bool(0.5)).collect();
        (mags, negative)
    }

    #[test]
    fn all_zero_block_has_no_passes() {
        let enc = encode_block(&[0; 16], &[false; 16], 4, 4, BandKind::Ll);
        assert_eq!(enc.num_passes, 0);
        assert_eq!(enc.num_bitplanes, 0);
        assert!(enc.data.is_empty());
        let (m, _) = decode_block(&enc.data, 4, 4, BandKind::Ll, 0);
        assert!(m.iter().all(|&v| v == 0));
    }

    #[test]
    fn single_coefficient_roundtrip() {
        let mut mags = vec![0u32; 64];
        let mut neg = vec![false; 64];
        mags[27] = 13;
        neg[27] = true;
        roundtrip(mags, neg, 8, 8, BandKind::Hl);
    }

    #[test]
    fn passes_formula() {
        let mut mags = vec![0u32; 16];
        mags[0] = 0b101; // 3 bit-planes
        let enc = encode_block(&mags, &[false; 16], 4, 4, BandKind::Ll);
        assert_eq!(enc.num_bitplanes, 3);
        assert_eq!(enc.num_passes, 7);
    }

    #[test]
    fn dense_random_blocks_roundtrip_all_orientations() {
        for kind in [BandKind::Ll, BandKind::Hl, BandKind::Lh, BandKind::Hh] {
            let (mags, neg) = random_block(16, 16, 42, 0.3, 255);
            roundtrip(mags, neg, 16, 16, kind);
        }
    }

    #[test]
    fn sparse_random_blocks_roundtrip() {
        for seed in 0..5 {
            let (mags, neg) = random_block(32, 32, seed, 0.95, 1000);
            roundtrip(mags, neg, 32, 32, BandKind::Hh);
        }
    }

    #[test]
    fn non_multiple_of_four_heights() {
        for h in [1usize, 2, 3, 5, 6, 7, 9] {
            let (mags, neg) = random_block(7, h, h as u64, 0.5, 63);
            roundtrip(mags, neg, 7, h, BandKind::Lh);
        }
    }

    #[test]
    fn single_row_and_column_blocks() {
        let (mags, neg) = random_block(16, 1, 3, 0.4, 15);
        roundtrip(mags, neg, 16, 1, BandKind::Ll);
        let (mags, neg) = random_block(1, 16, 4, 0.4, 15);
        roundtrip(mags, neg, 1, 16, BandKind::Hh);
    }

    #[test]
    fn large_magnitudes() {
        let mut mags = vec![0u32; 64];
        mags[0] = 65_535;
        mags[63] = 32_768;
        let mut neg = vec![false; 64];
        neg[63] = true;
        roundtrip(mags, neg, 8, 8, BandKind::Ll);
    }

    #[test]
    fn compression_is_effective_on_sparse_data() {
        let (mags, neg) = random_block(64, 64, 5, 0.98, 127);
        let enc = encode_block(&mags, &neg, 64, 64, BandKind::Hh);
        // 4096 samples, ~2% significant: far below raw size.
        assert!(
            enc.data.len() < 1200,
            "sparse block should compress, got {} bytes",
            enc.data.len()
        );
    }

    #[test]
    fn layered_encoding_roundtrips_for_any_layer_count() {
        let (mags, neg) = random_block(16, 16, 21, 0.5, 511);
        let reference = encode_block(&mags, &neg, 16, 16, BandKind::Lh);
        for layers in 1..=7 {
            let (segments, mb) = encode_block_layers(&mags, &neg, 16, 16, BandKind::Lh, layers);
            assert_eq!(mb, reference.num_bitplanes);
            let total: u32 = segments.iter().map(|s| s.num_passes).sum();
            assert_eq!(total, reference.num_passes, "{layers} layers");
            let refs: Vec<(&[u8], u32)> = segments
                .iter()
                .map(|s| (s.data.as_slice(), s.num_passes))
                .collect();
            let (dm, dn) = decode_block_segments(&refs, 16, 16, BandKind::Lh, mb);
            assert_eq!(dm, mags, "{layers} layers");
            for i in 0..mags.len() {
                if mags[i] != 0 {
                    assert_eq!(dn[i], neg[i]);
                }
            }
        }
    }

    #[test]
    fn truncated_layers_give_progressively_better_magnitudes() {
        let (mags, neg) = random_block(16, 16, 22, 0.4, 1023);
        let (segments, mb) = encode_block_layers(&mags, &neg, 16, 16, BandKind::Hl, 4);
        let mut last_err = u64::MAX;
        for keep in 1..=4 {
            let refs: Vec<(&[u8], u32)> = segments[..keep]
                .iter()
                .map(|s| (s.data.as_slice(), s.num_passes))
                .collect();
            let (dm, _) = decode_block_segments(&refs, 16, 16, BandKind::Hl, mb);
            let err: u64 = dm
                .iter()
                .zip(&mags)
                .map(|(&a, &b)| (a as i64 - b as i64).unsigned_abs())
                .sum();
            assert!(
                err <= last_err,
                "keeping {keep} layers must not increase error: {err} > {last_err}"
            );
            last_err = err;
        }
        assert_eq!(last_err, 0, "all layers reconstruct exactly");
    }

    #[test]
    fn pass_sequence_shape() {
        assert_eq!(pass_sequence(0).count(), 0);
        let s1: Vec<_> = pass_sequence(1).collect();
        assert_eq!(s1.len(), 1);
        assert_eq!(s1[0].0, PassKind::Cleanup);
        let s3: Vec<_> = pass_sequence(3).collect();
        assert_eq!(s3.len(), 7); // 3*3 - 2
        assert_eq!(s3[0], (PassKind::Cleanup, 2, true));
        assert_eq!(s3[1], (PassKind::Significance, 1, false));
        assert_eq!(s3[6], (PassKind::Cleanup, 0, true));
    }

    #[test]
    fn context_tables_cover_expected_ranges() {
        for h in 0..=2u32 {
            for v in 0..=2u32 {
                for d in 0..=4u32 {
                    assert!(zc_table_hv(h, v, d) <= 8);
                    assert!(zc_table_diag(d, h + v) <= 8);
                }
            }
        }
    }

    #[test]
    fn initial_context_states() {
        let c = initial_contexts();
        assert_eq!(c[CTX_UNI].state, 46);
        assert_eq!(c[CTX_RL].state, 3);
        assert_eq!(c[CTX_ZC].state, 4);
        assert_eq!(c[CTX_ZC + 1].state, 0);
        assert_eq!(c[CTX_SC].state, 0);
    }

    #[test]
    fn scratch_decode_matches_plain_and_is_reusable() {
        let mut scratch = T1Scratch::new();
        // Decreasing then increasing sizes: buffers shrink and regrow.
        for (w, h, seed) in [(32usize, 32usize, 1u64), (8, 8, 2), (16, 5, 3), (64, 64, 4)] {
            let (mags, neg) = random_block(w, h, seed, 0.6, 511);
            let enc = encode_block(&mags, &neg, w, h, BandKind::Hl);
            let plain = decode_block(&enc.data, w, h, BandKind::Hl, enc.num_passes);
            let mb = enc.num_passes.div_ceil(3) as u8;
            let (sm, sn) = scratch.decode_block_segments(
                &[(&enc.data, enc.num_passes)],
                w,
                h,
                BandKind::Hl,
                mb,
            );
            assert_eq!(sm, plain.0.as_slice(), "{w}x{h}");
            assert_eq!(sn, plain.1.as_slice(), "{w}x{h}");
        }
    }

    // -----------------------------------------------------------------
    // LUT-vs-oracle checks: the compile-time tables must agree with the
    // T.800 context logic (exhaustively) and the lattice coder with the
    // retained reference implementation (property-tested).
    // -----------------------------------------------------------------

    #[test]
    fn zc_luts_match_oracle_tables_exhaustively() {
        for f in 0usize..256 {
            let h = ((f & 1) + ((f >> 1) & 1)) as u32;
            let v = (((f >> 2) & 1) + ((f >> 3) & 1)) as u32;
            let d = (f as u32 >> 4).count_ones();
            assert_eq!(LUT_ZC_HV[f] as usize, zc_table_hv(h, v, d), "flags {f:#x}");
            assert_eq!(LUT_ZC_VH[f] as usize, zc_table_hv(v, h, d), "flags {f:#x}");
            assert_eq!(
                LUT_ZC_DIAG[f] as usize,
                zc_table_diag(d, h + v),
                "flags {f:#x}"
            );
        }
    }

    #[test]
    fn sc_lut_matches_reference_grid_exhaustively() {
        // Enumerate all sign/significance assignments of the 4 h/v
        // neighbours on a 3x3 reference grid centred on (1, 1).
        for m in 0usize..256 {
            let (sw, se, sn, ss) = (m & 1 != 0, m & 2 != 0, m & 4 != 0, m & 8 != 0);
            let (nw_, ne_, nn, ns) = (m & 16 != 0, m & 32 != 0, m & 64 != 0, m & 128 != 0);
            let mut rflags = [0u8; 9];
            let mut rneg = [false; 9];
            for (sig, neg, idx) in [
                (sw, nw_, 3usize), // west of centre
                (se, ne_, 5),      // east
                (sn, nn, 1),       // north
                (ss, ns, 7),       // south
            ] {
                if sig {
                    rflags[idx] = 1; // reference::F_SIG
                    rneg[idx] = neg;
                }
            }
            let grid = reference::Grid {
                w: 3,
                h: 3,
                flags: &rflags,
                negative: &rneg,
            };
            let expect = grid.sc_context(1, 1);
            // Build the equivalent flags word (sign bits only matter when
            // the significance bit is set, mirroring set_significant).
            let mut f = 0u32;
            if sw {
                f |= F_SIG_W | if nw_ { F_NEG_W } else { 0 };
            }
            if se {
                f |= F_SIG_E | if ne_ { F_NEG_E } else { 0 };
            }
            if sn {
                f |= F_SIG_N | if nn { F_NEG_N } else { 0 };
            }
            if ss {
                f |= F_SIG_S | if ns { F_NEG_S } else { 0 };
            }
            assert_eq!(sc_lookup(f), expect, "mask {m:#x}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The flags-lattice encoder emits byte-identical segments to the
        /// reference encoder over random geometries (1×1 up to 64×64),
        /// all four band orientations, lossless-scale and lossy-scale
        /// magnitudes, and any layer count.
        #[test]
        fn lattice_encode_is_bit_exact_vs_reference(
            w in 1usize..=64,
            h in 1usize..=64,
            kind_sel in 0usize..4,
            layers in 1usize..=4,
            dense in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let kind = [BandKind::Ll, BandKind::Hl, BandKind::Lh, BandKind::Hh][kind_sel];
            let (zero_prob, max_mag) = if dense { (0.3, 40_000) } else { (0.9, 255) };
            let (mags, neg) = random_block(w, h, seed, zero_prob, max_mag);
            let (fast, fast_mb) = encode_block_layers(&mags, &neg, w, h, kind, layers);
            let (refr, ref_mb) = reference::encode_block_layers(&mags, &neg, w, h, kind, layers);
            prop_assert_eq!(fast_mb, ref_mb);
            prop_assert_eq!(fast, refr);
        }

        /// The flags-lattice decoder reconstructs exactly what the
        /// reference decoder (with its own flowchart MQ decoder) does,
        /// over four kinds of input:
        /// 0. one segment truncated to a random prefix of its passes;
        /// 1. the segments of `encode_block_layers`, a random prefix of
        ///    them kept and the last one possibly cut short;
        /// 2. random garbage segment bytes with random pass counts,
        ///    which must decode like the reference and never panic;
        /// 3. a random sequence of block sizes and orientations.
        ///
        /// Every input is decoded by the free function and by one
        /// `T1Scratch` reused across the whole case.
        #[test]
        fn lattice_decode_is_bit_exact_vs_reference(
            w in 1usize..=64,
            h in 1usize..=64,
            kind_sel in 0usize..4,
            keep_num in 1u32..=100,
            input in 0usize..4,
            seed in any::<u64>(),
        ) {
            let kinds = [BandKind::Ll, BandKind::Hl, BandKind::Lh, BandKind::Hh];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scratch = T1Scratch::new();
            let mut check = |segs: &[(&[u8], u32)], w: usize, h: usize, kind: BandKind, mb: u8| {
                let fast = decode_block_segments(segs, w, h, kind, mb);
                let refr = reference::decode_block_segments(segs, w, h, kind, mb);
                let (sm, sn) = scratch.decode_block_segments(segs, w, h, kind, mb);
                prop_assert_eq!((sm, sn), (fast.0.as_slice(), fast.1.as_slice()));
                prop_assert_eq!(fast, refr);
            };
            match input {
                0 => {
                    let (mags, neg) = random_block(w, h, seed, 0.6, 4095);
                    let enc = encode_block(&mags, &neg, w, h, kinds[kind_sel]);
                    if enc.num_passes > 0 {
                        let keep = 1 + keep_num % enc.num_passes;
                        let mb = enc.num_passes.div_ceil(3) as u8;
                        check(&[(&enc.data, keep)], w, h, kinds[kind_sel], mb);
                    }
                }
                1 => {
                    let (mags, neg) = random_block(w, h, seed, 0.5, 4095);
                    let layers = rng.gen_range(2..=6);
                    let (segments, mb) =
                        encode_block_layers(&mags, &neg, w, h, kinds[kind_sel], layers);
                    let kept = segments.len().min(1 + keep_num as usize % layers);
                    let mut segs: Vec<(&[u8], u32)> = segments[..kept]
                        .iter()
                        .map(|s| (s.data.as_slice(), s.num_passes))
                        .collect();
                    if let Some(last) = segs.last_mut() {
                        last.1 = rng.gen_range(1..=last.1);
                    }
                    check(&segs, w, h, kinds[kind_sel], mb);
                }
                2 => {
                    let mb = rng.gen_range(1..=18u8);
                    let bytes: Vec<Vec<u8>> = (0..rng.gen_range(1..=3))
                        .map(|_| (0..rng.gen_range(0..64)).map(|_| rng.gen::<u8>()).collect())
                        .collect();
                    let segs: Vec<(&[u8], u32)> = bytes
                        .iter()
                        .map(|b| (b.as_slice(), rng.gen_range(0..=3 * mb as u32)))
                        .collect();
                    check(&segs, w, h, kinds[kind_sel], mb);
                }
                _ => {
                    for _ in 0..rng.gen_range(2..=6) {
                        let (bw, bh) = (rng.gen_range(1..=64), rng.gen_range(1..=64));
                        let kind = kinds[rng.gen_range(0..4usize)];
                        let (mags, neg) = random_block(bw, bh, rng.gen(), 0.6, 4095);
                        let enc = encode_block(&mags, &neg, bw, bh, kind);
                        let mb = enc.num_passes.div_ceil(3) as u8;
                        check(&[(&enc.data, enc.num_passes)], bw, bh, kind, mb);
                    }
                }
            }
        }
    }

    /// Bit-plane counts the public decoders accept but the codec never
    /// signals: up to [`MAX_BITPLANES`] decode, anything above decodes
    /// as an all-zero block, and none of them overflows a shift (these
    /// run with debug overflow checks).
    #[test]
    fn oversized_bitplane_counts_never_overflow() {
        // 31 planes is the top: magnitudes up to 2^31 - 1 round-trip.
        let mut mags = vec![0u32; 16];
        mags[5] = (1 << 30) | 0x1234_5677;
        mags[10] = 3;
        let neg: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();
        let enc = encode_block(&mags, &neg, 4, 4, BandKind::Hh);
        assert_eq!(enc.num_bitplanes, MAX_BITPLANES);
        let (dm, _) = decode_block(&enc.data, 4, 4, BandKind::Hh, enc.num_passes);
        assert_eq!(dm, mags);
        let segs: &[(&[u8], u32)] = &[(&enc.data, enc.num_passes)];
        assert_eq!(
            decode_block_segments(segs, 4, 4, BandKind::Hh, 31),
            reference::decode_block_segments(segs, 4, 4, BandKind::Hh, 31)
        );

        let zero = (vec![0u32; 16], vec![false; 16]);
        for mb in [32u8, 40, 255] {
            let segs: &[(&[u8], u32)] = &[(&enc.data, 1)];
            assert_eq!(decode_block_segments(segs, 4, 4, BandKind::Ll, mb), zero);
            assert_eq!(
                reference::decode_block_segments(segs, 4, 4, BandKind::Ll, mb),
                zero
            );
            let mut scratch = T1Scratch::new();
            let (sm, sn) = scratch.decode_block_segments(segs, 4, 4, BandKind::Ll, mb);
            assert_eq!((sm, sn), (zero.0.as_slice(), zero.1.as_slice()));
        }
        // 96 passes need 32 planes and 1000 passes 334: both saturate
        // past MAX_BITPLANES instead of wrapping to a small count.
        for passes in [96u32, 1000] {
            assert_eq!(decode_block(&enc.data, 4, 4, BandKind::Lh, passes), zero);
            assert_eq!(
                reference::decode_block(&enc.data, 4, 4, BandKind::Lh, passes),
                zero
            );
        }
    }
}
