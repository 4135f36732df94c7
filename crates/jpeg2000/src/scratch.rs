//! The decode scratch arena: every reusable buffer the staged decoder
//! needs, bundled so one allocation set serves a whole decode.
//!
//! The paper's profile makes Tier-1 the hot stage, and the Tier-1 inner
//! loop used to allocate three fresh `Vec`s per code-block (flags,
//! magnitudes, signs) plus four more per inverse-DWT call. A
//! [`DecodeScratch`] owns all of them; [`crate::codec::decode`] reuses
//! one across every tile, and [`crate::parallel`] gives each worker its
//! own so no synchronisation is needed. The arena also carries the work
//! counters and per-stage timings the per-tile decode tallies. Since the irreversible path went
//! fixed point, the DWT part is two `i32` buffers (one interleaved row,
//! one saved half-plane) — the arena carries no `f64` at all.

use crate::codec::DecodeTimings;
use crate::dwt::DwtScratch;
use crate::t1::T1Scratch;

/// Per-arena decode work counters: what the decoder *did*, as plain
/// integer tallies on the per-tile and per-block paths (never per
/// decision), so they stay enabled unconditionally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCounters {
    /// Tiles entropy-decoded through this arena.
    pub tiles: u64,
    /// Code-blocks decoded.
    pub code_blocks: u64,
    /// Coding passes executed.
    pub coding_passes: u64,
    /// MQ decisions that renormalised.
    pub mq_renorms: u64,
    /// Compressed bytes consumed by Tier-1.
    pub bytes_in: u64,
    /// Coefficient samples produced (tile area × components).
    pub samples_out: u64,
    /// Tiles that reused already-grown buffers (every tile after the
    /// arena's first).
    pub arena_reuses: u64,
}

impl DecodeCounters {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &DecodeCounters) {
        self.tiles = self.tiles.saturating_add(other.tiles);
        self.code_blocks = self.code_blocks.saturating_add(other.code_blocks);
        self.coding_passes = self.coding_passes.saturating_add(other.coding_passes);
        self.mq_renorms = self.mq_renorms.saturating_add(other.mq_renorms);
        self.bytes_in = self.bytes_in.saturating_add(other.bytes_in);
        self.samples_out = self.samples_out.saturating_add(other.samples_out);
        self.arena_reuses = self.arena_reuses.saturating_add(other.arena_reuses);
    }
}

/// Reusable decode buffers: the Tier-1 flags/magnitude/sign planes and
/// the DWT row/half-plane scratch. Buffers grow to the largest
/// code-block, row and half-plane seen and are then reused; dropping the
/// arena frees everything at once.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// Tier-1 per-code-block buffers.
    pub(crate) t1: T1Scratch,
    /// Inverse-DWT row and saved-half-plane buffers.
    pub(crate) dwt: DwtScratch,
    /// Tile-level tallies (the block-level ones live in `t1`).
    pub(crate) tiles: u64,
    pub(crate) samples_out: u64,
    /// Wall-clock time per decoder stage, summed over every tile the
    /// per-tile decode ran through this arena.
    pub(crate) timings: DecodeTimings,
}

impl DecodeScratch {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The work counters accumulated by every decode that used this
    /// arena.
    pub fn counters(&self) -> DecodeCounters {
        let t1 = self.t1.counters();
        DecodeCounters {
            tiles: self.tiles,
            code_blocks: t1.blocks,
            coding_passes: t1.coding_passes,
            mq_renorms: t1.mq_renorms,
            bytes_in: t1.bytes_in,
            samples_out: self.samples_out,
            arena_reuses: self.tiles.saturating_sub(1),
        }
    }
}
