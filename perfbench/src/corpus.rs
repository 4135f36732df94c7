//! Seeded workload generator: synthetic codestreams, the one request
//! order every client shares, and the one-shot oracle for every request.
//!
//! The seed fixes everything the program receives — image content,
//! encoded bytes, and the order — while the *composition* of a corpus
//! (how many streams of each geometry, mode and kind) is fixed by the
//! mix tables below, so every seed asks the same amount of work of the
//! decoder and runs with different seeds are comparable.

use jpeg2000::codec::{
    decode, decode_quality, decode_thumbnail, decode_tolerant, encode, DecodeReport, EncodeParams,
    Mode,
};
use jpeg2000::image::Image;
use jpeg2000::net::{NetResponse, WireReport};
use jpeg2000::service::{Request, RequestKind};
use std::sync::Arc;

/// SplitMix64: a small, well-mixed generator whose output depends only
/// on its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// One stream's geometry, coding mode and requested decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Image side in pixels (square RGB).
    pub side: usize,
    /// Tile side in pixels.
    pub tile: usize,
    /// 9/7 + ICT when set, 5/3 + RCT otherwise.
    pub lossy: bool,
    /// The decode variant requested.
    pub kind: RequestKind,
    /// Side of the decoded output (smaller than `side` for thumbnails).
    pub out_side: usize,
}

impl Spec {
    const fn new(
        side: usize,
        tile: usize,
        lossy: bool,
        kind: RequestKind,
        out_side: usize,
    ) -> Self {
        Spec {
            side,
            tile,
            lossy,
            kind,
            out_side,
        }
    }

    /// Bytes the service's image cache charges for this decode
    /// (`width * height * components * 4`).
    pub const fn output_bytes(&self) -> usize {
        self.out_side * self.out_side * 3 * 4
    }
}

/// Quality layers coded into streams that are requested with
/// [`RequestKind::Quality`].
const QUALITY_LAYERS: u8 = 2;

const STRICT: RequestKind = RequestKind::Strict;
const THUMB: RequestKind = RequestKind::Thumbnail { max_res: 1 };

/// The cold corpus repeats this block: the Table-1 geometry (128² with
/// 32² tiles) and 256² with 64² tiles, both modes, mostly strict with
/// one tolerant, one quality and one thumbnail request per block. A
/// quarter of the requests are 256², so the median latency falls on a
/// 128² decode and the 90th percentile on a 256² decode for every seed.
pub const COLD_MIX: [Spec; 8] = [
    Spec::new(128, 32, false, STRICT, 128),
    Spec::new(128, 32, true, STRICT, 128),
    Spec::new(256, 64, false, STRICT, 256),
    Spec::new(128, 32, false, RequestKind::Tolerant, 128),
    Spec::new(128, 32, true, RequestKind::Quality { max_layers: 1 }, 128),
    Spec::new(256, 64, true, STRICT, 256),
    Spec::new(128, 32, false, THUMB, 32),
    Spec::new(128, 32, true, STRICT, 128),
];

/// The hot set: responses of 12 KiB (thumbnail), 196 KiB (128²) and
/// 768 KiB (256²) — together far below the image-cache budget.
pub const HOT_MIX: [Spec; 4] = [
    Spec::new(128, 32, false, THUMB, 32),
    Spec::new(128, 32, false, STRICT, 128),
    Spec::new(128, 32, true, STRICT, 128),
    Spec::new(256, 64, false, STRICT, 256),
];

/// Each hot stream appears this many times in the hot order.
const HOT_REPEATS: usize = 64;

/// The cold corpus decodes to at least this multiple of the image-cache
/// budget. Under LRU, a cyclic order over more than the budget misses on
/// every request: each stream's previous decode was evicted by the
/// (corpus − one stream) bytes decoded since.
const COLD_OVERSUBSCRIPTION: (usize, usize) = (5, 4);

const COLD_SALT: u64 = 0xC01D_5EED_0000_0001;
const HOT_SALT: u64 = 0x0407_5EED_0000_0002;

/// One distinct request: the stream, its decode variant and the
/// expected result.
#[derive(Debug)]
pub struct Item {
    /// How the stream was made and what is asked of it.
    pub spec: Spec,
    /// The encoded stream — all the program receives.
    pub stream: Arc<[u8]>,
    /// The one-shot decoder's output for this request.
    pub oracle: Arc<Image>,
    /// The one-shot tolerant report (tolerant requests only).
    pub report: Option<DecodeReport>,
    /// `report` as the wire summarises it.
    pub wire_report: Option<WireReport>,
}

impl Item {
    /// The request sent for this item (no deadline).
    pub fn request(&self) -> Request {
        Request {
            kind: self.spec.kind,
            timeout: None,
        }
    }

    /// Whether an in-process response matches the oracle bit for bit.
    pub fn matches(&self, image: &Image, report: Option<&DecodeReport>) -> bool {
        *image == *self.oracle && report == self.report.as_ref()
    }

    /// Whether a network response matches the oracle bit for bit.
    pub fn matches_wire(&self, resp: &NetResponse) -> bool {
        resp.image == *self.oracle && resp.report == self.wire_report
    }
}

/// The distinct requests of a workload plus the order they are sent in.
#[derive(Debug)]
pub struct Corpus {
    /// Distinct requests.
    pub items: Vec<Item>,
    /// Indices into `items`; request `i` of a run is
    /// `items[order[i % order.len()]]`, whichever client sends it.
    pub order: Vec<usize>,
}

impl Corpus {
    /// The cold corpus: [`COLD_MIX`] blocks until the decoded size
    /// exceeds `cache_bytes` by [`COLD_OVERSUBSCRIPTION`] and the item
    /// count is a multiple of `granule` (itself a multiple of the block
    /// length), so runs of `granule` requests tile the order. The order is
    /// the blocks in a seeded order, each block's streams in
    /// [`COLD_MIX`] order, so every aligned run of `granule` requests asks
    /// the same mix of the decoder whatever the seed. It repeats unchanged every cycle (a fresh shuffle per cycle
    /// would put some streams back to back across the seam).
    ///
    /// # Errors
    ///
    /// An encode or oracle decode failure.
    pub fn cold(seed: u64, cache_bytes: usize, granule: usize) -> Result<Self, String> {
        assert!(
            granule.is_multiple_of(COLD_MIX.len()),
            "the granule is whole blocks"
        );
        let (num, den) = COLD_OVERSUBSCRIPTION;
        let target = cache_bytes / den * num;
        let mut specs = Vec::new();
        let mut bytes = 0;
        while bytes <= target || !specs.len().is_multiple_of(granule) {
            let spec = COLD_MIX[specs.len() % COLD_MIX.len()];
            bytes += spec.output_bytes();
            specs.push(spec);
        }
        let mut rng = SplitMix64::new(seed ^ COLD_SALT);
        let items = build(&specs, &mut rng)?;
        let mut blocks: Vec<usize> = (0..items.len() / COLD_MIX.len()).collect();
        rng.shuffle(&mut blocks);
        let order = blocks
            .into_iter()
            .flat_map(|b| b * COLD_MIX.len()..(b + 1) * COLD_MIX.len())
            .collect();
        Ok(Corpus { items, order })
    }

    /// The hot corpus: one stream per [`HOT_MIX`] entry, each appearing
    /// [`HOT_REPEATS`] times in a seeded order.
    ///
    /// # Errors
    ///
    /// An encode or oracle decode failure.
    pub fn hot(seed: u64) -> Result<Self, String> {
        let mut rng = SplitMix64::new(seed ^ HOT_SALT);
        let items = build(&HOT_MIX, &mut rng)?;
        let mut order: Vec<usize> = (0..items.len())
            .flat_map(|i| std::iter::repeat_n(i, HOT_REPEATS))
            .collect();
        rng.shuffle(&mut order);
        Ok(Corpus { items, order })
    }

    /// Request `i` of the shared order.
    pub fn at(&self, i: usize) -> &Item {
        &self.items[self.order[i % self.order.len()]]
    }

    /// Total bytes the image cache would charge to hold every item.
    pub fn decoded_bytes(&self) -> usize {
        self.items.iter().map(|it| it.spec.output_bytes()).sum()
    }

    /// Total encoded bytes (what the header cache charges to hold every
    /// item).
    pub fn stream_bytes(&self) -> usize {
        self.items.iter().map(|it| it.stream.len()).sum()
    }

    /// FNV-1a over every stream and the order: equal digests mean the
    /// program receives byte-identical input.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for item in &self.items {
            eat(&(item.stream.len() as u64).to_le_bytes());
            eat(&item.stream);
        }
        for &i in &self.order {
            eat(&(i as u64).to_le_bytes());
        }
        h
    }
}

/// Threads that encode the corpus and compute its oracles.
const BUILD_THREADS: usize = 2;

/// Makes one item per spec. Image seeds are drawn in spec order before
/// any work is split across threads, so the result does not depend on
/// thread timing.
fn build(specs: &[Spec], rng: &mut SplitMix64) -> Result<Vec<Item>, String> {
    let jobs: Vec<(Spec, u64)> = specs.iter().map(|&s| (s, rng.next_u64())).collect();
    let mut slots: Vec<Option<Result<Item, String>>> = (0..jobs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let jobs = &jobs;
        let handles: Vec<_> = (0..BUILD_THREADS)
            .map(|k| {
                scope.spawn(move || {
                    jobs.iter()
                        .enumerate()
                        .skip(k)
                        .step_by(BUILD_THREADS)
                        .map(|(i, &(spec, image_seed))| (i, make_item(spec, image_seed)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, item) in handle.join().expect("a corpus encoding thread panicked") {
                slots[i] = Some(item);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every corpus slot is built"))
        .collect()
}

fn make_item(spec: Spec, image_seed: u64) -> Result<Item, String> {
    let image = Image::synthetic_rgb(spec.side, spec.side, image_seed);
    let mode = if spec.lossy {
        Mode::lossy_default()
    } else {
        Mode::Lossless
    };
    let mut params = EncodeParams::new(mode).tile_size(spec.tile, spec.tile);
    if matches!(spec.kind, RequestKind::Quality { .. }) {
        params = params.layers(QUALITY_LAYERS);
    }
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{what} of {spec:?}: {e}");
    let stream = encode(&image, &params).map_err(|e| fail("encode", &e))?;
    let (oracle, report) = match spec.kind {
        RequestKind::Strict => (decode(&stream).map_err(|e| fail("decode", &e))?.image, None),
        RequestKind::Tolerant => {
            let (img, report) = decode_tolerant(&stream).map_err(|e| fail("decode", &e))?;
            (img, Some(report))
        }
        RequestKind::Quality { max_layers } => (
            decode_quality(&stream, max_layers).map_err(|e| fail("decode", &e))?,
            None,
        ),
        RequestKind::Thumbnail { max_res } => (
            decode_thumbnail(&stream, max_res).map_err(|e| fail("decode", &e))?,
            None,
        ),
    };
    if (oracle.width, oracle.height) != (spec.out_side, spec.out_side) {
        return Err(format!(
            "{spec:?} decoded to {}x{}, expected {}²",
            oracle.width, oracle.height, spec.out_side
        ));
    }
    let wire_report = report.as_ref().map(WireReport::summarise);
    Ok(Item {
        spec,
        stream: stream.into(),
        oracle: Arc::new(oracle),
        report,
        wire_report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small budget keeps the debug-build tests quick; the production
    /// budget comes from `ServiceConfig::default()`.
    const TEST_CACHE: usize = 4 << 20;

    #[test]
    fn same_seed_gives_byte_identical_input() {
        let a = Corpus::cold(7, TEST_CACHE, COLD_MIX.len()).unwrap();
        let b = Corpus::cold(7, TEST_CACHE, COLD_MIX.len()).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.order, b.order);
        for (x, y) in a.items.iter().zip(&b.items) {
            assert_eq!(x.stream, y.stream);
            assert_eq!(x.spec, y.spec);
        }
        assert_eq!(
            Corpus::hot(7).unwrap().digest(),
            Corpus::hot(7).unwrap().digest()
        );
    }

    #[test]
    fn different_seed_gives_different_input_of_the_same_composition() {
        let a = Corpus::cold(7, TEST_CACHE, COLD_MIX.len()).unwrap();
        let b = Corpus::cold(8, TEST_CACHE, COLD_MIX.len()).unwrap();
        assert_ne!(a.digest(), b.digest());
        assert!(a
            .items
            .iter()
            .zip(&b.items)
            .all(|(x, y)| x.stream != y.stream));
        let specs = |c: &Corpus| c.items.iter().map(|i| i.spec).collect::<Vec<_>>();
        assert_eq!(specs(&a), specs(&b));
        assert_ne!(
            Corpus::hot(7).unwrap().digest(),
            Corpus::hot(8).unwrap().digest()
        );
    }

    #[test]
    fn cold_corpus_oversubscribes_the_cache() {
        let c = Corpus::cold(1, TEST_CACHE, 2 * COLD_MIX.len()).unwrap();
        assert!(c.decoded_bytes() > TEST_CACHE / 4 * 5);
        assert!(c.items.len().is_multiple_of(2 * COLD_MIX.len()));
        let mut sorted = c.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..c.items.len()).collect::<Vec<_>>());
        // The order is cyclic: request i and i + len are the same item.
        assert!(std::ptr::eq(c.at(3), c.at(3 + c.order.len())));
        // Every aligned block is one of each mix entry, in mix order.
        for block in c.order.chunks(COLD_MIX.len()) {
            let specs: Vec<Spec> = block.iter().map(|&i| c.items[i].spec).collect();
            assert_eq!(specs, COLD_MIX);
        }
    }

    #[test]
    fn hot_corpus_fits_and_repeats_each_item_equally() {
        let c = Corpus::hot(1).unwrap();
        assert_eq!(c.items.len(), HOT_MIX.len());
        assert!(c.decoded_bytes() < TEST_CACHE * 2);
        for i in 0..c.items.len() {
            assert_eq!(c.order.iter().filter(|&&j| j == i).count(), HOT_REPEATS);
        }
        let sizes: Vec<usize> = c.items.iter().map(|i| i.spec.output_bytes()).collect();
        assert_eq!(sizes, [12 << 10, 192 << 10, 192 << 10, 768 << 10]);
    }

    #[test]
    fn oracles_match_their_own_streams() {
        let c = Corpus::hot(3).unwrap();
        for item in &c.items {
            assert!(item.matches(&item.oracle, item.report.as_ref()));
        }
    }
}
