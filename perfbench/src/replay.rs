//! Re-runs one completed request through each layer's public functions,
//! one call per span, so its latency can be split by layer.
//!
//! A replay repeats exactly the calls the request made on its way
//! through the stack — the client's request encode and frame write, the
//! server's frame read and request decode, the decode stages (when the
//! request was decoded rather than served from the image cache), the
//! server's response encode and frame write, and the client's frame read
//! and response decode — on the same bytes, on one otherwise idle
//! thread. The socket itself is not replayed: its cost is what remains
//! of the measured latency after every replayed layer.
//!
//! `write_frame`/`read_frame` compute the CRC-32 internally. The replay
//! times that checksum again, on the same payload, as a `checksum.crc32`
//! child of the frame span, so the frame span's self time is its framing
//! and copying alone.

use crate::corpus::Item;
use crate::trace::Tracer;
use jpeg2000::codec::{DecodeReport, StagedDecoder};
use jpeg2000::image::Image;
use jpeg2000::net::{
    decode_request, decode_response, encode_ok, encode_request, read_frame, write_frame,
    MAX_FRAME_BYTES,
};
use jpeg2000::scratch::{DecodeCounters, DecodeScratch};
use jpeg2000::service::{RequestKind, ServedFrom};
use osss_sim::checksum::crc32;
use std::hint::black_box;

/// Bytes the wire replays moved.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireBytes {
    /// Request payload bytes.
    pub request: u64,
    /// Response payload bytes.
    pub response: u64,
}

/// Whether a request with this outcome ran a decode of its own.
pub fn decoded(served: ServedFrom) -> bool {
    matches!(served, ServedFrom::Cold | ServedFrom::HeaderCache)
}

/// Replays one network request under `root`.
///
/// # Errors
///
/// A replayed call that fails or disagrees with the oracle.
pub fn replay_wire(
    tr: &mut Tracer,
    req: u64,
    root: usize,
    item: &Item,
    served: ServedFrom,
    scratch: &mut DecodeScratch,
    bytes: &mut WireBytes,
) -> Result<(), String> {
    let request = item.request();
    let payload = tr.time("net.encode_request", req, Some(root), || {
        encode_request(&request, &item.stream)
    });
    let frame = frame_out(tr, req, root, &payload);
    let got = frame_in(tr, req, root, &frame)?;
    let wire = tr
        .time("net.decode_request", req, Some(root), || {
            decode_request(&got)
        })
        .map_err(|e| format!("replayed request did not decode: {e}"))?;
    if wire.stream[..] != item.stream[..] || wire.request != request {
        return Err("replayed request differs from the one sent".to_owned());
    }
    if decoded(served) {
        replay_codec(
            tr,
            req,
            Some(root),
            item,
            scratch,
            served == ServedFrom::Cold,
        )?;
    }
    let out = tr.time("net.encode_ok", req, Some(root), || {
        encode_ok(&item.oracle, item.wire_report.as_ref(), served)
    });
    let frame = frame_out(tr, req, root, &out);
    let got = frame_in(tr, req, root, &frame)?;
    let resp = tr
        .time("net.decode_response", req, Some(root), || {
            decode_response(&got)
        })
        .map_err(|e| format!("replayed response did not decode: {e}"))?;
    if !item.matches_wire(&resp) {
        return Err("replayed response differs from the oracle".to_owned());
    }
    bytes.request += payload.len() as u64;
    bytes.response += out.len() as u64;
    Ok(())
}

fn frame_out(tr: &mut Tracer, req: u64, root: usize, payload: &[u8]) -> Vec<u8> {
    let id = tr.open("net.write_frame", req, Some(root));
    let mut frame = Vec::with_capacity(payload.len() + 12);
    write_frame(&mut frame, payload).expect("writing a frame into a Vec cannot fail");
    tr.close(id);
    black_box(tr.time("checksum.crc32", req, Some(id), || crc32(payload)));
    frame
}

fn frame_in(tr: &mut Tracer, req: u64, root: usize, frame: &[u8]) -> Result<Vec<u8>, String> {
    let id = tr.open("net.read_frame", req, Some(root));
    let payload = read_frame(&mut &frame[..], MAX_FRAME_BYTES)
        .map_err(|e| format!("replayed frame rejected: {e}"))?
        .ok_or("replayed frame is empty")?;
    tr.close(id);
    black_box(tr.time("checksum.crc32", req, Some(id), || crc32(&payload)));
    Ok(payload)
}

/// Replays the decode of `item` as the service runs it: a parse
/// (`parsed`: the request missed the header cache) and then, per tile,
/// either the five strict stages or — for tolerant, quality and
/// thumbnail requests — the whole-tile call the service makes, then the
/// tile placement. Returns the `codec.decode` span id.
///
/// # Errors
///
/// A decode failure, or an image that differs from the oracle.
pub fn replay_codec(
    tr: &mut Tracer,
    req: u64,
    parent: Option<usize>,
    item: &Item,
    scratch: &mut DecodeScratch,
    parsed: bool,
) -> Result<usize, String> {
    let kind = item.spec.kind;
    let fail = |e: jpeg2000::error::CodecError| format!("replayed decode failed: {e}");
    let root = tr.open("codec.decode", req, parent);
    let parse = || match kind {
        RequestKind::Tolerant => StagedDecoder::new_tolerant(&item.stream),
        _ => StagedDecoder::new(&item.stream).map(|d| (d, DecodeReport::default())),
    };
    let (dec, mut report) = if parsed {
        tr.time("codec.parse", req, Some(root), parse)
    } else {
        parse()
    }
    .map_err(fail)?;
    let mut image = match kind {
        RequestKind::Thumbnail { max_res } => {
            let (w, h) = dec.thumbnail_size(max_res);
            let header = dec.header();
            Image::new(w, h, header.depth, usize::from(header.num_components))
        }
        _ => dec.blank_image(),
    };
    let at = Some(root);
    for t in 0..dec.num_tiles() {
        let samples = match kind {
            RequestKind::Strict => {
                let coeffs = tr
                    .time("codec.entropy", req, at, || {
                        dec.entropy_decode_tile_with(t, scratch)
                    })
                    .map_err(fail)?;
                let wavelet = tr.time("codec.iq", req, at, || dec.dequantize_tile(&coeffs));
                let samples = tr.time("codec.idwt", req, at, || {
                    dec.idwt_tile_with(wavelet, scratch)
                });
                let samples = tr.time("codec.mct", req, at, || dec.inverse_mct_tile(samples));
                tr.time("codec.dc_shift", req, at, || dec.dc_unshift_tile(samples))
            }
            RequestKind::Tolerant => tr.time("codec.fused_tile", req, at, || {
                dec.decode_tile_tolerant_with(t, scratch, &mut report)
            }),
            RequestKind::Quality { max_layers } => tr
                .time("codec.fused_tile", req, at, || {
                    dec.decode_tile_quality_with(t, max_layers, scratch)
                })
                .map_err(fail)?,
            RequestKind::Thumbnail { max_res } => tr
                .time("codec.fused_tile", req, at, || {
                    dec.decode_tile_thumbnail_with(t, max_res, scratch)
                })
                .map_err(fail)?,
        };
        tr.time("codec.place", req, at, || {
            dec.place_tile(&mut image, &samples)
        });
    }
    tr.close(root);
    let report = (kind == RequestKind::Tolerant).then_some(report);
    if !item.matches(&image, report.as_ref()) {
        return Err(format!(
            "replayed decode of {:?} differs from the oracle",
            item.spec
        ));
    }
    Ok(root)
}

/// Decoder work counters for one decode of every item, each with a
/// fresh arena (as a cold request gets on a fresh worker). They depend
/// only on the streams, so they repeat exactly for a seed.
///
/// # Errors
///
/// As [`replay_codec`].
pub fn count_work(items: &[Item]) -> Result<DecodeCounters, String> {
    let mut total = DecodeCounters::default();
    for item in items {
        let mut scratch = DecodeScratch::new();
        let mut tr = Tracer::new(std::time::Instant::now());
        replay_codec(&mut tr, 0, None, item, &mut scratch, true)?;
        total.merge(&scratch.counters());
    }
    Ok(total)
}
