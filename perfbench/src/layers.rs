//! The per-layer self-time table of a traced run.
//!
//! Rows are mean self time per request over the requests both passes
//! completed and the replay covered. Replayed layers come from spans;
//! over TCP, the server and service rows come from the registry the
//! stack was started with (per-request values do not cross the wire).
//! `socket.residual` is the untraced latency minus every other row, so
//! the rows add up to the untraced latency by construction; the check
//! is that the residual is not negative beyond [`IDENTITY_TOLERANCE`],
//! i.e. that the timed parts do not claim more than the whole.

use crate::trace::Tracer;
use crate::workload::{Env, Pass, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// How far (as a share of the untraced latency) the timed parts may
/// exceed the untraced latency before the split counts as broken. The
/// parts come from a later pass and an idle-thread replay, so they carry
/// that pass's drift: on the 2-core host this was sized on, two passes of
/// the same requests differed by up to 8 % in mean latency. A split that
/// counts a layer twice overshoots by far more (the checksum alone is
/// 70 % of a hot request).
pub const IDENTITY_TOLERANCE: f64 = 0.15;

/// Table rows in pipeline order. Each becomes the per-layer metric
/// `<row>_us`.
pub const ROWS: [&str; 20] = [
    "net.encode_request",
    "net.write_frame",
    "checksum.crc32",
    "net.read_frame",
    "net.decode_request",
    "server.self",
    "service.queue_wait",
    "service.self",
    "codec.decode",
    "codec.parse",
    "codec.entropy",
    "codec.iq",
    "codec.idwt",
    "codec.mct",
    "codec.dc_shift",
    "codec.place",
    "codec.fused_tile",
    "net.encode_ok",
    "net.decode_response",
    "socket.residual",
];

/// A traced run's split of one request's latency.
#[derive(Debug)]
pub struct LayerTable {
    /// Requests the means are taken over.
    pub matched: usize,
    /// Mean self time per request, µs, by row.
    pub rows: BTreeMap<&'static str, f64>,
    /// Mean untraced latency over the matched requests, µs.
    pub untraced_us: f64,
    /// Mean traced latency over the matched requests, µs.
    pub traced_us: f64,
}

impl LayerTable {
    /// Splits the untraced latency using the traced pass's spans.
    pub fn build(
        env: &Env,
        untraced: &Pass,
        traced: &Pass,
        tracer: &Tracer,
        replayed: &BTreeSet<u64>,
    ) -> Self {
        let latency = |p: &Pass| -> BTreeMap<u64, f64> {
            p.done
                .iter()
                .map(|d| (d.request, d.latency.as_secs_f64() * 1e6))
                .collect()
        };
        let (u, t) = (latency(untraced), latency(traced));
        let matched: BTreeSet<u64> = replayed
            .iter()
            .copied()
            .filter(|r| u.contains_key(r) && t.contains_key(r))
            .collect();
        let n = matched.len().max(1) as f64;
        let mean_of = |m: &BTreeMap<u64, f64>| matched.iter().map(|r| m[r]).sum::<f64>() / n;
        let (untraced_us, traced_us) = (mean_of(&u), mean_of(&t));

        let mut rows: BTreeMap<&'static str, f64> = ROWS.iter().map(|&r| (r, 0.0)).collect();
        for (name, total) in tracer.self_times(|r| matched.contains(&r)) {
            let row = if name == "service.service_time" {
                "service.self"
            } else {
                name
            };
            *rows.get_mut(row).expect("every span name has a row") += total.as_secs_f64() * 1e6 / n;
        }
        if env.workload.over_tcp() {
            let m = &traced.moved;
            let per_request = traced.done.len().max(1) as f64;
            let queue_wait = m.queue_wait_us / per_request;
            let service_time = m.service_time_us / per_request;
            let handler = m.handler_us.0 / per_request;
            let codec: f64 = rows
                .iter()
                .filter(|(k, _)| k.starts_with("codec."))
                .map(|(_, v)| v)
                .sum();
            rows.insert("service.queue_wait", queue_wait);
            rows.insert("service.self", service_time - codec);
            rows.insert(
                "server.self",
                handler
                    - queue_wait
                    - service_time
                    - rows["net.decode_request"]
                    - rows["net.encode_ok"],
            );
        }
        let parts: f64 = rows.values().sum();
        rows.insert("socket.residual", untraced_us - parts);
        LayerTable {
            matched: matched.len(),
            rows,
            untraced_us,
            traced_us,
        }
    }

    /// The residual row, µs.
    pub fn residual_us(&self) -> f64 {
        self.rows["socket.residual"]
    }

    /// Whether the timed parts stay within the untraced latency.
    pub fn identity_holds(&self) -> bool {
        self.residual_us() >= -IDENTITY_TOLERANCE * self.untraced_us
    }

    /// Self time summed by layer (the row name up to the first `.`).
    pub fn by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (row, v) in &self.rows {
            let layer = row
                .split('.')
                .next()
                .expect("split yields at least one part");
            *out.entry(layer).or_insert(0.0) += v;
        }
        out
    }

    /// Whether the measured split has the shape the workload was built
    /// to produce, with the evidence.
    pub fn shape(&self, workload: Workload) -> (bool, String) {
        let largest = |m: &BTreeMap<&'static str, f64>| {
            m.iter()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(k, v)| (*k, *v))
                .expect("the table has rows")
        };
        let (row, row_us) = largest(&self.rows);
        let layers = self.by_layer();
        match workload {
            Workload::ColdMixed => (
                row == "codec.entropy",
                format!("predicted codec.entropy largest; largest row is {row} ({row_us:.1} us)"),
            ),
            Workload::BurstCoalesce => (
                row == "service.queue_wait",
                format!(
                    "predicted service.queue_wait largest; largest row is {row} ({row_us:.1} us)"
                ),
            ),
            Workload::HotRepeat => {
                let wire =
                    layers.get("checksum").unwrap_or(&0.0) + layers.get("net").unwrap_or(&0.0);
                let other = layers
                    .iter()
                    .filter(|(k, _)| !matches!(**k, "checksum" | "net"))
                    .map(|(k, v)| (*k, *v))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .unwrap_or(("none", 0.0));
                (
                    wire > other.1,
                    format!(
                        "predicted checksum + net largest; checksum + net = {wire:.1} us, \
                         next layer {} = {:.1} us",
                        other.0, other.1
                    ),
                )
            }
        }
    }

    /// The printable table.
    pub fn render(&self, workload: Workload) -> String {
        let mut out = String::new();
        let total = self.untraced_us.max(f64::MIN_POSITIVE);
        let _ = writeln!(
            out,
            "layer self time, {} (mean per request over {} requests)",
            workload.name(),
            self.matched
        );
        for row in ROWS {
            let v = self.rows[row];
            let _ = writeln!(out, "  {row:<22} {v:>12.1} us {:>7.2} %", v / total * 100.0);
        }
        let _ = writeln!(
            out,
            "  {:<22} {:>12.1} us  (rows sum to it; residual must be >= -{:.0} % of it)",
            "= untraced latency",
            self.untraced_us,
            IDENTITY_TOLERANCE * 100.0
        );
        let _ = writeln!(
            out,
            "  {:<22} {:>12.1} us  (tracing overhead {:+.1} us)",
            "traced latency",
            self.traced_us,
            self.traced_us - self.untraced_us
        );
        let layers: Vec<String> = self
            .by_layer()
            .iter()
            .map(|(k, v)| format!("{k} {:.1} %", v / total * 100.0))
            .collect();
        let _ = writeln!(out, "  by layer: {}", layers.join(", "));
        out
    }
}
