//! `perfbench` — the same-host decode-serving benchmark.
//!
//! ```text
//! perfbench --workload <cold-mixed|hot-repeat|burst-coalesce> --seed <u64>
//!           --seconds <n> --trace <0|1> [--out <dir>]
//! ```
//!
//! Sends seeded decode traffic through the public `jpeg2000` stack
//! (`net::Client` → `server::DecodeServer` → `service::DecodeService` →
//! `codec::StagedDecoder`), checks every response bit for bit against
//! the one-shot decoders, and prints one JSON result as its last line.
//!
//! * `--trace 0` measures for `--seconds` and reports the end-to-end
//!   metrics: throughput, p50/p90 latency, set-up time and peak RSS.
//! * `--trace 1` runs the same untraced pass, then a traced pass over
//!   the same requests, replays each traced request through the layers'
//!   public functions, and reports the per-layer metrics. The self-time
//!   table and every span are written under `--out` (default
//!   `perfbench/out`).
//!
//! The exit code is non-zero on any wrong output, broken accounting
//! identity or failed workload self-check.

mod corpus;
mod host;
mod layers;
mod replay;
mod stats;
mod trace;
mod workload;

use crate::host::Fingerprint;
use crate::layers::LayerTable;
use crate::replay::{count_work, decoded, replay_codec, replay_wire, WireBytes};
use crate::stats::{median, result_line, Metrics, Samples};
use crate::trace::Tracer;
use crate::workload::{check_pass, Done, Env, Pass, Workload, BURST_COPIES};
use jpeg2000::scratch::DecodeScratch;
use jpeg2000::service::ServedFrom;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The metrics an untraced run reports.
const END_TO_END: [&str; 5] = [
    "latency_p50_ms",
    "latency_p90_ms",
    "peak_rss_mib",
    "setup_s",
    "throughput_rps",
];

/// The metrics a traced run reports besides one `<row>_us` per
/// self-time table row.
const LAYER_EXTRAS: [&str; 23] = [
    "checksum.crc32_mib_s",
    "client.busy_retries",
    "codec.bytes_in",
    "codec.code_blocks",
    "codec.coding_passes",
    "codec.mq_renorms",
    "codec.samples_out",
    "net.request_bytes",
    "net.response_bytes",
    "server.busy_frac",
    "server.crc_rejects",
    "server.handler_us",
    "service.dedup_ratio",
    "service.header_hit_ratio",
    "service.image_hit_ratio",
    "service.max_queue_depth",
    "service.rejected",
    "service.service_time_us",
    "trace.matched_requests",
    "trace.overhead_us",
    "trace.traced_latency_us",
    "trace.untraced_latency_us",
    "codec.tiles",
];

/// Every metric a traced run reports.
fn per_layer_names() -> BTreeSet<String> {
    layers::ROWS
        .iter()
        .map(|row| format!("{row}_us"))
        .chain(LAYER_EXTRAS.iter().map(|s| (*s).to_owned()))
        .collect()
}

/// Longest traced pass (the replay gets half as long again). The table
/// is a mean over requests, and a few hundred of them settle it; the
/// cap keeps a traced run well inside its time limit at any `--seconds`.
const TRACED_PASS_CAP: Duration = Duration::from_secs(10);

/// Set-up runs this many times in an untraced run; `setup_s` is the
/// median. The first set-up serves the timed pass.
const SETUP_REPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload <cold-mixed|hot-repeat|burst-coalesce> \
                     --seed <u64> --seconds <n> --trace <0|1> [--out <dir>]";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut out = PathBuf::from("perfbench/out");
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = |what: &str| {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{what} {value:?}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(number("--seed")?),
                "--seconds" => seconds = Some(number("--seconds")?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    });
                }
                "--out" => out = PathBuf::from(value),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            out,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one measurement; `Ok(false)` when a check failed after a result
/// was printed.
fn run(args: &Args) -> Result<bool, String> {
    println!("host {}", Fingerprint::probe(Path::new(".")).to_json());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let started = Instant::now();
    let env = workload::setup(args.workload, args.seed)?;
    let mut setup_s = vec![started.elapsed().as_secs_f64()];
    println!(
        "corpus: {} distinct requests, order of {}, {:.1} MiB encoded, {:.1} MiB decoded, \
         digest {:016x}; set-up {:.3} s",
        env.corpus.items.len(),
        env.corpus.order.len(),
        env.corpus.stream_bytes() as f64 / f64::from(1 << 20),
        env.corpus.decoded_bytes() as f64 / f64::from(1 << 20),
        env.corpus.digest(),
        setup_s[0]
    );

    let budget = Duration::from_secs(args.seconds);
    let untraced = env.pass(env.next_start(), None, budget, false)?;
    let mut problems = Vec::new();
    problems.extend(check_pass(args.workload, &untraced).err());
    let latency_ms = Samples::new(
        untraced
            .done
            .iter()
            .map(|d| d.latency.as_secs_f64() * 1e3)
            .collect(),
    );
    let throughput = untraced.done.len() as f64 / untraced.elapsed.as_secs_f64().max(1e-9);
    let failed = untraced.failed + untraced.wrong;
    println!(
        "untraced: {} requests in {:.3} s, {throughput:.2} req/s; mean {:.4} ms; {}; \
         failed_frac = {:.6} ({failed} of {})",
        untraced.done.len(),
        untraced.elapsed.as_secs_f64(),
        latency_ms.mean(),
        latency_ms.describe("latency_p99_ms", 0.99, "ms"),
        failed as f64 / untraced.attempted.max(1) as f64,
        untraced.attempted
    );
    let m = &untraced.moved;
    println!(
        "service: {} queued, {} coalesced, image hit ratio {:.4}, header hit ratio {:.4}, \
         dedup ratio {:.4}, max queue depth {}",
        m.service.submitted,
        m.service.coalesced,
        m.image_hit_ratio(),
        m.header_hit_ratio(),
        m.dedup_ratio(),
        m.service.max_queue_depth
    );

    let mut metrics = Metrics::default();
    if args.trace {
        layer_metrics(args, &env, &untraced, &mut metrics, &mut problems)?;
    } else {
        metrics.set("throughput_rps", throughput, "1/s");
        for (name, p) in [("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)] {
            match latency_ms.percentile(p) {
                Some(v) => metrics.set(name, v, "ms"),
                None => problems.push(latency_ms.describe(name, p, "ms")),
            }
        }
        // Read before the repeated set-ups below, whose freed memory the
        // allocator may keep: the peak is that of one stack and its run.
        match host::peak_rss_mib() {
            Some(v) => metrics.set("peak_rss_mib", v, "MiB"),
            None => problems.push("VmHWM is not readable".to_owned()),
        }
    }
    problems.extend(env.finish().err());
    if !args.trace {
        for _ in 1..SETUP_REPS {
            let started = Instant::now();
            let again = workload::setup(args.workload, args.seed)?;
            setup_s.push(started.elapsed().as_secs_f64());
            problems.extend(again.finish().err());
        }
        println!("set-up times: {setup_s:?} s");
        metrics.set("setup_s", median(&setup_s), "s");
    }

    let expected: BTreeSet<String> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END.iter().map(|s| (*s).to_owned()).collect()
    };
    let emitted: BTreeSet<String> = metrics.names().map(str::to_owned).collect();
    if problems.is_empty() && emitted != expected {
        problems.push(format!(
            "emitted metrics differ from the declared set: missing {:?}, extra {:?}",
            expected.difference(&emitted).collect::<Vec<_>>(),
            emitted.difference(&expected).collect::<Vec<_>>()
        ));
    }
    for p in &problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    let correct = problems.is_empty();
    println!(
        "{}",
        result_line(correct, untraced.attempted, failed, &metrics)
    );
    Ok(correct)
}

/// The traced pass, the replay, the self-time table and the per-layer
/// metrics.
fn layer_metrics(
    args: &Args,
    env: &Env,
    untraced: &Pass,
    metrics: &mut Metrics,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let budget = Duration::from_secs(args.seconds).min(TRACED_PASS_CAP);
    let start = env.prepare_rerun(untraced)?;
    let mut traced = env.pass(start, Some(untraced.units), budget, true)?;
    problems.extend(check_pass(args.workload, &traced).err());
    let mut tracer = traced.tracer.take().expect("a traced pass records spans");
    let (replayed, bytes) = replay_all(env, &traced, &mut tracer, budget / 2)?;
    let table = LayerTable::build(env, untraced, &traced, &tracer, &replayed);
    print!("{}", table.render(args.workload));
    let (holds, evidence) = table.shape(args.workload);
    println!(
        "  shape: {evidence} -> prediction {}",
        if holds { "holds" } else { "does not hold" }
    );
    if !table.identity_holds() {
        problems.push(format!(
            "timed parts exceed the untraced latency: residual {:.1} us of {:.1} us",
            table.residual_us(),
            table.untraced_us
        ));
    }

    for (row, v) in &table.rows {
        metrics.set(&format!("{row}_us"), *v, "us");
    }
    let n = replayed.len().max(1) as f64;
    let crc_s = tracer
        .self_times(|r| replayed.contains(&r))
        .get("checksum.crc32")
        .map_or(0.0, Duration::as_secs_f64);
    // Each request's payload is checksummed twice, response likewise.
    let crc_mib = 2.0 * (bytes.request + bytes.response) as f64 / f64::from(1 << 20);
    metrics.set(
        "checksum.crc32_mib_s",
        if crc_s > 0.0 { crc_mib / crc_s } else { 0.0 },
        "MiB/s",
    );
    metrics.set("net.request_bytes", bytes.request as f64 / n, "bytes");
    metrics.set("net.response_bytes", bytes.response as f64 / n, "bytes");

    let moved = &traced.moved;
    let (handler_us, frames) = moved.handler_us;
    metrics.set("server.handler_us", handler_us / frames.max(1) as f64, "us");
    metrics.set(
        "service.service_time_us",
        moved.service_time_us / traced.done.len().max(1) as f64,
        "us",
    );
    let m = &untraced.moved;
    metrics.set(
        "server.busy_frac",
        m.busy as f64 / m.frames_in.max(1) as f64,
        "ratio",
    );
    metrics.set("server.crc_rejects", m.crc_rejects as f64, "count");
    metrics.set("client.busy_retries", untraced.busy_retries as f64, "count");
    metrics.set(
        "service.max_queue_depth",
        m.service.max_queue_depth as f64,
        "count",
    );
    metrics.set("service.rejected", m.service.rejected as f64, "count");
    metrics.set("service.dedup_ratio", m.dedup_ratio(), "ratio");
    metrics.set("service.image_hit_ratio", m.image_hit_ratio(), "ratio");
    metrics.set("service.header_hit_ratio", m.header_hit_ratio(), "ratio");

    let work = count_work(&env.corpus.items)?;
    let per_item = env.corpus.items.len() as f64;
    for (name, v) in [
        ("codec.tiles", work.tiles),
        ("codec.code_blocks", work.code_blocks),
        ("codec.coding_passes", work.coding_passes),
        ("codec.mq_renorms", work.mq_renorms),
        ("codec.bytes_in", work.bytes_in),
        ("codec.samples_out", work.samples_out),
    ] {
        metrics.set(name, v as f64 / per_item, "count");
    }
    metrics.set("trace.untraced_latency_us", table.untraced_us, "us");
    metrics.set("trace.traced_latency_us", table.traced_us, "us");
    metrics.set(
        "trace.overhead_us",
        table.traced_us - table.untraced_us,
        "us",
    );
    metrics.set("trace.matched_requests", table.matched as f64, "count");

    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let spans = args.out.join(format!("{stem}.spans.jsonl"));
    tracer
        .write_jsonl(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    let table_path = args.out.join(format!("{stem}.layers.txt"));
    std::fs::write(&table_path, table.render(args.workload))
        .map_err(|e| format!("writing {}: {e}", table_path.display()))?;
    println!(
        "wrote {} spans to {} and the table to {}",
        tracer.spans().len(),
        spans.display(),
        table_path.display()
    );
    Ok(())
}

/// Replays the traced pass's requests until `budget` runs out;
/// returns the requests covered and the wire bytes moved.
fn replay_all(
    env: &Env,
    traced: &Pass,
    tr: &mut Tracer,
    budget: Duration,
) -> Result<(BTreeSet<u64>, WireBytes), String> {
    let started = Instant::now();
    let mut roots = HashMap::new();
    let mut service_spans = HashMap::new();
    for (id, s) in tr.spans().iter().enumerate() {
        if s.parent.is_none() {
            roots.insert(s.request, id);
        } else if s.name == "service.service_time" {
            service_spans.insert(s.request, id);
        }
    }
    let mut scratch = DecodeScratch::new();
    let mut bytes = WireBytes::default();
    let mut replayed = BTreeSet::new();
    // A fixed pseudo-random order (a multiplicative hash is a bijection
    // on u64), so a replay the budget cuts short is still a uniform
    // sample of the pass — not its first seconds, nor the first streams
    // of every burst.
    let interleaved = |unit: u64| unit.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if env.workload.over_tcp() {
        let mut done: Vec<_> = traced.done.iter().collect();
        done.sort_by_key(|d| interleaved(d.request));
        for d in done {
            if started.elapsed() >= budget {
                break;
            }
            let item = env.item_of(traced.first, d.request);
            replay_wire(
                tr,
                d.request,
                roots[&d.request],
                item,
                d.served,
                &mut scratch,
                &mut bytes,
            )?;
            replayed.insert(d.request);
        }
    } else {
        // One decode per flight, attributed to every request that waited
        // on it.
        let flight_of = |r: u64| r / BURST_COPIES as u64;
        let mut flights: Vec<&[Done]> = traced
            .done
            .chunk_by(|a, b| flight_of(a.request) == flight_of(b.request))
            .collect();
        flights.sort_by_key(|f| interleaved(flight_of(f[0].request)));
        for flight in flights {
            if started.elapsed() >= budget {
                break;
            }
            let leader = flight
                .iter()
                .find(|d| decoded(d.served))
                .ok_or_else(|| format!("a burst flight resolved without a decode: {flight:?}"))?;
            let item = env.item_of(traced.first, leader.request);
            let decode = replay_codec(
                tr,
                leader.request,
                Some(service_spans[&leader.request]),
                item,
                &mut scratch,
                leader.served == ServedFrom::Cold,
            )?;
            for d in flight {
                if d.request != leader.request {
                    tr.copy_subtree(decode, service_spans[&d.request], d.request);
                }
                replayed.insert(d.request);
            }
        }
    }
    Ok((replayed, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = parse(&[
            "--workload",
            "hot-repeat",
            "--seed",
            "5",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::HotRepeat);
        assert_eq!((a.seed, a.seconds, a.trace), (5, 3, true));
        assert!(parse(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(parse(&["--workload", "hot-repeat", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&[
            "--workload",
            "hot-repeat",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(parse(&[
            "--workload",
            "hot-repeat",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn every_emitted_name_is_valid() {
        for name in END_TO_END
            .iter()
            .map(|s| (*s).to_owned())
            .chain(per_layer_names())
        {
            assert!(stats::valid_name(&name), "{name}");
        }
    }

    /// The names between `"<section>":` and the next top-level key.
    fn declared(json: &str, section: &str, next: &str) -> BTreeSet<String> {
        let start = json.find(&format!("\"{section}\"")).expect(section);
        let end = json[start..]
            .find(&format!("\"{next}\""))
            .map_or(json.len(), |e| start + e);
        json[start..end]
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_owned())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_is_emitted() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        let workloads: BTreeSet<String> =
            Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(declared(&json, "workloads", "end_to_end"), workloads);
        let e2e: BTreeSet<String> = END_TO_END.iter().map(|s| (*s).to_owned()).collect();
        assert_eq!(declared(&json, "end_to_end", "per_layer"), e2e);
        assert_eq!(declared(&json, "per_layer", "}"), per_layer_names());
    }
}
