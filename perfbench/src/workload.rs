//! The three workloads, their set-up, timed passes and self-checks.
//!
//! All three run the same stack with the same configuration — a
//! [`DecodeService`] on `ServiceConfig::default()` with [`WORKERS`]
//! workers, behind a [`DecodeServer`] on `ServerConfig::default()` for
//! the two network workloads — and differ only in the traffic they send:
//!
//! * `cold-mixed` — [`CLIENTS`] blocking TCP clients in a closed loop
//!   over a cold corpus larger than the image cache: every request is a
//!   decode.
//! * `hot-repeat` — the same clients over a few streams warmed into the
//!   image cache: every request is a cache hit, and the time goes to the
//!   wire, the checksums and the copies.
//! * `burst-coalesce` — one in-process generator submitting bursts of
//!   [`BURST_DISTINCT`] cold streams × [`BURST_COPIES`] identical copies:
//!   the queue and single-flight coalescing do the work.

use crate::corpus::{Corpus, Item};
use crate::trace::Tracer;
use jpeg2000::net::{Client, NetError, NetResponse};
use jpeg2000::server::{DecodeServer, ServerConfig, ServerStats};
use jpeg2000::service::{
    DecodeService, ServedFrom, ServiceConfig, ServiceError, ServiceResponse, ServiceStats, Ticket,
};
use osss_sim::probe::MetricsRegistry;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Decode workers (the machine this benchmark was sized on has 2 cores).
pub const WORKERS: usize = 2;
/// Concurrent TCP clients, each on its own connection and thread.
pub const CLIENTS: usize = 2;
/// Distinct cold streams per burst: two [`crate::corpus::COLD_MIX`]
/// blocks, so every burst asks the same decode work. Each burst ends on
/// its slowest decode, so a worker descheduled by a loaded host stretches
/// the whole burst; on the 2-core host this was sized on, bursts of 16
/// measured steadier than bursts of 8 (throughput varied 5 % against 8 %
/// over five alternating runs).
pub const BURST_DISTINCT: usize = 16;
/// Identical submissions of each stream per burst.
pub const BURST_COPIES: usize = 4;
/// Busy answers a request absorbs (reconnecting each time) before it
/// counts as failed. A retry stays part of its request's latency.
const MAX_BUSY_RETRIES: u32 = 8;
/// Highest image-cache hit ratio `cold-mixed` may show and still be
/// cold. A cyclic order over more than the cache misses on every
/// request under LRU; the ceiling leaves room for a smarter cache policy
/// to show a real gain without failing the run.
const COLD_HIT_CEILING: f64 = 0.05;

/// Highest share of `burst-coalesce` copies that may arrive after their
/// flight finished (and hit the image cache) instead of coalescing.
const LATE_COPY_CEILING: f64 = 0.02;

/// A named traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold decodes over TCP.
    ColdMixed,
    /// Image-cache hits over TCP.
    HotRepeat,
    /// In-process bursts of identical requests.
    BurstCoalesce,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ColdMixed,
        Workload::HotRepeat,
        Workload::BurstCoalesce,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMixed => "cold-mixed",
            Workload::HotRepeat => "hot-repeat",
            Workload::BurstCoalesce => "burst-coalesce",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload goes through the TCP server.
    pub fn over_tcp(self) -> bool {
        self != Workload::BurstCoalesce
    }

    /// Order entries one unit of a pass consumes: a request over TCP, a
    /// whole burst's distinct streams in-process.
    fn stride(self) -> usize {
        if self.over_tcp() {
            1
        } else {
            BURST_DISTINCT
        }
    }
}

/// One completed request.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Index of the request within its pass.
    pub request: u64,
    /// Measured latency.
    pub latency: Duration,
    /// Which path served it.
    pub served: ServedFrom,
}

/// Counter and histogram movement over one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Movement {
    /// Service tallies (differences, except the high-water marks).
    pub service: ServiceStats,
    /// Server frames received.
    pub frames_in: u64,
    /// Server busy answers.
    pub busy: u64,
    /// Server CRC rejections.
    pub crc_rejects: u64,
    /// Summed `service.queue_wait` observations, µs.
    pub queue_wait_us: f64,
    /// Summed `service.service_time` observations, µs.
    pub service_time_us: f64,
    /// Summed `server.latency` observations, µs, and their count.
    pub handler_us: (f64, u64),
}

/// The outcome of one timed pass.
#[derive(Debug)]
pub struct Pass {
    /// Order index of the pass's request 0.
    pub first: usize,
    /// Pass units (requests, or bursts) started.
    pub units: usize,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Requests answered with an image that differs from the oracle.
    pub wrong: u64,
    /// Busy answers retried.
    pub busy_retries: u64,
    /// Completed requests.
    pub done: Vec<Done>,
    /// From the start of the pass to its last completion.
    pub elapsed: Duration,
    /// What the service and server counted meanwhile.
    pub moved: Movement,
    /// Root spans (one per request, named `request`) and, in-process,
    /// the service spans under them — when the pass was traced.
    pub tracer: Option<Tracer>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

/// A running stack with its corpus, ready for timed passes.
pub struct Env {
    /// The traffic mix.
    pub workload: Workload,
    /// The generated input.
    pub corpus: Corpus,
    registry: MetricsRegistry,
    service: Arc<DecodeService>,
    server: Option<DecodeServer>,
    /// Order index where the next pass may start.
    next: usize,
}

/// Builds the corpus and its oracles, starts the stack and warms it.
///
/// # Errors
///
/// Any failure to build, start or warm up.
pub fn setup(workload: Workload, seed: u64) -> Result<Env, String> {
    let cache = ServiceConfig::default().image_cache_bytes;
    let corpus = match workload {
        Workload::HotRepeat => Corpus::hot(seed)?,
        _ => Corpus::cold(seed, cache, BURST_DISTINCT)?,
    };
    let fits = corpus.decoded_bytes() < cache;
    if fits != (workload == Workload::HotRepeat) {
        return Err(format!(
            "{}: corpus decodes to {} bytes against an image cache of {cache}",
            workload.name(),
            corpus.decoded_bytes()
        ));
    }
    let registry = MetricsRegistry::new();
    let service = Arc::new(DecodeService::new(ServiceConfig {
        workers: WORKERS,
        metrics: Some(registry.clone()),
        ..ServiceConfig::default()
    }));
    let server = if workload.over_tcp() {
        let config = ServerConfig {
            metrics: Some(registry.clone()),
            ..ServerConfig::default()
        };
        Some(
            DecodeServer::start(Arc::clone(&service), "127.0.0.1:0", config)
                .map_err(|e| format!("starting the server: {e}"))?,
        )
    } else {
        None
    };
    let mut env = Env {
        workload,
        corpus,
        registry,
        service,
        server,
        next: 0,
    };
    env.warm_up()?;
    Ok(env)
}

impl Env {
    fn addr(&self) -> SocketAddr {
        self.server
            .as_ref()
            .expect("network workloads run a server")
            .local_addr()
    }

    fn warm_up(&mut self) -> Result<(), String> {
        match self.workload {
            Workload::ColdMixed | Workload::BurstCoalesce => {
                // One full cycle: the header cache (which holds the whole
                // cold corpus) reaches its steady state, so the timed
                // pass does not start with a run of parses.
                let units = self.corpus.order.len() / self.workload.stride();
                let pass = self.pass(0, Some(units), Duration::MAX, false)?;
                check_pass(self.workload, &pass)?;
                self.next = self.corpus.order.len();
            }
            Workload::HotRepeat => {
                // Twice each: the first decodes and fills the cache, the
                // second proves the hit path.
                let mut client = connect(self.addr())?;
                for item in self.corpus.items.iter().chain(&self.corpus.items) {
                    self.warm_one(&mut client, item)?;
                }
            }
        }
        Ok(())
    }

    fn warm_one(&self, client: &mut Client, item: &Item) -> Result<(), String> {
        let mut retries = 0;
        let resp = call(client, self.addr(), item, &mut retries)?;
        if item.matches_wire(&resp) {
            Ok(())
        } else {
            Err(format!(
                "warm-up response for {:?} differs from the oracle",
                item.spec
            ))
        }
    }

    /// Prepares a repeat of `pass` over the same requests and returns
    /// the order index it starts at: congruent to the pass's start modulo
    /// the order length, and past everything the pass consumed. The
    /// entries in between are sent untimed, so the caches see the same
    /// cyclic history the first pass saw — skipping them would leave the
    /// repeat's first requests recently used, and cached.
    ///
    /// # Errors
    ///
    /// As [`Self::pass`], or a failed check on the requests in between.
    pub fn prepare_rerun(&self, pass: &Pass) -> Result<usize, String> {
        let len = self.corpus.order.len();
        let stride = self.workload.stride();
        let used = pass.units * stride;
        let start = pass.first + used.div_ceil(len).max(1) * len;
        let gap = start - (pass.first + used);
        debug_assert_eq!(
            gap % stride,
            0,
            "the order length is a whole number of units"
        );
        if gap > 0 {
            let between = self.pass(pass.first + used, Some(gap / stride), Duration::MAX, false)?;
            check_pass(self.workload, &between)?;
        }
        Ok(start)
    }

    /// Where the next fresh pass starts.
    pub fn next_start(&self) -> usize {
        self.next
    }

    /// Runs one timed pass from order index `first` for up to `budget`
    /// (and up to `limit` units), recording root spans when `traced`.
    ///
    /// # Errors
    ///
    /// A client that cannot connect; request failures are counted in
    /// the pass instead.
    pub fn pass(
        &self,
        first: usize,
        limit: Option<usize>,
        budget: Duration,
        traced: bool,
    ) -> Result<Pass, String> {
        let before = self.snapshot();
        let mut pass = if self.workload.over_tcp() {
            self.tcp_pass(first, limit, budget, traced)?
        } else {
            self.burst_pass(first, limit, budget, traced)
        };
        pass.moved = self.snapshot().since(&before);
        Ok(pass)
    }

    fn tcp_pass(
        &self,
        first: usize,
        limit: Option<usize>,
        budget: Duration,
        traced: bool,
    ) -> Result<Pass, String> {
        let addr = self.addr();
        let clients = (0..CLIENTS)
            .map(|_| connect(addr))
            .collect::<Result<Vec<_>, _>>()?;
        let cursor = AtomicUsize::new(0);
        let start = Instant::now();
        let deadline = start.checked_add(budget);
        let logs: Vec<Pass> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .map(|client| {
                    let cursor = &cursor;
                    let corpus = &self.corpus;
                    scope.spawn(move || {
                        client_loop(
                            client, addr, corpus, cursor, first, limit, start, deadline, traced,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let units = cursor.load(Ordering::SeqCst);
        let mut merged = Pass::empty(first, traced.then(|| Tracer::new(start)));
        merged.units = limit.map_or(units, |n| units.min(n));
        for log in logs {
            merged.attempted += log.attempted;
            merged.failed += log.failed;
            merged.wrong += log.wrong;
            merged.busy_retries += log.busy_retries;
            merged.done.extend(log.done);
            merged.elapsed = merged.elapsed.max(log.elapsed);
            merged.errors.extend(log.errors);
            if let (Some(all), Some(mine)) = (merged.tracer.as_mut(), log.tracer) {
                all.absorb(mine);
            }
        }
        merged.done.sort_by_key(|d| d.request);
        Ok(merged)
    }

    fn burst_pass(
        &self,
        first: usize,
        limit: Option<usize>,
        budget: Duration,
        traced: bool,
    ) -> Pass {
        let start = Instant::now();
        let deadline = start.checked_add(budget);
        let mut pass = Pass::empty(first, traced.then(|| Tracer::new(start)));
        while deadline.is_none_or(|d| Instant::now() < d) && limit.is_none_or(|n| pass.units < n) {
            let burst = pass.units;
            pass.units += 1;
            let mut tickets = Vec::with_capacity(BURST_DISTINCT * BURST_COPIES);
            for d in 0..BURST_DISTINCT {
                let item = self.corpus.at(first + burst * BURST_DISTINCT + d);
                for copy in 0..BURST_COPIES {
                    let request = ((burst * BURST_DISTINCT + d) * BURST_COPIES + copy) as u64;
                    pass.attempted += 1;
                    let submitted = Instant::now();
                    match self
                        .service
                        .submit(Arc::clone(&item.stream), item.request())
                    {
                        Ok(ticket) => tickets.push((request, item, submitted, ticket)),
                        Err(e) => pass.fail(format!("submit: {e}")),
                    }
                }
            }
            let resolved = collect(&tickets);
            // Identical copies share one result; compare it once.
            let mut verified: Option<Arc<jpeg2000::image::Image>> = None;
            for ((request, item, submitted, _), (at, outcome)) in tickets.iter().zip(resolved) {
                let (request, submitted) = (*request, *submitted);
                let resp = match outcome {
                    Ok(resp) => resp,
                    Err(e) => {
                        pass.fail(format!("decode: {e}"));
                        continue;
                    }
                };
                let same = verified
                    .as_ref()
                    .is_some_and(|v| Arc::ptr_eq(v, &resp.image));
                if !same && !item.matches(&resp.image, resp.report.as_ref()) {
                    pass.wrong += 1;
                    continue;
                }
                verified = Some(Arc::clone(&resp.image));
                if let Some(tr) = pass.tracer.as_mut() {
                    let root = tr.record("request", request, None, submitted, at);
                    let claimed = submitted + resp.queue_wait;
                    tr.record(
                        "service.queue_wait",
                        request,
                        Some(root),
                        submitted,
                        claimed,
                    );
                    tr.record(
                        "service.service_time",
                        request,
                        Some(root),
                        claimed,
                        claimed + resp.service_time,
                    );
                }
                pass.done.push(Done {
                    request,
                    latency: at - submitted,
                    served: resp.served_from,
                });
                pass.elapsed = pass.elapsed.max(at - start);
            }
        }
        pass
    }

    /// The item request `request` of a pass starting at `first` sent.
    pub fn item_of(&self, first: usize, request: u64) -> &Item {
        let r = request as usize;
        if self.workload.over_tcp() {
            self.corpus.at(first + r)
        } else {
            self.corpus.at(first + r / BURST_COPIES)
        }
    }

    fn snapshot(&self) -> Movement {
        let server = self
            .server
            .as_ref()
            .map(DecodeServer::stats)
            .unwrap_or_default();
        let hist = |name: &str| {
            let h = self.registry.histogram(name).snapshot();
            (h.total().as_ps() as f64 / 1e6, h.count())
        };
        Movement {
            service: self.service.stats(),
            frames_in: server.frames_in,
            busy: server.busy,
            crc_rejects: server.crc_rejects,
            queue_wait_us: hist("service.queue_wait").0,
            service_time_us: hist("service.service_time").0,
            handler_us: hist("server.latency"),
        }
    }

    /// Shuts the stack down and checks the accounting identities.
    ///
    /// # Errors
    ///
    /// A broken identity.
    pub fn finish(self) -> Result<(), String> {
        let server = self.server.map(DecodeServer::shutdown);
        let service = Arc::try_unwrap(self.service)
            .map_err(|_| "the service is still shared after the server stopped".to_owned())?
            .shutdown();
        check_accounting(&service, server.as_ref())
    }
}

impl Pass {
    fn empty(first: usize, tracer: Option<Tracer>) -> Self {
        Pass {
            first,
            units: 0,
            attempted: 0,
            failed: 0,
            wrong: 0,
            busy_retries: 0,
            done: Vec::new(),
            elapsed: Duration::ZERO,
            moved: Movement::default(),
            tracer,
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(error);
        }
    }
}

impl Movement {
    fn since(&self, before: &Movement) -> Movement {
        let (a, b) = (&self.service, &before.service);
        Movement {
            service: ServiceStats {
                submitted: a.submitted - b.submitted,
                coalesced: a.coalesced - b.coalesced,
                completed: a.completed - b.completed,
                rejected: a.rejected - b.rejected,
                expired: a.expired - b.expired,
                cancelled: a.cancelled - b.cancelled,
                failed: a.failed - b.failed,
                header_hits: a.header_hits - b.header_hits,
                header_misses: a.header_misses - b.header_misses,
                header_evictions: a.header_evictions - b.header_evictions,
                image_hits: a.image_hits - b.image_hits,
                image_misses: a.image_misses - b.image_misses,
                image_evictions: a.image_evictions - b.image_evictions,
                max_queue_depth: a.max_queue_depth,
                max_inflight_bytes: a.max_inflight_bytes,
            },
            frames_in: self.frames_in - before.frames_in,
            busy: self.busy - before.busy,
            crc_rejects: self.crc_rejects - before.crc_rejects,
            queue_wait_us: self.queue_wait_us - before.queue_wait_us,
            service_time_us: self.service_time_us - before.service_time_us,
            handler_us: (
                self.handler_us.0 - before.handler_us.0,
                self.handler_us.1 - before.handler_us.1,
            ),
        }
    }

    /// `image_hits / (image_hits + image_misses)`.
    pub fn image_hit_ratio(&self) -> f64 {
        ratio(self.service.image_hits, self.service.image_misses)
    }

    /// `header_hits / (header_hits + header_misses)`.
    pub fn header_hit_ratio(&self) -> f64 {
        ratio(self.service.header_hits, self.service.header_misses)
    }

    /// `coalesced / (submitted + coalesced)`.
    pub fn dedup_ratio(&self) -> f64 {
        ratio(self.service.coalesced, self.service.submitted)
    }
}

fn ratio(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// How long the burst generator blocks on the oldest pending ticket
/// before checking the others.
const COLLECT_POLL: Duration = Duration::from_micros(250);

/// Waits for every ticket and stamps each with the moment it was seen
/// resolved. Blocking on the oldest pending ticket alone would stamp a
/// request that finished early (on the other worker) only once every
/// older one had: so the generator blocks on the oldest for at most
/// [`COLLECT_POLL`], then checks the rest without blocking, and every
/// stamp is within that poll of the real resolution.
fn collect<T>(
    tickets: &[(u64, T, Instant, Ticket)],
) -> Vec<(Instant, Result<ServiceResponse, ServiceError>)> {
    let mut out: Vec<Option<(Instant, Result<ServiceResponse, ServiceError>)>> =
        tickets.iter().map(|_| None).collect();
    let mut oldest = 0;
    while oldest < tickets.len() {
        if let Some(r) = tickets[oldest].3.wait_timeout(COLLECT_POLL) {
            out[oldest] = Some((Instant::now(), r));
        }
        for (slot, (.., ticket)) in out.iter_mut().zip(tickets).skip(oldest + 1) {
            if slot.is_none() {
                if let Some(r) = ticket.wait_timeout(Duration::ZERO) {
                    *slot = Some((Instant::now(), r));
                }
            }
        }
        while out.get(oldest).is_some_and(Option::is_some) {
            oldest += 1;
        }
    }
    out.into_iter()
        .map(|slot| slot.expect("every ticket resolved"))
        .collect()
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))
}

/// One request, absorbing busy answers on a fresh connection each time
/// (the acceptor closes a connection it answered busy).
fn call(
    client: &mut Client,
    addr: SocketAddr,
    item: &Item,
    retries: &mut u64,
) -> Result<NetResponse, String> {
    let mut attempt = 0;
    loop {
        match client.request(&item.request(), &item.stream) {
            Err(NetError::Busy) if attempt < MAX_BUSY_RETRIES => {
                attempt += 1;
                *retries += 1;
                *client = connect(addr)?;
            }
            other => return other.map_err(|e| e.to_string()),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    mut client: Client,
    addr: SocketAddr,
    corpus: &Corpus,
    cursor: &AtomicUsize,
    first: usize,
    limit: Option<usize>,
    start: Instant,
    deadline: Option<Instant>,
    traced: bool,
) -> Pass {
    let mut log = Pass::empty(first, traced.then(|| Tracer::new(start)));
    while deadline.is_none_or(|d| Instant::now() < d) {
        let k = cursor.fetch_add(1, Ordering::SeqCst);
        if limit.is_some_and(|n| k >= n) {
            break;
        }
        let item = corpus.at(first + k);
        log.attempted += 1;
        let sent = Instant::now();
        let outcome = call(&mut client, addr, item, &mut log.busy_retries);
        let received = Instant::now();
        match outcome {
            Ok(resp) if item.matches_wire(&resp) => {
                if let Some(tr) = log.tracer.as_mut() {
                    tr.record("request", k as u64, None, sent, received);
                }
                log.done.push(Done {
                    request: k as u64,
                    latency: received - sent,
                    served: resp.served_from,
                });
                log.elapsed = received - start;
            }
            Ok(_) => log.wrong += 1,
            Err(e) => {
                log.fail(e);
                // The connection may be out of step after a failure.
                match connect(addr) {
                    Ok(fresh) => client = fresh,
                    Err(e) => {
                        log.fail(e);
                        break;
                    }
                }
            }
        }
    }
    log
}

/// The per-pass checks every run makes: every output correct, nothing
/// refused or retried, and the workload still exercising its layer.
///
/// # Errors
///
/// The first check that fails.
pub fn check_pass(workload: Workload, pass: &Pass) -> Result<(), String> {
    let m = &pass.moved;
    let s = &m.service;
    if pass.wrong > 0 {
        return Err(format!(
            "{} responses differ from the one-shot oracle",
            pass.wrong
        ));
    }
    if pass.failed > 0 {
        return Err(format!(
            "{} requests failed: {:?}",
            pass.failed, pass.errors
        ));
    }
    if pass.done.is_empty() {
        return Err("no request completed".to_owned());
    }
    if s.rejected > 0 || pass.busy_retries > 0 || m.busy > 0 {
        return Err(format!(
            "backpressure in a closed loop: {} QueueFull, {} busy answers, {} retries",
            s.rejected, m.busy, pass.busy_retries
        ));
    }
    match workload {
        Workload::ColdMixed => {
            if m.image_hit_ratio() > COLD_HIT_CEILING {
                return Err(format!(
                    "cold-mixed is not cold: image-hit ratio {:.4} > {COLD_HIT_CEILING}",
                    m.image_hit_ratio()
                ));
            }
        }
        Workload::HotRepeat => {
            if s.image_misses > 0 || s.image_hits == 0 {
                return Err(format!(
                    "hot-repeat is not hot: {} image misses, {} hits",
                    s.image_misses, s.image_hits
                ));
            }
        }
        Workload::BurstCoalesce => {
            // One decode per distinct stream, and every other copy served
            // without one. A copy submitted after its leader's decode
            // already finished (the generator was descheduled between
            // two submissions) is served from the image cache instead of
            // coalescing; that is correct service, so it is allowed, but
            // only rarely — a broken single-flight path turns most copies
            // into cache hits or extra decodes.
            let distinct = (pass.units * BURST_DISTINCT) as u64;
            let copies = distinct * (BURST_COPIES as u64 - 1);
            let late = s.image_hits;
            if s.image_misses != distinct
                || s.submitted != distinct + late
                || s.coalesced + late != copies
                || late as f64 > LATE_COPY_CEILING * copies as f64
            {
                return Err(format!(
                    "burst-coalesce expected one decode per distinct stream ({distinct}) and \
                     {copies} copies coalesced (at most {:.0} % served late from the cache); \
                     saw {} queued, {} decoded, {} coalesced, {late} cache hits",
                    LATE_COPY_CEILING * 100.0,
                    s.submitted,
                    s.image_misses,
                    s.coalesced
                ));
            }
        }
    }
    Ok(())
}

/// The identities that hold once the stack has drained: each service
/// family reconciles on its own, and every service outcome is one
/// server outcome.
///
/// # Errors
///
/// The first identity that does not hold.
pub fn check_accounting(
    service: &ServiceStats,
    server: Option<&ServerStats>,
) -> Result<(), String> {
    if !service.reconciles() {
        return Err(format!(
            "service accounting does not reconcile: {service:?}"
        ));
    }
    if let Some(server) = server {
        if !server.reconciles() {
            return Err(format!("server accounting does not reconcile: {server:?}"));
        }
        let left = service.submitted + service.coalesced;
        let right = server.ok + server.expired + server.failed + server.internal;
        if left != right {
            return Err(format!(
                "service and server disagree: submitted + coalesced = {left}, \
                 ok + expired + failed + internal = {right}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip_and_are_valid() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::stats::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("cold"), None);
    }

    #[test]
    fn accounting_catches_a_missing_outcome() {
        let service = ServiceStats {
            submitted: 3,
            coalesced: 1,
            completed: 4,
            ..ServiceStats::default()
        };
        let server = ServerStats {
            frames_in: 4,
            ok: 4,
            ..ServerStats::default()
        };
        assert!(check_accounting(&service, Some(&server)).is_ok());
        let short = ServerStats {
            frames_in: 3,
            ok: 3,
            ..ServerStats::default()
        };
        assert!(check_accounting(&service, Some(&short)).is_err());
        let unresolved = ServiceStats {
            completed: 3,
            ..service
        };
        assert!(check_accounting(&unresolved, None).is_err());
    }

    #[test]
    fn burst_check_demands_exact_coalescing() {
        let mut pass = Pass::empty(0, None);
        pass.units = 20;
        pass.done.push(Done {
            request: 0,
            latency: Duration::from_millis(1),
            served: ServedFrom::Cold,
        });
        let distinct = 20 * BURST_DISTINCT as u64;
        pass.moved.service = ServiceStats {
            submitted: distinct,
            image_misses: distinct,
            coalesced: distinct * (BURST_COPIES as u64 - 1),
            ..ServiceStats::default()
        };
        assert!(check_pass(Workload::BurstCoalesce, &pass).is_ok());
        assert!((pass.moved.dedup_ratio() - 0.75).abs() < 1e-12);
        // A rare late copy that hit the image cache instead of coalescing.
        pass.moved.service.submitted += 1;
        pass.moved.service.coalesced -= 1;
        pass.moved.service.image_hits += 1;
        assert!(check_pass(Workload::BurstCoalesce, &pass).is_ok());
        // A second decode of one stream.
        let mut twice = pass.moved.service;
        twice.image_misses += 1;
        twice.submitted += 1;
        pass.moved.service = twice;
        assert!(check_pass(Workload::BurstCoalesce, &pass).is_err());
        // Coalescing gone: every copy served late.
        pass.moved.service = ServiceStats {
            submitted: distinct * BURST_COPIES as u64,
            image_misses: distinct,
            image_hits: distinct * (BURST_COPIES as u64 - 1),
            ..ServiceStats::default()
        };
        assert!(check_pass(Workload::BurstCoalesce, &pass).is_err());
    }
}
