//! Outside-in layer tracing: span accounting for traced passes,
//! delegating wrappers around the `Prefetcher` and `EventSource` trait
//! objects, the calibration kernel, and the standalone layer profile
//! (each layer's public functions timed on recorded inputs).
//!
//! Nothing here is compiled into the measured program: spans are taken
//! around the calls the benchmark makes into each layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use domino::{Eit, EitConfig};
use domino_mem::cache::SetAssocCache;
use domino_mem::interface::{CollectSink, PrefetchSink, Prefetcher, TriggerBatch, TriggerEvent};
use domino_sequitur::Sequitur;
use domino_service::{ServiceConfig, TenantSession};
use domino_sim::engine::run_coverage_warmed;
use domino_sim::timing::run_timing_warmed;
use domino_sim::{baseline_miss_sequence, System, SystemConfig};
use domino_telemetry::CounterSink;
use domino_trace::addr::LineAddr;
use domino_trace::event::AccessEvent;
use domino_trace::stream::{write_trace_file, Codec, EventSource, FileSource, TraceFileError};
use domino_trace::workload::catalog;

use crate::stats::{ns_per, ns_per_fresh, Metric};

/// Layer self times of one traced pass, keyed by layer name, plus exact
/// counts taken at the same boundaries. Disabled spans cost nothing:
/// [`Spans::time`] then calls straight through without reading a clock.
pub struct Spans {
    on: bool,
    self_ns: BTreeMap<String, u64>,
    counts: BTreeMap<String, u64>,
}

impl Spans {
    pub fn off() -> Spans {
        Spans {
            on: false,
            self_ns: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn on() -> Spans {
        Spans {
            on: true,
            ..Spans::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, charging its duration to `layer` when tracing.
    pub fn time<T>(&mut self, layer: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.add(layer, t.elapsed().as_nanos() as u64);
        out
    }

    /// Charges `ns` of self time to `layer`.
    pub fn add(&mut self, layer: &str, ns: u64) {
        if self.on {
            *self.self_ns.entry(layer.to_string()).or_default() += ns;
        }
    }

    /// Adds `n` to the count `key`.
    pub fn count(&mut self, key: &str, n: u64) {
        if self.on {
            *self.counts.entry(key.to_string()).or_default() += n;
        }
    }

    /// Self time charged to `layer` (0 if none).
    pub fn ns(&self, layer: &str) -> u64 {
        self.self_ns.get(layer).copied().unwrap_or(0)
    }

    /// The count `key` (0 if none).
    pub fn counted(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Sum of every layer's self time.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }

    pub fn self_times(&self) -> impl Iterator<Item = (&String, &u64)> {
        self.self_ns.iter()
    }
}

/// A delegating [`Prefetcher`] that times the train/predict step
/// (`on_trigger` and `train_predict_batch`) and counts the triggers it
/// saw. `reserve` is timed separately; every other method forwards
/// untimed.
pub struct TimedPrefetcher {
    inner: Box<dyn Prefetcher>,
    pub trigger_ns: u64,
    pub triggers: u64,
    pub reserve_ns: u64,
}

impl TimedPrefetcher {
    pub fn new(inner: Box<dyn Prefetcher>) -> TimedPrefetcher {
        TimedPrefetcher {
            inner,
            trigger_ns: 0,
            triggers: 0,
            reserve_ns: 0,
        }
    }
}

impl Prefetcher for TimedPrefetcher {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_trigger(&mut self, event: &TriggerEvent, sink: &mut dyn PrefetchSink) {
        let t = Instant::now();
        self.inner.on_trigger(event, sink);
        self.trigger_ns += t.elapsed().as_nanos() as u64;
        self.triggers += 1;
    }

    fn train_predict_batch(&mut self, batch: &mut dyn TriggerBatch, sink: &mut CollectSink) {
        self.triggers += batch.pending_lines().len() as u64;
        let t = Instant::now();
        self.inner.train_predict_batch(batch, sink);
        self.trigger_ns += t.elapsed().as_nanos() as u64;
    }

    fn reserve(&mut self, expected_events: usize) {
        let t = Instant::now();
        self.inner.reserve(expected_events);
        self.reserve_ns += t.elapsed().as_nanos() as u64;
    }

    fn emit_counters(&self, sink: &mut dyn CounterSink) {
        self.inner.emit_counters(sink);
    }

    fn footprint_bytes(&self) -> usize {
        self.inner.footprint_bytes()
    }

    fn knows_line(&self, line: LineAddr) -> bool {
        self.inner.knows_line(line)
    }
}

/// A delegating [`EventSource`] that times `next_chunk`: the time the
/// consumer spends blocked on (or copying out of) the source.
pub struct TimedSource<S> {
    inner: S,
    pub wait_ns: u64,
}

impl<S: EventSource> TimedSource<S> {
    pub fn new(inner: S) -> TimedSource<S> {
        TimedSource { inner, wait_ns: 0 }
    }
}

impl<S: EventSource> EventSource for TimedSource<S> {
    fn total_events(&self) -> u64 {
        self.inner.total_events()
    }

    fn chunk_events(&self) -> u32 {
        self.inner.chunk_events()
    }

    fn next_chunk(&mut self, out: &mut Vec<AccessEvent>) -> Result<usize, TraceFileError> {
        let t = Instant::now();
        let n = self.inner.next_chunk(out);
        self.wait_ns += t.elapsed().as_nanos() as u64;
        n
    }

    fn peak_resident_bytes(&self) -> u64 {
        self.inner.peak_resident_bytes()
    }

    fn budget_bytes(&self) -> u64 {
        self.inner.budget_bytes()
    }
}

/// Median nanoseconds of a fixed integer kernel (a dependent
/// multiply-xor-shift chain of 2^22 steps). It touches no memory, so
/// it tracks only the core's clock: a slower kernel next to a slower
/// workload points at the host, not the code.
pub fn calibrate() -> f64 {
    ns_per(5, 1, || {
        let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
        for i in 0..(1u64 << 22) {
            x = (x.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ (x >> 29)).wrapping_add(i);
        }
        black_box(x);
    })
}

/// Events in the profile's recorded input trace.
const PROFILE_EVENTS: usize = 100_000;
/// Chunk size of the profile's trace files (same as `stream-roster`).
const PROFILE_CHUNK: u32 = crate::roster::CHUNK_EVENTS;
/// Repetitions per standalone timing; the median is reported.
const REPS: usize = 5;
/// Tenant window of the service calls (same as `serve-tenants`).
const SESSION_WINDOW: usize = crate::tenants::WINDOW;

fn drain(path: &Path) -> usize {
    let mut source = FileSource::open(path).expect("open profile trace");
    let mut chunk = Vec::new();
    let mut n = 0;
    loop {
        let k = source.next_chunk(&mut chunk).expect("decode profile trace");
        if k == 0 {
            return n;
        }
        n += black_box(&chunk).len();
    }
}

/// The standalone layer profile: each layer's public functions timed
/// on recorded inputs built from `seed` (an OLTP trace, its L1 miss
/// stream and its `DMNOTRC1` encodings).
pub fn profile(seed: u64, work: &Path) -> Vec<Metric> {
    let cfg = SystemConfig::paper();
    let spec = catalog::oltp();
    let events: Vec<AccessEvent> = spec.generator(seed).take(PROFILE_EVENTS).collect();
    let misses = baseline_miss_sequence(&cfg, &events);
    let raw = work.join("profile-raw.dmno");
    let seq = work.join("profile-seq.dmno");
    write_trace_file(&raw, &events, PROFILE_CHUNK, Codec::Raw).expect("write profile trace");
    let n = events.len();
    let mut out = Vec::new();

    let gen = ns_per(REPS, n, || {
        black_box(
            spec.generator(seed)
                .take(PROFILE_EVENTS)
                .collect::<Vec<_>>(),
        );
    });
    out.push(Metric::new("trace.gen_ns_per_event", gen, "ns/event"));
    let encode = ns_per(REPS, n, || {
        write_trace_file(&seq, &events, PROFILE_CHUNK, Codec::Sequitur).expect("encode");
    });
    out.push(Metric::new(
        "trace.encode_seq_ns_per_event",
        encode,
        "ns/event",
    ));
    for (name, path) in [("raw", &raw), ("seq", &seq)] {
        let ns = ns_per(REPS, n, || {
            assert_eq!(drain(path), n, "decoded every event")
        });
        out.push(Metric::new(
            format!("trace.decode_{name}_ns_per_event"),
            ns,
            "ns/event",
        ));
    }

    // EIT: update the predecessor's entry, then look the successor up,
    // along the recorded miss stream — two operations per step.
    let steps = misses.len().saturating_sub(1);
    let eit = ns_per_fresh(
        REPS,
        2 * steps,
        || Eit::new(EitConfig::default()),
        |eit| {
            for w in misses.windows(2) {
                eit.update(LineAddr::new(w[0]), LineAddr::new(w[1]), 0);
                black_box(eit.lookup(LineAddr::new(w[1])).is_some());
            }
        },
    );
    out.push(Metric::new("core.eit_ns_per_op", eit, "ns/op"));

    let l1 = ns_per_fresh(
        REPS,
        n,
        || SetAssocCache::new(cfg.l1d),
        |l1| {
            for ev in &events {
                let line = ev.line();
                if !l1.access(line) {
                    l1.insert(line);
                }
            }
            black_box(l1.len());
        },
    );
    out.push(Metric::new("mem.l1_ns_per_access", l1, "ns/access"));

    let grammar = ns_per(REPS, misses.len(), || {
        black_box(Sequitur::from_sequence(misses.iter().copied()).rule_count());
    });
    out.push(Metric::new(
        "sequitur.grammar_ns_per_symbol",
        grammar,
        "ns/symbol",
    ));

    // The timing core's own cost: the Baseline timing cell minus the
    // coverage-engine cost of the same cell.
    let warmup = n / 4;
    let timing = ns_per_fresh(
        REPS,
        n,
        || System::Baseline.build(1),
        |pf| {
            black_box(run_timing_warmed(&cfg, &events, pf.as_mut(), warmup));
        },
    );
    let coverage = ns_per_fresh(
        REPS,
        n,
        || System::Baseline.build(1),
        |pf| {
            black_box(run_coverage_warmed(&cfg, &events, pf.as_mut(), warmup));
        },
    );
    out.push(Metric::new(
        "sim.timing_core_ns_per_event",
        timing - coverage,
        "ns/event",
    ));

    // Direct calls into the service's tenant sessions.
    let svc = ServiceConfig::default();
    let window = &events[..SESSION_WINDOW];
    let session_new = ns_per_fresh(
        REPS,
        1,
        || None,
        |slot| *slot = Some(TenantSession::new(0, System::Domino, &svc, 0)),
    );
    out.push(Metric::new(
        "service.session_new_us",
        session_new / 1e3,
        "us",
    ));
    let serve = ns_per_fresh(
        REPS,
        SESSION_WINDOW,
        || TenantSession::new(0, System::Domino, &svc, 0),
        |session| {
            let batch = crate::tenants::BATCH;
            for start in (0..SESSION_WINDOW).step_by(batch) {
                session.serve(window, start, (start + batch).min(SESSION_WINDOW));
            }
        },
    );
    out.push(Metric::new(
        "service.session_ns_per_event",
        serve,
        "ns/event",
    ));
    out
}
