//! Degenerate-trace tests: every roster system through both replay
//! engines (and the shared-channel multicore model) on the pathological
//! inputs a fuzzer loves — empty traces, single events, a single
//! endlessly repeated address, and lines at the top of the address
//! space where `LineAddr::offset` wraps.
//!
//! These runs assert totality plus the basic accounting identities that
//! must hold on *any* input; the deeper metric identities live in
//! `domino_check::oracle`.

use domino_sim::roster::System;
use domino_sim::{
    run_coverage, run_multicore, run_timing, run_timing_streamed, CoverageSession, SystemConfig,
};
use domino_trace::addr::{Addr, Pc, LINE_BYTES};
use domino_trace::event::{AccessEvent, AccessKind};
use domino_trace::stream::SliceSource;

const DEGREE: usize = 4;

fn read(pc: u64, addr: u64) -> AccessEvent {
    AccessEvent::read(Pc::new(pc), Addr::new(addr))
}

/// Name, trace — one entry per degenerate shape.
fn degenerate_traces() -> Vec<(&'static str, Vec<AccessEvent>)> {
    let top = u64::MAX - (LINE_BYTES - 1); // start of the last line
    vec![
        ("empty", Vec::new()),
        ("single-event", vec![read(1, 0x1000)]),
        (
            "all-same-address",
            (0..200).map(|_| read(7, 0xBEEF_0000)).collect(),
        ),
        (
            "write-only-same-address",
            (0..50)
                .map(|_| AccessEvent {
                    pc: Pc::new(3),
                    addr: Addr::new(0xD00D_0000),
                    kind: AccessKind::Write,
                    gap_insts: 0,
                    dependent: false,
                })
                .collect(),
        ),
        (
            // Walk the last lines of the address space so next-line and
            // stride predictions wrap around `u64::MAX`.
            "max-line-boundary",
            (0..32)
                .map(|i| read(5, top - i * LINE_BYTES))
                .chain((0..32).map(|i| read(5, u64::MAX - i)))
                .collect(),
        ),
    ]
}

/// Structural guard for the suite's coverage: every test here iterates
/// `System::all()`, so the post-Domino rivals are exercised exactly as
/// long as they stay registered. A silent roster regression would
/// otherwise shrink this suite without failing anything.
#[test]
fn roster_includes_the_modern_rivals() {
    let all = System::all();
    for sys in [System::Pangloss, System::Triangel] {
        assert!(
            all.contains(&sys),
            "{} missing from System::all(); the degenerate-trace suite \
             no longer covers it",
            sys.label()
        );
    }
}

#[test]
fn every_system_survives_degenerate_traces() {
    let cfg = SystemConfig::paper();
    let one_core = SystemConfig {
        cores: 1,
        ..SystemConfig::paper()
    };
    for (name, trace) in degenerate_traces() {
        for sys in System::all() {
            let label = sys.label();
            let cov = run_coverage(&cfg, &trace, sys.build(DEGREE).as_mut());
            assert_eq!(
                cov.accesses,
                trace.len() as u64,
                "{label} on {name}: access count"
            );
            assert!(
                cov.covered <= cov.baseline_misses,
                "{label} on {name}: covered {} > baseline misses {}",
                cov.covered,
                cov.baseline_misses
            );
            assert!(
                cov.read_covered <= cov.covered,
                "{label} on {name}: read subset exceeds total"
            );

            let tim = run_timing(&cfg, &trace, sys.build(DEGREE).as_mut());
            assert!(
                tim.total_ns.is_finite() && tim.total_ns >= 0.0,
                "{label} on {name}: non-finite time {}",
                tim.total_ns
            );
            assert_eq!(
                tim.timely_hits + tim.late_hits + tim.full_misses,
                cov.baseline_misses,
                "{label} on {name}: timing miss classes disagree with coverage"
            );

            let multi = run_multicore(&one_core, vec![trace.clone()], vec![sys.build(DEGREE)]);
            assert_eq!(multi.per_core.len(), 1);
            assert_eq!(
                multi.per_core[0].full_misses, tim.full_misses,
                "{label} on {name}: one-core multicore diverged from single-core"
            );
        }
    }
}

/// Chunk-boundary pathology: the degenerate shapes hit every edge of
/// incremental feeding — zero chunks (empty trace), one single-event
/// chunk, trace lengths that are not a multiple of the step, and steps
/// larger than the whole trace. Every roster system must produce
/// byte-identical reports whether the engines get the whole trace at
/// once or any increment of it.
#[test]
fn engines_are_step_size_invariant_on_degenerate_traces() {
    let cfg = SystemConfig::paper();
    for (name, trace) in degenerate_traces() {
        for sys in System::all() {
            let label = sys.label();
            let cov_whole = format!(
                "{:?}",
                run_coverage(&cfg, &trace, sys.build(DEGREE).as_mut())
            );
            let tim_whole = format!("{:?}", run_timing(&cfg, &trace, sys.build(DEGREE).as_mut()));
            for step in [1usize, 2, 3, 64] {
                let mut p = sys.build(DEGREE);
                let mut session = CoverageSession::new(&cfg, p.name(), 0);
                for chunk in trace.chunks(step) {
                    session.feed(p.as_mut(), chunk);
                }
                assert_eq!(
                    cov_whole,
                    format!("{:?}", session.finish()),
                    "{label} on {name}: coverage diverged at step {step}"
                );
                let mut source = SliceSource::new(trace.clone().into(), step as u32);
                let tim = run_timing_streamed(&cfg, &mut source, sys.build(DEGREE).as_mut(), 0)
                    .expect("slice sources cannot fail");
                assert_eq!(
                    tim_whole,
                    format!("{tim:?}"),
                    "{label} on {name}: timing diverged at step {step}"
                );
            }
        }
    }
}

/// The empty trace specifically must report all-zero metrics — not
/// merely avoid panicking — through both engines.
#[test]
fn empty_trace_reports_zeros() {
    let cfg = SystemConfig::paper();
    for sys in System::all() {
        let cov = run_coverage(&cfg, &[], sys.build(DEGREE).as_mut());
        assert_eq!(cov.accesses, 0);
        assert_eq!(cov.baseline_misses, 0);
        assert_eq!(cov.covered, 0);
        assert_eq!(cov.prefetches_issued, 0, "{}", sys.label());
        let tim = run_timing(&cfg, &[], sys.build(DEGREE).as_mut());
        assert_eq!(tim.total_ns, 0.0);
        assert_eq!(tim.instructions, 0);
    }
}

// ---------------------------------------------------------------------
// Malformed `DMNOTRC1` inputs: every way a trace file can be broken —
// empty, truncated mid-header, wrong magic, torn final record,
// misaligned chunk index, flipped payload bytes, an unfinished writer —
// must surface as a clear `TraceFileError`, never a panic, through both
// the validating reader and the streaming file source.

use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

use domino_trace::stream::{
    Codec, EventSource, FileSource, TraceFileError, TraceReader, TraceWriter,
};
use domino_trace::workload::catalog;

/// Per-process sequence number for temp trace files, so tests running
/// on concurrent threads never share (and delete) one file.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A sealed in-memory trace: 100 events in 7-event chunks (the last
/// chunk short), as raw bytes ready for surgery.
fn sealed_trace_bytes(codec: Codec) -> Vec<u8> {
    let events: Vec<AccessEvent> = catalog::oltp().generator(0xDE6E).take(100).collect();
    let path = std::env::temp_dir().join(format!(
        "domino-degenerate-{}-{}-{}.dmno",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
        codec.label()
    ));
    let mut writer = TraceWriter::create(&path, 7, codec).expect("create");
    writer.write_events(&events).expect("write");
    writer.finish().expect("finish");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    bytes
}

fn open_err(bytes: Vec<u8>) -> TraceFileError {
    match TraceReader::new(Cursor::new(bytes)) {
        Ok(_) => panic!("malformed trace bytes validated cleanly"),
        Err(e) => e,
    }
}

#[test]
fn empty_file_is_a_truncated_header() {
    let err = open_err(Vec::new());
    assert!(
        matches!(err, TraceFileError::TruncatedHeader { len: 0 }),
        "{err}"
    );
    assert!(!err.to_string().is_empty());
}

#[test]
fn truncated_header_is_reported_at_every_cut() {
    let good = sealed_trace_bytes(Codec::Raw);
    for cut in [1usize, 7, 8, 16, 39] {
        let err = open_err(good[..cut].to_vec());
        match err {
            TraceFileError::TruncatedHeader { len } => assert_eq!(len, cut as u64),
            // Cuts shorter than the magic may also legitimately read as
            // a bad magic; anything else is wrong.
            TraceFileError::BadMagic { .. } => assert!(cut < 8, "cut {cut}: {err}"),
            other => panic!("cut {cut}: unexpected error {other}"),
        }
    }
}

#[test]
fn wrong_magic_is_rejected_with_the_found_bytes() {
    let mut bytes = sealed_trace_bytes(Codec::Raw);
    bytes[0..8].copy_from_slice(b"NOTADMNO");
    let err = open_err(bytes);
    match err {
        TraceFileError::BadMagic { found } => assert_eq!(&found, b"NOTADMNO"),
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn torn_final_record_is_detected_from_the_index() {
    let mut bytes = sealed_trace_bytes(Codec::Raw);
    // Shrink the last index entry's byte_len by one byte: the chunk no
    // longer holds a whole number of 24-byte records for its indexed
    // event count.
    let index_offset = u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes")) as usize;
    let entries = (bytes.len() - index_offset) / 32;
    let last = index_offset + (entries - 1) * 32;
    let byte_len = u64::from_le_bytes(bytes[last + 8..last + 16].try_into().expect("8 bytes"));
    bytes[last + 8..last + 16].copy_from_slice(&(byte_len - 1).to_le_bytes());
    let err = open_err(bytes);
    match err {
        TraceFileError::TornRecord {
            chunk,
            byte_len: torn,
        } => {
            assert_eq!(chunk, entries - 1);
            assert_eq!(torn, byte_len - 1);
        }
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn misaligned_index_offset_is_rejected_in_both_directions() {
    for (codec, delta) in [(Codec::Raw, 1i64), (Codec::Raw, -1), (Codec::Sequitur, 1)] {
        let mut bytes = sealed_trace_bytes(codec);
        let index_offset = u64::from_le_bytes(bytes[32..40].try_into().expect("8 bytes"));
        let skewed = index_offset.wrapping_add_signed(delta);
        bytes[32..40].copy_from_slice(&skewed.to_le_bytes());
        let err = open_err(bytes);
        assert!(
            matches!(err, TraceFileError::BadIndex { .. }),
            "{} offset {delta:+}: unexpected error {err}",
            codec.label()
        );
    }
}

#[test]
fn unfinished_writer_leaves_a_rejected_file() {
    // A crashed writer never rewrites the header, so index_offset is 0.
    let mut bytes = sealed_trace_bytes(Codec::Raw);
    bytes[16..40].copy_from_slice(&[0u8; 24][..]);
    bytes[24..28].copy_from_slice(&7u32.to_le_bytes()); // chunk_events stays valid
    let err = open_err(bytes);
    assert!(matches!(err, TraceFileError::BadIndex { .. }), "{err}");
}

#[test]
fn flipped_payload_bytes_fail_the_chunk_digest() {
    for codec in [Codec::Raw, Codec::Sequitur] {
        let mut bytes = sealed_trace_bytes(codec);
        // Flip one bit inside the first chunk's first record image (a
        // pc byte, so the record still decodes) and stream the file:
        // the digest check must catch it.
        bytes[41] ^= 0x01;
        let mut reader = TraceReader::new(Cursor::new(bytes)).expect("header/index intact");
        let mut out = Vec::new();
        let mut saw_error = false;
        for idx in 0..reader.chunk_count() {
            if let Err(err) = reader.read_chunk_into(idx, &mut out) {
                assert!(
                    matches!(
                        err,
                        TraceFileError::DigestMismatch { chunk: 0, .. }
                            | TraceFileError::BadGrammar { chunk: 0, .. }
                            | TraceFileError::BadRecord { chunk: 0, .. }
                    ),
                    "{}: unexpected error {err}",
                    codec.label()
                );
                saw_error = true;
                break;
            }
        }
        assert!(
            saw_error,
            "{}: corrupted chunk decoded cleanly",
            codec.label()
        );
    }
}

#[test]
fn file_source_propagates_malformed_files_without_panicking() {
    let path = std::env::temp_dir().join(format!(
        "domino-degenerate-source-{}.dmno",
        std::process::id()
    ));
    // Not a trace at all.
    std::fs::write(&path, b"NOTADMNO-and-then-some-garbage-bytes").expect("write junk");
    match FileSource::open(&path) {
        Ok(_) => panic!("junk file opened as a trace"),
        Err(TraceFileError::BadMagic { .. }) => {}
        Err(other) => panic!("unexpected error {other}"),
    }
    // Valid header/index but a corrupted payload: the error must arrive
    // through next_chunk, from the read-ahead thread, not a panic.
    let mut bytes = sealed_trace_bytes(Codec::Raw);
    bytes[41] ^= 0x01;
    std::fs::write(&path, &bytes).expect("write corrupted trace");
    let mut source = FileSource::open(&path).expect("header and index are intact");
    let mut chunk = Vec::new();
    let mut saw_error = false;
    loop {
        match source.next_chunk(&mut chunk) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(err) => {
                assert!(
                    matches!(err, TraceFileError::DigestMismatch { .. }),
                    "unexpected error {err}"
                );
                saw_error = true;
                break;
            }
        }
    }
    assert!(saw_error, "corrupted payload streamed cleanly");
    std::fs::remove_file(&path).ok();
}
