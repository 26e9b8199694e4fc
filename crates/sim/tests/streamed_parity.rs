//! Streamed-vs-cached parity: replaying a `DMNOTRC1` file through
//! [`FileSource`] must reproduce the cached-slice engines byte-for-byte
//! — same decision digests, same Debug-rendered reports — for both
//! codecs, with a chunk size that divides neither the trace length nor
//! the warmup. The full roster × engine sweep lives in the
//! `domino-check --stream-parity` oracle; these tests are the crate's
//! fast local guard.

use std::path::PathBuf;

use domino_sim::engine::run_coverage_warmed;
use domino_sim::timing::run_timing_warmed;
use domino_sim::{
    run_coverage_session, run_coverage_streamed, run_coverage_streamed_session,
    run_timing_streamed, System, SystemConfig,
};
use domino_trace::stream::{Codec, FileSource, SliceSource, TraceWriter};
use domino_trace::workload::catalog;
use domino_trace::AccessEvent;

const EVENTS: usize = 30_000;
/// Deliberately prime: divides neither `EVENTS` nor the warmups below.
const CHUNK_EVENTS: u32 = 37;

fn temp_trace(events: &[AccessEvent], codec: Codec, tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "domino-streamed-parity-{}-{tag}.dmno",
        std::process::id()
    ));
    let mut writer = TraceWriter::create(&path, CHUNK_EVENTS, codec).expect("create temp trace");
    writer.write_events(events).expect("write temp trace");
    writer.finish().expect("finish temp trace");
    path
}

#[test]
fn coverage_streamed_matches_cached_for_both_codecs() {
    let system = SystemConfig::paper();
    let trace: Vec<AccessEvent> = catalog::oltp().generator(11).take(EVENTS).collect();
    for (tag, codec) in [("cov-raw", Codec::Raw), ("cov-seq", Codec::Sequitur)] {
        let path = temp_trace(&trace, codec, tag);
        let mut cached = System::Domino.build(4);
        let (want_report, want_digest) = run_coverage_session(&system, &trace, cached.as_mut(), 0);
        let mut source = FileSource::open(&path).expect("open trace");
        let mut streamed = System::Domino.build(4);
        let (got_report, got_digest) =
            run_coverage_streamed_session(&system, &mut source, streamed.as_mut(), 0)
                .expect("streamed coverage run");
        assert_eq!(want_digest, got_digest, "digest diverged ({tag})");
        assert_eq!(
            format!("{want_report:?}"),
            format!("{got_report:?}"),
            "report diverged ({tag})"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn coverage_streamed_honours_the_warmup_boundary() {
    let system = SystemConfig::paper();
    let trace: Vec<AccessEvent> = catalog::web_search().generator(5).take(EVENTS).collect();
    // A warmup that is not a multiple of the chunk size.
    let warmup = 1_003usize;
    let path = temp_trace(&trace, Codec::Raw, "cov-warm");
    let mut cached = System::Stms.build(4);
    let want = run_coverage_warmed(&system, &trace, cached.as_mut(), warmup);
    let mut source = FileSource::open(&path).expect("open trace");
    let mut streamed = System::Stms.build(4);
    let got = run_coverage_streamed(&system, &mut source, streamed.as_mut(), warmup, 0)
        .expect("streamed warmed coverage run");
    assert_eq!(format!("{want:?}"), format!("{got:?}"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn timing_streamed_matches_cached_for_both_codecs() {
    let system = SystemConfig::paper();
    let trace: Vec<AccessEvent> = catalog::oltp().generator(3).take(EVENTS).collect();
    for (tag, codec) in [("tim-raw", Codec::Raw), ("tim-seq", Codec::Sequitur)] {
        let path = temp_trace(&trace, codec, tag);
        for warmup in [1_003usize, 0] {
            let mut cached = System::Domino.build(4);
            let want = run_timing_warmed(&system, &trace, cached.as_mut(), warmup);
            let mut source = FileSource::open(&path).expect("open trace");
            let mut streamed = System::Domino.build(4);
            let got = run_timing_streamed(&system, &mut source, streamed.as_mut(), warmup)
                .expect("streamed timing run");
            assert_eq!(
                format!("{want:?}"),
                format!("{got:?}"),
                "timing report diverged ({tag}, warmup {warmup})"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn slice_source_is_equivalent_to_the_slice_at_any_chunk_size() {
    let system = SystemConfig::paper();
    let trace: Vec<AccessEvent> = catalog::oltp().generator(9).take(5_000).collect();
    let mut cached = System::NextLine.build(4);
    let (want_report, want_digest) = run_coverage_session(&system, &trace, cached.as_mut(), 0);
    for chunk in [1u32, 7, 37, 64, 5_000] {
        let mut source = SliceSource::new(trace.clone().into(), chunk);
        let mut streamed = System::NextLine.build(4);
        let (got_report, got_digest) =
            run_coverage_streamed_session(&system, &mut source, streamed.as_mut(), 0)
                .expect("slice-source run");
        assert_eq!(want_digest, got_digest, "digest diverged at chunk {chunk}");
        assert_eq!(
            format!("{want_report:?}"),
            format!("{got_report:?}"),
            "report diverged at chunk {chunk}"
        );
    }
}
