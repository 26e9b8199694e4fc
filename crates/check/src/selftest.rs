//! Proof that the oracles have teeth: known bugs, injected and caught.
//!
//! Nine mutations live in the production crates behind
//! `#[cfg(domino_mutate)]`, each selected at runtime by the
//! `DOMINO_MUTATE` environment variable. The self-test re-executes the
//! current binary in `--smoke` mode once per mutation (plus one clean
//! control run) and asserts that every mutant run fails *and* names the
//! oracle expected to catch that bug. A mutation that slips through
//! means an oracle lost its teeth — the self-test fails loudly.
//!
//! The hooks only exist when the workspace is compiled with
//! `RUSTFLAGS="--cfg domino_mutate"`; see `TESTING.md` for the exact
//! build command.

use std::process::Command;

/// One injected bug and the oracle expected to catch it.
#[derive(Debug, Clone, Copy)]
pub struct Mutation {
    /// `DOMINO_MUTATE` value selecting the bug.
    pub name: &'static str,
    /// Oracle whose name must appear in the failing run's output.
    pub oracle: &'static str,
    /// What the bug does.
    pub what: &'static str,
}

/// Every injected mutation, with its catching oracle.
pub const MUTATIONS: [Mutation; 9] = [
    Mutation {
        name: "eit_skip_promotion",
        oracle: "eit_model",
        what: "EIT update refresh skips the super-entry LRU promotion",
    },
    Mutation {
        name: "mshr_retire_boundary",
        oracle: "mshr_model",
        what: "MSHR retirement treats the time boundary as exclusive",
    },
    Mutation {
        name: "buffer_missing_evict_count",
        oracle: "buffer_model",
        what: "prefetch-buffer capacity evictions are not counted",
    },
    Mutation {
        name: "buffer_sticky_take",
        oracle: "buffer_model",
        what: "buffer hits leave the entry resident",
    },
    Mutation {
        name: "ring_wrap_off_by_one",
        oracle: "flight_recorder_chronology",
        what: "flight-recorder ring writes one slot past the wrap point",
    },
    Mutation {
        name: "timing_late_as_full",
        oracle: "cross_engine",
        what: "timing engine books late buffer hits as full misses",
    },
    Mutation {
        name: "session_warmup_split",
        oracle: "session_partition",
        what: "coverage session does not split a chunk at the warmup index",
    },
    Mutation {
        name: "pangloss_victim_tiebreak",
        oracle: "pangloss_model",
        what: "Pangloss edge victim ties break to the newest edge instead of the oldest",
    },
    Mutation {
        name: "triangel_sampler_off_by_one",
        oracle: "triangel_model",
        what: "Triangel usefulness gate is off by one (> instead of >=)",
    },
];

/// Runs the full self-test. `out_dir` is forwarded to the child smoke
/// runs so their reproducer files land somewhere disposable.
///
/// Returns `Err` with a description on the first mutation that escapes
/// (or if this binary was not built with the mutation hooks).
pub fn run_self_test(out_dir: &str) -> Result<(), String> {
    if !cfg!(domino_mutate) {
        return Err("this binary was built without the mutation hooks.\n\
             Rebuild with:\n\
             \x20 RUSTFLAGS=\"--cfg domino_mutate\" \
             CARGO_TARGET_DIR=target/mutate \
             cargo run --release -p domino-check -- --self-test"
            .into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;

    // Control: with no mutation selected the hooks are dead code and the
    // smoke campaign must pass.
    println!("control: smoke with no mutation ...");
    let control = Command::new(&exe)
        .args(["--smoke", "--out", out_dir])
        .env_remove("DOMINO_MUTATE")
        .output()
        .map_err(|e| format!("control run failed to spawn: {e}"))?;
    if !control.status.success() {
        return Err(format!(
            "control smoke run FAILED with no mutation active:\n{}{}",
            String::from_utf8_lossy(&control.stdout),
            String::from_utf8_lossy(&control.stderr),
        ));
    }
    println!("control: ok");

    for m in MUTATIONS {
        println!("mutation {}: {} ...", m.name, m.what);
        let out = Command::new(&exe)
            .args(["--smoke", "--out", out_dir])
            .env("DOMINO_MUTATE", m.name)
            .output()
            .map_err(|e| format!("mutant run {} failed to spawn: {e}", m.name))?;
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        if out.status.success() {
            return Err(format!(
                "mutation {} ESCAPED: the smoke campaign passed with the bug \
                 active (expected oracle {})\n{text}",
                m.name, m.oracle
            ));
        }
        if !text.contains(m.oracle) {
            return Err(format!(
                "mutation {} was caught, but not by the expected oracle {} \
                 — output:\n{text}",
                m.name, m.oracle
            ));
        }
        println!("mutation {}: caught by {}", m.name, m.oracle);
    }
    println!("self-test: all {} mutations caught", MUTATIONS.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutation_names_are_unique() {
        for (i, a) in MUTATIONS.iter().enumerate() {
            for b in &MUTATIONS[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn expected_oracles_are_known_names() {
        let known = [
            "session_partition",
            "cross_engine",
            "multicore_equivalence",
            "attribution_conservation",
            "attribution_totals",
            "flight_recorder_chronology",
            "trace_roundtrip",
            "epoch_monotonicity",
            "buffer_conservation",
            "eit_model",
            "mshr_model",
            "buffer_model",
            "cache_model",
            "pangloss_model",
            "triangel_model",
        ];
        for m in MUTATIONS {
            assert!(known.contains(&m.oracle), "unknown oracle {}", m.oracle);
        }
    }
}
