//! Trace minimization: ddmin-style chunk removal with rerun-per-step.
//!
//! Given a failing trace and the predicate that reproduces the failure,
//! the shrinker repeatedly tries deleting contiguous chunks, halving
//! the chunk size from `len / 2` down to 1 — the final pass *is* the
//! single-event-deletion pass — and keeps any deletion that still
//! fails. The result is 1-minimal up to the run budget: no single
//! remaining event can be removed without losing the failure.

use domino_trace::event::AccessEvent;

/// Minimizes `trace` while `fails` keeps returning `true`.
///
/// `fails` must be deterministic (every oracle in this crate is: the
/// engines, models, and generators are all seeded or pure). `max_runs`
/// bounds how many times the predicate is invoked, so a slow oracle on
/// a huge trace still terminates promptly; the partially-shrunk trace
/// is returned when the budget runs out.
///
/// # Panics
///
/// Panics if the original `trace` does not fail — shrinking a passing
/// input indicates a harness bug, not an oracle violation.
pub fn shrink(
    trace: &[AccessEvent],
    mut fails: impl FnMut(&[AccessEvent]) -> bool,
    max_runs: usize,
) -> Vec<AccessEvent> {
    assert!(fails(trace), "shrink() called on a passing trace");
    let mut best = trace.to_vec();
    let mut runs = 0usize;
    loop {
        let before = best.len();
        let mut chunk = (best.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start < best.len() {
                if runs == max_runs {
                    return best;
                }
                let end = (start + chunk).min(best.len());
                let mut candidate = Vec::with_capacity(best.len() - (end - start));
                candidate.extend_from_slice(&best[..start]);
                candidate.extend_from_slice(&best[end..]);
                runs += 1;
                if !candidate.is_empty() && fails(&candidate) {
                    // Keep the deletion; the next chunk now sits at
                    // the same offset.
                    best = candidate;
                } else if candidate.is_empty() && fails(&candidate) {
                    return candidate;
                } else {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
        // A full sweep at every granularity removed nothing: minimal.
        if best.len() == before {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_trace::addr::{Addr, Pc};

    fn ev(line: u64) -> AccessEvent {
        AccessEvent::read(Pc::new(1), Addr::new(line * 64))
    }

    #[test]
    fn shrinks_duplicate_line_to_two_events() {
        // Predicate: some line appears at least twice.
        let fails = |t: &[AccessEvent]| {
            t.iter()
                .enumerate()
                .any(|(i, a)| t[..i].iter().any(|b| b.line() == a.line()))
        };
        let mut trace: Vec<AccessEvent> = (0..400).map(ev).collect();
        trace.push(ev(123)); // the single duplicate
        let small = shrink(&trace, fails, 10_000);
        assert_eq!(small.len(), 2, "exactly the duplicated pair survives");
        assert_eq!(small[0].line(), small[1].line());
    }

    #[test]
    fn respects_run_budget() {
        let mut calls = 0usize;
        let trace: Vec<AccessEvent> = (0..64).map(ev).collect();
        let out = shrink(
            &trace,
            |_| {
                calls += 1;
                true
            },
            5,
        );
        // Initial check + 5 budgeted runs; result is whatever the budget
        // allowed, never larger than the input.
        assert!(calls <= 6);
        assert!(out.len() <= trace.len());
    }

    #[test]
    fn minimal_input_is_stable() {
        let trace = vec![ev(9)];
        let out = shrink(&trace, |t| !t.is_empty(), 100);
        assert_eq!(out.len(), 1);
    }

    #[test]
    #[should_panic(expected = "passing trace")]
    fn passing_trace_panics() {
        shrink(&[ev(1)], |_| false, 10);
    }
}
