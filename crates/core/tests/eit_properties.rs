//! Property tests for the Enhanced Index Table: its two-level LRU
//! behaviour is checked against straightforward reference models over
//! arbitrary update/lookup/probe interleavings, including long streams
//! that grow the sparse row index through many doublings.
//!
//! Interleavings are drawn from a seeded [`SimRng`] so the suite is
//! fully deterministic and dependency-free.

use domino::{Domino, DominoConfig, Eit, EitConfig};
use domino_mem::interface::Prefetcher;
use domino_trace::addr::LineAddr;
use domino_trace::rng::SimRng;
use std::collections::{BTreeMap, VecDeque};

/// One super-entry of the reference model: a tag and its `(addr,
/// pointer)` continuations, back = most recent.
type RefSuper = (u64, VecDeque<(u64, u64)>);

/// Reference model with the semantics of
/// `domino_check::reference::ReferenceEit`: per row, an ordered list of
/// super-entries where the back is most recent. Rows appear on first
/// write, so the paper's 2 M-row geometry is as cheap as a 1-row one.
#[derive(Debug)]
struct RefEit {
    rows: u64,
    table: BTreeMap<u64, VecDeque<RefSuper>>,
    super_cap: usize,
    entry_cap: usize,
}

impl RefEit {
    fn new(rows: usize, super_cap: usize, entry_cap: usize) -> Self {
        RefEit {
            rows: rows as u64,
            table: BTreeMap::new(),
            super_cap,
            entry_cap,
        }
    }

    fn row_of(&self, tag: u64) -> u64 {
        tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) % self.rows
    }

    fn update(&mut self, tag: u64, next: u64, pointer: u64) -> Option<u64> {
        let super_cap = self.super_cap;
        let entry_cap = self.entry_cap;
        let row = self.table.entry(self.row_of(tag)).or_default();
        let mut evicted = None;
        let mut se = match row.iter().position(|(t, _)| *t == tag) {
            Some(pos) => row.remove(pos).expect("position exists"),
            None => {
                if row.len() == super_cap {
                    evicted = row.pop_front().map(|(t, _)| t);
                }
                (tag, VecDeque::new())
            }
        };
        if let Some(pos) = se.1.iter().position(|(a, _)| *a == next) {
            se.1.remove(pos);
        } else if se.1.len() == entry_cap {
            se.1.pop_front();
        }
        se.1.push_back((next, pointer));
        row.push_back(se);
        evicted
    }

    fn lookup(&mut self, tag: u64) -> Option<Vec<(u64, u64)>> {
        let row = self.table.get_mut(&self.row_of(tag))?;
        let pos = row.iter().position(|(t, _)| *t == tag)?;
        let se = row.remove(pos).expect("position exists");
        let entries: Vec<(u64, u64)> = se.1.iter().copied().collect();
        row.push_back(se);
        Some(entries)
    }

    fn probe(&self, tag: u64) -> bool {
        self.table
            .get(&self.row_of(tag))
            .is_some_and(|row| row.iter().any(|(t, _)| *t == tag))
    }
}

/// Obviously-correct model of the unbounded table: one `Vec` of
/// `(tag, continuations)` in first-write order, linear scans only. No
/// rows, so no tag is ever evicted.
#[derive(Debug, Default)]
struct PerTagModel {
    tags: Vec<(u64, Vec<(u64, u64)>)>,
    entry_cap: usize,
}

impl PerTagModel {
    fn update(&mut self, tag: u64, next: u64, pointer: u64) {
        let entries = match self.tags.iter().position(|(t, _)| *t == tag) {
            Some(i) => &mut self.tags[i].1,
            None => {
                self.tags.push((tag, Vec::new()));
                &mut self.tags.last_mut().expect("just pushed").1
            }
        };
        if let Some(pos) = entries.iter().position(|(a, _)| *a == next) {
            entries.remove(pos);
        } else if entries.len() == self.entry_cap {
            entries.remove(0);
        }
        entries.push((next, pointer));
    }

    fn get(&self, tag: u64) -> Option<Vec<(u64, u64)>> {
        self.tags
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, e)| e.clone())
    }
}

#[derive(Debug, Clone)]
enum Op {
    Update { tag: u64, next: u64, pointer: u64 },
    Lookup { tag: u64 },
    Probe { tag: u64 },
}

fn ops(rng: &mut SimRng) -> Vec<Op> {
    let len = 1 + rng.index(400);
    (0..len)
        .map(|_| {
            if rng.chance(0.5) {
                Op::Update {
                    tag: rng.below(24),
                    next: rng.below(24),
                    pointer: rng.below(1000),
                }
            } else {
                Op::Lookup { tag: rng.below(24) }
            }
        })
        .collect()
}

/// Tags `t` and `t + ALIAS_STRIDE` hash to the same row in every table
/// whose row count divides the stride (all powers of two up to 2 M), so
/// adding a random multiple of it forces row conflicts even at the
/// paper's geometry.
const ALIAS_STRIDE: u64 = 2 * 1024 * 1024;

/// A long op stream over `pool` base tags, each with three aliases.
/// With `pool` in the thousands the row index doubles many times.
fn long_ops(rng: &mut SimRng, len: usize, pool: u64) -> Vec<Op> {
    let tag = |rng: &mut SimRng| rng.below(pool) + rng.below(3) * ALIAS_STRIDE;
    (0..len)
        .map(|_| match rng.below(10) {
            0..=4 => Op::Update {
                tag: tag(rng),
                next: tag(rng),
                pointer: rng.below(1 << 20),
            },
            5..=7 => Op::Lookup { tag: tag(rng) },
            _ => Op::Probe { tag: tag(rng) },
        })
        .collect()
}

fn entries_of(eit: &mut Eit, tag: u64) -> Option<Vec<(u64, u64)>> {
    eit.lookup(LineAddr::new(tag)).map(|se| {
        se.entries()
            .iter()
            .map(|e| (e.addr.raw(), e.pointer))
            .collect()
    })
}

/// Drives `eit` and `reference` through `ops`, comparing every
/// eviction, lookup and probe.
fn assert_matches_reference(eit: &mut Eit, reference: &mut RefEit, ops: &[Op], what: &str) {
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Update { tag, next, pointer } => {
                let got = eit.update(LineAddr::new(tag), LineAddr::new(next), pointer);
                let want = reference.update(tag, next, pointer);
                assert_eq!(
                    got.map(LineAddr::raw),
                    want,
                    "{what} op {i}: update({tag}) eviction"
                );
            }
            Op::Lookup { tag } => {
                let want = reference.lookup(tag);
                assert_eq!(entries_of(eit, tag), want, "{what} op {i}: lookup({tag})");
            }
            Op::Probe { tag } => {
                assert_eq!(
                    eit.probe(LineAddr::new(tag)),
                    reference.probe(tag),
                    "{what} op {i}: probe({tag})"
                );
            }
        }
    }
}

/// The EIT agrees with the reference model on every lookup: same
/// presence, same entries in the same LRU order, same pointers.
#[test]
fn eit_matches_reference_model() {
    for case in 0..96u64 {
        let mut rng = SimRng::seed(0xE17_0000 + case);
        let ops = ops(&mut rng);
        let rows = 1 + rng.index(5);
        let super_cap = 1 + rng.index(3);
        let entry_cap = 1 + rng.index(3);
        let mut eit = Eit::new(EitConfig {
            rows,
            super_entries_per_row: super_cap,
            entries_per_super: entry_cap,
        });
        let mut reference = RefEit::new(rows, super_cap, entry_cap);
        assert_matches_reference(&mut eit, &mut reference, &ops, &format!("case {case}"));
    }
}

/// Long, heavily aliased streams at 1, 16 and 2 M rows match the
/// reference step for step while the sparse row index grows through
/// several doublings (2 M rows: thousands of touched rows).
#[test]
fn finite_eit_matches_reference_through_index_growth() {
    for rows in [1, 16, 2 * 1024 * 1024] {
        for case in 0..4u64 {
            let mut rng = SimRng::seed(0x1D_0000 + case);
            let cfg = EitConfig {
                rows,
                super_entries_per_row: 1 + case as usize,
                entries_per_super: 3,
            };
            let ops = long_ops(&mut rng, 20_000, 3000);
            let mut eit = Eit::new(cfg);
            let mut reference = RefEit::new(rows, cfg.super_entries_per_row, 3);
            assert_matches_reference(
                &mut eit,
                &mut reference,
                &ops,
                &format!("rows {rows} case {case}"),
            );
            let touched = reference.table.len();
            assert!(touched <= rows, "at most one block per modelled row");
            if rows > 16 {
                assert!(touched > 1000, "stream must touch thousands of rows");
            }
        }
    }
}

/// The unbounded table keeps one super-entry per tag forever: it never
/// reports an eviction, and its entries match a per-tag `Vec` model
/// after every operation, through many index doublings.
#[test]
fn unbounded_eit_matches_per_tag_model() {
    for case in 0..4u64 {
        let mut rng = SimRng::seed(0x0B_1000 + case);
        let cfg = EitConfig::unbounded();
        let mut eit = Eit::new(cfg);
        let mut model = PerTagModel {
            entry_cap: cfg.entries_per_super,
            ..PerTagModel::default()
        };
        for (i, op) in long_ops(&mut rng, 12_000, 1500).iter().enumerate() {
            match *op {
                Op::Update { tag, next, pointer } => {
                    let evicted = eit.update(LineAddr::new(tag), LineAddr::new(next), pointer);
                    assert_eq!(evicted, None, "case {case} op {i}: unbounded evicted");
                    model.update(tag, next, pointer);
                }
                Op::Lookup { tag } => {
                    assert_eq!(
                        entries_of(&mut eit, tag),
                        model.get(tag),
                        "case {case} op {i}: lookup({tag})"
                    );
                }
                Op::Probe { tag } => {
                    assert_eq!(
                        eit.probe(LineAddr::new(tag)),
                        model.get(tag).is_some(),
                        "case {case} op {i}: probe({tag})"
                    );
                }
            }
        }
        assert!(
            model.tags.len() > 1000,
            "stream must touch thousands of tags"
        );
        for (tag, entries) in &model.tags {
            assert_eq!(entries_of(&mut eit, *tag).as_ref(), Some(entries));
        }
    }
}

/// The unbounded EIT never loses a tag and its most-recent entry is
/// always the latest update for that tag.
#[test]
fn unbounded_eit_remembers_latest() {
    for case in 0..96u64 {
        let mut rng = SimRng::seed(0x0B0_0000 + case);
        let len = 1 + rng.index(300);
        let updates: Vec<(u64, u64, u64)> = (0..len)
            .map(|_| (rng.below(16), rng.below(64), rng.below(1000)))
            .collect();
        let mut eit = Eit::new(EitConfig::unbounded());
        let mut latest: std::collections::HashMap<u64, (u64, u64)> =
            std::collections::HashMap::new();
        for &(tag, next, pointer) in &updates {
            eit.update(LineAddr::new(tag), LineAddr::new(next), pointer);
            latest.insert(tag, (next, pointer));
        }
        for (&tag, &(next, pointer)) in &latest {
            let se = eit.lookup(LineAddr::new(tag)).expect("tag present");
            let mr = se.most_recent().expect("entries present");
            assert_eq!(mr.addr.raw(), next);
            assert_eq!(mr.pointer, pointer);
        }
    }
}

/// Guard against an eager row index coming back: a fresh paper-geometry
/// Domino (2 M EIT rows, 16 M history entries) holds almost nothing,
/// and the EIT grows with the rows actually touched.
#[test]
fn footprint_follows_touched_rows_not_geometry() {
    let domino = Domino::new(DominoConfig::default());
    assert!(
        domino.footprint_bytes() < 64 * 1024,
        "fresh Domino reports {} bytes — something is sized by the geometry",
        domino.footprint_bytes()
    );
    let mut eit = Eit::new(EitConfig::default());
    assert_eq!(eit.footprint_bytes(), 0, "an empty EIT allocates nothing");
    for tag in 0..1000u64 {
        eit.update(LineAddr::new(tag), LineAddr::new(tag + 1), tag);
    }
    assert!(
        eit.footprint_bytes() < 512 * 1024,
        "1000 touched rows cost {} bytes",
        eit.footprint_bytes()
    );
}
