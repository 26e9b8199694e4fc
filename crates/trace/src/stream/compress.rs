//! Sequitur chunk codec for `DMNOTRC1` (`codec = 1`).
//!
//! Server miss streams are highly repetitive — that repetitiveness is the
//! entire premise of temporal prefetching, and the same property makes the
//! traces compress well under grammar inference. Each chunk is encoded
//! independently so decompression stays chunk-local and bounded:
//!
//! ```text
//! dict_len  u32
//! dict      dict_len * 24-byte records   (distinct events, first-appearance order)
//! rule_len  u32
//! rules     rule_len entries: sym_len u32, then sym_len u32 symbols
//! ```
//!
//! The event sequence is first mapped to dictionary ids, a Sequitur grammar
//! is inferred over the id sequence (`crates/sequitur`), and the grammar is
//! serialized via [`domino_sequitur::Sequitur::export_rules`]: entry 0 is
//! the start rule and a symbol is either a dictionary id (high bit clear)
//! or `0x8000_0000 | rule_index`. Decoding expands the start rule with an
//! explicit stack, guarded against malformed (cyclic or over-producing)
//! grammars so hostile bytes error out instead of looping or ballooning.

use std::collections::HashMap;

use domino_sequitur::{ExportSym, Sequitur};

use crate::event::AccessEvent;
use crate::frame::{FrameError, Reader, Writer};
use crate::stream::format::{decode_record, encode_record, TraceFileError, RECORD_BYTES};

const RULE_BIT: u32 = 0x8000_0000;

/// Encodes one chunk of events as dictionary + serialized grammar.
pub(crate) fn encode_chunk(events: &[AccessEvent]) -> Vec<u8> {
    let mut dict: Vec<AccessEvent> = Vec::new();
    let mut ids_of: HashMap<[u8; RECORD_BYTES], u32> = HashMap::new();
    let mut ids: Vec<u64> = Vec::with_capacity(events.len());
    let mut rec = [0u8; RECORD_BYTES];
    for ev in events {
        encode_record(ev, &mut rec);
        let next = dict.len() as u32;
        let id = *ids_of.entry(rec).or_insert_with(|| {
            dict.push(*ev);
            next
        });
        ids.push(u64::from(id));
    }
    let grammar = Sequitur::from_sequence(ids);
    let rules = grammar.export_rules();

    let mut out = Writer::default();
    out.u32(dict.len() as u32);
    for ev in &dict {
        encode_record(ev, &mut rec);
        out.bytes(&rec);
    }
    out.u32(rules.len() as u32);
    for body in &rules {
        out.u32(body.len() as u32);
        for sym in body {
            out.u32(match *sym {
                ExportSym::Term(id) => {
                    debug_assert!(id < u64::from(RULE_BIT), "dict ids fit 31 bits");
                    id as u32
                }
                ExportSym::Rule(idx) => RULE_BIT | idx,
            });
        }
    }
    out.into_bytes()
}

/// Decodes one chunk payload, returning the events plus the codec's
/// auxiliary working-set size in bytes (dictionary + rule tables), which
/// feeds resident-memory accounting.
pub(crate) fn decode_chunk(
    bytes: &[u8],
    expected_events: u32,
    chunk: usize,
) -> Result<(Vec<AccessEvent>, u64), TraceFileError> {
    let bad = |e: FrameError| TraceFileError::BadGrammar {
        chunk,
        detail: e.to_string(),
    };
    let mut r = Reader::new(bytes);
    let dict_len = r.u32().map_err(bad)?;
    if dict_len > expected_events {
        return Err(TraceFileError::BadGrammar {
            chunk,
            detail: format!("dictionary of {dict_len} entries exceeds {expected_events} events"),
        });
    }
    let dict_len = r.records(dict_len.into(), RECORD_BYTES).map_err(bad)?;
    let mut dict = Vec::with_capacity(dict_len);
    for i in 0..dict_len {
        match decode_record(r.array().map_err(bad)?) {
            Ok(ev) => dict.push(ev),
            Err(detail) => {
                return Err(TraceFileError::BadRecord {
                    chunk,
                    detail: format!("dictionary entry {i}: {detail}"),
                })
            }
        }
    }

    let rule_len = r.u32().map_err(bad)?;
    if rule_len == 0 {
        return Err(TraceFileError::BadGrammar {
            chunk,
            detail: "no rules (start rule required)".into(),
        });
    }
    // Every rule holds at least its length word, so the remaining bytes
    // bound the rule count and a hostile one cannot force a huge
    // allocation; likewise each body's symbol count.
    let rule_len = r.records(rule_len.into(), 4).map_err(bad)?;
    let mut rules: Vec<Vec<u32>> = Vec::with_capacity(rule_len);
    let mut total_syms = 0u64;
    for rule in 0..rule_len {
        let sym_len = r.u32().map_err(bad)?;
        let sym_len = r.records(sym_len.into(), 4).map_err(bad)?;
        let mut body = Vec::with_capacity(sym_len);
        for _ in 0..sym_len {
            let word = r.u32().map_err(bad)?;
            if word & RULE_BIT != 0 {
                let idx = word & !RULE_BIT;
                if idx as usize >= rule_len || idx == 0 {
                    return Err(TraceFileError::BadGrammar {
                        chunk,
                        detail: format!("rule {rule} references invalid rule {idx}"),
                    });
                }
            } else if word as usize >= dict_len {
                return Err(TraceFileError::BadGrammar {
                    chunk,
                    detail: format!("rule {rule} references dictionary id {word} >= {dict_len}"),
                });
            }
            body.push(word);
        }
        total_syms += sym_len as u64;
        rules.push(body);
    }
    r.finish().map_err(bad)?;

    // Expand the start rule with an explicit stack. Sequitur grammars are
    // acyclic, but these bytes may not be from Sequitur: cap both the
    // output length and the number of expansion steps so cyclic or
    // over-producing grammars terminate with an error.
    let mut out = Vec::with_capacity(expected_events as usize);
    let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
    let step_limit = u64::from(expected_events) * 2 + total_syms * 2 + 64;
    let mut steps = 0u64;
    while let Some((rule, sym_pos)) = stack.pop() {
        steps += 1;
        if steps > step_limit {
            return Err(TraceFileError::BadGrammar {
                chunk,
                detail: "grammar expansion does not terminate".into(),
            });
        }
        let body = &rules[rule as usize];
        if sym_pos >= body.len() {
            continue;
        }
        let word = body[sym_pos];
        stack.push((rule, sym_pos + 1));
        if word & RULE_BIT != 0 {
            if stack.len() > rules.len() + 1 {
                return Err(TraceFileError::BadGrammar {
                    chunk,
                    detail: "grammar recursion exceeds rule count (cycle)".into(),
                });
            }
            stack.push((word & !RULE_BIT, 0));
        } else {
            if out.len() == expected_events as usize {
                return Err(TraceFileError::BadGrammar {
                    chunk,
                    detail: format!("grammar expands past the indexed {expected_events} events"),
                });
            }
            out.push(dict[word as usize]);
        }
    }
    if out.len() != expected_events as usize {
        return Err(TraceFileError::BadGrammar {
            chunk,
            detail: format!(
                "grammar expands to {} events, index says {expected_events}",
                out.len()
            ),
        });
    }
    let aux_bytes = (dict.len() * RECORD_BYTES) as u64 + total_syms * 4 + rule_len as u64 * 24;
    Ok((out, aux_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::catalog;

    fn sample(n: usize) -> Vec<AccessEvent> {
        catalog::data_serving().generator(3).take(n).collect()
    }

    #[test]
    fn chunk_round_trips() {
        for n in [0usize, 1, 17, 500, 2000] {
            let events = sample(n);
            let bytes = encode_chunk(&events);
            let (decoded, aux) = decode_chunk(&bytes, n as u32, 0).unwrap();
            assert_eq!(decoded, events);
            if n > 0 {
                assert!(aux > 0);
            }
        }
    }

    #[test]
    fn repetitive_chunks_shrink() {
        // A repeated motif: grammar + dictionary must beat raw records.
        let motif = sample(64);
        let mut events = Vec::new();
        for _ in 0..64 {
            events.extend_from_slice(&motif);
        }
        let bytes = encode_chunk(&events);
        assert!(
            bytes.len() < events.len() * RECORD_BYTES / 4,
            "compressed {} bytes vs raw {}",
            bytes.len(),
            events.len() * RECORD_BYTES
        );
        let (decoded, _) = decode_chunk(&bytes, events.len() as u32, 0).unwrap();
        assert_eq!(decoded, events);
    }

    #[test]
    fn wrong_event_count_is_detected() {
        let events = sample(100);
        let bytes = encode_chunk(&events);
        let err = decode_chunk(&bytes, 99, 0).unwrap_err();
        assert!(matches!(err, TraceFileError::BadGrammar { .. }), "{err}");
        let err = decode_chunk(&bytes, 101, 0).unwrap_err();
        assert!(matches!(err, TraceFileError::BadGrammar { .. }), "{err}");
    }

    #[test]
    fn cyclic_grammar_errors_instead_of_looping() {
        // dict: 1 entry; rules: start -> rule 1, rule 1 -> rule 1 (cycle).
        let ev = sample(1);
        let mut rec = [0u8; RECORD_BYTES];
        encode_record(&ev[0], &mut rec);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&rec);
        bytes.extend_from_slice(&2u32.to_le_bytes()); // two rules
        bytes.extend_from_slice(&1u32.to_le_bytes()); // start: 1 symbol
        bytes.extend_from_slice(&(RULE_BIT | 1).to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes()); // rule 1: 1 symbol
        bytes.extend_from_slice(&(RULE_BIT | 1).to_le_bytes()); // itself
        let err = decode_chunk(&bytes, 4, 0).unwrap_err();
        assert!(matches!(err, TraceFileError::BadGrammar { .. }), "{err}");
    }

    #[test]
    fn truncated_payload_errors() {
        let events = sample(64);
        let bytes = encode_chunk(&events);
        for cut in [0, 2, 5, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_chunk(&bytes[..cut], 64, 3).unwrap_err();
            match err {
                TraceFileError::BadGrammar { chunk, .. }
                | TraceFileError::BadRecord { chunk, .. } => assert_eq!(chunk, 3),
                other => panic!("unexpected error {other}"),
            }
        }
    }
}
