//! The seeded `serve-corpus` request stream.
//!
//! Each connection walks the labelled corpus in a seeded order, one
//! reshuffle per cycle. Three of every four requests append a fresh
//! trailing `// salt` comment to the program, which leaves the report
//! unchanged but makes the text new to the server's result cache. Every
//! fourth request (from the fifth group on) repeats, byte for byte, the
//! request its connection sent `REPEAT_DISTANCE` requests earlier. The
//! connection waits for each reply, so the repeat is answered from the
//! cache: at most 2 × `REPEAT_DISTANCE` entries are inserted in between,
//! well inside the server's 128-entry LRU.

use rust_safety_study::corpus::{all_entries, CorpusEntry};

use crate::rng::{mix, Rng};

pub const REPEAT_DISTANCE: usize = 16;

/// One request of the stream and how the server must answer it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusOp {
    /// Index into the corpus (`all_entries()`).
    pub entry: usize,
    pub salt: u64,
    /// A repeat: the server must answer from its cache.
    pub cached: bool,
}

/// Marks where the salt's 16 hex digits sit in a request line.
const SALT_PLACEHOLDER: &str = "0000000000000000";

/// The request stream of one connection.
pub struct CorpusStream {
    seed: u64,
    conn: u64,
    pos: usize,
    entries: usize,
    order: Vec<usize>,
    recent: [CorpusOp; REPEAT_DISTANCE],
}

impl CorpusStream {
    pub fn new(seed: u64, conn: u64) -> CorpusStream {
        CorpusStream {
            seed,
            conn,
            pos: 0,
            entries: all_entries().len(),
            order: Vec::new(),
            recent: [CorpusOp {
                entry: 0,
                salt: 0,
                cached: false,
            }; REPEAT_DISTANCE],
        }
    }
}

impl Iterator for CorpusStream {
    type Item = CorpusOp;

    fn next(&mut self) -> Option<CorpusOp> {
        let n = self.entries;
        let pos = self.pos;
        self.pos += 1;
        let op = if pos % 4 == 3 && pos >= REPEAT_DISTANCE {
            CorpusOp {
                cached: true,
                ..self.recent[pos % REPEAT_DISTANCE]
            }
        } else {
            if pos.is_multiple_of(n) {
                let cycle = (pos / n) as u64;
                self.order = (0..n).collect();
                Rng::new(self.seed, (self.conn << 32) | cycle).shuffle(&mut self.order);
            }
            CorpusOp {
                entry: self.order[pos % n],
                // `mix` is a bijection, so distinct (conn, pos) pairs never
                // share a salt within a run.
                salt: mix(mix(self.seed).wrapping_add((self.conn << 40) | pos as u64)),
                cached: false,
            }
        };
        self.recent[pos % REPEAT_DISTANCE] = op;
        Some(op)
    }
}

/// Pre-built request lines, one per corpus entry, each with a reserved
/// slot for the salt. Sending a request copies nothing and encodes
/// nothing: [`Lines::stamp`] writes the salt's hex digits into the slot.
pub struct Lines {
    lines: Vec<Vec<u8>>,
    salt_at: Vec<usize>,
}

impl Lines {
    pub fn new(entries: &[&CorpusEntry], trace: bool) -> Lines {
        let mut lines = Vec::with_capacity(entries.len());
        let mut salt_at = Vec::with_capacity(entries.len());
        for e in entries {
            let program = format!("{}// salt {SALT_PLACEHOLDER}\n", e.source);
            let mut line = String::from("{\"program\":");
            push_json_string(&mut line, &program);
            if trace {
                line.push_str(",\"trace\":true");
            }
            line.push_str("}\n");
            let at = line
                .rfind(SALT_PLACEHOLDER)
                .expect("the line carries its salt slot");
            lines.push(line.into_bytes());
            salt_at.push(at);
        }
        Lines { lines, salt_at }
    }

    /// The request line (newline included) for `op`.
    pub fn stamp(&mut self, op: &CorpusOp) -> &[u8] {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let at = self.salt_at[op.entry];
        let line = &mut self.lines[op.entry];
        for (i, b) in line[at..at + 16].iter_mut().enumerate() {
            *b = HEX[((op.salt >> (60 - 4 * i)) & 0xF) as usize];
        }
        line
    }
}

/// Appends `s` as a JSON string literal.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64, conn: u64, n: usize) -> Vec<Vec<u8>> {
        let entries = all_entries();
        let mut lines = Lines::new(&entries, false);
        CorpusStream::new(seed, conn)
            .take(n)
            .map(|op| lines.stamp(&op).to_vec())
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(lines(7, 0, 300), lines(7, 0, 300));
        assert_ne!(lines(7, 0, 300), lines(8, 0, 300));
        assert_ne!(lines(7, 0, 300), lines(7, 1, 300));
    }

    #[test]
    fn every_fourth_request_repeats_one_sixteen_back_and_the_rest_are_fresh() {
        let sent = lines(3, 1, 2000);
        let ops: Vec<CorpusOp> = CorpusStream::new(3, 1).take(2000).collect();
        let mut seen = std::collections::HashSet::new();
        for (pos, (line, op)) in sent.iter().zip(&ops).enumerate() {
            let repeat = pos % 4 == 3 && pos >= REPEAT_DISTANCE;
            assert_eq!(op.cached, repeat, "position {pos}");
            if repeat {
                assert_eq!(line, &sent[pos - REPEAT_DISTANCE]);
            } else {
                assert!(seen.insert(line.clone()), "position {pos} is not fresh");
            }
        }
        assert_eq!(ops.iter().filter(|o| o.cached).count(), (2000 - 16) / 4);
    }

    #[test]
    fn fresh_requests_of_one_cycle_name_distinct_entries() {
        let n = all_entries().len();
        let mut fresh: Vec<usize> = CorpusStream::new(11, 0)
            .take(n)
            .filter(|o| !o.cached)
            .map(|o| o.entry)
            .collect();
        let count = fresh.len();
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), count);
    }

    #[test]
    fn the_salt_comment_leaves_every_report_unchanged() {
        use rust_safety_study::core::suite::DetectorSuite;
        use rust_safety_study::mir::parse::parse_program;
        let suite = DetectorSuite::new().with_jobs(1);
        for e in all_entries() {
            let salted = format!("{}// salt 0123456789abcdef\n", e.source);
            let plain = suite.check_program(&parse_program(e.source).unwrap());
            let salted = suite.check_program(&parse_program(&salted).unwrap());
            assert_eq!(
                serde_json::to_string(&plain).unwrap(),
                serde_json::to_string(&salted).unwrap(),
                "{}",
                e.name
            );
        }
    }

    #[test]
    fn request_lines_are_json_the_server_accepts() {
        let entries = all_entries();
        let mut lines = Lines::new(&entries, true);
        let op = CorpusStream::new(5, 0).next().unwrap();
        let line = std::str::from_utf8(lines.stamp(&op)).unwrap();
        let value: serde_json::Value = serde_json::from_str(line.trim_end()).unwrap();
        let program = value.get("program").and_then(|p| p.as_str()).unwrap();
        assert_eq!(
            program,
            format!("{}// salt {:016x}\n", entries[op.entry].source, op.salt)
        );
        assert!(matches!(
            value.get("trace"),
            Some(serde_json::Value::Bool(true))
        ));
    }
}
