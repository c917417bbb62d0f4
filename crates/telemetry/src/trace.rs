//! Structured event tracer: lock-sharded ring buffers with JSONL export.
//!
//! Sharding mirrors the optimizer's invocation cache: each shard is a
//! small `Mutex<RingBuffer>`, and a recording thread picks its shard by
//! thread id, so concurrent campaign workers almost never contend on the
//! same lock. Every event gets a global sequence number; export collects
//! all shards and sorts by it, so a single-threaded trace reads in exact
//! causal order (multi-threaded traces interleave, as the work did).
//!
//! The buffers are rings: a campaign that outgrows the capacity drops the
//! *oldest* events per shard and counts the drops — tracing can never
//! abort or slow a run by reallocating without bound.

use crate::json::Json;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Which optimizer phase a rule firing happened in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RulePhase {
    Explore,
    Implement,
}

ruletest_common::wire_names!(RulePhase { Explore => "explore", Implement => "implement" });

/// One traced event. Payloads are small and fixed-size; rule and target
/// indices resolve against the run report's rule table.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A computed optimizer invocation (cache misses and uncached calls).
    Invocation {
        /// Hash of the logical tree (correlates invocations on one query).
        fingerprint: u64,
        /// Number of rules disabled by the mask.
        masked_rules: u32,
        groups: u32,
        exprs: u32,
        truncated: bool,
        elapsed_us: u64,
    },
    /// An invocation-cache lookup.
    CacheLookup { fingerprint: u64, hit: bool },
    /// A rule produced output at a fire/apply site.
    RuleFire {
        rule: u16,
        phase: RulePhase,
        produced: u32,
    },
    /// One generation problem finished (or gave up).
    GenOutcome {
        /// First target rule of the generation problem.
        rule: u16,
        trials: u64,
        ops: u32,
        found: bool,
    },
    /// One target's §5.3.1 edge-probe scan finished.
    GraphProbe {
        target: u32,
        scanned: u32,
        pruned: u32,
    },
    /// One `(target, query)` correctness validation finished.
    Validation {
        target: u32,
        query: u32,
        outcome: &'static str,
    },
    /// The supervisor sandbox absorbed a failed invocation. `kind` is the
    /// failure taxonomy name ("panic" / "timeout" / "budget"); `site` says
    /// where it escaped; `fingerprint` is the quarantined input's stable
    /// fingerprint.
    Supervised {
        kind: &'static str,
        site: String,
        fingerprint: u64,
    },
}

impl Event {
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Invocation { .. } => "invocation",
            Event::CacheLookup { .. } => "cache_lookup",
            Event::RuleFire { .. } => "rule_fire",
            Event::GenOutcome { .. } => "gen_outcome",
            Event::GraphProbe { .. } => "graph_probe",
            Event::Validation { .. } => "validation",
            Event::Supervised { .. } => "supervised",
        }
    }

    /// JSON object for one JSONL line (sequence number prepended by the
    /// exporter).
    fn payload(&self) -> Vec<(&'static str, Json)> {
        match self {
            Event::Invocation {
                fingerprint,
                masked_rules,
                groups,
                exprs,
                truncated,
                elapsed_us,
            } => vec![
                ("fingerprint", Json::str(format!("{fingerprint:016x}"))),
                ("masked_rules", Json::count(*masked_rules as u64)),
                ("groups", Json::count(*groups as u64)),
                ("exprs", Json::count(*exprs as u64)),
                ("truncated", Json::Bool(*truncated)),
                ("elapsed_us", Json::count(*elapsed_us)),
            ],
            Event::CacheLookup { fingerprint, hit } => vec![
                ("fingerprint", Json::str(format!("{fingerprint:016x}"))),
                ("hit", Json::Bool(*hit)),
            ],
            Event::RuleFire {
                rule,
                phase,
                produced,
            } => vec![
                ("rule", Json::count(*rule as u64)),
                ("phase", Json::str(phase.name())),
                ("produced", Json::count(*produced as u64)),
            ],
            Event::GenOutcome {
                rule,
                trials,
                ops,
                found,
            } => vec![
                ("rule", Json::count(*rule as u64)),
                ("trials", Json::count(*trials)),
                ("ops", Json::count(*ops as u64)),
                ("found", Json::Bool(*found)),
            ],
            Event::GraphProbe {
                target,
                scanned,
                pruned,
            } => vec![
                ("target", Json::count(*target as u64)),
                ("scanned", Json::count(*scanned as u64)),
                ("pruned", Json::count(*pruned as u64)),
            ],
            Event::Validation {
                target,
                query,
                outcome,
            } => vec![
                ("target", Json::count(*target as u64)),
                ("query", Json::count(*query as u64)),
                ("outcome", Json::str(*outcome)),
            ],
            Event::Supervised {
                kind,
                site,
                fingerprint,
            } => vec![
                ("kind", Json::str(*kind)),
                ("site", Json::str(site.clone())),
                ("fingerprint", Json::str(format!("{fingerprint:016x}"))),
            ],
        }
    }

    fn to_json(&self, seq: u64) -> Json {
        let mut fields = vec![("seq", Json::count(seq)), ("type", Json::str(self.kind()))];
        fields.extend(self.payload());
        Json::obj(fields)
    }
}

struct Shard {
    /// Ring slots, `(sequence, event)`.
    slots: Vec<(u64, Event)>,
    /// Next write position once the ring is full.
    head: usize,
    dropped: u64,
    capacity: usize,
}

impl Shard {
    fn push(&mut self, seq: u64, event: Event) {
        if self.slots.len() < self.capacity {
            self.slots.push((seq, event));
        } else {
            self.slots[self.head] = (seq, event);
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

/// Tracer totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Events recorded (including any later overwritten).
    pub recorded: u64,
    /// Events overwritten by ring wraparound.
    pub dropped: u64,
}

/// The sharded ring-buffer tracer.
pub struct Tracer {
    shards: Vec<Mutex<Shard>>,
    seq: AtomicU64,
}

/// Default events retained per shard (16 shards → 64Ki events total).
pub const DEFAULT_SHARD_CAPACITY: usize = 4096;
const SHARDS: usize = 16;

impl Tracer {
    pub fn new(shard_capacity: usize) -> Self {
        let capacity = shard_capacity.max(1);
        Self {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        slots: Vec::new(),
                        head: 0,
                        dropped: 0,
                        capacity,
                    })
                })
                .collect(),
            seq: AtomicU64::new(0),
        }
    }

    fn shard_for_current_thread(&self) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        &self.shards[(h.finish() % self.shards.len() as u64) as usize]
    }

    pub fn record(&self, event: Event) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.shard_for_current_thread()
            .lock()
            .expect("tracer shard poisoned")
            .push(seq, event);
    }

    pub fn stats(&self) -> TraceStats {
        let dropped = self
            .shards
            .iter()
            .map(|s| s.lock().expect("tracer shard poisoned").dropped)
            .sum();
        TraceStats {
            recorded: self.seq.load(Ordering::Relaxed),
            dropped,
        }
    }

    /// All retained events, sorted by sequence number.
    pub fn collect(&self) -> Vec<(u64, Event)> {
        let mut all: Vec<(u64, Event)> = Vec::new();
        for shard in &self.shards {
            all.extend_from_slice(&shard.lock().expect("tracer shard poisoned").slots);
        }
        all.sort_by_key(|(seq, _)| *seq);
        all
    }

    /// Writes the retained events as JSONL, one event object per line.
    pub fn export_jsonl<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for (seq, event) in self.collect() {
            writeln!(w, "{}", event.to_json(seq).to_string_compact())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire(rule: u16) -> Event {
        Event::RuleFire {
            rule,
            phase: RulePhase::Explore,
            produced: 1,
        }
    }

    #[test]
    fn events_export_in_sequence_order() {
        let t = Tracer::new(64);
        for i in 0..10 {
            t.record(fire(i));
        }
        let got = t.collect();
        assert_eq!(got.len(), 10);
        for (i, (seq, ev)) in got.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*ev, fire(i as u16));
        }
        assert_eq!(
            t.stats(),
            TraceStats {
                recorded: 10,
                dropped: 0
            }
        );
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::new(4);
        // Single thread → single shard → capacity 4.
        for i in 0..10u16 {
            t.record(fire(i));
        }
        let got = t.collect();
        assert_eq!(got.len(), 4);
        assert_eq!(t.stats().dropped, 6);
        assert_eq!(t.stats().recorded, 10);
        // The survivors are the newest four.
        let seqs: Vec<u64> = got.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let t = Tracer::new(64);
        t.record(Event::Invocation {
            fingerprint: 0xDEAD_BEEF,
            masked_rules: 2,
            groups: 10,
            exprs: 25,
            truncated: false,
            elapsed_us: 1234,
        });
        t.record(Event::CacheLookup {
            fingerprint: 1,
            hit: true,
        });
        t.record(Event::Validation {
            target: 0,
            query: 3,
            outcome: "clean",
        });
        let mut buf = Vec::new();
        t.export_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let j = Json::parse(line).unwrap();
            assert!(j.get("seq").and_then(Json::as_u64).is_some());
            assert!(j.get("type").and_then(Json::as_str).is_some());
        }
        let inv = Json::parse(lines[0]).unwrap();
        assert_eq!(inv.get("type").and_then(Json::as_str), Some("invocation"));
        assert_eq!(inv.get("groups").and_then(Json::as_u64), Some(10));
        assert_eq!(
            inv.get("fingerprint").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
    }

    #[test]
    fn concurrent_recording_is_lossless_below_capacity() {
        let t = std::sync::Arc::new(Tracer::new(4096));
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..500u16 {
                        t.record(fire(w * 1000 + i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = t.stats();
        assert_eq!(stats.recorded, 2000);
        assert_eq!(stats.dropped, 0);
        let got = t.collect();
        assert_eq!(got.len(), 2000);
        // Sequence numbers are unique and sorted.
        for w in got.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }
}
