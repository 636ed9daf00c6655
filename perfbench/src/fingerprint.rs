//! Output fingerprints: the check that a faster run computed the same
//! numbers as the tick-loop oracle.
//!
//! A fingerprint is a list of labelled FNV-1a hashes. Labels name what
//! was hashed and, for per-link entries, which job produced it:
//! `r{replication}.link{link}.{kind}` for one link job, `r{replication}.{kind}`
//! for a whole replication. Kinds:
//!
//! * `records` — every field of every session record the engine emitted,
//!   in order (the hash of `crates/streamsim/tests/golden_unrouted.rs`);
//! * `sessions` — the engine's record count;
//! * `summary` — the link's `FleetLinkSummary` after folding;
//! * `fleet` — the finalized `FleetSummary` of one replication;
//! * `estimate.{name}` — the bit patterns of one final estimate.
//!
//! Summaries are hashed through their `Debug` rendering, which prints
//! every float in shortest round-trip form, so two renderings agree
//! exactly when every value agrees bit for bit (NaN payloads aside).

use std::collections::{BTreeMap, BTreeSet};

use streamsim::SessionRecord;

/// Incremental FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word.
    pub fn word(&mut self, bits: u64) {
        self.0 ^= bits;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold a float's bit pattern.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Fold a byte string, one byte per word.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.word(u64::from(b));
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a over the bit patterns of every field of every record, in
/// record order.
pub fn records_fnv(records: &[SessionRecord]) -> u64 {
    let mut h = Fnv::default();
    for r in records {
        h.word(r.day as u64);
        h.word(r.hour as u64);
        h.word(u64::from(r.weekend));
        h.word(u64::from(r.treated));
        h.float(r.arrival_s);
        h.float(r.throughput_bps);
        h.float(r.min_rtt_s);
        h.float(r.play_delay_s);
        h.float(r.bitrate_bps);
        h.float(r.quality);
        h.word(u64::from(r.rebuffer_count));
        h.word(u64::from(r.rebuffered));
        h.word(u64::from(r.cancelled));
        h.float(r.bytes);
        h.float(r.retx_bytes);
        h.word(u64::from(r.switches));
        h.float(r.duration_s);
    }
    h.finish()
}

/// FNV-1a over a value's `Debug` rendering.
pub fn debug_fnv(value: &impl std::fmt::Debug) -> u64 {
    let mut h = Fnv::default();
    h.bytes(format!("{value:?}").as_bytes());
    h.finish()
}

/// Labelled hashes of one run's output.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    entries: BTreeMap<String, u64>,
}

/// The kind of an entry: its label minus the replication and link
/// prefixes.
fn kind(label: &str) -> &str {
    let mut rest = label;
    for prefix in ['r', 'l'] {
        if rest.starts_with(prefix) {
            if let Some((_, tail)) = rest.split_once('.') {
                rest = tail;
            }
        }
    }
    rest.split('.').next().unwrap_or(rest)
}

/// The `(replication, link)` job a per-link label belongs to.
fn job(label: &str) -> Option<(usize, usize)> {
    let mut parts = label.split('.');
    let r = parts.next()?.strip_prefix('r')?.parse().ok()?;
    let link = parts.next()?.strip_prefix("link")?.parse().ok()?;
    Some((r, link))
}

/// The replication a label belongs to.
fn replication(label: &str) -> Option<usize> {
    label.split('.').next()?.strip_prefix('r')?.parse().ok()
}

impl Fingerprint {
    /// Record one labelled hash.
    pub fn insert(&mut self, label: String, hash: u64) {
        self.entries.insert(label, hash);
    }

    /// The `(label, hash)` entries in label order.
    pub fn entries(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(l, &h)| (l.as_str(), h))
    }

    /// Number of link jobs, out of `links × replications`, whose output
    /// differs from `self` (the expected fingerprint) or is missing from
    /// `got`. Only entry kinds that `got` produced are compared (an
    /// untraced sweep has no records to hash). A differing
    /// whole-replication entry fails every job of that replication;
    /// output the oracle never produced fails every job.
    pub fn failed_jobs(&self, got: &Fingerprint, links: usize, replications: usize) -> usize {
        let all = links * replications;
        if got.entries.keys().any(|l| !self.entries.contains_key(l)) {
            return all;
        }
        let produced: BTreeSet<&str> = got.entries.keys().map(|l| kind(l)).collect();
        let mut failed = BTreeSet::new();
        for (label, hash) in &self.entries {
            if !produced.contains(kind(label)) || got.entries.get(label) == Some(hash) {
                continue;
            }
            if let Some(j) = job(label) {
                failed.insert(j);
            } else if let Some(r) = replication(label).filter(|&r| r < replications) {
                failed.extend((0..links).map(|link| (r, link)));
            } else {
                return all;
            }
        }
        failed.len().min(all)
    }
}

/// Stored oracle fingerprints: `workload seed label hash` per line.
pub fn parse_stored(text: &str) -> BTreeMap<(String, u64), Fingerprint> {
    let mut out: BTreeMap<(String, u64), Fingerprint> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, seed, label, hash] = fields[..] else {
            panic!("malformed fingerprint line: {line}");
        };
        let seed = seed.parse().expect("fingerprint seed");
        let hash = u64::from_str_radix(hash, 16).expect("fingerprint hash");
        out.entry((workload.to_string(), seed))
            .or_default()
            .insert(label.to_string(), hash);
    }
    out
}

/// Render fingerprints in the stored format.
pub fn format_stored(workload: &str, seed: u64, fp: &Fingerprint) -> String {
    fp.entries()
        .map(|(label, hash)| format!("{workload} {seed} {label} {hash:016x}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(entries: &[(&str, u64)]) -> Fingerprint {
        let mut f = Fingerprint::default();
        for &(l, h) in entries {
            f.insert(l.to_string(), h);
        }
        f
    }

    #[test]
    fn labels_parse() {
        assert_eq!(kind("r0.link12.summary"), "summary");
        assert_eq!(kind("r1.fleet"), "fleet");
        assert_eq!(kind("r0.estimate.user.throughput"), "estimate");
        assert_eq!(job("r2.link7.records"), Some((2, 7)));
        assert_eq!(job("r0.fleet"), None);
    }

    #[test]
    fn failures_count_jobs_and_kinds() {
        let oracle = fp(&[
            ("r0.link0.records", 1),
            ("r0.link0.summary", 2),
            ("r0.link1.records", 3),
            ("r0.link1.summary", 4),
            ("r0.fleet", 5),
        ]);
        // A sweep without records, all matching.
        let sweep = fp(&[
            ("r0.link0.summary", 2),
            ("r0.link1.summary", 4),
            ("r0.fleet", 5),
        ]);
        assert_eq!(oracle.failed_jobs(&sweep, 2, 1), 0);
        // One link's summary differs, the other is missing (quarantined).
        let bad = fp(&[("r0.link0.summary", 9), ("r0.link1.summary", 4)]);
        assert_eq!(oracle.failed_jobs(&bad, 2, 1), 1);
        let lost = fp(&[("r0.link0.summary", 9)]);
        assert_eq!(oracle.failed_jobs(&lost, 2, 1), 2);
        // A whole-replication difference fails every job of it.
        let worse = fp(&[
            ("r0.link0.summary", 2),
            ("r0.link1.summary", 4),
            ("r0.fleet", 6),
        ]);
        assert_eq!(oracle.failed_jobs(&worse, 2, 1), 2);
        // Output the oracle never produced fails everything.
        let extra = fp(&[("r1.fleet", 5)]);
        assert_eq!(oracle.failed_jobs(&extra, 2, 2), 4);
    }

    #[test]
    fn stored_round_trip() {
        let f = fp(&[("r0.link0.records", 0xdead_beef), ("r0.fleet", u64::MAX)]);
        let text = format_stored("w", 3, &f);
        let parsed = parse_stored(&text);
        assert_eq!(parsed[&("w".to_string(), 3)], f);
    }
}
