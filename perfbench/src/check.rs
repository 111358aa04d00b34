//! Output checks: a hash over model results only.
//!
//! The hash covers what a user of a simulation reads — flow completion
//! records or the streaming-statistics fingerprint, and the delivered /
//! dropped / ECN-marked / PFC-paused / probe counters — and nothing about
//! how the simulator got there. Event counts, scheduler pops and batch
//! sizes stay out, so a change that removes internal events bit-identically
//! passes and any change to the model fails.

use netsim::{FlowRecord, SimCounters, SimResult};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// Fold one word.
    pub fn fold(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest so far.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Hash of one run's model results.
pub fn model_hash(res: &SimResult) -> u64 {
    let fingerprint = res.streaming.as_deref().map(|st| st.fingerprint());
    hash_parts(&res.records, fingerprint, &res.counters)
}

fn hash_parts(records: &[FlowRecord], fingerprint: Option<u64>, c: &SimCounters) -> u64 {
    let mut h = Fnv::default();
    for r in records {
        h.fold(r.flow as u64);
        h.fold(r.size);
        h.fold(r.start.as_ps());
        h.fold(r.finish.map_or(u64::MAX, |t| t.as_ps()));
        h.fold(r.delivered);
        h.fold(r.retransmits);
    }
    if let Some(fp) = fingerprint {
        h.fold(fp);
    }
    for v in [
        c.data_delivered,
        c.drops,
        c.ecn_marks,
        c.pfc_pauses,
        c.probes,
    ] {
        h.fold(v);
    }
    h.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_ignores_work_counts_but_not_model_counters() {
        let mut c = SimCounters {
            data_delivered: 10,
            ..SimCounters::default()
        };
        let base = hash_parts(&[], Some(5), &c);
        c.events = 999;
        c.sched_pops = 3;
        c.arena_slab_slots = 7;
        assert_eq!(
            hash_parts(&[], Some(5), &c),
            base,
            "work counts are not model output"
        );
        c.ecn_marks = 1;
        assert_ne!(
            hash_parts(&[], Some(5), &c),
            base,
            "ECN marks are model output"
        );
        c.ecn_marks = 0;
        assert_ne!(
            hash_parts(&[], Some(6), &c),
            base,
            "the streaming fingerprint is model output"
        );
    }
}
