//! Tuple-space-search classifier.
//!
//! The OVS classifier groups rules by identical mask into *subtables*;
//! each subtable is a hash table keyed by the masked flow key. A lookup
//! probes subtables in descending order of their highest rule priority
//! and can stop as soon as a match outranks every remaining subtable —
//! the structure whose per-subtable probing cost shows up in the 1 vs
//! 1,000 flow results (§5.2) and in the `classifier` ablation bench.
//!
//! Within a priority tier, subtables are additionally *ranked* by hit
//! count and periodically re-sorted (OVS's `dpcls_sort_subtable_vector`),
//! so skewed traffic probes its hot subtable first. The megaflow cache
//! ([`ovs_packet::MegaflowCache`]) is a separate, priority-free table with
//! the same ranking; this classifier holds OpenFlow rules only.
//!
//! Subtables store and match rules as sparse [`Miniflow`]s under a
//! [`MiniMask`]: masking, hashing, and comparing touch only the mask's
//! populated 8-byte slots.
//!
//! [`Classifier::lookup_wc`], the lookup translation uses, is *staged*
//! (upstream `lib/classifier.c`; Pfaff et al., NSDI'15): each subtable is
//! probed one [stage](STAGES) at a time — metadata, L2, L3, L4 — against
//! a per-subtable index of the rules' stage prefixes, and a probe that
//! fails at a stage un-wildcards only the mask's fields up to that stage.
//! A probe that can rule a subtable out on its L3 addresses then leaves
//! the L4 ports wildcarded, so a megaflow is not per-connection just
//! because the table holds 5-tuple rules for other addresses.

use ovs_packet::megaflow::DEFAULT_RANK_INTERVAL;
use ovs_packet::{FlowKey, FlowMask, MiniMask, Miniflow};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The lookup stages, in the order a staged probe checks them (upstream's
/// flow segments): metadata (`in_port`, `recirc_id`, tunnel, conntrack
/// and the metadata register), L2, L3 (addresses, `nw_proto`, `nw_tos`,
/// `nw_ttl`, `nw_frag`) and L4 (ports).
pub const STAGES: [&str; 4] = ["metadata", "l2", "l3", "l4"];

/// Each stage's bits of the [`FlowKey`] word layout; together they cover
/// every bit exactly once.
const STAGE_BITS: [FlowMask; 4] = {
    const M: u64 = u64::MAX;
    [
        FlowMask::from_words([M, 0, 0, 0, 0, 0, 0, 0, M, M, M, M]),
        FlowMask::from_words([0, M, M, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        FlowMask::from_words([0, 0, 0, M, M, M, M, 0xffff_ffff_0000_0000, 0, 0, 0, 0]),
        FlowMask::from_words([0, 0, 0, 0, 0, 0, 0, 0x0000_0000_ffff_ffff, 0, 0, 0, 0]),
    ]
};

/// `mask` restricted to stages `0..=stage`: what a staged probe of a
/// subtable with this mask un-wildcards when it stops at `stage`.
pub(crate) fn stage_prefix(mask: &FlowMask, stage: usize) -> FlowMask {
    let mut upto = FlowMask::EMPTY;
    for bits in &STAGE_BITS[..=stage] {
        upto.unite(bits);
    }
    mask.intersect(&upto)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The avalanche finalizer of `FlowKey::hash_masked`.
fn finish(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// A hasher that passes a `u64` key through: the stage index keys are
/// already finalized hashes, of rule keys the controller supplies (a
/// lookup only tests membership, it never inserts).
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// One cumulative stage prefix of a subtable's mask that lies strictly
/// inside the mask, with how many of the subtable's rules have each
/// value under it (keyed by hash).
#[derive(Debug)]
struct StageIndex {
    /// The stage this prefix ends with.
    stage: usize,
    /// The mask's bits in this stage alone, as `(slot, bits)` in slot
    /// order: what the running hash folds in on top of the prefix before.
    segment: Vec<(usize, u64)>,
    /// The mask's bits in stages `0..=stage`, united into the wildcards
    /// when a probe stops here.
    prefix: FlowMask,
    /// Rules per hash of their key under `prefix`.
    counts: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
}

impl StageIndex {
    /// The stage plan of a subtable with `mask`: one index per stage the
    /// mask touches, except the last — past it, the probe is the full
    /// masked-key lookup. Also returns that last stage (0 for the empty
    /// mask).
    fn plan(mask: &FlowMask) -> (Vec<StageIndex>, usize) {
        let touched: Vec<usize> = (0..STAGES.len())
            .filter(|&s| mask.intersect(&STAGE_BITS[s]) != FlowMask::EMPTY)
            .collect();
        let Some((&last, inner)) = touched.split_last() else {
            return (Vec::new(), 0);
        };
        let index = inner
            .iter()
            .map(|&stage| StageIndex {
                stage,
                segment: MiniMask::from_mask(&mask.intersect(&STAGE_BITS[stage]))
                    .iter()
                    .collect(),
                prefix: stage_prefix(mask, stage),
                counts: HashMap::default(),
            })
            .collect();
        (index, last)
    }

    /// Fold this stage's bits of `flow` into the running prefix hash `h`
    /// and return the finalized hash of `flow` under `prefix`. Walking a
    /// subtable's indices in order hashes every prefix in one pass.
    fn fold(&self, h: &mut u64, flow: &Miniflow) -> u64 {
        for &(w, m) in &self.segment {
            *h = (*h ^ (flow.get(w) & m)).wrapping_mul(FNV_PRIME);
        }
        finish(*h)
    }
}

/// A classifier rule: match (key under mask), priority, and an opaque
/// value (rule id / actions handle).
#[derive(Debug, Clone, PartialEq)]
pub struct Rule<V> {
    /// Match key (only bits under `mask` are significant).
    pub key: FlowKey,
    /// Wildcard mask.
    pub mask: FlowMask,
    /// Higher wins.
    pub priority: i32,
    /// Payload.
    pub value: V,
}

#[derive(Debug)]
struct Subtable<V> {
    mask: FlowMask,
    /// The sparse form every probe actually uses.
    mini_mask: MiniMask,
    /// Masked key (sparse, canonical) → rules (several priorities may
    /// share a masked key).
    rules: HashMap<Miniflow, Vec<Rule<V>>>,
    max_priority: i32,
    rule_count: usize,
    /// Lookups this subtable answered (the ranking key).
    hits: u64,
    /// The staged probe's prefix indices, in stage order.
    index: Vec<StageIndex>,
    /// The last stage the mask touches, where a probe that passes every
    /// prefix stops.
    last_stage: usize,
}

impl<V> Subtable<V> {
    /// Add `n` rules with masked key `masked` to the stage index, or
    /// take them out (`add == false`).
    fn index_rules(&mut self, masked: &Miniflow, n: u32, add: bool) {
        let mut h = FNV_OFFSET;
        for ix in &mut self.index {
            let k = ix.fold(&mut h, masked);
            if add {
                *ix.counts.entry(k).or_insert(0) += n;
            } else if let Entry::Occupied(mut e) = ix.counts.entry(k) {
                *e.get_mut() -= n;
                if *e.get() == 0 {
                    e.remove();
                }
            }
        }
    }
}

/// One subtable's entry in the ranked probe vector, as dumped by
/// `dpif-netdev/subtable-ranking`.
#[derive(Debug, Clone, Copy)]
pub struct SubtableInfo {
    /// The subtable's wildcard mask.
    pub mask: FlowMask,
    /// Highest rule priority in the subtable (primary sort key).
    pub max_priority: i32,
    /// Lookup hits (secondary sort key).
    pub hits: u64,
    /// Rules sharing this mask.
    pub rules: usize,
}

/// Statistics from lookups.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassifierStats {
    pub lookups: u64,
    pub subtables_probed: u64,
    /// [`Classifier::lookup_wc`] subtable probes by the [stage](STAGES)
    /// they stopped at: the last stage whose fields they un-wildcarded.
    pub stage_stops: [u64; STAGES.len()],
}

/// The tuple-space-search classifier.
#[derive(Debug)]
pub struct Classifier<V> {
    subtables: Vec<Subtable<V>>,
    /// Probe counters.
    pub stats: ClassifierStats,
    /// Lookups between hit-count re-sorts of the subtable vector.
    pub rank_interval: u64,
    since_rank: u64,
}

impl<V> Default for Classifier<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> Classifier<V> {
    /// An empty classifier.
    pub fn new() -> Self {
        Self {
            subtables: Vec::new(),
            stats: ClassifierStats::default(),
            rank_interval: DEFAULT_RANK_INTERVAL,
            since_rank: 0,
        }
    }

    /// Total rules.
    pub fn len(&self) -> usize {
        self.subtables.iter().map(|s| s.rule_count).sum()
    }

    /// True when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of subtables (distinct masks).
    pub fn subtable_count(&self) -> usize {
        self.subtables.len()
    }

    /// Insert a rule. Replaces an identical (key, mask, priority) rule.
    ///
    /// Returns whether the insert changed the *probe set*: it created a
    /// subtable or raised a subtable's `max_priority`. Only then can a
    /// lookup of a key the rule does not match probe differently (and
    /// so unite different wildcards); otherwise the rule can change only
    /// lookups of keys it matches.
    pub fn insert(&mut self, rule: Rule<V>) -> bool {
        let masked = Miniflow::from_key(&rule.key.masked(&rule.mask));
        let found = self.subtables.iter().position(|s| s.mask == rule.mask);
        let idx = match found {
            Some(i) => i,
            None => {
                let (index, last_stage) = StageIndex::plan(&rule.mask);
                self.subtables.push(Subtable {
                    mask: rule.mask,
                    mini_mask: MiniMask::from_mask(&rule.mask),
                    rules: HashMap::new(),
                    max_priority: i32::MIN,
                    rule_count: 0,
                    hits: 0,
                    index,
                    last_stage,
                });
                self.subtables.len() - 1
            }
        };
        let st = &mut self.subtables[idx];
        let probes_changed = found.is_none() || rule.priority > st.max_priority;
        st.max_priority = st.max_priority.max(rule.priority);
        // Most masked keys hold one rule: a default `Vec` would reserve
        // room for four.
        let bucket = st
            .rules
            .entry(masked)
            .or_insert_with(|| Vec::with_capacity(1));
        if let Some(existing) = bucket.iter_mut().find(|r| r.priority == rule.priority) {
            *existing = rule;
        } else {
            bucket.push(rule);
            // Keep each bucket ordered by descending priority.
            bucket.sort_by_key(|r| std::cmp::Reverse(r.priority));
            st.rule_count += 1;
            st.index_rules(&masked, 1, true);
        }
        // Keep subtables ordered by descending max priority so lookups can
        // stop early (OVS's pvector).
        self.sort_subtables();
        probes_changed
    }

    /// Sort the subtable vector: priority first (early-exit correctness),
    /// hit count within a priority tier (the ranking). Stable under
    /// equal keys so re-sorting without new hits is a no-op.
    fn sort_subtables(&mut self) {
        self.subtables
            .sort_by_key(|s| (std::cmp::Reverse(s.max_priority), std::cmp::Reverse(s.hits)));
    }

    /// Re-rank every `rank_interval` lookups. Runs *before* the probe
    /// loop so subtable indices stay stable for the rest of a lookup.
    fn maybe_rerank(&mut self) {
        self.since_rank += 1;
        if self.since_rank >= self.rank_interval {
            self.since_rank = 0;
            self.sort_subtables();
        }
    }

    /// The ranked probe vector, in current probe order.
    pub fn subtable_info(&self) -> Vec<SubtableInfo> {
        self.subtables
            .iter()
            .map(|s| SubtableInfo {
                mask: s.mask,
                max_priority: s.max_priority,
                hits: s.hits,
                rules: s.rule_count,
            })
            .collect()
    }

    /// Remove rules matching (key, mask); returns how many were removed.
    pub fn remove(&mut self, key: &FlowKey, mask: &FlowMask) -> usize {
        let mut removed = 0;
        if let Some(st) = self.subtables.iter_mut().find(|s| s.mask == *mask) {
            let masked = Miniflow::from_key(&key.masked(mask));
            if let Some(bucket) = st.rules.remove(&masked) {
                removed = bucket.len();
                st.rule_count -= removed;
                st.index_rules(&masked, removed as u32, false);
            }
        }
        self.subtables.retain(|s| s.rule_count > 0);
        removed
    }

    /// Find the highest-priority matching rule, for a caller that does
    /// not track wildcards (see [`lookup_wc`](Self::lookup_wc)). Also
    /// counts the subtables probed (the classifier's work metric), and
    /// feeds the hit-count ranking that periodically re-sorts the vector.
    pub fn lookup(&mut self, key: &FlowKey) -> Option<&Rule<V>> {
        self.lookup_wc(key, &mut FlowMask::default())
    }

    /// [`Classifier::lookup`] that also unites into `wc` the fields of
    /// every subtable it **examined** — the wildcard tracking translation
    /// needs: a megaflow must be as specific as every rule the lookup
    /// examined, not just the one it matched, or two packets that
    /// diverge on an examined-but-missed rule would share a megaflow (and
    /// overlapping megaflows make the dpcls winner probe-order dependent).
    ///
    /// The probe is staged. It checks a subtable's [stage](STAGES)
    /// prefixes in order against the subtable's index and stops at the
    /// first one no rule has, uniting only the mask's fields up to that
    /// stage (`stats.stage_stops` counts where each probe stopped). That
    /// is sound: no rule of the subtable agrees with `key` on that prefix,
    /// so none matches any key that agrees with `key` on `wc`. A probe
    /// that passes every prefix unites the whole mask and looks the key
    /// up in full. The index is keyed by hash, so a collision can only
    /// pass a prefix no rule has: the probe goes on and unites more,
    /// which is still sound. A table miss has probed every subtable this
    /// way, so it needs no wildcards beyond `wc`.
    pub fn lookup_wc(&mut self, key: &FlowKey, wc: &mut FlowMask) -> Option<&Rule<V>> {
        self.stats.lookups += 1;
        self.maybe_rerank();
        let mf = Miniflow::from_key(key);
        let mut best: Option<(usize, i32)> = None;
        for (i, st) in self.subtables.iter().enumerate() {
            if let Some((_, bp)) = best {
                if st.max_priority <= bp {
                    break; // no remaining subtable can outrank the match
                }
            }
            self.stats.subtables_probed += 1;
            let mut h = FNV_OFFSET;
            if let Some(ix) = st
                .index
                .iter()
                .find(|ix| !ix.counts.contains_key(&ix.fold(&mut h, &mf)))
            {
                wc.unite(&ix.prefix);
                self.stats.stage_stops[ix.stage] += 1;
                continue;
            }
            wc.unite(&st.mask);
            self.stats.stage_stops[st.last_stage] += 1;
            let masked = st.mini_mask.apply(&mf);
            if let Some(bucket) = st.rules.get(&masked) {
                let r = &bucket[0];
                match best {
                    Some((_, bp)) if bp >= r.priority => {}
                    _ => best = Some((i, r.priority)),
                }
            }
        }
        let (i, prio) = best?;
        self.subtables[i].hits += 1;
        let st = &self.subtables[i];
        let masked = st.mini_mask.apply(&mf);
        st.rules
            .get(&masked)
            .and_then(|b| b.iter().find(|r| r.priority == prio))
    }

    /// Iterate over all rules (diagnostics, rule counting).
    pub fn iter(&self) -> impl Iterator<Item = &Rule<V>> {
        self.subtables
            .iter()
            .flat_map(|s| s.rules.values().flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovs_packet::flow::fields;

    fn key_dst(ip: [u8; 4]) -> FlowKey {
        let mut k = FlowKey::default();
        k.set_nw_dst_v4(ip);
        k
    }

    fn rule(ip: [u8; 4], plen: u8, prio: i32, v: u32) -> Rule<u32> {
        let mut mask = FlowMask::EMPTY;
        mask.set_nw_dst_v4_prefix(plen);
        Rule {
            key: key_dst(ip),
            mask,
            priority: prio,
            value: v,
        }
    }

    #[test]
    fn highest_priority_wins_across_subtables() {
        let mut c = Classifier::new();
        c.insert(rule([10, 0, 0, 0], 8, 1, 100)); // /8 low prio
        c.insert(rule([10, 1, 0, 0], 16, 10, 200)); // /16 high prio
        assert_eq!(c.subtable_count(), 2);

        let hit = c.lookup(&key_dst([10, 1, 2, 3])).unwrap();
        assert_eq!(hit.value, 200);
        // Outside the /16, the /8 matches.
        let hit = c.lookup(&key_dst([10, 9, 9, 9])).unwrap();
        assert_eq!(hit.value, 100);
        assert!(c.lookup(&key_dst([11, 0, 0, 1])).is_none());
    }

    #[test]
    fn early_exit_when_match_outranks_rest() {
        let mut c = Classifier::new();
        c.insert(rule([10, 1, 0, 0], 16, 10, 1)); // probed first (max prio)
        c.insert(rule([10, 0, 0, 0], 8, 1, 2));
        c.stats = ClassifierStats::default();
        c.lookup(&key_dst([10, 1, 0, 5]));
        // The /16 matched with priority 10 > the /8 subtable's max (1), so
        // only one subtable was probed.
        assert_eq!(c.stats.subtables_probed, 1);
        // A miss probes everything.
        c.lookup(&key_dst([99, 0, 0, 1]));
        assert_eq!(c.stats.subtables_probed, 3);
    }

    #[test]
    fn same_mask_shares_subtable() {
        let mut c = Classifier::new();
        for i in 0..100u8 {
            c.insert(rule([10, 0, 0, i], 32, 5, u32::from(i)));
        }
        assert_eq!(c.subtable_count(), 1);
        assert_eq!(c.len(), 100);
        assert_eq!(c.lookup(&key_dst([10, 0, 0, 42])).unwrap().value, 42);
    }

    #[test]
    fn replace_same_key_mask_priority() {
        let mut c = Classifier::new();
        c.insert(rule([1, 1, 1, 1], 32, 5, 1));
        c.insert(rule([1, 1, 1, 1], 32, 5, 2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&key_dst([1, 1, 1, 1])).unwrap().value, 2);
    }

    #[test]
    fn insert_reports_probe_set_changes() {
        let mut c = Classifier::new();
        // First rule into an empty classifier creates its subtable.
        assert!(c.insert(rule([10, 0, 0, 0], 8, 5, 1)));
        // A second mask is a new subtable, even at a lower priority.
        assert!(c.insert(rule([10, 1, 0, 0], 16, 1, 2)));
        // Same mask, higher priority: the /8 subtable's max rises.
        assert!(c.insert(rule([11, 0, 0, 0], 8, 9, 3)));
        // Same mask at or below the max: the probe set is unchanged.
        assert!(!c.insert(rule([12, 0, 0, 0], 8, 9, 4)));
        assert!(!c.insert(rule([13, 0, 0, 0], 8, 2, 5)));
        // Exact replacement (same key, mask and priority) changes nothing
        // but the rule's payload.
        assert!(!c.insert(rule([11, 0, 0, 0], 8, 9, 6)));
        assert_eq!(c.len(), 5);
        assert_eq!(c.subtable_count(), 2);
        assert_eq!(c.lookup(&key_dst([11, 2, 3, 4])).unwrap().value, 6);
        let maxes: Vec<i32> = c.subtable_info().iter().map(|s| s.max_priority).collect();
        assert_eq!(maxes, vec![9, 1]);
    }

    #[test]
    fn insert_at_minimum_priority_still_reports_a_new_subtable() {
        let mut c = Classifier::new();
        assert!(c.insert(rule([10, 0, 0, 0], 8, i32::MIN, 1)));
        assert!(!c.insert(rule([11, 0, 0, 0], 8, i32::MIN, 2)));
    }

    #[test]
    fn same_masked_key_different_priorities() {
        let mut c = Classifier::new();
        c.insert(rule([1, 1, 1, 1], 32, 5, 1));
        c.insert(rule([1, 1, 1, 1], 32, 9, 2));
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(&key_dst([1, 1, 1, 1])).unwrap().value, 2);
    }

    #[test]
    fn remove_drops_empty_subtables() {
        let mut c = Classifier::new();
        c.insert(rule([1, 1, 1, 1], 32, 5, 1));
        c.insert(rule([2, 2, 2, 2], 32, 5, 2));
        let mut mask = FlowMask::EMPTY;
        mask.set_nw_dst_v4_prefix(32);
        assert_eq!(c.remove(&key_dst([1, 1, 1, 1]), &mask), 1);
        assert!(c.lookup(&key_dst([1, 1, 1, 1])).is_none());
        assert!(c.lookup(&key_dst([2, 2, 2, 2])).is_some());
        assert_eq!(c.remove(&key_dst([2, 2, 2, 2]), &mask), 1);
        assert!(c.is_empty());
        assert_eq!(c.subtable_count(), 0);
    }

    #[test]
    fn stages_partition_the_key() {
        let mut all = FlowMask::EMPTY;
        for bits in &STAGE_BITS {
            all.unite(bits);
        }
        assert_eq!(all, FlowMask::EXACT);
        let sum: u32 = STAGE_BITS.iter().map(|b| b.bit_count()).sum();
        assert_eq!(sum, FlowMask::EXACT.bit_count(), "no bit in two stages");
        assert_eq!(
            stage_prefix(&FlowMask::EXACT, STAGES.len() - 1),
            FlowMask::EXACT
        );
    }

    /// A 5-tuple-style rule (L2 `eth_type`, L3 `nw_src`, L4 `tp_dst`).
    fn five_tuple(src: [u8; 4], tp_dst: u16) -> Rule<u32> {
        let mut key = FlowKey::default();
        key.set_eth_type_raw(0x0800);
        key.set_nw_src_v4(src);
        key.set_tp_dst(tp_dst);
        let mut mask = FlowMask::of_fields(&[&fields::ETH_TYPE, &fields::TP_DST]);
        mask.set_nw_src_v4_prefix(32);
        Rule {
            key,
            mask,
            priority: 10,
            value: 1,
        }
    }

    #[test]
    fn miss_at_l3_leaves_tp_dst_wildcarded() {
        let mut c = Classifier::new();
        c.insert(five_tuple([198, 18, 0, 1], 443));
        let mut k = FlowKey::default();
        k.set_eth_type_raw(0x0800);
        k.set_nw_src_v4([10, 0, 0, 1]);
        k.set_tp_dst(443);

        let mut wc = FlowMask::EMPTY;
        assert!(c.lookup_wc(&k, &mut wc).is_none());
        let mut l3 = FlowMask::of_fields(&[&fields::ETH_TYPE]);
        l3.set_nw_src_v4_prefix(32);
        assert_eq!(wc, l3, "stopped at L3: eth_type and nw_src only");
        assert_eq!(c.stats.stage_stops, [0, 0, 1, 0]);

        // A key that passes L3 is looked up in full, so it un-wildcards
        // tp_dst even though it misses there.
        k.set_nw_src_v4([198, 18, 0, 1]);
        k.set_tp_dst(80);
        let mut wc = FlowMask::EMPTY;
        assert!(c.lookup_wc(&k, &mut wc).is_none());
        assert_eq!(wc, c.subtable_info()[0].mask);
        assert_eq!(c.stats.stage_stops, [0, 0, 1, 1]);
        k.set_tp_dst(443);
        assert_eq!(c.lookup_wc(&k, &mut wc).map(|r| r.value), Some(1));
    }

    #[test]
    fn removal_takes_rules_out_of_the_stage_index() {
        let mut c = Classifier::new();
        c.insert(five_tuple([198, 18, 0, 1], 443));
        c.insert(five_tuple([198, 18, 0, 2], 443));
        let r = five_tuple([198, 18, 0, 1], 443);
        assert_eq!(c.remove(&r.key, &r.mask), 1);
        let mut wc = FlowMask::EMPTY;
        assert!(c.lookup_wc(&r.key, &mut wc).is_none());
        assert_eq!(c.stats.stage_stops, [0, 0, 1, 0], "its L3 value is gone");
    }

    #[test]
    fn ranking_cuts_probes_under_skewed_traffic() {
        // Eight same-priority subtables (/32 .. /25 on distinct octet
        // patterns); traffic hits only the last-inserted one, which
        // starts at the back of the probe vector.
        let mut c = Classifier::new();
        c.rank_interval = 16;
        for (i, plen) in (25..=32).rev().enumerate() {
            c.insert(rule([10, i as u8, 0, 0], plen, 5, i as u32));
        }
        assert_eq!(c.subtable_count(), 8);
        let hot = key_dst([10, 7, 0, 0]); // matches the /25 inserted last
        c.stats = ClassifierStats::default();
        for _ in 0..15 {
            assert_eq!(c.lookup(&hot).unwrap().value, 7);
        }
        assert_eq!(
            c.stats.subtables_probed,
            15 * 8,
            "hot subtable probed last, pre-rank"
        );
        // The 16th lookup triggers the re-rank: the hot subtable now
        // leads the vector and every lookup stops after one probe.
        assert_eq!(c.lookup(&hot).unwrap().value, 7);
        c.stats = ClassifierStats::default();
        for _ in 0..8 {
            assert_eq!(c.lookup(&hot).unwrap().value, 7);
        }
        assert_eq!(c.stats.subtables_probed, 8, "ranked: one probe each");
        let info = c.subtable_info();
        assert_eq!(info[0].hits, 24, "hot subtable leads the dump");
        assert_eq!(info[0].rules, 1);
    }

    #[test]
    fn ranking_never_reorders_across_priorities() {
        // A hammered low-priority subtable must not outrank a
        // higher-priority one — early exit depends on priority order.
        let mut c = Classifier::new();
        c.rank_interval = 4;
        c.insert(rule([10, 1, 0, 0], 16, 10, 1)); // high priority
        c.insert(rule([10, 0, 0, 0], 8, 1, 2)); // low priority, hot
        for _ in 0..32 {
            // Hits only the /8 (outside the /16).
            assert_eq!(c.lookup(&key_dst([10, 9, 9, 9])).unwrap().value, 2);
        }
        // The /16 keeps probe precedence despite zero hits, so a key
        // matching both still gets the high-priority rule.
        assert_eq!(c.lookup(&key_dst([10, 1, 2, 3])).unwrap().value, 1);
        let info = c.subtable_info();
        assert_eq!(info[0].max_priority, 10, "priority order preserved");
    }

    #[test]
    fn wildcard_all_rule_matches_everything() {
        let mut c = Classifier::new();
        c.insert(Rule {
            key: FlowKey::default(),
            mask: FlowMask::EMPTY,
            priority: 0,
            value: 7,
        });
        assert_eq!(c.lookup(&key_dst([8, 8, 8, 8])).unwrap().value, 7);
        let mut k = FlowKey::default();
        k.set_tp_src(9999);
        assert_eq!(c.lookup(&k).unwrap().value, 7);
    }
}
