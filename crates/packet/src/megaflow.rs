//! The megaflow cache: one priority-free tuple-space-search table of
//! wildcarded datapath flows, shared by both datapaths — the kernel
//! module's flow table and `dpif-netdev`'s dpcls.
//!
//! Each subtable holds one mask and the flows installed under it, keyed
//! by their masked sparse key. Installed flows never overlap (a
//! translation's mask covers every field it examined), so a lookup stops
//! at the first subtable that matches, and the probe order only changes
//! how many subtables a packet costs, never which flow it gets.
//!
//! Subtables are *ranked*: re-sorted by hit count, stably, on every
//! install and every [`DEFAULT_RANK_INTERVAL`] lookups, so skewed traffic
//! probes its hot mask first — upstream's `dpcls_sort_subtable_vector` in
//! `lib/dpif-netdev.c`, and `ovs_flow_masks_rebalance()` in the kernel's
//! `net/openvswitch/flow_table.c`. Empty subtables are dropped.
//!
//! [`MegaflowCache::lookup_bulk`] probes a whole burst against each
//! subtable in wide lanes (one signature pass per `lane_width` keys,
//! upstream's AVX-512 `dpcls_subtable_lookup` shape), removing keys from
//! the remaining set as they match.

use crate::flow::{FlowKey, FlowMask, MiniMask, Miniflow};
use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

/// A cached megaflow: the actions to run and the wildcard mask it was
/// installed under, plus the per-flow stats the revalidator dumps
/// (`n_packets`/`n_bytes`/`used`, as in `dpctl/dump-flows`).
#[derive(Debug, PartialEq)]
pub struct MegaflowEntry<A> {
    /// Masked match key.
    pub key: FlowKey,
    /// Wildcards accumulated during translation.
    pub mask: FlowMask,
    /// Sparse form of `key`, precomputed at install so fast-path verifies
    /// never expand.
    pub mini_key: Miniflow,
    /// Sparse form of `mask`; its populated slots are all a masked verify
    /// or hash touches.
    pub mini_mask: MiniMask,
    /// Datapath actions.
    pub actions: A,
    /// Hits (`n_packets`).
    pub hits: Cell<u64>,
    /// Bytes forwarded (`n_bytes`).
    pub bytes: Cell<u64>,
    /// Sim-time of the last hit (`used`); 0 = never.
    pub used_ns: Cell<u64>,
    /// Sim-time of installation (hard-timeout base).
    pub created_ns: Cell<u64>,
    /// Set when the megaflow is removed from the cache while an EMC
    /// slot (or other holder of the `Rc`) may still reference it; a dead
    /// entry must never forward a packet.
    pub dead: Cell<bool>,
}

impl<A> MegaflowEntry<A> {
    /// A fresh entry created at sim-time `now_ns`.
    pub fn new(key: FlowKey, mask: FlowMask, actions: A, now_ns: u64) -> Self {
        Self {
            mini_key: Miniflow::from_key(&key),
            mini_mask: MiniMask::from_mask(&mask),
            key,
            mask,
            actions,
            hits: Cell::new(0),
            bytes: Cell::new(0),
            used_ns: Cell::new(now_ns),
            created_ns: Cell::new(now_ns),
            dead: Cell::new(false),
        }
    }

    /// Record one forwarded packet of `len` bytes at sim-time `now_ns`.
    /// (The packet count itself is bumped by the cache lookup.)
    pub fn note_use(&self, len: usize, now_ns: u64) {
        self.bytes.set(self.bytes.get() + len as u64);
        self.used_ns.set(now_ns);
    }
}

/// Lookups between subtable-ranking re-sorts (OVS re-sorts its pvector
/// once per second; a lookup count is the deterministic stand-in).
pub const DEFAULT_RANK_INTERVAL: u64 = 256;

/// Default bulk-probe lane width: AVX-512 compares eight 64-bit
/// signatures per instruction, so upstream's vectorized dpcls probes
/// eight keys per subtable pass.
pub const DEFAULT_LANE_WIDTH: usize = 8;

/// One mask and the flows installed under it.
#[derive(Debug)]
struct Subtable<A> {
    mask: FlowMask,
    /// The sparse form every probe uses.
    mini_mask: MiniMask,
    /// Masked sparse key → flow.
    flows: HashMap<Miniflow, Rc<MegaflowEntry<A>>>,
    /// Lookups this subtable answered (the ranking key).
    hits: u64,
}

/// One subtable's entry in the ranked probe vector, as dumped by
/// `dpif-netdev/subtable-ranking`.
#[derive(Debug, Clone, Copy)]
pub struct SubtableInfo {
    /// The subtable's wildcard mask.
    pub mask: FlowMask,
    /// Lookup hits (the sort key).
    pub hits: u64,
    /// Flows installed under this mask.
    pub flows: usize,
}

/// The megaflow cache: a priority-free tuple-space-search table of
/// [`MegaflowEntry`]s, one per masked key.
#[derive(Debug)]
pub struct MegaflowCache<A> {
    /// Subtables in probe (rank) order.
    subtables: Vec<Subtable<A>>,
    /// Hits.
    pub hits: u64,
    /// Misses (upcalls).
    pub misses: u64,
    /// Bumped on every install/remove/flush. A bulk-probe miss verdict
    /// stays valid as long as the generation is unchanged, so the caller
    /// can skip the scalar re-probe when no flow was installed since.
    generation: u64,
    /// Subtables probed so far.
    subtables_probed: u64,
    /// Wide-lane bulk steps executed: one per `ceil(keys/lane)` per
    /// subtable probed by [`Self::lookup_bulk`].
    lane_steps: u64,
    /// Keys carried through bulk steps (occupancy numerator: a fully
    /// packed run has `lane_keys == lane_steps * lane_width`).
    lane_keys: u64,
    /// Keys probed per bulk step.
    lane_width: usize,
    /// Lookups since the last re-rank.
    since_rank: u64,
}

impl<A> Default for MegaflowCache<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A> MegaflowCache<A> {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            subtables: Vec::new(),
            hits: 0,
            misses: 0,
            generation: 0,
            subtables_probed: 0,
            lane_steps: 0,
            lane_keys: 0,
            lane_width: DEFAULT_LANE_WIDTH,
            since_rank: 0,
        }
    }

    /// Table-change generation (installs, removals, flushes).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Count a definitive miss established by an earlier bulk probe
    /// whose verdict is still valid (same [`Self::generation`]).
    pub fn count_miss(&mut self) {
        self.misses += 1;
    }

    /// Number of megaflows.
    pub fn len(&self) -> usize {
        self.subtables.iter().map(|s| s.flows.len()).sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.subtables.is_empty()
    }

    /// Distinct masks (subtables probed per miss).
    pub fn subtable_count(&self) -> usize {
        self.subtables.len()
    }

    /// Subtables probed so far (work metric).
    pub fn subtables_probed(&self) -> u64 {
        self.subtables_probed
    }

    /// Wide-lane bulk steps executed so far (the bulk-probe work metric:
    /// one step = one ≤`lane_width`-key signature pass over a subtable).
    pub fn lane_steps(&self) -> u64 {
        self.lane_steps
    }

    /// Keys carried through bulk steps (occupancy numerator).
    pub fn lane_keys(&self) -> u64 {
        self.lane_keys
    }

    /// Keys probed per bulk step.
    pub fn lane_width(&self) -> usize {
        self.lane_width
    }

    /// Set the bulk-probe lane width (1 = scalar-equivalent probing).
    pub fn set_lane_width(&mut self, lane: usize) {
        self.lane_width = lane.max(1);
    }

    /// The subtables in probe (rank) order, for
    /// `dpif-netdev/subtable-ranking`.
    pub fn subtable_info(&self) -> Vec<SubtableInfo> {
        self.subtables
            .iter()
            .map(|s| SubtableInfo {
                mask: s.mask,
                hits: s.hits,
                flows: s.flows.len(),
            })
            .collect()
    }

    /// Sort the subtables by hit count. Stable, so re-sorting without
    /// new hits is a no-op.
    fn rank(&mut self) {
        self.subtables.sort_by_key(|s| std::cmp::Reverse(s.hits));
    }

    /// Count `n` lookups towards the next re-rank, re-ranking when due.
    /// Runs *before* a probe so subtable indices stay stable during it.
    fn count_lookups(&mut self, n: u64) {
        self.since_rank += n;
        if self.since_rank >= DEFAULT_RANK_INTERVAL {
            self.since_rank = 0;
            self.rank();
        }
    }

    /// Look up a full key (slow path / diagnostics).
    pub fn lookup(&mut self, key: &FlowKey) -> Option<Rc<MegaflowEntry<A>>> {
        self.lookup_mini(&Miniflow::from_key(key))
    }

    /// Look up one sparse key: probe subtables in rank order and stop at
    /// the first match.
    pub fn lookup_mini(&mut self, key: &Miniflow) -> Option<Rc<MegaflowEntry<A>>> {
        self.count_lookups(1);
        for st in &mut self.subtables {
            self.subtables_probed += 1;
            if let Some(e) = st.flows.get(&st.mini_mask.apply(key)) {
                st.hits += 1;
                self.hits += 1;
                e.hits.set(e.hits.get() + 1);
                return Some(Rc::clone(e));
            }
        }
        self.misses += 1;
        None
    }

    /// Probe a whole burst of sparse keys in wide lanes: per subtable,
    /// the still-unmatched keys are masked, hashed, and compared in
    /// groups of `lane_width` ([`Self::lane_steps`] counts the groups),
    /// and a key that matches leaves the remaining set — upstream
    /// `dpcls_lookup`'s `keys_map` walk over vectorized subtable probes.
    ///
    /// Only hits are counted here: the caller re-probes each bulk miss
    /// with a scalar [`Self::lookup_mini`] before upcalling (an earlier
    /// miss in the same burst may have installed the flow), and that
    /// re-probe is where the hit-or-miss verdict lands.
    pub fn lookup_bulk(&mut self, keys: &[Miniflow]) -> Vec<Option<Rc<MegaflowEntry<A>>>> {
        self.count_lookups(keys.len() as u64);
        let mut found: Vec<Option<Rc<MegaflowEntry<A>>>> = vec![None; keys.len()];
        let mut remaining: Vec<usize> = (0..keys.len()).collect();
        for st in &mut self.subtables {
            if remaining.is_empty() {
                break;
            }
            let n = remaining.len();
            self.subtables_probed += n as u64;
            self.lane_keys += n as u64;
            self.lane_steps += n.div_ceil(self.lane_width) as u64;
            remaining.retain(|&ki| match st.flows.get(&st.mini_mask.apply(&keys[ki])) {
                Some(e) => {
                    st.hits += 1;
                    found[ki] = Some(Rc::clone(e));
                    false
                }
                None => true,
            });
        }
        for e in found.iter().flatten() {
            self.hits += 1;
            e.hits.set(e.hits.get() + 1);
        }
        found
    }

    /// Install a megaflow produced by translation (created/used = 0; the
    /// datapath uses [`install_at`](Self::install_at)).
    pub fn install(&mut self, key: FlowKey, mask: FlowMask, actions: A) -> Rc<MegaflowEntry<A>> {
        self.install_at(key, mask, actions, 0)
    }

    /// Install a megaflow produced by translation at sim-time `now_ns`.
    /// A flow is identified by its masked key: reinstalling over an
    /// installed masked key, under any mask, kills the old entry (any EMC
    /// reference to it must not survive the replacement).
    pub fn install_at(
        &mut self,
        key: FlowKey,
        mask: FlowMask,
        actions: A,
        now_ns: u64,
    ) -> Rc<MegaflowEntry<A>> {
        self.generation += 1;
        let entry = Rc::new(MegaflowEntry::new(key.masked(&mask), mask, actions, now_ns));
        if let Some(i) = self.holder(&entry.mini_key) {
            self.take(i, &entry.mini_key);
        }
        let i = match self.subtables.iter().position(|s| s.mask == mask) {
            Some(i) => i,
            None => {
                self.subtables.push(Subtable {
                    mask,
                    mini_mask: entry.mini_mask,
                    flows: HashMap::new(),
                    hits: 0,
                });
                self.subtables.len() - 1
            }
        };
        self.subtables[i]
            .flows
            .insert(entry.mini_key, Rc::clone(&entry));
        self.rank();
        entry
    }

    /// The subtable holding the flow with masked key `masked`, if any.
    fn holder(&self, masked: &Miniflow) -> Option<usize> {
        self.subtables
            .iter()
            .position(|s| s.mini_mask.apply(masked) == *masked && s.flows.contains_key(masked))
    }

    /// The subtable with `mask`, and `key` under it.
    fn find(&self, key: &FlowKey, mask: &FlowMask) -> Option<(usize, Miniflow)> {
        let i = self.subtables.iter().position(|s| s.mask == *mask)?;
        Some((i, Miniflow::from_key(&key.masked(mask))))
    }

    /// Take the flow `masked` out of subtable `i`, marking it dead and
    /// dropping the subtable if it empties.
    fn take(&mut self, i: usize, masked: &Miniflow) -> bool {
        let Some(e) = self.subtables[i].flows.remove(masked) else {
            return false;
        };
        e.dead.set(true);
        if self.subtables[i].flows.is_empty() {
            self.subtables.remove(i);
        }
        true
    }

    /// Whether a megaflow with this masked key is installed, under any
    /// mask.
    pub fn contains(&self, masked_key: &FlowKey) -> bool {
        self.holder(&Miniflow::from_key(masked_key)).is_some()
    }

    /// The entry installed under `mask` for `key` (masked by it), if any.
    pub fn get(&self, key: &FlowKey, mask: &FlowMask) -> Option<&Rc<MegaflowEntry<A>>> {
        let (i, masked) = self.find(key, mask)?;
        self.subtables[i].flows.get(&masked)
    }

    /// Remove the megaflow installed under `mask` for `key` (masked by
    /// it), marking the entry dead for any EMC holders. Returns whether
    /// it was installed.
    pub fn remove(&mut self, key: &FlowKey, mask: &FlowMask) -> bool {
        self.generation += 1;
        match self.find(key, mask) {
            Some((i, masked)) => self.take(i, &masked),
            None => false,
        }
    }

    /// Drop everything (OpenFlow table change revalidation). All entries
    /// are marked dead so EMC references cannot forward stale flows.
    pub fn flush(&mut self) {
        self.generation += 1;
        for e in self.iter() {
            e.dead.set(true);
        }
        self.subtables.clear();
    }

    /// Iterate over installed megaflows, subtable by subtable in probe
    /// order (within a subtable the order is unspecified).
    pub fn iter(&self) -> impl Iterator<Item = &Rc<MegaflowEntry<A>>> + '_ {
        self.subtables.iter().flat_map(|s| s.flows.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::fields;

    fn key(n: u8) -> FlowKey {
        let mut k = FlowKey::default();
        k.set_nw_dst_v4([10, 0, 0, n]);
        k.set_tp_dst(u16::from(n));
        k
    }

    fn key_dst(ip: [u8; 4]) -> FlowKey {
        let mut k = FlowKey::default();
        k.set_nw_dst_v4(ip);
        k
    }

    fn dst_prefix(plen: u8) -> FlowMask {
        let mut mask = FlowMask::EMPTY;
        mask.set_nw_dst_v4_prefix(plen);
        mask
    }

    #[test]
    fn megaflow_wildcard_hit() {
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        // Megaflow matching only on nw_dst.
        let mask = FlowMask::of_fields(&[&fields::NW_DST]);
        mf.install(key(5), mask, 55);
        // Any key with the same nw_dst matches regardless of ports.
        let mut probe = key(5);
        probe.set_tp_dst(9999);
        let hit = mf.lookup(&probe).unwrap();
        assert_eq!(hit.actions, 55);
        assert_eq!(mf.hits, 1);
        assert!(mf.lookup(&key(6)).is_none());
        assert_eq!(mf.misses, 1);
    }

    #[test]
    fn megaflow_remove_and_flush() {
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let mask = FlowMask::of_fields(&[&fields::NW_DST]);
        let e = mf.install(key(5), mask, 1);
        assert!(!mf.remove(&e.key, &FlowMask::EXACT), "wrong mask");
        assert!(mf.remove(&e.key, &mask));
        assert!(e.dead.get());
        assert!(mf.lookup(&key(5)).is_none());
        assert_eq!(mf.subtable_count(), 0, "empty subtable dropped");
        let e = mf.install(key(6), mask, 2);
        mf.flush();
        assert!(mf.is_empty());
        assert!(e.dead.get());
    }

    #[test]
    fn reinstall_kills_replaced_entry() {
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let mask = FlowMask::of_fields(&[&fields::NW_DST]);
        let old = mf.install_at(key(5), mask, 1, 10);
        let new = mf.install_at(key(5), mask, 2, 20);
        assert!(old.dead.get(), "replaced entry is dead");
        assert!(!new.dead.get());
        assert_eq!(mf.len(), 1, "replacement, not growth");
        assert_eq!(mf.lookup(&key(5)).unwrap().actions, 2);
    }

    #[test]
    fn one_flow_per_masked_key_across_masks() {
        // nw_dst 10.0.0.0 under /16 and /8 masks has the same masked key:
        // the second install replaces the first.
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let k = key_dst([10, 0, 0, 0]);
        let wide = mf.install(k, dst_prefix(16), 1);
        assert!(mf.contains(&k));
        let narrow = mf.install(k, dst_prefix(8), 2);
        assert!(wide.dead.get());
        assert_eq!(mf.len(), 1);
        assert_eq!(mf.subtable_count(), 1);
        assert!(mf.get(&k, &dst_prefix(16)).is_none());
        assert!(Rc::ptr_eq(mf.get(&k, &dst_prefix(8)).unwrap(), &narrow));
        assert!(!mf.contains(&key_dst([10, 0, 0, 1])));
    }

    #[test]
    fn entry_stats_accumulate() {
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let e = mf.install_at(key(5), FlowMask::EXACT, 1, 50);
        assert_eq!(e.created_ns.get(), 50);
        assert_eq!(e.used_ns.get(), 50);
        e.note_use(100, 60);
        e.note_use(50, 75);
        assert_eq!(e.bytes.get(), 150);
        assert_eq!(e.used_ns.get(), 75);
    }

    #[test]
    fn mask_sharing() {
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let mask = FlowMask::of_fields(&[&fields::NW_DST]);
        for i in 0..10u8 {
            mf.install(key_dst([10, 0, 0, i]), mask, u32::from(i));
        }
        assert_eq!(mf.len(), 10);
        assert_eq!(mf.subtable_count(), 1, "identical masks are shared");
    }

    #[test]
    fn ranking_cuts_probes_under_skewed_traffic() {
        // Eight masks (/32 .. /25 on distinct octet patterns); traffic
        // hits only the last-installed one, at the back of the vector.
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        for (i, plen) in (25..=32).rev().enumerate() {
            mf.install(key_dst([10, i as u8, 0, 0]), dst_prefix(plen), i as u32);
        }
        let hot = Miniflow::from_key(&key_dst([10, 7, 0, 0]));
        let n = DEFAULT_RANK_INTERVAL - 1;
        for _ in 0..n {
            assert_eq!(mf.lookup_mini(&hot).unwrap().actions, 7);
        }
        assert_eq!(mf.subtables_probed(), n * 8, "hot mask probed last");
        // The next lookup re-ranks first: one probe from then on.
        for _ in 0..8 {
            assert_eq!(mf.lookup_mini(&hot).unwrap().actions, 7);
        }
        assert_eq!(mf.subtables_probed(), n * 8 + 8);
        let info = mf.subtable_info();
        assert_eq!(info[0].hits, n + 8, "hot subtable leads the dump");
        assert_eq!(info[0].flows, 1);
    }

    #[test]
    fn bulk_lookup_matches_scalar() {
        // Two subtables (/16 and /8) with disjoint flows, a burst mixing
        // hits in each plus misses: the bulk result must equal key-by-key
        // scalar lookups.
        let table = || {
            let mut mf: MegaflowCache<u32> = MegaflowCache::new();
            mf.install(key_dst([10, 1, 0, 0]), dst_prefix(16), 200);
            mf.install(key_dst([11, 0, 0, 0]), dst_prefix(8), 100);
            mf
        };
        let burst: Vec<Miniflow> = [
            [10, 1, 2, 3], // /16
            [11, 9, 9, 9], // /8
            [99, 0, 0, 1], // miss
            [10, 1, 0, 7], // /16
        ]
        .iter()
        .map(|&ip| Miniflow::from_key(&key_dst(ip)))
        .collect();
        let mut scalar_table = table();
        let scalar: Vec<Option<u32>> = burst
            .iter()
            .map(|k| scalar_table.lookup_mini(k).map(|e| e.actions))
            .collect();
        let bulk: Vec<Option<u32>> = table()
            .lookup_bulk(&burst)
            .into_iter()
            .map(|e| e.map(|e| e.actions))
            .collect();
        assert_eq!(bulk, scalar);
        assert_eq!(bulk, vec![Some(200), Some(100), None, Some(200)]);
    }

    #[test]
    fn bulk_lane_accounting() {
        // One subtable, lane width 8: a 20-key burst takes ceil(20/8) = 3
        // steps and carries 20 keys. A matched key leaves the remaining
        // set, so a second subtable only sees the misses.
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        mf.set_lane_width(8);
        for i in 1..=4u8 {
            mf.install(key_dst([10, 0, 0, i]), dst_prefix(32), u32::from(i));
        }
        let keys: Vec<Miniflow> = (0..20u8)
            .map(|i| Miniflow::from_key(&key_dst([10, 0, 0, i])))
            .collect();
        let hits = mf.lookup_bulk(&keys).iter().flatten().count();
        assert_eq!(hits, 4);
        assert_eq!(mf.lane_steps(), 3);
        assert_eq!(mf.lane_keys(), 20);
        assert_eq!(mf.subtables_probed(), 20);

        // Add a second subtable (a /8 catch-all, overlapping the /32s,
        // which only this accounting check may do): the 16 keys
        // unmatched by the /32 subtable carry over, 2 more steps.
        mf.install(key_dst([10, 0, 0, 0]), dst_prefix(8), 999);
        let results = mf.lookup_bulk(&keys);
        assert!(results.iter().all(|r| r.is_some()));
        // Ranked order puts the hot /32 subtable first (4 prior hits).
        assert_eq!(mf.lane_steps(), 3 + 3 + 2);
        assert_eq!(mf.lane_keys(), 20 + 20 + 16);
    }

    #[test]
    fn generation_tracks_every_change() {
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let g0 = mf.generation();
        let e = mf.install(key(1), FlowMask::EXACT, 1);
        assert_eq!(mf.generation(), g0 + 1);
        mf.remove(&e.key, &e.mask);
        assert_eq!(mf.generation(), g0 + 2);
        mf.flush();
        assert_eq!(mf.generation(), g0 + 3);
        mf.count_miss();
        assert_eq!(mf.misses, 1);
    }
}
