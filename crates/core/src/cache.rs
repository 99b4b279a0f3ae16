//! The userspace datapath's per-PMD flow caches: the exact-match cache
//! (EMC) and the signature match cache (SMC), in front of the megaflow
//! cache.
//!
//! The fast path is a multi-level hierarchy (§5.2, \[56\]):
//!
//! 1. **EMC** — a small exact-match hash over the full flow key; one probe,
//!    no masking.
//! 2. **SMC** — a larger, denser cache of 16-bit hash *signatures* pointing
//!    at megaflows; a hit still verifies the masked key against the
//!    megaflow, so it can never forward on a colliding signature. OVS's
//!    `smc-enable` tier, off by default.
//! 3. **Megaflow cache** — a tuple-space-search table over the wildcarded
//!    entries produced by slow-path translation:
//!    [`ovs_packet::MegaflowCache`], the same table the kernel module
//!    uses, so the EMC and SMC here hold references to its
//!    [`MegaflowEntry`]s.
//! 4. **Upcall** — the full OpenFlow pipeline (`ofproto`), which installs a
//!    new megaflow.
//!
//! Note that level 2 is exactly the structure the kernel maintainers
//! rejected as an eBPF map type (§2.2.2 footnote), which is why the eBPF
//! datapath couldn't have it.

use ovs_packet::{MegaflowEntry, Miniflow};
use std::rc::Rc;

/// Default EMC capacity, as in OVS (`EM_FLOW_HASH_ENTRIES`).
pub const EMC_ENTRIES: usize = 8192;

/// The exact-match cache. Insertion uses OVS's probabilistic policy
/// (insert roughly 1 in `insert_inv_prob` misses) so that churny workloads
/// don't thrash it; eviction is by hash-slot replacement.
#[derive(Debug)]
pub struct Emc<A> {
    slots: Vec<Option<(Miniflow, Rc<MegaflowEntry<A>>)>>,
    mask: usize,
    /// 1/N insertion probability denominator (OVS default 100).
    pub insert_inv_prob: u64,
    insert_counter: u64,
    occupied: usize,
    /// Hit/miss counters.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
}

impl<A> Emc<A> {
    /// An EMC with the default size and insertion probability.
    pub fn new() -> Self {
        Self::with_capacity(EMC_ENTRIES)
    }

    /// An EMC with a specific slot count (rounded to a power of two).
    pub fn with_capacity(n: usize) -> Self {
        let cap = n.max(2).next_power_of_two();
        Self {
            slots: (0..cap).map(|_| None).collect(),
            mask: cap - 1,
            insert_inv_prob: 100,
            insert_counter: 0,
            occupied: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Look up the full (unmasked) sparse key; `hash` is the packet's
    /// cached extracted-slot hash ([`Miniflow::hash`], computed once per
    /// packet). The compare is bitmap + packed words — populated slots
    /// only. A slot whose megaflow has been revalidated away
    /// ([`MegaflowEntry::dead`]) counts as a miss and is reclaimed, so a
    /// stale EMC entry can never forward a packet.
    pub fn lookup(&mut self, key: &Miniflow, hash: u64) -> Option<Rc<MegaflowEntry<A>>> {
        let slot = (hash as usize) & self.mask;
        match &self.slots[slot] {
            Some((k, e)) if k == key => {
                if e.dead.get() {
                    self.slots[slot] = None;
                    self.occupied -= 1;
                    self.misses += 1;
                    return None;
                }
                self.hits += 1;
                e.hits.set(e.hits.get() + 1);
                Some(Rc::clone(e))
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Offer an entry for insertion after a miss; inserted with
    /// probability 1/`insert_inv_prob` (deterministic round-robin stand-in
    /// for OVS's RNG). Returns whether it was inserted.
    pub fn maybe_insert(&mut self, key: Miniflow, hash: u64, entry: Rc<MegaflowEntry<A>>) -> bool {
        self.insert_counter += 1;
        if !self.insert_counter.is_multiple_of(self.insert_inv_prob) {
            return false;
        }
        self.insert(key, hash, entry);
        true
    }

    /// Insert unconditionally.
    pub fn insert(&mut self, key: Miniflow, hash: u64, entry: Rc<MegaflowEntry<A>>) {
        let slot = (hash as usize) & self.mask;
        if self.slots[slot].is_none() {
            self.occupied += 1;
        }
        self.slots[slot] = Some((key, entry));
    }

    /// Drop everything (flow-table revalidation).
    pub fn flush(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        self.occupied = 0;
    }

    /// Reclaim every slot whose megaflow is dead (end-of-sweep cleanup;
    /// the lookup path also reclaims lazily). Returns slots freed.
    pub fn purge_dead(&mut self) -> usize {
        let mut freed = 0;
        for s in &mut self.slots {
            if matches!(s, Some((_, e)) if e.dead.get()) {
                *s = None;
                freed += 1;
            }
        }
        self.occupied -= freed;
        freed
    }
}

impl<A> Default for Emc<A> {
    fn default() -> Self {
        Self::new()
    }
}

/// Default SMC bucket count. Real OVS sizes the SMC at 1M entries in
/// 4-way buckets (`SMC_ENTRIES`); scaled here to stay proportional to
/// the 8k-entry EMC while remaining several times larger.
pub const SMC_BUCKETS: usize = 16384;

/// Associativity of one SMC bucket.
pub const SMC_WAYS: usize = 4;

/// The signature match cache: a large, dense cache mapping the upper 16
/// bits of the flow hash to a megaflow reference. Because only a
/// signature is stored, a probe must verify the candidate megaflow's
/// masked key against the packet before trusting it — which also makes
/// revalidator dead-flagging safe: a hit on a dead megaflow misses (and
/// reclaims the slot), exactly like the EMC.
/// One SMC way: the 16-bit signature and the megaflow it vouches for.
type SmcWay<A> = Option<(u16, Rc<MegaflowEntry<A>>)>;

#[derive(Debug)]
pub struct Smc<A> {
    buckets: Vec<[SmcWay<A>; SMC_WAYS]>,
    mask: usize,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    occupied: usize,
}

impl<A> Smc<A> {
    /// An SMC with the default geometry.
    pub fn new() -> Self {
        Self::with_buckets(SMC_BUCKETS)
    }

    /// An SMC with `n` buckets (rounded to a power of two) of
    /// [`SMC_WAYS`] ways each.
    pub fn with_buckets(n: usize) -> Self {
        let cap = n.max(2).next_power_of_two();
        Self {
            buckets: (0..cap).map(|_| [const { None }; SMC_WAYS]).collect(),
            mask: cap - 1,
            hits: 0,
            misses: 0,
            occupied: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    fn slot(hash: u64, mask: usize) -> (usize, u16) {
        ((hash as usize) & mask, (hash >> 16) as u16)
    }

    /// Probe for a sparse key; `hash` is the packet's cached
    /// extracted-slot hash. A signature match alone is not a hit: the
    /// sparse masked verify ([`ovs_packet::MiniMask::matches`], populated slots only)
    /// must pass, and the megaflow must be alive. Dead entries are
    /// reclaimed in place.
    pub fn lookup(&mut self, key: &Miniflow, hash: u64) -> Option<Rc<MegaflowEntry<A>>> {
        let (b, sig) = Self::slot(hash, self.mask);
        for way in self.buckets[b].iter_mut() {
            let Some((s, e)) = way else { continue };
            if *s != sig {
                continue;
            }
            if e.dead.get() {
                *way = None;
                self.occupied -= 1;
                continue;
            }
            if e.mini_mask.matches(key, &e.mini_key) {
                self.hits += 1;
                let e = Rc::clone(e);
                e.hits.set(e.hits.get() + 1);
                return Some(e);
            }
        }
        self.misses += 1;
        None
    }

    /// Insert a megaflow reference under the packet hash's signature.
    /// Prefers an empty or same-signature way, then a dead one; otherwise
    /// replaces a way chosen deterministically from the hash (OVS picks a
    /// random way — the simulation must stay reproducible).
    pub fn insert(&mut self, hash: u64, entry: Rc<MegaflowEntry<A>>) {
        let (b, sig) = Self::slot(hash, self.mask);
        let bucket = &mut self.buckets[b];
        let victim = bucket
            .iter()
            .position(|w| matches!(w, Some((s, _)) if *s == sig))
            .or_else(|| bucket.iter().position(|w| w.is_none()))
            .or_else(|| {
                bucket
                    .iter()
                    .position(|w| matches!(w, Some((_, e)) if e.dead.get()))
            })
            .unwrap_or(((hash >> 32) as usize) % SMC_WAYS);
        if bucket[victim].is_none() {
            self.occupied += 1;
        }
        bucket[victim] = Some((sig, entry));
    }

    /// Drop everything (flow-table revalidation).
    pub fn flush(&mut self) {
        for b in &mut self.buckets {
            for w in b.iter_mut() {
                *w = None;
            }
        }
        self.occupied = 0;
    }

    /// Reclaim every way whose megaflow is dead (end-of-sweep cleanup;
    /// the lookup path also reclaims lazily). Returns slots freed.
    pub fn purge_dead(&mut self) -> usize {
        let mut freed = 0;
        for b in &mut self.buckets {
            for w in b.iter_mut() {
                if matches!(w, Some((_, e)) if e.dead.get()) {
                    *w = None;
                    freed += 1;
                }
            }
        }
        self.occupied -= freed;
        freed
    }
}

impl<A> Default for Smc<A> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ovs_packet::flow::fields;
    use ovs_packet::{FlowKey, FlowMask, MegaflowCache};

    fn key(n: u8) -> FlowKey {
        let mut k = FlowKey::default();
        k.set_nw_dst_v4([10, 0, 0, n]);
        k.set_tp_dst(u16::from(n));
        k
    }

    fn m(n: u8) -> Miniflow {
        Miniflow::from_key(&key(n))
    }

    fn h(n: u8) -> u64 {
        m(n).hash()
    }

    #[test]
    fn emc_hit_after_insert() {
        let mut emc: Emc<u32> = Emc::with_capacity(64);
        let e = Rc::new(MegaflowEntry::new(key(1), FlowMask::EXACT, 42, 0));
        assert!(emc.lookup(&m(1), h(1)).is_none());
        emc.insert(m(1), h(1), Rc::clone(&e));
        let hit = emc.lookup(&m(1), h(1)).unwrap();
        assert_eq!(hit.actions, 42);
        assert_eq!(hit.hits.get(), 1);
        assert_eq!(emc.hits, 1);
        assert_eq!(emc.misses, 1);
    }

    #[test]
    fn emc_probabilistic_insertion() {
        let mut emc: Emc<u32> = Emc::with_capacity(1024);
        emc.insert_inv_prob = 10;
        let e = Rc::new(MegaflowEntry::new(key(1), FlowMask::EXACT, 0, 0));
        let mut inserted = 0;
        for i in 0..100u8 {
            if emc.maybe_insert(m(i.wrapping_mul(7)), h(i.wrapping_mul(7)), Rc::clone(&e)) {
                inserted += 1;
            }
        }
        assert_eq!(inserted, 10, "1-in-10 insertion policy");
    }

    #[test]
    fn emc_slot_replacement_not_growth() {
        let mut emc: Emc<u32> = Emc::with_capacity(2);
        let e = Rc::new(MegaflowEntry::new(key(1), FlowMask::EXACT, 0, 0));
        for i in 0..50u8 {
            emc.insert(m(i), h(i), Rc::clone(&e));
        }
        assert!(emc.len() <= 2, "bounded by capacity");
    }

    #[test]
    fn emc_never_serves_dead_entries() {
        let mut emc: Emc<u32> = Emc::with_capacity(64);
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let e = mf.install_at(key(1), FlowMask::EXACT, 9, 100);
        emc.insert(m(1), h(1), Rc::clone(&e));
        assert!(emc.lookup(&m(1), h(1)).is_some());
        // Revalidation removes the megaflow: the EMC alias must miss.
        assert!(mf.remove(&e.key, &e.mask));
        assert!(
            emc.lookup(&m(1), h(1)).is_none(),
            "dead entry served from EMC"
        );
        assert!(emc.is_empty(), "dead slot reclaimed on lookup");
    }

    #[test]
    fn emc_purge_dead_reclaims_slots() {
        let mut emc: Emc<u32> = Emc::with_capacity(64);
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        for i in 0..8u8 {
            let e = mf.install_at(key(i), FlowMask::EXACT, u32::from(i), 0);
            emc.insert(m(i), h(i), e);
        }
        mf.flush(); // marks everything dead
        assert_eq!(emc.purge_dead(), 8);
        assert!(emc.is_empty());
    }

    #[test]
    fn smc_hit_verifies_masked_key() {
        let mut smc: Smc<u32> = Smc::with_buckets(64);
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let mask = FlowMask::of_fields(&[&fields::NW_DST]);
        let e = mf.install_at(key(5), mask, 55, 0);
        smc.insert(h(5), Rc::clone(&e));
        // The same full key hits via its signature.
        let hit = smc.lookup(&m(5), h(5)).expect("smc hit");
        assert_eq!(hit.actions, 55);
        assert_eq!(smc.hits, 1);
        // A different key (different signature and masked key) misses.
        assert!(smc.lookup(&m(6), h(6)).is_none());
        assert_eq!(smc.misses, 1);
    }

    #[test]
    fn smc_never_serves_dead_entries() {
        let mut smc: Smc<u32> = Smc::with_buckets(64);
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        let e = mf.install_at(key(1), FlowMask::EXACT, 9, 100);
        smc.insert(h(1), Rc::clone(&e));
        assert!(smc.lookup(&m(1), h(1)).is_some());
        // Revalidation removes the megaflow: the SMC alias must miss
        // and the slot is reclaimed in place.
        assert!(mf.remove(&e.key, &e.mask));
        assert!(
            smc.lookup(&m(1), h(1)).is_none(),
            "dead entry served from SMC"
        );
        assert!(smc.is_empty(), "dead slot reclaimed on lookup");
    }

    #[test]
    fn smc_purge_dead_and_flush() {
        let mut smc: Smc<u32> = Smc::with_buckets(64);
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        for i in 0..8u8 {
            let e = mf.install_at(key(i), FlowMask::EXACT, u32::from(i), 0);
            smc.insert(h(i), e);
        }
        assert_eq!(smc.len(), 8);
        mf.flush(); // marks everything dead
        assert_eq!(smc.purge_dead(), 8);
        assert!(smc.is_empty());
        let e = mf.install_at(key(9), FlowMask::EXACT, 9, 0);
        smc.insert(h(9), e);
        smc.flush();
        assert!(smc.is_empty());
        assert!(smc.lookup(&m(9), h(9)).is_none());
    }

    #[test]
    fn smc_bounded_by_associativity() {
        // Every insert lands in a 4-way bucket of a 2-bucket SMC: the
        // occupancy can never exceed buckets * ways.
        let mut smc: Smc<u32> = Smc::with_buckets(2);
        let mut mf: MegaflowCache<u32> = MegaflowCache::new();
        for i in 0..64u8 {
            let e = mf.install_at(key(i), FlowMask::EXACT, u32::from(i), 0);
            smc.insert(h(i), e);
        }
        assert!(smc.len() <= 2 * SMC_WAYS, "bounded by geometry");
    }

    #[test]
    fn emc_flush() {
        let mut emc: Emc<u32> = Emc::with_capacity(16);
        let e = Rc::new(MegaflowEntry::new(key(1), FlowMask::EXACT, 0, 0));
        emc.insert(m(1), h(1), e);
        emc.flush();
        assert!(emc.is_empty());
        assert!(emc.lookup(&m(1), h(1)).is_none());
    }
}
