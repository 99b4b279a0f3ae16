//! The udpif revalidator: megaflow lifecycle management.
//!
//! Datapath flows are a cache, and a cache needs an eviction policy. OVS
//! runs dedicated *revalidator* threads (`ofproto/ofproto-dpif-upcall.c`)
//! that periodically dump every datapath flow, re-translate its key
//! against the current OpenFlow tables, delete flows that are idle,
//! past their hard age, or whose translation changed, and push the
//! accumulated `n_packets`/`n_bytes` back up into the OpenFlow rules
//! that produced them (`xlate_push_stats`) so `ovs-ofctl dump-flows`
//! reports live counters.
//!
//! The table size is governed by a **dynamic flow limit**: if one dump
//! pass takes too long the limit shrinks (the datapath holds more flows
//! than the revalidators can keep honest), and while the table is over
//! the limit the idle timeout collapses to 100 ms — OVS's
//! `udpif_revalidator` algorithm verbatim. This is also the defence the
//! Tuple Space Explosion attack (Csikor et al., PAPERS.md) runs into:
//! an attacker can force per-flow megaflows, but the table stays bounded
//! by the limit, trading upcalls for memory instead of collapsing.
//!
//! This module holds the *ukeys* (userspace views of installed datapath
//! flows, one per megaflow, with the rule refs stats are pushed to), the
//! test of which ukeys a new rule can reach (`Ukey::reached_by`), the
//! flow-limit algorithm, and the one revalidation loop: the sweep, the
//! re-translation after a `flow_mod` and restored-flow reconciliation.
//! Like udpif it sees a datapath only through a narrow interface, the
//! crate-private `DpFlowTable` trait, so the same loop sweeps
//! [`DpifNetdev`](crate::dpif::DpifNetdev::revalidate) and
//! [`DpifNetlink`](crate::dpif::DpifNetlink::revalidate).

use crate::dpif::DpAction;
use crate::ofproto::{Ofproto, RuleChange, RuleEntry, MAX_TABLE_HOPS};
use crate::snapshot::RestoreState;
use ovs_obs::coverage;
use ovs_packet::{FlowKey, FlowMask};
use ovs_sim::{Context, SimCtx};
use std::collections::HashMap;
use std::rc::Rc;

/// A datapath flow's `(packets, bytes, used_ns, created_ns)`.
pub(crate) type FlowStats = (u64, u64, u64, u64);

/// A datapath's view of its own flow table — all the revalidation loop
/// needs, like udpif's `dpif_flow_dump`/`dpif_operate`. Flows are named
/// by their masked key and the mask they were installed under.
pub(crate) trait DpFlowTable<A> {
    /// An installed flow's stats, or `None` if it is gone.
    fn flow_stats(&self, key: &FlowKey, mask: &FlowMask) -> Option<FlowStats>;
    /// Delete an installed flow.
    fn remove_flow(&mut self, key: &FlowKey, mask: &FlowMask);
    /// Flows installed, including any installed without a ukey.
    fn flow_count(&self) -> usize;
    /// The OpenFlow tables the flows are translated against.
    fn ofproto(&mut self) -> &mut Ofproto;
    /// Translated actions in this datapath's action language.
    fn dp_actions(&self, actions: Vec<DpAction>) -> A;
}

/// Revalidation tunables. Defaults mirror OVS: 10 s idle timeout
/// (`ofproto_max_idle`), 200k flow ceiling (`ofproto_flow_limit`), and
/// a 100 ms idle timeout while over the limit.
#[derive(Debug, Clone)]
pub struct RevalidatorConfig {
    /// Delete flows unused for this long (ms).
    pub max_idle_ms: u64,
    /// Delete flows older than this regardless of use (ms); 0 disables.
    pub hard_timeout_ms: u64,
    /// The flow limit never adjusts below this.
    pub flow_limit_min: usize,
    /// The flow limit never adjusts above this (`ofproto_flow_limit`).
    pub flow_limit_max: usize,
    /// Idle timeout while the table is over the flow limit (ms).
    pub overload_idle_ms: u64,
}

impl Default for RevalidatorConfig {
    fn default() -> Self {
        Self {
            max_idle_ms: 10_000,
            hard_timeout_ms: 0,
            flow_limit_min: 1_000,
            flow_limit_max: 200_000,
            overload_idle_ms: 100,
        }
    }
}

/// The userspace view of one installed datapath flow — OVS's `udpif_key`.
/// Stats pushback is incremental: `pushed_*` remember how much of the
/// flow's counters have already been credited to `rules`.
#[derive(Debug)]
pub struct Ukey<A> {
    /// Masked key — the datapath flow's identity.
    pub key: FlowKey,
    /// The wildcard mask it was installed under.
    pub mask: FlowMask,
    /// The actions installed, for change detection on re-translation.
    pub actions: A,
    /// Every OpenFlow rule the original translation matched; each gets
    /// credited with every packet the flow forwards (the xlate cache).
    pub rules: Vec<Rc<RuleEntry>>,
    /// Sim-time of installation.
    pub created_ns: u64,
    /// Packets already pushed to `rules`.
    pub pushed_packets: u64,
    /// Bytes already pushed to `rules`.
    pub pushed_bytes: u64,
    /// A flow re-created from a [`crate::snapshot::DpSnapshot`] whose
    /// rule refs have not been re-resolved yet. Restored ukeys have no
    /// rules, so stats pushback is held back (not silently consumed)
    /// until the reconciliation sweep adopts or orphans the flow.
    pub restored: bool,
}

impl<A> Ukey<A> {
    /// A ukey for a flow installed at `now_ns`.
    pub fn new(
        key: FlowKey,
        mask: FlowMask,
        actions: A,
        rules: Vec<Rc<RuleEntry>>,
        now_ns: u64,
    ) -> Self {
        Self {
            key,
            mask,
            actions,
            rules,
            created_ns: now_ns,
            pushed_packets: 0,
            pushed_bytes: 0,
            restored: false,
        }
    }

    /// A ukey rebuilt from a snapshot: no live rule refs yet, and the
    /// pushback high-water marks carried over so that once the flow is
    /// adopted, the fresh rules are credited exactly the packets
    /// forwarded *since* the snapshot — stats pushback resumes exactly.
    pub fn restored(
        key: FlowKey,
        mask: FlowMask,
        actions: A,
        created_ns: u64,
        pushed_packets: u64,
        pushed_bytes: u64,
    ) -> Self {
        Self {
            key,
            mask,
            actions,
            rules: Vec::new(),
            created_ns,
            pushed_packets,
            pushed_bytes,
            restored: true,
        }
    }

    /// Whether any of `changes` can change this flow's translation — the
    /// candidate test of scoped revalidation. Replays the lookups the
    /// translation made from its xlate cache alone: it starts at `start`
    /// ([`Ofproto::resume_point`](crate::ofproto::Ofproto::resume_point)
    /// of the key), each matched rule's metadata writes and `Goto` lead
    /// to the next lookup, and a `Goto` with no matched rule after it was
    /// a missed lookup. A lookup none of `changes` reaches
    /// ([`RuleChange::reaches`]) takes the same path after them, so a
    /// flow none of them reaches re-translates to itself. A restored
    /// flow is always reached: until a sweep adopts it, its xlate cache
    /// is not the path its actions came from.
    pub(crate) fn reached_by(&self, start: Option<(u8, u64)>, changes: &[RuleChange]) -> bool {
        if self.restored {
            return true;
        }
        let Some((mut table, metadata)) = start else {
            return false;
        };
        let mut key = self.key;
        key.set_metadata(metadata);
        let mut rules = self.rules.iter();
        for _ in 0..MAX_TABLE_HOPS {
            if changes.iter().any(|c| c.reaches(table, &key, &self.mask)) {
                return true;
            }
            let Some(entry) = rules.next() else {
                return false;
            };
            debug_assert_eq!(entry.rule.table, table, "xlate cache out of step");
            match entry.rule.replay(&mut key) {
                Some(next) => table = next,
                None => return false,
            }
        }
        false
    }
}

/// Why the sweep removed a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteReason {
    /// Unused past the (effective) idle timeout.
    Idle,
    /// Older than the hard timeout.
    Hard,
    /// Re-translation produced different actions or mask.
    Changed,
    /// Evicted to get back under the flow limit.
    Evicted,
}

/// Lifetime accounting across sweeps (rendered by `upcall/show`).
#[derive(Debug, Clone, Copy, Default)]
pub struct RevalStats {
    /// Completed dump/revalidate/sweep rounds.
    pub sweeps: u64,
    /// Flows examined across all rounds.
    pub flows_dumped: u64,
    pub deleted_idle: u64,
    pub deleted_hard: u64,
    pub deleted_changed: u64,
    pub evicted: u64,
    /// Packets pushed back into OpenFlow rule stats.
    pub pushed_packets: u64,
    /// Bytes pushed back into OpenFlow rule stats.
    pub pushed_bytes: u64,
    /// High-water mark of datapath flows seen at dump time.
    pub max_flows: u64,
}

impl RevalStats {
    /// Fold one round's deletions into the lifetime totals.
    fn add_deleted(&mut self, s: &SweepSummary) {
        self.deleted_idle += s.deleted_idle;
        self.deleted_hard += s.deleted_hard;
        self.deleted_changed += s.deleted_changed;
        self.evicted += s.evicted;
    }
}

/// What one sweep did (the `revalidator/wait` reply).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepSummary {
    pub dumped: u64,
    pub deleted_idle: u64,
    pub deleted_hard: u64,
    pub deleted_changed: u64,
    pub evicted: u64,
    /// Restored flows re-adopted by this sweep's reconciliation pass.
    pub adopted: u64,
    /// Restored flows deleted as orphans by this sweep.
    pub orphaned: u64,
    /// Flow limit after the post-sweep adjustment.
    pub flow_limit: usize,
    /// Simulated dump duration that fed the adjustment.
    pub dump_duration_ms: u64,
}

impl SweepSummary {
    /// Total flows removed this sweep.
    pub fn deleted(&self) -> u64 {
        self.deleted_idle + self.deleted_hard + self.deleted_changed + self.evicted
    }

    /// Count one deletion under `reason`, with its coverage counter.
    fn count_delete(&mut self, reason: DeleteReason) {
        let (name, n) = match reason {
            DeleteReason::Idle => ("revalidate_idle", &mut self.deleted_idle),
            DeleteReason::Hard => ("revalidate_hard", &mut self.deleted_hard),
            DeleteReason::Changed => ("revalidate_changed", &mut self.deleted_changed),
            DeleteReason::Evicted => ("flow_evicted", &mut self.evicted),
        };
        coverage::inc(name);
        *n += 1;
    }
}

/// Per-dpif revalidator state: the ukey table, the dynamic flow limit,
/// and sweep statistics. Generic over the datapath action language so
/// both `DpifNetdev` (`Vec<DpAction>`) and `DpifNetlink`
/// (`Vec<KAction>`) can embed one.
#[derive(Debug)]
pub struct Revalidator<A> {
    pub cfg: RevalidatorConfig,
    /// The current dynamic flow limit (installs stop at this many
    /// datapath flows; sweeps evict back down to it).
    pub flow_limit: usize,
    /// Simulated duration of the last dump pass (ms).
    pub dump_duration_ms: u64,
    pub stats: RevalStats,
    ukeys: HashMap<FlowKey, Ukey<A>>,
}

impl<A> Default for Revalidator<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A> Revalidator<A> {
    /// A revalidator with default (OVS) tunables.
    pub fn new() -> Self {
        Self::with_config(RevalidatorConfig::default())
    }

    pub fn with_config(cfg: RevalidatorConfig) -> Self {
        let flow_limit = cfg.flow_limit_max;
        Self {
            cfg,
            flow_limit,
            dump_duration_ms: 0,
            stats: RevalStats::default(),
            ukeys: HashMap::new(),
        }
    }

    /// Whether a new flow may be installed given the current datapath
    /// flow count (OVS: upcall handlers stop installing at the limit).
    pub fn should_install(&self, n_flows: usize) -> bool {
        n_flows < self.flow_limit
    }

    /// The idle timeout the sweep applies, in sim-ns. Over the limit the
    /// timeout collapses to `overload_idle_ms`; over **twice** the limit
    /// every flow is fair game ("kill them all").
    pub fn effective_max_idle_ns(&self, n_flows: usize) -> u64 {
        if n_flows > 2 * self.flow_limit {
            0
        } else if n_flows > self.flow_limit {
            self.cfg.overload_idle_ms.min(self.cfg.max_idle_ms) * 1_000_000
        } else {
            self.cfg.max_idle_ms * 1_000_000
        }
    }

    /// Hard timeout in sim-ns (0 = disabled).
    pub fn hard_timeout_ns(&self) -> u64 {
        self.cfg.hard_timeout_ms * 1_000_000
    }

    /// Fold one finished dump pass into the dynamic flow limit — the
    /// `udpif_revalidator` algorithm: a dump over 2 s divides the limit
    /// by the dump's seconds, over 1.3 s takes a quarter off, and a
    /// quick dump of a busy table (>2000 flows in under a second) earns
    /// back 1000 flows, clamped to `[flow_limit_min, flow_limit_max]`.
    pub fn note_dump(&mut self, n_flows: usize, dump_duration_ms: u64) {
        let duration = dump_duration_ms.max(1);
        self.dump_duration_ms = duration;
        let mut limit = self.flow_limit;
        if duration > 2000 {
            limit /= (duration / 1000) as usize;
        } else if duration > 1300 {
            limit = limit * 3 / 4;
        } else if duration < 1000 && n_flows > 2000 && limit < n_flows * 1000 / duration as usize {
            limit += 1000;
        }
        let lo = self.cfg.flow_limit_min.min(self.cfg.flow_limit_max);
        self.flow_limit = limit.clamp(lo, self.cfg.flow_limit_max);
        self.stats.sweeps += 1;
        self.stats.max_flows = self.stats.max_flows.max(n_flows as u64);
    }

    /// Track a newly installed datapath flow. Replaces (and drops) any
    /// previous ukey under the same masked key.
    pub fn register(&mut self, ukey: Ukey<A>) {
        self.ukeys.insert(ukey.key, ukey);
    }

    /// Drop the ukey for a deleted datapath flow.
    pub fn forget(&mut self, key: &FlowKey) -> Option<Ukey<A>> {
        self.ukeys.remove(key)
    }

    /// Drop every ukey (cache flush).
    pub fn clear_ukeys(&mut self) {
        self.ukeys.clear();
    }

    /// Tracked flows.
    pub fn ukey_count(&self) -> usize {
        self.ukeys.len()
    }

    pub fn ukey(&self, key: &FlowKey) -> Option<&Ukey<A>> {
        self.ukeys.get(key)
    }

    /// Snapshot of tracked keys, in a deterministic order (sweep order
    /// must not depend on `HashMap` iteration).
    pub fn keys(&self) -> Vec<FlowKey> {
        let mut ks: Vec<FlowKey> = self.ukeys.keys().copied().collect();
        ks.sort_by_cached_key(|k| k.hash());
        ks
    }

    /// Credit the delta between the flow's current counters and what was
    /// already pushed to every rule on the flow's translation path, and
    /// remember the new high-water marks. Returns the (packets, bytes)
    /// delta pushed.
    pub fn push_stats(&mut self, key: &FlowKey, n_packets: u64, n_bytes: u64) -> (u64, u64) {
        let Some(uk) = self.ukeys.get_mut(key) else {
            return (0, 0);
        };
        if uk.restored {
            // No rule refs yet: crediting would silently swallow the
            // delta. Hold it until the reconciliation sweep adopts the
            // flow (or drops it as an orphan).
            return (0, 0);
        }
        let dp = n_packets.saturating_sub(uk.pushed_packets);
        let db = n_bytes.saturating_sub(uk.pushed_bytes);
        if dp != 0 || db != 0 {
            for r in &uk.rules {
                r.credit(dp, db);
            }
            uk.pushed_packets = n_packets;
            uk.pushed_bytes = n_bytes;
            self.stats.pushed_packets += dp;
            self.stats.pushed_bytes += db;
        }
        (dp, db)
    }

    /// Whether `key` is a restored flow still awaiting reconciliation.
    pub fn is_restored(&self, key: &FlowKey) -> bool {
        self.ukeys.get(key).is_some_and(|u| u.restored)
    }

    /// Restored flows still awaiting reconciliation.
    pub fn restored_count(&self) -> usize {
        self.ukeys.values().filter(|u| u.restored).count()
    }

    /// Adopt a restored flow: attach the freshly re-translated rule refs
    /// and clear the restored flag, re-enabling stats pushback. The next
    /// `push_stats` credits exactly the packets forwarded since the
    /// snapshot was taken.
    pub fn adopt(&mut self, key: &FlowKey, rules: Vec<Rc<RuleEntry>>) {
        if let Some(uk) = self.ukeys.get_mut(key) {
            uk.rules = rules;
            uk.restored = false;
        }
    }

    /// Render the `upcall/show` block for this dpif.
    pub fn show(&self, name: &str, n_flows: usize, limit_hits: u64) -> String {
        let s = &self.stats;
        format!(
            "{name}:\n\
             \x20 flows         : (current {n_flows}) (max {}) (limit {})\n\
             \x20 dump duration : {}ms\n\
             \x20 sweeps        : {} ({} flows dumped)\n\
             \x20 deleted       : {} idle, {} hard, {} changed, {} evicted\n\
             \x20 stats pushed  : {} packets, {} bytes\n\
             \x20 limit hits    : {limit_hits}\n",
            s.max_flows,
            self.flow_limit,
            self.dump_duration_ms,
            s.sweeps,
            s.flows_dumped,
            s.deleted_idle,
            s.deleted_hard,
            s.deleted_changed,
            s.evicted,
            s.pushed_packets,
            s.pushed_bytes,
        )
    }
}

impl<A: PartialEq> Revalidator<A> {
    /// One round of OVS's `udpif_revalidator` loop over `table`: dump
    /// every ukey, delete flows idle, past the hard timeout or translated
    /// differently now, and evict LRU-first down to the flow limit. Once
    /// `restore`'s gate is down, a budget of restored flows per round is
    /// re-translated and adopted or deleted as orphans. `housekeeping`
    /// runs last, inside the dump duration [`note_dump`](Self::note_dump)
    /// folds into the limit.
    pub(crate) fn sweep<T: DpFlowTable<A>>(
        &mut self,
        table: &mut T,
        sim: &mut SimCtx,
        core: usize,
        restore: &RestoreState,
        housekeeping: impl FnOnce(&mut SimCtx),
    ) -> SweepSummary {
        let busy_ns = |sim: &SimCtx| sim.cpus.core(core).total_ns().round() as u64;
        let t0 = busy_ns(sim);
        let now = sim.clock.now_ns();
        let n_flows = table.flow_count();
        let max_idle = self.effective_max_idle_ns(n_flows);
        let hard = self.hard_timeout_ns();
        let kill_all = n_flows > 2 * self.flow_limit;
        let mut summary = SweepSummary::default();
        let mut reconciled = 0;

        for k in self.keys() {
            coverage!("revalidate_flow");
            self.stats.flows_dumped += 1;
            summary.dumped += 1;
            sim.charge(core, Context::User, sim.costs.revalidate_flow_ns);
            let Some((packets, bytes, used, created)) = self.dump(table, &k) else {
                continue;
            };
            // A restored flow has no rule refs to judge it by until it is
            // reconciled, which waits for the gate and is budgeted per
            // round so reconvergence never starves the fast path.
            if self.is_restored(&k) {
                if restore.wait || reconciled >= restore.reconcile_budget {
                    continue;
                }
                reconciled += 1;
                let (adopted, tables) = self.retranslate_flow(table, &k, (packets, bytes), true);
                let c = tables as f64 * sim.costs.upcall_per_table_ns;
                sim.charge(core, Context::User, c);
                if adopted {
                    coverage!("restore_adopted");
                    summary.adopted += 1;
                } else {
                    coverage!("restore_orphaned");
                    summary.orphaned += 1;
                    self.delete_flow(table, &k);
                }
                continue;
            }
            let reason = if kill_all {
                DeleteReason::Evicted
            } else if now.saturating_sub(used) > max_idle {
                DeleteReason::Idle
            } else if hard > 0 && now.saturating_sub(created) > hard {
                DeleteReason::Hard
            } else if self.retranslate_flow(table, &k, (packets, bytes), false).0 {
                continue;
            } else {
                DeleteReason::Changed
            };
            summary.count_delete(reason);
            self.delete_flow(table, &k);
        }

        // Still over the limit: evict by (used, key hash), LRU first.
        if table.flow_count() > self.flow_limit {
            let mut lru: Vec<(u64, u64, FlowKey)> = self
                .ukeys
                .values()
                // While the gate is up the restored flows are the only
                // forwarding state there is — never evict them.
                .filter(|uk| !(restore.wait && uk.restored))
                .filter_map(|uk| {
                    let (_, _, used, _) = table.flow_stats(&uk.key, &uk.mask)?;
                    Some((used, uk.key.hash(), uk.key))
                })
                .collect();
            lru.sort_unstable_by_key(|&(used, h, _)| (used, h));
            let excess = table.flow_count() - self.flow_limit;
            for (_, _, k) in lru.into_iter().take(excess) {
                summary.count_delete(DeleteReason::Evicted);
                self.delete_flow(table, &k);
            }
        }

        self.stats.add_deleted(&summary);
        housekeeping(sim);
        self.note_dump(n_flows, (busy_ns(sim) - t0) / 1_000_000);
        summary.flow_limit = self.flow_limit;
        summary.dump_duration_ms = self.dump_duration_ms;
        summary
    }

    /// Re-translate the flows `changes` can reach (all of them for
    /// `None`) and delete those whose actions or mask changed, without
    /// charging modeled time. Returns the number deleted. The masked key
    /// is enough: a megaflow's mask covers every field its translation
    /// consulted, so it takes the path of any packet the megaflow matches.
    pub(crate) fn retranslate<T: DpFlowTable<A>>(
        &mut self,
        table: &mut T,
        changes: Option<&[RuleChange]>,
    ) -> usize {
        let keys: Vec<FlowKey> = self
            .ukeys
            .values()
            .filter(|uk| {
                changes.is_none_or(|c| uk.reached_by(table.ofproto().resume_point(&uk.key), c))
            })
            .map(|uk| uk.key)
            .collect();
        let mut summary = SweepSummary::default();
        for k in keys {
            coverage!("revalidate_flow");
            self.stats.flows_dumped += 1;
            let Some((packets, bytes, _, _)) = self.dump(table, &k) else {
                continue;
            };
            if !self.retranslate_flow(table, &k, (packets, bytes), false).0 {
                summary.count_delete(DeleteReason::Changed);
                self.delete_flow(table, &k);
            }
        }
        self.stats.add_deleted(&summary);
        summary.deleted_changed as usize
    }

    /// A ukey's flow stats, or `None` (and the ukey forgotten) if its
    /// datapath flow has vanished.
    fn dump<T: DpFlowTable<A>>(&mut self, table: &T, key: &FlowKey) -> Option<FlowStats> {
        let stats = table.flow_stats(key, &self.ukeys.get(key)?.mask);
        if stats.is_none() {
            self.forget(key);
        }
        stats
    }

    /// Push one flow's stats to its rules, re-translate it and compare with
    /// its ukey. A fresh flow takes the new xlate cache; with `adopt`, a
    /// restored one also credits the new rules its packets since the
    /// snapshot. Returns whether it is fresh (the caller deletes it if
    /// not) and the tables the translation visited.
    fn retranslate_flow<T: DpFlowTable<A>>(
        &mut self,
        table: &mut T,
        key: &FlowKey,
        (packets, bytes): (u64, u64),
        adopt: bool,
    ) -> (bool, u32) {
        self.push_stats(key, packets, bytes);
        let t = table.ofproto().translate(key);
        let actions = table.dp_actions(t.actions);
        let fresh = |uk: &&mut Ukey<A>| uk.actions == actions && uk.mask == t.mask;
        let Some(uk) = self.ukeys.get_mut(key).filter(fresh) else {
            return (false, t.tables_visited);
        };
        uk.rules = t.rules;
        if adopt {
            uk.restored = false;
            self.push_stats(key, packets, bytes);
        }
        (true, t.tables_visited)
    }

    /// Delete a flow, pushing its outstanding stats first so its counters
    /// survive it, and forget its ukey.
    pub(crate) fn delete_flow<T: DpFlowTable<A>>(&mut self, table: &mut T, key: &FlowKey) {
        if let Some((packets, bytes, _, _)) = self.dump(table, key) {
            self.push_stats(key, packets, bytes);
            if let Some(uk) = self.forget(key) {
                table.remove_flow(key, &uk.mask);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ofproto::{OfRule, RuleEntry};
    use ovs_packet::FlowMask;
    use std::cell::Cell;

    fn reval() -> Revalidator<u32> {
        Revalidator::with_config(RevalidatorConfig {
            flow_limit_min: 1_000,
            flow_limit_max: 200_000,
            ..RevalidatorConfig::default()
        })
    }

    #[test]
    fn slow_dump_divides_the_limit() {
        let mut r = reval();
        assert_eq!(r.flow_limit, 200_000);
        // A 4-second dump divides by 4.
        r.note_dump(150_000, 4_000);
        assert_eq!(r.flow_limit, 50_000);
        assert_eq!(r.dump_duration_ms, 4_000);
    }

    #[test]
    fn slightly_slow_dump_takes_a_quarter_off() {
        let mut r = reval();
        r.flow_limit = 100_000;
        r.note_dump(90_000, 1_500);
        assert_eq!(r.flow_limit, 75_000);
    }

    #[test]
    fn fast_dump_of_busy_table_earns_back_1000() {
        let mut r = reval();
        r.flow_limit = 50_000;
        r.note_dump(60_000, 500);
        assert_eq!(r.flow_limit, 51_000);
        // An idle table earns nothing.
        r.note_dump(100, 1);
        assert_eq!(r.flow_limit, 51_000);
    }

    #[test]
    fn limit_clamps_to_configured_bounds() {
        let mut r = reval();
        r.flow_limit = 2_000;
        r.note_dump(2_000, 10_000); // /10 would be 200, below the floor
        assert_eq!(r.flow_limit, 1_000);
        r.flow_limit = 199_500;
        for _ in 0..5 {
            r.note_dump(300_000, 500);
        }
        assert_eq!(r.flow_limit, 200_000, "ceiling respected");
    }

    #[test]
    fn idle_timeout_collapses_when_over_limit() {
        let mut r = reval();
        r.flow_limit = 1_000;
        assert_eq!(r.effective_max_idle_ns(500), 10_000 * 1_000_000);
        assert_eq!(r.effective_max_idle_ns(1_500), 100 * 1_000_000);
        assert_eq!(r.effective_max_idle_ns(2_001), 0, "kill them all");
        assert!(r.should_install(999));
        assert!(!r.should_install(1_000));
    }

    #[test]
    fn stats_pushback_is_incremental() {
        let rule = Rc::new(RuleEntry {
            rule: OfRule {
                table: 0,
                priority: 0,
                key: FlowKey::default(),
                mask: FlowMask::EMPTY,
                actions: vec![],
                cookie: 0,
            },
            n_packets: Cell::new(0),
            n_bytes: Cell::new(0),
        });
        let mut r: Revalidator<u32> = Revalidator::new();
        let key = FlowKey::default();
        r.register(Ukey::new(
            key,
            FlowMask::EXACT,
            0,
            vec![Rc::clone(&rule)],
            0,
        ));
        assert_eq!(r.push_stats(&key, 10, 640), (10, 640));
        assert_eq!(rule.n_packets.get(), 10);
        // Second push only credits the delta.
        assert_eq!(r.push_stats(&key, 15, 960), (5, 320));
        assert_eq!(rule.n_packets.get(), 15);
        assert_eq!(rule.n_bytes.get(), 960);
        assert_eq!(r.stats.pushed_packets, 15);
        // Unknown keys push nothing.
        let mut other = FlowKey::default();
        other.set_in_port(9);
        assert_eq!(r.push_stats(&other, 5, 5), (0, 0));
    }

    #[test]
    fn restored_ukey_holds_pushback_until_adopted() {
        let rule = Rc::new(RuleEntry {
            rule: OfRule {
                table: 0,
                priority: 0,
                key: FlowKey::default(),
                mask: FlowMask::EMPTY,
                actions: vec![],
                cookie: 0,
            },
            n_packets: Cell::new(0),
            n_bytes: Cell::new(0),
        });
        let mut r: Revalidator<u32> = Revalidator::new();
        let key = FlowKey::default();
        // Snapshot carried 10 packets already pushed to the old rules.
        r.register(Ukey::restored(key, FlowMask::EXACT, 0, 0, 10, 640));
        assert!(r.is_restored(&key));
        assert_eq!(r.restored_count(), 1);
        // Pushback while rule-less is held, not swallowed.
        assert_eq!(r.push_stats(&key, 14, 896), (0, 0));
        // Adoption re-resolves rules; the next push credits exactly the
        // post-snapshot delta (14 - 10 = 4 packets).
        r.adopt(&key, vec![Rc::clone(&rule)]);
        assert!(!r.is_restored(&key));
        assert_eq!(r.push_stats(&key, 14, 896), (4, 256));
        assert_eq!(rule.n_packets.get(), 4);
        assert_eq!(rule.n_bytes.get(), 256);
    }

    #[test]
    fn keys_are_deterministic() {
        let mut r: Revalidator<u32> = Revalidator::new();
        for i in 0..32u32 {
            let mut k = FlowKey::default();
            k.set_in_port(i);
            r.register(Ukey::new(k, FlowMask::EXACT, 0, vec![], 0));
        }
        let a = r.keys();
        let b = r.keys();
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
    }
}
