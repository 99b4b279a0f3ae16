//! Revalidator lifecycle end-to-end: stats pushback exactness, idle and
//! hard expiry, the dynamic flow limit under a Tuple-Space-Explosion
//! style workload (Csikor et al., "Tuple Space Explosion: A
//! Denial-of-Service Attack Against a Software Packet Classifier"), and
//! the kernel-datapath sweep.

use ovs_afxdp::{AfxdpPort, OptLevel};
use ovs_core::dpif::{DpifNetdev, DpifNetlink, PortType};
use ovs_core::ofproto::{OfAction, OfRule};
use ovs_core::revalidator::SweepSummary;
use ovs_kernel::dev::{DeviceKind, NetDevice};
use ovs_kernel::Kernel;
use ovs_packet::ethernet::EtherType;
use ovs_packet::flow::{fields, FlowKey, FlowMask};
use ovs_packet::{builder, MacAddr};

const SEC: u64 = 1_000_000_000;

fn setup() -> (Kernel, DpifNetdev, Vec<u32>) {
    let mut k = Kernel::new(8);
    let mut dp = DpifNetdev::new();
    let mut nics = Vec::new();
    for i in 0..3u8 {
        let nic = k.add_device(NetDevice::new(
            &format!("eth{i}"),
            MacAddr::new(2, 0, 0, 0, 0, i + 1),
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        dp.add_port(
            &format!("eth{i}"),
            PortType::Afxdp(AfxdpPort::open(&mut k, nic, 256, OptLevel::O5).unwrap()),
        );
        nics.push(nic);
    }
    (k, dp, nics)
}

fn fwd_rule(in_port: u32, out_port: u32, priority: i32) -> OfRule {
    let mut key = FlowKey::default();
    key.set_in_port(in_port);
    OfRule {
        table: 0,
        priority,
        key,
        mask: FlowMask::of_fields(&[&fields::IN_PORT]),
        actions: vec![OfAction::Output(out_port)],
        cookie: 0,
    }
}

/// A rule matching one UDP source port — the shape that pulls `tp_src`
/// into the megaflow mask and makes every distinct source port its own
/// datapath flow.
fn tp_src_rule(tp: u16, out_port: u32) -> OfRule {
    let mut key = FlowKey::default();
    key.set_eth_type(EtherType::Ipv4);
    key.set_nw_proto(17);
    key.set_tp_src(tp);
    OfRule {
        table: 0,
        priority: 10,
        key,
        mask: FlowMask::of_fields(&[&fields::ETH_TYPE, &fields::NW_PROTO, &fields::TP_SRC]),
        actions: vec![OfAction::Output(out_port)],
        cookie: 0,
    }
}

fn frame(tp_src: u16) -> Vec<u8> {
    builder::udp_ipv4_frame(
        MacAddr::new(2, 0, 0, 0, 9, 9),
        MacAddr::new(2, 0, 0, 0, 0, 1),
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        tp_src,
        6000,
        96,
    )
}

fn send(k: &mut Kernel, dp: &mut DpifNetdev, nic: u32, tp_src: u16) {
    k.receive(nic, 0, frame(tp_src));
    dp.pmd_poll(k, 0, 0, 1);
}

/// Acceptance: `ovs-ofctl dump-flows` n_packets must match the
/// datapath's cache-accumulated totals exactly — the upcalled packet is
/// credited at translation, every cache hit is pushed back by the sweep.
#[test]
fn stats_pushback_matches_cache_hits_exactly() {
    let (mut k, mut dp, nics) = setup();
    dp.ofproto.add_rule(fwd_rule(0, 1, 10));
    for _ in 0..10 {
        send(&mut k, &mut dp, nics[0], 5000);
    }
    assert_eq!(k.device(nics[1]).tx_wire.len(), 10);

    // Before the sweep only the upcalled packet has been credited.
    let rule = dp.ofproto.iter_rules().next().unwrap().clone();
    assert_eq!(rule.n_packets.get(), 1, "upcall credited at translation");

    let s = dp.revalidate(&mut k, 0);
    assert_eq!(s.dumped, 1);
    assert_eq!(s.deleted(), 0, "hot flow survives the sweep");

    let total = dp.stats.upcalls + dp.stats.emc_hits + dp.stats.megaflow_hits;
    assert_eq!(total, 10, "every packet consulted exactly one tier");
    assert_eq!(rule.n_packets.get(), total, "pushback is exact");
    assert_eq!(rule.n_bytes.get(), 10 * frame(5000).len() as u64);

    // And the OpenFlow dump renders the pushed counters.
    let dump = ovs_core::ofctl::dump_flows(&dp.ofproto);
    assert!(dump.contains("n_packets=10"), "{dump}");
    assert!(
        dump.contains(&format!("n_bytes={}", 10 * frame(5000).len())),
        "{dump}"
    );

    // A second sweep pushes nothing new (pushback is incremental).
    dp.revalidate(&mut k, 0);
    assert_eq!(rule.n_packets.get(), 10, "no double counting");
}

#[test]
fn idle_flows_expire_and_keep_their_stats() {
    let (mut k, mut dp, nics) = setup();
    dp.ofproto.add_rule(fwd_rule(0, 1, 10));
    for _ in 0..10 {
        send(&mut k, &mut dp, nics[0], 5000);
    }
    assert_eq!(dp.megaflow_count(), 1);

    // Within the 10 s idle timeout the flow survives...
    k.sim.clock.advance(9 * SEC);
    let s = dp.revalidate(&mut k, 0);
    assert_eq!(s.deleted(), 0);
    assert_eq!(dp.megaflow_count(), 1);

    // ...but once idle past it, the sweep reaps the flow.
    k.sim.clock.advance(2 * SEC);
    let s = dp.revalidate(&mut k, 0);
    assert_eq!(s.deleted_idle, 1);
    assert_eq!(dp.megaflow_count(), 0);
    assert_eq!(dp.revalidator.ukey_count(), 0, "ukey reaped with the flow");

    // The flow's packets outlive it on the OpenFlow rule.
    let rule = dp.ofproto.iter_rules().next().unwrap();
    assert_eq!(rule.n_packets.get(), 10, "stats survive expiry");

    // The next packet is a fresh miss and reinstalls.
    let upcalls = dp.stats.upcalls;
    send(&mut k, &mut dp, nics[0], 5000);
    assert_eq!(dp.stats.upcalls, upcalls + 1);
    assert_eq!(dp.megaflow_count(), 1);
    assert!(dp.stats.coherent(), "{:?}", dp.stats);
}

#[test]
fn hard_timeout_reaps_hot_flows() {
    let (mut k, mut dp, nics) = setup();
    dp.revalidator.cfg.hard_timeout_ms = 1_000;
    dp.ofproto.add_rule(fwd_rule(0, 1, 10));
    send(&mut k, &mut dp, nics[0], 5000);

    // Keep the flow hot: never idle for more than 600 ms.
    k.sim.clock.advance(600_000_000);
    send(&mut k, &mut dp, nics[0], 5000);
    k.sim.clock.advance(600_000_000);

    // Idle 0.6 s << 10 s, but age 1.2 s > the 1 s hard timeout.
    let s = dp.revalidate(&mut k, 0);
    assert_eq!(s.deleted_hard, 1, "hard timeout ignores recent use");
    assert_eq!(s.deleted_idle, 0);
    assert_eq!(dp.megaflow_count(), 0);
}

/// A TSE-style adversarial workload: every packet carries a fresh
/// `tp_src`, so every packet wants its own megaflow. The dynamic flow
/// limit bounds the table; packets over the limit are still forwarded
/// (slow-path only), and the table drains back to zero once the attack
/// stops.
#[test]
fn flow_limit_bounds_tse_explosion() {
    let (mut k, mut dp, nics) = setup();
    for tp in 0..600u16 {
        dp.ofproto.add_rule(tp_src_rule(1000 + tp, 1));
    }
    dp.revalidator.cfg.flow_limit_max = 128;
    dp.revalidator.flow_limit = 128;

    for tp in 0..600u16 {
        send(&mut k, &mut dp, nics[0], 1000 + tp);
        assert!(
            dp.megaflow_count() <= 128,
            "table exploded past the flow limit at packet {tp}"
        );
    }
    assert_eq!(dp.megaflow_count(), 128, "table pinned at the limit");
    assert_eq!(
        dp.stats.flow_limit_hits,
        600 - 128,
        "every over-limit miss counted"
    );
    assert_eq!(
        k.device(nics[1]).tx_wire.len(),
        600,
        "over-limit packets are forwarded via the slow path, not dropped"
    );
    assert!(dp.stats.coherent(), "{:?}", dp.stats);

    // Attack over: everything idles out and the table recovers.
    k.sim.clock.advance(11 * SEC);
    let s = dp.revalidate(&mut k, 0);
    assert_eq!(s.deleted_idle, 128);
    assert_eq!(dp.megaflow_count(), 0);

    // Fresh traffic installs again.
    let hits = dp.stats.flow_limit_hits;
    send(&mut k, &mut dp, nics[0], 1000);
    assert_eq!(dp.megaflow_count(), 1);
    assert_eq!(dp.stats.flow_limit_hits, hits, "no limit hit after drain");
}

#[test]
fn shrinking_flow_limit_evicts_least_recently_used() {
    let (mut k, mut dp, nics) = setup();
    for tp in 0..20u16 {
        dp.ofproto.add_rule(tp_src_rule(2000 + tp, 1));
    }
    // Distinct `used` timestamps: one flow per millisecond.
    for tp in 0..20u16 {
        send(&mut k, &mut dp, nics[0], 2000 + tp);
        k.sim.clock.advance(1_000_000);
    }
    assert_eq!(dp.megaflow_count(), 20);

    // Shrink the limit to 12 (still above 20/2, so no kill-all): the
    // sweep must evict exactly the 8 least-recently-used flows.
    dp.revalidator.flow_limit = 12;
    let s = dp.revalidate(&mut k, 0);
    assert_eq!(s.evicted, 8);
    assert_eq!(s.deleted_idle, 0, "overload idle (100ms) not yet reached");
    assert_eq!(dp.megaflow_count(), 12);

    // The oldest flow was evicted (next packet upcalls); the newest
    // survived (next packet is a cache hit).
    let upcalls = dp.stats.upcalls;
    send(&mut k, &mut dp, nics[0], 2019);
    assert_eq!(dp.stats.upcalls, upcalls, "most-recent flow survived");
}

#[test]
fn overload_past_twice_the_limit_kills_all_flows() {
    let (mut k, mut dp, nics) = setup();
    for tp in 0..20u16 {
        dp.ofproto.add_rule(tp_src_rule(3000 + tp, 1));
        send(&mut k, &mut dp, nics[0], 3000 + tp);
    }
    assert_eq!(dp.megaflow_count(), 20);

    // 20 flows > 2 x 8: the datapath is so far over the limit that the
    // sweep deletes everything ("kill them all" in udpif_revalidator).
    dp.revalidator.flow_limit = 8;
    let s = dp.revalidate(&mut k, 0);
    assert_eq!(s.evicted, 20);
    assert_eq!(dp.megaflow_count(), 0);
    assert!(dp.stats.coherent(), "{:?}", dp.stats);
}

#[test]
fn kernel_dpif_sweep_expires_flows_and_pushes_stats() {
    let mut k = Kernel::new(4);
    let eth0 = k.add_device(NetDevice::new(
        "eth0",
        MacAddr::new(2, 0, 0, 0, 0, 1),
        DeviceKind::Phys { link_gbps: 10.0 },
        1,
    ));
    let eth1 = k.add_device(NetDevice::new(
        "eth1",
        MacAddr::new(2, 0, 0, 0, 0, 2),
        DeviceKind::Phys { link_gbps: 10.0 },
        1,
    ));
    let p0 = k
        .ovs
        .add_vport(ovs_kernel::ovs_module::Vport::Netdev { ifindex: eth0 });
    let p1 = k
        .ovs
        .add_vport(ovs_kernel::ovs_module::Vport::Netdev { ifindex: eth1 });
    k.dev_mut(eth0).attachment = ovs_kernel::Attachment::OvsBridge { port: p0 };
    k.dev_mut(eth1).attachment = ovs_kernel::Attachment::OvsBridge { port: p1 };

    let mut dpif = DpifNetlink::new([0, 0, 0, 0]);
    dpif.ofproto.add_rule(fwd_rule(p0, p1, 10));

    // One miss plus two kernel fast-path hits.
    k.receive(eth0, 0, frame(5000));
    assert_eq!(dpif.handle_upcalls(&mut k, 2), 1);
    k.receive(eth0, 0, frame(5000));
    k.receive(eth0, 0, frame(5000));
    assert!(k.upcalls.is_empty());
    assert_eq!(k.device(eth1).tx_wire.len(), 3);
    assert_eq!(k.ovs.flow_count(), 1);
    assert_eq!(dpif.revalidator.ukey_count(), 1);

    // The sweep pushes the two fast-path packets up to the rule.
    let rule = dpif.ofproto.iter_rules().next().unwrap().clone();
    assert_eq!(rule.n_packets.get(), 1, "only the upcall so far");
    let s = dpif.revalidate(&mut k, 2);
    assert_eq!(s.dumped, 1);
    assert_eq!(s.deleted(), 0);
    assert_eq!(rule.n_packets.get(), 3, "kernel hit stats pushed back");

    let show = dpif.upcall_show(&k);
    assert!(show.contains("system@ovs-system"), "{show}");
    assert!(show.contains("(current 1)"), "{show}");

    // Idle out: the sweep deletes the kernel flow and releases its mask.
    k.sim.clock.advance(11 * SEC);
    let s = dpif.revalidate(&mut k, 2);
    assert_eq!(s.deleted_idle, 1);
    assert_eq!(k.ovs.flow_count(), 0);
    assert_eq!(k.ovs.mask_count(), 0, "mask refcount released");
    assert_eq!(dpif.revalidator.ukey_count(), 0);
    assert_eq!(rule.n_packets.get(), 3, "stats survive the flow");

    // Fresh traffic misses and reinstalls.
    k.receive(eth0, 0, frame(5000));
    assert_eq!(k.upcalls.len(), 1);
    assert_eq!(dpif.handle_upcalls(&mut k, 2), 1);
    assert_eq!(k.ovs.flow_count(), 1);
    assert_eq!(k.device(eth1).tx_wire.len(), 4);
}

/// A kernel datapath with three bridged NICs, vports 0..3 — the same
/// port numbers `setup` gives the userspace datapath, so one rule set
/// drives both.
fn kernel_setup() -> (Kernel, DpifNetlink, Vec<u32>) {
    let mut k = Kernel::new(8);
    let mut nics = Vec::new();
    for i in 0..3u8 {
        let nic = k.add_device(NetDevice::new(
            &format!("eth{i}"),
            MacAddr::new(2, 0, 0, 0, 0, i + 1),
            DeviceKind::Phys { link_gbps: 10.0 },
            1,
        ));
        let port = k
            .ovs
            .add_vport(ovs_kernel::ovs_module::Vport::Netdev { ifindex: nic });
        assert_eq!(port, u32::from(i));
        k.dev_mut(nic).attachment = ovs_kernel::Attachment::OvsBridge { port };
        nics.push(nic);
    }
    (k, DpifNetlink::new([0, 0, 0, 0]), nics)
}

/// One userspace and one kernel datapath on the same rules, fed the
/// same frames and swept together.
struct SweepPair {
    uk: Kernel,
    dp: DpifNetdev,
    unics: Vec<u32>,
    kk: Kernel,
    dpif: DpifNetlink,
    knics: Vec<u32>,
}

impl SweepPair {
    fn new() -> Self {
        let (uk, dp, unics) = setup();
        let (kk, dpif, knics) = kernel_setup();
        Self {
            uk,
            dp,
            unics,
            kk,
            dpif,
            knics,
        }
    }

    fn add_rule(&mut self, rule: OfRule) {
        self.dp.ofproto.add_rule(rule.clone());
        self.dpif.ofproto.add_rule(rule);
    }

    fn send(&mut self, tp_src: u16) {
        send(&mut self.uk, &mut self.dp, self.unics[0], tp_src);
        self.kk.receive(self.knics[0], 0, frame(tp_src));
        self.dpif.handle_upcalls(&mut self.kk, 2);
    }

    fn advance(&mut self, ns: u64) {
        self.uk.sim.clock.advance(ns);
        self.kk.sim.clock.advance(ns);
    }

    fn set_flow_limit(&mut self, limit: usize) {
        self.dp.revalidator.flow_limit = limit;
        self.dpif.revalidator.flow_limit = limit;
    }

    fn set_hard_timeout_ms(&mut self, ms: u64) {
        self.dp.revalidator.cfg.hard_timeout_ms = ms;
        self.dpif.revalidator.cfg.hard_timeout_ms = ms;
    }

    /// Sweep both datapaths and check they made the same decisions and
    /// pushed the same stats. The dump duration is left out: the
    /// userspace round also prices its conntrack slice.
    fn sweep(&mut self) -> SweepSummary {
        let u = self.dp.revalidate(&mut self.uk, 0);
        let k = self.dpif.revalidate(&mut self.kk, 2);
        let counts = |s: SweepSummary| SweepSummary {
            dump_duration_ms: 0,
            ..s
        };
        assert_eq!(counts(u), counts(k), "sweep decisions diverged");
        assert_eq!(
            self.dp.megaflow_count(),
            self.kk.ovs.flow_count(),
            "flow tables diverged"
        );
        assert_eq!(self.dp.revalidator.keys(), self.dpif.revalidator.keys());
        assert_eq!(rule_stats(&self.dp.ofproto), rule_stats(&self.dpif.ofproto));
        u
    }
}

/// Every rule's `(priority, tp_src, n_packets, n_bytes)`, in a fixed
/// order.
fn rule_stats(ofproto: &ovs_core::ofproto::Ofproto) -> Vec<(i32, u16, u64, u64)> {
    let mut v: Vec<_> = ofproto
        .iter_rules()
        .map(|r| {
            (
                r.rule.priority,
                r.rule.key.tp_src(),
                r.n_packets.get(),
                r.n_bytes.get(),
            )
        })
        .collect();
    v.sort_unstable();
    v
}

/// The revalidator makes the same decisions over the kernel flow table
/// as over the userspace megaflow cache: a changed translation, the
/// hard timeout, LRU eviction under a shrunk limit and kill-all past
/// twice the limit, with identical stats pushback to the rules.
#[test]
fn kernel_and_userspace_sweeps_agree() {
    let mut p = SweepPair::new();
    for tp in 0..20u16 {
        p.add_rule(tp_src_rule(4000 + tp, 1));
    }
    for tp in 0..5u16 {
        for _ in 0..3 {
            p.send(4000 + tp);
        }
    }
    let s = p.sweep();
    assert_eq!((s.dumped, s.deleted()), (5, 0));
    assert_eq!(
        rule_stats(&p.dp.ofproto)[0].2,
        3,
        "pushback reached the rule"
    );

    // A higher-priority rule re-steers one flow: its translation changed.
    let mut steer = tp_src_rule(4000, 2);
    steer.priority = 20;
    p.add_rule(steer);
    let s = p.sweep();
    assert_eq!((s.dumped, s.deleted_changed, s.deleted()), (5, 1, 1));

    // Hot flows past the hard timeout.
    p.set_hard_timeout_ms(1_000);
    p.advance(600_000_000);
    for tp in 1..5u16 {
        p.send(4000 + tp);
    }
    p.advance(600_000_000);
    let s = p.sweep();
    assert_eq!((s.dumped, s.deleted_hard, s.deleted()), (4, 4, 4));
    p.set_hard_timeout_ms(0);

    // 20 flows, one per millisecond, under a limit of 12: the 8 least
    // recently used go.
    for tp in 0..20u16 {
        p.send(4000 + tp);
        p.advance(1_000_000);
    }
    p.set_flow_limit(12);
    let s = p.sweep();
    assert_eq!((s.dumped, s.evicted, s.deleted()), (20, 8, 8));
    let mut kept: Vec<u16> = p.dp.revalidator.keys().iter().map(|k| k.tp_src()).collect();
    kept.sort_unstable();
    assert_eq!(
        kept,
        (4008..4020).collect::<Vec<u16>>(),
        "the newest 12 kept"
    );

    // 12 flows past twice a limit of 5: kill them all.
    p.set_flow_limit(5);
    let s = p.sweep();
    assert_eq!((s.dumped, s.evicted, s.deleted()), (12, 12, 12));
    assert_eq!(p.dp.megaflow_count(), 0);
}

/// Flows the kernel datapath lost behind the dpif's back are still
/// dumped once, and their ukeys forgotten without a deletion.
#[test]
fn kernel_sweep_forgets_flows_removed_behind_its_back() {
    let (mut k, mut dpif, nics) = kernel_setup();
    for tp in 0..3u16 {
        dpif.ofproto.add_rule(tp_src_rule(5000 + tp, 1));
        k.receive(nics[0], 0, frame(5000 + tp));
        dpif.handle_upcalls(&mut k, 2);
    }
    assert_eq!(dpif.revalidator.ukey_count(), 3);

    // One flow removed directly in the kernel module...
    let gone = dpif.revalidator.keys()[0];
    let mask = dpif.revalidator.ukey(&gone).unwrap().mask;
    assert!(k.ovs.remove_flow(&gone, &mask));
    let s = dpif.revalidate(&mut k, 2);
    assert_eq!((s.dumped, s.deleted()), (3, 0));
    assert!(dpif.revalidator.ukey(&gone).is_none(), "ukey forgotten");
    assert_eq!(dpif.revalidator.ukey_count(), 2);

    // ...then the whole table flushed.
    k.ovs.flush_flows();
    let s = dpif.revalidate(&mut k, 2);
    assert_eq!((s.dumped, s.deleted()), (2, 0));
    assert_eq!(dpif.revalidator.ukey_count(), 0);
    assert_eq!(dpif.revalidator.stats.flows_dumped, 5);
}

/// A kernel upcall whose translation's masked key equals an installed
/// flow's under another mask replaces that flow the way the userspace
/// datapath does: the stale flow's stats reach its rules first, and the
/// kernel keeps exactly one flow per ukey.
#[test]
fn kernel_install_over_a_masked_key_collision_replaces_the_stale_flow() {
    let (mut k, mut dpif, nics) = kernel_setup();
    let rule = |priority: i32, mask: FlowMask, out_port: u32| {
        let mut key = FlowKey::default();
        key.set_in_port(0);
        OfRule {
            table: 0,
            priority,
            key,
            mask,
            actions: vec![OfAction::Output(out_port)],
            cookie: 0,
        }
    };
    // Flow 1's mask covers vlan_tci, which is zero in its key.
    let vlan_mask = FlowMask::of_fields(&[&fields::IN_PORT, &fields::VLAN_TCI]);
    dpif.ofproto.add_rule(rule(10, vlan_mask, 1));
    k.receive(nics[0], 0, frame(5000));
    assert_eq!(dpif.handle_upcalls(&mut k, 2), 1);
    k.receive(nics[0], 0, frame(5000));
    assert!(k.upcalls.is_empty(), "the second packet hits flow 1");

    // Behind the revalidator's back, a higher-priority rule on in_port
    // alone: a VLAN-tagged packet misses flow 1, and its translation
    // leaves vlan_tci wildcarded, so its masked key is flow 1's.
    dpif.ofproto
        .add_rule(rule(20, FlowMask::of_fields(&[&fields::IN_PORT]), 2));
    k.receive(nics[0], 0, builder::push_vlan(&frame(5000), 7, 0));
    assert_eq!(dpif.handle_upcalls(&mut k, 2), 1);
    assert_eq!(k.ovs.flow_count(), 1);
    assert_eq!(k.ovs.flow_count(), dpif.revalidator.ukey_count());
    let n_packets = |priority: i32| {
        dpif.ofproto
            .iter_rules()
            .find(|r| r.rule.priority == priority)
            .map(|r| r.n_packets.get())
    };
    assert_eq!(n_packets(10), Some(2), "flow 1's kernel hit was pushed");
    assert_eq!(n_packets(20), Some(1));
    assert_eq!(k.device(nics[1]).tx_wire.len(), 2);
    assert_eq!(k.device(nics[2]).tx_wire.len(), 1);
}

/// A flow installed straight into the kernel module has no ukey: the
/// sweep neither dumps it nor evicts it, even over the flow limit.
#[test]
fn kernel_sweep_leaves_prewarmed_flows_alone() {
    let (mut k, mut dpif, nics) = kernel_setup();
    // Traffic only enters on port 0, so this flow never matches it.
    let mut key = FlowKey::default();
    key.set_in_port(1);
    let mask = FlowMask::of_fields(&[&fields::IN_PORT]);
    k.ovs
        .install_flow(&key, &mask, vec![ovs_kernel::KAction::Output(0)]);
    for tp in 0..3u16 {
        dpif.ofproto.add_rule(tp_src_rule(6000 + tp, 1));
        k.receive(nics[0], 0, frame(6000 + tp));
        dpif.handle_upcalls(&mut k, 2);
        k.sim.clock.advance(1_000_000);
    }
    assert_eq!(k.ovs.flow_count(), 4);

    // Four flows over a limit of two: the two oldest dpif flows go.
    dpif.revalidator.flow_limit = 2;
    let s = dpif.revalidate(&mut k, 2);
    assert_eq!((s.dumped, s.evicted), (3, 2));
    assert_eq!(k.ovs.flow_count(), 2);
    assert!(
        k.ovs.flow_stats(&key, &mask).is_some(),
        "pre-warmed flow kept"
    );

    // Two flows past twice a limit of zero: kill-all spares it too.
    dpif.revalidator.flow_limit = 0;
    let s = dpif.revalidate(&mut k, 2);
    assert_eq!((s.dumped, s.evicted), (1, 1));
    assert_eq!(k.ovs.flow_count(), 1);
    assert!(
        k.ovs.flow_stats(&key, &mask).is_some(),
        "pre-warmed flow kept"
    );
}
