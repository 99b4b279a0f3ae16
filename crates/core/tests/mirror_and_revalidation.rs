//! ERSPAN mirroring through the datapath and megaflow revalidation on
//! rule changes.

use ovs_afxdp::{AfxdpPort, OptLevel};
use ovs_core::dpif::{DpifNetdev, PortType};
use ovs_core::mirror::{self, MirrorSession};
use ovs_core::ofproto::{OfAction, OfRule};
use ovs_kernel::dev::{DeviceKind, NetDevice};
use ovs_kernel::Kernel;
use ovs_packet::flow::{fields, FlowKey, FlowMask};
use ovs_packet::{builder, MacAddr};

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

fn frame() -> Vec<u8> {
    builder::udp_ipv4_frame(
        MacAddr::new(2, 0, 0, 0, 9, 9),
        MacAddr::new(2, 0, 0, 0, 0, 1),
        [10, 0, 0, 1],
        [10, 0, 0, 2],
        5000,
        6000,
        96,
    )
}

#[test]
fn erspan_mirror_copies_watched_traffic() {
    let (mut k, mut dp, nics) = setup();
    dp.ofproto.add_rule(fwd_rule(0, 1, 10));
    // Mirror everything leaving port 1 toward a collector behind port 2.
    dp.mirrors.push(MirrorSession::new(
        42,
        1,
        2,
        [172, 16, 0, 1],
        [172, 16, 0, 99],
        MacAddr::new(4, 0, 0, 0, 0, 1),
        MacAddr::new(4, 0, 0, 0, 0, 99),
    ));

    for _ in 0..5 {
        k.receive(nics[0], 0, frame());
        dp.pmd_poll(&mut k, 0, 0, 1);
    }
    // Original traffic on eth1, mirrored copies on eth2.
    assert_eq!(k.device(nics[1]).tx_wire.len(), 5);
    assert_eq!(k.device(nics[2]).tx_wire.len(), 5);
    for (i, wrapped) in k.device(nics[2]).tx_wire.iter().enumerate() {
        let (sid, seq, inner) = mirror::decode(wrapped).expect("valid ERSPAN");
        assert_eq!(sid, 42);
        assert_eq!(seq as usize, i + 1);
        assert_eq!(inner, frame(), "mirror copy is byte-identical");
    }
    assert_eq!(dp.mirrors[0].mirrored, 5);
}

#[test]
fn flow_mod_revalidates_cached_megaflows() {
    let (mut k, mut dp, nics) = setup();
    dp.ofproto.add_rule(fwd_rule(0, 1, 10));
    // An unrelated flow in the other direction, cached alongside.
    dp.ofproto.add_rule(fwd_rule(1, 0, 10));
    // Warm the caches toward eth1, and the reverse flow toward eth0.
    for _ in 0..3 {
        k.receive(nics[0], 0, frame());
        dp.pmd_poll(&mut k, 0, 0, 1);
        k.receive(nics[1], 0, frame());
        dp.pmd_poll(&mut k, 1, 0, 1);
    }
    assert_eq!(k.dev_mut(nics[1]).tx_wire.drain(..).count(), 3);
    assert_eq!(k.dev_mut(nics[0]).tx_wire.drain(..).count(), 3);
    assert_eq!(dp.megaflow_count(), 2);

    // Redirect port 0's traffic to eth2 at higher priority. Without
    // revalidation the stale megaflow would keep winning. Revalidation
    // is *selective*: only the flow whose translation changed dies — the
    // unrelated port-1 flow keeps its cache entry.
    dp.flow_mod(fwd_rule(0, 2, 50));
    assert_eq!(
        dp.megaflow_count(),
        1,
        "only the changed megaflow was deleted"
    );
    let upcalls_before = dp.stats.upcalls;
    for _ in 0..3 {
        k.receive(nics[0], 0, frame());
        dp.pmd_poll(&mut k, 0, 0, 1);
        k.receive(nics[1], 0, frame());
        dp.pmd_poll(&mut k, 1, 0, 1);
    }
    assert_eq!(k.device(nics[1]).tx_wire.len(), 0, "old path unused");
    assert_eq!(k.device(nics[2]).tx_wire.len(), 3, "new rule in effect");
    assert_eq!(k.device(nics[0]).tx_wire.len(), 3, "reverse flow intact");
    assert_eq!(
        dp.stats.upcalls,
        upcalls_before + 1,
        "exactly one re-translation upcall: the surviving flow stayed hot"
    );
}

#[test]
fn flow_mod_retranslates_only_the_flows_the_rule_can_reach() {
    let (mut k, mut dp, nics) = setup();
    dp.ofproto.add_rule(fwd_rule(0, 1, 10));
    dp.ofproto.add_rule(fwd_rule(1, 0, 10));
    k.receive(nics[0], 0, frame());
    dp.pmd_poll(&mut k, 0, 0, 1);
    k.receive(nics[1], 0, frame());
    dp.pmd_poll(&mut k, 1, 0, 1);
    assert_eq!(dp.megaflow_count(), 2);
    let dumped = dp.revalidator.stats.flows_dumped;

    // Same match and priority as the port-0 rule: the table's probe set
    // is unchanged, so only the flow from port 0 can see the new rule.
    dp.flow_mod(fwd_rule(0, 2, 10));
    assert_eq!(dp.revalidator.stats.flows_dumped, dumped + 1);
    assert_eq!(dp.megaflow_count(), 1, "the redirected flow was deleted");

    // A rule in a table no translation looks up reaches no flow, though
    // it creates that table.
    let mut rule = fwd_rule(1, 2, 99);
    rule.table = 7;
    dp.flow_mod(rule);
    assert_eq!(dp.revalidator.stats.flows_dumped, dumped + 1);

    // Full revalidation still re-translates every flow.
    assert_eq!(dp.revalidate_changed(), 0);
    assert_eq!(dp.revalidator.stats.flows_dumped, dumped + 2);
}

/// A rule matching `eth_type`, `nw_src` and `tp_dst` — one field in each
/// of the L2, L3 and L4 lookup stages.
fn staged_rule(eth_type: u16, nw_src: [u8; 4], tp_dst: u16) -> OfRule {
    let mut key = FlowKey::default();
    key.set_eth_type_raw(eth_type);
    key.set_nw_src_v4(nw_src);
    key.set_tp_dst(tp_dst);
    let mut mask = FlowMask::of_fields(&[&fields::ETH_TYPE, &fields::TP_DST]);
    mask.set_nw_src_v4_prefix(32);
    OfRule {
        table: 0,
        priority: 20,
        key,
        mask,
        actions: vec![OfAction::Output(2)],
        cookie: 0,
    }
}

#[test]
fn flow_mod_reaches_flows_by_the_stages_their_lookup_examined() {
    let (mut k, mut dp, nics) = setup();
    // The frame (IPv4 10.0.0.1 -> 10.0.0.2, tp_dst 6000) misses an ARP
    // rule at the L2 stage, misses a tp_dst-only rule in full, and
    // matches the in_port rule: its megaflow examines eth_type and
    // tp_dst, but not nw_src.
    dp.ofproto
        .add_rule(staged_rule(0x0806, [10, 0, 0, 1], 6000));
    let mut port_key = FlowKey::default();
    port_key.set_tp_dst(9999);
    dp.ofproto.add_rule(OfRule {
        table: 0,
        priority: 15,
        key: port_key,
        mask: FlowMask::of_fields(&[&fields::TP_DST]),
        actions: vec![OfAction::Drop],
        cookie: 0,
    });
    dp.ofproto.add_rule(fwd_rule(0, 1, 10));
    k.receive(nics[0], 0, frame());
    dp.pmd_poll(&mut k, 0, 0, 1);
    assert_eq!(dp.megaflow_count(), 1);
    let dumped = dp.revalidator.stats.flows_dumped;

    // Agrees with the flow on L2 and L3, differs on tp_dst: it matches
    // none of the flow's packets, but their lookups now pass the L3
    // stage and un-wildcard nw_src, so the flow's mask changes. The
    // flow examined tp_dst, but not the L3 stage before it.
    dp.flow_mod(staged_rule(0x0800, [10, 0, 0, 1], 7000));
    assert_eq!(dp.revalidator.stats.flows_dumped, dumped + 1);
    assert_eq!(dp.megaflow_count(), 0, "the re-translated mask changed");

    // The re-installed flow examines nw_src. A rule that differs from
    // it there reaches it no more.
    k.receive(nics[0], 0, frame());
    dp.pmd_poll(&mut k, 0, 0, 1);
    assert_eq!(dp.megaflow_count(), 1);
    dp.flow_mod(staged_rule(0x0800, [10, 0, 0, 9], 6000));
    assert_eq!(dp.revalidator.stats.flows_dumped, dumped + 1);
    assert_eq!(dp.revalidate_changed(), 0, "and it changed nothing");
}

#[test]
fn pmd_stats_report_cache_distribution() {
    let (mut k, mut dp, nics) = setup();
    dp.ofproto.add_rule(fwd_rule(0, 1, 10));
    for _ in 0..10 {
        k.receive(nics[0], 0, frame());
        dp.pmd_poll(&mut k, 0, 0, 1);
    }
    let stats = dp.pmd_stats();
    assert!(stats.contains("packets received: 10"), "{stats}");
    assert!(stats.contains("upcalls (miss): 1"), "{stats}");
    assert!(stats.contains("megaflows installed: 1"), "{stats}");
}
