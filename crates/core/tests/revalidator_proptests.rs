//! Property tests for the revalidator.
//!
//! - The sweep: against a random schedule of traffic, clock advances,
//!   and sweeps, the datapath's megaflow table must track a simple
//!   reference model exactly — a sweep never deletes a flow used within
//!   its idle timeout, never keeps one idle past it, and the packet
//!   accounting stays coherent throughout.
//! - Scoped `flow_mod` revalidation: a datapath that re-translates only
//!   the megaflows a new rule can reach must end every step in the same
//!   state as one that re-translates every megaflow.

use ovs_afxdp::{AfxdpPort, OptLevel};
use ovs_core::dpif::{DpAction, DpifNetdev, PortType};
use ovs_core::ofctl;
use ovs_core::ofproto::{OfAction, OfRule};
use ovs_kernel::dev::{DeviceKind, NetDevice};
use ovs_kernel::Kernel;
use ovs_packet::ethernet::EtherType;
use ovs_packet::flow::{fields, FlowKey, FlowMask};
use ovs_packet::{builder, MacAddr};
use proptest::prelude::*;
use std::collections::HashMap;

/// One step of a generated schedule.
#[derive(Debug, Clone)]
enum Event {
    /// Send a UDP packet with the i-th source port.
    Packet(u16),
    /// Advance the virtual clock by this many milliseconds.
    Advance(u64),
    /// Run one revalidator sweep.
    Sweep,
}

fn arb_event() -> impl Strategy<Value = Event> {
    (0u8..8, any::<u16>(), any::<u8>()).prop_map(|(choice, tp, gap)| match choice {
        0..=4 => Event::Packet(tp % 12),
        5 | 6 => Event::Advance(u64::from(gap % 40) * 500),
        _ => Event::Sweep,
    })
}

fn tp_src_rule(tp: u16) -> OfRule {
    let mut key = FlowKey::default();
    key.set_eth_type(EtherType::Ipv4);
    key.set_nw_proto(17);
    key.set_tp_src(tp);
    OfRule {
        table: 0,
        priority: 10,
        key,
        mask: FlowMask::of_fields(&[&fields::ETH_TYPE, &fields::NW_PROTO, &fields::TP_SRC]),
        actions: vec![OfAction::Output(1)],
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

fn setup() -> (Kernel, DpifNetdev, Vec<u32>) {
    let mut k = Kernel::new(4);
    let mut dp = DpifNetdev::new();
    let mut nics = Vec::new();
    for i in 0..2u8 {
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
    // One matching rule per flow so each source port gets its own
    // megaflow (tp_src is in every translated mask).
    for tp in 0..12u16 {
        dp.ofproto.add_rule(tp_src_rule(1000 + tp));
    }
    (k, dp, nics)
}

proptest! {
    /// Reference model: a map `tp -> (created_ns, last_used_ns)`. A
    /// packet inserts or touches its flow; a sweep removes exactly the
    /// flows idle strictly longer than `max_idle` (the table never
    /// reaches the flow limit, and rules never change, so idle expiry is
    /// the only legal delete reason).
    #[test]
    fn sweep_expires_exactly_the_idle_flows(
        events in proptest::collection::vec(arb_event(), 1..120),
    ) {
        let (mut k, mut dp, nics) = setup();
        let idle_ns = dp.revalidator.cfg.max_idle_ms * 1_000_000;
        let mut model: HashMap<u16, (u64, u64)> = HashMap::new();
        let mut pkts_sent: u64 = 0;

        for ev in &events {
            match ev {
                Event::Packet(i) => {
                    let tp = 1000 + i;
                    let now = k.sim.clock.now_ns();
                    k.receive(nics[0], 0, frame(tp));
                    dp.pmd_poll(&mut k, 0, 0, 1);
                    pkts_sent += 1;
                    model
                        .entry(tp)
                        .and_modify(|(_, used)| *used = now)
                        .or_insert((now, now));
                }
                Event::Advance(ms) => k.sim.clock.advance(ms * 1_000_000),
                Event::Sweep => {
                    let now = k.sim.clock.now_ns();
                    let before = model.len() as u64;
                    model.retain(|_, (_, used)| now - *used <= idle_ns);
                    let expect_deleted = before - model.len() as u64;

                    let s = dp.revalidate(&mut k, 0);
                    prop_assert_eq!(s.deleted_idle, expect_deleted,
                        "sweep at {}ms deleted the wrong flows", now / 1_000_000);
                    prop_assert_eq!(s.deleted_hard, 0);
                    prop_assert_eq!(s.deleted_changed, 0, "rules never changed");
                    prop_assert_eq!(s.evicted, 0, "never near the flow limit");
                }
            }
            // The table and the ukey set track the model at every step.
            prop_assert_eq!(dp.megaflow_count(), model.len());
            prop_assert_eq!(dp.revalidator.ukey_count(), model.len());
            prop_assert!(dp.stats.coherent(), "{:?}", dp.stats);
        }

        // Every packet was forwarded (misses and hits alike) and the
        // final sweep's pushback accounts for all of them: each packet
        // matched exactly one tp_src rule.
        prop_assert_eq!(k.device(nics[1]).tx_wire.len() as u64, pkts_sent);
        dp.revalidate(&mut k, 0);
        let credited: u64 = dp
            .ofproto
            .iter_rules()
            .map(|r| r.n_packets.get())
            .sum();
        prop_assert_eq!(credited, pkts_sent, "stats pushback is exact");
    }
}

/// Tables of the differential pipeline; `ct` resumes at [`CT_TABLE`].
const TABLES: u8 = 5;
const CT_TABLE: u8 = 3;

/// Match shapes. A shape is one wildcard mask, so one classifier
/// subtable per table, and its index is the priority's residue mod 16:
/// two subtables of a table never share a max priority. Translation then
/// never depends on the hit-count ranking within a priority tier, so the
/// two datapaths, which make different numbers of lookups, must agree.
///
/// Shapes 9 (L2 only) and 10 (L2, L3 and L4) separate the lookup stages:
/// a staged probe of shape 10 can stop at `dl_src` while other subtables
/// un-wildcard `tp_dst`, leaving a flow that holds a later stage of the
/// mask without an earlier one — the case `RuleChange::reaches` must
/// judge by stage prefix.
const SHAPES: u8 = 11;

fn shape_match(shape: u8, v: u8) -> String {
    match shape {
        0 => String::new(),
        1 => "in_port=0".into(),
        2 => format!("udp,tp_dst={}", 7000 + u16::from(v % 3)),
        3 => format!("metadata={}", v % 3),
        4 => format!("ip,nw_dst=10.0.{}.0/24", v % 2),
        5 => format!("ip,nw_dst=10.0.{}.{}", v % 2, 1 + v / 2 % 2),
        6 => format!("udp,tp_src={}", 1000 + u16::from(v % 2)),
        7 => format!(
            "metadata={},udp,tp_dst={}",
            v % 3,
            7000 + u16::from(v / 3 % 3)
        ),
        8 => format!(
            "ct_state=+trk{}est",
            if v.is_multiple_of(2) { '+' } else { '-' }
        ),
        9 => format!("dl_src=02:00:00:00:09:0{}", 8 + v % 2),
        _ => format!(
            "udp,dl_src=02:00:00:00:09:0{},nw_dst=10.0.{}.{},tp_dst={}",
            8 + v % 2,
            v / 2 % 2,
            1 + v / 4 % 2,
            7000 + u16::from(v / 8 % 3)
        ),
    }
}

/// Actions for a rule in `table`. `Goto` only moves forward, and `ct`
/// is a whole action list in table 0, where metadata is always 0, so
/// every recirculation shares one continuation and one recirc id on
/// both datapaths whatever order they re-translate in.
fn rule_actions(table: u8, choice: u8, v: u8) -> String {
    let later = table + 1 + v % (TABLES - table).max(1);
    match choice % 5 {
        1 => "drop".into(),
        2 if later < TABLES => format!("goto_table:{later}"),
        3 if later < TABLES => format!("write_metadata:{},goto_table:{later}", v % 3),
        4 if table == 0 => format!("ct(commit,zone=1,table={CT_TABLE})"),
        _ => format!("output:{}", 1 + v % 2),
    }
}

fn rule_text(table: u8, level: u8, shape: u8, m: u8, actions: &str) -> String {
    let priority = 16 * u32::from(level) + u32::from(shape);
    format!(
        "table={table}, priority={priority}, {}, actions={actions}",
        shape_match(shape, m)
    )
}

/// The pipeline both datapaths start from, as (table, level, shape,
/// match value, actions): in_port steers into metadata-keyed tables,
/// UDP port 7000 goes through conntrack, and the second pass after
/// recirculation branches on `ct_state`.
const BASE: &[(u8, u8, u8, u8, &str)] = &[
    (0, 1, 1, 0, "write_metadata:1,goto_table:1"),
    (0, 2, 2, 0, "ct(commit,zone=1,table=3)"),
    (1, 1, 3, 1, "goto_table:2"),
    (2, 1, 4, 0, "output:1"),
    (2, 0, 0, 0, "output:2"),
    (3, 1, 8, 1, "write_metadata:2,goto_table:4"),
    (3, 0, 0, 0, "output:1"),
    (4, 1, 3, 2, "output:2"),
];

fn base_rule(i: usize, actions: Option<&str>) -> String {
    let (t, level, shape, m, a) = BASE[i % BASE.len()];
    rule_text(t, level, shape, m, actions.unwrap_or(a))
}

/// One step of a differential schedule.
#[derive(Debug, Clone)]
enum DiffEvent {
    /// Send the i-th of 24 UDP flows into port 0.
    Packet(u8),
    /// One runtime rule (`flow_mod`).
    FlowMod(String),
    /// A batch of rules in one `add_flows` call.
    Batch(Vec<String>),
    /// Run one revalidator sweep.
    Sweep,
    /// Advance the virtual clock by this many milliseconds.
    Advance(u64),
    /// Snapshot the datapath and restore it in place: every megaflow
    /// comes back with a restored ukey awaiting reconciliation.
    Restore,
}

fn random_rule(b: &[u8]) -> String {
    let table = b[0] % TABLES;
    let shape = b[1] % SHAPES;
    rule_text(
        table,
        b[2] % 6,
        shape,
        b[3],
        &rule_actions(table, b[4], b[5]),
    )
}

fn arb_diff_event() -> impl Strategy<Value = DiffEvent> {
    (0u8..100, proptest::collection::vec(any::<u8>(), 18..19)).prop_map(|(choice, b)| {
        match choice {
            0..=49 => DiffEvent::Packet(b[0] % 24),
            50..=66 => DiffEvent::FlowMod(random_rule(&b)),
            // Replace a rule the traffic matches: same match and priority,
            // new actions.
            67..=74 => DiffEvent::FlowMod(base_rule(
                usize::from(b[6]),
                Some(&rule_actions(
                    BASE[usize::from(b[6]) % BASE.len()].0,
                    b[7],
                    b[8],
                )),
            )),
            75..=81 => {
                let n = 1 + usize::from(b[9] % 3);
                DiffEvent::Batch((0..n).map(|i| random_rule(&b[6 * i..])).collect())
            }
            82..=88 => DiffEvent::Sweep,
            89..=94 => DiffEvent::Advance(u64::from(b[10] % 8) * 1500),
            _ => DiffEvent::Restore,
        }
    })
}

fn diff_frame(i: u8) -> Vec<u8> {
    builder::udp_ipv4_frame(
        MacAddr::new(2, 0, 0, 0, 9, 9),
        MacAddr::new(2, 0, 0, 0, 0, 1),
        [10, 1, 0, 1],
        [10, 0, i % 2, 1 + i / 2 % 2],
        1000 + u16::from(i / 4 % 2),
        7000 + u16::from(i / 8 % 3),
        96,
    )
}

/// One datapath of the pair, its kernel and its NICs.
struct Side {
    k: Kernel,
    dp: DpifNetdev,
    nics: Vec<u32>,
}

impl Side {
    fn new() -> Self {
        let mut k = Kernel::new(4);
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
        for i in 0..BASE.len() {
            dp.ofproto
                .add_rule(ofctl::parse_flow(&base_rule(i, None)).unwrap());
        }
        Self { k, dp, nics }
    }

    fn now(&self) -> u64 {
        self.k.sim.clock.now_ns()
    }

    /// Every installed flow as (key, mask, actions), in key order.
    fn flows(&self) -> Vec<(FlowKey, FlowMask, Vec<DpAction>)> {
        let r = &self.dp.revalidator;
        r.keys()
            .iter()
            .map(|k| {
                let u = r.ukey(k).unwrap();
                (u.key, u.mask, u.actions.clone())
            })
            .collect()
    }

    fn apply(&mut self, ev: &DiffEvent, scoped: bool) {
        match ev {
            DiffEvent::Packet(i) => {
                self.k.receive(self.nics[0], 0, diff_frame(*i));
                self.dp.pmd_poll(&mut self.k, 0, 0, 1);
            }
            DiffEvent::FlowMod(text) => {
                let rule = ofctl::parse_flow(text).unwrap();
                if scoped {
                    self.dp.flow_mod(rule);
                } else {
                    self.dp.ofproto.add_rule(rule);
                    self.dp.revalidate_changed();
                }
            }
            DiffEvent::Batch(texts) => {
                if scoped {
                    self.dp.add_flows(&texts.join("\n")).unwrap();
                } else {
                    for t in texts {
                        self.dp.ofproto.add_rule(ofctl::parse_flow(t).unwrap());
                    }
                    self.dp.revalidate_changed();
                }
            }
            DiffEvent::Sweep => {
                self.dp.revalidate(&mut self.k, 0);
            }
            DiffEvent::Advance(ms) => self.k.sim.clock.advance(ms * 1_000_000),
            DiffEvent::Restore => {
                let now = self.now();
                let snap = self.dp.snapshot(now);
                self.dp.flush_caches();
                self.dp.restore_from(&snap, now, 0);
                self.dp.flow_restore_complete(now);
            }
        }
    }
}

proptest! {
    /// Scoped revalidation (`flow_mod`, `add_flows`) against full
    /// revalidation (`ofproto.add_rule` + `revalidate_changed`) under the
    /// same random traffic and rule changes — new subtables, raised
    /// priorities, replaced matched rules, metadata-steered tables, ct
    /// second passes and restored ukeys: both delete the same flows and
    /// keep the same (key, mask, actions), and after a final sweep the
    /// OpenFlow rule counters agree.
    #[test]
    fn scoped_revalidation_equals_full_revalidation(
        events in proptest::collection::vec(arb_diff_event(), 1..90),
    ) {
        let mut scoped = Side::new();
        let mut full = Side::new();
        for ev in &events {
            let before = scoped.flows();
            scoped.apply(ev, true);
            full.apply(ev, false);
            let (s, f) = (scoped.flows(), full.flows());
            if matches!(ev, DiffEvent::FlowMod(_) | DiffEvent::Batch(_)) {
                let gone = |after: &[(FlowKey, FlowMask, Vec<DpAction>)]| -> Vec<FlowKey> {
                    before
                        .iter()
                        .filter(|b| !after.iter().any(|a| a.0 == b.0))
                        .map(|b| b.0)
                        .collect()
                };
                prop_assert_eq!(gone(&s), gone(&f), "deleted sets differ after {:?}", ev);
            }
            prop_assert_eq!(&s, &f, "surviving flows differ after {:?}", ev);
            prop_assert_eq!(
                scoped.dp.dump_flows(scoped.now()),
                full.dp.dump_flows(full.now())
            );
            for (a, b) in scoped.nics.iter().zip(&full.nics) {
                prop_assert_eq!(
                    scoped.k.device(*a).tx_wire.len(),
                    full.k.device(*b).tx_wire.len()
                );
            }
            prop_assert_eq!(
                scoped.dp.revalidator.stats.deleted_changed,
                full.dp.revalidator.stats.deleted_changed
            );
            prop_assert!(
                scoped.dp.revalidator.stats.flows_dumped
                    <= full.dp.revalidator.stats.flows_dumped
            );
            prop_assert!(scoped.dp.stats.coherent(), "{:?}", scoped.dp.stats);
        }
        scoped.apply(&DiffEvent::Sweep, true);
        full.apply(&DiffEvent::Sweep, false);
        prop_assert_eq!(
            ofctl::dump_flows(&scoped.dp.ofproto),
            ofctl::dump_flows(&full.dp.ofproto)
        );
    }
}
