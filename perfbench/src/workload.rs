//! The four workloads and their seeded traffic.
//!
//! Every workload is an echo exchange between two peered NSX hosts: the
//! VMs of host 1 send UDP requests to the echo VMs of host 2, which
//! reflect them back. The generator only ever hands the program frames
//! (pushed into a sending VM's virtio tx ring) and `OfRule`s (pushed
//! through `DpifNetdev::flow_mod`).

use ovs_core::ofproto::{OfAction, OfRule};
use ovs_nsx::ruleset::{self, tables, NsxConfig};
use ovs_packet::flow::{fields, FlowKey, FlowMask};
use ovs_packet::{builder, EtherType};
use ovs_sim::SimRng;

/// Frames per burst: the closed loop's unit of work.
pub const BURST: usize = 32;
/// Requests each churned connection exchanges before it goes idle.
pub const REQS_PER_CONN: usize = 4;
/// Revalidator cadence in virtual time, on both hosts, in every workload.
pub const REVALIDATE_EVERY_NS: u64 = 500_000_000;
/// Every n-th controller update re-pins a live destination's VNI
/// (changing installed megaflows' actions); the rest touch unused filler
/// space.
pub const LIVE_MOD_EVERY: u64 = 4;
/// Bytes of Ethernet + IPv4 + UDP header in front of the payload.
pub const L4_PAYLOAD_OFF: usize = 42;

/// Share of its modeled capacity each workload is offered. At one half,
/// the busiest core of the busier host spends about half of the virtual
/// time on the workload, so the queueing in the modeled latency is
/// moderate and reacts to any change in per-burst work.
pub const TARGET_UTIL: f64 = 0.5;

/// Modeled capacity of each workload in requests per virtual second: its
/// `model_mpps` when offered `TARGET_UTIL` of it, as measured when the
/// benchmark was defined. Fixed, so that a later change to the datapath
/// moves the utilization (and the queueing) rather than the schedule.
const CAP_STEADY: f64 = 447_000.0;
const CAP_CONN_CHURN: f64 = 145_000.0;
const CAP_POLICY_CHURN: f64 = 322_000.0;
const CAP_KERNEL: f64 = 96_000.0;

/// Bursts between two DFW updates to the same host on
/// `overlay_policy_churn`.
const BURSTS_PER_FLOW_MOD: u64 = 64;

/// One named workload and its parameters.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Run the OVS kernel module (tap + vhost-net) instead of the
    /// userspace datapath over AF_XDP (vhostuser VMs).
    pub kernel: bool,
    /// Ethernet frame length of every request (echoes are the same size).
    pub frame_len: usize,
    /// Long-lived flows cycled round-robin; 0 means connection churn.
    pub flows: usize,
    /// Modeled capacity, requests per virtual second (see `CAP_STEADY`).
    pub capacity_pps: f64,
    /// Bursts between two DFW `flow_mod`s to the same host (0: none).
    /// The hosts take turns, half this interval apart.
    pub bursts_per_flow_mod: u64,
    /// Conntrack idle timeout override (UDP), virtual ns.
    pub ct_timeout_ns: Option<u64>,
    /// Megaflow idle timeout override, virtual ms.
    pub megaflow_idle_ms: Option<u64>,
    /// Warm-up before the measured window, in virtual ns.
    pub warmup_ns: u64,
    /// Bursts in the modeled window (fixed, so modeled metrics repeat).
    pub model_bursts: u64,
}

impl Workload {
    /// Requests per second of virtual time (the open modeled schedule).
    pub fn offered_pps(&self) -> f64 {
        TARGET_UTIL * self.capacity_pps
    }

    /// Virtual time one burst advances both hosts' clocks by.
    pub fn burst_ns(&self) -> u64 {
        (BURST as f64 / self.offered_pps() * 1e9).round() as u64
    }

    pub fn warmup_bursts(&self) -> u64 {
        self.warmup_ns.div_ceil(self.burst_ns())
    }
}

pub const NAMES: [&str; 4] = [
    "overlay_steady",
    "overlay_conn_churn",
    "overlay_policy_churn",
    "kernel_steady",
];

pub fn by_name(name: &str) -> Option<Workload> {
    let steady = Workload {
        name: "overlay_steady",
        kernel: false,
        frame_len: 64,
        flows: 1000,
        capacity_pps: CAP_STEADY,
        bursts_per_flow_mod: 0,
        ct_timeout_ns: None,
        megaflow_idle_ms: None,
        warmup_ns: 20_000_000,
        model_bursts: 8000,
    };
    let w = match name {
        "overlay_steady" => steady,
        "overlay_conn_churn" => Workload {
            name: "overlay_conn_churn",
            flows: 0,
            capacity_pps: CAP_CONN_CHURN,
            ct_timeout_ns: Some(200_000_000),
            megaflow_idle_ms: Some(1_000),
            warmup_ns: 4_500_000_000,
            model_bursts: 6000,
            ..steady
        },
        "overlay_policy_churn" => Workload {
            name: "overlay_policy_churn",
            frame_len: 1500,
            capacity_pps: CAP_POLICY_CHURN,
            bursts_per_flow_mod: BURSTS_PER_FLOW_MOD,
            model_bursts: 6000,
            ..steady
        },
        "kernel_steady" => Workload {
            name: "kernel_steady",
            kernel: true,
            capacity_pps: CAP_KERNEL,
            model_bursts: 8000,
            ..steady
        },
        _ => return None,
    };
    Some(w)
}

/// A UDP 5-tuple between VM interface `src_vif` on host 1 and
/// `dst_vif` on host 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flow {
    pub src_vif: usize,
    pub dst_vif: usize,
    pub sport: u16,
    pub dport: u16,
}

/// One request in flight: its id (carried in the payload) and flow.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub id: u64,
    pub flow: Flow,
}

/// The seeded request source.
pub struct Traffic {
    rng: SimRng,
    vifs: usize,
    flows: Vec<Flow>,
    /// Connection churn: the flows of the connections started in the
    /// last `REQS_PER_CONN` bursts, newest first.
    conns: std::collections::VecDeque<Vec<Flow>>,
    next_conn: u64,
    next_id: u64,
    payload_fill: u8,
}

impl Traffic {
    pub fn new(w: &Workload, seed: u64, vifs: usize) -> Self {
        let mut rng = SimRng::new(seed);
        let mut seen = std::collections::HashSet::new();
        let mut flows = Vec::with_capacity(w.flows);
        while flows.len() < w.flows {
            let f = Flow {
                src_vif: rng.below(vifs as u64) as usize,
                dst_vif: rng.below(vifs as u64) as usize,
                sport: 1024 + rng.below(60_000) as u16,
                dport: 1024 + rng.below(60_000) as u16,
            };
            if seen.insert(f) {
                flows.push(f);
            }
        }
        let payload_fill = rng.next_u64() as u8;
        Traffic {
            rng,
            vifs,
            flows,
            conns: Default::default(),
            next_conn: 0,
            next_id: 0,
            payload_fill,
        }
    }

    /// The requests of burst `b`. Long-lived flows are cycled
    /// round-robin; under churn, `BURST / REQS_PER_CONN` connections
    /// start per burst and each sends one request per burst (after the
    /// previous echo came back) until it has sent `REQS_PER_CONN`.
    pub fn burst(&mut self, b: u64) -> Vec<Request> {
        let flows: Vec<Flow> = if self.flows.is_empty() {
            let fresh = (0..BURST / REQS_PER_CONN)
                .map(|_| self.fresh_conn())
                .collect();
            self.conns.push_front(fresh);
            self.conns.truncate(REQS_PER_CONN);
            self.conns.iter().flatten().copied().collect()
        } else {
            let n = self.flows.len() as u64;
            (0..BURST as u64)
                .map(|k| self.flows[((b * BURST as u64 + k) % n) as usize])
                .collect()
        };
        flows
            .into_iter()
            .map(|flow| {
                let id = self.next_id;
                self.next_id += 1;
                Request { id, flow }
            })
            .collect()
    }

    /// A connection on a 5-tuple no live connection uses: consecutive
    /// connections walk the source interfaces, and a source port is
    /// reused only after every interface has cycled through 60,000 ports.
    fn fresh_conn(&mut self) -> Flow {
        let c = self.next_conn;
        self.next_conn += 1;
        Flow {
            src_vif: (c % self.vifs as u64) as usize,
            dst_vif: self.rng.below(self.vifs as u64) as usize,
            sport: 1024 + ((c / self.vifs as u64) % 60_000) as u16,
            dport: 1024 + self.rng.below(60_000) as u16,
        }
    }

    /// The request frame: VM MACs and IPs from the NSX address plan, the
    /// request id in the first eight payload bytes.
    pub fn frame(&self, req: &Request, frame_len: usize) -> Vec<u8> {
        let f = req.flow;
        let mut payload = vec![self.payload_fill; frame_len - L4_PAYLOAD_OFF];
        payload[..8].copy_from_slice(&req.id.to_le_bytes());
        builder::udp_ipv4(
            ruleset::vm_mac(1, f.src_vif / 2, f.src_vif % 2),
            ruleset::vm_mac(2, f.dst_vif / 2, f.dst_vif % 2),
            ruleset::vm_ip(1, f.src_vif / 2, f.src_vif % 2),
            ruleset::vm_ip(2, f.dst_vif / 2, f.dst_vif % 2),
            f.sport,
            f.dport,
            &payload,
        )
    }
}

/// Whether `frame` is exactly the echo of `req` (addresses and ports
/// swapped, payload intact).
pub fn is_echo_of(frame: &[u8], req: &Request, frame_len: usize) -> bool {
    let f = req.flow;
    let (vm1, if1) = (f.src_vif / 2, f.src_vif % 2);
    let (vm2, if2) = (f.dst_vif / 2, f.dst_vif % 2);
    frame.len() == frame_len
        && frame[0..6] == ruleset::vm_mac(1, vm1, if1).0
        && frame[6..12] == ruleset::vm_mac(2, vm2, if2).0
        && frame[26..30] == ruleset::vm_ip(2, vm2, if2)
        && frame[30..34] == ruleset::vm_ip(1, vm1, if1)
        && frame[34..36] == f.dport.to_be_bytes()
        && frame[36..38] == f.sport.to_be_bytes()
        && frame[L4_PAYLOAD_OFF..L4_PAYLOAD_OFF + 8] == req.id.to_le_bytes()
}

/// The request id an echo carries, if the frame is long enough.
pub fn echo_id(frame: &[u8]) -> Option<u64> {
    let b = frame.get(L4_PAYLOAD_OFF..L4_PAYLOAD_OFF + 8)?;
    Some(u64::from_le_bytes(b.try_into().ok()?))
}

/// The controller's DFW update stream for one host.
pub struct PolicyFeed {
    rng: SimRng,
    n: u64,
    remote_host: u8,
    remote_vtep: [u8; 4],
    vifs: usize,
    tunnels: usize,
}

/// Distinct filler rules the feed rotates through (then modifies).
const FILLER_POOL: u64 = 512;

impl PolicyFeed {
    pub fn new(seed: u64, host: u8, vifs: usize) -> Self {
        let nsx = NsxConfig::default();
        PolicyFeed {
            rng: SimRng::new(seed ^ (u64::from(host) << 56)),
            n: 0,
            remote_host: 3 - host,
            remote_vtep: [172, 16, 0, 3 - host],
            vifs,
            tunnels: nsx.tunnels,
        }
    }

    /// The next update.
    ///
    /// Filler updates add or modify a 5-tuple rule in a DFW section over
    /// RFC 2544 benchmark space (198.19.200.0/21) that no workload frame
    /// uses. Live updates re-pin one remote VM's forwarding rule to
    /// another logical-switch VNI: the rule's actions change, so every
    /// megaflow towards that VM is deleted and re-upcalled, and the
    /// peer's tunnel ingress still accepts the traffic.
    pub fn next_rule(&mut self) -> OfRule {
        self.n += 1;
        if self.n.is_multiple_of(LIVE_MOD_EVERY) {
            let i = self.rng.below(self.vifs as u64) as usize;
            let vni = ruleset::vni_of(self.rng.below(self.tunnels as u64) as usize);
            let mut k = FlowKey::default();
            k.set_dl_dst(ruleset::vm_mac(self.remote_host, i / 2, i % 2));
            return OfRule {
                table: tables::FORWARD,
                priority: 60,
                key: k,
                mask: FlowMask::of_fields(&[&fields::DL_DST]),
                actions: vec![
                    OfAction::SetTunnel {
                        id: vni,
                        dst: self.remote_vtep,
                    },
                    OfAction::Goto(tables::TUN_OUTPUT),
                ],
                cookie: 8,
            };
        }
        let slot = self.rng.below(FILLER_POOL);
        let sections = tables::EGRESS_SECTIONS;
        let table =
            sections.start() + (slot % (sections.end() - sections.start() + 1) as u64) as u8;
        let mut k = FlowKey::default();
        k.set_eth_type(EtherType::Ipv4);
        k.set_nw_src_v4([198, 19, 200 + (slot >> 8) as u8, slot as u8]);
        k.set_nw_dst_v4([198, 19, 210, (slot % 250) as u8 + 1]);
        k.set_nw_proto(17);
        k.set_tp_dst(1024 + (slot as u16) * 7);
        let mut mask =
            FlowMask::of_fields(&[&fields::ETH_TYPE, &fields::NW_PROTO, &fields::TP_DST]);
        mask.set_nw_src_v4_prefix(32);
        mask.set_nw_dst_v4_prefix(32);
        let action = if self.rng.below(2) == 0 {
            OfAction::Drop
        } else {
            OfAction::Goto(tables::FORWARD)
        };
        OfRule {
            table,
            priority: 40,
            key: k,
            mask,
            actions: vec![action],
            cookie: 0xfeed,
        }
    }
}
