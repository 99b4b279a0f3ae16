//! Golden revalidator test: the deterministic two-host NSX scenario from
//! the observability goldens, taken through a full megaflow lifecycle —
//! traffic warms the caches, a sweep pushes stats and keeps the hot
//! flows, the clock idles past the timeout, and a second sweep drains
//! the table. `upcall/show`, `revalidator/wait`, and the post-churn
//! `dpctl/dump-flows` text are pinned exactly.

use ovs_afxdp::OptLevel;
use ovs_afxdp_repro::nsx::ruleset::{self, NsxConfig};
use ovs_afxdp_repro::nsx::topology::{DatapathKind, Host, HostConfig, VmAttachment};
use ovs_afxdp_repro::ovs::appctl;
use ovs_afxdp_repro::packet::builder;

/// The deterministic 2-VM NSX host pair on the userspace AF_XDP datapath.
fn build_host(id: u8) -> Host {
    let dpk = DatapathKind::UserspaceAfxdp {
        opt: OptLevel::O5,
        interrupt_mode: false,
    };
    let mut cfg = HostConfig::nsx_default(id, dpk, VmAttachment::VhostUser);
    cfg.nsx = NsxConfig {
        vms: 2,
        tunnels: 4,
        target_rules: 800,
        local_vtep: [172, 16, 0, id],
        remote_vtep: [172, 16, 0, 3 - id],
        ..NsxConfig::default()
    };
    Host::build(&cfg)
}

fn vm_frame(src_host: u8, dst_host: u8) -> Vec<u8> {
    builder::udp_ipv4_frame(
        ruleset::vm_mac(src_host, 0, 0),
        ruleset::vm_mac(dst_host, 0, 0),
        ruleset::vm_ip(src_host, 0, 0),
        ruleset::vm_ip(dst_host, 0, 0),
        3333,
        4444,
        200,
    )
}

/// Shuttle frames between the two hosts until quiescent.
fn run_pair(a: &mut Host, b: &mut Host) {
    for _ in 0..32 {
        let mut moved = a.pump() + b.pump();
        for f in a.wire_take() {
            b.wire_inject(f);
            moved += 1;
        }
        for f in b.wire_take() {
            a.wire_inject(f);
            moved += 1;
        }
        if moved == 0 {
            break;
        }
    }
}

const GOLDEN_SHOW_WARM: &str = "\
netdev@ovs-netdev:
  flows         : (current 5) (max 0) (limit 200000)
  dump duration : 0ms
  sweeps        : 0 (0 flows dumped)
  deleted       : 0 idle, 0 hard, 0 changed, 0 evicted
  stats pushed  : 0 packets, 0 bytes
  limit hits    : 0
  queue full    : 0
  restore       : 0 pending, 0 adopted, 0 orphaned, 0 gated
";
const GOLDEN_WAIT_1: &str = "revalidation complete: 5 flows dumped, \
0 deleted (0 idle, 0 hard, 0 changed, 0 evicted), \
flow limit 200000, dump duration 1ms\n";
const GOLDEN_DUMP: &str = "\
in_port(1),recirc(0),eth_type(0x0000),tun_id(5000) packets:14 bytes:2800 used:0.000s mask_bits:192 actions:[Ct { zone: 100, commit: false, nat: None }, Recirc(3)]
in_port(1),recirc(3),eth_type(0x0000),ct_state(0x04) packets:14 bytes:2800 used:0.000s mask_bits:113 actions:[Output(2)]
in_port(2),recirc(0),eth_type(0x0000) packets:15 bytes:3000 used:0.000s mask_bits:128 actions:[Ct { zone: 1, commit: false, nat: None }, Recirc(1)]
in_port(2),recirc(1),eth_type(0x0800),ipv4(src=10.101.0.2,dst=10.102.0.2),ct_state(0x02) packets:15 bytes:3000 used:0.000s mask_bits:218 actions:[Ct { zone: 100, commit: true, nat: None }, Recirc(2)]
in_port(2),recirc(2),eth_type(0x0000) packets:15 bytes:3000 used:0.000s mask_bits:112 actions:[SetTunnel { id: 5000, dst: [172, 16, 0, 2] }, Output(1)]
";
const GOLDEN_WAIT_2: &str = "revalidation complete: 5 flows dumped, \
5 deleted (5 idle, 0 hard, 0 changed, 0 evicted), \
flow limit 200000, dump duration 1ms\n";
const GOLDEN_SHOW_DRAINED: &str = "\
netdev@ovs-netdev:
  flows         : (current 0) (max 5) (limit 200000)
  dump duration : 1ms
  sweeps        : 2 (10 flows dumped)
  deleted       : 5 idle, 0 hard, 0 changed, 0 evicted
  stats pushed  : 73 packets, 14600 bytes
  limit hits    : 0
  queue full    : 0
  restore       : 0 pending, 0 adopted, 0 orphaned, 0 gated
";

#[test]
fn golden_revalidator_two_host_nsx() {
    let mut h1 = build_host(1);
    let mut h2 = build_host(2);
    h1.peer([172, 16, 0, 2], h2.uplink_mac());
    h2.peer([172, 16, 0, 1], h1.uplink_mac());

    let g = h1.guest_of_vif[0];
    h1.kernel.guests[g].tx_ring.push_back(vm_frame(1, 2));
    run_pair(&mut h1, &mut h2);

    let dp1 = h1.dp.as_mut().unwrap();
    let show = appctl::dispatch(dp1, &mut h1.kernel, "upcall/show", &[]).unwrap();
    assert_eq!(
        show, GOLDEN_SHOW_WARM,
        "upcall/show golden drifted:\n{show}"
    );

    // First sweep: everything is hot, nothing dies, stats get pushed.
    let dp1 = h1.dp.as_mut().unwrap();
    let wait = appctl::dispatch(dp1, &mut h1.kernel, "revalidator/wait", &[]).unwrap();
    assert_eq!(
        wait, GOLDEN_WAIT_1,
        "revalidator/wait golden drifted:\n{wait}"
    );

    // The post-churn datapath flow dump: per-flow packets, bytes, and
    // ages, all virtual-clock deterministic.
    let dp1 = h1.dp.as_mut().unwrap();
    let dump = appctl::dispatch(dp1, &mut h1.kernel, "dpctl/dump-flows", &[]).unwrap();
    assert_eq!(
        dump, GOLDEN_DUMP,
        "dpctl/dump-flows golden drifted:\n{dump}"
    );

    // Idle out and sweep again: the table drains.
    h1.kernel.sim.clock.advance(15_000_000_000);
    let dp1 = h1.dp.as_mut().unwrap();
    let wait = appctl::dispatch(dp1, &mut h1.kernel, "revalidator/wait", &[]).unwrap();
    assert_eq!(
        wait, GOLDEN_WAIT_2,
        "revalidator/wait golden drifted:\n{wait}"
    );

    let dp1 = h1.dp.as_mut().unwrap();
    let show = appctl::dispatch(dp1, &mut h1.kernel, "upcall/show", &[]).unwrap();
    assert_eq!(
        show, GOLDEN_SHOW_DRAINED,
        "upcall/show golden drifted:\n{show}"
    );
    assert_eq!(h1.dp.as_ref().unwrap().megaflow_count(), 0);

    // The overlay still works after the drain: a fresh frame crosses the
    // re-translated slow path and reinstalls its megaflows.
    let upcalls = h1.dp.as_ref().unwrap().stats.upcalls;
    let g = h1.guest_of_vif[0];
    h1.kernel.guests[g].tx_ring.push_back(vm_frame(1, 2));
    run_pair(&mut h1, &mut h2);
    let dp1 = h1.dp.as_ref().unwrap();
    assert!(dp1.stats.upcalls > upcalls, "drained flows re-upcall");
    assert!(dp1.megaflow_count() > 0, "megaflows reinstalled");
    assert!(dp1.stats.coherent(), "{:?}", dp1.stats);
}
