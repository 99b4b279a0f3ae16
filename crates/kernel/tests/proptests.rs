//! Property tests for the kernel substrate: conntrack invariants, and
//! total robustness of the RX path against arbitrary bytes.

use ovs_ct::{apply_rewrite, ConnKey, CtAction, CtTable, NatRewrite, NatSpec};
use ovs_kernel::dev::{DeviceKind, NetDevice, XdpMode};
use ovs_kernel::Kernel;
use ovs_packet::dp_packet::ct_state;
use ovs_packet::MacAddr;
use proptest::prelude::*;

fn arb_key() -> impl Strategy<Value = ConnKey> {
    (
        any::<u16>(),
        any::<[u8; 4]>(),
        any::<[u8; 4]>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
    )
        .prop_map(|(zone, s, d, sp, dp, proto)| ConnKey {
            zone: zone % 8,
            src_ip: s,
            dst_ip: d,
            src_port: sp,
            dst_port: dp,
            proto: proto % 3 + 6, // 6, 7, 8 — includes TCP
        })
}

proptest! {
    /// A committed connection's reply is always recognized as REPLY and
    /// establishes the connection, regardless of tuple values.
    #[test]
    fn reply_always_recognized(key in arb_key()) {
        // Skip degenerate self-connections where both directions collide.
        prop_assume!(key.reversed() != key);
        let mut ct = CtTable::new();
        let v1 = ct.process(key, CtAction::commit(key.zone), 0);
        prop_assert!(v1.state & ct_state::NEW != 0);
        let v2 = ct.process(key.reversed(), CtAction::track(key.zone), 1);
        prop_assert!(v2.state & ct_state::REPLY != 0, "state {:02x}", v2.state);
        prop_assert!(v2.state & ct_state::ESTABLISHED != 0);
        // And the original direction is then established.
        let v3 = ct.process(key, CtAction::track(key.zone), 2);
        prop_assert!(v3.state & ct_state::ESTABLISHED != 0);
        prop_assert_eq!(ct.len(), 1);
    }

    /// Connections in different zones never interfere.
    #[test]
    fn zones_never_alias(key in arb_key()) {
        prop_assume!(key.zone != 7);
        let mut ct = CtTable::new();
        ct.process(key, CtAction::commit(key.zone), 0);
        let other_zone = ct.process(key, CtAction::track(7), 1);
        prop_assert!(other_zone.state & ct_state::NEW != 0, "other zone sees a new flow");
    }

    /// DNAT forward + reply rewrites compose to the identity on the wire:
    /// what the client sent is exactly restored on the reply path.
    #[test]
    fn nat_roundtrip_is_identity(
        client_ip in any::<[u8; 4]>(),
        vip in any::<[u8; 4]>(),
        backend in any::<[u8; 4]>(),
        cport in 1024u16..65000,
        vport in 1u16..1024,
        bport in 1024u16..65000,
    ) {
        prop_assume!(vip != backend && client_ip != vip);
        let mut ct = CtTable::new();
        let key = ConnKey {
            zone: 1, src_ip: client_ip, dst_ip: vip,
            src_port: cport, dst_port: vport, proto: 17,
        };
        let nat = NatSpec::Dnat { ip: backend, port: Some(bport) };
        let v = ct.process(key, CtAction { zone: 1, commit: true, mark: None, nat: Some(nat) }, 0);
        prop_assert_eq!(v.nat, Some(NatRewrite::Dst { ip: backend, port: Some(bport) }));
        // Reply from the backend:
        let reply = ConnKey {
            zone: 1, src_ip: backend, dst_ip: client_ip,
            src_port: bport, dst_port: cport, proto: 17,
        };
        let v = ct.process(reply, CtAction::track(1), 1);
        prop_assert_eq!(
            v.nat,
            Some(NatRewrite::Src { ip: vip, port: Some(vport) }),
            "reply restores exactly the client's original destination"
        );
    }

    /// apply_rewrite keeps frames parseable with valid checksums for any
    /// rewrite target.
    #[test]
    fn apply_rewrite_preserves_validity(
        ip in any::<[u8; 4]>(),
        port in any::<u16>(),
        src in prop::bool::ANY,
    ) {
        let mut f = ovs_packet::builder::udp_ipv4(
            MacAddr::new(2, 0, 0, 0, 0, 1),
            MacAddr::new(2, 0, 0, 0, 0, 2),
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1111,
            2222,
            b"data",
        );
        let rw = if src {
            NatRewrite::Src { ip, port: Some(port) }
        } else {
            NatRewrite::Dst { ip, port: Some(port) }
        };
        prop_assert!(apply_rewrite(&mut f, &rw));
        let p = ovs_packet::ipv4::Ipv4Packet::new_checked(&f[14..]).unwrap();
        prop_assert!(p.verify_checksum());
        let u = ovs_packet::udp::UdpDatagram::new_checked(p.payload()).unwrap();
        prop_assert!(u.verify_checksum_ipv4(p.src(), p.dst()));
    }

    /// The full driver RX path — XDP program included — is total on
    /// arbitrary bytes: garbage frames never panic the kernel.
    #[test]
    fn rx_path_is_total_on_garbage(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            1..20
        ),
        queue in 0usize..4,
    ) {
        let mut k = Kernel::new(4);
        let eth0 = k.add_device(NetDevice::new(
            "eth0",
            MacAddr::new(2, 0, 0, 0, 0, 1),
            DeviceKind::Phys { link_gbps: 10.0 },
            4,
        ));
        k.add_addr(eth0, [10, 0, 0, 1], 24);
        // A parsing XDP program makes this a real robustness test.
        let l2 = k.maps.add(ovs_ebpf::maps::Map::Hash(ovs_ebpf::maps::HashMap::new(8, 8, 16)));
        k.attach_xdp(eth0, ovs_ebpf::programs::task_c_parse_lookup_drop(l2), XdpMode::Native, None)
            .unwrap();
        for f in frames {
            let _ = k.receive(eth0, queue, f);
        }
    }

    /// Conntrack expiry conserves the zone budget exactly.
    #[test]
    fn expiry_conserves_zone_budget(keys in proptest::collection::vec(arb_key(), 1..40)) {
        let mut ct = CtTable::new();
        ct.set_all_timeouts(100);
        for (i, k) in keys.iter().enumerate() {
            ct.process(*k, CtAction::commit(k.zone), i as u64);
        }
        let live = ct.len();
        let removed = ct.expire(1_000_000);
        prop_assert_eq!(removed, live);
        prop_assert!(ct.is_empty());
    }
}
