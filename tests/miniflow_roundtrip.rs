//! The miniflow representation is a faithful sparse view of the full
//! `FlowKey`: extraction → expansion round-trips bit-for-bit over every
//! frame family the parser understands (IPv4 UDP/TCP/ICMP, ARP, IPv6,
//! VLAN-tagged and Geneve-encapsulated variants, with random packet
//! metadata), and the sparse mask algebra (`MiniMask`) agrees with the
//! full-width `FlowMask` algebra on masking, matching, and hashing —
//! which is exactly what makes the miniflow-native EMC/SMC/dpcls hit
//! path equivalent to the old full-key one.

use ovs_afxdp_repro::ovs::cache::{Emc, Smc};
use ovs_afxdp_repro::packet::dp_packet::TunnelMetadata;
use ovs_afxdp_repro::packet::flow::WORDS;
use ovs_afxdp_repro::packet::MegaflowEntry;
use ovs_afxdp_repro::packet::{
    builder, extract_flow_key, extract_miniflow, DpPacket, FlowMask, MacAddr, MiniMask, Miniflow,
};
use proptest::prelude::*;
use std::rc::Rc;

// ----------------------------------------------------------------------
// Random frame + metadata generation
// ----------------------------------------------------------------------

/// A hand-built UDP-in-IPv6 frame (the builders only cover IPv4).
fn udp_ipv6(src: [u8; 16], dst: [u8; 16], sport: u16, dport: u16) -> Vec<u8> {
    let mut buf = vec![0u8; 14 + 40 + 8 + 4];
    buf[0..6].copy_from_slice(&[2, 0, 0, 0, 0, 2]);
    buf[6..12].copy_from_slice(&[2, 0, 0, 0, 0, 1]);
    buf[12..14].copy_from_slice(&0x86ddu16.to_be_bytes());
    let ip = &mut buf[14..];
    ip[0] = 0x60;
    ip[4..6].copy_from_slice(&12u16.to_be_bytes());
    ip[6] = 17; // next header: UDP
    ip[7] = 64;
    ip[8..24].copy_from_slice(&src);
    ip[24..40].copy_from_slice(&dst);
    let udp = &mut buf[14 + 40..];
    udp[0..2].copy_from_slice(&sport.to_be_bytes());
    udp[2..4].copy_from_slice(&dport.to_be_bytes());
    udp[4..6].copy_from_slice(&12u16.to_be_bytes());
    buf
}

/// Deterministically expand a seed into one frame of the chosen family.
/// `kind` picks the L3/L4 shape, `wrap` optionally VLAN-tags or
/// Geneve-encapsulates it.
fn frame(kind: u8, wrap: u8, a: u8, b: u8, sport: u16) -> Vec<u8> {
    let src_mac = MacAddr::new(2, 0, 0, 0, a, 1);
    let dst_mac = MacAddr::new(2, 0, 0, 0, b, 2);
    let inner = match kind % 5 {
        0 => builder::udp_ipv4(
            src_mac,
            dst_mac,
            [10, a, b, 1],
            [10, b, a, 2],
            sport,
            53,
            &[0xab; 8],
        ),
        1 => builder::tcp_ipv4(
            src_mac,
            dst_mac,
            [192, 168, a, 1],
            [192, 168, b, 2],
            sport,
            443,
            7,
            9,
            0x18,
            &[0x5a; 4],
        ),
        2 => builder::arp_frame(
            src_mac,
            dst_mac,
            1,
            src_mac,
            [172, 16, a, 1],
            dst_mac,
            [172, 16, b, 2],
        ),
        3 => {
            let mut s6 = [0u8; 16];
            let mut d6 = [0u8; 16];
            s6[0] = 0xfd;
            s6[15] = a;
            d6[0] = 0xfd;
            d6[15] = b;
            udp_ipv6(s6, d6, sport, 4789)
        }
        _ => builder::icmp_echo(
            src_mac,
            dst_mac,
            [10, 0, a, 1],
            [10, 0, b, 2],
            false,
            u16::from(a),
            u16::from(b),
        ),
    };
    match wrap % 3 {
        1 => builder::push_vlan(&inner, 100 + u16::from(a % 8), a % 8),
        2 => builder::geneve_encap(
            src_mac,
            dst_mac,
            [172, 16, 0, 1],
            [172, 16, 0, 2],
            sport | 0xc000,
            u32::from(a) << 8 | u32::from(b),
            &inner,
        ),
        _ => inner,
    }
}

/// A packet with random datapath metadata attached — the words the
/// miniflow carries beyond what the frame bytes encode.
fn packet(bytes: &[u8], meta: u64) -> DpPacket {
    let mut pkt = DpPacket::from_data(bytes);
    pkt.in_port = (meta & 0xffff) as u32;
    pkt.recirc_id = ((meta >> 16) & 0xff) as u32;
    pkt.ct_state = ((meta >> 24) & 0x3f) as u8;
    pkt.ct_zone = ((meta >> 30) & 0xfff) as u16;
    pkt.ct_mark = ((meta >> 42) & 0xffff) as u32;
    if meta & (1 << 63) != 0 {
        pkt.tunnel = Some(TunnelMetadata {
            tun_id: (meta >> 32) & 0xff_ffff,
            src: [172, 16, 0, (meta >> 8) as u8],
            dst: [172, 16, 0, (meta >> 12) as u8],
            tos: 0,
            ttl: 64,
        });
    }
    pkt
}

/// Expand a `(wordmap, seed)` pair into a `FlowMask`: each selected word
/// gets a splitmix-derived mask word, so masks range from empty to
/// nearly exact with arbitrary bit patterns.
fn random_mask(wordmap: u16, seed: u64) -> FlowMask {
    let mut words = [0u64; WORDS];
    let mut s = seed;
    for (w, word) in words.iter_mut().enumerate() {
        s = s
            .wrapping_add(0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let m = s ^ (s >> 31);
        if wordmap & (1 << w) != 0 {
            *word = m;
        }
    }
    FlowMask::from_words(words)
}

// ----------------------------------------------------------------------
// Properties
// ----------------------------------------------------------------------

proptest! {
    /// FlowKey → Miniflow → FlowKey is the identity, extraction produces
    /// the same sparse key the full extractor's expansion implies, and
    /// the canonical invariant (bit set ⟺ word non-zero) holds — which
    /// is what makes derived `PartialEq`/`Hash` on `Miniflow` exact.
    #[test]
    fn extraction_round_trips(
        picks in proptest::collection::vec(
            (0u8..5, 0u8..3, 0u8..=255, 0u8..=255, 1024u16..60000, proptest::any::<u64>()),
            1..24,
        ),
    ) {
        for (kind, wrap, a, b, sport, meta) in picks {
            let bytes = frame(kind, wrap, a, b, sport);
            let mut pkt = packet(&bytes, meta);
            let mf = extract_miniflow(&mut pkt);
            let key = mf.expand();

            // The legacy full extractor agrees with expand().
            let mut pkt2 = packet(&bytes, meta);
            prop_assert_eq!(extract_flow_key(&mut pkt2), key, "extractors diverged");

            // Compression of the expansion is the original sparse key.
            prop_assert_eq!(Miniflow::from_key(&key), mf, "round trip broke");

            // Canonical form: a slot is present iff its word is non-zero.
            for w in 0..WORDS {
                prop_assert_eq!(
                    mf.map() & (1 << w) != 0,
                    key.words()[w] != 0,
                    "canonical invariant violated at word {}", w
                );
            }
            prop_assert_eq!(mf.n_slots(), mf.map().count_ones() as usize);

            // Sparse hashing is deterministic and representation-stable.
            prop_assert_eq!(mf.hash(), Miniflow::from_key(&key).hash());
            prop_assert_eq!(mf.rss_hash(), key.rss_hash(), "rss hash diverged");
        }
    }

    /// The sparse mask algebra agrees with the full-width one: MiniMask
    /// round-trips through FlowMask, `apply` is `FlowKey::masked`,
    /// `matches` is `FlowKey::matches`, and masked-equal flows hash
    /// equal — the properties the SMC and dpcls subtables stand on.
    #[test]
    fn mini_mask_matches_full_mask_semantics(
        cases in proptest::collection::vec(
            (
                (0u8..5, 0u8..3, 0u8..=255, 0u8..=255, 1024u16..60000, proptest::any::<u64>()),
                (0u8..5, 0u8..3, 0u8..=255, 0u8..=255, 1024u16..60000, proptest::any::<u64>()),
                proptest::any::<u16>(),
                proptest::any::<u64>(),
            ),
            1..16,
        ),
    ) {
        for ((k1, w1, a1, b1, s1, m1), (k2, w2, a2, b2, s2, m2), wordmap, seed) in cases {
            let mut p1 = packet(&frame(k1, w1, a1, b1, s1), m1);
            let mut p2 = packet(&frame(k2, w2, a2, b2, s2), m2);
            let mf1 = extract_miniflow(&mut p1);
            let mf2 = extract_miniflow(&mut p2);
            let (key1, key2) = (mf1.expand(), mf2.expand());

            let mask = random_mask(wordmap, seed);
            let mm = MiniMask::from_mask(&mask);
            prop_assert_eq!(mm.expand(), mask, "mask round trip broke");

            // Sparse masking ≡ full-width masking.
            prop_assert_eq!(mm.apply(&mf1).expand(), key1.masked(&mask));
            prop_assert_eq!(mm.apply(&mf2).expand(), key2.masked(&mask));

            // Sparse matching ≡ full-width matching against the
            // pre-masked rule key, both ways around.
            let rule = mm.apply(&mf1);
            prop_assert_eq!(
                mm.matches(&mf2, &rule),
                key2.matches(&key1.masked(&mask), &mask),
                "match semantics diverged"
            );

            // Masked-equal flows are indistinguishable to the sparse
            // hash (the dpcls bucket key).
            if mm.apply(&mf1) == mm.apply(&mf2) {
                prop_assert_eq!(mm.hash_flow(&mf1), mm.hash_flow(&mf2));
            }
        }
    }

    /// Miniflow-native EMC and SMC give the same verdicts full keys
    /// would: the EMC hits exactly on full-key equality, and every SMC
    /// hit is a genuine megaflow match under the entry's mask.
    #[test]
    fn cache_hits_match_full_key_semantics(
        cases in proptest::collection::vec(
            (
                (0u8..5, 0u8..3, 0u8..=255, 0u8..=255, 1024u16..60000, proptest::any::<u64>()),
                (0u8..5, 0u8..3, 0u8..=255, 0u8..=255, 1024u16..60000, proptest::any::<u64>()),
                proptest::any::<u16>(),
                proptest::any::<u64>(),
            ),
            1..12,
        ),
    ) {
        for ((k1, w1, a1, b1, s1, m1), (k2, w2, a2, b2, s2, m2), wordmap, seed) in cases {
            let mut p1 = packet(&frame(k1, w1, a1, b1, s1), m1);
            let mut p2 = packet(&frame(k2, w2, a2, b2, s2), m2);
            let mf1 = extract_miniflow(&mut p1);
            let mf2 = extract_miniflow(&mut p2);
            let (key1, key2) = (mf1.expand(), mf2.expand());

            let mask = random_mask(wordmap, seed);
            let entry = Rc::new(MegaflowEntry::new(
                key1.masked(&mask),
                mask,
                Vec::<u32>::new(),
                0,
            ));

            // EMC: exact-match semantics on the sparse key.
            let mut emc = Emc::new();
            emc.insert(mf1, mf1.hash(), Rc::clone(&entry));
            assert!(emc.lookup(&mf1, mf1.hash()).is_some(), "EMC self-hit");
            prop_assert_eq!(
                emc.lookup(&mf2, mf2.hash()).is_some(),
                key1 == key2,
                "EMC hit must be exactly full-key equality"
            );

            // SMC: the flow that installed the entry always hits, and
            // any hit implies a full-key megaflow match under the mask.
            let mut smc = Smc::new();
            smc.insert(mf1.hash(), Rc::clone(&entry));
            assert!(smc.lookup(&mf1, mf1.hash()).is_some(), "SMC self-hit");
            if smc.lookup(&mf2, mf2.hash()).is_some() {
                prop_assert!(
                    key2.matches(&key1.masked(&mask), &mask),
                    "SMC served an entry the full key does not match"
                );
            }
        }
    }
}
