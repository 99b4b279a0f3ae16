//! Property tests for the classifier and caches: the classifier must
//! agree with a brute-force linear scan on every lookup, the wildcards
//! of its staged `lookup_wc` must be sound and no wider than the masks
//! it probed, and cache install/lookup must be consistent.

use ovs_core::classifier::{Classifier, Rule};
use ovs_core::meter::Meter;
use ovs_packet::flow::{fields, Field, FlowKey, FlowMask, WORDS};
use ovs_packet::MacAddr;
use ovs_packet::MegaflowCache;
use proptest::prelude::*;

/// A generated rule: masks restricted to a few plausible shapes so that
/// rules actually overlap with probe keys.
fn arb_rule() -> impl Strategy<Value = Rule<u32>> {
    (
        0u8..4,           // mask shape
        any::<[u8; 4]>(), // dst ip
        any::<u16>(),     // port
        0i32..100,        // priority
        any::<u32>(),     // value
        0u8..33,          // prefix length
    )
        .prop_map(|(shape, ip, port, priority, value, plen)| {
            let mut key = FlowKey::default();
            let mut mask = FlowMask::EMPTY;
            match shape {
                0 => {
                    key.set_nw_dst_v4(ip);
                    mask.set_nw_dst_v4_prefix(plen);
                }
                1 => {
                    key.set_tp_dst(port);
                    mask.set_field(&ovs_packet::flow::fields::TP_DST);
                }
                2 => {
                    key.set_nw_dst_v4(ip);
                    key.set_tp_dst(port);
                    mask.set_nw_dst_v4_prefix(plen);
                    mask.set_field(&ovs_packet::flow::fields::TP_DST);
                }
                _ => { /* match-all */ }
            }
            Rule {
                key,
                mask,
                priority,
                value,
            }
        })
}

/// Eight fields, two per lookup stage (metadata: `in_port`, `metadata`;
/// L2: `eth_type`, `dl_dst`; L3: `nw_src`, `nw_proto`; L4: `tp_src`,
/// `tp_dst`), each set from a four-value domain so that rules and keys
/// often agree on some stages and differ on later ones.
fn staged_key(vals: [u8; 8]) -> FlowKey {
    let v = |i: usize| vals[i] % 4;
    let mut k = FlowKey::default();
    k.set_in_port(u32::from(v(0)));
    k.set_metadata(u64::from(v(1)) << 40);
    k.set_eth_type_raw([0x0800, 0x86dd, 0x0806, 0x8100][v(2) as usize]);
    k.set_dl_dst(MacAddr::new(2, 0, 0, 0, 0, v(3)));
    k.set_nw_src_v4([10, 0, 0, v(4)]);
    k.set_nw_proto([6, 17, 1, 132][v(5) as usize]);
    k.set_tp_src(1000 + u16::from(v(6)));
    k.set_tp_dst(80 + u16::from(v(7)));
    k
}

const STAGED_FIELDS: [Field; 8] = [
    fields::IN_PORT,
    fields::METADATA,
    fields::ETH_TYPE,
    fields::DL_DST,
    fields::NW_SRC,
    fields::NW_PROTO,
    fields::TP_SRC,
    fields::TP_DST,
];

/// A rule matching a random subset of the eight staged fields.
fn arb_staged_rule() -> impl Strategy<Value = Rule<u32>> {
    (
        any::<u8>(),
        proptest::array::uniform8(0u8..4),
        0i32..6,
        any::<u32>(),
    )
        .prop_map(|(which, vals, priority, value)| {
            let mut mask = FlowMask::EMPTY;
            for (i, f) in STAGED_FIELDS.iter().enumerate() {
                if which & (1 << i) != 0 {
                    mask.set_field(f);
                }
            }
            Rule {
                key: staged_key(vals).masked(&mask),
                mask,
                priority,
                value,
            }
        })
}

/// `key` on the bits of `wc`, `other` everywhere else.
fn blend(key: &FlowKey, other: &FlowKey, wc: &FlowMask) -> FlowKey {
    let mut w = [0u64; WORDS];
    for (i, o) in w.iter_mut().enumerate() {
        *o = (key.words()[i] & wc.words()[i]) | (other.words()[i] & !wc.words()[i]);
    }
    FlowKey::from_words(w)
}

/// Rules as the classifier keeps them: a later (masked key, mask,
/// priority) duplicate replaces the earlier one.
fn dedup(rules: &[Rule<u32>]) -> Vec<Rule<u32>> {
    let mut out: Vec<Rule<u32>> = Vec::new();
    for r in rules {
        let masked = r.key.masked(&r.mask);
        if let Some(existing) = out.iter_mut().find(|e| {
            e.mask == r.mask && e.priority == r.priority && e.key.masked(&e.mask) == masked
        }) {
            *existing = r.clone();
        } else {
            out.push(r.clone());
        }
    }
    out
}

fn arb_probe() -> impl Strategy<Value = FlowKey> {
    (any::<[u8; 4]>(), any::<u16>()).prop_map(|(ip, port)| {
        let mut k = FlowKey::default();
        // Cluster probes into a small space so rules sometimes match.
        k.set_nw_dst_v4([10, ip[1] % 4, ip[2] % 4, ip[3] % 8]);
        k.set_tp_dst(port % 16);
        k
    })
}

/// Brute force: the highest-priority rule whose masked key matches.
fn linear_scan<'a>(rules: &'a [Rule<u32>], key: &FlowKey) -> Option<&'a Rule<u32>> {
    rules
        .iter()
        .filter(|r| key.matches(&r.key, &r.mask))
        .max_by_key(|r| r.priority)
}

proptest! {
    #[test]
    fn classifier_agrees_with_linear_scan(
        rules in proptest::collection::vec(arb_rule(), 0..40),
        probes in proptest::collection::vec(arb_probe(), 1..20),
    ) {
        let mut cls = Classifier::new();
        // Deduplicate (key,mask,priority) collisions the same way the
        // classifier does (last insert wins) by inserting in order.
        for r in &rules {
            cls.insert(r.clone());
        }
        // Build the reference WITHOUT duplicate (masked-key, mask, prio)
        // entries: keep the last.
        let dedup = dedup(&rules);
        for p in &probes {
            let got = cls.lookup(p).map(|r| r.priority);
            let want = linear_scan(&dedup, p).map(|r| r.priority);
            // Priorities must agree (values may differ among equal-priority
            // matches, which is unspecified in OVS too).
            prop_assert_eq!(got, want);
        }
    }

    /// Staged `lookup_wc` over rules spanning all four stages with mixed
    /// priorities: every key that agrees with the probed key on the
    /// returned wildcards gets the same rule (or the same miss) from a
    /// linear scan, and the wildcards are a subset of the un-staged
    /// union of every probed subtable's whole mask.
    #[test]
    fn staged_lookup_wc_is_sound_and_no_wider_than_the_probed_masks(
        rules in proptest::collection::vec(arb_staged_rule(), 1..40),
        probes in proptest::collection::vec(proptest::array::uniform8(0u8..4), 1..24),
        others in proptest::collection::vec(proptest::array::uniform8(0u8..4), 8..9),
    ) {
        let mut cls = Classifier::new();
        // No re-ranking, so `subtable_info` is the probe order.
        cls.rank_interval = u64::MAX;
        for r in &rules {
            cls.insert(r.clone());
        }
        // A removal keeps the stage index in step too.
        cls.remove(&rules[0].key, &rules[0].mask);
        let rules = dedup(&rules[1..])
            .into_iter()
            .filter(|r| r.mask != rules[0].mask || r.key != rules[0].key)
            .collect::<Vec<_>>();
        let best = |k: &FlowKey| {
            rules
                .iter()
                .filter(|r| k.matches(&r.key, &r.mask))
                .map(|r| r.priority)
                .max()
        };
        for vals in &probes {
            let key = staged_key(*vals);
            // The un-staged reference: walk the probe order, uniting
            // each probed subtable's whole mask, until a match outranks
            // the rest.
            let mut union = FlowMask::EMPTY;
            let mut found: Option<i32> = None;
            for st in cls.subtable_info() {
                if found.is_some_and(|p| p >= st.max_priority) {
                    break;
                }
                union.unite(&st.mask);
                let here = rules
                    .iter()
                    .filter(|r| r.mask == st.mask && key.matches(&r.key, &r.mask))
                    .map(|r| r.priority)
                    .max();
                if here > found {
                    found = here;
                }
            }

            let mut wc = FlowMask::EMPTY;
            let got = cls.lookup_wc(&key, &mut wc).cloned();
            prop_assert_eq!(got.as_ref().map(|r| r.priority), best(&key));
            prop_assert_eq!(got.as_ref().map(|r| r.priority), found);
            prop_assert!(wc.subset_of(&union), "staged {wc:?} wider than {union:?}");
            for o in &others {
                let k2 = blend(&key, &staged_key(*o), &wc);
                match &got {
                    Some(r) => {
                        prop_assert!(k2.matches(&r.key, &r.mask), "{k2:?} escapes {r:?}");
                        prop_assert_eq!(Some(r.priority), best(&k2));
                    }
                    None => prop_assert_eq!(best(&k2), None),
                }
            }
        }
    }

    #[test]
    fn classifier_insert_remove_roundtrip(
        rules in proptest::collection::vec(arb_rule(), 1..20),
    ) {
        let mut cls = Classifier::new();
        for r in &rules {
            cls.insert(r.clone());
        }
        let total = cls.len();
        // Remove everything that was inserted; the classifier must empty.
        for r in &rules {
            cls.remove(&r.key, &r.mask);
        }
        prop_assert_eq!(cls.len(), 0, "started with {} rules", total);
        prop_assert_eq!(cls.subtable_count(), 0);
    }

    #[test]
    fn megaflow_lookup_finds_what_was_installed(
        ips in proptest::collection::vec(any::<[u8; 4]>(), 1..30),
    ) {
        let mut mf: MegaflowCache<usize> = MegaflowCache::new();
        let mut mask = FlowMask::EMPTY;
        mask.set_nw_dst_v4_prefix(32);
        for (i, ip) in ips.iter().enumerate() {
            let mut k = FlowKey::default();
            k.set_nw_dst_v4(*ip);
            mf.install(k, mask, i);
        }
        for ip in &ips {
            let mut k = FlowKey::default();
            k.set_nw_dst_v4(*ip);
            // Wildcarded fields must not affect the hit.
            k.set_tp_src(9999);
            prop_assert!(mf.lookup(&k).is_some());
        }
    }

    #[test]
    fn meter_never_exceeds_rate_plus_burst(
        rate_kbps in 1u64..10_000,
        burst_bits in 64u64..100_000,
        pkts in proptest::collection::vec((1u64..100, 64usize..1500), 1..200),
    ) {
        let mut m = Meter::new(rate_kbps * 1000, burst_bits);
        let mut now = 0u64;
        let mut passed_bits = 0u64;
        for (gap_us, len) in &pkts {
            now += gap_us * 1000;
            if m.offer(now, *len) {
                passed_bits += (*len as u64) * 8;
            }
        }
        // Conservation: passed bits <= rate * elapsed + burst.
        let budget = rate_kbps * 1000 * now / 1_000_000_000 + burst_bits + 1;
        prop_assert!(
            passed_bits <= budget,
            "passed {passed_bits} bits > budget {budget}"
        );
    }

    #[test]
    fn flow_mask_words_survive_masking(w in proptest::array::uniform12(any::<u64>())) {
        // Trivial but load-bearing: WORDS is the contract between the
        // classifier and the key layout.
        prop_assert_eq!(WORDS, 12);
        let k = FlowKey::from_words(w);
        prop_assert_eq!(k.masked(&FlowMask::EXACT), k);
        prop_assert_eq!(k.masked(&FlowMask::EMPTY), FlowKey::default());
    }
}
