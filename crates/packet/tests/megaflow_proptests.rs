//! Property test for the shared megaflow table: under random disjoint
//! installs, reinstalls, removes and flushes, the wide-lane bulk probe,
//! the scalar probe and a linear scan of the live flows always agree,
//! and no removed or replaced flow is ever returned.

use ovs_packet::flow::{fields, FlowKey, FlowMask, Miniflow};
use ovs_packet::{MegaflowCache, MegaflowEntry};
use proptest::prelude::*;
use std::rc::Rc;

/// A key over three fields (`in_port`, `nw_dst`, `tp_dst`), each 0..4;
/// `v[3]` is unused.
fn key(v: [u8; 4]) -> FlowKey {
    let mut k = FlowKey::default();
    k.set_in_port(u32::from(v[0] % 4));
    k.set_nw_dst_v4([10, 0, 0, v[1] % 4]);
    k.set_tp_dst(u16::from(v[2] % 4));
    k
}

/// One of the eight subsets of those fields.
fn mask(bits: u8) -> FlowMask {
    let all = [&fields::IN_PORT, &fields::NW_DST, &fields::TP_DST];
    let chosen: Vec<_> = (0..3)
        .filter(|i| bits & (1 << i) != 0)
        .map(|i| all[i])
        .collect();
    FlowMask::of_fields(&chosen)
}

/// Whether two flows match a common key.
fn overlap(a: &MegaflowEntry<u32>, k: &FlowKey, m: &FlowMask) -> bool {
    let common = a.mask.intersect(m);
    a.key.masked(&common) == k.masked(&common)
}

fn ids(found: &[Option<Rc<MegaflowEntry<u32>>>]) -> Vec<Option<u32>> {
    found
        .iter()
        .map(|e| e.as_ref().map(|e| e.actions))
        .collect()
}

proptest! {
    #[test]
    fn bulk_and_scalar_lookups_agree_with_a_linear_scan(
        ops in proptest::collection::vec((0u8..16, proptest::array::uniform4(0u8..4), 0u8..8, any::<u8>()), 1..60),
        probes in proptest::collection::vec(proptest::array::uniform4(0u8..4), 1..24),
        lane in 1usize..10,
    ) {
        let mut table: MegaflowCache<u32> = MegaflowCache::new();
        table.set_lane_width(lane);
        // The live flows, and every entry ever installed.
        let mut live: Vec<Rc<MegaflowEntry<u32>>> = Vec::new();
        let mut all: Vec<Rc<MegaflowEntry<u32>>> = Vec::new();
        let keys: Vec<FlowKey> = probes.iter().map(|&v| key(v)).collect();
        let minis: Vec<Miniflow> = keys.iter().map(Miniflow::from_key).collect();
        for (n, &(choice, vals, bits, idx)) in ops.iter().enumerate() {
            let id = n as u32;
            match choice {
                0..=8 => {
                    let (k, m) = (key(vals), mask(bits));
                    let masked = k.masked(&m);
                    // Installing replaces a flow with the same masked key
                    // under any mask; it must not overlap any other.
                    let others = || live.iter().filter(|e| e.key != masked);
                    if others().any(|e| overlap(e, &k, &m)) {
                        continue;
                    }
                    live.retain(|e| e.key != masked);
                    let e = table.install(k, m, id);
                    live.push(Rc::clone(&e));
                    all.push(e);
                }
                9..=11 if !live.is_empty() => {
                    let old = Rc::clone(&live[usize::from(idx) % live.len()]);
                    let e = table.install(old.key, old.mask, id);
                    live.retain(|x| !Rc::ptr_eq(x, &old));
                    live.push(Rc::clone(&e));
                    all.push(e);
                }
                12..=14 if !live.is_empty() => {
                    let old = live.remove(usize::from(idx) % live.len());
                    prop_assert!(table.remove(&old.key, &old.mask));
                    prop_assert!(!table.remove(&old.key, &old.mask));
                }
                15 => {
                    table.flush();
                    live.clear();
                }
                _ => {}
            }
            prop_assert_eq!(table.len(), live.len());
            for e in &all {
                let is_live = live.iter().any(|x| Rc::ptr_eq(x, e));
                prop_assert_eq!(e.dead.get(), !is_live, "dead flag of {:?}", e.key);
                prop_assert_eq!(table.contains(&e.key), live.iter().any(|x| x.key == e.key));
            }

            let bulk = table.lookup_bulk(&minis);
            let scalar: Vec<_> = minis.iter().map(|k| table.lookup_mini(k)).collect();
            let linear: Vec<Option<u32>> = keys
                .iter()
                .map(|k| {
                    live.iter()
                        .find(|e| k.matches(&e.key, &e.mask))
                        .map(|e| e.actions)
                })
                .collect();
            prop_assert_eq!(ids(&bulk), linear.clone());
            prop_assert_eq!(ids(&scalar), linear);
            for e in bulk.iter().chain(&scalar).flatten() {
                prop_assert!(!e.dead.get(), "dead flow {:?} returned", e.key);
            }
        }
    }
}
