//! Tuple-space-search classifier scaling: lookup cost vs subtable count
//! and rule count — the structure behind the 1 vs 1,000 flow gap — plus
//! the NSX rule set's install cost and a staged `lookup_wc` of a new
//! connection, the insert and probe sides of the stage index.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ovs_core::classifier::{Classifier, Rule};
use ovs_core::ofproto::Ofproto;
use ovs_nsx::ruleset::{self, tables, NsxConfig, NsxPorts};
use ovs_packet::dp_packet::ct_state;
use ovs_packet::flow::{fields, FlowKey, FlowMask};
use ovs_packet::EtherType;
use std::hint::black_box;

fn key(ip: [u8; 4], port: u16) -> FlowKey {
    let mut k = FlowKey::default();
    k.set_nw_dst_v4(ip);
    k.set_tp_dst(port);
    k
}

/// Build a classifier with `subtables` distinct masks × `per_table` rules.
fn build(subtables: usize, per_table: usize) -> Classifier<u32> {
    let mut c = Classifier::new();
    for s in 0..subtables {
        // Distinct masks: different destination prefix lengths plus a
        // port bit for variety.
        let mut mask = FlowMask::EMPTY;
        mask.set_nw_dst_v4_prefix(8 + (s % 24) as u8);
        if s % 2 == 0 {
            mask.set_field(&fields::TP_DST);
        }
        for r in 0..per_table {
            c.insert(Rule {
                key: key(
                    [10, (s % 250) as u8, (r >> 8) as u8, r as u8],
                    (r % 1000) as u16,
                ),
                mask,
                priority: (s * 10) as i32,
                value: (s * per_table + r) as u32,
            });
        }
    }
    c
}

fn bench_subtable_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("classifier/subtable_scaling");
    for subtables in [1usize, 4, 16, 40] {
        let mut cls = build(subtables, 256);
        let probe = key([10, 0, 0, 1], 80);
        g.bench_with_input(
            BenchmarkId::from_parameter(subtables),
            &subtables,
            |b, _| b.iter(|| black_box(cls.lookup(black_box(&probe)).is_some())),
        );
    }
    g.finish();
}

fn bench_rule_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("classifier/rule_scaling");
    for rules in [100usize, 10_000, 100_000] {
        let mut cls = build(8, rules / 8);
        let probe = key([10, 3, 1, 7], 443);
        g.bench_with_input(BenchmarkId::from_parameter(rules), &rules, |b, _| {
            b.iter(|| black_box(cls.lookup(black_box(&probe)).is_some()))
        });
    }
    g.finish();
}

fn bench_insert(c: &mut Criterion) {
    c.bench_function("classifier/insert_100k_then_clear", |b| {
        b.iter(|| {
            let cls = build(40, 2_500);
            black_box(cls.len())
        })
    });
}

/// The default NSX rule set (103,302 rules over 40 tables) installed
/// into a fresh pipeline, as every host build does.
fn nsx_ofproto() -> Ofproto {
    let ports = NsxPorts {
        vifs: (2..32).collect(),
        tunnel: 1,
        uplink: 0,
    };
    let mut of = Ofproto::new();
    ruleset::install(&NsxConfig::default(), &ports, 1, 2, &mut of);
    of
}

fn bench_nsx_install(c: &mut Criterion) {
    c.bench_function("classifier/nsx_install_103k", |b| {
        b.iter(|| black_box(nsx_ofproto().rule_count()))
    });
}

/// One `lookup_wc` per new connection against the first egress DFW
/// section (the allow rule plus ~2,600 filler rules in 198.18/15): the
/// post-ct `ct_state=+new` lookup every new connection's upcall makes,
/// with a fresh source port each time.
fn bench_nsx_lookup_wc(c: &mut Criterion) {
    let section = *tables::EGRESS_SECTIONS.start();
    let mut cls = Classifier::new();
    for e in nsx_ofproto().iter_rules() {
        if e.rule.table == section {
            cls.insert(Rule {
                key: e.rule.key,
                mask: e.rule.mask,
                priority: e.rule.priority,
                value: e.rule.cookie,
            });
        }
    }
    let mut k = FlowKey::default();
    k.set_in_port(2);
    k.set_eth_type(EtherType::Ipv4);
    k.set_nw_src_v4([10, 101, 0, 2]);
    k.set_nw_dst_v4([10, 102, 0, 2]);
    k.set_nw_proto(17);
    k.set_tp_dst(4444);
    k.set_ct_state(ct_state::NEW | ct_state::TRACKED);
    let mut port = 0u16;
    c.bench_function("classifier/nsx_lookup_wc_new_conn", |b| {
        b.iter(|| {
            port = port.wrapping_add(1);
            k.set_tp_src(port);
            let mut wc = FlowMask::EMPTY;
            let hit = cls.lookup_wc(black_box(&k), &mut wc).map(|r| r.value);
            black_box((hit, wc))
        })
    });
}

/// Short measurement windows keep the full `cargo bench --workspace`
/// run to a few minutes; pass `--measurement-time` to override.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(1))
        .configure_from_args()
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_subtable_scaling, bench_rule_scaling, bench_insert, bench_nsx_install,
        bench_nsx_lookup_wc
}
criterion_main!(benches);
