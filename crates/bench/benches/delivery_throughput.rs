//! Delivery throughput — compress-once, serve-many (EXPERIMENTS X5).
//!
//! Four regimes, coldest to warmest:
//!
//! 1. cold sequential packing (compress every bundle on one thread),
//! 2. cold parallel packing (same work fanned across threads),
//! 3. warm serving from the content-addressed [`BundleStore`]
//!    (serialization is an `Arc` clone of cached segments),
//! 4. conditional revalidation (client holds every digest; the server
//!    answers with not-modified markers only).
//!
//! Prints an explicit cold-vs-warm speedup so the X5 acceptance bar
//! (warm ≥ 5× cold) is checkable from the bench output alone.
//!
//! A fifth row, `seal/seal_kcm_w16`, seals the kcm_w16 EDIF netlist
//! (~92 KB) to a customer key: the cipher stage of every sealed-design
//! delivery. Its MB/s figure is written as `seal_kcm_w16_mbps` to a
//! flat JSON summary (`IPD_BENCH_OUT`, default `BENCH_delivery.json`)
//! for `bench_gate` to compare against the committed baseline.

use std::io::Write as _;
use std::time::Instant;

use ipd_bench::full_width_kcm;
use ipd_bench::harness::{black_box, Harness, Throughput};
use ipd_core::AppletServer;
use ipd_hdl::Circuit;
use ipd_netlist::NetlistFormat;
use ipd_pack::{BundleSet, PackedSet};

fn main() {
    let set = BundleSet::full_set();
    let wire_bytes: u64 = set
        .bundles()
        .iter()
        .map(|b| b.archive().to_bytes().len() as u64)
        .sum();
    let threads = ipd_pack::default_threads().max(2);

    let mut server = AppletServer::new("byu", b"bench-key".to_vec());
    let license = server.enroll("acme", "kcm", ipd_core::CapabilitySet::licensed(), 0, 365);
    // Prime the store once so the warm benchmarks measure serving, not
    // the first compression.
    let warm = server.fetch("acme", 1, &[]).expect("prime");
    let held: Vec<_> = warm.items().iter().map(|i| *i.digest()).collect();

    let mut c = Harness::new();
    let mut group = c.benchmark_group("delivery");
    group.throughput(Throughput::Bytes(wire_bytes));
    group.bench_function("cold_pack_sequential", |b| {
        b.iter(|| black_box(PackedSet::with_threads(&set, 1).total_packed()))
    });
    group.bench_function(format!("cold_pack_parallel_{threads}t"), |b| {
        b.iter(|| black_box(PackedSet::with_threads(&set, threads).total_packed()))
    });
    group.bench_function("warm_store_fetch", |b| {
        b.iter(|| {
            let response = server.fetch("acme", 1, &[]).expect("warm fetch");
            black_box(response.bytes_transferred())
        })
    });
    group.bench_function("conditional_fetch_all_304", |b| {
        b.iter(|| {
            let response = server.fetch("acme", 1, &held).expect("revalidate");
            black_box(response.not_modified())
        })
    });
    group.finish();

    let kcm_w16 =
        Circuit::from_generator(&full_width_kcm(-12345, 16, true)).expect("kcm elaborates");
    let edif = NetlistFormat::Edif
        .generate(&kcm_w16)
        .expect("kcm netlists");
    let key = ipd_core::bundle_key(b"bench-key", &license);
    let mut group = c.benchmark_group("seal");
    group.throughput(Throughput::Bytes(edif.len() as u64));
    let seal_mean = group.bench_function("seal_kcm_w16", |b| {
        b.iter(|| black_box(ipd_core::seal(edif.as_bytes(), &key, 1).len()))
    });
    group.finish();
    let seal_mbps = edif.len() as f64 / 1e6 / seal_mean.as_secs_f64().max(1e-12);
    write_json("seal_kcm_w16_mbps", seal_mbps);

    // Direct cold-vs-warm comparison over identical served bytes.
    let reps = 10u32;
    let cold_start = Instant::now();
    for _ in 0..reps {
        black_box(PackedSet::with_threads(&set, 1).total_packed());
    }
    let cold = cold_start.elapsed() / reps;
    let warm_start = Instant::now();
    for _ in 0..reps {
        black_box(
            server
                .fetch("acme", 1, &[])
                .expect("warm")
                .bytes_transferred(),
        );
    }
    let warm = warm_start.elapsed() / reps;
    let speedup = cold.as_nanos() as f64 / warm.as_nanos().max(1) as f64;
    println!("\n=== X5: compress-once delivery ===");
    println!("bundle set wire size     : {wire_bytes} bytes");
    println!("cold pack (1 thread)     : {cold:?}/set");
    println!("warm store fetch         : {warm:?}/set");
    println!("warm-vs-cold speedup     : {speedup:.0}x (acceptance: >= 5x)");
    println!("{}", server.store().stats());
}

/// Writes the gated figure as the flat JSON `bench_gate` reads.
fn write_json(key: &str, value: f64) {
    let path = std::env::var("IPD_BENCH_OUT").unwrap_or_else(|_| "BENCH_delivery.json".to_owned());
    let mut file = std::fs::File::create(&path).expect("create bench JSON");
    writeln!(file, "{{\n  \"{key}\": {value:.2}\n}}").expect("write bench JSON");
    println!("wrote {path}");
}
