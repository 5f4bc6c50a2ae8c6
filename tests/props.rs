//! Property-based tests over the core invariants, randomized with the
//! in-repo deterministic RNG (`ipd-testutil`) so the suite runs with
//! zero registry dependencies.

use std::cell::Cell;

use ipd::core::{CapabilitySet, LicenseAuthority};
use ipd::hdl::{Circuit, FlatNetlist};
use ipd::modgen::{ArrayMultiplier, KcmMultiplier, RippleAdder};
use ipd::netlist::{Dialect, NameTable, SExpr};
use ipd::pack::{compress, crc32, decompress};
use ipd::sim::Simulator;
use ipd_testutil::check_n;

/// The KCM computes `constant × input` for arbitrary constants, widths
/// and signs (full product width, so no truncation).
#[test]
fn kcm_multiplies_correctly() {
    check_n("kcm_multiplies", 48, |rng| {
        let signed = rng.bool();
        let constant = if signed {
            rng.range_i64(-6000, 5999)
        } else {
            rng.range_i64(0, 5999)
        };
        let width = rng.range_i64(2, 10) as u32;
        let probe = KcmMultiplier::new(constant, width, 1).signed(signed);
        let full = probe.full_product_width();
        let kcm = KcmMultiplier::new(constant, width, full).signed(signed);
        let circuit = Circuit::from_generator(&kcm).expect("build");
        let mut sim = Simulator::new(&circuit).expect("compile");
        let x_seed = rng.next_u64();
        let x = if signed {
            let span = 1i64 << width;
            ((x_seed % span as u64) as i64) - (span / 2)
        } else {
            (x_seed % (1u64 << width)) as i64
        };
        if signed {
            sim.set_i64("multiplicand", x).expect("set");
        } else {
            sim.set_u64("multiplicand", x as u64).expect("set");
        }
        let product = sim.peek("product").expect("peek");
        let got = if constant * x < 0 {
            product.to_i64().expect("driven")
        } else {
            product.to_u64().expect("driven") as i64
        };
        assert_eq!(got, constant * x);
    });
}

/// Pipelined and combinational KCMs agree modulo latency.
#[test]
fn kcm_pipelining_is_transparent() {
    check_n("kcm_pipelining", 48, |rng| {
        let constant = rng.range_i64(1, 1999);
        let width = rng.range_i64(2, 9) as u32;
        let full = KcmMultiplier::new(constant, width, 1).full_product_width();
        let comb = KcmMultiplier::new(constant, width, full);
        let pipe = KcmMultiplier::new(constant, width, full).pipelined(true);
        let c1 = Circuit::from_generator(&comb).expect("comb");
        let c2 = Circuit::from_generator(&pipe).expect("pipe");
        let mut s1 = Simulator::new(&c1).expect("compile");
        let mut s2 = Simulator::new(&c2).expect("compile");
        let x = rng.next_u64() % (1u64 << width);
        s1.set_u64("multiplicand", x).expect("set");
        s2.set_u64("multiplicand", x).expect("set");
        s2.cycle(u64::from(pipe.latency())).expect("cycle");
        assert_eq!(
            s1.peek("product").expect("p1"),
            s2.peek("product").expect("p2")
        );
    });
}

/// The ripple adder is a wrapping adder with carry out.
#[test]
fn adder_is_addition() {
    check_n("adder_is_addition", 48, |rng| {
        let width = rng.range_i64(1, 16) as u32;
        let circuit = Circuit::from_generator(&RippleAdder::new(width).with_cout()).expect("build");
        let mut sim = Simulator::new(&circuit).expect("compile");
        let mask = (1u64 << width) - 1;
        let (a, b) = (rng.next_u64() & mask, rng.next_u64() & mask);
        sim.set_u64("a", a).expect("set");
        sim.set_u64("b", b).expect("set");
        let s = sim.peek("s").expect("s").to_u64().expect("driven");
        let co = sim.peek("cout").expect("cout").to_u64().expect("driven");
        assert_eq!(s, (a + b) & mask);
        assert_eq!(co, (a + b) >> width);
    });
}

/// The array multiplier multiplies.
#[test]
fn array_multiplier_multiplies() {
    check_n("array_multiplier", 48, |rng| {
        let aw = rng.range_i64(1, 7) as u32;
        let bw = rng.range_i64(1, 7) as u32;
        let circuit = Circuit::from_generator(&ArrayMultiplier::new(aw, bw)).expect("build");
        let mut sim = Simulator::new(&circuit).expect("compile");
        let a = rng.next_u64() & ((1 << aw) - 1);
        let b = rng.next_u64() & ((1 << bw) - 1);
        sim.set_u64("a", a).expect("set");
        sim.set_u64("b", b).expect("set");
        assert_eq!(sim.peek("p").expect("p").to_u64(), Some(a * b));
    });
}

/// LZSS round-trips arbitrary bytes.
#[test]
fn lzss_round_trips() {
    check_n("lzss_round_trips", 48, |rng| {
        let len = rng.index(4096);
        let data = rng.bytes(len);
        let packed = compress(&data);
        assert_eq!(decompress(&packed).expect("decompress"), data);
    });
}

/// CRC-32 detects any single-bit corruption.
#[test]
fn crc_detects_bit_flips() {
    check_n("crc_detects_bit_flips", 48, |rng| {
        let len = 1 + rng.index(255);
        let data = rng.bytes(len);
        let reference = crc32(&data);
        let mut corrupted = data.clone();
        let idx = rng.index(corrupted.len());
        corrupted[idx] ^= 1 << (rng.below(8) as u8);
        assert_ne!(crc32(&corrupted), reference);
    });
}

/// Identifier legalization is injective per table, for every dialect.
#[test]
fn name_legalization_injective() {
    check_n("name_legalization", 48, |rng| {
        let mut names = std::collections::HashSet::new();
        for _ in 0..1 + rng.index(39) {
            let len = rng.index(25);
            let name: String = (0..len)
                .map(|_| (b' ' + (rng.below(95) as u8)) as char)
                .collect();
            names.insert(name);
        }
        for dialect in [Dialect::Edif, Dialect::Vhdl, Dialect::Verilog] {
            let mut table = NameTable::new(dialect);
            let mut legal = std::collections::HashSet::new();
            for name in &names {
                let l = table.legalize(name).to_owned();
                assert!(legal.insert(l.clone()), "collision on {l} ({dialect:?})");
            }
        }
    });
}

/// Licenses reject any tampering with the capability bits.
#[test]
fn license_tampering_detected() {
    check_n("license_tampering", 48, |rng| {
        let day = rng.below(1000) as u32;
        let cap_bits = rng.next_u64() as u16;
        let authority = LicenseAuthority::new(b"prop-key".to_vec());
        let caps = CapabilitySet::from_bits(cap_bits);
        let license = authority.issue("acme", "ip", caps, day, day + 30);
        assert!(authority.verify(&license, day).is_ok());
        // Any *other* capability set under the same signature must fail:
        // re-issue with different caps and splice signatures.
        let other_caps = if caps == CapabilitySet::licensed() {
            CapabilitySet::passive()
        } else {
            CapabilitySet::licensed()
        };
        let other = authority.issue("acme", "ip", other_caps, day, day + 30);
        assert_ne!(license.signature_hex(), other.signature_hex());
    });
}

/// Flattening preserves the primitive multiset and EDIF output
/// reparses, across random adder/multiplier shapes.
#[test]
fn flatten_and_edif_invariants() {
    check_n("flatten_and_edif", 48, |rng| {
        let width = rng.range_i64(1, 11) as u32;
        let circuit = Circuit::from_generator(&RippleAdder::new(width).with_cin().with_cout())
            .expect("build");
        let flat = FlatNetlist::build(&circuit).expect("flatten");
        assert_eq!(flat.leaves().len(), circuit.primitive_count());
        let edif = ipd::netlist::edif_string(&circuit).expect("edif");
        let tree = SExpr::parse(&edif).expect("reparse");
        // Instance count in the (single-level) work cell equals
        // primitive count.
        assert_eq!(tree.find_all("instance").len(), circuit.primitive_count());
    });
}

/// Obfuscation preserves simulation behaviour on random KCMs.
#[test]
fn obfuscation_preserves_function() {
    check_n("obfuscation_preserves", 48, |rng| {
        let constant = rng.range_i64(-300, 299);
        let probe = KcmMultiplier::new(constant, 6, 1).signed(true);
        let kcm = KcmMultiplier::new(constant, 6, probe.full_product_width()).signed(true);
        let clear = Circuit::from_generator(&kcm).expect("build");
        let hidden = ipd::core::obfuscate(&clear).expect("obfuscate");
        let mut s1 = Simulator::new(&clear).expect("compile clear");
        let mut s2 = Simulator::new(&hidden).expect("compile hidden");
        let x = rng.range_i64(-32, 31);
        s1.set_i64("multiplicand", x).expect("set");
        s2.set_i64("multiplicand", x).expect("set");
        assert_eq!(
            s1.peek("product").expect("clear"),
            s2.peek("product").expect("hidden")
        );
    });
}

/// The EDIF reader sits at the trust boundary (customers hand netlists
/// back): truncated, bit-flipped, byte-deleted or delimiter/digit-
/// substituted golden fixtures must read and flatten to `Ok` or a typed
/// error, never a panic.
#[test]
fn mutated_edif_never_panics() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("golden fixtures")
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    let fixtures: Vec<Vec<u8>> = paths
        .iter()
        .map(|p| std::fs::read(p).expect("fixture"))
        .collect();
    assert!(!fixtures.is_empty());
    let (parsed, refused) = (Cell::new(0), Cell::new(0));
    check_n("mutated_edif", 100 * fixtures.len() as u32, |rng| {
        let mut bytes = fixtures[rng.index(fixtures.len())].clone();
        for _ in 0..=rng.index(3) {
            let at = rng.index(bytes.len().max(1));
            match rng.index(4) {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] ^= 1 << rng.index(8),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                3 if at < bytes.len() => bytes[at] = b"()[]\"0123456789"[rng.index(15)],
                _ => {}
            }
        }
        match ipd::netlist::read_edif(&String::from_utf8_lossy(&bytes)) {
            Ok(circuit) => {
                let _ = FlatNetlist::build(&circuit);
                parsed.set(parsed.get() + 1);
            }
            Err(_) => refused.set(refused.get() + 1),
        }
    });
    // Both outcomes occur, so the mutations neither all miss nor all
    // destroy the syntax.
    let (parsed, refused) = (parsed.get(), refused.get());
    assert!(
        parsed > 0 && refused > 0,
        "parsed {parsed}, refused {refused}"
    );
}

/// Byte regions of a sealed container, `version (1) || nonce (8) ||
/// iv (32) || ciphertext`, as documented on `ipd::core::seal`.
const SEAL_REGIONS: [(&str, std::ops::Range<usize>); 3] =
    [("version", 0..1), ("nonce", 1..9), ("iv", 9..41)];

/// `unseal` faces bytes from the network: every truncation, every
/// single-bit flip in every region and the wrong key are refused with
/// a typed error, and random multi-byte mutations of a sealed netlist
/// never panic and never open.
#[test]
fn hostile_sealed_payloads_are_refused() {
    use ipd::core::{bundle_key, seal, unseal, CoreError};

    let authority = LicenseAuthority::new(b"vendor".to_vec());
    let acme = authority.issue("acme", "kcm", CapabilitySet::licensed(), 0, 10);
    let bolt = authority.issue("bolt", "kcm", CapabilitySet::licensed(), 0, 10);
    let key = bundle_key(b"vendor", &acme);
    let plain: Vec<u8> = (0..100u32).map(|i| (i * 7 + 1) as u8).collect();
    let sealed = seal(&plain, &key, 100);
    assert_eq!(unseal(&sealed, &key).expect("round trip"), plain);
    let ciphertext = SEAL_REGIONS[2].1.end..sealed.len();

    for len in 0..sealed.len() {
        assert!(unseal(&sealed[..len], &key).is_err(), "truncated to {len}");
    }
    let mut extended = sealed.clone();
    extended.push(0);
    assert!(unseal(&extended, &key).is_err(), "extended by one byte");

    let regions = SEAL_REGIONS
        .iter()
        .cloned()
        .chain([("ciphertext", ciphertext)]);
    for (region, range) in regions {
        for at in range {
            for bit in 0..8 {
                let mut bytes = sealed.clone();
                bytes[at] ^= 1 << bit;
                let err = unseal(&bytes, &key).expect_err(region);
                match (region, err) {
                    ("version", CoreError::SealVersion { .. })
                    | (_, CoreError::LicenseInvalid { .. }) => {}
                    (_, other) => panic!("{region} byte {at} bit {bit}: {other}"),
                }
            }
        }
    }

    let wrong = bundle_key(b"vendor", &bolt);
    assert!(matches!(
        unseal(&sealed, &wrong),
        Err(CoreError::LicenseInvalid { .. })
    ));

    let kcm = KcmMultiplier::new(-56, 8, 12).signed(true);
    let edif = ipd::netlist::NetlistFormat::Edif
        .generate(&Circuit::from_generator(&kcm).expect("build"))
        .expect("netlist");
    let sealed = seal(edif.as_bytes(), &key, 7);
    check_n("mutated_seal", 200, |rng| {
        let mut bytes = sealed.clone();
        for _ in 0..=rng.index(3) {
            let at = rng.index(bytes.len());
            match rng.index(4) {
                0 => bytes.truncate(at),
                1 if at < bytes.len() => bytes[at] ^= 1 << rng.index(8),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.insert(at, rng.next_u64() as u8),
            }
        }
        if bytes != sealed {
            assert!(unseal(&bytes, &key).is_err(), "mutated payload opened");
        }
    });
}
