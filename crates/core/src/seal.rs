//! Sealed bundle delivery — the paper's "class encryption" measure
//! (§4.3): bundles are encrypted to a per-customer key so that an
//! intercepted download (or a shared cache) yields nothing without the
//! license.
//!
//! The cipher is deterministic authenticated encryption in the SIV
//! (synthetic-IV) style, built from HMAC-SHA-256 alone and implemented
//! in-repo like the rest of the crypto substrate:
//!
//! - The bundle key is split into an encryption subkey and a MAC
//!   subkey, so no key both encrypts and authenticates.
//! - The synthetic IV is `HMAC(mac_key, version ‖ nonce ‖ plaintext)`.
//!   It is the authentication tag, and it seeds the keystream, so two
//!   payloads share a keystream only when they share their plaintext
//!   and nonce. Reusing a nonce (a day number, a bundle index) for
//!   different payloads under one key therefore leaks nothing about
//!   their plaintexts.
//! - Keystream block `i` is `HMAC(enc_key, iv[..16] ‖ i)` with `i` a
//!   64-bit little-endian counter, XORed over the payload.
//! - The container is `version (1) ‖ nonce (8) ‖ iv (32) ‖ ciphertext`.
//!   [`unseal`] refuses any version it does not know with
//!   [`CoreError::SealVersion`].
//!
//! Both subkeys are keyed once per call ([`HmacSha256`] keeps the ipad
//! and opad midstates), so each 32-byte block costs one compression for
//! its keystream's inner hash, one for the outer hash, and half a
//! compression for the IV pass over the plaintext.

use ipd_hdl::{Circuit, FlatNetlist};
use ipd_lint::{LintConfig, LintReport, Linter, OracleOptions, TimingConstraints};

use crate::error::CoreError;
use crate::license::License;
use crate::sha::{hmac_sha256, HmacSha256};

/// The container version [`seal`] writes and [`unseal`] accepts.
const SEAL_VERSION: u8 = 1;

/// Byte ranges of the container header.
pub(crate) const NONCE: std::ops::Range<usize> = 1..9;
pub(crate) const IV: std::ops::Range<usize> = 9..41;
/// `version ‖ nonce ‖ iv`: where the ciphertext starts.
pub(crate) const HEADER_LEN: usize = IV.end;

/// Derives the per-customer bundle key from the vendor key and a
/// license (customer + product bound).
#[must_use]
pub fn bundle_key(vendor_key: &[u8], license: &License) -> [u8; 32] {
    hmac_sha256(
        vendor_key,
        format!("bundle-key|{}|{}", license.customer(), license.product()).as_bytes(),
    )
}

/// Encrypts and authenticates a bundle payload.
///
/// Layout: `version (1) || nonce (8) || iv (32) || ciphertext`. The
/// output is a function of `(plain, key, nonce)` alone: sealing the
/// same payload twice yields the same bytes, and different payloads
/// get different IVs and keystreams even under a repeated nonce.
#[must_use]
pub fn seal(plain: &[u8], key: &[u8; 32], nonce: u64) -> Vec<u8> {
    let keys = SealKeys::derive(key);
    let iv = keys.synthetic_iv(nonce, plain);
    let mut out = Vec::with_capacity(HEADER_LEN + plain.len());
    out.push(SEAL_VERSION);
    out.extend_from_slice(&nonce.to_le_bytes());
    out.extend_from_slice(&iv);
    out.extend_from_slice(plain);
    keys.apply_keystream(&mut out[HEADER_LEN..], &iv);
    out
}

/// Verifies and decrypts a sealed payload.
///
/// # Errors
///
/// Returns [`CoreError::SealVersion`] when the container's version
/// byte is not one this build writes, and [`CoreError::LicenseInvalid`]
/// when the container is truncated or the synthetic IV does not match
/// the decrypted payload (wrong customer key or tampering).
pub fn unseal(sealed: &[u8], key: &[u8; 32]) -> Result<Vec<u8>, CoreError> {
    let invalid = |reason: &str| CoreError::LicenseInvalid {
        reason: reason.to_owned(),
    };
    match sealed.first() {
        Some(&SEAL_VERSION) => {}
        Some(&version) => return Err(CoreError::SealVersion { version }),
        None => return Err(invalid("sealed bundle too short")),
    }
    if sealed.len() < HEADER_LEN {
        return Err(invalid("sealed bundle too short"));
    }
    let nonce = u64::from_le_bytes(sealed[NONCE].try_into().expect("length checked"));
    let iv: [u8; 32] = sealed[IV].try_into().expect("length checked");
    let keys = SealKeys::derive(key);
    let mut plain = sealed[HEADER_LEN..].to_vec();
    keys.apply_keystream(&mut plain, &iv);
    let expected = keys.synthetic_iv(nonce, &plain);
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(&iv) {
        diff |= a ^ b;
    }
    if diff != 0 {
        return Err(invalid("sealed bundle authentication failed"));
    }
    Ok(plain)
}

/// The encryption and MAC subkeys of one bundle key, keyed once per
/// [`seal`] / [`unseal`] call.
struct SealKeys {
    enc: HmacSha256,
    mac: HmacSha256,
}

impl SealKeys {
    fn derive(key: &[u8; 32]) -> Self {
        let root = HmacSha256::new(key);
        SealKeys {
            enc: HmacSha256::new(&root.mac(b"ipd-seal|enc")),
            mac: HmacSha256::new(&root.mac(b"ipd-seal|mac")),
        }
    }

    /// `HMAC(mac_key, version ‖ nonce ‖ plaintext)`, streamed over the
    /// payload in place.
    fn synthetic_iv(&self, nonce: u64, plain: &[u8]) -> [u8; 32] {
        let mut mac = self.mac.clone();
        mac.update(&[SEAL_VERSION]);
        mac.update(&nonce.to_le_bytes());
        mac.update(plain);
        mac.finalize()
    }

    /// XORs the keystream seeded by `iv` over a buffer (symmetric for
    /// encrypt and decrypt). Each block's MAC input,
    /// `iv[..16] ‖ counter`, fits one inner SHA-256 block.
    fn apply_keystream(&self, data: &mut [u8], iv: &[u8; 32]) {
        let mut input = [0u8; 24];
        input[..16].copy_from_slice(&iv[..16]);
        for (counter, chunk) in (0u64..).zip(data.chunks_mut(32)) {
            input[16..].copy_from_slice(&counter.to_le_bytes());
            let block = self.enc.mac(&input);
            for (byte, k) in chunk.iter_mut().zip(block) {
                *byte ^= k;
            }
        }
    }
}

/// A design netlist sealed for delivery, carrying the lint report that
/// cleared it — the delivery-side artifact of the lint gate.
#[derive(Debug, Clone)]
pub struct SealedDesign {
    sealed: Vec<u8>,
    report: LintReport,
}

impl SealedDesign {
    /// The sealed EDIF payload (`version || nonce || iv || ciphertext`).
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.sealed
    }

    /// The lint report the design passed before sealing — shipped
    /// alongside the payload so the customer can audit what was
    /// checked and what was waived.
    #[must_use]
    pub fn report(&self) -> &LintReport {
        &self.report
    }
}

/// Lints a circuit and, only if no unwaived error-severity finding
/// remains, netlists it to EDIF and seals the bytes to the customer
/// key. A vendor must never ship a structurally broken design; waivers
/// in `config` are the explicit, auditable escape hatch.
///
/// When `constraints` are given, the STA engine runs as a lint pass
/// too ([`Linter::with_timing`]) and unwaived setup violations block
/// sealing exactly like structural errors. A design that misses timing
/// is as undeliverable as one with contention — unless the vendor
/// waives the violation explicitly (auditable in the shipped report)
/// or re-pipelines the generator until slack is met.
///
/// # Errors
///
/// [`CoreError::LintRejected`] when unwaived lint errors exist;
/// otherwise propagates flattening and netlisting failures.
pub fn seal_design(
    circuit: &Circuit,
    config: &LintConfig,
    constraints: Option<&TimingConstraints>,
    key: &[u8; 32],
    nonce: u64,
) -> Result<SealedDesign, CoreError> {
    let linter = match constraints {
        Some(t) => Linter::with_timing(config.clone(), t.clone()),
        None => Linter::with_config(config.clone()),
    };
    let flat = FlatNetlist::build(circuit)?;
    Ok(gate_and_seal(circuit, &flat, &linter, key, nonce)?.0)
}

/// [`seal_design`] with the semantic lint tier enabled: the linter
/// runs [`Linter::with_oracle`], so the shipped report records the
/// proof tier of every finding — structural claims are SAT-confirmed
/// or retracted, refutations carry simulator-replayed witnesses, and
/// the customer can audit *how strongly* each check was established,
/// not just that it ran. Unwaived errors block sealing exactly as in
/// the structural path.
///
/// # Errors
///
/// As for [`seal_design`].
pub fn seal_design_semantic(
    circuit: &Circuit,
    config: &LintConfig,
    opts: OracleOptions,
    key: &[u8; 32],
    nonce: u64,
) -> Result<SealedDesign, CoreError> {
    let flat = FlatNetlist::build(circuit)?;
    let linter = Linter::with_oracle(config.clone(), opts);
    Ok(gate_and_seal(circuit, &flat, &linter, key, nonce)?.0)
}

/// The one gate-then-seal step behind every sealed-design entry point:
/// runs `linter` over the already-flattened `flat`, refuses unwaived
/// errors, then netlists `circuit` to EDIF once and seals it. Returns
/// the sealed design and the EDIF text inside the seal, so a caller
/// can bind further evidence (an equivalence certificate) to exactly
/// the shipped bytes without netlisting again.
pub(crate) fn gate_and_seal(
    circuit: &Circuit,
    flat: &FlatNetlist,
    linter: &Linter,
    key: &[u8; 32],
    nonce: u64,
) -> Result<(SealedDesign, String), CoreError> {
    let report = linter.run_flat(flat);
    if report.error_count() > 0 {
        return Err(CoreError::LintRejected {
            errors: report.error_count(),
            summary: report.summary(),
        });
    }
    let edif = ipd_netlist::NetlistFormat::Edif.generate(circuit)?;
    let sealed = SealedDesign {
        sealed: seal(edif.as_bytes(), key, nonce),
        report,
    };
    Ok((sealed, edif))
}

/// Sealed-delivery unit tests, plus the design fixtures the other
/// delivery tests in this crate share.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::capability::CapabilitySet;
    use crate::license::LicenseAuthority;

    pub(crate) fn key() -> [u8; 32] {
        let authority = LicenseAuthority::new(b"vendor".to_vec());
        let license = authority.issue("acme", "kcm", CapabilitySet::passive(), 0, 10);
        bundle_key(b"vendor", &license)
    }

    #[test]
    fn seal_round_trips() {
        let key = key();
        for size in [0usize, 1, 31, 32, 33, 1000] {
            let plain: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            let sealed = seal(&plain, &key, 7);
            assert_eq!(unseal(&sealed, &key).expect("unseal"), plain, "size {size}");
        }
    }

    #[test]
    fn wrong_key_rejected() {
        let sealed = seal(b"secret bundle bytes", &key(), 1);
        let other = [9u8; 32];
        assert!(matches!(
            unseal(&sealed, &other),
            Err(CoreError::LicenseInvalid { .. })
        ));
    }

    #[test]
    fn tampering_rejected() {
        let key = key();
        let mut sealed = seal(b"secret bundle bytes", &key, 1);
        let mid = sealed.len() / 2;
        sealed[mid] ^= 1;
        assert!(unseal(&sealed, &key).is_err());
        assert!(unseal(&sealed[..10], &key).is_err());
    }

    #[test]
    fn ciphertext_differs_from_plaintext_and_by_nonce() {
        let key = key();
        let plain = b"the same plaintext".to_vec();
        let a = seal(&plain, &key, 1);
        let b = seal(&plain, &key, 2);
        assert_ne!(&a[HEADER_LEN..HEADER_LEN + plain.len()], plain.as_slice());
        assert_ne!(
            a[HEADER_LEN..],
            b[HEADER_LEN..],
            "nonce varies the keystream"
        );
    }

    #[test]
    fn container_is_versioned_and_deterministic() {
        let key = key();
        let plain = b"netlist bytes".to_vec();
        let sealed = seal(&plain, &key, 3);
        assert_eq!(sealed.len(), HEADER_LEN + plain.len());
        assert_eq!(sealed[0], SEAL_VERSION);
        assert_eq!(sealed[NONCE], 3u64.to_le_bytes());
        assert_eq!(
            seal(&plain, &key, 3),
            sealed,
            "SIV sealing is deterministic"
        );
        let mut future = sealed.clone();
        future[0] = SEAL_VERSION + 1;
        assert!(matches!(
            unseal(&future, &key),
            Err(CoreError::SealVersion { version }) if version == SEAL_VERSION + 1
        ));
    }

    #[test]
    fn subkeys_separate_encryption_from_authentication() {
        let key = key();
        let keys = SealKeys::derive(&key);
        let probe = [0u8; 24];
        assert_ne!(keys.enc.mac(&probe), keys.mac.mac(&probe));
        assert_ne!(keys.enc.mac(&probe), hmac_sha256(&key, &probe));
        assert_ne!(keys.mac.mac(&probe), hmac_sha256(&key, &probe));
    }

    #[test]
    fn midstate_keystream_matches_textbook_hmac() {
        use crate::sha::oracle;
        let keys = SealKeys::derive(&key());
        let enc_key = oracle::hmac_sha256(&key(), b"ipd-seal|enc");
        let iv: [u8; 32] = std::array::from_fn(|i| (i * 37 + 5) as u8);
        for len in [0usize, 1, 31, 32, 33, 55, 56, 63, 64, 65, 1000] {
            let mut stream = vec![0u8; len];
            keys.apply_keystream(&mut stream, &iv);
            let mut textbook = Vec::with_capacity(len + 32);
            for counter in 0u64.. {
                if textbook.len() >= len {
                    break;
                }
                let mut block = iv[..16].to_vec();
                block.extend_from_slice(&counter.to_le_bytes());
                textbook.extend_from_slice(&oracle::hmac_sha256(&enc_key, &block));
            }
            assert_eq!(stream, textbook[..len], "len {len}");
        }
    }

    /// A circuit with a contended net: `multiple-drivers` is an
    /// error-severity finding.
    pub(crate) fn broken_circuit() -> ipd_hdl::Circuit {
        use ipd_techlib::LogicCtx;
        let mut c = ipd_hdl::Circuit::new("broken");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(ipd_hdl::PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(ipd_hdl::PortSpec::output("y", 1)).unwrap();
        ctx.buffer(a, y).unwrap();
        ctx.buffer(a, y).unwrap();
        c
    }

    #[test]
    fn seal_design_refuses_unwaived_lint_errors() {
        let key = key();
        let err = seal_design(&broken_circuit(), &LintConfig::new(), None, &key, 1).unwrap_err();
        match err {
            CoreError::LintRejected { errors, summary } => {
                assert_eq!(errors, 1);
                assert!(summary.contains("error"), "{summary}");
            }
            other => panic!("expected LintRejected, got {other}"),
        }
    }

    #[test]
    fn seal_design_accepts_waived_errors_and_clean_designs() {
        let key = key();
        // Waiving the specific finding lets the same design through,
        // and the shipped report still records the waiver for audit.
        let mut config = LintConfig::new();
        config.waive(
            "multiple-drivers",
            "broken/y",
            "legacy contention, customer accepts",
        );
        let sealed = seal_design(&broken_circuit(), &config, None, &key, 2).expect("waived");
        assert_eq!(sealed.report().error_count(), 0);
        assert_eq!(sealed.report().waived().len(), 1);
        // The payload unseals to the EDIF netlist.
        let plain = unseal(sealed.bytes(), &key).expect("unseal");
        assert!(String::from_utf8(plain).unwrap().starts_with("(edif"));

        // A clean generator output needs no waivers at all.
        let kcm = ipd_modgen::KcmMultiplier::new(-56, 8, 12).signed(true);
        let circuit = ipd_hdl::Circuit::from_generator(&kcm).unwrap();
        let sealed = seal_design(&circuit, &LintConfig::new(), None, &key, 3).expect("clean");
        assert!(sealed.report().is_clean());
        assert!(sealed.report().diags().is_empty());
    }

    /// FF -> `depth` inverters -> FF on one clock: fails tight periods.
    pub(crate) fn chained_circuit(depth: usize) -> ipd_hdl::Circuit {
        use ipd_techlib::LogicCtx;
        let mut c = ipd_hdl::Circuit::new("chain");
        let mut ctx = c.root_ctx();
        let clk = ctx.add_port(ipd_hdl::PortSpec::input("clk", 1)).unwrap();
        let d = ctx.add_port(ipd_hdl::PortSpec::input("d", 1)).unwrap();
        let q = ctx.add_port(ipd_hdl::PortSpec::output("q", 1)).unwrap();
        let mut cur: ipd_hdl::Signal = ctx.wire("s0", 1).into();
        ctx.fd(clk, d, cur.clone()).unwrap();
        for i in 0..depth {
            let nxt = ctx.wire(&format!("s{}", i + 1), 1);
            ctx.inv(cur, nxt).unwrap();
            cur = nxt.into();
        }
        ctx.fd(clk, cur, q).unwrap();
        c
    }

    fn tight_constraints() -> TimingConstraints {
        let mut t = TimingConstraints::new();
        t.clock("clk", 6.0, "clk");
        t
    }

    #[test]
    fn seal_design_timed_gates_on_negative_slack() {
        let key = key();
        let slow = chained_circuit(24);
        // Unwaived setup violations block sealing...
        let err = seal_design(
            &slow,
            &LintConfig::new(),
            Some(&tight_constraints()),
            &key,
            4,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::LintRejected { errors, .. } if errors > 0));
        // ...an explicit waiver lets the same design through, audited...
        let mut config = LintConfig::new();
        config.waive(
            "setup-violation",
            "*",
            "evaluation build, timing not contractual",
        );
        let sealed =
            seal_design(&slow, &config, Some(&tight_constraints()), &key, 5).expect("waived");
        assert!(sealed
            .report()
            .waived()
            .iter()
            .any(|d| d.rule == "setup-violation"));
        // ...and a re-pipelined (shallower) design meets timing as-is.
        let fast = chained_circuit(2);
        let sealed = seal_design(
            &fast,
            &LintConfig::new(),
            Some(&tight_constraints()),
            &key,
            6,
        )
        .expect("meets timing");
        assert!(sealed.report().is_clean());
        // Without constraints the same entry point ignores slack.
        seal_design(&slow, &LintConfig::new(), None, &key, 7).expect("untimed");
    }

    #[test]
    fn seal_design_semantic_records_proof_tiers() {
        use ipd_techlib::LogicCtx;
        let key = key();
        // A LUT whose init ignores one input is semantically constant
        // only when the init is uniform; here it's a live AND of two
        // inputs plus a structurally-dead inverter, so the semantic
        // report carries a SAT-proved dead-logic warning.
        let mut c = ipd_hdl::Circuit::new("sem");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(ipd_hdl::PortSpec::input("a", 1)).unwrap();
        let b = ctx.add_port(ipd_hdl::PortSpec::input("b", 1)).unwrap();
        let y = ctx.add_port(ipd_hdl::PortSpec::output("y", 1)).unwrap();
        let dead = ctx.wire("dead", 1);
        ctx.and2(a, b, y).unwrap();
        ctx.inv(a, dead).unwrap();
        let sealed =
            seal_design_semantic(&c, &LintConfig::new(), OracleOptions::default(), &key, 8)
                .expect("warnings do not block sealing");
        let dead_diag = sealed
            .report()
            .by_rule("dead-logic")
            .next()
            .expect("dead inverter reported");
        assert_eq!(dead_diag.proof, ipd_lint::ProofTier::Proved);
        assert!(sealed.report().to_json().contains("\"proof\": \"proved\""));
        // The payload still unseals like any other sealed design.
        let plain = unseal(sealed.bytes(), &key).expect("unseal");
        assert!(String::from_utf8(plain).unwrap().starts_with("(edif"));
    }

    #[test]
    fn per_customer_keys_differ() {
        let authority = LicenseAuthority::new(b"vendor".to_vec());
        let a = authority.issue("acme", "kcm", CapabilitySet::passive(), 0, 10);
        let b = authority.issue("bolt", "kcm", CapabilitySet::passive(), 0, 10);
        assert_ne!(bundle_key(b"vendor", &a), bundle_key(b"vendor", &b));
    }
}
