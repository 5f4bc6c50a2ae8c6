//! Equivalence-gated delivery — the strongest of the delivery gates.
//!
//! The lint gate ([`crate::seal_design`]) proves a design is not
//! structurally broken; given timing constraints, the same entry point
//! proves it meets its clock. This module adds the functional gate: a
//! design is sealed only after the `ipd-verify` engine *proves* it
//! computes the same function as a golden reference netlist, and the
//! shipped artifact carries an [`EquivCertificate`] — a digest-bound
//! statement "proved equivalent to golden netlist digest X" that the
//! customer can re-check against the payload they actually received.
//!
//! A refuted check ships the distinguishing input/state vector
//! ([`CoreError::EquivRejected`]), already cross-checked against both
//! simulation engines, so the vendor can reproduce the divergence in
//! one simulator run. There is deliberately no waiver escape hatch
//! here: a certificate asserting equivalence over a known
//! counterexample would be a lie, not a delivery.

use ipd_hdl::{Circuit, FlatNetlist};
use ipd_lint::{LintConfig, Linter};
use ipd_verify::{check_equiv, Counterexample, EquivConfig, EquivVerdict};

use crate::error::CoreError;
use crate::seal::{gate_and_seal, SealedDesign};
use crate::sha::{sha256_parts, to_hex};

/// Domain separator binding certificate digests; versioned so a future
/// layout change cannot collide with v1 certificates.
const CERT_DOMAIN: &[u8] = b"ipd-equiv-cert-v1";

/// A digest-bound record that a sealed design was proved functionally
/// equivalent to a golden reference netlist.
///
/// The certificate commits to the EDIF bytes of both designs (SHA-256)
/// and to the scope of the proof (how many output and next-state
/// functions were discharged), all bound together under a
/// domain-separated [`sha256_parts`] digest. [`EquivCertificate::verify`]
/// re-derives the binding from netlist bytes in hand, so a customer who
/// unseals a payload can check it is byte-for-byte the netlist the
/// proof was about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivCertificate {
    design: String,
    golden: String,
    golden_digest: [u8; 32],
    revised_digest: [u8; 32],
    functions_checked: u64,
    binding: [u8; 32],
}

impl EquivCertificate {
    /// Binds a certificate over the two netlists' EDIF bytes.
    fn bind(
        design: &str,
        golden: &str,
        golden_edif: &[u8],
        revised_edif: &[u8],
        functions_checked: u64,
    ) -> Self {
        // Netlist digests identify bytes, not roles: the same netlist
        // hashes the same whether it appears as golden or revised (so
        // a self-check yields equal digests); the binding below fixes
        // which side is which. `sha256_parts` streams each part through
        // the hasher, so neither netlist is copied.
        let golden_digest = sha256_parts(&[CERT_DOMAIN, golden_edif]);
        let revised_digest = sha256_parts(&[CERT_DOMAIN, revised_edif]);
        let binding = sha256_parts(&[
            CERT_DOMAIN,
            design.as_bytes(),
            golden.as_bytes(),
            &golden_digest,
            &revised_digest,
            &functions_checked.to_le_bytes(),
        ]);
        EquivCertificate {
            design: design.to_owned(),
            golden: golden.to_owned(),
            golden_digest,
            revised_digest,
            functions_checked,
            binding,
        }
    }

    /// The certified (revised) design's name.
    #[must_use]
    pub fn design(&self) -> &str {
        &self.design
    }

    /// The golden reference design's name.
    #[must_use]
    pub fn golden(&self) -> &str {
        &self.golden
    }

    /// SHA-256 digest of the golden reference's EDIF netlist
    /// (domain-separated).
    #[must_use]
    pub fn golden_digest(&self) -> &[u8; 32] {
        &self.golden_digest
    }

    /// SHA-256 digest of the sealed (revised) EDIF netlist
    /// (domain-separated) — the bytes the customer unseals.
    #[must_use]
    pub fn revised_digest(&self) -> &[u8; 32] {
        &self.revised_digest
    }

    /// How many output and next-state functions the proof discharged.
    #[must_use]
    pub fn functions_checked(&self) -> u64 {
        self.functions_checked
    }

    /// The binding digest over the whole certificate.
    #[must_use]
    pub fn binding(&self) -> &[u8; 32] {
        &self.binding
    }

    /// The human-readable certificate statement.
    #[must_use]
    pub fn statement(&self) -> String {
        format!(
            "design '{}' proved equivalent to golden netlist digest {} \
             ({} functions checked; certificate {})",
            self.design,
            to_hex(&self.golden_digest),
            self.functions_checked,
            to_hex(&self.binding),
        )
    }

    /// Re-derives the certificate from netlist bytes in hand and checks
    /// it matches — `true` only when both EDIF payloads are
    /// byte-for-byte the ones the proof was about.
    #[must_use]
    pub fn verify(&self, golden_edif: &[u8], revised_edif: &[u8]) -> bool {
        let expected = EquivCertificate::bind(
            &self.design,
            &self.golden,
            golden_edif,
            revised_edif,
            self.functions_checked,
        );
        expected.binding == self.binding
    }
}

/// A sealed design whose delivery was gated on a formal equivalence
/// proof, carrying both the lint report and the [`EquivCertificate`].
#[derive(Debug, Clone)]
pub struct VerifiedDesign {
    sealed: SealedDesign,
    certificate: EquivCertificate,
}

impl VerifiedDesign {
    /// The sealed design (payload + lint report).
    #[must_use]
    pub fn sealed(&self) -> &SealedDesign {
        &self.sealed
    }

    /// The equivalence certificate bound to the sealed payload.
    #[must_use]
    pub fn certificate(&self) -> &EquivCertificate {
        &self.certificate
    }
}

/// Renders a counterexample's assignment for the refusal error.
fn render_vector(cex: &Counterexample) -> String {
    let inputs: Vec<String> = cex.inputs.iter().map(|(p, v)| format!("{p}={v}")).collect();
    let mut vector = format!(
        "(golden={}, revised={}) under inputs [{}]",
        u8::from(cex.golden_value),
        u8::from(cex.revised_value),
        inputs.join(", "),
    );
    if !cex.state.is_empty() {
        let state: Vec<String> = cex
            .state
            .iter()
            .map(|s| format!("{}={}", s.golden_path, s.value))
            .collect();
        vector.push_str(&format!(" state [{}]", state.join(", ")));
    }
    vector
}

/// Seals a design for delivery only after proving it formally
/// equivalent to `golden` — and, as with [`crate::seal_design`], only
/// after the lint gate clears it. On success the returned
/// [`VerifiedDesign`] pairs the sealed EDIF payload with an
/// [`EquivCertificate`] whose revised-side digest covers exactly the
/// bytes inside the seal.
///
/// # Errors
///
/// [`CoreError::EquivRejected`] when the checker finds a distinguishing
/// vector (shipped in the error, replay-confirmed when
/// `equiv.replay` is set); [`CoreError::Verify`] when the check cannot
/// be carried out (boundary mismatch, combinational loop, black box,
/// SAT budget); [`CoreError::LintRejected`] and flattening/netlisting
/// failures as for [`crate::seal_design`].
pub fn seal_design_verified(
    circuit: &Circuit,
    golden: &Circuit,
    config: &LintConfig,
    equiv: &EquivConfig,
    key: &[u8; 32],
    nonce: u64,
) -> Result<VerifiedDesign, CoreError> {
    let golden_flat = FlatNetlist::build(golden)?;
    let revised_flat = FlatNetlist::build(circuit)?;
    let report = check_equiv(&golden_flat, &revised_flat, equiv)?;
    if let EquivVerdict::NotEquivalent(cex) = &report.verdict {
        return Err(CoreError::EquivRejected {
            function: cex.function.clone(),
            golden: golden_flat.design_name().to_owned(),
            vector: render_vector(cex),
        });
    }
    // Lint gates the same flattened netlist the proof ran on, and the
    // certificate commits to exactly the EDIF text sealed.
    let linter = Linter::with_config(config.clone());
    let (sealed, revised_edif) = gate_and_seal(circuit, &revised_flat, &linter, key, nonce)?;
    let golden_edif = ipd_netlist::NetlistFormat::Edif.generate(golden)?;
    let certificate = EquivCertificate::bind(
        revised_flat.design_name(),
        golden_flat.design_name(),
        golden_edif.as_bytes(),
        revised_edif.as_bytes(),
        report.stats.outputs_checked as u64,
    );
    Ok(VerifiedDesign {
        sealed,
        certificate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seal::tests::key;
    use crate::seal::unseal;
    use ipd_hdl::PortSpec;
    use ipd_techlib::LogicCtx;

    /// `y = a & b` as a gate, a LUT2 resynthesis, or (faulty) `a | b`.
    fn unit(kind: &str) -> Circuit {
        let mut c = Circuit::new("unit");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        match kind {
            "and" => ctx.and2(a, b, y).unwrap(),
            "lut" => ctx.lut(0b1000, &[a.into(), b.into()], y).unwrap(),
            "or" => ctx.or2(a, b, y).unwrap(),
            other => panic!("unknown kind {other}"),
        };
        c
    }

    #[test]
    fn verified_seal_issues_a_binding_certificate() {
        let key = key();
        let golden = unit("and");
        let revised = unit("lut");
        let verified = seal_design_verified(
            &revised,
            &golden,
            &LintConfig::new(),
            &EquivConfig::default(),
            &key,
            1,
        )
        .expect("equivalent resynthesis seals");

        // The payload unseals to the EDIF the certificate commits to.
        let plain = unseal(verified.sealed().bytes(), &key).expect("unseal");
        let golden_edif = ipd_netlist::NetlistFormat::Edif.generate(&golden).unwrap();
        let cert = verified.certificate();
        assert!(cert.verify(golden_edif.as_bytes(), &plain));
        assert!(!cert.verify(golden_edif.as_bytes(), b"tampered payload"));
        assert!(!cert.verify(b"wrong golden", &plain));

        assert_eq!(cert.design(), "unit");
        assert_eq!(cert.golden(), "unit");
        assert_eq!(cert.functions_checked(), 1);
        let statement = cert.statement();
        assert!(
            statement.contains("proved equivalent to golden netlist digest"),
            "{statement}"
        );
        assert!(
            statement.contains(&to_hex(cert.golden_digest())),
            "{statement}"
        );
    }

    #[test]
    fn divergent_design_is_refused_with_the_vector() {
        let key = key();
        let err = seal_design_verified(
            &unit("or"),
            &unit("and"),
            &LintConfig::new(),
            &EquivConfig::default(),
            &key,
            2,
        )
        .unwrap_err();
        match err {
            CoreError::EquivRejected {
                function,
                golden,
                vector,
            } => {
                assert_eq!(function, "y[0]");
                assert_eq!(golden, "unit");
                assert!(vector.contains("under inputs"), "{vector}");
                assert!(vector.contains("a="), "{vector}");
            }
            other => panic!("expected EquivRejected, got {other}"),
        }
    }

    #[test]
    fn unprovable_design_is_refused_without_certificate() {
        let key = key();
        // Golden has two inputs; revision has one — boundary mismatch.
        let mut c = Circuit::new("unit");
        let mut ctx = c.root_ctx();
        let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
        let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
        ctx.buffer(a, y).unwrap();
        let err = seal_design_verified(
            &c,
            &unit("and"),
            &LintConfig::new(),
            &EquivConfig::default(),
            &key,
            3,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Verify(_)), "got {err}");
    }

    #[test]
    fn lint_gate_still_applies_after_the_proof() {
        // Equivalence alone is not enough: a proved-equivalent design
        // with an unwaived lint error is still refused.
        let key = key();
        let mut config = LintConfig::new();
        config.set_level("dead-logic", ipd_lint::LintLevel::Error);
        let mut golden = unit("and");
        let mut revised = unit("lut");
        for c in [&mut golden, &mut revised] {
            let mut ctx = c.root_ctx();
            let w = ctx.wire("dead", 1);
            let a = ctx.port("a").unwrap();
            ctx.inv(a, w).unwrap();
        }
        let err =
            seal_design_verified(&revised, &golden, &config, &EquivConfig::default(), &key, 4)
                .unwrap_err();
        assert!(matches!(err, CoreError::LintRejected { .. }), "got {err}");
    }

    #[test]
    fn zoo_generator_certifies_against_itself() {
        let key = key();
        let kcm = ipd_modgen::KcmMultiplier::new(-56, 8, 12).signed(true);
        let circuit = Circuit::from_generator(&kcm).unwrap();
        let verified = seal_design_verified(
            &circuit,
            &circuit,
            &LintConfig::new(),
            &EquivConfig::default(),
            &key,
            5,
        )
        .expect("self-equivalence certifies");
        let cert = verified.certificate();
        assert_eq!(cert.golden_digest(), cert.revised_digest());
        assert!(cert.functions_checked() > 0);
        assert!(verified.sealed().report().is_clean());
    }
}
