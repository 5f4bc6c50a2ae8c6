//! The `equiv-mismatch` rule: a linter with an [`EquivPass`] added
//! must pass faithful revisions, flag functional divergence as an
//! error with the distinguishing vector, and honor waivers like any
//! other rule.

use ipd_hdl::{Circuit, FlatNetlist, PortSpec};
use ipd_lint::{EquivPass, LintConfig, Linter};
use ipd_techlib::LogicCtx;

/// `y = a & b` as a gate or a LUT2 resynthesis (INIT=0b1000), or the
/// faulty revision `y = a | b`.
fn two_input(kind: &str) -> Circuit {
    let mut c = Circuit::new("unit");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let b = ctx.add_port(PortSpec::input("b", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    match kind {
        "and" => ctx.and2(a, b, y).unwrap(),
        "lut" => ctx.lut(0b1000, &[a.into(), b.into()], y).unwrap(),
        _ => ctx.or2(a, b, y).unwrap(),
    };
    c
}

/// The default passes plus an equivalence check against `y = a & b`.
fn equiv_linter(config: LintConfig) -> Linter {
    let golden = FlatNetlist::build(&two_input("and")).unwrap();
    let mut linter = Linter::with_config(config);
    linter.add_pass(Box::new(EquivPass::new(golden)));
    linter
}

#[test]
fn equivalent_revision_lints_clean() {
    let linter = equiv_linter(LintConfig::new());
    let report = linter.run(&two_input("lut")).unwrap();
    assert_eq!(
        report.by_rule("equiv-mismatch").count(),
        0,
        "resynthesized AND flagged: {report}"
    );
}

#[test]
fn divergent_revision_fails_with_vector() {
    let linter = equiv_linter(LintConfig::new());
    let report = linter.run(&two_input("or")).unwrap();
    assert!(!report.is_clean());
    let diag = report.by_rule("equiv-mismatch").next().expect("finding");
    assert!(
        diag.message.contains("under inputs"),
        "diagnostic must carry the distinguishing vector: {}",
        diag.message
    );
}

#[test]
fn equiv_mismatch_honors_waivers() {
    let mut config = LintConfig::new();
    config.waive("equiv-mismatch", "*", "intentional functional change");
    let linter = equiv_linter(config);
    let report = linter.run(&two_input("or")).unwrap();
    assert!(report.is_clean(), "waived mismatch still gates: {report}");
    assert_eq!(report.waived().len(), 1);
}

#[test]
fn boundary_mismatch_is_reported_not_panicked() {
    let mut c = Circuit::new("unit");
    let mut ctx = c.root_ctx();
    let a = ctx.add_port(PortSpec::input("a", 1)).unwrap();
    let y = ctx.add_port(PortSpec::output("y", 1)).unwrap();
    ctx.buffer(a, y).unwrap();
    let linter = equiv_linter(LintConfig::new());
    let report = linter.run(&c).unwrap();
    let diag = report.by_rule("equiv-mismatch").next().expect("finding");
    assert!(diag.message.contains("cannot prove equivalence"));
}
