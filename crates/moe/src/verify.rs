//! Static verification of compiled routing programs.
//!
//! Every engine in the crate — the scalar kernel, the batched lane
//! kernel, the analytic cohort walk, the forward-mode duals — trusts
//! the same invariants of the compiled [`RoutingProgram`] and nothing
//! used to check them except runtime agreement tests. This module is
//! the static checker: it proves (or refutes) the invariant catalog
//! without routing a single unit, in three layers.
//!
//! **Structural verification** re-derives every redundant encoding and
//! demands bit-agreement: draw thresholds must equal
//! [`SimRng::threshold`]`(p_good)` exactly, sub-line regions must be
//! in-bounds, non-overlapping, backward-referenced and partition the op
//! vector, the `flat` flag must match the op set, every slot-table
//! entry must point at an op of its [`SlotKind`], costs must be finite
//! and non-negative, probabilities in range. Violations are
//! [`Severity::Error`]s: an engine fed such a program can silently
//! produce wrong numbers.
//!
//! **Abstract interpretation** over an interval domain walks each
//! region once with a two-bit defect abstraction (`may be clean` ×
//! `may be defective`) and computes [`StaticBounds`]: for *any*
//! sequence of draw outcomes, how many RNG draws a unit can consume
//! (`[min, max]` — the budget the lane kernel's run-batching relies
//! on), how much cost it can book, whether it can ship/scrap, how many
//! rework attempts and sub-unit builds it can trigger against the
//! `subassembly_retry_budget`. Property tests pin every analytic and
//! Monte Carlo report inside these intervals.
//!
//! **Lints** flag models that are structurally sound but almost
//! certainly wrong: tests that can detect nothing, regions no unit can
//! reach, sub-lines that can never ship, cost categories the flow
//! never books (an observation, not a failure).
//!
//! The cost upper bound treats every sub-line consumption as paying the
//! full retry budget; the analytic engine instead models the
//! *untruncated* retry geometric, so its expectation is inside the
//! bound whenever each sub-line's expected attempt count stays within
//! the budget (guaranteed for any remotely production-worthy yield).

use crate::compile::{Op, PatchSlot, RoutingProgram, SlotKind, NCAT, TEST_CAT};
use crate::diagnostics::{Diagnostic, Diagnostics, Severity};
use crate::CostCategory;
use ipass_sim::SimRng;
use std::collections::HashMap;

/// A closed interval of `f64` values (`lo ≤ hi`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    const ZERO: Interval = Interval { lo: 0.0, hi: 0.0 };

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// A closed interval of counts (`lo ≤ hi`), saturating at `u64::MAX`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountInterval {
    /// Lower bound.
    pub lo: u64,
    /// Upper bound.
    pub hi: u64,
}

impl CountInterval {
    const ZERO: CountInterval = CountInterval { lo: 0, hi: 0 };

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// Statically verified per-started-unit bounds of a compiled program,
/// valid for **every** draw outcome — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticBounds {
    /// RNG draws one unit can consume end to end (including all
    /// sub-line attempts). The lane kernel's per-unit draw budget.
    pub draws_per_unit: CountInterval,
    /// Total cost one started unit can book across all channels
    /// (embodied on ship, sunk on scrap, failed sub-line attempts),
    /// excluding NRE. Outward-widened by a relative 1e-9 so expected
    /// values computed in a different summation order stay inside.
    pub cost_per_unit: Interval,
    /// The shipped fraction's support bounds: `lo = 1` when no unit can
    /// scrap, `hi = 0` when no unit can ship.
    pub shipped_fraction: Interval,
    /// Rework-loop attempts one unit can trigger.
    pub rework_per_unit: CountInterval,
    /// Sub-line build attempts one unit can trigger (each consumption
    /// retries up to the `subassembly_retry_budget`).
    pub sub_builds_per_unit: CountInterval,
}

impl StaticBounds {
    /// Check a probed run's measured counters against these static
    /// intervals — the dynamic-vs-static cross-check behind
    /// `ipass stats` and the CI smoke gate.
    ///
    /// `stats` is the run's deterministic snapshot
    /// ([`SimSummary::stats`]); `cost_per_started` and
    /// `shipped_fraction` come off its report (total spend excluding
    /// NRE divided by started units, and shipped over started). Returns
    /// one human-readable message per violated bound — empty means every
    /// measured counter landed inside the proven intervals.
    ///
    /// [`SimSummary::stats`]: crate::SimSummary
    pub fn violations(
        &self,
        stats: &ipass_obs::RunStats,
        cost_per_started: f64,
        shipped_fraction: f64,
    ) -> Vec<String> {
        let mut out = Vec::new();
        if stats.units == 0 {
            out.push("no units recorded in the run snapshot".to_owned());
            return out;
        }
        if !self.draws_per_unit.contains(stats.draws_min) {
            out.push(format!(
                "min draws per unit {} outside [{}, {}]",
                stats.draws_min, self.draws_per_unit.lo, self.draws_per_unit.hi
            ));
        }
        if !self.draws_per_unit.contains(stats.draws_max) {
            out.push(format!(
                "max draws per unit {} outside [{}, {}]",
                stats.draws_max, self.draws_per_unit.lo, self.draws_per_unit.hi
            ));
        }
        if !self.cost_per_unit.contains(cost_per_started) {
            out.push(format!(
                "cost per started unit {cost_per_started} outside [{}, {}]",
                self.cost_per_unit.lo, self.cost_per_unit.hi
            ));
        }
        if !self.shipped_fraction.contains(shipped_fraction) {
            out.push(format!(
                "shipped fraction {shipped_fraction} outside [{}, {}]",
                self.shipped_fraction.lo, self.shipped_fraction.hi
            ));
        }
        if stats.rework_attempts > self.rework_per_unit.hi.saturating_mul(stats.units) {
            out.push(format!(
                "{} rework attempts exceed {} per unit × {} units",
                stats.rework_attempts, self.rework_per_unit.hi, stats.units
            ));
        }
        if stats.sub_units_built < self.sub_builds_per_unit.lo.saturating_mul(stats.units)
            || stats.sub_units_built > self.sub_builds_per_unit.hi.saturating_mul(stats.units)
        {
            out.push(format!(
                "{} sub-units built outside [{}, {}] per unit × {} units",
                stats.sub_units_built,
                self.sub_builds_per_unit.lo,
                self.sub_builds_per_unit.hi,
                stats.units
            ));
        }
        out
    }
}

/// What kind of program `verify_program` is looking at: a compiled
/// program bound by the Monte Carlo draw contract, or a patched op
/// vector (analytic-only, where degenerate step probabilities are legal
/// as long as they keep the `set_yield` threshold convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VerifyMode {
    Compiled,
    Patched,
}

/// Relative tolerance for the `p^q` round-trip check of a multi-part
/// yield slot: recompute `p_unit = p_good^(1/q)` and demand
/// `p_unit^q` lands back on `p_good` within `8·(q+1)` ULP — a bound
/// that holds for any faithfully-rounded `powf` (each call adds ≤ 2 ULP
/// relative error, amplified by at most `q` through the exponent).
fn pq_tolerance(q: f64) -> f64 {
    8.0 * (q + 1.0) * f64::EPSILON
}

/// Run the full pass — structural verification, interval-based lints,
/// op lints — over `ops` (the program's own vector, or a patched copy).
pub(crate) fn verify_program(
    program: &RoutingProgram,
    ops: &[Op],
    mode: VerifyMode,
    retry_budget: u32,
) -> Diagnostics {
    let mut diags = Diagnostics::new(program.line_name());
    check_ops(program, ops, mode, &mut diags);
    let regions_ok = check_regions(program, ops, &mut diags);
    check_flat_flag(program, ops, &mut diags);
    check_slots(program, ops, &mut diags);
    if regions_ok {
        lint_reachability(program, ops, retry_budget, &mut diags);
    }
    lint_categories(ops, &mut diags);
    diags
}

/// The number of structural errors only (the gate for
/// [`crate::CompiledFlow::static_bounds`], which needs sound regions
/// before the interval walk may recurse).
pub(crate) fn structural_errors(
    program: &RoutingProgram,
    ops: &[Op],
    mode: VerifyMode,
) -> Diagnostics {
    let mut diags = Diagnostics::new(program.line_name());
    check_ops(program, ops, mode, &mut diags);
    check_regions(program, ops, &mut diags);
    check_flat_flag(program, ops, &mut diags);
    check_slots(program, ops, &mut diags);
    diags
}

/// The display path for op `i`: its first registered slot name, the
/// sub-line name for consume ops, or the bare op position.
fn op_path(program: &RoutingProgram, ops: &[Op], i: usize) -> String {
    if let Some(slot) = program.slots.iter().find(|s| s.op as usize == i) {
        return slot.name.clone();
    }
    if let Some(Op::SubLine { name, .. }) = ops.get(i) {
        if let Some(line) = program.line_names().get(*name as usize) {
            return line.clone();
        }
    }
    format!("op {i}")
}

fn error(diags: &mut Diagnostics, code: &'static str, path: String, message: String) {
    diags.push(Diagnostic::new(Severity::Error, code, path, message));
}

fn warning(diags: &mut Diagnostics, code: &'static str, path: String, message: String) {
    diags.push(Diagnostic::new(Severity::Warning, code, path, message));
}

fn info(diags: &mut Diagnostics, code: &'static str, path: String, message: String) {
    diags.push(Diagnostic::new(Severity::Info, code, path, message));
}

/// The diagnostic code and rule of a booked amount that breaks the cost
/// invariant, or `None` for a finite, non-negative amount. The one
/// predicate behind the verifier's cost errors and the patch setters'
/// refusal, so that a patch can never write a cost the verifier rejects.
pub(crate) fn cost_defect(value: f64) -> Option<(&'static str, &'static str)> {
    if !value.is_finite() {
        Some(("nonfinite-cost", "every booked amount must be finite"))
    } else if value < 0.0 {
        Some(("negative-cost", "costs must be non-negative"))
    } else {
        None
    }
}

/// Per-op field checks: finite non-negative costs, in-range
/// probabilities, bit-recomputable thresholds, in-bounds label and
/// line-name indices, non-zero consume quantities.
fn check_ops(program: &RoutingProgram, ops: &[Op], mode: VerifyMode, diags: &mut Diagnostics) {
    let n_labels = program.names().len();
    let n_lines = program.line_names().len();
    let check_cost = |diags: &mut Diagnostics, i: usize, what: &str, value: f64| {
        if let Some((code, rule)) = cost_defect(value) {
            error(
                diags,
                code,
                op_path(program, ops, i),
                format!("{what} is {value}; {rule}"),
            );
        }
    };
    let check_prob = |diags: &mut Diagnostics, i: usize, what: &str, value: f64| {
        if !(value.is_finite() && (0.0..=1.0).contains(&value)) {
            error(
                diags,
                if what == "success" {
                    "success-out-of-range"
                } else {
                    "coverage-out-of-range"
                },
                op_path(program, ops, i),
                format!("{what} is {value}, outside [0, 1]"),
            );
        }
    };
    let check_label = |diags: &mut Diagnostics, i: usize, label: u32| {
        if label as usize >= n_labels {
            error(
                diags,
                "label-out-of-bounds",
                op_path(program, ops, i),
                format!("defect label {label} out of bounds (the program has {n_labels} labels)"),
            );
        }
    };
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Cost { cost, .. } => check_cost(diags, i, "cost", cost),
            Op::Condemn { cost, label, .. } => {
                check_cost(diags, i, "cost", cost);
                check_label(diags, i, label);
            }
            Op::Step {
                cost,
                threshold,
                p_good,
                label,
                ..
            } => {
                check_cost(diags, i, "cost", cost);
                check_label(diags, i, label);
                check_step_probability(program, ops, i, threshold, p_good, mode, diags);
            }
            Op::SubLine { qty, .. } => {
                if qty == 0 {
                    error(
                        diags,
                        "zero-quantity-subline",
                        op_path(program, ops, i),
                        "sub-line consumed with quantity zero".to_owned(),
                    );
                }
                if let Op::SubLine { name, .. } = *op {
                    if name as usize >= n_lines {
                        error(
                            diags,
                            "line-name-out-of-bounds",
                            format!("op {i}"),
                            format!(
                                "sub-line name index {name} out of bounds \
                                 (the program has {n_lines} nested lines)"
                            ),
                        );
                    }
                }
            }
            Op::TestScrap { cost, coverage } => {
                check_cost(diags, i, "cost", cost);
                check_prob(diags, i, "coverage", coverage);
                if coverage <= 0.0 {
                    warning(
                        diags,
                        "zero-coverage-test",
                        op_path(program, ops, i),
                        "test has zero fault coverage: it books cost but can detect nothing"
                            .to_owned(),
                    );
                }
            }
            Op::TestRework {
                cost,
                coverage,
                rework_cost,
                success,
                max_attempts,
            } => {
                check_cost(diags, i, "cost", cost);
                check_cost(diags, i, "rework cost", rework_cost);
                check_prob(diags, i, "coverage", coverage);
                check_prob(diags, i, "success", success);
                if coverage <= 0.0 {
                    warning(
                        diags,
                        "zero-coverage-test",
                        op_path(program, ops, i),
                        "test has zero fault coverage: it books cost but can detect nothing"
                            .to_owned(),
                    );
                }
                if max_attempts == 0 {
                    warning(
                        diags,
                        "zero-attempt-rework",
                        op_path(program, ops, i),
                        "rework loop allows zero attempts: caught units scrap immediately"
                            .to_owned(),
                    );
                }
            }
        }
    }
}

/// A [`Op::Step`]'s probability/threshold pair. Compiled programs carry
/// `p_good` strictly inside `(0, 1)` (degenerate yields specialize into
/// draw-free ops) with the threshold bit-recomputable; patched op
/// vectors may carry degenerate probabilities under the `set_yield`
/// convention (`u64::MAX` / `0`), which the analytic walker handles and
/// the Monte Carlo kernel never sees.
fn check_step_probability(
    program: &RoutingProgram,
    ops: &[Op],
    i: usize,
    threshold: u64,
    p_good: f64,
    mode: VerifyMode,
    diags: &mut Diagnostics,
) {
    if !p_good.is_finite() {
        error(
            diags,
            "degenerate-step",
            op_path(program, ops, i),
            format!("step probability is {p_good}"),
        );
        return;
    }
    if p_good > 0.0 && p_good < 1.0 {
        let expect = SimRng::threshold(p_good);
        if threshold != expect {
            error(
                diags,
                "threshold-mismatch",
                op_path(program, ops, i),
                format!(
                    "stored draw threshold {threshold} but ⌈p·2⁵³⌉ = {expect} \
                     for p = {p_good}; the kernel would draw against the wrong bound"
                ),
            );
        }
        return;
    }
    match mode {
        VerifyMode::Compiled => error(
            diags,
            "degenerate-step",
            op_path(program, ops, i),
            format!(
                "step probability {p_good} survived to Op::Step; compilation must \
                 specialize degenerate yields into draw-free ops"
            ),
        ),
        VerifyMode::Patched => {
            let expect = if p_good >= 1.0 { u64::MAX } else { 0 };
            if threshold != expect {
                error(
                    diags,
                    "threshold-mismatch",
                    op_path(program, ops, i),
                    format!(
                        "patched degenerate probability {p_good} must carry \
                         threshold {expect}, found {threshold}"
                    ),
                );
            }
            info(
                diags,
                "degenerate-patched-step",
                op_path(program, ops, i),
                format!(
                    "step patched to degenerate probability {p_good}; \
                     valid analytically, never hand this to the Monte Carlo kernel"
                ),
            );
        }
    }
}

/// Region layout: every region in bounds, the top region last, sub-line
/// regions strictly before the op that consumes them (which also rules
/// out recursion), all regions pairwise disjoint, and together
/// partitioning the op vector (gaps are unreachable ops).
///
/// Returns whether the layout is sound enough for the interval walk to
/// recurse through.
fn check_regions(program: &RoutingProgram, ops: &[Op], diags: &mut Diagnostics) -> bool {
    let n = ops.len() as u64;
    let mut sound = true;
    let (top_entry, top_len) = program.top_region();
    let mut regions: Vec<(u64, u64, String)> = Vec::new();
    if top_entry as u64 + top_len as u64 > n {
        error(
            diags,
            "region-out-of-bounds",
            "program".to_owned(),
            format!("top region {top_entry}+{top_len} exceeds the op vector ({n} ops)"),
        );
        sound = false;
    } else {
        if top_entry as u64 + top_len as u64 != n {
            error(
                diags,
                "top-region-not-last",
                "program".to_owned(),
                format!(
                    "top region {top_entry}+{top_len} must end the op vector ({n} ops); \
                     post-order compilation places every sub region first"
                ),
            );
            sound = false;
        }
        regions.push((top_entry as u64, top_len as u64, "top line".to_owned()));
    }
    for (i, op) in ops.iter().enumerate() {
        let Op::SubLine { entry, len, .. } = *op else {
            continue;
        };
        let path = op_path(program, ops, i);
        if entry as u64 + len as u64 > n {
            error(
                diags,
                "region-out-of-bounds",
                path,
                format!("sub region {entry}+{len} exceeds the op vector ({n} ops)"),
            );
            sound = false;
            continue;
        }
        if entry as u64 + len as u64 > i as u64 {
            error(
                diags,
                "region-forward-reference",
                path.clone(),
                format!(
                    "sub region {entry}+{len} does not strictly precede the op \
                     consuming it (op {i}); forward references allow recursion"
                ),
            );
            sound = false;
            continue;
        }
        regions.push((entry as u64, len as u64, path));
    }
    // Pairwise disjoint + partition: sort non-empty regions by entry,
    // then demand they tile [0, n) exactly.
    let mut occupied: Vec<&(u64, u64, String)> = regions.iter().filter(|r| r.1 > 0).collect();
    occupied.sort_by_key(|r| r.0);
    let mut cursor = 0u64;
    for (entry, len, path) in occupied {
        if *entry < cursor {
            error(
                diags,
                "region-overlap",
                path.clone(),
                format!(
                    "region {entry}+{len} overlaps the previous region ending at {cursor}; \
                     regions must be disjoint"
                ),
            );
            sound = false;
            break;
        }
        if *entry > cursor {
            warning(
                diags,
                "unreachable-ops",
                "program".to_owned(),
                format!("ops {cursor}..{entry} belong to no region; no unit can execute them"),
            );
        }
        cursor = entry + len;
    }
    if sound && cursor < n {
        warning(
            diags,
            "unreachable-ops",
            "program".to_owned(),
            format!("ops {cursor}..{n} belong to no region; no unit can execute them"),
        );
    }
    sound
}

/// `flat` must equal "no [`Op::SubLine`] anywhere" — the lane kernel
/// and the recursion-free scalar fast path dispatch on it.
fn check_flat_flag(program: &RoutingProgram, ops: &[Op], diags: &mut Diagnostics) {
    let actually_flat = !ops.iter().any(|op| matches!(op, Op::SubLine { .. }));
    if program.flat != actually_flat {
        error(
            diags,
            "flat-flag-mismatch",
            "program".to_owned(),
            format!(
                "flat flag is {} but the op vector {} sub-line ops; \
                 the kernel would dispatch to the wrong instantiation",
                program.flat,
                if actually_flat {
                    "contains no"
                } else {
                    "contains"
                },
            ),
        );
    }
}

/// Slot table: every entry in bounds, pointing at an op that actually
/// carries a parameter of the slot's kind, with a non-zero folded
/// quantity; multi-part yield slots must carry a `p_good` that is a
/// plausible `p_unit^q` (normal, and round-trippable through the q-th
/// root within the stated ULP bound).
fn check_slots(program: &RoutingProgram, ops: &[Op], diags: &mut Diagnostics) {
    for slot in &program.slots {
        let PatchSlot {
            name,
            kind,
            op,
            qty,
        } = slot;
        let label = format!("{name} ({kind})");
        let Some(target) = ops.get(*op as usize) else {
            error(
                diags,
                "slot-op-out-of-bounds",
                label,
                format!(
                    "slot points at op {op} but the program has {} ops",
                    ops.len()
                ),
            );
            continue;
        };
        if *qty == 0 {
            error(
                diags,
                "zero-quantity-slot",
                label.clone(),
                "slot carries folded quantity zero".to_owned(),
            );
        }
        let matches_kind = match kind {
            SlotKind::Cost => !matches!(target, Op::SubLine { .. }),
            SlotKind::Yield => matches!(target, Op::Step { .. }),
            SlotKind::Coverage => {
                matches!(target, Op::TestScrap { .. } | Op::TestRework { .. })
            }
        };
        if !matches_kind {
            error(
                diags,
                "slot-kind-mismatch",
                label,
                format!("{kind} slot points at an op with no such parameter: {target:?}"),
            );
            continue;
        }
        if *kind == SlotKind::Yield && *qty > 1 {
            let Op::Step { p_good, .. } = *target else {
                unreachable!("kind agreement checked above");
            };
            if !(p_good > 0.0 && p_good < 1.0) {
                continue; // reported by the step checks
            }
            let q = *qty as f64;
            if p_good < f64::MIN_POSITIVE {
                warning(
                    diags,
                    "probability-underflow",
                    format!("{name} ({kind})"),
                    format!(
                        "folded p^q = {p_good} is subnormal; the per-unit probability \
                         is no longer recoverable at full precision"
                    ),
                );
            } else {
                let root = p_good.powf(1.0 / q);
                let round_trip = root.powf(q);
                if (round_trip - p_good).abs() > pq_tolerance(q) * p_good {
                    error(
                        diags,
                        "stale-pq",
                        format!("{name} ({kind})"),
                        format!(
                            "folded p^q = {p_good} is not the q-th power of any per-unit \
                             probability within {} ULP (q = {qty}); the fold is stale",
                            8 * (qty + 1),
                        ),
                    );
                }
            }
        }
    }
}

/// Interval-walk-based lints: a flow or sub-line that can never ship.
fn lint_reachability(
    program: &RoutingProgram,
    ops: &[Op],
    retry_budget: u32,
    diags: &mut Diagnostics,
) {
    let mut memo = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        let Op::SubLine { entry, len, .. } = *op else {
            continue;
        };
        let sub = region_bounds(ops, entry, len, retry_budget.max(1), &mut memo);
        if !sub.any_ship {
            warning(
                diags,
                "subline-never-ships",
                op_path(program, ops, i),
                "no draw outcome ships a unit of this sub-line; every consumption \
                 starves its retry budget"
                    .to_owned(),
            );
        }
    }
    let (entry, len) = program.top_region();
    let top = region_bounds(ops, entry, len, retry_budget.max(1), &mut memo);
    if !top.any_ship {
        warning(
            diags,
            "flow-never-ships",
            "program".to_owned(),
            "no draw outcome ships a unit; cost per shipped unit is undefined".to_owned(),
        );
    }
}

/// Cost categories no op can ever book — an observation that often
/// reflects a missing modeling dimension, never a failure.
fn lint_categories(ops: &[Op], diags: &mut Diagnostics) {
    let mut booked = [false; NCAT];
    for op in ops {
        match *op {
            Op::Cost { cat, .. } | Op::Condemn { cat, .. } | Op::Step { cat, .. } => {
                booked[cat.index()] = true;
            }
            Op::SubLine { .. } => {}
            Op::TestScrap { .. } => booked[TEST_CAT] = true,
            Op::TestRework { .. } => {
                booked[TEST_CAT] = true;
                booked[CostCategory::Other.index()] = true;
            }
        }
    }
    for cat in CostCategory::ALL {
        if !booked[cat.index()] {
            info(
                diags,
                "cost-category-never-booked",
                "program".to_owned(),
                format!("no op books the {cat} category; its breakdown share is structurally zero"),
            );
        }
    }
}

/// The statically verified bounds of the top region (see
/// [`StaticBounds`]); call only after structural verification passed —
/// the recursive walk trusts region soundness.
pub(crate) fn static_bounds(ops: &[Op], entry: u32, len: u32, retry_budget: u32) -> StaticBounds {
    let mut memo = HashMap::new();
    let top = region_bounds(ops, entry, len, retry_budget, &mut memo);
    let widen = |v: f64, up: bool| {
        let slack = v.abs() * 1e-9 + 1e-9;
        if up {
            v + slack
        } else {
            v - slack
        }
    };
    // Support bounds, outward-widened by 1e-9 (clamped to [0, 1]) —
    // the analytic engine reaches "ships everything" through a chain of
    // mass multiplications that may drift a few ULP below exactly 1.
    let shipped_fraction = if !top.any_ship && !top.any_scrap {
        Interval::ZERO
    } else {
        Interval {
            lo: if top.any_scrap { 0.0 } else { 1.0 - 1e-9 },
            hi: if top.any_ship { 1.0 } else { 1e-9 },
        }
    };
    StaticBounds {
        draws_per_unit: top.draws,
        cost_per_unit: Interval {
            lo: widen(top.cost.lo, false).max(0.0_f64.min(top.cost.lo)),
            hi: widen(top.cost.hi, true),
        },
        shipped_fraction,
        rework_per_unit: top.rework,
        sub_builds_per_unit: top.subs,
    }
}

/// Per-region bounds over every draw outcome that *finishes* the region
/// (ships out of it or scraps inside it).
#[derive(Debug, Clone, Copy)]
struct RegionBounds {
    draws: CountInterval,
    cost: Interval,
    rework: CountInterval,
    subs: CountInterval,
    any_ship: bool,
    any_scrap: bool,
    /// A shipped unit may be non-defective.
    ship_clean: bool,
    /// A shipped unit may be defective (a test escape).
    ship_def: bool,
}

/// Running accumulators of the abstract walk: interval state for units
/// still executing, plus the two-bit defect abstraction.
#[derive(Debug, Clone, Copy)]
struct Walk {
    draws: CountInterval,
    cost: Interval,
    rework: CountInterval,
    subs: CountInterval,
    /// Some outcome reaching this point is non-defective.
    may_clean: bool,
    /// Some outcome reaching this point is defective.
    may_def: bool,
}

/// Merged bounds over finished outcomes (scrap exits + the end of the
/// region).
#[derive(Debug, Clone, Copy, Default)]
struct Outcomes {
    any: bool,
    draws: CountInterval,
    cost: Interval,
    rework: CountInterval,
    subs: CountInterval,
    any_ship: bool,
    any_scrap: bool,
    ship_clean: bool,
    ship_def: bool,
}

impl Outcomes {
    fn merge(
        &mut self,
        draws: CountInterval,
        cost: Interval,
        rework: CountInterval,
        subs: CountInterval,
    ) {
        if !self.any {
            self.any = true;
            self.draws = draws;
            self.cost = cost;
            self.rework = rework;
            self.subs = subs;
        } else {
            self.draws.lo = self.draws.lo.min(draws.lo);
            self.draws.hi = self.draws.hi.max(draws.hi);
            self.cost.lo = self.cost.lo.min(cost.lo);
            self.cost.hi = self.cost.hi.max(cost.hi);
            self.rework.lo = self.rework.lo.min(rework.lo);
            self.rework.hi = self.rework.hi.max(rework.hi);
            self.subs.lo = self.subs.lo.min(subs.lo);
            self.subs.hi = self.subs.hi.max(subs.hi);
        }
    }

    fn scrap(&mut self, w: &Walk, draws: CountInterval, cost: Interval, rework: CountInterval) {
        self.any_scrap = true;
        self.merge(draws, cost, rework, w.subs);
    }

    fn ship(&mut self, w: &Walk) {
        self.any_ship = true;
        self.ship_clean |= w.may_clean;
        self.ship_def |= w.may_def;
        self.merge(w.draws, w.cost, w.rework, w.subs);
    }
}

/// One abstract pass over `ops[entry..entry+len]`, memoized per region
/// (nested consumptions of the same sub-line share the analysis).
fn region_bounds(
    ops: &[Op],
    entry: u32,
    len: u32,
    budget: u32,
    memo: &mut HashMap<(u32, u32), RegionBounds>,
) -> RegionBounds {
    if let Some(cached) = memo.get(&(entry, len)) {
        return *cached;
    }
    let mut w = Walk {
        draws: CountInterval::ZERO,
        cost: Interval::ZERO,
        rework: CountInterval::ZERO,
        subs: CountInterval::ZERO,
        may_clean: true,
        may_def: false,
    };
    let mut out = Outcomes::default();
    let mut reachable = true;
    for op in &ops[entry as usize..(entry + len) as usize] {
        match *op {
            Op::Cost { cost, .. } => {
                w.cost.lo += cost;
                w.cost.hi += cost;
            }
            Op::Condemn { cost, .. } => {
                w.cost.lo += cost;
                w.cost.hi += cost;
                w.may_def = true;
                w.may_clean = false;
            }
            Op::Step { cost, .. } => {
                w.cost.lo += cost;
                w.cost.hi += cost;
                // Only a still-clean unit draws; after the op the unit
                // may be defective either way.
                if w.may_clean {
                    w.draws.hi = w.draws.hi.saturating_add(1);
                    if !w.may_def {
                        w.draws.lo = w.draws.lo.saturating_add(1);
                    }
                    w.may_def = true;
                }
            }
            Op::SubLine {
                qty,
                entry: se,
                len: sl,
                ..
            } => {
                let sub = region_bounds(ops, se, sl, budget, memo);
                if !sub.any_ship {
                    // No attempt can ever pass: the Monte Carlo run
                    // starves (an error, not an outcome) and the
                    // analytic mass never continues. Nothing to bound
                    // past this op.
                    reachable = false;
                    break;
                }
                let q = qty as u64;
                // Each of the q consumed units takes 1..=budget
                // attempts (1 when the sub-line cannot scrap at all).
                let attempts_hi = if sub.any_scrap { budget as u64 } else { 1 };
                let per_hi = |x: u64| q.saturating_mul(attempts_hi).saturating_mul(x);
                w.draws.lo = w.draws.lo.saturating_add(q.saturating_mul(sub.draws.lo));
                w.draws.hi = w.draws.hi.saturating_add(per_hi(sub.draws.hi));
                w.rework.lo = w.rework.lo.saturating_add(q.saturating_mul(sub.rework.lo));
                w.rework.hi = w.rework.hi.saturating_add(per_hi(sub.rework.hi));
                // Every attempt is one sub-unit build, plus whatever
                // the sub-line builds internally.
                w.subs.lo = w
                    .subs
                    .lo
                    .saturating_add(q.saturating_mul(sub.subs.lo.saturating_add(1)));
                w.subs.hi = w
                    .subs
                    .hi
                    .saturating_add(per_hi(sub.subs.hi.saturating_add(1)));
                // Failing attempts book to scrap, the passing one into
                // this unit — both count toward the started unit.
                w.cost.lo += q as f64 * sub.cost.lo;
                w.cost.hi += q as f64 * attempts_hi as f64 * sub.cost.hi;
                if sub.ship_def {
                    w.may_def = true;
                }
                if !sub.ship_clean {
                    w.may_clean = false;
                }
            }
            Op::TestScrap { cost, coverage } => {
                w.cost.lo += cost;
                w.cost.hi += cost;
                if w.may_def && coverage > 0.0 {
                    let d = (coverage < 1.0) as u64;
                    // Caught-and-scrapped exit: the coverage draw (if
                    // probabilistic) was consumed on this path.
                    out.scrap(
                        &w,
                        CountInterval {
                            lo: w.draws.lo + d,
                            hi: w.draws.hi.saturating_add(d),
                        },
                        w.cost,
                        w.rework,
                    );
                    if d == 1 {
                        w.draws.hi = w.draws.hi.saturating_add(1);
                        if !w.may_clean {
                            // Every continuing unit is a defective
                            // escape: the draw was forced.
                            w.draws.lo = w.draws.lo.saturating_add(1);
                        }
                    }
                    if coverage >= 1.0 {
                        if !w.may_clean {
                            // Perfect coverage, surely defective:
                            // nothing continues.
                            reachable = false;
                            break;
                        }
                        w.may_def = false;
                    }
                }
            }
            Op::TestRework {
                cost,
                coverage,
                rework_cost,
                success,
                max_attempts,
            } => {
                w.cost.lo += cost;
                w.cost.hi += cost;
                if w.may_def && coverage > 0.0 {
                    let ma = max_attempts as u64;
                    let cov_draw = (coverage < 1.0) as u64;
                    let s_draw = (success > 0.0 && success < 1.0) as u64;
                    // The scrap path fails recovery and is re-caught on
                    // all `ma` attempts — its draw/cost/attempt counts
                    // are forced exactly.
                    if ma == 0 || success < 1.0 {
                        let extra = cov_draw + ma.saturating_mul(s_draw + cov_draw);
                        let loop_cost = ma as f64 * (rework_cost + cost);
                        out.scrap(
                            &w,
                            CountInterval {
                                lo: w.draws.lo.saturating_add(extra),
                                hi: w.draws.hi.saturating_add(extra),
                            },
                            Interval {
                                lo: w.cost.lo + loop_cost,
                                hi: w.cost.hi + loop_cost,
                            },
                            CountInterval {
                                lo: w.rework.lo.saturating_add(ma),
                                hi: w.rework.hi.saturating_add(ma),
                            },
                        );
                    }
                    // Continuing defective: escaped at entry or on a
                    // re-test (both need imperfect coverage).
                    // Continuing clean: was clean, or recovered.
                    let continue_def = coverage < 1.0;
                    let continue_clean = w.may_clean || (ma >= 1 && success > 0.0);
                    if !continue_def && !continue_clean {
                        reachable = false;
                        break;
                    }
                    w.draws.hi = w
                        .draws
                        .hi
                        .saturating_add(cov_draw + ma.saturating_mul(s_draw + cov_draw));
                    if !w.may_clean {
                        // Surely defective: the entry coverage draw is
                        // forced when probabilistic; under perfect
                        // coverage the first attempt's success draw is.
                        w.draws.lo =
                            w.draws
                                .lo
                                .saturating_add(if cov_draw == 1 { 1 } else { s_draw });
                    }
                    w.cost.hi += ma as f64 * (rework_cost + cost);
                    w.rework.hi = w.rework.hi.saturating_add(ma);
                    if !w.may_clean && coverage >= 1.0 && ma >= 1 {
                        // Forced caught: every continuing outcome paid
                        // at least one rework attempt.
                        w.cost.lo += rework_cost + cost;
                        w.rework.lo = w.rework.lo.saturating_add(1);
                    }
                    w.may_def = continue_def;
                    w.may_clean = continue_clean;
                }
            }
        }
    }
    if reachable {
        out.ship(&w);
    }
    let bounds = if out.any {
        RegionBounds {
            draws: out.draws,
            cost: out.cost,
            rework: out.rework,
            subs: out.subs,
            any_ship: out.any_ship,
            any_scrap: out.any_scrap,
            ship_clean: out.ship_clean,
            ship_def: out.ship_def,
        }
    } else {
        RegionBounds {
            draws: CountInterval::ZERO,
            cost: Interval::ZERO,
            rework: CountInterval::ZERO,
            subs: CountInterval::ZERO,
            any_ship: false,
            any_scrap: false,
            ship_clean: false,
            ship_def: false,
        }
    };
    memo.insert((entry, len), bounds);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::StepCost;
    use crate::line::Line;
    use crate::part::Part;
    use crate::stage::{Attach, FailAction, Process, Rework, Test};
    use crate::yield_model::YieldModel;
    use crate::Flow;
    use ipass_units::{Money, Probability};

    fn p(v: f64) -> Probability {
        Probability::new(v).unwrap()
    }

    /// A nested reference line exercising every op kind: carrier,
    /// process, multi-part attach, rework test, sub-line consumption,
    /// final scrap test.
    fn reference_flow() -> Flow {
        let sub = Line::builder(
            "sub",
            Part::new("blank", CostCategory::Substrate).with_cost(StepCost::fixed(Money::new(1.0))),
        )
        .process(
            Process::new("fab")
                .with_cost(StepCost::fixed(Money::new(2.0)))
                .with_yield(YieldModel::flat(p(0.7))),
        )
        .test(
            Test::new("probe")
                .with_cost(StepCost::fixed(Money::new(0.5)))
                .with_coverage(p(0.9)),
        )
        .build()
        .unwrap();
        let line = Line::builder(
            "ref",
            Part::new("pcb", CostCategory::Substrate).with_cost(StepCost::fixed(Money::new(3.0))),
        )
        .process(
            Process::new("print")
                .with_cost(StepCost::fixed(Money::new(1.0)))
                .with_yield(YieldModel::flat(p(0.95))),
        )
        .attach(
            Attach::new("place")
                .with_cost(StepCost::fixed(Money::new(0.2)))
                .with_yield(YieldModel::flat(p(0.98)))
                .input(
                    Part::new("die", CostCategory::Chip)
                        .with_cost(StepCost::fixed(Money::new(4.0)))
                        .with_incoming_yield(YieldModel::flat(p(0.9))),
                    3,
                )
                .input(sub, 2),
        )
        .test(
            Test::new("ict")
                .with_cost(StepCost::fixed(Money::new(0.3)))
                .with_coverage(p(0.8))
                .on_fail(FailAction::Rework(Rework::new(
                    StepCost::fixed(Money::new(0.6)),
                    p(0.5),
                    2,
                ))),
        )
        .test(
            Test::new("ft")
                .with_cost(StepCost::fixed(Money::new(0.4)))
                .with_coverage(p(0.99)),
        )
        .build()
        .unwrap();
        Flow::new(line)
            .with_nre(Money::new(100.0))
            .with_volume(1_000)
    }

    fn reference_program() -> RoutingProgram {
        let flow = reference_flow();
        flow.compiled().unwrap().program().clone()
    }

    fn verify(program: &RoutingProgram) -> Diagnostics {
        verify_program(
            program,
            &program.ops,
            VerifyMode::Compiled,
            crate::DEFAULT_SUBASSEMBLY_RETRY_BUDGET,
        )
    }

    #[test]
    fn reference_program_verifies_clean() {
        let diags = verify(&reference_program());
        assert_eq!(
            diags.deny_warnings_failures(),
            0,
            "unexpected findings:\n{diags}"
        );
        // Only never-booked-category infos remain.
        assert!(diags.iter().all(|d| d.code == "cost-category-never-booked"));
    }

    /// Pick a deterministic target among `candidates` for corruption
    /// class `class` — seeded, so the corpus is reproducible but not
    /// hand-aimed at one op.
    fn pick(class: u64, candidates: &[usize]) -> usize {
        assert!(!candidates.is_empty(), "class {class} found no target op");
        let mut rng = SimRng::stream(0xC0FF_EE00, class);
        candidates[(rng.next_u64() % candidates.len() as u64) as usize]
    }

    fn ops_matching(program: &RoutingProgram, pred: impl Fn(&Op) -> bool) -> Vec<usize> {
        program
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| pred(op))
            .map(|(i, _)| i)
            .collect()
    }

    /// The seeded mutation corpus: each class corrupts one invariant
    /// and names the diagnostic code that must reject it.
    fn corrupt(class: u64, program: &mut RoutingProgram) -> &'static str {
        let steps = ops_matching(program, |op| matches!(op, Op::Step { .. }));
        let tests = ops_matching(program, |op| {
            matches!(op, Op::TestScrap { .. } | Op::TestRework { .. })
        });
        let sublines = ops_matching(program, |op| matches!(op, Op::SubLine { .. }));
        match class {
            // 1. Flipped draw threshold: off by one bit.
            0 => {
                let i = pick(class, &steps);
                let Op::Step { threshold, .. } = &mut program.ops[i] else {
                    unreachable!()
                };
                *threshold ^= 1;
                "threshold-mismatch"
            }
            // 2. Stale p^q: a subnormal folded probability whose
            // threshold still recomputes bit-equal (⌈p·2⁵³⌉ = 1).
            1 => {
                let multi: Vec<usize> = program
                    .slots
                    .iter()
                    .filter(|s| s.kind == SlotKind::Yield && s.qty > 1)
                    .map(|s| s.op as usize)
                    .collect();
                let i = pick(class, &multi);
                let Op::Step {
                    p_good, threshold, ..
                } = &mut program.ops[i]
                else {
                    unreachable!()
                };
                *p_good = 1e-320;
                *threshold = SimRng::threshold(1e-320);
                "probability-underflow"
            }
            // 3. Degenerate probability surviving to Op::Step.
            2 => {
                let i = pick(class, &steps);
                let Op::Step {
                    p_good, threshold, ..
                } = &mut program.ops[i]
                else {
                    unreachable!()
                };
                *p_good = 1.0;
                *threshold = u64::MAX;
                "degenerate-step"
            }
            // 4. Negative cost.
            3 => {
                let i = pick(class, &steps);
                let Op::Step { cost, .. } = &mut program.ops[i] else {
                    unreachable!()
                };
                *cost = -1.0;
                "negative-cost"
            }
            // 5. Non-finite cost.
            4 => {
                let i = pick(class, &tests);
                match &mut program.ops[i] {
                    Op::TestScrap { cost, .. } | Op::TestRework { cost, .. } => {
                        *cost = f64::NAN;
                    }
                    _ => unreachable!(),
                }
                "nonfinite-cost"
            }
            // 6. Sub region running past the op vector.
            5 => {
                let i = pick(class, &sublines);
                let Op::SubLine { len, .. } = &mut program.ops[i] else {
                    unreachable!()
                };
                *len += 1_000;
                "region-out-of-bounds"
            }
            // 7. Sub region overlapping the top region.
            6 => {
                let i = pick(class, &sublines);
                let top_entry = program.entry;
                let Op::SubLine { entry, len, .. } = &mut program.ops[i] else {
                    unreachable!()
                };
                *len = top_entry - *entry + 1;
                "region-overlap"
            }
            // 8. Sub region referencing forward (recursion hazard).
            7 => {
                let i = pick(class, &sublines);
                let n = program.ops.len() as u32;
                let Op::SubLine { entry, len, .. } = &mut program.ops[i] else {
                    unreachable!()
                };
                *entry = i as u32;
                *len = n - i as u32;
                "region-forward-reference"
            }
            // 9. Corrupted flat flag.
            8 => {
                program.flat = !program.flat;
                "flat-flag-mismatch"
            }
            // 10. Slot pointing past the op vector.
            9 => {
                let s = pick(class, &(0..program.slots.len()).collect::<Vec<_>>());
                program.slots[s].op = program.ops.len() as u32 + 7;
                "slot-op-out-of-bounds"
            }
            // 11. Mis-kinded slot: a yield slot re-aimed at a test op.
            10 => {
                let i = pick(class, &tests);
                let s = program
                    .slots
                    .iter()
                    .position(|s| s.kind == SlotKind::Yield)
                    .unwrap();
                program.slots[s].op = i as u32;
                "slot-kind-mismatch"
            }
            // 12. Coverage outside [0, 1].
            11 => {
                let i = pick(class, &tests);
                match &mut program.ops[i] {
                    Op::TestScrap { coverage, .. } | Op::TestRework { coverage, .. } => {
                        *coverage = 1.5;
                    }
                    _ => unreachable!(),
                }
                "coverage-out-of-range"
            }
            // 13. Rework success probability outside [0, 1].
            12 => {
                let rework = ops_matching(program, |op| matches!(op, Op::TestRework { .. }));
                let i = pick(class, &rework);
                let Op::TestRework { success, .. } = &mut program.ops[i] else {
                    unreachable!()
                };
                *success = -0.5;
                "success-out-of-range"
            }
            // 14. Zero-quantity sub-line consumption.
            13 => {
                let i = pick(class, &sublines);
                let Op::SubLine { qty, .. } = &mut program.ops[i] else {
                    unreachable!()
                };
                *qty = 0;
                "zero-quantity-subline"
            }
            // 15. Defect label out of bounds.
            14 => {
                let i = pick(class, &steps);
                let n = program.names().len() as u32;
                let Op::Step { label, .. } = &mut program.ops[i] else {
                    unreachable!()
                };
                *label = n + 3;
                "label-out-of-bounds"
            }
            // 16. Sub-line name index out of bounds.
            15 => {
                let i = pick(class, &sublines);
                let n = program.line_names().len() as u32;
                let Op::SubLine { name, .. } = &mut program.ops[i] else {
                    unreachable!()
                };
                *name = n + 1;
                "line-name-out-of-bounds"
            }
            _ => unreachable!("unknown corruption class {class}"),
        }
    }

    const CORPUS_CLASSES: u64 = 16;

    #[test]
    fn mutation_corpus_is_rejected_class_by_class() {
        for class in 0..CORPUS_CLASSES {
            let mut program = reference_program();
            let expected = corrupt(class, &mut program);
            let diags = verify(&program);
            assert!(
                diags.deny_warnings_failures() > 0,
                "class {class} ({expected}) was not rejected"
            );
            assert!(
                diags.iter().any(|d| d.code == expected),
                "class {class} expected code {expected}, got:\n{diags}"
            );
        }
    }

    #[test]
    fn corpus_has_at_least_twelve_distinct_classes() {
        let mut codes = Vec::new();
        for class in 0..CORPUS_CLASSES {
            let mut program = reference_program();
            codes.push(corrupt(class, &mut program));
        }
        codes.sort_unstable();
        codes.dedup();
        assert!(codes.len() >= 12, "only {} distinct codes", codes.len());
    }

    #[test]
    fn zero_coverage_and_zero_attempt_rework_lint_as_warnings() {
        let line = Line::builder(
            "w",
            Part::new("c", CostCategory::Substrate).with_cost(StepCost::fixed(Money::new(1.0))),
        )
        .process(Process::new("p").with_yield(YieldModel::flat(p(0.9))))
        .test(
            Test::new("blind")
                .with_cost(StepCost::fixed(Money::new(0.1)))
                .with_coverage(Probability::clamped(0.0)),
        )
        .test(
            Test::new("futile")
                .with_coverage(p(0.5))
                .on_fail(FailAction::Rework(Rework::new(
                    StepCost::fixed(Money::new(0.2)),
                    p(0.5),
                    0,
                ))),
        )
        .build()
        .unwrap();
        let diags = Flow::new(line).compiled().unwrap().verify();
        assert!(!diags.has_errors(), "{diags}");
        assert!(diags.iter().any(|d| d.code == "zero-coverage-test"));
        assert!(diags.iter().any(|d| d.code == "zero-attempt-rework"));
    }

    #[test]
    fn never_shipping_flow_lints() {
        // A condemned carrier and a perfect scrap test: nothing ships.
        let line = Line::builder(
            "doomed",
            Part::new("c", CostCategory::Substrate)
                .with_incoming_yield(YieldModel::flat(Probability::clamped(0.0))),
        )
        .test(Test::new("perfect").with_coverage(Probability::clamped(1.0)))
        .build()
        .unwrap();
        let diags = Flow::new(line).compiled().unwrap().verify();
        assert!(
            diags.iter().any(|d| d.code == "flow-never-ships"),
            "{diags}"
        );
    }

    #[test]
    fn bounds_of_a_draw_free_line_are_exact() {
        // Certain yields everywhere: no draws, fixed cost, ships always.
        let line = Line::builder(
            "fixed",
            Part::new("c", CostCategory::Substrate).with_cost(StepCost::fixed(Money::new(2.0))),
        )
        .process(Process::new("p").with_cost(StepCost::fixed(Money::new(3.0))))
        .build()
        .unwrap();
        let bounds = Flow::new(line)
            .compiled()
            .unwrap()
            .static_bounds(crate::DEFAULT_SUBASSEMBLY_RETRY_BUDGET)
            .unwrap();
        assert_eq!(bounds.draws_per_unit, CountInterval { lo: 0, hi: 0 });
        assert!(bounds.shipped_fraction.contains(1.0));
        assert!(bounds.shipped_fraction.lo > 0.999);
        assert!(bounds.cost_per_unit.contains(5.0));
        assert!(bounds.cost_per_unit.lo > 4.9 && bounds.cost_per_unit.hi < 5.1);
        assert_eq!(bounds.rework_per_unit.hi, 0);
        assert_eq!(bounds.sub_builds_per_unit.hi, 0);
    }

    #[test]
    fn reference_bounds_contain_both_engines() {
        let flow = reference_flow();
        let compiled = flow.compiled().unwrap();
        let bounds = compiled
            .static_bounds(crate::DEFAULT_SUBASSEMBLY_RETRY_BUDGET)
            .unwrap();
        let analytic = compiled.analyze().unwrap();
        assert!(bounds
            .cost_per_unit
            .contains(analytic.total_spend().units() / analytic.started()));
        assert!(bounds
            .shipped_fraction
            .contains(analytic.shipped_fraction()));
        let units = 4_000u64;
        let summary = compiled
            .simulate_summary(
                &crate::SimOptions::new(units)
                    .with_seed(7)
                    .with_probe(ipass_obs::Probe::ON),
            )
            .unwrap();
        let mc = &summary.report;
        assert!(bounds
            .cost_per_unit
            .contains(mc.total_spend().units() / mc.started()));
        assert!(bounds.shipped_fraction.contains(mc.shipped_fraction()));
        assert!(summary.rework_attempts <= bounds.rework_per_unit.hi.saturating_mul(units));
        assert!(summary.sub_units_built >= bounds.sub_builds_per_unit.lo * units);
        assert!(summary.sub_units_built <= bounds.sub_builds_per_unit.hi.saturating_mul(units));
        // The probed snapshot's exact per-unit draw range must land
        // inside the proven interval — for every unit, via min/max.
        let stats = summary.stats.expect("probed run carries stats");
        assert_eq!(stats.units, units);
        assert!(
            bounds.draws_per_unit.contains(stats.draws_min)
                && bounds.draws_per_unit.contains(stats.draws_max),
            "draw range [{}, {}] escapes bounds {:?}",
            stats.draws_min,
            stats.draws_max,
            bounds.draws_per_unit
        );
        // And the one-call form agrees.
        let spend = mc.total_spend().units() / mc.started();
        assert_eq!(
            bounds.violations(&stats, spend, mc.shipped_fraction()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn static_bounds_rejects_corrupted_programs() {
        let flow = reference_flow();
        let compiled = flow.compiled().unwrap();
        let mut program = compiled.program().clone();
        corrupt(0, &mut program);
        let diags = structural_errors(&program, &program.ops, VerifyMode::Compiled);
        assert!(diags.has_errors());
    }
}
