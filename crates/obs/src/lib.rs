#![forbid(unsafe_code)]
//! Two-plane observability for the `ipass` stack.
//!
//! **Deterministic plane** — counters folded into [`RunStats`].
//! [`Probe`]-gated [`EngineCounters`] are accumulated *inside* the
//! engines and merged exactly like results: in chunk order, with
//! associative operations only (`u64` adds, `min`, `max`). A `RunStats`
//! snapshot is therefore bit-identical for any executor thread count,
//! and its portable core ([`RunStats::invariant_core`]) is additionally
//! identical across lane widths. [`ServeStats`] is not probe-gated:
//! `ipass-serve` counts every request with relaxed atomics, and the
//! totals are exact once the server is quiescent. Deterministic
//! counters never contain a timestamp.
//!
//! **Wall-clock plane** — [`Profiler`] span scopes ([`Profiler::span`])
//! that record real elapsed time per named phase and drain into a
//! [`Trace`]. Wall-clock data is kept strictly out of `RunStats`; the two
//! planes never mix, so goldens and property tests can pin the first
//! while dashboards read the second.
//!
//! The crate is dependency-free and knows nothing about flows or lanes
//! — engines own the counting sites, this crate owns the shapes and the
//! fold law.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of `Op::Cost` in [`EngineCounters::ops`].
pub const OP_COST: usize = 0;
/// Index of `Op::Condemn` in [`EngineCounters::ops`].
pub const OP_CONDEMN: usize = 1;
/// Index of `Op::Step` in [`EngineCounters::ops`].
pub const OP_STEP: usize = 2;
/// Index of `Op::SubLine` in [`EngineCounters::ops`].
pub const OP_SUB_LINE: usize = 3;
/// Index of `Op::TestScrap` in [`EngineCounters::ops`].
pub const OP_TEST_SCRAP: usize = 4;
/// Index of `Op::TestRework` in [`EngineCounters::ops`].
pub const OP_TEST_REWORK: usize = 5;
/// Human-readable labels for the [`EngineCounters::ops`] slots, in order.
pub const OP_KINDS: [&str; 6] = [
    "cost",
    "condemn",
    "step",
    "sub_line",
    "test_scrap",
    "test_rework",
];
/// Lane widths covered by the [`EngineCounters::lanes`] histogram:
/// slot `k` counts units processed at width `2^k`.
pub const LANE_WIDTHS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];

/// A zero-cost on/off switch for deterministic counting.
///
/// Engines take a `Probe` by value and branch on [`Probe::is_on`] once per
/// counting site; the default is [`Probe::OFF`], under which every probe
/// block is dead code the optimizer removes from the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Probe(bool);

impl Probe {
    /// Counting disabled (the default): probe blocks compile to nothing.
    pub const OFF: Probe = Probe(false);
    /// Counting enabled.
    pub const ON: Probe = Probe(true);

    /// Whether counting is enabled.
    #[inline(always)]
    #[must_use]
    pub fn is_on(self) -> bool {
        self.0
    }
}

/// Deterministic counters owned by a single MC engine run.
///
/// Lives inside the per-chunk accumulator and is merged in chunk order,
/// so every field inherits the executor's bit-identity guarantee. All
/// merge operations are associative (`+`, `min`, `max`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCounters {
    /// Total RNG draws consumed across all units.
    pub draws: u64,
    /// Fewest draws consumed by any single unit (`u64::MAX` when empty).
    pub draws_min: u64,
    /// Most draws consumed by any single unit.
    pub draws_max: u64,
    /// Ops executed on the unit's routing path, by kind
    /// (indexed by [`OP_COST`] … [`OP_TEST_REWORK`]).
    pub ops: [u64; 6],
    /// Lane occupancy histogram: `lanes[k]` counts units processed at
    /// lane width `2^k` (see [`LANE_WIDTHS`]); the sum equals the number
    /// of units attempted.
    pub lanes: [u64; 7],
}

impl Default for EngineCounters {
    fn default() -> EngineCounters {
        EngineCounters {
            draws: 0,
            draws_min: u64::MAX,
            draws_max: 0,
            ops: [0; 6],
            lanes: [0; 7],
        }
    }
}

impl EngineCounters {
    /// The empty (merge-identity) counter set.
    #[must_use]
    pub fn new() -> EngineCounters {
        EngineCounters::default()
    }

    /// Fold one unit's draw count into the totals and the min/max range.
    #[inline]
    pub fn record_unit(&mut self, draws: u64) {
        self.draws += draws;
        self.draws_min = self.draws_min.min(draws);
        self.draws_max = self.draws_max.max(draws);
    }

    /// Associative merge; `EngineCounters::new()` is the identity.
    pub fn merge(&mut self, other: &EngineCounters) {
        self.draws += other.draws;
        self.draws_min = self.draws_min.min(other.draws_min);
        self.draws_max = self.draws_max.max(other.draws_max);
        for (a, b) in self.ops.iter_mut().zip(other.ops) {
            *a += b;
        }
        for (a, b) in self.lanes.iter_mut().zip(other.lanes) {
            *a += b;
        }
    }
}

/// Request counters for one `ipass-serve` server instance.
///
/// Maintained with relaxed atomics on the serving hot path: totals are
/// exact once the server is quiescent (drained and shut down), which is
/// when the snapshot is read. Every count is a pure function of the
/// request stream the server saw — never of wall-clock time — so a
/// drained server's snapshot is reproducible for a fixed client
/// workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: u64,
    /// Request lines received (well-formed or not).
    pub requests: u64,
    /// Requests answered with an `ok` response.
    pub responses_ok: u64,
    /// Requests answered with a typed error response.
    pub responses_err: u64,
    /// Payload bytes read off the wire (request lines incl. newline).
    pub bytes_in: u64,
    /// Response bytes written to the wire (incl. newline).
    pub bytes_out: u64,
    /// Request lines the engine evaluated: every request except the
    /// framing failures (oversized, invalid UTF-8, idle timeout)
    /// answered before parsing.
    pub evaluated: u64,
}

impl ServeStats {
    /// Associative merge (field-wise sum).
    pub fn merge(&mut self, other: &ServeStats) {
        self.connections += other.connections;
        self.requests += other.requests;
        self.responses_ok += other.responses_ok;
        self.responses_err += other.responses_err;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.evaluated += other.evaluated;
    }
}

/// The deterministic-plane snapshot of a run.
///
/// Built from [`EngineCounters`] plus whatever patch / serve counters
/// the caller owns. The full snapshot is bit-identical across
/// executor thread counts; [`RunStats::invariant_core`] strips the one
/// field that legitimately depends on kernel shape (the lane
/// histogram), leaving a view that is also identical across lane
/// widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Units attempted by the engine.
    pub units: u64,
    /// Total RNG draws consumed.
    pub draws: u64,
    /// Fewest draws consumed by any single unit (0 when `units == 0`).
    pub draws_min: u64,
    /// Most draws consumed by any single unit.
    pub draws_max: u64,
    /// Ops executed by kind (indexed by [`OP_COST`] … [`OP_TEST_REWORK`]).
    pub ops: [u64; 6],
    /// Lane occupancy histogram (units per width; see [`LANE_WIDTHS`]).
    pub lanes: [u64; 7],
    /// Rework passes attempted by `TestRework` ops.
    pub rework_attempts: u64,
    /// Subassembly units built (including scrapped ones).
    pub sub_units_built: u64,
    /// Slot writes applied through `FlowPatch`es.
    pub patch_writes: u64,
    /// Server counters, when the run was driven through `ipassd`.
    pub serve: ServeStats,
}

impl RunStats {
    /// Assemble a snapshot from an engine's counters.
    ///
    /// Normalizes the empty-run sentinel: with no units recorded,
    /// `draws_min` collapses from `u64::MAX` to 0.
    #[must_use]
    pub fn from_engine(units: u64, eng: &EngineCounters) -> RunStats {
        RunStats {
            units,
            draws: eng.draws,
            draws_min: if units == 0 { 0 } else { eng.draws_min },
            draws_max: eng.draws_max,
            ops: eng.ops,
            lanes: eng.lanes,
            ..RunStats::default()
        }
    }

    /// Associative merge (sums, plus `min`/`max` on the draw range).
    pub fn merge(&mut self, other: &RunStats) {
        let min = match (self.units, other.units) {
            (0, _) => other.draws_min,
            (_, 0) => self.draws_min,
            _ => self.draws_min.min(other.draws_min),
        };
        self.units += other.units;
        self.draws += other.draws;
        self.draws_min = min;
        self.draws_max = self.draws_max.max(other.draws_max);
        for (a, b) in self.ops.iter_mut().zip(other.ops) {
            *a += b;
        }
        for (a, b) in self.lanes.iter_mut().zip(other.lanes) {
            *a += b;
        }
        self.rework_attempts += other.rework_attempts;
        self.sub_units_built += other.sub_units_built;
        self.patch_writes += other.patch_writes;
        self.serve.merge(&other.serve);
    }

    /// The width-invariant core of the snapshot.
    ///
    /// Zeroes the lane histogram, which reports kernel shape and so
    /// *should* change with lane width. Everything left, the serve
    /// counters included, is bit-identical across thread counts *and*
    /// lane widths.
    #[must_use]
    pub fn invariant_core(&self) -> RunStats {
        RunStats {
            lanes: [0; 7],
            ..*self
        }
    }
}

/// Aggregated wall-clock time for one named span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name (e.g. `"screen"`, `"confirm"`, `"chunk"`).
    pub name: String,
    /// Times the span was entered.
    pub count: u64,
    /// Total elapsed nanoseconds across all entries.
    pub total_ns: u64,
}

/// The wall-clock plane: a cheap, cloneable sink for span timings.
///
/// Clones share the same buffer, so one `Profiler` can be handed to the
/// compiler, the executor and the explorer and drained once at the end
/// with [`Profiler::trace`]. Never feeds the deterministic plane.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    spans: Arc<Mutex<Vec<SpanStat>>>,
}

impl Profiler {
    /// A profiler with no recorded spans.
    #[must_use]
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Fold `nanos` into the span named `name`.
    pub fn record(&self, name: &str, nanos: u64) {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        match spans.iter_mut().find(|s| s.name == name) {
            Some(s) => {
                s.count += 1;
                s.total_ns += nanos;
            }
            None => spans.push(SpanStat {
                name: name.to_string(),
                count: 1,
                total_ns: nanos,
            }),
        }
    }

    /// Open a scope that records its elapsed time into `name` on drop.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard {
            profiler: self.clone(),
            name,
            start: Instant::now(),
        }
    }

    /// Snapshot the recorded spans, in first-entered order.
    #[must_use]
    pub fn trace(&self) -> Trace {
        Trace {
            spans: self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone(),
        }
    }
}

/// RAII scope from [`Profiler::span`]; records elapsed time on drop.
#[derive(Debug)]
pub struct SpanGuard {
    profiler: Profiler,
    name: &'static str,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.profiler.record(self.name, nanos);
    }
}

/// A drained wall-clock trace, serializable as JSON without any
/// external dependency.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Aggregated spans in first-entered order.
    pub spans: Vec<SpanStat>,
}

impl Trace {
    /// Render as a compact JSON object: `{"spans":[{...},...]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            for c in s.name.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push_str(&format!(
                "\",\"count\":{},\"total_ns\":{}}}",
                s.count, s.total_ns
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_defaults_off() {
        assert!(!Probe::default().is_on());
        assert!(!Probe::OFF.is_on());
        assert!(Probe::ON.is_on());
    }

    #[test]
    fn engine_counters_merge_is_associative_with_identity() {
        let mut a = EngineCounters::new();
        a.record_unit(3);
        a.record_unit(9);
        a.ops[OP_STEP] = 4;
        a.lanes[6] = 2;
        let mut b = EngineCounters::new();
        b.record_unit(1);
        b.ops[OP_COST] = 7;
        b.lanes[0] = 1;

        // identity
        let mut with_id = a;
        with_id.merge(&EngineCounters::new());
        assert_eq!(with_id, a);

        // (a ⊕ b) == fold of the unit stream in either grouping
        let mut ab = a;
        ab.merge(&b);
        assert_eq!(ab.draws, 13);
        assert_eq!(ab.draws_min, 1);
        assert_eq!(ab.draws_max, 9);
        assert_eq!(ab.ops[OP_STEP], 4);
        assert_eq!(ab.ops[OP_COST], 7);
        assert_eq!(ab.lanes[6] + ab.lanes[0], 3);
    }

    #[test]
    fn run_stats_from_engine_normalizes_empty_min() {
        let empty = RunStats::from_engine(0, &EngineCounters::new());
        assert_eq!(empty.draws_min, 0);
        let mut eng = EngineCounters::new();
        eng.record_unit(5);
        let one = RunStats::from_engine(1, &eng);
        assert_eq!(one.draws_min, 5);
        assert_eq!(one.draws_max, 5);
    }

    #[test]
    fn run_stats_merge_skips_empty_side_min() {
        let mut eng = EngineCounters::new();
        eng.record_unit(4);
        let mut total = RunStats::from_engine(0, &EngineCounters::new());
        total.merge(&RunStats::from_engine(1, &eng));
        assert_eq!(total.draws_min, 4);
        assert_eq!(total.units, 1);
        let mut rev = RunStats::from_engine(1, &eng);
        rev.merge(&RunStats::from_engine(0, &EngineCounters::new()));
        assert_eq!(rev, total);
    }

    #[test]
    fn invariant_core_strips_lanes_only() {
        let mut eng = EngineCounters::new();
        eng.record_unit(2);
        eng.lanes[6] = 1;
        let mut stats = RunStats::from_engine(1, &eng);
        stats.rework_attempts = 3;
        stats.serve.requests = 9;
        stats.serve.evaluated = 8;
        let core = stats.invariant_core();
        assert_eq!(core.lanes, [0; 7]);
        assert_eq!(core.draws, stats.draws);
        assert_eq!(core.rework_attempts, 3);
        // Every serve counter is a pure function of the request stream.
        assert_eq!(core.serve, stats.serve);
        assert_eq!(
            core,
            RunStats {
                lanes: [0; 7],
                ..stats
            }
        );
    }

    #[test]
    fn serve_stats_merge_is_field_wise_sum() {
        let mut a = ServeStats {
            connections: 1,
            requests: 5,
            responses_ok: 4,
            responses_err: 1,
            bytes_in: 100,
            bytes_out: 300,
            evaluated: 4,
        };
        let b = ServeStats {
            connections: 2,
            requests: 7,
            ..ServeStats::default()
        };
        let id = ServeStats::default();
        let mut with_id = a;
        with_id.merge(&id);
        assert_eq!(with_id, a);
        a.merge(&b);
        assert_eq!(a.connections, 3);
        assert_eq!(a.requests, 12);
        assert_eq!(a.responses_ok, 4);
        // RunStats::merge delegates field-wise.
        let mut run = RunStats {
            serve: b,
            ..RunStats::default()
        };
        run.merge(&RunStats {
            serve: b,
            ..RunStats::default()
        });
        assert_eq!(run.serve.connections, 4);
    }

    #[test]
    fn profiler_aggregates_and_serializes() {
        let prof = Profiler::new();
        prof.record("screen", 100);
        prof.record("confirm", 50);
        prof.record("screen", 25);
        let trace = prof.trace();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].name, "screen");
        assert_eq!(trace.spans[0].count, 2);
        assert_eq!(trace.spans[0].total_ns, 125);
        assert_eq!(
            trace.to_json(),
            "{\"spans\":[{\"name\":\"screen\",\"count\":2,\"total_ns\":125},\
             {\"name\":\"confirm\",\"count\":1,\"total_ns\":50}]}"
        );
    }

    #[test]
    fn span_guard_records_on_drop() {
        let prof = Profiler::new();
        {
            let _g = prof.span("work");
        }
        let trace = prof.trace();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "work");
        assert_eq!(trace.spans[0].count, 1);
    }

    #[test]
    fn trace_json_escapes_names() {
        let trace = Trace {
            spans: vec![SpanStat {
                name: "a\"b\\c\n".to_string(),
                count: 1,
                total_ns: 2,
            }],
        };
        assert_eq!(
            trace.to_json(),
            "{\"spans\":[{\"name\":\"a\\\"b\\\\c\\u000a\",\"count\":1,\"total_ns\":2}]}"
        );
    }

    #[test]
    fn profiler_clones_share_a_buffer() {
        let prof = Profiler::new();
        let clone = prof.clone();
        clone.record("chunk", 7);
        assert_eq!(prof.trace().spans[0].total_ns, 7);
    }
}
