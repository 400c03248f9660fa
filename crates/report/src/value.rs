//! The typed artifact values the sinks render.

/// Horizontal alignment of a [`Table`] column in the text sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Flush left (labels).
    Left,
    /// Flush right (numbers).
    Right,
}

/// One column of a [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Header label.
    pub name: String,
    /// Text-sink alignment.
    pub align: Align,
    /// Fixed decimal places for [`Cell::Num`] values in the *display*
    /// sinks (txt, Markdown). `None` prints the shortest round-trip
    /// form. CSV and JSON always carry full precision.
    pub precision: Option<usize>,
}

/// One cell of a [`Table`] row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// An empty cell.
    Empty,
    /// A label.
    Text(String),
    /// An integer quantity.
    Int(i64),
    /// A measurement.
    Num(f64),
}

impl Cell {
    /// A text cell.
    pub fn text(s: impl Into<String>) -> Cell {
        Cell::Text(s.into())
    }

    /// An integer cell.
    pub fn int(v: i64) -> Cell {
        Cell::Int(v)
    }

    /// A numeric cell.
    pub fn num(v: f64) -> Cell {
        Cell::Num(v)
    }

    /// A counter cell: an exact `u64` counter (e.g. a probe snapshot
    /// field), saturating at `i64::MAX` — far beyond any real count.
    pub fn count(v: u64) -> Cell {
        Cell::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }

    /// Display-sink rendering under a column's precision.
    pub(crate) fn display(&self, precision: Option<usize>) -> String {
        match self {
            Cell::Empty => String::new(),
            Cell::Text(s) => s.clone(),
            Cell::Int(v) => v.to_string(),
            Cell::Num(v) => match precision {
                Some(p) => format!("{v:.p$}"),
                None => crate::fmt_f64(*v),
            },
        }
    }
}

/// A titled table: columns with alignment/precision, rows of cells,
/// optional footnotes.
///
/// # Examples
///
/// ```
/// use ipass_report::{Cell, Table};
///
/// let t = Table::new("Table 1 — areas [mm²]")
///     .text_column("component")
///     .numeric_column("paper", 3)
///     .numeric_column("measured", 3)
///     .row(vec![Cell::text("IP-R 100 kΩ"), Cell::num(0.25), Cell::num(0.254)])
///     .note("synthesized in the SUMMIT process");
/// assert!(t.to_txt().contains("IP-R"));
/// assert!(t.to_csv().starts_with("component,paper,measured"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Title line.
    pub title: String,
    /// Column specs.
    pub columns: Vec<Column>,
    /// Rows; every row has exactly `columns.len()` cells.
    pub rows: Vec<Vec<Cell>>,
    /// Footnotes.
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table.
    pub fn new(title: impl Into<String>) -> Table {
        Table {
            title: title.into(),
            columns: Vec::new(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a left-aligned text column.
    pub fn text_column(mut self, name: impl Into<String>) -> Table {
        self.columns.push(Column {
            name: name.into(),
            align: Align::Left,
            precision: None,
        });
        self
    }

    /// Append a right-aligned numeric column with fixed decimals in the
    /// display sinks.
    pub fn numeric_column(mut self, name: impl Into<String>, precision: usize) -> Table {
        self.columns.push(Column {
            name: name.into(),
            align: Align::Right,
            precision: Some(precision),
        });
        self
    }

    /// Append a right-aligned column without fixed precision (integers,
    /// shortest-round-trip floats).
    pub fn integer_column(mut self, name: impl Into<String>) -> Table {
        self.columns.push(Column {
            name: name.into(),
            align: Align::Right,
            precision: None,
        });
        self
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics when the cell count disagrees with the column count — a
    /// programming error in the adapter, not a data condition.
    pub fn row(mut self, cells: Vec<Cell>) -> Table {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "table {:?}: row has {} cells for {} columns",
            self.title,
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
        self
    }

    /// Append a footnote.
    pub fn note(mut self, note: impl Into<String>) -> Table {
        self.notes.push(note.into());
        self
    }

    /// Render as aligned plain text.
    pub fn to_txt(&self) -> String {
        crate::txt::table(self)
    }

    /// Render as CSV (headers + rows; notes are omitted).
    pub fn to_csv(&self) -> String {
        crate::csv::table(self)
    }

    /// Render as a Markdown pipe table.
    pub fn to_md(&self) -> String {
        crate::md::table(self)
    }
}

/// One row of a [`Findings`] report: a typed diagnostic from a
/// verification or lint pass.
///
/// The severity is carried as a plain string (`"error"`, `"warning"`,
/// `"info"`, …) so this crate stays below the domain crates — the
/// producer's severity enum maps to its display name at the adapter.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Severity name, e.g. `"error"`.
    pub severity: String,
    /// Stable machine-readable code, e.g. `"threshold-mismatch"`.
    pub code: String,
    /// Where in the subject the finding anchors (a stage/part path,
    /// an op index, or `"program"`).
    pub path: String,
    /// Human-readable explanation.
    pub message: String,
}

/// A titled list of [`Finding`]s — the renderable form of a static
/// verifier's diagnostics.
///
/// Renders to txt/CSV/Markdown as a four-column table and to JSON as a
/// `"kind": "findings"` document carrying per-severity counts, so CI
/// gates can read the counts without re-parsing rows.
///
/// # Examples
///
/// ```
/// use ipass_report::Findings;
///
/// let mut f = Findings::new("lint — demo flow");
/// f.push("warning", "zero-coverage-test", "ft", "test detects nothing");
/// let f = f.note("1 finding");
/// assert!(f.to_csv().starts_with("severity,code,path,message"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Findings {
    /// Title line.
    pub title: String,
    /// The findings, in emission order.
    pub items: Vec<Finding>,
    /// Footnotes.
    pub notes: Vec<String>,
}

impl Findings {
    /// An empty findings list.
    pub fn new(title: impl Into<String>) -> Findings {
        Findings {
            title: title.into(),
            items: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append one finding.
    pub fn push(
        &mut self,
        severity: impl Into<String>,
        code: impl Into<String>,
        path: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.items.push(Finding {
            severity: severity.into(),
            code: code.into(),
            path: path.into(),
            message: message.into(),
        });
    }

    /// Append a footnote.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Findings {
        self.notes.push(note.into());
        self
    }

    /// Per-severity counts, keyed by severity name in first-seen order.
    pub fn counts(&self) -> Vec<(String, usize)> {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for item in &self.items {
            match counts.iter_mut().find(|(name, _)| *name == item.severity) {
                Some((_, n)) => *n += 1,
                None => counts.push((item.severity.clone(), 1)),
            }
        }
        counts
    }

    /// The tabular form the text sinks render.
    pub(crate) fn as_table(&self) -> Table {
        let mut table = Table::new(&self.title)
            .text_column("severity")
            .text_column("code")
            .text_column("path")
            .text_column("message");
        for item in &self.items {
            table = table.row(vec![
                Cell::text(&item.severity),
                Cell::text(&item.code),
                Cell::text(&item.path),
                Cell::text(&item.message),
            ]);
        }
        for note in &self.notes {
            table = table.note(note);
        }
        table
    }

    /// Render as aligned plain text.
    pub fn to_txt(&self) -> String {
        self.as_table().to_txt()
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        self.as_table().to_csv()
    }

    /// Render as a Markdown pipe table.
    pub fn to_md(&self) -> String {
        self.as_table().to_md()
    }
}

/// The x axis of a [`Series`].
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesX {
    /// Categorical positions (e.g. SMD case codes).
    Labels(Vec<String>),
    /// Numeric positions (e.g. a swept parameter).
    Values(Vec<f64>),
}

impl SeriesX {
    /// Number of x positions.
    pub fn len(&self) -> usize {
        match self {
            SeriesX::Labels(l) => l.len(),
            SeriesX::Values(v) => v.len(),
        }
    }

    /// Whether there are no positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Machine-precision string of position `i` (CSV, JSON).
    pub(crate) fn label(&self, i: usize) -> String {
        match self {
            SeriesX::Labels(l) => l[i].clone(),
            SeriesX::Values(v) => crate::fmt_f64(v[i]),
        }
    }

    /// Display string of position `i` under a precision (txt, md, SVG
    /// tick labels).
    pub(crate) fn display_label(&self, i: usize, precision: Option<usize>) -> String {
        match (self, precision) {
            (SeriesX::Values(v), Some(p)) => format!("{:.p$}", v[i]),
            _ => self.label(i),
        }
    }
}

/// One named line of a [`Series`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesLine {
    /// Line label.
    pub name: String,
    /// One value per x position.
    pub values: Vec<f64>,
}

/// One x axis, n named lines — parameter sweeps, the Fig. 1 area
/// ladder.
///
/// # Examples
///
/// ```
/// use ipass_report::{Series, SeriesLine, SeriesX};
///
/// let s = Series::new(
///     "Fig. 1 — area vs SMD type [mm²]",
///     "type",
///     SeriesX::Labels(vec!["0805".into(), "0603".into()]),
/// )
/// .line("body", vec![2.0, 1.28])
/// .line("footprint", vec![4.5, 3.75]);
/// assert!(s.to_csv().starts_with("type,body,footprint"));
/// assert!(s.to_svg().starts_with("<svg"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Title line.
    pub title: String,
    /// The x axis name.
    pub x_name: String,
    /// The x positions.
    pub x: SeriesX,
    /// The named lines; every line has `x.len()` values.
    pub lines: Vec<SeriesLine>,
    /// Fixed decimal places for the *display* sinks (txt, Markdown,
    /// SVG tick labels). `None` prints the shortest round-trip form.
    /// CSV and JSON always carry full precision.
    pub precision: Option<usize>,
    /// Footnotes.
    pub notes: Vec<String>,
}

impl Series {
    /// A series with no lines yet.
    pub fn new(title: impl Into<String>, x_name: impl Into<String>, x: SeriesX) -> Series {
        Series {
            title: title.into(),
            x_name: x_name.into(),
            x,
            lines: Vec::new(),
            precision: None,
            notes: Vec::new(),
        }
    }

    /// Fix the display precision (txt/Markdown/SVG ticks; CSV and JSON
    /// stay at full precision).
    pub fn with_precision(mut self, precision: usize) -> Series {
        self.precision = Some(precision);
        self
    }

    /// Append a line.
    ///
    /// # Panics
    ///
    /// Panics when the value count disagrees with the x positions.
    pub fn line(mut self, name: impl Into<String>, values: Vec<f64>) -> Series {
        assert_eq!(
            values.len(),
            self.x.len(),
            "series {:?}: line has {} values for {} x positions",
            self.title,
            values.len(),
            self.x.len()
        );
        self.lines.push(SeriesLine {
            name: name.into(),
            values,
        });
        self
    }

    /// Render as aligned plain text.
    pub fn to_txt(&self) -> String {
        crate::txt::series(self)
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        crate::csv::series(self)
    }

    /// Render as a Markdown pipe table.
    pub fn to_md(&self) -> String {
        crate::md::series(self)
    }

    /// Render as a standalone SVG chart.
    pub fn to_svg(&self) -> String {
        crate::svg::series(self)
    }
}

/// One labeled amount inside a [`BreakdownGroup`].
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Segment label.
    pub label: String,
    /// Amount.
    pub value: f64,
}

impl Segment {
    /// Create a segment.
    pub fn new(label: impl Into<String>, value: f64) -> Segment {
        Segment {
            label: label.into(),
            value,
        }
    }
}

/// One bar of a [`Breakdown`].
#[derive(Debug, Clone, PartialEq)]
pub struct BreakdownGroup {
    /// Bar label (a solution, a perturbed parameter).
    pub label: String,
    /// Stacked mode: the additive amounts. Range mode: exactly the
    /// `low` and `high` endpoints.
    pub segments: Vec<Segment>,
    /// Non-additive callouts ("thereof: chip cost").
    pub callouts: Vec<Segment>,
}

/// Stacked bars (Fig. 5 cost composition) or — with a
/// [`baseline`](Breakdown::baseline) — low/high range bars around it
/// (the sensitivity tornado).
///
/// # Examples
///
/// ```
/// use ipass_report::{Breakdown, Segment};
///
/// // A tornado: two parameters swung around a 276.2 baseline.
/// let b = Breakdown::new("sensitivity", "cost units")
///     .with_baseline(276.2)
///     .range("chip cost ±10 %", 258.0, 295.0)
///     .range("test cost ±50 %", 271.0, 281.0);
/// assert!(b.to_txt().contains("chip cost"));
/// assert!(b.to_svg().contains("<svg"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Title line.
    pub title: String,
    /// Unit of every amount (display only).
    pub unit: String,
    /// `Some(b)`: range mode — every group is a `[low, high]` pair
    /// drawn around `b`. `None`: stacked mode.
    pub baseline: Option<f64>,
    /// The bars, in presentation order.
    pub groups: Vec<BreakdownGroup>,
    /// Footnotes.
    pub notes: Vec<String>,
}

impl Breakdown {
    /// An empty stacked breakdown.
    pub fn new(title: impl Into<String>, unit: impl Into<String>) -> Breakdown {
        Breakdown {
            title: title.into(),
            unit: unit.into(),
            baseline: None,
            groups: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Switch to range (tornado) mode around a baseline value.
    pub fn with_baseline(mut self, baseline: f64) -> Breakdown {
        self.baseline = Some(baseline);
        self
    }

    /// Append a stacked bar.
    pub fn group(mut self, label: impl Into<String>, segments: Vec<Segment>) -> Breakdown {
        self.groups.push(BreakdownGroup {
            label: label.into(),
            segments,
            callouts: Vec::new(),
        });
        self
    }

    /// Append a stacked bar with non-additive callouts.
    pub fn group_with_callouts(
        mut self,
        label: impl Into<String>,
        segments: Vec<Segment>,
        callouts: Vec<Segment>,
    ) -> Breakdown {
        self.groups.push(BreakdownGroup {
            label: label.into(),
            segments,
            callouts,
        });
        self
    }

    /// Append a range bar (low/high endpoints; range mode).
    pub fn range(self, label: impl Into<String>, low: f64, high: f64) -> Breakdown {
        self.group(
            label,
            vec![Segment::new("low", low), Segment::new("high", high)],
        )
    }

    /// Append a footnote.
    pub fn note(mut self, note: impl Into<String>) -> Breakdown {
        self.notes.push(note.into());
        self
    }

    /// Render as aligned plain text (with unit-width bars).
    pub fn to_txt(&self) -> String {
        crate::txt::breakdown(self)
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        crate::csv::breakdown(self)
    }

    /// Render as Markdown.
    pub fn to_md(&self) -> String {
        crate::md::breakdown(self)
    }

    /// Render as a standalone SVG chart.
    pub fn to_svg(&self) -> String {
        crate::svg::breakdown(self)
    }
}

/// The sense of a [`FrontierPlot`] objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smaller is better (costs).
    LowerIsBetter,
    /// Larger is better (shipped fraction).
    HigherIsBetter,
}

impl Direction {
    /// Short arrow for display sinks.
    pub(crate) fn arrow(self) -> &'static str {
        match self {
            Direction::LowerIsBetter => "↓",
            Direction::HigherIsBetter => "↑",
        }
    }
}

/// One evaluated point of a [`FrontierPlot`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// Sampler point index (the point's identity).
    pub index: usize,
    /// Coordinates, one per axis.
    pub coords: Vec<f64>,
    /// Screened objective values, one per objective.
    pub objectives: Vec<f64>,
    /// Whether the point is on the Pareto frontier.
    pub on_frontier: bool,
    /// Monte Carlo-confirmed objective values, when the point was
    /// promoted by adaptive refinement.
    pub confirmed: Option<Vec<f64>>,
}

/// A screened design space with its non-dominated subset — the
/// design-space frontier artifact.
///
/// # Examples
///
/// ```
/// use ipass_report::{Direction, FrontierPlot, FrontierPoint};
///
/// let plot = FrontierPlot::new(
///     "design space",
///     vec!["volume".into()],
///     vec!["final cost".into()],
///     vec![Direction::LowerIsBetter],
///     vec![FrontierPoint {
///         index: 0,
///         coords: vec![1000.0],
///         objectives: vec![291.3],
///         on_frontier: true,
///         confirmed: None,
///     }],
/// );
/// assert!(plot.to_txt().contains("frontier"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPlot {
    /// Title line.
    pub title: String,
    /// Axis names, aligned with every point's `coords`.
    pub axes: Vec<String>,
    /// Objective names, aligned with every point's `objectives`.
    pub objectives: Vec<String>,
    /// Objective senses, aligned with `objectives`.
    pub directions: Vec<Direction>,
    /// All evaluated points, in sampler index order.
    pub points: Vec<FrontierPoint>,
    /// Footnotes.
    pub notes: Vec<String>,
}

impl FrontierPlot {
    /// Create a plot.
    ///
    /// # Panics
    ///
    /// Panics when `objectives` and `directions` disagree in length, or
    /// a point's arity disagrees with the axis/objective names.
    pub fn new(
        title: impl Into<String>,
        axes: Vec<String>,
        objectives: Vec<String>,
        directions: Vec<Direction>,
        points: Vec<FrontierPoint>,
    ) -> FrontierPlot {
        assert_eq!(
            objectives.len(),
            directions.len(),
            "objective/direction arity mismatch"
        );
        for p in &points {
            assert_eq!(p.coords.len(), axes.len(), "point/axis arity mismatch");
            assert_eq!(
                p.objectives.len(),
                objectives.len(),
                "point/objective arity mismatch"
            );
        }
        FrontierPlot {
            title: title.into(),
            axes,
            objectives,
            directions,
            points,
            notes: Vec::new(),
        }
    }

    /// Append a footnote.
    pub fn note(mut self, note: impl Into<String>) -> FrontierPlot {
        self.notes.push(note.into());
        self
    }

    /// The frontier members, in point-index order.
    pub fn frontier(&self) -> impl Iterator<Item = &FrontierPoint> {
        self.points.iter().filter(|p| p.on_frontier)
    }

    /// Render as aligned plain text (the frontier table plus a screen
    /// summary).
    pub fn to_txt(&self) -> String {
        crate::txt::frontier(self)
    }

    /// Render as CSV (every screened point, with frontier/confirmation
    /// columns).
    pub fn to_csv(&self) -> String {
        crate::csv::frontier(self)
    }

    /// Render as Markdown (the frontier table).
    pub fn to_md(&self) -> String {
        crate::md::frontier(self)
    }

    /// Render as a standalone SVG scatter of the first two objectives.
    pub fn to_svg(&self) -> String {
        crate::svg::frontier(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "row has 1 cells for 2 columns")]
    fn table_arity_is_enforced() {
        let _ = Table::new("t")
            .text_column("a")
            .numeric_column("b", 1)
            .row(vec![Cell::text("only one")]);
    }

    #[test]
    #[should_panic(expected = "line has 1 values for 2 x positions")]
    fn series_arity_is_enforced() {
        let _ = Series::new("s", "x", SeriesX::Values(vec![1.0, 2.0])).line("l", vec![1.0]);
    }

    #[test]
    fn count_cells_are_exact_integers_saturating_at_i64_max() {
        assert_eq!(Cell::count(0), Cell::Int(0));
        assert_eq!(Cell::count(12_345).display(None), "12345");
        assert_eq!(Cell::count(u64::MAX), Cell::Int(i64::MAX));
    }

    #[test]
    fn cell_display_honors_precision() {
        assert_eq!(Cell::num(1.23456).display(Some(2)), "1.23");
        assert_eq!(Cell::num(1.5).display(None), "1.5");
        assert_eq!(Cell::int(7).display(Some(2)), "7");
        assert_eq!(Cell::text("x").display(Some(2)), "x");
        assert_eq!(Cell::Empty.display(None), "");
    }

    #[test]
    fn frontier_filters_members() {
        let plot = FrontierPlot::new(
            "f",
            vec!["x".into()],
            vec!["y".into()],
            vec![Direction::LowerIsBetter],
            vec![
                FrontierPoint {
                    index: 0,
                    coords: vec![0.0],
                    objectives: vec![1.0],
                    on_frontier: true,
                    confirmed: None,
                },
                FrontierPoint {
                    index: 1,
                    coords: vec![1.0],
                    objectives: vec![2.0],
                    on_frontier: false,
                    confirmed: None,
                },
            ],
        );
        assert_eq!(plot.frontier().count(), 1);
    }
}
