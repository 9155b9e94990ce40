//! What one workload run reports, and the statistics behind it.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Duration;

/// End-to-end metrics. Every workload reports every one of them, as
/// `e2e` report lines.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("prepare_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("answered_share", "share"),
    ("failed_share", "share"),
    ("cex_size_mean", "tuples"),
    ("peak_rss_mb", "MB"),
];

/// The end-to-end metrics of the result line with `--trace 0`, the ones
/// `BENCHMARK.json` bounds. The others are left out because on a shared
/// host they swing between runs by about as much as the largest bound
/// allowed, or more (figures in `perfbench/README.md`).
pub const GATED: &[&str] = &[
    "setup_s",
    "throughput_rps",
    "answered_share",
    "cex_size_mean",
    "peak_rss_mb",
];

/// Per-layer metrics, printed with `--trace 1`: the ones every workload
/// can measure. Layer figures that only one workload produces are printed
/// as report lines above the result (see `perfbench/README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen_ms", "ms"),
    ("ra.eval_ms", "ms"),
    ("ra.fingerprint_us", "us"),
    ("ra.eval.rows_scanned", "rows/search"),
    ("provenance.annotate.rows", "rows/search"),
    ("delta.rows_touched", "rows/search"),
    ("rows_work", "rows/search"),
    ("delta.incremental_ratio", "ratio"),
    ("solver.calls", "calls/search"),
    ("solver.conflicts", "count/search"),
    ("solver.decisions", "count/search"),
    ("explain.fallback_ratio", "ratio"),
    ("grader.cache_hit_ratio", "ratio"),
    ("repair.candidates_tried", "count/request"),
    ("repair.confirmed_ratio", "ratio"),
    ("serve.backlog_max", "count"),
    ("trace.spans", "count"),
];

/// Registry counters the workloads read from `Grader::metrics_snapshot()`
/// or from serve `stats` replies.
pub const COUNTERS: &[&str] = &[
    "ra.eval.rows_scanned",
    "provenance.annotate.rows",
    "delta.rows_touched",
    "delta.candidates_incremental",
    "delta.fallbacks_scratch",
    "delta.plans_compiled",
    "solver.calls",
    "solver.conflicts",
    "solver.decisions",
    "explain.runs",
    "explain.fallbacks",
    "grader.cache_hits",
    "grader.cache_misses",
    "grader.searches",
    "repair.requests",
    "repair.candidates_tried",
    "repair.suggestions_found",
];

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; any one fails the run.
    pub violations: Vec<String>,
}

impl Report {
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    pub fn violation(&mut self, text: impl Into<String>) {
        self.violations.push(text.into());
    }

    /// Record the registry-derived per-layer metrics: counts per search
    /// (so that they do not grow with the number of requests a run fits in)
    /// and ratios, each printed with its base.
    pub fn counter_layers(&mut self, c: &Counters) {
        let searches = c.get("grader.searches");
        let per_search = [
            ("ra.eval.rows_scanned", c.get("ra.eval.rows_scanned")),
            (
                "provenance.annotate.rows",
                c.get("provenance.annotate.rows"),
            ),
            ("delta.rows_touched", c.get("delta.rows_touched")),
            (
                "rows_work",
                c.get("ra.eval.rows_scanned") + c.get("delta.rows_touched"),
            ),
            ("solver.calls", c.get("solver.calls")),
            ("solver.conflicts", c.get("solver.conflicts")),
            ("solver.decisions", c.get("solver.decisions")),
        ];
        for (name, total) in per_search {
            self.ratio(name, total, searches, &format!("{name} / grader.searches"));
        }
        self.ratio(
            "repair.candidates_tried",
            c.get("repair.candidates_tried"),
            c.get("repair.requests"),
            "repair.candidates_tried / repair.requests",
        );
        let incremental = c.get("delta.candidates_incremental");
        self.ratio(
            "delta.incremental_ratio",
            incremental,
            incremental + c.get("delta.fallbacks_scratch"),
            "delta.candidates_incremental / (delta.candidates_incremental + delta.fallbacks_scratch)",
        );
        self.ratio(
            "explain.fallback_ratio",
            c.get("explain.fallbacks"),
            c.get("explain.runs"),
            "explain.fallbacks / explain.runs",
        );
        let hits = c.get("grader.cache_hits");
        self.ratio(
            "grader.cache_hit_ratio",
            hits,
            hits + c.get("grader.cache_misses"),
            "grader.cache_hits / (grader.cache_hits + grader.cache_misses)",
        );
        self.ratio(
            "repair.confirmed_ratio",
            c.get("repair.suggestions_found"),
            c.get("repair.candidates_tried"),
            "repair.suggestions_found / repair.candidates_tried",
        );
        self.line(format!(
            "layer delta.plans_compiled = {}",
            c.get("delta.plans_compiled")
        ));
    }

    /// A ratio with its base; 0 when the base is empty.
    pub fn ratio(&mut self, name: &'static str, part: u64, base: u64, formula: &str) {
        let value = if base == 0 {
            0.0
        } else {
            part as f64 / base as f64
        };
        self.layers.insert(name, value);
        self.line(format!(
            "layer {name} = {value:.4} ({formula} = {part} / {base})"
        ));
    }
}

/// Sums of registry counters over several graders or daemons.
#[derive(Debug, Default, Clone)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    pub fn add(&mut self, name: &'static str, value: u64) {
        *self.0.entry(name).or_default() += value;
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of the values; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `q`-quantile with linear interpolation between closest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail of a latency sample: the value with exactly ten samples above
/// it, i.e. the highest percentile that still has ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
    pub beyond: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // With ten or fewer samples no percentile has ten beyond it; the
    // median stands in, and `beyond` says how many samples exceed it.
    let idx = if n > 10 {
        n - 11
    } else {
        n.saturating_sub(1) / 2
    };
    Tail {
        value: sorted.get(idx).copied().unwrap_or(0.0),
        percentile: if n == 0 {
            0.0
        } else {
            100.0 * (idx + 1) as f64 / n as f64
        },
        samples: n,
        beyond: n.saturating_sub(idx + 1),
    }
}

impl Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} ms at p{:.1} of {} samples ({} beyond it)",
            self.value, self.percentile, self.samples, self.beyond
        )
    }
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
