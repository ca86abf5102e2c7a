//! Turns rounds into the metrics the benchmark prints.

use std::collections::BTreeMap;

use crate::client::ClientStats;
use crate::layers::{Layer, Span};
use crate::round::RoundResult;

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value: if value.is_finite() { value } else { 0.0 } }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q`-quantile (0..=1) of `values` by nearest rank.
pub fn quantile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A field of `/proc/self/status` given in kB, in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resident set size of this process now (`VmRSS`), in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Per-round figures kept after a round's spans are dropped.  Timings are
/// taken per round and reported as the median over rounds, so a round hit
/// by a scheduling hiccup on the host moves a run's figure little.
///
/// A round's read, fsync and create latencies are dropped once their
/// percentiles are taken, so the memory a run holds does not grow with the
/// number of rounds the host fits into `--seconds`.
#[derive(Debug, Default)]
pub struct RunTotals {
    pub rounds: usize,
    pub setup_s: Vec<f64>,
    pub ops_per_s: Vec<f64>,
    /// Per-round percentiles, in µs, by metric name.
    per_round: BTreeMap<&'static str, Vec<f64>>,
    /// Latency samples taken over all rounds, by kind.
    reads: u64,
    fsyncs: u64,
    creates: u64,
    /// Merged client stats, without the read, fsync and create latencies.
    pub stats: ClientStats,
    pub problems: Vec<String>,
    pub layers: LayerTotals,
    /// Resident set (MiB) before the first round: the program, and the RAM
    /// disk with every block written.  `peak_rss_mib` is the peak above it.
    pub rss_baseline_mib: f64,
}

impl RunTotals {
    pub fn new(rss_baseline_mib: f64) -> RunTotals {
        RunTotals { rss_baseline_mib, ..RunTotals::default() }
    }

    /// Folds `round` in and hands back its spans.
    pub fn add(&mut self, mut round: RoundResult) -> Vec<Span> {
        self.rounds += 1;
        self.setup_s.push(round.setup_s);
        self.ops_per_s.push(ratio(round.stats.mix_ops as f64, round.window_s));
        let s = &mut round.stats;
        for (name, samples, q) in [
            ("read_p50_us", &s.read_ns, 0.50),
            ("read_p90_us", &s.read_ns, 0.90),
            ("read_p99_us", &s.read_ns, 0.99),
            ("fsync_p50_us", &s.fsync_ns, 0.50),
            ("fsync_p90_us", &s.fsync_ns, 0.90),
            ("fsync_p99_us", &s.fsync_ns, 0.99),
            ("create_p50_us", &s.create_ns, 0.50),
            ("create_p90_us", &s.create_ns, 0.90),
        ] {
            self.per_round.entry(name).or_default().push(quantile(samples, q) / 1000.0);
        }
        self.reads += std::mem::take(&mut s.read_ns).len() as u64;
        self.fsyncs += std::mem::take(&mut s.fsync_ns).len() as u64;
        self.creates += std::mem::take(&mut s.create_ns).len() as u64;
        self.layers.add(&round);
        self.problems.extend(round.problems);
        self.stats.merge(round.stats);
        std::mem::take(&mut round.spans)
    }

    fn per_round(&self, name: &'static str) -> Metric {
        metric(name, "us", median_f64(&self.per_round[name]))
    }

    pub fn end_to_end(&self) -> Vec<Metric> {
        let per_round = |name| self.per_round(name);
        vec![
            metric("setup_s", "s", median_f64(&self.setup_s)),
            metric("ops_per_s", "ops/s", median_f64(&self.ops_per_s)),
            per_round("read_p50_us"),
            per_round("read_p90_us"),
            per_round("fsync_p50_us"),
            per_round("fsync_p90_us"),
            per_round("create_p50_us"),
            // A round has too few upgrades for a percentile of its own.
            metric("upgrade_pause_us", "us", quantile(&self.stats.upgrade_ns, 0.50) / 1000.0),
            metric("peak_rss_mib", "MiB", peak_rss_mib() - self.rss_baseline_mib),
        ]
    }

    /// Figures printed for reading but not gated (tails with few samples
    /// beyond them move run to run).
    pub fn ungated(&self) -> Vec<Metric> {
        let s = &self.stats;
        vec![
            self.per_round("read_p99_us"),
            self.per_round("fsync_p99_us"),
            self.per_round("create_p90_us"),
            metric("upgrade_pause_max_us", "us", quantile(&s.upgrade_ns, 1.0) / 1000.0),
            metric("peak_rss_total_mib", "MiB", peak_rss_mib()),
            metric("read_samples", "count", self.reads as f64),
            metric("fsync_samples", "count", self.fsyncs as f64),
            metric("create_samples", "count", self.creates as f64),
            metric("upgrades", "count", s.upgrade_ns.len() as f64),
            metric("rounds", "count", self.rounds as f64),
        ]
    }

    pub fn per_layer(&self) -> Vec<Metric> {
        self.layers.metrics(&self.stats, self.reads, self.fsyncs, &self.ops_per_s)
    }
}

/// Count, total and self time of one kind of call.
#[derive(Debug, Default, Clone, Copy)]
struct CallSum {
    calls: u64,
    dur_ns: u64,
    self_ns: u64,
}

impl CallSum {
    fn add(&mut self, span: &Span) {
        self.calls += 1;
        self.dur_ns += span.dur_ns;
        self.self_ns += span.self_ns();
    }
}

/// Sums over every traced round.
#[derive(Debug, Default)]
pub struct LayerTotals {
    app_ops: u64,
    by_layer: BTreeMap<Layer, CallSum>,
    by_call: BTreeMap<(Layer, &'static str), CallSum>,
    window_ns: u64,
    dev_busy_ns: u64,
    upgrades: u64,
    ops_delayed: u64,
    read_hits: u64,
    read_fills: u64,
    writeback_pages: u64,
    writeback_batches: u64,
    log_commits: u64,
    log_ops: u64,
    log_blocks: u64,
    log_barriers: u64,
}

impl LayerTotals {
    fn add(&mut self, round: &RoundResult) {
        if round.spans.is_empty() {
            return;
        }
        for span in &round.spans {
            self.by_layer.entry(span.layer).or_default().add(span);
            self.by_call.entry((span.layer, span.name)).or_default().add(span);
            if span.layer == Layer::Op && !matches!(span.name, "sync" | "upgrade") {
                self.app_ops += 1;
            }
        }
        self.window_ns += round.window_end_ns - round.window_start_ns;
        self.dev_busy_ns += busy_ns(&round.spans, round.window_start_ns, round.window_end_ns);
        for up in round.spans.iter().filter(|s| s.layer == Layer::Upgrade) {
            self.upgrades += 1;
            self.ops_delayed += round
                .spans
                .iter()
                .filter(|s| s.layer == Layer::Op && s.name != "upgrade")
                .filter(|s| s.start_ns < up.end_ns() && s.end_ns() > up.start_ns)
                .count() as u64;
        }
        let (b, a) = (&round.before, &round.after);
        self.read_hits += a.page_cache.read_hits - b.page_cache.read_hits;
        self.read_fills += a.page_cache.read_fills - b.page_cache.read_fills;
        self.writeback_pages += a.page_cache.writeback_batched - b.page_cache.writeback_batched;
        self.writeback_batches += a.page_cache.writeback_batches - b.page_cache.writeback_batches;
        self.log_commits += a.write_path.log_commits - b.write_path.log_commits;
        self.log_ops += a.write_path.log_ops - b.write_path.log_ops;
        self.log_blocks += a.write_path.log_blocks - b.write_path.log_blocks;
        self.log_barriers += a.write_path.log_barriers - b.write_path.log_barriers;
    }

    fn call(&self, layer: Layer, name: &'static str) -> CallSum {
        self.by_call.get(&(layer, name)).copied().unwrap_or_default()
    }

    fn layer(&self, layer: Layer) -> CallSum {
        self.by_layer.get(&layer).copied().unwrap_or_default()
    }

    fn metrics(
        &self,
        stats: &ClientStats,
        reads: u64,
        fsyncs: u64,
        ops_per_s: &[f64],
    ) -> Vec<Metric> {
        let ops = self.app_ops as f64;
        let us = |ns: u64| ns as f64 / 1000.0;
        let per_op_us = |ns: u64| ratio(us(ns), ops);
        let mean_call_us = |name| {
            let c = self.call(Layer::Xv6, name);
            ratio(us(c.dur_ns), c.calls as f64)
        };
        let (reads, fsyncs) = (reads as f64, fsyncs as f64);
        let user_blocks = stats.bytes_written as f64 / 4096.0;
        let commits = self.log_commits as f64;
        let upgrades = self.upgrades as f64;
        let dev_writes = self.call(Layer::Dev, "write").calls as f64;
        vec![
            metric("vfs.self_us_per_op", "us", per_op_us(self.layer(Layer::Vfs).self_ns)),
            metric(
                "vfs.fs_calls_per_op",
                "count",
                ratio(self.layer(Layer::Bento).calls as f64, ops),
            ),
            metric(
                "pagecache.read_hit_ratio",
                "ratio",
                ratio(self.read_hits as f64, stats.bytes_read as f64),
            ),
            metric("pagecache.fill_pages_per_read", "count", ratio(self.read_fills as f64, reads)),
            metric(
                "pagecache.writeback_pages_per_batch",
                "count",
                ratio(self.writeback_pages as f64, self.writeback_batches as f64),
            ),
            metric(
                "bento.self_ns_per_call",
                "ns",
                ratio(
                    self.layer(Layer::Bento).self_ns as f64,
                    self.layer(Layer::Bento).calls as f64,
                ),
            ),
            metric("bento.calls_per_op", "count", ratio(self.layer(Layer::Xv6).calls as f64, ops)),
            metric("xv6fs.self_us_per_op", "us", per_op_us(self.layer(Layer::Xv6).self_ns)),
            metric("xv6fs.lookup_us", "us", mean_call_us("lookup")),
            metric("xv6fs.create_us", "us", mean_call_us("create")),
            metric("xv6fs.unlink_us", "us", mean_call_us("unlink")),
            metric("xv6fs.read_us", "us", mean_call_us("read")),
            metric("xv6fs.write_us", "us", mean_call_us("write")),
            metric("xv6fs.fsync_us", "us", mean_call_us("fsync")),
            metric("journal.ops_per_commit", "count", ratio(self.log_ops as f64, commits)),
            metric(
                "journal.barriers_per_commit",
                "count",
                ratio(self.log_barriers as f64, commits),
            ),
            metric("journal.blocks_per_commit", "count", ratio(self.log_blocks as f64, commits)),
            metric(
                "journal.commit_wait_us_per_fsync",
                "us",
                ratio(us(stats.commit_wait_in_fsync_ns), fsyncs),
            ),
            metric("journal.reserve_wait_us_per_op", "us", per_op_us(stats.log_reserve_ns)),
            metric(
                "journal.logged_blocks_per_user_block",
                "count",
                ratio(self.log_blocks as f64, user_blocks),
            ),
            metric(
                "nslock.wait_us_per_namespace_op",
                "us",
                ratio(us(stats.nslock_in_namespace_ns), stats.namespace_ops as f64),
            ),
            metric(
                "dev.flushes_per_fsync",
                "count",
                ratio(self.call(Layer::Dev, "flush").calls as f64, fsyncs),
            ),
            metric(
                "dev.reads_per_op",
                "count",
                ratio(self.call(Layer::Dev, "read").calls as f64, ops),
            ),
            metric("dev.writes_per_op", "count", ratio(dev_writes, ops)),
            metric(
                "dev.bytes_written_per_user_byte",
                "ratio",
                ratio(dev_writes * 4096.0, stats.bytes_written as f64),
            ),
            metric(
                "dev.busy_share",
                "ratio",
                ratio(self.dev_busy_ns as f64, self.window_ns as f64),
            ),
            metric(
                "upgrade.extract_us",
                "us",
                ratio(us(self.call(Layer::Xv6, "extract_state").dur_ns), upgrades),
            ),
            metric(
                "upgrade.restore_us",
                "us",
                ratio(us(self.call(Layer::Xv6, "restore_state").dur_ns), upgrades),
            ),
            metric(
                "upgrade.quiesce_us",
                "us",
                ratio(us(self.layer(Layer::Upgrade).self_ns), upgrades),
            ),
            metric(
                "upgrade.ops_delayed_per_upgrade",
                "count",
                ratio(self.ops_delayed as f64, upgrades),
            ),
            metric("client.us_per_op", "us", per_op_us(self.layer(Layer::Client).dur_ns)),
            metric("client.traced_ops_per_s", "ops/s", median_f64(ops_per_s)),
        ]
    }
}

/// Time within `[from, to]` during which at least one device call was in
/// flight.
fn busy_ns(spans: &[Span], from: u64, to: u64) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.layer == Layer::Dev && s.end_ns() > from && s.start_ns < to)
        .map(|s| (s.start_ns.max(from), s.end_ns().min(to)))
        .collect();
    intervals.sort_unstable();
    let mut busy = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            _ => {
                if let Some((s, e)) = current {
                    busy += e - s;
                }
                current = Some((start, end));
            }
        }
    }
    busy + current.map_or(0, |(s, e)| e - s)
}

/// Writes one JSON object with the run's outcome and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn busy_time_merges_overlaps() {
        let span = |start_ns, dur_ns| Span {
            layer: Layer::Dev,
            name: "read",
            op: 0,
            start_ns,
            dur_ns,
            child_ns: 0,
        };
        let spans = [span(10, 10), span(15, 10), span(40, 5), span(90, 20)];
        assert_eq!(busy_ns(&spans, 0, 100), 15 + 5 + 10);
    }
}
