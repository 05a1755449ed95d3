//! Sample statistics and the result line.

use std::fmt::Write as _;

/// Median of a sample (the lower middle value for even sizes); zero for
/// an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `p` in `(0, 1]`, as `LatencySummary` computes
/// it; zero for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Geometric mean of positive values; zero for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Scales wall times to a reference machine speed.
///
/// The benchmark runs on shared machines whose speed drifts by tens of
/// percent from minute to minute. A fixed, benchmark-owned probe (random
/// reads and writes over a 32 MiB table mixed with float arithmetic,
/// roughly the simulator's own mix) runs about every half second between
/// samples, on the same CPU. Each sample is scaled by
/// `PROBE_REFERENCE_S` over the mean of the probes just before and just
/// after it: its time on a machine where the probe takes 10 ms.
pub struct ReferenceClock {
    table: Vec<u64>,
    seed: u64,
    last_probe_s: f64,
    since_probe: std::time::Instant,
    pending: Vec<f64>,
    scaled: Vec<f64>,
    probes: Vec<f64>,
}

/// The probe's wall time on the reference machine.
pub const PROBE_REFERENCE_S: f64 = 0.010;

/// Seconds of samples between two probes.
const PROBE_EVERY_S: f64 = 0.5;

impl ReferenceClock {
    pub fn new() -> Self {
        let mut clock = ReferenceClock {
            table: vec![0; 1 << 22],
            seed: 0x9E37_79B9_7F4A_7C15,
            last_probe_s: 0.0,
            since_probe: std::time::Instant::now(),
            pending: Vec::new(),
            scaled: Vec::new(),
            probes: Vec::new(),
        };
        clock.probe(); // touches the table: later probes see no page faults
        clock.probes.clear();
        clock.last_probe_s = clock.probe();
        clock.since_probe = std::time::Instant::now();
        clock
    }

    fn probe(&mut self) -> f64 {
        let start = std::time::Instant::now();
        let mask = self.table.len() - 1;
        let mut x = self.seed;
        let mut acc = 0.0f64;
        for _ in 0..400_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x as usize) & mask];
            *slot = slot.wrapping_add(x);
            acc = acc.mul_add(0.999_999, (*slot >> 40) as f64).sqrt() + 1.0;
        }
        self.seed = std::hint::black_box(x ^ acc.to_bits());
        let elapsed = start.elapsed().as_secs_f64();
        self.probes.push(elapsed);
        elapsed
    }

    /// Records one wall-time sample (any unit; it is scaled linearly).
    pub fn record(&mut self, wall: f64) {
        self.pending.push(wall);
        if self.since_probe.elapsed().as_secs_f64() >= PROBE_EVERY_S {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let probe = self.probe();
        let speed = PROBE_REFERENCE_S / ((self.last_probe_s + probe) / 2.0);
        self.scaled
            .extend(self.pending.drain(..).map(|wall| wall * speed));
        self.last_probe_s = probe;
        self.since_probe = std::time::Instant::now();
    }

    /// Every sample, scaled, in recording order; and every probe time.
    pub fn finish(mut self) -> (Vec<f64>, Vec<f64>) {
        if !self.pending.is_empty() {
            self.flush();
        }
        (self.scaled, self.probes)
    }
}

/// Whether a metric improves upward or downward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
}

/// An ordered set of metrics, printed as a table and then as the JSON
/// result line.
#[derive(Debug, Default)]
pub struct Metrics {
    pub entries: Vec<Metric>,
}

impl Metrics {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        better: Better,
    ) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite ({value})");
        assert!(
            self.entries.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.entries.push(Metric {
            name,
            value,
            unit,
            better,
        });
    }

    pub fn lower(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name, value, unit, Better::Lower);
    }

    pub fn higher(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.push(name, value, unit, Better::Higher);
    }

    /// One `name value unit better` line per metric.
    pub fn table(&self) -> String {
        let width = self.entries.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.entries {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>18}  {:<8}  {}",
                m.name,
                format!("{}", m.value),
                m.unit,
                m.better.label()
            );
        }
        out
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Shortest round-tripping decimal form of a finite f64 (integral
/// values keep a trailing `.0` so every value parses as a float).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_take_the_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.0);
        assert_eq!(percentile(&v, 0.75), 3.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_is_json() {
        let mut m = Metrics::default();
        m.lower("a_ms", 1.25, "ms");
        m.higher("b", 3.0, "count");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
