//! Metrics from one run, the tables printed for a reader, and the JSON
//! result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use std::time::Instant;

use crate::served::Served;
use crate::traced::Replay;
use crate::{Outcome, Workload};

/// One named value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// Nearest-rank percentile of unsorted samples (0 for none).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Equal time windows the untraced run is cut into. Time metrics are
/// the median over windows of the per-window value, so a burst of host
/// noise that covers a few windows moves them little.
pub const WINDOWS: usize = 20;

/// One time window of the untraced run.
#[derive(Debug, Default)]
struct Window {
    ops: u64,
    op_us: Vec<f64>,
    ttff_us: Vec<f64>,
    cpu_s: f64,
}

fn windows(s: &Served) -> (Vec<Window>, f64) {
    let mut out: Vec<Window> = (0..WINDOWS).map(|_| Window::default()).collect();
    let Some(start) = s.start else {
        return (out, 0.0);
    };
    let len = s.wall_s / WINDOWS as f64;
    let slot = |at: Instant| ((at - start).as_secs_f64() / len).max(0.0) as usize;
    for (&us, &end) in s.op_us.iter().zip(&s.op_end) {
        let w = &mut out[slot(end).min(WINDOWS - 1)];
        w.ops += 1;
        w.op_us.push(us);
    }
    for (&us, &end) in s.ttff_us.iter().zip(&s.ttff_end) {
        out[slot(end).min(WINDOWS - 1)].ttff_us.push(us);
    }
    // CPU per window from the usage samples: the last sample at or
    // before each window boundary.
    let cpu_at = |k: usize| -> f64 {
        let boundary = k as f64 * len;
        s.usage_samples
            .iter()
            .take_while(|(t, _)| (*t - start).as_secs_f64() <= boundary)
            .last()
            .or(s.usage_samples.first())
            .map_or(0.0, |(_, u)| u.user_s + u.sys_s)
    };
    for (k, w) in out.iter_mut().enumerate() {
        w.cpu_s = if k + 1 == WINDOWS {
            s.usage_samples
                .last()
                .map_or(0.0, |(_, u)| u.user_s + u.sys_s)
                - cpu_at(k)
        } else {
            cpu_at(k + 1) - cpu_at(k)
        };
    }
    (out, len)
}

/// Median over windows of `f`, skipping windows where it is undefined.
fn window_median(ws: &[Window], f: impl Fn(&Window) -> Option<f64>) -> f64 {
    let values: Vec<f64> = ws.iter().filter_map(f).collect();
    percentile(&values, 0.5)
}

/// The end-to-end metrics of the untraced run.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let s = &o.served;
    let (ws, len) = windows(s);
    let pct =
        |q: f64| move |w: &Window| (!w.op_us.is_empty()).then(|| percentile(&w.op_us, q) / 1e3);
    let ttff =
        |q: f64| move |w: &Window| (!w.ttff_us.is_empty()).then(|| percentile(&w.ttff_us, q) / 1e3);
    vec![
        m("setup_s", "s", percentile(&o.setup_s, 0.5)),
        m(
            "ops_per_s",
            "1/s",
            window_median(&ws, |w| Some(ratio(w.ops as f64, len))),
        ),
        m("step_p50_ms", "ms", window_median(&ws, pct(0.50))),
        m("step_p99_ms", "ms", window_median(&ws, pct(0.99))),
        m("ttff_p50_ms", "ms", window_median(&ws, ttff(0.50))),
        m("ttff_p99_ms", "ms", window_median(&ws, ttff(0.99))),
        m(
            "wire_bytes_per_op",
            "B",
            ratio(s.encoded_bytes as f64, s.ops as f64),
        ),
        m(
            "cpu_us_per_op",
            "us",
            window_median(&ws, |w| (w.ops > 0).then(|| w.cpu_s * 1e6 / w.ops as f64)),
        ),
        m("rss_peak_mb", "MB", s.rss_peak_kb as f64 / 1024.0),
    ]
}

/// Whole-run values of the windowed end-to-end metrics, for the table.
fn whole_run(s: &Served) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("ops_per_s", ratio(s.ops as f64, s.wall_s)),
        ("step_p50_ms", percentile(&s.op_us, 0.50) / 1e3),
        ("step_p99_ms", percentile(&s.op_us, 0.99) / 1e3),
        ("ttff_p50_ms", percentile(&s.ttff_us, 0.50) / 1e3),
        ("ttff_p99_ms", percentile(&s.ttff_us, 0.99) / 1e3),
        (
            "cpu_us_per_op",
            ratio((s.usage.user_s + s.usage.sys_s) * 1e6, s.ops as f64),
        ),
    ])
}

/// Name of the root span one op of `w` is recorded under.
fn op_root(w: Workload) -> &'static str {
    match w {
        Workload::Admit => "admit",
        _ => "step",
    }
}

/// Spans of the replay folded by name.
struct Layers {
    /// Summed self time per span name, over spans under op roots, ns.
    op_self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration per span name, over spans under op roots, ns.
    op_dur_ns: BTreeMap<&'static str, u64>,
    /// Every duration per span name, any root, ns.
    all_ns: BTreeMap<&'static str, Vec<f64>>,
    /// Op root durations, µs.
    op_us: Vec<f64>,
    /// Summed self time of op roots over their summed duration.
    unattributed_share: f64,
    /// Mean self time per warm admission, by child name, µs.
    ttff_split: Vec<(&'static str, f64)>,
}

impl Layers {
    fn new(w: Workload, r: &Replay) -> Layers {
        let spans = r.tracer.spans();
        let selfs = r.tracer.self_ns();
        let roots = r.tracer.roots();
        let op = op_root(w);
        let is_op = |i: usize| {
            let name = spans[roots[i]].name;
            name == op || name == "watch"
        };
        let mut l = Layers {
            op_self_ns: BTreeMap::new(),
            op_dur_ns: BTreeMap::new(),
            all_ns: BTreeMap::new(),
            op_us: Vec::new(),
            unattributed_share: 0.0,
            ttff_split: Vec::new(),
        };
        let (mut root_self, mut root_dur) = (0u64, 0u64);
        for (i, s) in spans.iter().enumerate() {
            l.all_ns.entry(s.name).or_default().push(s.dur_ns() as f64);
            if !is_op(i) {
                continue;
            }
            *l.op_self_ns.entry(s.name).or_default() += selfs[i];
            *l.op_dur_ns.entry(s.name).or_default() += s.dur_ns();
            if s.parent.is_none() {
                root_self += selfs[i];
                root_dur += s.dur_ns();
                if s.name == op {
                    l.op_us.push(s.dur_ns() as f64 / 1e3);
                }
            }
        }
        l.unattributed_share = ratio(root_self as f64, root_dur as f64);

        // TTFF split over warm admissions (roots with a `session.open`
        // child): self time of the children that end by the time the
        // client has rebuilt its first frame, and the rest of that
        // interval as unattributed.
        let mut split: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut warm = 0u64;
        for (i, root) in spans.iter().enumerate() {
            if root.parent.is_some() || root.name != "admit" {
                continue;
            }
            let children: Vec<usize> = (i + 1..spans.len())
                .take_while(|&j| roots[j] == i)
                .filter(|&j| spans[j].parent == Some(i))
                .collect();
            let first_frame = children
                .iter()
                .find(|&&j| spans[j].name == "client.keyframe")
                .map(|&j| spans[j].end_ns);
            let is_warm = children.iter().any(|&j| spans[j].name == "session.open");
            let (Some(first_frame), true) = (first_frame, is_warm) else {
                continue;
            };
            warm += 1;
            let mut covered = 0;
            for &j in children.iter().filter(|&&j| spans[j].end_ns <= first_frame) {
                *split.entry(spans[j].name).or_default() += selfs[j];
                covered += spans[j].dur_ns();
            }
            *split.entry("(unattributed)").or_default() +=
                (first_frame - root.start_ns).saturating_sub(covered);
        }
        l.ttff_split = split
            .into_iter()
            .map(|(k, ns)| (k, ratio(ns as f64 / 1e3, warm as f64)))
            .collect();
        l
    }

    /// Self time per op of spans named `name`, µs.
    fn per_op(&self, name: &str, ops: u64) -> f64 {
        ratio(
            *self.op_self_ns.get(name).unwrap_or(&0) as f64 / 1e3,
            ops as f64,
        )
    }

    /// Mean duration of spans named `name`, µs.
    fn mean_us(&self, name: &str) -> f64 {
        self.all_ns.get(name).map_or(0.0, |v| mean(v) / 1e3)
    }
}

/// The traced replay's own end-to-end numbers, for the side-by-side
/// table: `(name, value)` for the metrics the replay can measure.
fn traced_end_to_end(r: &Replay, l: &Layers) -> BTreeMap<&'static str, f64> {
    let ops = r.ops as f64;
    BTreeMap::from([
        ("ops_per_s", ratio(ops, r.wall_s)),
        ("step_p50_ms", percentile(&l.op_us, 0.50) / 1e3),
        ("step_p99_ms", percentile(&l.op_us, 0.99) / 1e3),
        ("ttff_p50_ms", percentile(&r.ttff_us, 0.50) / 1e3),
        ("ttff_p99_ms", percentile(&r.ttff_us, 0.99) / 1e3),
        (
            "wire_bytes_per_op",
            ratio(r.frames.encoded_bytes as f64, ops),
        ),
    ])
}

/// The per-layer metrics: traced self times and counts, plus the
/// untraced server-side numbers.
pub fn per_layer(o: &Outcome, resident_kb: f64) -> Vec<Metric> {
    let w = o.inputs.workload;
    let (s, r) = (&o.served, &o.replay);
    let l = Layers::new(w, r);
    let ops = r.ops;
    let c = |key: &str| ratio(r.counters.counter(key) as f64, ops as f64);
    let counter = |key: &str| r.counters.counter(key) as f64;
    let f = &r.frames;
    let replicas = if w == Workload::Collab { 2.0 } else { 1.0 };
    let hop_us = percentile(&s.op_us, 0.5) - percentile(&l.op_us, 0.5);
    vec![
        m("session.apply_us", "us", l.per_op("session.apply", ops)),
        m("session.settle_us", "us", l.per_op("session.settle", ops)),
        m("session.paint_us", "us", l.per_op("session.paint", ops)),
        m("session.diff_us", "us", l.per_op("session.diff", ops)),
        m(
            "session.frame_self_us",
            "us",
            l.per_op("session.frame", ops),
        ),
        m(
            "session.unchanged_share",
            "share",
            ratio(f.unchanged as f64, f.frames as f64),
        ),
        m(
            "session.keyframe_share",
            "share",
            ratio(f.keyframes as f64, f.frames as f64),
        ),
        m(
            "session.keyframe_us",
            "us",
            ratio(f.keyframe_ns as f64 / 1e3, f.keyframes as f64),
        ),
        m("session.open_us", "us", l.mean_us("session.open")),
        m("session.build_us", "us", l.mean_us("session.build")),
        m(
            "session.initial_keyframe_us",
            "us",
            l.mean_us("session.keyframe"),
        ),
        m("session.resident_kb", "kB", resident_kb),
        m("wire.encode_us", "us", l.per_op("wire.encode", ops)),
        m("wire.decode_us", "us", l.per_op("wire.decode", ops)),
        m(
            "wire.rle_share",
            "share",
            ratio(
                counter("serve.encode.rle"),
                counter("serve.encode.rle") + counter("serve.encode.raw"),
            ),
        ),
        m(
            "wire.encode_ratio",
            "ratio",
            ratio(f.raw_bytes as f64, f.encoded_bytes as f64),
        ),
        m("client.send_us", "us", l.per_op("client.send", ops)),
        m("client.frame_us", "us", l.per_op("client.frame", ops)),
        m("client.keyframe_us", "us", l.mean_us("client.keyframe")),
        m("server.admit_us", "us", mean(&s.admit_us)),
        m("shard.hop_us", "us", hop_us),
        m(
            "shard.batches_per_op",
            "count/op",
            ratio(s.shard_batches as f64, s.ops as f64),
        ),
        m("shard.load_spread", "count", s.load_spread),
        m(
            "serve.backpressure_drops",
            "count",
            s.backpressure_drops as f64,
        ),
        m("im.events", "count/op", c("im.events")),
        m("im.updates", "count/op", c("im.updates")),
        m("world.notify", "count/op", c("world.notify")),
        m("world.post_damage", "count/op", c("world.post_damage")),
        m(
            "world.damage_coalesced",
            "count/op",
            c("world.damage_coalesced"),
        ),
        m("text.relayout_lines", "count/op", c("text.relayout_lines")),
        m(
            "world.xform_cache_hit_share",
            "share",
            ratio(
                counter("world.xform_cache_hit"),
                counter("world.xform_cache_hit") + counter("world.xform_cache_miss"),
            ),
        ),
        m("collab.submit_us", "us", l.per_op("collab.submit", ops)),
        m("collab.drain_us", "us", l.per_op("collab.drain", ops)),
        m(
            "collab.apply_ops_us",
            "us",
            if w == Workload::Collab {
                ratio(
                    *l.op_dur_ns.get("session.frame").unwrap_or(&0) as f64 / 1e3,
                    ops as f64 * replicas,
                )
            } else {
                0.0
            },
        ),
        m(
            "collab.ops_per_frame",
            "ratio",
            ratio(s.watcher_ops as f64, s.watcher_frames as f64),
        ),
        m("collab.replay_lag_p99", "count", s.replay_lag_p99 as f64),
        m("trace.unattributed_share", "share", l.unattributed_share),
        m(
            "failed_share",
            "share",
            ratio(s.failed() as f64, s.attempted as f64),
        ),
    ]
}

/// The human-readable report: untraced and traced end-to-end numbers
/// side by side, per-layer self time per op, the TTFF split, and the
/// correctness verdict.
pub fn tables(o: &Outcome, per_layer: &[Metric]) -> String {
    let w = o.inputs.workload;
    let (s, r) = (&o.served, &o.replay);
    let l = Layers::new(w, r);
    let traced = traced_end_to_end(r, &l);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} · {} untraced ops in {:.2} s · {} traced ops in {:.2} s ==",
        w.name(),
        s.ops,
        s.wall_s,
        r.ops,
        r.wall_s
    );
    let whole = whole_run(s);
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>14} {:>14}  unit  samples (untraced)",
        "end-to-end", "untraced", "whole run", "traced"
    );
    for e in end_to_end(o) {
        let cell = |v: Option<&f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
        let (w, t) = (cell(whole.get(e.name)), cell(traced.get(e.name)));
        let samples = match e.name {
            "step_p50_ms" | "step_p99_ms" => s.op_us.len().to_string(),
            "ttff_p50_ms" | "ttff_p99_ms" => s.ttff_us.len().to_string(),
            "setup_s" => o.setup_s.len().to_string(),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "{:<22} {:>14.4} {:>14} {:>14}  {:<5} {}",
            e.name, e.value, w, t, e.unit, samples
        );
    }
    let _ = writeln!(
        out,
        "failed_share           {:>14.4}  ({} failed of {} attempted; {} busy, {} errors)",
        ratio(s.failed() as f64, s.attempted as f64),
        s.failed(),
        s.attempted,
        s.busy,
        s.errors.len()
    );
    let _ = writeln!(
        out,
        "cpu split per op: {:.1} us user, {:.1} us system, {:.1} minor faults",
        ratio(s.usage.user_s * 1e6, s.ops as f64),
        ratio(s.usage.sys_s * 1e6, s.ops as f64),
        ratio(s.usage.minor_faults as f64, s.ops as f64)
    );
    for e in s.errors.iter().take(5) {
        let _ = writeln!(out, "  error: {e}");
    }

    let _ = writeln!(
        out,
        "\nself time per op on the traced replay ({} ops, root `{}`):",
        r.ops,
        op_root(w)
    );
    let op_total: u64 = l
        .op_dur_ns
        .iter()
        .filter(|(k, _)| **k == op_root(w) || **k == "watch")
        .map(|(_, v)| *v)
        .sum();
    let mut rows: Vec<(&&str, &u64)> = l.op_self_ns.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1));
    for (name, ns) in rows {
        let label = if *name == op_root(w) || *name == "watch" {
            format!("{name} (not covered by a child)")
        } else {
            name.to_string()
        };
        let _ = writeln!(
            out,
            "  {:<38} {:>10.2} us  {:>5.1}%",
            label,
            ratio(*ns as f64 / 1e3, r.ops as f64),
            100.0 * ratio(*ns as f64, op_total as f64)
        );
    }

    let _ = writeln!(
        out,
        "\nTTFF split, mean per warm admission on the traced replay:"
    );
    let total: f64 = l.ttff_split.iter().map(|(_, v)| v).sum();
    for (name, us) in &l.ttff_split {
        let _ = writeln!(
            out,
            "  {:<38} {:>10.2} us  {:>5.1}%",
            name,
            us,
            100.0 * ratio(*us, total)
        );
    }

    let _ = writeln!(out, "\nper-layer:");
    for p in per_layer {
        let _ = writeln!(out, "  {:<30} {:>14.4} {}", p.name, p.value, p.unit);
    }
    let _ = writeln!(
        out,
        "\ncorrectness: {} final framebuffers compared with the traced replay, {} mismatched; \
         {} repeat-round and {} replay mismatches",
        o.verdict.compared, o.verdict.mismatches, s.repeat_mismatches, r.mismatches
    );
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn json_line(o: &Outcome, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct(),
        o.served.attempted.max(1),
        o.served.failed()
    );
    for (i, x) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            x.name,
            x.value,
            x.unit
        );
    }
    out.push_str("}}");
    out
}
