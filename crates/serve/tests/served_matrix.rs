//! The served differential over a pairwise flag matrix.
//!
//! Seven two-level flags — shard count, transport faults, template
//! fork, wire encoder, band paint, display backend and document
//! sharing — give 128 configurations. The six hand-written rows of
//! [`ROWS`] hold every pair of values of every two flags at least once
//! (checked by `every_flag_pair_is_covered`), so a bug that needs two
//! features together is in reach of some row. Each scene × seed runs
//! every row through [`differential`]; a divergence is shrunk at the
//! same point to a 1-minimal script before the test fails.

use std::sync::Arc;

use atk_check::gen::{interleaved_script, record_script};
use atk_check::shrink::minimize;
use atk_serve::{differential, Script, ServedRun};
use atk_trace::Collector;

const SEEDS: [u64; 1] = [3];
const STEPS: usize = 12;

/// One matrix row: every field has exactly two levels.
struct Row {
    shards: usize,
    faults: bool,
    fork: bool,
    encode: bool,
    paint_threads: usize,
    backend: &'static str,
    /// Shared document (2 writers + 2 watchers) instead of 2 private
    /// sessions.
    shared: bool,
}

impl Row {
    /// Each flag's name and level: `false` is the server default.
    fn levels(&self) -> [(&'static str, bool); 7] {
        [
            ("shards", self.shards != 1),
            ("faults", self.faults),
            ("fork", !self.fork),
            ("encode", !self.encode),
            ("paint_threads", self.paint_threads != 1),
            ("backend", self.backend != "x11sim"),
            ("sharing", self.shared),
        ]
    }
}

#[rustfmt::skip]
const ROWS: [Row; 6] = [
    Row { shards: 1, faults: false, fork: true,  encode: true,  paint_threads: 1, backend: "x11sim", shared: false },
    Row { shards: 4, faults: true,  fork: false, encode: true,  paint_threads: 1, backend: "awmsim", shared: false },
    Row { shards: 1, faults: false, fork: true,  encode: false, paint_threads: 4, backend: "awmsim", shared: true  },
    Row { shards: 4, faults: true,  fork: true,  encode: false, paint_threads: 1, backend: "x11sim", shared: true  },
    Row { shards: 4, faults: false, fork: false, encode: true,  paint_threads: 4, backend: "x11sim", shared: true  },
    Row { shards: 1, faults: true,  fork: false, encode: false, paint_threads: 4, backend: "x11sim", shared: false },
];

#[test]
fn every_flag_pair_is_covered() {
    let flags = ROWS[0].levels().map(|(name, _)| name);
    let mut pairs = 0;
    for a in 0..flags.len() {
        for b in a + 1..flags.len() {
            for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
                assert!(
                    ROWS.iter()
                        .any(|r| r.levels()[a].1 == va && r.levels()[b].1 == vb),
                    "no row has {}={} with {}={}",
                    flags[a],
                    va as u8,
                    flags[b],
                    vb as u8,
                );
                pairs += 1;
            }
        }
    }
    println!("{} rows cover all {pairs} flag-value pairs", ROWS.len());
}

/// Runs `script` at `run`; on a divergence, shrinks the script at the
/// same point and panics with the point and the 1-minimal script.
fn check(run: &ServedRun, script: &Script) {
    let Err(first) = differential(run, script) else {
        return;
    };
    let collector = Arc::new(Collector::new());
    let minimal = minimize(&script.steps, &collector, |candidate| {
        let candidate = Script {
            steps: candidate.to_vec(),
            ..script.clone()
        };
        differential(run, &candidate).is_err()
    });
    let lines: String = minimal
        .iter()
        .map(|(who, step)| format!("\n{who}: {}", step.to_line().unwrap_or_default()))
        .collect();
    panic!(
        "{run:?} diverges: {first}\n1-minimal script ({} steps):{lines}",
        minimal.len()
    );
}

fn run_scene(scene: &'static str) {
    for seed in SEEDS {
        // Recorded once on x11sim: recorded steps are concrete, so the
        // awmsim rows replay the same scripts.
        let private: Vec<_> = (0..2)
            .map(|k| record_script(scene, "x11sim", seed + 1000 * k, STEPS).unwrap())
            .collect();
        let shared = interleaved_script(scene, seed, 2, STEPS).unwrap();
        for row in ROWS {
            let run = ServedRun {
                scene,
                backend: row.backend,
                shards: row.shards,
                fault_seed: row.faults.then_some(seed),
                fork: row.fork,
                encode: row.encode,
                paint_threads: row.paint_threads,
            };
            let script = if row.shared {
                Script::shared(2, 2, shared.clone())
            } else {
                Script::private(private.clone())
            };
            check(&run, &script);
        }
    }
}

#[test]
fn matrix_fig1() {
    run_scene("fig1");
}

#[test]
fn matrix_fig3() {
    run_scene("fig3");
}

#[test]
fn matrix_fig5() {
    run_scene("fig5");
}
