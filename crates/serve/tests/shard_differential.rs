//! The sharded-vs-single differential: a 4-shard server must be
//! observably identical to a 1-shard server — per-session framebuffers
//! byte-identical, server-wide counters equal — across all five paper
//! scenes and four fuzzer seeds. The comparison is deliberately
//! asymmetric about chaos: the single-shard side runs clean, the
//! 4-shard side runs with transport fault injection *and* readiness-
//! order shuffling armed, so one equality proves shard count, fault
//! schedules, and poll order all invisible at once. Both runs are
//! [`differential`] points, so each is also held to the in-process
//! replay. The only counters allowed to differ are the `serve.shard.*`
//! scheduling plane and `world.template_builds` (templates are
//! per-shard caches, so how many shards built one depends on where
//! sessions landed); `world.forks` stays: one fork per session,
//! whatever the shard count.

use atk_check::gen::record_script;
use atk_serve::{differential, Report, Script, ServedRun};

const SEEDS: [u64; 4] = [1, 2, 7, 42];
const STEPS: usize = 30;
const SESSIONS: usize = 2;

fn shard_free_counters(report: &Report) -> Vec<(&'static str, u64)> {
    report
        .merged
        .counters
        .iter()
        .filter(|(key, _)| !key.starts_with("serve.shard.") && *key != "world.template_builds")
        .copied()
        .collect()
}

fn run_scene(scene: &'static str) {
    for seed in SEEDS {
        let script = Script::private(
            (0..SESSIONS)
                .map(|k| record_script(scene, "x11sim", seed + 1000 * k as u64, STEPS).unwrap())
                .collect(),
        );
        let single_run = ServedRun::new(scene);
        let multi_run = ServedRun {
            shards: 4,
            fault_seed: Some(seed),
            ..single_run
        };
        let single = differential(&single_run, &script)
            .unwrap_or_else(|e| panic!("{scene} seed {seed}: 1-shard run: {e}"));
        let multi = differential(&multi_run, &script)
            .unwrap_or_else(|e| panic!("{scene} seed {seed}: 4-shard chaos run: {e}"));

        assert_eq!(single.framebuffers.len(), SESSIONS);
        assert_eq!(multi.framebuffers.len(), SESSIONS);
        for (k, (a, b)) in single
            .framebuffers
            .iter()
            .zip(&multi.framebuffers)
            .enumerate()
        {
            assert!(
                a.width() == b.width() && a.height() == b.height() && a.pixels() == b.pixels(),
                "{scene} seed {seed} session {k}: 1-shard and 4-shard framebuffers diverge"
            );
        }
        assert_eq!(
            shard_free_counters(&single),
            shard_free_counters(&multi),
            "{scene} seed {seed}: non-shard counters diverge between 1 and 4 shards"
        );
    }
}

#[test]
fn fig1_sharded_differential() {
    run_scene("fig1");
}

#[test]
fn fig2_sharded_differential() {
    run_scene("fig2");
}

#[test]
fn fig3_sharded_differential() {
    run_scene("fig3");
}

#[test]
fn fig4_sharded_differential() {
    run_scene("fig4");
}

#[test]
fn fig5_sharded_differential() {
    run_scene("fig5");
}
