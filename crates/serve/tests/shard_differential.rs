//! The sharded-vs-single differential oracle: a 4-shard server must be
//! observably identical to a 1-shard server — per-session framebuffers
//! byte-identical, server-wide counters equal — across all five paper
//! scenes and four fuzzer seeds. The comparison is deliberately
//! asymmetric about chaos: the single-shard side runs clean, the
//! 4-shard side runs with transport fault injection *and* readiness-
//! order shuffling armed, so one equality proves shard count, fault
//! schedules, and poll order all invisible at once. The only thing
//! allowed to differ is the `serve.shard.*` scheduling plane, which
//! [`run_sharded`] strips before reporting.

use atk_check::Session;
use atk_serve::loadgen::{client_script, Profile};
use atk_serve::{run_sharded, SessionConfig, ShardedRun};

const SEEDS: [u64; 4] = [1, 2, 7, 42];
const STEPS: usize = 30;
const SESSIONS: usize = 2;

fn scripts_for(scene: &str, seed: u64) -> Vec<Vec<atk_core::ScriptStep>> {
    (0..SESSIONS)
        .map(|k| {
            client_script(Profile::Mixed, scene, seed + 1000 * k as u64, STEPS)
                .unwrap_or_else(|e| panic!("{scene} seed {seed}: record: {e}"))
        })
        .collect()
}

fn assert_same_pixels(scene: &str, seed: u64, session: usize, a: &ShardedRun, b: &ShardedRun) {
    let (fa, fb) = (&a.framebuffers[session], &b.framebuffers[session]);
    assert!(
        fa.width() == fb.width() && fa.height() == fb.height() && fa.pixels() == fb.pixels(),
        "{scene} seed {seed} session {session}: 1-shard and 4-shard framebuffers diverge \
         ({}x{} vs {}x{})",
        fa.width(),
        fa.height(),
        fb.width(),
        fb.height(),
    );
}

fn run_scene(scene: &str) {
    for seed in SEEDS {
        let scripts = scripts_for(scene, seed);
        let single = run_sharded(scene, &scripts, 1, SessionConfig::default(), None)
            .unwrap_or_else(|e| panic!("{scene} seed {seed}: 1-shard run: {e}"));
        let multi = run_sharded(scene, &scripts, 4, SessionConfig::default(), Some(seed))
            .unwrap_or_else(|e| panic!("{scene} seed {seed}: 4-shard chaos run: {e}"));

        assert_eq!(single.framebuffers.len(), SESSIONS);
        assert_eq!(multi.framebuffers.len(), SESSIONS);
        for (k, script) in scripts.iter().enumerate() {
            assert_same_pixels(scene, seed, k, &single, &multi);

            // Anchor both to ground truth: the in-process session run.
            let mut reference = Session::build(scene, "x11sim").unwrap();
            for step in script {
                reference.apply(step);
            }
            let want = reference.im.snapshot().expect("reference has pixels");
            let got = &single.framebuffers[k];
            assert!(
                got.width() == want.width()
                    && got.height() == want.height()
                    && got.pixels() == want.pixels(),
                "{scene} seed {seed} session {k}: served diverges from in-process"
            );
        }

        assert_eq!(
            single.counters, multi.counters,
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
