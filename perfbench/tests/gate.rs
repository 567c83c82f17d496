//! The benchmark's own checks: the correctness gate catches a planted
//! one-pixel mismatch, and a seed fixes the inputs and every exact
//! count of a run.

use atk_graphics::Color;
use atk_perfbench::{run, Budget, Inputs, Sizes, Workload};

/// Small pools so each run takes well under a second.
fn small(w: Workload) -> Sizes {
    match w {
        Workload::Admit => Sizes::standard(w),
        _ => Sizes {
            scripts: 2,
            steps: 24,
        },
    }
}

#[test]
fn planted_one_pixel_mismatch_fails_the_run() {
    let w = Workload::Typing;
    let clean = run(w, 3, Budget::Rounds(1), small(w), |_| {}).expect("clean run");
    assert!(
        clean.correct(),
        "clean run failed: {:?}",
        clean.served.errors
    );
    assert_eq!(clean.verdict.mismatches, 0);
    assert!(clean.verdict.compared > 0, "the gate compared nothing");

    let planted = run(w, 3, Budget::Rounds(1), small(w), |served| {
        let fb = served
            .finals
            .values_mut()
            .next()
            .expect("a final framebuffer");
        let Color(px) = fb.get(0, 0);
        fb.set(0, 0, Color(px ^ 1));
    })
    .expect("planted run");
    assert_eq!(planted.verdict.mismatches, 1);
    assert!(planted.served.failed() >= 1);
    assert!(!planted.correct());
}

#[test]
fn a_seed_fixes_inputs_and_exact_counts() {
    for w in Workload::ALL {
        let a = run(w, 11, Budget::Rounds(1), small(w), |_| {}).expect("first run");
        let b = run(w, 11, Budget::Rounds(1), small(w), |_| {}).expect("second run");
        assert!(a.correct() && b.correct(), "{}: a run failed", w.name());
        assert_eq!(a.inputs, b.inputs, "{}: inputs differ", w.name());
        assert_eq!(a.served.ops, b.served.ops, "{}: ops differ", w.name());
        assert!(a.served.ops > 0, "{}: no ops", w.name());
        // Watcher batching on `collab` follows thread timing, so only
        // the private workloads fix their frame and byte counts.
        if w != Workload::Collab {
            assert_eq!(a.served.frames, b.served.frames, "{}: frames", w.name());
            assert_eq!(
                a.served.encoded_bytes,
                b.served.encoded_bytes,
                "{}: wire bytes",
                w.name()
            );
        }
        let other = Inputs::generate(w, 12, small(w)).expect("inputs");
        assert_ne!(a.inputs, other, "{}: seed does not change inputs", w.name());
    }
}
