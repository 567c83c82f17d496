//! The serving acceptance oracles, each a point of [`differential`]:
//!
//! * served-vs-in-process: a served session replaying a fuzzer script
//!   ends byte-identical, pixels and world counters, to the same
//!   script run in-process (three scenes × four seeds, 40 steps each);
//! * `encode`: the same differential with four-way parallel band paint
//!   under the RLE wire encoder — every scene × the same seeds — so the
//!   encoder round-trip and the parallel-vs-serial paint promise are
//!   proven end to end in one byte-identity check;
//! * menu position: a recorded `menu request x y` + `menu select`
//!   script replays served and in-process to the same pixels.

use atk_check::gen::record_script;
use atk_serve::{differential, Script, ServedRun};

const SEEDS: [u64; 4] = [1, 2, 7, 42];
const STEPS: usize = 40;

fn run_scene(run: ServedRun) {
    for seed in SEEDS {
        let steps = record_script(run.scene, run.backend, seed, STEPS).unwrap();
        let report = differential(&run, &Script::private(vec![steps]))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // One frame per synchronous step, plus the initial keyframe.
        assert_eq!(report.frames, STEPS as u64 + 1, "{} seed {seed}", run.scene);
        assert!(
            report.encoded_bytes <= report.raw_bytes,
            "{} seed {seed}: encoder inflated the wire ({} encoded vs {} raw)",
            run.scene,
            report.encoded_bytes,
            report.raw_bytes
        );
    }
}

/// The encoder (on by default) under four-way band paint.
fn run_scene_encoded(scene: &'static str) {
    run_scene(ServedRun {
        paint_threads: 4,
        ..ServedRun::new(scene)
    });
}

#[test]
fn served_matches_in_process_fig1() {
    run_scene(ServedRun::new("fig1"));
}

#[test]
fn served_matches_in_process_fig3() {
    run_scene(ServedRun::new("fig3"));
}

#[test]
fn served_matches_in_process_fig5() {
    run_scene(ServedRun::new("fig5"));
}

#[test]
fn encode_oracle_fig1() {
    run_scene_encoded("fig1");
}

#[test]
fn encode_oracle_fig2() {
    run_scene_encoded("fig2");
}

#[test]
fn encode_oracle_fig3() {
    run_scene_encoded("fig3");
}

#[test]
fn encode_oracle_fig4() {
    run_scene_encoded("fig4");
}

#[test]
fn encode_oracle_fig5() {
    run_scene_encoded("fig5");
}

#[test]
fn menu_position_survives_the_wire() {
    use atk_core::ScriptStep;
    use atk_graphics::Point;
    use atk_wm::WindowEvent;

    // fig3 builds with a focused mail view that offers menus; record a
    // request away from the origin followed by a selection, and demand
    // the served replay land on the in-process replay's exact pixels.
    let mut probe = atk_check::Session::build("fig3", "x11sim").unwrap();
    probe.apply(&ScriptStep::Event(WindowEvent::MenuRequest {
        pos: Point::new(300, 220),
    }));
    let label = probe
        .im
        .offered_menus()
        .first()
        .map(|m| format!("{}/{}", m.card, m.label))
        .expect("fig3 offers menus");

    let script = vec![
        ScriptStep::Event(WindowEvent::MenuRequest {
            pos: Point::new(300, 220),
        }),
        ScriptStep::MenuSelect(label),
        ScriptStep::Event(WindowEvent::Tick(5)),
    ];
    let report = differential(&ServedRun::new("fig3"), &Script::private(vec![script])).unwrap();
    assert_eq!(report.frames, 4);
}
