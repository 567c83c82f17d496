//! The menu rule, checked once at the replayer every caller shares: a
//! `menu select` pops its menu where the last `menu request` did, and
//! the per-step (`apply`), batched (`post` plus one pump) and scripted
//! (`EventScript::run`) entry points all land on the same pixels.

use atk_apps::scenes::build_scene;
use atk_core::{EventScript, ScriptStep, StepReplayer};
use atk_graphics::Point;
use atk_wm::WindowEvent;

/// How a script reaches the interaction manager.
#[derive(Clone, Copy)]
enum Entry {
    Apply,
    PostThenPump,
    Run,
}

fn request(x: i32, y: i32) -> ScriptStep {
    ScriptStep::Event(WindowEvent::MenuRequest {
        pos: Point::new(x, y),
    })
}

/// The first menu label fig3 offers, as `card/label`.
fn first_label() -> String {
    let mut scene = build_scene("fig3", "x11sim").unwrap();
    StepReplayer::default().apply(&mut scene.im, &mut scene.world, &request(300, 220));
    scene
        .im
        .offered_menus()
        .first()
        .map(|m| format!("{}/{}", m.card, m.label))
        .expect("fig3 offers menus")
}

fn pixels(steps: &[ScriptStep], entry: Entry) -> Vec<u32> {
    let mut scene = build_scene("fig3", "x11sim").unwrap();
    let (im, world) = (&mut scene.im, &mut scene.world);
    match entry {
        Entry::Apply => {
            let mut replayer = StepReplayer::default();
            for step in steps {
                replayer.apply(im, world, step);
            }
        }
        Entry::PostThenPump => {
            let mut replayer = StepReplayer::default();
            for step in steps {
                replayer.post(im, world, step);
            }
            im.pump(world);
        }
        Entry::Run => EventScript {
            steps: steps.to_vec(),
        }
        .run(im, world),
    }
    im.snapshot().unwrap().pixels().to_vec()
}

/// The rule spelled out on the interaction manager: a request at
/// (300, 220), the select's re-pop at `repop`, the select, a pump.
fn by_hand(label: &str, repop: Point) -> Vec<u32> {
    let mut scene = build_scene("fig3", "x11sim").unwrap();
    let (im, world) = (&mut scene.im, &mut scene.world);
    im.feed(
        world,
        WindowEvent::MenuRequest {
            pos: Point::new(300, 220),
        },
    );
    im.feed(world, WindowEvent::MenuRequest { pos: repop });
    im.select_menu(world, label);
    im.pump(world);
    im.snapshot().unwrap().pixels().to_vec()
}

#[test]
fn menu_select_pops_at_the_last_request_through_every_entry() {
    let label = first_label();
    let off_origin = [request(300, 220), ScriptStep::MenuSelect(label.clone())];
    let applied = pixels(&off_origin, Entry::Apply);
    assert_eq!(applied, pixels(&off_origin, Entry::PostThenPump));
    assert_eq!(applied, pixels(&off_origin, Entry::Run));
    assert_eq!(applied, by_hand(&label, Point::new(300, 220)));
    assert_ne!(
        applied,
        by_hand(&label, Point::ORIGIN),
        "the select re-popped the menu at the origin"
    );

    let at_origin = [request(0, 0), ScriptStep::MenuSelect(label)];
    assert_ne!(
        applied,
        pixels(&at_origin, Entry::Apply),
        "menu select ignored the recorded request position"
    );
}
