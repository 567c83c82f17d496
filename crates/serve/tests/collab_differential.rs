//! The replicated-document honesty suite: N replicas of one shared
//! document, each behind its own wire, must be *indistinguishable* —
//! pixel-for-pixel and counter-for-counter — from one in-process
//! session applying the same merged edit order. Shard placement, fault
//! schedules, drain chunking, and join time are all required to be
//! invisible; the only thing allowed to vary is the `serve.*`
//! shipping/scheduling plane.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use atk_check::gen::interleaved_script;
use atk_core::ScriptStep;
use atk_graphics::Point;
use atk_serve::session::SessionConfig;
use atk_serve::transport::{FrameTransport, MemTransport};
use atk_serve::{differential, ClientError, Script, ServeClient, ServedRun, Server, ServerConfig};
use atk_trace::Collector;
use atk_wm::{Key, WindowEvent};

const SEEDS: [u64; 4] = [1, 2, 7, 42];
const STEPS: usize = 80;

/// Seeds 1 and 2 run single-shard (pure log/order semantics); seed 7
/// runs four shards with four replicas so every replica lands on its
/// own shard and all fanout crosses shard boundaries; seed 42 adds a
/// seeded fault schedule on every transport on top of that.
fn run_scene(scene: &'static str) {
    for seed in SEEDS {
        let (writers, watchers, shards, fault_seed) = match seed {
            1 | 2 => (2, 1, 1, None),
            7 => (2, 2, 4, None),
            _ => (2, 2, 4, Some(seed)),
        };
        let steps = interleaved_script(scene, seed, writers, STEPS).unwrap();
        let run = ServedRun {
            shards,
            fault_seed,
            ..ServedRun::new(scene)
        };
        let report = differential(&run, &Script::shared(writers, watchers, steps))
            .unwrap_or_else(|e| panic!("{scene} seed {seed}: {e}"));
        assert_eq!(report.framebuffers.len(), writers + watchers);
        assert_eq!(report.merged.counter("serve.collab.ops"), STEPS as u64);
    }
}

#[test]
fn fig1_collab_differential() {
    run_scene("fig1");
}

#[test]
fn fig2_collab_differential() {
    run_scene("fig2");
}

#[test]
fn fig3_collab_differential() {
    run_scene("fig3");
}

/// The op path's menu rule against the in-process reference: one
/// writer pops the menu away from the origin and the other selects from
/// it, so every replica must re-pop the menu at the recorded position.
#[test]
fn menu_select_after_off_origin_request_converges() {
    let request = ScriptStep::Event(WindowEvent::MenuRequest {
        pos: Point::new(300, 220),
    });
    let mut probe = atk_check::Session::build("fig3", "x11sim").expect("scene");
    probe.apply(&request);
    let label = probe
        .im
        .offered_menus()
        .first()
        .map(|m| format!("{}/{}", m.card, m.label))
        .expect("fig3 offers menus");
    let script = vec![
        (0, request),
        (1, ScriptStep::MenuSelect(label)),
        (0, tick(5)),
    ];
    let run = ServedRun {
        shards: 2,
        ..ServedRun::new("fig3")
    };
    let report =
        differential(&run, &Script::shared(2, 1, script)).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.framebuffers.len(), 3);
    assert_eq!(report.merged.counter("serve.collab.ops"), 3);
}

fn key(c: char) -> ScriptStep {
    ScriptStep::Event(WindowEvent::Key(Key::Char(c)))
}

fn tick(ms: u64) -> ScriptStep {
    ScriptStep::Event(WindowEvent::Tick(ms))
}

fn shard_server(cfg: ServerConfig, shards: usize) -> Arc<Server> {
    let collector = Arc::new(Collector::new());
    collector.enable();
    let server = Server::new(cfg, collector);
    server.start_shards(shards);
    server
}

/// Attaches one replica through the shard plane and returns the client
/// plus the shard index it landed on.
fn attach_replica(
    server: &Arc<Server>,
    doc: &str,
    scene: Option<&str>,
) -> (ServeClient<MemTransport>, usize) {
    let (client_half, server_half) = MemTransport::pair();
    let shard = server
        .admit(Box::new(server_half))
        .unwrap_or_else(|_| panic!("no shard accepting"));
    let client = ServeClient::attach(client_half, doc, scene).expect("attach");
    (client, shard)
}

/// Polls a watcher until its reconstruction catches up with `want`.
fn drain_until_pixels<T: FrameTransport>(client: &mut ServeClient<T>, want: &[u32]) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        client.drain_frames().expect("drain");
        if client.framebuffer().pixels() == want {
            return;
        }
        assert!(Instant::now() < deadline, "watcher never converged");
        thread::sleep(Duration::from_millis(2));
    }
}

/// Polls a client until the server says `Bye`.
fn drain_until_ended<T: FrameTransport>(client: &mut ServeClient<T>) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !client.ended() {
        client.drain_frames().expect("drain");
        assert!(Instant::now() < deadline, "client never saw Bye");
        thread::sleep(Duration::from_millis(2));
    }
}

/// Draining a replica's shard detaches it cleanly — the document and
/// its other replicas are untouched — and a re-attach lands on a live
/// shard at the *current* log offset: the fresh keyframe already shows
/// the whole history, later edits arrive as diffs, and nothing is
/// duplicated or lost.
#[test]
fn drained_replica_reattaches_at_log_head() {
    let server = shard_server(ServerConfig::default(), 2);
    let (mut writer, writer_shard) = attach_replica(&server, "shared", Some("fig2"));
    let (mut watcher, watcher_shard) = attach_replica(&server, "shared", None);
    assert_ne!(writer_shard, watcher_shard, "replicas must pin apart");

    let first: Vec<ScriptStep> = "andrew".chars().map(key).collect();
    for step in &first {
        writer.step_sync(step).expect("step");
    }
    drain_until_pixels(&mut watcher, writer.framebuffer().pixels());

    // Drain the watcher's shard out from under it.
    assert!(server.drain_shard(watcher_shard));
    drain_until_ended(&mut watcher);
    watcher.finish().expect("finish drained watcher");
    let doc = server.registry().get("shared").expect("doc");
    assert_eq!(doc.head(), first.len() as u64);
    assert_eq!(doc.replicas(), 1, "drained replica must unsubscribe");

    // The writer types on, unbothered, while the replica is gone.
    let second: Vec<ScriptStep> = "-toolkit".chars().map(key).collect();
    for step in &second[..4] {
        writer.step_sync(step).expect("step");
    }

    // Re-attach: must land on a non-draining shard, and the keyframe
    // must already hold everything typed so far.
    let (mut rejoined, rejoined_shard) = attach_replica(&server, "shared", None);
    assert_eq!(rejoined_shard, writer_shard, "only one shard accepts now");
    assert_eq!(
        rejoined.framebuffer().pixels(),
        writer.framebuffer().pixels(),
        "re-attach keyframe must sit at the log head"
    );
    for step in &second[4..] {
        writer.step_sync(step).expect("step");
    }
    drain_until_pixels(&mut rejoined, writer.framebuffer().pixels());

    let (_, writer_fb) = writer.finish_with_frame().expect("finish writer");
    let (_, rejoined_fb) = rejoined.finish_with_frame().expect("finish rejoined");
    server.shutdown_shards();

    // Ground truth: one in-process session replaying every step once.
    let all: Vec<ScriptStep> = first.into_iter().chain(second).collect();
    let want = reference_pixels("fig2", &all);
    assert_eq!(writer_fb.pixels(), want, "writer diverged");
    assert_eq!(rejoined_fb.pixels(), want, "rejoined replica diverged");
}

/// The idle-eviction regression: idleness is keyed on *document*
/// activity, so a silent watcher survives any amount of virtual time
/// as long as a peer keeps typing — and a document carried by clock
/// ticks alone still evicts everyone.
#[test]
fn silent_watcher_survives_typing_peer() {
    let cfg = ServerConfig {
        session: SessionConfig {
            idle_ms: Some(500),
            ..SessionConfig::default()
        },
        ..ServerConfig::default()
    };
    let server = shard_server(cfg, 1);
    let (mut writer, _) = attach_replica(&server, "busy", Some("fig2"));
    let (mut watcher, _) = attach_replica(&server, "busy", None);

    // 1600ms of virtual time pass — more than three idle horizons —
    // but every tick travels with a real keystroke from the peer.
    for c in "watching".chars() {
        writer.step_sync(&tick(200)).expect("tick");
        writer.step_sync(&key(c)).expect("key");
    }
    drain_until_pixels(&mut watcher, writer.framebuffer().pixels());
    assert!(
        !watcher.ended(),
        "silent watcher evicted while its peer was typing"
    );

    // Now the document goes quiet: ticks alone must still evict both
    // replicas once the horizon passes. The writer's transport may
    // close under it mid-step once the server says `Bye` — either
    // signal counts as the eviction landing.
    loop {
        if writer.step_sync(&tick(200)).is_err() || writer.ended() {
            break;
        }
        writer.drain_frames().ok();
        if writer.ended() {
            break;
        }
    }
    drain_until_ended(&mut watcher);
    server.shutdown_shards();
    let evictions = server.merged_snapshot().counter("serve.idle_evictions");
    assert!(
        evictions >= 2,
        "expected both replicas idle-evicted, saw {evictions}"
    );
}

/// A lone connection on a one-shard server speaks `Attach` too: one
/// replica converges with the in-process reference, and bogus attaches
/// are refused with a readable error.
#[test]
fn attach_over_single_connection() {
    let server = shard_server(ServerConfig::default(), 1);

    let (mut client, _) = attach_replica(&server, "solo", Some("fig2"));
    let steps: Vec<ScriptStep> = "solo".chars().map(key).collect();
    for step in &steps {
        client.step_sync(step).expect("step");
    }
    let (_, fb) = client.finish_with_frame().expect("finish");
    assert_eq!(fb.pixels(), reference_pixels("fig2", &steps));

    // Joining an unknown document without naming a scene is refused.
    let (client_half, server_half) = MemTransport::pair();
    assert!(server.admit(Box::new(server_half)).is_ok(), "no shard");
    let err = match ServeClient::attach(client_half, "ghost", None) {
        Ok(_) => panic!("unknown doc must be refused"),
        Err(e) => e,
    };
    assert!(matches!(err, ClientError::Server(_)), "got {err:?}");

    // Attaching to an existing document under a different scene is a
    // refusal, not a silent join of the wrong world.
    let (client_half, server_half) = MemTransport::pair();
    assert!(server.admit(Box::new(server_half)).is_ok(), "no shard");
    let err = match ServeClient::attach(client_half, "solo", Some("fig1")) {
        Ok(_) => panic!("scene mismatch must be refused"),
        Err(e) => e,
    };
    assert!(matches!(err, ClientError::Server(_)), "got {err:?}");

    // Every step the replica sent reached the log once, and no
    // connection failed.
    server.shutdown_shards();
    let merged = server.merged_snapshot();
    assert_eq!(merged.counter("serve.collab.ops"), steps.len() as u64);
    assert_eq!(merged.counter("serve.shard.failures"), 0);
}

/// The final pixels of one in-process session applying `steps`.
fn reference_pixels(scene: &str, steps: &[ScriptStep]) -> Vec<u32> {
    let mut reference = atk_check::Session::build(scene, "x11sim").expect("scene");
    for step in steps {
        reference.apply(step);
    }
    reference.im.snapshot().expect("pixels").pixels().to_vec()
}
