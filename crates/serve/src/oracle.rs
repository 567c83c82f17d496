//! The served differential: one config, one script, one comparator.
//!
//! Every served configuration must end byte-identical to the same
//! script replayed in-process through `atk_check::Session`: the wire,
//! batching, diff shipping, shard placement, fault schedule, fork fast
//! path, encoder, band paint and op log must all be invisible. A
//! [`ServedRun`] names one point of that configuration space, a
//! [`Script`] is private sessions or one shared document, and
//! [`differential`] serves the script at the point and demands that
//!
//! * every client's final framebuffer equals the in-process reference,
//! * every session's own counter plane equals the reference's, outside
//!   the `serve.*` shipping plane and the `paint.*` band-scheduling
//!   plane (which only banded paint fills), and
//! * no client errors, no session ends mid-script, and no server
//!   connection fails.
//!
//! Clients step synchronously (one step, one frame), so the server's
//! per-batch settle is structurally the in-process per-step settle;
//! pipelined batching is left to the server unit tests, where byte
//! identity of *intermediate* frames is not a promise. Private
//! sessions run one after another, which pins every counter two runs
//! are compared on (batch sizes, peak concurrency, keyframe cadence)
//! to one deterministic interleaving.

use std::sync::Arc;

use atk_check::Session;
use atk_core::ScriptStep;
use atk_graphics::Framebuffer;
use atk_trace::{Collector, Snapshot};

use crate::client::{ClientStats, ServeClient};
use crate::fault::{FaultPlan, FaultTransport};
use crate::server::{Server, ServerConfig};
use crate::session::SessionConfig;
use crate::transport::{FrameTransport, MemTransport};

/// One served configuration: the flags the differential varies, each
/// mapped onto the existing server and session config.
#[derive(Debug, Clone, Copy)]
pub struct ServedRun {
    /// The scene every session (or the shared document) opens.
    pub scene: &'static str,
    /// Display backend, `x11sim` or `awmsim`. Private sessions ask for
    /// it in their `Hello` (the server default stays `x11sim`); shared
    /// replicas get it as the server's session backend.
    pub backend: &'static str,
    /// Worker shards.
    pub shards: usize,
    /// When set, every pipe runs behind a seeded lossless
    /// [`FaultTransport`] and the shards poll in a seeded shuffled
    /// order.
    pub fault_seed: Option<u64>,
    /// Fork sessions from per-shard templates ([`ServerConfig::fork`]).
    pub fork: bool,
    /// The RLE wire encoder ([`SessionConfig::encode`]).
    pub encode: bool,
    /// Band-paint threads ([`SessionConfig::paint_threads`]).
    pub paint_threads: usize,
}

impl ServedRun {
    /// `scene` on the server defaults: `x11sim`, one shard, no faults,
    /// fork and encoder on, serial paint.
    pub fn new(scene: &'static str) -> ServedRun {
        ServedRun {
            scene,
            backend: "x11sim",
            shards: 1,
            fault_seed: None,
            fork: true,
            encode: true,
            paint_threads: 1,
        }
    }
}

/// What the clients send: `(sender, step)` pairs.
#[derive(Debug, Clone)]
pub struct Script {
    /// Clients that send steps: private sessions, or the writers of a
    /// shared document.
    pub senders: usize,
    /// `None` for private sessions, which run one after another, each
    /// sending its own steps. `Some(n)` for one shared document with `n`
    /// watching replicas besides the writers: every replica attaches
    /// before the first edit, the steps go in log order, and watchers
    /// drain every 16 steps and converge on `Bye` catch-up.
    pub watchers: Option<usize>,
    /// `(sender, step)` pairs — the list the shrinker minimizes.
    pub steps: Vec<(usize, ScriptStep)>,
}

impl Script {
    /// Private sessions, one per script.
    pub fn private(scripts: Vec<Vec<ScriptStep>>) -> Script {
        Script {
            senders: scripts.len(),
            watchers: None,
            steps: (0..)
                .zip(scripts)
                .flat_map(|(i, s)| s.into_iter().map(move |step| (i, step)))
                .collect(),
        }
    }

    /// One shared document: `steps` are `(writer, step)` in log order.
    pub fn shared(writers: usize, watchers: usize, steps: Vec<(usize, ScriptStep)>) -> Script {
        Script {
            senders: writers,
            watchers: Some(watchers),
            steps,
        }
    }

    /// The steps sender `i` sends, in order.
    fn steps_of(&self, i: usize) -> impl Iterator<Item = &ScriptStep> {
        self.steps
            .iter()
            .filter(move |(c, _)| *c == i)
            .map(|(_, s)| s)
    }
}

/// What a passing [`differential`] observed.
#[derive(Debug)]
pub struct Report {
    /// Final client framebuffers, in admission order.
    pub framebuffers: Vec<Framebuffer>,
    /// The merged server-wide snapshot, taken after the shards joined.
    pub merged: Snapshot,
    /// Pixel frames (diffs and keyframes) the clients received.
    pub frames: u64,
    /// Raw wire length of those frames.
    pub raw_bytes: u64,
    /// Bytes that crossed the wire for them (fewer when RLE won).
    pub encoded_bytes: u64,
}

/// Serves `script` at `run` and compares it with the in-process
/// reference: `atk_check::Session::build(scene, backend)` replaying
/// each private session's script, or the merged order of a shared one.
///
/// # Errors
///
/// The first divergence (which client, pixels or counters) or any
/// transport, protocol, scene or server-side failure.
pub fn differential(run: &ServedRun, script: &Script) -> Result<Report, String> {
    let scene = run.scene;
    if let Some((c, _)) = script.steps.iter().find(|(c, _)| *c >= script.senders) {
        return Err(format!("script names sender {c} of {}", script.senders));
    }

    let mut session = SessionConfig {
        encode: run.encode,
        paint_threads: run.paint_threads,
        ..SessionConfig::default()
    };
    if script.watchers.is_some() {
        session.backend = run.backend.to_string();
    }
    let collector = Arc::new(Collector::new());
    collector.enable();
    let server = Server::new(
        ServerConfig {
            session,
            retain_session_traces: true,
            readiness_shuffle_seed: run.fault_seed,
            fork: run.fork,
            ..ServerConfig::default()
        },
        collector,
    );
    server.start_shards(run.shards);
    // The in-process references replay on their own thread while the
    // clients are served.
    let (references, served) = std::thread::scope(|s| {
        let references = s.spawn(|| references(run, script));
        let served = serve(&server, run, script);
        (references.join(), served)
    });
    // Join the shards before reading counters, so every close landed.
    server.shutdown_shards();
    let references = references.map_err(|_| format!("{scene}: reference replay panicked"))??;
    let clients = served?;
    let merged = server.merged_snapshot();
    let failures = merged.counter("serve.shard.failures");
    if failures > 0 {
        return Err(format!("{scene}: {failures} server connection(s) failed"));
    }

    let parts = server.trace_parts();
    let mut report = Report {
        framebuffers: Vec::with_capacity(clients.len()),
        merged,
        frames: 0,
        raw_bytes: 0,
        encoded_bytes: 0,
    };
    for (i, (id, stats, fb)) in clients.into_iter().enumerate() {
        // A shared document has one reference for every replica.
        let (want_fb, want_plane) = references.get(i).unwrap_or(&references[0]);
        if let Some(d) = divergence(want_fb, &fb) {
            return Err(format!("{scene}: client {i} diverges from in-process: {d}"));
        }
        let name = format!("session-{id}");
        let got = parts
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, snap)| world_plane(snap))
            .ok_or_else(|| format!("{scene}: client {i}: no retained {name} counter plane"))?;
        if got != *want_plane {
            return Err(format!(
                "{scene}: client {i} ({name}) counter plane diverges from in-process:\n  \
                 want {want_plane:?}\n  got  {got:?}"
            ));
        }
        report.framebuffers.push(fb);
        report.frames += stats.diff_frames + stats.key_frames;
        report.raw_bytes += stats.diff_bytes + stats.full_bytes;
        report.encoded_bytes += stats.encoded_bytes;
    }
    Ok(report)
}

type Reference = (Framebuffer, Vec<(&'static str, u64)>);

/// The in-process replays, each its pixels and counter plane: one per
/// private session, or one for a shared document.
fn references(run: &ServedRun, script: &Script) -> Result<Vec<Reference>, String> {
    let replays: Vec<Vec<&ScriptStep>> = match script.watchers {
        None => (0..script.senders)
            .map(|i| script.steps_of(i).collect())
            .collect(),
        Some(_) => vec![script.steps.iter().map(|(_, s)| s).collect()],
    };
    let replay = |steps: Vec<&ScriptStep>| {
        let mut session = Session::build(run.scene, run.backend)?;
        for step in steps {
            session.apply(step);
        }
        let fb = session
            .im
            .snapshot()
            .ok_or("reference backend has no pixels")?;
        Ok((fb, world_plane(&session.world.collector().snapshot())))
    };
    replays.into_iter().map(replay).collect()
}

/// The counters a served session must share with the in-process
/// reference: all but the `serve.*` shipping/scheduling plane and the
/// `paint.*` band-scheduling plane.
fn world_plane(snap: &Snapshot) -> Vec<(&'static str, u64)> {
    snap.counters
        .iter()
        .filter(|(key, _)| !key.starts_with("serve.") && !key.starts_with("paint."))
        .copied()
        .collect()
}

/// Dimensions, differing pixel count and first differing coordinate,
/// or `None` when the framebuffers agree. Only size and pixels count: a
/// leftover clip region on either side is not a divergence.
fn divergence(want: &Framebuffer, got: &Framebuffer) -> Option<String> {
    let (w, h) = (want.width(), want.height());
    if (got.width(), got.height()) != (w, h) {
        return Some(format!(
            "{}x{} served vs {w}x{h} in-process",
            got.width(),
            got.height()
        ));
    }
    let mut differing = (0..)
        .zip(want.pixels().iter().zip(got.pixels()))
        .filter(|(_, (a, b))| a != b);
    let (first, _) = differing.next()?;
    Some(format!(
        "{w}x{h}, {} differing pixels, first at ({}, {})",
        differing.count() + 1,
        first % w,
        first / w
    ))
}

type Client = ServeClient<Box<dyn FrameTransport>>;

/// Runs every client of `script` to its goodbye: `(session id, stats,
/// final framebuffer)` per client, in admission order.
fn serve(
    server: &Server,
    run: &ServedRun,
    script: &Script,
) -> Result<Vec<(u64, ClientStats, Framebuffer)>, String> {
    let open = |i: usize| -> Result<Client, String> {
        let t = pipe(server, run.fault_seed, i)?;
        match script.watchers {
            None => ServeClient::connect_backend(t, run.scene, Some(run.backend)),
            // Only the first attacher names the scene; joiners inherit it.
            Some(_) => ServeClient::attach(t, "oracle", (i == 0).then_some(run.scene)),
        }
        .map_err(|e| format!("client {i}: open: {e}"))
    };
    let finish = |i: usize, client: Client| {
        let id = client.session_id();
        let (stats, fb) = client
            .finish_with_frame()
            .map_err(|e| format!("client {i}: finish: {e}"))?;
        Ok((id, stats, fb))
    };
    let Some(watchers) = script.watchers else {
        return (0..script.senders)
            .map(|i| {
                let mut client = open(i)?;
                for step in script.steps_of(i) {
                    step_sync(&mut client, i, step)?;
                }
                finish(i, client)
            })
            .collect();
    };
    let writers = script.senders;
    let mut clients = (0..writers + watchers)
        .map(open)
        .collect::<Result<Vec<_>, _>>()?;
    for (n, (w, step)) in script.steps.iter().enumerate() {
        step_sync(&mut clients[*w], *w, step)?;
        // Watchers keep up without blocking, like a real viewer.
        if n % 16 == 15 {
            for (i, c) in clients.iter_mut().enumerate().skip(writers) {
                c.drain_frames()
                    .map_err(|e| format!("client {i}: drain: {e}"))?;
            }
        }
    }
    // Submit fans every op out synchronously, so `Bye` catch-up
    // converges each replica before its final frame.
    (0..).zip(clients).map(|(i, c)| finish(i, c)).collect()
}

fn step_sync(client: &mut Client, i: usize, step: &ScriptStep) -> Result<(), String> {
    client
        .step_sync(step)
        .map_err(|e| format!("client {i}: {e}"))?;
    if client.ended() {
        return Err(format!("client {i}: server ended session mid-script"));
    }
    Ok(())
}

/// Admits one in-memory pipe and returns its client half. With faults
/// on, the client half runs a seeded lossless schedule (short writes,
/// `WouldBlock` storms) and the server half takes the short-write path.
fn pipe(
    server: &Server,
    fault_seed: Option<u64>,
    i: usize,
) -> Result<Box<dyn FrameTransport>, String> {
    let (client_half, server_half) = MemTransport::pair();
    let (client_t, server_t): (Box<dyn FrameTransport>, Box<dyn FrameTransport>) = match fault_seed
    {
        Some(seed) => (
            Box::new(FaultTransport::new(
                client_half,
                FaultPlan::lossless(seed ^ (i as u64).wrapping_mul(0x9e37)),
            )),
            Box::new(FaultTransport::new(server_half, FaultPlan::passthrough())),
        ),
        None => (Box::new(client_half), Box::new(server_half)),
    };
    server
        .admit(server_t)
        .map_err(|_| format!("client {i}: no shard accepting"))?;
    Ok(client_t)
}
