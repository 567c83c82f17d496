//! The served-vs-in-process differential oracle.
//!
//! A served session replaying a script must end with a framebuffer
//! byte-identical to the same script run in-process through
//! `atk_check::Session` — the wire, the batching, the diff shipping and
//! the client-side reconstruction must all be invisible. The client
//! runs synchronously (one step, one frame), which makes the server's
//! per-batch settle structurally identical to the in-process `im.feed`
//! per step; pipelined batching is exercised separately by the server
//! unit tests, where byte identity of *intermediate* frames is not a
//! promise.
//!
//! [`run_sharded`] extends the same idea one level up: an N-shard
//! server must be observably identical to a 1-shard server — same
//! per-session framebuffers, same server-wide counters — except for
//! the shard-local `serve.shard.*` scheduling plane, which is the only
//! place shard count is allowed to leave a mark.

use std::sync::Arc;

use atk_check::gen::{interleaved_script, StepGen};
use atk_check::Session;
use atk_core::ScriptStep;
use atk_graphics::Framebuffer;
use atk_trace::Collector;

use crate::client::ServeClient;
use crate::fault::{FaultPlan, FaultTransport};
use crate::server::{Server, ServerConfig};
use crate::session::SessionConfig;
use crate::transport::{FrameTransport, MemTransport};

/// The outcome of one oracle run.
#[derive(Debug)]
pub struct OracleReport {
    /// Steps replayed.
    pub steps: usize,
    /// Diff frames the served side shipped.
    pub diff_frames: u64,
    /// Keyframes the served side shipped.
    pub key_frames: u64,
    /// Raw wire length of every pixel frame received.
    pub raw_bytes: u64,
    /// Bytes that actually crossed the wire for those frames (smaller
    /// when the RLE encoder won).
    pub encoded_bytes: u64,
}

/// Records `steps` fuzzer steps against `scene` and replays them
/// through [`serve_script_differential`] with the given session config.
pub fn serve_differential_with(
    scene: &str,
    seed: u64,
    steps: usize,
    session: SessionConfig,
) -> Result<OracleReport, String> {
    // Record a concrete step stream against a throwaway session
    // (generation reads live state: window size, offered menus).
    let mut throwaway = Session::build(scene, "x11sim")?;
    let mut gen = StepGen::new(seed);
    let mut recorded: Vec<ScriptStep> = Vec::with_capacity(steps);
    for _ in 0..steps {
        let step = gen.next_step(&mut throwaway.world, &mut throwaway.im);
        throwaway.apply(&step);
        recorded.push(step);
    }
    serve_script_differential(scene, &recorded, session).map_err(|e| format!("seed {seed}: {e}"))
}

/// Records `steps` fuzzer steps against `scene`, replays them through a
/// served session *and* in-process, and demands byte-identical final
/// framebuffers.
///
/// # Errors
///
/// A human-readable description of the first divergence (differing
/// pixel count and first differing coordinate) or of any transport,
/// protocol, or scene failure.
pub fn serve_differential(scene: &str, seed: u64, steps: usize) -> Result<OracleReport, String> {
    serve_differential_with(scene, seed, steps, SessionConfig::default())
}

/// The `encode` differential: the same fuzzer stream served with the
/// RLE wire encoder *and* four-way parallel band paint enabled must
/// reconstruct, on the client, the exact framebuffer the serial
/// in-process reference produces. One byte-identity check covers both
/// the encoder round-trip and the parallel-vs-serial paint promise
/// end to end.
pub fn encode_differential(scene: &str, seed: u64, steps: usize) -> Result<OracleReport, String> {
    let session = SessionConfig {
        encode: true,
        paint_threads: 4,
        ..SessionConfig::default()
    };
    serve_differential_with(scene, seed, steps, session)
}

/// What one [`run_sharded`] pass observed — everything shard count is
/// *not* allowed to change.
#[derive(Debug)]
pub struct ShardedRun {
    /// Final client-side framebuffers, one per script, in script order.
    pub framebuffers: Vec<Framebuffer>,
    /// Merged server-wide counters with the shard-local scheduling
    /// plane (`serve.shard.*`) stripped.
    pub counters: Vec<(&'static str, u64)>,
}

/// Replays `scripts` (one session each, sequentially, synchronous
/// stepping) against a server running `shards` worker shards over
/// in-memory transports, and returns every final framebuffer plus the
/// merged non-shard counters. With `fault_seed` set, every transport
/// pair carries a seeded lossless [`FaultTransport`] (short writes,
/// `WouldBlock` storms) on the client half — the differential then
/// also proves fault schedules are invisible.
///
/// Sessions run sequentially on purpose: it pins every counter the
/// comparison reads (batch sizes, peak concurrency, keyframe cadence)
/// to one deterministic interleaving on both sides of the diff.
pub fn run_sharded(
    scene: &str,
    scripts: &[Vec<ScriptStep>],
    shards: usize,
    session_cfg: SessionConfig,
    fault_seed: Option<u64>,
) -> Result<ShardedRun, String> {
    let collector = Arc::new(Collector::new());
    collector.enable();
    let server_cfg = ServerConfig {
        session: session_cfg,
        // Exercise the readiness-reorder fault path whenever faults are
        // on at all; with one connection at a time it must be inert.
        readiness_shuffle_seed: fault_seed,
        ..ServerConfig::default()
    };
    let server = Server::new(server_cfg, collector);
    server.start_shards(shards.max(1));

    let mut framebuffers = Vec::with_capacity(scripts.len());
    for (i, script) in scripts.iter().enumerate() {
        let (client_half, server_half) = MemTransport::pair();
        let server_t: Box<dyn FrameTransport> = match fault_seed {
            Some(_) => Box::new(FaultTransport::new(server_half, FaultPlan::passthrough())),
            None => Box::new(server_half),
        };
        server
            .admit(server_t)
            .map_err(|_| format!("session {i}: no shard accepting"))?;
        let client_t: Box<dyn FrameTransport> = match fault_seed {
            Some(seed) => Box::new(FaultTransport::new(
                client_half,
                FaultPlan::lossless(seed ^ i as u64),
            )),
            None => Box::new(client_half),
        };
        let mut client = ServeClient::connect(client_t, scene)
            .map_err(|e| format!("session {i}: connect: {e}"))?;
        for step in script {
            client
                .step_sync(step)
                .map_err(|e| format!("session {i}: {e}"))?;
            if client.ended() {
                return Err(format!("session {i}: server ended session mid-script"));
            }
        }
        framebuffers.push(client.framebuffer().clone());
        client.finish().map_err(|e| format!("session {i}: {e}"))?;
    }

    // Join the shard threads before reading counters, so every close
    // has landed; then strip what is allowed to differ: the shard
    // scheduling plane, and the template-build count — registries are
    // per-shard caches, so how many shards built a template depends on
    // where sessions landed. `world.forks` and `world.fork_shared_bytes`
    // stay in the comparison: one fork per session, whatever the shard
    // count.
    server.shutdown_shards();
    let counters = server
        .merged_snapshot()
        .counters
        .into_iter()
        .filter(|(key, _)| !key.starts_with("serve.shard.") && *key != "world.template_builds")
        .collect();
    Ok(ShardedRun {
        framebuffers,
        counters,
    })
}

/// What one [`collab_differential`] pass proved.
#[derive(Debug)]
pub struct CollabRun {
    /// Steps in the merged interleaving (== ops on the log).
    pub steps: usize,
    /// Replicas whose final framebuffer matched the reference.
    pub replicas: usize,
    /// Per-replica counter planes compared against the reference.
    pub counter_planes: usize,
}

/// The replicated-document differential: `writers + watchers` replicas
/// attach to one shared document on an N-shard server, the writers
/// submit a seeded interleaving of edit streams through the document's
/// op log, and **every** replica's final client-reconstructed
/// framebuffer — plus every replica's non-`serve.*` counter plane —
/// must be byte-identical to one in-process session replaying the same
/// merged order. The wire, the log, the cross-shard fanout, and the
/// drain chunking must all be invisible.
///
/// Replicas are admitted least-loaded-first onto an idle server, so
/// with `shards > 1` and at least `shards` replicas they are pinned to
/// *different* shards and every fanout crosses a shard boundary. With
/// `fault_seed` set, each client half runs behind a seeded lossless
/// [`FaultTransport`] and the server halves take the short-write path,
/// proving chaos schedules are invisible too.
///
/// Watchers never send a step; they drain frames opportunistically
/// mid-run (the non-blocking path) and converge on `Bye` catch-up.
///
/// # Errors
///
/// A description of the first divergence — a replica whose pixels or
/// counters differ from the reference — or of any transport, protocol,
/// or scene failure.
pub fn collab_differential(
    scene: &str,
    seed: u64,
    writers: usize,
    watchers: usize,
    steps: usize,
    shards: usize,
    fault_seed: Option<u64>,
) -> Result<CollabRun, String> {
    let script = interleaved_script(scene, seed, writers, steps)?;
    collab_script_differential(scene, &script, writers, watchers, shards, fault_seed)
        .map_err(|e| format!("seed {seed}: {e}"))
}

/// [`collab_differential`] over an already-recorded interleaving:
/// `(writer, step)` pairs in log order.
///
/// # Errors
///
/// See [`collab_differential`].
pub fn collab_script_differential(
    scene: &str,
    script: &[(usize, ScriptStep)],
    writers: usize,
    watchers: usize,
    shards: usize,
    fault_seed: Option<u64>,
) -> Result<CollabRun, String> {
    if let Some((w, _)) = script.iter().find(|(w, _)| *w >= writers) {
        return Err(format!("script names writer {w} of {writers}"));
    }
    // In-process reference: one session applying the merged order one
    // settled step at a time, no wire.
    let mut reference = Session::build(scene, "x11sim")?;
    for (_, step) in script {
        reference.apply(step);
    }
    let want_fb = reference
        .im
        .snapshot()
        .ok_or("reference backend has no pixels")?;
    let want_counters = strip_serve_plane(reference.world.collector().snapshot().counters);

    // Replicated run: one doc, every replica attached before the first
    // edit, writers serialized through the log in script order.
    let collector = Arc::new(Collector::new());
    collector.enable();
    let server_cfg = ServerConfig {
        session: SessionConfig::default(),
        retain_session_traces: true,
        readiness_shuffle_seed: fault_seed,
        ..ServerConfig::default()
    };
    let server = Server::new(server_cfg, collector);
    server.start_shards(shards.max(1));
    let doc_id = "oracle";

    let replicas = writers + watchers;
    let mut clients: Vec<ServeClient<Box<dyn FrameTransport>>> = Vec::with_capacity(replicas);
    for i in 0..replicas {
        let (client_half, server_half) = MemTransport::pair();
        let server_t: Box<dyn FrameTransport> = match fault_seed {
            Some(_) => Box::new(FaultTransport::new(server_half, FaultPlan::passthrough())),
            None => Box::new(server_half),
        };
        server
            .admit(server_t)
            .map_err(|_| format!("replica {i}: no shard accepting"))?;
        let client_t: Box<dyn FrameTransport> = match fault_seed {
            Some(fs) => Box::new(FaultTransport::new(
                client_half,
                FaultPlan::lossless(fs ^ (i as u64).wrapping_mul(0x9e37)),
            )),
            None => Box::new(client_half),
        };
        // Only the first attacher names the scene; joiners inherit it.
        let offered = (i == 0).then_some(scene);
        let client = ServeClient::attach(client_t, doc_id, offered)
            .map_err(|e| format!("replica {i}: attach: {e}"))?;
        clients.push(client);
    }

    for (n, (w, step)) in script.iter().enumerate() {
        clients[*w]
            .step_sync(step)
            .map_err(|e| format!("writer {w} step {n}: {e}"))?;
        if clients[*w].ended() {
            return Err(format!("writer {w}: server ended session mid-script"));
        }
        // Watchers keep up without blocking, like a real viewer would.
        if n % 16 == 15 {
            for (i, c) in clients.iter_mut().enumerate().skip(writers) {
                c.drain_frames()
                    .map_err(|e| format!("watcher {i}: drain: {e}"))?;
            }
        }
    }

    // Every op is already on every replica's channel (submit fans out
    // synchronously), so `Bye` catch-up converges each replica before
    // its final frame.
    let mut finals = Vec::with_capacity(replicas);
    for (i, client) in clients.into_iter().enumerate() {
        let (_, fb) = client
            .finish_with_frame()
            .map_err(|e| format!("replica {i}: finish: {e}"))?;
        finals.push(fb);
    }
    server.shutdown_shards();

    for (i, fb) in finals.iter().enumerate() {
        if fb.width() != want_fb.width()
            || fb.height() != want_fb.height()
            || fb.pixels() != want_fb.pixels()
        {
            let differing = want_fb
                .pixels()
                .iter()
                .zip(fb.pixels())
                .filter(|(a, b)| a != b)
                .count();
            return Err(format!(
                "{scene}: replica {i} diverges from the in-process \
                 reference ({differing} differing pixels of {})",
                want_fb.pixels().len()
            ));
        }
    }

    // Every replica's own counter plane (its session collector, minus
    // the serve-side shipping/scheduling keys) must equal the
    // reference's: the world each replica computed is the same world.
    let mut counter_planes = 0;
    for (name, snap) in server.trace_parts() {
        if !name.starts_with("session-") {
            continue;
        }
        let got = strip_serve_plane(snap.counters);
        if got != want_counters {
            return Err(format!(
                "{scene}: {name} counter plane diverges from the \
                 in-process reference:\n  want {want_counters:?}\n  got  {got:?}"
            ));
        }
        counter_planes += 1;
    }
    if counter_planes != replicas {
        return Err(format!(
            "{scene}: expected {replicas} retained replica counter \
             planes, found {counter_planes}"
        ));
    }

    Ok(CollabRun {
        steps: script.len(),
        replicas,
        counter_planes,
    })
}

/// Drops the `serve.*` keys — the shipping/scheduling plane is allowed
/// to differ between a wired replica and the in-process reference; the
/// world beneath it is not.
fn strip_serve_plane(counters: Vec<(&'static str, u64)>) -> Vec<(&'static str, u64)> {
    counters
        .into_iter()
        .filter(|(key, _)| !key.starts_with("serve."))
        .collect()
}

/// Replays an already-recorded script through a served session and
/// in-process, demanding byte-identical final framebuffers.
///
/// # Errors
///
/// See [`serve_differential`].
pub fn serve_script_differential(
    scene: &str,
    recorded: &[ScriptStep],
    session_cfg: SessionConfig,
) -> Result<OracleReport, String> {
    // In-process reference run.
    let mut reference = Session::build(scene, "x11sim")?;
    for step in recorded {
        reference.apply(step);
    }
    let want = reference
        .im
        .snapshot()
        .ok_or("reference backend has no pixels")?;

    // Served run: one forked session on a one-shard server over the
    // in-memory transport, synchronous stepping. The collector is on so
    // the shard counts any connection it fails.
    let collector = Arc::new(Collector::new());
    collector.enable();
    let server_cfg = ServerConfig {
        session: session_cfg,
        ..ServerConfig::default()
    };
    let server = Server::new(server_cfg, collector);
    server.start_shards(1);
    let (client_half, server_half) = MemTransport::pair();
    server
        .admit(Box::new(server_half))
        .map_err(|_| "no shard accepting")?;

    let run = (|| -> Result<_, String> {
        let mut client = ServeClient::connect(client_half, scene).map_err(|e| e.to_string())?;
        for step in recorded {
            client.step_sync(step).map_err(|e| e.to_string())?;
            if client.ended() {
                return Err("server ended session mid-script".into());
            }
        }
        let got = client.framebuffer().clone();
        let stats = client.finish().map_err(|e| e.to_string())?;
        Ok((got, stats))
    })();
    server.shutdown_shards();
    let (got, stats) = run?;
    let failures = server.merged_snapshot().counter("serve.shard.failures");
    if failures > 0 {
        return Err(format!("{failures} server connection(s) failed"));
    }

    // Compare dimensions and pixels (not the whole struct — a leftover
    // clip region on the server snapshot would be a false alarm).
    let same = got.width() == want.width()
        && got.height() == want.height()
        && got.pixels() == want.pixels();
    if !same {
        let mut differing = 0usize;
        let mut first = None;
        for y in 0..want.height().min(got.height()) {
            for x in 0..want.width().min(got.width()) {
                if want.get(x, y) != got.get(x, y) {
                    differing += 1;
                    first.get_or_insert((x, y));
                }
            }
        }
        return Err(format!(
            "{scene}: served framebuffer diverges from in-process \
             ({}x{} vs {}x{}, {differing} differing pixels, first at {first:?})",
            got.width(),
            got.height(),
            want.width(),
            want.height(),
        ));
    }
    Ok(OracleReport {
        steps: recorded.len(),
        diff_frames: stats.diff_frames,
        key_frames: stats.key_frames,
        raw_bytes: stats.diff_bytes + stats.full_bytes,
        encoded_bytes: stats.encoded_bytes,
    })
}
