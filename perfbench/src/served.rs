//! Set-up and the untraced run: the shard server under load from
//! [`CLIENTS`] closed-loop client threads over in-memory transports.
//!
//! A client works in rounds. A round opens one session (or, on
//! `collab`, attaches writer and watcher to a fresh shared document),
//! sends one pool script a step at a time — each step waits for the
//! frame that answers it — and says goodbye. Rounds are whole, so every
//! round of a pool entry ends on the same framebuffer; the first of
//! them is kept for the correctness gate and later ones are compared
//! with it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use atk_graphics::Framebuffer;
use atk_serve::{ClientError, ClientStats, MemTransport, ServeClient, Server, ServerConfig};
use atk_trace::Collector;

use crate::gate::same_pixels;
use crate::probe::{status_kb, usage, Usage};
use crate::{Budget, Inputs, Script, Sizes, Workload, CLIENTS, SHARDS};

/// Longest a client waits for the server to release its previous
/// connection before it calls the run failed.
const RELEASE_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a watcher client sleeps between polls for fanned-out
/// frames; frames queue meanwhile and are applied together.
const WATCHER_POLL: Duration = Duration::from_millis(1);

/// How often the sampler reads `Server::shard_loads` and the process
/// CPU time.
const LOAD_SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// A started server with warmed templates and the inputs to send it.
/// Dropping it stops and joins the shard threads.
pub struct Setup {
    /// The server under test, shards running.
    pub server: Arc<Server>,
    /// The generated inputs.
    pub inputs: Inputs,
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.server.shutdown_shards();
    }
}

/// Generates the inputs, starts the server with [`SHARDS`] shards and
/// warms every `(scene, shard)` template the inputs will open.
pub fn setup(workload: Workload, seed: u64, sizes: Sizes) -> Result<Setup, String> {
    let inputs = Inputs::generate(workload, seed, sizes)?;
    let collector = Arc::new(Collector::new());
    collector.enable();
    let setup = Setup {
        server: Server::new(ServerConfig::default(), collector),
        inputs,
    };
    setup.server.start_shards(SHARDS);
    for scene in setup.inputs.scenes() {
        warm(&setup.server, scene)?;
    }
    Ok(setup)
}

/// Opens one session of `scene` on every shard at once, so each shard
/// builds its template now rather than inside the measurement.
fn warm(server: &Server, scene: &str) -> Result<(), String> {
    wait_for_release(server, 1)?;
    let mut halves = Vec::with_capacity(SHARDS);
    let mut placed = Vec::with_capacity(SHARDS);
    for _ in 0..SHARDS {
        let (client_half, server_half) = MemTransport::pair();
        placed.push(
            server
                .admit(Box::new(server_half))
                .map_err(|_| "warm-up: no shard accepting".to_string())?,
        );
        halves.push(client_half);
    }
    placed.sort_unstable();
    placed.dedup();
    if placed.len() != SHARDS {
        return Err(format!("warm-up of {scene} did not reach every shard"));
    }
    let clients = halves
        .into_iter()
        .map(|t| ServeClient::connect(t, scene))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("warm-up of {scene}: {e}"))?;
    for c in clients {
        c.finish().map_err(|e| format!("warm-up of {scene}: {e}"))?;
    }
    Ok(())
}

/// Waits until the server holds fewer than `limit` connections. A
/// client that just said goodbye calls this before its next admission,
/// so the least-loaded pick sees its old connection gone and the two
/// clients keep to separate shards.
fn wait_for_release(server: &Server, limit: usize) -> Result<(), String> {
    let started = Instant::now();
    while server.shard_loads().iter().sum::<usize>() >= limit {
        if started.elapsed() > RELEASE_TIMEOUT {
            return Err("server never released a closed connection".into());
        }
        thread::yield_now();
    }
    Ok(())
}

/// What the untraced run measured.
#[derive(Debug, Default)]
pub struct Served {
    /// Wall-clock seconds from the first admission to the last goodbye.
    pub wall_s: f64,
    /// Ops started (steps sent; admissions on `admit`).
    pub attempted: u64,
    /// Ops answered.
    pub ops: u64,
    /// Failures not tied to one op: watcher errors and, after the gate,
    /// framebuffer mismatches.
    pub lost: u64,
    /// `Busy` replies.
    pub busy: u64,
    /// Error messages, in the order they happened.
    pub errors: Vec<String>,
    /// Op latencies, µs: step sent → its frame applied; on `admit`,
    /// admission → keyframe applied → goodbye acknowledged.
    pub op_us: Vec<f64>,
    /// When each op of [`Served::op_us`] completed.
    pub op_end: Vec<Instant>,
    /// Time to first frame, µs: admission → initial keyframe applied.
    pub ttff_us: Vec<f64>,
    /// When each first frame of [`Served::ttff_us`] was applied.
    pub ttff_end: Vec<Instant>,
    /// Time spent inside `Server::admit`, µs.
    pub admit_us: Vec<f64>,
    /// Frames the clients received.
    pub frames: u64,
    /// Encoded bytes the clients received.
    pub encoded_bytes: u64,
    /// The same frames at their raw wire length.
    pub raw_bytes: u64,
    /// Process CPU time and page faults during the run.
    pub usage: Usage,
    /// When the run started.
    pub start: Option<Instant>,
    /// Process usage sampled through the run, for per-window CPU.
    pub usage_samples: Vec<(Instant, Usage)>,
    /// `VmHWM` at the end of the run, kB.
    pub rss_peak_kb: u64,
    /// First final framebuffer of every pool entry that ran.
    pub finals: BTreeMap<usize, Framebuffer>,
    /// Later rounds whose final framebuffer differed from the first.
    pub repeat_mismatches: u64,
    /// Watcher frames after the initial keyframe (`collab`).
    pub watcher_frames: u64,
    /// Ops the watchers saw fanned out (`collab`).
    pub watcher_ops: u64,
    /// `serve.shard.batches` during the run.
    pub shard_batches: u64,
    /// `serve.backpressure_drops` during the run.
    pub backpressure_drops: u64,
    /// ~p99 of `serve.collab.replay_lag` (ops a replica trailed the
    /// log head when it shipped).
    pub replay_lag_p99: u64,
    /// Mean over samples of (busiest − idlest) shard load.
    pub load_spread: f64,
}

impl Served {
    /// Ops that failed: attempted but unanswered, plus [`Served::lost`].
    pub fn failed(&self) -> u64 {
        self.attempted - self.ops + self.lost
    }

    fn absorb(&mut self, stats: &ClientStats) {
        self.frames += stats.frames;
        self.encoded_bytes += stats.encoded_bytes;
        self.raw_bytes += stats.diff_bytes + stats.full_bytes;
    }

    fn keep_final(&mut self, entry: usize, fb: Framebuffer) {
        match self.finals.get(&entry) {
            Some(first) if !same_pixels(first, &fb) => self.repeat_mismatches += 1,
            Some(_) => {}
            None => {
                self.finals.insert(entry, fb);
            }
        }
    }

    fn record_op(&mut self, started: Instant) {
        let now = Instant::now();
        self.op_us.push(micros(now - started));
        self.op_end.push(now);
        self.ops += 1;
    }

    fn fail(&mut self, e: impl ToString) {
        self.errors.push(e.to_string());
    }

    fn merge(&mut self, mut o: Served) {
        self.attempted += o.attempted;
        self.ops += o.ops;
        self.lost += o.lost;
        self.busy += o.busy;
        self.errors.append(&mut o.errors);
        self.op_us.append(&mut o.op_us);
        self.op_end.append(&mut o.op_end);
        self.ttff_us.append(&mut o.ttff_us);
        self.ttff_end.append(&mut o.ttff_end);
        self.admit_us.append(&mut o.admit_us);
        self.frames += o.frames;
        self.encoded_bytes += o.encoded_bytes;
        self.raw_bytes += o.raw_bytes;
        self.repeat_mismatches += o.repeat_mismatches;
        self.watcher_frames += o.watcher_frames;
        self.watcher_ops += o.watcher_ops;
        for (entry, fb) in std::mem::take(&mut o.finals) {
            self.keep_final(entry, fb);
        }
    }
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Shared round pacing: the budget plus the run's deadline.
struct Pace {
    budget: Budget,
    deadline: Instant,
}

impl Pace {
    fn more(&self, round: usize) -> bool {
        match self.budget {
            Budget::Seconds(_) => Instant::now() < self.deadline,
            Budget::Rounds(n) => round < n,
        }
    }
}

/// How a round joins the server.
enum Join<'a> {
    Hello(&'a str),
    Attach { doc: &'a str, scene: &'a str },
}

/// Admits one connection and completes its handshake, recording the
/// admission time and TTFF. Returns the client and when the admission
/// started.
fn connect(
    server: &Server,
    join: Join<'_>,
    out: &mut Served,
) -> Result<(ServeClient<MemTransport>, Instant), String> {
    wait_for_release(server, CLIENTS)?;
    let (client_half, server_half) = MemTransport::pair();
    let started = Instant::now();
    if server.admit(Box::new(server_half)).is_err() {
        out.busy += 1;
        return Err("server busy: no shard accepting".into());
    }
    out.admit_us.push(micros(started.elapsed()));
    let client = match join {
        Join::Hello(scene) => ServeClient::connect(client_half, scene),
        Join::Attach { doc, scene } => ServeClient::attach(client_half, doc, Some(scene)),
    };
    match client {
        Ok(c) => {
            out.ttff_us.push(micros(started.elapsed()));
            out.ttff_end.push(Instant::now());
            Ok((c, started))
        }
        Err(ClientError::Busy) => {
            out.busy += 1;
            Err("server busy".into())
        }
        Err(e) => Err(e.to_string()),
    }
}

/// One private-session round: open, send every step, say goodbye.
fn session_round(server: &Server, script: &Script, entry: usize, out: &mut Served) {
    out.attempted += script.steps.len() as u64;
    let mut client = match connect(server, Join::Hello(&script.scene), out) {
        Ok((c, _)) => c,
        Err(e) => return out.fail(e),
    };
    for step in &script.steps {
        let started = Instant::now();
        if let Err(e) = client.step_sync(step) {
            return out.fail(e);
        }
        out.record_op(started);
    }
    match client.finish_with_frame() {
        Ok((stats, fb)) => {
            out.absorb(&stats);
            out.keep_final(entry, fb);
        }
        Err(e) => {
            // Every step was answered, so no op is missing: count the
            // failed goodbye itself.
            out.lost += 1;
            out.fail(e);
        }
    }
}

/// One admission round: Hello → initial keyframe → goodbye.
fn admit_round(server: &Server, script: &Script, entry: usize, out: &mut Served) {
    out.attempted += 1;
    let (client, started) = match connect(server, Join::Hello(&script.scene), out) {
        Ok(c) => c,
        Err(e) => return out.fail(e),
    };
    match client.finish_with_frame() {
        Ok((stats, fb)) => {
            out.record_op(started);
            out.absorb(&stats);
            out.keep_final(entry, fb);
        }
        Err(e) => out.fail(e),
    }
}

/// Rounds of one private-session client (`typing`, `mixed`, `admit`).
fn private_client(server: &Server, inputs: &Inputs, c: usize, pace: &Pace) -> Served {
    let mut out = Served::default();
    let share = inputs.share(c);
    let mut round = 0;
    while pace.more(round) {
        let entry = share[round % share.len()];
        let script = &inputs.scripts[entry];
        if inputs.workload == Workload::Admit {
            admit_round(server, script, entry, &mut out);
        } else {
            session_round(server, script, entry, &mut out);
        }
        round += 1;
    }
    out
}

/// State the writer and watcher of a `collab` round share.
struct Collab {
    barrier: Barrier,
    stop: AtomicBool,
    /// Rounds the writer has finished sending (a count, not a flag, so
    /// the watcher cannot miss the end of a round).
    writer_rounds: AtomicUsize,
}

/// Rounds of one `collab` replica: thread 0 writes the pool script of
/// the round into a fresh document, thread 1 watches it. Both pass
/// every barrier even after an error, so neither can strand the other.
fn collab_client(
    server: &Server,
    inputs: &Inputs,
    c: usize,
    pace: &Pace,
    shared: &Collab,
) -> Served {
    let writer = c == 0;
    let mut out = Served::default();
    let mut round = 0;
    loop {
        if writer {
            shared.stop.store(!pace.more(round), Ordering::SeqCst);
        }
        shared.barrier.wait();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let entry = round % inputs.scripts.len();
        let script = &inputs.scripts[entry];
        let doc = format!("round-{round}");
        let join = Join::Attach {
            doc: &doc,
            scene: &script.scene,
        };
        let answered_before = out.ops;
        if writer {
            out.attempted += script.steps.len() as u64;
        }
        let client = connect(server, join, &mut out);
        shared.barrier.wait();
        let result = client.and_then(|(mut client, _)| {
            if writer {
                let sent = write_script(&mut client, script, &mut out);
                shared.writer_rounds.store(round + 1, Ordering::SeqCst);
                sent?;
            } else {
                while shared.writer_rounds.load(Ordering::SeqCst) <= round {
                    client.drain_frames().map_err(|e| e.to_string())?;
                    thread::sleep(WATCHER_POLL);
                }
            }
            client.finish_with_frame().map_err(|e| e.to_string())
        });
        if writer {
            shared.writer_rounds.store(round + 1, Ordering::SeqCst);
        }
        match result {
            Ok((stats, fb)) => {
                out.absorb(&stats);
                if !writer {
                    out.watcher_frames += stats.frames.saturating_sub(1);
                    out.watcher_ops += script.steps.len() as u64;
                }
                out.keep_final(entry, fb);
            }
            Err(e) => {
                // A writer error before its last step leaves ops
                // unanswered, which already count; anything else is a
                // failure of its own.
                if !writer || out.ops - answered_before == script.steps.len() as u64 {
                    out.lost += 1;
                }
                out.fail(e);
            }
        }
        round += 1;
    }
    out
}

fn write_script(
    client: &mut ServeClient<MemTransport>,
    script: &Script,
    out: &mut Served,
) -> Result<(), String> {
    for step in &script.steps {
        let started = Instant::now();
        client.step_sync(step).map_err(|e| e.to_string())?;
        out.record_op(started);
    }
    Ok(())
}

/// Runs the clients against the set-up server for `budget`, then stops
/// the shards and reads the server's counters.
pub fn run(setup: &Setup, budget: Budget) -> Result<Served, String> {
    let server = &setup.server;
    let inputs = &setup.inputs;
    let before = server.merged_snapshot();
    let usage_before = usage()?;
    let started = Instant::now();
    let pace = Pace {
        budget,
        deadline: started
            + match budget {
                Budget::Seconds(s) => Duration::from_secs_f64(s),
                Budget::Rounds(_) => Duration::ZERO,
            },
    };
    let shared = Collab {
        barrier: Barrier::new(CLIENTS),
        stop: AtomicBool::new(false),
        writer_rounds: AtomicUsize::new(0),
    };
    let (parts, spread, usage_samples) = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (pace, shared) = (&pace, &shared);
                scope.spawn(move || {
                    if inputs.workload == Workload::Collab {
                        collab_client(server, inputs, c, pace, shared)
                    } else {
                        private_client(server, inputs, c, pace)
                    }
                })
            })
            .collect();
        let (mut samples, mut spread) = (0u64, 0usize);
        let mut usage_samples = vec![(started, usage_before)];
        while !handles.iter().all(|h| h.is_finished()) {
            if let Ok(u) = usage() {
                usage_samples.push((Instant::now(), u));
            }
            let loads = server.shard_loads();
            spread += loads.iter().max().unwrap_or(&0) - loads.iter().min().unwrap_or(&0);
            samples += 1;
            thread::sleep(LOAD_SAMPLE_EVERY);
        }
        let parts: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (parts, spread as f64 / samples.max(1) as f64, usage_samples)
    });
    let wall = started.elapsed();
    let usage_after = usage()?;
    let rss_peak_kb = status_kb("VmHWM")?;

    let mut out = Served::default();
    for part in parts {
        out.merge(part.map_err(|_| "client thread panicked".to_string())?);
    }
    out.wall_s = wall.as_secs_f64();
    out.usage = usage_after.since(&usage_before);
    out.start = Some(started);
    out.usage_samples = usage_samples;
    out.usage_samples.push((Instant::now(), usage_after));
    out.rss_peak_kb = rss_peak_kb;
    out.load_spread = spread;

    // Joining the shard threads lands every in-flight close in its
    // collector before the counters are read.
    server.shutdown_shards();
    let after = server.merged_snapshot();
    let delta = |key: &str| after.counter(key) - before.counter(key);
    out.shard_batches = delta("serve.shard.batches");
    out.backpressure_drops = delta("serve.backpressure_drops");
    out.replay_lag_p99 = after
        .histogram("serve.collab.replay_lag")
        .map_or(0, |h| h.approx_percentile(0.99));
    Ok(out)
}
