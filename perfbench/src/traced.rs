//! The traced replay: the same inputs, replayed on the benchmark's own
//! thread through the same public calls a shard makes, with a span
//! around each call. Nothing inside the program is instrumented for
//! this; the split of `HostedSession::apply_batch_traced` into apply,
//! settle, paint and diff comes from the `FrameRecord` the session
//! already keeps.
//!
//! Each session gets a real [`ServeClient`] on a [`MemTransport`]; the
//! benchmark plays the server half, so the client's decode and
//! framebuffer rebuild are measured too. The replay's server-side
//! framebuffers are the references the correctness gate compares with.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use atk_collab::DocRegistry;
use atk_core::ScriptStep;
use atk_graphics::Framebuffer;
use atk_serve::wire::BYE_BYE;
use atk_serve::{
    ClientFrame, FrameTransport, HostedSession, MemTransport, ServeClient, ServerConfig,
    ServerFrame,
};
use atk_trace::{Collector, Snapshot, Stage};

use crate::gate::same_pixels;
use crate::{Inputs, Workload};

/// Times the `admit` pool is replayed: one pass holds only ten
/// admissions, half of them cold.
pub const ADMIT_PASSES: usize = 20;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id, first half: the replayed session.
    pub session: u32,
    /// Request id, second half: the step within the session (0 for the
    /// admission).
    pub step: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder: spans nest by a stack and are written
/// out once the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    session: u32,
    step: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            session: 0,
            step: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the request id stamped on the spans that follow.
    pub fn request(&mut self, session: u32, step: u32) {
        self.session = session;
        self.step = step;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            session: self.session,
            step: self.step,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let now = self.now();
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Adds children of the closed span `parent` from durations the
    /// program measured itself, laid end to end from its start in
    /// pipeline order. Each is clamped to what is left of the parent.
    pub fn split(&mut self, parent: usize, parts: &[(&'static str, u64)]) {
        let (mut at, end) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        for &(name, dur_ns) in parts {
            let stop = (at + dur_ns).min(end);
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: stop,
                parent: Some(parent),
                session: self.spans[parent].session,
                step: self.spans[parent].step,
            });
            at = stop;
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds since span `id` started.
    fn since(&self, id: usize) -> u64 {
        self.now() - self.spans[id].start_ns
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// The root span each span descends from.
    pub fn roots(&self) -> Vec<usize> {
        let mut root = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are recorded before their children.
            root.push(s.parent.map_or(i, |p| root[p]));
        }
        root
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"session\":{},\"step\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.session,
                s.step
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Frame shapes the replayed sessions shipped for steps (initial
/// keyframes not included).
#[derive(Debug, Default, Clone)]
pub struct FrameTally {
    /// Frames shipped for steps.
    pub frames: u64,
    /// Of those, keyframes.
    pub keyframes: u64,
    /// Of those, empty updates (the diff found nothing).
    pub unchanged: u64,
    /// Summed `session.frame` duration of the keyframe frames, ns.
    pub keyframe_ns: u64,
    /// Raw wire length of every shipped frame, initial keyframes too.
    pub raw_bytes: u64,
    /// Encoded length of the same frames.
    pub encoded_bytes: u64,
}

/// What the traced replay produced.
pub struct Replay {
    /// The spans.
    pub tracer: Tracer,
    /// Final server-side framebuffer of every pool entry.
    pub refs: Vec<Framebuffer>,
    /// Replay clients whose framebuffer differed from their session's.
    pub mismatches: u64,
    /// Ops replayed.
    pub ops: u64,
    /// Wall-clock seconds of the replay.
    pub wall_s: f64,
    /// Time to first frame of every replayed admission, µs.
    pub ttff_us: Vec<f64>,
    /// Frame shapes.
    pub frames: FrameTally,
    /// Merged counters of every replayed session's collector.
    pub counters: Snapshot,
}

/// A replayed connection: the session, its client, and the server half
/// of the transport the benchmark plays.
struct Live {
    session: HostedSession,
    client: ServeClient<MemTransport>,
    server: MemTransport,
}

struct Replayer {
    tr: Tracer,
    templates: atk_apps::TemplateRegistry,
    docs: DocRegistry,
    opened: BTreeSet<String>,
    next_id: u64,
    frames: FrameTally,
    counters: Snapshot,
    ttff_us: Vec<f64>,
    mismatches: u64,
}

impl Replayer {
    /// Opens a session the way a shard does on `Hello` (`doc: None`) or
    /// `Attach`, under the open admission span `root`: build or fork,
    /// Welcome, initial keyframe, encode; then the client's handshake
    /// with both frames already queued, and the decode of its first
    /// frame.
    fn open(&mut self, root: usize, scene: &str, doc: Option<&str>) -> Result<Live, String> {
        let collector = Arc::new(Collector::new());
        collector.enable();
        let cfg = ServerConfig::default().session;
        let name = if self.opened.insert(scene.to_string()) {
            "session.build"
        } else {
            "session.open"
        };
        let (templates, docs) = (&mut self.templates, &self.docs);
        let mut session = self.tr.time(name, || match doc {
            None => HostedSession::open_with(scene, cfg, collector, Some(templates)),
            Some(doc) => {
                let attachment = docs.attach(doc, Some(scene)).map_err(|e| e.to_string())?;
                HostedSession::open_replica(attachment, cfg, collector, Some(templates))
            }
        })?;
        self.next_id += 1;
        let session_id = self.next_id;
        session.set_session_id(session_id);
        let (client_half, mut server) = MemTransport::pair();
        let (width, height) = session.size();
        let welcome = ServerFrame::Welcome {
            session_id,
            width,
            height,
        };
        server.send(&welcome.encode()).map_err(|e| e.to_string())?;
        let key = self
            .tr
            .time("session.keyframe", || session.initial_keyframe());
        self.ship(&mut session, &mut server, &key)?;
        let client = self
            .tr
            .time("client.keyframe", || match doc {
                None => ServeClient::connect(client_half, scene),
                Some(doc) => ServeClient::attach(client_half, doc, Some(scene)),
            })
            .map_err(|e| e.to_string())?;
        self.ttff_us.push(self.tr.since(root) as f64 / 1e3);
        let hello = self.decode(&mut server)?;
        if !matches!(
            hello,
            ClientFrame::Hello { .. } | ClientFrame::Attach { .. }
        ) {
            return Err(format!("expected hello or attach, got {hello:?}"));
        }
        Ok(Live {
            session,
            client,
            server,
        })
    }

    /// Encodes and sends one frame, tallying its raw and encoded size.
    fn ship(
        &mut self,
        session: &mut HostedSession,
        server: &mut MemTransport,
        frame: &ServerFrame,
    ) -> Result<(), String> {
        let bytes = self.tr.time("wire.encode", || session.encode_frame(frame));
        self.frames.raw_bytes += frame.wire_len() as u64;
        self.frames.encoded_bytes += bytes.len() as u64;
        server.send(&bytes).map_err(|e| e.to_string())
    }

    fn decode(&mut self, server: &mut MemTransport) -> Result<ClientFrame, String> {
        let body = server.recv().map_err(|e| e.to_string())?;
        self.tr
            .time("wire.decode", || ClientFrame::decode(&body))
            .map_err(|e| e.to_string())
    }

    /// Closes a `session.frame` span: splits it by the session's own
    /// stage record and tallies the frame's shape.
    fn frame_done(&mut self, span: usize, session: &HostedSession, frame: &ServerFrame) {
        if let Some(rec) = session.frame_log().records().last() {
            let part = |stage: Stage| rec.stage_us(stage) * 1000;
            self.tr.split(
                span,
                &[
                    ("session.apply", part(Stage::Apply)),
                    ("session.settle", part(Stage::Settle)),
                    ("session.paint", part(Stage::Paint)),
                    ("session.diff", part(Stage::Diff)),
                ],
            );
        }
        self.frames.frames += 1;
        match frame {
            ServerFrame::Keyframe { .. } => {
                self.frames.keyframes += 1;
                self.frames.keyframe_ns += self.tr.spans()[span].dur_ns();
            }
            ServerFrame::Update { rects, .. } if rects.is_empty() => self.frames.unchanged += 1,
            _ => {}
        }
    }

    /// One private step: client send, decode, apply, encode, client
    /// frame — the shard's `finish_batch` for a one-step batch.
    fn step(&mut self, live: &mut Live, step: &ScriptStep) -> Result<(), String> {
        let root = self.tr.begin("step");
        self.tr
            .time("client.send", || live.client.send_step(step))
            .map_err(|e| e.to_string())?;
        let ClientFrame::Step(step) = self.decode(&mut live.server)? else {
            return Err("expected a step".into());
        };
        let span = self.tr.begin("session.frame");
        let mut ft = live.session.begin_frame();
        let (frame, _) = live
            .session
            .apply_batch_traced(std::slice::from_ref(&step), 0, &mut ft);
        self.tr.end(span);
        live.session.finish_frame(ft);
        self.frame_done(span, &live.session, &frame);
        self.ship(&mut live.session, &mut live.server, &frame)?;
        self.tr
            .time("client.frame", || live.client.sync())
            .map_err(|e| e.to_string())?;
        self.tr.end(root);
        Ok(())
    }

    /// Drains a replica's document channel and ships what it applied —
    /// the shard's `pump_doc_ops`. `client_sync` is true for the
    /// author, whose client waits on its own step.
    fn pump_replica(&mut self, live: &mut Live, client_sync: bool) -> Result<(), String> {
        let ops = self.tr.time("collab.drain", || live.session.drain_ops());
        let span = self.tr.begin("session.frame");
        let mut ft = live.session.begin_frame();
        let (frame, _) = live.session.apply_ops_traced(&ops, &mut ft);
        self.tr.end(span);
        live.session.finish_frame(ft);
        self.frame_done(span, &live.session, &frame);
        self.ship(&mut live.session, &mut live.server, &frame)?;
        self.tr
            .time("client.frame", || {
                if client_sync {
                    live.client.sync()
                } else {
                    live.client.drain_frames().map(|_| ())
                }
            })
            .map_err(|e| e.to_string())
    }

    /// One shared-document op: the writer's step through the log and
    /// back (`step` span), then the watcher's catch-up (`watch` span).
    fn collab_step(
        &mut self,
        writer: &mut Live,
        watcher: &mut Live,
        step: &ScriptStep,
    ) -> Result<(), String> {
        let root = self.tr.begin("step");
        self.tr
            .time("client.send", || writer.client.send_step(step))
            .map_err(|e| e.to_string())?;
        let ClientFrame::Step(step) = self.decode(&mut writer.server)? else {
            return Err("expected a step".into());
        };
        self.tr.time("collab.submit", || {
            writer.session.submit_batch(std::slice::from_ref(&step), 0)
        });
        self.pump_replica(writer, true)?;
        self.tr.end(root);
        let root = self.tr.begin("watch");
        self.pump_replica(watcher, false)?;
        self.tr.end(root);
        Ok(())
    }

    /// Compares a replayed client with the session it mirrors and folds
    /// the session's counters in.
    fn close(&mut self, live: &Live) -> Framebuffer {
        self.close_session(&live.session, live.client.framebuffer())
    }

    fn close_session(&mut self, session: &HostedSession, client_fb: &Framebuffer) -> Framebuffer {
        let truth = session.framebuffer();
        if !same_pixels(client_fb, &truth) {
            self.mismatches += 1;
        }
        self.counters
            .merge(&session.collector().snapshot().without_spans());
        truth
    }
}

/// Replays every pool entry once (`admit`: [`ADMIT_PASSES`] times) on
/// this thread with spans, returning the spans and the reference
/// framebuffers.
pub fn replay(inputs: &Inputs) -> Result<Replay, String> {
    let collector = Arc::new(Collector::new());
    collector.enable();
    let mut r = Replayer {
        tr: Tracer::default(),
        templates: atk_apps::TemplateRegistry::new(collector),
        docs: DocRegistry::new(),
        opened: BTreeSet::new(),
        next_id: 0,
        frames: FrameTally::default(),
        counters: Snapshot::default(),
        ttff_us: Vec::new(),
        mismatches: 0,
    };
    let mut refs = Vec::with_capacity(inputs.scripts.len());
    let mut ops = 0u64;
    let started = Instant::now();
    let passes = if inputs.workload == Workload::Admit {
        ADMIT_PASSES
    } else {
        1
    };
    for pass in 0..passes {
        for (entry, script) in inputs.scripts.iter().enumerate() {
            let session = (pass * inputs.scripts.len() + entry) as u32 + 1;
            r.tr.request(session, 0);
            let root = r.tr.begin("admit");
            match inputs.workload {
                Workload::Admit => {
                    let mut live = r.open(root, &script.scene, None)?;
                    live.server
                        .send(
                            &ServerFrame::Bye {
                                reason: BYE_BYE.into(),
                            }
                            .encode(),
                        )
                        .map_err(|e| e.to_string())?;
                    let Live {
                        session,
                        client,
                        mut server,
                    } = live;
                    let (_, fb) =
                        r.tr.time("client.finish", || client.finish_with_frame())
                            .map_err(|e| e.to_string())?;
                    r.decode(&mut server)?;
                    r.tr.end(root);
                    let truth = r.close_session(&session, &fb);
                    ops += 1;
                    if pass == 0 {
                        refs.push(truth);
                    }
                }
                Workload::Typing | Workload::Mixed => {
                    let mut live = r.open(root, &script.scene, None)?;
                    r.tr.end(root);
                    for (i, step) in script.steps.iter().enumerate() {
                        r.tr.request(session, i as u32 + 1);
                        r.step(&mut live, step)?;
                        ops += 1;
                    }
                    refs.push(r.close(&live));
                }
                Workload::Collab => {
                    let doc = format!("replay-{entry}");
                    let mut writer = r.open(root, &script.scene, Some(&doc))?;
                    r.tr.end(root);
                    let root = r.tr.begin("admit");
                    let mut watcher = r.open(root, &script.scene, Some(&doc))?;
                    r.tr.end(root);
                    for (i, step) in script.steps.iter().enumerate() {
                        r.tr.request(session, i as u32 + 1);
                        r.collab_step(&mut writer, &mut watcher, step)?;
                        ops += 1;
                    }
                    let truth = r.close(&writer);
                    if !same_pixels(&r.close(&watcher), &truth) {
                        r.mismatches += 1;
                    }
                    refs.push(truth);
                }
            }
        }
    }
    Ok(Replay {
        wall_s: started.elapsed().as_secs_f64(),
        tracer: r.tr,
        refs,
        mismatches: r.mismatches,
        ops,
        ttff_us: r.ttff_us,
        frames: r.frames,
        counters: r.counters,
    })
}
